"""The CLI surface built from the flag and command tables: every `--help`
text byte for byte as `cli_help.json` holds it (at 80 columns, as Python
3.11's argparse formats it, the version CI runs), every command's
defaults, and the distance fallback of `distance` and `scan`
(`cli._distances`): an exact method that refuses its code falls back to
the low-weight search, a method that `--methods` leaves out is not
called, d_Z is settled (exact method, then search) before d_X, a
search over its budget is exit 3, and a `--methods` name other than bfs,
mincut or none is exit 2."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from fractalcss import cli
from fractalcss.distance import BudgetError, DistanceResult, PreconditionError

HELP = json.loads((Path(__file__).parent / "cli_help.json").read_text())


@pytest.mark.parametrize("command", list(HELP))
def test_help_text_is_pinned(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        cli.main(([command] if command else []) + ["--help"])
    assert exc.value.code == 0
    assert out.getvalue() == HELP[command]


def test_every_command_has_a_pinned_help():
    assert set(HELP) == {""} | set(cli._COMMANDS)


# what each command reads when given only its required arguments (the help
# texts show no defaults): merge's --level is 0 where every other is 1
SPEC = {"dim": 3, "p": 3, "q": 1, "background": "open", "holes": "m"}
DEFAULTS = {
    "gen": {**SPEC, "level": 1, "style": "plain", "out": None},
    "code": {**SPEC, "level": 1, "i": 1, "style": "plain", "out": None, "complex": None},
    "params": {"code": "c"},
    "homology": {**SPEC, "level": 1, "style": "plain", "complex": None, "grade": 1,
                 "relative": "", "lefschetz": False},
    "distance": {**SPEC, "level": 1, "i": 1, "complex": None, "methods": "bfs,mincut",
                 "wmax": 2},
    "scan": {**SPEC, "i": 1, "out": None, "level_min": 1, "level_max": 2,
             "methods": "bfs,mincut", "wmax": 2, "timings": False},
    "table1": {"out": None, "verify_levels": 0},
    "gate-check": {"which": "cz", "vb": False, "colorcode": False, "L": 2, "hole": None,
                   "out": None},
    "merge": {"dim": 3, "L": 2, "p": 3, "q": 1, "level": 0, "out": None},
    "export": {"code": "c", "what": "hx", "out": None},
}
REQUIRED = {"params": ["--code", "c"], "export": ["--code", "c"], "gate-check": ["cz"]}


@pytest.mark.parametrize("command", list(DEFAULTS))
def test_defaults_are_pinned(command):
    args = vars(cli.build_parser().parse_args([command] + REQUIRED.get(command, [])))
    assert args.pop("command") == command and args.pop("func").__name__.startswith("cmd_")
    assert args == DEFAULTS[command]


@pytest.fixture
def calls(monkeypatch):
    """Stand-ins for the three distance routines that log each call: the
    exact methods refuse the codes named in `refuse`, the search returns
    d = 5 (or raises what `search_raises` holds)."""
    log, refuse, search_raises = [], set(), []

    def exact(name, value):
        def method(code):
            log.append(name)
            if name in refuse:
                raise PreconditionError(f"{name} refuses")
            return DistanceResult(value, "exact")
        return method

    def search(code, pauli, w_max):
        log.append(f"search {pauli} {w_max}")
        if search_raises:
            raise search_raises[0]
        return DistanceResult(5, "certified_above")

    monkeypatch.setattr(cli, "dz_shortest_path", exact("bfs", 3))
    monkeypatch.setattr(cli, "dx_min_cut", exact("mincut", 8))
    monkeypatch.setattr(cli, "exhaustive_low_weight", search)
    return log, refuse, search_raises


def test_exact_methods_answer_when_named(calls):
    log, _, _ = calls
    dz, dx = cli._distances(None, "bfs,mincut", 2)
    assert (dz.value, dz.kind, dx.value, dx.kind) == (3, "exact", 8, "exact")
    assert log == ["bfs", "mincut"]


def test_a_refused_exact_method_falls_back_to_the_search(calls):
    log, refuse, _ = calls
    refuse.add("mincut")
    dz, dx = cli._distances(None, "bfs,mincut", 4)
    assert (dz.value, dz.kind, dx.value, dx.kind) == (3, "exact", 5, "certified_above")
    assert log == ["bfs", "mincut", "search X 4"]


def test_a_method_left_out_is_not_called(calls):
    log, _, _ = calls
    dz, dx = cli._distances(None, "mincut", 2)
    assert (dz.kind, dx.kind) == ("certified_above", "exact")
    assert log == ["search Z 2", "mincut"]
    log.clear()
    cli._distances(None, "none", 3)
    assert log == ["search Z 3", "search X 3"]


def test_d_z_is_settled_before_d_x(calls):
    log, refuse, _ = calls
    refuse.update({"bfs", "mincut"})
    cli._distances(None, "bfs,mincut", 2)
    assert log == ["bfs", "search Z 2", "mincut", "search X 2"]


def test_a_search_over_its_budget_is_exit_3(calls, capsys):
    log, refuse, search_raises = calls
    refuse.add("bfs")
    search_raises.append(err := BudgetError(10, 1))
    rc = cli.main(["distance", "--dim", "2", "--level", "1"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err == f"budget exceeded: {err}\n" and "certified_above=1" in str(err)
    assert log == ["bfs", "search Z 2"]


# what `distance --level 1` prints per accepted --methods value
METHODS = {
    "none": "dz=2 dz_kind=certified_above dx=2 dx_kind=certified_above",
    "bfs": "dz=3 dz_kind=exact dx=2 dx_kind=certified_above",
    "mincut": "dz=2 dz_kind=certified_above dx=8 dx_kind=exact",
    "mincut,bfs": "dz=3 dz_kind=exact dx=8 dx_kind=exact",
    "bfs, mincut": "dz=3 dz_kind=exact dx=8 dx_kind=exact",
}


@pytest.mark.parametrize("methods", list(METHODS))
def test_accepted_method_names_keep_their_output(methods, tmp_path, capsys):
    assert cli.main(["distance", "--level", "1", "--methods", methods]) == 0
    assert capsys.readouterr().out == METHODS[methods] + "\n"
    out = tmp_path / "scan.csv"
    assert cli.main(["scan", "--level-max", "1", "--methods", methods, "--out", str(out)]) == 0
    dz, dz_kind, dx, dx_kind = (part.split("=")[1] for part in METHODS[methods].split())
    assert out.read_text().splitlines()[1] == f"3,3,1,1,3,1,{dz},{dz_kind},{dx},{dx_kind},0.000"


@pytest.mark.parametrize("methods", ["mincutt", "foo", "", "bfs,,mincut"])
def test_an_unknown_method_name_is_exit_2(methods, tmp_path, capsys):
    """A name other than bfs, mincut or none, an empty one included, was
    read by substring (mincutt ran the min cut) or ignored."""
    message = f"error: --methods takes bfs, mincut or none, not {methods!r}\n"
    assert cli.main(["distance", "--level", "1", "--methods", methods]) == 2
    assert capsys.readouterr() == ("", message)
    out = tmp_path / "scan.csv"
    assert cli.main(["scan", "--level-max", "1", "--methods", methods, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", message)
    assert not out.exists()
