"""The reduction engine against the engine it replaced
(`homology_oracles.Reduction`).

`homology._Reduction` gathers only what a round changes and stops at the
first round that finds no pair; the oracle gathered both sides of every
removed cell, repeated the partners' gather for the next candidates, and
recorded a last empty round.  Both must leave the same live masks and
seeds and record the same non-empty rounds (g, h, x, y) in the same order:
on the chain complexes of the codes of `test_code_reduction.CODES` (the FC
ladder, the tori, the CCZ stacks, the colour codes and the 40 seeded
layouts), with the cofaces a code hands in, and on the chain and cochain
complexes, absolute and relative, of the `test_coreduction` ladder, its
closed and Lefschetz cases, the 40 seeded layouts, and Hypothesis's
punched complexes and random codes.  A code's replay of a cycle into the
residue (`_ChainReduction._image`) must not change either.  A spy checks
that no round is empty and that a round makes at most three gathers, and
that the live cells' counts stay exact after every round.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homology_oracles as oracle
from fractalcss.code import CssCode, css_from_complex
from fractalcss.complexes import Faces, FractalSpec, dual_with_boundary, fractal_complex
from fractalcss.gf2 import Gf2Matrix, _kernel_rows
from fractalcss.homology import _Reduction, betti, cobetti, default_label_split
from code_oracles import checks_of
from test_arrays import punched, seeded_layout
from test_code_reduction import CODES, _combos
from test_coreduction import CLOSED, LADDER, LEFSCHETZ
from test_text_fuzz import punched as random_punched


def _assert_same_reduction(down: list[Faces], up: list[Faces] | None = None) -> _Reduction:
    """Run the engine (with the cofaces `up` when given) and the oracle on
    the faces `down`: the same live masks, seeds and non-empty rounds."""
    red, ref = _Reduction(down, up), oracle.Reduction(down)
    (live, seeds), (want_live, want_seeds) = red.run(), ref.run()
    assert seeds == want_seeds
    assert len(live) == len(want_live)
    assert all(np.array_equal(a, b) for a, b in zip(live, want_live))
    want = [r for r in ref.rounds if len(r[2])]
    assert len(red.rounds) == len(want)
    for (g, h, x, y), (wg, wh, wx, wy) in zip(red.rounds, want):
        assert (g, h) == (wg, wh)
        assert np.array_equal(x, wx) and np.array_equal(y, wy)
    return red


def _code_chains(code: CssCode) -> tuple[list[Faces], list[Faces]]:
    """The faces and cofaces of a code's chain complex Z checks -> qubits ->
    X checks, as `code._ChainReduction` hands them to the engine."""
    n, x, z = code.n_qubits, code.x_checks, code.z_checks
    return [Faces.empty(len(x)), x.transpose(n), z], [x, z.transpose(n)]


def _assert_code_matches(code: CssCode, rng) -> None:
    down, up = _code_chains(code)
    _assert_same_reduction(down, up)
    ref = oracle.Reduction(down)
    live = ref.run()[0]
    red = code.reduction
    assert all(np.array_equal(a, b) for a, b in zip((red.live_x, red.live, red.live_z), live))
    for (g, h), rounds, rows in (((1, 2), red.z_rounds, red.z_rows),
                                 ((1, 0), red.x_rounds, red.x_rows)):
        want = [(x, y) for rg, rh, x, y in ref.rounds if (rg, rh) == (g, h)]
        # a block of two rows, one sparse and one dense
        bits = (rng.random((2, code.n_qubits)) < [[0.1], [0.5]]).astype(np.uint8)
        assert np.array_equal(red._image(bits.copy(), rounds, rows), red._image(bits, want, rows))


def _assert_complex_matches(cx) -> None:
    """Chains and cochains, absolute and relative to each label set whose
    cells form a subcomplex."""
    for labels in [frozenset()] + [frozenset(s) for s in default_label_split(cx) if s]:
        try:
            down = cx.relative_faces(set(labels)) if labels else cx.faces
        except ValueError:  # the labelled cells are no subcomplex
            continue
        _assert_same_reduction(down)
        n = cx.dim
        up = [down[k + 1].transpose(len(down[k])) for k in range(n)]
        _assert_same_reduction([Faces.empty(len(down[n]))] + up[::-1], down[::-1])


@pytest.mark.parametrize("name", sorted(CODES))
def test_codes_match_oracle(name):
    rng = np.random.default_rng(sorted(CODES).index(name))
    for code in CODES[name]():
        _assert_code_matches(code, rng)


@pytest.mark.parametrize("name, spec, style", LADDER, ids=[c[0] for c in LADDER])
def test_ladder_matches_oracle(name, spec, style):
    _assert_complex_matches(fractal_complex(spec, style))


@pytest.mark.parametrize("name", sorted(CLOSED))
def test_closed_match_oracle(name):
    _assert_complex_matches(CLOSED[name]())


@pytest.mark.parametrize("name", sorted(LEFSCHETZ))
def test_lefschetz_sides_match_oracle(name):
    cx = fractal_complex(LEFSCHETZ[name])
    _assert_complex_matches(cx)
    _assert_complex_matches(dual_with_boundary(cx))


@pytest.mark.parametrize("seed", range(40))
def test_seeded_layouts_match_oracle(seed):
    _assert_complex_matches(punched(*seeded_layout(seed)))


@settings(max_examples=40, deadline=None)
@given(random_punched(), st.integers(0, 2**32 - 1))
def test_random_punched_complexes_match_oracle(cx, seed):
    _assert_complex_matches(cx)
    rng = np.random.default_rng(seed)
    for i in range(1, cx.dim):
        _assert_code_matches(css_from_complex(cx, i), rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_random_codes_match_oracle(n, rank, seed):
    """Codes from random commuting checks, as in `test_code_reduction`: H_Z
    random, H_X random sums of its annihilator's basis."""
    rng = np.random.default_rng(seed)
    hz = Gf2Matrix.from_dense(rng.integers(0, 2, size=(rng.integers(0, n + 1), n)))
    dual = _kernel_rows(*hz.rref())
    rows = _combos(dual.data, n, rng, min(rank, dual.rows))
    hx = Gf2Matrix.from_dense(np.array([v.to_dense() for v in rows]).reshape(len(rows), n))
    code = CssCode(n_qubits=n, x_checks=checks_of(hx), z_checks=checks_of(hz), grading=1,
                   qubit_cells=list(range(n)), x_anchor_cells=[], source=None)
    _assert_code_matches(code, rng)


def test_rounds_are_never_empty_and_gather_at_most_three_times(monkeypatch):
    """Through `code_params`-style use (a code's reduction) and the betti
    and cobetti cross-checks: every recorded round paired some cells, and
    made at most three `Faces.take` calls."""
    takes = [0]
    per_round = []
    take, pair_off, init = Faces.take, _Reduction._pair_off, _Reduction.__init__

    class Ledger(list):
        def append(self, item):
            per_round.append((len(item[2]), takes[0]))
            takes[0] = 0
            super().append(item)

    def counted_take(self, cells):
        takes[0] += 1
        return take(self, cells)

    def fresh_pair_off(self, g, h):
        takes[0] = 0  # a seed's gather is no round's
        return pair_off(self, g, h)

    def ledger_init(self, down, up=None):
        init(self, down, up)
        self.rounds = Ledger()

    monkeypatch.setattr(Faces, "take", counted_take)
    monkeypatch.setattr(_Reduction, "_pair_off", fresh_pair_off)
    monkeypatch.setattr(_Reduction, "__init__", ledger_init)
    cx = fractal_complex(FractalSpec(3, 4, 2, 2, holes="m"), "code")
    e, _ = default_label_split(cx)
    assert css_from_complex(cx, 1).reduction.k == 1
    assert betti(cx, 1, e) == cobetti(cx, 1, e) == 1
    for name in ("torus4", "layout3", "ccz-L3-center", "colorcode-L2"):
        for code in CODES[name]():
            code.reduction.k
    assert len(per_round) > 100
    assert all(pairs > 0 for pairs, _ in per_round)
    assert max(gathers for _, gathers in per_round) <= 3


def _assert_live_counts_exact(red: _Reduction) -> None:
    """Every live cell's counts are its live faces and live cofaces: what
    `_pair_off` reads, and all that skipping the dead cells' updates keeps."""
    top = len(red.live) - 1
    sides = [(k, red.down[k], red.n_down[k], red.live[k - 1]) for k in range(1, top + 1)]
    sides += [(k, red.up[k], red.n_up[k], red.live[k + 1]) for k in range(top)]
    for k, fs, count, near in sides:
        true = np.bincount(fs.owners()[near[fs.idx]], minlength=len(fs))
        assert np.array_equal(true[red.live[k]], count[red.live[k]])


def test_live_counts_stay_exact_after_every_round(monkeypatch):
    """After each round, on the chains and cochains of every fourth seeded
    layout and the chain complexes of its codes, and on FC(4,2) level 2."""
    init = _Reduction.__init__
    checked = []

    class Checked(list):
        def __init__(self, red):
            super().__init__()
            self.red = red

        def append(self, item):
            super().append(item)
            _assert_live_counts_exact(self.red)
            checked.append(item)

    def checked_init(self, down, up=None):
        init(self, down, up)
        self.rounds = Checked(self)

    monkeypatch.setattr(_Reduction, "__init__", checked_init)
    for seed in range(0, 40, 4):
        _assert_complex_matches(punched(*seeded_layout(seed)))
        for code in CODES[f"layout{seed}"]():
            _assert_code_matches(code, np.random.default_rng(seed))
    _assert_complex_matches(fractal_complex(FractalSpec(3, 4, 2, 2, holes="m"), "code"))
    assert len(checked) > 100
