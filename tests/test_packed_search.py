"""Differential tests of the packed-word paths against the loops they
replaced (``search_oracles``): the exhaustive search with its budget
cut-off, row-space membership, the CZ/CCZ conditions with the CCZ
phase-polynomial identity flag, and the p-fold parity rule against a
brute force of all parities: at p = 3 on four copies, and at p = 1..3 on
random rows, site maps and masks of the sites met.  Every result must match bit for bit:
values, kinds, witness supports, the weight a BudgetError certifies, and
whole gate reports.  The logical basis, which now comes from the code's
chain reduction, must lie in the cosets of the dense route's
(``code_oracles.logical_basis``).
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fractalcss.gf2 as gf2_mod
import code_oracles
import search_oracles as oracle
from fractalcss.code import CssCode, PauliOperator, css_from_complex, logical_basis
from fractalcss.colorcode import build_color_code_2d
from fractalcss.complexes import (
    Faces,
    FractalSpec,
    build_lattice,
    code_lattice,
    fractal_complex,
    punch_box,
    punch_holes,
)
from fractalcss.distance import BudgetError, _adjacent_pairs, exhaustive_low_weight
from fractalcss.gates import (
    StackAlignment,
    _cz_part_is_identity,
    _parity_failures,
    _parity_report,
    align_by_boxes,
    align_identical,
    build_vasmer_browne_stack,
    check_transversal_ccz,
    check_transversal_cz,
    conjugate_by_ccz,
    merge_rough,
)
from fractalcss.gf2 import Gf2Matrix, Gf2Vector, in_rowspace
from test_arrays import seeded_layout
from test_code_reduction import _layout_codes


def _fc(n, p, q, level, holes="m"):
    return css_from_complex(fractal_complex(FractalSpec(n, p, q, level, holes=holes), "code"), 1)


def _mixed(seed):
    """FC(3,1) level 2 with 14 of its 26 level-2 holes drawn as e-holes."""
    e = set(random.Random(seed).sample(range(1, 27), 14))
    return _fc(3, 3, 1, 2, {h: "e" if h in e else "m" for h in range(27)})


def _torus4d(kind):
    return css_from_complex(punch_box(build_lattice(4, 2, "torus"), (0, 0, 0, 0), 1, kind), 2)


CODES = {
    "fc31-l1-m": lambda: _fc(3, 3, 1, 1),
    "fc31-l1-e": lambda: _fc(3, 3, 1, 1, "e"),
    "fc31-l2-m": lambda: _fc(3, 3, 1, 2),
    "fc31-l2-e": lambda: _fc(3, 3, 1, 2, "e"),
    "fc42-l1-m": lambda: _fc(3, 4, 2, 1),
    "sc31-l1": lambda: _fc(2, 3, 1, 1),
    "sc31-l2": lambda: _fc(2, 3, 1, 2),
    "sc31-l3": lambda: _fc(2, 3, 1, 3),
    "torus4d-e": lambda: _torus4d("e"),
    "torus4d-m": lambda: _torus4d("m"),
    "cube3-L2": lambda: css_from_complex(code_lattice(3, 2), 1),
    "mixed-1": lambda: _mixed(1),
    "mixed-7": lambda: _mixed(7),
}


def _seeded_codes():
    """Codes on the seeded hole layouts the punch accepts, every grading."""
    out = {}
    for seed in range(0, 40, 3):
        cx, holes, _ = seeded_layout(seed)
        try:
            cx = punch_holes(cx, holes)
        except ValueError:
            continue
        for i in range(1, cx.dim):
            out[f"layout{seed}-i{i}"] = lambda cx=cx, i=i: css_from_complex(cx, i)
    return out


SEEDED = _seeded_codes()


def _outcome(search, code, op_type, w_max, budget=None):
    try:
        res = search(code, op_type, w_max, budget=budget)
    except BudgetError as err:
        return ("budget", err.certified_above)
    bits = None
    if res.witness is not None:
        bits = (res.witness.x_support.indices(), res.witness.z_support.indices())
    return (res.value, res.kind, bits)


@pytest.mark.parametrize("name", list(CODES) + list(SEEDED))
def test_exhaustive_matches_oracle(name):
    code = {**CODES, **SEEDED}[name]()
    w_top = 3 if code.n_qubits <= 200 else 2
    for op_type in ("X", "Z"):
        for w_max in range(1, w_top + 1):
            got = _outcome(exhaustive_low_weight, code, op_type, w_max)
            assert got == _outcome(oracle.exhaustive_low_weight, code, op_type, w_max), (
                op_type, w_max)


def _threshold(code, op_type, w_max, hi):
    """The least budget the oracle search finishes within."""
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _outcome(oracle.exhaustive_low_weight, code, op_type, w_max, mid)[0] == "budget":
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("name", ["fc31-l1-m", "fc31-l1-e", "sc31-l1", "sc31-l2", "torus4d-e",
                                  "cube3-L2", "layout0-i2", "layout6-i1", "layout18-i2"])
def test_budget_sweep_matches_oracle(name):
    code = {**CODES, **SEEDED}[name]()
    n = code.n_qubits
    edges = len(_adjacent_pairs(code)[0])
    for op_type in ("X", "Z"):
        for w_max in (1, 2, 3) if n <= 200 else (1, 2):
            need = _threshold(code, op_type, w_max, 10**6)
            budgets = {1, n - 1, n, n + 1, 2 * n + edges - 1, 2 * n + edges,
                       need - 2, need - 1, need, need + 1}
            for budget in sorted(b for b in budgets if b >= 1):
                got = _outcome(exhaustive_low_weight, code, op_type, w_max, budget)
                want = _outcome(oracle.exhaustive_low_weight, code, op_type, w_max, budget)
                assert got == want, (op_type, w_max, budget)


def test_adjacent_pairs_of_int32_checks_past_46341_qubits():
    """With int32 columns, a * n wraps past 46,340 qubits unless the keys
    are widened first: the pairs of every X and Z check, against a brute
    force over each check's columns."""
    n = 50_000
    x_rows = [[0, 49_999], [10, 46_341, 46_342, 49_000], [10, 20]]
    z_rows = [[0, 49_999], [46_341, 46_342], [47_000, 48_000, 49_500]]

    def faces(rows):
        ptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int32)
        return Faces(ptr, np.concatenate(rows).astype(np.int32))

    code = CssCode(faces(x_rows), faces(z_rows), 1, np.arange(n))
    want = sorted({(a, b) for row in x_rows + z_rows for i, a in enumerate(row) for b in row[i + 1:]})
    a, b = _adjacent_pairs(code)
    assert list(zip(a.tolist(), b.tolist())) == want


def test_budget_error_certifies_the_finished_weights():
    code = css_from_complex(code_lattice(3, 3), 1)
    n = code.n_qubits
    edges = len(_adjacent_pairs(code)[0])
    for budget, certified in ((n - 1, 0), (n + 1, 1), (2 * n + edges + 1, 2)):
        with pytest.raises(BudgetError, match=f"certified_above={certified}") as err:
            exhaustive_low_weight(code, "Z", 4, budget=budget)
        assert err.value.certified_above == certified


def test_in_rowspace_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(60):
        rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 150))
        m = Gf2Matrix.from_dense(rng.random((rows, cols)) < 0.2)
        R, pivots = m.rref()
        members = (m.row(int(r)) ^ m.row(int(s)) for r, s in rng.integers(0, rows, (5, 2)))
        randoms = (Gf2Vector.from_dense(rng.random(cols) < 0.3) for _ in range(5))
        for v in [*members, *randoms, Gf2Vector(cols)]:
            assert in_rowspace(R, pivots, v) == oracle.in_rowspace(R, pivots, v)


def test_indices_match_oracle():
    rng = np.random.default_rng(9)
    for n in (1, 63, 64, 65, 200, 1000):
        for density in (0.0, 0.05, 0.5, 1.0):
            v = Gf2Vector.from_dense(rng.random(n) < density)
            assert v.indices() == oracle.indices(v)


def _merged(L):
    build = (lambda: css_from_complex(code_lattice(3, L), 1)) if L else (lambda: _fc(3, 3, 1, 1))
    return merge_rough(build(), build()).merged


def _assert_oracle_cosets(code):
    """Each representative of the logical basis is a combination of the
    dense oracle's plus a stabilizer, and the basis pairs as the identity.
    The oracle's basis pairs as the identity too, so the combination of a
    representative v is read off its pairings with the oracle's dual
    representatives, and what is left must lie in the dense row space of
    the checks of its type."""
    zs, xs = logical_basis(code)
    oracle_zs, oracle_xs = code_oracles.logical_basis(code)
    k = code.reduction.k
    assert len(zs) == len(xs) == len(oracle_zs) == len(oracle_xs) == k
    z = [op.z_support for op in zs]
    x = [op.x_support for op in xs]
    assert [[a.dot(b) for b in x] for a in z] == np.eye(k, dtype=int).tolist()
    for reps, old, dual, checks in ((z, [op.z_support for op in oracle_zs],
                                     [op.x_support for op in oracle_xs], code.hz),
                                    (x, [op.x_support for op in oracle_xs],
                                     [op.z_support for op in oracle_zs], code.hx)):
        rref = checks.rref()
        for v in reps:
            w = v.copy()
            for o, d in zip(old, dual):
                if v.dot(d):
                    w ^= o
            assert in_rowspace(*rref, w)


def _coset_codes():
    """The merges, the colour codes, the copies of the CCZ stack, the
    ladder's codes of `CODES` and the 40 seeded layouts at every grading,
    each as a list of codes."""
    makers = {"merge-L2": lambda: [_merged(2)], "merge-L3": lambda: [_merged(3)],
              "merge-fc31-l1": lambda: [_merged(None)],
              **{name: (lambda make=make: [make()]) for name, make in CODES.items()}}
    for L in (1, 2, 3):
        makers[f"colour-L{L}"] = lambda L=L: [build_color_code_2d(L).code]
    for L in (2, 3):
        for holes in (None, "center"):
            makers[f"ccz-L{L}-{holes or 'clean'}"] = (
                lambda L=L, holes=holes: build_vasmer_browne_stack(L, holes)[0])
    for seed in range(40):
        makers[f"layout{seed}"] = lambda seed=seed: _layout_codes(seed)
    return makers


COSET_CODES = _coset_codes()


@pytest.mark.parametrize("name", list(COSET_CODES))
def test_logical_basis_matches_oracle(name):
    for code in COSET_CODES[name]():
        _assert_oracle_cosets(code)


def _stacks():
    for L in (2, 3, 4, 5):
        for holes in (None, "center"):
            yield f"L{L}-{holes or 'clean'}", L, holes


@pytest.mark.parametrize("name, L, holes", list(_stacks()))
def test_ccz_and_cz_reports_match_oracle(name, L, holes):
    codes, align = build_vasmer_browne_stack(L, holes)
    assert check_transversal_ccz(*codes, align) == oracle.check_transversal_ccz(*codes, align)
    for a, b in ((0, 1), (1, 2), (2, 0), (1, 1)):
        assert (check_transversal_cz(codes[a], codes[b], align)
                == oracle.check_transversal_cz(codes[a], codes[b], align))
    bare = align_identical(codes)  # the same stack without its logicals
    for copy, code in enumerate(codes):
        others = tuple(t for t in range(3) if t != copy)
        for r in range(code.hx.rows):
            sites = oracle.sites_of(align, copy, code.hx.row(r))
            for stack in (align, bare):
                assert (_cz_part_is_identity(sites, others, stack)
                        == oracle.cz_part_is_identity(sites, others, stack))


@pytest.mark.parametrize("L", range(2, 7))
def test_cz_reports_match_oracle(L):
    a = css_from_complex(code_lattice(2, L, e_axes=(1,)), 1)
    b = css_from_complex(code_lattice(2, L, e_axes=(0,)), 1)
    for pair in ((a, b), (a, a), (b, a)):
        align = align_by_boxes(list(pair))
        assert (align.n_sites, [s.tolist() for s in align.qubit_site]) == oracle.box_sites(pair)
        assert check_transversal_cz(*pair, align) == oracle.check_transversal_cz(*pair, align)


def test_ccz_reports_with_permuted_and_missing_logicals_match_oracle():
    codes, align = build_vasmer_browne_stack(3, "center")
    for order in ((2, 0, 1), (1, 2, 0)):
        stack = [codes[t] for t in order]
        assert (check_transversal_ccz(*stack, align)
                == oracle.check_transversal_ccz(*stack, align))
    align.x_logicals[0] = None  # copy 0 (k = 1) falls back to its logical basis
    assert check_transversal_ccz(*codes, align) == oracle.check_transversal_ccz(*codes, align)
    align.x_logicals[1] = None  # copy 1 has k = 20: its basis names no one class
    with pytest.raises(ValueError, match="copy 1 has k = 20 and no logical X"):
        check_transversal_ccz(*codes, align)


def test_a_logical_changed_after_a_check_is_read():
    """Each copy's logical X is packed once per logical object: a logical
    set after a CCZ conjugation has packed the rows is the one the 40
    CZ-part flags and the CCZ report read, as in a fresh alignment and the
    oracle (the rows cached with the old logical gave 7 other flags).  Two
    copies' logicals fail here, and the oracle lists their witnesses in
    another order, so its report is compared as witness sets."""
    codes, align = build_vasmer_browne_stack(3, "center")

    def x_check(copy, r):
        code = codes[copy]
        return PauliOperator.x_type(Gf2Vector.from_indices(code.n_qubits, code.x_checks[r]))

    conjugate_by_ccz(x_check(0, 0), 0, align)
    align.x_logicals[1] = align.x_logicals[2]
    fresh = align_identical(codes, align.x_logicals)
    flags = [[conjugate_by_ccz(x_check(copy, r), copy, al).cz_identity
              for copy in range(3) for r in range(len(codes[copy].x_checks))]
             for al in (align, fresh)]
    assert len(flags[0]) == 40 and flags[0] == flags[1]
    for copy, code in enumerate(codes):
        others = tuple(t for t in range(3) if t != copy)
        for r in range(len(code.x_checks)):
            sites = align.sites_of(copy, x_check(copy, r).x_support)
            assert (_cz_part_is_identity(sites, others, align)
                    == oracle.cz_part_is_identity(sites, others, align))
    report = check_transversal_ccz(*codes, align)
    assert report == check_transversal_ccz(*codes, fresh)
    assert ([(c.condition_id, c.passed, sorted(c.witnesses)) for c in report.conditions]
            == [(c.condition_id, c.passed, sorted(c.witnesses))
                for c in oracle.check_transversal_ccz(*codes, align).conditions])


def test_one_logical_witnesses_list_the_last_copys_logical_first():
    """The choices with one logical come in `itertools.product` order of
    the roles, so the last copy's logical comes first, where the oracle
    lists copy 0's first: on the holed L = 3 stack with copy 1's logical
    set to copy 2's brane, copy 1's witnesses precede copy 0's.  The
    witness sets are the oracle's."""
    codes, align = build_vasmer_browne_stack(3, "center")
    align.x_logicals[1] = align.x_logicals[2]
    got = check_transversal_ccz(*codes, align).conditions[1]
    want = oracle.check_transversal_ccz(*codes, align).conditions[1]
    assert got.condition_id == "CCZ1-stab-stab-logical"
    assert got.witnesses == (
        ("0:X0", "2:X0", "1:Xbar", 1), ("0:X1", "2:X1", "1:Xbar", 1),
        ("0:X10", "2:X9", "1:Xbar", 1), ("0:X11", "2:X9", "1:Xbar", 1),
        ("1:X1", "2:X4", "0:Xbar", 1), ("1:X1", "2:X6", "0:Xbar", 1),
        ("1:X9", "2:X4", "0:Xbar", 1), ("1:X9", "2:X6", "0:Xbar", 1))
    assert sorted(got.witnesses) == sorted(want.witnesses)


def test_small_chunks_match_oracle(monkeypatch):
    """The chunked loops of `gf2` (kernel columns, matrix products) give the
    same results when every step is cut into many small chunks: the same
    gate reports, and logical bases in the dense oracle's cosets."""
    monkeypatch.setattr(gf2_mod, "_CHUNK_WORDS", 40)
    codes, align = build_vasmer_browne_stack(3, "center")
    assert check_transversal_ccz(*codes, align) == oracle.check_transversal_ccz(*codes, align)
    assert (check_transversal_cz(codes[0], codes[1], align)
            == oracle.check_transversal_cz(codes[0], codes[1], align))
    for code in (_merged(2), *codes):
        _assert_oracle_cosets(code)


# The p-fold rule at p = 3, a C^3Z on four copies: condition m holds the
# choices with m logicals.
C3Z = tuple((f"C3Z-{m}", "{copy}:X{row}", "{copy}:Xbar") for m in range(4)) + (
    ("C3Z-4", "", "Xbar{n}"),)


def _four_copies(code, logicals):
    """A p = 3 report on four copies of one code object, with `logicals`."""
    xs = [PauliOperator.x_type(x) for x in logicals]
    align = align_identical([code] * 4, xs)
    return align, _parity_report(align, [code] * 4, C3Z)


def _assert_matches_brute_force(align, report):
    """Each condition lists exactly the brute force's failing choices, and
    holds iff there are none."""
    for cond, want in zip(report.conditions, oracle.parity_failures(align, [0, 1, 2, 3])):
        got = set()
        for *labels, parity in cond.witnesses:
            if labels == ["Xbar1", "Xbar2", "Xbar3", "Xbar4"]:
                got.add(((None,) * 4, parity))
                continue
            rows = {}
            for label in labels:
                copy, _, row = label.partition(":X")
                rows[int(copy)] = None if row == "bar" else int(row)
            got.add((tuple(rows[t] for t in range(4)), parity))
        assert len(got) == len(cond.witnesses) and got == want, cond.condition_id
        assert cond.passed == (not want)


def _random_code(rng, n, checks, density=0.4):
    rows, cols = np.nonzero(rng.random((checks, n)) < density)
    return CssCode(x_checks=Faces.from_pairs(checks, rows, cols), z_checks=Faces.empty(0),
                   grading=1, qubit_cells=list(range(n)))


@pytest.mark.parametrize("seed", range(16))
def test_four_fold_rule_matches_brute_force_on_random_rows(seed):
    """Random X checks and random logical rows, dense and sparse: each
    condition both holds and fails on some seeds."""
    rng = np.random.default_rng(seed)
    density = (0.4, 0.1)[seed % 2]
    code = _random_code(rng, int(rng.integers(6, 14)), int(rng.integers(2, 6)), density)
    logicals = [Gf2Vector.from_dense(rng.random(code.n_qubits) < 2 * density) for _ in range(4)]
    _assert_matches_brute_force(*_four_copies(code, logicals))


def test_four_fold_rule_matches_brute_force_on_cube_code():
    """Four copies of the L = 2 cube code, whose logical X are given as
    four distinct representatives of its one class."""
    code = css_from_complex(code_lattice(3, 2), 1)
    x = logical_basis(code)[1][0].x_support
    logicals = [x, x ^ code.hx.row(0), x ^ code.hx.row(1), x ^ code.hx.row(0) ^ code.hx.row(2)]
    align, report = _four_copies(code, logicals)
    _assert_matches_brute_force(align, report)
    assert [len(c.witnesses) for c in report.conditions] != [0] * 5


@st.composite
def _parity_cases(draw):
    """p + 1 copies (p = 1..3) of one to p + 1 code objects, one object
    possibly at two positions, with random X checks (some of no qubit),
    random injective site maps per position, a logical or none per
    position (some of no qubit), and a random mask of the sites met."""
    p = draw(st.integers(1, 3))
    n_sites = draw(st.integers(1, 9))
    codes = []
    for _ in range(draw(st.integers(1, p + 1))):
        n = draw(st.integers(1, n_sites))
        rows = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), max_size=4))
        r, c = np.nonzero(np.array(rows, dtype=bool).reshape(len(rows), n))
        codes.append(CssCode(Faces.from_pairs(len(rows), r, c), Faces.empty(0), 1, np.arange(n)))
    stack = [codes[draw(st.integers(0, len(codes) - 1))] for _ in range(p + 1)]
    sites = [draw(st.permutations(range(n_sites)))[:code.n_qubits] for code in stack]
    logicals = [draw(st.none() | st.lists(st.booleans(), min_size=code.n_qubits,
                                           max_size=code.n_qubits)) for code in stack]
    xs = [None if x is None else PauliOperator.x_type(Gf2Vector.from_dense(np.array(x, dtype=bool)))
          for x in logicals]
    on = draw(st.lists(st.booleans(), min_size=n_sites, max_size=n_sites))
    return StackAlignment(stack, n_sites, sites, xs), np.array(on, dtype=bool)


@settings(max_examples=300, deadline=None)
@given(_parity_cases())
def test_parity_failures_match_brute_force(case):
    """`_parity_failures` on the sites of a mask yields every choice of
    roles, fewer logicals first and then in `itertools.product` order, and
    per choice exactly the brute force's breaking rows (a logical with no
    site is still a row), in row-major order.  On the same sites, the CZ
    part of each ordered pair of copies is an identity as the oracle says."""
    align, on = case
    copies = list(range(len(align.codes)))
    rows = [align._rows(t, basis=False) for t in copies]
    want = oracle.parity_failures(align, copies, set(np.flatnonzero(on).tolist()))
    options = [(False, True) if x is not None else (False,) for x in align.x_logicals]
    got = list(_parity_failures(rows, on))
    assert [roles for roles, _ in got] == sorted(itertools.product(*options), key=sum)
    found = [set() for _ in range(len(copies) + 1)]
    for roles, picks in got:
        m, picks = sum(roles), list(map(tuple, picks.tolist()))
        assert picks == sorted(set(picks))
        found[m] |= {(tuple(None if role else r for role, r in zip(roles, pick)),
                      int(m < len(copies))) for pick in picks}
    assert found == want
    sites = frozenset(np.flatnonzero(on).tolist())
    for pair in itertools.permutations(copies, 2):
        assert (_cz_part_is_identity(sites, pair, align)
                == oracle.cz_part_is_identity(sites, pair, align))


def test_parity_failures_refuse_keys_past_int64():
    """Four copies of 2**16 rows take keys up to 2**64: refused, where
    three copies (2**48) fit and every diagonal choice meets once.  A
    logical is one more row of its copy: four copies of r = 55,108 rows
    (r**4 < 2**63) fit, and with their logicals as row r they are refused."""
    def diagonal(n):
        return CssCode(Faces(np.arange(n + 1), np.arange(n)), Faces.empty(0), 1, np.arange(n))

    n = 1 << 16
    every = np.ones(n, dtype=bool)
    rows = [(x, None) for x in align_identical([diagonal(n)] * 4).x_rows]
    with pytest.raises(ValueError, match="past int64"):
        list(_parity_failures(rows, every))
    [(roles, picks)] = _parity_failures(rows[:3], every)
    assert picks.tolist() == [[r] * 3 for r in range(n)]
    r = math.isqrt(math.isqrt(np.iinfo(np.int64).max))
    code, first = diagonal(r), np.arange(r) < 2
    [(roles, picks)] = _parity_failures([(x, None) for x in align_identical([code] * 4).x_rows],
                                        first)
    assert picks.tolist() == [[0] * 4, [1] * 4]
    x = PauliOperator.x_type(Gf2Vector.from_indices(r, [0]))
    align = align_identical([code] * 4, [x] * 4)
    with pytest.raises(ValueError, match=rf"choices of \[{r + 1}, {r + 1}, .* past int64"):
        list(_parity_failures([align._rows(t) for t in range(4)], first))


def test_four_copy_witness_text():
    """A witness of four copies prints all four, a to d."""
    rng = np.random.default_rng(3)
    code = _random_code(rng, 10, 4)
    logicals = [Gf2Vector.from_dense(rng.random(10) < 0.6) for _ in range(4)]
    report = _four_copies(code, logicals)[1]
    cond = next(c for c in report.conditions[1:4] if c.witnesses)
    a, b, c, d, parity = cond.witnesses[0]
    assert f"[witness: a={a} b={b} c={c} d={d} parity={parity}]" in report.to_text()
