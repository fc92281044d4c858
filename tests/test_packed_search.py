"""Differential tests of the packed-word paths against the loops they
replaced (``search_oracles``): the exhaustive search with its budget
cut-off, row-space membership, and the CZ/CCZ conditions with the CCZ
phase-polynomial identity flag.  Every result must match bit for bit:
values, kinds, witness supports, the weight a BudgetError certifies, and
whole gate reports.  The logical basis, which now comes from the code's
chain reduction, must lie in the cosets of the dense route's
(``code_oracles.logical_basis``).
"""

import random

import numpy as np
import pytest

import fractalcss.gates as gates_mod
import fractalcss.gf2 as gf2_mod
import code_oracles
import search_oracles as oracle
from fractalcss.code import css_from_complex, logical_basis
from fractalcss.colorcode import build_color_code_2d
from fractalcss.complexes import (
    FractalSpec,
    build_lattice,
    code_lattice,
    fractal_complex,
    punch_box,
    punch_holes,
)
from fractalcss.distance import BudgetError, _adjacent_pairs, exhaustive_low_weight
from fractalcss.gates import (
    _cz_part_is_identity,
    align_by_boxes,
    build_vasmer_browne_stack,
    check_transversal_ccz,
    check_transversal_cz,
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
    for copy, code in enumerate(codes):
        others = tuple(t for t in range(3) if t != copy)
        for r in range(code.hx.rows):
            sites = oracle.sites_of(align, copy, code.hx.row(r))
            assert (_cz_part_is_identity(sites, others, align)
                    == oracle.cz_part_is_identity(sites, others, align))


@pytest.mark.parametrize("L", range(2, 7))
def test_cz_reports_match_oracle(L):
    a = css_from_complex(code_lattice(2, L, e_axes=(1,)), 1)
    b = css_from_complex(code_lattice(2, L, e_axes=(0,)), 1)
    for pair in ((a, b), (a, a), (b, a)):
        align = align_by_boxes(list(pair))
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


def test_small_chunks_match_oracle(monkeypatch):
    """The chunked loops (kernel columns, pair tests) give the same results
    when every step is cut into many small chunks: the same gate reports,
    and logical bases in the dense oracle's cosets."""
    for mod in (gf2_mod, gates_mod):
        monkeypatch.setattr(mod, "_CHUNK_WORDS", 40)
    codes, align = build_vasmer_browne_stack(3, "center")
    assert check_transversal_ccz(*codes, align) == oracle.check_transversal_ccz(*codes, align)
    assert (check_transversal_cz(codes[0], codes[1], align)
            == oracle.check_transversal_cz(codes[0], codes[1], align))
    for code in (_merged(2), *codes):
        _assert_oracle_cosets(code)
