"""Array-backed complexes against the tuple-and-dict oracles.

Every builder and derived complex must write the same ``cellcomplex v1``
bytes as the oracle implementation kept in ``complex_oracles``: the
lattice builder on every lattice kind, hole punching on seeded random e/m
layouts (the per-cell punch of ``test_punch`` on the oracle complex),
``delete``, ``quotient_to_point`` and ``dual_with_boundary``.  The ∂∂ = 0
check must raise exactly when the set-parity oracle does, one flipped face
at a time.
"""

import random
import re

import numpy as np
import pytest

import complex_oracles as oracle
from fractalcss.complexes import (
    BoundaryError,
    CellComplex,
    Faces,
    Hole,
    build_lattice,
    code_lattice,
    dual_with_boundary,
    punch_holes,
)
from test_punch import _assert_same, reference_punch_holes


def _lattice_cases():
    for n in (2, 3, 4):
        for L in (1, 2, 3, 4):
            for background in ("open", "torus", "sphere"):
                yield ("plain", n, L, background, None)
                if L >= 2 and background != "sphere":
                    yield ("code", n, L, background, None)
            for e_axes in ((0,), (0, n - 1), tuple(range(n))):
                yield ("plain", n, L, "open", e_axes)
                if L >= 2:
                    yield ("code", n, L, "open", e_axes)


LATTICES = list(_lattice_cases())


def _builders(style):
    if style == "code":
        return code_lattice, oracle.code_lattice
    return build_lattice, oracle.build_lattice


@pytest.mark.parametrize("style, n, L, background, e_axes", LATTICES)
def test_lattice_bytes_match_oracle(style, n, L, background, e_axes):
    new, old = _builders(style)
    assert new(n, L, background, e_axes).to_text() == old(n, L, background, e_axes).to_text()


def _random_holes(rng: random.Random, n: int, L: int) -> list[Hole]:
    holes = []
    for hid in range(rng.randint(1, 5)):
        side = rng.randint(1, max(1, L - 1))
        origin = tuple(rng.randint(-1, L - side + 1) for _ in range(n))
        box = tuple((2 * o, 2 * (o + side)) for o in origin)
        holes.append(Hole(hid, box, rng.choice("em")))
    return holes


def seeded_params(seed: int) -> tuple[str, int, int, str, list[Hole]]:
    """One of the 40 seeded mixed layouts: (style, n, L, background, holes)."""
    rng = random.Random(1000 + seed)
    n = rng.choice((2, 3, 4))
    L = rng.randint(2, {2: 7, 3: 5, 4: 3}[n])
    style = rng.choice(("plain", "code"))
    background = rng.choice(("open", "torus") if style == "code" else ("open", "torus", "sphere"))
    return style, n, L, background, _random_holes(rng, n, L)


def seeded_layout(seed: int) -> tuple[CellComplex, list[Hole], oracle.CellComplex]:
    """One of the 40 seeded mixed layouts: (lattice, holes, oracle lattice)."""
    style, n, L, background, holes = seeded_params(seed)
    new, old = _builders(style)
    return new(n, L, background), holes, old(n, L, background)


def audit_layout(seed: int) -> tuple[CellComplex, tuple[int, int, str]]:
    """A layout of the exact-distance audit (ROADMAP item 1's recipe): the
    punched code lattice and its (n, L, background)."""
    rng = random.Random(seed)
    n = rng.choice((2, 3, 4))
    L = rng.randint(2, {2: 6, 3: 4, 4: 2}[n])
    background = rng.choice(("open", "torus"))
    return code_lattice(n, L, background, holes=_random_holes(rng, n, L)), (n, L, background)


def punched(cx: CellComplex, holes: list[Hole], ref_base) -> CellComplex:
    """The punched complex; a layout the punch rejects (an e-patch left open)
    comes from the oracle punch, which still builds it."""
    try:
        return punch_holes(cx, holes)
    except ValueError:
        return CellComplex.from_text(reference_punch_holes(ref_base, holes).to_text())


@pytest.mark.parametrize("seed", range(40))
def test_random_punch_layouts_match_oracle(seed):
    _assert_same(*seeded_layout(seed))


def _derived_cases():
    rng = random.Random(5)
    for seed in range(12):
        n = 2 + seed % 3
        L = 3 if n < 4 else 2
        style = ("plain", "code")[seed % 2]
        new, old = _builders(style)
        yield f"{style}{n}-{seed}", punched(new(n, L, "open"), _random_holes(rng, n, L),
                                            old(n, L, "open"))
    yield "torus3", build_lattice(3, 2, "torus")
    yield "sphere3", build_lattice(3, 2, "sphere")


DERIVED = dict(_derived_cases())


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_delete_matches_oracle(name):
    cx = DERIVED[name]
    ref = oracle.from_arrays(cx)
    rng = random.Random(name)
    # a random upward-closed doomed set and a few relabels
    doomed = [set() for _ in range(cx.dim + 1)]
    for k in range(cx.dim + 1):
        if cx.n_cells(k):
            doomed[k] |= set(rng.sample(range(cx.n_cells(k)), rng.randint(0, cx.n_cells(k) // 6)))
        if k:
            below = oracle.faces(cx, k)
            doomed[k] |= {i for i, fs in enumerate(below) if doomed[k - 1] & set(fs)}
    relabel = {(k, i): rng.choice(["hE7", "hM8", "bulk", "oE1"])
               for k in range(cx.dim + 1) for i in range(cx.n_cells(k))
               if i not in doomed[k] and rng.random() < 0.1}
    assert (oracle.delete_indexed(cx, doomed, relabel=relabel).to_text()
            == ref.delete(doomed, relabel=relabel).to_text())


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_quotient_and_dual_match_oracle(name):
    cx = DERIVED[name]
    ref = oracle.from_arrays(cx)
    assert dual_with_boundary(cx).to_text() == oracle.dual_with_boundary(ref).to_text()
    for pick in (lambda lb: lb.startswith("oE") or lb.startswith("hE"), lambda lb: True):
        labels = {lb for lb in cx.labels_present() if pick(lb)}
        try:
            want = ref.quotient_to_point(labels).to_text()
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc).split(":")[0])):
                cx.quotient_to_point(labels)
            continue
        assert cx.quotient_to_point(labels).to_text() == want


def _with_faces(cx: CellComplex, k: int, rows: list[tuple[int, ...]]) -> CellComplex:
    faces = list(cx.faces)
    faces[k] = Faces.from_pairs(len(rows), [i for i, fs in enumerate(rows) for _ in fs],
                                [f for fs in rows for f in fs])
    return CellComplex(cx.dim, cx.cells, cx.labels, cx.label_names, faces, cx.background,
                       cx.style, cx.periods, cx.holes)


@pytest.mark.parametrize("name", ["plain3-4", "code2-3", "plain4-8", "torus3", "sphere3"])
def test_dd_check_raises_exactly_when_oracle_does(name):
    cx = DERIVED[name]
    ref = oracle.from_arrays(cx)
    rng = random.Random(name)
    raised = 0
    for _ in range(60):
        k = rng.randint(1, cx.dim)
        i = rng.randrange(cx.n_cells(k))
        r = rng.randrange(cx.n_cells(k - 1))
        rows = oracle.faces(cx, k)
        rows[i] = tuple(sorted(set(rows[i]) ^ {r}))  # flip one incidence
        ref.faces[k], saved = rows, ref.faces[k]
        try:
            ref.assert_dd_zero()
            expected = None
        except AssertionError as exc:
            expected = str(exc)
        ref.faces[k] = saved
        try:
            _with_faces(cx, k, rows)
            got = None
        except BoundaryError as exc:
            got = str(exc)
        assert got == expected
        raised += expected is not None
    assert raised >= 20


def test_faces_from_pairs_cancels_mod_2():
    fs = Faces.from_pairs(3, [2, 0, 2, 0, 0, 2, 1], [5, 4, 5, -3, 4, 1, 9])
    assert fs.ptr.tolist() == [0, 1, 2, 3]
    assert fs.idx.tolist() == [-3, 9, 1]
    # on a torus of side 1 an edge's two ends are one vertex, and a square's
    # two faces across an axis are one edge: each pair cancels
    torus = build_lattice(2, 1, "torus")
    assert [f.counts().tolist() for f in torus.faces] == [[0], [0, 0], [0]]


@pytest.mark.parametrize("bad, message", [
    (lambda cx: cx.cells[1][:-1], "disagree on the cell count"),
    (lambda cx: cx.labels[1] + 9, "label code outside"),
])
def test_constructor_rejects_inconsistent_arrays(bad, message):
    cx = build_lattice(2, 2, "open")
    cells, labels = list(cx.cells), list(cx.labels)
    if message.startswith("disagree"):
        cells[1] = bad(cx)
    else:
        labels[1] = bad(cx)
    with pytest.raises(ValueError, match=message):
        CellComplex(2, cells, labels, cx.label_names, cx.faces)
