"""Z2 cellular homology, absolute and relative, plus duality checks.

Relative homology is always computed through the quotient construction:
``H_i(L, B) = H_i(L/B)`` for i > 0, where the labeled boundary subcomplex B
collapses to a single point.  At i = 0 the quotient-complex value differs
from the reduced relative group; :func:`betti_with_caveat` returns a flag
instead of papering over the distinction (no code parameter depends on
i = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import CellComplex, dual_with_boundary, label_is_e, label_is_m
from .gf2 import _rank_in_place


def betti(cx: CellComplex, grade: int, relative_labels=frozenset()) -> int:
    """dim H_i(L; Z2), or dim H_i(L, B; Z2) for a labeled subcomplex B."""
    return betti_with_caveat(cx, grade, relative_labels)[0]


def betti_with_caveat(
    cx: CellComplex, grade: int, relative_labels=frozenset()
) -> tuple[int, bool]:
    """:func:`betti` and the reduced caveat: True for relative homology at
    grade 0, where the quotient-complex value is not the reduced group."""
    if not 0 <= grade <= cx.dim:
        raise ValueError(f"grade {grade} out of range 0..{cx.dim}")
    if relative_labels:
        cx = cx.quotient_to_point(set(relative_labels))
    # one dense boundary matrix at a time: each is built for its rank only
    ranks = [_rank_in_place(cx.boundary_matrix(k)) for k in (grade, grade + 1)]
    return cx.n_cells(grade) - sum(ranks), grade == 0 and bool(relative_labels)


def cobetti(cx: CellComplex, grade: int, relative_labels=frozenset()) -> int:
    """dim H^i via transposed boundary maps; equals betti at the same grade."""
    if relative_labels:
        cx = cx.quotient_to_point(set(relative_labels))
    rank_i = _rank_in_place(cx.boundary_matrix(grade + 1).transpose())
    rank_dn = _rank_in_place(cx.boundary_matrix(grade).transpose())
    return cx.n_cells(grade) - rank_i - rank_dn


@dataclass(frozen=True)
class LefschetzReport:
    grade: int
    dim_relative_e: int
    dim_dual_relative_m: int

    @property
    def equal(self) -> bool:
        return self.dim_relative_e == self.dim_dual_relative_m


def verify_lefschetz(
    cx: CellComplex, i: int, labels_e: set[str], labels_m: set[str]
) -> LefschetzReport:
    """Compare dim H_i(L, B_e) with dim H_{n-i}(L*, B*_m).

    `labels_e` and `labels_m` must be disjoint and together cover every
    boundary label of the complex.  The dual side runs on the honest dual
    cellulation (interior duals plus boundary duals), quotienting the
    boundary duals of the m-part.
    """
    if labels_e & labels_m:
        raise ValueError(f"overlapping label sets: {sorted(labels_e & labels_m)}")
    present = cx.labels_present()
    uncovered = present - labels_e - labels_m
    if uncovered:
        raise ValueError(f"boundary labels not covered: {sorted(uncovered)}")
    lhs = betti(cx, i, labels_e) if labels_e else betti(cx, i)
    dual = dual_with_boundary(cx)
    n = cx.dim
    rhs = betti(dual, n - i, labels_m) if labels_m else betti(dual, n - i)
    return LefschetzReport(i, lhs, rhs)


def default_label_split(cx: CellComplex) -> tuple[set[str], set[str]]:
    """Split the labels present into (e-side, m-side)."""
    labels = cx.labels_present()
    return {lb for lb in labels if label_is_e(lb)}, {lb for lb in labels if label_is_m(lb)}
