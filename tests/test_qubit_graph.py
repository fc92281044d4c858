"""The CSR qubit graph against the graph code it replaced
(``distance_oracles``): d_Z by shortest path and d_X by min cut must agree
in value, kind and witness bits, and raise ``PreconditionError`` on the
same codes, except where the graph code failed its own witness check,
answered though two e-labels share one connected e-component, or answered
with the min cut of one class where k != 1 (REFUSALS).
The geometries cover parallel qubits (the 2x2 torus, several
qubits from one bulk vertex to a contracted terminal), torus seams with and
without e-holes, and the seeded mixed hole layouts.
"""

import pytest

import distance_oracles as oracle
from fractalcss.code import code_from_text, code_to_text, css_from_complex
from fractalcss.complexes import (
    FractalSpec,
    build_lattice,
    code_lattice,
    fractal_complex,
    punch_holes,
)
from fractalcss import cli
from fractalcss.distance import (
    PreconditionError,
    dx_min_cut,
    dz_shortest_path,
    exhaustive_low_weight,
)
from fractalcss.gates import build_vasmer_browne_stack
from test_arrays import audit_layout, seeded_layout


def _layout(seed):
    """A seeded mixed layout, or its unpunched lattice when the punch
    rejects the layout (an e-patch left open)."""
    cx, holes, _ = seeded_layout(seed)
    try:
        cx = punch_holes(cx, holes)
    except ValueError:
        pass
    return css_from_complex(cx, 1)


def _audit(seed):
    return css_from_complex(audit_layout(seed)[0], 1)


def _fc(n, p, q, level, holes="m", background="open"):
    spec = FractalSpec(n, p, q, level, background=background, holes=holes)
    return css_from_complex(fractal_complex(spec, "code"), 1)


CODES = {
    **{f"fc{p}{q}-l{level}-{holes}": (lambda p=p, q=q, level=level, holes=holes:
                                      _fc(3, p, q, level, holes))
       for p, q in ((3, 1), (4, 2)) for level in (1, 2) for holes in ("m", "e")},
    **{f"sc31-l{level}": (lambda level=level: _fc(2, 3, 1, level)) for level in (1, 2, 3)},
    **{f"surface{n}d-L{L}": (lambda n=n, L=L: css_from_complex(code_lattice(n, L), 1))
       for n in (2, 3) for L in (2, 3, 4)},
    **{f"toric-L{L}": (lambda L=L: css_from_complex(build_lattice(2, L, "torus"), 1))
       for L in (2, 3)},
    **{f"fc31-l1-torus-{holes}": (lambda holes=holes: _fc(3, 3, 1, 1, holes, "torus"))
       for holes in ("m", "e")},
    **{f"layout{seed}": (lambda seed=seed: _layout(seed)) for seed in range(40)},
    **{f"audit{seed}": (lambda seed=seed: _audit(seed)) for seed in (49, 224, 994, 1133)},
}


def _outcome(fn, code):
    """What a distance function gives: the exception on a refusal or a
    failed witness check, else the value, the kind and both witness
    supports as bit lists."""
    try:
        res = fn(code)
    except (PreconditionError, AssertionError) as exc:
        return type(exc).__name__, str(exc)
    w = res.witness
    return res.value, res.kind, w.x_support.indices(), w.z_support.indices()


_SHARED = "share one connected e-component; run exhaustive_low_weight instead"

# (layout, distance) -> (the graph code's outcome, the refusal that replaces
# it).  Layouts 9 and 28 contract two e-labels of one component (hE0 and hE4
# share an edge; hE2 crosses the outer boundary) into two terminals, and the
# path between them is a stabilizer; layouts 5 and 23 do the same, and the
# path found there is a logical only by chance.  Layout 22's four m-holes
# cut the patch in two, so the OuterE terminals are disconnected (k = 0).
# The 2D SC(3,1) m-hole codes and layouts 25 and 37 have k > 1, and the cut
# of the OuterE class is heavier than the weight-1 X-logical of another.
_ONE_CLASS = ("min-cut distance searches one logical class, but k = {}; "
              "run exhaustive_low_weight instead")
# Torus layouts with an e-labelled cell whose box reaches 0 or the period on
# a periodic axis: the contracted terminal straddles the seam, and the seam
# cut can miss the lightest class.  Audit seed 49's witness failed its
# check; seeds 224, 994 and 1133 claimed an exact d_Z of 3, 6 and 3 that the
# search beats with 2, 3 and 2.  Layouts 0, 31 and 33 found the right value
# (1), and layout 26 refused for another reason, but the graph cannot tell.
_SEAM = ("PreconditionError", "an e-boundary reaches a periodic seam, which the seam cut "
                              "cannot follow; run exhaustive_low_weight instead")
REFUSALS = {
    ("layout5", "dz"): ((1, "exact", [], [17]),
                        ("PreconditionError", f"e-labels hE1 and hE2 {_SHARED}")),
    ("layout9", "dz"): (("AssertionError", "shortest-path witness is not a Z-logical"),
                        ("PreconditionError", f"e-labels hE0 and hE4 {_SHARED}")),
    ("layout23", "dz"): ((1, "exact", [], [36]),
                         ("PreconditionError", f"e-labels hE2 and oE5 {_SHARED}")),
    ("layout28", "dz"): (("AssertionError", "shortest-path witness is not a Z-logical"),
                         ("PreconditionError", f"e-labels hE2 and oE4 {_SHARED}")),
    ("layout22", "dx"): (("AssertionError", "min-cut witness is not an X-logical"),
                         ("PreconditionError", "the two OuterE components are disconnected "
                                               "(flow 0): no X-logical crosses between them")),
    ("audit49", "dz"): (("AssertionError", "shortest-path witness is not a Z-logical"), _SEAM),
    ("audit224", "dz"): ((3, "exact", [], [1, 4, 6]), _SEAM),
    ("audit994", "dz"): ((6, "exact", [], [0, 1, 2, 3, 4, 5]), _SEAM),
    ("audit1133", "dz"): ((3, "exact", [], [0, 5, 10]), _SEAM),
    ("layout0", "dz"): ((1, "exact", [], [0]), _SEAM),
    ("layout26", "dz"): (("PreconditionError", "need at least two e-boundary components or a "
                                               "torus background"), _SEAM),
    ("layout31", "dz"): ((1, "exact", [], [8]), _SEAM),
    ("layout33", "dz"): ((1, "exact", [], [0]), _SEAM),
    ("sc31-l1", "dx"): ((2, "exact", [0, 3], []), ("PreconditionError", _ONE_CLASS.format(2))),
    ("sc31-l2", "dx"): ((4, "exact", [16, 27, 44, 51], []),
                        ("PreconditionError", _ONE_CLASS.format(8))),
    ("sc31-l3", "dx"): ((8, "exact", [192, 221, 276, 305, 408, 433, 480, 505], []),
                        ("PreconditionError", _ONE_CLASS.format(52))),
    ("layout25", "dx"): ((3, "exact", [2, 4, 6], []), ("PreconditionError", _ONE_CLASS.format(2))),
    ("layout37", "dx"): ((4, "exact", [17, 25, 30, 35], []),
                         ("PreconditionError", _ONE_CLASS.format(2))),
}


@pytest.mark.parametrize("name", sorted(CODES))
def test_distances_match_oracle(name):
    code = CODES[name]()
    for which, new, old in (("dz", dz_shortest_path, oracle.dz_shortest_path),
                            ("dx", dx_min_cut, oracle.dx_min_cut)):
        if (name, which) in REFUSALS:
            was, now = REFUSALS[name, which]
            assert _outcome(old, code) == was
            assert _outcome(new, code) == now
        else:
            assert _outcome(new, code) == _outcome(old, code)


# every seed of the audit (0-1499) whose shortest-path witness failed its
# check; each is a torus with an e-boundary on a seam
_WITNESS_FAILURES = (49, 86, 111, 281, 370, 528, 603, 857, 886, 944, 958, 998, 1028, 1138,
                     1284, 1484, 1487)


@pytest.mark.parametrize("seed", _WITNESS_FAILURES)
def test_no_audit_seed_reaches_the_witness_check(seed):
    code = _audit(seed)
    assert _outcome(oracle.dz_shortest_path, code) == (
        "AssertionError", "shortest-path witness is not a Z-logical")
    assert _outcome(dz_shortest_path, code) == _SEAM


@pytest.mark.parametrize("name, which", sorted(REFUSALS))
def test_cli_falls_back_to_the_search_on_a_refusal(name, which):
    code = CODES[name]()
    dz, dx = cli._distances(code, "bfs,mincut", 3)
    got = dz if which == "dz" else dx
    want = exhaustive_low_weight(code, "Z" if which == "dz" else "X", 3)
    assert (got.value, got.kind) == (want.value, want.kind)


@pytest.mark.parametrize("name", ["fc31-l2-m", "fc31-l1-torus-e", "toric-L3", "layout7"])
def test_bounded_search_is_the_full_search_cut_at_its_depth(name):
    """A BFS given a depth reaches the nodes within it by the arcs of the
    full search and no node past it; dz_shortest_path passes such depths."""
    from fractalcss.distance import _QubitGraph

    g = _QubitGraph(CODES[name]())
    for source in (0, g.n_nodes - 1):
        dist, via = g.bfs(source)
        for depth in range(-1, max(dist) + 2):
            near = [d if d <= max(depth, 0) else -1 for d in dist]  # the source is at 0
            assert g.bfs(source, depth=depth) == (near, [a if d >= 0 else -1
                                                        for a, d in zip(via, near)])


_NO_COMPLEX = "qubit-graph distances need the complex whose code the checks are"


@pytest.mark.parametrize("L, holes", [(2, None), (3, "center"), (4, None)])
def test_stack_copies_without_their_complex_are_refused(L, holes):
    """Copies 2 and 3 of the CCZ stack carry cube and corner-triangle checks,
    not the label-driven code of the lattice, so they have no source: the
    graph refuses them (it built them from the lattice's edges, and the
    shortest path then failed its witness check)."""
    codes, _ = build_vasmer_browne_stack(L, holes)
    assert codes[0].source is not None
    for code in codes[1:]:
        assert code.source is None
        for fn in (dz_shortest_path, dx_min_cut):
            with pytest.raises(PreconditionError, match=_NO_COMPLEX):
                fn(code)


@pytest.mark.parametrize("name", ["fc31-l1-m", "surface2d-L3", "toric-L2"])
def test_codes_read_from_text_are_refused(name):
    """A ``csscode v1`` file holds no complex: both graph distances refuse
    its code (they raised AttributeError), and the CLI's distances fall
    back to the search."""
    code = code_from_text(code_to_text(CODES[name]()))
    for fn in (dz_shortest_path, dx_min_cut):
        with pytest.raises(PreconditionError, match=_NO_COMPLEX):
            fn(code)
    dz, dx = cli._distances(code, "bfs,mincut", 3)
    for got, kind in ((dz, "Z"), (dx, "X")):
        want = exhaustive_low_weight(code, kind, 3)
        assert (got.value, got.kind) == (want.value, want.kind)
