"""The CSR qubit graph against the graph code it replaced
(``distance_oracles``): d_Z by shortest path and d_X by min cut must agree
in value, kind and witness bits, and raise ``PreconditionError`` on the
same codes.  The geometries cover parallel qubits (the 2x2 torus, several
qubits from one bulk vertex to a contracted terminal), torus seams with and
without e-holes, and the seeded mixed hole layouts.
"""

import pytest

import distance_oracles as oracle
from fractalcss.code import css_from_complex
from fractalcss.complexes import (
    FractalSpec,
    build_lattice,
    code_lattice,
    fractal_complex,
    punch_holes,
)
from fractalcss.distance import PreconditionError, dx_min_cut, dz_shortest_path
from test_arrays import seeded_layout


def _layout(seed):
    """A seeded mixed layout, or its unpunched lattice when the punch
    rejects the layout (an e-patch left open)."""
    cx, holes, _ = seeded_layout(seed)
    try:
        cx = punch_holes(cx, holes)
    except ValueError:
        pass
    return css_from_complex(cx, 1)


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


@pytest.mark.parametrize("name", sorted(CODES))
def test_distances_match_oracle(name):
    code = CODES[name]()
    for new, old in ((dz_shortest_path, oracle.dz_shortest_path),
                     (dx_min_cut, oracle.dx_min_cut)):
        assert _outcome(new, code) == _outcome(old, code)

