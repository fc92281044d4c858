"""Distance computations against independent small-instance oracles."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import fractalcss
from fractalcss.code import css_from_complex, is_x_logical, is_z_logical
from fractalcss.complexes import FractalSpec, build_lattice, code_lattice, fractal_complex
from fractalcss.distance import (
    BudgetError,
    PreconditionError,
    dx_min_cut,
    dz_shortest_path,
    exhaustive_low_weight,
    fit_scaling,
)


def _fc_code(p, q, level, holes="m", background="open"):
    spec = FractalSpec(3, p, q, level, background=background, holes=holes)
    return css_from_complex(fractal_complex(spec, "code"), 1)


def test_dz_3d_surface_code_is_L():
    for L in (2, 3):
        code = css_from_complex(code_lattice(3, L), 1)
        assert dz_shortest_path(code).value == L


def test_dz_fc31_level1():
    code = _fc_code(3, 1, 1)
    res = dz_shortest_path(code)
    assert res.value == 3 and res.kind == "exact"
    assert is_z_logical(code, res.witness.z_support)


def test_dz_fc31_level2():
    assert dz_shortest_path(_fc_code(3, 1, 2)).value == 9


def test_dz_torus_toric_code():
    code = css_from_complex(build_lattice(2, 3, "torus"), 1)
    res = dz_shortest_path(code)
    assert res.value == 3
    ex = exhaustive_low_weight(code, "Z", 3)
    assert ex.value == 3 and ex.kind == "exact"


def test_dz_requires_terminals():
    code = css_from_complex(build_lattice(2, 2, "open", e_axes=()), 1)
    with pytest.raises(PreconditionError):
        dz_shortest_path(code)


def test_dx_3d_surface_code_is_L_squared():
    for L in (2, 3):
        code = css_from_complex(code_lattice(3, L), 1)
        res = dx_min_cut(code)
        assert res.value == L * L
        assert res.witness.x_support.weight() == res.value


def test_dx_2d_surface_code_is_L():
    for L in (2, 3, 4):
        code = css_from_complex(code_lattice(2, L), 1)
        assert dx_min_cut(code).value == L


def test_dx_fc31_level1_is_8():
    assert dx_min_cut(_fc_code(3, 1, 1)).value == 8


def test_dx_fc31_level2_is_64():
    assert dx_min_cut(_fc_code(3, 1, 2)).value == 64


def test_dx_fc42_level1():
    # FC(4,2) at L=4: cut area 4^2 - 2^2 = 12
    assert dx_min_cut(_fc_code(4, 2, 1)).value == 12


def test_dx_fc42_level2():
    # (p^2 - q^2)^l at level 2: 144 at L=16
    assert dx_min_cut(_fc_code(4, 2, 2)).value == 144


def test_min_cut_matches_exhaustive_at_L2():
    code = css_from_complex(code_lattice(2, 2), 1)
    assert dx_min_cut(code).value == exhaustive_low_weight(code, "X", 3).value == 2
    code3 = css_from_complex(code_lattice(3, 2), 1)
    assert dx_min_cut(code3).value == exhaustive_low_weight(code3, "X", 4).value == 4


def test_dz_matches_exhaustive_small():
    for code in (
        css_from_complex(code_lattice(2, 3), 1),
        _fc_code(3, 1, 1),
    ):
        bfs = dz_shortest_path(code).value
        ex = exhaustive_low_weight(code, "Z", bfs)
        assert ex.value == bfs


def test_dx_min_cut_refuses_e_holes():
    code = _fc_code(3, 1, 1, holes="e")
    with pytest.raises(PreconditionError):
        dx_min_cut(code)


def test_sc31_level1_x_logical_weight():
    spec = FractalSpec(2, 3, 1, 1, holes="m")
    code = css_from_complex(fractal_complex(spec, "code"), 1)
    res = exhaustive_low_weight(code, "X", 4)
    assert res.kind == "exact" and res.value <= 2
    assert is_x_logical(code, res.witness.x_support)


def test_fc31_eholes_short_z_string():
    code = _fc_code(3, 1, 2, holes="e")
    res = exhaustive_low_weight(code, "Z", 2)
    assert res.kind == "exact" and res.value <= 2


def test_certified_above():
    code = css_from_complex(code_lattice(3, 2), 1)
    res = exhaustive_low_weight(code, "Z", 1)
    assert res.kind == "certified_above" and res.value == 1


def test_budget_error():
    code = css_from_complex(code_lattice(3, 3), 1)
    with pytest.raises(BudgetError):
        exhaustive_low_weight(code, "Z", 4, budget=50)


def test_fit_scaling_exact_power():
    fit = fit_scaling([(3, 8), (9, 64), (27, 512)])
    assert abs(fit.exponent - 1.8928) < 1e-4
    assert fit.residual < 1e-12


def test_fit_scaling_linear():
    fit = fit_scaling([(3, 3), (9, 9)])
    assert abs(fit.exponent - 1.0) < 1e-12


def test_fit_scaling_degenerate_points():
    fit = fit_scaling([(3, 8), (3, 8)])
    assert fit.exponent == 0.0 and fit.residual == 0.0


def test_fit_scaling_matches_polyfit():
    """The closed form agrees with np.polyfit's slope and residual within
    1e-12 on random point sets; two points report no residual, as there."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        points = [(float(L), float(d)) for L, d in
                  zip(rng.uniform(1, 100, int(rng.integers(2, 8))), rng.uniform(1, 1000, 8))]
        fit = fit_scaling(points)
        xs, ys = np.log(np.array(points)).T
        coeffs, residuals, *_ = np.polyfit(xs, ys, 1, full=True)
        assert np.isclose(fit.exponent, coeffs[0], rtol=1e-12, atol=1e-12)
        want = float(residuals[0]) if len(residuals) else 0.0
        assert np.isclose(fit.residual, want, rtol=1e-12, atol=1e-12)
        assert (fit.residual == 0.0) == (len(points) == 2)


def test_fit_scaling_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_scaling([(0, 1), (2, 3)])


# A d_Z witness with its last qubit dropped, a d_X cut with its first qubit
# dropped, a stack of codes of different sizes, and a d_Z witness that is a
# Z check; all must raise with and without -O.
_CHECKS_UNDER_O = textwrap.dedent("""
    import fractalcss.distance as distance
    from fractalcss.code import css_from_complex
    from fractalcss.complexes import FractalSpec, fractal_complex
    from fractalcss.gates import align_identical
    from fractalcss.gf2 import Gf2Vector
    code = css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 1), "code"), 1)
    other = css_from_complex(fractal_complex(FractalSpec(2, 3, 1, 1), "code"), 1)
    real_path = distance._path
    distance._path = lambda via, end: real_path(via, end)[:-1]

    class CutMinusOne(Gf2Vector):
        @classmethod
        def from_indices(cls, n, indices):
            return Gf2Vector.from_indices(n, list(indices)[1:])

    def dx_without_a_cut_qubit():
        distance.Gf2Vector = CutMinusOne
        try:
            distance.dx_min_cut(code)
        finally:
            distance.Gf2Vector = Gf2Vector

    def dz_with_a_stabilizer():  # syndrome-free, so the residue test decides
        distance._path = lambda via, end: code.hz.row(0).indices()
        distance.dz_shortest_path(code)

    raised = []
    for case in (lambda: distance.dz_shortest_path(code),
                 dx_without_a_cut_qubit,
                 lambda: align_identical([code, other]),
                 dz_with_a_stabilizer):
        try:
            case()
        except (AssertionError, ValueError) as exc:
            raised.append(type(exc).__name__)
    print(" ".join(raised))
""")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_witness_and_stack_checks_raise_under_optimize(flags):
    src = os.path.dirname(os.path.dirname(fractalcss.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, *flags, "-c", _CHECKS_UNDER_O], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["WitnessError", "WitnessError", "ValueError", "WitnessError"]


# d_Z and d_X of FC(3,1) at the given level (code style, m-holes), in a
# child process under an address-space limit: k, each distance's value and
# kind, whether each witness is a logical of its type and of the distance's
# weight, the seconds of k, d_Z and d_X, and the peak RSS (VmHWM, kB) after
# the code, after k and at the end.  The qubit graph as Python int lists
# raised the peak by 300-313 MB over the code stage at level 4.
_DISTANCES = """
import re, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[2]) << 20,) * 2)
from fractalcss.code import code_params, css_from_complex, is_x_logical, is_z_logical
from fractalcss.complexes import FractalSpec, fractal_complex
from fractalcss.distance import dx_min_cut, dz_shortest_path

def peak_kb():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read())[1])

code = css_from_complex(fractal_complex(FractalSpec(3, 3, 1, int(sys.argv[1]), holes="m"), "code"), 1)
after_code = peak_kb()
start = time.perf_counter()
k = code_params(code).k
k_seconds = time.perf_counter() - start
after_k = peak_kb()
start = time.perf_counter()
dz = dz_shortest_path(code)
dz_seconds = time.perf_counter() - start
start = time.perf_counter()
dx = dx_min_cut(code)
dx_seconds = time.perf_counter() - start
z, x = dz.witness.z_support, dx.witness.x_support
witnesses = (is_z_logical(code, z) and z.weight() == dz.value and dx.witness.is_x_type()
             and is_x_logical(code, x) and x.weight() == dx.value)
print(k, dz.value, dz.kind, dx.value, dx.kind, witnesses, k_seconds, dz_seconds, dx_seconds,
      after_code, after_k, peak_kb())
"""


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_fc31_level4_distances_under_1_gb():
    """1,148,128 qubits: d_Z = 81 = L and d_X = 4,096 = 8^4, both exact and
    witnessed, on one int32 qubit graph held by the code.  The code's chain
    reduction (k) and both distances lift the peak by at most 150 MB over
    the code stage, and the two distances take less time than twice k's
    (the list graph lifted it by 300-313 MB, and its distances took 2.7-3.3
    times k's time: timing them against k's keeps the bound apart from the
    machine's speed and load)."""
    src = os.path.dirname(os.path.dirname(fractalcss.__file__))
    # the child strips asserts when this process does: the witness checks
    # are typed exceptions
    out = subprocess.run([sys.executable, *["-O"] * sys.flags.optimize, "-c", _DISTANCES,
                          "4", "1024"],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    k, dz, dz_kind, dx, dx_kind, witnesses, *seconds, after_code, _, at_end = out.stdout.split()
    assert (k, dz, dz_kind, dx, dx_kind, witnesses) == ("1", "81", "exact", "4096", "exact",
                                                        "True")
    assert int(at_end) - int(after_code) <= 150 << 10
    k_seconds, dz_seconds, dx_seconds = map(float, seconds)
    assert dz_seconds + dx_seconds < 2 * k_seconds
