"""Fractal cell complexes, Z2 homology, CSS codes and their exact distances,
and transversal-gate condition checkers for fractal surface codes."""

from .code import (
    CodeParams,
    CssCode,
    PauliOperator,
    code_params,
    css_from_complex,
    logical_basis,
)
from .complexes import (
    CellComplex,
    FractalSpec,
    Hole,
    build_lattice,
    code_lattice,
    dual_with_boundary,
    fractal_complex,
    punch_box,
)
from .distance import (
    DistanceResult,
    ScalingFit,
    dx_min_cut,
    dz_shortest_path,
    exhaustive_low_weight,
    fit_scaling,
)
from .gf2 import Gf2Matrix, Gf2Vector, kernel_basis, rank
from .homology import betti, cobetti, verify_lefschetz

__all__ = [
    "Gf2Matrix",
    "Gf2Vector",
    "rank",
    "kernel_basis",
    "CellComplex",
    "FractalSpec",
    "Hole",
    "build_lattice",
    "code_lattice",
    "fractal_complex",
    "punch_box",
    "dual_with_boundary",
    "betti",
    "cobetti",
    "verify_lefschetz",
    "CssCode",
    "CodeParams",
    "PauliOperator",
    "css_from_complex",
    "code_params",
    "logical_basis",
    "DistanceResult",
    "ScalingFit",
    "dz_shortest_path",
    "dx_min_cut",
    "exhaustive_low_weight",
    "fit_scaling",
]
