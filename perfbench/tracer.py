"""Span tracer for the benchmark's traced run.

The tracer lives in the benchmark, not in the package: it replaces the
package's functions by timing wrappers at run time, so nothing under `src/`
changes.  A span records (name, layer, start, end, parent, pass id, sizes)
and stays in memory until the run writes the spans out.  A layer is one
package module; a function belongs to the module that defines it.

What is wrapped:

* every public module-level function of the eight package modules, at every
  module binding that holds it (so `from .code import code_params` in
  `cli` is traced too), except the per-cell label predicates in SKIP;
* the methods in METHODS, replaced on their class so that calls through any
  instance are caught (`CellComplex.__init__` calls `self.assert_dd_zero()`);
* `gf2._rref_inplace`, reported as `gf2.rref`: every elimination
  (`rank`, `kernel_basis`, `solve`, `Gf2Matrix.rref`) runs through it once.

Per-bit and per-cell accessors (`Gf2Vector.get`, `Gf2Matrix.row_indices`,
label predicates) are not wrapped: they run up to millions of times per
pass, and their cost stays in the self time of the function calling them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time

import numpy as np

LAYERS = ("gf2", "complexes", "homology", "code", "distance", "gates", "colorcode", "cli")

SKIP = {
    "complexes": {"label_kind", "label_is_e", "label_is_m"},
    "distance": {"search_budget"},
}


def _matmul_sizes(args, result) -> dict:
    a, b = args[0], args[1]
    return {
        "word_ops": a.rows * b.rows * a.data.shape[1],
        "bytes": 8 * (a.data.size + b.data.size + result.data.size),
    }


def _rref_sizes(args, result) -> dict:
    rows, cols = args[1], args[2]
    return {"rows": rows, "cols": cols}


def _complex_sizes(args, result) -> dict:
    return {f"g{k}": len(grade) for k, grade in enumerate(args[0].cells)}


def _code_sizes(args, result) -> dict:
    code = args[0]
    return {
        "qubits": code.n_qubits,
        "hx_rows": code.hx.rows,
        "hx_cols": code.hx.cols,
        "hx_nnz": int(np.bitwise_count(code.hx.data).sum()),
        "hz_rows": code.hz.rows,
        "hz_cols": code.hz.cols,
        "hz_nnz": int(np.bitwise_count(code.hz.data).sum()),
    }


# (layer, class, attribute, span name, sizer)
METHODS = (
    ("gf2", "Gf2Matrix", "matmul_t", "matmul_t", _matmul_sizes),
    ("gf2", "Gf2Matrix", "matmul", "matmul", None),
    ("gf2", "Gf2Matrix", "transpose", "transpose", None),
    ("gf2", "Gf2Matrix", "submatrix", "submatrix", None),
    ("complexes", "CellComplex", "__init__", "CellComplex.__init__", _complex_sizes),
    ("complexes", "CellComplex", "assert_dd_zero", "assert_dd_zero", None),
    ("complexes", "CellComplex", "delete", "delete", None),
    ("complexes", "CellComplex", "quotient_to_point", "quotient_to_point", None),
    ("complexes", "CellComplex", "transpose_dual", "transpose_dual", None),
    ("complexes", "CellComplex", "to_text", "to_text", None),
    ("complexes", "CellComplex", "from_text", "from_text", None),
    ("code", "CssCode", "__post_init__", "CssCode.__post_init__", _code_sizes),
)

# (layer, private module attribute, span name, sizer)
PRIVATE = (("gf2", "_rref_inplace", "rref", _rref_sizes),)

# Functions reported one by one: <layer>.<name>.self_s and .calls.
FUNCTIONS = (
    ("gf2", ("matmul_t", "rref", "transpose", "submatrix", "matrix_to_text",
             "matrix_from_text")),
    ("complexes", ("code_lattice", "build_lattice", "assert_dd_zero", "punch_holes",
                   "delete", "quotient_to_point", "dual_with_boundary", "to_text",
                   "from_text")),
    ("homology", ("betti", "cobetti", "verify_lefschetz")),
    ("code", ("css_from_complex", "CssCode.__post_init__", "code_params", "homology_k",
              "is_x_logical", "is_z_logical", "code_to_text", "code_from_text")),
    ("distance", ("dz_shortest_path", "dx_min_cut", "exhaustive_low_weight")),
    ("gates", ("build_vasmer_browne_stack", "check_transversal_ccz",
               "check_transversal_cz", "conjugate_by_ccz", "phase_polys_commute",
               "merge_rough")),
    ("colorcode", ("build_color_code_2d", "shrunk_lattices",
                   "check_transversal_s_colorcode")),
    ("cli", ("main",)),
)

# Inclusive (span) time for the two callers of the dense H H^T products.
INCLUSIVE = (("complexes", "assert_dd_zero"), ("code", "CssCode.__post_init__"))

# Computed sizes: metric name -> (span name, size key or None for the product
# rows * cols, reduction).
SIZES = {
    "gf2.matmul_t.word_ops": ("matmul_t", "word_ops", sum),
    "gf2.matmul_t.bytes": ("matmul_t", "bytes", sum),
    "gf2.rref.bits": ("rref", None, sum),
    "gf2.rref.max_bits": ("rref", None, max),
    "complexes.cells.g0": ("CellComplex.__init__", "g0", sum),
    "complexes.cells.g1": ("CellComplex.__init__", "g1", sum),
    "complexes.cells.g2": ("CellComplex.__init__", "g2", sum),
    "complexes.cells.g3": ("CellComplex.__init__", "g3", sum),
    "complexes.cells.g4": ("CellComplex.__init__", "g4", sum),
    "code.qubits": ("CssCode.__post_init__", "qubits", sum),
    "code.hx.rows": ("CssCode.__post_init__", "hx_rows", sum),
    "code.hx.cols": ("CssCode.__post_init__", "hx_cols", sum),
    "code.hx.nnz": ("CssCode.__post_init__", "hx_nnz", sum),
    "code.hz.rows": ("CssCode.__post_init__", "hz_rows", sum),
    "code.hz.cols": ("CssCode.__post_init__", "hz_cols", sum),
    "code.hz.nnz": ("CssCode.__post_init__", "hz_nnz", sum),
}

# span record fields
NAME, LAYER, START, END, PARENT, RUN, SIZES_ = range(7)


class Tracer:
    """Collects spans in memory; `install` routes package calls through it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = 0
        self.last_closed: str | None = None  # the last package call that returned

    def _open(self, name: str, layer: str) -> list:
        rec = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.run, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "perfbench"):
        """The benchmark's own spans (passes and rows)."""
        rec = self._open(name, layer)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, layer: str, name: str, fn, sizer=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            tracer.last_closed = f"{layer}.{name}"
            if sizer is not None:
                rec[SIZES_] = sizer(args, result)
            return result

        return traced

    def install(self, extra_modules=()) -> list[str]:
        """Route the package's calls through `wrap`.

        Returns the named functions and methods (FUNCTIONS, METHODS, PRIVATE)
        it could not find, as `<layer>.<name>`: a renamed function would
        otherwise read as 0 calls and 0 s.
        """
        replaced = {}
        found = set()
        for layer in LAYERS:
            mod = sys.modules[f"fractalcss.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in SKIP.get(layer, ())
                ):
                    replaced[obj] = self.wrap(layer, attr, obj)
                    found.add((layer, attr))
        for layer, attr, name, sizer in PRIVATE:
            fn = getattr(sys.modules[f"fractalcss.{layer}"], attr, None)
            if fn is not None:
                replaced[fn] = self.wrap(layer, name, fn, sizer)
                found.add((layer, name))
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "fractalcss"]
        for mod in modules + list(extra_modules):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        for layer, cls_name, attr, name, sizer in METHODS:
            cls = getattr(sys.modules[f"fractalcss.{layer}"], cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(layer, name, raw.__func__, sizer)))
            elif raw is not None:
                setattr(cls, attr, self.wrap(layer, name, raw, sizer))
            else:
                continue
            found.add((layer, name))
        wanted = [(layer, name) for layer, names in FUNCTIONS for name in names]
        wanted += [(m[0], m[3]) for m in METHODS] + [(p[0], p[2]) for p in PRIVATE]
        return sorted({f"{layer}.{name}" for layer, name in wanted
                       if (layer, name) not in found})

    # -- aggregation -------------------------------------------------------

    def times(self) -> tuple[list[float], list[float]]:
        """Self and inclusive time of every span.

        Self time is the span's duration minus the time its child spans cover.
        """
        total = [rec[END] - rec[START] for rec in self.spans]
        child = [0.0] * len(self.spans)
        for rec, t in zip(self.spans, total):
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += t
        return [t - c for t, c in zip(total, child)], total

    def pass_metrics(self) -> list[dict[str, float]]:
        """Per-layer metrics, one dict per traced pass."""
        selfs, totals = self.times()
        runs = sorted({rec[RUN] for rec in self.spans})
        out = []
        for run in runs:
            m: dict[str, float] = {}
            for layer in LAYERS:
                m[f"{layer}.self_s"] = 0.0
                m[f"{layer}.calls"] = 0
            for layer, names in FUNCTIONS:
                for name in names:
                    m[f"{layer}.{name}.self_s"] = 0.0
                    m[f"{layer}.{name}.calls"] = 0
            for layer, name in INCLUSIVE:
                m[f"{layer}.{name}.total_s"] = 0.0
            sizes: dict[str, list[float]] = {key: [] for key in SIZES}
            for rec, s, total in zip(self.spans, selfs, totals):
                if rec[RUN] != run or rec[LAYER] not in LAYERS:
                    continue
                layer, name = rec[LAYER], rec[NAME]
                m[f"{layer}.self_s"] += s
                m[f"{layer}.calls"] += 1
                key = f"{layer}.{name}"
                if f"{key}.calls" in m:
                    m[f"{key}.self_s"] += s
                    m[f"{key}.calls"] += 1
                if f"{key}.total_s" in m:
                    m[f"{key}.total_s"] += total
                if rec[SIZES_] is None:
                    continue
                for metric, (span_name, size_key, _) in SIZES.items():
                    if span_name != name:
                        continue
                    sz = rec[SIZES_]
                    if size_key is None:
                        sizes[metric].append(sz["rows"] * sz["cols"])
                    elif size_key in sz:
                        sizes[metric].append(sz[size_key])
            for metric, (_, _, reduce) in SIZES.items():
                m[metric] = reduce(sizes[metric]) if sizes[metric] else 0
            m["complexes.cells"] = sum(m[f"complexes.cells.g{k}"] for k in range(5))
            m["trace.spans"] = sum(1 for rec in self.spans if rec[RUN] == run)
            out.append(m)
        return out

    def write(self, path: str, run_id: str) -> None:
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": f"{rec[LAYER]}.{rec[NAME]}", "start": rec[START],
                    "end": rec[END], "parent": rec[PARENT], "pass": rec[RUN],
                    "run": run_id, "computed": rec[SIZES_],
                }) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Measured cost of one traced call (wrapped minus bare), in seconds."""

    def bare():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("perfbench", "calibrate", bare)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        tracer.spans.clear()
    return max(best, 0.0)


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    keys = per_pass[0].keys() if per_pass else ()
    return {k: statistics.median(p[k] for p in per_pass) for k in keys}
