"""Test helper: where a call reaches its traced memory peak.

:class:`PeakProbe` traces allocations with ``tracemalloc`` and, at every
call and return (Python or C) while it is active, reads the traced peak;
each time the peak has risen it records the package frames of the stack
at that moment.  Numpy allocates inside its C functions, so the stack
recorded last names the package line whose call set the peak, and the
peak over the start then bounds every temporary that line held together.
The peak is seen at the first call or return after it, so a line that
allocates without a call (an indexing or an operator) is named by that
event's stack.

    with PeakProbe() as probe:
        code = css_from_complex(cx, 1)
    probe.peak   # bytes over the start at the traced high
    probe.kept   # bytes over the start at the end
    probe.stack  # ["complexes.Faces.composes_to_zero:272", ...], innermost last

Profiling every call costs time (a few times the run's own), so a probe
belongs around one stage at a time.

:func:`stage_table` runs the FC(3,1) pipeline of one level (code style,
m-holes) in a fresh interpreter under an address-space limit, so that it
fails with MemoryError rather than meet the kernel's OOM killer: the build,
the code and k (with its homology cross-check), each stage's seconds, and
VmRSS and VmHWM after it.  The one-off level-5 run is this module as a
script, against the package in any source tree:

    python tests/memory_probe.py --level 5 --limit-mb 6900 --src src
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tracemalloc

import fractalcss

_PACKAGE = os.path.dirname(os.path.abspath(fractalcss.__file__))


def package_stack(frame) -> list[str]:
    """The frames of `frame`'s stack inside the package, outermost first,
    as ``module.qualname:line``."""
    out = []
    while frame is not None:
        path = frame.f_code.co_filename
        if os.path.dirname(os.path.abspath(path)) == _PACKAGE:
            module = os.path.splitext(os.path.basename(path))[0]
            name = getattr(frame.f_code, "co_qualname", frame.f_code.co_name)  # 3.11+
            out.append(f"{module}.{name}:{frame.f_lineno}")
        frame = frame.f_back
    return out[::-1]


class PeakProbe:
    """Trace one block: `peak` and `kept` in bytes over the traced memory
    at its start, and `stack`, the package frames where the peak was set."""

    def __init__(self):
        self.peak = self.kept = 0
        self.stack: list[str] = []

    def __enter__(self) -> "PeakProbe":
        self._started = not tracemalloc.is_tracing()
        if self._started:
            tracemalloc.start()
        self._start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        self._high = self._start
        self._previous = sys.getprofile()
        sys.setprofile(self._event)
        return self

    def _event(self, frame, event, arg) -> None:
        high = tracemalloc.get_traced_memory()[1]
        if high > self._high:
            self._high = high
            # a frame being entered has run nothing yet: its caller's line
            # allocated the new high
            self.stack = package_stack(frame.f_back if event == "call" else frame)

    def __exit__(self, *exc) -> None:
        sys.setprofile(self._previous)
        current, high = tracemalloc.get_traced_memory()
        if high > self._high:  # set after the block's last call, outside the package
            self._high, self.stack = high, []
        if self._started:
            tracemalloc.stop()
        self.peak, self.kept = self._high - self._start, current - self._start

    def report(self) -> str:
        """The peak, what was kept and the peak's stack, for a failure message."""
        return (f"peak {self.peak / 2**20:.1f} MB over the start, {self.kept / 2**20:.1f} MB "
                f"kept, set at " + (" > ".join(self.stack) or "no package frame"))


# the child of `stage_table`: per stage, its name, seconds, VmRSS and VmHWM
# (kB) after it, and k after the last
_STAGES = """
import re, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[2]) << 20,) * 2)
from fractalcss.code import code_params, css_from_complex
from fractalcss.complexes import FractalSpec, fractal_complex

def stage(name, run):
    start = time.perf_counter()
    out = run()
    seconds = time.perf_counter() - start
    with open("/proc/self/status") as fh:
        text = fh.read()
    rss, hwm = (re.search(key + r":\\s*(\\d+) kB", text)[1] for key in ("VmRSS", "VmHWM"))
    print(name, seconds, rss, hwm, flush=True)
    return out

cx = stage("build", lambda: fractal_complex(FractalSpec(3, 3, 1, int(sys.argv[1]), holes="m"),
                                            "code"))
code = stage("code", lambda: css_from_complex(cx, 1))
print(stage("k", lambda: code_params(code).k))
"""


def stage_table(level: int, limit_mb: int,
                src: str | None = None) -> tuple[list[tuple[str, float, float, float]], int]:
    """The FC(3,1) level-`level` pipeline in a child under RLIMIT_AS of
    `limit_mb` MB, importing the package from `src` (default: this one's)
    and stripping asserts when this process does: per stage (build, code,
    k), its name, seconds, and VmRSS and VmHWM after it in MB; and k.  A
    failed child raises RuntimeError with its stderr."""
    src = src or os.path.dirname(_PACKAGE)
    out = subprocess.run([sys.executable, *["-O"] * sys.flags.optimize, "-c", _STAGES,
                          str(level), str(limit_mb)],
                         env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
                         capture_output=True, text=True, timeout=600)
    if out.returncode:
        raise RuntimeError(out.stderr)
    *lines, k = out.stdout.splitlines()
    rows = [(name, float(s), int(rss) / 1024, int(hwm) / 1024)
            for name, s, rss, hwm in (line.split() for line in lines)]
    return rows, int(k)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Time and memory of the FC(3,1) pipeline "
                                     "(code style, m-holes), stage by stage, in a child.")
    parser.add_argument("--level", type=int, required=True)
    parser.add_argument("--limit-mb", type=int, required=True, help="the child's RLIMIT_AS")
    parser.add_argument("--src", help="the source tree to import the package from")
    args = parser.parse_args()
    rows, k = stage_table(args.level, args.limit_mb, args.src)
    print("stage seconds vmrss_mb vmhwm_mb")
    for name, seconds, rss, hwm in rows:
        print(f"{name} {seconds:.2f} {rss:.1f} {hwm:.1f}")
    print(f"k {k}")
