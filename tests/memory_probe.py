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
"""

from __future__ import annotations

import os
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
