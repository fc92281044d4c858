"""Shared test setup: Hypothesis's patch writer imported ahead of time.

When a `@given` test fails, Hypothesis imports `hypothesis.extra._patching`
to offer a patch of the falsifying example.  Where libcst is installed that
import warns (libcst uses `mypy_extensions.TypedDict`), and under
`-W error::DeprecationWarning` the warning ends the run in a pytest
INTERNALERROR that loses the example.  A command-line `-W` filter outranks
a `filterwarnings` entry in `pytest.ini`, so the module is imported here,
once, with the warning ignored.  Without libcst the import fails and
nothing changes.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
