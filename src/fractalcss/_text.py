"""Array parsing shared by the readers of the line-based text formats.

A block of lines is split into tokens once (`str.split`); each line's
tokens are found from per-line token counts, which come from byte tests
on the block, and every integer token of the block is parsed in one call
of `np.fromstring`, which raises ValueError on a token that is not a
base-10 integer.  Python loops run only to name the first bad token of a
block that is already known to be malformed.
"""

from __future__ import annotations

import re

import numpy as np

# the ASCII line breaks of str.splitlines other than "\n"
_ODD_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"
# whitespace other than "\n" and " " (re's \s is str.isspace, which str.split uses)
_ODD_SPACE = re.compile(r"[^\S\n ]")
# a sign without a digit after it: np.fromstring reads "-" as 0 and "- 1" as -1
_LONE_SIGN = re.compile(r"[+-](?![0-9])")
_PLAIN_INT = re.compile(r"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)
_ASCII_SPACE = np.array([chr(c).isspace() for c in range(256)]) & (np.arange(256) < 128)


def with_newlines(text: str) -> str:
    """`text` with every line break of `str.splitlines` written as "\\n"."""
    if text.isascii() and not any(c in text for c in _ODD_BREAKS):
        return text
    return "\n".join(text.splitlines())


def line_tokens(text: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The whitespace-separated tokens of the "\\n"-separated `text`, and per
    non-blank line its token count and the index of its first token."""
    if not text.isascii() and _ODD_SPACE.search(text):
        text = _ODD_SPACE.sub(" ", text)
    b = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    # every byte of a non-ASCII character is >= 0x80, so only ASCII bytes separate tokens
    gap = _ASCII_SPACE[b]
    start = ~gap
    start[1:] &= gap[:-1]
    ends = np.append(np.flatnonzero(b == 10), len(b))  # of the lines
    counts = np.diff(np.searchsorted(np.flatnonzero(start), ends), prepend=0)
    counts = counts[counts > 0]
    return text.split(), counts, np.cumsum(counts) - counts


def int64s(tokens: list[str]) -> np.ndarray:
    """The tokens as int64.  A token that `int` rejects raises its
    ValueError; one it reads but that is not ASCII digits after an optional
    sign (``1_0``, other scripts' digits), or whose value lies outside
    int64, raises ValueError as well."""
    text = " ".join(tokens)
    try:
        if ("-" in text or "+" in text) and _LONE_SIGN.search(text):
            raise ValueError("a sign without digits")
        values = np.fromstring(text, dtype=np.int64, sep=" ")
    except ValueError:
        for tok in tokens:
            _require_plain(tok)
        raise
    # np.fromstring saturates a value outside int64 at the nearer limit
    for j in np.flatnonzero((values == _INT64.max) | (values == _INT64.min)).tolist():
        if int(tokens[j]) != int(values[j]):
            raise ValueError(f"{tokens[j]} is outside int64")
    return values


def int64(token: str) -> int:
    """One token by the rule of `int64s`."""
    _require_plain(token)
    value = int(token)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{token} is outside int64")
    return value


def _require_plain(tok: str) -> None:
    """Raise ValueError unless `tok` is ASCII digits after an optional sign:
    int's own ValueError where int rejects the token."""
    if not _PLAIN_INT.fullmatch(tok):
        int(tok)
        raise ValueError(f"{tok!r} is not an integer in ASCII digits") from None


def nth_tokens(toks: np.ndarray, first: np.ndarray, j: int) -> np.ndarray:
    """Token j of each line, from the tokens `toks` and the index `first` of
    each line's first token (some other token on a line shorter than j + 1)."""
    return toks[np.minimum(first + j, len(toks) - 1)]


def first_false(ok: np.ndarray) -> int:
    """The index of the first False in `ok`, or len(ok) when there is none."""
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if bad.size else len(ok)
