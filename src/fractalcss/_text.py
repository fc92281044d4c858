"""Byte arrays shared by the readers and writers of the line-based text
formats.

A reader encodes its text once.  `Tokens` finds the whitespace-separated
tokens of the bytes, and the line of each, by one test of every byte
against the whitespace ranges; a token is compared with a word or with a
decimal integer by gathering its bytes, the integer tokens are parsed by
one `np.fromstring` over a copy of the bytes in which every other byte is
a space, and labels get their codes from one `np.unique` over their
bytes.  Python loops run only over the distinct labels, and to name the
first bad token of a text that is already known to be malformed.

A writer renders its lines of tokens into one byte buffer (`write_lines`):
the length of a decimal integer comes from comparisons with the powers of
ten, and its digits from repeated ``// 10``.
"""

from __future__ import annotations

import re

import numpy as np

# the ASCII line breaks of str.splitlines other than "\n"
_ODD_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"
# whitespace other than "\n" and " " (re's \s is str.isspace, which str.split uses)
_ODD_SPACE = re.compile(r"[^\S\n ]")
_PLAIN_INT = re.compile(r"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)


def with_newlines(text: str) -> str:
    """`text` with every line break of `str.splitlines` written as "\\n"."""
    if text.isascii() and not any(c in text for c in _ODD_BREAKS):
        return text
    return "\n".join(text.splitlines())


def encode(text: str) -> bytes:
    """The UTF-8 bytes of `text`, lone surrogates included."""
    return text.encode("utf-8", "surrogatepass")


def decode(raw: bytes) -> str:
    return raw.decode("utf-8", "surrogatepass")


class Tokens:
    """The whitespace-separated tokens of encoded text whose line breaks
    are all "\\n", as `str.split` finds them in the decoded text.

    ``start`` / ``stop``: the byte span of each token; per non-blank line
    (one with a token), ``first``: its first token, ``count``: its number
    of tokens, ``line``: its number among all lines.
    """

    def __init__(self, raw: bytes):
        self.raw = raw
        b = np.frombuffer(raw, dtype=np.uint8)
        if not raw.isascii():
            text = decode(raw)
            if _ODD_SPACE.search(text):
                # every byte of a non-ASCII space becomes a space, so that the
                # byte offsets of the tokens hold in `raw` as well
                text = _ODD_SPACE.sub(lambda space: " " * len(encode(space[0])), text)
                b = np.frombuffer(encode(text), dtype=np.uint8)
        self.b = b
        # the ASCII whitespace, bytes 9-13 and 28-32, and a gap before and after
        # the text (every byte of a non-ASCII character is >= 0x80)
        gap = np.ones(len(b) + 2, dtype=bool)
        np.less_equal(b - np.uint8(9), 4, out=gap[1:-1])
        gap[1:-1] |= b - np.uint8(28) <= 4
        edges = np.flatnonzero(gap[1:] != gap[:-1])
        self.start, self.stop = edges[0::2], edges[1::2]
        self.breaks = np.flatnonzero(b == 10)
        # a line's first token is the first after a line break
        new = np.zeros(len(self.start), dtype=bool)
        after = np.searchsorted(self.start, self.breaks)
        new[after[after < len(new)]] = True
        new[:1] = True
        self.first = np.flatnonzero(new)
        self.count = np.diff(self.first, append=len(new))
        self.line = np.searchsorted(self.breaks, self.start[self.first])

    def column(self, j: int, lines=slice(None)) -> np.ndarray:
        """Token j of each of the non-blank `lines` (some other token on a
        line shorter than j + 1)."""
        return np.minimum(self.first[lines] + j, len(self.start) - 1)

    def _byte(self, at: np.ndarray) -> np.ndarray:
        return self.b[np.clip(at, 0, len(self.b) - 1)]

    def is_word(self, t: np.ndarray, word: bytes) -> np.ndarray:
        """Per token of t, whether it reads `word`."""
        s = self.start[t]
        ok = self.stop[t] - s == len(word)
        for j, c in enumerate(word):
            ok &= self._byte(s + j) == c
        return ok

    def is_int(self, t: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Per token of t, whether it reads ``str(value)``, for the
        non-negative `values`."""
        digits = _digits(values.astype(np.uint64))
        last = self.start[t] + digits - 1
        ok = self.stop[t] - self.start[t] == digits
        v = values.copy()
        for j in range(int(digits.max()) if len(t) else 0):
            ok &= (self._byte(last - j) == v % 10 + 48) | (digits <= j)
            v //= 10
        return ok

    def text(self, t: int) -> str:
        return decode(self.raw[self.start[t] : self.stop[t]])

    def line_text(self, j: int) -> str:
        """Non-blank line j as written (IndexError past the last one)."""
        at = int(self.line[j])
        lo = int(self.breaks[at - 1]) + 1 if at else 0
        hi = int(self.breaks[at]) if at < len(self.breaks) else len(self.raw)
        return decode(self.raw[lo:hi])

    def ints(self, t: np.ndarray, group: np.ndarray | None = None) -> np.ndarray:
        """The tokens t (ascending) as int64.  The first one that is not
        ASCII digits after an optional sign raises ValueError, `int`'s own
        where `int` rejects it; a value outside int64 raises ValueError too.
        With `group` (per token, ascending), the groups are read in turn, as
        a reader that parses one group at a time would: a value outside
        int64 in an earlier group is reported first."""
        lo, hi = self.start[t], self.stop[t]
        marks = np.zeros(len(self.b), dtype=np.int8)
        marks[lo] = 1
        marks[hi[hi < len(marks)]] = -1
        # the bytes of the tokens t, a space for every other byte and one more at the end
        c = np.full(len(self.b) + 1, ord(" "), dtype=np.uint8)
        np.copyto(c[:-1], self.b, where=np.cumsum(marks, dtype=np.int8) > 0)
        # a byte other than a space or a digit must be a sign that starts a token before a digit
        odd = np.flatnonzero((c != 32) & ((c < 48) | (c > 57)))
        sign = ((c[odd] == 43) | (c[odd] == 45)) & (c[odd - 1] == 32)
        sign &= (c[odd + 1] >= 48) & (c[odd + 1] <= 57)
        bad = len(t)
        if not sign.all():
            bad = int(np.searchsorted(lo, odd[first_false(sign)], "right")) - 1
        end = lo[bad] if bad < len(t) else len(c)
        values = np.fromstring(c[:end], dtype=np.int64, sep=" ") if bad else np.zeros(0, np.int64)
        # np.fromstring saturates a value outside int64 at the nearer limit
        for j in np.flatnonzero((values == _INT64.max) | (values == _INT64.min)).tolist():
            tok = self.text(t[j])
            if int(tok) != int(values[j]):
                if bad == len(t) or group is not None and group[j] < group[bad]:
                    raise ValueError(f"{tok} is outside int64")
                break
        if bad < len(t):
            _require_plain(self.text(t[bad]))
        return values

    def codes(self, t: np.ndarray, names: list[str]) -> tuple[np.ndarray, list[str]]:
        """The codes of the tokens t in the table `names`, and the table,
        to which the tokens it does not hold are added in order of first
        use."""
        table = {name: code for code, name in enumerate(names)}
        width = self.stop[t] - self.start[t]
        # per token width: the tokens, the index of each in the distinct
        # tokens, where each distinct token is first used, and its text
        groups = []
        for w in np.flatnonzero(np.bincount(width)).tolist():
            rows = np.flatnonzero(width == w)
            keys = self.b[self.start[t[rows]][:, None] + np.arange(w)].view(np.dtype((np.void, w)))
            distinct, at, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
            groups.append((rows, inverse.ravel(), rows[at], [decode(d.tobytes()) for d in distinct]))
        code = [np.empty(len(g[3]), dtype=np.int64) for g in groups]
        for _, g, u in sorted((f, g, u) for g, group in enumerate(groups)
                              for u, f in enumerate(group[2].tolist())):
            code[g][u] = table.setdefault(groups[g][3][u], len(table))
        out = np.empty(len(t), dtype=np.int64)
        for (rows, inverse, _, _), c in zip(groups, code):
            out[rows] = c[inverse]
        return out, list(table)


def int64(token: str) -> int:
    """One token as an int: ASCII digits after an optional sign, within
    int64; anything else raises ValueError."""
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


def first_false(ok: np.ndarray) -> int:
    """The index of the first False in `ok`, or len(ok) when there is none."""
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if bad.size else len(ok)


def _digits(mag: np.ndarray) -> np.ndarray:
    """The number of decimal digits of each of the uint64 `mag`."""
    digits = np.ones(len(mag), dtype=np.int64)
    power, top = 10, int(mag.max(initial=0))
    while power <= top:
        digits += mag >= power
        power *= 10
    return digits


def write_lines(words: list[str], fixed: np.ndarray, is_word: np.ndarray,
                tail_counts: np.ndarray | None = None, tail: np.ndarray | None = None) -> bytes:
    """Lines of tokens, one per row of the (n, c) int64 array `fixed`, as
    UTF-8 bytes: the tokens of a line are separated by one space and
    followed by a line break.

    Line r holds one token per entry of ``fixed[r]``: the word
    ``words[fixed[r, j]]`` in a column j with ``is_word[j]``, else the
    decimal integer; then the decimal integers of its tail, the next
    ``tail_counts[r]`` entries of `tail`.
    """
    n, c = fixed.shape
    counts = c + (tail_counts if tail_counts is not None else np.zeros(n, dtype=np.int64))
    ends = np.cumsum(counts)
    total = int(ends[-1]) if n else 0
    value = np.empty(total, dtype=np.int64)
    word = np.zeros(total, dtype=bool)
    at = (ends - counts)[:, None] + np.arange(c)
    value[at] = fixed
    word[at[:, is_word]] = True
    if tail is not None:
        in_tail = np.ones(total, dtype=bool)
        in_tail[at] = False
        value[in_tail] = tail
    table = [encode(w) for w in words]
    word_len = np.array([len(w) for w in table], dtype=np.int64)
    ints = ~word
    v = value[ints]
    mag = np.abs(v).astype(np.uint64)  # the int64 minimum wraps to itself, 2**63 as uint64
    length = np.empty(total, dtype=np.int64)
    length[word] = word_len[value[word]]
    length[ints] = _digits(mag) + (v < 0)
    stop = np.cumsum(length + 1)  # each token, then its space or line break
    start = stop - 1 - length
    buf = np.full(int(stop[-1]) if total else 0, ord(" "), dtype=np.uint8)
    buf[stop[ends - 1] - 1] = ord("\n")
    # the words: byte j of a word of length L at start + j, for j < L
    w_start, w = start[word], value[word]
    size = word_len[w]
    w_end = np.cumsum(size)
    j = np.arange(int(w_end[-1]) if len(w_end) else 0) - np.repeat(w_end - size, size)
    w_off = np.cumsum(word_len) - word_len
    buf[np.repeat(w_start, size) + j] = np.frombuffer(b"".join(table), dtype=np.uint8)[
        np.repeat(w_off[w], size) + j]
    # the integers: a sign, then the digits from the last one back
    i_start = start[ints]
    buf[i_start[v < 0]] = ord("-")
    pos, ten = i_start + length[ints] - 1, np.uint64(10)
    while len(pos):
        high = mag // ten
        buf[pos] = mag - high * ten + np.uint64(48)
        more = high > 0
        pos, mag = pos[more] - 1, high[more]
    return buf.tobytes()
