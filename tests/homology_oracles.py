"""Test-only oracle of the reduction engine.

``Reduction`` is `homology._Reduction` as it ran before its rounds gathered
only what changes: each round gathered the removed cells' neighbours on
both sides (lowering the counts of cells already dead), gathered the
partners' faces once more for the next candidates, paired by
``np.unique(y, return_index=True)``, and a `_pair_off` ended with a round
that found no pair and recorded it as ``(g, h, [], [])``.  It builds its
own cofaces by transposing the faces.  Kept verbatim; the engine must
leave the same live masks and seeds and record the same non-empty rounds
in the same order.
"""

from __future__ import annotations

import numpy as np

from fractalcss.complexes import Faces


class Reduction:
    """The live cells of a chain complex under collapses and coreductions.

    The complex is given in CSR form: ``down[k]`` lists the faces of each
    k-cell (``down[0]`` is empty); ``up[k]`` lists its cofaces, and
    ``n_down[k]`` / ``n_up[k]`` count the live ones.  Every round of pairs
    is recorded in ``rounds`` as (g, h, x, y): the g-cells x went with the
    h-cells y, x[i] with y[i].
    """

    def __init__(self, down: list[Faces]):
        self.down = down
        self.up = [fs.transpose(len(below)) for below, fs in zip(down, down[1:])]
        self.up.append(Faces.empty(len(down[-1])))
        self.live = [np.ones(len(fs), dtype=bool) for fs in down]
        self.n_down = [fs.counts() for fs in self.down]
        self.n_up = [fs.counts() for fs in self.up]
        self.rounds: list[tuple[int, int, np.ndarray, np.ndarray]] = []

    def run(self) -> tuple[list[np.ndarray], list[int]]:
        """Reduce until a full sweep removes nothing; return the live masks
        and the number of cells removed as seeds per grade."""
        top = len(self.live) - 1
        seeds = [0] * (top + 1)
        while True:
            removed = 0
            for k in range(top, 0, -1):
                removed += self._pair_off(k - 1, k)
                while k == top and self._seed(top, top - 1, seeds):
                    removed += 1 + self._pair_off(k - 1, k)
            for k in range(1, top + 1):
                removed += self._pair_off(k, k - 1)
                while k == 1 and self._seed(0, 1, seeds):
                    removed += 1 + self._pair_off(1, 0)
            if not removed:
                return self.live, seeds

    def _seed(self, g: int, h: int, seeds: list[int]) -> bool:
        """Remove one live g-cell as a seed, g = 0 or the top grade, if every
        live cell of the next grade h has an even number of live neighbours
        in grade g; return whether one went.  At g = 0 no boundary then
        reaches a single vertex (the augmentation vanishes on boundaries),
        at the top the live top cells sum to a cycle through the seed: H_g
        drops by one and every other grade stays.  The seed has the most
        live neighbours, so the pairs spread fastest from it."""
        count, pick = (self.n_down, self.n_up) if g < h else (self.n_up, self.n_down)
        if not self.live[g].any() or (count[h][self.live[h]] & 1).any():
            return False
        self._remove(g, np.argmax(np.where(self.live[g], pick[g], -1))[None])
        seeds[g] += 1
        return True

    def _remove(self, k: int, cells: np.ndarray) -> None:
        self.live[k][cells] = False
        if k:
            np.subtract.at(self.n_up[k - 1], self.down[k].take(cells), 1)
        if k + 1 < len(self.live):
            np.subtract.at(self.n_down[k + 1], self.up[k].take(cells), 1)

    def _pair_off(self, g: int, h: int) -> int:
        """Remove each live g-cell with exactly one live neighbour in grade
        h = g +- 1 together with that neighbour, round by round until none
        is left; return the number of pairs.  A collapse has h = g + 1, a
        coreduction h = g - 1."""
        if h > g:
            near, count, back = self.up, self.n_up, self.down
        else:
            near, count, back = self.down, self.n_down, self.up
        live_g, live_h = self.live[g], self.live[h]
        cand = np.flatnonzero(live_g & (count[g] == 1))
        pairs = 0
        while cand.size:
            x = cand[live_g[cand] & (count[g][cand] == 1)]
            y = near[g].take(x)
            y = y[live_h[y]]  # the one live neighbour of each x, in order
            if len(y) != len(x):
                raise AssertionError(f"grade {g}: live-neighbour counts out of date")
            y, first = np.unique(y, return_index=True)  # one pair per neighbour
            x = x[first]
            self._remove(g, x)
            self._remove(h, y)
            self.rounds.append((g, h, x, y))
            pairs += len(x)
            # the g-cells whose count fell: the other neighbours of y
            cand = back[h].take(y)
        return pairs
