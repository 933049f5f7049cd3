"""Reference answers for every response the benchmark receives.

The server's answers are compared with a first-match scan computed here
from the rules' intervals, not with any of the program's lookup paths.

Rule updates follow one fixed schedule, shared with the server
launcher: generation 1 is the initial build, and update ``k`` (k = 0,
1, 2, ...) inserts rule ``k // 2`` of the update pool when ``k`` is
even and removes it again when ``k`` is odd.  Each update bumps the
engine generation by one, so a generation names the rule set that
serves it.  An insert lands at the lowest priority above the
catch-all, which moves the catch-all's index up by one.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def rule_bounds(rules) -> tuple:
    """``(lows, highs)`` int64 arrays of shape ``(len(rules), k)``."""
    lows = np.array(
        [[iv.low for iv in rule.intervals] for rule in rules], dtype=np.int64
    )
    highs = np.array(
        [[iv.high for iv in rule.intervals] for rule in rules],
        dtype=np.int64,
    )
    return lows, highs


def first_match(rules, packets: np.ndarray) -> np.ndarray:
    """Index of the first rule containing each packet (-1 for none):
    the rules are scanned in priority order, each over the packets no
    earlier rule matched."""
    lows, highs = rule_bounds(rules)
    pk = np.asarray(packets, dtype=np.int64)
    out = np.full(pk.shape[0], -1, dtype=np.int64)
    todo = np.arange(pk.shape[0])
    for i in range(len(lows)):
        if todo.size == 0:
            break
        p = pk[todo]
        hit = ((lows[i] <= p) & (p <= highs[i])).all(axis=1)
        if hit.any():
            out[todo[hit]] = i
            todo = todo[~hit]
    return out


def inserted_at(generation: int, pool_size: int) -> Optional[int]:
    """Pool index of the rule the update schedule holds inserted at
    ``generation``, or None when the base rule set serves."""
    updates = generation - 1
    if updates % 2 == 0:
        return None
    return (updates // 2) % pool_size


class Oracle:
    """Expected answers per request block and generation."""

    def __init__(self, classifier, blocks: Sequence[np.ndarray], pool) -> None:
        self.n_body = len(classifier.body)
        self.blocks = list(blocks)
        sizes = [len(b) for b in self.blocks]
        base = first_match(classifier.rules, np.concatenate(self.blocks))
        self.base = np.split(base, np.cumsum(sizes)[:-1])
        self.pool = list(pool)
        self.pool_bounds = rule_bounds(self.pool) if self.pool else None

    def expected(self, block_id: int, generation: int) -> np.ndarray:
        """The answer the rule set of ``generation`` gives ``block_id``."""
        base = self.base[block_id]
        extra = inserted_at(generation, len(self.pool)) if self.pool else None
        if extra is None:
            return base
        lows, highs = self.pool_bounds
        block = self.blocks[block_id].astype(np.int64)
        inside = ((lows[extra] <= block) & (block <= highs[extra])).all(
            axis=1
        )
        n = self.n_body
        return np.where(base < n, base, np.where(inside, n, n + 1))

    def check(
        self, block_id: int, answer: np.ndarray, low_gen: int, high_gen: int
    ) -> bool:
        """True when ``answer`` is what some generation in
        ``[low_gen, high_gen]`` gives ``block_id``."""
        for generation in range(low_gen, high_gen + 1):
            if np.array_equal(answer, self.expected(block_id, generation)):
                return True
        return False
