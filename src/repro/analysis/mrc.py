"""MRC — Maximum Rules Coverage (Problems 3 and 4, Section 6.2.2).

Find a large subset of rules that is order-independent on (a subset of) the
fields.  Exact solutions are maximum-independent-set instances and thus
intractable in general; the paper (and this module) uses:

* a **greedy maximal independent set** in priority order — scan rules from
  highest priority, accept a rule iff it is disjoint from every rule already
  accepted (on the chosen fields).  This is the paper's workhorse for
  "maximal order-independent subset on all k fields" (Table 1, Table 3);
* the **EDF exact algorithm** for the single-field case (Section 4.4):
  finding a maximum set of pairwise-disjoint intervals is interval
  scheduling, solved optimally by earliest-deadline-first in O(N log N);
* **l-MRC** via the l-MSC field-selection heuristic (Problem 7): greedily
  pick the l fields separating the most rule pairs, then run the greedy
  independent set on those fields;
* a **brute-force exact solver** for tiny instances, used by tests to
  certify greedy quality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.classifier import Classifier
from .order_independence import pair_separation_bitsets
from .setcover import greedy_max_coverage_bits

__all__ = [
    "MRCResult",
    "greedy_independent_set",
    "edf_single_field",
    "l_mrc",
    "exact_independent_set_small",
]


@dataclass(frozen=True)
class MRCResult:
    """An order-independent subset of body-rule indices, and the fields on
    which independence holds."""

    rule_indices: Tuple[int, ...]
    fields: Tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of selected rules."""
        return len(self.rule_indices)

    def complement(self, num_body_rules: int) -> Tuple[int, ...]:
        """Indices of the body rules left out (the order-dependent part D)."""
        taken = set(self.rule_indices)
        return tuple(i for i in range(num_body_rules) if i not in taken)


def _fields_or_all(classifier: Classifier, fields: Optional[Sequence[int]]) -> List[int]:
    if fields is None:
        return list(range(classifier.num_fields))
    out = sorted(set(fields))
    if not out:
        raise ValueError("field subset must be non-empty")
    return out


#: Candidates examined per vectorized batch of the greedy scan.
_CHUNK = 256


def _greedy_independent_scan(
    lo_sel: np.ndarray,
    hi_sel: np.ndarray,
    scan: Sequence[int],
    chosen_fields: Sequence[int],
) -> MRCResult:
    """Rule-at-a-time greedy scan — fallback for schemas whose bounds do
    not fit machine integers (object arrays)."""
    n = lo_sel.shape[0]
    acc_lo = np.empty((n, len(chosen_fields)), dtype=lo_sel.dtype)
    acc_hi = np.empty((n, len(chosen_fields)), dtype=hi_sel.dtype)
    count = 0
    accepted: List[int] = []
    for idx in scan:
        lo = lo_sel[idx]
        hi = hi_sel[idx]
        if count:
            conflict = np.ones(count, dtype=bool)
            for f in range(len(chosen_fields)):
                np.logical_and(
                    conflict,
                    (acc_lo[:count, f] <= hi[f]) & (lo[f] <= acc_hi[:count, f]),
                    out=conflict,
                )
                if not conflict.any():
                    break
            if conflict.any():
                continue
        acc_lo[count] = lo
        acc_hi[count] = hi
        count += 1
        accepted.append(idx)
    return MRCResult(tuple(sorted(accepted)), tuple(chosen_fields))


def greedy_independent_set(
    classifier: Classifier,
    fields: Optional[Sequence[int]] = None,
    order: Optional[Sequence[int]] = None,
) -> MRCResult:
    """Greedy maximal order-independent subset on ``fields``.

    Rules are scanned in ``order`` (default: priority order, matching the
    paper's construction, which keeps the highest-priority rules in I so
    that an I-match can preempt D).  A rule is accepted iff it does not
    intersect any previously accepted rule on every chosen field.

    Candidates are admitted in chunks: each batch computes conflicts
    against the accepted prefix and the in-chunk pairwise conflicts in a
    few whole-array passes, then resolves the chunk in scan order — same
    result as the rule-at-a-time scan, without the per-rule numpy call
    overhead.
    """
    chosen_fields = _fields_or_all(classifier, fields)
    lows, highs = classifier.bounds_arrays()
    n = lows.shape[0]
    scan = list(order) if order is not None else list(range(n))
    lo_sel = lows[:, chosen_fields] if classifier.num_fields else lows
    hi_sel = highs[:, chosen_fields] if classifier.num_fields else highs
    if lo_sel.dtype != np.int64:
        return _greedy_independent_scan(lo_sel, hi_sel, scan, chosen_fields)
    lo_sel = np.ascontiguousarray(lo_sel)
    hi_sel = np.ascontiguousarray(hi_sel)
    nf = len(chosen_fields)
    acc_lo = np.empty((n, nf), dtype=np.int64)
    acc_hi = np.empty((n, nf), dtype=np.int64)
    count = 0
    accepted: List[int] = []
    scan_arr = np.asarray(scan, dtype=np.int64)
    for start in range(0, scan_arr.shape[0], _CHUNK):
        chunk = scan_arr[start : start + _CHUNK]
        clo = lo_sel[chunk]
        chi = hi_sel[chunk]
        size = chunk.shape[0]
        if count:
            if nf == 0:
                blocked = np.ones(size, dtype=bool)
            else:
                # Full (chunk, accepted) matrix for the first field only;
                # surviving pairs are filtered elementwise through the
                # remaining fields (most pairs separate on one field, so
                # the survivor set collapses fast).
                overlap = (acc_lo[:count, 0][None, :] <= chi[:, 0][:, None]) & (
                    clo[:, 0][:, None] <= acc_hi[:count, 0][None, :]
                )
                rows, cols = np.nonzero(overlap)
                for f in range(1, nf):
                    if rows.size == 0:
                        break
                    keep = (acc_lo[cols, f] <= chi[rows, f]) & (
                        clo[rows, f] <= acc_hi[cols, f]
                    )
                    rows = rows[keep]
                    cols = cols[keep]
                blocked = np.zeros(size, dtype=bool)
                blocked[rows] = True
        else:
            blocked = np.zeros(size, dtype=bool)
        pair: Optional[np.ndarray] = None
        for f in range(nf):
            overlap = (clo[None, :, f] <= chi[:, None, f]) & (
                clo[:, None, f] <= chi[None, :, f]
            )
            pair = overlap if pair is None else (pair & overlap)
        if pair is None:
            pair = np.ones((size, size), dtype=bool)
        chunk_list = chunk.tolist()
        for i in range(size):
            if blocked[i]:
                continue
            acc_lo[count] = clo[i]
            acc_hi[count] = chi[i]
            count += 1
            accepted.append(chunk_list[i])
            blocked |= pair[:, i]
    return MRCResult(tuple(sorted(accepted)), tuple(chosen_fields))


def edf_single_field(
    classifier: Classifier,
    field: int,
    rule_subset: Optional[Sequence[int]] = None,
) -> MRCResult:
    """Exact 1-MRC: maximum set of rules with pairwise-disjoint intervals in
    one field, by earliest-deadline-first interval scheduling.

    ``rule_subset`` restricts the candidates to those body-rule indices
    (default: all body rules).  Optimal for cardinality (unlike the greedy
    priority scan).  Note the selected set maximizes *size*, not priority
    coverage.
    """
    lows, highs = classifier.bounds_arrays()
    if rule_subset is None:
        members = np.arange(lows.shape[0], dtype=np.int64)
    else:
        members = np.asarray(rule_subset, dtype=np.int64)
    lo = lows[members, field]
    hi = highs[members, field]
    order = np.argsort(hi, kind="stable")
    chosen: List[int] = []
    frontier = -1
    for idx, low, high in zip(
        members[order].tolist(), lo[order].tolist(), hi[order].tolist()
    ):
        if low > frontier:
            chosen.append(idx)
            frontier = high
    return MRCResult(tuple(sorted(chosen)), (field,))


def l_mrc(
    classifier: Classifier,
    l: int,
    order: Optional[Sequence[int]] = None,
) -> MRCResult:
    """Heuristic l-MRC (Problem 3): choose at most ``l`` fields by greedy
    maximum pair coverage (Problem 7), then extract a greedy independent set
    on those fields.

    As the paper notes (Section 6.2.2), covering the most pairs does not
    always maximize the independent set — this is a heuristic, evaluated in
    Table 3.
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    if l >= classifier.num_fields:
        return greedy_independent_set(classifier, order=order)
    universe, bitsets = pair_separation_bitsets(classifier)
    chosen_fields, _ = greedy_max_coverage_bits(
        universe.num_pairs, bitsets, budget=l
    )
    if not chosen_fields:
        chosen_fields = [0]
    return greedy_independent_set(classifier, chosen_fields, order=order)


def exact_independent_set_small(
    classifier: Classifier,
    fields: Optional[Sequence[int]] = None,
    limit: int = 22,
) -> MRCResult:
    """Exact maximum order-independent subset by subset enumeration.

    Exponential in N — guarded by ``limit``; exists to certify greedy
    results in tests.
    """
    chosen_fields = _fields_or_all(classifier, fields)
    body = classifier.body
    n = len(body)
    if n > limit:
        raise ValueError(f"exact solver limited to {limit} rules, got {n}")
    best: Tuple[int, ...] = ()
    for size in range(n, len(best), -1):
        for combo in itertools.combinations(range(n), size):
            ok = True
            for a in range(len(combo) - 1):
                for b in range(a + 1, len(combo)):
                    if body[combo[a]].intersects_on(body[combo[b]], chosen_fields):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                best = combo
                break
        if best and len(best) == size:
            break
    return MRCResult(best, tuple(chosen_fields))
