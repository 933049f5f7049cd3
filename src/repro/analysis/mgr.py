"""MGR and (β,l)-MRC — multi-group representations (Problems 2, 4, 5).

A multi-group representation assigns rules to groups such that each group is
order-independent on its own subset of at most ``l`` fields (Theorem 3 makes
it semantically equivalent: one lookup per group, one false-positive check
per group, priority merge).  With ``l <= 2`` every group admits a linear
memory / logarithmic-time software lookup.

The heuristic follows Section 6.2.2: scan rules (priority order by default),
place each rule into the first group that can still keep a feasible field
subset after the addition, opening a new group when none accepts — capped at
β groups for (β,l)-MRC, in which case the overflow goes to the
order-dependent part D.

Two implementations produce byte-identical assignments:

* :func:`l_mgr_reference` — the rule-at-a-time greedy scan, kept as the
  obviously-correct reference (and the fallback for schemas the packed
  pipeline cannot handle, e.g. >64-bit fields);
* the **vectorized chunked scan** used by :func:`l_mgr` whenever the
  columnar store allows: candidates are admitted in chunks, each open
  group evaluates the whole chunk's per-subset feasibility in a handful of
  numpy passes (packed uint64 subset bitmasks from
  :mod:`repro.analysis.columnar`), and in-chunk interactions ride on a
  precomputed pairwise fail table.

Problem 5 ((β,l)-MRCC) post-processes the split so that a match in I
preempts the D lookup: no rule of I may intersect a *higher-priority* rule
of D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.classifier import Classifier
from .columnar import (
    MAX_PACKED_FIELDS,
    MAX_PACKED_SUBSETS,
    ColumnarRules,
    candidate_subsets,
    pack_disjoint_masks,
    subset_fail_table,
)
from .mrc import edf_single_field, greedy_independent_set

__all__ = [
    "Group",
    "MGRResult",
    "l_mgr",
    "l_mgr_reference",
    "beta_l_mrc",
    "enforce_cache_property",
    "group_statistics",
    "independent_split",
    "iset_partition",
    "GroupStatistics",
]

#: Candidates admitted per vectorized batch.  128 keeps the per-chunk
#: pairwise fail table tiny while amortizing the numpy call overhead that
#: dominated the rule-at-a-time scan.
_CHUNK = 128


@dataclass(frozen=True)
class Group:
    """A finished group: rule indices plus the field subset on which they
    are order-independent."""

    rule_indices: Tuple[int, ...]
    fields: Tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of rules in the group."""
        return len(self.rule_indices)


@dataclass(frozen=True)
class MGRResult:
    """A multi-group assignment.  ``ungrouped`` is the spill-over to the
    order-dependent part D (for :func:`l_mgr`, non-empty only when β
    capped the group count)."""

    groups: Tuple[Group, ...]
    ungrouped: Tuple[int, ...]
    l: int

    @property
    def num_groups(self) -> int:
        """Number of groups in the assignment."""
        return len(self.groups)

    @property
    def covered(self) -> int:
        """Total rules across all groups."""
        return sum(g.size for g in self.groups)

    def grouped_indices(self) -> Tuple[int, ...]:
        """Sorted body-rule indices placed in some group."""
        out: List[int] = []
        for g in self.groups:
            out.extend(g.rule_indices)
        return tuple(sorted(out))


def _candidate_subsets(num_fields: int, l: int) -> List[Tuple[int, ...]]:
    return candidate_subsets(num_fields, l)


def _validate(l: int, beta: Optional[int]) -> None:
    if l < 1:
        raise ValueError("l must be at least 1")
    if beta is not None and beta < 1:
        raise ValueError("beta must be at least 1")


def _scan_order(
    n: int,
    order: Optional[Sequence[int]],
    rule_subset: Optional[Sequence[int]],
) -> List[int]:
    if order is not None:
        return list(order)
    if rule_subset is not None:
        return list(rule_subset)
    return list(range(n))


def _narrowest(
    feasible: Sequence[Tuple[int, ...]], widths: Sequence[int]
) -> Tuple[int, ...]:
    """Deterministic lookup-field pick: smallest total bit width, ties by
    lexicographic subset order."""
    return min(feasible, key=lambda s: (sum(widths[f] for f in s), s))


# ---------------------------------------------------------------------------
# Reference (rule-at-a-time) implementation
# ---------------------------------------------------------------------------

class _OpenGroup:
    """Mutable group state during the reference greedy scan.

    Member bounds live in contiguous ``(cap, k)`` arrays grown by doubling
    — the scan must never rebuild the member matrix per candidate (the old
    list-of-rows representation made every admission attempt O(members)
    in *copies*, which dominated build time).
    """

    __slots__ = ("members", "feasible", "lo", "hi", "count")

    def __init__(
        self, feasible: Set[Tuple[int, ...]], k: int, dtype
    ) -> None:
        self.members: List[int] = []
        self.feasible = feasible
        self.lo = np.empty((16, k), dtype=dtype)
        self.hi = np.empty((16, k), dtype=dtype)
        self.count = 0

    def append(self, idx: int, lo: np.ndarray, hi: np.ndarray) -> None:
        if self.count == self.lo.shape[0]:
            grown_lo = np.empty(
                (self.count * 2, self.lo.shape[1]), dtype=self.lo.dtype
            )
            grown_hi = np.empty_like(grown_lo)
            grown_lo[: self.count] = self.lo[: self.count]
            grown_hi[: self.count] = self.hi[: self.count]
            self.lo, self.hi = grown_lo, grown_hi
        self.lo[self.count] = lo
        self.hi[self.count] = hi
        self.count += 1
        self.members.append(idx)


def _try_place(
    group: _OpenGroup, lo: np.ndarray, hi: np.ndarray
) -> Optional[Set[Tuple[int, ...]]]:
    """Return the surviving feasible subsets if the candidate joins
    ``group``, or None if no subset survives.

    The per-field disjointness columns are computed once per candidate and
    shared across every subset verdict (memoized for the current
    candidate), instead of re-slicing the member matrix per subset — a
    rejected candidate costs one (members, k) comparison, not one per
    subset.
    """
    glo = group.lo[: group.count]
    ghi = group.hi[: group.count]
    disjoint = (ghi < lo[None, :]) | (hi[None, :] < glo)
    columns: Dict[int, np.ndarray] = {}

    def column(f: int) -> np.ndarray:
        cached = columns.get(f)
        if cached is None:
            cached = columns[f] = disjoint[:, f]
        return cached

    surviving: Set[Tuple[int, ...]] = set()
    for subset in group.feasible:
        separated = column(subset[0])
        for f in subset[1:]:
            separated = separated | column(f)
        if separated.all():
            surviving.add(subset)
    return surviving or None


def l_mgr_reference(
    classifier: Classifier,
    l: int,
    beta: Optional[int] = None,
    order: Optional[Sequence[int]] = None,
    rule_subset: Optional[Sequence[int]] = None,
) -> MGRResult:
    """Rule-at-a-time greedy multi-group assignment (Section 6.2.2).

    Byte-identical results to :func:`l_mgr`; kept as the correctness
    reference (property tests cross-check the vectorized scan against it)
    and as the fallback for schemas outside the packed pipeline's limits.
    """
    _validate(l, beta)
    lows, highs = classifier.bounds_arrays()
    n = lows.shape[0]
    scan = _scan_order(n, order, rule_subset)
    subsets = _candidate_subsets(classifier.num_fields, l)
    k = classifier.num_fields
    open_groups: List[_OpenGroup] = []
    ungrouped: List[int] = []
    for idx in scan:
        lo = lows[idx]
        hi = highs[idx]
        placed = False
        for group in open_groups:
            surviving = _try_place(group, lo, hi)
            if surviving is not None:
                group.feasible = surviving
                group.append(idx, lo, hi)
                placed = True
                break
        if placed:
            continue
        if beta is None or len(open_groups) < beta:
            group = _OpenGroup(set(subsets), k, lows.dtype)
            group.append(idx, lo, hi)
            open_groups.append(group)
        else:
            ungrouped.append(idx)
    widths = classifier.schema.widths
    finished = tuple(
        Group(
            rule_indices=tuple(g.members),
            fields=_narrowest(g.feasible, widths),
        )
        for g in open_groups
    )
    return MGRResult(groups=finished, ungrouped=tuple(ungrouped), l=l)


# ---------------------------------------------------------------------------
# Vectorized chunked implementation
# ---------------------------------------------------------------------------

class _FastGroup:
    """Open group of the vectorized scan: contiguous member bounds plus
    the feasible-subset set packed into one integer bitmask."""

    __slots__ = ("members", "feasible", "lo", "hi", "count")

    def __init__(self, feasible: int, k: int) -> None:
        self.members: List[int] = []
        self.feasible = feasible
        self.lo = np.empty((16, k), dtype=np.int64)
        self.hi = np.empty((16, k), dtype=np.int64)
        self.count = 0

    def append(self, idx: int, lo: np.ndarray, hi: np.ndarray) -> None:
        if self.count == self.lo.shape[0]:
            grown_lo = np.empty(
                (self.count * 2, self.lo.shape[1]), dtype=np.int64
            )
            grown_hi = np.empty_like(grown_lo)
            grown_lo[: self.count] = self.lo[: self.count]
            grown_hi[: self.count] = self.hi[: self.count]
            self.lo, self.hi = grown_lo, grown_hi
        self.lo[self.count] = lo
        self.hi[self.count] = hi
        self.count += 1
        self.members.append(idx)

    def fail_bits(
        self,
        rlo: np.ndarray,
        rhi: np.ndarray,
        subsets: Sequence[Tuple[int, ...]],
    ) -> List[int]:
        """For each candidate row, the bitmask of *currently feasible*
        subsets that would stop being feasible if the candidate joined:
        bit s is set iff some member overlaps the candidate on every field
        of subset s.

        Evaluated directly on the feasible subsets (groups narrow to a few
        subsets quickly, so this beats re-deriving full per-pair masks),
        with per-field overlap matrices shared across subsets.
        """
        glo = self.lo[: self.count]
        ghi = self.hi[: self.count]
        feasible = self.feasible
        overlap: Dict[int, np.ndarray] = {}

        def field_overlap(f: int) -> np.ndarray:
            cached = overlap.get(f)
            if cached is None:
                cached = overlap[f] = (
                    glo[None, :, f] <= rhi[:, None, f]
                ) & (rlo[:, None, f] <= ghi[None, :, f])
            return cached

        out = np.zeros(rlo.shape[0], dtype=np.uint64)
        for s in range(len(subsets)):
            if not (feasible >> s) & 1:
                continue
            subset = subsets[s]
            conflicting = field_overlap(subset[0])
            for f in subset[1:]:
                conflicting = conflicting & field_overlap(f)
            out[conflicting.any(axis=1)] |= np.uint64(1 << s)
        return out.tolist()


def _l_mgr_vectorized(
    classifier: Classifier,
    cols: ColumnarRules,
    scan: Sequence[int],
    l: int,
    beta: Optional[int],
) -> MGRResult:
    lows, highs = cols.lows, cols.highs
    k = cols.num_fields
    subsets = _candidate_subsets(k, l)
    full_mask = (1 << len(subsets)) - 1
    table = subset_fail_table(subsets, k)
    groups: List[_FastGroup] = []
    ungrouped: List[int] = []
    scan_arr = np.asarray(scan, dtype=np.int64)
    for start in range(0, scan_arr.shape[0], _CHUNK):
        chunk = scan_arr[start : start + _CHUNK]
        chunk_list = chunk.tolist()
        clo = lows[chunk]
        chi = highs[chunk]
        # Pairwise in-chunk fail bitmasks (C, C): row i column j is the
        # subset set on which candidates i and j are NOT separable.  Any
        # candidate joining a group turns its column into extra fail bits
        # for every later candidate probing that group.
        pair_disjoint = (chi[:, None, :] < clo[None, :, :]) | (
            chi[None, :, :] < clo[:, None, :]
        )
        fail_cc = table[pack_disjoint_masks(pair_disjoint)]
        pending = list(range(chunk.shape[0]))
        # Phase 1 — waterfall over the groups that existed at chunk
        # start: each group evaluates only the candidates still unplaced,
        # in one batched fail-bits pass, then admits in scan order.
        for group in groups:
            if not pending:
                break
            rows = np.asarray(pending, dtype=np.int64)
            ext = group.fail_bits(clo[rows], chi[rows], subsets)
            acc: Optional[np.ndarray] = None
            rejected: List[int] = []
            for p, row in enumerate(pending):
                fail = ext[p]
                if acc is not None:
                    fail |= int(acc[row])
                surviving = group.feasible & ~fail
                if surviving:
                    group.feasible = surviving
                    group.append(chunk_list[row], clo[row], chi[row])
                    if acc is None:
                        acc = fail_cc[:, row].copy()
                    else:
                        acc |= fail_cc[:, row]
                else:
                    rejected.append(row)
            pending = rejected
        # Phase 2 — leftovers try the groups opened during this chunk (in
        # creation order, all of whose members are in-chunk) and open new
        # groups within the β budget; the rest spill to D.
        fresh: List[Tuple[_FastGroup, np.ndarray]] = []
        for row in pending:
            placed = False
            for group, acc in fresh:
                surviving = group.feasible & ~int(acc[row])
                if surviving:
                    group.feasible = surviving
                    group.append(chunk_list[row], clo[row], chi[row])
                    acc |= fail_cc[:, row]
                    placed = True
                    break
            if placed:
                continue
            if beta is None or len(groups) + len(fresh) < beta:
                group = _FastGroup(full_mask, k)
                group.append(chunk_list[row], clo[row], chi[row])
                fresh.append((group, fail_cc[:, row].copy()))
            else:
                ungrouped.append(chunk_list[row])
        groups.extend(group for group, _ in fresh)
    widths = cols.widths
    finished = tuple(
        Group(
            rule_indices=tuple(g.members),
            fields=_narrowest(
                [subsets[s] for s in range(len(subsets)) if (g.feasible >> s) & 1],
                widths,
            ),
        )
        for g in groups
    )
    return MGRResult(groups=finished, ungrouped=tuple(ungrouped), l=l)


def l_mgr(
    classifier: Classifier,
    l: int,
    beta: Optional[int] = None,
    order: Optional[Sequence[int]] = None,
    rule_subset: Optional[Sequence[int]] = None,
) -> MGRResult:
    """Greedy multi-group assignment (Problem 2; Problem 4 when ``beta`` is
    given).

    Runs the vectorized chunked scan whenever the classifier's columnar
    store allows (int64 bounds, at most :data:`~repro.analysis.columnar.MAX_PACKED_FIELDS`
    fields and :data:`~repro.analysis.columnar.MAX_PACKED_SUBSETS` candidate
    subsets); falls back to :func:`l_mgr_reference` otherwise.  Both paths
    return identical assignments.

    Parameters
    ----------
    l:
        Maximum number of lookup fields per group.
    beta:
        Maximum number of groups; rules that fit no group once the cap is
        hit land in ``ungrouped`` (the D part).  ``None`` means unlimited
        (pure l-MGR: cover *all* rules).
    order:
        Scan order over body-rule indices; defaults to priority order.
    rule_subset:
        Restrict the scan to these body-rule indices (e.g. a k-MRC result,
        as in the right half of Table 3).
    """
    _validate(l, beta)
    cols = ColumnarRules.from_classifier(classifier)
    k = classifier.num_fields
    n = cols.num_rules
    scan = _scan_order(n, order, rule_subset)
    if (
        cols.vectorizable
        and 0 < k <= MAX_PACKED_FIELDS
        and len(_candidate_subsets(k, l)) <= MAX_PACKED_SUBSETS
    ):
        return _l_mgr_vectorized(classifier, cols, scan, l, beta)
    return l_mgr_reference(
        classifier, l, beta=beta, order=order, rule_subset=rule_subset
    )


def beta_l_mrc(
    classifier: Classifier,
    beta: int,
    l: int,
    order: Optional[Sequence[int]] = None,
) -> MGRResult:
    """(β,l)-MRC (Problem 4): maximize rules assigned to at most β groups,
    each order-independent on at most l fields.  Greedy, per Section
    6.2.2."""
    return l_mgr(classifier, l=l, beta=beta, order=order)


def enforce_cache_property(
    classifier: Classifier, result: MGRResult
) -> MGRResult:
    """(β,l)-MRCC (Problem 5): demote rules of I that intersect a
    higher-priority rule of D, so that an I match makes the D lookup
    unnecessary (Section 4.3).

    Demotion is processed in priority order; each demoted rule joins D and
    can trigger further demotions of lower-priority I rules.  The D-side
    bounds live in preallocated columnar arrays appended in place, so a
    pass over N grouped rules costs N vectorized comparisons, not N array
    rebuilds.
    """
    lows, highs = classifier.bounds_arrays()
    n = lows.shape[0]
    k = classifier.num_fields
    d_indices: List[int] = sorted(result.ungrouped)
    count = len(d_indices)
    d_lo = np.empty((n, k), dtype=lows.dtype)
    d_hi = np.empty((n, k), dtype=highs.dtype)
    d_prio = np.empty(n, dtype=np.int64)
    if count:
        taken = np.asarray(d_indices, dtype=np.int64)
        d_lo[:count] = lows[taken]
        d_hi[:count] = highs[taken]
        d_prio[:count] = taken
    demoted: Set[int] = set()
    for idx in sorted(result.grouped_indices()):
        keep = True
        if count:
            higher = d_prio[:count] < idx  # lower index = higher priority
            if higher.any():
                intersect = (
                    (d_lo[:count][higher] <= highs[idx][None, :])
                    & (lows[idx][None, :] <= d_hi[:count][higher])
                ).all(axis=1)
                keep = not bool(intersect.any())
        if not keep:
            demoted.add(idx)
            d_lo[count] = lows[idx]
            d_hi[count] = highs[idx]
            d_prio[count] = idx
            count += 1
    if not demoted:
        return result
    new_groups = []
    for g in result.groups:
        kept = tuple(i for i in g.rule_indices if i not in demoted)
        if kept:
            new_groups.append(Group(kept, g.fields))
    new_ungrouped = tuple(sorted(set(result.ungrouped) | demoted))
    return MGRResult(tuple(new_groups), new_ungrouped, result.l)


def independent_split(
    classifier: Classifier, l: int = 2, beta: Optional[int] = None
) -> MGRResult:
    """The paper's I/D split (Sections 4 and 6.2.2): the greedy maximal
    order-independent subset I on all fields, grouped by
    :func:`l_mgr` into at most ``beta`` groups of at most ``l`` fields;
    every other body rule — outside I or spilled by β — is ``ungrouped``
    (the order-dependent part D), sorted."""
    independent = greedy_independent_set(classifier)
    grouping = l_mgr(
        classifier,
        l=min(l, classifier.num_fields),
        beta=beta,
        rule_subset=independent.rule_indices,
    )
    spill = set(grouping.ungrouped)
    spill.update(independent.complement(len(classifier.body)))
    return MGRResult(grouping.groups, tuple(sorted(spill)), grouping.l)


def iset_partition(
    classifier: Classifier,
    rule_subset: Optional[Sequence[int]] = None,
    beta: Optional[int] = None,
    min_size: int = 1,
) -> MGRResult:
    """Greedy partition into one-field iSets (NuevoMatch, arXiv
    2002.07584): groups whose members are pairwise disjoint on a single
    key field.

    Each round runs the exact EDF interval scheduling of
    :func:`~repro.analysis.mrc.edf_single_field` on every field over the
    rules not yet placed, keeps the largest set (the lowest field on
    ties) as a group keyed on that field, and removes its rules.  The
    scan stops after ``beta`` groups (None = unlimited, 0 = none) or at
    the first set smaller than ``min_size``; every rule left over is
    ``ungrouped``, sorted.

    Unlike an MGR, the groups are not order-independent among each
    other: a lookup that merges groups and the ungrouped rules by lowest
    index stays exact, since a packet's first match is the only member
    of its group containing the packet's key value (Theorem 2).
    """
    if rule_subset is None:
        remaining = np.arange(len(classifier.body), dtype=np.int64)
    else:
        remaining = np.unique(np.asarray(rule_subset, dtype=np.int64))
    groups: List[Group] = []
    fields = range(classifier.num_fields)
    while remaining.size and fields and (beta is None or len(groups) < beta):
        best = max(
            (
                edf_single_field(classifier, f, remaining)
                for f in fields
            ),
            key=lambda result: result.size,
        )
        if best.size < min_size:
            break
        groups.append(Group(best.rule_indices, best.fields))
        remaining = remaining[
            ~np.isin(remaining, np.asarray(best.rule_indices, dtype=np.int64))
        ]
    return MGRResult(tuple(groups), tuple(remaining.tolist()), 1)


@dataclass(frozen=True)
class GroupStatistics:
    """The Table 3 statistics for one MGR run."""

    num_groups: int
    covered_rules: int
    groups_for_95: int
    groups_for_99: int
    groups_le_2: int
    groups_le_5: int


def group_statistics(result: MGRResult) -> GroupStatistics:
    """Compute the Table 3 columns: total groups, groups needed to cover
    95% / 99% of the grouped rules (largest groups first), and the counts
    of small groups (size <= 2 and <= 5)."""
    sizes = sorted((g.size for g in result.groups), reverse=True)
    total = sum(sizes)

    def groups_for(fraction: float) -> int:
        if total == 0:
            return 0
        need = fraction * total
        acc = 0
        for count, size in enumerate(sizes, start=1):
            acc += size
            if acc >= need:
                return count
        return len(sizes)

    return GroupStatistics(
        num_groups=len(sizes),
        covered_rules=total,
        groups_for_95=groups_for(0.95),
        groups_for_99=groups_for(0.99),
        groups_le_2=sum(1 for s in sizes if s <= 2),
        groups_le_5=sum(1 for s in sizes if s <= 5),
    )
