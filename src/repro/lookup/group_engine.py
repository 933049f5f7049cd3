"""Multi-group software engine (Theorem 3).

Executes the lookup procedure of Figures 4-5: every group — order-
independent on at most l of the fields — is probed with the header's values
on *its own* field subset, returns at most one candidate rule, and the
candidate is checked on all remaining fields to rule out a false positive
(Theorem 2).  The highest-priority surviving candidate wins; the catch-all
backstops everything.

Each group is served by one :class:`GroupIndex`: binary search on a
field where the members are pairwise disjoint, the segment-tree
two-field index, or a vectorized linear scan.  The serving engine
(:class:`~repro.saxpac.engine.SaxPacEngine`) hands over prebuilt
interval indexes, one per one-field iSet; given plain groups, the
engine builds them through :func:`repro.lookup.backends.build_group_index`,
the paper's lookup-backend ablation.  Every structure is
decision-identical; only the time/memory profile differs.
"""

from __future__ import annotations

import copy
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ..analysis.mgr import Group
from ..core.classifier import Classifier, MatchResult
from ..runtime.telemetry import NULL_RECORDER
from .two_field import TwoFieldIndex

__all__ = ["GroupIndex", "LinearGroupIndex", "MultiGroupEngine"]


class GroupIndex:
    """Interface: probe a group with a header, get at most one candidate
    body-rule index (pre false-positive check).

    The lookup structures store **slots** (positions within the group's
    member list); the per-index ``rule_ids`` array translates a slot to
    its classifier rule index.  That indirection is what makes incremental
    rebuilds cheap: a priority shift re-labels rules with a new
    ``rule_ids`` array via :meth:`reindexed` (sharing the interval maps /
    segment trees untouched), and a removal tombstones its slot with -1
    without rebuilding the structure — sound because group members are
    pairwise disjoint on the group fields, so a dead slot's region has no
    other candidate in this group.
    """

    fields: Tuple[int, ...]
    #: slot -> classifier rule index; -1 marks a tombstoned (removed) slot.
    rule_ids: np.ndarray
    #: Which structure this is (``interval``, ``segment`` or ``linear``).
    backend: str
    #: True when :func:`~repro.lookup.backends.build_group_index` was
    #: asked for a structure that cannot serve this group and built the
    #: group's structural default instead.
    backend_fallback: bool = False
    #: Wall-clock seconds spent constructing this index (stamped by
    #: :func:`~repro.lookup.backends.build_group_index`).
    build_seconds: float = 0.0

    def probe(self, header: Sequence[int]) -> Optional[int]:
        """Candidate rule index matching on the group fields, or None."""
        raise NotImplementedError

    def probe_batch(self, harr: np.ndarray) -> np.ndarray:
        """Candidates for a whole batch: int64 array aligned with the
        rows of ``harr`` (the :func:`~repro.core.packet.headers_array`
        form of the headers), -1 where the group yields no candidate;
        subclasses with vectorizable structures override this."""
        out = np.full(len(harr), -1, dtype=np.int64)
        probe = self.probe
        for j, header in enumerate(harr.tolist()):
            candidate = probe(header)
            if candidate is not None:
                out[j] = candidate
        return out

    def reindexed(self, rule_ids: Sequence[int]) -> "GroupIndex":
        """Shallow copy sharing the lookup structure, with slots relabeled
        by ``rule_ids`` (length = slot count; -1 tombstones a slot)."""
        clone = copy.copy(self)
        clone.rule_ids = np.asarray(rule_ids, dtype=np.int64)
        if clone.rule_ids.shape != self.rule_ids.shape:
            raise ValueError(
                f"rule_ids must cover all {self.rule_ids.shape[0]} slots"
            )
        return clone

    def __len__(self) -> int:
        """Live (non-tombstoned) rules in the group."""
        return int((self.rule_ids >= 0).sum())

    def memory_items(self) -> int:
        """Stored scalars: the memory footprint of the index."""
        return int(self.rule_ids.size)

    def _translate(self, slot: Optional[int]) -> Optional[int]:
        if slot is None:
            return None
        rid = int(self.rule_ids[slot])
        return rid if rid >= 0 else None


class _IntervalGroupIndex(GroupIndex):
    """Binary search on a key field where the members are pairwise
    disjoint (Theorem 2, Fields Reduction): the search finds the only
    member that can contain the header's key value, and a check on all
    group fields makes the candidate a match on the group fields.
    Tombstones need no rebuild, since no other member contains a dead
    slot's key values."""

    backend = "interval"

    #: Below this batch size the per-header bisect beats numpy's
    #: per-call overhead (the crossover measured at ~12 headers).
    VECTOR_MIN_BATCH = 12

    def __init__(
        self, classifier: Classifier, group: Group, key_field: int
    ) -> None:
        self.fields = group.fields
        self.rule_ids = np.asarray(group.rule_indices, dtype=np.int64)
        self._key = key_field
        lows, highs = classifier.bounds_arrays()
        order = np.argsort(lows[self.rule_ids, key_field], kind="stable")
        ranked = self.rule_ids[order]
        # Row 0 is a sentinel (low -1, high -2 on every field) that sorts
        # first and contains no header value, so every search lands on a
        # row and needs no bounds check.  One 1-D array per field, since
        # numpy gathers 1-D arrays far faster than rows of a 2-D one.
        sentinel = np.full(1, -1, dtype=lows.dtype)
        #: (field, lows, highs) per group field, rows in key order.
        self._columns = [
            (
                f,
                np.concatenate((sentinel, lows[ranked, f])),
                np.concatenate((sentinel - 1, highs[ranked, f])),
            )
            for f in group.fields
        ]
        self._key_lo = self._columns[group.fields.index(key_field)][1]
        #: row -> slot; the sentinel's slot is always masked out.
        self._slots = np.concatenate(([0], order)).astype(np.int64)
        # Python copies for the per-header path.
        self._key_lo_list = self._key_lo.tolist()
        self._rows = list(zip(
            zip(*(lo.tolist() for _, lo, _ in self._columns)),
            zip(*(hi.tolist() for _, _, hi in self._columns)),
        ))

    def probe(self, header: Sequence[int]) -> Optional[int]:
        row = bisect_right(self._key_lo_list, header[self._key]) - 1
        lo, hi = self._rows[row]
        for f, low, high in zip(self.fields, lo, hi):
            if not low <= header[f] <= high:
                return None
        return self._translate(int(self._slots[row]))

    def extended(
        self, classifier: Classifier, added: Sequence[int]
    ) -> GroupIndex:
        """Copy-on-write row insert: each added rule gets a new slot
        past the existing ones and a row at its search position in the
        key-sorted columns.  Tombstoned rows are dropped first, since an
        added rule may overlap a removed member's key range and the
        search must not land on the dead row.  The arrays and lists of
        ``self`` are copied, not changed, so a serving engine holding
        ``self`` is unaffected."""
        live = self.rule_ids[self._slots] >= 0
        live[0] = True  # the sentinel row
        key_lo = self._key_lo[live]
        lows, highs = classifier.bounds_arrays()
        new = np.asarray(added, dtype=np.int64)
        new = new[np.argsort(lows[new, self._key], kind="stable")]
        at = np.searchsorted(key_lo, lows[new, self._key], side="right")
        clone = copy.copy(self)
        start = self.rule_ids.size
        clone.rule_ids = np.concatenate((self.rule_ids, new))
        clone._columns = [
            (
                f,
                np.insert(lo[live], at, lows[new, f]),
                np.insert(hi[live], at, highs[new, f]),
            )
            for f, lo, hi in self._columns
        ]
        clone._key_lo = clone._columns[self.fields.index(self._key)][1]
        clone._slots = np.insert(
            self._slots[live], at, np.arange(start, start + new.size)
        )
        clone._key_lo_list = clone._key_lo.tolist()
        fields = list(self.fields)
        rows = list(zip(
            map(tuple, lows[new][:, fields].tolist()),
            map(tuple, highs[new][:, fields].tolist()),
        ))
        clone._rows = [row for row, keep in zip(self._rows, live) if keep]
        # Last first, so earlier positions stay valid and rules sharing
        # one position keep their key order.
        for position, row in zip(at.tolist()[::-1], rows[::-1]):
            clone._rows.insert(position, row)
        return clone

    def memory_items(self) -> int:
        bounds = sum(lo.size + hi.size for _, lo, hi in self._columns)
        return int(bounds + self._slots.size + self.rule_ids.size)

    def probe_batch(self, harr: np.ndarray) -> np.ndarray:
        """One ``searchsorted`` for the whole batch, then a vectorized
        containment test per group field.  Small batches, and empty
        groups (whose sentinel row has no slot), take :meth:`probe`."""
        if len(harr) < self.VECTOR_MIN_BATCH or not self.rule_ids.size:
            return super().probe_batch(harr)
        row = np.searchsorted(self._key_lo, harr[:, self._key], side="right")
        row -= 1
        inside = np.ones(len(row), dtype=bool)
        for f, lo, hi in self._columns:
            values = harr[:, f]
            inside &= (lo[row] <= values) & (values <= hi[row])
        result = self.rule_ids[self._slots[row]]
        return np.where(inside & (result >= 0), result, np.int64(-1))


class _TwoFieldGroupIndex(GroupIndex):
    backend = "segment"

    def __init__(self, classifier: Classifier, group: Group) -> None:
        self.fields = group.fields
        self.rule_ids = np.asarray(group.rule_indices, dtype=np.int64)
        a, b = group.fields
        self._a = a
        self._b = b
        self._index = TwoFieldIndex(
            (
                classifier.rules[idx].intervals[a],
                classifier.rules[idx].intervals[b],
                slot,
            )
            for slot, idx in enumerate(group.rule_indices)
        )

    def probe(self, header: Sequence[int]) -> Optional[int]:
        return self._translate(self._index.lookup(header[self._a], header[self._b]))

    def memory_items(self) -> int:
        slots = self._index.memory_slots
        return int(slots) + int(self.rule_ids.size)

    def probe_batch(self, harr: np.ndarray) -> np.ndarray:
        """Per-header tree walks with the dispatch hoisted out of the
        loop (the segment-tree path itself is not batch-vectorizable)."""
        out = np.full(len(harr), -1, dtype=np.int64)
        lookup = self._index.lookup
        rule_ids = self.rule_ids
        a, b = self._a, self._b
        for j, (va, vb) in enumerate(
            zip(harr[:, a].tolist(), harr[:, b].tolist())
        ):
            slot = lookup(va, vb)
            if slot is not None:
                out[j] = rule_ids[slot]
        return out


class LinearGroupIndex(GroupIndex):
    """Fallback for groups keyed on more than two fields: scan members,
    matching only the group fields.  Order-independence on those fields
    still guarantees at most one hit."""

    backend = "linear"

    def __init__(self, classifier: Classifier, group: Group) -> None:
        self.fields = group.fields
        self.rule_ids = np.asarray(group.rule_indices, dtype=np.int64)
        # (members, group fields) bounds, dtype-matched to
        # :func:`headers_array` (Python objects for fields over 62 bits,
        # so values near 2**64 are compared exactly).
        lows, highs = classifier.bounds_arrays()
        fields = list(group.fields)
        self._lo = lows[self.rule_ids][:, fields]
        self._hi = highs[self.rule_ids][:, fields]

    def memory_items(self) -> int:
        return int(self._lo.size + self._hi.size + self.rule_ids.size)

    def probe(self, header: Sequence[int]) -> Optional[int]:
        """Linear scan over members, matching only the group fields."""
        values = np.asarray(
            [[header[f] for f in self.fields]], dtype=self._lo.dtype
        )
        rid = int(self._scan(values)[0])
        return rid if rid >= 0 else None

    def probe_batch(self, harr: np.ndarray) -> np.ndarray:
        return self._scan(harr[:, list(self.fields)])

    def _scan(self, values: np.ndarray) -> np.ndarray:
        """Vectorized scan: one containment test over the (B, M, f) cube.
        Order-independence on the group fields means at most one member
        matches, so 'first match' needs no tie-breaking."""
        if not self.rule_ids.size:
            return np.full(len(values), -1, dtype=np.int64)
        cube = values[:, None, :]
        ok = (
            (self._lo[None, :, :] <= cube) & (cube <= self._hi[None, :, :])
        ).all(axis=2)
        hit = ok.any(axis=1)
        result = self.rule_ids[ok.argmax(axis=1)]
        return np.where(hit & (result >= 0), result, np.int64(-1))


@dataclass
class EngineStats:
    """Operational counters for experiments."""

    lookups: int = 0
    probes: int = 0
    candidates: int = 0
    false_positives: int = 0


class MultiGroupEngine:
    """The software half of SAX-PAC: parallel (simulated) group lookups,
    false-positive verification, priority merge.

    Matches only rules placed in its groups; returns None for headers whose
    best match lives elsewhere (the order-dependent part D or the
    catch-all) so that a hybrid wrapper can merge results.
    """

    def __init__(
        self,
        classifier: Classifier,
        groups: Iterable[Group],
        recorder=None,
        prebuilt: Optional[Sequence[GroupIndex]] = None,
        backend: str = "auto",
    ) -> None:
        self.classifier = classifier
        if prebuilt is not None:
            # The serving engine hands over its indexes (fresh, or
            # reindexed / tombstoned by a rebuild); ``groups`` is ignored.
            self.groups = list(prebuilt)
        else:
            # Imported here: the backends module imports this one.
            from .backends import build_group_index

            self.groups = [
                build_group_index(classifier, g, backend) for g in groups
            ]
        self.stats = EngineStats()
        #: Telemetry sink (``groups.*`` counters, ``engine.group_probe``
        #: spans, per-group heat); the null recorder keeps it free.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: Stable per-group heat keys: position + field subset.
        self._group_keys = [
            f"g{i}[{','.join(str(f) for f in g.fields)}]"
            for i, g in enumerate(self.groups)
        ]

    @property
    def num_rules(self) -> int:
        """Total rules held across all group indexes."""
        return sum(len(g) for g in self.groups)

    def lookup(self, header: Sequence[int]) -> Optional[int]:
        """Best (lowest) matching body-rule index across all groups, after
        false-positive checks, or None if no group rule truly matches."""
        self.stats.lookups += 1
        rules = self.classifier.rules
        best: Optional[int] = None
        for group in self.groups:
            self.stats.probes += 1
            candidate = group.probe(header)
            if candidate is None:
                continue
            self.stats.candidates += 1
            if rules[candidate].matches(header):
                if best is None or candidate < best:
                    best = candidate
            else:
                self.stats.false_positives += 1
        return best

    def lookup_batch(self, harr: np.ndarray) -> np.ndarray:
        """Batched :meth:`lookup` over the rows of ``harr`` (the
        :func:`~repro.core.packet.headers_array` form of the headers):
        best verified body-rule index per header (int64, -1 where no
        group rule matches).

        Probes each group index once for the whole batch, then verifies
        every candidate on all fields in one vectorized containment test
        against :meth:`Classifier.bounds_arrays`.  Stats are updated in
        aggregate; results are identical to per-header :meth:`lookup`.
        """
        n = len(harr)
        stats = self.stats
        stats.lookups += n
        if n == 0:
            return np.empty(0, dtype=np.int64)
        recorder = self.recorder
        instrumented = recorder.enabled
        heat = recorder.heat if instrumented else None
        lows, highs = self.classifier.bounds_arrays()
        best = np.full(n, -1, dtype=np.int64)
        for gi, group in enumerate(self.groups):
            stats.probes += n
            span = (
                recorder.span(
                    "engine.group_probe", group=self._group_keys[gi],
                    batch=n,
                )
                if instrumented
                else None
            )
            if span is not None:
                span.__enter__()
            cand = group.probe_batch(harr)
            has = np.nonzero(cand >= 0)[0]
            candidates = fp_failures = verified_hits = 0
            if has.size:
                candidates = int(has.size)
                stats.candidates += candidates
                c = cand[has]
                h = harr[has]
                verified = ((lows[c] <= h) & (h <= highs[c])).all(axis=1)
                verified_hits = int(verified.sum())
                fp_failures = candidates - verified_hits
                stats.false_positives += fp_failures
                rows = has[verified]
                winners = c[verified]
                current = best[rows]
                better = (current < 0) | (winners < current)
                best[rows[better]] = winners[better]
            if span is not None:
                span.__exit__(None, None, None)
            if instrumented:
                recorder.incr("groups.probes", n)
                if candidates:
                    recorder.incr("groups.fp_checks", candidates)
                if fp_failures:
                    recorder.incr("groups.fp_failures", fp_failures)
                if heat is not None:
                    heat.record_group(
                        self._group_keys[gi],
                        probes=n,
                        candidates=candidates,
                        fp_failures=fp_failures,
                        hits=verified_hits,
                    )
        return best

    def match(self, header: Sequence[int]) -> MatchResult:
        """Standalone semantics: group rules else the catch-all.  Only
        semantically complete when the engine holds *all* body rules (a
        fully order-independent classifier)."""
        index = self.lookup(header)
        if index is None:
            index = len(self.classifier.rules) - 1
        return MatchResult(index, self.classifier.rules[index])
