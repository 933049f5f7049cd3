"""A functional TCAM simulator.

Models the de-facto-standard classification engine the paper compares
against and uses for the order-dependent part D of the hybrid scheme:
entries are searched in priority (programming) order and the first match
wins, in one "cycle".  The simulator tracks entry counts and lookup counts
so experiments can report space and (simulated) power proxies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.classifier import Classifier
from ..core.rule import Rule
from .encoding import BinaryRangeEncoder, RangeEncoder, expand_rule
from .entry import TernaryEntry

__all__ = ["TcamEntryRecord", "Tcam", "build_tcam"]


@dataclass(frozen=True)
class TcamEntryRecord:
    """One programmed row: the ternary word plus the rule it came from."""

    entry: TernaryEntry
    rule_index: int
    rule: Rule


class Tcam:
    """Priority-ordered ternary memory over a fixed word width.

    ``capacity`` (optional) models a part with a bounded number of rows;
    programming past it raises, which the dynamic-update logic of
    Section 7.2 uses to trigger recomputation / rejection.
    """

    def __init__(self, width: int, capacity: Optional[int] = None) -> None:
        if width <= 0:
            raise ValueError("TCAM width must be positive")
        self.width = width
        self.capacity = capacity
        self._rows: List[TcamEntryRecord] = []
        self.lookups = 0
        #: Power proxy: a real TCAM activates every row on every lookup,
        #: so accumulated activations ~ energy (Section 4.3's motivation
        #: for the MRCC cache).
        self.row_activations = 0

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> Tuple[TcamEntryRecord, ...]:
        """The programmed rows, highest priority first."""
        return tuple(self._rows)

    def is_full(self) -> bool:
        """True when the capacity (if any) is exhausted."""
        return self.capacity is not None and len(self._rows) >= self.capacity

    def program(self, entry: TernaryEntry, rule_index: int, rule: Rule) -> None:
        """Append one row at the lowest priority."""
        if entry.width != self.width:
            raise ValueError(
                f"entry width {entry.width} != TCAM width {self.width}"
            )
        if self.is_full():
            raise MemoryError(
                f"TCAM capacity {self.capacity} exhausted"
            )
        self._rows.append(TcamEntryRecord(entry, rule_index, rule))

    def remove_rule(self, rule_index: int) -> int:
        """Remove every row programmed for ``rule_index``; returns how many
        rows were freed."""
        before = len(self._rows)
        self._rows = [r for r in self._rows if r.rule_index != rule_index]
        return before - len(self._rows)

    def clear(self) -> None:
        """Remove every programmed row."""
        self._rows.clear()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, key: int) -> Optional[TcamEntryRecord]:
        """First (highest-priority) row matching ``key``, or None."""
        self.lookups += 1
        self.row_activations += len(self._rows)
        for record in self._rows:
            if record.entry.matches(key):
                return record
        return None


def _header_key(
    header: Sequence[int],
    widths: Sequence[int],
    encoder: RangeEncoder,
    fields: Sequence[int],
) -> int:
    """Concatenate the (encoder-transformed) selected header fields into a
    single lookup key, mirroring :func:`concat_entries` ordering."""
    key = 0
    for i in fields:
        key = (key << widths[i]) | encoder.encode_value(header[i], widths[i])
    return key


def build_tcam(
    classifier: Classifier,
    encoder: Optional[RangeEncoder] = None,
    fields: Optional[Sequence[int]] = None,
    rule_indices: Optional[Sequence[int]] = None,
    capacity: Optional[int] = None,
    include_catch_all: bool = False,
) -> Tuple[Tcam, "TcamClassifier"]:
    """Expand (a subset of) a classifier into a programmed TCAM.

    Returns the raw :class:`Tcam` and a :class:`TcamClassifier` wrapper that
    performs key construction for headers.  ``fields`` selects the lookup
    fields (Theorem 2 reduced width); ``rule_indices`` selects body rules
    (e.g. only the order-dependent part D).
    """
    encoder = encoder or BinaryRangeEncoder()
    field_list = list(fields) if fields is not None else list(range(classifier.num_fields))
    widths = classifier.schema.widths
    width = sum(widths[i] for i in field_list)
    tcam = Tcam(width, capacity)
    indices = (
        list(rule_indices)
        if rule_indices is not None
        else list(range(len(classifier.body)))
    )
    if include_catch_all:
        indices.append(len(classifier.rules) - 1)
    for idx in sorted(indices):
        rule = classifier.rules[idx]
        for entry in expand_rule(rule, classifier.schema, encoder, field_list):
            tcam.program(entry, idx, rule)
    return tcam, TcamClassifier(tcam, classifier, encoder, field_list)


class TcamClassifier:
    """Header-level facade over a programmed :class:`Tcam`."""

    def __init__(
        self,
        tcam: Tcam,
        classifier: Classifier,
        encoder: RangeEncoder,
        fields: Sequence[int],
    ) -> None:
        self.tcam = tcam
        self.classifier = classifier
        self.encoder = encoder
        self.fields = list(fields)
        self._widths = classifier.schema.widths

    def lookup(self, header: Sequence[int]) -> Optional[TcamEntryRecord]:
        """First matching row for a header (key encoding applied)."""
        key = _header_key(header, self._widths, self.encoder, self.fields)
        return self.tcam.lookup(key)

    def match_index(self, header: Sequence[int]) -> Optional[int]:
        """Body-rule index of the first TCAM match, or None."""
        record = self.lookup(header)
        return record.rule_index if record is not None else None
