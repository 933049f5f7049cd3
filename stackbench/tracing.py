"""Span recording around the public entry points of each layer.

The benchmark does not rely on instrumentation inside the program: the
server launcher wraps the layer methods listed in :data:`LAYER_METHODS`
at class level, records one span per call (name, start, end, parent,
root, batch size, and the calling thread's CPU time) in memory, and
writes the spans out when it exits.  Self time is a span's duration
minus the part of it that its children cover (:func:`self_times`).
Wall time includes the waits of a thread for the GIL while another
thread of the server runs; thread CPU time does not, so
:func:`self_cpu` gives what each layer itself costs.

Wrapping is reversible (:meth:`SpanRecorder.uninstall`), so one server
process can serve an untraced window and a traced window back to back
and the difference between the two is the tracing overhead.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: (module, class, method) triples wrapped by the traced run.  Every
#: subclass of a listed class that defines the method itself is wrapped
#: too (the lookup backends subclass ``GroupIndex``).
LAYER_METHODS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.runtime.service", "RuntimeService", "match_indices"),
    ("repro.runtime.service", "RuntimeService", "insert"),
    ("repro.runtime.service", "RuntimeService", "remove"),
    ("repro.saxpac.engine", "SaxPacEngine", "match_batch_indices"),
    ("repro.saxpac.engine", "SaxPacEngine", "rebuild"),
    ("repro.saxpac.updates", "DynamicSaxPac", "insert"),
    ("repro.saxpac.updates", "DynamicSaxPac", "remove"),
    ("repro.lookup.group_engine", "MultiGroupEngine", "lookup_batch"),
    ("repro.lookup.group_engine", "GroupIndex", "probe_batch"),
)

#: Methods whose first argument is a packet block; their spans record
#: the block's length so costs can be reported per packet.
_BATCHED = {"match_indices", "match_batch_indices", "lookup_batch",
            "probe_batch"}

#: Column layout of :meth:`SpanRecorder.arrays`.
COLUMNS = ("sid", "name", "start", "end", "parent", "root", "n", "cpu")


class SpanRecorder:
    """In-memory span store fed by class-level method wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._rows: List[tuple] = []
        self._local = threading.local()
        # next() on itertools.count is atomic under the GIL, so span ids
        # stay unique across the event-loop, executor and update threads.
        self._sids = itertools.count()
        self._originals: List[Tuple[type, str, object]] = []

    # -- recording -----------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, func, name: str):
        name_id = self._name_id(name)
        batched = func.__name__ in _BATCHED
        local = self._local
        rows = self._rows
        clock = time.perf_counter
        thread_cpu = time.thread_time
        sids = self._sids

        @functools.wraps(func)
        def traced(obj, *args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(sids)
            parent, root = stack[-1] if stack else (-1, sid)
            stack.append((sid, root))
            n = len(args[0]) if batched and args else 0
            cpu0 = thread_cpu()
            start = clock()
            try:
                return func(obj, *args, **kwargs)
            finally:
                end = clock()
                cpu = thread_cpu() - cpu0
                stack.pop()
                rows.append(
                    (sid, name_id, start, end, parent, root, n, cpu)
                )

        return traced

    def install(self, classes: Iterable[Tuple[type, str]]) -> None:
        """Wrap ``cls.method`` for every ``(cls, method)`` pair."""
        for cls, method in classes:
            original = cls.__dict__[method]
            self._originals.append((cls, method, original))
            setattr(
                cls, method,
                self._wrap(original, f"{cls.__name__}.{method}"),
            )

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        while self._originals:
            cls, method, original = self._originals.pop()
            setattr(cls, method, original)

    # -- export --------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as parallel columns (see :data:`COLUMNS`)."""
        rows = list(self._rows)
        table = np.array(rows, dtype=np.float64).reshape(-1, len(COLUMNS))
        return {col: table[:, i] for i, col in enumerate(COLUMNS)}

    def save(self, path: str) -> None:
        """Write the spans and the name table as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def layer_classes() -> List[Tuple[type, str]]:
    """Resolve :data:`LAYER_METHODS` to ``(class, method)`` pairs,
    including subclasses that define the method themselves."""
    import importlib

    # The learned backend subclasses GroupIndex; import it so its class
    # exists even before any group picks it.
    importlib.import_module("repro.lookup.backends")
    pairs: List[Tuple[type, str]] = []
    for module, name, method in LAYER_METHODS:
        base = getattr(importlib.import_module(module), name)
        todo = [base]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if method in cls.__dict__:
                pairs.append((cls, method))
    return pairs


def load_spans(path: str) -> Tuple[List[str], Dict[str, np.ndarray]]:
    """Inverse of :meth:`SpanRecorder.save`."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        cols = {col: data[col] for col in COLUMNS}
    return names, cols


def self_times(
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
    sids: Sequence[int],
) -> np.ndarray:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span."""
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    out = ends - starts
    row_of = {int(s): i for i, s in enumerate(sids)}
    children: Dict[int, List[int]] = {}
    for i, parent in enumerate(parents):
        parent = int(parent)
        if parent >= 0 and parent in row_of:
            children.setdefault(row_of[parent], []).append(i)
    for row, kids in children.items():
        lo, hi = starts[row], ends[row]
        spans = sorted(
            (max(lo, starts[k]), min(hi, ends[k])) for k in kids
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in spans:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[row] -= covered
    return out


def self_cpu(
    cpu: Sequence[float], parents: Sequence[int], sids: Sequence[int]
) -> np.ndarray:
    """Thread CPU self time of every span: its CPU time minus that of
    its children.  A child runs on its parent's thread, inside it, so
    the children's CPU times never overlap."""
    out = np.asarray(cpu, dtype=np.float64).copy()
    row_of = {int(s): i for i, s in enumerate(sids)}
    for i, parent in enumerate(parents):
        row = row_of.get(int(parent))
        if row is not None:
            out[row] -= cpu[i]
    return out
