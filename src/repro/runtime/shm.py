"""Shared-memory sharding: persistent workers over shared numpy rings.

A pickling process pool pays the full IPC tax on every chunk: the
packet list is pickled into the pool, the engine answers are pickled
back, and each respawn re-pickles the whole classifier.  This module
avoids all of it, following the write-once/read-in-place design that
NuevoMatch (arXiv 2002.07584) uses for its parallel independent sets and
the update/data-path split RVH (arXiv 1909.07159) argues for:

* one ``multiprocessing.shared_memory`` segment holds a **slot ring**:
  preallocated uint32 packet slabs, uint32 result slabs and an int64
  control block per slot;
* the dispatcher writes a header block *once* into a slot and bumps the
  slot's submit sequence counter; the owning worker classifies **in
  place** through a ``np.frombuffer`` view and writes bare rule indices
  into the slot's result slab; completion is the done sequence counter
  catching up — no pickled return values anywhere on the hot path;
* engine snapshots ship **once per hot swap** through a per-worker
  control pipe, packed by :func:`pack_snapshot` into the columnar
  ``(N, k)`` bounds form (the PR-3 rule store layout) instead of 10k
  pickled ``Rule`` objects; slots are generation-stamped so chunks
  submitted against the old snapshot are still answered by the old
  engine;
* trace context crosses the boundary as two bare int64 control words
  (:class:`~repro.obs.tracing.SpanContext` is two ints), and telemetry
  deltas ride a status queue only when observability is enabled.

**Slot lifecycle.**  A slot belongs to exactly one worker (static
ownership: worker ``w`` owns ``depth`` consecutive slots).  The
dispatcher claims a free slot (``seq_done >= seq_submit``), fills
``packets[slot, :count]``, stamps count/generation/trace words, then
publishes with ``seq_submit = seq_done + 1``.  The worker answers by
filling ``results[slot, :count]``, setting the status word and
publishing ``seq_done = seq_submit``.  Sequence counters only grow, so
slot reuse (ring wraparound) needs no cleanup.  Both sides poll with a
short spin-then-sleep; the counters are aligned 8-byte words, and each
side writes its payload strictly before the sequence store that
publishes it.

**Failure semantics.**  A worker that dies (chaos ``shard.worker`` crash
specs call ``os._exit``, like a real segfault) is detected by the
dispatcher's wait loop; its in-flight slots are *reclaimed* (status ←
``RECLAIMED``, ``seq_done`` forced up) so they surface as retryable
errors, and a fresh worker is spawned on the same slot region with the
current snapshot.  Worker-side exceptions mark the slot ``ERROR`` and
ship the traceback on the status queue — never a broken pool.  The
deadline/retry/health ladder stays where it always lived, in
:class:`~repro.runtime.shard.ShardedRuntime`.
"""

from __future__ import annotations

import os
import time
import traceback
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.actions import Action, ActionKind
from ..core.classifier import Classifier
from ..core.fields import FieldKind, FieldSchema, FieldSpec
from ..core.intervals import Interval
from ..core.rule import Rule

__all__ = [
    "ShmRing",
    "ShmWorkerPool",
    "pack_snapshot",
    "unpack_snapshot",
]

# Control words per slot (int64 each).  DELTA_FLAG marks slots whose
# worker enqueued a telemetry delta on the status queue before
# publishing SEQ_DONE, so the dispatcher knows to wait for it (the
# queue's feeder thread can lag the shared-memory store).
SLOT_WORDS = 8
SEQ_SUBMIT, SEQ_DONE, COUNT, GEN, STATUS, TRACE_ID, SPAN_ID, DELTA_FLAG = (
    range(SLOT_WORDS)
)

STATUS_OK = 0
STATUS_ERROR = 1
STATUS_RECLAIMED = 2

#: Exit code of a worker killed by an injected ``shard.worker`` crash
#: (distinguishable in logs from real faults, which exit negative).
CRASH_EXIT_CODE = 17

SNAPSHOT_VERSION = 1


# ---------------------------------------------------------------------------
# Columnar snapshot packing
# ---------------------------------------------------------------------------

def pack_snapshot(classifier: Classifier, config) -> Dict[str, object]:
    """Pack a classifier + engine config for shipping to workers.

    Rules travel as two contiguous ``(N, k)`` int64 bound matrices (the
    columnar store layout — the body rows come straight from the cached
    :meth:`~repro.core.classifier.Classifier.bounds_arrays`) plus flat
    action/name columns, instead of ``N`` pickled :class:`Rule` object
    graphs.  For the 10k-rule acl workload this is ~1 MB of array bytes
    versus tens of MB of pickle, and unpacking is array reshapes plus one
    flat pass of ``Rule`` construction.
    """
    lows, highs = classifier.bounds_arrays()
    if lows.dtype == object:
        raise ValueError(
            "shm snapshots need int64-packable bounds; a field wider "
            "than 62 bits cannot ride the columnar form"
        )
    catch = classifier.catch_all
    tail_lo = np.array([[iv.low for iv in catch.intervals]], dtype=np.int64)
    tail_hi = np.array([[iv.high for iv in catch.intervals]], dtype=np.int64)
    all_lo = np.concatenate([np.asarray(lows, dtype=np.int64), tail_lo])
    all_hi = np.concatenate([np.asarray(highs, dtype=np.int64), tail_hi])
    rules = classifier.rules
    return {
        "version": SNAPSHOT_VERSION,
        "n": len(rules),
        "k": classifier.num_fields,
        "schema": [
            (spec.name, spec.width, spec.kind.value)
            for spec in classifier.schema
        ],
        "lows": np.ascontiguousarray(all_lo).tobytes(),
        "highs": np.ascontiguousarray(all_hi).tobytes(),
        "actions": [
            (rule.action.kind.value, rule.action.payload) for rule in rules
        ],
        "names": {
            i: rule.name
            for i, rule in enumerate(rules)
            if rule.name is not None
        },
        "config": config,
    }


def unpack_snapshot(payload: Dict[str, object]) -> Tuple[Classifier, object]:
    """Inverse of :func:`pack_snapshot`: rebuild ``(classifier, config)``.

    The reconstructed classifier is decision-identical to the packed one
    (same bounds, same order, same catch-all); ``Rule`` object identity
    is *not* preserved — irrelevant on the worker side, which only ever
    reports rule indices back.
    """
    if payload.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported shm snapshot version {payload.get('version')!r}"
        )
    n = payload["n"]
    k = payload["k"]
    lows = np.frombuffer(payload["lows"], dtype=np.int64).reshape(n, k)
    highs = np.frombuffer(payload["highs"], dtype=np.int64).reshape(n, k)
    schema = FieldSchema(
        tuple(
            FieldSpec(name, width, FieldKind(kind))
            for name, width, kind in payload["schema"]
        )
    )
    names = payload["names"]
    actions = payload["actions"]
    rules: List[Rule] = []
    for i in range(n):
        kind, action_payload = actions[i]
        rules.append(
            Rule(
                tuple(
                    Interval(int(lows[i, j]), int(highs[i, j]))
                    for j in range(k)
                ),
                Action(ActionKind(kind), action_payload),
                names.get(i),
            )
        )
    return Classifier(schema, rules, ensure_catch_all=False), payload["config"]


# ---------------------------------------------------------------------------
# The shared ring
# ---------------------------------------------------------------------------

class ShmRing:
    """Numpy views over one shared-memory segment.

    Layout (all offsets 8-byte aligned):

    ========================  =======================================
    ``ctrl``                  int64 ``(num_slots, 8)`` control words
    ``worker_state``          int64 ``(num_workers,)`` ready flags
    ``results``               uint32 ``(num_slots, capacity)``
    ``packets``               uint32 ``(num_slots, capacity, k)``
    ========================  =======================================
    """

    def __init__(
        self,
        num_workers: int,
        depth: int,
        capacity: int,
        k: int,
        name: Optional[str] = None,
        create: bool = True,
    ) -> None:
        self.num_workers = num_workers
        self.depth = depth
        self.capacity = capacity
        self.k = k
        self.num_slots = num_workers * depth
        ctrl_bytes = self.num_slots * SLOT_WORDS * 8
        state_bytes = num_workers * 8
        result_bytes = self.num_slots * capacity * 4
        packet_bytes = self.num_slots * capacity * k * 4
        total = ctrl_bytes + state_bytes + result_bytes + packet_bytes
        # Pad the uint32 region so every section stays 8-byte aligned.
        total += (-total) % 8
        if create:
            self.shm = SharedMemory(create=True, size=total, name=name)
        else:
            # Attaching also registers with the shared resource tracker;
            # that is idempotent (the tracker cache is a set) and the
            # creating side's unlink() unregisters once for everyone.
            self.shm = SharedMemory(name=name)
        buf = self.shm.buf
        off = 0
        self.ctrl = np.frombuffer(
            buf, dtype=np.int64, count=self.num_slots * SLOT_WORDS, offset=off
        ).reshape(self.num_slots, SLOT_WORDS)
        off += ctrl_bytes
        self.worker_state = np.frombuffer(
            buf, dtype=np.int64, count=num_workers, offset=off
        )
        off += state_bytes
        self.results = np.frombuffer(
            buf, dtype=np.uint32, count=self.num_slots * capacity, offset=off
        ).reshape(self.num_slots, capacity)
        off += result_bytes
        self.packets = np.frombuffer(
            buf, dtype=np.uint32,
            count=self.num_slots * capacity * k, offset=off,
        ).reshape(self.num_slots, capacity, k)
        if create:
            self.ctrl[:] = 0
            self.worker_state[:] = 0

    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self.shm.name

    def slots_of(self, worker: int) -> range:
        """The slot indices owned by ``worker``."""
        return range(worker * self.depth, (worker + 1) * self.depth)

    def close(self, unlink: bool = False) -> None:
        """Drop the numpy views and close (and optionally unlink) the
        segment.  Idempotent."""
        if self.shm is None:
            return
        # The views hold exported buffers; SharedMemory.close() raises
        # BufferError while any are alive.
        self.ctrl = self.worker_state = self.results = self.packets = None
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - view still referenced
            pass
        if unlink:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        self.shm = None


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

def _build_worker_recorder(obs_spec):
    """Worker-local telemetry stack; its drained deltas ride the status
    queue back to the dispatcher."""
    from .telemetry import NULL_RECORDER, Telemetry

    if obs_spec is None:
        return NULL_RECORDER
    tracer = heat = None
    if obs_spec.get("tracing"):
        from ..obs.tracing import Tracer

        tracer = Tracer(capacity=obs_spec.get("span_capacity", 4096))
    if obs_spec.get("heat"):
        from ..obs.heat import HeatProfiler

        heat = HeatProfiler(sample_period=obs_spec.get("sample_period", 1))
    return Telemetry(tracer=tracer, heat=heat)


def _build_engine(snapshot, recorder):
    from ..saxpac.engine import SaxPacEngine

    classifier, config = unpack_snapshot(snapshot)
    return SaxPacEngine(classifier, config, recorder=recorder)


def _shm_worker_main(
    ring_name: str,
    num_workers: int,
    depth: int,
    capacity: int,
    k: int,
    worker_id: int,
    conn,
    status_queue,
    snapshot,
    generation: int,
    obs_spec,
    plan,
) -> None:
    """Worker entry point: poll owned slots, classify in place.

    ``conn`` receives ``("swap", gen, snapshot)`` and ``("stop",)``
    control messages; ``status_queue`` carries readiness, per-slot error
    tracebacks and (when observability is on) telemetry deltas back to
    the dispatcher.
    """
    from ..chaos.injector import NULL_INJECTOR

    injector = NULL_INJECTOR
    if plan is not None:
        from ..chaos.injector import FaultInjector

        injector = FaultInjector(plan)
    recorder = _build_worker_recorder(obs_spec)
    ring = ShmRing(
        num_workers, depth, capacity, k, name=ring_name, create=False
    )
    try:
        # The serving loop runs in its own frame so its slot/row views
        # die on return and ring.close() can release the buffer cleanly.
        _shm_worker_loop(
            ring, worker_id, conn, status_queue, snapshot, generation,
            recorder, injector,
        )
    finally:
        ring.close()


def _shm_worker_loop(
    ring: ShmRing,
    worker_id: int,
    conn,
    status_queue,
    snapshot,
    generation: int,
    recorder,
    injector,
) -> None:
    from ..chaos.injector import InjectedCrash
    from ..obs.tracing import SpanContext

    engines: Dict[int, object] = {}
    try:
        engines[generation] = _build_engine(snapshot, recorder)
    except Exception:
        status_queue.put(
            ("build_error", worker_id, traceback.format_exc())
        )
        return
    ring.worker_state[worker_id] = 1
    status_queue.put(("ready", worker_id, generation))

    def apply_swap(msg) -> int:
        new_gen, payload = msg[1], msg[2]
        engines[new_gen] = _build_engine(payload, recorder)
        # Keep the previous generation so in-flight old-snapshot
        # slots are still answered by the engine they were aimed at.
        for stale in sorted(engines)[:-2]:
            del engines[stale]
        return new_gen

    ctrl = ring.ctrl
    my_slots = list(ring.slots_of(worker_id))
    pid = os.getpid()
    while True:
        worked = False
        for slot in my_slots:
            row = ctrl[slot]
            seq = int(row[SEQ_SUBMIT])
            if seq <= int(row[SEQ_DONE]):
                continue
            worked = True
            slot_gen = int(row[GEN])
            while slot_gen not in engines and max(engines) < slot_gen:
                # The dispatcher ships the swap before stamping any
                # slot with the new generation, so it is in the pipe.
                msg = conn.recv()
                if msg[0] == "stop":
                    return
                if msg[0] == "swap":
                    generation = apply_swap(msg)
            engine = engines.get(slot_gen) or engines[max(engines)]
            count = int(row[COUNT])
            view = ring.packets[slot, :count]
            try:
                if injector.enabled:
                    injector.fire(
                        "shard.worker", shard=worker_id, pid=pid
                    )
                if recorder.enabled:
                    trace_id = int(row[TRACE_ID])
                    parent = (
                        SpanContext(trace_id, int(row[SPAN_ID]))
                        if trace_id
                        else None
                    )
                    with recorder.span(
                        "shard.chunk", parent=parent, shard=worker_id,
                        packets=count, pid=pid,
                    ):
                        indices = engine.match_batch_indices(view)
                    delta = recorder.drain()
                    if not delta.is_empty():
                        # Flag before the put and both before SEQ_DONE:
                        # whoever observes the completed slot knows one
                        # delta for it is (at least) in the queue pipe.
                        row[DELTA_FLAG] = 1
                        status_queue.put(("delta", delta))
                else:
                    indices = engine.match_batch_indices(view)
                ring.results[slot, :count] = indices
                row[STATUS] = STATUS_OK
            except InjectedCrash:
                # A crash spec kills the worker like a real segfault
                # would; the dispatcher reclaims this slot.
                os._exit(CRASH_EXIT_CODE)
            except Exception:
                row[STATUS] = STATUS_ERROR
                status_queue.put(
                    (
                        "error",
                        worker_id,
                        slot,
                        seq,
                        traceback.format_exc(),
                    )
                )
            # Publish strictly after the result/status stores.
            row[SEQ_DONE] = seq
        if worked:
            continue
        # Idle: wait on the control pipe — doubles as the poll sleep
        # and wakes immediately for swaps/stop, so snapshot builds
        # happen before the next chunk needs the new engine.
        if conn.poll(0.0005):
            msg = conn.recv()
            if msg[0] == "stop":
                return
            if msg[0] == "swap":
                generation = apply_swap(msg)


# ---------------------------------------------------------------------------
# Dispatcher side
# ---------------------------------------------------------------------------

class ShmWorkerPool:
    """Owns the ring, the worker processes and their control channels.

    The public surface mirrors what
    :class:`~repro.runtime.shard.ShardedRuntime` needs from a pool:
    :meth:`submit` / :meth:`wait` per chunk, :meth:`ship_swap` once per
    hot swap, :meth:`respawn_all` for the deadline ladder, and
    :meth:`close`.
    """

    def __init__(
        self,
        classifier: Classifier,
        config,
        num_workers: int,
        capacity: int = 16384,
        depth: int = 4,
        obs_spec=None,
        plan=None,
        spawn_timeout_s: float = 180.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        wide = [spec.name for spec in classifier.schema if spec.width > 32]
        if wide:
            raise ValueError(
                f"shm mode carries headers as uint32 slabs; schema fields "
                f"{wide} are wider than 32 bits (use shard mode 'thread')"
            )
        import threading

        self.num_workers = num_workers
        self.capacity = capacity
        self.depth = depth
        self.generation = 0
        self.slots_reclaimed = 0
        self._deltas_flagged = 0
        self._deltas_received = 0
        self._crash_grants: Dict[int, int] = {}
        self._ctx = get_context()
        self._lock = threading.Lock()
        self._snapshot = pack_snapshot(classifier, config)
        self._obs_spec = obs_spec
        self._plan = plan
        self._spawn_timeout_s = spawn_timeout_s
        self.ring = ShmRing(
            num_workers, depth, capacity, len(classifier.schema)
        )
        self.status_queue = self._ctx.Queue()
        self._errors: Dict[Tuple[int, int], str] = {}
        self._deltas: List[object] = []
        #: slot -> (seq, count) of a completed-or-in-flight submit whose
        #: results the dispatcher has not read yet.  A slot may only be
        #: reused after its previous results are either waited on or
        #: stashed (see ``_stash``) — otherwise the worker would
        #: overwrite the results slab under an outstanding handle.
        self._unread: Dict[int, Tuple[int, int]] = {}
        #: (slot, seq) -> (status, results, had_delta_flag) copied out
        #: by ``submit`` when it reclaims a finished slot before the
        #: owner of the previous handle got to ``wait`` on it.
        self._stash: Dict[Tuple[int, int], Tuple[int, object, bool]] = {}
        self._workers: List[object] = [None] * num_workers
        self._conns: List[object] = [None] * num_workers
        try:
            for w in range(num_workers):
                self._spawn(w)
            self._wait_ready(range(num_workers))
        except Exception:
            self.close()
            raise

    # -- spawning ------------------------------------------------------
    def _spawn(self, worker: int) -> None:
        recv, send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_shm_worker_main,
            args=(
                self.ring.name,
                self.num_workers,
                self.depth,
                self.capacity,
                self.ring.k,
                worker,
                recv,
                self.status_queue,
                self._snapshot,
                self.generation,
                self._obs_spec,
                self._armed_plan(),
            ),
            daemon=True,
        )
        self.ring.worker_state[worker] = 0
        process.start()
        recv.close()  # worker's end; the parent keeps the send side
        self._workers[worker] = process
        self._conns[worker] = send

    def _wait_ready(self, workers) -> None:
        """Block until every listed worker built its engine (the spawn
        barrier keeps engine build time out of serving latency and
        surfaces build errors at construction)."""
        deadline = time.monotonic() + self._spawn_timeout_s
        state = self.ring.worker_state
        pending = set(workers)
        while pending:
            self._drain_status()
            for w in list(pending):
                if state[w]:
                    pending.discard(w)
                    continue
                process = self._workers[w]
                if process is not None and not process.is_alive():
                    raise RuntimeError(
                        f"shm worker {w} died during spawn:\n"
                        + self._errors.pop((-1, w), "(no traceback)")
                    )
            if not pending:
                return
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"shm workers {sorted(pending)} not ready after "
                    f"{self._spawn_timeout_s}s"
                )
            time.sleep(0.002)

    # -- status channel ------------------------------------------------
    def _drain_status(self) -> None:
        """Pull everything off the status queue (never blocks)."""
        import queue as _queue

        while True:
            try:
                item = self.status_queue.get_nowait()
            except (_queue.Empty, OSError, EOFError):
                return
            kind = item[0]
            if kind == "error":
                _, worker, slot, seq, tb = item
                self._errors[(slot, seq)] = tb
            elif kind == "build_error":
                _, worker, tb = item
                self._errors[(-1, worker)] = tb
            elif kind == "delta":
                self._deltas.append(item[1])
                self._deltas_received += 1
            # "ready" items only matter for their queue-drain side effect;
            # readiness itself is the shared worker_state word.

    def _await_deltas(self, timeout_s: float = 1.0) -> None:
        """Drain the status queue until every flagged delta arrived.

        Flags and receipts are both global monotonic counts, so one
        blocked waiter also satisfies earlier flagged slots.  Bounded:
        a worker that died between the flag store and the queue flush
        must not hang the dispatcher."""
        deadline = time.monotonic() + timeout_s
        while self._deltas_received < self._deltas_flagged:
            self._drain_status()
            if self._deltas_received >= self._deltas_flagged:
                return
            if time.monotonic() > deadline:  # pragma: no cover - crash race
                self._deltas_flagged = self._deltas_received
                return
            time.sleep(0.0002)

    def take_deltas(self) -> List[object]:
        """Telemetry deltas shipped by workers since the last call."""
        self._drain_status()
        with self._lock:
            deltas, self._deltas = self._deltas, []
        return deltas

    # -- hot swap ------------------------------------------------------
    def ship_swap(self, classifier: Classifier, config) -> int:
        """Pack ``classifier`` once and ship it to every worker; returns
        the new generation.  Subsequent submits stamp slots with it, so
        workers upgrade before serving any new-generation chunk while
        old-generation slots still get the old engine."""
        snapshot = pack_snapshot(classifier, config)
        with self._lock:
            self.generation += 1
            self._snapshot = snapshot
            for conn in self._conns:
                if conn is not None:
                    try:
                        conn.send(("swap", self.generation, snapshot))
                    except (BrokenPipeError, OSError):
                        pass  # dead worker; respawn ships the snapshot
            return self.generation

    # -- data path -----------------------------------------------------
    def submit(
        self,
        worker: int,
        chunk,
        trace_ctx=None,
        claim_timeout_s: float = 60.0,
    ) -> Tuple[int, int, int, int]:
        """Write ``chunk`` into a free slot of ``worker`` and publish it.

        Returns the wait handle ``(worker, slot, seq, count)``.  Blocks
        (briefly) when all of the worker's slots are in flight; a worker
        found dead while waiting is respawned, which frees its slots.
        """
        block = np.ascontiguousarray(np.asarray(chunk, dtype=np.uint32))
        if block.ndim == 1:
            block = block.reshape(1, -1)
        count = block.shape[0]
        if count > self.capacity:
            raise ValueError(
                f"chunk of {count} packets exceeds slot capacity "
                f"{self.capacity}"
            )
        ctrl = self.ring.ctrl
        deadline = time.monotonic() + claim_timeout_s
        while True:
            with self._lock:
                for slot in self.ring.slots_of(worker):
                    row = ctrl[slot]
                    if row[SEQ_DONE] >= row[SEQ_SUBMIT]:
                        seq = int(row[SEQ_SUBMIT]) + 1
                        prior = self._unread.pop(slot, None)
                        if prior is not None:
                            # The worker finished this slot but its
                            # handle was not waited on yet (a batch with
                            # more chunks than ring slots submits them
                            # all up front): copy the results out before
                            # the slab is overwritten.
                            prior_seq, prior_count = prior
                            self._stash[(slot, prior_seq)] = (
                                int(row[STATUS]),
                                self.ring.results[slot, :prior_count]
                                .astype(np.int64),
                                bool(row[DELTA_FLAG]),
                            )
                        self.ring.packets[slot, :count] = block
                        row[COUNT] = count
                        row[GEN] = self.generation
                        row[STATUS] = STATUS_OK
                        if trace_ctx is not None:
                            row[TRACE_ID] = trace_ctx.trace_id
                            row[SPAN_ID] = trace_ctx.span_id
                        else:
                            row[TRACE_ID] = 0
                            row[SPAN_ID] = 0
                        row[DELTA_FLAG] = 0
                        self._unread[slot] = (seq, count)
                        # Publish strictly after the payload stores.
                        row[SEQ_SUBMIT] = seq
                        return worker, slot, seq, count
            process = self._workers[worker]
            if process is None or not process.is_alive():
                self.respawn_worker(worker)
                continue
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"no free ring slot on worker {worker} after "
                    f"{claim_timeout_s}s (depth={self.depth})"
                )
            time.sleep(0.0002)

    def wait(
        self, handle: Tuple[int, int, int, int], timeout_s: Optional[float]
    ):
        """Wait for a submitted slot: ``("ok", int64 indices)``,
        ``("err", traceback text)`` or ``("timeout", None)``.

        Detects a dead worker mid-wait, reclaims its slots and respawns
        it — the caller sees a retryable error, never a hang."""
        worker, slot, seq, count = handle
        ctrl = self.ring.ctrl
        row = ctrl[slot]
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        spins = 0
        while row[SEQ_DONE] < seq:
            process = self._workers[worker]
            if process is None or not process.is_alive():
                self.respawn_worker(worker)
                break
            if deadline is not None and time.monotonic() > deadline:
                with self._lock:
                    # Abandoned handle: nobody will read these results,
                    # so let a later submit reuse the slot freely.
                    if self._unread.get(slot, (None, 0))[0] == seq:
                        del self._unread[slot]
                return "timeout", None
            spins += 1
            if spins > 20:
                time.sleep(0.0005)
        with self._lock:
            stashed = self._stash.pop((slot, seq), None)
            if stashed is not None:
                # A later submit reclaimed the slot first and copied
                # these results out of the slab (see ``submit``).
                status, results, had_flag = stashed
            else:
                done = row[SEQ_DONE] >= seq
                status = int(row[STATUS]) if done else -1
                had_flag = bool(row[DELTA_FLAG]) and done
                results = (
                    self.ring.results[slot, :count].astype(np.int64)
                    if done and status == STATUS_OK
                    else None
                )
                if self._unread.get(slot, (None, 0))[0] == seq:
                    del self._unread[slot]
        if had_flag:
            # The worker enqueued a telemetry delta for this slot before
            # publishing completion; the queue feeder thread may still
            # be flushing it, so wait (bounded) until it lands — this
            # keeps collect()-after-batch deterministic.
            self._deltas_flagged += 1
            self._await_deltas()
        if status == STATUS_OK and results is not None:
            return "ok", results
        detail = self._await_error(
            (slot, seq), 1.0 if status == STATUS_ERROR else 0.0
        )
        if detail is None:
            detail = (
                f"shm worker {worker} lost slot {slot} (seq {seq}, "
                f"status {status})"
            )
        return "err", detail

    def _await_error(self, key, timeout_s: float) -> Optional[str]:
        """The worker traceback for slot ``key``, draining the status
        queue until it lands.  A worker queues its traceback before it
        publishes the failed slot, but the queue's feeder thread may
        still be flushing it; bounded, because a worker that died in
        between never delivers it."""
        deadline = time.monotonic() + timeout_s
        while True:
            self._drain_status()
            detail = self._errors.pop(key, None)
            if detail is not None or time.monotonic() >= deadline:
                return detail
            time.sleep(0.0002)

    # -- failure handling ---------------------------------------------
    def _reclaim(self, worker: int) -> int:
        """Force-complete the in-flight slots of ``worker`` so waiters
        see a retryable error instead of a hang; returns how many."""
        ctrl = self.ring.ctrl
        reclaimed = 0
        for slot in self.ring.slots_of(worker):
            row = ctrl[slot]
            if row[SEQ_DONE] < row[SEQ_SUBMIT]:
                row[STATUS] = STATUS_RECLAIMED
                row[SEQ_DONE] = row[SEQ_SUBMIT]
                reclaimed += 1
        self.slots_reclaimed += reclaimed
        return reclaimed

    def _armed_plan(self):
        """The fault plan for one fresh worker spawn.

        Each worker process arms its own injector, so handing every
        spawn the full plan would reset the ``shard.worker`` crash
        budget on each respawn and crash-loop forever.  A crash is
        terminal per process (the worker ``os._exit``\\ s on its first
        fire), so thread mode's shared-budget semantics — ``times: 2``
        means two crashes *total* — are preserved by granting each
        spawn at most a single-shot share and never granting more
        shots than ``times`` across all spawns."""
        plan = self._plan
        if plan is None:
            return None
        data = plan.to_dict()
        changed = False
        for i, spec in enumerate(data.get("faults", [])):
            if (
                spec.get("site") != "shard.worker"
                or spec.get("kind") != "crash"
                or spec.get("times") is None
            ):
                continue
            changed = True
            granted = self._crash_grants.get(i, 0)
            if granted < spec["times"]:
                self._crash_grants[i] = granted + 1
                spec["times"] = 1
            else:
                spec["times"] = 0
        if not changed:
            return plan
        from ..chaos.plan import FaultPlan

        return FaultPlan.from_dict(data)

    def respawn_worker(self, worker: int) -> int:
        """Replace one (dead or hung) worker; returns reclaimed slots."""
        with self._lock:
            process = self._workers[worker]
            if process is not None:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=5.0)
            conn = self._conns[worker]
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
            reclaimed = self._reclaim(worker)
            self._spawn(worker)
            return reclaimed

    def respawn_all(self) -> int:
        """The deadline ladder's big hammer: replace every worker and
        reclaim all in-flight slots; returns the reclaimed count."""
        reclaimed = 0
        for worker in range(self.num_workers):
            reclaimed += self.respawn_worker(worker)
        return reclaimed

    def workers_alive(self) -> int:
        """How many worker processes are currently alive."""
        return sum(
            1
            for process in self._workers
            if process is not None and process.is_alive()
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Stop the workers, reap them, release the segment.  Idempotent."""
        for conn in self._conns:
            if conn is not None:
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for process in self._workers:
            if process is not None:
                process.join(timeout=2.0)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.terminate()
                    process.join(timeout=2.0)
        for conn in self._conns:
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
        self._workers = []
        self._conns = []
        try:
            self.status_queue.close()
            self.status_queue.join_thread()
        except (OSError, AttributeError):  # pragma: no cover
            pass
        if self.ring is not None:
            self.ring.close(unlink=True)
            self.ring = None
