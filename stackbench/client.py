"""Load generator: one connection, a fixed pipelined window, every
answer checked.

The client takes the SXPC wire format from ``repro.net.protocol`` but
packs request headers and parses responses itself instead of going
through ``repro.net.client``, so its own cost stays fixed while the
program changes.  Request payloads are encoded (with
``encode_match_request``) before any timing starts; only the frame
header, which carries the request id, is packed per send.

The loop is closed: the client keeps ``window`` requests outstanding
and sends the next one only when a response comes back, the way
``NetClient``/``ReplicaSet`` callers pipeline.
"""

from __future__ import annotations

import socket
import struct
import time
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.net.protocol import (
    FLAG_GENERATION,
    FRAME_HEADER,
    GEN_BLOCK,
    MAGIC,
    VERSION,
    FrameType,
    encode_frame,
    encode_match_request,
)

MATCH_REQUEST = int(FrameType.MATCH_REQUEST)
MATCH_RESPONSE = int(FrameType.MATCH_RESPONSE)
#: Answer count at the head of a MATCH_RESPONSE payload.
COUNT = struct.Struct("<I")


def encode_payload(block: np.ndarray) -> bytes:
    """``MATCH_REQUEST`` payload of a ``(count, k)`` packet block."""
    return encode_match_request(0, block)[FRAME_HEADER.size:]


class Wire:
    """A TCP connection to the server that yields decoded frames.

    It negotiates generation stamps the way
    ``NetClient(track_generation=True)`` does: a PING carrying the flag,
    which the PONG echoes with the serving generation.  From then on
    every response carries the generation too, which the oracle needs
    while rules change.
    """

    def __init__(self, port: int, timeout_s: float) -> None:
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=timeout_s
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()
        self.sock.sendall(
            encode_frame(FrameType.PING, 0, b"", FLAG_GENERATION)
        )
        frames = []
        while not frames:
            frames = self.read()
        ftype, _, flags, payload = frames[0]
        if ftype != FrameType.PONG or not flags & FLAG_GENERATION:
            raise ConnectionError("server did not stamp generations")
        (self.generation,) = GEN_BLOCK.unpack_from(payload)

    def read(self) -> list:
        """Block for data; return every complete frame received."""
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("server closed the connection")
        buf = self._buf
        buf.extend(data)
        frames = []
        pos = 0
        size = FRAME_HEADER.size
        while len(buf) - pos >= size:
            magic, version, ftype, flags, rid, length = (
                FRAME_HEADER.unpack_from(buf, pos)
            )
            if magic != MAGIC or version != VERSION:
                raise ConnectionError(f"bad frame header {magic!r}")
            end = pos + size + length
            if len(buf) < end:
                break
            frames.append((ftype, rid, flags, bytes(buf[pos + size:end])))
            pos = end
        del buf[:pos]
        return frames

    def close(self) -> None:
        self.sock.close()


@dataclass
class Window:
    """What one measured window saw."""

    seconds: float
    #: Packets answered correctly within the window.
    packets: int = 0
    #: Everything answered, the drain after the window included.
    all_packets: int = 0
    all_requests: int = 0
    latencies_s: List[float] = field(default_factory=list)
    client_cpu_s: float = 0.0
    #: perf_counter() when the first request went out, when the last
    #: answer within the window came back, and when the last answer
    #: (the drain included) came back.
    start: float = 0.0
    last_answer: float = 0.0
    end: float = 0.0

    @property
    def pps(self) -> float:
        """Packets per second from the first send to the last answer in
        the window.  With a large window the server answers whole
        coalesced batches at once, so counting to the window's nominal
        end would add a partial batch interval to every window."""
        return self.packets / (self.last_answer - self.start)

    @property
    def client_busy_share(self) -> float:
        return self.client_cpu_s / (self.end - self.start)


class Driver:
    """Sends pre-encoded request blocks and checks every answer."""

    def __init__(self, oracle, blocks: Sequence[np.ndarray], window: int,
                 timeout_s: float = 30.0) -> None:
        self.oracle = oracle
        self.payloads = [encode_payload(b) for b in blocks]
        self.sizes = [int(b.shape[0]) for b in blocks]
        self.window = window
        self.timeout_s = timeout_s
        self.wire = None
        self.seq = 0
        #: Newest generation stamp seen.
        self.generation = 1
        self.attempted = 0
        self.errors = 0
        self.mismatches = 0

    @property
    def failed(self) -> int:
        return self.errors + self.mismatches

    def connect(self, port: int) -> None:
        self.close()
        self.wire = Wire(port, self.timeout_s)
        self.generation = self.wire.generation

    def close(self) -> None:
        if self.wire is not None:
            self.wire.close()
            self.wire = None

    def _frame(self) -> tuple:
        seq = self.seq
        self.seq += 1
        payload = self.payloads[seq % len(self.payloads)]
        return seq, FRAME_HEADER.pack(
            MAGIC, VERSION, MATCH_REQUEST, 0, seq, len(payload)
        ) + payload

    def _verify(self, rid: int, ftype: int, flags: int, payload: bytes,
                low_gen: int) -> bool:
        if ftype != MATCH_RESPONSE or not flags & FLAG_GENERATION:
            self.errors += 1
            return False
        (stamp,) = GEN_BLOCK.unpack_from(payload)
        payload = payload[GEN_BLOCK.size:]
        self.generation = max(self.generation, stamp)
        # The server reads the stamp when it encodes the response, and a
        # swap stores the new engine before it bumps the generation, so
        # the lookup may have seen stamp + 1.
        high_gen = stamp + 1
        (count,) = COUNT.unpack_from(payload)
        answer = np.frombuffer(payload, dtype="<u4", count=count,
                               offset=COUNT.size)
        block = rid % len(self.payloads)
        if not self.oracle.check(block, answer, low_gen, high_gen):
            self.mismatches += 1
            return False
        return True

    def run(self, seconds: float) -> Window:
        """Closed loop for ``seconds``; in-flight requests at the end are
        drained and checked but not counted in the window.  A socket
        timeout or a lost connection aborts the run."""
        wire = self.wire
        pending = {}
        result = Window(seconds=seconds)
        cpu0 = time.process_time()
        result.start = time.perf_counter()
        deadline = result.start + seconds
        self._send([self._frame() for _ in range(self.window)], pending)
        sending = True
        while pending:
            frames = wire.read()
            now = time.perf_counter()
            in_window = now <= deadline
            refill = 0
            for ftype, rid, flags, payload in frames:
                entry = pending.pop(rid, None)
                if entry is None:
                    self.errors += 1
                    continue
                sent_at, low_gen = entry
                ok = self._verify(rid, ftype, flags, payload, low_gen)
                size = self.sizes[rid % len(self.sizes)]
                result.all_packets += size
                result.all_requests += 1
                if in_window:
                    result.last_answer = now
                    result.latencies_s.append(now - sent_at)
                    if ok:
                        result.packets += size
                refill += 1
            sending = sending and in_window
            if sending and refill:
                self._send([self._frame() for _ in range(refill)], pending)
        result.end = time.perf_counter()
        result.client_cpu_s = time.process_time() - cpu0
        return result

    def _send(self, frames: list, pending: dict) -> None:
        now = time.perf_counter()
        for seq, _ in frames:
            pending[seq] = (now, self.generation)
        self.attempted += len(frames)
        self.wire.sock.sendall(b"".join(data for _, data in frames))

    def probe(self) -> None:
        """One request, answered and checked (the set-up probe)."""
        pending = {}
        self._send([self._frame()], pending)
        while pending:
            for ftype, rid, flags, payload in self.wire.read():
                sent = pending.pop(rid, None)
                if sent is None:
                    self.errors += 1
                    continue
                self._verify(rid, ftype, flags, payload, sent[1])
