"""End-to-end trace propagation over the wire and across workers.

Covers the SXPC trace-context extension (negotiation, byte-identical
fallback), the joined client -> server -> batch -> runtime span tree,
and the two context hops that contextvars do not survive on their own:
asyncio task boundaries and pickled process workers.
"""

import asyncio
import os
import random

import pytest

from conftest import random_classifier
from netutil import settle
from repro.net import NetClient, NetConfig, serve_background
from repro.net.protocol import (
    FLAG_TRACE,
    TRACE_BLOCK,
    FrameDecoder,
    TraceContext,
    encode_match_request,
    split_trace_context,
)
from repro.obs import Tracer, chrome_trace
from repro.runtime.service import RuntimeService
from repro.runtime.shard import ShardedRuntime
from repro.runtime.telemetry import Telemetry
from repro.workloads.traces import generate_trace


@pytest.fixture
def traced_served():
    """A traced wire server with no coalesce hold, so every request gets
    its own batch and therefore a complete span tree (the coalescer
    parents net.batch under the *lead* request only)."""
    classifier = random_classifier(random.Random(11), num_rules=40)
    tracer = Tracer()
    service = RuntimeService(classifier, recorder=Telemetry(tracer=tracer))
    handle = serve_background(service, NetConfig(coalesce_wait_ms=0.0))
    yield service, handle, tracer
    handle.stop()


@pytest.fixture
def untraced_served():
    classifier = random_classifier(random.Random(12), num_rules=40)
    service = RuntimeService(classifier)
    handle = serve_background(service, NetConfig(coalesce_wait_ms=0.0))
    yield service, handle
    handle.stop()


class TestWireExtension:
    def test_untraced_request_bytes_carry_no_extension(self):
        frame = FrameDecoder().feed(
            encode_match_request(9, [[1, 2, 3]])
        )[0]
        assert frame.flags == 0
        trace, stripped = split_trace_context(frame)
        assert trace is None
        assert stripped is frame  # untouched, not rebuilt

    def test_traced_request_is_plain_request_plus_block(self):
        headers = [[1, 2, 3], [4, 5, 6]]
        plain = encode_match_request(9, headers)
        traced = encode_match_request(
            9, headers, trace=TraceContext(0xABC, 0xDEF)
        )
        frame = FrameDecoder().feed(traced)[0]
        assert frame.flags & FLAG_TRACE
        trace, stripped = split_trace_context(frame)
        assert trace == TraceContext(0xABC, 0xDEF, True)
        # Stripping the 17-byte block and clearing the flag recovers the
        # exact untraced payload: the extension is purely additive.
        plain_frame = FrameDecoder().feed(plain)[0]
        assert stripped.payload == plain_frame.payload
        assert stripped.flags == 0
        assert len(frame.payload) == len(plain_frame.payload) + TRACE_BLOCK.size

    def test_negotiation_against_traced_server(self, traced_served):
        _, handle, _ = traced_served
        with NetClient(port=handle.port, tracer=Tracer()) as client:
            assert client.peer_traces is True

    def test_negotiation_against_untraced_server(self, untraced_served):
        """A tracer-less server echoes zero flags on PONG; the client
        falls back to plain frames and still gets correct answers."""
        service, handle = untraced_served
        headers = generate_trace(service.serving_classifier(), 50, 21)
        tracer = Tracer()
        with NetClient(port=handle.port, tracer=tracer) as client:
            assert client.peer_traces is False
            got = client.match_batch(headers)
        reference = [
            r.index for r in service.serving_classifier().match_batch(headers)
        ]
        assert list(got) == reference
        # No peer agreement means no client spans either.
        assert len(tracer.spans()) == 0

    def test_untraced_client_against_traced_server(self, traced_served):
        """Plain clients see a plain protocol; server spans become local
        roots instead of joining a client trace."""
        service, handle, tracer = traced_served
        headers = generate_trace(service.serving_classifier(), 30, 22)
        with NetClient(port=handle.port) as client:
            assert client.peer_traces is False
            client.match_batch(headers)
        settle(lambda: any(s.name == "net.request" for s in tracer.spans()))
        requests = [s for s in tracer.spans() if s.name == "net.request"]
        assert requests and all(s.parent_id is None for s in requests)


class TestJoinedSpanTree:
    def test_client_server_spans_join_per_request(self, traced_served):
        service, handle, server_tracer = traced_served
        classifier = service.serving_classifier()
        trace = generate_trace(classifier, 120, 31)
        blocks = [trace[i : i + 30] for i in range(0, 120, 30)]
        client_tracer = Tracer()
        with NetClient(port=handle.port, tracer=client_tracer) as client:
            results = client.match_many(blocks, window=1)
        # Verified answers, as `repro client --verify` would check them.
        for block, got in zip(blocks, results):
            assert list(got) == [
                r.index for r in classifier.match_batch(block)
            ]

        client_spans = [
            s for s in client_tracer.spans() if s.name == "client.request"
        ]
        assert len(client_spans) == len(blocks)

        settle(
            lambda: sum(
                1 for s in server_tracer.spans() if s.name == "net.request"
            )
            >= len(blocks)
        )
        spans = server_tracer.spans()
        by_id = {s.span_id: s for s in spans}
        for client_span in client_spans:
            # net.request joins the client's trace, parented under the
            # client.request span whose context rode the wire.
            server_span = next(
                s
                for s in spans
                if s.name == "net.request"
                and s.parent_id == client_span.span_id
            )
            assert server_span.trace_id == client_span.trace_id
            # net.batch nests under the (lead) request span...
            batch = next(
                s
                for s in spans
                if s.name == "net.batch"
                and s.parent_id == server_span.span_id
            )
            assert batch.trace_id == client_span.trace_id
            # ...and the runtime's own span nests under the batch: the
            # tree crosses the executor-thread hop too.
            runtime = next(
                s
                for s in spans
                if s.name == "runtime.batch"
                and s.parent_id == batch.span_id
            )
            assert runtime.trace_id == client_span.trace_id
            # Parent chains resolve within the buffered store.
            for node in (server_span, batch, runtime):
                assert node.parent_id == client_span.span_id or (
                    node.parent_id in by_id
                )

    def test_joined_tree_exports_as_chrome_trace(self, traced_served):
        service, handle, server_tracer = traced_served
        headers = generate_trace(service.serving_classifier(), 40, 32)
        client_tracer = Tracer()
        with NetClient(port=handle.port, tracer=client_tracer) as client:
            client.match_batch(headers)
        settle(
            lambda: any(
                s.name == "net.request" for s in server_tracer.spans()
            )
        )
        doc = chrome_trace(client_tracer.spans() + server_tracer.spans())
        events = doc["traceEvents"]
        assert {e["name"] for e in events} >= {
            "client.request",
            "net.request",
            "net.batch",
        }
        client_event = next(e for e in events if e["name"] == "client.request")
        request_event = next(e for e in events if e["name"] == "net.request")
        assert (
            request_event["args"]["parent_id"]
            == client_event["args"]["span_id"]
        )


class TestTaskAndWorkerPropagation:
    def test_span_lifetime_crosses_asyncio_tasks(self):
        """start_span/finish carry a request span across tasks — the
        server pattern: born in the connection task, finished by the
        batch task, where a contextvar token cannot follow."""
        tracer = Tracer()

        async def scenario():
            span = tracer.start_span("net.request")

            async def batch_task():
                with tracer.span("net.batch", parent=span.context):
                    await asyncio.sleep(0)
                tracer.finish(span)

            await asyncio.create_task(batch_task())

        asyncio.run(scenario())
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["net.batch"].parent_id == by_name["net.request"].span_id
        assert by_name["net.batch"].trace_id == by_name["net.request"].trace_id
        assert by_name["net.request"].duration >= 0.0

    def test_concurrent_tasks_keep_separate_ambient_spans(self):
        """The contextvar parent is task-local: two interleaved tasks
        each nest their children under their own span, never the
        other's."""
        tracer = Tracer()

        async def one(name):
            with tracer.span(name):
                await asyncio.sleep(0)  # force an interleave point
                child = tracer.start_span(f"{name}.child")
                await asyncio.sleep(0)
                tracer.finish(child)

        async def scenario():
            await asyncio.gather(one("a"), one("b"))

        asyncio.run(scenario())
        by_name = {s.name: s for s in tracer.spans()}
        for name in ("a", "b"):
            assert by_name[f"{name}.child"].parent_id == by_name[name].span_id
            assert by_name[f"{name}.child"].trace_id == by_name[name].trace_id
        assert by_name["a"].trace_id != by_name["b"].trace_id

    def test_process_workers_join_the_parent_trace(self):
        """shard.chunk spans recorded inside shm worker processes come
        back parented under the driving request span, with the worker's
        own pid — cross-process propagation end to end."""
        classifier = random_classifier(random.Random(13), num_rules=40)
        trace = generate_trace(classifier, 64, 41)
        tracer = Tracer()
        recorder = Telemetry(tracer=tracer)
        with ShardedRuntime(
            classifier=classifier,
            num_shards=2,
            mode="shm",
            recorder=recorder,
        ) as sharded:
            with tracer.span("driver.request") as parent:
                sharded.match_indices(trace)
        chunks = [s for s in tracer.spans() if s.name == "shard.chunk"]
        assert len(chunks) == 2
        for chunk in chunks:
            assert chunk.trace_id == parent.trace_id
            assert chunk.parent_id == parent.span_id
            assert chunk.pid != os.getpid()
        assert {c.tags["shard"] for c in chunks} == {0, 1}
