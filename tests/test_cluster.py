"""The replicated serving tier: generation stamping, rendezvous
routing, replica failover, rolling swaps, and the PR-8 abort
regression.

The chaos *soak* (1M requests, injected crashes, swap under load)
lives in ``benchmarks/soak_cluster.py``; these tests pin the
mechanisms it relies on at a size the fast lane can afford.
"""

import itertools
import random
import threading
import time

import numpy as np
import pytest
from conftest import random_classifier
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
)
from netutil import settle, wait_until

from repro.net import (
    ClusterError,
    ErrorCode,
    LocalCluster,
    NetClient,
    NetConfig,
    NetError,
    ReplicaSet,
    decision_identical_updates,
    fold_catch_all,
    replica_for,
    serve_background,
)
from repro.net.cluster import replica_score
from repro.runtime import LoadShedError, RuntimeService
from repro.runtime.service import RuntimeConfig
from repro.workloads import generate_trace


def oracle_indices(classifier, headers):
    return [r.index for r in classifier.match_batch(headers)]


def make_blocks(classifier, total, size, seed):
    trace = generate_trace(classifier, total, seed)
    return trace, [
        trace[i : i + size] for i in range(0, total, size)
    ]


@pytest.fixture
def cluster3():
    classifier = random_classifier(random.Random(7), num_rules=40)
    with LocalCluster(classifier, replicas=3) as cluster:
        yield classifier, cluster


# ----------------------------------------------------------------------
# Generation stamping (the wire extension)
# ----------------------------------------------------------------------
class TestGenerationStamp:
    def test_ping_poll_tracks_engine_generation(self):
        classifier = random_classifier(random.Random(3), num_rules=30)
        service = RuntimeService(classifier)
        handle = serve_background(service)
        try:
            with NetClient(port=handle.port) as client:
                assert client.generation() == service.swap.generation
                service.insert(classifier.body[0])  # rebuild: gen + 1
                assert client.generation() == service.swap.generation
        finally:
            handle.stop()

    def test_responses_stamped_only_when_negotiated(self):
        classifier = random_classifier(random.Random(5), num_rules=30)
        service = RuntimeService(classifier)
        handle = serve_background(service)
        try:
            headers = generate_trace(classifier, 50, 2)
            with NetClient(
                port=handle.port, track_generation=True
            ) as stamped:
                assert stamped.peer_stamps is True
                got = stamped.match_batch(headers)
                assert stamped.peer_generation == service.swap.generation
            with NetClient(port=handle.port) as plain:
                assert plain.match_batch(headers).tolist() == got.tolist()
                # No negotiation, no stamp — byte-identical legacy path.
                assert plain.peer_stamps is False
                assert plain.peer_generation is None
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Rendezvous hashing (pure) + the membership-remap property
# ----------------------------------------------------------------------
class TestRendezvous:
    def test_deterministic(self):
        names = ["a", "b", "c", "d"]
        for key in range(200):
            assert replica_for(key, names) == replica_for(key, names)
        assert replica_score(42, "a") == replica_score(42, "a")

    def test_reasonable_spread(self):
        names = ["r0", "r1", "r2"]
        loads = {n: 0 for n in names}
        for key in range(3000):
            loads[replica_for(key, names)] += 1
        for name, load in loads.items():
            assert load > 500, f"{name} starved: {loads}"

    def test_fold_catch_all(self):
        folded = fold_catch_all([0, 5, 200, 201, 204], 200)
        assert folded.tolist() == [0, 5, 200, 200, 200]


class RendezvousMachine(RuleBasedStateMachine):
    """Membership changes remap only the affected keys: killing a
    replica moves exactly the keys it owned; rejoining one steals only
    the keys that now score highest on it.  No full reshuffle, ever."""

    POOL = [f"replica-{i}" for i in range(6)]
    KEYS = list(range(150))

    @initialize()
    def fresh(self):
        self.alive = set(self.POOL[:3])
        self.placement = self._place()

    def _place(self):
        names = sorted(self.alive)
        return {k: replica_for(k, names) for k in self.KEYS}

    @rule(pick=st.integers(min_value=0, max_value=5))
    def kill(self, pick):
        name = self.POOL[pick]
        if name not in self.alive or len(self.alive) == 1:
            return
        self.alive.discard(name)
        after = self._place()
        for key in self.KEYS:
            if self.placement[key] != name:
                assert after[key] == self.placement[key], (
                    f"key {key} moved off surviving "
                    f"{self.placement[key]} when {name} died"
                )
            else:
                assert after[key] in self.alive
        self.placement = after

    @rule(pick=st.integers(min_value=0, max_value=5))
    def rejoin(self, pick):
        name = self.POOL[pick]
        if name in self.alive:
            return
        self.alive.add(name)
        after = self._place()
        for key in self.KEYS:
            assert after[key] in (self.placement[key], name), (
                f"key {key} reshuffled from {self.placement[key]} to "
                f"{after[key]} when {name} joined"
            )
        self.placement = after


RendezvousMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None
)
TestRendezvousRemap = RendezvousMachine.TestCase


# ----------------------------------------------------------------------
# ReplicaSet routing + failover
# ----------------------------------------------------------------------
class TestReplicaSet:
    @pytest.mark.parametrize("policy", ["rendezvous", "least_inflight"])
    def test_routing_matches_oracle(self, cluster3, policy):
        classifier, cluster = cluster3
        trace, blocks = make_blocks(classifier, 2000, 16, seed=11)
        with cluster.replica_set(policy=policy) as rs:
            answers = rs.match_many(blocks)
        got = [int(x) for a in answers for x in a]
        assert got == oracle_indices(classifier, trace)
        assert rs.stats["cluster.requests"] == len(blocks)
        assert rs.stats["cluster.replica_deaths"] == 0

    def test_all_replicas_see_traffic(self, cluster3):
        classifier, cluster = cluster3
        _, blocks = make_blocks(classifier, 1600, 8, seed=13)
        with cluster.replica_set() as rs:
            rs.match_many(blocks)
        for name, service in cluster.services.items():
            settle(
                lambda s=service: s.telemetry.counter("net.requests") > 0
            )
            assert service.telemetry.counter("net.requests") > 0, name

    def test_kill_mid_stream_zero_wrong_answers(self, cluster3):
        classifier, cluster = cluster3
        trace, blocks = make_blocks(classifier, 6000, 8, seed=17)
        victim = cluster.services["replica-1"]
        serve = victim.match_indices
        lookups = itertools.count(1)
        in_flight = threading.Event()
        killed = threading.Event()

        def serve_then_hold(block):
            # The third lookup wakes the killer and holds its answer
            # until the kill lands, so the kill always meets a request
            # still in flight on replica-1.
            answer = serve(block)
            if next(lookups) == 3:
                in_flight.set()
                killed.wait(10.0)
            return answer

        def kill_when_in_flight():
            in_flight.wait(10.0)
            cluster.kill("replica-1")
            killed.set()

        victim.match_indices = serve_then_hold
        with cluster.replica_set(retries=2, timeout_s=10.0) as rs:
            killer = threading.Thread(target=kill_when_in_flight)
            killer.start()
            answers = rs.match_many(blocks)
            killer.join()
        got = [int(x) for a in answers for x in a]
        assert got == oracle_indices(classifier, trace)
        assert rs.alive() == ["replica-0", "replica-2"]
        assert rs.stats["cluster.replica_deaths"] == 1

    def test_restart_rejoin_converges(self, cluster3):
        classifier, cluster = cluster3
        trace, blocks = make_blocks(classifier, 800, 16, seed=19)
        with cluster.replica_set() as rs:
            cluster.kill("replica-2")
            answers = rs.match_many(blocks)
            assert [int(x) for a in answers for x in a] == oracle_indices(
                classifier, trace
            )
            port = cluster.restart("replica-2")
            rs.rejoin("replica-2", port=port)
            gens = rs.wait_converged(timeout_s=15.0)
            assert len(gens) == 3
            assert len(set(gens.values())) == 1

    def test_shed_reroutes_instead_of_burning_backoff(self):
        """Satellite: a SHED answer must move the traffic to another
        replica, not retry the same one until its backoff budget dies."""
        classifier = random_classifier(random.Random(23), num_rules=30)
        with LocalCluster(classifier, replicas=2) as cluster:
            shedder = cluster.services["replica-0"]

            def always_shed(block):
                raise LoadShedError("synthetic overload")

            shedder.match_indices = always_shed
            trace, blocks = make_blocks(classifier, 800, 16, seed=29)
            with cluster.replica_set(
                shed_backoff_s=0.0, max_shed_retries=2
            ) as rs:
                answers = rs.match_many(blocks)
                got = [int(x) for a in answers for x in a]
                assert got == oracle_indices(classifier, trace)
                assert rs.stats["cluster.shed_reroutes"] >= 1
                # Shedding is not a death sentence: the replica stays
                # routable for when the overload clears.
                assert rs.alive() == ["replica-0", "replica-1"]
            # The set gave up on the shedding replica after the small
            # per-chunk budget instead of grinding it to exhaustion —
            # the healthy replica answered everything.
            healthy = cluster.services["replica-1"]
            settle(
                lambda: healthy.telemetry.counter("net.responses")
                >= len(blocks)
            )
            assert healthy.telemetry.counter("net.responses") >= len(
                blocks
            )

    def test_draining_replica_reroutes_until_resume(self, cluster3):
        classifier, cluster = cluster3
        trace, blocks = make_blocks(classifier, 800, 16, seed=31)
        handle = cluster.handles["replica-0"]
        assert handle.quiesce(5.0) is True
        with cluster.replica_set() as rs:
            answers = rs.match_many(blocks)
            assert [int(x) for a in answers for x in a] == oracle_indices(
                classifier, trace
            )
            assert rs.stats["cluster.drain_reroutes"] >= 1
            assert rs.alive() == [
                "replica-0",
                "replica-1",
                "replica-2",
            ]
        handle.resume()
        with NetClient(port=handle.port) as client:
            got = client.match_batch(trace[:50])
        assert list(got) == oracle_indices(classifier, trace[:50])
        telemetry = cluster.services["replica-0"].telemetry
        assert telemetry.counter("net.quiesces") == 1
        assert telemetry.counter("net.resumes") == 1

    def test_min_generation_routes_to_converged_only(self):
        classifier = random_classifier(random.Random(37), num_rules=30)
        with LocalCluster(classifier, replicas=2) as cluster:
            # Push replica-0 one generation ahead, as a mid-rolling-swap
            # cluster looks to a read-your-writes client.
            ahead = cluster.services["replica-0"]
            ahead.insert(classifier.body[0])
            target = ahead.swap.generation
            trace, blocks = make_blocks(classifier, 400, 16, seed=41)
            with cluster.replica_set() as rs:
                rs.generations()
                answers = rs.match_many(blocks, min_generation=target)
                got = fold_catch_all(
                    np.concatenate([np.asarray(a) for a in answers]),
                    len(classifier.body),
                )
                want = fold_catch_all(
                    oracle_indices(classifier, trace),
                    len(classifier.body),
                )
                assert got.tolist() == want.tolist()
            stale = cluster.services["replica-1"]
            assert stale.telemetry.counter("net.requests") == 0

    def test_no_eligible_replica_raises(self):
        classifier = random_classifier(random.Random(43), num_rules=20)
        with LocalCluster(classifier, replicas=1) as cluster:
            rs = cluster.replica_set()
            rs.mark_dead("replica-0")
            with pytest.raises(ClusterError):
                rs.match_many([generate_trace(classifier, 10, 1)])

    def test_wait_converged_times_out(self):
        classifier = random_classifier(random.Random(47), num_rules=20)
        with LocalCluster(classifier, replicas=1) as cluster:
            with cluster.replica_set() as rs:
                with pytest.raises(ClusterError):
                    rs.wait_converged(target=99, timeout_s=0.3)


# ----------------------------------------------------------------------
# Rolling swap under load
# ----------------------------------------------------------------------
class TestRollingSwap:
    @pytest.mark.slow
    def test_swap_under_load_zero_mismatches(self, cluster3):
        classifier, cluster = cluster3
        trace, blocks = make_blocks(classifier, 8000, 16, seed=53)
        want = fold_catch_all(
            oracle_indices(classifier, trace), len(classifier.body)
        )
        updates = decision_identical_updates(classifier, 3, seed=7)
        report = {}
        with cluster.replica_set(retries=2) as rs:

            def swap():
                report.update(cluster.rolling_swap(updates))

            swapper = threading.Thread(target=swap, daemon=True)
            answers = []
            quarter = max(1, len(blocks) // 4)
            for i in range(0, len(blocks), quarter):
                if i >= quarter and not swapper.is_alive() and not report:
                    swapper.start()
                answers.extend(
                    rs.match_many(blocks[i : i + quarter])
                )
            swapper.join()
            target = max(cluster.generations().values())
            gens = rs.wait_converged(target=target, timeout_s=30.0)
        got = fold_catch_all(
            np.concatenate([np.asarray(a) for a in answers]),
            len(classifier.body),
        )
        assert int((got != want).sum()) == 0
        assert report["swapped"] == cluster.names
        assert report["skipped"] == []
        assert all(g == target for g in gens.values())

    def test_restart_replays_update_log(self, cluster3):
        classifier, cluster = cluster3
        updates = decision_identical_updates(classifier, 2, seed=9)
        cluster.kill("replica-1")
        report = cluster.rolling_swap(updates)
        assert report["skipped"] == ["replica-1"]
        target = max(cluster.generations().values())
        cluster.restart("replica-1")
        assert cluster.generations()["replica-1"] == target


# ----------------------------------------------------------------------
# PR-8 regression: abort must reach a pipelining client even with
# forked shm workers holding duplicates of the connection fd
# ----------------------------------------------------------------------
class TestAbortRegression:
    @pytest.mark.slow
    def test_server_abort_reaches_client_despite_forked_fd_dups(self):
        classifier = random_classifier(random.Random(59), num_rules=30)
        service = RuntimeService(
            classifier,
            RuntimeConfig(num_shards=2, shard_mode="shm"),
        )
        handle = serve_background(service)
        try:
            client = NetClient(
                port=handle.port, timeout_s=60.0, retries=0
            )
            client.connect()
            headers = generate_trace(classifier, 50, 3)
            client.match_batch(headers)  # connection is live
            # Fork fresh shm workers *after* the accept: each child now
            # holds a duplicate of the connection's fd.  Before the
            # SHUT_RDWR fix, the server closing only its own copy left
            # the TCP connection alive and the client blocked until its
            # (long) timeout.
            service.shards._respawn()
            settle(lambda: len(handle.server._connections) == 1)

            def abort_all():
                for conn in list(handle.server._connections):
                    conn.abort()

            handle.loop.call_soon_threadsafe(abort_all)
            start = time.monotonic()
            with pytest.raises((ConnectionError, OSError)):
                client.match_batch(headers)
            elapsed = time.monotonic() - start
            # EOF must arrive promptly — nowhere near the 60s client
            # timeout a leaked fd duplicate would force us to wait out.
            assert elapsed < 10.0, f"teardown took {elapsed:.1f}s"
            client.close()
        finally:
            handle.stop()
            service.close()


# ----------------------------------------------------------------------
# ServerHandle.kill (the soak's crash lever)
# ----------------------------------------------------------------------
class TestKill:
    def test_kill_aborts_inflight_connections(self):
        classifier = random_classifier(random.Random(61), num_rules=20)
        service = RuntimeService(classifier)
        handle = serve_background(service)
        client = NetClient(port=handle.port, timeout_s=30.0, retries=0)
        client.connect()
        headers = generate_trace(classifier, 20, 5)
        client.match_batch(headers)
        handle.kill()
        assert wait_until(lambda: not handle.thread.is_alive())
        start = time.monotonic()
        with pytest.raises((ConnectionError, OSError)):
            client.match_batch(headers)
        assert time.monotonic() - start < 10.0
        client.close()
        service.close()

    def test_kill_then_stop_is_idempotent(self):
        classifier = random_classifier(random.Random(67), num_rules=20)
        service = RuntimeService(classifier)
        handle = serve_background(service)
        handle.kill()
        assert handle.stop() is False  # killed, never drained
        service.close()
