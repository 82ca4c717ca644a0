"""Replica placement, superstep recovery, circuit breaker, degradation."""

import numpy as np
import pytest

from repro import Server
from repro.dist import CircuitBreaker, Cluster, FaultInjector, Placement
from repro.dist.recovery import CLOSED, HALF_OPEN, OPEN, RecoveryStats
from repro.errors import DegradedMode, WorkerFailed

QUERY = (
    "select * from graph Person ( ) --follows--> Person ( ) --follows--> "
    "Person ( ) into subgraph {}"
)


def subgraphs_equal(a, b) -> bool:
    return (
        {k: v.tolist() for k, v in a.vertices.items()}
        == {k: v.tolist() for k, v in b.vertices.items()}
        and {k: v.tolist() for k, v in a.edges.items()}
        == {k: v.tolist() for k, v in b.edges.items()}
    )


class TestPlacement:
    def test_identity_when_all_live(self):
        p = Placement(4, 2)
        assert [p.serving(i) for i in range(4)] == [0, 1, 2, 3]

    def test_failover_to_ring_replica(self):
        p = Placement(4, 2)
        p.fail(1)
        assert p.serving(1) == 2  # replicas of 1 are [1, 2]
        assert p.serving(0) == 0

    def test_all_replicas_dead_is_fatal(self):
        p = Placement(4, 2)
        p.fail(1)
        p.fail(2)
        with pytest.raises(WorkerFailed) as ei:
            p.serving(1)
        assert not ei.value.retryable

    def test_nonadjacent_double_failure_survives(self):
        p = Placement(4, 2)
        p.fail(0)
        p.fail(2)
        assert p.serving(0) == 1 and p.serving(2) == 3

    def test_partitions_stored_by(self):
        p = Placement(4, 2)
        # worker 1 stores its primary (1) and replicates partition 0
        assert p.partitions_stored_by(1) == [0, 1]
        assert Placement(4, 1).partitions_stored_by(1) == [1]

    def test_restore_all(self):
        p = Placement(3, 2)
        p.fail(0)
        p.restore_all()
        assert p.serving(0) == 0 and p.num_failed == 0

    def test_replication_bounds(self):
        with pytest.raises(ValueError):
            Placement(2, 3)
        with pytest.raises(ValueError):
            Placement(2, 0)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        b = CircuitBreaker(failure_threshold=3, reset_timeout_s=10, clock=lambda: 0.0)
        for _ in range(2):
            b.record_failure()
        assert b.state == CLOSED and b.allow()
        b.record_failure()
        assert b.state == OPEN and not b.allow()
        assert b.trips == 1

    def test_half_open_probe_success_closes(self):
        now = [0.0]
        b = CircuitBreaker(failure_threshold=1, reset_timeout_s=5, clock=lambda: now[0])
        b.record_failure()
        assert not b.allow()
        now[0] = 6.0
        assert b.allow()  # half-open probe
        assert b.state == HALF_OPEN
        b.record_success()
        assert b.state == CLOSED and b.allow()

    def test_half_open_probe_failure_reopens(self):
        now = [0.0]
        b = CircuitBreaker(failure_threshold=2, reset_timeout_s=5, clock=lambda: now[0])
        b.record_failure()
        b.record_failure()
        now[0] = 6.0
        assert b.allow()
        b.record_failure()  # probe failed: open immediately, new timeout
        assert b.state == OPEN and not b.allow()
        assert b.trips == 2

    def test_success_resets_failure_count(self):
        b = CircuitBreaker(failure_threshold=2, clock=lambda: 0.0)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == CLOSED


class TestClusterRecovery:
    def test_single_failure_recovers_identically(self, social_db):
        ref = social_db.execute(QUERY.format("LR"))[0].subgraph
        inj = FaultInjector(seed=3, kill_schedule={0: [2]})
        server = Server(backend=social_db.db, workers=4,
                        cluster_opts={"replication": 2, "fault_injector": inj})
        cluster = server.cluster
        result = server.submit("admin", QUERY.format("DR"))[0]
        assert not result.degraded
        assert subgraphs_equal(ref, result.subgraph)
        assert result.recovery["failovers"] == 1
        assert result.recovery["retries"] >= 1
        assert cluster.reliability_stats()["failed_workers"] == 1

    def test_two_nonadjacent_failures_recover(self, social_db):
        ref = social_db.execute(QUERY.format("LR2"))[0].subgraph
        inj = FaultInjector(seed=3, kill_schedule={0: [0], 1: [2]})
        server = Server(backend=social_db.db, workers=4,
                        cluster_opts={"replication": 2, "fault_injector": inj})
        result = server.submit("admin", QUERY.format("DR2"))[0]
        assert not result.degraded
        assert subgraphs_equal(ref, result.subgraph)
        assert result.recovery["failovers"] == 2

    def test_drops_retried_transparently(self, social_db):
        ref = social_db.execute(QUERY.format("LD"))[0].subgraph
        inj = FaultInjector(seed=11, drop_prob=0.25)
        server = Server(backend=social_db.db, workers=4,
                        cluster_opts={"replication": 2, "fault_injector": inj,
                                      "max_retries": 30})
        result = server.submit("admin", QUERY.format("DD"))[0]
        assert not result.degraded
        assert subgraphs_equal(ref, result.subgraph)
        if inj.stats.drops:
            assert result.recovery["retries"] >= 1
            assert result.recovery["extra_messages"] >= 1

    def test_unreplicated_failure_degrades_with_same_answer(self, social_db):
        ref = social_db.execute(QUERY.format("LU"))[0].subgraph
        inj = FaultInjector(seed=3, kill_schedule={0: [1]})
        server = Server(backend=social_db.db, workers=4,
                        cluster_opts={"fault_injector": inj})
        cluster = server.cluster
        result = server.submit("admin", QUERY.format("DU"))[0]
        assert result.degraded
        assert "WorkerFailed" in result.degraded_reason
        assert subgraphs_equal(ref, result.subgraph)
        assert cluster.degraded_statements == 1

    def test_timeout_degrades(self, social_db):
        server = Server(backend=social_db.db, workers=3)
        result = server.submit("admin", QUERY.format("DT"), timeout_s=0.0)[0]
        assert result.degraded
        assert "QueryTimeout" in result.degraded_reason
        assert result.subgraph.num_vertices > 0

    def test_degraded_mode_raises_when_fallback_disabled(self, social_db):
        inj = FaultInjector(seed=3, kill_schedule={0: [1]})
        server = Server(backend=social_db.db, workers=4,
                        cluster_opts={"fault_injector": inj,
                                      "allow_degraded": False})
        with pytest.raises(DegradedMode):
            server.submit("admin", QUERY.format("DX"))

    def test_breaker_opens_after_repeated_failures(self, social_db):
        # every statement re-kills nothing (worker stays dead, partition
        # lost with k=1) -> consecutive fatal failures trip the breaker
        inj = FaultInjector(seed=3, kill_schedule={0: [1]})
        server = Server(backend=social_db.db, workers=4,
                        cluster_opts={"fault_injector": inj})
        cluster = server.cluster
        for i in range(3):
            r = server.submit("admin", QUERY.format(f"DB{i}"))[0]
            assert r.degraded
        assert cluster.breaker.state == OPEN
        # breaker open: no distributed attempt, still correct answers
        r = server.submit("admin", QUERY.format("DB9"))[0]
        assert r.degraded and r.degraded_reason == "circuit breaker open"
        assert cluster.degraded_statements == 4

    def test_heal_restores_distributed_service(self, social_db):
        inj = FaultInjector(seed=3, kill_schedule={0: [1]})
        server = Server(backend=social_db.db, workers=4,
                        cluster_opts={"fault_injector": inj,
                                      "breaker": CircuitBreaker(failure_threshold=1)})
        cluster = server.cluster
        assert server.submit("admin", QUERY.format("DH0"))[0].degraded
        assert cluster.breaker.state == OPEN
        cluster.heal()
        result = server.submit("admin", QUERY.format("DH1"))[0]
        assert not result.degraded
        assert cluster.breaker.state == CLOSED

    def test_replicated_memory_costs_k_times(self, social_db):
        base = Cluster(social_db.db, 4, social_db.catalog)
        repl = Cluster(social_db.db, 4, social_db.catalog, replication=2)
        m1 = base.memory_per_worker()
        m2 = repl.memory_per_worker()
        assert sum(m2) == pytest.approx(2 * sum(m1))

    def test_recovery_stats_merge(self):
        a, b = RecoveryStats(), RecoveryStats()
        b.retries, b.extra_bytes = 2, 100
        a.merge(b)
        assert a.snapshot()["retries"] == 2
        assert a.snapshot()["extra_bytes"] == 100


class TestServerDegradation:
    def test_server_counts_degraded_statements(self, social_db):
        inj = FaultInjector(seed=3, kill_schedule={0: [1]})
        server = Server(backend=social_db.db, workers=4,
                        cluster_opts={"fault_injector": inj})
        result = server.submit("admin", QUERY.format("SD"))[0]
        assert result.degraded
        assert server.degraded_statements == 1

    def test_server_survives_failure_with_replication(self, social_db):
        inj = FaultInjector(seed=3, kill_schedule={0: [1]})
        server = Server(backend=social_db.db, workers=4,
                        cluster_opts={"replication": 2, "fault_injector": inj})
        result = server.submit("admin", QUERY.format("SR"))[0]
        assert not result.degraded
        assert result.recovery["failovers"] == 1
        assert server.degraded_statements == 0
