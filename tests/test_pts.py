"""Tests for the Preemptive Task Scheduler: scoring, Algorithms 1-3."""

import pytest

from repro.cluster import Cluster, GPUModel, PodPlacement, TaskType
from repro.cluster.task import RunLog
from repro.core.pts import (
    PTSConfig,
    PreemptiveTaskScheduler,
    ScoringConfig,
    circuit_breaker_active,
    colocation_score,
    eviction_awareness_score,
    non_preemptive_placement,
    packing_score,
    preemption_cost,
    preemptive_placement,
    score_tuple,
    weighted_eviction_rate,
)
from tests.conftest import build_task


@pytest.fixture
def cluster():
    return Cluster.homogeneous(4, 8, GPUModel.A100)


def run_on(cluster, task, node_index=0, start=0.0):
    """Place a task on one node and mark it running (helper)."""
    node = cluster.nodes[node_index]
    placements = [PodPlacement(node_id=node.node_id, gpu_indices=())] * task.num_pods
    cluster.place_task(task, placements)
    task.run_logs.append(RunLog(start=start))
    from repro.cluster import TaskState

    task.state = TaskState.RUNNING
    return task


class TestScoring:
    def test_packing_score_prefers_fuller_nodes(self, cluster):
        node = cluster.nodes[0]
        assert packing_score(node, idle_gpus=8) == pytest.approx(0.0)
        assert packing_score(node, idle_gpus=2) == pytest.approx(0.75)

    def test_colocation_score_by_type(self, cluster):
        node = cluster.nodes[0]
        run_on(cluster, build_task(TaskType.HP, gpus_per_pod=4.0), 0)
        hp_score = colocation_score(node, build_task(TaskType.HP))
        spot_score = colocation_score(node, build_task(TaskType.SPOT))
        assert hp_score == pytest.approx(0.5)
        assert spot_score == pytest.approx(0.0)

    def test_weighted_eviction_rate_mixes_windows(self, cluster):
        node = cluster.nodes[0]
        config = ScoringConfig(gamma=0.8)
        node.record_eviction(90_000.0)          # inside the last hour
        node.record_eviction(30_000.0)          # only inside the last 24h
        rate = weighted_eviction_rate(node, now=90_100.0, config=config)
        assert rate == pytest.approx(0.8 * 1 + 0.2 * 2 / 24.0)

    def test_eviction_awareness_asymmetry(self, cluster):
        node = cluster.nodes[0]
        config = ScoringConfig(penalty=3.0)
        for i in range(20):
            node.record_eviction(1000.0 + i)
        hp = eviction_awareness_score(node, build_task(TaskType.HP), 2000.0, config)
        spot = eviction_awareness_score(node, build_task(TaskType.SPOT), 2000.0, config)
        assert hp > 0.0
        assert spot < 1.0
        assert hp + spot == pytest.approx(1.0, abs=1e-6)

    def test_circuit_breaker_trips_after_many_evictions(self, cluster):
        node = cluster.nodes[0]
        config = ScoringConfig(penalty=3.0)
        assert not circuit_breaker_active(node, 0.0, config)
        for i in range(50):
            node.record_eviction(1000.0 + i)
        assert circuit_breaker_active(node, 2000.0, config)

    def test_score_tuple_respects_ablation_switches(self, cluster):
        node = cluster.nodes[0]
        run_on(cluster, build_task(TaskType.HP, gpus_per_pod=4.0), 0)
        config = ScoringConfig()
        full = score_tuple(node, 4, build_task(TaskType.HP), 0.0, config)
        stripped = score_tuple(
            node, 4, build_task(TaskType.HP), 0.0, config,
            use_colocation=False, use_eviction_awareness=False,
        )
        assert full[1] > 0.0
        assert stripped[1] == 0.0 and stripped[2] == 0.0


class TestNonPreemptive:
    def test_places_all_pods_or_none(self, cluster):
        config = ScoringConfig()
        ok = non_preemptive_placement(build_task(TaskType.HP, num_pods=4, gpus_per_pod=8.0), cluster.nodes, 0.0, config)
        assert ok is not None and len(ok) == 4
        too_big = non_preemptive_placement(build_task(TaskType.HP, num_pods=5, gpus_per_pod=8.0), cluster.nodes, 0.0, config)
        assert too_big is None

    def test_colocation_prefers_same_type_node(self, cluster):
        config = ScoringConfig()
        run_on(cluster, build_task(TaskType.HP, gpus_per_pod=4.0), 0)
        run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=4.0), 1)
        placements = non_preemptive_placement(build_task(TaskType.SPOT, gpus_per_pod=2.0), cluster.nodes, 0.0, config)
        assert placements[0].node_id == cluster.nodes[1].node_id
        placements = non_preemptive_placement(build_task(TaskType.HP, gpus_per_pod=2.0), cluster.nodes, 0.0, config)
        assert placements[0].node_id == cluster.nodes[0].node_id

    def test_circuit_breaker_excludes_node_for_spot(self, cluster):
        config = ScoringConfig(penalty=3.0)
        bad_node = cluster.nodes[0]
        for i in range(50):
            bad_node.record_eviction(100.0 + i)
        run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=7.0), 0)  # most packed node
        placements = non_preemptive_placement(build_task(TaskType.SPOT, gpus_per_pod=1.0), cluster.nodes, 200.0, config)
        assert placements[0].node_id != bad_node.node_id

    def test_circuit_breaker_spares_fractional_spot_pods(self, cluster):
        config = ScoringConfig(penalty=3.0)
        bad_node = cluster.nodes[0]
        for i in range(50):
            bad_node.record_eviction(100.0 + i)
        run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=7.0), 0)
        fractional = build_task(TaskType.SPOT, gpus_per_pod=0.5)
        placements = non_preemptive_placement(fractional, cluster.nodes, 200.0, config)
        assert placements[0].node_id == bad_node.node_id  # packing wins, no breaker

    def test_packing_follows_earlier_pods_of_the_same_task(self, cluster):
        placements = non_preemptive_placement(
            build_task(TaskType.HP, num_pods=2, gpus_per_pod=4.0), cluster.nodes, 0.0, ScoringConfig()
        )
        assert placements[0].node_id == placements[1].node_id


class TestPreemptive:
    def test_preempts_cheapest_victims(self, cluster):
        now = 10_000.0
        # Node 0 hosts a spot task far from its checkpoint (expensive waste),
        # node 1 hosts one that just checkpointed (cheap).
        expensive = run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=7200.0,
                                               checkpoint_interval=7200.0), 0, start=now - 3000.0)
        cheap = run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=7200.0,
                                           checkpoint_interval=600.0), 1, start=now - 3000.0)
        # Fill the remaining nodes with HP so preemption is required.
        run_on(cluster, build_task(TaskType.HP, gpus_per_pod=8.0), 2)
        run_on(cluster, build_task(TaskType.HP, gpus_per_pod=8.0), 3)
        result = preemptive_placement(
            build_task(TaskType.HP, gpus_per_pod=8.0), cluster.nodes, cluster, now,
            beta=0.5, total_gpu_seconds=1e6,
        )
        assert result is not None
        placements, victims = result
        assert victims == [cheap.task_id]
        assert placements[0].node_id == cluster.nodes[1].node_id

    def test_returns_none_when_hp_everywhere(self, cluster):
        for i in range(4):
            run_on(cluster, build_task(TaskType.HP, gpus_per_pod=8.0), i)
        result = preemptive_placement(
            build_task(TaskType.HP, gpus_per_pod=8.0), cluster.nodes, cluster, 0.0,
            beta=0.5, total_gpu_seconds=1e6,
        )
        assert result is None

    def test_spot_task_cannot_use_preemptive_path(self, cluster):
        with pytest.raises(ValueError):
            preemptive_placement(
                build_task(TaskType.SPOT), cluster.nodes, cluster, 0.0, beta=0.5, total_gpu_seconds=1.0
            )

    def test_multi_pod_preemption(self, cluster):
        now = 5000.0
        for i in range(4):
            run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=7200.0), i, start=now - 1000.0)
        result = preemptive_placement(
            build_task(TaskType.HP, num_pods=2, gpus_per_pod=8.0), cluster.nodes, cluster, now,
            beta=0.5, total_gpu_seconds=1e6,
        )
        assert result is not None
        placements, victims = result
        assert len(placements) == 2
        assert len(victims) == 2

    def test_preemption_cost_increases_with_waste_and_count(self, cluster):
        now = 1000.0
        light = run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=1.0, duration=7200.0,
                                           checkpoint_interval=600.0), 0, start=now - 100.0)
        heavy = run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=7200.0,
                                           checkpoint_interval=7200.0), 1, start=now - 3000.0)
        cheap = preemption_cost([light], cluster, now, beta=0.5, total_gpu_seconds=1e5)
        costly = preemption_cost([light, heavy], cluster, now, beta=0.5, total_gpu_seconds=1e5)
        assert costly > cheap


class TestPTSFacade:
    def test_algorithm3_non_preemptive_first(self, cluster):
        pts = PreemptiveTaskScheduler()
        decision = pts.schedule(build_task(TaskType.HP, gpus_per_pod=8.0), cluster, 0.0, 1e6)
        assert decision is not None
        assert not decision.requires_preemption

    def test_algorithm3_falls_back_to_preemption_for_hp(self, cluster):
        pts = PreemptiveTaskScheduler()
        for i in range(4):
            run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=7200.0), i)
        hp_decision = pts.schedule(build_task(TaskType.HP, gpus_per_pod=8.0), cluster, 100.0, 1e6)
        assert hp_decision is not None and hp_decision.requires_preemption
        spot_decision = pts.schedule(build_task(TaskType.SPOT, gpus_per_pod=8.0), cluster, 100.0, 1e6)
        assert spot_decision is None

    def test_random_preemption_mode_still_feasible(self, cluster):
        pts = PreemptiveTaskScheduler(PTSConfig(random_preemption=True, seed=1))
        for i in range(4):
            run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=7200.0), i)
        decision = pts.schedule(build_task(TaskType.HP, gpus_per_pod=8.0), cluster, 100.0, 1e6)
        assert decision is not None
        assert decision.requires_preemption

    def test_queue_ordering_hp_then_large_then_fcfs(self):
        pts = PreemptiveTaskScheduler()
        small_hp = build_task(TaskType.HP, gpus_per_pod=1.0, submit_time=0.0)
        big_hp = build_task(TaskType.HP, num_pods=2, gpus_per_pod=8.0, submit_time=50.0)
        spot = build_task(TaskType.SPOT, gpus_per_pod=8.0, submit_time=0.0)
        ordered = pts.sort_queue([spot, small_hp, big_hp], 0.0)
        assert ordered[0] is big_hp
        assert ordered[1] is small_hp
        assert ordered[2] is spot
