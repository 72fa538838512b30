"""Tests for the assembled GFS scheduler and its ablation variants."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    ClusterSimulator,
    GPUModel,
    SimulatorConfig,
    TaskType,
    reset_task_counter,
    run_simulation,
)
from repro.core import ABLATION_OVERRIDES, GFSConfig, GFSScheduler, make_ablation
from repro.core.gde import PreviousWeekPeakForecaster, SeasonalQuantileForecaster
from repro.dynamics import FaultInjector
from repro.schedulers import create_scheduler
from repro.workloads import get_scenario
from tests.conftest import build_task

_GATE_SPEC = importlib.util.spec_from_file_location(
    "perfbench_gate", Path(__file__).resolve().parent.parent / "perfbench" / "gate.py"
)
perfbench_gate = importlib.util.module_from_spec(_GATE_SPEC)
_GATE_SPEC.loader.exec_module(perfbench_gate)

#: ``SimulationMetrics`` digests (``perfbench/gate.py:digest``) of every GFS
#: variant and standalone PTS on 16 nodes, 8 simulated hours, spot scale 4,
#: seed 3.  A pure performance change in GDE, SQA or PTS leaves all of them
#: unchanged; the legacy placement twins share the live forecaster, so this
#: is the check that pins the forecaster's output.
GOLDEN_DIGESTS = {
    ("gfs", "default"):
        "d573926e280b136076a630a24bfec2b25944f58669c5565e7f5afd39cc2188f0",
    ("gfs", "spot_reclaim_storm"):
        "d47fc6321eb428b894bb8e49d7d634589a6779867eea2e12c3ffefd0f181034a",
    ("gfs-e", "default"):
        "e70e2f9644775e109570e26aa1eb7039a42f91b52941524180105bdcb0817352",
    ("gfs-e", "spot_reclaim_storm"):
        "b5e726f0027590a52accd8fc10fd1a10daac005f1602c6467deee2ad275a54f4",
    ("gfs-d", "default"):
        "d573926e280b136076a630a24bfec2b25944f58669c5565e7f5afd39cc2188f0",
    ("gfs-d", "spot_reclaim_storm"):
        "de26e44cfc2baf840f5ea78c687b1782c83f7b0cf7c944dcbc3cbc8657ba95d8",
    ("gfs-s", "default"):
        "58822549c7c7c67ba94183f130ddcd9baaaf67acd603956d6225506f5c5472a0",
    ("gfs-s", "spot_reclaim_storm"):
        "f7e152252c39e36c6a8308cf077e455c75460801f4687cb73a2e5c43f988c999",
    ("gfs-p", "default"):
        "d573926e280b136076a630a24bfec2b25944f58669c5565e7f5afd39cc2188f0",
    ("gfs-p", "spot_reclaim_storm"):
        "b4c1f411c38fed7b093e8269c841924520e4bf6481dd74ee1be27ed149d70910",
    ("gfs-sp", "default"):
        "58822549c7c7c67ba94183f130ddcd9baaaf67acd603956d6225506f5c5472a0",
    ("gfs-sp", "spot_reclaim_storm"):
        "66d971459204fda2c3c0d2d11e6aa0cc96bb49632ddd086e43c9a5842c3c3d4b",
    ("pts", "default"):
        "321999ba6f54538ba19868068f13cdfc52d39315e4d07b2363c25d5ad21a8c14",
    ("pts", "spot_reclaim_storm"):
        "4444f847303d1dfc69279143786622440fdc2eb95832360ca7003ecbbf38f34e",
}


def _create(variant, trace):
    kwargs = {} if variant == "pts" else {"org_history": trace.org_history}
    return create_scheduler(variant, **kwargs)


@pytest.fixture
def flat_history():
    return {"org-A": np.full(336, 100.0), "org-B": np.full(336, 60.0)}


@pytest.fixture
def started(flat_history):
    """A GFS scheduler bound to a 32-node cluster with quota initialised."""
    cluster = Cluster.homogeneous(32, 8, GPUModel.A100)
    scheduler = GFSScheduler(org_history=flat_history)
    scheduler.on_simulation_start(cluster, now=0.0)
    return cluster, scheduler


class TestConstruction:
    def test_forecaster_selection(self, flat_history):
        assert isinstance(GFSScheduler(GFSConfig(forecaster="seasonal")).gde.forecaster,
                          SeasonalQuantileForecaster)
        assert isinstance(GFSScheduler(GFSConfig(forecaster="prev-week-peak")).gde.forecaster,
                          PreviousWeekPeakForecaster)
        with pytest.raises(ValueError):
            GFSScheduler(GFSConfig(forecaster="oracle"))

    def test_ablation_overrides(self):
        assert make_ablation("gfs-e").config.forecaster == "prev-week-peak"
        assert make_ablation("gfs-d").config.adapt_eta is False
        assert make_ablation("gfs-s").config.use_colocation is False
        assert make_ablation("gfs-p").config.random_preemption is True
        sp = make_ablation("gfs-sp")
        assert sp.config.random_preemption and not sp.config.use_eviction_awareness
        assert set(ABLATION_OVERRIDES) == {"gfs", "gfs-e", "gfs-d", "gfs-s", "gfs-p", "gfs-sp"}

    def test_unknown_ablation_raises(self):
        with pytest.raises(KeyError):
            make_ablation("gfs-x")

    def test_ablation_names(self):
        assert make_ablation("gfs").name == "GFS"
        assert make_ablation("gfs-sp").name == "GFS-SP"


class TestQuotaIntegration:
    def test_quota_initialised_on_start(self, started):
        _, scheduler = started
        assert scheduler.sqa is not None
        # Capacity 256, predicted HP demand 160 -> quota near 96.
        assert 0.0 < scheduler.current_quota() <= 256.0

    def test_spot_rejected_beyond_quota(self, started):
        cluster, scheduler = started
        scheduler.sqa.current_quota = 8.0
        small = build_task(TaskType.SPOT, gpus_per_pod=4.0)
        big = build_task(TaskType.SPOT, gpus_per_pod=4.0, num_pods=4)
        assert scheduler.try_schedule(small, cluster, 0.0) is not None
        assert scheduler.try_schedule(big, cluster, 0.0) is None

    def test_hp_ignores_quota(self, started):
        cluster, scheduler = started
        scheduler.sqa.current_quota = 0.0
        hp = build_task(TaskType.HP, gpus_per_pod=8.0)
        assert scheduler.try_schedule(hp, cluster, 0.0) is not None

    def test_admitted_spot_gets_guarantee(self, started):
        cluster, scheduler = started
        spot = build_task(TaskType.SPOT, gpus_per_pod=1.0)
        scheduler.try_schedule(spot, cluster, 0.0)
        assert spot.guaranteed_hours == scheduler.config.guarantee_hours

    def test_tick_updates_quota_and_observes_demand(self, started):
        cluster, scheduler = started
        before = len(scheduler.sqa.history)
        scheduler.on_tick(cluster, now=3600.0, pending=[])
        assert len(scheduler.sqa.history) == before + 1
        # The observed demand for the current hour was recorded.
        hour = scheduler._hour_index(3600.0)
        assert len(scheduler.gde.forecaster.history["org-A"]) >= hour

    def test_eviction_feedback_only_counts_guarantee_violations(self, started):
        cluster, scheduler = started
        young = build_task(TaskType.SPOT, gpus_per_pod=1.0)
        young.run_logs.append(__import__("repro.cluster.task", fromlist=["RunLog"]).RunLog(start=0.0))
        old = build_task(TaskType.SPOT, gpus_per_pod=1.0)
        old.run_logs.append(__import__("repro.cluster.task", fromlist=["RunLog"]).RunLog(start=0.0))
        scheduler.on_task_evicted(young, cluster, now=600.0)          # violated guarantee
        scheduler.on_task_evicted(old, cluster, now=2 * 3600.0)      # past the guarantee
        assert len(scheduler._spot_evictions) == 1


class TestEndToEnd:
    def _run(self, scheduler_factory, trace, nodes=16):
        cluster = Cluster.homogeneous(nodes, 8, GPUModel.A100)
        scheduler = scheduler_factory(trace)
        return run_simulation(cluster, scheduler, trace.sorted_tasks(), SimulatorConfig())

    def test_gfs_full_simulation(self, tiny_trace):
        metrics = self._run(lambda t: GFSScheduler(org_history=t.org_history), tiny_trace)
        assert metrics.unfinished_tasks == 0
        assert metrics.hp.eviction_rate == 0.0
        assert metrics.spot.eviction_rate < 0.5

    def test_gfs_keeps_hp_queuing_low(self, tiny_trace):
        metrics = self._run(lambda t: GFSScheduler(org_history=t.org_history), tiny_trace)
        assert metrics.hp.jqt_mean < 600.0

    def _scenario_digest(self, variant, scenario_name):
        reset_task_counter()
        scenario = get_scenario(scenario_name)
        cluster = scenario.build_cluster(num_nodes=16)
        trace = scenario.build_trace(
            cluster_gpus=cluster.total_gpus(), duration_hours=8.0, spot_scale=4.0, seed=3
        )
        dynamics = FaultInjector(scenario.dynamics, seed=3) if scenario.dynamics else None
        sim = ClusterSimulator(
            cluster, _create(variant, trace), SimulatorConfig(), dynamics=dynamics
        )
        sim.submit_all(trace.sorted_tasks())
        metrics = sim.run()
        assert metrics.unfinished_tasks == 0
        return perfbench_gate.digest(metrics)

    @pytest.mark.parametrize(
        "variant", ["gfs", "gfs-e", "gfs-d", "gfs-s", "gfs-p", "gfs-sp", "pts"]
    )
    def test_ablation_variants_run(self, variant, tiny_trace):
        metrics = self._run(lambda t: _create(variant, t), tiny_trace)
        assert metrics.unfinished_tasks == 0
        for scenario_name in ("default", "spot_reclaim_storm"):
            assert self._scenario_digest(variant, scenario_name) == GOLDEN_DIGESTS[
                (variant, scenario_name)
            ], f"{variant}/{scenario_name}"

    def test_gfs_without_history_still_works(self, tiny_trace):
        metrics = self._run(lambda t: GFSScheduler(), tiny_trace)
        assert metrics.unfinished_tasks == 0
