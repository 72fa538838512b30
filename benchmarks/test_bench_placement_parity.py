"""Parity harness: capacity-indexed placement vs the frozen legacy search.

The PR-4 placement overhaul (capacity-indexed candidate selection, shared
per-pass ``PlacementContext``, failed-shape memo) is a pure performance
change: every scheduler must make the *same greedy choices with the same
deterministic tie-breaks* as the pre-refactor linear scan.  This harness
replays every registered scenario — plus an ingested external-trace
fixture — under every scheduler family twice, once with the production
schedulers and once with their legacy twins from ``benchmarks/legacy``
(verbatim pre-refactor search wired into the current engine), and asserts
the resulting :class:`SimulationMetrics` are bit-identical.

``gfs-p`` is included deliberately: its random preemption draws from a
seeded rng, so any divergence in candidate enumeration order, plan-list
construction or memoisation of rng-consuming searches desynchronises the
stream and shows up here.

A final check runs cells through the parallel experiment engine at
``--workers 1`` and ``--workers 2`` to pin worker-count independence of
the new placement path.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_placement_parity.py -q
"""

from __future__ import annotations

from pathlib import Path

import pytest

from _bench_common import assert_metrics_identical
from legacy import create_legacy_scheduler
from repro.cluster import ClusterSimulator, SimulationMetrics, SimulatorConfig, reset_task_counter
from repro.experiments.engine import (
    ExperimentEngine,
    SchedulerSpec,
    SimulationJob,
    WorkloadSpec,
    execute_job,
)
from repro.experiments.config import ExperimentScale
from repro.schedulers import create_scheduler
from repro.workloads import get_scenario, scenario_names

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

#: Scheduler line-up: the four baselines, full GFS, the random-
#: preemption ablation (rng-stream parity), and the two ablations that
#: switch off PTS node scores (``gfs-s``: no co-location score,
#: ``gfs-sp``: no eviction awareness or circuit breaker).
SCHEDULERS = ("chronus", "yarn-cs", "fgd", "lyra", "gfs", "gfs-p", "gfs-s", "gfs-sp")

#: Small but non-trivial replay scale, enough to hit the preemptive and
#: fractional-pod paths in every scenario.
NUM_NODES = 16
DURATION_HOURS = 8.0
SPOT_SCALE = 2.0
SEED = 3


def _all_scenarios():
    # Chaos scenarios carry cluster dynamics, which postdate the frozen
    # legacy twins; their parity/conservation coverage lives in
    # tests/test_chaos_scenarios.py and benchmarks/test_bench_dynamics.py.
    static = [n for n in scenario_names() if get_scenario(n).dynamics is None]
    return static + [f"trace:{FIXTURES / 'philly_small.csv'}"]


def _run(scenario_name: str, scheduler_name: str, legacy: bool) -> SimulationMetrics:
    reset_task_counter()
    scenario = get_scenario(scenario_name)
    cluster = scenario.build_cluster(num_nodes=NUM_NODES)
    trace = scenario.build_trace(
        cluster_gpus=cluster.total_gpus(),
        duration_hours=DURATION_HOURS,
        spot_scale=SPOT_SCALE,
        seed=SEED,
    )
    kwargs = {}
    if scheduler_name.startswith("gfs"):
        kwargs["org_history"] = trace.org_history
    factory = create_legacy_scheduler if legacy else create_scheduler
    scheduler = factory(scheduler_name, **kwargs)
    sim = ClusterSimulator(cluster, scheduler, SimulatorConfig())
    sim.submit_all(trace.sorted_tasks())
    return sim.run()


@pytest.mark.parametrize("scenario_name", _all_scenarios())
@pytest.mark.parametrize("scheduler_name", SCHEDULERS)
def test_placement_parity(scenario_name, scheduler_name):
    new = _run(scenario_name, scheduler_name, legacy=False)
    old = _run(scenario_name, scheduler_name, legacy=True)
    assert_metrics_identical(new, old, f"{scenario_name}/{scheduler_name}")


def test_placement_parity_across_worker_counts(tmp_path):
    """The indexed path stays bit-identical through the process-pool engine."""
    scale = ExperimentScale(name="parity", num_nodes=12, duration_hours=6.0, seed=9)
    jobs = [
        SimulationJob(
            key=f"parity/{kind}",
            scale=scale,
            scheduler=SchedulerSpec(kind=kind),
            workload=WorkloadSpec(scenario="default", spot_scale=2.0),
        )
        for kind in ("lyra", "gfs")
    ]
    serial = {job.key: execute_job(job) for job in jobs}
    for workers in (1, 2):
        engine = ExperimentEngine(workers=workers)
        pooled = engine.run(jobs)
        for key, metrics in serial.items():
            assert_metrics_identical(pooled[key], metrics, f"{key}@workers={workers}")
