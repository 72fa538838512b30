#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload gfs-replay --seed 7 --seconds 30 --trace 0

``--trace 0`` makes one repetition per input of the run, starting no new
one once ``--seconds`` is spent, and reports the end-to-end metrics.  The
inputs are sized to take less than 30 s on two cores.  ``--trace 1`` runs
one untraced and one traced repetition and reports the per-layer metrics
taken from spans around each layer's public functions; spans are written
to ``.perfbench-out/``.  The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a report with provenance, output digests and the paper's outcome metrics.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = Path(".perfbench-out")


def outcomes(metrics) -> dict:
    """The paper's outcome metrics of one repetition (simulated, deterministic)."""
    m = metrics if isinstance(metrics, dict) else metrics.as_dict()
    return {
        "spot_eviction_rate": m["spot"]["eviction_rate"],
        "spot_jqt_mean_s": m["spot"]["jqt_mean"],
        "hp_jqt_p99_s": m["hp"]["jqt_p99"],
        "allocation_rate": m["allocation_rate_mean"],
        "goodput_fraction": m["reliability"]["goodput_fraction"],
    }


def tasks_killed(metrics) -> int:
    m = metrics if isinstance(metrics, dict) else metrics.as_dict()
    return int(m["reliability"]["tasks_killed"])


class Gate:
    """Counts operations and checks each repetition's outputs."""

    def __init__(self, workload: str):
        from gate import load_pins

        self.workload = workload
        self.pins = load_pins()
        self.attempted = 0
        self.failed = 0
        #: input seed -> digest of its first repetition; a traced run
        #: repeats its input, and the repeat must give the same digest
        self.digests = {}
        #: input seed -> whether a pin exists for it
        self.pinned = {}
        self.problems = []
        self.self_check = None

    def record_error(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(what)

    def accept(self, rep) -> None:
        """Account for ``rep`` and check its outputs."""
        import gate

        seed = rep.input_seed
        value = gate.digest(rep.outputs)
        if self.self_check is None:
            perturbed = gate.digest(gate.nudged(rep.outputs))
            self.self_check = gate.self_check(self.workload, seed, value, perturbed)
            if not self.self_check:
                self.problems.append("gate self-check: a tampered digest was accepted")
        ok_pin, expected = gate.check(self.pins, self.workload, seed, value)
        self.pinned[seed] = expected is not None
        ok = True
        if not ok_pin:
            ok = False
            self.problems.append(f"input seed {seed}: digest {value} != pinned {expected}")
        first = self.digests.setdefault(seed, value)
        if value != first:
            ok = False
            self.problems.append(f"input seed {seed}: digest {value} differs from its first repetition")
        if rep.unfinished != 0:
            ok = False
            self.problems.append(f"input seed {seed}: {rep.unfinished} unfinished tasks")
        # the repetition's requests plus one output check
        self.attempted += rep.attempted + 1
        self.failed += rep.failed + (0 if ok else 1)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.self_check) and not self.problems


def _run_rep(spec, seed, gate_, **kwargs):
    begin = perf_counter()
    try:
        rep = spec.rep(seed, **kwargs)
    except Exception:  # noqa: BLE001 - a failed repetition is a counted failure
        traceback.print_exc(file=sys.stderr)
        gate_.record_error(f"input seed {seed}: repetition raised")
        return None, perf_counter() - begin
    wall = perf_counter() - begin
    gate_.accept(rep)
    return rep, wall


def _quantile(values, q: int) -> float:
    """The q-th decile of ``values`` (inclusive method)."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def summarize(reps, reference: bool) -> dict:
    """Timing metrics of a run, in reference seconds or in host seconds."""
    k = 1 if reference else 0
    requests = [t[k] for r in reps for t in r.requests]
    return {
        "tasks_per_s": (
            statistics.median(seg[0] / seg[1 + k] for r in reps for seg in r.segments), "1/s"
        ),
        "request_p50_ms": (statistics.median(requests) * 1000.0, "ms"),
        "request_p90_ms": (_quantile(requests, 9) * 1000.0, "ms"),
        "setup_s": (statistics.median(t[k] for r in reps for t in r.setups), "s"),
    }


def timed_run(spec, seed: int, seconds: float):
    gate_ = Gate(spec.name)
    reps = []
    skipped = []
    start = perf_counter()
    for input_seed in spec.input_seeds(seed):
        if reps and perf_counter() - start > seconds:
            skipped.append(input_seed)
            continue
        rep, _ = _run_rep(spec, input_seed, gate_)
        if rep is not None:
            reps.append(rep)
    measured_s = perf_counter() - start
    if not reps:
        return gate_, {}, {}
    metrics = summarize(reps, reference=True)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    host = summarize(reps, reference=False)
    requests = [t[1] for r in reps for t in r.requests]
    p90 = metrics["request_p90_ms"][0] / 1000.0
    report = {
        "measured_s": measured_s,
        "skipped_input_seeds": skipped,
        "repetitions": len(reps),
        "requests": len(requests),
        "requests_beyond_p90": sum(1 for x in requests if x > p90),
        "host_time_metrics": {name: value for name, (value, _) in host.items()},
        "speed_probe_median_s": statistics.median(x for r in reps for x in r.speed_samples),
        "outcomes": {str(r.input_seed): outcomes(r.metrics) for r in reps},
    }
    return gate_, metrics, report


def traced_run(spec, seed: int):
    from tracer import Tracer, layer_targets
    from workloads import ReplaySpec

    gate_ = Gate(spec.name)
    seed = spec.input_seeds(seed)[0]
    untraced, untraced_wall = _run_rep(spec, seed, gate_)
    tracer = Tracer()
    tracer.install(layer_targets())
    try:
        if isinstance(spec, ReplaySpec):
            traced, traced_wall = _run_rep(spec, seed, gate_, traced=True)
        else:
            traced, traced_wall = _run_rep(spec, seed, gate_, tracer=tracer)
    finally:
        restored = tracer.uninstall()
    if not restored:
        gate_.problems.append("shims were not removed")
    if untraced is None or traced is None:
        return gate_, {}, {}
    spans_path = OUT_DIR / f"spans-{spec.name}-seed{seed}.json.gz"
    tracer.write(spans_path)
    metrics = layer_metrics(tracer, traced, traced_wall)
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    for name, value in outcomes(traced.metrics).items():
        metrics[name] = (value, _OUTCOME_UNITS[name])
    report = {
        "spans": len(tracer.spans),
        "spans_file": str(spans_path),
        "design": design_checks(spec.name, metrics),
        "outcomes": outcomes(traced.metrics),
    }
    return gate_, metrics, report


_OUTCOME_UNITS = {
    "spot_eviction_rate": "ratio",
    "spot_jqt_mean_s": "s",
    "hp_jqt_p99_s": "s",
    "allocation_rate": "ratio",
    "goodput_fraction": "ratio",
}


def layer_metrics(tracer, rep, wall_s: float) -> dict:
    """Per-layer metrics of one traced repetition."""
    totals = tracer.totals()
    calls = tracer.calls

    def span(name, field="s"):
        return totals[name][field] if name in totals else 0.0

    def n(key):
        return calls.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    counters = rep.counters or {}
    offers = n("GFSScheduler.try_schedule") + n("ChronusScheduler.try_schedule")
    decisions = n(("GFSScheduler.try_schedule", "ok")) + n(("ChronusScheduler.try_schedule", "ok"))
    np_key = "repro.core.pts.scheduler.non_preemptive_placement"
    pre_key = "repro.core.pts.scheduler.preemptive_placement"
    m = {
        # cluster.simulator
        "simulator.events": (tracer.events, "count"),
        "simulator.passes": (counters.get("sim.passes", 0.0), "count"),
        "simulator.offers": (offers, "count"),
        "simulator.offers_per_task": (ratio(offers, rep.tasks), "ratio"),
        "simulator.self_s": (span("simulator.advance", "self_s"), "s"),
        # schedulers.placement
        "placement.sort_queue_s": (span("placement.sort_queue"), "s"),
        "placement.sort_queue_calls": (span("placement.sort_queue", "calls"), "count"),
        "placement.clone_views_calls": (n("PlacementContext.clone_views"), "count"),
        "placement.nodeview_clones": (n("NodeView.clone"), "count"),
        "placement.try_schedule_self_s": (span("placement.try_schedule", "self_s"), "s"),
        "placement.memo_hits": (counters.get("sim.pass.memo_hits", 0.0), "count"),
        "placement.index_rejects": (counters.get("sim.pass.index_rejects", 0.0), "count"),
        "placement.searches": (counters.get("sim.pass.searches", 0.0), "count"),
        "placement.success_ratio": (ratio(decisions, offers), "ratio"),
        # core.gde
        "gde.fit_s": (span("gde.fit"), "s"),
        "gde.predict_calls": (span("gde.predict", "calls"), "count"),
        "gde.predict_s": (span("gde.predict"), "s"),
        "gde.observe_calls": (n("GPUDemandEstimator.observe"), "count"),
        # core.sqa
        "sqa.compute_quota_calls": (span("sqa.compute_quota", "calls"), "count"),
        "sqa.compute_quota_self_s": (span("sqa.compute_quota", "self_s"), "s"),
        "sqa.admits_calls": (n("SpotQuotaAllocator.admits"), "count"),
        "sqa.admit_ratio": (
            ratio(n(("SpotQuotaAllocator.admits", "ok")), n("SpotQuotaAllocator.admits")),
            "ratio",
        ),
        # core.pts
        "pts.schedule_calls": (span("pts.schedule", "calls"), "count"),
        "pts.schedule_self_s": (span("pts.schedule", "self_s"), "s"),
        "pts.nonpreemptive_calls": (n(np_key), "count"),
        "pts.nonpreemptive_s": (span("pts.nonpreemptive"), "s"),
        "pts.nonpreemptive_success_ratio": (ratio(n((np_key, "ok")), n(np_key)), "ratio"),
        "pts.preemptive_calls": (n(pre_key), "count"),
        "pts.preemptive_s": (span("pts.preemptive"), "s"),
        "pts.preemptive_success_ratio": (ratio(n((pre_key, "ok")), n(pre_key)), "ratio"),
        "pts.eviction_count_calls": (n("Node.eviction_count_since"), "count"),
        # dynamics
        "cluster.node_transitions": (span("cluster.node_transition", "calls"), "count"),
        "cluster.node_transition_s": (span("cluster.node_transition"), "s"),
        "dynamics.tasks_killed": (tasks_killed(rep.metrics), "count"),
        # service
        "simulator.fork_s": (span("simulator.fork"), "s"),
        "simulator.fork_calls": (span("simulator.fork", "calls"), "count"),
        "whatif.fork_advance_s": (span("whatif.fork_advance"), "s"),
        "whatif.fork_events": (tracer.fork_events, "count"),
        "session.what_if_s": (span("session.what_if"), "s"),
        "session.advance_s": (span("session.advance"), "s"),
        "session.submit_s": (span("session.submit"), "s"),
        "service.http_overhead_ms": (tracer.http_overhead_ms(), "ms"),
        # set-up
        "workload.trace_build_s": (span("workload.trace_build"), "s"),
        "scheduler.start_s": (span("scheduler.start"), "s"),
        # how much of the run the GFS modules account for
        "trace.gfs_core_share": (tracer.exclusive_share(("gde.", "sqa.", "pts."), wall_s), "ratio"),
    }
    return m


def design_checks(workload: str, metrics: dict) -> dict:
    """Whether the traced run shows the workload design holds."""
    value = {name: v for name, (v, _) in metrics.items()}
    gfs_calls = value["gde.predict_calls"] + value["sqa.compute_quota_calls"] + value["pts.schedule_calls"]
    checks = {"fork_calls_only_on_whatif": (value["simulator.fork_calls"] > 0) == (workload == "gfs-whatif")}
    if workload == "gfs-replay":
        checks["gfs_core_majority"] = value["trace.gfs_core_share"] > 0.5
    if workload == "chronus-replay":
        checks["gfs_modules_idle"] = gfs_calls == 0
    if workload == "gfs-storm":
        checks["preemption_and_transitions"] = (
            value["pts.preemptive_calls"] > 0 and value["cluster.node_transitions"] > 0
        )
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/repro not found; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import provenance
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    envelope = provenance.collect(ROOT)
    spec = WORKLOADS[args.workload]
    if args.trace:
        gate_, metrics, report = traced_run(spec, args.seed)
    else:
        gate_, metrics, report = timed_run(spec, args.seed, args.seconds)
    unpinned = sorted(seed for seed, known in gate_.pinned.items() if not known)
    if unpinned:
        print(f"perfbench: input seeds {unpinned} have no pinned digest; only "
              "unfinished tasks (and, traced, the repeat) are checked", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            gate_.problems.append(f"metric {name} is {value}")
            metrics[name] = (0.0, unit)
    report.update(
        workload=spec.name,
        seed=args.seed,
        trace=args.trace,
        input_seeds=sorted(gate_.digests),
        digests=gate_.digests,
        pinned=all(gate_.pinned.values()) if gate_.pinned else False,
        gate_self_check=gate_.self_check,
        problems=gate_.problems[:20],
        provenance=envelope,
    )
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": gate_.correct,
        "attempted": gate_.attempted,
        "failed": gate_.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
