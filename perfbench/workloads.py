"""The benchmark's four workloads, driven through the public ``repro`` API.

A run's seed names one or more *input seeds* (``input_seeds``).  A
*repetition* takes one input seed: a set-up, timed on its own, followed
by the measured work.  A run makes one repetition per input seed.
Replays use three traces per run and the service two sessions, so one
unlucky input moves a run's medians less.

* ``gfs-replay``   GFS batch replay of the paper's ``default`` scenario.
* ``gfs-storm``    GFS under ``spot_reclaim_storm`` (preemption, kills).
* ``chronus-replay`` Chronus FCFS replay on a large fleet; bypasses the
  GFS modules entirely.
* ``gfs-whatif``   a closed loop of one client on one keep-alive HTTP
  connection to an in-process ``SchedulerServer`` running a GFS session.

Replays are advanced half a simulated hour per call, the request a
streaming client makes; stepping is bit-identical to one ``run()``.

Every timed interval is recorded as ``(host seconds, reference seconds)``;
the reference figure rescales it by the machine speed the probe measured
around it (``speed.SpeedProbe``).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.cluster import ClusterSimulator, SimulatorConfig, reset_task_counter
from repro.core import GFSScheduler
from repro.dynamics import FaultInjector
from repro.obs import Recorder
from repro.schedulers import ChronusScheduler
from repro.workloads.scenarios import get_scenario
from speed import SpeedProbe

#: set-ups timed per repetition (the extra ones are discarded), so that
#: ``setup_s``, a ~0.1 s interval, is a median of many samples
REPLAY_SETUP_SAMPLES = 3
SETUP_SAMPLES = 5
#: input seeds of one run: traces of a replay, sessions of the service
TRACES_PER_RUN = 3
SESSIONS_PER_RUN = 2
#: simulated hours a replay advances per request
STEP_HOURS = 0.5


@dataclass
class Rep:
    """What one repetition measured and produced."""

    input_seed: int
    #: (host s, reference s) of each set-up
    setups: List[Tuple[float, float]]
    #: (tasks, host s, reference s) of each measured segment (replays: the
    #: whole replay; the service: one wave of submit + advance)
    segments: List[Tuple[int, float, float]]
    #: (host s, reference s) of each request (replays: half a simulated
    #: hour of advance; the service: one what-if query)
    requests: List[Tuple[float, float]]
    #: tasks simulated by the measured work
    tasks: int
    #: the object the correctness digest is taken over
    outputs: object
    #: requests attempted / failed inside the repetition
    attempted: int = 1
    failed: int = 0
    #: unfinished tasks at the end (must be 0)
    unfinished: int = 0
    #: the final ``SimulationMetrics`` (as a dict for the service)
    metrics: object = None
    #: pass counters from the attached recorder, when one was attached
    counters: Optional[Dict[str, float]] = None
    #: speed-probe kernel times taken during the repetition
    speed_samples: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class ReplaySpec:
    name: str
    scenario: str
    scheduler: str
    num_nodes: int
    hours: float
    spot_scale: float

    def input_seeds(self, seed: int) -> List[int]:
        """Trace seeds of one run; distinct runs seeds never share one."""
        return [seed * TRACES_PER_RUN + i for i in range(TRACES_PER_RUN)]

    def build(self, seed: int, recorder=None) -> ClusterSimulator:
        """Trace, cluster, scheduler and simulator, started (GDE fit, first quota)."""
        reset_task_counter()
        scenario = get_scenario(self.scenario)
        cluster = scenario.build_cluster(self.num_nodes)
        trace = scenario.build_trace(
            cluster_gpus=cluster.total_gpus(),
            duration_hours=self.hours,
            spot_scale=self.spot_scale,
            seed=seed,
        )
        if self.scheduler == "gfs":
            scheduler = GFSScheduler(org_history=trace.org_history)
        else:
            scheduler = ChronusScheduler()
        dynamics = FaultInjector(scenario.dynamics, seed=seed) if scenario.dynamics else None
        sim = ClusterSimulator(
            cluster, scheduler, SimulatorConfig(), dynamics=dynamics, recorder=recorder
        )
        sim.submit_all(trace.sorted_tasks())
        sim.start()
        return sim

    def rep(self, seed: int, traced: bool = False) -> Rep:
        recorder = Recorder(pass_record_limit=1, tick_sample_limit=1) if traced else None
        probe = SpeedProbe()
        setups = []
        for _ in range(REPLAY_SETUP_SAMPLES):
            begin = perf_counter()
            sim = self.build(seed, recorder)
            setups.append((perf_counter() - begin, probe.mark()))
        step = STEP_HOURS * 3600.0
        until = sim.now
        steps = []
        while not sim.done:
            until += step
            begin = perf_counter()
            sim.advance(until=until)
            steps.append((perf_counter() - begin, probe.mark()))
        begin = perf_counter()
        metrics = sim.finalize()
        tail = (perf_counter() - begin, probe.mark())
        requests = [(dt, probe.reference_s(dt, i)) for dt, i in steps]
        segment = (
            len(sim.all_tasks),
            sum(r[0] for r in requests) + tail[0],
            sum(r[1] for r in requests) + probe.reference_s(*tail),
        )
        counters = None
        if recorder is not None:
            counters = {
                name: recorder.counter_value(name)
                for name in ("sim.passes", "sim.pass.memo_hits",
                             "sim.pass.index_rejects", "sim.pass.searches")
            }
        return Rep(
            input_seed=seed,
            setups=[(t[0], probe.reference_s(*t)) for t in setups],
            segments=[segment],
            requests=requests,
            tasks=len(sim.all_tasks),
            outputs=metrics,
            attempted=len(requests),
            unfinished=metrics.unfinished_tasks,
            metrics=metrics,
            counters=counters,
            speed_samples=probe.samples,
        )


@dataclass(frozen=True)
class WhatIfSpec:
    """Waves of submit + advance (writes) alternating with what-if queries (reads)."""

    name: str
    num_nodes: int
    hours: float
    waves: int
    wave_size: int
    queries_per_wave: int
    horizon_hours: float
    #: probes run at most this long, so most finish inside the horizon
    probe_max_s: int

    def input_seeds(self, seed: int) -> List[int]:
        """Session seeds of one run; the what-if tail comes from two sessions."""
        return [seed * SESSIONS_PER_RUN + i for i in range(SESSIONS_PER_RUN)]

    def _task(
        self, rng: random.Random, task_id: str, submit_time: float, hp: bool, max_s: int
    ) -> dict:
        return {
            "task_id": task_id,
            "task_type": 1 if hp else 0,
            "num_pods": rng.choice((1, 1, 1, 2)),
            "gpus_per_pod": rng.choice((1.0, 2.0, 4.0, 8.0)),
            "duration": float(rng.randrange(300, max_s, 60)),
            "submit_time": submit_time,
            "org": rng.choice(("org-A", "org-B", "org-C", "org-D")),
        }

    def inputs(self, seed: int):
        """Per wave: the submitted tasks, the advance bound and the probes."""
        rng = random.Random(seed)
        span = self.hours * 3600.0 / self.waves
        plan = []
        for wave in range(self.waves):
            start = wave * span
            tasks = [
                self._task(rng, f"w{wave:02d}-{i:04d}", start + i * span / self.wave_size,
                           hp=rng.random() < 0.3, max_s=7200)
                for i in range(self.wave_size)
            ]
            probes = [
                self._task(rng, f"probe-{wave:02d}-{q:02d}", (wave + 1) * span,
                           hp=(q % 2 == 0), max_s=self.probe_max_s)
                for q in range(self.queries_per_wave)
            ]
            plan.append((tasks, (wave + 1) * span, probes))
        return plan

    def rep(self, seed: int, tracer=None) -> Rep:
        return asyncio.run(self._rep(seed, tracer))

    async def _rep(self, seed: int, tracer) -> Rep:
        from repro.service import AsyncServiceClient, SchedulerServer

        server = SchedulerServer()
        await server.start(port=0)
        client = AsyncServiceClient(server.host, server.port, retries=0)
        probe = SpeedProbe()
        loop = asyncio.get_running_loop()
        attempted = failed = 0

        async def call(kind: str, coro):
            """Send one request; returns (reply, (host s, speed sample index))."""
            nonlocal attempted, failed
            attempted += 1
            token = tracer.begin_request() if tracer is not None else None
            begin = perf_counter()
            try:
                reply = await coro
            except Exception:
                failed += 1
                raise
            finally:
                dt = perf_counter() - begin
                if token is not None:
                    tracer.end_request(kind, token)
            # The kernel runs on the executor thread that served the
            # request, so it samples the speed of the core the work ran on.
            return reply, (dt, await loop.run_in_executor(None, probe.mark))

        try:
            # Set-up is sampled on spare sessions too, so every repetition
            # yields SETUP_SAMPLES session creations.
            setups = []
            for _ in range(SETUP_SAMPLES):
                created, timing = await call("create", client.create_session(
                    scheduler="gfs", num_nodes=self.num_nodes, duration_hours=self.hours,
                    seed=seed,
                ))
                setups.append(timing)
                sid = created["session_id"]
                if len(setups) < SETUP_SAMPLES:
                    await call("delete", client.delete_session(sid))
            segments = []
            requests = []
            answers = []
            submitted = 0
            for tasks, until, probes in self.inputs(seed):
                _, submit_t = await call("submit", client.submit(sid, tasks))
                _, advance_t = await call("advance", client.advance(sid, until=until))
                segments.append((len(tasks), submit_t, advance_t))
                submitted += len(tasks)
                for task in probes:
                    answer, timing = await call("what_if", client.what_if(
                        sid, task, horizon_hours=self.horizon_hours))
                    requests.append(timing)
                    answer.pop("session_id", None)
                    answers.append(answer)
            await call("advance", client.advance(sid))
            metrics, _ = await call("metrics", client.metrics(sid))
            counters = None
            if tracer is not None:
                stats, _ = await call("stats", client.stats(sid))
                counters = stats["recorder"]["counters"]
            await call("delete", client.delete_session(sid))
        finally:
            await client.close()
            await server.stop()
        ref = probe.reference_s
        return Rep(
            input_seed=seed,
            setups=[(t[0], ref(*t)) for t in setups],
            segments=[(n, a[0] + b[0], ref(*a) + ref(*b)) for n, a, b in segments],
            requests=[(t[0], ref(*t)) for t in requests],
            tasks=submitted,
            outputs={"what_if": answers, "metrics": metrics},
            attempted=attempted,
            failed=failed,
            unfinished=int(metrics["unfinished_tasks"]),
            metrics=metrics,
            counters=counters,
            speed_samples=probe.samples,
        )


WORKLOADS = {
    spec.name: spec
    for spec in (
        ReplaySpec("gfs-replay", "default", "gfs", num_nodes=128, hours=24.0, spot_scale=2.0),
        ReplaySpec("gfs-storm", "spot_reclaim_storm", "gfs", num_nodes=96, hours=16.0,
                   spot_scale=2.0),
        ReplaySpec("chronus-replay", "default", "chronus", num_nodes=512, hours=24.0,
                   spot_scale=2.0),
        WhatIfSpec("gfs-whatif", num_nodes=32, hours=12.0, waves=12, wave_size=24,
                   queries_per_wave=6, horizon_hours=0.5, probe_max_s=900),
    )
}
