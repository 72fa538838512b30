"""Layer tracing for the traced benchmark run.

The tracer wraps public functions of each layer at class or module level
(``install``) and puts the originals back (``uninstall``).  A timed
wrapper records one span per call: name, start, end, parent span and the
request id current when it opened.  A counting wrapper only counts calls,
for functions too small and too frequent to time without distorting the
run.  Spans stay in memory and are written out once, after the run.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Spans opened
on another thread (the service's executor) have no parent there, so they
are linked to the client request through the request id instead.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import weakref
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (owner, attribute, span name or None for count-only, result classifier)
Target = Tuple[object, str, Optional[str], Optional[Callable[[object], str]]]


def _success(result) -> str:
    return "ok" if result is not None else "none"


def _truthy(result) -> str:
    return "ok" if result else "none"


def layer_targets() -> List[Target]:
    """Every function the traced run wraps, by layer."""
    from repro.cluster import Cluster, ClusterSimulator
    from repro.cluster.node import Node
    from repro.core import GFSScheduler
    from repro.core.gde import GPUDemandEstimator
    from repro.core.pts import scheduler as pts_scheduler
    from repro.core.pts.scheduler import PreemptiveTaskScheduler
    from repro.core.sqa import SpotQuotaAllocator
    from repro.schedulers import ChronusScheduler
    from repro.schedulers.placement import NodeView, PlacementContext
    from repro.service.session import SimulationSession
    from repro.workloads.scenarios import Scenario

    return [
        # cluster.simulator
        (ClusterSimulator, "advance", "simulator.advance", None),
        (ClusterSimulator, "start", "scheduler.start", None),
        (ClusterSimulator, "fork", "simulator.fork", None),
        # schedulers.placement (the schedulers' entry points)
        (GFSScheduler, "sort_queue", "placement.sort_queue", None),
        (ChronusScheduler, "sort_queue", "placement.sort_queue", None),
        (GFSScheduler, "try_schedule", "placement.try_schedule", _success),
        (ChronusScheduler, "try_schedule", "placement.try_schedule", _success),
        (PlacementContext, "clone_views", None, None),
        (NodeView, "clone", None, None),
        # core.gde
        (GPUDemandEstimator, "fit", "gde.fit", None),
        (GPUDemandEstimator, "predict", "gde.predict", None),
        (GPUDemandEstimator, "observe", None, None),
        # core.sqa
        (SpotQuotaAllocator, "compute_quota", "sqa.compute_quota", None),
        (SpotQuotaAllocator, "admits", None, _truthy),
        # core.pts
        (PreemptiveTaskScheduler, "schedule", "pts.schedule", _success),
        (pts_scheduler, "non_preemptive_placement", "pts.nonpreemptive", _success),
        (pts_scheduler, "preemptive_placement", "pts.preemptive", _success),
        (Node, "eviction_count_since", None, None),
        # dynamics
        (Cluster, "deactivate_node", "cluster.node_transition", None),
        (Cluster, "activate_node", "cluster.node_transition", None),
        # service
        (SimulationSession, "what_if", "session.what_if", None),
        (SimulationSession, "advance", "session.advance", None),
        (SimulationSession, "submit", "session.submit", None),
        # set-up
        (Scenario, "build_trace", "workload.trace_build", None),
    ]


def _key(owner, attr: str) -> str:
    return f"{getattr(owner, '__name__', owner)}.{attr}"


class Tracer:
    """Span and call-count sink plus the shims that feed it."""

    def __init__(self) -> None:
        #: (span id, name, start, end, parent id, request id, child seconds)
        self.spans: List[Tuple[int, str, float, float, int, int, float]] = []
        #: calls per wrapped function, and per (function, outcome)
        self.calls: Counter = Counter()
        #: events processed by ``advance`` (all simulators / forks only)
        self.events = 0
        self.fork_events = 0
        #: id of the client request in flight (0 outside any request)
        self.request_id = 0
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()
        self._saved: List[Tuple[object, str, bool, object]] = []
        self._forks: "weakref.WeakSet" = weakref.WeakSet()

    # ------------------------------------------------------------------
    # Shims
    # ------------------------------------------------------------------
    def install(self, targets: List[Target]) -> None:
        for owner, attr, span_name, classify in targets:
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._saved.append((owner, attr, own, original))
            setattr(owner, attr, self._wrap(_key(owner, attr), original, span_name, classify))

    def uninstall(self) -> bool:
        """Restore every original; ``True`` when all are back in place."""
        for owner, attr, own, original in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        restored = all(
            (vars(owner).get(attr) is original) if own else (attr not in vars(owner))
            for owner, attr, own, original in self._saved
        )
        self._saved.clear()
        return restored

    def _wrap(self, key: str, fn, span_name: Optional[str], classify):
        calls = self.calls
        if span_name is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[key] += 1
                if classify is not None:
                    calls[(key, classify(result))] += 1
                return result

            return counted

        is_advance = key == "ClusterSimulator.advance"
        is_fork = key == "ClusterSimulator.fork"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            name = span_name
            if is_advance and args[0] in self._forks:
                name = "whatif.fork_advance"
            stack = self._stack()
            with self._lock:
                self._next_id += 1
                span_id = self._next_id
            frame = [span_id, 0.0]  # id, seconds spent in direct children
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.spans.append(
                    (span_id, name, start, end, parent[0] if parent else 0,
                     self.request_id, frame[1])
                )
            calls[key] += 1
            if classify is not None:
                calls[(key, classify(result))] += 1
            if is_advance:
                self.events += result
                if name == "whatif.fork_advance":
                    self.fork_events += result
            elif is_fork:
                self._forks.add(result)
            return result

        return timed

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # Client-side request spans (recorded by the what-if workload)
    # ------------------------------------------------------------------
    def begin_request(self) -> Tuple[int, float]:
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        self.request_id = span_id
        return span_id, perf_counter()

    def end_request(self, kind: str, token: Tuple[int, float]) -> None:
        span_id, start = token
        self.spans.append((span_id, f"client.{kind}", start, perf_counter(), 0, span_id, 0.0))
        self.request_id = 0

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s``."""
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for _, name, start, end, _, _, child in self.spans:
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child
        return out

    def exclusive_share(self, prefixes: Tuple[str, ...], wall_s: float) -> float:
        """Share of ``wall_s`` inside spans named with ``prefixes``.

        Nested spans of the same layers count once (only the outermost).
        """
        parent_of = {span[0]: span[4] for span in self.spans}
        name_of = {span[0]: span[1] for span in self.spans}
        covered = 0.0
        for span_id, name, start, end, parent, _, _ in self.spans:
            if not name.startswith(prefixes):
                continue
            ancestor, nested = parent, False
            while ancestor:
                if name_of.get(ancestor, "").startswith(prefixes):
                    nested = True
                    break
                ancestor = parent_of.get(ancestor, 0)
            if not nested:
                covered += end - start
        return covered / wall_s if wall_s > 0 else 0.0

    def http_overhead_ms(self) -> float:
        """Median over requests of client latency minus server session time."""
        session: Dict[int, float] = defaultdict(float)
        for _, name, start, end, _, rid, _ in self.spans:
            if rid and name.startswith("session."):
                session[rid] += end - start
        gaps = sorted(
            (end - start - session[rid]) * 1000.0
            for _, name, start, end, _, rid, _ in self.spans
            if name.startswith("client.") and rid in session
        )
        return gaps[len(gaps) // 2] if gaps else 0.0

    def write(self, path: Path) -> None:
        """Write every span as one gzip'd JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = ("id", "name", "start", "end", "parent", "request", "child_s")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": names, "spans": self.spans}, fh)
