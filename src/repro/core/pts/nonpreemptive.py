"""Non-preemptive scheduling (Algorithm 1).

Pods are placed one at a time.  For every pod the candidate set is filtered
by resource feasibility (and, for spot tasks, by the eviction circuit
breaker), then ranked by the lexicographic score tuple
``<Score1, Score2, Score3>``; the top node receives the pod.  If any pod
cannot be placed the whole task fails (gang semantics) and no state is
mutated — the simulator only materialises returned decisions.

With a :class:`~repro.schedulers.placement.PlacementContext` the candidate
set comes from the cluster's capacity index (only nodes that can host at
least one pod right now) instead of a scan over every model-compatible
node; a node that cannot host a pod at pass time can never become feasible
during the task's own greedy loop, so the restriction is exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ...cluster import Node, PodPlacement, Task
from ...schedulers.placement import NodeView, PlacementContext
from .scoring import (
    ScoringConfig,
    colocation_score,
    eviction_score,
    packing_score,
    weighted_eviction_rate,
)


def non_preemptive_placement(
    task: Task,
    nodes: Optional[Sequence[Node]],
    now: float,
    config: ScoringConfig,
    use_colocation: bool = True,
    use_eviction_awareness: bool = True,
    views: Optional[Dict[str, NodeView]] = None,
    ctx: Optional[PlacementContext] = None,
) -> Optional[List[PodPlacement]]:
    """Algorithm 1: place every pod of ``task`` without preempting anyone.

    Pass either ``nodes`` (index-free scan, used by direct callers and
    tests) or ``ctx`` (capacity-indexed candidates and shared views).
    """
    if ctx is not None:
        view_map = ctx.clone_views(ctx.view_fit_candidates(task))
    else:
        candidates = [
            n for n in (nodes or ()) if task.gpu_model is None or n.gpu_model is task.gpu_model
        ]
        if not candidates:
            return None
        if views is None:
            view_map = {n.node_id: NodeView.from_node(n) for n in candidates}
        else:
            view_map = {
                n.node_id: views[n.node_id].clone() for n in candidates if n.node_id in views
            }
    if not view_map:
        return None

    # Score2, Score3 and the circuit breaker read only node state and ``now``,
    # which virtual pod assignment never changes: rate each node once.  A
    # spot task's Score3 is zero exactly when the breaker blacklists the node.
    whole_gpus = task.gpus_per_pod >= 1.0
    rated: List[Tuple[NodeView, float, float]] = []
    for view in view_map.values():
        s3 = 0.0
        if use_eviction_awareness:
            s3 = eviction_score(weighted_eviction_rate(view.node, now, config), task, config)
            if task.is_spot and whole_gpus and s3 <= 0.0:
                continue
        s2 = colocation_score(view.node, task) if use_colocation else 0.0
        rated.append((view, s2, s3))

    placements: List[PodPlacement] = []
    for _ in range(task.num_pods):
        feasible = [entry for entry in rated if entry[0].can_fit_pod(task.gpus_per_pod)]
        if not feasible:
            return None
        chosen, _, _ = max(
            feasible,
            key=lambda e: (
                packing_score(e[0].node, e[0].idle_gpus if whole_gpus else e[0].free_capacity),
                e[1],
                e[2],
                e[0].node.node_id,
            ),
        )
        chosen.assign_pod(task.gpus_per_pod)
        placements.append(
            PodPlacement(node_id=chosen.node.node_id, gpu_indices=(), fraction=task.gpus_per_pod)
        )
    return placements
