"""Node scoring criteria of the non-preemptive scheduling policy (Section 3.4.2).

Three criteria are evaluated lexicographically for every candidate node:

* **Score 1 — GPU packing** (Eq. 13): prefer nodes with few idle GPUs to
  limit fragmentation.
* **Score 2 — homogeneous co-location** (Eq. 14): HP tasks prefer nodes
  already running HP tasks, spot tasks prefer nodes running spot tasks.
* **Score 3 — eviction awareness** (Eqs. 15-16): spot tasks avoid nodes
  with a history of evictions, HP tasks are steered towards them; a
  circuit breaker blacklists nodes whose spot score reaches zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ...cluster import Node, Task


@dataclass
class ScoringConfig:
    """Parameters of the scoring model (Table 4)."""

    #: weight between short-term and long-term eviction counts (gamma)
    gamma: float = 0.8
    #: penalty intensity m of Eq. (16)
    penalty: float = 3.0
    #: short / long eviction observation windows, in seconds
    short_window: float = 3600.0
    long_window: float = 24 * 3600.0


def packing_score(node: Node, idle_gpus: float) -> float:
    """Score 1 (Eq. 13): higher for nodes with fewer idle GPUs."""
    if node.total_gpus <= 0:
        return 0.0
    return 1.0 - idle_gpus / node.total_gpus


def colocation_score(node: Node, task: Task) -> float:
    """Score 2 (Eq. 14): same-type GPU share on the node."""
    if node.total_gpus <= 0:
        return 0.0
    same_type = node.hp_gpus if task.is_hp else node.spot_gpus
    return same_type / node.total_gpus


def weighted_eviction_rate(node: Node, now: float, config: ScoringConfig) -> float:
    """Weighted node eviction measure ``e_bar`` of Eq. (15)."""
    short = node.eviction_count_since(now, config.short_window)
    long = node.eviction_count_since(now, config.long_window)
    long_hours = config.long_window / 3600.0
    return config.gamma * short + (1.0 - config.gamma) * long / long_hours


def eviction_score(e_bar: float, task: Task, config: ScoringConfig) -> float:
    """Score 3 (Eq. 16) of a node with weighted eviction rate ``e_bar``."""
    raw = 0.01 * config.penalty * e_bar
    if task.is_hp:
        return min(raw, 1.0)
    return max(1.0 - raw, 0.0)


def eviction_awareness_score(node: Node, task: Task, now: float, config: ScoringConfig) -> float:
    """Score 3 (Eq. 16) with asymmetric penalties for HP and spot tasks."""
    return eviction_score(weighted_eviction_rate(node, now, config), task, config)


def circuit_breaker_active(node: Node, now: float, config: ScoringConfig) -> bool:
    """Whether the node is blacklisted for spot scheduling (Score 3 == 0)."""
    e_bar = weighted_eviction_rate(node, now, config)
    return 1.0 - 0.01 * config.penalty * e_bar <= 0.0


def score_tuple(
    node: Node,
    idle_gpus: float,
    task: Task,
    now: float,
    config: ScoringConfig,
    use_colocation: bool = True,
    use_eviction_awareness: bool = True,
) -> Tuple[float, float, float]:
    """The <Score1, Score2, Score3> tuple used to rank candidate nodes."""
    s1 = packing_score(node, idle_gpus)
    s2 = colocation_score(node, task) if use_colocation else 0.0
    s3 = eviction_awareness_score(node, task, now, config) if use_eviction_awareness else 0.0
    return (s1, s2, s3)
