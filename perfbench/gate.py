"""Output-correctness gate: canonical digests of simulation outputs.

A run's outputs are reduced to one SHA-256 digest of a canonical JSON
form.  Floats are written with ``repr`` (exact round-trip), NaN becomes
the string ``"NaN"`` and ``-0.0`` folds into ``0.0``, so two digests are
equal exactly when the values are equal under the NaN-aware equality of
``benchmarks/_bench_common.values_equal``.

``pins.json`` holds the digests expected for each workload at a set of
seeds (``perfbench/pin.py`` writes it).  A pure performance change must
leave every digest bit-identical; any policy change shows up here as a
failed operation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Optional, Tuple

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def canonical(value):
    """JSON-ready form of ``value`` whose text is unique per value."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        return repr(value + 0.0)  # -0.0 + 0.0 == 0.0
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def digest(value) -> str:
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins(path: Path = PINS_PATH) -> Dict[str, Dict[str, str]]:
    """``{workload: {seed: digest}}``; empty when no pin file exists."""
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def write_pins(pins: Dict[str, Dict[str, str]], path: Path = PINS_PATH) -> None:
    ordered = {
        name: dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        for name, table in sorted(pins.items())
    }
    path.write_text(json.dumps(ordered, indent=1) + "\n")


def check(
    pins: Dict[str, Dict[str, str]], workload: str, seed: int, value: str
) -> Tuple[bool, Optional[str]]:
    """``(ok, expected)``: ``expected`` is ``None`` when the seed is unpinned."""
    expected = pins.get(workload, {}).get(str(seed))
    return (expected is None or expected == value), expected


def tamper(value: str) -> str:
    """``value`` with its last hex digit changed."""
    return value[:-1] + ("0" if value[-1] != "0" else "1")


def nudged(value):
    """A copy of ``value`` with its first finite non-zero float moved by one ulp."""
    done = [False]

    def walk(v):
        if done[0]:
            return v
        if isinstance(v, float) and math.isfinite(v) and v != 0.0:
            done[0] = True
            return math.nextafter(v, math.inf)
        if dataclasses.is_dataclass(v) and not isinstance(v, type):
            return {f.name: walk(getattr(v, f.name)) for f in dataclasses.fields(v)}
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [walk(x) for x in v]
        return v

    result = walk(value)
    if not done[0]:
        raise ValueError("no float to nudge")
    return result


def self_check(workload: str, seed: int, value: str, perturbed_value: str) -> bool:
    """Whether the gate trips on tampering, for this workload and seed.

    With ``value`` pinned, the gate must accept ``value`` and reject both
    a tampered digest and ``perturbed_value``, the digest of the same
    outputs with one number nudged by one ulp.
    """
    table = {workload: {str(seed): value}}
    return (
        check(table, workload, seed, value)[0]
        and not check(table, workload, seed, tamper(value))[0]
        and not check(table, workload, seed, perturbed_value)[0]
    )
