#!/usr/bin/env python3
"""Write ``perfbench/pins.json``: each workload's output digest per input seed.

Usage (from the root of a checkout)::

    python3 perfbench/pin.py

Run it only when a change is *meant* to alter simulated outputs (a policy
change), and say so in the change; a performance change must leave the
pins untouched.  It pins every workload at ``RUN_SEEDS`` and at
``HELD_OUT_SEED``, a seed never used while tuning a change, so a claim
can be re-checked on it.  Pins are keyed by input seed: a replay run of
seed ``s`` replays traces ``3s``, ``3s+1`` and ``3s+2``; a what-if run
drives sessions ``2s`` and ``2s+1``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: run seeds pinned for tuning and for the steadiness runs
RUN_SEEDS = range(10)
#: pinned, but never used while tuning a change
HELD_OUT_SEED = 1009


def main() -> int:
    pins = {}
    for name, spec in WORKLOADS.items():
        pins[name] = {}
        for seed in [*RUN_SEEDS, HELD_OUT_SEED]:
            for input_seed in spec.input_seeds(seed):
                rep = spec.rep(input_seed)
                if rep.unfinished or rep.failed:
                    print(f"{name} input seed {input_seed}: run failed, not pinned",
                          file=sys.stderr)
                    return 1
                value = gate.digest(rep.outputs)
                pins[name][str(input_seed)] = value
                print(f"{name} seed {seed} input seed {input_seed}: {value}", flush=True)
    gate.write_pins(pins)
    return 0


if __name__ == "__main__":
    sys.exit(main())
