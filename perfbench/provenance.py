"""The envelope recorded with every benchmark result.

Which code ran (git sha and dirty flag, when the checkout is a git
repository), on which interpreter and libraries, on which CPU, how busy
the machine was at the start, and how fast the speed probe's fixed kernel
ran (``speed.kernel_s``), so two results can be compared only when their
envelopes agree.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

import speed


def calibration_s() -> float:
    """Median time of the speed probe's fixed kernel at start."""
    for _ in range(3):  # warm caches and the allocator
        speed.kernel_s()
    return statistics.median(speed.kernel_s() for _ in range(21))


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=20, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def collect(root: Path) -> Dict[str, object]:
    import numpy
    import scipy

    sha = dirty = None
    if (root / ".git").exists():
        sha = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain")
        dirty = None if status is None else bool(status)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": cpus,
        "loadavg_start": list(os.getloadavg()),
        "calibration_s": calibration_s(),
    }
