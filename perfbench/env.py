"""Environment pinning and the fingerprint printed with every result.

Records from hosts with a different core count, BLAS thread count or
library versions are not comparable; the fingerprint makes that visible.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def host_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads() -> int:
    """Pin BLAS to at most two threads, never more than the host has.

    Must run before numpy is imported; the value is then fixed for the
    process.
    """
    threads = max(1, min(2, host_cores()))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def git_sha(root: Path) -> str:
    """Short sha of the checkout, or ``"none"`` outside a git work tree."""
    if not (root / ".git").exists():
        return "none"
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def fingerprint(root: Path, seed: int, blas_threads: int) -> dict:
    import numpy as np

    return {
        "nproc": host_cores(),
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": git_sha(root),
        "seed": seed,
    }
