"""Paths, program import, statistics and the environment shared by the
benchmark's scripts.

The benchmark lives in ``perfbench/`` at the root of a checkout and drives
the package in ``src/orihex`` of that same checkout. Every file it writes
goes under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/orihex`` to benchmark."""


def check_program() -> Path:
    """The package's ``__init__.py`` in this checkout; raises ProgramMissing."""
    init = SRC / "orihex" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no package to benchmark: {init} does not exist")
    return init


def import_program():
    """Import orihex from this checkout's ``src``, never from elsewhere."""
    init = check_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import orihex

    if Path(orihex.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"orihex was imported from {orihex.__file__}, not {init}")
    return orihex


def child_env() -> dict:
    """Environment for a child interpreter that imports orihex from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git repository, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile (1..99), interpolated between samples, so that
    few samples never give a value outside their range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def load_benchmark_spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())
