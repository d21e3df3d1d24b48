"""The host fields that the benchmark harnesses in tests/ record with their
rows: `host()`, imported by bench_memory.py and bench_roots.py."""

import os
import platform
from importlib import metadata
from pathlib import Path


def cpu_model() -> str:
    """The CPU's model name from /proc/cpuinfo, else `platform.processor()`."""
    info = Path("/proc/cpuinfo")
    lines = info.read_text().splitlines() if info.exists() else []
    return next((line.split(":", 1)[1].strip() for line in lines
                 if line.startswith("model name")), platform.processor())


def host() -> dict:
    """CPU count, Python and numpy versions, machine and CPU model.  numpy's
    version comes from its installed metadata, so a harness that keeps its
    own memory small need not import numpy."""
    return {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "machine": platform.machine(),
            "cpu": cpu_model()}
