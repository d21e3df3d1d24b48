"""What the benchmark harnesses in tests/ share: the host fields they record
with their rows (`host()`), and another checkout's latticelab loaded beside
this one's (`load_parent`)."""

import importlib
import importlib.util
import os
import platform
import sys
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


def load_parent(src: Path, module: str):
    """latticelab.`module` from the `src` directory of another checkout, its
    package loaded once as `latticelab_parent`."""
    if "latticelab_parent" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "latticelab_parent", src / "latticelab" / "__init__.py",
            submodule_search_locations=[str(src / "latticelab")])
        sys.modules["latticelab_parent"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["latticelab_parent"])
    return importlib.import_module(f"latticelab_parent.{module}")
