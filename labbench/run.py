"""Benchmark entry point for latticelab.

    python3 labbench/run.py --workload {sign,attack,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory.  One process runs one workload as a
closed loop with one caller.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics when ``--trace 0``, the per-layer metrics when
``--trace 1``.  The line before it reports the work done (signatures,
rejection iterations, survivor totals), which depends on the seed alone.
Traces and results are written under ``.labbench/`` in the checkout.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".labbench"
SETUP_REPS = 3

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_package():
    """Put the checkout's src/ first on the path and import the workloads."""
    if not (SRC / "latticelab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no latticelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import latticelab
    import workloads

    if Path(latticelab.__file__).resolve().parent != SRC / "latticelab":
        raise ImportError(f"latticelab imported from {latticelab.__file__}, not {SRC}")


def latticelab_modules() -> dict:
    import importlib

    names = ("rng", "gaussian", "zq", "polyring", "numberfield", "lwe", "plwe",
             "glyph", "bgv", "attacks", "fileio", "cli")
    return {name: importlib.import_module(f"latticelab.{name}") for name in names}


def per_layer_metrics(tracer) -> dict:
    import spans

    self_s = tracer.self_times()
    counts = tracer.counts
    out = {}
    for name, unit, _ in spans.PER_LAYER:
        if name.endswith("_s"):
            value = self_s.get(name[:-2], 0.0)
        elif name == "glyph.accept_ratio":
            iters = counts["glyph.sign_iters"]
            value = counts["glyph.signatures"] / iters if iters else 0.0
        else:
            value = counts[name]
        out[name] = {"value": value, "unit": unit}
    return out


def run(name: str, seed: str, seconds: int, traced: bool, import_s: float) -> tuple[dict, dict]:
    import spans
    import workloads

    seed_bytes = hashlib.sha256(f"labbench/{name}/{seed}".encode()).digest()
    workdir = OUT / f"tmp-{name}-{os.getpid()}"
    workload = workloads.WORKLOADS[name](seed_bytes, seconds, workdir)
    tracer = spans.Tracer()
    try:
        if traced:
            modules = latticelab_modules()
            tracer.install(spans.span_table(modules), list(modules.values()))
        setup_times = []
        for rep in range(SETUP_REPS):
            tracer.active = traced and rep == SETUP_REPS - 1  # trace the last set-up
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
            tracer.active = False
        problems = []
        try:
            workload.prepare_checks()
        except workloads.CheckFailed as e:
            problems.append(f"check: {e}")

        latencies, attempted, failed, timed = [], 0, 0, 0.0
        for ops, check in workload.rounds():
            gc.collect()
            results = []
            for op in ops:
                attempted += 1
                tracer.active = traced
                t0 = time.perf_counter()
                try:
                    result = op()
                except Exception as e:  # an operation failing is counted, not fatal
                    result = None
                    failed += 1
                    problems.append(f"failed: {type(e).__name__}: {e}")
                dt = time.perf_counter() - t0
                tracer.active = False
                timed += dt
                if result is not None:
                    latencies.append(dt)
                results.append(result)
            try:
                check(results)
            except workloads.CheckFailed as e:
                problems.append(f"check: {e}")
        correct = not any(p.startswith("check:") for p in problems)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems[:10]:
        print(p, file=sys.stderr)
    print(f"timed {timed:.3f} s over {attempted} operations", file=sys.stderr)

    if traced:
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"trace-{name}-{seed}.jsonl", T_START)
        metrics = per_layer_metrics(tracer)
    else:
        lat_ms = sorted(x * 1000.0 for x in latencies) or [0.0]
        p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if len(lat_ms) > 1 else lat_ms[0]
        values = {
            "ops_per_s": (attempted - failed) / timed if timed else 0.0,
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": p90,
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, workload.work()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["sign", "attack", "cli"])
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        import_package()
    except (ImportError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    try:
        result, work = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    except Exception:
        traceback.print_exc()
        return 1
    OUT.mkdir(exist_ok=True)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print("work " + json.dumps(work, sort_keys=True))
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
