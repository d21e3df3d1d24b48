"""Peak memory and wall time of the LWE cipher's bulk paths, before and
after a change, for BENCH_memory.json.

    PYTHONPATH=src python tests/bench_memory.py PARENT_SRC [--n N ...] [--reps R]
        [--repeat C] [--labbench W ...] [--pairs P] [--seconds S] > rows.json

PARENT_SRC is the `src` directory of another checkout, say a `git archive`
of the parent commit (this checkout's own `src` compares it with itself).
Each step of `latticelab keygen`, `encrypt` and `decrypt --scheme lwe` runs
`cli.main` in a fresh Python process on one side's sources, the two sides
alternating and swapping which goes first in each repetition.  A row
reports, per side (parent and change), the median peak RSS of the process
in MB and the median wall time of `cli.main` in s; the two sides' files must be byte-identical
and decrypt to the message.  With --repeat, a repeat row runs C
`latticelab keygen --scheme lwe --n 64` calls, each with its own seed, in
one process per side and reports its peak RSS after the first and after
the last, so a codec that fragments the heap shows as growth.  With
--labbench, P pairs of
`labbench/run.py --workload W --seconds S` runs, one per seed, alternate
the two checkouts the same way, and the end-to-end metrics of every run
are recorded with each side's median and quartiles, the pairs the
change won, and the verdicts `claim_met` and `regression` (see
`verdicts`), judged against the bounds in BENCHMARK.json.

A child's ru_maxrss starts at the RSS of the process that forked it, so
this one stays small: it imports no numpy and compares files in chunks.
Its own peak is recorded as `harness_mb`, the floor under every reading.
"""

import argparse
import filecmp
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from benchhost import host

HERE = Path(__file__).resolve().parent.parent / "src"
SEED = "5e" * 32
MESSAGE = "10110010111000110101001110001011\n"  # 32 bits, as in the README tour
CHILD = """import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from latticelab import cli
t = time.perf_counter()
rc = cli.main(sys.argv[2:])
print(json.dumps({"rc": rc, "s": time.perf_counter() - t,
                  "mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""
REPEAT_CHILD = """import json, resource, sys
sys.path.insert(0, sys.argv[1])
from latticelab import cli
mb = []
for i in range(int(sys.argv[3])):
    argv = ["keygen", "--scheme", "lwe", "--n", "64", "--seed", "%064x" % (i + 1),
            "--out-secret", sys.argv[2] + "/lwe.key", "--out-public", sys.argv[2] + "/lwe.pub"]
    if cli.main(argv) != 0:
        sys.exit(f"latticelab keygen exited nonzero on call {i + 1}")
    mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
print(json.dumps({"first": mb[0], "last": mb[-1]}))
"""
LOWER_IS_BETTER = {"ops_per_s": False, "op_p50_ms": True, "op_p90_ms": True,
                   "setup_s": True, "peak_rss_mb": True}


def steps(d: Path, n: int) -> list[tuple[str, list[str]]]:
    f = lambda name: str(d / name)  # noqa: E731
    return [
        ("keygen", ["keygen", "--scheme", "lwe", "--n", str(n), "--seed", SEED,
                    "--out-secret", f("lwe.key"), "--out-public", f("lwe.pub")]),
        ("encrypt", ["encrypt", "--scheme", "lwe", "--public", f("lwe.pub"), "--seed", SEED,
                     "--message", f("msg.txt"), "--out", f("lwe.ct")]),
        ("decrypt", ["decrypt", "--scheme", "lwe", "--secret", f("lwe.key"),
                     "--in", f("lwe.ct"), "--out", f("lwe.dec")]),
    ]


def run_step(src: Path, argv: list[str]) -> dict:
    out = subprocess.run([sys.executable, "-c", CHILD, str(src)] + argv, check=True,
                         capture_output=True, text=True).stdout
    res = json.loads(out.splitlines()[-1])
    if res["rc"] != 0:
        raise RuntimeError(f"latticelab {argv[0]} exited {res['rc']}")
    return res


def alternate(run_before, run_after, reps: int) -> tuple[list, list]:
    """`reps` results per side, alternating, the side going first swapped
    each time."""
    before, after = [], []
    for i in range(reps):
        if i % 2:
            after.append(run_after(i))
        before.append(run_before(i))
        if not i % 2:
            after.append(run_after(i))
    return before, after


def lwe_rows(parent: Path, ns: list[int], reps: int) -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp, side) for side in ("before", "after")}
        for d in dirs.values():
            d.mkdir()
            (d / "msg.txt").write_text(MESSAGE)
        for n in ns:
            for k, (name, _) in enumerate(steps(dirs["before"], n)):
                before, after = alternate(
                    lambda i: run_step(parent, steps(dirs["before"], n)[k][1]),
                    lambda i: run_step(HERE, steps(dirs["after"], n)[k][1]), reps)
                rows.append({"n": n, "step": name, "reps": reps,
                             "mb_parent": round(statistics.median(r["mb"] for r in before), 1),
                             "mb_change": round(statistics.median(r["mb"] for r in after), 1),
                             "s_parent": round(statistics.median(r["s"] for r in before), 3),
                             "s_change": round(statistics.median(r["s"] for r in after), 3)})
                print(json.dumps(rows[-1]), file=sys.stderr)
            for name in ("lwe.key", "lwe.pub", "lwe.ct", "lwe.dec"):
                if not filecmp.cmp(dirs["before"] / name, dirs["after"] / name, shallow=False):
                    raise AssertionError(f"n = {n}: the two sides wrote different {name}")
            if (dirs["after"] / "lwe.dec").read_text() != MESSAGE:
                raise AssertionError(f"n = {n}: lwe.dec is not the message")
    return rows


def repeat_row(parent: Path, calls: int, reps: int) -> dict:
    """Peak RSS of one process after its first and its last of `calls`
    keygen calls, medians over `reps` processes per side."""
    def run(src: Path) -> dict:
        with tempfile.TemporaryDirectory() as tmp:
            out = subprocess.run([sys.executable, "-c", REPEAT_CHILD, str(src), tmp, str(calls)],
                                 check=True, capture_output=True, text=True).stdout
        return json.loads(out.splitlines()[-1])

    before, after = alternate(lambda i: run(parent), lambda i: run(HERE), reps)
    row = {"n": 64, "step": f"keygen x{calls}, one process", "reps": reps}
    for side, runs in (("parent", before), ("change", after)):
        first = statistics.median(r["first"] for r in runs)
        last = statistics.median(r["last"] for r in runs)
        row.update({f"mb_first_{side}": round(first, 1), f"mb_last_{side}": round(last, 1),
                    f"growth_mb_{side}": round(statistics.median(
                        r["last"] - r["first"] for r in runs), 2)})
    print(json.dumps(row), file=sys.stderr)
    return row


def labbench_run(root: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One run's metric values, and its `work` line's counts under "work"."""
    out = subprocess.run([sys.executable, str(root / "labbench" / "run.py"), "--workload",
                          workload, "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         check=True, capture_output=True, text=True, cwd=root).stdout
    *_, work, last = out.splitlines()
    res = json.loads(last)
    if not res["correct"] or res["failed"]:
        raise RuntimeError(f"{workload} seed {seed} in {root}: {res}")
    return {**{k: v["value"] for k, v in res["metrics"].items()},
            "work": json.loads(work.removeprefix("work "))}


def labbench_table(parent: Path, workload: str, pairs: int, seconds: int,
                   first_seed: int = 4100) -> dict:
    seeds = [first_seed + i for i in range(pairs)]
    before, after = alternate(
        lambda i: labbench_run(parent.parent, workload, seeds[i], seconds),
        lambda i: labbench_run(HERE.parent, workload, seeds[i], seconds), pairs)
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    summary = {}
    for metric, lower in LOWER_IS_BETTER.items():
        b, a = [r[metric] for r in before], [r[metric] for r in after]
        mb, ma = statistics.median(b), statistics.median(a)
        summary[metric] = {
            "median_parent": round(mb, 4), "median_change": round(ma, 4),
            "change": f"{(ma / mb - 1) * 100:+.1f}%",
            "parent_q1_q3": quartiles(b), "change_q1_q3": quartiles(a),
            **verdicts(b, a, lower, bounds[metric])}
    print(json.dumps({workload: summary}), file=sys.stderr)
    return {"seconds": seconds, "seeds": seeds, "summary": summary,
            "runs_parent": before, "runs_change": after}


def verdicts(b: list[float], a: list[float], lower: bool, bound: float) -> dict:
    """One metric's verdicts on paired runs, `b` the parent's and `a` the
    change's.  change_won: the pairs the change won, ties counting for
    neither side.  claim_met: the change won at least 9 in 10 pairs and
    its median is better than the parent's by more than the parent's
    interquartile distance.  regression, against the metric's relative
    bound: "none" if every change run beats every parent run; else
    "unresolved" if the parent's interquartile distance exceeds the bound
    times its median; else "worse" if the change's median is worse than
    the parent's by more than the bound, and "none" if not."""
    sign = -1 if lower else 1  # sign * value grows as the metric gets better
    mb, ma = statistics.median(b), statistics.median(a)
    q1, q3 = quartiles(b)
    won = sum(sign * y > sign * x for x, y in zip(b, a))
    if min(sign * y for y in a) > max(sign * x for x in b):
        regression = "none"
    elif q3 - q1 > bound * abs(mb):
        regression = "unresolved"
    else:
        regression = "worse" if sign * (mb - ma) > bound * abs(mb) else "none"
    return {"change_won": won, "regression": regression,
            "claim_met": 10 * won >= 9 * len(b) and sign * (ma - mb) > q3 - q1}


def quartiles(xs: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("--n", type=int, nargs="*", default=[64, 256, 1024])
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--repeat", type=int, default=0,
                        help="keygen calls in one process for the repeat row (0: no row)")
    parser.add_argument("--labbench", nargs="*", default=[], choices=["sign", "attack", "cli"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    parent = args.parent_src.resolve()
    out = {"host": host(), "lwe_cli": lwe_rows(parent, args.n, args.reps)}
    if args.repeat:
        out["repeat"] = repeat_row(parent, args.repeat, args.reps)
    if args.labbench:
        out["labbench"] = {w: labbench_table(parent, w, args.pairs, args.seconds)
                           for w in args.labbench}
    out["host"]["harness_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
