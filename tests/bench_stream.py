"""The seeded byte stream against another checkout's, for BENCH_stream.json.

    PYTHONPATH=src python tests/bench_stream.py PARENT_SRC [--out FILE] [--pairs P]
        [--seconds S] [--first-seed N]

PARENT_SRC is the `src` directory of another checkout, say a `git archive`
of the parent commit; its latticelab is loaded beside this one under
another name.  FILE (BENCH_stream.json in the repository root by default)
gets, with the host fields:

- `take_bytes`: ns per byte of `take_bytes(n)` at n = 32 B, 106 B (one LWE
  bit's derived stream at n = 64), 2080 B (a GLYPH mask), 16640 B (the
  masks of SIGN_BATCH = 4 GLYPH candidates) and 160 KB
  (`sample --count 20000`), each read from a fresh rng (what a derived
  stream pays) and from one rng read over and over, the sides alternating
  over REPS reps;
- `sign`: GLYPH at n = 1024, ms per rejection iteration of the parent and
  of this checkout at BLOCK_BYTES = 1, 2 and 4 KiB, the four taking turns
  over ROUNDS rounds; and the sign workload's median peak RSS for each
  over RSS_RUNS runs of `labbench/run.py --workload sign --seconds S`
  (seeds from N) in scratch checkouts that differ only in rng.py's
  BLOCK_BYTES line, the four again taking turns;
- with --pairs P, P alternating pairs of `labbench/run.py --seconds S` per
  workload (bench_memory.labbench_table, one seed per pair from N), the
  sign workload's rejection iterations per second, and one traced sign
  pair at seed N.

With --take-bytes-only, FILE keeps what it holds and gets only the
`take_bytes` rows, under `take_bytes_against` with the host fields.

A child's ru_maxrss starts at the RSS of the process that forked it, so
every run.py child is started before this process imports numpy or
latticelab; `harness_mb` is its peak by then, the floor under each RSS.
"""

import argparse
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_memory import alternate, labbench_run, labbench_table, quartiles
from benchhost import host, load_parent

ROOT = Path(__file__).resolve().parent.parent
READS = (32, 106, 2080, 16_640, 160_000)  # 16640 B: GLYPH sign's four candidates
BLOCKS = (1024, 2048, 4096)
KEY_SEED = bytes(range(32))
SIGNS_PER_ROUND = 8
SIGN_BATCH = 4  # signatures per operation of labbench's sign workload
REPS, ROUNDS, RSS_RUNS = 15, 40, 5


def scratch_checkout(dest: Path, labbench: Path, src: Path, block: int | None) -> Path:
    """labbench/ and src/ copied to dest, rng.py's BLOCK_BYTES set to `block`."""
    shutil.copytree(labbench, dest / "labbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(src, dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    if block is not None:
        rng_py = dest / "src" / "latticelab" / "rng.py"
        text, hits = re.subn(r"(?m)^BLOCK_BYTES = \d+$", f"BLOCK_BYTES = {block}",
                             rng_py.read_text())
        if hits != 1:
            raise RuntimeError(f"no BLOCK_BYTES line in {rng_py}")
        rng_py.write_text(text)
    return dest


def sign_rss(parent: Path, runs: int, seconds: int, first_seed: int) -> dict:
    """Median peak RSS (MB) of the sign workload per variant over `runs`
    seeds, the variants' order rotating from seed to seed."""
    names = ["parent"] + [f"{b}" for b in BLOCKS]
    rss = {name: [] for name in names}
    with tempfile.TemporaryDirectory() as tmp:
        # equal path lengths: the process's argv and paths are part of its RSS
        roots = {"parent": scratch_checkout(Path(tmp, "parent"), parent.parent / "labbench",
                                            parent, None)}
        for b in BLOCKS:
            roots[f"{b}"] = scratch_checkout(Path(tmp, f"{b:06d}"), ROOT / "labbench",
                                             ROOT / "src", b)
        for i in range(runs):
            for name in rotated(names, i):
                res = labbench_run(roots[name], "sign", first_seed + i, seconds)
                rss[name].append(res["peak_rss_mb"])
    return {name: round(statistics.median(v), 2) for name, v in rss.items()}


def iterations_per_s(run: dict) -> float:
    """Rejection iterations per timed second of one sign run: ops_per_s
    counts operations of SIGN_BATCH signatures each."""
    work = run["work"]
    return work["sign_iterations"] * run["ops_per_s"] * SIGN_BATCH / work["signatures"]


def labbench_pairs(parent: Path, pairs: int, seconds: int, first_seed: int) -> dict:
    out = {w: labbench_table(parent, w, pairs, seconds, first_seed)
           for w in ("sign", "attack", "cli")}
    sign = out["sign"]
    b = [iterations_per_s(r) for r in sign["runs_parent"]]
    a = [iterations_per_s(r) for r in sign["runs_change"]]
    sign["iterations_per_s"] = {
        "median_parent": round(statistics.median(b), 1),
        "median_change": round(statistics.median(a), 1),
        "change": f"{(statistics.median(a) / statistics.median(b) - 1) * 100:+.1f}%",
        "parent_q1_q3": quartiles(b), "change_won": sum(y > x for x, y in zip(b, a))}
    traced = {side: labbench_run(root, "sign", first_seed, seconds, trace=1)
              for side, root in (("parent", parent.parent), ("change", ROOT))}
    out["sign_traced"] = {"seed": first_seed, "seconds": seconds, **traced}
    return out


def read_ns_per_byte(rng_mod, n: int, fresh: bool) -> float:
    calls = max(8, (1 << 18) // n)
    if fresh:
        rngs = [rng_mod.SeededRng(i.to_bytes(32, "little")) for i in range(calls)]
        t = time.perf_counter()
        for r in rngs:
            r.take_bytes(n)
    else:
        r = rng_mod.SeededRng(KEY_SEED)
        t = time.perf_counter()
        for _ in range(calls):
            r.take_bytes(n)
    return (time.perf_counter() - t) / (calls * n) * 1e9


def take_bytes_rows(old_rng, new_rng, reps: int) -> list[dict]:
    rows = []
    for n in READS:
        for fresh in (True, False):
            before, after = alternate(lambda i: read_ns_per_byte(old_rng, n, fresh),
                                      lambda i: read_ns_per_byte(new_rng, n, fresh), reps)
            rows.append({"bytes": n, "rng": "fresh" if fresh else "running",
                         "ns_per_byte_parent": round(statistics.median(before), 2),
                         "ns_per_byte_change": round(statistics.median(after), 2),
                         "change_faster": f"{sum(a < b for a, b in zip(after, before))}/{reps}"})
            print(json.dumps(rows[-1]), file=sys.stderr)
    return rows


def sign_iteration_rows(old_glyph, old_rng, new_glyph, new_rng, rounds: int) -> dict:
    """ms per rejection iteration per variant, the variants taking turns
    round by round; each signs with a key from its own stream."""
    variants = {"parent": (old_glyph, old_rng, old_rng.BLOCK_BYTES)}
    variants.update({f"{b}": (new_glyph, new_rng, b) for b in BLOCKS})
    names, saved = list(variants), new_rng.BLOCK_BYTES
    per_iter, iters, keys = {v: [] for v in names}, dict.fromkeys(names, 0), {}

    def switch(name):
        glyph, rng_mod, block = variants[name]
        rng_mod.BLOCK_BYTES = block
        return glyph, rng_mod, glyph.GlyphParams()

    try:
        for name in names:
            glyph, rng_mod, params = switch(name)
            keys[name] = glyph.keygen(params, rng_mod.SeededRng(KEY_SEED))
        for r in range(rounds):
            for name in rotated(names, r):
                glyph, rng_mod, params = switch(name)
                sk, pk = keys[name]
                done, t = 0, time.perf_counter()
                for j in range(SIGNS_PER_ROUND):
                    rng = rng_mod.SeededRng(f"{r:016x}{j:016x}".encode())
                    done += glyph.sign(sk, pk, b"bench_stream %d %d" % (r, j), params, rng)[1]
                per_iter[name].append((time.perf_counter() - t) / done * 1e3)
                iters[name] += done
    finally:
        new_rng.BLOCK_BYTES = saved
    base = per_iter["parent"]
    return {name: {"ms_per_iteration": round(statistics.median(v), 4),
                   "iterations": iters[name],
                   "faster_than_parent": f"{sum(a < b for a, b in zip(v, base))}/{rounds}"}
            for name, v in per_iter.items()}


def rotated(names: list, i: int) -> list:
    """`names` starting from its (i mod len)-th: who goes first turns."""
    return names[i % len(names):] + names[: i % len(names)]


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_stream.json")
    parser.add_argument("--pairs", type=int, default=0, help="labbench pairs (0: none)")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--first-seed", type=int, default=4400)
    parser.add_argument("--take-bytes-only", action="store_true")
    args = parser.parse_args(argv)
    parent = args.parent_src.resolve()
    if args.take_bytes_only:
        from latticelab import rng

        out = json.loads(args.out.read_text()) if args.out.exists() else {}
        out["take_bytes_against"] = {
            "host": host(), "rows": take_bytes_rows(load_parent(parent, "rng"), rng, REPS)}
        args.out.write_text(json.dumps(out, indent=1) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
        return
    out = {"host": host()}
    rss = sign_rss(parent, RSS_RUNS, args.seconds, args.first_seed)
    if args.pairs:
        out["labbench"] = labbench_pairs(parent, args.pairs, args.seconds, args.first_seed)
    out["host"]["harness_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)

    from latticelab import glyph, rng

    old_rng, old_glyph = load_parent(parent, "rng"), load_parent(parent, "glyph")
    out["take_bytes"] = take_bytes_rows(old_rng, rng, REPS)
    sign = sign_iteration_rows(old_glyph, old_rng, glyph, rng, ROUNDS)
    for name, row in sign.items():
        row["sign_peak_rss_mb"] = rss[name]
    out["sign"] = {"rounds": ROUNDS, "signatures_per_round": SIGNS_PER_ROUND,
                   "rss_runs": RSS_RUNS, "rss_seconds": args.seconds, "variants": sign}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
