"""GLYPH signing in batches of candidates against another checkout's, for
BENCH_sign_batch.json.

    PYTHONPATH=src python tests/bench_sign.py PARENT_SRC [--out FILE] [--rounds R]
        [--reps N] [--pairs P] [--seconds S] [--first-seed N]

PARENT_SRC is the `src` directory of another checkout, say a `git archive`
of the parent commit; its latticelab is loaded beside this one under
another name.  FILE (BENCH_sign_batch.json in the repository root by
default) gets, with the host fields:

- `sign`: GLYPH at n = 1024, ms per rejection iteration of `sign` and ms
  per `verify`, for the parent and for this checkout at SIGN_BATCH = 1, 2,
  4 and 8, the five taking turns over R rounds of SIGNS_PER_ROUND
  signatures; every variant must make the parent's signatures;
- `candidate`: us per candidate iteration for its two mask draws and its
  w = a*y1 + y2, the parent's (two `uniform_array`s, `ring_mul_vec` plus
  y2 and an int64 `%`) against this checkout's (`uniform_rows` and the
  fused `ring_mul_vec`) at 1 and 4 candidates per call, medians of N reps;
- `ring_mul`: us per `ring_mul` at n = 256 (q = 7681) and n = 1024
  (q = 59393) on fresh elements (both transforms computed) and cached
  ones, and per one-row `ring_mul_vec`, the sides alternating over N reps;
- with --pairs P, P alternating pairs of `labbench/run.py --seconds S` per
  workload (bench_memory.labbench_table, one seed per pair from N).
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from bench_memory import alternate, labbench_table
from bench_stream import rotated
from benchhost import host, load_parent

ROOT = Path(__file__).resolve().parent.parent
BATCHES = (1, 2, 4, 8)
KEY_SEED = bytes(range(32))
SIGNS_PER_ROUND = 8
ROUNDS, REPS = 30, 15
RINGS = ((256, 7681), (1024, 59393))


def us_per_call(fn, calls: int) -> float:
    t = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t) / calls * 1e6


def sign_rows(old_glyph, old_rng, new_glyph, new_rng, rounds: int) -> dict:
    """ms per rejection iteration and per verify for each variant, the
    variants taking turns round by round."""
    variants = {"parent": (old_glyph, old_rng, None)}
    variants.update({f"B={b}": (new_glyph, new_rng, b) for b in BATCHES})
    names, saved = list(variants), new_glyph.SIGN_BATCH
    per_iter, per_verify = {v: [] for v in names}, {v: [] for v in names}
    iters, digests, keys = dict.fromkeys(names, 0), {v: [] for v in names}, {}
    for name, (glyph, rng_mod, _) in variants.items():
        p = glyph.GlyphParams()
        keys[name] = (p, *glyph.keygen(p, rng_mod.SeededRng(KEY_SEED)))
    try:
        for r in range(rounds):
            for name in rotated(names, r):
                glyph, rng_mod, batch = variants[name]
                if batch:
                    glyph.SIGN_BATCH = batch
                p, sk, pk = keys[name]
                messages = [b"bench_sign %d %d" % (r, j) for j in range(SIGNS_PER_ROUND)]
                done, sigs, t = 0, [], time.perf_counter()
                for j, message in enumerate(messages):
                    sig, it = glyph.sign(sk, pk, message, p,
                                         rng_mod.SeededRng(f"{r:016x}{j:016x}".encode()))
                    sigs.append(sig)
                    done += it
                per_iter[name].append((time.perf_counter() - t) / done * 1e3)
                t = time.perf_counter()
                for message, sig in zip(messages, sigs):
                    if not glyph.verify(pk, message, sig, p).accepted:
                        raise AssertionError(f"{name}: verify rejected a fresh signature")
                per_verify[name].append((time.perf_counter() - t) / len(sigs) * 1e3)
                iters[name] += done
                digests[name] += [(sig.c.coeffs, sig.z1.coeffs, sig.z2.coeffs) for sig in sigs]
    finally:
        new_glyph.SIGN_BATCH = saved
    for name in names:
        if digests[name] != digests["parent"] or iters[name] != iters["parent"]:
            raise AssertionError(f"{name} signed differently from the parent")
    base_i, base_v = per_iter["parent"], per_verify["parent"]
    return {name: {"ms_per_iteration": round(statistics.median(per_iter[name]), 4),
                   "ms_per_verify": round(statistics.median(per_verify[name]), 4),
                   "iterations": iters[name],
                   "iteration_faster": f"{sum(a < b for a, b in zip(per_iter[name], base_i))}"
                                       f"/{rounds}",
                   "verify_faster": f"{sum(a < b for a, b in zip(per_verify[name], base_v))}"
                                    f"/{rounds}"}
            for name in names}


def candidate_rows(old_glyph, old_rng, new_glyph, new_rng, reps: int) -> dict:
    """us per candidate for the mask draws and for w = a*y1 + y2."""
    p = new_glyph.GlyphParams()
    bound, n, q = 2 * p.b + 1, p.n, int(p.q)
    old_a = old_glyph.keygen(old_glyph.GlyphParams(), old_rng.SeededRng(KEY_SEED))[1].a
    new_a = new_glyph.keygen(p, new_rng.SeededRng(KEY_SEED))[1].a
    old_mul, new_mul = old_glyph.ring_mul_vec, new_glyph.ring_mul_vec
    y = new_rng.SeededRng(KEY_SEED).uniform_rows(bound, 8, n)[0] - p.b
    r_old, r_new = old_rng.SeededRng(KEY_SEED), new_rng.SeededRng(KEY_SEED)
    calls = 200
    cases = {
        "draws": {
            "parent": lambda: [r_old.uniform_array(bound, n) for _ in range(2)],
            "B=1": lambda: r_new.uniform_rows(bound, 2, n),
            "B=4": lambda: r_new.uniform_rows(bound, 8, n)},
        "product": {
            "parent": lambda: (old_mul(old_a, y[0]) + y[1]) % q,
            "B=1": lambda: new_mul(new_a, y[0], y[1]),
            "B=4": lambda: new_mul(new_a, y[0::2], y[1::2])},
    }
    out = {}
    for part, fns in cases.items():
        times = {name: [] for name in fns}
        for i in range(reps):
            for name in rotated(list(fns), i):
                times[name].append(us_per_call(fns[name], calls)
                                   / (4 if name == "B=4" else 1))
        out[part] = {name: round(statistics.median(v), 2) for name, v in times.items()}
        print(json.dumps({part: out[part]}), file=sys.stderr)
    return out


def ring_mul_rows(old_poly, new_poly, reps: int) -> list[dict]:
    rows = []
    for n, q in RINGS:
        gen = np.random.default_rng(n)
        a_vec, b_vec = gen.integers(0, q, n), gen.integers(0, q, n)
        y = gen.integers(-(q // 2), q // 2 + 1, n)
        f = tuple([1] + [0] * (n - 1) + [1])
        sides = {}
        for side, poly in (("parent", old_poly), ("change", new_poly)):
            params = poly.RingParams(f, q)
            a, b = poly.RingElement(a_vec, params), poly.RingElement(b_vec, params)
            sides[side] = {
                "fresh": lambda poly=poly, params=params: poly.ring_mul(
                    poly.RingElement._of(a_vec, params), poly.RingElement._of(b_vec, params)),
                "cached": lambda poly=poly, a=a, b=b: poly.ring_mul(a, b),
                "ring_mul_vec": lambda poly=poly, a=a: poly.ring_mul_vec(a, y)}
        for case in ("fresh", "cached", "ring_mul_vec"):
            before, after = alternate(lambda i: us_per_call(sides["parent"][case], 200),
                                      lambda i: us_per_call(sides["change"][case], 200), reps)
            rows.append({"n": n, "q": q, "case": case,
                         "us_parent": round(statistics.median(before), 2),
                         "us_change": round(statistics.median(after), 2),
                         "change_faster": f"{sum(x < y for x, y in zip(after, before))}/{reps}"})
            print(json.dumps(rows[-1]), file=sys.stderr)
    return rows


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_sign_batch.json")
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--reps", type=int, default=REPS)
    parser.add_argument("--pairs", type=int, default=0, help="labbench pairs (0: none)")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--first-seed", type=int, default=9200)
    args = parser.parse_args(argv)
    parent = args.parent_src.resolve()
    out = {"host": host()}
    if args.pairs:
        out["labbench"] = {w: labbench_table(parent, w, args.pairs, args.seconds,
                                             args.first_seed)
                           for w in ("sign", "attack", "cli")}

    from latticelab import glyph, polyring, rng

    old = {m: load_parent(parent, m) for m in ("glyph", "polyring", "rng")}
    out["sign"] = {"rounds": args.rounds, "signatures_per_round": SIGNS_PER_ROUND,
                   "variants": sign_rows(old["glyph"], old["rng"], glyph, rng, args.rounds)}
    print(json.dumps(out["sign"]), file=sys.stderr)
    out["candidate"] = candidate_rows(old["glyph"], old["rng"], glyph, rng, args.reps)
    out["ring_mul"] = ring_mul_rows(old["polyring"], polyring, args.reps)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
