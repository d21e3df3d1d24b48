"""Timings of the root finder, before and after a change, for BENCH_roots.json.

    PYTHONPATH=src python tests/bench_roots.py PARENT_SRC [TABLE ...] > rows.json

PARENT_SRC is the `src` directory of another checkout, say a `git archive`
of the parent commit.  Its latticelab is loaded under another name, and
each row times `_roots_by_gcd` (or `_split_roots`, or in the scan table
`_roots_by_scan`) from both in one process, alternating calls, after
checking that both and `_roots_by_scan` return the same roots.  A row
reports the median of `reps` calls per side in ms and in how many of the
call pairs this checkout's side was faster.  TABLE names the tables to
run (split_crossover, object_band, large_q, crossover, scan); all of
them by default.  The polynomials are fixed by the
seed below, not by the clock.
"""

import json
import random
import statistics
import sys
import time
from pathlib import Path

from benchhost import host, load_parent
from latticelab import polyring as new
from latticelab.polyring import _FDivision, _pow_x, _pow_x_list, cyclotomic_poly
from latticelab.zq import next_prime

SEED = 36


def median_ms(fn, reps: int) -> float:
    return statistics.median(_times(fn, reps)) * 1e3


def _times(fn, reps):
    out = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t)
    return out


def alternate(fn_before, fn_after, reps: int) -> dict:
    """Medians in ms of `reps` calls per side, alternating the two sides
    call by call and which of them goes first, and the number of pairs
    the after side won."""
    before, after = [], []
    for i in range(reps):
        if i % 2:
            after += _times(fn_after, 1)
        before += _times(fn_before, 1)
        if not i % 2:
            after += _times(fn_after, 1)
    return {"ms_before": round(statistics.median(before) * 1e3, 3),
            "ms_after": round(statistics.median(after) * 1e3, 3),
            "after_faster": sum(a < b for a, b in zip(after, before))}


def row(old, kind: str, f: list[int], q: int, reps: int, scan: bool = True) -> dict:
    roots = new._roots_by_gcd(f, q)
    assert old._roots_by_gcd(f, q) == roots
    assert not scan or new._roots_by_scan(f, q) == roots
    out = {"kind": kind, "q": q, "deg_f": len(f) - 1, "roots": len(roots)}
    if scan:
        out["scan_ms"] = round(median_ms(lambda: new._roots_by_scan(f, q), reps), 3)
    timed = alternate(lambda: old._roots_by_gcd(f, q), lambda: new._roots_by_gcd(f, q), reps)
    out.update({"gcd_" + k: v for k, v in timed.items()})
    return out


def planted(rng: random.Random, d: int, q: int) -> list[int]:
    """The monic product of d distinct linear factors x - r, r drawn from F_q."""
    h = [1]
    for r in rng.sample(range(q), d):
        h = [(a - r * b) % q for a, b in zip([0] + h, h + [0])]
    return h


def sparse(rng: random.Random, n: int, q: int) -> list[int]:
    """x^n plus two terms in [-3, 3] and a constant making f(1) = 0 mod q."""
    f = [0] * n + [1]
    for pos in rng.sample(range(1, n), 2):
        f[pos] = rng.choice([-3, -2, -1, 1, 2, 3])
    f[0] = -sum(f) % q
    return f


def first_split_prime(m: int, k: float) -> int:
    """The first prime q = 1 mod m past 2^k, so that Phi_m splits mod q."""
    start = int(2 ** k)
    return next_prime(start + 1 + (-start) % m, m)


def crossover_rows(old) -> list[dict]:
    rng = random.Random(SEED)
    rows = []
    for kind in ("sparse", "dense", "split"):
        for k in (12, 13, 14, 15, 15.5, 16, 17):
            for n in (8, 16, 32, 64):
                if kind == "split":
                    m = {8: 16, 16: 32, 32: 64, 64: 128}[n]
                    f, q = cyclotomic_poly(m), first_split_prime(m, k)
                else:
                    q = next_prime(int(2 ** k))
                    f = (sparse(rng, n, q) if kind == "sparse"
                         else [rng.randrange(q) for _ in range(n)] + [1])
                rows.append(row(old, kind, f, q, 7))
    for n in (96, 128, 256, 512):
        for q in (32771, 65537, 131101, 524309, 2097169):
            rows.append(row(old, "sparse", sparse(rng, n, q), q, 3))
    rows.append(row(old, "split", [1] + [0] * 1023 + [1], 59393, 1))
    return rows


def scan_rows(old) -> list[dict]:
    """`_roots_by_scan` of both checkouts: the attack's shapes (sparse and
    dense f of degree 16, 32 and 64, and its split cyclotomics) at q from
    257 to 2^16, then dense f of degree 64 and x^1024 + 1 at q = 2^20 - 1
    and 2^22 - 1 (composite, so `roots_mod_q` scans them too), several
    blocks of the scan each."""
    rng = random.Random(SEED)
    cases = []
    for q in (257, 2053, 8209, 17431, 32771, 65521):
        for n in (16, 32, 64):
            cases += [("sparse", sparse(rng, n, q), q, 25),
                      ("dense", [rng.randrange(q) for _ in range(n)] + [1], q, 25)]
    for m in (16, 60, 105, 128):
        for k in (8, 12, 14, 15):
            q = first_split_prime(m, k)
            cases.append((f"split Phi_{m}", cyclotomic_poly(m), q, 25))
    for q in ((1 << 20) - 1, (1 << 22) - 1):
        cases += [("dense", [rng.randrange(q) for _ in range(64)] + [1], q, 3),
                  ("x^1024 + 1", [1] + [0] * 1023 + [1], q, 3)]
    rows = []
    for kind, f, q, reps in cases:
        roots = new._roots_by_scan(f, q)
        assert old._roots_by_scan(f, q) == roots
        timed = alternate(lambda: old._roots_by_scan(f, q), lambda: new._roots_by_scan(f, q),
                          reps)
        rows.append({"kind": kind, "q": q, "deg_f": len(f) - 1, "roots": len(roots),
                     **{"scan_" + key: v for key, v in timed.items()}})
    return rows


def large_q_rows(old) -> list[dict]:
    """Phi_128, 64 roots, at q past the scan's cap."""
    return [row(old, "split", cyclotomic_poly(128), first_split_prime(128, k), 3, scan=False)
            for k in (31, 40, 61)]


def split_crossover() -> list[dict]:
    """(x + 3)^((q-1)/2) mod a product h of d distinct linear factors, in
    lists and in numpy with a division built per call, as `_split_roots`
    does: median of 9 alternating calls each."""
    rng = random.Random(SEED)
    rows = []
    for q in (65537, 131101, (1 << 31) - 1, next_prime(1 << 40), (1 << 61) - 1):
        for d in (4, 6, 8, 10, 12, 16, 24, 32, 48, 64):
            h, e = planted(rng, d, q), (q - 1) // 2
            in_lists = _pow_x_list(e, h, q, 3)
            assert in_lists == new.poly_trim(_pow_x(e, h, q, 3, _FDivision(h, q)))
            timed = alternate(lambda: _pow_x_list(e, h, q, 3),
                              lambda: _pow_x(e, h, q, 3, _FDivision(h, q)), 9)
            rows.append({"q": q, "d": d, "lists_ms": timed["ms_before"],
                         "numpy_ms": timed["ms_after"], "in_lists": new._split_in_lists(d, q)})
    return rows


def object_band_rows(old, reps: int = 15) -> list[dict]:
    """Where numpy's sums mod a factor of degree >= 8 are `object`: Phi_64
    and Phi_128 by `_roots_by_gcd`, and planted g of degree 24, 32 and 64
    by `_split_roots`, at the first prime q = 1 mod 128 past 2^31, 2^40
    and 2^61."""
    rng = random.Random(SEED)
    rows = []
    for k in (31, 40, 61):
        q = first_split_prime(128, k)
        for m in (64, 128):
            rows.append(row(old, f"Phi_{m}", cyclotomic_poly(m), q, reps, scan=False))
        for d in (24, 32, 64):
            g = planted(rng, d, q)
            roots = sorted(new._split_roots(g, q))
            assert sorted(old._split_roots(g, q)) == roots and len(roots) == d
            timed = alternate(lambda: old._split_roots(g, q), lambda: new._split_roots(g, q), reps)
            rows.append({"kind": "planted g", "q": q, "deg_g": d,
                         **{"split_" + key: v for key, v in timed.items()}})
    return rows


def main(argv: list[str]) -> None:
    old = load_parent(Path(argv[0]).resolve(), "polyring")
    tables = {"split_crossover": split_crossover, "object_band": lambda: object_band_rows(old),
              "large_q": lambda: large_q_rows(old), "crossover": lambda: crossover_rows(old),
              "scan": lambda: scan_rows(old)}
    out = {"host": host()}
    for name in argv[1:] or tables:
        out[name] = tables[name]()
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
