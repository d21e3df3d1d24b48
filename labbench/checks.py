"""Reference computations the benchmark checks latticelab's outputs against.

Nothing here calls latticelab: every expected value is computed by a
different route from the one the package takes (FFT products instead of
direct convolution, power tables instead of Horner, numpy masks over all
q candidates instead of a shrinking Python set), so a wrong answer from
the program cannot be reproduced by the check.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference computation."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def centered(v, q: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.int64) % q
    return np.where(2 * v <= q, v, v - q)


# ---------------------------------------------------------------------------
# Rings and GLYPH


def negacyclic_mul(a, b, q: int) -> np.ndarray:
    """a*b in Z_q[x]/(x^n + 1), through a float FFT with an exactness guard."""
    a, b = centered(a, q), centered(b, q)
    n = len(a)
    full = np.fft.irfft(np.fft.rfft(a, 2 * n) * np.fft.rfft(b, 2 * n), 2 * n)
    exact = np.rint(full)
    require(np.abs(full - exact).max() < 0.25, "FFT product is not exact")
    exact = exact.astype(np.int64)
    return (exact[:n] - exact[n:]) % q


def glyph_challenge(w, message: bytes, n: int, q: int, k: int) -> np.ndarray:
    """H(omega(w) || message) as glyph.py documents it: SHAKE-256 blocks of
    1024 bytes keyed by a 4-byte counter, 3 bytes per candidate (a 16-bit
    position below the largest multiple of n, then a sign bit), repeated
    positions skipped, until k distinct +-1 entries are placed."""
    width = ((q - 1).bit_length() + 7) // 8
    raw = np.asarray(w, dtype="<u8").view(np.uint8).reshape(n, 8)[:, :width]
    data = raw.tobytes() + message
    limit = 65536 - 65536 % n
    c = np.zeros(n, dtype=np.int64)
    placed, counter = 0, 0
    while placed < k:
        stream = hashlib.shake_256(data + counter.to_bytes(4, "little")).digest(1024)
        counter += 1
        for pos in range(0, len(stream) - 2, 3):
            val = stream[pos] | (stream[pos + 1] << 8)
            if val >= limit or c[val % n]:
                continue
            c[val % n] = 1 if stream[pos + 2] & 1 else q - 1
            placed += 1
            if placed == k:
                break
    return c


def check_glyph_key(a, s, e, t, q: int) -> None:
    require(np.array_equal(np.asarray(t) % q, (negacyclic_mul(a, s, q) + np.asarray(e)) % q),
            "public t differs from a*s + e")


def check_glyph_signature(a, t, message: bytes, c, z1, z2, q: int, b: int, k: int) -> None:
    """Norms, challenge shape, and c == H(a*z1 + z2 - t*c || message)."""
    c, z1, z2 = (np.asarray(x, dtype=np.int64) for x in (c, z1, z2))
    n = len(c)
    beta = b - k
    require(np.abs(centered(z1, q)).max() <= beta, "||z1|| exceeds beta")
    require(np.abs(centered(z2, q)).max() <= beta, "||z2|| exceeds beta")
    require(np.isin(c, (0, 1, q - 1)).all(), "challenge has an entry other than 0, +-1")
    require(np.count_nonzero(c) == k, "challenge does not have exactly k entries")
    w = (negacyclic_mul(a, z1, q) + z2 - negacyclic_mul(t, c, q)) % q
    require(np.array_equal(glyph_challenge(w, message, n, q, k), c),
            "challenge does not hash back from w'")


def flip_bit(message: bytes, bit: int = 0) -> bytes:
    out = bytearray(message)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


# ---------------------------------------------------------------------------
# Evaluation attacks


def is_prime_small(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def divisors(m: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return sorted(set(small + [m // d for d in small]))


def order_mod(alpha: int, q: int) -> int:
    """Least r >= 1 with alpha^r = 1 mod q, over the divisors of q - 1."""
    return next(r for r in divisors(q - 1) if pow(alpha, r, q) == 1)


def poly_values(f, q: int) -> np.ndarray:
    """f(x) mod q for every x in [0, q), summing c_i * x^i from a power table."""
    xs = np.arange(q, dtype=np.int64)
    acc = np.zeros(q, dtype=np.int64)
    power = np.ones(q, dtype=np.int64)
    for c in f:
        acc = (acc + (int(c) % q) * power) % q
        power = power * xs % q
    return acc


def eval_at(coeffs, alpha: int, q: int) -> int:
    return sum(int(c) * pow(alpha, i, q) for i, c in enumerate(coeffs)) % q


def cyclotomic(m: int) -> list[int]:
    """Phi_m as the product of (x^d - 1)^mu(m/d) over d | m, lowest degree first."""

    def mobius(k: int) -> int:
        out, p = 1, 2
        while p * p <= k:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if k > 1 else out

    num, den = [1], [1]
    for d in divisors(m):
        mu = mobius(m // d)
        if mu:
            term = [-1] + [0] * (d - 1) + [1]
            if mu > 0:
                num = _mul(num, term)
            else:
                den = _mul(den, term)
    quo, rem = _divmod_monic(num, den)
    require(not any(rem), "cyclotomic division is not exact")
    return quo


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divmod_monic(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    a = list(a)
    db = len(b) - 1
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        quo[i - db] = c
        for j in range(db + 1):
            a[i - db + j] -= c * b[j]
    return quo, a[:db]


@functools.lru_cache(maxsize=256)
def scan_facts(f: tuple[int, ...], q: int) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """(f(1) = 0 mod q, the nonzero roots of f mod q with their orders)."""
    vals = poly_values(f, q)
    roots = [int(x) for x in np.flatnonzero(vals == 0) if x != 0]
    return bool(vals[1] == 0), tuple((a, order_mod(a, q)) for a in roots)


def check_scan(report, f, q: int, r_max: int = 8) -> None:
    """root_one, the roots and their orders against a direct evaluation."""
    root_one, roots = scan_facts(tuple(f), q)
    require(bool(report.root_one) == root_one, "root_one disagrees with f(1) mod q")
    require([a for a, _ in report.roots] == [a for a, _ in roots], "roots disagree with f mod q")
    require(tuple(report.roots) == roots, "a root order is wrong")
    small = tuple((a, r) for a, r in roots if r <= r_max)
    require(tuple(report.small_order_roots) == small, "small-order roots are wrong")
    if len(roots) < len(f) - 1:
        require(not report.totally_split, "f reported totally split with too few roots")


def check_cyclotomic_scan(report, m: int, q: int) -> None:
    """Phi_m with q = 1 (mod m) splits into phi(m) roots, each of order m."""
    f = cyclotomic(m)
    check_scan(report, f, q)
    require(report.totally_split, f"Phi_{m} mod {q} not reported totally split")
    require(not report.root_one, f"Phi_{m} mod {q} reported with a root at 1")
    require(len(report.roots) == len(f) - 1, f"Phi_{m} mod {q} root count is not phi(m)")
    require(all(r == m for _, r in report.roots), f"a root of Phi_{m} does not have order m")


def region_mask(alpha: int, q: int, n: int, sigma: float, t: float) -> np.ndarray:
    """Values sum c_i alpha^i, |c_i| <= floor(t sqrt(M+1) sigma), i < ord(alpha),
    built as a repeated sumset on a boolean mask of length q."""
    r = order_mod(alpha, q)
    bound = math.floor(t * math.sqrt((n - 1) // r + 1) * sigma)
    mask = np.zeros(q, dtype=bool)
    mask[0] = True
    for i in range(r):
        w = pow(alpha, i, q)
        grown = np.zeros(q, dtype=bool)
        for c in range(-bound, bound + 1):
            grown |= np.roll(mask, c * w % q)
        mask = grown
    return mask


def threshold_mask(q: int, threshold: float) -> np.ndarray:
    """Residues e with |centered(e)| <= threshold (Algorithm 1's acceptance)."""
    return np.abs(centered(np.arange(q), q)) <= threshold


def survivor_counts(evals, q: int, accept: np.ndarray) -> list[int]:
    """Candidates s in [0, q) alive after each (a(alpha), b(alpha)) pair."""
    s = np.arange(q, dtype=np.int64)
    alive = np.ones(q, dtype=bool)
    out = []
    for a_val, b_val in evals:
        alive &= accept[(b_val - s * a_val) % q]
        out.append(int(alive.sum()))
    return out


def check_verdicts(verdicts, expected_counts: list[int]) -> None:
    require(len(verdicts) == len(expected_counts), "one verdict per sample expected")
    for i, (v, count) in enumerate(zip(verdicts, expected_counts)):
        require(v.surviving_secrets == count,
                f"sample {i}: {v.surviving_secrets} survivors, brute force gives {count}")
        require(v.label == ("valid" if count else "random"), f"sample {i}: wrong label")


# ---------------------------------------------------------------------------
# CLI outputs


def check_bits(expected: str, text: str, what: str) -> None:
    require(text.strip() == expected, f"{what}: decrypted bits differ from the message")


def bgv_clear(a, b, c, m: int, p: int) -> list[int]:
    """(a*b)+c in Z_p[x]/(Phi_m), in the clear."""
    phi = cyclotomic(m)
    n = len(phi) - 1
    _, rem = _divmod_monic(_mul(list(a), list(b)) + [0] * n, phi)
    out = [0] * n
    for i, v in enumerate(rem):
        out[i] += v
    for i, v in enumerate(c):
        out[i] += v
    return [v % p for v in out]


def gaussian_fit(draws, sigma: float, tail_cut: float = 12.0, false_alarm: float = 1e-9) -> float:
    """Kolmogorov-Smirnov distance of the draws from the truncated discrete
    Gaussian; fails above the distance a correct sampler exceeds with
    probability `false_alarm` at this draw count."""
    draws = np.asarray(draws, dtype=np.int64)
    lo, hi = math.ceil(-tail_cut * sigma), math.floor(tail_cut * sigma)
    require(draws.min() >= lo and draws.max() <= hi, "a draw lies outside the support")
    weights = [math.exp(-(k * k) / (2.0 * sigma * sigma)) for k in range(lo, hi + 1)]
    total = math.fsum(weights)
    cdf = np.cumsum([w / total for w in weights])
    emp = np.cumsum(np.bincount(draws - lo, minlength=hi - lo + 1)) / len(draws)
    dist = float(np.abs(emp - cdf).max())
    limit = math.sqrt(math.log(2.0 / false_alarm) / (2.0 * len(draws)))
    require(dist <= limit, f"sample: KS distance {dist:.4f} above {limit:.4f}")
    return dist
