"""The Regev LWE bit cipher with its theorem-driven parameter derivation.

All logarithms are base 2 (the source material writes log without a
base; the choice changes m by a constant factor, so it is pinned here
for reproducibility).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, LengthMismatch, NTooSmall
from .gaussian import GaussianParams, fold_to_zq_array
from .rng import SeededRng
from .zq import Modulus, next_prime, reduce_centered


@dataclass(frozen=True)
class LweParams:
    n: int
    q: Modulus
    alpha: float
    m: int

    def __post_init__(self):
        if not self.n * self.n <= self.q <= 2 * self.n * self.n:
            raise InvalidParams("q must lie in [n^2, 2n^2]")

    @property
    def sigma(self) -> float:
        """Error parameter alpha * q / (2 pi)."""
        return self.alpha * self.q / (2.0 * math.pi)


@dataclass(frozen=True)
class LweSecretKey:
    s: np.ndarray  # shape (n,)


@dataclass(frozen=True)
class LwePublicKey:
    a: np.ndarray  # shape (m, n)
    b: np.ndarray  # shape (m,)
    params: LweParams


@dataclass(frozen=True)
class LweCiphertext:
    u: np.ndarray  # shape (n,)
    v: int


# keygen holds an m x n matrix, m ~ 2.2 n log2(n): at n = 2^10 that is 23 M
# residues.  `latticelab keygen` there took ~6 s and peaked at 0.21 GB (the
# matrix, 184 MB, and one block of the file it writes), and `encrypt` peaked
# at 0.23 GB (the key read back), on 2 CPUs with Python 3.11 and numpy 2.4
# (tests/bench_memory.py, BENCH_memory.json), so n stops there.
MAX_N = 1 << 10
# Entries of `a` that encrypt_bit gathers at a time: the whole key up to n = 64.
_SUM_ENTRIES = 1 << 16


def derive_params(n: int) -> LweParams:
    """q = next prime >= n^2, alpha = 1/(sqrt(n) log2(n)^2), m = ceil(1.1 n log2 q)."""
    if n < 16 or n & (n - 1):
        raise NTooSmall("n must be a power of two, n >= 16")
    if n > MAX_N:
        raise InvalidParams(f"n must be at most {MAX_N}, got {n}")
    q = next_prime(n * n)
    alpha = 1.0 / (math.sqrt(n) * math.log2(n) ** 2)
    m = math.ceil(1.1 * n * math.log2(q))
    return LweParams(n=n, q=Modulus(q), alpha=alpha, m=m)


def keygen(p: LweParams, rng: SeededRng) -> tuple[LweSecretKey, LwePublicKey]:
    """Uniform secret s; samples b_i = <a_i, s> + e_i with Gaussian e_i.

    Params with alpha = 0 give the noiseless degenerate cipher (e = 0).
    """
    q = p.q
    s = rng.uniform_array(q, p.n)
    a = rng.uniform_array(q, p.m * p.n).reshape(p.m, p.n)
    if p.sigma > 0:
        e = fold_to_zq_array(GaussianParams(sigma=p.sigma), p.q, rng, p.m)
    else:
        e = np.zeros(p.m, dtype=np.int64)
    b = (a @ s + e) % q
    return LweSecretKey(s=s), LwePublicKey(a=a, b=b, params=p)


def encrypt_bit(pk: LwePublicKey, z: int, rng: SeededRng) -> LweCiphertext:
    """u = sum_{i in S} a_i, v = z*floor(q/2) + sum_{i in S} b_i.

    S includes each index independently with probability 1/2.
    """
    if z not in (0, 1):
        raise InvalidParams("plaintext must be a bit")
    p = pk.params
    q = p.q
    raw = np.frombuffer(rng.take_bytes((p.m + 7) // 8), dtype=np.uint8)
    subset = np.unpackbits(raw)[: p.m] == 1
    step = max(1, _SUM_ENTRIES // max(p.n, 1))
    u = pk.a[:step][subset[:step]].sum(axis=0)
    for i in range(step, p.m, step):  # a block of rows at a time, not one gather of all
        u += pk.a[i : i + step][subset[i : i + step]].sum(axis=0)
    u %= q
    v = (z * (q // 2) + int(pk.b[subset].sum())) % q
    return LweCiphertext(u=u, v=v)


def decrypt_bit(sk: LweSecretKey, ct: LweCiphertext, p: LweParams) -> int:
    """Nearest-of-{0, floor(q/2)} rounding on d = v - <u, s>: the bit is 1
    iff the centered d has |d| > floor(q/4).  For odd q, |d| = q/4 cannot
    occur, so this is the nearest point exactly."""
    if len(ct.u) != len(sk.s):
        raise LengthMismatch("ciphertext/key dimension mismatch")
    return int(abs(reduce_centered(ct.v - int(ct.u @ sk.s), p.q)) > p.q // 4)


def public_key_size(p: LweParams) -> int:
    """Number of F_q residues in a public key: m * (n + 1)."""
    return p.m * (p.n + 1)
