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
# Entries of each float64 array of encrypt_bits' products: a block of key rows
# (with b beside them), a block of bits' subset rows and their sums.  At
# n = 1024 a float64 copy of the key would be 184 MB, so it is cast a block
# of rows at a time, once per block of bits.
_SUM_ENTRIES = 1 << 14


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


def encrypt_bits(pk: LwePublicKey, bits, rngs) -> list[LweCiphertext]:
    """encrypt_bit of each bit with its rng, in order: bit i reads its subset
    S_i from rngs[i] exactly as encrypt_bit does.  The sums are then one
    float64 product per block of bits and block of key rows: with the
    message term, each is below (m + 1) * q <= 2^53, so every sum is exact.

    A non-bit anywhere, or a key too large for exact sums, raises
    InvalidParams before any rng is read."""
    bits, rngs = list(bits), list(rngs)
    if len(bits) != len(rngs):
        raise LengthMismatch(f"{len(bits)} bits but {len(rngs)} rngs")
    if any(z not in (0, 1) for z in bits):
        raise InvalidParams("plaintext must be a bit")
    p = pk.params
    if (p.m + 1) * p.q > 1 << 53:  # derive_params keeps it below 2^36
        raise InvalidParams("need (m + 1) * q <= 2^53: the sums are exact float64 sums")
    q, m, n, width = p.q, p.m, p.n, (p.m + 7) // 8
    rows = max(8, _SUM_ENTRIES // (n + 1)) // 8 * 8  # key rows per product: whole bytes
    step = max(1, _SUM_ENTRIES // max(rows, n + 1))  # bits per product
    cts = []
    for i in range(0, len(bits), step):
        raw = b"".join(rng.take_bytes(width) for rng in rngs[i : i + step])
        packed = np.frombuffer(raw, dtype=np.uint8).reshape(-1, width)  # row t: S of bit i + t
        sums = np.zeros((len(packed), n + 1))  # u and v side by side
        for j in range(0, m, rows):
            key = np.empty((min(rows, m - j), n + 1))
            key[:, :n], key[:, n] = pk.a[j : j + rows], pk.b[j : j + rows]
            chosen = np.unpackbits(packed[:, j // 8 : (j + rows) // 8], axis=1, count=len(key))
            sums += chosen.astype(np.float64) @ key
        sums[:, n] += np.array(bits[i : i + step]) * (q // 2)
        uv = sums.astype(np.int64)
        uv %= q
        cts += [LweCiphertext(u=row[:n], v=int(row[n])) for row in uv]
    return cts


def encrypt_bit(pk: LwePublicKey, z: int, rng: SeededRng) -> LweCiphertext:
    """u = sum_{i in S} a_i, v = z*floor(q/2) + sum_{i in S} b_i.

    S includes each index independently with probability 1/2: index i is in
    S iff bit i of the rng's next ceil(m/8) bytes, most significant bit
    first, is 1."""
    return encrypt_bits(pk, [z], [rng])[0]


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
