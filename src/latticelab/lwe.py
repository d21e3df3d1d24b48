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
        if not self.n * self.n <= int(self.q) <= 2 * self.n * self.n:
            raise InvalidParams("q must lie in [n^2, 2n^2]")

    @property
    def sigma(self) -> float:
        """Error parameter alpha * q / (2 pi)."""
        return self.alpha * int(self.q) / (2.0 * math.pi)


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


def derive_params(n: int) -> LweParams:
    """q = next prime >= n^2, alpha = 1/(sqrt(n) log2(n)^2), m = ceil(1.1 n log2 q)."""
    if n < 16 or n & (n - 1):
        raise NTooSmall("n must be a power of two, n >= 16")
    q = next_prime(n * n)
    alpha = 1.0 / (math.sqrt(n) * math.log2(n) ** 2)
    m = math.ceil(1.1 * n * math.log2(q))
    return LweParams(n=n, q=Modulus(q), alpha=alpha, m=m)


def keygen(p: LweParams, rng: SeededRng) -> tuple[LweSecretKey, LwePublicKey]:
    """Uniform secret s; samples b_i = <a_i, s> + e_i with Gaussian e_i.

    Params with alpha = 0 give the noiseless degenerate cipher (e = 0).
    """
    q = int(p.q)
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
    q = int(p.q)
    raw = np.frombuffer(rng.take_bytes((p.m + 7) // 8), dtype=np.uint8)
    subset = np.unpackbits(raw)[: p.m] == 1
    u = pk.a[subset].sum(axis=0) % q
    v = (z * (q // 2) + int(pk.b[subset].sum())) % q
    return LweCiphertext(u=u, v=v)


def decrypt_bit(sk: LweSecretKey, ct: LweCiphertext, p: LweParams) -> int:
    """Nearest-of-{0, floor(q/2)} rounding on d = v - <u, s>, ties to 0."""
    q = int(p.q)
    if len(ct.u) != len(sk.s):
        raise LengthMismatch("ciphertext/key dimension mismatch")
    d = reduce_centered((ct.v - int(ct.u @ sk.s)) % q, q)
    # centered d in (-q/4, q/4] means bit 0; exact rational comparison
    return 0 if -q < 4 * d <= q else 1


def public_key_size(p: LweParams) -> int:
    """Number of F_q residues in a public key: m * (n + 1)."""
    return p.m * (p.n + 1)
