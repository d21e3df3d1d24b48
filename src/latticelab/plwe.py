"""PLWE sample oracles and the LPR public-key cryptosystem.

One message block is n bits, encoded as a polynomial with 0/1
coefficients; encryption masks floor(q/2) * z with ring products of
error-distributed elements and decryption rounds each coefficient back
to the nearest of {0, floor(q/2)}, ties to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, LengthMismatch
from .gaussian import MAX_SIGMA, GaussianParams, fold_to_zq_array
from .polyring import (
    RingElement,
    RingParams,
    ring_add,
    ring_from_coeffs,
    ring_mul,
    ring_sub,
    ring_uniform,
)
from .rng import SeededRng
from .zq import Modulus, is_prime


@dataclass(frozen=True)
class PlweParams:
    ring: RingParams
    sigma: float

    def __post_init__(self):
        if not 0 <= self.sigma <= MAX_SIGMA:
            raise InvalidParams(f"sigma must be in [0, {MAX_SIGMA}], got {self.sigma}")

    @property
    def n(self) -> int:
        return self.ring.n


@dataclass(frozen=True)
class PlweKeyPair:
    s: RingElement
    a: RingElement
    b: RingElement


@dataclass(frozen=True)
class PlweCiphertext:
    u: RingElement
    v: RingElement


@dataclass(frozen=True)
class PlweSample:
    a: RingElement
    b: RingElement


def split_prime(n: int, floor: int = 4096) -> int:
    """Smallest prime q = 1 (mod 2n) with q >= floor.

    q = 1 mod 2n makes x^n + 1 split totally mod q.
    """
    q = floor + ((1 - floor) % (2 * n))
    while not is_prime(q):
        q += 2 * n
    return q


def default_params(n: int, sigma: float = 3.2, floor: int = 4096) -> PlweParams:
    """f = x^n + 1 with a totally-splitting prime above `floor`."""
    if n < 2 or n & (n - 1):
        raise InvalidParams("n must be a power of two >= 2")
    f = tuple([1] + [0] * (n - 1) + [1])
    return PlweParams(ring=RingParams(f=f, q=Modulus(split_prime(n, floor))), sigma=sigma)


def sample_error(p: PlweParams, rng: SeededRng) -> RingElement:
    """Ring element with independent folded-Gaussian coefficients."""
    if p.sigma == 0:
        return ring_from_coeffs([0], p.ring)
    return RingElement(fold_to_zq_array(GaussianParams(sigma=p.sigma), p.ring.q, rng, p.n), p.ring)


def oracle_sample(p: PlweParams, s: RingElement, rng: SeededRng) -> PlweSample:
    """One draw (a, a*s + e) from the PLWE distribution for secret s."""
    a = ring_uniform(p.ring, rng)
    e = sample_error(p, rng)
    return PlweSample(a=a, b=ring_add(ring_mul(a, s), e))


def uniform_sample_pair(p: PlweParams, rng: SeededRng) -> PlweSample:
    """Both components uniform and independent (the null distribution)."""
    return PlweSample(a=ring_uniform(p.ring, rng), b=ring_uniform(p.ring, rng))


def keygen(p: PlweParams, rng: SeededRng) -> PlweKeyPair:
    """a uniform; s, e error-distributed; b = a*s + e.

    The secret is deliberately error-distributed rather than uniform;
    pseudorandomness of the public key relies on it.
    """
    a = ring_uniform(p.ring, rng)
    s = sample_error(p, rng)
    e = sample_error(p, rng)
    return PlweKeyPair(s=s, a=a, b=ring_add(ring_mul(a, s), e))


def encrypt(
    pk: tuple[RingElement, RingElement], bits: list[int], p: PlweParams, rng: SeededRng
) -> PlweCiphertext:
    """u = a*r + e1, v = b*r + e2 + floor(q/2) * z, for one n-bit block,
    with r, e1 and e2 error-distributed."""
    if len(bits) != p.n:
        raise LengthMismatch(f"expected exactly {p.n} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise InvalidParams("plaintext must be bits")
    a, b = pk
    half_z = RingElement(np.array(bits, dtype=np.int64) * (int(p.ring.q) // 2), p.ring)
    r = sample_error(p, rng)
    e1 = sample_error(p, rng)
    e2 = sample_error(p, rng)
    u = ring_add(ring_mul(a, r), e1)
    v = ring_add(ring_add(ring_mul(b, r), e2), half_z)
    return PlweCiphertext(u=u, v=v)


def decrypt(s: RingElement, ct: PlweCiphertext) -> list[int]:
    """Round each coefficient of v - u*s to the nearest of {0, floor(q/2)}."""
    q = int(s.params.q)
    r = ring_sub(ct.v, ring_mul(ct.u, s)).vec
    # for odd q the centered c of r has -q < 4c <= q exactly when
    # r <= q//4 or r >= q - q//4
    return ((r > q // 4) & (r < q - q // 4)).astype(np.int64).tolist()


def public_key_size(p: PlweParams) -> int:
    """Number of F_q residues in a public key: 2n."""
    return 2 * p.n
