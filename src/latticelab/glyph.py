"""GLYPH rejection-sampling signatures over Z_q[x]/(x^n + 1).

Interoperability decisions (changing any of these breaks verification
against other implementations):

* H is SHAKE-256; the digest stream is consumed 3 bytes per candidate
  (2 for a position, so n <= 2^16, and 1 for a sign bit), repeated
  positions rejected, until exactly k distinct +-1 coefficients are placed.
* omega is the fixed-width little-endian byte encoding of all n
  coefficients of w in [0, q).
* challenge coefficients are +-1, which is what makes the rejection
  bound beta = b - k work: each coefficient of s*c is a signed sum of k
  ternary secret entries, so |s*c| <= k coefficient-wise.
* secret-key coefficients are ternary {-1, 0, 1}; masking polynomials
  y1, y2 are uniform in {-b, ..., b}.  `GlyphParams` requires
  b + k < q/2, so z = y + s*c, at most b + k in magnitude, is its own
  centered residue, and the norm test over Z_q is one over Z.

`sign` never transforms c.  Since c is k signed powers of x, s*c is a
signed sum of k negacyclic rotations x^j * s, which `sign` gathers from
one window table per call (`_rotations`) and adds exactly in int64; it
tests the norms on the integers y + s*c and reduces mod q only the pair
it returns.  a*y1 and everything in `verify` stay on `ring_mul`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParams, ParamMismatch, RejectionOverflow
from .polyring import RingElement, RingParams, ring_add, ring_mul, ring_sub, ring_uniform
from .rng import SeededRng
from .zq import Modulus, reduce_centered

MAX_SIGN_ITERS = 10_000


@dataclass(frozen=True)
class GlyphParams:
    n: int = 1024
    q: Modulus = Modulus(59393)
    b: int = 16383
    k: int = 16

    def __post_init__(self):
        if self.q % 4 != 1:
            raise InvalidParams("q must be congruent to 1 mod 4")
        if not 0 < self.k <= self.b:
            raise InvalidParams("need 0 < k <= b")
        if self.n < 2 or self.n > 1 << 16 or self.n & (self.n - 1):
            raise InvalidParams("n must be a power of two in [2, 2^16]: a position is 2 bytes")
        if self.k > self.n:
            raise InvalidParams(f"need k <= n: a challenge has k = {self.k} distinct positions")
        if 2 * (self.b + self.k) >= self.q:
            raise InvalidParams("need b + k < q/2, or a centered z = y + s*c wraps mod q")

    @property
    def beta(self) -> int:
        return self.b - self.k

    @cached_property
    def ring(self) -> RingParams:
        return RingParams(f=tuple([1] + [0] * (self.n - 1) + [1]), q=self.q)

    @property
    def coeff_width(self) -> int:
        return (self.q - 1).bit_length() + 7 >> 3


@dataclass(frozen=True)
class GlyphSecretKey:
    s: RingElement
    e: RingElement


@dataclass(frozen=True)
class GlyphPublicKey:
    a: RingElement
    t: RingElement


@dataclass(frozen=True)
class GlyphSignature:
    c: RingElement
    z1: RingElement
    z2: RingElement


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: str | None = None


def _bounded_draw(p: GlyphParams, bound: int, rng: SeededRng) -> np.ndarray:
    """n integers uniform in {-bound, ..., bound}."""
    return rng.uniform_array(2 * bound + 1, p.n) - bound


def _bounded_uniform(p: GlyphParams, bound: int, rng: SeededRng) -> RingElement:
    """Element with coefficients uniform in {-bound, ..., bound}."""
    return RingElement._of(_bounded_draw(p, bound, rng) % p.ring.q, p.ring)


def keygen(p: GlyphParams, rng: SeededRng) -> tuple[GlyphSecretKey, GlyphPublicKey]:
    """Ternary (s, e); public (a, t = a*s + e) with a uniform."""
    s = _bounded_uniform(p, 1, rng)
    e = _bounded_uniform(p, 1, rng)
    a = ring_uniform(p.ring, rng)
    t = ring_add(ring_mul(a, s), e)
    return GlyphSecretKey(s=s, e=e), GlyphPublicKey(a=a, t=t)


def encode_poly(w: RingElement, p: GlyphParams) -> bytes:
    """Canonical fixed-width little-endian encoding of all n coefficients."""
    raw = w.vec.astype("<u8").view(np.uint8).reshape(p.n, 8)
    return raw[:, : p.coeff_width].tobytes()


def hash_to_sparse(data: bytes, p: GlyphParams) -> RingElement:
    """Digest-keyed polynomial with exactly k coefficients, each +-1."""
    q = p.ring.q
    placed: dict[int, int] = {}  # index -> residue of +-1
    counter = 0
    stream = b""
    pos = 0
    while len(placed) < p.k:
        if pos + 3 > len(stream):
            h = hashlib.shake_256(data + counter.to_bytes(4, "little"))
            stream, pos, counter = h.digest(1024), 0, counter + 1
        chunk, pos = stream[pos : pos + 3], pos + 3
        idx = (chunk[0] | (chunk[1] << 8)) % p.n  # unbiased: n divides 2^16
        if idx in placed:
            continue
        placed[idx] = 1 if chunk[2] & 1 else q - 1
    coeffs = np.zeros(p.n, dtype=np.int64)
    coeffs[list(placed)] = list(placed.values())
    return RingElement(coeffs, p.ring)


def _rotations(x: np.ndarray) -> np.ndarray:
    """The n + 1 windows of length n over [-x, x], for x of length n: row
    n - j is x^j * x in Z[x]/(x^n + 1), for 0 <= j < n."""
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([-x, x]), len(x))


def _challenge_rows(c: RingElement) -> tuple[np.ndarray, np.ndarray]:
    """The `_rotations` rows x^j for c's +1 positions j, and for its -1 positions."""
    n, pos = c.params.n, np.flatnonzero(c.vec)
    plus = c.vec[pos] == 1
    return n - pos[plus], n - pos[~plus]


def _challenge_product(rot: np.ndarray, rows: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """x * c over Z[x]/(x^n + 1) for rot = `_rotations(x)` and rows =
    `_challenge_rows(c)`: k rows of x's entries, exact in int64."""
    plus, minus = rows
    return rot[plus].sum(axis=0) - rot[minus].sum(axis=0)


def _ternary(x: RingElement, p: GlyphParams) -> np.ndarray:
    """The centered coefficients of x, a secret-key element of p's ring,
    which must lie in {-1, 0, 1}."""
    if x.params is not p.ring and x.params != p.ring:
        raise ParamMismatch("the secret key lives in another ring")
    v = reduce_centered(x.vec, p.ring.q)
    if np.abs(v).max() > 1:
        raise InvalidParams("a GLYPH secret key must be ternary")
    return v


def sign(
    sk: GlyphSecretKey,
    pk: GlyphPublicKey,
    message: bytes,
    p: GlyphParams,
    rng: SeededRng,
) -> tuple[GlyphSignature, int]:
    """Rejection-sampling loop; returns the signature and iteration count.
    s*c and e*c are `_challenge_product`s, and z1, z2 are tested over Z
    (module docstring)."""
    q = p.ring.q
    rot_s, rot_e = (_rotations(_ternary(x, p)) for x in (sk.s, sk.e))
    for it in range(1, MAX_SIGN_ITERS + 1):
        y1 = _bounded_draw(p, p.b, rng)
        y2 = _bounded_draw(p, p.b, rng)
        w = ring_mul(pk.a, RingElement._of(y1 % q, p.ring)).vec + y2
        c = hash_to_sparse(encode_poly(RingElement._of(w % q, p.ring), p) + message, p)
        rows = _challenge_rows(c)
        z1 = y1 + _challenge_product(rot_s, rows)
        if np.abs(z1).max() > p.beta:
            continue  # z2 draws no randomness, so skipping it keeps the stream
        z2 = y2 + _challenge_product(rot_e, rows)
        if np.abs(z2).max() <= p.beta:
            return GlyphSignature(c=c, z1=RingElement._of(z1 % q, p.ring),
                                  z2=RingElement._of(z2 % q, p.ring)), it
    raise RejectionOverflow(f"no acceptable signature in {MAX_SIGN_ITERS} iterations")


def verify(
    pk: GlyphPublicKey, message: bytes, sig: GlyphSignature, p: GlyphParams
) -> VerifyResult:
    """Norm check, then recompute the challenge from w' = a*z1 + z2 - t*c."""
    if sig.z1.inf_norm() > p.beta or sig.z2.inf_norm() > p.beta:
        return VerifyResult(False, "norm")
    w = ring_sub(ring_add(ring_mul(pk.a, sig.z1), sig.z2), ring_mul(pk.t, sig.c))
    c_prime = hash_to_sparse(encode_poly(w, p) + message, p)
    if not np.array_equal(c_prime.vec, sig.c.vec):
        return VerifyResult(False, "challenge mismatch")
    return VerifyResult(True)
