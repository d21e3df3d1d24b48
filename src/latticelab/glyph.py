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

Neither `sign` nor `verify` transforms c.  Since c is k signed powers of
x, x*c is a signed sum of k negacyclic rotations +-x^j * x, which both
gather from a window table (`_windows`) and add exactly: s*c and e*c from
the secret key's tables, t*c from the public key's, each built once per
key object.  `sign` takes c as its k (position, sign) pairs
(`challenge_pairs`), tests the norms on the integers y + s*c, and builds c
and reduces mod q only for the signature it returns.

`sign` works on SIGN_BATCH candidate iterations at a time: their masks
y1, y2 come from one `uniform_rows` draw, the same bytes as one
`uniform_array` per mask, and their w = a*y1 + y2 from one batched
`ring_mul_vec`.  The hash and the norm tests then run candidate by
candidate, in order, so the signature and iteration count are the ones
the one-at-a-time loop gives; on acceptance the rng is rewound to just
after that candidate's y2, so the stream is left where that loop leaves
it, and the later candidates' draws are never seen.  `verify` tests the
norms on the residues, and forms w' = a*z1 + z2 - t*c by one
`ring_mul_vec` with z2 - t*c as its addend.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParams, RejectionOverflow
from .polyring import (RingElement, RingParams, check_same_params, ring_add, ring_mul,
                       ring_mul_vec, ring_uniform)
from .rng import SeededRng
from .zq import Modulus, reduce_centered

MAX_SIGN_ITERS = 10_000
# Candidate iterations drawn and multiplied at once by `sign`: 1, 2, 4 and 8
# measured in BENCH_sign_batch.json.
SIGN_BATCH = 4


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
        if (self.k + 2) * self.q >= 1 << 63:
            raise InvalidParams("need (k + 2) * q < 2^63: verify sums a*z1, z2 and k rows of t "
                                "in int64")

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

    @cached_property
    def windows(self) -> tuple[np.ndarray, np.ndarray]:
        """The int8 `_windows` of s and e, whose centered coefficients must lie
        in {-1, 0, 1}: |s*c| <= k, the bound beta = b - k and the narrow
        `_challenge_product` rest on it.  Built on first use; a key that fails
        the check caches nothing and fails it again on every use."""
        return tuple(_windows(_ternary(x).astype(np.int8)) for x in (self.s, self.e))


@dataclass(frozen=True)
class GlyphPublicKey:
    a: RingElement
    t: RingElement

    @cached_property
    def t_windows(self) -> np.ndarray:
        """The `_windows` of t's residues, built on first use."""
        return _windows(self.t.vec)


@dataclass(frozen=True)
class GlyphSignature:
    c: RingElement
    z1: RingElement
    z2: RingElement


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: str | None = None


def _bounded_uniform(p: GlyphParams, bound: int, rng: SeededRng) -> RingElement:
    """Element with coefficients uniform in {-bound, ..., bound}."""
    return RingElement._of((rng.uniform_array(2 * bound + 1, p.n) - bound) % p.ring.q, p.ring)


def keygen(p: GlyphParams, rng: SeededRng) -> tuple[GlyphSecretKey, GlyphPublicKey]:
    """Ternary (s, e); public (a, t = a*s + e) with a uniform."""
    s = _bounded_uniform(p, 1, rng)
    e = _bounded_uniform(p, 1, rng)
    a = ring_uniform(p.ring, rng)
    t = ring_add(ring_mul(a, s), e)
    return GlyphSecretKey(s=s, e=e), GlyphPublicKey(a=a, t=t)


def encode_poly(w: RingElement, p: GlyphParams) -> bytes:
    """Canonical fixed-width little-endian encoding of all n coefficients:
    one cast where the width is a numpy integer size (2 bytes at the
    default q), else a slice of each little-endian 8-byte word."""
    width = p.coeff_width
    if width & (width - 1) == 0:
        return w.vec.astype(f"<u{width}").tobytes()
    return w.vec.astype("<u8").view(np.uint8).reshape(p.n, 8)[:, :width].tobytes()


def challenge_pairs(data: bytes, p: GlyphParams) -> dict[int, int]:
    """The digest-keyed challenge as its k nonzero coefficients, position ->
    +1 or -1, in the order the stream placed them."""
    n, placed = p.n, {}
    counter = 0
    stream = b""
    pos = 0
    while len(placed) < p.k:
        if pos + 3 > len(stream):
            h = hashlib.shake_256(data + counter.to_bytes(4, "little"))
            stream, pos, counter = h.digest(1024), 0, counter + 1
        idx = (stream[pos] | (stream[pos + 1] << 8)) % n  # unbiased: n divides 2^16
        if idx not in placed:
            placed[idx] = 1 if stream[pos + 2] & 1 else -1
        pos += 3
    return placed


def hash_to_sparse(data: bytes, p: GlyphParams) -> RingElement:
    """Digest-keyed polynomial with exactly k coefficients, each +-1."""
    return _sparse(challenge_pairs(data, p), p)


def _sparse(pairs: dict[int, int], p: GlyphParams) -> RingElement:
    """The element with the coefficients `pairs` (position -> +-1), zero elsewhere."""
    coeffs = np.zeros(p.n, dtype=np.int64)
    coeffs[list(pairs)] = list(pairs.values())
    return RingElement._of(coeffs % p.ring.q, p.ring)


def _windows(x: np.ndarray) -> np.ndarray:
    """The 2n + 1 windows of length n over [-x, x, -x], in x's dtype, for x
    of length n: row n - j is x^j * x in Z[x]/(x^n + 1), and row 2n - j is
    -x^j * x, for 0 <= j < n."""
    flat = np.concatenate([-x, x, -x])
    step = flat.strides[0]
    return np.lib.stride_tricks.as_strided(flat, (2 * len(x) + 1, len(x)), (step, step),
                                           writeable=False)


def _window_rows(pairs: dict[int, int], n: int) -> np.ndarray:
    """The `_windows` rows +-x^j for the challenge `pairs` (position j -> +-1)."""
    return np.array([n - j if sgn > 0 else 2 * n - j for j, sgn in pairs.items()])


def _pairs_of(c: RingElement, p: GlyphParams) -> dict[int, int] | None:
    """c's nonzero coefficients as position -> +-1 when it has exactly k of
    them, each +-1, as every challenge does; None otherwise."""
    pos = np.flatnonzero(c.vec)
    signs = reduce_centered(c.vec[pos], p.ring.q)
    if len(pos) != p.k or np.abs(signs).max() != 1:
        return None
    return dict(zip(pos.tolist(), signs.tolist()))


def _challenge_product(win: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """x * c over Z[x]/(x^n + 1) for win = `_windows(x)` and rows =
    `_window_rows` of c: a sum of k rows of x's entries.  A ternary x comes
    as int8 and sums, at most k in magnitude, in the narrowest type that
    holds +-k; residues come as int64 and sum in it (`GlyphParams` keeps
    k * q below 2^63)."""
    dtype = np.promote_types(win.dtype, np.min_scalar_type(-len(rows) - 1))
    return win[rows].sum(axis=0, dtype=dtype)


def _ternary(x: RingElement) -> np.ndarray:
    """The centered coefficients of x, a secret-key element, which must lie
    in {-1, 0, 1}."""
    v = reduce_centered(x.vec, x.params.q)
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
    Candidates come SIGN_BATCH at a time: their masks in one `uniform_rows`
    draw and their w = a*y1 + y2 in one `ring_mul_vec`, then the hash and
    norm tests one by one.  s*c and e*c are `_challenge_product`s, z1 and
    z2 are tested over Z, and the rng is rewound to just after the accepted
    candidate's y2 (module docstring)."""
    q, n = p.ring.q, p.n
    for x in (sk.s, sk.e, pk.a):
        check_same_params(x.params, p.ring, "a key's ring", "the GLYPH ring's")
    win_s, win_e = sk.windows
    it = 0
    while it < MAX_SIGN_ITERS:
        batch = min(SIGN_BATCH, MAX_SIGN_ITERS - it)
        y, ends = rng.uniform_rows(2 * p.b + 1, 2 * batch, n)  # y1, y2, y1, y2, ...
        y -= p.b
        w = ring_mul_vec(pk.a, y[0::2], y[1::2])
        for j in range(batch):
            it += 1
            pairs = challenge_pairs(encode_poly(RingElement._of(w[j], p.ring), p) + message, p)
            rows = _window_rows(pairs, n)
            z1 = y[2 * j] + _challenge_product(win_s, rows)
            if np.abs(z1).max() > p.beta:
                continue
            z2 = y[2 * j + 1] + _challenge_product(win_e, rows)
            if np.abs(z2).max() <= p.beta:
                rng.rewind(ends[2 * j + 1])
                return GlyphSignature(c=_sparse(pairs, p), z1=RingElement._of(z1 % q, p.ring),
                                      z2=RingElement._of(z2 % q, p.ring)), it
    raise RejectionOverflow(f"no acceptable signature in {MAX_SIGN_ITERS} iterations")


def _within(x: RingElement, bound: int) -> bool:
    """Whether every residue of x lies in [0, bound] or [q - bound, q): its
    centered value is at most bound in magnitude."""
    return not ((x.vec > bound) & (x.vec < x.params.q - bound)).any()


def verify(
    pk: GlyphPublicKey, message: bytes, sig: GlyphSignature, p: GlyphParams
) -> VerifyResult:
    """Norm check on the residues, then recompute the challenge from
    w' = a*z1 + z2 - t*c, with t*c a `_challenge_product` and z2 - t*c,
    at most (k + 1) * q in magnitude, the addend of one `ring_mul_vec`.  A
    c that is not k coefficients +-1 cannot equal the recomputed challenge,
    so it is a mismatch at once."""
    for x in (pk.a, pk.t, sig.c, sig.z1, sig.z2):
        check_same_params(x.params, p.ring, "a key's or signature's ring", "the GLYPH ring's")
    if not (_within(sig.z1, p.beta) and _within(sig.z2, p.beta)):
        return VerifyResult(False, "norm")
    pairs = _pairs_of(sig.c, p)
    if pairs is None:
        return VerifyResult(False, "challenge mismatch")
    tc = _challenge_product(pk.t_windows, _window_rows(pairs, p.n))
    w = ring_mul_vec(pk.a, sig.z1.vec, sig.z2.vec - tc)
    c_prime = hash_to_sparse(encode_poly(RingElement._of(w, p.ring), p) + message, p)
    if not np.array_equal(c_prime.vec, sig.c.vec):
        return VerifyResult(False, "challenge mismatch")
    return VerifyResult(True)
