"""Leveled homomorphic encryption with a decreasing modulus chain.

Symmetric-key variant over R = Z[x]/(Phi_m).  Fresh ciphertexts live at
level 0 on the largest modulus q_L; every homomorphic operation raises
the level by one and switches one modulus down the chain, so exhausting
the chain at q_0 coincides with the level cap L.  Key switching is
omitted: multiplication grows the part count and decryption evaluates
the ciphertext at s by Horner's rule.  Each part is a RingElement of
R_{q_i} = Z_{q_i}[x]/(Phi_m) at its level's modulus q_i.

Decryption yields epsilon = alpha + p^r * e; each ciphertext carries a
worst-case estimate of the noise's max |e|, and `decrypt` refuses wherever
noise within it could wrap mod q_i, so it errs only if the estimate errs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ChainOverflow,
    DecryptFail,
    InvalidParams,
    LengthMismatch,
    LevelExceeded,
    ParamMismatch,
)
from .gaussian import GaussianParams, sample_int_array
from .polyring import (
    RingElement,
    RingParams,
    cyclotomic_poly,
    euler_phi,
    ring_add,
    ring_from_coeffs,
    ring_mul,
    ring_sub,
    ring_uniform,
)
from .rng import SeededRng
from .zq import is_prime, next_prime, reduce_centered

MAX_CHAIN_MODULUS = 1 << 62
# Largest cyclotomic index: Phi_m is built by exact division, so the ring
# stays at desk scale (m = 4096 gives n = 2048).
MAX_M = 4096


def validate_chain(chain: tuple[int, ...], p: int, r: int) -> None:
    """Enforce q_i <= min(sqrt(q_{i+1}), q_{i+1}/2), q_L <= MAX_CHAIN_MODULUS,
    p^r < q_0, gcd(p, q_0) = 1 and q_i = q_0 (mod p^r), so a modulus switch
    keeps the plaintext.  Only q_i^2 <= q_{i+1} is tested: p^r < q_0 makes
    every q_i >= 3, where q_i^2 >= 2 q_i."""
    if len(chain) < 2:
        raise InvalidParams("chain needs at least two moduli (L >= 1)")
    for i in range(len(chain) - 1):
        lo, hi = chain[i], chain[i + 1]
        if lo * lo > hi:
            raise InvalidParams(f"chain violates q_{i} <= min(sqrt(q_{i+1}), q_{i+1}/2)")
    if chain[-1] > MAX_CHAIN_MODULUS:
        raise InvalidParams("chain modulus exceeds 2^62")
    pr = _pt_modulus(p, r, chain[0])
    if chain[0] % p == 0:
        raise InvalidParams("chain moduli must be coprime to p")
    if any((q - chain[0]) % pr for q in chain):
        raise InvalidParams(f"chain moduli must agree mod p^r = {pr}")


def _pt_modulus(p: int, r: int, q0: int) -> int:
    """p^r, refused unless p^r < q_0: first q_0 <= p, so the logarithms are
    defined, then by logarithms, so a huge r is never raised to."""
    if q0 <= p or r * math.log2(p) > math.log2(q0) + 1 or p**r >= q0:
        raise InvalidParams(f"need p^r < q_0 = {q0}")
    return p**r


def _check_plaintext(m: int, p: int, r: int) -> None:
    """The ring index 1 <= m <= MAX_M and the plaintext ring R_{p^r}: p prime, r >= 1."""
    if not 1 <= m <= MAX_M or r < 1 or not is_prime(p):
        raise InvalidParams(
            f"need 1 <= m <= {MAX_M}, a prime p and r >= 1, got m={m}, p={p}, r={r}")


@dataclass(frozen=True)
class BgvParams:
    m: int  # cyclotomic index; ring is Z[x]/(Phi_m)
    p: int  # plaintext prime
    r: int  # plaintext ring R_{p^r}
    chain: tuple[int, ...]  # q_0 < q_1 < ... < q_L
    sigma: float = 3.2

    def __post_init__(self):
        _check_plaintext(self.m, self.p, self.r)
        validate_chain(self.chain, self.p, self.r)
        GaussianParams(sigma=self.sigma)  # the error sampler's bounds on sigma

    @property
    def levels(self) -> int:
        return len(self.chain) - 1

    @property
    def n(self) -> int:
        return euler_phi(self.m)

    @cached_property
    def f(self) -> tuple[int, ...]:
        return tuple(cyclotomic_poly(self.m))

    @property
    def pt_modulus(self) -> int:
        return self.p**self.r

    @cached_property
    def _rings(self) -> tuple[RingParams, ...]:
        return tuple(RingParams(self.f, q) for q in self.chain)

    def ring_at_level(self, level: int) -> RingParams:
        """R_{q_i} for the modulus q_i of `level`, one cached object per level."""
        if not 0 <= level <= self.levels:
            raise LevelExceeded(f"level {level} outside [0, {self.levels}]")
        return self._rings[self.levels - level]

    def modulus_at_level(self, level: int) -> int:
        return self.ring_at_level(level).q


@dataclass(frozen=True)
class BgvSecretKey:
    coeffs: tuple[int, ...]  # ternary, over Z


@dataclass(frozen=True)
class BgvCiphertext:
    parts: tuple[RingElement, ...]  # elements of the ring at `level`
    level: int
    noise_bound: float  # worst-case estimate of max |e| in epsilon = alpha + p^r * e

    def modulus_index(self, params: "BgvParams") -> int:
        """Position in the chain: fresh ciphertexts sit at the top."""
        return params.levels - self.level


def setup(m: int, p: int, r: int, levels: int) -> BgvParams:
    """Build a valid chain: q_0 = the first prime >= 128 coprime to p, then
    q_{i+1} = the first prime >= q_i^2 with q_{i+1} = q_i (mod p^r)."""
    _check_plaintext(m, p, r)
    if levels < 1:
        raise InvalidParams("need at least one level")
    q = next_prime(128)
    if q == p:  # q_0 is coprime to the prime p unless it is p
        q = next_prime(q + 1)
    pr = _pt_modulus(p, r, q)
    chain = [q]
    for _ in range(levels):
        target = q * q
        q = next_prime(target + (q - target) % pr, pr)
        if q > MAX_CHAIN_MODULUS:
            raise ChainOverflow("chain modulus exceeds 2^62")
        chain.append(q)
    return BgvParams(m=m, p=p, r=r, chain=tuple(chain))


def keygen(params: BgvParams, rng: SeededRng) -> BgvSecretKey:
    """Ternary secret: a narrow Gaussian clamped to {-1, 0, 1}."""
    draws = sample_int_array(GaussianParams(sigma=0.7), rng, params.n)
    return BgvSecretKey(coeffs=tuple(np.clip(draws, -1, 1).tolist()))


def _secret(sk: BgvSecretKey, ring: RingParams) -> RingElement:
    """The ternary secret as an element of `ring`."""
    if len(sk.coeffs) != ring.n:
        raise LengthMismatch(
            f"secret key has {len(sk.coeffs)} coefficients, the ring has n = {ring.n}")
    return ring_from_coeffs(sk.coeffs, ring)


def fresh_noise_bound(params: BgvParams) -> float:
    gp = GaussianParams(sigma=params.sigma)
    return float(gp.support[1])


def encrypt(pt: list[int], sk: BgvSecretKey, params: BgvParams, rng: SeededRng) -> BgvCiphertext:
    """Level-0 encryption on q_L: p_0 = alpha + p^r * e - p_1 * s, with p_1
    uniform, e Gaussian and the noise bound fresh_noise_bound(params).

    alpha + p^r * e is exact in int64: p^r < q_0 <= sqrt(q_1) <= 2^31 and
    |e| <= 12 sigma <= 12 * 2^15, so |p^r * e| < 2^50.
    """
    ring = params.ring_at_level(0)
    s = _secret(sk, ring)
    if len(pt) > ring.n:
        raise InvalidParams(f"plaintext has more than {ring.n} coefficients")
    p1 = ring_uniform(ring, rng)
    e = sample_int_array(GaussianParams(sigma=params.sigma), rng, ring.n)
    pr = params.pt_modulus
    msg = pr * e
    msg[: len(pt)] += np.array([x % pr for x in pt], dtype=np.int64)
    p0 = ring_sub(ring_from_coeffs(msg, ring), ring_mul(s, p1))
    return BgvCiphertext(parts=(p0, p1), level=0, noise_bound=fresh_noise_bound(params))


def decrypt(ct: BgvCiphertext, sk: BgvSecretKey, params: BgvParams) -> list[int]:
    """Evaluate sum parts[j] * s^j mod q_i by Horner, center, reduce mod p^r.

    With alpha in [0, p^r) and |e| <= B = floor(noise_bound), epsilon =
    alpha + p^r * e lies in [-p^r * B, p^r * (B + 1) - 1], and centering
    returns it, hence alpha, iff -q_i < 2 * epsilon <= q_i: as p^r >= 2, iff
    2 * (p^r * (B + 1) - 1) <= q_i, that is noise_bound < (q_i + 2) // (2 p^r).
    Past it, alpha = p^r - 1 and e = B center to epsilon - q_i, wrong mod p^r
    as q_i is prime to p; so any other bound, inf and NaN too, raises DecryptFail.
    """
    ring = params.ring_at_level(ct.level)
    q, pr = ring.q, params.pt_modulus
    s = _secret(sk, ring)
    limit = (q + 2) // (2 * pr)
    if not ct.noise_bound < limit:
        raise DecryptFail(f"noise bound {ct.noise_bound:.1f} >= (q_i + 2) // (2 p^r) = {limit}")
    acc = ct.parts[-1]
    for part in reversed(ct.parts[:-1]):
        acc = ring_add(ring_mul(s, acc), part)
    return (reduce_centered(acc.vec, q) % pr).tolist()


def _secret_power_norm_sum(params: BgvParams, count: int) -> float:
    # ||s^j||_inf <= n^(j-1) for ternary s; j = 0 contributes 1.
    n = params.n
    return sum(1.0 if j == 0 else float(n ** (j - 1)) for j in range(count))


def switch_down(ct: BgvCiphertext, params: BgvParams) -> BgvCiphertext:
    """Move one step down the chain: scale by q'/q, round, preserve mod p^r.

    Raises the level by one without touching the plaintext; used both by
    the homomorphic operations and to align operand levels.  The rounding
    runs on an `object` array of Python ints, since 2 * x * q' overflows
    int64 at q ~ 2^57.
    """
    if ct.level >= params.levels:
        raise LevelExceeded("already at the bottom modulus")
    q = params.modulus_at_level(ct.level)
    ring_next = params.ring_at_level(ct.level + 1)
    q_next = ring_next.q
    pr = params.pt_modulus
    x = reduce_centered(np.array([part.vec for part in ct.parts], dtype=object), q)
    v = (2 * x * q_next + q) // (2 * q)  # round(x * q'/q)
    rows = v + reduce_centered(x - v, pr)  # the nearest value to v that is x mod p^r
    new_parts = tuple(ring_from_coeffs(row, ring_next) for row in rows)
    rounding = (pr / 2.0) * _secret_power_norm_sum(params, len(ct.parts))
    bound = ct.noise_bound * q_next / q + rounding
    return BgvCiphertext(parts=new_parts, level=ct.level + 1, noise_bound=bound)


def _check_ops(c1: BgvCiphertext, c2: BgvCiphertext, params: BgvParams) -> int:
    if c1.level != c2.level:
        raise ParamMismatch("operands must share a level")
    if not 0 <= c1.level < params.levels:
        raise LevelExceeded(f"computations need a level in [0, {params.levels}), "
                            f"got {c1.level}")
    return c1.level


def he_add(c1: BgvCiphertext, c2: BgvCiphertext, params: BgvParams) -> BgvCiphertext:
    """Part-wise addition, then one modulus switch; level + 1."""
    level = _check_ops(c1, c2, params)
    short, long = sorted((c1.parts, c2.parts), key=len)
    parts = tuple(ring_add(a, b) for a, b in zip(short, long)) + long[len(short):]
    mid = BgvCiphertext(parts=parts, level=level, noise_bound=c1.noise_bound + c2.noise_bound)
    return switch_down(mid, params)


def he_mul(c1: BgvCiphertext, c2: BgvCiphertext, params: BgvParams) -> BgvCiphertext:
    """Part convolution, then one modulus switch; level + 1."""
    level = _check_ops(c1, c2, params)
    pr = params.pt_modulus
    parts: list[RingElement | None] = [None] * (len(c1.parts) + len(c2.parts) - 1)
    for j, pj in enumerate(c1.parts):
        for k, pk in enumerate(c2.parts):
            prod = ring_mul(pj, pk)
            parts[j + k] = prod if parts[j + k] is None else ring_add(parts[j + k], prod)
    lift1 = pr / 2.0 + pr * c1.noise_bound
    lift2 = pr / 2.0 + pr * c2.noise_bound
    bound = params.n * lift1 * lift2 / pr
    mid = BgvCiphertext(parts=tuple(parts), level=level, noise_bound=bound)
    return switch_down(mid, params)


def eval_circuit(
    lines: list[str],
    inputs: dict[str, BgvCiphertext],
    params: BgvParams,
) -> dict[str, BgvCiphertext]:
    """Tiny circuit language: lines "ADD t a b" / "MUL t a b" over wires.

    Operand levels are auto-aligned by switching the fresher ciphertext
    down the chain before each gate.
    """
    wires = dict(inputs)
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 4 or tokens[0] not in ("ADD", "MUL"):
            raise InvalidParams(f"bad circuit line {lineno}: {raw!r}")
        op, target, lhs, rhs = tokens
        if lhs not in wires or rhs not in wires:
            raise InvalidParams(f"line {lineno}: undefined wire in {raw!r}")
        a, b = wires[lhs], wires[rhs]
        while a.level < b.level:
            a = switch_down(a, params)
        while b.level < a.level:
            b = switch_down(b, params)
        wires[target] = (he_add if op == "ADD" else he_mul)(a, b, params)
    return wires
