"""Leveled homomorphic encryption with a decreasing modulus chain.

Symmetric-key variant over R = Z[x]/(Phi_m).  Fresh ciphertexts live at
level 0 on the largest modulus q_L; every homomorphic operation raises
the level by one and switches one modulus down the chain, so exhausting
the chain at q_0 coincides with the level cap L.  Key switching is
omitted: multiplication grows the part count and decryption evaluates
the ciphertext at powers of s up to that degree.

Each ciphertext carries a worst-case noise-bound estimate so that
decryption failure is raised deterministically instead of silently
corrupting the plaintext.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    ChainOverflow,
    DecryptFail,
    InvalidParams,
    LengthMismatch,
    LevelExceeded,
    ParamMismatch,
)
from .gaussian import GaussianParams, sample_int_array
from .polyring import cyclotomic_poly, euler_phi, poly_divmod_z, poly_mul_z
from .rng import SeededRng
from .zq import is_prime, next_prime, reduce_centered

MAX_CHAIN_MODULUS = 1 << 62


def validate_chain(chain: tuple[int, ...], p: int) -> None:
    """Enforce q_i <= min(sqrt(q_{i+1}), q_{i+1}/2) and gcd(p, q_i) = 1."""
    if len(chain) < 2:
        raise InvalidParams("chain needs at least two moduli (L >= 1)")
    for i in range(len(chain) - 1):
        lo, hi = chain[i], chain[i + 1]
        if lo * lo > hi or 2 * lo > hi:
            raise InvalidParams(f"chain violates q_{i} <= min(sqrt(q_{i+1}), q_{i+1}/2)")
    for q in chain:
        if q % p == 0:
            raise InvalidParams("chain moduli must be coprime to p")


def _check_plaintext(m: int, p: int, r: int) -> None:
    """The ring index m >= 1 and the plaintext ring R_{p^r}: p prime, r >= 1."""
    if m < 1 or r < 1 or not is_prime(p):
        raise InvalidParams(f"need m >= 1, a prime p and r >= 1, got m={m}, p={p}, r={r}")


@dataclass(frozen=True)
class BgvParams:
    m: int  # cyclotomic index; ring is Z[x]/(Phi_m)
    p: int  # plaintext prime
    r: int  # plaintext ring R_{p^r}
    chain: tuple[int, ...]  # q_0 < q_1 < ... < q_L
    sigma: float = 3.2

    def __post_init__(self):
        _check_plaintext(self.m, self.p, self.r)
        validate_chain(self.chain, self.p)

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

    def modulus_at_level(self, level: int) -> int:
        if not 0 <= level <= self.levels:
            raise LevelExceeded(f"level {level} outside [0, {self.levels}]")
        return self.chain[self.levels - level]


@dataclass(frozen=True)
class BgvSecretKey:
    coeffs: tuple[int, ...]  # ternary, over Z


@dataclass(frozen=True)
class BgvCiphertext:
    parts: tuple[tuple[int, ...], ...]  # coefficient vectors mod current modulus
    level: int
    noise_bound: float  # upper bound estimate on ||epsilon||_inf

    def modulus_index(self, params: "BgvParams") -> int:
        """Position in the chain: fresh ciphertexts sit at the top."""
        return params.levels - self.level


def setup(m: int, p: int, r: int, levels: int, growth: float = 1.0, base: int = 128) -> BgvParams:
    """Build a valid chain: q_0 prime near `base`, then
    q_{i+1} = next prime >= max(q_i^2, 2 q_i) * growth coprime to p."""
    _check_plaintext(m, p, r)
    if levels < 1:
        raise InvalidParams("need at least one level")
    q = next_prime(base)
    while q % p == 0:
        q = next_prime(q + 1)
    chain = [q]
    for _ in range(levels):
        target = int(max(q * q, 2 * q) * growth)
        q = next_prime(target)
        while q % p == 0:
            q = next_prime(q + 1)
        if q > MAX_CHAIN_MODULUS:
            raise ChainOverflow("chain modulus exceeds 2^62")
        chain.append(q)
    return BgvParams(m=m, p=p, r=r, chain=tuple(chain))


def _ring_mul_mod(a, b, f: list[int], q: int) -> list[int]:
    """Product in Z_q[x]/(f), exact Python-int arithmetic (desk-scale n)."""
    full = poly_mul_z(list(a), list(b))
    rem = [c % q for c in poly_divmod_z(full, f)[1]]
    n = len(f) - 1
    return rem + [0] * (n - len(rem))


def keygen(params: BgvParams, rng: SeededRng) -> BgvSecretKey:
    """Ternary secret: a narrow Gaussian clamped to {-1, 0, 1}."""
    draws = sample_int_array(GaussianParams(sigma=0.7), rng, params.n)
    clamped = [max(-1, min(1, int(d))) for d in draws]
    return BgvSecretKey(coeffs=tuple(clamped))


def _check_secret(sk: BgvSecretKey, params: BgvParams) -> None:
    if len(sk.coeffs) != params.n:
        raise LengthMismatch(
            f"secret key has {len(sk.coeffs)} coefficients, the ring has n = {params.n}")


def fresh_noise_bound(params: BgvParams) -> float:
    gp = GaussianParams(sigma=params.sigma)
    return float(gp.support[1])


def encrypt(
    pt: list[int],
    sk: BgvSecretKey,
    params: BgvParams,
    rng: SeededRng,
    p1_override: tuple[int, ...] | None = None,
    e_override: tuple[int, ...] | None = None,
) -> BgvCiphertext:
    """Level-0 encryption on q_L: p_0 = alpha + p^r * e - p_1 * s."""
    n = params.n
    q = params.modulus_at_level(0)
    pr = params.pt_modulus
    _check_secret(sk, params)
    if len(pt) > n:
        raise InvalidParams(f"plaintext has more than {n} coefficients")
    alpha = [c % pr for c in pt] + [0] * (n - len(pt))
    if p1_override is not None:
        p1 = [c % q for c in p1_override]
    else:
        p1 = [int(v) for v in rng.uniform_array(q, n)]
    if e_override is not None:
        e = list(e_override)
        bound = float(max((abs(c) for c in e), default=0))
    else:
        e = [int(v) for v in sample_int_array(GaussianParams(sigma=params.sigma), rng, n)]
        bound = fresh_noise_bound(params)
    p1s = _ring_mul_mod(p1, list(sk.coeffs), params.f, q)
    p0 = [(alpha[i] + pr * e[i] - p1s[i]) % q for i in range(n)]
    return BgvCiphertext(parts=(tuple(p0), tuple(p1)), level=0, noise_bound=bound)


def _secret_powers(sk: BgvSecretKey, params: BgvParams, count: int, q: int):
    powers = [[1] + [0] * (params.n - 1)]
    s = [c % q for c in sk.coeffs]
    for _ in range(1, count):
        powers.append(_ring_mul_mod(powers[-1], s, params.f, q))
    return powers


def decrypt(ct: BgvCiphertext, sk: BgvSecretKey, params: BgvParams) -> list[int]:
    """Evaluate sum parts[j] * s^j mod q_i, center, reduce mod p^r."""
    q = params.modulus_at_level(ct.level)
    pr = params.pt_modulus
    _check_secret(sk, params)
    if ct.noise_bound >= q / pr:
        raise DecryptFail(
            f"noise bound {ct.noise_bound:.1f} >= q_i/p^r = {q / pr:.1f}"
        )
    n = params.n
    powers = _secret_powers(sk, params, len(ct.parts), q)
    acc = [0] * n
    for part, sp in zip(ct.parts, powers):
        prod = _ring_mul_mod(list(part), sp, params.f, q)
        acc = [(a + b) % q for a, b in zip(acc, prod)]
    return [reduce_centered(c, q) % pr for c in acc]


def _secret_power_norm_sum(params: BgvParams, count: int) -> float:
    # ||s^j||_inf <= n^(j-1) for ternary s; j = 0 contributes 1.
    n = params.n
    return sum(1.0 if j == 0 else float(n ** (j - 1)) for j in range(count))


def switch_down(ct: BgvCiphertext, params: BgvParams) -> BgvCiphertext:
    """Move one step down the chain: scale by q'/q, round, preserve mod p^r.

    Raises the level by one without touching the plaintext; used both by
    the homomorphic operations and to align operand levels.
    """
    if ct.level >= params.levels:
        raise LevelExceeded("already at the bottom modulus")
    q = params.modulus_at_level(ct.level)
    q_next = params.modulus_at_level(ct.level + 1)
    pr = params.pt_modulus
    new_parts = []
    for part in ct.parts:
        out = []
        for c in part:
            x = reduce_centered(c, q)
            v = (2 * x * q_next + q) // (2 * q)  # round(x * q'/q)
            d = reduce_centered(x - v, pr)
            out.append((v + d) % q_next)
        new_parts.append(tuple(out))
    rounding = (pr / 2.0) * _secret_power_norm_sum(params, len(ct.parts))
    bound = ct.noise_bound * q_next / q + rounding
    return BgvCiphertext(parts=tuple(new_parts), level=ct.level + 1, noise_bound=bound)


def _check_ops(c1: BgvCiphertext, c2: BgvCiphertext, params: BgvParams) -> int:
    if c1.level != c2.level:
        raise ParamMismatch("operands must share a level")
    if c1.level >= params.levels:
        raise LevelExceeded("computations over top-level ciphertexts are not allowed")
    return c1.level


def he_add(c1: BgvCiphertext, c2: BgvCiphertext, params: BgvParams) -> BgvCiphertext:
    """Component-wise part addition, then one modulus switch; level + 1."""
    level = _check_ops(c1, c2, params)
    q = params.modulus_at_level(level)
    d = max(len(c1.parts), len(c2.parts))
    n = params.n
    zero = (0,) * n
    parts = []
    for j in range(d):
        a = c1.parts[j] if j < len(c1.parts) else zero
        b = c2.parts[j] if j < len(c2.parts) else zero
        parts.append(tuple((x + y) % q for x, y in zip(a, b)))
    mid = BgvCiphertext(
        parts=tuple(parts), level=level, noise_bound=c1.noise_bound + c2.noise_bound
    )
    return switch_down(mid, params)


def he_mul(c1: BgvCiphertext, c2: BgvCiphertext, params: BgvParams) -> BgvCiphertext:
    """Part convolution, then one modulus switch; level + 1."""
    level = _check_ops(c1, c2, params)
    q = params.modulus_at_level(level)
    pr = params.pt_modulus
    n = params.n
    d = len(c1.parts) + len(c2.parts) - 1
    parts = [[0] * n for _ in range(d)]
    for j, pj in enumerate(c1.parts):
        for k, pk in enumerate(c2.parts):
            prod = _ring_mul_mod(list(pj), list(pk), params.f, q)
            tgt = parts[j + k]
            for i in range(n):
                tgt[i] = (tgt[i] + prod[i]) % q
    lift1 = pr / 2.0 + pr * c1.noise_bound
    lift2 = pr / 2.0 + pr * c2.noise_bound
    bound = n * lift1 * lift2 / pr
    mid = BgvCiphertext(
        parts=tuple(tuple(p) for p in parts), level=level, noise_bound=bound
    )
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
