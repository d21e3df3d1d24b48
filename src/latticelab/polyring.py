"""Arithmetic in R = Z[x]/(f) and R_q = R/qR, plus the number-theoretic
predicates on f mod q that the attack toolkit needs: root finding,
multiplicative orders, total splitting, and cyclotomic polynomials.

Coefficient order is lowest-degree-first everywhere, including the text
format ("1,0,0,0,1" is x^4 + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import FormatError, InvalidParams, ParamMismatch, PreconditionFailed, ZeroElement
from .zq import Modulus, inv_mod, is_prime

# ---------------------------------------------------------------------------
# Integer polynomials (lists of ints, lowest degree first)


def poly_trim(c: list[int]) -> list[int]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def poly_deg(c: list[int]) -> int:
    c = poly_trim(list(c))
    return len(c) - 1 if c else -1


def poly_mul_z(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return poly_trim(out)


def poly_divmod_z(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Exact division with remainder by a monic divisor b, over Z."""
    b = poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if b[-1] != 1:
        raise InvalidParams("divisor must be monic")
    r = list(a)
    db = len(b) - 1
    quo = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            quo[i - db] = c
            for j in range(db + 1):
                r[i - db + j] -= c * b[j]
    return poly_trim(quo), poly_trim(r)


def poly_eval_z(c: list[int], x: int) -> int:
    acc = 0
    for ci in reversed(c):
        acc = acc * x + ci
    return acc


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(m: int) -> int:
    return math.prod((p - 1) * p ** (e - 1) for p, e in _factorize(m).items())


def cyclotomic_poly(m: int) -> list[int]:
    """m-th cyclotomic polynomial.

    For m > 1, Phi_m is the product over squarefree d | m of
    (1 - x^{m/d})^{mu(d)}, taken as power series cut past degree phi(m):
    multiply by the factors with mu(d) = 1, then divide exactly by those
    with mu(d) = -1, each in one O(m) pass.
    """
    if m < 1:
        raise InvalidParams("m must be positive")
    if m == 1:
        return [-1, 1]
    primes = list(_factorize(m))
    size = euler_phi(m) + 1
    c = [1] + [0] * (size - 1)
    for divide, k in sorted((len(ps) % 2, m // math.prod(ps))
                            for r in range(len(primes) + 1) for ps in combinations(primes, r)):
        if divide:
            for i in range(k, size):
                c[i] += c[i - k]
        else:
            for i in range(size - 1, k - 1, -1):
                c[i] -= c[i - k]
    return c


def parse_poly(text: str) -> list[int]:
    """Parse the comma-separated lowest-first coefficient format."""
    try:
        return [int(t.strip()) for t in text.strip().split(",")]
    except ValueError as e:
        raise FormatError(f"bad polynomial text {text!r}") from e


def format_poly(coeffs) -> str:
    return ",".join(str(int(c)) for c in coeffs)


# ---------------------------------------------------------------------------
# Polynomials over F_q


def poly_mod_q(c, q: Modulus | int) -> list[int]:
    q = int(q)
    return poly_trim([int(x) % q for x in c])


def poly_divmod_mod(a: list[int], b: list[int], q: Modulus | int) -> tuple[list[int], list[int]]:
    """Division with remainder over F_q, reduced lazily: each step reduces only
    the coefficient it cancels and subtracts over b's nonzero lower terms."""
    q = int(q)
    b = poly_mod_q(b, q)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    inv_lead = inv_mod(b[-1], q)
    r = [int(x) for x in a]
    db = len(b) - 1
    terms = [(j, bj) for j, bj in enumerate(b[:-1]) if bj]
    quo = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] % q * inv_lead % q
        if c:
            quo[i - db] = c
            for j, bj in terms:
                r[i - db + j] -= c * bj
    return poly_trim(quo), poly_trim([x % q for x in r[:db]])


def poly_gcd_mod(a: list[int], b: list[int], q: Modulus | int) -> list[int]:
    """Monic gcd of a and b over F_q."""
    q = int(q)
    a, b = poly_mod_q(a, q), poly_mod_q(b, q)
    while b:
        _, r = poly_divmod_mod(a, b, q)
        a, b = b, r
    if a:
        inv_lead = inv_mod(a[-1], q)
        a = [c * inv_lead % q for c in a]
    return a


def poly_derivative(c) -> list[int]:
    return poly_trim([i * int(c[i]) for i in range(1, len(c))])


# An exhaustive scan over F_q (roots_mod_q, the attack distinguishers) holds
# arrays of q entries, 8q bytes each in int64: larger q are refused.
MAX_SCAN_Q = 1 << 24


def check_scan_q(q: Modulus | int) -> int:
    """int(q), or PreconditionFailed if q exceeds MAX_SCAN_Q."""
    qi = int(q)
    if qi > MAX_SCAN_Q:
        raise PreconditionFailed(f"q = {qi} is above the exhaustive-scan limit {MAX_SCAN_Q}")
    return qi


def roots_mod_q(f: list[int], q: Modulus) -> list[int]:
    """All roots of f in F_q, by exhaustive scan (q at most MAX_SCAN_Q).

    Horner's rule runs over every x in F_q at once, in place.  A run of
    k zero coefficients costs one multiplication by x^(2^j) per set bit
    j of k instead of k multiplications by x.
    """
    qi = check_scan_q(q)
    if poly_deg(f) < 1:
        raise InvalidParams("degree must be >= 1")
    coeffs = poly_mod_q(f, qi) or [0]
    squarings = [np.arange(qi, dtype=np.int64)]  # x^(2^j) mod q
    acc = np.full(qi, coeffs[-1], dtype=np.int64)
    k = 0  # pending power of x
    for c in reversed(coeffs[:-1]):
        k += 1
        if c:
            _mul_x_power(acc, k, squarings, qi)
            acc += c  # both below q, so one conditional subtraction reduces
            np.subtract(acc, qi, out=acc, where=acc >= qi)
            k = 0
    _mul_x_power(acc, k, squarings, qi)
    return np.flatnonzero(acc == 0).tolist()


def _mul_x_power(acc: np.ndarray, k: int, squarings: list[np.ndarray], q: int) -> None:
    """acc *= x^k mod q in place, extending squarings as far as k needs."""
    j = 0
    while k:
        if j == len(squarings):
            squarings.append(_reduce_nonneg(squarings[-1] * squarings[-1], q))
        if k & 1:
            np.multiply(acc, squarings[j], out=acc)
            _reduce_nonneg(acc, q)
        k >>= 1
        j += 1


def _reduce_nonneg(a: np.ndarray, q: int) -> np.ndarray:
    """a %= q in place for non-negative int64 a, as a - (a // q) * q: the same
    residues, faster than np.remainder on int64."""
    quo = a // q
    quo *= q
    a -= quo
    return a


def mult_order(alpha: int, q: Modulus) -> int:
    """Least r >= 1 with alpha^r = 1 mod q."""
    qi = int(q)
    if alpha % qi == 0:
        raise ZeroElement("0 has no multiplicative order")
    order = qi - 1
    for p in _factorize(qi - 1):
        while order % p == 0 and pow(alpha, order // p, qi) == 1:
            order //= p
    return order


def is_totally_split(f: list[int], q: Modulus) -> bool:
    """True iff f mod q is squarefree and has deg(f) distinct roots in F_q:
    deg(f) distinct roots make f mod q squarefree, so no gcd is needed."""
    return len(roots_mod_q(f, q)) == poly_deg(f)


def is_irreducible_mod_p(f: list[int], p: int) -> bool:
    """Irreducibility of f over F_p (utility; irreducible mod p for one
    prime p not dividing disc implies irreducible over Q)."""
    n = poly_deg(f)
    if n <= 0:
        return False
    if n == 1:
        return True

    def powx(e: int) -> list[int]:
        # x^e mod (f, p) by square and multiply
        result, base = [1], [0, 1]
        while e:
            if e & 1:
                result = poly_divmod_mod(poly_mul_z(result, base), f, p)[1]
            base = poly_divmod_mod(poly_mul_z(base, base), f, p)[1]
            e >>= 1
        return result

    xpn = powx(p**n)
    if poly_trim([(a - b) % p for a, b in _zip_pad(xpn, [0, 1])]):
        return False
    for d in _factorize(n):
        xpk = powx(p ** (n // d))
        g = poly_gcd_mod([(a - b) % p for a, b in _zip_pad(xpk, [0, 1])], f, p)
        if poly_deg(g) != 0:
            return False
    return True


def _zip_pad(a: list[int], b: list[int]):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


# ---------------------------------------------------------------------------
# The quotient ring R_q = F_q[x]/(f)

# A float64 sum of integers stays exact while every partial sum is below
# 2^53 in magnitude.
_FLOAT_EXACT = 1 << 53


@dataclass(frozen=True)
class RingParams:
    """Monic f of degree n >= 1 and a prime modulus q."""

    f: tuple[int, ...]
    q: Modulus

    def __post_init__(self):
        f = poly_trim(list(self.f))
        if len(f) < 2:
            raise InvalidParams("f must have degree >= 1")
        if f[-1] != 1:
            raise InvalidParams("f must be monic")
        object.__setattr__(self, "f", tuple(f))

    @property
    def n(self) -> int:
        return len(self.f) - 1

    @cached_property
    def negacyclic(self) -> bool:
        n = self.n
        return self.f == tuple([1] + [0] * (n - 1) + [1])

    @cached_property
    def int64_safe(self) -> bool:
        q = int(self.q)
        return self.n * (q - 1) * (q - 1) < (1 << 62)

    @cached_property
    def uses_ntt(self) -> bool:
        """True where products take the negacyclic NTT: f = x^n + 1
        (within `int64_safe`) with n a power of two, q a prime = 1 (mod 2n)
        so that f splits into n linear factors mod q, and max(n1, n2) *
        (q - 1)^2 < 2^53 for the four-step split n = n1 * n2, so that every
        matmul sum is exact in float64.  The primality test matters: BGV
        builds its rings from raw chain moduli, which may be composite, and
        mod a composite q there may be no primitive 2n-th root to build the
        transform from."""
        n, q = self.n, int(self.q)
        return (self.negacyclic and self.int64_safe and n & (n - 1) == 0 and q % (2 * n) == 1
                and max(_ntt_split(n)) * (q - 1) * (q - 1) < _FLOAT_EXACT and is_prime(q))

    @cached_property
    def mul_dtype(self) -> type:
        """float64 where a convolution of centered residues is exact in it
        (n * floor(q/2)^2 < 2^53), int64 otherwise."""
        half = int(self.q) // 2
        return np.float64 if self.n * half * half < _FLOAT_EXACT else np.int64


class RingElement:
    """An element of R_q: `vec`, a read-only int64 array of the n residues
    in [0, q), lowest degree first.

    `coeffs` is the same residues as a tuple of Python ints, built on first
    use; equality and hashing go by (coeffs, params).  On a ring that
    `uses_ntt`, the element's transform is likewise kept after its first
    product, so a fixed operand (a public key's `a`) is transformed once.
    """

    __slots__ = ("vec", "params", "_coeffs", "_ntt")

    def __init__(self, coeffs, params: RingParams):
        try:
            vec = np.array(coeffs, dtype=np.int64)
        except OverflowError as e:
            raise InvalidParams("coefficients must be residues in [0, q)") from e
        if vec.shape != (params.n,):
            raise InvalidParams("coefficient count must equal deg f")
        if vec.min() < 0 or vec.max() >= int(params.q):
            raise InvalidParams("coefficients must be residues in [0, q)")
        _init_element(self, vec, params)

    @classmethod
    def _of(cls, vec: np.ndarray, params: RingParams) -> "RingElement":
        """Wrap n int64 residues in [0, q) that the caller owns, unchecked."""
        self = object.__new__(cls)
        _init_element(self, vec, params)
        return self

    @property
    def coeffs(self) -> tuple[int, ...]:
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", tuple(self.vec.tolist()))
        return self._coeffs

    def _transform(self) -> np.ndarray:
        """The NTT of the element (`_ntt_forward`), read-only, built on first use."""
        if self._ntt is None:
            t = _ntt_forward(self.vec, _ntt_tables(self.params.n, int(self.params.q)))
            t.flags.writeable = False
            object.__setattr__(self, "_ntt", t)
        return self._ntt

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.params == other.params and np.array_equal(self.vec, other.vec)

    def __hash__(self):
        return hash((self.coeffs, self.params))

    def __repr__(self):
        return f"RingElement(coeffs={self.coeffs!r}, params={self.params!r})"

    def __reduce__(self):
        return RingElement, (self.vec, self.params)

    def centered(self) -> list[int]:
        return _centered(self.vec, int(self.params.q)).tolist()

    def inf_norm(self) -> int:
        return int(np.abs(_centered(self.vec, int(self.params.q))).max())


def _init_element(e: RingElement, vec: np.ndarray, params: RingParams) -> None:
    vec.flags.writeable = False
    object.__setattr__(e, "vec", vec)
    object.__setattr__(e, "params", params)
    object.__setattr__(e, "_coeffs", None)
    object.__setattr__(e, "_ntt", None)


def _centered(vec: np.ndarray, q: int) -> np.ndarray:
    """Representatives in (-q/2, q/2] of residues in [0, q) (q odd)."""
    return vec - q * (vec > q // 2)


def _reduce_signed(d: np.ndarray, q: int) -> np.ndarray:
    """Values in (-q, q) to residues in [0, q), in place."""
    np.add(d, q, out=d, where=d < 0)
    return d


def ring_from_coeffs(coeffs, params: RingParams) -> RingElement:
    """Build an element from up to n integer coefficients (reduced mod q)."""
    q = int(params.q)
    try:
        vec = np.asarray(coeffs, dtype=np.int64) % q
    except OverflowError:
        vec = np.array([int(x) % q for x in coeffs], dtype=np.int64)
    if len(vec) > params.n:
        vec = poly_divmod_mod(vec.tolist(), list(params.f), q)[1]
    return _padded(vec, params)


def _padded(residues, params: RingParams) -> RingElement:
    """Element from at most n residues in [0, q), zero-padded to n."""
    vec = np.zeros(params.n, dtype=np.int64)
    vec[: len(residues)] = residues
    return RingElement._of(vec, params)


def ring_zero(params: RingParams) -> RingElement:
    return RingElement._of(np.zeros(params.n, dtype=np.int64), params)


def ring_one(params: RingParams) -> RingElement:
    return ring_from_coeffs([1], params)


def _check(a: RingElement, b: RingElement):
    if a.params is not b.params and a.params != b.params:
        raise ParamMismatch("operands live in different rings")


def ring_add(a: RingElement, b: RingElement) -> RingElement:
    _check(a, b)
    q = int(a.params.q)
    # a - (q - b) lies in (-q, q), so no int64 overflow for any q < 2^63
    return RingElement._of(_reduce_signed(a.vec - (q - b.vec), q), a.params)


def ring_sub(a: RingElement, b: RingElement) -> RingElement:
    _check(a, b)
    q = int(a.params.q)
    return RingElement._of(_reduce_signed(a.vec - b.vec, q), a.params)


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    """Product in R_q, by a kernel chosen from the ring alone.

    On a ring that `uses_ntt` (n a power of two, q = 1 mod 2n, so x^n + 1
    splits into linear factors mod q and R_q is F_q^n by evaluation at its
    roots), it is the pointwise product of the operands' cached
    number-theoretic transforms, mapped back; on any other x^n + 1 (within
    `int64_safe`) it is a full convolution of centered representatives in
    `params.mul_dtype`, where every partial sum is an exact integer, folded
    by x^n = -1.  The transform's float64 matmuls are exact for the same
    reason (see `_ntt_tables`).  General f takes the exact Python-int
    polynomial-division path.
    """
    _check(a, b)
    p = a.params
    q = int(p.q)
    n = p.n
    if not (p.negacyclic and p.int64_safe):
        full = poly_mul_z(list(a.coeffs), list(b.coeffs))
        return _padded(poly_divmod_mod(full, list(p.f), q)[1], p)
    if p.uses_ntt:
        prod = a._transform() * b._transform() % q
        return RingElement._of(_ntt_inverse(prod, _ntt_tables(n, q)), p)
    dtype = p.mul_dtype
    res = np.convolve(_centered(a.vec, q).astype(dtype), _centered(b.vec, q).astype(dtype))
    res[: n - 1] -= res[n:]
    return RingElement._of(res[:n].astype(np.int64) % q, p)


# ---------------------------------------------------------------------------
# The negacyclic number-theoretic transform
#
# With psi a primitive 2n-th root of unity mod q, x^n + 1 is the product of
# (x - psi^(2k+1)) for 0 <= k < n, and a -> (a(psi^(2k+1)))_k maps R_q onto
# F_q^n, turning products into pointwise products.  Bailey's four-step split
# computes it with two small DFT matmuls: for n = n1 * n2, i = n2*i1 + i2
# and k = k1 + n1*k2, since psi^(2n) = 1,
#
#     psi^(i(2k+1)) = psi^(n2*i1*(2k1+1)) * psi^(i2*(2k1+1)) * psi^(2*n1*i2*k2),
#
# so with A[i1, i2] = a[n2*i1 + i2] the transform is ((M1 @ A) * T) @ M2,
# laid out as X[k1, k2] = a(psi^(2k+1)), where M1[k1, i1] holds the first
# factor, the twiddles T[k1, i2] the second and M2[i2, k2] the third.  The
# inverse runs the steps backwards with psi^-1, with n^-1 folded into its
# twiddles.


def _ntt_split(n: int) -> tuple[int, int]:
    """(n1, n2) = (2^floor(k/2), 2^ceil(k/2)) for n = 2^k."""
    n1 = 1 << (n.bit_length() - 1) // 2
    return n1, n // n1


class _NttTables(NamedTuple):
    """The split n = n1 * n2, q, and the matrices and twiddles above: the
    matrices float64, the twiddles int64, all residues in [0, q)."""

    n1: int
    n2: int
    q: int
    m1: np.ndarray
    tw: np.ndarray
    m2: np.ndarray
    m2_inv: np.ndarray
    tw_inv: np.ndarray
    m1_inv: np.ndarray


@lru_cache(maxsize=8)
def _ntt_tables(n: int, q: int) -> _NttTables:
    """The four-step tables for x^n + 1 mod q, built once per (n, q): a fresh
    RingParams of the same ring shares them.

    A matmul entry sums max(n1, n2) products of two residues, so under
    `RingParams.uses_ntt` every partial sum is an integer below 2^53 and
    exact in float64.
    """
    g = 2
    while pow(g, (q - 1) // 2, q) != q - 1:  # a non-residue: psi below has order 2n
        g += 1
    psi = pow(g, (q - 1) // (2 * n), q)
    powers = [1] * (2 * n)
    for j in range(1, 2 * n):
        powers[j] = powers[j - 1] * psi % q
    fwd = np.array(powers, dtype=np.int64)
    inv = fwd[-np.arange(2 * n) % (2 * n)]  # psi^-j
    n1, n2 = _ntt_split(n)
    odd, i1, i2 = 2 * np.arange(n1) + 1, np.arange(n1), np.arange(n2)
    e1 = np.outer(odd, n2 * i1) % (2 * n)  # [k1, i1]
    et = np.outer(odd, i2) % (2 * n)  # [k1, i2]
    e2 = np.outer(2 * n1 * i2, i2) % (2 * n)  # [i2, k2]
    f64 = np.float64
    return _NttTables(n1, n2, q, fwd[e1].astype(f64), fwd[et], fwd[e2].astype(f64),
                      inv[e2].astype(f64), inv[et] * pow(n, q - 2, q) % q,
                      inv[e1].T.astype(f64))


def _ntt_forward(vec: np.ndarray, t: _NttTables) -> np.ndarray:
    """Transform of n residues, as the n1 x n2 residue array X above."""
    q = t.q
    b = (t.m1 @ vec.reshape(t.n1, t.n2).astype(np.float64)).astype(np.int64) % q
    b = b * t.tw % q
    return (b.astype(np.float64) @ t.m2).astype(np.int64) % q


def _ntt_inverse(x: np.ndarray, t: _NttTables) -> np.ndarray:
    """n residues whose transform is the n1 x n2 residue array x."""
    q = t.q
    d = (x.astype(np.float64) @ t.m2_inv).astype(np.int64) % q
    d = d * t.tw_inv % q
    return ((t.m1_inv @ d.astype(np.float64)).astype(np.int64) % q).reshape(-1)


def evaluate(a: RingElement, alpha: int) -> int:
    """Horner evaluation of the coefficient representative at alpha mod q."""
    q = int(a.params.q)
    acc = 0
    for c in reversed(a.coeffs):
        acc = (acc * alpha + c) % q
    return acc


def ring_uniform(params: RingParams, rng) -> RingElement:
    return RingElement._of(rng.uniform_array(int(params.q), params.n), params)
