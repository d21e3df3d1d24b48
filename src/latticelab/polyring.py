"""Arithmetic in R = Z[x]/(f) and R_q = R/qR, plus the number-theoretic
predicates on f mod q that the attack toolkit needs: root finding,
multiplicative orders, total splitting, and cyclotomic polynomials.

Coefficient order is lowest-degree-first everywhere, including the text
format ("1,0,0,0,1" is x^4 + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import FormatError, InvalidParams, ParamMismatch, ZeroElement
from .zq import Modulus, inv_mod

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


def roots_mod_q(f: list[int], q: Modulus) -> list[int]:
    """All roots of f in F_q, by exhaustive scan (valid at desk-scale q).

    Horner's rule runs over every x in F_q at once, in place.  A run of
    k zero coefficients costs one multiplication by x^(2^j) per set bit
    j of k instead of k multiplications by x.
    """
    qi = int(q)
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
            squarings.append(squarings[-1] * squarings[-1] % q)
        if k & 1:
            np.multiply(acc, squarings[j], out=acc)
            np.remainder(acc, q, out=acc)
        k >>= 1
        j += 1


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
    """True iff f mod q is squarefree and has deg(f) distinct roots in F_q."""
    return splits_with_roots(f, roots_mod_q(f, q))


def splits_with_roots(f: list[int], roots: list[int]) -> bool:
    """is_totally_split for a caller that already holds roots_mod_q(f, q):
    deg(f) distinct roots make f mod q squarefree, so no gcd is needed."""
    return len(roots) == poly_deg(f)


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

# An operand with at most this many nonzero coefficients is multiplied as
# a sum of signed rotations of the other operand (GLYPH's challenges have
# k = 16); denser operands take the full convolution.
SPARSE_MAX_NONZEROS = 64


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
    def mul_dtype(self) -> type:
        """float64 where a convolution of centered residues is exact in it
        (n * floor(q/2)^2 < 2^53), int64 otherwise."""
        half = int(self.q) // 2
        return np.float64 if self.n * half * half < _FLOAT_EXACT else np.int64


class RingElement:
    """An element of R_q: `vec`, a read-only int64 array of the n residues
    in [0, q), lowest degree first.

    `coeffs` is the same residues as a tuple of Python ints, built on first
    use; equality and hashing go by (coeffs, params).
    """

    __slots__ = ("vec", "params", "_coeffs")

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
    """Product in R_q.

    For f = x^n + 1 (within `int64_safe`) the product is taken on the
    centered representatives in `params.mul_dtype`, where every partial
    sum is an exact integer: as a sum of signed rotations when one operand
    has at most SPARSE_MAX_NONZEROS nonzero coefficients, otherwise as a
    full convolution folded by x^n = -1.  General f takes the exact
    Python-int polynomial-division path.
    """
    _check(a, b)
    p = a.params
    q = int(p.q)
    n = p.n
    if not (p.negacyclic and p.int64_safe):
        full = poly_mul_z(list(a.coeffs), list(b.coeffs))
        return _padded(poly_divmod_mod(full, list(p.f), q)[1], p)
    x, y = a.vec, b.vec
    if np.count_nonzero(x) > np.count_nonzero(y):
        x, y = y, x  # x is the sparser operand
    dtype = p.mul_dtype
    yc = _centered(y, q).astype(dtype)
    support = np.flatnonzero(x)
    if len(support) <= SPARSE_MAX_NONZEROS:
        # x^i * y = (-y[n-i:], y[:n-i]) is the window [n-i, 2n-i) of (-y, y);
        # the n+1 windows [r, r+n), 0 <= r <= n, all lie inside (-y, y)
        ext = np.concatenate([-yc, yc])
        step = ext.strides[0]
        windows = np.lib.stride_tricks.as_strided(ext, (n + 1, n), (step, step), writeable=False)
        res = _centered(x[support], q).astype(dtype) @ windows[n - support]
    else:
        res = np.convolve(_centered(x, q).astype(dtype), yc)
        res[: n - 1] -= res[n:]
        res = res[:n]
    return RingElement._of(res.astype(np.int64) % q, p)


def evaluate(a: RingElement, alpha: int) -> int:
    """Horner evaluation of the coefficient representative at alpha mod q."""
    q = int(a.params.q)
    acc = 0
    for c in reversed(a.coeffs):
        acc = (acc * alpha + c) % q
    return acc


def ring_uniform(params: RingParams, rng) -> RingElement:
    return RingElement._of(rng.uniform_array(int(params.q), params.n), params)
