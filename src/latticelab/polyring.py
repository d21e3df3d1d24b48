"""Arithmetic in R = Z[x]/(f) and R_q = R/qR, plus the number-theoretic
predicates on f mod q that the attack toolkit needs: root finding,
multiplicative orders, total splitting, and cyclotomic polynomials.

Coefficient order is lowest-degree-first everywhere, including the text
format ("1,0,0,0,1" is x^4 + 1).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, lru_cache
from itertools import combinations, count
from typing import NamedTuple

import numpy as np

from .errors import FormatError, InvalidParams, ParamMismatch, PreconditionFailed, ZeroElement
from .zq import inv_mod, is_prime, reduce_centered

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


def poly_eval_z(c: list[int], x: int) -> int:
    acc = 0
    for ci in reversed(c):
        acc = acc * x + ci
    return acc


# _factorize divides out every factor below this before it turns to rho.
_TRIAL_DIVISION_LIMIT = 1 << 10


@lru_cache(maxsize=256)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n >= 1, ascending; memoised, since
    `mult_order` factors the same q - 1 for every root.

    Trial division takes the factors below `_TRIAL_DIVISION_LIMIT`; the
    cofactor is split by Brent's rho until every part passes `is_prime`.
    """
    out: dict[int, int] = {}
    p = 2
    while p < _TRIAL_DIVISION_LIMIT and p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _brent_rho(m)
            parts += [d, m // d]
    return tuple(sorted(out.items()))


def _brent_rho(n: int) -> int:
    """A factor 1 < d < n of a composite n with no factor below
    `_TRIAL_DIVISION_LIMIT`, by Brent's variant of Pollard's rho on
    y -> y^2 + c mod n.  The constants c = 1, 2, ... are tried in turn, so
    the factor found depends on n alone."""
    batch = 128  # products |x - y| folded into one gcd
    for c in count(1):
        y, r, g, acc = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                g = math.gcd(acc, n)
                k += batch
            r *= 2
        if g == n:  # the batch overshot: step again from its start one gcd at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(abs(x - saved), n)
        if g != n:
            return g


def euler_phi(m: int) -> int:
    return math.prod((p - 1) * p ** (e - 1) for p, e in _factorize(m))


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
    primes = [p for p, _ in _factorize(m)]
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


# A coefficient: an optional sign and ASCII digits, with ASCII whitespace
# around them; int() alone would also take "1_0" and non-ASCII digits.
_COEFF = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def parse_poly(text: str) -> list[int]:
    """Parse the comma-separated lowest-first coefficient format."""
    tokens = text.split(",")
    try:
        if not all(map(_COEFF.fullmatch, tokens)):
            raise ValueError("a coefficient is not an ASCII integer")
        return [int(t) for t in tokens]
    except ValueError as e:  # int() also refuses more digits than sys.get_int_max_str_digits()
        raise FormatError(f"bad polynomial text {text!r}") from e


# ---------------------------------------------------------------------------
# Polynomials over F_q


def poly_mod_q(c, q: int) -> list[int]:
    return poly_trim([int(x) % q for x in c])


def poly_divmod_mod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    """Division with remainder over F_q, by `_reduce_mod`: the quotient and
    remainder residues, each trimmed."""
    b = poly_mod_q(b, q)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    r = [int(x) for x in a]
    quo = [0] * max(len(r) - len(b) + 1, 0)
    rem = _reduce_mod(r, b, q, quo)
    return poly_trim(quo), rem


def poly_gcd_mod(a: list[int], b: list[int], q: int) -> list[int]:
    """Monic gcd of a and b over F_q, by Euclid's algorithm on Python-int
    lists: each step is one `_reduce_mod`, which inverts only the divisor's
    lead and reduces lazily, so the lists stay exact at every q."""
    a, b = poly_mod_q(a, q), poly_mod_q(b, q)
    while b:
        a, b = b, _reduce_mod(a, b, q)
    return _monic(a, q) if a else a


def _reduce_mod(r: list[int], b: list[int], q: int, quo: list[int] | None = None) -> list[int]:
    """The residues of r mod (b, q), trimmed, for b trimmed residues with a
    unit lead; r, a list of ints that the caller owns, is overwritten.

    Each step reduces only the coefficient it cancels and subtracts its
    multiple of b from the coefficients below, over b's nonzero terms
    alone when most are zero.  The quotient's coefficients go into `quo`
    when it is given.
    """
    db = len(b) - 1
    inv_lead = inv_mod(b[-1], q)
    low = b[:-1]
    terms = [(j, bj) for j, bj in enumerate(low) if bj] if 2 * low.count(0) > db else None
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * inv_lead % q
        if c:
            lo = i - db
            if quo is not None:
                quo[lo] = c
            if terms is None:
                for j, bj in enumerate(low, lo):
                    r[j] -= c * bj
            else:
                for j, bj in terms:
                    r[lo + j] -= c * bj
    return poly_trim([x % q for x in r[:db]])


def poly_derivative(c) -> list[int]:
    return poly_trim([i * int(c[i]) for i in range(1, len(c))])


# roots_mod_q scans F_q for composite q and below the gcd crossover
# (GCD_ROOTS_MIN_Q), _SCAN_BLOCK points at a time, so it holds a few arrays
# of 2^16 entries (8 bytes each at most) whatever q; above the crossover the
# roots of f mod a prime q come from the gcd path, which holds nothing of
# length q.  The cap stays until the attack distinguishers' own blockers
# to a larger q go, so that `scan` and `attack` accept the same q.
MAX_SCAN_Q = 1 << 24
_SCAN_BLOCK = 1 << 16

# The least prime q whose roots come from gcd(x^q - x, f) rather than the
# scan, for deg f <= 90: the edge of the scan's uint32 lanes.  The scan's
# cost grows with q; the gcd path's with log q and, through its Euclid steps
# and splitting in Python, with deg(f)^2, so past degree 90, where
# deg(f)^2 / 8192 passes 1, the least q grows as deg(f)^2: 2^15 (deg f / 64)^2,
# no lower than before the scan's lanes narrowed.  Measured in
# BENCH_roots.json ("crossover").
GCD_ROOTS_MIN_Q = 1 << 16


def check_scan_q(q: int) -> int:
    """q as a plain int for numpy: InvalidParams below 2, as for `RingParams`,
    and PreconditionFailed above MAX_SCAN_Q."""
    if q < 2:
        raise InvalidParams(f"q must be at least 2, got {q}")
    if q > MAX_SCAN_Q:
        raise PreconditionFailed(f"q = {q} is above the exhaustive-scan limit {MAX_SCAN_Q}")
    return int(q)


def roots_mod_q(f: list[int], q: int) -> list[int]:
    """All distinct roots of f in F_q, ascending (q at most MAX_SCAN_Q).

    A prime q from GCD_ROOTS_MIN_Q * max(1, deg(f)^2 / 8192) up takes
    `_roots_by_gcd`: g = gcd(x^q - x, f) by `poly_gcd_mod`, split into its
    linear factors by Cantor and Zassenhaus, each factor powered mod itself
    (`_split_roots`).  Every other q takes the exhaustive `_roots_by_scan`.
    Both return every residue when f = 0 mod q and none when f is a nonzero
    constant mod q.
    """
    q = check_scan_q(q)
    n = poly_deg(f)
    if n < 1:
        raise InvalidParams("degree must be >= 1")
    if q >= GCD_ROOTS_MIN_Q * max(1, n * n / 8192) and is_prime(q):
        return _roots_by_gcd(f, q)
    return _roots_by_scan(f, q)


def _roots_by_scan(f: list[int], q: int) -> list[int]:
    """The roots of f in F_q by evaluating f at every x in F_q, _SCAN_BLOCK
    points at a time, so that memory stays bounded and the arrays in cache.

    Horner's rule runs in place, in uint32 lanes where q(q - 1) < 2^32
    (q <= 2^16) and in uint64 lanes otherwise (q <= MAX_SCAN_Q, so
    q^2 < 2^48).  A step acc * x + c is at most (q - 1)^2 + q - 1 = q(q - 1),
    so c joins the product before its one reduction (`_reduce_int`).  A
    run of k - 1 zero coefficients costs one multiplication by x^(2^j) per
    set bit j of k instead of k multiplications by x; each block squares
    its own x.  Every scalar is of the lanes' dtype (`dt(q)`, `dt(c)`): a
    uint64 array mixed with int64 promotes to float64 under numpy 1.24's
    value-based promotion and under NEP 50 alike, and float64 is not exact
    here.
    """
    coeffs = poly_mod_q(f, q) or [0]
    dt = np.uint32 if q <= 1 << 16 else np.uint64
    steps, k = [], 0  # acc = acc * x^k + c for each (k, c)
    for c in reversed(coeffs[:-1]):
        k += 1
        if c:
            steps.append((k, dt(c)))
            k = 0
    steps.append((k, dt(0)))  # the trailing zero coefficients; k = 0 is no step
    dq, roots = dt(q), []
    for lo in range(0, q, _SCAN_BLOCK):
        squarings = [np.arange(lo, min(lo + _SCAN_BLOCK, q), dtype=dt)]  # x^(2^j) mod q
        acc = np.full(len(squarings[0]), coeffs[-1], dtype=dt)
        for k, c in steps:
            j = 0
            while k:
                if j == len(squarings):
                    squarings.append(_reduce_int(squarings[-1] * squarings[-1], dq))
                if k & 1:
                    np.multiply(acc, squarings[j], out=acc)
                    if k == 1:
                        acc += c
                    _reduce_int(acc, dq)
                k >>= 1
                j += 1
        roots += (np.flatnonzero(acc == 0) + lo).tolist()
    return roots


def _roots_by_gcd(f: list[int], q: int) -> list[int]:
    """The roots of f in F_q, q prime: g = gcd(x^q - x, f) is the product
    of x - r over the distinct roots r, and `_split_roots` factors it."""
    f = poly_mod_q(f, q)
    if not f:
        return list(range(q))
    if len(f) == 1:
        return []
    f = _monic(f, q)
    return sorted(_split_roots(poly_gcd_mod(_x_pow_minus_x(q, f, q), f, q), q))


def _split_roots(g: list[int], q: int) -> list[int]:
    """The roots of g, monic and a product of distinct linear factors over
    F_q (q prime), by Cantor and Zassenhaus's equal-degree splitting.

    For delta = 0, 1, ..., q - 1 every factor h of degree >= 2 splits into
    a = gcd(w - 1, h) and h / a, where w = (x + delta)^((q-1)/2) mod h:
    the roots r with r + delta a nonzero square mod q, and the rest.  Two
    distinct roots differ in that test for some delta < q, so running out
    of delta, or a split with a remainder, raises ArithmeticError.  So does
    a w with w^3 != w mod h, checked from delta = _CUBE_CHECK_FROM on: w is
    0 or +-1 at every root of h, so only a slip in the powering makes one,
    and at large q it would otherwise leave h unsplit forever.  One
    rule, `_split_in_lists`, sets three regimes: Python-int lists for the
    factors it picks; else one w mod g per delta for 8 <= deg g <= 64,
    where a `_pow_x` costs per call, not per coefficient; else a division
    per factor.  None of these divisions enters the `_f_division` cache.
    """
    if len(g) - 1 == q:  # g = x^q - x; for q = 2 this is the only g of degree 2
        return list(range(q))
    roots, parts, half, d = [], [g], (q - 1) // 2, len(g) - 1
    shared = _FDivision(g, q) if d <= 64 and not _split_in_lists(d, q) else None
    for delta in range(q):
        roots += [-h[0] % q for h in parts if len(h) == 2]
        parts = [h for h in parts if len(h) > 2]
        if not parts:
            return roots
        split, w = [], None
        if shared and not all(_split_in_lists(len(h) - 1, q) for h in parts):
            w = _pow_x(half, g, q, delta, shared)
        for h in parts:
            if w is not None:
                u = poly_divmod_mod(w, h, q)[1] or [0]
            elif _split_in_lists(len(h) - 1, q):
                u = _pow_x_list(half, h, q, delta) or [0]
            else:
                u = _pow_x(half, h, q, delta, _FDivision(h, q))
            if delta >= _CUBE_CHECK_FROM and not _cubes_to_itself(u, h, q):
                raise ArithmeticError(f"w^3 != w mod a factor of g (degree {d}) mod q = {q}")
            u[0] -= 1
            a = poly_gcd_mod(u, h, q)
            quo, rem = poly_divmod_mod(h, a, q)
            if rem:
                raise ArithmeticError(f"a factor of g (degree {d}) mod q = {q} left a remainder")
            split += [a, quo] if 1 < len(a) < len(h) else [h]
        parts = split
    raise ArithmeticError(f"g of degree {d} did not split into linear factors mod q = {q}")


# A correct split leaves a given pair of roots unseparated after 16 deltas
# with probability about 2^-16, so the cube check below seldom runs.
_CUBE_CHECK_FROM = 16


def _cubes_to_itself(u: list[int], h: list[int], q: int) -> bool:
    """Whether u^3 = u mod (h, q), for h monic residues, in Python-int lists."""
    def times(a, b):
        s = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                s[j] += x * y
        return _reduce_mod(s, h, q)

    u = _reduce_mod([int(c) for c in u], h, q)
    return times(times(u, u), u) == u


def _split_in_lists(d: int, q: int) -> bool:
    """Whether `_split_roots` powers mod a factor of degree d in Python-int
    lists (`_pow_x_list`): below degree 8, where numpy's per-call cost
    dominates, and wherever numpy's sums mod it would be Python ints
    (`object`), where lists build no division and time within ~10% of
    numpy.  Any other factor goes to numpy (`_pow_x`), by one w mod g or a
    division of its own.  Measured in BENCH_roots.json ("one_split_rule")."""
    return d < 8 or _exact_dtype(d * (q - 1) * (q - 1)) is object


def _pow_x_list(e: int, h: list[int], q: int, shift: int) -> list[int]:
    """(x + shift)^e mod (h, q) as trimmed residues, for h monic residues
    of degree d >= 1, in Python-int lists: square, multiply by x + shift
    as a shift and add, and cancel the top coefficients against h, each
    reduced only as it is cancelled."""
    d = len(h) - 1
    terms = [(j, c) for j, c in enumerate(h[:-1]) if c]
    r = [1]
    for bit in bin(e)[2:]:
        s = [0] * (2 * len(r) - 1)
        for i, a in enumerate(r):
            if a:
                for j, b in enumerate(r, i):
                    s[j] += a * b
        if bit == "1":
            s.append(0)
            for i in range(len(s) - 1, 0, -1):
                s[i] = s[i - 1] + shift * s[i]
            s[0] *= shift
        for i in range(len(s) - 1, d - 1, -1):
            c = s[i] % q
            if c:
                for j, b in terms:
                    s[i - d + j] -= c * b
        r = [x % q for x in s[:d]]
    return poly_trim(r)


def _monic(f: list[int], q: int) -> list[int]:
    """f, with a unit leading coefficient mod q, scaled to leading coefficient 1."""
    inv_lead = inv_mod(f[-1], q)
    return [c * inv_lead % q for c in f]


def _x_pow_minus_x(e: int, f: list[int], q: int) -> list[int]:
    """x^e - x, with x^e reduced mod (f, q) by `_pow_x`."""
    r = _pow_x(e, f, q) + [0, 0]
    r[1] = (r[1] - 1) % q
    return poly_trim(r)


def _pow_x(e: int, f: list[int], q: int, shift: int = 0,
           div: "_FDivision | None" = None) -> list[int]:
    """(x + shift)^e mod (f, q), for f monic of degree n >= 1, by
    left-to-right square and multiply.

    Each step divides once, by `div`, or else the `_f_division` for
    (f mod q, q): r^2, or on a 1 bit (r^2 mod q) * (x + shift), taken as
    a shift and add.  The square is a `_convolve_exact` within the
    division's bound, n * (q - 1)^2, and so is each sum of the shift and
    add, at most (q - 1)^2 + (q - 1) from n = 2 up.
    """
    if div is None:
        div = _f_division(tuple(c % q for c in f), q)
    dtype, shift, bits = div.dtype, shift % q, bin(e)[2:] if e else ""
    # x^k for the leading bits k of e below n is reduced already: start there
    lead = 0 if shift else min(len(bits), div.n.bit_length() - 1)
    r = np.zeros(int(bits[:lead] or "0", 2) + 1, dtype=np.int64)
    r[-1] = 1
    for bit in bits[lead:]:
        r = _convolve_exact(r, r, dtype)
        if bit == "1":
            low, r = r % q, np.zeros(len(r) + 1, dtype=dtype)
            r[1:] = low
            if shift:
                r[:-1] += shift * low
        r = div(r)
    return [int(c) for c in r]


def _reduce_int(a: np.ndarray, q: int) -> np.ndarray:
    """a %= q in place for int64 a, or for unsigned a with q of its dtype,
    as a - (a // q) * q: floor division, so the same residues in [0, q) for
    negative a too, faster than np.remainder on int64 from about a thousand
    values up (3.7 against 4.9 us at 1024)."""
    quo = a // q
    quo *= q
    a -= quo
    return a


def mult_order(alpha: int, q: int) -> int:
    """Least r >= 1 with alpha^r = 1 mod q, for a unit alpha mod q.

    The order divides q - 1 whenever alpha^(q-1) = 1, as it always is for
    a prime q, and phi(q) otherwise; the search descends from that bound.
    """
    if math.gcd(alpha, q) != 1:
        raise ZeroElement(f"{alpha} is not a unit mod {q}, so it has no multiplicative order")
    order = q - 1 if pow(alpha, q - 1, q) == 1 else euler_phi(q)
    for p, _ in _factorize(order):
        while order % p == 0 and pow(alpha, order // p, q) == 1:
            order //= p
    return order


def is_totally_split(f: list[int], q: int) -> bool:
    """True iff f mod q is squarefree and has deg(f) distinct roots in F_q:
    deg(f) distinct roots make f mod q squarefree, so no gcd is needed."""
    return len(roots_mod_q(f, q)) == poly_deg(f)


# ---------------------------------------------------------------------------
# The quotient ring R_q = F_q[x]/(f)

_FLOAT_EXACT = 1 << 53


def _exact_dtype(bound: int) -> type:
    """The narrowest dtype in which a sum of integers is exact when no partial
    sum exceeds `bound` in magnitude: float64 below 2^53 (`_FLOAT_EXACT`),
    int64 below 2^63, Python ints (`object`) beyond."""
    return np.float64 if bound < _FLOAT_EXACT else np.int64 if bound < 1 << 63 else object


def _convolve_exact(a: np.ndarray, b: np.ndarray, dtype: type) -> np.ndarray:
    """The full convolution over Z of the integer arrays a and b, computed
    in `dtype`, so exact when `dtype` is `_exact_dtype` of a bound on its
    partial sums.  Every polynomial product in the package goes through it."""
    return np.convolve(a.astype(dtype, copy=False), b.astype(dtype, copy=False))


def _residues(sums: np.ndarray, q: int) -> np.ndarray:
    """Exact integer sums as int64 residues mod q.  Python ints are reduced
    before the cast, as they may not fit; float64 after it, which is faster."""
    if sums.dtype == object:
        sums = sums % q
    return sums.astype(np.int64) % q


class _FDivision:
    """Division by a monic f of degree n mod q with a precomputed inverse
    (von zur Gathen and Gerhard, Modern Computer Algebra, 9.1).

    With rev the coefficient reversal, the quotient by f of a c of degree
    n + m - 1, m <= n, is the rev of rev(c's top m coefficients) *
    rev(f)^-1 mod x^m, so a call is two `_convolve_exact`s of residues
    against f's low coefficients and rev(f)^-1 mod x^n.  Their sums, of at
    most n products of residues, are within n * (q - 1)^2, exact in `dtype`.
    """

    def __init__(self, f, q: int):
        n = len(f) - 1
        self.n, self.q = n, q
        self.dtype = dtype = _exact_dtype(n * (q - 1) * (q - 1))  # no cast per call
        self.low = np.array([c % q for c in f[:-1]], dtype=dtype)
        # rev(f)^-1 mod x^n is the rev of the quotient of x^(2n-1) by f
        self.inv = np.array(poly_divmod_mod([0] * (2 * n - 1) + [1], f, q)[0][::-1], dtype=dtype)

    def __call__(self, sums: np.ndarray) -> np.ndarray:
        """The residues of c mod (f, q), for c given as its at most 2n exact
        integer coefficients in `dtype` or a narrower one."""
        n, q = self.n, self.q
        c = (sums % q).astype(self.dtype, copy=False)
        m = len(c) - n
        if m <= 0:
            return c
        quo = (_convolve_exact(c[: n - 1 : -1], self.inv[:m], self.dtype)[:m] % q)[::-1]
        return (c[:n] - _convolve_exact(quo, self.low, self.dtype)[:n]) % q


@lru_cache(maxsize=32)  # past the 11 (f, q) of a labbench `attack` round
def _f_division(f: tuple[int, ...], q: int) -> _FDivision:
    """The one `_FDivision` by f, as residues mod q, for `ring_mul` and `_pow_x`."""
    return _FDivision(f, q)


@dataclass(frozen=True)
class RingParams:
    """Monic f of degree n >= 1 and a modulus 2 <= q < 2^63.

    f is kept as R_q sees it: its leading coefficient must be exactly 1,
    and the others are stored as residues in [0, q), so two spellings of
    one f mod q give equal rings and write the same files.  q is converted
    to a plain `int` and range-checked here, the one place in the package
    that converts it, so a ring built from a `Modulus` equals the same
    ring built from its value.  q need not be prime: PLWE
    and GLYPH pass a `Modulus` (a verified prime), but BGV passes its raw
    chain moduli, which may be composite.  Only the NTT needs a prime q,
    and `uses_ntt` checks it; `ring_mul` is exact for every f and q.
    """

    f: tuple[int, ...]
    q: int

    def __post_init__(self):
        q = int(self.q)
        if not 2 <= q < 1 << 63:
            raise InvalidParams(f"q must lie in [2, 2^63), got {q}")
        f = poly_trim(list(self.f))
        if len(f) < 2:
            raise InvalidParams("f must have degree >= 1")
        if f[-1] != 1:
            raise InvalidParams("f must be monic")
        object.__setattr__(self, "f", tuple(int(c) % q for c in f[:-1]) + (1,))
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return len(self.f) - 1

    @cached_property
    def negacyclic(self) -> bool:
        n = self.n
        return self.f == tuple([1] + [0] * (n - 1) + [1])

    @cached_property
    def int64_safe(self) -> bool:
        return self.n * (self.q - 1) * (self.q - 1) < (1 << 62)

    @cached_property
    def product_dtype(self) -> type:
        """The dtype of `ring_mul`'s convolution off the NTT: its sums, of n
        products of centered residues, are at most n * floor(q/2)^2."""
        half = self.q // 2
        return _exact_dtype(self.n * half * half)

    @cached_property
    def uses_ntt(self) -> bool:
        """True where products take the negacyclic NTT: f = x^n + 1 with
        n a power of two, q a prime = 1 (mod 2n) so that f splits into n
        linear factors mod q, and max(n1, n2) * (q - 1)^2 < 2^53 for the
        four-step split n = n1 * n2, so that every matmul sum and pointwise
        product of the float64 transform is exact (see `_center`).
        The primality test matters: BGV builds its rings from raw chain
        moduli, which may be composite, and mod a composite q there may be
        no primitive 2n-th root to build the transform from."""
        n, q = self.n, self.q
        return (self.negacyclic and n & (n - 1) == 0 and q % (2 * n) == 1
                and max(_ntt_split(n)) * (q - 1) * (q - 1) < _FLOAT_EXACT and is_prime(q))

    @cached_property
    def division(self) -> _FDivision:
        """`ring_mul`'s reduction mod f off x^n + 1, shared with `_pow_x`."""
        return _f_division(self.f, self.q)


def check_same_params(mine, theirs, whose: str, against: str) -> None:
    """The package's one test that two parameter records agree: `mine` and
    `theirs` are frozen dataclasses of one type (`RingParams`, `PlweParams`,
    `LweParams`, `GlyphParams`), and `whose` and `against` name the records
    that hold them.  Returns at once when they are one object or equal;
    otherwise raises ParamMismatch, "<whose> parameters differ from
    <against>: ...", naming each field that differs (a nested record's
    fields in its place) with both values, or, for a vector such as f, by
    name alone."""
    if mine is theirs or mine == theirs:
        return
    raise ParamMismatch(f"{whose} parameters differ from {against}: "
                        + ", ".join(_differences(mine, theirs)))


def _differences(mine, theirs) -> list[str]:
    out = []
    for field in fields(mine):
        x, y = getattr(mine, field.name), getattr(theirs, field.name)
        if is_dataclass(x):
            out += _differences(x, y)
        elif x != y:
            out.append(field.name if isinstance(x, tuple) else f"{field.name}={x} against {y}")
    return out


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
        if vec.min() < 0 or vec.max() >= params.q:
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
        """The NTT of the element (`_ntt_forward`) as residues in [0, q),
        float64 and read-only, built on first use."""
        if self._ntt is None:
            q = self.params.q
            t = _ntt_forward(self.vec, _ntt_tables(self.params.n, q)).astype(np.int64)
            t = _reduce_int(t, q).astype(np.float64)
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
        return reduce_centered(self.vec, self.params.q).tolist()

    def inf_norm(self) -> int:
        return int(np.abs(reduce_centered(self.vec, self.params.q)).max())


def _init_element(e: RingElement, vec: np.ndarray, params: RingParams) -> None:
    vec.flags.writeable = False
    object.__setattr__(e, "vec", vec)
    object.__setattr__(e, "params", params)
    object.__setattr__(e, "_coeffs", None)
    object.__setattr__(e, "_ntt", None)


def _reduce_signed(d: np.ndarray, q: int) -> np.ndarray:
    """Values in (-q, q) to residues in [0, q), in place."""
    d += q * (d < 0)
    return d


def ring_from_coeffs(coeffs, params: RingParams) -> RingElement:
    """Build an element from up to n integer coefficients (reduced mod q)."""
    q = params.q
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


def ring_add(a: RingElement, b: RingElement) -> RingElement:
    check_same_params(a.params, b.params, "one operand's ring", "the other's")
    q = a.params.q
    # a - (q - b) lies in (-q, q), so no int64 overflow for any q < 2^63
    return RingElement._of(_reduce_signed(a.vec - (q - b.vec), q), a.params)


def ring_sub(a: RingElement, b: RingElement) -> RingElement:
    check_same_params(a.params, b.params, "one operand's ring", "the other's")
    q = a.params.q
    return RingElement._of(_reduce_signed(a.vec - b.vec, q), a.params)


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    """Product in R_q, by one of two exact kernels chosen from the ring alone.

    On a ring that `uses_ntt` (n a power of two, q = 1 mod 2n, so x^n + 1
    splits into linear factors mod q and R_q is F_q^n by evaluation at its
    roots), it is the pointwise product of the operands' cached
    number-theoretic transforms, mapped back, by float64 matmuls that are
    exact (see the section on the transform).  On every other ring it is
    the product over Z, a `_convolve_exact` of centered representatives in
    `params.product_dtype`, reduced mod f: folded by x^n = -1 on x^n + 1,
    divided by f otherwise, by `params.division`, built once per (f, q)
    and shared with `_pow_x`."""
    check_same_params(a.params, b.params, "one operand's ring", "the other's")
    p = a.params
    q, n = p.q, p.n
    if p.uses_ntt:
        return RingElement._of(_ntt_product(a._transform(), b._transform(),
                                            _ntt_tables(n, q)).reshape(n), p)
    res = _convolve_exact(*(reduce_centered(x.vec, q) for x in (a, b)), p.product_dtype)
    if not p.negacyclic:
        return RingElement._of(p.division(res).astype(np.int64), p)
    res[: n - 1] -= res[n:]
    return RingElement._of(_residues(res[:n], q), p)


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
#
# Every step runs in float64 on integers, over a leading axis of rows.  A sum
# stays exact while it is below 2^53, so a step need not be followed by
# `_center` while the next step's results stay below it (Harvey, "Faster
# arithmetic for number-theoretic transforms", 2014): `_lazy_centers` bounds
# each step's results exactly from q, n1 and n2 and keeps a `_center` only
# where the next step would pass 2^53.  Operands are below q in magnitude
# (residues or centered vectors), the tables hold centered residues, at most
# h = (q - 1)/2, a cached transform holds residues, and `_center` leaves
# values within h + 2.  At (1024, 59393) the forward transform keeps one of
# its three `_center`s and the inverse one of its two; near the `uses_ntt`
# edge all stay.  The last matmul's exact sums become int64, where an
# addend joins them before their one reduction to [0, q) (`_reduce_int`).


def _ntt_split(n: int) -> tuple[int, int]:
    """(n1, n2) = (2^floor(k/2), 2^ceil(k/2)) for n = 2^k."""
    n1 = 1 << (n.bit_length() - 1) // 2
    return n1, n // n1


def _lazy_centers(n1: int, n2: int, q: int) -> tuple[bool, ...]:
    """Whether each of the six `_center`s after a step of a product runs:
    after m1, the twiddles, m2, the pointwise product, m2_inv and the
    inverse twiddles.  A `_center` is skipped when the exact bound on the
    step's results, times the growth of the next step, stays below 2^53."""
    h = (q - 1) // 2
    growth = [n1 * h, h, n2 * h, q - 1, n2 * h, h, n1 * h]
    bound, runs = q - 1, []
    for i, grow in enumerate(growth[:-1]):
        if i == 3:  # both operands may be cached transforms, residues below q
            bound = max(bound, q - 1)
        bound *= grow
        runs.append(bound * growth[i + 1] >= _FLOAT_EXACT)
        if runs[-1]:
            bound = h + 2
    return tuple(runs)


class _NttTables(NamedTuple):
    """The split n = n1 * n2, q and 1/q, the matrices and twiddles above
    as centered residues in float64, and the `_lazy_centers` of (n1, n2, q)."""

    n1: int
    n2: int
    q: float
    inv_q: float
    m1: np.ndarray
    tw: np.ndarray
    m2: np.ndarray
    m2_inv: np.ndarray
    tw_inv: np.ndarray
    m1_inv: np.ndarray
    centers: tuple[bool, ...]


@lru_cache(maxsize=8)
def _ntt_tables(n: int, q: int) -> _NttTables:
    """The four-step tables for x^n + 1 mod q, built once per (n, q): a fresh
    RingParams of the same ring shares them."""
    g = 2
    while pow(g, (q - 1) // 2, q) != q - 1:  # a non-residue: psi below has order 2n
        g += 1
    psi = pow(g, (q - 1) // (2 * n), q)
    powers = [1] * (2 * n)
    for j in range(1, 2 * n):
        powers[j] = powers[j - 1] * psi % q
    fwd = reduce_centered(np.array(powers, dtype=np.int64), q)
    inv = fwd[-np.arange(2 * n) % (2 * n)]  # psi^-j
    n1, n2 = _ntt_split(n)
    odd, i1, i2 = 2 * np.arange(n1) + 1, np.arange(n1), np.arange(n2)
    e1 = np.outer(odd, n2 * i1) % (2 * n)  # [k1, i1]
    et = np.outer(odd, i2) % (2 * n)  # [k1, i2]
    e2 = np.outer(2 * n1 * i2, i2) % (2 * n)  # [i2, k2]
    tw_inv = reduce_centered(inv[et] * pow(n, q - 2, q) % q, q)
    return _NttTables(n1, n2, float(q), 1.0 / q,
                      *(x.astype(np.float64) for x in (fwd[e1], fwd[et], fwd[e2], inv[e2], tw_inv,
                                                       inv[e1].T)),
                      _lazy_centers(n1, n2, q))


def _center(x: np.ndarray, t: _NttTables) -> np.ndarray:
    """x - q * rint(x * (1/q)) in place, for float64 integers x below 2^53 in
    magnitude and an odd q: an integer r = x mod q with |r| < q/2 + 2.

    The float x * (1/q), two roundings off x/q, is within about
    |x| * 2^-52 / q of it, and x/q lies at least 1/(2q) from every
    half-integer.  So rint gives the integer nearest x/q, and r is
    centered, whenever |x| <= 2^50; beyond that it may be one off, only
    next to a half-integer, where |r| is still below q/2 + 2.
    q * rint(...) and r are integers below 2^53, so exact.
    """
    r = x * t.inv_q
    np.rint(r, out=r)
    r *= t.q
    x -= r
    return x


def _ntt_forward(vec: np.ndarray, t: _NttTables) -> np.ndarray:
    """Transforms of rows of n integers below q in magnitude (residues or
    centered vectors; vec of shape (rows, n), or (n,) for one row), as a
    rows x n1 x n2 array of the X above: float64 integers, each congruent
    mod q to its entry of X and below 2^53 in magnitude, as `_lazy_centers`
    keeps them for the steps after."""
    run = t.centers
    x = t.m1 @ vec.reshape(-1, t.n1, t.n2).astype(np.float64)
    if run[0]:
        _center(x, t)
    x *= t.tw
    if run[1]:
        _center(x, t)
    x = x @ t.m2
    return _center(x, t) if run[2] else x


def _ntt_inverse(x: np.ndarray, t: _NttTables, addend: np.ndarray | None = None) -> np.ndarray:
    """The rows of n residues in [0, q), int64 and shaped (rows, n), whose
    transforms are x mod q, plus `addend` (int64 rows of n integers below
    2^62 in magnitude, or None), for x a rows x n1 x n2 float64 array of
    pointwise products, as `_ntt_product` leaves them.  The last matmul's
    exact sums, below 2^53, become int64, and with the addend are reduced
    once (`_reduce_int`)."""
    run = t.centers
    d = x @ t.m2_inv
    if run[4]:
        _center(d, t)
    d *= t.tw_inv
    if run[5]:
        _center(d, t)
    r = (t.m1_inv @ d).astype(np.int64).reshape(len(x), -1)
    if addend is not None:
        r += addend
    return _reduce_int(r, int(t.q))


def _ntt_product(ta: np.ndarray, tb: np.ndarray, t: _NttTables,
                 addend: np.ndarray | None = None) -> np.ndarray:
    """The residue rows of the products, plus `addend`, whose operands have
    the transforms ta, residues in [0, q) (`_transform()`), and tb (from
    `_ntt_forward` or `_transform()`)."""
    x = ta * tb
    if t.centers[3]:
        _center(x, t)
    return _ntt_inverse(x, t, addend)


def ring_mul_vec(a: RingElement, y: np.ndarray, addend: np.ndarray | None = None) -> np.ndarray:
    """The residues in [0, q), int64, of a * y + addend, for y n integers
    below q in magnitude (a centered vector, say) or rows of them, and
    `addend` None or int64 integers of y's shape below 2^62 in magnitude;
    the result has y's shape.  On a ring that `uses_ntt`, the rows go into
    one batched transform as they are, against a's cached one, and the
    addend joins the product's sums before their one reduction; on every
    other ring each row is reduced mod q and taken by `ring_mul`."""
    p = a.params
    rows = y.reshape(-1, p.n)
    if p.uses_ntt:
        t = _ntt_tables(p.n, p.q)
        return _ntt_product(a._transform(), _ntt_forward(rows, t), t, addend).reshape(y.shape)
    q = p.q
    out = np.array([ring_mul(a, RingElement._of(row % q, p)).vec for row in rows])
    if addend is not None:
        out = _reduce_signed(out - (q - addend.reshape(out.shape) % q), q)
    return out.reshape(y.shape)


def evaluate(a: RingElement, alpha: int) -> int:
    """a's coefficient representative at alpha mod q, by `evaluate_many`."""
    return int(evaluate_many(a.vec, alpha, a.params)[0])


def evaluate_many(mat, alpha: int, params: RingParams) -> np.ndarray:
    """The value at alpha mod q of each row of `mat`, k rows of n residues in
    [0, q) (say the `vec`s of k elements of `params`' ring), as int64
    residues: one matmul against the powers alpha^i mod q, in the dtype
    where its row sums, at most n * (q - 1)^2, are exact (`_exact_dtype`)."""
    q, n = params.q, params.n
    dtype = _exact_dtype(n * (q - 1) * (q - 1))
    powers = [1] * n
    for i in range(1, n):
        powers[i] = powers[i - 1] * alpha % q
    mat = np.asarray(mat, dtype=np.int64).reshape(-1, n)
    return _residues(mat.astype(dtype) @ np.array(powers, dtype=dtype), q)


def ring_uniform(params: RingParams, rng) -> RingElement:
    return RingElement._of(rng.uniform_array(params.q, params.n), params)
