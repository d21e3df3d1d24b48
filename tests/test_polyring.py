import math
import pickle
from dataclasses import replace
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latticelab.errors import (
    FormatError,
    InvalidParams,
    ParamMismatch,
    ZeroElement,
)
from latticelab import polyring
from latticelab.glyph import GlyphParams
from latticelab.lwe import LweParams
from latticelab.plwe import PlweParams
from latticelab.polyring import (
    GCD_ROOTS_MIN_Q,
    RingElement,
    RingParams,
    check_same_params,
    check_scan_q,
    cyclotomic_poly,
    euler_phi,
    evaluate,
    is_totally_split,
    mult_order,
    parse_poly,
    poly_deg,
    poly_derivative,
    poly_divmod_mod,
    poly_eval_z,
    poly_gcd_mod,
    poly_mod_q,
    poly_trim,
    ring_add,
    ring_from_coeffs,
    ring_mul,
    ring_sub,
    ring_uniform,
    roots_mod_q,
)
from latticelab.polyring import (_center, _convolve_exact, _exact_dtype, _factorize,
                                 _ntt_forward, _ntt_inverse, _ntt_split, _ntt_tables, _pow_x,
                                 _pow_x_list, _roots_by_gcd, _roots_by_scan, _split_roots,
                                 _x_pow_minus_x, ring_mul_vec)
from latticelab.zq import Modulus, is_prime, next_prime
from polyz import poly_divmod_z, poly_mul_z


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_small():
    assert cyclotomic_poly(1) == [-1, 1]  # x - 1
    assert cyclotomic_poly(2) == [1, 1]
    assert cyclotomic_poly(6) == [1, -1, 1]  # x^2 - x + 1
    assert cyclotomic_poly(8) == [1, 0, 0, 0, 1]  # x^4 + 1


def test_cyclotomic_degree_is_phi():
    for m in range(1, 65):
        assert poly_deg(cyclotomic_poly(m)) == euler_phi(m)


def test_cyclotomic_product_identity():
    for m in [*range(1, 65), 2520, 3960]:
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = poly_mul_z(prod, cyclotomic_poly(d))
        expect = [0] * (m + 1)
        expect[0], expect[m] = -1, 1
        assert prod == expect


def test_divmod_z_roundtrip():
    f = [1, 0, 0, 0, 1]
    a = [3, -1, 4, 1, -5, 9, 2, 6]
    quo, rem = poly_divmod_z(a, f)
    back = poly_mul_z(quo, f)
    recon = [x + (rem[i] if i < len(rem) else 0) for i, x in enumerate(back)]
    recon += [0] * (len(a) - len(recon))
    assert recon[: len(a)] == a


# ---------------------------------------------------------------------------
# text format


def test_parse_format_roundtrip():
    assert parse_poly("1,0,0,0,1") == [1, 0, 0, 0, 1]
    assert parse_poly(" 1 , -2 , 3 ") == [1, -2, 3]
    assert parse_poly(",".join(map(str, [3, -1, 0, 4]))) == [3, -1, 0, 4]
    assert parse_poly("+5,\t0,1\n") == [5, 0, 1]
    # int() reads "1_0" as 10, Arabic-Indic and fullwidth digits as digits, and
    # Unicode spaces as spaces; a coefficient is an optional sign and ASCII digits
    for text in ("1,x,3", "1_0,0,1", "\u0661,0,1", "\uff11,0,1", "1,\u20030", "1,,2", "- 1,2",
                 "1 2", "+-1", "", "9" * 5000):
        with pytest.raises(FormatError):
            parse_poly(text)


# ---------------------------------------------------------------------------
# roots, orders, splitting


def test_roots_mod_q():
    assert roots_mod_q([1, 0, 1], Modulus(5)) == [2, 3]
    assert roots_mod_q([1, 0, 1], Modulus(7)) == []
    assert roots_mod_q([1, 0, 0, 0, 1], Modulus(17)) == [2, 8, 9, 15]


@pytest.mark.parametrize("q", [q for q in range(3, 62) if is_prime(q)])
def test_split_roots_separates_every_pair_of_roots_below_q(q):
    # two distinct roots differ in the square test for some delta < q, so
    # the delta bound never cuts a split short; all roots but 0 also split
    for r, s in combinations(range(q), 2):
        assert sorted(_split_roots([r * s % q, -(r + s) % q, 1], q)) == [r, s]
    g = [c % q for c in _linear_product(list(range(1, q)))]
    assert sorted(_split_roots(g, q)) == list(range(1, q))


def test_roots_mod_q_on_both_sides_of_the_gcd_crossover(monkeypatch):
    paths = []

    def recorded(name):
        fn = getattr(polyring, name)
        return lambda f, q: paths.append(name) or fn(f, q)

    for name in ("_roots_by_gcd", "_roots_by_scan"):
        monkeypatch.setattr(polyring, name, recorded(name))
    # x^4 + 1 splits mod 65537 = 1 mod 8: its roots are 16^k for odd k
    assert roots_mod_q([1, 0, 0, 0, 1], Modulus(65537)) == [16, 4096, 61441, 65521]
    assert roots_mod_q([1, 0, 0, 0, 1], Modulus(17)) == [2, 8, 9, 15]
    # a composite q above the crossover is scanned: x^2 = 1 has four roots mod 3 * 32771
    q = 3 * 32771
    assert roots_mod_q([-1, 0, 1], q) == [x for x in range(q) if (x * x - 1) % q == 0]
    # past degree 90 the crossover grows as deg(f)^2: x^1024 + 1 mod 59393 is scanned
    assert len(roots_mod_q([1] + [0] * 1023 + [1], Modulus(59393))) == 1024
    assert paths == ["_roots_by_gcd", "_roots_by_scan", "_roots_by_scan", "_roots_by_scan"]


_ROOT_PRIMES = (st.integers(1, 16).flatmap(lambda k: st.integers(1 << k, (2 << k) - 1))
                .map(next_prime).filter(lambda q: q < 1 << 17))


@st.composite
def _polys_mod_primes(draw):
    """(f, q) with q a prime below 2^17 and f over Z: sparse or dense of
    degree 1-64, with a repeated root, with a lead divisible by q, 0 or a
    nonzero constant mod q, or a cyclotomic Phi_m with q = 1 mod m."""
    q = draw(_ROOT_PRIMES)
    kind = draw(st.sampled_from(["sparse", "dense", "repeated", "lead", "zero", "constant",
                                 "cyclotomic"]))
    if kind == "cyclotomic":  # Phi_m splits into phi(m) <= 64 linear factors mod q
        m = draw(st.sampled_from([3, 4, 8, 12, 16, 60, 64, 105, 128]))
        q = next_prime(q - q % m + 1, m)
        assume(q < 1 << 17)
        return cyclotomic_poly(m), q
    n = draw(st.integers(1, 64))
    coeff = st.integers(-q, q)
    if kind == "dense":
        f = draw(st.lists(coeff, min_size=n + 1, max_size=n + 1))
    else:
        f = [0] * n + [1]
        for i, c in draw(st.lists(st.tuples(st.integers(0, n - 1), coeff), max_size=4)):
            f[i] = c
    f[-1] = f[-1] or 1
    if kind == "repeated":  # (x - r)^k times a cofactor of degree at most 64 - k
        r, k = draw(st.integers(0, q - 1)), draw(st.integers(2, 4))
        f = f[: 65 - k]
        for _ in range(k):
            f = poly_mul_z(f, [-r, 1])
    elif kind == "lead":
        f.append(q * draw(st.integers(1, 3)))
    elif kind == "zero":
        f = [q * c for c in f]
    elif kind == "constant":
        f = [draw(st.integers(1, q - 1))] + [q * c for c in f]
    return f, q


@settings(max_examples=120, deadline=None)
@given(_polys_mod_primes())
@example(([0, 1, 1], 2))  # x^2 + x = x^q - x mod 2: every residue
@example(([0, 1, 0, 1], 2))  # x (x + 1)^2 mod 2
@example(([5, 0, 5], 5))  # 0 mod 5
@example(([3, 7, 0, 7], 7))  # a nonzero constant mod 7
@example(([1, 2, 1, 3 * 65537], 65537))  # the lead vanishes mod q: (x + 1)^2
@example((cyclotomic_poly(128), 17921))  # totally split, degree 64
@example(([-1] + [0] * 63 + [1], 65537))  # x^64 - 1 splits into 64 distinct roots
def test_gcd_roots_match_the_scan(case):
    f, q = case
    assert _roots_by_gcd(f, q) == _roots_by_scan(f, q)


def test_gcd_roots_at_a_61_bit_prime():
    # (x - r1)^2 (x - r2) (x - r3) (x^2 + 1) with x^2 + 1 irreducible, since q = 3 mod 4
    q = (1 << 61) - 1
    planted = [3, 1 << 40, q - 5]
    f = [1, 0, 1]
    for r in planted + planted[:1]:
        f = poly_mul_z(f, [-r, 1])
    roots = _roots_by_gcd(f, q)
    assert roots == sorted(planted)
    assert all(poly_eval_z(f, r) % q == 0 for r in roots)
    assert len(roots) == poly_deg(poly_gcd_mod(_x_pow_minus_x(q, f, q), f, q))


def _brute_roots(f: list[int], q: int) -> list[int]:
    """The x in [0, q) with f(x) = 0 mod q, by plain Horner at every x."""
    x = np.arange(q, dtype=np.int64)
    acc = np.zeros(q, dtype=np.int64)
    for c in reversed(f):
        acc = (acc * x + c % q) % q
    return np.flatnonzero(acc == 0).tolist()


def _linear_product(roots: list[int]) -> list[int]:
    f = [1]
    for r in roots:
        f = poly_mul_z(f, [-r, 1])
    return f


@st.composite
def _planted_splits(draw):
    """(f, q) with q a prime below 2^17 and f built from planted factors:
    "full", a product of distinct linear factors; "partial", that times a
    cofactor of any shape; "none", a product of rootless quadratics; and
    "repeated", g^2 * h with g a product of linear factors."""
    q = draw(_ROOT_PRIMES)
    kind = draw(st.sampled_from(["full", "partial", "none", "repeated"]))
    roots = draw(st.lists(st.integers(0, q - 1), unique=True, min_size=1, max_size=min(q, 40)))
    cofactor = draw(st.lists(st.integers(-q, q), min_size=2, max_size=12)) + [1]
    if kind == "full":
        return _linear_product(roots), q
    if kind == "partial":
        return poly_mul_z(_linear_product(roots[:24]), cofactor), q
    if kind == "repeated":
        g = _linear_product(roots[:12])
        return poly_mul_z(poly_mul_z(g, g), cofactor), q
    f = [1]
    for n in draw(st.lists(st.integers(1, q - 1), min_size=1, max_size=8)):
        # x^2 + x + 1 mod 2, else x^2 - n for the first non-residue n from n up
        while q > 2 and pow(n, (q - 1) // 2, q) != q - 1:
            n = n % (q - 1) + 1
        f = poly_mul_z(f, [1, 1, 1] if q == 2 else [-n, 0, 1])
    return f, q


@settings(max_examples=80, deadline=None)
@given(_planted_splits())
@example(([1] + [0] * 63 + [1], 65537))  # x^64 + 1: 64 roots, every factor size on the way
@example((_linear_product(list(range(0, 2000, 50))), 131101))  # 40 roots, factors past the lists
@example(([-1] + [0] * 127 + [1], 65537))  # x^128 - 1: past degree 64, a division per factor
def test_gcd_roots_match_brute_force(case):
    f, q = case
    assert _roots_by_gcd(f, q) == _brute_roots(f, q)


@st.composite
def _planted_roots_near_2_to_31_40_62(draw):
    """(q, roots): a prime q from 2^k up, k = 31, 40 or 62, and 1-64
    distinct roots in F_q."""
    k = draw(st.sampled_from([31, 40, 62]))
    q = next_prime(draw(st.integers(1 << k, (1 << k) + (1 << 20))))
    return q, draw(st.lists(st.integers(0, q - 1), unique=True, min_size=1, max_size=64))


@settings(max_examples=30, deadline=None)
@given(_planted_roots_near_2_to_31_40_62())
@example((next_prime(1 << 31), [pow(5, i, 1 << 31) for i in range(64)]))
@example((next_prime(1 << 40), [pow(5, i, 1 << 40) for i in range(64)]))
@example((next_prime(1 << 62), [pow(5, i, 1 << 62) for i in range(64)]))
def test_split_roots_returns_the_planted_roots_near_2_to_31_40_62(case):
    # every factor goes to lists: below degree 8 by the rule's first
    # clause, above it because numpy's sums mod it would be `object`
    q, planted = case
    g = [c % q for c in _linear_product(planted)]
    assert sorted(_split_roots(g, q)) == sorted(planted)


def _raises(*args, **kwargs):
    raise AssertionError("not expected on this path")


def test_splitting_at_2_to_61_powers_only_in_lists(monkeypatch):
    q = (1 << 61) - 1
    planted = sorted({pow(3, 11 * i + 1, q) for i in range(64)})
    g = [c % q for c in _linear_product(planted)]
    monkeypatch.setattr(polyring, "_pow_x", _raises)
    monkeypatch.setattr(polyring, "_FDivision", _raises)
    assert len(g) == 65 and sorted(_split_roots(g, q)) == planted


def test_split_roots_raises_on_a_factor_without_roots():
    # x^2 + 1 is irreducible mod 7: no delta < 7 splits it
    with pytest.raises(ArithmeticError, match="degree 2.* q = 7"):
        _split_roots([1, 0, 1], 7)


@pytest.mark.parametrize("q", [65537, (1 << 61) - 1])
def test_split_roots_raises_on_a_split_that_leaves_a_remainder(monkeypatch, q):
    # x + 1 does not divide g, whose roots are 1..12
    g = [c % q for c in _linear_product(list(range(1, 13)))]
    monkeypatch.setattr(polyring, "poly_gcd_mod", lambda u, h, q: [1, 1])
    with pytest.raises(ArithmeticError, match=f"degree 12.* q = {q}"):
        _split_roots(g, q)


def _pow_x_list_sign_slip(e, h, q, shift):
    """`_pow_x_list` with the sign of its shift and add flipped."""
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
                s[i] = s[i - 1] - shift * s[i]
            s[0] *= shift
        for i in range(len(s) - 1, d - 1, -1):
            c = s[i] % q
            if c:
                for j, b in terms:
                    s[i - d + j] -= c * b
        r = [x % q for x in s[:d]]
    return polyring.poly_trim(r)


def test_split_roots_fails_on_a_powering_slip_at_2_to_61(monkeypatch):
    # each gcd(w - 1, h) still divides h, so only w^3 = w mod h can see the
    # slip; without that check the split would run on through delta < q
    q = (1 << 61) - 1
    g = [c % q for c in _linear_product([pow(3, 11 * i + 1, q) for i in range(16)])]
    assert polyring._pow_x_list(q // 2, g, q, 5) != _pow_x_list_sign_slip(q // 2, g, q, 5)
    calls = []

    def slipped(e, h, q, shift):
        calls.append(shift)
        if len(calls) > 400:
            raise TimeoutError("the split ran on past the cube check")
        return _pow_x_list_sign_slip(e, h, q, shift)

    monkeypatch.setattr(polyring, "_pow_x_list", slipped)
    with pytest.raises(ArithmeticError, match=r"w\^3 != w .*degree 16.* q = "):
        _split_roots(g, q)
    assert max(calls) == polyring._CUBE_CHECK_FROM


@pytest.mark.parametrize("q", [65537, (1 << 61) - 1])
def test_splitting_leaves_the_division_cache_alone(q):
    # 40 roots: at 65537 the large factors share one w mod g, by a division
    # built for g, and the small ones go to lists; at 2^61 - 1 every factor
    # goes to lists.  No division enters the cache
    planted = sorted({pow(3, 7 * i + 1, q) for i in range(40)})
    g = [c % q for c in _linear_product(planted)]
    polyring._f_division.cache_clear()
    assert polyring._pow_x(5, g, q) and polyring._f_division.cache_info().currsize == 1
    assert sorted(_split_roots(g, q)) == planted
    assert polyring._f_division.cache_info().currsize == 1
    polyring._f_division.cache_clear()


_NEAR_2_62 = st.one_of(st.sampled_from([(1 << 62) - 57, (1 << 61) - 1]),
                       st.integers(1 << 61, (1 << 62) - 58).map(next_prime))


@settings(max_examples=60, deadline=None)
@given(q=_NEAR_2_62, data=st.data())
def test_poly_divmod_mod_matches_the_integer_division_near_2_to_62(q, data):
    # by a monic b, division over Z and over F_q agree mod q; a is unreduced
    d = data.draw(st.integers(1, 40))
    b = data.draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d)) + [1]
    a = data.draw(st.lists(st.integers(-(1 << 70), 1 << 70), max_size=90))
    quo, rem = poly_divmod_z(a, b)
    assert poly_divmod_mod(a, b, q) == (poly_mod_q(quo, q), poly_mod_q(rem, q))


@settings(max_examples=60, deadline=None)
@given(q=_NEAR_2_62, data=st.data())
def test_poly_gcd_mod_finds_the_planted_gcd_near_2_to_62(q, data):
    # a = g u and b = k g (u + c), with c and k units: gcd(u, u + c) = 1,
    # so the monic gcd is g mod q.  Both inputs are products over Z, unreduced
    coeffs = st.integers(-(1 << 64), 1 << 64)
    g = data.draw(st.lists(coeffs, max_size=30)) + [1]
    u = data.draw(st.lists(coeffs, max_size=30)) + [data.draw(st.integers(1, q - 1))]
    c, k = data.draw(st.integers(1, q - 1)), data.draw(st.integers(1, q - 1))
    v = [k * x for x in u]
    v[0] += k * c
    a, b = poly_mul_z(g, u), poly_mul_z(g, v)
    assert poly_gcd_mod(a, b, q) == poly_mod_q(g, q)
    assert poly_gcd_mod(b, a, q) == poly_mod_q(g, q)


# For deg f <= 16, _pow_x's products are exact in float64 at the first three
# q, in int64 at 2^31 - 1 and deg f = 1, and in Python ints past that.
POW_X_QS = [3, 257, 131101, 2**31 - 1, 2**61 - 1]


@pytest.mark.parametrize("q", POW_X_QS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pow_x_matches_repeated_ring_mul(q, data):
    # (x + shift)^e against e products by x + shift in RingParams(f, q), for
    # sparse, dense and cyclotomic f; the low coefficients of the first two
    # lie in [-q, 3q), so that the division reduces f mod q itself
    kind = data.draw(st.sampled_from(["sparse", "dense", "cyclotomic"]))
    if kind == "cyclotomic":
        f = cyclotomic_poly(data.draw(st.sampled_from([2, 3, 5, 7, 9, 12, 15, 17, 20, 21])))
    else:
        n = data.draw(st.integers(1, 16))
        coeff = st.integers(-q, 3 * q - 1)
        f = data.draw(st.lists(coeff, min_size=n, max_size=n)) + [1]
        if kind == "sparse":  # x^n + c x^k + c0
            k = data.draw(st.integers(0, n - 1))
            f = [c if i in (0, k, n) else 0 for i, c in enumerate(f)]
    e, shift = data.draw(st.integers(0, 40)), data.draw(st.integers(-q, 2 * q))
    p = RingParams(f, q)
    base, expect = ring_from_coeffs([shift, 1], p), ring_from_coeffs([1], p)
    for _ in range(e):
        expect = ring_mul(expect, base)
    got = _pow_x(e, f, q, shift)
    assert got + [0] * (p.n - len(got)) == list(expect.coeffs)
    # the splitting's Python-int powering, from f's residues
    assert _pow_x_list(e, [c % q for c in f], q, shift) == poly_trim(list(expect.coeffs))


@pytest.fixture
def division_builds(monkeypatch):
    """The (f, q) of every `_FDivision` built while the test runs, from an
    empty division cache."""
    builds = []

    class Counting(polyring._FDivision):
        def __init__(self, f, q):
            builds.append((tuple(f), q))
            super().__init__(f, q)

    monkeypatch.setattr(polyring, "_FDivision", Counting)
    polyring._f_division.cache_clear()
    yield builds
    polyring._f_division.cache_clear()


def test_the_gcd_root_finder_caches_one_division(division_builds):
    # Phi_128 splits totally mod 65537, so gcd(x^q - x, f) is f itself: x^q
    # mod f divides by f's cached division, and the splitting's divisions,
    # one for each factor it powers in numpy, stay out of the cache
    f, q = cyclotomic_poly(128), 65537
    assert _roots_by_gcd(f, q) == _roots_by_scan(f, q)
    assert division_builds[0] == (tuple(f), q)
    assert polyring._f_division.cache_info().currsize == 1
    # x^4 = x mod (x^2 + x + 1, 2), which F_4 is built on: a second (f, q), a second division
    assert _x_pow_minus_x(4, [1, 1, 1], 2) == []
    assert polyring._f_division.cache_info().currsize == 2


def test_ring_division_is_the_one_pow_x_uses(monkeypatch):
    # f = x^4 + x - 2: both callers key the division by f's residues mod q
    f, q = [-2, 1, 0, 0, 1], 257
    used = []
    call = polyring._FDivision.__call__
    monkeypatch.setattr(polyring._FDivision, "__call__",
                        lambda div, sums: used.append(div) or call(div, sums))
    division = RingParams(f, q).division
    assert _pow_x(1000, f, q)
    assert used and all(div is division for div in used)
    assert RingParams(tuple(f), Modulus(q)).division is division


# The scan's lanes are uint32 up to q = 2^16 and uint64 above it; 3 * 65537
# spans three blocks of _SCAN_BLOCK points
_LANE_QS = (2, 3, 257, 65521, 65536, 65537, 65539, 3 * 65537)


@st.composite
def _scan_cases(draw):
    """(f, q) with q in _LANE_QS and f a cofactor of degree <= 2, its
    coefficients often 0 or +-q, times up to three planted x - r, r drawn
    from q - 1, q - 2 and the blocks' edges or from anywhere in F_q."""
    q, b = draw(st.sampled_from(_LANE_QS)), polyring._SCAN_BLOCK
    edges = sorted({r % q for r in (0, 1, q - 2, q - 1, b - 1, b, b + 1, 2 * b - 1, 2 * b)})
    roots = draw(st.lists(st.sampled_from(edges) | st.integers(0, q - 1), max_size=3))
    coeff = st.sampled_from([0, q, -q]) | st.integers(-2 * q, 2 * q)
    return poly_mul_z(_linear_product(roots), draw(st.lists(coeff, min_size=1, max_size=3))), q


@settings(max_examples=25, deadline=None)
@given(_scan_cases())
@example(([-1, 0, 1], 65537))  # 65536^2 = 2^32 would wrap to 0 in uint32
@example((_linear_product([65534, 65535]), 65536))  # q - 2 and q - 1 at uint32's top
@example((_linear_product([65535, 65536, 131071, 131072, 196610]), 3 * 65537))  # block edges
@example(([1, 1], 2))
@example(([0, 0, 3], 3))  # 0 mod q: every residue
def test_scan_matches_python_ints_at_the_lane_and_block_edges(case):
    f, q = case
    assert _roots_by_scan(f, q) == [x for x in range(q) if poly_eval_z(f, x) % q == 0]


def test_scan_finds_the_root_65536_of_x2_minus_1_mod_65537():
    # 65536 is the one residue whose square overflows uint32, so this q takes uint64
    assert _roots_by_scan([-1, 0, 1], 65537) == [1, 65536]


def test_scan_squares_x_in_every_block():
    # a run of 999 zero coefficients multiplies by x^(2^j) for each set bit j
    # of 1000; the root 131072 starts the third block
    q = 3 * 65537
    a = pow(131072, 1000, q)
    roots = _roots_by_scan([-a] + [0] * 999 + [1], q)
    assert 131072 in roots
    assert roots == [x for x in range(q) if pow(x, 1000, q) == a]


@pytest.mark.parametrize("q", [1, 0, -5])
def test_roots_mod_q_refuses_a_modulus_below_2(q):
    with pytest.raises(InvalidParams, match="at least 2"):
        roots_mod_q([1, 0, 1], q)


def test_check_scan_q_hands_numpy_a_plain_int():
    # a Modulus, an int subclass, would take numpy's slower path for Python objects
    assert type(check_scan_q(Modulus(257))) is int
    assert check_scan_q(Modulus(257)) == 257


def test_roots_satisfy_f_and_order_divides():
    q = Modulus(17)
    f = [1, 0, 0, 0, 1]
    for a in roots_mod_q(f, q):
        assert (a**4 + 1) % 17 == 0
        assert 16 % mult_order(a, q) == 0


def test_mult_order():
    q = Modulus(17)
    assert mult_order(1, q) == 1
    assert mult_order(16, q) == 2
    assert mult_order(2, q) == 8
    with pytest.raises(ZeroElement):
        mult_order(0, q)


def test_mult_order_matches_brute_force_for_composite_moduli():
    # q - 1 bounds the order only when alpha^(q-1) = 1 (always for a prime
    # q); otherwise the search starts from phi(q): 15 = -1 mod 16 has order 2
    for q in range(2, 400):
        for alpha in range(1, q):
            if math.gcd(alpha, q) != 1:
                continue
            x, r = alpha % q, 1
            while x != 1:
                x, r = x * alpha % q, r + 1
            assert mult_order(alpha, q) == r
    assert mult_order(15, 16) == 2
    with pytest.raises(ZeroElement):
        mult_order(3, 45)


def test_mult_order_brute_force_agreement():
    q = Modulus(257)
    for a in (3, 5, 10, 100, 256):
        r = mult_order(a, q)
        assert pow(a, r, 257) == 1
        assert all(pow(a, k, 257) != 1 for k in range(1, r))


# q = 2p + 1 with p prime: the unit orders are 1, 2, p and 2p, and trial
# division of q - 1 would need sqrt(p) ~ 1.5e9 steps
SAFE_PRIME_P = 2305843009213697249


def test_mult_order_at_a_62_bit_safe_prime():
    q = Modulus(2 * SAFE_PRIME_P + 1)
    assert mult_order(q - 1, q) == 2
    assert mult_order(3, q) == SAFE_PRIME_P  # a square mod q
    assert mult_order(2, q) == q - 1  # q = 3 mod 8, so 2 is not a square


def test_factorize_splits_a_semiprime_of_31_bit_primes():
    assert _factorize(2147483629 * 2147483647) == ((2147483629, 1), (2147483647, 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, (1 << 62) - 1))
@example(2147483647**2)  # a prime square past trial division
@example(2 * SAFE_PRIME_P)
@example(1)
def test_factorize_multiplies_back_to_primes(n):
    pairs = _factorize(n)
    assert math.prod(p**e for p, e in pairs) == n
    assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})
    assert all(is_prime(p) and e >= 1 for p, e in pairs)


def test_is_totally_split():
    assert is_totally_split([1, 0, 1], Modulus(5))
    assert not is_totally_split([1, 0, 1], Modulus(7))
    assert is_totally_split([1, 0, 0, 0, 1], Modulus(17))
    # repeated factor: x^2 mod anything is not squarefree
    assert not is_totally_split([0, 0, 1], Modulus(5))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 17]),
       st.lists(st.integers(-40, 40), min_size=1, max_size=8), st.integers(1, 34))
@example(3, [3, 0, 0], 3)  # f = 3x^3 + 3 is 0 mod 3, so all deg(f) = 3 residues are roots
def test_is_totally_split_matches_gcd_form(q, low, lead):
    # a lead divisible by q drops the degree of f mod q
    f = low + [lead]
    mod = Modulus(q)
    squarefree = poly_deg(poly_gcd_mod(f, poly_derivative(f), mod)) <= 0
    assert is_totally_split(f, mod) == (squarefree and len(roots_mod_q(f, mod)) == poly_deg(f))


# ---------------------------------------------------------------------------
# ring arithmetic


def ring(fcoeffs, q):
    return RingParams(f=tuple(fcoeffs), q=Modulus(q))


def test_ring_params_validation():
    with pytest.raises(InvalidParams):
        RingParams(f=(5,), q=Modulus(17))
    with pytest.raises(InvalidParams):
        RingParams(f=(1, 0, 2), q=Modulus(17))  # not monic
    for q in (0, 1, 1 << 63, 1 << 64, -17):
        with pytest.raises(InvalidParams):
            RingParams(f=(1, 0, 1), q=q)


def test_ring_params_store_q_as_a_plain_int():
    f = (1, 0, 0, 0, 1)
    plain, checked = RingParams(f, 17), RingParams(f, Modulus(17))
    assert plain == checked and hash(plain) == hash(checked)
    assert type(checked.q) is int
    a = ring_from_coeffs([1, 2, 3], plain)
    b = ring_from_coeffs([16, 16, 16, 16], checked)
    assert ring_add(a, b).coeffs == (0, 1, 2, 16)
    assert ring_mul(a, b) == ring_mul(ring_from_coeffs([1, 2, 3], checked), b)


def test_ring_params_keep_f_mod_q():
    # x^4 + x - 2 and x^4 + x + 255 are one ring over F_257
    a, b = RingParams((-2, 1, 0, 0, 1), 257), RingParams((255, 1, 0, 0, 1), 257)
    assert a == b and hash(a) == hash(b) and a.f == (255, 1, 0, 0, 1)
    assert RingParams((-259, 258, 257, -514, 1), Modulus(257)) == a
    assert a.division is b.division
    assert RingParams((-1, 0, 1), 2).negacyclic  # x^2 - 1 = x^2 + 1 mod 2
    with pytest.raises(InvalidParams):
        RingParams((1, 0, 258), 257)  # 258 = 1 mod 257, but f is not monic


def test_x_times_x_is_minus_one():
    p = ring([1, 0, 1], 17)
    x = ring_from_coeffs([0, 1], p)
    assert ring_mul(x, x).coeffs == (16, 0)


def test_mul_identity():
    p = ring([1, 0, 0, 0, 1], 257)
    a = ring_from_coeffs([5, 7, 11, 13], p)
    assert ring_mul(a, ring_from_coeffs([1], p)).coeffs == a.coeffs


def test_negacyclic_shift_rule():
    p = ring([1, 0, 0, 0, 1], 17)
    x = ring_from_coeffs([0, 1], p)
    a = ring_from_coeffs([3, 5, 7, 11], p)
    # x * (c0,c1,c2,c3) = (-c3, c0, c1, c2)
    assert ring_mul(x, a).coeffs == ((-11) % 17, 3, 5, 7)


def negacyclic_oracle(ac, bc, n, q):
    """Independent schoolbook product with the x^n = -1 fold."""
    out = [0] * n
    for i, ai in enumerate(ac):
        for j, bj in enumerate(bc):
            k = i + j
            if k < n:
                out[k] += ai * bj
            else:
                out[k - n] -= ai * bj
    return tuple(c % q for c in out)


def test_fast_path_matches_schoolbook_oracle(rng):
    nega = ring([1] + [0] * 7 + [1], 7681)
    assert nega.negacyclic and nega.int64_safe
    for _ in range(50):
        ac = [int(v) for v in rng.uniform_array(7681, 8)]
        bc = [int(v) for v in rng.uniform_array(7681, 8)]
        fast = ring_mul(ring_from_coeffs(ac, nega), ring_from_coeffs(bc, nega))
        assert fast.coeffs == negacyclic_oracle(ac, bc, 8, 7681)


def test_general_path_matches_oracle_for_non_negacyclic(rng):
    # f = x^4 + x + 255 mod 257 exercises the polynomial-division path
    p = ring([255, 1, 0, 0, 1], 257)
    assert not p.negacyclic
    for _ in range(50):
        ac = [int(v) for v in rng.uniform_array(257, 4)]
        bc = [int(v) for v in rng.uniform_array(257, 4)]
        got = ring_mul(ring_from_coeffs(ac, p), ring_from_coeffs(bc, p))
        # oracle: reduce the full product by repeated x^4 -> -x - 255
        full = [0] * 7
        for i, ai in enumerate(ac):
            for j, bj in enumerate(bc):
                full[i + j] += ai * bj
        for k in range(6, 3, -1):
            c = full[k]
            full[k] = 0
            full[k - 4] -= 255 * c
            full[k - 3] -= c
        assert got.coeffs == tuple(c % 257 for c in full[:4])


def test_ring_axioms_randomized(rng):
    p = ring(cyclotomic_poly(32), 257)  # n = 16
    for _ in range(1000):
        a = ring_uniform(p, rng)
        b = ring_uniform(p, rng)
        c = ring_uniform(p, rng)
        assert ring_mul(a, b).coeffs == ring_mul(b, a).coeffs
        assert ring_mul(ring_mul(a, b), c).coeffs == ring_mul(a, ring_mul(b, c)).coeffs
        lhs = ring_mul(a, ring_add(b, c))
        rhs = ring_add(ring_mul(a, b), ring_mul(a, c))
        assert lhs.coeffs == rhs.coeffs


def test_param_mismatch():
    a = ring_from_coeffs([1], ring([1, 0, 1], 17))
    b = ring_from_coeffs([1], ring([1, 0, 1], 5))
    with pytest.raises(ParamMismatch):
        ring_mul(a, b)


_X4 = RingParams((1, 0, 0, 0, 1), Modulus(17))
_LWE = LweParams(n=16, q=Modulus(257), alpha=0.01, m=141)
_PLWE = PlweParams(_X4, 1.5)
# (record, the record with some fields changed, what the error lists)
_DIFFERING_PARAMS = [
    (_X4, RingParams((1, 0, 1, 0, 1), 17), "f"),
    (_X4, RingParams((1, 0, 0, 0, 1), 13), "q=13 against 17"),
    (_PLWE, PlweParams(RingParams((3, 0, 0, 0, 1), 17), 1.5), "f"),
    (_PLWE, PlweParams(RingParams((1, 0, 0, 0, 1), 13), 1.5), "q=13 against 17"),
    (_PLWE, PlweParams(_X4, 3.0), "sigma=3.0 against 1.5"),
    (_PLWE, PlweParams(RingParams((1, 1, 0, 0, 1), 13), 3.0),
     "f, q=13 against 17, sigma=3.0 against 1.5"),
    (_LWE, replace(_LWE, n=15), "n=15 against 16"),
    (_LWE, replace(_LWE, q=Modulus(263)), "q=263 against 257"),
    (_LWE, replace(_LWE, alpha=0.5), "alpha=0.5 against 0.01"),
    (_LWE, replace(_LWE, m=1), "m=1 against 141"),
    (GlyphParams(n=16), GlyphParams(n=32), "n=32 against 16"),
    (GlyphParams(n=16), GlyphParams(n=16, q=Modulus(59417)), "q=59417 against 59393"),
    (GlyphParams(n=16), GlyphParams(n=16, b=100), "b=100 against 16383"),
    (GlyphParams(n=16), GlyphParams(n=16, k=15), "k=15 against 16"),
]


@pytest.mark.parametrize("mine, theirs, diff", _DIFFERING_PARAMS)
def test_check_same_params_names_each_field_that_differs(mine, theirs, diff):
    """Every field counts, equal records pass whether or not they are one
    object, and a vector such as f is named without its values."""
    check_same_params(mine, mine, "one record's", "itself")
    check_same_params(replace(mine), mine, "a copy's", "the original's")
    with pytest.raises(ParamMismatch) as exc:
        check_same_params(theirs, mine, "the other record's", "the first one's")
    assert str(exc.value) == f"the other record's parameters differ from the first one's: {diff}"


def test_centered_and_inf_norm():
    p = ring([1, 0, 1], 17)
    a = ring_from_coeffs([16, 3], p)
    assert a.centered() == [-1, 3]
    assert a.inf_norm() == 3
    b = ring_from_coeffs([8, 9], p)  # (-q/2, q/2]: 8 stays, 9 is -8
    assert b.centered() == [8, -8]
    assert b.inf_norm() == 8


def test_element_is_a_read_only_residue_array():
    p = ring([1, 0, 0, 0, 1], 17)
    a = RingElement((16, 0, 3, 1), p)
    assert a.vec.dtype == np.int64 and not a.vec.flags.writeable
    assert a.coeffs == (16, 0, 3, 1) and all(type(c) is int for c in a.coeffs)
    assert a.coeffs is a.coeffs  # built once
    with pytest.raises(AttributeError):
        a.params = p
    for bad in [(17, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 0), (2**64, 0, 0, 0)]:
        with pytest.raises(InvalidParams):
            RingElement(bad, p)


def test_element_equality_and_hash_follow_coeffs_and_params():
    p = ring([1, 0, 0, 0, 1], 17)
    a = RingElement((1, 2, 3, 4), p)
    b = ring_from_coeffs([1, 2, 3, 4], p)
    assert a == b and hash(a) == hash(b) == hash(((1, 2, 3, 4), p))
    assert a != RingElement((1, 2, 3, 5), p)
    assert a != RingElement((1, 2, 3, 4), ring([1, 0, 0, 0, 1], 19))
    assert pickle.loads(pickle.dumps(a)) == a


def test_ring_from_coeffs_reduces_and_folds():
    p = ring([1, 0, 1], 17)
    assert ring_from_coeffs([-1, 2**70], p).coeffs == (16, 2**70 % 17)
    assert ring_from_coeffs([1, 2, 3], p).coeffs == (15, 2)  # 3x^2 = -3
    assert ring_from_coeffs([], p).coeffs == (0, 0)


def test_add_sub_near_the_top_of_int64():
    q = 2**62 + 135  # prime; a + b would overflow int64
    assert is_prime(q)
    p = ring([1, 0, 1], q)
    a = ring_from_coeffs([q - 1, q - 2], p)
    b = ring_from_coeffs([q - 3, 1], p)
    assert ring_add(a, b).coeffs == ((2 * q - 4) % q, q - 1)
    assert ring_sub(b, a).coeffs == ((-2) % q, 3)
    assert a.inf_norm() == 2 and a.centered() == [-1, -2]


# ---------------------------------------------------------------------------
# negacyclic kernels against the schoolbook product and division by f

# n * floor(q/2)^2 < 2^53 holds at n = 1024 up to q = 2 * 2965820 + 1, which
# is prime; the next prime takes the int64 path.
FLOAT_EDGE_Q = 5931641
INT64_EDGE_Q = 5931649


def negacyclic(n, q):
    return ring([1] + [0] * (n - 1) + [1], q)


def division_oracle(ac, bc, p):
    rem = poly_divmod_mod(poly_mul_z(list(ac), list(bc)), list(p.f), int(p.q))[1]
    return tuple(rem + [0] * (p.n - len(rem)))


def mul_dtype(p):
    """The dtype of `ring_mul`'s convolution on p: n products of centered
    residues, at most floor(q/2)^2 each, per sum."""
    return _exact_dtype(p.n * (p.q // 2) ** 2)


def test_ring_mul_takes_the_dtype_its_ring_chose_once(monkeypatch):
    """`product_dtype` is `mul_dtype`, and a product on a ring that has
    chosen it runs no `_exact_dtype`: folded on x^n + 1, divided otherwise."""
    rings = [negacyclic(16, 59399), negacyclic(1024, INT64_EDGE_Q),
             RingParams(negacyclic(16, 3).f, INT64_TOP_Q + 1), ring(cyclotomic_poly(9), 59399),
             RingParams(tuple(cyclotomic_poly(9)), 2**61 - 1)]
    operands = []
    for p in rings:
        assert p.product_dtype is mul_dtype(p) and not p.uses_ntt
        x = RingElement(np.arange(p.n) * 12345 % p.q, p)
        operands.append((x, ring_mul(x, x)))
    monkeypatch.setattr(polyring, "_exact_dtype", None)
    for x, square in operands:
        assert ring_mul(x, x) == square


def test_float_exactness_edge_at_n_1024():
    assert FLOAT_EDGE_Q == 2 * math.isqrt((2**53 - 1) // 1024) + 1
    assert is_prime(FLOAT_EDGE_Q) and next_prime(FLOAT_EDGE_Q + 1) == INT64_EDGE_Q
    assert mul_dtype(negacyclic(1024, 59393)) is np.float64
    assert mul_dtype(negacyclic(1024, FLOAT_EDGE_Q)) is np.float64
    edge = negacyclic(1024, INT64_EDGE_Q)
    assert mul_dtype(edge) is np.int64 and edge.int64_safe


# n * floor(q/2)^2 < 2^63 holds at n = 16 up to q = 2 * 759250124 + 1; the
# next q takes Python ints.  Neither q is prime, as a BGV chain modulus may not be.
INT64_TOP_Q = 1518500249


def test_int64_exactness_edge_at_n_16():
    h = INT64_TOP_Q // 2
    assert 16 * h * h < 2**63 <= 16 * (h + 1) ** 2
    top = INT64_TOP_Q + 1
    for q, dtype in [(INT64_TOP_Q, np.int64), (top, object)]:
        uniform = np.random.default_rng(q).integers(0, q, 16).tolist()
        # x^n + 1 and the dense Phi_17; all q // 2, the largest centered
        # magnitude, so the middle sum of the convolution is 16 * (q // 2)^2
        for f in (negacyclic(16, 3).f, cyclotomic_poly(17)):
            p = RingParams(f, q)
            assert mul_dtype(p) is dtype and not p.uses_ntt
            for ac, bc in [([q // 2] * 16, [q // 2] * 16), ([q // 2] * 16, uniform)]:
                got = ring_mul(RingElement(ac, p), RingElement(bc, p))
                assert got.coeffs == division_oracle(ac, bc, p)


# (n, q, dtype): each side of the float64 edge at n = 1024 and of the
# int64 edge at n = 16, for sums of n products of magnitude floor(q/2)^2
CONVOLVE_BANDS = [(1024, FLOAT_EDGE_Q, np.float64), (1024, INT64_EDGE_Q, np.int64),
                  (16, INT64_TOP_Q, np.int64), (16, INT64_TOP_Q + 1, object)]


def check_convolve_exact(a, b, n, q, dtype):
    bound = n * (q // 2) ** 2
    assert _exact_dtype(bound) is dtype
    got = _convolve_exact(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), dtype)
    assert got.dtype == dtype
    assert poly_trim([int(x) for x in got]) == poly_mul_z(a, b)


@pytest.mark.parametrize("n, q, dtype", CONVOLVE_BANDS)
def test_convolve_exact_at_the_band_edges(n, q, dtype):
    # n entries of magnitude h = floor(q/2): the middle sum of all h is n * h^2,
    # the bound itself; with one h - 1 at opposite ends it is n * h^2 - 2h + 1,
    # odd for even h, so float64 cannot hold it once it passes 2^53
    h = q // 2
    for a, b in [([h] * n, [h] * n), ([-h] * n, [h] * n),
                 ([h - 1] + [h] * (n - 1), [h] * (n - 1) + [h - 1])]:
        check_convolve_exact(a, b, n, q, dtype)


@pytest.mark.parametrize("n, q, dtype", CONVOLVE_BANDS)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_convolve_exact_matches_poly_mul_z_in_every_band(n, q, dtype, data):
    # up to n entries of magnitude at most floor(q/2), one sign per operand or
    # mixed; a small spread keeps them near floor(q/2), near the bound
    half = q // 2
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    operands = []
    for _ in range(2):
        size = data.draw(st.integers(1, n))
        mag = half - rng.integers(0, data.draw(st.sampled_from([1, 2, 1000, half + 1])), size)
        sign = data.draw(st.sampled_from([1, -1, None]))
        operands.append((mag * (sign or rng.choice([-1, 1], size))).tolist())
    check_convolve_exact(*operands, n, q, dtype)


ALL_BITS = 2**1024 - 1


@pytest.mark.parametrize("q", [59393, FLOAT_EDGE_Q, INT64_EDGE_Q])
@settings(max_examples=2, deadline=None)
@given(masks=st.tuples(st.integers(0, ALL_BITS), st.integers(0, ALL_BITS)))
@example(masks=(0, 0))
@example(masks=(0, ALL_BITS))
def test_dense_product_at_extreme_coefficients(q, masks):
    # every coefficient (q-1)/2 or (q+1)/2, centered +-(q-1)/2: the largest
    # magnitudes, so the convolution sums reach n * ((q-1)/2)^2 (59393 splits
    # and takes the NTT; the other two take the float64 and int64 convolutions)
    p = negacyclic(1024, q)
    ac, bc = ([(q - 1) // 2 + (m >> i & 1) for i in range(1024)] for m in masks)
    assert ring_mul(RingElement(ac, p), RingElement(bc, p)).coeffs == division_oracle(ac, bc, p)


def sparse_operand(data, n, q, max_nonzeros):
    """Coefficients with nonzeros at 0 and n-1 and at most max_nonzeros in all."""
    inner = data.draw(st.sets(st.integers(1, n - 2), max_size=max_nonzeros - 2))
    support = sorted({0, n - 1} | inner)
    residues = st.sampled_from([1, q - 1, (q - 1) // 2, (q + 1) // 2]) | st.integers(1, q - 1)
    cc = [0] * n
    for i in support:
        cc[i] = data.draw(residues)
    return cc


@pytest.mark.parametrize("q", [59393, INT64_EDGE_Q])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_sparse_product_with_end_entries(q, data):
    n = 1024
    p = negacyclic(n, q)
    # at most 64 nonzeros; GLYPH's challenges have k = 16
    cc = sparse_operand(data, n, q, 64)
    seed = data.draw(st.integers(0, 2**32 - 1))
    yc = np.random.default_rng(seed).integers(0, q, n).tolist()
    expect = division_oracle(cc, yc, p)
    c, y = RingElement(cc, p), RingElement(yc, p)
    assert ring_mul(c, y).coeffs == expect
    assert ring_mul(y, c).coeffs == expect


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_negacyclic_kernels_match_division_oracle(data):
    # small rings with sparse and dense operands (GLYPH's challenges have
    # k = 16 nonzeros); the NTT wherever 2n divides q - 1 (n = 8 at q = 17,
    # say), the float64 convolution, the int64 one (at q = 2^27 + 29 its
    # sums pass 2^53 by far) and a q outside int64_safe (Python ints at 2^61 - 1).
    # q is a raw int, as BGV's chain gives it, so it may be composite: 97^2
    # and 257^2 are 1 mod 2n for some n here, but have no NTT
    n = data.draw(st.sampled_from([1, 2, 8, 64, 128]))
    q = data.draw(st.sampled_from([3, 17, 7681, 59393, FLOAT_EDGE_Q, INT64_EDGE_Q,
                                   2**27 + 29, 2**61 - 1, 97**2, 257**2]))
    p = RingParams(negacyclic(n, 3).f, q)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    operands = []
    for _ in range(2):
        weight = data.draw(st.sampled_from([0, 1, 64, 65, n]))
        cc = np.zeros(n, dtype=np.int64)
        support = rng.permutation(n)[: min(weight, n)]
        cc[support] = rng.integers(1, q, len(support))
        operands.append(cc.tolist())
    got = ring_mul(RingElement(operands[0], p), RingElement(operands[1], p))
    assert got.coeffs == division_oracle(*operands, p)


# For the degrees below (up to 64) these q reach each dtype of the
# convolution: float64, int64 and Python ints.  2^62 + 1, 3^39 and 2^63 - 1
# are composite, 2^63 - 25 is the largest prime below 2^63.
GENERAL_QS = [3, 257, 97**2, 131101, 2**31 - 1, INT64_TOP_Q, INT64_TOP_Q + 1, 3**39,
              2**61 - 1, 2**62 + 1, 2**63 - 25, 2**63 - 1]


@pytest.mark.parametrize("q", GENERAL_QS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_general_f_products_match_division_oracle(q, data):
    # monic f other than x^n + 1: Phi_m for odd m (dense for m = 105),
    # attack-style sparse f and dense f; sparse and dense operands
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["cyclotomic", "sparse", "dense"]))
    if kind == "cyclotomic":
        f = cyclotomic_poly(data.draw(st.sampled_from([3, 9, 15, 21, 45, 63, 105])))
    else:
        n = data.draw(st.integers(1, 64))
        f = [0] * n + [1]
        low = rng.permutation(n)[: 2 if kind == "sparse" else n]
        f[0] = int(rng.integers(0, q))
        for i in low:
            f[i] = int(rng.integers(0, q))
    p = RingParams(f, q)
    n = p.n
    operands = []
    for _ in range(2):
        weight = data.draw(st.sampled_from([1, 3, n]))
        cc = np.zeros(n, dtype=np.int64)
        support = rng.permutation(n)[:weight]
        extreme = data.draw(st.sampled_from([None, 1, q - 1, q // 2, (q + 1) // 2]))
        cc[support] = rng.integers(0, q, len(support)) if extreme is None else extreme
        operands.append(cc.tolist())
    got = ring_mul(RingElement(operands[0], p), RingElement(operands[1], p))
    assert got.coeffs == division_oracle(*operands, p)


# ---------------------------------------------------------------------------
# the negacyclic NTT on split rings

# Rings where 2n divides q - 1, so x^n + 1 splits and dense products take the NTT.
NTT_RINGS = [(128, 7681), (256, 7681), (128, 59393), (256, 59393), (1024, 59393)]

# At n = 1024 (n1 = n2 = 32) the transform is exact while 32 (q - 1)^2 < 2^53:
# NTT_EDGE_Q is the largest prime = 1 (mod 2048) that meets it, the next one
# takes the convolution.
NTT_EDGE_Q = 16760833
PAST_NTT_EDGE_Q = 16801793


def test_ntt_gate():
    assert 32 * (NTT_EDGE_Q - 1) ** 2 < 2**53 <= 32 * (PAST_NTT_EDGE_Q - 1) ** 2
    steps = range(NTT_EDGE_Q, PAST_NTT_EDGE_Q + 1, 2048)
    assert [q for q in steps if is_prime(q)] == [NTT_EDGE_Q, PAST_NTT_EDGE_Q]
    assert negacyclic(1024, NTT_EDGE_Q).uses_ntt
    assert not negacyclic(1024, PAST_NTT_EDGE_Q).uses_ntt
    assert all(negacyclic(n, q).uses_ntt for n, q in NTT_RINGS)
    assert not negacyclic(2048, 59393).uses_ntt  # 4096 does not divide q - 1
    assert not negacyclic(12, 73).uses_ntt  # 24 | 72, but n is no power of two
    assert not ring(cyclotomic_poly(9), 19).uses_ntt  # splits, but f != x^n + 1
    assert not RingParams(negacyclic(16, 97).f, 97 * 97).uses_ntt  # 32 | 9408, but composite


def test_the_ntt_bound_implies_int64_safe():
    # `uses_ntt` has no int64_safe term: every prime q = 1 (mod 2n) within the
    # float64 bound max(n1, n2) * (q - 1)^2 < 2^53 is int64_safe.  Only at
    # n = 2^20 does the bound admit an unsafe q = 1 (mod 2n), 2^21 + 1 = 3 * 699051
    unsafe = []
    for n in (1 << k for k in range(40)):
        q = math.isqrt((2**53 - 1) // max(_ntt_split(n))) // (2 * n) * (2 * n) + 1
        while q > 1 and n * (q - 1) ** 2 >= 2**62:  # from the largest q down
            unsafe.append(q)
            q -= 2 * n
    assert unsafe == [2**21 + 1] and not is_prime(unsafe[0])


@pytest.mark.parametrize("n, q", NTT_RINGS + [(1, 3), (2, 17), (8, 17)])
def test_ntt_evaluates_at_the_roots_and_inverts(n, q):
    p = negacyclic(n, q)
    tables = _ntt_tables(n, q)
    # the transform of x lists the root each slot evaluates at, mod q
    points = _ntt_forward(ring_from_coeffs([0, 1], p).vec, tables) % q
    points = points.astype(int).ravel().tolist()
    assert sorted(points) == roots_mod_q(list(p.f), Modulus(q))
    vec = np.random.default_rng(n * q).integers(0, q, n)
    x = _ntt_forward(vec, tables)
    assert (x % q).ravel().tolist() == [evaluate(RingElement(vec, p), r) for r in points]
    # the forward transform may leave its sums unreduced (`_lazy_centers`);
    # the inverse takes them as residues, and returns rows
    assert np.array_equal(_ntt_inverse(x % q, tables), [vec])


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ntt_products_match_division_oracle(data):
    n, q = data.draw(st.sampled_from(NTT_RINGS))
    p = negacyclic(n, q)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    operands = []
    for _ in range(2):
        # dense, residues at both ends of [0, q) among uniform ones
        cc = rng.integers(0, q, n)
        cc[rng.permutation(n)[:n // 4]] = data.draw(st.sampled_from([1, q - 1]))
        operands.append(cc.tolist())
    got = ring_mul(RingElement(operands[0], p), RingElement(operands[1], p))
    assert got.coeffs == division_oracle(*operands, p)


@pytest.mark.parametrize("q", [NTT_EDGE_Q, PAST_NTT_EDGE_Q])
def test_products_at_the_ntt_edge(q):
    # all q - 1: every matmul sum of the transform reaches max(n1, n2) (q - 1)^2
    p = negacyclic(1024, q)
    top = [q - 1] * 1024
    other = np.random.default_rng(q).integers(0, q, 1024).tolist()
    for operand in (top, other):
        assert ring_mul(RingElement(top, p), RingElement(operand, p)).coeffs == division_oracle(
            top, operand, p)


# `_lazy_centers` at n = 1024 (n1 = n2 = 32), with h = (q - 1)/2 the tables'
# largest entry and h + 2 the most `_center` leaves: each `_center` it skips at
# q = 59393, the last NTT prime (q = 1 mod 2048) where its bound still allows
# the skip, and the next one, where it does not.  Past 86017 the `_center`
# after m1 runs, which lets the one after the twiddles go.
LAZY_EDGES = {
    0: (86017, 114689, lambda h, q: 32 * (q - 1) * h * h),  # m1's sums, twiddled
    2: (86017, 114689, lambda h, q: (h + 2) * 32 * h * (q - 1)),  # m2's, times a residue
    1: (120833, 133121, lambda h, q: (h + 2) * h * 32 * h),  # twiddled, through m2
    4: (120833, 133121, lambda h, q: (h + 2) * 32 * h * h),  # m2_inv's sums, twiddled
}


def test_lazy_centers_skip_exactly_as_far_as_their_bounds():
    assert _ntt_tables(1024, 59393).centers == (False, True, False, True, False, True)
    assert all(_ntt_tables(1024, NTT_EDGE_Q).centers)  # near the edge every pass stays
    for i, (last, nxt, bound) in LAZY_EDGES.items():
        assert [q for q in range(last, nxt + 1, 2048) if is_prime(q)] == [last, nxt]
        assert bound((last - 1) // 2, last) < 2**53 <= bound((nxt - 1) // 2, nxt)
        assert not _ntt_tables(1024, last).centers[i] and _ntt_tables(1024, nxt).centers[i]


@pytest.mark.parametrize("q", sorted({q for last, nxt, _ in LAZY_EDGES.values()
                                      for q in (last, nxt)}))
def test_products_at_the_lazy_edges(q):
    """All q - 1 operands, each side of every skipped `_center`'s edge:
    ring_mul, and ring_mul_vec on rows of q - 1 and -(q - 1) with an addend."""
    p = negacyclic(1024, q)
    top = [q - 1] * 1024
    expect = division_oracle(top, top, p)
    assert ring_mul(RingElement(top, p), RingElement(top, p)).coeffs == expect
    rows = np.array([top, [1 - q] * 1024])
    big = 2**62 - 1
    got = ring_mul_vec(RingElement(top, p), rows, np.array([[big] * 1024, [-big] * 1024]))
    assert got.tolist() == [[(e + big) % q for e in expect], [(-e - big) % q for e in expect]]


@pytest.mark.parametrize("q", [59393, NTT_EDGE_Q])
def test_an_addend_below_2_62_joins_the_products_sums_exactly(q):
    # the last matmul's sums, below 2^53, become int64 before the addend joins
    p = negacyclic(1024, q)
    top = [q - 1] * 1024
    y = np.random.default_rng(q).integers(1 - q, q, 1024)
    expect = division_oracle(top, (y % q).tolist(), p)
    for add in (2**62 - 1, -(2**62 - 1), 2**53 + 1):
        got = ring_mul_vec(RingElement(top, p), y, np.full(1024, add))
        assert got.tolist() == [(e + add) % q for e in expect]


RING_MUL_VEC_RINGS = [(16, 257), (256, 7681), (1024, 59393), (16, 59417), (8, 97 * 89)]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_mul_vec_takes_rows_and_an_addend(data):
    """Rows of centered vectors at once, with or without an addend, give
    each row's ring_mul plus the addend mod q, on split rings and off them
    (59417 is not 1 mod 32, and 97 * 89 is composite)."""
    n, q = data.draw(st.sampled_from(RING_MUL_VEC_RINGS))
    p = RingParams(tuple([1] + [0] * (n - 1) + [1]), q)  # q need not be prime
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = data.draw(st.integers(1, 5))
    a = RingElement(gen.integers(0, q, n), p)
    y = gen.integers(1 - q, q, (rows, n))
    addend = gen.integers(-(q * 17), q * 17, (rows, n))
    each = [ring_mul(a, RingElement(row % q, p)).vec for row in y]
    assert np.array_equal(ring_mul_vec(a, y), each)
    assert np.array_equal(ring_mul_vec(a, y, addend), (np.array(each) + addend) % q)
    assert np.array_equal(ring_mul_vec(a, y[0], addend[0]), (each[0] + addend[0]) % q)


def negacyclic_reference(a, b, n, q):
    """a * b mod (x^n + 1, q) for integer lists a and b, by `poly_mul_z` and
    the fold x^n = -1."""
    full = poly_mul_z(list(a), list(b)) + [0] * (2 * n)
    return [(full[i] - full[i + n]) % q for i in range(n)]


@lru_cache(maxsize=None)
def largest_ntt_prime(n):
    """The largest prime q = 1 (mod 2n) with max(n1, n2) * (q - 1)^2 < 2^53."""
    q = math.isqrt((2**53 - 1) // max(_ntt_split(n))) // (2 * n) * (2 * n) + 1
    while not is_prime(q):
        q -= 2 * n
    return q


def test_largest_ntt_prime_is_the_edge_of_uses_ntt():
    assert largest_ntt_prime(1024) == NTT_EDGE_Q
    for n in (1 << e for e in range(11)):
        q = largest_ntt_prime(n)
        above = q + 2 * n
        while not is_prime(above):
            above += 2 * n
        assert negacyclic(n, q).uses_ntt and not negacyclic(n, above).uses_ntt


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@example(data=None)  # n = 1024 at the largest q, every operand entry at an end
def test_split_ring_products_match_poly_mul_z(data):
    """ring_mul and ring_mul_vec against a schoolbook negacyclic product, at
    every power of two n <= 1024, at q = 257, 59393 and the largest prime
    `uses_ntt` admits at n, on operands salted with 0, q - 1 and
    +-floor(q/2); ring_mul_vec also on centered vectors.  The transform's
    matmul sums grow with q, so the largest q is where an inexact float64
    step would show."""
    if data is None:
        n, q = 1024, NTT_EDGE_Q
        h = q // 2
        a = [q - 1, h, q - h, 0] * 256
        b = [h, q - 1, 0, q - h] * 256
        y = [-h, h, q - 1, -(q - 1)] * 256
    else:
        n = data.draw(st.sampled_from([1 << e for e in range(11)]))
        q = data.draw(st.sampled_from([q for q in (257, 59393) if q % (2 * n) == 1]
                                      + [largest_ntt_prime(n)]))
        h = q // 2
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ends = [0, q - 1, h, q - h]
        a, b = (np.where(gen.random(n) < 0.5, gen.choice(ends, n), gen.integers(0, q, n)).tolist()
                for _ in range(2))
        y = np.where(gen.random(n) < 0.5, gen.choice([0, -h, h, q - 1, 1 - q], n),
                     gen.integers(-h, h + 1, n)).tolist()
    p = negacyclic(n, q)
    assert p.uses_ntt
    ea, eb = RingElement(a, p), RingElement(b, p)
    assert list(ring_mul(ea, eb).coeffs) == negacyclic_reference(a, b, n, q)
    assert ring_mul_vec(ea, np.array(y)).tolist() == negacyclic_reference(a, y, n, q)
    for x in (ea, eb):
        t = x._transform()
        assert t.min() >= 0 and t.max() < q


@settings(max_examples=200, deadline=None)
@given(x=st.integers(-(2**53 - 1), 2**53 - 1) | st.integers(-(2**50), 2**50),
       q=st.sampled_from([3, 17, 257, 59393, NTT_EDGE_Q]))
@example(x=2**53 - 1, q=NTT_EDGE_Q)
@example(x=NTT_EDGE_Q // 2 + 1, q=NTT_EDGE_Q)
def test_center_reduces_exactly_into_the_centered_range(x, q):
    """`_center` keeps x mod q, and centers it exactly up to |x| = 2^50 and
    to within 2 beyond, where rint may be one off next to a half-integer."""
    r = _center(np.array([float(x)]), _ntt_tables(1, q))[0]
    assert r == int(r) and (x - int(r)) % q == 0
    assert abs(r) <= (q - 1) // 2 if abs(x) <= 2**50 else abs(r) < q / 2 + 2


def test_one_cached_transform_serves_many_products():
    n, q = 256, 7681
    p = negacyclic(n, q)
    rng = np.random.default_rng(11)
    a = RingElement(rng.integers(0, q, n), p)
    for _ in range(20):
        bc = rng.integers(0, q, n).tolist()
        b = RingElement(bc, p)
        expect = division_oracle(a.coeffs, bc, p)
        assert ring_mul(a, b).coeffs == expect and ring_mul(b, a).coeffs == expect
    cached = a._transform()
    assert cached is a._transform() and not cached.flags.writeable


def test_cached_transform_leaves_equality_hash_and_pickle_alone():
    p = negacyclic(128, 7681)
    vec = np.random.default_rng(5).integers(0, 7681, 128)
    a, fresh = RingElement(vec, p), RingElement(vec, p)
    ring_mul(a, a)
    assert a._ntt is not None and fresh._ntt is None
    assert a == fresh and hash(a) == hash(fresh)
    assert pickle.dumps(a) == pickle.dumps(fresh)
    back = pickle.loads(pickle.dumps(a))
    assert back == a and back._ntt is None


# ---------------------------------------------------------------------------
# evaluation map


def test_evaluate_examples():
    p = ring([1, 0, 0, 1], 5)
    e = ring_from_coeffs([1, 0, 1], p)  # x^2 + 1
    assert evaluate(e, 2) == 0
    c = ring_from_coeffs([3], p)
    assert evaluate(c, 4) == 3


def test_evaluate_additive_on_random_pairs(rng):
    p = ring([1, 0, 0, 0, 1], 257)
    for _ in range(100):
        a = ring_uniform(p, rng)
        b = ring_uniform(p, rng)
        alpha = int(rng.uniform_mod(257))
        assert evaluate(ring_add(a, b), alpha) == (evaluate(a, alpha) + evaluate(b, alpha)) % 257
        assert evaluate(ring_sub(a, b), alpha) == (evaluate(a, alpha) - evaluate(b, alpha)) % 257


def test_evaluate_multiplicative_at_roots(rng):
    q = Modulus(17)
    f = [1, 0, 0, 0, 1]
    p = RingParams(f=tuple(f), q=q)
    for alpha in roots_mod_q(f, q):
        for _ in range(25):
            a = ring_uniform(p, rng)
            b = ring_uniform(p, rng)
            assert (
                evaluate(ring_mul(a, b), alpha)
                == evaluate(a, alpha) * evaluate(b, alpha) % 17
            )


# Primes from 2 to just below 2^62, both ends of the range included.
_DIVMOD_PRIMES = st.one_of(
    st.sampled_from([2, 3, 17, 59393, 86851566905398247, (1 << 61) - 1, (1 << 62) - 57]),
    st.integers(2, (1 << 62) - 58).map(next_prime),
)


@st.composite
def _divisors(draw, q):
    """A nonzero divisor mod q: sparse x^d + c, dense, or with any nonzero lead."""
    d = draw(st.integers(1, 40))
    coeff = st.integers(0, q - 1)
    kind = draw(st.sampled_from(["sparse", "dense", "non-monic"]))
    if kind == "sparse":
        b = [0] * d + [1]
        for i in draw(st.lists(st.integers(0, d - 1), max_size=3)):
            b[i] = draw(coeff)
    else:
        b = draw(st.lists(coeff, min_size=d, max_size=d)) + [1]
        if kind == "non-monic":
            b[-1] = draw(st.integers(1, q - 1))
    return b


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_poly_divmod_mod_reconstructs_the_dividend(data):
    """quo * b + rem = a (mod q) with deg rem < deg b and every residue in [0, q).

    Checked by reconstruction over Z, since the ring's own oracle above
    divides with poly_divmod_mod itself.
    """
    q = data.draw(_DIVMOD_PRIMES)
    b = data.draw(_divisors(q))
    a = data.draw(st.lists(st.integers(-(1 << 70), 1 << 70), max_size=90))
    quo, rem = poly_divmod_mod(a, b, q)
    assert all(0 <= c < q for c in quo + rem)
    assert poly_deg(rem) < poly_deg(b)
    back = poly_mul_z(quo, b)
    back += [0] * (max(len(a), len(rem)) - len(back))
    for i, r in enumerate(rem):
        back[i] += r
    assert all((x - y) % q == 0 for x, y in zip(back, a + [0] * (len(back) - len(a))))
