import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticelab.errors import (
    FormatError,
    InvalidParams,
    ParamMismatch,
    ZeroElement,
)
from latticelab.polyring import (
    RingElement,
    RingParams,
    cyclotomic_poly,
    euler_phi,
    evaluate,
    format_poly,
    is_irreducible_mod_p,
    is_totally_split,
    mult_order,
    parse_poly,
    poly_deg,
    poly_derivative,
    poly_divmod_mod,
    poly_divmod_z,
    poly_gcd_mod,
    poly_mul_z,
    ring_add,
    ring_from_coeffs,
    ring_mul,
    ring_one,
    ring_sub,
    ring_uniform,
    roots_mod_q,
)
from latticelab.polyring import _ntt_forward, _ntt_inverse, _ntt_tables
from latticelab.zq import Modulus, is_prime, next_prime


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
    assert format_poly([1, 0, 0, 0, 1]) == "1,0,0,0,1"
    with pytest.raises(FormatError):
        parse_poly("1,x,3")


# ---------------------------------------------------------------------------
# roots, orders, splitting


def test_roots_mod_q():
    assert roots_mod_q([1, 0, 1], Modulus(5)) == [2, 3]
    assert roots_mod_q([1, 0, 1], Modulus(7)) == []
    assert roots_mod_q([1, 0, 0, 0, 1], Modulus(17)) == [2, 8, 9, 15]


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


def test_mult_order_brute_force_agreement():
    q = Modulus(257)
    for a in (3, 5, 10, 100, 256):
        r = mult_order(a, q)
        assert pow(a, r, 257) == 1
        assert all(pow(a, k, 257) != 1 for k in range(1, r))


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


def test_irreducibility_utility():
    assert is_irreducible_mod_p([1, 0, 1], 7)  # x^2+1 irreducible mod 7
    assert not is_irreducible_mod_p([1, 0, 1], 5)
    assert is_irreducible_mod_p([1, 1, 1], 2)


# ---------------------------------------------------------------------------
# ring arithmetic


def ring(fcoeffs, q):
    return RingParams(f=tuple(fcoeffs), q=Modulus(q))


def test_ring_params_validation():
    with pytest.raises(InvalidParams):
        RingParams(f=(5,), q=Modulus(17))
    with pytest.raises(InvalidParams):
        RingParams(f=(1, 0, 2), q=Modulus(17))  # not monic


def test_x_times_x_is_minus_one():
    p = ring([1, 0, 1], 17)
    x = ring_from_coeffs([0, 1], p)
    assert ring_mul(x, x).coeffs == (16, 0)


def test_mul_identity():
    p = ring([1, 0, 0, 0, 1], 257)
    a = ring_from_coeffs([5, 7, 11, 13], p)
    assert ring_mul(a, ring_one(p)).coeffs == a.coeffs


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
    a = ring_one(ring([1, 0, 1], 17))
    b = ring_one(ring([1, 0, 1], 5))
    with pytest.raises(ParamMismatch):
        ring_mul(a, b)


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


def test_float_exactness_edge_at_n_1024():
    assert FLOAT_EDGE_Q == 2 * math.isqrt((2**53 - 1) // 1024) + 1
    assert is_prime(FLOAT_EDGE_Q) and next_prime(FLOAT_EDGE_Q + 1) == INT64_EDGE_Q
    assert negacyclic(1024, 59393).mul_dtype is np.float64
    assert negacyclic(1024, FLOAT_EDGE_Q).mul_dtype is np.float64
    edge = negacyclic(1024, INT64_EDGE_Q)
    assert edge.mul_dtype is np.int64 and edge.int64_safe


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
    # sums pass 2^53 by far) and a q outside int64_safe (the Python-int path).
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


@pytest.mark.parametrize("n, q", NTT_RINGS + [(1, 3), (2, 17), (8, 17)])
def test_ntt_evaluates_at_the_roots_and_inverts(n, q):
    p = negacyclic(n, q)
    tables = _ntt_tables(n, q)
    # the transform of x lists the root each slot evaluates at
    points = _ntt_forward(ring_from_coeffs([0, 1], p).vec, tables).ravel().tolist()
    assert sorted(points) == roots_mod_q(list(p.f), Modulus(q))
    vec = np.random.default_rng(n * q).integers(0, q, n)
    x = _ntt_forward(vec, tables)
    assert x.ravel().tolist() == [evaluate(RingElement(vec, p), r) for r in points]
    assert np.array_equal(_ntt_inverse(x, tables), vec)


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
