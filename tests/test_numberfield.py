import math

import pytest

from latticelab.errors import (
    InvalidParams,
    LengthMismatch,
    NonSquarefree,
    NotSquarefree,
)
from latticelab.numberfield import (
    canonical_embed,
    complex_roots,
    discriminant,
    discriminant_numeric,
    is_squarefree_int,
    quadratic_ring_basis,
    resultant,
)
from latticelab.polyring import cyclotomic_poly, poly_mul_z


def test_roots_of_x2_plus_1():
    e = complex_roots([1, 0, 1])
    assert e.signature.s1 == 0 and e.signature.s2 == 1
    got = sorted(e.roots, key=lambda z: z.imag)
    assert abs(got[0] - (-1j)) < 1e-9 and abs(got[1] - 1j) < 1e-9


def test_roots_of_x2_minus_2():
    e = complex_roots([-2, 0, 1])
    assert e.signature.s1 == 2 and e.signature.s2 == 0
    assert abs(e.roots[0].real + math.sqrt(2)) < 1e-9
    assert abs(e.roots[1].real - math.sqrt(2)) < 1e-9


def test_roots_of_x3_minus_2_residuals():
    e = complex_roots([-2, 0, 0, 1])
    assert e.signature.s1 == 1 and e.signature.s2 == 1
    for r in e.roots:
        assert abs(r**3 - 2) < 1e-9


def test_signature_invariant_on_corpus():
    for f in ([1, 0, 1], [-2, 0, 1], [-2, 0, 0, 1], cyclotomic_poly(16),
              [1, 1, 1], [-1, -1, 0, 0, 1]):
        e = complex_roots(f)
        n = len(f) - 1
        assert e.signature.s1 + 2 * e.signature.s2 == n
        assert len(e.roots) == n


def _square_times(g, h):
    return poly_mul_z(poly_mul_z(g, g), h)


def test_nonsquarefree_rejected():
    with pytest.raises(NonSquarefree):
        complex_roots(poly_mul_z([1, 1], [1, 1]))  # (x+1)^2
    with pytest.raises(NonSquarefree):
        complex_roots(_square_times([1, 2], [-2, 0, 0, 1]))  # (2x+1)^2 (x^3-2), not monic
    g, h = [1, 3] + [0] * 8 + [1], [-2, 0, 0, 0, 0, 1] + [0] * 14 + [1]
    with pytest.raises(NonSquarefree):
        complex_roots(_square_times(g, h))  # degree 40
    with pytest.raises(InvalidParams):
        complex_roots([1])


def test_embed_constants_and_theta():
    e = complex_roots([1, 0, 0, 0, 1])
    ones = canonical_embed([1, 0, 0, 0], e)
    assert all(abs(v - 1) < 1e-9 for v in ones)
    theta = canonical_embed([0, 1, 0, 0], e)
    assert all(abs(a - b) < 1e-9 for a, b in zip(theta, e.roots))
    with pytest.raises(LengthMismatch):
        canonical_embed([1, 2], e)


def test_embed_is_multiplicative(rng):
    # sigma(a*b) = sigma(a) . sigma(b) component-wise, in Z[x]/(x^4+1)
    f = [1, 0, 0, 0, 1]
    e = complex_roots(f)
    for _ in range(100):
        a = [int(v) - 4 for v in rng.uniform_array(9, 4)]
        b = [int(v) - 4 for v in rng.uniform_array(9, 4)]
        full = poly_mul_z(a, b)
        # reduce by x^4 = -1
        red = [0, 0, 0, 0]
        for k, c in enumerate(full):
            if k < 4:
                red[k] += c
            else:
                red[k - 4] -= c
        lhs = canonical_embed(red, e)
        ra = canonical_embed(a, e)
        rb = canonical_embed(b, e)
        for x, y, z in zip(lhs, ra, rb):
            assert abs(x - y * z) < 1e-8


def test_embed_times_x_is_componentwise_root_product(rng):
    f = [1] + [0] * 7 + [1]
    e = complex_roots(f)
    a = [int(v) - 2 for v in rng.uniform_array(5, 8)]
    shifted = [-a[7]] + a[:7]  # multiply by x in Z[x]/(x^8+1)
    lhs = canonical_embed(shifted, e)
    rhs = [r * v for r, v in zip(e.roots, canonical_embed(a, e))]
    for x, y in zip(lhs, rhs):
        assert abs(x - y) < 1e-8


def test_discriminant_examples():
    assert discriminant([1, 0, 1]) == -4
    for d in (2, 3, 5, 7, -1, -6):
        assert discriminant([-d, 0, 1]) == 4 * d
    assert discriminant([1, 1, 1]) == -3


def test_discriminant_cyclotomic_prime_powers():
    for p in (3, 5, 7):
        assert abs(discriminant(cyclotomic_poly(p))) == p ** (p - 2)


def test_discriminant_cross_checks_numeric():
    corpus = [
        [1, 0, 1],
        [-2, 0, 1],
        [1, 1, 1],
        [-2, 0, 0, 1],
        [1, 0, 0, 0, 1],
        cyclotomic_poly(5),
        cyclotomic_poly(7),
        [-1, -1, 0, 0, 1],
    ]
    for f in corpus:
        exact = discriminant(f)
        approx = discriminant_numeric(f)
        assert abs(approx.imag) < 1e-6 * max(1.0, abs(exact))
        assert abs(approx.real - exact) < 1e-6 * max(1.0, abs(exact))


def test_discriminant_validation():
    with pytest.raises(NonSquarefree):
        discriminant([0, 0, 1])
    with pytest.raises(NonSquarefree):
        discriminant(_square_times([1, 1], [-2, 0, 0, 1]))  # (x+1)^2 (x^3-2)
    with pytest.raises(NonSquarefree):  # degree 32, the largest allowed
        discriminant(_square_times([1, 3] + [0] * 6 + [1], [-2, 0, 0, 0, 0, 1] + [0] * 10 + [1]))
    with pytest.raises(InvalidParams):
        discriminant([2, 0, 2])  # not monic


def test_resultant_basics():
    # res(x - a, x - b) = a... the product of (a - b) over root pairs
    assert resultant([-3, 1], [-5, 1]) == 3 - 5
    # res(f, g) = product of g over roots of f: f = x^2 - 1, g = x - 2
    assert resultant([-1, 0, 1], [-2, 1]) == (1 - 2) * (-1 - 2)


def test_squarefree_detector():
    assert is_squarefree_int(10)
    assert is_squarefree_int(-15)
    assert not is_squarefree_int(12)
    assert not is_squarefree_int(0)


def test_quadratic_basis():
    assert quadratic_ring_basis(2) == ("1", "sqrt(2)")
    assert quadratic_ring_basis(5) == ("1", "(1+sqrt(5))/2")
    assert quadratic_ring_basis(-1) == ("1", "sqrt(-1)")
    with pytest.raises(NotSquarefree):
        quadratic_ring_basis(4)
    with pytest.raises(NotSquarefree):
        quadratic_ring_basis(1)
