import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticelab.errors import InvalidParams, ZeroInverse
from latticelab.zq import (
    Modulus,
    inv_mod,
    is_prime,
    next_prime,
    reduce_centered,
)

PRIMES_BELOW_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                    53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_is_prime_small():
    assert [n for n in range(100) if is_prime(n)] == PRIMES_BELOW_100


def test_is_prime_larger_cases():
    assert is_prime(4099)
    assert is_prime(7681)
    assert is_prime(59393)
    assert not is_prime(4097)  # 17 * 241
    assert not is_prime(2**31 - 1 + 2)


def test_next_prime():
    assert next_prime(4096) == 4099
    assert next_prime(17) == 17
    assert next_prime(-5) == 2
    # the first prime of n, n + step, ...: 4097 = 17 * 241 and 4129 = 1 mod 32
    assert next_prime(4097, 32) == 4129
    assert next_prime(4129, 32) == 4129
    assert next_prime(1, 4) == 5  # terms below 2 are skipped
    assert next_prime(0, 2) == next_prime(2, 2) == 2  # gcd 2, but 2 is prime
    assert next_prime(17168, 9) == 17231  # q_1 of BGV's chain at p^r = 9
    for n, step in ((4, 2), (15, 3), (21, 6)):  # every term a multiple of the gcd
        with pytest.raises(InvalidParams):
            next_prime(n, step)
    for step in (0, -2):
        with pytest.raises(InvalidParams):
            next_prime(17, step)


def test_modulus_validation():
    Modulus(17)
    with pytest.raises(InvalidParams):
        Modulus(15)
    with pytest.raises(InvalidParams):
        Modulus(2)
    with pytest.raises(InvalidParams):
        Modulus(1)
    with pytest.raises(InvalidParams):
        Modulus(1 << 64)


def test_modulus_is_its_value():
    q = Modulus(17)
    assert isinstance(q, int) and q == 17 and hash(q) == hash(17)
    assert str(q) == repr(q) == "17"
    assert pow(3, q - 2, q) == 6 and type(q % 5) is int


def test_reduce_centered_examples():
    assert reduce_centered(7, 5) == 2
    assert reduce_centered(3, 5) == -2
    assert reduce_centered(0, 17) == 0


def test_reduce_centered_boundary():
    # q odd: (q-1)/2 stays put, (q+1)/2 wraps negative
    assert reduce_centered(8, 17) == 8
    assert reduce_centered(9, 17) == -8


@given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=6),
       st.sampled_from([2, 3, 4, 5, 17, 256, 257, 4099, 2**62 - 57, 2**63 - 25]))
def test_reduce_centered_contract(xs, q):
    """The scalar rule, and the same rule entry by entry on int64 and
    `object` arrays, for odd and even q up to 2^63 - 25."""
    xs = xs + [q // 2 - 1, q // 2, q // 2 + 1, q - 1, q, -(q // 2), -1, 0]
    for x in xs:
        r = reduce_centered(x, q)
        assert (r - x) % q == 0
        assert -q < 2 * r <= q
    for dtype in (np.int64, object):
        arr = np.array(xs, dtype=dtype)
        out = reduce_centered(arr, q)
        assert out.dtype == arr.dtype
        assert out.tolist() == [reduce_centered(x, q) for x in xs]


def test_inv_mod_examples():
    assert inv_mod(3, 7) == 5
    assert inv_mod(1, 101) == 1
    with pytest.raises(ZeroInverse):
        inv_mod(0, 7)
    with pytest.raises(ZeroInverse):
        inv_mod(14, 7)
    # any modulus: a unit has its inverse, a non-unit none
    assert inv_mod(2, 9) == 5
    assert inv_mod(7, 10) == 3
    with pytest.raises(ZeroInverse):
        inv_mod(3, 9)
    with pytest.raises(ZeroInverse):
        inv_mod(4, 10)


def test_inv_mod_involution():
    q = 257
    for x in range(1, q):
        assert inv_mod(inv_mod(x, q), q) == x
        assert inv_mod(x, q) * x % q == 1


def test_uniform_frequencies_million_draws(rng):
    # each residue frequency within 1% (relative) of 1/17 at 1e6 draws
    q = 17
    draws = rng.uniform_array(q, 1_000_000)
    counts = np.bincount(draws, minlength=q)
    expected = 1_000_000 / q
    assert np.all(np.abs(counts - expected) <= 0.01 * 1_000_000)
    tv = 0.5 * np.abs(counts / 1_000_000 - 1.0 / q).sum()
    assert tv <= 0.01
