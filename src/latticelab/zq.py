"""Exact arithmetic modulo q.

Everything else in the package sits on top of these few functions.
`Modulus` is a checked prime `int`; `next_prime` is the one search for a
prime in an arithmetic progression, which LWE, PLWE and BGV all use to
find q; `reduce_centered` and `inv_mod` work mod any q >= 2.  The centered
representative convention is fixed once and for all to (-q/2, q/2], and
`reduce_centered` is its one implementation, for ints and integer arrays
alike, so every "smallness" test in the ring, attack and decryption code
means the same thing.
"""

from __future__ import annotations

import itertools
import math

from .errors import InvalidParams, ZeroInverse

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int, step: int = 1) -> int:
    """Smallest prime among n, n + step, n + 2*step, ... (terms below 2 skipped).

    Refuses step < 1, and gcd(n, step) > 1 with n composite, where every
    term is a multiple of the gcd past it and no prime can follow.
    """
    if step < 1:
        raise InvalidParams(f"step must be >= 1, got {step}")
    if n < 2:
        n -= (n - 2) // step * step
    if math.gcd(n, step) > 1 and not is_prime(n):
        raise InvalidParams(f"no prime in {n} + {step}k: gcd({n}, {step}) > 1")
    return next(x for x in itertools.count(n, step) if is_prime(x))


class Modulus(int):
    """A verified odd prime q < 2^63, usable wherever its value is."""

    __slots__ = ()

    def __new__(cls, q: int):
        if q < 3:
            raise InvalidParams(f"q must be >= 3, got {q}")
        if q >= 1 << 63:
            raise InvalidParams("q must fit below 2^63")
        if not is_prime(q):
            raise InvalidParams(f"q = {q} is not prime")
        return super().__new__(cls, q)


def reduce_centered(x, q: int):
    """Unique representative of x mod q in (-q/2, q/2], for an int or
    elementwise for an int64 or `object` array (q < 2^63).  It never forms
    2 * r, so int64 entries near 2^63 stay exact."""
    r = x % q
    return r - q * (r > q // 2)


def inv_mod(x: int, q: int) -> int:
    """Multiplicative inverse of x mod q, for any modulus q >= 2."""
    if math.gcd(x, q) != 1:
        raise ZeroInverse(f"{x} has no inverse mod {q}")
    return pow(x, -1, q)
