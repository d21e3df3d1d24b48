"""Exact arithmetic modulo q.

Everything else in the package sits on top of these few functions.
`Modulus` is a checked prime `int`; `reduce_centered` and `inv_mod` work
mod any q >= 2.  The centered representative convention is fixed once
and for all to (-q/2, q/2], so every "smallness" test in the attack and
decryption code means the same thing.
"""

from __future__ import annotations

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


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    if n <= 2:
        return 2
    n |= 1
    while not is_prime(n):
        n += 2
    return n


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


def reduce_centered(x: int, q: int) -> int:
    """Unique representative of x mod q in (-q/2, q/2]."""
    r = x % q
    return r if 2 * r <= q else r - q


def inv_mod(x: int, q: int) -> int:
    """Multiplicative inverse of x mod q, for any modulus q >= 2."""
    if math.gcd(x, q) != 1:
        raise ZeroInverse(f"{x} has no inverse mod {q}")
    return pow(x, -1, q)
