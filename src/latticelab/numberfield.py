"""Canonical embedding, discriminants, and quadratic rings of integers.

The discriminant here is the discriminant of the order Z[x]/(f), computed
exactly as a resultant.  For monogenic fields (in particular the
cyclotomic ones) this agrees with the field discriminant; deciding
monogenicity in general is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, LengthMismatch, NoConvergence, NonSquarefree, NotSquarefree
from .polyring import poly_deg, poly_derivative, poly_trim

_MAX_ITER = 10_000
# Root iteration stops once the largest correction is below this; a root
# whose imaginary part is below it counts as real.
PRECISION = 1e-10


@dataclass(frozen=True)
class SignatureCount:
    s1: int  # real embeddings
    s2: int  # conjugate pairs

    def __post_init__(self):
        if self.s1 < 0 or self.s2 < 0:
            raise InvalidParams("signature counts must be non-negative")


@dataclass(frozen=True)
class EmbeddingData:
    f: tuple[int, ...]
    roots: tuple[complex, ...]
    signature: SignatureCount


def complex_roots(f: list[int]) -> EmbeddingData:
    """All complex roots of a squarefree f, by simultaneous iteration.

    Durand-Kerner from a deterministic start (perturbed roots of unity),
    iterated until the largest correction drops below PRECISION.
    """
    f = poly_trim(list(f))
    n = poly_deg(f)
    if n < 1 or n > 64:
        raise InvalidParams("degree must be in [1, 64]")
    if resultant(f, poly_derivative(f)) == 0:  # gcd(f, f') != 1 over Q
        raise NonSquarefree("f has a repeated root")
    monic = [c / f[-1] for c in f]

    def ev(z: complex) -> complex:
        acc = 0j
        for c in reversed(monic):
            acc = acc * z + c
        return acc

    # Deterministic start: powers of a point off the unit circle.
    z = [complex(0.4, 0.9) ** (k + 1) for k in range(n)]
    for _ in range(_MAX_ITER):
        max_step = 0.0
        for k in range(n):
            denom = 1 + 0j
            for j in range(n):
                if j != k:
                    denom *= z[k] - z[j]
            step = ev(z[k]) / denom
            z[k] -= step
            max_step = max(max_step, abs(step))
        if max_step < PRECISION:
            break
    else:
        raise NoConvergence("root iteration did not converge")

    # Real roots first, then conjugate pairs, in a stable order.
    reals = sorted((r for r in z if abs(r.imag) < PRECISION), key=lambda r: r.real)
    complexes = sorted(
        (r for r in z if abs(r.imag) >= PRECISION), key=lambda r: (r.real, r.imag)
    )
    s1, s2 = len(reals), len(complexes) // 2
    if s1 + 2 * s2 != n:
        raise NoConvergence("could not classify roots into a valid signature")
    roots = tuple([complex(r.real, 0.0) for r in reals] + complexes)
    return EmbeddingData(tuple(f), roots, SignatureCount(s1, s2))


def canonical_embed(coeffs, e: EmbeddingData) -> list[complex]:
    """Image of sum(coeffs[j] * theta^j) under all embeddings at once."""
    n = len(e.roots)
    if len(coeffs) != n:
        raise LengthMismatch(f"expected {n} coefficients, got {len(coeffs)}")
    out = []
    for r in e.roots:
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * r + c
        out.append(acc)
    return out


def _bareiss_det(m: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def resultant(f: list[int], g: list[int]) -> int:
    """Exact resultant via the Sylvester matrix determinant."""
    f, g = poly_trim(list(f)), poly_trim(list(g))
    df, dg = len(f) - 1, len(g) - 1
    if df < 0 or dg < 0:
        return 0
    size = df + dg
    m = [[0] * size for _ in range(size)]
    for i in range(dg):
        for j, c in enumerate(reversed(f)):
            m[i][i + j] = c
    for i in range(df):
        for j, c in enumerate(reversed(g)):
            m[dg + i][i + j] = c
    return _bareiss_det(m)


def discriminant(f: list[int]) -> int:
    """Exact discriminant of the order Z[x]/(f), f monic squarefree."""
    f = poly_trim(list(f))
    n = poly_deg(f)
    if n < 1 or n > 32:
        raise InvalidParams("degree must be in [1, 32]")
    if f[-1] != 1:
        raise InvalidParams("f must be monic")
    res = resultant(f, poly_derivative(f))
    if res == 0:
        raise NonSquarefree("f has a repeated root")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res


def discriminant_numeric(f: list[int]) -> complex:
    """Numeric cross-check: squared determinant of (sigma_i(theta^j))."""
    e = complex_roots(f)
    n = len(e.roots)
    m = np.array([[r**j for j in range(n)] for r in e.roots], dtype=complex)
    d = np.linalg.det(m)
    return d * d


def is_squarefree_int(d: int) -> bool:
    """Trial division up to 10^6 (sufficient for desk-scale inputs)."""
    d = abs(d)
    if d == 0:
        return False
    p = 2
    while p * p <= d and p <= 1_000_000:
        if d % (p * p) == 0:
            return False
        while d % p == 0:
            d //= p
        p += 1
    return True


def quadratic_ring_basis(d: int) -> tuple[str, str]:
    """Integral basis of Q(sqrt(d)): {1, sqrt(d)} or {1, (1+sqrt(d))/2}."""
    if d in (0, 1) or not is_squarefree_int(d):
        raise NotSquarefree(f"d = {d} is not a squarefree integer != 0, 1")
    if d % 4 == 1:
        return ("1", f"(1+sqrt({d}))/2")
    return ("1", f"sqrt({d})")
