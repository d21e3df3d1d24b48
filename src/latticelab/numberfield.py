"""Complex roots, the canonical embedding and discriminants.

The discriminant here is the discriminant of the order Z[x]/(f), computed
exactly as a resultant.  For monogenic fields (in particular the
cyclotomic ones) this agrees with the field discriminant; deciding
monogenicity in general is out of scope.  The embeddings are numeric:
their roots are numpy's companion-matrix eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, LengthMismatch, NoConvergence, NonSquarefree
from .polyring import poly_deg, poly_derivative, poly_gcd_mod, poly_trim

# A root whose imaginary part is below this counts as real.
PRECISION = 1e-10

# The primes `_is_squarefree` tries before it falls back to the resultant.
_SQUAREFREE_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1)


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
    """All complex roots of a squarefree f, as the eigenvalues of its
    companion matrix (`np.roots`): the real roots ascending, then the
    conjugate pairs by (real, imag)."""
    f = poly_trim(list(f))
    n = poly_deg(f)
    if n < 1 or n > 64:
        raise InvalidParams("degree must be in [1, 64]")
    if not _is_squarefree(f):
        raise NonSquarefree("f has a repeated root")
    try:
        z = np.roots(np.array(f[::-1], dtype=float)).astype(complex).tolist()
    except np.linalg.LinAlgError as e:
        raise NoConvergence(f"root finder did not converge: {e}") from e
    reals = sorted(r.real for r in z if abs(r.imag) < PRECISION)
    complexes = sorted((r for r in z if abs(r.imag) >= PRECISION), key=lambda r: (r.real, r.imag))
    roots = tuple([complex(r, 0.0) for r in reals] + complexes)
    return EmbeddingData(tuple(f), roots, SignatureCount(len(reals), len(complexes) // 2))


def _is_squarefree(f: list[int]) -> bool:
    """Whether f, of degree >= 1, has no repeated complex root, i.e.
    resultant(f, f') != 0.  A prime p that does not divide lc(f) and for
    which gcd(f mod p, f' mod p) = 1 does not divide that resultant, so
    one such p settles it; the exact resultant decides only when every
    prime in `_SQUAREFREE_PRIMES` fails."""
    df = poly_derivative(f)
    if any(f[-1] % p and len(poly_gcd_mod(f, df, p)) == 1 for p in _SQUAREFREE_PRIMES):
        return True
    return resultant(f, df) != 0


def canonical_embed(coeffs, e: EmbeddingData) -> list[complex]:
    """Image of sum(coeffs[j] * theta^j) under all embeddings at once."""
    n = len(e.roots)
    if len(coeffs) != n:
        raise LengthMismatch(f"expected {n} coefficients, got {len(coeffs)}")
    return np.polyval(np.array(coeffs, dtype=complex)[::-1], np.array(e.roots)).tolist()


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
    d = np.linalg.det(np.vander(complex_roots(f).roots, increasing=True))
    return d * d

