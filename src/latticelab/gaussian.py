"""Discrete Gaussian on the integers, its folding to F_q, and the
elliptic n-dimensional error sampler.

The distribution assigns mass proportional to exp(-x^2 / (2 sigma^2))
to each integer x; sigma is the distribution *parameter*, which is close
to but not exactly the standard deviation, so tests always compare
against the truncated pmf itself rather than against sigma^2.

Sampling is inverse-CDF over a precomputed table truncated at
TAIL_CUT * sigma.  With a tail cut of 12 the truncated mass is below
1e-30, far under every tolerance used here, and table sampling is
reproducible at constant cost.  Every sampler draws through the array
path; the scalar names are size-1 array draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParams
from .rng import SeededRng
from .zq import Modulus


TAIL_CUT = 12
# Largest sigma: the table then holds at most 24 * 2^15 + 1 < 2^20 entries.
MAX_SIGMA = 1 << 15


@dataclass(frozen=True)
class GaussianParams:
    sigma: float

    def __post_init__(self):
        if not 0 < self.sigma <= MAX_SIGMA:
            raise InvalidParams(f"sigma must be in (0, {MAX_SIGMA}], got {self.sigma}")

    @property
    def support(self) -> tuple[int, int]:
        return math.ceil(-TAIL_CUT * self.sigma), math.floor(TAIL_CUT * self.sigma)


@dataclass(frozen=True)
class EllipticGaussianParams:
    """Per-coordinate parameters of a diagonal (elliptic) n-dim Gaussian."""

    diag: tuple[float, ...]
    bound: float

    def __post_init__(self):
        if not self.diag:
            raise InvalidParams("diag must be non-empty")
        for s in self.diag:
            if s <= 0:
                raise InvalidParams("diagonal entries must be positive")
            if s > self.bound:
                raise InvalidParams(f"diagonal entry {s} exceeds bound {self.bound}")


def rho(x: float, p: GaussianParams) -> float:
    """Unnormalized Gaussian weight exp(-x^2 / (2 sigma^2))."""
    return math.exp(-(x * x) / (2.0 * p.sigma * p.sigma))


@lru_cache(maxsize=8)
def _table(p: GaussianParams) -> tuple[np.ndarray, np.ndarray]:
    """(pmf, cumulative) over the truncated support, indexed from its low end."""
    lo, hi = p.support
    ks = np.arange(lo, hi + 1, dtype=np.float64)
    w = np.exp(-(ks**2) / (2.0 * p.sigma * p.sigma))
    pmf = w / w.sum()
    return pmf, np.cumsum(pmf)


def pmf_int(k: int, p: GaussianParams) -> float:
    """Probability of the integer k under the truncated distribution."""
    lo, hi = p.support
    if k < lo or k > hi:
        return 0.0
    return float(_table(p)[0][k - lo])


def sample_int(p: GaussianParams, rng: SeededRng) -> int:
    """One draw: a size-1 batch of :func:`sample_int_array`."""
    return int(sample_int_array(p, rng, 1)[0])


def sample_int_array(p: GaussianParams, rng: SeededRng, size: int) -> np.ndarray:
    """Independent draws by inverse-CDF lookup over the truncated table."""
    cum = _table(p)[1]
    u = rng.unit_floats(size)
    idx = np.searchsorted(cum, u, side="right").clip(0, len(cum) - 1)
    return idx + p.support[0]


def fold_to_zq(p: GaussianParams, q: Modulus, rng: SeededRng) -> int:
    """One folded draw: a size-1 batch of :func:`fold_to_zq_array`."""
    return int(fold_to_zq_array(p, q, rng, 1)[0])


def fold_to_zq_array(p: GaussianParams, q: Modulus, rng: SeededRng, size: int) -> np.ndarray:
    """Discrete Gaussian folded to F_q: sample over Z, reduce mod q."""
    return sample_int_array(p, rng, size) % int(q)


def sample_error_vector(p: EllipticGaussianParams, q: Modulus, rng: SeededRng) -> list[int]:
    """Independent per-coordinate folded draws with parameter diag[i]."""
    return [fold_to_zq(GaussianParams(sigma=s), q, rng) for s in p.diag]
