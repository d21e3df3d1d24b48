import math
import tracemalloc

import numpy as np
import pytest

from latticelab.errors import InvalidParams
from latticelab.gaussian import (
    MAX_SIGMA,
    EllipticGaussianParams,
    GaussianParams,
    fold_to_zq,
    fold_to_zq_array,
    pmf_int,
    rho,
    sample_error_vector,
    sample_int,
    sample_int_array,
)
from latticelab.rng import SeededRng
from latticelab.zq import Modulus, reduce_centered


def brute_pmf(k, sigma, center=0.0, window=40):
    """Independent oracle: direct truncated normalization over [-w, w]."""
    lo, hi = math.ceil(center - window), math.floor(center + window)
    total = sum(
        math.exp(-((x - center) ** 2) / (2 * sigma * sigma)) for x in range(lo, hi + 1)
    )
    return math.exp(-((k - center) ** 2) / (2 * sigma * sigma)) / total


def test_rho_basics():
    assert abs(rho(1.0, GaussianParams(sigma=1.0)) - math.exp(-0.5)) < 1e-15
    p0 = GaussianParams(sigma=3.2)
    for x in (0.5, 1.0, 7.25):
        assert rho(x, p0) == rho(-x, p0)


def test_param_validation():
    for sigma in (0.0, math.nan, math.inf, MAX_SIGMA * 1.001, 1e9):
        with pytest.raises(InvalidParams):
            GaussianParams(sigma=sigma)
    lo, hi = GaussianParams(sigma=MAX_SIGMA).support
    assert hi - lo + 1 <= 1 << 20


def test_table_cache_memory_bounded():
    # one draw at each of 12 large sigmas leaves at most the cache's tables
    rng = SeededRng(b"\x0c" * 32)
    tracemalloc.start()
    try:
        for sigma in range(MAX_SIGMA - 11, MAX_SIGMA + 1):
            sample_int_array(GaussianParams(sigma=float(sigma)), rng, 1)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 128 << 20


def test_pmf_normalization_and_symmetry():
    p = GaussianParams(sigma=3.2)
    lo, hi = p.support
    total = sum(pmf_int(k, p) for k in range(lo, hi + 1))
    assert abs(total - 1.0) < 1e-12
    for k in range(0, hi + 1):
        assert pmf_int(k, p) == pmf_int(-k, p)
    assert pmf_int(hi + 1, p) == 0.0


def test_pmf_against_brute_force_oracle():
    # sigma=1: a [-40, 40] window holds all the truncated mass at tail 12
    p = GaussianParams(sigma=1.0)
    for k in (0, 1, 2, 3, 5):
        assert abs(pmf_int(k, p) - brute_pmf(k, 1.0)) < 1e-14


def test_sample_support_and_determinism():
    p = GaussianParams(sigma=3.2)
    lo, hi = p.support
    a = SeededRng(b"\x21" * 32)
    b = SeededRng(b"\x21" * 32)
    draws = [sample_int(p, a) for _ in range(500)]
    assert draws == [sample_int(p, b) for _ in range(500)]
    assert all(lo <= d <= hi for d in draws)


def test_sampler_tv_distance(rng):
    p = GaussianParams(sigma=3.2)
    lo, hi = p.support
    draws = sample_int_array(p, rng, 200_000)
    counts = np.bincount(draws - lo, minlength=hi - lo + 1)
    emp = counts / len(draws)
    pmf = np.array([pmf_int(k, p) for k in range(lo, hi + 1)])
    assert 0.5 * np.abs(emp - pmf).sum() <= 0.01
    assert abs(draws.mean()) < 0.05


def test_folding_to_two(rng):
    # q=2 is not prime-valid for Modulus, so use q=3 with the same oracle idea
    q = Modulus(3)
    p = GaussianParams(sigma=10.0)
    lo, hi = p.support
    target0 = sum(pmf_int(k, p) for k in range(lo, hi + 1) if k % 3 == 0)
    draws = fold_to_zq_array(p, q, rng, 200_000)
    assert abs((draws == 0).mean() - target0) < 0.01


def test_folding_injective_when_support_fits(rng):
    q = Modulus(257)
    p = GaussianParams(sigma=3.2)  # support +-39 fits inside (-q/2, q/2]
    for _ in range(200):
        v = fold_to_zq(p, q, rng)
        lo, hi = p.support
        assert lo <= reduce_centered(v, q) <= hi


def test_elliptic_params_validation():
    EllipticGaussianParams(diag=(2.0, 2.0, 3.0), bound=3.0)
    with pytest.raises(InvalidParams):
        EllipticGaussianParams(diag=(2.0, 3.03), bound=3.0)
    with pytest.raises(InvalidParams):
        EllipticGaussianParams(diag=(), bound=3.0)


def test_error_vector_reproducible_and_sized():
    p = EllipticGaussianParams(diag=(2.5, 2.5, 2.5, 2.5), bound=4.0)
    q = Modulus(257)
    a = sample_error_vector(p, q, SeededRng(b"\x22" * 32))
    b = sample_error_vector(p, q, SeededRng(b"\x22" * 32))
    assert a == b and len(a) == 4
    assert all(0 <= v < 257 for v in a)


def test_error_vector_variance_matches_pmf_moments(rng):
    sigma = 2.5
    q = Modulus(7681)
    gp = GaussianParams(sigma=sigma)
    lo, hi = gp.support
    pmf_var = sum(k * k * pmf_int(k, gp) for k in range(lo, hi + 1))
    draws = fold_to_zq_array(gp, q, rng, 100_000)
    centered = np.array([reduce_centered(int(v), q) for v in draws], dtype=float)
    assert abs(centered.var() - pmf_var) < 0.1 * pmf_var
