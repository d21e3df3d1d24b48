"""GLYPH's two laws at the default parameters, under a keygen key and under
the extreme ternary key s = e = 1 (all ones).

Rejection sampling promises that an accepted z1, z2 is uniform on
[-beta, beta]^n whatever the secret, and that an iteration is accepted
with probability p = ((2 beta + 1) / (2b + 1))^(2n), since each of the 2n
coefficients of y + s*c, |s*c| <= k = b - beta, lands in [-beta, beta]
with probability (2 beta + 1) / (2b + 1) on its own.  A signature's
iteration count is then a geometric draw, and a wrong mask range or
acceptance test moves it or the law of z while every signature still
verifies.  Each test is two-sided at a false-alarm rate of 1e-9."""

import math

import numpy as np
import pytest

from latticelab import glyph
from latticelab.polyring import RingElement, ring_add, ring_mul
from latticelab.rng import SeededRng
from latticelab.zq import reduce_centered

P = glyph.GlyphParams()
ACCEPT = ((2 * P.beta + 1) / (2 * P.b + 1)) ** (2 * P.n)  # 0.1352: 7.40 iterations
SIGNATURES = 800  # per key: 1.6 M coefficients of z, about 50 per value
FALSE_ALARM = 1e-9


def _keys(kind):
    sk, pk = glyph.keygen(P, SeededRng(b"\x71" * 32))
    if kind == "ones":
        ones = RingElement._of(np.ones(P.n, dtype=np.int64), P.ring)
        sk = glyph.GlyphSecretKey(s=ones, e=ones)
        pk = glyph.GlyphPublicKey(a=pk.a, t=ring_add(ring_mul(pk.a, ones), ones))
    return sk, pk


@pytest.fixture(scope="module", params=["keygen", "ones"])
def signed(request):
    """(iteration counts, centered z1 and z2 coefficients) of SIGNATURES
    signatures under one key, each with its own message and stream."""
    sk, pk = _keys(request.param)
    root = SeededRng(b"\x72" * 32).derive(request.param)
    iters, zs = [], []
    for i in range(SIGNATURES):
        sig, it = glyph.sign(sk, pk, i.to_bytes(4, "little"), P, root.derive(f"sig-{i}"))
        iters.append(it)
        zs += [sig.z1.vec, sig.z2.vec]
    return np.array(iters), reduce_centered(np.concatenate(zs), P.q)


def _tail(trials: int, p: float, x: int) -> float:
    """The binomial tail at x on the side away from the mean, for X ~
    Binomial(trials, p): P(X <= x) below it, P(X >= x) above it, summed
    from x outward, where the terms only fall."""
    step = 1 if x > trials * p else -1
    total, j = 0.0, x
    while 0 <= j <= trials:
        term = math.exp(math.lgamma(trials + 1) - math.lgamma(j + 1) - math.lgamma(trials - j + 1)
                        + j * math.log(p) + (trials - j) * math.log1p(-p))
        total += term
        if term < 1e-20 * total:
            break
        j += step
    return total


def _chi2_bound(dof: int, alarm: float) -> float:
    """x with P(chi^2_dof >= x) <= alarm by the Chernoff bound
    exp(-(dof/2)(t - ln(1 + t))), t = x/dof - 1: a conservative threshold."""
    lo, hi = 0.0, 10.0
    for _ in range(100):
        t = (lo + hi) / 2
        lo, hi = (t, hi) if dof / 2 * (t - math.log1p(t)) < math.log(1 / alarm) else (lo, t)
    return dof * (1 + hi)


def test_acceptance_rate_is_the_rejection_bound(signed):
    """The N iteration counts sum to S, N geometric(p) draws, so S <= s iff
    N of the first s iterations were accepted: P(S <= s) = P(Bin(s, p) >= N)
    and P(S >= s) = P(Bin(s - 1, p) <= N - 1), an exact negative binomial
    tail."""
    iters, _ = signed
    p, n, s = ACCEPT, len(iters), int(iters.sum())
    tail = _tail(s, p, n) if s < n / p else _tail(s - 1, p, n - 1)
    assert tail >= FALSE_ALARM / 2, f"{s} iterations for {n} signatures, {n / p:.0f} expected"


def test_z_is_uniform_on_the_box_whatever_the_key(signed):
    """Every z coefficient lies in [-beta, beta]; their counts, one bin per
    value, pass a chi-square test against uniform; and the end values
    +-beta, whose loss a whole-range chi-square barely sees, pass their own
    binomial test."""
    _, z = signed
    beta = P.beta
    assert -beta <= z.min() and z.max() <= beta
    counts = np.bincount(z + beta, minlength=2 * beta + 1)
    expect = len(z) / (2 * beta + 1)
    chi2 = float(((counts - expect) ** 2).sum() / expect)
    assert chi2 <= _chi2_bound(2 * beta, FALSE_ALARM), chi2
    ends = int(counts[0] + counts[-1])
    assert _tail(len(z), 2 / (2 * beta + 1), ends) >= FALSE_ALARM / 2, ends
