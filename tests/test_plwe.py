import numpy as np
import pytest

from latticelab.errors import InvalidParams, LengthMismatch
from latticelab.gaussian import GaussianParams
from latticelab.plwe import (
    PlweCiphertext,
    PlweParams,
    decrypt,
    default_params,
    encrypt,
    keygen,
    oracle_sample,
    public_key_size,
    sample_error,
    split_prime,
    uniform_sample_pair,
)
from latticelab.polyring import (
    RingParams,
    is_totally_split,
    ring_add,
    ring_from_coeffs,
    ring_mul,
    ring_sub,
)
from latticelab.rng import SeededRng
from latticelab.zq import Modulus


def toy_params(n=16, sigma=1.5, floor=256):
    return default_params(n, sigma=sigma, floor=floor)


def test_split_prime_values():
    assert split_prime(256, floor=4096) == 7681
    assert split_prime(16, floor=256) == 257
    assert split_prime(4, floor=10) == 17
    for n in (4, 16, 256):
        q = split_prime(n)
        assert q % (2 * n) == 1


def test_default_params_split_totally():
    p = toy_params(n=16)
    assert is_totally_split(list(p.ring.f), p.ring.q)


def test_check_split_rejects_bad_modulus():
    # x^4 + 1 does not split mod 7
    ring = RingParams(f=(1, 0, 0, 0, 1), q=Modulus(7))
    assert not is_totally_split(list(ring.f), ring.q)


def test_default_params_validation():
    with pytest.raises(InvalidParams):
        default_params(12)
    assert default_params(1 << 16).ring.uses_ntt
    for n in (1 << 17, 1 << 34):  # refused before f is built
        with pytest.raises(InvalidParams):
            default_params(n)
    with pytest.raises(InvalidParams):
        PlweParams(ring=toy_params().ring, sigma=-1.0)


def test_oracle_sample_zero_sigma(rng):
    p = PlweParams(ring=toy_params().ring, sigma=0.0)
    s = ring_from_coeffs([1, 2, 3], p.ring)
    smp = oracle_sample(p, s, rng)
    assert smp.b.coeffs == ring_mul(smp.a, s).coeffs


def test_oracle_sample_error_in_support(rng):
    p = toy_params()
    s = sample_error(p, rng)
    lo, hi = GaussianParams(sigma=p.sigma).support
    for _ in range(50):
        smp = oracle_sample(p, s, rng)
        e = ring_sub(smp.b, ring_mul(smp.a, s))
        assert all(lo <= c <= hi for c in e.centered())


def test_oracle_sample_deterministic():
    p = toy_params()
    s = ring_from_coeffs([1], p.ring)
    a = oracle_sample(p, s, SeededRng(b"\x41" * 32))
    b = oracle_sample(p, s, SeededRng(b"\x41" * 32))
    assert a.a.coeffs == b.a.coeffs and a.b.coeffs == b.b.coeffs


def test_uniform_pair_histogram(rng):
    p = default_params(4, floor=16)  # q = 17
    q = int(p.ring.q)
    counts = np.zeros(q)
    draws = 0
    for _ in range(12_500):  # 1e5 coefficients across a and b
        smp = uniform_sample_pair(p, rng)
        for c in smp.a.coeffs + smp.b.coeffs:
            counts[c] += 1
            draws += 1
    emp = counts / draws
    assert 0.5 * np.abs(emp - 1 / q).sum() <= 0.01


def test_uniform_pair_independence(rng):
    p = default_params(4, floor=16)
    xs, ys = [], []
    for _ in range(5000):
        smp = uniform_sample_pair(p, rng)
        xs.append(smp.a.coeffs[0])
        ys.append(smp.b.coeffs[0])
    rho = np.corrcoef(xs, ys)[0, 1]
    assert abs(rho) < 0.05


def test_keygen_reproducible_and_distinct():
    p = toy_params()
    k1 = keygen(p, SeededRng(b"\x42" * 32))
    k2 = keygen(p, SeededRng(b"\x42" * 32))
    assert k1.s.coeffs == k2.s.coeffs and k1.b.coeffs == k2.b.coeffs
    seen = set()
    for i in range(100):
        kp = keygen(p, SeededRng(bytes([i]) * 32))
        seen.add(kp.s.coeffs)
    assert len(seen) == 100


def test_keygen_witness(rng):
    p = toy_params()
    kp = keygen(p, rng)
    e = ring_sub(kp.b, ring_mul(kp.a, kp.s))
    lo, hi = GaussianParams(sigma=p.sigma).support
    assert all(lo <= c <= hi for c in e.centered())


def test_encrypt_requires_exact_block(rng):
    p = toy_params()
    kp = keygen(p, rng)
    with pytest.raises(LengthMismatch):
        encrypt((kp.a, kp.b), [0] * (p.n - 1), p, rng)
    with pytest.raises(InvalidParams):
        encrypt((kp.a, kp.b), [0] * (p.n - 1) + [2], p, rng)


def test_encrypt_zero_error(rng):
    p = PlweParams(ring=toy_params().ring, sigma=0.0)
    kp = keygen(p, rng)
    q = int(p.ring.q)
    # key (0, 0) and no error: ciphertext is exactly (0, floor(q/2) * z)
    bits = [1, 0] * (p.n // 2)
    zero = ring_from_coeffs([0], p.ring)
    ct = encrypt((zero, zero), bits, p, rng)
    assert not any(ct.u.coeffs)
    assert ct.v.coeffs == tuple(b * (q // 2) for b in bits)
    assert decrypt(kp.s, ct) == bits


def test_decrypt_noiseless_and_ties():
    p = toy_params()
    q = int(p.ring.q)  # 257
    s = ring_from_coeffs([3, 1, 4], p.ring)
    z = [1, 0] * (p.n // 2)
    ct = PlweCiphertext(
        u=ring_from_coeffs([0], p.ring),
        v=ring_from_coeffs([b * (q // 2) for b in z], p.ring),
    )
    assert decrypt(s, ct) == z
    assert decrypt(s, PlweCiphertext(u=ring_from_coeffs([0], p.ring), v=ring_from_coeffs([0], p.ring))) == [0] * p.n
    # coefficient exactly floor(q/4): tie goes to bit 0
    tie = PlweCiphertext(
        u=ring_from_coeffs([0], p.ring), v=ring_from_coeffs([q // 4], p.ring)
    )
    assert decrypt(s, tie)[0] == 0
    past = PlweCiphertext(
        u=ring_from_coeffs([0], p.ring), v=ring_from_coeffs([q // 4 + 1], p.ring)
    )
    assert decrypt(s, past)[0] == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 12, 257, 1024, 4099])
def test_decrypt_matches_the_residue_window_on_every_residue(q):
    """Bit 1 iff |centered r| > floor(q/4) equals the window on residues,
    floor(q/4) < r < q - floor(q/4), that decoding used before, for odd and even q."""
    ring = RingParams((1,) + (0,) * 63 + (1,), q)
    s = ring_from_coeffs([0], ring)
    residues = np.arange(-(-q // 64) * 64) % q
    for r in residues.reshape(-1, 64):
        ct = PlweCiphertext(u=ring_from_coeffs([0], ring), v=ring_from_coeffs(r, ring))
        assert decrypt(s, ct) == ((r > q // 4) & (r < q - q // 4)).astype(np.int64).tolist()


def test_correctness_identity_symbolic(rng):
    # v - u*s == e*r + e2 - e1*s + floor(q/2)*z, exactly, per instance
    p = toy_params()
    q = int(p.ring.q)
    for _ in range(100):
        kp = keygen(p, rng)
        e = ring_sub(kp.b, ring_mul(kp.a, kp.s))
        r = sample_error(p, rng)
        e1 = sample_error(p, rng)
        e2 = sample_error(p, rng)
        bits = [int(rng.bits(1)) for _ in range(p.n)]
        z = ring_from_coeffs(bits, p.ring)
        u = ring_add(ring_mul(kp.a, r), e1)
        v = ring_add(
            ring_add(ring_mul(kp.b, r), e2),
            ring_from_coeffs([b * (q // 2) for b in bits], p.ring),
        )
        lhs = ring_sub(v, ring_mul(u, kp.s))
        rhs = ring_add(
            ring_sub(ring_add(ring_mul(e, r), e2), ring_mul(e1, kp.s)),
            ring_from_coeffs([b * (q // 2) for b in bits], p.ring),
        )
        assert lhs.coeffs == rhs.coeffs


def test_roundtrip_n256(rng):
    p = default_params(256)
    assert int(p.ring.q) == 7681
    kp = keygen(p, rng)
    for _ in range(10):
        bits = [int(b) for b in rng.uniform_array(2, 256)]
        ct = encrypt((kp.a, kp.b), bits, p, rng)
        assert decrypt(kp.s, ct) == bits


def test_public_key_size():
    assert public_key_size(default_params(256)) == 512
    assert public_key_size(toy_params()) == 32
