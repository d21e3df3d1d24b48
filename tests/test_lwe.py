import dataclasses
import math

import numpy as np
import pytest

from latticelab import lwe as lwe_mod
from latticelab.errors import InvalidParams, LengthMismatch, NTooSmall
from latticelab.gaussian import GaussianParams
from latticelab.lwe import (
    LweCiphertext,
    LweParams,
    LwePublicKey,
    decrypt_bit,
    derive_params,
    encrypt_bit,
    keygen,
    public_key_size,
)
from latticelab.rng import SeededRng
from latticelab.zq import Modulus, reduce_centered


def test_derive_params_n64():
    p = derive_params(64)
    assert int(p.q) == 4099
    assert p.m == 845
    assert abs(p.alpha - 1.0 / (8 * 36)) < 1e-12


def test_derive_params_n16():
    assert int(derive_params(16).q) == 257


def test_derive_params_rejects_bad_n():
    with pytest.raises(NTooSmall):
        derive_params(10)
    with pytest.raises(NTooSmall):
        derive_params(48)  # not a power of two


def test_derive_params_caps_n_at_2_to_the_10():
    assert derive_params(1 << 10).n == 1 << 10
    for n in (1 << 11, 1 << 30):
        with pytest.raises(InvalidParams, match="at most 1024"):
            derive_params(n)


def test_params_q_window_enforced():
    with pytest.raises(InvalidParams):
        LweParams(n=16, q=Modulus(521), alpha=0.01, m=100)  # 521 > 2*256


def test_keygen_deterministic():
    p = derive_params(16)
    sk1, pk1 = keygen(p, SeededRng(b"\x31" * 32))
    sk2, pk2 = keygen(p, SeededRng(b"\x31" * 32))
    assert np.array_equal(sk1.s, sk2.s)
    assert np.array_equal(pk1.a, pk2.a) and np.array_equal(pk1.b, pk2.b)


def test_keygen_noiseless(rng):
    p = dataclasses.replace(derive_params(16), alpha=0.0)
    sk, pk = keygen(p, rng)
    assert np.array_equal(pk.b, (pk.a @ sk.s) % int(p.q))


def test_keygen_errors_in_gaussian_support(rng):
    p = derive_params(16)
    sk, pk = keygen(p, rng)
    lo, hi = GaussianParams(sigma=p.sigma).support
    q = int(p.q)
    errs = [reduce_centered(int(v), q) for v in (pk.b - pk.a @ sk.s) % q]
    assert all(lo <= e <= hi for e in errs)


def test_encrypt_zero_public_key(rng):
    # every subset sum of an all-zero key is zero, as for the empty subset
    p = derive_params(16)
    pk = LwePublicKey(a=np.zeros((p.m, p.n), dtype=np.int64),
                      b=np.zeros(p.m, dtype=np.int64), params=p)
    for z in (0, 1):
        ct = encrypt_bit(pk, z, rng)
        assert ct.u.dtype == np.int64 and ct.u.shape == (p.n,) and not ct.u.any()
        assert ct.v == z * (int(p.q) // 2)


def test_encrypt_rejects_non_bit(rng):
    p = derive_params(16)
    _, pk = keygen(p, rng)
    with pytest.raises(InvalidParams):
        encrypt_bit(pk, 2, rng)


def test_decrypt_boundaries():
    p = derive_params(16)
    q = int(p.q)  # 257
    sk = type("SK", (), {"s": np.zeros(16, dtype=np.int64)})()
    zero_u = np.zeros(16, dtype=np.int64)
    assert decrypt_bit(sk, LweCiphertext(u=zero_u, v=0), p) == 0
    assert decrypt_bit(sk, LweCiphertext(u=zero_u, v=q // 2), p) == 1
    # centered d = floor(q/4) = 64 -> tie resolves to 0
    assert decrypt_bit(sk, LweCiphertext(u=zero_u, v=q // 4), p) == 0
    assert decrypt_bit(sk, LweCiphertext(u=zero_u, v=q // 4 + 1), p) == 1
    # negative side of the window is open: -floor(q/4) decodes to 1 only past -q/4
    assert decrypt_bit(sk, LweCiphertext(u=zero_u, v=q - q // 4), p) == 0


@pytest.mark.parametrize("q", [5, 7, 11, 13, 257, 4099, 65537])
def test_decrypt_matches_the_residue_window_on_every_residue(q):
    """The bit is 1 iff |centered d| > floor(q/4); for odd q that is the
    window -q < 4d <= q, written on centered d, that decoding used before."""
    p = LweParams(n=math.isqrt(q), q=Modulus(q), alpha=0.0, m=1)
    sk = type("SK", (), {"s": np.zeros(1, dtype=np.int64)})()
    zero_u = np.zeros(1, dtype=np.int64)
    for v in range(q):
        d = v - q if 2 * v > q else v
        want = 0 if -q < 4 * d <= q else 1
        assert decrypt_bit(sk, LweCiphertext(u=zero_u, v=v), p) == want


def test_decrypt_dimension_mismatch(rng):
    p = derive_params(16)
    sk, pk = keygen(p, rng)
    with pytest.raises(LengthMismatch):
        decrypt_bit(sk, LweCiphertext(u=np.zeros(8, dtype=np.int64), v=0), p)


def test_noiseless_roundtrip_never_fails(rng):
    p = dataclasses.replace(derive_params(16), alpha=0.0)
    sk, pk = keygen(p, rng)
    for i in range(100):
        z = i & 1
        assert decrypt_bit(sk, encrypt_bit(pk, z, rng), p) == z


def test_small_scale_roundtrip(rng):
    p = derive_params(32)
    sk, pk = keygen(p, rng)
    fails = 0
    for i in range(300):
        z = int(rng.bits(1))
        fails += decrypt_bit(sk, encrypt_bit(pk, z, rng), p) != z
    assert fails <= 6  # ~2%; the full-rate check runs at n=64 elsewhere


def test_public_key_size():
    p = derive_params(64)
    assert public_key_size(p) == 845 * 65


@pytest.mark.parametrize("entries", [1, 16, 17 * 16, 1 << 16])
def test_encrypt_sums_row_blocks_as_one_gather(rng, monkeypatch, entries):
    """Rows summed a block at a time (one row, from fewer entries than n or
    exactly n; 17 rows; all m) give the ciphertext of one gather of every
    chosen row."""
    p = derive_params(16)
    _, pk = keygen(p, rng.derive("key"))
    monkeypatch.setattr(lwe_mod, "_SUM_ENTRIES", entries)
    for i, z in enumerate([0, 1, 1, 0]):
        ct = encrypt_bit(pk, z, rng.derive(f"bit-{i}"))
        raw = np.frombuffer(rng.derive(f"bit-{i}").take_bytes((p.m + 7) // 8), dtype=np.uint8)
        subset = np.unpackbits(raw)[: p.m] == 1
        assert ct.u.tolist() == (pk.a[subset].sum(axis=0) % p.q).tolist()
        assert ct.v == (z * (p.q // 2) + int(pk.b[subset].sum())) % p.q
