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
from latticelab.zq import Modulus, next_prime, reduce_centered
from lwe_sequential import encrypt_bit_sequential


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
    """Rows summed a block at a time (8 rows, the fewest, from fewer entries
    than a key row of n + 1 or exactly one row's; 16 rows; all m) give the
    ciphertext of one gather of every chosen row."""
    p = derive_params(16)
    _, pk = keygen(p, rng.derive("key"))
    monkeypatch.setattr(lwe_mod, "_SUM_ENTRIES", entries)
    for i, z in enumerate([0, 1, 1, 0]):
        ct = encrypt_bit(pk, z, rng.derive(f"bit-{i}"))
        raw = np.frombuffer(rng.derive(f"bit-{i}").take_bytes((p.m + 7) // 8), dtype=np.uint8)
        subset = np.unpackbits(raw)[: p.m] == 1
        assert ct.u.tolist() == (pk.a[subset].sum(axis=0) % p.q).tolist()
        assert ct.v == (z * (p.q // 2) + int(pk.b[subset].sum())) % p.q


def _cipher(cts):
    return [(ct.u.dtype, ct.u.tolist(), ct.v) for ct in cts]


@pytest.mark.parametrize("entries", [17 * 40, 1 << 16])  # 40 key rows, 17 bits a block; all
@pytest.mark.parametrize("count", [0, 1, 33, 300])
def test_encrypt_bits_is_the_per_bit_loop(rng, monkeypatch, entries, count):
    """encrypt_bits gives the per-bit loop's ciphertexts and leaves every rng
    where the loop leaves it, whether each bit has its own rng or all share
    one, with the key and the bits split into blocks or not."""
    p = derive_params(16)
    _, pk = keygen(p, rng.derive("key"))
    bits = [int(b) for b in rng.derive("bits").uniform_array(2, count)]
    monkeypatch.setattr(lwe_mod, "_SUM_ENTRIES", entries)
    want_rngs = [rng.derive(f"bit-{i}") for i in range(count)]
    want = [encrypt_bit_sequential(pk, z, r) for z, r in zip(bits, want_rngs)]
    got_rngs = [rng.derive(f"bit-{i}") for i in range(count)]
    assert _cipher(lwe_mod.encrypt_bits(pk, bits, got_rngs)) == _cipher(want)
    assert [r.position for r in got_rngs] == [r.position for r in want_rngs]
    shared, want_shared = rng.derive("shared"), rng.derive("shared")
    want = [encrypt_bit_sequential(pk, z, want_shared) for z in bits]
    assert _cipher(lwe_mod.encrypt_bits(pk, bits, [shared] * count)) == _cipher(want)
    assert shared.position == want_shared.position


def test_encrypt_bit_is_the_one_bit_case(rng):
    p = derive_params(64)
    _, pk = keygen(p, rng.derive("key"))
    for i, z in enumerate([1, 0]):
        want = encrypt_bit_sequential(pk, z, rng.derive(f"bit-{i}"))
        assert _cipher([encrypt_bit(pk, z, rng.derive(f"bit-{i}"))]) == _cipher([want])


@pytest.mark.parametrize("bad", [2, -1, None, "1"])
@pytest.mark.parametrize("at", [0, 17, 32])
def test_encrypt_bits_refuses_a_non_bit_before_reading_any_rng(rng, bad, at):
    p = derive_params(16)
    _, pk = keygen(p, rng.derive("key"))
    bits = [1, 0] * 16 + [1]
    bits[at] = bad
    rngs = [rng.derive(f"bit-{i}") for i in range(len(bits))]
    with pytest.raises(InvalidParams):
        lwe_mod.encrypt_bits(pk, bits, rngs)
    assert [r.position for r in rngs] == [0] * len(bits)


def test_encrypt_bits_refuses_a_rng_count_that_is_not_the_bit_count(rng):
    p = derive_params(16)
    _, pk = keygen(p, rng.derive("key"))
    with pytest.raises(LengthMismatch):
        lwe_mod.encrypt_bits(pk, [1, 0], [rng])


def test_encrypt_bits_refuses_a_key_too_large_for_exact_sums(rng):
    q = next_prime(1 << 40)
    p = LweParams(n=1 << 20, q=Modulus(q), alpha=0.0, m=(1 << 53) // q)
    pk = LwePublicKey(a=np.zeros((1, 1), dtype=np.int64), b=np.zeros(1, dtype=np.int64), params=p)
    with pytest.raises(InvalidParams, match="2\\^53"):
        lwe_mod.encrypt_bits(pk, [1], [rng])
    assert rng.position == 0
