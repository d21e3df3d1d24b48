import hashlib

import pytest

from latticelab.errors import InvalidParams, RejectionOverflow
from latticelab.fileio import dump_glyph_signature
from latticelab.glyph import (
    GlyphParams,
    GlyphSecretKey,
    GlyphSignature,
    encode_poly,
    hash_to_sparse,
    keygen,
    sign,
    verify,
)
from latticelab.polyring import RingElement, ring_add, ring_mul, ring_sub, ring_zero
from latticelab.rng import SeededRng
from latticelab.zq import Modulus

TOY = GlyphParams(n=16, q=Modulus(257), b=63, k=4)


def test_fixed_seed_signature_is_golden():
    """A signature that took 13 rejection iterations hashes to the bytes
    the sign loop has always produced for these seeds."""
    p = GlyphParams()
    sk, pk = keygen(p, SeededRng(b"\x11" * 32))
    sig, iters = sign(sk, pk, b"golden message", p, SeededRng(b"\x23" * 32))
    assert iters == 13
    digest = hashlib.sha256(dump_glyph_signature(sig, p).encode()).hexdigest()
    assert digest == "e6e4d86f0694c01101f0170629ba04063c93d10380da22d51e11702eea4d981f"


def test_default_params_are_the_standard_set():
    p = GlyphParams()
    assert (p.n, int(p.q), p.b, p.k) == (1024, 59393, 16383, 16)
    assert p.beta == 16367
    assert p.coeff_width == 2


def test_param_validation():
    with pytest.raises(InvalidParams):
        GlyphParams(q=Modulus(59399))  # 59399 % 4 == 3
    with pytest.raises(InvalidParams):
        GlyphParams(n=1000)
    with pytest.raises(InvalidParams):
        GlyphParams(n=1 << 17)  # a position is 2 digest bytes
    with pytest.raises(InvalidParams):
        GlyphParams(b=4, k=9)


def test_keygen_ternary_and_consistent(rng):
    sk, pk = keygen(TOY, rng)
    assert sk.s.inf_norm() <= 1 and sk.e.inf_norm() <= 1
    assert ring_sub(pk.t, ring_mul(pk.a, sk.s)).coeffs == sk.e.coeffs


def test_keygen_reproducible():
    a = keygen(TOY, SeededRng(b"\x51" * 32))
    b = keygen(TOY, SeededRng(b"\x51" * 32))
    assert a[0].s.coeffs == b[0].s.coeffs
    assert a[1].t.coeffs == b[1].t.coeffs


def test_hash_to_sparse_weight_and_signs():
    c = hash_to_sparse(b"some message", TOY)
    q = int(TOY.q)
    nz = [v for v in c.coeffs if v != 0]
    assert len(nz) == TOY.k
    assert all(v in (1, q - 1) for v in nz)


def test_hash_to_sparse_weight_at_full_params():
    p = GlyphParams()
    c = hash_to_sparse(b"x", p)
    assert sum(v != 0 for v in c.coeffs) == 16


def test_hash_to_sparse_deterministic_and_collision_free(rng):
    assert hash_to_sparse(b"abc", TOY).coeffs == hash_to_sparse(b"abc", TOY).coeffs
    # at the full parameter set the challenge space is ~2^117; 1000 random
    # inputs must land on 1000 distinct challenges (toy n=16/k=4 would
    # collide by birthday counting, which is expected, not a defect)
    p = GlyphParams()
    seen = set()
    for i in range(1000):
        seen.add(hash_to_sparse(rng.take_bytes(24), p).coeffs)
    assert len(seen) == 1000


def test_encode_poly_fixed_width():
    e = RingElement(tuple(range(16)), TOY.ring)
    blob = encode_poly(e, TOY)
    assert len(blob) == 16 * TOY.coeff_width
    assert blob[:4] == b"\x00\x00\x01\x00"


def test_sign_verify_roundtrip(rng):
    sk, pk = keygen(TOY, rng)
    sig, iters = sign(sk, pk, b"hello", TOY, rng)
    assert iters >= 1
    assert sig.z1.inf_norm() <= TOY.beta and sig.z2.inf_norm() <= TOY.beta
    assert verify(pk, b"hello", sig, TOY).accepted


def test_verify_rejects_tamper(rng):
    sk, pk = keygen(TOY, rng)
    sig, _ = sign(sk, pk, b"hello", TOY, rng)
    res = verify(pk, b"hellp", sig, TOY)
    assert not res.accepted and res.reason == "challenge mismatch"


def test_verify_rejects_norm_inflation(rng):
    sk, pk = keygen(TOY, rng)
    sig, _ = sign(sk, pk, b"msg", TOY, rng)
    q = int(TOY.q)
    bad = list(sig.z1.coeffs)
    bad[0] = (TOY.beta + 5) % q
    inflated = GlyphSignature(
        c=sig.c, z1=RingElement(tuple(bad), TOY.ring), z2=sig.z2
    )
    res = verify(pk, b"msg", inflated, TOY)
    assert not res.accepted and res.reason == "norm"


def test_zero_key_degenerate(rng):
    # s = e = 0: z1 = y1, z2 = y2; accepted as soon as both norms fit
    zero = ring_zero(TOY.ring)
    sk = GlyphSecretKey(s=zero, e=zero)
    _, pk_real = keygen(TOY, rng)
    from latticelab.glyph import GlyphPublicKey

    pk = GlyphPublicKey(a=pk_real.a, t=ring_mul(pk_real.a, zero))
    sig, iters = sign(sk, pk, b"m", TOY, rng)
    assert verify(pk, b"m", sig, TOY).accepted


def test_verification_identity_symbolic(rng):
    # a*z1 + z2 - t*c == a*y1 + y2 for honestly built signatures
    from latticelab.glyph import _bounded_uniform

    for _ in range(1000):
        sk, pk = keygen(TOY, rng)
        y1 = _bounded_uniform(TOY, TOY.b, rng)
        y2 = _bounded_uniform(TOY, TOY.b, rng)
        w = ring_add(ring_mul(pk.a, y1), y2)
        c = hash_to_sparse(encode_poly(w, TOY) + b"m", TOY)
        z1 = ring_add(ring_mul(sk.s, c), y1)
        z2 = ring_add(ring_mul(sk.e, c), y2)
        w_prime = ring_sub(
            ring_add(ring_mul(pk.a, z1), z2), ring_mul(pk.t, c)
        )
        assert w_prime.coeffs == w.coeffs


def test_rejection_overflow_on_broken_params(rng):
    # b = k makes beta = 0; the loop cannot realistically succeed
    cramped = GlyphParams(n=16, q=Modulus(257), b=4, k=4)
    sk, pk = keygen(cramped, rng)
    with pytest.raises(RejectionOverflow):
        sign(sk, pk, b"m", cramped, rng)
