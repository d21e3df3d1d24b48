"""Golden hashes: the files that fixed seeds produce must never change.

Each test dumps what one scheme builds from fixed seeds and compares the
SHA-256 of the text with the digest the code has always produced.  A
change to the ring arithmetic, the samplers or the text formats that
alters a single coefficient shows up here.
"""

import hashlib

from latticelab import bgv, fileio, glyph, lwe, plwe
from latticelab.rng import SeededRng


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_plwe_keypair_and_ciphertext_are_golden():
    p = plwe.default_params(256)
    assert int(p.ring.q) == 7681
    kp = plwe.keygen(p, SeededRng(b"\x31" * 32))
    assert _sha256(fileio.dump_record("plwe-secret", kp.s, p)) == (
        "688756dd79e5fa697d9421762b223eab3a3891758832fba354f1970e9bdb3bda")
    assert _sha256(fileio.dump_record("plwe-public", (kp.a, kp.b), p)) == (
        "add838a5b16f3e340b2d481f566fa99cc5923177afcf17ba9a5eeb147216f1d7")
    rng = SeededRng(b"\x32" * 32)
    bits = [int(b) for b in rng.uniform_array(2, p.n)]
    blocks = [plwe.encrypt((kp.a, kp.b), bits, p, rng) for _ in range(2)]
    assert _sha256(fileio.dump_record("plwe-ciphertext", blocks, p)) == (
        "6e9e587576e8bb09c70daa17c724c9497fdf51d49d20bae45ad0bff1e3feefcb")
    assert all(plwe.decrypt(kp.s, ct) == bits for ct in blocks)


def test_glyph_keypair_and_signature_are_golden():
    p = glyph.GlyphParams()
    sk, pk = glyph.keygen(p, SeededRng(b"\x41" * 32))
    assert _sha256(fileio.dump_record("glyph-secret", sk, p)) == (
        "a033cc8fb0b58a0f24657bfa3d3ac4e58faec6a5e93cee3408029281b0fd686a")
    assert _sha256(fileio.dump_record("glyph-public", pk, p)) == (
        "75b648dc4011f08d16cc84d5f72151cbe80803b15aaf4445cfc9cbf862c95b85")
    sig, iters = glyph.sign(sk, pk, b"golden", p, SeededRng(b"\x45" * 32))
    assert iters == 9
    assert _sha256(fileio.dump_record("glyph-signature", sig, p)) == (
        "ad03b207ad25eec2a84c088d22f9564014addb83333e44b5daef70e7fd280d29")
    assert glyph.verify(pk, b"golden", sig, p).accepted


def test_lwe_secret_public_and_ciphertext_are_golden():
    p = lwe.derive_params(16)
    assert (int(p.q), p.m) == (257, 141)
    sk, pk = lwe.keygen(p, SeededRng(b"\x51" * 32))
    assert _sha256(fileio.dump_record("lwe-secret", sk, p)) == (
        "f0615fc0886d000677e37bc2a68f6d66025af72de895a659538525b6a5a1b3b9")
    assert _sha256(fileio.dump_record("lwe-public", pk)) == (
        "31023f9815fe5ccaf4240c3bca1a3a8f4060a10241074d697312dbd104327357")
    rng = SeededRng(b"\x52" * 32)
    cts = [lwe.encrypt_bit(pk, z, rng) for z in (1, 0, 1)]
    assert _sha256(fileio.dump_record("lwe-ciphertext", cts, p)) == (
        "fa57bc0f2373aeec5af43d2620ae4aea5557973b7ccf7567375f11323c59b0f6")
    assert [lwe.decrypt_bit(sk, ct, p) for ct in cts] == [1, 0, 1]


def test_bgv_params_secret_and_ciphertexts_are_golden():
    p = bgv.setup(m=32, p=2, r=1, levels=3)
    assert p.chain == (131, 17167, 294705899, 86851566905398247)
    sk = bgv.keygen(p, SeededRng(b"\x61" * 32))
    assert _sha256(fileio.dump_record("bgv-params", p)) == (
        "1aec943e3fe02875ac4419daac6fb5327659281ba52edb8b76a869034da28b1b")
    assert _sha256(fileio.dump_record("bgv-secret", sk)) == (
        "38226ec6d3d622fa81605742f9fa6fc821a1729bd222160d06c5c515597a8820")
    rng = SeededRng(b"\x62" * 32)
    a = bgv.encrypt([1, 0, 1], sk, p, rng)
    b = bgv.encrypt([1, 1], sk, p, rng)
    assert _sha256(fileio.dump_record("bgv-ciphertext", a, p)) == (
        "d036e156d16e19a234e893bc0ad13789b80288944be2a0c41112dbcf1f4081fa")
    ab = bgv.he_mul(a, b, p)
    assert (ab.level, len(ab.parts)) == (1, 3)
    assert _sha256(fileio.dump_record("bgv-ciphertext", ab, p)) == (
        "67d9dd86a6f6d329832a2aad1bceb73b5884cc9badd9f58b879d899dd0d77fe7")
    # (1 + x^2)(1 + x) = 1 + x + x^2 + x^3 over F_2
    assert bgv.decrypt(ab, sk, p) == [1, 1, 1, 1] + [0] * 12
