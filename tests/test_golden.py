"""Golden hashes: the files that fixed seeds produce must never change.

Each test dumps what one scheme builds from fixed seeds and compares the
SHA-256 of the text with the digest the code has always produced.  A
change to the ring arithmetic, the samplers or the text formats that
alters a single coefficient shows up here.
"""

import hashlib

from latticelab import fileio, glyph, plwe
from latticelab.rng import SeededRng


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_plwe_keypair_and_ciphertext_are_golden():
    p = plwe.default_params(256)
    assert int(p.ring.q) == 7681
    kp = plwe.keygen(p, SeededRng(b"\x31" * 32))
    assert _sha256(fileio.dump_plwe_secret(kp, p)) == (
        "688756dd79e5fa697d9421762b223eab3a3891758832fba354f1970e9bdb3bda")
    assert _sha256(fileio.dump_plwe_public(kp, p)) == (
        "add838a5b16f3e340b2d481f566fa99cc5923177afcf17ba9a5eeb147216f1d7")
    rng = SeededRng(b"\x32" * 32)
    bits = [int(b) for b in rng.uniform_array(2, p.n)]
    blocks = [plwe.encrypt((kp.a, kp.b), bits, p, rng) for _ in range(2)]
    assert _sha256(fileio.dump_plwe_ciphertext(blocks, p)) == (
        "6e9e587576e8bb09c70daa17c724c9497fdf51d49d20bae45ad0bff1e3feefcb")
    assert all(plwe.decrypt(kp.s, ct) == bits for ct in blocks)


def test_glyph_keypair_and_signature_are_golden():
    p = glyph.GlyphParams()
    sk, pk = glyph.keygen(p, SeededRng(b"\x41" * 32))
    assert _sha256(fileio.dump_glyph_secret(sk, p)) == (
        "a033cc8fb0b58a0f24657bfa3d3ac4e58faec6a5e93cee3408029281b0fd686a")
    assert _sha256(fileio.dump_glyph_public(pk, p)) == (
        "75b648dc4011f08d16cc84d5f72151cbe80803b15aaf4445cfc9cbf862c95b85")
    sig, iters = glyph.sign(sk, pk, b"golden", p, SeededRng(b"\x45" * 32))
    assert iters == 9
    assert _sha256(fileio.dump_glyph_signature(sig, p)) == (
        "ad03b207ad25eec2a84c088d22f9564014addb83333e44b5daef70e7fd280d29")
    assert glyph.verify(pk, b"golden", sig, p).accepted
