"""Golden hashes: the files that fixed seeds produce must never change.

Each test dumps what one scheme builds from fixed seeds and compares the
SHA-256 of the text with the digest the code has produced since the seeded
byte stream became stream v2 (SHAKE-128 blocks, `latticelab.rng`).  A
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
        "b4770f88b910d16363b3ae91e7fd27df76add235b070380ef375630bc7187740")
    assert _sha256(fileio.dump_record("plwe-public", (kp.a, kp.b), p)) == (
        "d076b6400aa790017b228a7b0b8040b935fca9e2e55a357744c59877e76b5d82")
    rng = SeededRng(b"\x32" * 32)
    bits = [int(b) for b in rng.uniform_array(2, p.n)]
    blocks = [plwe.encrypt((kp.a, kp.b), bits, p, rng) for _ in range(2)]
    assert _sha256(fileio.dump_record("plwe-ciphertext", blocks, p)) == (
        "235d54ac2010056f6f9318b4b8cc6b1318d0cf1c2cfdd42b6e8b40cbb010269f")
    assert all(plwe.decrypt(kp.s, ct) == bits for ct in blocks)


def test_glyph_keypair_and_signature_are_golden():
    p = glyph.GlyphParams()
    sk, pk = glyph.keygen(p, SeededRng(b"\x41" * 32))
    assert _sha256(fileio.dump_record("glyph-secret", sk, p)) == (
        "6889bb613f74210cf526e3e9cbe2027a368b6611c4d2731438b1785b6c9a546b")
    assert _sha256(fileio.dump_record("glyph-public", pk, p)) == (
        "88feba3cccfb8e528b8a05df8d84a7ddbf2e060b74b93dbc2fb9bbc4a5cc7f9a")
    sig, iters = glyph.sign(sk, pk, b"golden", p, SeededRng(b"\x45" * 32))
    assert iters == 8
    assert _sha256(fileio.dump_record("glyph-signature", sig, p)) == (
        "c075c36688469303bbb4ccb87baa0c9cc168a0cbed1365af8befe20864d3f683")
    assert glyph.verify(pk, b"golden", sig, p).accepted


def test_lwe_secret_public_and_ciphertext_are_golden():
    p = lwe.derive_params(16)
    assert (int(p.q), p.m) == (257, 141)
    sk, pk = lwe.keygen(p, SeededRng(b"\x51" * 32))
    assert _sha256(fileio.dump_record("lwe-secret", sk, p)) == (
        "c64055b9d4804dc6d52778cccaffd1a685c6d9763d78352713cb1e7e3305bb50")
    assert _sha256(fileio.dump_record("lwe-public", pk)) == (
        "05f7c1f827f9c3b5f7c015790c3de4033cc361e2fc101fbacc51b1b6cd99b7cf")
    rng = SeededRng(b"\x52" * 32)
    cts = [lwe.encrypt_bit(pk, z, rng) for z in (1, 0, 1)]
    assert _sha256(fileio.dump_record("lwe-ciphertext", cts, p)) == (
        "eb42cb67e7c88f0015e839352544e092497f8be3d75ce1184d69c44122247744")
    assert [lwe.decrypt_bit(sk, ct, p) for ct in cts] == [1, 0, 1]


def test_bgv_params_secret_and_ciphertexts_are_golden():
    p = bgv.setup(m=32, p=2, r=1, levels=3)
    assert p.chain == (131, 17167, 294705899, 86851566905398247)
    sk = bgv.keygen(p, SeededRng(b"\x61" * 32))
    assert _sha256(fileio.dump_record("bgv-params", p)) == (
        "1aec943e3fe02875ac4419daac6fb5327659281ba52edb8b76a869034da28b1b")
    assert _sha256(fileio.dump_record("bgv-secret", sk)) == (
        "5c93b0d1872d9baa789d97e8e975f06512d787cc2b5b34625ea90272ccbac163")
    rng = SeededRng(b"\x62" * 32)
    a = bgv.encrypt([1, 0, 1], sk, p, rng)
    b = bgv.encrypt([1, 1], sk, p, rng)
    assert _sha256(fileio.dump_record("bgv-ciphertext", a, p)) == (
        "767b8f7976031ae75b7993b4f0238ded953da0184e483b8bdae7296dd75c1c60")
    ab = bgv.he_mul(a, b, p)
    assert (ab.level, len(ab.parts)) == (1, 3)
    assert _sha256(fileio.dump_record("bgv-ciphertext", ab, p)) == (
        "b0f3edc6a11e566ee0a4f0937df3f930f08949cd0ffee7e8028eafaf4ddea937")
    # (1 + x^2)(1 + x) = 1 + x + x^2 + x^3 over F_2
    assert bgv.decrypt(ab, sk, p) == [1, 1, 1, 1] + [0] * 12
