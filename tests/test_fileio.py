import numpy as np
import pytest

from latticelab import bgv, fileio, glyph, lwe, plwe
from latticelab.errors import FormatError
from latticelab.rng import SeededRng
from latticelab.zq import Modulus


@pytest.fixture
def lwe_setup(rng):
    p = lwe.derive_params(16)
    sk, pk = lwe.keygen(p, rng)
    return p, sk, pk


def test_lwe_secret_roundtrip(lwe_setup):
    p, sk, _ = lwe_setup
    text = fileio.dump_lwe_secret(sk, p)
    sk2, p2 = fileio.load_lwe_secret(text)
    assert np.array_equal(sk.s, sk2.s)
    assert p2 == p


def test_lwe_public_roundtrip(lwe_setup):
    _, _, pk = lwe_setup
    pk2 = fileio.load_lwe_public(fileio.dump_lwe_public(pk))
    assert np.array_equal(pk.a, pk2.a) and np.array_equal(pk.b, pk2.b)


def test_lwe_ciphertext_roundtrip(lwe_setup, rng):
    p, _, pk = lwe_setup
    cts = [lwe.encrypt_bit(pk, i & 1, rng) for i in range(5)]
    loaded, p2 = fileio.load_lwe_ciphertext(fileio.dump_lwe_ciphertext(cts, p))
    assert len(loaded) == 5
    for a, b in zip(cts, loaded):
        assert np.array_equal(a.u, b.u) and a.v == b.v


def test_lwe_wrong_type_rejected(lwe_setup):
    p, sk, pk = lwe_setup
    with pytest.raises(FormatError):
        fileio.load_lwe_public(fileio.dump_lwe_secret(sk, p))
    with pytest.raises(FormatError):
        fileio.load_lwe_secret("latticelab-plwe-v1\nn=4\n")


def test_lwe_shape_mismatch_detected(lwe_setup):
    _, _, pk = lwe_setup
    text = fileio.dump_lwe_public(pk)
    truncated = "\n".join(text.splitlines()[:-3]) + "\n"
    with pytest.raises(FormatError):
        fileio.load_lwe_public(truncated)


@pytest.fixture
def plwe_setup(rng):
    p = plwe.default_params(16, sigma=1.5, floor=256)
    kp = plwe.keygen(p, rng)
    return p, kp


def test_plwe_params_roundtrip(plwe_setup):
    p, _ = plwe_setup
    p2 = fileio.load_plwe_params(fileio.dump_plwe_params(p))
    assert p2.ring == p.ring and p2.sigma == p.sigma


def test_plwe_keys_roundtrip(plwe_setup):
    p, kp = plwe_setup
    s, _ = fileio.load_plwe_secret(fileio.dump_plwe_secret(kp, p))
    (a, b), _ = fileio.load_plwe_public(fileio.dump_plwe_public(kp, p))
    assert s.coeffs == kp.s.coeffs
    assert a.coeffs == kp.a.coeffs and b.coeffs == kp.b.coeffs


def test_plwe_ciphertext_roundtrip(plwe_setup, rng):
    p, kp = plwe_setup
    blocks = [
        plwe.encrypt((kp.a, kp.b), [int(v) for v in rng.uniform_array(2, 16)], p, rng)
        for _ in range(3)
    ]
    loaded, _ = fileio.load_plwe_ciphertext(fileio.dump_plwe_ciphertext(blocks, p))
    for x, y in zip(blocks, loaded):
        assert x.u.coeffs == y.u.coeffs and x.v.coeffs == y.v.coeffs


def test_plwe_samples_roundtrip(plwe_setup, rng):
    p, kp = plwe_setup
    samples = [plwe.oracle_sample(p, kp.s, rng) for _ in range(4)]
    loaded, _ = fileio.load_plwe_samples(fileio.dump_plwe_samples(samples, p))
    assert len(loaded) == 4
    for x, y in zip(samples, loaded):
        assert x.a.coeffs == y.a.coeffs and x.b.coeffs == y.b.coeffs


def test_plwe_header_field_checks():
    with pytest.raises(FormatError):
        fileio.load_plwe_params("latticelab-plwe-v1\nn=4\nq=17\n")  # missing f, sigma
    with pytest.raises(FormatError):
        fileio.load_plwe_params(
            "latticelab-plwe-v1\nn=5\nq=17\nf=1,0,0,0,1\nsigma=1.0\n"
        )  # n inconsistent with deg f


TOY_GLYPH = glyph.GlyphParams(n=16, q=Modulus(257), b=63, k=4)


def test_glyph_keys_roundtrip(rng):
    sk, pk = glyph.keygen(TOY_GLYPH, rng)
    sk2, _ = fileio.load_glyph_secret(fileio.dump_glyph_secret(sk, TOY_GLYPH))
    pk2, _ = fileio.load_glyph_public(fileio.dump_glyph_public(pk, TOY_GLYPH))
    assert sk2.s.coeffs == sk.s.coeffs and sk2.e.coeffs == sk.e.coeffs
    assert pk2.a.coeffs == pk.a.coeffs and pk2.t.coeffs == pk.t.coeffs


def test_glyph_signature_roundtrip(rng):
    sk, pk = glyph.keygen(TOY_GLYPH, rng)
    sig, _ = glyph.sign(sk, pk, b"payload", TOY_GLYPH, rng)
    text = fileio.dump_glyph_signature(sig, TOY_GLYPH)
    sig2, _ = fileio.load_glyph_signature(text)
    assert sig2.c.coeffs == sig.c.coeffs
    assert sig2.z1.coeffs == sig.z1.coeffs and sig2.z2.coeffs == sig.z2.coeffs
    assert glyph.verify(pk, b"payload", sig2, TOY_GLYPH).accepted


def test_glyph_bad_sparse_entry():
    head = "latticelab-glyph-v1\nn=16\nq=257\nb=63\nk=4\n"
    body = "c=3:x\nz1=" + ",".join(["0"] * 16) + "\nz2=" + ",".join(["0"] * 16) + "\n"
    with pytest.raises(FormatError):
        fileio.load_glyph_signature(head + body)


def test_bgv_params_roundtrip():
    params = bgv.setup(m=32, p=2, r=1, levels=2)
    p2 = fileio.load_bgv_params(fileio.dump_bgv_params(params))
    assert p2.chain == params.chain and p2.m == 32


def test_bgv_secret_and_ciphertext_roundtrip(rng):
    params = bgv.setup(m=32, p=2, r=1, levels=2)
    sk = bgv.keygen(params, rng)
    sk2 = fileio.load_bgv_secret(fileio.dump_bgv_secret(sk))
    assert sk2.coeffs == sk.coeffs
    ct = bgv.encrypt([1, 0, 1], sk, params, rng)
    ct2 = fileio.load_bgv_ciphertext(fileio.dump_bgv_ciphertext(ct, params))
    assert ct2.parts == ct.parts and ct2.level == ct.level
    assert bgv.decrypt(ct2, sk, params) == bgv.decrypt(ct, sk, params)


def test_bgv_part_count_mismatch():
    params = bgv.setup(m=32, p=2, r=1, levels=2)
    sk = bgv.keygen(params, SeededRng(b"\x71" * 32))
    ct = bgv.encrypt([1], sk, params, SeededRng(b"\x72" * 32))
    text = fileio.dump_bgv_ciphertext(ct, params)
    mangled = text.replace("parts=2", "parts=3")
    with pytest.raises(FormatError):
        fileio.load_bgv_ciphertext(mangled)


def test_header_enforced():
    with pytest.raises(FormatError):
        fileio.load_bgv_params("wrong-header\nm=32\n")
    with pytest.raises(FormatError):
        fileio.load_lwe_secret("")


def _toy_signature_text():
    sk, pk = glyph.keygen(TOY_GLYPH, SeededRng(b"\x31" * 32))
    sig, _ = glyph.sign(sk, pk, b"payload", TOY_GLYPH, SeededRng(b"\x32" * 32))
    text = fileio.dump_glyph_signature(sig, TOY_GLYPH)
    (c_line,) = [ln for ln in text.splitlines() if ln.startswith("c=")]
    return text, c_line, c_line[2:].split(",")


def _entry(idx, sgn):
    return f"{idx}:{sgn}"


def _with_extra(entries):
    """entries plus one more, at the lowest free index, in index order."""
    used = {int(e.split(":")[0]) for e in entries}
    free = min(set(range(TOY_GLYPH.n)) - used)
    return sorted(entries + [_entry(free, "+1")], key=lambda e: int(e.split(":")[0]))


# Challenge rewrites that must all be refused (TOY_GLYPH: n=16, k=4).
CHALLENGE_MUTATIONS = {
    "negative index": lambda es: [_entry(int(es[0].split(":")[0]) - 16, "+1")] + es[1:],
    "index n": lambda es: es[:-1] + [_entry(16, "+1")],
    "sign 1": lambda es: [es[0].split(":")[0] + ":1"] + es[1:],
    "sign 5": lambda es: [es[0].split(":")[0] + ":5"] + es[1:],
    "sign +2": lambda es: [es[0].split(":")[0] + ":+2"] + es[1:],
    "duplicate index": lambda es: [es[0], es[0].split(":")[0] + ":-1"] + es[2:],
    "out of order": lambda es: [es[1], es[0]] + es[2:],
    "padded index": lambda es: ["0" + es[0]] + es[1:],
    "too few": lambda es: es[:-1],
    "too many": _with_extra,
    "empty entry": lambda es: es[:2] + [""] + es[2:-1],
}


@pytest.mark.parametrize("case", list(CHALLENGE_MUTATIONS))
def test_glyph_signature_mutations_rejected(case):
    text, c_line, entries = _toy_signature_text()
    mutated = text.replace(c_line, "c=" + ",".join(CHALLENGE_MUTATIONS[case](entries)))
    assert mutated != text
    with pytest.raises(FormatError):
        fileio.load_glyph_signature(mutated)


def test_glyph_signature_requires_challenge():
    text, c_line, _ = _toy_signature_text()
    with pytest.raises(FormatError):
        fileio.load_glyph_signature(text.replace(c_line + "\n", ""))


def test_glyph_negative_index_rewrite_rejected_at_full_size():
    # i:s and (i - n):s pick the same coefficient under Python indexing;
    # only the first is the signature's encoding.
    p = glyph.GlyphParams()
    sk, pk = glyph.keygen(p, SeededRng(b"\x41" * 32))
    sig, _ = glyph.sign(sk, pk, b"payload", p, SeededRng(b"\x42" * 32))
    text = fileio.dump_glyph_signature(sig, p)
    first = text.split("c=")[1].split(",")[0]
    idx, sgn = first.split(":")
    mutated = text.replace("c=" + first, f"c={int(idx) - p.n}:{sgn}")
    assert fileio.load_glyph_signature(text)[0].c.coeffs == sig.c.coeffs
    with pytest.raises(FormatError):
        fileio.load_glyph_signature(mutated)


@pytest.mark.parametrize("noise", [None, "-1.0", "nan", "inf", "-inf", "1e400", "x"])
def test_bgv_ciphertext_noise_field_checked(noise):
    params = bgv.setup(m=32, p=2, r=1, levels=2)
    sk = bgv.keygen(params, SeededRng(b"\x71" * 32))
    ct = bgv.encrypt([1], sk, params, SeededRng(b"\x72" * 32))
    text = fileio.dump_bgv_ciphertext(ct, params)
    (line,) = [ln for ln in text.splitlines() if ln.startswith("noise=")]
    mangled = text.replace(line + "\n", "" if noise is None else f"noise={noise}\n")
    with pytest.raises(FormatError):
        fileio.load_bgv_ciphertext(mangled)


def _replace_first_coeff(text, name, delta):
    """text with the first coefficient of line `name=` shifted by delta."""
    (line,) = [ln for ln in text.splitlines() if ln.startswith(name + "=")]
    first, _, rest = line[len(name) + 1:].partition(",")
    return text.replace(line, f"{name}={int(first) + delta},{rest}")


@pytest.mark.parametrize("delta", [257, -257])
def test_glyph_signature_coefficient_outside_range_rejected(delta):
    # z1[0] + q (or - q) is the same residue, so verify would accept it;
    # only the residue in [0, q) is the signature's encoding.
    text, _, _ = _toy_signature_text()
    sig, _ = fileio.load_glyph_signature(text)
    if delta < 0 and sig.z1.coeffs[0] == 0:
        delta = -1  # -1 alone already lies outside [0, q)
    mutated = _replace_first_coeff(text, "z1", delta)
    assert mutated != text
    with pytest.raises(FormatError):
        fileio.load_glyph_signature(mutated)


def test_plwe_vectors_outside_range_rejected(plwe_setup, rng):
    p, kp = plwe_setup
    q = int(p.ring.q)
    ct = plwe.encrypt((kp.a, kp.b), [1, 0] * 8, p, rng)
    sample = plwe.oracle_sample(p, kp.s, rng)
    cases = [
        (fileio.dump_plwe_secret(kp, p), "s", fileio.load_plwe_secret),
        (fileio.dump_plwe_public(kp, p), "b", fileio.load_plwe_public),
        (fileio.dump_plwe_ciphertext([ct], p), "u", fileio.load_plwe_ciphertext),
        (fileio.dump_plwe_ciphertext([ct], p), "v", fileio.load_plwe_ciphertext),
        (fileio.dump_plwe_samples([sample], p), "a", fileio.load_plwe_samples),
        (fileio.dump_plwe_samples([sample], p), "b", fileio.load_plwe_samples),
    ]
    for text, name, load in cases:
        load(text)
        with pytest.raises(FormatError):
            load(_replace_first_coeff(text, name, q))


def test_bgv_ciphertext_negative_level_rejected():
    params = bgv.setup(m=32, p=2, r=1, levels=2)
    sk = bgv.keygen(params, SeededRng(b"\x71" * 32))
    ct = bgv.encrypt([1], sk, params, SeededRng(b"\x72" * 32))
    text = fileio.dump_bgv_ciphertext(ct, params)
    for level in ["-1", "x", ""]:
        with pytest.raises(FormatError):
            fileio.load_bgv_ciphertext(text.replace("level=0", f"level={level}"))
