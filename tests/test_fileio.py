import functools
import inspect
import os
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelab import bgv, cli, fileio, glyph, lwe, plwe
from latticelab.errors import FormatError, InvalidParams
from latticelab.polyring import RingElement, RingParams
from latticelab.rng import SeededRng
from latticelab.zq import Modulus, next_prime
import fileio_lines


@pytest.fixture
def lwe_setup(rng):
    p = lwe.derive_params(16)
    sk, pk = lwe.keygen(p, rng)
    return p, sk, pk


def test_lwe_secret_roundtrip(lwe_setup):
    p, sk, _ = lwe_setup
    text = fileio.dump_record("lwe-secret", sk, p)
    sk2, p2 = fileio.load_record(text, "lwe-secret")
    assert np.array_equal(sk.s, sk2.s)
    assert p2 == p


def test_lwe_public_roundtrip(lwe_setup):
    _, _, pk = lwe_setup
    pk2 = fileio.load_record(fileio.dump_record("lwe-public", pk), "lwe-public")
    assert np.array_equal(pk.a, pk2.a) and np.array_equal(pk.b, pk2.b)


def test_lwe_ciphertext_roundtrip(lwe_setup, rng):
    p, _, pk = lwe_setup
    cts = [lwe.encrypt_bit(pk, i & 1, rng) for i in range(5)]
    loaded, p2 = fileio.load_record(fileio.dump_record("lwe-ciphertext", cts, p),
                                    "lwe-ciphertext")
    assert len(loaded) == 5
    for a, b in zip(cts, loaded):
        assert np.array_equal(a.u, b.u) and a.v == b.v


def test_lwe_wrong_type_rejected(lwe_setup):
    p, sk, pk = lwe_setup
    with pytest.raises(FormatError):
        fileio.load_record(fileio.dump_record("lwe-secret", sk, p), "lwe-public")
    with pytest.raises(FormatError):
        fileio.load_record("latticelab-plwe-v1\nn=4\n", "lwe-secret")


def test_lwe_shape_mismatch_detected(lwe_setup):
    _, _, pk = lwe_setup
    text = fileio.dump_record("lwe-public", pk)
    truncated = "\n".join(text.splitlines()[:-3]) + "\n"
    with pytest.raises(FormatError):
        fileio.load_record(truncated, "lwe-public")


@pytest.fixture
def plwe_setup(rng):
    p = plwe.default_params(16, sigma=1.5, floor=256)
    kp = plwe.keygen(p, rng)
    return p, kp


def test_plwe_params_roundtrip(plwe_setup):
    p, _ = plwe_setup
    p2 = fileio.load_record(fileio.dump_record("plwe-params", p), "plwe-params")
    assert p2.ring == p.ring and p2.sigma == p.sigma


def test_plwe_keys_roundtrip(plwe_setup):
    p, kp = plwe_setup
    s, _ = fileio.load_record(fileio.dump_record("plwe-secret", kp.s, p), "plwe-secret")
    (a, b), _ = fileio.load_record(fileio.dump_record("plwe-public", (kp.a, kp.b), p),
                                   "plwe-public")
    assert s.coeffs == kp.s.coeffs
    assert a.coeffs == kp.a.coeffs and b.coeffs == kp.b.coeffs


def test_plwe_ciphertext_roundtrip(plwe_setup, rng):
    p, kp = plwe_setup
    blocks = [
        plwe.encrypt((kp.a, kp.b), [int(v) for v in rng.uniform_array(2, 16)], p, rng)
        for _ in range(3)
    ]
    loaded, _ = fileio.load_record(fileio.dump_record("plwe-ciphertext", blocks, p),
                                   "plwe-ciphertext")
    for x, y in zip(blocks, loaded):
        assert x.u.coeffs == y.u.coeffs and x.v.coeffs == y.v.coeffs


def test_plwe_samples_roundtrip(plwe_setup, rng):
    p, kp = plwe_setup
    samples = [plwe.oracle_sample(p, kp.s, rng) for _ in range(4)]
    loaded, _ = fileio.load_record(fileio.dump_record("plwe-samples", samples, p), "plwe-samples")
    assert len(loaded) == 4
    for x, y in zip(samples, loaded):
        assert x.a.coeffs == y.a.coeffs and x.b.coeffs == y.b.coeffs


@pytest.mark.parametrize("f", [(-2, 1, 0, 0, 1),  # x^4 + x - 2: 255, 1, 0, 0, 1 mod 257
                               (-259, 258, 257, -514, 1),  # the same f mod 257
                               (2**62, -(2**62), 0, 0, 1)])  # shifts far past q
def test_plwe_records_with_f_spelled_outside_zq_round_trip(f, rng):
    # f's low coefficients lie outside [0, q), shifted by multiples of q; the
    # ring keeps them mod q, so every record writes an f its loader accepts
    p = plwe.PlweParams(RingParams(f, Modulus(257)), sigma=1.5)
    assert all(0 <= c < 257 for c in p.ring.f)
    kp = plwe.keygen(p, rng)
    ct = plwe.encrypt((kp.a, kp.b), [1, 0, 1, 1], p, rng)
    sample = plwe.oracle_sample(p, kp.s, rng)
    for name, obj in [("plwe-params", (p,)), ("plwe-secret", (kp.s, p)),
                      ("plwe-public", ((kp.a, kp.b), p)), ("plwe-ciphertext", ([ct], p)),
                      ("plwe-samples", ([sample], p))]:
        loaded = fileio.load_record(fileio.dump_record(name, *obj), name)
        assert loaded == (obj if len(obj) > 1 else obj[0])


def test_plwe_header_field_checks():
    with pytest.raises(FormatError):
        fileio.load_record("latticelab-plwe-v1\nn=4\nq=17\n", "plwe-params")  # missing f, sigma
    with pytest.raises(FormatError):
        fileio.load_record(
            "latticelab-plwe-v1\nn=5\nq=17\nf=1,0,0,0,1\nsigma=1.0\n", "plwe-params"
        )  # n inconsistent with deg f


TOY_GLYPH = glyph.GlyphParams(n=16, q=Modulus(257), b=63, k=4)


def test_glyph_keys_roundtrip(rng):
    sk, pk = glyph.keygen(TOY_GLYPH, rng)
    sk2, _ = fileio.load_record(fileio.dump_record("glyph-secret", sk, TOY_GLYPH), "glyph-secret")
    pk2, _ = fileio.load_record(fileio.dump_record("glyph-public", pk, TOY_GLYPH), "glyph-public")
    assert sk2.s.coeffs == sk.s.coeffs and sk2.e.coeffs == sk.e.coeffs
    assert pk2.a.coeffs == pk.a.coeffs and pk2.t.coeffs == pk.t.coeffs


def test_glyph_signature_roundtrip(rng):
    sk, pk = glyph.keygen(TOY_GLYPH, rng)
    sig, _ = glyph.sign(sk, pk, b"payload", TOY_GLYPH, rng)
    text = fileio.dump_record("glyph-signature", sig, TOY_GLYPH)
    sig2, _ = fileio.load_record(text, "glyph-signature")
    assert sig2.c.coeffs == sig.c.coeffs
    assert sig2.z1.coeffs == sig.z1.coeffs and sig2.z2.coeffs == sig.z2.coeffs
    assert glyph.verify(pk, b"payload", sig2, TOY_GLYPH).accepted


@pytest.mark.parametrize("change", ["a 2", "k + 1 entries"])
def test_glyph_signature_dump_refuses_a_non_challenge(rng, change):
    # a c holding 2 would save as -1 and reload as q - 1; one with k + 1
    # entries would make a file its own loader refuses
    sk, pk = glyph.keygen(TOY_GLYPH, rng)
    sig, _ = glyph.sign(sk, pk, b"payload", TOY_GLYPH, rng)
    c = np.array(sig.c.vec)
    if change == "a 2":
        c[np.flatnonzero(c)[0]] = 2
    else:
        c[np.flatnonzero(c == 0)[0]] = 1
    bad = glyph.GlyphSignature(RingElement(c, TOY_GLYPH.ring), sig.z1, sig.z2)
    with pytest.raises(InvalidParams, match=f"k={TOY_GLYPH.k}"):
        fileio.dump_record("glyph-signature", bad, TOY_GLYPH)


@pytest.mark.parametrize("key", ["s", "e"])
@pytest.mark.parametrize("value", [2, 128, 255])
def test_glyph_secret_must_be_ternary(key, value):
    """s and e hold only the residues 0, 1 and q - 1 = 256 of -1, 0 and 1."""
    sk, _ = glyph.keygen(TOY_GLYPH, SeededRng(b"\x33" * 32))
    text = fileio.dump_record("glyph-secret", sk, TOY_GLYPH)
    assert fileio.load_record(text, "glyph-secret")[0] == sk
    entries = _field(text, key).split(",")
    entries[5] = str(value)
    with pytest.raises(FormatError, match="0, 1 or q - 1"):
        fileio.load_record(_with_fields(text, **{key: ",".join(entries)}), "glyph-secret")


def test_glyph_bad_sparse_entry():
    head = "latticelab-glyph-v1\nn=16\nq=257\nb=63\nk=4\n"
    body = "c=3:x\nz1=" + ",".join(["0"] * 16) + "\nz2=" + ",".join(["0"] * 16) + "\n"
    with pytest.raises(FormatError):
        fileio.load_record(head + body, "glyph-signature")


def test_bgv_params_roundtrip():
    params = bgv.setup(m=32, p=2, r=1, levels=2)
    p2 = fileio.load_record(fileio.dump_record("bgv-params", params), "bgv-params")
    assert p2.chain == params.chain and p2.m == 32


# a prime just above the cap, 2^63 and the largest 19-digit entry; the last
# two parse as int64 2^63 - 1 and must still be refused
@pytest.mark.parametrize("top", [4611686018427388039, 2**63, 10**19 - 1])
def test_bgv_chain_above_cap_gives_the_api_reason(top):
    chain = (131, top)
    with pytest.raises(InvalidParams, match=r"chain modulus exceeds 2\^62"):
        bgv.BgvParams(m=32, p=2, r=1, chain=chain)
    text = fileio.dump_record("bgv-params", bgv.setup(m=32, p=2, r=1, levels=1))
    old = next(line for line in text.splitlines() if line.startswith("chain="))
    with pytest.raises(FormatError, match=r"^chain modulus exceeds 2\^62$"):
        fileio.load_record(text.replace(old, f"chain=131,{top}"), "bgv-params")


def test_bgv_chain_cap_admits_2_to_the_62():
    """q_L = 2^62 loads, through the API and a params file; the next
    modulus = q_0 (mod p^r = 3), 2^62 + 3, is refused by the cap alone."""
    params = bgv.BgvParams(m=9, p=3, r=1, chain=(7, 1 << 62))
    text = fileio.dump_record("bgv-params", params)
    assert fileio.load_record(text, "bgv-params") == params
    with pytest.raises(InvalidParams, match=r"chain modulus exceeds 2\^62"):
        bgv.BgvParams(m=9, p=3, r=1, chain=(7, (1 << 62) + 3))
    over = text.replace(f"chain=7,{1 << 62}\n", f"chain=7,{(1 << 62) + 3}\n")
    assert over != text
    with pytest.raises(FormatError, match=r"^chain modulus exceeds 2\^62$"):
        fileio.load_record(over, "bgv-params")


def test_bgv_secret_and_ciphertext_roundtrip(rng):
    params = bgv.setup(m=32, p=2, r=1, levels=2)
    sk = bgv.keygen(params, rng)
    sk2 = fileio.load_record(fileio.dump_record("bgv-secret", sk), "bgv-secret")
    assert sk2.coeffs == sk.coeffs
    ct = bgv.encrypt([1, 0, 1], sk, params, rng)
    ct2 = fileio.load_record(fileio.dump_record("bgv-ciphertext", ct, params), "bgv-ciphertext",
                             params=params)
    assert ct2.parts == ct.parts and ct2.level == ct.level
    assert bgv.decrypt(ct2, sk, params) == bgv.decrypt(ct, sk, params)


def test_bgv_part_count_mismatch():
    params = bgv.setup(m=32, p=2, r=1, levels=2)
    sk = bgv.keygen(params, SeededRng(b"\x71" * 32))
    ct = bgv.encrypt([1], sk, params, SeededRng(b"\x72" * 32))
    text = fileio.dump_record("bgv-ciphertext", ct, params)
    mangled = text.replace("parts=2", "parts=3")
    with pytest.raises(FormatError):
        fileio.load_record(mangled, "bgv-ciphertext", params=params)


def test_header_enforced():
    with pytest.raises(FormatError):
        fileio.load_record("wrong-header\nm=32\n", "bgv-params")
    with pytest.raises(FormatError):
        fileio.load_record("", "lwe-secret")


def _toy_signature_text():
    sk, pk = glyph.keygen(TOY_GLYPH, SeededRng(b"\x31" * 32))
    sig, _ = glyph.sign(sk, pk, b"payload", TOY_GLYPH, SeededRng(b"\x32" * 32))
    text = fileio.dump_record("glyph-signature", sig, TOY_GLYPH)
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
        fileio.load_record(mutated, "glyph-signature")


def test_glyph_signature_requires_challenge():
    text, c_line, _ = _toy_signature_text()
    with pytest.raises(FormatError):
        fileio.load_record(text.replace(c_line + "\n", ""), "glyph-signature")


def test_glyph_negative_index_rewrite_rejected_at_full_size():
    # i:s and (i - n):s pick the same coefficient under Python indexing;
    # only the first is the signature's encoding.
    p = glyph.GlyphParams()
    sk, pk = glyph.keygen(p, SeededRng(b"\x41" * 32))
    sig, _ = glyph.sign(sk, pk, b"payload", p, SeededRng(b"\x42" * 32))
    text = fileio.dump_record("glyph-signature", sig, p)
    first = text.split("c=")[1].split(",")[0]
    idx, sgn = first.split(":")
    mutated = text.replace("c=" + first, f"c={int(idx) - p.n}:{sgn}")
    assert fileio.load_record(text, "glyph-signature")[0].c.coeffs == sig.c.coeffs
    with pytest.raises(FormatError):
        fileio.load_record(mutated, "glyph-signature")


@pytest.mark.parametrize("noise", [None, "-1.0", "nan", "inf", "-inf", "1e400", "x"])
def test_bgv_ciphertext_noise_field_checked(noise):
    params = bgv.setup(m=32, p=2, r=1, levels=2)
    sk = bgv.keygen(params, SeededRng(b"\x71" * 32))
    ct = bgv.encrypt([1], sk, params, SeededRng(b"\x72" * 32))
    text = fileio.dump_record("bgv-ciphertext", ct, params)
    (line,) = [ln for ln in text.splitlines() if ln.startswith("noise=")]
    mangled = text.replace(line + "\n", "" if noise is None else f"noise={noise}\n")
    with pytest.raises(FormatError):
        fileio.load_record(mangled, "bgv-ciphertext", params=params)


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
    sig, _ = fileio.load_record(text, "glyph-signature")
    if delta < 0 and sig.z1.coeffs[0] == 0:
        delta = -1  # -1 alone already lies outside [0, q)
    mutated = _replace_first_coeff(text, "z1", delta)
    assert mutated != text
    with pytest.raises(FormatError):
        fileio.load_record(mutated, "glyph-signature")


def test_plwe_vectors_outside_range_rejected(plwe_setup, rng):
    p, kp = plwe_setup
    q = int(p.ring.q)
    ct = plwe.encrypt((kp.a, kp.b), [1, 0] * 8, p, rng)
    sample = plwe.oracle_sample(p, kp.s, rng)
    cases = [
        ("plwe-secret", (kp.s, p), "s"),
        ("plwe-public", ((kp.a, kp.b), p), "b"),
        ("plwe-ciphertext", ([ct], p), "u"),
        ("plwe-ciphertext", ([ct], p), "v"),
        ("plwe-samples", ([sample], p), "a"),
        ("plwe-samples", ([sample], p), "b"),
    ]
    for kind, obj, name in cases:
        text = fileio.dump_record(kind, *obj)
        fileio.load_record(text, kind)
        with pytest.raises(FormatError):
            fileio.load_record(_replace_first_coeff(text, name, q), kind)


def test_bgv_ciphertext_negative_level_rejected():
    params = bgv.setup(m=32, p=2, r=1, levels=2)
    sk = bgv.keygen(params, SeededRng(b"\x71" * 32))
    ct = bgv.encrypt([1], sk, params, SeededRng(b"\x72" * 32))
    text = fileio.dump_record("bgv-ciphertext", ct, params)
    for level in ["-1", "x", ""]:
        with pytest.raises(FormatError):
            fileio.load_record(text.replace("level=0", f"level={level}"), "bgv-ciphertext",
                               params=params)


def test_records_with_zero_rows_round_trip(lwe_setup, plwe_setup):
    lp = lwe_setup[0]
    text = fileio.dump_record("lwe-ciphertext", [], lp)
    assert text.endswith("\nbits=0\n")
    assert fileio.load_record(text, "lwe-ciphertext") == ([], lp)
    pp = plwe_setup[0]
    for name, count in [("plwe-ciphertext", "blocks"), ("plwe-samples", "count")]:
        text = fileio.dump_record(name, [], pp)
        assert text.endswith(f"\n{count}=0\n")
        loaded, p2 = fileio.load_record(text, name)
        assert loaded == [] and p2.ring == pp.ring and p2.sigma == pp.sigma


# The vector spellings the codec accepted through one regex per row; the
# codec now checks characters, empty fields and lengths instead.
_INT = "(?:0|[1-9][0-9]{0,18})"
_OLD_VEC = {"plain": re.compile(f"{_INT}(?:,{_INT})*"),
            "monic": re.compile(f"(?:{_INT},)+1"),
            "ternary": re.compile("(?:-1|0|1)(?:,(?:-1|0|1))*")}
_KINDS = {"plain": dict(fileio.RECORDS["bgv-params"].fields)["chain"],
          "monic": dict(fileio.RECORDS["plwe-params"].fields)["f"],
          "ternary": dict(fileio.RECORDS["bgv-secret"].fields)["s"]}
_CANONICAL = st.builds(  # some ternary, some ending in 1 as a monic f does
    lambda v, tail: ",".join(map(str, v + tail)),
    st.one_of(st.lists(st.integers(-1, 1), min_size=1, max_size=5),
              st.lists(st.one_of(st.integers(-1, 1), st.integers(0, 10**20)), min_size=1,
                       max_size=5)),
    st.sampled_from([[], [1]]))
_NOISE = st.lists(st.one_of(st.text("0123456789", min_size=1, max_size=21),
                            st.sampled_from([",", "-", "+", " ", "\u0661", "\r"])),
                  max_size=8).map("".join)


def _vector(kind, text):
    """`text` as one vector of `kind`; f's length is set to match, q to 2^63."""
    return kind.decode(text, {"n": text.count(","), "q": 2**63}, "v")


def _decoded(kind, text):
    try:
        return _vector(kind, text)
    except FormatError:
        return None


@settings(max_examples=600, deadline=None)
@given(name=st.sampled_from(sorted(_KINDS)), text=st.one_of(_CANONICAL, _NOISE))
def test_vector_decoding_accepts_what_the_old_patterns_accepted(name, text):
    got = _decoded(_KINDS[name], text)
    if _OLD_VEC[name].fullmatch(text):
        assert got is not None and got.dtype == np.int64
        assert got.tolist() == np.fromstring(text, dtype=np.int64, sep=",").tolist()
    else:
        assert got is None


@pytest.mark.parametrize("name, text", [
    # longer than its digits: a leading zero, -0 or a 20th digit
    ("plain", "01"), ("plain", "1,007"), ("plain", "9" * 20), ("ternary", "-0"),
    ("monic", "3,01"),
    # an empty field
    ("plain", ""), ("plain", "1,,2"), ("plain", "1,"), ("plain", ",1"), ("ternary", "-,1"),
    # a character other than a digit or comma, or a minus off the ternary secret
    ("plain", "-1"), ("plain", "+1"), ("plain", " 1"), ("plain", "1\r"), ("plain", "\u0661"),
    ("ternary", "1-1"), ("ternary", "--1"), ("monic", "-3,1"),
])
def test_vector_spelling_is_refused(name, text):
    with pytest.raises(FormatError, match="wrong length or spelling"):
        _vector(_KINDS[name], text)


def _rows(kind, lines, d, key, prefix="", step=None):
    """`lines`, each after `prefix`, read by one _VecRows `step` lines at a
    time (all at once if None), as one array."""
    data = [(prefix + ln + "\n").encode() for ln in lines]
    reader = fileio._VecRows(kind, d, key, len(data), sum(map(len, data)), prefix.encode())
    step = step or len(data)
    for i in range(0, len(data), step):
        reader.feed(b"".join(data[i : i + step]), len(data[i : i + step]))
    assert not reader.misprefixed
    return reader.result()


@pytest.mark.parametrize("texts", [["1,2,3", "4"], ["1", "2,3,4"], ["1,2,3", "4,5"], ["1,2", ""]])
def test_rows_with_the_wrong_field_count_are_refused(texts):
    with pytest.raises(FormatError):
        _rows(fileio._RES, texts, {"n": 2, "q": 17}, "v")
    assert _rows(fileio._RES, ["1,2", "3,4"], {"n": 2, "q": 17}, "v").tolist() == [[1, 2], [3, 4]]


_INT64 = st.one_of(st.sampled_from([0, -1, -(2**63), 2**63 - 1]),
                   st.integers(-(2**63), 2**63 - 1))


@given(vals=st.lists(_INT64, min_size=1, max_size=8), column=st.booleans())
def test_format_rows_spells_each_row_as_str_join(vals, column):
    rows = np.array(vals, dtype=np.int64).reshape((-1, 1) if column else (1, -1))
    want = "".join(f"k={','.join(map(str, row))}\n" for row in rows.tolist())
    assert "".join(fileio.format_row_blocks(rows, ["k="])) == want


def format_rows_one_shot(rows, prefixes=("",)) -> str:
    """`format_row_blocks`' text as one %-format over the whole flattened
    array: the reference for its blocks."""
    rows = np.asarray(rows)
    line = "".join(p + ",".join(["%d"] * rows.shape[1]) + "\n" for p in prefixes)
    return line * (len(rows) // len(prefixes)) % tuple(rows.ravel().tolist())


def _matrix(data, rows: int, cols: int, signed: bool, low: int = -(2**63)) -> np.ndarray:
    vals = st.one_of(st.integers(low, 2**63 - 1), st.integers(-3, 3)) if signed else st.integers(
        0, 2**63 - 1)
    return np.array(data.draw(st.lists(vals, min_size=rows * cols, max_size=rows * cols)),
                    dtype=np.int64).reshape(rows, cols)


@settings(max_examples=200, deadline=None)
@given(block=st.integers(1, 30), cycles=st.integers(0, 12), cols=st.integers(1, 6),
       prefixes=st.sampled_from([["k="], ["u=", "v="]]), signed=st.booleans(), data=st.data())
def test_format_rows_in_blocks_is_the_one_shot_format(block, cycles, cols, prefixes, signed,
                                                      data):
    rows = _matrix(data, cycles * len(prefixes), cols, signed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_BLOCK_ENTRIES", block)
        assert "".join(fileio.format_row_blocks(rows, prefixes)) == format_rows_one_shot(
            rows, prefixes)


# Both ends of every digit count of an int64 magnitude, 10^k - 1 and 10^k,
# with both signs; 0, +-1 and the int64 ends.
_DIGIT_EDGES = sorted({s * e for k in range(1, 19) for e in (10**k - 1, 10**k) for s in (1, -1)}
                | {0, 1, -1, -(2**63), 2**63 - 1})
_ENTRY = st.one_of(st.sampled_from(_DIGIT_EDGES), st.integers(-(2**63), 2**63 - 1),
                   st.integers(0, 99))
# Field vectors as records hold them: 0, +-1, a ternary secret, BGV chain
# entries near 2^62 and 2^63 - 1.
_FIELD = st.one_of(st.sampled_from([[0], [1], [-1], [1, 0, -1, -1, 0, 1, 0, 1],
                                    [4611686018427387847, 4611686018427387761, 65537],
                                    [2**63 - 1]]),
                   st.lists(_ENTRY, min_size=1, max_size=9))


def format_pieces_one_shot(pieces, prefixes) -> str:
    """The rows of `pieces` laid out as `_format_blocks` lays them out, each
    line a prefix and a str join of its entries: the reference for the
    encoder."""
    lines = [np.hstack([np.asarray(a).reshape(len(a), -1) for a in arrays]).tolist()
             for arrays in pieces]
    return "".join(p + ",".join(map(str, rows[i])) + "\n"
                   for i in range(len(lines[0])) for p, rows in zip(prefixes, lines))


@settings(max_examples=200, deadline=None)
@given(block=st.sampled_from([1, 7, fileio._BLOCK_ENTRIES]), cycles=st.integers(1, 9),
       layout=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=3),
                       min_size=1, max_size=3),
       data=st.data())
def test_encoder_is_the_str_join_of_every_layout(block, cycles, layout, data):
    """1-3 keys per cycle, each with 1-3 arrays side by side (width 0: a 1-D
    array, one column), prefixes whose separators take 1-4 words, entries
    of every digit count and sign, in blocks of 1, 7 or the default; and a
    field vector, one row with no prefix and its final newline dropped."""
    prefixes = data.draw(st.lists(st.sampled_from(["", "k=", "u=", "sample=", "a_longer_key="]),
                                  min_size=len(layout), max_size=len(layout)))
    pieces = []
    for widths in layout:
        arrays = []
        for w in widths:
            shape = (cycles, w) if w else (cycles,)
            vals = data.draw(st.lists(_ENTRY, min_size=cycles * max(w, 1),
                                      max_size=cycles * max(w, 1)))
            arrays.append(np.array(vals, dtype=np.int64).reshape(shape))
        pieces.append(tuple(arrays))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_BLOCK_ENTRIES", block)
        text = "".join(fileio._format_blocks(pieces, prefixes))
    assert text == format_pieces_one_shot(pieces, prefixes)
    field = data.draw(_FIELD)
    assert fileio._Vec.encode(field) == format_pieces_one_shot([(np.array([field]),)], [""])[:-1]


@pytest.mark.parametrize("block", [1, 7, fileio._BLOCK_ENTRIES])
def test_encoder_spells_every_digit_count(monkeypatch, block):
    """Every edge entry alone in a block, beside the others in a column, in
    a row and in a 11 x 7 matrix."""
    edges = np.array(_DIGIT_EDGES, dtype=np.int64)
    assert len(edges) == 77
    monkeypatch.setattr(fileio, "_BLOCK_ENTRIES", block)
    for rows in (edges[:, None], edges[None, :], edges.reshape(11, 7), edges[::-1].reshape(7, 11)):
        assert "".join(fileio.format_row_blocks(rows, ["k="])) == format_rows_one_shot(
            rows, ["k="])
        assert "".join(fileio.format_row_blocks(rows)) == "".join(
            ",".join(map(str, row)) + "\n" for row in rows.tolist())


@settings(max_examples=200, deadline=None)
@given(block=st.integers(1, 30), lines=st.integers(1, 12), cols=st.integers(1, 6),
       signed=st.booleans(), data=st.data())
def test_rows_parse_in_blocks_as_written(block, lines, cols, signed, data):
    """Rows with a key prefix, split into blocks of any size, parse back to
    the matrix that format_row_blocks wrote."""
    m = _matrix(data, lines, cols, signed, low=-(2**63) + 1)  # |-2^63| is past int64
    kind = fileio._Vec(lambda d: d["n"], None, signed=signed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_BLOCK_ENTRIES", block)
        text = "".join(fileio.format_row_blocks(m, ["k="]))
    got = _rows(kind, [ln[2:] for ln in text.splitlines()], {"n": cols}, "k", "k=",
                max(1, block // cols))
    assert got.dtype == np.int64 and np.array_equal(got, m)


def _sample_lines(text):
    lines = text.split("\n")
    return [i for i, ln in enumerate(lines) if ln.startswith("sample=")], lines


def _edit_entry(line: str, j: int, edit) -> str:
    key, _, value = line.partition("=")
    entries = value.split(",")
    entries[j] = edit(entries[j])
    return key + "=" + ",".join(entries)


def _move_comma(lines, i):
    """One entry of line i split in two and two of line i + 1 merged: the
    same number of commas in all, one more and one fewer in those lines."""
    key, _, a = lines[i].partition("=")
    _, _, b = lines[i + 1].partition("=")
    a, b = a.split(","), b.split(",")
    a[0:1] = ["1", a[0]]
    b[0:2] = [b[0] + b[1]]
    return lines[:i] + [f"{key}={','.join(a)}", f"{key}={','.join(b)}"] + lines[i + 2:]


BLOCK_FAULTS = {
    "leading zero": (lambda ls, i: ls[:i] + [_edit_entry(ls[i], 3, "0".__add__)] + ls[i + 1:],
                     "wrong length or spelling"),
    "plus sign": (lambda ls, i: ls[:i] + [_edit_entry(ls[i], 5, "+".__add__)] + ls[i + 1:],
                  "wrong length or spelling"),
    "space": (lambda ls, i: ls[:i] + [_edit_entry(ls[i], 0, " ".__add__)] + ls[i + 1:],
              "wrong length or spelling"),
    "empty field": (lambda ls, i: ls[:i] + [_edit_entry(ls[i], 7, lambda e: "")] + ls[i + 1:],
                    "wrong length or spelling"),
    "comma dropped": (lambda ls, i: ls[:i] + [ls[i].replace(",", "", 1)] + ls[i + 1:],
                      "wrong length or spelling"),
    "comma added": (lambda ls, i: ls[:i] + [ls[i] + ",1"] + ls[i + 1:],
                    "wrong length or spelling"),
    "comma moved to the line before": (_move_comma, "wrong length or spelling"),
    "entry q": (lambda ls, i: ls[:i] + [_edit_entry(ls[i], 2, lambda e: "257")] + ls[i + 1:],
                "has an entry outside"),
    "entry past int64": (lambda ls, i: ls[:i] + [_edit_entry(ls[i], 2, lambda e: "9" * 19)]
                         + ls[i + 1:], "has an entry outside"),
    "key misspelled": (lambda ls, i: ls[:i] + [ls[i].replace("sample=", "sampel=")] + ls[i + 1:],
                       "rows must repeat sample in that order"),
}


@pytest.mark.parametrize("fault", sorted(BLOCK_FAULTS))
@pytest.mark.parametrize("block", [1, 17, 40, 1 << 14])
def test_one_fault_in_a_later_block_keeps_its_message(fault, block, monkeypatch):
    """An LWE public key at n = 16 (rows of 17 entries mod 257): a block of
    one row, of one row exactly, of two rows, and the whole key."""
    text = RECORDS["lwe-public"][0]
    rows, lines = _sample_lines(text)
    mutate, message = BLOCK_FAULTS[fault]
    monkeypatch.setattr(fileio, "_BLOCK_ENTRIES", block)
    for i in (rows[-9], rows[-4], rows[-2]):  # each a later block, at both ends of one
        with pytest.raises(FormatError, match=message):
            fileio.load_record("\n".join(mutate(lines, i)), "lwe-public")
    assert fileio.dump_record("lwe-public", fileio.load_record(text, "lwe-public")) == text


# ---------------------------------------------------------------------------
# Every record type: canonical round trip, line and token mutations, CLI.

BGV_TOY = bgv.setup(m=32, p=2, r=1, levels=2)


def _context(name):
    """What record `name`'s fields refer to: BGV_TOY for a BGV ciphertext."""
    return {"params": BGV_TOY} if name == "bgv-ciphertext" else {}


def _dump_again(name, obj):
    """dump_record of the objects that load_record or read_record returned."""
    return fileio.dump_record(name, *(obj if isinstance(obj, tuple) else (obj,)),
                              *_context(name).values())


def _reload(name, text):
    """load_record's objects of `text`, written again by dump_record."""
    return _dump_again(name, fileio.load_record(text, name, **_context(name)))


def _records(seed: bytes):
    """name -> (text, reload: text -> dump(load(text)), {vector key: q},
    count key or None), built from one seed at toy sizes."""
    rng = SeededRng(seed)
    lp = lwe.derive_params(16)
    lsk, lpk = lwe.keygen(lp, rng.derive("lwe"))
    lcts = [lwe.encrypt_bit(lpk, z, rng.derive(f"lwe-{i}")) for i, z in enumerate((1, 0, 1))]
    pp = plwe.default_params(16, sigma=1.5, floor=256)
    kp = plwe.keygen(pp, rng.derive("plwe"))
    pct = [plwe.encrypt((kp.a, kp.b), [1, 0] * 8, pp, rng.derive(f"plwe-{i}")) for i in range(2)]
    # samples over f = x^16 + x + 255, which has the root 1 mod 257: `attack` reads them
    weak = plwe.PlweParams(ring=RingParams(f=(255, 1) + (0,) * 14 + (1,), q=Modulus(257)),
                           sigma=1.5)
    samples = [plwe.uniform_sample_pair(weak, rng.derive(f"sample-{i}")) for i in range(3)]
    gsk, gpk = glyph.keygen(TOY_GLYPH, rng.derive("glyph"))
    sig, _ = glyph.sign(gsk, gpk, b"payload", TOY_GLYPH, rng.derive("sign"))
    bsk = bgv.keygen(BGV_TOY, rng.derive("bgv"))
    bcts = [bgv.encrypt(pt, bsk, BGV_TOY, rng.derive(f"bgv-{i}"))
            for i, pt in enumerate(([1, 0, 1], [1, 1]))]
    bct = bgv.he_mul(*bcts, BGV_TOY)  # level 1, three parts
    lq, pq, gq, bq = 257, int(pp.ring.q), int(TOY_GLYPH.q), BGV_TOY.modulus_at_level(1)
    records = {
        "lwe-secret": ((lsk, lp), {"s": lq}, None),
        "lwe-public": ((lpk,), {"sample": lq}, "m"),
        "lwe-ciphertext": ((lcts, lp), {"ct": lq}, "bits"),
        "plwe-params": ((pp,), {"f": pq}, None),
        "plwe-secret": ((kp.s, pp), {"f": pq, "s": pq}, None),
        "plwe-public": (((kp.a, kp.b), pp), {"f": pq, "a": pq, "b": pq}, None),
        "plwe-ciphertext": ((pct, pp), {"f": pq, "u": pq, "v": pq}, "blocks"),
        "plwe-samples": ((samples, weak), {"f": 257, "a": 257, "b": 257}, "count"),
        "glyph-secret": ((gsk, TOY_GLYPH), {"s": gq, "e": gq}, None),
        "glyph-public": ((gpk, TOY_GLYPH), {"a": gq, "t": gq}, None),
        "glyph-signature": ((sig, TOY_GLYPH), {"z1": gq, "z2": gq}, None),
        "bgv-params": ((BGV_TOY,), {}, None),
        "bgv-secret": ((bsk,), {}, None),
        "bgv-ciphertext": ((bct, BGV_TOY), {"part": bq}, "parts"),
    }
    return {name: (fileio.dump_record(name, *obj), functools.partial(_reload, name), moduli, count)
            for name, (obj, moduli, count) in records.items()}


RECORDS = _records(b"\x5a" * 32)


def test_every_record_type_is_covered():
    assert set(RECORDS) == set(fileio.RECORDS)


def test_dump_names_return_the_text_and_load_names_take_it_first():
    """A benchmark tracer wraps every fileio function named dump_* or load_*
    and counts len() of what the one returns and of the other's first
    argument, so each must keep to that; read_record and record_blocks
    use neither prefix."""
    names = sorted(name for name, value in vars(fileio).items()
                   if callable(value) and getattr(value, "__module__", None) == fileio.__name__
                   and name.startswith(("dump_", "load_")))
    assert {"dump_record", "load_record"} <= set(names)
    for name in names:
        signature = inspect.signature(getattr(fileio, name))
        if name.startswith("dump_"):
            assert signature.return_annotation == "str", name
        else:
            first = next(iter(signature.parameters.values()))
            assert (first.name, first.annotation) == ("text", "str"), name
    for name, (text, reload, _, _) in RECORDS.items():
        loaded = fileio.load_record(text, name, **_context(name))
        assert isinstance(_dump_again(name, loaded), str) and reload(text) == text


def _refused(name, text):
    with pytest.raises(FormatError):
        RECORDS[name][1](text)


def _round_trips_or_refused(name, text):
    try:
        again = RECORDS[name][1](text)
    except FormatError:
        return
    assert again == text


@settings(max_examples=5, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32))
def test_every_record_round_trips(seed):
    for name, (text, reload, _, _) in _records(seed).items():
        assert reload(text) == text, name


def _lines(text):
    return text.split("\n")[:-1]


def _join(lines):
    return "\n".join(lines) + "\n"


def _field(text, key):
    return next(ln for ln in _lines(text) if ln.startswith(key + "="))[len(key) + 1:]


def _with_fields(text, **values):
    """`text` with each "key=..." line given a new value."""
    for key, value in values.items():
        text = text.replace(f"\n{key}={_field(text, key)}\n", f"\n{key}={value}\n", 1)
    return text


# Line mutations: (lines, i) -> lines, for every line index i.
LINE_MUTATIONS = {
    "drop": lambda ls, i: ls[:i] + ls[i + 1:],
    "duplicate": lambda ls, i: ls[:i + 1] + ls[i:],
    "blank line": lambda ls, i: ls[:i] + [""] + ls[i:],
    "carriage return": lambda ls, i: ls[:i] + [ls[i] + "\r"] + ls[i + 1:],
    "space before =": lambda ls, i: ls[:i] + [ls[i].replace("=", " =", 1)] + ls[i + 1:],
    "space after =": lambda ls, i: ls[:i] + [ls[i].replace("=", "= ", 1)] + ls[i + 1:],
    "leading space": lambda ls, i: ls[:i] + [" " + ls[i]] + ls[i + 1:],
    "trailing space": lambda ls, i: ls[:i] + [ls[i] + " "] + ls[i + 1:],
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_line_mutations_are_refused(name):
    text = RECORDS[name][0]
    lines = _lines(text)
    for kind, mutate in LINE_MUTATIONS.items():
        for i in range(len(lines)):
            mutated = _join(mutate(lines, i))
            if mutated != text:  # "=" edits leave the header line alone
                _refused(name, mutated)
    _refused(name, text + "\n")
    _refused(name, text[:-1])
    _refused(name, text.replace("\n", "\r\n"))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_swapped_lines_round_trip_or_are_refused(name):
    lines = _lines(RECORDS[name][0])
    for i in range(len(lines) - 1):
        swapped = lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]
        _round_trips_or_refused(name, _join(swapped))


def _outcome(name, read):
    """The text of read()'s objects, written again, or its FormatError's
    message."""
    try:
        obj = read()
    except FormatError as e:
        return str(e)
    return _dump_again(name, obj)


def _streamed_and_whole(tmp_path, name, data: bytes):
    """Record `name` read by read_record from a file holding `data`, a block
    at a time, and by load_record from the file's text read whole (bad
    bytes as U+FFFD, no newline translation)."""
    path = tmp_path / "record"
    path.write_bytes(data)
    text = data.decode("utf-8", "replace")
    return (_outcome(name, lambda: fileio.read_record(path, name, **_context(name))),
            _outcome(name, lambda: fileio.load_record(text, name, **_context(name))))


@pytest.mark.parametrize("fault", sorted(BLOCK_FAULTS))
@pytest.mark.parametrize("block", [1, 17, 40, fileio._BLOCK_ENTRIES])
def test_read_lwe_public_refuses_a_block_fault_as_load_does(fault, block, monkeypatch, tmp_path):
    text = RECORDS["lwe-public"][0]
    rows, lines = _sample_lines(text)
    mutate, message = BLOCK_FAULTS[fault]
    monkeypatch.setattr(fileio, "_BLOCK_ENTRIES", block)
    path = tmp_path / "pub"
    for i in (rows[0], rows[-9], rows[-4], rows[-2]):
        mutated = "\n".join(mutate(lines, i))
        path.write_text(mutated)
        with pytest.raises(FormatError, match=message) as streamed:
            fileio.read_record(path, "lwe-public")
        with pytest.raises(FormatError) as whole:
            fileio.load_record(mutated, "lwe-public")
        assert str(streamed.value) == str(whole.value)


@pytest.mark.parametrize("block", [1, 17, 40, fileio._BLOCK_ENTRIES])
def test_written_lwe_public_key_is_the_dumped_text(block, monkeypatch, tmp_path):
    pk = fileio.load_record(RECORDS["lwe-public"][0], "lwe-public")
    monkeypatch.setattr(fileio, "_BLOCK_ENTRIES", block)
    cli._write_out(tmp_path / "pub", fileio.record_blocks("lwe-public", pk))
    assert (tmp_path / "pub").read_bytes() == fileio.dump_record("lwe-public", pk).encode()
    assert fileio.dump_record("lwe-public", pk) == RECORDS["lwe-public"][0]
    again = fileio.read_record(tmp_path / "pub", "lwe-public")
    assert np.array_equal(again.a, pk.a) and np.array_equal(again.b, pk.b)
    assert again.params == pk.params


def test_cli_keygen_writes_the_dumped_public_key(tmp_path):
    assert cli.main(["keygen", "--scheme", "lwe", "--n", "64", "--seed", "5d" * 32,
                     "--out-secret", str(tmp_path / "s"), "--out-public", str(tmp_path / "p")]) == 0
    pk = fileio.read_record(tmp_path / "p", "lwe-public")
    assert (tmp_path / "p").read_text() == fileio.dump_record("lwe-public", pk)
    assert pk.a.shape == (pk.params.m, 64)


# Byte edits load_record must see exactly as read_record does: line
# breaks, separators, signs, digits, and bytes that are not UTF-8 alone.
_BYTE_EDITS = st.sampled_from([b"\n", b"\r", b",", b"-", b"=", b"0", b"7", b"\xff", b"\xc3",
                               b"\xc3\xa9", b"\xe2\x82", b""])


@pytest.fixture(scope="module")
def module_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("records")


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(fileio.RECORDS)), block=st.integers(1, 40),
       edits=st.lists(st.tuples(st.floats(0, 1), st.integers(0, 2), _BYTE_EDITS), max_size=3))
def test_a_record_read_a_block_at_a_time_is_the_record_read_whole(name, block, edits,
                                                                   module_dir):
    """Any record, with up to three bytes replaced, inserted or deleted, at
    any block size (and so any chunk of the file): the same fields or the
    same message."""
    data = bytearray(RECORDS[name][0].encode())
    for at, op, new in edits:
        i = int(at * (len(data) - 1))
        data[i : i + (op != 1)] = new if op < 2 else b""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_BLOCK_ENTRIES", block)
        streamed, whole = _streamed_and_whole(module_dir, name, bytes(data))
    assert streamed == whole


@pytest.mark.parametrize("name", sorted(fileio.RECORDS))
def test_line_mutations_read_a_block_at_a_time_as_whole(name, tmp_path, monkeypatch):
    text = RECORDS[name][0]
    lines = _lines(text)
    monkeypatch.setattr(fileio, "_BLOCK_ENTRIES", 17)
    texts = [text, text + "\n", text[:-1], text.replace("\n", "\r\n"), "", "\n"]
    texts += [_join(mutate(lines, i)) for mutate in LINE_MUTATIONS.values()
              for i in range(len(lines))]
    texts += [RECORDS[other][0] for other in RECORDS]  # every other record type
    for t in texts:
        streamed, whole = _streamed_and_whole(tmp_path, name, t.encode())
        assert streamed == whole, t


# One-byte edits for the differential test: any byte, those a field must
# not hold, and whole UTF-8 sequences of 2, 3 and 4 bytes (so that one can
# straddle a chunk's end) with two of their prefixes.
_ONE_BYTE = st.one_of(
    st.integers(0, 255).map(lambda b: bytes([b])),
    st.sampled_from([b"\r", b" ", b"+", b"-", b"0", b"9", b",", b"\n", b"=", b"\x80", b"\xff"]),
    st.sampled_from([b"\xc3\xa9", b"\xe2\x82\xac", b"\xf0\x9f\x98\x80", b"\xc3", b"\xe2\x82"]))
# CI's Tier-1 step sets LATTICELAB_HYPOTHESIS=ci for a larger budget (tests/conftest.py).
_DIFFERENTIAL = settings.get_profile(os.environ.get("LATTICELAB_HYPOTHESIS", "tier1"))


@_DIFFERENTIAL
@given(name=st.sampled_from(sorted(fileio.RECORDS)), wide=st.booleans(),
       op=st.sampled_from(["insert", "delete", "replace"]), new=_ONE_BYTE,
       where=st.sampled_from(["anywhere", "line start", "field start", "leading 0",
                              "chunk end", "wide field", "comma moved"]),
       data=st.data())
def test_reader_reads_every_one_byte_edit_as_the_line_reader(name, wide, op, new, where, data,
                                                             module_dir):
    """Every record with one byte inserted, deleted or replaced, read by
    read_record from a file and by load_record from its text, with
    _BLOCK_ENTRIES 1, 7 and its default (reads of 8 and 56 bytes cut lines):
    the objects or the FormatError message of the str-line reader
    (tests/fileio_lines.py).  `wide` first spells one field with 19 nines,
    so that an edit can give it a 20th digit.  The edit lands anywhere, in a
    row's first bytes (its key), at a field's start (or inserts a 0 there),
    just before a multiple of 8 bytes, or inside the wide field; or, two
    bytes, a comma moves to another line, so that only a line's count of
    commas is wrong."""
    text = RECORDS[name][0].encode()
    keys = tuple(key.encode() + b"=" for key in fileio.RECORDS[name].rows[1])
    lines = [m.end() for m in re.finditer(rb"\n", text[:-1])]
    rows = [i for i in reversed(lines) if text.startswith(keys, i)] or lines  # last rows first
    fields = [m.start() for m in re.finditer(rb"(?<=[,=])[0-9]+", text)]
    wide_at = data.draw(st.sampled_from(fields)) if wide and fields else None
    if wide_at is not None:
        end = re.compile(rb"[0-9]*").match(text, wide_at).end()
        text = text[:wide_at] + b"9" * 19 + text[end:]
    spots = {"anywhere": range(len(text)),
             "line start": [i + j for i in rows for j in range(3)],
             "field start": fields or range(len(text)), "leading 0": fields or [0],
             "chunk end": [i for i in range(len(text)) if i % 8 >= 5],
             "wide field": range(wide_at, wide_at + 20) if wide_at is not None else [0],
             "comma moved": [m.start() for m in re.finditer(rb",", text)] or [0]}
    i = data.draw(st.sampled_from(spots[where]))
    if where == "comma moved":  # deleted at i, inserted after a field's first digit
        j = data.draw(st.sampled_from([m.start() + 1 for m in re.finditer(rb"[0-9][0-9]", text)]
                                      or range(len(text))))
        mutated = bytearray(text)
        mutated[j:j] = b","
        del mutated[i + (j <= i)]
        mutated = bytes(mutated)
    else:
        if where == "leading 0":
            op, new = "insert", b"0"
        mutated = text[:i] + (b"" if op == "delete" else new) + text[i + (op != "insert") :]
    path = module_dir / "edited"
    path.write_bytes(mutated)
    decoded = mutated.decode("utf-8", "replace")
    ctx = _context(name)
    for block in (1, 7, fileio._BLOCK_ENTRIES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileio, "_BLOCK_ENTRIES", block)
            want = _outcome(name, lambda: fileio_lines.read_record(path, name, **ctx))
            assert _outcome(name, lambda: fileio_lines.load_record(decoded, name, **ctx)) == want
            assert _outcome(name, lambda: fileio.read_record(path, name, **ctx)) == want
            assert _outcome(name, lambda: fileio.load_record(decoded, name, **ctx)) == want


@pytest.mark.parametrize("char", ["\u00e9", "\u20ac", "\U0001f600"])
def test_read_lwe_public_decodes_a_character_across_chunks(char, monkeypatch, tmp_path):
    """A character of 2, 3 or 4 bytes in a field's value, at every offset
    from a chunk's end, decodes as in the text read whole: the message
    quotes it."""
    text = RECORDS["lwe-public"][0]
    at = text.index("alpha=") + len("alpha=")
    monkeypatch.setattr(fileio, "_BLOCK_ENTRIES", 1)  # chunks of 8 bytes
    for i in range(at, at + 8):
        mutated = text[:i] + char + text[i:]
        (tmp_path / "pub").write_text(mutated)
        with pytest.raises(FormatError, match=char) as streamed:
            fileio.read_record(tmp_path / "pub", "lwe-public")
        with pytest.raises(FormatError) as whole:
            fileio.load_record(mutated, "lwe-public")
        assert str(streamed.value) == str(whole.value)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_load_record_quotes_a_lone_surrogate_as_the_line_reader(name):
    """A str may hold a lone surrogate, which no file can: load_record
    quotes it in its message as it stands, as the str-line reader does."""
    text = RECORDS[name][0]
    at = re.search(r"\n(?!type=)\w+=", text).end() - 1  # the first field's "="
    mutated = text[:at] + "\ud800" + text[at:]
    want = _outcome(name, lambda: fileio_lines.load_record(mutated, name, **_context(name)))
    assert "\\ud800" in want  # repr() escapes it
    assert _outcome(name, lambda: fileio.load_record(mutated, name, **_context(name))) == want


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_text_without_its_final_newline_is_refused_as_such(name):
    """The frame is checked first: a text that does not end in a newline
    is refused for that, even when a line before has a fault of its own."""
    text = RECORDS[name][0]
    lines = _lines(text)
    for bad in [text[:-1], text + "1", _join(lines[:1] + [" " + ln for ln in lines[1:]])[:-1],
                _join(lines[:-1])[:-1], text + "x" * 50]:
        with pytest.raises(FormatError, match="as first line.s. and a final newline"):
            fileio.load_record(bad, name, **_context(name))


@pytest.mark.parametrize("name", ["plwe-ciphertext", "plwe-samples"])
@pytest.mark.parametrize("row", [0, 1, -2, -1])
def test_rows_out_of_key_order_are_refused_as_such_at_any_block(name, row, monkeypatch):
    text = RECORDS[name][0]
    lines = _lines(text)
    i = [i for i, ln in enumerate(lines) if ln.startswith(("u=", "v=", "a=", "b="))][row]
    key, _, value = lines[i].partition("=")
    other = {"u": "v", "v": "u", "a": "b", "b": "a"}[key]
    mutated = _join(lines[:i] + [f"{other}={value}"] + lines[i + 1:])
    for block in (1, 17, fileio._BLOCK_ENTRIES):
        monkeypatch.setattr(fileio, "_BLOCK_ENTRIES", block)
        with pytest.raises(FormatError, match="rows must repeat"):
            RECORDS[name][1](mutated)


def test_a_long_line_is_read_in_linear_time(monkeypatch, tmp_path):
    """A line of 2^18 characters over 2^15 chunks of 8 bytes is joined
    once, not copied at every chunk."""
    monkeypatch.setattr(fileio, "_BLOCK_ENTRIES", 1)
    text = RECORDS["lwe-public"][0].replace("\nsample=", "\nsample=" + "1," * (1 << 17), 1)
    (tmp_path / "pub").write_text(text)
    start = time.perf_counter()
    with pytest.raises(FormatError, match="wrong length or spelling"):
        fileio.read_record(tmp_path / "pub", "lwe-public")
    assert time.perf_counter() - start < 1.0


def test_read_lwe_public_from_a_pipe(tmp_path):
    """A file of unknown size, such as a pipe, is read whole, with the same
    key or message."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    for text in [RECORDS["lwe-public"][0], RECORDS["lwe-public"][0][:-1]]:
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            streamed = _outcome("lwe-public", lambda: fileio.read_record(fifo, "lwe-public"))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        whole = _outcome("lwe-public", lambda: fileio.load_record(text, "lwe-public"))
        assert streamed == whole


def test_rows_too_short_for_their_count_allocate_nothing():
    """Rows that the text has no room for are refused before an array of
    count x n is made: here 10^4 lines after a first of 2^20 entries."""
    n, q = 1 << 20, next_prime(1 << 40)
    text = (f"latticelab-lwe-v1\ntype=public\nn={n}\nq={q}\nalpha=0.1\nm=10000\n"
            + "sample=" + "0," * n + "0\n" + "sample=0\n" * 9999)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="wrong length or spelling"):
            fileio.load_record(text, "lwe-public")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(text)


def _field_lines(lines):
    return [i for i, ln in enumerate(lines) if "=" in ln]


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(RECORDS)), prefix=st.sampled_from(["0", "+"]),
       data=st.data())
def test_integer_with_leading_zero_or_plus_is_refused(name, prefix, data):
    text = RECORDS[name][0]
    # every integer, including those in a float, except a fraction's digits
    runs = [m.start() for m in re.finditer("(?<![.0-9])[0-9]+", text)]
    at = data.draw(st.sampled_from(runs))
    _refused(name, text[:at] + prefix + text[at:])


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(RECORDS)),
       value=st.sampled_from(["x", "", "1x", "0x1", "1_0", "١", "nan", "-0", "9" * 20]),
       data=st.data())
def test_non_numeric_or_out_of_range_field_value_is_refused(name, value, data):
    lines = _lines(RECORDS[name][0])
    i = data.draw(st.sampled_from(_field_lines(lines)))
    key = lines[i].split("=")[0]
    _refused(name, _join(lines[:i] + [f"{key}={value}"] + lines[i + 1:]))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(n for n in RECORDS if RECORDS[n][2])),
       sign=st.sampled_from([1, -1]), data=st.data())
def test_residue_shifted_by_q_is_refused(name, sign, data):
    text, _, moduli, _ = RECORDS[name]
    lines = _lines(text)
    i = data.draw(st.sampled_from(
        [i for i, ln in enumerate(lines) if ln.split("=")[0] in moduli]))
    key, _, value = lines[i].partition("=")
    coeffs = value.split(",")
    j = data.draw(st.integers(0, len(coeffs) - 1))
    coeffs[j] = str(int(coeffs[j]) + sign * moduli[key])
    _refused(name, _join(lines[:i] + [f"{key}={','.join(coeffs)}"] + lines[i + 1:]))


@pytest.mark.parametrize("name", sorted(n for n in RECORDS if RECORDS[n][3]))
@pytest.mark.parametrize("delta", [1, -1])
def test_count_disagreeing_with_rows_is_refused(name, delta):
    text, _, _, count = RECORDS[name]
    (line,) = [ln for ln in _lines(text) if ln.startswith(count + "=")]
    _refused(name, text.replace(line + "\n", f"{count}={int(line[len(count) + 1:]) + delta}\n"))


def test_found_cases_are_format_errors():
    text = RECORDS["glyph-signature"][0]
    for prefix in ["+", "0"]:
        _refused("glyph-signature", text.replace("\nz1=", "\nz1=" + prefix))
    ct = RECORDS["bgv-ciphertext"][0]
    _refused("bgv-ciphertext", re.sub("parts=[0-9]+", "parts=x", ct))
    for chain in ["0,5", "0,0", "0,1", "1,1"]:  # q_0 <= p: log2(q_0) may be undefined
        _refused("bgv-params", _with_fields(RECORDS["bgv-params"][0], chain=chain))
    # an n that no row has room for is a spelling error, not an m x n allocation
    for n in ["1000000000000000", "4611686018427387904"]:
        _refused("lwe-public", _with_fields(RECORDS["lwe-public"][0], n=n))


# Values at the edges of each integer field: zero, one, the smallest prime
# and its successor, and the largest int64.
_EDGES = st.one_of(st.none(), st.sampled_from([0, 1, 2, 3, 2**63 - 1]))


@settings(max_examples=300, deadline=None)
@given(m=_EDGES, p=_EDGES, r=_EDGES, q0=_EDGES, q1=_EDGES)
def test_bgv_params_with_edge_values_load_or_are_format_errors(m, p, r, q0, q1):
    """m, p, r and the first two chain entries, each kept or set to an edge
    value: loading round-trips or raises FormatError, never anything else."""
    text = RECORDS["bgv-params"][0]
    chain = _field(text, "chain").split(",")
    chain[:2] = [str(old if new is None else new) for old, new in zip(chain, (q0, q1))]
    edits = {k: v for k, v in {"m": m, "p": p, "r": r}.items() if v is not None}
    _round_trips_or_refused("bgv-params", _with_fields(text, chain=",".join(chain), **edits))


@pytest.mark.parametrize("case", ["cut", "padded", "level above L", "mod_index"])
def test_bgv_ciphertext_shape_is_checked(case):
    text = RECORDS["bgv-ciphertext"][0]  # level 1 of L = 2, so mod_index = 1
    part = next(ln for ln in _lines(text) if ln.startswith("part="))
    mutated = {
        "cut": text.replace(part, ",".join(part.split(",")[:3])),
        "padded": text.replace(part, part + ",0" * 40),
        "level above L": text.replace("level=1", "level=3"),
        "mod_index": text.replace("mod_index=1", "mod_index=2"),
    }[case]
    assert mutated != text
    _refused("bgv-ciphertext", mutated)


@pytest.mark.parametrize("f", ["1,0,0,0,0", "1,0,0,1,0", "1,0,0,0,2", "1,0,0,0,257"])
def test_plwe_f_must_be_monic_of_degree_n(f):
    # a trailing zero would make RingParams drop to a lower degree than n
    with pytest.raises(FormatError):
        fileio.load_record(f"latticelab-plwe-v1\nn=4\nq=17\nf={f}\nsigma=1.5\n", "plwe-params")


# One CLI call per record type that reads it; "{0}" is the file under test.
SEED = "5c" * 32
CLI_READERS = {
    "lwe-secret": ["decrypt", "--scheme", "lwe", "--secret", "{0}", "--in", "{lwe-ciphertext}"],
    "lwe-public": ["encrypt", "--scheme", "lwe", "--public", "{0}", "--message", "{msg}", "--seed", SEED],
    "lwe-ciphertext": ["decrypt", "--scheme", "lwe", "--secret", "{lwe-secret}", "--in", "{0}"],
    "plwe-params": ["sample", "--dist", "plwe-uniform", "--params", "{0}", "--count", "1",
                    "--seed", SEED],
    "plwe-secret": ["decrypt", "--scheme", "plwe", "--secret", "{0}", "--in", "{plwe-ciphertext}"],
    "plwe-public": ["encrypt", "--scheme", "plwe", "--public", "{0}", "--message", "{msg}",
                    "--seed", SEED],
    "plwe-ciphertext": ["decrypt", "--scheme", "plwe", "--secret", "{plwe-secret}", "--in", "{0}"],
    "plwe-samples": ["attack", "--alg", "1", "--samples", "{0}"],
    "glyph-secret": ["sign", "--secret", "{0}", "--public", "{glyph-public}", "--message", "{msg}",
                     "--seed", SEED],
    "glyph-public": ["verify", "--public", "{0}", "--message", "{msg}",
                     "--signature", "{glyph-signature}"],
    "glyph-signature": ["verify", "--public", "{glyph-public}", "--message", "{msg}",
                        "--signature", "{0}"],
    "bgv-params": ["decrypt", "--scheme", "bgv", "--params", "{0}", "--secret", "{bgv-secret}",
                   "--in", "{bgv-ciphertext}"],
    "bgv-secret": ["decrypt", "--scheme", "bgv", "--params", "{bgv-params}", "--secret", "{0}",
                   "--in", "{bgv-ciphertext}"],
    "bgv-ciphertext": ["decrypt", "--scheme", "bgv", "--params", "{bgv-params}",
                       "--secret", "{bgv-secret}", "--in", "{0}"],
}


def _cli_argv(tmp_path, name, under_test):
    """CLI_READERS[name] over the toy files, written to tmp_path, with
    `under_test` as the file of record type `name`."""
    files = {f"{{{n}}}": tmp_path / n for n in RECORDS}
    for key, path in files.items():
        path.write_text(RECORDS[key[1:-1]][0])
    (tmp_path / "msg").write_bytes(b"payload")
    subs = {"{0}": under_test, "{msg}": tmp_path / "msg", **files}
    argv = [str(subs.get(a, a)) for a in CLI_READERS[name]]
    return argv + ([] if argv[0] == "verify" else ["--out", str(tmp_path / "out")])


def _run_cli(tmp_path, name, mutated, capsys):
    (tmp_path / "mutated").write_bytes(mutated.encode())
    argv = _cli_argv(tmp_path, name, tmp_path / "mutated")
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "Traceback" not in err
    return err


def test_cli_reads_every_record_type_unmutated(tmp_path, capsys):
    for name in CLI_READERS:
        assert cli.main(_cli_argv(tmp_path, name, tmp_path / name)) == 0, name
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(RECORDS))
@pytest.mark.parametrize("mutation", ["space before =", "carriage return", "drop"])
def test_cli_on_mutated_file_exits_1_with_one_line(tmp_path, capsys, name, mutation):
    lines = _lines(RECORDS[name][0])
    _run_cli(tmp_path, name, _join(LINE_MUTATIONS[mutation](lines, len(lines) - 1)), capsys)


def test_cli_found_cases_exit_1_with_one_line(tmp_path, capsys):
    sig = RECORDS["glyph-signature"][0]
    for prefix in ["+", "0"]:
        err = _run_cli(tmp_path, "glyph-signature", sig.replace("\nz1=", "\nz1=" + prefix), capsys)
        assert "z1" in err
    ct = RECORDS["bgv-ciphertext"][0]
    err = _run_cli(tmp_path, "bgv-ciphertext", re.sub("parts=[0-9]+", "parts=x", ct), capsys)
    assert "parts" in err
    prm = _with_fields(RECORDS["bgv-params"][0], chain="0,5")
    assert "need p^r < q_0" in _run_cli(tmp_path, "bgv-params", prm, capsys)
