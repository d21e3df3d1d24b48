import copy
import hashlib
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticelab import glyph
from latticelab.errors import InvalidParams, ParamMismatch, RejectionOverflow
from latticelab.fileio import dump_record
from latticelab.glyph import (
    GlyphParams,
    GlyphSecretKey,
    GlyphSignature,
    _bounded_uniform,
    _challenge_product,
    _pairs_of,
    _window_rows,
    _windows,
    challenge_pairs,
    encode_poly,
    hash_to_sparse,
    keygen,
    sign,
    verify,
)
from latticelab.polyring import (RingElement, RingParams, ring_add, ring_from_coeffs, ring_mul,
                                 ring_sub)
from latticelab.rng import BLOCK_BYTES, SeededRng
from latticelab.zq import Modulus, next_prime
from glyph_sequential import sign_sequential, verify_by_ring_mul

TOY = GlyphParams(n=16, q=Modulus(257), b=63, k=4)
CRAMPED = GlyphParams(n=16, q=Modulus(257), b=4, k=4)  # beta = 0: no signature in reach


def test_fixed_seed_signature_is_golden():
    """A signature that took 23 rejection iterations hashes to the bytes
    the sign loop has produced for these seeds since stream v2."""
    p = GlyphParams()
    sk, pk = keygen(p, SeededRng(b"\x11" * 32))
    sig, iters = sign(sk, pk, b"golden message", p, SeededRng(b"\x23" * 32))
    assert iters == 23
    digest = hashlib.sha256(dump_record("glyph-signature", sig, p).encode()).hexdigest()
    assert digest == "c6eeeaec3c278a755b2b130c63f3dee6d1067dee1862c9db04c14a1c3068f5a7"


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


def test_params_refuse_k_past_n_and_b_plus_k_from_q_over_2():
    """k > n leaves hash_to_sparse no k distinct positions to place; from
    b + k >= q/2 on, a centered z = y + s*c can wrap mod q."""
    assert GlyphParams(n=16, k=16).k == 16
    with pytest.raises(InvalidParams, match="k <= n"):
        GlyphParams(n=16, k=17)
    q = 59393  # (q - 1) / 2 = 29696 is the largest b + k
    assert GlyphParams(q=Modulus(q), b=29696 - 16).beta == 29680 - 16
    with pytest.raises(InvalidParams, match="q/2"):
        GlyphParams(q=Modulus(q), b=29697 - 16)
    with pytest.raises(InvalidParams, match="q/2"):
        GlyphParams(n=16, q=Modulus(257), b=125, k=4)
    assert GlyphParams(n=16, q=Modulus(257), b=124, k=4).b == 124


def test_params_refuse_a_q_whose_verify_sums_pass_int64():
    """verify's w' = a*z1 + z2 - t*c adds k + 2 residues in int64."""
    assert 3 * BIG_Q < 2**63 <= 4 * BIG_Q
    assert GlyphParams(n=16, q=Modulus(BIG_Q), b=63, k=1).k == 1
    with pytest.raises(InvalidParams, match="int64"):
        GlyphParams(n=16, q=Modulus(BIG_Q), b=63, k=2)


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
    zero = ring_from_coeffs([0], TOY.ring)
    sk = GlyphSecretKey(s=zero, e=zero)
    _, pk_real = keygen(TOY, rng)
    from latticelab.glyph import GlyphPublicKey

    pk = GlyphPublicKey(a=pk_real.a, t=ring_mul(pk_real.a, zero))
    sig, iters = sign(sk, pk, b"m", TOY, rng)
    assert verify(pk, b"m", sig, TOY).accepted


def test_verification_identity_symbolic(rng):
    # a*z1 + z2 - t*c == a*y1 + y2 for honestly built signatures
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
    sk, pk = keygen(CRAMPED, rng)
    with pytest.raises(RejectionOverflow):
        sign(sk, pk, b"m", CRAMPED, rng)


def test_sign_refuses_a_secret_key_that_is_not_ternary(rng):
    """|s*c| <= k, the bound beta = b - k and the int64 challenge product
    all rest on a ternary key."""
    sk, pk = keygen(TOY, rng)
    for name in ("s", "e"):
        vec = getattr(sk, name).vec.copy()
        vec[3] = 2
        bad = GlyphSecretKey(**{**vars(sk), name: RingElement(vec, TOY.ring)})
        with pytest.raises(InvalidParams, match="ternary"):
            sign(bad, pk, b"m", TOY, rng)


def test_a_key_that_is_not_ternary_is_refused_on_every_call(rng):
    """A failed check caches nothing: the second call checks again."""
    sk, pk = keygen(TOY, rng)
    vec = sk.s.vec.copy()
    vec[0] = 2
    bad = GlyphSecretKey(s=RingElement(vec, TOY.ring), e=sk.e)
    for _ in range(3):
        with pytest.raises(InvalidParams, match="ternary"):
            sign(bad, pk, b"m", TOY, rng)
    assert "windows" not in vars(bad)


def test_sign_refuses_a_secret_key_from_another_ring(rng):
    sk, pk = keygen(TOY, rng)
    other = GlyphParams(n=32, q=Modulus(257), b=63, k=4)
    sk_other, _ = keygen(other, rng)
    with pytest.raises(ParamMismatch):
        sign(sk_other, pk, b"m", TOY, rng)


# q on the NTT at every n here (59393 = 1 + 29 * 2^11), on it up to n = 128
# (257), and a prime near 2^61 whose products run on Python ints
BIG_Q = next_prime((1 << 61) + 1, 4)
assert BIG_Q % 4 == 1 and BIG_Q < 1 << 62


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@example(data=None)  # n = 1024, k = 16 at GLYPH's q, ends included
def test_challenge_product_matches_ring_mul(data):
    """x*c from `_windows` and `_window_rows` equals ring_mul(x, c) for any k
    signed positions, 0 and n - 1 among them or not: for ternary x, as
    `sign` takes s*c and e*c from the pairs, and for residues x, as
    `verify` takes t*c from the pairs `_pairs_of` reads back from c."""
    if data is None:
        n, q, k, ends, seed = 1024, 59393, 16, {0, 1023}, 0
    else:
        n = data.draw(st.sampled_from([1 << e for e in range(1, 11)]) | st.integers(2, 1024))
        q = data.draw(st.sampled_from([257, 59393, BIG_Q]))
        k = data.draw(st.integers(1, n))
        ends = data.draw(st.sets(st.sampled_from([0, n - 1]), max_size=min(k, 2)))
        seed = data.draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    rest = gen.permutation(sorted(set(range(n)) - ends))[: k - len(ends)]
    pos = np.concatenate([sorted(ends), rest]).astype(np.int64)
    ring = RingParams(f=(1,) + (0,) * (n - 1) + (1,), q=q)
    pairs = dict(zip(pos.tolist(), np.where(gen.integers(0, 2, k) == 1, 1, -1).tolist()))
    cv = np.zeros(n, dtype=np.int64)
    cv[list(pairs)] = [v % q for v in pairs.values()]
    c = RingElement(cv, ring)
    rows = _window_rows(pairs, n)
    x = gen.integers(-1, 2, n)
    got = _challenge_product(_windows(x.astype(np.int8)), rows)  # as the secret key holds it
    assert np.abs(got).max() <= k
    assert np.array_equal(got.astype(np.int64) % q, ring_mul(RingElement(x % q, ring), c).vec)
    # verify's t*c: the rows of c's own pairs, over the residues of t, where
    # GlyphParams admits q at this k (BIG_Q only up to k = 1)
    params = types.SimpleNamespace(k=k, ring=ring)
    assert _pairs_of(c, params) == pairs
    if (k + 2) * q < 2**63:
        t = RingElement(gen.integers(0, q, n), ring)
        tc = _challenge_product(_windows(t.vec), _window_rows(_pairs_of(c, params), n))
        assert np.array_equal(tc % q, ring_mul(t, c).vec)


def test_pairs_of_refuses_what_no_challenge_is():
    """verify reads t*c from c's pairs only when c has exactly k entries +-1."""
    q = int(TOY.q)
    c = hash_to_sparse(b"m", TOY)
    assert _pairs_of(c, TOY) == challenge_pairs(b"m", TOY)
    pos = int(np.flatnonzero(c.vec)[0])
    for value in (0, 2, q - 2):  # one entry fewer, one entry off +-1 either way
        vec = c.vec.copy()
        vec[pos] = value
        assert _pairs_of(RingElement(vec, TOY.ring), TOY) is None
    vec = c.vec.copy()
    vec[np.flatnonzero(vec == 0)[0]] = 1  # one entry more
    assert _pairs_of(RingElement(vec, TOY.ring), TOY) is None


def test_verify_rejects_a_challenge_of_the_wrong_shape(rng):
    sk, pk = keygen(TOY, rng)
    sig, _ = sign(sk, pk, b"m", TOY, rng)
    for vec in (np.zeros(TOY.n, dtype=np.int64), sig.c.vec * 2 % int(TOY.q)):
        bad = GlyphSignature(c=RingElement(vec, TOY.ring), z1=sig.z1, z2=sig.z2)
        assert verify(pk, b"m", bad, TOY) == glyph.VerifyResult(False, "challenge mismatch")


def sign_by_ring_mul(sk, pk, message, p, rng):
    """The sign loop as it was before the challenge product: s*c and e*c by
    ring_mul, and the norms tested on residues mod q.  The reference for
    `sign`."""
    for it in range(1, glyph.MAX_SIGN_ITERS + 1):
        y1 = _bounded_uniform(p, p.b, rng)
        y2 = _bounded_uniform(p, p.b, rng)
        w = ring_add(ring_mul(pk.a, y1), y2)
        c = hash_to_sparse(encode_poly(w, p) + message, p)
        z1 = ring_add(ring_mul(sk.s, c), y1)
        if z1.inf_norm() > p.beta:
            continue
        z2 = ring_add(ring_mul(sk.e, c), y2)
        if z2.inf_norm() <= p.beta:
            return GlyphSignature(c=c, z1=z1, z2=z2), it
    raise RejectionOverflow(f"no acceptable signature in {glyph.MAX_SIGN_ITERS} iterations")


def _outcome(signer, sk, pk, message, p, rng):
    try:
        return signer(sk, pk, message, p, rng)
    except RejectionOverflow as e:
        return str(e)


@pytest.mark.parametrize("p", [TOY, CRAMPED, GlyphParams(), GlyphParams(n=256)],
                         ids=["toy", "cramped", "default", "n256"])
def test_sign_matches_the_ring_mul_loop(p, monkeypatch):
    """The same signature and iteration count as `sign_by_ring_mul`, and the
    stream left at the same place, for three messages per parameter set;
    CRAMPED overflows in both, after a shortened loop."""
    monkeypatch.setattr(glyph, "MAX_SIGN_ITERS", 300)
    sk, pk = keygen(p, SeededRng(bytes([p.n % 256, p.b % 256]) * 16))
    for i in range(3):
        message = b"message %d" % i
        rng = SeededRng(bytes([i + 1]) * 32)
        ref_rng = copy.deepcopy(rng)
        got = _outcome(sign, sk, pk, message, p, rng)
        assert got == _outcome(sign_by_ring_mul, sk, pk, message, p, ref_rng)
        assert isinstance(got, str) == (p is CRAMPED)
        assert (rng.counter, rng._buf) == (ref_rng.counter, ref_rng._buf)


# 59417 = 1 + 8 * 7427: x^16 + 1 does not split, so a*y1 takes ring_mul's convolution
@pytest.mark.parametrize("p", [TOY, GlyphParams(n=256), GlyphParams(n=16, q=Modulus(59417))],
                         ids=["toy", "n256", "off-ntt"])
def test_sign_with_keys_taken_in_turn_matches_the_ring_mul_loop(p):
    """Each key's tables are its own: signing with A, then B, then A again
    gives what `sign_by_ring_mul` gives for each, and leaves the stream
    where it does."""
    assert p.ring.uses_ntt == (p.q != 59417)
    keys = [keygen(p, SeededRng(bytes([i]) * 32)) for i in (1, 2)]
    tables = []
    for turn, (sk, pk) in enumerate([keys[0], keys[1], keys[0]]):
        message = b"turn %d" % turn
        rng = SeededRng(bytes([turn + 7]) * 32)
        ref_rng = copy.deepcopy(rng)
        assert sign(sk, pk, message, p, rng) == sign_by_ring_mul(sk, pk, message, p, ref_rng)
        assert (rng.counter, rng._buf) == (ref_rng.counter, ref_rng._buf)
        tables.append(sk.windows)
    assert tables[2] is tables[0] and tables[1] is not tables[0]  # A's, built once


# b far above k: a candidate is accepted about 19 times in 20, so most
# signatures stop at the first candidate of a batch
EAGER = GlyphParams(n=16, q=Modulus(7681), b=1000, k=2)
_KEYS = {}


def _keys(p):
    if p not in _KEYS:
        _KEYS[p] = keygen(p, SeededRng(bytes([p.n % 256, p.b % 256]) * 16))
    return _KEYS[p]


def _signed_with_state(signer, sk, pk, message, p, rng):
    """The signer's outcome (or its error's text) and the stream it leaves:
    counter, unread bytes, position and the next 3000 bytes."""
    out = _outcome(signer, sk, pk, message, p, rng)
    return out, (rng.counter, rng._buf, rng.position, rng.take_bytes(3000))


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([EAGER, TOY, GlyphParams()]),
       reads=st.lists(st.integers(0, 2 * BLOCK_BYTES), max_size=3),
       message=st.binary(max_size=40), seed=st.integers(0, 255))
@example(p=EAGER, reads=[BLOCK_BYTES - 1], message=b"m", seed=0)
@example(p=GlyphParams(), reads=[32, 2080], message=b"", seed=1)
def test_batched_sign_is_the_sequential_loop(p, reads, message, seed):
    """`sign`, drawing and multiplying SIGN_BATCH candidates at once, gives
    the sequential loop's signature and iteration count and leaves the
    stream where it does, from a stream read to any offset mod BLOCK_BYTES."""
    sk, pk = _keys(p)
    rng = SeededRng(bytes([seed]) * 32)
    for m in reads:
        rng.take_bytes(m)
    ref = copy.deepcopy(rng)
    assert (_signed_with_state(sign, sk, pk, message, p, rng)
            == _signed_with_state(sign_sequential, sk, pk, message, p, ref))


@pytest.mark.parametrize("limit", [1, 3, 7, 8])
def test_batched_sign_stops_after_exactly_max_sign_iters(limit, monkeypatch):
    """A loop that never accepts raises after MAX_SIGN_ITERS iterations, a
    multiple of SIGN_BATCH or not, having read those iterations' draws alone."""
    monkeypatch.setattr(glyph, "MAX_SIGN_ITERS", limit)
    sk, pk = keygen(CRAMPED, SeededRng(bytes(32)))
    rng, ref = SeededRng(bytes([5]) * 32), SeededRng(bytes([5]) * 32)
    got = _signed_with_state(sign, sk, pk, b"m", CRAMPED, rng)
    assert got == _signed_with_state(sign_sequential, sk, pk, b"m", CRAMPED, ref)
    assert got[0] == f"no acceptable signature in {limit} iterations"


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([TOY, GlyphParams(n=256), GlyphParams(n=16, q=Modulus(59417))]),
       data=st.data())
def test_verify_gives_the_verdicts_of_the_ring_mul_verify(p, data):
    """Signatures with coefficients of z1 or z2 moved to the norm test's
    edges (+-beta and +-(beta + 1), as residues), or with c, z or the
    message changed: the same verdict and reason as `verify_by_ring_mul`."""
    sk, pk = _keys(p)
    message = data.draw(st.binary(max_size=20))
    sig, _ = sign(sk, pk, message, p, SeededRng(bytes([len(message)]) * 32))
    q, beta = int(p.q), p.beta
    edges = [beta, q - beta, beta + 1, q - beta - 1, 0, q - 1]
    z = {"z1": sig.z1.vec.copy(), "z2": sig.z2.vec.copy()}
    for _ in range(data.draw(st.integers(0, 3))):
        which = data.draw(st.sampled_from(["z1", "z2"]))
        z[which][data.draw(st.integers(0, p.n - 1))] = data.draw(st.sampled_from(edges))
    c = sig.c.vec.copy()
    if data.draw(st.booleans()):
        c[data.draw(st.integers(0, p.n - 1))] = data.draw(st.sampled_from([0, 1, q - 1, 2]))
    told = message + b"!" * data.draw(st.integers(0, 1))
    bad = GlyphSignature(c=RingElement(c, p.ring), z1=RingElement(z["z1"], p.ring),
                         z2=RingElement(z["z2"], p.ring))
    assert verify(pk, told, bad, p) == verify_by_ring_mul(pk, told, bad, p)
    assert verify(pk, message, sig, p) == glyph.VerifyResult(True)
