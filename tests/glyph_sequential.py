"""GLYPH's sign loop one candidate at a time, as it drew and multiplied
before `sign` took its candidates in batches: each iteration reads y1 and
y2 by `uniform_array` and forms a*y1 + y2 alone.  The tests' reference for
`glyph.sign`'s signatures, iteration counts and the stream it leaves; and
`verify` as it was before its fused product, for its verdicts."""

import numpy as np

from latticelab import glyph
from latticelab.errors import RejectionOverflow
from latticelab.glyph import (GlyphSignature, VerifyResult, _challenge_product, _pairs_of,
                              _sparse, _window_rows, challenge_pairs, encode_poly, hash_to_sparse)
from latticelab.polyring import RingElement, check_same_params, ring_mul, ring_mul_vec


def sign_sequential(sk, pk, message, p, rng):
    q, n = p.ring.q, p.n
    for x in (sk.s, sk.e, pk.a):
        check_same_params(x.params, p.ring, "a key's ring", "the GLYPH ring's")
    win_s, win_e = sk.windows
    for it in range(1, glyph.MAX_SIGN_ITERS + 1):
        y1 = rng.uniform_array(2 * p.b + 1, n) - p.b
        y2 = rng.uniform_array(2 * p.b + 1, n) - p.b
        w = RingElement._of((ring_mul_vec(pk.a, y1) + y2) % q, p.ring)
        pairs = challenge_pairs(encode_poly(w, p) + message, p)
        rows = _window_rows(pairs, n)
        z1 = y1 + _challenge_product(win_s, rows)
        if np.abs(z1).max() > p.beta:
            continue  # z2 draws no randomness, so skipping it keeps the stream
        z2 = y2 + _challenge_product(win_e, rows)
        if np.abs(z2).max() <= p.beta:
            return GlyphSignature(c=_sparse(pairs, p), z1=RingElement._of(z1 % q, p.ring),
                                  z2=RingElement._of(z2 % q, p.ring)), it
    raise RejectionOverflow(f"no acceptable signature in {glyph.MAX_SIGN_ITERS} iterations")


def verify_by_ring_mul(pk, message, sig, p):
    """Centered norms by `inf_norm`, and w' = a*z1 + z2 - t*c by `ring_mul`
    and an int64 reduction."""
    if sig.z1.inf_norm() > p.beta or sig.z2.inf_norm() > p.beta:
        return VerifyResult(False, "norm")
    pairs = _pairs_of(sig.c, p)
    if pairs is None:
        return VerifyResult(False, "challenge mismatch")
    tc = _challenge_product(pk.t_windows, _window_rows(pairs, p.n))
    w = (ring_mul(pk.a, sig.z1).vec + sig.z2.vec - tc) % p.ring.q
    c_prime = hash_to_sparse(encode_poly(RingElement._of(w, p.ring), p) + message, p)
    if not np.array_equal(c_prime.vec, sig.c.vec):
        return VerifyResult(False, "challenge mismatch")
    return VerifyResult(True)
