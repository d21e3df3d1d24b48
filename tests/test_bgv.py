import functools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelab.bgv import (
    BgvCiphertext,
    BgvParams,
    BgvSecretKey,
    decrypt,
    encrypt,
    eval_circuit,
    fresh_noise_bound,
    he_add,
    he_mul,
    keygen,
    setup,
    switch_down,
    validate_chain,
)
from latticelab.errors import (
    ChainOverflow,
    DecryptFail,
    InvalidParams,
    LengthMismatch,
    LevelExceeded,
    ParamMismatch,
)
from latticelab.polyring import (
    cyclotomic_poly,
    ring_add,
    ring_from_coeffs,
    ring_mul,
    ring_sub,
    ring_uniform,
)
from latticelab.rng import SeededRng
from latticelab.zq import is_prime, next_prime, reduce_centered
from polyz import poly_divmod_z, poly_mul_z


def std_params():
    return setup(m=32, p=2, r=1, levels=3)


def test_setup_builds_valid_chain():
    params = std_params()
    assert params.chain == (131, 17167, 294705899, 86851566905398247)
    assert params.levels == 3
    assert params.n == 16
    for i in range(3):
        lo, hi = params.chain[i], params.chain[i + 1]
        assert lo * lo <= hi and 2 * lo <= hi
        assert hi % 2 == 1  # coprime to p = 2


@pytest.mark.parametrize("p, r", [(2, 1), (3, 2), (17, 1), (131, 1)])
def test_setup_takes_the_first_prime_at_each_step(p, r):
    """q_0 is the first prime >= 128 other than p, and q_{i+1} the first prime
    = q_0 (mod p^r) at or above max(q_i^2, 2 q_i).  At (17, 1), q_2^2 is past
    2^53, where a float product would round it; p = 131 skips 131 for q_0."""
    chain = setup(m=32, p=p, r=r, levels=3).chain
    assert chain[0] == next(x for x in range(128, 256) if is_prime(x) and x != p)
    pr = p**r
    for lo, hi in zip(chain, chain[1:]):
        target = max(lo * lo, 2 * lo)
        start = target + (chain[0] - target) % pr
        assert hi == next(x for x in range(start, hi + 1, pr) if is_prime(x))


def test_setup_minimal_and_overflow():
    p1 = setup(m=16, p=2, r=1, levels=1)
    assert p1.levels == 1
    with pytest.raises(ChainOverflow):
        setup(m=16, p=2, r=1, levels=6)
    with pytest.raises(InvalidParams):
        setup(m=16, p=2, r=1, levels=0)


def test_validate_chain_rejects_bad_chains():
    with pytest.raises(InvalidParams):
        validate_chain((131, 1000), 2, 1)  # 1000 < 131^2
    with pytest.raises(InvalidParams):
        validate_chain((131,), 2, 1)
    with pytest.raises(InvalidParams):
        validate_chain((3, 15), 3, 1)  # 15 divisible by p=3
    with pytest.raises(InvalidParams, match="coprime to p"):
        validate_chain((6, 36), 3, 1)  # q_0 = 6 divisible by p=3
    validate_chain((131, 17167), 2, 1)


def test_level_modulus_mapping():
    params = std_params()
    assert params.modulus_at_level(0) == params.chain[3]
    assert params.modulus_at_level(3) == params.chain[0]


def test_keygen_ternary_and_balanced():
    params = BgvParams(m=2048, p=2, r=1, chain=std_params().chain)
    sk = keygen(params, SeededRng(b"\x61" * 32))
    assert len(sk.coeffs) == 1024
    assert set(sk.coeffs) <= {-1, 0, 1}
    plus, minus = sk.coeffs.count(1), sk.coeffs.count(-1)
    assert abs(plus - minus) < 0.05 * 1024


def test_keygen_reproducible():
    params = std_params()
    a = keygen(params, SeededRng(b"\x62" * 32))
    b = keygen(params, SeededRng(b"\x62" * 32))
    assert a.coeffs == b.coeffs


def test_encrypt_equation(rng):
    # p_0 + s * p_1 = alpha + p^r * e over centered representatives
    params = setup(m=32, p=3, r=2, levels=2)
    sk = keygen(params, rng)
    pt = [1, 0, 8, 4, 7]
    ct = encrypt(pt, sk, params, rng)
    assert ct.level == 0 and ct.noise_bound == fresh_noise_bound(params)
    ring = params.ring_at_level(0)
    s = ring_from_coeffs(sk.coeffs, ring)
    msg = ring_add(ct.parts[0], ring_mul(s, ct.parts[1])).centered()
    alpha = pt + [0] * (params.n - len(pt))
    e = [(c - a) // 9 for c, a in zip(msg, alpha)]
    assert [a + 9 * x for a, x in zip(alpha, e)] == msg
    assert max(map(abs, e)) <= ct.noise_bound
    assert any(e) and any(ct.parts[1].coeffs)
    assert decrypt(ct, sk, params) == alpha


def test_params_refuse_chain_above_cap():
    chain = (131, next_prime(2**64))  # valid but for q_L > 2^62
    with pytest.raises(InvalidParams):
        validate_chain(chain, 2, 1)
    with pytest.raises(InvalidParams):
        BgvParams(m=32, p=2, r=1, chain=chain)


def test_roundtrip_fresh(rng):
    params = std_params()
    sk = keygen(params, rng)
    for _ in range(25):
        pt = [int(b) for b in rng.uniform_array(2, 16)]
        assert decrypt(encrypt(pt, sk, params, rng), sk, params) == pt


def test_roundtrip_with_a_composite_chain_modulus(rng):
    # validate_chain accepts composite moduli; 9409 = 97^2 = 1 (mod 32), so
    # x^16 + 1 mod 9409 looks split but has no NTT
    params = BgvParams(m=32, p=2, r=1, chain=(97, 9409))
    sk = keygen(params, rng)
    for _ in range(5):
        pt = [int(b) for b in rng.uniform_array(2, 16)]
        assert decrypt(encrypt(pt, sk, params, rng), sk, params) == pt


def test_plaintext_too_long(rng):
    params = std_params()
    sk = keygen(params, rng)
    with pytest.raises(InvalidParams):
        encrypt([0] * 17, sk, params, rng)


def test_switch_down_preserves_plaintext(rng):
    params = std_params()
    sk = keygen(params, rng)
    for _ in range(1000):
        pt = [int(b) for b in rng.uniform_array(2, 16)]
        ct = encrypt(pt, sk, params, rng)
        down = switch_down(ct, params)
        assert down.level == 1
        assert decrypt(down, sk, params) == pt


def switch_down_by_coefficient(ct, params):
    """The parts of `switch_down(ct, params)`, rounded one coefficient at a
    time on Python ints, with centering written out: the reference for its
    array rounding."""
    def centered(x, q):
        r = x % q
        return r if 2 * r <= q else r - q

    q = params.modulus_at_level(ct.level)
    ring_next = params.ring_at_level(ct.level + 1)
    pr = params.pt_modulus
    parts = []
    for part in ct.parts:
        out = []
        for c in part.coeffs:
            x = centered(c, q)
            v = (2 * x * ring_next.q + q) // (2 * q)
            out.append(v + centered(x - v, pr))
        parts.append(ring_from_coeffs(out, ring_next))
    return tuple(parts)


@pytest.mark.parametrize("m", [9, 32, 255])
@pytest.mark.parametrize("p, r", [(2, 1), (3, 2)])
def test_switch_down_matches_the_per_coefficient_rounding(m, p, r):
    """Three uniform parts and one of the residues at the centering
    boundary, from every level; at m = 255 the top ring's products
    run on Python ints."""
    params = setup(m=m, p=p, r=r, levels=3)
    rng = SeededRng(bytes([m, p, r, 0]) * 8)
    for level in range(params.levels):
        ring = params.ring_at_level(level)
        q = ring.q
        edges = ring_from_coeffs([0, 1, q // 2, q // 2 + 1, q - 1], ring)
        parts = tuple(ring_uniform(ring, rng) for _ in range(3)) + (edges,)
        ct = BgvCiphertext(parts=parts, level=level, noise_bound=1.0)
        assert switch_down(ct, params).parts == switch_down_by_coefficient(ct, params)


def test_switch_down_bottoms_out(rng):
    params = std_params()
    sk = keygen(params, rng)
    ct = encrypt([1], sk, params, rng)
    for _ in range(3):
        ct = switch_down(ct, params)
    with pytest.raises(LevelExceeded):
        switch_down(ct, params)


def test_he_add_homomorphism(rng):
    params = std_params()
    sk = keygen(params, rng)
    for _ in range(25):
        a = [int(b) for b in rng.uniform_array(2, 16)]
        b = [int(b) for b in rng.uniform_array(2, 16)]
        ct = he_add(encrypt(a, sk, params, rng), encrypt(b, sk, params, rng), params)
        assert ct.level == 1
        assert decrypt(ct, sk, params) == [(x + y) % 2 for x, y in zip(a, b)]


def clear_mul(a, b, m, pr):
    """Plaintext-side product in Z_{p^r}[x]/(Phi_m), independent arithmetic."""
    f = cyclotomic_poly(m)
    n = len(f) - 1
    rem = poly_divmod_z(poly_mul_z(list(a), list(b)), f)[1]
    rem = [c % pr for c in rem]
    return rem + [0] * (n - len(rem))


def test_he_mul_homomorphism(rng):
    params = std_params()
    sk = keygen(params, rng)
    for _ in range(25):
        a = [int(b) for b in rng.uniform_array(2, 16)]
        b = [int(b) for b in rng.uniform_array(2, 16)]
        ct = he_mul(encrypt(a, sk, params, rng), encrypt(b, sk, params, rng), params)
        assert ct.level == 1
        assert len(ct.parts) == 3
        assert decrypt(ct, sk, params) == clear_mul(a, b, 32, 2)


def test_part_count_arithmetic(rng):
    params = std_params()
    sk = keygen(params, rng)
    c1 = encrypt([1], sk, params, rng)
    c2 = encrypt([1, 1], sk, params, rng)
    prod = he_mul(c1, c2, params)
    assert len(prod.parts) == 3
    prod2 = he_mul(prod, he_add(c1, c2, params), params)
    assert len(prod2.parts) == 4


def test_level_rules(rng):
    params = std_params()
    sk = keygen(params, rng)
    fresh = encrypt([1], sk, params, rng)
    low = switch_down(fresh, params)
    with pytest.raises(ParamMismatch):
        he_add(fresh, low, params)
    bottom = switch_down(switch_down(low, params), params)
    assert bottom.level == 3
    with pytest.raises(LevelExceeded):
        he_mul(bottom, bottom, params)
    with pytest.raises(LevelExceeded):
        he_add(bottom, bottom, params)


def test_injected_noise_decrypt_fail(rng):
    params = std_params()
    sk = keygen(params, rng)
    ct = encrypt([1], sk, params, rng)
    q = params.modulus_at_level(0)
    for bound in (float(q), math.inf, math.nan):
        broken = BgvCiphertext(parts=ct.parts, level=0, noise_bound=bound)
        with pytest.raises(DecryptFail):
            decrypt(broken, sk, params)


def measured_noise(ct, sk, params, alpha):
    """max |e| over the coefficients of epsilon = alpha + p^r * e, the sum of
    parts[j] * s^j over Z[x]/(Phi_m) centered mod q_i, or None where that sum
    is not alpha mod p^r (the noise wrapped).  Schoolbook arithmetic on
    Python ints, apart from the ring code that `decrypt` uses."""
    f, q, pr = list(params.f), params.modulus_at_level(ct.level), params.pt_modulus
    acc = []
    for part in reversed(ct.parts):
        prod = poly_divmod_z(poly_mul_z(acc, list(sk.coeffs)), f)[1] if acc else []
        prod += [0] * (params.n - len(prod))
        acc = [x + c for x, c in zip(prod, part.coeffs)]
    diffs = [reduce_centered(x, q) - a for x, a in zip(acc, alpha)]
    if any(d % pr for d in diffs):
        return None
    return max(abs(d) // pr for d in diffs)


def ciphertext_with_noise(params, sk, level, alpha, e, bound, rng):
    """A two-part ciphertext at `level` whose sum p_0 + p_1 * s is alpha + p^r * e."""
    ring = params.ring_at_level(level)
    p1 = ring_uniform(ring, rng)
    eps = [a + params.pt_modulus * x for a, x in zip(alpha, e)]
    p0 = ring_sub(ring_from_coeffs(eps, ring), ring_mul(ring_from_coeffs(sk.coeffs, ring), p1))
    return BgvCiphertext(parts=(p0, p1), level=level, noise_bound=bound)


@pytest.mark.parametrize("m, p, r, last_ok", [(32, 2, 1, 32), (9, 3, 2, 6)])
@pytest.mark.parametrize("over", [0, 0.99, 1, 2])
def test_decrypt_guard_at_its_boundary(rng, m, p, r, last_ok, over):
    """At level 3, q = 131.  With alpha = p^r - 1 and |e| <= B, the sum
    reaches p^r * (B + 1) - 1, which centering keeps below 65.5 up to
    `last_ok` (2 * 33 - 1 = 65, 9 * 7 - 1 = 62) and wraps one further
    (67 reads back as 0; 71 as 3, not 8).  So a bound below last_ok + 1
    decrypts and any other is refused; (32, 2, 1) at B = 34 is the
    ciphertext that a guard at bound >= q/p^r let through, decrypting 1 as 0."""
    params = setup(m=m, p=p, r=r, levels=3)
    assert params.modulus_at_level(3) == 131
    pr, n = params.pt_modulus, params.n
    bound = last_ok + over
    e = [math.floor(bound), -math.floor(bound)] + [0] * (n - 2)
    alpha = [pr - 1, 0] + [0] * (n - 2)
    sk = keygen(params, rng)
    ct = ciphertext_with_noise(params, sk, 3, alpha, e, bound, rng)
    if bound < last_ok + 1:
        assert measured_noise(ct, sk, params, alpha) == math.floor(bound)
        assert decrypt(ct, sk, params) == alpha
    else:
        with pytest.raises(DecryptFail):
            decrypt(ct, sk, params)
        # the refusal is needed: under a bound the guard passes, this noise reads back wrong
        assert measured_noise(ct, sk, params, alpha) is None
        unguarded = BgvCiphertext(parts=ct.parts, level=3, noise_bound=0.0)
        assert decrypt(unguarded, sk, params) != alpha


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="switch_down's rounding term counts ||s^j||_inf where "
                   "||delta_j * s^j||_inf, up to n times larger, needs covering")
def test_switch_down_bound_covers_the_noise():
    """The carried bound after one switch of a fresh ciphertext (2.0000001
    at m = 32, p = 2) against the measured max |e| (3 at this seed).  Seed
    bytes([i]) * 32 for the first i = 1, 2, ... whose noise exceeds the
    bound: 31 of i = 1..200 do."""
    params = std_params()
    rng = SeededRng(bytes([13]) * 32)
    sk = keygen(params, rng)
    a = [int(v) for v in rng.uniform_array(2, 16)]
    ct = switch_down(encrypt(a, sk, params, rng), params)
    assert decrypt(ct, sk, params) == a
    assert measured_noise(ct, sk, params, a) <= ct.noise_bound


@functools.cache
def circuit_params(m, p, r):
    return setup(m=m, p=p, r=r, levels=3)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_random_circuits_decrypt_to_their_clear_value_or_refuse(data):
    """Random ADD/MUL circuits at m in {9, 32} and p^r in {2, 9}.  Every wire
    decrypts to its value computed in the clear or raises DecryptFail, and
    running the circuit again with larger input bounds (still bounds) lowers
    no wire's bound."""
    m = data.draw(st.sampled_from([9, 32]))
    p, r = data.draw(st.sampled_from([(2, 1), (3, 2)]))
    params = circuit_params(m, p, r)
    pr, n = params.pt_modulus, params.n
    rng = SeededRng(data.draw(st.binary(min_size=32, max_size=32)))
    sk = keygen(params, rng)
    inputs = "xyz"[: data.draw(st.integers(1, 3))]
    clear = {w: data.draw(st.lists(st.integers(0, pr - 1), min_size=n, max_size=n))
             for w in inputs}
    levels = dict.fromkeys(inputs, 0)
    lines = []
    for g in range(data.draw(st.integers(1, 5))):
        usable = [w for w in levels if levels[w] < params.levels]
        op, a, b = (data.draw(st.sampled_from(x)) for x in (["ADD", "MUL"], usable, usable))
        lines.append(f"{op} t{g} {a} {b}")
        levels[f"t{g}"] = max(levels[a], levels[b]) + 1
        clear[f"t{g}"] = ([(x + y) % pr for x, y in zip(clear[a], clear[b])] if op == "ADD"
                          else clear_mul(clear[a], clear[b], m, pr))
    fresh = {w: encrypt(clear[w], sk, params, rng) for w in inputs}
    raised = {w: BgvCiphertext(ct.parts, ct.level, ct.noise_bound + data.draw(st.floats(0, 1e9)))
              for w, ct in fresh.items()}
    wires = eval_circuit(lines, fresh, params)
    wires_raised = eval_circuit(lines, raised, params)
    for w, ct in wires.items():
        assert ct.level == levels[w]
        assert wires_raised[w].noise_bound >= ct.noise_bound
        for c in (ct, wires_raised[w]):
            try:
                assert decrypt(c, sk, params) == clear[w]
            except DecryptFail:
                pass


def test_decrypt_level_out_of_range(rng):
    params = std_params()
    sk = keygen(params, rng)
    ct = encrypt([1], sk, params, rng)
    bad = BgvCiphertext(parts=ct.parts, level=4, noise_bound=ct.noise_bound)
    with pytest.raises(LevelExceeded):
        decrypt(bad, sk, params)


def test_negative_level_is_a_domain_error(rng):
    params = std_params()
    sk = keygen(params, rng)
    ct = encrypt([1], sk, params, rng)
    bad = BgvCiphertext(parts=ct.parts, level=-1, noise_bound=ct.noise_bound)
    for op in (lambda: decrypt(bad, sk, params), lambda: he_add(bad, bad, params),
               lambda: he_mul(bad, bad, params), lambda: switch_down(bad, params)):
        with pytest.raises(LevelExceeded):
            op()


def test_f_is_computed_once():
    params = std_params()
    assert params.f is params.f
    assert list(params.f) == cyclotomic_poly(32)


def test_depth2_circuit(rng):
    params = std_params()
    sk = keygen(params, rng)
    for _ in range(10):
        a = [int(v) for v in rng.uniform_array(2, 16)]
        b = [int(v) for v in rng.uniform_array(2, 16)]
        c = [int(v) for v in rng.uniform_array(2, 16)]
        wires = eval_circuit(
            ["# product then sum", "MUL t a b", "ADD out t c"],
            {
                "a": encrypt(a, sk, params, rng),
                "b": encrypt(b, sk, params, rng),
                "c": encrypt(c, sk, params, rng),
            },
            params,
        )
        expect = [(x + y) % 2 for x, y in zip(clear_mul(a, b, 32, 2), c)]
        assert wires["out"].level == 2
        assert decrypt(wires["out"], sk, params) == expect
        # the fresher ciphertext on the left: c is switched down to t's level
        wires = eval_circuit(["MUL t a b", "ADD out c t"], wires, params)
        assert wires["out"].level == 2
        assert decrypt(wires["out"], sk, params) == expect


def test_circuit_rejects_garbage(rng):
    params = std_params()
    sk = keygen(params, rng)
    ct = encrypt([1], sk, params, rng)
    with pytest.raises(InvalidParams):
        eval_circuit(["XOR t a a"], {"a": ct}, params)
    with pytest.raises(InvalidParams):
        eval_circuit(["ADD t a ghost"], {"a": ct}, params)


def test_modulus_index_bookkeeping(rng):
    params = std_params()
    sk = keygen(params, rng)
    ct = encrypt([1], sk, params, rng)
    assert ct.modulus_index(params) == 3
    assert switch_down(ct, params).modulus_index(params) == 2


@pytest.mark.parametrize("m, p, r", [(0, 2, 1), (32, 0, 1), (32, 1, 1), (32, 4, 1), (32, 2, 0)])
def test_params_need_positive_m_prime_p_and_positive_r(m, p, r):
    with pytest.raises(InvalidParams):
        setup(m=m, p=p, r=r, levels=2)
    with pytest.raises(InvalidParams):
        BgvParams(m=m, p=p, r=r, chain=std_params().chain)


def test_secret_key_length_must_match_the_ring():
    params = std_params()
    sk = keygen(params, SeededRng(b"\x21" * 32))
    ct = encrypt([1], sk, params, SeededRng(b"\x22" * 32))
    for coeffs in (sk.coeffs[:-1], sk.coeffs + (0,)):
        short = BgvSecretKey(coeffs=coeffs)
        with pytest.raises(LengthMismatch):
            encrypt([1], short, params, SeededRng(b"\x22" * 32))
        with pytest.raises(LengthMismatch):
            decrypt(ct, short, params)


def test_ring_at_level_is_one_cached_ring_per_level():
    params = std_params()
    rings = [params.ring_at_level(level) for level in range(4)]
    assert [int(r.q) for r in rings] == list(reversed(params.chain))
    assert all(r.f == params.f for r in rings)
    assert params.ring_at_level(2) is rings[2]
    for bad in (-1, 4):
        with pytest.raises(LevelExceeded):
            params.ring_at_level(bad)


def test_params_refuse_huge_m_and_plaintext_modulus_at_once():
    chain = std_params().chain  # q_0 = 131
    start = time.perf_counter()
    for bad in ({"m": 4097}, {"m": 999999999999999989}, {"r": 999999999999999999},
                {"r": 8}, {"p": 3, "r": 5}):
        with pytest.raises(InvalidParams):
            BgvParams(**{"m": 32, "p": 2, "r": 1, "chain": chain, **bad})
    with pytest.raises(InvalidParams):
        setup(m=999999999999999989, p=2, r=1, levels=2)
    assert time.perf_counter() - start < 1.0
    chain7 = setup(m=4096, p=2, r=7, levels=3).chain
    assert BgvParams(m=4096, p=2, r=7, chain=chain7).pt_modulus == 128


@pytest.mark.parametrize("m, n", [(21, 12), (15, 8)])
def test_rings_beyond_x_n_plus_1(rng, m, n):
    """Phi_21 and Phi_15 are not x^n + 1, so every level takes the general product."""
    params = setup(m=m, p=2, r=1, levels=3)
    assert params.n == n and not params.ring_at_level(3).negacyclic
    pr = params.pt_modulus
    sk = keygen(params, rng)
    for _ in range(8):
        a, b, c = ([int(v) for v in rng.uniform_array(pr, n)] for _ in range(3))
        ca, cb, cc = (encrypt(x, sk, params, rng) for x in (a, b, c))
        assert decrypt(ca, sk, params) == a
        assert decrypt(he_add(ca, cb, params), sk, params) == [(x + y) % pr for x, y in zip(a, b)]
        ab = clear_mul(a, b, m, pr)
        assert decrypt(he_mul(ca, cb, params), sk, params) == ab
        wires = eval_circuit(["MUL t a b", "ADD out t c"], {"a": ca, "b": cb, "c": cc}, params)
        assert wires["out"].level == 2
        assert decrypt(wires["out"], sk, params) == [(x + y) % pr for x, y in zip(ab, c)]


def test_chain_moduli_agree_mod_the_plaintext_modulus():
    for m, p, r in ((15, 3, 2), (32, 5, 1), (32, 7, 1), (32, 2, 3)):
        chain = setup(m=m, p=p, r=r, levels=3).chain
        assert len({q % p**r for q in chain}) == 1
    with pytest.raises(InvalidParams):
        validate_chain((131, 17167), 5, 1)  # 131 = 1 and 17167 = 2 (mod 5)
    with pytest.raises(InvalidParams):
        BgvParams(m=32, p=5, r=1, chain=std_params().chain)


@pytest.mark.parametrize("m, p, r", [(15, 3, 2), (32, 5, 1)])
def test_switching_keeps_the_plaintext_for_odd_p(m, p, r):
    """Two switches and the depth-2 circuit, for plaintext moduli other than 2."""
    params = setup(m=m, p=p, r=r, levels=3)
    pr, n = params.pt_modulus, params.n
    rng = SeededRng(bytes(range(32)))
    sk = keygen(params, rng)
    for _ in range(10):
        a, b, c = ([int(v) for v in rng.uniform_array(pr, n)] for _ in range(3))
        ca, cb, cc = (encrypt(x, sk, params, rng) for x in (a, b, c))
        assert decrypt(switch_down(switch_down(ca, params), params), sk, params) == a
        wires = eval_circuit(["MUL t a b", "ADD out t c"], {"a": ca, "b": cb, "c": cc}, params)
        assert wires["out"].level == 2
        ab = clear_mul(a, b, m, pr)
        assert decrypt(wires["out"], sk, params) == [(x + y) % pr for x, y in zip(ab, c)]
