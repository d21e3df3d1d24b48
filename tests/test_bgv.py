import time

import pytest

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
from latticelab.polyring import cyclotomic_poly, ring_add, ring_from_coeffs, ring_mul
from latticelab.rng import SeededRng
from latticelab.zq import next_prime


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
    from latticelab.polyring import cyclotomic_poly, poly_divmod_z, poly_mul_z

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
    broken = BgvCiphertext(parts=ct.parts, level=0, noise_bound=float(q))
    with pytest.raises(DecryptFail):
        decrypt(broken, sk, params)


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
