"""Acceptance experiments, one per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to watch the lines appear
as the experiments complete.  Every experiment is seeded, so reruns are
bit-identical.
"""

import time
from contextlib import contextmanager

import numpy as np

from latticelab import bgv, glyph, lwe, plwe
from latticelab.attacks import decide_alg1, decide_alg2, weakness_scan
from latticelab.cli import main as cli_main
from latticelab.errors import LevelExceeded
from latticelab.gaussian import GaussianParams, pmf_int, sample_int_array
from latticelab.glyph import GlyphSignature
from latticelab.numberfield import discriminant, discriminant_numeric
from latticelab.polyring import (
    RingElement,
    cyclotomic_poly,
    evaluate,
    ring_add,
    ring_from_coeffs,
    ring_mul,
    ring_sub,
    roots_mod_q,
)
from latticelab.rng import SeededRng
from latticelab.zq import Modulus, is_prime
from polyz import poly_divmod_z, poly_mul_z

from tests.conftest import MASTER_SEED
from tests.test_attacks import attack_corpus, crafted_params, order2_params


def arng(label):
    return SeededRng(MASTER_SEED).derive("acceptance/" + label)


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {title}", flush=True)
        raise
    print(f"[PASS] criterion {num}: {title}", flush=True)


def test_criterion_01_lwe_round_trip():
    with criterion(1, "LWE round-trip at n=64 (failure <= 1%, < 30 s)"):
        start = time.perf_counter()
        params = lwe.derive_params(64)
        assert int(params.q) == 4099 and params.m == 845
        rng = arng("lwe")
        sk, pk = lwe.keygen(params, rng)
        fails = 0
        for _ in range(2000):
            z = int(rng.bits(1))
            ct = lwe.encrypt_bit(pk, z, rng)
            fails += lwe.decrypt_bit(sk, ct, params) != z
        elapsed = time.perf_counter() - start
        assert fails <= 20, f"{fails} failures in 2000 bits"
        assert elapsed < 30, f"{elapsed:.1f} s"


def test_criterion_02_plwe_round_trip_and_identity():
    with criterion(2, "PLWE round-trip at n=256 plus exact correctness identity"):
        start = time.perf_counter()
        params = plwe.default_params(256)
        assert int(params.ring.q) == 7681
        rng = arng("plwe")
        kp = plwe.keygen(params, rng)
        bad = 0
        for _ in range(100):
            bits = [int(v) for v in rng.uniform_array(2, 256)]
            ct = plwe.encrypt((kp.a, kp.b), bits, params, rng)
            bad += plwe.decrypt(kp.s, ct) != bits
        assert bad == 0, f"{bad}/100 messages failed"

        # v - u*s == e*r + e2 - e1*s + floor(q/2)*z, exact, 1000 instances
        toy = plwe.default_params(16, sigma=1.5, floor=256)
        q = int(toy.ring.q)
        for _ in range(1000):
            tkp = plwe.keygen(toy, rng)
            e = ring_sub(tkp.b, ring_mul(tkp.a, tkp.s))
            r = plwe.sample_error(toy, rng)
            e1 = plwe.sample_error(toy, rng)
            e2 = plwe.sample_error(toy, rng)
            bits = [int(v) for v in rng.uniform_array(2, 16)]
            half_z = ring_from_coeffs([b * (q // 2) for b in bits], toy.ring)
            u = ring_add(ring_mul(tkp.a, r), e1)
            v = ring_add(ring_add(ring_mul(tkp.b, r), e2), half_z)
            lhs = ring_sub(v, ring_mul(u, tkp.s))
            rhs = ring_add(
                ring_sub(ring_add(ring_mul(e, r), e2), ring_mul(e1, tkp.s)),
                half_z,
            )
            assert lhs.coeffs == rhs.coeffs
        elapsed = time.perf_counter() - start
        assert elapsed < 10, f"{elapsed:.1f} s"


def test_criterion_03_algorithm_1():
    with criterion(3, "Algorithm 1 on crafted f (>= 90% per class, planted kept)"):
        start = time.perf_counter()
        p = crafted_params()
        s, oracle, noise = attack_corpus("alg1-exp-0", p)
        ov, history = decide_alg1(oracle, p, t=3.0, return_survivors=True)
        nv = decide_alg1(noise, p, t=3.0)
        assert sum(v.label == "valid" for v in ov) >= 45
        assert sum(v.label == "random" for v in nv) >= 45
        planted = evaluate(s, 1)
        assert all(planted in surv for surv in history), "planted secret eliminated"
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"{elapsed:.1f} s"


def test_criterion_04_algorithm_2():
    with criterion(4, "Algorithm 2: exact alpha=1 degeneration + order-2 accuracy"):
        p1 = crafted_params()
        _, oracle, noise = attack_corpus("alg1-exp-0", p1)
        shared = oracle + noise  # 100 samples through both deciders
        assert decide_alg2(shared, p1, alpha=1, t=3.0) == decide_alg1(
            shared, p1, t=3.0
        )

        p2 = order2_params()
        _, oracle2, noise2 = attack_corpus("alg2-exp-0", p2)
        ov = decide_alg2(oracle2, p2, alpha=256, t=4.0)
        nv = decide_alg2(noise2, p2, alpha=256, t=4.0)
        correct = sum(v.label == "valid" for v in ov) + sum(
            v.label == "random" for v in nv
        )
        assert correct >= 85, f"{correct}/100 correct labels"


def test_criterion_05_cyclotomic_immunity():
    with criterion(5, "cyclotomic immunity: root_one never fires across prime sweep"):
        for m in (16, 32):
            f = cyclotomic_poly(m)
            primes, q = [], m + 1
            while len(primes) < 20:
                if is_prime(q):
                    primes.append(q)
                q += m
            for q in primes:
                rep = weakness_scan(f, Modulus(q))
                assert not rep.root_one, f"root_one at m={m}, q={q}"


def test_criterion_06_glyph():
    with criterion(6, "GLYPH at full parameters (accept/tamper/norm, iters <= 20)"):
        start = time.perf_counter()
        p = glyph.GlyphParams()
        assert (p.n, int(p.q), p.b, p.k) == (1024, 59393, 16383, 16)
        rng = arng("glyph")
        sk, pk = glyph.keygen(p, rng)
        total_iters = 0
        for i in range(100):
            msg = bytes(f"message number {i}", "ascii")
            sig, iters = glyph.sign(sk, pk, msg, p, rng.derive(f"sign{i}"))
            total_iters += iters
            assert sig.z1.inf_norm() <= 16367 and sig.z2.inf_norm() <= 16367
            assert glyph.verify(pk, msg, sig, p).accepted

            tampered = bytearray(msg)
            tampered[i % len(msg)] ^= 0x01
            res = glyph.verify(pk, bytes(tampered), sig, p)
            assert not res.accepted and res.reason == "challenge mismatch"

            bad = list(sig.z1.coeffs)
            bad[i % p.n] = p.beta + 1
            inflated = GlyphSignature(
                c=sig.c, z1=RingElement(tuple(bad), p.ring), z2=sig.z2
            )
            res = glyph.verify(pk, msg, inflated, p)
            assert not res.accepted and res.reason == "norm"
        mean_iters = total_iters / 100
        elapsed = time.perf_counter() - start
        assert mean_iters <= 20, f"mean {mean_iters:.1f} iterations"
        assert elapsed < 120, f"{elapsed:.1f} s"


def test_criterion_07_bgv():
    with criterion(7, "BGV chain, round-trips, (a*b)+c circuit, level cap"):
        start = time.perf_counter()
        params = bgv.setup(m=32, p=2, r=1, levels=3)
        assert params.chain == (131, 17167, 294705899, 86851566905398247)
        rng = arng("bgv")
        sk = bgv.keygen(params, rng)

        for _ in range(100):
            pt = [int(v) for v in rng.uniform_array(2, 16)]
            assert bgv.decrypt(bgv.encrypt(pt, sk, params, rng), sk, params) == pt

        f = cyclotomic_poly(32)
        for _ in range(100):
            a = [int(v) for v in rng.uniform_array(2, 16)]
            b = [int(v) for v in rng.uniform_array(2, 16)]
            c = [int(v) for v in rng.uniform_array(2, 16)]
            wires = bgv.eval_circuit(
                ["MUL t a b", "ADD out t c"],
                {
                    "a": bgv.encrypt(a, sk, params, rng),
                    "b": bgv.encrypt(b, sk, params, rng),
                    "c": bgv.encrypt(c, sk, params, rng),
                },
                params,
            )
            rem = poly_divmod_z(poly_mul_z(a, b), f)[1]
            clear = [x % 2 for x in rem] + [0] * (16 - len(rem))
            expect = [(x + y) % 2 for x, y in zip(clear, c)]
            assert bgv.decrypt(wires["out"], sk, params) == expect

        bottom = bgv.encrypt([1], sk, params, rng)
        for _ in range(3):
            bottom = bgv.switch_down(bottom, params)
        refused = 0
        for _ in range(100):
            try:
                bgv.he_mul(bottom, bottom, params)
            except LevelExceeded:
                refused += 1
        assert refused == 100
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"{elapsed:.1f} s"


def test_criterion_08_gaussian_sampler():
    with criterion(8, "Gaussian sampler: TV <= 0.01 and |mean| < 0.02 at 1e6 draws"):
        p = GaussianParams(sigma=3.2)
        draws = sample_int_array(p, arng("gauss"), 1_000_000)
        lo, hi = p.support
        counts = np.bincount(draws - lo, minlength=hi - lo + 1)
        emp = counts / 1_000_000
        pmf = np.array([pmf_int(k, p) for k in range(lo, hi + 1)])
        tv = 0.5 * np.abs(emp - pmf).sum()
        assert tv <= 0.01, f"TV = {tv:.4f}"
        assert abs(draws.mean()) < 0.02, f"mean = {draws.mean():.4f}"


def test_criterion_09_number_theory():
    with criterion(9, "cyclotomic product, exact vs numeric discriminants, roots"):
        for m in range(1, 65):
            prod = [1]
            for d in range(1, m + 1):
                if m % d == 0:
                    prod = poly_mul_z(prod, cyclotomic_poly(d))
            expect = [0] * (m + 1)
            expect[0], expect[m] = -1, 1
            assert prod == expect

        cases = [([1, 0, 1], -4)]
        cases += [([-d, 0, 1], 4 * d) for d in (2, 3, 5, 7)]
        for prime in (3, 5, 7):
            f = cyclotomic_poly(prime)
            assert abs(discriminant(f)) == prime ** (prime - 2)
            cases.append((f, discriminant(f)))
        for f, expect in cases:
            exact = discriminant(f)
            assert exact == expect
            approx = discriminant_numeric(f)
            scale = max(1.0, abs(exact))
            assert abs(approx.real - exact) < 1e-6 * scale
            assert abs(approx.imag) < 1e-6 * scale

        assert roots_mod_q([1, 0, 0, 0, 1], Modulus(17)) == [2, 8, 9, 15]


def test_criterion_10_key_size_ratio(capsys):
    with criterion(10, "bench: LWE/PLWE public-key ratio >= 100x at n=64"):
        ratio = lwe.public_key_size(lwe.derive_params(64)) / plwe.public_key_size(
            plwe.default_params(64)
        )
        assert ratio >= 100, f"ratio {ratio:.1f}"

        assert cli_main(["bench", "--n", "64", "--seed", "ab" * 32]) == 0
        table = capsys.readouterr().out
        line = next(ln for ln in table.splitlines() if "pk-size-ratio" in ln)
        reported = float(line.split("lwe/plwe=")[1].strip().rstrip("x"))
        assert reported >= 100
