"""Tests of the benchmark itself: every check must reject a deliberately
wrong answer, and every workload must run to its end on a short list.

    python3 -m pytest -q labbench/test_labbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run

run.import_package()

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from latticelab import attacks, glyph, polyring  # noqa: E402
from latticelab.gaussian import GaussianParams, sample_int_array  # noqa: E402
from latticelab.rng import SeededRng  # noqa: E402
from latticelab.zq import Modulus  # noqa: E402

SEED = bytes(range(32))


# ---------------------------------------------------------------------------
# sign


@pytest.fixture(scope="module")
def glyph_case():
    p = glyph.GlyphParams(n=256)
    rng = SeededRng(SEED)
    sk, pk = glyph.keygen(p, rng.derive("k"))
    message = b"a message to sign"
    sig, _ = glyph.sign(sk, pk, message, p, rng.derive("s"))
    arrays = SimpleNamespace(
        a=np.array(pk.a.coeffs), t=np.array(pk.t.coeffs), c=np.array(sig.c.coeffs),
        z1=np.array(sig.z1.coeffs), z2=np.array(sig.z2.coeffs),
        s=checks.centered(sk.s.coeffs, int(p.q)), e=checks.centered(sk.e.coeffs, int(p.q)))
    return p, message, arrays


def check_sig(p, message, x, c=None, z1=None, z2=None):
    checks.check_glyph_signature(x.a, x.t, message, x.c if c is None else c,
                                 x.z1 if z1 is None else z1, x.z2 if z2 is None else z2,
                                 int(p.q), p.b, p.k)


def test_negacyclic_mul_matches_schoolbook():
    q, n = 59393, 16
    rng = np.random.default_rng(1)
    a, b = rng.integers(0, q, n), rng.integers(0, q, n)
    want = [0] * n
    for i in range(n):
        for j in range(n):
            k, sgn = (i + j) % n, 1 if i + j < n else -1
            want[k] += sgn * int(a[i]) * int(b[j])
    assert list(checks.negacyclic_mul(a, b, q)) == [v % q for v in want]


def test_glyph_key_check_catches_changed_coefficient(glyph_case):
    p, _, x = glyph_case
    checks.check_glyph_key(x.a, x.s, x.e, x.t, int(p.q))
    t = x.t.copy()
    t[5] = (t[5] + 1) % int(p.q)
    with pytest.raises(CheckFailed):
        checks.check_glyph_key(x.a, x.s, x.e, t, int(p.q))


def test_signature_check_accepts_program_output(glyph_case):
    p, message, x = glyph_case
    check_sig(p, message, x)


def test_signature_check_catches_changed_coefficient(glyph_case):
    p, message, x = glyph_case
    z1 = x.z1.copy()
    z1[3] = (z1[3] + 1) % int(p.q)
    with pytest.raises(CheckFailed, match="hash back"):
        check_sig(p, message, x, z1=z1)


def test_signature_check_catches_flipped_message_bit(glyph_case):
    p, message, x = glyph_case
    with pytest.raises(CheckFailed, match="hash back"):
        check_sig(p, checks.flip_bit(message, 9), x)


def test_signature_check_catches_bad_challenge_and_norm(glyph_case):
    p, message, x = glyph_case
    c = x.c.copy()
    c[np.flatnonzero(c)[0]] = 0
    with pytest.raises(CheckFailed, match="exactly k"):
        check_sig(p, message, x, c=c)
    z2 = x.z2.copy()
    z2[0] = p.beta + 1
    with pytest.raises(CheckFailed, match="z2"):
        check_sig(p, message, x, z2=z2)


# ---------------------------------------------------------------------------
# attack


@pytest.fixture(scope="module")
def attack_cases():
    return [workloads.AttackInstance(SEED, f"t{alg}", alg, 16, 257) for alg in (1, 2)]


def test_cyclotomic_reference_matches_package():
    for m in (1, 2, 12, 16, 60, 105, 128):
        assert checks.cyclotomic(m) == polyring.cyclotomic_poly(m)


def test_region_mask_matches_smallness_region(attack_cases):
    for inst in attack_cases:
        region, _, _ = attacks.smallness_region(inst.params, inst.alpha, inst.t)
        mask = checks.region_mask(inst.alpha, inst.q, inst.n, workloads.SIGMA, inst.t)
        assert set(np.flatnonzero(mask).tolist()) == region


def test_verdict_check_catches_dropped_survivor(attack_cases):
    for inst in attack_cases:
        oracle, uniform = inst.expected_counts()
        verdicts = inst.decide(inst.oracle)
        checks.check_verdicts(verdicts, oracle)
        checks.check_verdicts(inst.decide(inst.uniform), uniform)
        i = next(i for i, v in enumerate(verdicts) if v.surviving_secrets)
        dropped = list(verdicts)
        dropped[i] = attacks.Verdict(verdicts[i].label, verdicts[i].surviving_secrets - 1)
        with pytest.raises(CheckFailed, match="survivors"):
            checks.check_verdicts(dropped, oracle)


def test_scan_check_catches_wrong_roots(attack_cases):
    inst = attack_cases[0]
    report = attacks.weakness_scan(inst.f, inst.modulus)
    checks.check_scan(report, inst.f, inst.q)
    with pytest.raises(CheckFailed, match="roots"):
        checks.check_scan(SimpleNamespace(**{**vars_of(report), "roots": report.roots[1:]}),
                          inst.f, inst.q)
    with pytest.raises(CheckFailed, match="root_one"):
        checks.check_scan(SimpleNamespace(**{**vars_of(report), "root_one": False}),
                          inst.f, inst.q)


def test_cyclotomic_scan_check(attack_cases):
    f, q = checks.cyclotomic(16), 97
    report = attacks.weakness_scan(f, Modulus(q))
    checks.check_cyclotomic_scan(report, 16, q)
    with pytest.raises(CheckFailed, match="totally split"):
        checks.check_cyclotomic_scan(
            SimpleNamespace(**{**vars_of(report), "totally_split": False}), 16, q)


def vars_of(report):
    return {k: getattr(report, k) for k in
            ("root_one", "roots", "small_order_roots", "totally_split")}


# ---------------------------------------------------------------------------
# cli


def test_bits_check_catches_flipped_bit():
    checks.check_bits("1011", "1011\n", "lwe")
    with pytest.raises(CheckFailed):
        checks.check_bits("1011", "1010\n", "lwe")


def test_bgv_clear_reduces_by_phi():
    # x^15 * x = x^16 = -1 = 1 (mod Phi_32 = x^16 + 1, 2)
    a = [0] * 15 + [1]
    assert checks.bgv_clear(a, [0, 1], [0, 0, 1], 32, 2) == [1, 0, 1] + [0] * 13


def test_gaussian_fit_catches_wrong_distribution():
    rng = SeededRng(SEED)
    good = sample_int_array(GaussianParams(sigma=3.2), rng, 20_000)
    checks.gaussian_fit(good, 3.2)
    wide = sample_int_array(GaussianParams(sigma=4.0), rng, 20_000)
    with pytest.raises(CheckFailed, match="KS distance"):
        checks.gaussian_fit(wide, 3.2)
    with pytest.raises(CheckFailed, match="support"):
        checks.gaussian_fit(np.append(good[1:], 1000), 3.2)


def test_cli_round_checks_catch_wrong_outputs(tmp_path):
    def fresh_round():
        wl = workloads.CliWorkload(SEED, 1, tmp_path / "w")
        wl.setup()
        ops, check = next(wl.rounds())
        return wl, ops, check, wl.inputs[0]["dir"]

    wl, ops, check, _ = fresh_round()
    check([op() for op in ops])
    assert wl.work()["glyph_sign_iterations"] >= 1

    mutations = {
        "lwe.dec": lambda t: ("0" if t[0] == "1" else "1") + t[1:],
        "out.pt": lambda t: str(1 - int(t[0])) + t[1:],
        "scan.txt": lambda t: t.replace("root_one      : True", "root_one      : False"),
        "sample.txt": lambda t: "0\n" * 3000 + "\n".join(t.split()[3000:]) + "\n",
    }
    for name, mutate in mutations.items():
        _, ops, check, d = fresh_round()
        results = [op() for op in ops]
        (d / name).write_text(mutate((d / name).read_text()))
        with pytest.raises(CheckFailed):
            check(results)


# ---------------------------------------------------------------------------
# whole runs


@pytest.mark.parametrize("name", ["sign", "attack", "cli"])
def test_workload_runs_to_its_end(name):
    result, work = run.run(name, "7", 1, False, 0.1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert work


@pytest.mark.parametrize("name", ["sign", "attack", "cli"])
def test_traced_counts_repeat(name):
    first, _ = run.run(name, "3", 1, True, 0.1)
    second, _ = run.run(name, "3", 1, True, 0.1)
    assert set(first["metrics"]) == {m for m, _, _ in spans.PER_LAYER}
    for k in [m for m, unit, _ in spans.PER_LAYER if unit == "count"]:
        assert first["metrics"][k] == second["metrics"][k], k


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "labbench", tmp_path / "labbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "labbench/run.py", "--workload", "sign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not Path(tmp_path / ".labbench").exists()
