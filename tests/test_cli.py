"""End-to-end CLI pipelines driven through main() with on-disk files."""

import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latticelab import cli, fileio
from latticelab.cli import main
from latticelab.errors import LatticeLabError
from latticelab.gaussian import GaussianParams, fold_to_zq_array
from latticelab.plwe import PlweParams, PlweSample
from latticelab.polyring import (
    MAX_SCAN_Q,
    RingParams,
    ring_from_coeffs,
    ring_mul,
    ring_sub,
)
from latticelab.rng import SeededRng
from latticelab.zq import Modulus, next_prime

SEED = "5c" * 32
SEED2 = "6d" * 32


def run(args):
    return main(args)


def test_plwe_pipeline(tmp_path, capsys):
    sk = tmp_path / "s.key"
    pk = tmp_path / "p.key"
    msg = tmp_path / "msg.txt"
    ct = tmp_path / "ct.txt"
    out = tmp_path / "out.txt"
    bits = "1011001110001111"
    msg.write_text(bits)
    assert run(["keygen", "--scheme", "plwe", "--n", "16", "--q-floor", "256",
                "--sigma", "1.5", "--seed", SEED,
                "--out-secret", str(sk), "--out-public", str(pk)]) == 0
    assert run(["encrypt", "--scheme", "plwe", "--public", str(pk),
                "--message", str(msg), "--out", str(ct), "--seed", SEED2]) == 0
    assert run(["decrypt", "--scheme", "plwe", "--secret", str(sk),
                "--in", str(ct), "--out", str(out)]) == 0
    assert out.read_text().strip() == bits


def test_plwe_multiblock_zero_pads(tmp_path):
    sk, pk = tmp_path / "s.key", tmp_path / "p.key"
    msg, ct, out = tmp_path / "m.txt", tmp_path / "c.txt", tmp_path / "o.txt"
    msg.write_text("101" * 7)  # 21 bits over n=16 -> two blocks
    run(["keygen", "--scheme", "plwe", "--n", "16", "--q-floor", "256",
         "--sigma", "1.5", "--seed", SEED,
         "--out-secret", str(sk), "--out-public", str(pk)])
    run(["encrypt", "--scheme", "plwe", "--public", str(pk),
         "--message", str(msg), "--out", str(ct), "--seed", SEED2])
    run(["decrypt", "--scheme", "plwe", "--secret", str(sk),
         "--in", str(ct), "--out", str(out)])
    got = out.read_text().strip()
    assert len(got) == 32
    assert got == "101" * 7 + "0" * 11


def test_lwe_pipeline(tmp_path):
    sk, pk = tmp_path / "s.key", tmp_path / "p.key"
    msg, ct, out = tmp_path / "m.txt", tmp_path / "c.txt", tmp_path / "o.txt"
    msg.write_text("0110")
    run(["keygen", "--scheme", "lwe", "--n", "16", "--seed", SEED,
         "--out-secret", str(sk), "--out-public", str(pk)])
    run(["encrypt", "--scheme", "lwe", "--public", str(pk),
         "--message", str(msg), "--out", str(ct), "--seed", SEED2])
    run(["decrypt", "--scheme", "lwe", "--secret", str(sk),
         "--in", str(ct), "--out", str(out)])
    assert out.read_text().strip() == "0110"


def test_glyph_sign_verify_and_tamper(tmp_path, capsys):
    sk, pk = tmp_path / "s.key", tmp_path / "p.key"
    msg, sig = tmp_path / "m.bin", tmp_path / "sig.txt"
    msg.write_bytes(b"attack at dawn")
    # n=1024 keygen+sign is the expensive full parameter set; acceptable once here
    assert run(["keygen", "--scheme", "glyph", "--n", "1024", "--seed", SEED,
                "--out-secret", str(sk), "--out-public", str(pk)]) == 0
    assert run(["sign", "--secret", str(sk), "--public", str(pk),
                "--message", str(msg), "--out", str(sig), "--seed", SEED2]) == 0
    assert run(["verify", "--public", str(pk), "--message", str(msg),
                "--signature", str(sig)]) == 0
    assert "accept" in capsys.readouterr().out
    msg.write_bytes(b"attack at dusk")
    assert run(["verify", "--public", str(pk), "--message", str(msg),
                "--signature", str(sig)]) == 1
    assert "reject: challenge mismatch" in capsys.readouterr().err


def test_bgv_pipeline_and_eval(tmp_path):
    prm, sk = tmp_path / "prm.txt", tmp_path / "s.key"
    run(["keygen", "--scheme", "bgv", "--m", "32", "--p", "2", "--r", "1",
         "--levels", "3", "--seed", SEED,
         "--out-secret", str(sk), "--out-params", str(prm)])
    pts = {"a": "1,0,1", "b": "1,1", "c": "0,1,1,1"}
    for name, val in pts.items():
        (tmp_path / f"{name}.pt").write_text(val)
        assert run(["encrypt", "--scheme", "bgv", "--params", str(prm),
                    "--secret", str(sk), "--message", str(tmp_path / f"{name}.pt"),
                    "--out", str(tmp_path / f"{name}.ct"), "--seed", SEED2]) == 0
    circuit = tmp_path / "circ.txt"
    circuit.write_text("MUL t a b\nADD out t c\n")
    assert run(["bgv-eval", "--params", str(prm), "--circuit", str(circuit),
                "--in", f"a={tmp_path}/a.ct", "--in", f"b={tmp_path}/b.ct",
                "--in", f"c={tmp_path}/c.ct", "--out", f"out={tmp_path}/out.ct"]) == 0
    # the shared parser copies its append defaults: the next call starts empty
    args = cli.build_parser().parse_args(["bgv-eval", "--params", "p", "--circuit", "c"])
    assert args.inputs == [] and args.outputs == []
    out = tmp_path / "res.txt"
    assert run(["decrypt", "--scheme", "bgv", "--params", str(prm),
                "--secret", str(sk), "--in", f"{tmp_path}/out.ct",
                "--out", str(out)]) == 0
    # (1+x^2)(1+x) + (x+x^2+x^3) = 1 + 2x + 2x^2 + 2x^3 = 1 mod 2
    got = [int(v) for v in out.read_text().strip().split(",")]
    assert got[0] == 1 and not any(got[1:])


def test_bgv_decrypt_negative_level_exits_1(tmp_path, capsys):
    prm, sk = tmp_path / "prm.txt", tmp_path / "s.key"
    pt, ct = tmp_path / "a.pt", tmp_path / "a.ct"
    run(["keygen", "--scheme", "bgv", "--m", "32", "--p", "2", "--r", "1",
         "--levels", "3", "--seed", SEED,
         "--out-secret", str(sk), "--out-params", str(prm)])
    pt.write_text("1,0,1")
    run(["encrypt", "--scheme", "bgv", "--params", str(prm), "--secret", str(sk),
         "--message", str(pt), "--out", str(ct), "--seed", SEED2])
    ct.write_text(ct.read_text().replace("level=0", "level=-1"))
    capsys.readouterr()
    assert run(["decrypt", "--scheme", "bgv", "--params", str(prm), "--secret", str(sk),
                "--in", str(ct), "--out", str(tmp_path / "res.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "level" in err
    assert len(err.strip().splitlines()) == 1


def test_scan_command(tmp_path, capsys):
    assert run(["scan", "--f", "1,0,0,0,1", "--q", "17"]) == 0
    report = capsys.readouterr().out
    assert "totally_split : True" in report
    assert "root_one      : False" in report


SCAN = ["scan", "--f", "1,0,0,0,1", "--q", "17"]


def test_main_builds_the_parser_once(capsys):
    cli.build_parser.cache_clear()
    assert run(SCAN) == 0
    with pytest.raises(SystemExit):
        run(["sample", "--dist", "uniform"])
    assert run(["sample", "--dist", "uniform", "--q", "17", "--seed", SEED]) == 0
    assert run(SCAN) == 0
    assert cli.build_parser.cache_info().misses == 1


def test_verbs_are_looked_up_at_call_time(monkeypatch, capsys):
    # labbench's tracer wraps cli.cmd_* after main may already have run
    assert run(SCAN) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_scan", lambda args: seen.append(args.q) or 7)
    assert run(SCAN) == 7
    assert seen == [17]


def test_attack_pipeline(tmp_path):
    prm, sk = tmp_path / "prm.txt", tmp_path / "s.key"
    out = tmp_path / "verdicts.txt"
    samples = tmp_path / "samples.txt"
    # build crafted-f params by hand (f(1) = 0 mod 257)
    f = "255,1," + ",".join(["0"] * 14) + ",1"
    prm.write_text(
        "latticelab-plwe-v1\nn=16\nq=257\nf=" + f + "\nsigma=1.5\n"
    )
    run(["keygen", "--scheme", "plwe", "--n", "16", "--q-floor", "256",
         "--sigma", "1.5", "--seed", SEED,
         "--out-secret", str(sk), "--out-public", str(tmp_path / "p.key")])
    # oracle samples in the crafted ring need params+secret in that ring;
    # simplest honest path: sample uniform pairs, expect mostly "random"
    assert run(["sample", "--dist", "plwe-uniform", "--params", str(prm),
                "--count", "30", "--seed", SEED2, "--out", str(samples)]) == 0
    assert run(["attack", "--alg", "1", "--samples", str(samples),
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 30
    labels = [ln.split("\t")[1] for ln in lines]
    assert labels.count("random") >= 25


def test_attack_alg2_requires_alpha(tmp_path, capsys):
    """A usage error, refused before any file is read: the samples file is missing."""
    with pytest.raises(SystemExit) as exc:
        run(["attack", "--alg", "2", "--samples", str(tmp_path / "missing.txt")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "--alpha" in err


def test_attack_alg1_refuses_alpha(tmp_path, capsys):
    """Algorithm 1 evaluates at 1 only, so --alpha is a usage error, not ignored."""
    with pytest.raises(SystemExit) as exc:
        run(["attack", "--alg", "1", "--alpha", "1", "--samples", str(tmp_path / "missing.txt")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "--alpha is only for --alg 2" in err


@pytest.mark.parametrize("q", [next_prime(MAX_SCAN_Q + 1), 2**61 - 1])
@pytest.mark.parametrize("verb", ["scan", "attack-1", "attack-2"])
def test_scan_and_attack_refuse_q_above_the_scan_limit(tmp_path, capsys, verb, q):
    # f(1) = 0 mod q, so past the limit check each would build arrays of q entries
    f = [q - 2, 1] + [0] * 14 + [1]
    if verb == "scan":
        argv = ["scan", "--f", ",".join(map(str, f)), "--q", str(q)]
    else:
        ring = RingParams(tuple(f), Modulus(q))
        one = ring_from_coeffs([1], ring)
        samples = tmp_path / "samples.txt"
        samples.write_text(fileio.dump_record("plwe-samples", [PlweSample(one, one)],
                                              PlweParams(ring, 1.5)))
        argv = ["attack", "--alg", verb[-1], "--samples", str(samples)]
        if verb == "attack-2":
            argv += ["--alpha", "1"]
    tracemalloc.start()
    try:
        rc = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert peak < MAX_SCAN_Q  # not even a boolean array of q entries
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_smear_command(tmp_path, capsys):
    prm = tmp_path / "prm.txt"
    f = "255,1," + ",".join(["0"] * 14) + ",1"
    prm.write_text("latticelab-plwe-v1\nn=16\nq=257\nf=" + f + "\nsigma=1.5\n")
    assert run(["smear", "--params", str(prm), "--alpha", "1",
                "--trials", "2000", "--seed", SEED]) == 0
    est = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0.0 < est < 1.0


def test_smear_is_exact_past_2_to_31(tmp_path, capsys):
    q = (1 << 61) - 1
    prm = tmp_path / "prm.txt"
    prm.write_text(f"latticelab-plwe-v1\nn=8\nq={q}\nf={q - 1},0,0,0,0,0,0,0,1\nsigma=1.0\n")
    # q - 1 is a root of x^8 - 1, and its powers make products near 2^122
    assert run(["smear", "--params", str(prm), "--alpha", str(q - 1),
                "--trials", "50", "--seed", SEED]) == 0
    est = float(capsys.readouterr().out.strip().splitlines()[-1])
    rows = fold_to_zq_array(GaussianParams(1.0), q, SeededRng.from_hex(SEED).derive("smear"),
                            50 * 8).reshape(50, 8).tolist()
    hits = {sum(e * pow(q - 1, i, q) for i, e in enumerate(row)) % q for row in rows}
    assert est == len(hits) / q


def test_sample_gaussian(capsys):
    assert run(["sample", "--dist", "gaussian", "--sigma", "2.0",
                "--count", "25", "--seed", SEED]) == 0
    vals = [int(v) for v in capsys.readouterr().out.split()]
    assert len(vals) == 25
    assert all(abs(v) <= 24 for v in vals)


def test_sample_no_draws_prints_one_newline(capsys):
    assert run(["sample", "--dist", "gaussian", "--count", "0", "--seed", SEED]) == 0
    assert capsys.readouterr().out == "\n"


def test_sample_seed_reproducible(capsys):
    run(["sample", "--dist", "uniform", "--q", "17", "--count", "50",
         "--seed", SEED])
    first = capsys.readouterr().out
    run(["sample", "--dist", "uniform", "--q", "17", "--count", "50",
         "--seed", SEED])
    assert capsys.readouterr().out == first


def test_bench_table(capsys):
    assert run(["bench", "--n", "16", "--seed", SEED]) == 0
    table = capsys.readouterr().out
    assert "lwe-keygen" in table and "pk-size-ratio" in table


USAGE_ERRORS = [
    ["encrypt", "--scheme", "glyph", "--message", "m"],
    ["keygen", "--scheme", "plwe", "--bogus-flag"],
    ["encrypt", "--scheme", "plwe", "--message", "m"],  # missing --public
    ["sample", "--dist", "uniform"],  # missing --q
    ["encrypt", "--scheme", "bgv", "--secret", "k", "--message", "m"],  # missing --params
    ["decrypt", "--scheme", "bgv", "--secret", "k", "--in", "c"],  # missing --params
    ["encrypt", "--scheme", "bgv", "--params", "p", "--message", "m"],  # missing --secret
    ["sample", "--dist", "plwe-uniform"],  # missing --params
    ["sample", "--dist", "plwe-oracle", "--params", "p"],  # missing --secret
    ["attack", "--alg", "1", "--samples", "s", "--params", "p"],  # the samples' header is the params
]


def test_usage_errors_exit_2(capsys):
    for argv in USAGE_ERRORS:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "error: " in err, argv


def test_missing_file_is_domain_error(tmp_path, capsys):
    assert run(["decrypt", "--scheme", "plwe", "--secret",
                str(tmp_path / "nope.key"), "--in", str(tmp_path / "nope.ct")]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_seed_is_usage_error(capsys):
    for bad in ["zz", "ab" * 31, "ab" * 33, "g" * 64]:
        with pytest.raises(SystemExit) as exc:
            run(["sample", "--dist", "uniform", "--q", "17", "--seed", bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be 64 hex digits" in err
        assert "Traceback" not in err


def test_fresh_seed_notice_goes_to_stderr(capsys):
    assert run(["sample", "--dist", "uniform", "--q", "17", "--count", "3"]) == 0
    out, err = capsys.readouterr()
    assert len(out.split()) == 3
    assert all(0 <= int(v) < 17 for v in out.split())
    seed_line = err.strip().splitlines()[-1]
    assert seed_line.startswith("seed: ")
    run(["sample", "--dist", "uniform", "--q", "17", "--count", "3",
         "--seed", seed_line[len("seed: "):]])
    assert capsys.readouterr().out == out


WEAK_SAMPLES = "<weak.txt>"  # stands for the `weak_samples` fixture's file
# LWE public keys whose header claims what their rows do not hold, and a message
HUGE_N_KEY, HUGE_M_KEY, MESSAGE = "<huge-n.pub>", "<huge-m.pub>", "<msg.txt>"
LWE_HEAD = "latticelab-lwe-v1\ntype=public\nn={n}\nq=257\nalpha=0.015625\nm={m}\n"

BAD_NUMBERS = [
    (["sample", "--dist", "uniform", "--q", "-5"], 2),
    (["sample", "--dist", "uniform", "--q", "0"], 2),
    (["sample", "--dist", "uniform", "--q", "17", "--count", "-1"], 2),
    (["sample", "--dist", "gaussian", "--count", "x"], 2),
    (["keygen", "--scheme", "bgv", "--p", "0"], 2),
    (["keygen", "--scheme", "bgv", "--p", "4"], 1),
    (["keygen", "--scheme", "bgv", "--m", "0"], 2),
    (["keygen", "--scheme", "bgv", "--levels", "0"], 2),
    (["keygen", "--scheme", "lwe", "--n", "8"], 1),
    (["smear", "--params", "prm", "--alpha", "1", "--trials", "-3"], 2),
    (["smear", "--params", "prm", "--alpha", "1", "--trials", "0"], 2),
    (["bgv-eval", "--params", "prm", "--circuit", "c", "--in", "a"], 2),
    (["keygen", "--scheme", "bgv", "--m", "999999999999999989"], 1),
    (["keygen", "--scheme", "bgv", "--r", "999999999999999999"], 1),
    (["keygen", "--scheme", "bgv", "--r", "8"], 1),  # 2^8 >= q_0 = 131
    (["attack", "--alg", "2", "--alpha", "1", "--t", "nan", "--samples", "s"], 2),
    (["attack", "--alg", "2", "--alpha", "1", "--t", "inf", "--samples", "s"], 2),
    (["attack", "--alg", "2", "--alpha", "1", "--t", "-1", "--samples", "s"], 2),
    (["attack", "--alg", "1", "--t", "0", "--samples", "s"], 2),
    (["attack", "--alg", "2", "--alpha", "1", "--r-max", "-3", "--samples", "s"], 2),
    (["attack", "--alg", "2", "--alpha", "-1", "--samples", "s"], 2),
    (["scan", "--f", "1,0,1", "--q", "17", "--r-max", "-5"], 2),
    (["smear", "--params", "prm", "--alpha", "-1"], 2),
    (["sample", "--dist", "gaussian", "--sigma", "nan"], 2),
    (["keygen", "--scheme", "plwe", "--sigma", "-1"], 2),
    (["keygen", "--scheme", "bgv", "--growth", "1.0"], 2),  # no such option
    (["keygen", "--scheme", "plwe", "--sigma", "1e9"], 1),
    (["smear", "--params", "prm", "--alpha", "1", "--t", "3"], 2),
    (["smear", "--params", "prm", "--alph", "1"], 2),
    (["keygen", "--scheme", "glyph", "--n", "131072"], 1),  # n > 2^16
    (["keygen", "--scheme", "plwe", "--n", str(2**34)], 1),  # n > 2^16
    (["keygen", "--scheme", "lwe", "--n", str(2**30)], 1),  # n > 2^10
    (["bench", "--n", str(2**30), "--seed", SEED], 1),
    (["sample", "--dist", "uniform", "--q", str(2**64), "--count", "3", "--seed", SEED], 1),
    (["sample", "--dist", "uniform", "--q", "100000000000000000000000", "--count", "3",
      "--seed", SEED], 1),
    # t * sqrt(16) * 1.5 overflows a float on the README's weak ring
    (["attack", "--alg", "1", "--t", "1e308", "--samples", WEAK_SAMPLES], 1),
    # LWE keys whose header sizes what their rows do not hold: n = 2^63 - 1 with
    # no rows, and m = 2^62 with one row; neither may size an array
    (["encrypt", "--scheme", "lwe", "--public", HUGE_N_KEY, "--message", MESSAGE,
      "--seed", SEED], 1),
    (["encrypt", "--scheme", "lwe", "--public", HUGE_M_KEY, "--message", MESSAGE,
      "--seed", SEED], 1),
]


@pytest.fixture(scope="module")
def weak_samples(tmp_path_factory):
    """The README's tour: 20 uniform pairs in weak.prm's ring x^16 + x + 255 mod 257."""
    d = tmp_path_factory.mktemp("weak")
    f = "255,1," + ",".join(["0"] * 14) + ",1"
    (d / "weak.prm").write_text(f"latticelab-plwe-v1\nn=16\nq=257\nf={f}\nsigma=1.5\n")
    assert run(["sample", "--dist", "plwe-uniform", "--params", str(d / "weak.prm"),
                "--count", "20", "--seed", SEED, "--out", str(d / "weak.txt")]) == 0
    return str(d / "weak.txt")


def _record_files(d: Path) -> None:
    """Agreeing records at n = 16 (m = 32 for BGV) in `d`, under the names
    BAD_RECORDS uses, and from each, files whose header sizes what their
    rows do not hold: n = 2^63 - 1, or a count field of 2^62."""
    (d / "msg.txt").write_text("1011\n")
    (d / "circuit.txt").write_text("c = ADD a a\n")
    for scheme, key, pub in (("lwe", "l.key", "l.pub"), ("plwe", "p.key", "p.pub"),
                             ("glyph", "g.key", "g.pub"), ("bgv", "b.key", "b.prm")):
        assert run(["keygen", "--scheme", scheme, "--n", "16", "--q-floor", "256", "--sigma",
                    "1.5", "--m", "32", "--levels", "2", "--seed", SEED,
                    "--out-secret", str(d / key), "--out-public", str(d / pub),
                    "--out-params", str(d / pub)]) == 0
    for scheme, pub, ct in (("lwe", "l.pub", "l.ct"), ("plwe", "p.pub", "p.ct")):
        assert run(["encrypt", "--scheme", scheme, "--public", str(d / pub), "--message",
                    str(d / "msg.txt"), "--out", str(d / ct), "--seed", SEED]) == 0
    assert run(["encrypt", "--scheme", "bgv", "--params", str(d / "b.prm"), "--secret",
                str(d / "b.key"), "--message", str(d / "msg.txt"), "--out", str(d / "b.ct"),
                "--seed", SEED]) == 0
    assert run(["sign", "--secret", str(d / "g.key"), "--public", str(d / "g.pub"),
                "--message", str(d / "msg.txt"), "--out", str(d / "sig.txt"),
                "--seed", SEED]) == 0
    (d / "p.prm").write_text("".join((d / "p.pub").read_text().splitlines(True)[:5]))
    assert run(["sample", "--dist", "plwe-uniform", "--params", str(d / "p.prm"), "--count",
                "3", "--out", str(d / "p.smp"), "--seed", SEED]) == 0
    for name in ("l.key", "p.key", "p.pub", "p.prm", "g.key", "g.pub", "sig.txt"):
        text = (d / name).read_text()
        (d / f"huge-n-{name}").write_text(text.replace("\nn=16\n", f"\nn={2**63 - 1}\n", 1))
    for name, count in (("l.ct", "bits"), ("p.ct", "blocks"), ("p.smp", "count"),
                        ("b.ct", "parts")):
        text = (d / name).read_text()
        line = next(ln for ln in text.splitlines() if ln.startswith(count + "="))
        (d / f"huge-{name}").write_text(text.replace(f"\n{line}\n", f"\n{count}={2**62}\n", 1))
    text = (d / "b.prm").read_text()
    (d / "huge-m-b.prm").write_text(text.replace("\nm=32\n", f"\nm={2**63 - 1}\n", 1))
    text = (d / "b.key").read_text()
    (d / "bad-b.key").write_text(text.replace("\ns=", "\ns=2,", 1))


@pytest.fixture(scope="module")
def bad_input_files(tmp_path_factory, weak_samples):
    """Each file placeholder of BAD_NUMBERS and BAD_RECORDS, and the file it
    stands for: "<dir>" is a directory, "<missing>" a path that is not there."""
    d = tmp_path_factory.mktemp("bad")
    files = {HUGE_N_KEY: LWE_HEAD.format(n=2**63 - 1, m=0),
             HUGE_M_KEY: LWE_HEAD.format(n=16, m=2**62) + "sample=" + "1," * 16 + "1\n",
             MESSAGE: "1011\n"}
    for name, text in files.items():
        (d / name.strip("<>")).write_text(text)
    _record_files(d)
    return {WEAK_SAMPLES: weak_samples, "<dir>": str(d), "<missing>": str(d / "missing"),
            **{f"<{path.name}>": str(path) for path in d.iterdir()}}


@pytest.mark.parametrize("argv, code", BAD_NUMBERS)
def test_bad_numbers_exit_with_one_line(tmp_path, capsys, bad_input_files, argv, code):
    argv = [bad_input_files.get(a, a) for a in argv]
    if argv[0] == "keygen":
        argv = argv + ["--seed", SEED, "--out-secret", str(tmp_path / "s"),
                       "--out-public", str(tmp_path / "p"), "--out-params", str(tmp_path / "m")]
    start = time.perf_counter()
    try:
        rc = run(argv)
    except SystemExit as e:
        rc = e.code
    assert time.perf_counter() - start < 1.0
    assert rc == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "error: " in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


# Each verb that reads a record, given one bad record file (or a directory,
# or a missing path) among good ones: the one line it prints.  "{dir}" is
# the directory the files are in.
LINES_AFTER = "{} line(s) after the fields, expected {}"
HUGE_M = "need 1 <= m <= 4096, a prime p and r >= 1, got m=9223372036854775807, p=2, r=1"
BAD_RECORDS = [
    (["encrypt", "--scheme", "lwe", "--public", HUGE_N_KEY, "--message", MESSAGE,
      "--seed", SEED], "q must lie in [n^2, 2n^2]"),
    (["encrypt", "--scheme", "lwe", "--public", HUGE_M_KEY, "--message", MESSAGE,
      "--seed", SEED], LINES_AFTER.format(1, 2**62)),
    (["encrypt", "--scheme", "plwe", "--public", "<huge-n-p.pub>", "--message", MESSAGE,
      "--seed", SEED], "bad vector 'f': wrong length or spelling"),
    (["encrypt", "--scheme", "bgv", "--params", "<huge-m-b.prm>", "--secret", "<b.key>",
      "--message", MESSAGE, "--seed", SEED], HUGE_M),
    (["encrypt", "--scheme", "bgv", "--params", "<b.prm>", "--secret", "<bad-b.key>",
      "--message", MESSAGE, "--seed", SEED], "bad vector 's': entries must be -1, 0 or 1"),
    (["decrypt", "--scheme", "lwe", "--secret", "<huge-n-l.key>", "--in", "<l.ct>"],
     "bad vector 's': wrong length or spelling"),
    (["decrypt", "--scheme", "lwe", "--secret", "<l.key>", "--in", "<huge-l.ct>"],
     LINES_AFTER.format(4, 2**62)),
    (["decrypt", "--scheme", "plwe", "--secret", "<huge-n-p.key>", "--in", "<p.ct>"],
     "bad vector 'f': wrong length or spelling"),
    (["decrypt", "--scheme", "plwe", "--secret", "<p.key>", "--in", "<huge-p.ct>"],
     LINES_AFTER.format(2, 2**63)),
    (["decrypt", "--scheme", "bgv", "--params", "<b.prm>", "--secret", "<b.key>",
      "--in", "<huge-b.ct>"], LINES_AFTER.format(2, 2**62)),
    (["decrypt", "--scheme", "bgv", "--params", "<b.prm>", "--secret", "<b.key>",
      "--in", "<dir>"], "[Errno 21] Is a directory: '{dir}'"),
    (["sign", "--secret", "<huge-n-g.key>", "--public", "<g.pub>", "--message", MESSAGE,
      "--seed", SEED], "bad vector 's': wrong length or spelling"),
    (["sign", "--secret", "<g.key>", "--public", "<missing>", "--message", MESSAGE,
      "--seed", SEED], "[Errno 2] No such file or directory: '{dir}/missing'"),
    (["verify", "--public", "<huge-n-g.pub>", "--message", MESSAGE, "--signature", "<sig.txt>"],
     "bad vector 'a': wrong length or spelling"),
    (["verify", "--public", "<g.pub>", "--message", MESSAGE, "--signature", "<huge-n-sig.txt>"],
     "bad vector 'z1': wrong length or spelling"),
    (["attack", "--alg", "1", "--samples", "<huge-p.smp>"], LINES_AFTER.format(6, 2**63)),
    (["attack", "--alg", "1", "--samples", "<dir>"], "[Errno 21] Is a directory: '{dir}'"),
    (["smear", "--params", "<huge-n-p.prm>", "--alpha", "1", "--seed", SEED],
     "bad vector 'f': wrong length or spelling"),
    (["bgv-eval", "--params", "<b.prm>", "--circuit", "<circuit.txt>", "--in", "a=<huge-b.ct>",
      "--out", "c=<missing>"], LINES_AFTER.format(2, 2**62)),
    (["bgv-eval", "--params", "<huge-m-b.prm>", "--circuit", "<circuit.txt>",
      "--in", "a=<b.ct>"], HUGE_M),
    (["sample", "--dist", "plwe-oracle", "--secret", "<huge-n-p.key>", "--seed", SEED],
     "bad vector 'f': wrong length or spelling"),
    (["sample", "--dist", "plwe-oracle", "--secret", "<p.key>", "--params", "<huge-n-p.prm>",
      "--seed", SEED], "bad vector 'f': wrong length or spelling"),
    (["sample", "--dist", "plwe-uniform", "--params", "<huge-n-p.prm>", "--seed", SEED],
     "bad vector 'f': wrong length or spelling"),
]


@pytest.mark.parametrize("argv, message", BAD_RECORDS)
def test_bad_records_exit_1_with_their_one_line(tmp_path, capsys, bad_input_files, argv,
                                                 message):
    """Fast, with the message pinned, and with nothing printed or written."""
    argv = [re.sub("<[^>]*>", lambda m: bad_input_files[m.group()], a) for a in argv]
    if argv[0] not in ("verify", "bgv-eval"):
        argv += ["--out", str(tmp_path / "out")]
    start = time.perf_counter()
    rc = run(argv)
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err == "error: " + message.format(dir=bad_input_files["<dir>"]) + "\n"
    assert not any(tmp_path.iterdir()) and not Path(bad_input_files["<missing>"]).exists()


@pytest.mark.parametrize("field, value", [("m", "999999999999999989"),
                                          ("r", "999999999999999999"),
                                          ("chain", "131,4611686018427388039"),
                                          ("chain", "131,9999999999999999999")])
def test_huge_bgv_params_exit_1_at_once(tmp_path, capsys, field, value):
    prm, sk = tmp_path / "prm.txt", tmp_path / "s.key"
    pt, ct = tmp_path / "a.pt", tmp_path / "a.ct"
    run(["keygen", "--scheme", "bgv", "--m", "32", "--levels", "3", "--seed", SEED,
         "--out-secret", str(sk), "--out-params", str(prm)])
    pt.write_text("1,0,1")
    run(["encrypt", "--scheme", "bgv", "--params", str(prm), "--secret", str(sk),
         "--message", str(pt), "--out", str(ct), "--seed", SEED2])
    text = prm.read_text()
    old = next(line for line in text.splitlines() if line.startswith(field + "="))
    prm.write_text(text.replace(old, f"{field}={value}"))
    capsys.readouterr()
    start = time.perf_counter()
    assert run(["decrypt", "--scheme", "bgv", "--params", str(prm), "--secret", str(sk),
                "--in", str(ct), "--out", str(tmp_path / "res.txt")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    if field == "chain":
        assert "chain modulus exceeds 2^62" in err


def test_huge_sigma_in_a_bgv_params_file_exits_1_at_once(tmp_path, capsys):
    prm, sk, pt = tmp_path / "prm.txt", tmp_path / "s.key", tmp_path / "a.pt"
    run(["keygen", "--scheme", "bgv", "--m", "32", "--levels", "3", "--seed", SEED,
         "--out-secret", str(sk), "--out-params", str(prm)])
    prm.write_text(prm.read_text().replace("sigma=3.2", "sigma=1000000000.0"))
    pt.write_text("1,0,1")
    capsys.readouterr()
    start = time.perf_counter()
    assert run(["encrypt", "--scheme", "bgv", "--params", str(prm), "--secret", str(sk),
                "--message", str(pt), "--out", str(tmp_path / "a.ct"), "--seed", SEED2]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.fixture(scope="module")
def glyph16(tmp_path_factory):
    """A GLYPH key pair at n = 16 (q = 59393, b = 16383, k = 16) and a message."""
    d = tmp_path_factory.mktemp("glyph16")
    assert run(["keygen", "--scheme", "glyph", "--n", "16", "--seed", SEED,
                "--out-secret", str(d / "g.key"), "--out-public", str(d / "g.pub")]) == 0
    (d / "m.txt").write_text("hi")
    return d


@pytest.mark.parametrize("old, new, reason", [
    ("k=16", "k=17", "k <= n"),  # the challenge hash cannot place k distinct positions
    ("b=16383", "b=29681", "q/2"),  # b + k = 29697 >= q/2: a centered z may wrap mod q
])
def test_sign_with_glyph_keys_past_their_limits_exits_1(glyph16, tmp_path, old, new, reason):
    """Both key files edited alike.  In a subprocess with a timeout, so that
    a sign that loops forever, as k > n once did, fails instead of hanging."""
    for name in ("g.key", "g.pub"):
        text = (glyph16 / name).read_text()
        assert f"\n{old}\n" in text
        (tmp_path / name).write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "latticelab.cli", "sign", "--secret", str(tmp_path / "g.key"),
         "--public", str(tmp_path / "g.pub"), "--message", str(glyph16 / "m.txt"),
         "--out", str(tmp_path / "sig.txt"), "--seed", SEED],
        capture_output=True, text=True, timeout=5, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and reason in lines[0]
    assert not (tmp_path / "sig.txt").exists()


@pytest.mark.parametrize("key, old, new", [("g.pub", "b=16383", "b=16000"),
                                           ("g.key", "k=16", "k=15")])
def test_sign_refuses_keys_with_different_glyph_params(glyph16, tmp_path, capsys,
                                                       key, old, new):
    """A public key at b = 16000 and a secret key at b = 16383 once signed,
    and verify then answered `reject: norm`."""
    for name in ("g.key", "g.pub"):
        text = (glyph16 / name).read_text()
        (tmp_path / name).write_text(text.replace(f"\n{old}\n", f"\n{new}\n")
                                     if name == key else text)
    capsys.readouterr()
    assert run(["sign", "--secret", str(tmp_path / "g.key"), "--public", str(tmp_path / "g.pub"),
                "--message", str(glyph16 / "m.txt"), "--out", str(tmp_path / "sig.txt"),
                "--seed", SEED]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert new.split("=")[0] + "=" in err and "differ" in err
    assert not (tmp_path / "sig.txt").exists()


@pytest.mark.parametrize("old, new", [("b=16383", "b=100"), ("q=59393", "q=59417")])
def test_verify_refuses_a_signature_whose_glyph_params_differ(glyph16, tmp_path, capsys,
                                                              old, new):
    """A signature edited to b = 100 once printed `accept`: verify ignored
    its header.  (An edited n or k fails to load: c and z1 no longer fit.)"""
    sig = tmp_path / "sig.txt"
    assert run(["sign", "--secret", str(glyph16 / "g.key"), "--public", str(glyph16 / "g.pub"),
                "--message", str(glyph16 / "m.txt"), "--out", str(sig), "--seed", SEED]) == 0
    verify = ["verify", "--public", str(glyph16 / "g.pub"), "--message", str(glyph16 / "m.txt"),
              "--signature", str(sig)]
    capsys.readouterr()
    assert run(verify) == 0 and capsys.readouterr().out == "accept\n"
    text = sig.read_text()
    assert f"\n{old}\n" in text
    sig.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
    assert run(verify) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert f"{new} against {old.split('=')[1]}" in err and "signature" in err


def test_verify_refuses_a_glyph_key_past_2_to_16(tmp_path, capsys):
    """A challenge position is 2 digest bytes, so a key at n = 2^17 is refused
    as it loads instead of hashing forever."""
    head = f"latticelab-glyph-v1\nn={1 << 17}\nq=59393\nb=16383\nk=16\n"
    zeros = ",".join(["0"] * (1 << 17))
    c = ",".join(f"{i}:+1" for i in range(16))
    pub, msg, sig = tmp_path / "g.pub", tmp_path / "m.txt", tmp_path / "sig.txt"
    pub.write_text(f"{head}a={zeros}\nt={zeros}\n")
    sig.write_text(f"{head}c={c}\nz1={zeros}\nz2={zeros}\n")
    msg.write_text("hi")
    start = time.perf_counter()
    assert run(["verify", "--public", str(pub), "--message", str(msg),
                "--signature", str(sig)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "2^16" in err


@pytest.mark.parametrize("scheme, field, old, new", [("lwe", "m", "141", "1"),
                                                     ("plwe", "sigma", "3.2", "9.5")])
def test_decrypt_refuses_a_ciphertext_whose_header_differs(tmp_path, capsys, scheme, field,
                                                           old, new):
    """At n = 16 an LWE ciphertext edited to m=1, and a PLWE one edited to
    sigma=9.5, once decrypted with exit 0: decrypt discarded their headers."""
    key, pub, msg, ct = (tmp_path / name for name in ("s.key", "p.key", "m.txt", "ct.txt"))
    assert run(["keygen", "--scheme", scheme, "--n", "16", "--seed", SEED,
                "--out-secret", str(key), "--out-public", str(pub)]) == 0
    msg.write_text("1011\n")
    assert run(["encrypt", "--scheme", scheme, "--public", str(pub), "--message", str(msg),
                "--out", str(ct), "--seed", SEED]) == 0
    text = ct.read_text()
    assert f"\n{field}={old}\n" in text
    ct.write_text(text.replace(f"\n{field}={old}\n", f"\n{field}={new}\n"))
    decrypt = ["decrypt", "--scheme", scheme, "--secret", str(key), "--in", str(ct)]
    capsys.readouterr()
    for argv in (decrypt, decrypt + ["--out", str(tmp_path / "bits.txt")]):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert f"{field}={new} against {old}" in err
    assert not (tmp_path / "bits.txt").exists()


def test_sample_plwe_oracle_takes_its_params_from_the_secret_key(tmp_path):
    """--params is optional for oracle samples; given, it must match the key
    and changes no byte."""
    key = tmp_path / "r.key"
    assert run(["keygen", "--scheme", "plwe", "--n", "16", "--q-floor", "256", "--sigma", "1.5",
                "--seed", SEED, "--out-secret", str(key),
                "--out-public", str(tmp_path / "r.pub")]) == 0
    (tmp_path / "ring.prm").write_text(fileio.dump_record(
        "plwe-params", fileio.read_record(key, "plwe-secret")[1]))
    outs = []
    for extra in ([], ["--params", str(tmp_path / "ring.prm")]):
        outs.append(tmp_path / f"oracle{len(extra)}.txt")
        assert run(["sample", "--dist", "plwe-oracle", "--secret", str(key), "--count", "3",
                    "--seed", SEED, "--out", str(outs[-1])] + extra) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


# Each verb that reads two records that must share one parameter set:
# (argv, the two records).  OUT is the verb's output file, if it writes one.
TWO_RECORD_VERBS = {
    "sign": (["sign", "--secret", "g.key", "--public", "g.pub", "--message", "m.txt",
              "--out", "OUT", "--seed", SEED], ("g.key", "g.pub")),
    "verify": (["verify", "--public", "g.pub", "--message", "m.txt", "--signature", "sig.txt"],
               ("g.pub", "sig.txt")),
    "decrypt-lwe": (["decrypt", "--scheme", "lwe", "--secret", "l.key", "--in", "l.ct",
                     "--out", "OUT"], ("l.key", "l.ct")),
    "decrypt-plwe": (["decrypt", "--scheme", "plwe", "--secret", "p.key", "--in", "p.ct",
                      "--out", "OUT"], ("p.key", "p.ct")),
    "sample-plwe-oracle": (["sample", "--dist", "plwe-oracle", "--secret", "p.key", "--params",
                            "ring.prm", "--count", "2", "--seed", SEED, "--out", "OUT"],
                           ("p.key", "ring.prm")),
}
LOADERS = {"g.key": "glyph-secret", "g.pub": "glyph-public", "sig.txt": "glyph-signature",
           "l.key": "lwe-secret", "l.ct": "lwe-ciphertext", "p.key": "plwe-secret",
           "p.ct": "plwe-ciphertext", "ring.prm": "plwe-params"}


@pytest.fixture(scope="module")
def two_records(tmp_path_factory):
    """Agreeing records at n = 16 for every verb in TWO_RECORD_VERBS."""
    d = tmp_path_factory.mktemp("two_records")
    (d / "m.txt").write_text("1011\n")
    for scheme, key, pub in (("lwe", "l.key", "l.pub"), ("plwe", "p.key", "p.pub"),
                             ("glyph", "g.key", "g.pub")):
        assert run(["keygen", "--scheme", scheme, "--n", "16", "--q-floor", "256", "--sigma",
                    "1.5", "--seed", SEED, "--out-secret", str(d / key),
                    "--out-public", str(d / pub)]) == 0
    for scheme, pub, ct in (("lwe", "l.pub", "l.ct"), ("plwe", "p.pub", "p.ct")):
        assert run(["encrypt", "--scheme", scheme, "--public", str(d / pub), "--message",
                    str(d / "m.txt"), "--out", str(d / ct), "--seed", SEED]) == 0
    assert run(["sign", "--secret", str(d / "g.key"), "--public", str(d / "g.pub"), "--message",
                str(d / "m.txt"), "--out", str(d / "sig.txt"), "--seed", SEED]) == 0
    (d / "ring.prm").write_text(fileio.dump_record(
        "plwe-params", fileio.read_record(d / "p.key", "plwe-secret")[1]))
    return d


def _other_value(data, field: str, old: str, header: dict) -> str:
    """Another spelling-canonical value for a header field; whether the
    record's loader accepts it is left to the caller."""
    if field == "f":  # a coefficient below the leading 1, moved to another residue
        coeffs = old.split(",")
        i = data.draw(st.integers(0, len(coeffs) - 2))
        coeffs[i] = str(data.draw(st.integers(0, int(header["q"]) - 1)))
        return ",".join(coeffs)
    if field in ("alpha", "sigma"):
        return repr(data.draw(st.floats(0, 2 * float(old) + 1)))
    if field == "q":
        return str(next_prime(data.draw(st.integers(int(old) // 2, 2 * int(old)))))
    return str(data.draw(st.integers(0, 2 * int(old) + 1)))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("verb", sorted(TWO_RECORD_VERBS))
def test_a_verb_refuses_records_whose_headers_differ_in_any_field(two_records, verb, data):
    """One header field of one record replaced by another value its loader
    accepts: the verb exits 1 with one error line naming that field, and
    prints and writes nothing.  (n is left out: it fixes every vector's
    length, so no other n loads.)"""
    argv, records = TWO_RECORD_VERBS[verb]
    name = data.draw(st.sampled_from(records))
    text = (two_records / name).read_text()
    # every scheme's header is four fields, after the LWE records' type line
    lines = [line for line in text.splitlines()[1:] if not line.startswith("type=")]
    header = dict(line.split("=", 1) for line in lines[:4])
    field = data.draw(st.sampled_from(sorted(set(header) - {"n"})))
    new = _other_value(data, field, header[field], header)
    assume(new != header[field])
    edited = text.replace(f"\n{field}={header[field]}\n", f"\n{field}={new}\n", 1)
    try:
        fileio.load_record(edited, LOADERS[name])
    except LatticeLabError:
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for other in {*records, "m.txt"}:
            (d / other).write_text(edited if other == name else (two_records / other).read_text())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run([str(d / a) if a in LOADERS or a in ("m.txt", "OUT") else a for a in argv])
        assert not (d / "OUT").exists()
    assert rc == 1 and out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert [item.split("=")[0] for item in lines[0].split(": ")[-1].split(", ")] == [field]


def test_one_seed_two_messages_do_not_leak_the_glyph_key(tmp_path):
    """With one stream per seed, z1 - z1' = s1 (c - c') held whenever both
    signatures were accepted at the same iteration."""
    seed = "07" * 32
    sk, pk = tmp_path / "g.key", tmp_path / "g.pub"
    assert run(["keygen", "--scheme", "glyph", "--n", "1024", "--seed", seed,
                "--out-secret", str(sk), "--out-public", str(pk)]) == 0
    sigs = []
    for message in "01":
        (tmp_path / "m.txt").write_text(message)
        assert run(["sign", "--secret", str(sk), "--public", str(pk), "--message",
                    str(tmp_path / "m.txt"), "--out", str(tmp_path / "sig.txt"),
                    "--seed", seed]) == 0
        sigs.append(fileio.read_record(tmp_path / "sig.txt", "glyph-signature")[0])
    s1 = fileio.read_record(sk, "glyph-secret")[0].s
    a, b = sigs
    assert ring_sub(a.z1, b.z1) != ring_mul(s1, ring_sub(a.c, b.c))


def test_one_seed_two_bgv_messages_draw_different_masks(tmp_path):
    prm, sk = tmp_path / "prm.txt", tmp_path / "s.key"
    run(["keygen", "--scheme", "bgv", "--m", "32", "--levels", "2", "--seed", SEED,
         "--out-secret", str(sk), "--out-params", str(prm)])
    params = fileio.read_record(prm, "bgv-params")
    parts = []
    for i, message in enumerate(["1,1", "0,1"]):
        (tmp_path / "m.txt").write_text(message)
        ct = tmp_path / f"{i}.ct"
        assert run(["encrypt", "--scheme", "bgv", "--params", str(prm), "--secret", str(sk),
                    "--message", str(tmp_path / "m.txt"), "--out", str(ct),
                    "--seed", SEED2]) == 0
        parts.append(fileio.read_record(ct, "bgv-ciphertext", params=params).parts)
    assert parts[0][1] != parts[1][1]
