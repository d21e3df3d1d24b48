"""The benchmark's three workloads: sign, attack and cli.

Each workload is one closed loop with one caller.  ``setup()`` builds the
keys and input data from the workload seed (it is timed as set-up);
``prepare_checks()`` builds what the checks need, untimed; ``rounds()``
yields ``(ops, check)`` pairs, where every op is a call into latticelab's
public API that the harness times, and ``check`` sees the ops' results
after the round, outside the timed region.  The amount of work is fixed
by the seed and ``--seconds`` alone, never by the clock, so two runs with
one seed do the same work.

latticelab functions are always reached as module attributes
(``glyph.sign``, not ``from .glyph import sign``), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import math
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from latticelab import attacks, cli, glyph, plwe
from latticelab.polyring import RingParams, ring_from_coeffs
from latticelab.rng import SeededRng
from latticelab.zq import Modulus

import checks
from checks import CheckFailed, require


class OpFailed(Exception):
    """An operation ended in an error the workload does not expect."""


def _stream(seed: bytes, label: str, size: int) -> bytes:
    return hashlib.shake_256(seed + b"/" + label.encode()).digest(size)


def _ints(seed: bytes, label: str, count: int, lo: int, hi: int) -> list[int]:
    """`count` integers in [lo, hi], a pure function of (seed, label)."""
    raw = np.frombuffer(_stream(seed, label, 8 * count), dtype="<u8")
    return [lo + int(v % (hi - lo + 1)) for v in raw]


def _bits(seed: bytes, label: str, count: int) -> str:
    return "".join(str(v) for v in _ints(seed, label, count, 0, 1))


# ---------------------------------------------------------------------------
# sign: GLYPH at full parameters


SIGN_BATCH = 4  # signatures per operation
SIGN_OPS_PER_SECOND = 4.5  # nominal rate on the reference host


class SignWorkload:
    """One operation signs SIGN_BATCH distinct seeded messages and verifies each.

    A single signature's cost is set by its geometric number of rejection
    iterations (~7.5 on average at these parameters), so the median over
    single signatures jumps between iteration counts from seed to seed;
    a batch of four smooths that out.
    """

    def __init__(self, seed: bytes, seconds: int, workdir: Path):
        self.seed = seed
        self.n_ops = max(1, round(seconds * SIGN_OPS_PER_SECOND))
        self.iterations = 0

    def setup(self) -> None:
        self.params = glyph.GlyphParams()
        rng = SeededRng(self.seed)
        self.sk, self.pk = glyph.keygen(self.params, rng.derive("keygen"))
        self.batches = [
            [(_stream(self.seed, f"message/{i}/{j}", 64), rng.derive(f"sign/{i}/{j}"))
             for j in range(SIGN_BATCH)]
            for i in range(self.n_ops)
        ]

    def prepare_checks(self) -> None:
        q = int(self.params.q)
        self.a = np.array(self.pk.a.coeffs, dtype=np.int64)
        self.t = np.array(self.pk.t.coeffs, dtype=np.int64)
        s, e = (checks.centered(x.coeffs, q) for x in (self.sk.s, self.sk.e))
        require(np.abs(s).max() <= 1 and np.abs(e).max() <= 1, "secret key is not ternary")
        checks.check_glyph_key(self.a, s, e, self.t, q)

    def _sign_verify(self, batch):
        out = []
        for message, rng in batch:
            sig, iters = glyph.sign(self.sk, self.pk, message, self.params, rng)
            out.append((message, sig, iters, glyph.verify(self.pk, message, sig, self.params)))
        return out

    def _check(self, results) -> None:
        p = self.params
        for batch in results:
            if batch is None:
                continue
            for message, sig, iters, verdict in batch:
                self.iterations += iters
                require(verdict.accepted, f"verify rejected a fresh signature: {verdict.reason}")
                checks.check_glyph_signature(self.a, self.t, message, sig.c.coeffs,
                                             sig.z1.coeffs, sig.z2.coeffs, int(p.q), p.b, p.k)
                tampered = glyph.verify(self.pk, checks.flip_bit(message), sig, p)
                require(not tampered.accepted and tampered.reason == "challenge mismatch",
                        "a message with one bit flipped was not rejected by challenge mismatch")

    def rounds(self):
        for batch in self.batches:
            yield [lambda batch=batch: self._sign_verify(batch)], self._check

    def work(self) -> dict:
        return {"signatures": self.n_ops * SIGN_BATCH, "sign_iterations": self.iterations}


# ---------------------------------------------------------------------------
# attack: weak-modulus distinguishers and the weakness scan


# Bands of q; each holds one Algorithm 1 and one Algorithm 2 instance.
# The degree of each slot is fixed and the seeded q stays within a few
# percent of its band, so the seed moves no operation's cost by much.
Q_BANDS = (257, 2053, 8209, 32771, 65537, 131101)
DEGREES = (16, 32, 64)
CYCLOTOMIC_M = (16, 60, 105, 128)
SAMPLES = 20  # oracle samples, and as many uniform ones, per instance
SIGMA = 1.5
T_ALG = {1: 3.0, 2: 4.0}
ATTACK_ROUNDS_PER_SECOND = 1.1


def _next_prime(n: int, step: int = 1) -> int:
    while not checks.is_prime_small(n):
        n += step
    return n


class AttackInstance:
    def __init__(self, seed: bytes, label: str, alg: int, n: int, q: int):
        self.alg, self.n, self.q = alg, n, q
        self.alpha = 1 if alg == 1 else q - 1
        self.t = T_ALG[alg]
        positions = _ints(seed, label + "/pos", 2, 1, n - 1)
        values = [v if v else 1 for v in _ints(seed, label + "/val", 2, -3, 3)]
        f = [0] * n + [1]
        for pos, val in zip(positions, values):
            f[pos] += val
        # f(alpha) = 0 mod q fixes the constant term.
        f[0] = -checks.eval_at(f, self.alpha, q) % q or q
        self.f = f
        self.modulus = Modulus(q)
        self.params = plwe.PlweParams(ring=RingParams(f=tuple(f), q=self.modulus), sigma=SIGMA)
        rng = SeededRng(_stream(seed, label + "/rng", 32))
        secret = ring_from_coeffs(
            [int(v) for v in rng.derive("secret").uniform_array(q, n)], self.params.ring)
        self.oracle = [plwe.oracle_sample(self.params, secret, rng.derive(f"o{i}"))
                       for i in range(SAMPLES)]
        self.uniform = [plwe.uniform_sample_pair(self.params, rng.derive(f"u{i}"))
                        for i in range(SAMPLES)]

    def decide(self, samples):
        if self.alg == 1:
            return attacks.decide_alg1(samples, self.params, t=self.t)
        return attacks.decide_alg2(samples, self.params, self.alpha, t=self.t)

    def run(self):
        report = attacks.weakness_scan(self.f, self.modulus)
        return report, self.decide(self.oracle), self.decide(self.uniform)

    def expected_counts(self) -> tuple[list[int], list[int]]:
        q = self.q
        if self.alg == 1:
            accept = checks.threshold_mask(q, self.t * math.sqrt(self.n) * SIGMA)
        else:
            accept = checks.region_mask(self.alpha, q, self.n, SIGMA, self.t)

        def counts(samples):
            evals = [(checks.eval_at(s.a.coeffs, self.alpha, q),
                      checks.eval_at(s.b.coeffs, self.alpha, q)) for s in samples]
            return checks.survivor_counts(evals, q, accept)

        return counts(self.oracle), counts(self.uniform)


class AttackWorkload:
    """Each operation is one (f, q) instance: weakness_scan, then the matching
    distinguisher on oracle samples and on uniform samples; a few scans of
    cyclotomic Phi_m over primes q = 1 (mod m) ride along."""

    def __init__(self, seed: bytes, seconds: int, workdir: Path):
        self.seed = seed
        self.n_rounds = max(1, round(seconds * ATTACK_ROUNDS_PER_SECOND))
        self.survivors = 0

    def setup(self) -> None:
        self.instances = []
        for b, band in enumerate(Q_BANDS):
            for alg in (1, 2):
                label = f"band{b}/alg{alg}"
                q = band if b == 0 else _next_prime(
                    band + _ints(self.seed, label + "/q", 1, 0, band // 32)[0])
                n = DEGREES[(b + alg) % len(DEGREES)]
                self.instances.append(AttackInstance(self.seed, label, alg, n, q))
        self.cyclotomic = []
        for m in CYCLOTOMIC_M:
            start = _ints(self.seed, f"phi{m}/q", 1, 1 << 14, (1 << 14) + (1 << 10))[0]
            q = _next_prime(start + (1 - start) % m, step=m)
            self.cyclotomic.append((m, q, checks.cyclotomic(m), Modulus(q)))

    def prepare_checks(self) -> None:
        self.expected = [inst.expected_counts() for inst in self.instances]

    def _check(self, results) -> None:
        k = len(self.instances)
        for inst, expected, result in zip(self.instances, self.expected, results[:k]):
            if result is None:
                continue
            report, oracle, uniform = result
            checks.check_scan(report, inst.f, inst.q)
            checks.check_verdicts(oracle, expected[0])
            checks.check_verdicts(uniform, expected[1])
            self.survivors += sum(expected[0]) + sum(expected[1])
        for (m, q, _, _), report in zip(self.cyclotomic, results[k:]):
            if report is not None:
                checks.check_cyclotomic_scan(report, m, q)

    def rounds(self):
        ops = [inst.run for inst in self.instances]
        ops += [lambda f=f, mod=mod: attacks.weakness_scan(f, mod)
                for _, _, f, mod in self.cyclotomic]
        for _ in range(self.n_rounds):
            yield ops, self._check

    def work(self) -> dict:
        return {"rounds": self.n_rounds, "instances": len(self.instances),
                "cyclotomic_scans": len(self.cyclotomic), "survivors_total": self.survivors}


# ---------------------------------------------------------------------------
# cli: the README tour through latticelab.cli.main


CLI_ROUNDS_PER_SECOND = 3.0
LWE_N, PLWE_N, GLYPH_N, BGV_M = 64, 256, 256, 32
SAMPLE_COUNT, SAMPLE_SIGMA = 20_000, 3.2
SMEAR_TRIALS = 1000
WEAK_Q = 257
WEAK_F = [WEAK_Q - 2, 1] + [0] * 14 + [1]  # x^16 + x + 255: f(1) = 0 mod 257


class CliWorkload:
    """Each verb call of the README tour is one operation, run in-process
    on files in a scratch directory; one round is one full tour with its
    own seed and messages.  Set-up makes every round's input texts in
    memory; a round writes them to its directory just before it starts."""

    def __init__(self, seed: bytes, seconds: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.n_rounds = max(1, round(seconds * CLI_ROUNDS_PER_SECOND))
        self.sign_iterations = 0

    def setup(self) -> None:
        self.inputs = []
        bgv_n = len(checks.cyclotomic(BGV_M)) - 1
        for r in range(self.n_rounds):
            pts = {w: _ints(self.seed, f"{r}/bgv/{w}", bgv_n, 0, 1) for w in "abc"}
            scan_q = _next_prime(_ints(self.seed, f"{r}/scan/q", 1, 257, 4096)[0])
            scan_f = [0, 0, 0, 1] + [0] * 12 + [1]
            scan_f[0] = -checks.eval_at(scan_f, 1, scan_q) % scan_q or scan_q
            files = {
                "msg32.txt": _bits(self.seed, f"{r}/msg32", 32) + "\n",
                "msg256.txt": _bits(self.seed, f"{r}/msg256", PLWE_N) + "\n",
                "circuit.txt": "MUL t a b\nADD out t c\n",
                "weak.prm": f"latticelab-plwe-v1\nn=16\nq={WEAK_Q}\n"
                f"f={','.join(map(str, WEAK_F))}\nsigma=1.5\n",
            }
            files.update({f"{w}.pt": ",".join(map(str, pt)) + "\n" for w, pt in pts.items()})
            self.inputs.append({
                "dir": self.workdir / f"round{r}", "files": files,
                "seed": _stream(self.seed, f"{r}/cli-seed", 32).hex(),
                "pts": pts, "scan": (scan_f, scan_q),
                "msg32": files["msg32.txt"].strip(), "msg256": files["msg256.txt"].strip(),
            })

    def prepare_checks(self) -> None:
        pass

    @staticmethod
    def _cli(argv, expect: int = 0) -> tuple[str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if rc != expect:
            raise OpFailed(f"latticelab {argv[0]} exited {rc}: {err.getvalue().strip()}")
        return out.getvalue(), err.getvalue()

    def _tour(self, inp) -> list[tuple[str, list[str]]]:
        """(step, argv) for every verb call of one round, in order."""
        d, seed = inp["dir"], ["--seed", inp["seed"]]
        f = lambda name: str(d / name)  # noqa: E731
        scan_f, scan_q = inp["scan"]
        tour = [
            ("lwe-keygen", ["keygen", "--scheme", "lwe", "--n", str(LWE_N),
                            "--out-secret", f("lwe.key"), "--out-public", f("lwe.pub")] + seed),
            ("lwe-encrypt", ["encrypt", "--scheme", "lwe", "--public", f("lwe.pub"),
                             "--message", f("msg32.txt"), "--out", f("lwe.ct")] + seed),
            ("lwe-decrypt", ["decrypt", "--scheme", "lwe", "--secret", f("lwe.key"),
                             "--in", f("lwe.ct"), "--out", f("lwe.dec")]),
            ("plwe-keygen", ["keygen", "--scheme", "plwe", "--n", str(PLWE_N),
                             "--out-secret", f("plwe.key"), "--out-public", f("plwe.pub")] + seed),
            ("plwe-encrypt", ["encrypt", "--scheme", "plwe", "--public", f("plwe.pub"),
                              "--message", f("msg256.txt"), "--out", f("plwe.ct")] + seed),
            ("plwe-decrypt", ["decrypt", "--scheme", "plwe", "--secret", f("plwe.key"),
                              "--in", f("plwe.ct"), "--out", f("plwe.dec")]),
            ("glyph-keygen", ["keygen", "--scheme", "glyph", "--n", str(GLYPH_N), "--out-secret",
                              f("glyph.key"), "--out-public", f("glyph.pub")] + seed),
            ("sign", ["sign", "--secret", f("glyph.key"), "--public", f("glyph.pub"),
                      "--message", f("msg32.txt"), "--out", f("sig.txt")] + seed),
            ("verify", ["verify", "--public", f("glyph.pub"), "--message", f("msg32.txt"),
                        "--signature", f("sig.txt")]),
            ("bgv-keygen", ["keygen", "--scheme", "bgv", "--m", str(BGV_M), "--p", "2",
                            "--levels", "3", "--out-secret", f("bgv.key"),
                            "--out-params", f("bgv.prm")] + seed),
        ]
        tour += [
            (f"bgv-encrypt-{w}", ["encrypt", "--scheme", "bgv", "--params", f("bgv.prm"),
                                  "--secret", f("bgv.key"), "--message", f(f"{w}.pt"),
                                  "--out", f(f"{w}.ct"), "--seed",
                                  _stream(bytes.fromhex(inp["seed"]), w, 32).hex()])
            for w in "abc"
        ]
        tour += [
            ("bgv-eval", ["bgv-eval", "--params", f("bgv.prm"), "--circuit", f("circuit.txt"),
                          "--in", f"a={f('a.ct')}", "--in", f"b={f('b.ct')}",
                          "--in", f"c={f('c.ct')}", "--out", f"out={f('out.ct')}"]),
            ("bgv-decrypt", ["decrypt", "--scheme", "bgv", "--params", f("bgv.prm"),
                             "--secret", f("bgv.key"), "--in", f("out.ct"), "--out", f("out.pt")]),
            ("scan", ["scan", "--f", ",".join(map(str, scan_f)), "--q", str(scan_q),
                      "--out", f("scan.txt")]),
            ("sample", ["sample", "--dist", "gaussian", "--sigma", str(SAMPLE_SIGMA),
                        "--count", str(SAMPLE_COUNT), "--out", f("sample.txt")] + seed),
            ("smear", ["smear", "--params", f("weak.prm"), "--alpha", "1",
                       "--trials", str(SMEAR_TRIALS), "--out", f("smear.txt")] + seed),
        ]
        return tour

    def _check(self, inp, results) -> None:
        """Check the outputs of the steps that did not fail."""
        d = inp["dir"]
        read = lambda name: (d / name).read_text()  # noqa: E731
        out = {step: res for (step, _), res in zip(self._tour(inp), results) if res is not None}
        if "lwe-decrypt" in out:
            checks.check_bits(inp["msg32"], read("lwe.dec"), "lwe")
        if "plwe-decrypt" in out:
            checks.check_bits(inp["msg256"], read("plwe.dec"), "plwe")
        if "sign" in out:
            self.sign_iterations += int(out["sign"][1].split()[2])
        if "verify" in out:
            require(out["verify"][0] == "accept\n", "verify did not print accept")
            (d / "tampered.txt").write_bytes(checks.flip_bit((d / "msg32.txt").read_bytes()))
            _, err = self._cli(["verify", "--public", str(d / "glyph.pub"), "--message",
                                str(d / "tampered.txt"), "--signature", str(d / "sig.txt")],
                               expect=1)
            require("challenge mismatch" in err, "tampered message not rejected by challenge")
        if "bgv-decrypt" in out:
            pts = inp["pts"]
            want = checks.bgv_clear(pts["a"], pts["b"], pts["c"], BGV_M, 2)
            got = [int(v) for v in read("out.pt").strip().split(",")]
            require(got == want, "BGV circuit output differs from (a*b)+c in the clear")
        if "scan" in out:
            check_scan_text(read("scan.txt"), *inp["scan"])
        if "sample" in out:
            draws = np.array(read("sample.txt").split(), dtype=np.int64)
            require(len(draws) == SAMPLE_COUNT, "sample printed the wrong number of draws")
            checks.gaussian_fit(draws, SAMPLE_SIGMA)
        if "smear" in out:
            est = float(read("smear.txt"))
            hits = est * WEAK_Q
            require(0 < est <= 1 and abs(hits - round(hits)) < 1e-6,
                    "smear estimate is not a hit count over q")

    def rounds(self):
        for inp in self.inputs:
            inp["dir"].mkdir(parents=True, exist_ok=True)
            for name, text in inp["files"].items():
                (inp["dir"] / name).write_text(text)
            ops = [lambda argv=argv: self._cli(argv) for _, argv in self._tour(inp)]

            def check(results, inp=inp):
                try:
                    self._check(inp, results)
                finally:
                    shutil.rmtree(inp["dir"], ignore_errors=True)

            yield ops, check

    def work(self) -> dict:
        return {"rounds": self.n_rounds, "glyph_sign_iterations": self.sign_iterations}


def check_scan_text(text: str, f, q: int) -> None:
    """The rendered scan report against a direct evaluation of f mod q."""
    fields = dict(line.split(":", 1) for line in text.splitlines() if ":" in line)
    fields = {k.strip(): v.strip() for k, v in fields.items()}

    def pairs(key):
        return () if fields[key] == "none" else tuple(ast.literal_eval(fields[key]))

    try:
        report = SimpleNamespace(
            root_one=fields["root_one"] == "True",
            totally_split=fields["totally_split"] == "True",
            roots=pairs("roots (alpha, order)"),
            small_order_roots=pairs("small_order_roots"),
        )
    except (KeyError, ValueError, SyntaxError) as e:
        raise CheckFailed(f"scan output unreadable: {e}") from e
    checks.check_scan(report, f, q)


WORKLOADS = {"sign": SignWorkload, "attack": AttackWorkload, "cli": CliWorkload}
