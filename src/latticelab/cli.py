"""Single command-line entry point for the whole laboratory.

All randomness flows from one --seed flag (256-bit hex) through
domain-separated derived streams; without the flag a fresh entropy seed
is drawn and printed to stderr so any run can be replayed.  Exit codes:
0 success, 1 domain failure (decryption failure, rejected signature,
failed attack precondition), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import re
import sys
import time
from pathlib import Path

from . import attacks, bgv, fileio, glyph, lwe, plwe
from .errors import LatticeLabError
from .gaussian import GaussianParams, fold_to_zq_array, sample_int_array
from .polyring import check_same_params, parse_poly
from .rng import SEED_BYTES, SeededRng
from .zq import Modulus


def _matching(pattern: str, what: str, convert=str):
    """argparse type: convert(text) of a text that fully matches `pattern`."""
    def parse(text: str):
        if not re.fullmatch(pattern, text):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return convert(text)
    return parse


_SEED = _matching(f"[0-9a-fA-F]{{{2 * SEED_BYTES}}}", f"{2 * SEED_BYTES} hex digits")
_COUNT = _matching("[0-9]+", "an integer >= 0", int)
_POSITIVE = _matching("[0-9]*[1-9][0-9]*", "an integer >= 1", int)
_BINDING = _matching("[^=]+=.+", "WIRE=FILE", lambda text: text.split("=", 1))


def _finite_positive(text: str) -> float:
    """argparse type: a float that is finite and > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Takes long options only in full; prints a usage error as one line,
    without the usage summary.  Subparsers are built by the same class."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _rng_from_args(args) -> SeededRng:
    if args.seed:
        return SeededRng.from_hex(args.seed)
    rng = SeededRng.from_entropy()
    print(f"seed: {rng.seed.hex()}", file=sys.stderr)
    return rng


def _write_out(path, text) -> None:
    """Write `text`, a str or an iterable of str blocks, to the file `path`,
    or to stdout if `path` is None or empty (as --out is when not given).
    A key path is passed as a Path, so an empty one names "." instead."""
    blocks = (text,) if isinstance(text, str) else text
    if path:
        with Path(path).open("w") as fh:
            fh.writelines(blocks)
    else:
        sys.stdout.writelines(blocks)


def _read_message(path: str) -> tuple[bytes, str]:
    """The message's bytes and their hex SHA-256, which keys every per-message
    stream: two messages under one --seed share no randomness."""
    data = Path(path).read_bytes()
    return data, hashlib.sha256(data).hexdigest()


def _bits(data: bytes) -> list[int]:
    return [int(ch) for ch in data.decode("utf-8", "replace") if ch in "01"]


# ---------------------------------------------------------------------------
# keygen


def cmd_keygen(args) -> int:
    rng = _rng_from_args(args)
    if args.scheme == "lwe":
        params = lwe.derive_params(args.n)
        sk, pk = lwe.keygen(params, rng.derive("lwe-keygen"))
        _write_out(Path(args.out_secret), fileio.record_blocks("lwe-secret", sk, params))
        _write_out(Path(args.out_public), fileio.record_blocks("lwe-public", pk))
    elif args.scheme == "plwe":
        params = plwe.default_params(args.n, sigma=args.sigma, floor=args.q_floor)
        kp = plwe.keygen(params, rng.derive("plwe-keygen"))
        _write_out(Path(args.out_secret), fileio.record_blocks("plwe-secret", kp.s, params))
        _write_out(Path(args.out_public), fileio.record_blocks("plwe-public", (kp.a, kp.b), params))
    elif args.scheme == "glyph":
        params = glyph.GlyphParams(n=args.n)
        sk, pk = glyph.keygen(params, rng.derive("glyph-keygen"))
        _write_out(Path(args.out_secret), fileio.record_blocks("glyph-secret", sk, params))
        _write_out(Path(args.out_public), fileio.record_blocks("glyph-public", pk, params))
    else:  # bgv
        params = bgv.setup(args.m, args.p, args.r, args.levels)
        sk = bgv.keygen(params, rng.derive("bgv-keygen"))
        _write_out(Path(args.out_params), fileio.record_blocks("bgv-params", params))
        _write_out(Path(args.out_secret), fileio.record_blocks("bgv-secret", sk))
    return 0


# ---------------------------------------------------------------------------
# encrypt / decrypt


def cmd_encrypt(args) -> int:
    rng = _rng_from_args(args)
    message, digest = _read_message(args.message)
    if args.scheme == "lwe":
        pk = fileio.read_record(args.public, "lwe-public")
        bits = _bits(message)
        cts = lwe.encrypt_bits(pk, bits, [rng.derive(f"lwe-bit-{i}/{digest}")
                                          for i in range(len(bits))])
        _write_out(args.out, fileio.record_blocks("lwe-ciphertext", cts, pk.params))
    elif args.scheme == "plwe":
        pk, params = fileio.read_record(args.public, "plwe-public")
        bits = _bits(message)
        n = params.n
        blocks = []
        for i in range(0, max(len(bits), 1), n):
            block = bits[i : i + n]
            block += [0] * (n - len(block))  # zero-pad the final block
            blocks.append(
                plwe.encrypt(pk, block, params, rng.derive(f"plwe-block-{i // n}/{digest}"))
            )
        _write_out(args.out, fileio.record_blocks("plwe-ciphertext", blocks, params))
    else:  # bgv
        params = fileio.read_record(args.params, "bgv-params")
        sk = fileio.read_record(args.secret, "bgv-secret")
        pt = parse_poly(message.decode("utf-8", "replace"))
        ct = bgv.encrypt(pt, sk, params, rng.derive(f"bgv-encrypt/{digest}"))
        _write_out(args.out, fileio.record_blocks("bgv-ciphertext", ct, params))
    return 0


def cmd_decrypt(args) -> int:
    if args.scheme == "lwe":
        sk, params = fileio.read_record(args.secret, "lwe-secret")
        cts, ct_params = fileio.read_record(args.infile, "lwe-ciphertext")
        check_same_params(ct_params, params, "the ciphertext's LWE", "the secret key's")
        bits = "".join(str(lwe.decrypt_bit(sk, ct, params)) for ct in cts)
        _write_out(args.out, bits + "\n")
    elif args.scheme == "plwe":
        s, params = fileio.read_record(args.secret, "plwe-secret")
        blocks, ct_params = fileio.read_record(args.infile, "plwe-ciphertext")
        check_same_params(ct_params, params, "the ciphertext's PLWE", "the secret key's")
        bits = "".join("".join(map(str, plwe.decrypt(s, ct))) for ct in blocks)
        _write_out(args.out, bits + "\n")
    else:  # bgv
        params = fileio.read_record(args.params, "bgv-params")
        sk = fileio.read_record(args.secret, "bgv-secret")
        ct = fileio.read_record(args.infile, "bgv-ciphertext", params=params)
        pt = bgv.decrypt(ct, sk, params)
        _write_out(args.out, ",".join(map(str, pt)) + "\n")
    return 0


# ---------------------------------------------------------------------------
# sign / verify


def cmd_sign(args) -> int:
    rng = _rng_from_args(args)
    sk, params = fileio.read_record(args.secret, "glyph-secret")
    pk, pk_params = fileio.read_record(args.public, "glyph-public")
    check_same_params(pk_params, params, "the public key's GLYPH", "the secret key's")
    message, digest = _read_message(args.message)
    sig, iters = glyph.sign(sk, pk, message, params, rng.derive(f"glyph-sign/{digest}"))
    print(f"signed in {iters} iteration(s)", file=sys.stderr)
    _write_out(args.out, fileio.record_blocks("glyph-signature", sig, params))
    return 0


def cmd_verify(args) -> int:
    pk, params = fileio.read_record(args.public, "glyph-public")
    sig, sig_params = fileio.read_record(args.signature, "glyph-signature")
    check_same_params(sig_params, params, "the signature's GLYPH", "the public key's")
    message = Path(args.message).read_bytes()
    result = glyph.verify(pk, message, sig, params)
    if not result.accepted:
        print(f"reject: {result.reason}", file=sys.stderr)
        return 1
    print("accept")
    return 0


# ---------------------------------------------------------------------------
# scan / attack / smear


def cmd_scan(args) -> int:
    report = attacks.weakness_scan(parse_poly(args.f), Modulus(args.q), r_max=args.r_max)
    _write_out(args.out, report.render_text() + "\n")
    return 0


def cmd_attack(args) -> int:
    samples, params = fileio.read_record(args.samples, "plwe-samples")
    if args.alg == 1:
        verdicts = attacks.decide_alg1(samples, params, t=args.t)
    else:
        verdicts = attacks.decide_alg2(samples, params, args.alpha, t=args.t,
                                       r_max=args.r_max)
    lines = [
        f"{i}\t{v.label}\t{v.surviving_secrets}" for i, v in enumerate(verdicts)
    ]
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_smear(args) -> int:
    rng = _rng_from_args(args)
    params = fileio.read_record(args.params, "plwe-params")
    est = attacks.smearing_estimate(params, args.alpha, args.trials, rng.derive("smear"))
    _write_out(args.out, f"{est!r}\n")
    return 0


# ---------------------------------------------------------------------------
# bgv-eval


def cmd_bgv_eval(args) -> int:
    params = fileio.read_record(args.params, "bgv-params")
    inputs = {}
    for wire, path in args.inputs:
        inputs[wire] = fileio.read_record(path, "bgv-ciphertext", params=params)
    lines = Path(args.circuit).read_bytes().decode("utf-8", "replace").splitlines()
    wires = bgv.eval_circuit(lines, inputs, params)
    for wire, path in args.outputs:
        if wire not in wires:
            raise LatticeLabError(f"no wire named {wire!r}")
        _write_out(path, fileio.record_blocks("bgv-ciphertext", wires[wire], params))
    return 0


# ---------------------------------------------------------------------------
# sample / bench


def _draw_lines(draws):
    """One draw per line, as blocks of text; no draws: one newline."""
    return fileio.format_row_blocks(draws[:, None]) if len(draws) else "\n"


def cmd_sample(args) -> int:
    rng = _rng_from_args(args).derive("sample")
    if args.dist == "gaussian":
        gp = GaussianParams(sigma=args.sigma)
        if args.q:
            draws = fold_to_zq_array(gp, Modulus(args.q), rng, args.count)
        else:
            draws = sample_int_array(gp, rng, args.count)
        _write_out(args.out, _draw_lines(draws))
    elif args.dist == "uniform":
        _write_out(args.out, _draw_lines(rng.uniform_array(args.q, args.count)))
    else:
        if args.dist == "plwe-oracle":
            s, params = fileio.read_record(args.secret, "plwe-secret")
            if args.params:
                check_same_params(fileio.read_record(args.params, "plwe-params"), params,
                                  "the parameter file's PLWE", "the secret key's")
            samples = [
                plwe.oracle_sample(params, s, rng.derive(f"oracle-{i}"))
                for i in range(args.count)
            ]
        else:  # plwe-uniform
            params = fileio.read_record(args.params, "plwe-params")
            samples = [
                plwe.uniform_sample_pair(params, rng.derive(f"uniform-{i}"))
                for i in range(args.count)
            ]
        _write_out(args.out, fileio.record_blocks("plwe-samples", samples, params))
    return 0


def cmd_bench(args) -> int:
    rng = _rng_from_args(args)
    n = args.n
    rows = [("operation", "seconds", "detail")]

    lwe_params = lwe.derive_params(n)
    t0 = time.perf_counter()
    lwe_sk, lwe_pk = lwe.keygen(lwe_params, rng.derive("bench-lwe"))
    rows.append(("lwe-keygen", f"{time.perf_counter() - t0:.4f}",
                 f"pk={lwe.public_key_size(lwe_params)} residues"))

    t0 = time.perf_counter()
    ct = lwe.encrypt_bit(lwe_pk, 1, rng.derive("bench-lwe-enc"))
    rows.append(("lwe-encrypt-bit", f"{time.perf_counter() - t0:.4f}",
                 f"ct={n + 1} residues"))
    lwe.decrypt_bit(lwe_sk, ct, lwe_params)

    plwe_params = plwe.default_params(n)
    t0 = time.perf_counter()
    kp = plwe.keygen(plwe_params, rng.derive("bench-plwe"))
    rows.append(("plwe-keygen", f"{time.perf_counter() - t0:.4f}",
                 f"pk={plwe.public_key_size(plwe_params)} residues"))

    t0 = time.perf_counter()
    plwe.encrypt((kp.a, kp.b), [0] * n, plwe_params, rng.derive("bench-plwe-enc"))
    rows.append(("plwe-encrypt-block", f"{time.perf_counter() - t0:.4f}",
                 f"ct={2 * n} residues"))

    ratio = lwe.public_key_size(lwe_params) / plwe.public_key_size(plwe_params)
    rows.append(("pk-size-ratio", "-", f"lwe/plwe={ratio:.1f}x"))

    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    out = "\n".join(
        "  ".join(col.ljust(w) for col, w in zip(row, widths)) for row in rows
    )
    _write_out(args.out, out + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argparse tree, built on first use and shared by
    every later call, so nothing may change it once built."""
    parser = _Parser(
        prog="latticelab",
        description="Lattice cryptography laboratory: LWE, PLWE/LPR, GLYPH, BGV, "
        "and the PLWE evaluation attacks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=_SEED,
                       help="256-bit hex seed for reproducible runs")

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--scheme", required=True, choices=["lwe", "plwe", "glyph", "bgv"])
    p.add_argument("--n", type=_POSITIVE, default=256)
    p.add_argument("--sigma", type=_finite_positive, default=3.2)
    p.add_argument("--q-floor", type=_POSITIVE, default=4096)
    p.add_argument("--m", type=_POSITIVE, default=32, help="bgv: cyclotomic index")
    p.add_argument("--p", type=_POSITIVE, default=2, help="bgv: plaintext prime")
    p.add_argument("--r", type=_POSITIVE, default=1, help="bgv: plaintext exponent")
    p.add_argument("--levels", type=_POSITIVE, default=3)
    p.add_argument("--out-secret", default="secret.key")
    p.add_argument("--out-public", default="public.key")
    p.add_argument("--out-params", default="params.txt")
    add_seed(p)

    p = sub.add_parser("encrypt", help="encrypt a message")
    p.add_argument("--scheme", required=True, choices=["lwe", "plwe", "bgv"])
    p.add_argument("--public", help="public key file (lwe/plwe)")
    p.add_argument("--params", help="parameter file (bgv)")
    p.add_argument("--secret", help="secret key file (bgv is symmetric-key)")
    p.add_argument("--message", required=True)
    p.add_argument("--out")
    add_seed(p)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext")
    p.add_argument("--scheme", required=True, choices=["lwe", "plwe", "bgv"])
    p.add_argument("--secret", required=True)
    p.add_argument("--params", help="parameter file (bgv)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p = sub.add_parser("sign", help="sign a message (glyph)")
    p.add_argument("--scheme", choices=["glyph"], default="glyph")
    p.add_argument("--secret", required=True)
    p.add_argument("--public", required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--out")
    add_seed(p)

    p = sub.add_parser("verify", help="verify a signature (glyph)")
    p.add_argument("--scheme", choices=["glyph"], default="glyph")
    p.add_argument("--public", required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--signature", required=True)

    p = sub.add_parser("scan", help="parameter weakness scan for (f, q)")
    p.add_argument("--f", required=True, help="coefficient CSV, lowest first")
    p.add_argument("--q", type=_POSITIVE, required=True)
    p.add_argument("--r-max", type=_POSITIVE, default=8)
    p.add_argument("--out")

    p = sub.add_parser(
        "attack", help="run a PLWE evaluation distinguisher (bound t * sqrt(M+1) * sigma)",
        description="Run a PLWE evaluation distinguisher on a samples file, whose header "
        "gives f, q and sigma. A candidate secret survives a sample when the sample's error "
        "at the root alpha is a sum of c_i * alpha^i, i < r, with every |c_i| at most "
        "t * sqrt(M+1) * sigma, where r is the order of alpha and n - 1 = r*M + l.")
    p.add_argument("--alg", type=int, required=True, choices=[1, 2])
    p.add_argument("--samples", required=True)
    p.add_argument("--alpha", type=_COUNT, help="root of f mod q (algorithm 2)")
    p.add_argument("--t", type=_finite_positive, default=3.0,
                   help="the bound's multiplier: the bound is t * sqrt(M+1) * sigma, so an "
                   "assumed sigma' is --t t*sigma'/sigma")
    p.add_argument("--r-max", type=_POSITIVE, default=8)
    p.add_argument("--out")

    p = sub.add_parser("smear", help="Monte-Carlo smearing estimate")
    p.add_argument("--params", required=True)
    p.add_argument("--alpha", type=_COUNT, required=True)
    p.add_argument("--trials", type=_POSITIVE, default=100_000)
    p.add_argument("--out")
    add_seed(p)

    p = sub.add_parser("bgv-eval", help="evaluate an ADD/MUL circuit homomorphically")
    p.add_argument("--params", required=True)
    p.add_argument("--circuit", required=True)
    p.add_argument("--in", dest="inputs", action="append", default=[], type=_BINDING,
                   metavar="WIRE=FILE")
    p.add_argument("--out", dest="outputs", action="append", default=[], type=_BINDING,
                   metavar="WIRE=FILE")

    p = sub.add_parser("sample", help="draw from the lab's distributions")
    p.add_argument("--dist", required=True,
                   choices=["gaussian", "uniform", "plwe-oracle", "plwe-uniform"])
    p.add_argument("--sigma", type=_finite_positive, default=3.2)
    p.add_argument("--q", type=_POSITIVE)
    p.add_argument("--count", type=_COUNT, default=16)
    p.add_argument("--params", help="plwe parameter file: plwe-uniform's parameters; "
                   "plwe-oracle takes the secret key's and checks them against it")
    p.add_argument("--secret", help="plwe secret key (oracle samples)")
    p.add_argument("--out")
    add_seed(p)

    p = sub.add_parser("bench", help="operation timings and key sizes")
    p.add_argument("--n", type=_POSITIVE, default=64)
    p.add_argument("--out")
    add_seed(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one verb; returns the exit code, or exits 2 on a usage error.

    The parser is built once per process, and the verb's `cmd_<verb>` is
    looked up by name at call time, so a replaced module attribute is the
    one that runs.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "encrypt" and args.scheme in ("lwe", "plwe") and not args.public:
        parser.error(f"--public is required for scheme {args.scheme}")
    if args.verb in ("encrypt", "decrypt") and args.scheme == "bgv" and not args.params:
        parser.error("--params is required for scheme bgv")
    if args.verb == "encrypt" and args.scheme == "bgv" and not args.secret:
        parser.error("--secret is required for scheme bgv")
    if args.verb == "attack" and args.alg == 2 and args.alpha is None:
        parser.error("--alpha is required for --alg 2")
    if args.verb == "attack" and args.alg == 1 and args.alpha is not None:
        parser.error("--alpha is only for --alg 2")
    if args.verb == "sample" and args.dist == "uniform" and not args.q:
        parser.error("--q is required for --dist uniform")
    if args.verb == "sample" and args.dist == "plwe-uniform" and not args.params:
        parser.error("--params is required for --dist plwe-uniform")
    if args.verb == "sample" and args.dist == "plwe-oracle" and not args.secret:
        parser.error("--secret is required for --dist plwe-oracle")
    try:
        return globals()["cmd_" + args.verb.replace("-", "_")](args)
    except (LatticeLabError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
