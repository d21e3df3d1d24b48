"""Span tracer that times latticelab's public functions from outside.

Nothing in the package changes: :meth:`Tracer.install` swaps each listed
function for a wrapper in every latticelab module whose namespace holds
it (the modules import each other's functions by name, so patching only
the defining module would miss most calls), and swaps listed methods on
their class.  :meth:`Tracer.uninstall` puts the originals back.

Spans are kept in memory as ``[name, start, end, parent]`` and written
as JSONL when the run ends.  Wrappers only record while ``active`` is
set: the harness sets it for the last set-up repetition and for each
operation, so the correctness checks leave no spans.

The scalar helpers of ``zq`` (``reduce_centered`` and friends) are not
wrapped: they run once per coefficient or per candidate, millions of
times per run, and a span on each would cost more than the work it
times.  Their time counts in the self time of the calling span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


# (metric, unit, better).  A "_s" metric is the self time of the span of
# that stem; the rest are counts kept by the wrappers.
PER_LAYER = [
    ("rng.take_s", "s", "lower"),
    ("rng.bytes", "count", "lower"),
    ("rng.draw_s", "s", "lower"),
    ("gaussian.sample_s", "s", "lower"),
    ("gaussian.draws", "count", "lower"),
    ("polyring.ring_mul_s", "s", "lower"),
    ("polyring.ring_mul_calls", "count", "lower"),
    ("polyring.ring_mul_general_s", "s", "lower"),
    ("polyring.ring_mul_general_calls", "count", "lower"),
    ("polyring.norm_s", "s", "lower"),
    ("polyring.add_s", "s", "lower"),
    ("polyring.build_s", "s", "lower"),
    ("polyring.eval_s", "s", "lower"),
    ("polyring.roots_s", "s", "lower"),
    ("polyring.order_s", "s", "lower"),
    ("polyring.split_s", "s", "lower"),
    ("lwe.keygen_s", "s", "lower"),
    ("lwe.encrypt_s", "s", "lower"),
    ("lwe.decrypt_s", "s", "lower"),
    ("plwe.keygen_s", "s", "lower"),
    ("plwe.encrypt_s", "s", "lower"),
    ("plwe.decrypt_s", "s", "lower"),
    ("plwe.sample_s", "s", "lower"),
    ("glyph.keygen_s", "s", "lower"),
    ("glyph.sign_s", "s", "lower"),
    ("glyph.verify_s", "s", "lower"),
    ("glyph.hash_s", "s", "lower"),
    ("glyph.encode_s", "s", "lower"),
    ("glyph.sign_iters", "count", "lower"),
    ("glyph.signatures", "count", "higher"),
    ("glyph.accept_ratio", "ratio", "higher"),
    ("bgv.keygen_s", "s", "lower"),
    ("bgv.encrypt_s", "s", "lower"),
    ("bgv.he_add_s", "s", "lower"),
    ("bgv.he_mul_s", "s", "lower"),
    ("bgv.switch_down_s", "s", "lower"),
    ("bgv.decrypt_s", "s", "lower"),
    ("bgv.circuit_s", "s", "lower"),
    ("attacks.scan_s", "s", "lower"),
    ("attacks.decide_s", "s", "lower"),
    ("attacks.candidates", "count", "lower"),
    ("attacks.region_s", "s", "lower"),
    ("attacks.region_size", "count", "lower"),
    ("attacks.smear_s", "s", "lower"),
    ("fileio.dump_s", "s", "lower"),
    ("fileio.load_s", "s", "lower"),
    ("fileio.bytes", "count", "lower"),
    ("cli.self_s", "s", "lower"),
]


def _nbytes(counts, name, args, out):
    counts["rng.bytes"] += args[1]


def _draws(counts, name, args, out):
    counts["gaussian.draws"] += getattr(out, "size", 1)


def _is_fast_ring(params) -> bool:
    f = params.f
    return f[0] == 1 and f[-1] == 1 and not any(f[1:-1]) and params.int64_safe


def _ring_mul_name(args) -> str:
    return "polyring.ring_mul" if _is_fast_ring(args[0].params) else "polyring.ring_mul_general"


def _ring_mul_calls(counts, name, args, out):
    counts[name + "_calls"] += 1


def _sign_iters(counts, name, args, out):
    counts["glyph.signatures"] += 1
    counts["glyph.sign_iters"] += out[1]


def _candidates(counts, name, args, out):
    verdicts = out[0] if isinstance(out, tuple) else out
    if verdicts:
        q = int(args[1].ring.q)
        counts["attacks.candidates"] += q + sum(v.surviving_secrets for v in verdicts[:-1])


def _region_size(counts, name, args, out):
    counts["attacks.region_size"] += len(out[0])


def _dumped(counts, name, args, out):
    counts["fileio.bytes"] += len(out)


def _loaded(counts, name, args, out):
    counts["fileio.bytes"] += len(args[0])


def span_table(modules):
    """(owner, attribute, span name or namer, counter) for every traced call.

    ``modules`` maps a layer name to its imported module.  A span name
    is also the stem of the per-layer self-time metric ``<name>_s``.
    """
    rng, gaussian, polyring = modules["rng"], modules["gaussian"], modules["polyring"]
    lwe, plwe, glyph, bgv = modules["lwe"], modules["plwe"], modules["glyph"], modules["bgv"]
    attacks, fileio, cli = modules["attacks"], modules["fileio"], modules["cli"]
    rows = [
        (rng.SeededRng, "take_bytes", "rng.take", _nbytes),
        (rng.SeededRng, "bits", "rng.draw", None),
        (rng.SeededRng, "uniform_mod", "rng.draw", None),
        (rng.SeededRng, "uniform_array", "rng.draw", None),
        (rng.SeededRng, "unit_floats", "rng.draw", None),
        (gaussian, "sample_int", "gaussian.sample", _draws),
        (gaussian, "sample_int_array", "gaussian.sample", _draws),
        (gaussian, "fold_to_zq", "gaussian.sample", None),
        (gaussian, "fold_to_zq_array", "gaussian.sample", None),
        (gaussian, "sample_error_vector", "gaussian.sample", None),
        (polyring, "ring_mul", _ring_mul_name, _ring_mul_calls),
        (polyring.RingElement, "centered", "polyring.norm", None),
        (polyring.RingElement, "inf_norm", "polyring.norm", None),
        (polyring, "ring_add", "polyring.add", None),
        (polyring, "ring_sub", "polyring.add", None),
        (polyring, "ring_from_coeffs", "polyring.build", None),
        (polyring, "ring_uniform", "polyring.build", None),
        (polyring, "evaluate", "polyring.eval", None),
        (polyring, "roots_mod_q", "polyring.roots", None),
        (polyring, "mult_order", "polyring.order", None),
        (polyring, "is_totally_split", "polyring.split", None),
        (lwe, "keygen", "lwe.keygen", None),
        (lwe, "encrypt_bit", "lwe.encrypt", None),
        (lwe, "decrypt_bit", "lwe.decrypt", None),
        (plwe, "keygen", "plwe.keygen", None),
        (plwe, "encrypt", "plwe.encrypt", None),
        (plwe, "decrypt", "plwe.decrypt", None),
        (plwe, "oracle_sample", "plwe.sample", None),
        (plwe, "uniform_sample_pair", "plwe.sample", None),
        (glyph, "keygen", "glyph.keygen", None),
        (glyph, "sign", "glyph.sign", _sign_iters),
        (glyph, "verify", "glyph.verify", None),
        (glyph, "hash_to_sparse", "glyph.hash", None),
        (glyph, "encode_poly", "glyph.encode", None),
        (bgv, "setup", "bgv.keygen", None),
        (bgv, "keygen", "bgv.keygen", None),
        (bgv, "encrypt", "bgv.encrypt", None),
        (bgv, "decrypt", "bgv.decrypt", None),
        (bgv, "he_add", "bgv.he_add", None),
        (bgv, "he_mul", "bgv.he_mul", None),
        (bgv, "switch_down", "bgv.switch_down", None),
        (bgv, "eval_circuit", "bgv.circuit", None),
        (attacks, "weakness_scan", "attacks.scan", None),
        (attacks, "decide_alg1", "attacks.decide", _candidates),
        (attacks, "decide_alg2", "attacks.decide", _candidates),
        (attacks, "smallness_region", "attacks.region", _region_size),
        (attacks, "smearing_estimate", "attacks.smear", None),
    ]
    for name, value in sorted(vars(fileio).items()):
        if callable(value) and getattr(value, "__module__", None) == fileio.__name__:
            if name.startswith("dump_"):
                rows.append((fileio, name, "fileio.dump", _dumped))
            elif name.startswith("load_"):
                rows.append((fileio, name, "fileio.load", _loaded))
    for name, value in sorted(vars(cli).items()):
        if name == "main" or name.startswith("cmd_"):
            rows.append((cli, name, "cli.self", None))
    return rows


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name(args) if callable(name) else name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(tracer.counts, rec[0], args, out)
            return out

        return traced

    def install(self, table, package_modules) -> None:
        for owner, attr, name, count in table:
            if isinstance(owner, type):
                fn = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, fn, count))
                self._restore.append((owner, attr, fn))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn, count)
            for mod in package_modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time of direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write_jsonl(self, path, t0: float) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")
