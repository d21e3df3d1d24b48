"""Text file formats for keys, ciphertexts, signatures and samples.

Every file is line-oriented: a header line naming format and version,
then "key=value" lines.  Coefficient vectors are comma-separated base-10
residues, lowest degree first.  Text beats binary here: the artifact is
a laboratory and inspectability matters more than compactness.
"""

from __future__ import annotations

import math

from . import bgv as bgv_mod
from . import glyph as glyph_mod
from . import lwe as lwe_mod
from . import plwe as plwe_mod
from .errors import FormatError
from .polyring import RingElement, RingParams, format_poly, parse_poly
from .zq import Modulus

import numpy as np

LWE_HEADER = "latticelab-lwe-v1"
PLWE_HEADER = "latticelab-plwe-v1"
GLYPH_HEADER = "latticelab-glyph-v1"
BGV_HEADER = "latticelab-bgv-v1"


def _parse_kv(text: str, header: str) -> list[tuple[str, str]]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != header:
        raise FormatError(f"expected header {header!r}")
    out = []
    for ln in lines[1:]:
        if "=" not in ln:
            raise FormatError(f"bad line {ln!r}")
        k, v = ln.split("=", 1)
        out.append((k.strip(), v.strip()))
    return out


def _fields(kv: list[tuple[str, str]]) -> dict[str, str]:
    return dict(kv)


def _require(d: dict[str, str], *keys: str) -> None:
    for k in keys:
        if k not in d:
            raise FormatError(f"missing field {k!r}")


# ---------------------------------------------------------------------------
# LWE


def dump_lwe_secret(sk: lwe_mod.LweSecretKey, p: lwe_mod.LweParams) -> str:
    head = [LWE_HEADER, "type=secret", f"n={p.n}", f"q={int(p.q)}",
            f"alpha={p.alpha!r}", f"m={p.m}"]
    return "\n".join(head + [f"s={format_poly(sk.s)}"]) + "\n"


def dump_lwe_public(pk: lwe_mod.LwePublicKey) -> str:
    p = pk.params
    head = [LWE_HEADER, "type=public", f"n={p.n}", f"q={int(p.q)}",
            f"alpha={p.alpha!r}", f"m={p.m}"]
    rows = [f"sample={format_poly(list(a) + [b])}" for a, b in zip(pk.a, pk.b)]
    return "\n".join(head + rows) + "\n"


def _lwe_params_from(d: dict[str, str]) -> lwe_mod.LweParams:
    _require(d, "n", "q", "alpha", "m")
    return lwe_mod.LweParams(
        n=int(d["n"]), q=Modulus(int(d["q"])), alpha=float(d["alpha"]), m=int(d["m"])
    )


def load_lwe_secret(text: str) -> tuple[lwe_mod.LweSecretKey, lwe_mod.LweParams]:
    kv = _parse_kv(text, LWE_HEADER)
    d = _fields(kv)
    if d.get("type") != "secret":
        raise FormatError("not an LWE secret key file")
    p = _lwe_params_from(d)
    return lwe_mod.LweSecretKey(s=np.array(parse_poly(d["s"]), dtype=np.int64)), p


def load_lwe_public(text: str) -> lwe_mod.LwePublicKey:
    kv = _parse_kv(text, LWE_HEADER)
    d = _fields(kv)
    if d.get("type") != "public":
        raise FormatError("not an LWE public key file")
    p = _lwe_params_from(d)
    rows = [parse_poly(v) for k, v in kv if k == "sample"]
    if len(rows) != p.m or any(len(r) != p.n + 1 for r in rows):
        raise FormatError("public key sample count/shape mismatch")
    mat = np.array(rows, dtype=np.int64)
    return lwe_mod.LwePublicKey(a=mat[:, : p.n], b=mat[:, p.n], params=p)


def dump_lwe_ciphertext(cts: list[lwe_mod.LweCiphertext], p: lwe_mod.LweParams) -> str:
    head = [LWE_HEADER, "type=ciphertext", f"n={p.n}", f"q={int(p.q)}",
            f"alpha={p.alpha!r}", f"m={p.m}", f"bits={len(cts)}"]
    rows = [f"ct={format_poly(list(ct.u) + [ct.v])}" for ct in cts]
    return "\n".join(head + rows) + "\n"


def load_lwe_ciphertext(text: str) -> tuple[list[lwe_mod.LweCiphertext], lwe_mod.LweParams]:
    kv = _parse_kv(text, LWE_HEADER)
    d = _fields(kv)
    if d.get("type") != "ciphertext":
        raise FormatError("not an LWE ciphertext file")
    p = _lwe_params_from(d)
    cts = []
    for k, v in kv:
        if k != "ct":
            continue
        vals = parse_poly(v)
        if len(vals) != p.n + 1:
            raise FormatError("ciphertext row shape mismatch")
        cts.append(lwe_mod.LweCiphertext(u=np.array(vals[: p.n], dtype=np.int64), v=vals[p.n]))
    if len(cts) != int(d.get("bits", len(cts))):
        raise FormatError("bit count mismatch")
    return cts, p


# ---------------------------------------------------------------------------
# PLWE


def _plwe_head(p: plwe_mod.PlweParams) -> list[str]:
    return [PLWE_HEADER, f"n={p.n}", f"q={int(p.ring.q)}",
            f"f={format_poly(p.ring.f)}", f"sigma={p.sigma!r}"]


def plwe_params_from_fields(d: dict[str, str]) -> plwe_mod.PlweParams:
    _require(d, "n", "q", "f", "sigma")
    ring = RingParams(f=tuple(parse_poly(d["f"])), q=Modulus(int(d["q"])))
    if ring.n != int(d["n"]):
        raise FormatError("n does not match deg f")
    return plwe_mod.PlweParams(ring=ring, sigma=float(d["sigma"]))


def dump_plwe_params(p: plwe_mod.PlweParams) -> str:
    return "\n".join(_plwe_head(p)) + "\n"


def load_plwe_params(text: str) -> plwe_mod.PlweParams:
    return plwe_params_from_fields(_fields(_parse_kv(text, PLWE_HEADER)))


def _named_vec(name: str, e: RingElement) -> str:
    return f"{name}={format_poly(e.coeffs)}"


def _ring_vec(text: str, name: str, ring: RingParams) -> RingElement:
    """A coefficient line as written by _named_vec: n residues in [0, q)."""
    vals = parse_poly(text)
    if len(vals) != ring.n:
        raise FormatError(f"vector {name!r} has wrong length")
    if min(vals) < 0 or max(vals) >= int(ring.q):
        raise FormatError(f"vector {name!r} has a coefficient outside [0, q)")
    return RingElement(vals, ring)


def _load_vec(d: dict[str, str], name: str, ring: RingParams) -> RingElement:
    _require(d, name)
    return _ring_vec(d[name], name, ring)


def dump_plwe_secret(kp: plwe_mod.PlweKeyPair, p: plwe_mod.PlweParams) -> str:
    return "\n".join(_plwe_head(p) + [_named_vec("s", kp.s)]) + "\n"


def dump_plwe_public(kp: plwe_mod.PlweKeyPair, p: plwe_mod.PlweParams) -> str:
    return "\n".join(_plwe_head(p) + [_named_vec("a", kp.a), _named_vec("b", kp.b)]) + "\n"


def load_plwe_secret(text: str) -> tuple[RingElement, plwe_mod.PlweParams]:
    d = _fields(_parse_kv(text, PLWE_HEADER))
    p = plwe_params_from_fields(d)
    return _load_vec(d, "s", p.ring), p


def load_plwe_public(text: str) -> tuple[tuple[RingElement, RingElement], plwe_mod.PlweParams]:
    d = _fields(_parse_kv(text, PLWE_HEADER))
    p = plwe_params_from_fields(d)
    return (_load_vec(d, "a", p.ring), _load_vec(d, "b", p.ring)), p


def dump_plwe_ciphertext(blocks: list[plwe_mod.PlweCiphertext], p: plwe_mod.PlweParams) -> str:
    rows = []
    for ct in blocks:
        rows += [_named_vec("u", ct.u), _named_vec("v", ct.v)]
    return "\n".join(_plwe_head(p) + [f"blocks={len(blocks)}"] + rows) + "\n"


def load_plwe_ciphertext(text: str) -> tuple[list[plwe_mod.PlweCiphertext], plwe_mod.PlweParams]:
    kv = _parse_kv(text, PLWE_HEADER)
    d = _fields(kv)
    p = plwe_params_from_fields(d)
    us = [_ring_vec(v, "u", p.ring) for k, v in kv if k == "u"]
    vs = [_ring_vec(v, "v", p.ring) for k, v in kv if k == "v"]
    if len(us) != len(vs):
        raise FormatError("unpaired u/v lines")
    return [plwe_mod.PlweCiphertext(u=u, v=v) for u, v in zip(us, vs)], p


def dump_plwe_samples(samples: list[plwe_mod.PlweSample], p: plwe_mod.PlweParams) -> str:
    rows = []
    for s in samples:
        rows += [_named_vec("a", s.a), _named_vec("b", s.b)]
    return "\n".join(_plwe_head(p) + [f"count={len(samples)}"] + rows) + "\n"


def load_plwe_samples(text: str) -> tuple[list[plwe_mod.PlweSample], plwe_mod.PlweParams]:
    kv = _parse_kv(text, PLWE_HEADER)
    d = _fields(kv)
    p = plwe_params_from_fields(d)
    avs = [_ring_vec(v, "a", p.ring) for k, v in kv if k == "a"]
    bvs = [_ring_vec(v, "b", p.ring) for k, v in kv if k == "b"]
    if len(avs) != len(bvs):
        raise FormatError("unpaired a/b lines")
    return [plwe_mod.PlweSample(a=a, b=b) for a, b in zip(avs, bvs)], p


# ---------------------------------------------------------------------------
# GLYPH


def _glyph_head(p: glyph_mod.GlyphParams) -> list[str]:
    return [GLYPH_HEADER, f"n={p.n}", f"q={int(p.q)}", f"b={p.b}", f"k={p.k}"]


def glyph_params_from_fields(d: dict[str, str]) -> glyph_mod.GlyphParams:
    _require(d, "n", "q", "b", "k")
    return glyph_mod.GlyphParams(
        n=int(d["n"]), q=Modulus(int(d["q"])), b=int(d["b"]), k=int(d["k"])
    )


def dump_glyph_secret(sk: glyph_mod.GlyphSecretKey, p: glyph_mod.GlyphParams) -> str:
    return "\n".join(_glyph_head(p) + [_named_vec("s", sk.s), _named_vec("e", sk.e)]) + "\n"


def dump_glyph_public(pk: glyph_mod.GlyphPublicKey, p: glyph_mod.GlyphParams) -> str:
    return "\n".join(_glyph_head(p) + [_named_vec("a", pk.a), _named_vec("t", pk.t)]) + "\n"


def load_glyph_secret(text: str) -> tuple[glyph_mod.GlyphSecretKey, glyph_mod.GlyphParams]:
    d = _fields(_parse_kv(text, GLYPH_HEADER))
    p = glyph_params_from_fields(d)
    ring = p.ring
    return glyph_mod.GlyphSecretKey(s=_load_vec(d, "s", ring), e=_load_vec(d, "e", ring)), p


def load_glyph_public(text: str) -> tuple[glyph_mod.GlyphPublicKey, glyph_mod.GlyphParams]:
    d = _fields(_parse_kv(text, GLYPH_HEADER))
    p = glyph_params_from_fields(d)
    ring = p.ring
    return glyph_mod.GlyphPublicKey(a=_load_vec(d, "a", ring), t=_load_vec(d, "t", ring)), p


def dump_glyph_signature(sig: glyph_mod.GlyphSignature, p: glyph_mod.GlyphParams) -> str:
    q = int(p.q)
    sparse = []
    for i, c in enumerate(sig.c.coeffs):
        if c != 0:
            sparse.append(f"{i}:{'+1' if c == 1 else '-1'}")
    rows = [f"c={','.join(sparse)}", _named_vec("z1", sig.z1), _named_vec("z2", sig.z2)]
    return "\n".join(_glyph_head(p) + rows) + "\n"


def load_glyph_signature(text: str) -> tuple[glyph_mod.GlyphSignature, glyph_mod.GlyphParams]:
    """The challenge must read exactly as dump_glyph_signature writes it:
    k entries "index:+1" or "index:-1", indices in [0, n) and strictly
    increasing, so no second text encodes the same signature."""
    d = _fields(_parse_kv(text, GLYPH_HEADER))
    p = glyph_params_from_fields(d)
    _require(d, "c")
    q = int(p.q)
    coeffs = [0] * p.n
    entries = d["c"].split(",")
    if len(entries) != p.k:
        raise FormatError(f"challenge has {len(entries)} entries, expected k={p.k}")
    prev = -1
    for pair in entries:
        idx_text, _, sgn = pair.partition(":")
        canonical = idx_text.isdecimal() and str(int(idx_text)) == idx_text
        if not canonical or not prev < int(idx_text) < p.n or sgn not in ("+1", "-1"):
            raise FormatError(f"bad sparse entry {pair!r}")
        prev = int(idx_text)
        coeffs[prev] = 1 if sgn == "+1" else q - 1
    ring = p.ring
    return (
        glyph_mod.GlyphSignature(
            c=RingElement(tuple(coeffs), ring),
            z1=_load_vec(d, "z1", ring),
            z2=_load_vec(d, "z2", ring),
        ),
        p,
    )


# ---------------------------------------------------------------------------
# BGV


def dump_bgv_params(p: bgv_mod.BgvParams) -> str:
    rows = [BGV_HEADER, "type=params", f"m={p.m}", f"p={p.p}", f"r={p.r}",
            f"sigma={p.sigma!r}", f"chain={format_poly(p.chain)}"]
    return "\n".join(rows) + "\n"


def load_bgv_params(text: str) -> bgv_mod.BgvParams:
    d = _fields(_parse_kv(text, BGV_HEADER))
    _require(d, "m", "p", "r", "chain")
    return bgv_mod.BgvParams(
        m=int(d["m"]), p=int(d["p"]), r=int(d["r"]),
        chain=tuple(parse_poly(d["chain"])), sigma=float(d.get("sigma", "3.2")),
    )


def dump_bgv_secret(sk: bgv_mod.BgvSecretKey) -> str:
    return "\n".join([BGV_HEADER, "type=secret", f"s={format_poly(sk.coeffs)}"]) + "\n"


def load_bgv_secret(text: str) -> bgv_mod.BgvSecretKey:
    d = _fields(_parse_kv(text, BGV_HEADER))
    _require(d, "s")
    return bgv_mod.BgvSecretKey(coeffs=tuple(parse_poly(d["s"])))


def dump_bgv_ciphertext(ct: bgv_mod.BgvCiphertext, params: bgv_mod.BgvParams) -> str:
    rows = [BGV_HEADER, "type=ciphertext", f"level={ct.level}",
            f"mod_index={ct.modulus_index(params)}", f"noise={ct.noise_bound!r}",
            f"parts={len(ct.parts)}"]
    rows += [f"part={format_poly(part)}" for part in ct.parts]
    return "\n".join(rows) + "\n"


def load_bgv_ciphertext(text: str) -> bgv_mod.BgvCiphertext:
    kv = _parse_kv(text, BGV_HEADER)
    d = _fields(kv)
    _require(d, "level", "parts", "noise")
    if not d["level"].isdecimal():
        raise FormatError(f"level must be a non-negative integer, got {d['level']!r}")
    parts = tuple(tuple(parse_poly(v)) for k, v in kv if k == "part")
    if len(parts) != int(d["parts"]):
        raise FormatError("part count mismatch")
    try:
        noise = float(d["noise"])
    except ValueError as e:
        raise FormatError(f"bad noise bound {d['noise']!r}") from e
    if not math.isfinite(noise) or noise < 0:
        raise FormatError(f"noise bound must be finite and >= 0, got {d['noise']!r}")
    return bgv_mod.BgvCiphertext(parts=parts, level=int(d["level"]), noise_bound=noise)
