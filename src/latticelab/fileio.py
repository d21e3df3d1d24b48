"""Text file formats for keys, ciphertexts, signatures and samples.

Each file is one of the fourteen records in ``RECORDS``, written by one
encoder and read by one decoder that accepts exactly what the encoder
writes (README, "File formats"): the header, each ``key=value`` field in
its declared order, then the rows its count field announces.  Anything
else raises FormatError, so no key, ciphertext or signature has a second
text encoding.  Text beats binary here: inspectability matters more than
compactness.

Each direction has one entry, over one stream of line blocks: the header
and fields, then rows by _BLOCK_ENTRIES entries (read: 8x as many bytes).
`record_blocks` yields a record's text as blocks cut from slices of the
caller's arrays, each spelled by one numpy encoder (`_encode`): an entry is
its 4-digit chunks, looked up as words of ASCII in a digit table, with sign
and separator words beside them, and the block's text is their bytes with
the NUL padding dropped.  A field vector is the same encoder's one-row
block, less its final newline.  `read_record` reads a file as bytes, a chunk
of whole lines at a time, decodes only the header and fields as text,
proves each block's spelling with one translate and a few numpy passes, and
parses it with one np.fromstring into the record's int64 array
(`_VecRows`).  So coding a record holds the record and one block, never its
whole text.  Each ``RECORDS`` row maps its objects to its fields and back;
`dump_record` and `load_record` are the ``str`` forms of the same stream.
"""

from __future__ import annotations

import functools
import io
import os
import re
import stat
from itertools import chain

import numpy as np

from . import bgv as bgv_mod
from . import glyph as glyph_mod
from . import lwe as lwe_mod
from . import plwe as plwe_mod
from .errors import FormatError, InvalidParams
from .polyring import RingElement, RingParams
from .zq import Modulus

_INT = "(?:0|[1-9][0-9]{0,18})"
_CHALLENGE_RE = re.compile(f"{_INT}:[+-]1(?:,{_INT}:[+-]1)*")
# Entries formatted at a time, and an eighth of the bytes read at a time:
# enough to keep numpy's per-call cost small against a block's work, few
# enough that a block's temporaries (its words when written, its bytes and
# their parse when read) stay well below a record's.
_BLOCK_ENTRIES = 1 << 12


def _chunk_table() -> np.ndarray:
    """The 4-digit chunks of an entry, one uint32 word of ASCII each, by
    index: [0, 10^4) a top chunk, its leading zeros NULs (0 itself all
    NULs); [10^4, 2*10^4) a chunk below a nonzero higher part, zero-padded;
    [2*10^4, 4*10^4) the same two for the lowest chunk, where 0 is "0"."""
    zero = ord("0")  # uint16 and uint8 temporaries keep the import's peak memory small
    values = np.arange(10**4, dtype=np.uint16)[:, None]
    powers = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (values // powers % 10 + zero).astype(np.uint8)
    top = np.where(values < powers, 0, digits).astype(np.uint8)  # leading zeros as NULs
    lowest_top = top.copy()
    lowest_top[0, 3] = zero
    return np.concatenate([top, digits, lowest_top, digits]).view(np.uint32).ravel()


_CHUNKS = _chunk_table()
_POW = np.array([10**16, 10**12, 10**8, 10**4], dtype=np.uint64)[:, None, None]
_LOW = np.array([10**4] * 3 + [3 * 10**4], dtype=np.uint64)[:, None, None]
_CHUNK, _LOWEST = np.uint64(10**4), np.uint64(2 * 10**4)
# A sign word is the bool v < 0 widened to a word: its byte 1 is read as "-".
_TEXT = bytes.maketrans(b"\1", b"-")


@functools.lru_cache(maxsize=64)
def _separators(widths: tuple, prefixes: tuple):
    """The separator after each entry of a cycle, one row per entry: ","
    inside a line, "\\n" and the next line's prefix at a line's end; and a
    lone "\\n", which ends a block's last line instead.  Each is one item of
    as many words as the longest needs, so that a block's separators are
    written as one column."""
    ends = ["\n" + p for p in (*prefixes[1:], prefixes[0])]
    s = -(-max(map(len, ends)) // 4)  # words per separator, NUL-padded on the right
    raw = b"".join(x.encode().ljust(4 * s, b"\0")
                   for x in [sep for end in ends for sep in (",", end)] + ["\n"])
    rows = np.frombuffer(raw, np.uint32 if s == 1 else np.dtype((np.void, 4 * s)))[:, None]
    seps = np.repeat(rows[:-1], [c for w in widths for c in (w - 1, 1)], axis=0)
    seps.flags.writeable = False  # one array, shared by every caller of the cache
    return seps, rows[-1]


def _chunk_indices(mag, k: int) -> np.ndarray:
    """The indices into _CHUNKS of the k chunks of each magnitude in `mag`,
    most significant first.  A chunk's index comes from the part p of the
    magnitude at and above it (mag // 10^4j for the j-th lowest): p itself
    while p < 10^4, the top chunk or, if 0, NULs above it; else p mod 10^4 +
    10^4.  That is min(p, p mod 10^4 + 10^4), and the lowest chunk's index
    is 2 * 10^4 further on, in the tables where 0 is "0"."""
    q = np.empty((k,) + mag.shape, dtype=np.uint64)
    np.add(mag, _LOWEST, out=q[-1])
    if k > 1:
        np.floor_divide(mag, _POW[1 - k :], out=q[:-1])
        below = q[1:]
        low = np.remainder(below, _CHUNK)
        low += _LOW[1 - k :]
        np.minimum(below, low, out=below)
    return q.view(np.int64)


def _encode(v, seps, last) -> str:
    """The cycles in the rows of the int64 array `v` as text, each entry in
    decimal followed by its column's separator `seps`, the block's last one
    replaced by `last`.  An entry is a sign word if any entry of the block
    is negative, one word per 4-digit chunk of the block's largest
    magnitude, most significant first, and its separator words; the text is
    the words' bytes with the NULs dropped."""
    mag = v.view(np.uint64)
    top = int(mag.max())
    sign = top >> 63  # an entry read as 2^63 or more is negative
    if sign:
        mag = np.abs(v).view(np.uint64)  # |-2^63| is 2^63 as uint64
        top = int(mag.max())
    k = -(-len(str(top)) // 4)
    c = sign + k
    words = np.empty(v.shape + (c + seps.itemsize // 4,), dtype=np.uint32)
    if sign:
        np.less(v, 0, out=words[..., 0], casting="unsafe")
    words[..., sign:c].transpose(2, 0, 1)[...] = _CHUNKS[_chunk_indices(mag, k)]
    sep = words[..., c:].view(seps.dtype)
    sep[...] = seps
    sep[-1, -1] = last
    return words.tobytes().translate(_TEXT, b"\0").decode()


def _format_blocks(pieces, prefixes):
    """Rows as text blocks of about _BLOCK_ENTRIES entries, a whole number
    of cycles each.  Cycle i writes one line per prefix: the prefix, then
    row i of each of its arrays (2-D, or 1-D as one column) side by side,
    in decimal, joined by commas.  A block is cut from slices of the
    arrays, so no copy of the whole is made, and encoded by `_encode`: the
    separator words after each entry carry the commas, the newlines and
    the next line's prefix, so every layout is one path.  Every line holds
    at least one entry."""
    flat, widths = [], []
    for arrays in pieces:
        width = 0
        for a in arrays:
            a = np.asarray(a, dtype=np.int64)
            flat.append(a if a.ndim > 1 else a[:, None])
            width += flat[-1].shape[1]
        widths.append(width)
    seps, last = _separators(tuple(widths), tuple(prefixes))
    step = max(1, _BLOCK_ENTRIES // max(sum(widths), 1))
    for i in range(0, len(flat[0]), step):
        b = flat[0][i : i + step] if len(flat) == 1 else np.hstack([a[i : i + step] for a in flat])
        yield prefixes[0] + _encode(b, seps, last)


def format_row_blocks(rows, prefixes=("",)):
    """One line per row of the 2-D int array `rows`: the next of `prefixes`
    in turn, then the row's entries in decimal, joined by commas; as text
    blocks of about _BLOCK_ENTRIES entries, a whole number of prefix cycles
    each, not one join per row."""
    rows, k = np.asarray(rows), len(prefixes)
    return _format_blocks([[rows[i::k]] for i in range(k)], prefixes)


class _Num:
    """An int or float spelled repr(cast(v)), starting with a digit (so >= 0
    and finite), for which ok(v, fields) holds.  Like every field kind it
    has encode(value) -> text and decode(text, fields so far, key) -> value."""

    def __init__(self, cast=int, ok=None):
        self.cast, self.ok = cast, ok

    def encode(self, value):
        return repr(self.cast(value))

    def decode(self, text, d, key):
        try:
            v = self.cast(text)
        except ValueError:
            v = None
        if v is None or repr(v) != text or not text[0].isdigit() or (
                self.ok and not self.ok(v, d)):
            raise FormatError(f"bad {key} value {text[:40]!r}")
        return v


# A field's first two bytes as a little-endian uint16, if the first is not 1-9: a
# fault unless a lone 0 (then a comma or newline) or a minus before 1-9.
_BAD_START = np.ones(1 << 16, dtype=bool)
_BAD_START.reshape(256, 256)[[10, 44], 48] = _BAD_START.reshape(256, 256)[49:58, 45] = False
_ONES = bytes.maketrans(b"23456789", b"11111111")  # 1-9 as "1", for bytes methods


class _Vec:
    """Comma-separated integers, n(fields) of them (one row of any length if
    n is None), each below q(fields) if q is given; negative ones, spelled
    with a leading minus, only if signed; ok(rows, fields), if given, must
    hold of the parsed rows, or the error names `rule`.  Encoded by `_encode`
    as one row without its newline; decoded as int64."""

    def __init__(self, n, q, ok=None, rule="", signed=False):
        self.n, self.q, self.ok, self.rule, self.signed = n, q, ok, rule, signed

    @staticmethod
    def encode(v):
        v = np.asarray(v, dtype=np.int64)
        return _encode(v[None], *_separators((len(v),), ("",)))[:-1]

    def decode(self, text, d, key):
        reader = _VecRows(self, d, key, 1, len(text) + 1)
        reader.feed(text.encode() + b"\n", 1)
        return reader.result()[0]


class _VecRows:
    """`count` lines of one _Vec kind, each `prefix` and then its entries, fed
    as blocks of whole lines; `size` bounds the bytes of the whole text.  A
    line without its prefix sets `misprefixed`, for the caller to report.
    Otherwise result() is the (count, n) int64 array, or raises the first
    fault in the order of the checks: a wrong length or spelling, then an
    entry >= q, then the kind's rule.

    A line spells its entries as "0" or 1-9 and then digits, after a minus
    if signed, with n - 1 commas and no other byte.  One translate checks
    the commas and bytes of a block's lines; where its fields start is
    checked by bytes methods in a line alone (a field vector), by numpy
    passes over a block of lines.  One np.fromstring then parses the block,
    and a 20th digit or a minus before 2^63 or more, which it saturates to
    2^63 - 1 or -2^63, is looked for only where an entry reads as one of
    those.  The array is allocated once a line has proved n and the text
    has room for `count` such lines, so no header field sizes it alone."""

    __slots__ = ("kind", "d", "key", "count", "size", "prefix", "n", "vals", "row", "top", "bad",
                 "misprefixed")

    def __init__(self, kind, d, key, count, size, prefix=b""):
        self.kind, self.d, self.key, self.count, self.size = kind, d, key, count, size
        self.prefix, self.n = prefix, kind.n(d) if kind.n else None
        self.vals, self.row, self.top, self.bad, self.misprefixed = None, 0, 0, False, False

    def feed(self, block: bytes, room: int) -> int:
        """Take `block`, whole lines, unless they are more than `room`; return
        how many lines it holds."""
        p, c = self.prefix, None
        if block.find(b"\n") == len(block) - 1:
            lines, misprefixed = 1, not block.startswith(p)
        else:  # c is the block between two newlines
            c = np.empty(len(block) + 2, np.uint8)
            c[0] = c[-1] = 10
            c[1:-1] = np.frombuffer(block, np.uint8)
            starts = (c[:-2] == 10).nonzero()[0]  # the newline before each line
            lines = len(starts)
            at = starts[:, None] + np.arange(1, len(p) + 1)  # each line's prefix, clipped
            misprefixed = lines <= room and bool(np.count_nonzero(
                c.take(at, mode="clip") != np.frombuffer(p, np.uint8)))
        if lines > room:
            return lines
        self.misprefixed = self.misprefixed or misprefixed
        if self.misprefixed or self.bad:
            return lines
        if self.n is None:
            self.n = block.count(b",", 0, block.index(b"\n")) + 1
        n, signed = self.n, self.kind.signed
        self.bad = (self.vals is None and self.count * (2 * n - 1) > self.size
                    or block.translate(None, b"0123456789-" if signed else b"0123456789")
                    != (p + b"," * (n - 1) + b"\n") * lines)
        if self.bad:
            return lines
        minus = block.count(b"-") if signed else 0
        if c is None:
            text = block[len(p) :]
            m = (b"," + text).translate(_ONES)
            self.bad = (b",," in m or m.endswith(b",\n") or signed and minus != m.count(b",-1")
                        or b",0" in m and (b",00" in m or b",01" in m))
        else:  # each prefix as spaces and a comma (no prefix: the newline as a comma)
            c[at[:, :-1]] = 32
            c[starts + len(p)] = 44
            first = ((c[:-1] == 44) & (c[1:] <= 48)).nonzero()[0] + 1  # fields not led by 1-9
            pair = np.ndarray((len(c) - 1,), "<u2", c, strides=(1,))[first]
            self.bad = bool(np.count_nonzero(_BAD_START[pair])) or signed and (
                minus != np.count_nonzero(pair & 255 == 45))  # a minus inside a field
            text = c[len(p) + 1 :].tobytes()
        v = None if self.bad else np.fromstring(text, dtype=np.int64, sep=",")
        hi, lo = (0, 0) if v is None else (int(np.maximum.reduce(v)), int(np.minimum.reduce(v)))
        self.bad = v is None or (hi == 2**63 - 1 or lo == -(2**63)) and any(
            not -(2**63) < int(f) < 10**19 for f in text.split(b","))
        if not self.bad:
            if self.vals is None:
                self.vals = np.empty((self.count, n), dtype=np.int64)
            self.vals[self.row : self.row + lines] = v.reshape(lines, n)
            self.row, self.top = self.row + lines, max(self.top, hi, -lo)
        return lines

    def result(self):
        kind, key = self.kind, self.key
        if self.bad:
            raise FormatError(f"bad vector {key!r}: wrong length or spelling")
        vals = np.empty((0, self.n), dtype=np.int64) if self.vals is None else self.vals
        if kind.q is not None and self.top >= kind.q(self.d):
            raise FormatError(f"vector {key!r} has an entry outside [0, q)")
        if kind.ok and not kind.ok(vals, self.d):
            raise FormatError(f"bad vector {key!r}: {kind.rule}")
        return vals


class _Challenge:
    """GLYPH's challenge as its k (index, +-1) pairs, indices increasing in [0, n)."""

    @staticmethod
    def encode(pairs):
        return ",".join(f"{i}:{s:+d}" for i, s in pairs)

    def decode(self, text, d, key):
        pairs = [e.split(":") for e in text.split(",")] if _CHALLENGE_RE.fullmatch(text) else []
        idx = [int(i) for i, _ in pairs]
        if not idx or len(idx) != d["k"] or idx != sorted(set(idx)) or idx[-1] >= d["n"]:
            raise FormatError(f"{key} must be k={d['k']} entries i:+1 or i:-1, "
                              "i increasing in [0, n)")
        return [(i, int(s)) for i, (_, s) in zip(idx, pairs)]


_INT_, _FLOAT = _Num(int, lambda v, d: v < 1 << 63), _Num(float)
_RES = _Vec(lambda d: d["n"], lambda d: d["q"])
_RES_N1 = _Vec(lambda d: d["n"] + 1, lambda d: d["q"])
_MONIC = _Vec(_RES_N1.n, _RES_N1.q,
              lambda rows, d: rows.shape[1] > 1 and (rows[:, -1] == 1).all(),
              "must be monic of degree >= 1")
_TERNARY = _Vec(None, None, lambda rows, d: (abs(rows) <= 1).all(), "entries must be -1, 0 or 1",
                signed=True)
# GLYPH's secret, ternary as residues: sign's bound |s*c| <= k rests on it
_TERNARY_RES = _Vec(_RES.n, _RES.q, lambda rows, d: ((rows <= 1) | (rows == d["q"] - 1)).all(),
                    "entries must be 0, 1 or q - 1")


class _Params:
    """A scheme's header line and the parameter fields its records open
    with; write maps a parameter object to their values, read maps back."""

    def __init__(self, header, fields=(), write=lambda p: {}, read=lambda d: None):
        self.header, self.fields, self.write, self.read = header, fields, write, read


_LWE = _Params(
    "latticelab-lwe-v1", (("n", _INT_), ("q", _INT_), ("alpha", _FLOAT), ("m", _INT_)), vars,
    lambda d: lwe_mod.LweParams(n=d["n"], q=Modulus(d["q"]), alpha=d["alpha"], m=d["m"]))
_PLWE = _Params(  # f is monic of degree n, so RingParams keeps all n + 1 coefficients
    "latticelab-plwe-v1",
    (("n", _INT_), ("q", _INT_), ("f", _MONIC), ("sigma", _FLOAT)),
    lambda p: {"n": p.n, "q": p.ring.q, "f": p.ring.f, "sigma": p.sigma},
    lambda d: plwe_mod.PlweParams(RingParams(tuple(d["f"].tolist()), Modulus(d["q"])), d["sigma"]))
_GLYPH = _Params(
    "latticelab-glyph-v1", (("n", _INT_), ("q", _INT_), ("b", _INT_), ("k", _INT_)), vars,
    lambda d: glyph_mod.GlyphParams(n=d["n"], q=Modulus(d["q"]), b=d["b"], k=d["k"]))
_BGV_HEAD = _Params("latticelab-bgv-v1")
_BGV = _Params(
    # chain entries are int64 like every integer field (a 19-digit entry past
    # 2^63 - 1 parses as 2^63 - 1); BgvParams refuses moduli above its cap
    _BGV_HEAD.header, (("m", _INT_), ("p", _INT_), ("r", _INT_), ("sigma", _FLOAT),
                       ("chain", _Vec(None, None))), vars,
    lambda d: bgv_mod.BgvParams(m=d["m"], p=d["p"], r=d["r"], sigma=d["sigma"],
                                chain=tuple(d["chain"].tolist())))


class _Record:
    """The header line, a "type=" line if file_type is set, the parameter
    fields and the record's own fields in write order, then the rows: (count
    field, keys, kind), the keys repeated as often as the count field says.
    write maps the record's objects to (parameter object, field values); a
    row key's value is the array of its rows, or a tuple of arrays whose rows
    stand side by side on its lines.  read maps (parameter object, fields)
    back to the objects."""

    def __init__(self, params, file_type=None, fields=(), rows=(None, (), None),
                 write=lambda p: (p, {}), read=lambda p, d: p):
        self.params, self.fields, self.rows = params, params.fields + fields, rows
        self.write, self.read = write, read
        self.head = params.header + (f"\ntype={file_type}" if file_type else "")
        self.head_lines = self.head.encode().split(b"\n")
        self.frame = f"expected {self.head!r} as first line(s) and a final newline"


def _elements(ring: RingParams, *rows) -> list[RingElement]:
    """Rows the decoder has checked, n residues in [0, q) each, as elements
    that keep them: no copy of the record is made."""
    return [RingElement._of(row, ring) for row in rows]


def _signature_fields(sig: glyph_mod.GlyphSignature, p: glyph_mod.GlyphParams):
    pairs = glyph_mod._pairs_of(sig.c, p)
    if pairs is None:
        raise InvalidParams(f"a GLYPH challenge must have exactly k={p.k} entries, each +-1")
    return p, {"c": pairs.items(), "z1": sig.z1.vec, "z2": sig.z2.vec}


RECORDS = {
    "lwe-secret": _Record(
        _LWE, "secret", (("s", _RES),),
        write=lambda sk, p: (p, {"s": sk.s}),
        read=lambda p, d: (lwe_mod.LweSecretKey(s=d["s"]), p)),
    "lwe-public": _Record(
        _LWE, "public", (), ("m", ("sample",), _RES_N1),
        write=lambda pk: (pk.params, {"sample": (pk.a, pk.b)}),
        read=lambda p, d: lwe_mod.LwePublicKey(a=d["sample"][:, :p.n], b=d["sample"][:, p.n],
                                               params=p)),
    "lwe-ciphertext": _Record(
        _LWE, "ciphertext", (("bits", _INT_),), ("bits", ("ct",), _RES_N1),
        write=lambda cts, p: (p, {"bits": len(cts),
                                  "ct": ([ct.u for ct in cts], [ct.v for ct in cts])}),
        read=lambda p, d: ([lwe_mod.LweCiphertext(u=row[:p.n], v=int(row[p.n]))
                            for row in d["ct"]], p)),
    "plwe-params": _Record(_PLWE),
    "plwe-secret": _Record(
        _PLWE, None, (("s", _RES),),
        write=lambda s, p: (p, {"s": s.vec}),
        read=lambda p, d: (RingElement._of(d["s"], p.ring), p)),
    "plwe-public": _Record(  # the key is the pair (a, b), as plwe.encrypt takes it
        _PLWE, None, (("a", _RES), ("b", _RES)),
        write=lambda pk, p: (p, {"a": pk[0].vec, "b": pk[1].vec}),
        read=lambda p, d: (tuple(_elements(p.ring, d["a"], d["b"])), p)),
    "plwe-ciphertext": _Record(
        _PLWE, None, (("blocks", _INT_),), ("blocks", ("u", "v"), _RES),
        write=lambda cts, p: (p, {"blocks": len(cts), "u": [ct.u.vec for ct in cts],
                                  "v": [ct.v.vec for ct in cts]}),
        read=lambda p, d: ([plwe_mod.PlweCiphertext(*uv) for uv in zip(
            _elements(p.ring, *d["u"]), _elements(p.ring, *d["v"]))], p)),
    "plwe-samples": _Record(
        _PLWE, None, (("count", _INT_),), ("count", ("a", "b"), _RES),
        write=lambda samples, p: (p, {"count": len(samples), "a": [s.a.vec for s in samples],
                                      "b": [s.b.vec for s in samples]}),
        read=lambda p, d: ([plwe_mod.PlweSample(*ab) for ab in zip(
            _elements(p.ring, *d["a"]), _elements(p.ring, *d["b"]))], p)),
    "glyph-secret": _Record(
        _GLYPH, None, (("s", _TERNARY_RES), ("e", _TERNARY_RES)),
        write=lambda sk, p: (p, {"s": sk.s.vec, "e": sk.e.vec}),
        read=lambda p, d: (glyph_mod.GlyphSecretKey(*_elements(p.ring, d["s"], d["e"])), p)),
    "glyph-public": _Record(
        _GLYPH, None, (("a", _RES), ("t", _RES)),
        write=lambda pk, p: (p, {"a": pk.a.vec, "t": pk.t.vec}),
        read=lambda p, d: (glyph_mod.GlyphPublicKey(*_elements(p.ring, d["a"], d["t"])), p)),
    "glyph-signature": _Record(
        _GLYPH, None, (("c", _Challenge()), ("z1", _RES), ("z2", _RES)),
        write=_signature_fields,
        read=lambda p, d: (glyph_mod.GlyphSignature(glyph_mod._sparse(dict(d["c"]), p),
                                                    *_elements(p.ring, d["z1"], d["z2"])), p)),
    "bgv-params": _Record(_BGV, "params"),
    "bgv-secret": _Record(
        _BGV_HEAD, "secret", (("s", _TERNARY),),
        write=lambda sk: (None, {"s": sk.coeffs}),
        read=lambda _, d: bgv_mod.BgvSecretKey(coeffs=tuple(d["s"].tolist()))),
    "bgv-ciphertext": _Record(  # read with params=, the BgvParams its level refers to
        _BGV_HEAD, "ciphertext", (
            ("level", _INT_),  # <= L, since mod_index = L - level is >= 0
            ("mod_index", _Num(int, lambda v, d: v == d["params"].levels - d["level"])),
            ("noise", _FLOAT), ("parts", _INT_)),
        ("parts", ("part",), _Vec(lambda d: d["params"].n,
                                  lambda d: d["params"].modulus_at_level(d["level"]))),
        write=lambda ct, params: (None, {
            "level": ct.level, "mod_index": ct.modulus_index(params), "noise": ct.noise_bound,
            "parts": len(ct.parts), "part": [part.vec for part in ct.parts]}),
        read=lambda _, d: bgv_mod.BgvCiphertext(
            parts=tuple(_elements(d["params"].ring_at_level(d["level"]), *d["part"])),
            level=d["level"], noise_bound=d["noise"])),
}


def _blocks(fh):
    """The binary file `fh` as blocks of whole lines, read 8 * _BLOCK_ENTRIES
    bytes at a time: each read is cut after its last newline and the rest
    carried on, so a line longer than a read is joined once."""
    part = []
    while chunk := fh.read(8 * _BLOCK_ENTRIES):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            part.append(chunk)
            continue
        part.append(chunk[:cut])
        yield b"".join(part)
        part = [chunk[cut:]]


def _decode(name: str, fh, d, errors="replace") -> tuple[object, dict]:
    """(parameter object, fields) of the binary file `fh`, a file or a
    BytesIO, read strictly as record `name`: the header and fields, decoded
    as UTF-8 by `errors` (bad bytes as U+FFFD), build the parameter object, then
    the rows are read a block at a time.  A fault is reported as if the
    checks ran in this order over the whole text: the header and final
    newline, each field, the parameters, the row count, then each row key's
    prefixes and vectors."""
    rec, size = RECORDS[name], fh.seek(0, os.SEEK_END)
    fh.seek(max(size - 1, 0))
    if fh.read(1) != b"\n":
        raise FormatError(rec.frame)
    fh.seek(0)
    blocks, h = _blocks(fh), len(rec.head_lines) + len(rec.fields)
    head = next(blocks, b"")
    while head.count(b"\n") < h and (more := next(blocks, None)) is not None:
        head += more
    *lines, rest = head.split(b"\n", h)
    del head  # so that the rows' first block is not held to the end
    lines += [b""] * (h - len(lines))  # as if empty lines followed a text that ends early
    if lines[: len(rec.head_lines)] != rec.head_lines:
        raise FormatError(rec.frame)
    for (key, kind), line in zip(rec.fields, lines[len(rec.head_lines) :]):
        text = line.decode("utf-8", errors)
        k, eq, value = text.partition("=")
        if k != key or not eq:
            raise FormatError(f"expected {key}=..., got {text[:40]!r}")
        d[key] = kind.decode(value, d, key)
    try:
        params = rec.params.read(d)
    except InvalidParams as e:
        raise FormatError(str(e)) from e
    count, keys, kind = rec.rows
    rest = chain((rest,), blocks)
    if not keys:
        if have := sum(block.count(b"\n") for block in rest):
            raise FormatError(f"{have} line(s) after the fields, expected 0")
        return params, d
    readers = [_VecRows(kind, d, key, d[count], size, key.encode() + b"=") for key in keys]
    k, want, have = len(keys), d[count] * len(keys), 0
    for block in filter(None, rest):  # past want the count is wrong: only count
        if k == 1:
            have += readers[0].feed(block, want - have)
            continue
        got = len(split := block.split(b"\n")) - 1
        if have + got <= want:
            for i, r in enumerate(readers):
                own = split[(i - have) % k : got : k]
                if own:
                    r.feed(b"\n".join(own) + b"\n", len(own))
        have += got
    if have != want:
        raise FormatError(f"{have} line(s) after the fields, expected {want}")
    for r in readers:
        if r.misprefixed:
            raise FormatError(f"rows must repeat {', '.join(keys)} in that order")
        d[r.key] = r.result()
    return params, d


def record_blocks(kind: str, *obj):
    """The text of record `kind` holding `obj`, as blocks: the header and
    fields, then the rows.  `obj` is what `read_record` returns for the
    record, spread (a BGV ciphertext's is followed by its BgvParams).  The
    objects are mapped to fields at once, so a refusal (InvalidParams)
    comes before any block."""
    rec = RECORDS[kind]
    params, values = rec.write(*obj)
    values.update(rec.params.write(params))
    head = rec.head + "\n" + "".join(f"{key}={field.encode(values[key])}\n"
                                     for key, field in rec.fields)
    _, keys, _ = rec.rows
    if not keys:
        return (head,)
    return chain((head,), _format_blocks(
        [values[key] if isinstance(values[key], tuple) else (values[key],) for key in keys],
        [key + "=" for key in keys]))


def read_record(path, kind: str, **context):
    """The objects of the record `kind` that the file `path` holds, read
    strictly one chunk at a time; `context` is what the record's fields
    refer to (params= for a BGV ciphertext)."""
    with open(path, "rb", buffering=0) as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # a pipe, say: read it whole
            fh = io.BytesIO(fh.read())
        return RECORDS[kind].read(*_decode(kind, fh, context))


def dump_record(kind: str, *obj) -> str:
    """record_blocks' text as one str."""
    return "".join(record_blocks(kind, *obj))


def load_record(text: str, kind: str, **context):
    """read_record of a file holding `text`: the same objects, or the same
    FormatError (a lone surrogate is kept, as str reads it)."""
    fh = io.BytesIO(text.encode("utf-8", "surrogatepass"))
    return RECORDS[kind].read(*_decode(kind, fh, context, "surrogatepass"))
