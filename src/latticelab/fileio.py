"""Text file formats for keys, ciphertexts, signatures and samples.

Each file is one of the fourteen records in ``RECORDS``, written by one
encoder and read by one decoder that accepts exactly what the encoder
writes (README, "File formats"): the header, each ``key=value`` field in
its declared order, then the rows its count field announces.  Anything
else raises FormatError, so no key, ciphertext or signature has a second
text encoding.  Text beats binary here: inspectability matters more than
compactness.

Each direction has one entry, over one stream of line blocks: the header
and fields, then the rows about _BLOCK_ENTRIES entries at a time.
`record_blocks` yields a record's text as blocks cut from slices of the
caller's arrays, each spelled by one numpy encoder (`_encode`): an entry is
its 4-digit chunks, looked up as words of ASCII in a digit table, with sign
and separator words beside them, and the block's text is their bytes with
the NUL padding dropped.  `read_record` takes a file's lines a chunk at a
time, proves a block's spelling with a few string checks, parses it with
one np.fromstring into the record's int64 array and checks one length
identity over all blocks (`_VecRows`).  So coding a record holds the
record and one block, never its whole text.  Each ``RECORDS`` row maps its
objects to its fields and back; `dump_record` and `load_record` are the
``str`` forms of the same stream.
"""

from __future__ import annotations

import codecs
import functools
import os
import re
import stat
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path

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
_POW10 = [10**k for k in range(1, 19)]
# Entries formatted or parsed at a time: enough to keep numpy's per-call cost
# small against a block's work, few enough that a block's temporaries (its
# words when written, its lines and their parse when read) stay well below a
# record's.
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


class _Vec:
    """Comma-separated integers, n(fields) of them (one row of any length if
    n is None), each below q(fields) if q is given; negative ones, spelled
    with a leading minus, only if signed; ok(rows, fields), if given, must
    hold of the parsed rows, or the error names `rule`.  Decoded as int64."""

    def __init__(self, n, q, ok=None, rule="", signed=False):
        self.n, self.q, self.ok, self.rule, self.signed = n, q, ok, rule, signed

    @staticmethod
    def encode(v):
        v = np.asarray(v)
        return ",".join(["%d"] * len(v)) % tuple(v.tolist())

    def decode(self, text, d, key):
        reader = _VecRows(self, d, key, 1, len(text) + 1)
        reader.feed([text])
        return reader.result()[0]

    def rows(self, lines, d, key, skip=0):
        """Lines of this kind, each after its first `skip` characters, as one
        (lines, n) array, read about _BLOCK_ENTRIES entries at a time."""
        reader = _VecRows(self, d, key, len(lines), sum(map(len, lines)) + len(lines), skip)
        step = max(1, _BLOCK_ENTRIES // max(reader.n or lines[0].count(",") + 1, 1))
        for i in range(0, len(lines), step):
            reader.feed(lines[i : i + step])
        return reader.result()


class _VecRows:
    """`count` lines of one _Vec kind, fed in blocks, each line after its
    first `skip` characters; `size` bounds the characters of the whole
    text.  result() is the (count, n) int64 array, or raises the first
    fault in the order of the checks: a wrong length or spelling, then an
    entry >= q, then the kind's rule.

    Every line has n - 1 commas, and before a block is parsed, every field in
    it is ASCII digits (after a leading minus if signed), none empty.  A
    field is then never shorter than its value's digits and minus sign, and
    longer only with a leading zero, a -0 or a 20th digit, so one length sum
    over all the blocks checks all.  The array is allocated once a line has
    proved n and the text has room for `count` such lines, so no header
    field sizes it alone."""

    __slots__ = ("kind", "d", "key", "count", "size", "skip", "n", "vals", "row", "chars", "bad")

    def __init__(self, kind, d, key, count, size, skip=0):
        self.kind, self.d, self.key, self.count, self.size = kind, d, key, count, size
        self.skip, self.n = skip, kind.n(d) if kind.n else None
        self.vals, self.row, self.chars, self.bad = None, 0, 0, False

    def feed(self, lines):
        if self.bad or not lines:
            return
        if self.n is None:
            self.n = lines[0].count(",") + 1
        n = self.n
        self.bad = set(map(str.count, lines, repeat(","))) != {n - 1} or (
            self.vals is None and self.count * (2 * n - 1) > self.size)
        if self.bad:
            return
        if self.vals is None:
            self.vals = np.empty((self.count, n), dtype=np.int64)
        skip = self.skip
        body = ",".join(map(itemgetter(slice(skip, None)), lines) if skip else lines)
        digits = ("," + body).replace(",-", ",")[1:] if self.kind.signed else body
        self.bad = (not digits or digits[0] == "," or digits[-1] == "," or ",," in digits  # empty
                    or bool(digits.encode().translate(None, b"0123456789,")))
        if not self.bad:
            end = self.row + len(lines)
            self.vals[self.row : end] = np.fromstring(body, dtype=np.int64, sep=",").reshape(-1, n)
            self.row, self.chars = end, self.chars + len(body) + 1  # 2 per one-digit entry

    def result(self):
        kind, key = self.kind, self.key
        if self.bad:
            raise FormatError(f"bad vector {key!r}: wrong length or spelling")
        vals = np.empty((0, self.n), dtype=np.int64) if self.vals is None else self.vals
        mag = np.abs(vals) if kind.signed else vals
        top = int(mag.max(initial=0))
        width = 2 * vals.size + (np.count_nonzero(vals < 0) if kind.signed else 0) + sum(
            np.count_nonzero(mag >= p) for p in _POW10[:len(str(top)) - 1])
        if self.chars != width:
            raise FormatError(f"bad vector {key!r}: wrong length or spelling")
        if kind.q is not None and top >= kind.q(self.d):
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
        self.head_lines = self.head.split("\n")
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


def _text_lines(text: str):
    """(lines, tail, size) of `text`, as _decode_stream takes them."""
    lines = text.split("\n")
    tail = lines.pop()
    return iter(lines), lambda: tail, len(text)


def _file_lines(fh):
    """(lines, tail, size) of the binary file `fh`, read and decoded as
    UTF-8 one chunk at a time, bad bytes as U+FFFD, so its lines are those
    of the text read whole.  A file whose size is unknown (a pipe) is read
    whole."""
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode):
        return _text_lines(fh.read().decode("utf-8", "replace"))
    decoder, tail = codecs.getincrementaldecoder("utf-8")("replace"), [None]

    def lines():
        part = []  # the pieces of a line not yet ended, joined once it ends
        while chunk := fh.read(8 * _BLOCK_ENTRIES):
            first, *done = decoder.decode(chunk).split("\n")
            part.append(first)
            if done:
                yield "".join(part)
                part = [done.pop()]
                yield from done
        *done, tail[0] = ("".join(part) + decoder.decode(b"", True)).split("\n")
        yield from done

    it = lines()

    def rest() -> str:
        for _ in it:
            pass
        return tail[0]

    return it, rest, info.st_size


def _decode_stream(name: str, lines, tail, size, **context) -> tuple[object, dict]:
    """(parameter object, fields) of a text read strictly as record `name`:
    `lines` iterates over its lines, each ended by a newline, `tail()` is
    the text after the last newline (read once `lines` runs out) and `size`
    bounds the text's length.  The header and fields are read first and
    build the parameter object, then the rows, in blocks; a fault is
    reported as if the checks ran in this order over the whole text: the
    header and final newline, each field, the parameters, the row count,
    then each row key's prefixes and vectors."""
    rec = RECORDS[name]
    try:
        out = _read_record(rec, lines, size, context)
    except FormatError:
        if tail():
            raise FormatError(rec.frame) from None
        raise
    if tail():
        raise FormatError(rec.frame)
    return out


def _read_record(rec, lines, size, d):
    if list(islice(lines, len(rec.head_lines))) != rec.head_lines:
        raise FormatError(rec.frame)
    for key, kind in rec.fields:
        line = next(lines, "")
        k, eq, value = line.partition("=")
        if k != key or not eq:
            raise FormatError(f"expected {key}=..., got {line[:40]!r}")
        d[key] = kind.decode(value, d, key)
    try:
        params = rec.params.read(d)
    except InvalidParams as e:
        raise FormatError(str(e)) from e
    count, keys, kind = rec.rows
    if not keys:
        have = sum(1 for _ in lines)
        if have:
            raise FormatError(f"{have} line(s) after the fields, expected 0")
        return params, d
    readers = [_VecRows(kind, d, key, d[count], size, len(key) + 1) for key in keys]
    k, want = len(keys), d[count] * len(keys)
    step = k * max(1, _BLOCK_ENTRIES // max(k * readers[0].n, 1))
    misprefixed, have = [False] * k, 0
    while block := list(islice(lines, step)):
        have += len(block)
        if have > want:  # the count is wrong: only count the rest
            continue
        for i, r in enumerate(readers):
            own = block[i::k] if k > 1 else block
            misprefixed[i] = misprefixed[i] or not all(
                map(str.startswith, own, repeat(r.key + "=")))
            if not misprefixed[i]:
                r.feed(own)
    if have != want:
        raise FormatError(f"{have} line(s) after the fields, expected {want}")
    for wrong, r in zip(misprefixed, readers):
        if wrong:
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
    with Path(path).open("rb") as fh:
        return RECORDS[kind].read(*_decode_stream(kind, *_file_lines(fh), **context))


def dump_record(kind: str, *obj) -> str:
    """record_blocks' text as one str."""
    return "".join(record_blocks(kind, *obj))


def load_record(text: str, kind: str, **context):
    """read_record of a file holding `text`: the same objects, or the same
    FormatError."""
    return RECORDS[kind].read(*_decode_stream(kind, *_text_lines(text), **context))
