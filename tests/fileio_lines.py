"""The record reader as it read before `fileio` read records as bytes: a
file's lines decoded as UTF-8 a chunk at a time (bad bytes as U+FFFD), each
block of lines proved by str checks and one length identity, then parsed by
one np.fromstring.  The tests' reference for `read_record` and
`load_record`: the same objects for every text, or the same FormatError
message.  It reads the record layouts from `fileio.RECORDS` and the block
size from `fileio._BLOCK_ENTRIES` at each call."""

import codecs
import os
import stat
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from latticelab import fileio
from latticelab.errors import FormatError, InvalidParams

_POW10 = [10**k for k in range(1, 19)]


class VecRows:
    """`count` lines of one _Vec kind, fed in blocks, each line after its
    first `skip` characters; `size` bounds the characters of the whole
    text.  result() is the (count, n) int64 array, or raises the first
    fault in the order of the checks: a wrong length or spelling, then an
    entry >= q, then the kind's rule.

    Every line has n - 1 commas, and before a block is parsed, every field in
    it is ASCII digits (after a leading minus if signed), none empty.  A
    field is then never shorter than its value's digits and minus sign, and
    longer only with a leading zero, a -0 or a 20th digit, so one length sum
    over all the blocks checks all."""

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
        self.bad = (not digits or digits[0] == "," or digits[-1] == "," or ",," in digits
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


def _decode_field(kind, text, d, key):
    if not isinstance(kind, fileio._Vec):
        return kind.decode(text, d, key)
    reader = VecRows(kind, d, key, 1, len(text) + 1)
    reader.feed([text])
    return reader.result()[0]


def _text_lines(text: str):
    lines = text.split("\n")
    tail = lines.pop()
    return iter(lines), lambda: tail, len(text)


def _file_lines(fh):
    """(lines, tail, size) of the binary file `fh`, read and decoded as
    UTF-8 one chunk at a time, bad bytes as U+FFFD.  A file whose size is
    unknown (a pipe) is read whole."""
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode):
        return _text_lines(fh.read().decode("utf-8", "replace"))
    decoder, tail = codecs.getincrementaldecoder("utf-8")("replace"), [None]

    def lines():
        part = []  # the pieces of a line not yet ended, joined once it ends
        while chunk := fh.read(8 * fileio._BLOCK_ENTRIES):
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


def _decode_stream(name, lines, tail, size, **context):
    rec = fileio.RECORDS[name]
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
    head_lines = rec.head.split("\n")
    if list(islice(lines, len(head_lines))) != head_lines:
        raise FormatError(rec.frame)
    for key, kind in rec.fields:
        line = next(lines, "")
        k, eq, value = line.partition("=")
        if k != key or not eq:
            raise FormatError(f"expected {key}=..., got {line[:40]!r}")
        d[key] = _decode_field(kind, value, d, key)
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
    readers = [VecRows(kind, d, key, d[count], size, len(key) + 1) for key in keys]
    k, want = len(keys), d[count] * len(keys)
    step = k * max(1, fileio._BLOCK_ENTRIES // max(k * readers[0].n, 1))
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


def read_record(path, kind: str, **context):
    with Path(path).open("rb") as fh:
        return fileio.RECORDS[kind].read(*_decode_stream(kind, *_file_lines(fh), **context))


def load_record(text: str, kind: str, **context):
    return fileio.RECORDS[kind].read(*_decode_stream(kind, *_text_lines(text), **context))
