"""Deterministic seeded randomness.

Stream v2: a 256-bit seed expanded by SHAKE-128 (FIPS 202) in 1 KiB
blocks, block c being ``shake_128(seed || c as 8 little-endian bytes)``
squeezed to BLOCK_BYTES, much as ML-KEM and ML-DSA expand their seeds.
Identical seeds produce identical byte streams on every platform, which
is what makes every experiment in this package replayable from a single
``--seed`` flag.  Independent sub-streams for parallel or logically
separate tasks are derived by hashing the parent seed with a context
label under SHA-256.

A stream's first read squeezes only the prefix it needs of its last block
(SHAKE's output is a prefix of any longer output, so no byte changes);
`uniform_rows` draws several `uniform_array` rows in one read and reports
where each ended, and `rewind` puts the read position back to a byte
already read, as GLYPH's batched `sign` does after accepting a candidate.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from .errors import InvalidParams

SEED_BYTES = 32
# Bytes squeezed per counter value.  Larger blocks squeeze faster per byte,
# but a stream read more than once squeezes whole ones however little it
# reads, and an rng holds up to one block's unread bytes (tests/bench_stream.py).
BLOCK_BYTES = 1024
# Draws decoded per chunk: enough that numpy's per-call cost is small against
# hashing the chunk's bytes, few enough to stay a fraction of an LWE public
# key's draws.
_CHUNK_DRAWS = 1 << 14


class SeededRng:
    """Counter-keyed SHAKE-128 byte source with one read position.

    Single-owner by design: concurrent users must each call
    :meth:`derive` with distinct labels instead of sharing one instance.
    """

    def __init__(self, seed: bytes):
        if len(seed) != SEED_BYTES:
            raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
        self.seed = seed
        self.counter = 0  # blocks begun; the current one is block counter - 1
        self._block = b""  # the squeezed prefix of the current block
        self._pos = BLOCK_BYTES  # bytes of the current block read

    @classmethod
    def from_hex(cls, hex_seed: str) -> "SeededRng":
        return cls(bytes.fromhex(hex_seed))

    @classmethod
    def from_entropy(cls) -> "SeededRng":
        return cls(os.urandom(SEED_BYTES))

    def derive(self, label: str | bytes) -> "SeededRng":
        """Return an independent sub-stream keyed by (seed, label).

        The child seed is a SHA-256 of the parent seed and label: one hash
        per sub-stream, not per block, so it is not on the hot path."""
        if isinstance(label, str):
            label = label.encode()
        child = hashlib.sha256(self.seed + b"/derive/" + label).digest()
        return SeededRng(child)

    @property
    def position(self) -> int:
        """Bytes read since the seed."""
        return BLOCK_BYTES * (self.counter - 1) + self._pos

    @property
    def _buf(self) -> bytes:
        """The unread bytes of the current block, fewer than BLOCK_BYTES,
        squeezing the rest of the block if only a prefix is squeezed."""
        if len(self._block) < BLOCK_BYTES and self._pos < BLOCK_BYTES:
            self._block = self._squeeze(self.counter - 1, BLOCK_BYTES)
        return self._block[self._pos:]

    def _squeeze(self, c: int, size: int) -> bytes:
        """The first `size` bytes of block c: shake_128(seed || c as 8 bytes
        little-endian), a prefix of any longer squeeze of it."""
        return hashlib.shake_128(self.seed + c.to_bytes(8, "little")).digest(size)

    def take_bytes(self, n: int) -> bytes:
        """The next n bytes of the stream.

        A stream's first read squeezes only the prefix it needs of its last
        block, since a derived stream is often read once; every later read
        squeezes whole blocks, and the first read past a squeezed prefix
        squeezes its block whole.  So reads alone squeeze no block more
        than twice, and no byte depends on how the reads are split."""
        start, end = self._pos, self._pos + n
        block = self._block
        if end <= len(block):
            self._pos = end
            return block[start:end]
        first, past = self.counter, end - BLOCK_BYTES  # bytes wanted past the current block
        if start < BLOCK_BYTES and len(block) < BLOCK_BYTES:  # squeeze the whole block
            block = self._block = self._squeeze(first - 1, BLOCK_BYTES)
        if past <= 0:
            self._pos = end
            return block[start:end]
        last, tail = divmod(past - 1, BLOCK_BYTES)
        last, tail = first + last, tail + 1  # the last block read, and its bytes read
        seed, shake = self.seed, hashlib.shake_128  # `_squeeze`, inlined for the loop
        out = [block[start:]]
        out += [shake(seed + c.to_bytes(8, "little")).digest(BLOCK_BYTES) for c in range(first, last)]
        self._block = self._squeeze(last, tail if first == 0 else BLOCK_BYTES)
        self.counter, self._pos = last + 1, tail
        out.append(self._block[:tail])
        return b"".join(out)

    def rewind(self, position: int) -> None:
        """Put the read position back to `position`, a byte already read.

        `counter` and the unread bytes become what a run of reads ending
        there leaves.  A rewind into an earlier block squeezes nothing: the
        block's unread bytes are squeezed, whole, by the next read."""
        if not 0 <= position <= self.position:
            raise ValueError(f"can only rewind to a byte read, 0..{self.position}, got {position}")
        counter = -(-position // BLOCK_BYTES)
        if counter != self.counter:
            self.counter, self._block = counter, b""
        self._pos = position - BLOCK_BYTES * (counter - 1)

    def bits(self, k: int) -> int:
        """Top k bits of the next ceil(k/8) bytes, as a non-negative integer."""
        nbytes = -(-k // 8)
        return int.from_bytes(self.take_bytes(nbytes), "big") >> (8 * nbytes - k)

    def uniform_mod(self, q: int) -> int:
        """One uniform integer in [0, q): a size-1 batch of :meth:`uniform_array`."""
        return int(self.uniform_array(q, 1)[0])

    def uniform_array(self, q: int, size: int) -> np.ndarray:
        """Independent uniform draws in [0, q), by rejection against 2^ceil(lg q):
        the one-row case of :meth:`uniform_rows`.

        Rejection against the smallest power-of-two ceiling avoids the
        modulo bias a plain ``bits % q`` would introduce.  A batch of
        size * 2^k / q + 16 draws is read, every byte of it even past the
        last draw the result needs, and refilled by a batch for the draws
        still missing, read right after it, until the result is full.
        """
        return self.uniform_rows(q, 1, size)[0][0]

    def uniform_rows(self, q: int, rows: int, size: int) -> tuple[np.ndarray, list[int]]:
        """`rows` successive :meth:`uniform_array` draws of `size`, as one
        (rows, size) array, and the read position after each row.

        Rows whose first batches fit in _CHUNK_DRAWS draws are read in one
        take_bytes and decoded at once.  A row whose batch falls short is
        refilled right after its batch, as on its own, and the rows after it
        are read from there; a row whose batch does not fit in a chunk is
        read _CHUNK_DRAWS draws at a time, so memory beyond the result stays
        one chunk's.  Accepted draws are kept by ``compress`` of the mask, not
        by indexing with it: the two keep the same draws, but a boolean index
        that rejects about half of a chunk took 85-136 us against ~20 us for
        compress (numpy 2.4), most of an LWE public key's draw time."""
        k = _width(q)
        nbytes = (k + 7) // 8
        mask = np.uint64((1 << k) - 1)
        out = np.empty((rows, size), dtype=np.int64)
        if not size:
            return out, [self.position] * rows
        batch = int(size * (1 << k) / q) + 16  # modest oversampling: refills are rare
        step = batch * nbytes
        ends = []
        row = 0
        while row < rows:
            start, filled = self.position, 0
            m = min(_CHUNK_DRAWS // batch, rows - row)
            if m:
                vals = _decode(self.take_bytes(m * step), nbytes, mask)
                full = m
                if m > 1 and (vals < q).all():  # no draw rejected; one row takes the loop
                    out[row : row + m] = vals.reshape(m, batch)[:, :size]
                else:
                    for i in range(m):
                        kept = vals[i * batch : (i + 1) * batch]
                        kept = kept.compress(kept < q)
                        if len(kept) < size:
                            full = i
                            break
                        out[row + i] = kept[:size]
                ends += range(start + step, start + (full + 1) * step, step)
                row += full
                if full == m:
                    continue
                # this row fell short: refill it right after its batch
                self.rewind(start + (full + 1) * step)
                filled = len(kept)
                out[row, :filled] = kept
            self._fill(out[row], filled, q, nbytes, mask)
            ends.append(self.position)
            row += 1
        return out, ends

    def _fill(self, dest: np.ndarray, filled: int, q: int, nbytes: int,
              mask: np.uint64) -> None:
        """Fill dest, a row, past its first `filled` draws: batches of
        (len(dest) - filled) * 2^k / q + 16 draws, each read _CHUNK_DRAWS
        draws at a time, until it is full."""
        size, span = len(dest), int(mask) + 1  # span = 2^k
        while filled < size:
            batch = int((size - filled) * span / q) + 16
            for start in range(0, batch, _CHUNK_DRAWS):
                chunk = min(_CHUNK_DRAWS, batch - start)
                vals = _decode(self.take_bytes(chunk * nbytes), nbytes, mask)
                vals = vals.compress(vals < q)[: size - filled]
                dest[filled : filled + len(vals)] = vals
                filled += len(vals)

    def unit_floats(self, size: int) -> np.ndarray:
        """Batch of uniforms in [0, 1) with 53-bit resolution, read
        _CHUNK_DRAWS at a time."""
        out = np.empty(size, dtype=np.float64)
        for start in range(0, size, _CHUNK_DRAWS):
            chunk = out[start : start + _CHUNK_DRAWS]
            raw = np.frombuffer(self.take_bytes(8 * len(chunk)), dtype="<u8")
            np.divide(raw >> np.uint64(11), float(1 << 53), out=chunk)
        return out


def _decode(raw: bytes, nbytes: int, mask: np.uint64) -> np.ndarray:
    """The draws of `raw`, nbytes big-endian bytes each, masked to their k bits."""
    # draw i is the >u8 ending at its last byte: a stride of nbytes over the
    # stream behind 8 - nbytes zero bytes, its high bytes (those of earlier
    # draws, or the zeros) cleared by the mask
    count = len(raw) // nbytes
    return np.ndarray((count,), ">u8", bytes(8 - nbytes) + raw, strides=(nbytes,)) & mask


def _width(q: int) -> int:
    """Bits per rejection-sampling draw in [0, q).  q < 1 has no draws, and
    q > 2^63 has draws that an int64 array cannot hold."""
    if not 1 <= q <= 1 << 63:
        raise InvalidParams(f"uniform draws need 1 <= q <= 2^63, got {q}")
    return (q - 1).bit_length() if q > 1 else 1
