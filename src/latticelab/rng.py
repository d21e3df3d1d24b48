"""Deterministic seeded randomness.

Stream v2: a 256-bit seed expanded by SHAKE-128 (FIPS 202) in 1 KiB
blocks, block c being ``shake_128(seed || c as 8 little-endian bytes)``
squeezed to BLOCK_BYTES, much as ML-KEM and ML-DSA expand their seeds.
Identical seeds produce identical byte streams on every platform, which
is what makes every experiment in this package replayable from a single
``--seed`` flag.  Independent sub-streams for parallel or logically
separate tasks are derived by hashing the parent seed with a context
label under SHA-256.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from .errors import InvalidParams

SEED_BYTES = 32
# Bytes squeezed per counter value.  Larger blocks squeeze faster per byte,
# but every derived stream pays for a whole one however little it reads, and
# an rng holds up to one block's unread bytes (tests/bench_stream.py).
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
        self.counter = 0
        self._buf = b""

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

    def take_bytes(self, n: int) -> bytes:
        missing = n - len(self._buf)
        if missing > 0:
            blocks = -(-missing // BLOCK_BYTES)
            start = self.counter
            # block c is shake_128(seed || c as 8 bytes little-endian),
            # squeezed to BLOCK_BYTES
            self._buf += b"".join(
                hashlib.shake_128(self.seed + c.to_bytes(8, "little")).digest(BLOCK_BYTES)
                for c in range(start, start + blocks))
            self.counter = start + blocks
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def bits(self, k: int) -> int:
        """Top k bits of the next ceil(k/8) bytes, as a non-negative integer."""
        nbytes = -(-k // 8)
        return int.from_bytes(self.take_bytes(nbytes), "big") >> (8 * nbytes - k)

    def uniform_mod(self, q: int) -> int:
        """One uniform integer in [0, q): a size-1 batch of :meth:`uniform_array`."""
        return int(self.uniform_array(q, 1)[0])

    def uniform_array(self, q: int, size: int) -> np.ndarray:
        """Independent uniform draws in [0, q), by rejection against 2^ceil(lg q).

        Rejection against the smallest power-of-two ceiling avoids the
        modulo bias a plain ``bits % q`` would introduce.  Each batch of
        draws is read and decoded _CHUNK_DRAWS at a time, so memory beyond
        the result stays one chunk's; every byte of a batch is read, even
        past the last draw the result needs.
        """
        k = _width(q)
        nbytes = (k + 7) // 8
        mask = np.uint64((1 << k) - 1)
        out = np.empty(size, dtype=np.int64)
        filled = 0
        while filled < size:
            # Modest oversampling keeps the expected number of refills low.
            batch = int((size - filled) * (1 << k) / q) + 16
            for start in range(0, batch, _CHUNK_DRAWS):
                chunk = min(_CHUNK_DRAWS, batch - start)
                # draw i is the >u8 ending at its last byte: a stride of nbytes
                # over the stream behind 8 - nbytes zero bytes, its high bytes
                # (those of earlier draws, or the zeros) cleared by the mask
                raw = bytes(8 - nbytes) + self.take_bytes(chunk * nbytes)
                vals = np.ndarray((chunk,), ">u8", raw, strides=(nbytes,)) & mask
                vals = vals[vals < q][: size - filled]
                out[filled : filled + len(vals)] = vals
                filled += len(vals)
        return out

    def unit_floats(self, size: int) -> np.ndarray:
        """Batch of uniforms in [0, 1) with 53-bit resolution, read
        _CHUNK_DRAWS at a time."""
        out = np.empty(size, dtype=np.float64)
        for start in range(0, size, _CHUNK_DRAWS):
            chunk = out[start : start + _CHUNK_DRAWS]
            raw = np.frombuffer(self.take_bytes(8 * len(chunk)), dtype="<u8")
            np.divide(raw >> np.uint64(11), float(1 << 53), out=chunk)
        return out


def _width(q: int) -> int:
    """Bits per rejection-sampling draw in [0, q).  q < 1 has no draws, and
    q > 2^63 has draws that an int64 array cannot hold."""
    if not 1 <= q <= 1 << 63:
        raise InvalidParams(f"uniform draws need 1 <= q <= 2^63, got {q}")
    return (q - 1).bit_length() if q > 1 else 1
