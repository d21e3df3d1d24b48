import hashlib
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticelab import rng as rng_mod
from latticelab.errors import InvalidParams
from latticelab.rng import BLOCK_BYTES, SEED_BYTES, SeededRng


def shake_blocks(seed: bytes, blocks: int) -> bytes:
    """Stream v2 from hashlib directly: block c is shake_128(seed || c as
    8 little-endian bytes), squeezed to 1 KiB."""
    return b"".join(hashlib.shake_128(seed + c.to_bytes(8, "little")).digest(1024)
                    for c in range(blocks))


def test_stream_matches_shake128_blocks():
    """A known answer across the first block edge, read in two pieces."""
    seed = bytes(range(32))
    r = SeededRng(seed)
    assert BLOCK_BYTES == 1024
    got = r.take_bytes(1020) + r.take_bytes(40)
    assert got == shake_blocks(seed, 2)[:1060]
    assert (got[:8].hex(), got[1020:1028].hex()) == ("fb4e8b67bbb8e116", "d411a7cd795514d1")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 300)), max_size=20))
@example([(False, 1), (False, 31), (True, 33), (False, 2080), (False, 65), (True, 7),
          (False, 63), (False, 1)])  # odd sizes across block edges; 2080 is a GLYPH mask
def test_chunked_draws_are_one_stream(draws):
    """Any mix of take_bytes(m) and byte-aligned bits(8m) reads the same
    stream of SHAKE-128 blocks and leaves the counter at the blocks consumed."""
    seed = bytes(range(7, 39))
    r = SeededRng(seed)
    got = b""
    for as_bits, m in draws:
        got += r.bits(8 * m).to_bytes(m, "big") if as_bits else r.take_bytes(m)
    blocks = -(-len(got) // BLOCK_BYTES)
    assert got == shake_blocks(seed, blocks)[: len(got)]
    assert r.counter == blocks


# read ends at each block edge and one byte either side of it
EDGES = [k * BLOCK_BYTES + d for k in range(4) for d in (-1, 0, 1) if k or d >= 0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(EDGES), st.integers(0, 3 * BLOCK_BYTES + 1)),
                max_size=8))
def test_any_split_of_reads_around_a_block_is_one_read(ends):
    """Reads ending at any offsets give the bytes of one read of their total,
    and never leave BLOCK_BYTES or more unread bytes in the rng."""
    seed = bytes(range(100, 132))
    r = SeededRng(seed)
    got, pos = b"", 0
    for end in sorted(ends) + [3 * BLOCK_BYTES + 1]:
        got += r.take_bytes(end - pos)
        pos = end
        assert len(r._buf) < BLOCK_BYTES
        assert r.counter == -(-pos // BLOCK_BYTES)
    assert got == SeededRng(seed).take_bytes(pos)


def test_identical_seeds_identical_draws():
    a = SeededRng(b"\x05" * SEED_BYTES)
    b = SeededRng(b"\x05" * SEED_BYTES)
    assert [a.uniform_mod(17) for _ in range(100)] == [
        b.uniform_mod(17) for _ in range(100)
    ]


def test_derive_is_independent_of_parent_state():
    parent = SeededRng(b"\x09" * SEED_BYTES)
    child1 = parent.derive("task")
    parent.take_bytes(1000)  # consuming the parent must not disturb children
    child2 = parent.derive("task")
    assert child1.take_bytes(64) == child2.take_bytes(64)


def test_derive_labels_separate_streams():
    r = SeededRng(b"\x01" * SEED_BYTES)
    assert r.derive("a").take_bytes(32) != r.derive("b").take_bytes(32)


def test_bits_concatenation():
    r1 = SeededRng(b"\x02" * SEED_BYTES)
    r2 = SeededRng(b"\x02" * SEED_BYTES)
    whole = r1.bits(24)
    assert whole == (r2.bits(8) << 16) | (r2.bits(8) << 8) | r2.bits(8)


def test_bits_reads_whole_bytes():
    """bits(k) is the top k bits of the next ceil(k/8) bytes: no bit is carried over."""
    seed = b"\x0a" * SEED_BYTES
    stream = SeededRng(seed).take_bytes(3)
    r = SeededRng(seed)
    assert r.bits(12) == int.from_bytes(stream[:2], "big") >> 4
    assert r.bits(4) == stream[2] >> 4
    assert r.take_bytes(1) == SeededRng(seed).take_bytes(4)[3:]


def test_uniform_mod_range():
    r = SeededRng(b"\x03" * SEED_BYTES)
    draws = [r.uniform_mod(257) for _ in range(2000)]
    assert all(0 <= d < 257 for d in draws)
    assert len(set(draws)) > 200  # not degenerate


def test_uniform_array_matches_range_and_determinism():
    a = SeededRng(b"\x04" * SEED_BYTES).uniform_array(4099, 5000)
    b = SeededRng(b"\x04" * SEED_BYTES).uniform_array(4099, 5000)
    assert a.min() >= 0 and a.max() < 4099
    assert np.array_equal(a, b)


def uniform_array_zero_padded(rng, q, size):
    """`uniform_array` as it decoded before the strided view and the chunks:
    each batch read in one take_bytes, each draw's bytes copied into a
    zeroed (batch, 8) array and read as >u8.  The reference for its decode."""
    k = (q - 1).bit_length() if q > 1 else 1
    nbytes = (k + 7) // 8
    out = np.empty(size, dtype=np.int64)
    filled = 0
    while filled < size:
        want = size - filled
        batch = int(want * (1 << k) / q) + 16
        raw = np.zeros((batch, 8), dtype=np.uint8)
        raw[:, 8 - nbytes:] = np.frombuffer(rng.take_bytes(batch * nbytes),
                                            dtype=np.uint8).reshape(batch, nbytes)
        vals = raw.view(">u8").ravel() & np.uint64((1 << k) - 1)
        vals = vals[vals < q]
        take = min(len(vals), want)
        out[filled : filled + take] = vals[:take].astype(np.int64)
        filled += take
    return out


# one q at each byte width 1..8 (3 * 2^(8w - 3) + 1: 8w - 1 bits, a quarter
# of the draws rejected), the two ends, and GLYPH's mask range
WIDTH_QS = [(3 << (8 * w - 3)) + 1 for w in range(1, 9)] + [1, 2, 2**63, 2 * 16383 + 1]


@pytest.mark.parametrize("q", WIDTH_QS)
def test_uniform_array_matches_the_zero_padded_decode(q):
    """The same draws, and the stream left at the same place, over sizes
    that end mid-block and batches that refill."""
    seed = hashlib.sha256(str(q).encode()).digest()
    r, ref = SeededRng(seed), SeededRng(seed)
    for size in (1, 7, 33, 1024, 0, 5):
        assert np.array_equal(r.uniform_array(q, size), uniform_array_zero_padded(ref, q, size))
        assert (r.counter, r._buf) == (ref.counter, ref._buf)


def test_unit_floats_in_interval():
    u = SeededRng(b"\x06" * SEED_BYTES).unit_floats(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_bad_seed_length_rejected():
    with pytest.raises(ValueError):
        SeededRng(b"short")


def test_from_hex_round_trip():
    h = "ab" * 32
    assert SeededRng.from_hex(h).seed == bytes.fromhex(h)


@pytest.mark.parametrize("q", [0, -5])
def test_uniform_draws_refuse_an_empty_range(q):
    r = SeededRng(bytes(32))
    with pytest.raises(InvalidParams):
        r.uniform_mod(q)
    with pytest.raises(InvalidParams):
        r.uniform_array(q, 4)


def test_uniform_draws_refuse_q_past_int64():
    r = SeededRng(bytes(32))
    for q in (2**63 + 1, 2**64, 10**23):
        with pytest.raises(InvalidParams):
            r.uniform_array(q, 4)
    # q = 2^63 is the largest range an int64 array holds
    draws = r.uniform_array(2**63, 1000)
    assert draws.dtype == np.int64 and draws.min() >= 0
    assert len(set(draws.tolist())) == 1000 and (draws >= 2**62).any()


def _bytes_read(r: SeededRng) -> int:
    return BLOCK_BYTES * r.counter - len(r._buf)


@settings(max_examples=150, deadline=None)
@given(chunk=st.integers(1, 40), q=st.one_of(st.sampled_from(WIDTH_QS), st.integers(1, 2**63)),
       sizes=st.lists(st.integers(0, 200), min_size=1, max_size=4))
def test_uniform_array_in_chunks_is_the_one_batch_decode(chunk, q, sizes):
    """Chunks far smaller than a batch give the one-batch decode's draws and
    leave counter and _buf where it leaves them."""
    seed = hashlib.sha256(f"{chunk}/{q}".encode()).digest()
    r, ref = SeededRng(seed), SeededRng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_mod, "_CHUNK_DRAWS", chunk)
        for size in sizes:
            assert np.array_equal(r.uniform_array(q, size),
                                  uniform_array_zero_padded(ref, q, size))
            assert (r.counter, r._buf) == (ref.counter, ref._buf)


@pytest.mark.parametrize("chunk", [1, 3, 16, 40])
def test_uniform_array_chunks_across_refills_and_early_fills(monkeypatch, chunk):
    """q = 2^12 + 1 rejects about half the draws, so the first batch of a
    1000-draw request sometimes falls short (a refill) and sometimes fills
    before its last chunk, whose bytes are read all the same; both happen
    over these seeds, with the one-batch decode's draws and stream position."""
    monkeypatch.setattr(rng_mod, "_CHUNK_DRAWS", chunk)
    q, size = (1 << 12) + 1, 1000
    batch = int(size * (1 << 13) / q) + 16
    last_chunk = (batch - 1) // chunk * chunk  # its first draw
    refills = early = 0
    for s in range(16):
        seed = bytes([s]) * SEED_BYTES
        r, ref = SeededRng(seed), SeededRng(seed)
        assert np.array_equal(r.uniform_array(q, size), uniform_array_zero_padded(ref, q, size))
        assert (r.counter, r._buf) == (ref.counter, ref._buf)
        stream = SeededRng(seed).take_bytes(2 * batch)
        kept = np.cumsum([int.from_bytes(stream[i : i + 2], "big") & 0x1FFF < q
                          for i in range(0, 2 * batch, 2)])
        if kept[-1] < size:
            refills += 1
            assert _bytes_read(r) > 2 * batch
        else:
            early += int(np.searchsorted(kept, size)) < last_chunk
            assert _bytes_read(r) == 2 * batch
    assert refills and early


@settings(max_examples=60, deadline=None)
@given(chunk=st.integers(1, 40), sizes=st.lists(st.integers(0, 100), min_size=1, max_size=4))
def test_unit_floats_in_chunks_is_one_read(chunk, sizes):
    """Against the one-read decode: the 53 high bits of each <u8, over 2^53."""
    r, ref = SeededRng(bytes(range(32))), SeededRng(bytes(range(32)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_mod, "_CHUNK_DRAWS", chunk)
        for size in sizes:
            raw = np.frombuffer(ref.take_bytes(8 * size), dtype="<u8")
            want = (raw >> np.uint64(11)).astype(np.float64) / float(1 << 53)
            assert r.unit_floats(size).tobytes() == want.tobytes()
            assert (r.counter, r._buf) == (ref.counter, ref._buf)


@settings(max_examples=150, deadline=None)
@given(chunk=st.sampled_from([1, 3, 40, 1 << 14]),
       q=st.one_of(st.sampled_from(WIDTH_QS + [(1 << 12) + 1, 1 << 8, 1 << 16, 1 << 32]),
                   st.integers(1, 2**63)),
       rows=st.integers(0, 6), size=st.integers(0, 300), offset=st.integers(0, 2 * BLOCK_BYTES))
def test_uniform_rows_are_successive_uniform_arrays(chunk, q, rows, size, offset):
    """`rows` draws of `size` at once give the zero-padded decode's draws row
    by row, and successive `uniform_array` calls', each row's end as the
    position after it, and the stream left where those reads leave it,
    from a stream read to any offset."""
    seed = hashlib.sha256(f"{chunk}/{q}/{offset}".encode()).digest()
    r, ref, one = SeededRng(seed), SeededRng(seed), SeededRng(seed)
    for x in (r, ref, one):
        x.take_bytes(offset)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_mod, "_CHUNK_DRAWS", chunk)
        got, ends = r.uniform_rows(q, rows, size)
        singles = [one.uniform_array(q, size) for _ in range(rows)]
    assert got.shape == (rows, size) and got.dtype == np.int64
    for row, single, end in zip(got, singles, ends):
        assert np.array_equal(row, uniform_array_zero_padded(ref, q, size))
        assert np.array_equal(row, single)
        assert end == ref.position
    assert len(ends) == rows
    for x in (r, one):
        assert (x.counter, x._buf, x.position) == (ref.counter, ref._buf, ref.position)


def test_uniform_rows_refill_a_short_row_in_place():
    """q = 2^12 + 1 rejects about half the draws, so at size 200 a row's
    batch falls short (a refill, read right after it) about one time in
    eight: rows before, at and after a refill match the row-by-row decode."""
    q, size, rows = (1 << 12) + 1, 200, 6
    step = 2 * (int(size * (1 << 13) / q) + 16)  # bytes of a row's first batch
    refills = set()
    for s in range(24):
        seed = bytes([s]) * SEED_BYTES
        r, ref = SeededRng(seed), SeededRng(seed)
        got, ends = r.uniform_rows(q, rows, size)
        for i, (row, end) in enumerate(zip(got, ends)):
            assert np.array_equal(row, uniform_array_zero_padded(ref, q, size))
            assert end == ref.position
            if end - (ends[i - 1] if i else 0) > step:
                refills.add(i)
        assert (r.counter, r._buf) == (ref.counter, ref._buf)
    assert refills & {0, rows - 1} and refills - {0, rows - 1}


@settings(max_examples=200, deadline=None)
@given(reads=st.lists(st.one_of(st.sampled_from(EDGES), st.integers(0, 2 * BLOCK_BYTES + 1)),
                      min_size=1, max_size=5),
       data=st.data())
def test_rewind_leaves_what_reads_ending_there_leave(reads, data):
    """After reads and a rewind to any byte read, counter, the unread bytes,
    the position and the bytes that follow are those of a fresh stream read
    up to that byte, in one read or two."""
    seed = bytes(range(50, 82))
    r = SeededRng(seed)
    for m in reads:
        r.take_bytes(m)
    back = data.draw(st.one_of(st.integers(0, r.position),
                               st.sampled_from([e for e in EDGES if e <= r.position])))
    r.rewind(back)
    ref = SeededRng(seed)
    first = data.draw(st.integers(0, back))
    ref.take_bytes(first)
    ref.take_bytes(back - first)
    assert (r.counter, r._buf, r.position) == (ref.counter, ref._buf, ref.position)
    assert len(r._buf) < BLOCK_BYTES
    assert r.take_bytes(3000) == ref.take_bytes(3000)
    with pytest.raises(ValueError):
        r.rewind(r.position + 1)


class SqueezeLog:
    """Stands in for hashlib.shake_128 in the rng module, recording each
    squeeze as (block, bytes)."""

    def __init__(self):
        self.squeezed = []

    def __call__(self, data):
        log, h = self.squeezed, hashlib.shake_128(data)

        class Squeeze:
            def digest(self, size):
                log.append((int.from_bytes(data[-8:], "little"), size))
                return h.digest(size)

        return Squeeze()


def test_a_first_read_squeezes_only_the_prefix_it_needs():
    """A fresh stream's first read squeezes its last block only as far as it
    reads; the next read into that block squeezes it whole, once, and later
    reads squeeze whole blocks."""
    log = SqueezeLog()
    r = SeededRng(bytes(32))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_mod, "hashlib", types.SimpleNamespace(shake_128=log))
        r.take_bytes(32)
        assert log.squeezed == [(0, 32)]
        r.take_bytes(32)
        r.take_bytes(900)
        assert log.squeezed == [(0, 32), (0, BLOCK_BYTES)]
        r.take_bytes(100)
        assert log.squeezed[2:] == [(1, BLOCK_BYTES)]
        log.squeezed.clear()
        SeededRng(bytes(32)).take_bytes(2080)  # a GLYPH mask from a fresh stream
        assert log.squeezed == [(0, BLOCK_BYTES), (1, BLOCK_BYTES), (2, 32)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3 * BLOCK_BYTES), max_size=12))
def test_reads_squeeze_no_block_more_than_twice(reads):
    """Only the last block of a stream's first read is squeezed twice: a
    prefix, then whole."""
    log = SqueezeLog()
    r = SeededRng(bytes(range(9, 41)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_mod, "hashlib", types.SimpleNamespace(shake_128=log))
        for m in reads:
            r.take_bytes(m)
    squeezed = [c for c, _ in log.squeezed]
    first = next((m for m in reads if m), 0)
    assert {c for c in squeezed if squeezed.count(c) > 1} <= {(first - 1) // BLOCK_BYTES}
    assert all(squeezed.count(c) <= 2 for c in squeezed)
