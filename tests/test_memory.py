"""Bulk paths hold one block beyond their output, not a multiple of it:
tracemalloc peaks for an LWE public key at n = 128 (254 k residues), for
the streamed reads of the other bulk records, LWE ciphertexts and PLWE
samples, and for encrypting a message's bits."""

import tracemalloc

import numpy as np
import pytest

from latticelab import cli, fileio, lwe, plwe
from latticelab.rng import SeededRng

P = lwe.derive_params(128)
# One block's transients, in bytes: its words, their chunk indices, bytes
# and text per entry written (~60 per entry here), or the file chunk, its
# lines and their parse per entry read (~70).
BLOCK_BYTES = 96 * fileio._BLOCK_ENTRIES
# One block of encrypt_bits' products, in bytes: four float64 arrays of
# lwe._SUM_ENTRIES entries (a block of key rows, a block of bits' subset rows,
# their product and the sums), each the most a block's arrays hold.
SUM_BLOCK_BYTES = 4 * 8 * lwe._SUM_ENTRIES


def _peak(fn):
    """fn's result and the peak traced memory, in bytes, while it ran."""
    out, _, peak = _held_and_peak(fn)
    return out, peak


def _held_and_peak(fn):
    """fn's result, the traced memory it still holds once fn returns (the
    result's own size), and the peak while it ran, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        return (out, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def public_key():
    return lwe.keygen(P, SeededRng(b"\x31" * 32))[1]


def test_uniform_array_peaks_near_its_result():
    draws, peak = _peak(lambda: SeededRng(b"\x32" * 32).uniform_array(P.q, P.m * P.n))
    assert draws.nbytes == 8 * P.m * P.n
    assert peak <= 1.25 * draws.nbytes


def test_dump_lwe_public_peaks_within_4_times_its_text(public_key):
    text, peak = _peak(lambda: fileio.dump_record("lwe-public", public_key))
    assert peak <= 4 * len(text)


def test_load_lwe_public_peaks_within_4_times_its_text(public_key):
    text = fileio.dump_record("lwe-public", public_key)
    pk, peak = _peak(lambda: fileio.load_record(text, "lwe-public"))
    assert np.array_equal(pk.a, public_key.a)
    assert peak <= 4 * len(text)


def test_write_lwe_public_peaks_within_one_block(public_key, tmp_path):
    text = fileio.dump_record("lwe-public", public_key)
    assert BLOCK_BYTES < len(text) / 3  # so a writer that holds the text fails
    _, peak = _peak(lambda: cli._write_out(tmp_path / "pub",
                                           fileio.record_blocks("lwe-public", public_key)))
    assert peak <= BLOCK_BYTES
    assert (tmp_path / "pub").read_text() == text


def test_read_lwe_public_peaks_within_its_key_and_one_block(public_key, tmp_path):
    (tmp_path / "pub").write_text(fileio.dump_record("lwe-public", public_key))
    pk, peak = _peak(lambda: fileio.read_record(tmp_path / "pub", "lwe-public"))
    assert np.array_equal(pk.a, public_key.a) and np.array_equal(pk.b, public_key.b)
    assert peak <= pk.a.nbytes + pk.b.nbytes + BLOCK_BYTES


@pytest.fixture(scope="module")
def bulk_records(public_key, tmp_path_factory):
    """Files of the other bulk records, each several blocks long: 2000 LWE
    ciphertexts at n = 128 (258 k residues) and 800 PLWE samples at
    n = 256 (410 k)."""
    d = tmp_path_factory.mktemp("bulk")
    rng = SeededRng(b"\x33" * 32)
    cts = lwe.encrypt_bits(public_key, [i & 1 for i in range(2000)], [rng] * 2000)
    (d / "lwe-ciphertext").write_text(fileio.dump_record("lwe-ciphertext", cts, P))
    pp = plwe.default_params(256)
    samples = [plwe.uniform_sample_pair(pp, rng) for _ in range(800)]
    (d / "plwe-samples").write_text(fileio.dump_record("plwe-samples", samples, pp))
    return d


@pytest.mark.parametrize("kind", ["lwe-ciphertext", "plwe-samples"])
def test_streamed_read_peaks_within_its_record_and_one_block(kind, bulk_records):
    path = bulk_records / kind
    assert BLOCK_BYTES < path.stat().st_size / 3  # so a reader that holds the text fails
    (rows, _), held, peak = _held_and_peak(lambda: fileio.read_record(path, kind))
    assert len(rows) in (2000, 800)
    assert peak <= held + BLOCK_BYTES


def test_encrypt_bits_peaks_within_its_ciphertexts_and_one_block(public_key):
    bits = [i % 3 & 1 for i in range(2000)]
    rngs = [SeededRng(b"\x34" * 32)] * len(bits)
    assert SUM_BLOCK_BYTES < len(bits) * P.m  # so an all-bits subset matrix fails
    cts, held, peak = _held_and_peak(lambda: lwe.encrypt_bits(public_key, bits, rngs))
    assert len(cts) == 2000 and held >= 2000 * (P.n + 1) * 8
    assert peak <= held + SUM_BLOCK_BYTES
