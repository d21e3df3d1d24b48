"""Bulk paths hold one block beyond their output, not a multiple of it:
tracemalloc peaks for an LWE public key at n = 128 (254 k residues)."""

import tracemalloc

import numpy as np
import pytest

from latticelab import fileio, lwe
from latticelab.rng import SeededRng

P = lwe.derive_params(128)
# One block's transients, in bytes: a Python int, its list and tuple slots
# and its text per entry formatted (~60 per entry here), or the file chunk,
# its lines and their parse per entry read (~70).
BLOCK_BYTES = 96 * fileio._BLOCK_ENTRIES


def _peak(fn):
    """fn's result and the peak traced memory, in bytes, while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
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
    text, peak = _peak(lambda: fileio.dump_lwe_public(public_key))
    assert peak <= 4 * len(text)


def test_load_lwe_public_peaks_within_4_times_its_text(public_key):
    text = fileio.dump_lwe_public(public_key)
    pk, peak = _peak(lambda: fileio.load_lwe_public(text))
    assert np.array_equal(pk.a, public_key.a)
    assert peak <= 4 * len(text)


def test_write_lwe_public_peaks_within_one_block(public_key, tmp_path):
    text = fileio.dump_lwe_public(public_key)
    assert BLOCK_BYTES < len(text) / 3  # so a writer that holds the text fails
    _, peak = _peak(lambda: fileio.write_lwe_public(tmp_path / "pub", public_key))
    assert peak <= BLOCK_BYTES
    assert (tmp_path / "pub").read_text() == text


def test_read_lwe_public_peaks_within_its_key_and_one_block(public_key, tmp_path):
    fileio.write_lwe_public(tmp_path / "pub", public_key)
    pk, peak = _peak(lambda: fileio.read_lwe_public(tmp_path / "pub"))
    assert np.array_equal(pk.a, public_key.a) and np.array_equal(pk.b, public_key.b)
    assert peak <= pk.a.nbytes + pk.b.nbytes + BLOCK_BYTES
