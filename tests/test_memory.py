"""Bulk paths hold one block beyond their output, not a multiple of it:
tracemalloc peaks for an LWE public key at n = 128 (252 k residues)."""

import tracemalloc

import numpy as np
import pytest

from latticelab import fileio, lwe
from latticelab.rng import SeededRng

P = lwe.derive_params(128)


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
