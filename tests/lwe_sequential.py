"""The LWE bit cipher one bit at a time, as it encrypted before
`lwe.encrypt_bits` took a message's bits in one product: each bit reads its
subset from its rng and gathers and sums the chosen key rows in int64, a
block of rows at a time.  The tests' reference for `encrypt_bits`'
ciphertexts and the streams it leaves."""

import numpy as np

from latticelab.errors import InvalidParams
from latticelab.lwe import LweCiphertext

ROW_ENTRIES = 1 << 16  # entries of `a` gathered at a time


def encrypt_bit_sequential(pk, z, rng):
    if z not in (0, 1):
        raise InvalidParams("plaintext must be a bit")
    p = pk.params
    q = p.q
    raw = np.frombuffer(rng.take_bytes((p.m + 7) // 8), dtype=np.uint8)
    subset = np.unpackbits(raw)[: p.m] == 1
    step = max(1, ROW_ENTRIES // max(p.n, 1))
    u = pk.a[:step][subset[:step]].sum(axis=0)
    for i in range(step, p.m, step):
        u += pk.a[i : i + step][subset[i : i + step]].sum(axis=0)
    u %= q
    v = (z * (q // 2) + int(pk.b[subset].sum())) % q
    return LweCiphertext(u=u, v=v)
