"""Schoolbook products and division of integer polynomials (lists of ints,
lowest degree first), in Python ints: the tests' exact oracles for the
package's ring products, reductions and cyclotomic identities."""

from latticelab.polyring import poly_trim


def poly_mul_z(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return poly_trim(out)


def poly_divmod_z(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Exact division with remainder by a monic divisor b, over Z."""
    b = poly_trim(list(b))
    if not b or b[-1] != 1:
        raise ValueError("the divisor must be monic")
    r = list(a)
    db = len(b) - 1
    quo = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            quo[i - db] = c
            for j in range(db + 1):
                r[i - db + j] -= c * b[j]
    return poly_trim(quo), poly_trim(r)
