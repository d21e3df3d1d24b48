"""Evaluation attacks on PLWE and the parameter-weakness scanner.

One distinguisher, at a root alpha of f mod q (Algorithm 1 is alpha = 1),
keeps one survivor set of candidate secret evaluations across the whole
sample sequence: a candidate must leave an error in the smallness region
for every sample seen so far, and each sample's verdict comes from its
own pass over the current set.  A nonempty survivor set means "valid"
even if the survivor is not the planted secret.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, OrderTooLarge, PreconditionFailed
from .gaussian import GaussianParams, fold_to_zq_array
from .plwe import PlweParams, PlweSample
from .polyring import (check_same_params, check_scan_q, evaluate_many, mult_order, poly_deg,
                       poly_eval_z, roots_mod_q)
from .rng import SeededRng
from .zq import Modulus, is_prime

MAX_REGION = 1_000_000


@dataclass(frozen=True)
class Verdict:
    label: str  # "valid" | "random"
    surviving_secrets: int


@dataclass(frozen=True)
class WeaknessReport:
    f: tuple[int, ...]
    q: int
    totally_split: bool
    root_one: bool
    roots: tuple[tuple[int, int], ...]  # (alpha, multiplicative order)
    small_order_roots: tuple[tuple[int, int], ...]
    family_xn_xpx_r: bool
    notes: tuple[str, ...] = field(default_factory=tuple)

    def render_text(self) -> str:
        lines = [
            f"f             : {','.join(str(c) for c in self.f)}",
            f"q             : {self.q}",
            f"totally_split : {self.totally_split}",
            f"root_one      : {self.root_one}",
            f"roots (alpha, order): {list(self.roots) or 'none'}",
            f"small_order_roots   : {list(self.small_order_roots) or 'none'}",
            f"family x^n+x*p(x)-r : {self.family_xn_xpx_r}",
        ]
        lines += [f"note: {n}" for n in self.notes]
        return "\n".join(lines)


def _family_membership(f: list[int]) -> bool:
    """Membership in the family x^n + x*p(x) - r with deg p < n/2,
    r prime, 25*||p||_1^2 <= r (the stated upper bound s(n) is left
    unspecified and is not checked)."""
    n = poly_deg(f)
    r = -f[0]
    if r < 2 or not is_prime(r):
        return False
    p = f[1:n]
    if poly_deg(p) >= n / 2:
        return False
    one_norm = sum(abs(c) for c in p)
    return 25 * one_norm * one_norm <= r


def weakness_scan(f: list[int], q: Modulus, r_max: int = 8) -> WeaknessReport:
    """Checkable subset of the six weakness conditions for (f, q)."""
    n = poly_deg(f)
    if n < 2:
        raise PreconditionFailed("f must have degree >= 2")
    roots = roots_mod_q(f, q)
    with_orders = tuple((a, mult_order(a, q)) for a in roots if math.gcd(a, q) == 1)
    small = tuple((a, r) for a, r in with_orders if r <= r_max)
    notes = (
        "Galois / monogenic / orthogonal-transformation conditions not decided "
        "(no general algorithm; reported conditions are total splitting, "
        "f(1)=0 mod q, and root orders).",
        f"q = {q}, n = {n}; 'q suitably large' has no quantitative form.",
    )
    return WeaknessReport(
        f=tuple(f),
        q=q,
        totally_split=len(roots) == n,
        root_one=(poly_eval_z(f, 1) % q == 0),
        roots=with_orders,
        small_order_roots=small,
        family_xn_xpx_r=_family_membership(f),
        notes=notes,
    )


def _solutions(a_val: int, b_val: int, accepted: np.ndarray, q: int) -> np.ndarray:
    """Every s mod q with (b_val - s * a_val) mod q in `accepted`, for
    a_val != 0 mod q.  s * a_val = b_val - e has gcd(a_val, q) solutions
    when the gcd divides b_val - e and none otherwise: one per e for a prime q."""
    g = math.gcd(a_val, q)
    m = q // g
    rhs = (b_val - accepted) % q
    rhs = rhs[rhs % g == 0] // g
    base = rhs * pow(a_val // g, -1, m) % m
    return (base[:, None] + m * np.arange(g, dtype=np.int64)).ravel()


def _run_survivor_loop(samples, p: PlweParams, alpha: int, accepted: np.ndarray,
                       return_survivors: bool):
    """Keep the candidates s in F_q with (b(alpha) - s*a(alpha)) mod q in the
    accepted-error set A, one sample at a time.

    `accepted` lists A's residues once each in ascending order, and one
    `searchsorted` test decides membership.  While every sample so far has
    a(alpha) = 0 the survivors are all of F_q or none, and all of F_q is
    kept implicitly as None.  The first sample with a(alpha) != 0 leaves
    the |A| candidates (b(alpha) - e) / a(alpha), e in A, and later samples
    filter those, so the cost follows |A| and the sample count, not q.  The
    evaluations at alpha are one `evaluate_many` over every a and b.
    """
    q = p.ring.q
    # q, above every residue, keeps each searchsorted index inside the table.
    table = np.append(accepted, q)

    def accepts(v):
        return table[table.searchsorted(v)] == v

    k = len(samples)
    evals = evaluate_many([s.a.vec for s in samples] + [s.b.vec for s in samples], alpha, p.ring)
    survivors = None
    verdicts = []
    history = []
    for a_val, b_val in zip(evals[:k].tolist(), evals[k:].tolist()):
        if survivors is not None:
            survivors = survivors[accepts((b_val - survivors * a_val) % q)]
        elif a_val:
            survivors = _solutions(a_val, b_val, accepted, q)
        elif not accepts(b_val):
            survivors = accepted[:0]
        count = q if survivors is None else survivors.size
        verdicts.append(Verdict(label="valid" if count else "random", surviving_secrets=count))
        if return_survivors:
            history.append(frozenset(range(q) if survivors is None else survivors.tolist()))
    return verdicts, history


def decide_alg1(
    samples: list[PlweSample],
    p: PlweParams,
    t: float = 3.0,
    return_survivors: bool = False,
):
    """Evaluation-at-1 distinguisher; requires f(1) = 0 mod q.

    A candidate s survives a sample iff |centered(b(1) - s*a(1))| is
    within t * sqrt(n) * sigma (the error evaluation at 1 is a Gaussian
    of parameter sqrt(n) * sigma).  It is `decide_alg2` at alpha = 1: the
    root has order 1 and its smallness region is that threshold range.
    With return_survivors the per-sample survivor sets are returned
    alongside the verdicts.
    """
    return _decide(samples, p, 1, t, 1, return_survivors)


def smallness_region(p: PlweParams, alpha: int, t: float) -> tuple[set[int], int, int]:
    """The set of F_q values reachable as sum c_i alpha^i, i < r = order of
    alpha, with |c_i| <= B = floor(t * sqrt(M+1) * sigma), n-1 = r*M + l.

    Returns (region, r, B).  Offsets are capped at the centred residues,
    which leaves the set unchanged and saturates it at all of F_q once
    2B+1 >= q.  At r = 1 (Algorithm 1's threshold range when alpha = 1)
    the region has at most q residues and no budget applies; for r > 1 it
    is refused when (2B+1)^r exceeds MAX_REGION, and for every r when
    t * sqrt(M+1) * sigma overflows a float.
    """
    q = p.ring.q
    r = mult_order(alpha, q)
    m_blocks = (p.n - 1) // r
    scaled = t * math.sqrt(m_blocks + 1) * p.sigma
    if not math.isfinite(scaled):
        raise InvalidParams(f"the bound t * sqrt(M+1) * sigma overflows at t = {t}")
    bound = math.floor(scaled)
    if r > 1 and (2 * bound + 1) ** r > MAX_REGION:
        raise OrderTooLarge(
            f"region size (2*{bound}+1)^{r} exceeds budget {MAX_REGION}"
        )
    offsets = np.arange(-min(bound, (q - 1) // 2), min(bound, q // 2) + 1, dtype=np.int64)
    values = np.zeros(1, dtype=np.int64)
    for i in range(r):
        block = offsets * pow(alpha, i, q)
        values = _sorted_unique((values[:, None] + block[None, :]) % q)
    return set(values.tolist()), r, bound


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, ascending: `np.sort` and a mask of the
    entries that differ from their left neighbour, which is faster here
    than `np.unique`'s hash path on int64."""
    a = np.sort(a, axis=None)
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _decide(samples: list[PlweSample], p: PlweParams, alpha: int, t: float, r_max: int,
            return_survivors: bool):
    """The distinguisher at the root alpha, with `smallness_region` as A."""
    q = check_scan_q(p.ring.q)
    for s in samples:
        for x in (s.a, s.b):
            check_same_params(x.params, p.ring, "a sample's ring", "the PLWE ring's")
    if poly_eval_z(list(p.ring.f), alpha) % q != 0:
        raise PreconditionFailed(f"{alpha} is not a root of f mod q")
    r = mult_order(alpha, q)
    if r > r_max:
        raise OrderTooLarge(f"root order {r} exceeds r_max = {r_max}")
    region, _, _ = smallness_region(p, alpha, t)
    accepted = np.sort(np.fromiter(region, dtype=np.int64, count=len(region)))
    verdicts, history = _run_survivor_loop(samples, p, alpha, accepted, return_survivors)
    return (verdicts, history) if return_survivors else verdicts


def decide_alg2(
    samples: list[PlweSample],
    p: PlweParams,
    alpha: int,
    t: float = 3.0,
    r_max: int = 8,
    return_survivors: bool = False,
):
    """Small-order-root distinguisher; requires f(alpha) = 0 mod q and an
    order of alpha at most r_max.  The accepted errors are
    `smallness_region(p, alpha, t)`; at alpha = 1 this is `decide_alg1`."""
    return _decide(samples, p, alpha, t, r_max, return_survivors)


def smearing_estimate(p: PlweParams, alpha: int, trials: int, rng: SeededRng) -> float:
    """Monte-Carlo estimate of |pi_alpha(S)| / q over `trials` error draws,
    evaluated exactly by `evaluate_many` for every q."""
    q = p.ring.q
    if poly_eval_z(list(p.ring.f), alpha) % q != 0:
        raise PreconditionFailed(f"{alpha} is not a root of f mod q")
    if trials <= 0:
        return 0.0
    hit: set[int] = set()
    chunk = 10_000
    done = 0
    gp = GaussianParams(sigma=p.sigma)
    while done < trials:
        k = min(chunk, trials - done)
        errs = fold_to_zq_array(gp, q, rng, k * p.n).reshape(k, p.n)
        hit.update(_sorted_unique(evaluate_many(errs, alpha, p.ring)).tolist())
        done += k
    return len(hit) / q
