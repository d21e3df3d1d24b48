"""Evaluation attacks on PLWE and the parameter-weakness scanner.

Both distinguishers keep one survivor set of candidate secret
evaluations across the whole sample sequence: a candidate must survive
every sample seen so far, and each sample's verdict comes from its own
pass over the current set.  A nonempty survivor set means "valid" even
if the survivor is not the planted secret.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OrderTooLarge, PreconditionFailed
from .gaussian import GaussianParams, fold_to_zq_array
from .plwe import PlweParams, PlweSample
from .polyring import check_scan_q, evaluate, mult_order, poly_deg, poly_eval_z, roots_mod_q
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
    with_orders = tuple((a, mult_order(a, q)) for a in roots if a != 0)
    small = tuple((a, r) for a, r in with_orders if r <= r_max)
    notes = (
        "Galois / monogenic / orthogonal-transformation conditions not decided "
        "(no general algorithm; reported conditions are total splitting, "
        "f(1)=0 mod q, and root orders).",
        f"q = {int(q)}, n = {n}; 'q suitably large' has no quantitative form.",
    )
    return WeaknessReport(
        f=tuple(f),
        q=int(q),
        totally_split=len(roots) == n,
        root_one=(poly_eval_z(f, 1) % int(q) == 0),
        roots=with_orders,
        small_order_roots=small,
        family_xn_xpx_r=_family_membership(f),
        notes=notes,
    )


def _run_survivor_loop(samples, p: PlweParams, alpha: int, accept: np.ndarray,
                       return_survivors: bool):
    """Filter the candidates s in F_q through accept[(b(alpha) - s*a(alpha)) mod q],
    one sample at a time; accept is a boolean mask of length q."""
    q = int(p.ring.q)
    survivors = np.arange(q, dtype=np.int64)
    verdicts = []
    history = []
    for sample in samples:
        a_val = evaluate(sample.a, alpha)
        b_val = evaluate(sample.b, alpha)
        survivors = survivors[accept[(b_val - survivors * a_val) % q]]
        verdicts.append(
            Verdict(label="valid" if survivors.size else "random",
                    surviving_secrets=int(survivors.size))
        )
        if return_survivors:
            history.append(frozenset(survivors.tolist()))
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
    of parameter sqrt(n) * sigma).  With return_survivors the per-sample
    survivor sets are returned alongside the verdicts.
    """
    q = check_scan_q(p.ring.q)
    if poly_eval_z(list(p.ring.f), 1) % q != 0:
        raise PreconditionFailed("1 is not a root of f mod q")
    thresh = t * math.sqrt(p.n) * p.sigma
    e = np.arange(q, dtype=np.int64)
    accept = np.minimum(e, q - e) <= thresh  # |centered(e)|
    verdicts, history = _run_survivor_loop(samples, p, 1, accept, return_survivors)
    return (verdicts, history) if return_survivors else verdicts


def smallness_region(p: PlweParams, alpha: int, t: float) -> tuple[set[int], int, int]:
    """The set of F_q values reachable as sum c_i alpha^i with per-block
    bound |c_i| <= floor(t * sqrt(M+1) * sigma), where n-1 = r*M + l.

    Returns (region, r, B).  Refused when the predicted size exceeds
    MAX_REGION.
    """
    q = int(p.ring.q)
    r = mult_order(alpha, p.ring.q)
    m_blocks = (p.n - 1) // r
    bound = math.floor(t * math.sqrt(m_blocks + 1) * p.sigma)
    if (2 * bound + 1) ** r > MAX_REGION:
        raise OrderTooLarge(
            f"region size (2*{bound}+1)^{r} exceeds budget {MAX_REGION}"
        )
    offsets = np.arange(-bound, bound + 1, dtype=np.int64)
    values = np.zeros(1, dtype=np.int64)
    for i in range(r):
        block = offsets * pow(alpha, i, q)
        values = np.unique((values[:, None] + block[None, :]) % q)
    return set(values.tolist()), r, bound


def decide_alg2(
    samples: list[PlweSample],
    p: PlweParams,
    alpha: int,
    t: float = 3.0,
    r_max: int = 8,
    return_survivors: bool = False,
):
    """Small-order-root distinguisher; degenerates to decide_alg1 at alpha=1."""
    q = check_scan_q(p.ring.q)
    if poly_eval_z(list(p.ring.f), alpha) % q != 0:
        raise PreconditionFailed(f"{alpha} is not a root of f mod q")
    r = mult_order(alpha, p.ring.q)
    if r > r_max:
        raise OrderTooLarge(f"root order {r} exceeds r_max = {r_max}")
    region, _, _ = smallness_region(p, alpha, t)
    accept = np.zeros(q, dtype=bool)
    accept[np.fromiter(region, dtype=np.int64, count=len(region))] = True
    verdicts, history = _run_survivor_loop(samples, p, alpha, accept, return_survivors)
    return (verdicts, history) if return_survivors else verdicts


def smearing_estimate(p: PlweParams, alpha: int, trials: int, rng: SeededRng) -> float:
    """Monte-Carlo estimate of |pi_alpha(S)| / q over `trials` error draws."""
    q = int(p.ring.q)
    if poly_eval_z(list(p.ring.f), alpha) % q != 0:
        raise PreconditionFailed(f"{alpha} is not a root of f mod q")
    if trials <= 0:
        return 0.0
    powers = np.array([pow(alpha, i, q) for i in range(p.n)], dtype=np.int64)
    hit: set[int] = set()
    chunk = 10_000
    done = 0
    gp = GaussianParams(sigma=p.sigma)
    while done < trials:
        k = min(chunk, trials - done)
        errs = fold_to_zq_array(gp, p.ring.q, rng, k * p.n).reshape(k, p.n)
        vals = (errs * powers).sum(axis=1) % q
        hit.update(int(v) for v in np.unique(vals))
        done += k
    return len(hit) / q
