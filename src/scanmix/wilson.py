"""Eigenvector-weighted mixing bounds for the auxiliary sign chains.

The sign chains on {-1,+1}^(n-1) have a linear conditional-expectation
structure E[X(1) | X(0)] = A X(0).  Tracking Phi_t = w X(t) for a positive
left eigenvector w of A yields a mixing-time lower bound from the decay rate
and a variance budget, and (via a monotone coupling) an upper bound:

    lower:  Mix(1/2) >= lam * ln(Phi_0 / (4 sqrt(nu))) / (1 - lam),
            nu = rho / (1 - lam^2),  rho >= E[var(Phi_t | Phi_{t-1})]
    upper:  Mix(eps) <= ln(2 Phi_0 / eps) / (1 - lam)   (needs w_i >= 1)

Closed forms: the single-site chain has a symmetric tridiagonal structure
with lam = 1 - 4 sin^2(pi/(2n-2)) / (3n) and w_i = c_n sin(pi(i-1/2)/(n-1));
the sweep chain composes the per-move expectation maps and has
lam = e^(-2 gamma) with e^gamma = sqrt(3 + cos^2 alpha) - cos alpha,
alpha = pi/(n-1), and w_i = c_n e^(gamma i) sin(alpha i + beta) where beta
solves tan(beta) = -3 tan(beta + alpha) in (-alpha, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import CH_SIGN, RandomTape, sign_move

# states the scan estimate of rho probes along its walk
PROBE_STATES = 24

# ---------------------------------------------------------------------------
# Per-move expectation maps
# ---------------------------------------------------------------------------

def move_expectation_map(v: int, n: int) -> np.ndarray:
    """Expectation map of the vertex-v sign move on column vectors.

    The move acts with probability 1/3, so the map is (2I + P_v)/3 with P_v
    the move's signed permutation: a boundary flip contracts its coordinate
    by 1/3, an interior swap mixes the two coordinates (2/3, 1/3).
    """
    P = np.eye(n - 1)
    sign_move(P, v)
    return (2 * np.eye(n - 1) + P) / 3


# ---------------------------------------------------------------------------
# Closed-form eigendata
# ---------------------------------------------------------------------------

@dataclass
class EigenData:
    kind: str
    n: int
    lam: float
    w: np.ndarray           # scaled so min_i w_i = 1
    c_n: float


def _scan_beta(n: int) -> float:
    """Root of tan(beta) = -3 tan(beta + pi/(n-1)) in (-pi/(n-1), 0), by bisection."""
    alpha = math.pi / (n - 1)

    def f(b: float) -> float:
        return math.tan(b) + 3 * math.tan(b + alpha)

    lo, hi = -alpha + 1e-15, -1e-15
    flo = f(lo)
    if flo * f(hi) > 0:
        raise ArithmeticError("bracketing failure for the sweep phase root")
    while hi - lo > 1e-14:
        mid = (lo + hi) / 2
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return (lo + hi) / 2


def closed_form_eigen(kind: str, n: int) -> EigenData:
    """Leading eigenvalue and positive left eigenvector, scaled to min w_i = 1.

    The exact scale (rather than its large-n asymptote) is used because the
    upper bound requires w_i >= 1 coordinatewise.
    """
    if n < 4:
        raise ValueError("n >= 4 required")
    alpha = math.pi / (n - 1)
    if kind == "glauber":
        lam = 1 - 4 * math.sin(alpha / 2) ** 2 / (3 * n)
        c_n = 1 / math.sin(alpha / 2)
        w = c_n * np.sin(alpha * (np.arange(1, n) - 0.5))
        return EigenData(kind, n, lam, w, c_n)
    if kind == "scan":
        eg = math.sqrt(3 + math.cos(alpha) ** 2) - math.cos(alpha)
        gamma = math.log(eg)
        lam = math.exp(-2 * gamma)
        beta = _scan_beta(n)
        raw = np.exp(gamma * np.arange(1, n)) * np.sin(alpha * np.arange(1, n) + beta)
        c_n = 1 / raw.min()
        w = c_n * raw
        return EigenData(kind, n, lam, w, c_n)
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Variance budget rho
# ---------------------------------------------------------------------------

@dataclass
class RhoEstimate:
    rho: float
    max_increment: float
    empirical: bool


def _sweep_statistic_rows(eigen: EigenData) -> np.ndarray:
    """Row k (0..n) maps the state after the first k sweep moves to E[Phi_t].

    Row 0 applies the whole sweep expectation, row n is w itself; these drive
    the increment sequence Z_k of the reveal-one-move-at-a-time martingale.
    """
    n = eigen.n
    rows = [eigen.w.copy()]
    u = eigen.w.copy()
    for v in range(n, 0, -1):
        u = u @ move_expectation_map(v, n)
        rows.append(u)
    return np.array(rows[::-1])


def sweep_increments(
    x: np.ndarray, decisions: np.ndarray, eigen: EigenData, rows: np.ndarray
) -> np.ndarray:
    """Martingale increments Z_k - Z_{k-1} over one sweep from state x.

    ``decisions`` holds the n Bernoulli(1/3) move indicators; Z_k conditions
    on the first k of them.
    """
    n = eigen.n
    cur = x.astype(float).copy()
    z = np.empty(n + 1)
    z[0] = rows[0] @ cur
    for v in range(1, n + 1):
        if decisions[v - 1]:
            sign_move(cur, v)
        z[v] = rows[v] @ cur
    return np.diff(z)


def estimate_rho(
    kind: str,
    n: int,
    trials: int = 512,
    tape: Optional[RandomTape] = None,
) -> RhoEstimate:
    """Bound/estimate for rho = max_x E[var(Phi_t | X(t-1) = x)].

    kind='glauber': the exact maximum, not a sample,

        rho = (4/(3n)) sum_{i=0}^{n-1} (w_{i+1} - w_i)^2,   w_0 = w_n = 0,

    which is (8/3)(1 - 2/n) for the shipped w.  Proof: one step picks v
    uniformly and applies its sign move with probability 1/3, changing Phi
    by d_v(x) = (w_{v-1} - w_v)(x_v - x_{v-1}), where x_0 = -x_1 and
    x_n = -x_{n-1} (the boundary moves flip x_1 and x_{n-1}).  So
    var(Phi_t | x) = (1/(3n)) sum_v d_v^2 - m(x)^2 with m(x) = (1/(3n))
    sum_v d_v, and d_v^2 is 4 (w_{v-1} - w_v)^2 when x_{v-1} != x_v and 0
    otherwise: var <= rho for every x.  The alternating x_v = (-1)^v
    disagrees at every v, so its first term is rho.  Its mean change is
    m = -4 Phi(x) / (3n) by summing d_v, and m = (lam - 1) Phi(x) because w
    is a left eigenvector; as 1 - lam = 4 sin^2(pi/(2n-2)) / (3n) < 4/(3n),
    Phi(x) = 0 and m = 0, so the alternating vector attains rho.
    ``max_increment`` is max_i |w_{i+1} - w_i|.
    kind='scan': Monte Carlo.  Visited states are collected along a
    trajectory from the all-ones configuration; for each probe state the
    conditional variance is estimated by averaging the summed squared
    martingale increments of inner one-sweep samples (increments of a Doob
    martingale are uncorrelated), and rho is the max over probe states.
    """
    eigen = closed_form_eigen(kind, n)
    if kind == "glauber":
        incs = np.abs(np.diff(np.concatenate(([0.0], eigen.w, [0.0]))))
        rho = 4 / (3 * n) * float(incs @ incs)
        return RhoEstimate(rho=rho, max_increment=float(incs.max()), empirical=False)

    if trials < 1:
        raise ValueError("trials >= 1 required")
    if tape is None:
        tape = RandomTape()
    rows = _sweep_statistic_rows(eigen)
    inner = max(8, trials // PROBE_STATES)

    # phase 1: walk the chain, remember evenly spaced states
    x = np.ones(n - 1)
    probes = [x.copy()]
    walk_sweeps = 4 * PROBE_STATES
    stride = walk_sweeps // (PROBE_STATES - 1)
    for t in range(walk_sweeps):
        decisions = tape.uniforms(0, t, CH_SIGN, n) < 1 / 3
        for v in range(1, n + 1):
            if decisions[v - 1]:
                sign_move(x, v)
        if (t + 1) % stride == 0 and len(probes) < PROBE_STATES:
            probes.append(x.copy())

    # phase 2: inner sampling of the conditional variance at each probe state
    rho_hat = 0.0
    max_inc = 0.0
    t_base = walk_sweeps
    for k, state in enumerate(probes):
        acc = 0.0
        for j in range(inner):
            decisions = tape.uniforms(0, t_base + k * inner + j, CH_SIGN, n) < 1 / 3
            inc = sweep_increments(state, decisions, eigen, rows)
            acc += float(np.sum(inc ** 2))
            max_inc = max(max_inc, float(np.max(np.abs(inc))))
        rho_hat = max(rho_hat, acc / inner)
    return RhoEstimate(rho=rho_hat, max_increment=max_inc, empirical=True)


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------

@dataclass
class WilsonReport:
    """Eigendata plus the derived mixing bounds for one sign chain.

    ``lower_bound`` is at deviation 1/2; ``upper_bound(eps)`` is the coupling
    bound and requires the min-1 scaling of w.  ``asymptotic_reference`` is
    the leading-order mixing scale of the family at this n: (3/2) pi^-2 n^3
    ln n for single-site updates, pi^-2 n^2 ln n for sweeps (in the chain's
    own time unit).  ``rho_is_empirical`` flags that the sweep variance
    budget is a Monte Carlo constant rather than a proved one.
    ``max_increment`` is the estimate's largest martingale increment.
    """

    kind: str
    n: int
    lam: float
    w: np.ndarray
    c_n: float
    phi0: float
    rho: float
    nu: float
    lower_bound: float
    rho_is_empirical: bool
    asymptotic_reference: float
    max_increment: float

    def upper_bound(self, eps: float) -> float:
        return math.log(2 * self.phi0 / eps) / (1 - self.lam)


def wilson_bounds(
    kind: str, n: int, tape: Optional[RandomTape] = None, trials: int = 512
) -> WilsonReport:
    """Assemble the full report; rho is the closed form or an estimate."""
    eigen = closed_form_eigen(kind, n)
    if not 0 < eigen.lam < 1:
        raise ValueError(f"leading eigenvalue {eigen.lam} must sit in (0, 1)")
    est = estimate_rho(kind, n, trials=trials, tape=tape)
    rho = est.rho
    if rho <= 0:
        raise ValueError("rho must be positive")
    phi0 = float(np.sum(eigen.w))
    nu = rho / (1 - eigen.lam ** 2)
    lower = eigen.lam * math.log(phi0 / (4 * math.sqrt(nu))) / (1 - eigen.lam)
    if kind == "glauber":
        reference = 1.5 * math.pi ** -2 * n ** 3 * math.log(n)
    else:
        reference = math.pi ** -2 * n ** 2 * math.log(n)
    return WilsonReport(
        kind=kind,
        n=n,
        lam=eigen.lam,
        w=eigen.w,
        c_n=eigen.c_n,
        phi0=phi0,
        rho=rho,
        nu=nu,
        lower_bound=lower,
        rho_is_empirical=est.empirical,
        asymptotic_reference=reference,
        max_increment=est.max_increment,
    )
