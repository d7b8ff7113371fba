"""Exact finite-chain analysis: kernels, mixing times, spectra, comparisons.

Transition matrices are held sparsely with integer numerators over one global
denominator, so row-stochasticity and stationarity checks are exact.  Spectra
and total-variation mixing times use dense float64 linear algebra; the chains
analysed here have at most a few thousand states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .domain import (
    BudgetExceededError,
    Coloring,
    Graph,
    TargetGraph,
    enumerate_colorings,
    enumerate_h_colorings,
    to_signs,
)
from .dynamics import ChainSpec, proposal_accepted, scan_order, sign_move

DEFAULT_STATE_BUDGET = 20_000


class NonErgodicError(RuntimeError):
    """Raised when a mixing-time computation meets a reducible chain."""

    def __init__(self, classes: list[list[int]]):
        super().__init__(f"chain is not ergodic: {len(classes)} communicating classes")
        self.classes = classes


@dataclass
class ChainKernel:
    """Row-stochastic matrix over an enumerated, lexicographically ordered space.

    In exact mode ``rows[i][j] / denom`` is the transition probability i -> j
    with integer numerators; above the exactness threshold the entries are
    floats and ``denom`` is None.  ``spec`` records which chain the matrix
    represents.
    """

    states: list
    rows: list[dict[int, int]]
    denom: Optional[int]
    spec: Optional[ChainSpec] = None
    _dense: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.index = {s: i for i, s in enumerate(self.states)}

    def __len__(self) -> int:
        return len(self.states)

    @property
    def exact(self) -> bool:
        return self.denom is not None

    def entry(self, i: int, j: int):
        """Transition probability as a Fraction (exact mode) or float."""
        if self.exact:
            return Fraction(self.rows[i].get(j, 0), self.denom)
        return self.rows[i].get(j, 0.0)

    def dense(self) -> np.ndarray:
        if self._dense is None:
            n = len(self.states)
            P = np.zeros((n, n))
            for i, row in enumerate(self.rows):
                for j, num in row.items():
                    P[i, j] = num / self.denom if self.exact else num
            self._dense = P
        return self._dense

    def row_sums_exact(self, tol: float = 1e-12) -> bool:
        """Rows sum to one: exactly in rational mode, within tol in float mode."""
        if self.exact:
            return all(sum(row.values()) == self.denom for row in self.rows)
        return all(abs(sum(row.values()) - 1.0) <= tol for row in self.rows)

    def uniform_is_stationary(self, tol: float = 1e-12) -> bool:
        """With uniform pi, stationarity is equivalent to unit column sums."""
        col = [0 if self.exact else 0.0] * len(self.states)
        for row in self.rows:
            for j, num in row.items():
                col[j] += num
        if self.exact:
            return all(c == self.denom for c in col)
        return all(abs(c - 1.0) <= tol for c in col)

    def reversal(self) -> "ChainKernel":
        """Time reversal with respect to the uniform distribution (transpose)."""
        rows: list[dict] = [dict() for _ in self.states]
        for i, row in enumerate(self.rows):
            for j, num in row.items():
                rows[j][i] = num
        return ChainKernel(list(self.states), rows, self.denom, self.spec)

    def compose(self, other: "ChainKernel") -> "ChainKernel":
        """Exact product kernel: one step of self followed by one of other."""
        if self.states != other.states:
            raise ValueError("composition requires identical state spaces")
        if not (self.exact and other.exact):
            raise ValueError("composition is implemented for exact kernels")
        rows: list[dict[int, int]] = []
        for row in self.rows:
            out: dict[int, int] = {}
            for j, num in row.items():
                for k, num2 in other.rows[j].items():
                    out[k] = out.get(k, 0) + num * num2
            rows.append(out)
        return ChainKernel(list(self.states), rows, self.denom * other.denom, self.spec)

    def to_triplets(self) -> str:
        """Sparse text export: one 'i j num den' line per nonzero entry."""
        if not self.exact:
            raise ValueError("triplet export requires the exact (rational) mode")
        lines = []
        for i, row in enumerate(self.rows):
            for j in sorted(row):
                lines.append(f"{i} {j} {row[j]} {self.denom}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Kernel construction
# ---------------------------------------------------------------------------

def _state_space(
    spec: ChainSpec,
    budget: int,
    component: str,
    fiber_of: Optional[Coloring],
    proper_only: bool,
) -> list:
    g = spec.graph
    if spec.q is not None:
        states = enumerate_colorings(g, spec.q, proper_only=proper_only, budget=budget)
    else:
        if component == "auto":
            component = (
                "side0"
                if g.kind == "path" and spec.target.is_bipartite
                else "all"
            )
        states = enumerate_h_colorings(g, spec.target, component=component, budget=budget)
    if fiber_of is not None and spec.clamp:
        states = [
            s for s in states if all(s[v - 1] == fiber_of[v - 1] for v in spec.clamp)
        ]
    if len(states) > budget:
        raise BudgetExceededError(f"{len(states)} states exceed budget {budget}")
    return states


def build_kernel(
    spec: ChainSpec,
    budget: int = DEFAULT_STATE_BUDGET,
    component: str = "auto",
    fiber_of: Optional[Coloring] = None,
    proper_only: bool = True,
    exact_threshold: int = DEFAULT_STATE_BUDGET,
) -> ChainKernel:
    """Transition matrix of the specified chain.

    The sweep kernel is the ordered product of the n per-vertex update
    kernels, computed by sparse row propagation with integer weights.
    ``fiber_of`` restricts a clamped chain to the states agreeing with the
    given coloring on the clamped vertices.  Entries are exact rationals up
    to ``exact_threshold`` states and floats beyond.
    """
    states = _state_space(spec, budget, component, fiber_of, proper_only)
    index = {s: i for i, s in enumerate(states)}
    n, q = spec.graph.n, spec.n_colors

    rows: list[dict[int, int]] = []
    if spec.base == "glauber":
        denom = n * q * (2 if spec.lazy else 1)
        for s in states:
            row: dict[int, int] = {}
            diag = n * q if spec.lazy else 0
            for v in range(1, n + 1):
                if v in spec.clamp:
                    diag += q
                    continue
                for c in range(q):
                    if c != s[v - 1] and proposal_accepted(spec, s, v, c):
                        t = s[: v - 1] + (c,) + s[v:]
                        j = index[t]
                        row[j] = row.get(j, 0) + 1
                    else:
                        diag += 1
            i = index[s]
            row[i] = row.get(i, 0) + diag
            rows.append(row)
    else:
        denom = q ** n
        order = list(scan_order(spec))
        for s in states:
            # sparse distribution over reachable states, scaled by q per vertex
            dist = {s: 1}
            for v in order:
                if v in spec.clamp:
                    dist = {t: w * q for t, w in dist.items()}
                    continue
                nxt: dict[Coloring, int] = {}
                for t, w in dist.items():
                    for c in range(q):
                        if c != t[v - 1] and proposal_accepted(spec, t, v, c):
                            u = t[: v - 1] + (c,) + t[v:]
                        else:
                            u = t
                        nxt[u] = nxt.get(u, 0) + w
                dist = nxt
            rows.append({index[t]: w for t, w in dist.items()})
    if len(states) > exact_threshold:
        rows = [{j: num / denom for j, num in row.items()} for row in rows]
        denom = None
    return ChainKernel(states, rows, denom, spec)


def sign_states(n: int) -> list[tuple[int, ...]]:
    """All sign vectors in {-1,+1}^(n-1), lexicographically ordered."""
    import itertools

    return list(itertools.product((-1, 1), repeat=n - 1))


def build_sign_kernel(base: str, n: int) -> ChainKernel:
    """Exact kernel of the auxiliary sign chain on {-1,+1}^(n-1)."""
    states = sign_states(n)
    X = np.array(states)
    place = 2 ** np.arange(n - 2, -1, -1)  # states are binary numbers, -1 -> 0
    moves = []  # moves[v - 1][i]: index of state i after the vertex-v move
    for v in range(1, n + 1):
        Y = X.copy()
        sign_move(Y, v)
        moves.append((((Y + 1) // 2) @ place).tolist())

    rows: list[dict[int, int]] = []
    if base == "glauber":
        denom = 3 * n
        for i in range(len(states)):
            row: dict[int, int] = {}
            for move in moves:
                row[move[i]] = row.get(move[i], 0) + 1
                row[i] = row.get(i, 0) + 2
            rows.append(row)
    elif base == "scan":
        denom = 3 ** n
        for i in range(len(states)):
            dist = {i: 1}
            for move in moves:
                nxt: dict[int, int] = {}
                for t, w in dist.items():
                    nxt[move[t]] = nxt.get(move[t], 0) + w
                    nxt[t] = nxt.get(t, 0) + 2 * w
                dist = nxt
            rows.append(dist)
    else:
        raise ValueError(f"unknown base {base!r}")
    return ChainKernel(states, rows, denom, None)


def lump_kernel(
    kernel: ChainKernel, projection: Callable
) -> Optional[ChainKernel]:
    """Pushforward of a kernel under a state-space projection.

    Returns None when the lumping is not well defined (two states in the same
    fiber would induce different projected rows).  Numerators stay exact.
    """
    if not kernel.exact:
        raise ValueError("lumping is decided by exact row comparison")
    classes: dict = {}
    for s in kernel.states:
        classes.setdefault(projection(s), []).append(s)
    lumped_states = sorted(classes)
    lindex = {x: i for i, x in enumerate(lumped_states)}
    rows: list[dict[int, int]] = []
    for x in lumped_states:
        projected = None
        for s in classes[x]:
            row: dict[int, int] = {}
            for j, num in kernel.rows[kernel.index[s]].items():
                jj = lindex[projection(kernel.states[j])]
                row[jj] = row.get(jj, 0) + num
            if projected is None:
                projected = row
            elif projected != row:
                return None
        rows.append(projected)
    return ChainKernel(lumped_states, rows, kernel.denom, kernel.spec)


# ---------------------------------------------------------------------------
# Ergodicity, mixing times, spectra
# ---------------------------------------------------------------------------

def communicating_classes(kernel: ChainKernel) -> list[list[int]]:
    """Strongly connected components of the positive-transition digraph."""
    n = len(kernel.states)
    succ = [list(row.keys()) for row in kernel.rows]
    pred: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(kernel.rows):
        for j in row:
            pred[j].append(i)

    order: list[int] = []
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        stack = [(s, iter(succ[s]))]
        seen[s] = True
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, iter(succ[v])))
                    advanced = True
                    break
            if not advanced:
                order.append(u)
                stack.pop()

    comp = [-1] * n
    c = 0
    for s in reversed(order):
        if comp[s] != -1:
            continue
        stack = [s]
        comp[s] = c
        while stack:
            u = stack.pop()
            for v in pred[u]:
                if comp[v] == -1:
                    comp[v] = c
                    stack.append(v)
        c += 1
    out: list[list[int]] = [[] for _ in range(c)]
    for i, ci in enumerate(comp):
        out[ci].append(i)
    return out


def max_tv_to_uniform(P_t: np.ndarray) -> float:
    n = P_t.shape[0]
    return 0.5 * float(np.max(np.abs(P_t - 1.0 / n).sum(axis=1)))


def tv_mixing_time(kernel: ChainKernel, eps: float, max_t: int = 10 ** 9) -> int:
    """min { t > 0 : max_x TV(P^t(x, .), uniform) <= eps }.

    Doubling ladder then binary search; the worst-start distance is
    nonincreasing in t, so the search is valid.
    """
    classes = communicating_classes(kernel)
    if len(classes) > 1:
        raise NonErgodicError(classes)
    P = kernel.dense()
    ladder = [P]
    t = 1
    while max_tv_to_uniform(ladder[-1]) > eps:
        ladder.append(ladder[-1] @ ladder[-1])
        t *= 2
        if t > max_t:
            raise RuntimeError(f"no mixing by t={max_t}; chain may be periodic")
    if t == 1:
        return 1

    def power(m: int) -> np.ndarray:
        out = None
        k = 0
        while m:
            if m & 1:
                out = ladder[k] if out is None else out @ ladder[k]
            m >>= 1
            k += 1
        return out

    lo, hi = t // 2, t
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if max_tv_to_uniform(power(mid)) <= eps:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass
class SpectralReport:
    """Eigenvalues of the additively symmetrized kernel, sorted descending.

    ``poincare`` is the Dirichlet-form optimal constant: the Dirichlet form
    only sees (P + P*)/2, so for any chain with uniform stationary law it is
    1 minus the second-largest eigenvalue of the symmetrized matrix; for a
    reversible chain this is the usual spectral gap 1 - beta_1.
    """

    eigenvalues: np.ndarray
    poincare: float
    beta_min: float

    @property
    def gap(self) -> float:
        return self.poincare


def poincare_constant(kernel: ChainKernel) -> SpectralReport:
    P = kernel.dense()
    S = (P + P.T) / 2.0
    eig = np.linalg.eigvalsh(S)[::-1]
    if len(eig) < 2:
        return SpectralReport(eigenvalues=eig, poincare=math.inf, beta_min=float(eig[-1]))
    return SpectralReport(
        eigenvalues=eig, poincare=float(1.0 - eig[1]), beta_min=float(eig[-1])
    )


def dirichlet_form(kernel: ChainKernel, f: np.ndarray) -> float:
    """E(f,f) = (1/2) sum_xy pi(x) P(x,y) (f(x)-f(y))^2 with uniform pi."""
    P = kernel.dense()
    n = len(kernel.states)
    diff = f[:, None] - f[None, :]
    return 0.5 * float(np.sum(P * diff ** 2)) / n


def variance_uniform(f: np.ndarray) -> float:
    return float(np.mean((f - np.mean(f)) ** 2))


# ---------------------------------------------------------------------------
# Single-site vs sweep comparison audit
# ---------------------------------------------------------------------------

@dataclass
class ComparisonReport:
    """Exact Poincare constants of both chains plus the comparison bounds.

    ``site_le_sweep_ok`` checks poincare(single site) <= 4 q^(Delta+1) *
    poincare(sweep); ``sweep_le_site_ok`` checks poincare(sweep) <= n^2 q *
    poincare(single site).  The report also evaluates the continuized-sweep
    mixing bound (2 ln(1/eps) + ln(1/pi(x))) / poincare(sweep), the lazy
    single-site bound n^2 q ln(1/(eps pi(x))) / poincare(sweep), and the
    reverse estimate 1/poincare(sweep) <= 2 Mix(sweep, 1/e)^2 / (1/2 - 1/e)^2.
    """

    n_states: int
    n: int
    q: int
    max_degree: int
    poincare_site: float
    poincare_sweep: float
    site_factor: float
    site_le_sweep_ok: bool
    site_slack: float
    sweep_factor: float
    sweep_le_site_ok: bool
    sweep_slack: float
    eps: float
    continuized_sweep_bound: float
    lazy_site_bound: float
    sweep_mix_at_1_over_e: Optional[int]
    mix_square_bound_ok: Optional[bool]
    trivial: bool = False
    small_n_caveat: bool = False


def verify_comparison(
    g: Graph,
    target: TargetGraph,
    eps: float = 0.25,
    budget: int = DEFAULT_STATE_BUDGET,
    rtol: float = 1e-9,
) -> ComparisonReport:
    """Audit the two Poincare-constant comparison inequalities on (g, H)."""
    spec_site = ChainSpec(graph=g, target=target, base="glauber")
    spec_sweep = ChainSpec(graph=g, target=target, base="scan")
    K_site = build_kernel(spec_site, budget=budget)
    K_sweep = build_kernel(spec_sweep, budget=budget)
    nstates = len(K_site.states)
    n, q, delta = g.n, target.h, g.max_degree

    if nstates <= 1:
        return ComparisonReport(
            n_states=nstates, n=n, q=q, max_degree=delta,
            poincare_site=math.inf, poincare_sweep=math.inf,
            site_factor=4 * q ** (delta + 1), site_le_sweep_ok=True, site_slack=math.inf,
            sweep_factor=n * n * q, sweep_le_site_ok=True, sweep_slack=math.inf,
            eps=eps, continuized_sweep_bound=0.0, lazy_site_bound=0.0,
            sweep_mix_at_1_over_e=None, mix_square_bound_ok=None,
            trivial=True, small_n_caveat=g.small_n_caveat,
        )

    lam_site = poincare_constant(K_site).poincare
    lam_sweep = poincare_constant(K_sweep).poincare
    site_factor = 4.0 * q ** (delta + 1)
    sweep_factor = float(n * n * q)
    site_rhs = site_factor * lam_sweep
    sweep_rhs = sweep_factor * lam_site
    site_ok = lam_site <= site_rhs * (1 + rtol) + rtol
    sweep_ok = lam_sweep <= sweep_rhs * (1 + rtol) + rtol

    log_inv_pi = math.log(nstates)
    cont_bound = (2 * math.log(1 / eps) + log_inv_pi) / lam_sweep
    lazy_bound = sweep_factor * (math.log(1 / eps) + log_inv_pi) / lam_sweep

    mix_e: Optional[int] = None
    mix_ok: Optional[bool] = None
    try:
        mix_e = tv_mixing_time(K_sweep, 1 / math.e)
        lhs = 1.0 / lam_sweep
        rhs = 2.0 * mix_e ** 2 / (0.5 - 1 / math.e) ** 2
        mix_ok = lhs <= rhs * (1 + rtol)
    except NonErgodicError:
        pass

    return ComparisonReport(
        n_states=nstates, n=n, q=q, max_degree=delta,
        poincare_site=lam_site, poincare_sweep=lam_sweep,
        site_factor=site_factor, site_le_sweep_ok=site_ok,
        site_slack=site_rhs - lam_site,
        sweep_factor=sweep_factor, sweep_le_site_ok=sweep_ok,
        sweep_slack=sweep_rhs - lam_sweep,
        eps=eps, continuized_sweep_bound=cont_bound, lazy_site_bound=lazy_bound,
        sweep_mix_at_1_over_e=mix_e, mix_square_bound_ok=mix_ok,
        trivial=False, small_n_caveat=g.small_n_caveat,
    )
