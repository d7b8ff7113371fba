"""Exact finite-chain analysis: kernels, mixing times, spectra, comparisons.

Transition matrices are held in compressed sparse rows with int64 numerators
over one global denominator, so row-stochasticity and stationarity checks are
exact; every kernel is built from per-vertex move tables.  Spectra and
total-variation mixing times use dense float64 linear algebra; the chains
analysed here have at most a few thousand states.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .domain import Coloring, Graph, TargetGraph, enumerate_colorings, enumerate_h_colorings
# proposal_accepted is the scalar rule that the move tables vectorize
from .dynamics import ChainSpec, proposal_accepted, scan_order, sign_move  # noqa: F401

DEFAULT_STATE_BUDGET = 20_000
# relative slack of the comparison audit's floating-point inequalities
RTOL = 1e-9


class NonErgodicError(RuntimeError):
    """Raised when a mixing-time computation meets a reducible chain."""

    def __init__(self, classes: list[list[int]]):
        super().__init__(f"chain is not ergodic: {len(classes)} communicating classes")
        self.classes = classes


class _Row(Mapping):
    """One CSR row as a read-only mapping: column index -> numerator."""

    def __init__(self, cols: np.ndarray, vals: np.ndarray):
        self._cols, self._vals = cols, vals

    def __getitem__(self, j):
        k = int(np.searchsorted(self._cols, j))
        if k == len(self._cols) or self._cols[k] != j:
            raise KeyError(j)
        return self._vals[k].item()

    def __iter__(self):
        return iter(self._cols.tolist())

    def __len__(self) -> int:
        return len(self._cols)

    def items(self):
        return list(zip(self._cols.tolist(), self._vals.tolist()))


@dataclass
class ChainKernel:
    """Row-stochastic matrix over an enumerated, lexicographically ordered space.

    CSR store: row i holds ``data[indptr[i]:indptr[i + 1]]`` at the sorted
    columns ``indices[...]``, int64 numerators over ``denom`` in exact mode
    and floats (``denom`` None) above the exactness threshold.  ``rows[i]``
    views row i as a mapping; ``spec`` records which chain this is.
    """

    states: list
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
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

    @cached_property
    def rows(self) -> list[_Row]:
        ptr = self.indptr.tolist()
        return [_Row(self.indices[a:b], self.data[a:b]) for a, b in zip(ptr, ptr[1:])]

    def _row_ids(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.states)), np.diff(self.indptr))

    def entry(self, i: int, j: int):
        """Transition probability as a Fraction (exact mode) or float."""
        num = self.rows[i].get(j, 0)
        return Fraction(num, self.denom) if self.exact else float(num)

    def dense(self) -> np.ndarray:
        if self._dense is None:
            self._dense = np.zeros((len(self), len(self)))
            scale = self.denom if self.exact else 1
            self._dense[self._row_ids(), self.indices] = self.data / scale
        return self._dense

    def _sums_are_one(self, at: np.ndarray, tol: float) -> bool:
        sums = np.zeros(len(self), dtype=self.data.dtype)
        np.add.at(sums, at, self.data)
        return bool(np.all(sums == self.denom if self.exact else np.abs(sums - 1.0) <= tol))

    def row_sums_exact(self, tol: float = 1e-12) -> bool:
        """Rows sum to one: exactly in rational mode, within tol in float mode."""
        return self._sums_are_one(self._row_ids(), tol)

    def uniform_is_stationary(self, tol: float = 1e-12) -> bool:
        """With uniform pi, stationarity is equivalent to unit column sums."""
        return self._sums_are_one(self.indices, tol)

    def reversal(self) -> "ChainKernel":
        """Time reversal with respect to the uniform distribution (transpose)."""
        csr = _combine(self.indices, self._row_ids(), self.data, len(self), len(self))
        return ChainKernel(list(self.states), *csr, self.denom, self.spec)

    def compose(self, other: "ChainKernel") -> "ChainKernel":
        """Exact product kernel: one step of self followed by one of other."""
        if self.states != other.states:
            raise ValueError("composition requires identical state spaces")
        if not (self.exact and other.exact):
            raise ValueError("composition is implemented for exact kernels")
        denom = _int64_denominator(self.denom * other.denom)
        other_csr = (other.indptr, other.indices, other.data)
        csr = _gather(other_csr, self.indices, self.data, self._row_ids(), len(self))
        return ChainKernel(list(self.states), *csr, denom, self.spec)

    def to_triplets(self) -> str:
        """Sparse text export: one 'i j num den' line per nonzero entry."""
        if not self.exact:
            raise ValueError("triplet export requires the exact (rational) mode")
        triplets = zip(self._row_ids().tolist(), self.indices.tolist(), self.data.tolist())
        return "\n".join(f"{i} {j} {num} {self.denom}" for i, j, num in triplets)


# ---------------------------------------------------------------------------
# Kernel construction
# ---------------------------------------------------------------------------

def _int64_denominator(denom: int) -> int:
    if denom >= 2 ** 63:
        raise ValueError(f"{denom} does not fit the int64 state codes and numerators")
    return denom


def _combine(rows, cols, vals, n_rows: int, n_cols: int):
    """CSR (indptr, indices, data) of the entries vals at (rows, cols); duplicate
    keys are summed exactly by a stable sort (which merges the sorted runs that
    gathered rows arrive in) and one ``np.add.reduceat``."""
    key = rows * n_cols + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    data = np.add.reduceat(vals[order], first)
    key = key[first]
    return np.searchsorted(key, np.arange(n_rows + 1) * n_cols), key % n_cols, data


def _gather(csr, src, weights, rows_out, n: int):
    """n x n CSR: row r sums weights[k] * csr[src[k]] (None: ones) over rows_out[k] == r."""
    indptr, indices, data = csr
    start = indptr[src]
    length = indptr[src + 1] - start
    pos = np.repeat(start - np.cumsum(length) + length, length) + np.arange(length.sum())
    vals = data[pos] if weights is None else np.repeat(weights, length) * data[pos]
    return _combine(np.repeat(rows_out, length), indices[pos], vals, n, n)


def _from_tables(states: list, tables: list, sweep: bool, spec=None) -> ChainKernel:
    """Kernel of move tables whose columns are chosen uniformly.  Single-site:
    one keyed sum over every (i, J_v[i, c]), over the total column count.
    Sweep (tables in update order): M <- sum_c M[J_v[:, c], :] from the last
    table back to the first, over the product of the column counts."""
    n = len(states)
    i = np.arange(n)
    if not sweep:
        T = np.hstack(tables)
        csr = _combine(np.repeat(i, T.shape[1]), T.ravel(), np.ones(T.size, np.int64), n, n)
        return ChainKernel(states, *csr, T.shape[1], spec)
    denom = _int64_denominator(math.prod(J.shape[1] for J in tables))
    csr = (np.arange(n + 1), i, np.ones(n, np.int64))
    for J in reversed(tables):
        csr = _gather(csr, J.ravel(), None, np.repeat(i, J.shape[1]), n)
    # copied once the last step's temporaries are freed, so they pin less heap
    return ChainKernel(states, *(a.copy() for a in csr), denom, spec)


def _move_tables(spec: ChainSpec, states: list) -> list[np.ndarray]:
    """J_v for v = 1..n, each (N, q): ``J_v[i, c]`` is the state proposal c at
    vertex v leads to from state i (i itself when rejected or v is clamped),
    found by ``searchsorted`` on the sorted base-q state codes (Python ints
    once q^n outgrows int64).  Acceptance reads ``spec.model``'s adjacency at
    each neighbour's color, transposed for a later neighbour u > v: the rule
    of ``proposal_accepted``."""
    g, q = spec.graph, spec.n_colors
    codes_type = np.int64 if q ** g.n < 2 ** 63 else object
    X = np.array(states, dtype=np.int64).reshape(len(states), g.n)
    place = np.array([q ** k for k in range(g.n - 1, -1, -1)], dtype=codes_type)
    codes = X @ place
    allows = np.array(spec.model.adjacency)
    tables = []
    for v in range(1, g.n + 1):
        ok = np.full((len(states), q), v not in spec.clamp)
        for u in g.adjacency[v]:
            ok &= (allows if u < v else allows.T)[X[:, u - 1]]
        step = (ok * (np.arange(q) - X[:, [v - 1]])).astype(codes_type, copy=False)
        moved = codes[:, None] + step * place[v - 1]
        pos = np.minimum(np.searchsorted(codes, moved), len(codes) - 1)
        if np.any(codes[pos] != moved):
            raise ValueError(f"an accepted move at vertex {v} leaves the enumerated states")
        tables.append(pos)
    return tables


def _state_space(
    spec: ChainSpec, budget: int, component: str, fiber_of: Optional[Coloring], proper_only: bool
) -> list:
    """The chain's states in lexicographic order.  The enumerator refuses any
    vertex prefix with more than ``budget`` colorings; the fiber filter only
    shrinks that list."""
    g = spec.graph
    if spec.q is not None:
        states = enumerate_colorings(g, spec.q, proper_only=proper_only, budget=budget)
    else:
        if component == "auto":
            component = "side0" if g.kind == "path" and spec.target.is_bipartite else "all"
        states = enumerate_h_colorings(g, spec.target, component=component, budget=budget)
    if fiber_of is not None and spec.clamp:
        states = [s for s in states if all(s[v - 1] == fiber_of[v - 1] for v in spec.clamp)]
    return states


def build_kernel(
    spec: ChainSpec,
    budget: int = DEFAULT_STATE_BUDGET,
    component: str = "auto",
    fiber_of: Optional[Coloring] = None,
    proper_only: bool = True,
    exact_threshold: int = DEFAULT_STATE_BUDGET,
) -> ChainKernel:
    """Transition matrix of the specified chain, from its n move tables: their
    average (lazy adds nq stay columns) or their ordered product over q^n.

    ``fiber_of`` restricts a clamped chain to the states agreeing with the
    given coloring on the clamped vertices.  Entries are exact rationals up
    to ``exact_threshold`` states and floats beyond.  Every base refuses
    q^n >= 2^63, the scan kernel's denominator.
    """
    states = _state_space(spec, budget, component, fiber_of, proper_only)
    _int64_denominator(spec.n_colors ** spec.graph.n)
    tables = _move_tables(spec, states)
    if spec.base == "glauber":
        if spec.lazy:
            tables.append(np.tile(np.arange(len(states)), (spec.graph.n * spec.n_colors, 1)).T)
        kernel = _from_tables(states, tables, False, spec)
    else:
        kernel = _from_tables(states, [tables[v - 1] for v in scan_order(spec)], True, spec)
    if len(states) > exact_threshold:
        kernel.data, kernel.denom = kernel.data / kernel.denom, None
    return kernel


def sign_states(n: int) -> list[tuple[int, ...]]:
    """All sign vectors in {-1,+1}^(n-1), lexicographically ordered."""
    return list(itertools.product((-1, 1), repeat=n - 1))


def build_sign_kernel(base: str, n: int) -> ChainKernel:
    """Exact kernel of the auxiliary sign chain on {-1,+1}^(n-1); each vertex
    move applies with probability 1/3, so its table is [i, i, move_v(i)]."""
    if base not in ("glauber", "scan"):
        raise ValueError(f"unknown base {base!r}")
    states = sign_states(n)
    X = np.array(states)
    place = 2 ** np.arange(n - 2, -1, -1)  # states are binary numbers, -1 -> 0
    Y = np.repeat(X[None], n, axis=0)  # Y[v - 1]: every state after the vertex-v move
    for v in range(1, n + 1):
        sign_move(Y[v - 1], v)
    stay = np.arange(len(states))
    tables = [np.column_stack([stay, stay, moved]) for moved in ((Y + 1) // 2) @ place]
    return _from_tables(states, tables, base == "scan")


def lump_kernel(kernel: ChainKernel, projection: Callable) -> Optional[ChainKernel]:
    """Pushforward of a kernel under a state-space projection.

    Returns None when the lumping is not well defined (two states in the same
    fiber would induce different projected rows).  Numerators stay exact.
    """
    if not kernel.exact:
        raise ValueError("lumping is decided by exact row comparison")
    images = [projection(s) for s in kernel.states]
    lumped_states = sorted(set(images))
    lindex = {x: i for i, x in enumerate(lumped_states)}
    label = np.array([lindex[x] for x in images], dtype=np.int64)
    m = len(lumped_states)
    indptr, indices, data = csr = _combine(
        kernel._row_ids(), label[kernel.indices], kernel.data, len(kernel), m
    )
    first = np.unique(label, return_index=True)[1]  # first state of each fiber
    rep, length = first[label], np.diff(indptr)
    if np.any(length != length[rep]):
        return None
    at = np.repeat(indptr[rep] - indptr[:-1], length) + np.arange(len(indices))
    if np.any(indices[at] != indices) or np.any(data[at] != data):
        return None
    return ChainKernel(lumped_states, *_gather(csr, first, None, np.arange(m), m),
                       kernel.denom, kernel.spec)


# ---------------------------------------------------------------------------
# Ergodicity, mixing times, spectra
# ---------------------------------------------------------------------------

def communicating_classes(kernel: ChainKernel) -> list[list[int]]:
    """Strongly connected components of the positive-transition digraph."""
    n = len(kernel)
    ptr, cols = kernel.indptr.tolist(), kernel.indices.tolist()
    succ = [cols[a:b] for a, b in zip(ptr, ptr[1:])]
    # predecessors: the rows of each column, ascending, by one stable sort on the column
    by_col = np.argsort(kernel.indices, kind="stable")
    rows = kernel._row_ids()[by_col].tolist()
    col_ptr = np.searchsorted(kernel.indices[by_col], np.arange(n + 1)).tolist()
    pred = [rows[a:b] for a, b in zip(col_ptr, col_ptr[1:])]

    order: list[int] = []  # by DFS finishing time
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [(s, iter(succ[s]))]
        while stack:
            v = next((v for v in stack[-1][1] if not seen[v]), None)
            if v is None:
                order.append(stack.pop()[0])
            else:
                seen[v] = True
                stack.append((v, iter(succ[v])))
    comp, c = [-1] * n, 0
    for s in reversed(order):
        if comp[s] != -1:
            continue
        stack, comp[s] = [s], c
        while stack:
            for v in pred[stack.pop()]:
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


def tv_mixing_time(
    kernel: ChainKernel, eps: float, max_t: int = 10 ** 9, *, ladder: Optional[list] = None
) -> int:
    """min { t > 0 : max_x TV(P^t(x, .), uniform) <= eps }.

    Doubling ladder then binary search; the worst-start distance is
    nonincreasing in t, so the search is valid.  ``ladder``, when given,
    receives (t, max_tv) for each rung P^t, t = 1, 2, 4, ..., as it is
    computed: up to the first power of two at or above the mixing time.
    """
    classes = communicating_classes(kernel)
    if len(classes) > 1:
        raise NonErgodicError(classes)
    powers = [kernel.dense()]
    t = 1
    while True:
        tv = max_tv_to_uniform(powers[-1])
        if ladder is not None:
            ladder.append((t, tv))
        if tv <= eps:
            break
        powers.append(powers[-1] @ powers[-1])
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
                out = powers[k] if out is None else out @ powers[k]
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
    site_ok = lam_site <= site_rhs * (1 + RTOL) + RTOL
    sweep_ok = lam_sweep <= sweep_rhs * (1 + RTOL) + RTOL

    log_inv_pi = math.log(nstates)
    cont_bound = (2 * math.log(1 / eps) + log_inv_pi) / lam_sweep
    lazy_bound = sweep_factor * (math.log(1 / eps) + log_inv_pi) / lam_sweep

    mix_e: Optional[int] = None
    mix_ok: Optional[bool] = None
    try:
        mix_e = tv_mixing_time(K_sweep, 1 / math.e)
        lhs = 1.0 / lam_sweep
        rhs = 2.0 * mix_e ** 2 / (0.5 - 1 / math.e) ** 2
        mix_ok = lhs <= rhs * (1 + RTOL)
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
