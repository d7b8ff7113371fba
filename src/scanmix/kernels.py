"""Exact finite-chain analysis: kernels, mixing times, spectra, comparisons.

Transition matrices are held in compressed sparse rows with int64 numerators
over one integer denominator, so row-stochasticity and stationarity checks
are exact; every kernel is built from per-vertex move tables.  Spectra and
total-variation mixing times use dense float64 linear algebra on at most the
state budget (20,000 by default) of states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .domain import (BudgetExceededError, Coloring, Graph, TargetGraph, _build_states,
                     _component_palette, accepted_colors)
# unused here: the benchmark harness reads scanmix.kernels.proposal_accepted
# to check that its probes are removed after a traced pass
from .dynamics import ChainSpec, proposal_accepted, scan_order, sign_move  # noqa: F401

DEFAULT_STATE_BUDGET = 20_000
# relative slack of the comparison audit's floating-point inequalities
RTOL = 1e-9
# doubling steps of tv_mixing_time stop beyond this power
MAX_MIX_T = 10 ** 9
# rows of |P^t - 1/N| that max_tv_to_uniform forms at a time
TV_BLOCK_ROWS = 64


class NonErgodicError(RuntimeError):
    """Raised when a mixing-time computation meets a reducible chain."""

    def __init__(self, classes: list[list[int]]):
        super().__init__(f"chain is not ergodic: {len(classes)} communicating classes")
        self.classes = classes


@dataclass
class ChainKernel:
    """Row-stochastic matrix over an enumerated, lexicographically ordered space.

    CSR store: row i holds ``data[indptr[i]:indptr[i + 1]]`` at the sorted
    columns ``indices[...]``, int64 numerators over ``denom``.  ``rows[i]``
    is row i as a dict {column: numerator}; ``spec`` records the chain.
    """

    states: list
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    denom: int
    spec: Optional[ChainSpec] = None
    _dense: Optional[np.ndarray] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.states)

    @cached_property
    def rows(self) -> list[dict[int, int]]:
        ptr, cols, vals = self.indptr.tolist(), self.indices.tolist(), self.data.tolist()
        return [dict(zip(cols[a:b], vals[a:b])) for a, b in zip(ptr, ptr[1:])]

    def _row_ids(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.states)), np.diff(self.indptr))

    def dense(self) -> np.ndarray:
        if self._dense is None:
            self._dense = np.zeros((len(self), len(self)))
            self._dense[self._row_ids(), self.indices] = self.data / self.denom
        return self._dense

    def _sums_are_one(self, at: np.ndarray) -> bool:
        sums = np.zeros(len(self), dtype=self.data.dtype)
        np.add.at(sums, at, self.data)
        return bool(np.all(sums == self.denom))

    def row_sums_exact(self) -> bool:
        """Rows sum to one, exactly."""
        return self._sums_are_one(self._row_ids())

    def uniform_is_stationary(self) -> bool:
        """With uniform pi, stationarity is equivalent to unit column sums."""
        return self._sums_are_one(self.indices)


# ---------------------------------------------------------------------------
# Kernel construction
# ---------------------------------------------------------------------------

def _int64_denominator(denom: int) -> int:
    if denom >= 2 ** 63:
        raise ValueError(f"{denom} does not fit the int64 state codes and numerators")
    return denom


def _tally(keys: np.ndarray, *columns: np.ndarray):
    """Distinct keys, ascending, with each column summed exactly per key by a
    stable sort (which merges the sorted runs that gathered rows arrive in)
    and one ``np.add.reduceat``."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = [np.add.reduceat(c[order], first) for c in columns]
    return (keys[first], *sums)


def _combine(rows, cols, vals, n_rows: int, n_cols: int):
    """CSR (indptr, indices, data) of the entries vals at (rows, cols), with
    duplicate entries summed by ``_tally``."""
    key, data = _tally(rows * n_cols + cols, vals)
    return np.searchsorted(key, np.arange(n_rows + 1) * n_cols), key % n_cols, data


def _row_positions(indptr, src):
    """Positions of the entries of CSR rows src, row after row, and the row lengths."""
    start = indptr[src]
    length = indptr[src + 1] - start
    return np.repeat(start - np.cumsum(length) + length, length) + np.arange(length.sum()), length


def _gather(csr, src, weights, rows_out, n: int):
    """n x n CSR: row r sums weights[k] * csr[src[k]] (None: ones) over rows_out[k] == r."""
    indptr, indices, data = csr
    pos, length = _row_positions(indptr, src)
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


def _state_codes(spec: ChainSpec, states: list):
    """The states as an (N, n) array, the base-q place values and the state
    codes, ascending for lexicographically ordered states (Python ints once
    q^n outgrows int64)."""
    g, q = spec.graph, spec.n_colors
    codes_type = np.int64 if q ** g.n < 2 ** 63 else object
    X = np.array(states, dtype=np.int64).reshape(len(states), g.n)
    place = np.array([q ** k for k in range(g.n - 1, -1, -1)], dtype=codes_type)
    return X, place, X @ place


def _lookup(keys: np.ndarray, wanted: np.ndarray) -> Optional[np.ndarray]:
    """Positions of ``wanted`` in the ascending ``keys``; None if one is absent."""
    pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return None if np.any(keys[pos] != wanted) else pos


def _move_tables(spec: ChainSpec, states: list) -> list[np.ndarray]:
    """J_v for v = 1..n, each (N, q): ``J_v[i, c]`` is the state proposal c at
    vertex v leads to from state i (i itself when rejected or v is clamped),
    found by ``searchsorted`` on the sorted state codes.  Acceptance is
    ``accepted_colors`` under ``spec.model``."""
    g, q = spec.graph, spec.n_colors
    X, place, codes = _state_codes(spec, states)
    allows = spec.model.allows_matrix
    tables = []
    for v in range(1, g.n + 1):
        ok = accepted_colors(g, allows, X, v) & (v not in spec.clamp)
        step = (ok * (np.arange(q) - X[:, [v - 1]])).astype(codes.dtype, copy=False)
        pos = _lookup(codes, codes[:, None] + step * place[v - 1])
        if pos is None:
            raise ValueError(f"an accepted move at vertex {v} leaves the enumerated states")
        tables.append(pos)
    return tables


def _state_space(
    spec: ChainSpec, budget: int, component: str, fiber_of: Optional[Coloring]
) -> list:
    """The chain's states in lexicographic order, from one ``_build_states``
    call: the model's allows matrix, the one its moves read, and a palette
    of every color for a clique or the ``component`` class of H, each
    clamped vertex held at its ``fiber_of`` color when a fiber is asked
    for.  The enumerator refuses any vertex prefix with more than ``budget``
    colorings, so a clamped fiber is budgeted by its own colorings."""
    g, h = spec.graph, spec.n_colors
    component = "all" if spec.target is None else component
    if component == "auto":
        # side 0 is closed under moves on a path of at least two vertices;
        # a lone vertex moves between the sides
        component = "side0" if g.kind == "path" and g.n > 1 and spec.target.is_bipartite else "all"
    palette = _component_palette(g, spec.model, component)
    if fiber_of is not None:
        for v in spec.clamp:
            palette[v - 1] &= np.arange(h) == fiber_of[v - 1]
    return _build_states(g, spec.model.allows_matrix, budget, palette)


def build_kernel(
    spec: ChainSpec,
    budget: int = DEFAULT_STATE_BUDGET,
    component: str = "auto",
    fiber_of: Optional[Coloring] = None,
) -> ChainKernel:
    """Exact transition matrix of the specified chain, from its n move
    tables: their average (lazy adds nq stay columns) or their ordered
    product over q^n.

    ``fiber_of`` restricts a clamped chain to the states agreeing with the
    given coloring on the clamped vertices.  Every base refuses q^n >= 2^63,
    the scan kernel's denominator, so the int64 numerators always fit.
    """
    states = _state_space(spec, budget, component, fiber_of)
    _int64_denominator(spec.n_colors ** spec.graph.n)
    tables = _move_tables(spec, states)
    if spec.base == "lazy":
        tables.append(np.tile(np.arange(len(states)), (spec.graph.n * spec.n_colors, 1)).T)
    if spec.base in ("glauber", "lazy"):
        return _from_tables(states, tables, False, spec)
    return _from_tables(states, [tables[v - 1] for v in scan_order(spec)], True, spec)


def sign_states(n: int) -> list[tuple[int, ...]]:
    """All sign vectors in {-1,+1}^(n-1), lexicographically ordered."""
    return list(itertools.product((-1, 1), repeat=n - 1))


def build_sign_kernel(base: str, n: int) -> ChainKernel:
    """Exact kernel of the auxiliary sign chain on {-1,+1}^(n-1); each vertex
    move applies with probability 1/3, so its table is [i, i, move_v(i)].
    It equals the q = 3 path kernel of the same base lumped by the sign
    projection, a coloring's height increments."""
    if base not in ("glauber", "scan"):
        raise ValueError(f"unknown base {base!r}")
    states = sign_states(n)
    X = np.array(states, dtype=np.int64).reshape(len(states), n - 1)
    place = 2 ** np.arange(n - 2, -1, -1)  # states are binary numbers, -1 -> 0
    Y = np.repeat(X[None], n, axis=0)  # Y[v - 1]: every state after the vertex-v move
    for v in range(1, n + 1):
        sign_move(Y[v - 1], v)
    stay = np.arange(len(states))
    tables = [np.column_stack([stay, stay, moved]) for moved in ((Y + 1) // 2) @ place]
    return _from_tables(states, tables, base == "scan")


# ---------------------------------------------------------------------------
# Ergodicity, mixing times, spectra
# ---------------------------------------------------------------------------

def _covers(n: int, step) -> bool:
    """State 0 and the states found from it level after level are all n;
    ``step`` maps a frontier mask to the states the frontier leads to."""
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        reached = np.zeros(n, dtype=bool)
        reached[step(frontier)] = True
        frontier = reached & ~seen
        seen |= frontier
    return bool(seen.all())


def _is_one_class(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """State 0 reaches every state of the CSR digraph and every state
    reaches 0.  The forward sweep gathers the frontier rows' columns; the
    backward sweep reads the frontier mask at every entry's column and
    finds the rows of the hits in ``indptr``, so neither sorts."""
    n = len(indptr) - 1

    def forward(frontier):
        return indices[_row_positions(indptr, np.flatnonzero(frontier))[0]]

    def backward(frontier):
        return np.searchsorted(indptr, np.flatnonzero(frontier[indices]), side="right") - 1

    return _covers(n, forward) and _covers(n, backward)


def communicating_classes(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    """Strongly connected components of the CSR digraph (indptr, indices).

    A single class when state 0 reaches every state and every state
    reaches 0, decided by a forward and a backward sweep over the CSR
    arrays; only a reducible digraph builds its predecessor lists and goes
    on to Kosaraju's two depth-first passes, which list its classes."""
    n = len(indptr) - 1
    if n and _is_one_class(indptr, indices):
        return [list(range(n))]
    # predecessors: the rows of each column, ascending, by one stable sort on the column
    rows = np.repeat(np.arange(n), np.diff(indptr))[np.argsort(indices, kind="stable")]
    col_ptr = np.concatenate(([0], np.cumsum(np.bincount(indices, minlength=n))))
    ptr, cols = indptr.tolist(), indices.tolist()
    succ = [cols[a:b] for a, b in zip(ptr, ptr[1:])]
    rows, col_ptr = rows.tolist(), col_ptr.tolist()
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
    """Largest TV distance from uniform over the rows of P_t, which may be
    any block of rows of an N-column power.

    |P_t - 1/N| is formed ``TV_BLOCK_ROWS`` rows at a time in one scratch
    block, so the extra memory is one block, not two N-column temporaries;
    each row is summed by the same pairwise sum either way."""
    rows, n = P_t.shape
    sums = np.empty(rows)
    scratch = np.empty((min(rows, TV_BLOCK_ROWS), n))
    for a in range(0, rows, TV_BLOCK_ROWS):
        block = scratch[: min(TV_BLOCK_ROWS, rows - a)]
        np.subtract(P_t[a : a + TV_BLOCK_ROWS], 1.0 / n, out=block)
        np.abs(block, out=block)
        block.sum(axis=1, out=sums[a : a + len(block)])
    return 0.5 * float(np.max(sums))


def _orbit_representatives(kernel: ChainKernel) -> Optional[np.ndarray]:
    """The states with color 0 at vertex 1 when the color rotation
    c -> c + 1 mod h is a symmetry of the chain, else None.

    The rotation must be an automorphism of ``spec.model``, map the state
    list onto itself and commute with the kernel: P(rx, ry) = P(x, y) on
    every nonzero entry, checked exactly on the integer CSR arrays.  Then
    every start of a rotation orbit is as far from the (rotation-invariant)
    uniform law as any other, and each orbit holds exactly one state with
    color 0 at vertex 1.
    """
    spec = kernel.spec
    if spec is None:
        return None
    allows = spec.model.allows_matrix
    if not np.array_equal(np.roll(allows, (1, 1), axis=(0, 1)), allows):
        return None
    X, place, codes = _state_codes(spec, kernel.states)
    rotate = _lookup(codes, ((X + 1) % spec.n_colors) @ place)
    if rotate is None:
        return None
    n = len(kernel)
    rows, cols = kernel._row_ids(), kernel.indices
    # CSR keys ascend: rows in order, sorted columns within each row
    at = _lookup(rows * n + cols, rotate[rows] * n + rotate[cols])
    if at is None or np.any(kernel.data[at] != kernel.data):
        return None
    return np.flatnonzero(X[:, 0] == 0)


def tv_mixing_time(kernel: ChainKernel, eps: float, *, ladder: Optional[list] = None) -> int:
    """min { t > 0 : max_x TV(P^t(x, .), uniform) <= eps }.

    Doubling ladder then binary search, valid because the worst-start
    distance is nonincreasing in t.  The float powers keep that only above
    their rounding floor (about 3e-14), below which the rounded TV can grow
    again; ROADMAP D14 will certify the decisions against that error.
    ``ladder``, when given, receives (t, max_tv) for each rung P^t, t = 1,
    2, 4, ..., as it is computed: up to the first power of two at or above
    the mixing time.  The search forms only the rows of one start per
    color-rotation orbit when the rotation is a symmetry of the chain
    (``_orbit_representatives``), and all rows otherwise.  A rung whose
    distance, still above eps, rises over the previous rung's has met the
    floor, and a ladder that passes ``MAX_MIX_T`` above eps: both raise
    ValueError.

    Memory: every rung stays alive for the search, so the peak is the
    rung count times N^2 floats; each distance is read by
    ``max_tv_to_uniform`` through one row-block scratch, so no N x N
    temporary joins them.  A rung that would take them past one matrix at
    the state budget, ``DEFAULT_STATE_BUDGET``^2 floats, raises BudgetExceededError.
    """
    classes = communicating_classes(kernel.indptr, kernel.indices)
    if len(classes) > 1:
        raise NonErgodicError(classes)
    powers = [kernel.dense()]
    t, last = 1, math.inf
    while True:
        tv = max_tv_to_uniform(powers[-1])
        if ladder is not None:
            ladder.append((t, tv))
        if tv <= eps:
            break
        if tv > last:  # exact powers never rise: rounding has taken over
            raise ValueError(
                f"no mixing to eps={eps:g}: max TV rose from {last:.6g} at t={t // 2} "
                f"to {tv:.6g} at t={t}, so eps is below the float64 floor of the distance"
            )
        last = tv
        if 2 * t > MAX_MIX_T:
            raise ValueError(
                f"no mixing to eps={eps:g} by t={MAX_MIX_T}: max TV is still {tv:.6g} "
                f"at t={t}; eps may be below the float64 floor of the distance"
            )
        if (len(powers) + 1) * len(kernel) ** 2 > DEFAULT_STATE_BUDGET ** 2:
            raise BudgetExceededError(f"TV ladder of {len(kernel)} states: rung {len(powers) + 1} "
                                      f"and those before it exceed {DEFAULT_STATE_BUDGET}^2 floats")
        powers.append(powers[-1] @ powers[-1])
        t *= 2
    if t == 1:
        return 1
    # every midpoint is below t, so no search power reads the top rung P^t
    powers.pop()
    reps = _orbit_representatives(kernel)

    def power(m: int) -> np.ndarray:
        """Rows ``reps`` (all rows when None) of P^m."""
        out = None
        k = 0
        while m:
            if m & 1:
                if out is None:
                    out = powers[k] if reps is None else powers[k][reps]
                else:
                    out = out @ powers[k]
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


def _symmetrized(kernel: ChainKernel) -> np.ndarray:
    """(P + P^T) / 2, dense, scattered from the CSR arrays into its one
    buffer: each entry's half P(r, c) / 2 lands at (r, c) and is added at
    (c, r).  The (r, c) pairs are distinct, halving an entry (>= 1 / denom,
    far from subnormal) is exact and the addition commutes, so this equals
    (P + P^T) / 2 from ``dense()`` bit for bit, with only O(nnz) scratch."""
    S = np.zeros((len(kernel), len(kernel)))
    rows, cols = kernel._row_ids(), kernel.indices
    half = kernel.data / kernel.denom / 2
    S[rows, cols] = half
    S[cols, rows] += half
    return S


def poincare_constant(kernel: ChainKernel) -> SpectralReport:
    # the eigensolve's copy of S is the only other dense matrix alive
    eig = np.linalg.eigvalsh(_symmetrized(kernel))[::-1]
    if len(eig) < 2:
        return SpectralReport(eigenvalues=eig, poincare=math.inf, beta_min=float(eig[-1]))
    return SpectralReport(
        eigenvalues=eig, poincare=float(1.0 - eig[1]), beta_min=float(eig[-1])
    )


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


def verify_comparison(
    g: Graph,
    target: TargetGraph,
    eps: float = 0.25,
) -> ComparisonReport:
    """Audit the two Poincare-constant comparison inequalities on (g, H).

    A scan chain with more than one communicating class has Poincare
    constant 0, so no bound follows: it is refused with a ValueError, decided
    on the exact kernel rather than on the rounded constant."""
    spec_site = ChainSpec(graph=g, target=target, base="glauber")
    spec_sweep = ChainSpec(graph=g, target=target, base="scan")
    K_site = build_kernel(spec_site)
    K_sweep = build_kernel(spec_sweep)
    nstates = len(K_site.states)
    n, q, delta = g.n, target.h, g.max_degree

    if nstates <= 1:
        return ComparisonReport(
            n_states=nstates, n=n, q=q, max_degree=delta,
            poincare_site=math.inf, poincare_sweep=math.inf,
            site_factor=4 * q ** (delta + 1), site_le_sweep_ok=True, site_slack=math.inf,
            sweep_factor=n * n * q, sweep_le_site_ok=True, sweep_slack=math.inf,
            eps=eps, continuized_sweep_bound=0.0, lazy_site_bound=0.0,
            sweep_mix_at_1_over_e=None, mix_square_bound_ok=None, trivial=True,
        )

    lam_site = poincare_constant(K_site).poincare
    lam_sweep = poincare_constant(K_sweep).poincare
    site_factor = 4.0 * q ** (delta + 1)
    sweep_factor = float(n * n * q)
    site_rhs = site_factor * lam_sweep
    sweep_rhs = sweep_factor * lam_site
    site_ok = lam_site <= site_rhs * (1 + RTOL) + RTOL
    sweep_ok = lam_sweep <= sweep_rhs * (1 + RTOL) + RTOL

    try:
        mix_e = tv_mixing_time(K_sweep, 1 / math.e)
    except NonErgodicError as exc:
        raise ValueError(
            f"the scan sweep chain is not ergodic ({len(exc.classes)} communicating "
            "classes): its Poincare constant is 0, so no comparison bound follows"
        ) from exc
    log_inv_pi = math.log(nstates)
    cont_bound = (2 * math.log(1 / eps) + log_inv_pi) / lam_sweep
    lazy_bound = sweep_factor * (math.log(1 / eps) + log_inv_pi) / lam_sweep
    lhs = 1.0 / lam_sweep
    rhs = 2.0 * mix_e ** 2 / (0.5 - 1 / math.e) ** 2
    mix_ok = lhs <= rhs * (1 + RTOL)

    return ComparisonReport(
        n_states=nstates, n=n, q=q, max_degree=delta,
        poincare_site=lam_site, poincare_sweep=lam_sweep,
        site_factor=site_factor, site_le_sweep_ok=site_ok,
        site_slack=site_rhs - lam_site,
        sweep_factor=sweep_factor, sweep_le_site_ok=sweep_ok,
        sweep_slack=sweep_rhs - lam_sweep,
        eps=eps, continuized_sweep_bound=cont_bound, lazy_site_bound=lazy_bound,
        sweep_mix_at_1_over_e=mix_e, mix_square_bound_ok=mix_ok,
    )
