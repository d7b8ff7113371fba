"""Reference definitions that the tests compare the program against.

No command runs these.  They are the plain forms of what the package
computes another way: the exact drift oracle, one chain step at a time, a
chain's kernel over every coloring, the sign encoding and sign chain, the
sign-chain expectation matrices, the anchored midpoint probability, the
exact tails of the threshold statistic Z on small layouts, the weighted
path metric with a move path realizing it, the one-expression forms of
the max TV distance and the restricted-growth strings, and the
variance-floor witnesses of the paper's case analysis.
The test modules import them as ``from reference import ...``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from scanmix.coupling import LEMMA_IDS, Ledger, _ham_batch_drift, coupled_update
from scanmix.domain import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    Coloring,
    Graph,
    TargetGraph,
    VertexWeights,
    _build_states,
    enumerate_colorings,
    heights,
    pad,
    path_accepts,
    weighted_height_distance,
)
from scanmix.dynamics import (
    CH_GLAUBER,
    CH_SCAN,
    CH_SIGN,
    ChainSpec,
    color_from_uniform,
    metropolis_update,
    scan_order,
    sign_move,
    vertex_from_uniform,
)
from scanmix.kernels import ChainKernel, _from_tables, _move_tables, build_kernel
from scanmix.percolation import SegmentLayout, transfer_count
from scanmix.wilson import move_expectation_map


# ---------------------------------------------------------------------------
# Test models
# ---------------------------------------------------------------------------

def star(n: int) -> Graph:
    """Star with center 1 and leaves 2..n."""
    return Graph(n, frozenset((1, v) for v in range(2, n + 1)))


def cycle(h: int) -> TargetGraph:
    """The cycle C_h as a target graph."""
    return TargetGraph(tuple(tuple(i != j and (i - j) % h in (1, h - 1) for j in range(h))
                             for i in range(h)))


def single_edge() -> TargetGraph:
    return TargetGraph(((False, True), (True, False)))


# ---------------------------------------------------------------------------
# One chain step at a time
# ---------------------------------------------------------------------------

def glauber_step(sigma, spec, tape, rep: int = 0, step: int = 0) -> Coloring:
    """One random single-site update: uniform vertex, uniform color,
    Metropolis, after a fair stay coin for the lazy base.  It reads the
    draw block of a ``coupled_sweep`` glauber step."""
    u = tape.uniforms(rep, step, CH_GLAUBER, 3)
    if spec.base == "lazy" and u[0] < 0.5:
        return sigma
    v = vertex_from_uniform(u[1], spec.graph.n)
    return metropolis_update(sigma, v, color_from_uniform(u[2], spec.n_colors), spec)


def scan_sweep(sigma, spec, tape, rep: int = 0, sweep: int = 0) -> Coloring:
    """One sweep of Metropolis updates in scan order.  Draws are indexed by
    vertex, so a clamped vertex consumes its draw without acting."""
    u = tape.uniforms(rep, sweep, CH_SCAN, spec.graph.n)
    for v in scan_order(spec):
        sigma = metropolis_update(sigma, v, color_from_uniform(u[v - 1], spec.n_colors), spec)
    return sigma


def all_colorings_kernel(spec) -> ChainKernel:
    """The kernel of the spec's glauber or sweep chain over all n_colors^n
    colorings, improper ones included, in lexicographic order: the moves
    are the chain's own (``_move_tables``), so a coupled copy started
    anywhere can be read against it."""
    states = list(itertools.product(range(spec.n_colors), repeat=spec.graph.n))
    tables = _move_tables(spec, states)
    if spec.base == "glauber":
        return _from_tables(states, tables, False, spec)
    return _from_tables(states, [tables[v - 1] for v in scan_order(spec)], True, spec)


# ---------------------------------------------------------------------------
# Sign chains (3-colorings of the path)
# ---------------------------------------------------------------------------

def to_signs(coloring: Coloring) -> tuple[int, ...]:
    """Successive-difference sign encoding of a proper path 3-coloring:
    signs[i] = +1 iff coloring[i+1] - coloring[i] = 1 (mod 3), else -1."""
    heights(coloring)  # refuses an improper coloring
    return tuple(1 if (b - a) % 3 == 1 else -1 for a, b in zip(coloring, coloring[1:]))


def sign_sweep_from_decisions(x, decisions: Sequence[bool]) -> tuple[int, ...]:
    """One sweep of the sign chain given its n move bits."""
    out = np.array(x)
    for v in range(1, len(x) + 2):
        if decisions[v - 1]:
            sign_move(out, v)
    return tuple(out.tolist())


def sign_step(x, base: str, tape, rep: int = 0, t: int = 0) -> tuple[int, ...]:
    """One step of the sign chain on {-1,+1}^(n-1): a sweep of the n moves
    (scan), or one uniformly random move (glauber), each applied with
    probability 1/3."""
    n = len(x) + 1
    if any(s not in (-1, 1) for s in x):
        raise ValueError("sign vector must lie in {-1,+1}^(n-1)")
    if base == "scan":
        return sign_sweep_from_decisions(x, tape.uniforms(rep, t, CH_SIGN, n) < 1 / 3)
    u = tape.uniforms(rep, t, CH_SIGN, 2)
    return sign_sweep_from_decisions(x, [u[1] < 1 / 3 and v == vertex_from_uniform(u[0], n)
                                         for v in range(1, n + 1)])


def expectation_matrix(kind: str, n: int) -> np.ndarray:
    """A with E[X(1) | X(0)] = A X(0) for the sign chain: the average of the
    per-vertex maps (glauber, symmetric), or their product with vertex n
    applied last (scan, not symmetric)."""
    maps = [move_expectation_map(v, n) for v in range(1, n + 1)]
    if kind == "glauber":
        return sum(maps) / n
    A = np.eye(n - 1)
    for M in maps:
        A = M @ A
    return A


def mid_color_prob(q: int, ell: int, r: int) -> Fraction:
    """Probability that the vertex at distance ell from the left end of an
    (ell + r)-edge path with both ends colored 0 is colored 0, from the
    transfer counts; raises ValueError below its floor (1/q)(1 + (q-1)^-(r-1))."""
    if ell <= 0 or r <= 0 or ell % 2 or r % 2:
        raise ValueError("ell and r must be positive even integers")
    p = Fraction(
        transfer_count(q, ell, 0, 0) * transfer_count(q, r, 0, 0),
        transfer_count(q, ell + r, 0, 0),
    )
    floor = Fraction(1, q) * (1 + Fraction(1, (q - 1) ** (r - 1)))
    if p < floor:
        raise ValueError(f"anchored midpoint probability {p} fell below its floor {floor}")
    return p


# ---------------------------------------------------------------------------
# Tails of the threshold statistic Z, by enumeration (small layouts only)
# ---------------------------------------------------------------------------

def z_statistic(coloring, layout: SegmentLayout) -> int:
    """Number of midpoints colored 0."""
    return int(sum(coloring[mid - 1] == 0 for mid in layout.mids))


def enumerate_anchor_fiber(layout: SegmentLayout, budget: int = 200_000) -> list[Coloring]:
    """All proper colorings with anchors colored 0, budgeted by their own
    count (small layouts only)."""
    palette = np.ones((layout.n, layout.q), dtype=bool)
    palette[np.array(layout.anchors) - 1, 1:] = False
    return _build_states(Graph.path(layout.n), ~np.eye(layout.q, dtype=bool), budget, palette)


def stationary_z_tail_exact(layout: SegmentLayout, budget: int = 200_000) -> Fraction:
    """Pr_uniform(Z >= threshold), by enumeration (small layouts only)."""
    g = Graph.path(layout.n)
    states = enumerate_colorings(g, layout.q, budget=budget)
    thr = layout.threshold
    hits = sum(1 for s in states if z_statistic(s, layout) >= thr)
    return Fraction(hits, len(states))


def anchored_z_tail_exact(layout: SegmentLayout, budget: int = 200_000) -> Fraction:
    """Pr_pi0(Z >= threshold), by fiber enumeration (small layouts only)."""
    fiber = enumerate_anchor_fiber(layout, budget=budget)
    thr = layout.threshold
    hits = sum(1 for s in fiber if z_statistic(s, layout) >= thr)
    return Fraction(hits, len(fiber))


def exact_free_tail(
    layout: SegmentLayout, t: int, budget: int = 20_000
) -> Fraction:
    """Exact Pr(Z >= threshold) after t sweeps from the anchored distribution.

    Small layouts only: evolves the anchored fiber's uniform distribution
    through the exact sweep kernel.
    """
    g = Graph.path(layout.n)
    spec = ChainSpec(graph=g, q=layout.q, base="scan")
    kernel = build_kernel(spec, budget=budget)
    index = {s: i for i, s in enumerate(kernel.states)}
    fiber = set(enumerate_anchor_fiber(layout))
    dist = {index[s]: Fraction(1, len(fiber)) for s in fiber}
    for _ in range(t):
        nxt: dict[int, Fraction] = {}
        for i, p in dist.items():
            for j, num in kernel.rows[i].items():
                nxt[j] = nxt.get(j, Fraction(0)) + p * Fraction(num, kernel.denom)
        dist = nxt
    thr = layout.threshold
    return sum(
        (p for i, p in dist.items() if z_statistic(kernel.states[i], layout) >= thr),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# The weighted path metric
# ---------------------------------------------------------------------------

def optimal_height_pair(sigma: Coloring, tau: Coloring, weights: VertexWeights):
    """(h, h*, d2): height profiles attaining the weighted height distance
    sum_i weights[i] |h_i - h*_i| / 2, with the smallest minimizing shift by
    a multiple of 6 applied to h*, and the distance."""
    H = heights((sigma, tau))
    val, s = weighted_height_distance(H[0], H[1], weights.numerators)
    h, hstar = H.tolist()
    return tuple(h), tuple(x + int(s) for x in hstar), Fraction(int(val), 2 * weights.denominator)


def d2(sigma: Coloring, tau: Coloring, weights: VertexWeights) -> Fraction:
    """Minimal weighted single-vertex move cost between two proper 3-colorings."""
    return optimal_height_pair(sigma, tau, weights)[2]


def geodesic(sigma, tau, weights: VertexWeights, budget: int = DEFAULT_ENUMERATION_BUDGET):
    """A minimum-cost single-vertex move path [sigma, ..., tau] inside the
    proper 3-colorings: Dijkstra over the move graph in integer units of
    1/weights.denominator, checked to cost d2.  The budget bounds the
    3 * 2^(n-1) proper colorings the search may visit."""
    n = len(sigma)
    if 3 * 2 ** (n - 1) > budget:
        raise BudgetExceededError(f"3*2**{n - 1} states exceed budget {budget}")
    target_cost = d2(sigma, tau, weights)
    step = weights.numerators.tolist()
    dist, prev = {sigma: 0}, {}
    counter = itertools.count()
    pq = [(0, next(counter), sigma)]
    while pq:
        d, _, u = heapq.heappop(pq)
        if u == tau:
            break
        if d > dist[u]:
            continue
        x = pad(u)
        for v in range(1, n + 1):
            for c in range(3):
                if c == x[v] or not path_accepts(x, v, c):
                    continue
                nxt = u[:v - 1] + (c,) + u[v:]
                if nxt not in dist or d + step[v - 1] < dist[nxt]:
                    dist[nxt], prev[nxt] = d + step[v - 1], u
                    heapq.heappush(pq, (dist[nxt], next(counter), nxt))
    if Fraction(dist[tau], weights.denominator) != target_cost:
        raise AssertionError(f"geodesic cost does not match metric value {target_cost}")
    path = [tau]
    while path[-1] != sigma:
        path.append(prev[path[-1]])
    return path[::-1]


# ---------------------------------------------------------------------------
# Whole-array forms of helpers the package forms in blocks or in place
# ---------------------------------------------------------------------------

def one_shot_max_tv(P_t: np.ndarray) -> float:
    """Largest TV distance from uniform over the rows of P_t, from the whole
    |P_t - 1/N| at once."""
    n = P_t.shape[1]
    return 0.5 * float(np.max(np.abs(P_t - 1.0 / n).sum(axis=1)))


def restricted_growth_by_stacking(length: int, q: int) -> np.ndarray:
    """Restricted-growth strings of ``length`` over q colors, lexicographic,
    each length's rows gathered from the last and stacked beside their new
    color."""
    out = np.zeros((1, 0), dtype=np.int64)
    top = np.full(1, -1)
    for _ in range(length):
        kids = np.minimum(top + 1, q - 1) + 1
        parent = np.repeat(np.arange(len(out)), kids)
        c = np.arange(len(parent)) - np.repeat(np.cumsum(kids) - kids, kids)
        out = np.column_stack([out[parent], c])
        top = np.maximum(top[parent], c)
    return out


# ---------------------------------------------------------------------------
# Exact drift: per-pair oracle
# ---------------------------------------------------------------------------

def _coupled_moves(sigma: Coloring, tau: Coloring, kind: str, vertices, props):
    """The pair and its images under K coupled move sequences, as (sig, tau)
    arrays of K + 1 rows, row 0 the pair itself.

    Column k of ``props`` (m, K) is sequence k: copy one tries props[j, k]
    at 1-based vertex vertices[j, k], j = 0..m-1 in order, and copy two
    follows by ``coupled_update``; ``vertices`` is (m, K) or (m, 1).
    """
    rows, width = props.shape[1] + 1, len(sigma) + 2
    # padded rows, flattened; column k moves row k + 1
    s, t = np.array(pad(sigma) * rows), np.array(pad(tau) * rows)
    for f, c in zip(vertices + width * np.arange(1, rows), props):
        coupled_update(s, t, f, c, kind)
    return s.reshape(rows, width)[:, 1:-1], t.reshape(rows, width)[:, 1:-1]


@dataclass
class DriftReport:
    """Exact expected metric value after one coupled step or sweep."""

    pair: tuple[Coloring, Coloring]
    metric: str
    coupling: str
    start_vertex: int
    before: Fraction
    expected_after: Fraction

    @property
    def drift(self) -> Fraction:
        return self.expected_after - self.before


def _pair_metric(sig, tau, metric, weights) -> tuple[np.ndarray, int]:
    """The metric of the pairs (sig[k], tau[k]) as integers over one
    denominator: (numerators, denominator).  d2 counts units of
    1/(2 * weights.denominator) and raises ImproperColoringError unless every
    coloring is a proper 3-coloring."""
    if metric == "hamming":
        return (np.asarray(sig) != np.asarray(tau)).sum(axis=-1), 1
    if metric == "d2":
        value, _ = weighted_height_distance(heights(sig), heights(tau), weights.numerators)
        return value, 2 * weights.denominator
    raise ValueError(f"unknown metric {metric!r}")


def exact_drift(
    sigma: Coloring,
    tau: Coloring,
    coupling: str,
    metric: str,
    q: int,
    start_vertex: int = 1,
    weights: Optional[VertexWeights] = None,
) -> DriftReport:
    """Exact expected metric after one coupled sweep (scan kinds) or one
    coupled single-site update (glauber kinds) on the path.

    Scan drift with the Hamming metric runs the ledger's DP,
    ``_ham_batch_drift``; other combinations enumerate the proposal draws.
    """
    if coupling == "switch_glauber_important_neighbor":
        raise ValueError("the important-neighbor coupling needs a segment layout")
    n = len(sigma)
    if coupling.endswith("glauber"):
        v, c = np.divmod(np.arange(n * q), q)  # one single-site move per (v, c)
        pairs = _coupled_moves(sigma, tau, coupling, v[None] + 1, c[None])
    elif metric == "hamming":
        pairs = np.array([sigma]), np.array([tau])
    else:
        m = n - start_vertex + 1  # one sweep per proposal vector
        props = np.indices((q,) * m).reshape(m, q ** m)
        pairs = _coupled_moves(sigma, tau, coupling, np.arange(start_vertex, n + 1)[:, None], props)
    values, den = _pair_metric(*pairs, metric, weights)
    before = Fraction(int(values[0]), den)
    if len(values) > 1:
        expected = Fraction(int(values[1:].sum()), den * (len(values) - 1))
    else:
        num, scale = _ham_batch_drift(*pairs, start_vertex - 1, q, coupling)
        expected = Fraction(int(num[0]), scale)
    return DriftReport((sigma, tau), metric, coupling, start_vertex, before, expected)


# ---------------------------------------------------------------------------
# drift.csv, one f-string per row
# ---------------------------------------------------------------------------

def drift_csv_body(ledger: Ledger) -> str:
    """drift.csv's body (column header and one line per ledger row)."""
    prefix = [f"{lemma},{ledger.n}," for lemma in LEMMA_IDS]
    cols = (ledger.lemma, ledger.pair_index, *ledger.lowest_terms(), ledger.passed.view("u1"))
    lines = ["lemma_id,n,pair_index,exact_drift_num,exact_drift_den,bound,pass"]
    lines += [
        f"{prefix[k]}{i},{a},{b},{c}/{d},{ok}"
        for k, i, a, b, c, d, ok in zip(*(col.tolist() for col in cols))
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Variance-floor witnesses (q = 3): the paper's constructive case analysis
# ---------------------------------------------------------------------------

# sha256 over the reprs of the site and sweep witnesses of every unequal pair
# at n = 4 and 5, recorded with the Fraction metric
WITNESS_DIGEST = "aa9321f0111a4651cea112f04bcbd72184cc85b9fe391bc5d8318fa020d329d6"


@dataclass
class SiteWitness:
    """A (vertex, color) choice that contracts the weighted metric.

    Trying ``color`` at ``vertex`` (1-based) in both copies lowers the metric
    by at least ``guaranteed_drop``; the single-site chain picks this choice
    with probability 1/(3n), which yields the squared-increment floor
    guaranteed_drop^2 / (3n).
    """

    vertex: int
    color: int
    guaranteed_drop: Fraction
    achieved_drop: Fraction


@dataclass
class SweepWitness:
    """Freeze-window witness giving the sweep a conditional variance floor.

    Conditioned on the freeze color ``c_left`` being drawn at vertex z-1 and
    ``c_right[c]`` at vertex z+1 (whatever color c the sweep draws at z), the
    rest of the sweep is independent of c and, for every realization, some
    choice of c moves the metric by at least w/2 in absolute value.  The
    freeze color ``c_freeze`` keeps z unchanged in both copies.
    """

    vertex: int
    c_left: Optional[int]
    c_right: Optional[tuple[int, int, int]]
    c_freeze: int
    event_probability: Fraction
    min_shift: Fraction


def _unused_window_color(coloring: Coloring, z: int) -> Optional[int]:
    n = len(coloring)
    used = {coloring[z]} | {coloring[j] for j in (z - 1, z + 1) if 0 <= j < n}
    free = [c for c in range(3) if c not in used]
    return free[0] if free else None


def _is_local_max(h: Sequence[int], v: int) -> bool:
    return all(h[u] < h[v] for u in (v - 1, v + 1) if 0 <= u < len(h))


def drop_choice(sigma: Coloring, tau: Coloring, weights: VertexWeights):
    """(z, color) from the height case analysis; drop >= weights[z] guaranteed.

    Works on an optimal height pair (h, h*): on the region R where h - h*
    is maximal, a local maximum of h (or, symmetrically, a minimum of h*) can
    be pushed toward the other profile by trying the window's unused color in
    both copies.  When h <= h* everywhere the roles swap.
    """
    h, hstar, _ = optimal_height_pair(sigma, tau, weights)
    n = len(sigma)
    m = max(a - b for a, b in zip(h, hstar))
    if m <= 0:
        return drop_choice(tau, sigma, weights)
    R = {v for v in range(n) if h[v] - hstar[v] == m}
    if len(R) == n:
        z = next(v for v in range(n) if _is_local_max(h, v))
        return z, _unused_window_color(sigma, z)
    for z in sorted(R):
        nbrs = [u for u in (z - 1, z + 1) if 0 <= u < n]
        if all(u not in R for u in nbrs):
            return z, _unused_window_color(sigma, z)
    for z in sorted(R):
        nbrs = [u for u in (z - 1, z + 1) if 0 <= u < n]
        in_r = [u for u in nbrs if u in R]
        out_r = [u for u in nbrs if u not in R]
        if in_r and out_r:
            if h[in_r[0]] < h[z]:
                return z, _unused_window_color(sigma, z)
            return z, _unused_window_color(tau, z)
    raise AssertionError("height case analysis matched no case")


def site_variance_witness(sigma: Coloring, tau: Coloring) -> SiteWitness:
    """Verified single-site variance witness for an unequal proper pair,
    under the glauber q = 3 weights."""
    if sigma == tau:
        raise ValueError("pair must be unequal")
    n = len(sigma)
    weights = VertexWeights.glauber_q3(n)
    tries = [(z, c) for z in range(n) for c in range(3)]
    z, c = np.divmod(np.arange(3 * n), 3)
    pairs = _coupled_moves(sigma, tau, "identity_glauber", z[None] + 1, c[None])
    values, den = _pair_metric(*pairs, "d2", weights)
    drop = dict(zip(tries, (values[0] - values[1:]).tolist()))
    w_min = min(weights.weights)
    # the case analysis's choice first; an exhaustive search backs it up,
    # and reaching it means the primary construction missed
    for z, c in [drop_choice(sigma, tau, weights), *tries]:
        if c is not None and drop[z, c] >= w_min * den:
            return SiteWitness(z + 1, c, w_min, Fraction(drop[z, c], den))
    raise AssertionError(f"no variance witness for pair {sigma} / {tau}")


def _freeze_colors(cur1: int, cur2: int, nb1: set[int], nb2: set[int]) -> list[int]:
    """Colors whose trial changes neither copy (current color or a neighbor's)."""
    return sorted(({cur1} | nb1) & ({cur2} | nb2))


def _verify_sweep_witness(
    sigma: Coloring,
    tau: Coloring,
    weights: VertexWeights,
    z: int,
    c_left: Optional[int],
    c_right: Optional[tuple[int, int, int]],
) -> Optional[Fraction]:
    """Minimal |metric shift| over all free draws, maximized over the z color.

    Returns None when some realization admits no color at z shifting the
    metric by at least w/2; otherwise the worst-case achieved shift.
    """
    n = len(sigma)
    free = [v for v in range(n) if v not in (z - 1, z, z + 1)]
    # draws[k, cz, v]: the color tried at 0-based v in the realization with
    # free draws k and z color cz; one padded batch column per realization
    draws = np.empty((3 ** len(free), 3, n), dtype=np.int64)
    draws[:, :, free] = np.array(list(itertools.product(range(3), repeat=len(free))))[:, None]
    draws[:, :, z] = np.arange(3)
    if z > 0:
        draws[:, :, z - 1] = c_left
    if z < n - 1:
        draws[:, :, z + 1] = c_right
    pairs = _coupled_moves(
        sigma, tau, "identity_scan", np.arange(1, n + 1)[:, None], draws.reshape(-1, n).T
    )
    values, den = _pair_metric(*pairs, "d2", weights)
    shift = np.abs(values[1:] - values[0]).reshape(-1, 3)
    # each realization takes its first z color shifting by w/2 or more
    ok = shift >= weights.numerators.min()
    if not ok.any(axis=1).all():
        return None
    return Fraction(int(shift[np.arange(len(shift)), ok.argmax(axis=1)].min()), den)


def sweep_variance_witness(sigma: Coloring, tau: Coloring) -> SweepWitness:
    """Verified sweep variance witness for an unequal proper pair, under the
    scan q = 3 weights.

    Construction: take the single-site drop choice (z, C); freeze z-1 with a
    shared color of both windows and z+1 with a per-color freeze choice, so
    that conditioned on those draws the z color can be chosen after the rest
    of the sweep.  Every realization then admits a z color shifting the
    metric by at least w/2: either freezing z (the shift already happened)
    or applying the drop color.  When the first-choice freeze colors fail
    the exhaustive verification, the remaining freeze-color combinations and
    window positions are searched; a pair with no verifiable witness raises.
    """
    if sigma == tau:
        raise ValueError("pair must be unequal")
    n = len(sigma)
    weights = VertexWeights.scan_q3(n)

    def candidates_at(z: int):
        lefts: list[Optional[int]] = [None]
        if z > 0:
            lefts = _freeze_colors(sigma[z - 1], tau[z - 1], {sigma[z]}, {tau[z]})
        rights: list[Optional[tuple[int, int, int]]] = [None]
        if z < n - 1:
            after_s, after_t = _coupled_moves(
                sigma, tau, "identity_glauber", np.array([[z + 1]]), np.arange(3)[None]
            )
            per_c = [
                _freeze_colors(sigma[z + 1], tau[z + 1], {a}, {b})
                for a, b in zip(after_s[1:, z].tolist(), after_t[1:, z].tolist())
            ]
            rights = list(itertools.product(*per_c))
        return lefts, rights

    def freeze_color(z: int) -> int:
        nb1 = {sigma[j] for j in (z - 1, z + 1) if 0 <= j < n}
        nb2 = {tau[j] for j in (z - 1, z + 1) if 0 <= j < n}
        return _freeze_colors(sigma[z], tau[z], nb1, nb2)[0]

    z0, _ = drop_choice(sigma, tau, weights)
    for z in [z0] + [z for z in range(n) if z != z0]:
        lefts, rights = candidates_at(z)
        for c_left in lefts:
            for c_right in rights:
                shift = _verify_sweep_witness(sigma, tau, weights, z, c_left, c_right)
                if shift is not None:
                    return SweepWitness(
                        vertex=z + 1,
                        c_left=c_left,
                        c_right=c_right,
                        c_freeze=freeze_color(z),
                        event_probability=Fraction(1, 3 if z in (0, n - 1) else 9),
                        min_shift=shift,
                    )
    raise AssertionError(f"no sweep variance witness for pair {sigma} / {tau}")
