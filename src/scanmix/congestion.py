"""Canonical-path congestion and homomorphism-space diagnostics.

For a connected constraint graph H and the n-vertex path, every ordered pair
of (compatible) colorings is routed along a canonical move sequence built
from a connector walk in H of a fixed parity-correct length t.  The maximal
weighted edge load of this routing lower-bounds the single-site chain's
Poincare constant by 1/A.

The module also provides reachability diagnostics for directed constraint
graphs: communicating classes of the single-site move graph, and the
two-clique bottleneck family whose conductance bound grows without limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domain import (
    BudgetExceededError, Coloring, Graph, TargetGraph, accepted_colors, enumerate_h_colorings,
)
from .dynamics import ChainSpec
from .kernels import _move_tables, _state_codes, _tally, communicating_classes


# ---------------------------------------------------------------------------
# Connector walks
# ---------------------------------------------------------------------------

def connector_length(target: TargetGraph, n: int) -> int:
    """Connector edge count t; n + t is odd in all four cases.

    4h - 1 / 4h for non-bipartite H with n even / odd, 2h - 1 / 2h for
    bipartite H with n even / odd.
    """
    h = target.h
    if target.is_bipartite:
        return 2 * h - 1 if n % 2 == 0 else 2 * h
    return 4 * h - 1 if n % 2 == 0 else 4 * h


def connector_walk(target: TargetGraph, a: int, b: int, t: int) -> list[int]:
    """Deterministic walk of exactly t edges from a to b in H.

    Shortest path first; a parity mismatch is repaired by inserting the
    smallest odd closed walk at its anchor vertex; remaining length is spent
    going back and forth over the final edge.  Both kinds of walk are read
    off ``TargetGraph.parity_bfs``: the shortest walk u -> v ends at the
    first-reached pair of color v, the odd closed walk at c at (c, 1).
    """
    def shortest(u: int, v: int) -> list[int]:
        prev = target.parity_bfs(u)
        end = next((pair for pair in prev if pair[0] == v), None)
        if end is None:
            raise ValueError("target graph is not connected")
        return target.walk(prev, end)

    def odd_closed(c: int) -> list[int]:
        prev = target.parity_bfs(c)
        if (c, 1) not in prev:
            raise ValueError("no odd closed walk; target graph is bipartite")
        return target.walk(prev, (c, 1))

    walk = shortest(a, b)
    if (t - (len(walk) - 1)) % 2 == 1:
        anchor = min(range(target.h), key=lambda v: (len(odd_closed(v)), v))
        p1 = shortest(a, anchor)
        p2 = shortest(anchor, b)
        walk = p1 + p2[1:]
        if (t - (len(walk) - 1)) % 2 == 1:
            # odd closed walk at the anchor repairs the parity
            cyc = odd_closed(anchor)
            walk = p1 + cyc[1:] + p2[1:]
    pad = t - (len(walk) - 1)
    if pad < 0 or pad % 2 == 1:
        raise AssertionError("connector construction exceeded its budget")
    if pad:
        if len(walk) >= 2:
            u = walk[-2]
        else:
            u = next(
                (v for v in range(target.h) if target.allows(b, v) or target.allows(v, b)), None
            )
            if u is None:
                raise ValueError(
                    f"no edge at color {b} to pad the walk; target graph has an isolated color"
                )
        walk = walk + [u, b] * (pad // 2)
    return walk


# ---------------------------------------------------------------------------
# Canonical paths and congestion
# ---------------------------------------------------------------------------

@dataclass
class CongestionReport:
    """Exact congestion of the canonical routing on the n-path.

    ``congestion`` is max over single-site transitions (alpha, beta) of
    sum over routed pairs through it of |path| / (pi(alpha) P(alpha, beta)),
    with pi uniform and P(alpha, beta) = 1/(n h).  ``encoding_bound`` is the
    edge-load form ((n+t)/2) n * n h * max_paths / |states|; the Poincare
    constant of the single-site chain is at least 1/congestion.
    """

    n: int
    t: int
    n_states: int
    congestion: Fraction
    max_paths_through_edge: int
    max_path_length: int
    length_bound: Fraction
    encoding_bound: Fraction
    paths_valid: bool

    @property
    def poincare_lower_bound(self) -> Fraction:
        return 1 / self.congestion if self.congestion > 0 else Fraction(0)


def canonical_congestion(n: int, target: TargetGraph) -> CongestionReport:
    """Build every canonical path on the n-path and measure the edge loads,
    over the side-0 class of a bipartite H and every H-coloring otherwise.

    The canonical path sigma -> tau scans the spliced word sigma .
    connector-interior . tau with an n-window: it visits every second window,
    and realizes each two-shift by n single-vertex updates applied left to
    right, dropping no-op updates.  All (sigma, tau) pairs of a block of
    sigmas are routed at once: the spliced words are columns of one array,
    and each window step runs over the whole block.  Loads are tallied per
    distinct single-site transition, and the distinct transitions are
    checked by one ``accepted_colors`` call per vertex, since a step's
    validity depends on nothing else.  Raises BudgetExceededError after
    enumerating and before routing when the routed steps, N(N - 1) pairs of
    n ceil((n + t - 1)/2) steps each, exceed ``CONGESTION_BUDGET``.
    """
    if not target.is_connected:
        raise ValueError("target graph must be connected")
    spec = ChainSpec(graph=Graph.path(n), target=target, base="glauber")
    h = target.h
    if h ** n * n * h >= 2 ** 63:
        raise ValueError(f"move keys up to {h}**{n} * {n * h} do not fit int64")
    states = enumerate_h_colorings(spec.graph, target, "side0" if target.is_bipartite else "all")
    if not states:
        raise ValueError(f"the {n}-path has no H-coloring; there is nothing to route")
    t = connector_length(target, n)
    n_states = len(states)
    shifts = range(0, n + t - 1, 2)
    n_steps = n * len(shifts)
    work = n_states * (n_states - 1) * n_steps
    if work > CONGESTION_BUDGET:
        raise BudgetExceededError(f"{work} routed steps exceed budget {CONGESTION_BUDGET}")
    # base-h state codes; a move (code, vertex j, color c) is keyed
    # code * n * h + j * h + c, below h^n * n * h < 2^63
    X, place, codes = _state_codes(spec, states)
    # connector-walk interiors by endpoint pair sigma[-1] * h + tau[0], built on first use
    interiors = np.zeros((h * h, t - 1), dtype=np.int64)
    built = np.zeros(h * h, dtype=bool)

    tallies = []
    max_len = 0
    block = max(1, _BLOCK_STEPS // max(1, n_states * n_steps))
    everyone = np.arange(n_states)
    for start in range(0, n_states, block):
        sigmas = everyone[start:start + block]
        si, ti = np.repeat(sigmas, n_states), np.tile(everyone, len(sigmas))
        si, ti = si[si != ti], ti[si != ti]
        if not len(si):
            continue
        ends = X[si, -1] * h + X[ti, 0]
        for e in np.unique(ends[~built[ends]]).tolist():
            interiors[e] = connector_walk(target, e // h, e % h, t=t)[1:-1]
            built[e] = True
        # word[p] over the block: sigma . connector interior . tau
        word = np.ascontiguousarray(np.hstack([X[si], interiors[ends], X[ti]]).T)
        code = codes[si]
        moved = np.empty((n_steps, len(si)), dtype=bool)
        keys = np.empty((n_steps, len(si)), dtype=np.int64)
        k = 0
        for i in shifts:
            # window shift i -> i + 2 via vertices 1..n in order; vertex j
            # still holds word[i + j] when its turn comes
            for j in range(n):
                old, new = word[i + j], word[i + 2 + j]
                moved[k] = old != new
                keys[k] = code * (n * h) + j * h + new
                code = code + (new - old) * place[j]
                k += 1
        if np.any(code != codes[ti]):
            raise AssertionError("canonical path missed its endpoint")
        length = moved.sum(axis=0)
        max_len = max(max_len, int(length.max()))
        lengths = np.broadcast_to(length, moved.shape)[moved]
        tallies.append(_tally(keys[moved], lengths, np.ones_like(lengths)))

    if tallies:
        moves, loads, paths = _tally(*(np.concatenate(c) for c in zip(*tallies)))
    else:
        moves = loads = paths = np.zeros(0, dtype=np.int64)
    before = (moves // (n * h))[:, None] // place % h
    allows = target.allows_matrix
    ok = np.array([accepted_colors(spec.graph, allows, before, v) for v in range(1, n + 1)])
    valid = bool(ok[moves % (n * h) // h, np.arange(len(moves)), moves % h].all())

    max_load = int(loads.max(initial=0))
    max_paths = int(paths.max(initial=0))
    congestion = Fraction(n * h * max_load, n_states)
    length_bound = Fraction(n + t, 2) * n
    encoding_bound = length_bound * n * h * Fraction(max_paths, n_states)
    return CongestionReport(
        n=n,
        t=t,
        n_states=n_states,
        congestion=congestion,
        max_paths_through_edge=max_paths,
        max_path_length=max_len,
        length_bound=length_bound,
        encoding_bound=encoding_bound,
        paths_valid=valid,
    )


_BLOCK_STEPS = 1 << 17  # routed steps per block of sigmas (pairs x steps per path)
# Routed steps admitted by canonical_congestion: n = 10 at q = 3 routes
# 2.4e8 steps and is admitted, n = 11 routes 1.1e9 and is refused.
CONGESTION_BUDGET = 2 ** 28


# ---------------------------------------------------------------------------
# Reachability diagnostics (directed constraint graphs)
# ---------------------------------------------------------------------------

@dataclass
class ErgodicityReport:
    n_states: int
    classes: list[list[Coloring]]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def class_sizes(self) -> list[int]:
        return sorted((len(c) for c in self.classes), reverse=True)


def ergodicity_report(g: Graph, target: TargetGraph) -> ErgodicityReport:
    """Communicating classes of the single-site move graph on hom(g, H).

    The move graph is the glauber move tables read as a CSR digraph, an arc
    from each state to every entry of its rows, so a move is read exactly as
    the kernels read it, but no transition probability is formed.  Classes
    come in the order of their first state, each in lexicographic order.
    """
    states = enumerate_h_colorings(g, target)
    spec = ChainSpec(graph=g, target=target, base="glauber")
    moves = np.hstack(_move_tables(spec, states))
    indptr = np.arange(0, moves.size + 1, moves.shape[1])
    classes = sorted(communicating_classes(indptr, moves.ravel()))
    return ErgodicityReport(len(states), [[states[i] for i in c] for c in classes])


def directed_cycle(h: int) -> TargetGraph:
    """Directed h-cycle 0 -> 1 -> ... -> h-1 -> 0."""
    return TargetGraph([[j == (i + 1) % h for j in range(h)] for i in range(h)], directed=True)


def bottleneck_target(k: int) -> TargetGraph:
    """Hub-and-two-cliques directed constraint graph on 2k + 1 vertices.

    Vertex 0 is a hub with arcs to every vertex (itself included); vertices
    1..k and k+1..2k form two directed cliques with self-loops.  Valid path
    colorings are exactly the words hub* first-clique* or hub* second-clique*.
    A clique needs k >= 1 vertices.
    """
    if k < 1:
        raise ValueError(f"the bottleneck family needs clique size k >= 1, not {k}")
    side = [0] + [1] * k + [2] * k
    return TargetGraph([[i == 0 or a == b for b in side] for i, a in enumerate(side)], directed=True)


@dataclass
class BottleneckReport:
    """Conductance-style lower bound for the hub-and-two-cliques family.

    A is the set of colorings that use the first clique; M the set with at
    most one non-hub vertex.  No single-site move crosses between the two
    clique sides except through M, so the mixing time is at least
    pi(A) / (8 pi(M)), which grows without limit in the clique size.
    """

    k: int
    n: int
    n_states: int
    size_a: int
    size_m: int
    pi_a: Fraction
    pi_m: Fraction
    bound: Fraction
    n_classes: int


def bottleneck_report(k: int, n: int) -> BottleneckReport:
    report = ergodicity_report(Graph.path(n), bottleneck_target(k))
    states = [s for c in report.classes for s in c]  # the classes partition the states
    first = set(range(1, k + 1))
    size_a = sum(1 for s in states if any(c in first for c in s))
    size_m = sum(1 for s in states if sum(c != 0 for c in s) <= 1)
    pi_a = Fraction(size_a, report.n_states)
    pi_m = Fraction(size_m, report.n_states)
    return BottleneckReport(
        k=k,
        n=n,
        n_states=report.n_states,
        size_a=size_a,
        size_m=size_m,
        pi_a=pi_a,
        pi_m=pi_m,
        bound=pi_a / (8 * pi_m),
        n_classes=report.n_classes,
    )
