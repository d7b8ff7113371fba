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

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .domain import Coloring, Graph, TargetGraph, enumerate_h_colorings
from .dynamics import ChainSpec, proposal_accepted


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


def _bfs_path(target: TargetGraph, a: int, b: int) -> list[int]:
    """Lexicographically smallest shortest walk a -> b (undirected reading)."""
    prev: dict[int, Optional[int]] = {a: None}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u == b:
            break
        for v in range(target.h):
            if v not in prev and (target.allows(u, v) or target.allows(v, u)):
                prev[v] = u
                queue.append(v)
    if b not in prev:
        raise ValueError("target graph is not connected")
    path = [b]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def _odd_closed_walk(target: TargetGraph, c: int) -> list[int]:
    """Shortest odd-length closed walk at c, via the bipartite double cover."""
    start = (c, 0)
    prev: dict[tuple[int, int], Optional[tuple[int, int]]] = {start: None}
    queue = deque([start])
    goal = (c, 1)
    while queue:
        u, par = queue.popleft()
        if (u, par) == goal:
            break
        for v in range(target.h):
            if target.allows(u, v) or target.allows(v, u):
                nxt = (v, 1 - par)
                if nxt not in prev:
                    prev[nxt] = (u, par)
                    queue.append(nxt)
    if goal not in prev:
        raise ValueError("no odd closed walk; target graph is bipartite")
    walk = [goal]
    while prev[walk[-1]] is not None:
        walk.append(prev[walk[-1]])
    return [v for v, _ in walk[::-1]]


def connector_walk(target: TargetGraph, a: int, b: int, t: int) -> list[int]:
    """Deterministic walk of exactly t edges from a to b in H.

    Shortest path first; a parity mismatch is repaired by inserting the
    smallest odd closed walk at its anchor vertex; remaining length is spent
    going back and forth over the final edge.
    """
    walk = _bfs_path(target, a, b)
    if (t - (len(walk) - 1)) % 2 == 1:
        anchor = min(
            range(target.h), key=lambda v: (len(_odd_closed_walk(target, v)), v)
        )
        p1 = _bfs_path(target, a, anchor)
        p2 = _bfs_path(target, anchor, b)
        walk = p1 + p2[1:]
        if (t - (len(walk) - 1)) % 2 == 1:
            # odd closed walk at the anchor repairs the parity
            cyc = _odd_closed_walk(target, anchor)
            walk = p1 + cyc[1:] + p2[1:]
    pad = t - (len(walk) - 1)
    if pad < 0 or pad % 2 == 1:
        raise AssertionError("connector construction exceeded its budget")
    if pad:
        if len(walk) >= 2:
            u = walk[-2]
        else:
            u = next(
                v for v in range(target.h) if target.allows(b, v) or target.allows(v, b)
            )
        walk = walk + [u, b] * (pad // 2)
    return walk


# ---------------------------------------------------------------------------
# Canonical paths and congestion
# ---------------------------------------------------------------------------

def canonical_path(
    sigma: Coloring, tau: Coloring, target: TargetGraph, n: int
) -> list[Coloring]:
    """Move sequence sigma -> tau through the window states of the spliced word.

    The word sigma . connector-interior . tau is scanned by an n-window; the
    path visits every second window, and each two-shift is realized by n
    single-vertex updates applied left to right (no-op updates are dropped).
    """
    walk = connector_walk(target, sigma[-1], tau[0], connector_length(target, n))
    return _route(sigma, tau, walk, n)


def _route(sigma: Coloring, tau: Coloring, walk: list[int], n: int) -> list[Coloring]:
    """The canonical path sigma -> tau along a given connector walk."""
    t = len(walk) - 1
    word = list(sigma) + walk[1:-1] + list(tau)
    states = [sigma]
    cur = list(sigma)
    for i in range(0, n + t - 1, 2):
        # window shift i -> i + 2 via vertices 1..n in order
        for j in range(n):
            new = word[i + 2 + j]
            if cur[j] != new:
                cur[j] = new
                states.append(tuple(cur))
    if states[-1] != tau:
        raise AssertionError("canonical path missed its endpoint")
    return states


def is_valid_move_path(
    states: list[Coloring], g: Graph, target: TargetGraph
) -> bool:
    """Consecutive states differ at exactly one vertex by an accepted move."""
    spec = ChainSpec(graph=g, target=target, base="glauber")
    for a, b in zip(states, states[1:]):
        diffs = [v for v in range(g.n) if a[v] != b[v]]
        if len(diffs) != 1:
            return False
        v = diffs[0]
        if not proposal_accepted(spec, a, v + 1, b[v]):
            return False
    return True


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


def canonical_congestion(
    n: int, target: TargetGraph, component: str = "auto"
) -> CongestionReport:
    """Build every canonical path on the n-path and measure the edge loads.

    All (sigma, tau) pairs of a block of sigmas are routed at once: the
    spliced words are columns of one array, and each window step of
    ``_route`` runs over the whole block.  Loads are tallied per distinct
    single-site transition, and the step rule of ``is_valid_move_path`` is
    checked once per distinct transition, since it depends on nothing else.
    """
    if not target.is_connected:
        raise ValueError("target graph must be connected")
    g = Graph.path(n)
    h = target.h
    if h ** n * n * h >= 2 ** 63:
        raise ValueError(f"move keys up to {h}**{n} * {n * h} do not fit int64")
    if component == "auto":
        component = "side0" if target.is_bipartite else "all"
    states = enumerate_h_colorings(g, target, component=component)
    t = connector_length(target, n)
    n_states = len(states)
    # base-h state codes; a move (code, vertex j, color c) is keyed
    # code * n * h + j * h + c, below h^n * n * h < 2^63
    X = np.array(states, dtype=np.int64).reshape(n_states, n)
    place = h ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = X @ place
    shifts = range(0, n + t - 1, 2)
    n_steps = n * len(shifts)
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
    spec = ChainSpec(graph=g, target=target, base="glauber")
    before, vertex, color = moves // (n * h), moves % (n * h) // h, moves % h
    valid = all(
        proposal_accepted(spec, tuple(a), v + 1, c)
        for a, v, c in zip(
            (before[:, None] // place % h).tolist(), vertex.tolist(), color.tolist()
        )
    )

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


def _tally(keys: np.ndarray, *columns: np.ndarray):
    """Distinct keys, ascending, with each column summed exactly per key."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    return (keys[first], *(np.add.reduceat(c[order], first) for c in columns))


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
    """Connected components of the single-site move graph on hom(g, H).

    Accepted moves are reversible (the overwritten color was itself
    compatible), so communicating classes are plain components.
    """
    states = enumerate_h_colorings(g, target)
    spec = ChainSpec(graph=g, target=target, base="glauber")
    index = {s: i for i, s in enumerate(states)}
    seen = [False] * len(states)
    classes: list[list[Coloring]] = []
    for start in range(len(states)):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(states[i])
            s = states[i]
            for v in range(1, g.n + 1):
                for c in range(target.h):
                    if c != s[v - 1] and proposal_accepted(spec, s, v, c):
                        j = index[s[: v - 1] + (c,) + s[v:]]
                        if not seen[j]:
                            seen[j] = True
                            stack.append(j)
        classes.append(comp)
    return ErgodicityReport(n_states=len(states), classes=classes)


def directed_cycle(h: int) -> TargetGraph:
    """Directed h-cycle 0 -> 1 -> ... -> h-1 -> 0."""
    adj = [[False] * h for _ in range(h)]
    for i in range(h):
        adj[i][(i + 1) % h] = True
    return TargetGraph(tuple(tuple(r) for r in adj), directed=True)


def bottleneck_target(k: int) -> TargetGraph:
    """Hub-and-two-cliques directed constraint graph on 2k + 1 vertices.

    Vertex 0 is a hub with arcs to every vertex (itself included); vertices
    1..k and k+1..2k form two directed cliques with self-loops.  Valid path
    colorings are exactly the words hub* first-clique* or hub* second-clique*.
    """
    h = 2 * k + 1
    adj = [[False] * h for _ in range(h)]
    for v in range(h):
        adj[0][v] = True
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            adj[i][j] = True
    for i in range(k + 1, h):
        for j in range(k + 1, h):
            adj[i][j] = True
    return TargetGraph(tuple(tuple(r) for r in adj), directed=True)


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
    target = bottleneck_target(k)
    g = Graph.path(n)
    states = enumerate_h_colorings(g, target)
    first = set(range(1, k + 1))
    size_a = sum(1 for s in states if any(c in first for c in s))
    size_m = sum(1 for s in states if sum(c != 0 for c in s) <= 1)
    total = len(states)
    report = ergodicity_report(g, target)
    pi_a = Fraction(size_a, total)
    pi_m = Fraction(size_m, total)
    return BottleneckReport(
        k=k,
        n=n,
        n_states=total,
        size_a=size_a,
        size_m=size_m,
        pi_a=pi_a,
        pi_m=pi_m,
        bound=pi_a / (8 * pi_m),
        n_classes=report.n_classes,
    )
