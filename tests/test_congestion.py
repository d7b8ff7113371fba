"""Canonical paths, connector walks, and reachability diagnostics."""

import collections
import functools
import itertools
import random
from fractions import Fraction

import pytest

from scanmix import congestion
from scanmix.congestion import (
    CongestionReport,
    bottleneck_report,
    bottleneck_target,
    canonical_congestion,
    connector_length,
    connector_walk,
    directed_cycle,
    ergodicity_report,
)
from scanmix.domain import BudgetExceededError, Graph, TargetGraph, enumerate_h_colorings
from scanmix.dynamics import ChainSpec, proposal_accepted
from reference import cycle, single_edge, star
from test_dynamics import reference_proposal_accepted
from test_kernels import entry


K3 = TargetGraph.clique(3)
EDGE = single_edge()


def canonical_path(sigma, tau, target, n):
    """Move sequence sigma -> tau through the window states of the spliced
    word, one pair at a time."""
    walk = connector_walk(target, sigma[-1], tau[0], connector_length(target, n))
    return route(sigma, tau, walk, n)


def route(sigma, tau, walk, n):
    """The canonical path sigma -> tau along a given connector walk: the
    word sigma . walk interior . tau is scanned by an n-window; the path
    visits every second window, and each two-shift is realized by n
    single-vertex updates applied left to right (no-op updates dropped)."""
    t = len(walk) - 1
    word = list(sigma) + walk[1:-1] + list(tau)
    states = [sigma]
    cur = list(sigma)
    for i in range(0, n + t - 1, 2):
        for j in range(n):
            new = word[i + 2 + j]
            if cur[j] != new:
                cur[j] = new
                states.append(tuple(cur))
    assert states[-1] == tau, "canonical path missed its endpoint"
    return states


def is_valid_move(a, b, g, target):
    """a and b differ at exactly one vertex by a move the three-branch
    reference rule accepts."""
    spec = ChainSpec(graph=g, target=target, base="glauber")
    diffs = [v for v in range(g.n) if a[v] != b[v]]
    return len(diffs) == 1 and reference_proposal_accepted(spec, a, diffs[0] + 1, b[diffs[0]])


def is_valid_move_path(states, g, target):
    """Every step of the state sequence is a valid move."""
    return all(is_valid_move(a, b, g, target) for a, b in zip(states, states[1:]))


@pytest.mark.parametrize(
    "target,n,expected",
    [
        (K3, 4, 11),       # not bipartite, n even: 4h - 1
        (EDGE, 4, 3),      # bipartite, n even: 2h - 1
        (K3, 3, 12),       # not bipartite, n odd: 4h
        (EDGE, 5, 4),      # bipartite, n odd: 2h
    ],
)
def test_connector_length_table(target, n, expected):
    t = connector_length(target, n)
    assert t == expected
    assert (n + t) % 2 == 1


@pytest.mark.parametrize("target", [K3, cycle(5), TargetGraph.clique(4)])
@pytest.mark.parametrize("n", [3, 4])
def test_connector_walks_exact_length_and_adjacency(target, n):
    t = connector_length(target, n)
    for a in range(target.h):
        for b in range(target.h):
            walk = connector_walk(target, a, b, t)
            assert walk[0] == a and walk[-1] == b
            assert len(walk) == t + 1
            assert all(
                target.allows(u, v) or target.allows(v, u)
                for u, v in zip(walk, walk[1:])
            )


def test_canonical_paths_are_valid_moves():
    for n, target in ((3, K3), (4, K3)):
        g = Graph.path(n)
        states = enumerate_h_colorings(g, target)
        for sigma in states[::3]:
            for tau in states[::5]:
                path = canonical_path(sigma, tau, target, n)
                assert path[0] == sigma and path[-1] == tau
                if sigma != tau:
                    assert is_valid_move_path(path, g, target)
                t = connector_length(target, n)
                assert len(path) - 1 <= Fraction(n + t, 2) * n


@pytest.mark.parametrize(
    "n,target",
    [(3, K3), (4, K3), (4, EDGE)],
)
def test_congestion_reports(n, target):
    rep = canonical_congestion(n, target)
    assert rep.paths_valid
    assert rep.t == connector_length(target, n)
    assert rep.congestion >= 0 and rep.congestion <= rep.encoding_bound
    assert rep.max_path_length <= rep.length_bound
    if rep.n_states > 1:
        assert rep.congestion > 0
        assert rep.poincare_lower_bound > 0


def reference_congestion(n, target, component="auto"):
    """The pair-by-pair router: one Python path per (sigma, tau), its steps
    tallied in a Counter per path length, whose sums give the loads.  A
    step's validity depends on the step alone, so the paths are all valid
    when every distinct step is (is_valid_move)."""
    g = Graph.path(n)
    if component == "auto":
        component = "side0" if target.is_bipartite else "all"
    states = enumerate_h_colorings(g, target, component=component)
    t = connector_length(target, n)
    h = target.h
    n_states = len(states)
    walk = functools.cache(functools.partial(congestion.connector_walk, target, t=t))

    by_length = collections.defaultdict(collections.Counter)
    for sigma in states:
        for tau in states:
            if sigma == tau:
                continue
            path = route(sigma, tau, walk(sigma[-1], tau[0]), n)
            by_length[len(path) - 1].update(zip(path, path[1:]))
    edge_load, edge_paths = collections.Counter(), collections.Counter()
    for length, steps in by_length.items():
        for step, paths in steps.items():
            edge_load[step] += length * paths
            edge_paths[step] += paths
    max_len = max(by_length, default=0)

    valid = all(is_valid_move(a, b, g, target) for a, b in edge_load)
    max_load = max(edge_load.values(), default=0)
    max_paths = max(edge_paths.values(), default=0)
    length_bound = Fraction(n + t, 2) * n
    return CongestionReport(
        n=n,
        t=t,
        n_states=n_states,
        congestion=Fraction(n * h * max_load, n_states),
        max_paths_through_edge=max_paths,
        max_path_length=max_len,
        length_bound=length_bound,
        encoding_bound=length_bound * n * h * Fraction(max_paths, n_states),
        paths_valid=valid,
    )


K3_LOOP = TargetGraph(((True, True, True), (True, False, True), (True, True, False)))
REFERENCE_CASES = (
    [(n, K3) for n in range(1, 7)]
    + [(n, TargetGraph.clique(4)) for n in range(1, 6)]
    # bipartite: side0 of the edge is one state, so there is no pair to route
    + [(n, EDGE) for n in range(1, 7)]
    + [(n, cycle(5)) for n in range(1, 5)]
    + [(n, K3_LOOP) for n in range(1, 5)]
    + [(5, cycle(4))]
    + [(n, TargetGraph.from_text("001\n110\n010\n", directed=True)) for n in (3, 4, 5)]
)


@pytest.mark.parametrize("n,target", REFERENCE_CASES)
def test_congestion_matches_pair_by_pair_router(n, target):
    assert canonical_congestion(n, target) == reference_congestion(n, target)


@pytest.mark.parametrize("n,target", [(4, K3), (3, TargetGraph.clique(4)), (4, K3_LOOP)])
def test_congestion_matches_router_on_invalid_paths(monkeypatch, n, target):
    # a connector that stalls on sigma's last color: the spliced word repeats
    # a color on adjacent vertices, so some moves break the step rule
    def stalling_walk(target, a, b, t):
        return [a] * t + [b]

    monkeypatch.setattr(congestion, "connector_walk", stalling_walk)
    rep = canonical_congestion(n, target)
    assert not rep.paths_valid
    assert rep == reference_congestion(n, target)


def test_congestion_lower_bounds_the_gap():
    """1/A really is below the exact Poincare constant."""
    from scanmix.dynamics import ChainSpec
    from scanmix.kernels import build_kernel, poincare_constant

    for n, target in ((3, K3), (4, K3)):
        rep = canonical_congestion(n, target)
        K = build_kernel(ChainSpec(graph=Graph.path(n), target=target))
        gap = poincare_constant(K).poincare
        assert float(rep.poincare_lower_bound) <= gap + 1e-12


def test_directed_cycle_classes():
    for n in range(3, 7):
        rep = ergodicity_report(Graph.path(n), directed_cycle(3))
        assert rep.n_classes == 3
        assert rep.class_sizes == [1, 1, 1]


def reference_ergodicity_classes(g, target):
    """The depth-first search over accepted moves that the move-table classes
    replaced: classes in the order of their first state, states in DFS order."""
    states = enumerate_h_colorings(g, target)
    spec = ChainSpec(graph=g, target=target, base="glauber")
    index = {s: i for i, s in enumerate(states)}
    seen = [False] * len(states)
    classes = []
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
    return classes


DIRECTED_H3 = [
    h for h in (
        TargetGraph.from_text(
            "\n".join("".join(bits[3 * i:3 * i + 3]) for i in range(3)), directed=True
        )
        for bits in itertools.product("01", repeat=9)
    )
    if h.is_connected
]


@pytest.mark.parametrize(
    "g",
    # star(2) is the path on two vertices
    [Graph.path(n) for n in range(1, 6)] + [star(n) for n in range(3, 5)],
    ids=lambda g: f"{g.kind}{g.n}",
)
def test_classes_match_the_depth_first_search(g):
    """Same classes in the same order on every connected directed 3-vertex H;
    inside a class the states are in lexicographic order, not DFS order."""
    assert len(DIRECTED_H3) == 432
    for target in DIRECTED_H3:
        rep = ergodicity_report(g, target)
        ref = reference_ergodicity_classes(g, target)
        assert rep.classes == [sorted(c) for c in ref]
        assert rep.n_states == sum(map(len, ref))


@pytest.mark.parametrize("target", [directed_cycle(3), bottleneck_target(1)], ids=["cycle", "hub"])
def test_classes_beyond_int64_state_codes(target):
    # 3**40 > 2**63: the move tables fall back to Python-int state codes
    g = Graph.path(40)
    rep = ergodicity_report(g, target)
    assert rep.classes == [sorted(c) for c in reference_ergodicity_classes(g, target)]


def test_undirected_clique_single_class():
    rep = ergodicity_report(Graph.path(4), K3)
    assert rep.n_classes == 1 and rep.class_sizes == [24]


def test_bottleneck_structure():
    # the valid colorings are exactly hub-prefix words into one clique
    target = bottleneck_target(2)
    states = enumerate_h_colorings(Graph.path(4), target)
    first, second = set(range(1, 3)), set(range(3, 5))
    for s in states:
        non_hub = [c for c in s if c != 0]
        assert not non_hub or set(non_hub) <= first or set(non_hub) <= second
        # hub colors only as a prefix
        tail = False
        for c in s:
            if c != 0:
                tail = True
            elif tail:
                pytest.fail(f"hub color after leaving the hub: {s}")


@pytest.mark.parametrize("n", [4, 5])
def test_bottleneck_bound_grows(n):
    prev = None
    for k in (2, 3):
        rep = bottleneck_report(k, n)
        assert rep.pi_a >= Fraction(1, 3)
        assert rep.n_states == 2 * rep.size_a + 1
        assert rep.n_classes == 1  # reachable, yet bottlenecked
        if prev is not None:
            assert rep.bound > prev
        prev = rep.bound


def test_self_loop_device_floor_on_smallest_eigenvalue():
    """Every state holds still with probability at least 1/h, which floors
    the smallest symmetrized eigenvalue at 2/h - 1."""
    from scanmix.dynamics import ChainSpec
    from scanmix.kernels import build_kernel, poincare_constant

    for n, target in ((3, K3), (4, K3)):
        K = build_kernel(ChainSpec(graph=Graph.path(n), target=target))
        h = target.h
        assert all(entry(K, i, i) >= Fraction(1, h) for i in range(len(K.states)))
        assert poincare_constant(K).beta_min >= 2 / h - 1 - 1e-12


def test_move_keys_must_fit_int64():
    # one side-0 state, but the keys code * n * h + j * h + c need 2^60 * 120
    with pytest.raises(ValueError, match="int64"):
        canonical_congestion(60, EDGE)


class Routed(Exception):
    """Raised by the patched connector walk: routing has begun."""


@pytest.mark.parametrize("n, admitted", [(10, True), (11, False)])
def test_congestion_budget_refuses_before_routing(monkeypatch, n, admitted):
    """The 3-colorings of the 10-path route 2.4e8 steps and are admitted;
    those of the 11-path route 1.1e9 and are refused after enumerating,
    before the first connector walk is built."""
    def walk(*args, **kwargs):
        raise Routed

    monkeypatch.setattr(congestion, "connector_walk", walk)
    with pytest.raises(Routed if admitted else BudgetExceededError):
        canonical_congestion(n, TargetGraph.clique(3))


# ---------------------------------------------------------------------------
# One search over H: the traversals it replaced, as references
# ---------------------------------------------------------------------------

def reference_is_connected(target):
    """Depth-first search from color 0, H read in either direction."""
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v in range(target.h):
            if v not in seen and (target.allows(u, v) or target.allows(v, u)):
                seen.add(v)
                stack.append(v)
    return len(seen) == target.h


def reference_bipartition(target):
    """Depth-first 2-coloring from color 0; None for directed or disconnected H."""
    if target.directed:
        return None
    side, stack = {0: 0}, [0]
    while stack:
        u = stack.pop()
        if target.allows(u, u):
            return None
        for v in range(target.h):
            if target.allows(u, v):
                if v not in side:
                    side[v] = 1 - side[u]
                    stack.append(v)
                elif side[v] == side[u]:
                    return None
    if len(side) != target.h:
        return None
    s0 = frozenset(v for v, s in side.items() if s == 0)
    return s0, frozenset(range(target.h)) - s0


@functools.cache
def reference_shortest_walk(target, a, b):
    """Lexicographically smallest shortest walk a -> b by a plain BFS."""
    prev = {a: None}
    queue = collections.deque([a])
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


@functools.cache
def reference_odd_closed_walk(target, c):
    """Shortest odd closed walk at c by a BFS of the double cover that stops at (c, 1)."""
    goal = (c, 1)
    prev = {(c, 0): None}
    queue = collections.deque([(c, 0)])
    while queue:
        u, par = queue.popleft()
        if (u, par) == goal:
            break
        for v in range(target.h):
            if (target.allows(u, v) or target.allows(v, u)) and (v, 1 - par) not in prev:
                prev[v, 1 - par] = (u, par)
                queue.append((v, 1 - par))
    if goal not in prev:
        raise ValueError("no odd closed walk; target graph is bipartite")
    walk = [goal]
    while prev[walk[-1]] is not None:
        walk.append(prev[walk[-1]])
    return [v for v, _ in walk[::-1]]


def reference_connector_walk(target, a, b, t):
    """``connector_walk`` over the reference traversals."""
    walk = reference_shortest_walk(target, a, b)
    if (t - (len(walk) - 1)) % 2 == 1:
        anchor = min(
            range(target.h), key=lambda v: (len(reference_odd_closed_walk(target, v)), v)
        )
        p1 = reference_shortest_walk(target, a, anchor)
        p2 = reference_shortest_walk(target, anchor, b)
        walk = p1 + p2[1:]
        if (t - (len(walk) - 1)) % 2 == 1:
            cyc = reference_odd_closed_walk(target, anchor)
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


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as e:
        return type(e), str(e)


def matrices(h, symmetric):
    """Every h x h 0/1 adjacency matrix (every symmetric one if ``symmetric``)."""
    cells = [(i, j) for i in range(h) for j in range(h) if not symmetric or i <= j]
    for bits in itertools.product((False, True), repeat=len(cells)):
        adj = [[False] * h for _ in range(h)]
        for (i, j), bit in zip(cells, bits):
            adj[i][j] = bit
            if symmetric:
                adj[j][i] = bit
        yield adj


def search_targets():
    """Every matrix with h <= 3 (directed and undirected), every symmetric
    one with h = 4, and a seeded sample of directed H with h = 4..7."""
    for h in (1, 2, 3):
        yield from (TargetGraph(adj, directed=True) for adj in matrices(h, False))
        yield from (TargetGraph(adj) for adj in matrices(h, True))
    yield from (TargetGraph(adj) for adj in matrices(4, True))
    rng = random.Random(15)
    for h in (4, 5, 6, 7):
        for _ in range(40):
            density = rng.uniform(0.1, 0.6)
            adj = [[rng.random() < density for _ in range(h)] for _ in range(h)]
            yield TargetGraph(adj, directed=True)


def test_one_search_matches_the_four_traversals(monkeypatch):
    # the search is a pure function of (H, start): memoized here only to keep
    # the h + 3 searches of each parity-repairing connector walk cheap
    monkeypatch.setattr(TargetGraph, "parity_bfs", functools.cache(TargetGraph.parity_bfs))
    count = 0
    for target in search_targets():
        count += 1
        h = target.h
        assert target.is_connected == reference_is_connected(target)
        assert target.bipartition == reference_bipartition(target)
        for a, b, t in itertools.product(range(h), range(h), (4 * h, 4 * h + 1)):
            assert outcome(connector_walk, target, a, b, t) == outcome(
                reference_connector_walk, target, a, b, t)
        for a in range(h):
            prev = target.parity_bfs(a)
            for b in range(h):
                end = next((pair for pair in prev if pair[0] == b), None)
                walk = target.walk(prev, end) if end else (ValueError, "target graph is not connected")
                assert walk == outcome(reference_shortest_walk, target, a, b)
            odd = target.walk(prev, (a, 1)) if (a, 1) in prev else (
                ValueError, "no odd closed walk; target graph is bipartite")
            assert odd == outcome(reference_odd_closed_walk, target, a)
    assert count == 2 + 16 + 512 + 2 + 8 + 64 + 1024 + 160


def test_connector_walk_refuses_a_disconnected_target():
    two_loops = TargetGraph(((True, False), (False, True)))
    with pytest.raises(ValueError, match="target graph is not connected"):
        connector_walk(two_loops, 0, 1, 3)


def test_connector_walk_refuses_the_wrong_parity_on_a_bipartite_target():
    # 0 -> 1 takes an odd number of edges on the single edge, never two
    with pytest.raises(ValueError, match="no odd closed walk; target graph is bipartite"):
        connector_walk(EDGE, 0, 1, 2)


def test_connector_walk_refuses_to_pad_at_an_isolated_color():
    # 0 -> 0 is the empty walk; two more edges need an edge at color 0
    lone = TargetGraph(((False,),))
    with pytest.raises(ValueError, match="no edge at color 0 to pad the walk; target graph has an"):
        connector_walk(lone, 0, 0, 2)
