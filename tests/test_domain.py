"""Colorings, encodings, and the two path metrics."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanmix.domain import (
    BudgetExceededError,
    Graph,
    ImproperColoringError,
    TargetGraph,
    VertexWeights,
    coloring_from_text,
    coloring_to_text,
    cyclic_shift,
    d1,
    d2,
    enumerate_colorings,
    enumerate_h_colorings,
    from_signs,
    geodesic,
    height_of,
    heights,
    is_proper,
    optimal_height_pair,
    to_signs,
    weighted_height_distance,
)


def proper3(n):
    return enumerate_colorings(Graph.path(n), 3)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 4)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 3)}), kind="path")
    g = Graph.path(5)
    assert g.kind == "path"
    assert g.adjacency[1] == (2,) and g.adjacency[3] == (2, 4)
    assert Graph.star(4).max_degree == 3
    assert Graph.path(1).edges == frozenset()


def test_graph_text_roundtrip():
    g = Graph.star(4)
    assert Graph.from_text(g.to_text(), n=4) == g
    # path detection from edges
    assert Graph.from_edges(3, [(2, 3), (1, 2)]).kind == "path"


def test_target_graph_basics():
    K3 = TargetGraph.clique(3)
    assert K3.h == 3 and K3.is_connected and not K3.is_bipartite
    edge = TargetGraph.single_edge()
    assert edge.is_bipartite and edge.bipartition[0] == frozenset({0})
    C5 = TargetGraph.cycle(5)
    assert not C5.is_bipartite and C5.is_connected
    C4 = TargetGraph.cycle(4)
    assert C4.is_bipartite
    with pytest.raises(ValueError):
        TargetGraph(((False, True), (False, False)))  # asymmetric undirected
    loop = TargetGraph(((True,),))
    assert loop.allows(0, 0) and not loop.is_bipartite
    assert TargetGraph.from_text(K3.to_text()) == K3


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,q,expected",
    [(4, 3, 24), (1, 3, 3), (3, 4, 36)],
)
def test_enumerate_proper_counts(n, q, expected):
    states = enumerate_colorings(Graph.path(n), q)
    assert len(states) == expected
    assert states == sorted(states)
    assert all(is_proper(Graph.path(n), q, s) for s in states)


def test_enumerate_matches_closed_count():
    for n in range(1, 7):
        for q in (3, 4):
            assert len(enumerate_colorings(Graph.path(n), q)) == q * (q - 1) ** (n - 1)


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_colorings(Graph.path(30), 3, budget=1000)


def test_enumerate_h_colorings():
    g2 = Graph.path(2)
    assert len(enumerate_h_colorings(g2, TargetGraph.clique(3))) == 6
    assert len(enumerate_h_colorings(Graph.path(3), TargetGraph.cycle(5))) == 20
    edge = TargetGraph.single_edge()
    side0 = enumerate_h_colorings(g2, edge, component="side0")
    assert side0 == [(0, 1)]
    with pytest.raises(ValueError):
        enumerate_h_colorings(g2, TargetGraph.clique(3), component="side0")


def test_enumerate_h_brute_force_cross_check():
    g = Graph.path(3)
    C5 = TargetGraph.cycle(5)
    brute = [
        c
        for c in itertools.product(range(5), repeat=3)
        if C5.allows(c[0], c[1]) and C5.allows(c[1], c[2])
    ]
    assert enumerate_h_colorings(g, C5) == brute


# The two recursive enumerators the vertex-by-vertex builder replaced, kept
# as references (without their a-priori budgets).

def reference_colorings(g, q, proper_only=True):
    if not proper_only:
        return [tuple(c) for c in itertools.product(range(q), repeat=g.n)]
    out = []
    partial = [0] * g.n

    def extend(v):
        if v > g.n:
            out.append(tuple(partial))
            return
        for c in range(q):
            if all(partial[u - 1] != c for u in g.adjacency[v] if u < v):
                partial[v - 1] = c
                extend(v + 1)

    extend(1)
    return out


def reference_h_colorings(g, target, component="all"):
    out = []
    partial = [0] * g.n

    def extend(v):
        if v > g.n:
            out.append(tuple(partial))
            return
        for c in range(target.h):
            if all(target.allows(partial[u - 1], c) for u in g.adjacency[v] if u < v):
                partial[v - 1] = c
                extend(v + 1)

    extend(1)
    if component == "all":
        return out
    side0, _side1 = target.bipartition
    keep0 = component == "side0"
    return [c for c in out if (c[0] in side0) == keep0]


REFERENCE_GRAPHS = (
    [Graph.path(n) for n in range(1, 9)]
    + [Graph.star(n) for n in range(2, 7)]
    + [Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])]
)


def test_builder_matches_the_recursive_clique_enumerator():
    for g in REFERENCE_GRAPHS:
        for q in (2, 3, 4):
            for proper_only in (True, False):
                assert enumerate_colorings(g, q, proper_only=proper_only) == (
                    reference_colorings(g, q, proper_only)
                ), (g, q, proper_only)


def test_builder_matches_the_recursive_h_enumerator():
    targets = [
        TargetGraph.clique(3), TargetGraph.clique(4), TargetGraph.cycle(5),
        TargetGraph.cycle(6), TargetGraph.single_edge(),
    ]
    for bits in itertools.product("01", repeat=9):
        text = "\n".join("".join(bits[3 * i:3 * i + 3]) for i in range(3))
        targets.append(TargetGraph.from_text(text, directed=True))
    cases = 0
    for g in REFERENCE_GRAPHS:
        for target in targets:
            components = ["all"]
            if target.is_bipartite and g.kind == "path":
                components += ["side0", "side1"]
            for component in components:
                assert enumerate_h_colorings(g, target, component=component) == (
                    reference_h_colorings(g, target, component)
                ), (g, target, component)
                cases += 1
    assert cases == 7270


def test_budget_bounds_the_largest_level():
    # on a path the last level is the largest: 3 * 2^7 = 384 proper 3-colorings
    assert len(enumerate_colorings(Graph.path(8), 3, budget=384)) == 384
    with pytest.raises(BudgetExceededError):
        enumerate_colorings(Graph.path(8), 3, budget=383)
    # 5 * 2^7 = 640 homomorphisms into C5, although 5^8 is far larger
    assert len(enumerate_h_colorings(Graph.path(8), TargetGraph.cycle(5), budget=640)) == 640
    with pytest.raises(BudgetExceededError):
        enumerate_h_colorings(Graph.path(8), TargetGraph.cycle(5), budget=639)


# ---------------------------------------------------------------------------
# signs and heights
# ---------------------------------------------------------------------------

def test_to_signs_examples():
    assert to_signs((0, 1, 2, 0)) == (1, 1, 1)
    assert to_signs((0, 2, 1, 0)) == (-1, -1, -1)
    assert to_signs((1, 2, 0, 1)) == to_signs((0, 1, 2, 0))


def test_to_signs_rejects_improper():
    with pytest.raises(ImproperColoringError):
        to_signs((0, 0, 1))
    with pytest.raises(ImproperColoringError):
        to_signs((0, 3, 1))


def test_sign_fibers_are_cyclic_shifts():
    for n in (3, 5):
        groups = {}
        for s in proper3(n):
            groups.setdefault(to_signs(s), set()).add(s)
        for sig, fiber in groups.items():
            assert len(fiber) == 3
            rep = next(iter(fiber))
            assert fiber == {cyclic_shift(rep, k) for k in range(3)}


def test_height_examples():
    assert height_of((0, 1, 2)) == (3, 4, 5)
    assert height_of((0, 2, 1)) == (3, 2, 1)


def test_height_invariants():
    for s in proper3(6):
        h = height_of(s)
        signs = to_signs(s)
        assert all(hi % 2 == (i + 1) % 2 for i, hi in enumerate(h))
        assert all(h[i] % 3 == s[i] % 3 for i in range(len(s)))
        assert all(h[i + 1] - h[i] == signs[i] for i in range(len(signs)))
        assert 0 <= h[0] <= 5


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 9), st.randoms())
def test_from_signs_roundtrip(n, rnd):
    colors = [rnd.randrange(3)]
    for _ in range(n - 1):
        colors.append((colors[-1] + rnd.choice((1, 2))) % 3)
    sigma = tuple(colors)
    assert from_signs(to_signs(sigma), sigma[0]) == sigma


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_d1_examples():
    s = (0, 1, 2, 0)
    assert d1(s, s) == 0
    assert d1(s, cyclic_shift(s, 1)) == 0
    assert d1(s, (0, 1, 2, 1)) == 1
    with pytest.raises(ValueError):
        d1(s, (0, 1, 2))


def test_d2_examples():
    w = VertexWeights.glauber_q3(4)
    s = (0, 1, 2, 0)
    assert d2(s, s, w) == 0
    assert d2(s, cyclic_shift(s, 1), w) == 3  # n - 1
    assert d2((0, 1, 0, 1), (0, 1, 2, 1), w) == 1
    for n in (5, 6):
        wn = VertexWeights.glauber_q3(n)
        s = tuple(i % 3 for i in range(n))
        assert d2(s, cyclic_shift(s, 1), wn) == n - 1


def _dijkstra_all(src, states, weights):
    import heapq

    n = len(src)
    dist = {src: Fraction(0)}
    pq = [(Fraction(0), 0, src)]
    counter = 1
    while pq:
        d, _, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        for v in range(n):
            for c in range(3):
                if c == u[v]:
                    continue
                if v > 0 and u[v - 1] == c:
                    continue
                if v < n - 1 and u[v + 1] == c:
                    continue
                t = u[:v] + (c,) + u[v + 1:]
                nd = d + weights[v]
                if t not in dist or nd < dist[t]:
                    dist[t] = nd
                    heapq.heappush(pq, (nd, counter, t))
                    counter += 1
    return dist


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("preset", ["glauber_q3", "scan_q3"])
def test_d2_equals_move_graph_distance_exhaustive(n, preset):
    """The height-pair formula equals the weighted move-graph metric."""
    weights = getattr(VertexWeights, preset)(n)
    states = proper3(n)
    for src in states:
        dist = _dijkstra_all(src, states, weights)
        for dst in states:
            assert d2(src, dst, weights) == dist[dst]


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("preset", ["glauber_q3", "scan_q3"])
def test_d2_is_a_metric_exhaustive(n, preset):
    """Symmetry and the triangle inequality over every state triple."""
    import numpy as np
    from scanmix.coupling import PathMetricTables

    tables = PathMetricTables(n, getattr(VertexWeights, preset)(n))
    D = tables.d2_int.astype(np.int64)
    assert (D == D.T).all()
    assert (np.diag(D) == 0).all() and (D + np.eye(len(D), dtype=np.int64) > 0).all()
    for b in range(len(D)):
        assert (D[:, b][:, None] + D[b, :][None, :] >= D).all()


def test_d2_cyclic_shift_invariance():
    n = 5
    w = VertexWeights.glauber_q3(n)
    states = proper3(n)[::5]
    for a in states:
        for b in states:
            for k in (1, 2):
                assert d2(cyclic_shift(a, k), cyclic_shift(b, k), w) == d2(a, b, w)
                assert d1(cyclic_shift(a, k), cyclic_shift(b, k)) == d1(a, b)


def test_geodesic_witnesses():
    w = VertexWeights.glauber_q3(4)
    s = (0, 1, 0, 1)
    assert geodesic(s, s, w) == [s]
    path = geodesic(s, (0, 1, 2, 1), w)
    assert path == [s, (0, 1, 2, 1)]
    shift = cyclic_shift((0, 1, 2, 0), 1)
    path = geodesic((0, 1, 2, 0), shift, w)
    cost = sum(
        w[next(v for v in range(4) if a[v] != b[v])]
        for a, b in zip(path, path[1:])
    )
    assert cost == 3
    for a, b in zip(path, path[1:]):
        assert sum(x != y for x, y in zip(a, b)) == 1


def test_optimal_height_pair_attains_metric():
    n = 6
    w = VertexWeights.scan_q3(n)
    states = proper3(n)[::7]
    for a in states:
        for b in states:
            h, hstar, val = optimal_height_pair(a, b, w)
            assert val == d2(a, b, w)
            assert sum(wi * abs(x - y) for wi, x, y in zip(w.weights, h, hstar)) / 2 == val


# The Fraction metric that weighted_height_distance replaced, kept as the
# reference: heights from the sign encoding, the weighted median of the
# height differences, and the multiples of 6 around it.

def _reference_height(coloring):
    signs = to_signs(coloring)
    h1 = next(h for h in range(6) if h % 2 == 1 and h % 3 == coloring[0] % 3)
    out = [h1]
    for s in signs:
        out.append(out[-1] + s)
    return tuple(out)


def _reference_weighted_median(values, weights):
    items = sorted(zip(values, weights.weights))
    total = sum(w for _, w in items)
    acc = Fraction(0)
    for v, w in items:
        acc += w
        if 2 * acc >= total:
            return v
    return items[-1][0]


def _reference_shift(diffs, weights):
    """(value, shift) of the Fraction code; a function of the differences."""
    med = _reference_weighted_median(diffs, weights)
    s0 = 6 * math.floor(Fraction(med, 6))
    best = None
    for s in (s0 - 6, s0, s0 + 6):
        val = sum(w * abs(d - s) for d, w in zip(diffs, weights.weights)) / 2
        if best is None or val < best[0]:
            best = (val, s)
    return best


WEIGHT_SETS = {
    "glauber_q3": VertexWeights.glauber_q3,
    "scan_q3": VertexWeights.scan_q3,
    "uniform": VertexWeights.uniform,
    "thirds": lambda n: VertexWeights(tuple(Fraction(k % 5 + 1, 3) for k in range(n))),
}


@pytest.mark.parametrize("preset", sorted(WEIGHT_SETS))
def test_integer_metric_matches_fraction_reference(preset):
    """(h, h*, value) of every ordered pair, n = 2..7, equal the Fraction
    code's: from the batched routine at every pair (h* is h*'s heights
    plus the shift), and from the public optimal_height_pair at every pair
    up to n = 5.  The reference runs once per distinct difference profile."""
    for n in range(2, 8):
        w = WEIGHT_SETS[preset](n)
        states = proper3(n)
        ref_h = [_reference_height(s) for s in states]
        H = heights(states)
        assert H.tolist() == [list(h) for h in ref_h]
        value, shift = weighted_height_distance(H[:, None], H[None], w.numerators)
        profiles, inverse = np.unique((H[:, None] - H[None]).reshape(-1, n), axis=0, return_inverse=True)
        ref = [_reference_shift(tuple(d), w) for d in profiles.tolist()]
        ref = [ref[k] for k in inverse.ravel()]  # (value, shift) of pair i * S + j
        unit = 2 * w.denominator
        assert [Fraction(v, unit) for v in value.ravel().tolist()] == [v for v, _ in ref]
        assert shift.ravel().tolist() == [s for _, s in ref]
        if n <= 5:
            for (val, s), (i, j) in zip(ref, itertools.product(range(len(states)), repeat=2)):
                want = (ref_h[i], tuple(x + s for x in ref_h[j]), val)
                assert optimal_height_pair(states[i], states[j], w) == want


def test_geodesic_budget_counts_proper_colorings():
    """The budget bounds the 3 * 2^(n-1) proper colorings, not 3^n."""
    n = 8
    w = VertexWeights.glauber_q3(n)
    sigma = tuple(i % 3 for i in range(n))
    tau = cyclic_shift(sigma, 1)
    path = geodesic(sigma, tau, w, budget=384)
    assert path[0] == sigma and path[-1] == tau
    with pytest.raises(BudgetExceededError):
        geodesic(sigma, tau, w, budget=383)


# ---------------------------------------------------------------------------
# weights and serialization
# ---------------------------------------------------------------------------

def test_vertex_weights():
    g = VertexWeights.glauber_q3(5)
    assert g.weights == (Fraction(1, 2), 1, 1, 1, Fraction(1, 2))
    s = VertexWeights.scan_q3(5)
    assert s.weights == (Fraction(1, 4), 1, 1, 1, Fraction(3, 4))
    assert s.w_min == Fraction(1, 4)
    with pytest.raises(ValueError):
        VertexWeights((0, 1))


def test_coloring_text_roundtrip():
    s = (0, 2, 1, 0)
    assert coloring_from_text(coloring_to_text(s)) == s


def test_geodesic_budget():
    with pytest.raises(BudgetExceededError):
        geodesic((0, 1) * 10, (1, 0) * 10, VertexWeights.glauber_q3(20), budget=100)


@settings(max_examples=40, deadline=None)
@given(st.integers(7, 9), st.randoms())
def test_d2_symmetry_and_triangle_random(n, rnd):
    """Metric axioms on random triples beyond the exhaustive sizes."""
    w = VertexWeights.scan_q3(n)

    def random_proper():
        colors = [rnd.randrange(3)]
        for _ in range(n - 1):
            colors.append((colors[-1] + rnd.choice((1, 2))) % 3)
        return tuple(colors)

    a, b, c = random_proper(), random_proper(), random_proper()
    assert d2(a, b, w) == d2(b, a, w)
    assert d2(a, c, w) <= d2(a, b, w) + d2(b, c, w)
    assert (d2(a, b, w) == 0) == (a == b)
