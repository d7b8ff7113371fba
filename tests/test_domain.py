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
    enumerate_colorings,
    enumerate_h_colorings,
    heights,
    weighted_height_distance,
)
from scanmix.dynamics import ChainSpec
from scanmix.kernels import build_kernel
from reference import cycle, d2, geodesic, optimal_height_pair, single_edge, star, to_signs


def proper3(n):
    return enumerate_colorings(Graph.path(n), 3)


def is_proper(g, q, coloring):
    """Reference check: q colors, and the ends of every edge differ."""
    if len(coloring) != g.n or any(not (0 <= c < q) for c in coloring):
        return False
    return all(coloring[u - 1] != coloring[v - 1] for u, v in g.edges)


def cyclic_shift(coloring, s):
    """Add s to every color mod 3."""
    return tuple((c + s) % 3 for c in coloring)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 4)}))
    g = Graph.path(5)
    assert g.kind == "path"
    assert g.adjacency[1] == (2,) and g.adjacency[3] == (2, 4)
    assert star(4).max_degree == 3
    assert Graph.path(1).edges == frozenset()


def test_graph_text_roundtrip():
    g = star(4)
    assert Graph.from_text("# a star\n1 2\n1 3\n\n1 4\n", n=4) == g
    assert Graph.from_text("2 3\n1 2\n") == Graph.path(3)


def test_kind_is_read_from_the_edges():
    """A graph given by its edges is the path exactly when the edges are
    {(i, i+1)}: equal to Graph.path, with the same kernels."""
    g = Graph(3, {(1, 2), (2, 3)})
    assert g == Graph.path(3) and g.kind == "path"
    assert Graph(3, {(1, 2), (1, 3)}).kind == "general"
    assert Graph(1, frozenset()).kind == "path"
    a = build_kernel(ChainSpec(graph=g, target=cycle(4)))
    b = build_kernel(ChainSpec(graph=Graph.path(3), target=cycle(4)))
    assert len(a.states) == len(b.states) == 8
    assert a.states == b.states and a.rows == b.rows


def test_target_graph_basics():
    K3 = TargetGraph.clique(3)
    assert K3.h == 3 and K3.is_connected and not K3.is_bipartite
    edge = single_edge()
    assert edge.is_bipartite and edge.bipartition[0] == frozenset({0})
    C5 = cycle(5)
    assert not C5.is_bipartite and C5.is_connected
    C4 = cycle(4)
    assert C4.is_bipartite
    with pytest.raises(ValueError):
        TargetGraph(((False, True), (False, False)))  # asymmetric undirected
    loop = TargetGraph(((True,),))
    assert loop.allows(0, 0) and not loop.is_bipartite
    assert TargetGraph.from_text("011\n1 0 1\n# comment\n110") == K3


@pytest.mark.parametrize("text,line", [
    ("0 1 1\n1 0 2\n1 2 0\n", 2), ("011\n1O1\n110\n", 2), ("# H\n0,1\n1,0\n", 2),
    ("011\n101\n110 # K3\n", 3),
])
def test_h_text_refuses_characters_other_than_0_1_and_whitespace(text, line):
    """A character other than 0, 1 or whitespace used to read as 0, giving
    another H; it is refused, naming its line.  Tabs separate like spaces."""
    with pytest.raises(ValueError, match=f"H line {line} "):
        TargetGraph.from_text(text)
    assert TargetGraph.from_text("0\t1\t1\n1 0\t1\n 1 1 0 \n") == TargetGraph.clique(3)


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
    assert len(enumerate_h_colorings(Graph.path(3), cycle(5))) == 20
    edge = single_edge()
    side0 = enumerate_h_colorings(g2, edge, component="side0")
    assert side0 == [(0, 1)]
    with pytest.raises(ValueError):
        enumerate_h_colorings(g2, TargetGraph.clique(3), component="side0")


def test_enumerate_h_brute_force_cross_check():
    g = Graph.path(3)
    C5 = cycle(5)
    brute = [
        c
        for c in itertools.product(range(5), repeat=3)
        if C5.allows(c[0], c[1]) and C5.allows(c[1], c[2])
    ]
    assert enumerate_h_colorings(g, C5) == brute


# The two recursive enumerators the vertex-by-vertex builder replaced, kept
# as references (without their a-priori budgets).

def reference_colorings(g, q):
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
    + [star(n) for n in range(2, 7)]
    + [Graph(5, {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)})]
)


def test_builder_matches_the_recursive_clique_enumerator():
    for g in REFERENCE_GRAPHS:
        for q in (2, 3, 4):
            assert enumerate_colorings(g, q) == reference_colorings(g, q), (g, q)


def test_builder_matches_the_recursive_h_enumerator():
    targets = [
        TargetGraph.clique(3), TargetGraph.clique(4), cycle(5),
        cycle(6), single_edge(),
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
    assert cases == 7274


def test_budget_bounds_the_largest_level():
    # on a path the last level is the largest: 3 * 2^7 = 384 proper 3-colorings
    assert len(enumerate_colorings(Graph.path(8), 3, budget=384)) == 384
    with pytest.raises(BudgetExceededError):
        enumerate_colorings(Graph.path(8), 3, budget=383)
    # 5 * 2^7 = 640 homomorphisms into C5, although 5^8 is far larger
    assert len(enumerate_h_colorings(Graph.path(8), cycle(5), budget=640)) == 640
    with pytest.raises(BudgetExceededError):
        enumerate_h_colorings(Graph.path(8), cycle(5), budget=639)


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


@pytest.mark.parametrize("bad", [(0, 0, 1), (0, 3, 1), (0, -1, 1)])
def test_heights_reject_improper(bad):
    """heights refuses an improper coloring, alone or anywhere in a batch."""
    with pytest.raises(ImproperColoringError):
        heights(bad)
    with pytest.raises(ImproperColoringError):
        heights([(0, 1, 2), bad])


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
    assert heights([(0, 1, 2), (0, 2, 1)]).tolist() == [[3, 4, 5], [3, 2, 1]]


def test_height_invariants():
    X = np.array(proper3(6))
    H = heights(X)
    assert (H % 2 == np.arange(1, 7) % 2).all() and (H % 3 == X % 3).all()
    assert (np.abs(np.diff(H)) == 1).all() and ((0 <= H[:, 0]) & (H[:, 0] <= 5)).all()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

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
                nd = d + weights.weights[v]
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


def test_geodesic_witnesses():
    w = VertexWeights.glauber_q3(4)
    s = (0, 1, 0, 1)
    assert geodesic(s, s, w) == [s]
    path = geodesic(s, (0, 1, 2, 1), w)
    assert path == [s, (0, 1, 2, 1)]
    shift = cyclic_shift((0, 1, 2, 0), 1)
    path = geodesic((0, 1, 2, 0), shift, w)
    cost = sum(
        w.weights[next(v for v in range(4) if a[v] != b[v])]
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
    "uniform": lambda n: VertexWeights((1,) * n),
    "thirds": lambda n: VertexWeights(tuple(Fraction(k % 5 + 1, 3) for k in range(n))),
}


@pytest.mark.parametrize("preset", sorted(WEIGHT_SETS))
def test_integer_metric_matches_fraction_reference(preset):
    """(h, h*, value) of every ordered pair, n = 2..7, equal the Fraction
    code's: from the batched routine at every pair (h* is h*'s heights
    plus the shift), and from the reference optimal_height_pair at every pair
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
    with pytest.raises(ValueError):
        VertexWeights((0, 1))


def test_weight_presets_are_shared_and_read_only():
    """One preset instance per n, so its numerators are computed once and
    can be written by no caller."""
    for preset in (VertexWeights.glauber_q3, VertexWeights.scan_q3):
        w = preset(5)
        assert preset(5) is w and preset(6) is not w
        with pytest.raises(ValueError):
            w.numerators[0] = 7


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
