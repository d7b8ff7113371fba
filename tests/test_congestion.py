"""Canonical paths, connector walks, and reachability diagnostics."""

import functools
from fractions import Fraction

import pytest

from scanmix import congestion
from scanmix.congestion import (
    CongestionReport,
    _route,
    bottleneck_report,
    bottleneck_target,
    canonical_congestion,
    canonical_path,
    connector_length,
    connector_walk,
    directed_cycle,
    ergodicity_report,
    is_valid_move_path,
)
from scanmix.domain import Graph, TargetGraph, enumerate_h_colorings


K3 = TargetGraph.clique(3)
EDGE = TargetGraph.single_edge()


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


@pytest.mark.parametrize("target", [K3, TargetGraph.cycle(5), TargetGraph.clique(4)])
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
    """The pair-by-pair router: one Python path per (sigma, tau), every step
    checked with is_valid_move_path, loads kept in dicts."""
    g = Graph.path(n)
    if component == "auto":
        component = "side0" if target.is_bipartite else "all"
    states = enumerate_h_colorings(g, target, component=component)
    t = connector_length(target, n)
    h = target.h
    n_states = len(states)
    walk = functools.cache(functools.partial(congestion.connector_walk, target, t=t))

    edge_load, edge_paths = {}, {}
    valid = True
    max_len = 0
    for sigma in states:
        for tau in states:
            if sigma == tau:
                continue
            path = _route(sigma, tau, walk(sigma[-1], tau[0]), n)
            if not is_valid_move_path(path, g, target):
                valid = False
            length = len(path) - 1
            max_len = max(max_len, length)
            for a, b in zip(path, path[1:]):
                edge_load[(a, b)] = edge_load.get((a, b), 0) + length
                edge_paths[(a, b)] = edge_paths.get((a, b), 0) + 1

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
    + [(n, TargetGraph.cycle(5)) for n in range(1, 5)]
    + [(n, K3_LOOP) for n in range(1, 5)]
    + [(5, TargetGraph.cycle(4))]
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
        assert all(K.entry(i, i) >= Fraction(1, h) for i in range(len(K.states)))
        assert poincare_constant(K).beta_min >= 2 / h - 1 - 1e-12


def test_move_keys_must_fit_int64():
    # one side-0 state, but the keys code * n * h + j * h + c need 2^60 * 120
    with pytest.raises(ValueError, match="int64"):
        canonical_congestion(60, EDGE)
