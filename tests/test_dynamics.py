"""Update kernels, tape reproducibility, and the sign chains."""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from numpy.random import Generator, Philox

from scanmix.congestion import bottleneck_target, directed_cycle
from scanmix.domain import (
    PAD,
    Graph,
    TargetGraph,
    accepted_colors,
    enumerate_colorings,
    pad,
    path_accepts,
)
from scanmix.dynamics import (
    CH_SCAN,
    ChainSpec,
    RandomTape,
    metropolis_update,
    proposal_accepted,
    sign_move,
)
from scanmix.kernels import build_kernel
from reference import (
    cycle,
    glauber_step,
    scan_sweep,
    sign_step,
    sign_sweep_from_decisions,
    star,
    to_signs,
)
from test_kernels import entry


def test_chain_spec_validation():
    g = Graph.path(4)
    with pytest.raises(ValueError):
        ChainSpec(graph=g)  # neither model
    with pytest.raises(ValueError):
        ChainSpec(graph=g, q=3, target=TargetGraph.clique(3))
    with pytest.raises(ValueError, match="unknown base"):
        ChainSpec(graph=g, q=3, base="lazy_scan")
    with pytest.raises(ValueError):
        ChainSpec(graph=g, q=3, clamp=frozenset({9}))
    with pytest.raises(ValueError):
        ChainSpec(graph=g, q=1)


def test_metropolis_examples():
    spec = ChainSpec(graph=Graph.path(3), q=3)
    assert metropolis_update((0, 1, 0), 2, 2, spec) == (0, 2, 0)
    assert metropolis_update((0, 1, 0), 2, 0, spec) == (0, 1, 0)
    with pytest.raises(ValueError):
        metropolis_update((0, 1, 0), 4, 0, spec)
    with pytest.raises(ValueError):
        metropolis_update((0, 1, 0), 1, 3, spec)


def test_metropolis_five_cycle():
    # proposals against a 5-cycle constraint: a color is accepted iff the
    # neighbor's color is adjacent to it on the cycle
    spec = ChainSpec(graph=Graph.path(2), target=cycle(5))
    # neighbor colored 1: color 4 is not adjacent to 1, and 1 itself would
    # need a self-loop, so both proposals leave the coloring alone
    assert metropolis_update((0, 1), 1, 4, spec) == (0, 1)
    assert metropolis_update((0, 1), 1, 1, spec) == (0, 1)
    # neighbor colored 0: 4 is adjacent to 0, so it is accepted at vertex 2
    assert metropolis_update((0, 1), 2, 4, spec) == (0, 4)


def test_metropolis_improper_rule():
    # from an improper state, a move creating an equal adjacent pair is
    # still rejected (acceptance only ever looks at neighbor colors)
    spec = ChainSpec(graph=Graph.path(3), q=4)
    improper = (0, 0, 1)
    assert metropolis_update(improper, 3, 1, spec) == improper  # ...001 -> ...011 blocked
    assert metropolis_update(improper, 2, 2, spec) == (0, 2, 1)


def test_clamped_vertex_is_frozen():
    spec = ChainSpec(graph=Graph.path(3), q=3, clamp=frozenset({2}))
    assert metropolis_update((0, 1, 0), 2, 2, spec) == (0, 1, 0)


def test_directed_acceptance():
    # directed 3-cycle: color c at an interior vertex needs arcs from the
    # left color into c and from c into the right color
    adj = [[False] * 3 for _ in range(3)]
    adj[0][1] = adj[1][2] = adj[2][0] = True
    H = TargetGraph(tuple(tuple(r) for r in adj), directed=True)
    spec = ChainSpec(graph=Graph.path(3), target=H)
    sigma = (0, 1, 2)
    for v in (1, 2, 3):
        for c in range(3):
            if c != sigma[v - 1]:
                assert metropolis_update(sigma, v, c, spec) == sigma


def reference_proposal_accepted(spec, sigma, v, c):
    """The three-branch rule that one orientation rule replaced: clique,
    undirected H, and directed H with in-neighbours u < v."""
    nbrs = spec.graph.adjacency[v]
    if spec.q is not None:
        return all(sigma[u - 1] != c for u in nbrs)
    t = spec.target
    if not t.directed:
        return all(t.allows(sigma[u - 1], c) for u in nbrs)
    for u in nbrs:
        if u < v:
            if not t.allows(sigma[u - 1], c):
                return False
        else:
            if not t.allows(c, sigma[u - 1]):
                return False
    return True


def _rules_agree(spec):
    """Every state (improper ones included), vertex and color."""
    n, h = spec.graph.n, spec.n_colors
    return all(
        proposal_accepted(spec, s, v, c) == reference_proposal_accepted(spec, s, v, c)
        for s in itertools.product(range(h), repeat=n)
        for v in range(1, n + 1)
        for c in range(h)
    )


def _batch_rule_agrees(spec):
    """``_rules_agree`` with one ``accepted_colors`` call per vertex over
    every state, and one ``proposal_accepted`` check per vertex."""
    g, h = spec.graph, spec.n_colors
    X = np.array(list(itertools.product(range(h), repeat=g.n)))
    for v in range(1, g.n + 1):
        want = [[reference_proposal_accepted(spec, s, v, c) for c in range(h)] for s in X.tolist()]
        if accepted_colors(g, spec.model.allows_matrix, X, v).tolist() != want:
            return False
        s, c = tuple(X[-v].tolist()), v % h
        if proposal_accepted(spec, s, v, c) != want[-v][c]:
            return False
    return True


RULE_GRAPHS = [
    Graph.path(4), star(4), Graph(5, {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)})
]
K3_LOOP = TargetGraph(((True, True, True), (True, False, True), (True, True, False)))


@pytest.mark.parametrize("g", RULE_GRAPHS, ids=lambda g: f"{g.kind}{g.n}-{len(g.edges)}")
def test_one_rule_matches_the_three_branch_rule(g):
    for q in (2, 3, 4):
        assert _rules_agree(ChainSpec(graph=g, q=q))
        assert _rules_agree(ChainSpec(graph=g, target=TargetGraph.clique(q)))
    for target in (cycle(5), K3_LOOP):
        assert _rules_agree(ChainSpec(graph=g, target=target))


@pytest.mark.parametrize("g", [Graph.path(4), star(4)], ids=["path4", "star4"])
def test_one_rule_matches_the_three_branch_rule_on_directed_h(g):
    checked = 0
    for bits in itertools.product("01", repeat=9):
        text = "\n".join("".join(bits[3 * i:3 * i + 3]) for i in range(3))
        target = TargetGraph.from_text(text, directed=True)
        if target.is_connected:
            assert _batch_rule_agrees(ChainSpec(graph=g, target=target)), text
            checked += 1
    assert checked == 432


C4 = Graph(4, {(1, 2), (2, 3), (3, 4), (1, 4)})
MASK_MODELS = [dict(q=3), dict(q=4), dict(target=cycle(5)), dict(target=directed_cycle(3)),
               dict(target=bottleneck_target(1))]


@pytest.mark.parametrize("model", MASK_MODELS, ids=["K3", "K4", "C5", "directed_C3", "bottleneck"])
@pytest.mark.parametrize("g", [Graph.path(4), star(4), C4], ids=["path4", "star4", "C4"])
def test_batch_mask_matches_the_scalar_reference(g, model):
    """On the batch of every coloring, proper or not, ``accepted_colors`` is
    the three-branch rule at every vertex and color; on the batch of every
    prefix 1..v - 1 it is the earlier-neighbour filter the enumerator used."""
    spec = ChainSpec(graph=g, **model)
    h, allows = spec.n_colors, np.array(spec.model.adjacency)
    X = np.array(list(itertools.product(range(h), repeat=g.n)))
    for v in range(1, g.n + 1):
        want = [[reference_proposal_accepted(spec, s, v, c) for c in range(h)] for s in X.tolist()]
        assert accepted_colors(g, allows, X, v).tolist() == want, v
        prefixes = np.unique(X[:, :v - 1], axis=0)
        want = [[all(allows[p[u - 1], c] for u in g.adjacency[v] if u < v) for c in range(h)]
                for p in prefixes.tolist()]
        assert accepted_colors(g, allows, prefixes, v).tolist() == want, v


def test_glauber_empirical_matches_kernel_row():
    g = Graph.path(4)
    spec = ChainSpec(graph=g, q=3)
    kernel = build_kernel(spec)
    sigma = (0, 1, 2, 0)
    tape = RandomTape(20240)
    draws = 60_000
    counts = Counter()
    for t in range(draws):
        counts[glauber_step(sigma, spec, tape, rep=0, step=t)] += 1
    i = kernel.states.index(sigma)
    for tau, cnt in counts.items():
        p = float(entry(kernel, i, kernel.states.index(tau)))
        se = (p * (1 - p) / draws) ** 0.5
        assert abs(cnt / draws - p) <= 3 * se + 1e-9


def test_transition_probability_is_one_over_nq():
    spec = ChainSpec(graph=Graph.path(4), q=3)
    kernel = build_kernel(spec)
    offdiag = {
        entry(kernel, i, j)
        for i in range(len(kernel.states))
        for j in kernel.rows[i]
        if i != j
    }
    assert offdiag == {Fraction(1, 12)}


def test_scan_one_sweep_brute_force():
    # n=2, q=3: enumerate all 9 proposal pairs and compare with the kernel
    g = Graph.path(2)
    spec = ChainSpec(graph=g, q=3, base="scan")
    kernel = build_kernel(spec)
    sigma = (0, 1)
    dist = Counter()
    for c1 in range(3):
        for c2 in range(3):
            out = metropolis_update(sigma, 1, c1, spec)
            out = metropolis_update(out, 2, c2, spec)
            dist[out] += 1
    i = kernel.states.index(sigma)
    for tau, cnt in dist.items():
        assert entry(kernel, i, kernel.states.index(tau)) == Fraction(cnt, 9)


def test_lazy_glauber_halves_movement():
    g = Graph.path(3)
    lazy = build_kernel(ChainSpec(graph=g, q=3, base="lazy"))
    plain = build_kernel(ChainSpec(graph=g, q=3))
    for i in range(len(plain.states)):
        for j in range(len(plain.states)):
            if i != j:
                assert entry(lazy, i, j) == entry(plain, i, j) / 2


def test_tape_reproducibility():
    tape1 = RandomTape(7)
    tape2 = RandomTape(7)
    spec = ChainSpec(graph=Graph.path(6), q=3, base="scan")
    sigma = (0, 1, 2, 0, 1, 2)
    run1 = [sigma := scan_sweep(sigma, spec, tape1, rep=3, sweep=t) for t in range(20)]
    sigma = (0, 1, 2, 0, 1, 2)
    run2 = [sigma := scan_sweep(sigma, spec, tape2, rep=3, sweep=t) for t in range(20)]
    assert run1 == run2
    assert tape1.uniforms(1, 2, CH_SCAN, 5).tolist() == tape2.uniforms(1, 2, CH_SCAN, 5).tolist()
    assert tape1.uniforms(1, 2, CH_SCAN, 5).tolist() != RandomTape(8).uniforms(1, 2, CH_SCAN, 5).tolist()
    # draws are pure functions of the coordinates, independent of call order
    a = tape1.uniforms(5, 9, CH_SCAN, 3)[2]
    _ = tape1.uniforms(0, 0, CH_SCAN, 3)
    assert tape1.uniforms(5, 9, CH_SCAN, 3)[2] == a


def test_clamped_scan_tape_alignment():
    # clamping a vertex must not shift the draws other vertices consume
    g = Graph.path(5)
    tape = RandomTape(99)
    free = ChainSpec(graph=g, q=3, base="scan")
    clamped = ChainSpec(graph=g, q=3, base="scan", clamp=frozenset({3}))
    sigma = (0, 1, 2, 0, 1)
    out_free = scan_sweep(sigma, free, tape, 0, 0)
    out_clamped = scan_sweep(sigma, clamped, tape, 0, 0)
    assert out_clamped[2] == sigma[2]
    # rebuild the clamped sweep by hand from the same draw block
    u = tape.uniforms(0, 0, CH_SCAN, 5)
    manual = sigma
    for v in range(1, 6):
        c = min(int(u[v - 1] * 3), 2)
        if v != 3:
            manual = metropolis_update(manual, v, c, free)
    assert manual == out_clamped
    assert out_free != out_clamped or sigma[2] == out_free[2]


def test_chains_stay_proper():
    for q in (3, 4):
        g = Graph.path(6)
        for base in ("glauber", "scan"):
            spec = ChainSpec(graph=g, q=q, base=base)
            states = enumerate_colorings(g, q)
            proper = set(states)
            for s in states:
                for v in range(1, 7):
                    for c in range(q):
                        assert metropolis_update(s, v, c, spec) in proper


def test_reverse_scan_order():
    g = Graph.path(3)
    spec = ChainSpec(graph=g, q=3, base="reverse_scan")
    # a deterministic trace: vertex 3 updates before vertex 1
    tape = RandomTape(1)
    out = scan_sweep((0, 1, 2), spec, tape, 0, 0)
    u = tape.uniforms(0, 0, CH_SCAN, 3)
    manual = (0, 1, 2)
    for v in (3, 2, 1):
        manual = metropolis_update(manual, v, min(int(u[v - 1] * 3), 2), spec)
    assert out == manual


# ---------------------------------------------------------------------------
# sign chains
# ---------------------------------------------------------------------------

def test_sign_sweep_flip_first():
    assert sign_sweep_from_decisions((1, 1, 1), [True, False, False, False]) == (-1, 1, 1)
    # swap of equal adjacent signs is a no-op
    assert sign_sweep_from_decisions((1, 1, -1), [False, True, False, False]) == (1, 1, -1)
    assert sign_sweep_from_decisions((1, -1, 1), [False, True, False, False]) == (-1, 1, 1)
    # last decision flips the last coordinate
    assert sign_sweep_from_decisions((1, 1, 1), [False, False, False, True]) == (1, 1, -1)


def test_sign_step_matches_decision_semantics():
    tape = RandomTape(5)
    x = (1, -1, 1, -1)
    out = sign_step(x, "scan", tape, rep=0, t=0)
    u = tape.uniforms(0, 0, 2, 5)
    assert out == sign_sweep_from_decisions(x, [ui < 1 / 3 for ui in u])
    with pytest.raises(ValueError):
        sign_step((1, 0, 1), "scan", tape)


def test_sign_pushforward_one_step():
    """One coloring-space sweep then project == project then one sign sweep.

    Exhausted over all proposal draws (mapped to move decisions) and states.
    """
    n = 4
    g = Graph.path(n)
    spec = ChainSpec(graph=g, q=3, base="scan")
    for sigma in enumerate_colorings(g, 3):
        for props in itertools.product(range(3), repeat=n):
            out = sigma
            decisions = []
            for v in range(1, n + 1):
                before = out
                out = metropolis_update(out, v, props[v - 1], spec)
                decisions.append(out != before)
            # a coloring move happened exactly when the sign move fired
            assert to_signs(out) == sign_sweep_from_decisions(to_signs(sigma), decisions)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    rep=st.integers(0, 2**31),
    t=st.integers(0, 2**31),
    channel=st.integers(0, 7),
    size=st.integers(1, 40),
)
def test_tape_draws_are_pure_functions(seed, rep, t, channel, size):
    a = RandomTape(seed).uniforms(rep, t, channel, size)
    b = RandomTape(seed).uniforms(rep, t, channel, size)
    assert a.tolist() == b.tolist()
    assert ((0 <= a) & (a < 1)).all()
    # a prefix of a longer block is the block's own prefix
    c = RandomTape(seed).uniforms(rep, t, channel, size + 5)
    assert c[:size].tolist() == a.tolist()


# ---------------------------------------------------------------------------
# the single-site update engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("n", range(1, 7))
def test_padded_rule_matches_proposal_accepted(n, q):
    """Every state (improper ones included), vertex and color: the padded
    path rule, one replicate at a time and batched in both layouts, agrees
    with the general-graph rule."""
    spec = ChainSpec(graph=Graph.path(n), q=q)
    states = list(itertools.product(range(q), repeat=n))
    X = np.pad(np.array(states, dtype=np.int8), ((0, 0), (1, 1)), constant_values=PAD)
    flat, base = X.reshape(-1), np.arange(len(states)) * (n + 2)
    for v in range(1, n + 1):
        for c in range(q):
            want = np.array([proposal_accepted(spec, s, v, c) for s in states])
            assert [path_accepts(pad(s), v, c) for s in states] == want.tolist()
            assert np.array_equal(path_accepts(X.T, v, c), want)
            assert np.array_equal(path_accepts(flat, base + v, c), want)


@pytest.mark.parametrize("rep0", [0, 17])
@pytest.mark.parametrize("size", [1, 2, 3, 10, 128, 10_000])
def test_tape_block_is_the_stacked_replicate_draws(rep0, size):
    tape = RandomTape(1729)
    B = tape.block(rep0, 6, 5, CH_SCAN, size)
    stacked = np.array([tape.uniforms(rep0 + r, 5, CH_SCAN, size) for r in range(6)])
    assert np.array_equal(B, stacked)
    # rows own their memory: writing one row leaves the others alone
    B[0] = -1.0
    assert np.array_equal(B[1:], stacked[1:])
    assert tape.block(rep0, 0, 5, CH_SCAN, size).shape == (0, size)


@pytest.mark.parametrize("rep0", [0, 1, 6, 300])
@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 10, 128, 4099, 10_000])
def test_tape_block_window_is_the_stacked_replicate_draws_from_start(rep0, size):
    """Row r of ``block(rep0, reps, t, ch, size, start)`` is
    ``uniforms(rep0 + r, t, ch, size)[start:]``, for starts that are not
    multiples of 4 and for empty windows (start = size, or past it)."""
    tape = RandomTape(1729)
    stacked = np.array([tape.uniforms(rep0 + r, 5, CH_SCAN, size) for r in range(6)])
    for start in sorted({0, 1, 2, 3, 4, 5, size - 1, size}):
        W = tape.block(rep0, 6, 5, CH_SCAN, size, start)
        assert np.array_equal(W, stacked[:, start:]), start
        assert W.shape == (6, max(size - start, 0))
        if W.size:  # rows own their memory
            W[0] = -1.0
            assert np.array_equal(W[1:], stacked[1:, start:]), start
    with pytest.raises(ValueError, match="negative"):
        tape.block(rep0, 6, 5, CH_SCAN, size, -1)


def fresh_generator_uniforms(seed, rep, t, channel, size):
    """The reference tape: a new Philox generator at every coordinate."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0x9E3779B97F4A7C15], dtype=np.uint64)
    counter = np.array([rep, t, channel, 0], dtype=np.uint64)
    return Generator(Philox(key=key, counter=counter)).random(size)


@pytest.mark.parametrize("seed", [0, 1729, 2**64 - 1, -5])
def test_tape_equals_a_fresh_generator_at_every_coordinate(seed):
    """One generator per tape, its counter moved per call, gives the draws of
    a generator built fresh at each coordinate: for every size 1..4099 (a
    leftover 4-output buffer would shift sizes that are not multiples of 4),
    in shuffled order, after large blocks, at rep and t beyond 2^32, and
    with a second tape of the same seed drawing in between."""
    order = np.random.default_rng(abs(seed) % 2**32)
    sizes = order.permutation(np.arange(1, 4100))
    reps = order.integers(0, 2**64, len(sizes), dtype=np.uint64)
    times = order.integers(0, 2**40, len(sizes))
    channels = order.integers(0, 5, len(sizes))
    tape, twin = RandomTape(seed), RandomTape(seed)
    for i, size in enumerate(sizes.tolist()):
        rep, t, ch = int(reps[i]) >> (i % 3) * 31, int(times[i]), int(channels[i])
        if i % 500 == 0:
            tape.block(i, 300, 7, CH_SCAN, 5001)
        if i % 3 == 0:
            twin.uniforms(rep ^ 1, t, ch, size + 3)
        got = tape.uniforms(rep, t, ch, size)
        assert np.array_equal(got, fresh_generator_uniforms(seed, rep, t, ch, size)), (
            rep, t, ch, size)
        if i % 3 == 1:
            assert np.array_equal(twin.uniforms(rep, t, ch, size), got)
    assert tape.uniforms(2**33, 2**35, 4, 7)[6] == fresh_generator_uniforms(seed, 2**33, 2**35, 4, 7)[6]


def test_sign_move_on_a_batch_moves_every_row():
    """sign_move on the last axis of a state batch equals the per-vector
    move, written out here as the reference."""
    def reference(x, v, n):
        x = list(x)
        if v == 1:
            x[0] = -x[0]
        elif v == n:
            x[n - 2] = -x[n - 2]
        else:
            x[v - 2], x[v - 1] = x[v - 1], x[v - 2]
        return x

    n = 5
    X = np.array(list(itertools.product((-1, 1), repeat=n - 1)))
    for v in range(1, n + 1):
        Y = X.copy()
        sign_move(Y, v)
        assert Y.tolist() == [reference(x, v, n) for x in X.tolist()]
