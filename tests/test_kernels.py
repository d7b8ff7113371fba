"""Exact kernels, stationarity, mixing times, spectra, and comparisons."""

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import scanmix.kernels as kernels
from scanmix.congestion import bottleneck_target, directed_cycle
from scanmix.domain import (
    BudgetExceededError,
    Graph,
    TargetGraph,
    enumerate_colorings,
    enumerate_h_colorings,
)
from scanmix.dynamics import ChainSpec, proposal_accepted, scan_order, sign_move
from scanmix.kernels import (
    DEFAULT_STATE_BUDGET,
    TV_BLOCK_ROWS,
    ChainKernel,
    NonErgodicError,
    build_kernel,
    build_sign_kernel,
    communicating_classes,
    _combine,
    _gather,
    _int64_denominator,
    _orbit_representatives,
    _state_space,
    _symmetrized,
    max_tv_to_uniform,
    poincare_constant,
    sign_states,
    tv_mixing_time,
    verify_comparison,
)
from reference import cycle, one_shot_max_tv, single_edge, star, to_signs

MIX_GLAUBER_N4_Q3_QUARTER = 36  # frozen regression value from exact powering


def dirichlet_form(kernel, f):
    """E(f,f) = (1/2) sum_xy pi(x) P(x,y) (f(x)-f(y))^2 with uniform pi."""
    P = kernel.dense()
    n = len(kernel.states)
    diff = f[:, None] - f[None, :]
    return 0.5 * float(np.sum(P * diff ** 2)) / n


def variance_uniform(f):
    return float(np.mean((f - np.mean(f)) ** 2))


def entry(kernel, i, j):
    """Transition probability of the kernel from state i to j, as a Fraction."""
    return Fraction(kernel.rows[i].get(j, 0), kernel.denom)


def reversal(kernel):
    """Time reversal with respect to the uniform distribution (transpose)."""
    n = len(kernel)
    csr = _combine(kernel.indices, kernel._row_ids(), kernel.data, n, n)
    return ChainKernel(list(kernel.states), *csr, kernel.denom, kernel.spec)


def compose(kernel, other):
    """Exact product kernel: one step of ``kernel`` followed by one of ``other``."""
    if kernel.states != other.states:
        raise ValueError("composition requires identical state spaces")
    denom = _int64_denominator(kernel.denom * other.denom)
    other_csr = (other.indptr, other.indices, other.data)
    csr = _gather(other_csr, kernel.indices, kernel.data, kernel._row_ids(), len(kernel))
    return ChainKernel(list(kernel.states), *csr, denom, kernel.spec)


def to_triplets(kernel):
    """Sparse text: one 'i j num den' line per nonzero entry."""
    triplets = zip(kernel._row_ids().tolist(), kernel.indices.tolist(), kernel.data.tolist())
    return "\n".join(f"{i} {j} {num} {kernel.denom}" for i, j, num in triplets)


def lump_kernel(kernel, projection):
    """Pushforward of a kernel under a state-space projection, or None when
    two states of one fiber induce different projected rows.  Numerators
    stay exact."""
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


def test_glauber_kernel_shape():
    K = build_kernel(ChainSpec(graph=Graph.path(4), q=3))
    assert len(K.states) == 24
    assert K.row_sums_exact() and K.uniform_is_stationary()
    offdiag = {entry(K, i, j) for i, row in enumerate(K.rows) for j in row if j != i}
    assert offdiag == {Fraction(1, 12)}


def test_single_vertex_kernel_uniform():
    K = build_kernel(ChainSpec(graph=Graph.path(1), q=3))
    assert len(K.states) == 3
    assert all(entry(K, i, j) == Fraction(1, 3) for i in range(3) for j in range(3))


@pytest.mark.parametrize("q,n", [(3, 4), (3, 6), (4, 4), (4, 6)])
def test_stationarity_exact(q, n):
    g = Graph.path(n)
    for base in ("glauber", "scan"):
        K = build_kernel(ChainSpec(graph=g, q=q, base=base))
        assert K.row_sums_exact()
        assert K.uniform_is_stationary()


@pytest.mark.parametrize("target", [TargetGraph.clique(3), cycle(5)])
def test_stationarity_target_models(target):
    g = Graph.path(4)
    for base in ("glauber", "scan"):
        K = build_kernel(ChainSpec(graph=g, target=target, base=base))
        assert K.row_sums_exact() and K.uniform_is_stationary()


@pytest.mark.parametrize("q,n", [(3, 4), (3, 5), (4, 4), (4, 5)])
def test_scan_reversal_identity(q, n):
    g = Graph.path(n)
    F = build_kernel(ChainSpec(graph=g, q=q, base="scan"))
    R = build_kernel(ChainSpec(graph=g, q=q, base="reverse_scan"))
    S = len(F.states)
    for i in range(S):
        for j in range(S):
            assert F.rows[i].get(j, 0) == R.rows[j].get(i, 0)


def test_clamped_sweep_preserves_fiber_uniform():
    g = Graph.path(6)
    anchor = (0, 1, 2, 0, 1, 0)
    for base in ("scan", "glauber"):
        spec = ChainSpec(graph=g, q=3, base=base, clamp=frozenset({1, 5}))
        K = build_kernel(spec, fiber_of=anchor)
        assert all(s[0] == anchor[0] and s[4] == anchor[4] for s in K.states)
        assert K.row_sums_exact() and K.uniform_is_stationary()


def filtered_fiber(spec, fiber_of, component="auto"):
    """The fiber as the kernels found it before they enumerated fibers
    directly: the whole state space, filtered to the clamped colors."""
    g = spec.graph
    if spec.q is not None:
        states = enumerate_colorings(g, spec.q)
    else:
        if component == "auto":
            component = "side0" if g.kind == "path" and spec.target.is_bipartite else "all"
        states = enumerate_h_colorings(g, spec.target, component=component)
    return [s for s in states if all(s[v - 1] == fiber_of[v - 1] for v in spec.clamp)]


@pytest.mark.parametrize("kw,build", [
    (dict(graph=Graph.path(6), q=3, clamp={1, 5}), {}),
    (dict(graph=Graph.path(5), q=3, clamp={2, 3}), {}),
    (dict(graph=star(5), q=3, clamp={1, 4}), {}),
    (dict(graph=Graph.path(5), target=cycle(4), clamp={2}), {}),
    (dict(graph=Graph.path(4), target=cycle(6), clamp={1, 3}), dict(component="side1")),
    (dict(graph=Graph.path(4), target=cycle(5), clamp={1, 4}), {}),
    (dict(graph=Graph.path(4), target=directed_cycle(3), clamp={3}), {}),
])
def test_fibers_equal_the_filtered_state_space(kw, build):
    """Every fiber of every assignment of the clamped colors, empty ones
    included, is the filtered whole space, in the same order."""
    spec = ChainSpec(**kw)
    clamp = sorted(spec.clamp)
    for colors in itertools.product(range(spec.n_colors), repeat=len(clamp)):
        fiber_of = [0] * spec.graph.n
        for v, c in zip(clamp, colors):
            fiber_of[v - 1] = c
        got = _state_space(spec, DEFAULT_STATE_BUDGET, build.get("component", "auto"),
                           tuple(fiber_of))
        assert got == filtered_fiber(spec, fiber_of, **build), colors


def test_clamped_fibers_are_budgeted_by_their_own_states():
    """A 256-state fiber of a 98,304-state space builds under the default
    budget; a fiber above its budget is still refused."""
    spec = ChainSpec(graph=Graph.path(16), q=3, clamp=frozenset(range(1, 9)))
    K = build_kernel(spec, fiber_of=(0, 1) * 8)
    assert len(K.states) == 256 and K.row_sums_exact() and K.uniform_is_stationary()
    with pytest.raises(BudgetExceededError, match="256 colorings"):
        build_kernel(spec, fiber_of=(0, 1) * 8, budget=255)


def test_mixing_time_examples():
    K = build_kernel(ChainSpec(graph=Graph.path(4), q=3))
    assert tv_mixing_time(K, 1.0) == 1
    assert tv_mixing_time(K, 0.25) == MIX_GLAUBER_N4_Q3_QUARTER
    # monotone nonincreasing in eps
    prev = None
    for eps in (0.5, 0.25, 0.1, 0.05):
        t = tv_mixing_time(K, eps)
        if prev is not None:
            assert t >= prev
        prev = t


def test_mixing_time_nonergodic_reports_classes():
    adj = [[False] * 3 for _ in range(3)]
    adj[0][1] = adj[1][2] = adj[2][0] = True
    H = TargetGraph(tuple(tuple(r) for r in adj), directed=True)
    K = build_kernel(ChainSpec(graph=Graph.path(4), target=H))
    with pytest.raises(NonErgodicError) as exc:
        tv_mixing_time(K, 0.25)
    assert len(exc.value.classes) == 3


def test_poincare_uniform_kernel():
    n = 6
    K = ChainKernel(
        states=list(range(n)),
        indptr=np.arange(0, n * n + 1, n),
        indices=np.tile(np.arange(n), n),
        data=np.ones(n * n, dtype=np.int64),
        denom=n,
    )
    rep = poincare_constant(K)
    assert abs(rep.poincare - 1.0) < 1e-12
    assert np.allclose(sorted(rep.eigenvalues), [0.0] * (n - 1) + [1.0])


def test_poincare_sign_chain_closed_value():
    K = build_sign_kernel("glauber", 4)
    rep = poincare_constant(K)
    assert abs(rep.poincare - 1 / 12) < 1e-12
    assert rep.poincare <= 2.0 and rep.beta_min >= -1.0 - 1e-12


def test_poincare_reversible_equals_gap():
    K = build_kernel(ChainSpec(graph=Graph.path(4), q=3))
    P = K.dense()
    assert np.allclose(P, P.T)  # uniform stationary + symmetric counts
    eig = np.linalg.eigvalsh(P)[::-1]
    assert abs(poincare_constant(K).poincare - (1 - eig[1])) < 1e-12


def test_dirichlet_form_rayleigh():
    K = build_kernel(ChainSpec(graph=Graph.path(4), q=3))
    P = K.dense()
    S = (P + P.T) / 2
    vals, vecs = np.linalg.eigh(S)
    f = vecs[:, -2]  # eigenvector of the second-largest eigenvalue
    ratio = dirichlet_form(K, f) / variance_uniform(f)
    assert abs(ratio - poincare_constant(K).poincare) < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = rng.normal(size=len(K.states))
        assert dirichlet_form(K, f) / variance_uniform(f) >= ratio - 1e-12


@pytest.mark.parametrize("base", ["glauber", "scan"])
@pytest.mark.parametrize("n", range(1, 14))
def test_sign_chain_is_exact_lumping(base, n):
    """``spectrum`` reports the sign chain from ``build_sign_kernel``; it is
    the lumping of the q = 3 path kernel, array for array, at every n the
    default budget admits."""
    K = build_kernel(ChainSpec(graph=Graph.path(n), q=3, base=base))
    lumped = lump_kernel(K, to_signs)
    assert lumped is not None, "sign projection must be a well-defined lumping"
    direct = build_sign_kernel(base, n)
    assert lumped.states == direct.states and lumped.denom == direct.denom
    for name in ("indptr", "indices", "data"):
        a, b = getattr(lumped, name), getattr(direct, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_communicating_classes_and_triplets():
    K = build_kernel(ChainSpec(graph=Graph.path(4), q=3))
    assert len(communicating_classes(K.indptr, K.indices)) == 1
    text = to_triplets(K)
    first = text.splitlines()[0].split()
    assert len(first) == 4 and int(first[3]) == K.denom


def reference_communicating_classes(kernel):
    """Kosaraju over the row mappings of the kernel and of its reversal."""
    succ = [list(row) for row in kernel.rows]
    pred = [list(row) for row in reversal(kernel).rows]
    order = []
    seen = [False] * len(kernel)
    for s in range(len(kernel)):
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
    comp, c = [-1] * len(kernel), 0
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
    out = [[] for _ in range(c)]
    for i, ci in enumerate(comp):
        out[ci].append(i)
    return out


def test_communicating_classes_match_reference_on_directed_triangles():
    """Every connected directed H on 3 vertices (self-loops allowed)."""
    n_split = 0
    for bits in itertools.product((False, True), repeat=9):
        H = TargetGraph(tuple(bits[3 * i:3 * i + 3] for i in range(3)), directed=True)
        if not H.is_connected:
            continue
        for n, base in itertools.product((3, 4), ("glauber", "scan")):
            K = build_kernel(ChainSpec(graph=Graph.path(n), target=H, base=base))
            classes = communicating_classes(K.indptr, K.indices)
            assert classes == reference_communicating_classes(K), (bits, n, base)
            n_split += len(classes) > 1
    assert n_split > 0  # the family includes reducible chains


def test_communicating_classes_match_reference_on_random_digraphs():
    # moves on H-colorings are reversible, so the chains above have no
    # transient states; random digraphs also pin the order of the classes
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 16))
        adj = rng.random((n, n)) < rng.uniform(0.05, 0.3)
        rows, cols = np.nonzero(adj)
        K = ChainKernel(
            states=list(range(n)),
            indptr=np.searchsorted(rows, np.arange(n + 1)),
            indices=cols.astype(np.int64),
            data=np.ones(len(cols), dtype=np.int64),
            denom=1,
        )
        assert communicating_classes(K.indptr, K.indices) == reference_communicating_classes(K)


def digraph_kernel(n, arcs):
    """Kernel over states 0..n-1 whose positive transitions are the given arcs."""
    rows, cols = np.array(sorted(arcs), dtype=np.int64).reshape(-1, 2).T
    return ChainKernel(
        states=list(range(n)),
        indptr=np.searchsorted(rows, np.arange(n + 1)),
        indices=cols,
        data=np.ones(len(cols), dtype=np.int64),
        denom=1,
    )


def test_communicating_classes_backward_sweep_decides():
    """State 0 reaches every state, but only 0 reaches 0: the forward sweep
    passes and the backward one sends the kernel to the class listing."""
    K = digraph_kernel(4, [(0, 1), (1, 2), (2, 1), (2, 3), (3, 2)])
    classes = communicating_classes(K.indptr, K.indices)
    assert classes == reference_communicating_classes(K)
    assert sorted(classes) == [[0], [1, 2, 3]]
    # the mirror image: every state reaches 0, but 0 reaches only itself
    K = digraph_kernel(4, [(1, 0), (1, 2), (2, 1), (2, 3), (3, 2)])
    assert communicating_classes(K.indptr, K.indices) == reference_communicating_classes(K)
    assert sorted(communicating_classes(K.indptr, K.indices)) == [[0], [1, 2, 3]]


@pytest.mark.parametrize(
    "spec",
    [
        ChainSpec(graph=Graph.path(4), q=3),
        ChainSpec(graph=Graph.path(4), q=3, base="scan"),
        ChainSpec(graph=Graph.path(5), target=cycle(5), base="reverse_scan"),
    ],
    ids=["glauber", "scan", "c5_reverse"],
)
def test_irreducible_kernel_is_one_ascending_class(spec):
    K = build_kernel(spec)
    assert communicating_classes(K.indptr, K.indices) == [list(range(len(K)))]


@pytest.mark.parametrize(
    "spec",
    [
        ChainSpec(graph=Graph.path(5), q=3),
        ChainSpec(graph=Graph.path(5), q=3, base="scan"),
        ChainSpec(graph=Graph.path(4), q=4, base="lazy"),
    ],
    ids=["glauber", "scan", "lazy"],
)
@pytest.mark.parametrize("eps", [1.0, 0.25, 0.05])
def test_tv_ladder_records_each_rung(spec, eps):
    K = build_kernel(spec)
    ladder = []
    t_mix = tv_mixing_time(K, eps, ladder=ladder)
    assert t_mix == tv_mixing_time(K, eps)
    M, expected = K.dense(), []
    for k in range(len(ladder)):
        expected.append((2 ** k, max_tv_to_uniform(M)))
        M = M @ M
    assert ladder == expected
    # the ladder stops at the first power of two at or above the mixing time
    assert ladder[-1][1] <= eps and all(tv > eps for _, tv in ladder[:-1])
    assert ladder[-1][0] // 2 < t_mix <= ladder[-1][0]
    if eps == 1.0:
        assert t_mix == 1 and len(ladder) == 1


def test_tv_ladder_past_its_horizon_names_eps_and_the_last_distance():
    """On the glauber 3-path the float64 max TV bottoms out at t = 1024 and
    rises on the next rung, which exact powers never do: the ladder stops
    there and names eps and both distances."""
    K = build_kernel(ChainSpec(graph=Graph.path(3), q=3))
    ladder = []
    with pytest.raises(ValueError, match=r"no mixing to eps=1e-300: max TV rose from") as exc:
        tv_mixing_time(K, 1e-300, ladder=ladder)
    (s, low), (t, tv) = ladder[-2:]
    assert (s, t) == (1024, 2048) and tv > low
    assert f"from {low:.6g} at t={s} to {tv:.6g} at t={t}," in str(exc.value)
    assert [b for _, b in ladder[:-1]] == sorted((b for _, b in ladder[:-1]), reverse=True)


def test_tv_ladder_stops_at_max_mix_t(monkeypatch):
    """A ladder still falling but above eps at ``MAX_MIX_T`` raises, naming
    the horizon and the last distance."""
    monkeypatch.setattr(kernels, "MAX_MIX_T", 8)
    K = build_kernel(ChainSpec(graph=Graph.path(3), q=3))
    ladder = []
    with pytest.raises(ValueError, match=r"eps=1e-300 by t=8: max TV is still") as exc:
        tv_mixing_time(K, 1e-300, ladder=ladder)
    t, tv = ladder[-1]
    assert t == 8 and f"{tv:.6g} at t={t};" in str(exc.value)


def test_tv_ladder_refuses_a_rung_past_the_state_budget(monkeypatch):
    """With the state budget at twice the glauber 8-path's 384 states, the
    live rungs may hold 4 * 384^2 floats: the ladder computes P, P^2, P^4
    and P^8 and refuses the fifth rung, naming N, the rung and the budget,
    before it allocates it."""
    K = build_kernel(ChainSpec(graph=Graph.path(8), q=3))
    N = len(K)
    assert N == 384
    monkeypatch.setattr(kernels, "DEFAULT_STATE_BUDGET", 2 * N)
    K.dense()  # the first rung, formed before tracing
    ladder = []
    tracemalloc.start()
    refusal = r"of 384 states: rung 5 and those before it exceed 768\^2 floats"
    with pytest.raises(BudgetExceededError, match=refusal):
        tv_mixing_time(K, 0.01, ladder=ladder)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert [t for t, _ in ladder] == [1, 2, 4, 8] and ladder[-1][1] > 0.01
    # rungs 2-4 and small scratch; a fifth rung would add N^2 floats more
    assert 3 * N * N * 8 < peak < 4 * N * N * 8


# The color rotation c -> c + 1 mod h is an automorphism of each of these
# models; the directed 3-cycle is ergodic on a single vertex only, and with
# self-loops on every path.
LOOPED_DIRECTED_CYCLE = TargetGraph(
    tuple(tuple(j in (i, (i + 1) % 3) for j in range(3)) for i in range(3)), directed=True
)
ROTATION_MODELS = {
    "K3": ({"q": 3}, range(2, 8)),
    "K4": ({"q": 4}, range(2, 6)),
    "C5": ({"target": cycle(5)}, range(2, 6)),
    "dicycle3": ({"target": directed_cycle(3)}, range(1, 2)),
    "dicycle3_loops": ({"target": LOOPED_DIRECTED_CYCLE}, range(2, 8)),
}
CHAINS = {
    "glauber": {},
    "lazy": {"base": "lazy"},
    "scan": {"base": "scan"},
    "reverse_scan": {"base": "reverse_scan"},
}


def all_rows(K):
    """The same kernel without its spec, so every search power keeps all rows."""
    return dataclasses.replace(K, spec=None, _dense=None)


@pytest.mark.parametrize("chain", CHAINS)
@pytest.mark.parametrize("model", ROTATION_MODELS)
def test_representative_search_matches_all_rows(model, chain):
    fields, sizes = ROTATION_MODELS[model]
    for n in sizes:
        K = build_kernel(ChainSpec(graph=Graph.path(n), **fields, **CHAINS[chain]))
        reps = _orbit_representatives(K)
        h = K.spec.n_colors
        assert reps is not None and len(reps) * h == len(K), n
        assert all(K.states[i][0] == 0 for i in reps)
        for eps in (1 / math.e, 0.25, 0.05):
            ladder, full_ladder = [], []
            t_mix = tv_mixing_time(K, eps, ladder=ladder)
            assert t_mix == tv_mixing_time(all_rows(K), eps, ladder=full_ladder), (n, eps)
            assert ladder == full_ladder


TRIANGLE_WITH_PENDANT = TargetGraph(
    ((False, True, True, False),
     (True, False, True, False),
     (True, True, False, True),
     (False, False, True, False))
)


def perturbed(K):
    """K with one unit of the stay mass of states 0 and b moved onto the
    moves 0 -> b and b -> 0: still symmetric, so uniform stays stationary,
    but no longer rotation-invariant."""
    b = next(j for j in K.rows[0] if j != 0)
    data = K.data.copy()
    for i, j, d in ((0, 0, -1), (b, b, -1), (0, b, 1), (b, 0, 1)):
        row = K.indices[K.indptr[i]:K.indptr[i + 1]]
        data[K.indptr[i] + np.searchsorted(row, j)] += d
    return dataclasses.replace(K, data=data, _dense=None)


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_kernel(
            ChainSpec(graph=Graph.path(5), q=3, clamp={1}), fiber_of=(0, 1, 0, 1, 0)
        ),
        lambda: build_sign_kernel("scan", 5),
        lambda: build_kernel(ChainSpec(graph=Graph.path(5), target=cycle(4))),
        lambda: build_kernel(ChainSpec(graph=Graph.path(4), target=TRIANGLE_WITH_PENDANT)),
        lambda: perturbed(build_kernel(ChainSpec(graph=Graph.path(3), q=3))),
    ],
    ids=["clamped_fiber", "sign", "c4_side0", "no_rotation_automorphism", "not_commuting"],
)
def test_search_falls_back_to_all_rows(make):
    K = make()
    assert _orbit_representatives(K) is None
    assert K.row_sums_exact() and K.uniform_is_stationary()
    # the first t whose power is within eps, by one step at a time
    P = K.dense()
    M, t = P, 1
    while max_tv_to_uniform(M) > 0.05:
        M, t = M @ P, t + 1
    assert tv_mixing_time(K, 0.05) == t > 2


class ShapeRecordingArray(np.ndarray):
    """Records the shape of every product's left operand."""

    shapes: list = []

    def __matmul__(self, other):
        ShapeRecordingArray.shapes.append(self.shape)
        return super().__matmul__(other)


@pytest.mark.parametrize(
    "spec",
    [
        ChainSpec(graph=Graph.path(6), q=3),
        ChainSpec(graph=Graph.path(4), q=4, base="scan"),
        ChainSpec(graph=Graph.path(5), target=cycle(5), base="lazy"),
    ],
    ids=["k3_glauber", "k4_scan", "c5_lazy"],
)
def test_search_products_take_representative_rows(spec):
    K = build_kernel(spec)
    n, h = len(K), spec.n_colors
    K._dense = K.dense().view(ShapeRecordingArray)
    ShapeRecordingArray.shapes = []
    ladder = []
    t_mix = tv_mixing_time(K, 0.05, ladder=ladder)
    rungs = len(ladder) - 1  # squarings that built the ladder
    ladder_shapes, search_shapes = (
        ShapeRecordingArray.shapes[:rungs], ShapeRecordingArray.shapes[rungs:]
    )
    assert t_mix & (t_mix - 1)  # not a power of two, so the search ran
    assert ladder_shapes == [(n, n)] * rungs
    assert search_shapes and search_shapes == [(n // h, n)] * len(search_shapes)


def test_max_tv_reads_a_row_block_against_its_columns():
    block = np.array([[1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
    assert max_tv_to_uniform(block) == 0.75
    P = build_kernel(ChainSpec(graph=Graph.path(4), q=3)).dense()
    P4 = np.linalg.matrix_power(P, 4)
    rows = [0, 5, 17]
    expected = max(0.5 * float(np.abs(P4[i] - 1 / len(P)).sum()) for i in rows)
    assert max_tv_to_uniform(P4[rows]) == expected


def test_max_tv_blocks_equal_the_one_shot_formula():
    K = build_kernel(ChainSpec(graph=Graph.path(8), q=3))
    P = K.dense()
    P8 = np.linalg.matrix_power(P, 8)
    assert len(P) > TV_BLOCK_ROWS + 1
    for M in (P, P8):
        for rows in (1, TV_BLOCK_ROWS - 1, TV_BLOCK_ROWS, TV_BLOCK_ROWS + 1, len(M)):
            assert max_tv_to_uniform(M[:rows]) == one_shot_max_tv(M[:rows]), rows
    reps = _orbit_representatives(K)
    assert len(reps) == len(P) // 3
    assert max_tv_to_uniform(P8[reps]) == one_shot_max_tv(P8[reps])
    with pytest.raises(ValueError):
        max_tv_to_uniform(P[:0])


def traced_peak(f, *args, **kwargs) -> int:
    """Peak bytes that tracemalloc sees allocated during one call."""
    tracemalloc.start()
    try:
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tv_mixing_time_holds_its_rungs_and_row_blocks():
    """The ladder's rungs are alive together; beyond them only row blocks."""
    K = build_kernel(ChainSpec(graph=Graph.path(8), q=3))
    ladder = []
    peak = traced_peak(tv_mixing_time, K, 0.25, ladder=ladder)
    assert (len(K), len(ladder)) == (384, 9)
    assert peak <= (len(ladder) + 0.5) * len(K) ** 2 * 8


def test_poincare_constant_holds_s_and_the_eigensolve_copy():
    K = build_kernel(ChainSpec(graph=Graph.path(8), q=3))
    assert traced_peak(poincare_constant, K) <= 1.5 * len(K) ** 2 * 8


def test_comparison_path_and_star():
    rep = verify_comparison(Graph.path(4), TargetGraph.clique(3))
    assert rep.site_le_sweep_ok and rep.sweep_le_site_ok
    assert rep.site_slack > 0 and rep.sweep_slack > 0
    assert rep.mix_square_bound_ok
    hub = verify_comparison(star(4), TargetGraph.clique(4))
    assert hub.max_degree == 3 and hub.site_factor == 4 * 4 ** 4
    assert hub.site_le_sweep_ok and hub.sweep_le_site_ok


def test_comparison_trivial_space():
    rep = verify_comparison(Graph.path(4), single_edge())
    assert rep.trivial and rep.n_states == 1
    assert rep.site_le_sweep_ok and rep.sweep_le_site_ok


def test_budget_refusal():
    spec = ChainSpec(graph=Graph.path(5), q=3, base="scan")
    with pytest.raises(BudgetExceededError):
        build_kernel(spec, budget=10)
    assert len(build_kernel(spec, budget=48).states) == 48


def test_nonreversible_dirichlet_form_sees_only_the_symmetrization():
    """The sweep kernel is not reversible, yet its Dirichlet form equals the
    symmetrized kernel's, so the variational gap is the symmetrized one."""
    K = build_kernel(ChainSpec(graph=Graph.path(4), q=3, base="scan"))
    P = K.dense()
    assert not np.allclose(P, P.T)
    S = (P + P.T) / 2
    rng = np.random.default_rng(3)
    n = len(K.states)
    for _ in range(6):
        f = rng.normal(size=n)
        direct = dirichlet_form(K, f)
        sym_val = 0.5 * float(np.sum(S * (f[:, None] - f[None, :]) ** 2)) / n
        assert abs(direct - sym_val) < 1e-12
    vals, vecs = np.linalg.eigh(S)
    f = vecs[:, -2]
    assert abs(
        dirichlet_form(K, f) / variance_uniform(f) - poincare_constant(K).poincare
    ) < 1e-12


def test_reversal_method_gives_the_reverse_sweep():
    g = Graph.path(4)
    F = build_kernel(ChainSpec(graph=g, q=3, base="scan"))
    R = build_kernel(ChainSpec(graph=g, q=3, base="reverse_scan"))
    rev = reversal(F)
    for i in range(len(F.states)):
        for j in range(len(F.states)):
            assert entry(rev, i, j) == entry(R, i, j)


def test_kernel_composition_matches_two_steps():
    g = Graph.path(4)
    K = build_kernel(ChainSpec(graph=g, q=3))
    K2 = compose(K, K)
    assert K2.row_sums_exact() and K2.uniform_is_stationary()
    P2 = np.linalg.matrix_power(K.dense(), 2)
    assert np.allclose(K2.dense(), P2, atol=1e-14)
    with pytest.raises(ValueError):
        compose(K, build_kernel(ChainSpec(graph=Graph.path(3), q=3)))


# ---------------------------------------------------------------------------
# The move-table builders against the state-by-state reference
# ---------------------------------------------------------------------------

def reference_kernel(spec, component="auto", fiber_of=None):
    """(states, denom, rows) from the state-by-state builder: a dict per row,
    sweep rows propagated as sparse distributions scaled by q per vertex."""
    states = _state_space(spec, DEFAULT_STATE_BUDGET, component, fiber_of)
    index = {s: i for i, s in enumerate(states)}
    n, q = spec.graph.n, spec.n_colors
    rows = []
    if spec.base in ("glauber", "lazy"):
        denom = n * q * (2 if spec.base == "lazy" else 1)
        for s in states:
            row = {}
            diag = n * q if spec.base == "lazy" else 0
            for v in range(1, n + 1):
                if v in spec.clamp:
                    diag += q
                    continue
                for c in range(q):
                    if c != s[v - 1] and proposal_accepted(spec, s, v, c):
                        j = index[s[: v - 1] + (c,) + s[v:]]
                        row[j] = row.get(j, 0) + 1
                    else:
                        diag += 1
            row[index[s]] = row.get(index[s], 0) + diag
            rows.append(row)
    else:
        denom = q ** n
        for s in states:
            dist = {s: 1}
            for v in scan_order(spec):
                if v in spec.clamp:
                    dist = {t: w * q for t, w in dist.items()}
                    continue
                nxt = {}
                for t, w in dist.items():
                    for c in range(q):
                        u = t
                        if c != t[v - 1] and proposal_accepted(spec, t, v, c):
                            u = t[: v - 1] + (c,) + t[v:]
                        nxt[u] = nxt.get(u, 0) + w
                dist = nxt
            rows.append({index[t]: w for t, w in dist.items()})
    return states, denom, rows


def reference_sign_kernel(base, n):
    states = sign_states(n)
    X = np.array(states)
    place = 2 ** np.arange(n - 2, -1, -1)
    moves = []
    for v in range(1, n + 1):
        Y = X.copy()
        sign_move(Y, v)
        moves.append((((Y + 1) // 2) @ place).tolist())
    rows = []
    for i in range(len(states)):
        if base == "glauber":
            row = {}
            for move in moves:
                row[move[i]] = row.get(move[i], 0) + 1
                row[i] = row.get(i, 0) + 2
            rows.append(row)
            continue
        dist = {i: 1}
        for move in moves:
            nxt = {}
            for t, w in dist.items():
                nxt[move[t]] = nxt.get(move[t], 0) + w
                nxt[t] = nxt.get(t, 0) + 2 * w
            dist = nxt
        rows.append(dist)
    return states, 3 * n if base == "glauber" else 3 ** n, rows


def assert_matches(K, reference):
    states, denom, rows = reference
    assert K.states == states
    assert K.denom == denom
    assert K.rows == rows
    assert all(np.all(np.diff(row_cols) > 0) for row_cols in np.split(K.indices, K.indptr[1:-1]))
    # rows[i] is CSR row i with Python ints, and the rows hold every stored entry
    for row, a, b in zip(K.rows, K.indptr[:-1], K.indptr[1:]):
        assert row == dict(zip(K.indices[a:b].tolist(), K.data[a:b].tolist()))
        assert all(type(x) is int for x in (*row, *row.values()))
    assert sum(map(len, K.rows)) == len(K.indices)


ANCHOR6 = (0, 1, 2, 0, 1, 0)
REFERENCE_CASES = [
    *(dict(graph=Graph.path(n), q=q, base=base)
      for n, q in ((1, 3), (4, 3), (5, 3), (4, 4), (3, 5))
      for base in ("glauber", "lazy", "scan", "reverse_scan")),
    dict(graph=Graph.path(6), q=3, base="scan", clamp={1, 5}, fiber_of=ANCHOR6),
    dict(graph=Graph.path(6), q=3, base="glauber", clamp={1, 5}, fiber_of=ANCHOR6),
    dict(graph=Graph.path(6), q=3, base="lazy", clamp={2}, fiber_of=ANCHOR6),
    dict(graph=Graph.path(5), q=4, base="reverse_scan", clamp={3}),
    dict(graph=star(5), q=3, base="glauber"),
    dict(graph=star(5), q=3, base="scan"),
    dict(graph=star(4), q=4, base="reverse_scan", clamp={1}),
    dict(graph=Graph.path(5), target=cycle(4), base="glauber"),
    dict(graph=Graph.path(5), target=cycle(4), base="scan"),
    dict(graph=Graph.path(4), target=cycle(6), base="scan", component="side1"),
    dict(graph=Graph.path(4), target=cycle(5), base="scan"),
    dict(graph=Graph.path(4), target=directed_cycle(3), base="glauber"),
    dict(graph=Graph.path(4), target=bottleneck_target(2), base="scan"),
    dict(graph=Graph.path(4), target=bottleneck_target(1), base="lazy"),
    dict(graph=star(4), target=bottleneck_target(1), base="scan"),
]


@pytest.mark.parametrize("case", range(len(REFERENCE_CASES)))
def test_kernel_matches_the_state_by_state_reference(case):
    kw = dict(REFERENCE_CASES[case])
    build = {k: kw.pop(k) for k in ("component", "fiber_of") if k in kw}
    spec = ChainSpec(**kw)
    assert_matches(build_kernel(spec, **build), reference_kernel(spec, **build))


@pytest.mark.parametrize("base", ["glauber", "scan"])
def test_sign_kernel_matches_the_reference(base):
    for n in range(2, 9):
        assert_matches(build_sign_kernel(base, n), reference_sign_kernel(base, n))


def exact_layer_kernels():
    for kw in REFERENCE_CASES:
        kw = dict(kw)
        build = {k: kw.pop(k) for k in ("component", "fiber_of") if k in kw}
        yield build_kernel(ChainSpec(**kw), **build)
    for base, n in itertools.product(("glauber", "scan"), range(2, 9)):
        yield build_sign_kernel(base, n)


def test_symmetrized_kernel_is_the_dense_average_bit_for_bit():
    for K in exact_layer_kernels():
        P = K.dense()
        S = _symmetrized(K)
        assert S.dtype == P.dtype and np.array_equal(S, (P + P.T) / 2)


def test_communicating_classes_match_kosaraju_on_the_reference_kernels():
    sizes = set()
    for K in exact_layer_kernels():
        classes = communicating_classes(K.indptr, K.indices)
        assert classes == reference_communicating_classes(K)
        sizes.add(len(classes) > 1)
    assert sizes == {False, True}  # ergodic and reducible kernels both


def test_lump_kernel_refuses_an_ill_defined_projection():
    K = build_kernel(ChainSpec(graph=Graph.path(4), q=3, base="scan"))
    assert lump_kernel(K, lambda s: s[0]) is None  # first colour alone is not Markov
    whole = lump_kernel(K, lambda s: 0)
    assert whole.states == [0] and entry(whole, 0, 0) == 1


def test_accepted_move_leaving_the_state_space_is_refused():
    # one vertex, bipartite H: the side-0 space excludes colors the move reaches
    spec = ChainSpec(graph=Graph.path(1), target=cycle(4))
    with pytest.raises(ValueError, match="leaves the enumerated states"):
        build_kernel(spec)


def test_int64_overflow_is_refused():
    # q**n must fit int64: state codes and sweep numerators live in int64
    K = build_kernel(ChainSpec(graph=Graph.path(62), q=2, base="scan"))
    assert K.denom == 2 ** 62 and K.row_sums_exact()
    for base in ("glauber", "scan"):
        with pytest.raises(ValueError, match="int64"):
            build_kernel(ChainSpec(graph=Graph.path(63), q=2, base=base))
    with pytest.raises(ValueError, match="int64"):
        compose(K, K)
