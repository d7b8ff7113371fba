"""Coupled evolutions: drift oracles, ledger, witnesses, coalescence."""

import hashlib
import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from scanmix.coupling import (
    CouplingStats,
    PathMetricTables,
    _ham_batch_drift,
    coupled_glauber_step,
    coupled_scan_sweep,
    coupling_time,
    exact_drift,
    expected_coalescence_exact,
    partner_proposal,
    hamming_contraction_rows,
    restricted_growth_tuples,
    site_variance_witness,
    supermartingale_rows,
    sweep_variance_witness,
    transpose_color,
    uniform_proper_coloring,
    variance_floor_witness,
    weighted_metric_contraction_rows,
)
from scanmix.domain import (
    PAD,
    BudgetExceededError,
    Graph,
    TargetGraph,
    VertexWeights,
    d2,
    enumerate_colorings,
    height_of,
    pad,
    path_accepts,
)
from scanmix.dynamics import ChainSpec, RandomTape, metropolis_update
from scanmix.kernels import build_kernel


def ham(a, b):
    return sum(x != y for x, y in zip(a, b))


def _deterministic_coupled_scan(sigma, tau, kind, props, start, q, n):
    """Scalar reference: one coupled sweep from ``start`` with the given
    proposal colors of copy one."""
    s, t = pad(sigma), pad(tau)
    for v in range(start, n + 1):
        c = props[v - start]
        c2 = partner_proposal(kind, v, c, s, t)
        for x, cc in ((s, c), (t, c2)):
            if path_accepts(x, v, cc):
                x[v] = cc
    return tuple(s[1:-1]), tuple(t[1:-1])


def _reference_drift(sigma, tau, kind, metric, q, start, weights):
    """Scalar reference for ``exact_drift``: the mean metric over every
    coupled single-site move (glauber kinds) or sweep (scan kinds)."""
    n = len(sigma)
    if kind.endswith("glauber"):
        s, t = pad(sigma), pad(tau)
        after = []
        for v in range(1, n + 1):
            for c in range(q):
                c2 = partner_proposal(kind, v, c, s, t)
                a, b = list(s), list(t)
                a[v] = c if path_accepts(s, v, c) else s[v]
                b[v] = c2 if path_accepts(t, v, c2) else t[v]
                after.append((tuple(a[1:-1]), tuple(b[1:-1])))
    else:
        after = [
            _deterministic_coupled_scan(sigma, tau, kind, props, start, q, n)
            for props in itertools.product(range(q), repeat=n - start + 1)
        ]
    dist = ham if metric == "hamming" else (lambda a, b: d2(a, b, weights))
    return sum((Fraction(dist(a, b)) for a, b in after), Fraction(0)) / len(after)


# ---------------------------------------------------------------------------
# exact drift oracle
# ---------------------------------------------------------------------------

def test_exact_drift_reference_values():
    w = VertexWeights.glauber_q3(4)
    r = exact_drift((0, 1, 0, 1), (0, 1, 2, 1), "identity_glauber", "d2", q=3, weights=w)
    assert r.drift == 0
    # scan from the vertex after the rightmost disagreement, q = 5
    r = exact_drift((0, 1, 0, 1, 0), (0, 1, 0, 2, 0), "q4_scan", "hamming", q=5, start_vertex=5)
    assert r.drift == Fraction(1, 5)
    assert r.drift <= Fraction(1, 4)


def test_dp_matches_brute_force_enumeration():
    """The Hamming pair DP equals plain enumeration over proposal draws, for
    every scan coupling it supports."""
    q, n = 4, 4
    for kind in ("q4_scan", "identity_scan", "switch_scan"):
        rng = np.random.default_rng(4)
        for _ in range(40):
            sigma = tuple(rng.integers(q, size=n).tolist())
            i = int(rng.integers(n))
            c = int((sigma[i] + 1 + rng.integers(q - 1)) % q)
            tau = sigma[:i] + (c,) + sigma[i + 1:]
            for start in (1, max(1, i), i + 1):
                num, sc = _ham_batch_drift(
                    np.array([sigma]), np.array([tau]), start - 1, q, kind
                )
                acc = 0
                k = n - start + 1
                for props in itertools.product(range(q), repeat=k):
                    a, b = _deterministic_coupled_scan(sigma, tau, kind, props, start, q, n)
                    acc += ham(a, b)
                assert Fraction(int(num[0]), sc) == Fraction(acc, q ** k), kind


@pytest.mark.parametrize("kind", ["identity_scan", "q4_scan", "switch_scan"])
def test_marginal_law_is_the_chain_law(kind):
    """Each coupled copy, viewed alone, moves exactly like the plain sweep."""
    q, n = 4, 3
    g = Graph.path(n)
    spec = ChainSpec(graph=g, q=q, base="scan")
    kernel = build_kernel(spec, proper_only=False)
    rng = np.random.default_rng(0)
    for _ in range(6):
        sigma = tuple(rng.integers(q, size=n).tolist())
        i = int(rng.integers(n))
        c = int((sigma[i] + 1 + rng.integers(q - 1)) % q)
        tau = sigma[:i] + (c,) + sigma[i + 1:]
        law1, law2 = Counter(), Counter()
        for props in itertools.product(range(q), repeat=n):
            a, b = _deterministic_coupled_scan(sigma, tau, kind, props, 1, q, n)
            law1[a] += 1
            law2[b] += 1
        for state, cnt in law1.items():
            assert kernel.entry(kernel.index[sigma], kernel.index[state]) == Fraction(cnt, q ** n)
        for state, cnt in law2.items():
            assert kernel.entry(kernel.index[tau], kernel.index[state]) == Fraction(cnt, q ** n)


@pytest.mark.parametrize("n", [4, 5])
def test_scan_d2_drift_equals_the_sweep_sums(n):
    """The enumerating d2 scan branch equals PathMetricTables' sweep DP for
    every ordered pair and every start vertex."""
    w = VertexWeights.scan_q3(n)
    tables = PathMetricTables(n, w)
    F = tables.sweep_sums()
    for start in range(1, n + 1):
        for i, sigma in enumerate(tables.states):
            for j, tau in enumerate(tables.states):
                r = exact_drift(sigma, tau, "identity_scan", "d2", q=3, start_vertex=start, weights=w)
                assert r.expected_after == Fraction(int(F[start - 1][i, j]), 8 * 3 ** (n - start + 1))
                assert r.before == Fraction(int(tables.d2_int[i, j]), 8)


@pytest.mark.parametrize(
    "kind,metric,q",
    [
        ("switch_scan", "d2", 3),
        ("q4_scan", "d2", 3),
        ("identity_glauber", "d2", 3),
        ("q4_glauber", "d2", 3),
        ("identity_glauber", "hamming", 4),
        ("q4_glauber", "hamming", 4),
    ],
)
def test_enumerated_drift_matches_the_scalar_reference(kind, metric, q):
    n = 5
    states = enumerate_colorings(Graph.path(n), q)
    w = VertexWeights.scan_q3(n) if kind.endswith("scan") else VertexWeights.glauber_q3(n)
    rng = np.random.default_rng(23)
    for _ in range(12):
        i, j = rng.choice(len(states), size=2, replace=False)
        sigma, tau = states[i], states[j]
        for start in (1, 3, n) if kind.endswith("scan") else (1,):
            r = exact_drift(sigma, tau, kind, metric, q=q, start_vertex=start, weights=w)
            assert r.expected_after == _reference_drift(sigma, tau, kind, metric, q, start, w)


def test_single_site_swap_coupling_never_grows_in_expectation():
    """One coupled random-site update from a single-disagreement pair keeps
    the expected Hamming distance at most 1."""
    q, n = 4, 4
    g = Graph.path(n)
    spec = ChainSpec(graph=g, q=q)
    for sigma in itertools.product(range(q), repeat=n):
        for i in range(n):
            for c in range(q):
                if c == sigma[i]:
                    continue
                tau = sigma[:i] + (c,) + sigma[i + 1:]
                r = exact_drift(sigma, tau, "q4_glauber", "hamming", q=q)
                assert r.expected_after <= 1


def test_coupled_drivers_match_deterministic_form():
    q, n = 4, 5
    g = Graph.path(n)
    spec = ChainSpec(graph=g, q=q, base="scan")
    tape = RandomTape(12)
    sigma = uniform_proper_coloring(n, q, tape, 0, 0)
    tau = uniform_proper_coloring(n, q, tape, 0, 1)
    out = coupled_scan_sweep(sigma, tau, "q4_scan", spec, spec, tape, rep=0, sweep=0)
    u = tape.uniforms(0, 0, 1, n)
    props = tuple(min(int(x * q), q - 1) for x in u)
    assert out == _deterministic_coupled_scan(sigma, tau, "q4_scan", props, 1, q, n)


def test_identity_coupling_diagonal_absorbs():
    g = Graph.path(4)
    spec = ChainSpec(graph=g, q=3, base="scan")
    tape = RandomTape(5)
    s = (0, 1, 2, 0)
    for t in range(10):
        a, b = coupled_scan_sweep(s, s, "identity_scan", spec, spec, tape, 0, t)
        assert a == b
        s = a


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

def test_restricted_growth_tuples_are_canonical():
    reps = restricted_growth_tuples(4, 3)
    # one representative per color orbit: relabeling any tuple by first
    # occurrence lands on a representative
    def canon(t):
        seen = {}
        out = []
        for x in t:
            if x not in seen:
                seen[x] = len(seen)
            out.append(seen[x])
        return tuple(out)

    all_tuples = set(itertools.product(range(3), repeat=4))
    assert {canon(t) for t in all_tuples} == set(reps)


@pytest.mark.parametrize("n", [4, 5])
def test_weighted_metric_ledger_passes(n):
    rows = weighted_metric_contraction_rows(n)
    assert rows and all(r.passed for r in rows)
    for r in rows:
        if r.lemma_id == "site_break_even":
            assert r.value == r.bound  # exact break-even


@pytest.mark.parametrize("n,q", [(4, 4), (5, 4), (4, 5)])
def test_hamming_ledger_passes(n, q):
    rows = hamming_contraction_rows(n, q)
    assert rows and all(r.passed for r in rows)
    ids = {r.lemma_id for r in rows}
    expected = {"from_site", "from_left", "suffix_fresh", "adjacent_pair"}
    if q == 4:
        expected |= {
            "full_last", "full_fresh", "full_blocked",
            "from_left_fresh", "from_left_blocked", "full_any",
        }
    assert expected <= ids


def test_ledger_agrees_with_reference_oracle():
    """Vectorized class rows equal per-pair reference drifts (spot checks)."""
    from scanmix.coupling import _s_pair_classes

    n, q = 4, 4
    all_rows = hamming_contraction_rows(n, q)
    rows = [r for r in all_rows if r.lemma_id == "full_last"]
    sig, tau, i = _s_pair_classes(n, q)[n - 1]
    assert len(rows) == sig.shape[0]
    for idx in (0, len(rows) // 2, len(rows) - 1):
        r = exact_drift(tuple(sig[idx]), tuple(tau[idx]), "q4_scan", "hamming", q=q)
        assert r.expected_after == rows[idx].value
    # the window-reduced family agrees with a full-vector reference pair:
    # prefix content left of the disagreement does not matter
    reps = []
    for t in restricted_growth_tuples(n + 1, q):
        window, tau_0 = t[:n], t[n]
        if tau_0 != window[0]:
            reps.append((window, (tau_0,) + window[1:]))
    for idx in (0, len(reps) // 3, len(reps) - 1):
        w_sig, w_tau = reps[idx]
        r = exact_drift(w_sig, w_tau, "q4_scan", "hamming", q=q, start_vertex=2)
        # embed behind an arbitrary disagreeing prefix: drift is unchanged
        pre_s, pre_t = (3, 0), (1, 2)
        r2 = exact_drift(pre_s + w_sig, pre_t + w_tau, "q4_scan", "hamming", q=q, start_vertex=4)
        assert r.drift == r2.drift


def _simulated_sweep_table(tables, start):
    """R[s, w]: state index after the sweep over 0-based vertices start..n-1
    under proposal vector w (base-3 digits, least significant = vertex
    start), simulating every state over all proposal vectors at once."""
    n = tables.n
    W = 3 ** (n - start)
    digits = [(np.arange(W) // 3 ** (v - start)) % 3 for v in range(start, n)]
    index = {s: i for i, s in enumerate(tables.states)}
    R = np.empty((len(tables.states), W), dtype=np.int64)
    for si, s in enumerate(tables.states):
        cur = np.tile(np.array(s), (W, 1))
        for v in range(start, n):
            c = digits[v - start]
            acc = np.ones(W, dtype=bool)
            if v > 0:
                acc &= cur[:, v - 1] != c
            if v < n - 1:
                acc &= cur[:, v + 1] != c
            cur[acc, v] = c[acc]
        R[si] = [index[tuple(row)] for row in cur.tolist()]
    return R


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_sweep_sums_match_simulated_sweeps(n):
    """The recursive all-pairs sweep sums equal sums over per-state
    simulated sweeps, for every start vertex."""
    tables = PathMetricTables(n, VertexWeights.scan_q3(n))
    D = tables.d2_int.astype(np.int64)
    sums = tables.sweep_sums()
    assert len(sums) == n + 1 and (sums[n] == D).all()
    for start in range(n):
        R = _simulated_sweep_table(tables, start)
        for si in range(len(R)):
            assert (sums[start][si] == D[R[si][None, :], R].sum(axis=1)).all(), (start, si)


def _reference_move_table(tables):
    """The move table PathMetricTables built for itself before it read the
    kernel's: the path acceptance rule and a searchsorted on base-3 codes."""
    n = tables.n
    X = np.array(tables.states, dtype=np.int64)
    place = 3 ** np.arange(n - 1, -1, -1)
    code = X @ place
    padded = np.pad(X, ((0, 0), (1, 1)), constant_values=PAD).T
    M = np.empty((len(X), n, 3), dtype=np.int64)
    for v in range(n):
        for c in range(3):
            ok = path_accepts(padded, v + 1, c)
            M[:, v, c] = np.searchsorted(code, code + ok * (c - X[:, v]) * place[v])
    return M


def _reference_metric_table(tables):
    """The all-pairs table PathMetricTables computed before it called the
    shared metric routine: the minimum over a fixed range of shifts."""
    w8 = np.array([int(4 * w) for w in tables.weights.weights], dtype=np.float32)
    H = np.array([height_of(s) for s in tables.states], dtype=np.float32)
    lo, hi = int(H.min() - H.max()) - 6, int(H.max() - H.min()) + 6
    delta = H[:, None, :] - H[None, :, :]
    return np.min([np.abs(delta - s) @ w8 for s in range(6 * (lo // 6), hi + 1, 6)], axis=0)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 8])
@pytest.mark.parametrize("preset", ["glauber_q3", "scan_q3"])
def test_metric_tables_match_reference(n, preset):
    tables = PathMetricTables(n, getattr(VertexWeights, preset)(n))
    assert np.array_equal(tables.move_table, _reference_move_table(tables))
    assert np.array_equal(tables.d2_int, _reference_metric_table(tables))


def test_metric_tables_need_quarter_weights():
    with pytest.raises(ValueError):
        PathMetricTables(4, VertexWeights((Fraction(1, 3),) * 4))


def test_ledger_budgets_and_q_range():
    # the budget refuses sizes that would need gigabytes, before enumerating
    with pytest.raises(BudgetExceededError):
        hamming_contraction_rows(12, 5)
    with pytest.raises(BudgetExceededError):
        weighted_metric_contraction_rows(12)
    # the Hamming lemmas are stated for q >= 4 (q = 3 has its own family)
    with pytest.raises(ValueError):
        hamming_contraction_rows(4, 2)


@pytest.mark.parametrize("chain", ["glauber", "scan"])
def test_identity_coupling_is_a_supermartingale(chain):
    worst, count = supermartingale_rows(4, chain)
    assert worst <= 0 and count == 552


# ---------------------------------------------------------------------------
# variance-floor witnesses
# ---------------------------------------------------------------------------

def test_site_witness_whole_line_case():
    n = 5
    w = VertexWeights.glauber_q3(n)
    sigma = tuple(i % 3 for i in range(n))
    tau = tuple((c + 1) % 3 for c in sigma)
    wit = site_variance_witness(sigma, tau)
    assert wit.achieved_drop >= w.w_min
    # the move drops the metric by exactly the chosen vertex weight
    assert wit.achieved_drop == w[wit.vertex - 1]


def test_witnesses_exhaustive_n4():
    n = 4
    states = enumerate_colorings(Graph.path(n), 3)
    wg = VertexWeights.glauber_q3(n)
    ws = VertexWeights.scan_q3(n)
    for sigma in states:
        for tau in states:
            if sigma == tau:
                continue
            site = variance_floor_witness(sigma, tau, "glauber_q3")
            assert site.achieved_drop >= wg.w_min
            sweep = variance_floor_witness(sigma, tau, "scan_q3")
            assert sweep.min_shift >= Fraction(ws.w_min, 2)
    with pytest.raises(ValueError):
        variance_floor_witness(states[0], states[0], "glauber_q3")


# sha256 over the reprs of the site and sweep witnesses of every unequal pair
# at n = 4 and 5, recorded with the Fraction metric
WITNESS_DIGEST = "aa9321f0111a4651cea112f04bcbd72184cc85b9fe391bc5d8318fa020d329d6"


def test_witnesses_match_golden_digest():
    digest = hashlib.sha256()
    for n in (4, 5):
        states = enumerate_colorings(Graph.path(n), 3)
        for sigma, tau in itertools.permutations(states, 2):
            digest.update((repr(site_variance_witness(sigma, tau)) + "\n").encode())
            digest.update((repr(sweep_variance_witness(sigma, tau)) + "\n").encode())
    assert digest.hexdigest() == WITNESS_DIGEST


def test_window_freeze_table_row():
    """The published freeze-color table row 010/121 works as stated."""
    sigma, tau = (0, 1, 0), (1, 2, 1)
    n, z = 3, 1  # 0-based middle vertex
    # trying 1 at z changes neither copy
    def try_at(x, v, c):
        ok = (v == 0 or x[v - 1] != c) and (v == n - 1 or x[v + 1] != c)
        return x[:v] + (c,) + x[v + 1:] if ok else x

    assert try_at(sigma, z, 1) == sigma and try_at(tau, z, 1) == tau
    # the per-color right freezes: 0 -> 0, 1 -> 1, 2 -> 2
    for c, c_r in ((0, 0), (1, 1), (2, 2)):
        s_mid = try_at(sigma, z, c)
        t_mid = try_at(tau, z, c)
        assert try_at(s_mid, z + 1, c_r) == s_mid
        assert try_at(t_mid, z + 1, c_r) == t_mid


# ---------------------------------------------------------------------------
# trajectory-level properties and coalescence
# ---------------------------------------------------------------------------

def test_metric_increment_caps_along_trajectories():
    """Single random-site steps move the sweep metric by at most 2; full
    sweeps by at most 2n."""
    n = 6
    g = Graph.path(n)
    tape = RandomTape(21)
    wg = VertexWeights.glauber_q3(n)
    ws = VertexWeights.scan_q3(n)
    spec_g = ChainSpec(graph=g, q=3, base="glauber")
    spec_s = ChainSpec(graph=g, q=3, base="scan")
    sigma = uniform_proper_coloring(n, 3, tape, 0, 0)
    tau = uniform_proper_coloring(n, 3, tape, 0, 1)
    s, t = sigma, tau
    for step in range(200):
        a, b = coupled_glauber_step(s, t, "identity_glauber", spec_g, spec_g, tape, 1, step)
        assert abs(d2(a, b, wg) - d2(s, t, wg)) <= 2
        s, t = a, b
    s, t = sigma, tau
    for sweep in range(100):
        a, b = coupled_scan_sweep(s, t, "identity_scan", spec_s, spec_s, tape, 2, sweep)
        assert abs(d2(a, b, ws) - d2(s, t, ws)) <= 2 * n
        s, t = a, b


def test_coupling_time_identical_starts():
    g = Graph.path(8)
    spec = ChainSpec(graph=g, q=4, base="scan")
    tape = RandomTape(3)
    s = uniform_proper_coloring(8, 4, tape, 0, 0)
    t = 0
    a, b = s, s
    assert a == b  # zero coalescence time by definition


def _reference_coalescence(spec):
    """expected_coalescence_exact before it read the move tables: one
    metropolis_update per pair, vertex and color."""
    n, q = spec.graph.n, spec.n_colors
    states = enumerate_colorings(spec.graph, q)
    pairs = [(a, b) for a in states for b in states]
    pidx = {p: i for i, p in enumerate(pairs)}
    size = len(pairs)
    P = np.zeros((size, size))
    for (a, b), i in pidx.items():
        if a == b:
            P[i, i] = 1.0
            continue
        for v in range(1, n + 1):
            for c in range(q):
                a2 = metropolis_update(a, v, c, spec)
                b2 = metropolis_update(b, v, c, spec)
                P[i, pidx[(a2, b2)]] += 1.0 / (n * q)
    transient = [i for (a, b), i in pidx.items() if a != b]
    Q = P[np.ix_(transient, transient)]
    t = np.linalg.solve(np.eye(len(transient)) - Q, np.ones(len(transient)))
    expected = np.zeros(size)
    expected[transient] = t
    return pairs, expected


@pytest.mark.parametrize("spec", [
    ChainSpec(graph=Graph.path(4), q=3, base="glauber"),
    ChainSpec(graph=Graph.path(3), q=4, base="glauber"),
    ChainSpec(graph=Graph.star(4), q=3, base="glauber"),
])
def test_expected_coalescence_matches_reference_loop(spec):
    pairs, expected = expected_coalescence_exact(spec)
    ref_pairs, ref_expected = _reference_coalescence(spec)
    assert np.array_equal(pairs, ref_pairs)
    assert np.array_equal(expected, ref_expected)


@pytest.mark.parametrize("spec", [
    ChainSpec(graph=Graph.path(3), q=3, base="glauber", lazy=True),
    ChainSpec(graph=Graph.path(3), q=3, base="scan"),
    ChainSpec(graph=Graph.path(4), q=3, base="glauber", clamp={2}),
    ChainSpec(graph=Graph.path(3), target=TargetGraph.cycle(5), base="glauber"),
])
def test_expected_coalescence_refuses_other_chains(spec):
    with pytest.raises(ValueError, match="identity_glauber drives plain glauber"):
        expected_coalescence_exact(spec)


def test_coupling_time_against_exact_absorption():
    """Empirical mean coalescence time sits within 3 SE of the exact value."""
    g = Graph.path(4)
    spec = ChainSpec(graph=g, q=3, base="glauber")
    pairs, expected = expected_coalescence_exact(spec)
    pidx = {p: i for i, p in enumerate(pairs)}
    tape = RandomTape(6)
    reps = 600
    stats = coupling_time(spec, "identity_glauber", reps, tape, horizon=20000)
    assert stats.censored == 0
    # the exact benchmark averages the absorption time over the same start law
    start_mean = 0.0
    for r in range(reps):
        a = uniform_proper_coloring(4, 3, tape, r, 0)
        b = uniform_proper_coloring(4, 3, tape, r, 1)
        start_mean += expected[pidx[(a, b)]]
    start_mean /= reps
    se = np.std(stats.times) / np.sqrt(reps)
    assert abs(stats.mean - start_mean) <= 3 * se


def test_coupling_time_growth_is_logarithmic():
    g32 = Graph.path(32)
    spec = ChainSpec(graph=g32, q=4, base="scan")
    tape = RandomTape(1729)
    stats = coupling_time(spec, "q4_scan", 32, tape)
    assert stats.censored == 0
    assert stats.median < 64


def test_coupling_time_refuses_zero_replicates():
    spec = ChainSpec(graph=Graph.path(8), q=4, base="scan")
    with pytest.raises(ValueError, match="replicates"):
        coupling_time(spec, "q4_scan", 0, RandomTape(1))


def test_transpose_color():
    assert transpose_color(0, 0, 1) == 1
    assert transpose_color(1, 0, 1) == 0
    assert transpose_color(2, 0, 1) == 2
    assert transpose_color(1, 1, 1) == 1
    c = np.arange(4, dtype=np.int8)
    assert transpose_color(c, np.int8(1), np.int8(3)).tolist() == [0, 3, 2, 1]


def _reference_partner(kind, v, c, sigma, tau, important):
    """The partner rule as the drivers spelled it out, branch by branch, on
    unpadded colorings (1-based v; ``important`` maps v to its neighbor)."""
    n = len(sigma)

    def swap(c, a, b):
        return b if c == a else a if c == b else c

    if kind.startswith("identity"):
        return c
    if kind.startswith("q4"):
        if v > 1 and sigma[v - 2] != tau[v - 2]:
            return swap(c, sigma[v - 2], tau[v - 2])
        if v < n and sigma[v] != tau[v]:
            return swap(c, sigma[v], tau[v])
        return c
    if kind == "switch_scan":
        return swap(c, sigma[v - 2], tau[v - 2]) if v > 1 else c
    w = important.get(v)
    return swap(c, sigma[w - 1], tau[w - 1]) if w else c


@pytest.mark.parametrize("q", [3, 4, 5])
def test_partner_rule_matches_reference_on_every_window(q):
    """Every window (left pair, right pair, each possibly missing) and color:
    the padded partner rule equals the branch-by-branch reference, and the
    batched form (first-axis and flat layouts) equals the one-replicate form."""
    pairs = [None] + list(itertools.product(range(q), repeat=2))
    frames, imps = [], []  # frame rows: PAD, left, vertex (color 0), right, PAD
    for left, right in itertools.product(pairs, repeat=2):
        frame = np.full((2, 5), PAD)
        frame[:, 2] = 0
        if left:
            frame[:, 1] = left
        if right:
            frame[:, 3] = right
        for imp in [0] + [w for w, p in ((1, left), (3, right)) if p]:
            frames.append(frame)
            imps.append(imp)  # padded position of the important neighbor
    S, T = (np.array(frames, dtype=np.int8)[:, k].copy() for k in (0, 1))
    W, base = np.array(imps), np.arange(len(imps)) * 5
    kinds = ("identity_scan", "q4_scan", "switch_scan", "identity_glauber",
             "q4_glauber", "switch_glauber_important_neighbor")
    for kind in kinds:
        for c in range(q):
            scalar = []
            for s, t, w in zip(S.tolist(), T.tolist(), imps):
                sigma, tau = (tuple(x for x in y if x != PAD) for y in (s, t))
                v = 1 + (s[1] != PAD)  # the vertex's place in the unpadded window
                important = {v: v - 2 + w} if w else {}
                got = partner_proposal(kind, 2, c, s, t, w)
                assert got == _reference_partner(kind, v, c, sigma, tau, important), (kind, c)
                scalar.append(got)
            C = np.full(len(imps), c, dtype=np.int8)
            if kind.startswith("switch_glauber"):
                batch = partner_proposal(kind, base + 2, C, S.reshape(-1), T.reshape(-1), base + W)
            else:
                batch = partner_proposal(kind, 2, C, S.T, T.T)
            assert np.broadcast_to(batch, C.shape).tolist() == scalar, kind


def test_single_site_swap_coupling_marginals():
    """Each copy of the coupled single-site update follows the plain chain."""
    q, n = 4, 3
    g = Graph.path(n)
    spec = ChainSpec(graph=g, q=q)
    kernel = build_kernel(spec, proper_only=False)
    sigma = (0, 1, 0)
    tau = (0, 2, 0)
    law1, law2 = Counter(), Counter()
    for v in range(1, n + 1):
        for c in range(q):
            c2 = c
            if v > 1 and sigma[v - 2] != tau[v - 2]:
                c2 = transpose_color(c, sigma[v - 2], tau[v - 2])
            elif v < n and sigma[v] != tau[v]:
                c2 = transpose_color(c, sigma[v], tau[v])
            from scanmix.dynamics import metropolis_update

            law1[metropolis_update(sigma, v, c, spec)] += 1
            law2[metropolis_update(tau, v, c2, spec)] += 1
    for state, cnt in law1.items():
        assert kernel.entry(kernel.index[sigma], kernel.index[state]) == Fraction(cnt, n * q)
    for state, cnt in law2.items():
        assert kernel.entry(kernel.index[tau], kernel.index[state]) == Fraction(cnt, n * q)


def test_switch_coupling_with_clamped_copy():
    """The clamped copy never moves its anchors; the free copy does."""
    from scanmix.coupling import coupled_scan_sweep

    n, q = 12, 4
    g = Graph.path(n)
    anchors = frozenset({1, 5, 9})
    free = ChainSpec(graph=g, q=q, base="scan")
    clamped = ChainSpec(graph=g, q=q, base="scan", clamp=anchors)
    tape = RandomTape(31)
    s = uniform_proper_coloring(n, q, tape, 0, 0)
    t = s
    initial = {a: s[a - 1] for a in anchors}
    moved_anchor = False
    for sweep in range(12):
        s, t = coupled_scan_sweep(s, t, "switch_scan", free, clamped, tape, 0, sweep)
        for a in anchors:
            assert t[a - 1] == initial[a]  # clamped copy holds its anchors
        moved_anchor = moved_anchor or any(s[a - 1] != initial[a] for a in anchors)
    assert moved_anchor


@pytest.mark.parametrize("chain", ["glauber", "scan"])
@pytest.mark.parametrize("n", [5, 6])
def test_supermartingale_over_all_pairs(chain, n):
    """Break-even weights keep the identity-coupling drift nonpositive from
    every ordered pair, not just adjacent ones."""
    worst, count = supermartingale_rows(n, chain)
    assert worst <= 0
    states = 3 * 2 ** (n - 1)
    assert count == states * (states - 1)


def test_coupling_kind_model_mismatch_raises():
    tape = RandomTape(0)
    star_spec = ChainSpec(graph=Graph.star(4), q=4, base="scan")
    with pytest.raises(ValueError):
        coupled_scan_sweep((0, 1, 2, 3), (0, 1, 2, 2), "q4_scan", star_spec, star_spec, tape)
    q3_spec = ChainSpec(graph=Graph.path(4), q=3, base="scan")
    with pytest.raises(ValueError):
        coupled_scan_sweep((0, 1, 0, 1), (0, 1, 2, 1), "q4_scan", q3_spec, q3_spec, tape)
    with pytest.raises(ValueError):
        exact_drift((0, 1), (1, 0), "switch_glauber_important_neighbor", "hamming", q=4)
