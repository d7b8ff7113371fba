"""Coupled evolutions: drift oracles, ledger, witnesses, coalescence."""

import functools
import hashlib
import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from scanmix.coupling import (
    COUPLING_KINDS,
    STEP_TABLE_BUDGET,
    TABLE_MAX_Q,
    CouplingStats,
    PathMetricTables,
    _ham_batch_drift,
    _pair_codes,
    _restricted_growth_array,
    _step_table,
    _table_index,
    coupled_sweep,
    coupled_update,
    coupling_time,
    partner_proposal,
    hamming_contraction_rows,
    switch_scan_sweeps,
    transpose_color,
    uniform_proper_coloring,
    weighted_metric_contraction_rows,
)
from scanmix.domain import (
    PAD,
    BudgetExceededError,
    Graph,
    ImproperColoringError,
    TargetGraph,
    VertexWeights,
    enumerate_colorings,
    heights,
    pad,
    path_accepts,
)
from scanmix.dynamics import (
    CH_GLAUBER,
    CH_SCAN,
    ChainSpec,
    RandomTape,
    color_from_uniform,
    metropolis_update,
    scan_order,
    vertex_from_uniform,
)
from reference import (
    WITNESS_DIGEST,
    all_colorings_kernel,
    cycle,
    d2,
    drop_choice,
    exact_drift,
    restricted_growth_by_stacking,
    site_variance_witness,
    star,
    sweep_variance_witness,
)
from test_kernels import entry


def ham(a, b):
    return sum(x != y for x, y in zip(a, b))


def _deterministic_coupled_scan(sigma, tau, kind, props, start, q, n, order=None):
    """Scalar reference: one coupled sweep from ``start`` with the given
    proposal colors of copy one, over the vertices of ``order`` (by default
    left to right)."""
    s, t = pad(sigma), pad(tau)
    for v in order or range(start, n + 1):
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


def _reference_ham_batch_drift(sig, tau, start, q, coupling="q4_scan"):
    """Row-by-row reference for ``_ham_batch_drift``: every row advances
    its own pair distribution through all scanned vertices, one gather from
    ``_step_table`` and one bincount per vertex."""
    sig = np.asarray(sig, dtype=np.int64)
    tau = np.asarray(tau, dtype=np.int64)
    C, n = sig.shape
    scale = q ** (n - start)
    q1, L = q + 1, (q + 1) ** 2
    table = _step_table(q, coupling).reshape(-1, q)
    pad = np.full((C, 1), q)
    right = np.hstack([sig[:, 1:], pad]) * q1 + np.hstack([tau[:, 1:], pad])
    rows_at = (right * q * q + sig * q + tau) * L
    a, b = np.divmod(np.arange(L), q1)
    off_diag = (a != b) & (a < q) & (b < q)
    dist = np.zeros((C, L))
    left = sig[:, start - 1] * q1 + tau[:, start - 1] if start else L - 1
    dist[np.arange(C), left] = 1
    expected = np.zeros(C, dtype=np.int64)
    for v in range(start, n):
        r, lp = np.nonzero(dist)
        nxt = table[rows_at[r, v] + lp]
        dist = np.bincount(
            (nxt + (r * L)[:, None]).ravel(),
            weights=np.repeat(dist[r, lp], q),
            minlength=C * L,
        ).reshape(C, L)
        expected += dist[:, off_diag].sum(axis=1).astype(np.int64) * q ** (n - v - 1)
    fixed = (sig[:, :start] != tau[:, :start]).sum(axis=1)
    return fixed * scale + expected, scale


def test_prefix_tree_dp_matches_the_row_by_row_reference(monkeypatch):
    """The shared-prefix DP returns the reference's arrays (values, dtype,
    shape, scale) on every batch the Hamming ledger sends it at small (n, q),
    and on seeded random batches with improper pairs, for every start and
    every scan coupling."""
    import scanmix.coupling as coupling_mod

    batches = []

    def record(sig, tau, start, q, coupling="q4_scan"):
        batches.append((sig, tau, start, q))
        return _ham_batch_drift(sig, tau, start, q, coupling)

    monkeypatch.setattr(coupling_mod, "_ham_batch_drift", record)
    for n, q in ((2, 5), (3, 4), (5, 6), (6, 4)):
        hamming_contraction_rows(n, q)
    rng = np.random.default_rng(16)
    for q in range(3, 7):
        for n in range(1, 7):
            for C in (0, 1, 2, 50):
                sig = rng.integers(q, size=(C, n))
                tau = np.where(rng.random((C, n)) < 0.3, rng.integers(q, size=(C, n)), sig)
                batches += [(sig, tau, start, q) for start in range(n + 1)]
    for sig, tau, start, q in batches:
        for kind in ("q4_scan", "identity_scan", "switch_scan"):
            num, scale = _ham_batch_drift(sig, tau, start, q, kind)
            ref, ref_scale = _reference_ham_batch_drift(sig, tau, start, q, kind)
            assert scale == ref_scale
            assert num.dtype == ref.dtype and num.shape == ref.shape
            assert np.array_equal(num, ref), (sig.shape, start, q, kind)


def test_dp_matches_the_references_across_7_row_chunks(monkeypatch):
    """With 7-row chunks the DP equals the row-by-row reference on every
    batch the Hamming ledger sends it at n = 2..6, q = 3..6, and the scalar
    enumeration reference on spread rows of each batch that spans chunks
    and needs at most 4^4 sweeps per row."""
    import scanmix.coupling as coupling_mod

    batches = []

    def record(sig, tau, start, q, coupling="q4_scan"):
        batches.append((sig, tau, start, q))
        return _ham_batch_drift(sig, tau, start, q, coupling)

    monkeypatch.setattr(coupling_mod, "_ham_batch_drift", record)
    for q in range(3, 7):
        for n in range(2, 7):
            hamming_contraction_rows(n, q)
    monkeypatch.setattr(coupling_mod, "DP_CHUNK_ROWS", 7)
    for sig, tau, start, q in batches:
        num, scale = _ham_batch_drift(sig, tau, start, q)
        ref, ref_scale = _reference_ham_batch_drift(sig, tau, start, q)
        assert scale == ref_scale and np.array_equal(num, ref), (sig.shape, start, q)
        C, n = sig.shape
        if C > 7 and scale <= 4 ** 4:
            for i in np.linspace(0, C - 1, 5).astype(int):
                want = _reference_drift(tuple(sig[i].tolist()), tuple(tau[i].tolist()),
                                        "q4_scan", "hamming", q, start + 1, None)
                assert Fraction(int(num[i]), scale) == want, (sig.shape, start, q, i)


def test_dp_refuses_other_couplings_and_inexact_scales():
    sig = np.zeros((1, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="no Hamming DP"):
        _ham_batch_drift(sig, sig, 0, 4, "q4_glauber")
    with pytest.raises(ValueError, match="2\\^53"):
        _ham_batch_drift(np.zeros((1, 27)), np.zeros((1, 27)), 0, 4)


@pytest.mark.parametrize("kind", ["identity_scan", "q4_scan", "switch_scan"])
def test_marginal_law_is_the_chain_law(kind):
    """Each coupled copy, viewed alone, moves exactly like the plain sweep."""
    q, n = 4, 3
    g = Graph.path(n)
    spec = ChainSpec(graph=g, q=q, base="scan")
    kernel = all_colorings_kernel(spec)
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
        at = kernel.states.index
        for state, cnt in law1.items():
            assert entry(kernel, at(sigma), at(state)) == Fraction(cnt, q ** n)
        for state, cnt in law2.items():
            assert entry(kernel, at(tau), at(state)) == Fraction(cnt, q ** n)


@pytest.mark.parametrize("n", [4, 5])
def test_scan_d2_drift_equals_the_sweep_sums(n):
    """The enumerating d2 scan branch equals PathMetricTables' sweep DP for
    every ordered pair and every start vertex."""
    w = VertexWeights.scan_q3(n)
    tables = PathMetricTables(n, w)
    F = dict(tables.sweep_sums())
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


def test_d2_drift_refuses_improper_pairs():
    """exact_drift's d2 refuses what d2 refuses, where it used to read
    the unequal pair (0,1,2,3) / (0,1,2,0) as distance 0."""
    wg, ws = VertexWeights.glauber_q3(4), VertexWeights.scan_q3(4)
    for sigma, tau in (((0, 1, 2, 3), (0, 1, 2, 0)), ((0, 1, 2, 0), (0, 1, 1, 0))):
        with pytest.raises(ImproperColoringError):
            d2(sigma, tau, wg)
        with pytest.raises(ImproperColoringError):
            exact_drift(sigma, tau, "identity_glauber", "d2", q=4, weights=wg)
        with pytest.raises(ImproperColoringError):
            exact_drift(sigma, tau, "identity_scan", "d2", q=4, weights=ws)


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
    out = coupled_sweep(sigma, tau, "q4_scan", spec, tape, rep=0, t=0)
    u = tape.uniforms(0, 0, 1, n)
    props = tuple(min(int(x * q), q - 1) for x in u)
    assert out == _deterministic_coupled_scan(sigma, tau, "q4_scan", props, 1, q, n)


@pytest.mark.parametrize("q", [3, 4, 5, 6, TABLE_MAX_Q + 1])
@pytest.mark.parametrize("base", ["scan", "reverse_scan"])
def test_table_sweep_matches_the_vertex_by_vertex_reference(q, base):
    """``coupled_sweep`` gives the scalar reference's pair for every
    scan coupling that fits q, on random proper and improper pairs and on
    pairs with a color outside range(q), which run vertex by vertex, as
    does every pair beyond TABLE_MAX_Q colors."""
    kinds = ["identity_scan", "switch_scan"] + (["q4_scan"] if q >= 4 else [])
    rng = np.random.default_rng(q)
    tape = RandomTape(q)
    for n in (1, 2, 5, 12):
        spec = ChainSpec(graph=Graph.path(n), q=q, base=base)
        for rep in range(30):
            if rep % 3 == 0:
                sigma = uniform_proper_coloring(n, q, tape, rep, 0)
                tau = uniform_proper_coloring(n, q, tape, rep, 1)
            else:
                sigma, tau = (tuple(rng.integers(0, q, n).tolist()) for _ in "st")
                if rep == 1:
                    sigma = (q,) + sigma[1:]
            props = [color_from_uniform(u, q) for u in tape.uniforms(rep, 3, CH_SCAN, n)]
            for kind in kinds:
                got = coupled_sweep(sigma, tau, kind, spec, tape, rep, 3)
                want = _deterministic_coupled_scan(sigma, tau, kind, props, 1, q, n, scan_order(spec))
                assert got == want, (kind, sigma, tau)


@pytest.mark.parametrize("s_type,t_type,dtype", [
    (np.int64, np.int64, np.int64), (np.int64, np.int64, np.uint8), (np.int8, np.int8, np.uint8),
])
def test_pair_codes_round_trip_with_a_sentinel_row_at_each_end(s_type, t_type, dtype):
    """``_pair_codes`` holds a * (q + 1) + b at vertices 1..n of axis 0 and
    the sentinel pair (q, q) in the rows before and after them, for one
    coloring or a batch along axis 1."""
    rng = np.random.default_rng(29)
    for q in (3, 6, 10):
        for shape in ((7,), (5, 3)):
            S = rng.integers(q, size=shape).astype(s_type)
            T = rng.integers(q, size=shape).astype(t_type)
            P = _pair_codes(S, T, q, dtype)
            assert P.dtype == dtype and P.shape == (shape[0] + 2,) + shape[1:]
            a, b = np.divmod(P, q + 1)
            assert np.array_equal(a[1:-1], S) and np.array_equal(b[1:-1], T)
            assert (a[[0, -1]] == q).all() and (b[[0, -1]] == q).all()


@pytest.mark.parametrize("q", [3, 4])
def test_step_table_axes_are_right_own_left_proposal(q):
    """``_step_table`` is (L, q^2, L, q): right pair code, own pair a * q + b,
    left pair code and proposal, each at the flat position ``_table_index``
    gives for the own pair code a * (q + 1) + b."""
    L = (q + 1) ** 2
    own = (np.arange(q)[:, None] * (q + 1) + np.arange(q)).ravel()  # pair codes, a-major
    for kind in ("q4_scan", "identity_scan", "switch_scan"):
        table = _step_table(q, kind)
        assert table.shape == (L, q * q, L, q)
        right, o, left, c = np.ix_(np.arange(L), np.arange(q * q), np.arange(L), np.arange(q))
        flat = table.reshape(-1)[_table_index(q, left, own[o], right, c)]
        assert np.array_equal(flat, table)


def test_step_table_budget_keeps_pair_codes_in_a_byte():
    """Every q whose step table ``STEP_TABLE_BUDGET`` admits has its (q + 1)^2
    pair codes in a byte, so the uint8 table needs no guard of its own;
    q = 16, whose codes would not fit, is refused before any allocation."""
    admitted = [q for q in range(1, 20) if (q + 1) ** 4 * q ** 3 <= STEP_TABLE_BUDGET]
    assert admitted == list(range(1, 11))
    assert all((q + 1) ** 2 <= 256 for q in admitted)
    tracemalloc.start()
    with pytest.raises(ValueError, match="exceed budget"):
        _step_table(16, "q4_scan")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20


def test_step_table_refuses_tables_over_its_cell_budget():
    """The budget admits q <= 10; q = 15, whose 221M cells hold codes that
    still fit a byte, is refused before any allocation."""
    assert 11 ** 4 * 10 ** 3 <= STEP_TABLE_BUDGET < 12 ** 4 * 11 ** 3
    tracemalloc.start()
    with pytest.raises(ValueError, match="exceed budget"):
        _step_table(15, "q4_scan")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20


def test_identity_coupling_diagonal_absorbs():
    g = Graph.path(4)
    spec = ChainSpec(graph=g, q=3, base="scan")
    tape = RandomTape(5)
    s = (0, 1, 2, 0)
    for t in range(10):
        a, b = coupled_sweep(s, s, "identity_scan", spec, tape, 0, t)
        assert a == b
        s = a


def _reference_coupled_sweep(sigma, tau, kind, spec, tape, rep, t):
    """One coupled sweep or step from ``partner_proposal`` and
    ``metropolis_update`` on the draws of ``scan_sweep``/``glauber_step``."""
    n, q = spec.graph.n, spec.n_colors
    if kind.endswith("_scan"):
        u = tape.uniforms(rep, t, CH_SCAN, n)
        moves = [(v, color_from_uniform(u[v - 1], q)) for v in scan_order(spec)]
    else:
        u = tape.uniforms(rep, t, CH_GLAUBER, 3)
        moves = [(vertex_from_uniform(u[1], n), color_from_uniform(u[2], q))]
    for v, c in moves:
        c2 = partner_proposal(kind, v, c, pad(sigma), pad(tau))
        sigma, tau = metropolis_update(sigma, v, c, spec), metropolis_update(tau, v, c2, spec)
    return sigma, tau


@pytest.mark.parametrize("model,kinds", [
    (dict(graph=Graph.path(6), q=7), ("identity_scan", "q4_scan", "switch_scan")),
    (dict(graph=Graph.path(6), q=4), ("identity_glauber", "q4_glauber")),
    (dict(graph=Graph.path(6), q=7), ("identity_glauber", "q4_glauber")),
])
def test_vertex_by_vertex_coupled_sweep_matches_the_reference(model, kinds):
    """Off the table (sweeps beyond TABLE_MAX_Q colors, and every glauber
    step) ``coupled_sweep`` runs ``coupled_update`` vertex by vertex; five
    steps from each of 12 random pairs, improper ones included, follow the
    reference, in every scan order."""
    rng = np.random.default_rng(5)
    tape = RandomTape(5)
    for kind in kinds:
        for base in ("glauber",) if kind.endswith("glauber") else ("scan", "reverse_scan"):
            spec = ChainSpec(base=base, **model)
            for rep in range(12):
                pair = tuple(tuple(rng.integers(spec.q, size=spec.graph.n).tolist()) for _ in "st")
                for t in range(5):
                    want = _reference_coupled_sweep(*pair, kind, spec, tape, rep, t)
                    pair = coupled_sweep(*pair, kind, spec, tape, rep, t)
                    assert pair == want, (kind, base, rep, t)


@pytest.mark.parametrize("model", [
    dict(graph=star(4), q=4),
    dict(graph=Graph.path(5), target=cycle(5)),
    dict(graph=Graph.path(6), q=4, clamp={2, 5}),
], ids=["star", "C5 model", "clamped path"])
def test_coupled_runs_refuse_models_their_starts_miss(model):
    """The coalescence starts are proper colorings of the path, so every
    coupling kind refuses a star, an H-coloring model and a clamped path,
    in ``coupled_sweep`` and in ``coupling_time``, before any step runs."""
    tape = RandomTape(0)
    for kind in COUPLING_KINDS:
        spec = ChainSpec(base="glauber" if kind.endswith("glauber") else "scan", **model)
        start = (0,) * spec.graph.n
        reason = "segment layout" if kind.endswith("neighbor") else "proper colorings of the path"
        with pytest.raises(ValueError, match=reason):
            coupled_sweep(start, start, kind, spec, tape)
        with pytest.raises(ValueError, match=reason):
            coupling_time(spec, kind, 4, tape)


def test_coupled_update_on_padded_lists_keeps_python_ints():
    """On padded lists with int v and c, ``coupled_update`` writes Python
    ints (no numpy scalar reaches the list) and makes the reference's
    move: each copy takes its proposal where no neighbor carries it."""
    rng = np.random.default_rng(11)
    q, n = 4, 5
    for kind in COUPLING_KINDS:
        for _ in range(40):
            s, t = (pad(tuple(rng.integers(q, size=n).tolist())) for _ in "st")
            v, c = int(rng.integers(1, n + 1)), int(rng.integers(q))
            w = v - 1 if kind.endswith("neighbor") else None
            c2 = partner_proposal(kind, v, c, s, t, w)
            want_s = s[v] if (s[v - 1] == c or s[v + 1] == c) else c
            want_t = t[v] if (t[v - 1] == c2 or t[v + 1] == c2) else c2
            coupled_update(s, t, v, c, kind, w)
            assert all(type(x) is int for x in s + t), kind
            assert (s[v], t[v]) == (want_s, want_t), kind


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

def restricted_growth_tuples(length, q):
    """One representative per orbit of q-ary tuples under color permutation,
    as tuples."""
    return [tuple(r) for r in _restricted_growth_array(length, q).tolist()]


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


def test_restricted_growth_array_equals_the_stacked_construction():
    for length, q in itertools.product(range(10), range(3, 7)):
        got, expected = _restricted_growth_array(length, q), restricted_growth_by_stacking(length, q)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), (length, q)


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
    from scanmix.coupling import _disagreement_classes

    n, q = 4, 4
    all_rows = hamming_contraction_rows(n, q)
    rows = [r for r in all_rows if r.lemma_id == "full_last"]
    sig, tau = _disagreement_classes(n, q, [n - 1])
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
    sums = dict(tables.sweep_sums())
    assert list(sums) == list(range(n, -1, -1)) and (sums[n] == D).all()
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
    H = heights(tables.states).astype(np.float32)
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


def site_sums(tables, si, ti):
    """Sum over the 3n single-site draws of the metric after the
    identity-coupled update of pairs (si, ti), in 1/8 units."""
    M = tables.move_table
    after = tables.d2_int[M[si].reshape(len(si), -1), M[ti].reshape(len(ti), -1)]
    return after.sum(axis=1, dtype=np.int64)


def supermartingale_rows(n, chain):
    """Worst exact one-step identity-coupling drift over all ordered pairs.

    chain='glauber' pairs the (1/2,...,1/2) weights with single-site updates;
    chain='scan' pairs the (1/4,...,3/4) weights with full sweeps.  Returns
    (max drift, number of pairs); the path-coupling break-even property says
    the max is <= 0.
    """
    weights = VertexWeights.glauber_q3(n) if chain == "glauber" else VertexWeights.scan_q3(n)
    tables = PathMetricTables(n, weights)
    S = len(tables.states)
    si, ti = np.nonzero(~np.eye(S, dtype=bool))
    if chain == "glauber":
        after, den = site_sums(tables, si, ti), 3 * n
    else:
        after, den = dict(tables.sweep_sums())[0][si, ti], 3 ** n
    drift = after - den * tables.d2_int[si, ti].astype(np.int64)
    return Fraction(int(drift.max()), 8 * den), len(si)


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
    assert wit.achieved_drop >= min(w.weights)
    # the move drops the metric by exactly the chosen vertex weight
    assert wit.achieved_drop == w[wit.vertex - 1]


@functools.cache
def witnesses(n):
    """(sigma, tau, site witness, sweep witness) of every ordered unequal
    pair of proper 3-colorings of the n-path."""
    states = enumerate_colorings(Graph.path(n), 3)
    return [(sigma, tau, site_variance_witness(sigma, tau), sweep_variance_witness(sigma, tau))
            for sigma, tau in itertools.permutations(states, 2)]


def test_witnesses_exhaustive_n4():
    w_site, w_sweep = min(VertexWeights.glauber_q3(4).weights), min(VertexWeights.scan_q3(4).weights)
    for sigma, tau, site, sweep in witnesses(4):
        assert site.achieved_drop >= w_site
        assert sweep.min_shift >= w_sweep / 2
    for witness in (site_variance_witness, sweep_variance_witness):
        with pytest.raises(ValueError):
            witness((0, 1, 0, 1), (0, 1, 0, 1))


def test_witnesses_match_golden_digest():
    digest = hashlib.sha256()
    for n in (4, 5):
        for _, _, site, sweep in witnesses(n):
            digest.update((repr(site) + "\n").encode())
            digest.update((repr(sweep) + "\n").encode())
    assert digest.hexdigest() == WITNESS_DIGEST


def test_witness_fallbacks_are_counted():
    """The site witness is always the case analysis's (vertex, color); the
    sweep witness leaves its drop vertex on 0 of 552 pairs at n = 4 and on
    24 of 2,256 at n = 5, where the search over other windows finds one."""
    for n, pairs, sweep_misses in ((4, 552, 0), (5, 2256, 24)):
        wg, ws = VertexWeights.glauber_q3(n), VertexWeights.scan_q3(n)
        site_off = sweep_off = 0
        for sigma, tau, site, sweep in witnesses(n):
            z, c = drop_choice(sigma, tau, wg)
            site_off += (site.vertex, site.color) != (z + 1, c)
            sweep_off += sweep.vertex != drop_choice(sigma, tau, ws)[0] + 1
        assert (len(witnesses(n)), site_off, sweep_off) == (pairs, 0, sweep_misses)


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
        a, b = coupled_sweep(s, t, "identity_glauber", spec_g, tape, 1, step)
        assert abs(d2(a, b, wg) - d2(s, t, wg)) <= 2
        s, t = a, b
    s, t = sigma, tau
    for sweep in range(100):
        a, b = coupled_sweep(s, t, "identity_scan", spec_s, tape, 2, sweep)
        assert abs(d2(a, b, ws) - d2(s, t, ws)) <= 2 * n
        s, t = a, b


COALESCED_CASES = [
    (q, base, kind)
    for q, base in ((4, "scan"), (4, "reverse_scan"), (7, "scan"), (4, "glauber"), (7, "glauber"))
    for kind in COUPLING_KINDS
    if kind != "switch_glauber_important_neighbor" and kind.endswith(base.split("_")[-1])
]


@pytest.mark.parametrize("q,base,kind", COALESCED_CASES)
def test_coalesced_pair_stays_coalesced(q, base, kind):
    """Every coupling kind that drives the chain keeps equal copies equal:
    the q = 4 sweeps run by table, the q = 7 sweeps and the glauber steps
    vertex by vertex."""
    n = 8
    spec = ChainSpec(graph=Graph.path(n), q=q, base=base)
    tape = RandomTape(3)
    s = uniform_proper_coloring(n, q, tape, 0, 0)
    visited = {s}
    for step in range(20):
        a, b = coupled_sweep(s, s, kind, spec, tape, 1, step)
        assert a == b, f"copies split at step {step}"
        s = a
        visited.add(s)
    assert len(visited) > 1  # the chain moved


def _reference_coalescence(spec):
    """Exact expected coalescence times of the identity_glauber coupling from
    every ordered pair, as (pairs, times): the coupled kernel on pairs, one
    metropolis_update per pair, vertex and color, with the diagonal
    absorbing, and its first-passage linear system."""
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


def test_coupling_time_against_exact_absorption():
    """Empirical mean coalescence time sits within 3 SE of the exact value."""
    g = Graph.path(4)
    spec = ChainSpec(graph=g, q=3, base="glauber")
    pairs, expected = _reference_coalescence(spec)
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


def test_only_replicates_apart_at_the_horizon_are_censored():
    """A replicate that coalesces on the horizon's last sweep reads the
    horizon as its time but is not censored: replicate 3 at horizon 12,
    replicates 2, 5 and 7 at horizon 4."""
    spec = ChainSpec(graph=Graph.path(8), q=4, base="scan")
    full = coupling_time(spec, "q4_scan", 8, RandomTape(1729), horizon=12)
    assert full.times == [3, 2, 4, 12, 5, 4, 9, 4] and full.censored == 0
    cut = coupling_time(spec, "q4_scan", 8, RandomTape(1729), horizon=4)
    assert cut.times == [min(t, 4) for t in full.times]
    assert cut.apart == [t > 4 for t in full.times] and cut.censored == 3


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
    kernel = all_colorings_kernel(spec)
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
    at = kernel.states.index
    for state, cnt in law1.items():
        assert entry(kernel, at(sigma), at(state)) == Fraction(cnt, n * q)
    for state, cnt in law2.items():
        assert entry(kernel, at(tau), at(state)) == Fraction(cnt, n * q)


def test_switch_coupling_with_clamped_copy():
    """The clamped copy never moves its anchors; the free copy does."""
    n, q = 12, 4
    anchors = [1, 5, 9]
    frozen = np.zeros(n + 2, dtype=bool)
    frozen[anchors] = True
    tape = RandomTape(31)
    s = np.array([uniform_proper_coloring(n, q, tape, 0, 0)])
    held = s[0, np.array(anchors) - 1][:, None]
    moved_anchor = False
    for sweeps in range(1, 13):
        free, clamped = switch_scan_sweeps(s, s, q, frozen, sweeps, tape, anchors)
        assert np.array_equal(clamped, held)  # clamped copy holds its anchors
        moved_anchor = moved_anchor or bool((free != held).any())
    assert moved_anchor


@pytest.mark.parametrize("kind", [k for k in COUPLING_KINDS if k.endswith("_scan")])
@pytest.mark.parametrize("q", range(3, 7))
def test_frozen_step_table_keeps_copy_twos_own_color(kind, q):
    """The frozen table is the unfrozen one with copy two's color kept at
    its own: copy one's move never reads whether copy two is frozen."""
    q1 = q + 1
    free = _step_table(q, kind).astype(np.int64)
    own_b = (np.arange(q * q) % q)[:, None, None]  # axis 1 is the own pair a * q + b
    frozen = _step_table(q, kind, frozen=True)
    assert np.array_equal(frozen, free - free % q1 + own_b)
    assert not np.array_equal(frozen, free)


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
    star_spec = ChainSpec(graph=star(4), q=4, base="scan")
    with pytest.raises(ValueError):
        coupled_sweep((0, 1, 2, 3), (0, 1, 2, 2), "q4_scan", star_spec, tape)
    q3_spec = ChainSpec(graph=Graph.path(4), q=3, base="scan")
    with pytest.raises(ValueError):
        coupled_sweep((0, 1, 0, 1), (0, 1, 2, 1), "q4_scan", q3_spec, tape)
    with pytest.raises(ValueError):
        exact_drift((0, 1), (1, 0), "switch_glauber_important_neighbor", "hamming", q=4)
