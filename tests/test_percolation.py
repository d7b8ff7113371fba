"""Transfer counts, segment layouts, anchored sampling, and the experiment."""

import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

import scanmix.coupling as coupling
from scanmix.coupling import (
    coupled_update,
    partner_proposal,
    switch_scan_contained,
    switch_scan_sweeps,
    switch_site_steps,
)
from scanmix.domain import BudgetExceededError, Graph, enumerate_colorings, path_accepts
from scanmix.dynamics import CH_INIT, CH_SCAN, ChainSpec, RandomTape
from scanmix.kernels import build_kernel
from scanmix.percolation import (
    _conditional_matrices,
    lb_experiment,
    sample_pi0,
    segment_layout,
    transfer_count,
)
from reference import (
    anchored_z_tail_exact,
    chi2_p_value,
    enumerate_anchor_fiber,
    exact_free_tail,
    important_neighbor_steps,
    law_after,
    mid_color_prob,
    padded,
    stationary_z_tail_exact,
    z_statistic,
)

DESK = segment_layout(10_000, 4, override=(2, 10))


def brute_counts(q, s):
    """counts[i, j]: proper colorings of an s-edge path with endpoint colors
    i and j, tallied over one enumeration of all q^(s + 1) color sequences."""
    seq = np.indices((q,) * (s + 1), dtype=np.int8).reshape(s + 1, -1)
    proper = (seq[1:] != seq[:-1]).all(axis=0)
    ends = seq[0, proper].astype(np.int64) * q + seq[-1, proper]
    return np.bincount(ends, minlength=q * q).reshape(q, q)


def test_transfer_count_closed_forms():
    assert transfer_count(4, 2, 0, 1) == 2
    assert transfer_count(3, 2, 0, 0) == 2
    assert transfer_count(3, 0, 0, 0) == 1 and transfer_count(3, 0, 0, 1) == 0
    for q in (3, 4, 5, 6):
        for s in range(0, 8):
            counts = brute_counts(q, s)
            for i in range(q):
                for j in range(q):
                    assert transfer_count(q, s, i, j) == counts[i, j]


def test_transfer_matrix_eigenvectors_exact():
    # all-ones is an eigenvector with value q-1; the signed indicator
    # vectors are eigenvectors with value -1 (exact integer arithmetic)
    for q in (3, 4, 5):
        A = np.ones((q, q), dtype=object) - np.eye(q, dtype=object)
        ones = np.ones(q, dtype=object)
        assert (A @ ones == (q - 1) * ones).all()
        for j in range(q):
            v = -np.ones(q, dtype=object)
            v[j] = q - 1
            assert (A @ v == -v).all()


def test_mid_color_prob_values_and_floor():
    assert mid_color_prob(4, 2, 2) == Fraction(3, 7)
    assert mid_color_prob(3, 2, 2) == Fraction(2, 3)
    for q in (3, 4, 5, 6):
        for ell in (2, 4, 6, 8):
            for r in (2, 4, 6, 8):
                p = mid_color_prob(q, ell, r)  # asserts the floor internally
                assert p >= Fraction(1, q) * (1 + Fraction(1, (q - 1) ** (r - 1)))
    with pytest.raises(ValueError):
        mid_color_prob(4, 3, 2)


def test_layout_arithmetic():
    lay = segment_layout(25, 3, override=(2, 4))
    assert lay.k == 6 and lay.m == 4
    assert lay.anchors == (1, 7, 13, 19, 25)
    assert lay.mids == (5, 11, 17, 23)
    big = segment_layout(10 ** 9, 4)
    assert big.r == 6 and not big.overridden
    with pytest.raises(ValueError):
        segment_layout(10, 4)  # recipe degenerates at desk scale
    with pytest.raises(ValueError):
        segment_layout(5, 4, override=(2, 10))  # no full segment


def important_neighbors(lay):
    """imp[v]: the padded position whose pair the important-neighbor switch
    transposes by at v, by a walk over the segments: v - 1 left of each
    midpoint, v + 1 from it on, 0 (none) at anchors and past the last."""
    imp = [0] * (lay.n + 2)
    for left, mid, right in zip(lay.anchors, lay.mids, lay.anchors[1:]):
        for v in range(left + 1, mid):
            imp[v] = v - 1
        for v in range(mid, right):
            imp[v] = v + 1
    return imp


@pytest.mark.parametrize("n", [25, 29, 2000])
def test_important_neighbors_match_the_segment_walk(n):
    lay = segment_layout(n, 4, override=(2, 4))
    sides = [w - v if w else 0 for v, w in enumerate(important_neighbors(lay))]
    assert lay.important_sides.tolist() == sides


def test_pi0_samples_live_on_the_fiber():
    lay = segment_layout(9, 4, override=(2, 2))
    X = sample_pi0(lay, RandomTape(42), replicates=4000)
    assert (X[:, [a - 1 for a in lay.anchors]] == 0).all()
    assert (X[:, :-1] != X[:, 1:]).all()
    p_emp = (X[:, [m - 1 for m in lay.mids]] == 0).mean(axis=0)
    p = float(mid_color_prob(4, 2, 2))
    se = math.sqrt(p * (1 - p) / len(X))
    assert np.all(np.abs(p_emp - p) <= 3 * se)


def test_pi0_is_uniform_on_the_fiber():
    lay = segment_layout(9, 4, override=(2, 2))
    fiber = enumerate_anchor_fiber(lay)
    X = sample_pi0(lay, RandomTape(7), replicates=20000)
    counts = {}
    for row in map(tuple, X.tolist()):
        counts[row] = counts.get(row, 0) + 1
    assert set(counts) <= set(fiber)
    obs = np.array([counts.get(s, 0) for s in fiber], dtype=float)
    expected = len(X) / len(fiber)
    chi2 = float(((obs - expected) ** 2 / expected).sum())
    p_value = scipy.stats.chi2.sf(chi2, len(fiber) - 1)
    assert p_value > 1e-3


@pytest.mark.parametrize(
    "n,q,override", [(7, 3, (2, 2)), (9, 4, (2, 2)), (12, 3, (2, 4)), (14, 3, (4, 2))]
)
def test_anchor_fiber_is_the_filtered_state_space(n, q, override):
    """The directly enumerated fiber is the whole space filtered to anchors
    colored 0, in the same order."""
    lay = segment_layout(n, q, override=override)
    states = enumerate_colorings(Graph.path(n), q)
    want = [s for s in states if all(s[a - 1] == 0 for a in lay.anchors)]
    assert enumerate_anchor_fiber(lay) == want


def test_anchor_fiber_is_budgeted_by_its_own_states():
    """n = 19, q = 3: the 22^3 fiber states build under the default budget,
    which the 786,432 colorings of the path exceed; a budget below the
    fiber's is still refused."""
    lay = segment_layout(19, 3, override=(2, 4))
    assert len(enumerate_anchor_fiber(lay)) == 22 ** 3
    with pytest.raises(BudgetExceededError):
        enumerate_anchor_fiber(lay, budget=10_000)


def test_anchor_fiber_prefixes_exclude_colors_the_next_anchor_rejects():
    """The 1..18 prefixes of that fiber number 15,488 when vertex 18 may
    take the anchor's color 0; pruned by the anchor at vertex 19 they are the
    fiber's 10,648, so a budget of exactly the fiber's size builds it."""
    lay = segment_layout(19, 3, override=(2, 4))
    assert len(enumerate_anchor_fiber(lay, budget=15_000)) == 10_648
    assert len(enumerate_anchor_fiber(lay, budget=10_648)) == 10_648
    with pytest.raises(BudgetExceededError, match="10648 colorings"):
        enumerate_anchor_fiber(lay, budget=10_647)


def test_clamped_sweep_keeps_fiber_distribution():
    lay = segment_layout(7, 3, override=(2, 2))
    g = Graph.path(7)
    anchor_state = enumerate_anchor_fiber(lay)[0]
    spec = ChainSpec(graph=g, q=3, base="scan", clamp=frozenset(lay.anchors))
    K = build_kernel(spec, fiber_of=anchor_state)
    assert K.uniform_is_stationary()


def test_small_layout_exact_tails_directions():
    lay = segment_layout(9, 4, override=(2, 2))
    stat = stationary_z_tail_exact(lay)
    anch = anchored_z_tail_exact(lay)
    assert stat < anch
    lay3 = segment_layout(7, 3, override=(2, 2))
    assert stationary_z_tail_exact(lay3) == Fraction(1, 3)
    assert anchored_z_tail_exact(lay3) == Fraction(2, 3)


def test_exact_t_step_tail_decays_toward_stationary():
    lay3 = segment_layout(7, 3, override=(2, 2))
    tails = [float(exact_free_tail(lay3, t)) for t in range(3)]
    assert tails[0] == pytest.approx(2 / 3)
    assert tails[0] > tails[1] > tails[2] > 1 / 3


def test_lb_experiment_t0_is_the_anchored_law():
    rep = lb_experiment(DESK, t=0, replicates=80, tape=RandomTape(7))
    assert rep.free_tail == rep.clamped_tail
    assert rep.disagreement_rate == 0.0
    assert rep.mean_mid_disagreements == 0.0


def test_lb_experiment_desk_scale():
    rep = lb_experiment(DESK, t=1, replicates=120, tape=RandomTape(7))
    assert rep.percolation_contained
    assert rep.free_tail >= 0.95
    assert rep.disagreement_rate <= 0.01
    assert rep.tv_lower_estimate >= 0.9


def test_lb_experiment_single_site_variant():
    # important-neighbor switch coupling over a short step budget
    rep = lb_experiment(DESK, t=500, replicates=40, tape=RandomTape(9), base="glauber")
    assert rep.clamped_tail >= 0.9
    assert 0.0 <= rep.disagreement_rate <= 1.0


def test_z_statistic_counts_midpoints():
    lay = segment_layout(9, 4, override=(2, 2))
    s = [1] * 9
    for a in lay.anchors:
        s[a - 1] = 0
    assert z_statistic(tuple(s), lay) == 0
    for m in lay.mids:
        s[m - 1] = 0
    assert z_statistic(tuple(s), lay) == len(lay.mids)


def test_experiments_refuse_zero_replicates():
    lay = segment_layout(400, 4, override=(2, 4))
    with pytest.raises(ValueError, match="replicates"):
        lb_experiment(lay, 1, 0, RandomTape(1))


def sample_pi0_by_vertex(layout, tape, replicates=1, rep0=0):
    """Reference sampler: one vertex at a time, a cumulative law per vertex."""
    n, q = layout.n, layout.q
    mats = _conditional_matrices(layout)
    anchors = set(layout.anchors)
    last_anchor = layout.anchors[-1]
    out = np.zeros((replicates, n), dtype=np.int8)
    U = tape.block(rep0, replicates, 0, CH_INIT, n)
    uniform_next = np.zeros((q, q))
    for prev in range(q):
        for c in range(q):
            if c != prev:
                uniform_next[prev, c] = 1 / (q - 1)
    for v in range(2, n + 1):
        if v in anchors:
            continue
        prev = out[:, v - 2].astype(np.int64)
        if v <= last_anchor:
            next_anchor = 1 + ((v - 2) // layout.k + 1) * layout.k
            M = mats[next_anchor - (v - 1)]
        else:
            M = uniform_next
        cum = np.cumsum(M[prev], axis=1)
        idx = (U[:, v - 1, None] >= cum).sum(axis=1)
        out[:, v - 1] = np.minimum(idx, q - 1)
    return out


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize(
    "n,override",
    [(400, (2, 4)), (403, (2, 4)), (61, (2, 2)), (10_000, (2, 10)), (5000, None)],
)
def test_sample_pi0_matches_the_vertex_by_vertex_reference(q, n, override):
    """Segment-parallel sampling gives the reference's int8 arrays, with an
    empty tail beyond the last anchor (n = 403, 61) and a nonempty one, on
    override layouts and on the recipe layout (n = 5000: k = 412 or 414)."""
    lay = segment_layout(n, q, override=override)
    assert lay.overridden == (override is not None)
    for replicates, rep0 in ((1, 0), (37, 0), (1, 5), (37, 5)):
        got = sample_pi0(lay, RandomTape(31), replicates, rep0)
        want = sample_pi0_by_vertex(lay, RandomTape(31), replicates, rep0)
        assert got.dtype == np.int8 and got.shape == (replicates, n)
        assert np.array_equal(got, want), (replicates, rep0)


def switch_scan_sweep_by_vertex(S, T, U, q, anchor_mask):
    """Reference sweep: every vertex runs both copies and its own check."""
    s, t = S.T, T.T
    contained = True
    for v in range(1, len(s) - 1):
        c1 = np.minimum((U[:, v - 1] * q).astype(np.int8), q - 1)
        c2 = partner_proposal("switch_scan", v, c1, s, t)
        option_b = (s[v - 1] != t[v - 1]) & (c1 == t[v - 1])
        rdiff = s[v + 1] != t[v + 1]
        before = s[v] != t[v]
        s[v] = np.where(path_accepts(s, v, c1), c1, s[v])
        t[v] = np.where(path_accepts(t, v, c2) & ~anchor_mask[v], c2, t[v])
        created = (s[v] != t[v]) & ~before
        if np.any(created & ~(anchor_mask[v] | rdiff | option_b)):
            contained = False
    return contained


def switch_scan_sweep(S, T, U, q, anchor_mask):
    """Reference sweep: one ``coupled_update`` per vertex."""
    for v in range(1, S.shape[1] - 1):
        c = np.minimum((U[:, v - 1] * q).astype(np.int8), q - 1)
        coupled_update(S.T, T.T, v, c, "switch_scan", frozen=anchor_mask[v])


def _anchor_mask(lay):
    anchor_mask = np.zeros(lay.n + 2, dtype=bool)
    anchor_mask[list(lay.anchors)] = True
    return anchor_mask


def _sweep_pairs(sweep, lay, S, T, sweeps):
    tape = RandomTape(77)
    flags = []
    for k in range(sweeps):
        U = tape.block(0, len(S), 1 + k, CH_SCAN, lay.n)
        flags.append(sweep(S, T, U, lay.q, _anchor_mask(lay)))
    return flags


def switch_scan_table_sweeps(lay, S, T, sweeps):
    """``lb_experiment``'s table sweeps from the colorings of the padded S
    and T, at the reference's tape coordinates, read back into them."""
    read = np.arange(1, lay.n + 1)
    free, clamped = switch_scan_sweeps(
        S[:, 1:-1], T[:, 1:-1], lay.q, _anchor_mask(lay), sweeps, RandomTape(77), read
    )
    S[:, 1:-1], T[:, 1:-1] = free.T, clamped.T


def _check_against_the_reference(sweeps, q, start):
    lay = segment_layout(400, q, override=(2, 4))
    S = padded(sample_pi0(lay, RandomTape(3), 25))
    T = S.copy() if start == "equal" else padded(sample_pi0(lay, RandomTape(4), 25))
    assert (start == "equal") == np.array_equal(S, T)
    S_ref, T_ref = S.copy(), T.copy()
    sweeps(lay, S, T, 5)
    assert _sweep_pairs(switch_scan_sweep_by_vertex, lay, S_ref, T_ref, 5) == [True] * 5
    assert np.array_equal(S, S_ref) and np.array_equal(T, T_ref)


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("start", ["equal", "independent"])
def test_switch_sweep_matches_the_vertex_by_vertex_reference(q, start):
    """coupled_update sweeps give the reference's arrays, and the
    reference's own containment check never fires."""
    _check_against_the_reference(functools.partial(_sweep_pairs, switch_scan_sweep), q, start)


@pytest.mark.parametrize("q", [3, 4, 5, 6])
@pytest.mark.parametrize("start", ["equal", "independent"])
def test_table_sweep_matches_the_vertex_by_vertex_reference(q, start):
    """``lb_experiment``'s table sweeps give the reference's arrays, frozen
    anchors included."""
    _check_against_the_reference(switch_scan_table_sweeps, q, start)


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("n,override", [(23, (2, 2)), (61, (2, 4)), (64, (4, 6))])
def test_lb_experiment_scan_matches_the_coupled_update_loop(q, n, override):
    """The scan experiment's statistics equal those of per-vertex
    ``coupled_update`` sweeps with frozen anchors, for t = 0..3; with 300
    replicates the sweep computes its table positions in more than one
    chunk of vertices at n = 61 and 64."""
    lay = segment_layout(n, q, override=override)
    anchor_mask = np.zeros(n + 2, dtype=bool)
    anchor_mask[list(lay.anchors)] = True
    mids = np.array(lay.mids)
    for t, replicates in itertools.product(range(4), (1, 300)):
        tape = RandomTape(11 + t)
        S = padded(sample_pi0(lay, tape, replicates))
        T = S.copy()
        for k in range(t):
            U = tape.block(0, replicates, 1 + k, CH_SCAN, n)
            switch_scan_sweep(S, T, U, q, anchor_mask)
        z_free = (S[:, mids] == 0).sum(axis=1)
        z_clamped = (T[:, mids] == 0).sum(axis=1)
        mid_dis = (S[:, mids] != T[:, mids]).sum(axis=1)
        rep = lb_experiment(lay, t, replicates, RandomTape(11 + t))
        assert rep.free_tail == float(np.mean(z_free >= lay.threshold))
        assert rep.clamped_tail == float(np.mean(z_clamped >= lay.threshold))
        assert rep.disagreement_rate == float(np.mean(mid_dis > 0))
        assert rep.mean_mid_disagreements == float(np.mean(mid_dis))


# three layouts: vertices past the last anchor (n = 23 and 64) and none (n = 61)
SITE_LAYOUTS = [(23, (2, 2)), (61, (2, 4)), (64, (4, 6))]


@pytest.mark.parametrize("q", [3, 4, 5, 6, 7, 10])
@pytest.mark.parametrize("start", ["equal", "independent"])
def test_site_steps_match_the_flat_reference(q, start):
    """``switch_site_steps`` gives the flat loop's colors at every vertex,
    from equal starts (every disagreement then comes from a frozen anchor)
    and from independent ones, and the runs create disagreements."""
    for n, override in SITE_LAYOUTS:
        lay = segment_layout(n, q, override=override)
        S = padded(sample_pi0(lay, RandomTape(3), 40))
        T = S.copy() if start == "equal" else padded(sample_pi0(lay, RandomTape(4), 40))
        frozen, apart = _anchor_mask(lay), S != T
        free, clamped = switch_site_steps(
            S[:, 1:-1], T[:, 1:-1], q, frozen, lay.important_sides, 300, RandomTape(5),
            np.arange(1, n + 1),
        )
        important_neighbor_steps(S, T, q, important_neighbors(lay), frozen, 300, RandomTape(5))
        assert np.array_equal(free.T, S[:, 1:-1]), (n, override)
        assert np.array_equal(clamped.T, T[:, 1:-1]), (n, override)
        assert ((S != T) & ~apart).any(), (n, override)


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("n,override", SITE_LAYOUTS)
def test_lb_experiment_glauber_matches_the_flat_loop(q, n, override):
    """The single-site experiment's statistics equal those of the flat loop
    from one pi0 sample, for t = 0, 1 and 300 steps."""
    lay = segment_layout(n, q, override=override)
    mids = np.array(lay.mids)
    for t, replicates in itertools.product((0, 1, 300), (1, 200)):
        tape = RandomTape(11 + t)
        S = padded(sample_pi0(lay, tape, replicates))
        T = S.copy()
        important_neighbor_steps(S, T, q, important_neighbors(lay), _anchor_mask(lay), t, tape)
        mid_dis = (S[:, mids] != T[:, mids]).sum(axis=1)
        rep = lb_experiment(lay, t, replicates, RandomTape(11 + t), base="glauber")
        assert rep.free_tail == float(np.mean((S[:, mids] == 0).sum(axis=1) >= lay.threshold))
        assert rep.clamped_tail == float(np.mean((T[:, mids] == 0).sum(axis=1) >= lay.threshold))
        assert rep.disagreement_rate == float(np.mean(mid_dis > 0))
        assert rep.mean_mid_disagreements == float(np.mean(mid_dis))


@pytest.mark.parametrize("base", ["glauber", "scan"])
def test_each_copy_of_the_clamped_free_engines_follows_its_exact_law(base):
    """Each copy of ``lb_experiment``'s engines, from a fixed anchored start
    on 20,000 replicates, against its exact law after t = 1, 2 and 6 sweeps'
    worth of moves (t * n glauber steps): the free copy against row x0 of
    P^t, the clamped copy against the clamped fiber's kernel.  The seed is
    fixed, and the test fails at p < 1e-6."""
    lay, x0, replicates = segment_layout(7, 3, override=(2, 2)), (0, 1, 2, 1, 0, 1, 2), 20_000
    spec = dict(graph=Graph.path(7), q=3, base=base)
    free_kernel = build_kernel(ChainSpec(**spec))
    clamped_kernel = build_kernel(ChainSpec(**spec, clamp=frozenset(lay.anchors)), fiber_of=x0)
    X = np.tile(np.array(x0, dtype=np.int8), (replicates, 1))
    read = np.arange(1, 8)
    for t in (1, 2, 6):
        if base == "glauber":
            steps = 7 * t
            copies = switch_site_steps(
                X, X, 3, _anchor_mask(lay), lay.important_sides, steps, RandomTape(24), read
            )
        else:
            steps = t
            copies = switch_scan_sweeps(X, X, 3, _anchor_mask(lay), steps, RandomTape(24), read)
        for colors, kernel in zip(copies, (free_kernel, clamped_kernel)):
            p = chi2_p_value(colors.T, kernel.states, law_after(kernel, x0, steps))
            assert p >= 1e-6, (t, p)


@pytest.mark.parametrize("q", range(3, 8))
def test_switch_scan_containment_is_certified(q):
    assert switch_scan_contained(q) is True


@pytest.fixture
def fresh_step_tables():
    """Empty the step-table and certificate caches around a test, so no
    other test sees a table built under a patched rule."""
    coupling._step_table.cache_clear()
    coupling.switch_scan_contained.cache_clear()
    yield
    coupling._step_table.cache_clear()
    coupling.switch_scan_contained.cache_clear()


def test_switch_scan_certificate_refuses_the_identity_partner(monkeypatch, fresh_step_tables):
    """With the identity proposal in place of the switch rule a disagreeing
    left pair spreads without the option-B event, and the certificate says so."""
    monkeypatch.setattr(coupling, "partner_proposal", lambda kind, v, c, s, t: c)
    assert switch_scan_contained(4) is False


@pytest.mark.parametrize("base, t", [("scan", 1), ("glauber", 5)])
def test_lb_experiment_holds_no_replicates_by_vertices_draws(base, t):
    """At n = 10^4 with 200 replicates the draws come in bounded column
    windows: the (R, n) float64 draws alone would take 16 MB, and the
    experiment's traced peak stays below 8 MB."""
    lay = segment_layout(10_000, 4, override=(2, 10))
    tracemalloc.start()
    try:
        lb_experiment(lay, t, 200, RandomTape(1729), base=base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak
