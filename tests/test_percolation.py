"""Transfer counts, segment layouts, anchored sampling, and the experiment."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

import scanmix.coupling as coupling
from scanmix.coupling import coupled_update, partner_proposal, switch_scan_contained
from scanmix.domain import Graph, path_accepts
from scanmix.dynamics import CH_INIT, CH_SCAN, ChainSpec, RandomTape
from scanmix.kernels import build_kernel
from scanmix.percolation import (
    _conditional_matrices,
    _padded,
    anchored_z_tail_exact,
    covariance_probe,
    enumerate_anchor_fiber,
    exact_free_tail,
    lb_experiment,
    mid_color_prob,
    sample_pi0,
    segment_layout,
    stationary_z_tail_exact,
    transfer_count,
    z_statistic,
)

DESK = segment_layout(10_000, 4, override=(2, 10))


def brute_count(q, s, i, j):
    if s == 0:
        return 1 if i == j else 0
    cnt = 0
    for mid in itertools.product(range(q), repeat=s - 1):
        seq = (i,) + mid + (j,)
        if all(a != b for a, b in zip(seq, seq[1:])):
            cnt += 1
    return cnt


def test_transfer_count_closed_forms():
    assert transfer_count(4, 2, 0, 1) == 2
    assert transfer_count(3, 2, 0, 0) == 2
    assert transfer_count(3, 0, 0, 0) == 1 and transfer_count(3, 0, 0, 1) == 0
    for q in (3, 4, 5, 6):
        for s in range(0, 8):
            for i in range(q):
                for j in range(q):
                    assert transfer_count(q, s, i, j) == brute_count(q, s, i, j)


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
    assert lay.symmetric_clamps == (8, 14, 20)
    big = segment_layout(10 ** 9, 4)
    assert big.r == 6 and not big.overridden
    with pytest.raises(ValueError):
        segment_layout(10, 4)  # recipe degenerates at desk scale
    with pytest.raises(ValueError):
        segment_layout(5, 4, override=(2, 10))  # no full segment


@pytest.mark.parametrize("n", [25, 29, 2000])
def test_important_neighbors_match_the_segment_walk(n):
    lay = segment_layout(n, 4, override=(2, 4))
    imp = [0] * (n + 2)  # v - 1 left of each midpoint, v + 1 from it on
    for left, mid, right in zip(lay.anchors, lay.mids, lay.anchors[1:]):
        for v in range(left + 1, mid):
            imp[v] = v - 1
        for v in range(mid, right):
            imp[v] = v + 1
    assert lay.important_neighbors.tolist() == imp


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


def test_covariance_probe_bounds():
    t_steps = 4905  # the single-site scale q n r / (2 e (q-1)) at the desk layout
    rep = covariance_probe(DESK, t=t_steps, replicates=100, tape=RandomTape(11))
    assert rep.max_abs_covariance <= rep.covariance_ceiling + 3 * rep.covariance_se
    assert rep.var_z <= rep.var_ceiling + 3 * rep.var_se


def test_covariance_probe_null_at_t0():
    lay = segment_layout(2000, 4, override=(2, 10))
    rep = covariance_probe(lay, t=0, replicates=400, tape=RandomTape(13))
    # anchored segments are independent at t=0: covariances sit near zero
    assert rep.max_abs_covariance <= 3 * rep.covariance_se


def test_z_statistic_counts_midpoints():
    lay = segment_layout(9, 4, override=(2, 2))
    s = [1] * 9
    for a in lay.anchors:
        s[a - 1] = 0
    assert z_statistic(tuple(s), lay) == 0
    for m in lay.mids:
        s[m - 1] = 0
    assert z_statistic(tuple(s), lay) == len(lay.mids)


def test_covariance_probe_symmetric_clamp_variant():
    lay = segment_layout(2000, 4, override=(2, 10))
    free = covariance_probe(lay, t=800, replicates=80, tape=RandomTape(17))
    clamped = covariance_probe(
        lay, t=800, replicates=80, tape=RandomTape(17), clamp_symmetric=True
    )
    for rep in (free, clamped):
        assert rep.max_abs_covariance <= rep.covariance_ceiling + 3 * rep.covariance_se
        assert rep.var_z <= rep.var_ceiling + 3 * rep.var_se


def test_experiments_refuse_zero_replicates():
    lay = segment_layout(400, 4, override=(2, 4))
    for run in (lb_experiment, covariance_probe):
        with pytest.raises(ValueError, match="replicates"):
            run(lay, 1, 0, RandomTape(1))


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
    """The sweep of ``lb_experiment``: one ``coupled_update`` per vertex."""
    for v in range(1, S.shape[1] - 1):
        c = np.minimum((U[:, v - 1] * q).astype(np.int8), q - 1)
        coupled_update(S.T, T.T, v, c, "switch_scan", frozen=anchor_mask[v])


def _sweep_pairs(sweep, lay, S, T, sweeps):
    anchor_mask = np.zeros(lay.n + 2, dtype=bool)
    anchor_mask[list(lay.anchors)] = True
    tape = RandomTape(77)
    flags = []
    for k in range(sweeps):
        U = tape.block(0, len(S), 1 + k, CH_SCAN, lay.n)
        flags.append(sweep(S, T, U, lay.q, anchor_mask))
    return flags


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("start", ["equal", "independent"])
def test_switch_sweep_matches_the_vertex_by_vertex_reference(q, start):
    """coupled_update sweeps give the reference's arrays, and the
    reference's own containment check never fires."""
    lay = segment_layout(400, q, override=(2, 4))
    S = _padded(sample_pi0(lay, RandomTape(3), 25))
    T = S.copy() if start == "equal" else _padded(sample_pi0(lay, RandomTape(4), 25))
    assert (start == "equal") == np.array_equal(S, T)
    S_ref, T_ref = S.copy(), T.copy()
    _sweep_pairs(switch_scan_sweep, lay, S, T, 5)
    assert _sweep_pairs(switch_scan_sweep_by_vertex, lay, S_ref, T_ref, 5) == [True] * 5
    assert np.array_equal(S, S_ref) and np.array_equal(T, T_ref)


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
    monkeypatch.setattr(coupling, "partner_proposal", lambda kind, v, c, s, t, w=None: c)
    assert switch_scan_contained(4) is False
