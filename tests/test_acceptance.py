"""Acceptance suite: one test per shipped criterion, with a pass line each.

Each test pins its tolerances explicitly and prints a single summary line so
`pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from scanmix.congestion import (
    bottleneck_report,
    canonical_congestion,
    directed_cycle,
    ergodicity_report,
)
from scanmix.coupling import (
    coupling_time,
    hamming_contraction_rows,
    variance_floor_witness,
    weighted_metric_contraction_rows,
)
from scanmix.domain import Graph, TargetGraph, VertexWeights, enumerate_colorings
from scanmix.dynamics import ChainSpec, RandomTape
from scanmix.kernels import (
    build_kernel,
    build_sign_kernel,
    poincare_constant,
    tv_mixing_time,
    verify_comparison,
)
from scanmix.percolation import (
    anchored_z_tail_exact,
    lb_experiment,
    mid_color_prob,
    segment_layout,
    stationary_z_tail_exact,
    transfer_count,
)
from scanmix.wilson import closed_form_eigen, estimate_rho, expectation_matrix


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


# ---------------------------------------------------------------------------
# 1. single-site sign-chain spectrum
# ---------------------------------------------------------------------------

def test_criterion_1_single_site_sign_spectrum():
    worst_lam, worst_vec = 0.0, 0.0
    for n in range(4, 41):
        A = expectation_matrix("glauber", n)
        eigvals, eigvecs = np.linalg.eigh(A)
        e = closed_form_eigen("glauber", n)
        worst_lam = max(worst_lam, abs(eigvals[-1] - e.lam))
        v = eigvecs[:, -1]
        v = v / v[np.argmax(np.abs(v))]
        w = e.w / e.w[np.argmax(np.abs(e.w))]
        worst_vec = max(worst_vec, float(np.abs(np.abs(v) - np.abs(w)).max()))
    assert worst_lam <= 1e-12, worst_lam
    assert worst_vec <= 1e-10, worst_vec
    report(
        f"criterion 1 PASS: single-site sign spectrum, n=4..40, "
        f"max |lambda err| = {worst_lam:.2e}, max eigenvector err = {worst_vec:.2e}"
    )


# ---------------------------------------------------------------------------
# 2. sweep sign-chain spectrum
# ---------------------------------------------------------------------------

def test_criterion_2_sweep_sign_spectrum():
    worst = 0.0
    for n in range(4, 41):
        A = expectation_matrix("scan", n)
        lead = max(np.linalg.eigvals(A).real)
        e = closed_form_eigen("scan", n)
        worst = max(worst, abs(lead - e.lam))
    assert worst <= 1e-8, worst
    e200 = closed_form_eigen("scan", 200)
    asym = abs((1 - e200.lam) * 2 * 200 ** 2 / math.pi ** 2 - 1)
    assert asym <= 0.1, asym
    report(
        f"criterion 2 PASS: sweep sign spectrum, n=4..40 max err = {worst:.2e}; "
        f"n=200 rate asymptote off by {asym:.4f} <= 0.1"
    )


# ---------------------------------------------------------------------------
# 3. transfer identities
# ---------------------------------------------------------------------------

def _brute_transfer(q: int, s: int) -> list[list[int]]:
    """Count s-edge path colorings by endpoint colors via direct extension."""
    counts = [[1 if i == j else 0 for j in range(q)] for i in range(q)]
    for _ in range(s):
        counts = [
            [sum(counts[i][k] for k in range(q) if k != j) for j in range(q)]
            for i in range(q)
        ]
    return counts


def test_criterion_3_transfer_identities():
    # the extension oracle itself, checked against full enumeration once
    for q in (3, 4):
        for s in range(0, 6):
            brute = _brute_transfer(q, s)
            for i in range(q):
                for j in range(q):
                    full = (
                        sum(
                            1
                            for mid in itertools.product(range(q), repeat=max(s - 1, 0))
                            if s > 0
                            and all(
                                a != b
                                for a, b in zip((i,) + mid + (j,), mid + (j,))
                            )
                        )
                        if s > 0
                        else (1 if i == j else 0)
                    )
                    assert brute[i][j] == full
    checked = 0
    for q in (3, 4, 5, 6):
        for s in (0, 2, 4, 6, 8, 10):
            brute = _brute_transfer(q, s)
            for i in range(q):
                for j in range(q):
                    assert transfer_count(q, s, i, j) == brute[i][j]
                    checked += 1
    for q in (3, 4, 5, 6):
        for ell in (2, 4, 6, 8):
            for r in (2, 4, 6, 8):
                mid_color_prob(q, ell, r)  # asserts its floor internally
    assert mid_color_prob(4, 2, 2) == Fraction(3, 7)
    report(
        f"criterion 3 PASS: {checked} closed-form transfer counts equal brute force; "
        f"anchored-midpoint floor holds on all 64 cases; value(4,2,2) = 3/7"
    )


# ---------------------------------------------------------------------------
# 4. contraction-bound ledger
# ---------------------------------------------------------------------------

def test_criterion_4_drift_ledger():
    total = 0
    for n in range(4, 9):
        rows = weighted_metric_contraction_rows(n)
        assert all(r.passed for r in rows)
        for r in rows:
            if r.lemma_id == "site_break_even":
                assert r.value == r.bound  # exactly zero drift
        total += len(rows)

        rows4 = hamming_contraction_rows(n, 4)
        assert all(r.passed for r in rows4)
        agg = max(r.value for r in rows4 if r.lemma_id == "full_any")
        assert agg <= Fraction(191, 192)
        total += len(rows4)

        rows5 = hamming_contraction_rows(n, 5)
        assert all(r.passed for r in rows5)
        near = max(r.value for r in rows5 if r.lemma_id == "from_left")
        assert near <= Fraction(3, 4)
        total += len(rows5)
    report(
        f"criterion 4 PASS: ledger over n=4..8, q in {{3,4,5}}: {total} exact "
        f"drift rows all within their ceilings; break-even rows exactly zero"
    )


# ---------------------------------------------------------------------------
# 5. stationarity and reversal
# ---------------------------------------------------------------------------

def test_criterion_5_stationarity_and_reversal():
    kernels = 0
    for q in (3, 4):
        for n in range(2, 7):
            g = Graph.path(n)
            for base in ("glauber", "scan"):
                K = build_kernel(ChainSpec(graph=g, q=q, base=base))
                assert K.row_sums_exact() and K.uniform_is_stationary()
                kernels += 1
    for target in (TargetGraph.clique(3), TargetGraph.cycle(5)):
        for n in range(2, 7):
            for base in ("glauber", "scan"):
                K = build_kernel(ChainSpec(graph=Graph.path(n), target=target, base=base))
                assert K.row_sums_exact() and K.uniform_is_stationary()
                kernels += 1
    pairs = 0
    for q in (3, 4):
        for n in range(2, 6):
            g = Graph.path(n)
            F = build_kernel(ChainSpec(graph=g, q=q, base="scan"))
            R = build_kernel(ChainSpec(graph=g, q=q, base="reverse_scan"))
            for i in range(len(F.states)):
                for j in range(len(F.states)):
                    assert F.rows[i].get(j, 0) == R.rows[j].get(i, 0)
                    pairs += 1
    report(
        f"criterion 5 PASS: uniform exactly stationary for {kernels} kernels "
        f"(q in {{3,4}} and K3/5-cycle targets, n <= 6); forward/reverse "
        f"sweep identity exact on {pairs} entries (n <= 5)"
    )


# ---------------------------------------------------------------------------
# 6. variance floors
# ---------------------------------------------------------------------------

def test_criterion_6_variance_floors():
    counts = {}
    for n in (4, 5):
        states = enumerate_colorings(Graph.path(n), 3)
        wg = VertexWeights.glauber_q3(n)
        ws = VertexWeights.scan_q3(n)
        c = 0
        for sigma in states:
            for tau in states:
                if sigma == tau:
                    continue
                site = variance_floor_witness(sigma, tau, "glauber_q3")
                assert site.achieved_drop >= wg.w_min
                sweep = variance_floor_witness(sigma, tau, "scan_q3")
                assert sweep.min_shift >= Fraction(ws.w_min, 2)
                c += 1
        counts[n] = c
    report(
        f"criterion 6 PASS: verified single-site and sweep variance witnesses "
        f"for every unequal pair ({counts[4]} pairs at n=4, {counts[5]} at n=5); "
        f"floors w^2/(3n) and the 1/27-event shift both attained"
    )


# ---------------------------------------------------------------------------
# 7. comparison audit
# ---------------------------------------------------------------------------

def test_criterion_7_comparison_audit():
    targets = {
        "K3": TargetGraph.clique(3),
        "K4": TargetGraph.clique(4),
        "edge": TargetGraph.single_edge(),
        "C5": TargetGraph.cycle(5),
    }
    instances = [(n, name) for n in range(3, 9) for name in ("K3", "C5")]
    instances += [(n, name) for n in (3, 4, 5) for name in ("K4", "edge")]
    checked = []
    for n, name in instances:
        rep = verify_comparison(Graph.path(n), targets[name])
        assert rep.site_le_sweep_ok, (n, name)
        assert rep.sweep_le_site_ok, (n, name)
        if rep.mix_square_bound_ok is not None:
            assert rep.mix_square_bound_ok, (n, name)
        checked.append((n, name, rep.trivial))
    star = verify_comparison(Graph.star(4), TargetGraph.clique(4))
    assert star.max_degree == 3 and star.site_factor == 4 * 4 ** 4
    assert star.site_le_sweep_ok and star.sweep_le_site_ok
    nontrivial = sum(1 for *_, triv in checked if not triv)
    report(
        f"criterion 7 PASS: both comparison inequalities hold on "
        f"{len(checked)} path instances ({nontrivial} nontrivial) and the "
        f"4-star with a K4 target (factor 4*4^4)"
    )


# ---------------------------------------------------------------------------
# 8. canonical-path congestion
# ---------------------------------------------------------------------------

def test_criterion_8_congestion():
    K3 = TargetGraph.clique(3)
    EDGE = TargetGraph.single_edge()
    from scanmix.congestion import connector_length

    assert connector_length(K3, 4) == 4 * 3 - 1
    assert connector_length(EDGE, 4) == 2 * 2 - 1
    assert connector_length(K3, 3) == 4 * 3
    assert connector_length(EDGE, 5) == 2 * 2
    lines = []
    for n, target, name in ((3, K3, "K3"), (4, K3, "K3"), (4, EDGE, "edge")):
        rep = canonical_congestion(n, target)
        assert rep.paths_valid
        assert rep.congestion >= 0
        assert rep.congestion <= rep.encoding_bound
        assert rep.max_path_length <= rep.length_bound
        lines.append(f"(n={n},{name}): t={rep.t} A={rep.congestion}")
    report(
        "criterion 8 PASS: canonical paths valid, connector lengths match all "
        "four parity cases, loads within the encoding bound; " + "; ".join(lines)
    )


# ---------------------------------------------------------------------------
# 9. directed-target diagnostics
# ---------------------------------------------------------------------------

def test_criterion_9_directed_diagnostics():
    for n in range(3, 7):
        rep = ergodicity_report(Graph.path(n), directed_cycle(3))
        assert rep.n_classes == 3 and rep.class_sizes == [1, 1, 1]
    bounds = {}
    for n in (4, 5):
        per_k = []
        for k in (2, 3):
            b = bottleneck_report(k, n)
            assert b.pi_a >= Fraction(1, 3)
            per_k.append(b.bound)
        assert per_k[1] > per_k[0]
        bounds[n] = [float(x) for x in per_k]
    report(
        f"criterion 9 PASS: directed 3-cycle gives exactly 3 frozen classes "
        f"for n=3..6; hub-clique bound grows in k (n=4: {bounds[4]}, n=5: {bounds[5]}), "
        f"with pi(A) >= 1/3 throughout"
    )


# ---------------------------------------------------------------------------
# 10. scaling properties
# ---------------------------------------------------------------------------

def test_criterion_10a_cubic_mixing_fit():
    # deviation pinned at 0.01: small enough that the multiplicative log
    # factor contributes a near-constant, exposing the cubic rate
    eps = 0.01
    times = {}
    for n in range(4, 11):
        K = build_sign_kernel("glauber", n)
        times[n] = tv_mixing_time(K, eps)
    xs = np.log(np.array(sorted(times), dtype=float))
    ys = np.log(np.array([times[n] for n in sorted(times)], dtype=float))
    rss = {}
    for p in (2, 3, 4):
        c = float(np.mean(ys - p * xs))
        rss[p] = float(np.sum((ys - (p * xs + c)) ** 2))
    assert rss[3] < rss[2] and rss[3] < rss[4], rss
    report(
        f"criterion 10a PASS: exact sign-chain mixing times at eps={eps} over "
        f"n=4..10 fit n^3 best (RSS {rss[3]:.3f} vs n^2 {rss[2]:.3f}, n^4 {rss[4]:.3f}); "
        f"times {[times[n] for n in sorted(times)]}"
    )


def test_criterion_10b_log_coalescence_fit():
    tape = RandomTape(1729)
    medians = {}
    for n in (16, 32, 64, 128, 256):
        spec = ChainSpec(graph=Graph.path(n), q=4, base="scan")
        stats = coupling_time(spec, "q4_scan", 200, tape)
        assert stats.censored == 0
        medians[n] = stats.median
    xs = np.array([math.log(n) for n in sorted(medians)])
    ys = np.array([medians[n] for n in sorted(medians)])
    b, a = np.polyfit(xs, ys, 1)
    pred = a + b * xs
    r2 = 1 - np.sum((ys - pred) ** 2) / np.sum((ys - np.mean(ys)) ** 2)
    assert r2 >= 0.9, (r2, medians)
    report(
        f"criterion 10b PASS: q=4 sweep coalescence medians {dict(sorted(medians.items()))} "
        f"fit a + b log n with R^2 = {r2:.3f} >= 0.9"
    )


def test_criterion_10c_sweep_variance_budget_growth():
    rhos = {}
    for n in (8, 16, 32, 64):
        rhos[n] = estimate_rho("scan", n, trials=512, tape=RandomTape(1729)).rho
    xs = np.log(np.array(sorted(rhos), dtype=float))
    ys = np.log(np.array([rhos[n] for n in sorted(rhos)]))
    slope = float(np.polyfit(xs, ys, 1)[0])
    assert slope <= 1.2, (slope, rhos)
    report(
        f"criterion 10c PASS: sweep variance budget grows with log-log slope "
        f"{slope:.3f} <= 1.2 over n in {{8,16,32,64}}"
    )


# ---------------------------------------------------------------------------
# 11. clamped-versus-free threshold experiment
# ---------------------------------------------------------------------------

def test_criterion_11_threshold_experiment():
    o_tolerance = 0.05  # desk-scale stand-in for the vanishing terms
    desk = segment_layout(10_000, 4, override=(2, 10))
    rep = lb_experiment(desk, t=1, replicates=200, tape=RandomTape(7))
    assert rep.t <= desk.r // 2
    assert rep.free_tail >= 1 - o_tolerance, rep.free_tail
    assert rep.disagreement_rate <= 0.01, rep.disagreement_rate
    assert rep.percolation_contained

    small = segment_layout(9, 4, override=(2, 2))
    stat = stationary_z_tail_exact(small)
    anch = anchored_z_tail_exact(small)
    assert float(stat) < 1 - o_tolerance
    assert stat < anch
    report(
        f"criterion 11 PASS: desk layout (n=10^4, q=4, r=2, ell=10, tolerance "
        f"{o_tolerance}): anchored-start tail {rep.free_tail:.3f} >= {1 - o_tolerance}, "
        f"midpoint disagreement rate {rep.disagreement_rate:.4f} <= 1% at t=1 <= r/2; "
        f"exact small-layout tails: stationary {float(stat):.3f} < anchored {float(anch):.3f}"
    )
