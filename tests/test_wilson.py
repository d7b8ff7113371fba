"""Sign-chain expectation matrices, closed-form eigendata, and the bounds."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from scanmix.dynamics import RandomTape, sign_move
from scanmix.kernels import build_sign_kernel, poincare_constant
from scanmix.wilson import (
    closed_form_eigen,
    estimate_rho,
    move_expectation_map,
    wilson_bounds,
)
from reference import expectation_matrix


def test_move_expectation_map_equals_hand_set_entries():
    """(2I + P_v)/3 from the sign move is bitwise the hand-set matrix."""
    def hand_set(v, n):
        m = n - 1
        M = np.eye(m)
        if v == 1:
            M[0, 0] = 1 / 3
        elif v == n:
            M[m - 1, m - 1] = 1 / 3
        else:
            i, j = v - 2, v - 1
            M[i, i] = M[j, j] = 2 / 3
            M[i, j] = M[j, i] = 1 / 3
        return M

    for n in range(3, 40):
        for v in range(1, n + 1):
            assert np.array_equal(move_expectation_map(v, n), hand_set(v, n)), (n, v)


def tridiagonal_form(n):
    """B with expectation_matrix('glauber', n) == I - B/(3n): generic row
    (-1, 2, -1), boundary diagonals 3.  An independent cross-check of the
    construction from move semantics."""
    m = n - 1
    B = np.zeros((m, m))
    for i in range(m):
        B[i, i] = 3 if i in (0, m - 1) else 2
        if i > 0:
            B[i, i - 1] = -1
        if i < m - 1:
            B[i, i + 1] = -1
    return B


@pytest.mark.parametrize("n", [4, 7, 12, 25])
def test_expectation_matrix_tridiagonal_form(n):
    A = expectation_matrix("glauber", n)
    B = tridiagonal_form(n)
    assert np.allclose(A, np.eye(n - 1) - B / (3 * n), atol=1e-15)
    assert np.allclose(A, A.T)


def test_scan_matrix_not_symmetric():
    for n in (4, 8, 16):
        A = expectation_matrix("scan", n)
        assert not np.allclose(A, A.T)
        assert max(abs(np.linalg.eigvals(A))) <= 1 + 1e-12


def test_spectral_radius_contraction():
    for kind in ("glauber", "scan"):
        for n in (4, 12, 40):
            A = expectation_matrix(kind, n)
            assert max(abs(np.linalg.eigvals(A))) <= 1 + 1e-12


def test_glauber_closed_form_n4():
    e = closed_form_eigen("glauber", 4)
    assert abs(e.lam - 11 / 12) < 1e-15
    assert np.allclose(e.w, [1.0, 2.0, 1.0])


@pytest.mark.parametrize("kind,tol", [("glauber", 1e-12), ("scan", 1e-8)])
def test_closed_form_matches_leading_eigenvalue(kind, tol):
    for n in (4, 9, 21, 40, 60):
        A = expectation_matrix(kind, n)
        e = closed_form_eigen(kind, n)
        lead = max(np.linalg.eigvals(A).real)
        assert abs(lead - e.lam) < tol
        assert e.lam > 0  # no two-step-chain device needed
        # left eigenvector residual and positivity
        res = np.abs(e.w @ A - e.lam * e.w).max() / np.abs(e.w).max()
        assert res < 1e-8
        assert (e.w > 0).all()
        assert abs(e.w.min() - 1.0) < 1e-12


def test_statistic_decays_geometrically():
    # t-fold application of the expectation matrix on the all-ones start
    for kind in ("glauber", "scan"):
        n = 9
        A = expectation_matrix(kind, n)
        e = closed_form_eigen(kind, n)
        x = np.ones(n - 1)
        phi0 = e.w @ x
        xt = x.copy()
        for t in range(1, 6):
            xt = A @ xt
            assert abs(e.w @ xt - e.lam ** t * phi0) < 1e-9 * phi0


def glauber_phi0_closed_form(n):
    """Geometric-series value of sum_i w_i: c_n * cosec(pi / (2(n-1)))."""
    return closed_form_eigen("glauber", n).c_n / math.sin(math.pi / (2 * (n - 1)))


def test_phi0_geometric_series_identity():
    for n in range(4, 101):
        e = closed_form_eigen("glauber", n)
        assert abs(e.w.sum() - glauber_phi0_closed_form(n)) < 1e-12 * e.w.sum()


def test_rho_glauber_closed_form():
    est = estimate_rho("glauber", 4)
    assert not est.empirical
    e = closed_form_eigen("glauber", 4)
    dw = np.diff(np.concatenate(([0.0], e.w, [0.0])))
    assert est.rho == pytest.approx(4 / (3 * 4) * float(dw @ dw))
    for n in (4, 6, 8, 12, 48):
        assert estimate_rho("glauber", n).rho == pytest.approx(8 / 3 * (1 - 2 / n), rel=1e-12)
    # large n: (8/3)(1 - 2/n) approaches 8/3
    big = estimate_rho("glauber", 2000)
    assert abs(big.rho - 8 / 3) < 0.01


@pytest.mark.parametrize("n", range(4, 17))
def test_rho_glauber_is_the_max_conditional_variance(n):
    """var(Phi_t | X_{t-1} = x) over every sign vector x, from the sign
    move: one step moves vertex v with probability 1/(3n).  Its maximum is
    the shipped rho, attained at the alternating vector."""
    w = closed_form_eigen("glauber", n).w
    X = np.array(list(itertools.product((-1.0, 1.0), repeat=n - 1)))
    d = np.empty((n, len(X)))
    for v in range(1, n + 1):
        Y = X.copy()
        sign_move(Y, v)
        d[v - 1] = (Y - X) @ w
    var = (d ** 2).sum(axis=0) / (3 * n) - (d.sum(axis=0) / (3 * n)) ** 2
    rho = estimate_rho("glauber", n).rho
    assert var.max() == pytest.approx(rho, rel=1e-12)
    assert var.max() <= rho * (1 + 1e-12)
    alternating = np.array([(-1.0) ** i for i in range(n - 1)])
    assert var[np.flatnonzero((X == alternating).all(axis=1))[0]] == pytest.approx(rho, rel=1e-12)


def test_wilson_report_consistency():
    rep = wilson_bounds("glauber", 4)
    assert rep.nu == pytest.approx(rep.rho / (1 - rep.lam ** 2))
    assert rep.lower_bound < rep.upper_bound(0.5)
    assert not rep.rho_is_empirical
    srep = wilson_bounds("scan", 12, tape=RandomTape(3), trials=128)
    assert srep.rho_is_empirical
    assert srep.nu == pytest.approx(srep.rho / (1 - srep.lam ** 2))


def test_sign_kernel_second_eigenvalue_matches():
    # the closed-form statistic decay rate shows up in the exact kernel
    for n in (4, 5):
        K = build_sign_kernel("glauber", n)
        rep = poincare_constant(K)
        e = closed_form_eigen("glauber", n)
        assert abs((1 - rep.poincare) - e.lam) < 1e-12


def test_scan_rho_estimate_and_increments():
    tape = RandomTape(1729)
    est = estimate_rho("scan", 16, trials=256, tape=tape)
    assert est.empirical and est.rho > 0
    e = closed_form_eigen("scan", 16)
    wdiff = np.abs(np.diff(np.concatenate(([0.0], e.w, [0.0])))).max()
    assert est.max_increment <= 4 * wdiff
    # the report carries the same estimate's increment
    rep = wilson_bounds("scan", 16, tape=tape, trials=256)
    assert (rep.rho, rep.max_increment) == (est.rho, est.max_increment)


def test_scan_rho_growth_is_subquadratic():
    rhos = {}
    for n in (8, 16, 32, 64):
        rhos[n] = estimate_rho("scan", n, trials=256, tape=RandomTape(1729)).rho
    xs = np.log(np.array(sorted(rhos), dtype=float))
    ys = np.log(np.array([rhos[n] for n in sorted(rhos)]))
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope <= 1.2


# ---------------------------------------------------------------------------
# monotone coupling of two sign-chain copies
# ---------------------------------------------------------------------------

def threshold_flip(old, u):
    """Common-uniform update of a boundary coordinate: +1 iff u < p(old).

    p(+1) = 2/3 >= p(-1) = 1/3 reproduces the marginal flip probability 1/3
    and is monotone in the old value, so coupled copies preserve the
    coordinatewise order.
    """
    return 1 if u < (2 / 3 if old == 1 else 1 / 3) else -1


def coupled_sign_move(xy, v, u):
    """Apply the vertex-v move to both copies (the rows of xy) from one
    shared uniform, in place: the threshold flip at the two boundary
    coordinates, the swap in both copies when u < 1/3 at an interior vertex."""
    n = xy.shape[-1] + 1
    if v == 1 or v == n:
        i = 0 if v == 1 else n - 2
        xy[:, i] = [threshold_flip(old, u) for old in xy[:, i].tolist()]
    elif u < 1 / 3:
        sign_move(xy, v)


def coupled_sign_outcomes(x, y, v, n):
    """Exact outcome distribution of one coupled vertex move, in thirds:
    one outcome per third of the shared uniform, equal outcomes merged."""
    merged = {}
    for seg in range(3):
        xy = np.array([x, y])
        coupled_sign_move(xy, v, (2 * seg + 1) / 6)  # the third's midpoint
        xs, ys = xy.tolist()
        key = (tuple(xs), tuple(ys))
        merged[key] = merged.get(key, Fraction(0)) + Fraction(1, 3)
    return [(mass, a, b) for (a, b), mass in merged.items()]


def _states(n):
    return list(itertools.product((-1, 1), repeat=n - 1))


def _comparable_pairs(n):
    for x in _states(n):
        for y in _states(n):
            if all(a >= b for a, b in zip(x, y)):
                yield x, y


@pytest.mark.parametrize("n", [4, 5])
def test_monotone_coupling_single_site(n):
    """Order preservation and exact one-step contraction of the weighted gap."""
    e = closed_form_eigen("glauber", n)
    for x, y in _comparable_pairs(n):
        exp_gap = Fraction(0)
        gap_before = float(e.w @ (np.array(x) - np.array(y)))
        acc = 0.0
        for v in range(1, n + 1):
            for mass, xs, ys in coupled_sign_outcomes(x, y, v, n):
                assert all(a >= b for a, b in zip(xs, ys))
                acc += float(mass) / n * float(e.w @ (np.array(xs) - np.array(ys)))
        assert abs(acc - e.lam * gap_before) < 1e-10 * max(1.0, abs(gap_before))


@pytest.mark.parametrize("n", [4])
def test_monotone_coupling_sweep(n):
    """The sweep composition also preserves order and contracts by the rate."""
    e = closed_form_eigen("scan", n)
    for x, y in _comparable_pairs(n):
        gap_before = float(e.w @ (np.array(x) - np.array(y)))
        total = 0.0
        stack = [(Fraction(1), x, y)]
        for v in range(1, n + 1):
            nxt = []
            for mass, xs, ys in stack:
                for m2, xs2, ys2 in coupled_sign_outcomes(xs, ys, v, n):
                    assert all(a >= b for a, b in zip(xs2, ys2))
                    nxt.append((mass * m2, xs2, ys2))
            stack = nxt
        for mass, xs, ys in stack:
            total += float(mass) * float(e.w @ (np.array(xs) - np.array(ys)))
        assert abs(total - e.lam * gap_before) < 1e-10 * max(1.0, abs(gap_before))


@pytest.mark.parametrize("kind", ["glauber", "scan"])
@pytest.mark.parametrize("n", [4, 5])
def test_expectation_matrix_matches_chain_exactly(kind, n):
    """A x equals the exact conditional mean of the sign chain, every state.

    E[X(1) | X(0) = x] = sum_y P(x, y) y with the kernel held exactly, so
    the comparison is at float precision rather than Monte Carlo accuracy.
    """
    A = expectation_matrix(kind, n)
    K = build_sign_kernel(kind, n)
    Y = np.array(K.states, dtype=float)
    for i, x in enumerate(K.states):
        probs = np.array(
            [K.rows[i].get(j, 0) / K.denom for j in range(len(K.states))]
        )
        exact_mean = probs @ Y
        assert np.allclose(A @ np.array(x, dtype=float), exact_mean, atol=1e-13)
