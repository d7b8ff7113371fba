"""Transfer-matrix counts, anchored initial distributions, and the
clamped-versus-free disagreement experiment on long paths.

The path is cut into m segments by anchor vertices clamped to color 0; the
statistic Z counts segment midpoints colored 0.  Under the anchored initial
distribution Z concentrates above a threshold that the stationary law stays
below, and for a small number of sweeps the free chain tracks the clamped
chain except with tiny probability (a disagreement would have to percolate
from an anchor to a midpoint), which converts into a total-variation lower
bound at the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .coupling import coupled_update, switch_scan_contained
from .domain import PAD, Coloring, Graph, enumerate_colorings, path_accepts
from .dynamics import CH_INIT, CH_SCAN, ChainSpec, RandomTape
from .kernels import build_kernel


# ---------------------------------------------------------------------------
# Transfer-matrix counts
# ---------------------------------------------------------------------------

def transfer_count(q: int, s: int, i: int, j: int) -> int:
    """Number of proper q-colorings of an s-edge path with endpoint colors i, j.

    Even s has the closed forms ((q-1)^s - 1)/q off the diagonal and
    ((q-1)^s + q - 1)/q on it; odd s falls back to an integer matrix power.
    """
    if s < 0 or q < 2 or not (0 <= i < q and 0 <= j < q):
        raise ValueError("bad transfer-count arguments")
    if s == 0:
        return 1 if i == j else 0
    if s % 2 == 0:
        if i == j:
            return ((q - 1) ** s + q - 1) // q
        return ((q - 1) ** s - 1) // q
    A = np.ones((q, q), dtype=object) - np.eye(q, dtype=object)
    M = np.linalg.matrix_power(A, s)
    return int(M[i, j])


def mid_color_prob(q: int, ell: int, r: int) -> Fraction:
    """Probability the split vertex of an anchored segment repeats the anchor color.

    A path of ell + r edges with both endpoints colored j: the vertex at
    distance ell from the left end carries color j with probability
    count(ell, j, j) * count(r, j, j) / count(ell + r, j, j), which is at
    least (1/q)(1 + (q-1)^-(r-1)).
    """
    if ell <= 0 or r <= 0 or ell % 2 or r % 2:
        raise ValueError("ell and r must be positive even integers")
    p = Fraction(
        transfer_count(q, ell, 0, 0) * transfer_count(q, r, 0, 0),
        transfer_count(q, ell + r, 0, 0),
    )
    floor = Fraction(1, q) * (1 + Fraction(1, (q - 1) ** (r - 1)))
    if p < floor:
        raise ValueError(f"anchored midpoint probability {p} fell below its floor {floor}")
    return p


# ---------------------------------------------------------------------------
# Segment layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegmentLayout:
    """Anchor/midpoint geometry of the segmented path.

    Anchors sit at L_i = 1 + i*k for i = 0..m, midpoints at M_i = L_i + ell
    for i = 0..m-1, and the symmetric clamp set at M_i + k/2 (clipped to the
    path).  All vertex ids are 1-based.
    """

    n: int
    q: int
    r: int
    ell: int
    overridden: bool

    def __post_init__(self) -> None:
        if self.r <= 0 or self.ell <= 0 or self.r % 2 or self.ell % 2:
            raise ValueError("r and ell must be positive even integers")
        if self.m < 1:
            raise ValueError("layout needs at least one full segment")

    @property
    def k(self) -> int:
        return self.ell + self.r

    @property
    def m(self) -> int:
        return (self.n - 1) // self.k

    @property
    def anchors(self) -> tuple[int, ...]:
        return tuple(1 + i * self.k for i in range(self.m + 1))

    @property
    def mids(self) -> tuple[int, ...]:
        return tuple(1 + i * self.k + self.ell for i in range(self.m))

    @property
    def symmetric_clamps(self) -> tuple[int, ...]:
        return tuple(
            v for v in (mid + self.k // 2 for mid in self.mids) if 1 <= v <= self.n
        )

    @property
    def important_neighbors(self) -> np.ndarray:
        """imp[v] for padded positions v = 0..n+1: the neighbor whose pair the
        important-neighbor switch transposes by at v.  Left of a segment's
        midpoint it is v - 1, from the midpoint to the next anchor v + 1; at
        anchors and beyond the last anchor it is the sentinel position 0."""
        v = np.arange(self.n + 2)
        pos = (v - 1) % self.k  # distance to the anchor on the left
        imp = np.where(pos < self.ell, v - 1, v + 1)
        imp[(pos == 0) | (v == 0) | (v > 1 + self.m * self.k)] = 0
        return imp

    @property
    def threshold(self) -> float:
        """Z-tail split point m/q + (1/2) m n^(-1/3)."""
        return self.m / self.q + 0.5 * self.m * self.n ** (-1 / 3)


def segment_layout(
    n: int, q: int, override: Optional[tuple[int, int]] = None
) -> SegmentLayout:
    """Layout from the asymptotic recipe, or from an explicit (r, ell) override.

    Recipe: r is the largest even number not exceeding (1/3) log_(q-1) n and
    ell the smallest even number at least 48 ln n.  At desk scales the recipe
    degenerates (m = 0), hence the override, which is flagged in the layout.
    """
    if q < 3:
        raise ValueError("q >= 3 required")
    if override is not None:
        r, ell = override
        return SegmentLayout(n=n, q=q, r=r, ell=ell, overridden=True)
    r = int(math.floor(math.log(n, q - 1) / 3))
    r -= r % 2
    ell = int(math.ceil(48 * math.log(n)))
    ell += ell % 2
    return SegmentLayout(n=n, q=q, r=r, ell=ell, overridden=False)


def z_statistic(coloring, layout: SegmentLayout) -> int:
    """Number of midpoints colored 0."""
    return int(sum(coloring[mid - 1] == 0 for mid in layout.mids))


# ---------------------------------------------------------------------------
# Sampling the anchored distribution
# ---------------------------------------------------------------------------

def _conditional_matrices(layout: SegmentLayout) -> list[np.ndarray]:
    """CM[d][prev, c] = P(next color = c | previous color, d edges to the anchor).

    Within a segment the coloring is a conditioned path: the next color is
    weighted by the number of completions reaching color 0 at the anchor.
    """
    q, k = layout.q, layout.k
    counts = [[transfer_count(q, d, c, 0) for c in range(q)] for d in range(k + 1)]
    mats = [np.zeros((q, q))]
    for d in range(1, k + 1):
        M = np.zeros((q, q))
        for prev in range(q):
            tot = counts[d][prev]
            if tot == 0:
                # unreachable context (e.g. the anchor color right next to an
                # anchor); never queried by a proper sample
                continue
            for c in range(q):
                if c != prev:
                    M[prev, c] = counts[d - 1][c] / tot
        mats.append(M)
    return mats


def _draw_next(prev: np.ndarray, u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Colors drawn by inverting the row-wise cumulative law ``cum[prev]`` at u.

    The color is the number of cumulative values c < q - 1 not above u, which
    is the number over all q capped at q - 1 (the row total may round below 1).
    """
    q = cum.shape[0]
    out = (u >= cum[:, 0][prev]).astype(np.int8)
    for c in range(1, q - 1):
        out += u >= cum[:, c][prev]
    return out


def sample_pi0(
    layout: SegmentLayout, tape: RandomTape, replicates: int = 1, rep0: int = 0
) -> np.ndarray:
    """Uniform samples over proper colorings with every anchor colored 0.

    Colors are filled left to right; inside a segment each choice is weighted
    by its number of completions to the next anchor, beyond the last anchor
    uniformly among the colors differing from the left neighbor.  Returns an
    (replicates, n) int8 array.

    Every anchor is colored 0, so all m segments advance together: offset j
    of every segment draws from conditional matrix k - j + 1, the distance
    from its left neighbor to the next anchor.
    """
    n, q, k, m = layout.n, layout.q, layout.k, layout.m
    cums = [np.cumsum(M, axis=1) for M in _conditional_matrices(layout)]
    out = np.zeros((replicates, n), dtype=np.int8)
    U = tape.block(rep0, replicates, 0, CH_INIT, n)
    # views (R, m, k) of the segments; offset 0 is the anchor, left at 0
    seg = out[:, : m * k].reshape(replicates, m, k)
    useg = U[:, : m * k].reshape(replicates, m, k)
    for j in range(1, k):
        seg[:, :, j] = _draw_next(seg[:, :, j - 1], useg[:, :, j], cums[k - j + 1])
    uniform_next = (1 - np.eye(q)) / (q - 1)
    cum = np.cumsum(uniform_next, axis=1)
    for col in range(m * k + 1, n):
        out[:, col] = _draw_next(out[:, col - 1], U[:, col], cum)
    return out


def enumerate_anchor_fiber(layout: SegmentLayout, budget: int = 200_000) -> list[Coloring]:
    """All proper colorings with anchors colored 0 (small layouts only)."""
    g = Graph.path(layout.n)
    states = enumerate_colorings(g, layout.q, budget=budget)
    anchors = layout.anchors
    return [s for s in states if all(s[a - 1] == 0 for a in anchors)]


def stationary_z_tail_exact(layout: SegmentLayout, budget: int = 200_000) -> Fraction:
    """Pr_uniform(Z >= threshold), by enumeration (small layouts only)."""
    g = Graph.path(layout.n)
    states = enumerate_colorings(g, layout.q, budget=budget)
    thr = layout.threshold
    hits = sum(1 for s in states if z_statistic(s, layout) >= thr)
    return Fraction(hits, len(states))


def anchored_z_tail_exact(layout: SegmentLayout, budget: int = 200_000) -> Fraction:
    """Pr_pi0(Z >= threshold), by fiber enumeration (small layouts only)."""
    fiber = enumerate_anchor_fiber(layout, budget=budget)
    thr = layout.threshold
    hits = sum(1 for s in fiber if z_statistic(s, layout) >= thr)
    return Fraction(hits, len(fiber))


def exact_free_tail(
    layout: SegmentLayout, t: int, budget: int = 20_000
) -> Fraction:
    """Exact Pr(Z >= threshold) after t sweeps from the anchored distribution.

    Small layouts only: evolves the anchored fiber's uniform distribution
    through the exact sweep kernel.
    """
    g = Graph.path(layout.n)
    spec = ChainSpec(graph=g, q=layout.q, base="scan")
    kernel = build_kernel(spec, budget=budget)
    fiber = set(enumerate_anchor_fiber(layout))
    dist = {kernel.index[s]: Fraction(1, len(fiber)) for s in fiber}
    for _ in range(t):
        nxt: dict[int, Fraction] = {}
        for i, p in dist.items():
            for j, num in kernel.rows[i].items():
                nxt[j] = nxt.get(j, Fraction(0)) + p * Fraction(num, kernel.denom)
        dist = nxt
    thr = layout.threshold
    return sum(
        (p for i, p in dist.items() if z_statistic(kernel.states[i], layout) >= thr),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# The coupled clamped/free experiment
# ---------------------------------------------------------------------------

@dataclass
class LBReport:
    """Outcome of the clamped-versus-free threshold experiment.

    ``free_tail``/``clamped_tail``: empirical Pr(Z >= threshold) at time t
    for the free and anchor-clamped chains (the clamped chain keeps the
    anchored distribution exactly).  ``disagreement_rate``: fraction of
    coupled replicates with any midpoint disagreement at time t.
    ``tv_lower_estimate`` = 1 - ((1 - free_tail) + disagreement_rate), a
    conservative triangle-argument reading; the stationary tail at the same
    threshold is the quantity it should dominate.
    ``percolation_contained``: for scan sweeps the exhaustive certificate
    ``switch_scan_contained(q)``; for single-site steps it is not certified
    and reads True (the important-neighbor rule can create a disagreement
    whose important pair agrees).
    """

    layout: SegmentLayout
    base: str
    t: int
    replicates: int
    threshold: float
    free_tail: float
    clamped_tail: float
    disagreement_rate: float
    mean_mid_disagreements: float
    percolation_contained: bool

    @property
    def tv_lower_estimate(self) -> float:
        return 1.0 - ((1.0 - self.free_tail) + self.disagreement_rate)


def _padded(X: np.ndarray) -> np.ndarray:
    """(R, n) colorings as a C-ordered (R, n + 2) array with PAD columns."""
    return np.pad(X, ((0, 0), (1, 1)), constant_values=PAD)


def _site_draws(tape: RandomTape, R: int, step: int, n: int, q: int):
    """Per-replicate vertex (1-based) and color of one single-site step."""
    U = tape.block(0, R, step, CH_SCAN, 2)
    v = np.minimum((U[:, 0] * n).astype(np.int64) + 1, n)
    return v, np.minimum((U[:, 1] * q).astype(np.int8), q - 1)


def lb_experiment(
    layout: SegmentLayout,
    t: int,
    replicates: int,
    tape: RandomTape,
    base: str = "scan",
) -> LBReport:
    """Coupled clamped/free run from the anchored distribution.

    Both copies start equal at a pi0 sample; the free copy follows the plain
    dynamics and the clamped copy rejects anchor moves, coupled by the switch
    rule (scan sweeps) or its important-neighbor variant (single-site steps).
    """
    if t < 0:
        raise ValueError("t >= 0 required")
    if replicates < 1:
        raise ValueError("replicates >= 1 required")
    n, q = layout.n, layout.q
    S = _padded(sample_pi0(layout, tape, replicates))
    T = S.copy()
    anchor_mask = np.zeros(n + 2, dtype=bool)
    anchor_mask[list(layout.anchors)] = True
    if base == "scan":
        for sweep in range(t):
            U = tape.block(0, replicates, 1 + sweep, CH_SCAN, n)
            for v in range(1, n + 1):
                c = np.minimum((U[:, v - 1] * q).astype(np.int8), q - 1)
                coupled_update(S.T, T.T, v, c, "switch_scan", frozen=anchor_mask[v])
    elif base == "glauber":
        imp = layout.important_neighbors
        flat = np.arange(replicates) * (n + 2)
        free, clamped = S.reshape(-1), T.reshape(-1)  # views: replicate r's v at flat[r] + v
        for step in range(t):
            v, c = _site_draws(tape, replicates, step, n, q)
            coupled_update(
                free, clamped, flat + v, c, "switch_glauber_important_neighbor",
                w=flat + imp[v], frozen=anchor_mask[v],
            )
    else:
        raise ValueError(f"unknown base {base!r}")

    mids = np.array(layout.mids)
    thr = layout.threshold
    z_free = (S[:, mids] == 0).sum(axis=1)
    z_clamped = (T[:, mids] == 0).sum(axis=1)
    mid_dis = (S[:, mids] != T[:, mids]).sum(axis=1)
    return LBReport(
        layout=layout,
        base=base,
        t=t,
        replicates=replicates,
        threshold=thr,
        free_tail=float(np.mean(z_free >= thr)),
        clamped_tail=float(np.mean(z_clamped >= thr)),
        disagreement_rate=float(np.mean(mid_dis > 0)),
        mean_mid_disagreements=float(np.mean(mid_dis)),
        percolation_contained=switch_scan_contained(q) if base == "scan" else True,
    )


# ---------------------------------------------------------------------------
# Midpoint covariance probe
# ---------------------------------------------------------------------------

@dataclass
class CovarianceReport:
    layout: SegmentLayout
    t: int
    replicates: int
    max_abs_covariance: float
    covariance_ceiling: float        # 1/m
    covariance_se: float             # rough sampling scale 1/sqrt(replicates)
    var_z: float
    var_ceiling: float               # 2m
    var_se: float


def covariance_probe(
    layout: SegmentLayout,
    t: int,
    replicates: int,
    tape: RandomTape,
    clamp_symmetric: bool = False,
) -> CovarianceReport:
    """Empirical midpoint-indicator covariances after t single-site steps.

    Starts from the anchored distribution and runs the free chain (or, with
    ``clamp_symmetric``, the chain clamped at the symmetric clamp set).
    The pairwise covariance ceiling is 1/m and the variance ceiling 2m, both
    read as statistical checks at the sampling scale.
    """
    if replicates < 1:
        raise ValueError("replicates >= 1 required")
    n, q = layout.n, layout.q
    S = _padded(sample_pi0(layout, tape, replicates))
    clamp_mask = np.zeros(n + 2, dtype=bool)
    if clamp_symmetric:
        clamp_mask[list(layout.symmetric_clamps)] = True
    base = np.arange(replicates) * (n + 2)
    s = S.reshape(-1)  # view: replicate r's v sits at base[r] + v
    for step in range(t):
        v, c = _site_draws(tape, replicates, 1 + step, n, q)
        f = base + v
        s[f] = np.where(path_accepts(s, f, c) & ~clamp_mask[v], c, s[f])
    mids = np.array(layout.mids)
    Z = (S[:, mids] == 0).astype(float)
    centered = Z - Z.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / replicates
    off = cov - np.diag(np.diag(cov))
    z_tot = Z.sum(axis=1)
    return CovarianceReport(
        layout=layout,
        t=t,
        replicates=replicates,
        max_abs_covariance=float(np.abs(off).max()) if layout.m > 1 else 0.0,
        covariance_ceiling=1.0 / layout.m,
        covariance_se=1.0 / math.sqrt(replicates),
        var_z=float(z_tot.var()),
        var_ceiling=2.0 * layout.m,
        var_se=float(2.0 * layout.m / math.sqrt(replicates)),
    )
