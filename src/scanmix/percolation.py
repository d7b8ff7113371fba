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
from typing import Optional

import numpy as np

from .coupling import (
    check_table_budget, switch_scan_contained, switch_scan_sweeps, switch_site_steps,
)
from .dynamics import CH_INIT, RandomTape


# ---------------------------------------------------------------------------
# Transfer-matrix counts
# ---------------------------------------------------------------------------

def transfer_count(q: int, s: int, i: int, j: int) -> int:
    """Number of proper q-colorings of an s-edge path with endpoint colors i, j.

    The entry (i, j) of (J - I)^s, J the all-ones q x q matrix: J - I has
    eigenvalue q - 1 on the all-ones vector and -1 on its complement, so the
    diagonal entries are ((q-1)^s + (q-1)(-1)^s)/q and the others
    ((q-1)^s - (-1)^s)/q, for every s >= 0.
    """
    if s < 0 or q < 2 or not (0 <= i < q and 0 <= j < q):
        raise ValueError("bad transfer-count arguments")
    return ((q - 1) ** s + (q - 1 if i == j else -1) * (-1) ** s) // q


# ---------------------------------------------------------------------------
# Segment layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegmentLayout:
    """Anchor/midpoint geometry of the segmented path.

    Anchors sit at L_i = 1 + i*k for i = 0..m and midpoints at M_i = L_i + ell
    for i = 0..m-1.  All vertex ids are 1-based.
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
    def important_sides(self) -> np.ndarray:
        """side[v] for padded positions v = 0..n+1: the side of the neighbor
        whose pair the important-neighbor switch transposes by at v, -1 left
        of a segment's midpoint and +1 from the midpoint to the next anchor;
        0, none, at anchors, the sentinels and beyond the last anchor."""
        v = np.arange(self.n + 2)
        pos = (v - 1) % self.k  # distance to the anchor on the left
        side = np.where(pos < self.ell, -1, 1)
        side[(pos == 0) | (v == 0) | (v > 1 + self.m * self.k)] = 0
        return side

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
    prev = prev.astype(np.intp)  # one index conversion serves all q - 1 gathers
    out = (u >= cum[:, 0][prev]).astype(np.int8)
    for c in range(1, q - 1):
        out += u >= cum[:, c][prev]
    return out


# Draws sample_pi0 holds at once: 512 kB of float64, far below the (R, n)
# draws of a large run (16 MB at n = 10^4, R = 200), and wide enough that
# its numpy calls, which do little work per cell, cost little per chunk.
PI0_CHUNK_CELLS = 2 ** 16


def sample_pi0(
    layout: SegmentLayout, tape: RandomTape, replicates: int = 1, rep0: int = 0
) -> np.ndarray:
    """Uniform samples over proper colorings with every anchor colored 0.

    Colors are filled left to right; inside a segment each choice is weighted
    by its number of completions to the next anchor, beyond the last anchor
    uniformly among the colors differing from the left neighbor.  Returns an
    (replicates, n) int8 array.

    Every anchor is colored 0, so the segments are independent and a chunk
    of them advances together, drawing only its own columns of the tape:
    offset j of every segment draws from conditional matrix k - j + 1, the
    distance from its left neighbor to the next anchor.
    """
    n, q, k, m = layout.n, layout.q, layout.k, layout.m
    cums = [np.cumsum(M, axis=1) for M in _conditional_matrices(layout)]
    out = np.zeros((replicates, n), dtype=np.int8)
    # views (R, segments, k) of a chunk's segments; offset 0 is the anchor, left at 0
    segs = max(1, PI0_CHUNK_CELLS // (replicates * k))
    for s0 in range(0, m, segs):
        s1 = min(s0 + segs, m)
        shape = (replicates, s1 - s0, k)
        useg = tape.block(rep0, replicates, 0, CH_INIT, s1 * k, s0 * k).reshape(shape)
        seg = out[:, s0 * k : s1 * k].reshape(shape)
        for j in range(1, k):
            seg[:, :, j] = _draw_next(seg[:, :, j - 1], useg[:, :, j], cums[k - j + 1])
    uniform_next = (1 - np.eye(q)) / (q - 1)
    cum = np.cumsum(uniform_next, axis=1)
    tail = m * k + 1  # the first column past the last anchor
    if tail < n:
        U = tape.block(rep0, replicates, 0, CH_INIT, n, tail)
        for col in range(tail, n):
            out[:, col] = _draw_next(out[:, col - 1], U[:, col - tail], cum)
    return out


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
    if base not in ("scan", "glauber"):
        raise ValueError(f"unknown base {base!r}")
    n, q = layout.n, layout.q
    check_table_budget(q)  # both engines read the step table; refused before any draw
    percolation_contained = switch_scan_contained(q) if base == "scan" else True
    anchor_mask = np.isin(np.arange(n + 2), layout.anchors)
    mids = np.array(layout.mids)
    X = sample_pi0(layout, tape, replicates)
    if base == "scan":
        mid_free, mid_clamped = switch_scan_sweeps(X, X, q, anchor_mask, t, tape, mids)
    else:
        sides = layout.important_sides
        mid_free, mid_clamped = switch_site_steps(X, X, q, anchor_mask, sides, t, tape, mids)

    # rows are midpoints, columns replicates
    thr = layout.threshold
    z_free = (mid_free == 0).sum(axis=0)
    z_clamped = (mid_clamped == 0).sum(axis=0)
    mid_dis = (mid_free != mid_clamped).sum(axis=0)
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
        percolation_contained=percolation_contained,
    )
