"""Coupled evolutions of two chain copies.

Provides the coupling rules used in the path analyses (identity, the
swap-on-adjacent-disagreement rule for q >= 4, and the two switch couplings
driven by a neighbor's colors), the contraction-bound ledger of exact
expected drifts (dynamic programming over the joint pair at the frontier
vertex, or all-pairs metric tables; never sampling) quantified over
canonical color classes, and empirical coalescence-time experiments on
q-colorings of the path.  ``coupling_time`` advances a chunk of replicates
step by step, each by one coupled step, ``coupled_sweep``, on its padded
list of pair codes in place, from batched starts and one tape block per
step.  Every coupled vertex move is ``coupled_update``, and every coupled
engine, ``lb_experiment``'s ``switch_scan_sweeps`` and ``switch_site_steps``
included, reads the step table it builds.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .domain import (
    BudgetExceededError,
    Graph,
    VertexWeights,
    enumerate_colorings,
    heights,
    path_accepts,
    weighted_height_distance,
)
from .dynamics import (
    CH_GLAUBER,
    CH_INIT,
    CH_SCAN,
    ChainSpec,
    RandomTape,
    color_from_uniform,
    scan_order,
    vertex_from_uniform,
)
from .kernels import _move_tables

COUPLING_KINDS = (
    "identity_glauber",
    "identity_scan",
    "q4_glauber",
    "q4_scan",
    "switch_scan",
)

# Cells admitted in one step table, so q <= 10 (14.6M cells), the one cap
# on the table and so on every coupled engine.  The table is built one
# right-pair slab at a time, so a build holds its uint8 cells and a slab's
# int64 temporaries: a fresh-process build of the q = 10 table peaks near
# 54 MB, of which the import is 36 MB.
STEP_TABLE_BUDGET = 2 ** 24


def transpose_color(c, a, b):
    """Image of c under the transposition (a b); branch-free, so c, a and b
    may be ints or arrays.  a == b is the identity."""
    return c + (c == a) * (b - a) + (c == b) * (a - b)


def partner_proposal(kind: str, v, c, s, t):
    """Proposal for the second copy at vertex v given c in the first copy.

    ``s`` and ``t`` are the two copies, sentinel-padded and indexed like
    ``path_accepts``: lists with int v, or batches.  identity: same color.
    q4: transpose by the left pair if it disagrees, else by the right pair
    (left is already updated in a sweep, right not yet).  switch_scan:
    transpose by the left pair.  A missing neighbor is an agreeing sentinel
    pair, which transposes nothing.
    """
    if kind.startswith("identity"):
        return c
    if kind.startswith("q4"):
        left = s[v - 1] != t[v - 1]
        a = s[v + 1] + left * (s[v - 1] - s[v + 1])
        b = t[v + 1] + left * (t[v - 1] - t[v + 1])
    elif kind == "switch_scan":
        a, b = s[v - 1], t[v - 1]
    else:
        raise ValueError(f"unknown coupling kind {kind!r}")
    return transpose_color(c, a, b)


def coupled_update(s, t, v, c, kind: str, frozen=False) -> None:
    """One coupled Metropolis(v) move on padded copies, in place.

    Copy one tries c, copy two the partner proposal of ``kind``; a ``frozen``
    copy two rejects.  ``s`` and ``t`` are padded lists with int v and c, or
    position-major arrays with int v.  The assignments are arithmetic, so
    lists keep Python ints and broadcast operands give broadcast results.
    It is the one coupled move: ``_step_table`` builds every table from it,
    one window of all left pairs, own pairs and proposals per right pair.
    """
    c2 = partner_proposal(kind, v, c, s, t)
    # on booleans a > b is "a and not b"
    ok1, ok2 = path_accepts(s, v, c), path_accepts(t, v, c2) > frozen
    s[v] = s[v] + ok1 * (c - s[v])
    t[v] = t[v] + ok2 * (c2 - t[v])


def _check_kind_fits(kind: str, spec: ChainSpec) -> None:
    """The coupling must drive the spec's chain on an unclamped clique model
    on the path, where its starts (proper path colorings) lie; q4 rules
    need q >= 4."""
    if kind not in COUPLING_KINDS:
        raise ValueError(f"unknown coupling kind {kind!r}")
    if kind.endswith("_scan"):
        fits = spec.base in ("scan", "reverse_scan")
    else:
        fits = spec.base == "glauber"
    if not fits:
        raise ValueError(f"coupling {kind!r} does not drive the {spec.base} chain")
    if spec.q is None or spec.graph.kind != "path" or spec.clamp:
        raise ValueError(
            f"coupling {kind!r} runs on unclamped q-colorings of the path only: "
            "its starts are proper colorings of the path"
        )
    if kind.startswith("q4") and spec.q < 4:
        raise ValueError(f"coupling {kind!r} needs at least 4 colors")


# ---------------------------------------------------------------------------
# Coupled simulation drivers
# ---------------------------------------------------------------------------

def coupled_sweep(p: list, kind: str, spec: ChainSpec, u) -> bool:
    """One coupled sweep (scan kinds) or single-site step (glauber kinds) of
    two copies of the spec's chain, which ``_check_kind_fits`` admits, in
    place on the padded list p of the copies' ``_pair_codes``; whether the
    copies, which must differ on entry, still differ.

    ``u`` holds the step's draws, those of the plain chain: a sweep's
    ``CH_SCAN`` block, one draw per vertex, or a step's ``CH_GLAUBER``
    block [lazy coin, vertex, color].  Copy one tries their proposals, copy
    two the partner proposals; every vertex move is one lookup in
    ``_step_table``.  A list that is not a padded n-vertex path, or draws of
    another length, raise ValueError.
    """
    _check_kind_fits(kind, spec)
    n, q = spec.graph.n, spec.q
    scan = kind.endswith("_scan")
    if len(p) != n + 2:
        raise ValueError(f"a pair-code list of length {len(p)} is not a padded {n}-path")
    if len(u) != (n if scan else 3):
        raise ValueError(f"{len(u)} draws do not make one {kind} move on {n} vertices")
    table = _step_table(q, kind).reshape(-1).data  # indexing gives Python ints
    if scan:
        base, stride = _sweep_positions(np.array(p), u, q, spec.base == "reverse_scan")
        x = p[0]  # the sentinel pair, at either end
        for v, pos in zip(scan_order(spec), base.tolist()):
            x = p[v] = table[pos + x * stride]
    else:
        v = vertex_from_uniform(u[1], n)
        old = p[v]
        x = p[v] = table[_table_index(q, p[v - 1], old, p[v + 1], color_from_uniform(u[2], q))]
        # the copies differed and only vertex v moved, so they can have met
        # only if its pair has just turned diagonal
        if x % (q + 2) or not old % (q + 2):
            return True
    # the diagonal pairs (a, a) are the codes a * (q + 2)
    return not set(p).issubset(range(0, (q + 1) ** 2, q + 2))


def _pair_codes(S, T, q: int, dtype) -> np.ndarray:
    """Codes a * (q + 1) + b of the color pairs of S and T, vertices along
    axis 0, with a sentinel row, the pair (q, q), on each side; the sum is
    formed in the inputs' integer type, which must hold it."""
    P = np.empty((len(S) + 2, *S.shape[1:]), dtype)
    P[0] = P[-1] = (q + 1) ** 2 - 1
    P[1:-1] = S * (q + 1) + T
    return P


def _sweep_positions(P: np.ndarray, u: np.ndarray, q: int, reverse: bool):
    """``_step_table`` positions of a sweep's vertices in sweep order, less
    the already-updated neighbour's term, and that term's stride.  ``P``
    holds ``_pair_codes``, ``u`` the vertices' draws.  Every other term is
    an old code, so a chase adds only the pair each lookup returned, times
    the stride."""
    P = P.astype(np.int64, copy=False)
    c = np.minimum((u * q).astype(np.int64), q - 1)
    if reverse:
        return _table_index(q, P[:-2], P[1:-1], 0, c)[::-1], _table_index(q, 0, 0, 1, 0)
    return _table_index(q, 0, P[1:-1], P[2:], c), _table_index(q, 1, 0, 0, 0)


# Table positions a switch sweep computes at once, as (vertices, replicates)
# int64 cells, and as many float64 draws: the block stays near 128 kB, where
# an (n, R) one would outweigh the codes.  ``coupling_time`` advances
# CHUNK_CELLS // n replicates at once (at least one), so its starts, its
# padded copies and each step's draw block stay near that size too.
CHUNK_CELLS = 2 ** 14


def switch_scan_sweeps(
    S: np.ndarray, T: np.ndarray, q: int, frozen: np.ndarray, sweeps: int,
    tape: RandomTape, read,
) -> tuple[np.ndarray, np.ndarray]:
    """Colors at padded positions ``read`` of two copies after ``sweeps``
    switch-coupled scan sweeps from the (R, n) colorings S and T, as two
    (len(read), R) arrays.  Sweep s draws at tape coordinate (r, 1 + s,
    CH_SCAN) for replicate r; copy two keeps its color where the padded mask
    ``frozen`` is set.  The copies advance as position-major byte pair
    codes, one ``_step_table`` gather per vertex (the frozen table at frozen
    vertices), with draws and positions a chunk of vertices at a time."""
    R, n = S.shape
    tables = [_step_table(q, "switch_scan").reshape(-1),
              _step_table(q, "switch_scan", frozen=True).reshape(-1)]
    P = _pair_codes(S.T, T.T, q, np.uint8)
    picks, rows = frozen.tolist(), max(1, CHUNK_CELLS // R)
    for s in range(sweeps):
        x = P[0]
        for v0 in range(1, n + 1, rows):
            v1 = min(v0 + rows, n + 1)
            u = tape.block(0, R, 1 + s, CH_SCAN, v1 - 1, v0 - 1).T
            base, stride = _sweep_positions(P[v0 - 1:v1 + 1], u, q, False)
            stride = np.int64(stride)  # x * stride promotes to int64
            for v, b in zip(range(v0, v1), base):
                x = P[v] = tables[picks[v]][b + x * stride]
    return np.divmod(P[read], q + 1)


def switch_site_steps(
    S: np.ndarray, T: np.ndarray, q: int, frozen: np.ndarray, side: np.ndarray, steps: int,
    tape: RandomTape, read,
) -> tuple[np.ndarray, np.ndarray]:
    """``switch_scan_sweeps`` for single-site steps, step s drawing [vertex,
    color] at (r, s, CH_SCAN): copy two transposes by the pair on the padded
    ``side`` of the vertex (-1 left, +1 right, 0 none).  Acceptance is
    symmetric, so a right side reads the ``switch_scan`` table mirrored."""
    R, n = S.shape
    tables = [_step_table(q, "switch_scan").reshape(-1),
              _step_table(q, "identity_scan").reshape(-1),
              _step_table(q, "switch_scan", frozen=True).reshape(-1)]
    P = _pair_codes(S.T, T.T, q, np.uint8)
    vs = np.arange(n + 2)
    near = vs + np.where(side == 0, -1, side)  # the neighbour read as the left one
    window = np.stack([near, vs, 2 * vs - near]) * R  # replicate 0's (left, own, right) in P
    pick = np.where(frozen, 2, side == 0)  # identity where no side, frozen where frozen
    P_flat, cols = P.reshape(-1), np.arange(R)
    for s in range(steps):
        u = tape.block(0, R, s, CH_SCAN, 2)
        v = np.minimum((u[:, 0] * n).astype(np.int64) + 1, n)
        c = np.minimum((u[:, 1] * q).astype(np.int64), q - 1)
        at = window.take(v, axis=1) + cols
        pos = _table_index(q, *P_flat.take(at).astype(np.int64), c)
        P_flat[at[1]] = np.choose(pick.take(v), [table.take(pos) for table in tables])
    return np.divmod(P[read], q + 1)


# ---------------------------------------------------------------------------
# Exact drift: vectorized Hamming DP over class batches
# ---------------------------------------------------------------------------

def check_table_budget(q: int) -> None:
    """Refuses a q whose step table would exceed ``STEP_TABLE_BUDGET`` cells."""
    cells = (q + 1) ** 4 * q ** 3
    if cells > STEP_TABLE_BUDGET:
        raise ValueError(f"{cells} step-table cells (q = {q}) exceed budget {STEP_TABLE_BUDGET}")


@functools.cache
def _step_table(q: int, coupling: str, frozen: bool = False) -> np.ndarray:
    """Joint pair after one coupled vertex update, for every local situation.

    Built by ``coupled_update``, the one definition of the coupled vertex
    move: the Hamming DP, the ``switch_scan_contained`` certificate,
    ``coupled_sweep``, ``switch_scan_sweeps`` and ``switch_site_steps`` all
    read it; a ``frozen`` table is that of a frozen copy two.  Pairs (a, b)
    of the two copies' colors are ``_pair_codes``, color q standing for a
    missing neighbor.  Entry [right, old, left, c] is the vertex's pair
    code after copy one proposes c, where ``right`` and ``left`` are the
    neighbor pair codes and ``old`` = a * q + b the vertex's own pair
    (``_table_index`` gives the flat position).  In a left-to-right sweep
    the left pair is already updated and the right one old.  Cached per
    (q, coupling, frozen), as uint8: the ``STEP_TABLE_BUDGET`` admits only
    q <= 10, whose codes fit a byte; a larger table is refused before
    anything is allocated.
    """
    check_table_budget(q)
    q1, L = q + 1, (q + 1) ** 2
    pa, pb = np.divmod(np.arange(L), q1)
    oa, ob = np.divmod(np.arange(q * q), q)
    oa, la, c = np.ix_(oa, pa, np.arange(q))
    ob, lb, _ = np.ix_(ob, pb, np.arange(q))
    table = np.empty((L, q * q, L, q), np.uint8)
    for r in range(L):
        # the engine's move on the padded window (left, vertex, right), one
        # right pair at a time, so only a (q^2, L, q) slab is int64
        s, t = [la, oa, pa[r]], [lb, ob, pb[r]]
        coupled_update(s, t, 1, c, coupling, frozen=frozen)
        table[r] = s[1] * q1 + t[1]
    table.flags.writeable = False
    return table


def _table_index(q: int, left, own, right, c):
    """Flat position in ``_step_table(q, kind)`` of proposal c at a vertex
    with left, own and right pair codes (the own pair is never a sentinel);
    ints or int64 arrays.  The position is linear in the left and in the
    right code, so a sweep can pass the updated neighbour's code as 0 and
    add it later times its stride, the position of code 1."""
    L = (q + 1) ** 2
    return ((right * q * q + own - own // (q + 1)) * L + left) * q + c


@functools.cache
def switch_scan_contained(q: int) -> bool:
    """Whether the switch_scan coupling contains disagreements on q colors.

    Exhaustive over ``_step_table``: every updated left pair, old pair, old
    right pair and proposal c, sentinel ends and improper colors included.
    Holds when every disagreement created at an unfrozen vertex has a
    disagreeing right pair, or a disagreeing left pair with c equal to copy
    two's left color (the option-B event), so a disagreement anywhere must
    have percolated from a frozen vertex.
    """
    q1, L = q + 1, (q + 1) ** 2
    a, b = np.divmod(_step_table(q, "switch_scan"), q1)
    pa, pb = np.divmod(np.arange(L), q1)
    oa, ob = np.divmod(np.arange(q * q), q)
    differs = pa != pb
    # axes (right pair, old pair, left pair, c)
    created = (a != b) & (oa == ob)[:, None, None]
    option_b = differs[:, None] & (np.arange(q) == pb[:, None])
    return not (created & ~(differs[:, None, None, None] | option_b)).any()


@functools.cache
def _last_vertex_off(q: int, coupling: str) -> np.ndarray:
    """Proposals that leave the last vertex's pair off-diagonal: entry
    [own, left] counts them in ``_step_table``'s block of the sentinel right
    pair.  Cached per (q, coupling), as float64 for the DP's sums."""
    a, b = np.divmod(_step_table(q, coupling)[-1], q + 1)
    return (a != b).sum(axis=2).astype(np.float64)


# Sorted rows the Hamming DP advances at once.  A chunk's pair distributions
# are one (runs, L) float64 table, and its gather, bincount and last-vertex
# temporaries stay within a few of those: about 1 MB at q = 5 (L = 36),
# where one pass over a 11,167-window batch took 12 MB.
DP_CHUNK_ROWS = 2 ** 11


def _ham_batch_drift(
    sig: np.ndarray, tau: np.ndarray, start: int, q: int, coupling: str = "q4_scan"
) -> tuple[np.ndarray, int]:
    """Exact scaled E[Hamming] after one coupled sweep from 0-based ``start``.

    ``sig``, ``tau``: (C, n) integer arrays of full copy colorings; returns
    (numerators, scale) with expectation numerators[i] / scale per row.
    The DP state is the joint color pair at the previously updated vertex;
    counts are integers at scale q^(number of scanned vertices).  After
    vertex v the state depends only on the pair codes from the left
    neighbour of ``start`` through v + 1, so the rows are sorted by those
    codes and ``_sorted_drift`` advances each chunk of ``DP_CHUNK_ROWS``
    sorted rows, sharing their prefixes.
    """
    if coupling not in ("q4_scan", "identity_scan", "switch_scan"):
        raise ValueError(f"no Hamming DP for coupling {coupling!r}")
    sig = np.asarray(sig, dtype=np.int64)
    tau = np.asarray(tau, dtype=np.int64)
    C, n = sig.shape
    scale = q ** (n - start)
    if scale >= 2 ** 53:
        raise ValueError("counts beyond 2^53 are not exact in the DP")
    fixed = (sig[:, :start] != tau[:, :start]).sum(axis=1)
    m = n - start
    if not (m and C):
        return fixed * scale, scale
    # pair codes of the left neighbour of start (the sentinel if there is
    # none) and of the scanned vertices; the last one's right pair is the
    # sentinel, which _last_vertex_off assumes
    P = _pair_codes(sig.T, tau.T, q, np.int64)[start:-1].T
    order = np.lexsort(P.T[::-1])
    out = np.empty(C, dtype=np.int64)
    for lo in range(0, C, DP_CHUNK_ROWS):
        rows = order[lo:lo + DP_CHUNK_ROWS]
        out[rows] = _sorted_drift(P[rows], q, coupling)
    return fixed * scale + out, scale


def _sorted_drift(P: np.ndarray, q: int, coupling: str) -> np.ndarray:
    """Scaled expected Hamming of the scanned vertices after the sweep, for
    rows P of pair codes (left neighbour, then the scanned vertices) in
    lexicographic order.

    Each shared prefix is advanced once: one gather from ``_step_table``
    and one bincount per vertex over the prefix runs, each run starting from
    its parent run's distribution.  The last vertex needs only its
    off-diagonal mass, read per row from ``_last_vertex_off``.  Every count
    and partial sum is an integer at most q^m < 2^53, so float64 holds them
    exactly in any summation order.
    """
    C, m = P.shape[0], P.shape[1] - 1
    q1, L = q + 1, (q + 1) ** 2
    table = _step_table(q, coupling).reshape(-1, q)
    a, b = np.divmod(np.arange(L), q1)
    off_diag = ((a != b) & (a < q) & (b < q)).astype(np.float64)
    # new[i, k]: row i differs from row i - 1 in columns 0..k
    new = np.ones((C, m + 1), dtype=bool)
    new[1:] = np.logical_or.accumulate(P[1:] != P[:-1], axis=1)
    # rows[own, right]: the table row of left pair 0 at a vertex of pair
    # codes own and right; rows[own, 0] // L indexes _last_vertex_off
    rows = _table_index(q, 0, np.arange(L)[:, None], np.arange(L), 0) // q

    # runs before any update share the left pair; after the k-th scanned
    # vertex (column k) they share columns 0..k+1
    run = np.cumsum(new[:, 0]) - 1
    dist = np.zeros((run[-1] + 1, L))  # counts, exact in float64 below 2^53
    dist[run, P[:, 0]] = 1
    expected = np.zeros(len(dist), dtype=np.int64)
    for k in range(1, m):
        heads = np.flatnonzero(new[:, k + 1])
        parent = run[heads]
        r, lp = np.nonzero(dist[parent])
        nxt = table[rows[P[heads, k], P[heads, k + 1]][r] + lp]
        dist = np.bincount(
            (nxt + (r * L)[:, None]).ravel(),
            weights=np.repeat(dist[parent[r], lp], q),
            minlength=len(heads) * L,
        ).reshape(-1, L)
        expected = expected[parent] + (dist @ off_diag).astype(np.int64) * q ** (m - k)
        run = np.cumsum(new[:, k + 1]) - 1
    # per row, not one product over all q^2 own pairs: even on 2,048-row
    # chunks a BLAS product here raised the drift jobs' peak RSS by 1-1.6 MB
    last = (dist[run] * _last_vertex_off(q, coupling)[rows[P[:, m], 0] // L]).sum(axis=1)
    return expected[run] + last.astype(np.int64)


# ---------------------------------------------------------------------------
# Canonical color classes (orbits under global color permutation)
# ---------------------------------------------------------------------------

def _restricted_growth_array(length: int, q: int) -> np.ndarray:
    """Restricted-growth strings of ``length`` over q colors, in lexicographic
    order, as rows of an int64 array: one representative per orbit of q-ary
    tuples under color permutation.  Each entry is at most one larger than
    the running maximum (first occurrences appear in order), capped at
    q - 1.  The coupled dynamics and the Hamming metric are equivariant
    under global color relabeling, so drifts are class functions.

    The strings of each length fill the leading rows of one preallocated
    array, a column at a time (a column's gather is the only copy), rather
    than gathering every row and stacking them into a new array."""
    out = np.zeros((_class_count(length, q), length), dtype=np.int64)
    top = np.full(1, -1)
    for k in range(length):
        kids = np.minimum(top + 1, q - 1) + 1
        parent = np.repeat(np.arange(len(top)), kids)
        c = np.arange(len(parent)) - np.repeat(np.cumsum(kids) - kids, kids)
        for j in range(k):
            out[: len(parent), j] = out[: len(top), j][parent]
        out[: len(parent), k] = c
        top = np.maximum(top[parent], c)
    return out


def _class_count(length: int, q: int) -> int:
    """Number of restricted-growth strings of ``length`` over q colors."""
    ways = [1] + [0] * q  # ways[k]: strings so far using k distinct colors
    for _ in range(length):
        ways = [k * ways[k] + (ways[k - 1] if k else 0) for k in range(q + 1)]
    return sum(ways)


def _disagreement_classes(
    length: int, q: int, positions: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical pairs of length-``length`` tuples disagreeing exactly at
    ``positions``, as (sig, tau) arrays in representative order."""
    reps = _restricted_growth_array(length + len(positions), q)
    reps = reps[(reps[:, length:] != reps[:, positions]).all(axis=1)]
    sig = reps[:, :length]
    tau = sig.copy()
    tau[:, positions] = reps[:, length:]
    return sig, tau


# ---------------------------------------------------------------------------
# The contraction ledger
# ---------------------------------------------------------------------------

LEMMA_IDS = (
    # Hamming family, in the order of a single-disagreement pair's slots
    "from_site", "from_left", "full_any", "full_last", "full_fresh",
    "from_left_fresh", "full_blocked", "from_left_blocked",
    "suffix_fresh", "adjacent_pair",
    # weighted-metric family (q = 3)
    "site_break_even", "sweep_first", "sweep_second", "sweep_interior",
    "sweep_last", "sweep_suffix",
)
_CODE = {lemma: k for k, lemma in enumerate(LEMMA_IDS)}

# A priori work admitted by the ledger families: canonical classes times
# vertices (Hamming), cells of one all-pairs table (weighted metric).  Admits
# n <= 9 for q = 4, 5 and n <= 10 for q = 3; the largest of these, `drift`
# end to end in a fresh process, peak at 249 MB (n = 9, q = 5), 200 MB
# (n = 9, q = 4) and 127 MB (n = 10, q = 3).
LEDGER_BUDGET = 2 ** 22


@dataclass
class Ledger:
    """Checked contraction bounds as columns, one row per (pair, bound).

    Row r compares the exact value num[r] / scale[r] with the ceiling
    bound_num[r] / bound_den[r] in integers; ``lemma`` holds codes into
    LEMMA_IDS and ``pair_index`` the pair's index within its batch.
    site_break_even rows pass on equality, all others on <=.  Iterating
    yields ``LedgerRow`` views.
    """

    n: int
    q: int
    lemma: np.ndarray
    pair_index: np.ndarray
    num: np.ndarray
    scale: np.ndarray
    bound_num: np.ndarray
    bound_den: np.ndarray
    passed: np.ndarray

    @classmethod
    def from_blocks(cls, n: int, q: int, blocks: list[list]) -> "Ledger":
        """The ledger of ``blocks``, each the list of its rows' six columns
        (lemma, pair_index, num, scale, bound_num, bound_den).  Columns are
        joined one at a time and each block's part dropped once joined, so
        the blocks and the ledger share all but one column."""
        cols = []
        for j in range(6):
            cols.append(np.concatenate([block[j] for block in blocks]))
            for block in blocks:
                block[j] = None
        lemma, _, num, scale, bound_num, bound_den = cols
        lhs, rhs = num * bound_den, bound_num * scale
        passed = np.where(lemma == _CODE["site_break_even"], lhs == rhs, lhs <= rhs)
        return cls(n, q, *cols, passed)

    def __len__(self) -> int:
        return len(self.lemma)

    def __getitem__(self, rows: slice) -> "Ledger":
        """The ledger of the rows ``rows``, its columns views of these."""
        cols = (self.lemma, self.pair_index, self.num, self.scale,
                self.bound_num, self.bound_den, self.passed)
        return Ledger(self.n, self.q, *(col[rows] for col in cols))

    def __iter__(self):
        cols = zip(self.lemma.tolist(), self.pair_index.tolist(), self.passed.tolist())
        for i, (code, pair, ok) in enumerate(cols):
            yield LedgerRow(self, i, LEMMA_IDS[code], pair, ok)

    def lowest_terms(self) -> tuple[np.ndarray, ...]:
        """(value num, value den, bound num, bound den), each fraction reduced."""
        g = np.gcd(self.num, self.scale)
        h = np.gcd(self.bound_num, self.bound_den)
        return self.num // g, self.scale // g, self.bound_num // h, self.bound_den // h


class LedgerRow:
    """View of one ledger row: an exact drift against its ceiling."""

    __slots__ = ("ledger", "row", "lemma_id", "pair_index", "passed")

    def __init__(self, ledger: Ledger, row: int, lemma_id: str, pair_index: int, passed: bool):
        self.ledger = ledger
        self.row = row
        self.lemma_id = lemma_id
        self.pair_index = pair_index
        self.passed = passed

    @property
    def value(self) -> Fraction:
        """The quantity the bound constrains."""
        return Fraction(int(self.ledger.num[self.row]), int(self.ledger.scale[self.row]))

    @property
    def bound(self) -> Fraction:
        return Fraction(int(self.ledger.bound_num[self.row]), int(self.ledger.bound_den[self.row]))


def _slot_block(mask, lemma, num, scale, bound_num, bound_den) -> list[np.ndarray]:
    """Ledger columns for the true cells of ``mask`` (pairs x slots), in
    pair-major order; the other arguments broadcast to its shape."""
    pair, slot = np.nonzero(mask)
    lemma, *values = (
        np.asarray(c, dtype=np.int64)[pair, slot]
        for c in np.broadcast_arrays(mask, lemma, num, scale, bound_num, bound_den)[1:]
    )
    return [lemma, pair, *values]


def _single_site_block(sig: np.ndarray, tau: np.ndarray, i: int, q: int) -> list[np.ndarray]:
    """Ledger columns of the single-disagreement batch at 0-based i."""
    C, n = sig.shape
    starts = {i, max(0, i - 1)} | ({0} if q == 4 else set())
    drift = {s: _ham_batch_drift(sig, tau, s, q) for s in starts}
    (num_i, sc_i), (num_l, sc_l) = drift[i], drift[max(0, i - 1)]
    num0, sc0 = drift.get(0, (num_i, sc_i))  # read only where q == 4
    # from_site's ceiling counts the distinct neighbor colors of i
    if 0 < i < n - 1:
        distinct = 2 - (sig[:, i - 1] == sig[:, i + 1])
    else:  # one neighbor at an end of the path
        distinct = np.full(C, min(n - 1, 1))
    mask = np.zeros((C, 8), dtype=bool)
    mask[:, :2] = True
    if q == 4:
        # aggregate ceiling over every single-disagreement pair: the worst
        # of the full-sweep cases by the copy-relabeling symmetry
        mask[:, 2] = True
        mask[:, 3] = i == n - 1
        if i < n - 1:
            fresh = (sig[:, i + 1] != sig[:, i]) & (sig[:, i + 1] != tau[:, i])
            blocked = sig[:, i + 1] == sig[:, i]
            mask[:, 4] = fresh
            mask[:, 6] = blocked
            if i < 2:
                mask[:, 5], mask[:, 7] = fresh, blocked
            else:
                far = sig[:, i - 2]
                mask[:, 5] = fresh & (sig[:, i + 1] != far)
                mask[:, 7] = blocked & (sig[:, i] != far) & (tau[:, i] != far)
    bound_num = np.tile([0, 3, 191, 11, 47, 11, 191, 11], (C, 1))
    bound_num[:, 0] = distinct
    return _slot_block(
        mask,
        np.arange(8),
        np.stack([num_i, num_l, num0, num0, num0, num_l, num0, num_l], axis=1),
        np.array([sc_i, sc_l, sc0, sc0, sc0, sc_l, sc0, sc_l]),
        bound_num,
        np.array([q - 1, q - 1, 192, 16, 48, 12, 192, 12]),
    )


def hamming_contraction_rows(n: int, q: int) -> Ledger:
    """Exact sweep-coupling contraction checks for the Hamming metric, q >= 4.

    Quantification is over canonical color classes of pairs, which covers
    every pair the bounds speak about.  Families:

    - suffix_fresh: rightmost disagreement at i < n, sweep from i+1;
      added disagreements <= 1/(q-1).
    - from_site: single disagreement at i, sweep from i; <= C/(q-1) where C
      counts the distinct neighbor colors of i.
    - adjacent_pair: disagreements exactly at {i-1, i}, sweep from i;
      <= 1 + 3/(q-1).
    - from_left: single disagreement at i, sweep from max(1, i-1); <= 3/(q-1).
    - from_left_fresh / from_left_blocked (q=4): the two 11/12 refinements.
    - full_last / full_fresh / full_blocked (q=4): sweeps from vertex 1 with
      ceilings 11/16, 47/48, 191/192.

    q = 3 has its own family (``weighted_metric_contraction_rows``); q < 3
    or n < 1 raises ValueError.  Raises BudgetExceededError when canonical
    classes times vertices exceed ``LEDGER_BUDGET``, before enumerating.
    """
    if q < 3:
        raise ValueError("the Hamming ledger needs q >= 3")
    if n < 1:
        raise ValueError("vertex count must be positive")
    work = _class_count(n + 2, q) * n
    if work > LEDGER_BUDGET:
        raise BudgetExceededError(
            f"{work} class-vertex cells exceed budget {LEDGER_BUDGET}"
        )
    blocks = [_single_site_block(*_disagreement_classes(n, q, [i]), i, q) for i in range(n)]
    # suffix_fresh: disagreement at window position 0, sweep starts one right;
    # adjacent_pair: disagreements at window positions 0 and 1, sweep from 1.
    # The sweep never looks left of the disagreement, so quantify over
    # canonical windows of every length m.  Ceilings: one persisting
    # disagreement plus 1/(q-1), and total Hamming 1 + 3/(q-1).
    for lemma, positions, m_min, bound in (
        ("suffix_fresh", [0], 2, q),
        ("adjacent_pair", [0, 1], 3, q + 2),
    ):
        for m in range(m_min, n + 1):
            sig, tau = _disagreement_classes(m, q, positions)
            num, sc = _ham_batch_drift(sig, tau, 1, q)
            blocks.append(
                _slot_block(np.ones((len(sig), 1), dtype=bool), _CODE[lemma],
                            num[:, None], sc, bound, q - 1)
            )
    return Ledger.from_blocks(n, q, blocks)


# ---------------------------------------------------------------------------
# Exact drift: weighted-metric family for 3-colorings (identity coupling)
# ---------------------------------------------------------------------------

def _eighths(weights: VertexWeights) -> np.ndarray:
    """4 * weights as integers, with which the metric counts units of 1/8."""
    if 4 % weights.denominator:
        raise ValueError("metric tables need weights in multiples of 1/4")
    return weights.numerators * (4 // weights.denominator)


class PathMetricTables:
    """Vectorized exact-drift machinery for proper 3-colorings of a path.

    Holds the state list, their heights, the weighted metric of every pair
    from ``weighted_height_distance`` in units of 1/8 (which needs weights in
    multiples of 1/4), and the glauber kernel's move tables; sums of the
    metric after identity-coupled moves and sweeps over all proposals follow
    from these, for all pairs.
    """

    def __init__(self, n: int, weights: VertexWeights):
        self.n = n
        self.weights = weights
        self.states = enumerate_colorings(Graph.path(n), 3)
        self.heights = heights(self.states)
        self.d2_int = self._metric_table()
        # move_table[s, v, c]: state index after trying color c at 0-based v
        spec = ChainSpec(graph=Graph.path(n), q=3, base="glauber")
        self.move_table = np.stack(_move_tables(spec, self.states), axis=1)

    def _metric_table(self) -> np.ndarray:
        """All-pairs metric in 1/8 units, in row blocks.

        The products run in BLAS; every sum is an integer far below 2^24,
        so float32 holds it exactly.
        """
        w8 = _eighths(self.weights).astype(np.float32)
        H = self.heights.astype(np.float32)
        S, n = H.shape
        out = np.empty((S, S), dtype=np.int32)
        rows = max(1, 2 ** 18 // (S * n))
        for i in range(0, S, rows):
            out[i:i + rows], _ = weighted_height_distance(H[i:i + rows, None, :], H[None], w8)
        return out

    def sweep_sums(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (start, F) for start = n, n - 1, ..., 0, with F[s, t] the
        sum, over the 3^(n-start) proposal vectors, of the metric (1/8
        units) after the identity-coupled sweep over 0-based vertices
        start..n-1 from (s, t); the table of start n is the metric.

        The sweep from ``start`` first tries the shared proposal d at
        ``start``, then sweeps from start+1, so
        F_start[s, t] = sum_d F_(start+1)[M[s, start, d], M[t, start, d]].
        Each table is formed from the one before alone, so a caller that
        consumes them as they come holds two (S, S) tables and a gather.
        """
        M = self.move_table
        F = self.d2_int.astype(np.int64)
        yield self.n, F
        for v in range(self.n - 1, -1, -1):
            nxt = F[np.ix_(M[:, v, 0], M[:, v, 0])]
            for d in (1, 2):
                nxt += F[np.ix_(M[:, v, d], M[:, v, d])]
            F = nxt
            yield v, F


def weighted_metric_contraction_rows(n: int) -> Ledger:
    """Exact identity-coupling checks for the weighted path metric, q = 3.

    - site_break_even: single random-site update from a single-disagreement
      pair under the (1/2, 1, ..., 1, 1/2) weights changes the expected
      metric by exactly zero.
    - sweep_suffix: pairs agreeing right of their rightmost disagreement i,
      sweep from i+1, expected increase <= 1/2 under (1/4, 1, ..., 1, 3/4).
    - sweep_first / sweep_second / sweep_interior / sweep_last:
      single-disagreement pairs swept from vertex 1 end below 1/4, 1, 1, 3/4.

    One all-pairs table holds the sweep-weight metric; the glauber-weight
    metric is read only at the single-disagreement pairs and their 3n
    post-move pairs.  Raises BudgetExceededError when the cells of the table
    (states squared) exceed ``LEDGER_BUDGET``, before enumerating.
    """
    work = (3 * 2 ** (n - 1)) ** 2
    if work > LEDGER_BUDGET:
        raise BudgetExceededError(
            f"{work} pair-table cells exceed budget {LEDGER_BUDGET}"
        )
    sweep = PathMetricTables(n, VertexWeights.scan_q3(n))
    X = np.array(sweep.states)
    S = len(X)

    # single-disagreement (ordered) pairs: the moves that change the state
    M = sweep.move_table
    si, v, c = np.nonzero(M != np.arange(S)[:, None, None])
    ti = M[si, v, c]
    H, w8 = sweep.heights, _eighths(VertexWeights.glauber_q3(n))
    before_site, _ = weighted_height_distance(H[si], H[ti], w8)
    # post-move pairs one vertex at a time: small temporaries
    site_sum = sum(
        weighted_height_distance(H[M[si, u]], H[M[ti, u]], w8)[0].sum(axis=1) for u in range(n)
    )
    # sweep_suffix rows, ordered (s, i, t): the pairs whose last
    # disagreement is at i < n - 1, swept from i + 1.  last[s, t] is that
    # vertex (-1 for s = t); the rows of (s, i) begin at first[s, i].
    last = np.full((S, S), -1, dtype=np.int8)
    for i in range(n):
        last[X[:, i, None] != X[None, :, i]] = i
    count = np.zeros((S, n - 1), dtype=np.int64)
    for i in range(n - 1):
        count[:, i] = (last == i).sum(axis=1)
    first = (np.cumsum(count) - count.ravel()).reshape(count.shape)
    rows = int(count.sum())
    num, scale = np.empty(rows, dtype=np.int64), np.empty(rows, dtype=np.int64)
    for start, F in sweep.sweep_sums():
        if 0 < start < n:
            # the drift num/den - before <= 1/2, den = 3^(n - start); a
            # boolean index reads the pairs s-major, so each (s, i) run of
            # rows lands at first[s, i] on
            at, k = last == start - 1, count[:, start - 1]
            pos = np.repeat(first[:, start - 1] - (np.cumsum(k) - k), k) + np.arange(k.sum())
            den = 3 ** (n - start)
            num[pos] = F[at] - den * sweep.d2_int[at].astype(np.int64)
            scale[pos] = 8 * den
    sweep_sum = F[si, ti]  # F is the table of start 0
    suffix_rows = [np.full(rows, _CODE["sweep_suffix"]), np.arange(rows), num, scale,
                   np.ones(rows, dtype=np.int64), np.full(rows, 2)]
    del num, scale  # from_blocks frees each column once it is joined

    where = [v == 0, v == 1, v == n - 1]
    lemma = np.select(
        where, [_CODE[k] for k in ("sweep_first", "sweep_second", "sweep_last")],
        _CODE["sweep_interior"],
    )
    bound_num = np.select(where, [1, 1, 3], 1)
    bound_den = np.select(where, [4, 1, 4], 1)
    pairs = _slot_block(
        np.ones((len(si), 2), dtype=bool),
        np.stack([np.full(len(si), _CODE["site_break_even"]), lemma], axis=1),
        np.stack([site_sum, sweep_sum], axis=1),
        np.array([3 * n * 8, 3 ** n * 8]),
        np.stack([before_site, bound_num], axis=1),
        np.stack([np.full(len(si), 8), bound_den], axis=1),
    )
    return Ledger.from_blocks(n, 3, [pairs, suffix_rows])


# ---------------------------------------------------------------------------
# Coalescence experiments
# ---------------------------------------------------------------------------

@dataclass
class CouplingStats:
    """Coalescence times, one per replicate; ``apart[r]`` marks a replicate
    still apart at the horizon, whose time is censored there."""

    times: list[int]
    apart: list[bool]
    horizon: int

    @property
    def censored(self) -> int:
        return sum(self.apart)

    @property
    def median(self) -> float:
        return float(np.median(self.times))

    @property
    def mean(self) -> float:
        return float(np.mean(self.times))

    def quantile(self, p: float) -> float:
        return float(np.quantile(self.times, p))


def uniform_proper_colorings(
    n: int, q: int, tape: RandomTape, rep0: int, reps: int, t: int = 0
) -> np.ndarray:
    """Exact uniform samples over proper q-colorings of the path, row r for
    replicate rep0 + r from its ``CH_INIT`` draws at time t, as a (reps, n)
    int64 array.

    Left-to-right construction: first color uniform, each later color
    uniform over the q-1 colors differing from its left neighbor.  The
    replicates advance together, one column at a time.
    """
    U = tape.block(rep0, reps, t, CH_INIT, n)
    out = np.minimum((U * (q - 1)).astype(np.int64), q - 2)
    out[:, 0] = np.minimum((U[:, 0] * q).astype(np.int64), q - 1)
    for left, col in itertools.pairwise(out.T):
        col += col >= left
    return out


def coupling_time(
    spec: ChainSpec,
    kind: str,
    replicates: int,
    tape: RandomTape,
    horizon: Optional[int] = None,
) -> CouplingStats:
    """First-coalescence times of coupled copies from independent uniform starts.

    The starts are uniform proper colorings of the path, so the spec must be
    an unclamped clique model on the path; ``_check_kind_fits`` refuses any
    other before a replicate runs.  Scan kinds count sweeps, glauber kinds
    single-site steps.  Runs that do not coalesce within the horizon are
    recorded at the horizon and counted as censored.

    Replicates advance step by step, ``CHUNK_CELLS // n`` of them (at least
    one) at a time: each step draws one tape block over the span of the
    chunk's replicates still apart and runs one ``coupled_sweep`` per such
    replicate, on its padded list of pair codes.  Every draw is a pure
    function of its coordinates, so the times are those of one replicate
    after another.  Every step reads the step table, so a q whose table
    ``STEP_TABLE_BUDGET`` refuses is refused before any draw.
    """
    if replicates < 1:
        raise ValueError("replicates >= 1 required")
    _check_kind_fits(kind, spec)
    _step_table(spec.q, kind)
    n = spec.graph.n
    if horizon is None:
        scale = n if kind.endswith("glauber") else 1
        horizon = max(64, 64 * scale * (int(math.log2(n)) + 4))
    if horizon < 0:
        raise ValueError(f"horizon {horizon} is negative")
    chunk = max(1, CHUNK_CELLS // n)
    times, apart = [], []
    for r0 in range(0, replicates, chunk):
        steps, still_apart = _chunk_times(spec, kind, tape, r0, min(chunk, replicates - r0), horizon)
        times += steps
        apart += still_apart
    return CouplingStats(times=times, apart=apart, horizon=horizon)


def _chunk_times(
    spec: ChainSpec, kind: str, tape: RandomTape, r0: int, reps: int, horizon: int
) -> tuple[list[int], list[bool]]:
    """Steps run by replicates r0 .. r0 + reps - 1 of ``coupling_time``,
    and whether each is still apart after them."""
    n, q = spec.graph.n, spec.q
    scan = kind.endswith("_scan")
    channel, size = (CH_SCAN, n) if scan else (CH_GLAUBER, 3)
    S, T = (uniform_proper_colorings(n, q, tape, r0, reps, t) for t in (0, 1))
    codes = _pair_codes(S.T, T.T, q, np.int64).T.tolist()
    steps = [0] * reps
    live = np.flatnonzero((S != T).any(axis=1)).tolist()
    for t in range(horizon):
        if not live:
            break
        lo = live[0]
        u = tape.block(r0 + lo, live[-1] + 1 - lo, t, channel, size)
        rows = u if scan else u.tolist()
        for i in live:
            steps[i] = t + 1
        live = [i for i in live if coupled_sweep(codes[i], kind, spec, rows[i - lo])]
    apart = set(live)
    return steps, [i in apart for i in range(reps)]
