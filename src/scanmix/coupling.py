"""Coupled evolutions of two chain copies.

Provides the coupling rules used in the path analyses (identity, the
swap-on-adjacent-disagreement rule for q >= 4, and the two switch couplings
driven by a neighbor's colors), an exact expected-drift oracle (dynamic
programming / exhaustive enumeration over proposal draws, never sampling),
the contraction-bound ledger quantified over canonical color classes, the
variance-floor witnesses for the two q = 3 settings, and empirical
coalescence-time experiments with an exact small-space absorption oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .domain import (
    BudgetExceededError,
    Coloring,
    Graph,
    VertexWeights,
    enumerate_colorings,
    heights,
    optimal_height_pair,
    pad,
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
    metropolis_update,
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
    "switch_glauber_important_neighbor",
)


def transpose_color(c, a, b):
    """Image of c under the transposition (a b); branch-free, so c, a and b
    may be ints or arrays.  a == b is the identity."""
    return c + (c == a) * (b - a) + (c == b) * (a - b)


def partner_proposal(kind: str, v, c, s, t, w=None):
    """Proposal for the second copy at vertex v given c in the first copy.

    ``s`` and ``t`` are the two copies, sentinel-padded and indexed like
    ``path_accepts``: lists with int v, or batches.  identity: same color.
    q4: transpose by the left pair if it disagrees, else by the right pair
    (left is already updated in a sweep, right not yet).  switch_scan:
    transpose by the left pair.  important-neighbor switch: transpose by the
    pair at position ``w`` of s and t, a sentinel position for none.  A
    missing neighbor is an agreeing sentinel pair, which transposes nothing.
    """
    if kind.startswith("identity"):
        return c
    if kind.startswith("q4"):
        left = s[v - 1] != t[v - 1]
        a = s[v + 1] + left * (s[v - 1] - s[v + 1])
        b = t[v + 1] + left * (t[v - 1] - t[v + 1])
    elif kind == "switch_scan":
        a, b = s[v - 1], t[v - 1]
    elif kind == "switch_glauber_important_neighbor":
        a, b = s[w], t[w]
    else:
        raise ValueError(f"unknown coupling kind {kind!r}")
    return transpose_color(c, a, b)


def coupled_update(s, t, v, c, kind: str, w=None, frozen=np.False_) -> None:
    """One coupled Metropolis(v) move on padded batches, in place.

    Copy one tries c, copy two the partner proposal of ``kind`` (``w`` as in
    ``partner_proposal``); a ``frozen`` copy two rejects.  ``s`` and ``t``
    are indexed like ``path_accepts``: int v on position-major arrays, or
    flat indices into flattened (R, n + 2) arrays.
    """
    c2 = partner_proposal(kind, v, c, s, t, w)
    s[v] = np.where(path_accepts(s, v, c), c, s[v])
    t[v] = np.where(path_accepts(t, v, c2) & ~frozen, c2, t[v])


def _coupled_moves(sigma: Coloring, tau: Coloring, kind: str, vertices, props):
    """The pair and its images under K coupled move sequences, as (sig, tau)
    arrays of K + 1 rows, row 0 the pair itself.

    Column k of ``props`` (m, K) is sequence k: copy one tries props[j, k]
    at 1-based vertex vertices[j, k], j = 0..m-1 in order, and copy two
    follows by ``coupled_update``; ``vertices`` is (m, K) or (m, 1).
    """
    rows, width = props.shape[1] + 1, len(sigma) + 2
    # padded rows, flattened; column k moves row k + 1
    s, t = np.array(pad(sigma) * rows), np.array(pad(tau) * rows)
    for f, c in zip(vertices + width * np.arange(1, rows), props):
        coupled_update(s, t, f, c, kind)
    return s.reshape(rows, width)[:, 1:-1], t.reshape(rows, width)[:, 1:-1]


def _check_kind_fits(kind: str, spec: ChainSpec) -> None:
    """The coupling must drive the spec's chain; neighbor-indexed couplings
    assume the path; q4 rules need q >= 4."""
    if kind not in COUPLING_KINDS:
        raise ValueError(f"unknown coupling kind {kind!r}")
    if kind == "switch_glauber_important_neighbor":
        raise ValueError(f"coupling {kind!r} needs a segment layout; lb_experiment runs it")
    if kind.endswith("_scan"):
        fits = spec.base in ("scan", "reverse_scan")
    else:
        fits = spec.base == "glauber" and not spec.lazy
    if not fits:
        chain = ("lazy " if spec.lazy else "") + spec.base
        raise ValueError(f"coupling {kind!r} does not drive the {chain} chain")
    if kind.startswith("identity"):
        return
    if spec.graph.kind != "path":
        raise ValueError(f"coupling {kind!r} is defined on the path only")
    if kind.startswith("q4") and spec.n_colors < 4:
        raise ValueError(f"coupling {kind!r} needs at least 4 colors")


# ---------------------------------------------------------------------------
# Coupled simulation drivers
# ---------------------------------------------------------------------------

def _site_update(spec: ChainSpec):
    """Metropolis(v) on a padded list, in place: the path rule for a clique
    model on the path, ``metropolis_update`` for any other model."""
    if spec.q is not None and spec.graph.kind == "path":
        clamp = spec.clamp

        def update(x: list[int], v: int, c: int) -> None:
            if v not in clamp and path_accepts(x, v, c):
                x[v] = c
    else:
        def update(x: list[int], v: int, c: int) -> None:
            x[v] = metropolis_update(tuple(x[1:-1]), v, c, spec)[v - 1]
    return update


def coupled_scan_sweep(
    sigma: Coloring,
    tau: Coloring,
    kind: str,
    spec_sigma: ChainSpec,
    spec_tau: ChainSpec,
    tape: RandomTape,
    rep: int = 0,
    sweep: int = 0,
) -> tuple[Coloring, Coloring]:
    """One coupled sweep; each copy marginally follows its own chain."""
    _check_kind_fits(kind, spec_sigma)
    q = spec_sigma.n_colors
    u = tape.uniforms(rep, sweep, CH_SCAN, spec_sigma.graph.n)
    s, t = pad(sigma), pad(tau)
    update_s, update_t = _site_update(spec_sigma), _site_update(spec_tau)
    for v in scan_order(spec_sigma):
        c = color_from_uniform(u[v - 1], q)
        c2 = partner_proposal(kind, v, c, s, t)
        update_s(s, v, c)
        update_t(t, v, c2)
    return tuple(s[1:-1]), tuple(t[1:-1])


def coupled_glauber_step(
    sigma: Coloring,
    tau: Coloring,
    kind: str,
    spec_sigma: ChainSpec,
    spec_tau: ChainSpec,
    tape: RandomTape,
    rep: int = 0,
    step: int = 0,
) -> tuple[Coloring, Coloring]:
    """One coupled single-site update (same vertex in both copies).

    Consumes the same draw block as the uncoupled single-site step, so the
    first copy's trajectory coincides with the plain chain under one tape.
    """
    _check_kind_fits(kind, spec_sigma)
    u = tape.uniforms(rep, step, CH_GLAUBER, 3)
    v = vertex_from_uniform(u[1], spec_sigma.graph.n)
    c = color_from_uniform(u[2], spec_sigma.n_colors)
    s, t = pad(sigma), pad(tau)
    c2 = partner_proposal(kind, v, c, s, t)
    _site_update(spec_sigma)(s, v, c)
    _site_update(spec_tau)(t, v, c2)
    return tuple(s[1:-1]), tuple(t[1:-1])


def coupled_sweep(
    sigma: Coloring,
    tau: Coloring,
    kind: str,
    spec: ChainSpec,
    tape: RandomTape,
    rep: int = 0,
    t: int = 0,
) -> tuple[Coloring, Coloring]:
    """Dispatch one coupled sweep (scan kinds) or step (glauber kinds)."""
    if kind.endswith("_scan"):
        return coupled_scan_sweep(sigma, tau, kind, spec, spec, tape, rep, t)
    return coupled_glauber_step(sigma, tau, kind, spec, spec, tape, rep, t)


# ---------------------------------------------------------------------------
# Exact drift: per-pair reference oracle
# ---------------------------------------------------------------------------

@dataclass
class DriftReport:
    """Exact expected metric value after one coupled step or sweep.

    ``expected_after`` is computed by exhaustive enumeration or dynamic
    programming with exact rational probabilities, never by sampling.
    ``bound`` (when given) upper-bounds expected_after; ``lemma_id`` names the
    contraction bound being checked.
    """

    pair: tuple[Coloring, Coloring]
    metric: str
    coupling: str
    start_vertex: int
    before: Fraction
    expected_after: Fraction
    bound: Optional[Fraction] = None
    lemma_id: Optional[str] = None

    @property
    def drift(self) -> Fraction:
        return self.expected_after - self.before

    @property
    def passed(self) -> bool:
        return self.bound is None or self.expected_after <= self.bound


def _pair_metric(sig, tau, metric, weights) -> tuple[np.ndarray, int]:
    """The metric of the pairs (sig[k], tau[k]) of proper colorings as
    integers over one denominator: (numerators, denominator).  d2 counts
    units of 1/(2 * weights.denominator)."""
    if metric == "hamming":
        return (np.asarray(sig) != np.asarray(tau)).sum(axis=-1), 1
    if metric == "d2":
        value, _ = weighted_height_distance(heights(sig), heights(tau), weights.numerators)
        return value, 2 * weights.denominator
    raise ValueError(f"unknown metric {metric!r}")


def exact_drift(
    sigma: Coloring,
    tau: Coloring,
    coupling: str,
    metric: str,
    q: int,
    start_vertex: int = 1,
    weights: Optional[VertexWeights] = None,
    bound: Optional[Fraction] = None,
    lemma_id: Optional[str] = None,
) -> DriftReport:
    """Exact expected metric after one coupled sweep (scan kinds) or one
    coupled single-site update (glauber kinds) on the path.

    Scan drift with the Hamming metric runs a dynamic program over the joint
    color pair at the frontier vertex (the joint process is Markov there);
    other combinations enumerate the q^k proposal draws directly.
    """
    if coupling == "switch_glauber_important_neighbor":
        raise ValueError("the important-neighbor coupling needs a segment layout")
    n = len(sigma)
    if coupling.endswith("glauber"):
        v, c = np.divmod(np.arange(n * q), q)  # one single-site move per (v, c)
        pairs = _coupled_moves(sigma, tau, coupling, v[None] + 1, c[None])
    elif metric == "hamming":
        pairs = np.array([sigma]), np.array([tau])
    else:
        m = n - start_vertex + 1  # one sweep per proposal vector
        props = np.indices((q,) * m).reshape(m, q ** m)
        pairs = _coupled_moves(sigma, tau, coupling, np.arange(start_vertex, n + 1)[:, None], props)
    values, den = _pair_metric(*pairs, metric, weights)
    before = Fraction(int(values[0]), den)
    if len(values) > 1:
        expected = Fraction(int(values[1:].sum()), den * (len(values) - 1))
    else:
        num, scale = _ham_batch_drift(*pairs, start_vertex - 1, q, coupling)
        expected = Fraction(int(num[0]), scale)
    return DriftReport(
        pair=(sigma, tau),
        metric=metric,
        coupling=coupling,
        start_vertex=start_vertex,
        before=before,
        expected_after=expected,
        bound=bound,
        lemma_id=lemma_id,
    )


# ---------------------------------------------------------------------------
# Exact drift: vectorized Hamming DP over class batches
# ---------------------------------------------------------------------------

@functools.cache
def _step_table(q: int, coupling: str) -> np.ndarray:
    """Joint pair after one coupled vertex update, for every local situation.

    Pairs (a, b) of the two copies' colors are indexed a * (q + 1) + b, with
    color q standing for a missing neighbor.  Row (right * q^2 + old) * L +
    left, column c holds the pair at the vertex after copy one proposes c,
    where ``left`` is the updated left neighbor pair, ``right`` the old right
    neighbor pair, ``old`` the vertex's own pair and L = (q + 1)^2.  Built on
    first use and cached per (q, coupling).
    """
    q1, L = q + 1, (q + 1) ** 2
    pa, pb = np.divmod(np.arange(L), q1)
    oa, ob = np.divmod(np.arange(q * q), q)
    ra, oa, la, c = np.ix_(pa, oa, pa, np.arange(q))
    rb, ob, lb, _ = np.ix_(pb, ob, pb, np.arange(q))
    # the engine's rules on the padded window (left, vertex, right)
    s, t = (la, oa, ra), (lb, ob, rb)
    partner = partner_proposal(coupling, 1, c, s, t)
    a = np.where(path_accepts(s, 1, c), c, oa)
    b = np.where(path_accepts(t, 1, partner), partner, ob)
    table = (a * q1 + b).reshape(-1, q)
    table.flags.writeable = False
    return table


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
    a, b = np.divmod(_step_table(q, "switch_scan").reshape(L, q * q, L, q), q1)
    pa, pb = np.divmod(np.arange(L), q1)
    oa, ob = np.divmod(np.arange(q * q), q)
    differs = pa != pb
    # axes (right pair, old pair, left pair, c)
    created = (a != b) & (oa == ob)[:, None, None]
    option_b = differs[:, None] & (np.arange(q) == pb[:, None])
    return not (created & ~(differs[:, None, None, None] | option_b)).any()


def _ham_batch_drift(
    sig: np.ndarray, tau: np.ndarray, start: int, q: int, coupling: str = "q4_scan"
) -> tuple[np.ndarray, int]:
    """Exact scaled E[Hamming] after one coupled sweep from 0-based ``start``.

    ``sig``, ``tau``: (C, n) integer arrays of full copy colorings; returns
    (numerators, scale) with expectation numerators[i] / scale per row.
    The DP state is the joint color pair at the previously updated vertex;
    counts are integers at scale q^(number of scanned vertices).  Each
    vertex is one gather from ``_step_table`` and one bincount.
    """
    if coupling not in ("q4_scan", "identity_scan", "switch_scan"):
        raise ValueError(f"no Hamming DP for coupling {coupling!r}")
    sig = np.asarray(sig, dtype=np.int64)
    tau = np.asarray(tau, dtype=np.int64)
    C, n = sig.shape
    scale = q ** (n - start)
    if scale >= 2 ** 53:
        raise ValueError("counts beyond 2^53 are not exact in the DP")
    q1, L = q + 1, (q + 1) ** 2
    table = _step_table(q, coupling)
    pad = np.full((C, 1), q)
    right = np.hstack([sig[:, 1:], pad]) * q1 + np.hstack([tau[:, 1:], pad])
    rows_at = (right * q * q + sig * q + tau) * L
    a, b = np.divmod(np.arange(L), q1)
    off_diag = (a != b) & (a < q) & (b < q)

    dist = np.zeros((C, L))        # counts, exact in float64 below 2^53
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


# ---------------------------------------------------------------------------
# Canonical color classes (orbits under global color permutation)
# ---------------------------------------------------------------------------

def _restricted_growth_array(length: int, q: int) -> np.ndarray:
    """Restricted-growth strings of ``length`` over q colors, in lexicographic
    order, as rows of an int64 array (see ``restricted_growth_tuples``)."""
    out = np.zeros((1, 0), dtype=np.int64)
    top = np.full(1, -1)
    for _ in range(length):
        kids = np.minimum(top + 1, q - 1) + 1
        parent = np.repeat(np.arange(len(out)), kids)
        c = np.arange(len(parent)) - np.repeat(np.cumsum(kids) - kids, kids)
        out = np.column_stack([out[parent], c])
        top = np.maximum(top[parent], c)
    return out


def restricted_growth_tuples(length: int, q: int) -> list[tuple[int, ...]]:
    """One representative per orbit of q-ary tuples under color permutation.

    Representatives are the restricted-growth strings: each entry is at most
    one larger than the running maximum (first occurrences appear in order),
    capped at q - 1.  The coupled dynamics and the Hamming metric are
    equivariant under global color relabeling, so drifts are class functions.
    """
    return [tuple(r) for r in _restricted_growth_array(length, q).tolist()]


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
    sig = reps[:, :length]
    tau = sig.copy()
    tau[:, positions] = reps[:, length:]
    keep = (tau[:, positions] != sig[:, positions]).all(axis=1)
    return sig[keep], tau[keep]


def _s_pair_classes(n: int, q: int) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Canonical single-disagreement pairs, grouped by disagreement position.

    Returns one (sig, tau, i) batch per 0-based position i, with sig/tau of
    shape (C, n); all single-disagreement pairs over all colorings arise from
    these by color permutation.
    """
    return [(*_disagreement_classes(n, q, [i]), i) for i in range(n)]


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
# n <= 9 for q = 4, 5 and n <= 10 for q = 3, each within about 0.6 GB.
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
    def from_blocks(cls, n: int, q: int, blocks) -> "Ledger":
        cols = [np.concatenate(col) for col in zip(*blocks)]
        lemma, _, num, scale, bound_num, bound_den = cols
        lhs, rhs = num * bound_den, bound_num * scale
        passed = np.where(lemma == _CODE["site_break_even"], lhs == rhs, lhs <= rhs)
        return cls(n, q, *cols, passed)

    def __len__(self) -> int:
        return len(self.lemma)

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


def _slot_block(mask, lemma, num, scale, bound_num, bound_den) -> tuple[np.ndarray, ...]:
    """Ledger columns for the true cells of ``mask`` (pairs x slots), in
    pair-major order; the other arguments broadcast to its shape."""
    pair, slot = np.nonzero(mask)
    lemma, *values = (
        np.asarray(c, dtype=np.int64)[pair, slot]
        for c in np.broadcast_arrays(mask, lemma, num, scale, bound_num, bound_den)[1:]
    )
    return (lemma, pair, *values)


def _single_site_block(sig: np.ndarray, tau: np.ndarray, i: int, q: int) -> tuple:
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
    raises ValueError.  Raises BudgetExceededError when canonical classes
    times vertices exceed ``LEDGER_BUDGET``, before enumerating.
    """
    if q < 3:
        raise ValueError("the Hamming ledger needs q >= 3")
    work = _class_count(n + 2, q) * n
    if work > LEDGER_BUDGET:
        raise BudgetExceededError(
            f"{work} class-vertex cells exceed budget {LEDGER_BUDGET}"
        )
    blocks = [_single_site_block(sig, tau, i, q) for sig, tau, i in _s_pair_classes(n, q)]
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

    def site_sums(self, si: np.ndarray, ti: np.ndarray) -> np.ndarray:
        """Sum over the 3n single-site draws of the metric after the
        identity-coupled update of pairs (si, ti), in 1/8 units."""
        M = self.move_table
        after = self.d2_int[M[si].reshape(len(si), -1), M[ti].reshape(len(ti), -1)]
        return after.sum(axis=1, dtype=np.int64)

    def sweep_sums(self) -> list[np.ndarray]:
        """F with F[start][s, t] the sum, over the 3^(n-start) proposal
        vectors, of the metric (1/8 units) after the identity-coupled sweep
        over 0-based vertices start..n-1 from (s, t); F[n] is the metric.

        The sweep from ``start`` first tries the shared proposal d at
        ``start``, then sweeps from start+1, so
        F[start][s, t] = sum_d F[start+1][M[s, start, d], M[t, start, d]].
        """
        M = self.move_table
        F = [self.d2_int.astype(np.int64)]
        for v in range(self.n - 1, -1, -1):
            F.append(sum(F[-1][np.ix_(M[:, v, d], M[:, v, d])] for d in range(3)))
        return F[::-1]


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
    # sweep_suffix pairs, ordered (s, i, t): agree right of i, differ at i
    eq = X[:, None, :] == X[None, :, :]
    agree_from = np.logical_and.accumulate(eq[..., ::-1], axis=-1)[..., ::-1]
    suffix = agree_from[..., 1:] & ~eq[..., :-1]         # (s, t, i)
    s2, i2, t2 = np.nonzero(suffix.transpose(0, 2, 1))

    F = sweep.sweep_sums()
    suffix_sum = np.empty(len(s2), dtype=np.int64)
    for i in range(n - 1):
        sel = i2 == i
        suffix_sum[sel] = F[i + 1][s2[sel], t2[sel]]
    sweep_sum = F[0][si, ti]

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
    # sweep_suffix: the drift num/den - before <= 1/2, den = 3^(n-i-1)
    den = 3 ** (n - 1 - i2)
    before = sweep.d2_int[s2, t2].astype(np.int64)
    suffix_rows = _slot_block(
        np.ones((len(s2), 1), dtype=bool), _CODE["sweep_suffix"],
        (suffix_sum - den * before)[:, None], (8 * den)[:, None], 1, 2,
    )
    return Ledger.from_blocks(n, 3, [pairs, suffix_rows])


def supermartingale_rows(n: int, chain: str) -> tuple[Fraction, int]:
    """Worst exact one-step identity-coupling drift over all ordered pairs.

    chain='glauber' pairs the (1/2,...,1/2) weights with single-site updates;
    chain='scan' pairs the (1/4,...,3/4) weights with full sweeps.  Returns
    (max drift, number of pairs); the path-coupling break-even property says
    the max is <= 0.
    """
    weights = (
        VertexWeights.glauber_q3(n) if chain == "glauber" else VertexWeights.scan_q3(n)
    )
    tables = PathMetricTables(n, weights)
    S = len(tables.states)
    si, ti = np.nonzero(~np.eye(S, dtype=bool))
    if chain == "glauber":
        after, den = tables.site_sums(si, ti), 3 * n
    else:
        after, den = tables.sweep_sums()[0][si, ti], 3 ** n
    drift = after - den * tables.d2_int[si, ti].astype(np.int64)
    return Fraction(int(drift.max()), 8 * den), len(si)


# ---------------------------------------------------------------------------
# Variance-floor witnesses (q = 3)
# ---------------------------------------------------------------------------

@dataclass
class SiteWitness:
    """A (vertex, color) choice that contracts the weighted metric.

    Trying ``color`` at ``vertex`` (1-based) in both copies lowers the metric
    by at least ``guaranteed_drop``; the single-site chain picks this choice
    with probability 1/(3n), which yields the squared-increment floor
    guaranteed_drop^2 / (3n).
    """

    vertex: int
    color: int
    guaranteed_drop: Fraction
    achieved_drop: Fraction


@dataclass
class SweepWitness:
    """Freeze-window witness giving the sweep a conditional variance floor.

    Conditioned on the freeze color ``c_left`` being drawn at vertex z-1 and
    ``c_right[c]`` at vertex z+1 (whatever color c the sweep draws at z), the
    rest of the sweep is independent of c and, for every realization, some
    choice of c moves the metric by at least w/2 in absolute value.  The
    freeze color ``c_freeze`` keeps z unchanged in both copies.
    """

    vertex: int
    c_left: Optional[int]
    c_right: Optional[tuple[int, int, int]]
    c_freeze: int
    event_probability: Fraction
    min_shift: Fraction


def _unused_window_color(coloring: Coloring, z: int) -> Optional[int]:
    n = len(coloring)
    used = {coloring[z]} | {coloring[j] for j in (z - 1, z + 1) if 0 <= j < n}
    free = [c for c in range(3) if c not in used]
    return free[0] if free else None


def _is_local_max(h: Sequence[int], v: int) -> bool:
    return all(h[u] < h[v] for u in (v - 1, v + 1) if 0 <= u < len(h))


def _drop_choice(sigma: Coloring, tau: Coloring, weights: VertexWeights):
    """(z, color) from the height case analysis; drop >= weights[z] guaranteed.

    Works on an optimal height pair (h, h*): on the region R where h - h*
    is maximal, a local maximum of h (or, symmetrically, a minimum of h*) can
    be pushed toward the other profile by trying the window's unused color in
    both copies.  When h <= h* everywhere the roles swap.
    """
    h, hstar, _ = optimal_height_pair(sigma, tau, weights)
    n = len(sigma)
    m = max(a - b for a, b in zip(h, hstar))
    if m <= 0:
        return _drop_choice(tau, sigma, weights)
    R = {v for v in range(n) if h[v] - hstar[v] == m}
    if len(R) == n:
        z = next(v for v in range(n) if _is_local_max(h, v))
        return z, _unused_window_color(sigma, z)
    for z in sorted(R):
        nbrs = [u for u in (z - 1, z + 1) if 0 <= u < n]
        if all(u not in R for u in nbrs):
            return z, _unused_window_color(sigma, z)
    for z in sorted(R):
        nbrs = [u for u in (z - 1, z + 1) if 0 <= u < n]
        in_r = [u for u in nbrs if u in R]
        out_r = [u for u in nbrs if u not in R]
        if in_r and out_r:
            if h[in_r[0]] < h[z]:
                return z, _unused_window_color(sigma, z)
            return z, _unused_window_color(tau, z)
    raise AssertionError("height case analysis matched no case")


def site_variance_witness(
    sigma: Coloring, tau: Coloring, weights: Optional[VertexWeights] = None
) -> SiteWitness:
    """Verified single-site variance witness for an unequal proper pair."""
    if sigma == tau:
        raise ValueError("pair must be unequal")
    n = len(sigma)
    weights = weights if weights is not None else VertexWeights.glauber_q3(n)
    tries = [(z, c) for z in range(n) for c in range(3)]
    z, c = np.divmod(np.arange(3 * n), 3)
    pairs = _coupled_moves(sigma, tau, "identity_glauber", z[None] + 1, c[None])
    values, den = _pair_metric(*pairs, "d2", weights)
    drop = dict(zip(tries, (values[0] - values[1:]).tolist()))
    w = 2 * int(weights.numerators.min())  # w_min in units of 1/den
    # the case analysis's choice first; an exhaustive search backs it up,
    # and reaching it means the primary construction missed
    for z, c in [_drop_choice(sigma, tau, weights), *tries]:
        if c is not None and drop[z, c] >= w:
            return SiteWitness(z + 1, c, weights.w_min, Fraction(drop[z, c], den))
    raise AssertionError(f"no variance witness for pair {sigma} / {tau}")


def _freeze_colors(cur1: int, cur2: int, nb1: set[int], nb2: set[int]) -> list[int]:
    """Colors whose trial changes neither copy (current color or a neighbor's)."""
    return sorted(({cur1} | nb1) & ({cur2} | nb2))


def _verify_sweep_witness(
    sigma: Coloring,
    tau: Coloring,
    weights: VertexWeights,
    z: int,
    c_left: Optional[int],
    c_right: Optional[tuple[int, int, int]],
) -> Optional[Fraction]:
    """Minimal |metric shift| over all free draws, maximized over the z color.

    Returns None when some realization admits no color at z shifting the
    metric by at least w/2; otherwise the worst-case achieved shift.
    """
    n = len(sigma)
    free = [v for v in range(n) if v not in (z - 1, z, z + 1)]
    # draws[k, cz, v]: the color tried at 0-based v in the realization with
    # free draws k and z color cz; one padded batch column per realization
    draws = np.empty((3 ** len(free), 3, n), dtype=np.int64)
    draws[:, :, free] = np.array(list(itertools.product(range(3), repeat=len(free))))[:, None]
    draws[:, :, z] = np.arange(3)
    if z > 0:
        draws[:, :, z - 1] = c_left
    if z < n - 1:
        draws[:, :, z + 1] = c_right
    pairs = _coupled_moves(
        sigma, tau, "identity_scan", np.arange(1, n + 1)[:, None], draws.reshape(-1, n).T
    )
    values, den = _pair_metric(*pairs, "d2", weights)
    shift = np.abs(values[1:] - values[0]).reshape(-1, 3)
    # each realization takes its first z color shifting by w/2 or more
    ok = shift >= weights.numerators.min()
    if not ok.any(axis=1).all():
        return None
    return Fraction(int(shift[np.arange(len(shift)), ok.argmax(axis=1)].min()), den)


def sweep_variance_witness(
    sigma: Coloring, tau: Coloring, weights: Optional[VertexWeights] = None
) -> SweepWitness:
    """Verified sweep variance witness for an unequal proper pair.

    Construction: take the single-site drop choice (z, C); freeze z-1 with a
    shared color of both windows and z+1 with a per-color freeze choice, so
    that conditioned on those draws the z color can be chosen after the rest
    of the sweep.  Every realization then admits a z color shifting the
    metric by at least w/2: either freezing z (the shift already happened)
    or applying the drop color.  When the first-choice freeze colors fail
    the exhaustive verification, the remaining freeze-color combinations and
    window positions are searched; a pair with no verifiable witness raises.
    """
    if sigma == tau:
        raise ValueError("pair must be unequal")
    n = len(sigma)
    weights = weights if weights is not None else VertexWeights.scan_q3(n)

    def candidates_at(z: int):
        lefts: list[Optional[int]] = [None]
        if z > 0:
            lefts = _freeze_colors(sigma[z - 1], tau[z - 1], {sigma[z]}, {tau[z]})
        rights: list[Optional[tuple[int, int, int]]] = [None]
        if z < n - 1:
            after_s, after_t = _coupled_moves(
                sigma, tau, "identity_glauber", np.array([[z + 1]]), np.arange(3)[None]
            )
            per_c = [
                _freeze_colors(sigma[z + 1], tau[z + 1], {a}, {b})
                for a, b in zip(after_s[1:, z].tolist(), after_t[1:, z].tolist())
            ]
            rights = list(itertools.product(*per_c))
        return lefts, rights

    def freeze_color(z: int) -> int:
        nb1 = {sigma[j] for j in (z - 1, z + 1) if 0 <= j < n}
        nb2 = {tau[j] for j in (z - 1, z + 1) if 0 <= j < n}
        return _freeze_colors(sigma[z], tau[z], nb1, nb2)[0]

    z0, _ = _drop_choice(sigma, tau, weights)
    order = [z0] + [z for z in range(n) if z != z0]
    for z in order:
        lefts, rights = candidates_at(z)
        for c_left in lefts:
            for c_right in rights:
                shift = _verify_sweep_witness(sigma, tau, weights, z, c_left, c_right)
                if shift is not None:
                    return SweepWitness(
                        vertex=z + 1,
                        c_left=c_left,
                        c_right=c_right,
                        c_freeze=freeze_color(z),
                        event_probability=Fraction(1, 3 if z in (0, n - 1) else 9),
                        min_shift=shift,
                    )
    raise AssertionError(f"no sweep variance witness for pair {sigma} / {tau}")


def variance_floor_witness(sigma: Coloring, tau: Coloring, setting: str):
    """Dispatch on the two q = 3 settings.

    'glauber_q3' returns a SiteWitness under the (1/2, ..., 1/2) weights
    (floor w^2/(3n) per step); 'scan_q3' a SweepWitness under the
    (1/4, ..., 3/4) weights (floor from the 1/27-probability event).
    """
    if setting == "glauber_q3":
        return site_variance_witness(sigma, tau)
    if setting == "scan_q3":
        return sweep_variance_witness(sigma, tau)
    raise ValueError(f"unknown setting {setting!r}")


# ---------------------------------------------------------------------------
# Coalescence experiments
# ---------------------------------------------------------------------------

@dataclass
class CouplingStats:
    times: list[int]
    censored: int
    horizon: int

    @property
    def median(self) -> float:
        return float(np.median(self.times))

    @property
    def mean(self) -> float:
        return float(np.mean(self.times))

    def quantile(self, p: float) -> float:
        return float(np.quantile(self.times, p))


def uniform_proper_coloring(
    n: int, q: int, tape: RandomTape, rep: int, t: int = 0
) -> Coloring:
    """Exact uniform sample over proper q-colorings of the path.

    Left-to-right construction: first color uniform, each later color
    uniform over the q-1 colors differing from its left neighbor.
    """
    u = tape.uniforms(rep, t, CH_INIT, n)
    out = [color_from_uniform(u[0], q)]
    for i in range(1, n):
        x = color_from_uniform(u[i], q - 1)
        out.append(x + (x >= out[-1]))
    return tuple(out)


def coupling_time(
    spec: ChainSpec,
    kind: str,
    replicates: int,
    tape: RandomTape,
    horizon: Optional[int] = None,
) -> CouplingStats:
    """First-coalescence times of coupled copies from independent uniform starts.

    Scan kinds count sweeps, glauber kinds single-site steps.  Runs that do
    not coalesce within the horizon are recorded at the horizon and counted
    as censored.
    """
    if replicates < 1:
        raise ValueError("replicates >= 1 required")
    _check_kind_fits(kind, spec)
    n, q = spec.graph.n, spec.n_colors
    if horizon is None:
        scale = n if kind.endswith("glauber") else 1
        horizon = max(64, 64 * scale * (int(math.log2(n)) + 4))
    times: list[int] = []
    censored = 0
    for r in range(replicates):
        sigma = uniform_proper_coloring(n, q, tape, r, 0)
        tau = uniform_proper_coloring(n, q, tape, r, 1)
        t = 0
        while sigma != tau and t < horizon:
            sigma, tau = coupled_sweep(sigma, tau, kind, spec, tape, r, t)
            t += 1
        if sigma != tau:
            censored += 1
        times.append(t)
    return CouplingStats(times=times, censored=censored, horizon=horizon)


def expected_coalescence_exact(spec: ChainSpec, kind: str = "identity_glauber"):
    """Expected coalescence times from every ordered pair, via the joint kernel.

    Builds the coupled transition matrix on pairs of proper colorings with
    the diagonal absorbing and solves the first-passage linear system.
    Returns (pairs, expected_times) aligned by index.  The spec must be the
    chain that coupling drives: plain single-site glauber on a clique model,
    neither lazy nor clamped.
    """
    if kind != "identity_glauber":
        raise ValueError("exact absorption oracle implemented for identity_glauber")
    if spec.q is None or spec.base != "glauber" or spec.lazy or spec.clamp:
        raise ValueError(
            f"identity_glauber drives plain glauber on q colors, not {spec.describe()}"
        )
    n, q = spec.graph.n, spec.n_colors
    states = enumerate_colorings(spec.graph, q)
    S = len(states)
    pairs = [(a, b) for a in states for b in states]
    size = len(pairs)
    # pair (a, b) is index a * S + b; each row adds its moves in (v, c) order
    a, b = np.divmod(np.arange(size), S)
    P = np.diag((a == b) * 1.0)  # equal pairs absorb
    transient = np.flatnonzero(a != b)
    a, b = a[transient], b[transient]
    for J in _move_tables(spec, states):
        for c in range(q):
            P[transient, J[a, c] * S + J[b, c]] += 1.0 / (n * q)
    Q = P[np.ix_(transient, transient)]
    t = np.linalg.solve(np.eye(len(transient)) - Q, np.ones(len(transient)))
    expected = np.zeros(size)
    expected[transient] = t
    return pairs, expected
