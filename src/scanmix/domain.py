"""Graphs, target graphs, colorings, and the path distance metrics.

Conventions
-----------
Vertices of the underlying graph are labeled ``1..n``; a coloring is a plain
tuple indexed ``0..n-1``, so vertex ``v`` carries color ``coloring[v-1]``.
Colors are ints: ``0..q-1`` for clique models, or vertex indices ``0..h-1``
of a target graph.

A proper 3-coloring of the path is equivalently encoded by its successive
color differences mod 3, mapped to signs (+1 for difference 1, -1 for
difference 2).  The map is exactly 3-to-1: the fibers are the cyclic color
shifts.  An integer height profile with unit increments refines the sign
encoding; it is unique up to adding a multiple of 6, and we fix the anchor
``h_1`` as the unique value in ``{0..5}`` with ``h_1`` odd and
``h_1 = coloring[0] (mod 3)``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

Coloring = tuple[int, ...]
SignConfig = tuple[int, ...]
HeightFunction = tuple[int, ...]

DEFAULT_ENUMERATION_BUDGET = 2_000_000


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed the configured state budget."""


class ImproperColoringError(ValueError):
    """Raised when an operation requires a proper path 3-coloring."""


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph on vertices 1..n.

    ``kind`` is "path" when the edge set is exactly {(i, i+1) : 1 <= i < n},
    "general" otherwise.  Instances are immutable and safe to share.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    kind: str = "general"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u}, {v}) leaves 1..{self.n}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))
        if self.kind == "path":
            expected = {(i, i + 1) for i in range(1, self.n)}
            if set(self.edges) != expected:
                raise ValueError("kind='path' requires exactly the path edges")
        elif self.kind != "general":
            raise ValueError(f"unknown graph kind {self.kind!r}")

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph(n, frozenset((i, i + 1) for i in range(1, n)), kind="path")

    @staticmethod
    def star(n: int) -> "Graph":
        """Star with center 1 and leaves 2..n."""
        return Graph(n, frozenset((1, v) for v in range(2, n + 1)))

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        g = Graph(n, frozenset(tuple(e) for e in edges))
        expected = frozenset((i, i + 1) for i in range(1, n))
        if g.edges == expected:
            return Graph(n, expected, kind="path")
        return g

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """adjacency[v] = sorted neighbors of vertex v; index 0 is unused."""
        nbrs: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @property
    def max_degree(self) -> int:
        return max((len(self.adjacency[v]) for v in range(1, self.n + 1)), default=0)

    @property
    def small_n_caveat(self) -> bool:
        """Reports should flag n <= 3 instances (boundary effects dominate)."""
        return self.n <= 3

    def to_text(self) -> str:
        """Edge-list serialization: one 'u v' pair per line."""
        return "\n".join(f"{u} {v}" for u, v in sorted(self.edges))

    @staticmethod
    def from_text(text: str, n: Optional[int] = None) -> "Graph":
        edges = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = map(int, line.split())
            edges.append((u, v))
        if n is None:
            n = max((max(e) for e in edges), default=1)
        return Graph.from_edges(n, edges)


@dataclass(frozen=True)
class TargetGraph:
    """Constraint graph H: colors are its vertices, allowed neighbor pairs its edges.

    Self-loops are allowed.  ``directed=True`` interprets the adjacency matrix
    as arcs; otherwise the matrix must be symmetric.
    """

    adjacency: tuple[tuple[bool, ...], ...]
    directed: bool = False

    def __post_init__(self) -> None:
        h = len(self.adjacency)
        if h < 1 or any(len(row) != h for row in self.adjacency):
            raise ValueError("adjacency must be a square matrix")
        object.__setattr__(
            self, "adjacency", tuple(tuple(bool(x) for x in row) for row in self.adjacency)
        )
        if not self.directed:
            for i in range(h):
                for j in range(h):
                    if self.adjacency[i][j] != self.adjacency[j][i]:
                        raise ValueError("undirected target graph must be symmetric")

    @property
    def h(self) -> int:
        return len(self.adjacency)

    def allows(self, c: int, d: int) -> bool:
        """True iff (c, d) is an edge/arc of H."""
        return self.adjacency[c][d]

    @staticmethod
    def clique(q: int) -> "TargetGraph":
        """K_q without self-loops; the proper q-coloring constraint."""
        return TargetGraph(tuple(tuple(i != j for j in range(q)) for i in range(q)))

    @staticmethod
    def cycle(h: int) -> "TargetGraph":
        return TargetGraph(
            tuple(
                tuple((abs(i - j) % h in (1, h - 1)) and i != j for j in range(h))
                for i in range(h)
            )
        )

    @staticmethod
    def single_edge() -> "TargetGraph":
        return TargetGraph(((False, True), (True, False)))

    @cached_property
    def is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in range(self.h):
                if v not in seen and (self.adjacency[u][v] or self.adjacency[v][u]):
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.h

    @cached_property
    def bipartition(self) -> Optional[tuple[frozenset[int], frozenset[int]]]:
        """(side containing vertex 0, other side) for bipartite undirected H, else None."""
        if self.directed:
            return None
        side = {0: 0}
        stack = [0]
        while stack:
            u = stack.pop()
            if self.adjacency[u][u]:
                return None
            for v in range(self.h):
                if self.adjacency[u][v]:
                    if v not in side:
                        side[v] = 1 - side[u]
                        stack.append(v)
                    elif side[v] == side[u]:
                        return None
        if len(side) != self.h:
            # disconnected: bipartiteness of the whole is not well-anchored
            return None
        s0 = frozenset(v for v, s in side.items() if s == 0)
        return s0, frozenset(range(self.h)) - s0

    @property
    def is_bipartite(self) -> bool:
        return self.bipartition is not None

    def to_text(self) -> str:
        """Adjacency-matrix block of 0/1 rows."""
        return "\n".join("".join("1" if x else "0" for x in row) for row in self.adjacency)

    @staticmethod
    def from_text(text: str, directed: bool = False) -> "TargetGraph":
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(tuple(ch == "1" for ch in line.replace(" ", "")))
        return TargetGraph(tuple(rows), directed=directed)


# ---------------------------------------------------------------------------
# Colorings and enumeration
# ---------------------------------------------------------------------------

def coloring_to_text(coloring: Coloring) -> str:
    """Comma-separated integer serialization."""
    return ",".join(str(c) for c in coloring)


def coloring_from_text(text: str) -> Coloring:
    return tuple(int(x) for x in text.strip().split(","))


PAD = -1  # sentinel at positions 0 and n + 1 of a padded path configuration


def pad(coloring: Coloring) -> list[int]:
    """The coloring as a padded list: vertex v at position v, PAD at 0 and n + 1."""
    return [PAD, *coloring, PAD]


def path_accepts(x, v, c):
    """Metropolis(v) acceptance on a path: no neighbor of v carries c.

    ``x`` is sentinel-padded, so positions v - 1 and v + 1 always exist and a
    missing neighbor never blocks.  The same expression serves a padded list
    with int v and c, and a batch: an array whose first axis is the padded
    position (one column per replicate), or a flat array with flat indices v.
    """
    return (x[v - 1] != c) & (x[v + 1] != c)


def is_proper(g: Graph, q: int, coloring: Coloring) -> bool:
    if len(coloring) != g.n or any(not (0 <= c < q) for c in coloring):
        return False
    return all(coloring[u - 1] != coloring[v - 1] for u, v in g.edges)


def _build_states(g: Graph, allows: np.ndarray, budget: int, first=None) -> list[Coloring]:
    """Colorings of g with allows[color(u), color(v)] on every edge (u, v),
    u < v, and vertex 1 colored from ``first`` (any color by default).

    Grows an (N, v) color array one vertex at a time: each partial coloring is
    extended by every color its earlier neighbours allow, in color order, so
    the rows stay in lexicographic order.  Raises BudgetExceededError as soon
    as one level keeps more than ``budget`` partial colorings.
    """
    h = len(allows)
    X = np.zeros((1, 0), dtype=np.min_scalar_type(h - 1))
    for v in range(1, g.n + 1):
        ok = np.ones((len(X), h), dtype=bool)
        if v == 1 and first is not None:
            ok[0] = np.isin(np.arange(h), list(first))
        for u in g.adjacency[v]:
            if u < v:
                ok &= allows[X[:, u - 1]]
        rows, colors = np.nonzero(ok)
        if len(rows) > budget:
            raise BudgetExceededError(
                f"{len(rows)} colorings of vertices 1..{v} exceed budget {budget}"
            )
        X = np.column_stack([X[rows], colors.astype(X.dtype)])
    # to tuples of ints in blocks, so no list of row lists is held at once
    block = 1 << 12
    return [c for i in range(0, len(X), block) for c in map(tuple, X[i:i + block].tolist())]


def enumerate_colorings(
    g: Graph,
    q: int,
    proper_only: bool = True,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[Coloring]:
    """All q-colorings of g in lexicographic order, optionally proper only.

    Built by ``_build_states`` with the allows matrix ~eye(q) (all ones when
    not proper_only); raises BudgetExceededError when the colorings of some
    prefix 1..v exceed the budget.  On a path the largest level is the last,
    so proper colorings are refused exactly when q(q-1)^(n-1) > budget.
    """
    if q < 2:
        raise ValueError("q >= 2 required")
    allows = ~np.eye(q, dtype=bool) if proper_only else np.ones((q, q), dtype=bool)
    return _build_states(g, allows, budget)


def enumerate_h_colorings(
    g: Graph,
    target: TargetGraph,
    component: str = "all",
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[Coloring]:
    """All homomorphisms g -> H in lexicographic order.

    Built by ``_build_states`` from H's adjacency; directed arcs follow the
    stored (u, v) orientation with u < v, which on a path reads left to
    right.  ``component`` selects a compatibility class for bipartite
    undirected H on a path: "side0"/"side1" keep colorings whose first vertex
    lies on the side of H-vertex 0 / the other side.  Raises
    BudgetExceededError when the colorings of some prefix 1..v exceed the
    budget.
    """
    if component not in ("all", "side0", "side1"):
        raise ValueError(f"unknown component {component!r}")
    first = None
    if component != "all":
        if target.bipartition is None:
            raise ValueError("component selection requires a bipartite target graph")
        if g.kind != "path":
            raise ValueError("component selection is defined for paths only")
        first = target.bipartition[0 if component == "side0" else 1]
    return _build_states(g, np.array(target.adjacency), budget, first)


# ---------------------------------------------------------------------------
# Sign and height encodings (q = 3 paths)
# ---------------------------------------------------------------------------

def _require_proper3(coloring: Coloring) -> None:
    if any(not (0 <= c < 3) for c in coloring):
        raise ImproperColoringError("colors must lie in {0,1,2}")
    if any(a == b for a, b in zip(coloring, coloring[1:])):
        raise ImproperColoringError("coloring is not proper on the path")


def to_signs(coloring: Coloring) -> SignConfig:
    """Successive-difference sign encoding of a proper path 3-coloring.

    signs[i] = +1 iff coloring[i+1] - coloring[i] = 1 (mod 3).
    """
    _require_proper3(coloring)
    return tuple(
        1 if (b - a) % 3 == 1 else -1 for a, b in zip(coloring, coloring[1:])
    )


def from_signs(signs: SignConfig, first_color: int) -> Coloring:
    """Inverse of to_signs given the first vertex color."""
    if not 0 <= first_color < 3:
        raise ValueError("first_color must lie in {0,1,2}")
    out = [first_color]
    for s in signs:
        if s not in (-1, 1):
            raise ValueError("signs must be +-1")
        out.append((out[-1] + (1 if s == 1 else 2)) % 3)
    return tuple(out)


def cyclic_shift(coloring: Coloring, s: int) -> Coloring:
    """Add s to every color mod 3."""
    return tuple((c + s) % 3 for c in coloring)


def height_of(coloring: Coloring) -> HeightFunction:
    """Canonical height profile of a proper path 3-coloring.

    Anchored at the unique h_1 in {0..5} with h_1 odd and h_1 = color mod 3;
    increments equal the sign encoding, so |h_i - h_{i+1}| = 1 along edges
    and h_i = i (mod 2), h_i = coloring[i-1] (mod 3) for every vertex.
    """
    _require_proper3(coloring)
    return tuple(heights(coloring).tolist())


def heights(colorings) -> np.ndarray:
    """``height_of`` for an array of proper path 3-colorings, unchecked.

    The vertex is the last axis.  The anchor (3 - 2c) mod 6 is the odd value
    congruent to c mod 3; a color difference of 1 (mod 3) steps up, 2 down.
    """
    X = np.asarray(colorings, dtype=np.int64)
    steps = np.empty_like(X)
    steps[..., 0] = (3 - 2 * X[..., 0]) % 6
    steps[..., 1:] = 3 - 2 * ((X[..., 1:] - X[..., :-1]) % 3)
    return steps.cumsum(axis=-1)


# ---------------------------------------------------------------------------
# Vertex weights and the two path metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexWeights:
    """Positive rational per-vertex weights used by the weighted path metric."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        ws = tuple(Fraction(w) for w in self.weights)
        if not ws or any(w <= 0 for w in ws):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "weights", ws)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> Fraction:
        return self.weights[i]

    @property
    def w_min(self) -> Fraction:
        return min(self.weights)

    @cached_property
    def denominator(self) -> int:
        """The lcm D of the weights' denominators."""
        return math.lcm(*(w.denominator for w in self.weights))

    @cached_property
    def numerators(self) -> np.ndarray:
        """The weights as integers in units of 1/D, D = ``denominator``."""
        D = self.denominator
        return np.array([w.numerator * (D // w.denominator) for w in self.weights], dtype=np.int64)

    @staticmethod
    def uniform(n: int) -> "VertexWeights":
        return VertexWeights((Fraction(1),) * n)

    @staticmethod
    def glauber_q3(n: int) -> "VertexWeights":
        """Break-even weights for single random-site updates: (1/2, 1, ..., 1, 1/2)."""
        if n < 2:
            raise ValueError("n >= 2 required")
        return VertexWeights(
            (Fraction(1, 2),) + (Fraction(1),) * (n - 2) + (Fraction(1, 2),)
        )

    @staticmethod
    def scan_q3(n: int) -> "VertexWeights":
        """Break-even weights for left-to-right sweeps: (1/4, 1, ..., 1, 3/4)."""
        if n < 2:
            raise ValueError("n >= 2 required")
        return VertexWeights(
            (Fraction(1, 4),) + (Fraction(1),) * (n - 2) + (Fraction(3, 4),)
        )


def d1(sigma: Coloring, tau: Coloring) -> int:
    """Hamming distance between the sign encodings of two proper 3-colorings."""
    if len(sigma) != len(tau):
        raise ValueError("length mismatch")
    return sum(a != b for a, b in zip(to_signs(sigma), to_signs(tau)))


def weighted_height_distance(H, Hstar, w) -> tuple[np.ndarray, np.ndarray]:
    """The weighted height metric of integer height arrays, in the units of w.

    The vertex is the last axis of ``H`` and ``Hstar`` (any leading axes are a
    batch and broadcast); ``w`` holds the weights.  Returns (value, shift):
    min over s in 6Z of sum_i w_i |H_i - H*_i - s| and the smallest
    minimizing s.  Outside the range of the differences the objective is
    strictly monotone, so scanning the multiples of 6 that bracket the range
    in ascending order, keeping strict improvements, finds both.  One shift
    at a time keeps the temporaries at the size of the batch.
    """
    delta = np.asarray(H) - np.asarray(Hstar)
    value = shift = None
    for s in range(6 * (int(delta.min()) // 6), int(delta.max()) + 6, 6):
        val = np.abs(delta - s) @ w
        if value is None:
            value, shift = val, np.full(np.shape(val), s)
        else:
            shift[val < value] = s
            value = np.minimum(value, val)
    return value, shift


def optimal_height_pair(
    sigma: Coloring, tau: Coloring, weights: VertexWeights
) -> tuple[HeightFunction, HeightFunction, Fraction]:
    """Height profiles (h, h*) attaining the weighted height distance.

    Minimizes sum_i weights[i] * |h_i - h*_i| / 2 over the anchor freedom,
    which is exactly a shift of one profile by a multiple of 6; the smallest
    minimizing shift is applied to h*.  ``weighted_height_distance`` computes
    it in units of 1/(2 * weights.denominator).
    """
    if len(sigma) != len(tau) or len(sigma) != len(weights):
        raise ValueError("length mismatch")
    h = height_of(sigma)
    hstar = height_of(tau)
    val, s = weighted_height_distance(h, hstar, weights.numerators)
    return h, tuple(x + int(s) for x in hstar), Fraction(int(val), 2 * weights.denominator)


def d2(sigma: Coloring, tau: Coloring, weights: VertexWeights) -> Fraction:
    """Minimal weighted single-vertex move cost between two proper 3-colorings.

    Equals the minimum over height representatives of
    sum_i weights[i] * |h_i - h*_i| / 2, computed in integers by
    ``weighted_height_distance``; only the returned value is a Fraction.
    """
    return optimal_height_pair(sigma, tau, weights)[2]


def geodesic(
    sigma: Coloring,
    tau: Coloring,
    weights: VertexWeights,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[Coloring]:
    """A minimum-cost single-vertex move path from sigma to tau inside the
    proper colorings, realizing d2; Dijkstra over the weighted move graph,
    with integer costs in units of 1/weights.denominator.  The budget bounds
    the 3 * 2^(n-1) proper colorings the search may visit.

    Returns the state sequence [sigma, ..., tau]; empty moves list when
    sigma == tau (the returned sequence is then just [sigma]).
    """
    n = len(sigma)
    if 3 * 2 ** (n - 1) > budget:
        raise BudgetExceededError(f"3*2**{n - 1} states exceed budget {budget}")
    _require_proper3(sigma)
    _require_proper3(tau)

    target_cost = d2(sigma, tau, weights)
    step = weights.numerators.tolist()
    dist: dict[Coloring, int] = {sigma: 0}
    prev: dict[Coloring, Coloring] = {}
    counter = itertools.count()
    pq: list[tuple[int, int, Coloring]] = [(0, next(counter), sigma)]
    while pq:
        d, _, u = heapq.heappop(pq)
        if u == tau:
            break
        if d > dist[u]:
            continue
        x = pad(u)
        for v in range(1, n + 1):
            for c in range(3):
                if c == x[v] or not path_accepts(x, v, c):
                    continue
                nxt = u[:v - 1] + (c,) + u[v:]
                nd = d + step[v - 1]
                if nxt not in dist or nd < dist[nxt]:
                    dist[nxt] = nd
                    prev[nxt] = u
                    heapq.heappush(pq, (nd, next(counter), nxt))
    if tau not in dist:
        raise RuntimeError("move graph is disconnected; cannot happen on a path")
    cost = Fraction(dist[tau], weights.denominator)
    if cost != target_cost:
        raise AssertionError(f"geodesic cost {cost} does not match metric value {target_cost}")
    path = [tau]
    while path[-1] != sigma:
        path.append(prev[path[-1]])
    path.reverse()
    return path
