"""Graphs, target graphs, colorings, and the weighted path metric.

Conventions
-----------
Vertices of the underlying graph are labeled ``1..n``; a coloring is a plain
tuple indexed ``0..n-1``, so vertex ``v`` carries color ``coloring[v-1]``.
Colors are ints: ``0..q-1`` for clique models, or vertex indices ``0..h-1``
of a target graph.

A proper 3-coloring of the path has an integer height profile with unit
increments: +1 where the color steps up by 1 (mod 3), -1 where it steps
down.  It is unique up to adding a multiple of 6, and we fix the anchor
``h_1`` as the unique value in ``{0..5}`` with ``h_1`` odd and
``h_1 = coloring[0] (mod 3)``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Optional

import numpy as np

Coloring = tuple[int, ...]

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

    Instances are immutable and safe to share.
    """

    n: int
    edges: frozenset[tuple[int, int]]

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

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph(n, frozenset((i, i + 1) for i in range(1, n)))

    @cached_property
    def kind(self) -> str:
        """The graph's kind: "path" when the edge set is exactly
        {(i, i+1) : 1 <= i < n}, "general" otherwise."""
        return "path" if self.edges == {(i, i + 1) for i in range(1, self.n)} else "general"

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
        return Graph(n, edges)


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

    @cached_property
    def allows_matrix(self) -> np.ndarray:
        """``adjacency`` as a read-only boolean array, built once: the allows
        matrix that ``accepted_colors`` and ``_build_states`` read."""
        out = np.array(self.adjacency, dtype=bool)
        out.flags.writeable = False
        return out

    def allows(self, c: int, d: int) -> bool:
        """True iff (c, d) is an edge/arc of H."""
        return self.adjacency[c][d]

    @staticmethod
    def clique(q: int) -> "TargetGraph":
        """K_q without self-loops; the proper q-coloring constraint."""
        return TargetGraph(tuple(tuple(i != j for j in range(q)) for i in range(q)))

    def parity_bfs(self, a: int) -> dict[tuple[int, int], Optional[tuple[int, int]]]:
        """Breadth-first search of H's parity double cover from (a, 0).

        Pairs are (color, parity of a walk's length from a); H is read in
        either direction and colors are tried in increasing order.  Returns
        each reached pair's predecessor (None at the start), in discovery
        order.  A pair at distance d is only discovered from pairs at
        distance d - 1, so the first pair of each color comes in the order of
        a plain breadth-first search of H, with the same predecessors.
        """
        adj, h = self.adjacency, self.h
        near = [[v for v in range(h) if adj[u][v] or adj[v][u]] for u in range(h)]
        prev: dict[tuple[int, int], Optional[tuple[int, int]]] = {(a, 0): None}
        queue = deque(prev)
        while queue:
            pair = u, parity = queue.popleft()
            for v in near[u]:
                if (v, 1 - parity) not in prev:
                    prev[v, 1 - parity] = pair
                    queue.append((v, 1 - parity))
        return prev

    @staticmethod
    def walk(prev: dict, end: tuple[int, int]) -> list[int]:
        """Colors of the walk that ``parity_bfs`` found from its start to ``end``."""
        walk = []
        while end is not None:
            walk.append(end[0])
            end = prev[end]
        return walk[::-1]

    @cached_property
    def is_connected(self) -> bool:
        return len({v for v, _ in self.parity_bfs(0)}) == self.h

    @cached_property
    def bipartition(self) -> Optional[tuple[frozenset[int], frozenset[int]]]:
        """(side containing vertex 0, other side) for bipartite undirected H, else None.

        H is bipartite when it is connected and ``parity_bfs`` reaches no
        color at both parities; the side of a color is its parity."""
        reached = self.parity_bfs(0)
        if self.directed or not self.is_connected or len(reached) != self.h:
            return None
        s0 = frozenset(v for v, parity in reached if parity == 0)
        return s0, frozenset(range(self.h)) - s0

    @property
    def is_bipartite(self) -> bool:
        return self.bipartition is not None

    @staticmethod
    def from_text(text: str, directed: bool = False) -> "TargetGraph":
        """H from rows of 0/1 entries, whitespace ignored; any other
        character raises ValueError naming its line."""
        rows = []
        for k, line in enumerate(text.splitlines(), 1):
            row = "".join(line.split())
            if not row or row.startswith("#"):
                continue
            if set(row) - {"0", "1"}:
                raise ValueError(f"H line {k} holds more than 0, 1 and whitespace: {line!r}")
            rows.append(tuple(ch == "1" for ch in row))
        return TargetGraph(tuple(rows), directed=directed)


# ---------------------------------------------------------------------------
# Colorings and enumeration
# ---------------------------------------------------------------------------

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


def accepted_colors(g: Graph, allows: np.ndarray, x, v: int) -> np.ndarray:
    """Metropolis(v) acceptance: the (..., h) mask of the colors c vertex v
    may take beside the neighbours that ``x`` colors, the vertex its last
    axis.  One coloring, a batch, or a prefix of vertices 1..k (neighbours
    beyond k are not read).  An earlier neighbour u < v must allow
    (color[u], c) in the boolean matrix ``allows``, a later one (c, color[u]);
    for a clique or an undirected H it is symmetric."""
    x = np.asarray(x)
    ok = np.ones(x.shape[:-1] + (len(allows),), dtype=bool)
    for u in g.adjacency[v]:
        if u <= x.shape[-1]:
            ok &= (allows if u < v else allows.T)[x[..., u - 1]]
    return ok


def _build_states(g: Graph, allows: np.ndarray, budget: int, palette) -> list[Coloring]:
    """Colorings of g with allows[color(u), color(v)] on every edge (u, v),
    u < v, and each vertex v colored from the true entries of the boolean
    row palette[v - 1].

    Grows an (N, v) color array one vertex at a time: each partial coloring is
    extended by every color its row and ``accepted_colors`` allow, in color
    order, so the rows stay in lexicographic order.  Raises
    BudgetExceededError as soon as one level keeps more than ``budget``
    partial colorings; the palette prunes every level, so a restricted space
    is budgeted by its own prefixes, not by the whole space's.  One reverse
    pass first drops each color of a vertex that some later neighbour's
    palette cannot follow, so a level keeps no prefix that a later palette
    already rules out; the colorings returned are the same.
    """
    h = len(allows)
    palette = np.array(palette, dtype=bool)
    for v in range(g.n, 0, -1):
        for u in g.adjacency[v]:
            if u > v:
                palette[v - 1] &= (allows & palette[u - 1]).any(axis=1)
    X = np.zeros((1, 0), dtype=np.min_scalar_type(h - 1))
    for v in range(1, g.n + 1):
        rows, colors = np.nonzero(accepted_colors(g, allows, X, v) & palette[v - 1])
        if len(rows) > budget:
            raise BudgetExceededError(
                f"{len(rows)} colorings of vertices 1..{v} exceed budget {budget}"
            )
        X = np.column_stack([X[rows], colors.astype(X.dtype)])
    # to tuples of ints in blocks, so no list of row lists is held at once
    block = 1 << 12
    return [c for i in range(0, len(X), block) for c in map(tuple, X[i:i + block].tolist())]


def enumerate_colorings(
    g: Graph, q: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> list[Coloring]:
    """All proper q-colorings of g in lexicographic order.

    Built by ``_build_states`` with the allows matrix ~eye(q) and every
    color at every vertex; raises BudgetExceededError when the colorings of
    some prefix 1..v exceed the budget.  On a path the largest level is the
    last, so they are refused exactly when q(q-1)^(n-1) > budget.
    """
    if q < 2:
        raise ValueError("q >= 2 required")
    return _build_states(g, ~np.eye(q, dtype=bool), budget, np.ones((g.n, q), dtype=bool))


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
    palette = _component_palette(g, target, component)
    return _build_states(g, target.allows_matrix, budget, palette)


def _component_palette(g: Graph, target: TargetGraph, component: str) -> np.ndarray:
    """The ``_build_states`` palette of a compatibility class (see
    ``enumerate_h_colorings``): every color everywhere for "all", else
    vertex 1 on the selected side of a bipartite H."""
    if component not in ("all", "side0", "side1"):
        raise ValueError(f"unknown component {component!r}")
    palette = np.ones((g.n, target.h), dtype=bool)
    if component != "all":
        if target.bipartition is None:
            raise ValueError("component selection requires a bipartite target graph")
        if g.kind != "path":
            raise ValueError("component selection is defined for paths only")
        palette[0] = np.isin(np.arange(target.h), list(target.bipartition[component == "side1"]))
    return palette


# ---------------------------------------------------------------------------
# Heights, vertex weights and the weighted path metric
# ---------------------------------------------------------------------------

def heights(colorings) -> np.ndarray:
    """Height profiles (see the module docstring) of proper path 3-colorings.

    The vertex is the last axis; each row has unit increments, h_i = i
    (mod 2) and h_i = color (mod 3).  The anchor (3 - 2c) mod 6 is the odd
    value congruent to c mod 3; a color difference of 1 (mod 3) steps up, 2
    down.  Raises ImproperColoringError unless every coloring is proper.
    """
    X = np.asarray(colorings, dtype=np.int64)
    if X.min() < 0 or X.max() > 2:
        raise ImproperColoringError("colors must lie in {0,1,2}")
    diff = (X[..., 1:] - X[..., :-1]) % 3
    if not diff.all():
        raise ImproperColoringError("coloring is not proper on the path")
    steps = np.empty_like(X)
    steps[..., 0] = (3 - 2 * X[..., 0]) % 6
    steps[..., 1:] = 3 - 2 * diff
    return steps.cumsum(axis=-1)


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

    @cached_property
    def denominator(self) -> int:
        """The lcm D of the weights' denominators."""
        return math.lcm(*(w.denominator for w in self.weights))

    @cached_property
    def numerators(self) -> np.ndarray:
        """The weights as integers in units of 1/D, D = ``denominator``."""
        D = self.denominator
        out = np.array([w.numerator * (D // w.denominator) for w in self.weights], dtype=np.int64)
        out.flags.writeable = False
        return out

    @staticmethod
    @cache
    def glauber_q3(n: int) -> "VertexWeights":
        """Break-even weights for single random-site updates: (1/2, 1, ..., 1, 1/2).
        One shared instance per n."""
        if n < 2:
            raise ValueError("n >= 2 required")
        return VertexWeights(
            (Fraction(1, 2),) + (Fraction(1),) * (n - 2) + (Fraction(1, 2),)
        )

    @staticmethod
    @cache
    def scan_q3(n: int) -> "VertexWeights":
        """Break-even weights for left-to-right sweeps: (1/4, 1, ..., 1, 3/4).
        One shared instance per n."""
        if n < 2:
            raise ValueError("n >= 2 required")
        return VertexWeights(
            (Fraction(1, 4),) + (Fraction(1),) * (n - 2) + (Fraction(3, 4),)
        )


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
