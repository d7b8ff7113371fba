"""Single-site update kernels and chain drivers.

Implements the Metropolis(v) primitive for clique and target-graph
constraint models, the random single-site chain ("glauber"), forward and
reverse deterministic sweeps ("scan"/"reverse_scan"), lazy and clamped
variants, and the auxiliary sign-vector chains for 3-colorings of a path.

Randomness comes from a :class:`RandomTape`: a counter-based source where
every draw is a pure function of ``(seed, replicate, time index, channel,
position)``.  Replicates and time steps can therefore be simulated in any
order, or in parallel, with bit-identical results.  A tape holds one
generator whose counter each call moves, so parallel workers each use their
own tape (one per thread).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .domain import Coloring, Graph, SignConfig, TargetGraph

DEFAULT_SEED = 1729

# tape channels
CH_GLAUBER = 0   # per step: [lazy coin, vertex draw, color draw]
CH_SCAN = 1      # per sweep: one color draw per vertex, indexed by vertex - 1
CH_SIGN = 2      # per sweep/step: move decisions for the sign chains
CH_INIT = 3      # initial-state sampling


class RandomTape:
    """Coordinate-addressed uniforms backed by the Philox counter generator.

    ``uniforms(rep, t, channel, size)`` returns the same block for the same
    coordinates regardless of call order.  Per-vertex draws are positions
    inside the block for their (rep, t, channel) coordinate.

    The tape holds one Philox generator keyed by the seed and moves its
    counter to each coordinate, so calls on one tape must not overlap:
    give each thread its own tape.
    """

    def __init__(self, seed: int = DEFAULT_SEED):
        self.seed = int(seed)
        self._key = (self.seed & 0xFFFFFFFFFFFFFFFF, 0x9E3779B97F4A7C15)
        self._philox = Philox(key=np.array(self._key, dtype=np.uint64))
        self._gen = Generator(self._philox)

    def uniforms(self, rep: int, t: int, channel: int, size: int) -> np.ndarray:
        # Philox output is a pure function of key and counter: setting the
        # counter with the 4-output buffer marked spent (buffer_pos = 4)
        # gives exactly the draws of a fresh Philox(key, counter).
        self._philox.state = {
            "bit_generator": "Philox",
            "state": {"counter": (rep, t, channel, 0), "key": self._key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._gen.random(size)

    def block(self, rep0: int, reps: int, t: int, channel: int, size: int) -> np.ndarray:
        """Row r is ``uniforms(rep0 + r, t, channel, size)``; shape (reps, size).

        One draw serves every row: the replicate sits in the counter's low
        word, which Philox increments every 4 outputs, so the block of
        replicate rep + 1 is the block of rep shifted by 4 positions.  That
        overlap makes replicates dependent; the counter layout that removes
        it will change only ``uniforms`` and ``block``.  The rows are a
        fresh array.
        """
        flat = self.uniforms(rep0, t, channel, 4 * max(reps - 1, 0) + size)
        return np.lib.stride_tricks.sliding_window_view(flat, size)[: 4 * reps : 4].copy()

    def uniform(self, rep: int, t: int, channel: int, position: int = 0) -> float:
        return float(self.uniforms(rep, t, channel, position + 1)[position])


def color_from_uniform(u: float, q: int) -> int:
    c = int(u * q)
    return q - 1 if c >= q else c


def vertex_from_uniform(u: float, n: int) -> int:
    v = 1 + int(u * n)
    return n if v > n else v


# ---------------------------------------------------------------------------
# Chain specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainSpec:
    """Which chain runs on which model.

    Exactly one of ``q`` (clique constraint) and ``target`` (constraint graph)
    must be given.  ``clamp`` lists vertex ids whose color never changes; the
    laziness device (fair stay/move coin before each update) combines with the
    random single-site chain only.
    """

    graph: Graph
    q: Optional[int] = None
    target: Optional[TargetGraph] = None
    base: str = "glauber"
    lazy: bool = False
    clamp: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if (self.q is None) == (self.target is None):
            raise ValueError("provide exactly one of q and target")
        if self.q is not None and self.q < 2:
            raise ValueError("q >= 2 required")
        if self.target is not None and not self.target.is_connected:
            raise ValueError("target graph must be connected")
        if self.base not in ("glauber", "scan", "reverse_scan"):
            raise ValueError(f"unknown base {self.base!r}")
        if self.lazy and self.base != "glauber":
            raise ValueError("lazy combines with glauber only")
        object.__setattr__(self, "clamp", frozenset(self.clamp))
        if any(not (1 <= v <= self.graph.n) for v in self.clamp):
            raise ValueError("clamp must be a subset of 1..n")

    @property
    def n_colors(self) -> int:
        return self.q if self.q is not None else self.target.h

    @cached_property
    def model(self) -> TargetGraph:
        """The constraint graph: ``target``, or K_q for the clique model."""
        return self.target if self.target is not None else TargetGraph.clique(self.q)

    def describe(self) -> str:
        model = f"q={self.q}" if self.q is not None else f"h={self.target.h}"
        clamp = ",".join(map(str, sorted(self.clamp))) or "-"
        lazy = "lazy " if self.lazy else ""
        return f"{lazy}{self.base} {model} n={self.graph.n} kind={self.graph.kind} clamp={clamp}"


def proposal_accepted(spec: ChainSpec, sigma: Coloring, v: int, c: int) -> bool:
    """Acceptance rule of Metropolis(v) for proposed color c.

    One orientation rule for every model: an earlier neighbour u < v must
    allow (color[u], c) and a later one must allow (c, color[u]) in
    ``spec.model``.  For a clique or an undirected H the matrix is symmetric,
    so this is "every neighbour's color is compatible with c".
    """
    allows = spec.model.adjacency
    for u in spec.graph.adjacency[v]:
        if not (allows[sigma[u - 1]][c] if u < v else allows[c][sigma[u - 1]]):
            return False
    return True


def metropolis_update(sigma: Coloring, v: int, c: int, spec: ChainSpec) -> Coloring:
    """Try color c at vertex v; return the (possibly unchanged) coloring.

    Clamped vertices are never modified.
    """
    if not 1 <= v <= spec.graph.n:
        raise ValueError(f"vertex {v} out of range 1..{spec.graph.n}")
    if not 0 <= c < spec.n_colors:
        raise ValueError(f"color {c} out of range 0..{spec.n_colors - 1}")
    if v in spec.clamp:
        return sigma
    if proposal_accepted(spec, sigma, v, c):
        return sigma[: v - 1] + (c,) + sigma[v:]
    return sigma


def glauber_step(
    sigma: Coloring, spec: ChainSpec, tape: RandomTape, rep: int = 0, step: int = 0
) -> Coloring:
    """One random single-site update: uniform vertex, uniform color, Metropolis.

    With ``spec.lazy`` a fair coin decides "stay" before the vertex draw.
    """
    if spec.base != "glauber":
        raise ValueError("glauber_step requires base='glauber'")
    u = tape.uniforms(rep, step, CH_GLAUBER, 3)
    if spec.lazy and u[0] < 0.5:
        return sigma
    v = vertex_from_uniform(u[1], spec.graph.n)
    c = color_from_uniform(u[2], spec.n_colors)
    return metropolis_update(sigma, v, c, spec)


def scan_order(spec: ChainSpec) -> range:
    if spec.base == "scan":
        return range(1, spec.graph.n + 1)
    if spec.base == "reverse_scan":
        return range(spec.graph.n, 0, -1)
    raise ValueError("scan_order requires a scan base")


def scan_sweep(
    sigma: Coloring, spec: ChainSpec, tape: RandomTape, rep: int = 0, sweep: int = 0
) -> Coloring:
    """One full sweep of Metropolis updates in scan order.

    Color draws are indexed by vertex id, so clamped vertices consume their
    draw without acting and the remaining vertices see identical randomness.
    """
    u = tape.uniforms(rep, sweep, CH_SCAN, spec.graph.n)
    out = sigma
    for v in scan_order(spec):
        c = color_from_uniform(u[v - 1], spec.n_colors)
        out = metropolis_update(out, v, c, spec)
    return out


def run_chain(
    sigma: Coloring,
    spec: ChainSpec,
    tape: RandomTape,
    steps: int,
    rep: int = 0,
) -> Coloring:
    """Advance the chain ``steps`` glauber steps or scan sweeps."""
    out = sigma
    for t in range(steps):
        if spec.base == "glauber":
            out = glauber_step(out, spec, tape, rep, t)
        else:
            out = scan_sweep(out, spec, tape, rep, t)
    return out


# ---------------------------------------------------------------------------
# Auxiliary sign chains (3-colorings of the path)
# ---------------------------------------------------------------------------

def sign_move(x: np.ndarray, v: int) -> None:
    """Apply the vertex-v move in place to the sign vectors along x's last axis.

    The last axis holds the n - 1 coordinates.  Vertex 1 flips coordinate 1,
    vertex n flips the last coordinate n - 1, and an interior vertex v
    exchanges coordinates v - 1 and v.
    """
    n = x.shape[-1] + 1
    if v == 1:
        x[..., 0] *= -1
    elif v == n:
        x[..., n - 2] *= -1
    else:
        x[..., v - 2:v] = x[..., v - 2:v][..., ::-1]


def sign_step(
    x: SignConfig,
    base: str,
    tape: RandomTape,
    rep: int = 0,
    t: int = 0,
    n: Optional[int] = None,
) -> SignConfig:
    """One step of the auxiliary sign chain on {-1,+1}^(n-1).

    base='scan': the sweep applies the vertex-1 flip, the interior swaps in
    order, then the vertex-n flip, each independently with probability 1/3.
    base='glauber': a single uniformly random vertex move with probability 1/3.
    """
    n = n if n is not None else len(x) + 1
    if len(x) != n - 1 or any(s not in (-1, 1) for s in x):
        raise ValueError("sign vector must lie in {-1,+1}^(n-1)")
    if base == "scan":
        return sign_sweep_from_decisions(x, tape.uniforms(rep, t, CH_SIGN, n) < 1 / 3)
    if base != "glauber":
        raise ValueError(f"unknown base {base!r}")
    u = tape.uniforms(rep, t, CH_SIGN, 2)
    out = np.array(x)
    if u[1] < 1 / 3:
        sign_move(out, vertex_from_uniform(u[0], n))
    return tuple(out.tolist())


def sign_sweep_from_decisions(x: SignConfig, decisions: Sequence[bool]) -> SignConfig:
    """Apply one deterministic sweep of the sign chain given the n move bits."""
    out = np.array(x)
    for v in range(1, len(x) + 2):
        if decisions[v - 1]:
            sign_move(out, v)
    return tuple(out.tolist())


# ---------------------------------------------------------------------------
# Trajectory dumps
# ---------------------------------------------------------------------------

def write_trajectory(
    fh: io.TextIOBase,
    spec: ChainSpec,
    seed: int,
    states: Iterable[Coloring],
) -> None:
    """One serialized state per line, after a header recording spec and seed."""
    fh.write(f"# spec: {spec.describe()}\n")
    fh.write(f"# seed: {seed}\n")
    for s in states:
        fh.write(",".join(str(c) for c in s) + "\n")


def read_trajectory(fh: io.TextIOBase) -> list[Coloring]:
    out = []
    for line in fh:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append(tuple(int(x) for x in line.split(",")))
    return out
