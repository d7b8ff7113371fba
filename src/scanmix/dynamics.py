"""Chain specifications, the single-site update, and the random tape.

Implements the chain specification (random single-site updates "glauber"
and their lazy variant "lazy", forward and reverse deterministic sweeps
"scan"/"reverse_scan", and clamped vertices), the Metropolis(v) primitive
for clique and target-graph constraint models, and the move of the
auxiliary sign-vector chains for 3-colorings of a path.

Randomness comes from a :class:`RandomTape`: a counter-based source where
every draw is a pure function of ``(seed, replicate, time index, channel,
position)``.  Replicates and time steps can therefore be simulated in any
order, or in parallel, with bit-identical results.  A tape holds one
generator whose counter each call moves, so parallel workers each use their
own tape (one per thread).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox

from .domain import Coloring, Graph, TargetGraph, accepted_colors

DEFAULT_SEED = 1729

# tape channels
CH_GLAUBER = 0   # per chain step: [lazy coin, vertex draw, color draw]
CH_SCAN = 1      # per sweep: one color draw per vertex, indexed by vertex - 1;
                 # lb_experiment's single-site steps read [vertex, color] here
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

    def block(
        self, rep0: int, reps: int, t: int, channel: int, size: int, start: int = 0
    ) -> np.ndarray:
        """Row r is ``uniforms(rep0 + r, t, channel, size)[start:]``: the
        column window start..size - 1 of ``reps`` replicates' draws, shape
        (reps, max(size - start, 0)).

        One draw serves every row: the replicate sits in the counter's low
        word, which Philox increments every 4 outputs, so the block of
        replicate rep + 1 is the block of rep shifted by 4 positions, and
        the window starts at replicate rep0 + start // 4, offset start % 4.
        That overlap makes replicates dependent; the counter layout that
        removes it will change only ``uniforms`` and ``block``, and must keep
        the column window, so callers draw bounded windows and never hold
        every column of every replicate.  The rows are a fresh array.
        """
        if start < 0:
            raise ValueError(f"window start {start} is negative")
        start = min(start, size)
        skip, width = start % 4, size - start
        flat = self.uniforms(rep0 + start // 4, t, channel, skip + 4 * max(reps - 1, 0) + width)
        rows = np.lib.stride_tricks.as_strided(
            flat[skip:], shape=(reps, width), strides=(4 * flat.itemsize, flat.itemsize)
        )
        return rows.copy()


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
    must be given.  ``base`` is "glauber" (random single-site updates),
    "lazy" (the same after a fair stay/move coin), "scan" or "reverse_scan"
    (forward or reverse sweeps).  ``clamp`` lists vertex ids whose color
    never changes.
    """

    graph: Graph
    q: Optional[int] = None
    target: Optional[TargetGraph] = None
    base: str = "glauber"
    clamp: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if (self.q is None) == (self.target is None):
            raise ValueError("provide exactly one of q and target")
        if self.q is not None and self.q < 2:
            raise ValueError("q >= 2 required")
        if self.target is not None and not self.target.is_connected:
            raise ValueError("target graph must be connected")
        if self.base not in ("glauber", "lazy", "scan", "reverse_scan"):
            raise ValueError(f"unknown base {self.base!r}")
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


def proposal_accepted(spec: ChainSpec, sigma: Coloring, v: int, c: int) -> bool:
    """Acceptance rule of Metropolis(v) for proposed color c: entry c of
    ``accepted_colors`` under ``spec.model``."""
    return bool(accepted_colors(spec.graph, spec.model.allows_matrix, sigma, v)[c])


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


def scan_order(spec: ChainSpec) -> range:
    if spec.base == "scan":
        return range(1, spec.graph.n + 1)
    if spec.base == "reverse_scan":
        return range(spec.graph.n, 0, -1)
    raise ValueError("scan_order requires a scan base")


# ---------------------------------------------------------------------------
# Auxiliary sign chains (3-colorings of the path)
# ---------------------------------------------------------------------------

def sign_move(x: np.ndarray, v: int) -> None:
    """Apply the vertex-v move in place to the sign vectors along x's last axis.

    The last axis holds the n - 1 coordinates.  Vertex 1 flips coordinate 1,
    vertex n flips the last coordinate n - 1, and an interior vertex v
    exchanges coordinates v - 1 and v; at n = 1 there is no coordinate and
    the move is the identity.
    """
    n = x.shape[-1] + 1
    if v == 1:
        x[..., :1] *= -1
    elif v == n:
        x[..., n - 2] *= -1
    else:
        x[..., v - 2:v] = x[..., v - 2:v][..., ::-1]
