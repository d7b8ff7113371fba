"""Span recording for the traced run, from outside the scanmix package.

A span is (name, start, end, parent).  ``probes(tracer)`` wraps the public
function at each layer boundary: it replaces every module attribute in
``scanmix`` that refers to the function (the defining module, ``scanmix.cli``
and any other module that imported the name) and restores them on exit.
Spans stay in memory until ``save``; self time is a span's duration minus
the durations of its direct children.

Hot functions whose individual calls are too short to time are only counted.
Work counts come from call arguments and return values, so they repeat
exactly for the same inputs.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    """In-memory span list plus call and work counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.calls: Counter = Counter()
        self.work: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, inclusive seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _states(work, args, kwargs, result) -> None:
    work["domain.states"] += len(result)


def _draws(work, args, kwargs, result) -> None:
    work["dynamics.tape.draws"] += result.size


def _kernel_size(work, args, kwargs, result) -> None:
    work["kernels.states"] += len(result.states)
    work["kernels.nnz"] += sum(len(row) for row in result.rows)


def _eigh_cost(work, args, kwargs, result) -> None:
    # eigvalsh of the N x N symmetrized kernel: 4N^3/3 flops of Householder
    # tridiagonalization; P and P.T read, S written, S read.
    n = len(_arg(args, kwargs, 0, "kernel").states)
    work["kernels.flops_computed"] += 4 * n ** 3 // 3
    work["kernels.dense_bytes_computed"] += 4 * 8 * n * n


def tv_matmuls(t_mix: int) -> int:
    """Dense products ``tv_mixing_time`` performs when it returns ``t_mix``.

    The doubling ladder squares up to the first power of two >= t_mix; the
    binary search then forms P^mid from the ladder for each midpoint, and
    the midpoints it visits are fixed by t_mix.
    """
    if t_mix <= 1:
        return 0
    hi = 1 << (t_mix - 1).bit_length()
    count = (t_mix - 1).bit_length()
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        count += bin(mid).count("1") - 1
        if mid >= t_mix:
            hi = mid
        else:
            lo = mid
    return count


def _powering_cost(work, args, kwargs, result) -> None:
    # each N x N product: 2N^3 flops; two operands read, one result written
    n = len(_arg(args, kwargs, 0, "kernel").states)
    m = tv_matmuls(result)
    work["kernels.flops_computed"] += 2 * n ** 3 * m
    work["kernels.dense_bytes_computed"] += 3 * 8 * n * n * m


def _ledger(work, args, kwargs, result) -> None:
    work["coupling.ledger_rows"] += len(result)
    work["coupling.ledger_passed"] += sum(1 for row in result if row.passed)


def _coalescence(work, args, kwargs, result) -> None:
    work["coupling.sweeps"] += sum(result.times)
    work["coupling.censored"] += result.censored
    work["coupling.replicates"] += len(result.times)


def _pairs(work, args, kwargs, result) -> None:
    work["congestion.pairs_routed"] += result.n_states * (result.n_states - 1)


# (module, attribute, span name, result hook).  A name ending in ".calls"
# marks a probe that only counts calls: no span, no hook.
PROBES = (
    ("scanmix.domain", "enumerate_colorings", "domain.enumerate", _states),
    ("scanmix.domain", "enumerate_h_colorings", "domain.enumerate", _states),
    ("scanmix.dynamics", "RandomTape.uniforms", "dynamics.tape", _draws),
    ("scanmix.dynamics", "metropolis_update", "dynamics.metropolis_update.calls", None),
    ("scanmix.dynamics", "proposal_accepted", "dynamics.proposal_accepted.calls", None),
    ("scanmix.kernels", "build_kernel", "kernels.build_kernel", _kernel_size),
    ("scanmix.kernels", "poincare_constant", "kernels.poincare_constant", _eigh_cost),
    ("scanmix.kernels", "tv_mixing_time", "kernels.tv_mixing_time", _powering_cost),
    ("scanmix.coupling", "hamming_contraction_rows", "coupling.hamming_contraction_rows", _ledger),
    (
        "scanmix.coupling",
        "weighted_metric_contraction_rows",
        "coupling.weighted_metric_contraction_rows",
        _ledger,
    ),
    ("scanmix.coupling", "coupling_time", "coupling.coupling_time", _coalescence),
    ("scanmix.coupling", "coupled_sweep", "coupling.coupled_sweep.calls", None),
    ("scanmix.wilson", "estimate_rho", "wilson.estimate_rho", None),
    ("scanmix.congestion", "canonical_congestion", "congestion.canonical_congestion", _pairs),
    ("scanmix.percolation", "lb_experiment", "percolation.lb_experiment", None),
    ("scanmix.percolation", "sample_pi0", "percolation.sample_pi0", None),
)


def _timed(tracer: Tracer, fn, name: str, hook):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer.work, args, kwargs, result)
        return result

    return wrapper


def _counted(tracer: Tracer, fn, name: str):
    calls = tracer.calls

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def probes(tracer: Tracer):
    """Install every probe for the duration of the block."""
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "scanmix"]
    saved = []
    try:
        for module_name, attr, name, hook in PROBES:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                fn = owner.__dict__[method]
                targets = [(owner, method)]
            else:
                fn = getattr(module, attr)
                targets = [(m, key) for m in modules for key, v in vars(m).items() if v is fn]
            if name.endswith(".calls"):
                wrapper = _counted(tracer, fn, name)
            else:
                wrapper = _timed(tracer, fn, name, hook)
            for owner, key in targets:
                saved.append((owner, key, fn))
                setattr(owner, key, wrapper)
        yield tracer
    finally:
        for owner, key, fn in reversed(saved):
            setattr(owner, key, fn)
