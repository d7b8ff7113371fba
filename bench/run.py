"""Run one scanmix benchmark workload and print its metrics.

    python3 bench/run.py --workload exact|ledger|sim --seed N --seconds S --trace 0|1

Jobs are ``scanmix.cli.main(argv)`` calls made in this process, one after
another (a closed loop with one caller).  Every artifact is written to a
scratch directory under ``.bench_work/`` and its sha256 is checked against
``bench/digests.json``.  The job list repeats until ``--seconds`` have
passed.  ``wall_s`` is the sum over jobs of each job's median time, and
``setup_s`` the median time of fresh interpreters that import the CLI and
run the warm-up jobs, both in reference seconds: scaled by the run's median
timing of a calibration loop (see ``HostSpeed``).  Raw wall times go to the
environment record.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` the untraced loop runs first, then one traced pass with
the probes of ``spans.py`` installed, and the last line carries the
per-layer metrics.  The line before it is the environment record.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
SETUP_REPEATS = 5
CALIBRATION_LOOPS = 250_000
REFERENCE_CALIBRATION_S = 0.02

# Run in a fresh interpreter by each set-up measurement:
# argv = [src dir, scratch dir, JSON list of warm-up jobs].
SETUP_CODE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from scanmix.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for job in json.loads(sys.argv[3]):
        if main(job + ["--out", sys.argv[2]]) != 0:
            sys.exit("warm-up job failed: " + " ".join(job))
"""


def job_key(argv: list[str]) -> str:
    return " ".join(argv)


def run_job(main, argv: list[str], expected: dict | None, work_dir: str) -> dict:
    """One CLI call, timed, its artifacts hashed and checked.

    A job fails on an exception, a nonzero exit code or an artifact whose
    digest differs from ``expected`` (file name -> sha256).  The returned
    ``artifacts`` maps file names to contents.
    """
    out = tempfile.mkdtemp(dir=work_dir)
    error = None
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv + ["--out", out])
        if code != 0:
            error = f"exit code {code}"
    except SystemExit as exc:
        error = f"SystemExit({exc.code!r})"
    except Exception as exc:  # a failing job is counted and the run goes on
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    artifacts = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            artifacts[name] = fh.read()
    shutil.rmtree(out)
    if error is None and expected is not None:
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()}
        differ = sorted(
            name for name in set(digests) | set(expected) if digests.get(name) != expected.get(name)
        )
        if differ:
            error = "digest differs: " + ", ".join(differ)
    if error is not None:
        print(f"FAIL job '{job_key(argv)}': {error}", file=sys.stderr)
    return {"ok": error is None, "seconds": seconds, "artifacts": artifacts}


def _header(text: str) -> dict[str, str]:
    return dict(re.findall(r"^# ([\w-]+): (.*)$", text, flags=re.M))


def single_site_updates(artifacts: dict[str, bytes]) -> int:
    """Single-site updates a ``couple`` or ``percolate`` job performed.

    Read from its outputs: coalescence times (times n for scan sweeps) for
    ``couple``; t x replicates (times n for scan sweeps) for ``percolate``.
    Other subcommands count 0.
    """
    if "couple.csv" in artifacts:
        text = artifacts["couple.csv"].decode()
        head = _header(text)
        rows = [line for line in text.splitlines() if line and not line.startswith("#")][1:]
        steps = sum(int(row.split(",")[1]) for row in rows)
        return steps * int(head["n"]) if head["coupling"].endswith("_scan") else steps
    if "percolate.txt" in artifacts:
        text = artifacts["percolate.txt"].decode()
        head = _header(text)
        n = int(re.search(r"^n = (\d+)$", text, flags=re.M).group(1))
        steps = int(head["t"]) * int(head["replicates"])
        return steps if head["chain"] == "glauber" else steps * n
    return 0


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: a probe of the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Probes of the host's speed, taken between timed steps.

    On a shared host the speed of our cores drifts with other tenants' load.
    ``factor()`` is REFERENCE_CALIBRATION_S over the median probe of the run;
    a wall time times the factor is in reference seconds, in which that
    drift cancels.  The median over the whole run keeps a single probe that
    lands on a brief stall from skewing the result.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []

    def probe(self) -> None:
        self.probes.append(calibration_s())

    def factor(self) -> float:
        return REFERENCE_CALIBRATION_S / statistics.median(self.probes)


class Loop:
    """Accumulates job outcomes over the untraced loop."""

    def __init__(self, n_jobs: int):
        self.raw: list[list[float]] = [[] for _ in range(n_jobs)]
        self.updates = 0
        self.attempted = 0
        self.failed = 0

    def record(self, i: int, result: dict) -> None:
        self.attempted += 1
        self.failed += not result["ok"]
        self.updates += single_site_updates(result["artifacts"])
        self.raw[i].append(result["seconds"])

    def wall_raw_s(self) -> float:
        """Sum over jobs of the median wall time."""
        return sum(statistics.median(s) for s in self.raw)

    def updates_per_s(self) -> float:
        """Single-site updates over the wall time of every job run."""
        return self.updates / sum(sum(s) for s in self.raw)


def measure(main, jobs_at, expected, seconds: float, work_dir: str, speed: HostSpeed) -> Loop:
    """Round-robin over the jobs for about ``seconds``; always one full pass.

    Pass p runs ``jobs_at(p)``: the same jobs, on other program seeds where
    the workload has them.  After the first pass a job starts only if its
    last time still fits before the deadline, so a run overshoots by little.
    """
    n_jobs = len(jobs_at(0))
    loop = Loop(n_jobs)
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        p, j = divmod(i, n_jobs)
        if p and time.perf_counter() + loop.raw[j][-1] > deadline:
            break
        argv = jobs_at(p)[j]
        result = run_job(main, argv, expected.get(job_key(argv)), work_dir)
        loop.record(j, result)
        speed.probe()
        i += 1
    return loop


def traced_pass(main, jobs, expected, work_dir: str) -> dict:
    """One pass with every probe installed."""
    import spans

    tracer = spans.Tracer()
    out = {"tracer": tracer, "failed": 0, "bytes": 0, "updates": 0}

    def traced_main(argv):
        with tracer.span("cli.main"):
            return main(argv)

    with spans.probes(tracer):
        start = time.perf_counter()
        with tracer.span("bench.pass"):
            for argv in jobs:
                result = run_job(traced_main, argv, expected.get(job_key(argv)), work_dir)
                out["failed"] += not result["ok"]
                out["bytes"] += sum(len(data) for data in result["artifacts"].values())
                out["updates"] += single_site_updates(result["artifacts"])
        out["wall"] = time.perf_counter() - start
    return out


def layer_metrics(traced: dict, loop: Loop) -> dict[str, float]:
    """Per-layer metrics of a traced pass, given the untraced loop beside it."""
    tracer = traced["tracer"]
    summary = tracer.summary()
    calls, work = tracer.calls, tracer.work

    def span(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "cli.self_s": span("cli.main", "self_s"),
        "cli.bytes_written": traced["bytes"],
        "domain.enumerate.calls": span("domain.enumerate", "calls"),
        "domain.enumerate.s": span("domain.enumerate", "s"),
        "domain.states": work["domain.states"],
        "dynamics.tape.calls": span("dynamics.tape", "calls"),
        "dynamics.tape.draws": work["dynamics.tape.draws"],
        "dynamics.tape.draws_per_call": ratio(
            work["dynamics.tape.draws"], span("dynamics.tape", "calls")
        ),
        "dynamics.tape.s": span("dynamics.tape", "s"),
        "dynamics.metropolis_update.calls": calls["dynamics.metropolis_update.calls"],
        "dynamics.proposal_accepted.calls": calls["dynamics.proposal_accepted.calls"],
        "dynamics.updates": traced["updates"],
        "dynamics.updates_per_s": loop.updates_per_s(),
        "kernels.build_kernel.s": span("kernels.build_kernel", "s"),
        "kernels.states": work["kernels.states"],
        "kernels.nnz": work["kernels.nnz"],
        "kernels.nnz_per_row": ratio(work["kernels.nnz"], work["kernels.states"]),
        "kernels.poincare_constant.s": span("kernels.poincare_constant", "s"),
        "kernels.tv_mixing_time.s": span("kernels.tv_mixing_time", "s"),
        "kernels.flops_computed": work["kernels.flops_computed"],
        "kernels.dense_bytes_computed": work["kernels.dense_bytes_computed"],
        "coupling.hamming_contraction_rows.s": span("coupling.hamming_contraction_rows", "s"),
        "coupling.weighted_metric_contraction_rows.s": span(
            "coupling.weighted_metric_contraction_rows", "s"
        ),
        "coupling.ledger_rows": work["coupling.ledger_rows"],
        "coupling.ledger_pass_frac": ratio(
            work["coupling.ledger_passed"], work["coupling.ledger_rows"]
        ),
        "coupling.coupling_time.s": span("coupling.coupling_time", "s"),
        "coupling.coupled_sweep.calls": calls["coupling.coupled_sweep.calls"],
        "coupling.sweeps": work["coupling.sweeps"],
        "coupling.censored_frac": ratio(work["coupling.censored"], work["coupling.replicates"]),
        "wilson.estimate_rho.calls": span("wilson.estimate_rho", "calls"),
        "wilson.estimate_rho.s": span("wilson.estimate_rho", "s"),
        "congestion.canonical_congestion.s": span("congestion.canonical_congestion", "s"),
        "congestion.pairs_routed": work["congestion.pairs_routed"],
        "percolation.lb_experiment.s": span("percolation.lb_experiment", "s"),
        "percolation.sample_pi0.s": span("percolation.sample_pi0", "s"),
        "trace.wall_s": traced["wall"],
        "trace.self_sum_s": sum(s["self_s"] for s in summary.values()),
        "trace.overhead_s": traced["wall"] - loop.wall_raw_s(),
    }


def setup_seconds(warmup: list[list[str]], work_dir: str, env: dict, speed: HostSpeed):
    """Wall times of fresh interpreters that import scanmix.cli and run the
    warm-up jobs."""
    raw = []
    for _ in range(SETUP_REPEATS):
        out = tempfile.mkdtemp(dir=work_dir)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, out, json.dumps(warmup)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        raw.append(time.perf_counter() - start)
        speed.probe()
        shutil.rmtree(out)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return raw


def blas_record(nproc: int) -> dict:
    """BLAS library and the thread count it reports (None if not readable)."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": threads,
        "threads_requested": nproc,
    }


def git_hash() -> str | None:
    """HEAD of the checkout, read from .git without calling git (None outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def load_cli():
    """Import scanmix.cli from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "scanmix", "cli.py")):
        raise SystemExit(f"error: no scanmix sources under {SRC}")
    sys.path.insert(0, SRC)
    import scanmix
    import scanmix.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(scanmix.__file__))) != SRC:
        raise SystemExit(f"error: imported scanmix from {scanmix.__file__}, not {SRC}")
    return scanmix.cli.main


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def metric_units() -> dict[str, dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # fixed BLAS threading, set before numpy is first imported
    nproc = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    units = metric_units()
    main_fn = load_cli()
    expected = load_digests()

    def jobs_at(p: int) -> list[list[str]]:
        return workloads.jobs_for(args.workload, args.seed + p)

    jobs = jobs_at(0)
    warmup = workloads.warmup_for(args.workload)
    os.makedirs(WORK_DIR, exist_ok=True)

    speed = HostSpeed()
    speed.probe()
    setup = setup_seconds(warmup, WORK_DIR, dict(os.environ), speed)
    for argv in warmup:
        run_job(main_fn, argv, None, WORK_DIR)
    loop = measure(main_fn, jobs_at, expected, args.seconds, WORK_DIR, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = loop.attempted, loop.failed

    if args.trace:
        traced = traced_pass(main_fn, jobs, expected, WORK_DIR)
        attempted += len(jobs)
        failed += traced["failed"]
        values = layer_metrics(traced, loop)
        traced["tracer"].save(os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.npz"))
        # the root span makes self times add up to the traced wall time
        if abs(values["trace.self_sum_s"] - traced["wall"]) > abs(values["trace.overhead_s"]):
            print("FAIL span self times do not add up to the traced wall time", file=sys.stderr)
            failed += 1
        kind = "per_layer"
    else:
        values = {
            "wall_s": loop.wall_raw_s() * speed.factor(),
            "setup_s": statistics.median(setup) * speed.factor(),
            "peak_rss_mb": peak_rss_mb,
        }
        kind = "end_to_end"

    import numpy as np

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(nproc),
        "git": git_hash(),
        "host_speed_factor": speed.factor(),
        "setup_raw_s": setup,
        "wall_raw_s": loop.wall_raw_s(),
        "jobs": [
            {
                "argv": job_key(job),
                "median_raw_s": statistics.median(raw),
                "raw_s": raw,
            }
            for job, raw in zip(jobs, loop.raw)
        ],
    }
    print(json.dumps({"env": env}))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units[kind].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
