"""Checks of the benchmark harness itself (run: python3 -m pytest bench)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
import workloads

SMALL_JOBS = [
    job.split()
    for job in (
        "spectrum --n 5 --q 3 --chain scan",
        "mix --n 4 --q 3",
        "compare --n 3 --q 3",
        "congestion --n 4 --q 3",
        "drift --n 4 --q 4",
        "drift --n 4 --q 3",
        "couple --n 8 --q 4 --replicates 8",
        "couple --n 8 --q 4 --chain glauber --coupling q4_glauber --replicates 4",
        "percolate --chain glauber --t 5 --replicates 4",
        "percolate --replicates 4",
        "wilson --n 8 --chain scan --replicates 64",
    )
]


@pytest.fixture(scope="module")
def cli_main():
    return run.load_cli()


@pytest.fixture
def work_dir(tmp_path):
    return str(tmp_path)


def test_failures_are_counted_and_the_run_goes_on(cli_main, work_dir, capsys):
    jobs = [
        "spectrum --n 20".split(),            # uncaught BudgetExceededError
        "spectrum --n 4 --q 3".split(),       # succeeds
        "drift --n 4 --q 3 --bogus".split(),  # argument error, exit code 2
        "mix --n 3".split(),                  # digest mismatch
    ]
    expected = {"mix --n 3": {"mix.csv": "0" * 64, "mix.txt": "0" * 64}}
    loop = run.measure(cli_main, lambda p: jobs, expected, 0.0, work_dir, run.HostSpeed())
    assert (loop.attempted, loop.failed) == (4, 3)
    assert all(len(s) == 1 for s in loop.raw)
    err = capsys.readouterr().err
    assert "FAIL job 'spectrum --n 20': BudgetExceededError" in err
    assert "FAIL job 'drift --n 4 --q 3 --bogus': exit code 2" in err
    assert "FAIL job 'mix --n 3': digest differs: mix.csv, mix.txt" in err


def test_every_job_has_reference_digests():
    digests = run.load_digests()
    for workload in workloads.JOBS:
        for seed in range(len(workloads.SIM_SEEDS)):
            for argv in workloads.jobs_for(workload, seed):
                assert digests[run.job_key(argv)], argv


def traced(cli_main, work_dir):
    loop = run.measure(cli_main, lambda p: SMALL_JOBS, {}, 0.0, work_dir, run.HostSpeed())
    result = run.traced_pass(cli_main, SMALL_JOBS, {}, work_dir)
    assert loop.failed == 0 and result["failed"] == 0
    return result["tracer"], run.layer_metrics(result, loop)


def test_work_counts_repeat_exactly(cli_main, work_dir):
    first = traced(cli_main, work_dir)[1]
    second = traced(cli_main, work_dir)[1]
    for name in (
        "domain.states",
        "kernels.nnz",
        "coupling.ledger_rows",
        "coupling.sweeps",
        "dynamics.tape.calls",
        "wilson.estimate_rho.calls",
    ):
        assert first[name] > 0, name
        assert first[name] == second[name], name
    assert first["coupling.coupled_sweep.calls"] == first["coupling.sweeps"]


def test_traced_pass_reports_every_layer_metric(cli_main, work_dir):
    tracer, values = traced(cli_main, work_dir)
    assert set(run.metric_units()["per_layer"]) <= set(values)
    # the root span covers the pass, so self times add up to its wall time
    assert values["trace.self_sum_s"] == pytest.approx(values["trace.wall_s"], abs=1e-3)
    assert tracer.summary()["cli.main"]["calls"] == len(SMALL_JOBS)


def test_probes_are_removed_after_the_traced_pass(cli_main, work_dir):
    import scanmix.cli
    import scanmix.dynamics
    import scanmix.kernels

    before = (scanmix.cli.build_kernel, scanmix.dynamics.RandomTape.uniforms,
              scanmix.kernels.proposal_accepted)
    run.traced_pass(cli_main, SMALL_JOBS[:1], {}, work_dir)
    after = (scanmix.cli.build_kernel, scanmix.dynamics.RandomTape.uniforms,
             scanmix.kernels.proposal_accepted)
    assert before == after


def test_updates_read_from_outputs_match_traced_sweeps(cli_main, work_dir):
    argv = "couple --n 8 --q 4 --replicates 8".split()
    result = run.run_job(cli_main, argv, None, work_dir)
    tracer = spans.Tracer()
    with spans.probes(tracer):
        run.run_job(cli_main, argv, None, work_dir)
    assert run.single_site_updates(result["artifacts"]) == 8 * tracer.work["coupling.sweeps"]


class CountingArray(np.ndarray):
    products = 0

    def __matmul__(self, other):
        CountingArray.products += 1
        return super().__matmul__(other)


@pytest.mark.parametrize("n,chain", [(3, "glauber"), (5, "glauber"), (6, "glauber"), (5, "scan")])
def test_tv_matmul_count_matches_tv_mixing_time(cli_main, n, chain):
    from scanmix.domain import Graph
    from scanmix.dynamics import ChainSpec
    from scanmix.kernels import build_kernel, tv_mixing_time

    kernel = build_kernel(ChainSpec(graph=Graph.path(n), q=3, base=chain))
    kernel._dense = kernel.dense().view(CountingArray)
    CountingArray.products = 0
    t_mix = tv_mixing_time(kernel, 0.25)
    assert spans.tv_matmuls(t_mix) == CountingArray.products


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
