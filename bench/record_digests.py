"""Record the reference sha256 of every artifact of every benchmark job.

    python3 bench/record_digests.py

Runs each job once (``sim`` once per program seed in ``SIM_SEEDS``) and
writes ``bench/digests.json``.  Run it only at a commit whose outputs are
the reference: any later change to these bytes fails the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run
import workloads


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    cli_main = run.load_cli()
    os.makedirs(run.WORK_DIR, exist_ok=True)
    jobs = [job for name in ("exact", "ledger") for job in workloads.jobs_for(name, 0)]
    jobs += [
        job for seed in range(len(workloads.SIM_SEEDS)) for job in workloads.jobs_for("sim", seed)
    ]
    digests = {}
    for argv in jobs:
        result = run.run_job(cli_main, argv, None, run.WORK_DIR)
        if not result["ok"]:
            return 1
        digests[run.job_key(argv)] = {
            name: hashlib.sha256(data).hexdigest() for name, data in result["artifacts"].items()
        }
        print(f"{result['seconds']:7.2f} s  {run.job_key(argv)}", flush=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
