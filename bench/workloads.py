"""The benchmark's workloads: fixed lists of scanmix CLI jobs.

Each job is the argument list of one ``scanmix`` call; the harness adds
``--out``.  Each job takes 0.4-2 s on a 2-core x86 host, so a 30 s run
gets five or more samples of every job.  Each workload stresses some layers
while bypassing others:

exact   enumeration, kernel construction, dense linear algebra and
        canonical-path routing; no random tape, no ledger.  A scan kernel
        whose job is bound by the build sits beside a glauber kernel whose
        job is bound by TV powering, and the clique acceptance branch beside
        the target-graph branch (``compare`` runs on an H-coloring model).
ledger  the exact drift DP, ledger assembly and CSV rendering of 50-75k
        rows; both ledger families (Hamming for q >= 4, weighted metric for
        q = 3); no tape, no dense linear algebra.
sim     the random tape, the single-site update engine and the coupled
        sweeps; no kernel.  The scan ``couple`` job is bound by the update
        engine; the two glauber jobs spend about half their time in the
        tape (traced: 48-59%).

``exact`` and ``ledger`` do not depend on the seed.  ``sim`` passes a
program seed from ``SIM_SEEDS``: pass p of a run with benchmark seed s uses
``SIM_SEEDS[(s + p) % 8]``, so a run covers several program seeds (their
work differs by up to 15%) and every artifact has a recorded digest.
"""

from __future__ import annotations

JOBS: dict[str, tuple[str, ...]] = {
    "exact": (
        "spectrum --n 10 --q 3 --chain scan",
        "mix --n 9 --q 3",
        "compare --n 6 --q 4",
        "congestion --n 6 --q 3",
    ),
    "ledger": (
        "drift --n 7 --q 4",
        "drift --n 7 --q 5",
        "drift --n 8 --q 3",
    ),
    "sim": (
        "couple --n 128 --q 4 --replicates 50",
        "couple --n 32 --q 4 --chain glauber --coupling q4_glauber --replicates 50",
        "percolate --chain glauber --t 250 --replicates 200",
        "percolate --replicates 200",
        "wilson --n 32 --chain scan --replicates 2048",
    ),
}

# One tiny call of each subcommand a workload uses, run before timing (and
# inside every set-up measurement) so first-call costs stay out of wall_s.
WARMUP: dict[str, tuple[str, ...]] = {
    "exact": (
        "spectrum --n 4 --q 3 --chain scan",
        "mix --n 4 --q 3",
        "compare --n 3 --q 3",
        "congestion --n 3 --q 3",
    ),
    "ledger": (
        "drift --n 4 --q 4",
        "drift --n 4 --q 3",
    ),
    "sim": (
        "couple --n 8 --q 4 --replicates 4",
        "couple --n 8 --q 4 --chain glauber --coupling q4_glauber --replicates 4",
        "percolate --n 200 --chain glauber --t 4 --replicates 4",
        "percolate --n 200 --replicates 4",
        "wilson --n 8 --chain scan --replicates 64",
    ),
}

# Program seeds with recorded digests.  1729 is the CLI default; the others
# are held out from any tuning of the program.
SIM_SEEDS = (1729, 2718, 3141, 4669, 5772, 6180, 7389, 8128)


def jobs_for(workload: str, seed: int) -> list[list[str]]:
    """The argument lists of one pass of ``workload`` under benchmark ``seed``."""
    jobs = [job.split() for job in JOBS[workload]]
    if workload == "sim":
        program_seed = str(SIM_SEEDS[seed % len(SIM_SEEDS)])
        jobs = [job + ["--seed", program_seed] for job in jobs]
    return jobs


def warmup_for(workload: str) -> list[list[str]]:
    return [job.split() for job in WARMUP[workload]]
