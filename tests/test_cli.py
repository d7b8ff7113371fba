"""Driver subcommands: outputs, determinism, and config handling."""

import ast
import hashlib
import inspect
import itertools
import os
import tracemalloc

import numpy as np
import pytest

from scanmix import cli
from scanmix.cli import SUBCOMMANDS, _build_parser, _drift_csv, main
from scanmix.coupling import (
    LEMMA_IDS,
    Ledger,
    hamming_contraction_rows,
    weighted_metric_contraction_rows,
)
from scanmix.domain import Graph, TargetGraph
from scanmix.dynamics import ChainSpec, RandomTape
from scanmix.kernels import build_kernel, communicating_classes, max_tv_to_uniform

from reference import drift_csv_body


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def body_lines(path):
    with open(path) as fh:
        return [l for l in fh.read().splitlines() if l and not l.startswith("#")]


def test_spectrum_outputs(tmp_path):
    out = tmp_path / "o"
    assert main(["spectrum", "--n", "4", "--q", "3", "--chain", "glauber", "--out", str(out)]) == 0
    eigs = body_lines(out / "spectrum.csv")
    assert len(eigs) == 24
    kv = dict(l.split(" = ") for l in body_lines(out / "spectrum.txt"))
    assert kv["sign_lumped_states"] == "8"
    assert abs(float(kv["sign_lumped_poincare"]) - 1 / 12) < 1e-12
    assert kv["uniform_stationary"] == "True"


def test_header_carries_version_hash_seed(tmp_path):
    out = tmp_path / "o"
    main(["spectrum", "--out", str(out), "--seed", "5"])
    head = read(out / "spectrum.txt").decode().splitlines()[:3]
    assert head[0].startswith("# artifact: scanmix ")
    assert head[1].startswith("# config-hash: ")
    assert head[2] == "# seed: 5"


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for sub in ("spectrum", "mix", "drift", "congestion", "ergodic"):
        assert main([sub, "--out", str(a)]) == 0
        assert main([sub, "--out", str(b)]) == 0
    for name in os.listdir(a):
        assert read(a / name) == read(b / name), name


def test_couple_and_wilson_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for sub in ("couple", "wilson"):
        argv = [sub, "--n", "16", "--chain", "scan", "--replicates", "16"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        for name in os.listdir(a):
            assert read(a / name) == read(b / name), name


def test_drift_csv_schema(tmp_path):
    out = tmp_path / "o"
    assert main(["drift", "--n", "4", "--q", "3", "--out", str(out)]) == 0
    lines = body_lines(out / "drift.csv")
    assert lines[0] == "lemma_id,n,pair_index,exact_drift_num,exact_drift_den,bound,pass"
    assert all(line.split(",")[-1] == "1" for line in lines[1:])
    ids = {line.split(",")[0] for line in lines[1:]}
    assert "site_break_even" in ids and "sweep_suffix" in ids


# sha256 of the drift.csv body (header lines dropped); the ledger is exact
# integer arithmetic, so these digests hold on any platform.  All were
# recorded with the per-row formatter that reference.drift_csv_body keeps.
DRIFT_BODY_SHA256 = {
    (4, 3): "3391f73dfca944cf8afd04d6772f4c6aa974444cdee91631e24c0a943e208a4d",
    (5, 3): "23f65e4c40e94f29a366d926fda48a54b60b374ec3a713eddd664dccb49954e4",
    (6, 3): "6bae50c2afee384e507566db6e1493781d04fda0d2d67be2bcb4b9ab1bcbb1b4",
    (4, 4): "23b587efd44d4da52f0f4fb2b87b9b9dc485d9241805d2a77fbf47a73b1e1391",
    (5, 4): "4fa3bfbbec21967ae83ab6b5245fd4325505b132d0c9e5ed0131ad8e6cbd097c",
    (6, 4): "8c1f2b3450a6a47208cc586d75615552a4e11da6d4f88024284f41c009b341f8",
    (4, 5): "7f389f1ac07e3a1869f1ac533d0fba3994fecdeab96ed6bce5006b772be390dc",
    (5, 5): "744841d2923addc68270a9f934a4ac179c4f2f4bd4ee31d9eee0aa4afb2b5818",
    (6, 5): "993ac6b27620ad777d841bddbd46ed5dbd5a8f4d29ac8d18151fe3c83e20f9fc",
    (4, 6): "0f65fbfae0f9a1a5249d70db87b2aec6ee03decb4331f8260cbd34a6b72e165a",
    (5, 6): "5f97b8dbc1ea34aa6c56ca7900702b3047cf1b0337b64aa7ee76266bd1a8c02e",
}


def assert_golden_digests(tmp_path):
    for (n, q), digest in DRIFT_BODY_SHA256.items():
        out = tmp_path / f"n{n}q{q}"
        assert main(["drift", "--n", str(n), "--q", str(q), "--out", str(out)]) == 0
        body = "".join(line + "\n" for line in body_lines(out / "drift.csv"))
        assert hashlib.sha256(body.encode()).hexdigest() == digest, (n, q)


def test_drift_csv_golden_digests(tmp_path):
    assert_golden_digests(tmp_path)


def test_drift_csv_golden_digests_hold_at_7_row_chunks(monkeypatch, tmp_path):
    """Chunks of 7 rows, in the DP and in the render, cut every ledger and
    batch of the digested jobs many times and change no byte."""
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 7)
    monkeypatch.setattr("scanmix.coupling.DP_CHUNK_ROWS", 7)
    assert_golden_digests(tmp_path)


def test_drift_csv_matches_the_row_formatter():
    for q in range(3, 7):
        for n in range(2 if q == 3 else 1, 7):
            if q == 3:
                ledger = weighted_metric_contraction_rows(n)
            else:
                ledger = hamming_contraction_rows(n, q)
            assert b"".join(_drift_csv(ledger)) == drift_csv_body(ledger).encode(), (n, q)


def _synthetic_ledger(num, scale, bound_num, bound_den, passed, pair_index=None) -> Ledger:
    rows = len(num)
    lemma = np.arange(rows, dtype=np.int64) % len(LEMMA_IDS)
    if pair_index is None:
        pair_index = np.arange(rows, dtype=np.int64)
    cols = (pair_index, num, scale, bound_num, bound_den)
    return Ledger(7, 4, lemma, *(np.array(c, dtype=np.int64) for c in cols),
                  np.array(passed, dtype=bool))


SYNTHETIC_LEDGERS = {
    "failing row": _synthetic_ledger([1, 5], [2, 4], [1, 1], [3, 1], [True, False]),
    "zeros and negatives": _synthetic_ledger(
        [0, -1, 7, -12, 0], [5, 3, 1, 8, 1], [-1, 0, 2, -30, 0], [1, 4, 3, 9, 7],
        [True] * 5),
    "beyond 2**32": _synthetic_ledger(
        [2 ** 52 - 1, -(2 ** 40 + 1), 3, 0], [2 ** 33, 3 ** 33, 2 ** 32 + 1, 9],
        [2 ** 32, -(2 ** 52 + 1), 10 ** 15, 1], [1, 2 ** 35, 7, 1],
        [False, True, True, False], pair_index=[2 ** 32, 0, 2 ** 53 - 1, 9]),
    "zero rows": _synthetic_ledger([], [], [], [], []),
}


@pytest.mark.parametrize("case", SYNTHETIC_LEDGERS)
def test_drift_csv_matches_the_row_formatter_on_synthetic_ledgers(case):
    """Columns that no shipped ledger has: a failing row, zeros and
    negatives in both numerators, values past 2**32, no rows at all."""
    ledger = SYNTHETIC_LEDGERS[case]
    assert b"".join(_drift_csv(ledger)) == drift_csv_body(ledger).encode()


def test_drift_csv_chunks_match_the_row_formatter_at_7_rows(monkeypatch):
    """With 7-row chunks the render yields the column names, then one piece
    per chunk, and joins to the row formatter's body: every ledger at
    n = 2..6 and q = 3..6, and every synthetic ledger."""
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 7)
    ledgers = list(SYNTHETIC_LEDGERS.values()) + [
        weighted_metric_contraction_rows(n) if q == 3 else hamming_contraction_rows(n, q)
        for q in range(3, 7) for n in range(2, 7)
    ]
    for ledger in ledgers:
        pieces = list(_drift_csv(ledger))
        assert len(pieces) == 1 + -(-len(ledger) // 7)
        assert b"".join(pieces) == drift_csv_body(ledger).encode(), (ledger.n, ledger.q)


@pytest.mark.parametrize("n, q", [(7, 4), (7, 5), (8, 3)])
def test_drift_holds_chunks_not_copies_of_the_ledger(tmp_path, n, q):
    """The benchmark's drift jobs, warm: the DP advances bounded row chunks,
    the weighted ledger takes its sweep sums one table at a time, the
    columns are joined one at a time and the CSV is streamed in chunks, so
    the traced peak stays below 10 MB.  Whole-batch DP passes, all n + 1
    sweep tables and a byte matrix of the whole CSV took 15-24 MB."""
    argv = ["drift", "--n", str(n), "--q", str(q), "--out", str(tmp_path)]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak


# sha256 of output bodies (header lines dropped) per job and file.  The CSV
# digests were recorded before the update engine was unified; every number
# in them comes from integer coalescence times or replicate counts.  The
# percolate.txt and wilson digests were recorded before the tape kept one
# generator per tape and pi0 sampling advanced all segments together;
# percolate.txt carries percolation_contained, and the scan wilson job reads
# an empirical rho from the tape.  The default (glauber) wilson.txt was
# re-recorded when its rho became the exact maximum (4/(3n)) sum (dw)^2.
SIM_BODY_SHA256 = {
    "couple": {
        "couple.csv": "e035215463a985904512f4ba5bc59a6cc9a8eba111880a5e34460c273de9cfe3",
    },
    "couple --chain glauber --coupling q4_glauber --n 16": {
        "couple.csv": "acc2f8ffee52e26f0edba5e8d1953f17321d354fc4ac0fe9317d762b7f89d481",
    },
    "percolate --chain scan --t 6 --n 400 --r 2 --ell 4 --replicates 40": {
        "percolate.csv": "175a395b1e63ae5922281f90bd64adbab0efcdeef1f14b508dfe75ff9828d94c",
        "percolate.txt": "5fdcbcd7fa08784653e9faf142621c2ee8d57b384d767a33f1ee2781c08f0286",
    },
    "percolate --chain glauber --t 2000 --n 400 --r 2 --ell 4 --replicates 40": {
        "percolate.csv": "02fd95761439b618b5d3b4b2fe26a8c117872376d8258b03af383c7465d52fce",
        "percolate.txt": "5fdcbcd7fa08784653e9faf142621c2ee8d57b384d767a33f1ee2781c08f0286",
    },
    "wilson": {
        "wilson_w.csv": "f907928f6bcff2ac6a0f15526ceb170f6053c93fea22f55cf8fdd578b33f16b8",
        "wilson.txt": "950cc6347f39feea551b628bc75ff5c18b4a4247bd2c72dd41e2762eb85f4cfc",
    },
    "wilson --chain scan --n 16 --replicates 256": {
        "wilson_w.csv": "3e2f27841b5f33e4a1e3678ef3bc77a33c0f5c16c2640cf818f120719391e884",
        "wilson.txt": "87b71f42b18442fefb0e21377358b9ab25a1380cabe598ddf7c1121eaf8f17d2",
    },
}


def test_simulation_csv_golden_digests(tmp_path):
    for i, (job, digests) in enumerate(SIM_BODY_SHA256.items()):
        out = tmp_path / str(i)
        assert main(job.split() + ["--out", str(out)]) == 0
        for name, digest in digests.items():
            body = "".join(line + "\n" for line in body_lines(out / name))
            assert hashlib.sha256(body.encode()).hexdigest() == digest, (job, name)


# sha256 over the output files of each exact job (file name, then body with
# header lines dropped), recorded from the state-by-state kernel builder;
# the two congestion jobs after "congestion --n 6 --q 3" were recorded from
# the pair-by-pair router.  The spectra are eigenvalues printed to 15 digits,
# so these digests are tied to the numpy/LAPACK build as well as to the
# kernels.  An argument that names an H_FILES entry is replaced by that
# file's path.  directed.h is a directed constraint graph whose single-site
# chain on the 4-path has four classes of sizes 4, 2, 1, 2: mix must list
# them in that order; c5.h is the undirected 5-cycle.
DIRECTED_H = "001\n110\n010\n"
H_FILES = {"directed.h": DIRECTED_H, "c5.h": "01001\n10100\n01010\n00101\n10010\n"}
EXACT_SHA256 = {
    "spectrum": "23a641fdc10bf0e3dbce915139ce7c2bb18ec235b72eaab862f86190eaf2861a",
    "mix": "0751d6c9b4b3ee4a6c45f62b28350fd17bdc0295575179d5cff9b21f98674d09",
    "compare": "68cfba9a9a93c906ffa4384972bb7dc17a4b2d669d6770658d4226fe40ce6f2c",
    "congestion": "7742213ac56652b32f200126836b3ead366bb83d8bff93a86600e60b437e4141",
    "ergodic": "00c56ef3e56e930d4d3f316c4ee022d340865b08b73c5d4187ec84251de4845c",
    "spectrum --n 10 --q 3 --chain scan":
        "28025e806c00da4cf5db124ecc9ac17d80dddb5eb7bab28a44a9dc35d42fca78",
    "mix --n 9 --q 3": "bf24cf29af7d44fde02608572ff8b4a1b666bfd8ba8c55777fb60309b2fc6c75",
    "compare --n 6 --q 4": "936ba292d6e463b9da834d9d12e1c6bb2eff97677fc8e015a3af38dd5a651b87",
    "congestion --n 6 --q 3": "7f2ffc619b5fa8b0bf1a791b45aa3e746615866be29aee59706ee917c087f0d1",
    "congestion --n 5 --q 4": "e0868cc6aaba9554a75fe8b8d52380618339808365e77687876619b108ea3c98",
    "congestion --n 5 --h-file c5.h":
        "ce145c2fa816d487260dbaa71299c680ce16f6be5a9ee65b8ff3b08245269f14",
    "spectrum --chain reverse": "f9bbb0cabfb81ce30c370287d5dc2bc98a8906fa18ac9c9ef1390f16be7145fe",
    "spectrum --chain lazy --clamp 2":
        "ff00f9131fa93d45f0df07b2e3eb445d36b23fd2471b809a3bb283de0c42891a",
    "spectrum --n 4 --directed --h-file directed.h":
        "e6181acdfd4161d9af0813c53fd1d3564f911252cb9cabb77e512b0074e63027",
    "mix --n 4 --directed --h-file directed.h":
        "8097d133bc7df6392e38e4e54abd2ae8a4f6748e8523af0ad7002f37b21aa8e6",
}


def test_exact_outputs_golden_digests(tmp_path):
    for name, text in H_FILES.items():
        (tmp_path / name).write_text(text)
    for i, (job, digest) in enumerate(EXACT_SHA256.items()):
        argv = [str(tmp_path / a) if a in H_FILES else a for a in job.split()]
        out = tmp_path / str(i)
        assert main(argv + ["--out", str(out)]) == 0, job
        h = hashlib.sha256()
        for name in sorted(os.listdir(out)):
            body = "".join(line + "\n" for line in body_lines(out / name))
            h.update(f"{name}\n{body}".encode())
        assert h.hexdigest() == digest, job


def test_wilson_refuses_lazy_and_reverse(tmp_path, capsys):
    # the eigenvector bounds are derived for the glauber and scan sign chains
    for chain in ("lazy", "reverse"):
        out = tmp_path / chain
        assert main(["wilson", "--chain", chain, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and chain in err, err
        assert not out.exists()


@pytest.mark.parametrize("argv, config", [
    (["--replicates", "5"], ""),
    (["--chain", "glauber", "--replicates", "512"], ""),
    ([], "replicates = 5\n"),
    (["--replicates", "5"], "chain = glauber\n"),
], ids=["default chain", "glauber flag", "config replicates", "config chain"])
def test_glauber_wilson_refuses_replicates(tmp_path, capsys, argv, config):
    """The glauber report's rho is exact: it reads neither --replicates nor
    the tape, so the flag is refused, not written into the header."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "o"
    assert main(["wilson", *argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: wilson --chain glauber reads no --replicates")
    assert not out.exists()
    # the scan report samples rho from the tape, so it reads the flag
    scan = ["wilson", "--n", "8", *argv, "--chain", "scan", "--config", str(cfg)]
    assert main(scan + ["--out", str(out)]) == 0


def test_config_n_beside_graph_file_is_refused(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 7\n")
    (tmp_path / "p3.g").write_text("1 2\n2 3\n")
    out = tmp_path / "o"
    argv = ["spectrum", "--graph-file", str(tmp_path / "p3.g"), "--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --n and --graph-file exclude each other")
    assert not out.exists()


def test_percolate_refuses_lazy_and_reverse(tmp_path, capsys):
    # the experiment runs the plain glauber and forward scan chains only
    for chain in ("lazy", "reverse"):
        out = tmp_path / chain
        assert main(["percolate", "--chain", chain, "--n", "400", "--r", "2",
                     "--ell", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and chain in err, err
        assert not out.exists()


def test_zero_replicates_exit_2(tmp_path, capsys):
    """Zero replicates is refused, the scan rho's trials included, which are
    not run as a floor of 8 sweeps per probe state."""
    for argv, named in ((["couple"], "replicates"), (["percolate"], "replicates"),
                        (["wilson", "--chain", "scan"], "trials")):
        out = tmp_path / argv[0]
        assert main([*argv, "--replicates", "0", "--out", str(out)]) == 2
        assert f"{named} >= 1 required" in capsys.readouterr().err
        assert not out.exists()


def test_couple_refuses_chain_coupling_mismatch(tmp_path, capsys):
    for chain, coupling, named in (
        ("scan", "identity_glauber", "scan chain"),
        ("lazy", "q4_glauber", "lazy chain"),
        ("glauber", "q4_scan", "glauber chain"),
        ("glauber", "switch_glauber_important_neighbor", "unknown coupling"),
        ("scan", "bogus", "unknown coupling"),
    ):
        out = tmp_path / f"{chain}-{coupling}"
        argv = ["couple", "--chain", chain, "--coupling", coupling, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and coupling in err and named in err, err
        assert not out.exists()  # refused before any sweep ran


def test_congestion_refuses_invalid_canonical_paths(tmp_path, capsys):
    # on this directed H some canonical paths take moves H does not allow,
    # so no congestion figure or Poincare bound is written
    hfile = tmp_path / "h.txt"
    hfile.write_text("001\n110\n010\n")
    out = tmp_path / "o"
    argv = ["congestion", "--n", "4", "--directed", "--h-file", str(hfile), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no bound" in err, err
    assert not out.exists()


def test_congestion_refuses_a_path_with_no_h_coloring(tmp_path, capsys):
    # one loopless color colors a single vertex but no edge of the path
    hfile = tmp_path / "one.h"
    hfile.write_text("0\n")
    out = tmp_path / "o"
    assert main(["congestion", "--n", "2", "--h-file", str(hfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no H-coloring" in err, err
    assert not out.exists()
    assert main(["congestion", "--n", "1", "--h-file", str(hfile), "--out", str(out)]) == 0
    assert "A=0 " in capsys.readouterr().out


def test_drift_refuses_q_below_3(tmp_path, capsys):
    # the ledger's lemmas are stated for q >= 3
    assert main(["drift", "--n", "4", "--q", "2", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("n, q", [(0, 4), (-3, 5)])
def test_drift_refuses_a_non_positive_n(tmp_path, capsys, n, q):
    out = tmp_path / "o"
    assert main(["drift", "--n", str(n), "--q", str(q), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: vertex count must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["drift", "--n", "1", "--q", "15"], ["percolate", "--q", "15"]])
def test_step_table_over_budget_exits_2(tmp_path, capsys, argv):
    """Both readers of the q = 15 step table (221M cells) are refused
    before it is built, with no file written."""
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceed budget" in err, err
    assert not out.exists()


def test_couple_beyond_the_step_table_budget_exits_2_before_any_draw(tmp_path, capsys, monkeypatch):
    """Every coupled step reads the step table, so ``couple --q 11`` (25M
    cells) is refused, naming the table's budget, before a start is drawn
    and with no file written."""
    drawn = []
    monkeypatch.setattr(RandomTape, "block", lambda self, *args: drawn.append(args))
    monkeypatch.setattr(RandomTape, "uniforms", lambda self, *args: drawn.append(args))
    out = tmp_path / "o"
    assert main(["couple", "--q", "11", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "step-table cells (q = 11) exceed budget" in err, err
    assert drawn == [] and not out.exists()


@pytest.mark.parametrize("chain", ["glauber", "scan"])
def test_percolate_beyond_the_step_table_budget_exits_2_before_any_draw(
    tmp_path, capsys, monkeypatch, chain
):
    """Both percolation engines read the step table, so ``percolate --q 11``
    is refused on either chain, naming the table's budget, before the pi0
    sample is drawn and with no file written."""
    drawn = []
    monkeypatch.setattr(RandomTape, "block", lambda self, *args: drawn.append(args))
    monkeypatch.setattr(RandomTape, "uniforms", lambda self, *args: drawn.append(args))
    out = tmp_path / "o"
    argv = ["percolate", "--chain", chain, "--q", "11", "--n", "100", "--t", "1",
            "--replicates", "2", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "step-table cells (q = 11) exceed budget" in err, err
    assert drawn == [] and not out.exists()


@pytest.mark.parametrize("k", ["0", "-1"])
def test_ergodic_refuses_a_bottleneck_k_below_1(tmp_path, capsys, k):
    """A hub-and-two-cliques target needs cliques of at least one vertex;
    a smaller k is refused before any file is written, not reported for a
    one-state target (k = -1) or dropped from the report (k = 0)."""
    out = tmp_path / "o"
    assert main(["ergodic", "--bottleneck-k", k, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --bottleneck-k must be at least 1, not {k}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["spectrum"], ["mix"], ["compare"]])
def test_exact_commands_run_a_bipartite_h_on_one_vertex(tmp_path, argv):
    """On the 1-vertex path a bipartite H's colors all lie in one class of
    moves, so the exact commands run on both of K2's colorings."""
    hfile = tmp_path / "k2.h"
    hfile.write_text("01\n10\n")
    out = tmp_path / "o"
    assert main([*argv, "--n", "1", "--h-file", str(hfile), "--out", str(out)]) == 0
    kv = dict(l.split(" = ") for l in body_lines(out / f"{argv[0]}.txt"))
    assert kv["n_states"] == "2"
    if argv == ["mix"]:
        assert kv["mixing_time"] == "1"


def test_h_file_with_another_character_exits_2(tmp_path, capsys):
    """An entry 2 used to read as 0, and spectrum answered on another H."""
    hfile, out = tmp_path / "h.txt", tmp_path / "o"
    hfile.write_text("0 1 1\n1 0 2\n1 2 0\n")
    assert main(["spectrum", "--n", "3", "--h-file", str(hfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: H line 2 "), err
    assert not out.exists()


def test_mix_subcommand(tmp_path):
    out = tmp_path / "o"
    assert main(["mix", "--n", "4", "--q", "3", "--eps", "0.25", "--out", str(out)]) == 0
    kv = dict(l.split(" = ") for l in body_lines(out / "mix.txt"))
    assert kv["mixing_time"] == "36"


def test_mix_honours_clamp(tmp_path):
    """A clamped middle vertex splits the 3-colorings of the 4-path into
    three closed classes, one per color it holds."""
    out = tmp_path / "o"
    assert main(["mix", "--n", "4", "--q", "3", "--clamp", "2", "--out", str(out)]) == 0
    kv = dict(l.split(" = ") for l in body_lines(out / "mix.txt"))
    assert kv["ergodic"] == "False" and kv["n_classes"] == "3"
    assert [kv[f"class_{i}_size"] for i in range(3)] == ["8", "8", "8"]


@pytest.mark.parametrize("flag", ["--h-file", "--clamp", "--graph-file"])
def test_couple_refuses_models_outside_the_path(tmp_path, capsys, flag):
    """couple builds its spec from every model flag, and the coalescence
    runs, which start from proper colorings of the path, refuse an
    H-coloring model, a clamped path and a star."""
    (tmp_path / "h.txt").write_text(H_FILES["c5.h"])
    (tmp_path / "star.g").write_text("1 2\n1 3\n1 4\n")
    value = {"--h-file": str(tmp_path / "h.txt"), "--clamp": "2",
             "--graph-file": str(tmp_path / "star.g")}[flag]
    out = tmp_path / "o"
    # the star file sets n
    n = [] if flag == "--graph-file" else ["--n", "4"]
    assert main(["couple", *n, flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "proper colorings of the path" in err, err
    assert not out.exists()


def test_couple_reads_a_path_graph_file(tmp_path):
    """A --graph-file listing the path's edges runs the path of --n."""
    (tmp_path / "path.g").write_text("1 2\n2 3\n3 4\n4 5\n")
    for name, model in (("n", ["--n", "5"]), ("file", ["--graph-file", str(tmp_path / "path.g")])):
        argv = ["couple", *model, "--replicates", "6", "--out", str(tmp_path / name)]
        assert main(argv) == 0
    assert body_lines(tmp_path / "n" / "couple.csv") == body_lines(tmp_path / "file" / "couple.csv")


def test_percolate_small(tmp_path):
    out = tmp_path / "o"
    rc = main([
        "percolate", "--n", "2000", "--q", "4", "--r", "2", "--ell", "10",
        "--t", "1", "--replicates", "40", "--out", str(out),
    ])
    assert rc == 0
    rows = body_lines(out / "percolate.csv")
    assert rows[0] == "t,free_tail,clamped_tail,disagreement_rate,tv_lower_estimate"
    kv = dict(l.split(" = ") for l in body_lines(out / "percolate.txt"))
    assert kv["overridden"] == "True"


def test_compare_and_h_file(tmp_path):
    hfile = tmp_path / "h.txt"
    hfile.write_text("011\n101\n110\n")
    out = tmp_path / "o"
    assert main(["compare", "--n", "4", "--h-file", str(hfile), "--out", str(out)]) == 0
    kv = dict(l.split(" = ") for l in body_lines(out / "compare.txt"))
    assert kv["site_le_sweep_ok"] == "True" and kv["sweep_le_site_ok"] == "True"


def test_ergodic_directed_h_file(tmp_path):
    hfile = tmp_path / "h.txt"
    hfile.write_text("010\n001\n100\n")
    out = tmp_path / "o"
    assert main([
        "ergodic", "--n", "5", "--h-file", str(hfile), "--directed",
        "--bottleneck-k", "2", "--out", str(out),
    ]) == 0
    kv = dict(l.split(" = ") for l in body_lines(out / "ergodic.txt"))
    assert kv["n_classes"] == "3"
    assert "bottleneck_bound" in kv


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 5\nq = 3\nchain = scan\n")
    out = tmp_path / "o"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    eigs = body_lines(out / "spectrum.csv")
    assert len(eigs) == 48  # n=5 proper 3-colorings
    out2 = tmp_path / "o2"
    assert main(["spectrum", "--config", str(cfg), "--n", "4", "--out", str(out2)]) == 0
    assert len(body_lines(out2 / "spectrum.csv")) == 24  # flag beat the file


def test_invalid_config_field_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_field = 3\n")
    assert main(["spectrum", "--config", str(cfg)]) == 2
    assert "no_such_field" in capsys.readouterr().err


@pytest.mark.parametrize("text,named", [
    ("n = abc\n", "'abc'"),
    ("clamp = 1 x\n", "'1 x'"),
    (None, "cannot read"),
    ("directed = flase\n", "config: invalid value 'flase' for field 'directed'"),
], ids=["wrong type", "malformed list", "missing file", "misspelt boolean"])
def test_config_faults_exit_2(tmp_path, capsys, text, named):
    """A config value of the wrong type, a malformed list, a missing config
    file and an on/off value other than 1/0, true/false or yes/no each exit
    2 with a config: message, not a traceback or a silent False."""
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and named in err, err
    assert not out.exists()


def test_mismatched_layout_override_fails(tmp_path, capsys):
    assert main(["percolate", "--r", "2", "--out", str(tmp_path)]) == 2
    assert "--ell" in capsys.readouterr().err


def test_percolate_refuses_a_zero_r_override(tmp_path, capsys):
    """--r 0 is an override that the layout refuses, not a request for the
    recipe layout."""
    out = tmp_path / "o"
    assert main(["percolate", "--r", "0", "--ell", "10", "--out", str(out)]) == 2
    assert "positive even" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sub", ["mix", "wilson", "compare"])
def test_non_positive_eps_exits_2(tmp_path, capsys, sub):
    for eps in ("0", "-0.5", "nan"):
        out = tmp_path / eps
        assert main([sub, f"--eps={eps}", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --eps must be positive")
        assert not out.exists()


@pytest.mark.parametrize("sub", ["mix", "wilson", "compare"])
def test_eps_above_1_exits_2(tmp_path, capsys, sub):
    # TV is at most 1, so such an eps mixes at t = 1 and turns compare's
    # ln(1 / eps) bounds negative
    for eps in ("1.5", "100", "inf"):
        out = tmp_path / eps
        assert main([sub, "--n", "3", f"--eps={eps}", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --eps above 1 ")
        assert not out.exists()


def test_mix_nonergodic_writes_classes(tmp_path):
    hfile = tmp_path / "h.txt"
    hfile.write_text("010\n001\n100\n")
    out = tmp_path / "o"
    assert main(["mix", "--n", "4", "--h-file", str(hfile), "--directed", "--out", str(out)]) == 0
    kv = dict(l.split(" = ") for l in body_lines(out / "mix.txt"))
    assert kv["ergodic"] == "False" and kv["n_classes"] == "3"


C5 = TargetGraph.from_text(H_FILES["c5.h"])
MIX_LADDER_JOBS = {
    "mix --n 5": ChainSpec(graph=Graph.path(5), q=3),
    "mix --n 5 --chain scan": ChainSpec(graph=Graph.path(5), q=3, base="scan"),
    "mix --n 4 --q 4 --chain lazy": ChainSpec(graph=Graph.path(4), q=4, base="lazy"),
    "mix --n 5 --eps 1.0": ChainSpec(graph=Graph.path(5), q=3),
    "mix --n 4 --h-file c5.h --eps 0.1": ChainSpec(graph=Graph.path(4), target=C5),
}


@pytest.mark.parametrize("job", MIX_LADDER_JOBS)
def test_mix_csv_matches_recomputed_ladder(tmp_path, job):
    """mix.csv lists max TV at t = 1, 2, 4, ... <= t_mix; the rows are
    recomputed here by squaring the dense kernel from scratch."""
    (tmp_path / "c5.h").write_text(H_FILES["c5.h"])
    argv = [str(tmp_path / a) if a in H_FILES else a for a in job.split()]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 0
    kv = dict(l.split(" = ") for l in body_lines(out / "mix.txt"))
    t_mix = int(kv["mixing_time"])
    rows, t, M = [], 1, build_kernel(MIX_LADDER_JOBS[job]).dense()
    while t <= t_mix:
        rows.append(f"{t},{max_tv_to_uniform(M):.15g}")
        M = M @ M
        t *= 2
    assert body_lines(out / "mix.csv") == ["t,max_tv"] + rows
    if "--eps 1.0" in job:
        assert t_mix == 1 and len(rows) == 1


def test_mix_nonergodic_class_sizes_in_kosaraju_order(tmp_path):
    hfile = tmp_path / "directed.h"
    hfile.write_text(DIRECTED_H)
    out = tmp_path / "o"
    assert main(["mix", "--n", "4", "--h-file", str(hfile), "--directed", "--out", str(out)]) == 0
    kv = dict(l.split(" = ") for l in body_lines(out / "mix.txt"))
    H = TargetGraph.from_text(DIRECTED_H, directed=True)
    K = build_kernel(ChainSpec(graph=Graph.path(4), target=H))
    classes = communicating_classes(K.indptr, K.indices)
    sizes = [int(kv[f"class_{i}_size"]) for i in range(int(kv["n_classes"]))]
    assert kv["ergodic"] == "False"
    assert sizes == [len(c) for c in classes] == [4, 2, 1, 2]


def test_mix_refuses_an_eps_below_the_tv_floor(tmp_path, capsys):
    """No float64 power of P reaches max TV 1e-300, so the doubling ladder
    stops at the first rung whose distance rises with a clean error instead
    of a traceback."""
    out = tmp_path / "o"
    assert main(["mix", "--n", "4", "--eps", "1e-300", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no mixing to eps=1e-300: max TV rose from"), err
    assert not out.exists()


# A value for each flag, and a target graph and a path for the file flags.
FLAG_VALUES = {
    "n": "4", "q": "3", "h_file": "c5.h", "graph_file": "path.g", "chain": "scan",
    "clamp": "2", "replicates": "5", "eps": "0.1", "coupling": "q4_scan", "t": "2",
    "r": "2", "ell": "4", "bottleneck_k": "2",
}


def flag_argv(tmp_path, dest):
    (tmp_path / "c5.h").write_text(H_FILES["c5.h"])
    (tmp_path / "path.g").write_text("1 2\n2 3\n3 4\n")
    flag = "--" + dest.replace("_", "-")
    if dest == "directed":
        return [flag]
    value = FLAG_VALUES[dest]
    return [flag, str(tmp_path / value) if value.endswith((".h", ".g")) else value]


@pytest.mark.parametrize("sub, dest", [
    ("drift", "clamp"), ("congestion", "graph_file"), ("ergodic", "q"),
    ("compare", "chain"), ("wilson", "q"), ("spectrum", "replicates"),
    ("mix", "coupling"), ("couple", "eps"), ("percolate", "h_file"),
])
def test_unread_flag_is_refused(tmp_path, capsys, sub, dest):
    """A flag that the subcommand does not read would be written into every
    header and then ignored; it exits 2 before any file is written."""
    out = tmp_path / "o"
    assert main([sub, *flag_argv(tmp_path, dest), "--out", str(out)]) == 2
    flag = dest.replace("_", "-")
    assert capsys.readouterr().err == f"error: {sub} does not read --{flag}\n"
    assert not out.exists()


def test_every_unread_flag_is_refused(tmp_path, capsys):
    dests = [a.dest for a in _build_parser()._actions
             if a.option_strings and a.dest not in ("help", "seed", "out", "config")]
    refused = 0
    for sub, entry in SUBCOMMANDS.items():
        for dest in dests:
            if dest in entry.reads:
                continue
            out = tmp_path / f"{sub}-{dest}"
            assert main([sub, *flag_argv(tmp_path, dest), "--out", str(out)]) == 2, (sub, dest)
            flag = dest.replace("_", "-")
            assert capsys.readouterr().err == f"error: {sub} does not read --{flag}\n"
            assert not out.exists()
            refused += 1
    assert refused == 74


def test_unread_config_key_is_refused(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 5\neps = 0.1\n")
    out = tmp_path / "o"
    assert main(["drift", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: drift does not read --eps\n"
    assert not out.exists()


@pytest.mark.parametrize("extra, named", [
    (["--q", "5", "--h-file"], "--q and --h-file"),
    (["--directed"], "--directed"),
    (["--n", "7", "--graph-file"], "--n and --graph-file"),
], ids=["q with h-file", "directed without h-file", "n with graph-file"])
def test_conflicting_model_flags_are_refused(tmp_path, capsys, extra, named):
    """H sets the colors, so --q beside --h-file would be ignored, and so
    would --directed with no H to read; the graph file sets n, so --n beside
    it would be written into the header and ignored."""
    (tmp_path / "c5.h").write_text(H_FILES["c5.h"])
    (tmp_path / "p3.g").write_text("1 2\n2 3\n")
    if extra[-1] == "--h-file":
        extra = extra + [str(tmp_path / "c5.h")]
    if extra[-1] == "--graph-file":
        extra = extra + [str(tmp_path / "p3.g")]
    out = tmp_path / "o"
    assert main(["spectrum", *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err
    assert not out.exists()


@pytest.mark.parametrize("clamp", ["2", "1 2"])
def test_config_clamp_matches_the_flag(tmp_path, clamp):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"clamp = {clamp}\n")
    a, b = tmp_path / "file", tmp_path / "flag"
    assert main(["spectrum", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["spectrum", "--clamp", *clamp.split(), "--out", str(b)]) == 0
    assert sorted(os.listdir(a)) == sorted(os.listdir(b)) == ["spectrum.csv", "spectrum.txt"]
    for name in os.listdir(a):
        assert read(a / name) == read(b / name), name


# helpers whose args reads count as the reads of the handler that calls them
ARGS_HELPERS = ("_spec_from_args", "_graph_from_args", "_target_from_args")


def args_reads(name, seen=()):
    """The ``args.*`` attributes that function ``name`` of the cli module
    reads, itself or through the helpers it calls."""
    tree = ast.parse(inspect.getsource(getattr(cli, name)))
    reads = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ARGS_HELPERS and node.func.id not in seen):
            reads |= args_reads(node.func.id, seen + (name,))
    return reads


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_subcommand_table_lists_the_handler_reads(sub):
    """The table's flags are exactly those the handler reads (the seed is
    read by every subcommand), and its defaults set only those."""
    entry = SUBCOMMANDS[sub]
    assert entry.handler.__name__ == f"cmd_{sub}"
    assert args_reads(entry.handler.__name__) - {"seed"} == set(entry.reads)
    assert set(entry.defaults) <= set(entry.reads)


def test_every_flag_is_read_by_some_subcommand():
    dests = {a.dest for a in _build_parser()._actions} - {
        "help", "subcommand", "out", "config", "seed"}
    assert dests == set().union(*(entry.reads for entry in SUBCOMMANDS.values()))


# argv tails and file texts of models with no coloring; "MODEL" names the file
EMPTY_MODELS = {
    # no proper 2-coloring of an odd cycle, and none by the directed 3-cycle
    "triangle": (["--graph-file", "MODEL", "--q", "2"], "1 2\n2 3\n1 3\n"),
    # the only arc is 1 -> 0, so no 3-path has an H-coloring
    "directed": (["--n", "3", "--directed", "--h-file", "MODEL"], "00\n10\n"),
}


def model_argv(tmp_path, flags, text):
    model = tmp_path / "model.txt"
    model.write_text(text)
    return [str(model) if a == "MODEL" else a for a in flags]


@pytest.mark.parametrize("model", EMPTY_MODELS)
@pytest.mark.parametrize("sub", [
    ["spectrum"], ["spectrum", "--chain", "scan"], ["mix"], ["compare"], ["ergodic"],
])
def test_exact_commands_refuse_an_empty_model(tmp_path, capsys, sub, model):
    """A model with no state exits 2 with an error naming it and writes
    nothing, in every exact command (ergodic reads no --q: it colors the
    triangle by its directed 3-cycle, which has no coloring of it either)."""
    flags, text = EMPTY_MODELS[model]
    if sub == ["ergodic"] and "--q" in flags:
        flags = flags[:-2]
    out = tmp_path / "o"
    assert main(sub + model_argv(tmp_path, flags, text) + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the 3-vertex ") and "so the chain has no states" in err, err
    assert not out.exists()


@pytest.mark.parametrize("flags, text", [
    (["--graph-file", "MODEL", "--q", "2"], "1 2\n2 3\n3 4\n1 4\n"),  # C4: both 2-colorings frozen
    (["--n", "2", "--directed", "--h-file", "MODEL"], "000\n001\n100\n"),
    # reducible too, though its sweep constant rounds to 2.2e-16 rather than 0
    (["--n", "2", "--directed", "--h-file", "MODEL"], "001\n100\n001\n"),
])
def test_compare_refuses_a_non_ergodic_sweep_chain(tmp_path, capsys, flags, text):
    """A scan chain with several communicating classes has Poincare
    constant 0, so no comparison bound follows: exit 2, naming the chain."""
    out = tmp_path / "o"
    assert main(["compare"] + model_argv(tmp_path, flags, text) + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the scan sweep chain is not ergodic"), err
    assert not out.exists()


def small_targets():
    """Every 0/1 matrix on 1-3 colors, one per class under color relabelling
    (one permutation applied to rows and columns alike), as (file text,
    whether the matrix is asymmetric)."""
    for h in (1, 2, 3):
        perms = list(itertools.permutations(range(h)))
        seen = set()
        for bits in itertools.product((0, 1), repeat=h * h):
            A = np.array(bits).reshape(h, h)
            key = min(A[np.ix_(p, p)].tobytes() for p in perms)
            if key not in seen:
                seen.add(key)
                yield "".join("".join(map(str, row)) + "\n" for row in A), bool((A != A.T).any())


EXACT_RUNS = (["spectrum"], ["spectrum", "--chain", "scan"], ["mix"], ["compare"])
SWEEP_GRAPHS = {
    "C4": "1 2\n2 3\n3 4\n1 4\n",
    "triangle": "1 2\n2 3\n1 3\n",
    "star": "1 2\n1 3\n1 4\n",
    "K4": "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n",
    "edge": "1 2\n",
}


def test_exact_commands_answer_or_refuse_every_small_model(tmp_path, capsys):
    """Each exact command on every H on 1-3 colors (up to relabelling; read
    undirected, and directed too when asymmetric) for n = 1..3, and on small
    graph files with 2-4 colors: exit 0, 1 where the command documents it
    (compare, when an inequality fails) or 2 with an error, never an
    uncaught exception."""
    model, out = tmp_path / "model.txt", str(tmp_path / "o")
    runs = []
    for text, asymmetric in small_targets():
        for directed in ([], ["--directed"]) if asymmetric else ([],):
            for n in ("1", "2", "3"):
                tail = ["--n", n, "--h-file", str(model), *directed]
                runs += [(text, sub + tail) for sub in EXACT_RUNS + (["congestion"], ["ergodic"])]
    for text in SWEEP_GRAPHS.values():
        tail = ["--graph-file", str(model)]
        runs += [(text, sub + tail + ["--q", q]) for sub in EXACT_RUNS for q in ("2", "3", "4")]
        runs.append((text, ["ergodic", *tail]))
    faults = []
    for text, argv in runs:
        model.write_text(text)
        try:
            rc = main(argv + ["--out", out])
        except Exception as exc:  # any escape is a finding; collect them all
            faults.append((text, argv[:3], repr(exc)))
            continue
        err = capsys.readouterr().err
        if not (rc == 0 or (rc == 1 and argv[0] == "compare")
                or (rc == 2 and err.startswith("error: "))):
            faults.append((text, argv[:3], rc, err))
    # 2 + 10 + 104 classes of H (88 of them asymmetric), 3 lengths, 6 runs;
    # 5 graph files with 4 runs at 3 color counts and one ergodic run
    assert len(runs) == (116 + 88) * 3 * 6 + 5 * 13
    assert not faults, faults[:5]
