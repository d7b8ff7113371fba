"""Experiment driver with deterministic, machine-readable outputs.

Every subcommand writes key-value text and/or CSV files into the output
directory; each file starts with a header carrying the artifact version, a
hash of the effective configuration, and the seed, so identical
configurations produce byte-identical outputs.  A flat key-value config file
can pre-set any flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from . import __version__
from .congestion import (
    bottleneck_report,
    canonical_congestion,
    directed_cycle,
    ergodicity_report,
)
from .coupling import (
    LEMMA_IDS,
    Ledger,
    coupling_time,
    hamming_contraction_rows,
    weighted_metric_contraction_rows,
)
from .domain import Graph, TargetGraph
from .dynamics import DEFAULT_SEED, ChainSpec, RandomTape
from .kernels import (
    NonErgodicError,
    build_kernel,
    build_sign_kernel,
    poincare_constant,
    tv_mixing_time,
    verify_comparison,
)
from .percolation import lb_experiment, segment_layout
from .wilson import wilson_bounds

def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


class Report:
    """Accumulates output files and writes them with deterministic headers."""

    def __init__(self, config: dict, out_dir: str):
        self.config = config
        self.out_dir = out_dir
        items = ",".join(f"{k}={_fmt(v)}" for k, v in sorted(config.items()))
        self.config_hash = hashlib.sha256(items.encode()).hexdigest()[:12]

    def header(self) -> str:
        lines = [
            f"# artifact: scanmix {__version__}",
            f"# config-hash: {self.config_hash}",
            f"# seed: {self.config.get('seed', DEFAULT_SEED)}",
        ]
        for k, v in sorted(self.config.items()):
            if k != "seed":
                lines.append(f"# {k}: {_fmt(v)}")
        return "\n".join(lines) + "\n"

    def write(self, name: str, body: str | Iterable[bytes]) -> str:
        """Write the header, then ``body``: text, or byte chunks written as
        they come."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        with open(path, "w") as fh:
            fh.write(self.header())
            if isinstance(body, str):
                fh.write(body)
            else:
                fh.flush()
                for chunk in body:
                    fh.buffer.write(chunk)
        return path


def _kv_block(pairs) -> str:
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in pairs)


def _target_from_args(args) -> Optional[TargetGraph]:
    if args.h_file:
        with open(args.h_file) as fh:
            return TargetGraph.from_text(fh.read(), directed=args.directed)
    return None


def _graph_from_args(args) -> Graph:
    if args.graph_file:
        with open(args.graph_file) as fh:
            return Graph.from_text(fh.read())
    return Graph.path(args.n)


def _spec_from_args(args) -> ChainSpec:
    """The --chain chain on --graph-file (else the path of --n), colored by
    --h-file (else --q colors), with the --clamp vertices clamped."""
    g = _graph_from_args(args)
    target = _target_from_args(args)
    base = "reverse_scan" if args.chain == "reverse" else args.chain
    return ChainSpec(graph=g, q=None if target else args.q, target=target,
                     base=base, clamp=args.clamp)


def _refuse_empty(n_states: int, g: Graph, target: Optional[TargetGraph], q: Optional[int]) -> None:
    """Refuse a model with no coloring (colored by ``target``, else by q
    colors): no exact command has a chain to report on.  The library keeps
    returning empty kernels and reports."""
    if n_states:
        return
    coloring = f"proper {q}-coloring" if target is None else (
        f"H-coloring (H: {target.h} colors{', directed' if target.directed else ''})")
    graph = f"{g.n}-vertex {'path' if g.kind == 'path' else 'graph'}"
    raise ValueError(f"the {graph} has no {coloring}, so the chain has no states")


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_spectrum(args, report: Report) -> int:
    spec = _spec_from_args(args)
    g = spec.graph
    kernel = build_kernel(spec)
    _refuse_empty(len(kernel.states), g, spec.target, spec.q)
    rep = poincare_constant(kernel)
    lines = [f"{v:.15g}" for v in rep.eigenvalues]
    report.write("spectrum.csv", "\n".join(lines) + "\n")
    pairs = [
        ("n_states", len(kernel.states)),
        ("poincare", rep.poincare),
        ("beta_min", rep.beta_min),
        ("row_sums_exact", kernel.row_sums_exact()),
        ("uniform_stationary", kernel.uniform_is_stationary()),
        ("small_n_caveat", g.small_n_caveat),
    ]
    if spec.q == 3 and g.kind == "path" and spec.base in ("glauber", "scan") and not spec.clamp:
        # the sign chain: the exact lumping of this kernel by the sign projection
        lumped = build_sign_kernel(spec.base, g.n)
        pairs += [
            ("sign_lumped_states", len(lumped.states)),
            ("sign_lumped_poincare", poincare_constant(lumped).poincare),
        ]
    report.write("spectrum.txt", _kv_block(pairs))
    print(f"spectrum: {len(kernel.states)} states, poincare = {rep.poincare:.12g}")
    return 0


def cmd_mix(args, report: Report) -> int:
    spec = _spec_from_args(args)
    kernel = build_kernel(spec)
    _refuse_empty(len(kernel.states), spec.graph, spec.target, spec.q)
    ladder: list[tuple[int, float]] = []
    try:
        t_mix = tv_mixing_time(kernel, args.eps, ladder=ladder)
    except NonErgodicError as exc:
        body = _kv_block(
            [("ergodic", False), ("n_classes", len(exc.classes))]
            + [(f"class_{i}_size", len(c)) for i, c in enumerate(exc.classes)]
        )
        report.write("mix.txt", body)
        print("mix: chain is not ergodic; class sizes written")
        return 0
    rows = [f"{t},{tv:.15g}" for t, tv in ladder if t <= t_mix]
    report.write("mix.csv", "t,max_tv\n" + "\n".join(rows) + "\n")
    report.write(
        "mix.txt",
        _kv_block(
            [("eps", args.eps), ("mixing_time", t_mix), ("n_states", len(kernel.states))]
        ),
    )
    print(f"mix: Mix({args.eps}) = {t_mix} ({len(kernel.states)} states)")
    return 0


def cmd_wilson(args, report: Report) -> int:
    base = args.chain
    if base not in ("glauber", "scan"):
        raise ValueError(f"wilson: --chain must be glauber or scan, not {base}")
    tape = RandomTape(args.seed)
    rep = wilson_bounds(base, args.n, tape=tape, trials=args.replicates)
    report.write(
        "wilson_w.csv",
        "i,w_i\n" + "\n".join(f"{i + 1},{w:.15g}" for i, w in enumerate(rep.w)) + "\n",
    )
    report.write(
        "wilson.txt",
        _kv_block(
            [
                ("kind", rep.kind),
                ("n", rep.n),
                ("lambda", rep.lam),
                ("c_n", rep.c_n),
                ("phi0", rep.phi0),
                ("rho", rep.rho),
                ("rho_is_empirical", rep.rho_is_empirical),
                ("max_increment", rep.max_increment),
                ("nu", rep.nu),
                ("lower_bound_half", rep.lower_bound),
                ("upper_bound_eps", rep.upper_bound(args.eps)),
                ("asymptotic_reference", rep.asymptotic_reference),
            ]
        ),
    )
    print(
        f"wilson: {base} n={args.n} lambda={rep.lam:.12g} "
        f"lower={rep.lower_bound:.6g} upper({args.eps})={rep.upper_bound(args.eps):.6g}"
    )
    return 0


def _decimal(col: np.ndarray) -> np.ndarray:
    """Decimal text of an integer column as a (width, rows) uint8 matrix: row
    r's text reads down column r, right-aligned, NUL-padded, with '-' before
    negatives."""
    neg = col < 0
    mag = np.abs(col)
    top = int(mag.max(initial=0))
    mag = mag.astype(np.uint32 if top < 2 ** 32 else np.uint64)
    digits = len(str(top))
    width = digits + int(neg.any())
    out = np.zeros((width, len(col)), dtype=np.uint8)
    length = np.zeros(len(col), dtype=np.intp)
    for j in range(width - 1, width - 1 - digits, -1):
        # the units digit is always written, so a lone 0 stays
        live = mag > 0 if j < width - 1 else True
        mag, digit = np.divmod(mag, 10)
        out[j] = (digit + ord("0")) * live
        length += live
    rows = np.flatnonzero(neg)
    out[width - 1 - length[rows], rows] = ord("-")
    return out


# Ledger rows rendered at once: a chunk's byte matrix and its copies stay
# near 0.5 MB each, where one matrix of a 1.65M-row ledger took 100 MB.
CSV_CHUNK_ROWS = 2 ** 13


def _drift_csv(ledger: Ledger) -> Iterator[bytes]:
    """drift.csv's body: the column names, then the rows in chunks of
    ``CSV_CHUNK_ROWS``, each rendered by ``_csv_rows`` when asked for."""
    yield b"lemma_id,n,pair_index,exact_drift_num,exact_drift_den,bound,pass\n"
    for lo in range(0, len(ledger), CSV_CHUNK_ROWS):
        yield _csv_rows(ledger[lo:lo + CSV_CHUNK_ROWS])


def _csv_rows(ledger: Ledger) -> bytes:
    """The CSV lines of the ledger's rows.  Every field of every row is
    written NUL-padded into one uint8 matrix, one matrix row per CSV row;
    dropping the NULs (which the CSV never contains) joins the fields."""
    prefixes = [f"{lemma},{ledger.n},".encode() for lemma in LEMMA_IDS]
    table = np.zeros((max(map(len, prefixes)), len(prefixes)), dtype=np.uint8)
    for k, prefix in enumerate(prefixes):
        table[: len(prefix), k] = np.frombuffer(prefix, dtype=np.uint8)
    a, b, c, d = ledger.lowest_terms()

    def byte(ch: str) -> np.ndarray:
        return np.full((1, len(ledger)), ord(ch), dtype=np.uint8)

    m = np.vstack([
        table[:, ledger.lemma], _decimal(ledger.pair_index), byte(","),
        _decimal(a), byte(","), _decimal(b), byte(","),
        _decimal(c), byte("/"), _decimal(d), byte(","),
        ledger.passed.view(np.uint8)[None] + np.uint8(ord("0")), byte("\n"),
    ]).T.copy()
    return m[m != 0].tobytes()


def cmd_drift(args, report: Report) -> int:
    if args.q == 3:
        ledger = weighted_metric_contraction_rows(args.n)
    else:
        ledger = hamming_contraction_rows(args.n, args.q)
    report.write("drift.csv", _drift_csv(ledger))
    n_fail = len(ledger) - int(ledger.passed.sum())
    report.write(
        "drift.txt",
        _kv_block([("rows", len(ledger)), ("failures", n_fail), ("q", args.q), ("n", args.n)]),
    )
    print(f"drift: {len(ledger)} rows, {n_fail} failures")
    return 0 if n_fail == 0 else 1


def cmd_couple(args, report: Report) -> int:
    kind = args.coupling
    stats = coupling_time(_spec_from_args(args), kind, args.replicates, RandomTape(args.seed))
    body = ["replicate,time,censored"]
    for i, (t, apart) in enumerate(zip(stats.times, stats.apart)):
        body.append(f"{i},{t},{int(apart)}")
    report.write("couple.csv", "\n".join(body) + "\n")
    report.write(
        "couple.txt",
        _kv_block(
            [
                ("coupling", kind),
                ("replicates", args.replicates),
                ("median", stats.median),
                ("mean", stats.mean),
                ("q90", stats.quantile(0.9)),
                ("censored", stats.censored),
                ("horizon", stats.horizon),
            ]
        ),
    )
    print(f"couple: median={stats.median} mean={stats.mean:.3g} censored={stats.censored}")
    return 0


def cmd_percolate(args, report: Report) -> int:
    layout = segment_layout(
        args.n, args.q, override=(args.r, args.ell) if args.r is not None else None
    )
    base = args.chain
    if base not in ("glauber", "scan"):
        raise ValueError(f"percolate: --chain must be glauber or scan, not {base}")
    tape = RandomTape(args.seed)
    rep = lb_experiment(layout, args.t, args.replicates, tape, base=base)
    head = _kv_block(
        [
            ("n", layout.n),
            ("q", layout.q),
            ("r", layout.r),
            ("ell", layout.ell),
            ("k", layout.k),
            ("m", layout.m),
            ("overridden", layout.overridden),
            ("threshold", layout.threshold),
            ("percolation_contained", rep.percolation_contained),
        ]
    )
    csv = (
        "t,free_tail,clamped_tail,disagreement_rate,tv_lower_estimate\n"
        f"{rep.t},{rep.free_tail:.12g},{rep.clamped_tail:.12g},"
        f"{rep.disagreement_rate:.12g},{rep.tv_lower_estimate:.12g}\n"
    )
    report.write("percolate.txt", head)
    report.write("percolate.csv", csv)
    print(
        f"percolate: free_tail={rep.free_tail:.4g} clamped_tail={rep.clamped_tail:.4g} "
        f"disagreement={rep.disagreement_rate:.4g} tv>={rep.tv_lower_estimate:.4g}"
    )
    return 0


def cmd_compare(args, report: Report) -> int:
    g = _graph_from_args(args)
    given = _target_from_args(args)
    rep = verify_comparison(g, given or TargetGraph.clique(args.q), eps=args.eps)
    _refuse_empty(rep.n_states, g, given, args.q)
    report.write(
        "compare.txt",
        _kv_block(
            [
                ("n", rep.n),
                ("q", rep.q),
                ("max_degree", rep.max_degree),
                ("n_states", rep.n_states),
                ("trivial", rep.trivial),
                ("poincare_site", rep.poincare_site),
                ("poincare_sweep", rep.poincare_sweep),
                ("site_factor", rep.site_factor),
                ("site_le_sweep_ok", rep.site_le_sweep_ok),
                ("site_slack", rep.site_slack),
                ("sweep_factor", rep.sweep_factor),
                ("sweep_le_site_ok", rep.sweep_le_site_ok),
                ("sweep_slack", rep.sweep_slack),
                ("continuized_sweep_bound", rep.continuized_sweep_bound),
                ("lazy_site_bound", rep.lazy_site_bound),
                ("sweep_mix_at_1_over_e", rep.sweep_mix_at_1_over_e),
                ("mix_square_bound_ok", rep.mix_square_bound_ok),
            ]
        ),
    )
    ok = rep.site_le_sweep_ok and rep.sweep_le_site_ok
    print(f"compare: both inequalities hold = {ok}")
    return 0 if ok else 1


def cmd_congestion(args, report: Report) -> int:
    target = _target_from_args(args) or TargetGraph.clique(args.q)
    rep = canonical_congestion(args.n, target)
    if not rep.paths_valid:
        raise ValueError("canonical paths take moves that H does not allow, so no bound follows")
    report.write(
        "congestion.txt",
        _kv_block(
            [
                ("n", rep.n),
                ("t", rep.t),
                ("n_states", rep.n_states),
                ("congestion", rep.congestion),
                ("poincare_lower_bound", rep.poincare_lower_bound),
                ("max_paths_through_edge", rep.max_paths_through_edge),
                ("max_path_length", rep.max_path_length),
                ("length_bound", rep.length_bound),
                ("encoding_bound", rep.encoding_bound),
                ("paths_valid", rep.paths_valid),
            ]
        ),
    )
    print(f"congestion: t={rep.t} A={rep.congestion} valid={rep.paths_valid}")
    return 0


def cmd_ergodic(args, report: Report) -> int:
    g = _graph_from_args(args)
    target = _target_from_args(args)
    pairs = []
    if target is None:
        target = directed_cycle(3)
        pairs.append(("target", "directed-3-cycle"))
    rep = ergodicity_report(g, target)
    _refuse_empty(rep.n_states, g, target, None)
    pairs += [
        ("n_states", rep.n_states),
        ("n_classes", rep.n_classes),
        ("class_sizes", " ".join(map(str, rep.class_sizes))),
    ]
    b = bottleneck_report(args.bottleneck_k, args.n)
    pairs += [
        ("bottleneck_k", b.k),
        ("bottleneck_states", b.n_states),
        ("bottleneck_pi_a", b.pi_a),
        ("bottleneck_pi_m", b.pi_m),
        ("bottleneck_bound", b.bound),
    ]
    report.write("ergodic.txt", _kv_block(pairs))
    print(f"ergodic: {rep.n_classes} classes, sizes {rep.class_sizes}")
    return 0


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

class Subcommand(NamedTuple):
    handler: Callable[[argparse.Namespace, Report], int]
    reads: tuple[str, ...]  # the flags (argparse dests) the handler reads
    # where neither a flag nor the config file set a value; chosen so every
    # subcommand runs in seconds out of the box
    defaults: dict


MODEL_FLAGS = ("n", "q", "h_file", "directed", "graph_file", "chain", "clamp")
SUBCOMMANDS: dict[str, Subcommand] = {
    "spectrum": Subcommand(cmd_spectrum, MODEL_FLAGS, dict(n=4, q=3, chain="glauber")),
    "mix": Subcommand(cmd_mix, MODEL_FLAGS + ("eps",), dict(n=4, q=3, chain="glauber", eps=0.25)),
    "wilson": Subcommand(
        cmd_wilson, ("n", "chain", "replicates", "eps"),
        dict(n=12, chain="glauber", replicates=512, eps=0.25),
    ),
    "drift": Subcommand(cmd_drift, ("n", "q"), dict(n=6, q=3)),
    "couple": Subcommand(
        cmd_couple, MODEL_FLAGS + ("coupling", "replicates"),
        dict(n=32, q=4, chain="scan", coupling="q4_scan", replicates=48),
    ),
    "percolate": Subcommand(
        cmd_percolate, ("n", "q", "r", "ell", "t", "replicates", "chain"),
        dict(n=10000, q=4, r=2, ell=10, t=1, replicates=200, chain="scan"),
    ),
    "compare": Subcommand(
        cmd_compare, ("n", "q", "h_file", "directed", "graph_file", "eps"),
        dict(n=4, q=3, eps=0.25),
    ),
    "congestion": Subcommand(cmd_congestion, ("n", "q", "h_file", "directed"), dict(n=4, q=3)),
    "ergodic": Subcommand(
        cmd_ergodic, ("n", "h_file", "directed", "graph_file", "bottleneck_k"),
        dict(n=4, bottleneck_k=2),
    ),
}
# read by every subcommand: every header records the seed
ALWAYS_READ = ("subcommand", "seed", "out", "config")

# every flag's value where neither a flag, the config file nor the
# subcommand's defaults set it; every header lists the ones that are not None
GLOBAL_DEFAULTS: dict[str, object] = dict(
    n=4, q=3, h_file=None, directed=False, graph_file=None, chain="glauber", clamp=(),
    seed=DEFAULT_SEED, replicates=64, eps=0.25, out="out", config=None,
    coupling="q4_scan", t=1, r=None, ell=None, bottleneck_k=None,
)


def _build_parser() -> argparse.ArgumentParser:
    """Flags leave no attribute unless given, so the namespace holds exactly
    the flags on the command line; ``GLOBAL_DEFAULTS`` lists their defaults."""
    p = argparse.ArgumentParser(
        prog="scanmix",
        description="exact and empirical mixing analysis for single-site coloring dynamics",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("subcommand", choices=SUBCOMMANDS)
    p.add_argument("--n", type=int, help="path length / vertex count")
    p.add_argument("--q", type=int, help="number of colors (clique model)")
    p.add_argument("--h-file", help="target graph as 0/1 adjacency rows")
    p.add_argument("--directed", action="store_true", help="read --h-file as directed")
    p.add_argument("--graph-file", help="underlying graph as an edge list")
    p.add_argument("--chain", choices=("glauber", "scan", "reverse", "lazy"))
    p.add_argument("--clamp", type=int, nargs="*", help="clamped vertex ids")
    p.add_argument("--seed", type=int)
    p.add_argument("--replicates", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--coupling", help="coupling kind for couple")
    p.add_argument("--t", type=int, help="time horizon (percolate)")
    p.add_argument("--r", type=int, help="segment override r (percolate)")
    p.add_argument("--ell", type=int, help="segment override ell (percolate)")
    p.add_argument("--bottleneck-k", type=int, help="two-clique hub size")
    return p


def _read_config(parser: argparse.ArgumentParser, path: str) -> dict:
    """The config file's values by flag dest, converted as the flag would be."""
    actions = {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise SystemExit(f"config: cannot read {path!r}: {exc.strerror}")
    values = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit(f"config: malformed line {line!r}")
        key, raw = (x.strip() for x in line.split("=", 1))
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise SystemExit(f"config: unknown field {key!r}")
        try:
            if action.nargs == "*":
                value = [action.type(x) for x in raw.split()]
            elif isinstance(action, argparse._StoreTrueAction):
                # an on/off value is one of three false spellings or three true ones
                value = ("0", "false", "no", "1", "true", "yes").index(raw.lower()) >= 3
            else:
                value = raw if action.type is None else action.type(raw)
            if action.choices is not None and value not in action.choices:
                raise ValueError
        except ValueError:
            raise SystemExit(f"config: invalid value {raw!r} for field {action.dest!r}")
        values[action.dest] = value
    return values


def _refusal(given: dict) -> Optional[str]:
    """Why the given flags and config keys describe no run that the
    subcommand would do as written, or None."""
    name = given["subcommand"]
    reads = SUBCOMMANDS[name].reads
    for dest in given:
        if dest not in reads and dest not in ALWAYS_READ:
            return f"{name} does not read --{dest.replace('_', '-')}"
    if "q" in given and "h_file" in given:
        return "--q and --h-file exclude each other: H sets the colors"
    if given.get("directed") and "h_file" not in given:
        return "--directed reads --h-file, which is not given"
    if "n" in given and "graph_file" in given:
        return "--n and --graph-file exclude each other: the graph file sets n"
    if name == "wilson" and "replicates" in given:
        if given.get("chain", SUBCOMMANDS[name].defaults["chain"]) == "glauber":
            return "wilson --chain glauber reads no --replicates: its rho is exact, not sampled"
    if given.get("bottleneck_k", 1) < 1:
        return f"--bottleneck-k must be at least 1, not {given['bottleneck_k']}"
    if ("r" in given) != ("ell" in given):
        return "--r and --ell must be given together"
    if not given.get("eps", 1) > 0:
        return f"--eps must be positive, not {given['eps']}"
    if given.get("eps", 1) > 1:
        return f"--eps above 1 exceeds every TV distance, not {given['eps']}"
    return None


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        given = vars(parser.parse_args(argv))
        if "config" in given:
            # explicit flags win over the file
            given = {**_read_config(parser, given["config"]), **given}
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        return exc.code if exc.code is not None else 2
    refusal = _refusal(given)
    if refusal is not None:
        print(f"error: {refusal}", file=sys.stderr)
        return 2
    sub = SUBCOMMANDS[given["subcommand"]]
    args = argparse.Namespace(**{**GLOBAL_DEFAULTS, **sub.defaults, **given})
    config = {
        k: v
        for k, v in vars(args).items()
        if k not in ("out", "config") and v is not None
    }
    config["clamp"] = " ".join(map(str, args.clamp))
    report = Report(config, args.out)
    try:
        return sub.handler(args, report)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
