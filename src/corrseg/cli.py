"""Command-line surface: segment, test, correct, simulate, evaluate, power.

Every run writes its outputs plus a manifest.json recording the resolved
configuration, library version, and seed; reruns with the same flags
produce byte-identical files. Exit codes: 0 success, 1 a worker process
ended early (named with its exit code or signal), 2 ingestion failure
(unreadable or malformed input), 3 validation failure (readable input or
flags violating a contract).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, io
from .errors import CorrsegError, IngestionError, ValidationError
from .pipeline import (
    ChromosomeResult,
    correct_view,
    segment_all,
    segmentation_rows,
    split_by_chromosome,
    test_all,
)
from .core import build_gram_prefix, standardize
from .segment import segmentation_from_breakpoints
from .significance import power
from .simulate import (
    DEFAULT_RHO0,
    ChromosomeSpec,
    ScenarioSpec,
    annotation_rows,
    default_scenario,
    evaluate,
    generate,
)


@dataclass
class RunConfig:
    """Resolved knobs of one CLI invocation, as recorded in the manifest."""

    command: str
    input: str | None = None
    annotation: str | None = None
    covariate: str | None = None
    covariate_positions: str | None = None
    segmentation: str | None = None
    truth: str | None = None
    regions: str | None = None
    spec: str | None = None
    S: float = 0.7
    kmax: int | None = None
    min_seg: int = 1
    rule: str = "largest"
    alpha: float = 0.05
    adjust: str = "bh"
    rho0: float | None = None
    rho1: float = 0.7
    mode: str = "pooled"
    half_width: float = 0.0
    scenario: int = 1
    n: int = 58
    p: int = 500
    seed: int = 0
    transpose: bool = False
    json_out: bool = False
    trace: bool = False
    out: str = "."

    def validate(self) -> None:
        if not (np.isfinite(self.S) and self.S > 0):
            raise ValidationError(f"--S must be finite and positive, got {self.S}")
        if not (np.isfinite(self.half_width) and self.half_width >= 0):
            raise ValidationError(f"--half-width must be finite and >= 0, got {self.half_width}")
        if not 0 < self.alpha < 1:
            raise ValidationError(f"--alpha must lie in (0, 1), got {self.alpha}")
        if self.kmax is not None and self.kmax < 1:
            raise ValidationError(f"--kmax must be >= 1, got {self.kmax}")
        if self.min_seg < 1:
            raise ValidationError(f"--min-seg must be >= 1, got {self.min_seg}")
        if self.n < 3:
            raise ValidationError(f"--n must be >= 3, got {self.n}")
        for name in ("input", "annotation", "covariate", "covariate_positions",
                     "segmentation", "truth", "regions", "spec"):
            value = getattr(self, name)
            if value is not None and not Path(value).exists():
                raise ValidationError(f"--{name.replace('_', '-')}: no such file {value}")

    @property
    def background(self) -> float:
        """simulate's background correlation: --rho0, else DEFAULT_RHO0."""
        return DEFAULT_RHO0 if self.rho0 is None else self.rho0

    def manifest(self) -> dict:
        return {k: v for k, v in sorted(asdict(self).items())}


def _outdir(config: RunConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out

def _load_views(config: RunConfig):
    """The input matrix and its chromosome views. With an annotation the
    views are copies, so a command that reads only the views drops the
    matrix rather than keep it alive through every chromosome."""
    matrix = io.read_expression(config.input, transpose=config.transpose)
    annotation = io.read_annotation(config.annotation) if config.annotation else None
    return matrix, split_by_chromosome(matrix, annotation)


def cmd_segment(config: RunConfig) -> int:
    views = _load_views(config)[1]
    results = segment_all(
        views, S=config.S, k_max=config.kmax, rule=config.rule, min_seg_len=config.min_seg
    )
    out = _outdir(config)
    rows = segmentation_rows(results)
    io.write_segmentation(out / "segmentation.tsv", rows)
    if config.json_out:
        io.write_json(out / "segmentation.json", rows)
    if config.trace:
        io.write_json(out / "trace.json", io.trace_payload({r.name: r.trace for r in results}))
    io.write_manifest(out / "manifest.json", config.manifest())
    return 0


def cmd_test(config: RunConfig) -> int:
    views = _load_views(config)[1]
    bounds_by_chrom = io.read_segmentation(config.segmentation)
    known = {v.name for v in views}
    unknown = sorted(set(bounds_by_chrom) - known)
    if unknown:
        raise ValidationError(f"segmentation names unknown chromosome(s): {unknown}")
    absent = sorted(known - set(bounds_by_chrom))
    if absent:
        raise ValidationError(f"segmentation missing chromosome(s): {absent}")
    results = []
    for view in views:
        std = standardize(view.matrix)
        bounds = bounds_by_chrom[view.name]
        bps = [bounds[0][0]] + [b for _, b in bounds]
        if bps[0] != 0 or bps[-1] != std.p:
            raise ValidationError(
                f"chromosome {view.name!r}: segmentation covers genes "
                f"{bps[0] + 1}-{bps[-1]}, expected 1-{std.p}"
            )
        seg = segmentation_from_breakpoints(build_gram_prefix(std), std.n, bps)
        results.append(ChromosomeResult(view.name, std, seg, trace=None))
    reports = test_all(results, rho0=config.rho0, adjust=config.adjust, alpha=config.alpha)
    out = _outdir(config)
    io.write_regions(out / "regions.tsv", reports)
    if config.json_out:
        io.write_json(out / "regions.json", [vars(r) for r in reports])
    io.write_manifest(out / "manifest.json", config.manifest())
    return 0


def cmd_correct(config: RunConfig) -> int:
    matrix, views = _load_views(config)
    if config.covariate_positions:
        covariate = io.read_covariate_wide(config.covariate, config.covariate_positions)
    else:
        covariate = io.read_covariate_long(config.covariate)
    missing_chroms = sorted({v.name for v in views} - set(covariate))
    if missing_chroms:
        raise ValidationError(
            f"covariate has no probes for chromosome(s): {missing_chroms}"
        )
    corrected_values = np.array(matrix.values, copy=True)
    sidecar = {}
    for view in views:
        corrected, info = correct_view(
            view,
            covariate[view.name],
            mode=config.mode,
            S=config.S,
            k_max=config.kmax,
            half_width=config.half_width,
        )
        corrected_values[:, view.columns] = corrected.values
        sidecar[view.name] = info
    out = _outdir(config)
    io.write_matrix(out / "corrected.tsv", replace(matrix, values=corrected_values))
    io.write_json(out / "correction.json", sidecar)
    io.write_manifest(out / "manifest.json", config.manifest())
    return 0


def _spec_from_file(path: str, config: RunConfig) -> ScenarioSpec:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IngestionError(f"cannot read scenario spec {path}: {exc}") from exc
    try:
        chroms = tuple(
            ChromosomeSpec(
                c["name"],
                int(c["p"]),
                tuple((int(a) - 1, int(b)) for a, b in c.get("h1_blocks", [])),
            )
            for c in raw["chromosomes"]
        )
        rho0 = raw.get("rho0", config.background)
        if isinstance(rho0, list):
            rho0 = tuple(float(v) for v in rho0)
        return ScenarioSpec(
            chromosomes=chroms,
            rho0=rho0,
            rho1=float(raw.get("rho1", config.rho1)),
            n=int(raw.get("n", config.n)),
            seed=int(raw.get("seed", config.seed)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad scenario spec {path}: {exc}") from exc

def cmd_simulate(config: RunConfig) -> int:
    if config.spec:
        spec = _spec_from_file(config.spec, config)
    else:
        try:
            spec = default_scenario(
                scenario=config.scenario,
                rho0=config.background,
                rho1=config.rho1,
                n=config.n,
                seed=config.seed,
                p=config.p,
            )
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
    matrix = generate(spec)
    out = _outdir(config)
    io.write_matrix(out / "expression.tsv", matrix)
    io.write_rows(out / "annotation.tsv", ["gene", "chromosome", "start", "end"],
                  annotation_rows(spec))
    gene_ids = {c.name: c.gene_ids() for c in spec.chromosomes}
    io.write_truth(out / "truth.tsv", spec.truth_by_chromosome(), gene_ids)
    io.write_manifest(out / "manifest.json", config.manifest())
    return 0


def cmd_evaluate(config: RunConfig) -> int:
    truth = io.read_truth(config.truth)
    reports = io.read_regions(config.regions)
    result = evaluate(truth, reports)
    out = _outdir(config)
    for level, roc in (("gene", result.gene_level), ("region", result.region_level)):
        io.write_rows(out / f"roc_{level}.tsv", ["threshold", "tpr", "fpr"],
                      zip(roc.thresholds, roc.tpr, roc.fpr))
    io.write_rows(out / "auc.tsv", ["level", "auc"],
                  [["gene", result.gene_level.auc], ["region", result.region_level.auc]])
    if config.json_out:
        io.write_json(
            out / "evaluation.json",
            {
                "gene": {"auc": result.gene_level.auc},
                "region": {"auc": result.region_level.auc},
            },
        )
    io.write_manifest(out / "manifest.json", config.manifest())
    return 0


def _parse_grid(text: str, cast, flag: str, domain: str, ok) -> list:
    try:
        values = [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad grid {text!r}: {exc}") from exc
    for value in values:
        if not ok(value):
            raise ValidationError(f"{flag} values must {domain}, got {value}")
    return values

def cmd_power(config: RunConfig, n_grid: str, p_grid: str, rho_grid: str, alpha_grid: str) -> int:
    rho0 = config.rho0
    ns = _parse_grid(n_grid, int, "--n", "be >= 2", lambda n: n >= 2)
    ps = _parse_grid(p_grid, int, "--p", "be >= 1", lambda p: p >= 1)
    # compound symmetry is positive definite for -1/(p-1) < rho < 1
    in_range = "lie in (-1/(p-1), 1) for every --p"
    admissible = lambda r: r < 1 and all(p == 1 or -1 / (p - 1) < r for p in ps)
    rhos = _parse_grid(rho_grid, float, "--rho", in_range, admissible)
    if not admissible(rho0):
        raise ValidationError(f"--rho0 values must {in_range}, got {rho0}")
    alphas = _parse_grid(alpha_grid, float, "--alpha", "lie in (0, 1)", lambda a: 0 < a < 1)
    rows = []
    for n in ns:
        for p in ps:
            for rho in rhos:
                if rho < rho0:
                    continue
                for alpha in alphas:
                    rows.append([n, p, rho, rho0, alpha, power(n, p, rho, rho0, alpha)])
    out = _outdir(config)
    io.write_rows(out / "power.tsv", ["n", "p", "rho", "rho0", "alpha", "power"], rows)
    manifest = config.manifest()
    manifest.update({"n_grid": ns, "p_grid": ps, "rho_grid": rhos, "alpha_grid": alphas})
    io.write_manifest(out / "manifest.json", manifest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrseg",
        description="Segment and test the correlation structure of ordered "
        "expression profiles.",
    )
    parser.add_argument("--version", action="version", version=f"corrseg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, needs_input: bool) -> None:
        if needs_input:
            p.add_argument("--input", required=True, help="expression matrix (TSV/CSV)")
            p.add_argument("--annotation", help="gene -> chromosome, start[, end] table")
            p.add_argument("--transpose", action="store_true",
                           help="input has genes as rows, patients as columns")
        p.add_argument("--out", help="output directory")

    p_seg = sub.add_parser("segment", help="segment chromosomes into correlation blocks")
    add_common(p_seg, needs_input=True)
    p_seg.add_argument("--S", type=float, help="slope-change threshold")
    p_seg.add_argument("--kmax", type=int, help="max segments per chromosome")
    p_seg.add_argument("--min-seg", type=int, help="minimum segment length")
    p_seg.add_argument("--rule", choices=["largest", "smallest"],
                       help="which qualifying slope change picks K")
    p_seg.add_argument("--trace", action="store_true", help="dump selection diagnostics")

    p_test = sub.add_parser("test", help="test segmented regions against background")
    add_common(p_test, needs_input=True)
    p_test.add_argument("--segmentation", required=True,
                        help="segmentation TSV from the segment step (or external)")
    p_test.add_argument("--alpha", type=float, help="significance level")
    p_test.add_argument("--adjust", choices=["bh", "bonferroni", "none"],
                        help="multiple-testing adjustment")
    p_test.add_argument("--rho0", type=float,
                        help="fixed background correlation (default: estimated per chromosome)")

    p_cor = sub.add_parser("correct", help="regress a positioned covariate out of expression")
    add_common(p_cor, needs_input=True)
    p_cor.add_argument("--covariate", required=True,
                       help="long TSV (patient[, chromosome], position, value) or wide matrix")
    p_cor.add_argument("--covariate-positions",
                       help="positions file when --covariate is a wide matrix")
    p_cor.add_argument("--mode", choices=["pooled", "per-gene"],
                       help="one regression per chromosome or per gene")
    p_cor.add_argument("--half-width", type=float,
                       help="probe-matching window around point gene positions")
    p_cor.add_argument("--S", type=float, help="slope-change threshold for covariate segmentation")
    p_cor.add_argument("--kmax", type=int, help="max segments per covariate series")

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset with known truth")
    add_common(p_sim, needs_input=False)
    p_sim.add_argument("--scenario", type=int, choices=[1, 2],
                       help="1: shared background; 2: per-chromosome background")
    p_sim.add_argument("--rho0", type=float, help="background correlation (scenario 1)")
    p_sim.add_argument("--rho1", type=float, help="within-block correlation")
    p_sim.add_argument("--n", type=int, help="number of patients")
    p_sim.add_argument("--p", type=int, help="genes per chromosome")
    p_sim.add_argument("--seed", type=int, help="generator seed")
    p_sim.add_argument("--spec", help="scenario spec JSON (overrides the flags above)")

    p_eval = sub.add_parser("evaluate", help="score region calls against a known truth")
    add_common(p_eval, needs_input=False)
    p_eval.add_argument("--truth", required=True, help="truth table from simulate")
    p_eval.add_argument("--regions", required=True, help="region report from test")

    p_pow = sub.add_parser("power", help="tabulate exact detection power")
    add_common(p_pow, needs_input=False)
    p_pow.add_argument("--n", dest="n_grid", default="10,50,200,1000",
                       help="comma list of cohort sizes")
    p_pow.add_argument("--p", dest="p_grid", default="3,5,10,20",
                       help="comma list of region widths")
    p_pow.add_argument("--rho", dest="rho_grid", default="0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
                       help="comma list of within-region correlations")
    p_pow.add_argument("--rho0", type=float, default=0.15, help="background correlation")
    p_pow.add_argument("--alpha", dest="alpha_grid", default="0.05,0.005,0.0005",
                       help="comma list of significance levels")
    for p in (p_seg, p_test, p_eval):
        p.add_argument("--json", dest="json_out", action="store_true",
                       help="also write JSON mirrors of tabular outputs")
    return parser

def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    for name in vars(config):
        if name == "command":
            continue
        if hasattr(args, name):
            value = getattr(args, name)
            if value is not None:
                setattr(config, name, value)
    return config

def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = _config_from_args(args)
    try:
        config.validate()
        if args.command == "power":
            return cmd_power(config, args.n_grid, args.p_grid, args.rho_grid, args.alpha_grid)
        return {
            "segment": cmd_segment,
            "test": cmd_test,
            "correct": cmd_correct,
            "simulate": cmd_simulate,
            "evaluate": cmd_evaluate,
        }[args.command](config)
    except IngestionError as exc:
        print(f"corrseg: ingestion error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"corrseg: validation error: {exc}", file=sys.stderr)
        return 3
    except CorrsegError as exc:
        print(f"corrseg: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
