"""Synthetic data with planted correlated blocks, plus evaluation metrics.

Generation uses a latent-factor construction: one chromosome-wide factor
carries the background correlation rho0, each planted block adds its own
factor to lift within-block correlation to rho1, and independent noise
tops the variance up to 1. Metrics score a detector's region calls
against the known truth at gene level and, more strictly, at the level
of maximal runs of genes sharing a (truth x call) status.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ExpressionMatrix
from .errors import GridMismatch, InvalidLoadings
from .significance import RegionReport


@dataclass(frozen=True)
class ChromosomeSpec:
    """Gene count and the H0/H1 tiling of one simulated chromosome.

    regions are (start, stop, label) with 0-based half-open bounds and
    labels 'H0' or 'H1'; they must tile [0, p) exactly.
    """

    name: str
    p: int
    regions: tuple[tuple[int, int, str], ...]

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"chromosome {self.name}: need p >= 1")
        cursor = 0
        for start, stop, label in self.regions:
            if start != cursor or stop <= start:
                raise ValueError(
                    f"chromosome {self.name}: regions must tile [0, {self.p}) exactly"
                )
            if label not in ("H0", "H1"):
                raise ValueError(f"chromosome {self.name}: bad label {label!r}")
            cursor = stop
        if cursor != self.p:
            raise ValueError(
                f"chromosome {self.name}: regions end at {cursor}, expected {self.p}"
            )

    @property
    def h1_blocks(self) -> list[tuple[int, int]]:
        return [(a, b) for a, b, lab in self.regions if lab == "H1"]

    def truth(self) -> np.ndarray:
        """Boolean H1 indicator per gene."""
        out = np.zeros(self.p, dtype=bool)
        for a, b in self.h1_blocks:
            out[a:b] = True
        return out


def tile_chromosome(name: str, p: int, h1_blocks: list[tuple[int, int]]) -> ChromosomeSpec:
    """Build a full H0/H1 tiling from the H1 block bounds alone."""
    regions = []
    cursor = 0
    for a, b in sorted(h1_blocks):
        if a > cursor:
            regions.append((cursor, a, "H0"))
        regions.append((a, b, "H1"))
        cursor = b
    if cursor < p:
        regions.append((cursor, p, "H0"))
    return ChromosomeSpec(name=name, p=p, regions=tuple(regions))


@dataclass(frozen=True)
class ScenarioSpec:
    """Full simulation design: chromosomes, correlation levels, cohort size.

    rho0 is a scalar shared by all chromosomes or one value per
    chromosome. The latent-factor construction needs 0 <= rho0 < rho1 < 1.
    """

    chromosomes: tuple[ChromosomeSpec, ...]
    rho0: float | tuple[float, ...]
    rho1: float
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need n >= 3 patients, got {self.n}")
        rho0s = self.rho0_by_chromosome()
        if len(rho0s) != len(self.chromosomes):
            raise ValueError("need one rho0 per chromosome (or a scalar)")
        for r0 in rho0s:
            if not 0.0 <= r0 < 1.0:
                raise ValueError(f"rho0={r0} outside [0, 1)")
            if self.rho1 < r0:
                raise InvalidLoadings(f"rho1={self.rho1} below rho0={r0}")
        if not self.rho1 < 1.0:
            raise ValueError(f"rho1={self.rho1} must be < 1")

    def rho0_by_chromosome(self) -> tuple[float, ...]:
        if isinstance(self.rho0, (int, float)):
            return tuple(float(self.rho0) for _ in self.chromosomes)
        return tuple(float(v) for v in self.rho0)

    @property
    def total_genes(self) -> int:
        return sum(c.p for c in self.chromosomes)

    def truth_by_chromosome(self) -> dict[str, np.ndarray]:
        return {c.name: c.truth() for c in self.chromosomes}


DEFAULT_WIDTHS = (3, 5, 10, 20, 40)

def default_scenario(
    scenario: int = 1,
    rho0: float = 0.08,
    rho1: float = 0.7,
    n: int = 58,
    seed: int = 0,
    p: int = 500,
    widths: tuple[int, ...] = DEFAULT_WIDTHS,
) -> ScenarioSpec:
    """Desk-scale default design: len(widths) chromosomes of p genes.

    Chromosome c plants two H1 blocks of width widths[c], centered at p/3
    and 2p/3, so every block width in the spread is represented and each
    chromosome has a clean two-block structure. Scenario 2 draws a
    per-chromosome background level uniformly from [0.08, 0.28] instead
    of using the shared scalar.
    """
    chroms = []
    for c, w in enumerate(widths):
        if w >= p // 3:
            raise ValueError(f"block width {w} too large for p={p}")
        blocks = []
        for center in (p // 3, (2 * p) // 3):
            a = center - w // 2
            blocks.append((a, a + w))
        chroms.append(tile_chromosome(f"chr{c + 1}", p, blocks))
    if scenario == 1:
        rho0_spec: float | tuple[float, ...] = rho0
    elif scenario == 2:
        rng = np.random.default_rng([seed, 202])
        rho0_spec = tuple(float(v) for v in rng.uniform(0.08, 0.28, size=len(widths)))
    else:
        raise ValueError(f"unknown scenario {scenario}")
    return ScenarioSpec(
        chromosomes=tuple(chroms), rho0=rho0_spec, rho1=rho1, n=n, seed=seed
    )


def generate(spec: ScenarioSpec) -> ExpressionMatrix:
    """Draw one dataset from the scenario.

    Chromosomes are generated sequentially from a single seeded stream,
    so identical specs give bit-identical matrices. Gene ids encode the
    chromosome as '<name>_g<j>'; `annotation_rows` places them 1000 apart
    within each chromosome.
    """
    rng = np.random.default_rng(spec.seed)
    rho0s = spec.rho0_by_chromosome()
    columns = []
    gene_ids = []
    for chrom, r0 in zip(spec.chromosomes, rho0s):
        Y = np.empty((spec.n, chrom.p))
        W = rng.standard_normal(spec.n)
        noise = rng.standard_normal((spec.n, chrom.p))
        Y[:] = np.sqrt(r0) * W[:, None] + np.sqrt(1.0 - r0) * noise
        for a, b in chrom.h1_blocks:
            U = rng.standard_normal(spec.n)
            Y[:, a:b] = (
                np.sqrt(r0) * W[:, None]
                + np.sqrt(spec.rho1 - r0) * U[:, None]
                + np.sqrt(1.0 - spec.rho1) * noise[:, a:b]
            )
        columns.append(Y)
        gene_ids.extend(f"{chrom.name}_g{j + 1}" for j in range(chrom.p))
    return ExpressionMatrix(
        values=np.concatenate(columns, axis=1),
        gene_ids=tuple(gene_ids),
        standardized=False,
        patient_ids=tuple(f"P{i + 1:03d}" for i in range(spec.n)),
    )

def annotation_rows(spec: ScenarioSpec) -> list[tuple[str, str, int, int]]:
    """(gene_id, chromosome, start, end) rows matching generate()'s layout."""
    rows = []
    for chrom in spec.chromosomes:
        for j in range(chrom.p):
            start = 1000 * (j + 1)
            rows.append((f"{chrom.name}_g{j + 1}", chrom.name, start, start + 100))
    return rows


@dataclass(frozen=True)
class RocCurve:
    """One ROC sweep: thresholds on the raw p-value, points, and area."""

    thresholds: tuple[float, ...]
    tpr: tuple[float, ...]
    fpr: tuple[float, ...]
    auc: float


@dataclass(frozen=True)
class EvalResult:
    gene_level: RocCurve
    region_level: RocCurve


def _gene_scores(
    truth_by_chrom: dict[str, np.ndarray], reports: list[RegionReport]
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Per-gene truth labels and p-value scores from covering regions."""
    scores = {name: np.full(len(t), np.nan) for name, t in truth_by_chrom.items()}
    for r in reports:
        if r.chromosome not in scores:
            raise GridMismatch(f"report for unknown chromosome {r.chromosome!r}")
        row = scores[r.chromosome]
        if r.end > len(row):
            raise GridMismatch(
                f"region {r.start}-{r.end} exceeds {r.chromosome} length {len(row)}"
            )
        row[r.start - 1 : r.end] = r.p_value if r.tested else np.inf
    names = sorted(truth_by_chrom)
    truth = np.concatenate([truth_by_chrom[name] for name in names])
    score = np.concatenate([scores[name] for name in names])
    if np.isnan(score).any():
        raise GridMismatch("region reports do not cover every gene")
    return truth, score, scores

def _auc(fpr: np.ndarray, tpr: np.ndarray) -> float:
    f = np.concatenate(([0.0], fpr, [1.0]))
    t = np.concatenate(([0.0], tpr, [1.0]))
    order = np.lexsort((t, f))
    return float(np.trapezoid(t[order], f[order]))

def gene_metrics(
    truth_by_chrom: dict[str, np.ndarray], reports: list[RegionReport]
) -> RocCurve:
    """ROC over genes, ranking each gene by its covering region's p-value."""
    truth, score, _ = _gene_scores(truth_by_chrom, reports)
    pos = int(truth.sum())
    neg = int((~truth).sum())
    if pos == 0 or neg == 0:
        raise GridMismatch("gene-level ROC needs both H0 and H1 genes in the truth")
    thresholds = np.unique(score[np.isfinite(score)])
    tpr, fpr = [], []
    for t in thresholds:
        called = score <= t
        tpr.append(float((called & truth).sum() / pos))
        fpr.append(float((called & ~truth).sum() / neg))
    tpr_a, fpr_a = np.asarray(tpr), np.asarray(fpr)
    return RocCurve(
        thresholds=tuple(float(v) for v in thresholds),
        tpr=tuple(tpr),
        fpr=tuple(fpr),
        auc=_auc(fpr_a, tpr_a),
    )

def _region_counts(truth: np.ndarray, called: np.ndarray) -> tuple[int, int, int, int]:
    """Counts of maximal same-status runs: (TP, FP, TN, FN) regions."""
    # status encoding: 0 TP, 1 FP, 2 TN, 3 FN
    status = np.where(truth, np.where(called, 0, 3), np.where(called, 1, 2))
    change = np.flatnonzero(np.diff(status)) + 1
    starts = np.concatenate(([0], change))
    counts = [0, 0, 0, 0]
    for s in starts:
        counts[status[s]] += 1
    return counts[0], counts[1], counts[2], counts[3]

def region_metrics(
    truth_by_chrom: dict[str, np.ndarray], reports: list[RegionReport]
) -> RocCurve:
    """ROC over merged same-status regions, at every p-value threshold.

    At each threshold, every gene gets a true/false x positive/negative
    status; maximal runs of one status within a chromosome count as one
    region each. TPR is TP regions over TP + FN regions, FPR likewise
    over FP + TN. More stringent than gene-level: a fragmented detection
    creates extra false-negative regions instead of partial credit.
    """
    _, _, scores = _gene_scores(truth_by_chrom, reports)
    names = sorted(truth_by_chrom)
    all_scores = np.concatenate([scores[name] for name in names])
    thresholds = np.unique(all_scores[np.isfinite(all_scores)])
    tpr, fpr = [], []
    for t in thresholds:
        tp = fp = tn = fn = 0
        for name in names:
            truth = truth_by_chrom[name]
            called = scores[name] <= t
            a, b, c, d = _region_counts(truth, called)
            tp += a
            fp += b
            tn += c
            fn += d
        tpr.append(float(tp / (tp + fn)) if tp + fn else 0.0)
        fpr.append(float(fp / (fp + tn)) if fp + tn else 0.0)
    tpr_a, fpr_a = np.asarray(tpr), np.asarray(fpr)
    return RocCurve(
        thresholds=tuple(float(v) for v in thresholds),
        tpr=tuple(tpr),
        fpr=tuple(fpr),
        auc=_auc(fpr_a, tpr_a),
    )

def evaluate(
    truth_by_chrom: dict[str, np.ndarray], reports: list[RegionReport]
) -> EvalResult:
    """Gene-level and region-level ROC/AUC for one set of region calls."""
    return EvalResult(
        gene_level=gene_metrics(truth_by_chrom, reports),
        region_level=region_metrics(truth_by_chrom, reports),
    )
