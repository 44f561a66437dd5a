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
from .errors import GridMismatch, InvalidLoadings, ValidationError
from .significance import RegionReport


@dataclass(frozen=True)
class ChromosomeSpec:
    """Gene count and planted H1 blocks of one simulated chromosome.

    h1_blocks are (start, stop) with 0-based half-open bounds; they are
    kept sorted and must be non-empty, disjoint and inside [0, p).
    Every other gene is H0.
    """

    name: str
    p: int
    h1_blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"chromosome {self.name}: need p >= 1")
        blocks = tuple(sorted((a, b) for a, b in self.h1_blocks))
        cursor = 0
        for a, b in blocks:
            if a < cursor or b <= a or b > self.p:
                raise ValueError(
                    f"chromosome {self.name}: H1 block ({a}, {b}) is empty, "
                    f"overlaps another or leaves [0, {self.p})"
                )
            cursor = b
        object.__setattr__(self, "h1_blocks", blocks)

    def gene_ids(self) -> list[str]:
        """Gene ids in chromosome order: '<name>_g1' to '<name>_g<p>'."""
        return [f"{self.name}_g{j + 1}" for j in range(self.p)]

    def truth(self) -> np.ndarray:
        """Boolean H1 indicator per gene."""
        out = np.zeros(self.p, dtype=bool)
        for a, b in self.h1_blocks:
            out[a:b] = True
        return out


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
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be >= 0")
        if self.n < 3:
            raise ValueError(f"need n >= 3 patients, got {self.n}")
        if not self.chromosomes:
            raise ValueError("need at least one chromosome")
        names = [c.name for c in self.chromosomes]
        for k, name in enumerate(names):
            if name in names[:k]:
                raise ValueError(f"chromosome {name!r} is listed more than once")
        if np.isnan(self.rho1):
            raise ValueError(f"rho1={self.rho1} must be finite")
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

    def truth_by_chromosome(self) -> dict[str, np.ndarray]:
        return {c.name: c.truth() for c in self.chromosomes}


DEFAULT_WIDTHS = (3, 5, 10, 20, 40)
# background correlation of the desk-scale scenario, and of `corrseg simulate`
DEFAULT_RHO0 = 0.08

def default_scenario(
    scenario: int = 1,
    rho0: float = DEFAULT_RHO0,
    rho1: float = 0.7,
    n: int = 58,
    seed: int = 0,
    p: int = 500,
) -> ScenarioSpec:
    """Desk-scale default design: one chromosome of p genes per width.

    Chromosome c plants two H1 blocks of width DEFAULT_WIDTHS[c], centered
    at p/3 and 2p/3, so every block width in the spread is represented
    and each chromosome has a clean two-block structure. Scenario 2 draws
    a per-chromosome background level uniformly from [0.08, 0.28] instead
    of using the shared scalar.
    """
    if seed < 0:  # before scenario 2 seeds a generator with it
        raise ValueError(f"seed={seed} must be >= 0")
    chroms = []
    for c, w in enumerate(DEFAULT_WIDTHS):
        if w >= p // 3:
            raise ValueError(f"block width {w} too large for p={p}")
        starts = (center - w // 2 for center in (p // 3, (2 * p) // 3))
        chroms.append(ChromosomeSpec(f"chr{c + 1}", p, tuple((a, a + w) for a in starts)))
    if scenario == 1:
        rho0_spec: float | tuple[float, ...] = rho0
    elif scenario == 2:
        rng = np.random.default_rng([seed, 202])
        rho0_spec = tuple(float(v) for v in rng.uniform(0.08, 0.28, size=len(DEFAULT_WIDTHS)))
    else:
        raise ValueError(f"unknown scenario {scenario}")
    return ScenarioSpec(
        chromosomes=tuple(chroms), rho0=rho0_spec, rho1=rho1, n=n, seed=seed
    )


def generate(spec: ScenarioSpec) -> ExpressionMatrix:
    """Draw one dataset from the scenario.

    Chromosomes are generated sequentially from a single seeded stream,
    so identical specs give bit-identical matrices. Gene ids are
    `ChromosomeSpec.gene_ids`; `annotation_rows` places them 1000 apart
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
        gene_ids.extend(chrom.gene_ids())
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
        for j, gene in enumerate(chrom.gene_ids()):
            start = 1000 * (j + 1)
            rows.append((gene, chrom.name, start, start + 100))
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-gene truth labels, p-value scores and first-gene-of-its-chromosome
    flags, chromosomes in name order."""
    scores = {name: np.full(len(t), np.nan) for name, t in truth_by_chrom.items()}
    for r in reports:
        if r.chromosome not in scores:
            raise GridMismatch(f"report for unknown chromosome {r.chromosome!r}")
        row = scores[r.chromosome]
        if not 1 <= r.start <= r.end <= len(row):
            raise GridMismatch(
                f"region {r.start}-{r.end} on {r.chromosome}: bounds must satisfy"
                f" 1 <= start <= end <= {len(row)}"
            )
        if not np.isnan(row[r.start - 1 : r.end]).all():
            raise GridMismatch(f"region {r.start}-{r.end} on {r.chromosome} overlaps another region")
        if r.tested and not 0.0 <= r.p_value <= 1.0:
            raise ValidationError(
                f"region {r.start}-{r.end} on {r.chromosome}: p_value {r.p_value} outside [0, 1]"
            )
        row[r.start - 1 : r.end] = r.p_value if r.tested else np.inf
    names = sorted(truth_by_chrom)
    for name in names:
        if (dtype := np.asarray(truth_by_chrom[name]).dtype) != bool:
            raise GridMismatch(f"truth labels on {name} must be boolean, not {dtype}")
        uncovered = np.flatnonzero(np.isnan(scores[name]))
        if uncovered.size:
            raise GridMismatch(f"gene {uncovered[0] + 1} on {name} is in no region")
    if not names:  # a header-only truth: `evaluate` finds neither H0 nor H1 genes
        return np.zeros(0, dtype=bool), np.zeros(0), np.zeros(0, dtype=bool)
    truth = np.concatenate([truth_by_chrom[name] for name in names])
    score = np.concatenate([scores[name] for name in names])
    first = np.concatenate([np.arange(len(scores[name])) == 0 for name in names])
    return truth, score, first

def _roc(thresholds: np.ndarray, points: list[tuple[float, float]]) -> RocCurve:
    """The curve through one (tpr, fpr) point per threshold; its area runs
    from (0, 0) to (1, 1)."""
    tpr = tuple(tp for tp, _ in points)
    fpr = tuple(fp for _, fp in points)
    f = np.concatenate(([0.0], fpr, [1.0]))
    t = np.concatenate(([0.0], tpr, [1.0]))
    order = np.lexsort((t, f))
    return RocCurve(
        thresholds=tuple(float(v) for v in thresholds),
        tpr=tpr,
        fpr=fpr,
        auc=float(np.trapezoid(t[order], f[order])),
    )

def evaluate(
    truth_by_chrom: dict[str, np.ndarray], reports: list[RegionReport]
) -> EvalResult:
    """Gene-level and region-level ROC/AUC for one set of region calls.

    Each gene is scored by its covering region's p-value (untested regions
    are never called), and every finite score is a threshold. At gene level
    TPR and FPR count genes. At region level every gene gets a true/false x
    positive/negative status, and each maximal run of one status within a
    chromosome counts as one region: TPR is TP regions over TP + FN
    regions, FPR likewise over FP + TN. This is more stringent: a
    fragmented detection creates extra false-negative regions instead of
    partial credit.
    """
    truth, score, first = _gene_scores(truth_by_chrom, reports)
    pos = int(truth.sum())
    neg = int((~truth).sum())
    if pos == 0 or neg == 0:
        raise GridMismatch("gene-level ROC needs both H0 and H1 genes in the truth")
    thresholds = np.unique(score[np.isfinite(score)])
    genes, regions = [], []
    for t in thresholds:
        called = score <= t
        genes.append((float((called & truth).sum() / pos), float((called & ~truth).sum() / neg)))
        # status 0 TN, 1 FP, 2 FN, 3 TP; an H1 gene makes a TP or FN run,
        # an H0 gene an FP or TN run, so neither denominator is 0
        status = 2 * truth + called
        starts = first | (np.diff(status, prepend=-1) != 0)
        tn, fp, fn, tp = np.bincount(status[starts], minlength=4)
        regions.append((float(tp / (tp + fn)), float(fp / (fp + tn))))
    return EvalResult(gene_level=_roc(thresholds, genes), region_level=_roc(thresholds, regions))
