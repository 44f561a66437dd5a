"""Per-chromosome orchestration shared by the CLI and the test harness.

The model is defined per ordered gene sequence, so every step here splits
the input by chromosome, processes chromosomes independently in a fixed
sorted order, and reassembles results deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ExpressionMatrix, standardize
from .correction import align_to_genes, correct_expression, segment_covariate
from .errors import KTooLarge, PatientMismatch, TooFewProbes, ValidationError
from .io import natural_key
from .segment import Segmentation, SelectionTrace, select_k
from .significance import RegionReport, apply_adjustment, test_regions


@dataclass(frozen=True)
class ChromosomeView:
    """One chromosome's slice of the input matrix.

    columns holds the original column indices in input order, so corrected
    values can be written back into the full matrix layout.
    """

    name: str
    matrix: ExpressionMatrix
    columns: np.ndarray
    starts: np.ndarray | None = None
    ends: np.ndarray | None = None


def split_by_chromosome(
    matrix: ExpressionMatrix,
    annotation: dict[str, tuple[str, float, float | None]] | None,
) -> list[ChromosomeView]:
    """Group genes by chromosome, ordered by start position within each.

    Without an annotation, the whole matrix is one chromosome named 'all'
    in input order. Genes absent from the annotation are an error: silent
    dropping would desynchronize outputs from inputs.
    """
    if annotation is None:
        return [
            ChromosomeView(
                name="all",
                matrix=matrix,
                columns=np.arange(matrix.p),
            )
        ]
    missing = [g for g in matrix.gene_ids if g not in annotation]
    if missing:
        shown = ", ".join(missing[:5]) + ("..." if len(missing) > 5 else "")
        raise ValidationError(
            f"{len(missing)} gene(s) missing from the annotation: {shown}"
        )
    by_chrom: dict[str, list[int]] = {}
    for j, gene in enumerate(matrix.gene_ids):
        by_chrom.setdefault(annotation[gene][0], []).append(j)
    views = []
    for name in sorted(by_chrom, key=natural_key):
        cols = by_chrom[name]
        cols.sort(key=lambda j: (annotation[matrix.gene_ids[j]][1], j))
        idx = np.array(cols, dtype=np.intp)
        starts = np.array([annotation[matrix.gene_ids[j]][1] for j in cols])
        raw_ends = [annotation[matrix.gene_ids[j]][2] for j in cols]
        ends = None if any(e is None for e in raw_ends) else np.array(raw_ends)
        views.append(
            ChromosomeView(
                name=name,
                matrix=ExpressionMatrix(
                    values=matrix.values[:, idx],
                    gene_ids=tuple(matrix.gene_ids[j] for j in cols),
                    standardized=matrix.standardized,
                    patient_ids=matrix.patient_ids,
                ),
                columns=idx,
                starts=starts,
                ends=ends,
            )
        )
    return views


@dataclass(frozen=True)
class ChromosomeResult:
    name: str
    matrix: ExpressionMatrix  # standardized
    segmentation: Segmentation
    trace: SelectionTrace | None


def segment_all(
    views: list[ChromosomeView],
    S: float = 0.7,
    k_max: int | None = None,
    rule: str = "largest",
    min_seg_len: int = 1,
) -> list[ChromosomeResult]:
    """Standardize each chromosome, then choose K and segment in one DP pass."""
    results = []
    for view in views:
        std = standardize(view.matrix)
        try:
            trace = select_k(std, k_max=k_max, S=S, rule=rule, min_seg_len=min_seg_len)
        except KTooLarge as exc:
            raise KTooLarge(f"chromosome {view.name!r}: {exc}") from exc
        results.append(ChromosomeResult(view.name, std, trace.segmentation, trace))
    return results


def segmentation_rows(results: list[ChromosomeResult]) -> list[dict]:
    """Flatten segmentations into output rows (1-based inclusive bounds)."""
    rows = []
    for res in results:
        seg = res.segmentation
        for k, (a, b) in enumerate(seg.segments()):
            rows.append(
                {
                    "chromosome": res.name,
                    "segment": k + 1,
                    "start": a + 1,
                    "end": b,
                    "p_k": b - a,
                    "rho_hat": seg.rho[k],
                    "loglik": seg.segment_loglik[k],
                }
            )
    return rows


def test_all(
    results: list[ChromosomeResult],
    rho0: float | None = None,
    adjust: str = "bh",
    alpha: float = 0.05,
) -> list[RegionReport]:
    """Test every segment of every chromosome; adjust across the whole family."""
    reports: list[RegionReport] = []
    for res in results:
        reports.extend(
            test_regions(res.matrix, res.segmentation, chromosome=res.name, rho0=rho0)
        )
    return apply_adjustment(reports, method=adjust, alpha=alpha)


def correct_view(
    view: ChromosomeView,
    covariate: dict[str, tuple[np.ndarray, np.ndarray]],
    mode: str = "pooled",
    S: float = 0.7,
    k_max: int | None = None,
    half_width: float = 0.0,
) -> tuple[ExpressionMatrix, dict]:
    """Fit, align, and regress out one chromosome's covariate track; the
    track's patients must be exactly the matrix's."""
    matrix = view.matrix
    expr = set(matrix.patient_ids)
    missing, extra = sorted(expr - set(covariate)), sorted(set(covariate) - expr)
    if missing or extra:
        raise PatientMismatch(missing, extra)
    series = {patient: covariate[patient] for patient in matrix.patient_ids}
    try:
        fits = segment_covariate(series, S=S, k_max=k_max)
    except TooFewProbes as exc:
        raise TooFewProbes(exc.patient, view.name) from exc
    starts = np.arange(matrix.p, dtype=float) if view.starts is None else view.starts
    aligned = align_to_genes(
        fits, starts, gene_ends=view.ends, half_width=half_width, chromosome=view.name
    )
    corrected, info = correct_expression(matrix, aligned.x, mode=mode)
    prov, counts = np.unique(aligned.provenance, return_counts=True)
    info["alignment"] = {str(k): int(v) for k, v in zip(prov, counts)}
    info["covariate_breakpoints"] = {
        fit.patient: list(fit.breakpoints) for fit in fits
    }
    return corrected, info
