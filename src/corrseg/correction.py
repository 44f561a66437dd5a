"""Covariate pre-correction: fit, align, regress out.

A positioned covariate (copy number, typically) can induce local
correlation that has nothing to do with co-regulation. The covariate
track is smoothed per patient into a piecewise-constant fit
(segment_covariate), aligned from probe coordinates onto the gene grid as
one (n, p) array (align_to_genes), and regressed out of the expression
signal with the design [1, x] (correct_expression); the residuals then go
through the usual segmentation/testing pipeline.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import ExpressionMatrix
from .errors import DegenerateCovariateWarning, KTooLarge, NoProbesOnChromosome, TooFewProbes
from .segment import (
    LOG_EPS,
    TILE,
    _backtrack,
    _dp_kernel,
    _forked,
    _table,
    _tile,
    _tile_views,
    _workers,
    default_k_max,
    pass_size,
    penalty,
    slope_change_choice,
)


@dataclass(frozen=True)
class PatientFit:
    """Piecewise-constant fit of one patient's covariate series.

    breakpoints are probe indices in the same 0-based half-open convention
    as gene segmentations; means[k] is the average of the raw values in
    segment k, which is the least-squares fit on that segment.
    """

    patient: str
    positions: np.ndarray
    breakpoints: tuple[int, ...]
    means: tuple[float, ...]

    def fitted(self) -> np.ndarray:
        """Fitted value for every probe."""
        return np.asarray(self.means)[self.segment_of_probe()]

    def segment_of_probe(self) -> np.ndarray:
        """Segment index of every probe."""
        return np.repeat(np.arange(len(self.means)), np.diff(self.breakpoints))


# points per batched kernel pass, BATCH_POINTS // t series of t points (at
# least one), so its tiles stay near a p = 2048 expression pass's, 0.5 MB
BATCH_POINTS = 2048


def _rss_cost(values: np.ndarray):
    """cost(b0, b1) for the kernel: within-segment residual sum of squares.

    values is one series (t,) or a batch of series (batch, t), whose tiles
    then lead with the batch axis. Every call writes into the same two tile
    buffers, so the cost of one tile is valid until the next call.
    """
    cs, cs2 = np.zeros((2, *values.shape[:-1], values.shape[-1] + 1))
    # a cumsum along the last axis is sequential, the sums of a 1-D cumsum
    np.cumsum(values, axis=-1, out=cs[..., 1:])
    np.cumsum(values * values, axis=-1, out=cs2[..., 1:])
    scratch = np.empty((2, TILE * values.size))

    def cost(b0, b1):
        starts, stops = _tile(b0, b1)
        seg_sum, seg_sq = _tile_views(scratch, (*values.shape[:-1], b1 - b0, b1))
        ends = slice(b0 + 1, b1 + 1)
        np.subtract(cs[..., ends, None], cs[..., None, :b1], out=seg_sum)
        np.subtract(cs2[..., ends, None], cs2[..., None, :b1], out=seg_sq)
        with np.errstate(invalid="ignore", divide="ignore"):
            # rss = seg_sq - seg_sum * seg_sum / max(length, 1)
            length = np.subtract(stops, starts, dtype=float)
            np.multiply(seg_sum, seg_sum, out=seg_sum)
            np.divide(seg_sum, np.maximum(length, 1, out=length), out=seg_sum)
            np.subtract(seg_sq, seg_sum, out=seg_sq)
        return np.maximum(seg_sq, 0.0, out=seg_sq)  # guard tiny negative round-off

    return cost


def _fit_batch(values: np.ndarray, km: int, S: float, fixed: bool) -> list[list[int]]:
    """Breakpoints of every series in one batch, from one kernel pass.

    values stacks the batch's sorted series (batch, t); with fixed, every
    series gets km segments.
    """
    batch, t = values.shape
    D, B = _dp_kernel(_rss_cost(values), t, km, 1, batch)
    if fixed:
        ks = [km] * batch
    else:
        # Gaussian profile log-likelihood of each series' best K-segment fits
        L = -(t / 2.0) * np.log(np.maximum(D[..., -1], LOG_EPS) / t)
        Kt = penalty(np.arange(1, km + 1), t)
        ks = [slope_change_choice(Lj, Kt, S, "largest")[0] for Lj in L]
    return [_backtrack(Bj, k, t) for Bj, k in zip(B, ks)]


def segment_covariate(
    series: dict[str, tuple[np.ndarray, np.ndarray]],
    S: float = 0.7,
    k_max: int | None = None,
    fixed_k: int | None = None,
) -> tuple[PatientFit, ...]:
    """Fit each patient's (positions, values) series piecewise-constant.

    The number of segments per patient is chosen by the same slope-change
    rule as expression segmentation, applied to the Gaussian profile
    log-likelihood of the residual sum of squares; fixed_k overrides it.
    Series of one length t are fitted BATCH_POINTS // t (at least one) per
    kernel pass. On Linux, when the fits are large enough to pay for it, the
    batches are dealt round-robin to forked workers, at most one per usable
    CPU and within POOL_TABLE_BYTES of tables; the fits come back in the
    order of series either way.
    """
    if k_max is not None and k_max < 1:
        raise KTooLarge(f"k_max={k_max} out of range for a covariate series; need k_max >= 1")
    tracks, by_length = [], {}
    for patient, (positions, values) in series.items():
        if len(values) < 2:
            raise TooFewProbes(patient)
        order = np.argsort(positions, kind="stable")
        by_length.setdefault(len(values), []).append(len(tracks))
        tracks.append((patient, np.asarray(positions, dtype=float)[order],
                       np.asarray(values, dtype=float)[order]))
    batches, cells, table_bytes = [], 0, 0
    for t, members in by_length.items():
        if fixed_k is None:
            km = default_k_max(t) if k_max is None else min(k_max, t)
        else:
            km = min(max(1, fixed_k), t)
        size = max(1, BATCH_POINTS // t)
        batches += [(members[a : a + size], km) for a in range(0, len(members), size)]
        cells += pass_size(t, km, len(members))[0]
        table_bytes = max(table_bytes, pass_size(t, km, min(size, len(members)))[1])
    workers = _workers(len(batches), cells, table_bytes)
    shares = [batches[w::workers] for w in range(workers)]
    # row i: series i's breakpoints, then -1s; in a mapping the workers share
    shape = (len(tracks), 1 + max((km for _, km in batches), default=0))
    bps = _table(shape, np.int32, workers > 1)
    bps.fill(-1)

    def fit(share):
        for members, km in share:  # one batch's stack at a time
            values = np.stack([tracks[i][2] for i in members])
            for i, row in zip(members, _fit_batch(values, km, S, fixed_k is not None)):
                bps[i, : len(row)] = row

    def held(w):
        count, first = sum(len(members) for members, _ in shares[w]), shares[w][0][0][0]
        return f"the process fitting {count} covariate series (patient {tracks[first][0]!r} first)"

    _forked([(functools.partial(fit, share), []) for share in shares], held)
    fits = []
    for (patient, positions, values), row in zip(tracks, bps):
        row = row[row >= 0].tolist()
        means = tuple(float(values[a:b].mean()) for a, b in zip(row[:-1], row[1:]))
        fits.append(PatientFit(patient, positions, tuple(row), means))
    return tuple(fits)


@dataclass(frozen=True)
class AlignedCovariate:
    """Covariate values on the gene grid; provenance records how each cell
    was filled: 'single-probe', 'averaged', or 'interpolated'."""

    x: np.ndarray
    provenance: np.ndarray


def align_to_genes(
    fits: tuple[PatientFit, ...],
    gene_starts: np.ndarray,
    gene_ends: np.ndarray | None = None,
    half_width: float = 0.0,
    chromosome: str = "all",
) -> AlignedCovariate:
    """Map per-patient covariate fits onto gene coordinates.

    A gene's region is [start, end], or [position - half_width,
    position + half_width] when only single positions are given. One probe
    in the region contributes its segment mean; several contribute the
    average of the distinct segment means they touch; genes with no probe
    are filled by linear interpolation between the nearest flanking filled
    genes, held constant past the first and last of them.
    """
    starts = np.asarray(gene_starts, dtype=float)
    if gene_ends is None:
        lo = starts - half_width
        hi = starts + half_width
        centers = starts
    else:
        ends = np.asarray(gene_ends, dtype=float)
        lo, hi = starts, ends
        centers = 0.5 * (starts + ends)
    p = len(starts)
    n = len(fits)
    x = np.full((n, p), np.nan)
    provenance = np.full((n, p), "interpolated", dtype="<U12")
    for i, fit in enumerate(fits):
        if len(fit.positions) == 0:
            raise NoProbesOnChromosome(fit.patient, chromosome)
        seg_means = np.asarray(fit.means)
        probe_seg = fit.segment_of_probe()
        first = np.searchsorted(fit.positions, lo, side="left")
        last = np.searchsorted(fit.positions, hi, side="right")
        # probes are sorted and segments contiguous, so the probes of a gene
        # touch exactly the segments s0..s1
        hit = np.flatnonzero(last > first)
        s0 = probe_seg[first[hit]]
        s1 = probe_seg[last[hit] - 1]
        x[i, hit] = seg_means[s0]
        multi = s1 > s0
        for j, a, b in zip(hit[multi], s0[multi], s1[multi]):
            x[i, j] = seg_means[a : b + 1].mean()
        provenance[i, hit] = np.where(last[hit] - first[hit] == 1, "single-probe", "averaged")
        filled = np.flatnonzero(~np.isnan(x[i]))
        if filled.size == 0:
            # no gene captured a probe; fall back to the probe-level fit
            x[i] = np.interp(centers, fit.positions, fit.fitted())
        elif filled.size < p:
            missing = np.flatnonzero(np.isnan(x[i]))
            x[i, missing] = np.interp(centers[missing], centers[filled], x[i, filled])
    return AlignedCovariate(x=x, provenance=provenance)


def correct_expression(
    matrix: ExpressionMatrix,
    x: np.ndarray,
    mode: str = "pooled",
) -> tuple[ExpressionMatrix, dict]:
    """Regress the gene-aligned covariate x (n x p) out of the expression matrix.

    Both modes fit the design [1, x] by least squares. Pooled mode fits one
    regression over every (patient, gene) cell of the chromosome, a single
    shared slope; per-gene mode fits one regression per gene column. Returns
    the residual matrix (unstandardized; the pipeline re-standardizes before
    segmenting) and the fitted coefficients.
    """
    Y = matrix.values
    if x.shape != Y.shape:
        raise ValueError(f"covariate shape {x.shape} does not match {Y.shape}")
    if mode not in ("pooled", "per-gene"):
        raise ValueError(f"unknown correction mode {mode!r}")
    if mode == "per-gene":
        resid = np.empty_like(Y)
        betas = []
        for j in range(matrix.p):
            A = np.column_stack([np.ones(matrix.n), x[:, j]])
            beta, *_ = np.linalg.lstsq(A, Y[:, j], rcond=None)
            resid[:, j] = Y[:, j] - A @ beta
            betas.append(beta.tolist())
    elif np.ptp(x) > 0:
        A = np.column_stack([np.ones(Y.size), x.ravel()])
        beta, *_ = np.linalg.lstsq(A, Y.ravel(), rcond=None)
        resid = (Y.ravel() - A @ beta).reshape(Y.shape)
        betas = beta.tolist()
    else:
        warnings.warn(
            "covariate has zero variance; returning centered expression",
            DegenerateCovariateWarning,
            stacklevel=2,
        )
        resid = Y - Y.mean()
        betas = [float(Y.mean()), 0.0]
    return replace(matrix, values=resid, standardized=False), {"mode": mode, "beta": betas}
