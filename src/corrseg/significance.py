"""Exact per-region test of correlation against the background level.

For a region of p_k genes, the variance across patients of the per-patient
region means follows lambda(p_k, rho) * chi-square(n-1) under compound
symmetry, with lambda(p_k, rho) = (1 + (p_k - 1) rho) / (n p_k). Testing
rho = rho0 against rho > rho0 is therefore exact: no resampling, just the
chi-square upper tail at the observed statistic over lambda(p_k, rho0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chi2 import ChiSquare
from .core import ExpressionMatrix
from .errors import EmptyRegion, InvalidRho0
from .segment import Segmentation


def test_statistic(matrix: ExpressionMatrix, start: int, stop: int) -> float:
    """Variance (divisor n) across patients of within-region row means.

    The region covers genes [start, stop), 0-based half-open. Row means
    (not sums) are what make the null scale factor lambda correct.
    """
    if not 0 <= start < stop <= matrix.p:
        raise EmptyRegion(f"invalid region [{start}, {stop}) for p={matrix.p}")
    row_means = matrix.values[:, start:stop].mean(axis=1)
    centered = row_means - row_means.mean()
    return float((centered * centered).mean())

def lambda_factor(p_k: int, rho: float, n: int) -> float:
    """Null scale of the test statistic: (1 + (p_k - 1) rho) / (n p_k)."""
    return (1.0 + (p_k - 1) * rho) / (n * p_k)

def _check_rho0(rho0: float, p_k: int, name: str = "rho0") -> None:
    lo = -1.0 / (p_k - 1) if p_k >= 2 else -math.inf
    if not lo < rho0 < 1.0:
        raise InvalidRho0(f"{name}={rho0} outside ({lo}, 1) for region width {p_k}")

def p_value(T_obs: float, p_k: int, rho0: float, n: int) -> float:
    """Upper-tail chi-square(n-1) probability of T_obs under rho = rho0."""
    _check_rho0(rho0, p_k)
    if n < 3:
        raise ValueError(f"need n >= 3 patients, got {n}")
    return ChiSquare(n - 1).sf(T_obs / lambda_factor(p_k, rho0, n))

def power(n: int, p: int, rho: float, rho0: float, alpha: float) -> float:
    """Exact detection probability at level alpha for true correlation rho.

    The ratio lambda(p, rho0) / lambda(p, rho) collapses to
    (1 + (p-1) rho0) / (1 + (p-1) rho), so the power is the survival
    function of chi-square(n-1) at that multiple of the null quantile.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    _check_rho0(rho0, p)
    _check_rho0(rho, p, "rho")
    dist = ChiSquare(n - 1)
    ratio = (1.0 + (p - 1) * rho0) / (1.0 + (p - 1) * rho)
    return dist.sf(ratio * dist.quantile(1.0 - alpha))

def estimate_rho0(matrix: ExpressionMatrix) -> float:
    """Background correlation: |median Pearson correlation of adjacent genes|.

    Robust to a minority of correlated blocks: those only shift a few of
    the adjacent-pair correlations, leaving the median near the background.
    """
    if matrix.p < 2:
        raise ValueError("background estimation needs at least 2 genes")
    Y = matrix.values
    centered = Y - Y.mean(axis=0)
    sd = np.sqrt((centered * centered).mean(axis=0))
    sd = np.where(sd == 0.0, np.nan, sd)
    r = (centered[:, :-1] * centered[:, 1:]).mean(axis=0) / (sd[:-1] * sd[1:])
    r = np.sort(r[np.isfinite(r)])
    if r.size == 0:
        return 0.0
    # np.median's bits without its first call's numpy.ma import (~10 ms)
    mid = r.size // 2
    return float(abs(r[mid] if r.size % 2 else (r[mid - 1] + r[mid]) / 2))


def adjust_pvalues(p_values: list[float], method: str = "bh") -> list[float]:
    """Multiple-testing adjustment preserving input order.

    ``bh`` is the Benjamini-Hochberg step-up, ``bonferroni`` multiplies by
    the family size, ``none`` returns the values unchanged.
    """
    p = np.asarray(p_values, dtype=float)
    if p.size and (np.nanmin(p) < 0 or np.nanmax(p) > 1):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    method = method.lower()
    if method == "none" or m == 0:
        return [float(v) for v in p]
    if method == "bonferroni":
        return [float(min(1.0, m * v)) for v in p]
    if method == "bh":
        order = np.argsort(p, kind="stable")
        ranked = p[order] * m / np.arange(1, m + 1)
        # step-up: running minimum from the largest rank down
        ranked = np.minimum.accumulate(ranked[::-1])[::-1]
        ranked = np.minimum(ranked, 1.0)
        out = np.empty(m)
        out[order] = ranked
        return [float(v) for v in out]
    raise ValueError(f"unknown adjustment method {method!r}")


@dataclass
class RegionReport:
    """Test summary of one segment. start/end are 1-based inclusive."""

    chromosome: str
    start: int
    end: int
    p_k: int
    rho_hat: float
    rho0_used: float
    T_obs: float
    lambda0: float
    p_value: float
    p_adjusted: float = math.nan
    significant: bool = False
    tested: bool = True


def test_regions(
    matrix: ExpressionMatrix,
    segmentation: Segmentation,
    chromosome: str = "all",
    rho0: float | None = None,
) -> list[RegionReport]:
    """Raw per-segment tests for one chromosome.

    rho0 defaults to the background estimate from the same matrix. A
    single-gene chromosome has no adjacent pairs to estimate background
    from and no within-region variance contrast, so its one region is
    reported untested. Adjusted p-values are filled in later across the
    whole family of regions (see apply_adjustment).
    """
    if segmentation.p != matrix.p:
        raise ValueError(
            f"segmentation covers {segmentation.p} genes, matrix has {matrix.p}"
        )
    n = matrix.n
    tested = matrix.p >= 2
    if tested and rho0 is None:
        rho0 = estimate_rho0(matrix)
    reports = []
    for k, (a, b) in enumerate(segmentation.segments()):
        p_k = b - a
        T = test_statistic(matrix, a, b)
        reports.append(
            RegionReport(
                chromosome=chromosome,
                start=a + 1,
                end=b,
                p_k=p_k,
                rho_hat=segmentation.rho[k],
                rho0_used=rho0 if tested else math.nan,
                T_obs=T,
                lambda0=lambda_factor(p_k, rho0, n) if tested else math.nan,
                p_value=p_value(T, p_k, rho0, n) if tested else math.nan,
                tested=tested,
            )
        )
    return reports

def apply_adjustment(
    reports: list[RegionReport], method: str = "bh", alpha: float = 0.05
) -> list[RegionReport]:
    """Fill p_adjusted and significance flags across one family of tests."""
    tested = [r for r in reports if r.tested]
    adjusted = adjust_pvalues([r.p_value for r in tested], method)
    for r, adj in zip(tested, adjusted):
        r.p_adjusted = adj
        r.significant = bool(adj <= alpha)
    for r in reports:
        if not r.tested:
            r.p_adjusted = math.nan
            r.significant = False
    return reports
