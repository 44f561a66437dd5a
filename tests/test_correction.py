"""Covariate segmentation, gene alignment, and regression correction."""

import numpy as np
import pytest
import scipy.stats

from corrseg.core import block_sums, build_gram_prefix, standardize
from corrseg.correction import (
    AlignedCovariate,
    align_to_genes,
    correct_expression,
    segment_covariate,
)
from corrseg.errors import (
    DegenerateCovariateWarning,
    NoProbesOnChromosome,
    TooFewProbes,
)
from corrseg.segment import build_cost_table, dp_segment, rho_hat
from corrseg.significance import estimate_rho0
from conftest import as_matrix, blocked_matrix


def track_for(values_by_patient, positions=None):
    series = {}
    for patient, vals in values_by_patient.items():
        vals = np.asarray(vals, dtype=float)
        pos = np.arange(len(vals), dtype=float) if positions is None else positions
        series[patient] = (np.asarray(pos, dtype=float), vals)
    return series


# ------------------------------------------------- covariate segmentation

def test_constant_series_one_segment():
    track = segment_covariate(track_for({"P1": np.full(30, 1.7)}))
    fit = track.fits[0]
    assert fit.breakpoints == (0, 30)
    assert fit.means == pytest.approx((1.7,))
    assert np.allclose(fit.fitted(), 1.7)

def test_two_probe_series_forced_split():
    track = segment_covariate(track_for({"P1": [0.0, 5.0]}), fixed_k=2)
    fit = track.fits[0]
    assert fit.breakpoints == (0, 1, 2)
    assert fit.means == pytest.approx((0.0, 5.0))
    # residual sum of squares is zero for singleton segments
    assert np.allclose(fit.fitted(), [0.0, 5.0])

def test_single_probe_rejected():
    with pytest.raises(TooFewProbes) as exc:
        segment_covariate(track_for({"P9": [1.0]}))
    assert "P9" in str(exc.value)

def test_step_series_breakpoint_recovery():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng([55, seed])
        vals = np.concatenate([np.zeros(50), np.full(50, 2.0)])
        vals += 0.1 * rng.standard_normal(100)
        track = segment_covariate(track_for({"P1": vals}))
        fit = track.fits[0]
        interior = [b for b in fit.breakpoints if 0 < b < 100]
        if any(abs(b - 50) <= 2 for b in interior):
            hits += 1
    assert hits >= 19

def test_segment_means_are_segment_averages(rng):
    vals = rng.standard_normal(60) + np.repeat([0.0, 3.0, -1.0], 20)
    track = segment_covariate(track_for({"P1": vals}), fixed_k=3)
    fit = track.fits[0]
    for (a, b), mu in zip(
        zip(fit.breakpoints[:-1], fit.breakpoints[1:]), fit.means
    ):
        assert mu == pytest.approx(vals[a:b].mean(), abs=1e-12)

def test_unsorted_positions_are_sorted():
    pos = np.array([30.0, 10.0, 20.0])
    vals = np.array([3.0, 1.0, 2.0])
    track = segment_covariate({"P1": (pos, vals)}, fixed_k=1)
    fit = track.fits[0]
    assert tuple(fit.positions) == (10.0, 20.0, 30.0)
    assert tuple(fit.values) == (1.0, 2.0, 3.0)


# ---------------------------------------------------------------- alignment

def aligned_single_patient(pos, vals, gene_starts, gene_ends=None, **kw):
    track = segment_covariate({"P1": (np.asarray(pos, float), np.asarray(vals, float))}, **kw)
    return align_to_genes(track, np.asarray(gene_starts, float),
                          None if gene_ends is None else np.asarray(gene_ends, float))

def test_align_single_probe_rule():
    # one probe inside the gene: the probe's segment mean carries over
    out = aligned_single_patient(
        pos=[100.0, 200.0], vals=[1.5, 1.5], gene_starts=[90.0], gene_ends=[110.0]
    )
    assert out.x[0, 0] == pytest.approx(1.5)
    assert out.provenance[0, 0] == "single-probe"

def test_align_averaged_rule():
    # probes from two fitted segments with means 1 and 3 average to 2
    pos = [10.0, 20.0, 30.0, 40.0]
    vals = [1.0, 1.0, 3.0, 3.0]
    out = aligned_single_patient(
        pos, vals, gene_starts=[15.0], gene_ends=[35.0], fixed_k=2
    )
    assert out.x[0, 0] == pytest.approx(2.0)
    assert out.provenance[0, 0] == "averaged"

def test_align_interpolation_midpoint():
    # gene 2 holds no probe, midway between genes aligned to 0 and 2
    pos = [10.0, 30.0]
    vals = [0.0, 2.0]
    out = aligned_single_patient(
        pos, vals, gene_starts=[9.0, 19.0, 29.0], gene_ends=[11.0, 21.0, 31.0],
        fixed_k=2,
    )
    assert out.x[0].tolist() == pytest.approx([0.0, 1.0, 2.0])
    assert list(out.provenance[0]) == ["single-probe", "interpolated", "single-probe"]

def test_align_nearest_neighbor_at_ends():
    pos = [50.0, 60.0]
    vals = [4.0, 4.0]
    out = aligned_single_patient(
        pos, vals,
        gene_starts=[0.0, 45.0, 90.0], gene_ends=[10.0, 65.0, 95.0],
    )
    # flankless ends copy the nearest aligned value
    assert out.x[0].tolist() == pytest.approx([4.0, 4.0, 4.0])
    assert list(out.provenance[0]) == ["interpolated", "averaged", "interpolated"]

def test_align_totality(rng):
    pos = np.sort(rng.uniform(0, 1000, 40))
    series = {
        f"P{i}": (pos, rng.standard_normal(40)) for i in range(5)
    }
    track = segment_covariate(series)
    starts = np.linspace(0, 1000, 25)
    out = align_to_genes(track, starts, starts + 20.0)
    assert not np.isnan(out.x).any()
    assert set(np.unique(out.provenance)) <= {"single-probe", "averaged", "interpolated"}

def test_align_empty_chromosome():
    track = segment_covariate({"P1": (np.array([1.0, 2.0]), np.array([0.0, 0.0]))})
    empty = type(track)(fits=(type(track.fits[0])(
        patient="P1", positions=(), values=(), breakpoints=(0,), means=(),
    ),))
    with pytest.raises(NoProbesOnChromosome):
        align_to_genes(empty, np.array([1.0]), np.array([2.0]), chromosome="chr3")


# --------------------------------------------------------------- regression

def test_exact_linear_relation_gives_zero_residuals(rng):
    x = rng.uniform(-1, 2, size=(20, 8))
    y = 2.0 + 3.0 * x
    cov = AlignedCovariate(x=x, provenance=np.full((20, 8), "single-probe", "<U12"))
    corrected, info = correct_expression(as_matrix(y), cov)
    assert np.allclose(corrected.values, 0.0, atol=1e-10)
    assert info["beta"] == pytest.approx([2.0, 3.0], abs=1e-9)

def test_constant_covariate_degenerates(rng):
    y = rng.standard_normal((15, 4)) + 5.0
    cov = AlignedCovariate(x=np.full((15, 4), 2.0), provenance=np.full((15, 4), "averaged", "<U12"))
    with pytest.warns(DegenerateCovariateWarning):
        corrected, info = correct_expression(as_matrix(y), cov)
    assert np.allclose(corrected.values, y - y.mean(), atol=1e-12)

def test_pooled_ols_matches_scipy(rng):
    x = rng.standard_normal((30, 6))
    y = 1.0 - 0.7 * x + 0.3 * rng.standard_normal((30, 6))
    cov = AlignedCovariate(x=x, provenance=np.full((30, 6), "single-probe", "<U12"))
    corrected, info = correct_expression(as_matrix(y), cov)
    ref = scipy.stats.linregress(x.ravel(), y.ravel())
    assert info["beta"][0] == pytest.approx(ref.intercept, abs=1e-9)
    assert info["beta"][1] == pytest.approx(ref.slope, abs=1e-9)
    # normal equations: zero mean and zero covariance with x
    assert abs(corrected.values.mean()) < 1e-10
    assert abs((corrected.values * x).mean()) < 1e-10

def test_per_gene_ols_matches_scipy(rng):
    x = rng.standard_normal((25, 3))
    y = np.empty_like(x)
    slopes = [0.5, -1.0, 2.0]
    for j, b in enumerate(slopes):
        y[:, j] = b * x[:, j] + 0.1 * rng.standard_normal(25)
    cov = AlignedCovariate(x=x, provenance=np.full((25, 3), "single-probe", "<U12"))
    corrected, info = correct_expression(as_matrix(y), cov, mode="per-gene")
    for j in range(3):
        ref = scipy.stats.linregress(x[:, j], y[:, j])
        assert info["beta"][j][0] == pytest.approx(ref.intercept, abs=1e-9)
        assert info["beta"][j][1] == pytest.approx(ref.slope, abs=1e-9)
        assert abs(corrected.values[:, j].mean()) < 1e-10
        assert abs((corrected.values[:, j] * x[:, j]).mean()) < 1e-10

def test_two_covariates_additive(rng):
    x1 = rng.standard_normal((20, 5))
    x2 = rng.standard_normal((20, 5))
    y = 1.0 + 2.0 * x1 - 3.0 * x2
    covs = [
        AlignedCovariate(x=x1, provenance=np.full((20, 5), "single-probe", "<U12")),
        AlignedCovariate(x=x2, provenance=np.full((20, 5), "single-probe", "<U12")),
    ]
    corrected, info = correct_expression(as_matrix(y), covs)
    assert np.allclose(corrected.values, 0.0, atol=1e-9)
    assert info["beta"] == pytest.approx([1.0, 2.0, -3.0], abs=1e-8)

def test_bad_mode_and_shape(rng):
    y = rng.standard_normal((10, 3))
    cov = AlignedCovariate(x=np.zeros((10, 4)), provenance=np.full((10, 4), "averaged", "<U12"))
    with pytest.raises(ValueError):
        correct_expression(as_matrix(y), cov)
    good = AlignedCovariate(x=np.zeros((10, 3)), provenance=np.full((10, 3), "averaged", "<U12"))
    with pytest.raises(ValueError):
        correct_expression(as_matrix(y), good, mode="ridge")
    with pytest.raises(ValueError):
        correct_expression(as_matrix(y), [])


def covariate_driven_dataset(seed):
    """Background noise plus an x-driven block and a separate CS block."""
    rng = np.random.default_rng([66, seed])
    n, p = 58, 90
    a1, b1 = 15, 40   # covariate-driven correlation
    a2, b2 = 55, 80   # intrinsic correlation, independent of x
    y = blocked_matrix(n, p, [(a2, b2)], 0.0, 0.7, rng)
    x = np.zeros((n, p))
    x[:, a1:b1] = rng.standard_normal(n)[:, None]
    y = y + 0.8 * x
    return y, x, (a1, b1), (a2, b2)

def block_rho(matrix, a, b):
    m = standardize(matrix)
    prefix = build_gram_prefix(m)
    return rho_hat(block_sums(prefix, a, b), b - a)

def test_correction_removes_x_block_keeps_real_block():
    kept, removed = [], []
    for seed in range(20):
        y, x, (a1, b1), (a2, b2) = covariate_driven_dataset(seed)
        m = as_matrix(y)
        cov = AlignedCovariate(x=x, provenance=np.full(x.shape, "single-probe", "<U12"))
        corrected, _ = correct_expression(m, cov)
        removed.append(block_rho(corrected, a1, b1))
        kept.append(block_rho(corrected, a2, b2))
        # correction lowers the background estimate on covariate-driven data
        assert estimate_rho0(corrected) < estimate_rho0(m)
    # x-block correlation collapses to the background level (rho0 = 0 here)
    assert np.mean(removed) < 0.05
    # the intrinsic block's estimate stays near its planted value
    assert abs(np.mean(kept) - 0.7) < 0.05
