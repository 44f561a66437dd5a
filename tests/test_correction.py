"""Covariate segmentation, gene alignment, and regression correction."""

import itertools

import numpy as np
import pytest
import scipy.stats

from corrseg.core import block_sums, build_gram_prefix, standardize
from corrseg.correction import (
    PatientFit,
    _rss_cost,
    align_to_genes,
    correct_expression,
    segment_covariate,
)
from corrseg.errors import (
    DegenerateCovariateWarning,
    NoProbesOnChromosome,
    TooFewProbes,
)
from corrseg.segment import TILE, _dp_kernel, rho_hat
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
    fits = segment_covariate(track_for({"P1": np.full(30, 1.7)}))
    fit = fits[0]
    assert fit.breakpoints == (0, 30)
    assert fit.means == pytest.approx((1.7,))
    assert np.allclose(fit.fitted(), 1.7)

def test_two_probe_series_forced_split():
    fits = segment_covariate(track_for({"P1": [0.0, 5.0]}), fixed_k=2)
    fit = fits[0]
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
        fits = segment_covariate(track_for({"P1": vals}))
        fit = fits[0]
        interior = [b for b in fit.breakpoints if 0 < b < 100]
        if any(abs(b - 50) <= 2 for b in interior):
            hits += 1
    assert hits >= 19

def test_segment_means_are_segment_averages(rng):
    vals = rng.standard_normal(60) + np.repeat([0.0, 3.0, -1.0], 20)
    fits = segment_covariate(track_for({"P1": vals}), fixed_k=3)
    fit = fits[0]
    for (a, b), mu in zip(
        zip(fit.breakpoints[:-1], fit.breakpoints[1:]), fit.means
    ):
        assert mu == pytest.approx(vals[a:b].mean(), abs=1e-12)

def rss_of(vals, bounds):
    """Within-segment residual sum of squares, two-pass per segment."""
    return sum(((vals[a:b] - vals[a:b].mean()) ** 2).sum() for a, b in zip(bounds, bounds[1:]))

def test_covariate_dp_equals_enumeration():
    rng = np.random.default_rng(909)
    for case in range(40):
        t = int(rng.integers(2, 10))
        vals = rng.standard_normal(t) + rng.choice([0.0, 2.5], size=t).cumsum()
        if case % 4 == 0:
            vals = np.round(vals)  # repeated values: tied optima
        D, _ = _dp_kernel(_rss_cost(vals), t, t, 1)
        for k in range(1, t + 1):
            best = min(
                rss_of(vals, [0, *cuts, t])
                for cuts in itertools.combinations(range(1, t), k - 1)
            )
            assert D[k - 1, -1] == pytest.approx(best, abs=1e-9)
            fit = segment_covariate(track_for({"P1": vals}), fixed_k=k)[0]
            assert len(fit.breakpoints) == k + 1
            assert rss_of(vals, fit.breakpoints) == pytest.approx(best, abs=1e-9)

def reference_rss(values, starts, stops):
    """Reference RSS cost: the same operations as plain out-of-place expressions."""
    cs = np.concatenate(([0.0], np.cumsum(values)))
    cs2 = np.concatenate(([0.0], np.cumsum(values * values)))
    length = stops - starts
    seg_sum = cs[stops] - cs[starts]
    seg_sq = cs2[stops] - cs2[starts]
    with np.errstate(invalid="ignore", divide="ignore"):
        rss = seg_sq - seg_sum * seg_sum / np.maximum(length, 1)
    return rss, np.maximum(rss, 0.0)

def test_in_place_rss_cost_equals_out_of_place_expression(rng):
    # the kernel's tiles, including the empty segments past each end point;
    # a large offset makes round-off drive some RSS below 0, so the guard acts
    t = 3 * TILE + 5
    negative = False
    for values in (rng.standard_normal(t), 1e8 + rng.integers(0, 3, t) * 1e-4):
        cost = _rss_cost(values)
        for b0 in range(0, t, TILE):
            b1 = min(b0 + TILE, t)
            starts = np.arange(b1)[None, :]
            stops = np.arange(b0 + 1, b1 + 1)[:, None]
            rss, expected = reference_rss(values, starts, stops)
            negative |= bool((rss < 0).any())
            assert np.array_equal(cost(starts, stops), expected)
    assert negative

def test_unsorted_positions_are_sorted():
    pos = np.array([30.0, 10.0, 20.0])
    vals = np.array([3.0, 1.0, 2.0])
    fits = segment_covariate({"P1": (pos, vals)}, fixed_k=3)
    fit = fits[0]
    assert tuple(fit.positions) == (10.0, 20.0, 30.0)
    assert fit.means == (1.0, 2.0, 3.0)


# ---------------------------------------------------------------- alignment

def aligned_single_patient(pos, vals, gene_starts, gene_ends=None, **kw):
    fits = segment_covariate({"P1": (np.asarray(pos, float), np.asarray(vals, float))}, **kw)
    return align_to_genes(fits, np.asarray(gene_starts, float),
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
    fits = segment_covariate(series)
    starts = np.linspace(0, 1000, 25)
    out = align_to_genes(fits, starts, starts + 20.0)
    assert not np.isnan(out.x).any()
    assert set(np.unique(out.provenance)) <= {"single-probe", "averaged", "interpolated"}

def test_align_empty_chromosome():
    empty = (PatientFit(
        patient="P1", positions=(), breakpoints=(0,), means=(),
    ),)
    with pytest.raises(NoProbesOnChromosome):
        align_to_genes(empty, np.array([1.0]), np.array([2.0]), chromosome="chr3")


# --------------------------------------------------------------- regression

def test_exact_linear_relation_gives_zero_residuals(rng):
    x = rng.uniform(-1, 2, size=(20, 8))
    y = 2.0 + 3.0 * x
    corrected, info = correct_expression(as_matrix(y), x)
    assert np.allclose(corrected.values, 0.0, atol=1e-10)
    assert info["beta"] == pytest.approx([2.0, 3.0], abs=1e-9)

def test_constant_covariate_degenerates(rng):
    y = rng.standard_normal((15, 4)) + 5.0
    with pytest.warns(DegenerateCovariateWarning):
        corrected, info = correct_expression(as_matrix(y), np.full((15, 4), 2.0))
    assert np.allclose(corrected.values, y - y.mean(), atol=1e-12)

def test_pooled_ols_matches_scipy(rng):
    x = rng.standard_normal((30, 6))
    y = 1.0 - 0.7 * x + 0.3 * rng.standard_normal((30, 6))
    corrected, info = correct_expression(as_matrix(y), x)
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
    corrected, info = correct_expression(as_matrix(y), x, mode="per-gene")
    for j in range(3):
        ref = scipy.stats.linregress(x[:, j], y[:, j])
        assert info["beta"][j][0] == pytest.approx(ref.intercept, abs=1e-9)
        assert info["beta"][j][1] == pytest.approx(ref.slope, abs=1e-9)
        assert abs(corrected.values[:, j].mean()) < 1e-10
        assert abs((corrected.values[:, j] * x[:, j]).mean()) < 1e-10

def test_bad_mode_and_shape(rng):
    y = rng.standard_normal((10, 3))
    with pytest.raises(ValueError):
        correct_expression(as_matrix(y), np.zeros((10, 4)))
    with pytest.raises(ValueError):
        correct_expression(as_matrix(y), np.zeros((10, 3)), mode="ridge")

def reference_regression(Y, x, mode):
    """The one-covariate regression as the list-of-covariates
    correct_expression computed it: design [1, x], one lstsq call."""
    if mode == "pooled":
        flat = x.ravel()
        if not np.ptp(flat) > 0:
            return Y - Y.mean(), [float(Y.mean()), 0.0]
        A = np.column_stack([np.ones(Y.size), flat])
        beta, *_ = np.linalg.lstsq(A, Y.ravel(), rcond=None)
        return (Y.ravel() - A @ beta).reshape(Y.shape), [float(b) for b in beta]
    n, p = Y.shape
    resid = np.empty_like(Y)
    betas = np.empty((p, 2))
    for j in range(p):
        A = np.column_stack([np.ones(n), x[:, j]])
        beta, *_ = np.linalg.lstsq(A, Y[:, j], rcond=None)
        resid[:, j] = Y[:, j] - A @ beta
        betas[j] = beta
    return resid, betas.tolist()

@pytest.mark.parametrize("mode, p, constant", [
    ("pooled", 7, None),
    ("per-gene", 7, "column"),
    ("pooled", 7, "all"),
    ("pooled", 1, None),
    ("per-gene", 1, None),
], ids=["pooled", "per-gene-constant-column", "degenerate", "p1-pooled", "p1-per-gene"])
def test_regression_bits_equal_reference(mode, p, constant):
    rng = np.random.default_rng(2024)
    x = rng.uniform(0.5, 3.0, size=(12, p))
    if constant == "column":
        x[:, 2] = 1.5
    elif constant == "all":
        x[:] = 2.0
    y = 1.0 + 0.8 * x + rng.standard_normal((12, p))
    if constant == "all":
        with pytest.warns(DegenerateCovariateWarning):
            corrected, info = correct_expression(as_matrix(y), x, mode=mode)
    else:
        corrected, info = correct_expression(as_matrix(y), x, mode=mode)
    resid, beta = reference_regression(y, x, mode)
    assert np.array_equal(corrected.values, resid)
    assert info == {"mode": mode, "beta": beta}


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
        corrected, _ = correct_expression(m, x)
        removed.append(block_rho(corrected, a1, b1))
        kept.append(block_rho(corrected, a2, b2))
        # correction lowers the background estimate on covariate-driven data
        assert estimate_rho0(corrected) < estimate_rho0(m)
    # x-block correlation collapses to the background level (rho0 = 0 here)
    assert np.mean(removed) < 0.05
    # the intrinsic block's estimate stays near its planted value
    assert abs(np.mean(kept) - 0.7) < 0.05
