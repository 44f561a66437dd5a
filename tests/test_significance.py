"""Exact region test, background estimate, and multiplicity adjustment."""

import numpy as np
import pytest
import scipy.stats

from corrseg.chi2 import ChiSquare
from corrseg.core import standardize
from corrseg.errors import EmptyRegion, InvalidRho0
from corrseg.segment import dp_segment
from corrseg.significance import (
    adjust_pvalues,
    apply_adjustment,
    estimate_rho0,
    lambda_factor,
    p_value,
    power,
)
from corrseg.significance import test_regions as regions_for
from corrseg.significance import test_statistic as region_statistic
from conftest import as_matrix, blocked_matrix, cs_block


# --------------------------------------------------------- test statistic

def test_statistic_single_standardized_gene(rng):
    m = standardize(as_matrix(rng.standard_normal((30, 5))))
    for j in range(5):
        assert region_statistic(m, j, j + 1) == pytest.approx(1.0, abs=1e-12)

def test_statistic_identical_rows():
    vals = np.tile(np.array([1.0, -2.0, 0.5, 3.0]), (6, 1))
    m = as_matrix(vals + 0.0)
    assert region_statistic(m, 0, 4) == 0.0

def test_statistic_region_bounds(rng):
    m = as_matrix(rng.standard_normal((10, 4)))
    with pytest.raises(EmptyRegion):
        region_statistic(m, 2, 2)
    with pytest.raises(EmptyRegion):
        region_statistic(m, 0, 5)

def test_statistic_mean_matches_theory():
    # mean of T over replicates approximates (n - 1) * lambda(p_k, rho)
    n, p_k, rho = 58, 7, 0.561
    rng = np.random.default_rng(314)
    reps = 10_000
    w = rng.standard_normal((reps, n))
    e = rng.standard_normal((reps, n, p_k))
    y = np.sqrt(rho) * w[:, :, None] + np.sqrt(1 - rho) * e
    row_means = y.mean(axis=2)
    centered = row_means - row_means.mean(axis=1, keepdims=True)
    t_vals = (centered**2).mean(axis=1)
    target = (n - 1) * lambda_factor(p_k, rho, n)
    assert target == pytest.approx(57 * (1 + 6 * 0.561) / (58 * 7), abs=1e-12)
    assert t_vals.mean() == pytest.approx(target, rel=0.02)
    # and the scalar path agrees with the vectorized computation
    m = as_matrix(y[0])
    assert region_statistic(m, 0, p_k) == pytest.approx(t_vals[0], abs=1e-12)


# --------------------------------------------------------------- p-value

def test_p_value_inverts_quantile():
    n, p_k, rho0 = 58, 7, 0.163
    for alpha in (0.05, 0.005, 1e-4):
        t_obs = lambda_factor(p_k, rho0, n) * ChiSquare(n - 1).quantile(1 - alpha)
        assert p_value(t_obs, p_k, rho0, n) == pytest.approx(alpha, rel=1e-10)

def test_p_value_monotone_in_t_and_rho0():
    n, p_k = 40, 6
    ts = np.linspace(0.05, 2.0, 30)
    ps = [p_value(t, p_k, 0.1, n) for t in ts]
    assert np.all(np.diff(ps) < 0)
    rhos = np.linspace(0.0, 0.8, 30)
    ps = [p_value(0.5, p_k, r, n) for r in rhos]
    assert np.all(np.diff(ps) > 0)

def test_p_value_rho0_domain():
    with pytest.raises(InvalidRho0):
        p_value(0.5, 5, 1.0, 20)
    with pytest.raises(InvalidRho0):
        p_value(0.5, 5, -0.25, 20)
    # open interval: the lower bound itself is excluded
    with pytest.raises(InvalidRho0):
        p_value(0.5, 2, -1.0, 20)
    assert 0.0 <= p_value(0.5, 5, -0.2, 20) <= 1.0
    # singleton regions accept any rho0 below 1
    assert 0.0 <= p_value(0.5, 1, -5.0, 20) <= 1.0
    # power checks the in-region rho on the same interval
    with pytest.raises(InvalidRho0, match=r"^rho=1.5 outside"):
        power(10, 5, 1.5, 0.15, 0.05)
    with pytest.raises(InvalidRho0, match=r"^rho=-0.25 outside"):
        power(10, 5, -0.25, -0.2, 0.05)


# ----------------------------------------------------------------- power

def test_power_at_null_equals_alpha():
    for alpha in (0.05, 0.005, 0.0005):
        assert power(58, 5, 0.15, 0.15, alpha) == pytest.approx(alpha, rel=1e-9)

def test_power_figures_anchor_points():
    # detectable: p = 5 once rho reaches 0.6; not detectable: p = 3 at rho = 0.5
    assert power(58, 5, 0.6, 0.15, 0.005) > 0.8
    assert power(58, 3, 0.5, 0.15, 0.005) < 0.8

def test_power_monotone_grids():
    alpha, rho0 = 0.005, 0.15
    for n in (10, 58, 200):
        for p in (2, 5, 20):
            vals = [power(n, p, r, rho0, alpha) for r in np.linspace(0.15, 0.9, 16)]
            assert np.all(np.diff(vals) >= -1e-12)
    for p in (2, 5, 20):
        for r in (0.3, 0.6):
            vals = [power(n, p, r, rho0, alpha) for n in (10, 20, 58, 200, 1000)]
            assert np.all(np.diff(vals) >= -1e-12)
    for n in (10, 58, 200):
        for r in (0.3, 0.6):
            vals = [power(n, p, r, rho0, alpha) for p in (2, 3, 5, 10, 20)]
            assert np.all(np.diff(vals) >= -1e-12)


# ---------------------------------------------------- background estimate

def test_estimate_rho0_iid_near_zero():
    rng = np.random.default_rng(21)
    m = as_matrix(rng.standard_normal((58, 500)))
    assert abs(estimate_rho0(m)) <= 0.05

def test_estimate_rho0_exchangeable():
    # With a shared latent factor at n = 58, individual replicates can land
    # just outside [0.13, 0.23]; the replicate mean sits well inside it.
    vals = []
    for seed in range(20):
        rng = np.random.default_rng([77, seed])
        m = as_matrix(cs_block(58, 500, 0.18, rng))
        vals.append(estimate_rho0(m))
    assert 0.13 <= np.mean(vals) <= 0.23
    assert min(vals) >= 0.10 and max(vals) <= 0.26

@pytest.mark.parametrize("p", [2, 3, 40, 41])
def test_estimate_rho0_is_numpy_median_bits(rng, p):
    m = as_matrix(rng.standard_normal((20, p)))
    Y = m.values - m.values.mean(axis=0)
    sd = np.sqrt((Y * Y).mean(axis=0))
    r = (Y[:, :-1] * Y[:, 1:]).mean(axis=0) / (sd[:-1] * sd[1:])
    assert estimate_rho0(m) == float(abs(np.median(r)))

def test_estimate_rho0_duplicated_columns():
    rng = np.random.default_rng(5)
    col = rng.standard_normal(30)
    m = as_matrix(np.column_stack([col, col, col]))
    assert estimate_rho0(m) == pytest.approx(1.0)

def test_estimate_rho0_bounded_and_sign_invariant(rng):
    m = as_matrix(blocked_matrix(58, 120, [(30, 60)], 0.1, 0.8, rng))
    r = estimate_rho0(m)
    assert r <= 1.0
    flipped = as_matrix(-m.values)
    assert estimate_rho0(flipped) == pytest.approx(r, abs=1e-14)


# ------------------------------------------------------------ adjustment

def naive_bh(ps):
    m = len(ps)
    order = np.argsort(ps, kind="stable")
    adj = np.empty(m)
    running = 1.0
    for rank in range(m - 1, -1, -1):
        running = min(running, ps[order[rank]] * m / (rank + 1))
        adj[order[rank]] = running
    return adj

def test_adjust_singleton_unchanged():
    assert adjust_pvalues([0.01], "bh") == pytest.approx([0.01])
    assert adjust_pvalues([0.01], "bonferroni") == pytest.approx([0.01])

def test_adjust_bonferroni_triple():
    assert adjust_pvalues([0.01, 0.02, 0.03], "bonferroni") == pytest.approx(
        [0.03, 0.06, 0.09]
    )
    assert adjust_pvalues([0.5, 0.9], "bonferroni") == pytest.approx([1.0, 1.0])

def test_adjust_bh_triple():
    assert adjust_pvalues([0.01, 0.02, 0.06], "bh") == pytest.approx(
        [0.03, 0.03, 0.06]
    )

def test_adjust_bh_matches_naive_reference(rng):
    for _ in range(25):
        ps = rng.uniform(0, 1, size=int(rng.integers(1, 40)))
        ps[rng.uniform(size=ps.size) < 0.3] **= 4  # sprinkle small values
        got = np.asarray(adjust_pvalues(list(ps), "bh"))
        assert np.allclose(got, naive_bh(ps), atol=1e-12)
        assert np.all(got >= ps - 1e-15)
        assert np.all(got <= 1.0)

def test_adjust_none_and_bad_method():
    assert adjust_pvalues([0.3, 0.1], "none") == pytest.approx([0.3, 0.1])
    with pytest.raises(ValueError):
        adjust_pvalues([0.5], "holm")


# ------------------------------------------------- region report pipeline

def test_null_calibration_small():
    n, p_k, rho0, alpha = 20, 5, 0.2, 0.05
    reps = 2000
    rng = np.random.default_rng(100)
    lam = lambda_factor(p_k, rho0, n)
    rejections = 0
    for _ in range(reps):
        y = cs_block(n, p_k, rho0, rng)
        if p_value(region_statistic(as_matrix(y), 0, p_k), p_k, rho0, n) <= alpha:
            rejections += 1
    lo = scipy.stats.binom.ppf(0.005, reps, alpha) / reps
    hi = scipy.stats.binom.ppf(0.995, reps, alpha) / reps
    assert lo <= rejections / reps <= hi

def test_test_regions_reports(rng):
    vals = blocked_matrix(58, 40, [(10, 25)], 0.05, 0.8, rng)
    m = standardize(as_matrix(vals))
    seg = dp_segment(m, 3)
    reports = regions_for(m, seg, chromosome="chr9")
    assert len(reports) == 3
    assert sum(r.p_k for r in reports) == 40
    assert reports[0].start == 1 and reports[-1].end == 40
    for r, (a, b) in zip(reports, seg.segments()):
        assert (r.start, r.end) == (a + 1, b)
        assert r.chromosome == "chr9"
        assert r.tested
        assert r.T_obs == pytest.approx(region_statistic(m, a, b), abs=1e-12)
        assert r.lambda0 == pytest.approx(lambda_factor(r.p_k, r.rho0_used, 58))
        assert r.p_value == pytest.approx(
            p_value(r.T_obs, r.p_k, r.rho0_used, 58), abs=1e-15
        )
    rho0 = estimate_rho0(m)
    assert all(r.rho0_used == pytest.approx(rho0) for r in reports)
    # the planted block's region should dominate
    block = max(reports, key=lambda r: r.p_k if r.rho_hat > 0.5 else -1)
    assert block.p_value < 1e-6

def test_test_regions_fixed_rho0(rng):
    m = standardize(as_matrix(rng.standard_normal((20, 10))))
    seg = dp_segment(m, 2)
    reports = regions_for(m, seg, rho0=0.3)
    assert all(r.rho0_used == 0.3 for r in reports)

def test_single_gene_chromosome_untested(rng):
    m = standardize(as_matrix(rng.standard_normal((12, 1))))
    seg = dp_segment(m, 1)
    reports = regions_for(m, seg, chromosome="chrY")
    assert len(reports) == 1
    r = reports[0]
    assert not r.tested
    assert (r.start, r.end, r.p_k) == (1, 1, 1)
    assert np.isnan(r.p_value)
    # a given background does not make a single gene testable
    (r,) = regions_for(m, seg, chromosome="chrY", rho0=0.3)
    assert not r.tested
    assert r.rho_hat == 0.0
    assert np.isnan(r.rho0_used) and np.isnan(r.lambda0) and np.isnan(r.p_value)

def test_apply_adjustment_family(rng):
    vals = blocked_matrix(58, 40, [(10, 25)], 0.0, 0.8, rng)
    m = standardize(as_matrix(vals))
    seg = dp_segment(m, 3)
    reports = regions_for(m, seg)
    single = standardize(as_matrix(rng.standard_normal((58, 1))))
    seg1 = dp_segment(single, 1)
    reports += regions_for(single, seg1)
    apply_adjustment(reports, "bh", alpha=0.05)
    tested = [r for r in reports if r.tested]
    expect = adjust_pvalues([r.p_value for r in tested], "bh")
    for r, e in zip(tested, expect):
        assert r.p_adjusted == pytest.approx(e)
        assert r.significant == (e <= 0.05)
        assert r.p_adjusted >= r.p_value - 1e-15
    untested = [r for r in reports if not r.tested]
    assert len(untested) == 1
    assert not untested[0].significant
    assert np.isnan(untested[0].p_adjusted)
