"""Segment costs, the segmentation DP, and segment-count selection."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from corrseg.core import block_sums, build_gram_prefix, standardize
from corrseg import segment
from corrseg.errors import DegenerateNormalizationWarning, KTooLarge
from corrseg.pipeline import segment_chromosome
from corrseg.segment import (
    LOG_EPS,
    TILE,
    _closed_form_cost,
    _dp_kernel,
    default_k_max,
    dp_segment,
    penalty,
    rho_hat,
    segmentation_from_breakpoints,
    select_k,
    slope_change_choice,
)
from conftest import as_matrix, blocked_matrix, cost_grid, cs_block


def std_for(values: np.ndarray):
    return standardize(as_matrix(values))

def grid_mle(gram: np.ndarray, n: int, step: float) -> float:
    """Independent grid search of the CS profile likelihood via slogdet/solve."""
    ell = gram.shape[0]
    lo = -1.0 / (ell - 1) + 2 * step
    grid = np.arange(lo, 1.0 - step, step)
    best, best_ll = grid[0], -np.inf
    eye, ones = np.eye(ell), np.ones((ell, ell))
    for r in grid:
        sigma = (1.0 - r) * eye + r * ones
        sign, logdet = np.linalg.slogdet(sigma)
        if sign <= 0:
            continue
        ll = -0.5 * n * (logdet + np.trace(np.linalg.solve(sigma, gram)))
        if ll > best_ll:
            best, best_ll = r, ll
    return float(best)


# ---------------------------------------------------------------- costs

def test_singleton_cost_is_n(rng):
    C = cost_grid(std_for(rng.standard_normal((37, 8))))
    for j in range(8):
        assert C[j, j + 1] == pytest.approx(37.0, abs=1e-9)

def test_cost_matches_rho_form(rng):
    # same cost through the raw block-sum form and the rho-parametrized form
    vals = blocked_matrix(50, 30, [(5, 15)], 0.1, 0.6, rng)
    m = standardize(as_matrix(vals))
    prefix = build_gram_prefix(m)
    C = cost_grid(m)
    n = m.n
    for _ in range(100):
        a = int(rng.integers(0, 29))
        b = int(rng.integers(a + 1, 30))
        ell = b - a + 1
        r = rho_hat(block_sums(prefix, a, b + 1), ell)
        direct = n * (ell + (ell - 1) * np.log(1 - r) + np.log(1 + (ell - 1) * r))
        assert C[a, b + 1] == pytest.approx(direct, abs=1e-9)

def reference_closed_form_cost(S, L, n):
    """Reference closed-form cost: the same operations as one out-of-place expression."""
    den = np.maximum(L * L - L, 1)
    with np.errstate(invalid="ignore"):
        r1 = np.clip((L * L - S) / den, LOG_EPS, None)
        r2 = np.clip(S / np.maximum(L, 1), LOG_EPS, None)
        cost = n * (L + (L - 1) * np.log(r1) + np.log(r2))
        single = n * (1.0 + np.log(np.clip(S, LOG_EPS, None)))
    return np.where(L == 1, single, cost)

@pytest.mark.parametrize("length_dtype", [np.intp, float])
def test_in_place_cost_equals_out_of_place_expression(rng, length_dtype):
    # singletons and longer segments, with block sums at or below 0 (the
    # log S / L floor) and at or above L^2 (the log (L^2 - S) floor)
    lengths = np.arange(1, 41)
    frac = np.concatenate(([-0.5, 0.0, 1e-15, 1.0, 1.0 + 1e-15, 2.0], rng.uniform(-0.1, 1.1, 58)))
    L = np.repeat(lengths, frac.size).reshape(lengths.size, frac.size)
    S = L * L * frac[None, :]
    expected = reference_closed_form_cost(S, L, 58)
    assert (S[L == 1] <= 0).any() and (S[L > 1] <= 0).any() and (S >= L * L).any()
    L = L.astype(length_dtype)
    S_in = S.copy()
    assert np.array_equal(_closed_form_cost(S_in, L, 58), expected)
    # the costs overwrite S, through given work arrays as well
    assert np.array_equal(S_in, expected)
    work = np.full((2, *S.shape), np.nan)
    assert np.array_equal(_closed_form_cost(S.copy(), L, 58, work), expected)

def test_rho_hat_endpoints():
    # S = ell means zero average off-diagonal correlation
    assert rho_hat(4.0, 4) == pytest.approx(0.0, abs=1e-12)
    # perfectly correlated block: S = ell^2, clamped just below 1
    assert rho_hat(16.0, 4) == pytest.approx(1.0, abs=1e-6)
    assert rho_hat(16.0, 4) < 1.0
    # fully anticorrelated pair clamps just above -1/(ell-1)
    assert rho_hat(0.0, 2) > -1.0

def test_duplicated_block_cost_strongly_negative():
    rng = np.random.default_rng(5)
    col = rng.standard_normal(40)
    vals = np.column_stack([col, col, col, rng.standard_normal(40)])
    C = cost_grid(std_for(vals))
    # log(1 - rho) with rho clamped at 1 - 1e-8 dominates
    assert C[0, 3] < -400.0
    assert np.isfinite(C[0, 3])

def test_rho_hat_matches_grid_mle_small(rng):
    for _ in range(10):
        ell = int(rng.integers(2, 9))
        n = int(rng.integers(30, 120))
        r_true = float(rng.uniform(-0.5 / (ell - 1), 0.85))
        m = standardize(as_matrix(cs_block(n, ell, r_true, rng)))
        gram = m.values.T @ m.values / n
        r_pkg = rho_hat(gram.sum(), ell)
        assert abs(r_pkg - grid_mle(gram, n, 1e-3)) <= 1e-3 + 1e-9

def test_rho_hat_consistency_large_sample():
    rng = np.random.default_rng(99)
    m = standardize(as_matrix(cs_block(100_000, 3, 0.5, rng)))
    gram = m.values.T @ m.values / m.n
    r_pkg = rho_hat(gram.sum(), 3)
    assert abs(r_pkg - 0.5) < 0.02
    assert abs(r_pkg - grid_mle(gram, m.n, 1e-4)) <= 1e-4 + 1e-9


# ------------------------------------------------------------------- DP

def exhaustive_optimum(C: np.ndarray, k: int) -> float:
    p = C.shape[0] - 1
    best = np.inf
    for cuts in itertools.combinations(range(1, p), k - 1):
        bounds = [0, *cuts, p]
        best = min(best, sum(C[bounds[i], bounds[i + 1]] for i in range(k)))
    return best

def test_dp_trivial_k(rng):
    m = std_for(rng.standard_normal((20, 9)))
    one = dp_segment(m, 1)
    assert one.breakpoints == (0, 9)
    assert one.total_loglik == pytest.approx(-0.5 * cost_grid(m)[0, 9])
    full = dp_segment(m, 9)
    assert full.breakpoints == tuple(range(10))
    # every singleton costs n on standardized data
    assert full.total_loglik == pytest.approx(-0.5 * 9 * 20)

def test_dp_matches_exhaustive(rng):
    for case in range(20):
        p = int(rng.integers(4, 13))
        n = int(rng.integers(10, 40))
        style = case % 3
        if style == 0:
            vals = rng.standard_normal((n, p))
        elif style == 1:
            a = int(rng.integers(0, p - 1))
            b = int(rng.integers(a + 2, p + 1))
            vals = blocked_matrix(n, p, [(a, b)], 0.05, 0.8, rng)
        else:
            vals = cs_block(n, p, 0.5, rng)
        m = std_for(vals)
        C = cost_grid(m)
        for k in range(1, min(4, p) + 1):
            seg = dp_segment(m, k)
            assert -2.0 * seg.total_loglik == pytest.approx(
                exhaustive_optimum(C, k), abs=1e-8
            )
            assert seg.K == k

def test_dp_segment_rhos_consistent(rng):
    vals = blocked_matrix(40, 25, [(8, 16)], 0.0, 0.9, rng)
    m = standardize(as_matrix(vals))
    prefix = build_gram_prefix(m)
    seg = dp_segment(m, 3)
    for (a, b), r in zip(seg.segments(), seg.rho):
        ell = b - a
        expect = 0.0 if ell == 1 else rho_hat(block_sums(prefix, a, b), ell)
        assert r == pytest.approx(expect, abs=1e-12)

# The committed output digests rely on per-segment estimates matching the
# DP's segment costs bit for bit, so the two tests below compare with ==.

def test_block_sums_at_segment_bounds_equal_grid(rng):
    m = standardize(as_matrix(blocked_matrix(58, 120, [(30, 70)], 0.1, 0.7, rng)))
    P = build_gram_prefix(m)
    p = m.p
    d = np.diag(P)
    # reference: the grid as slices of the prefix, S[a, b] over genes a..b
    grid = d[1:][None, :] - P[:p, 1:] - P[1:, :p].T + d[:p][:, None]
    idx = np.arange(p)
    assert np.array_equal(block_sums(P, idx[:, None], idx[None, :] + 1), grid)
    bps = np.array([0, 1, 17, 30, 70, 71, 119, 120])
    segment_sums = block_sums(P, bps[:-1], bps[1:])
    assert np.array_equal(segment_sums, grid[bps[:-1], bps[1:] - 1])

def test_segment_estimates_equal_cost_table(rng):
    vals = blocked_matrix(58, 80, [(10, 30), (50, 65)], 0.05, 0.8, rng)
    m = standardize(as_matrix(vals))
    prefix = build_gram_prefix(m)
    C = cost_grid(m)
    idx = np.arange(m.p + 1)
    S = block_sums(prefix, idx[:, None], idx[None, :])
    segs = [dp_segment(m, k) for k in (1, 3, 9)]
    segs.append(segmentation_from_breakpoints(prefix, m.n, [0, 1, 2, 40, 79, 80]))
    for seg in segs:
        for (a, b), ll, r in zip(seg.segments(), seg.segment_loglik, seg.rho):
            assert ll == -0.5 * float(C[a, b])
            assert r == (0.0 if b - a == 1 else rho_hat(float(S[a, b]), b - a))
        assert seg.total_loglik == float(sum(seg.segment_loglik))

def test_dp_k_too_large(rng):
    m = std_for(rng.standard_normal((10, 6)))
    with pytest.raises(KTooLarge):
        dp_segment(m, 7)
    with pytest.raises(KTooLarge):
        dp_segment(m, 0)

def test_min_seg_len(rng):
    m = std_for(rng.standard_normal((15, 12)))
    seg = dp_segment(m, 4, min_seg_len=3)
    assert all(b - a >= 3 for a, b in seg.segments())
    with pytest.raises(KTooLarge):
        dp_segment(m, 5, min_seg_len=3)

def test_min_seg_len_exhaustive(rng):
    m = std_for(rng.standard_normal((18, 10)))
    C = cost_grid(m)
    for k in (2, 3):
        seg = dp_segment(m, k, min_seg_len=2)
        best = np.inf
        for cuts in itertools.combinations(range(1, 10), k - 1):
            bounds = [0, *cuts, 10]
            if min(np.diff(bounds)) < 2:
                continue
            best = min(
                best,
                sum(C[bounds[i], bounds[i + 1]] for i in range(k)),
            )
        assert -2.0 * seg.total_loglik == pytest.approx(best, abs=1e-8)


def reference_dp(C: np.ndarray, k_max: int, min_seg_len: int):
    """Textbook DP over the cost grid, one (k, b) cell at a time."""
    p = C.shape[0] - 1
    D = np.full((k_max, p), np.inf)
    B = np.zeros((k_max, p), dtype=np.intp)
    for b in range(min_seg_len - 1, p):
        D[0, b] = C[0, b + 1]
    for k in range(1, k_max):
        for b in range(1, p):
            # last segment t+1..b, at least min_seg_len genes
            t = np.arange(b - min_seg_len + 1)
            if t.size == 0:
                continue
            total = D[k - 1, t] + C[t + 1, b + 1]
            D[k, b] = total.min()
            B[k, b] = t[total.argmin()]
    return D, B

@pytest.mark.parametrize("min_seg_len", [1, 3])
def test_kernel_matches_reference_dp_across_tiles(min_seg_len):
    # b + 1 segments of points 0..b are all singletons, so with 4 tiles and
    # a partial fifth, rows up to past the second tile's last end point use
    # the in-tile predecessor b - 1; one partial tile with k_max = p has
    # rows that are infeasible at every end point once min_seg_len > 1
    rng = np.random.default_rng(17)
    cases = [(4 * TILE + 45, 2 * TILE + 6, [(20, 60), (120, 150)]),
             (TILE - 7, TILE - 7, [(5, 15)])]
    for p, k_max, blocks in cases:
        m = std_for(blocked_matrix(30, p, blocks, 0.05, 0.7, rng))
        C = cost_grid(m)
        prefix = build_gram_prefix(m)

        def cost(starts, stops):
            return _closed_form_cost(block_sums(prefix, starts, stops), stops - starts, m.n)

        D, B = _dp_kernel(cost, p, k_max, min_seg_len)
        D_ref, B_ref = reference_dp(C, k_max, min_seg_len)
        finite = np.isfinite(D_ref)
        assert np.array_equal(D, D_ref)
        # B is defined only where D is finite
        assert np.array_equal(B[finite], B_ref[finite])
    assert finite[-1].any() == (min_seg_len == 1)

def test_select_k_memory_stays_near_prefix_plus_tables():
    # the formula beside `_dp_kernel`: the prefix, E (float64) and B (int32),
    # plus at most eight tile buffers of 8*TILE*p bytes for one pass
    p = 1000
    k_max = default_k_max(p)
    m = std_for(blocked_matrix(58, p, [(100, 400)], 0.05, 0.7, np.random.default_rng(5)))
    tracemalloc.start()
    try:
        select_k(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = 8 * (p + 1) ** 2 + 8 * k_max * (p + 1) + 4 * k_max * p
    assert peak <= tables + 8 * (8 * TILE * p)

@pytest.mark.parametrize("min_seg_len", [1, 2])
def test_selection_segments_from_the_same_pass(rng, monkeypatch, min_seg_len):
    # one k_max pass per chromosome; the chosen K backtracks from it and a
    # fresh pass with K rows agrees
    passes = []

    def counted(cost, m, k_max, min_seg_len):
        passes.append(k_max)
        return _dp_kernel(cost, m, k_max, min_seg_len)

    monkeypatch.setattr(segment, "_dp_kernel", counted)
    vals = blocked_matrix(58, 90, [(20, 45), (60, 75)], 0.05, 0.8, rng)
    res = segment_chromosome(as_matrix(vals), k_max=30, min_seg_len=min_seg_len)
    assert passes == [30]
    assert res.trace.chosen_K > 1
    assert res.segmentation == res.trace.segmentation
    assert res.segmentation == dp_segment(res.matrix, res.trace.chosen_K, min_seg_len=min_seg_len)


# -------------------------------------------------------------- selection

def test_penalty_values():
    assert penalty(1, 100) == pytest.approx(5 + 2 * np.log(100))
    assert penalty(100, 100) == pytest.approx(500.0)
    ks = np.arange(1, 20)
    assert np.all(np.diff(penalty(ks, 500)) > 0)

def test_default_k_max():
    assert default_k_max(500) == 50
    assert default_k_max(100) == 20
    assert default_k_max(12) == 12

def test_select_k_recovers_planted_block():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng([41, seed])
        vals = blocked_matrix(58, 60, [(20, 40)], 0.0, 0.9, rng)
        trace = select_k(std_for(vals))
        if trace.chosen_K == 3:
            hits += 1
    assert hits >= 18

def test_select_k_pure_noise_prefers_one():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng([42, seed])
        trace = select_k(std_for(rng.standard_normal((58, 60))))
        if trace.chosen_K == 1:
            hits += 1
    assert hits >= 18

def test_select_k_globally_correlated_no_warning():
    # single-factor data: the likelihood can fall with K because block-diagonal
    # models are not nested, yet selection must quietly return K = 1
    rng = np.random.default_rng(7)
    vals = cs_block(58, 60, 0.5, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = select_k(std_for(vals))
    assert trace.chosen_K == 1
    assert not trace.degenerate

def test_select_k_trace_shape(rng):
    vals = blocked_matrix(58, 80, [(30, 50)], 0.05, 0.8, rng)
    trace = select_k(std_for(vals), k_max=16)
    assert len(trace.L) == 16
    assert len(trace.Ktilde) == 16
    assert len(trace.second_diffs) == 14
    assert trace.Ktilde == tuple(penalty(np.arange(1, 17), 80))
    # normalized curve is anchored at both ends
    span = trace.Ktilde[-1] - trace.Ktilde[0]
    assert trace.Ltilde[0] == pytest.approx(span + 1.0)
    assert trace.Ltilde[-1] == pytest.approx(1.0)
    if trace.chosen_K > 1:
        assert trace.second_diffs[trace.chosen_K - 2] > trace.threshold_S
        # largest-K rule: nothing beyond the choice qualifies
        assert all(
            d <= trace.threshold_S
            for d in trace.second_diffs[trace.chosen_K - 1 :]
        )

def test_slope_change_linear_curve_selects_one():
    # L exactly affine in the penalty: every slope change is zero
    p = 40
    kt = penalty(np.arange(1, 13), p)
    L = 3.0 * kt - 7.0
    chosen, d, degenerate = slope_change_choice(L, kt, 0.7)
    assert chosen == 1
    assert not degenerate
    assert np.allclose(d, 0.0, atol=1e-9)

def test_slope_change_flat_curve_degenerate():
    kt = penalty(np.arange(1, 8), 30)
    chosen, d, degenerate = slope_change_choice(np.full(7, 2.5), kt, 0.7)
    assert chosen == 1
    assert degenerate
    assert np.all(d == 0.0)

def test_slope_change_smallest_rule():
    kt = penalty(np.arange(1, 9), 50).astype(float)
    # increasing curve with sharp gains at K = 2 and K = 6, flat elsewhere
    L = np.cumsum([0.0, 10.0, 0.5, 0.5, 0.5, 8.0, 0.3, 0.3])
    chosen_l, d, _ = slope_change_choice(L, kt, 0.01, rule="largest")
    chosen_s, d2, _ = slope_change_choice(L, kt, 0.01, rule="smallest")
    assert np.allclose(d, d2)
    qualifying = np.flatnonzero(d > 0.01)
    assert qualifying.size >= 2
    assert chosen_l == qualifying[-1] + 2
    assert chosen_s == qualifying[0] + 2
    assert chosen_s < chosen_l
    with pytest.raises(ValueError):
        slope_change_choice(L, kt, 0.01, rule="median")

def test_select_k_flat_cost_table_warns():
    # Sylvester-Hadamard columns 1..12 are orthogonal, centred and +-1, so
    # standardizing leaves them as they are, G = I, every segment of L genes
    # costs n * L, and every K is equally likely
    h = np.array([[1.0]])
    for _ in range(4):
        h = np.block([[h, h], [h, -h]])
    m = standardize(as_matrix(h[:, 1:13]))
    assert np.array_equal(m.values, h[:, 1:13])
    with pytest.warns(DegenerateNormalizationWarning) as caught:
        trace = select_k(m, k_max=8)
    assert len(caught) == 1
    assert trace.L == (-0.5 * 16 * 12,) * 8
    assert trace.chosen_K == 1
    assert trace.degenerate
    assert trace.Ltilde == tuple(np.ones(8))

def test_select_k_respects_k_max_bounds(rng):
    m = std_for(rng.standard_normal((20, 10)))
    with pytest.raises(KTooLarge):
        select_k(m, k_max=11)
    with pytest.raises(KTooLarge, match="min_seg_len=11"):
        select_k(m, min_seg_len=11)
    trace = select_k(m, k_max=1)
    assert trace.chosen_K == 1
    assert trace.second_diffs == ()
