"""Segment costs, the segmentation DP, and segment-count selection."""

import itertools
import math
import mmap
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from corrseg.core import block_sums, build_gram_prefix, standardize
from corrseg import segment
from corrseg.correction import _rss_cost, segment_covariate
from corrseg.errors import DegenerateNormalizationWarning, DPBandFailed, KTooLarge
from corrseg.pipeline import segment_all, split_by_chromosome
from corrseg.segment import (
    LOG_EPS,
    TILE,
    _closed_form_cost,
    _dp_kernel,
    _tile,
    default_k_max,
    dp_segment,
    pass_size,
    penalty,
    rho_hat,
    segmentation_from_breakpoints,
    segmentation_of,
    select_k,
    slope_change_choice,
)
from conftest import as_matrix, blocked_matrix, cost_grid, cs_block, open_fds


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

# `corrseg test` takes its block sums from row sums, not from the prefix, and
# reports the prefix rho segment wrote where it matches; the DP reads each
# cost tile through views of the prefix and must keep the bits of the
# gathered four-term block sums.

BIT_PIN_WIDTHS = [1, 2, TILE - 1, TILE, 3 * TILE + 5]

@st.composite
def bit_pin_case(draw):
    """(standardized matrix, breakpoints): one segment, all singletons or a
    drawn cut, with a column repeated next to itself or not."""
    p = draw(st.sampled_from(BIT_PIN_WIDTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = blocked_matrix(draw(st.integers(3, 12)), p, [(p // 4, p // 2 + 1)], 0.05, 0.8, rng)
    if p > 1 and draw(st.booleans()):
        j = draw(st.integers(0, p - 2))
        values[:, j + 1] = values[:, j]
    kind = draw(st.sampled_from(["one", "singletons", "drawn"]))
    if kind == "one":
        cuts = []
    elif kind == "singletons":
        cuts = list(range(1, p))
    else:
        cuts = sorted(draw(st.sets(st.integers(1, p - 1), max_size=p - 1))) if p > 1 else []
    return std_for(values), [0, *cuts, p]

def assert_prefix_rho_kept(m, bps):
    """segment's own prefix rho, read back by test, counts as a match."""
    prefix = segmentation_from_breakpoints(build_gram_prefix(m), m.n, bps)
    seg = segmentation_of(m, bps)
    assert seg.breakpoints == prefix.breakpoints
    assert segmentation_of(m, bps, prefix.rho) == replace(seg, rho=prefix.rho)
    return prefix, seg

@settings(max_examples=60, deadline=None)
@given(case=bit_pin_case())
def test_segmentation_of_keeps_the_prefix_rho_it_is_given(case):
    m, bps = case
    prefix, seg = assert_prefix_rho_kept(m, bps)
    assert np.allclose(seg.rho, prefix.rho, rtol=0, atol=1e-9)
    for unmatched in ([r + 1e-6 for r in prefix.rho], [math.nan] * seg.K):
        assert segmentation_of(m, bps, unmatched) == seg

@settings(max_examples=60, deadline=None)
@given(p=st.integers(2, 300), n=st.integers(3, 200), rho=st.floats(0.0, 0.99),
       seed=st.integers(0, 2**16), data=st.data())
def test_prefix_rho_lies_within_rho_match_of_the_row_sums(p, n, rho, seed, data):
    m = std_for(blocked_matrix(n, p, [(0, p)], 0.0, rho, np.random.default_rng(seed)))
    kind = data.draw(st.sampled_from(["singletons", "pairs", "drawn"]))
    if kind == "singletons":
        bps = list(range(p + 1))
    elif kind == "pairs":
        bps = [*range(0, p, 2), p]
    else:
        bps = [0, *sorted(data.draw(st.sets(st.integers(1, p - 1), max_size=p - 1))), p]
    assert_prefix_rho_kept(m, bps)

def test_prefix_rho_lies_within_rho_match_of_the_row_sums_at_p_5000():
    # 2-gene segments late in a strongly correlated chromosome: the prefix
    # rho there is off by ~3e-9, past any fixed 1e-9 match
    m = std_for(blocked_matrix(58, 5000, [(0, 5000)], 0.0, 0.95, np.random.default_rng(1)))
    prefix, seg = assert_prefix_rho_kept(m, [0, 1, 3, 100, 2600, *range(4000, 5001, 2)])
    assert max(abs(a - b) for a, b in zip(prefix.rho, seg.rho)) > 1e-9

def gathered_rss(values, b0, b1):
    """`_rss_cost`'s tile through four gathers of the cumsums."""
    cs, cs2 = (np.concatenate([np.zeros((*v.shape[:-1], 1)), np.cumsum(v, axis=-1)], axis=-1)
               for v in (values, values * values))
    starts, stops = _tile(b0, b1)
    seg_sum = cs[..., stops] - cs[..., starts]
    rss = (cs2[..., stops] - cs2[..., starts]) - seg_sum * seg_sum / np.maximum(stops - starts, 1)
    return np.maximum(rss, 0.0)

@settings(max_examples=30, deadline=None)
@given(case=bit_pin_case())
def test_slice_read_cost_tiles_equal_gathered_tiles(case):
    m = case[0]
    P = build_gram_prefix(m)
    cost = segment._gram_cost(P, m.n)
    # a batch of three series, the matrix's first patients
    rss = _rss_cost(m.values[:3])
    for b0 in range(0, m.p, TILE):
        b1 = min(b0 + TILE, m.p)
        starts, stops = _tile(b0, b1)
        gathered = _closed_form_cost(block_sums(P, starts, stops), stops - starts, m.n)
        assert np.array_equal(cost(b0, b1), gathered)
        assert np.array_equal(rss(b0, b1), gathered_rss(m.values[:3], b0, b1))

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

        def cost(b0, b1):
            starts, stops = _tile(b0, b1)
            return _closed_form_cost(block_sums(prefix, starts, stops), stops - starts, m.n)

        D, B = _dp_kernel(cost, p, k_max, min_seg_len)
        D_ref, B_ref = reference_dp(C, k_max, min_seg_len)
        finite = np.isfinite(D_ref)
        assert np.array_equal(D, D_ref)
        # B is defined only where D is finite
        assert np.array_equal(B[finite], B_ref[finite])
    assert finite[-1].any() == (min_seg_len == 1)

@pytest.mark.parametrize("m, k_max, batch, nbytes", [
    (200, 20, None, 48160), (1000, 100, None, 1200800), (450, 45, 4, 973440), (5000, 100, 1, 6000800),
])
def test_pass_size_is_the_tables_a_pass_allocates(m, k_max, batch, nbytes, rng, usable_cpus):
    # an expression pass (no batch) and batched `_rss_cost` passes: E, whose
    # view D drops its +inf column, and B; inline, on one usable CPU
    usable_cpus(1)
    if batch is None:
        _, D, B = segment._expression_dp(std_for(rng.standard_normal((58, m))), k_max, 1)
    else:
        D, B = _dp_kernel(_rss_cost(rng.standard_normal((batch, m))), m, k_max, 1, batch)
    assert pass_size(m, k_max, batch or 1)[1] == D.base.nbytes + B.nbytes == nbytes

def test_select_k_memory_stays_near_prefix_plus_tables(usable_cpus):
    # the Gram prefix, the pass's tables and at most eight tile buffers;
    # inline, on one usable CPU
    usable_cpus(1)
    p = 1000
    k_max = default_k_max(p)
    m = std_for(blocked_matrix(58, p, [(100, 400)], 0.05, 0.7, np.random.default_rng(5)))
    tracemalloc.start()
    try:
        select_k(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, tables, tile = pass_size(p, k_max)
    assert peak <= 8 * (p + 1) ** 2 + tables + 8 * tile

# ------------------------------------------------------------ row bands

fork_only = pytest.mark.skipif(sys.platform != "linux", reason="bands fork only on Linux")

def _expression_cost(m):
    prefix = build_gram_prefix(m)

    def cost(b0, b1):
        starts, stops = _tile(b0, b1)
        return _closed_form_cost(block_sums(prefix, starts, stops), stops - starts, m.n)

    return cost

@fork_only
@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 3 * TILE), k=st.integers(1, 3 * TILE), min_seg_len=st.integers(1, 3),
       bands=st.sampled_from([2, 3]), seed=st.integers(0, 2**16))
@example(p=TILE - 1, k=TILE - 1, min_seg_len=1, bands=3, seed=0)
@example(p=TILE, k=TILE, min_seg_len=2, bands=2, seed=1)
@example(p=TILE + 1, k=1, min_seg_len=3, bands=3, seed=2)
@example(p=2 * TILE + 9, k=2 * TILE + 9, min_seg_len=1, bands=2, seed=3)
def test_banded_pass_equals_the_inline_pass(p, k, min_seg_len, bands, seed):
    # k_max from 1 to p; a band may hold no row, or only row 0
    rng = np.random.default_rng(seed)
    cost = _expression_cost(std_for(blocked_matrix(20, p, [(p // 4, p // 2)], 0.05, 0.8, rng)))
    D, B = _dp_kernel(cost, p, min(k, p), min_seg_len)
    D_bands, B_bands = _dp_kernel(cost, p, min(k, p), min_seg_len, bands=bands)
    assert np.array_equal(D, D_bands) and np.array_equal(B, B_bands)

class CostFault(Exception):
    """Raised by a test cost inside one band."""

@contextmanager
def deadline(seconds):
    """Raise TimeoutError in this process if the block runs longer."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

@fork_only
@pytest.mark.parametrize("k0", [0, 4, 8], ids=["caller", "first-child", "last-child"])
def test_a_band_fault_reaches_the_caller_and_leaves_no_child(k0, monkeypatch):
    # three bands of rows 0-3, 4-7 and 8-11, each in a child; from the third
    # tile on, the cost of the band whose rows start at k0 raises. A band
    # above the last one that dies must not leave the bands below it waiting,
    # and no pipe end may stay open here
    p, band = 4 * TILE, segment._band
    clean = _expression_cost(std_for(np.random.default_rng(4).standard_normal((20, p))))

    def faulty(b0, b1):
        if b0 >= 2 * TILE:
            raise CostFault(f"cost fault in the band of rows {k0}-{k0 + 3}")
        return clean(b0, b1)

    def chosen(cost, E, B, min_seg_len, first, *rows_and_pipes, **pipe):
        band(faulty if first == k0 else cost, E, B, min_seg_len, first, *rows_and_pipes, **pipe)

    monkeypatch.setattr(segment, "_band", chosen)
    fds = open_fds()
    with deadline(60), pytest.raises(DPBandFailed, match=f"rows K = {k0 + 1}-{k0 + 4} .* exit code 1 "):
        _dp_kernel(clean, p, 12, 1, bands=3)
    assert multiprocessing.active_children() == []
    assert open_fds() == fds

def test_one_share_runs_in_the_calling_process(usable_cpus, monkeypatch):
    # on one usable CPU neither DP forks, however large its work, and a cost
    # that raises in the only band reaches the caller as itself
    usable_cpus(1)
    monkeypatch.setattr(segment, "WORKER_CELLS", 1)

    def no_fork():
        raise AssertionError("a one-share DP forked")

    monkeypatch.setattr(os, "fork", no_fork)
    rng = np.random.default_rng(6)
    m = std_for(blocked_matrix(30, 90, [(20, 50)], 0.05, 0.8, rng))
    assert select_k(m, k_max=20).chosen_K >= 1
    tracks = {f"P{i}": (np.arange(50.0), rng.standard_normal(50)) for i in range(4)}
    assert len(segment_covariate(tracks, k_max=5)) == 4
    clean = _expression_cost(m)

    def faulty(b0, b1):
        if b0 >= TILE:
            raise CostFault("cost fault in the only band")
        return clean(b0, b1)

    with pytest.raises(CostFault, match="only band"):
        _dp_kernel(faulty, 90, 20, 1)

def _running(pid: int) -> bool:
    """Whether a process exists and is not a zombie, as Linux lists it."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False

@fork_only
def test_no_band_outlives_its_parent(tmp_path):
    # `corrseg segment` on the toy fixture in two bands, each of which records
    # its pid and then sleeps; killing the command must end both bands
    pids, log = tmp_path / "pids", tmp_path / "stderr"
    fixtures = Path(__file__).parent / "fixtures"
    code = f"""if True:
        import os, sys, time
        from corrseg import cli, segment
        segment.usable_cpus, segment.WORKER_CELLS, band = lambda: 2, 1, segment._band

        def slowed(*args):
            with open({str(pids)!r}, "a") as f:
                f.write(f"{{os.getpid()}}\\n")
            time.sleep(60)
            band(*args)

        segment._band = slowed
        sys.exit(cli.main(["segment", "--input", {str(fixtures / "toy_expression.tsv")!r},
                           "--annotation", {str(fixtures / "toy_annotation.tsv")!r},
                           "--out", {str(tmp_path / "out")!r}]))
    """
    src = os.path.dirname(os.path.dirname(segment.__file__))
    with open(log, "w") as err:
        proc = subprocess.Popen([sys.executable, "-c", code], stderr=err,
                                env={**os.environ, "PYTHONPATH": src})
    bands = []
    try:
        started = time.monotonic()
        while len(bands) < 2:
            assert proc.poll() is None, log.read_text()
            assert time.monotonic() - started < 60, "the bands did not start"
            time.sleep(0.05)
            bands = [int(pid) for pid in pids.read_text().split()] if pids.exists() else []
        proc.kill()
        proc.wait()
        killed = time.monotonic()
        while any(map(_running, bands)) and time.monotonic() - killed < 5:
            time.sleep(0.05)
        assert not any(map(_running, bands))
    finally:
        proc.kill()
        proc.wait()
        for pid in filter(_running, bands):
            os.kill(pid, signal.SIGKILL)

@fork_only
def test_a_daemonic_caller_runs_its_pass_inline(usable_cpus, monkeypatch):
    # a daemonic process may not have children; any other process would
    # run this pass in four bands
    usable_cpus(4)
    monkeypatch.setattr(segment, "WORKER_CELLS", 1)
    m = std_for(blocked_matrix(30, 90, [(20, 50)], 0.05, 0.8, np.random.default_rng(6)))
    expected = select_k(m, k_max=20)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        trace = pool.apply_async(select_k, (m, 20)).get(timeout=60)
    assert trace == expected

@fork_only
def test_banded_select_k_memory_stays_near_prefix_and_shares_its_tables(usable_cpus, monkeypatch):
    # on two usable CPUs a p = 1000 pass runs in two bands; E and B are each
    # in a shared mapping, together pass_size's table_bytes, which tracemalloc
    # does not see, so the caller holds the Gram prefix and its tile buffers
    usable_cpus(2)
    p = 1000
    k_max = default_k_max(p)
    m = std_for(blocked_matrix(58, p, [(100, 400)], 0.05, 0.7, np.random.default_rng(5)))
    passes = []

    def kept(*args, **bands):
        passes.append((bands, *_dp_kernel(*args, **bands)))
        return passes[-1][1:]

    monkeypatch.setattr(segment, "_dp_kernel", kept)
    tracemalloc.start()
    try:
        select_k(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [(bands, D, B)] = passes
    _, tables, tile = pass_size(p, k_max)
    assert bands == {"bands": 2}
    assert peak <= 8 * (p + 1) ** 2 + 8 * tile
    E_map, B_map = D.base.base, B.base
    assert isinstance(E_map, mmap.mmap) and isinstance(B_map, mmap.mmap)
    assert len(E_map) + len(B_map) == D.base.nbytes + B.nbytes == tables

@pytest.mark.parametrize("min_seg_len", [1, 2])
def test_selection_segments_from_the_same_pass(rng, monkeypatch, min_seg_len):
    # one k_max pass per chromosome; the chosen K backtracks from it and a
    # fresh pass with K rows agrees
    passes = []

    def counted(cost, m, k_max, min_seg_len, **bands):
        passes.append(k_max)
        return _dp_kernel(cost, m, k_max, min_seg_len, **bands)

    monkeypatch.setattr(segment, "_dp_kernel", counted)
    vals = blocked_matrix(58, 90, [(20, 45), (60, 75)], 0.05, 0.8, rng)
    views = split_by_chromosome(as_matrix(vals), None)
    [res] = segment_all(views, k_max=30, min_seg_len=min_seg_len)
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
