"""Covariate segmentation, gene alignment, and regression correction."""

import itertools
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from corrseg import correction
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
    KTooLarge,
    NoProbesOnChromosome,
    TooFewProbes,
)
from corrseg.segment import (
    LOG_EPS,
    TILE,
    _backtrack,
    _dp_kernel,
    default_k_max,
    penalty,
    rho_hat,
    slope_change_choice,
)
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

def fit_one_series(patient, positions, values, S, k_max, fixed_k):
    """Oracle: the fit of one series in a kernel pass of its own, as before batching."""
    t = len(values)
    order = np.argsort(positions, kind="stable")
    positions = np.asarray(positions, dtype=float)[order]
    values = np.asarray(values, dtype=float)[order]
    if fixed_k is not None:
        k = min(max(1, fixed_k), t)
        _, B = _dp_kernel(_rss_cost(values), t, k, 1)
    else:
        km = default_k_max(t) if k_max is None else min(k_max, t)
        D, B = _dp_kernel(_rss_cost(values), t, km, 1)
        L = -(t / 2.0) * np.log(np.maximum(D[:, -1], LOG_EPS) / t)
        k, _, _ = slope_change_choice(L, penalty(np.arange(1, km + 1), t), S, "largest")
    bps = _backtrack(B, k, t)
    means = tuple(float(values[a:b].mean()) for a, b in zip(bps[:-1], bps[1:]))
    return PatientFit(patient, positions, tuple(bps), means)

def fits_equal(a, b):
    return (a.patient, a.breakpoints, a.means, a.positions.tobytes()) == (
        b.patient, b.breakpoints, b.means, b.positions.tobytes())

TRACK_LENGTHS = (2, 7, TILE - 1, TILE, 3 * TILE + 5)

@st.composite
def covariate_tracks(draw):
    """Series of mixed lengths: plain, rounded (tied optima) or on a 1e8
    offset, where round-off drives some RSS below 0."""
    tracks = {}
    for i in range(draw(st.integers(1, 9))):
        t = draw(st.sampled_from(TRACK_LENGTHS))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = rng.standard_normal(t) + rng.choice([0.0, 3.0], size=t).cumsum()
        kind = draw(st.sampled_from(["plain", "rounded", "offset"]))
        if kind == "rounded":
            values = np.round(values)
        elif kind == "offset":
            values = 1e8 + rng.integers(0, 3, t) * 1e-4
        positions = rng.permutation(t).astype(float) * 100.0
        tracks[f"P{i}"] = (positions, values)
    return tracks

@settings(deadline=None, max_examples=40)
@given(
    tracks=covariate_tracks(),
    batch_points=st.integers(1, 4 * (3 * TILE + 5)),
    k_max=st.none() | st.integers(1, 12),
    fixed_k=st.none() | st.integers(0, 6),
)
def test_batched_fits_equal_one_pass_per_series(tracks, batch_points, k_max, fixed_k):
    # batch sizes BATCH_POINTS // t that need not divide a length's group
    with mock.patch.object(correction, "BATCH_POINTS", batch_points):
        fits = segment_covariate(tracks, 0.7, k_max, fixed_k)
    expected = [fit_one_series(p, pos, val, 0.7, k_max, fixed_k) for p, (pos, val) in tracks.items()]
    assert len(fits) == len(expected)
    assert all(fits_equal(a, b) for a, b in zip(fits, expected))
    # the batched kernel on each length's group, against a pass per series
    for t in {len(val) for _, val in tracks.values()}:
        group = np.stack([val for _, val in tracks.values() if len(val) == t])
        km = t if k_max is None else min(k_max, t)
        D, B = _dp_kernel(_rss_cost(group), t, km, 1, len(group))
        for values, Dj, Bj in zip(group, D, B):
            D1, B1 = _dp_kernel(_rss_cost(values), t, km, 1)
            assert np.array_equal(Dj, D1)
            assert np.array_equal(Bj[np.isfinite(D1)], B1[np.isfinite(D1)])

@settings(deadline=None, max_examples=40)
@given(lengths=st.lists(st.sampled_from((0, 1, 2, 9, TILE)), min_size=1, max_size=8))
def test_first_short_series_in_input_order_is_named(lengths):
    tracks = {f"P{i}": (np.arange(t, dtype=float), np.arange(t, dtype=float)) for i, t in enumerate(lengths)}
    short = [f"P{i}" for i, t in enumerate(lengths) if t < 2]
    if not short:
        assert len(segment_covariate(tracks)) == len(lengths)
        return
    with pytest.raises(TooFewProbes) as exc:
        segment_covariate(tracks)
    assert exc.value.patient == short[0]

def _traced_peak(fit, *args, **kwargs):
    tracemalloc.start()
    try:
        fit(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

def _cnv_tracks(n, t, rng):
    steps = np.repeat(rng.standard_normal(5), -(-t // 5))[:t]
    return {f"P{i:03d}": (np.arange(t) * 666.0, steps + rng.standard_normal(t)) for i in range(n)}

@pytest.fixture
def usable_cpus(monkeypatch):
    """Set the CPUs `correction.usable_cpus` reports."""
    def set_cpus(n):
        monkeypatch.setattr(correction, "usable_cpus", lambda: n)
    return set_cpus

fork_only = pytest.mark.skipif(sys.platform != "linux", reason="worker processes fork only on Linux")

def test_covariate_memory_stays_near_one_batch(rng, usable_cpus):
    # the formula beside `_dp_kernel`: one batch's E (float64) and B (int32)
    # plus M and the two segment sums, with a fourth batch tile for the
    # transient length tile and numpy's iteration buffers; the fits keep
    # every series' sorted positions and values. tracemalloc sees only this
    # process, so the fits run inline, on one usable CPU
    usable_cpus(1)
    n, t = 58, 450
    k_max = default_k_max(t)
    batch = correction.BATCH_POINTS // t
    peak = _traced_peak(segment_covariate, _cnv_tracks(n, t, rng))
    tables = batch * (8 * k_max * (t + 1) + 4 * k_max * t)
    assert peak <= tables + 4 * (8 * TILE * t * batch) + 16 * n * t

def test_large_series_are_fitted_one_at_a_time(rng, usable_cpus):
    # from t = BATCH_POINTS on a batch is one series; a pass at t = 5000 and
    # k_max = 100 peaked at 11.06 MiB when every series had a pass of its
    # own, and a second series' tables alive at once would add 6 MB; inline,
    # on one usable CPU, as above
    usable_cpus(1)
    assert correction.BATCH_POINTS <= 5000
    peak = _traced_peak(segment_covariate, _cnv_tracks(2, 5000, rng), k_max=100)
    assert peak <= 1.02 * 11.06 * 2**20

@fork_only
def test_pool_workers_hold_one_series_at_large_t(rng, usable_cpus, monkeypatch, tmp_path):
    # the pooled path of the test above: each worker's kernel pass holds one
    # series' tables and tile buffers, traced in the worker itself
    usable_cpus(2)
    kernel, peaks = correction._dp_kernel, tmp_path / "peaks"

    def traced(*args):
        tracemalloc.start()
        try:
            tables = kernel(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with open(peaks, "a") as f:
            f.write(f"{os.getpid()} {peak}\n")
        return tables

    monkeypatch.setattr(correction, "_dp_kernel", traced)
    t, k_max = 5000, 100
    segment_covariate(_cnv_tracks(2, t, rng), k_max=k_max)
    pids, sizes = zip(*(map(int, line.split()) for line in peaks.read_text().splitlines()))
    assert len(set(pids)) == 2 and os.getpid() not in pids
    assert max(sizes) <= k_max * (8 * (t + 1) + 4 * t) + 4 * (8 * TILE * t)

@pytest.mark.parametrize("k_max", [0, -1])
def test_k_max_below_one_is_named_before_any_pass(k_max, monkeypatch):
    # before any pass or dispatch: a worker would surface a remote traceback
    monkeypatch.setattr(correction, "_fit_batch", mock.Mock(side_effect=AssertionError))
    with pytest.raises(KTooLarge, match=f"k_max={k_max} "):
        segment_covariate(track_for({"P1": [0.0, 1.0, 5.0]}), k_max=k_max)

def _mixed_tracks(rng):
    """Series of four lengths in interleaved input order."""
    lengths = [450, 7, 450, TILE, 450, 3 * TILE + 5, 7, 450, 450, TILE, 450]
    return {f"P{i:02d}": (rng.permutation(t) * 10.0, rng.standard_normal(t).cumsum())
            for i, t in enumerate(lengths)}

def test_worker_count(usable_cpus, monkeypatch):
    usable_cpus(4)
    cells, budget = correction.WORKER_CELLS, correction.POOL_TABLE_BYTES
    # a worker per WORKER_CELLS of fits, at most one per batch and per CPU
    sizes = [(1, 9 * cells), (3, 9 * cells), (9, 9 * cells), (9, 3 * cells), (9, 2 * cells - 1)]
    assert [correction._workers(b, c, 1) for b, c in sizes] == [1, 3, 4, 3, 1]
    # the workers' tables together stay within the budget
    assert correction._workers(9, 9 * cells, budget // 2) == 2
    assert correction._workers(9, 9 * cells, budget // 2 + 1) == 1
    assert correction._workers(0, 0, 0) == 1
    usable_cpus(1)
    assert correction._workers(9, 9 * cells, 1) == 1
    usable_cpus(4)
    monkeypatch.setattr(sys, "platform", "darwin")
    assert correction._workers(9, 9 * cells, 1) == 1

def test_fit_size_is_the_benchmarks_dp_cells(monkeypatch):
    # k_max * t**2 per series, and the largest batch's E and B
    workers = mock.Mock(return_value=1)
    monkeypatch.setattr(correction, "_workers", workers)
    rng = np.random.default_rng(2)
    segment_covariate({**_cnv_tracks(9, 450, rng), "Q": (np.arange(7.0), rng.standard_normal(7))})
    km = default_k_max(450)
    workers.assert_called_once_with(3 + 1, 9 * km * 450**2 + 7 * 7**2, 4 * km * (8 * 451 + 4 * 450))

@pytest.mark.parametrize("cgroup, files, cpus", [
    ("0::/kube/pod/ctr", {"kube/pod/ctr/cpu.max": "max 100000", "kube/cpu.max": "150000 100000"}, 2),
    ("0::/ctr", {"cpu.max": "50000 100000"}, 1),
    ("0::/ctr", {"ctr/cpu.max": "1600000 100000"}, 8),
    ("0::/ctr", {"ctr/cpu.max": "max 100000"}, 8),
    ("4:cpu,cpuacct:/docker/ab\n0::/", {"cpu/cpu.cfs_quota_us": "300000", "cpu/cpu.cfs_period_us": "100000"}, 3),
    ("4:cpu,cpuacct:/docker/ab", {"cpu/cpu.cfs_quota_us": "-1", "cpu/cpu.cfs_period_us": "100000"}, 8),
    ("3:memory:/docker/ab", {"memory/cpu.cfs_quota_us": "100000", "cpu.max": "100000 100000"}, 8),
    (None, {"cpu.max": "100000 100000"}, 8),
])
def test_usable_cpus_honour_a_cgroup_cpu_quota(cgroup, files, cpus, tmp_path, monkeypatch):
    # 8 CPUs in the affinity mask; a quota in the process's cgroup or any
    # cgroup above it caps them, rounded up to whole CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    for name, text in files.items():
        (tmp_path / "fs" / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "fs" / name).write_text(text + "\n")
    if cgroup is not None:
        (tmp_path / "cgroup").write_text(cgroup + "\n")
    monkeypatch.setattr(correction, "PROC_CGROUP", str(tmp_path / "cgroup"))
    monkeypatch.setattr(correction, "CGROUP_ROOT", str(tmp_path / "fs"))
    assert correction.usable_cpus() == cpus

@fork_only
@pytest.mark.parametrize("batch_points", [100_000, 1])
@pytest.mark.parametrize("workers", [2, 3])
def test_pooled_fits_equal_inline_fits(batch_points, workers, monkeypatch):
    # one job (a batch of 450-point series) and many (a series per job)
    tracks = _mixed_tracks(np.random.default_rng(7))
    if batch_points > 450:
        tracks = {p: track for p, track in tracks.items() if len(track[1]) == 450}
    monkeypatch.setattr(correction, "BATCH_POINTS", batch_points)
    monkeypatch.setattr(correction, "_workers", lambda *fit_size: 1)
    inline = segment_covariate(tracks, k_max=12)
    monkeypatch.setattr(correction, "_workers", lambda *fit_size: workers)
    pooled = segment_covariate(tracks, k_max=12)
    assert [fit.patient for fit in pooled] == list(tracks)
    assert len(pooled) == len(inline) and all(map(fits_equal, pooled, inline))
    assert multiprocessing.active_children() == []

class KernelFault(Exception):
    """Raised by a patched kernel inside a worker."""

@fork_only
def test_worker_fault_reaches_the_caller_and_leaves_no_worker(monkeypatch):
    parent, kernel = os.getpid(), correction._dp_kernel

    def faulty(*args):
        if os.getpid() != parent:
            raise KernelFault("kernel fault in a worker")
        return kernel(*args)

    monkeypatch.setattr(correction, "_dp_kernel", faulty)
    monkeypatch.setattr(correction, "_workers", lambda *fit_size: 2)
    with pytest.raises(KernelFault, match="in a worker"):
        segment_covariate(_mixed_tracks(np.random.default_rng(3)))
    assert multiprocessing.active_children() == []

@fork_only
def test_fits_from_a_daemonic_worker_run_inline(usable_cpus, monkeypatch):
    # a daemonic process may not have children, so its fits run inline
    # where any other process would start a pool
    usable_cpus(4)
    monkeypatch.setattr(correction, "WORKER_CELLS", 1)
    tracks = _mixed_tracks(np.random.default_rng(5))
    expected = segment_covariate(tracks)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        fits = pool.apply_async(segment_covariate, (tracks,)).get(timeout=60)
    assert len(fits) == len(expected) and all(map(fits_equal, fits, expected))

def test_import_leaves_the_pool_modules_out():
    # they cost 10-15 ms that every command would pay at start-up
    code = ("import sys, corrseg.cli; "
            "assert 'concurrent.futures' not in sys.modules and 'multiprocessing' not in sys.modules")
    src = os.path.dirname(os.path.dirname(correction.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})

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
