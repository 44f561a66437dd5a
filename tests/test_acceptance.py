"""Acceptance gate: eleven headline behaviors, one test per criterion.

`pytest tests/test_acceptance.py -v` prints one pass/fail line per
criterion. Every check is stated against an oracle that does not share
code with the implementation: dense linear algebra via numpy/scipy,
exhaustive enumeration, Monte Carlo with fixed seeds, or values quoted
from an external reference. Stated runtime budgets are asserted too.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from conftest import as_matrix, blocked_matrix, cost_grid, cs_block
from corrseg import io
from corrseg.cli import main
from corrseg.core import ExpressionMatrix, block_sums, build_gram_prefix, standardize
# test_all / test_regions / test_statistic are aliased so pytest does not collect them
from corrseg.pipeline import (
    correct_view,
    segment_all,
    split_by_chromosome,
    test_all as run_tests,
)
from corrseg.segment import dp_segment, rho_hat
from corrseg.significance import (
    estimate_rho0,
    lambda_factor,
    p_value,
    power,
    test_regions as region_tests,
    test_statistic as region_statistic,
)
from corrseg.simulate import (
    ChromosomeSpec,
    ScenarioSpec,
    annotation_rows,
    default_scenario,
    evaluate,
    generate,
)


# ------------------------------------------------------------------ helpers

def table_for(values: np.ndarray):
    m = standardize(as_matrix(values))
    return m, cost_grid(m)


def library_pipeline(spec, adjust="bh", alpha=0.05):
    """simulate -> segment -> test, all through the public pipeline API."""
    matrix = generate(spec)
    ann = {g: (c, float(s), float(e)) for g, c, s, e in annotation_rows(spec)}
    results = segment_all(split_by_chromosome(matrix, ann))
    return matrix, results, run_tests(results, adjust=adjust, alpha=alpha)


def overlapping(reports, chromosome, start, end):
    """Reports on `chromosome` whose 1-based span intersects [start, end]."""
    return [r for r in reports
            if r.chromosome == chromosome and r.start <= end and r.end >= start]


# ------------------------------------------------------------------ criteria

def test_c01_closed_form_mle_and_cost_identity():
    """rhoHat == grid-search MLE (step 1e-3); cost == rho-form of -2L."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    step = 1e-3
    for _ in range(50):
        ell = int(rng.integers(2, 11))
        n = int(rng.integers(20, 201))
        rho = float(rng.uniform(-0.5 / (ell - 1), 0.95))
        m, C = table_for(cs_block(n, ell, rho, rng))
        r_hat = rho_hat(block_sums(build_gram_prefix(m), 0, ell), ell)

        # oracle: dense grid search of the exact CS log-likelihood
        gram = (m.values.T @ m.values) / n
        lo = -1.0 / (ell - 1) + 2 * step
        grid = np.arange(lo, 1.0 - step, step)
        eye, ones = np.eye(ell), np.ones((ell, ell))
        best, best_ll = grid[0], -np.inf
        for r in grid:
            sigma = (1.0 - r) * eye + r * ones
            sign, logdet = np.linalg.slogdet(sigma)
            if sign <= 0:
                continue
            ll = -0.5 * n * (logdet + np.trace(np.linalg.solve(sigma, gram)))
            if ll > best_ll:
                best, best_ll = float(r), ll
        assert abs(r_hat - best) <= step + 1e-12

        # cost identity, rho-parametrized form computed independently
        expected = n * (ell + (ell - 1) * math.log(1.0 - r_hat)
                        + math.log(1.0 + (ell - 1) * r_hat))
        assert C[0, ell] == pytest.approx(expected, abs=1e-9)
    assert time.monotonic() - t0 < 60.0


def test_c02_dp_equals_exhaustive_enumeration():
    """dpSegment total cost == brute-force minimum, exactly, 100 cases."""
    import itertools

    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    for case in range(100):
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
        m, C = table_for(vals)
        for k in range(1, 5):
            seg = dp_segment(m, k)
            dp_total = sum(C[a, b] for a, b in seg.segments())
            brute = min(
                sum(C[bounds[i], bounds[i + 1]] for i in range(k))
                for cuts in itertools.combinations(range(1, p), k - 1)
                for bounds in ([0, *cuts, p],)
            )
            assert dp_total == brute
    assert time.monotonic() - t0 < 60.0


def test_c03_compound_symmetry_inverse_and_determinant():
    """(aI + bJ) Sigma = I to 1e-12; closed-form det to 1e-10."""
    t0 = time.monotonic()
    for ell in (2, 3, 5):
        eye, ones = np.eye(ell), np.ones((ell, ell))
        for rho in (-0.1, 0.0, 0.3, 0.8):
            sigma = (1.0 - rho) * eye + rho * ones
            a = 1.0 / (1.0 - rho)
            b = -rho / ((1.0 - rho) * (1.0 - rho + ell * rho))
            assert np.max(np.abs((a * eye + b * ones) @ sigma - eye)) <= 1e-12
            det_closed = (1.0 - rho) ** (ell - 1) * (1.0 - rho + ell * rho)
            assert abs(np.linalg.det(sigma) - det_closed) <= 1e-10
    assert time.monotonic() - t0 < 60.0


def test_c04_null_calibration_binomial_interval():
    """Type-I error of the exact test over 1e4 null datasets.

    Draws follow the model exactly (unit variance by construction), so
    the chi-square null distribution of T applies without the finite-n
    distortion that empirical re-standardization would add.
    """
    t0 = time.monotonic()
    rng = np.random.default_rng(44)
    reps, n, p_k, rho0 = 10_000, 20, 5, 0.2
    pvals = np.empty(reps)
    for i in range(reps):
        T = region_statistic(as_matrix(cs_block(n, p_k, rho0, rng)), 0, p_k)
        pvals[i] = p_value(T, p_k=p_k, rho0=rho0, n=n)
    for alpha in (0.05, 0.005):
        rejections = int(np.sum(pvals <= alpha))
        lo = scipy.stats.binom.ppf(0.005, reps, alpha)
        hi = scipy.stats.binom.ppf(0.995, reps, alpha)
        assert lo <= rejections <= hi, (
            f"alpha={alpha}: {rejections} rejections outside [{lo}, {hi}]"
        )
    assert time.monotonic() - t0 < 300.0


def test_c05_power_formula_vs_monte_carlo():
    """Exact power within 0.005 of 1e6-draw MC; figure-level claims hold."""
    rho0 = 0.15
    rng = np.random.default_rng(55)
    for n in (10, 50, 200, 1000):
        draws = rng.chisquare(n - 1, 1_000_000)
        for alpha in (0.05, 0.005, 0.0005):
            q = scipy.stats.chi2.ppf(1.0 - alpha, n - 1)
            for p in (3, 5, 10, 20):
                base = 1.0 + (p - 1) * rho0
                for rho in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
                    ratio = (1.0 + (p - 1) * rho) / base
                    mc = float(np.mean(ratio * draws > q))
                    exact = power(n, p, rho, rho0, alpha)
                    assert abs(exact - mc) <= 0.005, (n, p, rho, alpha)
    # width-3 regions need rho around 0.7 before power reaches 0.8
    assert power(58, 3, 0.70, rho0, 0.005) >= 0.8
    assert power(58, 3, 0.65, rho0, 0.005) < 0.8
    # n = 50 suffices for width-5 regions once rho reaches 0.6
    for rho in (0.6, 0.7, 0.8, 0.9):
        assert power(50, 5, rho, rho0, 0.005) >= 0.8


def test_c06_reference_p_value_reconstruction():
    """Reported region p-values reproduced within one order of magnitude."""
    for rho0, rho, reported in [(0.163, 0.561, 2.1e-7), (0.132, 0.284, 2.5e-2)]:
        T_obs = 57.0 * lambda_factor(7, rho, 58)
        p = p_value(T_obs, p_k=7, rho0=rho0, n=58)
        assert reported / 10.0 <= p <= reported * 10.0, (rho0, rho, p)


def test_c07_detection_auc_at_desk_scale():
    """Mean gene AUC >= 0.90 and region AUC >= 0.80; degrades at high rho0."""
    t0 = time.monotonic()

    def mean_aucs(rho0):
        gene, region = [], []
        for seed in range(20):
            spec = default_scenario(scenario=1, rho0=rho0, rho1=0.7, n=58,
                                    seed=seed, p=500)
            matrix, results, reports = library_pipeline(spec)
            ev = evaluate(spec.truth_by_chromosome(), reports)
            gene.append(ev.gene_level.auc)
            region.append(ev.region_level.auc)
        return float(np.mean(gene)), float(np.mean(region))

    gene_low, region_low = mean_aucs(0.08)
    assert gene_low >= 0.90
    assert region_low >= 0.80
    gene_high, _ = mean_aucs(0.28)
    assert gene_high < gene_low
    assert time.monotonic() - t0 < 900.0


def test_c08_background_estimator_bias_direction():
    """rho0hat tracks rho0 under H0; non-decreasing in the H1 fraction.

    The closeness bounds hold for replicate means: the chromosome-wide
    latent factor gives every single-replicate estimate an irreducible
    sd of about 0.03 at n = 58, so a hard per-replicate 0.05 bound would
    fail ~10% of draws for any correct estimator. Individual replicates
    get a 0.10 envelope instead.
    """
    rho0, width = 0.15, 10

    def layout(fraction):
        count = int(500 * fraction / width)
        stride = 500 // max(count, 1)
        return [(stride // 2 + k * stride, stride // 2 + k * stride + width)
                for k in range(count)]

    means = []
    for fraction in (0.0, 0.1, 0.3, 0.5):
        chrom = ChromosomeSpec("chr1", 500, layout(fraction))
        estimates = []
        for seed in range(20):
            spec = ScenarioSpec(chromosomes=(chrom,), rho0=rho0, rho1=0.7,
                                n=58, seed=800 + seed)
            estimates.append(estimate_rho0(generate(spec)))
        estimates = np.array(estimates)
        if fraction == 0.0:
            assert abs(estimates.mean() - rho0) <= 0.05
        assert estimates.mean() >= rho0 - 0.05
        assert np.all(estimates >= rho0 - 0.10)
        means.append(float(estimates.mean()))
    assert all(b >= a for a, b in zip(means, means[1:])), means


def test_c09_correction_removes_covariate_blocks_only():
    """Covariate-driven block loses significance after correction; an
    intrinsic block keeps it; >= 18/20 replicates."""
    n, p = 58, 120
    A = (20, 50)   # covariate-driven, 0-based half-open
    B = (70, 100)  # intrinsic compound symmetry, rho = 0.7
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        z = rng.standard_normal(n)
        x1 = np.zeros((n, p))
        x1[:, A[0]:A[1]] = z[:, None]
        y1 = cs_block(n, p, 0.08, rng) + 0.8 * x1
        y2 = blocked_matrix(n, p, [B], 0.08, 0.7, rng)
        c2 = rng.standard_normal(n)  # chr2 covariate: independent of y2

        gene_ids = tuple(f"chr1_g{j+1}" for j in range(p)) + tuple(
            f"chr2_g{j+1}" for j in range(p))
        patients = tuple(f"P{i+1:03d}" for i in range(n))
        matrix = ExpressionMatrix(values=np.hstack([y1, y2]), gene_ids=gene_ids,
                                  patient_ids=patients)
        ann = {g: ("chr1", float(j), float(j)) for j, g in enumerate(gene_ids[:p])}
        ann.update(
            {g: ("chr2", float(j), float(j)) for j, g in enumerate(gene_ids[p:])})
        positions = np.arange(p, dtype=float)
        cov = {
            "chr1": {f"P{i+1:03d}": (positions,
                                     np.where((positions >= A[0]) & (positions < A[1]),
                                              z[i], 0.0))
                     for i in range(n)},
            "chr2": {f"P{i+1:03d}": (positions, np.full(p, c2[i]))
                     for i in range(n)},
        }

        views = split_by_chromosome(matrix, ann)
        raw_reports = run_tests(segment_all(views), adjust="bh", alpha=0.05)
        raw_hit = any(r.significant and r.p_value < 0.01
                      for r in overlapping(raw_reports, "chr1", A[0] + 1, A[1]))

        corrected_values = np.array(matrix.values)
        for view in views:
            corrected, _ = correct_view(view, cov[view.name])
            corrected_values[:, view.columns] = corrected.values
        corrected_matrix = ExpressionMatrix(values=corrected_values,
                                            gene_ids=gene_ids)
        cor_views = split_by_chromosome(corrected_matrix, ann)
        cor_reports = run_tests(segment_all(cor_views), adjust="bh", alpha=0.05)
        gone = all(r.p_value > 0.01
                   for r in overlapping(cor_reports, "chr1", A[0] + 1, A[1])
                   if r.tested)
        kept = any(r.significant
                   for r in overlapping(cor_reports, "chr2", B[0] + 1, B[1]))
        hits += raw_hit and gone and kept
    assert hits >= 18, f"only {hits}/20 replicates show the correction effect"


def test_c10_byte_identical_runs_all_subcommands(tmp_path, monkeypatch):
    """Identical commands in two working directories: identical bytes."""
    spec_text = (
        '{"chromosomes": [{"name": "chr1", "p": 40, "h1_blocks": [[11, 20]]},'
        ' {"name": "chr2", "p": 40}],'
        ' "rho0": 0.1, "rho1": 0.7, "n": 20, "seed": 9}'
    )

    def covariate_rows():
        rng = np.random.default_rng(123)
        rows = []
        for i in range(20):
            for chrom in ("chr1", "chr2"):
                for j in range(40):
                    rows.append([f"P{i+1:03d}", chrom, 1000.0 * (j + 1) + 50.0,
                                 float(rng.normal())])
        return rows

    def run_everything(root: Path):
        root.mkdir()
        monkeypatch.chdir(root)
        Path("spec.json").write_text(spec_text)
        io.write_rows(Path("cov.tsv"),
                      ["patient", "chromosome", "position", "value"],
                      covariate_rows())
        assert main(["simulate", "--spec", "spec.json", "--out", "sim"]) == 0
        assert main(["segment", "--input", "sim/expression.tsv",
                     "--annotation", "sim/annotation.tsv", "--out", "seg",
                     "--json", "--trace"]) == 0
        assert main(["test", "--input", "sim/expression.tsv",
                     "--annotation", "sim/annotation.tsv",
                     "--segmentation", "seg/segmentation.tsv",
                     "--out", "tst", "--json"]) == 0
        assert main(["correct", "--input", "sim/expression.tsv",
                     "--annotation", "sim/annotation.tsv",
                     "--covariate", "cov.tsv", "--out", "cor"]) == 0
        assert main(["evaluate", "--truth", "sim/truth.tsv",
                     "--regions", "tst/regions.tsv", "--out", "ev",
                     "--json"]) == 0
        assert main(["power", "--n", "10,50", "--p", "3,5",
                     "--rho", "0.2,0.6", "--alpha", "0.05,0.005",
                     "--out", "pow"]) == 0
        return {
            str(f.relative_to(root)): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()
        }

    first = run_everything(tmp_path / "a")
    second = run_everything(tmp_path / "b")
    assert sorted(first) == sorted(second)
    mismatched = [name for name in first if first[name] != second[name]]
    assert not mismatched, f"outputs differ between runs: {mismatched}"


def test_c11_pipeline_null_calibration():
    """Segments the DP chose that hold no H1 gene: raw p <= 0.05 at most at
    the binomial(N, 0.05) 99.5% quantile, with rho0 estimated and true."""
    t0 = time.monotonic()
    bounds, pvals = [], {"estimated": [], "true": []}
    for seed in range(20):
        spec = default_scenario(scenario=1, seed=seed)
        ann = {g: (c, float(s), float(e)) for g, c, s, e in annotation_rows(spec)}
        truth = spec.truth_by_chromosome()
        for res in segment_all(split_by_chromosome(generate(spec), ann)):
            segments = res.segmentation.segments()
            null = [k for k, (a, b) in enumerate(segments)
                    if b - a >= 2 and not truth[res.name][a:b].any()]
            bounds += [segments[k] for k in null]
            for name, rho0 in (("estimated", None), ("true", 0.08)):
                reports = region_tests(res.matrix, res.segmentation, res.name, rho0)
                pvals[name] += [reports[k].p_value for k in null]
    narrow = np.array([b - a <= 10 for a, b in bounds])
    hi = scipy.stats.binom.ppf(0.995, len(bounds), 0.05)
    for name, p in pvals.items():
        called = np.array(p) <= 0.05
        assert called.sum() <= hi, (
            f"rho0 {name}: {called.sum()} of {len(p)} H0 segments at p <= 0.05, above {hi}; "
            f"narrow (<= 10 genes): {called[narrow].sum()} of {narrow.sum()}"
        )
    assert time.monotonic() - t0 < 120.0
