"""Scenario generation and the gene/region evaluation metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrseg import simulate
from corrseg.errors import GridMismatch, InvalidLoadings
from corrseg.significance import RegionReport
from corrseg.simulate import (
    ChromosomeSpec,
    ScenarioSpec,
    default_scenario,
    evaluate,
    generate,
)


def one_block_spec(n=58, p=60, block=(20, 40), rho0=0.18, rho1=0.7, seed=0):
    chrom = ChromosomeSpec("chr1", p, (block,))
    return ScenarioSpec(chromosomes=(chrom,), rho0=rho0, rho1=rho1, n=n, seed=seed)

def report(chrom, start, end, p_val, significant=None, tested=True):
    """RegionReport with 1-based inclusive bounds and the fields metrics use."""
    r = RegionReport(
        chromosome=chrom, start=start, end=end, p_k=end - start + 1,
        rho_hat=0.0, rho0_used=0.0, T_obs=0.0, lambda0=1.0,
        p_value=p_val, tested=tested,
    )
    if significant is not None:
        r.significant = significant
    return r


# ------------------------------------------------------------- generation

def test_tiling_and_truth():
    chrom = ChromosomeSpec("c", 20, ((5, 10), (12, 18)))
    truth = chrom.truth()
    assert truth.shape == (20,)
    assert truth[5:10].all() and truth[12:18].all()
    assert truth.sum() == 11

def test_tiling_rejects_overlap_and_overflow():
    with pytest.raises(ValueError):
        ChromosomeSpec("c", 20, ((5, 12), (10, 15)))
    with pytest.raises(ValueError):
        ChromosomeSpec("c", 20, ((15, 25),))

def tiling_truth(p, h1_blocks):
    """The H0/H1 tiling rule ChromosomeSpec replaced, as an oracle: the truth
    vector when the blocks tile [0, p) with H0 gaps, None when rejected."""
    if p < 1:
        return None
    regions, cursor = [], 0
    for a, b in sorted(h1_blocks):
        if a > cursor:
            regions.append((cursor, a, "H0"))
        regions.append((a, b, "H1"))
        cursor = b
    if cursor < p:
        regions.append((cursor, p, "H0"))
    cursor = 0
    for start, stop, _ in regions:
        if start != cursor or stop <= start:
            return None
        cursor = stop
    if cursor != p:
        return None
    truth = np.zeros(p, dtype=bool)
    for a, b, label in regions:
        truth[a:b] = label == "H1"
    return truth

@st.composite
def block_lists(draw):
    p = draw(st.integers(0, 30))
    if draw(st.booleans()):
        # arbitrary pairs: unsorted, overlapping, empty, reversed, negative, past p
        bound = st.integers(-2, p + 2)
        return p, draw(st.lists(st.tuples(bound, bound), max_size=5))
    # consecutive cut points, some kept, shuffled: disjoint or touching
    cuts = sorted(draw(st.lists(st.integers(0, p), max_size=8, unique=True)))
    pairs = draw(st.permutations(list(zip(cuts, cuts[1:]))))
    return p, pairs[: draw(st.integers(0, len(pairs)))]

@settings(max_examples=300, deadline=None)
@given(block_lists())
def test_spec_accepts_exactly_what_the_tiling_accepted(case):
    p, blocks = case
    expected = tiling_truth(p, blocks)
    if expected is None:
        with pytest.raises(ValueError, match="^chromosome c: "):
            ChromosomeSpec("c", p, tuple(blocks))
    else:
        chrom = ChromosomeSpec("c", p, tuple(blocks))
        assert chrom.h1_blocks == tuple(sorted(blocks))
        np.testing.assert_array_equal(chrom.truth(), expected)

def test_zero_loadings_give_iid_noise():
    spec = one_block_spec(rho0=0.0, rho1=0.0, n=2000, p=40, seed=3)
    m = generate(spec)
    g = np.corrcoef(m.values, rowvar=False)
    off = g[~np.eye(40, dtype=bool)]
    assert abs(off.mean()) < 0.01
    assert np.abs(off).max() < 0.12
    assert m.values.mean() == pytest.approx(0.0, abs=0.05)
    assert m.values.var() == pytest.approx(1.0, abs=0.05)

def test_block_correlations_match_targets():
    spec = one_block_spec(n=5000, p=60, block=(20, 40), rho0=0.18, rho1=0.7, seed=11)
    m = generate(spec)
    g = np.corrcoef(m.values, rowvar=False)
    inside = g[20:40, 20:40][~np.eye(20, dtype=bool)]
    assert abs(inside.mean() - 0.7) < 0.03
    cross = g[:20, 20:40]
    assert abs(cross.mean() - 0.18) < 0.03
    outside = g[:20, :20][~np.eye(20, dtype=bool)]
    assert abs(outside.mean() - 0.18) < 0.03

def test_degenerate_loadings_rejected():
    with pytest.raises(ValueError):
        one_block_spec(rho1=1.0)
    with pytest.raises(InvalidLoadings):
        one_block_spec(rho0=0.5, rho1=0.3)
    with pytest.raises(ValueError):
        one_block_spec(rho0=-0.1)

def test_model_correlation_matrices_are_psd():
    for rho0 in (0.0, 0.08, 0.28, 0.6):
        for rho1 in (rho0, 0.7, 0.95):
            if rho1 < rho0:
                continue
            p = 30
            sigma = np.full((p, p), rho0)
            sigma[10:20, 10:20] = rho1
            np.fill_diagonal(sigma, 1.0)
            assert np.linalg.eigvalsh(sigma).min() >= -1e-10

def test_generation_reproducible():
    spec = default_scenario(seed=5)
    a = generate(spec)
    b = generate(spec)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.gene_ids == b.gene_ids
    c = generate(default_scenario(seed=6))
    assert a.values.tobytes() != c.values.tobytes()

def test_default_scenario_geometry():
    spec = default_scenario()
    assert len(spec.chromosomes) == 5
    assert sum(c.p for c in spec.chromosomes) == 2500
    widths = []
    for chrom in spec.chromosomes:
        assert chrom.p == 500
        blocks = chrom.h1_blocks
        assert len(blocks) == 2
        assert len({b - a for a, b in blocks}) == 1
        widths.append(blocks[0][1] - blocks[0][0])
    assert sorted(widths) == [3, 5, 10, 20, 40]
    assert spec.rho0_by_chromosome() == pytest.approx([0.08] * 5)

def test_scenario_two_rho0_per_chromosome():
    spec = default_scenario(scenario=2, seed=4)
    vals = spec.rho0_by_chromosome()
    assert len(vals) == 5
    assert all(0.08 <= v <= 0.28 for v in vals)
    assert len(set(round(v, 12) for v in vals)) > 1
    # per-chromosome draw is seed-stable
    again = default_scenario(scenario=2, seed=4)
    assert again.rho0_by_chromosome() == pytest.approx(vals)


# ---------------------------------------------------------------- metrics

def truth_one_chrom(p, blocks):
    t = np.zeros(p, dtype=bool)
    for a, b in blocks:
        t[a:b] = True
    return {"chr1": t}

def oracle_counts(chromosomes, runs):
    """(TP, FP, TN, FN) over (truth, called) pairs, one per chromosome,
    counted gene by gene: genes, or with runs, status changes (a
    chromosome's first gene always starts a run)."""
    counts = dict.fromkeys([(True, True), (False, True), (False, False), (True, False)], 0)
    for truth, called in chromosomes:
        previous = None
        for status in zip(map(bool, truth), map(bool, called)):
            if not runs or status != previous:
                counts[status] += 1
            previous = status
    return tuple(counts.values())

def oracle_curves(truth_by_chrom, reports):
    """Thresholds and both levels' (tpr, fpr) points by brute force: loops
    over thresholds, then chromosomes, then genes."""
    scores = {name: [math.inf] * len(t) for name, t in truth_by_chrom.items()}
    for r in reports:
        scores[r.chromosome][r.start - 1 : r.end] = [r.p_value if r.tested else math.inf] * r.p_k
    thresholds = sorted({s for row in scores.values() for s in row if s < math.inf})
    genes, regions = [], []
    for t in thresholds:
        chromosomes = [(truth_by_chrom[name], [s <= t for s in scores[name]]) for name in truth_by_chrom]
        for points, runs in ((genes, False), (regions, True)):
            tp, fp, tn, fn = oracle_counts(chromosomes, runs)
            points.append((tp / (tp + fn), fp / (fp + tn)))
    return thresholds, genes, regions

@st.composite
def scored_genomes(draw):
    """1-3 chromosomes of 1-30 genes, each tiled by contiguous regions, some
    untested; p-values come from a pool of at most four, so they repeat."""
    names = draw(st.lists(st.sampled_from(["chr1", "chr2", "chr10", "chrX"]),
                          min_size=1, max_size=3, unique=True))
    pool = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    truth, reports = {}, []
    for name in names:
        p = draw(st.integers(1, 30))
        truth[name] = np.array(draw(st.lists(st.booleans(), min_size=p, max_size=p)))
        cuts = [j for j in range(1, p) if draw(st.booleans())]
        for start, stop in zip([0, *cuts], [*cuts, p]):
            tested = draw(st.integers(0, 4)) > 0
            p_value = draw(st.sampled_from(pool)) if tested else math.nan
            reports.append(report(name, start + 1, stop, p_value, tested=tested))
    return truth, reports

@settings(max_examples=300, deadline=None)
@given(scored_genomes())
def test_evaluate_matches_a_brute_force_oracle(case):
    truth, reports = case
    genes = np.concatenate(list(truth.values()))
    if genes.all() or not genes.any():
        with pytest.raises(GridMismatch, match="both H0 and H1"):
            evaluate(truth, reports)
        return
    res = evaluate(truth, reports)
    thresholds, *levels = oracle_curves(truth, reports)
    for roc, points in zip((res.gene_level, res.region_level), levels):
        assert roc.thresholds == tuple(thresholds)
        assert list(zip(roc.tpr, roc.fpr)) == points
        corners = sorted([(0.0, 0.0), *((f, t) for t, f in points), (1.0, 1.0)])
        area = sum((f1 - f0) * (t0 + t1) / 2 for (f0, t0), (f1, t1) in zip(corners, corners[1:]))
        assert roc.auc == pytest.approx(area, abs=1e-12)

def test_gene_metrics_perfect_calls():
    truth = truth_one_chrom(20, [(5, 10)])
    calls = [
        report("chr1", 1, 5, 0.8),
        report("chr1", 6, 10, 1e-9),
        report("chr1", 11, 20, 0.9),
    ]
    roc = evaluate(truth, calls).gene_level
    assert roc.auc == pytest.approx(1.0)
    idx = int(np.argmin(np.abs(np.asarray(roc.thresholds) - 1e-9)))
    assert roc.tpr[idx] == 1.0 and roc.fpr[idx] == 0.0

def test_gene_metrics_all_significant():
    truth = truth_one_chrom(12, [(3, 7)])
    calls = [report("chr1", 1, 12, 1e-4)]
    roc = evaluate(truth, calls).gene_level
    assert roc.tpr[-1] == 1.0 and roc.fpr[-1] == 1.0
    assert roc.auc == pytest.approx(0.5)

def test_gene_metrics_random_detector_near_half():
    aucs = []
    for seed in range(20):
        rng = np.random.default_rng([88, seed])
        p = 200
        truth = truth_one_chrom(p, [(40, 60), (120, 160)])
        calls = [
            report("chr1", j + 1, j + 1, float(rng.uniform()))
            for j in range(p)
        ]
        aucs.append(evaluate(truth, calls).gene_level.auc)
    assert abs(np.mean(aucs) - 0.5) < 0.05

def test_region_metrics_identical_calls():
    truth = truth_one_chrom(30, [(10, 20)])
    calls = [
        report("chr1", 1, 10, 0.7),
        report("chr1", 11, 20, 1e-8),
        report("chr1", 21, 30, 0.6),
    ]
    roc = evaluate(truth, calls).region_level
    idx = int(np.argmin(np.abs(np.asarray(roc.thresholds) - 1e-8)))
    assert roc.tpr[idx] == 1.0 and roc.fpr[idx] == 0.0
    assert roc.auc == pytest.approx(1.0)

def test_region_metrics_split_run_counts():
    # 10-gene H1 block called as two significant runs split by one miss:
    # 2 true-positive regions and 1 false-negative region at that threshold
    truth = truth_one_chrom(30, [(10, 20)])
    calls = [
        report("chr1", 1, 10, 0.9),
        report("chr1", 11, 14, 1e-6),
        report("chr1", 15, 15, 0.9),
        report("chr1", 16, 20, 1e-6),
        report("chr1", 21, 30, 0.9),
    ]
    roc = evaluate(truth, calls).region_level
    idx = int(np.argmin(np.abs(np.asarray(roc.thresholds) - 1e-6)))
    # TP=2, FN=1, TN=2 (the two H0 runs), FP=0
    assert roc.tpr[idx] == pytest.approx(2.0 / 3.0)
    assert roc.fpr[idx] == pytest.approx(0.0)

def test_region_metrics_no_calls():
    truth = truth_one_chrom(16, [(4, 8)])
    calls = [report("chr1", 1, 16, 1.0)]
    roc = evaluate(truth, calls).region_level
    assert 1.0 in roc.thresholds
    # region counts at a level below every p-value: the empty call set,
    # which no threshold of the sweep reaches, so the oracle counts them
    tp, fp, tn, fn = oracle_counts([(truth["chr1"], np.zeros(16, dtype=bool))], runs=True)
    assert (tp, fp) == (0, 0)
    assert fn == 1 and tn == 2
    assert tp / (tp + fn) == 0.0

def test_evaluate_bundles_both_levels():
    truth = truth_one_chrom(20, [(5, 10)])
    calls = [
        report("chr1", 1, 5, 0.8),
        report("chr1", 6, 10, 1e-9),
        report("chr1", 11, 20, 0.9),
    ]
    res = evaluate(truth, calls)
    assert res.gene_level.auc == pytest.approx(1.0)
    assert res.region_level.auc == pytest.approx(1.0)
    for roc in (res.gene_level, res.region_level):
        assert 0.0 <= roc.auc <= 1.0
        fpr, tpr = np.asarray(roc.fpr), np.asarray(roc.tpr)
        order = np.argsort(fpr, kind="stable")
        assert np.all(np.diff(tpr[order]) >= -1e-12)

def test_evaluate_scores_genes_once(monkeypatch):
    # both levels rank the same per-gene scores; counting changes nothing
    truth = {"chr1": truth_one_chrom(20, [(5, 10)])["chr1"], "chr2": np.zeros(6, dtype=bool)}
    calls = [report("chr1", 1, 5, 0.8), report("chr1", 6, 10, 1e-9),
             report("chr1", 11, 20, 0.9), report("chr2", 1, 6, 0.3)]
    scored, calls_made = simulate._gene_scores, []

    def counted(*args):
        calls_made.append(args)
        return scored(*args)

    monkeypatch.setattr(simulate, "_gene_scores", counted)
    res = evaluate(truth, calls)
    assert len(calls_made) == 1
    monkeypatch.undo()
    assert res.gene_level == evaluate(truth, calls).gene_level
    assert res.region_level == evaluate(truth, calls).region_level

def test_untested_regions_never_called():
    truth = truth_one_chrom(10, [(0, 4)])
    calls = [
        report("chr1", 1, 4, float("nan"), tested=False),
        report("chr1", 5, 10, 0.2),
    ]
    roc = evaluate(truth, calls).gene_level
    # untested genes rank last: at the only finite threshold the H1 block
    # stays uncalled while the tested H0 region is called
    assert list(roc.thresholds) == [0.2]
    assert roc.tpr[0] == 0.0 and roc.fpr[0] == 1.0

def test_grid_mismatch_cases():
    truth = truth_one_chrom(10, [(2, 5)])
    with pytest.raises(GridMismatch):
        evaluate(truth, [report("chr2", 1, 10, 0.5)])
    with pytest.raises(GridMismatch):
        evaluate(truth, [report("chr1", 1, 12, 0.5)])
    with pytest.raises(GridMismatch):
        evaluate(truth, [report("chr1", 1, 6, 0.5)])  # genes 7..10 uncovered

def test_multi_chromosome_aggregation():
    truth = {
        "chr1": truth_one_chrom(10, [(2, 6)])["chr1"],
        "chr2": np.zeros(8, dtype=bool),
    }
    calls = [
        report("chr1", 1, 2, 0.5),
        report("chr1", 3, 6, 1e-5),
        report("chr1", 7, 10, 0.5),
        report("chr2", 1, 8, 0.5),
    ]
    res = evaluate(truth, calls)
    assert res.gene_level.auc == pytest.approx(1.0)
    idx = int(np.argmin(np.abs(np.asarray(res.region_level.thresholds) - 1e-5)))
    assert res.region_level.tpr[idx] == 1.0
    assert res.region_level.fpr[idx] == 0.0

def test_region_runs_restart_at_a_chromosome_boundary():
    # chr1 ends in a TN run and chr2 starts with one: two TN regions, so the
    # FPR at 0.01 is 1 FP over 1 FP + 2 TN; merged runs would give 1/2
    truth = {"chr1": np.zeros(4, dtype=bool), "chr2": np.array([False] * 4 + [True] * 2)}
    calls = [report("chr1", 1, 2, 0.01), report("chr1", 3, 4, 0.9),
             report("chr2", 1, 4, 0.9), report("chr2", 5, 6, 0.01)]
    roc = evaluate(truth, calls).region_level
    idx = roc.thresholds.index(0.01)
    assert roc.tpr[idx] == 1.0
    assert roc.fpr[idx] == pytest.approx(1 / 3)
