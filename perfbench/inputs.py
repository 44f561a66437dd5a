"""Seeded input generators for the chr-2000 and correct-cnv workloads.

These run before any timing and use numpy alone, so a change to
corrseg.simulate cannot move the inputs these workloads measure. Every
file is written in corrseg's ingestion formats: an expression matrix with
patients as rows, an annotation (gene, chromosome, start, end), a truth
table (gene, chromosome, label) and, for correct-cnv, a long-format
covariate (patient, chromosome, position, value).
"""

from __future__ import annotations

import os

import numpy as np

N_PATIENTS = 58
RHO0 = 0.08
RHO1 = 0.7
GENE_SPACING = 1000
GENE_LENGTH = 100


def _write_table(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


def _background(rng: np.random.Generator, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """One-factor draws with correlation RHO0 between every pair of genes."""
    w = rng.standard_normal(n)
    noise = rng.standard_normal((n, p))
    return np.sqrt(RHO0) * w[:, None] + np.sqrt(1.0 - RHO0) * noise, w


def _plant_block(y: np.ndarray, w: np.ndarray, block: tuple[int, int], rng) -> None:
    """Lift the correlation inside genes [a, b) to RHO1 (compound symmetry)."""
    a, b = block
    n = y.shape[0]
    u = rng.standard_normal(n)
    noise = rng.standard_normal((n, b - a))
    y[:, a:b] = (
        np.sqrt(RHO0) * w[:, None]
        + np.sqrt(RHO1 - RHO0) * u[:, None]
        + np.sqrt(1.0 - RHO1) * noise
    )


def _write_dataset(out: str, chroms: list[tuple[str, np.ndarray, list[tuple[int, int]]]]) -> None:
    """Write expression, annotation and truth for (name, values, h1_blocks)."""
    os.makedirs(out, exist_ok=True)
    gene_ids, ann_rows, truth_rows = [], [], []
    for name, values, h1_blocks in chroms:
        h1 = np.zeros(values.shape[1], dtype=bool)
        for a, b in h1_blocks:
            h1[a:b] = True
        for j in range(values.shape[1]):
            gene = f"{name}_g{j + 1}"
            start = GENE_SPACING * (j + 1)
            gene_ids.append(gene)
            ann_rows.append([gene, name, str(start), str(start + GENE_LENGTH)])
            truth_rows.append([gene, name, "H1" if h1[j] else "H0"])
    values = np.hstack([v for _, v, _ in chroms])
    _write_table(
        os.path.join(out, "expression.tsv"),
        ["patient", *gene_ids],
        ([f"P{i + 1:03d}", *map(repr, row.tolist())] for i, row in enumerate(values)),
    )
    _write_table(os.path.join(out, "annotation.tsv"), ["gene", "chromosome", "start", "end"], ann_rows)
    _write_table(os.path.join(out, "truth.tsv"), ["gene", "chromosome", "label"], truth_rows)


def one_chromosome(out: str, seed: int, p: int = 2000) -> None:
    """One chromosome of p genes with two planted H1 blocks (widths 10 and 40).

    One block sits at a seeded position in each half of the chromosome, so
    every seed poses the same problem size with different block placement.
    """
    rng = np.random.default_rng([seed, 2000])
    y, w = _background(rng, N_PATIENTS, p)
    half = p // 2
    blocks = []
    for lo, width in ((0, min(10, p // 10)), (half, min(40, p // 5))):
        a = lo + int(rng.integers(p // 20, half - width - p // 20))
        blocks.append((a, a + width))
        _plant_block(y, w, blocks[-1], rng)
    _write_dataset(out, [("chr1", y, blocks)])


def covariate_chromosomes(
    out: str, seed: int, p: int = 300, probes: int = 450, n_chrom: int = 2
) -> None:
    """Chromosomes carrying one covariate-driven and one intrinsic block each.

    Per chromosome, a copy-number-like covariate z_i is constant over the
    probes of block A and 0 elsewhere (plus small probe noise), and the
    expression of A's genes carries 0.8 z_i on top of the background, as
    in acceptance check c09. Block B is intrinsic compound symmetry at
    RHO1. Only the B blocks are H1: correction should remove A. The
    covariate is written in long form with `probes` probes per chromosome.
    """
    rng = np.random.default_rng([seed, 450])
    width = max(3, p // 10)
    chroms = []
    cov_rows = []
    positions = np.round(np.linspace(GENE_SPACING, GENE_SPACING * p + GENE_LENGTH, probes))
    for c in range(n_chrom):
        name = f"chr{c + 1}"
        y, w = _background(rng, N_PATIENTS, p)
        half = p // 2
        a0 = int(rng.integers(p // 20, half - width - p // 20))
        b0 = half + int(rng.integers(p // 20, half - width - p // 20))
        if rng.random() < 0.5:
            a0, b0 = b0, a0
        block_a, block_b = (a0, a0 + width), (b0, b0 + width)
        z = rng.standard_normal(N_PATIENTS)
        y[:, block_a[0]:block_a[1]] += 0.8 * z[:, None]
        _plant_block(y, w, block_b, rng)
        lo = GENE_SPACING * (block_a[0] + 1)
        hi = GENE_SPACING * block_a[1] + GENE_LENGTH
        inside = (positions >= lo) & (positions <= hi)
        values = np.where(inside[None, :], z[:, None], 0.0)
        values = values + 0.1 * rng.standard_normal(values.shape)
        for i in range(N_PATIENTS):
            patient = f"P{i + 1:03d}"
            cov_rows.extend(
                [patient, name, str(int(x)), repr(v)]
                for x, v in zip(positions.tolist(), values[i].tolist())
            )
        chroms.append((name, y, [block_b]))
    _write_dataset(out, chroms)
    _write_table(
        os.path.join(out, "covariate.tsv"), ["patient", "chromosome", "position", "value"], cov_rows
    )
