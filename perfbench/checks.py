"""Output checks run after every sample, outside the timed region.

Each check returns (name, ok, detail). The invariants read corrseg's
output files with the csv and json modules alone, so they do not depend
on the code under test:

- segments tile every chromosome of the annotation, 1..p;
- each chromosome's written segment count equals trace.json chosen_K;
- test regions cover every gene;
- raw and adjusted p-values of tested regions lie in [0, 1];
- the evaluation AUCs lie in [0, 1].

Digest checks compare sha256 digests of every output file against a
reference: the first sample of the run, and the committed digests when
the run uses the default seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os


def read_table(path: str) -> list[dict]:
    """Rows of a tab-separated file with a header, as dicts."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


def chromosome_sizes(annotation: str) -> dict[str, int]:
    sizes: dict[str, int] = {}
    for row in read_table(annotation):
        sizes[row["chromosome"]] = sizes.get(row["chromosome"], 0) + 1
    return sizes


def _tiles(rows: list[dict], sizes: dict[str, int]) -> str:
    """'' when the rows' 1-based inclusive bounds tile every chromosome."""
    bounds: dict[str, list[tuple[int, int]]] = {}
    for row in rows:
        bounds.setdefault(row["chromosome"], []).append((int(row["start"]), int(row["end"])))
    if set(bounds) != set(sizes):
        return f"chromosomes {sorted(bounds)} != {sorted(sizes)}"
    for chrom, segs in bounds.items():
        cursor = 1
        for start, end in sorted(segs):
            if start != cursor or end < start:
                return f"{chrom}: gap or overlap at gene {cursor}"
            cursor = end + 1
        if cursor != sizes[chrom] + 1:
            return f"{chrom}: ends at {cursor - 1}, expected {sizes[chrom]}"
    return ""


def _unit(value: str) -> bool:
    x = float(value)
    return not math.isnan(x) and 0.0 <= x <= 1.0


def invariants(out: str, annotation: str) -> list[tuple[str, bool, str]]:
    """Check the segment, test and evaluate outputs under `out`."""
    sizes = chromosome_sizes(annotation)
    results = []

    def check(name, fn):
        try:
            detail = fn()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            detail = f"{type(exc).__name__}: {exc}"
        results.append((name, not detail, detail))

    segmentation = os.path.join(out, "segment", "segmentation.tsv")

    def k_matches_trace():
        with open(os.path.join(out, "segment", "trace.json")) as fh:
            trace = json.load(fh)
        written: dict[str, int] = {}
        for row in read_table(segmentation):
            written[row["chromosome"]] = written.get(row["chromosome"], 0) + 1
        bad = [c for c, t in trace.items() if written.get(c) != t["chosen_K"]]
        return f"K differs from chosen_K on {bad}" if bad or not trace else ""

    def pvalues():
        bad = [
            f"{r['chromosome']}:{r['start']}"
            for r in read_table(os.path.join(out, "test", "regions.tsv"))
            if r["tested"] == "true" and not (_unit(r["p_value"]) and _unit(r["p_adjusted"]))
        ]
        return f"p-values outside [0, 1] at {bad[:3]}" if bad else ""

    def aucs():
        rows = read_table(os.path.join(out, "evaluate", "auc.tsv"))
        ok = {r["level"] for r in rows if _unit(r["auc"])} == {"gene", "region"}
        return "" if ok else f"bad auc table {rows}"

    check("segments_tile", lambda: _tiles(read_table(segmentation), sizes))
    check("k_matches_trace", k_matches_trace)
    check("regions_cover", lambda: _tiles(read_table(os.path.join(out, "test", "regions.tsv")), sizes))
    check("pvalues_in_unit", pvalues)
    check("auc_in_unit", aucs)
    return results


def digests(out: str) -> dict[str, str]:
    """sha256 of every file under `out`, keyed by path relative to it."""
    found = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(found.items()))


def compare_digests(name: str, found: dict[str, str], expected: dict[str, str]) -> tuple[str, bool, str]:
    """Every expected file must exist with the expected digest."""
    bad = sorted(path for path, digest in expected.items() if found.get(path) != digest)
    return (name, not bad, f"digest mismatch: {bad}" if bad else "")
