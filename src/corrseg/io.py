"""File formats: delimited matrix/annotation/covariate readers, TSV/JSON
writers for segmentations, region reports, ROC tables, and run manifests.

All tabular files carry a one-line header. Gene coordinates in output
files are 1-based inclusive; the library's half-open 0-based convention
stays internal. Floats are written with repr so nothing is lost to
formatting; manifests record config, version, and seed but no clocks, so
rerunning a seeded command reproduces outputs byte for byte.
"""

from __future__ import annotations

import csv
import json
import re
from array import array
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import __version__
from .core import ExpressionMatrix
from .errors import IngestionError, MissingValues, SchemaError
from .segment import SelectionTrace
from .significance import RegionReport

_MISSING = {"", "na", "nan", "null", "none", "n/a"}


def _delimiter(path: Path) -> str:
    return "," if path.suffix.lower() == ".csv" else "\t"

def _read_rows(path: Path) -> tuple[list[list[str]], array]:
    """Non-blank rows, and the line in the file where each one ends."""
    # machine ints: a list of int objects costs 36 bytes a row, 1.9 MB on 52k covariate rows
    rows, lines = [], array("l")
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh, delimiter=_delimiter(path))
            for row in reader:
                if row:
                    rows.append(row)
                    lines.append(reader.line_num)
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise IngestionError(f"{path}: empty file")
    return rows, lines

def _parse_float(field: str, where: str) -> float:
    text = field.strip()
    if text.lower() in _MISSING:
        raise MissingValues(f"{where}: missing value")
    try:
        value = float(text)
    except ValueError as exc:
        raise IngestionError(f"{where}: non-numeric value {field!r}") from exc
    if not np.isfinite(value):
        raise MissingValues(f"{where}: non-finite value {field!r}")
    return value

def _parse_floats(fields: list[str], where: Callable[[int], str]) -> np.ndarray:
    """Parse cells as _parse_float does, in one numpy conversion.

    numpy converts str with float(), so cells and bits match; a bad cell
    reruns the per-cell loop, which names the first one as where(k).
    """
    try:
        values = np.array(fields, dtype=float)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return np.array([_parse_float(field, where(k)) for k, field in enumerate(fields)])


def read_expression(path: str | Path, transpose: bool = False) -> ExpressionMatrix:
    """Read a delimited expression matrix.

    Layout: header row of gene identifiers, one row per patient. When the
    header is one field shorter than the data rows, the first column
    holds patient identifiers. transpose=True reads the flipped layout
    (genes as rows, patients as columns) and reorients it.
    """
    path = Path(path)
    rows, lines = _read_rows(path)
    header, data = rows[0], rows[1:]
    if not data:
        raise IngestionError(f"{path}: no data rows below the header")
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise IngestionError(f"{path}: ragged rows (widths {sorted(widths)})")
    width = widths.pop()
    label_words = {"", "patient", "patient_id", "sample", "id", "gene", "gene_id"}
    if width == len(header) + 1:
        # header lists only the data columns; rows carry a leading identifier
        labeled = True
    elif width == len(header):
        labeled = header[0].strip().lower() in label_words
        if labeled:
            header = header[1:]
    else:
        raise IngestionError(
            f"{path}: header has {len(header)} fields but rows have {width}"
        )
    w = width - (1 if labeled else 0)
    row_ids = [row[0].strip() if labeled else f"R{i + 1:03d}" for i, row in enumerate(data)]
    cells = [field for row in data for field in (row[1:] if labeled else row)]
    values = _parse_floats(cells, lambda k: f"{path}: row {lines[k // w + 1]}, column {k % w + 1}")
    values = values.reshape(len(data), w)
    col_ids = [h.strip() for h in header]
    if transpose:
        values = values.T
        col_ids, row_ids = row_ids, col_ids
    seen: set[str] = set()
    for gene in col_ids:
        if gene in seen:
            raise SchemaError(f"{path}: gene id {gene!r} appears more than once")
        seen.add(gene)
    return ExpressionMatrix(
        values=values,
        gene_ids=tuple(col_ids),
        standardized=False,
        patient_ids=tuple(row_ids),
    )


def _find_column(header: list[str], names: set[str]) -> int | None:
    names = {n.lower() for n in names}
    for i, h in enumerate(header):
        if h.strip().lower() in names:
            return i
    return None

def read_annotation(path: str | Path) -> dict[str, tuple[str, float, float | None]]:
    """Read gene annotation: gene id, chromosome, start, optional end.

    Columns are matched by name when the header uses recognizable labels,
    positionally otherwise. Returns gene_id -> (chromosome, start, end).
    """
    path = Path(path)
    rows, lines = _read_rows(path)
    header, data = rows[0], rows[1:]
    gi = _find_column(header, {"gene", "gene_id", "id"})
    ci = _find_column(header, {"chromosome", "chrom", "chr"})
    si = _find_column(header, {"start", "position", "pos"})
    ei = _find_column(header, {"end", "stop"})
    if gi is None or ci is None or si is None:
        if len(header) < 3:
            raise IngestionError(f"{path}: annotation needs gene, chromosome, start")
        gi, ci, si = 0, 1, 2
        ei = 3 if len(header) >= 4 else None
    out: dict[str, tuple[str, float, float | None]] = {}
    first_row: dict[str, int] = {}
    for row, line in zip(data, lines[1:]):
        where = f"{path}: row {line}"
        if len(row) <= max(gi, ci, si):
            raise IngestionError(f"{where}: too few fields")
        gene = row[gi].strip()
        if gene in first_row:
            raise SchemaError(
                f"{path}: gene {gene!r} is listed twice (rows {first_row[gene]} and {line})"
            )
        first_row[gene] = line
        chrom = row[ci].strip()
        start = _parse_float(row[si], where)
        end = None
        if ei is not None and ei < len(row) and row[ei].strip():
            end = _parse_float(row[ei], where)
        out[gene] = (chrom, start, end)
    if not out:
        raise IngestionError(f"{path}: no annotation rows")
    return out


def read_covariate_long(
    path: str | Path,
) -> dict[str, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Read a long-format covariate file: patient, [chromosome,] position, value.

    Returns chromosome -> patient -> (positions, values), positions sorted.
    Without a chromosome column every probe lands on chromosome 'all'.
    """
    path = Path(path)
    rows, lines = _read_rows(path)
    header, data = rows[0], rows[1:]
    pi = _find_column(header, {"patient", "patient_id", "sample"})
    ci = _find_column(header, {"chromosome", "chrom", "chr"})
    xi = _find_column(header, {"position", "pos"})
    vi = _find_column(header, {"value", "val", "ratio"})
    if pi is None or xi is None or vi is None:
        if len(header) == 3:
            pi, xi, vi = 0, 1, 2
        elif len(header) >= 4:
            pi, ci, xi, vi = 0, 1, 2, 3
        else:
            raise IngestionError(f"{path}: covariate needs patient, position, value")
    need = max(k for k in (pi, ci, xi, vi) if k is not None)
    short = next((i for i, row in enumerate(data) if len(row) <= need), len(data))
    # cells above the first short row are parsed first, so the first fault in file order is named
    cells = [row[k] for row in data[:short] for k in (xi, vi)]
    parsed = _parse_floats(cells, lambda j: f"{path}: row {lines[j // 2 + 1]}").reshape(-1, 2)
    if short < len(data):
        raise IngestionError(f"{path}: row {lines[short + 1]}: too few fields")
    groups: dict[str, dict[str, list[int]]] = {}
    for i, row in enumerate(data):
        chrom = row[ci].strip() if ci is not None else "all"
        groups.setdefault(chrom, {}).setdefault(row[pi].strip(), []).append(i)
    out: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]] = {}
    for chrom, patients in groups.items():
        out[chrom] = {}
        for patient, idx in patients.items():
            pos, val = parsed[idx].T
            order = np.lexsort((val, pos))
            out[chrom][patient] = (pos[order], val[order])
    return out

def read_covariate_wide(
    matrix_path: str | Path, positions_path: str | Path
) -> dict[str, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Read a wide covariate matrix (rows = patients) plus a positions file.

    The positions file has one row per probe column: either a single
    position column or chromosome and position.
    """
    matrix_path = Path(matrix_path)
    pos_rows, lines = _read_rows(Path(positions_path))
    header = pos_rows[0]
    has_chrom = len(header) >= 2
    start_at = 0
    first = header[0].strip().lower()
    if first in {"chromosome", "chrom", "chr", "position", "pos"}:
        start_at = 1
    probes: list[tuple[str, float]] = []
    for row, line in zip(pos_rows[start_at:], lines[start_at:]):
        where = f"{positions_path}: row {line}"
        if len(row) < (2 if has_chrom else 1):
            raise IngestionError(f"{where}: too few fields")
        if has_chrom:
            probes.append((row[0].strip(), _parse_float(row[1], where)))
        else:
            probes.append(("all", _parse_float(row[0], where)))
    mat = read_expression(matrix_path)
    if mat.p != len(probes):
        raise IngestionError(
            f"{matrix_path}: {mat.p} probe columns but {len(probes)} positions"
        )
    out: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]] = {}
    chroms = np.array([c for c, _ in probes])
    positions = np.array([x for _, x in probes])
    for chrom in dict.fromkeys(chroms):
        mask = chroms == chrom
        pos = positions[mask]
        order = np.argsort(pos, kind="stable")
        out[chrom] = {
            patient: (pos[order], mat.values[i, mask][order])
            for i, patient in enumerate(mat.patient_ids)
        }
    return out


def natural_key(name: str) -> tuple:
    """Sort key treating digit runs numerically, so chr2 < chr10."""
    return tuple(int(t) if t.isdigit() else t for t in re.split(r"(\d+)", name))


def write_rows(path: str | Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


SEGMENTATION_HEADER = ["chromosome", "segment", "start", "end", "p_k", "rho_hat", "loglik"]

def write_segmentation(path: str | Path, rows: list[dict]) -> None:
    """Write segmentation rows (one per segment, 1-based inclusive bounds)."""
    write_rows(
        path,
        SEGMENTATION_HEADER,
        [[_fmt(r[k]) for k in SEGMENTATION_HEADER] for r in rows],
    )

def read_segmentation(path: str | Path) -> dict[str, list[tuple[int, int]]]:
    """Read a segmentation written by this package or an external tool.

    Needs chromosome, start, end columns (1-based inclusive). Returns
    chromosome -> list of half-open (start, stop) pairs in gene order.
    """
    path = Path(path)
    rows, lines = _read_rows(path)
    header, data = rows[0], rows[1:]
    ci = _find_column(header, {"chromosome", "chrom", "chr"})
    si = _find_column(header, {"start"})
    ei = _find_column(header, {"end", "stop"})
    if ci is None or si is None or ei is None:
        raise SchemaError(f"{path}: segmentation needs chromosome, start, end columns")
    out: dict[str, list[tuple[int, int]]] = {}
    for row, line in zip(data, lines[1:]):
        where = f"{path}: row {line}"
        try:
            start = int(row[si])
            end = int(row[ei])
        except (ValueError, IndexError) as exc:
            raise SchemaError(f"{where}: bad start/end") from exc
        if len(row) <= ci:
            raise SchemaError(f"{where}: too few fields")
        if start < 1 or end < start:
            raise SchemaError(f"{where}: bad bounds {start}-{end}")
        out.setdefault(row[ci].strip(), []).append((start - 1, end))
    for chrom, segs in out.items():
        segs.sort()
        cursor = segs[0][0]
        for a, b in segs:
            if a != cursor:
                raise SchemaError(f"{path}: {chrom} segments are not contiguous at {a + 1}")
            cursor = b
    return out


REGIONS_HEADER = [
    "chromosome", "start", "end", "p_k", "rho_hat", "rho0", "T_obs",
    "lambda0", "p_value", "p_adjusted", "significant", "tested",
]

def write_regions(path: str | Path, reports: list[RegionReport]) -> None:
    rows = [
        [
            r.chromosome, r.start, r.end, r.p_k, _fmt(r.rho_hat), _fmt(r.rho0_used),
            _fmt(r.T_obs), _fmt(r.lambda0), _fmt(r.p_value), _fmt(r.p_adjusted),
            _fmt(r.significant), _fmt(r.tested),
        ]
        for r in reports
    ]
    write_rows(path, REGIONS_HEADER, rows)

def read_regions(path: str | Path) -> list[RegionReport]:
    """Read a region report table (for the evaluation harness)."""
    path = Path(path)
    rows, lines = _read_rows(path)
    header, data = rows[0], rows[1:]
    idx = {name: _find_column(header, {name}) for name in REGIONS_HEADER}
    for required in ("chromosome", "start", "end", "p_value"):
        if idx[required] is None:
            raise SchemaError(f"{path}: region table needs a {required} column")
    out = []
    for row, line in zip(data, lines[1:]):
        where = f"{path}: row {line}"

        def get(name: str, default=None):
            j = idx[name]
            return row[j] if j is not None and j < len(row) else default

        def number(name: str) -> float:
            # untested regions legitimately carry nan p-values
            text = (get(name) or "nan").strip().lower()
            if text in _MISSING:
                return float("nan")
            try:
                return float(text)
            except ValueError as exc:
                raise SchemaError(f"{where}: bad {name} {text!r}") from exc

        try:
            start = int(get("start"))
            end = int(get("end"))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{where}: bad start/end") from exc
        p_val = number("p_value")
        if len(row) <= idx["chromosome"]:
            raise SchemaError(f"{where}: too few fields")
        out.append(
            RegionReport(
                chromosome=get("chromosome").strip(),
                start=start,
                end=end,
                p_k=end - start + 1,
                rho_hat=number("rho_hat"),
                rho0_used=number("rho0"),
                T_obs=number("T_obs"),
                lambda0=number("lambda0"),
                p_value=p_val,
                p_adjusted=number("p_adjusted"),
                significant=get("significant", "false").strip().lower() == "true",
                tested=get("tested", "true").strip().lower() != "false",
            )
        )
    return out


def write_matrix(path: str | Path, matrix: ExpressionMatrix) -> None:
    """Write an expression matrix in the ingestion layout (patients as rows)."""
    header = ["patient", *matrix.gene_ids]
    rows = [
        [matrix.patient_ids[i] if matrix.patient_ids else f"R{i + 1:03d}"]
        + [repr(float(v)) for v in matrix.values[i]]
        for i in range(matrix.n)
    ]
    write_rows(path, header, rows)


def write_truth(path: str | Path, truth_by_chrom: dict[str, np.ndarray], gene_ids: dict[str, list[str]]) -> None:
    rows = []
    for chrom in sorted(truth_by_chrom, key=natural_key):
        for gid, flag in zip(gene_ids[chrom], truth_by_chrom[chrom]):
            rows.append([gid, chrom, "H1" if flag else "H0"])
    write_rows(path, ["gene", "chromosome", "label"], rows)

def read_truth(path: str | Path) -> dict[str, np.ndarray]:
    """Read a truth table (gene, chromosome, label) into per-chromosome flags."""
    path = Path(path)
    rows, lines = _read_rows(path)
    header, data = rows[0], rows[1:]
    ci = _find_column(header, {"chromosome", "chrom", "chr"})
    li = _find_column(header, {"label", "status"})
    if ci is None or li is None:
        raise SchemaError(f"{path}: truth table needs chromosome and label columns")
    acc: dict[str, list[bool]] = {}
    for row, line in zip(data, lines[1:]):
        if len(row) <= max(ci, li):
            raise SchemaError(f"{path}: row {line}: too few fields")
        acc.setdefault(row[ci].strip(), []).append(row[li].strip().upper() == "H1")
    return {chrom: np.array(flags, dtype=bool) for chrom, flags in acc.items()}


def trace_payload(traces: dict[str, SelectionTrace]) -> dict:
    return {
        chrom: {
            "L": list(t.L),
            "Ltilde": list(t.Ltilde),
            "Ktilde": list(t.Ktilde),
            "second_diffs": list(t.second_diffs),
            "chosen_K": t.chosen_K,
            "threshold_S": t.threshold_S,
            "rule": t.rule,
            "degenerate": t.degenerate,
        }
        for chrom, t in traces.items()
    }

def write_json(path: str | Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

def write_manifest(path: str | Path, config: dict) -> None:
    """Record everything needed to reproduce a run: config, version, seed.

    Deliberately no timestamps or hostnames; a manifest must be identical
    across reruns of the same command.
    """
    write_json(path, {"version": __version__, "config": config})
