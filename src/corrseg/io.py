"""File formats: delimited matrix/annotation/covariate readers, TSV/JSON
writers for segmentations, region reports, ROC tables, and run manifests.

All tabular files carry a one-line header. Gene coordinates in output
files are 1-based inclusive; the library's half-open 0-based convention
stays internal. Writers pass model values; `write_rows` alone formats a
table cell (a float as its shortest round-trip repr, a bool as
true/false) and `write_json` alone a JSON value (NaN as null, strict
JSON). Manifests record config, version, and seed but no clocks, so
rerunning a seeded command reproduces outputs byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
import re
from array import array
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .core import ExpressionMatrix
from .errors import CorrsegError, IngestionError, InvalidMatrix, MissingValues, SchemaError
from .segment import SelectionTrace
from .significance import RegionReport

_MISSING = {"", "na", "nan", "null", "none", "n/a"}


def _delimiter(path: Path) -> str:
    return "," if path.suffix.lower() == ".csv" else "\t"

def _read_rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """Each non-blank row, as it is read, with the line in the file where it
    ends. An unreadable, empty or non-UTF-8 file raises IngestionError."""
    line = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter=_delimiter(path))
            for row in reader:
                if row:
                    line = reader.line_num
                    yield line, row
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise IngestionError(f"{path}: not UTF-8 text after line {reader.line_num}") from None
    except csv.Error as exc:
        raise IngestionError(f"{path}: row {reader.line_num}: {exc}") from None
    if not line:
        raise IngestionError(f"{path}: empty file")

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
    rows = _read_rows(path)
    _, header = next(rows)
    label_words = {"", "patient", "patient_id", "sample", "id", "gene", "gene_id"}
    labeled: bool | None = None
    widths: set[int] = set()
    row_ids: list[str] = []
    data: list[np.ndarray] = []
    fault: CorrsegError | None = None
    for line, row in rows:
        if labeled is None:
            # rows carry a leading identifier when the header lists only the
            # data columns or names the identifier column
            labeled = len(row) == len(header) + 1 or header[0].strip().lower() in label_words
        widths.add(len(row))
        if fault or len(widths) > 1:
            continue  # only widths now: a ragged row further down is named first
        try:
            data.append(_parse_floats(
                row[1:] if labeled else row, lambda k: f"{path}: row {line}, column {k + 1}"
            ))
        except CorrsegError as exc:
            fault = exc
            continue
        row_ids.append(row[0].strip() if labeled else f"R{len(data):03d}")
    if not widths:
        raise IngestionError(f"{path}: no data rows below the header")
    if len(widths) > 1:
        raise IngestionError(f"{path}: ragged rows (widths {sorted(widths)})")
    width = widths.pop()
    if width not in (len(header), len(header) + 1):
        raise IngestionError(f"{path}: header has {len(header)} fields but rows have {width}")
    if fault:
        raise fault
    if labeled and width == len(header):
        header = header[1:]
    values = np.vstack(data)
    col_ids = [h.strip() for h in header]
    if transpose:
        values = values.T
        col_ids, row_ids = row_ids, col_ids
    for kind, ids in (("gene", col_ids), ("patient", row_ids)):
        seen: set[str] = set()
        for name in ids:
            if name in seen:
                raise SchemaError(f"{path}: {kind} id {name!r} appears more than once")
            seen.add(name)
    try:
        return ExpressionMatrix(values=values, gene_ids=tuple(col_ids), patient_ids=tuple(row_ids))
    except InvalidMatrix as exc:
        raise InvalidMatrix(f"{path}: {exc}") from None


_CHROMOSOME = ("chromosome", "chrom", "chr")

@dataclass(frozen=True)
class _Column:
    """A column of a small table: its header aliases (the first names it in
    results and messages), how a cell parses (raising on a bad one; a
    `float` cell parses as `_parse_float` does), and the value every row
    reads when the header lacks the column (None: the column is required)."""

    aliases: tuple[str, ...]
    parse: Callable[[str], object] = str.strip
    default: object = None

    @property
    def name(self) -> str:
        return self.aliases[0]

def _float_or_nan(cell: str) -> float:
    """NaN for a missing-value marker, else a finite float as `_parse_float` reads it."""
    return math.nan if cell.strip().lower() in _MISSING else _parse_float(cell, "")

def _bool(cell: str) -> bool:
    return {"true": True, "false": False}[cell.strip().lower()]

def _h1(cell: str) -> bool:
    return {"h1": True, "h0": False}[cell.strip().lower()]

def _read_table(
    path: Path,
    columns: tuple[_Column, ...],
    fallbacks: tuple[tuple[str, ...], ...] = (),
    error: type[CorrsegError] = SchemaError,
    optional_header: bool = False,
) -> tuple[dict[str, list | np.ndarray], array]:
    """Read the declared columns of a table with a one-line header.

    Columns are found by alias, in any case. If one without a default is
    not, the longest layout in fallbacks no wider than the header gives
    the columns by position. With optional_header, the first row is a
    header only if its first cell is an alias, else it is data and the
    layout is positional. Every row must reach every column found.

    Returns column name -> values in declaration order (float64 arrays for
    `float` columns, lists otherwise) and the file line of each data row.
    The first short row or bad cell, in file order, raises error; a bad
    `float` cell raises as `_parse_float` does.
    """
    rows = _read_rows(path)
    first = next(rows)
    header = [field.strip().lower() for field in first[1]]
    found: dict[str, int] = {}
    if not optional_header or header[0] in {a.lower() for c in columns for a in c.aliases}:
        for c in columns:
            hits = [header.index(a.lower()) for a in c.aliases if a.lower() in header]
            if hits:
                found[c.name] = min(hits)
    else:
        rows = chain([first], rows)
    missing = [c for c in columns if c.default is None and c.name not in found]
    if missing:
        layout = max((f for f in fallbacks if len(f) <= len(header)), key=len, default=None)
        if layout is None:
            raise error(f"{path}: needs a {'/'.join(missing[0].aliases)} column")
        found = {name: j for j, name in enumerate(layout)}
    # per used column: where it sits, its values so far, and its parsed
    # value by cell text, so a repeated cell is parsed and stored once
    used = [
        (c, found[c.name], array("d") if c.parse is float else [], {})
        for c in columns if c.name in found
    ]
    need = max(j for _, j, _, _ in used)
    lines = array("l")  # machine ints: int objects would cost 36 bytes a row
    for line, row in rows:
        if len(row) <= need:
            raise error(f"{path}: row {line}: too few fields")
        for c, j, values, parsed in used:
            cell = row[j]
            if c.parse is float:
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    value = _parse_float(cell, f"{path}: row {line}")
            else:
                value = parsed.get(cell)
                if value is None:  # no parse returns None
                    try:
                        value = parsed[cell] = c.parse(cell)
                    except (LookupError, ValueError, CorrsegError):
                        raise error(f"{path}: row {line}: bad {c.name} {cell.strip()!r}") from None
            values.append(value)
        lines.append(line)
    # np.frombuffer: a float column's array becomes its result, uncopied
    out = {c.name: np.frombuffer(values) if c.parse is float else values for c, _, values, _ in used}
    return {c.name: out[c.name] if c.name in out else [c.default] * len(lines) for c in columns}, lines


def read_annotation(path: str | Path) -> dict[str, tuple[str, float, float | None]]:
    """Read gene annotation: gene id, chromosome, start, optional end.

    Columns are matched by name when the header uses recognizable labels,
    positionally otherwise. Returns gene_id -> (chromosome, start, end).
    """
    path = Path(path)
    cols, lines = _read_table(
        path,
        (
            _Column(("gene", "gene_id", "id")),
            _Column(_CHROMOSOME),
            _Column(("start", "position", "pos"), float),
            _Column(("end", "stop"), _float_or_nan, default=math.nan),
        ),
        fallbacks=(("gene", "chromosome", "start"), ("gene", "chromosome", "start", "end")),
        error=IngestionError,
    )
    out: dict[str, tuple[str, float, float | None]] = {}
    first_row: dict[str, int] = {}
    for gene, chrom, start, end, line in zip(
        cols["gene"], cols["chromosome"], cols["start"].tolist(), cols["end"], lines
    ):
        if gene in first_row:
            raise SchemaError(
                f"{path}: gene {gene!r} is listed twice (rows {first_row[gene]} and {line})"
            )
        first_row[gene] = line
        out[gene] = (chrom, start, None if math.isnan(end) else end)
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
    cols = _read_table(
        Path(path),
        (
            _Column(("patient", "patient_id", "sample")),
            _Column(_CHROMOSOME, default="all"),
            _Column(("position", "pos"), float),
            _Column(("value", "val", "ratio"), float),
        ),
        fallbacks=(("patient", "position", "value"), ("patient", "chromosome", "position", "value")),
        error=IngestionError,
    )[0]
    # (chromosome, patient) -> group code, in order of first appearance; the
    # string columns are popped so they are freed once coded
    keys: dict[tuple[str, str], int] = {}
    codes = np.fromiter(
        (keys.setdefault(key, len(keys)) for key in zip(cols.pop("chromosome"), cols.pop("patient"))),
        dtype=np.intp, count=len(cols["position"]),
    )
    # a stable sort keeps each group's rows in file order
    rows = np.argsort(codes, kind="stable")
    stops = np.cumsum(np.bincount(codes, minlength=len(keys))).tolist()
    out: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]] = {}
    for (chrom, patient), start, stop in zip(keys, [0, *stops], stops):
        idx = rows[start:stop]
        pos, val = cols["position"][idx], cols["value"][idx]
        order = np.lexsort((val, pos))
        out.setdefault(chrom, {})[patient] = (pos[order], val[order])
    return out

def read_covariate_wide(
    matrix_path: str | Path, positions_path: str | Path
) -> dict[str, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Read a wide covariate matrix (rows = patients) plus a positions file.

    The positions file has one row per probe column: either a single
    position column or chromosome and position, under an optional header.
    """
    matrix_path = Path(matrix_path)
    cols, _ = _read_table(
        Path(positions_path),
        (_Column(_CHROMOSOME, default="all"), _Column(("position", "pos"), float)),
        fallbacks=(("position",), ("chromosome", "position")),
        error=IngestionError,
        optional_header=True,
    )
    mat = read_expression(matrix_path)
    positions = cols["position"]
    if mat.p != len(positions):
        raise IngestionError(
            f"{matrix_path}: {mat.p} probe columns but {len(positions)} positions"
        )
    out: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]] = {}
    chroms = np.array(cols["chromosome"])
    for chrom in dict.fromkeys(cols["chromosome"]):
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


def _fmt(value) -> str:
    if isinstance(value, float):  # np.float64 too, whose repr names its type
        return repr(float(value))
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)

def write_rows(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write a tab-separated table; every cell is formatted by `_fmt`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(_fmt, row) for row in rows)


SEGMENTATION_HEADER = ["chromosome", "segment", "start", "end", "p_k", "rho_hat", "loglik"]

def write_segmentation(path: str | Path, rows: list[dict]) -> None:
    """Write segmentation rows (one per segment, 1-based inclusive bounds)."""
    write_rows(path, SEGMENTATION_HEADER, ([r[k] for k in SEGMENTATION_HEADER] for r in rows))

def read_segmentation(path: str | Path) -> dict[str, list[tuple[int, int]]]:
    """Read a segmentation written by this package or an external tool.

    Needs chromosome, start, end columns (1-based inclusive). Returns
    chromosome -> list of half-open (start, stop) pairs in gene order.
    """
    path = Path(path)
    cols, lines = _read_table(
        path, (_Column(_CHROMOSOME), _Column(("start",), int), _Column(("end", "stop"), int))
    )
    out: dict[str, list[tuple[int, int]]] = {}
    for chrom, start, end, line in zip(cols["chromosome"], cols["start"], cols["end"], lines):
        if start < 1 or end < start:
            raise SchemaError(f"{path}: row {line}: bad bounds {start}-{end}")
        out.setdefault(chrom, []).append((start - 1, end))
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
    # RegionReport's fields are in the header's order
    write_rows(path, REGIONS_HEADER, (vars(r).values() for r in reports))

# in RegionReport's field order, less p_k; untested regions carry nan p-values
_REGION_COLUMNS = (
    _Column(_CHROMOSOME),
    _Column(("start",), int),
    _Column(("end",), int),
    *(_Column((name,), _float_or_nan, default=math.nan)
      for name in ("rho_hat", "rho0", "T_obs", "lambda0")),
    _Column(("p_value",), _float_or_nan),
    _Column(("p_adjusted",), _float_or_nan, default=math.nan),
    _Column(("significant",), _bool, default=False),
    _Column(("tested",), _bool, default=True),
)

def read_regions(path: str | Path) -> list[RegionReport]:
    """Read a region report table (for the evaluation harness)."""
    cols, _ = _read_table(Path(path), _REGION_COLUMNS)
    return [
        RegionReport(chrom, start, end, end - start + 1, *rest)
        for chrom, start, end, *rest in zip(*cols.values())
    ]


def write_matrix(path: str | Path, matrix: ExpressionMatrix) -> None:
    """Write an expression matrix in the ingestion layout (patients as rows)."""
    ids = matrix.patient_ids or [f"R{i + 1:03d}" for i in range(matrix.n)]
    write_rows(
        path,
        ["patient", *matrix.gene_ids],
        ([pid, *row.tolist()] for pid, row in zip(ids, matrix.values)),
    )


def write_truth(path: str | Path, truth_by_chrom: dict[str, np.ndarray], gene_ids: dict[str, list[str]]) -> None:
    rows = []
    for chrom in sorted(truth_by_chrom, key=natural_key):
        for gid, flag in zip(gene_ids[chrom], truth_by_chrom[chrom]):
            rows.append([gid, chrom, "H1" if flag else "H0"])
    write_rows(path, ["gene", "chromosome", "label"], rows)

def read_truth(path: str | Path) -> dict[str, np.ndarray]:
    """Read a truth table (gene, chromosome, label) into per-chromosome flags."""
    cols, _ = _read_table(Path(path), (_Column(_CHROMOSOME), _Column(("label", "status"), _h1)))
    acc: dict[str, list[bool]] = {}
    for chrom, flag in zip(cols["chromosome"], cols["label"]):
        acc.setdefault(chrom, []).append(flag)
    return {chrom: np.array(flags, dtype=bool) for chrom, flags in acc.items()}


def trace_payload(traces: dict[str, SelectionTrace]) -> dict:
    """Each chromosome's SelectionTrace fields but the segmentation."""
    return {
        chrom: {k: v for k, v in vars(t).items() if k != "segmentation"}
        for chrom, t in traces.items()
    }

def _json_value(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value

def write_json(path: str | Path, payload) -> None:
    """Write strict JSON with sorted keys: NaN as null, tuples as lists."""
    with open(path, "w") as fh:
        json.dump(_json_value(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

def write_manifest(path: str | Path, config: dict) -> None:
    """Record everything needed to reproduce a run: config, version, seed.

    Deliberately no timestamps or hostnames; a manifest must be identical
    across reruns of the same command.
    """
    write_json(path, {"version": __version__, "config": config})
