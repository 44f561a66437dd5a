"""The streaming readers against the whole-file readers they replaced.

The oracle below is the earlier `_read_rows`, `_read_table`,
`read_expression` and `read_covariate_long`, which held every row of a
file as strings before parsing a column. Each public reader must return
what the oracle returns, bit for bit, or raise the same exception class
with the same message, on generated tables with quoted tabs and
newlines, CRLF endings, blank lines, short and ragged rows, and missing,
non-finite and non-numeric cells.
"""

from __future__ import annotations

import csv
import dataclasses
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from corrseg import io
from corrseg.core import ExpressionMatrix
from corrseg.errors import CorrsegError, IngestionError, InvalidMatrix, SchemaError


# ------------------------------------------------------------------ oracle

def _old_read_rows(path: Path) -> tuple[list[list[str]], array]:
    rows, lines = [], array("l")
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh, delimiter=io._delimiter(path))
            for row in reader:
                if row:
                    rows.append(row)
                    lines.append(reader.line_num)
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise IngestionError(f"{path}: empty file")
    return rows, lines

def _old_read_expression(path, transpose=False):
    path = Path(path)
    rows, lines = _old_read_rows(path)
    header, data = rows[0], rows[1:]
    if not data:
        raise IngestionError(f"{path}: no data rows below the header")
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise IngestionError(f"{path}: ragged rows (widths {sorted(widths)})")
    width = widths.pop()
    label_words = {"", "patient", "patient_id", "sample", "id", "gene", "gene_id"}
    if width == len(header) + 1:
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
    values = io._parse_floats(
        cells, lambda k: f"{path}: row {lines[k // w + 1]}, column {k % w + 1}"
    )
    values = values.reshape(len(data), w)
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

def _old_read_table(path, columns, fallbacks=(), error=SchemaError, optional_header=False):
    rows, lines = _old_read_rows(path)
    header = [field.strip().lower() for field in rows[0]]
    found: dict[str, int] = {}
    if not optional_header or header[0] in {a.lower() for c in columns for a in c.aliases}:
        del rows[0], lines[0]
        for c in columns:
            hits = [header.index(a.lower()) for a in c.aliases if a.lower() in header]
            if hits:
                found[c.name] = min(hits)
    missing = [c for c in columns if c.default is None and c.name not in found]
    if missing:
        layout = max((f for f in fallbacks if len(f) <= len(header)), key=len, default=None)
        if layout is None:
            raise error(f"{path}: needs a {'/'.join(missing[0].aliases)} column")
        found = {name: j for j, name in enumerate(layout)}
    used = [(c, found[c.name]) for c in columns if c.name in found]
    try:
        out = {
            c.name: io._parse_floats([row[j] for row in rows], lambda k: f"{path}: row {lines[k]}")
            if c.parse is float else [c.parse(row[j]) for row in rows]
            for c, j in used
        }
    except (LookupError, ValueError, CorrsegError):
        need = max(j for _, j in used)
        for row, line in zip(rows, lines):
            where = f"{path}: row {line}"
            if len(row) <= need:
                raise error(f"{where}: too few fields") from None
            for c, j in used:
                if c.parse is float:
                    io._parse_float(row[j], where)
                    continue
                try:
                    c.parse(row[j])
                except (LookupError, ValueError, CorrsegError):
                    raise error(f"{where}: bad {c.name} {row[j].strip()!r}") from None
        raise  # not reached: the per-cell rules reject what the block parse did
    return {c.name: out[c.name] if c.name in out else [c.default] * len(rows) for c in columns}, lines

def _old_read_covariate_long(path):
    cols, _ = _old_read_table(
        Path(path),
        (
            io._Column(("patient", "patient_id", "sample")),
            io._Column(io._CHROMOSOME, default="all"),
            io._Column(("position", "pos"), float),
            io._Column(("value", "val", "ratio"), float),
        ),
        fallbacks=(("patient", "position", "value"), ("patient", "chromosome", "position", "value")),
        error=IngestionError,
    )
    groups: dict[tuple[str, str], list[int]] = {}
    for i, key in enumerate(zip(cols["chromosome"], cols["patient"])):
        groups.setdefault(key, []).append(i)
    out: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]] = {}
    for (chrom, patient), idx in groups.items():
        pos, val = cols["position"][idx], cols["value"][idx]
        order = np.lexsort((val, pos))
        out.setdefault(chrom, {})[patient] = (pos[order], val[order])
    return out

OLD_READERS = {
    io.read_expression: _old_read_expression, io.read_covariate_long: _old_read_covariate_long,
}

def _oracle(read, *args):
    """`read` (a public io reader) as it ran over the whole-file readers."""
    if read in OLD_READERS:
        return OLD_READERS[read](*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_read_table", _old_read_table)
        mp.setattr(io, "read_expression", _old_read_expression)
        return read(*args)


# ------------------------------------------------------------- comparison

def _plain(value):
    """A comparable form that tells bits, types and key order apart."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, _plain(vars(value)))
    if isinstance(value, dict):
        return ("dict", [(k, _plain(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_plain(v) for v in value])
    return (type(value).__name__, value)

def _outcome(read, *args, oracle=False):
    try:
        return "ok", _plain(_oracle(read, *args) if oracle else read(*args))
    except Exception as exc:  # any exception, so a traceback must match the oracle's too
        return type(exc), str(exc)


# ---------------------------------------------------------------- tables

# Cells are ASCII, so the oracle's locale-dependent open reads them as the
# streaming readers' UTF-8 open does. Quoted cells hold the delimiter, tabs
# and newlines; csv unquotes them before any parse.
IDS = st.sampled_from(["g1", "g2", "P1", "P2", " P3 ", '"P\t4"', '"g\n5"', '"a""b"', '"x,y"'])
CHROMS = st.sampled_from(["chr1", "chr2", "chr10", " chrX ", '"chr\t1"'])
NUMS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5, 10**6).map(str),
    st.sampled_from([" 1.5 ", "1e3", "-0.0", "5e-324", '"2.5"', "1_0"]),
)
INTS = st.sampled_from(["1", "2", "3", "4", " 5 ", "10", '"6"'])
BOOLS = st.sampled_from(["true", "false", "TRUE", " False "])
LABELS = st.sampled_from(["H0", "H1", "h1", " H0 "])
BAD = st.sampled_from([
    "", "NA", "nan", "NaN", "null", "inf", "-inf", "Infinity", "1e400", "x", "1,5", "2.5",
    "true", "H2", '"1\t2"', '"3\n4"', '""',
])

# reader -> header variants, each a list of (header cell, cell strategy);
# None as the header cell writes a header-less file
ANNOTATION = [("gene", IDS), ("chromosome", CHROMS), ("start", NUMS), ("end", NUMS)]
TABLES = {
    "annotation": (io.read_annotation, [
        ANNOTATION, ANNOTATION[:3], [ANNOTATION[2], ANNOTATION[0], ANNOTATION[1]],
        [("id", IDS), ("chr", CHROMS), ("pos", NUMS), ("stop", NUMS)],
        [("a", IDS), ("b", CHROMS), ("c", NUMS)],
    ]),
    "covariate": (io.read_covariate_long, [
        [("patient", IDS), ("chromosome", CHROMS), ("position", NUMS), ("value", NUMS)],
        [("sample", IDS), ("pos", NUMS), ("val", NUMS)],
        [("patient", IDS), ("position", NUMS), ("value", NUMS), ("chrom", CHROMS)],
        [("a", IDS), ("b", CHROMS), ("c", NUMS), ("d", NUMS)],
    ]),
    "segmentation": (io.read_segmentation, [
        [("chromosome", CHROMS), ("start", INTS), ("end", INTS)],
        [("start", INTS), ("stop", INTS), ("chr", CHROMS), ("p_k", INTS)],
    ]),
    "regions": (io.read_regions, [
        [("chromosome", CHROMS), ("start", INTS), ("end", INTS), ("p_value", NUMS)],
        [("chromosome", CHROMS), ("start", INTS), ("end", INTS), ("rho_hat", NUMS),
         ("p_value", NUMS), ("p_adjusted", NUMS), ("significant", BOOLS), ("tested", BOOLS)],
    ]),
    "truth": (io.read_truth, [
        [("gene", IDS), ("chromosome", CHROMS), ("label", LABELS)],
        [("status", LABELS), ("chr", CHROMS)],
    ]),
}
POSITIONS = [
    [("chromosome", CHROMS), ("position", NUMS)], [("pos", NUMS)],
    [(None, CHROMS), (None, NUMS)], [(None, NUMS)],
]


def _draw_rows(data, columns, n_max=5):
    """Rows of cells for columns, with bad cells and short or long rows."""
    rows = []
    for _ in range(data.draw(st.integers(0, n_max))):
        row = [data.draw(BAD if data.draw(st.integers(0, 7)) == 0 else strategy)
               for _, strategy in columns]
        shape = data.draw(st.integers(0, 7))
        if shape == 0 and row:
            del row[data.draw(st.integers(0, len(row) - 1)):]
        elif shape == 1:
            row.append(data.draw(NUMS))
        rows.append(row)
    return rows

def _write(data, path, header, rows):
    """Write a table as text: a CSV or TSV delimiter by suffix, LF or
    CRLF endings, and blank lines anywhere."""
    sep = "," if path.suffix == ".csv" else "\t"
    lines = ([sep.join(header)] if header else []) + [sep.join(row) for row in rows]
    for _ in range(data.draw(st.integers(0, 2))):
        lines.insert(data.draw(st.integers(0, len(lines))), "")
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    path.write_text(end.join(lines) + data.draw(st.sampled_from([end, ""])), newline="")
    return path

def _table(data, tmp_path, name, variants):
    columns = data.draw(st.sampled_from(variants))
    header = [h for h, _ in columns if h is not None]
    suffix = data.draw(st.sampled_from([".tsv", ".csv"]))
    return _write(data, tmp_path / f"{name}{suffix}", header, _draw_rows(data, columns))

def _expression(data, tmp_path, name="expression"):
    """A matrix in any of the three layouts read_expression accepts."""
    w = data.draw(st.integers(1, 4))
    genes = [f"g{j + 1}" for j in range(w)]
    layout = data.draw(st.sampled_from(["patient column", "short header", "unlabeled"]))
    header = ["patient", *genes] if layout == "patient column" else genes
    columns = [*([("", IDS)] if layout != "unlabeled" else []), *[(g, NUMS) for g in genes]]
    suffix = data.draw(st.sampled_from([".tsv", ".csv"]))
    rows = _draw_rows(data, columns, n_max=6)
    return _write(data, tmp_path / f"{name}{suffix}", header, rows)


CHECKS = dict(
    deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

@pytest.mark.parametrize("table", list(TABLES))
@settings(**CHECKS)
@given(data=st.data())
def test_small_table_readers_match_the_oracle(tmp_path, table, data):
    read, variants = TABLES[table]
    path = _table(data, tmp_path, table, variants)
    assert _outcome(read, path) == _outcome(read, path, oracle=True)

@settings(**CHECKS)
@given(data=st.data(), transpose=st.booleans())
def test_read_expression_matches_the_oracle(tmp_path, data, transpose):
    path = _expression(data, tmp_path)
    assert (_outcome(io.read_expression, path, transpose)
            == _outcome(io.read_expression, path, transpose, oracle=True))

@settings(**CHECKS)
@given(data=st.data())
def test_read_covariate_wide_matches_the_oracle(tmp_path, data):
    positions = _table(data, tmp_path, "positions", POSITIONS)
    matrix = _expression(data, tmp_path, "matrix")
    assert (_outcome(io.read_covariate_wide, matrix, positions)
            == _outcome(io.read_covariate_wide, matrix, positions, oracle=True))
