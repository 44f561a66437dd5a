"""File formats: expression, annotation, covariate, segmentation, regions."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from corrseg import io
from corrseg.core import ExpressionMatrix
from corrseg.errors import (
    CorrsegError, IngestionError, InvalidMatrix, MissingValues, SchemaError, ValidationError,
)
from corrseg.significance import RegionReport
from conftest import as_matrix
import test_reader_oracle as oracle
from test_reader_oracle import _outcome


def write(path, text):
    path.write_text(text)
    return path


# ------------------------------------------------------------- expression

def test_read_expression_plain(tmp_path):
    p = write(tmp_path / "e.tsv", "g1\tg2\tg3\n1\t2\t3\n4\t5\t6\n7\t8\t9\n")
    m = io.read_expression(p)
    assert m.gene_ids == ("g1", "g2", "g3")
    assert m.patient_ids == ("R001", "R002", "R003")
    assert m.values.tolist() == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]

def test_read_expression_with_patient_column(tmp_path):
    p = write(
        tmp_path / "e.tsv",
        "patient\tg1\tg2\nA\t1\t2\nB\t3\t4\nC\t5\t6\n",
    )
    m = io.read_expression(p)
    assert m.patient_ids == ("A", "B", "C")
    assert m.gene_ids == ("g1", "g2")

def test_read_expression_short_header(tmp_path):
    # header lists only genes; rows carry an extra leading identifier
    p = write(tmp_path / "e.tsv", "g1\tg2\nA\t1\t2\nB\t3\t4\nC\t5\t6\n")
    m = io.read_expression(p)
    assert m.patient_ids == ("A", "B", "C")
    assert m.values.shape == (3, 2)

def test_read_expression_csv_and_transpose(tmp_path):
    p = write(
        tmp_path / "e.csv",
        "gene,P1,P2,P3\ng1,1,4,7\ng2,2,5,8\n",
    )
    m = io.read_expression(p, transpose=True)
    assert m.gene_ids == ("g1", "g2")
    assert m.patient_ids == ("P1", "P2", "P3")
    assert m.values.tolist() == [[1, 2], [4, 5], [7, 8]]

def test_matrix_round_trip(tmp_path, rng):
    m = as_matrix(rng.standard_normal((5, 4)))
    io.write_matrix(tmp_path / "m.tsv", m)
    back = io.read_expression(tmp_path / "m.tsv")
    # repr-formatted floats survive the round trip bit-for-bit
    assert back.values.tobytes() == m.values.tobytes()
    assert back.gene_ids == m.gene_ids

def test_write_matrix_bytes_equal_the_csv_row_writer(tmp_path):
    # ids that csv must quote (tab, quote, CR/LF, empty) and floats whose
    # repr has an exponent, a sign on zero or a subnormal value
    ids = ("a\tb", 'say "hi"', "cr\rlf\n", "")
    genes = ("g1", "g\t2", 'g"3', "g4")
    values = np.array([
        [1e-05, 1e16, -0.0, 5e-324],
        [0.1, -2.5, 123456789.0, 2.2250738585072014e-308],
        [1.0, -1e-300, 3.0, 7.0],
        [np.pi, -np.e, 1e300, -1e16],
    ])
    m = ExpressionMatrix(values=values, gene_ids=genes, patient_ids=ids)
    io.write_matrix(tmp_path / "fast.tsv", m)
    io.write_rows(
        tmp_path / "csv.tsv",
        ["patient", *genes],
        ([pid, *row.tolist()] for pid, row in zip(ids, values)),
    )
    assert (tmp_path / "fast.tsv").read_bytes() == (tmp_path / "csv.tsv").read_bytes()

def test_read_expression_errors(tmp_path):
    with pytest.raises(IngestionError):
        io.read_expression(tmp_path / "absent.tsv")
    with pytest.raises(IngestionError):
        io.read_expression(write(tmp_path / "empty.tsv", ""))
    with pytest.raises(IngestionError):
        io.read_expression(write(tmp_path / "h.tsv", "g1\tg2\n"))
    with pytest.raises(IngestionError):
        io.read_expression(
            write(tmp_path / "ragged.tsv", "g1\tg2\n1\t2\n3\n4\t5\n")
        )
    with pytest.raises(IngestionError):
        io.read_expression(
            write(tmp_path / "text.tsv", "g1\tg2\n1\tx\n3\t4\n5\t6\n")
        )

def test_read_expression_missing_values(tmp_path):
    for marker in ("", "NA", "nan", "n/a"):
        body = f"g1\tg2\n1\t{marker}\n3\t4\n5\t6\n"
        with pytest.raises(MissingValues):
            io.read_expression(write(tmp_path / "miss.tsv", body))


# Cells for the numeric-parse property: float and int reprs, padded with
# whitespace, plus the missing-value markers, non-finite spellings, forms
# only float() reads (underscores, non-ASCII digits) and junk.
TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from([
        "", "NA", "na", "nan", "NaN", "null", "none", "None", "n/a", "N/A",
        "inf", "-inf", "Infinity", "1e400", "-1e400", "1e-400", "1_000", "1__0",
        "_1", "１２", "٣", "0x1p3", "nan(123)", "1,5", "1e", "--1", "x", "1.5\x00",
    ]),
    st.text(max_size=4),
)
CELLS = st.tuples(
    st.sampled_from(["", " ", "\t", "\u3000", "\xa0"]), TOKENS, st.sampled_from(["", " ", "\n"])
).map("".join)

@settings(deadline=None, max_examples=300)
@given(st.lists(CELLS, max_size=6))
def test_fast_parse_matches_per_cell_loop(fields):
    try:
        fast = np.array(fields, dtype=float)
        fast_ok = bool(np.isfinite(fast).all())
    except ValueError:
        fast_ok = False
    try:
        expected = np.array([io._parse_float(f, f"cell {j + 1}") for j, f in enumerate(fields)])
    except IngestionError as exc:
        assert not fast_ok
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            io._parse_floats(fields, lambda j: f"cell {j + 1}")
    else:
        assert fast_ok
        assert fast.tobytes() == expected.tobytes()
        assert io._parse_floats(fields, lambda j: f"cell {j + 1}").tobytes() == expected.tobytes()

BAD_CELLS = [
    ("x", IngestionError, "non-numeric value 'x'"),
    ("NA", MissingValues, "missing value"),
    ("inf", MissingValues, "non-finite value 'inf'"),
    ("1e400", MissingValues, "non-finite value '1e400'"),
]

@pytest.mark.parametrize("cell,error,message", BAD_CELLS)
def test_read_expression_names_bad_last_cell(tmp_path, cell, error, message):
    p = write(tmp_path / "e.tsv", f"patient\tg1\tg2\nA\t1\t2\nB\t3\t4\nC\t5\t{cell}\n")
    with pytest.raises(error) as info:
        io.read_expression(p)
    assert type(info.value) is error
    assert str(info.value) == f"{p}: row 4, column 2: {message}"

def test_read_expression_names_first_bad_cell_in_file_order(tmp_path):
    p = write(tmp_path / "e.tsv", "g1\tg2\tg3\n1\t2\t3\n4\t5\tNA\nx\t8\t9\n")
    with pytest.raises(MissingValues, match=r"row 3, column 3: missing value$"):
        io.read_expression(p)


def _traced_peak(read, *args):
    """read(*args) and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return read(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

def test_read_expression_memory_stays_near_the_matrix(tmp_path, rng):
    # the chain benchmark's 58 x 2500 matrix; holding every cell as a
    # string costs about 12x the parsed matrix
    io.write_matrix(tmp_path / "e.tsv", as_matrix(rng.standard_normal((58, 2500))))
    matrix, peak = _traced_peak(io.read_expression, tmp_path / "e.tsv")
    assert peak < 4 * matrix.values.nbytes

def test_read_expression_peak_stays_under_twice_the_matrix(tmp_path, rng):
    # numpy's parser holds no cell as a Python string: the peak is the
    # matrix, loadtxt's growing copy of it, the ids and one line
    io.write_matrix(tmp_path / "e.tsv", as_matrix(rng.standard_normal((58, 2500))))
    matrix, peak = _traced_peak(io.read_expression, tmp_path / "e.tsv")
    assert peak < 2 * matrix.values.nbytes

def test_read_covariate_long_memory_stays_near_its_arrays(tmp_path, rng):
    # the correct-cnv benchmark's 58 patients x 2 chromosomes x 450 probes
    rows = (
        [f"P{i:03d}", chrom, 1000 + 666 * k, v]
        for chrom in ("chr1", "chr2")
        for i in range(58)
        for k, v in enumerate(rng.standard_normal(450).tolist())
    )
    io.write_rows(tmp_path / "c.tsv", ["patient", "chromosome", "position", "value"], rows)
    cov, peak = _traced_peak(io.read_covariate_long, tmp_path / "c.tsv")
    arrays = sum(pos.nbytes + val.nbytes for series in cov.values() for pos, val in series.values())
    assert arrays == 58 * 2 * 450 * 16
    assert peak < 4 * arrays


# ------------------------------------------------------------- annotation

def test_read_annotation_by_name(tmp_path):
    p = write(
        tmp_path / "a.tsv",
        "start\tgene\tchromosome\tend\n100\tgA\tchr1\t200\n300\tgB\tchr2\t\n"
        "400\tgC\tchr2\tNA\n",
    )
    ann = io.read_annotation(p)
    assert ann["gA"] == ("chr1", 100.0, 200.0)
    assert ann["gB"] == ("chr2", 300.0, None)
    assert ann["gC"] == ("chr2", 400.0, None)

def test_read_annotation_positional(tmp_path):
    p = write(tmp_path / "a.tsv", "a\tb\tc\ngA\tchr1\t100\ngB\tchr1\t50\n")
    ann = io.read_annotation(p)
    assert ann["gB"] == ("chr1", 50.0, None)

def test_read_annotation_errors(tmp_path):
    with pytest.raises(IngestionError):
        io.read_annotation(write(tmp_path / "a.tsv", "x\ty\nfoo\tbar\n"))
    with pytest.raises(IngestionError):
        io.read_annotation(write(tmp_path / "b.tsv", "gene\tchrom\tstart\n"))


# -------------------------------------------------------------- covariate

def test_read_covariate_long(tmp_path):
    p = write(
        tmp_path / "c.tsv",
        "patient\tchromosome\tposition\tvalue\n"
        "P1\tchr1\t200\t1.5\nP1\tchr1\t100\t0.5\nP2\tchr1\t100\t2.0\n"
        "P1\tchr2\t50\t3.0\n",
    )
    cov = io.read_covariate_long(p)
    assert set(cov) == {"chr1", "chr2"}
    pos, val = cov["chr1"]["P1"]
    # probes come back position-sorted
    assert pos.tolist() == [100.0, 200.0]
    assert val.tolist() == [0.5, 1.5]
    assert cov["chr2"]["P1"][1].tolist() == [3.0]

def test_read_covariate_long_no_chromosome(tmp_path):
    p = write(
        tmp_path / "c.tsv",
        "patient\tposition\tvalue\nP1\t10\t1.0\nP1\t20\t2.0\n",
    )
    cov = io.read_covariate_long(p)
    assert set(cov) == {"all"}

def test_read_covariate_long_sorts_ties_by_value(tmp_path):
    p = write(
        tmp_path / "c.tsv",
        "patient\tposition\tvalue\n"
        "P1\t20\t2.0\nP2\t5\t9.0\nP1\t10\t3.0\nP1\t10\t-1.0\nP1\t10\t3.0\n",
    )
    cov = io.read_covariate_long(p)
    assert list(cov["all"]) == ["P1", "P2"]
    pos, val = cov["all"]["P1"]
    assert pos.tolist() == [10.0, 10.0, 10.0, 20.0]
    assert val.tolist() == [-1.0, 3.0, 3.0, 2.0]

@pytest.mark.parametrize("cell,error,message", BAD_CELLS)
def test_read_covariate_long_names_bad_last_cell(tmp_path, cell, error, message):
    p = write(
        tmp_path / "c.tsv",
        f"patient\tchromosome\tposition\tvalue\nP1\tchr1\t1\t0.5\nP1\tchr1\t2\t{cell}\n",
    )
    with pytest.raises(error) as info:
        io.read_covariate_long(p)
    assert type(info.value) is error
    assert str(info.value) == f"{p}: row 3: {message}"

def test_read_covariate_long_first_fault_in_file_order(tmp_path):
    header = "patient\tchromosome\tposition\tvalue\n"
    bad_then_short = write(
        tmp_path / "a.tsv", header + "P1\tchr1\t1\tx\nP1\tchr1\t2\t0.5\nP1\tchr1\n"
    )
    with pytest.raises(IngestionError, match=r"row 2: non-numeric value 'x'$"):
        io.read_covariate_long(bad_then_short)
    short_then_bad = write(
        tmp_path / "b.tsv", header + "P1\tchr1\t1\t0.5\nP1\tchr1\nP1\tchr1\t3\tx\n"
    )
    with pytest.raises(IngestionError, match=r"row 3: too few fields$"):
        io.read_covariate_long(short_then_bad)

def test_read_covariate_long_row_missing_chromosome(tmp_path):
    # the chromosome column comes last; a row without it is not filed under 'all'
    p = write(
        tmp_path / "c.tsv",
        "patient\tposition\tvalue\tchromosome\nP0\t1\t0.5\tchr1\nP0\t2\t0.7\n",
    )
    with pytest.raises(IngestionError, match=r"row 3: too few fields$"):
        io.read_covariate_long(p)

def test_read_covariate_wide(tmp_path):
    write(
        tmp_path / "w.tsv",
        "patient\ts1\ts2\ts3\nP1\t1\t2\t3\nP2\t4\t5\t6\nP3\t7\t8\t9\n",
    )
    # a header, named columns in another order, no header
    for positions in (
        "chromosome\tposition\nchr1\t100\nchr1\t300\nchr2\t50\n",
        "Pos\tchrom\n100\tchr1\n300\tchr1\n50\tchr2\n",
        "chr1\t100\nchr1\t300\nchr2\t50\n",
    ):
        write(tmp_path / "pos.tsv", positions)
        cov = io.read_covariate_wide(tmp_path / "w.tsv", tmp_path / "pos.tsv")
        assert set(cov) == {"chr1", "chr2"}
        pos, val = cov["chr1"]["P2"]
        assert pos.tolist() == [100.0, 300.0]
        assert val.tolist() == [4.0, 5.0]
        assert cov["chr2"]["P3"][1].tolist() == [9.0]

def test_read_covariate_wide_count_mismatch(tmp_path):
    write(tmp_path / "pos.tsv", "position\n100\n")
    write(tmp_path / "w.tsv", "patient\ts1\ts2\nP1\t1\t2\nP2\t3\t4\nP3\t5\t6\n")
    with pytest.raises(IngestionError):
        io.read_covariate_wide(tmp_path / "w.tsv", tmp_path / "pos.tsv")


# ------------------------------------------------- segmentation and regions

def test_segmentation_round_trip(tmp_path):
    rows = [
        {"chromosome": "chr1", "segment": 1, "start": 1, "end": 10, "p_k": 10,
         "rho_hat": 0.25, "loglik": -123.5},
        {"chromosome": "chr1", "segment": 2, "start": 11, "end": 30, "p_k": 20,
         "rho_hat": 0.0, "loglik": -456.0},
        {"chromosome": "chr2", "segment": 1, "start": 1, "end": 5, "p_k": 5,
         "rho_hat": 0.7, "loglik": -7.0},
    ]
    io.write_segmentation(tmp_path / "s.tsv", rows)
    segs = io.read_segmentation(tmp_path / "s.tsv")
    assert segs == {"chr1": [(0, 10), (10, 30)], "chr2": [(0, 5)]}

def test_segmentation_schema_errors(tmp_path):
    with pytest.raises(SchemaError):
        io.read_segmentation(write(tmp_path / "bad.tsv", "a\tb\n1\t2\n"))
    gap = (
        "chromosome\tstart\tend\nchr1\t1\t10\nchr1\t12\t20\n"
    )
    with pytest.raises(SchemaError):
        io.read_segmentation(write(tmp_path / "gap.tsv", gap))
    with pytest.raises(SchemaError):
        io.read_segmentation(
            write(tmp_path / "rev.tsv", "chromosome\tstart\tend\nchr1\t5\t2\n")
        )
    with pytest.raises(SchemaError):
        io.read_segmentation(
            write(tmp_path / "txt.tsv", "chromosome\tstart\tend\nchr1\tx\t2\n")
        )
    with pytest.raises(SchemaError, match=r"row 2: too few fields$"):
        io.read_segmentation(write(tmp_path / "short.tsv", "start\tend\tchromosome\n3\t4\n"))

def test_regions_round_trip(tmp_path):
    reports = [
        RegionReport(
            chromosome="chr1", start=1, end=7, p_k=7, rho_hat=0.561,
            rho0_used=0.163, T_obs=0.613, lambda0=0.01, p_value=2.1e-07,
            p_adjusted=4.2e-07, significant=True,
        ),
        RegionReport(
            chromosome="chr1", start=8, end=8, p_k=1, rho_hat=0.0,
            rho0_used=0.163, T_obs=float("nan"), lambda0=float("nan"),
            p_value=float("nan"), tested=False,
        ),
    ]
    io.write_regions(tmp_path / "r.tsv", reports)
    back = io.read_regions(tmp_path / "r.tsv")
    assert len(back) == len(reports)
    for want, got in zip(reports, back):
        for name, value in vars(want).items():
            read = getattr(got, name)
            # NaN reads back as NaN
            assert read == value or (value != value and read != read), name

def test_regions_schema_error(tmp_path):
    with pytest.raises(SchemaError):
        io.read_regions(write(tmp_path / "r.tsv", "chromosome\tstart\n" "chr1\t1\n"))

def test_regions_missing_float_cells_read_as_nan(tmp_path):
    columns = ["rho_hat", "rho0", "T_obs", "lambda0", "p_value", "p_adjusted"]
    text = "chromosome\tstart\tend\t" + "\t".join(columns) + "\n"
    text += "chr1\t1\t4\tNA\tnull\tNone\tn/a\tNaN\t\n"
    (r,) = io.read_regions(write(tmp_path / "r.tsv", text))
    for value in (r.rho_hat, r.rho0_used, r.T_obs, r.lambda0, r.p_value, r.p_adjusted):
        assert np.isnan(value)


def test_regions_booleans_are_strict(tmp_path):
    head = "Chr\tstart\tend\tp_value\tsignificant\ttested\n"
    ok = write(tmp_path / "ok.tsv", head + "chr1\t1\t2\t0.01\tTRUE\tTrue\nchr1\t3\t4\tnan\tfalse\tFALSE\n")
    assert [(r.significant, r.tested) for r in io.read_regions(ok)] == [(True, True), (False, False)]
    absent = write(tmp_path / "absent.tsv", "chromosome\tstart\tend\tp_value\nchr1\t1\t2\t0.5\n")
    assert [(r.significant, r.tested) for r in io.read_regions(absent)] == [(False, True)]
    for cell in ("0", "no", "1", ""):
        bad = write(tmp_path / "bad.tsv", head + f"chr1\t1\t2\t0.5\tfalse\ttrue\nchr1\t3\t4\t0.5\tfalse\t{cell}\n")
        with pytest.raises(SchemaError, match=re.escape(f"{bad}: row 3: bad tested '{cell}'") + "$"):
            io.read_regions(bad)


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e16, 0.1 + 0.2]),
)

@settings(deadline=None, max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(
        st.tuples(st.lists(st.tuples(FINITE, st.booleans()), min_size=6, max_size=6),
                  st.booleans(), st.booleans()),
        min_size=1, max_size=4,
    )
)
def test_written_floats_read_back_with_the_same_bits(tmp_path, rows):
    """Floats (np.float64 ones too) and booleans survive write_rows -> read_regions."""
    cells = [
        ["chr1", 1, 2, 2, *(np.float64(v) if wrap else v for v, wrap in floats), sig, tested]
        for floats, sig, tested in rows
    ]
    io.write_rows(tmp_path / "r.tsv", io.REGIONS_HEADER, cells)
    back = io.read_regions(tmp_path / "r.tsv")
    got = [(r.rho_hat, r.rho0_used, r.T_obs, r.lambda0, r.p_value, r.p_adjusted) for r in back]
    want = [[float(v) for v in row[4:10]] for row in cells]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert [(r.significant, r.tested) for r in back] == [(sig, tested) for _, sig, tested in rows]


# ---------------------------------------------------------- truth and misc

@pytest.mark.parametrize("reader, text, error, message", [
    (io.read_expression, "patient\tg1\tg2\n\nP1\t1.0\t2.0\nP2\t2.0\tx\n",
     IngestionError, "row 4, column 2: non-numeric value 'x'"),
    (io.read_covariate_long, "patient\tposition\tvalue\n\nP1\t1\t0.5\n\nP1\t2\tx\n",
     IngestionError, "row 5: non-numeric value 'x'"),
    (io.read_truth, "gene\tchromosome\tlabel\n\nchr1_g1\tchr1\tH0\nchr1_g2\n",
     SchemaError, "row 4: too few fields"),
    (io.read_annotation, "gene\tchromosome\tstart\n\ng1\tchr1\t1\n\ng1\tchr1\t2\n",
     SchemaError, "gene 'g1' is listed twice (rows 3 and 5)"),
], ids=["expression", "covariate", "truth", "annotation"])
def test_row_numbers_count_blank_lines(tmp_path, reader, text, error, message):
    path = write(tmp_path / "f.tsv", text)
    with pytest.raises(error, match=re.escape(f"{path}: {message}") + "$"):
        reader(path)

@pytest.mark.parametrize("reader, text, error, message", [
    (io.read_annotation, "gene\tchromosome\nchr1_g1\tchr1\n",
     IngestionError, "needs a start/position/pos column"),
    (io.read_covariate_long, "patient\tvalue\nP1\t0.5\n",
     IngestionError, "needs a position/pos column"),
    (io.read_segmentation, "chromosome\tend\nchr1\t2\n", SchemaError, "needs a start column"),
    (io.read_regions, "chromosome\tstart\tend\nchr1\t1\t2\n", SchemaError, "needs a p_value column"),
    (io.read_truth, "gene\tchromosome\nchr1_g1\tchr1\n", SchemaError, "needs a label/status column"),
    (io.read_segmentation, "chromosome\tstart\tend\nchr1\t1\t2\nchr1\tx\t4\n",
     SchemaError, "row 3: bad start 'x'"),
    (io.read_regions, "chromosome\tstart\tend\tp_value\nchr1\t1\t2.5\t0.1\n",
     SchemaError, "row 2: bad end '2.5'"),
    (io.read_regions, "chromosome\tstart\tend\tp_value\nchr1\t1\t2\t inf\n",
     SchemaError, "row 2: bad p_value 'inf'"),
    (io.read_regions, "chromosome\tstart\tend\tp_value\trho_hat\nchr1\t1\t2\t0.1\n",
     SchemaError, "row 2: too few fields"),
    (io.read_annotation, "gene\tchromosome\tstart\tend\ng1\tchr1\t1\tx\n",
     IngestionError, "row 2: bad end 'x'"),
    (io.read_annotation, "gene\tchromosome\tstart\tend\ng1\tchr1\t1\t4\ng2\tchr1\t5\n",
     IngestionError, "row 3: too few fields"),
    # a bad cell is reported before a reader's own row and cross-row rules
    (io.read_segmentation, "chromosome\tstart\tend\nchr1\t5\t2\nchr1\tx\t4\n",
     SchemaError, "row 3: bad start 'x'"),
    (io.read_annotation, "gene\tchromosome\tstart\ng1\tchr1\t1\ng1\tchr1\t2\ng2\tchr1\tx\n",
     IngestionError, "row 4: non-numeric value 'x'"),
    *[(io.read_truth, f"gene\tchromosome\tlabel\ng1\tchr1\th1\ng2\tchr1\t{cell}\n",
       SchemaError, f"row 3: bad label '{cell}'") for cell in ("1", "yes", "H2")],
    (io.read_expression, "patient\tg1\tg2\nP1\t1\t2\nP2\t3\t4\n",
     InvalidMatrix, "need at least 3 patients, got 2"),
    (lambda path: io.read_covariate_wide(path, write(path.with_name("pos.tsv"), "1\n2\n")),
     "patient\tq1\tq2\nP1\t1\t2\nP2\t3\t4\n", InvalidMatrix, "need at least 3 patients, got 2"),
    # a whole-file fault of the matrix is named before a bad cell above it
    (io.read_expression, "g1\tg2\n1\tx\n3\t4\n5\n", IngestionError, "ragged rows (widths [1, 2])"),
    (io.read_expression, "g1\tg2\tg3\tg4\n1\tx\n3\t4\n5\t6\n",
     IngestionError, "header has 4 fields but rows have 2"),
], ids=[
    "annotation-header", "covariate-header", "segmentation-header", "regions-header",
    "truth-header", "segmentation-int", "regions-int", "regions-inf", "regions-short",
    "annotation-end", "annotation-short", "segmentation-cell-before-bounds",
    "annotation-cell-before-duplicate", "truth-label-1", "truth-label-yes", "truth-label-H2",
    "expression-two-patients", "covariate-wide-two-patients",
    "expression-ragged-below-bad-cell", "expression-header-above-bad-cell",
])
def test_table_fault_named(tmp_path, reader, text, error, message):
    path = write(tmp_path / "f.tsv", text)
    with pytest.raises(error, match=re.escape(f"{path}: {message}") + "$"):
        reader(path)

def test_truth_round_trip(tmp_path):
    truth = {"chr2": np.array([True, False]), "chr10": np.array([False])}
    ids = {"chr2": ["a", "b"], "chr10": ["c"]}
    io.write_truth(tmp_path / "t.tsv", truth, ids)
    text = (tmp_path / "t.tsv").read_text()
    # natural ordering: chr2 before chr10
    assert text.index("chr2") < text.index("chr10")
    back = io.read_truth(tmp_path / "t.tsv")
    assert back["chr2"].tolist() == [True, False]
    assert back["chr10"].tolist() == [False]

def test_natural_key_ordering():
    names = ["chr10", "chr2", "chrX", "chr1"]
    assert sorted(names, key=io.natural_key) == ["chr1", "chr2", "chr10", "chrX"]

def test_manifest_is_stable(tmp_path):
    io.write_manifest(tmp_path / "m1.json", {"seed": 1, "out": "o"})
    io.write_manifest(tmp_path / "m2.json", {"out": "o", "seed": 1})
    b1 = (tmp_path / "m1.json").read_bytes()
    assert b1 == (tmp_path / "m2.json").read_bytes()
    assert b"version" in b1
    assert b"timestamp" not in b1


# ------------------------------------------------------- reader properties

# One tiny valid file per small table; the positions file is read with a
# fixed three-probe matrix.
TABLES = {
    "annotation": "gene\tchromosome\tstart\tend\ng1\tchr1\t1\t5\ng2\tchr1\t6\t9\ng3\tchr2\t1\t4\n",
    "covariate": "patient\tchromosome\tposition\tvalue\n"
                 "P1\tchr1\t2\t0.5\nP1\tchr1\t1\t0.7\nP2\tchr1\t1\t0.1\nP2\tchr2\t4\t0.3\n",
    "positions": "chromosome\tposition\nchr1\t1\nchr1\t5\nchr2\t2\n",
    "segmentation": "chromosome\tstart\tend\nchr1\t1\t2\nchr1\t3\t5\nchr2\t1\t4\n",
    "regions": "chromosome\tstart\tend\trho_hat\tp_value\tp_adjusted\tsignificant\ttested\n"
               "chr1\t1\t2\t0.4\t0.01\t0.02\ttrue\ttrue\nchr1\t3\t3\t0.0\tnan\tnan\tfalse\tfalse\n",
    "truth": "gene\tchromosome\tlabel\ng1\tchr1\tH0\ng2\tchr1\tH1\ng3\tchr2\tH0\n",
}
MATRIX = "patient\tq1\tq2\tq3\nP1\t1\t2\t3\nP2\t4\t5\t7\nP3\t2\t0\t1\n"
READERS = {
    "annotation": io.read_annotation,
    "covariate": io.read_covariate_long,
    "positions": lambda path: io.read_covariate_wide(path.with_name("matrix.tsv"), path),
    "segmentation": io.read_segmentation,
    "regions": io.read_regions,
    "truth": io.read_truth,
}
MUTATIONS = ["drop line", "duplicate line", "blank line", "drop field", "append field", "replace cell"]

def _mutate(data, text):
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 2))):
        if not lines:
            break
        i = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split("\t")
        kind = data.draw(st.sampled_from(MUTATIONS))
        if kind == "drop line":
            del lines[i]
        elif kind == "duplicate line":
            lines.insert(i, lines[i])
        elif kind == "blank line":
            lines[i] = ""
        elif kind == "drop field":
            del fields[data.draw(st.integers(0, len(fields) - 1))]
            lines[i] = "\t".join(fields)
        elif kind == "append field":
            lines[i] += "\t1"
        else:
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(
                st.sampled_from(["", "NA", "inf", "1e308", "abc", "0", "no"])
            )
            lines[i] = "\t".join(fields)
    return lines

def _read(table, path):
    """The reader's result in comparable form, or the exit family of its error."""
    try:
        result = READERS[table](path)
    except CorrsegError as exc:
        assert str(exc).startswith((str(path), str(path.with_name("matrix.tsv")))), str(exc)
        return IngestionError if isinstance(exc, IngestionError) else ValidationError
    if table == "covariate":
        return {c: {p: (x.tolist(), v.tolist()) for p, (x, v) in s.items()} for c, s in result.items()}
    return result

@pytest.mark.parametrize("table", list(TABLES))
@settings(deadline=None, max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_readers_name_the_file_and_ignore_row_order(tmp_path, table, data):
    """(a) A mutated table reads, or fails naming its file. (b) For tables
    whose result has no row order, permuting the data rows gives an equal
    result or an error of the same exit family."""
    write(tmp_path / "matrix.tsv", MATRIX)
    lines = _mutate(data, TABLES[table])
    path = write(tmp_path / "f.tsv", "".join(line + "\n" for line in lines))
    first = _read(table, path)
    if table in ("annotation", "covariate", "segmentation"):
        # the header is the first non-blank line
        head = next((i + 1 for i, line in enumerate(lines) if line), len(lines))
        body = data.draw(st.permutations(lines[head:]))
        write(path, "".join(line + "\n" for line in [*lines[:head], *body]))
        assert _read(table, path) == first


# ------------------------------------------------------ the loadtxt fast path

def _csv_path_only(read, *args):
    """`read` with the fast path off, so today's csv reader alone runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_loadtxt", lambda *_: None)
        return _outcome(read, *args)

def _fast_path_results(monkeypatch) -> list:
    """What each `_loadtxt` call returns from now on: None where it gave up."""
    results, loadtxt = [], io._loadtxt
    monkeypatch.setattr(io, "_loadtxt", lambda *args: results.append(loadtxt(*args)) or results[-1])
    return results

COVARIATE_HEADER = "patient\tchromosome\tposition\tvalue"

def _encode(text: str, bom: bool = False, crlf: bool = False) -> bytes:
    return (("\ufeff" if bom else "") + (text.replace("\n", "\r\n") if crlf else text)).encode()

# only the matrix has a fast path; the tables are read by csv alone
@pytest.mark.parametrize("read", [io.read_expression], ids=["expression"])
def test_plain_files_take_the_fast_path(tmp_path, monkeypatch, read):
    results = _fast_path_results(monkeypatch)
    read(write(tmp_path / "f.tsv", MATRIX))
    assert len(results) == 1 and results[0] is not None

@pytest.mark.parametrize("cell", ["1_000", "\uff11\uff12", "\u0663", " 1_0 "])
def test_float_forms_loadtxt_rejects_read_through_csv(tmp_path, monkeypatch, cell):
    # README promises float()'s forms; numpy's parser refuses them, so the
    # csv path must be what reads them
    results = _fast_path_results(monkeypatch)
    matrix = io.read_expression(
        write(tmp_path / "e.tsv", f"patient\tg1\nA\t1\nB\t{cell}\nC\t3\n")
    )
    cov = io.read_covariate_long(
        write(tmp_path / "c.tsv", f"{COVARIATE_HEADER}\nA\tchr1\t{cell}\t0.5\n")
    )
    assert results == [None]
    assert matrix.values[1, 0] == float(cell) == cov["chr1"]["A"][0][0]

# Cell texts where numpy's parser and float() may part ways, and cells that
# csv reads apart from a split on the delimiter
ODD_CELLS = [
    "1_000", "\uff11\uff12", " 1.5 ", "\u30002\xa0", "+1", "-0.0", "5e-324", "1e-400",
    "nan", "inf", "-Infinity", "1e400", '"2.5"', '"3\t4"', '""',
    "", "NA", "null", "none", "n/a", "0x10", "1d3", "1 2", "1\x0c", "2\x00",
]
CELL = st.one_of(FINITE.map(repr), st.integers(-10**6, 10**6).map(str))
# ids csv unquotes, and a NUL, which csv refuses before Python 3.11
ODD_IDS = ['"{}"', '"{}\t"', '"{}""', "{}\x00", " {} "]

def _odd_or(data, strategy, odd=st.sampled_from(ODD_CELLS)):
    return data.draw(odd if data.draw(st.integers(0, 7)) == 0 else strategy)

# the covariate reader has no fast path; tests/test_reader_oracle.py
# checks it against the whole-file reader
@pytest.mark.parametrize("read", [io.read_expression], ids=["expression"])
@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fast_path_reads_as_the_csv_path(tmp_path, read, data):
    """A file reads to the same bits as the csv path alone reads it, or
    raises the same class with the same message, whatever its cells, ids,
    line endings, byte-order mark, blank lines and trailing delimiters."""
    ids = [_odd_or(data, st.just("{}"), st.sampled_from(ODD_IDS)).format(f"P{i}") for i in range(6)]
    w = data.draw(st.integers(1, 3))
    header = "\t".join(["patient", *(f"g{j + 1}" for j in range(w))])
    n = data.draw(st.integers(3, 6))
    rows = [[ids[i], *(_odd_or(data, CELL) for _ in range(w))] for i in range(n)]
    trailing = ["\t" if data.draw(st.integers(0, 9)) == 0 else "" for _ in rows]
    lines = [header] + ["\t".join(row) + end for row, end in zip(rows, trailing)]
    for _ in range(data.draw(st.integers(0, 3)) // 2):
        lines.insert(data.draw(st.integers(1, len(lines))), "")
    path = tmp_path / "f.tsv"
    bom, crlf = data.draw(st.booleans()), data.draw(st.booleans())
    path.write_bytes(_encode("\n".join(lines) + "\n", bom=bom, crlf=crlf))
    assert _outcome(read, path) == _csv_path_only(read, path)

@pytest.mark.parametrize("row", ["B\t0." + "0" * 140_000 + "1", "P" * 140_000 + "\t2"],
                         ids=["value", "id"])
def test_a_cell_over_the_csv_limit_is_refused(tmp_path, row):
    # a finite value and an id, so only the line's length can send them to csv
    path = write(tmp_path / "e.tsv", f"patient\tg1\nA\t1\n{row}\nC\t3\nD\t4\n")
    message = f"{path}: row 3: field larger than field limit (131072)"
    with pytest.raises(IngestionError, match=re.escape(message) + "$"):
        io.read_expression(path)

def test_lines_over_the_csv_limit_take_the_fast_path(tmp_path, monkeypatch, rng):
    # 40,000 genes make a 300 kB line of short cells
    io.write_matrix(tmp_path / "e.tsv", as_matrix(rng.integers(0, 9, (3, 40_000)) + 0.5))
    results = _fast_path_results(monkeypatch)
    io.read_expression(tmp_path / "e.tsv")
    assert len(results) == 1 and results[0] is not None

@pytest.mark.parametrize("table", [*TABLES, "expression"])
def test_a_byte_order_mark_is_ignored(tmp_path, table):
    # Excel's "CSV UTF-8" export starts a file with U+FEFF
    write(tmp_path / "matrix.tsv", MATRIX)
    read = io.read_expression if table == "expression" else READERS[table]
    text = MATRIX if table == "expression" else TABLES[table]
    results = []
    for name, bom in (("plain.tsv", False), ("bom.tsv", True)):
        (tmp_path / name).write_bytes(_encode(text, bom=bom))
        results.append(_outcome(read, tmp_path / name))
    assert results[0][0] == "ok"
    assert results[1] == results[0]

@pytest.mark.parametrize("text", ["g1\tg2\n", "g1\tg2\n\n\n"],
                         ids=["header-only", "blank-lines"])
def test_header_only_matrix_raises_without_a_warning(tmp_path, text):
    path = write(tmp_path / "e.tsv", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = f"{path}: no data rows below the header"
        with pytest.raises(IngestionError, match=re.escape(message) + "$"):
            io.read_expression(path)

@pytest.mark.parametrize("reader, text", [
    (io.read_expression, "g1\nA\t\nB\t\nC\t\n"),
    (io.read_covariate_long, "patient\tposition\tvalue\n\n\n"),
], ids=["expression", "covariate"])
def test_rows_loadtxt_would_skip_raise_no_warning(tmp_path, reader, text):
    # each row hands loadtxt an empty text, which it would skip with a
    # warning once no row is left
    path = write(tmp_path / "f.tsv", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(reader, path) == _csv_path_only(reader, path)


# ------------------------------------------------- table rows read in blocks

@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("table", ["annotation", "covariate"])
@settings(**oracle.CHECKS)
@given(data=st.data())
def test_any_block_size_matches_the_oracle(tmp_path, table, rows, data):
    # blocks of one or two rows put a bad float cell and a bad string cell,
    # or a short row, on either side of a block's end
    read, variants = oracle.TABLES[table]
    path = oracle._table(data, tmp_path, table, variants)
    expected = _outcome(read, path, oracle=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_BLOCK_ROWS", rows)
        assert _outcome(read, path) == expected

@pytest.mark.parametrize("rows", [1, 2, io._BLOCK_ROWS])
@pytest.mark.parametrize("above, below, message", [
    ("g2\tchr1\ty\t3", "g3\tchr1\t5\tx", "non-numeric value 'y'"),
    ("g2\tchr1\ty\t3", "g3\tchr1", "non-numeric value 'y'"),
    ("g2\tchr1\ty\t3", "g3\tchr1\tNA\t1", "non-numeric value 'y'"),
    ("g2\tchr1\t1\tx", "g3\tchr1\ty\t3", "bad end 'x'"),
], ids=["float-over-string", "float-over-short-row", "float-over-float", "string-over-float"])
def test_the_first_fault_in_file_order_is_named(tmp_path, monkeypatch, rows, above, below, message):
    monkeypatch.setattr(io, "_BLOCK_ROWS", rows)
    text = f"gene\tchromosome\tstart\tend\ng1\tchr1\t1\t2\n{above}\n{below}\n"
    path = write(tmp_path / "a.tsv", text)
    with pytest.raises(IngestionError, match=re.escape(f"{path}: row 3: {message}") + "$"):
        io.read_annotation(path)

def test_a_faulty_covariate_is_read_once(tmp_path, monkeypatch):
    paths, read_rows = [], io._read_rows
    monkeypatch.setattr(io, "_read_rows", lambda path: paths.append(path) or read_rows(path))
    path = write(tmp_path / "c.tsv", f"{COVARIATE_HEADER}\nA\tchr1\t1\t0.5\nA\tchr1\t2\tNA\n")
    with pytest.raises(MissingValues, match=re.escape(f"{path}: row 3: missing value") + "$"):
        io.read_covariate_long(path)
    assert paths == [path]
