"""File formats: expression, annotation, covariate, segmentation, regions."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrseg import io
from corrseg.errors import IngestionError, MissingValues, SchemaError
from corrseg.significance import RegionReport
from conftest import as_matrix


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


# ------------------------------------------------------------- annotation

def test_read_annotation_by_name(tmp_path):
    p = write(
        tmp_path / "a.tsv",
        "start\tgene\tchromosome\tend\n100\tgA\tchr1\t200\n300\tgB\tchr2\t\n",
    )
    ann = io.read_annotation(p)
    assert ann["gA"] == ("chr1", 100.0, 200.0)
    assert ann["gB"] == ("chr2", 300.0, None)

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
        tmp_path / "pos.tsv",
        "chromosome\tposition\nchr1\t100\nchr1\t300\nchr2\t50\n",
    )
    write(
        tmp_path / "w.tsv",
        "patient\ts1\ts2\ts3\nP1\t1\t2\t3\nP2\t4\t5\t6\nP3\t7\t8\t9\n",
    )
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


# ---------------------------------------------------------- truth and misc

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
