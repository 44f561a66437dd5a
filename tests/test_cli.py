"""End-to-end CLI tests driven through in-process main() calls.

Exit-code contract: 0 success, 2 ingestion failure (unreadable or
malformed content), 3 validation failure (readable input or flags that
violate a contract). Output files are read back through the io module,
so these tests also exercise the documented schemas round trip.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from corrseg import cli, correction, io, segment
from corrseg.cli import main
from corrseg.core import ExpressionMatrix, build_gram_prefix, standardize
from corrseg.pipeline import correct_view, segment_all, segmentation_rows, split_by_chromosome
from conftest import open_fds

FIXTURES = Path(__file__).parent / "fixtures"
TOY_EXPR = FIXTURES / "toy_expression.tsv"
TOY_ANN = FIXTURES / "toy_annotation.tsv"
# tests/fixtures/toy_* were generated by corrseg.simulate with
# ScenarioSpec(ChromosomeSpec("chr1", 60, ((15, 25), (40, 50))),
#              rho0=0.0, rho1=0.9, n=58, seed=0)
TOY_TRUTH = [(0, 15), (15, 25), (25, 40), (40, 50), (50, 60)]

fork_only = pytest.mark.skipif(sys.platform != "linux", reason="worker processes fork only on Linux")


def run_out_of_memory():
    raise MemoryError


def read_tsv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


def write_spec(path: Path, chromosomes, rho0, rho1, n, seed) -> Path:
    path.write_text(json.dumps({
        "chromosomes": chromosomes,
        "rho0": rho0,
        "rho1": rho1,
        "n": n,
        "seed": seed,
    }))
    return path


def run_pipeline(tmp, spec_payload, seed, test_args=()):
    """simulate -> segment -> test for one seed; returns the region reports."""
    work = tmp / f"seed{seed}"
    work.mkdir()
    spec = write_spec(work / "spec.json", **{**spec_payload, "seed": seed})
    assert main(["simulate", "--spec", str(spec), "--out", str(work)]) == 0
    assert main([
        "segment", "--input", str(work / "expression.tsv"),
        "--annotation", str(work / "annotation.tsv"), "--out", str(work),
    ]) == 0
    assert main([
        "test", "--input", str(work / "expression.tsv"),
        "--annotation", str(work / "annotation.tsv"),
        "--segmentation", str(work / "segmentation.tsv"),
        "--out", str(work), *test_args,
    ]) == 0
    return work, io.read_regions(work / "regions.tsv")


class TestSegmentCommand:
    def test_recovers_toy_fixture_breakpoints(self, tmp_path):
        code = main([
            "segment", "--input", str(TOY_EXPR), "--annotation", str(TOY_ANN),
            "--out", str(tmp_path),
        ])
        assert code == 0
        bounds = io.read_segmentation(tmp_path / "segmentation.tsv")
        assert {c: [(a, b) for a, b, _ in segs] for c, segs in bounds.items()} == {"chr1": TOY_TRUTH}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["command"] == "segment"
        assert "version" in manifest

    def test_matches_direct_library_calls(self, tmp_path):
        """The command is pure orchestration over the library pipeline."""
        args = {"S": 0.8, "k_max": 10, "rule": "smallest", "min_seg_len": 2}
        code = main([
            "segment", "--input", str(TOY_EXPR), "--annotation", str(TOY_ANN),
            "--S", "0.8", "--kmax", "10", "--rule", "smallest", "--min-seg", "2",
            "--out", str(tmp_path),
        ])
        assert code == 0
        matrix = io.read_expression(TOY_EXPR)
        annotation = io.read_annotation(TOY_ANN)
        results = segment_all(split_by_chromosome(matrix, annotation), **args)
        direct = tmp_path / "direct.tsv"
        io.write_segmentation(direct, segmentation_rows(results))
        assert direct.read_bytes() == (tmp_path / "segmentation.tsv").read_bytes()

    def test_single_gene_chromosome(self, tmp_path):
        rng = np.random.default_rng(3)
        matrix = ExpressionMatrix(values=rng.normal(size=(10, 4)),
                                  gene_ids=("a1", "a2", "a3", "b1"))
        io.write_matrix(tmp_path / "expr.tsv", matrix)
        io.write_rows(tmp_path / "ann.tsv", ["gene_id", "chromosome", "start", "end"],
                      [["a1", "chrA", 1, 2], ["a2", "chrA", 3, 4],
                       ["a3", "chrA", 5, 6], ["b1", "chrB", 1, 2]])
        code = main([
            "segment", "--input", str(tmp_path / "expr.tsv"),
            "--annotation", str(tmp_path / "ann.tsv"), "--trace", "--json",
            "--out", str(tmp_path),
        ])
        assert code == 0
        rows = [r for r in read_tsv(tmp_path / "segmentation.tsv")
                if r["chromosome"] == "chrB"]
        assert len(rows) == 1
        assert (int(rows[0]["start"]), int(rows[0]["end"])) == (1, 1)
        assert float(rows[0]["rho_hat"]) == 0.0
        assert json.loads((tmp_path / "trace.json").read_text())["chrB"]["chosen_K"] == 1
        # and the region is reported as untestable downstream
        code = main([
            "test", "--input", str(tmp_path / "expr.tsv"),
            "--annotation", str(tmp_path / "ann.tsv"),
            "--segmentation", str(tmp_path / "segmentation.tsv"),
            "--json", "--out", str(tmp_path),
        ])
        assert code == 0
        reports = io.read_regions(tmp_path / "regions.tsv")
        solo = [r for r in reports if r.chromosome == "chrB"]
        assert len(solo) == 1
        assert not solo[0].tested
        assert not solo[0].significant
        assert np.isnan(solo[0].p_value)
        # the JSON mirrors are strict JSON: NaN is written as null
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")
        strict = {name: json.loads((tmp_path / name).read_text(), parse_constant=reject)
                  for name in ("regions.json", "segmentation.json", "trace.json")}
        (untested,) = [r for r in strict["regions.json"] if r["chromosome"] == "chrB"]
        assert untested["p_value"] is None

    def test_empty_file_exit_2(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        code = main(["segment", "--input", str(empty), "--out", str(tmp_path)])
        assert code == 2

    def test_malformed_cells_exit_2(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("patient\tg1\tg2\nP1\t1.0\toops\nP2\t2.0\t3.0\nP3\t0.0\t1.0\n")
        code = main(["segment", "--input", str(bad), "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("cell,message", [
        ("x", "non-numeric value 'x'"),
        ("NA", "missing value"),
        ("1e400", "non-finite value '1e400'"),
    ])
    def test_bad_last_cell_named_exit_2(self, tmp_path, capsys, cell, message):
        bad = tmp_path / "bad.tsv"
        bad.write_text(f"patient\tg1\tg2\nP1\t1.0\t2.0\nP2\t2.0\t3.0\nP3\t0.0\t{cell}\n")
        code = main(["segment", "--input", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert f"{bad}: row 4, column 2: {message}\n" in capsys.readouterr().err

    def test_overlong_cell_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "long.tsv"
        bad.write_text(f"patient\tg1\tg2\nP1\t1.0\t2.0\nP2\t{'1' * 140_000}\t3.0\n"
                       "P3\t0.0\t1.0\n")
        code = main(["segment", "--input", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert (f"{bad}: row 3: field larger than field limit (131072)\n"
                in capsys.readouterr().err)

    def test_header_only_matrix_prints_one_line(self, tmp_path):
        # in a subprocess, where a warning would print to stderr
        bare = tmp_path / "bare.tsv"
        bare.write_text("patient\tg1\tg2\n")
        code = f"""if True:
            import sys
            from corrseg import cli
            sys.exit(cli.main(["segment", "--input", {str(bare)!r},
                               "--out", {str(tmp_path / "out")!r}]))
        """
        src = os.path.dirname(os.path.dirname(io.__file__))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 2
        assert run.stderr.splitlines() == [
            f"corrseg: ingestion error: {bare}: no data rows below the header"
        ]

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.tsv"
        bad.write_bytes(b"patient\tg1\tg2\nP1\t1.0\t2.0\nP\xe9\t2.0\t3.0\nP3\t0.0\t1.0\n")
        code = main(["segment", "--input", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert f"{bad}: not UTF-8 text after line 0\n" in capsys.readouterr().err

    def test_missing_input_path_exit_3(self, tmp_path):
        code = main(["segment", "--input", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path)])
        assert code == 3

    def test_unannotated_gene_named_in_error(self, tmp_path, capsys):
        rows = [r for r in read_tsv(TOY_ANN) if r["gene_id"] != "chr1_g7"]
        pruned = tmp_path / "pruned.tsv"
        io.write_rows(pruned, ["gene_id", "chromosome", "start", "end"],
                      [[r["gene_id"], r["chromosome"], r["start"], r["end"]]
                       for r in rows])
        code = main(["segment", "--input", str(TOY_EXPR),
                     "--annotation", str(pruned), "--out", str(tmp_path)])
        assert code == 3
        assert "chr1_g7" in capsys.readouterr().err

    def test_duplicate_gene_id_exit_3(self, tmp_path, capsys):
        values = np.random.default_rng(5).normal(size=(4, 4))
        wide = tmp_path / "wide.tsv"
        wide.write_text("patient\tg1\tg2\tg2\tg3\n" + "".join(
            f"P{i + 1}\t" + "\t".join(map(repr, row)) + "\n"
            for i, row in enumerate(values.tolist())))
        tall = tmp_path / "tall.tsv"
        tall.write_text("gene\tP1\tP2\tP3\tP4\n" + "".join(
            f"{gene}\t" + "\t".join(map(repr, col)) + "\n"
            for gene, col in zip(["g1", "g2", "g2", "g3"], values.T.tolist())))
        for path, extra in ((wide, []), (tall, ["--transpose"])):
            code = main(["segment", "--input", str(path), *extra,
                         "--out", str(tmp_path / "out")])
            assert code == 3
            assert "'g2'" in capsys.readouterr().err

    @pytest.mark.parametrize("level", [0.0, 0.1])
    def test_constant_gene_named_exit_3(self, tmp_path, level, capsys):
        # the mean of 58 copies of 0.1 is not 0.1, so centering leaves a
        # tiny nonzero constant; the gene must still be refused by name
        values = np.random.default_rng(8).normal(size=(58, 30))
        values[:, 7] = level
        path = tmp_path / "constant.tsv"
        path.write_text("patient\t" + "\t".join(f"g{j + 1}" for j in range(30)) + "\n" + "".join(
            f"P{i + 1}\t" + "\t".join(map(repr, row)) + "\n"
            for i, row in enumerate(values.tolist())))
        code = main(["segment", "--input", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "gene 'g8' has zero variance" in capsys.readouterr().err
        assert not (tmp_path / "out" / "segmentation.tsv").exists()

    def test_duplicate_annotation_row_exit_3(self, tmp_path, capsys):
        rows = read_tsv(TOY_ANN)
        first = next(i for i, r in enumerate(rows) if r["gene_id"] == "chr1_g3") + 2
        body = [[r["gene_id"], r["chromosome"], r["start"], r["end"]] for r in rows]
        body.append(["chr1_g3", "chr2", "500", "600"])
        dup = tmp_path / "dup.tsv"
        io.write_rows(dup, ["gene_id", "chromosome", "start", "end"], body)
        code = main(["segment", "--input", str(TOY_EXPR),
                     "--annotation", str(dup), "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "chr1_g3" in err
        assert f"rows {first} and {len(rows) + 2}" in err

    def test_annotation_end_before_start_exit_2(self, tmp_path, capsys):
        rows = read_tsv(TOY_ANN)
        body = [[r["gene_id"], r["chromosome"], r["start"], r["end"]] for r in rows]
        body[0][3] = body[0][2]  # end == start is a point gene and stays valid
        body[4][2], body[4][3] = body[4][3], body[4][2]
        ann = tmp_path / "backwards.tsv"
        io.write_rows(ann, ["gene_id", "chromosome", "start", "end"], body)
        code = main(["segment", "--input", str(TOY_EXPR),
                     "--annotation", str(ann), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{ann}: row 6: gene {body[4][0]!r} ends at" in err
        assert "before its start" in err
        body[4][2], body[4][3] = body[4][3], body[4][2]
        io.write_rows(ann, ["gene_id", "chromosome", "start", "end"], body)
        assert main(["segment", "--input", str(TOY_EXPR),
                     "--annotation", str(ann), "--out", str(tmp_path)]) == 0

    def test_bad_threshold_exit_3(self, tmp_path):
        code = main(["segment", "--input", str(TOY_EXPR), "--S", "0",
                     "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_out_of_domain_threshold_names_flag(self, tmp_path, capsys, value):
        code = main(["segment", "--input", str(TOY_EXPR), f"--S={value}",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "validation error: --S must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "segmentation.tsv").exists()

    @pytest.mark.parametrize("flag", ["--kmax", "--min-seg"])
    def test_infeasible_segment_flag_names_chromosome(self, tmp_path, capsys, flag):
        code = main(["segment", "--input", str(TOY_EXPR), "--annotation", str(TOY_ANN),
                     flag, "100", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "chromosome 'chr1'" in err
        assert "p=60" in err
        assert flag in err

    def test_outputs_do_not_depend_on_the_cpu_count(self, tmp_path, usable_cpus, monkeypatch):
        # a p = 1000 pass (100 M cells) runs in one band per usable CPU, up to 3
        spec = write_spec(tmp_path / "spec.json", [{"name": "chr1", "p": 1000,
                          "h1_blocks": [[101, 140], [601, 630]]}], 0.08, 0.7, 58, 4)
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path)]) == 0
        kernel, bands = segment._dp_kernel, []

        def counted(*args, **kwargs):
            bands.append(kwargs["bands"])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(segment, "_dp_kernel", counted)
        outputs = []
        for cpus in (1, 2, 3):
            usable_cpus(cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main(["segment", "--input", str(tmp_path / "expression.tsv"),
                         "--annotation", str(tmp_path / "annotation.tsv"),
                         "--trace", "--out", str(out)]) == 0
            outputs.append([(out / f).read_bytes() for f in ("segmentation.tsv", "trace.json")])
        assert bands == [1, 2, 3]
        assert outputs[0] == outputs[1] == outputs[2]

    @fork_only
    def test_a_dead_band_exits_1_in_one_named_line(self, tmp_path, usable_cpus, monkeypatch, capfd):
        # on two CPUs each p = 1000 pass (k_max 100) runs rows K = 1-50 and
        # 51-100 in two child bands, which here run out of memory
        assert main(["simulate", "--p", "1000", "--out", str(tmp_path)]) == 0
        usable_cpus(2)
        parent, band = os.getpid(), segment._band

        def starved(*args, **kwargs):
            if os.getpid() != parent:
                raise MemoryError
            return band(*args, **kwargs)

        monkeypatch.setattr(segment, "_band", starved)
        capfd.readouterr()
        fds = open_fds()
        assert main(["segment", "--input", str(tmp_path / "expression.tsv"),
                     "--annotation", str(tmp_path / "annotation.tsv"),
                     "--out", str(tmp_path / "seg")]) == 1
        assert capfd.readouterr().err.splitlines() == [
            "corrseg: the process filling rows K = 1-50 of a DP pass ended with exit code 1"
            " before its work was done"]
        assert multiprocessing.active_children() == []
        assert open_fds() == fds


class TestTestCommand:
    def test_unknown_chromosome_exit_3(self, tmp_path, capsys):
        io.write_segmentation(tmp_path / "seg.tsv", [
            {"chromosome": "chrZ", "segment": 1, "start": 1, "end": 60,
             "p_k": 60, "rho_hat": 0.0, "loglik": 0.0},
        ])
        code = main([
            "test", "--input", str(TOY_EXPR), "--annotation", str(TOY_ANN),
            "--segmentation", str(tmp_path / "seg.tsv"), "--out", str(tmp_path),
        ])
        assert code == 3
        assert "chrZ" in capsys.readouterr().err

    def test_runs_no_dp(self, tmp_path, monkeypatch):
        """Scoring a given segmentation needs only its K block sums, no DP."""
        segment_args = ["segment", "--input", str(TOY_EXPR), "--annotation", str(TOY_ANN)]
        assert main([*segment_args, "--out", str(tmp_path)]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("ran the segmentation DP")

        for module in (segment, correction):
            monkeypatch.setattr(module, "_dp_kernel", refuse)
        with pytest.raises(AssertionError, match="segmentation DP"):
            main([*segment_args, "--out", str(tmp_path / "refused")])
        code = main([
            "test", "--input", str(TOY_EXPR), "--annotation", str(TOY_ANN),
            "--segmentation", str(tmp_path / "segmentation.tsv"), "--out", str(tmp_path),
        ])
        assert code == 0
        reports = io.read_regions(tmp_path / "regions.tsv")
        assert [(r.start, r.end) for r in reports] == [(a + 1, b) for a, b in TOY_TRUTH]
        rows = read_tsv(tmp_path / "segmentation.tsv")
        assert [repr(r.rho_hat) for r in reports] == [row["rho_hat"] for row in rows]

    # segment -> test on two simulated chromosomes, the first with a block
    CHAIN = {"chromosomes": [{"name": "chr1", "p": 80, "h1_blocks": [[21, 40]]},
                             {"name": "chr2", "p": 40}], "rho0": 0.05, "rho1": 0.8, "n": 30}

    def _segmented(self, tmp_path):
        work = tmp_path / "chain"
        work.mkdir()
        spec = write_spec(work / "spec.json", **self.CHAIN, seed=3)
        assert main(["simulate", "--spec", str(spec), "--out", str(work)]) == 0
        inputs = ["--input", str(work / "expression.tsv"), "--annotation", str(work / "annotation.tsv")]
        assert main(["segment", *inputs, "--out", str(work)]) == 0
        return work, inputs

    @staticmethod
    def _regions(inputs, segmentation, out) -> bytes:
        assert main(["test", *inputs, "--segmentation", str(segmentation), "--out", str(out)]) == 0
        return (out / "regions.tsv").read_bytes()

    def test_builds_no_gram_prefix(self, tmp_path, monkeypatch):
        """The regions are those of the segmentation's prefix block sums,
        with no Gram product: test reuses the rho_hat segment wrote."""
        work, inputs = self._segmented(tmp_path)
        seg = work / "segmentation.tsv"
        with monkeypatch.context() as m:
            m.setattr(cli, "segmentation_of", lambda std, bps, rho=None:
                      segment.segmentation_from_breakpoints(build_gram_prefix(std), std.n, bps))
            expected = self._regions(inputs, seg, tmp_path / "prefix")

        def refuse(*args, **kwargs):
            raise AssertionError("built a Gram prefix")

        for target in ("corrseg.core.build_gram_prefix", "corrseg.segment.build_gram_prefix", "numpy.matmul"):
            monkeypatch.setattr(target, refuse)
        assert self._regions(inputs, seg, tmp_path / "bare") == expected

    def test_shuffled_segmentation_rows_change_no_byte(self, tmp_path):
        work, inputs = self._segmented(tmp_path)
        header, *rows = (work / "segmentation.tsv").read_text().splitlines(keepends=True)
        shuffled = tmp_path / "shuffled.tsv"
        shuffled.write_text(header + "".join(rows[::-1][1::2] + rows[::-1][::2]))
        assert shuffled.read_text() != (work / "segmentation.tsv").read_text()
        assert (self._regions(inputs, shuffled, tmp_path / "shuffled")
                == self._regions(inputs, work / "segmentation.tsv", tmp_path / "plain"))

    @pytest.mark.parametrize("edit", ["drop column", "nudge one"])
    def test_unmatched_rho_hat_reports_the_row_sum_estimate(self, tmp_path, edit):
        work, inputs = self._segmented(tmp_path)
        rows = read_tsv(work / "segmentation.tsv")
        nudged = next(k for k, row in enumerate(rows) if int(row["p_k"]) > 2)
        if edit == "drop column":
            for row in rows:
                del row["rho_hat"]
        else:
            rows[nudged]["rho_hat"] = repr(float(rows[nudged]["rho_hat"]) + 1e-6)
        io.write_rows(tmp_path / "edited.tsv", list(rows[0]), [list(row.values()) for row in rows])
        self._regions(inputs, work / "segmentation.tsv", tmp_path / "full")
        self._regions(inputs, tmp_path / "edited.tsv", tmp_path / "edited")
        full = read_tsv(tmp_path / "full" / "regions.tsv")
        edited = read_tsv(tmp_path / "edited" / "regions.tsv")
        matrix = io.read_expression(work / "expression.tsv")
        views = {v.name: standardize(v.matrix) for v in
                 split_by_chromosome(matrix, io.read_annotation(work / "annotation.tsv"))}
        for k, (row, want, got) in enumerate(zip(rows, full, edited)):
            assert {c: v for c, v in got.items() if c != "rho_hat"} == {
                c: v for c, v in want.items() if c != "rho_hat"}
            if edit == "nudge one" and k != nudged:
                assert got["rho_hat"] == row["rho_hat"]
                continue
            a, b, n = int(row["start"]) - 1, int(row["end"]), matrix.n
            block = views[row["chromosome"]].values[:, a:b]
            S = math.fsum(math.fsum(patient) ** 2 for patient in block) / n
            oracle = 0.0 if b - a == 1 else (S - (b - a)) / ((b - a) ** 2 - (b - a))
            assert abs(float(got["rho_hat"]) - oracle) <= 1e-12
        if edit == "nudge one":
            assert edited[nudged]["rho_hat"] != rows[nudged]["rho_hat"]

    def test_non_numeric_rho_hat_named_exit_2(self, tmp_path, capsys):
        seg = tmp_path / "seg.tsv"
        io.write_rows(seg, ["chromosome", "start", "end", "rho_hat"],
                      [["chr1", 1, 30, 0.5], ["chr1", 31, 60, "high"]])
        code = main([
            "test", "--input", str(TOY_EXPR), "--annotation", str(TOY_ANN),
            "--segmentation", str(seg), "--out", str(tmp_path),
        ])
        assert code == 2
        assert f"{seg}: row 3: rho_hat: non-numeric value 'high'" in capsys.readouterr().err

    def test_segmentation_row_without_chromosome_exit_3(self, tmp_path, capsys):
        seg = tmp_path / "seg.tsv"
        seg.write_text("start\tend\tchromosome\n3\t4\n")
        code = main([
            "test", "--input", str(TOY_EXPR), "--annotation", str(TOY_ANN),
            "--segmentation", str(seg), "--out", str(tmp_path),
        ])
        assert code == 3
        assert f"{seg}: row 2: too few fields" in capsys.readouterr().err

    def test_gapped_segmentation_exit_3(self, tmp_path):
        io.write_rows(tmp_path / "seg.tsv",
                      ["chromosome", "segment", "start", "end", "p_k", "rho_hat", "loglik"],
                      [["chr1", 1, 1, 20, 20, 0.1, 0.0],
                       ["chr1", 2, 25, 60, 36, 0.1, 0.0]])
        code = main([
            "test", "--input", str(TOY_EXPR), "--annotation", str(TOY_ANN),
            "--segmentation", str(tmp_path / "seg.tsv"), "--out", str(tmp_path),
        ])
        assert code == 3

    def test_short_segmentation_names_chromosome(self, tmp_path, capsys):
        io.write_rows(tmp_path / "seg.tsv", ["chromosome", "start", "end"],
                      [["chr1", 1, 20], ["chr1", 21, 50]])
        code = main([
            "test", "--input", str(TOY_EXPR), "--annotation", str(TOY_ANN),
            "--segmentation", str(tmp_path / "seg.tsv"), "--out", str(tmp_path),
        ])
        assert code == 3
        assert ("chromosome 'chr1': segmentation covers genes 1-50, expected 1-60\n"
                in capsys.readouterr().err)
        io.write_rows(tmp_path / "late.tsv", ["chromosome", "start", "end"],
                      [["chr1", 2, 20], ["chr1", 21, 60]])
        code = main([
            "test", "--input", str(TOY_EXPR), "--annotation", str(TOY_ANN),
            "--segmentation", str(tmp_path / "late.tsv"), "--out", str(tmp_path),
        ])
        assert code == 3
        assert ("chromosome 'chr1': segmentation covers genes 2-60, expected 1-60\n"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("rho0, source", [
        (None, "rho0 was estimated; pass rho0 (--rho0) to set it"),
        ("1.5", "rho0 was given"),
        ("-0.9", "rho0 was given"),  # admissible at width 2, not at width 3
    ], ids=["estimated", "given-above", "given-below"])
    def test_inadmissible_rho0_names_region(self, tmp_path, capsys, rho0, source):
        # six multiples of one +-1 patient factor: every adjacent r is exactly 1
        b = np.tile([1.0, -1.0], 10)[:, None]
        genes = tuple(f"g{j + 1}" for j in range(6))
        io.write_matrix(tmp_path / "expr.tsv", ExpressionMatrix(
            values=b * np.arange(1.0, 7.0), gene_ids=genes,
            patient_ids=tuple(f"P{i + 1}" for i in range(20))))
        io.write_rows(tmp_path / "ann.tsv", ["gene", "chromosome", "start"],
                      [[g, "chr7", 100 * j] for j, g in enumerate(genes)])
        io.write_rows(tmp_path / "seg.tsv", ["chromosome", "start", "end"],
                      [["chr7", 1, 3], ["chr7", 4, 6]])
        code = main([
            "test", "--input", str(tmp_path / "expr.tsv"),
            "--annotation", str(tmp_path / "ann.tsv"),
            "--segmentation", str(tmp_path / "seg.tsv"), "--out", str(tmp_path / "out"),
            *([] if rho0 is None else ["--rho0", rho0]),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "chromosome 'chr7', region 1-3: rho0=" in err
        assert "outside (-0.5, 1) for region width 3" in err
        assert err.endswith(f"; {source}\n")

    def test_null_fixture_calibration(self, tmp_path):
        """No H1 blocks: few regions should be flagged at alpha = 0.05."""
        spec_payload = {
            "chromosomes": [{"name": "chr1", "p": 100}, {"name": "chr2", "p": 100}],
            "rho0": 0.08, "rho1": 0.7, "n": 58,
        }
        flagged = total = 0
        for seed in range(20):
            _, reports = run_pipeline(tmp_path, spec_payload, seed)
            total += len(reports)
            flagged += sum(r.significant for r in reports)
        assert total >= 40
        assert flagged / total <= 0.05

    def test_strong_block_flagged(self, tmp_path):
        """A width-5 rho1 = 0.9 block at n = 58 is essentially always found."""
        spec_payload = {
            "chromosomes": [{"name": "chr1", "p": 60, "h1_blocks": [[21, 25]]}],
            "rho0": 0.08, "rho1": 0.9, "n": 58,
        }
        hits = 0
        for seed in range(20):
            _, reports = run_pipeline(tmp_path, spec_payload, seed)
            for r in reports:
                if r.significant and r.start <= 25 and r.end >= 21 and r.p_value < 1e-6:
                    hits += 1
                    break
        assert hits >= 19

    def test_rho0_override_silences_everything(self, tmp_path):
        spec_payload = {
            "chromosomes": [{"name": "chr1", "p": 60, "h1_blocks": [[21, 25]]}],
            "rho0": 0.08, "rho1": 0.9, "n": 58,
        }
        _, reports = run_pipeline(tmp_path, spec_payload, 0,
                                  test_args=("--rho0", "0.99"))
        assert all(not r.significant for r in reports)

    def test_json_mirror(self, tmp_path):
        work, reports = run_pipeline(tmp_path, {
            "chromosomes": [{"name": "chr1", "p": 30}],
            "rho0": 0.05, "rho1": 0.7, "n": 20,
        }, 1, test_args=("--json",))
        mirrored = json.loads((work / "regions.json").read_text())
        assert len(mirrored) == len(reports)
        assert {row["chromosome"] for row in mirrored} == {"chr1"}


class TestCorrectCommand:
    def _toy_inputs(self, tmp_path, step=False):
        """Expression driven by a per-patient covariate level.

        Covariate series are exactly piecewise constant, so the fitted
        track reproduces them and the aligned value per gene is known in
        closed form. Returns (expr_path, ann_path, cov_path, x, Y).
        """
        rng = np.random.default_rng(11)
        patients = [f"P{i + 1}" for i in range(4)]
        p = 6
        positions = [5 * j + 1 for j in range(p)]  # gene j spans [5j+1, 5j+5]
        rows = []
        if step:
            # 30 probes, level jumps from 0 to 5 after probe 15
            probe_pos = np.arange(1.0, 31.0)
            level = lambda i: np.where(probe_pos <= 15, 0.0, 5.0)
            x = np.tile(np.where(np.array(positions) + 2 <= 15, 0.0, 5.0), (4, 1))
        else:
            probe_pos = np.arange(1.0, 31.0)
            levels = np.array([1.0, 2.0, 4.0, 7.0])
            level = lambda i: np.full(30, levels[i])
            x = np.tile(levels[:, None], (1, p))
        for i, patient in enumerate(patients):
            for pos, val in zip(probe_pos, level(i)):
                rows.append([patient, "chr1", pos, val])
        cov = tmp_path / "covariate.tsv"
        io.write_rows(cov, ["patient", "chromosome", "position", "value"], rows)
        Y = 2.0 + 3.0 * x + 0.3 * rng.normal(size=(4, p))
        expr = tmp_path / "expr.tsv"
        io.write_matrix(expr, ExpressionMatrix(
            values=Y, gene_ids=tuple(f"g{j + 1}" for j in range(p)),
            patient_ids=tuple(patients)))
        ann = tmp_path / "ann.tsv"
        io.write_rows(ann, ["gene_id", "chromosome", "start", "end"],
                      [[f"g{j + 1}", "chr1", positions[j], positions[j] + 4]
                       for j in range(p)])
        return expr, ann, cov, x, Y

    def test_sidecar_betas_match_ols(self, tmp_path):
        expr, ann, cov, x, Y = self._toy_inputs(tmp_path)
        code = main([
            "correct", "--input", str(expr), "--annotation", str(ann),
            "--covariate", str(cov), "--out", str(tmp_path),
        ])
        assert code == 0
        sidecar = json.loads((tmp_path / "correction.json").read_text())
        beta = sidecar["chr1"]["beta"]
        A = np.column_stack([np.ones(x.size), x.ravel()])
        expected = np.linalg.solve(A.T @ A, A.T @ Y.ravel())
        assert beta == pytest.approx(list(expected), abs=1e-9)
        corrected = io.read_expression(tmp_path / "corrected.tsv")
        resid = (Y.ravel() - A @ expected).reshape(Y.shape)
        assert corrected.values == pytest.approx(resid, abs=1e-9)

    def test_per_gene_matches_direct_library_calls(self, tmp_path):
        expr, ann, cov, _, _ = self._toy_inputs(tmp_path)
        code = main([
            "correct", "--input", str(expr), "--annotation", str(ann),
            "--covariate", str(cov), "--mode", "per-gene", "--out", str(tmp_path),
        ])
        assert code == 0
        matrix = io.read_expression(expr)
        [view] = split_by_chromosome(matrix, io.read_annotation(ann))
        corrected, info = correct_view(view, io.read_covariate_long(cov)["chr1"], mode="per-gene")
        values = np.array(matrix.values, copy=True)
        values[:, view.columns] = corrected.values
        io.write_matrix(tmp_path / "direct.tsv", replace(matrix, values=values))
        io.write_json(tmp_path / "direct.json", {"chr1": info})
        for direct, written in (("direct.tsv", "corrected.tsv"), ("direct.json", "correction.json")):
            assert (tmp_path / direct).read_bytes() == (tmp_path / written).read_bytes()
        sidecar = json.loads((tmp_path / "correction.json").read_text())["chr1"]
        assert sidecar["mode"] == "per-gene"
        assert len(sidecar["beta"]) == matrix.p
        assert all(len(beta) == 2 for beta in sidecar["beta"])

    @fork_only
    @pytest.mark.parametrize("end, how", [
        (lambda: os._exit(7), "exit code 7"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
        (run_out_of_memory, "exit code 1"),
    ], ids=["exit", "kill", "raise"])
    def test_a_dead_fit_worker_exits_1_in_one_named_line(
        self, tmp_path, usable_cpus, monkeypatch, capfd, end, how
    ):
        # one series per batch, on two CPUs: each worker holds two of the
        # four patients' series, and the line names what the first one held
        # and how it ended
        expr, ann, cov, _, _ = self._toy_inputs(tmp_path)
        usable_cpus(2)
        monkeypatch.setattr(correction, "BATCH_POINTS", 1)
        monkeypatch.setattr(segment, "WORKER_CELLS", 1)
        parent, kernel = os.getpid(), correction._dp_kernel

        def ending(*args):
            if os.getpid() != parent:
                end()
            return kernel(*args)

        monkeypatch.setattr(correction, "_dp_kernel", ending)
        capfd.readouterr()
        fds = open_fds()
        assert main(["correct", "--input", str(expr), "--annotation", str(ann),
                     "--covariate", str(cov), "--out", str(tmp_path / "out")]) == 1
        assert capfd.readouterr().err.splitlines() == [
            f"corrseg: the process fitting 2 covariate series (patient 'P1' first) ended with {how}"
            " before its work was done"]
        assert multiprocessing.active_children() == []
        assert open_fds() == fds

    def test_step_breakpoint_in_sidecar(self, tmp_path):
        expr, ann, cov, _, _ = self._toy_inputs(tmp_path, step=True)
        code = main([
            "correct", "--input", str(expr), "--annotation", str(ann),
            "--covariate", str(cov), "--out", str(tmp_path),
        ])
        assert code == 0
        sidecar = json.loads((tmp_path / "correction.json").read_text())
        for patient, bps in sidecar["chr1"]["covariate_breakpoints"].items():
            assert bps[0] == 0 and bps[-1] == 30
            assert len(bps) == 3, f"{patient}: expected one interior breakpoint"
            assert abs(bps[1] - 15) <= 2

    @pytest.mark.parametrize("cell,message", [
        ("x", "non-numeric value 'x'"),
        ("", "missing value"),
        ("-inf", "non-finite value '-inf'"),
    ])
    def test_bad_last_covariate_cell_named_exit_2(self, tmp_path, capsys, cell, message):
        expr, ann, cov, _, _ = self._toy_inputs(tmp_path)
        lines = cov.read_text().splitlines()
        lines[-1] = lines[-1].rsplit("\t", 1)[0] + "\t" + cell
        cov.write_text("\n".join(lines) + "\n")
        code = main([
            "correct", "--input", str(expr), "--annotation", str(ann),
            "--covariate", str(cov), "--out", str(tmp_path),
        ])
        assert code == 2
        assert f"{cov}: row {len(lines)}: {message}\n" in capsys.readouterr().err

    def test_non_utf8_covariate_exit_2(self, tmp_path, capsys):
        expr, ann, cov, _, _ = self._toy_inputs(tmp_path)
        cov.write_bytes(cov.read_bytes().replace(b"P2", b"P\xff", 1))
        code = main([
            "correct", "--input", str(expr), "--annotation", str(ann),
            "--covariate", str(cov), "--out", str(tmp_path),
        ])
        assert code == 2
        assert f"{cov}: not UTF-8 text after line 0\n" in capsys.readouterr().err

    def test_covariate_row_without_chromosome_exit_2(self, tmp_path, capsys):
        expr, ann, _, _, _ = self._toy_inputs(tmp_path)
        rows = [[f"P{i + 1}", float(pos), 1.0, "chr1"] for i in range(4) for pos in range(1, 31)]
        rows[-1] = rows[-1][:3]
        cov = tmp_path / "late_chromosome.tsv"
        io.write_rows(cov, ["patient", "position", "value", "chromosome"], rows)
        code = main([
            "correct", "--input", str(expr), "--annotation", str(ann),
            "--covariate", str(cov), "--out", str(tmp_path),
        ])
        assert code == 2
        assert f"{cov}: row {len(rows) + 1}: too few fields" in capsys.readouterr().err

    def test_short_positions_row_exit_2(self, tmp_path, capsys):
        expr, ann, _, _, _ = self._toy_inputs(tmp_path)
        wide = tmp_path / "wide.tsv"
        io.write_matrix(wide, ExpressionMatrix(
            values=np.arange(12.0).reshape(4, 3), gene_ids=("q1", "q2", "q3"),
            patient_ids=("P1", "P2", "P3", "P4")))
        positions = tmp_path / "positions.tsv"
        positions.write_text("chromosome\tposition\nchr1\t1\nchr1\t2\nchr1\n")
        code = main([
            "correct", "--input", str(expr), "--annotation", str(ann),
            "--covariate", str(wide), "--covariate-positions", str(positions),
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert f"{positions}: row 4: too few fields" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["segment", "correct"])
    def test_repeated_patient_id_exit_3(self, tmp_path, capsys, command):
        expr, ann, cov, _, _ = self._toy_inputs(tmp_path)
        lines = expr.read_text().splitlines()
        lines.append("P1\t" + "\t".join(str(j + 0.5) for j in range(6)))
        expr.write_text("\n".join(lines) + "\n")
        extra = ["--covariate", str(cov)] if command == "correct" else []
        code = main([command, "--input", str(expr), "--annotation", str(ann), *extra,
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert f"{expr}: patient id 'P1' appears more than once\n" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-5000", "nan", "inf"])
    def test_out_of_domain_half_width_names_flag(self, tmp_path, capsys, value):
        expr, ann, cov, _, _ = self._toy_inputs(tmp_path)
        code = main([
            "correct", "--input", str(expr), "--annotation", str(ann),
            "--covariate", str(cov), f"--half-width={value}", "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "validation error: --half-width must be finite and >= 0" in err
        assert not (tmp_path / "out").exists()

    def test_one_probe_patient_names_chromosome(self, tmp_path, capsys):
        expr, ann, _, _, _ = self._toy_inputs(tmp_path)
        rows = [[patient, "chr1", float(pos), 1.0]
                for patient in ["P1", "P2", "P3", "P4"] for pos in range(1, 31)]
        del rows[1:30]  # P1 keeps one probe
        cov = tmp_path / "one_probe.tsv"
        io.write_rows(cov, ["patient", "chromosome", "position", "value"], rows)
        code = main([
            "correct", "--input", str(expr), "--annotation", str(ann),
            "--covariate", str(cov), "--out", str(tmp_path),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "corrseg: validation error: patient 'P1' has fewer than 2 covariate probes"
            " on chromosome 'chr1'\n"
        )

    def test_patient_mismatch_exit_3(self, tmp_path, capsys):
        expr, ann, _, _, _ = self._toy_inputs(tmp_path)
        rows = []
        for patient in ["P1", "P2", "P3", "P999"]:  # P4 missing, P999 extra
            for pos in range(1, 31):
                rows.append([patient, "chr1", float(pos), 1.0])
        cov = tmp_path / "mismatched.tsv"
        io.write_rows(cov, ["patient", "chromosome", "position", "value"], rows)
        code = main([
            "correct", "--input", str(expr), "--annotation", str(ann),
            "--covariate", str(cov), "--out", str(tmp_path),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "P4" in err and "P999" in err


class TestSimulateCommand:
    def test_default_run_byte_identical_and_fast(self, tmp_path, monkeypatch):
        elapsed = []
        digests = []
        for sub in ("a", "b"):
            work = tmp_path / sub
            work.mkdir()
            monkeypatch.chdir(work)
            t0 = time.monotonic()
            assert main(["simulate", "--seed", "7", "--out", "run"]) == 0
            elapsed.append(time.monotonic() - t0)
            digests.append({
                name: (work / "run" / name).read_bytes()
                for name in ("expression.tsv", "annotation.tsv", "truth.tsv",
                             "manifest.json")
            })
        assert digests[0] == digests[1]
        assert max(elapsed) < 600.0
        truth = io.read_truth(tmp_path / "a" / "run" / "truth.tsv")
        assert sorted(truth) == [f"chr{i}" for i in range(1, 6)]
        assert all(len(v) == 500 for v in truth.values())

    def test_spec_file_overrides_flags(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json",
                          [{"name": "only", "p": 12, "h1_blocks": [[3, 7]]}],
                          0.1, 0.8, 25, 5)
        assert main(["simulate", "--spec", str(spec), "--n", "999",
                     "--out", str(tmp_path)]) == 0
        matrix = io.read_expression(tmp_path / "expression.tsv")
        assert matrix.values.shape == (25, 12)
        truth = io.read_truth(tmp_path / "truth.tsv")
        assert list(truth) == ["only"]
        assert truth["only"].sum() == 5

    def test_unreadable_spec_exit_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("{not json")
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path)]) == 2

    def test_invalid_spec_exit_3(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json",
                          [{"name": "c", "p": 10, "h1_blocks": [[2, 4], [3, 6]]}],
                          0.1, 0.8, 25, 5)
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("chromosomes, message", [
        ([], "need at least one chromosome"),
        ([{"name": "c", "p": 12}, {"name": "d", "p": 12}, {"name": "c", "p": 8}],
         "chromosome 'c' is listed more than once"),
    ], ids=["none", "repeated"])
    def test_spec_chromosomes_named_exit_3(self, tmp_path, capsys, chromosomes, message):
        spec = write_spec(tmp_path / "spec.json", chromosomes, 0.1, 0.8, 25, 5)
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"corrseg: validation error: bad scenario spec {spec}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_invalid_rho0_flag_exit_3(self, tmp_path):
        assert main(["simulate", "--rho0", "1.5", "--out", str(tmp_path)]) == 3

    def test_nan_rho1_named_as_not_finite(self, tmp_path, capsys):
        # NaN fails every comparison, so no bound check may speak for it
        assert main(["simulate", "--p", "150", "--rho1", "nan", "--out", str(tmp_path)]) == 3
        assert "rho1=nan must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "scenario 2", "spec"])
    def test_negative_seed_named_exit_3(self, tmp_path, capsys, source):
        # numpy's generators reject a negative seed with a message naming no seed
        argv = {
            "flag": ["--p", "150", "--seed", "-1"],
            "scenario 2": ["--p", "150", "--scenario", "2", "--seed", "-1"],
            "spec": ["--spec", str(write_spec(tmp_path / "spec.json",
                                              [{"name": "c", "p": 12}], 0.1, 0.8, 25, -1))],
        }[source]
        assert main(["simulate", *argv, "--out", str(tmp_path)]) == 3
        assert "seed=-1 must be >= 0" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_scores_a_detected_block(self, tmp_path):
        spec_payload = {
            "chromosomes": [{"name": "chr1", "p": 60, "h1_blocks": [[21, 25]]}],
            "rho0": 0.08, "rho1": 0.9, "n": 58,
        }
        work, _ = run_pipeline(tmp_path, spec_payload, 0)
        code = main([
            "evaluate", "--truth", str(work / "truth.tsv"),
            "--regions", str(work / "regions.tsv"), "--out", str(work),
        ])
        assert code == 0
        aucs = {row["level"]: float(row["auc"]) for row in read_tsv(work / "auc.tsv")}
        assert set(aucs) == {"gene", "region"}
        assert 0.0 <= aucs["region"] <= 1.0
        assert aucs["gene"] >= 0.8
        for level in ("gene", "region"):
            rows = read_tsv(work / f"roc_{level}.tsv")
            assert rows, f"empty roc_{level}.tsv"
            for row in rows:
                assert 0.0 <= float(row["tpr"]) <= 1.0
                assert 0.0 <= float(row["fpr"]) <= 1.0

    @pytest.mark.parametrize("name, truth, regions, row", [
        ("truth", "gene\tchromosome\tlabel\nchr1_g1\tchr1\tH0\nchr1_g2\n",
         "chromosome\tstart\tend\tp_value\nchr1\t1\t2\t0.5\n", 3),
        ("regions", "gene\tchromosome\tlabel\nchr1_g1\tchr1\tH0\n",
         "start\tend\tp_value\tchromosome\n1\t5\t0.01\n", 2),
    ], ids=["truth", "regions"])
    def test_short_row_exit_3(self, tmp_path, capsys, name, truth, regions, row):
        files = {"truth": tmp_path / "truth.tsv", "regions": tmp_path / "regions.tsv"}
        files["truth"].write_text(truth)
        files["regions"].write_text(regions)
        code = main([
            "evaluate", "--truth", str(files["truth"]),
            "--regions", str(files["regions"]), "--out", str(tmp_path),
        ])
        assert code == 3
        assert f"{files[name]}: row {row}: too few fields" in capsys.readouterr().err

    def test_truth_out_of_gene_order_exit_3(self, tmp_path, capsys):
        # truth rows re-sorted by gene id as text: read in row order, their
        # flags would score the wrong genes (gene AUC 0.491 -> 0.341 here)
        assert main(["simulate", "--p", "150", "--seed", "3", "--out", str(tmp_path)]) == 0
        common = ["--input", str(tmp_path / "expression.tsv"),
                  "--annotation", str(tmp_path / "annotation.tsv"), "--out", str(tmp_path)]
        assert main(["segment", *common]) == 0
        assert main(["test", *common, "--segmentation", str(tmp_path / "segmentation.tsv")]) == 0
        truth = tmp_path / "truth.tsv"
        header, *rows = truth.read_text().splitlines(keepends=True)
        truth.write_text(header + "".join(sorted(rows, key=lambda row: row.split("\t")[0])))
        capsys.readouterr()
        assert main(["evaluate", "--truth", str(truth), "--regions", str(tmp_path / "regions.tsv"),
                     "--out", str(tmp_path / "eval")]) == 3
        assert capsys.readouterr().err == (
            f"corrseg: validation error: {truth}: row 14: gene 'chr1_g11' does not follow"
            " 'chr1_g109' on chr1; truth rows must list a chromosome's genes in order\n")

    def test_header_only_truth_exit_3(self, tmp_path, capsys):
        truth = tmp_path / "truth.tsv"
        truth.write_text("gene\tchromosome\tlabel\n")
        regions = tmp_path / "regions.tsv"
        regions.write_text("chromosome\tstart\tend\tp_value\n")
        code = main(["evaluate", "--truth", str(truth), "--regions", str(regions),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == (
            "corrseg: validation error: gene-level ROC needs both H0 and H1 genes in the truth\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("column", ["rho_hat", "rho0", "T_obs", "lambda0", "p_adjusted"])
    def test_bad_float_cell_exit_3(self, tmp_path, capsys, column):
        truth = tmp_path / "truth.tsv"
        truth.write_text("gene\tchromosome\tlabel\nchr1_g1\tchr1\tH0\nchr1_g2\tchr1\tH1\n")
        regions = tmp_path / "regions.tsv"
        regions.write_text(f"chromosome\tstart\tend\tp_value\t{column}\nchr1\t1\t2\t0.5\tabc\n")
        code = main(["evaluate", "--truth", str(truth), "--regions", str(regions),
                     "--out", str(tmp_path)])
        assert code == 3
        assert f"{regions}: row 2: bad {column} 'abc'\n" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds, message", [
        ([(1, 3, 0.5), (3, 1, 0.01)], "region 3-1 on chr1: bounds must satisfy 1 <= start"),
        ([(1, 3, 0.5), (2, 2, 0.01)], "region 2-2 on chr1 overlaps another region"),
        ([(0, 3, 0.5)], "region 0-3 on chr1: bounds must satisfy 1 <= start <= end <= 3"),
        ([(1, 1, 0.5), (3, 3, 0.01)], "gene 2 on chr1 is in no region"),
    ], ids=["backwards", "overlap", "zero-start", "uncovered"])
    def test_region_bounds_checked_exit_3(self, tmp_path, capsys, bounds, message):
        truth = tmp_path / "truth.tsv"
        truth.write_text("gene\tchromosome\tlabel\n"
                         "g1\tchr1\tH0\ng2\tchr1\tH1\ng3\tchr1\tH0\n")
        regions = tmp_path / "regions.tsv"
        regions.write_text("chromosome\tstart\tend\tp_value\n" + "".join(
            f"chr1\t{a}\t{b}\t{p}\n" for a, b, p in bounds))
        code = main(["evaluate", "--truth", str(truth), "--regions", str(regions),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert f"validation error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("p_value", ["1.5", "-3", "NA"])
    def test_impossible_p_value_named_exit_3(self, tmp_path, capsys, p_value):
        # read_regions keeps any float; a tested region's p-value must be one
        truth = tmp_path / "truth.tsv"
        truth.write_text("gene\tchromosome\tlabel\nchr1_g1\tchr1\tH0\nchr1_g2\tchr1\tH1\n")
        regions = tmp_path / "regions.tsv"
        regions.write_text("chromosome\tstart\tend\tp_value\ttested\n"
                           f"chr1\t1\t1\t{p_value}\ttrue\nchr1\t2\t2\t0.01\ttrue\n")
        code = main(["evaluate", "--truth", str(truth), "--regions", str(regions),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "region 1-1 on chr1: p_value" in (err := capsys.readouterr().err)
        assert "outside [0, 1]" in err
        assert not (tmp_path / "out").exists()


class TestPowerCommand:
    def test_null_row_equals_alpha(self, tmp_path):
        code = main(["power", "--n", "58", "--p", "5", "--rho", "0.15",
                     "--rho0", "0.15", "--alpha", "0.05", "--out", str(tmp_path)])
        assert code == 0
        rows = read_tsv(tmp_path / "power.tsv")
        assert len(rows) == 1
        assert rows[0]["n"] == "58" and rows[0]["p"] == "5"
        assert float(rows[0]["power"]) == pytest.approx(0.05, abs=1e-9)

    def test_default_grid(self, tmp_path):
        code = main(["power", "--out", str(tmp_path)])
        assert code == 0
        rows = read_tsv(tmp_path / "power.tsv")
        # 4 cohort sizes x 4 widths x 8 correlations x 3 levels
        assert len(rows) == 4 * 4 * 8 * 3
        table = {
            (int(r["n"]), int(r["p"]), float(r["rho"]), float(r["alpha"])):
            float(r["power"])
            for r in rows
        }
        assert all(0.0 <= v <= 1.0 for v in table.values())
        for n_lo, n_hi in [(10, 50), (50, 200), (200, 1000)]:
            assert table[(n_hi, 5, 0.4, 0.05)] >= table[(n_lo, 5, 0.4, 0.05)]
        assert table[(50, 5, 0.6, 0.05)] >= table[(50, 5, 0.3, 0.05)]
        assert table[(50, 20, 0.4, 0.05)] >= table[(50, 3, 0.4, 0.05)]

    def test_bad_grid_exit_3(self, tmp_path):
        assert main(["power", "--n", "10,teapot", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("flag, grid, first_bad", [
        ("--n", "1", "1"),
        ("--n", "0,5", "0"),
        ("--p", "0", "0"),
        ("--alpha", "0", "0.0"),
        ("--alpha", "0.05,1.5", "1.5"),
        ("--rho", "1.5", "1.5"),
        ("--rho0", "1.5", "1.5"),
    ])
    def test_out_of_domain_grid_exit_3(self, tmp_path, capsys, flag, grid, first_bad):
        assert main(["power", flag, grid, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"validation error: {flag} values must " in err
        assert err.endswith(f", got {first_bad}\n")
        assert not (tmp_path / "power.tsv").exists()


def test_an_interrupt_exits_130_in_one_line(tmp_path):
    # Ctrl-C while the input is read; in a subprocess, so that the interrupt
    # cannot reach the test process
    code = f"""if True:
        import sys
        from corrseg import cli, io

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        io.read_expression = interrupted
        sys.exit(cli.main(["segment", "--input", {str(TOY_EXPR)!r}, "--annotation", {str(TOY_ANN)!r},
                           "--out", {str(tmp_path)!r}]))
    """
    src = os.path.dirname(os.path.dirname(io.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert (run.returncode, run.stderr.splitlines()) == (130, ["corrseg: interrupted"])

def test_byte_order_marks_change_no_output(tmp_path):
    # Excel's "CSV UTF-8" export starts a file with U+FEFF
    plain, marked = tmp_path / "plain", tmp_path / "bom"
    assert main(["simulate", "--p", "150", "--seed", "2", "--out", str(plain)]) == 0
    marked.mkdir()
    for name in ("expression.tsv", "annotation.tsv", "truth.tsv"):
        (marked / name).write_bytes("\ufeff".encode() + (plain / name).read_bytes())
    for work in (plain, marked):
        inputs = ["--input", str(work / "expression.tsv"),
                  "--annotation", str(work / "annotation.tsv")]
        assert main(["segment", *inputs, "--trace", "--out", str(work / "segment")]) == 0
        assert main(["test", *inputs, "--segmentation", str(work / "segment" / "segmentation.tsv"),
                     "--out", str(work / "test")]) == 0
        assert main(["evaluate", "--truth", str(work / "truth.tsv"), "--regions",
                     str(work / "test" / "regions.tsv"), "--out", str(work / "evaluate")]) == 0
    outputs = ("segment/segmentation.tsv", "segment/trace.json", "test/regions.tsv", "evaluate/auc.tsv")
    for name in outputs:
        assert (marked / name).read_bytes() == (plain / name).read_bytes(), name

def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "corrseg" in capsys.readouterr().out


@pytest.mark.parametrize("argv, flag", [
    (["segment", "--input", str(TOY_EXPR), "--rule", "bogus"], "--rule"),
    (["test", "--input", str(TOY_EXPR), "--segmentation", "s.tsv", "--adjust", "bogus"],
     "--adjust"),
    (["correct", "--input", str(TOY_EXPR), "--covariate", "c.tsv", "--mode", "bogus"],
     "--mode"),
    (["simulate", "--scenario", "9"], "--scenario"),
], ids=["rule", "adjust", "mode", "scenario"])
def test_bad_choice_flag_exits_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--p", "150"],
    ["correct", "--input", str(TOY_EXPR), "--covariate", "c.tsv"],
    ["power", "--n", "10", "--p", "3", "--rho", "0.5", "--alpha", "0.05"],
], ids=["simulate", "correct", "power"])
def test_json_only_where_a_mirror_is_written(tmp_path, capsys, argv):
    # these commands write no JSON mirror, so the flag is unknown to them
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--json", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
