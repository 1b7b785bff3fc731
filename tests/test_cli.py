import errno
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fdb import applications, cli, depth, evaluation
from fdb.cli import InputError, main
from fdb.errors import InvalidConfig
from fdb.estimators import EstimatorConfig, fdb_estimate
from oracles import read_matrix_csv_reference

CROSS_CSV = "1,0\n-1,0\n0,1\n0,-1\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def mask_timing(text: str) -> str:
    return re.sub(r'"elapsed_seconds": [0-9eE+.-]+', '"elapsed_seconds": <t>', text)


def mask_seconds_rows(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if ",seconds," not in line
    )


@pytest.fixture
def cross_csv(tmp_path):
    return write(tmp_path / "cross.csv", CROSS_CSV)


@pytest.fixture
def sample_csv(tmp_path):
    rng = np.random.default_rng(515)
    x = rng.standard_normal((120, 4))
    x[:6] += 9.0
    lines = [",".join(repr(float(v)) for v in row) for row in x]
    return write(tmp_path / "sample.csv", "\n".join(lines) + "\n")


class TestEstimate:
    def test_symmetric_cross_l2_mean(self, cross_csv, tmp_path):
        out = tmp_path / "est.json"
        code = main(
            ["estimate", "--input", cross_csv, "--output", str(out),
             "--method", "fdb-l2", "--alpha", "1.0", "--no-reweight"]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["mu"] == [0.0, 0.0]
        assert "c0" not in doc and doc["weights"] is None
        assert doc["c1"] > 0
        assert doc["subset"] == [0, 1, 2, 3]
        assert doc["threads"] >= 1

    def test_byte_identical_reruns_modulo_timing(self, sample_csv, tmp_path):
        args = ["estimate", "--input", sample_csv, "--output", None,
                "--method", "fdb-pro", "--seed", "7", "--threads", "2"]
        outputs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            args[4] = str(path)
            assert main(args) == 0
            outputs.append(path.read_bytes())
        assert mask_timing(outputs[0].decode()) == mask_timing(outputs[1].decode())

    def test_output_schema(self, sample_csv, tmp_path):
        out = tmp_path / "est.json"
        assert main(["estimate", "--input", sample_csv, "--output", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        required = {
            "mu", "sigma", "subset", "weights", "c1", "method",
            "alpha", "k", "seed", "elapsed_seconds", "threads",
        }
        assert required <= set(doc) and "c0" not in doc
        assert len(doc["mu"]) == 4
        assert len(doc["sigma"]) == 4 and len(doc["sigma"][0]) == 4
        assert doc["k"] == 400  # auto rule at p = 4: 100 p below p = 10

    def test_matches_library_call(self, sample_csv, tmp_path):
        out = tmp_path / "est.json"
        assert main(["estimate", "--input", sample_csv, "--output", str(out), "--seed", "3"]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        x = np.loadtxt(sample_csv, delimiter=",", encoding="utf-8")
        report = fdb_estimate(x, EstimatorConfig(seed=3))
        assert np.allclose(doc["mu"], report.estimate.mu, rtol=0, atol=0)
        assert doc["c1"] == report.c1


class TestInputHandling:
    def test_header_detected_and_skipped(self, tmp_path):
        path = write(tmp_path / "h.csv", "x,y\n" + CROSS_CSV)
        out = tmp_path / "est.json"
        code = main(["estimate", "--input", str(path), "--output", str(out),
                     "--method", "fdb-l2", "--alpha", "1.0", "--no-reweight"])
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["n"] == 4

    def test_header_and_headerless_agree(self, tmp_path):
        with_header = write(tmp_path / "h.csv", "a,b\n" + CROSS_CSV)
        without = write(tmp_path / "nh.csv", CROSS_CSV)
        docs = []
        for i, src in enumerate((with_header, without)):
            out = tmp_path / f"out{i}.json"
            assert main(["estimate", "--input", src, "--output", str(out),
                         "--method", "fdb-l2", "--alpha", "1.0", "--no-reweight"]) == 0
            docs.append(json.loads(out.read_text(encoding="utf-8")))
        assert docs[0]["mu"] == docs[1]["mu"]
        assert docs[0]["sigma"] == docs[1]["sigma"]

    def test_parse_error_reports_row_and_column(self, tmp_path, capsys):
        path = write(tmp_path / "bad.csv", "1,2\n3,oops\n5,6\n")
        code = main(["estimate", "--input", str(path), "--output", str(tmp_path / "o.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "column 2" in err

    def test_nan_cell_is_hard_error(self, tmp_path):
        path = write(tmp_path / "nan.csv", "1,2\n3,nan\n")
        assert main(["estimate", "--input", str(path), "--output", str(tmp_path / "o.json")]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["estimate", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize(
        "method, flag, value, message",
        [
            pytest.param("fdb-pro", "--alpha", "0.3", "alpha must lie in [0.5, 1]", id="fdb-pro"),
            pytest.param("fastmcd", "--alpha", "0.3", "alpha must lie in [0.5, 1]", id="fastmcd"),
            *(
                pytest.param(method, "--starts", value, f"start count must be at least 1, got {value}",
                             id=f"{method}-starts{value}")
                for method in ("fdb-pro", "fdb-l2")
                for value in ("-3", "0")
            ),
        ],
    )
    def test_value_outside_its_rule_is_an_input_error(
        self, sample_csv, tmp_path, capsys, method, flag, value, message
    ):
        out = tmp_path / "o.json"
        assert main(["estimate", "--input", sample_csv, "--output", str(out),
                     "--method", method, flag, value]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "depth"])
    def test_zero_direction_count_gets_the_library_message(
        self, sample_csv, tmp_path, capsys, command
    ):
        # The message of EstimatorConfig(k=0) and DirectionSet(3, 0, 0).
        out = tmp_path / "out"
        assert main([command, "--input", sample_csv, "--output", str(out), "--k", "0"]) == 2
        err = capsys.readouterr().err
        assert "input error: direction count must be at least 1, got 0" in err
        assert not out.exists()

    def test_usage_error_exit_code(self):
        assert main(["estimate"]) == 1          # missing required flags
        assert main(["frobnicate"]) == 1        # unknown command

    def test_computation_error_exit_code(self, tmp_path, capsys):
        # rank-deficient data: singular subset covariance
        path = write(tmp_path / "rank1.csv", "\n".join(f"{i},{i}" for i in range(20)) + "\n")
        code = main(["estimate", "--input", str(path), "--output", str(tmp_path / "o.json"),
                     "--method", "fdb-l2"])
        assert code == 3
        assert "stage" in capsys.readouterr().err

    def test_estimate_stands_where_detect_overflows(self, tmp_path, capsys):
        # The row at 1.18e154 gets weight 0, and its distance under the
        # reweighted estimate overflows: estimate writes the finite estimate,
        # and only detect, which takes the distances, fails.
        x = np.random.default_rng(0).standard_normal((200, 5))
        x[0, 0] = 1.18e154
        lines = [",".join(repr(float(v)) for v in row) for row in x]
        path = write(tmp_path / "huge.csv", "\n".join(lines) + "\n")
        out = tmp_path / "o.json"
        assert main(["estimate", "--input", path, "--output", str(out),
                     "--method", "fdb-l2"]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["weights"][0] == 0
        assert np.isfinite(doc["mu"]).all() and np.isfinite(doc["sigma"]).all()
        assert main(["detect", "--input", path, "--output", str(tmp_path / "f.csv"),
                     "--method", "fdb-l2"]) == 3
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["estimate", "--method", "fdb-pro"],
            ["estimate", "--method", "fdb-l2"],
            ["estimate", "--method", "fastmcd", "--starts", "5"],
            ["detect", "--method", "fdb-l2"],
            ["depth"],
            ["depth", "--depth", "l2"],
        ],
    )
    def test_negative_seed_is_an_input_error(self, sample_csv, tmp_path, capsys, command):
        out = tmp_path / "o.out"
        assert main([*command, "--input", sample_csv, "--output", str(out), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "seed must be at least 0, got -1" in err
        assert not out.exists()


def read_both(path):
    """The new reader's and the reference's outcome: ("ok", shape, bytes)
    for a matrix, ("error", message) for an InputError."""
    outcomes = []
    for reader in (cli.read_matrix_csv, read_matrix_csv_reference):
        try:
            matrix = reader(path)
        except InputError as exc:
            outcomes.append(("error", str(exc)))
        else:
            assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
            outcomes.append(("ok", matrix.shape, matrix.tobytes()))
    return outcomes


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMBERS = st.one_of(
    FINITE.map(repr),
    FINITE.map(lambda v: f"{v:.17g}"),
    FINITE.map(lambda v: f"{v:.3e}"),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "-0", "+1", ".5", "5.", "1.5E+3", "-0.0"]),
)
# Cells that only float() reads, that neither reader accepts as a number,
# or that are not finite.
ODD_CELLS = st.sampled_from([
    "nan", "-NaN", "inf", "-Infinity", "1e999", "-1e999", "1_000", "1__0",
    "\u0661\u0662", "\uff11", "0x10", "1d5", "", "abc", "1 2", "1\x00", "\ufeff1",
])
# ASCII and Unicode whitespace, some of which str.splitlines() also reads
# as a line break.
PADDING = [" ", "\t", "\x1f", "\xa0", "\u3000", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
LINE_BREAKS = ["\n", "\n", "\n", "\r\n", "\r", "\x0c", "\x0b", "\x1e", "\x85", "\u2029"]


@st.composite
def csv_texts(draw):
    """CSV text, either tidy (numbers, spaces, tabs, "\n", "\r\n" or "\r")
    or messy (ODD_CELLS, PADDING, LINE_BREAKS and ragged rows too)."""
    messy = draw(st.booleans())
    width = draw(st.integers(1, 4))
    cell = st.one_of(NUMBERS, ODD_CELLS) if messy else NUMBERS
    pad = st.text(st.sampled_from(PADDING if messy else [" ", "\t"]), max_size=2)
    line_break = st.sampled_from(LINE_BREAKS if messy else ["\n", "\r\n", "\r"])
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.sampled_from(["a", "x y", "1", "nan", ""]))
                              for _ in range(width)))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["ragged" if messy else "row", "blank"]))
        if kind == "blank":
            lines.append(draw(st.text(st.sampled_from([" ", "\t", "\u3000"]), max_size=3)))
            continue
        cells = width + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
        lines.append(",".join(
            draw(pad) + draw(cell) + draw(pad) if draw(st.integers(0, 4)) == 0 else draw(cell)
            for _ in range(max(cells, 1))
        ))
    breaks = [draw(line_break) for _ in lines]
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    if lines and draw(st.booleans()):
        text = text[: -len(breaks[-1])]
    return ("\ufeff" if draw(st.booleans()) else "") + text


class TestReadMatrixCsv:
    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts())
    def test_agrees_with_per_cell_reference(self, tmp_path, text):
        # A new file per example: ext4 flushes a truncated file on close.
        fd, path = tempfile.mkstemp(suffix=".csv", dir=tmp_path)
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        new, reference = read_both(path)
        assert new == reference

    def test_full_precision_matrix_bitwise(self, tmp_path, rng):
        x = rng.standard_normal((300, 40)) * 10.0 ** rng.integers(-300, 300, size=(300, 40))
        path = tmp_path / "x.csv"
        # An open handle: given a path, numpy first opens it without an encoding.
        with open(path, "w", encoding="utf-8") as fh:
            np.savetxt(fh, x, fmt="%.17g", delimiter=",")
        new, reference = read_both(str(path))
        assert new == reference
        assert np.array_equal(cli.read_matrix_csv(str(path)), x)

    def test_plain_file_skips_the_per_cell_loop(self, tmp_path, monkeypatch):
        def fail(*args):
            raise AssertionError("per-cell loop ran")

        monkeypatch.setattr(cli, "_parse_cells", fail)
        path = write(tmp_path / "p.csv", "a,b\n \t\n1, 2\r\n\n3,4e-3\n")
        assert cli.read_matrix_csv(path).tolist() == [[1.0, 2.0], [3.0, 0.004]]

    @pytest.mark.parametrize("text, expected", [
        ("1\n2\n3\n", [[1.0], [2.0], [3.0]]),
        ("1,2,3\n", [[1.0, 2.0, 3.0]]),
        ("x\n7", [[7.0]]),
        ("1_000,2\n", [[1000.0, 2.0]]),                    # only float() reads it
        ("\u0661,2\n", [[1.0, 2.0]]),                 # Arabic-Indic digit
        ("1,2\x0c3,4\n", [[1.0, 2.0], [3.0, 4.0]]),        # form feed splits rows
    ])
    def test_accepted_shapes_and_spellings(self, tmp_path, text, expected):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        assert cli.read_matrix_csv(str(path)).tolist() == expected

    @pytest.mark.parametrize("text, message", [
        ("", "file contains no data rows"),
        ("a,b\n \n", "file contains a header but no data rows"),
        ("1,2\n3\n", "row 2 has 1 columns, expected 2"),
        ("h\n1\n\n2,\n", "row 3 has 2 columns, expected 1"),
        ("1,2\n3,inf\n", "row 2, column 2: non-finite value 'inf'"),
        ("1,2\n3,1e999\n", "row 2, column 2: non-finite value '1e999'"),
        ("1,2\n3,4x\n", "row 2, column 2: '4x' is not a number"),
        ("1\x0c,2\n", "row 2 has 2 columns, expected 1"),  # form feed splits rows
        ("1\x85,2\n", "row 2 has 2 columns, expected 1"),  # so does NEL
        ("1,2\u2028,3\n", "row 2, column 1: '' is not a number"),
    ])
    def test_errors_name_row_and_column(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(InputError) as info:
            cli.read_matrix_csv(str(path))
        assert str(info.value) == f"{path}: {message}"

    def test_byte_order_mark_keeps_the_first_sample(self, tmp_path):
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n5,6\n")
        assert cli.read_matrix_csv(str(data)).tolist() == [[1, 2], [3, 4], [5, 6]]
        header = tmp_path / "bom-header.csv"
        header.write_bytes(b"\xef\xbb\xbfx,y\n3,4\n")
        assert cli.read_matrix_csv(str(header)).tolist() == [[3, 4]]

    def test_non_utf8_file_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("temp\xb0C\n1\n2\n".encode("latin-1"))
        assert main(["depth", "--input", str(path), "--output", str(tmp_path / "d.csv")]) == 2
        assert "not UTF-8 text" in capsys.readouterr().err


class TestBenchmark:
    def test_small_grid_schema_and_determinism(self, tmp_path, capsys):
        args = ["benchmark", "--output", None, "--setting", "32x3",
                "--contamination", "none,radial", "--epsilon", "0,0.1",
                "--r", "5", "--replicates", "2", "--methods", "fdb-l2",
                "--seed", "9"]
        contents = []
        for name in ("b1.csv", "b2.csv"):
            path = tmp_path / name
            args[2] = str(path)
            assert main(args) == 0
            contents.append(path.read_text(encoding="utf-8"))
        capsys.readouterr()
        assert mask_seconds_rows(contents[0]) == mask_seconds_rows(contents[1])
        lines = contents[0].splitlines()
        assert lines[0] == "setting,kind,epsilon,r,method,metric,mean,sd,replicates"
        # two distinct cells (clean + radial) x five metrics
        assert len(lines) == 1 + 10

    def test_failure_flag_propagates(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = main(["benchmark", "--output", str(out), "--setting", "6x4",
                     "--contamination", "none", "--epsilon", "0",
                     "--replicates", "2", "--methods", "fdb-l2"])
        assert code == 0
        assert "flagged" in capsys.readouterr().err
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert all(row.endswith(",0") for row in rows)  # zero successful replicates

    def test_unknown_setting_rejected(self, tmp_path):
        assert main(["benchmark", "--output", str(tmp_path / "b.csv"),
                     "--setting", "Z"]) == 2

    def test_negative_seed_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["benchmark", "--output", str(out), "--setting", "32x3",
                     "--replicates", "1", "--methods", "fdb-l2", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "seed must be at least 0, got -1" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value,token", [("--epsilon", "abc", "abc"), ("--epsilon", "0.1, x", "x"), ("--r", "x", "x")]
    )
    def test_malformed_number_list_is_an_input_error(self, tmp_path, capsys, flag, value, token):
        out = tmp_path / "b.csv"
        assert main(["benchmark", "--output", str(out), "--setting", "A", flag, value]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and flag in err and repr(token) in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "args,reason",
        [
            (["--setting", "0x3"], "need n >= 1"),
            (["--setting", "A", "--contamination", "cluster", "--epsilon", "0.7"], "epsilon must lie"),
            (["--setting", "50x1", "--contamination", "point", "--epsilon", "0.1"], "needs p >= 2"),
            (["--setting", "A", "--contamination", "cluster", "--epsilon", "0.1", "--r", "nan"],
             "r must be finite"),
            (["--setting", "A", "--replicates", "0"], "need at least one replicate"),
            (["--setting", "A", "--epsilon", ","], "benchmark grid is empty"),
            (["--setting", "A", "--alpha", "2"], "alpha must lie in [0.5, 1]"),
            (["--setting", "A", "--contamination", "cluster,bogus"], "unknown contamination kind"),
            (["--setting", "A", "--methods", "fdb-l2,mcd"], "unknown method"),
        ],
    )
    def test_grid_that_cannot_run_is_an_input_error(self, tmp_path, capsys, args, reason):
        out = tmp_path / "b.csv"
        assert main(["benchmark", "--output", str(out), "--replicates", "1", *args]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and reason in err
        assert "replicates" not in err  # no replicate ran
        assert not out.exists()


class TestPca:
    def test_rank_deficient_truth_gives_zero_od(self, tmp_path):
        # Data in a 2-d subspace of R^3: with K=2 every OD is zero.
        rng = np.random.default_rng(6)
        scores = rng.standard_normal((80, 2)) @ np.diag([3.0, 1.0])
        basis = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        x = scores @ basis.T + np.array([1.0, 2.0, 3.0])
        path = write(tmp_path / "sub.csv", "\n".join(",".join(repr(float(v)) for v in row) for row in x))
        out = tmp_path / "diag.csv"
        code = main(["pca", "--input", str(path), "--output", str(out),
                     "--components", "2", "--method", "fdb-l2"])
        assert code == 3  # singular covariance: data do not span R^3
        # with one component the model is estimable only on full-rank data;
        # use a full-rank variant instead
        x_full = x + 1e-3 * rng.standard_normal(x.shape)
        path2 = write(tmp_path / "sub2.csv", "\n".join(",".join(repr(float(v)) for v in row) for row in x_full))
        assert main(["pca", "--input", str(path2), "--output", str(out),
                     "--components", "2", "--method", "fdb-l2"]) == 0
        od = [float(line.split(",")[2]) for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert max(od) < 1e-4

    def test_outputs_and_determinism(self, sample_csv, tmp_path):
        out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        for out in (out1, out2):
            assert main(["pca", "--input", sample_csv, "--output", str(out),
                         "--components", "2", "--seed", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        model = json.loads((tmp_path / "d1.csv.model.json").read_text(encoding="utf-8"))
        assert len(model["loadings"]) == 4 and len(model["loadings"][0]) == 2
        assert len(model["eigenvalues"]) == 2
        assert model["eigenvalues"][0] >= model["eigenvalues"][1]
        lines = out1.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "index,sd,od,category,distance,flag"
        assert len(lines) == 121

    def test_matches_library(self, sample_csv, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["pca", "--input", sample_csv, "--output", str(out),
                     "--components", "3", "--seed", "11"]) == 0
        x = np.loadtxt(sample_csv, delimiter=",", encoding="utf-8")
        report = fdb_estimate(x, EstimatorConfig(seed=11))
        model = applications.robust_pca(x, report.estimate, 3)
        diag = applications.pca_diagnostics(x, model)
        sd = [float(line.split(",")[1]) for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert np.allclose(sd, diag.sd, rtol=0, atol=0)


class TestDetect:
    def test_top_n_flags_everything(self, cross_csv, tmp_path):
        out = tmp_path / "flags.csv"
        code = main(["detect", "--input", cross_csv, "--output", str(out),
                     "--rule", "top:4", "--method", "fdb-l2", "--alpha", "1.0",
                     "--no-reweight"])
        assert code == 0
        flags = [line.split(",")[2] for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert flags == ["1", "1", "1", "1"]

    def test_auc_on_separated_data(self, tmp_path):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((100, 3))
        x[-5:] += 25.0
        labels = np.zeros(100, dtype=int)
        labels[-5:] = 1
        data_path = write(tmp_path / "d.csv", "\n".join(",".join(repr(float(v)) for v in row) for row in x))
        labels_path = write(tmp_path / "l.csv", "\n".join(str(v) for v in labels))
        out = tmp_path / "flags.csv"
        summary = tmp_path / "summary.json"
        code = main(["detect", "--input", data_path, "--output", str(out),
                     "--labels", labels_path, "--rule", "top:5",
                     "--summary-output", str(summary)])
        assert code == 0
        doc = json.loads(summary.read_text(encoding="utf-8"))
        assert doc["auc"] == 1.0
        assert doc["flagged"] == 5

    def test_matches_library(self, sample_csv, tmp_path):
        out = tmp_path / "flags.csv"
        assert main(["detect", "--input", sample_csv, "--output", str(out),
                     "--rule", "chi2:0.975", "--seed", "2"]) == 0
        x = np.loadtxt(sample_csv, delimiter=",", encoding="utf-8")
        report = fdb_estimate(x, EstimatorConfig(seed=2))
        result = applications.detect_outliers(x, report.estimate, rule="chi2:0.975")
        got = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert np.allclose([float(g[1]) for g in got], result.distances, rtol=0, atol=0)
        assert [int(g[2]) for g in got] == [int(f) for f in result.flags]

    def test_one_class_labels_are_an_input_error(self, sample_csv, tmp_path, capsys):
        n = len(np.loadtxt(sample_csv, delimiter=",", encoding="utf-8"))
        labels_path = write(tmp_path / "l.csv", "0\n" * n)
        out = tmp_path / "flags.csv"
        assert main(["detect", "--input", sample_csv, "--output", str(out),
                     "--labels", labels_path]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "one positive and one negative" in err
        assert not out.exists()

    def test_bad_rule_exit_code(self, cross_csv, tmp_path):
        assert main(["detect", "--input", cross_csv, "--output",
                     str(tmp_path / "f.csv"), "--rule", "nope:1"]) == 2


@pytest.fixture
def wide_csv(tmp_path):
    x = np.random.default_rng(8).standard_normal((300, 6))
    return write(tmp_path / "wide.csv", "\n".join(",".join(repr(float(v)) for v in row) for row in x))


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("detect", "--rule", "nope:1", "unknown rule kind 'nope'"),
        ("detect", "--rule", "top:-2", "top count must be nonnegative, got -2"),
        ("detect", "--rule", "chi2:1.5", "chi2 probability must lie in (0, 1), got 1.5"),
        ("pca", "--components", "0", "component count 0 not in [1, 6]"),
        ("pca", "--components", "9", "component count 9 not in [1, 6]"),
    ],
)
def test_bad_rule_or_component_count_stops_before_the_estimate(
    wide_csv, tmp_path, monkeypatch, capsys, command, flag, value, message
):
    def no_estimate(*args, **kwargs):
        raise AssertionError("the estimate ran")

    monkeypatch.setattr(evaluation, "run_estimator", no_estimate)
    out = tmp_path / "out.csv"
    assert main([command, "--input", wide_csv, "--output", str(out), flag, value]) == 2
    assert f"fdb: input error: {message}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["wide.csv"]  # no output, summary or model file


class TestDepthCommand:
    def test_singleton_l2_depth_one(self, tmp_path):
        path = write(tmp_path / "one.csv", "3.5\n")
        out = tmp_path / "depth.csv"
        assert main(["depth", "--input", str(path), "--output", str(out),
                     "--depth", "l2"]) == 0
        assert out.read_text(encoding="utf-8") == "index,depth\n0,1.0\n"

    def test_deterministic_and_matches_library(self, sample_csv, tmp_path):
        out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        for out in (out1, out2):
            assert main(["depth", "--input", sample_csv, "--output", str(out),
                         "--depth", "projection", "--seed", "13", "--k", "500"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        x = np.loadtxt(sample_csv, delimiter=",", encoding="utf-8")
        expected = depth.projection_depth(x, depth.sample_directions(4, 500, 13))
        got = [float(line.split(",")[1]) for line in out1.read_text(encoding="utf-8").splitlines()[1:]]
        assert np.allclose(got, expected, rtol=0, atol=0)


NON_ASCII = "index,name\n0,Kraków\n1,東京 → ∞\n"


class TestAtomicWriteText:
    def test_overwrite_leaves_exactly_the_new_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"x" * 5000)
        cli.atomic_write_text(str(path), "a,b\n1,2\n")
        assert path.read_bytes() == b"a,b\n1,2\n"
        assert os.path.getsize(path) == 8
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("text", ["", NON_ASCII])
    def test_round_trips_as_utf8(self, tmp_path, text):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old")
        cli.atomic_write_text(str(path), text)
        assert path.read_bytes() == text.encode("utf-8")
        assert path.read_text(encoding="utf-8") == text

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old contents\n")
        real_fdopen = os.fdopen

        class HalfWrite:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def fileno(self):
                return self.fh.fileno()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fdopen", lambda fd, mode: HalfWrite(real_fdopen(fd, mode)))
        with pytest.raises(OSError):
            cli.atomic_write_text(str(path), NON_ASCII * 100)
        assert path.read_bytes() == b"old contents\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_preallocates_the_encoded_length(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(
            os, "posix_fallocate", lambda fd, offset, length: calls.append((offset, length)),
            raising=False,
        )
        path = tmp_path / "out.csv"
        cli.atomic_write_text(str(path), NON_ASCII)
        cli.atomic_write_text(str(path), "")
        assert calls == [(0, len(NON_ASCII.encode("utf-8")))]
        assert path.read_bytes() == b""

    def test_unsupported_preallocation_still_writes(self, tmp_path, monkeypatch):
        def unsupported(fd, offset, length):
            raise OSError(errno.EOPNOTSUPP, "Operation not supported")

        monkeypatch.setattr(os, "posix_fallocate", unsupported, raising=False)
        path = tmp_path / "out.csv"
        cli.atomic_write_text(str(path), NON_ASCII)
        assert path.read_bytes() == NON_ASCII.encode("utf-8")

    def test_other_preallocation_errors_propagate(self, tmp_path, monkeypatch):
        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "posix_fallocate", full, raising=False)
        path = tmp_path / "out.csv"
        path.write_bytes(b"old")
        with pytest.raises(OSError) as exc:
            cli.atomic_write_text(str(path), NON_ASCII)
        assert exc.value.errno == errno.ENOSPC
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.csv"]


class TestThreadResolution:
    def test_flag_beats_env(self, monkeypatch):
        from fdb.cli import resolve_threads

        monkeypatch.setenv("FDB_THREADS", "5")
        assert resolve_threads("3") == 3
        assert resolve_threads(None) == 5
        assert resolve_threads("auto") == 5

    def test_hardware_fallback(self):
        from fdb.cli import resolve_threads

        assert resolve_threads(None) >= 1

    @pytest.mark.parametrize("flag", [None, "auto"])
    def test_auto_counts_the_cpus_this_process_may_use(self, monkeypatch, flag):
        from fdb.cli import resolve_threads

        monkeypatch.delenv("FDB_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_threads(flag) == 2

    @pytest.mark.parametrize("cpus,expected", [(6, 6), (None, 1)])
    def test_auto_falls_back_to_the_host_count_without_affinity(self, monkeypatch, cpus, expected):
        from fdb.cli import resolve_threads

        monkeypatch.delenv("FDB_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert resolve_threads("auto") == expected

    def test_invalid_value(self):
        from fdb.cli import InputError, resolve_threads

        with pytest.raises(InputError):
            resolve_threads("many")
        with pytest.raises(InvalidConfig):
            resolve_threads("0")

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "2.5"])
    @pytest.mark.parametrize("flag", [None, "auto"])
    def test_invalid_environment_value_gets_the_kernels_error(self, monkeypatch, flag, value):
        from fdb.cli import resolve_threads

        monkeypatch.setenv("FDB_THREADS", value)
        with pytest.raises(InvalidConfig) as from_cli:
            resolve_threads(flag)
        with pytest.raises(InvalidConfig) as from_kernels:
            depth._worker_count(None)
        assert str(from_cli.value) == str(from_kernels.value)


class TestThreadedDepth:
    @pytest.mark.parametrize("method", ["fdb-pro", "fdb-l2"])
    def test_thread_count_changes_only_the_threads_field(
        self, tmp_path, pools, workers_at_any_size, method
    ):
        x = np.random.default_rng(3).standard_normal((400, 20))
        src = write(tmp_path / "x.csv", "\n".join(",".join(map(repr, row)) for row in x.tolist()))
        docs = []
        for threads in ("1", "2"):
            out = tmp_path / f"est{threads}.json"
            assert main(["estimate", "--input", src, "--output", str(out), "--method", method,
                         "--seed", "4", "--threads", threads]) == 0
            docs.append(mask_timing(out.read_text(encoding="utf-8")).replace(f'"threads": {threads}', '"threads": <n>'))
        assert pools == [2]
        assert docs[0] == docs[1]

    def test_depth_command_uses_the_flag_then_the_environment(
        self, sample_csv, tmp_path, monkeypatch, pools, workers_at_any_size
    ):
        monkeypatch.setenv("FDB_THREADS", "3")
        out = str(tmp_path / "depth.csv")
        assert main(["depth", "--input", sample_csv, "--output", out, "--k", "2000"]) == 0
        assert main(["depth", "--input", sample_csv, "--output", out, "--k", "2000", "--threads", "2"]) == 0
        assert pools == [3, 2]


class TestModuleEntryPoint:
    def test_python_m_fdb(self, cross_csv, tmp_path):
        out = tmp_path / "est.json"
        proc = subprocess.run(
            [sys.executable, "-m", "fdb", "estimate", "--input", cross_csv,
             "--output", str(out), "--method", "fdb-l2", "--alpha", "1.0",
             "--no-reweight"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text(encoding="utf-8"))["mu"] == [0.0, 0.0]


class TestImportFootprint:
    """A fresh interpreter loads only the scipy subpackages fdb runs."""

    @staticmethod
    def loaded_modules(code):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code + "\nimport sys\nprint(' '.join(sys.modules))"],
            capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
        )
        return set(proc.stdout.split())

    def test_import_leaves_out_stats_and_spatial(self):
        modules = self.loaded_modules("import fdb, fdb.cli")
        assert "fdb.cli" in modules
        assert not {"scipy.stats", "scipy.spatial"} & modules

    def test_l2_depth_loads_cdist(self):
        modules = self.loaded_modules(
            "import numpy as np, fdb\nfdb.l2_depth(np.random.default_rng(0).standard_normal((50, 3)))"
        )
        assert "scipy.spatial.distance" in modules
