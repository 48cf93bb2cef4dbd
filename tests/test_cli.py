"""Command line interface, exercised in-process through main()."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from skewdisc.cli import CHAT_COLUMNS, MSI_COLUMNS, CsvFormatError, load_csv, main
from skewdisc import cli, estimators, montecarlo
from skewdisc.errors import Error
from skewdisc.model import DataSet, MixtureParams, sample
from skewdisc.montecarlo import msi


def mixture_params(tau=8.0):
    h1 = np.sqrt(tau)
    return MixtureParams(alpha1=0.7,
                         mu1=np.array([-0.3 * h1, 0.0, 0.0]),
                         mu2=np.array([0.7 * h1, 0.0, 0.0]),
                         sigma=np.eye(3))


def write_dataset(path, data, with_labels=False):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        names = [f"x{j}" for j in range(data.p)]
        writer.writerow(names + ["label"] if with_labels else names)
        for i in range(data.n):
            row = [repr(float(v)) for v in data.observations[i]]
            if with_labels:
                row.append(str(int(data.labels[i])))
            writer.writerow(row)
    return str(path)


@pytest.fixture
def sample_csv(tmp_path):
    data = sample(mixture_params(), 2000, np.random.default_rng(60))
    return write_dataset(tmp_path / "data.csv", data)


@pytest.fixture
def labeled_csv(tmp_path):
    data = sample(mixture_params(), 2000, np.random.default_rng(61))
    return write_dataset(tmp_path / "labeled.csv", data, with_labels=True)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_payload(err):
    return json.loads(err.strip().splitlines()[-1])


class TestLoadCsv:
    def test_plain_features(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
        ds = load_csv(str(path))
        assert ds.labels is None
        np.testing.assert_allclose(ds.observations,
                                   [[1.0, 2.0], [3.0, 4.0]])

    def test_label_column_any_position(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("x,label,y\n1.0,-1,2.0\n3.0,+1,4.0\n")
        ds = load_csv(str(path))
        np.testing.assert_array_equal(ds.labels, [-1, 1])
        np.testing.assert_allclose(ds.observations,
                                   [[1.0, 2.0], [3.0, 4.0]])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x,y\n1.0,2.0\n\n3.0,4.0\n")
        assert load_csv(str(path)).n == 2

    @pytest.mark.parametrize("content,line", [
        ("", 1),
        ("label\n-1\n", 1),
        ("x,y\n1.0\n", 2),
        ("x,y\n1.0,2.0\n3.0,oops\n", 3),
        ("x,label\n1.0,7\n", 2),
        ("x,y\n", 2),
        ("x,y\n1.0,2.0\n\n3.0,nan\n", 4),
        ("x,y\ninf,2.0\n", 2),
        ("x,label\n1.0,1\n-inf,-1\n", 3),
    ])
    def test_errors_carry_line_numbers(self, tmp_path, content, line):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(CsvFormatError) as excinfo:
            load_csv(str(path))
        assert f"line {line}" in str(excinfo.value)
        assert str(path) in str(excinfo.value)

    def test_quoted_fields(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text('"x","label","y"\n"1.5","-1","2"\n3.0,"+1","4e1"\n')
        ds = load_csv(str(path))
        np.testing.assert_array_equal(ds.observations, [[1.5, 2.0], [3.0, 40.0]])
        np.testing.assert_array_equal(ds.labels, [-1, 1])

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"x,y\r\n1.0,2.0\r\n\r\n3.0,4.0\r\n")
        np.testing.assert_array_equal(load_csv(str(path)).observations,
                                      [[1.0, 2.0], [3.0, 4.0]])
        path.write_bytes(b"x,y\r\n1.0,2.0\r\n\r\n3.0,oops\r\n")
        with pytest.raises(CsvFormatError, match="line 4"):
            load_csv(str(path))

    def test_spaces_around_values(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(" x , label ,y\n 1.5 , +1 ,\t2 \n3 ,-1, 4\n")
        ds = load_csv(str(path))
        np.testing.assert_array_equal(ds.observations, [[1.5, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.labels, [1, -1])

    def test_last_line_without_newline(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,4.0")
        np.testing.assert_array_equal(load_csv(str(path)).observations,
                                      [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("token", ["1.0", "2", "", "one", "1 1"])
    def test_only_exact_label_tokens(self, tmp_path, token):
        path = tmp_path / "l.csv"
        path.write_text(f"x,label\n1.0,+1\n2.0,-1\n3.0,{token}\n")
        with pytest.raises(CsvFormatError) as excinfo:
            load_csv(str(path))
        assert "line 4: label must be -1 or 1" in str(excinfo.value)

    def test_python_only_float_spelling_refused(self, tmp_path):
        # float() reads "1_000"; the CSV dialect does not
        path = tmp_path / "u.csv"
        path.write_text("x,y\n1.0,2.0\n1_000,3.0\n")
        with pytest.raises(CsvFormatError, match="line 3: non-numeric"):
            load_csv(str(path))

    @pytest.mark.parametrize("bad,reason", [
        ("3.0,oops", "non-numeric feature value"),
        ("3.0", "expected 2 fields, got 1"),
        ("3.0,4.0,5.0", "expected 2 fields, got 3"),
        ("nan,4.0", "non-finite feature value"),
    ])
    def test_bad_line_deep_in_file(self, tmp_path, bad, reason):
        # lines 2..10001 are good, 10002 is blank and still counted
        path = tmp_path / "deep.csv"
        path.write_text("x,y\n" + "1.5,-2.5\n" * 10_000 + "\n" + bad + "\n1.0,2.0\n")
        with pytest.raises(CsvFormatError) as excinfo:
            load_csv(str(path))
        assert str(excinfo.value) == f"{path}: line 10003: {reason}"

    def test_lines_split_only_at_newlines(self, tmp_path):
        # form feed and U+2028 are not line breaks, so later lines keep
        # their numbers
        path = tmp_path / "ff.csv"
        path.write_text("x,y\n1.0,2.0\x0c\n3.0,4.0\u2028\n5.0,oops\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="line 4"):
            load_csv(str(path))

    def test_header_only_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text("x,y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError, match="line 2: no data rows"):
                load_csv(str(path))
        code, out, err = run_cli(["estimate", str(path), "--method", "tobi"], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert stderr_payload(err)["message"] == f"{path}: line 2: no data rows"


class TestEstimate:
    def test_report_to_stdout(self, sample_csv, capsys):
        code, out, err = run_cli(
            ["estimate", sample_csv, "--method", "tobi"], capsys)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["method"] == "TOBI"
        assert report["n"] == 2000 and report["p"] == 3
        assert len(report["scores"]) == 2000
        assert np.linalg.norm(report["unit"]) == pytest.approx(1.0, abs=1e-9)
        assert report["converged"] is True

    def test_report_to_file(self, sample_csv, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["estimate", sample_csv, "--method", "skewvec",
             "--output", str(out_path)], capsys)
        assert code == 0 and out == ""
        report = json.loads(out_path.read_text())
        assert report["method"] == "SKEWVEC"

    def test_every_method(self, labeled_csv, capsys):
        for method in ("mom", "skewvec", "tobi", "jade3", "lda", "pp"):
            argv = ["estimate", labeled_csv, "--method", method]
            if method == "mom":
                argv += ["--alpha1", "0.7"]
            code, out, err = run_cli(argv, capsys)
            assert code == 0, (method, err)
            assert json.loads(out)["method"] == method.upper()

    def test_mom_without_alpha_is_usage_error(self, sample_csv, capsys):
        code, _, err = run_cli(
            ["estimate", sample_csv, "--method", "mom"], capsys)
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "UsageError"
        assert "--alpha1" in payload["message"]

    @pytest.mark.parametrize("method", ["skewvec", "tobi", "jade3", "lda", "pp"])
    def test_alpha1_refused_outside_mom(self, labeled_csv, capsys, method):
        code, out, err = run_cli(
            ["estimate", labeled_csv, "--method", method, "--alpha1", "0.7"], capsys)
        assert code == 2 and out == ""
        payload = stderr_payload(err)
        assert payload["error"] == "UsageError"
        assert "--alpha1" in payload["message"]

    @pytest.mark.parametrize("option,value", [
        ("--max-iter", "-5"), ("--max-iter", "0"), ("--tol", "nan"), ("--tol", "-1"),
        ("--tol", "inf"), ("--tol", "0"),
    ])
    def test_fixed_point_settings_out_of_range(self, sample_csv, capsys, option, value):
        # a cap below 1 would report TOBI's starting vector as JADE3's
        # answer, and a tol that is not finite and > 0 stops at once or never
        code, out, err = run_cli(
            ["estimate", sample_csv, "--method", "jade3", option, value], capsys)
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        payload = stderr_payload(err)
        assert payload["error"] == "UsageError"
        assert option in payload["message"]

    def test_fixed_point_settings_at_their_limits(self, sample_csv, capsys):
        code, out, err = run_cli(["estimate", sample_csv, "--method", "jade3",
                                  "--max-iter", "1", "--tol", "1e-300"], capsys)
        assert code == 0, err
        assert json.loads(out)["iterations"] == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["mom", "skewvec", "tobi", "jade3", "lda", "pp"])
    def test_overflowing_moments(self, tmp_path, capsys, method):
        # finite values at 2^531 (about 1e160), whose unscaled squares
        # overflow: the estimate is taken on the data scaled by a power of
        # two, so its unit is the unit-scale report's to the last bit, and
        # no warning is printed
        rng = np.random.default_rng(63)
        data = sample(mixture_params(), 300, rng)
        huge = type(data)(np.ldexp(data.observations, 531), labels=data.labels)
        reports = []
        for name, ds in (("unit", data), ("huge", huge)):
            path = write_dataset(tmp_path / f"{name}.csv", ds, with_labels=True)
            argv = ["estimate", path, "--method", method]
            if method == "mom":
                argv += ["--alpha1", "0.7"]
            code, out, err = run_cli(argv, capsys)
            assert code == 0 and err == ""
            reports.append(json.loads(out))
        assert reports[1]["unit"] == reports[0]["unit"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["mom", "skewvec", "tobi", "jade3", "lda", "pp"])
    def test_scores_beyond_double_range(self, tmp_path, capsys, method):
        # values around +-1.5e308: every method answers, MOM too, since it
        # scales before it centres; the report's scores (x - mean)'unit leave
        # double range, so it is refused, never printed with NaN or Infinity
        data = sample(mixture_params(), 300, np.random.default_rng(64))
        offset = np.where(np.arange(data.p) % 2, -1.5e308, 1.5e308)
        huge = type(data)(offset + 1e300 * data.observations, labels=data.labels)
        path = write_dataset(tmp_path / "huge.csv", huge, with_labels=True)
        argv = ["estimate", path, "--method", method]
        if method == "mom":
            argv += ["--alpha1", "0.7"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert stderr_payload(err)["error"] == "NonFiniteError"
        assert stderr_payload(err)["message"].startswith("a score (x - mean)'unit leaves")

    @pytest.mark.parametrize("e", [-600, 600, 1000])
    @pytest.mark.parametrize("method", ["mom", "skewvec", "tobi", "jade3", "lda", "pp"])
    def test_report_at_any_power_of_two_scale(self, tmp_path, capsys, method, e):
        # the README's sample times 2^e gives the unit-scale report, with
        # scores times 2^e and raw_norm times 2^-e, all exactly
        params = MixtureParams(alpha1=0.7, mu1=np.array([-0.6, 0.0, 0.0]),
                               mu2=np.array([1.4, 0.0, 0.0]), sigma=np.eye(3))
        data = sample(params, 5000, np.random.default_rng(7))
        reports = []
        for name, x in (("unit", data.observations), ("scaled", np.ldexp(data.observations, e))):
            path = write_dataset(tmp_path / f"{name}.csv", DataSet(x, labels=data.labels),
                                 with_labels=True)
            argv = ["estimate", path, "--method", method, "--seed", "1"]
            if method == "mom":
                argv += ["--alpha1", "0.7"]
            code, out, err = run_cli(argv, capsys)
            assert code == 0, err
            reports.append(json.loads(out))
        want, got = reports
        assert got["raw_norm"] == math.ldexp(want["raw_norm"], -e)
        assert got["scores"] == [math.ldexp(s, e) for s in want["scores"]]
        for key in ("raw_norm", "scores"):
            del want[key], got[key]
        assert got == want

    def test_report_layout(self, sample_csv, capsys):
        # one key per line, arrays inline
        code, out, _ = run_cli(["estimate", sample_csv, "--method", "tobi"], capsys)
        assert code == 0
        lines = out.splitlines()
        report = json.loads(out)
        assert lines[0] == "{" and lines[-1] == "}"
        assert len(lines) == len(report) + 2
        for line, (key, value) in zip(lines[1:-1], report.items()):
            assert line.rstrip(",") == f"  {json.dumps(key)}: {json.dumps(value)}"

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 100_000])
    def test_report_written_in_pieces(self, tmp_path, capsys, monkeypatch, n):
        # the scores go out in slices of 4,096 values, yet the bytes are the
        # whole report's json.dumps form, one key per line, on stdout and in
        # --output alike, and stdout stays open; a fixed unit lets one row through
        unit = np.array([0.6, -0.8])
        fixed = estimators.DirectionEstimate(raw=unit, unit=unit, method="TOBI",
                                             converged=True, iterations=0, raw_norm=1.0)
        monkeypatch.setitem(estimators.METHODS, "TOBI", estimators.METHODS["TOBI"]._replace(
            run=lambda data, alpha1, **fit: fixed))
        rng = np.random.default_rng(n)
        path = tmp_path / "wide.csv"
        np.savetxt(path, rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-200, 200, (n, 2)),
                   fmt="%.17g", delimiter=",", header="x0,x1", comments="")
        x = load_csv(str(path)).observations
        report = {"method": "TOBI", "n": n, "p": 2, "unit": unit.tolist(), "raw_norm": 1.0,
                  "converged": True, "iterations": 0, "notes": [],
                  "scores": ((x - x.mean(axis=0)) @ unit).tolist()}
        want = "{\n" + ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                                   for key, value in report.items()) + "\n}\n"
        code, out, _ = run_cli(["estimate", str(path), "--method", "tobi"], capsys)
        assert code == 0 and out == want
        assert not sys.stdout.closed
        code, out, _ = run_cli(["estimate", str(path), "--method", "tobi",
                                "--output", str(tmp_path / "r.json")], capsys)
        assert code == 0 and out == ""
        assert (tmp_path / "r.json").read_text(encoding="utf-8") == want

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["estimate", str(tmp_path / "nope.csv"), "--method", "tobi"],
            capsys)
        assert code == 2
        assert stderr_payload(err)["error"] == "UsageError"

    def test_lda_without_labels(self, sample_csv, capsys):
        code, _, err = run_cli(
            ["estimate", sample_csv, "--method", "lda"], capsys)
        assert code == 2
        assert stderr_payload(err)["error"] == "SupervisionRequiredError"

    def test_degenerate_sample(self, tmp_path, capsys):
        r = np.random.default_rng(62).standard_normal((100, 3))
        path = tmp_path / "sym.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "c"])
            for row in np.vstack([r, -r]):
                writer.writerow([repr(float(v)) for v in row])
        code, _, err = run_cli(
            ["estimate", str(path), "--method", "skewvec"], capsys)
        assert code == 1
        assert stderr_payload(err)["error"] == "DegenerateSkewnessError"

    @pytest.mark.parametrize("method", ["mom", "skewvec", "tobi", "jade3", "pp"])
    def test_degenerate_sample_refused_by_every_unsupervised_method(
            self, tmp_path, capsys, method):
        r = np.random.default_rng(62).standard_normal((100, 3))
        path = write_dataset(tmp_path / "sym.csv", DataSet(np.vstack([r, -r])))
        extra = ["--alpha1", "0.7"] if method == "mom" else []
        code, out, err = run_cli(["estimate", path, "--method", method] + extra, capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "DegenerateSkewnessError"

    def test_malformed_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\n3.0\n")
        code, _, err = run_cli(
            ["estimate", str(path), "--method", "tobi"], capsys)
        assert code == 1
        payload = stderr_payload(err)
        assert payload["error"] == "CsvFormatError"
        assert "line 3" in payload["message"]

    def test_non_finite_value(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,1.5\nnan,4.0\n")
        code, out, err = run_cli(
            ["estimate", str(path), "--method", "tobi"], capsys)
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1
        payload = stderr_payload(err)
        assert payload["error"] == "CsvFormatError"
        assert "line 4" in payload["message"]

    def test_every_method_matches_direct_call(self, labeled_csv, capsys):
        # each row of the method table runs its est_* function unchanged
        for tag, method in estimators.METHODS.items():
            fit = getattr(estimators, f"est_{tag.lower()}")
            data = load_csv(labeled_csv)
            argv = ["estimate", labeled_csv, "--method", tag.lower(), "--seed", "5"]
            if method.needs_alpha1:
                est = fit(data, 0.7)
                argv += ["--alpha1", "0.7"]
            elif tag in (estimators.JADE3, estimators.PP):
                est = fit(data, rng=np.random.default_rng(5))
            else:
                est = fit(data)
            code, out, err = run_cli(argv, capsys)
            assert code == 0, err
            report = json.loads(out)
            assert report["unit"] == est.unit.tolist(), tag
            assert report["iterations"] == est.iterations

    def test_seed_reproducible(self, sample_csv, capsys):
        argv = ["estimate", sample_csv, "--method", "jade3", "--seed", "3"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_unknown_method_rejected_by_parser(self, sample_csv):
        with pytest.raises(SystemExit):
            main(["estimate", sample_csv, "--method", "pca"])

    def test_round_trip_direction_quality(self, tmp_path, capsys):
        # median MSI against the true direction over 20 independent
        # datasets, fitting through the full CSV -> CLI -> JSON path
        params = mixture_params(tau=8.0)
        scores = []
        for seed in range(20):
            data = sample(params, 4000, np.random.default_rng(200 + seed))
            path = write_dataset(tmp_path / f"rt{seed}.csv", data)
            code, out, err = run_cli(
                ["estimate", path, "--method", "jade3"], capsys)
            assert code == 0, err
            unit = np.array(json.loads(out)["unit"])
            scores.append(msi(unit, np.array([1.0, 0.0, 0.0])))
        assert float(np.median(scores)) > 0.95


class TestConstants:
    def test_scalar_output(self, capsys):
        code, out, err = run_cli(
            ["constants", "--alpha1", "0.7", "--tau", "4", "--p", "3"],
            capsys)
        assert code == 0 and err == ""
        assert "42.37528344671205" in out
        assert "2.1904761904761902" in out
        assert "245.43451247165544" in out

    def test_full_matrices(self, capsys):
        code, out, _ = run_cli(
            ["constants", "--alpha1", "0.7",
             "--sigma", "1,0,0;0,1,0;0,0,1", "--h", "2,0,0"], capsys)
        assert code == 0
        assert out.count("limiting covariance") == 3
        assert "tau = 4.0" in out
        # the equivariant matrix here is diag(0, C0, C0)
        assert "42.375283" in out

    def test_tau_derived_and_checked(self, capsys):
        code, _, _ = run_cli(
            ["constants", "--alpha1", "0.7", "--tau", "4.0",
             "--sigma", "1,0;0,1", "--h", "2,0"], capsys)
        assert code == 0
        code, _, err = run_cli(
            ["constants", "--alpha1", "0.7", "--tau", "5.0",
             "--sigma", "1,0;0,1", "--h", "2,0"], capsys)
        assert code == 2
        assert "disagrees" in stderr_payload(err)["message"]

    @pytest.mark.parametrize("argv", [
        ["constants", "--alpha1", "0.7", "--tau", "4"],
        ["constants", "--alpha1", "0.7", "--p", "3"],
        ["constants", "--alpha1", "0.7", "--tau", "4", "--p", "3",
         "--sigma", "1,0;0,1"],
        ["constants", "--alpha1", "0.7", "--p", "3",
         "--sigma", "1,0;0,1", "--h", "2,0"],
        ["constants", "--alpha1", "0.7", "--tau", "4", "--p", "3",
         "--h", "1,0,oops"],
    ])
    def test_usage_errors(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert stderr_payload(err)["error"] == "UsageError"

    def test_out_of_range_tau_refused(self, capsys):
        code, _, err = run_cli(
            ["constants", "--alpha1", "0.7", "--tau", "1e308", "--p", "3"],
            capsys)
        assert code == 2
        assert stderr_payload(err)["error"] == "ValueError"

    def test_symmetric_weight_refused(self, capsys):
        code, _, err = run_cli(
            ["constants", "--alpha1", "0.5", "--tau", "4", "--p", "3"],
            capsys)
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "WeightDivergenceError"
        assert "0.5" in payload["message"]

    @pytest.mark.parametrize("sigma,codes,error", [
        ("1,0.5;0,1", {2}, "SymmetryError"),
        ("1,0;0,-1", {2}, "ValueError"),
        ("1,2;2,4", {2}, "ValueError"),
        ("1,0;0,1e-300", {1}, "NearSingularError"),
        ("1e200,5e199;0,1e200", {2}, "SymmetryError"),
    ], ids=["asymmetric", "indefinite", "singular", "near-singular", "asymmetric-huge"])
    def test_bad_sigma_prints_nothing(self, sigma, codes, error, capsys):
        code, out, err = run_cli(
            ["constants", "--alpha1", "0.7", "--sigma", sigma, "--h", "1,0"], capsys)
        assert code in codes and out == ""
        assert len(err.splitlines()) == 1
        assert error in (None, json.loads(err)["error"])

    @pytest.mark.parametrize("sigma,h,error", [
        ("1e200,0;0,1e200", "1e62,0", "NonFiniteError"),
        ("1e200,0;0,1e200", "1e100,0", "NonFiniteError"),
        ("1e250,0;0,1e250", "1e87,0", "NonFiniteError"),
    ], ids=["nan-covariance", "python-overflow", "warning"])
    def test_values_beyond_double_range_print_nothing(self, sigma, h, error, capsys):
        # finite input whose covariances overflow: one typed error, never a
        # NaN matrix, a traceback or a warning line (warnings fail the test)
        code, out, err = run_cli(
            ["constants", "--alpha1", "0.7", "--sigma", sigma, "--h", h], capsys)
        assert code in {1, 2} and out == ""
        assert len(err.splitlines()) == 1 and "nan" not in err
        assert error in (None, json.loads(err)["error"])

    @pytest.mark.parametrize("sigma,h,fragment", [
        ("1,0;0", "1,0", "square"),
        ("1,0;0,1", "1,0,0", "disagree"),
    ], ids=["ragged-sigma", "dimensions"])
    def test_malformed_sigma_or_h_named(self, sigma, h, fragment, capsys):
        code, out, err = run_cli(
            ["constants", "--alpha1", "0.7", "--sigma", sigma, "--h", h], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "UsageError"
        assert fragment in payload["message"]

    def test_symmetric_weight_refused_with_sigma(self, capsys):
        code, out, err = run_cli(
            ["constants", "--alpha1", "0.5", "--sigma", "1,0;0,1", "--h", "2,0"],
            capsys)
        assert code == 2 and out == ""
        assert stderr_payload(err)["error"] == "WeightDivergenceError"

    def test_non_finite_h_refused(self, capsys):
        code, out, err = run_cli(
            ["constants", "--alpha1", "0.7", "--sigma", "1,0;0,1", "--h", "inf,0"],
            capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ValueError"

    def test_unlisted_error_exits_1(self, monkeypatch, capsys):
        class Unlisted(Error):
            pass

        def raise_unlisted(args):
            raise Unlisted("no handler names this class")

        monkeypatch.setattr(cli, "_cmd_constants", raise_unlisted)
        code, out, err = run_cli(
            ["constants", "--alpha1", "0.7", "--tau", "4", "--p", "3"], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "Unlisted",
                                   "message": "no handler names this class"}


def write_config(path, **overrides):
    payload = dict(p=2, alpha_grid=[0.7], tau_grid=[8.0], n_grid=[300],
                   reps=6, master_seed=3, methods=["TOBI", "LDA"])
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return str(path)


class TestSimulate:
    def test_chat_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out_csv = tmp_path / "chat.csv"
        code, out, err = run_cli(
            ["simulate-chat", cfg, str(out_csv)], capsys)
        assert code == 0, err
        assert out.strip() == f"wrote 2 rows to {out_csv}"
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CHAT_COLUMNS
        assert len(rows) == 3
        assert {r[0] for r in rows[1:]} == {"TOBI", "LDA"}

    def test_msi_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", p=3,
                           sigma_mode="random-aat")
        out_csv = tmp_path / "msi.csv"
        code, out, _ = run_cli(["simulate-msi", cfg, str(out_csv)], capsys)
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == MSI_COLUMNS
        header = rows[0]
        msi_col = header.index("mean_msi")
        for r in rows[1:]:
            assert 0.0 < float(r[msi_col]) <= 1.0

    def test_deterministic_across_workers(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", reps=8)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["simulate-chat", cfg, str(a), "--workers", "1"],
                       capsys)[0] == 0
        assert run_cli(["simulate-chat", cfg, str(b), "--workers", "2"],
                       capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable CPUs to start a worker")
    def test_dead_worker_is_one_typed_error(self, tmp_path, capsys, monkeypatch):
        # a worker killed mid-run (out of memory, a signal) ends the run
        # with exit 1 and one JSON line, and leaves no process behind
        pid = os.getpid()
        replicates = montecarlo._replicates

        def dies_in_worker(*args):
            if os.getpid() != pid:
                os._exit(3)
            return replicates(*args)

        monkeypatch.setattr(montecarlo, "_replicates", dies_in_worker)
        cfg = write_config(tmp_path / "cfg.json")
        out_csv = tmp_path / "msi.csv"
        code, out, err = run_cli(["simulate-msi", cfg, str(out_csv), "--workers", "2"],
                                 capsys)
        assert code == 1 and out == "" and not out_csv.exists()
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "WorkerError"
        with pytest.raises(ChildProcessError):  # no child left, running or unreaped
            os.waitpid(-1, os.WNOHANG)

    def test_minimal_config_single_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", methods=["TOBI"], reps=10)
        out_csv = tmp_path / "one.csv"
        code, _, _ = run_cli(["simulate-chat", cfg, str(out_csv)], capsys)
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2

    def test_single_replicate_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", reps=1)
        code, _, err = run_cli(
            ["simulate-chat", cfg, str(tmp_path / "o.csv")], capsys)
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith("reps:")

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", extra=1)
        code, _, err = run_cli(
            ["simulate-chat", cfg, str(tmp_path / "o.csv")], capsys)
        assert code == 2
        assert "extra: unknown config field" in stderr_payload(err)["message"]

    def test_missing_config_field(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"p": 2}))
        code, _, err = run_cli(
            ["simulate-chat", str(path), str(tmp_path / "o.csv")], capsys)
        assert code == 2
        assert "missing config field" in stderr_payload(err)["message"]

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        code, _, err = run_cli(
            ["simulate-chat", str(path), str(tmp_path / "o.csv")], capsys)
        assert code == 2
        assert stderr_payload(err)["error"] == "ConfigError"

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["simulate-chat", str(tmp_path / "nope.json"),
             str(tmp_path / "o.csv")], capsys)
        assert code == 2
        assert stderr_payload(err)["error"] == "UsageError"

    def test_missing_output_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        code, _, err = run_cli(
            ["simulate-chat", cfg, str(tmp_path / "no_dir" / "o.csv")],
            capsys)
        assert code == 2
        assert stderr_payload(err)["error"] == "UsageError"

    def test_none_cells_serialized_empty(self, tmp_path, capsys):
        # MOM has no shared limiting constant: c_theory must be blank
        cfg = write_config(tmp_path / "cfg.json", methods=["MOM"])
        out_csv = tmp_path / "chat.csv"
        run_cli(["simulate-chat", cfg, str(out_csv)], capsys)
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["c_theory"] == ""

    def test_c_theory_blank_where_constants_diverge(self, tmp_path, capsys):
        # every constant diverges within asymptotics.WEIGHT_MARGIN of 0.5
        cfg = write_config(tmp_path / "cfg.json", alpha_grid=[0.5 + 1e-7])
        out_csv = tmp_path / "chat.csv"
        assert run_cli(["simulate-chat", cfg, str(out_csv)], capsys)[0] == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["method"] for row in rows] == ["LDA", "TOBI"]
        assert all(row["c_theory"] == "" for row in rows)

    @pytest.mark.parametrize("payload,extra,error,fragment", [
        (None, ["--workers", "0"], "ConfigError", "workers:"),
        ([{"p": 2}], [], "ConfigError", "top level"),
    ], ids=["no-workers", "list-config"])
    def test_refused_before_any_replicate(self, tmp_path, capsys, payload, extra,
                                          error, fragment):
        cfg = tmp_path / "cfg.json"
        if payload is None:
            write_config(cfg)
        else:
            cfg.write_text(json.dumps(payload))
        out_csv = tmp_path / "o.csv"
        code, out, err = run_cli(["simulate-chat", str(cfg), str(out_csv)] + extra, capsys)
        assert code == 2 and out == "" and not out_csv.exists()
        assert len(err.splitlines()) == 1
        report = json.loads(err)
        assert report["error"] == error
        assert fragment in report["message"]

    @pytest.mark.parametrize("field,value", [
        ("alpha_grid", ["x"]),
        ("tau_grid", [1e308]),
        ("methods", "TOBI"),
        ("master_seed", True),
    ])
    def test_config_types_refused(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path / "cfg.json", **{field: value})
        code, out, err = run_cli(
            ["simulate-chat", cfg, str(tmp_path / "o.csv")], capsys)
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith(f"{field}:")


@pytest.mark.parametrize("argv,code", [
    (["constants", "--alpha1", "0.7", "--tau", "4", "--p", "3"], 0),
    (["constants", "--alpha1", "0.5", "--tau", "4", "--p", "3"], 2),
], ids=["ok", "refused"])
def test_module_entry_point(argv, code):
    # the README names python3 -m skewdisc.cli; its exit code is main's
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "skewdisc.cli"] + argv,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == code, done.stderr
    if code:
        assert done.stdout == ""
        assert json.loads(done.stderr)["error"] == "WeightDivergenceError"
    else:
        assert done.stdout.splitlines()[0] == "alpha1 = 0.7, tau = 4.0, p = 3"
        assert done.stderr == ""
