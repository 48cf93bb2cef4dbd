"""Command line interface, exercised in-process through main()."""

import csv
import hashlib
import io
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
        # a quoted field that spans lines is one record, named by its first line
        ('x,y\n"1\n",2\n3,nan\n', 4),
        ('x,y\n"1\n",2\n3,oops\n', 4),
        # the first record that fails, for any reason
        ("x,y\n1,2\nnan,3\n4,5\noops,6\n", 3),
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

    @pytest.mark.parametrize("content", [
        b'x,"y\nz",label\n1,2,1\n3,5,-1\n4,9,1\n',
        b'x,"y\r\nz",label\r\n1,2,1\r\n3,5,-1\r\n',
        b'"x\n",y\n1,2\n3,5\n',
    ], ids=["closed-on-line-2", "crlf", "closed-at-once"])
    def test_header_quote_left_open(self, tmp_path, capsys, content):
        # numpy would read the header past line 1; the body's line 2 is not to blame
        path = tmp_path / "mh.csv"
        path.write_bytes(content)
        code, out, err = run_cli(["estimate", str(path), "--method", "tobi"], capsys)
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert stderr_payload(err) == {
            "error": "CsvFormatError",
            "message": f"{path}: line 1: a quoted header field spans lines"}


def cache_text(kind):
    """A 300-row CSV of repr floats: labelled, unlabelled, every field quoted, or
    labelled behind a UTF-8 byte-order mark."""
    x = np.random.default_rng(70).standard_normal((300, 2)) * [1.0, 1e-5]
    rows = [[repr(a), repr(b), "1" if a > 0 else "-1"] for a, b in x.tolist()]
    header = ["x", "y", "label"]
    if kind == "unlabelled":
        header, rows = header[:2], [row[:2] for row in rows]
    if kind == "quoted":
        header, rows = [f'"{c}"' for c in header], [[f'"{c}"' for c in row] for row in rows]
    return "\n".join(",".join(row) for row in [header] + rows) + "\n"


def loaded(path):
    """The data bit for bit and the labels."""
    ds = load_csv(str(path))
    return (ds.observations.shape, ds.observations.view(np.int64).tolist(),
            None if ds.labels is None else ds.labels.tolist())


def cache_dir():
    return os.path.join(os.environ["XDG_CACHE_HOME"], "skewdisc")


def entry_of(path):
    """The cache file that the bytes at path name."""
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return os.path.join(cache_dir(), f"{digest}-{cli._CACHE_VERSION}.npy")


def npy(table):
    out = io.BytesIO()
    np.save(out, table)
    return out.getvalue()


class TestCsvCache:
    """A file of cli._CACHE_BYTES or more keeps its parsed table in the cache,
    named by the digest of its bytes; here every file is that large."""

    @pytest.fixture(autouse=True)
    def every_file_cached(self, monkeypatch):
        monkeypatch.setattr(cli, "_CACHE_BYTES", 1)

    @pytest.mark.parametrize("kind", ["labelled", "unlabelled", "quoted", "marked"])
    def test_cold_and_warm_give_the_same_bits(self, tmp_path, kind):
        path = tmp_path / "c.csv"
        path.write_text(cache_text(kind), encoding="utf-8-sig" if kind == "marked" else "utf-8")
        cold = loaded(path)
        assert os.listdir(cache_dir()) == [os.path.basename(entry_of(path))]
        assert loaded(path) == cold
        assert cold[0] == (300, 2) and (cold[2] is None) == (kind == "unlabelled")

    def test_a_hit_parses_nothing_from_any_path(self, tmp_path, monkeypatch):
        # the same bytes at another path hit; the same path with new bytes does not
        path, copy = tmp_path / "a.csv", tmp_path / "b.csv"
        path.write_text(cache_text("labelled"))
        copy.write_bytes(path.read_bytes())
        forked, loadtxt, asked, reads = cli._forked, cli._loadtxt, [], []

        def counted(run, k):
            asked.append(k)
            return forked(run, k)

        def counted_loadtxt(*args, **options):
            reads.append(options.get("dtype"))
            return loadtxt(*args, **options)

        monkeypatch.setattr(cli, "_SHARE_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(cli, "_forked", counted)
        monkeypatch.setattr(cli, "_loadtxt", counted_loadtxt)
        cold = loaded(path)
        assert asked == [3]
        reads.clear()
        assert loaded(copy) == cold
        assert asked == [3] and reads == [str]  # the header alone
        text = cache_text("labelled").replace("e-", "e+", 1)
        path.write_text(text)
        assert loaded(path) != cold
        assert asked == [3, 3] and len(os.listdir(cache_dir())) == 2

    @pytest.mark.parametrize("spoil", [
        lambda raw, table: raw[:-8],
        lambda raw, table: npy(table[:, :2]),
        lambda raw, table: npy(np.where(table == table.max(), np.nan, table)),
        lambda raw, table: npy(table[:0]),
        lambda raw, table: npy(table.astype(np.float32)),
        lambda raw, table: b"x,y,label\n1,2,1\n",
    ], ids=["truncated", "wrong-width", "non-finite", "no-rows", "float32", "not-npy"])
    def test_a_bad_entry_is_a_miss_and_is_written_again(self, tmp_path, spoil):
        path = tmp_path / "c.csv"
        path.write_text(cache_text("labelled"))
        cold = loaded(path)
        entry = entry_of(path)
        with open(entry, "rb") as fh:
            raw = fh.read()
        spoilt = spoil(raw, np.load(entry))
        with open(entry, "wb") as fh:
            fh.write(spoilt)
        assert loaded(path) == cold
        with open(entry, "rb") as fh:
            assert fh.read() == raw
        assert os.listdir(cache_dir()) == [os.path.basename(entry)]

    @pytest.mark.parametrize("block", ["root-is-a-file", "entry-is-a-directory"])
    def test_a_cache_that_cannot_be_written_changes_nothing(self, tmp_path, capsys,
                                                            monkeypatch, block):
        path = tmp_path / "c.csv"
        path.write_text(cache_text("labelled"))
        want = run_cli(["estimate", str(path), "--method", "lda"], capsys)
        assert want[0] == 0 and want[2] == ""
        if block == "root-is-a-file":
            (tmp_path / "file").write_text("")
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other"))
            os.makedirs(entry_of(path))
        for _ in range(2):
            assert run_cli(["estimate", str(path), "--method", "lda"], capsys) == want
        if block == "entry-is-a-directory":
            assert os.listdir(cache_dir()) == [os.path.basename(entry_of(path))]

    @pytest.mark.parametrize("body,message", [
        ("1,2\n3,oops\n", "line 3: non-numeric feature value"),
        ("1,2\n3,nan\n", "line 3: non-finite feature value"),
        ("\n", "line 2: no data rows"),
    ], ids=["bad-value", "non-finite", "no-rows"])
    def test_a_failing_csv_writes_nothing(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n" + body)
        with pytest.raises(CsvFormatError, match=message):
            load_csv(str(path))
        assert not os.path.exists(cache_dir())

    def test_a_file_below_the_threshold_writes_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "c.csv"
        path.write_text(cache_text("labelled"))
        monkeypatch.setattr(cli, "_CACHE_BYTES", path.stat().st_size + 1)
        loaded(path)
        assert not os.path.exists(cache_dir())
        monkeypatch.setattr(cli, "_CACHE_BYTES", path.stat().st_size)
        loaded(path)
        assert os.path.exists(entry_of(path))

    def test_a_file_changed_during_the_parse_writes_nothing(self, tmp_path, monkeypatch):
        # its bytes may no longer be those the digest was taken of
        path = tmp_path / "c.csv"
        path.write_text(cache_text("labelled"))
        cuts = cli._cuts

        def touched(*args):
            os.utime(path, ns=(1, 1))
            return cuts(*args)

        monkeypatch.setattr(cli, "_cuts", touched)
        loaded(path)
        assert not os.path.exists(cache_dir())

    def test_a_same_size_rewrite_during_the_parse_writes_nothing(self, tmp_path, monkeypatch):
        # the same file, size and mtime with other bytes: only a digest taken
        # again after the parse tells them apart
        path = tmp_path / "c.csv"
        path.write_text(cache_text("labelled"))
        rows, mtime = path.read_bytes().splitlines(keepends=True), path.stat().st_mtime_ns
        assert rows[-1] != rows[-2]
        cuts = cli._cuts

        def rewritten(*args):
            with open(path, "r+b") as fh:  # in place, past what the header read holds
                fh.write(b"".join(rows[:-2] + rows[:-3:-1]))
            os.utime(path, ns=(mtime, mtime))
            return cuts(*args)

        monkeypatch.setattr(cli, "_cuts", rewritten)
        loaded(path)
        assert path.stat().st_mtime_ns == mtime
        assert not os.path.exists(cache_dir())

    def test_the_most_recently_used_entries_survive(self, tmp_path):
        paths = []
        for i in range(11):
            paths.append(tmp_path / f"c{i}.csv")
            paths[-1].write_text(f"x,y\n{i},1\n2,3\n")
        for i, path in enumerate(paths[:10]):
            loaded(path)
            # mtimes far apart, which a coarse file system clock may not give
            os.utime(entry_of(path), ns=(0, (i + 1) * 10 ** 9))
        survivors = sorted(os.listdir(cache_dir()))
        assert survivors == sorted(os.path.basename(entry_of(p)) for p in paths[2:10])
        loaded(paths[2])  # a hit marks its entry as just used
        loaded(paths[10])
        survivors = sorted(os.listdir(cache_dir()))
        assert survivors == sorted(os.path.basename(entry_of(p))
                                   for p in paths[2:3] + paths[4:11])


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4095, 4096, 4097, 8193, 100_000])
    def test_report_written_in_pieces(self, tmp_path, capsys, monkeypatch, n):
        # the scores are formatted in slices of 4,096 values, one range per share,
        # yet the bytes are the whole report's json.dumps form, one key per line,
        # on stdout and in --output alike, for any share count, and stdout stays
        # open; a fixed unit lets one row through
        unit = np.array([0.6, -0.8])
        fixed = estimators.DirectionEstimate(unit=unit, method="TOBI", converged=True,
                                             iterations=0, raw_norm=1.0)
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
        forked, asked = cli._forked, []

        def counted(run, k):
            asked.append(k)
            return forked(run, k)

        monkeypatch.setattr(cli, "_forked", counted)
        # (usable CPUs, least scores per share, fork present) and the scores' share
        # count: one CPU, or no fork, keeps the formatting in this process
        for cpus, least, fork, k in ((1, 1, True, 1), (3, 1, True, min(n, 3)),
                                     (64, 1, True, min(n, 64)), (64, 1, False, 1)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            monkeypatch.setattr(cli, "_SCORE_SHARE", least)
            if not fork:
                monkeypatch.delattr(os, "fork")
            code, out, _ = run_cli(["estimate", str(path), "--method", "tobi"], capsys)
            assert code == 0 and out == want
            assert not sys.stdout.closed
            assert asked[-1] == k  # the report's call, after any the parse made
            code, out, _ = run_cli(["estimate", str(path), "--method", "tobi",
                                    "--output", str(tmp_path / "r.json")], capsys)
            assert code == 0 and out == ""
            assert (tmp_path / "r.json").read_text(encoding="utf-8") == want
            assert asked[-1] == k

    def test_dead_formatting_worker_is_one_typed_error(self, tmp_path, capsys, monkeypatch):
        # a process formatting a share of the scores killed (out of memory, a
        # signal) ends estimate with exit 1 and one JSON line; nothing is written,
        # an existing report keeps its bytes, and no process is left behind
        path = tmp_path / "dies.csv"
        path.write_text("x,y\n" + "1.5,-2.5\n2,1\n0.5,3\n" * 20)
        pid, dumps = os.getpid(), json.dumps

        def dies_in_child(*args, **options):
            if os.getpid() != pid:
                os.kill(os.getpid(), 9)
            return dumps(*args, **options)

        monkeypatch.setattr(cli, "_SCORE_SHARE", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(json, "dumps", dies_in_child)
        old = tmp_path / "old.json"
        old.write_bytes(b"an earlier report\n")
        for output in (None, tmp_path / "new.json", old):
            code, out, err = run_cli(["estimate", str(path), "--method", "tobi"]
                                     + ([] if output is None else ["--output", str(output)]),
                                     capsys)
            assert code == 1 and out == ""
            assert len(err.splitlines()) == 1
            assert stderr_payload(err)["error"] == "WorkerError"
        assert not (tmp_path / "new.json").exists()
        assert old.read_bytes() == b"an earlier report\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["estimate", str(tmp_path / "nope.csv"), "--method", "tobi"],
            capsys)
        assert code == 2
        assert stderr_payload(err)["error"] == "UsageError"

    def test_missing_output_directory_refused_before_parsing(self, sample_csv, tmp_path,
                                                             capsys, monkeypatch):
        def parse(path):
            raise AssertionError("the CSV was parsed before the output path was checked")

        monkeypatch.setattr(cli, "load_csv", parse)
        code, out, err = run_cli(["estimate", sample_csv, "--method", "tobi", "--output",
                                  str(tmp_path / "no_dir" / "r.json")], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert stderr_payload(err)["error"] == "UsageError"

    def test_output_path_that_is_a_directory_refused_before_parsing(self, sample_csv,
                                                                    tmp_path, capsys,
                                                                    monkeypatch):
        def parse(path):
            raise AssertionError("the CSV was parsed before the output path was checked")

        monkeypatch.setattr(cli, "load_csv", parse)
        code, out, err = run_cli(["estimate", sample_csv, "--method", "tobi", "--output",
                                  str(tmp_path)], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert stderr_payload(err)["error"] == "UsageError"

    def test_two_label_columns_refused(self, tmp_path, capsys):
        rng = np.random.default_rng(62)
        path = tmp_path / "two-labels.csv"
        np.savetxt(path, np.column_stack([rng.standard_normal((200, 2)),
                                          rng.choice([-1, 1], 200), rng.exponential(size=200)]),
                   fmt="%.17g", delimiter=",", header="x,y,label,label", comments="")
        code, out, err = run_cli(["estimate", str(path), "--method", "tobi"], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert stderr_payload(err) == {
            "error": "CsvFormatError",
            "message": f"{path}: line 1: more than one 'label' column"}

    def test_lda_without_labels(self, sample_csv, capsys):
        code, _, err = run_cli(
            ["estimate", sample_csv, "--method", "lda"], capsys)
        assert code == 2
        assert stderr_payload(err)["error"] == "SupervisionRequiredError"
        assert "'label' column of -1 and 1" in stderr_payload(err)["message"]

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

    @pytest.mark.parametrize("rows,code,error,message", [
        ("1,2\n1,2\n1,2\n", 1, "DegenerateSkewnessError", "sample third moment is numerically zero"),
        ("0.1,0.7\n" * 7, 1, "DegenerateSkewnessError", "sample third moment is numerically zero"),
        ("1,2\n", 2, "ValueError", "need at least 2 observations"),
    ], ids=["constant", "constant-rounded-mean", "one-row"])
    def test_mom_refuses_a_constant_or_one_row_sample(self, tmp_path, capsys, rows, code,
                                                      error, message):
        # a constant sample centres to zeros, or to the one rounding residual
        # of its mean in every row (seven rows of 0.1, 0.7), and counts as
        # symmetric; a single row has no moments at all
        path = tmp_path / "flat.csv"
        path.write_text("x,y\n" + rows)
        got, out, err = run_cli(
            ["estimate", str(path), "--method", "mom", "--alpha1", "0.7"], capsys)
        assert got == code and out == ""
        assert len(err.splitlines()) == 1
        assert stderr_payload(err)["error"] == error
        assert stderr_payload(err)["message"].startswith(message)

    @pytest.mark.parametrize("x", [0.1, 1.0], ids=["rounded-mean", "exact-mean"])
    @pytest.mark.parametrize("with_labels", [False, True], ids=["unlabeled", "labeled"])
    def test_constant_column_refused_alike_by_every_method(self, tmp_path, capsys, x,
                                                           with_labels):
        # one constant column beside a skewed one: a singular covariance,
        # whether or not the column's mean rounds, that no method may answer
        y = np.random.default_rng(3).exponential(size=100)
        data = DataSet(np.column_stack([np.full(100, x), y]), labels=np.where(y > 1.0, 1, -1))
        path = write_dataset(tmp_path / "flat.csv", data, with_labels=with_labels)
        methods = ["mom", "skewvec", "tobi", "jade3", "pp"] + ["lda"] * with_labels
        for method in methods:
            extra = ["--alpha1", "0.7"] if method == "mom" else []
            code, out, err = run_cli(["estimate", path, "--method", method] + extra, capsys)
            assert code == 1 and out == "", method
            assert len(err.splitlines()) == 1, method
            assert json.loads(err)["error"] == "NearSingularError", method

    def test_one_constant_column_refused_by_every_method(self, tmp_path, capsys):
        # seven rows of 0.1: the mean rounds, so the 1 x 1 covariance is the
        # square of its residual, which no relative eigenvalue floor can see
        data = DataSet(np.full((7, 1), 0.1), labels=np.array([1, -1, 1, -1, 1, -1, 1]))
        path = write_dataset(tmp_path / "flat.csv", data, with_labels=True)
        for method, error in [("mom", "DegenerateSkewnessError")] + [
                (m, "NearSingularError") for m in ("skewvec", "tobi", "jade3", "lda", "pp")]:
            extra = ["--alpha1", "0.7"] if method == "mom" else []
            code, out, err = run_cli(["estimate", path, "--method", method] + extra, capsys)
            assert code == 1 and out == "", method
            assert len(err.splitlines()) == 1, method
            assert json.loads(err)["error"] == error, method

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
            argv = ["estimate", labeled_csv, "--method", tag.lower()]
            if method.needs_alpha1:
                est = fit(data, 0.7)
                argv += ["--alpha1", "0.7"]
            else:
                est = fit(data)
            code, out, err = run_cli(argv, capsys)
            assert code == 0, err
            report = json.loads(out)
            assert report["unit"] == est.unit.tolist(), tag
            assert report["iterations"] == est.iterations

    @pytest.mark.parametrize("method", ["jade3", "pp"])
    def test_seed_is_accepted_and_changes_nothing(self, sample_csv, capsys, method):
        # no method draws random numbers: --seed is still parsed, so old
        # command lines run, and the report is the same bytes with or without it
        reports = set()
        for seed in (["--seed", "3"], ["--seed", "4"], []):
            code, out, err = run_cli(["estimate", sample_csv, "--method", method, *seed], capsys)
            assert code == 0, err
            reports.add(out)
        assert len(reports) == 1

    def test_unknown_method_rejected_by_parser(self, sample_csv, capsys):
        # argparse's own refusals are one JSON line too, not its usage text
        for argv, fragment in (
                (["estimate", sample_csv, "--method", "pca"], "invalid choice: 'pca'"),
                (["estimate", sample_csv], "required: --method"),
                (["estimate", sample_csv, "--method", "jade3", "--max-iter", "abc"],
                 "invalid int value: 'abc'"),
                ([], "required: subcommand")):
            code, out, err = run_cli(argv, capsys)
            assert code == 2 and out == "", argv
            assert len(err.splitlines()) == 1, argv
            assert json.loads(err)["error"] == "UsageError"
            assert fragment in json.loads(err)["message"]

    @pytest.mark.parametrize("argv", [["--help"], ["estimate", "--help"]])
    def test_help_still_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: skewdisc")

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

    @pytest.mark.parametrize("e", [-600, 600, 1000])
    def test_covariances_at_any_power_of_two_scale(self, e, capsys):
        # Sigma s, h sqrt(s) with s = 2^e: the same tau and the same
        # covariances as at s = 1, although ||h||^4 and trace(Sigma^2) leave
        # double range
        def argv(s, k):
            return ["constants", "--alpha1", "0.7", "--sigma",
                    f"{2 * s!r},{0.5 * s!r};{0.5 * s!r},{s!r}", "--h", f"{2 * k!r},{k!r}"]

        code, want, _ = run_cli(argv(1.0, 1.0), capsys)
        assert code == 0 and "tau = 2.2857142857142856" in want
        code, got, err = run_cli(argv(math.ldexp(1.0, e), math.ldexp(1.0, e // 2)), capsys)
        assert code == 0 and err == "" and got == want

    @pytest.mark.parametrize("sigma,h", [
        ("1e200,0;0,1e200", "1e62,0"),
        ("1e200,0;0,1e200", "1e100,0"),
        ("1e250,0;0,1e250", "1e87,0"),
    ], ids=["tau-1e-76", "tau-1", "tau-1e-76-huge"])
    def test_huge_sigma_prints_its_unit_scale_twin(self, sigma, h, capsys):
        # Sigma 4^-k and h 2^-k, exact in binary, have the same tau and
        # covariances, so finite input far from unit scale answers as its
        # twin does: no typed error, no NaN, no warning (warnings fail the test)
        rows = [[float(v) for v in row.split(",")] for row in sigma.split(";")]
        k = math.frexp(max(map(max, rows)))[1] // 2
        twin_sigma = ";".join(",".join(repr(math.ldexp(v, -2 * k)) for v in row)
                              for row in rows)
        twin_h = ",".join(repr(math.ldexp(float(v), -k)) for v in h.split(","))
        code, want, _ = run_cli(
            ["constants", "--alpha1", "0.7", "--sigma", twin_sigma, "--h", twin_h], capsys)
        assert code == 0 and "nan" not in want
        code, got, err = run_cli(
            ["constants", "--alpha1", "0.7", "--sigma", sigma, "--h", h], capsys)
        assert code == 0 and err == "" and got == want

    @pytest.mark.parametrize("p", [10 ** 80, 10 ** 400], ids=["inf", "python-overflow"])
    def test_values_beyond_double_range_print_nothing(self, p, capsys):
        # C[SKEWVEC] grows as p / tau^3: at tau = 1e-77 it is about
        # 3e233 p, beyond double range at these p; one typed error, never
        # an inf, a traceback or a warning line
        code, out, err = run_cli(
            ["constants", "--alpha1", "0.7", "--tau", "1e-77", "--p", str(p)], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "nan" not in err and "inf" not in err
        assert json.loads(err)["error"] == "NonFiniteError"

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

    @pytest.mark.parametrize("alpha1", ["1.5", "0.2", "nan"])
    @pytest.mark.parametrize("mixture", [["--tau", "4", "--p", "3"],
                                         ["--sigma", "1,0;0,1", "--h", "2,0"]],
                             ids=["tau", "sigma"])
    def test_non_weight_refused_as_a_value(self, alpha1, mixture, capsys):
        code, out, err = run_cli(["constants", "--alpha1", alpha1, *mixture], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "message": f"alpha1 must be in (0.5, 1), got {float(alpha1)}"}

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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sample_beyond_memory_is_one_typed_error(self, tmp_path, capsys, workers):
        # 10^16 rows fail at the first allocation, of 10^16 bytes (8.9 PiB), so
        # nothing near the machine's memory is touched; 2 workers go through _forked
        cfg = write_config(tmp_path / "cfg.json", n_grid=[10 ** 16], methods=["TOBI"])
        out_csv = tmp_path / "chat.csv"
        code, out, err = run_cli(["simulate-chat", cfg, str(out_csv), "--workers", workers],
                                 capsys)
        assert code == 1 and out == "" and not out_csv.exists()
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "MemoryError"

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
        # the first required field in sorted order; sigma_mode has a default
        assert stderr_payload(err)["message"] == "alpha_grid: missing config field"

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

    def test_missing_output_directory(self, tmp_path, capsys, monkeypatch):
        def experiment(config, workers):
            raise AssertionError("the experiment ran before the output path was checked")

        monkeypatch.setattr(cli, "chat_experiment", experiment)
        cfg = write_config(tmp_path / "cfg.json")
        code, out, err = run_cli(
            ["simulate-chat", cfg, str(tmp_path / "no_dir" / "o.csv")],
            capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert stderr_payload(err)["error"] == "UsageError"

    def test_output_path_that_is_a_directory(self, tmp_path, capsys, monkeypatch):
        def experiment(config, workers):
            raise AssertionError("the experiment ran before the output path was checked")

        monkeypatch.setattr(cli, "chat_experiment", experiment)
        cfg = write_config(tmp_path / "cfg.json")
        code, out, err = run_cli(["simulate-chat", cfg, str(tmp_path)], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
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
