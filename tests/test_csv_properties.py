"""Property tests of the CSV loader: exact round trips and typed failures,
the same whether the body is parsed in one process or in forked shares."""

import contextlib
import json
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from skewdisc import cli
from skewdisc.cli import CsvFormatError, load_csv, main

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None,
                             suppress_health_check=[HealthCheck.function_scoped_fixture])

matrices = arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                  elements=st.floats(allow_nan=False, allow_infinity=False))

#: Characters that steer the parser: separators, quotes, number pieces,
#: whitespace that is not a line break, and spellings only float() reads.
csv_text = st.text(
    st.sampled_from(list('0123456789,,,\n\n\r"" .+-eEinfa_#\t\x0c\x00 \xa0٣'))
    | st.characters(exclude_categories=("Cs",)),
    max_size=40)


@contextlib.contextmanager
def shares(cpus=3):
    """load_csv cuts any body into up to cpus forked shares; yields the share
    counts it forked for."""
    forked, asked = cli._forked, []

    def counted(run, k):
        asked.append(k)
        return forked(run, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_SHARE_BYTES", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        mp.setattr(cli, "_forked", counted)
        yield asked


def outcome(path):
    """The data bit for bit and the labels, or the error text."""
    try:
        ds = load_csv(str(path))
    except CsvFormatError as exc:
        return str(exc)
    return (ds.observations.shape, ds.observations.view(np.int64).tolist(),
            None if ds.labels is None else ds.labels.tolist())


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@PROPERTY_SETTINGS
@given(matrix=matrices, data=st.data())
def test_repr_round_trip_is_exact(tmp_path, matrix, data):
    labels = data.draw(st.none() | st.lists(st.sampled_from(["-1", "1", "+1"]),
                                            min_size=len(matrix), max_size=len(matrix)))
    header = [f"x{j}" for j in range(matrix.shape[1])]
    rows = [[repr(float(v)) for v in row] for row in matrix]
    if labels is not None:
        header.append("label")
        rows = [row + [label] for row, label in zip(rows, labels)]
    path = tmp_path / "round.csv"
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    ds = load_csv(str(path))
    assert ds.observations.shape == matrix.shape
    # bit for bit, so -0.0 and the last ulp count
    np.testing.assert_array_equal(ds.observations.view(np.int64), matrix.view(np.int64))
    if labels is not None:
        np.testing.assert_array_equal(ds.labels, [int(v) for v in labels])
    serial = outcome(path)
    with shares(cpus=64) as asked:  # so that the header's line ends a share
        assert outcome(path) == serial
    assert len(asked) == 1 and asked[0] >= 2


@PROPERTY_SETTINGS
@given(header=st.sampled_from(["x\n", "x,y\n", "x,label\n", "label,x,y\n", '"x","label"\n']),
       body=csv_text)
def test_any_body_gives_data_or_a_line(tmp_path, header, body):
    path = tmp_path / "fuzz.csv"
    path.write_text(header + body, encoding="utf-8", newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ds = load_csv(str(path))
        except CsvFormatError as exc:
            found = re.search(rf"^{re.escape(str(path))}: line (\d+): ", str(exc))
            assert found
            # the rows before the named line load: the error is at that line
            with open(path, encoding="utf-8", newline="") as fh:
                lines = fh.readlines()[:int(found[1]) - 1]
            cut = tmp_path / "cut.csv"
            cut.write_text("".join(lines), encoding="utf-8", newline="")
            before = outcome(cut)
            assert isinstance(before, tuple) or before == f"{cut}: line 2: no data rows"
        else:
            assert ds.n >= 1 and np.isfinite(ds.observations).all()
        serial = outcome(path)
        with shares():
            assert outcome(path) == serial


@pytest.mark.parametrize("content,split", [
    (b"x,y\r\n1.0,2.0\r\n\r\n3.0,4.0\r\n5,6\r\n", True),
    (b"x,y\r1.0,2.0\r\r3.0,4.0\r5,6\r", False),  # no "\n" to cut after
    (b"x,y\r1,2\r3,4\n5,6\r\n7,8\r9,10\n11,12", True),
    (b"x,label\n1,-1\n3,1\n5,+1\n7,-1\n", True),
    (b"x,y\n1,2\n3,4\n5,6\n7,\"8\"\n", False),  # a quote keeps the body whole
    (b"x,y\n1,2\n3,4\n5,6\n7,oops\n", True),  # a bad line in a child's share
    (b"x,y\n1,2\n3,4\n5,6\n7,8,9\n", True),
    (b"x,y\n1,2\n3,4\n5,6\n7,nan\n", True),
    (b"x,label\n1,1\n3,-1\n5,1\n7,1.0\n", True),
    (b"x,y\n1,2\n3,4\n5,6\n\n\n\n", True),
    (b"x,y\n1,2\nnan,3\n4,5\noops,6\n", True),  # the first bad line, not the last
    (b'x\n"1\n"1E--"#\ri"1\n"3', False),
    (b'x,y\n1"a,"2\n3",4\n', False),
], ids=["crlf", "lone-cr", "mixed-endings", "labels", "quote",
        "bad-value-in-child", "bad-width-in-child", "nan-in-child", "bad-label-in-child",
        "blank-tail", "nan-before-bad-value", "stray-quotes", "stray-quote-in-field"])
def test_shares_give_the_serial_result(tmp_path, content, split):
    path = tmp_path / "shares.csv"
    path.write_bytes(content)
    serial = outcome(path)
    with shares() as asked:
        assert outcome(path) == serial
    assert (asked != []) == split
    assert_no_child_left()


@pytest.mark.parametrize("content,want", [
    (b'x\n"1\n"1E--"#\ri"1\n"3', "line 2: non-numeric feature value"),
    (b'x,y\n1"a,"2\n3",4\n', "line 2: expected 2 fields, got 3"),
    (b'x,y\n1"a,"2\n\xff3",4\n', "line 2: not valid UTF-8"),
    (b'x,y\n1,2\n3"a,"4\n5",6\n7,8\n', "line 3: expected 2 fields, got 3"),
], ids=["stray-quotes", "stray-quote-in-field", "stray-quote-then-bytes", "stray-quote-after-a-row"])
def test_a_stray_quote_gives_the_reason_for_numpys_row(tmp_path, content, want):
    # a '"' inside a field opens no quoted field, but one that starts a field
    # does: numpy reads the lines up to its closing '"' as one row, which is
    # named by its first line and diagnosed whole
    path = tmp_path / "stray.csv"
    path.write_bytes(content)
    assert outcome(path) == f"{path}: {want}"


def parse_floats(source):
    return cli._loadtxt(source, dtype=float, ndmin=2)


@pytest.mark.parametrize("content,found", [
    (b'x,y\n1,2\n"3\n\n4",5\n6,7\n', (3, ['"3\n', "\n", '4",5\n'])),
    (b"x,y\n1,2\n\n\n3,oops\n5,6\n", (5, ["3,oops\n"])),
    (b"x,y\r\n1,2\r\n3,4\r\n5,oops\r\n", (4, ["5,oops\n"])),
    (b"x,y\r1,2\r3,4\r5,oops\r", (4, ["5,oops\n"])),
    (b"x,y\noops,1\n2,3\n", (2, ["oops,1\n"])),
], ids=["quoted-field-over-a-blank-line", "blank-lines-before", "crlf", "lone-cr", "first-row"])
def test_first_failing_takes_numpys_row(tmp_path, content, found):
    # numpy's reader, given max_rows, takes no line past its last row: the
    # lines the one-row read takes are the failing row's, and no other's
    path = tmp_path / "rows.csv"
    path.write_bytes(content)
    assert cli._first_failing(str(path), parse_floats) == found


def test_first_failing_reads_the_body_once(tmp_path, monkeypatch):
    # one forward pass: the file opened once, and parse given each row's lines
    # alone, up to and including the first bad row
    path = tmp_path / "once.csv"
    rows = [f"{i},1\n" for i in range(1000)]
    rows[499] = "oops,1\n"
    path.write_text("x,y\n" + "".join(rows))
    opened, given = [], []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    def spy(source):
        given.append(source)
        return parse_floats(source)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    assert cli._first_failing(str(path), spy) == (501, ["oops,1\n"])
    assert len(opened) == 1
    assert given == [[row] for row in rows[:500]]


def test_bad_line_in_a_child_share_keeps_its_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n" + "1.5,-2.5\n" * 50 + "\n" + "3.0,oops\n" + "1,2\n" * 5)
    with shares(cpus=2) as asked:
        assert outcome(path) == f"{path}: line 53: non-numeric feature value"
    assert asked == [2]


@pytest.mark.parametrize("content,line", [
    (b"x,y\n1,2\n3,\xff4\n", 3),
    (b"x,\xffy\n1,2\n3,4\n", 1),
    (b"x,label\n1,1\n3,-1\n5,\xe9\n", 4),
], ids=["feature", "header", "label"])
def test_bytes_not_utf8_name_their_line(tmp_path, capsys, content, line):
    path = tmp_path / "bytes.csv"
    path.write_bytes(content)
    want = f"{path}: line {line}: not valid UTF-8"
    assert outcome(path) == want
    code = main(["estimate", str(path), "--method", "tobi"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "CsvFormatError", "message": want}


def test_bytes_not_utf8_in_a_child_share_keep_their_line(tmp_path):
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"x,y\n" + b"1.5,-2.5\n" * 50 + b"3.0,\xe94\n" + b"1,2\n" * 5)
    with shares(cpus=2) as asked:
        assert outcome(path) == f"{path}: line 52: not valid UTF-8"
    assert asked == [2]
    assert_no_child_left()


def test_blank_share_is_parsed_by_a_child(tmp_path):
    # cuts near a third and two thirds of the 72 bytes: the middle share,
    # bytes 25 to 49, holds only blank lines
    path = tmp_path / "blank.csv"
    path.write_bytes(b"x,y\n1,2\n" + b"\n" * 60 + b"3,4\n")
    assert cli._cuts(str(path), 3) == [0, 25, 49, 72]
    with shares() as asked:
        ds = load_csv(str(path))
    np.testing.assert_array_equal(ds.observations, [[1.0, 2.0], [3.0, 4.0]])
    assert asked == [3]


def test_one_process_where_fork_missing(tmp_path, monkeypatch):
    path = tmp_path / "nofork.csv"
    path.write_text("x,y\n1,2\n3,4\n5,6\n")
    serial = outcome(path)
    monkeypatch.delattr(os, "fork")
    with shares() as asked:
        assert outcome(path) == serial
    assert asked == []


def test_byte_order_mark_is_not_part_of_the_header(tmp_path, capsys):
    # a UTF-8 byte-order mark, as spreadsheet programs save one, is dropped: a
    # first "label" column stays the labels, in one process and in shares
    x = np.random.default_rng(5).standard_normal((300, 2))
    text = "label,x,y\n" + "".join(f"{1 if a > 0 else -1},{a!r},{b!r}\n"
                                    for a, b in x.tolist())
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbflabel,")
    serial = outcome(plain)
    assert serial[0] == (300, 2)
    assert outcome(marked) == serial
    with shares() as asked:
        assert outcome(marked) == serial
        assert main(["estimate", str(marked), "--method", "lda"]) == 0
    assert asked[:2] == [3, 3]
    out, err = capsys.readouterr()
    assert json.loads(out)["p"] == 2, err


def test_dead_child_is_one_typed_error(tmp_path, capsys):
    # a share's process killed mid-parse (out of memory, a signal) ends
    # estimate with exit 1 and one JSON line, and leaves no process behind
    path = tmp_path / "dies.csv"
    path.write_text("x,y\n" + "1.5,-2.5\n2,1\n" * 20)
    pid, loadtxt = os.getpid(), cli._loadtxt

    def dies_in_child(*args, **options):
        if os.getpid() != pid:
            os.kill(os.getpid(), 9)
        return loadtxt(*args, **options)

    with shares(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_loadtxt", dies_in_child)
        code = main(["estimate", str(path), "--method", "tobi"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "WorkerError"
    assert_no_child_left()
