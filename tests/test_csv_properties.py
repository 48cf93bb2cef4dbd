"""Property tests of the CSV loader: exact round trips and typed failures."""

import re
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from skewdisc.cli import CsvFormatError, load_csv

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
            assert re.search(rf"^{re.escape(str(path))}: line \d+: ", str(exc))
        else:
            assert ds.n >= 1 and np.isfinite(ds.observations).all()
