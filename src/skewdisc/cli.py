"""Command line front end.

Subcommands:

estimate       fit one direction estimator to a headered CSV file
               (columns = features, optional "label" column with values
               in {-1, 1}) and write a JSON report.
constants      print the theoretical limiting constants, and the full
               limiting covariance matrices when the mixture is pinned
               down with --sigma and --h.
simulate-chat  run the constant-recovery experiment from a JSON config.
simulate-msi   run the direction-recovery experiment from a JSON config.

Exit codes: 0 success, 1 runtime or numeric failure (bad data, singular
covariance, degenerate skewness), 2 usage or config error. Failures
print a single JSON line to stderr.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import sys
import warnings

import numpy as np

from . import estimators
from .asymptotics import _check_weight, avar_ae, avar_mom, c0_constant, c_lda, c_skewvec
from .errors import (ConfigError, Error, NonFiniteError, SupervisionRequiredError,
                     SymmetryError, WeightDivergenceError)
from .model import DataSet, MixtureParams, derive
from .montecarlo import ExperimentConfig, _forked, _share_count, chat_experiment, msi_experiment

CHAT_COLUMNS = ("method", "alpha1", "tau", "n",
                "reps_used", "reps_failed", "c_hat", "c_theory")
MSI_COLUMNS = ("method", "alpha1", "tau", "n", "p",
               "reps_used", "reps_failed", "mean_msi")


class CsvFormatError(Error):
    """An input CSV file could not be parsed; the message carries the
    offending line number."""


class UsageError(Error):
    """A subcommand was invoked with inconsistent or missing options."""


#: The least body bytes per share when load_csv parses in forked processes.
_SHARE_BYTES = 1 << 20

#: The least scores per share when estimate formats its report in forked processes.
_SCORE_SHARE = 2 ** 15

#: The label column's tokens and their values; any other token is refused.
_LABELS = {"-1": -1.0, "1": 1.0, "+1": 1.0}


def _label(token):
    return _LABELS[token.strip()]


def _loadtxt(source, **options):
    # The one CSV dialect: comma-separated, '"'-quoted, no comments, blank
    # lines skipped. source is an open file or a list of lines.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"(loadtxt: input|Input line \d+) contained no data")
        return np.loadtxt(source, delimiter=",", quotechar='"', comments=None, **options)


def _utf8(line):
    # Whether a line read with errors="surrogateescape" was valid UTF-8.
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _first_failing(path, parse):
    """(number, lines) of the first body row that, parsed alone, fails or holds a
    non-finite value; the file is read once, up to that row. A row is what numpy's
    reader reads as one, a line or more where a quoted field spans lines; its number
    is its first line's, blank lines counted. A byte that is not UTF-8 is read as a
    lone surrogate, which no field accepts. The body read up to this row fails first
    at it: each check looks at one row but numpy's, which compares a row's width with
    the first row's, and parse's, which compares the table's with the header's; every
    row before this one passed alone, so has the header's width."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        next(fh)  # the header
        taken = []  # (number, line) of each line read through rest
        rest = (taken.append((no, line)) or line for no, line in enumerate(fh, start=2))
        while True:
            taken.clear()
            _loadtxt(rest, dtype=str, max_rows=1)  # reads exactly one row's lines
            while taken[0][1] == "\n":  # numpy skips only these lines as blank
                del taken[0]
            lines = [line for _, line in taken]
            try:
                if not np.isfinite(parse(lines)).all():
                    return taken[0][0], lines
            except ValueError:
                return taken[0][0], lines


def _diagnose(lines, width, label_col, feature_cols):
    """Why a body row fails: its bytes, its field count, its features, its
    label; if all pass, a non-finite feature."""
    if not all(map(_utf8, lines)):
        return "not valid UTF-8"
    (fields,) = _loadtxt(lines, dtype=str, ndmin=2)
    if len(fields) != width:
        return f"expected {width} fields, got {len(fields)}"
    try:
        _loadtxt(lines, dtype=float, usecols=feature_cols)
    except ValueError:
        return "non-numeric feature value"
    if label_col is not None and fields[label_col].strip() not in _LABELS:
        return f"label must be -1 or 1, got {fields[label_col].strip()!r}"
    return "non-finite feature value"


def _cuts(path, k):
    """Offsets 0 < ... < size that cut the file into at most k shares, each cut
    just past a "\\n"; [0, size] if a '"' is in it: a quoted field may span lines."""
    with open(path, "rb") as fh:
        cuts, size = [0], os.fstat(fh.fileno()).st_size
        while k > 1 and (chunk := fh.read(_SHARE_BYTES)):
            if b'"' in chunk:
                return [0, size]
            pos = fh.tell() - len(chunk)
            while len(cuts) < k and (i := chunk.find(
                    b"\n", max(len(cuts) * size // k, cuts[-1], pos) - pos)) >= 0:
                cuts.append(pos + i + 1)
    return [b for b in cuts if b < size] + [size]


def load_csv(path):
    """Read a headered feature CSV into a DataSet. A column named
    "label" (any position) becomes the labels; every other column must
    be numeric. A body is parsed in byte ranges of _SHARE_BYTES or more, at
    most one per usable CPU, by forked processes. A UTF-8 byte-order mark
    before the header is dropped. A failure, bytes that are not UTF-8 too,
    names the first row that fails by its first line."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        first = fh.readline()
        if not first:
            raise CsvFormatError(f"{path}: line 1: empty file")
        if not _utf8(first):
            raise CsvFormatError(f"{path}: line 1: not valid UTF-8")
        header = [c.strip() for c in _loadtxt([first], dtype=str, ndmin=1)]
        if header.count("label") > 1:
            raise CsvFormatError(f"{path}: line 1: more than one 'label' column")
        label_col = header.index("label") if "label" in header else None
        feature_cols = [i for i in range(len(header)) if i != label_col]
        if not feature_cols:
            raise CsvFormatError(f"{path}: line 1: no feature columns")

        def parse(source):
            # Body rows as one float array, the label column converted; ValueError
            # on any value, label or width refused.
            table = _loadtxt(source, dtype=float, ndmin=2,
                             converters=None if label_col is None else {label_col: _label})
            if len(table) and table.shape[1] != len(header):
                raise ValueError(f"expected {len(header)} fields")
            return table.reshape(-1, len(header))

        def parse_share(s):
            with open(path, "rb") as raw:
                raw.seek(cuts[s])
                text = io.TextIOWrapper(io.BytesIO(raw.read(cuts[s + 1] - cuts[s])),
                                        encoding="utf-8", errors="surrogateescape")
            if s == 0:
                text.readline()  # the header
            return parse(text)

        cuts = _cuts(path, _share_count((os.path.getsize(path) - len(first)) // _SHARE_BYTES))
        try:
            table = (np.concatenate(_forked(parse_share, len(cuts) - 1)) if len(cuts) > 2
                     else parse(fh))
        except ValueError:  # the serial diagnosis finds the line, in shares or not
            table = None
    if table is None or not np.isfinite(table).all():
        line_no, lines = _first_failing(path, parse)
        reason = _diagnose(lines, len(header), label_col, feature_cols)
        raise CsvFormatError(f"{path}: line {line_no}: {reason}")
    if not len(table):
        raise CsvFormatError(f"{path}: line 2: no data rows")
    # The features copied once, p-major as a DataSet keeps them.
    features = np.empty((len(feature_cols), len(table)))
    for j, col in enumerate(feature_cols):
        features[j] = table[:, col]
    return DataSet(features.T, labels=None if label_col is None else table[:, label_col])


def _require_file(path):
    if not os.path.isfile(path):
        raise UsageError(f"input file does not exist: {path}")


def _require_out_path(path):
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise UsageError(f"output directory does not exist: {parent}")
    if os.path.isdir(path):
        raise UsageError(f"output path is a directory: {path}")


def _cmd_estimate(args):
    method = estimators.METHODS[args.method.upper()]
    if method.needs_alpha1 and args.alpha1 is None:
        raise UsageError(f"--alpha1 is required for method {args.method}")
    if not method.needs_alpha1 and args.alpha1 is not None:
        raise UsageError(f"--alpha1 is not accepted by method {args.method}")
    if args.max_iter < 1 or not 0.0 < args.tol < np.inf:
        raise UsageError("--max-iter must be at least 1 and --tol finite and > 0, "
                         f"got {args.max_iter} and {args.tol}")
    _require_file(args.input)
    if args.output is not None:
        _require_out_path(args.output)
    data = load_csv(args.input)
    # Overflow shows up as a typed error, not as loose warnings on stderr.
    with np.errstate(all="ignore"):
        est = method.run(data, args.alpha1, tol=args.tol, max_iter=args.max_iter)
        scores = (data.observations - data.observations.mean(axis=0)) @ est.unit
    if not np.isfinite(scores).all():
        raise NonFiniteError("a score (x - mean)'unit leaves double range; rescale the data")
    report = {
        "method": est.method,
        "n": data.n,
        "p": data.p,
        "unit": est.unit.tolist(),
        "raw_norm": est.raw_norm,
        "converged": est.converged,
        "iterations": est.iterations,
        "notes": list(est.notes),
    }
    # The scores in contiguous ranges, the caller formatting the first and a
    # forked child each other one; all before the report is opened, so that a
    # failure leaves stdout empty and no file.
    ranges = np.array_split(scores, _share_count(len(scores) // _SCORE_SHARE))

    def share(s):
        part = ranges[s]
        return ", ".join(json.dumps(part[i:i + 4096].tolist())[1:-1]
                         for i in range(0, len(part), 4096))

    shares = _forked(share, len(ranges))
    with (contextlib.nullcontext(sys.stdout) if args.output is None
          else open(args.output, "w", encoding="utf-8")) as out:
        # One key per line, each value by json's C encoder (indent= would force
        # the pure-Python one), so arrays stay inline; the scores last, one
        # string per share, each of 4,096-value slices.
        out.write("{")
        for key, value in report.items():
            out.write(f"\n  {json.dumps(key)}: {json.dumps(value)},")
        out.write('\n  "scores": [')
        for s, text in enumerate(shares):
            out.write((", " if s else "") + text)
        out.write("]\n}\n")
    return 0


def _parse_vector(text):
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise UsageError(f"expected a comma-separated vector, got {text!r}") from None


def _parse_matrix(text):
    rows = [_parse_vector(row) for row in text.split(";")]
    if any(len(r) != len(rows) for r in rows):
        raise UsageError(f"expected a square ';'-separated matrix, got {text!r}")
    return np.array(rows, dtype=float)


def _cmd_constants(args):
    sigma = None if args.sigma is None else _parse_matrix(args.sigma)
    h = None if args.h is None else _parse_vector(args.h)
    if (sigma is None) != (h is None):
        raise UsageError("--sigma and --h must be given together")
    tau = args.tau
    p = args.p
    if h is not None:
        if sigma.shape[0] != h.shape[0]:
            raise UsageError("--sigma and --h dimensions disagree")
        if p is not None and p != h.shape[0]:
            raise UsageError("--p disagrees with the dimension of --h")
        p = h.shape[0]
        # A bad weight fails as without --sigma; mu2 - mu1 is h to the last bit.
        _check_weight(args.alpha1)
    elif tau is None:
        raise UsageError("--tau is required (or derivable from --sigma and --h)")
    if p is None:
        raise UsageError("--p is required (or derivable from --h)")
    # Everything is computed before anything is printed, so that a failure
    # leaves stdout empty; a value outside double range is one typed error,
    # not a warning line, a NaN or a bare OverflowError.
    try:
        with np.errstate(all="ignore"):
            if h is not None:
                params = MixtureParams(alpha1=args.alpha1, mu1=np.zeros_like(h), mu2=h,
                                       sigma=sigma)
                implied_tau = derive(params).tau
                if tau is not None and abs(tau - implied_tau) > 1e-8 * max(implied_tau, 1.0):
                    raise UsageError(
                        f"--tau {tau} disagrees with h'Sigma^(-1)h = {implied_tau}")
                tau = implied_tau
            lda = c_lda(args.alpha1, tau)
            c0 = c0_constant(args.alpha1, tau)
            cr = c_skewvec(args.alpha1, tau, p)
            covariances = {} if h is None else {
                "TOBI/JADE3/PP": avar_ae(c0, params), "SKEWVEC": avar_ae(cr, params),
                "MOM": avar_mom(params)}
            finite = all(np.isfinite(v).all() for v in (lda, c0, cr, *covariances.values()))
    except OverflowError:
        finite = False
    if not finite:
        raise NonFiniteError("a constant or covariance leaves double range")
    print(f"alpha1 = {args.alpha1}, tau = {tau}, p = {p}")
    print(f"C[LDA]          = {lda}")
    print(f"C[TOBI/JADE3/PP] = {c0}")
    print(f"C[SKEWVEC]      = {cr}")
    with np.printoptions(precision=6, suppress=True):
        for name, cov in covariances.items():
            print(f"limiting covariance, {name}:")
            print(np.array_str(cov))
    return 0


def _load_config(path):
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ConfigError("config: top level must be a JSON object")
    fields = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    for key in payload:
        if key not in fields:
            raise ConfigError(f"{key}: unknown config field")
    for key in sorted(k for k, default in fields.items() if default is dataclasses.MISSING):
        if key not in payload:
            raise ConfigError(f"{key}: missing config field")
    return ExperimentConfig(**payload)


def _write_table(path, columns, rows):
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _cmd_simulate(args):
    # The experiment is looked up by name on every call, so a wrapper bound
    # to that name in this module sees the call.
    chat = args.subcommand == "simulate-chat"
    experiment = chat_experiment if chat else msi_experiment
    _require_file(args.config)
    _require_out_path(args.out)
    rows = experiment(_load_config(args.config), workers=args.workers)
    _write_table(args.out, CHAT_COLUMNS if chat else MSI_COLUMNS, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(
        prog="skewdisc",
        description="Skewness-based linear discriminant direction estimation "
                    "for two-component Gaussian location mixtures.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    est = sub.add_parser("estimate", help="estimate a direction from a CSV file")
    est.add_argument("input", help="headered CSV; columns = features, "
                                   "optional 'label' column in {-1,1}")
    est.add_argument("--method", required=True,
                     choices=sorted(tag.lower() for tag in estimators.METHODS))
    est.add_argument("--alpha1", type=float,
                     help="true weight of the heavier component (mom only)")
    est.add_argument("--tol", type=float, default=estimators.DEFAULT_TOL,
                     help="fixed-point stopping tolerance (jade3, pp)")
    est.add_argument("--max-iter", type=int, default=estimators.DEFAULT_MAX_ITER,
                     help="fixed-point iteration cap (jade3, pp)")
    est.add_argument("--seed", type=int,
                     help="accepted and ignored: no method draws random numbers")
    est.add_argument("--output", help="write the JSON report here instead of stdout")
    est.set_defaults(func=_cmd_estimate)

    con = sub.add_parser("constants", help="print theoretical limiting constants")
    con.add_argument("--alpha1", type=float, required=True)
    con.add_argument("--tau", type=float)
    con.add_argument("--p", type=int)
    con.add_argument("--sigma", help="matrix, rows ';'-separated, entries ','-separated")
    con.add_argument("--h", help="component mean difference, comma-separated")
    con.set_defaults(func=_cmd_constants)

    for name in ("simulate-chat", "simulate-msi"):
        sim = sub.add_parser(name, help=f"run the {name.split('-')[1]} experiment")
        sim.add_argument("config", help="experiment config JSON")
        sim.add_argument("out", help="output CSV path")
        sim.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
        sim.set_defaults(func=_cmd_simulate)
    return parser


def _fail(code, exc):
    kind = type(exc).__name__
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
    return code


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError, SupervisionRequiredError,
            WeightDivergenceError, SymmetryError) as exc:
        return _fail(2, exc)
    # Before ValueError: LinAlgError is one. Any other skewdisc error is a
    # runtime failure.
    except (Error, np.linalg.LinAlgError, OSError, MemoryError) as exc:
        return _fail(1, exc)
    except ValueError as exc:
        return _fail(2, exc)


if __name__ == "__main__":
    sys.exit(main())
