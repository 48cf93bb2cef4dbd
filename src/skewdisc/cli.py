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
import itertools
import json
import os
import stat
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

#: The label column's tokens and their values; any other token is refused. A change
#: to what they mean changes the parsed table: bump _CACHE_VERSION with it.
_LABELS = {"-1": -1.0, "1": 1.0, "+1": 1.0}

#: The least bytes of a CSV file whose parsed table load_csv keeps in the cache:
#: where one later hit repays a miss. Measured with 11-column rows of repr floats,
#: a miss (the digest and the write) costs 0.96 ms over the parse at 31 KiB and
#: 1.0 ms at 62 KiB, and a hit saves 0.75 ms and 1.6 ms.
_CACHE_BYTES = 1 << 16

#: Part of every cache entry's name; bump it whenever load_csv's parse, _LABELS or the
#: entry's layout changes what an entry holds for some bytes, so no entry of the old
#: meaning is read.
_CACHE_VERSION = 2

#: The bytes of each piece of a file whose SHA-256 the cache key digests; also the most
#: a digest thread reads at once, into the one buffer it reuses, which keeps what the
#: threads add to memory small.
_PIECE_BYTES = 1 << 17

#: The cache entries kept, the most recently used.
_CACHE_ENTRIES = 8

#: The body rows that _first_failing reads and parses at once.
_BLOCK_ROWS = 1024


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
    non-finite value; the file is read once, up to that row's block. A row is what
    numpy's reader reads as one, a line or more where a quoted field spans lines;
    its number is its first line's, blank lines counted. A byte that is not UTF-8 is
    read as a lone surrogate, which no field accepts. The body read up to this row
    fails first at it: each check looks at one row but numpy's, which compares a
    row's width with the first row's, and parse's, which compares the table's with
    the header's; every row before this one passed alone, so has the header's width.
    parse reads the rows in blocks of _BLOCK_ROWS: a block that passes holds no such
    row, and from the first that fails, its lines and the rest are read again one
    row at a time."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        next(fh)  # the header
        numbered = enumerate(fh, start=2)
        rows = _BLOCK_ROWS
        while True:
            taken = []  # (number, line) of each line this read takes
            source = (taken.append(item) or item[1] for item in numbered)
            try:
                if rows == 1:  # the row's lines alone, numpy reading exactly these
                    _loadtxt(source, dtype=str, max_rows=1)
                    while taken and taken[0][1] == "\n":  # numpy skips only these as blank
                        del taken[0]
                    source = [line for _, line in taken]
                passed = np.isfinite(parse(source, rows)).all()
            except ValueError:
                passed = False
            if passed and taken:
                continue
            if rows == 1:
                return taken[0][0], [line for _, line in taken]
            numbered, rows = itertools.chain(taken, numbered), 1


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


def _stamp(stat):
    # The file, its size and its mtime: what must hold still from a digest to its write.
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


def _digest(raw, size):
    """The cache key of the open binary file raw of size bytes: the SHA-256 of the
    SHA-256 digests of its consecutive _PIECE_BYTES pieces, in order, so it depends
    on the bytes alone, not on the thread count. One thread per usable CPU hashes a
    run of pieces, each read with os.preadv into that thread's one buffer, so raw's
    place is kept; hashlib releases the GIL while it hashes a piece. Without preadv
    one thread reads the pieces in order and puts raw back where it was. A thread's
    failure is raised here."""
    import hashlib  # only here: it loads OpenSSL, about 4 ms and 3.5 MB
    import threading

    count = -(-size // _PIECE_BYTES)
    digests, failures = [b""] * count, []
    if hasattr(os, "preadv"):
        k, place = _share_count(count), None

        def read(view, at):
            return os.preadv(raw.fileno(), [view], at)
    else:
        k, place = 1, raw.tell()
        raw.seek(0)

        def read(view, at):
            return raw.readinto(view)

    def hash_run(t, view):
        try:
            for i in range(t * count // k, (t + 1) * count // k):
                got = 0
                while got < _PIECE_BYTES and (n := read(view[got:], i * _PIECE_BYTES + got)):
                    got += n
                digests[i] = hashlib.sha256(view[:got]).digest()
        except Exception as exc:  # raised again by the caller, not printed by the thread
            failures.append(exc)

    # Each thread's buffer is made here: one made in the thread stays in its C
    # library arena when the thread ends (measured: 140 KiB more resident, against 12).
    views = [memoryview(bytearray(_PIECE_BYTES)) for _ in range(k)]
    threads = [threading.Thread(target=hash_run, args=(t, views[t])) for t in range(1, k)]
    for thread in threads:
        thread.start()
    hash_run(0, views[0])
    for thread in threads:
        thread.join()
    if place is not None:
        raw.seek(place)
    if failures:
        raise failures[0]
    return hashlib.sha256(b"".join(digests)).hexdigest()


def _cache_entry(raw):
    """(entry, stamp) for the open binary file raw, whose place is kept: entry is the
    cache file for its parsed table, named by its _digest, under
    $XDG_CACHE_HOME/skewdisc or ~/.cache/skewdisc; stamp is the file's _stamp before
    the digest. (None, None) below _CACHE_BYTES or where no absolute cache directory
    is set."""
    info = os.fstat(raw.fileno())
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.expanduser(os.path.join("~", ".cache"))
    if info.st_size < _CACHE_BYTES or not os.path.isabs(root):
        return None, None
    entry = f"{_digest(raw, info.st_size)}-{_CACHE_VERSION}.npy"
    return os.path.join(root, "skewdisc", entry), _stamp(info)


def _cached_table(entry, width, p):
    """(features, labels) from the cache file entry, marked as just used: the first
    p rows of its (width, n) array as one p-major array, and its last row apart, or
    None where width is p. Each is read straight from the file into its own array,
    so a DataSet built on them copies nothing and holds no other row. None where the
    entry cannot be read or is not a C-ordered float64 array of width rows, each
    some values long, of finite features and labels of -1 and 1."""
    try:
        with open(entry, "rb") as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            if (fortran or dtype != np.float64 or len(shape) != 2 or shape[0] != width
                    or shape[1] < 1):
                return None
            n = shape[1]
            features = np.fromfile(fh, np.float64, p * n)
            labels = np.fromfile(fh, np.float64, n) if width > p else None
    except (OSError, ValueError, EOFError):
        return None
    if (features.size != p * n or not np.isfinite(features).all() or labels is not None
            and (labels.size != n or not ((labels == 1) | (labels == -1)).all())):
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    return features.reshape(p, n), labels


def _store(entry, stamp, path, features, labels):
    """Write the p-major features, then the labels if any, to the cache file entry as
    one C-ordered (width, n) array, if the file at path still has stamp and the bytes
    that named entry; then delete all but the _CACHE_ENTRIES most recently used
    entries. A cache that cannot be written is left as it is."""
    temp = f"{entry}.{os.getpid()}.tmp"
    try:
        with open(path, "rb") as raw:  # what the parse read, if it held still
            if _cache_entry(raw) != (entry, stamp):
                return
        root = os.path.dirname(entry)
        os.makedirs(root, mode=0o700, exist_ok=True)
        with open(temp, "wb") as out:
            np.lib.format.write_array_header_1_0(out, {
                "descr": features.dtype.str, "fortran_order": False,
                "shape": (len(features) + (labels is not None), features.shape[1])})
            features.tofile(out)
            if labels is not None:
                labels.tofile(out)
        os.replace(temp, entry)
        entries = [e for e in os.scandir(root) if e.name.endswith(".npy")]
        entries.sort(key=lambda e: e.stat().st_mtime_ns, reverse=True)
        for old in entries[_CACHE_ENTRIES:]:
            os.remove(old.path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(temp)


def load_csv(path):
    """Read a headered feature CSV into a DataSet. A column named
    "label" (any position) becomes the labels; every other column must
    be numeric. A body is parsed in byte ranges of _SHARE_BYTES or more, at
    most one per usable CPU, by forked processes. A file of _CACHE_BYTES or
    more keeps its parsed table in the cache, by the digest of its bytes, so
    the same bytes again are not parsed: their DataSet is read straight from
    the entry. A UTF-8 byte-order mark before the header is dropped. A
    failure, bytes that are not UTF-8 too, names the first row that fails by
    its first line."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        first = fh.readline()
        if not first:
            raise CsvFormatError(f"{path}: line 1: empty file")
        if not _utf8(first):
            raise CsvFormatError(f"{path}: line 1: not valid UTF-8")
        fields = _loadtxt([first], dtype=str, ndmin=1)
        if any("\n" in c for c in fields):  # only a quote left open leaves one
            raise CsvFormatError(f"{path}: line 1: a quoted header field spans lines")
        header = [c.strip() for c in fields]
        if header.count("label") > 1:
            raise CsvFormatError(f"{path}: line 1: more than one 'label' column")
        label_col = header.index("label") if "label" in header else None
        feature_cols = [i for i in range(len(header)) if i != label_col]
        if not feature_cols:
            raise CsvFormatError(f"{path}: line 1: no feature columns")

        def parse(source, rows=None):
            # Body rows, all or the first rows, as one float array, the label column
            # converted; ValueError on any value, label or width refused. A change
            # to the table it gives for some bytes bumps _CACHE_VERSION.
            table = _loadtxt(source, dtype=float, ndmin=2, max_rows=rows,
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

        entry, stamp = _cache_entry(fh.buffer)
        cached = None if entry is None else _cached_table(entry, len(header),
                                                          len(feature_cols))
        if cached is None:
            cuts = _cuts(path, _share_count((os.path.getsize(path) - len(first))
                                            // _SHARE_BYTES))
            try:
                table = (np.concatenate(_forked(parse_share, len(cuts) - 1)) if len(cuts) > 2
                         else parse(fh))
            except ValueError:  # the serial diagnosis finds the line, in shares or not
                table = None
            if table is not None and not np.isfinite(table).all():
                table = None
    if cached is None:
        if table is None:
            line_no, lines = _first_failing(path, parse)
            reason = _diagnose(lines, len(header), label_col, feature_cols)
            raise CsvFormatError(f"{path}: line {line_no}: {reason}")
        if not len(table):
            raise CsvFormatError(f"{path}: line 2: no data rows")
        # The features copied once, p-major as a DataSet and the entry keep them.
        cached = table.T[feature_cols], None if label_col is None else table[:, label_col]
        if entry is not None:
            _store(entry, stamp, path, *cached)
    features, labels = cached
    return DataSet(features.T, labels=labels)


def _require_file(path):
    if not os.path.isfile(path):
        raise UsageError(f"input file does not exist: {path}")


def _require_out_path(path):
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise UsageError(f"output directory does not exist: {parent}")
    if os.path.isdir(path):
        raise UsageError(f"output path is a directory: {path}")


@contextlib.contextmanager
def _overwrite(path, **text):
    """A text file open on path, created if missing, whose writes go over the old
    bytes in place; on a clean exit what is left past them is cut. Truncating on
    open, as mode "w" does, makes ext4 wait for the writeback of bytes that were
    themselves written after a truncate: a median 85 ms for a 2 MB file, against
    0.08 ms in place. Only a regular file is cut; a device or a pipe refuses
    truncate."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", **text) as out:
        yield out
        if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            out.truncate()


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
          else _overwrite(args.output, encoding="utf-8")) as out:
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

    with _overwrite(path, newline="", encoding="utf-8") as fh:
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
