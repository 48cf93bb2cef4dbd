"""Workload inputs, command lines, output checks and quality figures.

Inputs are generated here with numpy alone, so a change to the program
cannot change what it is given. Every workload has a fixed reference
input (REFERENCE_SEED) whose output was recorded under reference/; a
run checks that output again before it reports any time, and reads the
quality metrics from it. A run's timed passes use inputs made from the
run's --seed and are checked for well-formed, plausible output.
"""

import contextlib
import csv
import io
import json
import math
import traceback
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 20250802
#: Relative tolerance for float fields against the recorded reference.
REFERENCE_RTOL = 1e-6

METHODS = ("MOM", "SKEWVEC", "TOBI", "JADE3", "LDA", "PP")
ALPHA1 = 0.7
INT_COLUMNS = ("n", "p", "reps_used", "reps_failed")


class CheckFailed(Exception):
    """An output of the program is wrong; the run reports correct=false."""


def _check(ok, message):
    if not ok:
        raise CheckFailed(message)


class Cli:
    """Calls skewdisc.cli.main in this process and counts the calls."""

    def __init__(self, cli_module):
        self._cli = cli_module
        self.attempted = 0
        self.failed = 0

    def __call__(self, argv):
        self.attempted += 1
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = self._cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash of the program fails the run like a bad exit code
            code = "an uncaught exception"
            err.write(traceback.format_exc())
        if code != 0:
            self.failed += 1
            raise CheckFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")


def msi(u, v):
    return abs(float(np.dot(u, v))) / (np.linalg.norm(u) * np.linalg.norm(v))


class EstimateCsv:
    name = "estimate-csv"
    why = ("the user's estimate path on a 100,000 x 10 labeled CSV: CSV parsing and report "
           "serialisation dominate, the estimators do little")
    p = 10
    n = 100_000
    tau = 8.0
    workers = 1
    spans = ("cli.main", "cli.load_csv")

    def inputs(self, workdir, seed):
        """One CSV for every pass: a labeled mixture; the covariance is A A' with A a
        mild random perturbation of the identity, theta = Sigma^-1 h."""
        rng = np.random.default_rng(seed)
        p, n = self.p, self.n
        a = np.eye(p) + 0.5 * rng.standard_normal((p, p)) / math.sqrt(p)
        direction = rng.standard_normal(p)
        direction /= np.linalg.norm(direction)
        h = math.sqrt(self.tau) * (a @ direction)
        first = rng.random(n) < ALPHA1
        x = (np.where(first[:, None], -(1 - ALPHA1) * h, ALPHA1 * h)
             + rng.standard_normal((n, p)) @ a.T)
        path = Path(workdir) / f"data-{seed}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join([f"x{i}" for i in range(p)] + ["label"]) + "\n")
            np.savetxt(fh, np.column_stack([x, np.where(first, -1, 1)]),
                       fmt=["%.17g"] * p + ["%d"], delimiter=",")
        inp = {"key": seed, "csv": path, "theta": np.linalg.solve(a @ a.T, h)}
        return lambda index: inp

    def run_pass(self, cli, inp, timed):
        """Estimate once per method, each call run by timed; returns the
        reports."""
        reports = {}
        for method in METHODS:
            out = inp["csv"].with_name(f"report-{inp['key']}-{method}.json")
            argv = ["estimate", str(inp["csv"]), "--method", method.lower(),
                    "--output", str(out)]
            if method == "MOM":
                argv += ["--alpha1", str(ALPHA1)]
            if method in ("JADE3", "PP"):
                argv += ["--seed", "1"]
            timed(lambda: cli(argv))
            reports[method] = out.read_bytes()
        return reports

    def check(self, inp, output):
        for method, raw in output.items():
            r = json.loads(raw)
            unit = np.array(r["unit"], dtype=float)
            scores = np.array(r["scores"], dtype=float)
            _check(r["method"] == method, f"{method}: report names {r['method']}")
            _check((r["n"], r["p"]) == (self.n, self.p), f"{method}: wrong n or p")
            _check(np.isfinite(unit).all() and np.isfinite(scores).all()
                   and math.isfinite(r["raw_norm"]), f"{method}: non-finite value")
            _check(abs(np.linalg.norm(unit) - 1.0) <= 1e-9, f"{method}: unit is not unit norm")
            _check(scores.shape == (self.n,), f"{method}: {scores.shape[0]} scores")
            _check(isinstance(r["converged"], bool), f"{method}: converged is not a bool")
            _check(msi(unit, inp["theta"]) >= 0.9,
                   f"{method}: |cos| to theta is {msi(unit, inp['theta']):.3f}")

    def reference_text(self, output):
        recorded = {}
        for method, raw in output.items():
            r = json.loads(raw)
            recorded[method] = {"unit": r["unit"], "converged": r["converged"]}
        return json.dumps(recorded, indent=1) + "\n"

    def check_reference(self, output, recorded):
        want = json.loads(recorded)
        for method, raw in output.items():
            got = json.loads(raw)
            gap = np.max(np.abs(np.array(got["unit"]) - np.array(want[method]["unit"])))
            _check(gap <= REFERENCE_RTOL,
                   f"{method}: unit differs from the reference by {gap:.3e}")
            _check(got["converged"] == want[method]["converged"],
                   f"{method}: converged differs from the reference")

    def quality(self, inp, output):
        reports = [json.loads(raw) for raw in output.values()]
        converged = sum(r["converged"] for r in reports) / len(reports)
        mean_msi = float(np.mean([msi(r["unit"], inp["theta"]) for r in reports]))
        return converged, 1.0 - mean_msi


class Simulate:
    """simulate-chat or simulate-msi on a one-cell grid."""

    def __init__(self, name, why, command, columns, config, workers):
        self.name = name
        self.why = why
        self.command = command
        self.columns = columns
        self.config = config
        self.workers = workers
        experiment = "chat" if command == "simulate-chat" else "msi"
        self.spans = ("cli.main", "model.sample", f"montecarlo.{experiment}_experiment")

    def inputs(self, workdir, seed):
        """Pass i runs the grid with master seed seed * 1000 + i."""
        def config(index):
            master_seed = seed * 1000 + index
            path = Path(workdir) / f"{self.name}-{master_seed}.json"
            path.write_text(json.dumps(dict(self.config, master_seed=master_seed)),
                            encoding="utf-8")
            return {"key": master_seed, "config": path, "out": path.with_suffix(".csv")}
        return config

    def run_pass(self, cli, inp, timed):
        timed(lambda: cli([self.command, str(inp["config"]), str(inp["out"]),
                           "--workers", str(self.workers)]))
        return inp["out"].read_text(encoding="utf-8")

    def check(self, inp, output):
        rows = list(csv.DictReader(io.StringIO(output)))
        _check(bool(rows) and tuple(rows[0]) == self.columns, "unexpected header or no rows")
        _check([r["method"] for r in rows] == sorted(self.config["methods"]),
               "one row per method, sorted, expected")
        cfg = self.config
        for r in rows:
            m = r["method"]
            _check((float(r["alpha1"]), float(r["tau"]), int(r["n"]))
                   == (cfg["alpha_grid"][0], cfg["tau_grid"][0], cfg["n_grid"][0]),
                   f"{m}: wrong cell")
            _check(int(r["reps_used"]) + int(r["reps_failed"]) == cfg["reps"],
                   f"{m}: reps_used + reps_failed != reps")
            _check(int(r["reps_used"]) >= 2, f"{m}: fewer than 2 usable replicates")
            if "c_hat" in r:
                c_hat = float(r["c_hat"])
                _check(math.isfinite(c_hat) and c_hat > 0, f"{m}: c_hat {c_hat}")
                if r["c_theory"]:
                    ratio = c_hat / float(r["c_theory"])
                    _check(0.25 <= ratio <= 4.0, f"{m}: c_hat / c_theory = {ratio:.3f}")
            else:
                _check(int(r["p"]) == cfg["p"], f"{m}: wrong p")
                mean_msi = float(r["mean_msi"])
                _check(0.3 <= mean_msi <= 1.0, f"{m}: mean_msi {mean_msi}")

    def reference_text(self, output):
        return output

    def check_reference(self, output, recorded):
        got = list(csv.reader(io.StringIO(output)))
        want = list(csv.reader(io.StringIO(recorded)))
        _check(len(got) == len(want) and got[0] == want[0],
               "rows or header differ from the reference")
        for g_row, w_row in zip(got[1:], want[1:]):
            for column, g, w in zip(want[0], g_row, w_row):
                if column in INT_COLUMNS or not g or not w:
                    same = g == w
                else:
                    try:
                        same = abs(float(g) - float(w)) <= REFERENCE_RTOL * max(
                            abs(float(g)), abs(float(w)))
                    except ValueError:
                        same = g == w
                _check(same, f"{w_row[0]} {column}: {g} against reference {w}")

    def quality(self, inp, output):
        rows = list(csv.DictReader(io.StringIO(output)))
        used = sum(int(r["reps_used"]) for r in rows)
        converged = used / sum(int(r["reps_used"]) + int(r["reps_failed"]) for r in rows)
        if self.command == "simulate-chat":
            errors = [abs(float(r["c_hat"]) - float(r["c_theory"])) / float(r["c_theory"])
                      for r in rows if r["c_theory"]]
            return converged, float(np.mean(errors))
        weighted = sum(int(r["reps_used"]) * float(r["mean_msi"]) for r in rows)
        return converged, 1.0 - weighted / used


def _grid(p, tau, reps, **extra):
    return dict(p=p, alpha_grid=[ALPHA1], tau_grid=[tau], n_grid=[2000], reps=reps,
                methods=list(METHODS), **extra)


WORKLOADS = {w.name: w for w in (
    EstimateCsv(),
    Simulate("chat-p3",
             "the paper's constant-recovery table, single-threaded: thousands of tiny numpy "
             "calls, so per-call overhead in whitening, moments and validation dominates",
             "simulate-chat",
             ("method", "alpha1", "tau", "n", "reps_used", "reps_failed", "c_hat", "c_theory"),
             _grid(3, 4.0, 200), workers=1),
    Simulate("msi-p30",
             "direction recovery at p=30 with 2 workers: the p^3 layers (T_k slices, JADE3 "
             "and PP fixed points) dominate and PP often hits its iteration cap",
             "simulate-msi",
             ("method", "alpha1", "tau", "n", "p", "reps_used", "reps_failed", "mean_msi"),
             _grid(30, 8.0, 80, sigma_mode="random-aat"), workers=2),
)}

#: Spans every workload must record: each runs every method.
COMMON_SPANS = ("moments.sample_moments", "moments.tk_slices", "moments.tobi_matrix",
                "linalg.inv_sqrt", "linalg.sym_eigen", "estimators.whiten",
                "estimators.jade3_unit") + tuple(f"estimators.est_{m.lower()}" for m in METHODS)
