"""Monte Carlo experiments for the direction estimators.

Two experiment designs:

chat_experiment
    Fixed Sigma = I, mean-zero mixture, h = sqrt(tau) e_1. For each cell
    (method, alpha1, tau, n) it estimates the limiting constant by
    C_hat = n * Var[t' theta_hat / ||theta_hat||] over M replicates,
    with t = e_2, a fixed unit vector orthogonal to h, and tabulates it
    next to the theoretical constant.

msi_experiment
    Per replicate a fresh Sigma = AA' (A with i.i.d. standard normal
    entries) and a uniformly random direction for h, rescaled so that
    h' Sigma^{-1} h hits the requested tau. Tabulates mean maximal
    similarity index per cell.

Replicates are independent jobs with their own deterministic random
stream, run by up to workers processes (default 1), never more than the
usable CPUs: the caller runs one share and forked workers the rest, or
the caller all where there is no fork. A share draws its replicates of a
cell as stacks of about 2^17 values, one DataSet each, so that the layer
functions run once per stack; a replicate's results have the same bits in
any stack. A replicate reduces each method to the one number its table
reads, t' theta_hat / ||theta_hat|| or the MSI, and these reduce in
replicate order, so tables are identical for any worker count. Failed or
non-converged replicates are excluded from the aggregates and counted in
reps_failed.
"""

import ctypes
import functools
import itertools
import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from . import estimators
from .asymptotics import TAU_LIMIT
from .errors import ConfigError, Error, WeightDivergenceError, WorkerError
from .linalg import _norm
from .model import _centred, sample

SIGMA_IDENTITY = "identity"
SIGMA_RANDOM_AAT = "random-aat"
SIGMA_MODES = (SIGMA_IDENTITY, SIGMA_RANDOM_AAT)

#: Values (n p per replicate) a stack of replicates holds at most, unless one
#: replicate alone holds more. Each stack pays a fixed cost of about 0.8 ms at
#: p = 3 and 2 ms at p = 30. At its peak, the LDA stage, it holds about 4.5
#: arrays of its own size, at most 4.5 MiB; at 2^18 the msi-p30 benchmark's
#: peak RSS rose 13%.
_STACK_VALUES = 2 ** 17


def _number(value, kind=(int, float)):
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment grid. Cells are the cartesian product
    alpha_grid x tau_grid x n_grid, each run for reps replicates, each
    replicate evaluated by every method in methods."""

    p: int
    alpha_grid: tuple
    tau_grid: tuple
    n_grid: tuple
    reps: int
    master_seed: int
    methods: tuple
    sigma_mode: str = SIGMA_IDENTITY

    def __post_init__(self):
        for name in ("alpha_grid", "tau_grid", "n_grid", "methods"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{name}: expected a list, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        if not (_number(self.p, int) and self.p >= 2):
            raise ConfigError(f"p: must be an integer >= 2, got {self.p!r}")
        if not self.alpha_grid or not all(_number(a) and 0.5 < a < 1.0
                                          for a in self.alpha_grid):
            raise ConfigError(
                f"alpha_grid: every weight must lie in (0.5, 1), got {self.alpha_grid!r}")
        if not self.tau_grid or not all(_number(t) and 1.0 / TAU_LIMIT <= t <= TAU_LIMIT
                                        for t in self.tau_grid):
            raise ConfigError(
                f"tau_grid: every value must lie in [{1.0 / TAU_LIMIT:g}, {TAU_LIMIT:g}], "
                f"got {self.tau_grid!r}")
        if not self.n_grid or not all(_number(n, int) and n >= 2 for n in self.n_grid):
            raise ConfigError(
                f"n_grid: every sample size must be an integer >= 2, got {self.n_grid!r}")
        if not (_number(self.reps, int) and self.reps >= 2):
            raise ConfigError(f"reps: must be at least 2, got {self.reps!r}")
        if not (_number(self.master_seed, int) and self.master_seed >= 0):
            raise ConfigError(
                f"master_seed: must be a nonnegative integer, got {self.master_seed!r}")
        if not self.methods or not all(isinstance(m, str) and m in estimators.METHODS
                                       for m in self.methods):
            raise ConfigError(
                f"methods: expected a nonempty subset of {tuple(estimators.METHODS)}, "
                f"got {self.methods!r}")
        # After the type checks, so every entry is hashable.
        for name in ("alpha_grid", "tau_grid", "n_grid", "methods"):
            value = getattr(self, name)
            if len(set(value)) != len(value):
                raise ConfigError(f"{name}: repeated entries in {value!r}")
        if self.sigma_mode not in SIGMA_MODES:
            raise ConfigError(
                f"sigma_mode: expected one of {SIGMA_MODES}, got {self.sigma_mode!r}")

    @property
    def cells(self):
        return tuple(itertools.product(self.alpha_grid, self.tau_grid, self.n_grid))


def rng_stream(master_seed, index):
    """Independent deterministic generator for one replicate. Streams
    for distinct indices never overlap; the same (seed, index) pair
    always reproduces the same stream."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return np.random.default_rng(seq)


def msi(u, v):
    """Maximal similarity index |u'v| / (||u|| ||v||), in [0, 1]; equals
    1 for (anti)parallel vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = _norm(u)
    nv = _norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("msi is undefined for zero vectors")
    return min(abs(float(u @ v)) / (nu * nv), 1.0)


@functools.lru_cache(maxsize=1)
def _chat_draw_cell(p, alpha1, tau):
    # Sigma = I, so theta = h = sqrt(tau) e_1, and t = e_2 is orthogonal to it.
    # Jobs run in cell order, so one entry serves every replicate of a cell.
    h = math.sqrt(tau) * np.eye(p)[0]
    return (_centred(alpha1, h, np.eye(p)),
            lambda est: float(estimators.align_sign(est, h).unit[1]))


def _chat_draw(config, alpha1, tau, rng):
    return _chat_draw_cell(config.p, alpha1, tau)


def _msi_draw(config, alpha1, tau, rng):
    p = config.p
    a = rng.standard_normal((p, p)) if config.sigma_mode == SIGMA_RANDOM_AAT else np.eye(p)
    sigma = a @ a.T
    direction = rng.standard_normal(p)
    direction /= _norm(direction)
    # The replicate is the image under x -> A x of a canonical mixture
    # with identity covariance and separation sqrt(tau) * direction, so
    # h' Sigma^{-1} h = tau holds exactly.
    h = math.sqrt(tau) * (a @ direction)
    theta = np.linalg.solve(sigma, h)
    return _centred(alpha1, h, sigma), lambda est: msi(est.unit, theta)


def _replicates(config, draw, cell_index, cell, reps):
    """For each replicate of reps, one entry per method: stat(estimate) on n
    rows drawn from the mixture that draw(config, alpha1, tau, rng) returns
    with stat, or None where the estimator raised (LinAlgError is a
    ValueError) or did not converge. The replicates are one stacked DataSet
    whose member b is drawn from the stream of reps[b]."""
    alpha1, tau, n = cell
    rngs = [rng_stream(config.master_seed, cell_index * config.reps + m) for m in reps]
    mixtures, stats = zip(*(draw(config, alpha1, tau, rng) for rng in rngs))
    data = sample(mixtures, n, rngs)
    out = []
    for b, stat in enumerate(stats):
        row = []
        for method in config.methods:
            try:
                est = estimators.METHODS[method].run(data, alpha1, member=b)
            except (Error, ValueError):
                row.append(None)
                continue
            row.append(stat(est) if est.converged else None)
        out.append(row)
    return out


def _share(config, draw, jobs):
    """The entries of jobs [(cell_index, cell, rep)], in order. Each run of
    one cell's jobs is cut into stacks of B = max(1, _STACK_VALUES // (n p))
    replicates."""
    out = []
    for (ci, cell), group in itertools.groupby(jobs, key=lambda job: job[:2]):
        reps = [m for _, _, m in group]
        size = max(1, _STACK_VALUES // (cell[2] * config.p))
        for i in range(0, len(reps), size):
            out += _replicates(config, draw, ci, cell, reps[i:i + size])
    return out


def _share_count(limit):
    # At most limit, one per CPU this process may use, and one without fork.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(limit, cpus or 1)) if hasattr(os, "fork") else 1


def _forked(run, k):
    """[run(0), ..., run(k - 1)]: the caller runs share 0, so a tracer in it sees
    every layer, and a forked child each other share, whose result or exception
    comes back pickled through a pipe; one that dies is a WorkerError."""
    children = []
    try:
        for s in range(1, k):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: whatever happens, it never returns
                try:
                    try:
                        out = (True, run(s))
                    except Exception as exc:
                        out = (False, exc)
                    with os.fdopen(w, "wb") as fh:
                        pickle.dump(out, fh, pickle.HIGHEST_PROTOCOL)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        results = [run(0)]
        for _, fh in children:
            try:
                ok, value = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError):
                raise WorkerError("a worker process died before it sent its result") from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, fh in children:
            import signal  # only with a child: the module costs every start-up 1 ms
            fh.close()
            os.kill(pid, signal.SIGKILL)  # done, or not needed after a failure
            os.waitpid(pid, 0)


@functools.cache
def _hold_heap():
    # Each stack frees arrays of about 1 MB, so glibc's dynamic thresholds trim
    # the heap top after every stack and the next one faults the pages back in.
    # Fix both at the values that rule reaches after one 32 MiB free (setting one
    # freezes the other), once, before any fork, so workers inherit them.
    mallopt = getattr(ctypes.CDLL(None) if os.name == "posix" else None, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 1 << 25)  # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 26)  # M_TRIM_THRESHOLD


def _rows(config, draw, workers, summary):
    """Run every replicate of every cell and reduce them to one row per
    (method, cell), sorted by (method, alpha1, tau, n). summary(method,
    cell, used) gives the row's own columns from the usable statistics."""
    if not (_number(workers, int) and workers >= 1):
        raise ConfigError(f"workers: must be at least 1, got {workers!r}")
    jobs = [(ci, cell, m)
            for ci, cell in enumerate(config.cells)
            for m in range(config.reps)]
    k = _share_count(min(workers, len(jobs)))
    _hold_heap()
    # Job i goes to share i mod k, which spreads the costly replicates.
    shares = _forked(lambda s: _share(config, draw, jobs[s::k]), k)
    batches = [shares[i % k][i // k] for i in range(len(jobs))]
    rows = []
    # Jobs run in cell order, reps jobs per cell.
    for ci, cell in enumerate(config.cells):
        alpha1, tau, n = cell
        cell_batches = batches[ci * config.reps:(ci + 1) * config.reps]
        for j, method in enumerate(config.methods):
            used = [batch[j] for batch in cell_batches if batch[j] is not None]
            rows.append({"method": method, "alpha1": alpha1, "tau": tau, "n": n,
                         "reps_used": len(used), "reps_failed": config.reps - len(used),
                         **summary(method, cell, used)})
    rows.sort(key=lambda r: (r["method"], r["alpha1"], r["tau"], r["n"]))
    return rows


def chat_experiment(config, workers=1):
    """Run the constant-recovery experiment. Returns rows sorted by
    (method, alpha1, tau, n) with keys method, alpha1, tau, n,
    reps_used, reps_failed, c_hat, c_theory. c_hat needs at least two
    usable replicates, c_theory is None for MOM (no shared constant
    applies)."""
    if config.sigma_mode != SIGMA_IDENTITY:
        raise ConfigError(
            "sigma_mode: the constant-recovery experiment requires 'identity'")

    def summary(method, cell, used):
        alpha1, tau, n = cell
        c_hat = float(n * np.var(used, ddof=1)) if len(used) >= 2 else None
        constant = estimators.METHODS[method].constant
        try:
            c_theory = None if constant is None else constant(alpha1, tau, config.p)
        except WeightDivergenceError:
            c_theory = None
        return {"c_hat": c_hat, "c_theory": c_theory}

    return _rows(config, _chat_draw, workers, summary)


def msi_experiment(config, workers=1):
    """Run the direction-recovery experiment. Returns rows sorted by
    (method, alpha1, tau, n) with keys method, alpha1, tau, n, p,
    reps_used, reps_failed, mean_msi."""
    def summary(method, cell, used):
        mean = float(np.mean(used)) if used else None
        return {"p": config.p, "mean_msi": mean}

    return _rows(config, _msi_draw, workers, summary)
