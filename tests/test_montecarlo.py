"""Simulation harness: config validation, deterministic replication,
aggregation and the two experiment protocols."""

import ctypes
import dataclasses
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from skewdisc import estimators, linalg, model, moments, montecarlo
from skewdisc.asymptotics import c0_constant, c_lda, c_skewvec
from skewdisc.errors import ConfigError, NearSingularError, WorkerError
from skewdisc.estimators import align_sign
from skewdisc.montecarlo import (SIGMA_IDENTITY, SIGMA_MODES,
                                 SIGMA_RANDOM_AAT, ExperimentConfig,
                                 _chat_draw, _msi_draw, _replicates,
                                 chat_experiment, msi_experiment, msi,
                                 rng_stream)

ALL_SIX = ("MOM", "SKEWVEC", "TOBI", "JADE3", "LDA", "PP")


def small_config(**overrides):
    base = dict(p=2, alpha_grid=(0.7,), tau_grid=(8.0,), n_grid=(400,),
                reps=20, master_seed=5, methods=("TOBI", "LDA"))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_valid(self):
        cfg = small_config()
        assert cfg.cells == ((0.7, 8.0, 400),)
        assert cfg.sigma_mode == SIGMA_IDENTITY

    def test_cells_are_cartesian_product(self):
        cfg = small_config(alpha_grid=(0.6, 0.7), tau_grid=(1.0, 2.0),
                           n_grid=(100, 200))
        assert len(cfg.cells) == 8
        assert cfg.cells[0] == (0.6, 1.0, 100)
        assert cfg.cells[-1] == (0.7, 2.0, 200)

    def test_grids_coerced_to_tuples(self):
        cfg = small_config(alpha_grid=[0.7], tau_grid=[4.0], n_grid=[100],
                           methods=["TOBI"])
        assert cfg.alpha_grid == (0.7,)
        assert cfg.methods == ("TOBI",)

    @pytest.mark.parametrize("field,value,fragment", [
        ("p", 1, "p:"),
        ("p", 2.0, "p:"),
        ("alpha_grid", (0.5,), "alpha_grid:"),
        ("alpha_grid", (), "alpha_grid:"),
        ("tau_grid", (0.0,), "tau_grid:"),
        ("n_grid", (1,), "n_grid:"),
        ("n_grid", (100.0,), "n_grid:"),
        ("reps", 1, "reps:"),
        ("master_seed", -1, "master_seed:"),
        ("methods", ("BOGUS",), "methods:"),
        ("methods", (), "methods:"),
        ("sigma_mode", "diag", "sigma_mode:"),
        ("alpha_grid", ("x",), "alpha_grid:"),
        ("alpha_grid", (True,), "alpha_grid:"),
        ("alpha_grid", 0.7, "alpha_grid:"),
        ("tau_grid", (1e308,), "tau_grid:"),
        ("tau_grid", (float("inf"),), "tau_grid:"),
        ("tau_grid", (float("nan"),), "tau_grid:"),
        ("methods", "TOBI", "methods:"),
        ("methods", (["TOBI"],), "methods:"),
        ("master_seed", True, "master_seed:"),
        ("alpha_grid", (0.7, 0.7), "alpha_grid: repeated entries"),
        ("tau_grid", (4.0, 8.0, 4.0), "tau_grid: repeated entries"),
        ("n_grid", (100, 200, 100), "n_grid: repeated entries"),
        ("methods", ("TOBI", "LDA", "TOBI"), "methods: repeated entries"),
        ("methods", (["TOBI"], ["TOBI"]), "methods: expected"),
    ])
    def test_rejects_bad_field(self, field, value, fragment):
        with pytest.raises(ConfigError) as excinfo:
            small_config(**{field: value})
        assert str(excinfo.value).startswith(fragment)

    def test_bare_string_methods_not_split(self):
        with pytest.raises(ConfigError) as excinfo:
            small_config(methods="TOBI")
        assert str(excinfo.value).endswith("got 'TOBI'")

    def test_all_methods_accepted(self):
        assert small_config(methods=ALL_SIX).methods == ALL_SIX

    def test_both_sigma_modes_accepted(self):
        for mode in SIGMA_MODES:
            assert small_config(sigma_mode=mode).sigma_mode == mode


class TestRngStream:
    def test_reproducible(self):
        a = rng_stream(42, 7).standard_normal(5)
        b = rng_stream(42, 7).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_indices_independent(self):
        a = rng_stream(42, 0).standard_normal(5)
        b = rng_stream(42, 1).standard_normal(5)
        assert np.abs(a - b).max() > 1e-8

    def test_seeds_differ(self):
        a = rng_stream(1, 0).standard_normal(5)
        b = rng_stream(2, 0).standard_normal(5)
        assert np.abs(a - b).max() > 1e-8


class TestMsi:
    def test_parallel_antiparallel(self):
        u = np.array([1.0, 2.0])
        assert msi(u, 3.0 * u) == pytest.approx(1.0)
        assert msi(u, -u) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert msi(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0

    def test_hand_cosine(self):
        got = msi(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(0.70711, abs=5e-6)

    def test_clipped_to_one(self):
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert msi(u, u) <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            msi(np.zeros(2), np.ones(2))


class TestChatExperiment:
    def test_row_shape_and_order(self):
        cfg = small_config(alpha_grid=(0.6, 0.7), methods=("TOBI", "LDA"))
        rows = chat_experiment(cfg)
        assert len(rows) == 4
        assert [(r["method"], r["alpha1"]) for r in rows] == [
            ("LDA", 0.6), ("LDA", 0.7), ("TOBI", 0.6), ("TOBI", 0.7)]
        for r in rows:
            assert set(r) == {"method", "alpha1", "tau", "n", "reps_used",
                              "reps_failed", "c_hat", "c_theory"}
            assert r["reps_used"] + r["reps_failed"] == cfg.reps

    def test_deterministic(self):
        cfg = small_config()
        assert chat_experiment(cfg) == chat_experiment(cfg)

    def test_workers_do_not_change_results(self):
        cfg = small_config(alpha_grid=(0.6, 0.7), reps=10)
        assert chat_experiment(cfg, workers=1) == chat_experiment(cfg,
                                                                  workers=4)

    def test_theory_constants(self):
        cfg = small_config(p=3, methods=ALL_SIX, reps=2, n_grid=(200,))
        by_method = {r["method"]: r for r in chat_experiment(cfg)}
        assert by_method["TOBI"]["c_theory"] == pytest.approx(
            c0_constant(0.7, 8.0))
        assert by_method["JADE3"]["c_theory"] == pytest.approx(
            c0_constant(0.7, 8.0))
        assert by_method["PP"]["c_theory"] == pytest.approx(
            c0_constant(0.7, 8.0))
        assert by_method["SKEWVEC"]["c_theory"] == pytest.approx(
            c_skewvec(0.7, 8.0, 3))
        assert by_method["LDA"]["c_theory"] == pytest.approx(c_lda(0.7, 8.0))
        assert by_method["MOM"]["c_theory"] is None

    def test_requires_identity_mode(self):
        with pytest.raises(ConfigError):
            chat_experiment(small_config(sigma_mode=SIGMA_RANDOM_AAT))

    def test_degenerate_sample_size_counts_failures(self):
        # two observations cannot support any of the estimators
        cfg = small_config(n_grid=(2,), methods=("TOBI", "LDA", "MOM"),
                           reps=5)
        for r in chat_experiment(cfg):
            assert r["reps_failed"] == 5
            assert r["reps_used"] == 0
            assert r["c_hat"] is None

    def test_chat_tracks_theory(self):
        cfg = ExperimentConfig(p=3, alpha_grid=(0.7,), tau_grid=(8.0,),
                               n_grid=(2000,), reps=200, master_seed=9,
                               methods=("TOBI", "LDA"))
        rows = chat_experiment(cfg)
        for r in rows:
            assert r["reps_failed"] == 0
            # 200 replicates put the sampling error well inside 40%
            assert r["c_hat"] == pytest.approx(r["c_theory"], rel=0.4)

    def test_two_replicates_suffice_for_a_variance(self):
        cfg = small_config(reps=2, n_grid=(300,), methods=("TOBI",))
        row = chat_experiment(cfg)[0]
        assert row["reps_used"] == 2
        assert row["c_hat"] is not None and row["c_hat"] >= 0.0

    def test_projections_bounded_by_one(self):
        cfg = small_config(p=3, methods=ALL_SIX, reps=2, n_grid=(600,))
        for m in range(5):
            for t_projection in _replicates(cfg, _chat_draw, 0, (0.7, 8.0, 600), [m])[0]:
                assert t_projection is not None
                assert abs(t_projection) <= 1.0
            for similarity in _replicates(cfg, _msi_draw, 0, (0.7, 8.0, 600), [m])[0]:
                assert similarity is not None
                assert 0.0 <= similarity <= 1.0

    def test_jade3_and_tobi_share_a_constant(self):
        # both converge to the same limit, so their variance estimates
        # at a large n agree within Monte Carlo noise
        cfg = ExperimentConfig(p=3, alpha_grid=(0.7,), tau_grid=(4.0,),
                               n_grid=(8000,), reps=800, master_seed=21,
                               methods=("TOBI", "JADE3"))
        rows = {r["method"]: r for r in chat_experiment(cfg)}
        ratio = rows["JADE3"]["c_hat"] / rows["TOBI"]["c_hat"]
        assert 0.8 <= ratio <= 1.25

    def test_jade3_exclusion_rate_small(self):
        cfg = ExperimentConfig(p=3, alpha_grid=(0.7,), tau_grid=(8.0,),
                               n_grid=(2000,), reps=100, master_seed=23,
                               methods=("JADE3",), sigma_mode=SIGMA_RANDOM_AAT)
        row = msi_experiment(cfg)[0]
        assert row["reps_failed"] / cfg.reps < 0.01

    def test_replicate_streams_keyed_by_cell_position(self):
        # the first cell of a larger grid reuses the same streams as a
        # single-cell run with the same seed and reps
        lone = small_config()
        wide = small_config(n_grid=(400, 800))
        lone_rows = [r for r in chat_experiment(lone)]
        wide_rows = [r for r in chat_experiment(wide) if r["n"] == 400]
        assert lone_rows == wide_rows


@pytest.mark.parametrize("p,reps,sizes", [(3, 200, [21] * 9 + [11]), (30, 40, [2] * 20)],
                         ids=["chat-p3", "msi-p30"])
def test_a_stack_holds_at_most_2_17_values(monkeypatch, p, reps, sizes):
    # B = 2^17 // (n p) replicates per stack at n = 2000, in replicate order
    stacks = []

    def replicates(config, draw, cell_index, cell, stack):
        stacks.append(stack)
        return [[None] * len(config.methods) for _ in stack]

    monkeypatch.setattr(montecarlo, "_replicates", replicates)
    cfg = small_config(p=p, n_grid=(2000,), reps=reps)
    jobs = [(0, cfg.cells[0], m) for m in range(reps)]
    assert len(montecarlo._share(cfg, _chat_draw, jobs)) == reps
    assert [len(stack) for stack in stacks] == sizes
    assert sum(stacks, []) == list(range(reps))


@pytest.mark.parametrize("experiment,summary", [(chat_experiment, "c_hat"),
                                                (msi_experiment, "mean_msi")])
def test_non_converged_replicates_counted_as_failed(monkeypatch, experiment, summary):
    # the method table calls est_pp through the module global, so a
    # stand-in put there sees every replicate
    cfg = small_config(p=3, methods=("TOBI", "PP", "LDA"), reps=4)
    want = experiment(cfg)
    est_pp = estimators.est_pp

    def stalled(*args, **kwargs):
        return dataclasses.replace(est_pp(*args, **kwargs), converged=False)

    monkeypatch.setattr(estimators, "est_pp", stalled)
    got = experiment(cfg)
    assert [r["method"] for r in got] == [r["method"] for r in want]
    for before, after in zip(want, got):
        if after["method"] == "PP":
            assert before["reps_used"] > 0
            assert after["reps_used"] == 0
            assert after["reps_failed"] == cfg.reps
            assert after[summary] is None
        else:
            assert after == before


class TestMsiExperiment:
    def test_row_shape(self):
        cfg = small_config(p=3, methods=("TOBI",), reps=10, n_grid=(500,))
        rows = msi_experiment(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert set(row) == {"method", "alpha1", "tau", "n", "p", "reps_used",
                            "reps_failed", "mean_msi"}
        assert row["p"] == 3
        assert 0.0 < row["mean_msi"] <= 1.0

    def test_deterministic_across_workers(self):
        cfg = small_config(p=3, sigma_mode=SIGMA_RANDOM_AAT, reps=8,
                           methods=("TOBI", "SKEWVEC"))
        assert msi_experiment(cfg, workers=1) == msi_experiment(cfg,
                                                                workers=3)

    def test_random_sigma_keeps_standardized_distance(self):
        # equivariant methods should recover the direction about as well
        # under random covariances as under the identity, since the
        # standardized separation is pinned to tau
        base = dict(p=3, alpha_grid=(0.7,), tau_grid=(8.0,), n_grid=(2000,),
                    reps=60, master_seed=11, methods=("TOBI",))
        ident = msi_experiment(ExperimentConfig(**base))[0]
        randomized = msi_experiment(
            ExperimentConfig(**base, sigma_mode=SIGMA_RANDOM_AAT))[0]
        assert ident["reps_failed"] == 0
        assert randomized["reps_failed"] == 0
        assert randomized["mean_msi"] == pytest.approx(ident["mean_msi"],
                                                       abs=0.05)
        assert randomized["mean_msi"] > 0.9

    def test_mean_msi_nondecreasing_in_n(self):
        cfg = ExperimentConfig(p=3, alpha_grid=(0.7,), tau_grid=(8.0,),
                               n_grid=(500, 4000), reps=60, master_seed=17,
                               methods=ALL_SIX, sigma_mode=SIGMA_RANDOM_AAT)
        rows = msi_experiment(cfg)
        for method in ALL_SIX:
            by_n = {r["n"]: r["mean_msi"] for r in rows
                    if r["method"] == method}
            assert by_n[500] <= by_n[4000], method

    def test_largest_separation_is_singular_for_every_method(self):
        # at tau = 1e77 the component noise is below the rounding of the
        # separated means: every method, MOM included, meets a numerically
        # singular covariance on every replicate, and no row reports one
        cfg = ExperimentConfig(p=3, alpha_grid=(0.7,), tau_grid=(1e77,), n_grid=(200,),
                               reps=3, master_seed=9, methods=ALL_SIX,
                               sigma_mode=SIGMA_RANDOM_AAT)
        rngs = [rng_stream(cfg.master_seed, m) for m in range(cfg.reps)]
        mixtures, _ = zip(*(_msi_draw(cfg, 0.7, 1e77, rng) for rng in rngs))
        data = model.sample(mixtures, 200, rngs)
        for b in range(cfg.reps):
            for method in ALL_SIX:
                with pytest.raises(NearSingularError):
                    estimators.METHODS[method].run(data, 0.7, member=b)
        rows = msi_experiment(cfg)
        assert sorted(r["method"] for r in rows) == sorted(ALL_SIX)
        assert all(r["reps_used"] == 0 and r["reps_failed"] == 3 for r in rows)

    def test_supervised_tops_unsupervised(self):
        cfg = ExperimentConfig(p=3, alpha_grid=(0.7,), tau_grid=(8.0,),
                               n_grid=(1000,), reps=60, master_seed=13,
                               methods=("LDA", "TOBI", "SKEWVEC"),
                               sigma_mode=SIGMA_RANDOM_AAT)
        by_method = {r["method"]: r["mean_msi"] for r in msi_experiment(cfg)}
        assert by_method["LDA"] >= by_method["TOBI"]
        assert by_method["LDA"] >= by_method["SKEWVEC"]


@pytest.fixture
def inline_shares(monkeypatch):
    """Stands in for montecarlo._forked: records the share count it was
    asked for and runs every share in the caller, starting no process."""
    asked = []

    def inline(run, k):
        asked.append(k)
        return [run(s) for s in range(k)]

    monkeypatch.setattr(montecarlo, "_forked", inline)
    return asked


def assert_no_child_left():
    # raises ChildProcessError only when this process has no child at all,
    # running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                                    reason="needs two usable CPUs to start a worker")


class TestWorkerProcesses:
    def test_worker_count_capped_by_usable_cpus(self, inline_shares):
        cfg = small_config(p=3, sigma_mode=SIGMA_RANDOM_AAT, reps=6,
                           methods=("TOBI", "SKEWVEC"))
        assert msi_experiment(cfg, workers=10**6) == msi_experiment(cfg, workers=1)
        assert inline_shares == [min(6, len(os.sched_getaffinity(0))), 1]

    @needs_two_cpus
    def test_no_process_left_after_run(self):
        cfg = small_config(reps=6)
        assert chat_experiment(cfg, workers=2) == chat_experiment(cfg, workers=1)
        assert_no_child_left()

    @needs_two_cpus
    def test_no_process_left_when_caller_share_raises(self, monkeypatch):
        pid = os.getpid()
        replicates = montecarlo._replicates

        def fails_in_caller(*args):
            if os.getpid() == pid:
                raise RuntimeError("replicate failed")
            return replicates(*args)

        monkeypatch.setattr(montecarlo, "_replicates", fails_in_caller)
        with pytest.raises(RuntimeError, match="replicate failed"):
            chat_experiment(small_config(reps=6), workers=2)
        assert_no_child_left()

    def test_serial_where_fork_missing(self, monkeypatch, inline_shares):
        cfg = small_config(p=3, sigma_mode=SIGMA_RANDOM_AAT, reps=6,
                           methods=("TOBI", "SKEWVEC"))
        want = msi_experiment(cfg, workers=1)
        monkeypatch.delattr(os, "fork")
        assert msi_experiment(cfg, workers=2) == want
        assert inline_shares == [1, 1]

    def test_chat_mixture_built_once_per_cell(self, monkeypatch):
        built = []

        class CountedParams(model.MixtureParams):
            def __post_init__(self):
                built.append(self.alpha1)
                super().__post_init__()

        montecarlo._chat_draw_cell.cache_clear()
        monkeypatch.setattr(model, "MixtureParams", CountedParams)
        try:
            chat_experiment(small_config(alpha_grid=(0.6, 0.7), reps=5), workers=1)
        finally:
            montecarlo._chat_draw_cell.cache_clear()
        assert built == [0.6, 0.7]


def count_calls(monkeypatch, calls, home, name):
    """Replace every package binding of home.name by a wrapper that
    counts its calls in calls[name]."""
    original = getattr(home, name)

    def spy(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    calls[name] = 0
    for module in (linalg, moments, model, estimators, montecarlo):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, spy)


class TestSharedWhitening:
    """A replicate runs every method on one dataset; the whitening and
    the T_k slices are computed once and shared."""

    def run_six(self, monkeypatch):
        calls = {}
        for home, name in ((linalg, "inv_sqrt"), (estimators, "whiten"),
                           (moments, "tk_slices"), (moments, "tobi_matrix"),
                           (linalg, "sym_eigen")):
            count_calls(monkeypatch, calls, home, name)
        cfg = small_config(p=3, methods=ALL_SIX, reps=2, n_grid=(600,))
        (results,) = _replicates(cfg, _chat_draw, 0, (0.7, 8.0, 600), [0])
        assert all(value is not None for value in results)
        return calls

    def test_inv_sqrt_once_for_whitening_once_for_lda(self, monkeypatch):
        assert self.run_six(monkeypatch)["inv_sqrt"] == 2

    def test_whitened_once(self, monkeypatch):
        # the five methods that whiten read one whiten stage of the replicate
        assert self.run_six(monkeypatch)["whiten"] == 1

    def test_tk_slices_built_once(self, monkeypatch):
        assert self.run_six(monkeypatch)["tk_slices"] == 1

    def test_tobi_eigenpair_solved_once(self, monkeypatch):
        # TOBI and JADE3's starting point share one squared-slice sum and
        # one eigensolve
        calls = self.run_six(monkeypatch)
        assert (calls["tobi_matrix"], calls["sym_eigen"]) == (1, 1)

    @pytest.mark.parametrize("tied", [False, True])
    def test_jade3_same_with_or_without_tobi_first(self, tied):
        if tied:
            # vertices of an equilateral triangle times a symmetric third
            # coordinate: the two leading TOBI eigenvalues tie
            angles = np.deg2rad([90.0, 210.0, 330.0])
            x = np.array([[np.cos(a), np.sin(a), c] for a in angles
                          for c in (-1.0, 1.0)] * 30)
        else:
            h = np.array([np.sqrt(8.0), 0.0, 0.0])
            x = model.sample(model._centred(0.7, h, np.eye(3)), 600,
                             np.random.default_rng(3)).observations
        fresh = estimators.est_jade3(model.DataSet(x))
        data = model.DataSet(x)
        estimators.est_tobi(data)
        after = estimators.est_jade3(data)
        assert fresh.unit.tobytes() == after.unit.tobytes()
        assert (fresh.converged, fresh.iterations, fresh.notes) == (
            after.converged, after.iterations, after.notes)
        assert ("ambiguous leading eigenvalue in init" in after.notes) == tied

    def test_replicate_matches_direct_calls(self):
        # the method table gives each method the same answer as calling
        # its est_* function on the same draw
        cfg = small_config(p=3, methods=ALL_SIX, reps=2, n_grid=(600,))
        (results,) = _replicates(cfg, _chat_draw, 0, (0.7, 8.0, 600), [1])
        rng = rng_stream(cfg.master_seed, 1)
        h = np.array([np.sqrt(8.0), 0.0, 0.0])
        data = model.sample(model._centred(0.7, h, np.eye(3)), 600, rng)
        assert len(results) == len(estimators.METHODS)
        for (method, est), t_projection in zip(direct_estimates(data), results):
            want = float(np.eye(3)[1] @ align_sign(est, h).unit)
            assert t_projection == want, method

    def test_msi_replicate_matches_direct_calls(self):
        # an msi replicate reports msi(unit, theta) of the estimate as it
        # comes, to the last bit: MSI does not depend on the sign
        cfg = small_config(p=3, methods=ALL_SIX, reps=2, n_grid=(600,),
                           sigma_mode=SIGMA_RANDOM_AAT)
        (results,) = _replicates(cfg, _msi_draw, 0, (0.7, 8.0, 600), [1])
        rng = rng_stream(cfg.master_seed, 1)
        a = rng.standard_normal((3, 3))
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        h = math.sqrt(8.0) * (a @ direction)
        data = model.sample(model._centred(0.7, h, a @ a.T), 600, rng)
        theta = np.linalg.solve(a @ a.T, h)
        assert len(results) == len(estimators.METHODS)
        for (method, est), similarity in zip(direct_estimates(data), results):
            assert similarity == msi(est.unit, theta), method

    @pytest.mark.parametrize("draw,sigma_mode,want", [
        (_chat_draw, SIGMA_IDENTITY, {"align_sign": 6, "msi": 0}),
        (_msi_draw, SIGMA_RANDOM_AAT, {"align_sign": 0, "msi": 6}),
    ], ids=["chat", "msi"])
    def test_replicate_computes_only_its_statistic(self, monkeypatch, draw,
                                                    sigma_mode, want):
        # a chat replicate never takes an MSI; an msi replicate never
        # aligns signs
        calls = {}
        for home, name in ((estimators, "align_sign"), (montecarlo, "msi")):
            count_calls(monkeypatch, calls, home, name)
        cfg = small_config(p=3, methods=ALL_SIX, reps=2, n_grid=(600,),
                           sigma_mode=sigma_mode)
        (results,) = _replicates(cfg, draw, 0, (0.7, 8.0, 600), [0])
        assert all(value is not None for value in results)
        assert calls == want


def direct_estimates(data):
    """(method, estimate) for every method of the table, in table order,
    each from its est_* function."""
    out = []
    for method in estimators.METHODS:
        fit = getattr(estimators, f"est_{method.lower()}")
        if estimators.METHODS[method].needs_alpha1:
            est = fit(data, 0.7)
        else:
            est = fit(data)
        out.append((method, est))
    return out


class TestForked:
    def test_caller_runs_share_zero_and_children_the_rest(self):
        shares = montecarlo._forked(lambda s: (s, os.getpid()), 3)
        assert [s for s, _ in shares] == [0, 1, 2]
        assert shares[0][1] == os.getpid()
        assert len({pid for _, pid in shares}) == 3
        assert_no_child_left()

    def test_one_share_starts_no_process(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert montecarlo._forked(lambda s: s, 1) == [0]

    def test_exception_in_a_child_is_raised_in_the_caller(self):
        def run(s):
            if s == 2:
                raise ValueError(f"share {s} failed")
            return s

        with pytest.raises(ValueError, match="share 2 failed"):
            montecarlo._forked(run, 3)
        assert_no_child_left()

    def test_memory_error_in_a_child_is_raised_in_the_caller(self):
        # numpy's MemoryError subclass survives the pipe and prints by its base name
        with pytest.raises(MemoryError, match="Unable to allocate") as raised:
            montecarlo._forked(lambda s: np.empty(10 ** 16 * s, dtype=bool), 2)
        assert type(raised.value).__name__ == "MemoryError"
        assert_no_child_left()

    def test_exception_in_the_caller_stops_the_children(self):
        # a child still busy is killed, not waited for
        def run(s):
            if s == 0:
                raise RuntimeError("caller failed")
            time.sleep(60)

        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="caller failed"):
            montecarlo._forked(run, 3)
        assert time.perf_counter() - start < 30
        assert_no_child_left()

    def test_child_killed_by_a_signal_is_a_worker_error(self):
        def run(s):
            if s == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return s

        with pytest.raises(WorkerError, match="died before it sent its result"):
            montecarlo._forked(run, 3)
        assert_no_child_left()


FAULTS_PER_REPLICATE = """
import resource
from skewdisc.montecarlo import ExperimentConfig, chat_experiment, msi_experiment
six = ["MOM", "SKEWVEC", "TOBI", "JADE3", "LDA", "PP"]
for experiment, config in (
        (chat_experiment, ExperimentConfig(p=3, alpha_grid=[0.7], tau_grid=[4.0], n_grid=[2000],
                                           reps=40, master_seed=1, methods=six)),
        (msi_experiment, ExperimentConfig(p=30, alpha_grid=[0.7], tau_grid=[8.0], n_grid=[2000],
                                          reps=8, master_seed=1, methods=six,
                                          sigma_mode="random-aat"))):
    experiment(config)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    experiment(config)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / config.reps)
"""


@pytest.mark.skipif(os.name != "posix" or not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the C library has no mallopt")
def test_stacks_do_not_refault_the_heap():
    # A fresh interpreter, so no earlier allocation of this suite has moved
    # glibc's dynamic thresholds. Trimming the heap after each stack cost about
    # 36 minor faults per chat replicate and 355 per msi replicate.
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", FAULTS_PER_REPLICATE],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    chat, msi_faults = map(float, done.stdout.split())
    assert chat < 20 and msi_faults < 20, done.stdout
