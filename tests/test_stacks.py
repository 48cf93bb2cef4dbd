"""A replicate's results do not depend on the stack it is drawn in: the same
bits alone, in a stack of B and next to other stack-mates, and a member
that fails keeps its own error while its mates keep their bits."""

import struct

import numpy as np
import pytest

from skewdisc import estimators, linalg, model, moments, montecarlo
from skewdisc.errors import Error, NearSingularError
from skewdisc.montecarlo import (SIGMA_IDENTITY, SIGMA_RANDOM_AAT, ExperimentConfig,
                                 _chat_draw, _msi_draw, _replicates, chat_experiment,
                                 msi_experiment, rng_stream)
from test_montecarlo import count_calls

ALL_SIX = tuple(estimators.METHODS)


def bits(entries):
    """Each statistic as its IEEE bytes, None kept: float == would merge +0 and -0."""
    return [None if v is None else struct.pack("<d", v) for v in entries]


def random_config(p, seed):
    rng = np.random.default_rng(seed)
    return ExperimentConfig(
        p=p, alpha_grid=(float(rng.uniform(0.55, 0.9)),),
        tau_grid=(float(rng.uniform(1.0, 16.0)),), n_grid=(int(rng.integers(60, 900)),),
        reps=9, master_seed=int(rng.integers(0, 2 ** 31)), methods=ALL_SIX,
        sigma_mode=(SIGMA_IDENTITY, SIGMA_RANDOM_AAT)[seed % 2])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("p", [2, 3, 10])
def test_statistics_do_not_depend_on_the_stack(p, seed):
    cfg = random_config(p, seed)
    draw = _chat_draw if cfg.sigma_mode == SIGMA_IDENTITY else _msi_draw
    cell = cfg.cells[0]
    alone = {m: bits(_replicates(cfg, draw, 0, cell, [m])[0]) for m in range(cfg.reps)}
    assert any(v is not None for entries in alone.values() for v in entries)
    for reps in (list(range(cfg.reps)), [7, 2, 5], [0, 8, 3, 6, 1, 4]):
        for m, entries in zip(reps, _replicates(cfg, draw, 0, cell, reps)):
            assert bits(entries) == alone[m], (reps, m)


@pytest.mark.parametrize("experiment,p,n_grid,reps,sigma_mode,partly_failed", [
    # at n = 6 some members, not all, draw an LDA class of fewer than 2 rows
    (chat_experiment, 3, (6, 2000), 30, SIGMA_IDENTITY, {"LDA"}),
    (msi_experiment, 30, (2000,), 4, SIGMA_RANDOM_AAT, set()),
], ids=["chat-p3", "msi-p30"])
def test_tables_do_not_depend_on_the_stack_size(monkeypatch, experiment, p, n_grid, reps,
                                                sigma_mode, partly_failed):
    cfg = ExperimentConfig(p=p, alpha_grid=(0.7,), tau_grid=(4.0,), n_grid=n_grid,
                           reps=reps, master_seed=4, methods=ALL_SIX, sigma_mode=sigma_mode)
    stacked = experiment(cfg)
    assert partly_failed <= {row["method"] for row in stacked if 0 < row["reps_failed"] < reps}
    monkeypatch.setattr(montecarlo, "_STACK_VALUES", 1)  # one replicate per stack
    assert repr(experiment(cfg)) == repr(stacked)


def stack_of(rows):
    """One stacked DataSet of the 2-d DataSets rows."""
    return model.DataSet(np.stack([r.observations for r in rows]),
                         labels=np.stack([r.labels for r in rows]))


def outcomes(data, member):
    """Per method: the unit's bits, converged and iterations, or the error class."""
    out = []
    for method in estimators.METHODS.values():
        try:
            est = method.run(data, 0.7, member=member)
        except (Error, ValueError) as exc:
            out.append(type(exc).__name__)
        else:
            out.append((est.unit.tobytes(), est.raw_norm, est.converged, est.iterations,
                        est.notes))
    return out


def singular(rows):
    # the second coordinate copies the first: a singular covariance, whole and per class
    x = rows.observations.copy()
    x[:, 1] = x[:, 0]
    return model.DataSet(x, labels=rows.labels)


def symmetric(rows):
    # rows in (r, -r) pairs: every odd sample moment vanishes to round-off
    half = rows.observations[: rows.n // 2]
    return model.DataSet(np.concatenate([half, -half]), labels=rows.labels)


def constant(rows):
    # every row the first: zero covariance and zero third moment
    return model.DataSet(np.repeat(rows.observations[:1], rows.n, axis=0), labels=rows.labels)


def one_class(rows):
    # labels all -1 but one: LDA's +1 class has a single row
    labels = np.full(rows.n, -1)
    labels[0] = 1
    return model.DataSet(rows.observations, labels=labels)


WHITENED = ("SKEWVEC", "TOBI", "JADE3", "LDA", "PP")


@pytest.mark.parametrize("spoil,raised", [
    (singular, dict.fromkeys(ALL_SIX, "NearSingularError")),
    (symmetric, dict.fromkeys(("MOM", "SKEWVEC", "TOBI", "JADE3", "PP"),
                              "DegenerateSkewnessError")),
    (one_class, {"LDA": "ValueError"}),
    (constant, {"MOM": "DegenerateSkewnessError", **dict.fromkeys(WHITENED, "NearSingularError")}),
], ids=["singular", "symmetric", "one-class", "constant"])
def test_a_failing_member_keeps_its_own_error(spoil, raised):
    h = np.array([2.0, 0.0, 0.0])
    params = model.MixtureParams(alpha1=0.7, mu1=-0.3 * h, mu2=0.7 * h, sigma=np.eye(3))
    rows = [model.sample(params, 400, np.random.default_rng(60 + b)) for b in range(4)]
    rows[2] = spoil(rows[2])
    data = stack_of(rows)
    for b, row in enumerate(rows):
        want = outcomes(stack_of([row]), 0)
        assert outcomes(data, b) == want, b
        assert outcomes(model.DataSet(row.observations, labels=row.labels), None) == want
    failed = {tag: got for tag, got in zip(estimators.METHODS, outcomes(data, 2))
              if isinstance(got, str)}
    assert failed == raised


@pytest.mark.parametrize("spoil,counts", [
    (None, (1, 2, 1, 1, 1)),
    (singular, (5, 10, 3, 3, 3)),
    (symmetric, (1, 2, 1, 5, 3)),
    (constant, (5, 10, 3, 3, 3)),
], ids=["left-alone", "singular", "symmetric", "constant"])
def test_a_stage_runs_once_per_block_of_members(monkeypatch, spoil, counts):
    # all six methods on every member: a stage runs once for the whole stack;
    # where it raises, again for each member alone, and a later stage once per
    # block of members that passed
    calls = {}
    for home, name in ((estimators, "whiten"), (linalg, "inv_sqrt"), (moments, "tk_slices"),
                       (moments, "tobi_matrix"), (linalg, "sym_eigen")):
        count_calls(monkeypatch, calls, home, name)
    h = np.array([2.0, 0.0, 0.0])
    params = model.MixtureParams(alpha1=0.7, mu1=-0.3 * h, mu2=0.7 * h, sigma=np.eye(3))
    rows = [model.sample(params, 400, np.random.default_rng(60 + b)) for b in range(4)]
    if spoil is not None:
        rows[2] = spoil(rows[2])
    data = stack_of(rows)
    for b in range(4):
        outcomes(data, b)
    assert tuple(calls.values()) == counts


@pytest.mark.parametrize("p", [1, 2])
def test_lda_refuses_classes_that_are_each_constant(p):
    # every row equals its class's first, so the pooled within-class covariance
    # is 0, not the class means' rounding residuals: with these class values
    # inv_sqrt's relative floor alone would pass them and LDA would answer
    labels = np.repeat([-1, 1], [13, 17])
    spoilt = model.DataSet(
        np.repeat(np.random.default_rng(0).uniform(-3.0, 3.0, (2, p)), [13, 17], axis=0),
        labels=labels)
    with pytest.raises(NearSingularError):
        estimators.est_lda(spoilt)
    rng = np.random.default_rng(80 + p)
    rows = [model.DataSet(rng.standard_normal((30, p)) + labels[:, None], labels=labels)
            for _ in range(3)]
    rows[1] = spoilt
    data = stack_of(rows)
    for b, row in enumerate(rows):
        assert outcomes(data, b) == outcomes(row, None), b
    lda = list(estimators.METHODS).index("LDA")
    assert [isinstance(outcomes(data, b)[lda], str) for b in range(3)] == [False, True, False]


def test_an_unstacked_dataset_is_a_stack_of_one():
    params = model.MixtureParams(alpha1=0.7, mu1=[-0.6, 0.0], mu2=[1.4, 0.0], sigma=np.eye(2))
    rngs = [rng_stream(3, m) for m in range(3)]
    data = model.sample(params, 300, rngs)
    for b in range(3):
        alone = model.sample(params, 300, rng_stream(3, b))
        assert alone.observations.tobytes() == data.observations[b].tobytes()
        assert outcomes(alone, None) == outcomes(data, b)


def test_whiten_gives_each_member_its_rows_alone():
    params = model.MixtureParams(alpha1=0.7, mu1=[-0.6, 0.0, 0.0], mu2=[1.4, 0.0, 0.0],
                                 sigma=np.diag([1.0, 4.0, 0.25]))
    stack = model.sample(params, 200, [rng_stream(5, m) for m in range(4)]).observations
    values = estimators.whiten(stack)
    for b, rows in enumerate(stack):
        alone = estimators.whiten(rows)
        for got, want in zip(values, alone):
            assert np.shape(got[b]) == np.shape(want)
            assert np.asarray(got[b]).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("shape", [(50,), (2, 1, 50, 3)])
def test_whiten_refuses_other_shapes(shape):
    with pytest.raises(ValueError, match="n x p array"):
        estimators.whiten(np.ones(shape))


def data_params():
    return model.MixtureParams(alpha1=0.7, mu1=[0.0, 0.0], mu2=[2.0, 0.0], sigma=np.eye(2))


def test_member_index_matches_the_data():
    # a member index for an unstacked DataSet, or none for a stacked one, is refused
    data = model.sample(data_params(), 50, np.random.default_rng(1))
    with pytest.raises(ValueError, match="member index"):
        estimators.est_tobi(data, member=0)
    stack = model.sample(data_params(), 50, [np.random.default_rng(1)])
    for method in estimators.METHODS.values():
        with pytest.raises(ValueError, match="member index"):
            method.run(stack, 0.7)
