"""A replicate's results do not depend on the stack it is drawn in: the same
bits alone, in a stack of B and next to other stack-mates, and a member
that fails keeps its own error while its mates keep their bits."""

import struct

import numpy as np
import pytest

from skewdisc import estimators, model
from skewdisc.errors import Error
from skewdisc.montecarlo import (SIGMA_IDENTITY, SIGMA_RANDOM_AAT, ExperimentConfig,
                                 _chat_draw, _msi_draw, _replicates, rng_stream)

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


def stack_of(rows):
    """One stacked DataSet of the 2-d DataSets rows."""
    return model.DataSet(np.stack([r.observations for r in rows]),
                         labels=np.stack([r.labels for r in rows]))


def outcomes(data, member):
    """Per method: the unit's bits, converged and iterations, or the error class."""
    out = []
    for method in estimators.METHODS.values():
        try:
            est = method.run(data, 0.7, member=member, rng=np.random.default_rng(5))
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


def one_class(rows):
    # labels all -1 but one: LDA's +1 class has a single row
    labels = np.full(rows.n, -1)
    labels[0] = 1
    return model.DataSet(rows.observations, labels=labels)


@pytest.mark.parametrize("spoil,raised", [
    (singular, {"MOM", "SKEWVEC", "TOBI", "JADE3", "LDA", "PP"}),
    (symmetric, {"MOM", "SKEWVEC", "TOBI", "JADE3", "PP"}),
    (one_class, {"LDA"}),
], ids=["singular", "symmetric", "one-class"])
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
    failed = {tag for tag, got in zip(estimators.METHODS, outcomes(data, 2))
              if isinstance(got, str)}
    assert failed == raised


def test_an_unstacked_dataset_is_a_stack_of_one():
    params = model.MixtureParams(alpha1=0.7, mu1=[-0.6, 0.0], mu2=[1.4, 0.0], sigma=np.eye(2))
    rngs = [rng_stream(3, m) for m in range(3)]
    data = model.sample(params, 300, rngs)
    for b in range(3):
        alone = model.sample(params, 300, rng_stream(3, b))
        assert alone.observations.tobytes() == data.observations[b].tobytes()
        assert outcomes(alone, None) == outcomes(data, b)


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
