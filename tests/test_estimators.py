"""Direction estimators: exact population behavior via moment injection,
large-sample convergence, equivariance and degenerate-input handling."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewdisc import moments
from skewdisc.errors import (DegenerateSkewnessError, NearSingularError,
                             NonFiniteError, SupervisionRequiredError)
from skewdisc.estimators import (DEFAULT_MAX_ITER, DEFAULT_TOL, JADE3, LDA,
                                 METHODS, MOM, PP, SKEWVEC, TOBI,
                                 DirectionEstimate, _fixed_point, _stage, align_sign,
                                 est_jade3, est_lda, est_mom,
                                 est_pp, est_skewvec, est_tobi, jade3_unit,
                                 mom_direction, skewness_floor,
                                 skewvec_direction, tobi_unit, whiten)
from skewdisc.linalg import _norm, inv_sqrt
from skewdisc.moments import sample_moments, third_moment
from skewdisc.model import (DataSet, MixtureParams, derive,
                            population_moments, sample, whitened_mixture)


def reference_params():
    return MixtureParams(alpha1=0.7,
                         mu1=np.array([-0.6, 0.0, 0.0]),
                         mu2=np.array([1.4, 0.0, 0.0]),
                         sigma=np.eye(3))


def skewed_params():
    sigma = np.array([[2.0, 0.4, 0.0],
                      [0.4, 1.2, -0.3],
                      [0.0, -0.3, 0.8]])
    return MixtureParams(alpha1=0.75,
                         mu1=np.array([0.2, -0.5, 1.0]),
                         mu2=np.array([3.4, 1.9, -0.2]),
                         sigma=sigma)


def population_tk(law):
    """The population T_k slices of a whitened law, as one (p, p, p) array."""
    return population_moments(law).cov_x_xkronx.reshape(law.p, law.p, law.p)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestPopulationInjection:
    """With exact population moments every estimator must return the
    discriminant direction exactly (Fisher consistency)."""

    @pytest.mark.parametrize("params", [reference_params(), skewed_params()])
    def test_mom_recovers_theta_exactly(self, params):
        pm = population_moments(params)
        d = derive(params)
        got = mom_direction(np.asarray(pm.c2), pm.c3, params.alpha1)
        np.testing.assert_allclose(got, d.theta, rtol=1e-9)

    @pytest.mark.parametrize("params", [reference_params(), skewed_params()])
    def test_skewvec_fisher_factor(self, params):
        pm = population_moments(params)
        d = derive(params)
        law = whitened_mixture(params)
        c3w = population_moments(law).c3
        raw = skewvec_direction(inv_sqrt(np.asarray(pm.c2)), c3w)
        factor = (d.beta * d.gamma * d.tau) / (1.0 + d.beta * d.tau) ** 2
        np.testing.assert_allclose(raw, factor * d.theta, rtol=1e-8,
                                   atol=1e-12)

    @pytest.mark.parametrize("params", [reference_params(), skewed_params()])
    def test_tobi_eigenvector_is_whitened_direction(self, params):
        law = whitened_mixture(params)
        tk = population_tk(law)
        u, ambiguous = tobi_unit(tk)
        assert not ambiguous
        want = unit(derive(law).h)
        np.testing.assert_allclose(np.abs(u), np.abs(want), atol=1e-10)

    @pytest.mark.parametrize("params", [reference_params(), skewed_params()])
    def test_tobi_back_map_fisher_factor(self, params):
        pm = population_moments(params)
        d = derive(params)
        law = whitened_mixture(params)
        tk = population_tk(law)
        u, _ = tobi_unit(tk)
        raw = np.asarray(inv_sqrt(np.asarray(pm.c2))) @ u
        factor = (d.tau * (1.0 + d.beta * d.tau)) ** -0.5
        scale = np.abs(factor * d.theta).max()
        assert (np.allclose(raw, factor * d.theta, atol=1e-9 * scale)
                or np.allclose(raw, -factor * d.theta, atol=1e-9 * scale))

    def test_jade3_fixed_point_at_solution(self):
        law = whitened_mixture(reference_params())
        tk = population_tk(law)
        w = unit(derive(law).h)
        u, converged, iterations, notes = jade3_unit(tk, init=w)
        assert converged and iterations == 1 and notes == ()
        np.testing.assert_allclose(np.abs(u), np.abs(w), atol=1e-12)

    def test_jade3_from_perturbed_init(self):
        law = whitened_mixture(skewed_params())
        tk = population_tk(law)
        w = unit(derive(law).h)
        rng = np.random.default_rng(30)
        init = unit(w + 0.3 * rng.standard_normal(3))
        u, converged, iterations, _ = jade3_unit(tk, init=init)
        assert converged and iterations <= DEFAULT_MAX_ITER
        np.testing.assert_allclose(np.abs(u), np.abs(w), atol=1e-8)


class TestSampleConvergence:
    @pytest.mark.parametrize("params", [reference_params(), skewed_params()])
    def test_unsupervised_estimators(self, params):
        ds = sample(params, 50000, np.random.default_rng(31))
        target = unit(derive(params).theta)
        for est in (est_mom(ds, params.alpha1), est_skewvec(ds),
                    est_tobi(ds), est_jade3(ds), est_pp(ds)):
            aligned = align_sign(est, target)
            np.testing.assert_allclose(aligned.unit, target, atol=0.1,
                                       err_msg=est.method)
            assert np.linalg.norm(est.unit) == pytest.approx(1.0, abs=1e-12)

    def test_lda(self):
        params = skewed_params()
        ds = sample(params, 50000, np.random.default_rng(32))
        target = unit(derive(params).theta)
        aligned = align_sign(est_lda(ds), target)
        np.testing.assert_allclose(aligned.unit, target, atol=0.03)

    def test_lda_orientation(self):
        # oriented from the -1 class toward the +1 class, no sign flip
        params = reference_params()
        ds = sample(params, 20000, np.random.default_rng(33))
        est = est_lda(ds)
        assert float(est.unit @ derive(params).h) > 0.9

    def test_jade3_objective_never_decreases(self):
        # the fixed point climbs the slice objective; a drop beyond
        # tolerance would surface in the notes
        params = skewed_params()
        for seed in range(20):
            ds = sample(params, 1500, np.random.default_rng(500 + seed))
            est = est_jade3(ds)
            assert "objective decreased" not in est.notes
            assert est.converged

    def test_median_msi_nondecreasing_in_n(self):
        h1 = np.sqrt(8.0)
        params = MixtureParams(alpha1=0.7,
                               mu1=np.array([-0.3 * h1, 0.0, 0.0]),
                               mu2=np.array([0.7 * h1, 0.0, 0.0]),
                               sigma=np.eye(3))
        target = unit(derive(params).theta)
        sizes = (500, 2000, 8000)
        fits = {
            "MOM": lambda d: est_mom(d, 0.7),
            "SKEWVEC": est_skewvec,
            "TOBI": est_tobi,
            "JADE3": est_jade3,
            "LDA": est_lda,
            "PP": est_pp,
        }
        medians = {name: [] for name in fits}
        for n in sizes:
            scores = {name: [] for name in fits}
            for rep in range(50):
                ds = sample(params, n, np.random.default_rng(1000 + rep))
                for name, fit in fits.items():
                    scores[name].append(abs(float(fit(ds).unit @ target)))
            for name in fits:
                medians[name].append(float(np.median(scores[name])))
        for name, values in medians.items():
            assert values[0] <= values[1] <= values[2], (name, values)

    def test_metadata(self):
        ds = sample(reference_params(), 5000, np.random.default_rng(34))
        for est, tag in ((est_mom(ds, 0.7), MOM), (est_skewvec(ds), SKEWVEC),
                         (est_tobi(ds), TOBI), (est_lda(ds), LDA)):
            assert est.method == tag
            assert tag in METHODS
            if tag in (MOM, SKEWVEC, TOBI, LDA):
                assert est.converged and est.iterations == 0
        jade = est_jade3(ds)
        assert jade.converged and 0 < jade.iterations < DEFAULT_MAX_ITER
        pp = est_pp(ds)
        assert pp.converged and 0 < pp.iterations < DEFAULT_MAX_ITER


def random_aat_sample(p, n, seed):
    """A mixture sample with Sigma = A A' and tau = 8, as in msi-p30."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, p))
    direction = unit(rng.standard_normal(p))
    h = math.sqrt(8.0) * (a @ direction)
    params = MixtureParams(alpha1=0.7, mu1=-0.3 * h, mu2=0.7 * h, sigma=a @ a.T)
    return sample(params, n, rng)


def first_step(tk, u):
    """The (tu, coef) pair the fixed-point loop hands its step at unit u."""
    seen = []

    def step(tu, coef):
        seen.append((tu, coef))
        return coef, None

    _fixed_point(tk, step, u, DEFAULT_TOL, 1)
    return seen[0]


class TestTensorSteps:
    """JADE3 and PP step on the cached tensor T, the record's "tk" stage:
    PP's update is coef = T(., u, u), JADE3's is coef @ tu."""

    @pytest.mark.parametrize("p", [3, 10, 30])
    def test_pp_step_is_data_pass(self, p):
        ds = random_aat_sample(p, 2000, p)
        z = _stage(ds, "whiten", None)[2]
        for u in np.random.default_rng(p).standard_normal((5, p)):
            u = unit(u)
            want = z.T @ ((z @ u) ** 2) / len(z)
            _, got = first_step(_stage(ds, "tk", None)[0], u)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("p", [3, 10, 30])
    def test_jade3_step_is_slice_sum(self, p):
        tk = _stage(random_aat_sample(p, 2000, p), "tk", None)[0]
        u = unit(np.random.default_rng(p).standard_normal(p))
        tu, coef = first_step(tk, u)
        want = sum((u @ s @ u) * (s @ u) for s in tk)
        assert np.abs(coef @ tu - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("seed", range(8))
    def test_pp_matches_data_pass_iteration(self, seed):
        # reference: the PP fixed point by passes over the whitened data
        ds = sample(reference_params(), 5000, np.random.default_rng(seed))
        _, whitener, z, c3, _ = _stage(ds, "whiten", None)
        u = unit(c3)
        for iterations in range(1, DEFAULT_MAX_ITER + 1):
            new_u = unit(z.T @ ((z @ u) ** 2) / ds.n)
            converged = 1.0 - abs(new_u @ u) < DEFAULT_TOL
            u = new_u
            if converged:
                break
        est = est_pp(ds)
        assert est.converged and converged and est.iterations == iterations
        np.testing.assert_allclose(est.unit, unit(whitener @ u), rtol=0, atol=1e-12)


def mom_three_centrings(x, alpha1):
    """Reference MOM by the scale-then-centre path: scale the raw data by
    2^-e, then centre it inside sample_moments for C2 and again for c3."""
    _, e = math.frexp(float(np.abs(x - x.mean(axis=0)).max()))
    x = np.ldexp(x, -e)
    mean, c2 = sample_moments(x)
    return np.ldexp(mom_direction(c2, third_moment(x - mean), alpha1), -e)


def mom_regression_samples():
    """The README's quick-start sample and 20 seeded samples of both test
    mixtures, at data scales from 1e-120 to 1e108."""
    yield sample(reference_params(), 5000, np.random.default_rng(7)), 0.7
    for seed in range(20):
        params = reference_params() if seed % 2 else skewed_params()
        rng = np.random.default_rng(500 + seed)
        ds = sample(params, int(rng.integers(100, 4000)), rng)
        scale = 10.0 ** (12 * (seed - 10))
        yield DataSet(ds.observations * scale), params.alpha1


class TestMomCentresOnce:
    def test_direction_bit_identical_to_three_centrings(self):
        tiny = np.finfo(float).tiny
        for ds, alpha1 in mom_regression_samples():
            x = ds.observations
            size = np.abs(x - x.mean(axis=0))
            # Scaling by 2^-e commutes with the centring only while no
            # centred value is subnormal.
            assert not ((size > 0) & (size < tiny)).any()
            est, ref = est_mom(ds, alpha1), mom_three_centrings(x, alpha1)
            np.testing.assert_array_equal(est.unit, ref / _norm(ref))
            assert est.raw_norm == _norm(ref)


class TestAffineEquivariance:
    def test_whitening_estimators_map_exactly(self):
        params = reference_params()
        ds = sample(params, 4000, np.random.default_rng(35))
        rng = np.random.default_rng(36)
        a = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        b = rng.standard_normal(3)
        mapped = DataSet(observations=ds.observations @ a.T + b,
                         labels=ds.labels)
        ainv_t = np.linalg.inv(a).T
        for fn in (est_skewvec, est_tobi, est_jade3):
            ref = unit(ainv_t @ fn(ds).unit)
            got = align_sign(fn(mapped), ref)
            np.testing.assert_allclose(got.unit, ref, atol=1e-7,
                                       err_msg=fn.__name__)

    def test_mom_is_not_equivariant(self):
        ds = sample(reference_params(), 4000, np.random.default_rng(37))
        a = np.diag([5.0, 1.0, 0.2])
        mapped = DataSet(observations=ds.observations @ a.T)
        ref = unit(np.linalg.inv(a).T @ est_mom(ds, 0.7).unit)
        got = align_sign(est_mom(mapped, 0.7), ref)
        assert np.abs(got.unit - ref).max() > 1e-3


class TestWhiten:
    def test_whitened_covariance_is_identity(self):
        rng = np.random.default_rng(38)
        x = rng.standard_normal((500, 4)) @ rng.standard_normal((4, 4))
        z = _stage(DataSet(observations=x), "whiten", None)[2]
        np.testing.assert_allclose(z.mean(axis=0), np.zeros(4), atol=1e-10)
        np.testing.assert_allclose(z.T @ z / len(z), np.eye(4), atol=1e-10)

    def test_record_kept_on_dataset(self):
        ds = sample(reference_params(), 500, np.random.default_rng(39))
        est_skewvec(ds)
        wh = ds.whitening
        est_tobi(ds)
        assert ds.whitening is wh and {"whiten", "tk", "tobi"} <= wh.keys()
        assert _stage(ds, "tk", None)[0] is _stage(ds, "tk", None)[0]
        *_, c3, symmetric = _stage(ds, "whiten", None)
        # c3_k = (1/n) sum_i ||z_i||^2 z_ik is the trace of T_k
        np.testing.assert_allclose(np.trace(_stage(ds, "tk", None)[0], axis1=1, axis2=2),
                                   c3, atol=1e-12)
        assert not symmetric

    def test_c3_is_third_moment_of_whitened_rows(self):
        _, _, z, c3, _ = _stage(sample(skewed_params(), 500, np.random.default_rng(41)),
                                "whiten", None)
        np.testing.assert_array_equal(c3, third_moment(z))

    def test_singular_covariance_raises(self):
        x = np.zeros((10, 2))
        x[:, 0] = np.arange(10.0)
        with pytest.raises(NearSingularError):
            whiten(x)


#: A symmetric tensor with nonzero slices and T(e_k, e_0, e_0) = 0 for every
#: k: from e_0 both JADE3's update and PP's, T(., e_0, e_0), are zero.
E0 = np.array([1.0, 0.0])
VANISHING_AT_E0 = np.zeros((2, 2, 2))
VANISHING_AT_E0[0, 1, 1] = VANISHING_AT_E0[1, 0, 1] = VANISHING_AT_E0[1, 1, 0] = 1.0
VANISHING_AT_E0[1, 1, 1] = 2.0


def mirrored_dataset(seed=40, n_half=200, p=3):
    """Rows come in (r, -r) pairs, so every odd sample moment vanishes
    to round-off."""
    r = np.random.default_rng(seed).standard_normal((n_half, p))
    return DataSet(observations=np.vstack([r, -r]))


class TestDegenerateInputs:
    def test_symmetric_sample_mom(self):
        with pytest.raises(DegenerateSkewnessError):
            est_mom(mirrored_dataset(), 0.7)

    def test_symmetric_sample_skewvec(self):
        with pytest.raises(DegenerateSkewnessError):
            est_skewvec(mirrored_dataset())

    def test_symmetric_sample_pp(self):
        with pytest.raises(DegenerateSkewnessError):
            est_pp(mirrored_dataset())

    @pytest.mark.parametrize("fit", [est_tobi, est_jade3], ids=["tobi", "jade3"])
    def test_symmetric_sample_tobi_and_jade3(self, fit):
        # they read T, not c3, so the gate is ||T||_F: the tied triangle of
        # test_montecarlo has c3 at round-off but ||T||_F about 1.4
        data = mirrored_dataset()
        with pytest.raises(DegenerateSkewnessError, match="tensor is numerically zero"):
            fit(data)
        # a second call on the same DataSet refuses too
        with pytest.raises(DegenerateSkewnessError):
            fit(data)

    def test_tobi_refusal_kept_for_jade3(self, monkeypatch):
        # JADE3 after TOBI on the same DataSet raises the kept refusal
        # without forming the squared-slice sum again
        calls = []
        tobi_matrix = moments.tobi_matrix

        def spy(tk):
            calls.append(tk)
            return tobi_matrix(tk)

        monkeypatch.setattr(moments, "tobi_matrix", spy)
        data = mirrored_dataset()
        for fit in (est_tobi, est_jade3):
            with pytest.raises(DegenerateSkewnessError, match="tensor is numerically zero"):
                fit(data)
        assert len(calls) == 1

    def test_skewness_floor_scaling(self):
        assert skewness_floor(1.0) == pytest.approx(1e-10)
        assert skewness_floor(4.0) == pytest.approx(8e-10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-150, 1e120, 1e160])
    def test_overflow_is_typed(self, scale):
        # finite data whose unscaled moments leave double range: every
        # method takes its moments of the data rescaled by a power of two,
        # so it answers with the unit-scale unit, up to the rounding of
        # data * scale, never with NaN or a bare OverflowError
        ds = sample(reference_params(), 200, np.random.default_rng(46))
        huge = DataSet(ds.observations * scale, labels=ds.labels)
        np.testing.assert_allclose(est_mom(huge, 0.7).unit, est_mom(ds, 0.7).unit,
                                   rtol=0.0, atol=1e-14)
        for fit in (est_skewvec, est_tobi, est_jade3, est_lda, est_pp):
            np.testing.assert_allclose(fit(DataSet(huge.observations, labels=huge.labels)).unit,
                                       fit(DataSet(ds.observations, labels=ds.labels)).unit,
                                       rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("k", range(-140, 141, 20))
    def test_mom_answers_at_any_scale(self, k):
        # the moments are taken of data rescaled by a power of two, so
        # neither c3 c3' overflows nor the third moment underflows below
        # the skewness floor
        ds = sample(reference_params(), 300, np.random.default_rng(47))
        want = est_mom(ds, 0.7)
        with np.errstate(all="raise"):
            got = est_mom(DataSet(ds.observations * 10.0 ** k), 0.7)
        np.testing.assert_allclose(got.unit, want.unit, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(got.raw_norm, want.raw_norm * 10.0 ** -k, rtol=1e-13)

    def test_skewness_floor_finite_at_huge_trace(self):
        assert skewness_floor(1e210) == pytest.approx(1e305)

    def test_singular_inner_matrix_is_a_package_error(self):
        # c2 = diag(kappa, 1) with kappa the rank-one term's coefficient at
        # ||c3|| = 1, by mom_direction's own expression: the inner matrix is
        # diag(0, 1) exactly
        alpha1 = 0.7
        alpha2 = 1.0 - alpha1
        beta, gamma = alpha1 * alpha2, alpha1 - alpha2
        kappa = beta ** (1 / 3) * gamma ** (-2 / 3) * 1.0 ** (-4 / 3)
        with pytest.raises(NearSingularError, match="inner matrix"):
            mom_direction(np.diag([kappa, 1.0]), np.array([1.0, 0.0]), alpha1)

    def test_mom_alpha_validation(self):
        ds = sample(reference_params(), 100, np.random.default_rng(41))
        for bad in (0.5, 1.0, 0.2):
            with pytest.raises(ValueError):
                est_mom(ds, bad)

    def test_tobi_tied_eigenvalue_flagged(self):
        tk = np.array([np.eye(2), np.zeros((2, 2))])
        _, ambiguous = tobi_unit(tk)
        assert ambiguous

    def test_jade3_notes_a_falling_objective(self):
        # slices that are not a sample third moment: the update need not
        # climb sum_k (u' T_k u)^2, and a drop must show in the notes
        rng = np.random.default_rng(14)
        a = rng.standard_normal((2, 2, 2))
        tk = (a + a.transpose(0, 2, 1)) / 2.0
        _, _, _, notes = jade3_unit(tk, init=rng.standard_normal(2), max_iter=50)
        assert "objective decreased" in notes
        # the note is kept once, however often the objective falls
        rng = np.random.default_rng(39)
        a = rng.standard_normal((2, 2, 2))
        tk = (a + a.transpose(0, 2, 1)) / 2.0
        _, _, _, notes = jade3_unit(tk, init=rng.standard_normal(2), max_iter=200)
        assert notes == ("objective decreased",)

    @pytest.mark.parametrize("run", [
        lambda: jade3_unit(np.zeros((2, 2, 2)), init=E0),
        lambda: jade3_unit(VANISHING_AT_E0, init=E0),
        lambda: _fixed_point(VANISHING_AT_E0, lambda tu, coef: (coef, None), E0,
                             DEFAULT_TOL, DEFAULT_MAX_ITER),
        lambda: jade3_unit(np.full((2, 2, 2), np.nan), init=E0),
    ], ids=["jade3-zero-slices", "jade3-vanishing-update", "pp-vanishing-update",
            "jade3-non-finite-update"])
    def test_fixed_point_refuses_a_vanishing_update(self, run):
        # an update whose norm underflows or is not finite is one typed error
        with pytest.raises(DegenerateSkewnessError, match="fixed-point update"):
            run()


class TestLdaErrors:
    def test_unlabeled_raises(self):
        ds = sample(reference_params(), 100, np.random.default_rng(43))
        with pytest.raises(SupervisionRequiredError):
            est_lda(DataSet(observations=ds.observations))

    def test_tiny_class_raises(self):
        obs = np.random.default_rng(44).standard_normal((5, 2))
        labels = np.array([-1, 1, 1, 1, 1])
        with pytest.raises(ValueError):
            est_lda(DataSet(observations=obs, labels=labels))

    def test_equal_class_means_give_zero_direction(self):
        r = np.random.default_rng(48).standard_normal((30, 2))
        ds = DataSet(observations=np.vstack([r, r]), labels=np.repeat([-1, 1], 30))
        with pytest.raises(DegenerateSkewnessError, match="zero direction"):
            est_lda(ds)

    def test_pooled_covariance_divisor(self):
        rng = np.random.default_rng(45)
        obs = rng.standard_normal((60, 2))
        obs[30:] += 4.0
        labels = np.array([-1] * 30 + [1] * 30)
        ds = DataSet(observations=obs, labels=labels)
        neg, pos = obs[:30], obs[30:]
        cn = neg - neg.mean(axis=0)
        cp = pos - pos.mean(axis=0)
        s_w = (cn.T @ cn + cp.T @ cp) / 60
        want = np.linalg.solve(s_w, pos.mean(axis=0) - neg.mean(axis=0))
        est = est_lda(ds)
        np.testing.assert_allclose(est.unit * est.raw_norm, want, rtol=1e-9)


class TestAlignSign:
    def test_flip_and_keep(self):
        ds = sample(reference_params(), 2000, np.random.default_rng(46))
        est = est_tobi(ds)
        kept = align_sign(est, est.unit)
        np.testing.assert_array_equal(kept.unit, est.unit)
        flipped = align_sign(est, -est.unit)
        np.testing.assert_array_equal(flipped.unit, -est.unit)

    def test_orthogonal_reference_untouched(self):
        ds = sample(reference_params(), 2000, np.random.default_rng(47))
        est = est_tobi(ds)
        ref = np.array([-est.unit[1], est.unit[0], 0.0])
        out = align_sign(est, ref)
        np.testing.assert_array_equal(out.unit, est.unit)

    def test_zero_reference_rejected(self):
        ds = sample(reference_params(), 2000, np.random.default_rng(48))
        with pytest.raises(ValueError):
            align_sign(est_tobi(ds), np.zeros(3))

    def test_underflowing_reference_rejected(self):
        # the norm of [1e-200, 0] underflows to 0 although an entry is not 0
        est = DirectionEstimate(unit=np.array([1.0, 0.0]), method=TOBI, converged=True,
                                iterations=0)
        with pytest.raises(ValueError, match="nonzero"):
            align_sign(est, np.array([1e-200, 0.0]))

    def test_flip_keeps_diagnostics(self):
        ds = sample(reference_params(), 2000, np.random.default_rng(50))
        est = est_jade3(ds)
        flipped = align_sign(est, -est.unit)
        assert flipped.iterations > 0
        assert ((flipped.method, flipped.converged, flipped.iterations, flipped.notes)
                == (est.method, est.converged, est.iterations, est.notes))

    def test_flip_keeps_every_other_field(self):
        # no field falls back to its default: each one differs from it here
        est = DirectionEstimate(unit=np.array([0.6, -0.8]), method=JADE3, converged=False,
                                iterations=7, notes=("tied",), raw_norm=2.5)
        flipped = align_sign(est, np.array([-1.0, 0.0]))
        np.testing.assert_array_equal(flipped.unit, [-0.6, 0.8])
        others = [f.name for f in dataclasses.fields(DirectionEstimate) if f.name != "unit"]
        assert others == ["method", "converged", "iterations", "notes", "raw_norm"]
        assert [getattr(flipped, name) for name in others] == [JADE3, False, 7, ("tied",), 2.5]

    def test_original_untouched(self):
        ds = sample(reference_params(), 2000, np.random.default_rng(49))
        est = est_tobi(ds)
        before = est.unit.copy()
        align_sign(est, -before)
        np.testing.assert_array_equal(est.unit, before)


def scale_range(x):
    """The exponents e for which every nonzero entry of x and of its centred
    copy x - mean, times 2^e, lies within [2^-1000, 2^1000] in magnitude."""
    a = np.abs(np.concatenate([x.ravel(), (x - x.mean(axis=0)).ravel()]))
    a = a[a > 0]
    return -999 - math.frexp(a.min())[1], 1000 - math.frexp(a.max())[1]


def scaled_fits(params, ds, e):
    """(estimate on ds, estimate on ds times 2^e) for every method."""
    scaled = DataSet(np.ldexp(ds.observations, e), labels=ds.labels)
    for tag, method in METHODS.items():
        yield tag, *(method.run(data, params.alpha1) for data in (ds, scaled))


class TestPowerOfTwoScale:
    """Every method estimates on the data times 2^-e, an exact power of two,
    so the unit is the same bits at any power-of-two scale of the data, and
    raw_norm scales back exactly."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 3), draw=st.data())
    def test_unit_is_the_same_bits_at_every_power_of_two(self, seed, draw):
        params = reference_params() if seed % 2 else skewed_params()
        ds = sample(params, 300, np.random.default_rng(900 + seed))
        lo, hi = scale_range(ds.observations)
        e = draw.draw(st.sampled_from((lo, hi)) | st.integers(lo, hi), label="e")
        for tag, want, got in scaled_fits(params, ds, e):
            np.testing.assert_array_equal(got.unit, want.unit, err_msg=tag)
            assert got.raw_norm == math.ldexp(want.raw_norm, -e), tag
            assert (got.converged, got.iterations) == (want.converged, want.iterations)

    @pytest.mark.parametrize("tag,e", [(MOM, 600)] + [(t, -600) for t in
                                                      (SKEWVEC, TOBI, JADE3, LDA, PP)])
    def test_answers_where_the_unscaled_moments_fail(self, tag, e):
        # unscaled, MOM's direction of about 2^-600 had a norm that underflowed
        # ("zero direction"), and the other methods' covariance of about
        # 2^-1200 was refused as near-singular
        ds = sample(reference_params(), 500, np.random.default_rng(901))
        (want, got), = [(w, g) for t, w, g in scaled_fits(reference_params(), ds, e)
                        if t == tag]
        np.testing.assert_array_equal(got.unit, want.unit)
        assert got.raw_norm == math.ldexp(want.raw_norm, -e)

    def test_direction_outside_double_range_is_typed(self):
        # subnormal data scale up exactly, but LDA's direction, about the
        # inverse of the data scale, has no double norm
        ds = sample(reference_params(), 300, np.random.default_rng(902))
        tiny = DataSet(np.ldexp(ds.observations, -1060), labels=ds.labels)
        with pytest.raises(NonFiniteError, match="outside double range"):
            est_lda(tiny)
