"""Mixture model: parameter validation, sampling and the closed-form
population moment blocks, checked against the independent pair-partition
oracle."""

import numpy as np
import pytest

from skewdisc.errors import NonFiniteError, SymmetryError
from skewdisc.linalg import commutation_matrix, inv_sqrt
from skewdisc.model import (DataSet, MixtureParams, derive,
                            population_moments, sample, whitened_mixture)

from oracles import MixtureMomentOracle

BLOCKS = ("c2", "c3", "cov_x_xkronx", "cov_xkronx", "cov_x_xxtx",
          "cov_xkronx_xxtx", "cov_xxtx")


def population_tk(params):
    """The third central moment tensor of the mixture, slice k first."""
    return population_moments(params).cov_x_xkronx.reshape(params.p, params.p, params.p)


def reference_params():
    """alpha1 = 0.7, h = (2, 0, 0), Sigma = I, centered means."""
    return MixtureParams(alpha1=0.7,
                         mu1=np.array([-0.6, 0.0, 0.0]),
                         mu2=np.array([1.4, 0.0, 0.0]),
                         sigma=np.eye(3))


class TestMixtureParams:
    def test_reference_valid(self):
        params = reference_params()
        assert params.p == 3

    @pytest.mark.parametrize("alpha1", [0.5, 1.0, 0.3, 1.2])
    def test_alpha_out_of_range(self, alpha1):
        with pytest.raises(ValueError):
            MixtureParams(alpha1=alpha1, mu1=np.zeros(2),
                          mu2=np.ones(2), sigma=np.eye(2))

    def test_equal_means_rejected(self):
        with pytest.raises(ValueError):
            MixtureParams(alpha1=0.7, mu1=np.ones(2), mu2=np.ones(2),
                          sigma=np.eye(2))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_means_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MixtureParams(alpha1=0.7, mu1=np.zeros(2), mu2=np.array([bad, 1.0]),
                          sigma=np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            MixtureParams(alpha1=0.7, mu1=np.array([1.0, bad]), mu2=np.ones(2),
                          sigma=np.eye(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MixtureParams(alpha1=0.7, mu1=np.zeros(2), mu2=np.ones(3),
                          sigma=np.eye(3))
        with pytest.raises(ValueError):
            MixtureParams(alpha1=0.7, mu1=np.zeros(2), mu2=np.ones(2),
                          sigma=np.eye(3))

    def test_plain_array_sigma_coerced(self):
        params = MixtureParams(alpha1=0.7, mu1=np.zeros(2), mu2=np.ones(2),
                               sigma=[[1, 0], [0, 1]])
        assert isinstance(params.sigma, np.ndarray)
        assert params.sigma.dtype == float

    def test_accepts_spd(self):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        params = MixtureParams(alpha1=0.7, mu1=np.zeros(2), mu2=np.ones(2), sigma=sigma)
        np.testing.assert_array_equal(params.sigma, sigma)

    def test_rejects_asymmetric(self):
        # the second one's Frobenius norm overflows a double
        for mu2, sigma in (([1.0, 1.0], [[1.0, 0.2], [0.0, 1.0]]),
                           ([1e90, 0.0], [[1e200, 5e199], [0.0, 1e200]])):
            with pytest.raises(SymmetryError):
                MixtureParams(alpha1=0.7, mu1=np.zeros(2), mu2=np.array(mu2),
                              sigma=np.array(sigma))

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -40, 2.0 ** -600, 2.0 ** 600, 2.0 ** 1000],
                             ids=["1", "2^-40", "2^-600", "2^600", "2^1000"])
    def test_symmetry_verdict_is_scale_free(self, scale):
        # 1e-12 relative, also where the norm of sigma is below 1 or
        # overflows (above 1e154)
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]]) * scale
        nudge = np.array([[0.0, 1.0], [0.0, 0.0]]) * scale
        MixtureParams(alpha1=0.7, mu1=np.zeros(2), mu2=np.ones(2), sigma=sigma + 1e-13 * nudge)
        with pytest.raises(SymmetryError):
            MixtureParams(alpha1=0.7, mu1=np.zeros(2), mu2=np.ones(2), sigma=sigma + 1e-11 * nudge)

    @pytest.mark.parametrize("sigma", [
        np.full((2, 2), np.nan),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[1.0, -np.inf], [-np.inf, 1.0]]),
    ], ids=["all-nan", "nan-off-diagonal", "inf-diagonal", "inf-off-diagonal"])
    def test_non_finite_sigma_rejected(self, sigma):
        # nan compares False with the symmetry tolerance, so it needs its own check
        with pytest.raises(NonFiniteError):
            MixtureParams(alpha1=0.7, mu1=np.zeros(2), mu2=np.ones(2), sigma=sigma)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            MixtureParams(alpha1=0.7, mu1=np.zeros(2), mu2=np.ones(2),
                          sigma=np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            MixtureParams(alpha1=0.7, mu1=np.zeros(2), mu2=np.ones(2),
                          sigma=np.outer([1.0, 2.0], [1.0, 2.0]))

    def test_entries_read_only(self):
        given = np.eye(2)
        params = MixtureParams(alpha1=0.7, mu1=np.zeros(2), mu2=np.ones(2), sigma=given)
        with pytest.raises(ValueError):
            params.sigma[0, 0] = 5.0
        # The caller's array is copied, not frozen.
        given[0, 0] = 5.0
        assert params.sigma[0, 0] == 1.0


class TestDerive:
    def test_reference_example(self):
        d = derive(reference_params())
        np.testing.assert_allclose(d.h, [2.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(d.theta, [2.0, 0.0, 0.0], atol=1e-15)
        assert d.tau == pytest.approx(4.0)
        assert d.beta == pytest.approx(0.21)
        assert d.gamma == pytest.approx(0.4)
        m = inv_sqrt(reference_params().sigma) @ d.h
        np.testing.assert_allclose(m, [2.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(m / np.linalg.norm(m), [1.0, 0.0, 0.0], atol=1e-12)

    def test_general_sigma_identities(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            p = int(rng.integers(2, 7))
            a = rng.standard_normal((p, p))
            sigma = a @ a.T + 0.5 * np.eye(p)
            mu1 = rng.standard_normal(p)
            mu2 = rng.standard_normal(p)
            params = MixtureParams(alpha1=float(rng.uniform(0.55, 0.95)),
                                   mu1=mu1, mu2=mu2, sigma=sigma)
            d = derive(params)
            np.testing.assert_allclose(sigma @ d.theta, d.h, atol=1e-9)
            assert d.tau == pytest.approx(float(d.h @ d.theta), rel=1e-12)
            m = inv_sqrt(sigma) @ d.h
            assert float(m @ m) == pytest.approx(d.tau, rel=1e-9)
            assert np.linalg.norm(m / np.linalg.norm(m)) == pytest.approx(1.0, abs=1e-12)
            assert d.beta == pytest.approx(
                params.alpha1 * (1.0 - params.alpha1))

    def test_c2_is_the_one_population_covariance(self):
        # derive forms Sigma + beta h h' once; population_moments,
        # whitened_mixture and avar_mom read it from there
        params = MixtureParams(alpha1=0.75, mu1=np.array([0.2, -0.5, 1.0]),
                               mu2=np.array([3.4, 1.9, -0.2]),
                               sigma=np.array([[2.0, 0.4, 0.0], [0.4, 1.2, -0.3],
                                               [0.0, -0.3, 0.8]]))
        d = derive(params)
        np.testing.assert_array_equal(
            d.c2, params.sigma + d.beta * np.outer(d.h, d.h))
        np.testing.assert_array_equal(population_moments(params).c2,
                                      (d.c2 + d.c2.T) / 2.0)

    def test_mean_shift_irrelevant(self):
        base = reference_params()
        shifted = MixtureParams(alpha1=0.7,
                                mu1=base.mu1 + 5.0, mu2=base.mu2 + 5.0,
                                sigma=base.sigma)
        d0, d1 = derive(base), derive(shifted)
        np.testing.assert_allclose(d0.h, d1.h, atol=1e-12)
        assert d0.tau == pytest.approx(d1.tau)


class TestDataSet:
    def test_basic(self):
        ds = DataSet(observations=np.zeros((4, 2)),
                     labels=np.array([-1, 1, 1, -1]))
        assert ds.n == 4 and ds.p == 2

    def test_unlabeled_allowed(self):
        assert DataSet(observations=np.zeros((3, 2))).labels is None

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            DataSet(observations=np.zeros((2, 2)), labels=np.array([0, 1]))
        with pytest.raises(ValueError):
            DataSet(observations=np.zeros((2, 2)), labels=np.array([-1]))

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError):
            DataSet(observations=np.zeros(5))

    @pytest.mark.parametrize("labels", [
        [1, -1], [0, 1], [1.0, -1.0], [1.0, 0.5], [True, True], [True, False],
        ["1", "-1"], np.array([1, -1], dtype=object), np.array([1, "1"], dtype=object),
        [1 + 0j, -1], [1j, 1], [np.nan, 1.0], [None, 1], [None, None],
    ])
    def test_label_check_agrees_with_isin(self, labels):
        lab = np.asarray(labels)
        obs = np.zeros((len(lab), 2))
        if np.isin(lab, (-1, 1)).all():
            got = DataSet(obs, labels=lab).labels
            assert got.dtype.kind == "i"
            np.testing.assert_array_equal(got, lab.real.astype(int))
        else:
            with pytest.raises(ValueError, match="labels must take values"):
                DataSet(obs, labels=lab)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        obs = np.zeros((3, 2))
        obs[1, 0] = bad
        with pytest.raises(ValueError):
            DataSet(observations=obs)


class TestSample:
    def test_reproducible(self):
        params = reference_params()
        a = sample(params, 100, np.random.default_rng(7))
        b = sample(params, 100, np.random.default_rng(7))
        np.testing.assert_array_equal(a.observations, b.observations)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_label_fraction_and_component_means(self):
        params = reference_params()
        ds = sample(params, 20000, np.random.default_rng(11))
        frac_first = float(np.mean(ds.labels == -1))
        # binomial sd at n = 20000 is about 0.0032
        assert frac_first == pytest.approx(0.7, abs=0.02)
        first = ds.observations[ds.labels == -1]
        second = ds.observations[ds.labels == 1]
        np.testing.assert_allclose(first.mean(axis=0), params.mu1, atol=0.05)
        np.testing.assert_allclose(second.mean(axis=0), params.mu2, atol=0.05)

    def test_component_covariance(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        sigma = a @ a.T
        params = MixtureParams(alpha1=0.8, mu1=np.zeros(2),
                               mu2=np.array([3.0, 0.0]),
                               sigma=sigma)
        ds = sample(params, 40000, np.random.default_rng(12))
        first = ds.observations[ds.labels == -1]
        np.testing.assert_allclose(np.cov(first.T), sigma, atol=0.15)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample(reference_params(), 0, np.random.default_rng(0))

    @pytest.mark.parametrize("p", [2, 3, 30])
    def test_means_as_np_where_picks_them(self, p):
        rng = np.random.default_rng(p)
        a = rng.standard_normal((p, p))
        params = MixtureParams(alpha1=0.7, mu1=rng.standard_normal(p),
                               mu2=rng.standard_normal(p), sigma=a @ a.T + np.eye(p))
        got = sample(params, 500, np.random.default_rng(90 + p))
        draw = np.random.default_rng(90 + p)
        from_first = draw.random(500) < params.alpha1
        noise = draw.standard_normal((500, p))
        want = (np.where(from_first[:, None], params.mu1, params.mu2)
                + noise @ np.linalg.cholesky(params.sigma).T)
        assert got.observations.tobytes() == want.tobytes()
        np.testing.assert_array_equal(got.labels, np.where(from_first, -1, 1))


class TestPopulationMoments:
    def test_reference_frozen_values(self):
        pm = population_moments(reference_params())
        np.testing.assert_allclose(pm.c2, np.diag([1.84, 1.0, 1.0]),
                                   atol=1e-12)
        np.testing.assert_allclose(pm.c3, [0.672, 0.0, 0.0], atol=1e-12)
        assert pm.cov_x_xkronx[0, 0] == pytest.approx(0.672, abs=1e-12)

    def test_shapes(self):
        pm = population_moments(reference_params())
        assert pm.c2.shape == (3, 3)
        assert pm.c3.shape == (3,)
        assert pm.cov_x_xkronx.shape == (3, 9)
        assert pm.cov_xkronx.shape == (9, 9)
        assert pm.cov_x_xxtx.shape == (3, 3)
        assert pm.cov_xkronx_xxtx.shape == (9, 3)
        assert pm.cov_xxtx.shape == (3, 3)

    def test_low_order_formulas_50_draws(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            p = int(rng.integers(2, 7))
            a = rng.standard_normal((p, p))
            sigma = a @ a.T + 0.5 * np.eye(p)
            params = MixtureParams(alpha1=float(rng.uniform(0.55, 0.95)),
                                   mu1=rng.standard_normal(p),
                                   mu2=rng.standard_normal(p),
                                   sigma=sigma)
            d = derive(params)
            pm = population_moments(params)
            scale = np.abs(sigma).max()
            np.testing.assert_allclose(
                pm.c2, sigma + d.beta * np.outer(d.h, d.h),
                atol=1e-12 * scale)
            np.testing.assert_allclose(
                pm.c3, d.beta * d.gamma * float(d.h @ d.h) * d.h,
                atol=1e-12 * max(1.0, np.abs(d.h).max() ** 3))

    def test_kron_block_respects_commutation(self):
        params = MixtureParams(alpha1=0.65,
                               mu1=np.array([0.3, -0.2]),
                               mu2=np.array([-0.9, 1.1]),
                               sigma=np.array([[1.5, 0.4],
                                               [0.4, 0.8]]))
        pm = population_moments(params)
        k = commutation_matrix(2)
        np.testing.assert_allclose(k @ pm.cov_xkronx, pm.cov_xkronx,
                                   atol=1e-12)
        np.testing.assert_allclose(pm.cov_xkronx @ k, pm.cov_xkronx,
                                   atol=1e-12)
        np.testing.assert_allclose(k @ pm.cov_xkronx_xxtx,
                                   pm.cov_xkronx_xxtx, atol=1e-12)

    @pytest.mark.parametrize("alpha1,mu1,mu2,sig", [
        (0.7, [-0.6, 0.0], [1.4, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
        (0.65, [0.4, -1.0], [-0.8, 0.7], [[1.3, 0.5], [0.5, 2.1]]),
        (0.9, [1.0, 2.0, 3.0], [0.2, -0.5, 3.5],
         [[2.0, 0.3, -0.1], [0.3, 1.1, 0.2], [-0.1, 0.2, 0.9]]),
    ])
    def test_agrees_with_pair_partition_oracle(self, alpha1, mu1, mu2, sig):
        params = MixtureParams(alpha1=alpha1, mu1=np.array(mu1, float),
                               mu2=np.array(mu2, float),
                               sigma=np.array(sig, float))
        pm = population_moments(params)
        oracle = MixtureMomentOracle(alpha1, mu1, mu2, np.array(sig, float))
        for name in BLOCKS:
            got = np.asarray(getattr(pm, name), dtype=float)
            want = getattr(oracle, name)()
            scale = max(np.abs(want).max(), 1.0)
            np.testing.assert_allclose(got, want, atol=1e-12 * scale,
                                       err_msg=name)


class TestWhitenedLaws:
    def test_whitened_mixture_reference(self):
        wm = whitened_mixture(reference_params())
        gap = wm.mu2 - wm.mu1
        assert np.linalg.norm(gap) == pytest.approx(1.474420, abs=1e-6)
        d = derive(wm)
        assert d.tau == pytest.approx(4.0, rel=1e-12)
        w = gap / np.linalg.norm(gap)
        along = float(w @ np.asarray(wm.sigma) @ w)
        assert along == pytest.approx(0.543478, abs=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_whitened_mixture_overflow_is_typed_without_warnings(self):
        # C2 = Sigma + beta h h' leaves double range: one typed error, no
        # overflow warning first, so it holds where warnings are errors
        params = MixtureParams(0.7, [0.0, 0.0], [1e200, 0.0], np.eye(2))
        with pytest.raises(NonFiniteError):
            whitened_mixture(params)

    def test_whitened_mixture_has_identity_covariance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = int(rng.integers(2, 6))
            a = rng.standard_normal((p, p))
            params = MixtureParams(alpha1=float(rng.uniform(0.55, 0.95)),
                                   mu1=rng.standard_normal(p),
                                   mu2=rng.standard_normal(p),
                                   sigma=a @ a.T + 0.3 * np.eye(p))
            law = whitened_mixture(params)
            c2 = np.asarray(population_moments(law).c2)
            np.testing.assert_allclose(c2, np.eye(p), atol=1e-12)
            assert derive(law).tau == pytest.approx(derive(params).tau, rel=1e-9)

    def test_population_whitener_on_sampled_data(self):
        # applying C2^{-1/2} from the population to centered draws must
        # leave a sample covariance within sampling error of the identity
        from skewdisc.linalg import inv_sqrt
        n = 100000
        rng = np.random.default_rng(15)
        for params in (reference_params(),
                       MixtureParams(alpha1=0.8,
                                     mu1=np.array([1.0, -1.0]),
                                     mu2=np.array([-0.5, 0.8]),
                                     sigma=np.array([[1.6, 0.5],
                                                     [0.5, 0.9]]))):
            root = np.asarray(inv_sqrt(np.asarray(
                population_moments(params).c2)))
            x = sample(params, n, rng).observations
            z = (x - x.mean(axis=0)) @ root
            gap = z.T @ z / n - np.eye(params.p)
            assert np.abs(gap).max() < 5.0 * np.sqrt(2.0 / n)

    def test_whitened_mixture_matches_root_transform(self):
        params = MixtureParams(alpha1=0.75,
                               mu1=np.array([1.0, -2.0]),
                               mu2=np.array([0.0, 1.0]),
                               sigma=np.array([[2.0, 0.6],
                                               [0.6, 1.4]]))
        wm = whitened_mixture(params)
        d = derive(params)
        from skewdisc.linalg import inv_sqrt
        c2 = np.asarray(params.sigma) + d.beta * np.outer(d.h, d.h)
        h_w = np.asarray(inv_sqrt(c2)) @ d.h
        np.testing.assert_allclose(wm.mu2 - wm.mu1, h_w, atol=1e-10)


class TestThirdMomentSlices:
    def test_closed_form(self):
        params = reference_params()
        slices = population_tk(params)
        d = derive(params)
        for k, s in enumerate(slices):
            np.testing.assert_allclose(
                s, d.beta * d.gamma * d.h[k] * np.outer(d.h, d.h), atol=1e-14)

    def test_whitened_reference_entry(self):
        slices = population_tk(whitened_mixture(reference_params()))
        assert slices[0][0, 0] == pytest.approx(0.269242, abs=1e-6)

    def test_trace_recovers_third_moment_vector(self):
        params = MixtureParams(alpha1=0.8,
                               mu1=np.array([0.5, -0.3, 0.1]),
                               mu2=np.array([-1.0, 0.6, 0.4]),
                               sigma=np.eye(3) * 1.7)
        slices = population_tk(params)
        gathered = np.array([sum(s[k, j] for k, s in enumerate(slices))
                             for j in range(3)])
        np.testing.assert_allclose(gathered, population_moments(params).c3,
                                   atol=1e-12)
