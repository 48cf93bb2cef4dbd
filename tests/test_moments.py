"""Sample moment statistics and third-moment slices."""

import numpy as np
import pytest

from skewdisc.model import (DataSet, MixtureParams, derive,
                            population_moments,
                            population_third_moment_slices, sample,
                            whitened_mixture)
from skewdisc.errors import NonFiniteError
from skewdisc.moments import sample_moments, tk_slices, tobi_matrix


class TestSampleMoments:
    def test_hand_example(self):
        ds = DataSet(observations=np.array([[0.0, 0.0],
                                            [1.0, 0.0],
                                            [2.0, 3.0]]))
        mean, c2, c3 = sample_moments(ds.observations)
        np.testing.assert_allclose(mean, [1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(c2,
                                   [[2.0 / 3.0, 1.0], [1.0, 2.0]], atol=1e-15)
        np.testing.assert_allclose(c3, [1.0, 7.0 / 3.0], atol=1e-14)

    def test_divisor_is_n(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((37, 4))
        _, c2, _ = sample_moments(x)
        np.testing.assert_allclose(c2, np.cov(x.T, bias=True),
                                   atol=1e-12)

    def test_c3_matches_tensor_contraction(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((200, 3)) + rng.standard_normal(3)
        _, _, c3 = sample_moments(x)
        xc = x - x.mean(axis=0)
        direct = np.einsum("ni,nj,nj->i", xc, xc, xc) / len(x)
        np.testing.assert_allclose(c3, direct, atol=1e-12)

    def test_converges_to_population(self):
        params = MixtureParams(alpha1=0.7,
                               mu1=np.array([-0.6, 0.0, 0.0]),
                               mu2=np.array([1.4, 0.0, 0.0]),
                               sigma=np.eye(3))
        ds = sample(params, 200000, np.random.default_rng(22))
        mean, c2, c3 = sample_moments(ds.observations)
        pm = population_moments(params)
        np.testing.assert_allclose(mean, np.zeros(3), atol=0.02)
        np.testing.assert_allclose(c2, pm.c2, atol=0.03)
        np.testing.assert_allclose(c3, pm.c3, atol=0.08)

    def test_translation_invariance(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((300, 4))
        shift = rng.standard_normal(4) * 50.0
        _, base_c2, base_c3 = sample_moments(x)
        _, moved_c2, moved_c3 = sample_moments(x + shift)
        np.testing.assert_allclose(moved_c2, base_c2, atol=1e-10)
        np.testing.assert_allclose(moved_c3, base_c3, atol=1e-10)

    def test_c3_error_shrinks_with_n(self):
        # root-n rate: quadrupling n should about halve the error;
        # allow a factor-3 cushion on the halving
        params = MixtureParams(alpha1=0.7,
                               mu1=np.array([-0.6, 0.0, 0.0]),
                               mu2=np.array([1.4, 0.0, 0.0]),
                               sigma=np.eye(3))
        c3_true = population_moments(params).c3
        rng = np.random.default_rng(30)
        errors = {10000: [], 40000: []}
        for _ in range(20):
            for n in errors:
                _, _, c3 = sample_moments(sample(params, n, rng).observations)
                errors[n].append(np.linalg.norm(c3 - c3_true))
        med_small = float(np.median(errors[10000]))
        med_large = float(np.median(errors[40000]))
        assert med_large < 3.0 * med_small * 0.5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_covariance_rejected(self):
        x = np.random.default_rng(24).standard_normal((40, 3)) * 1e160
        with pytest.raises(NonFiniteError):
            sample_moments(x)

    def test_too_small_sample_rejected(self):
        with pytest.raises(ValueError):
            sample_moments(np.zeros((1, 2)))

    def test_symmetric_output(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((50, 5))
        _, c2, _ = sample_moments(x)
        np.testing.assert_array_equal(c2, c2.T)


class TestTkSlices:
    def test_matches_tensor_contraction(self):
        rng = np.random.default_rng(24)
        z = rng.standard_normal((300, 4))
        z -= z.mean(axis=0)
        tk = tk_slices(z)
        direct = np.einsum("ni,nj,nk->kij", z, z, z) / len(z)
        assert tk.shape == (4, 4, 4)
        for k in range(4):
            want = (direct[k] + direct[k].T) / 2.0
            np.testing.assert_allclose(tk[k], want, atol=1e-12)

    def test_slices_symmetric(self):
        rng = np.random.default_rng(25)
        z = rng.standard_normal((100, 3))
        for s in tk_slices(z):
            np.testing.assert_array_equal(s, s.T)

    def test_population_limit(self):
        params = MixtureParams(alpha1=0.7,
                               mu1=np.array([-0.6, 0.0, 0.0]),
                               mu2=np.array([1.4, 0.0, 0.0]),
                               sigma=np.eye(3))
        law = whitened_mixture(params)
        ds = sample(law, 200000, np.random.default_rng(26))
        z = ds.observations - ds.observations.mean(axis=0)
        tk = tk_slices(z)
        want = population_third_moment_slices(law)
        assert want[0][0, 0] == pytest.approx(0.269242, abs=1e-6)
        for got, ref in zip(tk, want):
            np.testing.assert_allclose(got, ref, atol=0.05)


class TestTobiMatrix:
    def test_sum_of_squares(self):
        rng = np.random.default_rng(27)
        z = rng.standard_normal((500, 3))
        z -= z.mean(axis=0)
        tk = tk_slices(z)
        direct = sum(s @ s for s in tk)
        np.testing.assert_allclose(tobi_matrix(tk), direct, atol=1e-12)

    def test_positive_semidefinite_symmetric(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            z = rng.standard_normal((200, int(rng.integers(2, 6))))
            z -= z.mean(axis=0)
            t = tobi_matrix(tk_slices(z))
            np.testing.assert_array_equal(t, t.T)
            assert np.linalg.eigvalsh(t).min() >= -1e-10

    def test_population_rank_one(self):
        # slices of the whitened law are beta*gamma*h_k h h', so the
        # summed square is (beta gamma)^2 ||h||^4 h h'
        params = MixtureParams(alpha1=0.7,
                               mu1=np.array([-0.6, 0.0, 0.0]),
                               mu2=np.array([1.4, 0.0, 0.0]),
                               sigma=np.eye(3))
        law = whitened_mixture(params)
        d = derive(law)
        tk = np.array(population_third_moment_slices(law))
        t = tobi_matrix(tk)
        nh2 = float(d.h @ d.h)
        want = (d.beta * d.gamma) ** 2 * nh2 ** 2 * np.outer(d.h, d.h)
        np.testing.assert_allclose(t, want, atol=1e-12)
        vals, vecs = np.linalg.eigh(t)
        assert vals[-1] > 0.0
        assert vals[:-1] == pytest.approx([0.0, 0.0], abs=1e-12)
        top = vecs[:, -1]
        np.testing.assert_allclose(np.abs(top), np.abs(d.w), atol=1e-10)
