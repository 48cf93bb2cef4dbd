"""Sample moment statistics and third-moment slices."""

import itertools
import re

import numpy as np
import pytest

from skewdisc.model import (DataSet, MixtureParams, derive,
                            population_moments, sample, whitened_mixture)
from skewdisc.errors import NonFiniteError
from skewdisc.linalg import inv_sqrt
from skewdisc.moments import (sample_moments, third_moment, tk_slices,
                              tobi_matrix)


#: Sizes below, at and across the row blocks tk_slices sums over: 8192
#: rows for p <= 3, 3277 for p = 10 and 1093 for p = 30.
BLOCK_EDGE_N = (1092, 1093, 1094, 2000, 3277, 8191, 8192, 8193, 20000)


def skewed_rows(p, n):
    """Centered rows with a skewed common factor, so T is far from zero."""
    rng = np.random.default_rng(1000 * p + n)
    z = rng.standard_normal((n, p)) + rng.exponential(size=(n, 1))
    return z - z.mean(axis=0)


def population_tk(law):
    """The population T_k slices of a whitened law, as one (p, p, p) array."""
    return population_moments(law).cov_x_xkronx.reshape(law.p, law.p, law.p)


class TestSampleMoments:
    def test_hand_example(self):
        ds = DataSet(observations=np.array([[0.0, 0.0],
                                            [1.0, 0.0],
                                            [2.0, 3.0]]))
        mean, c2 = sample_moments(ds.observations)
        c3 = third_moment(ds.observations - mean)
        np.testing.assert_allclose(mean, [1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(c2,
                                   [[2.0 / 3.0, 1.0], [1.0, 2.0]], atol=1e-15)
        np.testing.assert_allclose(c3, [1.0, 7.0 / 3.0], atol=1e-14)

    def test_divisor_is_n(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((37, 4))
        _, c2 = sample_moments(x)
        np.testing.assert_allclose(c2, np.cov(x.T, bias=True),
                                   atol=1e-12)

    def test_c3_matches_tensor_contraction(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((200, 3)) + rng.standard_normal(3)
        mean, _ = sample_moments(x)
        c3 = third_moment(x - mean)
        xc = x - x.mean(axis=0)
        direct = np.einsum("ni,nj,nj->i", xc, xc, xc) / len(x)
        np.testing.assert_allclose(c3, direct, atol=1e-12)

    def test_converges_to_population(self):
        params = MixtureParams(alpha1=0.7,
                               mu1=np.array([-0.6, 0.0, 0.0]),
                               mu2=np.array([1.4, 0.0, 0.0]),
                               sigma=np.eye(3))
        ds = sample(params, 200000, np.random.default_rng(22))
        mean, c2 = sample_moments(ds.observations)
        c3 = third_moment(ds.observations - mean)
        pm = population_moments(params)
        np.testing.assert_allclose(mean, np.zeros(3), atol=0.02)
        np.testing.assert_allclose(c2, pm.c2, atol=0.03)
        np.testing.assert_allclose(c3, pm.c3, atol=0.08)

    def test_translation_invariance(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((300, 4))
        shift = rng.standard_normal(4) * 50.0
        base_mean, base_c2 = sample_moments(x)
        base_c3 = third_moment(x - base_mean)
        moved_mean, moved_c2 = sample_moments(x + shift)
        moved_c3 = third_moment(x + shift - moved_mean)
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
                x = sample(params, n, rng).observations
                mean, _ = sample_moments(x)
                c3 = third_moment(x - mean)
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

    def test_nested_list_accepted(self):
        rows = [[0, 1], [1, 2], [3, 1]]
        got = sample_moments(rows)
        want = sample_moments(np.array(rows, dtype=float))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("x", [np.arange(4.0), np.zeros((3, 2, 2, 2))],
                             ids=["1-d", "4-d"])
    def test_non_matrix_rejected(self, x):
        # a 3-d array is a stack of n x p datasets
        with pytest.raises(ValueError, match=re.escape(f"shape {x.shape}")):
            sample_moments(x)

    def test_stack_gives_each_members_moments(self):
        x = np.random.default_rng(29).standard_normal((3, 40, 2))
        mean, c2 = sample_moments(x)
        for b in range(3):
            np.testing.assert_array_equal(mean[b], sample_moments(x[b])[0])
            np.testing.assert_array_equal(c2[b], sample_moments(x[b])[1])

    def test_symmetric_output(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((50, 5))
        _, c2 = sample_moments(x)
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

    @pytest.mark.parametrize("n", BLOCK_EDGE_N)
    @pytest.mark.parametrize("p", [2, 3, 10, 30])
    def test_matches_einsum_across_row_blocks(self, p, n):
        z = skewed_rows(p, n)
        want = np.einsum("ni,nj,nk->ijk", z, z, z) / n
        got = tk_slices(z)
        assert got.shape == (p, p, p)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n", BLOCK_EDGE_N)
    @pytest.mark.parametrize("p", [2, 3, 10, 30])
    def test_symmetric_under_every_index_permutation(self, p, n):
        tk = tk_slices(skewed_rows(p, n))
        for perm in itertools.permutations(range(3)):
            np.testing.assert_array_equal(tk, tk.transpose(perm))

    @pytest.mark.parametrize("p", [1, 2, 3, 10, 30])
    def test_exact_on_integer_rows(self, p):
        # small nonzero integers: every product and every sum is exact in
        # float64, so any order of summation gives the einsum's bits, and a
        # wrong packed index or fill shows as a wrong entry
        step = min(8192, 2 ** 15 // p + 1)
        rng = np.random.default_rng(p)
        for n in (5, step - 1, step, step + 1, 2 * step + 3):
            z = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], size=(n, p))
            want = np.einsum("nk,na,nb->kab", z, z, z) / n
            assert tk_slices(z).tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("n", [300, 3278])
    @pytest.mark.parametrize("p", [1, 2, 3, 10, 30])
    @pytest.mark.parametrize("stack", [1, 4])
    def test_stack_members_equal_members_alone(self, stack, p, n):
        # p-major, as the package builds its stacks
        z = np.stack([skewed_rows(p, n + b)[:n] for b in range(stack)])
        z = np.ascontiguousarray(z.swapaxes(-1, -2)).swapaxes(-1, -2)
        tk = tk_slices(z)
        assert tk.shape == (stack, p, p, p)
        for b in range(stack):
            assert tk[b].flags.c_contiguous
            assert tk[b].tobytes() == tk_slices(z[b]).tobytes(), b

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
        want = population_tk(law)
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

    @pytest.mark.parametrize("p", [2, 10, 30])
    def test_equals_sum_of_squared_slices(self, p):
        tk = tk_slices(skewed_rows(p, 2000))
        want = sum(s @ s for s in tk)
        assert np.abs(tobi_matrix(tk) - want).max() <= 1e-13 * np.abs(want).max()

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
        tk = population_tk(law)
        t = tobi_matrix(tk)
        nh2 = float(d.h @ d.h)
        want = (d.beta * d.gamma) ** 2 * nh2 ** 2 * np.outer(d.h, d.h)
        np.testing.assert_allclose(t, want, atol=1e-12)
        vals, vecs = np.linalg.eigh(t)
        assert vals[-1] > 0.0
        assert vals[:-1] == pytest.approx([0.0, 0.0], abs=1e-12)
        top = vecs[:, -1]
        m = inv_sqrt(law.sigma) @ d.h
        np.testing.assert_allclose(np.abs(top), np.abs(m / np.linalg.norm(m)), atol=1e-10)
