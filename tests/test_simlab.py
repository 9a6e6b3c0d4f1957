"""Simulation lab: LKJ sampler distributional checks, truth generation,
latent mixtures, categorical sampling, recovery metrics, and file formats."""

import numpy as np
import pytest
from scipy import stats

from gradedvi.grm import MISSING, GrmValues, category_probs, conditional_loglik_values
from gradedvi.simlab import (
    DesignError,
    LatentSpec,
    SimDesign,
    intercept_stack,
    mse_bias,
    read_responses_csv,
    read_truth_json,
    rmse_vs_reference,
    sample_latents,
    sample_lkj,
    sample_responses,
    sample_true_params,
    simulate,
    truth_from_dict,
    truth_to_dict,
    write_responses_csv,
    write_truth_json,
)
from gradedvi.rngutil import substream


class TestSampleLkj:
    def test_unit_diagonal_and_pd(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            dim = rng.integers(2, 6)
            corr = sample_lkj(int(dim), 1.0, rng)
            np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)
            np.testing.assert_allclose(corr, corr.T, atol=1e-12)
            assert np.linalg.eigvalsh(corr).min() > 0

    def test_eta_one_gives_uniform_offdiagonal_in_2d(self):
        rng = np.random.default_rng(1)
        draws = np.array([sample_lkj(2, 1.0, rng)[0, 1] for _ in range(10_000)])
        assert stats.kstest(draws, stats.uniform(loc=-1, scale=2).cdf).pvalue > 0.01

    def test_same_seed_same_matrix(self):
        a = sample_lkj(4, 1.0, np.random.default_rng(7))
        b = sample_lkj(4, 1.0, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_pd_across_dimensions(self):
        rng = np.random.default_rng(2)
        for dim in range(2, 11):
            for _ in range(50):
                corr = sample_lkj(dim, 1.0, rng)
                assert np.linalg.eigvalsh(corr).min() > 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sample_lkj(1, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_lkj(3, 0.0, np.random.default_rng(0))


class TestSampleTrueParams:
    def _design(self, **kw):
        base = dict(n_respondents=100, n_items=10, n_factors=2, categories=4,
                    structure="simple", seed=3)
        base.update(kw)
        return SimDesign(**base)

    def test_loadings_positive_on_pattern(self):
        values, mask = sample_true_params(self._design(), np.random.default_rng(3))
        on = mask.astype(bool)
        assert (values.loadings[on] > 0).all()
        assert (values.loadings[~on] == 0).all()

    def test_lognormal_median_near_one(self):
        rng = np.random.default_rng(4)
        design = self._design(n_items=100, n_factors=1, structure="none")
        draws = np.concatenate([
            sample_true_params(design, rng)[0].loadings.ravel() for _ in range(100)])
        assert np.median(draws) == pytest.approx(1.0, abs=0.03)

    def test_intercepts_strictly_ordered(self):
        values, _ = sample_true_params(self._design(categories=5), np.random.default_rng(5))
        for a in values.intercepts:
            assert (np.diff(a) < 0).all()

    def test_two_category_items_supported(self):
        values, _ = sample_true_params(self._design(categories=2), np.random.default_rng(6))
        assert all(len(a) == 1 for a in values.intercepts)


class TestSampleLatents:
    def test_mixture_mean_near_zero(self):
        design = SimDesign(n_respondents=100_000, n_items=4, n_factors=1,
                           categories=3, structure="none",
                           latent=LatentSpec(kind="mixture"))
        z = sample_latents(design, np.eye(1), np.random.default_rng(7))
        assert abs(z.mean()) < 0.03

    def test_mixture_variance_formula(self):
        # var = 0.5 + 0.4*2.25*2 = 2.3 for the default three components
        design = SimDesign(n_respondents=100_000, n_items=4, n_factors=1,
                           categories=3, structure="none",
                           latent=LatentSpec(kind="mixture"))
        z = sample_latents(design, np.eye(1), np.random.default_rng(8))
        assert z.var() == pytest.approx(2.3, rel=0.05)

    def test_normal_recovers_correlation(self):
        corr = np.array([[1.0, 0.6], [0.6, 1.0]])
        design = SimDesign(n_respondents=10_000, n_items=4, n_factors=2,
                           categories=3, structure="none")
        z = sample_latents(design, corr, np.random.default_rng(9))
        emp = np.corrcoef(z.T)
        assert np.abs(emp - corr).max() < 0.05


class TestSampleResponses:
    def test_zero_loading_frequencies_match_intercept_probs(self):
        rng = np.random.default_rng(10)
        intercepts = [np.array([1.0, -1.0]) for _ in range(3)]
        values = GrmValues(loadings=np.zeros((3, 1)), intercepts=intercepts,
                           factor_corr=np.eye(1))
        n = 20_000
        z = rng.standard_normal((n, 1))
        resp = sample_responses(values, z, np.full(3, 3), rng)
        probs = category_probs(np.zeros((1, 1)), values)[0, 0]
        for k in range(3):
            freq = (resp.data[:, 0] == k).mean()
            se = np.sqrt(probs[k] * (1 - probs[k]) / n)
            assert abs(freq - probs[k]) < 3 * se + 1e-9

    def test_responses_in_range(self):
        truth = simulate(SimDesign(n_respondents=200, n_items=10, n_factors=2,
                                   categories=4, seed=11))
        assert truth.responses.data.min() >= 0
        assert (truth.responses.data < 4).all()

    def test_same_seed_identical_matrix(self):
        d = SimDesign(n_respondents=50, n_items=10, n_factors=2, categories=3, seed=12)
        a = simulate(d)
        b = simulate(d)
        np.testing.assert_array_equal(a.responses.data, b.responses.data)
        np.testing.assert_array_equal(a.latents, b.latents)


    def test_replications_share_parameters_not_data(self):
        d = SimDesign(n_respondents=50, n_items=10, n_factors=2, categories=3, seed=12)
        base, rep1 = simulate(d), simulate(d, replication=1)
        np.testing.assert_array_equal(rep1.values.loadings, base.values.loadings)
        np.testing.assert_array_equal(rep1.values.factor_corr, base.values.factor_corr)
        for x, y in zip(rep1.values.intercepts, base.values.intercepts, strict=True):
            np.testing.assert_array_equal(x, y)
        assert not np.array_equal(rep1.latents, base.latents)
        assert not np.array_equal(rep1.responses.data, base.responses.data)
        # replication 0 is the design seed's own draw
        np.testing.assert_array_equal(simulate(d, replication=0).responses.data,
                                      base.responses.data)


class TestPipeline:
    def test_determinism_bit_identical(self):
        d = SimDesign(n_respondents=80, n_items=8, n_factors=2, categories=4, seed=13)
        a, b = simulate(d), simulate(d)
        np.testing.assert_array_equal(a.values.loadings, b.values.loadings)
        for x, y in zip(a.values.intercepts, b.values.intercepts):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a.values.factor_corr, b.values.factor_corr)

    def test_truth_maximizes_likelihood_locally(self):
        rng = np.random.default_rng(14)
        truth = simulate(SimDesign(n_respondents=400, n_items=10, n_factors=2,
                                   categories=4, seed=15))
        at_truth = conditional_loglik_values(truth.responses.data, truth.latents,
                                             truth.values).mean()
        for _ in range(20):
            bumped = GrmValues(
                loadings=truth.values.loadings + rng.uniform(-0.5, 0.5,
                                                             truth.values.loadings.shape) * truth.loading_mask,
                intercepts=[a + rng.uniform(-0.5, 0.5, a.shape)
                            for a in truth.values.intercepts],
                factor_corr=truth.values.factor_corr)
            # keep the boundary ordering valid after perturbation
            bumped.intercepts = [-np.sort(-a) - np.arange(len(a)) * 1e-9
                                 for a in bumped.intercepts]
            at_bump = conditional_loglik_values(truth.responses.data, truth.latents,
                                                bumped).mean()
            assert at_truth > at_bump

    def test_design_validation(self):
        with pytest.raises(DesignError):
            SimDesign(n_items=10, n_factors=3, structure="simple").validate()
        with pytest.raises(DesignError):
            SimDesign(latent=LatentSpec(kind="mixture", weights=(0.5, 0.4),
                                        means=(0, 1))).validate()
        with pytest.raises(DesignError):
            SimDesign(categories=1).validate()


class TestMetrics:
    def _values(self, rng):
        return GrmValues(loadings=rng.normal(size=(4, 2)),
                         intercepts=[np.array([1.0, 0.0]) for _ in range(4)],
                         factor_corr=np.array([[1.0, 0.3], [0.3, 1.0]]))

    def test_perfect_estimates_zero(self):
        truth = self._values(np.random.default_rng(16))
        rep = mse_bias([truth, truth], truth)
        for block in rep.values():
            assert block.mse == 0.0 and block.bias == 0.0

    def test_constant_shift(self):
        truth = self._values(np.random.default_rng(17))
        shifted = GrmValues(loadings=truth.loadings + 0.1,
                            intercepts=[a + 0.1 for a in truth.intercepts],
                            factor_corr=truth.factor_corr + 0.1 - 0.1 * np.eye(2))
        rep = mse_bias([shifted], truth)
        assert rep["loadings"].bias == pytest.approx(0.1)
        assert rep["loadings"].mse == pytest.approx(0.01)
        assert rep["intercepts"].bias == pytest.approx(0.1)
        assert rep["correlations"].bias == pytest.approx(0.1)

    def test_mse_dominates_squared_bias(self):
        rng = np.random.default_rng(18)
        truth = self._values(rng)
        ests = [GrmValues(loadings=truth.loadings + rng.normal(scale=0.3, size=(4, 2)),
                          intercepts=[a + rng.normal(scale=0.3, size=a.shape)
                                      for a in truth.intercepts],
                          factor_corr=truth.factor_corr) for _ in range(8)]
        rep = mse_bias(ests, truth)
        for block in rep.values():
            assert block.mse >= block.bias ** 2 - 1e-12

    def test_rmse_reference_identical_runs(self):
        a = np.ones((3, 2))
        assert rmse_vs_reference([a, a.copy(), a.copy()], 0) == 0.0

    def test_rmse_plus_minus_c(self):
        ref = np.zeros((2, 2))
        c = 0.37
        assert rmse_vs_reference([ref, ref + c, ref - c], 0) == pytest.approx(c)

    def test_rmse_three_run_hand_computation(self):
        ref = np.array([[1.0]])
        runs = [ref, np.array([[1.5]]), np.array([[0.0]])]
        expected = np.sqrt((0.25 + 1.0) / 2.0)
        assert rmse_vs_reference(runs, 0) == pytest.approx(expected)

    def test_intercept_stack_concatenates(self):
        truth = self._values(np.random.default_rng(19))
        assert intercept_stack(truth).shape == (8,)


class TestFileFormats:
    def test_responses_csv_roundtrip_with_missing(self, tmp_path):
        rng = np.random.default_rng(20)
        truth = simulate(SimDesign(n_respondents=30, n_items=5, n_factors=1,
                                   categories=3, structure="none", seed=21))
        data = truth.responses.data.copy()
        data[2, 3] = MISSING
        resp = type(truth.responses)(data, truth.responses.categories)
        path = tmp_path / "resp.csv"
        write_responses_csv(path, resp)
        header = path.read_text().splitlines()[0]
        assert header == "item_1,item_2,item_3,item_4,item_5"
        back = read_responses_csv(path, categories=resp.categories)
        np.testing.assert_array_equal(back.data, resp.data)

    def test_truth_json_roundtrip(self, tmp_path):
        truth = simulate(SimDesign(n_respondents=20, n_items=6, n_factors=2,
                                   categories=3, seed=22))
        path = tmp_path / "truth.json"
        write_truth_json(path, truth)
        values, mask = read_truth_json(path)
        np.testing.assert_array_equal(values.loadings, truth.values.loadings)
        np.testing.assert_array_equal(mask, truth.loading_mask)
        doc = truth_to_dict(truth)
        values2, _ = truth_from_dict(doc)
        np.testing.assert_array_equal(values2.factor_corr, truth.values.factor_corr)
