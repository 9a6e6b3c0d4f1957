"""Decoder correctness: boundary/category probabilities, likelihood oracles,
constrained parameterization, and the graph/array parity contract."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradedvi import diffkernel as dk
from gradedvi import grm
from gradedvi.grm import (
    MISSING,
    GrmParams,
    GrmValues,
    ResponseMatrix,
    category_logprob,
    category_probs,
    conditional_loglik_values,
    init_params,
    joint_logprob_values,
    prior_logpdf_values,
    response_selectors,
    simple_structure_mask,
    softplus_inv,
)


def logistic(t):
    return 1.0 / (1.0 + np.exp(-t))


def logit(p):
    return math.log(p / (1.0 - p))


def random_values(rng, M=4, P=2, C=4) -> GrmValues:
    loadings = rng.lognormal(0.0, 0.5, size=(M, P))
    # boundary model sigma(beta'z + alpha_k) needs strictly decreasing alphas
    intercepts = [-np.sort(rng.normal(0, 1, size=C - 1)) - np.arange(C - 1) * 1e-3
                  for _ in range(M)]
    a = rng.uniform(-0.6, 0.6)
    corr = np.array([[1.0, a], [a, 1.0]]) if P == 2 else np.eye(P)
    return GrmValues(loadings=loadings, intercepts=intercepts, factor_corr=corr)


class TestResponseMatrix:
    def test_rejects_out_of_range(self):
        with pytest.raises(grm.DataError, match=r"\(0, 1\)"):
            ResponseMatrix([[0, 5]], categories=[3, 3])

    def test_rejects_single_category(self):
        with pytest.raises(grm.DataError):
            ResponseMatrix([[0]], categories=[1])

    def test_missing_allowed(self):
        r = ResponseMatrix([[MISSING, 2]], categories=[3, 3])
        assert r.has_missing()


def sigmoid(t):
    """Boundary probability sigma(t) in the overflow-safe form the decoder
    uses, so values at equal t agree bit for bit."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0, e) / (1.0 + e)


class TestBoundaryProb:
    """Boundaries P(x_ij >= k | z) as category_probs builds them: 1 at k = 0
    and 0 at k = C_j exactly, sigma(beta_j'z + alpha_jk) in between."""

    def test_level_zero_is_one_exactly(self):
        vals = random_values(np.random.default_rng(0))
        probs = category_probs(np.zeros((3, 2)), vals)
        assert (probs[:, 1, 0] == 1.0 - sigmoid(vals.intercepts[1][0])).all()

    def test_top_level_is_zero_exactly(self):
        vals = random_values(np.random.default_rng(0), C=4)
        probs = category_probs(np.zeros((3, 2)), vals)
        assert (probs[:, 0, 3] == sigmoid(vals.intercepts[0][2])).all()

    def test_zero_logit_gives_half(self):
        vals = GrmValues(loadings=np.array([[1.0]]),
                         intercepts=[np.array([-2.0])],
                         factor_corr=np.eye(1))
        probs = category_probs(np.array([[2.0]]), vals)
        np.testing.assert_array_equal(probs[0, 0], [0.5, 0.5])

    def test_scalar_case(self):
        vals = GrmValues(loadings=np.array([[1.0, 0.0]]),
                         intercepts=[np.array([1.0])],
                         factor_corr=np.eye(2))
        probs = category_probs(np.array([[2.0, 0.0]]), vals)
        assert probs[0, 0, 1] == pytest.approx(0.952574, abs=1e-6)


class TestCategoryProbs:
    def test_successive_differences(self):
        # boundaries (1, 0.7, 0.2, 0) for C=3 -> category probs (.3, .5, .2)
        vals = GrmValues(loadings=np.zeros((1, 1)),
                         intercepts=[np.array([logit(0.7), logit(0.2)])],
                         factor_corr=np.eye(1))
        probs = category_probs(np.zeros((1, 1)), vals)[0, 0]
        np.testing.assert_allclose(probs, [0.3, 0.5, 0.2], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            vals = random_values(rng)
            z = rng.normal(size=(6, 2))
            probs = category_probs(z, vals)
            np.testing.assert_allclose(probs.sum(axis=2), 1.0, atol=1e-12)

    def test_monotone_intercepts_give_positive_probs(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            vals = random_values(rng)
            z = rng.normal(size=(4, 2)) * 2
            probs = category_probs(z, vals)
            assert (probs > 0).all()

    def test_sum_property_many_random_params(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            vals = random_values(rng, M=2, P=2, C=3)
            z = rng.normal(size=(2, 2))
            probs = category_probs(z, vals)
            assert np.abs(probs.sum(axis=2) - 1.0).max() < 1e-10

    def test_mixed_category_counts_pad_with_zero(self):
        vals = GrmValues(loadings=np.zeros((2, 1)),
                         intercepts=[np.array([0.0]), np.array([1.0, 0.0, -1.0])],
                         factor_corr=np.eye(1))
        probs = category_probs(np.zeros((1, 1)), vals)
        assert probs[0, 0, 2:].sum() == 0.0
        np.testing.assert_allclose(probs[0, 0, :2], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(probs[0, 1].sum(), 1.0, atol=1e-12)


class TestConditionalLoglik:
    def test_single_item_selects_category(self):
        vals = random_values(np.random.default_rng(4), M=1, P=2, C=4)
        z = np.array([[0.3, -0.2]])
        for k in range(4):
            ll = conditional_loglik_values(np.array([[k]]), z, vals)
            assert ll[0] == pytest.approx(category_logprob(z, vals)[0, 0, k])

    def test_all_missing_row_is_zero(self):
        vals = random_values(np.random.default_rng(5))
        x = np.full((2, 4), MISSING)
        out = conditional_loglik_values(x, np.zeros((2, 2)), vals)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_matches_bruteforce_product_three_items(self):
        rng = np.random.default_rng(6)
        vals = random_values(rng, M=3, P=2, C=3)
        z = rng.normal(size=(5, 2))
        x = rng.integers(0, 3, size=(5, 3))
        # independent oracle: per-item boundary differences, multiplied
        def boundary(i, j, level):
            if level == 0:
                return 1.0
            if level == 3:
                return 0.0
            return sigmoid(z[i] @ vals.loadings[j] + vals.intercepts[j][level - 1])

        expected = np.zeros(5)
        for i in range(5):
            prod = 1.0
            for j in range(3):
                prod *= boundary(i, j, x[i, j]) - boundary(i, j, x[i, j] + 1)
            expected[i] = math.log(prod)
        got = conditional_loglik_values(x, z, vals)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_item_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        vals = random_values(rng, M=5, P=2, C=3)
        z = rng.normal(size=(4, 2))
        x = rng.integers(0, 3, size=(4, 5))
        perm = rng.permutation(5)
        vals_p = GrmValues(loadings=vals.loadings[perm],
                           intercepts=[vals.intercepts[j] for j in perm],
                           factor_corr=vals.factor_corr)
        a = conditional_loglik_values(x, z, vals)
        b = conditional_loglik_values(x[:, perm], z, vals_p)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestJointLogprob:
    def test_standard_normal_at_origin(self):
        vals = random_values(np.random.default_rng(8), P=2)
        vals.factor_corr = np.eye(2)
        x = np.array([[1, 0, 2, 1]])
        z = np.zeros((1, 2))
        cond = conditional_loglik_values(x, z, vals)
        joint = joint_logprob_values(x, z, vals)
        assert joint[0] == pytest.approx(cond[0] - math.log(2 * math.pi), abs=1e-12)

    def test_bivariate_normal_closed_form(self):
        rho = 0.5
        vals = GrmValues(loadings=np.zeros((1, 2)), intercepts=[np.array([0.0])],
                         factor_corr=np.array([[1.0, rho], [rho, 1.0]]))
        rng = np.random.default_rng(9)
        z = rng.normal(size=(10, 2))
        got = prior_logpdf_values(z, vals)
        z1, z2 = z[:, 0], z[:, 1]
        expected = (-math.log(2 * math.pi) - 0.5 * math.log(1 - rho ** 2)
                    - (z1 ** 2 - 2 * rho * z1 * z2 + z2 ** 2) / (2 * (1 - rho ** 2)))
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestGraphPath:
    def _setup(self, seed=10, M=4, P=2, C=3, n=6):
        rng = np.random.default_rng(seed)
        params = init_params(M, P, C, seed=seed)
        x = rng.integers(0, C, size=(n, M))
        x[0, 1] = MISSING
        z = rng.normal(size=(n, P))
        return params, x, z

    def test_graph_matches_array_path(self):
        params, x, z = self._setup()
        sel = response_selectors(x, params.categories)
        eff = params.effective(None)
        got = grm.joint_logprob(None, eff, dk.const(z), sel).data[:, 0]
        expected = joint_logprob_values(x, z, params.values())
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_gradient_wrt_loadings_matches_fd(self):
        params, x, z = self._setup()
        sel = response_selectors(x, params.categories)

        def objective(raw):
            params.loadings_raw.data = raw
            eff = params.effective(None)
            out = grm.joint_logprob(None, eff, dk.const(z), sel)
            return float(out.data.sum())

        base = params.loadings_raw.data.copy()
        tape = dk.Tape()
        eff = params.effective(tape)
        root = dk.tsum(tape, grm.joint_logprob(tape, eff, dk.const(z), sel))
        tape.backward(root)
        analytic = params.loadings_raw.grad.copy()

        h = 1e-5
        fd = np.zeros_like(base)
        for idx in np.ndindex(*base.shape):
            plus = base.copy()
            plus[idx] += h
            minus = base.copy()
            minus[idx] -= h
            fd[idx] = (objective(plus) - objective(minus)) / (2 * h)
        params.loadings_raw.data = base
        assert np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-6

    def test_gradient_wrt_chol_and_intercepts_matches_fd(self):
        params, x, z = self._setup(seed=11)
        sel = response_selectors(x, params.categories)
        leaves = [params.chol_raw, params.intercept_raw]

        tape = dk.Tape()
        eff = params.effective(tape)
        root = dk.tsum(tape, grm.joint_logprob(tape, eff, dk.const(z), sel))
        tape.backward(root)

        h = 1e-5
        for leaf in leaves:
            analytic = leaf.grad.copy()
            base = leaf.data.copy()
            fd = np.zeros_like(base)
            for idx in np.ndindex(*base.shape):
                for sign, store in ((1, "p"), (-1, "m")):
                    leaf.data = base.copy()
                    leaf.data[idx] += sign * h
                    eff2 = params.effective(None)
                    val = grm.joint_logprob(None, eff2, dk.const(z), sel).data.sum()
                    if sign == 1:
                        fp = val
                    else:
                        fm = val
                fd[idx] = (fp - fm) / (2 * h)
            leaf.data = base
            assert np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-4


def _fd(f, x0, h=1e-5):
    g = np.zeros_like(x0)
    for idx in np.ndindex(*x0.shape):
        xp, xm = x0.copy(), x0.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g


class TestFusedLikelihoodOp:
    """dk.ordinal_loglik, the training-path likelihood, against the array
    twin and against central differences."""

    @settings(max_examples=30, deadline=None)
    @given(cats=st.lists(st.integers(2, 5), min_size=1, max_size=4),
           n_resp=st.integers(1, 3), tile=st.sampled_from([1, 3]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_array_path_and_finite_differences(self, cats, n_resp, tile, seed):
        rng = np.random.default_rng(seed)
        cats = np.asarray(cats)
        M, P = len(cats), 2
        maxc = int(cats.max())
        intercepts = [np.sort(rng.normal(0.0, 1.0, size=c - 1))[::-1] - np.arange(c - 1) * 1e-2
                      for c in cats]
        values = GrmValues(loadings=rng.normal(0.0, 1.0, size=(M, P)),
                           intercepts=intercepts, factor_corr=np.eye(P))
        x = np.stack([rng.integers(0, c, size=n_resp + 1) for c in cats], axis=1)
        x[rng.random(x.shape) < 0.2] = MISSING
        # respondent 0, item 0: the lowest category at a huge logit, so its
        # probability 1 - sigmoid(800 + a) underflows to exactly 0
        x[0, 0] = 0
        z = rng.normal(0.0, 1.5, size=((n_resp + 1) * tile, P))
        logits0 = z @ values.loadings.T
        logits0[:tile, 0] = 800.0
        # padded boundary columns hold finite junk the op must ignore
        cuts0 = np.full((M, maxc - 1), 7.0)
        for j, a in enumerate(intercepts):
            cuts0[j, :len(a)] = a
        sel = response_selectors(x, cats)
        weights = np.linspace(0.5, 1.5, logits0.shape[0]).reshape(-1, 1)

        def forward(tape, logits, cuts, selectors=sel):
            out = dk.ordinal_loglik(tape, logits, cuts, selectors["levels"],
                                    selectors["missing"], selectors["categories"],
                                    grm._PROB_FLOOR, tile=tile)
            return dk.tsum(tape, dk.mul(tape, out, dk.const(weights)))

        def objective(logits, cuts):
            return forward(None, dk.const(logits), dk.const(cuts)).item()

        def gradients(selectors):
            tape = dk.Tape()
            logits = dk.parameter(logits0)
            cuts = dk.parameter(cuts0)
            tape.backward(forward(tape, logits, cuts, selectors))
            return logits.grad, cuts.grad

        # forward: equal to the array twin on explicitly repeated rows
        got = grm.conditional_loglik(None, {"beta": dk.const(values.loadings),
                                            "alpha": dk.const(cuts0)},
                                     dk.const(z), sel, tile=tile).data[:, 0]
        expected = conditional_loglik_values(np.repeat(x, tile, axis=0), z, values)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

        g_logits, g_cuts = gradients(sel)
        # the floored entry contributes exactly zero gradient
        assert np.all(g_logits[:tile, 0] == 0.0)
        fd = _fd(lambda a: objective(a, cuts0), logits0)
        np.testing.assert_allclose(g_logits, fd, rtol=1e-5, atol=1e-6)
        fd = _fd(lambda a: objective(logits0, a), cuts0)
        np.testing.assert_allclose(g_cuts, fd, rtol=1e-5, atol=1e-6)

        # ... and the same zero to the intercepts: marking it missing changes no gradient
        sel_m = dict(sel, missing=sel["missing"].copy())
        sel_m["missing"][0, 0] = True
        g_logits_m, g_cuts_m = gradients(sel_m)
        np.testing.assert_array_equal(g_logits_m, g_logits)
        np.testing.assert_array_equal(g_cuts_m, g_cuts)


class TestInitParams:
    def test_xavier_bound(self):
        params = init_params(50, 5, 5, seed=0)
        bound = math.sqrt(2.0 / 55.0)
        assert bound == pytest.approx(0.19069, abs=1e-5)
        vals = params.values()
        assert np.abs(vals.loadings).max() <= bound
        for a in vals.intercepts:
            assert np.abs(a).max() <= bound + 4 * 1e-6

    def test_intercepts_strictly_ordered(self):
        params = init_params(20, 3, 5, seed=1)
        for a in params.values().intercepts:
            assert (np.diff(a) < 0).all()

    def test_same_seed_identical(self):
        a = init_params(10, 2, 4, seed=7)
        b = init_params(10, 2, 4, seed=7)
        np.testing.assert_array_equal(a.loadings_raw.data, b.loadings_raw.data)
        np.testing.assert_array_equal(a.chol_raw.data, b.chol_raw.data)

    def test_positivity_mode(self):
        mask = simple_structure_mask(10, 2)
        params = init_params(10, 2, 4, seed=2, loading_mask=mask, loading_positivity=True)
        vals = params.values()
        on = mask.astype(bool)
        assert (vals.loadings[on] > 0).all()
        assert (vals.loadings[~on] == 0).all()

    def test_sigma_starts_identity(self):
        params = init_params(6, 3, 3, seed=3)
        np.testing.assert_allclose(params.values().factor_corr, np.eye(3), atol=1e-12)


class TestConstraints:
    def test_sigma_unit_diagonal_and_pd_at_random_states(self):
        rng = np.random.default_rng(12)
        params = init_params(3, 4, 3, seed=0)
        for _ in range(300):
            params.chol_raw.data = rng.normal(scale=2.0, size=(4, 4))
            corr = params.values().factor_corr
            np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)
            assert np.linalg.eigvalsh(corr).min() > 0

    def test_ordering_survives_any_raw_state(self):
        rng = np.random.default_rng(13)
        params = init_params(5, 2, 4, seed=0)
        for _ in range(100):
            params.intercept_raw.data = np.hstack([rng.normal(size=(5, 1)) * 3,
                                                   rng.normal(size=(5, 2)) * 5])
            for a in params.values().intercepts:
                assert (np.diff(a) < 0).all()


def _raw_matrix(rows, cols, bound):
    return st.tuples(rows, cols).flatmap(lambda shape: hnp.arrays(
        np.float64, shape, elements=st.floats(-bound, bound, allow_nan=False)))


class TestRandomRawProperties:
    """Structural guarantees of the decoder's parameterization at any raw
    state hypothesis finds."""

    @settings(max_examples=200, deadline=None)
    @given(raw=_raw_matrix(st.integers(1, 6), st.integers(1, 5), 40.0),
           min_gap=st.sampled_from([1e-6, 0.1, 1.0]))
    def test_ordered_cuts_strictly_decrease_by_at_least_min_gap(self, raw, min_gap):
        cuts = dk.ordered_cuts(None, dk.const(raw), min_gap).data
        gaps = -np.diff(cuts, axis=1)
        assert np.all(gaps > 0)
        # each cut is one rounded addition away from the exact cumulative sum
        slack = 4 * np.spacing(np.abs(cuts).max())
        assert np.all(gaps >= min_gap - slack)
        np.testing.assert_array_equal(cuts[:, 0], raw[:, 0])

    @settings(max_examples=200, deadline=None)
    @given(chol_raw=st.integers(1, 4).flatmap(lambda P: hnp.arrays(
        np.float64, (P, P), elements=st.floats(-3.0, 3.0, allow_nan=False))))
    def test_sigma_has_unit_diagonal_and_is_positive_definite(self, chol_raw):
        P = chol_raw.shape[0]
        params = init_params(3, P, 3, seed=0)
        params.chol_raw.data = chol_raw
        corr = params.values().factor_corr
        np.testing.assert_allclose(np.diag(corr), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(corr, corr.T)
        assert np.linalg.eigvalsh(corr).min() > 0

    @settings(max_examples=200, deadline=None)
    @given(cats=st.lists(st.integers(2, 5), min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1), z_scale=st.sampled_from([0.1, 1.0, 10.0]))
    def test_category_probs_are_a_distribution_at_mixed_counts(self, cats, seed, z_scale):
        rng = np.random.default_rng(seed)
        cats = np.asarray(cats)
        M, P = len(cats), 2
        raw = rng.normal(0.0, 3.0, size=(M, cats.max() - 1))
        cuts = dk.ordered_cuts(None, dk.const(raw), 1e-6).data
        values = GrmValues(loadings=rng.normal(0.0, 2.0, size=(M, P)),
                           intercepts=[row[:c - 1] for row, c in zip(cuts, cats)],
                           factor_corr=np.eye(P))
        probs = category_probs(rng.normal(0.0, z_scale, size=(7, P)), values)
        assert probs.shape == (7, M, cats.max())
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=2), 1.0, rtol=0, atol=1e-12)
        padded = np.arange(cats.max())[None, :] >= cats[:, None]
        assert np.all(probs[:, padded] == 0)


class TestSerialization:
    def test_raw_roundtrip_bit_exact(self):
        params = init_params(7, 3, 4, seed=5, loading_positivity=True,
                             loading_mask=np.ones((7, 3)))
        text = json.dumps(params.to_dict(), sort_keys=True)
        back = GrmParams.from_dict(json.loads(text))
        np.testing.assert_array_equal(back.loadings_raw.data, params.loadings_raw.data)
        np.testing.assert_array_equal(back.intercept_raw.data, params.intercept_raw.data)
        np.testing.assert_array_equal(back.chol_raw.data, params.chol_raw.data)
        assert json.dumps(back.to_dict(), sort_keys=True) == text

    def test_intercepts_stored_as_first_column_and_gap_columns(self):
        params = init_params(4, 2, [2, 5, 3, 4], seed=8)
        raw = params.to_dict()["raw"]
        cuts = params.intercept_raw.data
        assert cuts.shape == (4, 4)
        assert raw["intercept_base"] == cuts[:, :1].tolist()
        assert raw["intercept_incr_raw"] == [cuts[:, k:k + 1].tolist() for k in (1, 2, 3)]
        np.testing.assert_array_equal(GrmParams.from_dict({"raw": raw}).intercept_raw.data, cuts)

    def test_reconstructed_fields_present(self):
        doc = init_params(3, 2, 3, seed=6).to_dict()
        assert set(doc) == {"loadings", "intercepts", "factor_corr", "raw"}


class TestSoftplusHelpers:
    def test_inverse_pair(self):
        y = np.array([1e-4, 0.5, 3.0, 40.0])
        np.testing.assert_allclose(dk.log1p_exp(None, dk.const(softplus_inv(y))).data[0], y,
                                   rtol=1e-12)

    def test_softplus_inv_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            softplus_inv(np.array([0.0]))
