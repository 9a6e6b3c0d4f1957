"""Objective correctness: closed-form KL values, IW bounds against quadrature,
weight normalization and shift invariance, the analytic-discriminator
substitution, DReG against a conjugate linear-Gaussian oracle and, for an
implicit encoder, against the exact importance-weighted gradient, quadrature
self-checks, heldout/objective parity, and training-step mechanics."""

import copy
import json
import math
import tracemalloc

import numpy as np
import pytest

from gradedvi import diffkernel as dk
from gradedvi import estimators as estimators_mod
from gradedvi import fitting as fitting_mod
from gradedvi import grm as G
from gradedvi.cli import main
from gradedvi.estimators import (
    DegeneratePosteriorError,
    HeldoutReport,
    UnsupportedDimensionError,
    avb_discriminator_loss,
    avb_log_weights,
    avb_prior_loss,
    dreg_phi_surrogate,
    elbo_gaussian,
    gaussian_log_weights,
    heldout_loglik,
    iw_elbo_from_log_w,
    logmeanexp,
    marginal_loglik_quadrature,
    moment_estimates,
    normalized_weights,
)
from gradedvi.fitting import ConfigError, FitConfig, FitState, fit, init_state, training_step
from gradedvi.grm import GrmValues, ResponseMatrix, init_params
from gradedvi.nets import (
    BlackBoxEncoder,
    Discriminator,
    FeedForwardNet,
    GaussianEncoder,
    encode_responses,
)
from gradedvi.optim import NumericalError
from gradedvi.simlab import SimDesign, simulate, write_responses_csv

LOG_2PI = math.log(2 * math.pi)


def sample_toy_data(rng, N=100, M=8, P=1, C=3):
    loadings = rng.lognormal(0, math.sqrt(0.5), (M, P))
    intercepts = [-np.sort(rng.normal(0, 1, C - 1)) for _ in range(M)]
    corr = np.eye(P)
    vals = GrmValues(loadings=loadings, intercepts=intercepts, factor_corr=corr)
    z = rng.normal(size=(N, P))
    probs = G.category_probs(z, vals)
    u = rng.uniform(size=(N, M, 1))
    x = (probs.cumsum(axis=2) < u).sum(axis=2)
    return ResponseMatrix(x, C), vals


class TestEstimatorConfig:
    """The estimator rules of FitConfig.validate, and how FitConfig.from_dict
    reads the retired adaptive_contrast and dreg keys of older files."""

    def test_vae_requires_single_sample(self):
        with pytest.raises(ConfigError, match="R:"):
            FitConfig(estimator="VAE", R=4).validate()
        FitConfig(estimator="VAE", R=1).validate()

    def test_iwavb_forces_adaptive_contrast(self):
        FitConfig.from_dict({"estimator": "IWAVB", "adaptive_contrast": True}).validate()
        with pytest.raises(ConfigError, match="adaptive_contrast.*IWAVB"):
            FitConfig.from_dict({"estimator": "IWAVB", "adaptive_contrast": False})

    def test_gaussian_kinds_reject_adaptive_contrast(self):
        for kind in ("VAE", "IWAE"):
            with pytest.raises(ConfigError, match="adaptive_contrast.*IWAVB"):
                FitConfig.from_dict({"estimator": kind, "R": 1, "adaptive_contrast": True})
            FitConfig.from_dict({"estimator": kind, "R": 1,
                                 "adaptive_contrast": False}).validate()

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="estimator"):
            FitConfig(estimator="GIBBS").validate()

    @pytest.mark.parametrize("key", ["R", "S"])
    def test_sample_counts_at_least_one(self, key):
        with pytest.raises(ConfigError, match=f"{key}:"):
            FitConfig(**{key: 0}).validate()

    @pytest.mark.parametrize("setting", [None, True, False])
    @pytest.mark.parametrize("kind", ["VAE", "IWAE", "AVB", "IWAVB"])
    def test_legacy_adaptive_contrast_key(self, kind, setting):
        # the key is dropped when it agrees with the estimator (null always
        # does) and refused otherwise, AVB with contrast included
        doc = {"estimator": kind, "R": 1}
        if setting is None or setting is (kind == "IWAVB"):
            cfg = FitConfig.from_dict(doc | {"adaptive_contrast": setting})
            assert cfg == FitConfig.from_dict(doc)
            assert "adaptive_contrast" not in cfg.to_dict()
        else:
            with pytest.raises(ConfigError, match="adaptive_contrast.*only IWAVB"):
                FitConfig.from_dict(doc | {"adaptive_contrast": setting})

    @pytest.mark.parametrize("setting", [True, False, None, 1, "true"])
    @pytest.mark.parametrize("kind", ["VAE", "IWAE", "AVB", "IWAVB"])
    def test_retired_dreg_key(self, kind, setting):
        # every importance-weighted step runs DReG, so only true loads
        doc = {"estimator": kind, "R": 1}
        if setting is True:
            cfg = FitConfig.from_dict(doc | {"dreg": setting})
            assert cfg == FitConfig.from_dict(doc)
            assert "dreg" not in cfg.to_dict()
        else:
            with pytest.raises(ConfigError, match="^dreg: .*uses DReG"):
                FitConfig.from_dict(doc | {"dreg": setting})


def _zeroed_gaussian_encoder(feat_dim, P, mean_bias=0.0):
    enc = GaussianEncoder.build(feat_dim, [8], P, np.random.default_rng(0))
    for p in enc.parameters():
        p.data = np.zeros_like(p.data)
    enc.mean_head.bias.data[:] = mean_bias
    return enc


class TestElboGaussian:
    def test_kl_zero_for_standard_normal_posterior(self):
        rng = np.random.default_rng(1)
        resp, _ = sample_toy_data(rng, N=6, M=4, P=2, C=3)
        params = init_params(4, 2, 3, seed=0)
        feats, _ = encode_responses(resp.data, resp.categories)
        enc = _zeroed_gaussian_encoder(feats.shape[1], 2)
        u = rng.standard_normal((6, 2))
        per = elbo_gaussian(None, resp.data, feats, enc, params, u, S=1)
        # mu = 0, sigma = 1 -> KL = 0, so ELBO is the reconstruction at z = u
        sel = G.response_selectors(resp.data, params.categories)
        recon = G.conditional_loglik(None, params.effective(None), dk.const(u), sel)
        np.testing.assert_allclose(per.data, recon.data, atol=1e-12)

    def test_kl_half_for_unit_mean_shift(self):
        rng = np.random.default_rng(2)
        resp, _ = sample_toy_data(rng, N=5, M=4, P=1, C=3)
        params = init_params(4, 1, 3, seed=0)
        feats, _ = encode_responses(resp.data, resp.categories)
        enc = _zeroed_gaussian_encoder(feats.shape[1], 1, mean_bias=1.0)
        u = rng.standard_normal((5, 1))
        per = elbo_gaussian(None, resp.data, feats, enc, params, u, S=1)
        sel = G.response_selectors(resp.data, params.categories)
        z = dk.const(u + 1.0)
        recon = G.conditional_loglik(None, params.effective(None), z, sel)
        np.testing.assert_allclose(per.data, recon.data - 0.5, atol=1e-12)

    def test_elbo_below_quadrature_marginal(self):
        rng = np.random.default_rng(3)
        resp, vals = sample_toy_data(rng, N=20, M=8, P=1, C=3)
        params = init_params(8, 1, 3, seed=1)
        feats, _ = encode_responses(resp.data, resp.categories)
        enc = GaussianEncoder.build(feats.shape[1], [16], 1, np.random.default_rng(5))
        S = 2000
        u = rng.standard_normal((20 * S, 1))
        per = elbo_gaussian(None, resp.data, feats, enc, params, u, S=S).data[:, 0]
        quad = marginal_loglik_quadrature(resp, params.values(), nodes=101)
        assert (per <= quad + 1e-6).all()


class TestIwElbo:
    def test_monotone_in_r_and_bounded_by_quadrature(self):
        # At the trained optimum the Jensen gap collapses below Monte Carlo
        # resolution, so the bound is checked with an overdispersed proposal
        # (sigma scaled up): the inequality holds for any proposal, and the
        # gap stays several standard errors wide for every respondent.
        rng = np.random.default_rng(5)
        resp, _ = sample_toy_data(rng, N=30, M=8, P=1, C=3)
        cfg = FitConfig(estimator="IWAE", n_factors=1, R=8, batch_size=30,
                        max_iterations=300, window=100, patience=50,
                        encoder_hidden=[16], clr_step_size=150, base_lr=3e-3,
                        seed=11)
        result = fit(resp, cfg)
        params, enc = result.params, result.encoder
        enc.log_std_head.bias.data = enc.log_std_head.bias.data + math.log(3.0)
        feats, _ = encode_responses(resp.data, resp.categories)
        n_draws, block = 2048 * 16, 10
        log_w = np.empty((30, n_draws))
        for s in range(0, 30, block):
            u = rng.standard_normal((block * n_draws, 1))
            g = gaussian_log_weights(None, resp.data[s:s + block], feats[s:s + block],
                                     enc, params, n_draws, 1, u)
            log_w[s:s + block] = g["log_w"].data.reshape(block, n_draws)
        iw_r = logmeanexp(log_w.reshape(30, 2048, 16)).mean(axis=1)
        iw_1 = log_w.mean(axis=1)  # same draws, R = 1
        assert (iw_1 <= iw_r + 1e-12).all()
        quad = marginal_loglik_quadrature(resp, params.values(), nodes=101)
        assert (iw_r <= quad + 1e-6).all()
        assert np.mean(quad - iw_r) < np.mean(quad - iw_1)


class TestDiscriminatorLoss:
    def test_zero_logits_give_log4(self):
        disc = Discriminator.build(3, 2, [8], np.random.default_rng(8))
        for p in disc.parameters():
            p.data = np.zeros_like(p.data)
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(20, 3))
        t_q = disc.forward(None, dk.const(feats), dk.const(rng.normal(size=(20, 2))))
        loss_p = avb_prior_loss(None, disc, feats, rng.normal(size=(20, 2)))
        loss = avb_discriminator_loss(None, t_q, loss_p)
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_perfect_separation_drives_loss_to_zero(self):
        # single linear layer T(z) = 3 z separates z_q ~ +8 from zeta ~ -8
        net = FeedForwardNet.build([1, 1], np.random.default_rng(9))
        net.layers[0].weight.data[:] = 3.0
        net.layers[0].bias.data[:] = 0.0
        disc = Discriminator(net, response_dim=0)
        z_q = np.full((50, 1), 8.0)
        zeta = np.full((50, 1), -8.0)
        t_q = disc.forward(None, None, dk.const(z_q))
        loss = avb_discriminator_loss(None, t_q, avb_prior_loss(None, disc, None, zeta))
        assert loss.item() < 1e-9

    def test_discriminator_step_does_not_move_encoder(self):
        rng = np.random.default_rng(10)
        disc = Discriminator.build(2, 1, [8], np.random.default_rng(11))
        feats = rng.normal(size=(6, 2))
        z_q = dk.parameter(rng.normal(size=(6, 1)))
        tape = dk.Tape()
        _, t_q = disc.forward(tape, dk.const(feats), z_q, split=True)
        loss_p = avb_prior_loss(tape, disc, feats, rng.normal(size=(6, 1)))
        loss = avb_discriminator_loss(tape, t_q, loss_p)
        tape.backward(loss)
        assert all(p.grad is not None for p in disc.parameters())
        assert z_q.grad is None


class _AnalyticContrastDisc:
    """Optimal discriminator for a known Gaussian q against r0 = N(0, I):
    T(x, z_std) = log q_std(z_std) - log r0(z_std)."""

    response_dim = 0

    def __init__(self, m_std, s_std):
        self.m = np.atleast_2d(m_std)
        self.s = np.atleast_2d(s_std)

    def forward(self, tape, x, z, split=False):
        m = dk.const(np.broadcast_to(self.m, (z.rows, z.cols)).copy())
        s = dk.const(np.broadcast_to(self.s, (z.rows, z.cols)).copy())
        resid = dk.div(tape, dk.sub(tape, z, m), s)
        logq = dk.mul(tape, dk.sum_rows(tape, dk.square(tape, resid)), -0.5)
        logq = dk.sub(tape, logq, np.log(self.s).sum())
        logr0 = dk.mul(tape, dk.sum_rows(tape, dk.square(tape, z)), -0.5)
        out = dk.sub(tape, logq, logr0)
        return (out, dk.const(out.data)) if split else out


def _affine_blackbox_encoder(feat_dim, P, mu_q, sigma_q):
    """Implicit encoder computing exactly z = mu_q + sigma_q * eps."""
    enc = BlackBoxEncoder.build(feat_dim, [4], P, noise_dim=P,
                                rng=np.random.default_rng(12))
    net = FeedForwardNet.build([feat_dim + P, P], np.random.default_rng(13))
    w = np.zeros((feat_dim + P, P))
    w[feat_dim:, :] = np.diag(sigma_q)
    net.layers[0].weight.data = w
    net.layers[0].bias.data = mu_q.reshape(1, -1)
    enc.net = net
    return enc


class TestAvbLogWeights:
    def _setup(self, B=6, M=3, P=2, C=3, R=3, S=2):
        rng = np.random.default_rng(14)
        resp, _ = sample_toy_data(rng, N=B, M=M, P=P, C=C)
        params = init_params(M, P, C, seed=4)
        feats, _ = encode_responses(resp.data, resp.categories)
        mu_q = np.array([0.7, -0.4][:P])
        sigma_q = np.array([1.3, 0.8][:P])
        enc = _affine_blackbox_encoder(feats.shape[1], P, mu_q, sigma_q)
        eps = rng.standard_normal((B * R * S, P))
        return resp, params, feats, enc, mu_q, sigma_q, eps, R, S

    def test_optimal_discriminator_recovers_exact_log_weights(self):
        resp, params, feats, enc, mu_q, sigma_q, eps, R, S = self._setup()
        B, P = 6, 2
        # deliberately mismatched moment estimates
        mu_hat = np.broadcast_to(np.array([0.3, 0.1]), (B, P)).copy()
        sigma_hat = np.broadcast_to(np.array([1.7, 1.1]), (B, P)).copy()
        disc = _AnalyticContrastDisc((mu_q - mu_hat[0]) / sigma_hat[0],
                                     sigma_q / sigma_hat[0])
        graph = avb_log_weights(None, resp.data, feats, enc, disc, params, R, S, True,
                                eps, moments=(mu_hat, sigma_hat))
        z = graph["z"].data
        tile = R * S
        x_rep = np.repeat(resp.data, tile, axis=0)
        logp = G.joint_logprob_values(x_rep, z, params.values())
        logq_true = (-0.5 * (((z - mu_q) / sigma_q) ** 2).sum(axis=1)
                     - np.log(sigma_q).sum() - 0.5 * P * LOG_2PI)
        np.testing.assert_allclose(graph["log_w"].data[:, 0], logp - logq_true,
                                   atol=1e-9)

    def test_normalized_weights_sum_to_one(self):
        resp, params, feats, enc, _, _, eps, R, S = self._setup()
        disc = Discriminator.build(feats.shape[1], 2, [8], np.random.default_rng(15))
        graph = avb_log_weights(None, resp.data, feats, enc, disc, params, R, S, True, eps)
        w_tilde = normalized_weights(graph["log_w"].data.reshape(-1, R))
        np.testing.assert_allclose(w_tilde.sum(axis=1), 1.0, atol=1e-12)

    def test_constant_shift_in_t_leaves_weights_and_gradients_unchanged(self):
        resp, params, feats, enc, _, _, eps, R, S = self._setup()
        rng = np.random.default_rng(16)
        disc = Discriminator.build(feats.shape[1], 2, [8], rng)

        def encoder_grads(backward):
            tape = dk.Tape()
            graph = avb_log_weights(tape, resp.data, feats, enc, disc, params,
                                    R, S, True, eps)
            w_tilde = normalized_weights(graph["log_w"].data.reshape(-1, R))
            backward(tape, graph, w_tilde)
            grads = [p.grad.copy() for p in enc.parameters()]
            for p in enc.parameters():
                p.grad = None
            return w_tilde, grads

        def dreg(tape, graph, w_tilde):
            per = iw_elbo_from_log_w(tape, graph["log_w"], 6, R, S)
            tape.backward(dk.tmean(tape, per),
                          row_scale=(graph["z"], dreg_phi_surrogate(graph["log_w"], R)))

        def surrogate(tape, graph, w_tilde):
            # reference: sum w_tilde^2 log w / (B*S) with w_tilde held constant
            w2 = dk.const((w_tilde ** 2).reshape(-1, 1))
            weighted = dk.tsum(tape, dk.mul(tape, graph["log_w"], w2))
            tape.backward(dk.mul(tape, weighted, 1.0 / (6 * S)))

        def run(shift):
            disc.net.layers[-1].bias.data = disc.net.layers[-1].bias.data + shift
            w, grads = encoder_grads(dreg)
            _, ref = encoder_grads(surrogate)
            disc.net.layers[-1].bias.data = disc.net.layers[-1].bias.data - shift
            for a, b in zip(grads, ref):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
            return w, grads

        w0, g0 = run(0.0)
        w1, g1 = run(123.456)
        np.testing.assert_allclose(w0, w1, atol=1e-12)
        for a, b in zip(g0, g1):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_degenerate_moments_raise(self):
        z = np.zeros((2, 5, 1))
        with pytest.raises(DegeneratePosteriorError):
            moment_estimates(z)

    def test_row_scale_makes_the_implicit_encoder_gradient_unbiased(self):
        # An implicit encoder's log q reaches log w only through z, so the
        # unscaled backward drops the w_tilde-weighted score term and is
        # biased at R > 1; DReG's row scale restores it.  The reference is
        # the reparameterized IW gradient with the exact Gaussian log q and
        # its phi path: for z = b + x W_x + eps W_eps that log q is
        # log N(eps; 0, I) - log|det W_eps| whatever phi is, so the
        # reference is the IW gradient of log p(x, z) - log N(eps; 0, I)
        # plus d log|det W_eps| / dW_eps = W_eps^-T.
        B, M, P, C, R, n_rep = 8, 4, 2, 3, 16, 100
        rng = np.random.default_rng(30)
        resp, _ = sample_toy_data(rng, N=B, M=M, P=P, C=C)
        params = init_params(M, P, C, seed=4)
        feats, _ = encode_responses(resp.data, resp.categories)
        F = feats.shape[1]
        mu_q, sigma_q = np.array([0.7, -0.4]), np.array([1.3, 0.8])
        enc = _affine_blackbox_encoder(F, P, mu_q, sigma_q)
        mu_hat, sigma_hat = np.tile([0.3, 0.1], (B, 1)), np.tile([1.7, 1.1], (B, 1))
        disc = _AnalyticContrastDisc((mu_q - mu_hat[0]) / sigma_hat[0],
                                     sigma_q / sigma_hat[0])
        log_det_grad = np.zeros((F + P, P))
        log_det_grad[F:] = np.linalg.inv(enc.net.layers[0].weight.data[F:]).T
        sel = G.response_selectors(resp.data, params.categories)

        def encoder_grad(eps, how):
            tape = dk.Tape()
            row_scale = None
            if how == "reference":
                z = enc.encode(tape, dk.const(feats), dk.const(eps))
                logp = G.joint_logprob(tape, params.effective(None), z, sel, tile=R)
                log_n = -0.5 * (eps ** 2).sum(axis=1, keepdims=True)
                log_w = dk.sub(tape, logp, dk.const(log_n))
            else:
                graph = avb_log_weights(tape, resp.data, feats, enc, disc, params, R, 1,
                                        True, eps, moments=(mu_hat, sigma_hat))
                log_w = graph["log_w"]
                if how == "dreg":
                    row_scale = (graph["z"], dreg_phi_surrogate(log_w, R))
            per = iw_elbo_from_log_w(tape, log_w, B, R, 1)
            tape.backward(dk.tmean(tape, per), row_scale=row_scale)
            weight, bias = enc.parameters()
            grad = [weight.grad + (log_det_grad if how == "reference" else 0.0), bias.grad]
            weight.grad = bias.grad = None
            return np.concatenate([g.ravel() for g in grad])

        est = {how: np.empty((n_rep, (F + P + 1) * P)) for how in ("dreg", "plain", "reference")}
        for k in range(n_rep):
            eps = rng.standard_normal((B * R, P))
            for how, out in est.items():
                out[k] = encoder_grad(eps, how)

        def z_scores(how):
            d = est[how] - est["reference"]
            return d.mean(axis=0) / (d.std(axis=0, ddof=1) / math.sqrt(n_rep))

        assert np.abs(z_scores("dreg")).max() < 4
        # the mean parameters' gradients, the last P entries, miss by far more
        assert (np.abs(z_scores("plain")[-P:]) > 4).all()


class TestDreg:
    """Conjugate toy: p(z) = N(0,1), p(x|z) = N(x; z, 1), q = N(m, s^2).

    ELBO gradients are analytic: d/dm = (x - m) - m, d/dlog s = 1 - 2 s^2
    (after accounting for E_q[log p(x,z)] and the Gaussian entropy)."""

    X = 1.4

    def _log_w(self, tape, m, log_s, u, stop_q):
        # one respondent: the 1x1 parameters serve every draw
        sigma = dk.exp(tape, log_s)
        z = dk.gaussian_draws(tape, m, sigma, u)
        logp = dk.add(tape, dk.mul(tape, dk.square(tape, dk.sub(tape, z, self.X)), -0.5),
                      -0.5 * LOG_2PI)
        logp = dk.add(tape, logp,
                      dk.add(tape, dk.mul(tape, dk.square(tape, z), -0.5), -0.5 * LOG_2PI))
        if stop_q:
            logq = dk.diag_normal_logpdf(tape, z, m.data, sigma.data)
        else:
            # the parameters repeated to one row per draw, gradient and all
            ones = dk.const(np.ones((u.shape[0], 1)))
            m_rep, s_rep = dk.matmul(tape, ones, m), dk.matmul(tape, ones, sigma)
            resid = dk.div(tape, dk.sub(tape, z, m_rep), s_rep)
            logq = dk.add(tape, dk.mul(tape, dk.square(tape, resid), -0.5), -0.5 * LOG_2PI)
            logq = dk.sub(tape, logq, dk.log(tape, s_rep))
        return dk.sub(tape, logp, logq), z

    def _analytic(self, m, log_s):
        s = math.exp(log_s)
        return (self.X - m) - m, 1.0 - 2.0 * s * s

    def test_r1_dreg_mean_matches_analytic_elbo_gradient(self):
        m0, log_s0 = 0.3, math.log(0.8)
        rng = np.random.default_rng(17)
        n_rep, batch = 60, 200
        est = np.empty((n_rep, 2))
        for k in range(n_rep):
            u = rng.standard_normal((batch, 1))
            tape = dk.Tape()
            m = dk.parameter([[m0]])
            log_s = dk.parameter([[log_s0]])
            log_w, _ = self._log_w(tape, m, log_s, u, stop_q=True)
            tape.backward(dk.tmean(tape, log_w))
            est[k] = [m.grad[0, 0], log_s.grad[0, 0]]
        g_true = self._analytic(m0, log_s0)
        for d in range(2):
            se = est[:, d].std(ddof=1) / math.sqrt(n_rep)
            assert abs(est[:, d].mean() - g_true[d]) < 3 * se + 1e-12

    def test_r16_dreg_variance_not_larger(self):
        m0, log_s0 = 0.3, math.log(0.8)
        rng = np.random.default_rng(18)
        R, n_rep = 16, 300
        g_dreg = np.empty((n_rep, 2))
        g_plain = np.empty((n_rep, 2))
        for k in range(n_rep):
            u = rng.standard_normal((R, 1))
            # DReG: the IW-ELBO on the stopped-q path, w_tilde scaling the rows of z
            tape = dk.Tape()
            m = dk.parameter([[m0]])
            log_s = dk.parameter([[log_s0]])
            log_w, z = self._log_w(tape, m, log_s, u, stop_q=True)
            per = iw_elbo_from_log_w(tape, log_w, 1, R, 1)
            tape.backward(dk.tmean(tape, per), row_scale=(z, dreg_phi_surrogate(log_w, R)))
            g_dreg[k] = [m.grad[0, 0], log_s.grad[0, 0]]
            # reference: the surrogate sum w_tilde^2 log w with w_tilde held constant
            tape = dk.Tape()
            m = dk.parameter([[m0]])
            log_s = dk.parameter([[log_s0]])
            log_w, _ = self._log_w(tape, m, log_s, u, stop_q=True)
            w2 = dk.const(normalized_weights(log_w.data.reshape(1, R)).reshape(-1, 1) ** 2)
            tape.backward(dk.tsum(tape, dk.mul(tape, log_w, w2)))
            np.testing.assert_allclose(g_dreg[k], [m.grad[0, 0], log_s.grad[0, 0]],
                                       rtol=0, atol=1e-12)
            # plain reparameterized IW gradient
            tape = dk.Tape()
            m = dk.parameter([[m0]])
            log_s = dk.parameter([[log_s0]])
            log_w, _ = self._log_w(tape, m, log_s, u, stop_q=False)
            per = iw_elbo_from_log_w(tape, log_w, 1, R, 1)
            tape.backward(dk.tmean(tape, per))
            g_plain[k] = [m.grad[0, 0], log_s.grad[0, 0]]
        # both estimate the same gradient
        for d in range(2):
            se = math.hypot(g_dreg[:, d].std(ddof=1), g_plain[:, d].std(ddof=1)) / math.sqrt(n_rep)
            assert abs(g_dreg[:, d].mean() - g_plain[:, d].mean()) < 4 * se
        assert g_dreg.var(axis=0, ddof=1).sum() <= g_plain.var(axis=0, ddof=1).sum()


class TestQuadrature:
    def test_zero_loadings_closed_form(self):
        rng = np.random.default_rng(19)
        intercepts = [-np.sort(rng.normal(0, 1, 2)) for _ in range(4)]
        vals = GrmValues(loadings=np.zeros((4, 1)), intercepts=intercepts,
                         factor_corr=np.eye(1))
        x = np.array([[0, 1, 2, 1], [2, 2, 0, 0]])
        probs = G.category_probs(np.zeros((1, 1)), vals)[0]
        expected = np.array([sum(math.log(probs[j, x[i, j]]) for j in range(4))
                             for i in range(2)])
        got = marginal_loglik_quadrature(x, vals, nodes=61)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_node_count_agreement(self):
        rng = np.random.default_rng(20)
        resp, vals = sample_toy_data(rng, N=10, M=6, P=1, C=3)
        a = marginal_loglik_quadrature(resp, vals, nodes=101)
        b = marginal_loglik_quadrature(resp, vals, nodes=201)
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_two_factor_grid_with_correlation(self):
        rng = np.random.default_rng(21)
        loadings = rng.lognormal(0, 0.4, (6, 2))
        intercepts = [-np.sort(rng.normal(0, 1, 2)) for _ in range(6)]
        corr = np.array([[1.0, 0.4], [0.4, 1.0]])
        vals = GrmValues(loadings=loadings, intercepts=intercepts, factor_corr=corr)
        x = rng.integers(0, 3, size=(5, 6))
        got = marginal_loglik_quadrature(x, vals, nodes=41)
        # Monte Carlo oracle on the same integral
        zs = rng.multivariate_normal(np.zeros(2), corr, size=200_000)
        ll = np.stack([G.conditional_loglik_values(np.repeat(x[i:i + 1], 4000, axis=0),
                                                   zs[:4000], vals) for i in range(5)])
        # batched logmeanexp MC estimate
        mc = []
        for i in range(5):
            lw = G.conditional_loglik_values(np.repeat(x[i:i + 1], zs.shape[0], axis=0), zs, vals)
            m = lw.max()
            mc.append(m + math.log(np.exp(lw - m).mean()))
        np.testing.assert_allclose(got, mc, atol=0.05)

    @staticmethod
    def _one_shot(x, vals, nodes):
        """The oracle's earlier form, kept as the reference: one (G, N, M)
        gather of every node's observed log probabilities."""
        t, w = np.polynomial.hermite.hermgauss(nodes)
        chol = np.linalg.cholesky(vals.factor_corr)
        if vals.n_factors == 1:
            grid = math.sqrt(2.0) * t.reshape(-1, 1) * chol[0, 0]
            logw = np.log(w) - 0.5 * math.log(math.pi)
        else:
            tt = np.array(np.meshgrid(t, t, indexing="ij")).reshape(2, -1).T
            grid = (math.sqrt(2.0) * tt) @ chol.T
            logw = np.log(np.outer(w, w).reshape(-1)) - math.log(math.pi)
        logp_grid = G.category_logprob(grid, vals)
        M = x.shape[1]
        sel = logp_grid[:, np.arange(M)[None, :], np.maximum(x, 0)]
        sel = np.where((x != G.MISSING)[None, :, :], sel, 0.0)
        total = sel.sum(axis=2) + logw[:, None]
        m = total.max(axis=0)
        return m + np.log(np.exp(total - m).sum(axis=0))

    @pytest.mark.parametrize("P", [1, 2])
    def test_chunked_gather_matches_one_shot_bit_for_bit(self, P, monkeypatch):
        rng = np.random.default_rng(26)
        cats = np.array([2, 3, 4, 4, 3, 2, 4, 3, 4])  # 9 items: a pairwise sum would differ
        vals = init_params(9, P, cats, seed=26, loading_mask=np.ones((9, P))).values()
        x = rng.integers(0, cats, size=(13, 9))
        x[rng.random(x.shape) < 0.2] = G.MISSING
        x[4] = G.MISSING  # a respondent with no response at all
        for rows in (x, x[:1]):
            want = self._one_shot(rows, vals, nodes=23)
            # five nodes per chunk leave a remainder of 23 and 529 nodes;
            # one value per chunk is the two-node floor
            for chunk in (1, 5 * rows.size, estimators_mod._QUADRATURE_CHUNK_VALUES):
                monkeypatch.setattr(estimators_mod, "_QUADRATURE_CHUNK_VALUES", chunk)
                got = marginal_loglik_quadrature(rows, vals, nodes=23)
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("level", [2, -5, 7])
    def test_out_of_range_category_raises(self, level):
        """Before the guard, 2 on a two-category item scored the probability
        floor, -5 scored as category 0 and 7 raised a bare IndexError."""
        cats = np.array([2, 3, 4, 4])
        vals = init_params(4, 1, cats, seed=28, loading_mask=np.ones((4, 1))).values()
        x = np.array([[1, 2, 3, 0], [0, 1, 2, G.MISSING]])
        x[1, 0] = level
        with pytest.raises(G.DataError, match=f"item 0: category {level} outside"):
            marginal_loglik_quadrature(x, vals)

    def test_dimension_guard(self):
        vals = GrmValues(loadings=np.zeros((2, 3)),
                         intercepts=[np.array([0.0])] * 2, factor_corr=np.eye(3))
        with pytest.raises(UnsupportedDimensionError):
            marginal_loglik_quadrature(np.zeros((1, 2), dtype=int), vals)


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(22)
    resp, _ = sample_toy_data(rng, N=80, M=8, P=1, C=3)
    cfg = FitConfig(estimator="IWAE", n_factors=1, R=8, batch_size=40,
                    max_iterations=500, window=50, patience=3,
                    encoder_hidden=[16], clr_step_size=100,
                    base_lr=5e-3, seed=9)
    result = fit(resp, cfg)
    return resp, result


class TestHeldout:
    def test_r_eval_one_runs(self, trained):
        resp, result = trained
        rep = heldout_loglik(resp.subset(np.arange(10)), result.params,
                             result.encoder, np.random.default_rng(0), R_eval=1)
        assert rep.n_respondents == 10 and rep.r_eval == 1
        assert not rep.surrogate_density

    def test_close_to_quadrature_truth(self, trained):
        resp, result = trained
        hold = resp.subset(np.arange(40))
        rep = heldout_loglik(hold, result.params, result.encoder,
                             np.random.default_rng(1), R_eval=5000)
        quad = marginal_loglik_quadrature(hold, result.params.values(), nodes=101)
        assert abs(rep.per_respondent_mean - quad.mean()) < 0.5

    def test_more_samples_get_closer(self, trained):
        resp, result = trained
        hold = resp.subset(np.arange(40))
        quad = marginal_loglik_quadrature(hold, result.params.values(), nodes=101).sum()
        gaps = []
        for r_eval in (64, 5000):
            rep = heldout_loglik(hold, result.params, result.encoder,
                                 np.random.default_rng(2), R_eval=r_eval)
            gaps.append(abs(rep.total - quad))
        assert gaps[1] < gaps[0]


@pytest.fixture(scope="module", params=["IWAVB", "AVB"])
def trained_adversarial(request):
    rng = np.random.default_rng(25)
    resp, _ = sample_toy_data(rng, N=40, M=5, P=2, C=3)
    cfg = FitConfig(estimator=request.param, n_factors=2, R=4, batch_size=20,
                    max_iterations=30, encoder_hidden=[8], disc_hidden=[8], seed=12)
    return resp, fit(resp, cfg)


class TestHeldoutParity:
    """heldout_loglik is logmeanexp of the training objectives' log-weights
    at R = R_eval on the same draws."""

    def test_gaussian_matches_gaussian_log_weights(self, trained):
        resp, result = trained
        hold = resp.subset(np.arange(12))
        R = 20_000  # twelve heldout blocks of one respondent each
        rep = heldout_loglik(hold, result.params, result.encoder,
                             np.random.default_rng(3), R_eval=R)
        feats, _ = encode_responses(hold.data, hold.categories)
        u = np.random.default_rng(3).standard_normal((12 * R, 1))
        g = gaussian_log_weights(None, hold.data, feats, result.encoder, result.params, R, 1, u)
        expected = logmeanexp(g["log_w"].data.reshape(12, R))
        np.testing.assert_allclose(rep.per_respondent, expected, rtol=0, atol=1e-10)
        w = normalized_weights(g["log_w"].data.reshape(12, R))
        np.testing.assert_allclose(rep.ess, 1.0 / (w * w).sum(axis=1), rtol=1e-8)
        assert np.all((rep.ess >= 1.0 - 1e-9) & (rep.ess <= R * (1.0 + 1e-12)))

    def test_surrogate_matches_avb_log_weights(self, trained_adversarial):
        resp, result = trained_adversarial
        hold = resp.subset(np.arange(10))
        R = 300
        adaptive_contrast = result.config.estimator == "IWAVB"
        rep = heldout_loglik(hold, result.params, result.encoder, np.random.default_rng(4),
                             R_eval=R, disc=result.disc, adaptive_contrast=adaptive_contrast)
        feats, _ = encode_responses(hold.data, hold.categories)
        eps = np.random.default_rng(4).standard_normal((10 * R, result.encoder.noise_dim))
        graph = avb_log_weights(None, hold.data, feats, result.encoder, result.disc,
                                result.params, R, 1, adaptive_contrast, eps)
        expected = logmeanexp(graph["log_w"].data.reshape(10, R))
        assert rep.surrogate_density
        np.testing.assert_allclose(rep.per_respondent, expected, rtol=0, atol=1e-10)
        w = normalized_weights(graph["log_w"].data.reshape(10, R))
        np.testing.assert_allclose(rep.ess, 1.0 / (w * w).sum(axis=1), rtol=1e-8)
        assert np.all((rep.ess >= 1.0 - 1e-9) & (rep.ess <= R * (1.0 + 1e-12)))


class TestHeldoutSplit:
    """Heldout estimates have the same bytes whether the networks' layers
    and the likelihood's observed-category probabilities run on one thread
    or two.  Blocks hold 7 x 301 = 2,107 draws, cut at row 1,024."""

    def _split_and_serial(self, monkeypatch, result, hold, **kw):
        got = []
        for threshold in (1, 1 << 62):  # every kernel split, then none
            monkeypatch.setattr(dk, "_SPLIT_MIN_VALUES", threshold)
            got.append(heldout_loglik(hold, result.params, result.encoder,
                                      np.random.default_rng(8), R_eval=301, **kw))
        assert got[0].per_respondent.tobytes() == got[1].per_respondent.tobytes()
        assert got[0].ess.tobytes() == got[1].ess.tobytes()

    def test_gaussian_heldout_split_matches_serial(self, monkeypatch, trained):
        resp, result = trained
        self._split_and_serial(monkeypatch, result, resp.subset(np.arange(7)))

    def test_surrogate_heldout_split_matches_serial(self, monkeypatch, trained_adversarial):
        resp, result = trained_adversarial
        self._split_and_serial(monkeypatch, result, resp.subset(np.arange(7)), disc=result.disc,
                               adaptive_contrast=result.config.estimator == "IWAVB")


class TestTrainingSplit:
    """A seeded fit writes the same fit.json bytes on one CPU as on two:
    at the study's batch of 128 respondents, 25 draws and 50 items, the
    networks' forward and backward and the likelihood all split."""

    @pytest.mark.parametrize("estimator", ["IWAE", "IWAVB"])
    def test_seeded_fit_split_matches_one_cpu(self, monkeypatch, tmp_path, estimator):
        truth = simulate(SimDesign(n_respondents=150, n_items=50, n_factors=2,
                                   categories=[2, 3, 4, 5, 6] * 10, seed=9))
        data = truth.responses.data.copy()
        data[np.random.default_rng(10).random(data.shape) < 0.05] = G.MISSING
        responses = tmp_path / "responses.csv"
        write_responses_csv(responses, ResponseMatrix(data, truth.responses.categories))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"estimator": estimator, "n_factors": 2, "R": 25,
                                      "batch_size": 128, "max_iterations": 3, "seed": 4}))
        found = []
        for cpus in (None, 1):  # this machine's CPUs, then one
            if cpus is not None:
                monkeypatch.setattr(dk, "_cpu_count", lambda: cpus)
            out = tmp_path / f"fit-{cpus}"
            assert main(["fit", "--config", str(config), "--responses", str(responses),
                         "--out", str(out)]) == 0
            found.append((out / "fit.json").read_bytes())
        assert found[0] == found[1]


class TestHeldoutBlocks:
    """The per-respondent estimates do not depend on how many respondents a
    heldout block holds: noise is drawn block by block in respondent order."""

    def _per_respondent(self, monkeypatch, block_rows, result, hold, **kw):
        monkeypatch.setattr(estimators_mod, "_HELDOUT_BLOCK_ROWS", block_rows)
        return heldout_loglik(hold, result.params, result.encoder, np.random.default_rng(6),
                              R_eval=5000, **kw).per_respondent

    def _compare(self, monkeypatch, result, hold, **kw):
        whole = self._per_respondent(monkeypatch, 200_000, result, hold, **kw)
        blocked = self._per_respondent(monkeypatch, 5_000, result, hold, **kw)
        np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-12)

    def test_gaussian(self, monkeypatch, trained):
        resp, result = trained
        self._compare(monkeypatch, result, resp.subset(np.arange(12)))

    def test_surrogate(self, monkeypatch, trained_adversarial):
        resp, result = trained_adversarial
        self._compare(monkeypatch, result, resp.subset(np.arange(12)), disc=result.disc,
                      adaptive_contrast=result.config.estimator == "IWAVB")


def _constant_copy(obj):
    """Deep copy whose trainable leaves are all constants."""
    out = copy.deepcopy(obj)
    for p in out.parameters():
        p.requires_grad = False
    return out


def _two_tape_step(state, x, feats, rng):
    """Gradients of one training step from two tapes, as a reference: a phi
    pass with the decoder as constants (the DReG surrogate
    sum w_tilde^2 log w / (B*S)), then a theta + psi pass on the same draws
    with the encoder as constants.  The weight path sees a
    constant copy of the discriminator, and psi's loss runs it afresh on the
    draws as constants, so no gradient here depends on a split forward."""
    config = state.config
    b, R, S = x.shape[0], config.R, config.S
    tile = R * S
    if config.estimator == "IWAE":
        u = rng.standard_normal((b * tile, state.encoder.latent_dim))

        def log_weights(tape, encoder, params):
            return gaussian_log_weights(tape, x, feats, encoder, params, R, S, u)
    else:
        eps = rng.standard_normal((b * tile, state.encoder.noise_dim))
        zeta = rng.standard_normal((b * tile, state.encoder.latent_dim))
        adaptive_contrast = config.estimator == "IWAVB"
        moment_eps = None
        if adaptive_contrast and tile < 8:
            moment_eps = rng.standard_normal((b * (8 - tile), state.encoder.noise_dim))

        disc = _constant_copy(state.disc)

        def log_weights(tape, encoder, params):
            return avb_log_weights(tape, x, feats, encoder, disc, params,
                                   R, S, adaptive_contrast, eps, moment_eps=moment_eps)

    tape = dk.Tape()
    lw = log_weights(tape, state.encoder, _constant_copy(state.params))["log_w"]
    w2 = normalized_weights(lw.data.reshape(b * S, R)).reshape(-1, 1) ** 2
    obj = dk.mul(tape, dk.tsum(tape, dk.mul(tape, lw, dk.const(w2))), 1.0 / (b * S))
    tape.backward(dk.mul(tape, obj, -1.0))

    tape = dk.Tape()
    graph = log_weights(tape, _constant_copy(state.encoder), state.params)
    per = iw_elbo_from_log_w(tape, graph["log_w"], b, R, S)
    root = dk.mul(tape, dk.tmean(tape, per), -1.0)
    if state.disc is not None:
        x_t = dk.const(feats) if state.disc.response_dim else None
        t_q = state.disc.forward(tape, x_t, dk.const(graph["z_std"].data))
        loss_p = avb_prior_loss(tape, state.disc, feats, zeta)
        root = dk.add(tape, root, avb_discriminator_loss(tape, t_q, loss_p))
    tape.backward(root)


class TestSingleTapeParity:
    """One training step on one tape gives every parameter group the
    gradient the two-pass construction gives it."""

    @pytest.mark.parametrize("kind", ["IWAE", "AVB", "IWAVB"])
    def test_gradients_match_two_tape_reference(self, kind):
        rng = np.random.default_rng(25)
        resp, _ = sample_toy_data(rng, N=40, M=5, P=2, C=3)
        cfg = FitConfig(estimator=kind, n_factors=2, R=3, S=2, batch_size=20,
                        encoder_hidden=[8], disc_hidden=[8], seed=25)
        state, feats, _ = init_state(resp, cfg)
        x, f = resp.data[:20], feats[:20]
        groups = {"theta": state.params.parameters(), "phi": state.encoder.parameters(),
                  "psi": state.disc.parameters() if state.disc is not None else []}

        def grads():
            out = {name: [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                          for p in ps] for name, ps in groups.items()}
            for ps in groups.values():
                for p in ps:
                    p.grad = None
            return out

        noise = copy.deepcopy(state.noise_rng)
        training_step(state, x, f, 0.0, 0.0)
        got = grads()
        _two_tape_step(state, x, f, noise)
        want = grads()
        for name in groups:
            assert not groups[name] or any(np.abs(g).max() > 0 for g in got[name]), name
            for g, w in zip(got[name], want[name], strict=True):
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=name)


class TestTrainingStep:
    def _state(self, kind, seed=23):
        rng = np.random.default_rng(seed)
        resp, _ = sample_toy_data(rng, N=40, M=5, P=2, C=3)
        cfg = FitConfig(estimator=kind, n_factors=2,
                        R=1 if kind == "VAE" else 4,
                        batch_size=20, encoder_hidden=[8], disc_hidden=[8],
                        seed=seed)
        state, feats, _ = init_state(resp, cfg)
        return state, resp, feats

    @pytest.mark.parametrize("kind", ["VAE", "IWAE", "AVB", "IWAVB"])
    def test_one_step_moves_trained_groups_only(self, kind):
        state, resp, feats = self._state(kind)
        theta_before = [p.data.copy() for p in state.params.parameters()]
        phi_before = [p.data.copy() for p in state.encoder.parameters()]
        cfg_before = state.config.to_dict()
        diag = training_step(state, resp.data[:20], feats[:20], 1e-3, 1e-3)
        assert any(np.abs(p.data - b).max() > 0
                   for p, b in zip(state.params.parameters(), theta_before))
        assert any(np.abs(p.data - b).max() > 0
                   for p, b in zip(state.encoder.parameters(), phi_before))
        assert state.config.to_dict() == cfg_before
        assert math.isfinite(diag["iw_elbo"])
        if kind in ("AVB", "IWAVB"):
            assert math.isfinite(diag["disc_loss"])

    @pytest.mark.parametrize("kind", ["IWAE", "IWAVB"])
    def test_zero_learning_rate_is_fixed_point(self, kind):
        state, resp, feats = self._state(kind)
        before = [p.data.copy() for p in state.params.parameters()
                  + state.encoder.parameters()
                  + (state.disc.parameters() if state.disc else [])]
        training_step(state, resp.data[:20], feats[:20], 0.0, 0.0)
        after = (state.params.parameters() + state.encoder.parameters()
                 + (state.disc.parameters() if state.disc else []))
        for p, b in zip(after, before):
            np.testing.assert_array_equal(p.data, b)

    @pytest.mark.parametrize("kind", ["AVB", "IWAVB"])
    def test_discriminator_runs_once_on_the_draws_and_once_on_zeta(self, kind, monkeypatch):
        """Once each, and the prior-draw pass first, on its own tape."""
        state, resp, feats = self._state(kind)
        seen = []
        original = Discriminator.forward

        def forward(self, tape, x, z, *args, **kwargs):
            seen.append(z.data.copy())
            return original(self, tape, x, z, *args, **kwargs)

        monkeypatch.setattr(Discriminator, "forward", forward)
        rng = copy.deepcopy(state.noise_rng)
        b, tile = 20, state.config.R * state.config.S
        eps = rng.standard_normal((b * tile, state.encoder.noise_dim))
        zeta = rng.standard_normal((b * tile, state.encoder.latent_dim))
        z = state.encoder.encode_values(feats[:20], eps)
        if kind == "IWAVB":
            # fewer than 8 draws per respondent: extra draws join the moments
            extra = rng.standard_normal((b * (8 - tile), state.encoder.noise_dim))
            draws = np.concatenate([z.reshape(b, tile, -1),
                                    state.encoder.encode_values(feats[:20], extra)
                                    .reshape(b, 8 - tile, -1)], axis=1)
            mu, sigma = moment_estimates(draws)
            z = (z - np.repeat(mu, tile, axis=0)) / np.repeat(sigma, tile, axis=0)
        training_step(state, resp.data[:20], feats[:20], 1e-3, 1e-3)
        assert len(seen) == 2
        np.testing.assert_array_equal(seen[0], zeta)
        np.testing.assert_array_equal(seen[1], z)

    @pytest.mark.parametrize("kind", ["AVB", "IWAVB"])
    def test_prior_draw_pass_is_freed_before_the_encoder_draw_pass(self, kind, monkeypatch):
        """By the discriminator's forward on the encoder draws, psi already
        holds the prior-draw pass's gradient and the memory held no longer
        includes that pass's saved activations (several MB here)."""
        rng = np.random.default_rng(27)
        resp, _ = sample_toy_data(rng, N=64, M=5, P=2, C=3)
        b, R, hidden = 64, 25, [256, 128]
        cfg = FitConfig(estimator=kind, n_factors=2, R=R, batch_size=b,
                        encoder_hidden=[8], disc_hidden=hidden, seed=27)
        state, feats, _ = init_state(resp, cfg)
        # each GELU layer keeps its input and its derivative: about 9.8 MB
        saved = b * R * sum(hidden) * 8 * 2
        seen = []
        original = Discriminator.forward

        def forward(self, tape, x, z, *args, **kwargs):
            if kwargs.get("split"):
                seen.append((tracemalloc.get_traced_memory()[0],
                             all(p.grad is not None for p in state.disc.parameters())))
            return original(self, tape, x, z, *args, **kwargs)

        monkeypatch.setattr(Discriminator, "forward", forward)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            training_step(state, resp.data[:b], feats[:b], 1e-3, 1e-3)
        finally:
            tracemalloc.stop()
        ((held, psi_has_grad),) = seen
        assert psi_has_grad
        assert held - start < saved / 4

    def test_nonfinite_discriminator_gradient_moves_no_group(self, monkeypatch):
        # psi steps last; a NaN there must not leave theta and phi half-updated
        state, resp, feats = self._state("IWAVB")
        original = fitting_mod.avb_discriminator_loss

        def nan_loss(tape, *args, **kwargs):
            return dk.mul(tape, original(tape, *args, **kwargs), math.nan)

        monkeypatch.setattr(fitting_mod, "avb_discriminator_loss", nan_loss)
        opts = (state.opt_theta, state.opt_phi, state.opt_psi)
        before = [(opt.t, [p.data.copy() for p in opt.params], [m.copy() for m in opt._m])
                  for opt in opts]
        with pytest.raises(NumericalError, match="disc"):
            training_step(state, resp.data[:20], feats[:20], 1e-3, 1e-3)
        assert state.t == 0
        for opt, (t, data, moments) in zip(opts, before):
            assert opt.t == t
            for p, d, m_now, m in zip(opt.params, data, opt._m, moments):
                np.testing.assert_array_equal(p.data, d)
                np.testing.assert_array_equal(m_now, m)

    @staticmethod
    def _everything(state):
        """t, and each group's step count, parameters and both moments."""
        opts = [o for o in (state.opt_theta, state.opt_phi, state.opt_psi) if o is not None]
        return state.t, [(o.t, [p.data.copy() for p in o.params], [m.copy() for m in o._m],
                          [v.copy() for v in o._v]) for o in opts]

    def _assert_unchanged(self, state, before):
        t, groups = self._everything(state)
        assert t == before[0]
        for (st, data, m, v), (st0, data0, m0, v0) in zip(groups, before[1]):
            assert st == st0
            for a, b in zip(data + m + v, data0 + m0 + v0):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["VAE", "IWAE", "AVB", "IWAVB"])
    def test_nonfinite_objective_with_finite_gradients_moves_nothing(self, kind, monkeypatch):
        """A NaN constant on the tape makes the objective NaN while every
        gradient stays finite; the step refuses before any group moves."""
        state, resp, feats = self._state(kind)
        training_step(state, resp.data[:20], feats[:20], 1e-3, 1e-3)
        for name in ("elbo_gaussian", "iw_elbo_from_log_w"):
            original = getattr(fitting_mod, name)

            def nan_objective(tape, *args, original=original, **kwargs):
                return dk.add(tape, original(tape, *args, **kwargs), math.nan)

            monkeypatch.setattr(fitting_mod, name, nan_objective)
        before = self._everything(state)
        with pytest.raises(NumericalError, match="objective at iteration 1"):
            training_step(state, resp.data[:20], feats[:20], 1e-3, 1e-3)
        self._assert_unchanged(state, before)

    @pytest.mark.parametrize("kind", ["AVB", "IWAVB"])
    def test_nonfinite_discriminator_loss_with_finite_gradients_moves_nothing(
            self, kind, monkeypatch):
        state, resp, feats = self._state(kind)
        original = fitting_mod.avb_discriminator_loss

        def nan_loss(tape, *args, **kwargs):
            return dk.add(tape, original(tape, *args, **kwargs), math.nan)

        monkeypatch.setattr(fitting_mod, "avb_discriminator_loss", nan_loss)
        before = self._everything(state)
        with pytest.raises(NumericalError, match="discriminator loss at iteration 0"):
            training_step(state, resp.data[:20], feats[:20], 1e-3, 1e-3)
        self._assert_unchanged(state, before)

    @pytest.mark.parametrize("kind,priors", [("VAE", 0), ("IWAE", 1), ("AVB", 0), ("IWAVB", 1)])
    def test_factor_chain_built_only_where_a_prior_is_scored(self, kind, priors, monkeypatch):
        """The VAE step scores no prior, and in plain AVB's weight the prior
        cancels, so neither records a prior node and chol_raw gets no
        gradient; IWAE and IWAVB record the prior as one node."""
        state, resp, feats = self._state(kind)
        ops = []
        record = dk.Tape.record

        def spy(self, op, *args):
            ops.append(op)
            return record(self, op, *args)

        monkeypatch.setattr(dk.Tape, "record", spy)
        training_step(state, resp.data[:20], feats[:20], 1e-3, 1e-3)
        assert ops.count("correlated_normal_logpdf") == priors
        if kind == "VAE":
            assert ops.count("gaussian_kl") == 1
        assert (state.params.chol_raw.grad is None) == (priors == 0)

    def test_smoke_train_improves_moving_average(self):
        rng = np.random.default_rng(24)
        resp, _ = sample_toy_data(rng, N=150, M=10, P=1, C=3)
        cfg = FitConfig(estimator="IWAE", n_factors=1, R=5, batch_size=50,
                        max_iterations=500, window=100, patience=50,
                        encoder_hidden=[16], clr_step_size=100, base_lr=3e-3,
                        seed=10)
        result = fit(resp, cfg)
        first = np.mean(result.trace["batch_iw_elbo"][:100])
        last = np.mean(result.trace["batch_iw_elbo"][-100:])
        assert last > first
