"""Variational objectives and their gradient machinery.

Four estimators share one decoder:

* VAE    - Gaussian encoder, single-sample ELBO with closed-form KL (one
           `diffkernel.gaussian_kl` node); it scores no prior, so its step
           records no prior node.
* IWAE   - Gaussian encoder, importance-weighted ELBO.
* AVB    - implicit encoder, discriminator contrasts q(z|x) against the prior;
           the prior cancels from its weight log p(x|z) - T(x, z), so no
           gradient reaches the factor correlation, which stays the identity.
* IWAVB  - implicit encoder with adaptive contrast: the discriminator sees
           standardized draws and models only shape deviations from a moment
           matched Gaussian; weights combine its logit with the analytic
           pieces of the surrogate posterior density.

Their settings live on `fitting.FitConfig`, the only settings object; the
estimator alone decides adaptive contrast, which IWAVB uses and the others
do not.  The functions here take R, S and adaptive contrast as plain
arguments.

Row layout is respondent-major everywhere: sample (i, s, r) lives at row
(i*S + s)*R + r, so reshaping to (B*S, R) lines importance samples up per
respondent/MC draw.  Every network takes the B distinct feature rows, one
per respondent, and never a tiled copy: the Gaussian encoder's trunk and
heads run on them, and its draws, log q and KL read one row of mu and sigma
per respondent; the implicit encoder and the discriminator compute the
feature part of their first layer once per respondent and add it to each
draw's noise or latent part; and the decoder gathers each respondent's
category boundaries once for all of its draws.

Training builds one main tape per step.  The root is -mean(IW-ELBO) (for
AVB/IWAVB plus the discriminator's classification loss), so the decoder
receives sum_r w_tilde dlog w/dtheta.  Every importance-weighted encoder
gets DReG's gradient (`dreg_phi_surrogate`, a w_tilde row scale at z): its
log q has no explicit path to phi, as `gaussian_log_weights` hands it mu
and sigma as constants and an implicit encoder's log q is the
discriminator's.  The discriminator runs once on the encoder draws, as one
split forward: the weight path's log q takes the output whose gradient
reaches only the draws, and the classification loss takes the output whose
gradient reaches only the discriminator's weights, so psi trains on that
loss alone and the loss never moves the encoder.  A second forward, on the
prior draws (`avb_prior_loss`), completes the loss; it reads only psi, the
features and the noise, so training runs it first, on its own tape,
back-propagates it at once and hands the main tape its value as a constant.

Evaluation runs the same code without a tape: `heldout_loglik` takes its
encoder outputs, its Gaussian log q and its adaptive-contrast log q from the
functions the training objectives use.  Only the GRM likelihood has a
separate plain-array form there (`grm.joint_logprob_values`): it takes one
response row per respondent for its R_eval draws and computes each draw's
observed-category probabilities by the training likelihood's own kernel
(`diffkernel._observed_probs`, two boundary sigmoids per item, exactly 1
at MISSING entries), then logs those.  That kernel works by rows, so a
block of one respondent's R_eval draws splits too; it and the networks'
layers, matmul and exact GELU included, run on two threads when they are
large (`diffkernel._split_rows`), with the same bits as on one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diffkernel as dk
from . import grm as grm_mod
from .diffkernel import Tape, Tensor2
from .grm import GrmParams, GrmValues, ResponseMatrix, response_selectors
from .nets import BlackBoxEncoder, Discriminator, GaussianEncoder, encode_responses

_LOG_2PI = math.log(2.0 * math.pi)
# Latent draws per heldout block; a block holds at least one respondent's
# R_eval draws.  At the study size, 5,000 draws keep each of the block's
# (draws, hidden) layer outputs near 10 MB and its (draws, items) likelihood
# arrays near 2 MB, instead of hundreds of MB.
_HELDOUT_BLOCK_ROWS = 5_000
# Values per chunk of the quadrature oracle's (items, respondents, nodes)
# gather: 2 MB, where the whole gather takes 20 MB for 40 respondents at P=2
# and 2 GB at the study size.
_QUADRATURE_CHUNK_VALUES = 1 << 18


class DegeneratePosteriorError(RuntimeError):
    """Adaptive-contrast moment estimate collapsed (sigma-hat ~ 0)."""


class UnsupportedDimensionError(ValueError):
    """Quadrature oracle only covers one and two latent dimensions."""


def normalized_weights(log_w_rows: np.ndarray) -> np.ndarray:
    """Softmax over each row of (B*S, R) log-weights."""
    m = log_w_rows.max(axis=1, keepdims=True)
    e = np.exp(log_w_rows - m)
    return e / e.sum(axis=1, keepdims=True)


def tile_rows(a: np.ndarray, times: int) -> np.ndarray:
    return np.repeat(a, times, axis=0) if times > 1 else a


def moment_estimates(z_draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical mean/std over axis 1 of (B, draws, P); gradients blocked
    by construction (plain arrays).  Raises when any coordinate collapses."""
    mu = z_draws.mean(axis=1)
    sigma = z_draws.std(axis=1)
    if np.any(sigma <= 1e-6):
        i, p = np.argwhere(sigma <= 1e-6)[0]
        raise DegeneratePosteriorError(
            f"posterior std ~ 0 for respondent {i}, coordinate {p}")
    return mu, sigma


# ---------------------------------------------------------------------------
# Gaussian-encoder path


def gaussian_log_weights(tape: Tape | None, x: np.ndarray, feats: np.ndarray,
                         encoder: GaussianEncoder, params: GrmParams,
                         R: int, S: int, u: np.ndarray) -> dict:
    """log w = log p(x, z) - log q(z | x) for reparameterized draws.

    log q takes each respondent's mu and sigma as plain arrays, so the
    encoder reaches log w only through z, as DReG needs.  u has B*S*R rows;
    returns the graph tensors "z" and "log_w".
    """
    z, mu, sigma = encoder.encode(tape, dk.const(feats), dk.const(u))
    logq = dk.diag_normal_logpdf(tape, z, mu.data, sigma.data)
    eff = params.effective(tape)
    sel = response_selectors(x, params.categories)
    logp = grm_mod.joint_logprob(tape, eff, z, sel, tile=S * R)
    return {"z": z, "log_w": dk.sub(tape, logp, logq)}


def elbo_gaussian(tape: Tape | None, x: np.ndarray, feats: np.ndarray,
                  encoder: GaussianEncoder, params: GrmParams,
                  u: np.ndarray, S: int = 1) -> Tensor2:
    """Per-respondent ELBO (B, 1), its one analytic KL against N(0, I)."""
    B = x.shape[0]
    z, mu, sigma = encoder.encode(tape, dk.const(feats), dk.const(u))
    eff = params.effective(tape)
    sel = response_selectors(x, params.categories)
    recon = dk.reshape(tape, grm_mod.conditional_loglik(tape, eff, z, sel, tile=S), B, S)
    recon = dk.mul(tape, dk.sum_rows(tape, recon), 1.0 / S)
    return dk.sub(tape, recon, dk.gaussian_kl(tape, mu, sigma))


# ---------------------------------------------------------------------------
# adversarial path


def contrast_logq(tape: Tape | None, t_out: Tensor2, z_std: Tensor2,
                  sigma_hat: np.ndarray, tile: int) -> Tensor2:
    """Adaptive-contrast surrogate log q(z|x) per row,
        T(x, z_std) - 0.5 ||z_std||^2 - (P/2) log 2pi - sum_p log sigma_hat_p,
    from the discriminator logits t_out = T(x, z_std) and the (B, P) moment
    estimates, whose rows repeat over `tile` draws per respondent."""
    P = z_std.cols
    norm2 = dk.sum_rows(tape, dk.square(tape, z_std))
    logq = dk.sub(tape, t_out, dk.mul(tape, norm2, 0.5))
    logq = dk.add(tape, logq, -0.5 * P * _LOG_2PI)
    log_sig = np.log(sigma_hat).sum(axis=1, keepdims=True)
    return dk.sub(tape, logq, dk.const(tile_rows(log_sig, tile)))


def avb_log_weights(tape: Tape | None, x: np.ndarray, feats: np.ndarray,
                    encoder: BlackBoxEncoder, disc: Discriminator,
                    params: GrmParams, R: int, S: int, adaptive_contrast: bool,
                    eps: np.ndarray, moment_eps: np.ndarray | None = None,
                    moments: tuple[np.ndarray, np.ndarray] | None = None) -> dict:
    """Importance weights with the discriminator standing in for log q.

    Adaptive contrast: log q(z|x) is `contrast_logq` at
    z_std = (z - mu_hat) / sigma_hat, with the moment estimates treated as
    constants.  Plain mode contrasts against the prior instead, so with
    log q(z|x) = T(x, z) + log p(z) the prior cancels: log w = log p(x|z) - T.

    The discriminator runs once, split (`Discriminator.forward(...,
    split=True)`): log q takes the output whose gradient reaches only the
    draws, so its parameters get nothing from the weight path, and "t_q",
    the output whose gradient reaches only its parameters, goes to
    `avb_discriminator_loss`.  eps has B*S*R rows; returns the graph tensors
    "z", "log_w", "z_std" (the draws the discriminator saw, z itself in
    plain mode) and "t_q".
    """
    B = x.shape[0]
    tile = S * R
    P = encoder.latent_dim
    x_feats = dk.const(feats)
    z = encoder.encode(tape, x_feats, dk.const(eps))
    eff = params.effective(tape)
    sel = response_selectors(x, params.categories)
    if not adaptive_contrast:
        logp = grm_mod.conditional_loglik(tape, eff, z, sel, tile=tile)
        t_out, t_q = disc.forward(tape, x_feats, z, split=True)
        return {"z": z, "log_w": dk.sub(tape, logp, t_out), "z_std": z, "t_q": t_q}

    logp = grm_mod.joint_logprob(tape, eff, z, sel, tile=tile)
    if moments is not None:
        mu_hat, sigma_hat = moments
    else:
        z_draws = z.data.reshape(B, tile, P)
        if moment_eps is not None:
            extra_per = moment_eps.shape[0] // B
            z_extra = encoder.encode_values(feats, moment_eps).reshape(B, extra_per, P)
            z_draws = np.concatenate([z_draws, z_extra], axis=1)
        mu_hat, sigma_hat = moment_estimates(z_draws)
    mu_t = dk.const(tile_rows(mu_hat, tile))
    sig_t = dk.const(tile_rows(sigma_hat, tile))
    z_std = dk.div(tape, dk.sub(tape, z, mu_t), sig_t)
    t_out, t_q = disc.forward(tape, x_feats, z_std, split=True)
    logq = contrast_logq(tape, t_out, z_std, sigma_hat, tile)
    return {"z": z, "log_w": dk.sub(tape, logp, logq), "z_std": z_std, "t_q": t_q}


def avb_prior_loss(tape: Tape | None, disc: Discriminator, feats: np.ndarray | None,
                   zeta: np.ndarray) -> Tensor2:
    """The prior-draw half of the discriminator's loss, mean softplus(T(x, zeta)).

    zeta holds the same whole number of prior draws per respondent as the
    encoder draws, and feats one row per respondent.  The pass depends on
    neither the encoder nor the decoder, so training back-propagates it on
    its own tape before the main graph is built.
    """
    t_p = disc.forward(tape, None if feats is None else dk.const(feats), dk.const(zeta))
    return dk.tmean(tape, dk.log1p_exp(tape, t_p))


def avb_discriminator_loss(tape: Tape | None, t_q: Tensor2, loss_p: Tensor2) -> Tensor2:
    """Binary-classification loss (to minimize) on encoder vs prior samples.

    t_q holds the discriminator's logits on the encoder draws, and its
    gradient must not reach the encoder: the "t_q" of `avb_log_weights`, or
    a forward on constant draws.  loss_p is `avb_prior_loss` on the prior
    draws: on this tape, or a constant when its own tape has already been
    back-propagated.  Per pair the loss is softplus(-T_q) + softplus(T_p),
    which is log 4 at T = 0 and tends to 0 under perfect separation.
    """
    loss_q = dk.tmean(tape, dk.log1p_exp(tape, dk.mul(tape, t_q, -1.0)))
    return dk.add(tape, loss_q, loss_p)


# ---------------------------------------------------------------------------
# importance-weighted reductions


def iw_elbo_from_log_w(tape: Tape | None, log_w: Tensor2, B: int, R: int, S: int) -> Tensor2:
    """(1/S) sum_s log[(1/R) sum_r w] per respondent, in log space; (B, 1)."""
    mat = dk.reshape(tape, log_w, B * S, R)
    lse = dk.add(tape, dk.logsumexp_rows(tape, mat), -math.log(R))
    per = dk.reshape(tape, lse, B, S)
    return dk.mul(tape, dk.sum_rows(tape, per), 1.0 / S)


def dreg_phi_surrogate(log_w: Tensor2, R: int) -> np.ndarray:
    """DReG's (B*S*R, 1) row scale at z: each draw's normalized weight
    w_tilde, a softmax over its respondent/MC draw's R log-weights.

    Back-propagating -mean(IW-ELBO) gives log w the gradient
    -w_tilde / (B*S).  `Tape.backward(root, row_scale=(z, column))`
    multiplies z's rows by w_tilde once more before the encoder runs, so,
    log q having no explicit path to phi,
        dL/dphi = -(1/(B*S)) sum w_tilde^2 dlog w/dz dz/dphi,
    the gradient of the DReG surrogate -sum w_tilde^2 log w / (B*S) with
    w_tilde held constant, while dL/dtheta stays -(1/(B*S)) sum w_tilde
    dlog w/dtheta: theta's paths into log w do not pass through z.
    """
    return normalized_weights(log_w.data.reshape(-1, R)).reshape(-1, 1)


# ---------------------------------------------------------------------------
# oracles and evaluation


def logmeanexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log of the mean of exponentials along one axis."""
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.exp(a - m).mean(axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def marginal_loglik_quadrature(x: ResponseMatrix | np.ndarray, values: GrmValues,
                               nodes: int = 101) -> np.ndarray:
    """Gauss-Hermite log marginal likelihood per respondent; P <= 2 only.

    Each response is MISSING or a category in [0, C_j); any other raises
    DataError naming its item.  Each node's log-likelihood sums the
    observed categories' log probabilities, gathered for chunks of about
    `_QUADRATURE_CHUNK_VALUES` (item, respondent, node) cells at a time.
    """
    P = values.n_factors
    if P > 2:
        raise UnsupportedDimensionError(f"quadrature oracle supports P <= 2, got P={P}")
    if nodes < 21:
        raise ValueError("use at least 21 quadrature nodes")
    data = x.data if isinstance(x, ResponseMatrix) else np.asarray(x, dtype=np.int64)
    t, w = np.polynomial.hermite.hermgauss(nodes)
    chol = np.linalg.cholesky(values.factor_corr)
    if P == 1:
        grid = math.sqrt(2.0) * t.reshape(-1, 1) * chol[0, 0]
        logw = np.log(w) - 0.5 * math.log(math.pi)
    else:
        tt = np.array(np.meshgrid(t, t, indexing="ij")).reshape(2, -1).T
        grid = (math.sqrt(2.0) * tt) @ chol.T
        ww = np.outer(w, w).reshape(-1)
        logw = np.log(ww) - math.log(math.pi)
    missing = data == grm_mod.MISSING
    levels = np.where(missing, 0, data)
    grm_mod.check_categories(levels, values.categories)
    # (M, C, G): item-major, so each chunk's gather is (M, N, nodes) and
    # sums over items in order, and each respondent's G node values are
    # contiguous for the sum over nodes
    logp_grid = np.ascontiguousarray(grm_mod.category_logprob(grid, values).transpose(1, 2, 0))
    M, _, G = logp_grid.shape
    N = data.shape[0]
    ll = np.empty((N, G))
    # at least two nodes per chunk, the last one taking the rest: a chunk of
    # one node and one respondent would sum its items pairwise, not in order
    step = max(2, _QUADRATURE_CHUNK_VALUES // max(N * M, 1))
    edges = [*range(0, max(G - step, 1), step), G]
    items = np.arange(M)[:, None]
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = logp_grid[items, levels.T, lo:hi]
        np.copyto(sel, 0.0, where=missing.T[:, :, None])
        np.sum(sel, axis=0, out=ll[:, lo:hi])
    total = ll + logw
    m = total.max(axis=1)
    return m + np.log(np.exp(total - m[:, None]).sum(axis=1))


@dataclass
class HeldoutReport:
    total: float
    per_respondent_mean: float
    n_respondents: int
    r_eval: int
    surrogate_density: bool = False
    per_respondent: np.ndarray = field(default=None, repr=False)
    # per respondent, 1 / sum of its squared normalized weights, in [1, r_eval]
    ess: np.ndarray = field(default=None, repr=False)


def heldout_loglik(x_holdout: ResponseMatrix, params: GrmParams, encoder,
                   rng: np.random.Generator, R_eval: int = 5000,
                   disc: Discriminator | None = None,
                   adaptive_contrast: bool = True) -> HeldoutReport:
    """Importance-sampled marginal log-likelihood of withheld respondents.

    Gaussian encoders use their exact density; adversarial fits use the
    trained discriminator's density surrogate (an estimate, not a bound,
    flagged in the report).  The log-weights are those of
    `gaussian_log_weights` and `avb_log_weights` at R = R_eval, computed
    without a tape in blocks of about `_HELDOUT_BLOCK_ROWS` draws (whole
    respondents, at least one per block); the networks see each block's
    feature rows once per respondent.  Noise is drawn block by block in
    respondent order, so the estimates do not depend on the block size.
    The report's `ess` is each respondent's effective sample size,
    1 / sum_r w_tilde_r^2 over its R_eval normalized weights.  Adaptive
    contrast needs R_eval >= 2, since a single draw has no spread; a
    smaller R_eval raises ValueError before any draw.
    """
    values = params.values()
    x = x_holdout.data
    H = x.shape[0]
    # the networks' input width, fixed at fit time, decides the missingness block
    feats, _ = encode_responses(x, params.categories, encoder.feature_dim > x.shape[1])
    P = values.n_factors
    gaussian = isinstance(encoder, GaussianEncoder)
    if adaptive_contrast and not gaussian and R_eval < 2:
        raise ValueError(f"R_eval = {R_eval}: adaptive contrast standardises each "
                         f"respondent's draws by their own moments and needs R_eval >= 2")
    block = max(1, _HELDOUT_BLOCK_ROWS // R_eval)
    per_resp = np.empty(H)
    ess = np.empty(H)
    for start in range(0, H, block):
        stop = min(H, start + block)
        nb = stop - start
        if gaussian:
            mu, sigma = encoder.heads_values(feats[start:stop])
            z = dk.gaussian_draws(None, dk.const(mu), dk.const(sigma),
                                  rng.standard_normal((nb * R_eval, P)))
            logq = dk.diag_normal_logpdf(None, z, mu, sigma).data[:, 0]
            z = z.data
        else:
            fb = feats[start:stop]
            eps = rng.standard_normal((nb * R_eval, encoder.noise_dim))
            z = encoder.encode_values(fb, eps)
            if adaptive_contrast:
                mu_hat, sigma_hat = moment_estimates(z.reshape(nb, R_eval, P))
                z_std = (z - tile_rows(mu_hat, R_eval)) / tile_rows(sigma_hat, R_eval)
                t_out = disc.forward_values(fb, z_std)
                logq = contrast_logq(None, dk.const(t_out), dk.const(z_std),
                                     sigma_hat, R_eval).data[:, 0]
            else:  # plain AVB: log p(z) cancels from log p(x, z) - (T + log p(z))
                logq = disc.forward_values(fb, z)[:, 0]
        loglik = (grm_mod.joint_logprob_values if gaussian or adaptive_contrast
                  else grm_mod.conditional_loglik_values)
        logp = loglik(x[start:stop], z, values, R_eval)
        log_w = (logp - logq).reshape(nb, R_eval)
        per_resp[start:stop] = logmeanexp(log_w, axis=1)
        w = normalized_weights(log_w)
        ess[start:stop] = 1.0 / (w * w).sum(axis=1)
    return HeldoutReport(total=float(per_resp.sum()),
                         per_respondent_mean=float(per_resp.mean()),
                         n_respondents=H, r_eval=R_eval,
                         surrogate_density=not gaussian,
                         per_respondent=per_resp, ess=ess)
