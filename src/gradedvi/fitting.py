"""Training loop: per-step gradient computation for all four estimators,
cyclical learning rates, windowed convergence monitoring, and the FitResult
artifact.

Each step builds one main tape and runs the encoder and the decoder once,
and (for AVB and IWAVB) the discriminator once on the encoder draws; the
VAE and AVB steps score no prior and so record no prior node.
The main root is the negated batch objective plus, for the adversarial
estimators, the discriminator's classification loss: theta gets the
importance-weighted decoder gradient, phi the encoder gradient (DReG's
squared weights through a row scale at z), and psi only its classification
loss.  The forward on the encoder draws is split: the output the weight
path reads sends its gradient to the draws only, and the output the loss
reads sends its gradient to psi only.  The loss's other half, the
discriminator on the prior draws, reads only psi, the features and the
noise, so it runs first, on its own tape, which is back-propagated into psi
and dropped before the main graph is built: its saved activations are gone
before the main backward allocates its gradients, and psi's gradient is the
same sum, added in the same order, as on a single tape.  A non-finite
objective or discriminator loss stops the step before any optimizer moves.

`FitConfig` is the one settings object for a fit, and `FitConfig.validate`
checks every estimator rule (VAE needs R = 1).  The estimator alone decides
adaptive contrast: IWAVB uses it, and VAE, IWAE and AVB do not.
"""

from __future__ import annotations

import math
import time
import types
import typing
from dataclasses import dataclass, field, asdict

import numpy as np

from . import diffkernel as dk
from .diffkernel import Tape
from .estimators import (
    avb_discriminator_loss,
    avb_log_weights,
    avb_prior_loss,
    dreg_phi_surrogate,
    elbo_gaussian,
    gaussian_log_weights,
    iw_elbo_from_log_w,
)
from .grm import GrmParams, ResponseMatrix, init_params, simple_structure_mask
from .nets import BlackBoxEncoder, Discriminator, GaussianEncoder, encode_responses
from .optim import AdamW, ClrSchedule, ConvergenceMonitor, NumericalError, step_all
from .rngutil import substream


class ConfigError(ValueError):
    """Invalid fit configuration."""


@dataclass
class FitConfig:
    estimator: str = "IWAE"
    n_factors: int = 1
    R: int = 25
    S: int = 1
    batch_size: int = 128
    base_lr: float = 1e-3          # encoder + decoder
    disc_base_lr: float = 1e-2     # discriminator learns faster
    max_lr_factor: float = 5.0
    clr_step_size: int = 2000
    window: int = 100
    patience: int = 500
    min_delta: float = 1e-3
    max_iterations: int = 50_000
    encoder_hidden: list[int] | None = None
    disc_hidden: list[int] = field(default_factory=lambda: [256, 128])
    noise_dim: int | None = None
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps_stab: float = 1e-8
    seed: int = 0
    loading_structure: str = "exploratory"
    loading_positivity: bool = False
    holdout_fraction: float = 0.25
    r_eval: int = 5000

    def validate(self) -> None:
        if self.estimator not in ("VAE", "IWAE", "AVB", "IWAVB"):
            raise ConfigError(f"estimator: unknown kind {self.estimator!r}")
        if self.n_factors < 1:
            raise ConfigError("n_factors: must be >= 1")
        if self.R < 1 or (self.estimator == "VAE" and self.R != 1):
            raise ConfigError("R: must be >= 1 (and exactly 1 for VAE)")
        if self.S < 1:
            raise ConfigError("S: must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size: must be >= 1")
        for name in ("base_lr", "disc_base_lr", "max_lr_factor", "min_delta",
                     "weight_decay", "eps_stab"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name}: must be finite, got {value!r}")
        if self.base_lr < 0 or self.disc_base_lr < 0:
            raise ConfigError("learning rates must be >= 0")
        if self.max_lr_factor < 1:
            raise ConfigError("max_lr_factor: must be >= 1")
        if self.clr_step_size < 1:
            raise ConfigError("clr_step_size: must be >= 1")
        if self.window < 1 or self.patience < 1:
            raise ConfigError("window and patience must be >= 1")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations: must be >= 1")
        if self.loading_structure not in ("exploratory", "simple"):
            raise ConfigError(f"loading_structure: {self.loading_structure!r}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError("holdout_fraction: must be in (0, 1)")
        if self.r_eval < 1:
            raise ConfigError("r_eval: must be >= 1")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must be in [0, 1)")
        if not self.eps_stab > 0:
            raise ConfigError("eps_stab: must be > 0")
        if not self.weight_decay >= 0:
            raise ConfigError("weight_decay: must be >= 0")
        if self.noise_dim is not None and self.noise_dim < 1:
            raise ConfigError("noise_dim: must be >= 1 when set")
        for name in ("encoder_hidden", "disc_hidden"):
            widths = getattr(self, name) or []
            if any(width < 1 for width in widths):
                raise ConfigError(f"{name}: every width must be >= 1, got {widths}")

    def resolved_encoder_hidden(self) -> list[int]:
        if self.encoder_hidden is not None:
            return list(self.encoder_hidden)
        return [128] if self.estimator in ("AVB", "IWAVB") else [100]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "FitConfig":
        """The config a JSON document names.  A key of `_RETIRED_KEYS` is dropped
        when it names what the estimator now always runs, and refused otherwise."""
        doc = dict(doc)
        estimator = doc.get("estimator", cls.estimator)
        for key, (allowed, why) in _RETIRED_KEYS.items():
            if key in doc and not any(doc[key] is v for v in allowed(estimator)):
                raise ConfigError(f"{key}: {doc[key]!r} is not what estimator {estimator!r} "
                                  f"runs; {why}, and the key is retired")
            doc.pop(key, None)
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        hints = typing.get_type_hints(cls)
        for name, value in doc.items():
            if not _has_type(value, hints[name]):
                raise ConfigError(f"{name}: expected {hints[name]}, got {value!r}")
        # an int in a float field becomes a float, so equal configs serialize
        # (and hash) the same
        return cls(**{name: float(value) if hints[name] is float else value
                      for name, value in doc.items()})


# keys of older files: key -> (the values naming what an estimator now runs, the rule)
_RETIRED_KEYS = {
    "adaptive_contrast": (lambda est: (None, est == "IWAVB"), "only IWAVB uses adaptive contrast"),
    "dreg": (lambda est: (True,), "every importance-weighted estimator uses DReG"),
}


def _has_type(value, hint) -> bool:
    """isinstance against a FitConfig field hint.  An int is a float here;
    a bool is neither an int nor a float."""
    if isinstance(hint, types.UnionType):
        return any(_has_type(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if hint in (int, float) and isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if hint is float else hint)


@dataclass
class FitState:
    config: FitConfig
    params: GrmParams
    encoder: GaussianEncoder | BlackBoxEncoder
    disc: Discriminator | None
    opt_theta: AdamW
    opt_phi: AdamW
    opt_psi: AdamW | None
    noise_rng: np.random.Generator
    t: int = 0


@dataclass
class FitResult:
    params: GrmParams
    encoder: GaussianEncoder | BlackBoxEncoder
    disc: Discriminator | None
    trace: dict
    status: str
    iterations: int
    wall_time: float
    config: FitConfig

    def to_json_dict(self) -> dict:
        """Deterministic artifact: everything except wall-clock time (which
        lives in the run manifest so reruns stay byte-identical)."""
        return {
            "schema_version": 1,
            "estimator": self.config.estimator,
            "config": self.config.to_dict(),
            "params": self.params.to_dict(),
            "networks": {
                "encoder": self.encoder.to_dict(),
                "discriminator": self.disc.to_dict() if self.disc is not None else None,
                "feature_missing_block": self.encoder.feature_dim > self.params.n_items,
            },
            "trace": self.trace,
            "convergence": {"status": self.status, "iterations": self.iterations},
        }


def split_holdout(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic train/holdout split; |holdout| = round(fraction * n)."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"holdout fraction must be in (0, 1), got {fraction}")
    perm = substream(seed, "holdout").permutation(n)
    k = int(round(fraction * n))
    return np.sort(perm[k:]), np.sort(perm[:k])


def _build_networks(config: FitConfig, feat_dim: int, rng: np.random.Generator):
    P = config.n_factors
    hidden = config.resolved_encoder_hidden()
    if config.estimator in ("VAE", "IWAE"):
        encoder = GaussianEncoder.build(feat_dim, hidden, P, rng)
        disc = None
    else:
        noise_dim = config.noise_dim if config.noise_dim is not None else P
        encoder = BlackBoxEncoder.build(feat_dim, hidden, P, noise_dim, rng)
        disc = Discriminator.build(feat_dim, P, list(config.disc_hidden), rng)
    return encoder, disc


def init_state(responses: ResponseMatrix, config: FitConfig) -> tuple[FitState, np.ndarray, bool]:
    """Parameters, networks and optimizers for a fresh fit; returns the
    encoded feature matrix alongside the state."""
    config.validate()
    M = responses.n_items
    P = config.n_factors
    if config.loading_structure == "simple":
        mask = simple_structure_mask(M, P)
    else:
        mask = np.ones((M, P))
    params = init_params(M, P, responses.categories, seed=config.seed,
                         loading_mask=mask, loading_positivity=config.loading_positivity)
    feats, has_missing = encode_responses(responses.data, responses.categories)
    encoder, disc = _build_networks(config, feats.shape[1], substream(config.seed, "net-init"))
    kw = dict(beta1=config.beta1, beta2=config.beta2,
              weight_decay=config.weight_decay, eps=config.eps_stab)
    state = FitState(
        config=config, params=params, encoder=encoder, disc=disc,
        opt_theta=AdamW(params.parameters(), **kw),
        opt_phi=AdamW(encoder.parameters(), **kw),
        opt_psi=AdamW(disc.parameters(), **kw) if disc is not None else None,
        noise_rng=substream(config.seed, "noise"),
    )
    return state, feats, has_missing


def training_step(state: FitState, x_batch: np.ndarray, feats_batch: np.ndarray,
                  lr_gen: float, lr_disc: float) -> dict:
    """One optimizer step on a mini-batch, built as the module docstring
    says; returns diagnostics.  With zero learning rates the state is a
    fixed point.  A non-finite batch objective or discriminator loss raises
    NumericalError naming the iteration before any optimizer moves.
    """
    config = state.config
    params = state.params
    encoder = state.encoder
    b = x_batch.shape[0]
    R, S = config.R, config.S
    tile = R * S
    P = encoder.latent_dim
    rng = state.noise_rng

    state.opt_theta.zero_grad()
    state.opt_phi.zero_grad()
    if state.opt_psi is not None:
        state.opt_psi.zero_grad()

    tape = Tape()
    row_scale = None
    if config.estimator == "VAE":
        u = rng.standard_normal((b * S, P))
        per = elbo_gaussian(tape, x_batch, feats_batch, encoder, params, u, S=S)
    else:
        if config.estimator == "IWAE":
            u = rng.standard_normal((b * tile, P))
            graph = gaussian_log_weights(tape, x_batch, feats_batch, encoder, params, R, S, u)
        else:  # AVB / IWAVB
            eps = rng.standard_normal((b * tile, encoder.noise_dim))
            zeta = rng.standard_normal((b * tile, P))
            adaptive_contrast = config.estimator == "IWAVB"
            moment_eps = None
            if adaptive_contrast and tile < 8:
                moment_eps = rng.standard_normal((b * (8 - tile), encoder.noise_dim))
            # the prior-draw pass reads only psi, the features and zeta: its
            # tape is back-propagated and dropped before the main graph exists
            prior_tape = Tape()
            loss_p = avb_prior_loss(prior_tape, state.disc, feats_batch, zeta)
            prior_tape.backward(loss_p)
            del prior_tape
            graph = avb_log_weights(tape, x_batch, feats_batch, encoder, state.disc, params,
                                    R, S, adaptive_contrast, eps, moment_eps=moment_eps)
        per = iw_elbo_from_log_w(tape, graph["log_w"], b, R, S)
        row_scale = (graph["z"], dreg_phi_surrogate(graph["log_w"], R))
    root = dk.mul(tape, dk.tmean(tape, per), -1.0)
    diag = {"iw_elbo": float(per.data.mean()), "disc_loss": math.nan}
    _check_finite("objective", diag["iw_elbo"], state.t)
    if state.disc is not None:
        # t_q's gradient reaches only psi, so the loss moves only psi
        dloss = avb_discriminator_loss(tape, graph["t_q"], dk.const(loss_p.data))
        root = dk.add(tape, root, dloss)
        diag["disc_loss"] = float(dloss.item())
        _check_finite("discriminator loss", diag["disc_loss"], state.t)
    tape.backward(root, row_scale=row_scale)

    updates = [(state.opt_theta, lr_gen), (state.opt_phi, lr_gen)]
    if state.opt_psi is not None:
        updates.append((state.opt_psi, lr_disc))
    step_all(updates)
    state.t += 1
    diag["lr_encoder"] = lr_gen
    diag["lr_disc"] = lr_disc if state.opt_psi is not None else math.nan
    return diag


def _check_finite(what: str, value: float, t: int) -> None:
    """NumericalError before any optimizer moves when a step's value is not finite."""
    if not math.isfinite(value):
        raise NumericalError(f"non-finite {what} at iteration {t}; last good iteration {t - 1}")


def fit(responses: ResponseMatrix, config: FitConfig, step_callback=None) -> FitResult:
    """Train to convergence (windowed patience rule) or the iteration cap."""
    start = time.perf_counter()
    state, feats, _ = init_state(responses, config)
    N = responses.n_respondents
    B = min(config.batch_size, N)
    sched_gen = ClrSchedule(config.base_lr, config.base_lr * config.max_lr_factor,
                            config.clr_step_size)
    sched_disc = ClrSchedule(config.disc_base_lr, config.disc_base_lr * config.max_lr_factor,
                             config.clr_step_size)
    monitor = ConvergenceMonitor(patience=config.patience, min_delta=config.min_delta)
    batch_rng = substream(config.seed, "batches")

    trace = {"iteration": [], "batch_iw_elbo": [], "disc_loss": [],
             "lr_encoder": [], "lr_disc": []}
    window_buf: list[float] = []
    status = "max_iterations"
    perm = batch_rng.permutation(N)
    pos = 0
    iterations = 0

    for t in range(config.max_iterations):
        if pos + B > N:
            perm = batch_rng.permutation(N)
            pos = 0
        idx = perm[pos:pos + B]
        pos += B
        lr_gen = sched_gen.lr(t)
        lr_disc = sched_disc.lr(t)
        diag = training_step(state, responses.data[idx], feats[idx], lr_gen, lr_disc)
        iterations = t + 1
        trace["iteration"].append(t)
        trace["batch_iw_elbo"].append(diag["iw_elbo"])
        trace["disc_loss"].append(diag["disc_loss"])
        trace["lr_encoder"].append(diag["lr_encoder"])
        trace["lr_disc"].append(diag["lr_disc"])
        if step_callback is not None:
            step_callback(state, t)
        window_buf.append(diag["iw_elbo"])
        if len(window_buf) == config.window:
            avg = float(np.mean(window_buf))
            window_buf.clear()
            if monitor.update(avg) == "converged":
                status = "converged"
                break

    return FitResult(params=state.params, encoder=state.encoder, disc=state.disc,
                     trace=trace, status=status, iterations=iterations,
                     wall_time=time.perf_counter() - start, config=config)
