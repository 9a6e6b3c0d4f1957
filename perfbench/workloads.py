"""The four benchmark workloads.

Every workload is a closed loop with one caller: the next task starts when
the previous one has returned.  A task is the unit that task_s times:

* iwae-study    one `fitting.fit` call, IWAE with DReG, fixed step count
* iwavb-study   one `fitting.fit` call, IWAVB with adaptive contrast
* heldout-r5000 one Gaussian and one surrogate `heldout_loglik` call
* vae-pipeline  `gradedvi.cli.main` simulate, fit per replication, eval

All inputs are generated from the workload seed; the program sees only the
generated data and configs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from gradedvi import cli, estimators, fitting, grm, nets, simlab
from gradedvi import diffkernel as dk
from gradedvi.estimators import DegeneratePosteriorError
from gradedvi.optim import NumericalError
from gradedvi.rngutil import substream

# Failures an operation may raise on bad numerics; anything else is a bug and
# stops the benchmark.
FAILURES = (NumericalError, DegeneratePosteriorError, dk.DomainError)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes.  The defaults are the study size of the paper's
    simulation design; tests pass smaller ones."""

    n_respondents: int = 500
    n_items: int = 50
    n_factors: int = 5
    categories: int = 5
    batch_size: int = 128
    R: int = 25
    iwae_steps: int = 20          # steps per iwae-study task
    iwavb_steps: int = 6          # steps per iwavb-study task
    vae_steps: int = 150          # steps per fit in a vae-pipeline task
    replications: int = 2
    pipeline_factors: int = 2     # P of vae-pipeline (see VaePipeline)
    setup_fit_steps: int = 2      # heldout-r5000 set-up fits
    r_eval: int = 5000
    heldout_respondents: int = 25  # of the 125 holdout respondents


class Tally:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, message: str, attempted: int = 1) -> None:
        self.attempted += attempted
        self.failed += 1
        self.errors.append(message)


def step_stats(intervals_ms: list[float]) -> dict:
    n = len(intervals_ms)
    p50, p90 = np.percentile(intervals_ms, [50, 90]) if n else (math.nan, math.nan)
    return {"step_ms.p50": float(p50), "step_ms.p90": float(p90),
            "step_samples": n,
            "step_samples_beyond_p90": n - math.ceil(0.9 * n)}


def _design(sizes: Sizes, seed: int) -> simlab.SimDesign:
    return simlab.SimDesign(n_respondents=sizes.n_respondents, n_items=sizes.n_items,
                            n_factors=sizes.n_factors,
                            categories=sizes.categories, seed=seed)


def _config(sizes: Sizes, estimator: str, steps: int, seed: int) -> fitting.FitConfig:
    # patience and window exceed the step count, so every fit runs exactly
    # `steps` iterations
    return fitting.FitConfig(estimator=estimator, n_factors=sizes.n_factors,
                             R=1 if estimator == "VAE" else sizes.R,
                             batch_size=sizes.batch_size, max_iterations=steps,
                             window=steps + 1, patience=10 ** 9, seed=seed)


class StepClock:
    """`fit` step_callback that keeps one timestamp per finished step."""

    def __init__(self):
        self.stamps: list[float] = []

    def __call__(self, state, t) -> None:
        self.stamps.append(time.perf_counter())

    def intervals_ms(self) -> list[float]:
        s = self.stamps
        return [(b - a) * 1000.0 for a, b in zip(s, s[1:])]


def _median_ms(fn, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def isolated_fwd_bwd(state: fitting.FitState, x: np.ndarray, feats: np.ndarray,
                     tile: int) -> dict[str, float]:
    """Forward plus backward of one layer alone on a fresh Tape, at the
    step's shapes: B respondents, `tile` rows each.  The whole-step backward
    cannot be split by layer from outside, so each layer is rebuilt alone."""
    rng = np.random.default_rng(0)
    b = x.shape[0]
    P = state.encoder.latent_dim
    feats_t = np.repeat(feats, tile, axis=0)
    z = rng.standard_normal((b * tile, P))
    gelu_in = rng.standard_normal((b * tile, max(_hidden_widths(state))))

    def gelu():
        tape = dk.Tape()
        h = dk.parameter(gelu_in)
        tape.backward(dk.tsum(tape, dk.gelu(tape, h)))

    def decoder():
        tape = dk.Tape()
        eff = state.params.effective(tape)
        sel = grm.response_selectors(x, state.params.categories)
        logp = grm.joint_logprob(tape, eff, dk.const(z), sel, tile=tile)
        tape.backward(dk.tsum(tape, logp))

    def encoder():
        tape = dk.Tape()
        enc = state.encoder
        if isinstance(enc, nets.GaussianEncoder):
            out = enc.encode(tape, dk.const(feats_t), dk.const(z))[0]
        else:
            out = enc.encode(tape, dk.const(feats_t),
                             dk.const(rng.standard_normal((b * tile, enc.noise_dim))))
        tape.backward(dk.tsum(tape, out))

    def disc():
        tape = dk.Tape()
        tape.backward(dk.tsum(tape, state.disc.forward(tape, dk.const(feats_t), dk.const(z))))

    out = {"diffkernel.gelu_fwd_bwd_ms": _median_ms(gelu),
           "grm.decoder_fwd_bwd_ms": _median_ms(decoder),
           "nets.encoder_fwd_bwd_ms": _median_ms(encoder),
           "nets.disc_fwd_bwd_ms": _median_ms(disc) if state.disc is not None else 0.0}
    for group in (state.opt_theta, state.opt_phi, state.opt_psi):
        if group is not None:
            group.zero_grad()
    return out


def _hidden_widths(state: fitting.FitState) -> list[int]:
    enc = state.encoder
    if isinstance(enc, nets.GaussianEncoder):
        widths = [layer.fan_out for layer in enc.trunk.layers]   # GELU follows the trunk
    else:
        widths = [layer.fan_out for layer in enc.net.layers[:-1]]
    if state.disc is not None:
        widths += [layer.fan_out for layer in state.disc.net.layers[:-1]]
    return widths


class Workload:
    name = ""

    def __init__(self, sizes: Sizes, seed: int, work_dir: Path):
        self.sizes = sizes
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        """Generate the inputs and initial state; run several times."""
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def task(self, tally: Tally):
        raise NotImplementedError

    def check(self, results: list) -> list[str]:
        """Errors found in the task outcomes (None marks a failed task)."""
        return []

    def report(self, done: list) -> dict:
        """Issue-level figures from the successful untraced tasks."""
        return {}

    def microbench(self) -> dict[str, float]:
        return {"diffkernel.gelu_fwd_bwd_ms": 0.0, "grm.decoder_fwd_bwd_ms": 0.0,
                "nets.encoder_fwd_bwd_ms": 0.0, "nets.disc_fwd_bwd_ms": 0.0}

    def close(self) -> None:
        pass


class StudyWorkload(Workload):
    """Training at study size for a fixed number of steps per task."""

    estimator = ""

    def steps(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        truth = simlab.simulate(_design(self.sizes, self.seed))
        self.responses = truth.responses
        self.config = _config(self.sizes, self.estimator, self.steps(), self.seed)
        self.state, self.feats, _ = fitting.init_state(self.responses, self.config)

    def warm_up(self) -> None:
        fitting.fit(self.responses, _config(self.sizes, self.estimator, 3, self.seed))

    def task(self, tally: Tally):
        clock = StepClock()
        t0 = time.perf_counter()
        try:
            result = fitting.fit(self.responses, self.config, step_callback=clock)
        except FAILURES as err:
            tally.fail(f"fit: {type(err).__name__}: {err}", attempted=len(clock.stamps) + 1)
            return None
        seconds = time.perf_counter() - t0
        tally.ok(len(clock.stamps))
        return {"seconds": seconds, "steps_ms": clock.intervals_ms(),
                "iw_elbo": result.trace["batch_iw_elbo"]}

    def check(self, results: list) -> list[str]:
        done = [r for r in results if r is not None]
        errors = []
        for r in done:
            if len(r["iw_elbo"]) != self.steps():
                errors.append(f"fit ran {len(r['iw_elbo'])} steps, expected {self.steps()}")
            if not all(math.isfinite(v) for v in r["iw_elbo"]):
                errors.append("non-finite batch IW-ELBO in the trace")
        if any(r["iw_elbo"] != done[0]["iw_elbo"] for r in done[1:]):
            errors.append("repeated seeded fits gave different IW-ELBO traces")
        return errors

    def report(self, done: list) -> dict:
        steps = [v for r in done for v in r["steps_ms"]]
        return {"fit_s": statistics.median(r["seconds"] for r in done), **step_stats(steps)}

    def microbench(self) -> dict[str, float]:
        b = min(self.sizes.batch_size, self.responses.n_respondents)
        return isolated_fwd_bwd(self.state, self.responses.data[:b], self.feats[:b],
                                self.config.R * self.config.S)


class IwaeStudy(StudyWorkload):
    name = "iwae-study"
    estimator = "IWAE"

    def steps(self) -> int:
        return self.sizes.iwae_steps


class IwavbStudy(StudyWorkload):
    name = "iwavb-study"
    estimator = "IWAVB"

    def steps(self) -> int:
        return self.sizes.iwavb_steps


class HeldoutR5000(Workload):
    """Importance-sampled heldout log-likelihood of an IWAE fit (exact
    encoder density) and an IWAVB fit (discriminator density surrogate)."""

    name = "heldout-r5000"

    def setup(self) -> None:
        sizes = self.sizes
        truth = simlab.simulate(_design(sizes, self.seed))
        train, holdout = fitting.split_holdout(sizes.n_respondents, 0.25, self.seed)
        self.holdout = truth.responses.subset(holdout[:sizes.heldout_respondents])
        train_set = truth.responses.subset(train)
        self.fits = {}
        for est in ("IWAE", "IWAVB"):
            config = _config(sizes, est, sizes.setup_fit_steps, self.seed)
            self.fits[est] = fitting.fit(train_set, config)

    def warm_up(self) -> None:
        # the first call pays for fresh pages of its large temporaries
        self.task(Tally())

    def _heldout(self, est: str):
        fit = self.fits[est]
        return estimators.heldout_loglik(
            self.holdout, fit.params, fit.encoder, substream(self.seed, "heldout-eval"),
            R_eval=self.sizes.r_eval, disc=fit.disc, adaptive_contrast=est == "IWAVB")

    def task(self, tally: Tally):
        out = {"seconds": 0.0}
        for est, key in (("IWAE", "gaussian"), ("IWAVB", "surrogate")):
            t0 = time.perf_counter()
            try:
                report = self._heldout(est)
            except FAILURES as err:
                tally.fail(f"heldout {est}: {type(err).__name__}: {err}")
                return None
            seconds = time.perf_counter() - t0
            tally.ok()
            out["seconds"] += seconds
            out[key + "_s"] = seconds
            out[key] = report
        return out

    def check(self, results: list) -> list[str]:
        done = [r for r in results if r is not None]
        errors = []
        for r in done:
            for key, surrogate in (("gaussian", False), ("surrogate", True)):
                rep = r[key]
                if not np.all(np.isfinite(rep.per_respondent)):
                    errors.append(f"non-finite {key} heldout estimate")
                if rep.surrogate_density != surrogate:
                    errors.append(f"{key} fit reported surrogate_density={rep.surrogate_density}")
                if rep.n_respondents != self.holdout.n_respondents:
                    errors.append(f"{key} heldout covered {rep.n_respondents} respondents")
                if not np.array_equal(rep.per_respondent, done[0][key].per_respondent):
                    errors.append(f"repeated seeded {key} heldout calls disagree")
        return errors

    def report(self, done: list) -> dict:
        return {"heldout_gaussian_s": statistics.median(r["gaussian_s"] for r in done),
                "heldout_surrogate_s": statistics.median(r["surrogate_s"] for r in done),
                "heldout_calls": 2 * len(done)}


class VaePipeline(Workload):
    """The study pipeline through the CLI: simulate, fit VAE per
    replication, eval with geomin alignment (exploratory fit, P >= 2).

    Geomin runs to convergence from 30 starts, so eval's cost depends on the
    data.  Task i therefore simulates design variant i mod VARIANTS, all
    derived from the workload seed, and a run's median covers several
    datasets.  P is pipeline_factors, not the study's 5: at P=5 the rotation
    of the true loadings alone takes 0.4 to 1.2 s per fit, depending on the
    data, and would swamp everything else the pipeline does."""

    name = "vae-pipeline"
    VARIANTS = 8

    def __init__(self, sizes: Sizes, seed: int, work_dir: Path):
        super().__init__(replace(sizes, n_factors=sizes.pipeline_factors), seed, work_dir)
        self.tasks_run = 0

    def setup(self) -> None:
        sizes = self.sizes
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.design_paths = []
        for v in range(self.VARIANTS):
            design = (_design(sizes, self.VARIANTS * self.seed + v).to_dict()
                      | {"n_replications": sizes.replications})
            path = self.work_dir / f"design{v}.json"
            path.write_text(json.dumps(design))
            self.design_paths.append(path)
        config = _config(sizes, "VAE", sizes.vae_steps, self.seed)
        self.config_path = self.work_dir / "config.json"
        self.config_path.write_text(json.dumps(config.to_dict()))
        self.config = config
        self.responses = simlab.simulate(_design(sizes, self.VARIANTS * self.seed)).responses
        b = min(sizes.batch_size, sizes.n_respondents)
        self.state, feats, _ = fitting.init_state(self.responses, config)
        self.batch = (self.responses.data[:b], feats[:b])

    def _main(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm_up(self) -> None:
        fitting.fit(self.responses, self.config)

    def task(self, tally: Tally):
        w = self.work_dir
        sims, fits, eval_path = w / "sims", w / "fits", w / "eval.json"
        clocks, fit_seconds = [], []
        real_fit = cli.fit

        def timed_fit(responses, config):
            clock = StepClock()
            clocks.append(clock)
            t0 = time.perf_counter()
            try:
                # looked up at call time, so a traced run sees its wrapper
                return fitting.fit(responses, config, step_callback=clock)
            finally:
                fit_seconds.append(time.perf_counter() - t0)

        variant = self.tasks_run % self.VARIANTS
        self.tasks_run += 1
        commands = [["simulate", "--design", str(self.design_paths[variant]), "--out", str(sims),
                     "--jobs", "1"]]
        commands += [["fit", "--config", str(self.config_path),
                      "--responses", str(sims / f"responses_rep{rep:03d}.csv"),
                      "--out", str(fits / f"rep{rep:03d}")]
                     for rep in range(self.sizes.replications)]
        commands += [["eval", "--fits", str(fits), "--truths", str(sims),
                      "--out", str(eval_path)]]
        t0 = time.perf_counter()
        cli.fit = timed_fit
        try:
            for argv in commands:
                try:
                    code = self._main(argv)
                except FAILURES as err:
                    tally.fail(f"{argv[0]}: {type(err).__name__}: {err}")
                    return None
                if code != 0:
                    tally.fail(f"{argv[0]} exited {code}")
                    return None
                tally.ok()
        finally:
            cli.fit = real_fit
        seconds = time.perf_counter() - t0
        digests = [hashlib.sha256((fits / f"rep{rep:03d}" / "fit.json").read_bytes()).hexdigest()
                   for rep in range(self.sizes.replications)]
        steps = [v for c in clocks for v in c.intervals_ms()]
        tally.ok(sum(len(c.stamps) for c in clocks))
        return {"seconds": seconds, "fit_s": fit_seconds, "steps_ms": steps, "variant": variant,
                "fit_digests": digests, "eval": json.loads(eval_path.read_text())}

    def check(self, results: list) -> list[str]:
        first = {}
        errors = []
        for r in results:
            if r is None:
                continue
            if r["eval"]["n_replications"] != self.sizes.replications:
                errors.append(f"eval scored {r['eval']['n_replications']} replications")
            for name, block in r["eval"]["blocks"].items():
                if not all(math.isfinite(v) for v in block.values()):
                    errors.append(f"eval block {name} is not finite")
            if r["fit_digests"] != first.setdefault(r["variant"], r["fit_digests"]):
                errors.append("repeated seeded pipelines wrote different fit.json bytes")
        return errors

    def report(self, done: list) -> dict:
        steps = [v for r in done for v in r["steps_ms"]]
        return {"pipeline_s": statistics.median(r["seconds"] for r in done),
                "fit_s": statistics.median(v for r in done for v in r["fit_s"]),
                **step_stats(steps)}

    def microbench(self) -> dict[str, float]:
        x, feats = self.batch
        return isolated_fwd_bwd(self.state, x, feats, 1)

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (IwaeStudy, IwavbStudy, HeldoutR5000, VaePipeline)}
