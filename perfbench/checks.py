"""Behaviour fingerprints, checked outside the timed region of every run.

The inputs are fixed (seed 0, small designs), so the measured values are
compared against the references and tolerances in fingerprints.json:

* the batch IW-ELBO after 20 seeded steps of VAE, IWAE, AVB and IWAVB;
* heldout_loglik minus the Gauss-Hermite quadrature marginal, per
  respondent, on a P=1 and a P=2 design; the importance-sampled estimate of
  an exact-density fit may not exceed the marginal by more than MC slack;
* two identical seeded fits writing the same fit.json bytes.

A speed-up that moves a fingerprint beyond its tolerance is a behaviour
change, not a speed-up.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import numpy as np

from gradedvi import cli, estimators, fitting, simlab
from gradedvi.rngutil import substream

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")


def _fit_config(estimator: str, n_factors: int, **kw) -> fitting.FitConfig:
    doc = dict(estimator=estimator, n_factors=n_factors,
               R=1 if estimator == "VAE" else 5, batch_size=32, max_iterations=20,
               window=1000, patience=10 ** 9, encoder_hidden=[16],
               disc_hidden=[16, 16], seed=0)
    return fitting.FitConfig(**(doc | kw))


def iw_elbo_after_20_steps() -> dict[str, float]:
    responses = simlab.simulate(simlab.SimDesign(
        n_respondents=64, n_items=8, n_factors=2, categories=4, seed=0)).responses
    return {est: fitting.fit(responses, _fit_config(est, 2)).trace["batch_iw_elbo"][-1]
            for est in ("VAE", "IWAE", "AVB", "IWAVB")}


def heldout_minus_quadrature() -> tuple[dict[str, float], float]:
    """Mean per-respondent gap for P=1 and P=2, and the quadrature seconds."""
    gaps, quad_s = {}, 0.0
    for P in (1, 2):
        responses = simlab.simulate(simlab.SimDesign(
            n_respondents=40, n_items=6, n_factors=P, categories=3, seed=0)).responses
        result = fitting.fit(responses, _fit_config("IWAE", P, batch_size=40,
                                                    max_iterations=30))
        report = estimators.heldout_loglik(responses, result.params, result.encoder,
                                           substream(0, "heldout-eval"), R_eval=2000)
        t0 = time.perf_counter()
        exact = estimators.marginal_loglik_quadrature(responses, result.params.values())
        quad_s += time.perf_counter() - t0
        gaps[f"P{P}"] = float(np.mean(report.per_respondent - exact))
    return gaps, quad_s


def fit_json_bytes_identical(work_dir: Path) -> bool:
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        responses_path = work_dir / "responses.csv"
        simlab.write_responses_csv(responses_path, simlab.simulate(simlab.SimDesign(
            n_respondents=48, n_items=6, n_factors=2, categories=3, seed=0)).responses)
        config = _fit_config("IWAVB", 2, max_iterations=10)
        paths = [cli.run_fit(responses_path, config, work_dir / f"run{i}")[0] for i in (0, 1)]
        return paths[0].read_bytes() == paths[1].read_bytes()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(work_dir: Path) -> tuple[dict, float]:
    """All fingerprints, plus the seconds spent in the quadrature oracle."""
    gaps, quad_s = heldout_minus_quadrature()
    return {"iw_elbo_after_20_steps": iw_elbo_after_20_steps(),
            "heldout_minus_quadrature": gaps,
            "fit_json_bytes_identical": fit_json_bytes_identical(work_dir)}, quad_s


def compare(measured: dict, reference: dict) -> list[tuple[str, str | None]]:
    """(check name, failure message or None) for every check."""
    out = []
    for group in ("iw_elbo_after_20_steps", "heldout_minus_quadrature"):
        ref = reference[group]
        for key, want in ref["values"].items():
            got = measured[group][key]
            msg = None
            if not abs(got - want) <= ref["tolerance_abs"]:
                msg = f"{got!r} differs from {want!r} by more than {ref['tolerance_abs']}"
            elif got > ref.get("max_value", float("inf")):
                msg = f"{got!r} exceeds {ref['max_value']}"
            out.append((f"{group}.{key}", msg))
    same = measured["fit_json_bytes_identical"]
    out.append(("fit_json_bytes_identical",
                None if same else "two identical seeded fits wrote different fit.json bytes"))
    return out


def load_reference() -> dict:
    return json.loads(FINGERPRINTS.read_text())
