"""fit.json files from before adaptive contrast followed the estimator,
before the dreg switch was retired, and before layers lost their activation
tags, still load and evaluate the same; and every network's output follows
from its fit.json weights by the layer position rule.

tests/data/parent_fit holds what commit 06973a1 wrote:
* responses.csv: SimDesign(n_respondents=24, n_items=6, n_factors=2,
  categories=3, seed=11) with entry (3, 2) set missing;
* fit_iwae.json and fit_iwavb.json: `cli.run_fit` on it with
  FitConfig(estimator=..., n_factors=2, R=3, batch_size=12, max_iterations=6,
  window=100, patience=10, encoder_hidden=[6], disc_hidden=[6], seed=11).
  Their configs hold "adaptive_contrast": null and "dreg": true, and every
  layer an "activation" tag; the Gaussian trunk's last layer is tagged
  "identity", though GELU ran there;
* heldout_per_respondent.json: `heldout_loglik` of each fit on all 24
  respondents at R_eval=64 with the fit's "heldout-eval" substream.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from gradedvi import cli
from gradedvi.estimators import heldout_loglik
from gradedvi.nets import encode_responses
from gradedvi.rngutil import substream
from gradedvi.simlab import read_responses_csv

DATA = Path(__file__).parent / "data" / "parent_fit"
ESTIMATORS = pytest.mark.parametrize("estimator", ["IWAE", "IWAVB"])


def gelu_np(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def _fit_path(estimator: str) -> Path:
    return DATA / f"fit_{estimator.lower()}.json"


def _by_position(layers: list[dict], h: np.ndarray, gelu_output: bool = False) -> np.ndarray:
    """The layers of a fit.json network on h: GELU after every layer but the
    last, and after the last too when gelu_output."""
    for i, layer in enumerate(layers):
        h = h @ np.asarray(layer["weight"]) + np.asarray(layer["bias"])
        if gelu_output or i < len(layers) - 1:
            h = gelu_np(h)
    return h


@ESTIMATORS
def test_old_file_gives_bit_identical_heldout(estimator):
    doc = json.loads(_fit_path(estimator).read_text())
    assert doc["config"]["adaptive_contrast"] is None and doc["config"]["dreg"] is True
    enc = doc["networks"]["encoder"]
    assert all("activation" in layer
               for layer in enc["trunk" if enc["kind"] == "gaussian" else "net"]["layers"])
    params, encoder, disc, config = cli.load_fit_bundle(_fit_path(estimator))
    assert config.estimator == estimator
    responses = read_responses_csv(DATA / "responses.csv")
    report = heldout_loglik(responses, params, encoder, substream(config.seed, "heldout-eval"),
                            R_eval=64, disc=disc, adaptive_contrast=estimator == "IWAVB")
    expected = json.loads((DATA / "heldout_per_respondent.json").read_text())[estimator]
    np.testing.assert_array_equal(report.per_respondent, np.asarray(expected))


@ESTIMATORS
def test_outputs_follow_the_position_rule(estimator):
    doc = json.loads(_fit_path(estimator).read_text())
    _, encoder, disc, _ = cli.load_fit_bundle(_fit_path(estimator))
    responses = read_responses_csv(DATA / "responses.csv")
    x, _ = encode_responses(responses.data, responses.categories)
    enc_doc = doc["networks"]["encoder"]
    if estimator == "IWAE":
        h = _by_position(enc_doc["trunk"]["layers"], x, gelu_output=True)
        got_mu, got_sigma = encoder.heads_values(x)
        np.testing.assert_allclose(got_mu, _by_position([enc_doc["mean_head"]], h),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_sigma, np.exp(_by_position([enc_doc["log_std_head"]], h)),
                                   rtol=0, atol=1e-12)
    else:
        t = 2
        eps = np.random.default_rng(0).standard_normal((x.shape[0] * t, enc_doc["noise_dim"]))
        z = _by_position(enc_doc["net"]["layers"], np.hstack([np.repeat(x, t, 0), eps]))
        np.testing.assert_allclose(encoder.encode_values(x, eps), z, rtol=0, atol=1e-12)
        logit = _by_position(doc["networks"]["discriminator"]["net"]["layers"],
                             np.hstack([np.repeat(x, t, 0), z]))
        np.testing.assert_allclose(disc.forward_values(x, z), logit, rtol=0, atol=1e-12)
