"""Ground-truth generation for the simulation studies plus recovery metrics.

Designs cover the confirmatory normal-latent study (simple structure,
log-normal loadings, LKJ factor correlations) and the multimodal study
(three-component Gaussian mixture latents).  Everything is driven by one
seed through named substreams, so a design is a pure function of its seed:
the true parameters are fixed per design, and each replication draws its own
latents and responses.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .grm import MISSING, GrmValues, ResponseMatrix, category_probs, simple_structure_mask
from .rngutil import substream


class DesignError(ValueError):
    """Invalid simulation design."""


@dataclass
class LatentSpec:
    kind: str = "normal"                      # "normal" | "mixture"
    weights: tuple = (0.4, 0.2, 0.4)
    means: tuple = (-1.5, 0.0, 1.5)
    var: float = 0.5

    def validate(self):
        if self.kind not in ("normal", "mixture"):
            raise DesignError(f"latent kind {self.kind!r}")
        if self.kind == "mixture":
            if len(self.weights) != len(self.means):
                raise DesignError("mixture weights and means must pair up")
            if abs(sum(self.weights) - 1.0) > 1e-12:
                raise DesignError("mixture weights must sum to 1")
            if self.var <= 0:
                raise DesignError("mixture component variance must be > 0")


@dataclass
class SimDesign:
    n_respondents: int = 500
    n_items: int = 50
    n_factors: int = 5
    categories: int | list = 5
    structure: str = "simple"                 # "simple" | "none"
    latent: LatentSpec = field(default_factory=LatentSpec)
    lkj_eta: float = 1.0
    seed: int = 0

    def validate(self):
        for name in ("n_respondents", "n_items", "n_factors", "seed"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
                raise DesignError(f"{name} must be an integer, got {value!r}")
        if self.n_respondents < 1 or self.n_items < 1 or self.n_factors < 1:
            raise DesignError("N, M, P must all be >= 1")
        cats = np.asarray(self.categories)
        if cats.dtype.kind not in "iu":
            raise DesignError(f"categories must be integers, got {self.categories!r}")
        if cats.ndim == 0:
            cats = np.full(self.n_items, int(cats))
        if cats.shape != (self.n_items,) or np.any(cats < 2):
            raise DesignError("categories must be a scalar >= 2 or one count per item")
        if self.structure == "simple" and self.n_items % self.n_factors != 0:
            raise DesignError("simple structure requires P | M")
        if self.structure not in ("simple", "none"):
            raise DesignError(f"structure {self.structure!r}")
        if self.lkj_eta <= 0:
            raise DesignError("lkj_eta must be > 0")
        self.latent.validate()

    def categories_array(self) -> np.ndarray:
        cats = np.asarray(self.categories)
        if cats.ndim == 0:
            cats = np.full(self.n_items, int(cats))
        return cats.astype(np.int64)

    def loading_mask(self) -> np.ndarray:
        if self.structure == "simple":
            return simple_structure_mask(self.n_items, self.n_factors)
        return np.ones((self.n_items, self.n_factors))

    def to_dict(self) -> dict:
        return {
            "n_respondents": self.n_respondents, "n_items": self.n_items,
            "n_factors": self.n_factors,
            "categories": (self.categories if np.isscalar(self.categories)
                           else list(self.categories)),
            "structure": self.structure,
            "latent": {"kind": self.latent.kind, "weights": list(self.latent.weights),
                       "means": list(self.latent.means), "var": self.latent.var},
            "lkj_eta": self.lkj_eta, "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SimDesign":
        doc = dict(doc)
        lat = doc.pop("latent", None)
        latent = LatentSpec(**{k: tuple(v) if isinstance(v, list) else v
                               for k, v in lat.items()}) if lat else LatentSpec()
        known = {"n_respondents", "n_items", "n_factors", "categories",
                 "structure", "lkj_eta", "seed"}
        unknown = set(doc) - known
        if unknown:
            raise DesignError(f"unknown design keys: {sorted(unknown)}")
        return cls(latent=latent, **doc)


@dataclass
class SimTruth:
    values: GrmValues
    latents: np.ndarray
    responses: ResponseMatrix
    loading_mask: np.ndarray


def sample_lkj(dim: int, eta: float, rng: np.random.Generator) -> np.ndarray:
    """Correlation matrix from the LKJ distribution via the onion method."""
    if dim < 2:
        raise ValueError("sample_lkj needs dim >= 2")
    if eta <= 0:
        raise ValueError("eta must be > 0")
    beta = eta + (dim - 2) / 2.0
    u = rng.beta(beta, beta)
    r12 = 2.0 * u - 1.0
    chol = np.zeros((dim, dim))
    chol[0, 0] = 1.0
    chol[1, 0] = r12
    chol[1, 1] = np.sqrt(1.0 - r12 ** 2)
    for m in range(2, dim):
        beta -= 0.5
        y = rng.beta(m / 2.0, beta)
        v = rng.standard_normal(m)
        v /= np.linalg.norm(v)
        chol[m, :m] = np.sqrt(y) * v
        chol[m, m] = np.sqrt(1.0 - y)
    corr = chol @ chol.T
    np.fill_diagonal(corr, 1.0)
    return corr


def _lkj_or_identity(dim: int, eta: float, rng: np.random.Generator) -> np.ndarray:
    return sample_lkj(dim, eta, rng) if dim >= 2 else np.eye(max(dim, 1))


def sample_true_params(design: SimDesign, rng: np.random.Generator) -> tuple[GrmValues, np.ndarray]:
    """Log-normal loadings on the masked-in pattern, intercepts drawn from a
    correlated normal and sorted into the strict boundary order, factor
    correlation from LKJ."""
    M, P = design.n_items, design.n_factors
    mask = design.loading_mask()
    loadings = np.exp(rng.normal(0.0, np.sqrt(0.5), size=(M, P))) * mask
    cats = design.categories_array()
    intercepts = []
    for j in range(M):
        d = cats[j] - 1
        cov = _lkj_or_identity(d, design.lkj_eta, rng)
        draw = rng.multivariate_normal(np.zeros(d), cov) if d >= 2 else rng.normal(size=1)
        # boundary model sigma(beta'z + alpha_k): strictly decreasing alphas
        intercepts.append(-np.sort(-draw))
    corr = _lkj_or_identity(P, design.lkj_eta, rng)
    return GrmValues(loadings=loadings, intercepts=intercepts, factor_corr=corr), mask


def sample_latents(design: SimDesign, factor_corr: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    N, P = design.n_respondents, design.n_factors
    spec = design.latent
    chol = np.linalg.cholesky(factor_corr)
    base = rng.standard_normal((N, P)) @ chol.T
    if spec.kind == "normal":
        return base
    comp = rng.choice(len(spec.weights), size=N, p=np.asarray(spec.weights))
    means = np.asarray(spec.means)[comp][:, None]
    return means + np.sqrt(spec.var) * base


def sample_responses(values: GrmValues, latents: np.ndarray,
                     categories: np.ndarray, rng: np.random.Generator) -> ResponseMatrix:
    """Categorical draws from the category probabilities at the truth."""
    probs = category_probs(latents, values)
    u = rng.uniform(size=(latents.shape[0], values.n_items, 1))
    x = (probs.cumsum(axis=2) < u).sum(axis=2)
    return ResponseMatrix(x, categories)


def simulate(design: SimDesign, replication: int = 0) -> SimTruth:
    """Deterministic (design, seed, replication) -> truth pipeline.

    Everything comes from the design seed.  The true parameters are shared
    by every replication of a design; each replication draws its latents and
    responses from substreams labelled with its number ("latents-rep1", ...),
    so no replication repeats another design's draws.  Replication 0 keeps
    the plain labels "latents" and "responses".
    """
    design.validate()
    values, mask = sample_true_params(design, substream(design.seed, "true-params"))
    suffix = f"-rep{replication}" if replication else ""
    latents = sample_latents(design, values.factor_corr,
                             substream(design.seed, "latents" + suffix))
    responses = sample_responses(values, latents, design.categories_array(),
                                 substream(design.seed, "responses" + suffix))
    return SimTruth(values=values, latents=latents, responses=responses, loading_mask=mask)


# ---------------------------------------------------------------------------
# recovery metrics


@dataclass
class BlockMetric:
    mse: float
    bias: float

    def to_dict(self):
        return {"mse": self.mse, "bias": self.bias}


def _block_mse_bias(estimates: list[np.ndarray], truth: np.ndarray) -> BlockMetric:
    stack = np.stack([np.asarray(e, dtype=np.float64) for e in estimates])
    err = stack - truth[None, ...]
    per_entry_mse = (err ** 2).mean(axis=0)
    per_entry_bias = err.mean(axis=0)
    return BlockMetric(mse=float(per_entry_mse.mean()), bias=float(per_entry_bias.mean()))


def intercept_stack(values: GrmValues) -> np.ndarray:
    """Flat vector of all intercepts (items concatenated)."""
    return np.concatenate(values.intercepts)


def mse_bias(estimates: list[GrmValues], truth: GrmValues) -> dict[str, BlockMetric]:
    """Per-block MSE and bias over replications (estimates already aligned)."""
    if not estimates:
        raise ValueError("need at least one replication")
    report = {
        "loadings": _block_mse_bias([e.loadings for e in estimates], truth.loadings),
        "intercepts": _block_mse_bias([intercept_stack(e) for e in estimates],
                                      intercept_stack(truth)),
    }
    p = truth.n_factors
    if p >= 2:
        iu = np.triu_indices(p, k=1)
        report["correlations"] = _block_mse_bias(
            [e.factor_corr[iu] for e in estimates], truth.factor_corr[iu])
    return report


# ---------------------------------------------------------------------------
# file formats


def write_responses_csv(path, responses: ResponseMatrix) -> None:
    """Header item_1..item_M, one row per respondent, empty cell = missing."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"item_{j + 1}" for j in range(responses.n_items)])
        for row in responses.data:
            writer.writerow(["" if v == MISSING else int(v) for v in row])


def read_responses_csv(path, categories=None) -> ResponseMatrix:
    """Read a responses CSV; category counts default to max+1 per item."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[MISSING if cell == "" else int(cell) for cell in row]
                for row in reader if row]
    data = np.asarray(rows, dtype=np.int64)
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ValueError(f"malformed responses CSV {path}")
    if categories is None:
        categories = np.maximum(data.max(axis=0) + 1, 2)
    return ResponseMatrix(data, categories)


def truth_to_dict(truth: SimTruth) -> dict:
    return {
        "schema_version": 1,
        "loadings": truth.values.loadings.tolist(),
        "intercepts": [a.tolist() for a in truth.values.intercepts],
        "factor_corr": truth.values.factor_corr.tolist(),
        "loading_mask": truth.loading_mask.tolist(),
        "latents": truth.latents.tolist(),
    }


def truth_from_dict(doc: dict) -> tuple[GrmValues, np.ndarray]:
    values = GrmValues(loadings=np.asarray(doc["loadings"]),
                       intercepts=[np.asarray(a) for a in doc["intercepts"]],
                       factor_corr=np.asarray(doc["factor_corr"]))
    return values, np.asarray(doc["loading_mask"])


def write_truth_json(path, truth: SimTruth) -> None:
    with open(path, "w") as fh:
        json.dump(truth_to_dict(truth), fh, sort_keys=True)


def read_truth_json(path) -> tuple[GrmValues, np.ndarray]:
    with open(path) as fh:
        return truth_from_dict(json.load(fh))
