"""Graded response decoder: ordered-category probabilities, conditional and
joint log-likelihoods, and the constrained trainable parameterization.

The constrained map from raw leaves to loadings, intercepts and the factor
correlation exists once, as `GrmParams.effective` on the tape;
`GrmParams.values` runs it without a tape.  The training likelihood
(`conditional_loglik`, `joint_logprob`) is a logit matmul plus one fused
`diffkernel.ordinal_loglik` node that gathers each respondent's category
boundaries once and broadcasts them over that respondent's latent draws.
The plain-array likelihood (`*_values` functions plus
`category_probs`/`category_logprob`) backs data generation, quadrature
oracles and heldout evaluation; a parity test keeps it equal to the fused
op.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import diffkernel as dk
from .diffkernel import Tape, Tensor2
from .rngutil import substream

MISSING = -1

_LOG_2PI = float(np.log(2.0 * np.pi))
_PROB_FLOOR = 1e-300
_GAP = 1e-6  # strict minimum spacing between consecutive intercepts


class DataError(ValueError):
    """Invalid response data."""


def softplus_inv(y):
    """Inverse of softplus (`diffkernel.log1p_exp`) for strictly positive y."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0.0):
        raise ValueError("softplus_inv requires strictly positive input")
    # log(e^y - 1), stable for large y
    return np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))


class ResponseMatrix:
    """N x M ordinal responses; entry in {0..C_j-1} or MISSING."""

    def __init__(self, data, categories):
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DataError(f"response matrix must be 2-D and nonempty, got shape {arr.shape}")
        cats = np.asarray(categories, dtype=np.int64)
        if cats.ndim == 0:
            cats = np.full(arr.shape[1], int(cats))
        if cats.shape != (arr.shape[1],):
            raise DataError(f"need one category count per item, got {cats.shape}")
        if np.any(cats < 2):
            raise DataError("every item needs at least 2 categories")
        valid = (arr == MISSING) | ((arr >= 0) & (arr < cats[None, :]))
        if not valid.all():
            i, j = np.argwhere(~valid)[0]
            raise DataError(
                f"response {arr[i, j]} at ({i}, {j}) outside 0..{cats[j] - 1}")
        self.data = arr
        self.categories = cats

    @property
    def n_respondents(self) -> int:
        return self.data.shape[0]

    @property
    def n_items(self) -> int:
        return self.data.shape[1]

    @property
    def max_categories(self) -> int:
        return int(self.categories.max())

    def has_missing(self) -> bool:
        return bool((self.data == MISSING).any())

    def subset(self, rows) -> "ResponseMatrix":
        return ResponseMatrix(self.data[rows], self.categories)


@dataclass
class GrmValues:
    """Effective (reconstructed) decoder values, plain arrays."""

    loadings: np.ndarray            # (M, P)
    intercepts: list[np.ndarray]    # per item, (C_j - 1,) strictly increasing
    factor_corr: np.ndarray         # (P, P) correlation matrix

    @property
    def n_items(self) -> int:
        return self.loadings.shape[0]

    @property
    def n_factors(self) -> int:
        return self.loadings.shape[1]

    def intercept_matrix(self, max_categories: int | None = None) -> np.ndarray:
        """Padded (M, maxC-1) matrix; entries past C_j-1 hold -inf so the
        corresponding boundary probability is exactly zero."""
        maxc = max_categories or (max(len(a) for a in self.intercepts) + 1)
        out = np.full((self.n_items, maxc - 1), -np.inf)
        for j, a in enumerate(self.intercepts):
            out[j, : len(a)] = a
        return out


class GrmParams:
    """Trainable decoder parameters with structural constraints built in.

    The boundary model is P(x >= k) = sigmoid(beta^T z + alpha_k), so the
    intercepts must be strictly decreasing in k for every category
    probability to stay positive.  That ordering is enforced by
    construction:
        alpha_{j,1} = base_j
        alpha_{j,k} = alpha_{j,k-1} - softplus(raw increment) - 1e-6
    Loadings are masked by the confirmatory pattern and, when positivity is
    requested, passed through softplus.  The factor correlation is
    Sigma = L L^T with L a row-normalized lower-triangular Cholesky factor
    whose diagonal is softplus-positive, so Sigma always has a unit diagonal.
    """

    def __init__(self, loadings_raw: Tensor2, intercept_base: Tensor2,
                 intercept_incr_raw: list[Tensor2], chol_raw: Tensor2,
                 loading_mask: np.ndarray, categories: np.ndarray,
                 loading_positivity: bool):
        self.loadings_raw = loadings_raw
        self.intercept_base = intercept_base
        self.intercept_incr_raw = intercept_incr_raw
        self.chol_raw = chol_raw
        self.loading_mask = np.asarray(loading_mask, dtype=np.float64)
        self.categories = np.asarray(categories, dtype=np.int64)
        self.loading_positivity = bool(loading_positivity)

    @property
    def n_items(self) -> int:
        return self.loadings_raw.rows

    @property
    def n_factors(self) -> int:
        return self.loadings_raw.cols

    @property
    def max_categories(self) -> int:
        return int(self.categories.max())

    def parameters(self) -> list[Tensor2]:
        return [self.loadings_raw, self.intercept_base, *self.intercept_incr_raw, self.chol_raw]

    # -- effective values ------------------------------------------------

    def values(self) -> GrmValues:
        """`effective` without a tape, as plain arrays."""
        eff = self.effective(None)
        cols = [c.data[:, 0] for c in eff["alpha_cols"]]
        intercepts = [np.array([c[j] for c in cols[:self.categories[j] - 1]])
                      for j in range(self.n_items)]
        chol = eff["chol"].data
        return GrmValues(loadings=eff["beta"].data, intercepts=intercepts,
                         factor_corr=chol @ chol.T)

    def effective(self, tape: Tape | None) -> dict:
        """Build effective tensors on the tape."""
        raw = self.loadings_raw
        if self.loading_positivity:
            raw = dk.log1p_exp(tape, raw)
        beta = dk.mul(tape, raw, dk.const(self.loading_mask))

        alpha_cols = [self.intercept_base]
        for t in self.intercept_incr_raw:
            gap = dk.add(tape, dk.log1p_exp(tape, t), _GAP)
            alpha_cols.append(dk.sub(tape, alpha_cols[-1], gap))

        P = self.n_factors
        raw_l = self.chol_raw
        eye = np.eye(P)
        diag_part = dk.mul(tape, dk.log1p_exp(tape, raw_l), dk.const(eye))
        off_part = dk.mul(tape, raw_l, dk.const(np.tril(np.ones((P, P)), -1)))
        unnorm = dk.add(tape, diag_part, off_part)
        norm2 = dk.sum_rows(tape, dk.square(tape, unnorm))
        chol = dk.mul_colvec(tape, unnorm, dk.pow_const(tape, norm2, -0.5))
        diag_vec = dk.sum_rows(tape, dk.mul(tape, chol, dk.const(eye)))
        logdet = dk.mul(tape, dk.tsum(tape, dk.log(tape, diag_vec)), 2.0)
        return {"beta": beta, "alpha_cols": alpha_cols, "chol": chol, "logdet": logdet}

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        vals = self.values()
        return {
            "loadings": vals.loadings.tolist(),
            "intercepts": [a.tolist() for a in vals.intercepts],
            "factor_corr": vals.factor_corr.tolist(),
            "raw": {
                "loadings_raw": self.loadings_raw.data.tolist(),
                "intercept_base": self.intercept_base.data.tolist(),
                "intercept_incr_raw": [t.data.tolist() for t in self.intercept_incr_raw],
                "chol_raw": self.chol_raw.data.tolist(),
                "loading_mask": self.loading_mask.tolist(),
                "categories": self.categories.tolist(),
                "loading_positivity": self.loading_positivity,
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GrmParams":
        raw = doc["raw"]
        return cls(
            loadings_raw=dk.parameter(raw["loadings_raw"], name="loadings_raw"),
            intercept_base=dk.parameter(raw["intercept_base"], name="intercept_base"),
            intercept_incr_raw=[dk.parameter(t, name=f"intercept_incr_raw_{k}")
                                for k, t in enumerate(raw["intercept_incr_raw"])],
            chol_raw=dk.parameter(raw["chol_raw"], name="chol_raw"),
            loading_mask=np.asarray(raw["loading_mask"]),
            categories=np.asarray(raw["categories"]),
            loading_positivity=raw["loading_positivity"],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GrmParams":
        return cls.from_dict(json.loads(text))


def init_params(n_items: int, n_factors: int, categories, seed: int,
                loading_mask: np.ndarray | None = None,
                loading_positivity: bool = False) -> GrmParams:
    """Uniform initialization with bound sqrt(2 / (P + M)) for loadings and
    intercepts; increments chosen so reconstructed intercepts are strictly
    increasing; factor correlation starts at the identity."""
    cats = np.asarray(categories, dtype=np.int64)
    if cats.ndim == 0:
        cats = np.full(n_items, int(cats))
    rng = substream(seed, "grm-init")
    bound = np.sqrt(2.0 / (n_factors + n_items))
    if loading_mask is None:
        loading_mask = np.ones((n_items, n_factors))
    loading_mask = np.asarray(loading_mask, dtype=np.float64)

    draws = rng.uniform(-bound, bound, size=(n_items, n_factors))
    if loading_positivity:
        loadings_raw = softplus_inv(np.clip(np.abs(draws), 1e-3, None))
    else:
        loadings_raw = draws

    maxc = int(cats.max())
    alpha_draws = rng.uniform(-bound, bound, size=(n_items, maxc - 1))
    alpha_sorted = -np.sort(-alpha_draws, axis=1)  # strictly decreasing
    base = alpha_sorted[:, :1].copy()
    incr_cols = []
    for k in range(maxc - 2):
        gaps = np.clip(alpha_sorted[:, k] - alpha_sorted[:, k + 1], 1e-4, None)
        incr_cols.append(softplus_inv(gaps).reshape(-1, 1))

    chol_raw = np.diag(np.full(n_factors, float(softplus_inv(1.0))))

    return GrmParams(
        loadings_raw=dk.parameter(loadings_raw, name="loadings_raw"),
        intercept_base=dk.parameter(base, name="intercept_base"),
        intercept_incr_raw=[dk.parameter(c, name=f"intercept_incr_raw_{k}")
                            for k, c in enumerate(incr_cols)],
        chol_raw=dk.parameter(chol_raw, name="chol_raw"),
        loading_mask=loading_mask,
        categories=cats,
        loading_positivity=loading_positivity,
    )


def simple_structure_mask(n_items: int, n_factors: int) -> np.ndarray:
    """Each factor loads on a contiguous block of M/P items."""
    if n_items % n_factors != 0:
        raise ValueError(f"simple structure needs P | M, got M={n_items}, P={n_factors}")
    per = n_items // n_factors
    mask = np.zeros((n_items, n_factors))
    for p in range(n_factors):
        mask[p * per:(p + 1) * per, p] = 1.0
    return mask


# ---------------------------------------------------------------------------
# plain-array evaluation


def boundary_prob(z: np.ndarray, values: GrmValues, item: int, level: int) -> np.ndarray:
    """P(x_ij >= level | z) for one item; level 0 -> 1, level C_j -> 0."""
    cj = len(values.intercepts[item]) + 1
    if level < 0 or level > cj:
        raise IndexError(f"level {level} outside 0..{cj} for item {item}")
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if level == 0:
        return np.ones(z.shape[0])
    if level == cj:
        return np.zeros(z.shape[0])
    t = z @ values.loadings[item] + values.intercepts[item][level - 1]
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0, e) / (1.0 + e)


def category_probs(z: np.ndarray, values: GrmValues) -> np.ndarray:
    """(n, M, maxC) category probabilities; padded categories get 0."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    n = z.shape[0]
    M = values.n_items
    maxc = max(len(a) for a in values.intercepts) + 1
    logits = z @ values.loadings.T  # (n, M)
    alpha = values.intercept_matrix(maxc)  # (M, maxC-1), inf padding
    # boundary k (1..maxC-1): sigma(logit + alpha_k); padded alphas give 1.0,
    # then the valid mask zeroes boundaries past C_j - 1
    t = logits[:, :, None] + alpha[None, :, :]  # -inf padding maps to boundary 0
    e = np.exp(-np.abs(t))
    bnd = np.where(t >= 0, 1.0, e) / (1.0 + e)
    valid = (np.arange(1, maxc)[None, :] <= (np.asarray([len(a) for a in values.intercepts])[:, None]))
    bnd = bnd * valid[None, :, :]
    full = np.concatenate([np.ones((n, M, 1)), bnd, np.zeros((n, M, 1))], axis=2)
    probs = full[:, :, :maxc] - full[:, :, 1:maxc + 1]
    return probs


def category_logprob(z: np.ndarray, values: GrmValues) -> np.ndarray:
    """(n, M, maxC) log category probabilities, clamped before the log."""
    probs = category_probs(z, values)
    return np.log(np.maximum(probs, _PROB_FLOOR))


def conditional_loglik_values(x: np.ndarray, z: np.ndarray, values: GrmValues) -> np.ndarray:
    """Sum over items of log p_{i,j,x_ij}; MISSING entries contribute 0."""
    x = np.asarray(x, dtype=np.int64)
    logp = category_logprob(z, values)
    mask = x != MISSING
    sel = np.take_along_axis(logp, np.maximum(x, 0)[:, :, None], axis=2)[:, :, 0]
    return (sel * mask).sum(axis=1)


def prior_logpdf_values(z: np.ndarray, values: GrmValues) -> np.ndarray:
    """log N(z; 0, Sigma) per row."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    P = values.n_factors
    chol = np.linalg.cholesky(values.factor_corr)
    w = solve_triangular(chol, z.T, lower=True).T
    quad = (w * w).sum(axis=1)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * quad - 0.5 * logdet - 0.5 * P * _LOG_2PI


def joint_logprob_values(x: np.ndarray, z: np.ndarray, values: GrmValues) -> np.ndarray:
    return conditional_loglik_values(x, z, values) + prior_logpdf_values(z, values)


# ---------------------------------------------------------------------------
# tape-based evaluation (training path)


def response_selectors(x: np.ndarray, categories: np.ndarray) -> dict:
    """Per-respondent constants of the likelihood graph, computed once per batch.

    Returns "levels", the (n, M) observed category indices (0 where the
    entry is MISSING), "missing", the (n, M) boolean missingness mask, and
    the per-item category counts.  The masks stay at one row per respondent
    however many latent draws the likelihood sees.
    """
    x = np.asarray(x, dtype=np.int64)
    missing = x == MISSING
    return {"levels": np.where(missing, 0, x), "missing": missing,
            "categories": np.asarray(categories, dtype=np.int64)}


def conditional_loglik(tape: Tape | None, eff: dict, z: Tensor2,
                       selectors: dict, tile: int = 1) -> Tensor2:
    """Per-row conditional log-likelihood (n, 1) on the tape.

    `selectors` comes from response_selectors on the batch; z holds `tile`
    rows per respondent (importance/MC samples, respondent-major).  After
    the logit matmul the whole likelihood is one fused `ordinal_loglik`
    node, which gathers each respondent's boundary intercepts once and
    broadcasts them over that respondent's draws.
    """
    logits = dk.matmul(tape, z, dk.transpose(tape, eff["beta"]))  # (n, M)
    return dk.ordinal_loglik(tape, logits, eff["alpha_cols"], selectors["levels"],
                             selectors["missing"], selectors["categories"], _PROB_FLOOR,
                             tile=tile)


def prior_logpdf(tape: Tape | None, eff: dict, z: Tensor2) -> Tensor2:
    """log N(z; 0, Sigma) per row, (n, 1) on the tape."""
    P = z.cols
    kinv = dk.tril_inverse(tape, eff["chol"])
    w = dk.matmul(tape, z, dk.transpose(tape, kinv))
    quad = dk.sum_rows(tape, dk.square(tape, w))
    out = dk.mul(tape, quad, -0.5)
    out = dk.sub(tape, out, dk.mul(tape, eff["logdet"], 0.5))
    return dk.add(tape, out, -0.5 * P * _LOG_2PI)


def joint_logprob(tape: Tape | None, eff: dict, z: Tensor2,
                  selectors: dict, tile: int = 1) -> Tensor2:
    cond = conditional_loglik(tape, eff, z, selectors, tile=tile)
    return dk.add(tape, cond, prior_logpdf(tape, eff, z))
