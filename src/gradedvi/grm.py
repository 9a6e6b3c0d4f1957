"""Graded response decoder: ordered-category probabilities, conditional and
joint log-likelihoods, and the constrained trainable parameterization.

The constrained map from raw leaves to loadings and intercepts exists once,
as `GrmParams.effective` on the tape, and the factor correlation's Cholesky
factor once, as `diffkernel.correlation_factor`; `GrmParams.values` runs
both without a tape.  The prior (`prior_logpdf`) is one
`diffkernel.correlated_normal_logpdf` node that maps the raw factor leaf
itself, so a step that scores no prior, such as the VAE step with its
closed-form KL, records no prior node.  The intercepts are one (M, K)
matrix throughout: one raw leaf, one `diffkernel.ordered_cuts` node, and one
(M, K) input to the likelihood.  The training likelihood
(`conditional_loglik`, `joint_logprob`) is a logit matmul plus one fused
`diffkernel.ordinal_loglik` node that gathers each respondent's category
boundaries once and broadcasts them over that respondent's latent draws.
The plain-array likelihood (`*_values` functions plus
`category_probs`/`category_logprob`) backs data generation, quadrature
oracles and heldout evaluation.  Both read their boundaries from
`diffkernel.boundary_table`, and a parity test keeps them equal.  The
full `category_probs` table is a sigmoid of the inner boundary levels and
their differences.  Given one row of observed categories per respondent,
as the training selectors hold, `category_probs` runs the training
likelihood's own kernel (`diffkernel._observed_boundaries` and
`diffkernel._observed_probs`): each respondent's two boundaries are
gathered once, +inf and -inf at MISSING entries, and only those
categories' probabilities are computed, two sigmoids per cell, in row
chunks that a large call shares between two threads.  Both give the same
bits as the plain full-table forms, which the tests keep as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import diffkernel as dk
from .diffkernel import Tape, Tensor2
from .rngutil import substream

MISSING = -1

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

    def subset(self, rows) -> "ResponseMatrix":
        return ResponseMatrix(self.data[rows], self.categories)


@dataclass
class GrmValues:
    """Effective (reconstructed) decoder values, plain arrays."""

    loadings: np.ndarray            # (M, P)
    intercepts: list[np.ndarray]    # per item, (C_j - 1,) strictly decreasing
    factor_corr: np.ndarray         # (P, P) correlation matrix

    @property
    def n_items(self) -> int:
        return self.loadings.shape[0]

    @property
    def n_factors(self) -> int:
        return self.loadings.shape[1]

    @property
    def categories(self) -> np.ndarray:
        """(M,) category counts C_j."""
        return np.array([len(a) + 1 for a in self.intercepts])


def check_categories(observed: np.ndarray, categories: np.ndarray) -> None:
    """DataError naming the first item whose entry of the (n, M) array
    `observed` lies outside [0, C_j)."""
    if observed.size and (observed.min() < 0 or (observed.max(axis=0) >= categories).any()):
        i, j = np.argwhere((observed < 0) | (observed >= categories))[0]
        raise DataError(f"item {j}: category {observed[i, j]} outside [0, {categories[j]})")


class GrmParams:
    """Trainable decoder parameters with structural constraints built in.

    The boundary model is P(x >= k) = sigmoid(beta^T z + alpha_k), so the
    intercepts must be strictly decreasing in k for every category
    probability to stay positive.  They live in one (M, maxC-1) leaf,
    `intercept_raw`, and that ordering is enforced by construction
    (`diffkernel.ordered_cuts`):
        alpha_{j,1} = intercept_raw[j, 0]
        alpha_{j,k} = alpha_{j,k-1} - softplus(intercept_raw[j, k-1]) - 1e-6
    Columns past C_j - 1 are padding that no likelihood reads.
    Loadings are masked by the confirmatory pattern and, when positivity is
    requested, passed through softplus.  The factor correlation is
    Sigma = L L^T with L a row-normalized lower-triangular Cholesky factor
    whose diagonal is softplus-positive, so Sigma always has a unit diagonal.
    """

    def __init__(self, loadings_raw: Tensor2, intercept_raw: Tensor2, chol_raw: Tensor2,
                 loading_mask: np.ndarray, categories: np.ndarray,
                 loading_positivity: bool):
        self.loadings_raw = loadings_raw
        self.intercept_raw = intercept_raw
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

    def parameters(self) -> list[Tensor2]:
        return [self.loadings_raw, self.intercept_raw, self.chol_raw]

    # -- effective values ------------------------------------------------

    def values(self) -> GrmValues:
        """`effective` and the factor correlation without a tape, as plain arrays."""
        eff = self.effective(None)
        intercepts = [row[:c - 1] for row, c in zip(eff["alpha"].data, self.categories)]
        chol, _ = dk.correlation_factor(self.chol_raw.data)
        return GrmValues(loadings=eff["beta"].data, intercepts=intercepts,
                         factor_corr=chol @ chol.T)

    def effective(self, tape: Tape | None) -> dict:
        """Loadings "beta" and intercepts "alpha" on the tape, and the raw
        factor leaf "chol_raw", whose map to the factor correlation runs
        inside the prior's one node (`prior_logpdf`), so a likelihood
        without a prior records no prior node."""
        raw = self.loadings_raw
        if self.loading_positivity:
            raw = dk.log1p_exp(tape, raw)
        beta = dk.mul(tape, raw, dk.const(self.loading_mask))
        alpha = dk.ordered_cuts(tape, self.intercept_raw, _GAP)
        return {"beta": beta, "alpha": alpha, "chol_raw": self.chol_raw}

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        vals = self.values()
        cuts = self.intercept_raw.data
        return {
            "loadings": vals.loadings.tolist(),
            "intercepts": [a.tolist() for a in vals.intercepts],
            "factor_corr": vals.factor_corr.tolist(),
            "raw": {
                "loadings_raw": self.loadings_raw.data.tolist(),
                "intercept_base": cuts[:, :1].tolist(),
                "intercept_incr_raw": [cuts[:, k:k + 1].tolist() for k in range(1, cuts.shape[1])],
                "chol_raw": self.chol_raw.data.tolist(),
                "loading_mask": self.loading_mask.tolist(),
                "categories": self.categories.tolist(),
                "loading_positivity": self.loading_positivity,
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GrmParams":
        raw = doc["raw"]
        cuts = np.hstack([raw["intercept_base"], *raw["intercept_incr_raw"]])
        return cls(
            loadings_raw=dk.parameter(raw["loadings_raw"], name="loadings_raw"),
            intercept_raw=dk.parameter(cuts, name="intercept_raw"),
            chol_raw=dk.parameter(raw["chol_raw"], name="chol_raw"),
            loading_mask=np.asarray(raw["loading_mask"]),
            categories=np.asarray(raw["categories"]),
            loading_positivity=raw["loading_positivity"],
        )


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
    intercept_raw = -np.sort(-alpha_draws, axis=1)  # strictly decreasing
    gaps = np.clip(intercept_raw[:, :-1] - intercept_raw[:, 1:], 1e-4, None)
    intercept_raw[:, 1:] = softplus_inv(gaps)

    chol_raw = np.diag(np.full(n_factors, float(softplus_inv(1.0))))

    return GrmParams(
        loadings_raw=dk.parameter(loadings_raw, name="loadings_raw"),
        intercept_raw=dk.parameter(intercept_raw, name="intercept_raw"),
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


def category_probs(z: np.ndarray, values: GrmValues, observed: np.ndarray | None = None,
                   tile: int = 1) -> np.ndarray:
    """(n, M, maxC) category probabilities, padded categories 0; with
    `observed`, only the (n, M) probabilities of those categories.

    With s_k the sigmoid of the logits plus level k of
    `diffkernel.boundary_table`, category k has probability s_k - s_{k+1}.
    Level 0 is +inf and levels from C_j on are -inf, whose sigmoids are
    exactly 1 and 0, so category 0 is 1 - s_1 and the last is s_K to the
    bit.  Without `observed` the sigmoid runs on the K inner levels only,
    level-major so every pass runs over contiguous items, and the result is
    an (n, M, maxC) view of the level-major array.

    observed is a (n / tile, M) integer array of categories in [0, C_j) or
    MISSING, one row per respondent for its `tile` rows of z; a MISSING
    entry has probability exactly 1, and any other entry outside that range
    raises DataError naming its item.  Each respondent's two boundaries are
    gathered once, and each cell runs two sigmoids, by the kernel the
    training likelihood runs (`diffkernel._observed_probs`).
    """
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    cats = values.categories
    K = cats.max() - 1
    M = values.n_items
    cuts = np.zeros((M, K))
    cuts[np.arange(K)[None, :] < cats[:, None] - 1] = np.concatenate(values.intercepts)
    table = dk.boundary_table(cuts, cats)                            # (M, K + 2)
    if observed is not None:
        observed = np.asarray(observed)
        if observed.ndim != 2 or observed.shape[0] * tile != z.shape[0] or observed.shape[1] != M:
            raise dk.ShapeError(f"category_probs: responses {observed.shape} x tile {tile} "
                                f"vs latents {z.shape} and {M} items")
        missing = observed == MISSING
        levels = np.where(missing, 0, observed)
        check_categories(levels, cats)
        return dk._observed_probs(z @ values.loadings.T,
                                  *dk._observed_boundaries(table, levels, missing), tile)
    t = (z @ values.loadings.T)[:, None, :] + table[:, 1:-1].T       # (n, K, M)
    s = dk._sigmoid_values(t, scratch=t)
    probs = np.empty((z.shape[0], K + 1, M))
    np.subtract(1.0, s[:, 0], out=probs[:, 0])
    np.subtract(s[:, :-1], s[:, 1:], out=probs[:, 1:K])
    probs[:, K] = s[:, K - 1]
    return probs.transpose(0, 2, 1)


def category_logprob(z: np.ndarray, values: GrmValues) -> np.ndarray:
    """(n, M, maxC) log category probabilities, clamped before the log."""
    probs = category_probs(z, values)
    return np.log(np.maximum(probs, _PROB_FLOOR))


def conditional_loglik_values(x: np.ndarray, z: np.ndarray, values: GrmValues,
                              tile: int = 1) -> np.ndarray:
    """Sum over items of log p_{i,j,x_ij} per row of z; MISSING entries
    contribute 0.

    x holds one (M,) response row per respondent and z `tile` rows per
    respondent, respondent-major, as in `conditional_loglik`; each entry of
    x is MISSING or in [0, C_j), and any other raises DataError naming its
    item.  Computes only each observed category's probability
    (`category_probs(..., observed=)`, exactly 1 at MISSING entries) and
    logs that (n, M) selection.
    """
    p = category_probs(z, values, observed=np.asarray(x, dtype=np.int64), tile=tile)
    return np.log(np.maximum(p, _PROB_FLOOR, out=p), out=p).sum(axis=1)


def prior_logpdf_values(z: np.ndarray, values: GrmValues) -> np.ndarray:
    """log N(z; 0, Sigma) per row."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    P = values.n_factors
    chol = np.linalg.cholesky(values.factor_corr)
    w = solve_triangular(chol, z.T, lower=True).T
    quad = (w * w).sum(axis=1)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * quad - 0.5 * logdet - 0.5 * P * dk._LOG_2PI


def joint_logprob_values(x: np.ndarray, z: np.ndarray, values: GrmValues,
                         tile: int = 1) -> np.ndarray:
    return conditional_loglik_values(x, z, values, tile) + prior_logpdf_values(z, values)


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
    return dk.ordinal_loglik(tape, logits, eff["alpha"], selectors["levels"],
                             selectors["missing"], selectors["categories"], _PROB_FLOOR,
                             tile=tile)


def prior_logpdf(tape: Tape | None, eff: dict, z: Tensor2) -> Tensor2:
    """log N(z; 0, Sigma) per row, (n, 1), as one tape node."""
    return dk.correlated_normal_logpdf(tape, z, eff["chol_raw"])


def joint_logprob(tape: Tape | None, eff: dict, z: Tensor2,
                  selectors: dict, tile: int = 1) -> Tensor2:
    cond = conditional_loglik(tape, eff, z, selectors, tile=tile)
    return dk.add(tape, cond, prior_logpdf(tape, eff, z))
