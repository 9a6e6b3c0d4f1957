"""Exploratory-solution post-processing: geomin oblique rotation by gradient
projection, sign reflection, optimal column matching, Tucker congruence, and
factor-correlation realignment.

The rotation solves min_T Q(L (T')^{-1}) over oblique T (unit-length
columns), following the gradient-projection iteration of Jennrich (2002):
project the criterion gradient onto the constraint manifold, step with a
halving line search, renormalize columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .rngutil import substream


@dataclass
class RotationResult:
    loadings: np.ndarray         # rotated pattern matrix, M x P
    rotation: np.ndarray         # oblique rotation T, P x P
    factor_corr: np.ndarray      # T' T
    criterion: float
    converged: bool


@dataclass
class AlignmentMap:
    permutation: np.ndarray      # aligned[:, q] = signs[q] * candidate[:, permutation[q]]
    signs: np.ndarray

    def to_dict(self) -> dict:
        return {"permutation": self.permutation.tolist(), "signs": self.signs.tolist()}


def geomin_criterion(loadings: np.ndarray, eps: float) -> tuple[float, np.ndarray]:
    """Q(L) = sum_j (prod_p (l_jp^2 + eps))^(1/P) and its gradient."""
    L2 = loadings ** 2 + eps
    P = loadings.shape[1]
    row = np.exp(np.log(L2).sum(axis=1) / P)
    q = row.sum()
    grad = row[:, None] * (2.0 * loadings) / (P * L2)
    return float(q), grad


def _rotate(loadings: np.ndarray, T: np.ndarray) -> np.ndarray:
    return loadings @ np.linalg.inv(T).T


def _geomin_gpa(loadings: np.ndarray, T0: np.ndarray, eps: float,
                max_iter: int, tol: float) -> tuple[np.ndarray, float, bool]:
    """Oblique gradient-projection iteration from one start."""
    T = T0.copy()
    Ti = np.linalg.inv(T)
    L = loadings @ Ti.T
    f, Gq = geomin_criterion(L, eps)
    G = -(L.T @ Gq @ Ti).T
    al = 1.0
    converged = False
    for _ in range(max_iter):
        Gp = G - T @ np.diag((T * G).sum(axis=0))
        s = np.linalg.norm(Gp)
        if s < 1e-6:
            converged = True
            break
        al *= 2.0
        f_prev = f
        for _ in range(12):
            X = T - al * Gp
            X = X / np.sqrt((X ** 2).sum(axis=0))
            Ti = np.linalg.inv(X)
            L = loadings @ Ti.T
            ft, Gq = geomin_criterion(L, eps)
            if ft < f - 0.5 * s ** 2 * al:
                break
            al /= 2.0
        T = X
        f = ft
        G = -(L.T @ Gq @ Ti).T
        if abs(f_prev - f) < tol:
            converged = True
            break
    return T, f, converged


def geomin_rotate(loadings: np.ndarray, eps: float = 0.01, starts: int = 30,
                  seed: int = 0, max_iter: int = 1000, tol: float = 1e-6) -> RotationResult:
    """Best-of-`starts` geomin rotation; P = 1 returns the input unrotated.

    Non-convergence in every start yields converged=False on the best
    criterion found, never an exception.
    """
    loadings = np.asarray(loadings, dtype=np.float64)
    M, P = loadings.shape
    if P == 1:
        q, _ = geomin_criterion(loadings, eps)
        return RotationResult(loadings=loadings.copy(), rotation=np.eye(1),
                              factor_corr=np.eye(1), criterion=q, converged=True)
    if M <= P:
        raise ValueError(f"rotation needs more items than factors, got {M} x {P}")
    rng = substream(seed, "geomin-starts")
    best: RotationResult | None = None
    for k in range(starts):
        if k == 0:
            T0 = np.eye(P)
        else:
            T0, _ = np.linalg.qr(rng.standard_normal((P, P)))
            T0 = T0 / np.sqrt((T0 ** 2).sum(axis=0))
        T, f, conv = _geomin_gpa(loadings, T0, eps, max_iter, tol)
        if best is None or f < best.criterion - 1e-12:
            best = RotationResult(loadings=_rotate(loadings, T), rotation=T,
                                  factor_corr=T.T @ T, criterion=f, converged=conv)
    return best


def reflect_signs(loadings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip columns whose loadings sum negative; zero sums keep +1."""
    loadings = np.asarray(loadings, dtype=np.float64)
    signs = np.where(loadings.sum(axis=0) < 0.0, -1.0, 1.0)
    return loadings * signs, signs


def match_columns(candidate: np.ndarray, reference: np.ndarray) -> tuple[AlignmentMap, np.ndarray]:
    """Exact minimum-cost column assignment, cost = per-column MSE."""
    candidate = np.asarray(candidate, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if candidate.shape != reference.shape:
        raise ValueError(f"shape mismatch {candidate.shape} vs {reference.shape}")
    P = candidate.shape[1]
    cost = np.empty((P, P))
    for p in range(P):
        diff = candidate[:, p][:, None] - reference
        cost[p] = (diff ** 2).mean(axis=0)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(P, dtype=np.int64)
    perm[cols] = rows
    aligned = candidate[:, perm]
    amap = AlignmentMap(permutation=perm, signs=np.ones(P))
    return amap, aligned


def tucker_congruence(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-column congruence sum(ab) / sqrt(sum(a^2) sum(b^2)); a zero
    column yields NaN."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    num = (a * b).sum(axis=0)
    den = np.sqrt((a ** 2).sum(axis=0) * (b ** 2).sum(axis=0))
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.nan)
    return out


def congruence_verdict(coefficients: np.ndarray, threshold: float = 0.98) -> bool:
    """Solutions count as equivalent when the minimum coefficient clears the
    threshold; NaN (zero column) fails."""
    coefficients = np.asarray(coefficients)
    if np.isnan(coefficients).any():
        return False
    return bool(coefficients.min() > threshold)


def align_correlations(corr: np.ndarray, amap: AlignmentMap) -> np.ndarray:
    """Apply the signed permutation to both rows and columns."""
    corr = np.asarray(corr, dtype=np.float64)
    perm, signs = amap.permutation, amap.signs
    out = corr[np.ix_(perm, perm)] * np.outer(signs, signs)
    return out


@dataclass
class AlignmentReport:
    amap: AlignmentMap
    aligned_loadings: np.ndarray
    congruence: np.ndarray
    equivalent: bool
    post_mse: float

    def to_dict(self) -> dict:
        return {"permutation": self.amap.permutation.tolist(),
                "signs": self.amap.signs.tolist(),
                "congruence": self.congruence.tolist(),
                "equivalent": self.equivalent,
                "post_mse": self.post_mse}


def align_to_reference(candidate: np.ndarray, reference: np.ndarray) -> AlignmentReport:
    """Sign reflection, optimal column matching and congruence against a
    reference (both matrices sign-canonicalized first); rotate an
    exploratory candidate with `geomin_rotate` before aligning it."""
    candidate = np.asarray(candidate, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    ref_c, _ = reflect_signs(reference)
    cand_c, cand_signs = reflect_signs(candidate)
    amap, aligned = match_columns(cand_c, ref_c)
    total = AlignmentMap(permutation=amap.permutation,
                         signs=cand_signs[amap.permutation])
    cong = tucker_congruence(aligned, ref_c)
    post_mse = float(((aligned - ref_c) ** 2).mean())
    return AlignmentReport(amap=total, aligned_loadings=aligned,
                           congruence=cong,
                           equivalent=congruence_verdict(cong),
                           post_mse=post_mse)
