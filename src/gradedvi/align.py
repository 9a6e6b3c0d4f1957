"""Exploratory-solution post-processing: geomin oblique rotation by gradient
projection, sign reflection, optimal column matching and factor-correlation
realignment.

The rotation solves min_T Q(L (T')^{-1}) over oblique T (unit-length
columns), following the gradient-projection iteration of Jennrich (2002):
project the criterion gradient onto the constraint manifold, step with a
halving line search, renormalize columns.

All starts iterate together as (starts, P, P) stacks with batched
`np.linalg.inv` and matmul, over a shrinking index of the starts still
active.  Each start keeps its own step size, iteration count and stopping
tests, so its arithmetic is the same as iterating it alone; the line search
runs in lockstep over the starts still pending and evaluates only the
criterion, and the gradient is taken once at each accepted point.

Only `match_columns` loads scipy.optimize, for `linear_sum_assignment`, and
only when it is first called: `gradedvi eval` on an exploratory fit with
P >= 2.  Every other command runs without that module and the scipy.sparse,
scipy.spatial and scipy.fft it pulls in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rngutil import substream


@dataclass
class RotationResult:
    loadings: np.ndarray         # rotated pattern matrix, M x P
    rotation: np.ndarray         # oblique rotation T, P x P
    factor_corr: np.ndarray      # T' T
    criterion: float
    converged: bool
    start: int                   # index of the winning start


@dataclass
class AlignmentMap:
    permutation: np.ndarray      # aligned[:, q] = signs[q] * candidate[:, permutation[q]]
    signs: np.ndarray


def _geomin_rows(loadings: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """l_jp^2 + eps and the per-row terms (prod_p (l_jp^2 + eps))^(1/P)."""
    L2 = loadings ** 2 + eps
    return L2, np.exp(np.log(L2).sum(axis=-1) / loadings.shape[-1])


def geomin_criterion(loadings: np.ndarray, eps: float) -> tuple[float | np.ndarray, np.ndarray]:
    """Q(L) = sum_j (prod_p (l_jp^2 + eps))^(1/P) and its gradient, over the
    last two axes of `loadings`; Q is a float for one M x P matrix."""
    L2, row = _geomin_rows(loadings, eps)
    q = row.sum(axis=-1)
    grad = row[..., None] * (2.0 * loadings) / (loadings.shape[-1] * L2)
    return (float(q) if loadings.ndim == 2 else q), grad


def _value_and_gradient(L: np.ndarray, Ti: np.ndarray,
                        eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Q and dQ/dT at T = inv(Ti), for stacks of rotated loadings L and
    inverse rotations Ti."""
    q, Gq = geomin_criterion(L, eps)
    return q, -(L.mT @ Gq @ Ti).mT


def _trial(loadings: np.ndarray, T: np.ndarray, Gp: np.ndarray, al: np.ndarray,
           eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One line-search trial per start: the column-normalized step
    T - al Gp, its inverse, the loadings it rotates to, and Q there."""
    X = T - al[:, None, None] * Gp
    X = X / np.sqrt((X ** 2).sum(axis=-2, keepdims=True))
    Ti = np.linalg.inv(X)
    L = loadings @ Ti.mT
    return X, Ti, L, _geomin_rows(L, eps)[1].sum(axis=-1)


def geomin_rotate(loadings: np.ndarray, eps: float = 0.01, starts: int = 30,
                  seed: int = 0, max_iter: int = 1000, tol: float = 1e-6) -> RotationResult:
    """Best-of-`starts` geomin rotation; P = 1 returns the input unrotated.

    All starts iterate together; the lowest criterion wins, the first start
    winning ties within 1e-12.  Non-convergence in every start yields
    converged=False on the best criterion found, never an exception.
    Non-finite loadings raise ValueError.
    """
    loadings = np.asarray(loadings, dtype=np.float64)
    if not np.isfinite(loadings).all():
        raise ValueError("rotation needs finite loadings")
    M, P = loadings.shape
    if P == 1:
        q, _ = geomin_criterion(loadings, eps)
        return RotationResult(loadings=loadings.copy(), rotation=np.eye(1),
                              factor_corr=np.eye(1), criterion=q, converged=True,
                              start=0)
    if M <= P:
        raise ValueError(f"rotation needs more items than factors, got {M} x {P}")
    # starts: the identity, then column-normalized QR factors of Gaussian draws
    rng = substream(seed, "geomin-starts")
    T = np.empty((starts, P, P))
    T[0] = np.eye(P)
    for k in range(1, starts):
        Q, _ = np.linalg.qr(rng.standard_normal((P, P)))
        T[k] = Q / np.sqrt((Q ** 2).sum(axis=0))
    Ti = np.linalg.inv(T)
    f, G = _value_and_gradient(loadings @ Ti.mT, Ti, eps)
    converged = np.zeros(starts, dtype=bool)
    # the active starts, compacted: index, rotation, gradient, criterion, step
    act, Ta, fa, al = np.arange(starts), T.copy(), f.copy(), np.ones(starts)
    for _ in range(max_iter):
        Gp = G - Ta * (Ta * G).sum(axis=-2, keepdims=True)
        g = Gp.reshape(act.size, -1)
        s = np.sqrt(np.vecdot(g, g))  # ddot, as np.linalg.norm
        moving = ~(s < 1e-6)
        if not moving.all():
            converged[act[~moving]] = True
            act, Ta, Gp, s, fa, al = (a[moving] for a in (act, Ta, Gp, s, fa, al))
            if not act.size:
                break
        al *= 2.0
        h = 0.5 * s ** 2  # a trial is accepted when Q falls below f - h al
        # halving line search in lockstep over the pending starts; a start
        # that fails all 12 trials keeps its last one
        X, Ti, L, ft = _trial(loadings, Ta, Gp, al, eps)
        pend = np.flatnonzero(~(ft < fa - h * al))
        for _ in range(11):
            if not pend.size:
                break
            al[pend] /= 2.0
            Xp, Tip, Lp, fp = _trial(loadings, Ta[pend], Gp[pend], al[pend], eps)
            X[pend], Ti[pend], L[pend], ft[pend] = Xp, Tip, Lp, fp
            pend = pend[~(fp < fa[pend] - h[pend] * al[pend])]
        al[pend] /= 2.0
        Ta, G = X, _value_and_gradient(L, Ti, eps)[1]
        moving = ~(np.abs(fa - ft) < tol)
        fa = ft
        T[act], f[act] = Ta, fa
        if not moving.all():
            converged[act[~moving]] = True
            act, Ta, G, fa, al = (a[moving] for a in (act, Ta, G, fa, al))
            if not act.size:
                break
    best = 0
    for k in range(1, starts):
        if f[k] < f[best] - 1e-12:
            best = k
    Tb = T[best]
    return RotationResult(loadings=loadings @ np.linalg.inv(Tb).T, rotation=Tb,
                          factor_corr=Tb.T @ Tb, criterion=float(f[best]),
                          converged=bool(converged[best]), start=best)


def reflect_signs(loadings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip columns whose loadings sum negative; zero sums keep +1."""
    loadings = np.asarray(loadings, dtype=np.float64)
    signs = np.where(loadings.sum(axis=0) < 0.0, -1.0, 1.0)
    return loadings * signs, signs


def match_columns(candidate: np.ndarray, reference: np.ndarray) -> tuple[AlignmentMap, np.ndarray]:
    """Exact minimum-cost column assignment, cost = per-column MSE."""
    # imported here, not at the top: about 16 MB resident and 140-190 ms that only eval needs
    from scipy.optimize import linear_sum_assignment

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


def align_to_reference(candidate: np.ndarray, reference: np.ndarray) -> AlignmentReport:
    """Sign reflection and optimal column matching against a reference (both
    matrices sign-canonicalized first); rotate an exploratory candidate with
    `geomin_rotate` before aligning it."""
    candidate = np.asarray(candidate, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    ref_c, _ = reflect_signs(reference)
    cand_c, cand_signs = reflect_signs(candidate)
    amap, aligned = match_columns(cand_c, ref_c)
    total = AlignmentMap(permutation=amap.permutation,
                         signs=cand_signs[amap.permutation])
    return AlignmentReport(amap=total, aligned_loadings=aligned)
