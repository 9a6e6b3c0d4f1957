"""Rotation and alignment: geomin stationarity and self-recovery, parity of
the batched multi-start rotation with a serial per-start oracle, sign
reflection, assignment optimality against brute force, aligned loadings
against their reference, and signed-permutation realignment of correlation
matrices."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedvi.align import (
    AlignmentMap,
    align_correlations,
    align_to_reference,
    geomin_criterion,
    geomin_rotate,
    match_columns,
    reflect_signs,
)
from gradedvi.rngutil import substream


def assert_same_up_to_column_scale(a, b, atol=0.01):
    """Columns agree once each is scaled to unit length: an oblique rotation
    identifies its loadings only up to column scale."""
    np.testing.assert_allclose(a / np.linalg.norm(a, axis=0), b / np.linalg.norm(b, axis=0),
                               rtol=0, atol=atol)


def simple_structure_loadings(rng, M=50, P=5, strength=0.8, noise=0.02):
    per = M // P
    L = np.zeros((M, P))
    for p in range(P):
        L[p * per:(p + 1) * per, p] = strength + rng.uniform(-0.1, 0.1, per)
    return L + noise * rng.standard_normal((M, P))


def random_oblique(rng, P):
    T, _ = np.linalg.qr(rng.standard_normal((P, P)))
    T = T + 0.2 * rng.standard_normal((P, P))
    return T / np.sqrt((T ** 2).sum(axis=0))


class TestGeominRotate:
    def test_single_factor_identity(self):
        rng = np.random.default_rng(0)
        L = rng.normal(size=(10, 1))
        res = geomin_rotate(L)
        np.testing.assert_array_equal(res.loadings, L)
        np.testing.assert_array_equal(res.rotation, np.eye(1))
        assert res.converged

    def test_simple_structure_is_fixed_point(self):
        rng = np.random.default_rng(1)
        L = simple_structure_loadings(rng, M=20, P=2, noise=0.0)
        q0, _ = geomin_criterion(L, 0.01)
        res = geomin_rotate(L, starts=10, seed=2)
        assert res.criterion <= q0 + 1e-8
        assert abs(res.criterion - q0) < 1e-6 or res.criterion < q0

    def test_recovers_simple_structure_from_random_rotation(self):
        rng = np.random.default_rng(3)
        L = simple_structure_loadings(rng, M=30, P=3)
        q_target, _ = geomin_criterion(L, 0.01)
        rotated = L @ np.linalg.inv(random_oblique(rng, 3)).T
        q_start, _ = geomin_criterion(rotated, 0.01)
        assert q_start > q_target  # rotation damaged the simple structure
        res = geomin_rotate(rotated, starts=20, seed=4)
        assert res.criterion <= q_start
        # criterion is column-scale sensitive while the oblique solution is
        # identified only up to column scaling: check decrease toward the
        # optimum plus recovery up to column scale
        assert res.criterion <= q_target * 1.1
        rep = align_to_reference(res.loadings, L)
        assert_same_up_to_column_scale(rep.aligned_loadings, reflect_signs(L)[0])

    def test_criterion_never_increases(self):
        rng = np.random.default_rng(5)
        for k in range(5):
            L = rng.normal(size=(12, 3))
            q0, _ = geomin_criterion(L, 0.01)
            res = geomin_rotate(L, starts=5, seed=k)
            assert res.criterion <= q0 + 1e-12

    def test_factor_corr_is_valid(self):
        rng = np.random.default_rng(6)
        L = simple_structure_loadings(rng, M=20, P=4)
        res = geomin_rotate(L @ np.linalg.inv(random_oblique(rng, 4)).T,
                            starts=10, seed=7)
        np.testing.assert_allclose(np.diag(res.factor_corr), 1.0, atol=1e-10)
        assert np.linalg.eigvalsh(res.factor_corr).min() > 0

    def test_needs_more_items_than_factors(self):
        with pytest.raises(ValueError):
            geomin_rotate(np.zeros((3, 3)))


def serial_geomin_start(loadings, T0, eps, max_iter, tol):
    """Oracle: the oblique gradient-projection iteration from one start,
    one start at a time.  Returns the rotation, criterion, convergence
    flag and the number of line searches that failed all 12 halvings."""
    T = T0.copy()
    Ti = np.linalg.inv(T)
    L = loadings @ Ti.T
    f, Gq = geomin_criterion(L, eps)
    G = -(L.T @ Gq @ Ti).T
    al = 1.0
    converged = False
    exhausted = 0
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
        else:
            exhausted += 1
        T = X
        f = ft
        G = -(L.T @ Gq @ Ti).T
        if abs(f_prev - f) < tol:
            converged = True
            break
    return T, f, converged, exhausted


def serial_geomin(loadings, eps=0.01, starts=30, seed=0, max_iter=1000, tol=1e-6):
    """Oracle: every start in turn, then the first start whose criterion
    beats the best so far by more than 1e-12.  Returns the winner's index
    and the per-start results."""
    P = loadings.shape[1]
    rng = substream(seed, "geomin-starts")
    runs = []
    for k in range(starts):
        if k == 0:
            T0 = np.eye(P)
        else:
            T0, _ = np.linalg.qr(rng.standard_normal((P, P)))
            T0 = T0 / np.sqrt((T0 ** 2).sum(axis=0))
        runs.append(serial_geomin_start(loadings, T0, eps, max_iter, tol))
    best = 0
    for k in range(1, starts):
        if runs[k][1] < runs[best][1] - 1e-12:
            best = k
    return best, runs


def _noisy_oblique(P, seed, M=20):
    rng = np.random.default_rng(seed)
    L = simple_structure_loadings(rng, M=M, P=P, noise=0.2)
    return L @ np.linalg.inv(random_oblique(rng, P)).T


# at this scale eps barely matters, and line searches fail all 12 halvings
EXHAUSTING = 100.0 * np.random.default_rng(7).standard_normal((11, 2))
# with tol=0 the starts run to stationarity, and a later start ends a few
# ulps below the first start's criterion
TYING = np.random.default_rng(0).standard_normal((9, 2))

PARITY_CASES = {
    **{f"P{P}": (_noisy_oblique(P, 30 + P), {"starts": 10, "seed": P}) for P in (2, 3, 4, 5)},
    "one-start": (_noisy_oblique(3, 40), {"starts": 1}),
    "one-iteration": (_noisy_oblique(4, 41), {"starts": 6, "max_iter": 1}),
    "exhausted": (EXHAUSTING, {"starts": 8}),
    "tied": (TYING, {"starts": 8, "tol": 0.0}),
}


class TestGeominParity:
    """The batched rotation against the serial per-start oracle."""

    @pytest.mark.parametrize("case", list(PARITY_CASES))
    def test_matches_serial_oracle(self, case):
        loadings, kw = PARITY_CASES[case]
        best, runs = serial_geomin(loadings, **kw)
        T, f, conv, _ = runs[best]
        res = geomin_rotate(loadings, **kw)
        assert res.start == best
        np.testing.assert_allclose(res.rotation, T, rtol=0, atol=1e-10)
        np.testing.assert_allclose(res.loadings, loadings @ np.linalg.inv(T).T, rtol=0, atol=1e-10)
        assert res.criterion == pytest.approx(f, rel=0, abs=1e-10)
        assert res.converged == conv

    def test_exhausted_case_fails_whole_line_searches(self):
        _, runs = serial_geomin(EXHAUSTING, **PARITY_CASES["exhausted"][1])
        assert all(r[3] > 0 for r in runs)

    def test_tied_case_goes_to_the_first_start(self):
        best, runs = serial_geomin(TYING, **PARITY_CASES["tied"][1])
        crits = [r[1] for r in runs]
        assert best == 0
        assert 0.0 < crits[0] - min(crits) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(P=st.integers(2, 4), extra=st.integers(1, 10), seed=st.integers(0, 2 ** 16),
           starts=st.integers(1, 6))
    def test_more_starts_never_worse(self, P, extra, seed, starts):
        """The starts form a prefix of one stream and never couple: adding
        starts keeps the best criterion or lowers it, and a winner among
        the first `starts` is the same rotation either way."""
        loadings = np.random.default_rng(seed).standard_normal((P + extra, P))
        few = geomin_rotate(loadings, starts=starts, seed=seed, max_iter=200)
        more = geomin_rotate(loadings, starts=starts + 3, seed=seed, max_iter=200)
        assert more.criterion <= few.criterion
        if more.start < starts:
            assert more.start == few.start
            np.testing.assert_array_equal(more.rotation, few.rotation)
        for res in (few, more):
            np.testing.assert_allclose(np.diag(res.factor_corr), 1.0, atol=1e-12)

    def test_criterion_batches_over_leading_axes(self):
        stack = np.random.default_rng(42).standard_normal((3, 7, 2))
        q, grad = geomin_criterion(stack, 0.01)
        for k in range(3):
            qk, gk = geomin_criterion(stack[k], 0.01)
            assert isinstance(qk, float)
            assert q[k] == qk
            np.testing.assert_array_equal(grad[k], gk)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("P", [1, 2])
    def test_rejects_non_finite_loadings(self, bad, P):
        loadings = np.ones((6, P))
        loadings[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            geomin_rotate(loadings)


class TestReflectSigns:
    def test_all_positive_unchanged(self):
        L = np.abs(np.random.default_rng(8).normal(size=(6, 3)))
        out, signs = reflect_signs(L)
        np.testing.assert_array_equal(out, L)
        np.testing.assert_array_equal(signs, np.ones(3))

    def test_involution(self):
        rng = np.random.default_rng(9)
        L = np.abs(rng.normal(size=(6, 3))) + 0.1
        flipped = L.copy()
        flipped[:, 1] *= -1
        out, signs = reflect_signs(flipped)
        np.testing.assert_array_equal(out, L)
        np.testing.assert_array_equal(signs, [1.0, -1.0, 1.0])

    def test_zero_sum_keeps_plus_one(self):
        L = np.array([[1.0, 1.0], [-1.0, 1.0]])  # first column sums to 0
        out, signs = reflect_signs(L)
        assert signs[0] == 1.0
        np.testing.assert_array_equal(out, L)


class TestMatchColumns:
    def test_recovers_column_swap(self):
        rng = np.random.default_rng(10)
        ref = rng.normal(size=(8, 3))
        cand = ref[:, [2, 0, 1]]
        amap, aligned = match_columns(cand, ref)
        np.testing.assert_array_equal(aligned, ref)
        assert ((aligned - ref) ** 2).mean() == 0.0

    def test_identity_for_equal_matrices(self):
        ref = np.random.default_rng(11).normal(size=(6, 4))
        amap, aligned = match_columns(ref.copy(), ref)
        np.testing.assert_array_equal(amap.permutation, np.arange(4))

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(12)
        for P in (2, 3, 4, 5, 6):
            cand = rng.normal(size=(7, P))
            ref = rng.normal(size=(7, P))
            amap, aligned = match_columns(cand, ref)
            got = ((aligned - ref) ** 2).mean()
            best = min(((cand[:, list(perm)] - ref) ** 2).mean()
                       for perm in itertools.permutations(range(P)))
            assert got == pytest.approx(best, abs=1e-12)

    def test_total_cost_at_most_identity_assignment(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            cand = rng.normal(size=(5, 4))
            ref = rng.normal(size=(5, 4))
            _, aligned = match_columns(cand, ref)
            assert ((aligned - ref) ** 2).mean() <= ((cand - ref) ** 2).mean() + 1e-15


class TestAlignCorrelations:
    def test_identity_map_unchanged(self):
        corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        amap = AlignmentMap(permutation=np.array([0, 1]), signs=np.ones(2))
        np.testing.assert_array_equal(align_correlations(corr, amap), corr)

    def test_diagonal_stays_ones(self):
        rng = np.random.default_rng(17)
        from gradedvi.simlab import sample_lkj
        corr = sample_lkj(4, 1.0, rng)
        amap = AlignmentMap(permutation=np.array([2, 0, 3, 1]),
                            signs=np.array([1.0, -1.0, 1.0, -1.0]))
        out = align_correlations(corr, amap)
        np.testing.assert_allclose(np.diag(out), 1.0, atol=1e-12)

    def test_matches_bruteforce_reindexing(self):
        rng = np.random.default_rng(18)
        from gradedvi.simlab import sample_lkj
        corr = sample_lkj(4, 1.0, rng)
        perm = np.array([1, 3, 0, 2])
        signs = np.array([1.0, -1.0, -1.0, 1.0])
        amap = AlignmentMap(permutation=perm, signs=signs)
        out = align_correlations(corr, amap)
        expected = np.empty((4, 4))
        for q in range(4):
            for r in range(4):
                expected[q, r] = signs[q] * signs[r] * corr[perm[q], perm[r]]
        np.testing.assert_array_equal(out, expected)


class TestFullPipeline:
    def test_signed_permutation_recovered_exactly(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            ref = rng.normal(size=(50, 5))
            perm = rng.permutation(5)
            signs = rng.choice([-1.0, 1.0], size=5)
            cand = ref[:, perm] * signs
            rep = align_to_reference(cand, ref)
            np.testing.assert_array_equal(rep.aligned_loadings, reflect_signs(ref)[0])

    def test_rotated_signed_permuted_copy_recovered(self):
        rng = np.random.default_rng(20)
        ref = simple_structure_loadings(rng, M=50, P=5)
        T = random_oblique(rng, 5)
        cand = (ref @ np.linalg.inv(T).T)
        perm = rng.permutation(5)
        signs = rng.choice([-1.0, 1.0], size=5)
        cand = cand[:, perm] * signs
        ref = geomin_rotate(ref, starts=15, seed=21).loadings
        rep = align_to_reference(geomin_rotate(cand, starts=15, seed=21).loadings, ref)
        assert_same_up_to_column_scale(rep.aligned_loadings, reflect_signs(ref)[0])

    def test_correlation_alignment_consistent_with_loadings(self):
        rng = np.random.default_rng(22)
        from gradedvi.simlab import sample_lkj
        ref = np.abs(rng.normal(size=(12, 3))) + 0.2
        corr = sample_lkj(3, 1.0, rng)
        perm = np.array([2, 0, 1])
        signs = np.array([-1.0, 1.0, -1.0])
        cand = ref[:, perm] * signs
        corr_cand = corr[np.ix_(perm, perm)] * np.outer(signs, signs)
        rep = align_to_reference(cand, ref)
        realigned = align_correlations(corr_cand, rep.amap)
        np.testing.assert_allclose(realigned, corr, atol=1e-12)
