"""AdamW recursions (the flat update against the per-tensor loop it
replaced), CLR triangle wave, and convergence-window counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedvi.diffkernel import parameter
from gradedvi.optim import (AdamW, ClrSchedule, ConvergenceMonitor, NumericalError,
                            step_all)


class TestAdamW:
    def test_defaults(self):
        opt = AdamW([])
        assert opt.beta1 == 0.9
        assert opt.beta2 == 0.999
        assert opt.weight_decay == 0.01
        assert opt.eps == 1e-8

    def test_first_step_moments(self):
        p = parameter([[1.0, -2.0]])
        g = np.array([[0.5, 2.0]])
        p.grad = g.copy()
        opt = AdamW([p])
        opt.step(lr=0.001)
        np.testing.assert_allclose(opt._m[0], 0.1 * g, atol=1e-15)
        np.testing.assert_allclose(opt._v[0], 0.001 * g * g, atol=1e-15)

    def test_null_update(self):
        p = parameter([[3.0, -1.0]])
        p.grad = np.zeros((1, 2))
        opt = AdamW([p], weight_decay=0.0)
        before = p.data.copy()
        opt.step(lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_lambda_zero_matches_hand_computed_adam(self):
        # one step on a 3-parameter example, worked by hand
        w0 = np.array([[0.5, -1.0, 2.0]])
        g = np.array([[0.2, -0.4, 1.0]])
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        m = (1 - b1) * g
        v = (1 - b2) * g * g
        mhat = m / (1 - b1)
        vhat = v / (1 - b2)
        expected = w0 - lr * mhat / (np.sqrt(vhat) + eps)

        p = parameter(w0.copy())
        p.grad = g.copy()
        opt = AdamW([p], weight_decay=0.0)
        opt.step(lr=lr)
        np.testing.assert_allclose(p.data, expected, atol=1e-12)

    def test_decay_term_applied(self):
        p = parameter([[10.0]])
        p.grad = np.zeros((1, 1))
        opt = AdamW([p], weight_decay=0.01)
        opt.step(lr=0.1)
        np.testing.assert_allclose(p.data, [[10.0 - 0.1 * 0.01 * 10.0]], atol=1e-15)

    def test_update_magnitude_bound(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            p = parameter(rng.normal(size=(2, 3)))
            opt = AdamW([p], weight_decay=0.01)
            lr = 10 ** rng.uniform(-4, -1)
            for _ in range(5):
                p.grad = rng.normal(size=(2, 3)) * 10 ** rng.uniform(-2, 2)
                before = p.data.copy()
                opt.step(lr)
                bound = lr * (1.0 / (1.0 - opt.beta1) + opt.weight_decay * np.max(np.abs(before)))
                assert np.max(np.abs(p.data - before)) <= bound + 1e-12

    def test_nonfinite_gradient_names_parameter(self):
        p = parameter([[1.0]], name="loadings_raw")
        p.grad = np.array([[np.nan]])
        opt = AdamW([p])
        with pytest.raises(NumericalError, match="loadings_raw"):
            opt.step(0.001)

    @staticmethod
    def _snapshot(opts):
        return [(opt.t, [p.data.copy() for p in opt.params],
                 [m.copy() for m in opt._m], [v.copy() for v in opt._v]) for opt in opts]

    @staticmethod
    def _warm_groups(rng):
        """Three optimizers, as theta/phi/psi in training, one step in."""
        opts = [AdamW([parameter(rng.normal(size=(2, 3)), name=f"g{i}.p{j}")
                       for j in range(3)]) for i in range(3)]
        for opt in opts:
            for p in opt.params:
                p.grad = rng.normal(size=p.data.shape)
        step_all([(opt, 0.01) for opt in opts])
        for opt in opts:
            for p in opt.params:
                p.grad = rng.normal(size=p.data.shape)
        return opts

    def test_nonfinite_last_gradient_moves_no_group(self):
        opts = self._warm_groups(np.random.default_rng(3))
        opts[-1].params[-1].grad[1, 2] = np.inf
        before = self._snapshot(opts)
        with pytest.raises(NumericalError, match="g2.p2"):
            step_all([(opts[0], 0.01), (opts[1], 0.01), (opts[2], 0.1)])
        after = self._snapshot(opts)
        for (t0, d0, m0, v0), (t1, d1, m1, v1) in zip(before, after):
            assert t0 == t1 == 1
            for a, b in zip(d0 + m0 + v0, d1 + m1 + v1):
                np.testing.assert_array_equal(a, b)

    def test_nonfinite_last_gradient_moves_no_parameter_of_its_group(self):
        opt = self._warm_groups(np.random.default_rng(4))[0]
        opt.params[-1].grad[0, 0] = np.nan
        before = self._snapshot([opt])
        with pytest.raises(NumericalError):
            opt.step(0.01)
        (t0, d0, m0, v0), = before
        (t1, d1, m1, v1), = self._snapshot([opt])
        assert t0 == t1
        for a, b in zip(d0 + m0 + v0, d1 + m1 + v1):
            np.testing.assert_array_equal(a, b)

    def test_step_all_matches_separate_steps(self):
        a = self._warm_groups(np.random.default_rng(5))
        b = self._warm_groups(np.random.default_rng(5))
        step_all([(opt, 0.02) for opt in a])
        for opt in b:
            opt.step(0.02)
        for oa, ob in zip(a, b):
            for pa, pb in zip(oa.params, ob.params):
                np.testing.assert_array_equal(pa.data, pb.data)

    def test_negative_rate_anywhere_moves_no_group(self):
        opts = self._warm_groups(np.random.default_rng(6))
        before = self._snapshot(opts)
        with pytest.raises(ValueError):
            step_all([(opts[0], 0.01), (opts[1], 0.01), (opts[2], -1.0)])
        for (t0, d0, _, _), (t1, d1, _, _) in zip(before, self._snapshot(opts)):
            assert t0 == t1
            for x, y in zip(d0, d1):
                np.testing.assert_array_equal(x, y)


def _per_tensor_step(opt, moments, lr):
    """The per-tensor AdamW loop the flat update replaced, kept as the
    oracle: one moment pair per tensor in `moments`, updated in place, and
    every expression in its original evaluation order."""
    t = opt.t + 1
    b1, b2 = opt.beta1, opt.beta2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for p, (m, v) in zip(opt.params, moments):
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        mhat = m / bc1
        vhat = v / bc2
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + opt.eps) - lr * opt.weight_decay * p.data


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFlatAdamW:
    """The flat update gives the per-tensor loop's bits, and `_m`/`_v` are
    views of the flat moments."""

    @settings(max_examples=60, deadline=None)
    @given(shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1,
                           max_size=5),
           missing=st.lists(st.booleans(), min_size=5, max_size=5),
           weight_decay=st.sampled_from([0.0, 0.01, 0.3]),
           lrs=st.lists(st.sampled_from([0.0, 1e-3, 0.05, 1.0]), min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 16))
    def test_matches_per_tensor_loop_bit_for_bit(self, shapes, missing, weight_decay, lrs, seed):
        rng = np.random.default_rng(seed)
        init = [rng.normal(size=s) * 10 ** rng.uniform(-3, 3) for s in shapes]
        flat = AdamW([parameter(a) for a in init], weight_decay=weight_decay)
        loop = AdamW([parameter(a) for a in init], weight_decay=weight_decay)
        moments = [(np.zeros(s), np.zeros(s)) for s in shapes]
        for lr in lrs:
            for i, s in enumerate(shapes):
                g = None if missing[i] else rng.normal(size=s) * 10 ** rng.uniform(-4, 4)
                flat.params[i].grad = g
                loop.params[i].grad = None if g is None else g.copy()
            flat.step(lr)
            _per_tensor_step(loop, moments, lr)
            loop.t += 1
            assert flat.t == loop.t
            for p, q, m, v, (m_ref, v_ref) in zip(flat.params, loop.params, flat._m, flat._v,
                                                  moments):
                assert _same_bits(p.data, q.data)
                assert _same_bits(m, m_ref) and _same_bits(v, v_ref)
        for m, v in zip(flat._m, flat._v):
            assert np.shares_memory(m, flat._m_flat) and np.shares_memory(v, flat._v_flat)
        np.testing.assert_array_equal(np.concatenate([m.ravel() for m in flat._m]),
                                      flat._m_flat)
        np.testing.assert_array_equal(np.concatenate([v.ravel() for v in flat._v]),
                                      flat._v_flat)

    def test_step_all_matches_the_loop_and_gathers_each_group_once(self, monkeypatch):
        rng = np.random.default_rng(7)
        groups = [[rng.normal(size=(2, 3)), rng.normal(size=(1, 4))],
                  [rng.normal(size=(3, 3))]]
        opts = [AdamW([parameter(a) for a in g]) for g in groups]
        refs = [AdamW([parameter(a) for a in g]) for g in groups]
        moments = [[(np.zeros(a.shape), np.zeros(a.shape)) for a in g] for g in groups]
        calls = []
        original = AdamW._gather

        def gather(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(AdamW, "_gather", gather)
        for _ in range(3):
            for opt, ref in zip(opts, refs):
                for p, q in zip(opt.params, ref.params):
                    p.grad = rng.normal(size=p.data.shape)
                    q.grad = p.grad.copy()
            calls.clear()
            step_all([(opts[0], 0.01), (opts[1], 0.1)])
            assert calls == opts
            for ref, mom, lr in zip(refs, moments, (0.01, 0.1)):
                _per_tensor_step(ref, mom, lr)
                ref.t += 1
            for opt, ref in zip(opts, refs):
                for p, q in zip(opt.params, ref.params):
                    assert _same_bits(p.data, q.data)

    def test_failed_step_all_leaves_no_gradient_for_a_later_step(self):
        """A step after a refused step_all gathers the gradients it finds
        then, not the ones step_all had gathered."""
        rng = np.random.default_rng(8)
        a = AdamW([parameter(rng.normal(size=(2, 2)))])
        b = AdamW([parameter(rng.normal(size=(2, 2)), name="bad")])
        a.params[0].grad = rng.normal(size=(2, 2))
        b.params[0].grad = np.full((2, 2), np.nan)
        with pytest.raises(NumericalError, match="bad"):
            step_all([(a, 0.01), (b, 0.01)])
        ref = AdamW([parameter(a.params[0].data.copy())])
        a.params[0].grad = rng.normal(size=(2, 2))
        ref.params[0].grad = a.params[0].grad.copy()
        a.step(0.01)
        _per_tensor_step(ref, [(np.zeros((2, 2)), np.zeros((2, 2)))], 0.01)
        assert _same_bits(a.params[0].data, ref.params[0].data)

    def test_empty_group_steps(self):
        opt = AdamW([])
        opt.step(0.1)
        step_all([(opt, 0.1)])
        assert opt.t == 2


class TestClr:
    def test_cycle_start_is_base(self):
        s = ClrSchedule(base_lr=0.001, step_size=100)
        assert s.lr(0) == 0.001

    def test_cycle_peak_is_max(self):
        s = ClrSchedule(base_lr=0.001, step_size=100)
        assert s.lr(100) == pytest.approx(0.005)

    def test_default_max_is_five_times_base(self):
        s = ClrSchedule(base_lr=0.002)
        assert s.max_lr == pytest.approx(0.01)

    def test_periodicity(self):
        s = ClrSchedule(base_lr=0.001, step_size=37)
        for t in range(300):
            assert s.lr(t) == pytest.approx(s.lr(t + 2 * 37))

    def test_bounds_over_many_steps(self):
        s = ClrSchedule(base_lr=0.003, step_size=111)
        t = np.arange(1_000_000)
        pos = t % (2 * s.step_size) / s.step_size
        frac = np.where(pos > 1.0, 2.0 - pos, pos)
        lrs = s.base_lr + (s.max_lr - s.base_lr) * frac
        assert lrs.min() >= s.base_lr - 1e-15
        assert lrs.max() <= s.max_lr + 1e-15
        # spot-check the vectorized reference against the implementation
        for probe in (0, 1, 110, 111, 112, 221, 222, 999_999):
            assert s.lr(int(probe)) == pytest.approx(lrs[probe])


class TestConvergenceMonitor:
    def test_strictly_increasing_never_converges(self):
        mon = ConvergenceMonitor(patience=5, min_delta=1e-3)
        for k in range(100):
            assert mon.update(float(k)) == "continue"

    def test_constant_trace_converges_after_patience_flat_windows(self):
        mon = ConvergenceMonitor(patience=7, min_delta=1e-3)
        assert mon.update(1.0) == "continue"  # establishes the baseline
        outcomes = [mon.update(1.0) for _ in range(7)]
        assert outcomes[:-1] == ["continue"] * 6
        assert outcomes[-1] == "converged"

    def test_single_improvement_resets_counter(self):
        mon = ConvergenceMonitor(patience=3, min_delta=1e-3)
        mon.update(0.0)
        mon.update(0.0)
        mon.update(0.0)
        assert mon.windows_since_improvement == 2
        assert mon.update(1.0) == "continue"
        assert mon.windows_since_improvement == 0
        assert mon.update(1.0) == "continue"
        assert mon.update(1.0) == "continue"
        assert mon.update(1.0) == "converged"

    def test_sub_delta_gain_is_not_improvement(self):
        mon = ConvergenceMonitor(patience=2, min_delta=1e-3)
        mon.update(0.0)
        assert mon.update(0.0005) == "continue"
        assert mon.update(0.0009) == "converged"
