"""Tape autodiff: frozen scalar examples plus finite-difference gradient checks."""

import math

import numpy as np
import pytest
from scipy import special

from gradedvi import diffkernel as dk


def fd_gradient(f, x0, h=1e-5):
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x0.copy()
        xm = x0.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return g


def rel_err(a, b):
    denom = max(np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / denom


def scalarize(tape, t):
    """Weighted sum so the check exercises non-uniform output gradients."""
    w = dk.const(np.linspace(0.5, 1.5, t.data.size).reshape(t.shape))
    return dk.tsum(tape, dk.mul(tape, t, w))


# one entry per op: (name, n_inputs, builder, input transform)
def _shift_pos(x):
    return np.abs(x) + 0.5


OPS = {
    "matmul": (2, lambda tape, a, b: dk.matmul(tape, a, b), None),
    "matmul_repeat": (3, lambda tape, x, z, w: dk.matmul_repeat(tape, x, z, w), None),
    "transpose": (1, lambda tape, a: dk.transpose(tape, a), None),
    "add": (2, lambda tape, a, b: dk.add(tape, a, b), None),
    "sub": (2, lambda tape, a, b: dk.sub(tape, a, b), None),
    "mul": (2, lambda tape, a, b: dk.mul(tape, a, b), None),
    "div": (2, lambda tape, a, b: dk.div(tape, a, b), _shift_pos),
    "square": (1, lambda tape, a: dk.square(tape, a), None),
    "pow_const": (1, lambda tape, a: dk.pow_const(tape, a, -0.5), _shift_pos),
    "exp": (1, lambda tape, a: dk.exp(tape, a), None),
    "log": (1, lambda tape, a: dk.log(tape, a), _shift_pos),
    "log1p_exp": (1, lambda tape, a: dk.log1p_exp(tape, a), None),
    "gelu": (1, lambda tape, a: dk.gelu(tape, a), None),
    "sum": (1, lambda tape, a: dk.tsum(tape, a), None),
    "mean": (1, lambda tape, a: dk.tmean(tape, a), None),
    "sum_rows": (1, lambda tape, a: dk.sum_rows(tape, a), None),
    "logsumexp_rows": (1, lambda tape, a: dk.logsumexp_rows(tape, a), None),
    "broadcast_add_rowvec": (2, None, None),
    "mul_colvec": (2, None, None),
    "reshape": (1, lambda tape, a: dk.reshape(tape, a, 6, 2), None),
    "tril_inverse": (1, None, None),
    "repeat_rows": (1, lambda tape, a: dk.repeat_rows(tape, a, 3), None),
    "ordinal_loglik": (3, None, None),
}

# ordinal_loglik fixture: 3 respondents x 2 rows each, 3 items with 3, 2 and
# 3 categories (the second boundary of item 1 is padding), one entry missing
ORD_LEVELS = np.array([[0, 1, 2], [2, 0, 1], [1, 1, 0]])
ORD_MISSING = np.array([[False, False, False], [False, True, False], [False, False, False]])
ORD_CATEGORIES = np.array([3, 2, 3])


def _build_inputs(name, rng):
    """Random inputs for one op; shapes follow the op's contract."""
    transform = OPS[name][2]

    def draw(shape):
        x = rng.uniform(-1.0, 1.0, size=shape)
        return transform(x) if transform is not None else x

    if name == "matmul":
        return [draw((3, 4)), draw((4, 2))]
    if name == "matmul_repeat":
        # 2 respondents with 3 rows each; weight rows cover x's 3 and z's 2 columns
        return [draw((2, 3)), draw((6, 2)), draw((5, 4))]
    if name == "broadcast_add_rowvec":
        return [draw((3, 4)), draw((1, 4))]
    if name == "mul_colvec":
        return [draw((3, 4)), draw((3, 1))]
    if name == "tril_inverse":
        a = np.tril(rng.uniform(-1.0, 1.0, size=(4, 4)))
        np.fill_diagonal(a, rng.uniform(0.5, 1.5, size=4))
        return [a]
    if name == "ordinal_loglik":
        # logits, then strictly decreasing boundary intercepts per item
        cut1 = rng.uniform(0.2, 1.0, size=(3, 1))
        return [draw((6, 3)), cut1, cut1 - rng.uniform(0.5, 1.5, size=(3, 1))]
    n_in = OPS[name][0]
    return [draw((3, 4)) for _ in range(n_in)]


def _apply(name, tape, tensors):
    if name == "broadcast_add_rowvec":
        return dk.broadcast_add_rowvec(tape, tensors[0], tensors[1])
    if name == "mul_colvec":
        return dk.mul_colvec(tape, tensors[0], tensors[1])
    if name == "tril_inverse":
        return dk.tril_inverse(tape, tensors[0])
    if name == "ordinal_loglik":
        return dk.ordinal_loglik(tape, tensors[0], tensors[1:], ORD_LEVELS, ORD_MISSING,
                                 ORD_CATEGORIES, 1e-300, tile=2)
    return OPS[name][1](tape, *tensors)


@pytest.mark.parametrize("name", sorted(OPS))
def test_finite_difference_every_op(name):
    """Analytic gradients match central differences, 100 random seeds."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        arrays = _build_inputs(name, rng)
        tape = dk.Tape()
        tensors = [dk.parameter(a) for a in arrays]
        out = _apply(name, tape, tensors)
        root = scalarize(tape, out)
        tape.backward(root)
        for i, t in enumerate(tensors):
            def f(x, i=i):
                probe = [a.copy() for a in arrays]
                probe[i] = x
                t2 = dk.Tape()
                ts = [dk.const(a) for a in probe]
                if name == "tril_inverse":
                    # keep the perturbed matrix lower-triangular
                    ts[0] = dk.const(np.tril(probe[0]))
                return scalarize(t2, _apply(name, t2, ts)).item()

            if name == "tril_inverse":
                num = fd_gradient(f, arrays[i])
                num = np.tril(num)
                ana = np.tril(t.grad)
            else:
                num = fd_gradient(f, arrays[i])
                ana = t.grad
            worst = max(worst, rel_err(ana, num))
    assert worst < 1e-4, f"{name}: worst rel err {worst:.3e}"


class TestMatmul:
    def test_identity(self):
        m = np.array([[2.0, -1.0], [0.5, 3.0]])
        out = dk.matmul(None, dk.const(np.eye(2)), dk.const(m))
        np.testing.assert_array_equal(out.data, m)

    def test_row_sums(self):
        a = dk.const([[1.0, 2.0], [3.0, 4.0]])
        b = dk.const([[1.0], [1.0]])
        out = dk.matmul(None, a, b)
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch_names_both(self):
        with pytest.raises(dk.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            dk.matmul(None, dk.const(np.zeros((2, 3))), dk.const(np.zeros((2, 2))))

    def test_gradient_of_sum(self):
        rng = np.random.default_rng(7)
        a = dk.parameter(rng.uniform(-1, 1, (3, 4)))
        b_arr = rng.uniform(-1, 1, (4, 2))
        tape = dk.Tape()
        root = dk.tsum(tape, dk.matmul(tape, a, dk.const(b_arr)))
        tape.backward(root)
        num = fd_gradient(
            lambda x: float((x @ b_arr).sum()), a.data.copy())
        assert rel_err(a.grad, num) < 1e-6


class TestMatmulRepeat:
    def _arrays(self, B, t, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(B, 3)), rng.normal(size=(B * t, 2)), rng.normal(size=(5, 4))

    @pytest.mark.parametrize("t", [1, 4])
    def test_matches_repeat_then_matmul(self, t):
        x, z, w = self._arrays(3, t)
        got = dk.matmul_repeat(None, dk.const(x), dk.const(z), dk.const(w)).data
        expected = np.hstack([np.repeat(x, t, axis=0), z]) @ w
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("t", [1, 4])
    def test_gradients_match_repeat_then_matmul(self, t):
        x_arr, z_arr, w_arr = self._arrays(3, t, seed=1)
        g = np.random.default_rng(2).normal(size=(3 * t, 4))
        x, z, w = (dk.parameter(a) for a in (x_arr, z_arr, w_arr))
        tape = dk.Tape()
        out = dk.matmul_repeat(tape, x, z, w)
        tape.backward(dk.tsum(tape, dk.mul(tape, out, dk.const(g))))
        np.testing.assert_allclose(w.grad, np.hstack([np.repeat(x_arr, t, 0), z_arr]).T @ g,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, (g @ w_arr[:3].T).reshape(3, t, 3).sum(axis=1),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(z.grad, g @ w_arr[3:].T, rtol=0, atol=1e-12)

    def test_frozen_weight_gets_no_gradient(self):
        x_arr, z_arr, w_arr = self._arrays(2, 3, seed=3)
        x, z, w = dk.parameter(x_arr), dk.parameter(z_arr), dk.const(w_arr)
        tape = dk.Tape()
        tape.backward(dk.tsum(tape, dk.matmul_repeat(tape, x, z, w)))
        assert w.grad is None
        assert x.grad.shape == x.shape and z.grad.shape == z.shape

    @pytest.mark.parametrize("x_shape, z_shape, w_shape", [
        ((2, 3), (5, 2), (5, 4)),     # 5 rows are not a multiple of 2
        ((2, 3), (4, 2), (6, 4)),     # weight rows != 3 + 2
        ((0, 3), (4, 2), (5, 4)),
    ], ids=["rows", "weight", "no-respondents"])
    def test_shape_errors(self, x_shape, z_shape, w_shape):
        with pytest.raises(dk.ShapeError, match="matmul_repeat"):
            dk.matmul_repeat(None, dk.const(np.zeros(x_shape)), dk.const(np.zeros(z_shape)),
                             dk.const(np.zeros(w_shape)))


class TestGelu:
    def test_zero(self):
        assert dk.gelu(None, dk.const([[0.0]])).item() == 0.0

    def test_two(self):
        # 2 * Phi(2) computed via erf
        expected = 2.0 * 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0)))
        got = dk.gelu(None, dk.const([[2.0]])).item()
        assert abs(got - expected) < 1e-12
        assert abs(got - 1.95450) < 1e-5

    def test_deep_negative_tail(self):
        assert abs(dk.gelu(None, dk.const([[-10.0]])).item()) < 1e-8

    def test_matches_erf_form(self):
        # the two Phi agree to about an ulp; multiplying by x scales that by |x|
        x = np.linspace(-40.0, 40.0, 400_001).reshape(1, -1)
        erf_form = x * 0.5 * (1.0 + special.erf(x / math.sqrt(2.0)))
        diff = np.abs(dk.gelu(None, dk.const(x)).data - erf_form)
        assert np.all(diff <= 1e-15 * np.maximum(1.0, np.abs(x)))


class TestElementwise:
    def test_softplus_zero(self):
        assert abs(dk.log1p_exp(None, dk.const([[0.0]])).item() - math.log(2.0)) < 1e-12

    def test_square_gradient_power_rule(self):
        tape = dk.Tape()
        x = dk.parameter([[3.0]])
        root = dk.tsum(tape, dk.square(tape, x))
        tape.backward(root)
        assert x.grad[0, 0] == 6.0

    def test_exp_log_inverse(self):
        rng = np.random.default_rng(3)
        x = np.abs(rng.uniform(0.1, 5.0, (3, 4)))
        out = dk.exp(None, dk.log(None, dk.const(x)))
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_log_domain_error_reports_index(self):
        x = np.array([[1.0, 2.0], [-0.5, 1.0]])
        with pytest.raises(dk.DomainError, match=r"\(1, 0\)"):
            dk.log(None, dk.const(x))

    def test_softplus_overflow_free(self):
        out = dk.log1p_exp(None, dk.const([[800.0, -800.0]]))
        assert np.isfinite(out.data).all()
        assert abs(out.data[0, 0] - 800.0) < 1e-12


class TestLogsumexpRows:
    def test_two_zeros(self):
        out = dk.logsumexp_rows(None, dk.const([[0.0, 0.0]]))
        assert abs(out.item() - math.log(2.0)) < 1e-12

    def test_large_values_no_overflow(self):
        out = dk.logsumexp_rows(None, dk.const([[1000.0, 1000.0]]))
        assert abs(out.item() - (1000.0 + math.log(2.0))) < 1e-9

    def test_backward_is_row_softmax(self):
        rng = np.random.default_rng(11)
        x_arr = rng.uniform(-2, 2, (3, 5))
        tape = dk.Tape()
        x = dk.parameter(x_arr)
        root = dk.tsum(tape, dk.logsumexp_rows(tape, x))
        tape.backward(root)
        e = np.exp(x_arr - x_arr.max(axis=1, keepdims=True))
        soft = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(x.grad, soft, atol=1e-12)

    def test_bounds_property(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.uniform(-50, 50, (4, 6))
            out = dk.logsumexp_rows(None, dk.const(x)).data[:, 0]
            assert np.all(out >= x.max(axis=1))
            assert np.all(out <= x.max(axis=1) + math.log(6) + 1e-12)


class TestStopGradient:
    def test_identity_forward(self):
        x = np.array([[1.0, -2.0]])
        np.testing.assert_array_equal(dk.stop_gradient(None, dk.const(x)).data, x)

    def test_only_live_factor_contributes(self):
        tape = dk.Tape()
        x = dk.parameter([[2.0, -3.0]])
        frozen = dk.stop_gradient(tape, x)
        root = dk.tsum(tape, dk.mul(tape, frozen, x))
        tape.backward(root)
        np.testing.assert_array_equal(x.grad, x.data)

    def test_nested_idempotent(self):
        x = dk.parameter([[1.0]])
        out = dk.stop_gradient(None, dk.stop_gradient(None, x))
        assert not out.requires_grad
        assert out.data[0, 0] == 1.0


class TestTape:
    def test_each_node_visited_once(self):
        # count backward invocations via gradient magnitude on a diamond graph
        tape = dk.Tape()
        x = dk.parameter([[1.0]])
        y = dk.add(tape, x, x)          # dy/dx = 2
        z = dk.mul(tape, y, y)          # z = y^2 -> dz/dx = 2y * 2 = 8
        tape.backward(dk.tsum(tape, z))
        assert x.grad[0, 0] == 8.0

    def test_repeated_backward_rejected(self):
        tape = dk.Tape()
        x = dk.parameter([[1.0]])
        root = dk.tsum(tape, dk.square(tape, x))
        tape.backward(root)
        with pytest.raises(dk.TapeError):
            tape.backward(root)

    def test_backward_needs_scalar_root(self):
        tape = dk.Tape()
        x = dk.parameter([[1.0, 2.0]])
        y = dk.square(tape, x)
        with pytest.raises(dk.ShapeError):
            tape.backward(y)

    def test_grad_shape_matches(self):
        tape = dk.Tape()
        x = dk.parameter(np.ones((3, 4)))
        tape.backward(dk.tsum(tape, dk.gelu(tape, x)))
        assert x.grad.shape == x.shape


class TestRowScale:
    """Tape.backward(root, row_scale=(h, c)) scales the rows of h's finished
    gradient before h's producer runs."""

    def _graph(self, tape, seed=31):
        rng = np.random.default_rng(seed)
        x = dk.parameter(rng.normal(size=(4, 3)))
        w = dk.parameter(rng.normal(size=(3, 2)))
        a = dk.parameter(rng.normal(size=(4, 2)))
        v = dk.parameter(rng.normal(size=(2, 2)))
        h = dk.matmul(tape, x, w)
        root = dk.add(tape, dk.tsum(tape, dk.mul(tape, dk.square(tape, h), a)),
                      dk.tsum(tape, dk.exp(tape, v)))
        return root, h, {"x": x, "w": w, "a": a, "v": v}

    def _grads(self, row_scale_of=None):
        tape = dk.Tape()
        root, h, leaves = self._graph(tape)
        scale = None if row_scale_of is None else (h, row_scale_of(h))
        tape.backward(root, row_scale=scale)
        return h, leaves

    def test_ones_change_nothing(self):
        _, plain = self._grads()
        _, ones = self._grads(lambda h: np.ones((h.rows, 1)))
        for name in plain:
            np.testing.assert_array_equal(ones[name].grad, plain[name].grad)

    def test_upstream_gets_exactly_the_scaled_gradient(self):
        c = np.array([[0.5], [2.0], [-1.0], [0.0]])
        h, leaves = self._grads(lambda h: c)
        g_h = 2.0 * h.data * leaves["a"].data * c
        np.testing.assert_array_equal(h.grad, g_h)
        np.testing.assert_array_equal(leaves["x"].grad, g_h @ leaves["w"].data.T)
        np.testing.assert_array_equal(leaves["w"].grad, leaves["x"].data.T @ g_h)

    def test_leaves_not_upstream_untouched(self):
        _, plain = self._grads()
        _, scaled = self._grads(lambda h: np.array([[0.5], [2.0], [-1.0], [3.0]]))
        for name in ("a", "v"):
            np.testing.assert_array_equal(scaled[name].grad, plain[name].grad)

    @pytest.mark.parametrize("shape", [(4,), (3, 1), (4, 2), (1, 4)])
    def test_wrong_shape_raises(self, shape):
        tape = dk.Tape()
        root, h, _ = self._graph(tape)
        with pytest.raises(dk.ShapeError):
            tape.backward(root, row_scale=(h, np.ones(shape)))

    def test_tensor_off_the_tape_rejected(self):
        tape = dk.Tape()
        root, _, leaves = self._graph(tape)
        with pytest.raises(dk.TapeError):
            tape.backward(root, row_scale=(leaves["x"], np.ones((4, 1))))


class TestRepeatRows:
    def test_rows_repeat_back_to_back(self):
        out = dk.repeat_rows(None, dk.const([[1.0, 2.0], [3.0, 4.0]]), 2)
        np.testing.assert_array_equal(out.data, [[1, 2], [1, 2], [3, 4], [3, 4]])

    def test_backward_sums_each_group(self):
        tape = dk.Tape()
        x = dk.parameter([[1.0], [2.0]])
        out = dk.repeat_rows(tape, x, 3)
        w = dk.const(np.arange(6.0).reshape(6, 1))
        tape.backward(dk.tsum(tape, dk.mul(tape, out, w)))
        np.testing.assert_array_equal(x.grad, [[0 + 1 + 2], [3 + 4 + 5]])

    def test_single_repeat_is_identity(self):
        x = dk.parameter([[1.0, 2.0]])
        assert dk.repeat_rows(dk.Tape(), x, 1) is x

    def test_nonpositive_count_rejected(self):
        with pytest.raises(dk.ShapeError):
            dk.repeat_rows(None, dk.const([[1.0]]), 0)


class TestOrdinalLoglik:
    def test_logits_must_match_respondents_times_tile(self):
        with pytest.raises(dk.ShapeError):
            dk.ordinal_loglik(None, dk.const(np.zeros((5, 3))), [dk.const(np.zeros((3, 1)))],
                              np.zeros((3, 3), dtype=int), np.zeros((3, 3), dtype=bool),
                              np.array([2, 2, 2]), 1e-300, tile=2)

    def test_two_categories_is_bernoulli(self):
        # one boundary: P(y=1) = sigmoid(t + a), P(y=0) = 1 - sigmoid(t + a)
        t, a = 0.3, -0.1
        s = 1.0 / (1.0 + math.exp(-(t + a)))
        for level, expected in ((0, math.log(1.0 - s)), (1, math.log(s))):
            out = dk.ordinal_loglik(None, dk.const([[t]]), [dk.const([[a]])],
                                    np.array([[level]]), np.array([[False]]), np.array([2]),
                                    1e-300)
            assert abs(out.item() - expected) < 1e-15
