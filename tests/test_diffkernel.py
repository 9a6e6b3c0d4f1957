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
    "mul_colvec": (2, None, None),
    "reshape": (1, lambda tape, a: dk.reshape(tape, a, 6, 2), None),
    "tril_inverse": (1, None, None),
    "repeat_rows": (1, lambda tape, a: dk.repeat_rows(tape, a, 3), None),
    "ordinal_loglik": (2, None, None),
    "ordered_cuts": (1, lambda tape, a: dk.ordered_cuts(tape, a, 1e-6), None),
}

# dk.feedforward, one entry per variant "feedforward:<variant>": the layer
# activations, the rows per feature row (t; 0 for no feature input) and, for
# a split forward, the route whose output is checked.  Inputs are
# [x (when t > 0), h, w0, b0, w1, b1]: 2 feature columns, 3 input columns,
# a hidden width of 4 and 2 outputs.
FEEDFORWARD = {
    "gelu-identity": ((True, False), 0, None),
    "gelu-gelu": ((True, True), 0, None),
    "t1": ((True, False), 1, None),
    "t3": ((True, False), 3, None),
    "to_inputs-t1": ((True, False), 1, "to_inputs"),
    "to_inputs-t3": ((True, False), 3, "to_inputs"),
    "to_weights-t1": ((True, False), 1, "to_weights"),
    "to_weights-t3": ((True, False), 3, "to_weights"),
}
for _variant, (_acts, _t, _) in FEEDFORWARD.items():
    OPS[f"feedforward:{_variant}"] = (5 + (_t > 0), None, None)


def _feedforward(tape, tensors, variant):
    acts, t, route = FEEDFORWARD[variant]
    x, h, w0, b0, w1, b1 = tensors if t else [None, *tensors]
    out = dk.feedforward(tape, h, [(w0, b0, acts[0]), (w1, b1, acts[1])], x=x,
                         split=route is not None)
    return out if route is None else out[route == "to_weights"]


def _unreached(name):
    """Indices of the inputs a split route must leave without a gradient
    (the split variants take [x, h, w0, b0, w1, b1])."""
    route = FEEDFORWARD[name.split(":")[1]][2] if name.startswith("feedforward:") else None
    return {"to_inputs": {2, 3, 4, 5}, "to_weights": {0, 1}}.get(route, set())

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
    if name.startswith("feedforward:"):
        t = FEEDFORWARD[name.split(":")[1]][1]
        x = [draw((2, 2))] if t else []
        rows = 2 * t if t else 4
        return x + [draw((rows, 3)), draw((3 + 2 * (t > 0), 4)), draw((1, 4)),
                    draw((4, 2)), draw((1, 2))]
    if name == "mul_colvec":
        return [draw((3, 4)), draw((3, 1))]
    if name == "tril_inverse":
        a = np.tril(rng.uniform(-1.0, 1.0, size=(4, 4)))
        np.fill_diagonal(a, rng.uniform(0.5, 1.5, size=4))
        return [a]
    if name == "ordinal_loglik":
        # logits, then strictly decreasing boundary intercepts per item
        cut1 = rng.uniform(0.2, 1.0, size=(3, 1))
        return [draw((6, 3)), np.hstack([cut1, cut1 - rng.uniform(0.5, 1.5, size=(3, 1))])]
    if name == "ordered_cuts":
        # first intercept and two raw gaps per item, over both softplus tails
        return [rng.uniform(-3.0, 3.0, size=(3, 3))]
    n_in = OPS[name][0]
    return [draw((3, 4)) for _ in range(n_in)]


def _apply(name, tape, tensors):
    if name.startswith("feedforward:"):
        return _feedforward(tape, tensors, name.split(":")[1])
    if name == "mul_colvec":
        return dk.mul_colvec(tape, tensors[0], tensors[1])
    if name == "tril_inverse":
        return dk.tril_inverse(tape, tensors[0])
    if name == "ordinal_loglik":
        return dk.ordinal_loglik(tape, tensors[0], tensors[1], ORD_LEVELS, ORD_MISSING,
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
        unreached = _unreached(name)
        for i, t in enumerate(tensors):
            if i in unreached:
                assert t.grad is None, f"{name}: input {i} got a gradient"
                continue

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
    """The first layer of `dk.feedforward` with a feature input x computes
    [repeat_rows(x, t), z] @ w without building the repeat."""

    def _arrays(self, B, t, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(B, 3)), rng.normal(size=(B * t, 2)), rng.normal(size=(5, 4))

    @staticmethod
    def _layer(tape, x, z, w):
        return dk.feedforward(tape, z, [(w, dk.const(np.zeros((1, w.cols))), False)], x=x)

    @pytest.mark.parametrize("t", [1, 4])
    def test_matches_repeat_then_matmul(self, t):
        x, z, w = self._arrays(3, t)
        got = self._layer(None, dk.const(x), dk.const(z), dk.const(w)).data
        expected = np.hstack([np.repeat(x, t, axis=0), z]) @ w
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("t", [1, 4])
    def test_gradients_match_repeat_then_matmul(self, t):
        x_arr, z_arr, w_arr = self._arrays(3, t, seed=1)
        g = np.random.default_rng(2).normal(size=(3 * t, 4))
        x, z, w = (dk.parameter(a) for a in (x_arr, z_arr, w_arr))
        tape = dk.Tape()
        out = self._layer(tape, x, z, w)
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
        tape.backward(dk.tsum(tape, self._layer(tape, x, z, w)))
        assert w.grad is None
        assert x.grad.shape == x.shape and z.grad.shape == z.shape

    @pytest.mark.parametrize("x_shape, z_shape, w_shape", [
        ((2, 3), (5, 2), (5, 4)),     # 5 rows are not a multiple of 2
        ((2, 3), (4, 2), (6, 4)),     # weight rows != 3 + 2
        ((0, 3), (4, 2), (5, 4)),
    ], ids=["rows", "weight", "no-respondents"])
    def test_shape_errors(self, x_shape, z_shape, w_shape):
        with pytest.raises(dk.ShapeError, match="feedforward"):
            self._layer(None, dk.const(np.zeros(x_shape)), dk.const(np.zeros(z_shape)),
                        dk.const(np.zeros(w_shape)))


class TestFeedforward:
    def _net(self, seed=0, t=3):
        rng = np.random.default_rng(seed)
        x = dk.parameter(rng.normal(size=(2, 2)))
        h = dk.parameter(rng.normal(size=(2 * t, 3)))
        layers = [(dk.parameter(rng.normal(size=(5, 4))), dk.parameter(rng.normal(size=(1, 4))),
                   True),
                  (dk.parameter(rng.normal(size=(4, 4))), dk.parameter(rng.normal(size=(1, 4))),
                   True),
                  (dk.parameter(rng.normal(size=(4, 1))), dk.parameter(rng.normal(size=(1, 1))),
                   False)]
        return x, h, layers

    def test_matches_layer_by_layer_composition(self):
        x, h, layers = self._net()
        a = np.hstack([np.repeat(x.data, 3, axis=0), h.data])
        for w, b, gelu_on in layers:
            a = a @ w.data + b.data
            if gelu_on:
                a = a * special.ndtr(a)
        got = dk.feedforward(None, h, layers, x=x).data
        np.testing.assert_allclose(got, a, rtol=0, atol=1e-13)

    def test_split_outputs_share_the_forward(self):
        x, h, layers = self._net()
        whole = dk.feedforward(None, h, layers, x=x)
        to_inputs, to_weights = dk.feedforward(dk.Tape(), h, layers, x=x, split=True)
        np.testing.assert_array_equal(to_inputs.data, whole.data)
        assert to_weights.data is to_inputs.data

    def test_split_routes_add_up_to_the_whole_gradient(self):
        x, h, layers = self._net(seed=1)
        leaves = [x, h] + [p for w, b, _ in layers for p in (w, b)]

        def grads(split):
            tape = dk.Tape()
            out = dk.feedforward(tape, h, layers, x=x, split=split)
            root = (dk.add(tape, dk.tsum(tape, out[0]), dk.tsum(tape, out[1])) if split
                    else dk.tsum(tape, out))
            tape.backward(root)
            found = [p.grad for p in leaves]
            for p in leaves:
                p.grad = None
            return found

        for a, b in zip(grads(True), grads(False), strict=True):
            np.testing.assert_array_equal(a, b)

    def test_records_one_node_per_route(self):
        x, h, layers = self._net()
        tape = dk.Tape()
        dk.feedforward(tape, h, layers, x=x)
        assert len(tape) == 1
        tape = dk.Tape()
        dk.feedforward(tape, h, layers, x=x, split=True)
        assert len(tape) == 2
        tape = dk.Tape()
        const_layers = [(dk.const(w.data), dk.const(b.data), g) for w, b, g in layers]
        dk.feedforward(tape, dk.const(h.data), const_layers, x=dk.const(x.data), split=True)
        assert len(tape) == 0

    def test_frozen_lower_layers_keep_the_trained_layers_gradient(self):
        # only the last layer trains; its gradient is the one the whole net gives it
        x, h, layers = self._net(seed=2)
        frozen = [(dk.const(w.data), dk.const(b.data), g) for w, b, g in layers[:2]]
        w, b, _ = layers[2]

        def last_layer_grads(net, split):
            tape = dk.Tape()
            out = dk.feedforward(tape, dk.const(h.data), net, x=dk.const(x.data), split=split)
            tape.backward(dk.tsum(tape, out[1] if split else out))
            found = w.grad, b.grad
            for w_l, b_l, _ in layers:
                w_l.grad = b_l.grad = None
            return found

        for a, c in zip(last_layer_grads(frozen + layers[2:], True),
                        last_layer_grads(layers, False), strict=True):
            np.testing.assert_array_equal(a, c)

    def test_layer_widths_must_chain(self):
        x, h, layers = self._net()
        with pytest.raises(dk.ShapeError, match="feedforward"):
            dk.feedforward(None, h, [layers[0], layers[0]], x=x)


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
            dk.ordinal_loglik(None, dk.const(np.zeros((5, 3))), dk.const(np.zeros((3, 1))),
                              np.zeros((3, 3), dtype=int), np.zeros((3, 3), dtype=bool),
                              np.array([2, 2, 2]), 1e-300, tile=2)

    def test_two_categories_is_bernoulli(self):
        # one boundary: P(y=1) = sigmoid(t + a), P(y=0) = 1 - sigmoid(t + a)
        t, a = 0.3, -0.1
        s = 1.0 / (1.0 + math.exp(-(t + a)))
        for level, expected in ((0, math.log(1.0 - s)), (1, math.log(s))):
            out = dk.ordinal_loglik(None, dk.const([[t]]), dk.const([[a]]),
                                    np.array([[level]]), np.array([[False]]), np.array([2]),
                                    1e-300)
            assert abs(out.item() - expected) < 1e-15


class TestOrderedCuts:
    def test_hand_computed(self):
        raw = np.array([[0.5, 0.0, math.log(math.e - 1.0)]])
        out = dk.ordered_cuts(None, dk.const(raw), 1e-6).data
        gap0 = math.log(2.0) + 1e-6
        np.testing.assert_allclose(out, [[0.5, 0.5 - gap0, 0.5 - gap0 - 1.0 - 1e-6]],
                                   rtol=0, atol=1e-15)

    def test_matches_the_per_column_chain_bit_for_bit(self):
        """Forward and backward equal, exactly, one log1p_exp, add and sub
        node per gap column, the loop this op replaces."""
        rng = np.random.default_rng(5)
        raw0 = rng.uniform(-3.0, 3.0, size=(6, 4))
        w = rng.uniform(0.5, 1.5, size=(6, 4))

        raw = dk.parameter(raw0)
        tape = dk.Tape()
        out = dk.ordered_cuts(tape, raw, 1e-6)
        tape.backward(dk.tsum(tape, dk.mul(tape, out, dk.const(w))))

        cols = [dk.parameter(raw0[:, k:k + 1]) for k in range(4)]
        tape = dk.Tape()
        alpha = [cols[0]]
        for c in cols[1:]:
            alpha.append(dk.sub(tape, alpha[-1], dk.add(tape, dk.log1p_exp(tape, c), 1e-6)))
        terms = [dk.tsum(tape, dk.mul(tape, a, dk.const(w[:, k:k + 1])))
                 for k, a in enumerate(alpha)]
        root = terms[0]
        for t in terms[1:]:
            root = dk.add(tape, root, t)
        tape.backward(root)

        np.testing.assert_array_equal(out.data, np.hstack([a.data for a in alpha]))
        np.testing.assert_array_equal(raw.grad, np.hstack([c.grad for c in cols]))

    def test_strictly_decreasing_at_extreme_raw(self):
        raw = np.array([[3.0, -50.0, 40.0, -800.0], [-2.0, 800.0, -50.0, 0.0]])
        out = dk.ordered_cuts(None, dk.const(raw), 1e-6).data
        assert (np.diff(out, axis=1) < 0).all()

    def test_padded_column_gets_no_gradient_through_the_likelihood(self):
        """The ORD fixture's item 1 has 2 categories, so its second cut is
        padding: the likelihood never reads it, and its raw gap gets an
        exact zero; every other entry matches central differences."""
        rng = np.random.default_rng(3)
        logits = rng.uniform(-1.0, 1.0, size=(6, 3))
        raw0 = rng.uniform(-1.0, 1.0, size=(3, 2))

        def objective(raw_tensor, tape=None):
            cuts = dk.ordered_cuts(tape, raw_tensor, 1e-6)
            out = dk.ordinal_loglik(tape, dk.const(logits), cuts, ORD_LEVELS, ORD_MISSING,
                                    ORD_CATEGORIES, 1e-300, tile=2)
            return scalarize(tape, out)

        raw = dk.parameter(raw0)
        tape = dk.Tape()
        tape.backward(objective(raw, tape))
        assert raw.grad[1, 1] == 0.0
        assert np.all(raw.grad[[0, 2], 1] != 0.0)
        num = fd_gradient(lambda x: objective(dk.const(x)).item(), raw0)
        assert rel_err(raw.grad, num) < 1e-6


def test_every_tape_op_has_a_finite_difference_entry():
    """OPS lists exactly the public diffkernel functions taking `tape` first,
    under the name each records (tsum records "sum", tmean "mean"), with
    variants of one op as "<op>:<variant>"; stop_gradient records no node."""
    import inspect

    recorded = {"tsum": "sum", "tmean": "mean"}
    ops = {recorded.get(name, name)
           for name, fn in inspect.getmembers(dk, inspect.isfunction)
           if not name.startswith("_") and fn.__module__ == dk.__name__
           and next(iter(inspect.signature(fn).parameters), None) == "tape"}
    ops.discard("stop_gradient")
    assert ops == {name.split(":")[0] for name in OPS}
