"""Tape autodiff: frozen scalar examples plus finite-difference gradient checks."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

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
    "exp": (1, lambda tape, a: dk.exp(tape, a), None),
    "log": (1, lambda tape, a: dk.log(tape, a), _shift_pos),
    "log1p_exp": (1, lambda tape, a: dk.log1p_exp(tape, a), None),
    "gelu": (1, lambda tape, a: dk.gelu(tape, a), None),
    "sum": (1, lambda tape, a: dk.tsum(tape, a), None),
    "mean": (1, lambda tape, a: dk.tmean(tape, a), None),
    "sum_rows": (1, lambda tape, a: dk.sum_rows(tape, a), None),
    "logsumexp_rows": (1, lambda tape, a: dk.logsumexp_rows(tape, a), None),
    "reshape": (1, lambda tape, a: dk.reshape(tape, a, 6, 2), None),
    "ordinal_loglik": (2, None, None),
    "ordered_cuts": (1, lambda tape, a: dk.ordered_cuts(tape, a, 1e-6), None),
    "gaussian_kl": (2, lambda tape, mu, sigma: dk.gaussian_kl(tape, mu, sigma), None),
    "gaussian_draws": (2, lambda tape, mu, sigma: dk.gaussian_draws(tape, mu, sigma, GAUSS_U),
                       None),
    "diag_normal_logpdf": (1, lambda tape, z: dk.diag_normal_logpdf(tape, z, GAUSS_MU,
                                                                    GAUSS_SIGMA), None),
    "correlated_normal_logpdf": (2, lambda tape, z, raw: dk.correlated_normal_logpdf(tape, z, raw),
                                 None),
}

# gaussian_draws and diag_normal_logpdf fixture: 2 respondents of 3 factors
# with 3 rows each; the noise, and the mean and scale of the log density, are
# plain arrays
_gauss_rng = np.random.default_rng(77)
GAUSS_U = _gauss_rng.normal(size=(6, 3))
GAUSS_MU = _gauss_rng.normal(size=(2, 3))
GAUSS_SIGMA = _shift_pos(_gauss_rng.normal(size=(2, 3)))

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
    if name == "ordinal_loglik":
        # logits, then strictly decreasing boundary intercepts per item
        cut1 = rng.uniform(0.2, 1.0, size=(3, 1))
        return [draw((6, 3)), np.hstack([cut1, cut1 - rng.uniform(0.5, 1.5, size=(3, 1))])]
    if name in ("gaussian_kl", "gaussian_draws"):
        # mu of either sign, sigma strictly positive
        shape = (3, 4) if name == "gaussian_kl" else GAUSS_MU.shape
        return [draw(shape), _shift_pos(draw(shape))]
    if name == "diag_normal_logpdf":
        return [draw(GAUSS_U.shape)]
    if name == "correlated_normal_logpdf":
        # draws of 3 factors, and a raw factor over both softplus tails whose
        # upper triangle the prior ignores
        return [rng.normal(size=(5, 3)), rng.uniform(-2.0, 2.0, size=(3, 3))]
    if name == "ordered_cuts":
        # first intercept and two raw gaps per item, over both softplus tails
        return [rng.uniform(-3.0, 3.0, size=(3, 3))]
    n_in = OPS[name][0]
    return [draw((3, 4)) for _ in range(n_in)]


def _apply(name, tape, tensors):
    if name.startswith("feedforward:"):
        return _feedforward(tape, tensors, name.split(":")[1])
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
                return scalarize(t2, _apply(name, t2, ts)).item()

            worst = max(worst, rel_err(t.grad, fd_gradient(f, arrays[i])))
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
    [np.repeat(x, t, axis=0), z] @ w without building the repeat."""

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

    @pytest.mark.parametrize("split", [False, True])
    def test_zero_draw_rows_give_zero_gradients(self, split):
        """Two respondents with no draws: a (0, 1) output, and every
        gradient comes out as zeros of its tensor's shape."""
        x, h, layers = self._net(t=0)
        tape = dk.Tape()
        out = dk.feedforward(tape, h, layers, x=x, split=split)
        outs = out if split else (out,)
        assert all(o.shape == (0, 1) for o in outs)
        root = dk.tsum(tape, outs[0])
        for o in outs[1:]:
            root = dk.add(tape, root, dk.tsum(tape, o))
        tape.backward(root)
        for p in [x, h] + [p for w, b, _ in layers for p in (w, b)]:
            assert p.grad.shape == p.shape
            assert not p.grad.any()


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


SERIAL = 1 << 62  # a _SPLIT_MIN_VALUES no kernel reaches


def _split_and_serial(monkeypatch, compute):
    """compute() with every kernel split and GELU in chunks of 12 values,
    then with every kernel serial and GELU in chunks of the default size."""
    out = []
    for threshold, chunk in ((1, 12), (SERIAL, dk._CHUNK_VALUES)):
        monkeypatch.setattr(dk, "_SPLIT_MIN_VALUES", threshold)
        monkeypatch.setattr(dk, "_CHUNK_VALUES", chunk)
        out.append(compute())
    return out


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _two_cpus():
    return dk._cpu_count() >= 2


# weight-gradient shapes (fan-in, fan-out) and draw counts of the fan-in split tests
WEIGHT_GRAD_SHAPES = [(256, 128), (128, 256), (55, 256), (128, 5), (128, 1), (256, 1), (64, 64),
                      (192, 100)]
WEIGHT_GRAD_DRAWS = [128, 200, 3200]

# argv[1]: JSON list of (n, fan_in, fan_out); prints the cases whose split
# weight gradient differs from a.T @ g, and how many cases split
_WEIGHT_GRAD_CHILD = """
import json, sys
import numpy as np
from gradedvi import diffkernel as dk
dk._SPLIT_MIN_VALUES = 1
differ, split = [], 0
for n, fan_in, fan_out in json.loads(sys.argv[1]):
    rng = np.random.default_rng(13)
    a, g = rng.normal(size=(n, fan_in)), rng.normal(size=(n, fan_out))
    split += dk._matmul_splits_exactly(fan_in, n, fan_out)
    if dk._split_matmul(a.T, g).tobytes() != (a.T @ g).tobytes():
        differ.append([n, fan_in, fan_out])
print(json.dumps({"differ": differ, "split": split}))
"""


def _split_in_child():
    out = np.zeros(8)

    def fill(lo, hi):
        out[lo:hi] = np.arange(lo, hi)

    dk._split_rows(fill, 8, 8)
    return out.tolist()


class TestSplitRows:
    """`dk._split_rows` and the kernels that use it give the same bits split
    and serial; the helper itself splits only where it is safe."""

    @pytest.mark.parametrize("variant", ["plain", "x", "split"])
    def test_feedforward_split_matches_serial(self, monkeypatch, variant):
        def run():
            rng = np.random.default_rng(5)
            x = None if variant == "plain" else dk.parameter(rng.normal(size=(7, 2)))
            h = dk.parameter(rng.normal(size=(35, 3)))
            width = 3 if x is None else 5
            layers = [(dk.parameter(rng.normal(size=(a, b))), dk.parameter(rng.normal(size=(1, b))),
                       gelu_on) for a, b, gelu_on in ((width, 6, True), (6, 6, True), (6, 2, False))]
            tape = dk.Tape()
            out = dk.feedforward(tape, h, layers, x=x, split=variant == "split")
            outs = out if variant == "split" else (out,)
            root = scalarize(tape, outs[0])
            for o in outs[1:]:
                root = dk.add(tape, root, scalarize(tape, o))
            tape.backward(root)
            leaves = [h] + ([] if x is None else [x]) + [p for w, b, _ in layers for p in (w, b)]
            assert all(p.grad is not None for p in leaves)
            return [o.data for o in outs] + [p.grad for p in leaves]

        split, serial = _split_and_serial(monkeypatch, run)
        for a, b in zip(split, serial, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("B, t, grain", [(128, 25, 64), (1, 5000, 64), (3, 7, 16),
                                             (3, 50, 64), (1, 4999, 64)],
                             ids=["batch", "heldout-block", "tiny", "cut-in-respondent",
                                  "odd-rows"])
    @pytest.mark.parametrize("route", [None, "split"])
    def test_feedforward_layer_split_matches_serial(self, monkeypatch, B, t, grain, route):
        """A discriminator-shaped net (10 feature and 5 latent columns, GELU
        layers of 256 and 128, one output) at training's 128 x 25 draws, a
        heldout block of 5,000 draws and an odd row count; at 3 x 7 rows a
        16-row grain cuts respondent 2 and its 5-row half keeps the matmuls
        whole, and at 3 x 50 the 64-row cut falls inside respondent 1.
        Values and every gradient keep their bits."""
        monkeypatch.setattr(dk, "_ROW_GRAIN", grain)

        def run():
            rng = np.random.default_rng(11)
            x = dk.parameter(rng.normal(size=(B, 10)))
            h = dk.parameter(rng.normal(size=(B * t, 5)))
            layers = [(dk.parameter(rng.normal(0.0, 0.3, size=(a, b))),
                       dk.parameter(rng.normal(size=(1, b))), gelu_on)
                      for a, b, gelu_on in ((15, 256, True), (256, 128, True), (128, 1, False))]
            tape = dk.Tape()
            out = dk.feedforward(tape, h, layers, x=x, split=route == "split")
            outs = out if route == "split" else (out,)
            root = scalarize(tape, outs[0])
            for o in outs[1:]:
                root = dk.add(tape, root, scalarize(tape, o))
            tape.backward(root)
            leaves = [h, x] + [p for w, b, _ in layers for p in (w, b)]
            return [o.data for o in outs] + [p.grad for p in leaves]

        split, serial = _split_and_serial(monkeypatch, run)
        for a, b in zip(split, serial, strict=True):
            _assert_same_bits(a, b)

    def test_feedforward_split_keeps_each_matmul_on_one_blas_kernel(self, monkeypatch):
        """3,200 rows of 50 -> 10 are 1.6e6 multiply-adds and each half
        0.8e6, on either side of OpenBLAS's small-kernel switch, so that
        matmul runs whole; the next layer's halves stay below it and
        split."""
        assert not dk._matmul_splits_exactly(3200, 50, 10)
        assert dk._matmul_splits_exactly(3200, 10, 1)
        assert dk._matmul_splits_exactly(5000, 5, 256) and dk._matmul_splits_exactly(5000, 128, 1)
        assert not dk._matmul_splits_exactly(65, 300, 128)  # a 1-row half

        def run():
            rng = np.random.default_rng(12)
            h = dk.parameter(rng.normal(size=(3200, 50)))
            layers = [(dk.parameter(rng.normal(0.0, 0.2, size=(50, 10))),
                       dk.parameter(rng.normal(size=(1, 10))), True),
                      (dk.parameter(rng.normal(size=(10, 1))), dk.parameter(np.zeros((1, 1))),
                       False)]
            tape = dk.Tape()
            out = dk.feedforward(tape, h, layers)
            tape.backward(scalarize(tape, out))
            return [out.data, h.grad] + [p.grad for w, b, _ in layers for p in (w, b)]

        split, serial = _split_and_serial(monkeypatch, run)
        for a, b in zip(split, serial, strict=True):
            _assert_same_bits(a, b)

    @pytest.mark.parametrize("n", WEIGHT_GRAD_DRAWS)
    @pytest.mark.parametrize("fan_in, fan_out", WEIGHT_GRAD_SHAPES)
    def test_weight_grad_fan_in_split_guard(self, monkeypatch, n, fan_in, fan_out):
        """A layer's weight gradient splits between its fan-in rows where
        `_matmul_splits_exactly` allows, and equals `a.T @ g` either way.
        The guard keeps whole a fan-in with a half under 64 rows (55, 64),
        and at 128 draws the (192, 100) gradient, whose 2.5e6 multiply-adds
        lie above OpenBLAS's small-kernel size and its 64-row half's 0.8e6
        below."""
        monkeypatch.setattr(dk, "_SPLIT_MIN_VALUES", 1)
        rng = np.random.default_rng(13)
        a, g = rng.normal(size=(n, fan_in)), rng.normal(size=(n, fan_out))
        splits = dk._matmul_splits_exactly(fan_in, n, fan_out)
        assert splits == (fan_in >= 128 and (n, fan_in, fan_out) != (128, 192, 100))
        calls = []
        real = dk._split_rows
        monkeypatch.setattr(dk, "_split_rows", lambda fn, *args, **kw: (calls.append(args),
                                                                        real(fn, *args, **kw)))
        np.testing.assert_allclose(dk._split_matmul(a.T, g), a.T @ g, rtol=1e-13, atol=1e-12)
        assert calls == ([(fan_in, a.size + fan_in * fan_out)] if splits else [])

    def test_weight_grad_fan_in_split_matches_whole_on_one_blas_thread(self):
        """The split weight gradients of the guard test have the bits of
        `a.T @ g`, in a child process whose BLAS runs one thread, as
        perfbench pins it: OpenBLAS's own threads cut a product by its size,
        and then a (192, 100) gradient differs by 1e-13 from its halves."""
        src = str(Path(dk.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        cases = [(n, fi, fo) for n in WEIGHT_GRAD_DRAWS for fi, fo in WEIGHT_GRAD_SHAPES]
        done = subprocess.run([sys.executable, "-c", _WEIGHT_GRAD_CHILD, json.dumps(cases)],
                              env=env, capture_output=True, text=True, timeout=300, check=True)
        assert json.loads(done.stdout) == {"differ": [], "split": 17}

    @pytest.mark.parametrize("B, tile, chunk, blank",
                             [(128, 25, None, False), (3, 25, 12, False), (5, 1, None, False),
                              (1, 5000, None, False), (128, 25, None, True)],
                             ids=["study", "cut-in-respondent-rows", "one-row-each",
                                  "one-respondent-split", "item-missing-everywhere"])
    def test_ordinal_loglik_split_matches_serial_and_unchunked(self, monkeypatch, B, tile,
                                                                chunk, blank):
        """Values and both gradients of `ordinal_loglik` keep their bits split
        and serial, and equal the unchunked arithmetic, with MISSING entries,
        probabilities at the floor (one logit in 20 scaled by 30) and items
        of 2 to 6 categories.  The forward runs by rows and the backward by
        respondents: at 3 x 25 rows the forward's cut falls at row 38,
        inside respondent 1, the backward's at row 50, and 12-value chunks
        hold less than one respondent; one respondent's 5,000 rows split in
        the forward only.  With `blank`, item 3 is MISSING for every
        respondent, and its logits' and cuts' gradients are +0.0."""
        M = 50
        rng = np.random.default_rng(14)
        categories = rng.integers(2, 7, size=M)
        levels = rng.integers(0, categories, size=(B, M))
        missing = rng.random((B, M)) < 0.1
        missing[:, 3] |= blank
        logits = rng.normal(0.0, 2.0, size=(B * tile, M))
        logits[rng.random(logits.shape) < 0.05] *= 30.0  # both sigmoids round alike
        steps = np.sort(rng.uniform(0.05, 1.5, size=(M, 5)), axis=1)
        cuts_arr = rng.normal(size=(M, 1)) - np.cumsum(steps, axis=1) + steps[:, :1]
        want = self._ordinal_unchunked(logits, cuts_arr, levels, missing, categories, tile)
        floored = want[3]
        assert floored.any() and not floored.all()

        def run():
            lg, cuts = dk.parameter(logits), dk.parameter(cuts_arr)
            tape = dk.Tape()
            out = dk.ordinal_loglik(tape, lg, cuts, levels, missing, categories, 1e-300,
                                    tile=tile)
            tape.backward(scalarize(tape, out))
            return out.data, lg.grad, cuts.grad

        if chunk is not None:
            monkeypatch.setattr(dk, "_CHUNK_VALUES", chunk)
        calls = []
        real = dk._split_rows
        monkeypatch.setattr(dk, "_split_rows", lambda fn, *args, **kw: (calls.append(args),
                                                                        real(fn, *args, **kw)))
        for threshold in (1, SERIAL):
            monkeypatch.setattr(dk, "_SPLIT_MIN_VALUES", threshold)
            got = run()
            for a, b in zip(got, want[:3], strict=True):
                _assert_same_bits(a, b)
            if blank:
                _assert_same_bits(got[1][:, 3], np.zeros(B * tile))
                _assert_same_bits(got[2][3], np.zeros(5))
        # the forward's rows, then the backward's respondents, on each pass
        assert calls == [(B * tile, B * tile * M), (B, B * tile * M)] * 2

    @staticmethod
    def _ordinal_unchunked(logits, cuts, levels, missing, categories, tile):
        """`ordinal_loglik`'s arithmetic on whole arrays, at the gradient
        `scalarize` sends: (values, logits' and cuts' gradients, floored)."""
        B, M = levels.shape
        table = dk.boundary_table(cuts, categories)
        observed = ~missing
        upper = np.where(observed, levels, 0)
        items = np.arange(M)[None, :]
        t = logits.reshape(B, tile, M)
        s_hi = dk._sigmoid_values(t + table[items, upper][:, None, :])
        s_lo = dk._sigmoid_values(t + table[items, upper + 1][:, None, :])
        p = np.where(observed[:, None, :], s_hi - s_lo, 1.0)
        out = np.log(np.maximum(p, 1e-300)).reshape(B * tile, M).sum(axis=1, keepdims=True)
        g = np.linspace(0.5, 1.5, B * tile).reshape(B, tile, 1)
        live = observed[:, None, :] & (p > 1e-300)
        scale = np.divide(g, p, out=np.zeros_like(p), where=live)
        d_hi = s_hi * (1.0 - s_hi) * scale
        d_lo = s_lo * (1.0 - s_lo) * scale
        cells = (np.arange(M) * table.shape[1])[None, :] + upper
        grad = (np.bincount(cells.ravel(), weights=d_hi.sum(axis=1).ravel(), minlength=table.size)
                - np.bincount((cells + 1).ravel(), weights=d_lo.sum(axis=1).ravel(),
                              minlength=table.size)).reshape(table.shape)
        return out, (d_hi - d_lo).reshape(B * tile, M), grad[:, 1:-1], observed[:, None] & ~live

    @pytest.mark.parametrize("shape", [(37, 6), (4001, 64)])
    def test_gelu_split_matches_serial(self, monkeypatch, shape):
        """(4001, 64) keeps both threads busy for a while in many chunks."""
        def run():
            x = dk.parameter(np.random.default_rng(6).normal(0.0, 3.0, size=shape))
            tape = dk.Tape()
            out = dk.gelu(tape, x)
            tape.backward(scalarize(tape, out))
            return out.data, x.grad

        split, serial = _split_and_serial(monkeypatch, run)
        for a, b in zip(split, serial, strict=True):
            assert np.array_equal(a, b)

    def test_split_halves_run_on_two_threads(self, monkeypatch):
        monkeypatch.setattr(dk, "_SPLIT_MIN_VALUES", 1)
        calls = []
        dk._split_rows(lambda lo, hi: calls.append((lo, hi, threading.get_ident())), 10, 10,
                       grain=3)
        spans = sorted(c[:2] for c in calls)
        if _two_cpus():  # the cut is the multiple of the grain nearest the middle
            assert spans == [(0, 6), (6, 10)]
            assert len({c[2] for c in calls}) == 2
        else:
            assert spans == [(0, 10)]

    def test_small_split_calls_once_without_a_worker(self, monkeypatch):
        monkeypatch.setattr(dk, "_worker", None)
        calls = []
        dk._split_rows(lambda lo, hi: calls.append((lo, hi, threading.get_ident())), 8,
                       dk._SPLIT_MIN_VALUES - 1)
        assert calls == [(0, 8, threading.get_ident())]
        assert dk._worker is None

    def test_nested_split_runs_serially_and_returns(self, monkeypatch):
        monkeypatch.setattr(dk, "_SPLIT_MIN_VALUES", 1)
        inner = []

        def outer(lo, hi):
            dk._split_rows(lambda a, b: inner.append((lo, a, b)), 4, 4)

        caller = threading.Thread(target=dk._split_rows, args=(outer, 8, 8), daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive()
        halves = (0, 4) if _two_cpus() else (0,)
        assert sorted(inner) == [(lo, 0, 4) for lo in halves]

    def test_worker_split_exception_propagates_after_both_halves(self, monkeypatch):
        monkeypatch.setattr(dk, "_SPLIT_MIN_VALUES", 1)
        finished = []

        def fn(lo, hi):
            if hi == 8:
                raise ValueError("upper half failed")
            time.sleep(0.05)
            finished.append(lo)

        with pytest.raises(ValueError, match="upper half failed"):
            dk._split_rows(fn, 8, 8)
        assert finished == ([0] if _two_cpus() else [])

    def test_caller_split_exception_waits_for_the_worker(self, monkeypatch):
        monkeypatch.setattr(dk, "_SPLIT_MIN_VALUES", 1)
        finished = []

        def fn(lo, hi):
            if lo == 0:
                raise ValueError("lower half failed")
            time.sleep(0.05)
            finished.append(lo)

        with pytest.raises(ValueError, match="lower half failed"):
            dk._split_rows(fn, 8, 8)
        assert finished == ([4] if _two_cpus() else [])

    def test_split_worker_sees_the_callers_errstate(self, monkeypatch):
        monkeypatch.setattr(dk, "_SPLIT_MIN_VALUES", 1)
        seen = {}

        def fn(lo, hi):
            seen[lo] = np.geterr()["over"]

        with np.errstate(over="ignore"):
            dk._split_rows(fn, 8, 8)
        assert set(seen) == ({0, 4} if _two_cpus() else {0})
        assert set(seen.values()) == {"ignore"}

    def test_concurrent_callers_share_the_split_worker(self, monkeypatch):
        monkeypatch.setattr(dk, "_SPLIT_MIN_VALUES", 1)
        outs = [np.zeros(64) for _ in range(4)]

        def caller(out):
            for k in range(1, 201):
                def fill(lo, hi):
                    out[lo:hi] += k
                dk._split_rows(fill, out.size, out.size)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(out,), daemon=True) for out in outs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        for out in outs:  # every row of every call was filled exactly once
            assert np.array_equal(out, np.full(64, 200 * 201 / 2))

    def test_forked_child_completes_a_split(self, monkeypatch):
        monkeypatch.setattr(dk, "_SPLIT_MIN_VALUES", 1)
        dk._split_rows(lambda lo, hi: None, 8, 8)  # the parent's worker is running
        with futures.ProcessPoolExecutor(
                max_workers=1, mp_context=multiprocessing.get_context("fork")) as pool:
            done = pool.submit(_split_in_child)
            try:
                got = done.result(timeout=60)
            except futures.TimeoutError:
                for proc in pool._processes.values():
                    proc.kill()
                raise
        assert got == list(range(8))


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


class TestGaussianDraws:
    def test_each_row_serves_its_respondents_draws(self):
        u = np.array([[1.0, 0.0], [0.0, -1.0], [2.0, 1.0], [-1.0, 0.5]])
        out = dk.gaussian_draws(None, dk.const([[1.0, 2.0], [3.0, 4.0]]),
                                dk.const([[1.0, 1.0], [2.0, 4.0]]), u)
        np.testing.assert_array_equal(out.data, [[2, 2], [1, 1], [7, 8], [1, 6]])

    def test_backward_sums_each_respondents_rows(self):
        tape = dk.Tape()
        mu, sigma = dk.parameter([[1.0], [2.0]]), dk.parameter([[1.0], [1.0]])
        u = np.arange(6.0).reshape(6, 1)
        out = dk.gaussian_draws(tape, mu, sigma, u)
        w = dk.const(np.arange(6.0).reshape(6, 1))
        tape.backward(dk.tsum(tape, dk.mul(tape, out, w)))
        np.testing.assert_array_equal(mu.grad, [[0 + 1 + 2], [3 + 4 + 5]])
        np.testing.assert_array_equal(sigma.grad, [[0 + 1 + 4], [9 + 16 + 25]])

    def test_one_draw_per_respondent_is_mu_plus_sigma_u(self):
        rng = np.random.default_rng(8)
        mu0, sigma0 = rng.normal(size=(4, 3)), np.exp(rng.normal(size=(4, 3)))
        u = rng.normal(size=(4, 3))
        w = dk.const(rng.normal(size=(4, 3)))
        results = []
        for op in (lambda t, m, s: dk.gaussian_draws(t, m, s, u),
                   lambda t, m, s: dk.add(t, m, dk.mul(t, s, dk.const(u)))):
            mu, sigma = dk.parameter(mu0), dk.parameter(sigma0)
            tape = dk.Tape()
            z = op(tape, mu, sigma)
            tape.backward(dk.tsum(tape, dk.mul(tape, z, w)))
            results.append((z.data, mu.grad, sigma.grad))
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("u_shape", [(7, 2), (6, 3)], ids=["rows", "columns"])
    def test_noise_not_a_multiple_rejected(self, u_shape):
        with pytest.raises(dk.ShapeError, match="multiple"):
            dk.gaussian_draws(None, dk.const(np.zeros((3, 2))), dk.const(np.ones((3, 2))),
                              np.zeros(u_shape))


class TestDiagNormalLogpdf:
    def test_matches_scipy(self):
        rng = np.random.default_rng(9)
        mu, sigma = rng.normal(size=(3, 2)), np.exp(rng.normal(size=(3, 2)))
        z = rng.normal(size=(12, 2))
        out = dk.diag_normal_logpdf(None, dk.const(z), mu, sigma).data[:, 0]
        want = stats.norm.logpdf(z, np.repeat(mu, 4, axis=0),
                                 np.repeat(sigma, 4, axis=0)).sum(axis=1)
        np.testing.assert_allclose(out, want, rtol=1e-13)

    def test_only_z_gets_a_gradient(self):
        """mu and sigma are plain arrays, constants of the node: z's gradient
        is -(z - mu) / sigma^2, the score at fixed mu and sigma."""
        z = dk.parameter([[2.0, -3.0], [0.5, 1.0]])
        mu, sigma = np.array([[1.0, -1.0]]), np.array([[2.0, 0.5]])
        tape = dk.Tape()
        tape.backward(dk.tsum(tape, dk.diag_normal_logpdf(tape, z, mu, sigma)))
        np.testing.assert_array_equal(z.grad, -(z.data - mu) / sigma ** 2)
        assert len(tape) == 2

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_sigma_is_a_domain_error(self, bad):
        sigma = np.ones((2, 2))
        sigma[1, 0] = bad
        with pytest.raises(dk.DomainError, match=r"diag_normal_logpdf.*\(1, 0\)"):
            dk.diag_normal_logpdf(None, dk.const(np.zeros((4, 2))), np.zeros((2, 2)), sigma)

    def test_shapes_must_match(self):
        with pytest.raises(dk.ShapeError):
            dk.diag_normal_logpdf(None, dk.const(np.zeros((5, 2))), np.zeros((2, 2)),
                                  np.ones((2, 2)))


@pytest.mark.parametrize("P", [1, 2, 5])
@pytest.mark.parametrize("d", [1, 25])
def test_gaussian_ops_match_the_tiled_node_chain_bit_for_bit(P, d):
    """z, log q and the gradients of z, mu and sigma equal, bit for bit, the
    generic nodes on mu and sigma repeated to the draws: add and mul for z,
    and for log q the seven-node chain on constant copies of the repeats;
    the repeats' gradients are summed over each respondent's rows."""
    rng = np.random.default_rng(40 + P + d)
    B = 7
    mu0, sigma0 = rng.normal(size=(B, P)), np.exp(rng.normal(size=(B, P)))
    u = rng.standard_normal((B * d, P))
    w = dk.const(rng.uniform(0.5, 1.5, size=(B * d, P)))
    v = dk.const(rng.uniform(0.5, 1.5, size=(B * d, 1)))

    def backward(tape, z, logq):
        tape.backward(dk.add(tape, dk.tsum(tape, dk.mul(tape, logq, v)),
                             dk.tsum(tape, dk.mul(tape, z, w))))

    mu, sigma = dk.parameter(mu0), dk.parameter(sigma0)
    tape = dk.Tape()
    z = dk.gaussian_draws(tape, mu, sigma, u)
    logq = dk.diag_normal_logpdf(tape, z, mu0, sigma0)
    backward(tape, z, logq)

    mu_t, sigma_t = (dk.parameter(np.repeat(a, d, axis=0)) for a in (mu0, sigma0))
    tape = dk.Tape()
    z_c = dk.add(tape, mu_t, dk.mul(tape, sigma_t, dk.const(u)))
    mu_c, sigma_c = dk.const(mu_t.data), dk.const(sigma_t.data)
    resid = dk.div(tape, dk.sub(tape, z_c, mu_c), sigma_c)
    out = dk.mul(tape, dk.sum_rows(tape, dk.square(tape, resid)), -0.5)
    out = dk.sub(tape, out, dk.sum_rows(tape, dk.log(tape, sigma_c)))
    logq_c = dk.add(tape, out, -0.5 * P * math.log(2.0 * math.pi))
    backward(tape, z_c, logq_c)

    summed = [t.grad.reshape(B, d, P).sum(axis=1) for t in (mu_t, sigma_t)]
    for got, want in zip((z.data, logq.data, z.grad, mu.grad, sigma.grad),
                         (z_c.data, logq_c.data, z_c.grad, *summed)):
        assert got.tobytes() == want.tobytes()


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


def _kl_chain(tape, mu, sigma):
    """The closed-form KL as the nine nodes `gaussian_kl` replaced."""
    kl_terms = dk.sub(tape, dk.add(tape, dk.square(tape, mu), dk.square(tape, sigma)), 1.0)
    kl_terms = dk.sub(tape, kl_terms, dk.mul(tape, dk.log(tape, sigma), 2.0))
    return dk.mul(tape, dk.sum_rows(tape, kl_terms), 0.5)


class TestGaussianKl:
    def test_hand_values(self):
        out = dk.gaussian_kl(None, dk.const([[0.0, 0.0], [1.0, 0.0]]),
                             dk.const([[1.0, 1.0], [1.0, math.e]])).data
        np.testing.assert_allclose(out, [[0.0], [0.5 + 0.5 * (math.e ** 2 - 3.0)]],
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_node_chain_bit_for_bit(self, seed):
        """Value and both gradients equal the chain's exactly, also when
        sigma and mu already hold gradient from other consumers."""
        rng = np.random.default_rng(seed)
        mu0 = rng.normal(size=(7, 3)) * 3.0
        sigma0 = np.exp(rng.normal(size=(7, 3)) * 2.0)
        w = rng.uniform(0.5, 1.5, size=(7, 1))
        results = []
        for op in (dk.gaussian_kl, _kl_chain):
            mu, sigma = dk.parameter(mu0), dk.parameter(sigma0)
            tape = dk.Tape()
            kl = op(tape, mu, sigma)
            # a later consumer runs its backward first, so the KL's terms
            # accumulate onto gradients the leaves already hold
            post = dk.tsum(tape, dk.mul(tape, mu, sigma))
            root = dk.add(tape, dk.tsum(tape, dk.mul(tape, kl, dk.const(w))), post)
            tape.backward(root)
            results.append((kl.data, mu.grad, sigma.grad))
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()

    def test_one_node(self):
        tape = dk.Tape()
        dk.gaussian_kl(tape, dk.parameter(np.zeros((2, 2))), dk.parameter(np.ones((2, 2))))
        assert len(tape) == 1

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_sigma_is_a_domain_error(self, bad):
        sigma = np.ones((2, 2))
        sigma[1, 0] = bad
        with pytest.raises(dk.DomainError, match="gaussian_kl"):
            dk.gaussian_kl(None, dk.const(np.zeros((2, 2))), dk.const(sigma))

    def test_shapes_must_match(self):
        with pytest.raises(dk.ShapeError):
            dk.gaussian_kl(None, dk.const(np.zeros((2, 2))), dk.const(np.ones((1, 1))))


def test_every_tape_op_has_a_finite_difference_entry():
    """OPS lists exactly the public diffkernel functions taking `tape` first,
    under the name each records (tsum records "sum", tmean "mean"), with
    variants of one op as "<op>:<variant>"."""
    import inspect

    recorded = {"tsum": "sum", "tmean": "mean"}
    ops = {recorded.get(name, name)
           for name, fn in inspect.getmembers(dk, inspect.isfunction)
           if not name.startswith("_") and fn.__module__ == dk.__name__
           and next(iter(inspect.signature(fn).parameters), None) == "tape"}
    assert ops == {name.split(":")[0] for name in OPS}
