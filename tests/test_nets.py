"""Network components: initialization bounds, forward parity, reparameterized
encoding, black-box encoding, discriminator shape, response coding."""

import numpy as np
import pytest
from scipy.special import erf

from gradedvi import diffkernel as dk
from gradedvi.grm import MISSING
from gradedvi.nets import (
    BlackBoxEncoder,
    Discriminator,
    FeedForwardNet,
    GaussianEncoder,
    encode_responses,
    kaiming_init,
)


def gelu_np(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


class TestKaimingInit:
    def test_bound_128(self):
        rng = np.random.default_rng(0)
        w, b = kaiming_init(128, 64, rng)
        bound = np.sqrt(3.0 / 128.0)
        assert bound == pytest.approx(0.153093, abs=1e-6)
        assert np.abs(w).max() <= bound
        assert np.abs(b).max() <= bound

    def test_bound_3_is_one(self):
        rng = np.random.default_rng(1)
        w, _ = kaiming_init(3, 10, rng)
        assert np.sqrt(3.0 / 3.0) == 1.0
        assert np.abs(w).max() <= 1.0

    def test_empirical_variance(self):
        rng = np.random.default_rng(2)
        w, _ = kaiming_init(12, 10_000, rng)
        bound = np.sqrt(3.0 / 12.0)
        expected = bound * bound / 3.0
        assert w.var() == pytest.approx(expected, rel=0.05)

    def test_fan_in_zero_rejected(self):
        with pytest.raises(ValueError):
            kaiming_init(0, 4, np.random.default_rng(0))


class TestFeedForwardNet:
    def test_forward_matches_hand_composition(self):
        rng = np.random.default_rng(3)
        net = FeedForwardNet.build([3, 5, 2], rng)
        x = rng.normal(size=(5, 3))
        w0, b0 = net.layers[0].weight.data, net.layers[0].bias.data
        w1, b1 = net.layers[1].weight.data, net.layers[1].bias.data
        expected = gelu_np(x @ w0 + b0) @ w1 + b1
        got = net.forward(None, dk.const(x)).data
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_final_activation_is_identity(self):
        net = FeedForwardNet.build([4, 8, 8, 2], np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=(6, 4))
        (w0, b0), (w1, b1), (w2, b2) = [(l.weight.data, l.bias.data) for l in net.layers]
        expected = gelu_np(gelu_np(x @ w0 + b0) @ w1 + b1) @ w2 + b2
        np.testing.assert_allclose(net.forward(None, dk.const(x)).data, expected,
                                   rtol=0, atol=1e-12)

    def test_dims_must_chain(self):
        rng = np.random.default_rng(5)
        a = FeedForwardNet.build([3, 4], rng).layers[0]
        b = FeedForwardNet.build([5, 2], rng).layers[0]
        with pytest.raises(ValueError, match="chain"):
            FeedForwardNet([a, b])

    def test_to_inputs_output_gives_weights_no_gradient(self):
        rng = np.random.default_rng(7)
        net = FeedForwardNet.build([2, 3, 1], rng)
        h = dk.parameter(rng.normal(size=(4, 2)))
        tape = dk.Tape()
        to_inputs, _ = net.forward(tape, h, split=True)
        tape.backward(dk.tsum(tape, to_inputs))
        assert all(p.grad is None for p in net.parameters())
        assert h.grad.shape == h.shape and np.abs(h.grad).max() > 0

    def test_serialization_roundtrip(self):
        net = FeedForwardNet.build([3, 4, 2], np.random.default_rng(8))
        doc = net.to_dict()
        assert all(set(layer) == {"weight", "bias"} for layer in doc["layers"])
        clone = FeedForwardNet.from_dict(doc)
        x = np.random.default_rng(9).normal(size=(2, 3))
        np.testing.assert_array_equal(net.forward(None, dk.const(x)).data,
                                      clone.forward(None, dk.const(x)).data)


class TestGaussianEncoder:
    def _encoder(self, seed=10):
        return GaussianEncoder.build(6, [16], 2, np.random.default_rng(seed))

    def test_zero_noise_returns_mean(self):
        enc = self._encoder()
        x = dk.const(np.random.default_rng(0).normal(size=(3, 6)))
        z, mu, _ = enc.encode(None, x, dk.const(np.zeros((3, 2))))
        np.testing.assert_array_equal(z.data, mu.data)

    def test_heads_deterministic_across_draws(self):
        enc = self._encoder()
        rng = np.random.default_rng(1)
        x = dk.const(rng.normal(size=(3, 6)))
        z1, mu1, s1 = enc.encode(None, x, dk.const(rng.normal(size=(3, 2))))
        z2, mu2, s2 = enc.encode(None, x, dk.const(rng.normal(size=(3, 2))))
        np.testing.assert_array_equal(mu1.data, mu2.data)
        np.testing.assert_array_equal(s1.data, s2.data)
        assert np.abs(z1.data - z2.data).max() > 0

    def test_monte_carlo_mean_recovers_mu(self):
        enc = self._encoder()
        rng = np.random.default_rng(2)
        x_row = rng.normal(size=(1, 6))
        n = 10_000
        u = rng.normal(size=(n, 2))
        x = dk.const(np.repeat(x_row, n, axis=0))
        z, mu, sigma = enc.encode(None, x, dk.const(u))
        se = sigma.data[0] / np.sqrt(n)
        assert np.all(np.abs(z.data.mean(axis=0) - mu.data[0]) < 3 * se)

    def test_affine_in_noise(self):
        # z(u1) + z(u2) - z(0) = z(u1 + u2) up to float rounding
        enc = self._encoder()
        rng = np.random.default_rng(4)
        x = dk.const(rng.normal(size=(4, 6)))
        u1 = rng.normal(size=(4, 2))
        u2 = rng.normal(size=(4, 2))
        z = lambda u: enc.encode(None, x, dk.const(u))[0].data
        np.testing.assert_allclose(z(u1) + z(u2) - z(np.zeros((4, 2))),
                                   z(u1 + u2), atol=1e-12)

    def test_sigma_strictly_positive(self):
        enc = self._encoder()
        x = dk.const(np.random.default_rng(5).normal(size=(50, 6)) * 5)
        _, _, sigma = enc.encode(None, x, dk.const(np.zeros((50, 2))))
        assert (sigma.data > 0).all()

    def test_noise_width_checked(self):
        enc = self._encoder()
        with pytest.raises(dk.ShapeError):
            enc.encode(None, dk.const(np.zeros((2, 6))), dk.const(np.zeros((2, 3))))

    def test_per_respondent_heads_match_tiled_rows(self):
        # B rows with R draws each against the same rows repeated R times:
        # mu and sigma keep one row per input row, so the tiled run holds R
        # copies of each, and its sigma * mu term counts R times
        enc = self._encoder()
        rng = np.random.default_rng(6)
        B, R = 4, 5
        x = rng.normal(size=(B, 6))
        u = dk.const(rng.normal(size=(B * R, 2)))
        w = dk.const(rng.normal(size=(B * R, 2)))

        def run(rows):
            tape = dk.Tape()
            z, mu, sigma = enc.encode(tape, dk.const(rows), u)
            heads = dk.mul(tape, dk.mul(tape, sigma, mu), B * R / mu.rows)
            tape.backward(dk.add(tape, dk.tsum(tape, dk.mul(tape, z, w)),
                                 dk.tsum(tape, heads)))
            grads = [p.grad.copy() for p in enc.parameters()]
            for p in enc.parameters():
                p.zero_grad()
            return (z.data, mu.data, sigma.data), grads

        vals, grads = run(x)
        vals_t, grads_t = run(np.repeat(x, R, axis=0))
        assert vals[0].shape == (B * R, 2)
        assert vals[1].shape == vals[2].shape == (B, 2)
        np.testing.assert_allclose(vals[0], vals_t[0], rtol=0, atol=1e-12)
        for a, b in zip(vals[1:], vals_t[1:]):
            np.testing.assert_allclose(np.repeat(a, R, axis=0), b, rtol=0, atol=1e-12)
        for a, b in zip(grads, grads_t):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)

    def test_noise_rows_must_be_a_multiple_of_input_rows(self):
        enc = self._encoder()
        with pytest.raises(dk.ShapeError, match="multiple"):
            enc.encode(None, dk.const(np.zeros((3, 6))), dk.const(np.zeros((7, 2))))


class TestBlackBoxEncoder:
    def _encoder(self, seed=20):
        return BlackBoxEncoder.build(5, [12], 2, noise_dim=2,
                                     rng=np.random.default_rng(seed))

    def test_pure_function(self):
        enc = self._encoder()
        rng = np.random.default_rng(0)
        x = dk.const(rng.normal(size=(3, 5)))
        eps = dk.const(rng.normal(size=(3, 2)))
        z1 = enc.encode(None, x, eps).data
        z2 = enc.encode(None, x, eps).data
        np.testing.assert_array_equal(z1, z2)

    def test_noise_produces_spread(self):
        enc = self._encoder()
        rng = np.random.default_rng(1)
        x = dk.const(np.repeat(rng.normal(size=(1, 5)), 200, axis=0))
        z = enc.encode(None, x, dk.const(rng.normal(size=(200, 2)))).data
        assert z.var(axis=0).min() > 0

    def test_dimension_mismatch(self):
        enc = self._encoder()
        with pytest.raises(dk.ShapeError):
            enc.encode(None, dk.const(np.zeros((2, 5))), dk.const(np.zeros((2, 1))))

    def test_gradient_matches_finite_differences(self):
        enc = self._encoder()
        rng = np.random.default_rng(2)
        x_arr = rng.normal(size=(3, 5))
        eps_arr = rng.normal(size=(3, 2))

        tape = dk.Tape()
        out = enc.encode(tape, dk.const(x_arr), dk.const(eps_arr))
        tape.backward(dk.tsum(tape, out))
        h = 1e-5
        for p in enc.parameters():
            base = p.data.copy()
            analytic = p.grad
            fd = np.zeros_like(base)
            for idx in np.ndindex(*base.shape):
                p.data = base.copy()
                p.data[idx] += h
                fp = enc.encode_values(x_arr, eps_arr).sum()
                p.data = base.copy()
                p.data[idx] -= h
                fm = enc.encode_values(x_arr, eps_arr).sum()
                fd[idx] = (fp - fm) / (2 * h)
            p.data = base
            assert np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-4


class TestDiscriminator:
    def test_one_scalar_per_row(self):
        disc = Discriminator.build(4, 2, [8], np.random.default_rng(30))
        rng = np.random.default_rng(0)
        out = disc.forward(None, dk.const(rng.normal(size=(7, 4))),
                           dk.const(rng.normal(size=(7, 2))))
        assert out.shape == (7, 1)

    def test_finite_logits(self):
        disc = Discriminator.build(4, 2, [8, 8], np.random.default_rng(31))
        rng = np.random.default_rng(1)
        out = disc.forward_values(rng.normal(size=(100, 4)) * 10,
                                  rng.normal(size=(100, 2)) * 10)
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("route", ["to_inputs", "to_weights"])
    def test_split_forward_routes_gradient_to_z_or_weights_only(self, route):
        disc = Discriminator.build(4, 2, [8], np.random.default_rng(33))
        rng = np.random.default_rng(3)
        z = dk.parameter(rng.normal(size=(15, 2)))
        tape = dk.Tape()
        to_inputs, to_weights = disc.forward(tape, dk.const(rng.normal(size=(3, 4))), z,
                                             split=True)
        tape.backward(dk.tsum(tape, to_inputs if route == "to_inputs" else to_weights))
        if route == "to_inputs":
            assert all(p.grad is None for p in disc.parameters())
            assert z.grad.shape == z.shape and np.abs(z.grad).max() > 0
        else:
            assert z.grad is None
            assert all(p.grad is not None and np.abs(p.grad).max() > 0
                       for p in disc.parameters())

    def test_latent_only_mode(self):
        disc = Discriminator.build(0, 1, [8], np.random.default_rng(32))
        out = disc.forward(None, None, dk.const(np.zeros((3, 1))))
        assert out.shape == (3, 1)


def _net_by_hand(net, inp):
    h = inp
    for i, layer in enumerate(net.layers):
        h = h @ layer.weight.data + layer.bias.data
        if i < len(net.layers) - 1:
            h = gelu_np(h)
    return h


def _model(kind):
    rng = np.random.default_rng(40)
    if kind == "encoder":
        enc = BlackBoxEncoder.build(6, [16, 8], 2, noise_dim=3, rng=rng)
        return enc, enc.encode, enc.encode_values, 3
    disc = Discriminator.build(6, 2, [16, 8], rng)
    return disc, disc.forward, disc.forward_values, 2


@pytest.mark.parametrize("t", [1, 5])
@pytest.mark.parametrize("kind", ["encoder", "discriminator"])
class TestPerRespondentFeatures:
    """One feature row per respondent gives what the hand-built tiled input
    [repeat(x, t), noise] gives, values and gradients."""

    B = 4

    def _inputs(self, kind, t):
        model, call, values, width = _model(kind)
        rng = np.random.default_rng(41)
        x = rng.normal(size=(self.B, 6))
        noise = rng.normal(size=(self.B * t, width))
        return model, call, values, x, noise

    def test_values(self, kind, t):
        model, call, values, x, noise = self._inputs(kind, t)
        expected = _net_by_hand(model.net, np.hstack([np.repeat(x, t, 0), noise]))
        np.testing.assert_allclose(call(None, dk.const(x), dk.const(noise)).data, expected,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(values(x, noise), expected, rtol=0, atol=1e-12)

    def test_gradients(self, kind, t):
        model, call, _, x, noise = self._inputs(kind, t)
        F = x.shape[1]
        g = dk.const(np.random.default_rng(42).normal(size=(self.B * t, model.net.output_dim)))

        def grads(build):
            tape = dk.Tape()
            out, noise_grad = build(tape)
            tape.backward(dk.tsum(tape, dk.mul(tape, out, g)))
            found = [p.grad.copy() for p in model.parameters()] + [noise_grad()]
            for p in model.parameters():
                p.zero_grad()
            return found

        def ours(tape):
            n = dk.parameter(noise)
            return call(tape, dk.const(x), n), lambda: n.grad

        def reference(tape):
            inp = dk.parameter(np.hstack([np.repeat(x, t, 0), noise]))
            return model.net.forward(tape, inp), lambda: inp.grad[:, F:]

        for a, b in zip(grads(ours), grads(reference)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)

    def test_rows_must_be_a_multiple_of_respondents(self, kind, t):
        _, call, _, x, noise = self._inputs(kind, t)
        with pytest.raises(dk.ShapeError, match="multiple"):
            call(None, dk.const(x[:3]), dk.const(noise))


class TestEncodeResponses:
    def test_midpoint_formula(self):
        feats, has_missing = encode_responses(np.array([[4]]), np.array([5]))
        assert feats[0, 0] == pytest.approx(0.9)
        assert not has_missing

    def test_missing_maps_to_half_with_indicator(self):
        feats, has_missing = encode_responses(np.array([[MISSING, 2]]), np.array([3, 3]))
        assert has_missing
        assert feats.shape == (1, 4)
        assert feats[0, 0] == 0.5
        np.testing.assert_array_equal(feats[0, 2:], [1.0, 0.0])

    @pytest.mark.parametrize("x", [[[MISSING, 2]], [[1, 2]]], ids=["missing", "complete"])
    @pytest.mark.parametrize("block", [True, False])
    def test_block_set_by_caller_whatever_the_rows_hold(self, x, block):
        feats, appended = encode_responses(np.array(x), np.array([3, 3]), missing_block=block)
        assert appended is block
        assert feats.shape == (1, 4 if block else 2)
        if block:
            np.testing.assert_array_equal(feats[0, 2:], np.array(x[0]) == MISSING)

    def test_all_values_in_open_unit_interval(self):
        rng = np.random.default_rng(2)
        cats = np.array([2, 3, 5, 7])
        x = np.stack([rng.integers(0, c, size=50) for c in cats], axis=1)
        feats, _ = encode_responses(x, cats)
        assert (feats > 0).all() and (feats < 1).all()
