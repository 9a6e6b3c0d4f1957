"""Feed-forward networks for the three amortized roles: Gaussian encoder
(VAE/IWAE), implicit noise-injecting encoder (AVB/IWAVB), and the
density-ratio discriminator.  A layer's position decides its activation:
exact GELU follows every hidden layer and every layer of the Gaussian
encoder's trunk, and outputs are linear.  Weights start from uniform Kaiming
draws.

Every network runs through one tape op, `dk.feedforward`, which records a
whole chain of layers as a single node; the `*_values` methods call it
without a tape, on plain arrays.  Every network takes one feature row per
respondent, the Gaussian encoder keeps one mu and sigma row each, and the
others' first layers compute their feature part once each; the weight is
one matrix, as serialized.  A large forward runs each layer's rows in two
halves on two threads, and so does its backward, which splits each
weight gradient between the halves of the layer's fan-in; the bits are
those of one thread (`dk.feedforward`).
`Discriminator.forward(..., split=True)` returns the two gradient routes of
one forward: to the draws only, and to the discriminator's weights only."""

from __future__ import annotations

import numpy as np

from . import diffkernel as dk
from .diffkernel import Tape, Tensor2
from .grm import MISSING


def kaiming_init(fan_in: int, fan_out: int, rng: np.random.Generator):
    """Weights and biases i.i.d. uniform on +-sqrt(3 / fan_in)."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    bound = np.sqrt(3.0 / fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    b = rng.uniform(-bound, bound, size=(1, fan_out))
    return w, b


class Layer:
    """One affine map; weight is (fan_in, fan_out)."""

    def __init__(self, weight: Tensor2, bias: Tensor2):
        self.weight = weight
        self.bias = bias

    @property
    def fan_in(self) -> int:
        return self.weight.rows

    @property
    def fan_out(self) -> int:
        return self.weight.cols

    def to_dict(self) -> dict:
        return {"weight": self.weight.data.tolist(), "bias": self.bias.data.tolist()}

    @classmethod
    def from_dict(cls, doc: dict, name: str = "layer") -> "Layer":
        """Any "activation" key, written by older versions, is ignored."""
        return cls(dk.parameter(doc["weight"], name=f"{name}.weight"),
                   dk.parameter(doc["bias"], name=f"{name}.bias"))


def _chain(layers: list[Layer], gelu_output: bool = False) -> list:
    """(weight, bias, gelu) triples for `dk.feedforward`: GELU follows every
    layer but the last, and the last too when gelu_output."""
    last = len(layers) - 1
    return [(layer.weight, layer.bias, gelu_output or i < last)
            for i, layer in enumerate(layers)]


class FeedForwardNet:
    """Chain of layers; GELU after each hidden layer, a linear output."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("need at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.fan_out != b.fan_in:
                raise ValueError(f"layer dims do not chain: {a.fan_out} -> {b.fan_in}")
        self.layers = layers

    @classmethod
    def build(cls, dims: list[int], rng: np.random.Generator, name: str = "net") -> "FeedForwardNet":
        layers = []
        for i, (fi, fo) in enumerate(zip(dims, dims[1:])):
            w, b = kaiming_init(fi, fo, rng)
            layers.append(Layer(dk.parameter(w, name=f"{name}.w{i}"),
                                dk.parameter(b, name=f"{name}.b{i}")))
        return cls(layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in

    @property
    def output_dim(self) -> int:
        return self.layers[-1].fan_out

    def forward(self, tape: Tape | None, h: Tensor2, x: Tensor2 | None = None,
                split: bool = False):
        """The net at h, or at each row of x next to each of its rows of h;
        with split, the (to_inputs, to_weights) pair of `dk.feedforward`."""
        return dk.feedforward(tape, h, _chain(self.layers), x=x, split=split)

    def parameters(self) -> list[Tensor2]:
        out = []
        for layer in self.layers:
            out.extend([layer.weight, layer.bias])
        return out

    def to_dict(self) -> dict:
        return {"layers": [layer.to_dict() for layer in self.layers]}

    @classmethod
    def from_dict(cls, doc: dict, name: str = "net") -> "FeedForwardNet":
        return cls([Layer.from_dict(d, name=f"{name}.{i}")
                    for i, d in enumerate(doc["layers"])])


class GaussianEncoder:
    """Amortized diagonal-Gaussian inference network: x -> (mu, sigma).

    GELU follows every trunk layer, the last one too; the two linear heads
    read the trunk's output, and sigma = exp(log_std_head)."""

    def __init__(self, trunk: FeedForwardNet, mean_head: Layer, log_std_head: Layer):
        self.trunk = trunk
        self.mean_head = mean_head
        self.log_std_head = log_std_head

    @classmethod
    def build(cls, input_dim: int, hidden: list[int], latent_dim: int,
              rng: np.random.Generator) -> "GaussianEncoder":
        trunk = FeedForwardNet.build([input_dim, *hidden], rng, name="encoder.trunk")
        wm, bm = kaiming_init(hidden[-1], latent_dim, rng)
        ws, bs = kaiming_init(hidden[-1], latent_dim, rng)
        return cls(trunk,
                   Layer(dk.parameter(wm, name="encoder.mean.w"),
                         dk.parameter(bm, name="encoder.mean.b")),
                   Layer(dk.parameter(ws, name="encoder.logstd.w"),
                         dk.parameter(bs, name="encoder.logstd.b")))

    @property
    def latent_dim(self) -> int:
        return self.mean_head.fan_out

    @property
    def feature_dim(self) -> int:
        return self.trunk.input_dim

    def heads(self, tape: Tape | None, x: Tensor2):
        h = dk.feedforward(tape, x, _chain(self.trunk.layers, gelu_output=True))
        mu = dk.feedforward(tape, h, _chain([self.mean_head]))
        sigma = dk.exp(tape, dk.feedforward(tape, h, _chain([self.log_std_head])))
        return mu, sigma

    def encode(self, tape: Tape | None, x: Tensor2, u: Tensor2):
        """Reparameterized draw z = mu(x) + sigma(x) * u; returns (z, mu, sigma).

        u holds a multiple of x's rows, respondent-major: the heads run once
        per row of x, and mu and sigma keep that row for all of its draws.
        """
        mu, sigma = self.heads(tape, x)
        return dk.gaussian_draws(tape, mu, sigma, u.data), mu, sigma

    def heads_values(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`heads` without a tape, on plain arrays."""
        mu, sigma = self.heads(None, dk.const(x))
        return mu.data, sigma.data

    def parameters(self) -> list[Tensor2]:
        return (self.trunk.parameters()
                + [self.mean_head.weight, self.mean_head.bias,
                   self.log_std_head.weight, self.log_std_head.bias])

    def to_dict(self) -> dict:
        return {"kind": "gaussian", "trunk": self.trunk.to_dict(),
                "mean_head": self.mean_head.to_dict(),
                "log_std_head": self.log_std_head.to_dict()}

    @classmethod
    def from_dict(cls, doc: dict) -> "GaussianEncoder":
        return cls(FeedForwardNet.from_dict(doc["trunk"], name="encoder.trunk"),
                   Layer.from_dict(doc["mean_head"], name="encoder.mean"),
                   Layer.from_dict(doc["log_std_head"], name="encoder.logstd"))


class BlackBoxEncoder:
    """Implicit inference network z = f(x, eps); noise joins the input.

    x has one row per respondent and eps a multiple of that, respondent-major
    (x may also repeat each row once per noise row)."""

    def __init__(self, net: FeedForwardNet, noise_dim: int):
        self.net = net
        self.noise_dim = noise_dim

    @classmethod
    def build(cls, input_dim: int, hidden: list[int], latent_dim: int,
              noise_dim: int, rng: np.random.Generator) -> "BlackBoxEncoder":
        net = FeedForwardNet.build([input_dim + noise_dim, *hidden, latent_dim],
                                   rng, name="encoder")
        return cls(net, noise_dim)

    @property
    def latent_dim(self) -> int:
        return self.net.output_dim

    @property
    def feature_dim(self) -> int:
        return self.net.input_dim - self.noise_dim

    def encode(self, tape: Tape | None, x: Tensor2, eps: Tensor2) -> Tensor2:
        if eps.cols != self.noise_dim:
            raise dk.ShapeError(f"noise has {eps.cols} columns, expected {self.noise_dim}")
        return self.net.forward(tape, eps, x=x)

    def encode_values(self, x: np.ndarray, eps: np.ndarray) -> np.ndarray:
        """`encode` without a tape, on plain arrays."""
        return self.net.forward(None, dk.const(eps), x=dk.const(x)).data

    def parameters(self) -> list[Tensor2]:
        return self.net.parameters()

    def to_dict(self) -> dict:
        return {"kind": "blackbox", "noise_dim": self.noise_dim, "net": self.net.to_dict()}

    @classmethod
    def from_dict(cls, doc: dict) -> "BlackBoxEncoder":
        return cls(FeedForwardNet.from_dict(doc["net"], name="encoder"), doc["noise_dim"])


class Discriminator:
    """T(x, z): raw logit of the density-ratio classifier (no sigmoid).

    x has one row per respondent and z a multiple of that, respondent-major;
    x is ignored (and may be None) when response_dim is 0."""

    def __init__(self, net: FeedForwardNet, response_dim: int):
        self.net = net
        self.response_dim = response_dim

    @classmethod
    def build(cls, response_dim: int, latent_dim: int, hidden: list[int],
              rng: np.random.Generator) -> "Discriminator":
        net = FeedForwardNet.build([response_dim + latent_dim, *hidden, 1],
                                   rng, name="disc")
        return cls(net, response_dim)

    def forward(self, tape: Tape | None, x: Tensor2 | None, z: Tensor2,
                split: bool = False):
        """T(x, z); with split, the pair (to_inputs, to_weights) of one
        forward, whose gradients reach only x and z, and only the weights."""
        return self.net.forward(tape, z, x=x if self.response_dim else None, split=split)

    def forward_values(self, x: np.ndarray | None, z: np.ndarray) -> np.ndarray:
        """`forward` without a tape, on plain arrays."""
        x = dk.const(x) if x is not None and self.response_dim else None
        return self.net.forward(None, dk.const(z), x=x).data

    def parameters(self) -> list[Tensor2]:
        return self.net.parameters()

    def to_dict(self) -> dict:
        return {"kind": "discriminator", "response_dim": self.response_dim,
                "net": self.net.to_dict()}

    @classmethod
    def from_dict(cls, doc: dict) -> "Discriminator":
        return cls(FeedForwardNet.from_dict(doc["net"], name="disc"), doc["response_dim"])


def encode_responses(x: np.ndarray, categories: np.ndarray,
                     missing_block: bool | None = None) -> tuple[np.ndarray, bool]:
    """Map ordinal responses into network inputs.

    Each response becomes (x + 0.5) / C_j in (0, 1); a MISSING entry maps to
    0.5.  A parallel 0/1 indicator block is appended, doubling the width,
    when missing_block is set, or when it is None and the matrix carries any
    missingness.  Returns (features, whether the block was appended).
    """
    x = np.asarray(x, dtype=np.int64)
    cats = np.asarray(categories, dtype=np.float64)
    miss = x == MISSING
    vals = (np.where(miss, (cats[None, :] - 1.0) / 2.0, x) + 0.5) / cats[None, :]
    vals = np.where(miss, 0.5, vals)
    if missing_block is None:
        missing_block = bool(miss.any())
    if missing_block:
        return np.hstack([vals, miss.astype(np.float64)]), True
    return vals, False
