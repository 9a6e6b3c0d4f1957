"""Feed-forward networks for the three amortized roles: Gaussian encoder
(VAE/IWAE), implicit noise-injecting encoder (AVB/IWAVB), and the
density-ratio discriminator.  Hidden activations are exact GELU, outputs are
linear, and weights start from uniform Kaiming draws.  The `*_values`
methods run the same forward code without a tape, on plain arrays.

The implicit encoder and the discriminator take one feature row per
respondent; their first layer (`dk.matmul_repeat`) computes its feature part
once per respondent, and its weight stays one matrix, as serialized."""

from __future__ import annotations

import numpy as np

from . import diffkernel as dk
from .diffkernel import Tape, Tensor2
from .grm import MISSING

ACT_GELU = "gelu"
ACT_IDENTITY = "identity"


def kaiming_init(fan_in: int, fan_out: int, rng: np.random.Generator):
    """Weights and biases i.i.d. uniform on +-sqrt(3 / fan_in)."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    bound = np.sqrt(3.0 / fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    b = rng.uniform(-bound, bound, size=(1, fan_out))
    return w, b


class Layer:
    """One affine map plus activation tag; weight is (fan_in, fan_out)."""

    def __init__(self, weight: Tensor2, bias: Tensor2, activation: str):
        if activation not in (ACT_GELU, ACT_IDENTITY):
            raise ValueError(f"unknown activation {activation!r}")
        self.weight = weight
        self.bias = bias
        self.activation = activation

    @property
    def fan_in(self) -> int:
        return self.weight.rows

    @property
    def fan_out(self) -> int:
        return self.weight.cols

    def forward(self, tape: Tape | None, h: Tensor2, frozen: bool = False,
                x: Tensor2 | None = None) -> Tensor2:
        """Affine map and activation of h; with x, of [repeat_rows(x, t), h]
        for t = h.rows // x.rows."""
        w = dk.const(self.weight.data) if frozen else self.weight
        b = dk.const(self.bias.data) if frozen else self.bias
        hw = dk.matmul(tape, h, w) if x is None else dk.matmul_repeat(tape, x, h, w)
        out = dk.broadcast_add_rowvec(tape, hw, b)
        if self.activation == ACT_GELU:
            out = dk.gelu(tape, out)
        return out

    def to_dict(self) -> dict:
        return {"weight": self.weight.data.tolist(), "bias": self.bias.data.tolist(),
                "activation": self.activation}

    @classmethod
    def from_dict(cls, doc: dict, name: str = "layer") -> "Layer":
        return cls(dk.parameter(doc["weight"], name=f"{name}.weight"),
                   dk.parameter(doc["bias"], name=f"{name}.bias"), doc["activation"])


class FeedForwardNet:
    """Chain of layers; hidden activations GELU, final activation identity."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("need at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.fan_out != b.fan_in:
                raise ValueError(f"layer dims do not chain: {a.fan_out} -> {b.fan_in}")
        if layers[-1].activation != ACT_IDENTITY:
            raise ValueError("final activation must be identity")
        self.layers = layers

    @classmethod
    def build(cls, dims: list[int], rng: np.random.Generator, name: str = "net") -> "FeedForwardNet":
        layers = []
        for i, (fi, fo) in enumerate(zip(dims, dims[1:])):
            w, b = kaiming_init(fi, fo, rng)
            act = ACT_IDENTITY if i == len(dims) - 2 else ACT_GELU
            layers.append(Layer(dk.parameter(w, name=f"{name}.w{i}"),
                                dk.parameter(b, name=f"{name}.b{i}"), act))
        return cls(layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in

    @property
    def output_dim(self) -> int:
        return self.layers[-1].fan_out

    def forward(self, tape: Tape | None, h: Tensor2, frozen: bool = False,
                x: Tensor2 | None = None) -> Tensor2:
        """The net at h, or at [repeat_rows(x, t), h] when x is given."""
        h = self.layers[0].forward(tape, h, frozen=frozen, x=x)
        for layer in self.layers[1:]:
            h = layer.forward(tape, h, frozen=frozen)
        return h

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
    """Amortized diagonal-Gaussian inference network: x -> (mu, sigma)."""

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
                         dk.parameter(bm, name="encoder.mean.b"), ACT_IDENTITY),
                   Layer(dk.parameter(ws, name="encoder.logstd.w"),
                         dk.parameter(bs, name="encoder.logstd.b"), ACT_IDENTITY))

    @property
    def latent_dim(self) -> int:
        return self.mean_head.fan_out

    def heads(self, tape: Tape | None, x: Tensor2):
        h = dk.gelu(tape, self.trunk.forward(tape, x))
        mu = self.mean_head.forward(tape, h)
        sigma = dk.exp(tape, self.log_std_head.forward(tape, h))
        return mu, sigma

    def encode(self, tape: Tape | None, x: Tensor2, u: Tensor2):
        """Reparameterized draw z = mu(x) + sigma(x) * u; returns (z, mu, sigma).

        u may hold several draws per row of x (respondent-major, the same
        count for every row): the heads run once per row of x, and mu and
        sigma are repeated to the rows of u.
        """
        if u.cols != self.latent_dim:
            raise dk.ShapeError(f"noise has {u.cols} columns, latent dim is {self.latent_dim}")
        if u.rows % x.rows:
            raise dk.ShapeError(f"noise has {u.rows} rows, not a multiple of the "
                                f"{x.rows} input rows")
        mu, sigma = self.heads(tape, x)
        draws = u.rows // x.rows
        mu = dk.repeat_rows(tape, mu, draws)
        sigma = dk.repeat_rows(tape, sigma, draws)
        z = dk.add(tape, mu, dk.mul(tape, sigma, u))
        return z, mu, sigma

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
                frozen: bool = False) -> Tensor2:
        return self.net.forward(tape, z, frozen=frozen, x=x if self.response_dim else None)

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


def encode_responses(x: np.ndarray, categories: np.ndarray) -> tuple[np.ndarray, bool]:
    """Map ordinal responses into network inputs.

    Each response becomes (x + 0.5) / C_j in (0, 1); a MISSING entry maps to
    0.5.  When the matrix carries any missingness, a parallel 0/1 indicator
    block is appended, doubling the width.  Returns (features, has_missing).
    """
    x = np.asarray(x, dtype=np.int64)
    cats = np.asarray(categories, dtype=np.float64)
    miss = x == MISSING
    vals = (np.where(miss, (cats[None, :] - 1.0) / 2.0, x) + 0.5) / cats[None, :]
    vals = np.where(miss, 0.5, vals)
    has_missing = bool(miss.any())
    if has_missing:
        return np.hstack([vals, miss.astype(np.float64)]), True
    return vals, False
