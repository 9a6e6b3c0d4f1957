"""Minimal reverse-mode differentiation over dense 2-D float64 arrays.

Forward evaluation records operation nodes on a Tape; Tape.backward walks the
record once in reverse and accumulates exact gradients into every leaf tensor
that requires them.  The op set is exactly what the variational estimators
need: dense matrix algebra, stable elementwise nonlinearities, row
reductions, a handful of structural helpers (reshape, repeat_rows,
stop_gradient, triangular inverse), `feedforward`, which runs a whole
network as one node (its first layer can repeat per-respondent rows next to
per-draw rows, and a split forward returns one output per gradient route),
`ordered_cuts` for the decoder's intercepts, and one fused cumulative-logit
likelihood over the `boundary_table` that `grm.category_probs` shares.

Everything is float64 and row-major.  Tapes are cheap and rebuilt for every
training step; they are never shared between workers.  Every op also runs
with tape=None: it computes its value and records nothing, which is how
evaluation runs the training code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """An input value lies outside the operation's domain (e.g. log of 0)."""


class TapeError(RuntimeError):
    """The tape was used in an unsupported way (e.g. backward twice)."""


class Tensor2:
    """Dense 2-D tensor with an optional same-shape gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeError(f"Tensor2 requires a 2-D array, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor2(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


def const(data, name: str | None = None) -> Tensor2:
    """Wrap an array as a non-differentiable tensor."""
    return Tensor2(data, requires_grad=False, name=name)


def parameter(data, name: str | None = None) -> Tensor2:
    """Wrap an array as a trainable leaf."""
    return Tensor2(np.array(data, dtype=np.float64), requires_grad=True, name=name)


class _Node:
    __slots__ = ("op", "output", "backward")

    def __init__(self, op: str, output: Tensor2, backward):
        self.op = op
        self.output = output
        self.backward = backward


class Tape:
    """Ordered record of operations; creation order is topological order."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._spent = False

    def __len__(self) -> int:
        return len(self._nodes)

    def record(self, op: str, output: Tensor2, backward) -> None:
        self._nodes.append(_Node(op, output, backward))

    def backward(self, root: Tensor2,
                 row_scale: tuple[Tensor2, np.ndarray] | None = None) -> None:
        """Accumulate gradients of the scalar `root` into all live leaves.

        Each recorded node is visited exactly once, in reverse creation
        order.  A tape can back-propagate only once; rebuild the graph for
        another pass.

        row_scale=(t, c) multiplies row i of t's finished gradient by
        c[i, 0] before the node that produced t runs its backward, so
        everything upstream of t sees the scaled gradient and nothing else
        changes.  t must be the output of a node on this tape.
        """
        if self._spent:
            raise TapeError("tape already consumed by backward(); rebuild the graph")
        if root.data.size != 1:
            raise ShapeError(f"backward root must be 1x1, got {root.shape}")
        scaled = None
        if row_scale is not None:
            scaled, scale = row_scale
            if np.shape(scale) != (scaled.rows, 1):
                raise ShapeError(f"row_scale: column {np.shape(scale)} vs tensor {scaled.shape}")
            if not any(node.output is scaled for node in self._nodes):
                raise TapeError("row_scale: tensor was not produced on this tape")
        self._spent = True
        root.grad = np.ones((1, 1))
        for node in reversed(self._nodes):
            g = node.output.grad
            if g is None:
                continue
            if node.output is scaled:
                g = node.output.grad = g * scale
            node.backward(g)


def _accum(t: Tensor2, g: np.ndarray, own: bool = True) -> None:
    """Add g into t's gradient buffer.

    own=True promises g is freshly allocated and never reused by the caller,
    so it can be stored directly on first accumulation; own=False forces a
    copy there (g may be a view of, or alias, another tensor's gradient).
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if own else np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _make(tape: Tape | None, op: str, inputs, out_data, backward) -> Tensor2:
    needs = any(t.requires_grad for t in inputs)
    out = Tensor2(out_data, requires_grad=needs)
    if needs and tape is not None:
        tape.record(op, out, backward)
    return out


def _as_pair(b) -> tuple[Tensor2 | None, bool]:
    """Return (b_tensor_or_none, is_scalar)."""
    if isinstance(b, Tensor2):
        return b, False
    return None, True


def _binary_shapes(op: str, a: Tensor2, b: Tensor2) -> bool:
    """Validate elementwise operand shapes; True if b broadcasts as 1x1."""
    if a.shape == b.shape:
        return False
    if b.shape == (1, 1):
        return True
    raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


# ---------------------------------------------------------------------------
# linear algebra


def matmul(tape: Tape | None, a: Tensor2, b: Tensor2) -> Tensor2:
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _make(tape, "matmul", (a, b), out_data, backward)


def transpose(tape: Tape | None, x: Tensor2) -> Tensor2:
    out_data = np.ascontiguousarray(x.data.T)

    def backward(g):
        _accum(x, g.T, own=False)

    return _make(tape, "transpose", (x,), out_data, backward)


def tril_inverse(tape: Tape | None, x: Tensor2) -> Tensor2:
    """Inverse of a lower-triangular matrix with nonzero diagonal."""
    if x.rows != x.cols:
        raise ShapeError(f"tril_inverse: square matrix required, got {x.shape}")
    k = np.linalg.inv(x.data)

    def backward(g):
        _accum(x, -k.T @ g @ k.T)

    return _make(tape, "tril_inverse", (x,), k, backward)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(tape: Tape | None, a: Tensor2, b) -> Tensor2:
    bt, is_scalar = _as_pair(b)
    if is_scalar:
        def backward(g):
            _accum(a, g, own=False)

        return _make(tape, "add", (a,), a.data + float(b), backward)
    bcast = _binary_shapes("add", a, bt)

    def backward(g):
        _accum(a, g, own=False)
        if bcast:
            _accum(bt, g.sum().reshape(1, 1))
        else:
            _accum(bt, g, own=False)

    return _make(tape, "add", (a, bt), a.data + bt.data, backward)


def sub(tape: Tape | None, a: Tensor2, b) -> Tensor2:
    bt, is_scalar = _as_pair(b)
    if is_scalar:
        def backward(g):
            _accum(a, g, own=False)

        return _make(tape, "sub", (a,), a.data - float(b), backward)
    bcast = _binary_shapes("sub", a, bt)

    def backward(g):
        _accum(a, g, own=False)
        _accum(bt, -g.sum().reshape(1, 1) if bcast else -g)

    return _make(tape, "sub", (a, bt), a.data - bt.data, backward)


def mul(tape: Tape | None, a: Tensor2, b) -> Tensor2:
    bt, is_scalar = _as_pair(b)
    if is_scalar:
        c = float(b)

        def backward(g):
            _accum(a, g * c)

        return _make(tape, "mul", (a,), a.data * c, backward)
    bcast = _binary_shapes("mul", a, bt)

    def backward(g):
        _accum(a, g * bt.data)
        gb = g * a.data
        _accum(bt, gb.sum().reshape(1, 1) if bcast else gb)

    return _make(tape, "mul", (a, bt), a.data * bt.data, backward)


def div(tape: Tape | None, a: Tensor2, b: Tensor2) -> Tensor2:
    bcast = _binary_shapes("div", a, b)

    def backward(g):
        _accum(a, g / b.data)
        gb = -g * a.data / (b.data * b.data)
        _accum(b, gb.sum().reshape(1, 1) if bcast else gb)

    return _make(tape, "div", (a, b), a.data / b.data, backward)


def square(tape: Tape | None, x: Tensor2) -> Tensor2:
    def backward(g):
        _accum(x, 2.0 * x.data * g)

    return _make(tape, "square", (x,), x.data * x.data, backward)


def pow_const(tape: Tape | None, x: Tensor2, p: float) -> Tensor2:
    """x**p elementwise; x must be strictly positive for non-integer p."""
    out_data = np.power(x.data, p)

    def backward(g):
        _accum(x, p * np.power(x.data, p - 1.0) * g)

    return _make(tape, "pow_const", (x,), out_data, backward)


def exp(tape: Tape | None, x: Tensor2) -> Tensor2:
    out_data = np.exp(x.data)

    def backward(g):
        _accum(x, out_data * g)

    return _make(tape, "exp", (x,), out_data, backward)


def log(tape: Tape | None, x: Tensor2) -> Tensor2:
    if np.any(x.data <= 0.0):
        idx = tuple(int(v) for v in np.argwhere(x.data <= 0.0)[0])
        raise DomainError(f"log: non-positive entry {x.data[idx]!r} at index {idx}")

    def backward(g):
        _accum(x, g / x.data)

    return _make(tape, "log", (x,), np.log(x.data), backward)


def log1p_exp(tape: Tape | None, x: Tensor2) -> Tensor2:
    """Softplus log(1 + e^x), computed without overflow on either tail."""
    xd = x.data

    def backward(g):
        _accum(x, _sigmoid_values(xd) * g)

    return _make(tape, "log1p_exp", (x,), _softplus_values(xd), backward)


def _softplus_values(xd: np.ndarray) -> np.ndarray:
    return np.where(xd > 0.0,
                    xd + np.log1p(np.exp(-np.abs(xd))),
                    np.log1p(np.exp(np.minimum(xd, 0.0))))


def _sigmoid_values(xd: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(xd))
    return np.where(xd >= 0.0, 1.0, e) / (1.0 + e)


def _gelu_derivative(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d/du u * Phi(u) = Phi(u) + u * phi(u), in a fresh array."""
    d = np.multiply(-0.5, u)
    d *= u
    np.exp(d, out=d)
    d *= _INV_SQRT_2PI
    d *= u
    d += cdf
    return d


def gelu(tape: Tape | None, x: Tensor2) -> Tensor2:
    """Exact x * Phi(x) with Phi the standard normal CDF."""
    xd = x.data
    cdf = ndtr(xd)

    def backward(g):
        _accum(x, _gelu_derivative(xd, cdf) * g)

    return _make(tape, "gelu", (x,), xd * cdf, backward)


# ---------------------------------------------------------------------------
# feed-forward networks


def feedforward(tape: Tape | None, h: Tensor2, layers, x: Tensor2 | None = None,
                split: bool = False):
    """A whole feed-forward net as one node.

    layers is a sequence of (weight, bias, gelu) triples: each layer maps
    its input a to u = a @ weight + bias, followed by GELU when gelu is
    true.  The first input is h, or [repeat_rows(x, t), h] with
    t = h.rows // x.rows when x is given; then x @ weight[:F] is computed
    once per row of x and added to each of its t rows of h @ weight[F:].

    With split=True the net runs once and returns (to_inputs, to_weights):
    two tensors with the same values, whose gradients reach only h and x,
    and only the weights and biases, respectively.  Backward computes only
    the gradients whose targets require them, and each GELU's derivative
    is computed once, in the forward, for both outputs.
    """
    t = 1
    F = 0
    if x is not None:
        B, F = x.shape
        if B == 0 or h.rows % B:
            raise ShapeError(f"feedforward: {h.rows} rows are not a multiple of {B}")
        t = h.rows // B
    width = F + h.cols
    for w, b, _ in layers:
        if w.rows != width or b.shape != (1, w.cols):
            raise ShapeError(f"feedforward: layer {w.shape} + bias {b.shape} "
                             f"does not take {width} inputs")
        width = w.cols
    inputs_live = h.requires_grad or (x is not None and x.requires_grad)
    any_weights = any(w.requires_grad or b.requires_grad for w, b, _ in layers)
    keep = tape is not None and (inputs_live or any_weights)

    # kept for backward only: acts[l] is the input of layer l (acts[0] is
    # h.data), derivs[l] the GELU derivative at u_l or None for identity
    acts, derivs = [], []
    a = h.data
    for l, (w, b, gelu_on) in enumerate(layers):
        if l == 0 and x is not None:
            u = a @ w.data[F:]
            view = u.reshape(B, t, -1)
            view += (x.data @ w.data[:F])[:, None, :]
        else:
            u = a @ w.data
        u += b.data
        d = None
        if gelu_on:
            cdf = ndtr(u)
            if keep:
                d = _gelu_derivative(u, cdf)
            u *= cdf
        if keep:
            acts.append(a)
            derivs.append(d)
        a = u

    def run_backward(g, to_inputs: bool, to_weights: bool):
        for l in range(len(layers) - 1, -1, -1):
            w, b, _ = layers[l]
            if derivs[l] is not None:
                g = derivs[l] * g
            if to_weights:
                if b.requires_grad:
                    _accum(b, g.sum(axis=0, keepdims=True))
                if w.requires_grad:
                    if l == 0 and x is not None:
                        g_sum = g.reshape(B, t, -1).sum(axis=1)
                        _accum(w, np.vstack([x.data.T @ g_sum, acts[0].T @ g]))
                    else:
                        _accum(w, acts[l].T @ g)
            if l > 0:
                g = g @ w.data.T
        if to_inputs:
            w = layers[0][0].data
            if h.requires_grad:
                _accum(h, g @ w[F:].T)
            if x is not None and x.requires_grad:
                _accum(x, g.reshape(B, t, -1).sum(axis=1) @ w[:F].T)

    if not split:
        out = Tensor2(a, requires_grad=inputs_live or any_weights)
        if keep:
            tape.record("feedforward", out, lambda g: run_backward(g, inputs_live, any_weights))
        return out
    to_inputs = Tensor2(a, requires_grad=inputs_live)
    to_weights = Tensor2(a, requires_grad=any_weights)
    if keep and inputs_live:
        tape.record("feedforward_to_inputs", to_inputs, lambda g: run_backward(g, True, False))
    if keep and any_weights:
        tape.record("feedforward_to_weights", to_weights, lambda g: run_backward(g, False, True))
    return to_inputs, to_weights


# ---------------------------------------------------------------------------
# reductions and structure


def tsum(tape: Tape | None, x: Tensor2) -> Tensor2:
    def backward(g):
        _accum(x, np.full(x.shape, g[0, 0]))

    return _make(tape, "sum", (x,), x.data.sum().reshape(1, 1), backward)


def tmean(tape: Tape | None, x: Tensor2) -> Tensor2:
    n = x.data.size

    def backward(g):
        _accum(x, np.full(x.shape, g[0, 0] / n))

    return _make(tape, "mean", (x,), x.data.mean().reshape(1, 1), backward)


def sum_rows(tape: Tape | None, x: Tensor2) -> Tensor2:
    """Per-row sum over columns; (B, M) -> (B, 1)."""

    def backward(g):
        _accum(x, np.broadcast_to(g, x.shape), own=False)

    return _make(tape, "sum_rows", (x,), x.data.sum(axis=1, keepdims=True), backward)


def logsumexp_rows(tape: Tape | None, x: Tensor2) -> Tensor2:
    """Per-row log-sum-exp, max-shifted; backward is the row softmax."""
    m = x.data.max(axis=1, keepdims=True)
    shifted = np.exp(x.data - m)
    total = shifted.sum(axis=1, keepdims=True)
    out_data = m + np.log(total)

    def backward(g):
        _accum(x, g * (shifted / total))

    return _make(tape, "logsumexp_rows", (x,), out_data, backward)


def mul_colvec(tape: Tape | None, x: Tensor2, c: Tensor2) -> Tensor2:
    """Scale row i of x by c[i, 0]."""
    if c.cols != 1 or c.rows != x.rows:
        raise ShapeError(f"mul_colvec: col vector {c.shape} vs x {x.shape}")

    def backward(g):
        _accum(x, g * c.data)
        _accum(c, (g * x.data).sum(axis=1, keepdims=True))

    return _make(tape, "mul_colvec", (x, c), x.data * c.data, backward)


def reshape(tape: Tape | None, x: Tensor2, rows: int, cols: int) -> Tensor2:
    if rows * cols != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as ({rows}, {cols})")
    out_data = x.data.reshape(rows, cols).copy()

    def backward(g):
        _accum(x, g.reshape(x.shape), own=False)

    return _make(tape, "reshape", (x,), out_data, backward)


def repeat_rows(tape: Tape | None, x: Tensor2, times: int) -> Tensor2:
    """Repeat every row `times` times back to back, (B, k) -> (B*times, k);
    backward sums each group of repeated rows."""
    if times < 1:
        raise ShapeError(f"repeat_rows: repeat count must be >= 1, got {times}")
    if times == 1:
        return x
    B, k = x.shape

    def backward(g):
        _accum(x, g.reshape(B, times, k).sum(axis=1))

    return _make(tape, "repeat_rows", (x,), np.repeat(x.data, times, axis=0), backward)


def ordered_cuts(tape: Tape | None, raw: Tensor2, min_gap: float) -> Tensor2:
    """Strictly decreasing intercepts from one raw (M, K) matrix: column 0 is
    the first intercept, and cut_k = cut_{k-1} - (softplus(raw_k) + min_gap)
    as a left-to-right np.cumsum; backward is a reverse cumulative sum."""
    steps = raw.data.copy()
    steps[:, 1:] = -(_softplus_values(raw.data[:, 1:]) + min_gap)

    def backward(g):
        total = np.cumsum(g[:, ::-1], axis=1)[:, ::-1]
        total[:, 1:] *= -_sigmoid_values(raw.data[:, 1:])
        _accum(raw, total)

    return _make(tape, "ordered_cuts", (raw,), np.cumsum(steps, axis=1), backward)


def boundary_table(cuts: np.ndarray, categories: np.ndarray) -> np.ndarray:
    """(M, K+2) boundary intercepts by level: +inf at level 0, cuts[:, k-1]
    at level k, and -inf from level C_j on, so sigmoid(logit + table) is
    P(y_j >= level) with exact 1 and 0 at the ends; padded cuts are ignored."""
    M, K = cuts.shape
    table = np.empty((M, K + 2))
    table[:, 0] = np.inf
    table[:, 1:-1] = cuts
    table[np.arange(K + 2)[None, :] >= np.asarray(categories)[:, None]] = -np.inf
    return table


def ordinal_loglik(tape: Tape | None, logits: Tensor2, cuts: Tensor2,
                   levels: np.ndarray, missing: np.ndarray, categories: np.ndarray,
                   floor: float, tile: int = 1) -> Tensor2:
    """Per-row sum over items of log P(y_j = levels_j) under cumulative logits.

    P(y_j >= k) = sigmoid(logit_j + cuts[j, k-1]) for k = 1..C_j-1, with
    level 0 at probability 1 and level C_j at 0; the category probability
    is the difference of the two boundaries around it, floored at `floor`
    before the log.  logits is (B*tile, M), respondent-major with `tile`
    rows per respondent; cuts is (M, K); levels and missing are (B, M), and
    missing entries contribute 0.

    The two boundary intercepts of each observed category are gathered once
    per respondent from `boundary_table` and broadcast over the tile rows.
    Entries whose probability sits at the floor get zero gradient.
    """
    B, M = levels.shape
    if logits.shape != (B * tile, M):
        raise ShapeError(f"ordinal_loglik: logits {logits.shape} vs {B} respondents "
                         f"x {tile} rows and {M} items")
    table = boundary_table(cuts.data, categories)
    observed = ~np.asarray(missing, dtype=bool)
    upper = np.where(observed, levels, 0)
    items = np.arange(M)[None, :]
    t = logits.data.reshape(B, tile, M)
    s_hi = _sigmoid_values(t + table[items, upper][:, None, :])
    s_lo = _sigmoid_values(t + table[items, upper + 1][:, None, :])
    p = np.where(observed[:, None, :], s_hi - s_lo, 1.0)
    out_data = np.log(np.maximum(p, floor)).reshape(B * tile, M).sum(axis=1, keepdims=True)

    def backward(g):
        live = observed[:, None, :] & (p > floor)
        scale = np.divide(g.reshape(B, tile, 1), p, out=np.zeros_like(p), where=live)
        d_hi = s_hi * (1.0 - s_hi) * scale       # d log p / d(upper boundary logit)
        d_lo = s_lo * (1.0 - s_lo) * scale       # -d log p / d(lower boundary logit)
        _accum(logits, (d_hi - d_lo).reshape(B * tile, M))
        if not cuts.requires_grad:
            return
        cells = (np.arange(M) * table.shape[1])[None, :] + upper
        grad = (np.bincount(cells.ravel(), weights=d_hi.sum(axis=1).ravel(), minlength=table.size)
                - np.bincount((cells + 1).ravel(), weights=d_lo.sum(axis=1).ravel(),
                              minlength=table.size)).reshape(table.shape)
        _accum(cuts, grad[:, 1:-1], own=False)

    return _make(tape, "ordinal_loglik", (logits, cuts), out_data, backward)


def stop_gradient(tape: Tape | None, x: Tensor2) -> Tensor2:
    """Forward identity; contributes nothing to any gradient."""
    return Tensor2(x.data, requires_grad=False)
