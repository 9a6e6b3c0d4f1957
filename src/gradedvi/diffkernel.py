"""Minimal reverse-mode differentiation over dense 2-D float64 arrays.

Forward evaluation records operation nodes on a Tape; Tape.backward walks the
record once in reverse and accumulates exact gradients into every leaf tensor
that requires them.  The op set is exactly what the variational estimators
need: dense matrix algebra, stable elementwise nonlinearities, row
reductions, reshape, `feedforward`, which runs a whole network as one node
(its first layer reads per-respondent rows next to per-draw rows, and a
split forward returns one output per gradient route), `ordered_cuts` for
the decoder's intercepts, one fused cumulative-logit likelihood whose
forward, `_observed_probs`, also gives `grm.category_probs` at the observed
categories, and Gaussians as one node each: the encoder's draws and log q
(`gaussian_draws`, `diag_normal_logpdf`, one mu and sigma row per
respondent for all of its draws), the VAE's KL (`gaussian_kl`) and the
prior N(0, Sigma) under the factor correlation (`correlated_normal_logpdf`).
Elementwise ops take operands of one shape, or a Python scalar as the second.

Everything is float64 and row-major.  Tapes are cheap and rebuilt for every
training step; they are never shared between workers.  Every op also runs
with tape=None: it computes its value and records nothing, which is how
evaluation runs the training code.

Large row kernels run through `_split_rows`, which hands the upper half of
the rows of a kernel of at least `_SPLIT_MIN_VALUES` values to one
persistent worker thread while the calling thread does the lower half:
each layer of `feedforward`, forward (its matmul, per-respondent feature
add, bias and exact GELU) and backward (the input gradient's matmul and
GELU-derivative product, and the weight gradient split over the fan-in),
`gelu`, `_observed_probs` by rows, and `ordinal_loglik`'s backward by
respondents.  Every matmul among them runs through `_split_matmul`.  Each
output row is computed by the same operations either way, so the bits do
not depend on the number of CPUs; a matmul splits only at a multiple of
`_ROW_GRAIN` rows and where BLAS takes the same kernel for the halves as
for the whole (`_matmul_splits_exactly`), and runs whole first otherwise.
The kernels work through their rows in cache-sized chunks whose scratch
buffers and outputs the calling thread allocates, so GELU makes no
temporary as large as its input and the worker allocates no arrays.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import ndtr

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_2PI = float(np.log(2.0 * np.pi))
_SPLIT_MIN_VALUES = 1 << 16  # smallest kernel _split_rows runs on two threads
_CHUNK_VALUES = 1 << 16  # values per row chunk of a chunked kernel (512 KB of float64)
_ROW_GRAIN = 64  # rows: a split fn that calls BLAS cuts at a multiple of this
_BLAS_SMALL_GEMM = 100 ** 3  # multiply-adds up to which OpenBLAS may take its small dgemm kernel


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

    own=True promises g is the caller's to give away, freshly allocated or
    a buffer that nothing reads again, so it can be stored directly on first
    accumulation; own=False forces a copy there (g may be a view of, or
    alias, another tensor's gradient).
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


def _binary_shapes(op: str, a: Tensor2, b: Tensor2) -> None:
    """Elementwise operands must have the same shape."""
    if a.shape != b.shape:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


# ---------------------------------------------------------------------------
# two-thread row split


_worker: ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()
_in_split = threading.local()


def _reset_worker() -> None:
    """Forget the parent's worker in a forked child, which has no such thread."""
    global _worker, _worker_lock
    _worker = None
    _worker_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_worker)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_half(fn, lo: int, hi: int) -> None:
    _in_split.active = True  # the worker thread runs nothing but split halves
    fn(lo, hi)


def _split_point(n_rows: int, grain: int) -> int:
    """The row where `_split_rows` cuts: the multiple of grain nearest the
    middle."""
    return grain * round(n_rows / (2 * grain))


def _matmul_splits_exactly(n_rows: int, inner: int, cols: int) -> bool:
    """Whether an (n_rows, inner) @ (inner, cols) matmul gives the same bits
    computed as the two row halves of a `_ROW_GRAIN` split.

    BLAS computes each output row from that row alone, by the same micro-
    kernel wherever the row sits, provided the cut is a multiple of the
    kernel's row block (`_ROW_GRAIN`) and the rows take the same kernel.
    Two things can change the kernel, as measured with OpenBLAS 0.3.31 on
    an AVX-512 Xeon: a half of one row, which numpy hands to gemv (65 rows
    cut at 64 differed by up to 5e-14), and OpenBLAS's small-matrix dgemm
    kernel of the SkylakeX-class x86 targets, taken at no more than
    `_BLAS_SMALL_GEMM` multiply-adds and rounding differently (a (3200, 50)
    @ (50, 10) product cut at row 1600 differed by up to 2e-14).  So both
    halves must hold at least `_ROW_GRAIN` rows, and the whole and the
    halves must lie on the same side of that size.
    """
    h = _split_point(n_rows, _ROW_GRAIN)
    half = min(h, n_rows - h)
    per_row = inner * cols
    return half >= _ROW_GRAIN and (n_rows * per_row <= _BLAS_SMALL_GEMM
                                   or half * per_row > _BLAS_SMALL_GEMM)


def _split_rows(fn, n_rows: int, n_values: int, grain: int = 1) -> None:
    """Run fn(lo, hi) over rows [0, n_rows), on two threads when it pays.

    fn(0, h) runs on the calling thread and fn(h, n_rows) on one persistent
    worker thread, with h = `_split_point(n_rows, grain)`.  It is
    one call fn(0, n_rows) instead when the kernel has fewer than
    `_SPLIT_MIN_VALUES` values, when this process may use fewer than two
    CPUs (`os.sched_getaffinity`, so `taskset -c 0` makes every call
    serial), when h would leave a half empty, or when the call comes from
    inside a split (a thread-local guard, so nested use cannot deadlock).

    The rows are those of the kernel's output: a layer's rows forward and
    for the input gradient, its fan-in for the weight gradient
    (`_split_matmul`), the GELU's rows (`gelu`), the likelihood's rows for
    the observed-category probabilities (`_observed_probs`), and
    respondents for `ordinal_loglik`'s backward.  Rules that keep the
    results and the process the same:
    - fn must compute each row from its own inputs alone, with the same
      operations whatever [lo, hi) is; then the bits do not depend on
      where, or whether, the rows are split.  A sum over the draws of
      many rows, like a weight gradient's, is never cut.
    - A fn that calls BLAS splits with grain=`_ROW_GRAIN` and runs a
      matmul over its rows only where `_matmul_splits_exactly` allows it:
      BLAS sums a row the same way only when the cut falls on the kernel's
      row blocks and both halves take the same kernel.  This holds with
      BLAS on one thread, as perfbench runs it: OpenBLAS's own threads
      cut a product by its size, and a (192, 100) weight gradient then
      differs from its halves in the last bits.
    - fn writes only into arrays that the calling thread allocated, its
      scratch buffers and `out=` matmul targets included (`_chunk_slot`),
      so the worker's malloc arena does not grow the peak RSS.
    - fn never calls a public gradedvi function: span tracers keep one
      stack per process, and a span opened on the worker would take a
      parent from the calling thread.
    - The worker is created lazily, on the first call that splits, and
      forgotten in a forked child (`os.register_at_fork`), which starts
      its own when it first splits.
    - The worker half runs in a copy of the caller's context
      (`contextvars.copy_context`), so the caller's `np.errstate` holds
      there too.
    - An exception in either half is raised only after both halves have
      finished; the calling thread's own exception wins.
    """
    global _worker
    h = _split_point(n_rows, grain)
    if (n_values < _SPLIT_MIN_VALUES or not 0 < h < n_rows
            or getattr(_in_split, "active", False) or _cpu_count() < 2):
        fn(0, n_rows)
        return
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="gradedvi-split")
        upper = _worker.submit(contextvars.copy_context().run, _worker_half, fn, h, n_rows)
    _in_split.active = True
    try:
        fn(0, h)
    finally:
        _in_split.active = False
        error = upper.exception()
    if error is not None:
        raise error


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


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(tape: Tape | None, a: Tensor2, b) -> Tensor2:
    if not isinstance(b, Tensor2):
        def backward(g):
            _accum(a, g, own=False)

        return _make(tape, "add", (a,), a.data + float(b), backward)
    _binary_shapes("add", a, b)

    def backward(g):
        _accum(a, g, own=False)
        _accum(b, g, own=False)

    return _make(tape, "add", (a, b), a.data + b.data, backward)


def sub(tape: Tape | None, a: Tensor2, b) -> Tensor2:
    if not isinstance(b, Tensor2):
        def backward(g):
            _accum(a, g, own=False)

        return _make(tape, "sub", (a,), a.data - float(b), backward)
    _binary_shapes("sub", a, b)

    def backward(g):
        _accum(a, g, own=False)
        _accum(b, -g)

    return _make(tape, "sub", (a, b), a.data - b.data, backward)


def mul(tape: Tape | None, a: Tensor2, b) -> Tensor2:
    if not isinstance(b, Tensor2):
        c = float(b)

        def backward(g):
            _accum(a, g * c)

        return _make(tape, "mul", (a,), a.data * c, backward)
    _binary_shapes("mul", a, b)

    def backward(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _make(tape, "mul", (a, b), a.data * b.data, backward)


def div(tape: Tape | None, a: Tensor2, b: Tensor2) -> Tensor2:
    _binary_shapes("div", a, b)

    def backward(g):
        _accum(a, g / b.data)
        _accum(b, -g * a.data / (b.data * b.data))

    return _make(tape, "div", (a, b), a.data / b.data, backward)


def square(tape: Tape | None, x: Tensor2) -> Tensor2:
    def backward(g):
        _accum(x, 2.0 * x.data * g)

    return _make(tape, "square", (x,), x.data * x.data, backward)


def exp(tape: Tape | None, x: Tensor2) -> Tensor2:
    out_data = np.exp(x.data)

    def backward(g):
        _accum(x, out_data * g)

    return _make(tape, "exp", (x,), out_data, backward)


def _check_positive(op: str, what: str, a: np.ndarray) -> None:
    """DomainError naming the first entry of a that is not positive."""
    if np.any(a <= 0.0):
        idx = tuple(int(v) for v in np.argwhere(a <= 0.0)[0])
        raise DomainError(f"{op}: non-positive {what} {a[idx]!r} at index {idx}")


def log(tape: Tape | None, x: Tensor2) -> Tensor2:
    _check_positive("log", "entry", x.data)

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


def _sigmoid_values(xd: np.ndarray, out: np.ndarray | None = None,
                    scratch: np.ndarray | None = None) -> np.ndarray:
    """where(x >= 0, 1, e) / (1 + e) with e = exp(-|x|), into out.

    Works in place on e and the result: out and scratch, which holds e and
    may be xd itself, are fresh arrays when not given.  The select is
    branch-free: since 0 <= e <= 1, max(e, [x >= 0]) is exactly 1 where
    x >= 0 and e elsewhere (NaN stays NaN).
    """
    out = np.greater_equal(xd, 0.0, out=np.empty(xd.shape) if out is None else out)
    e = np.abs(xd, out=scratch)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(out, e, out=out)
    e += 1.0
    out /= e
    return out


def _chunk_slot(buf: np.ndarray, lo: int, rows: int) -> np.ndarray:
    """The first axis' slot of a scratch buffer of min(n, 2 * step) rows that
    a chunk of `rows` rows uses inside a half that `_split_rows` started at
    lo: the lower half takes the front and the upper half the back, so the
    two threads never share rows."""
    return buf[:rows] if lo == 0 else buf[len(buf) - rows:]


def _gelu_derivative(u: np.ndarray, cdf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """d/du u * Phi(u) = Phi(u) + u * phi(u), into out (a fresh array when
    out is None)."""
    d = np.multiply(-0.5, u, out=out)
    d *= u
    np.exp(d, out=d)
    d *= _INV_SQRT_2PI
    d *= u
    d += cdf
    return d


def _gelu_scratch(n: int, width: int) -> tuple[int, np.ndarray]:
    """(rows per chunk, Phi buffer) for `_gelu_range` over n rows of `width`
    values: chunks of about `_CHUNK_VALUES` values and a buffer of two
    chunks (`_chunk_slot`), never larger than the n rows."""
    step = max(1, _CHUNK_VALUES // max(width, 1))
    return step, np.empty((min(n, 2 * step), width))


def _gelu_range(u: np.ndarray, d: np.ndarray | None, cdf: np.ndarray, step: int,
                lo: int, hi: int) -> None:
    """Exact GELU in place on rows [lo, hi) of u, u <- u * Phi(u), `step`
    rows at a time with Phi in this half's slot of cdf; the derivative at
    the input goes into d[lo:hi] when d is given."""
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        c = _chunk_slot(cdf, lo, b - a)
        ndtr(u[a:b], out=c)
        if d is not None:
            _gelu_derivative(u[a:b], c, out=d[a:b])
        u[a:b] *= c


def gelu(tape: Tape | None, x: Tensor2) -> Tensor2:
    """Exact x * Phi(x) with Phi the standard normal CDF, by the kernel that
    `feedforward`'s GELU layers run."""
    out = x.data.copy()
    step, cdf = _gelu_scratch(*out.shape)
    d = np.empty_like(out) if tape is not None and x.requires_grad else None
    _split_rows(lambda lo, hi: _gelu_range(out, d, cdf, step, lo, hi), out.shape[0], out.size)

    def backward(g):
        _accum(x, d * g)

    return _make(tape, "gelu", (x,), out, backward)


def gaussian_draws(tape: Tape | None, mu: Tensor2, sigma: Tensor2, u: np.ndarray) -> Tensor2:
    """Draws z = mu + sigma * u as one node: row i of the (B, P) mu and sigma
    serves, uncopied, the d rows of respondent i in the (B*d, P) noise u,
    with the bits of repeated rows; backward sums each respondent's rows."""
    B, P = mu.shape
    if sigma.shape != (B, P) or u.shape[1] != P or u.shape[0] % B:
        raise ShapeError(f"gaussian_draws: noise {u.shape} is not a multiple of the rows, "
                         f"or lacks the columns, of mu {mu.shape} and sigma {sigma.shape}")
    u3 = u.reshape(B, -1, P)
    z = sigma.data[:, None, :] * u3 + mu.data[:, None, :]

    def backward(g):
        _accum(mu, g.reshape(u3.shape).sum(axis=1))
        _accum(sigma, (g.reshape(u3.shape) * u3).sum(axis=1))

    return _make(tape, "gaussian_draws", (mu, sigma), z.reshape(u.shape), backward)


def diag_normal_logpdf(tape: Tape | None, z: Tensor2, mu: np.ndarray,
                       sigma: np.ndarray) -> Tensor2:
    """Per-row log N(z; mu, diag sigma^2), (B*d, P) -> (B*d, 1), as one node:
    row i of the plain (B, P) mu and sigma > 0 serves respondent i's d rows,
    so only z gets a gradient (DReG's log q), with the generic chain's bits."""
    B, P = mu.shape
    if sigma.shape != (B, P) or z.cols != P or z.rows % B:
        raise ShapeError(f"diag_normal_logpdf: mu {mu.shape}, sigma {sigma.shape}, z {z.shape}")
    _check_positive("diag_normal_logpdf", "sigma", sigma)
    resid = (z.data.reshape(B, -1, P) - mu[:, None, :]) / sigma[:, None, :]
    out_data = (resid * resid).reshape(z.shape).sum(axis=1, keepdims=True) * -0.5
    out_data.reshape(B, -1)[...] -= np.log(sigma).sum(axis=1, keepdims=True)
    out_data += -0.5 * P * _LOG_2PI

    def backward(g):
        dz = (2.0 * resid * (g.reshape(B, -1, 1) * -0.5)) / sigma[:, None, :]
        _accum(z, dz.reshape(z.shape))

    return _make(tape, "diag_normal_logpdf", (z,), out_data, backward)


def gaussian_kl(tape: Tape | None, mu: Tensor2, sigma: Tensor2) -> Tensor2:
    """Per-row KL(N(mu, diag sigma^2) || N(0, I)),
        0.5 * sum_p (mu^2 + sigma^2 - 1 - 2 log sigma),
    as one node; (n, P) -> (n, 1).  sigma must be strictly positive.

    Forward and backward run the arithmetic of the equivalent chain of
    square, add, sub, log, mul and sum_rows nodes operation for operation,
    down to the order sigma's two gradient terms are added in, so the bits
    equal that chain's.
    """
    if mu.shape != sigma.shape:
        raise ShapeError(f"gaussian_kl: mu {mu.shape} vs sigma {sigma.shape}")
    m, s = mu.data, sigma.data
    _check_positive("gaussian_kl", "sigma", s)
    terms = m * m
    terms += s * s
    terms -= 1.0
    terms -= np.log(s) * 2.0
    out_data = terms.sum(axis=1, keepdims=True)
    out_data *= 0.5

    def backward(g):
        g = np.broadcast_to(g * 0.5, s.shape)
        _accum(sigma, (-g * 2.0) / s)
        _accum(sigma, 2.0 * s * g)
        _accum(mu, 2.0 * m * g)

    return _make(tape, "gaussian_kl", (mu, sigma), out_data, backward)


def correlation_factor(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, s): the Cholesky factor of the factor correlation L L^T that a
    (P, P) raw matrix parameterizes, and its (P, 1) inverse row norms.

    U is raw's strict lower triangle with softplus(raw_pp) on the diagonal,
    and row p of L is U_p * s_p with s_p = ||U_p||^-1, so L L^T has a unit
    diagonal; raw's upper triangle is ignored."""
    unnorm = np.diag(_softplus_values(np.diag(raw))) + np.tril(raw, -1)
    scale = np.power((unnorm * unnorm).sum(axis=1, keepdims=True), -0.5)
    return unnorm * scale, scale


def correlated_normal_logpdf(tape: Tape | None, z: Tensor2, chol_raw: Tensor2) -> Tensor2:
    """Per-row log N(z; 0, L L^T), L = `correlation_factor(chol_raw)`, as one
    node; (n, P) -> (n, 1).  With K = L^-1 and w = z K^T, the value is
    -0.5 ||w_i||^2 - sum_p log L_pp - (P/2) log 2pi, computed by the numpy
    operations, in order, of the equivalent chain of generic nodes, so its
    bits are that chain's.  The backward is closed form, with gw = -g w:
    dz = gw K (the chain's bits); dL = -K^T (gw^T z) K^T, minus sum(g) / L_pp
    on the diagonal; dU_p = (dL_p - L_p (dL_p . L_p)) s_p through the row
    normalization; and softplus' derivative on the diagonal.
    """
    P = z.cols
    if chol_raw.shape != (P, P):
        raise ShapeError(f"correlated_normal_logpdf: factor {chol_raw.shape} vs z {z.shape}")
    chol, scale = correlation_factor(chol_raw.data)
    kt = np.ascontiguousarray(np.linalg.inv(chol).T)  # K^T
    w = z.data @ kt
    out_data = (w * w).sum(axis=1, keepdims=True)
    out_data *= -0.5
    out_data -= np.log(np.diag(chol)).sum()
    out_data += -0.5 * P * _LOG_2PI

    def backward(g):
        gw = w * -g
        _accum(z, gw @ kt.T)
        if not chol_raw.requires_grad:
            return
        d_chol = -kt @ (gw.T @ z.data) @ kt
        d_chol[np.diag_indices(P)] -= g.sum() / np.diag(chol)
        d_chol -= chol * (d_chol * chol).sum(axis=1, keepdims=True)
        d_chol *= scale  # now dU
        d_raw = np.tril(d_chol, -1)
        d_raw[np.diag_indices(P)] = np.diag(d_chol) * _sigmoid_values(np.diag(chol_raw.data))
        _accum(chol_raw, d_raw)

    return _make(tape, "correlated_normal_logpdf", (z, chol_raw), out_data, backward)


# ---------------------------------------------------------------------------
# feed-forward networks


def _add_per_respondent(out: np.ndarray, u: np.ndarray, xw: np.ndarray, t: int,
                        lo: int) -> None:
    """out[i] = u[i] + xw[(lo + i) // t] for every row i of u, rows
    [lo, lo + len(u)) of an array with t rows per row of xw, without
    temporaries; out may be u itself, and the span may start or end inside
    a respondent's t rows."""
    hi = lo + u.shape[0]
    first, last = -(-lo // t), hi // t  # the respondents wholly inside [lo, hi)
    if first > last:
        np.add(u, xw[lo // t], out=out)
        return
    a, b = first * t - lo, last * t - lo
    if a:
        np.add(u[:a], xw[lo // t], out=out[:a])
    shape = (last - first, t, u.shape[1])
    np.add(u[a:b].reshape(shape), xw[first:last, None, :], out=out[a:b].reshape(shape))
    if b < u.shape[0]:
        np.add(u[b:], xw[last], out=out[b:])


def _split_matmul(a: np.ndarray, w: np.ndarray, then=None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """a @ w by rows on two threads when large, followed by then(out, lo, hi)
    on each half's rows [lo, hi) of the result when given.  The result goes
    into out, a fresh array when out is None; out must not overlap a or w.

    The matmul splits where `_matmul_splits_exactly` allows and otherwise
    runs whole on the calling thread first; a's values and the result's
    count toward `_SPLIT_MIN_VALUES`.  A layer's weight gradient is
    `_split_matmul(acts.T, g)`: its rows are the fan-in, never the draws
    each value sums, so each value sums all the draws in one BLAS call, as
    in the whole product.  The rules of `_matmul_splits_exactly` hold there
    too: a (128, 5) gradient at 3,200 draws cut at fan-in row 27 differed
    from the whole by 4e-13.  A layer's input gradient is
    `_split_matmul(g, weight.T, out=acts[l])`: it goes into the layer's saved
    input, which its weight gradient has already read (`feedforward`)."""
    n = a.shape[0]
    if out is None:
        out = np.empty((n, w.shape[1]))
    by_rows = _matmul_splits_exactly(n, *w.shape)
    if not by_rows:
        np.matmul(a, w, out=out)
        if then is None:
            return out

    def rows(lo, hi):
        if by_rows:
            np.matmul(a[lo:hi], w, out=out[lo:hi])
        if then is not None:
            then(out, lo, hi)

    _split_rows(rows, n, a.size + out.size, grain=_ROW_GRAIN)
    return out


def feedforward(tape: Tape | None, h: Tensor2, layers, x: Tensor2 | None = None,
                split: bool = False):
    """A whole feed-forward net as one node.

    layers is a sequence of (weight, bias, gelu) triples: each layer maps
    its input a to u = a @ weight + bias, followed by GELU when gelu is
    true.  The first input is h, or, with x given, each row of x next to its
    t = h.rows // x.rows rows of h: x @ weight[:F] is computed once per row
    of x and added to each of its t rows of h @ weight[F:].
    Each layer of a large net runs its rows in two halves on two threads
    (`_split_rows`), with the same bits as on one, forward and backward;
    backward splits the weight gradient over the layer's fan-in instead
    (`_split_matmul`).

    With split=True the net runs once and returns (to_inputs, to_weights):
    two tensors with the same values, whose gradients reach only h and x,
    and only the weights and biases, respectively.  Backward computes only
    the gradients whose targets require them, and each GELU's derivative
    is computed once, in the forward, for both outputs.

    Backward runs in the forward's memory.  A layer's saved input is read
    only for that layer's weight gradient, and it has the shape of the
    gradient below the layer, so that gradient, (g @ weight^T) times the
    GELU derivative, is written over it.  h (the first layer's input) is
    never written, and the output is not saved.  Route order: the inputs
    route reads no saved inputs but overwrites them, so it reuses them only
    once the weights route has read them.  The tape runs to_weights first,
    because it is recorded after to_inputs; if the inputs route ever runs
    while the weights route is still to come, it writes fresh arrays
    instead, so the gradients stay right in either order.
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
    # h.data), derivs[l] the GELU derivative at u_l or None for identity;
    # backward writes the gradients below layers 1.. over acts[1:]
    acts, derivs = [], []
    n = h.rows
    a = h.data
    for l, (w, b, gelu_on) in enumerate(layers):
        wd, xw = w.data, None
        if l == 0 and x is not None:
            xw = x.data @ wd[:F]  # once per respondent, added to each of its t rows
            wd = wd[F:]
        d = np.empty((n, wd.shape[1])) if keep and gelu_on else None
        step, cdf = _gelu_scratch(n, wd.shape[1]) if gelu_on else (0, None)

        def epilogue(u, lo, hi):
            if xw is not None and t:  # t is 0 only when there are no rows
                _add_per_respondent(u[lo:hi], u[lo:hi], xw, t, lo)
            u[lo:hi] += b.data
            if gelu_on:
                _gelu_range(u, d, cdf, step, lo, hi)

        u = _split_matmul(a, wd, then=epilogue)
        if keep:
            acts.append(a)
            derivs.append(d)
        a = u

    # whether a recorded weights route has yet to read acts (split only)
    weights_pending = split and keep and any_weights

    def run_backward(g, to_inputs: bool, to_weights: bool):
        nonlocal weights_pending
        reuse = to_weights or not weights_pending  # may acts[1:] be overwritten
        if to_weights:
            weights_pending = False
        last = len(layers) - 1
        if derivs[last] is not None:
            g = derivs[last] * g
        g_sum = None  # the first layer's gradient summed over each respondent's t rows
        for l in range(last, -1, -1):
            w, b, _ = layers[l]
            if to_weights:
                if b.requires_grad:
                    _accum(b, g.sum(axis=0, keepdims=True))
                if w.requires_grad:
                    if l == 0 and x is not None:
                        g_sum = g.reshape(B, t, g.shape[1]).sum(axis=1)
                        _accum(w, np.vstack([x.data.T @ g_sum, _split_matmul(acts[0].T, g)]))
                    else:
                        _accum(w, _split_matmul(acts[l].T, g))
            if l > 0:
                d = derivs[l - 1]

                def times_d(out, lo, hi):  # the GELU derivative below layer l
                    np.multiply(d[lo:hi], out[lo:hi], out=out[lo:hi])

                g = _split_matmul(g, w.data.T, None if d is None else times_d,
                                  out=acts[l] if reuse else None)
        if to_inputs:
            w = layers[0][0].data
            if h.requires_grad:
                _accum(h, _split_matmul(g, w[F:].T))
            if x is not None and x.requires_grad:
                if g_sum is None:
                    g_sum = g.reshape(B, t, g.shape[1]).sum(axis=1)
                _accum(x, g_sum @ w[:F].T)

    if not split:
        out = Tensor2(a, requires_grad=inputs_live or any_weights)
        if keep:
            tape.record("feedforward", out, lambda g: run_backward(g, inputs_live, any_weights))
        return out
    to_inputs = Tensor2(a, requires_grad=inputs_live)
    to_weights = Tensor2(a, requires_grad=any_weights)
    # to_weights is recorded last, so its route reads acts before the inputs
    # route overwrites them (run_backward's `reuse` keeps either order right)
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


def reshape(tape: Tape | None, x: Tensor2, rows: int, cols: int) -> Tensor2:
    if rows * cols != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as ({rows}, {cols})")
    out_data = x.data.reshape(rows, cols).copy()

    def backward(g):
        _accum(x, g.reshape(x.shape), own=False)

    return _make(tape, "reshape", (x,), out_data, backward)


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


def _observed_boundaries(table: np.ndarray, levels: np.ndarray,
                        missing: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n, M) `boundary_table` levels `levels` and levels + 1 around each
    observed category, and +inf and -inf at missing cells: their sigmoids
    are exactly 1 and 0, so a missing cell's probability is exactly 1."""
    cells = levels + np.arange(0, table.size, table.shape[1])[None, :]
    upper, lower = table.take(cells), table.take(cells + 1)
    np.copyto(upper, np.inf, where=missing)
    np.copyto(lower, -np.inf, where=missing)
    return upper, lower


def _observed_probs(logits: np.ndarray, upper: np.ndarray, lower: np.ndarray, tile: int,
                    then=None, keep_sigmoids: bool = False):
    """p = s_hi - s_lo, or (s_hi, s_lo, p) with keep_sigmoids: the sigmoids
    of the (n, M) logits plus the (n / tile, M) `_observed_boundaries` upper
    and lower, one row per respondent for its `tile` rows.  Runs by rows, in
    chunks of about `_CHUNK_VALUES` values, split between two threads when
    large, so a heldout block of one respondent splits too; then(p, a, b, u)
    runs after each chunk [a, b), with u a free (b - a, M) scratch chunk.
    Unless kept, s_hi is computed in p and s_lo in a chunk's scratch."""
    n, M = logits.shape
    step = max(1, _CHUNK_VALUES // max(M, 1))
    chunk = (min(n, 2 * step), M)
    p = np.empty((n, M))
    s_hi = np.empty((n, M)) if keep_sigmoids else p
    s_lo = np.empty((n, M) if keep_sigmoids else chunk)
    buf = np.empty(chunk)

    def chunks(lo, hi):
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            u = _chunk_slot(buf, lo, b - a)
            s = s_lo[a:b] if keep_sigmoids else _chunk_slot(s_lo, lo, b - a)
            _add_per_respondent(u, logits[a:b], upper, tile, a)
            _sigmoid_values(u, out=s_hi[a:b], scratch=u)
            _add_per_respondent(u, logits[a:b], lower, tile, a)
            _sigmoid_values(u, out=s, scratch=u)
            np.subtract(s_hi[a:b], s, out=p[a:b])
            if then is not None:
                then(p, a, b, u)

    _split_rows(chunks, n, n * M)
    return (s_hi, s_lo, p) if keep_sigmoids else p


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

    The forward is `_observed_probs` by rows, with the log and the sum over
    items in each chunk.  Entries whose probability sits at the floor get
    zero gradient.  The backward runs in chunks of whole respondents, split
    between two threads when large (`_split_rows`); each respondent's sums
    over its tile rows are taken inside the chunks, and the cut gradient's
    sum over respondents runs on the calling thread.  The logits' gradient
    is written over the saved probabilities p, chunk by chunk, after the
    chunk has read them for its floor mask and division.
    """
    B, M = levels.shape
    if logits.shape != (B * tile, M):
        raise ShapeError(f"ordinal_loglik: logits {logits.shape} vs {B} respondents "
                         f"x {tile} rows and {M} items")
    table = boundary_table(cuts.data, categories)
    missing = np.asarray(missing, dtype=bool)
    observed = ~missing
    upper = np.where(observed, levels, 0)
    out_data = np.empty((B * tile, 1))

    def log_sum(p, a, b, u):
        np.log(np.maximum(p[a:b], floor, out=u), out=u)
        np.sum(u, axis=1, keepdims=True, out=out_data[a:b])

    # the sigmoids are kept only for a backward
    keep = tape is not None and (logits.requires_grad or cuts.requires_grad)
    probs = _observed_probs(logits.data, *_observed_boundaries(table, upper, missing), tile,
                            then=log_sum, keep_sigmoids=keep)
    if not keep:
        return _make(tape, "ordinal_loglik", (logits, cuts), out_data, None)
    s_hi, s_lo, p = (v.reshape(B, tile, M) for v in probs)

    def backward(g):
        g = g.reshape(B, tile, 1)
        step = max(1, _CHUNK_VALUES // max(tile * M, 1))  # respondents per chunk
        chunk = (min(B, 2 * step), tile, M)
        grad = p  # d_hi - d_lo, the logits' gradient, over each chunk of p once read
        live = np.empty(chunk, dtype=bool)
        scale, d_hi = np.empty(chunk), np.empty(chunk)
        sums = np.empty((2, B, M))  # d_hi and d_lo summed over each respondent's rows

        def backward_rows(lo, hi):
            for a in range(lo, hi, step):
                b = min(a + step, hi)
                lv, sc, dh = (_chunk_slot(buf, lo, b - a) for buf in (live, scale, d_hi))
                dl = grad[a:b]
                np.logical_and(observed[a:b, None, :], np.greater(p[a:b], floor, out=lv),
                               out=lv)
                sc.fill(0.0)
                np.divide(g[a:b], p[a:b], out=sc, where=lv)
                for s, d in ((s_hi[a:b], dh), (s_lo[a:b], dl)):
                    np.subtract(1.0, s, out=d)
                    d *= s
                    d *= sc  # d log p / d(upper boundary logit), and minus the lower's
                np.sum(dh, axis=1, out=sums[0, a:b])
                np.sum(dl, axis=1, out=sums[1, a:b])
                np.subtract(dh, dl, out=dl)

        _split_rows(backward_rows, B, p.size)
        _accum(logits, grad.reshape(B * tile, M))
        if not cuts.requires_grad:
            return
        cells = (np.arange(M) * table.shape[1])[None, :] + upper
        grad = (np.bincount(cells.ravel(), weights=sums[0].ravel(), minlength=table.size)
                - np.bincount((cells + 1).ravel(), weights=sums[1].ravel(),
                              minlength=table.size)).reshape(table.shape)
        _accum(cuts, grad[:, 1:-1], own=False)

    return _make(tape, "ordinal_loglik", (logits, cuts), out_data, backward)

