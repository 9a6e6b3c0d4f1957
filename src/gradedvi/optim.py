"""AdamW with decoupled weight decay, triangular cyclical learning rates,
and the moving-average convergence monitor used to stop fitting.

Each AdamW group keeps its moments as one flat vector per moment and runs
every update expression once over the whole group.  A step gathers the
group's gradients once and checks them once; `step_all` does the gathering
and checking for every group before any group moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffkernel import Tensor2


class NumericalError(RuntimeError):
    """A non-finite gradient or objective was encountered."""


class AdamW:
    """Decoupled-weight-decay Adam over a fixed list of leaf tensors.

    Update per step with learning rate lr:
        m <- b1*m + (1-b1)*g
        v <- b2*v + (1-b2)*g^2
        mhat = m / (1 - b1^t),  vhat = v / (1 - b2^t)
        w <- w - lr * mhat / (sqrt(vhat) + eps) - lr * lam * w

    Each moment is one flat vector, and `_m`/`_v` are per-tensor views of
    it.  A missing gradient counts as zeros, and every parameter is written
    back as a view of the new flat weights.  The arithmetic is the
    per-tensor update's, elementwise and in the same order: same bits.
    """

    def __init__(self, params: list[Tensor2], beta1: float = 0.9, beta2: float = 0.999,
                 weight_decay: float = 0.01, eps: float = 1e-8):
        self.params = list(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.weight_decay = weight_decay
        self.eps = eps
        self.t = 0
        self._spans = []  # (start, stop, shape) of each parameter in the flat vectors
        size = 0
        for p in self.params:
            self._spans.append((size, size + p.data.size, p.data.shape))
            size += p.data.size
        self._m_flat = np.zeros(size)
        self._v_flat = np.zeros(size)
        self._m = [self._m_flat[a:b].reshape(shape) for a, b, shape in self._spans]
        self._v = [self._v_flat[a:b].reshape(shape) for a, b, shape in self._spans]
        self._gathered = None  # flat gradient checked by step_all, used by the next step

    def _gather(self) -> np.ndarray:
        """The group's gradients as one checked flat vector; NumericalError
        names the first parameter holding a non-finite entry."""
        g = np.zeros(self._m_flat.size)
        for p, (a, b, _) in zip(self.params, self._spans):
            if p.grad is not None:
                g[a:b] = p.grad.ravel()
        if not np.isfinite(g).all():
            bad = next(p for p, (a, b, _) in zip(self.params, self._spans)
                       if not np.isfinite(g[a:b]).all())
            raise NumericalError(f"non-finite gradient in parameter {bad.name or '<unnamed>'}")
        return g

    def step(self, lr: float) -> None:
        """One update of every parameter; all checks run before anything moves."""
        _check_lr(lr)
        g, self._gathered = self._gathered, None
        if g is None:
            g = self._gather()
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        m, v = self._m_flat, self._v_flat
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        mhat = m / bc1
        vhat = v / bc2
        w = np.empty(m.size)
        for p, (a, b, _) in zip(self.params, self._spans):
            w[a:b] = p.data.ravel()
        w = w - lr * mhat / (np.sqrt(vhat) + self.eps) - lr * self.weight_decay * w
        for p, (a, b, shape) in zip(self.params, self._spans):
            p.data = w[a:b].reshape(shape)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def _check_lr(lr: float) -> None:
    if lr < 0.0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")


def step_all(updates: list[tuple[AdamW, float]]) -> None:
    """Step several optimizers as one update.

    Every learning rate is checked, and every optimizer's gradients are
    gathered and checked, before any of them moves, so a failure leaves all
    steps, moments and parameters as they were.  Each step then uses the
    gradient gathered here instead of gathering it again.
    """
    for _, lr in updates:
        _check_lr(lr)
    try:
        for opt, _ in updates:
            opt._gathered = opt._gather()
        for opt, lr in updates:
            opt.step(lr)
    finally:
        for opt, _ in updates:
            opt._gathered = None


@dataclass
class ClrSchedule:
    """Triangular cyclical learning rate: base at t=0, peak at t=step_size."""

    base_lr: float
    max_lr: float | None = None
    step_size: int = 2000

    def __post_init__(self):
        if self.max_lr is None:
            self.max_lr = 5.0 * self.base_lr
        if self.max_lr < self.base_lr:
            raise ValueError("max_lr must be >= base_lr")
        if self.step_size < 1:
            raise ValueError("step_size must be >= 1")

    def lr(self, t: int) -> float:
        if t < 0:
            raise ValueError("t must be >= 0")
        cycle_pos = t % (2 * self.step_size)
        frac = cycle_pos / self.step_size
        if frac > 1.0:
            frac = 2.0 - frac
        return self.base_lr + (self.max_lr - self.base_lr) * frac


@dataclass
class ConvergenceMonitor:
    """Stop when the windowed objective average has not improved for
    `patience` consecutive windows (improvement = best + min_delta)."""

    patience: int = 500
    min_delta: float = 1e-3
    best_avg: float | None = None
    windows_since_improvement: int = field(default=0)

    def update(self, window_avg: float) -> str:
        """Feed one window average; returns "continue" or "converged"."""
        if self.best_avg is None or window_avg > self.best_avg + self.min_delta:
            self.best_avg = window_avg if self.best_avg is None else max(self.best_avg, window_avg)
            self.windows_since_improvement = 0
            return "continue"
        self.windows_since_improvement += 1
        if self.windows_since_improvement >= self.patience:
            return "converged"
        return "continue"
