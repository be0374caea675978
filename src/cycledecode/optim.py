"""AdamW with global-norm gradient clipping and warmup/cosine scheduling."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .autograd import Tensor
from .errors import ConfigError, ContractError, NumericError

SCHEDULES = ("constant", "cosine")


class AdamW:
    """Decoupled-weight-decay Adam over a fixed parameter list.

    Gradients are clipped to ``max_grad_norm`` by global norm before the
    moment updates. The effective learning rate follows a linear warmup
    over ``warmup_ratio * total_steps`` steps and then the chosen
    schedule; it never exceeds the peak ``lr``.
    """

    def __init__(
        self,
        params: Sequence[tuple[str, Tensor]],
        lr: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.95,
        weight_decay: float = 0.0,
        max_grad_norm: float = 1.0,
        warmup_ratio: float = 0.0,
        schedule: str = "constant",
        total_steps: int = 1,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
            raise ConfigError(f"betas must lie in (0, 1), got {beta1}, {beta2}")
        if weight_decay < 0:
            raise ConfigError(f"weight_decay must be non-negative, got {weight_decay}")
        if max_grad_norm <= 0:
            raise ConfigError(f"max_grad_norm must be positive, got {max_grad_norm}")
        if not 0.0 <= warmup_ratio <= 1.0:
            raise ConfigError(f"warmup_ratio must lie in [0, 1], got {warmup_ratio}")
        if schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {schedule!r}, expected one of {SCHEDULES}")
        if total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {total_steps}")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.weight_decay = float(weight_decay)
        self.max_grad_norm = float(max_grad_norm)
        self.warmup_ratio = float(warmup_ratio)
        self.schedule = schedule
        self.total_steps = int(total_steps)
        self.eps = float(eps)
        self.step_count = 0
        self.first_moment = [np.zeros_like(t.data) for _, t in self.params]
        self.second_moment = [np.zeros_like(t.data) for _, t in self.params]

    def lr_at(self, step: int) -> float:
        """Effective learning rate for 0-indexed ``step``."""
        warmup_steps = int(round(self.warmup_ratio * self.total_steps))
        if step < warmup_steps:
            return self.lr * (step + 1) / warmup_steps
        if self.schedule == "constant":
            return self.lr
        span = max(1, self.total_steps - warmup_steps)
        progress = min(1.0, (step - warmup_steps) / span)
        return self.lr * 0.5 * (1.0 + math.cos(math.pi * progress))

    def grad_norm(self) -> float:
        total = 0.0
        for name, t in self.params:
            if t.grad is None:
                raise ContractError(f"parameter {name!r} has no gradient")
            total += float(np.sum(np.square(t.grad, dtype=np.float64)))
        return math.sqrt(total)

    def step(self) -> float:
        """Apply one clipped AdamW update; returns the pre-clip grad norm.

        A non-finite gradient raises ``NumericError`` before any weight or
        moment changes.
        """
        norm = self.grad_norm()
        if not math.isfinite(norm):
            raise NumericError(f"non-finite gradient norm {norm}")
        scale = 1.0
        if norm > self.max_grad_norm:
            scale = self.max_grad_norm / (norm + 1e-12)
        lr_t = self.lr_at(self.step_count)
        t = self.step_count + 1
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for (name, p), m, v in zip(self.params, self.first_moment, self.second_moment):
            # In place, in the operation order of m = b1 m + (1 - b1) g, v = b2 v
            # + (1 - b2) g^2, p -= lr (m / bc1) / (sqrt(v / bc2) + eps) + lr wd p.
            g = p.grad if scale == 1.0 else p.grad * scale
            buf = np.multiply(g, 1.0 - self.beta1)
            m *= self.beta1
            m += buf
            np.square(g, out=buf)
            buf *= 1.0 - self.beta2
            v *= self.beta2
            v += buf
            np.divide(v, bc2, out=buf)
            np.sqrt(buf, out=buf)
            buf += self.eps
            update = np.divide(m, bc1)
            update /= buf
            update *= lr_t
            update += np.multiply(p.data, lr_t * self.weight_decay, out=buf)
            p.data -= update
        self.step_count += 1
        return norm

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def state_arrays(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        return self.first_moment, self.second_moment

    def load_state(self, first: list[np.ndarray], second: list[np.ndarray], step_count: int) -> None:
        if len(first) != len(self.params) or len(second) != len(self.params):
            raise ConfigError("optimizer state does not match parameter list")
        for (name, p), m, v in zip(self.params, first, second):
            if m.shape != p.data.shape or v.shape != p.data.shape:
                raise ConfigError(f"optimizer moment shape mismatch for {name!r}")
        self.first_moment = [m.copy() for m in first]
        self.second_moment = [v.copy() for v in second]
        self.step_count = int(step_count)
