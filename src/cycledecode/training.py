"""Training loop: batched masked forward, Eq-style next-token loss,
clipped AdamW updates, and per-offset loss diagnostics.

The loss is the mean cross-entropy of each position's logits against the
next token; the final position has no target and is excluded. Grouping
positions by their offset within the cycle splits the loss into the
full-path component (offset 0) and the decode-only components (offsets
1..tau-1), which is the natural observable for how prediction quality
varies with decode depth.
"""

from __future__ import annotations

import ctypes
import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .autograd import cross_entropy, no_grad
from .errors import ConfigError
from .masking import CyclePlan, masked_forward
from .model import Model
from .optim import AdamW


def _keep_freed_memory() -> None:
    """Serve blocks up to 32 MB from the heap and keep 256 MB of free heap
    top (glibc ``mallopt``; a no-op elsewhere). Each step frees an autograd
    graph of tens of MB; by default glibc unmaps or trims it, and the next
    step faults the pages in again: 8k-16k minor faults and 20-45 ms of
    kernel time per desk-scale step on a 2-vCPU host. Process-wide."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


@dataclass
class TrainConfig:
    batch_size: int = 8
    seq_len: int = 128
    steps: int = 1000
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.95
    weight_decay: float = 0.01
    warmup_ratio: float = 0.1
    schedule: str = "cosine"
    grad_clip: float = 1.0
    seed: int = 0
    eval_fraction: float = 0.05
    log_interval: int = 20
    eval_interval: int = 200
    eval_windows: int = 32
    checkpoint_interval: int = 0

    def validate(self) -> None:
        if self.batch_size < 1 or self.seq_len < 2 or self.steps < 1:
            raise ConfigError("batch_size >= 1, seq_len >= 2 and steps >= 1 required")
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise ConfigError(f"warmup_ratio must lie in [0, 1], got {self.warmup_ratio}")
        if not 0.0 <= self.eval_fraction < 1.0:
            raise ConfigError(f"eval_fraction must lie in [0, 1), got {self.eval_fraction}")
        if self.log_interval < 1 or self.eval_interval < 1 or self.eval_windows < 1:
            raise ConfigError("log_interval, eval_interval and eval_windows must be >= 1")
        if self.checkpoint_interval < 0:
            raise ConfigError(
                f"checkpoint_interval must be >= 0, got {self.checkpoint_interval}"
            )
        if self.lr <= 0 or self.grad_clip <= 0:
            raise ConfigError("lr and grad_clip must be positive")


@dataclass
class TrainRecord:
    step: int
    tokens_seen: int
    train_loss: float
    offset_losses: list[float]
    eval_loss: Optional[float]
    lr: float

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "step": self.step,
                "tokens_seen": self.tokens_seen,
                "loss": round(self.train_loss, 6),
                "offset_losses": [
                    round(x, 6) if np.isfinite(x) else None for x in self.offset_losses
                ],
                "eval_loss": None if self.eval_loss is None else round(self.eval_loss, 6),
                "lr": self.lr,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json_line(line: str) -> "TrainRecord":
        d = json.loads(line)
        return TrainRecord(
            step=d["step"],
            tokens_seen=d["tokens_seen"],
            train_loss=d["loss"],
            offset_losses=list(d["offset_losses"]),
            eval_loss=d["eval_loss"],
            lr=d["lr"],
        )


def sequence_loss(model: Model, batch: np.ndarray, plan: CyclePlan):
    """Masked forward plus next-token cross-entropy over a [B, n] batch.

    Returns (loss Tensor, logits Tensor). The last position of each
    sequence carries no target and is ignored in the mean.
    """
    batch = np.asarray(batch)
    if batch.ndim == 1:
        batch = batch[None, :]
    n = batch.shape[1]
    if n < 2:
        raise ConfigError("sequences must hold at least two tokens to form targets")
    logits = masked_forward(model, batch, plan)
    targets = np.zeros_like(batch)
    targets[:, :-1] = batch[:, 1:]
    ignore = np.zeros(batch.shape, dtype=bool)
    ignore[:, -1] = True
    loss = cross_entropy(logits, targets, ignore)
    return loss, logits


def loss_by_offset(
    logits: np.ndarray, batch: np.ndarray, tau: int, anchor: int = 0
) -> np.ndarray:
    """Mean next-token cross-entropy grouped by cycle offset.

    Entry k covers positions i with (i - anchor) mod tau == k; offset 0 is
    the full-path prediction, the rest are decode-only. Computed in
    float64 so the count-weighted mean of the entries reproduces the
    total loss to tight tolerance. Empty groups yield nan.
    """
    batch = np.asarray(batch)
    if batch.ndim == 1:
        batch = batch[None, :]
        logits = logits[None, ...]
    n = batch.shape[1]
    flat = logits.reshape(-1, logits.shape[-1]).astype(np.float64)
    m = flat.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(flat - m).sum(axis=-1))
    targets = np.zeros(batch.shape, dtype=np.int64)
    targets[:, :-1] = batch[:, 1:]
    nll = (lse - flat[np.arange(flat.shape[0]), targets.reshape(-1)]).reshape(batch.shape)
    offsets = (np.arange(n) - anchor) % tau
    out = np.full(tau, np.nan)
    for k in range(tau):
        cols = np.nonzero((offsets == k) & (np.arange(n) < n - 1))[0]
        if cols.size:
            out[k] = float(nll[:, cols].mean())
    return out


def evaluate(
    model: Model,
    windows: np.ndarray,
    plan: CyclePlan,
    tau: Optional[int] = None,
    batch_size: int = 8,
    max_windows: Optional[int] = None,
    average_anchors: bool = False,
) -> float:
    """Mean next-token loss over held-out windows, without gradients.

    By default the cycle mask is anchored at position 0, matching
    training. ``average_anchors`` instead averages the loss over all tau
    mask anchors, which removes the absolute-phase alignment advantage a
    model enjoys at its training cycle length and gives an unbiased
    comparison across different evaluation cycle lengths.
    """
    windows = np.asarray(windows)
    if windows.ndim == 1:
        windows = windows[None, :]
    if windows.shape[0] == 0:
        raise ConfigError("evaluation split is empty")
    if max_windows is not None:
        if max_windows < 1:
            raise ConfigError(f"max_windows must be >= 1, got {max_windows}")
        windows = windows[:max_windows]
    eval_tau = plan.tau_train if tau is None else tau
    anchors = range(eval_tau) if average_anchors else (0,)
    per_anchor = []
    with no_grad():
        for anchor in anchors:
            eval_plan = CyclePlan(
                tau_train=eval_tau, variant=plan.variant, mask_anchor=anchor
            )
            total, count = 0.0, 0
            for lo in range(0, windows.shape[0], batch_size):
                chunk = windows[lo : lo + batch_size]
                loss, _ = sequence_loss(model, chunk, eval_plan)
                positions = chunk.shape[0] * (chunk.shape[1] - 1)
                total += loss.item() * positions
                count += positions
            per_anchor.append(total / count)
    return float(np.mean(per_anchor))


def training_step(
    model: Model,
    batch: np.ndarray,
    plan: CyclePlan,
    opt: AdamW,
    tokens_seen: int = 0,
    eval_loss: Optional[float] = None,
    with_offsets: bool = True,
) -> TrainRecord:
    """One optimizer step over a batch of equal-length sequences."""
    step = opt.step_count
    opt.zero_grad()
    loss, logits = sequence_loss(model, batch, plan)
    if with_offsets:
        offsets = loss_by_offset(logits.data, batch, plan.tau_train, plan.mask_anchor)
    else:
        offsets = np.full(plan.tau_train, np.nan)
    loss.backward()
    opt.step()
    batch = np.asarray(batch)
    n_tokens = int(batch.size if batch.ndim > 1 else batch.shape[0])
    return TrainRecord(
        step=step + 1,
        tokens_seen=tokens_seen + n_tokens,
        train_loss=float(loss.item()),
        offset_losses=[float(x) for x in offsets],
        eval_loss=eval_loss,
        lr=opt.lr_at(step),
    )


def make_optimizer(model: Model, cfg: TrainConfig) -> AdamW:
    """AdamW over the model's parameters with the run's optimizer settings."""
    return AdamW(
        model.parameters(),
        lr=cfg.lr,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        weight_decay=cfg.weight_decay,
        max_grad_norm=cfg.grad_clip,
        warmup_ratio=cfg.warmup_ratio,
        schedule=cfg.schedule,
        total_steps=cfg.steps,
    )


def batch_indices(seed: int, step: int, n_windows: int, batch_size: int) -> np.ndarray:
    """Deterministic per-step window choice; stateless, so resume is exact."""
    rng = np.random.default_rng([seed, step])
    replace = batch_size > n_windows
    return rng.choice(n_windows, size=batch_size, replace=replace)


def run_training(
    model: Model,
    train_windows: np.ndarray,
    eval_windows: np.ndarray,
    cfg: TrainConfig,
    plan: CyclePlan,
    opt: Optional[AdamW] = None,
    start_step: int = 0,
    start_tokens: int = 0,
    on_record: Optional[Callable[[TrainRecord], None]] = None,
    on_checkpoint: Optional[Callable[[int, int, AdamW], None]] = None,
) -> list[TrainRecord]:
    """Drive ``cfg.steps`` total optimizer steps, resuming at ``start_step``.

    Emits a record every ``log_interval`` steps (with a fresh eval loss
    every ``eval_interval``) and invokes ``on_checkpoint`` at the
    configured cadence plus once at the end.
    """
    cfg.validate()
    plan.validate(model.config)
    _keep_freed_memory()
    if opt is None:
        opt = make_optimizer(model, cfg)
        opt.step_count = start_step
    records: list[TrainRecord] = []
    tokens_seen = start_tokens
    have_eval = np.asarray(eval_windows).size > 0
    for step in range(start_step, cfg.steps):
        idx = batch_indices(cfg.seed, step, train_windows.shape[0], cfg.batch_size)
        batch = train_windows[idx]
        done = step + 1
        logged = done % cfg.log_interval == 0 or done == cfg.steps
        record = training_step(model, batch, plan, opt, tokens_seen, with_offsets=logged)
        if have_eval and (done % cfg.eval_interval == 0 or done == cfg.steps):
            record.eval_loss = evaluate(
                model, eval_windows, plan, batch_size=cfg.batch_size, max_windows=cfg.eval_windows
            )
        tokens_seen = record.tokens_seen
        if logged:
            records.append(record)
            if on_record is not None:
                on_record(record)
        if on_checkpoint is not None and (
            (cfg.checkpoint_interval and done % cfg.checkpoint_interval == 0)
            or done == cfg.steps
        ):
            on_checkpoint(done, tokens_seen, opt)
    return records
