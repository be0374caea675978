"""Cyclical masking: one forward pass that trains full-path and
decode-only prediction simultaneously.

Every pass, in training and at inference, follows one route:

    base  = run(route.base, embedding)
    think = run(route.skipped, base)
    out   = decoding(base + think ⊙ mask)

Positions are tagged by a binary cycle mask. Cycle-start positions feed
``base + think`` into the decoding layers (the full path); the remaining
positions feed ``base`` alone, which is exactly what the light passes see
at inference time. ``ROUTES`` names each variant's base and skipped layer
ranges; it is the one place that knows what a variant means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autograd import Tensor, add, mul
from .errors import ConfigError
from .model import Model, ModelConfig


@dataclass(frozen=True)
class Route:
    """A variant's named layer ranges: ``base`` is run by every pass,
    ``skipped`` only by full passes (light passes leave it to the next
    cycle boundary's refill)."""

    base: tuple[str, ...]
    skipped: tuple[str, ...]

    @property
    def light(self) -> tuple[str, ...]:
        """The ranges a light pass runs."""
        return self.base + ("decoding",)


ROUTES = {
    "embedding": Route(base=(), skipped=("encoding", "thinking")),
    "encoding": Route(base=("encoding",), skipped=("thinking",)),
}
VARIANTS = tuple(ROUTES)


def route_of(variant: str) -> Route:
    """The variant's route; ``ConfigError`` for an unknown variant."""
    try:
        return ROUTES[variant]
    except KeyError:
        raise ConfigError(f"unknown variant {variant!r}, expected one of {VARIANTS}") from None


@dataclass
class CyclePlan:
    """Cycle lengths and the masking variant.

    ``tau_infer`` defaults to the training cycle length but may differ;
    a model trained at one cycle length can be decoded at another.
    """

    tau_train: int = 2
    tau_infer: Optional[int] = None
    variant: str = "embedding"
    mask_anchor: int = 0

    def validate(self, config: Optional[ModelConfig] = None) -> None:
        if self.tau_train < 1:
            raise ConfigError(f"tau_train must be >= 1, got {self.tau_train}")
        if self.tau_infer is not None and self.tau_infer < 1:
            raise ConfigError(f"tau_infer must be >= 1, got {self.tau_infer}")
        route = route_of(self.variant)
        if not 0 <= self.mask_anchor < self.tau_train:
            raise ConfigError(
                f"mask_anchor must lie in [0, tau_train), got {self.mask_anchor}"
            )
        if config is not None:
            partition = config.partition()
            for name in route.base:
                if not partition.range_of(name):
                    raise ConfigError(
                        f"the {self.variant} variant requires at least one {name} layer"
                    )

    def resolved_tau_infer(self) -> int:
        return self.tau_train if self.tau_infer is None else self.tau_infer


def build_cycle_mask(n: int, tau: int, anchor: int = 0) -> np.ndarray:
    """Binary mask with ones where (position - anchor) mod tau == 0."""
    if tau < 1:
        raise ConfigError(f"tau must be >= 1, got {tau}")
    if n < 1:
        raise ConfigError(f"mask length must be >= 1, got {n}")
    if not 0 <= anchor < tau:
        raise ConfigError(f"anchor must lie in [0, tau), got {anchor}")
    positions = np.arange(n)
    return ((positions - anchor) % tau == 0).astype(np.uint8)


def masked_forward(
    model: Model,
    tokens,
    plan: CyclePlan,
    anchor: Optional[int] = None,
    tau: Optional[int] = None,
) -> Tensor:
    """Full training-style forward pass over a sequence (or batch of them).

    Returns logits of shape [n, V] (or [B, n, V]). ``anchor`` and ``tau``
    default to the plan's training settings; the inference replay oracle
    overrides them to align with a realized generation.
    """
    plan.validate(model.config)
    tokens = np.asarray(tokens)
    n = tokens.shape[-1]
    if n > model.config.max_seq_len:
        raise ConfigError(
            f"sequence length {n} exceeds max_seq_len={model.config.max_seq_len}"
        )
    tau = plan.tau_train if tau is None else tau
    anchor = plan.mask_anchor if anchor is None else anchor
    route = route_of(plan.variant)
    positions = np.arange(n)
    base = model.forward_ranges(model.embed_tokens(tokens), route.base, positions)
    think = model.forward_ranges(base, route.skipped, positions)
    mask = build_cycle_mask(n, tau, anchor % tau)
    mask_col = Tensor(mask[:, None].astype(think.dtype))
    decoded = model.forward_ranges(add(base, mul(think, mask_col)), ("decoding",), positions)
    return model.lm_head(decoded)
