"""Decoder-only transformer with a three-way layer partition.

Layers are split into contiguous encoding, thinking, and decoding ranges.
``forward_range`` applies any contiguous sub-range of blocks, either over a
full sequence (training) or incrementally against a KV cache whose
occupancy is tracked per (layer, position). Reads of unfilled slots raise
``CacheIntegrityError``; stale data is never returned silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import CacheIntegrityError, ConfigError, DimensionError


@dataclass
class ModelConfig:
    vocab_size: int = 257
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    n_layers: int = 4
    n_encoding: int = 0
    n_thinking: int = 3
    n_decoding: int = 1
    max_seq_len: int = 256
    norm_eps: float = 1e-5
    rope_base: float = 10000.0
    seed: int = 0

    def validate(self) -> None:
        if self.vocab_size < 1:
            raise ConfigError(f"vocab_size must be positive, got {self.vocab_size}")
        if self.d_model < 1 or self.d_ff < 1 or self.max_seq_len < 1:
            raise ConfigError("d_model, d_ff and max_seq_len must be positive")
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"n_heads ({self.n_heads}) must divide d_model ({self.d_model})"
            )
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ConfigError("head dim must be even for rotary encoding")
        if min(self.n_encoding, self.n_thinking, self.n_decoding) < 0:
            raise ConfigError("layer counts must be non-negative")
        if self.n_encoding + self.n_thinking + self.n_decoding != self.n_layers:
            raise ConfigError(
                f"layer partition {self.n_encoding}+{self.n_thinking}+{self.n_decoding}"
                f" does not sum to n_layers={self.n_layers}"
            )
        if self.n_decoding < 1:
            raise ConfigError("at least one decoding layer is required")
        if self.norm_eps <= 0 or self.rope_base <= 0:
            raise ConfigError("norm_eps and rope_base must be positive")

    def partition(self) -> "LayerPartition":
        return LayerPartition.from_counts(self.n_encoding, self.n_thinking, self.n_decoding)


@dataclass(frozen=True)
class LayerPartition:
    """Contiguous, disjoint layer ranges covering [0, n_layers)."""

    encoding: range
    thinking: range
    decoding: range

    @classmethod
    def from_counts(cls, n_enc: int, n_think: int, n_dec: int) -> "LayerPartition":
        a, b = n_enc, n_enc + n_think
        return cls(range(0, a), range(a, b), range(b, b + n_dec))

    @property
    def n_layers(self) -> int:
        return self.decoding.stop

    def named_ranges(self) -> dict[str, range]:
        return {"encoding": self.encoding, "thinking": self.thinking, "decoding": self.decoding}

    def range_of(self, name: str) -> range:
        try:
            return self.named_ranges()[name]
        except KeyError:
            raise ConfigError(f"unknown layer range {name!r}") from None


class SlotState(IntEnum):
    EMPTY = 0
    FILLED = 1
    PENDING_REFILL = 2


class KvCache:
    """Per-layer key/value storage with per-(layer, position) occupancy."""

    def __init__(self, n_layers: int, max_seq_len: int, d_model: int, dtype=np.float32):
        self.keys = np.zeros((n_layers, max_seq_len, d_model), dtype=dtype)
        self.values = np.zeros((n_layers, max_seq_len, d_model), dtype=dtype)
        self.occupancy = np.zeros((n_layers, max_seq_len), dtype=np.uint8)
        self.max_seq_len = max_seq_len

    @property
    def length(self) -> int:
        """Highest position with any non-empty occupancy, plus one."""
        occupied = np.nonzero(self.occupancy.max(axis=0))[0]
        return int(occupied[-1]) + 1 if occupied.size else 0

    def write(self, layer: int, positions: np.ndarray, k: np.ndarray, v: np.ndarray) -> None:
        self.keys[layer, positions] = k
        self.values[layer, positions] = v
        self.occupancy[layer, positions] = SlotState.FILLED

    def mark_pending(self, layers, position: int) -> None:
        for layer in layers:
            self.occupancy[layer, position] = SlotState.PENDING_REFILL

    def read(self, layer: int, upto: int) -> tuple[np.ndarray, np.ndarray]:
        """Return keys/values for positions [0, upto); all must be Filled."""
        states = self.occupancy[layer, :upto]
        bad = np.nonzero(states != SlotState.FILLED)[0]
        if bad.size:
            raise CacheIntegrityError(
                f"attention at layer {layer} would read position {int(bad[0])} "
                f"in state {SlotState(states[bad[0]]).name}"
            )
        return self.keys[layer, :upto], self.values[layer, :upto]

    def occupancy_counts(self) -> dict[str, int]:
        flat = self.occupancy.reshape(-1)
        return {
            "filled": int(np.sum(flat == SlotState.FILLED)),
            "pending_refill": int(np.sum(flat == SlotState.PENDING_REFILL)),
            "empty": int(np.sum(flat == SlotState.EMPTY)),
        }


class BlockWeights:
    """One pre-norm transformer block: attention + MLP projections."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype):
        d, ff = cfg.d_model, cfg.d_ff
        std = 0.02
        out_std = 0.02 / np.sqrt(2.0 * cfg.n_layers)

        def normal(shape, scale):
            return Tensor(rng.normal(0.0, scale, size=shape).astype(dtype), requires_grad=True)

        self.attn_gain = Tensor(np.ones(d, dtype=dtype), requires_grad=True)
        self.wq = normal((d, d), std)
        self.wk = normal((d, d), std)
        self.wv = normal((d, d), std)
        self.wo = normal((d, d), out_std)
        self.mlp_gain = Tensor(np.ones(d, dtype=dtype), requires_grad=True)
        self.up = normal((d, ff), std)
        self.down = normal((ff, d), out_std)

    def named(self, prefix: str):
        yield f"{prefix}.attn.norm_gain", self.attn_gain
        yield f"{prefix}.attn.wq", self.wq
        yield f"{prefix}.attn.wk", self.wk
        yield f"{prefix}.attn.wv", self.wv
        yield f"{prefix}.attn.wo", self.wo
        yield f"{prefix}.mlp.norm_gain", self.mlp_gain
        yield f"{prefix}.mlp.up", self.up
        yield f"{prefix}.mlp.down", self.down


class Model:
    """Transformer weights plus the partial-range forward machinery."""

    def __init__(self, config: ModelConfig, dtype=np.float32):
        config.validate()
        self.config = config
        self.partition = config.partition()
        self.dtype = dtype
        rng = np.random.default_rng(config.seed)
        d, v = config.d_model, config.vocab_size
        self.embedding = Tensor(
            rng.normal(0.0, 0.02, size=(v, d)).astype(dtype), requires_grad=True
        )
        self.blocks = [BlockWeights(config, rng, dtype) for _ in range(config.n_layers)]
        self.final_gain = Tensor(np.ones(d, dtype=dtype), requires_grad=True)
        self.lm_head_w = Tensor(
            rng.normal(0.0, 0.02, size=(d, v)).astype(dtype), requires_grad=True
        )

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Named parameters in the fixed checkpoint order."""
        params: list[tuple[str, Tensor]] = [("embedding.weight", self.embedding)]
        for i, block in enumerate(self.blocks):
            params.extend(block.named(f"layers.{i}"))
        params.append(("final_norm.gain", self.final_gain))
        params.append(("lm_head.weight", self.lm_head_w))
        return params

    def num_parameters(self) -> int:
        return sum(t.data.size for _, t in self.parameters())

    def new_cache(self) -> KvCache:
        return KvCache(self.config.n_layers, self.config.max_seq_len, self.config.d_model, self.dtype)

    def embed_tokens(self, tokens) -> Tensor:
        tokens = np.asarray(tokens)
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.config.vocab_size):
            raise IndexError(
                f"token id out of range [0, {self.config.vocab_size}): "
                f"min={tokens.min()}, max={tokens.max()}"
            )
        return ag.embedding(self.embedding, tokens)

    # -- attention plumbing ------------------------------------------------

    def _split_heads(self, x: Tensor) -> Tensor:
        """[..., n, d] -> [..., H, n, hd]"""
        h = self.config.n_heads
        hd = self.config.d_model // h
        lead = x.shape[:-2]
        n = x.shape[-2]
        x = ag.reshape(x, lead + (n, h, hd))
        axes = tuple(range(len(lead))) + (len(lead) + 1, len(lead), len(lead) + 2)
        return ag.transpose(x, axes)

    def _merge_heads(self, x: Tensor) -> Tensor:
        """[..., H, n, hd] -> [..., n, d]"""
        lead = x.shape[:-3]
        h, n, hd = x.shape[-3:]
        axes = tuple(range(len(lead))) + (len(lead) + 1, len(lead), len(lead) + 2)
        x = ag.transpose(x, axes)
        return ag.reshape(x, lead + (n, h * hd))

    def _block_forward(
        self,
        layer: int,
        x: Tensor,
        positions: np.ndarray,
        cache: Optional[KvCache],
        write_cache: bool,
    ) -> Tensor:
        cfg = self.config
        w = self.blocks[layer]
        n = x.shape[-2]

        a_in = ag.rms_norm(x, w.attn_gain, cfg.norm_eps)
        q = self._split_heads(ag.matmul(a_in, w.wq))
        k = self._split_heads(ag.matmul(a_in, w.wk))
        v = self._split_heads(ag.matmul(a_in, w.wv))
        q = ag.rope(q, positions, cfg.rope_base)
        k = ag.rope(k, positions, cfg.rope_base)

        past = 0
        if cache is not None:
            past = int(positions[0])
            if past > 0:
                pk, pv = cache.read(layer, past)
                pk_t = self._split_heads(Tensor(pk))
                pv_t = self._split_heads(Tensor(pv))
                k_all = ag.concat([pk_t, k], axis=-2)
                v_all = ag.concat([pv_t, v], axis=-2)
            else:
                k_all, v_all = k, v
            if write_cache:
                cache.write(layer, positions, self._merge_heads(k).data, self._merge_heads(v).data)
        else:
            k_all, v_all = k, v

        # Additive causal mask over [query, key] with the past block fully
        # visible and the in-flight block lower-triangular.
        mask = np.zeros((n, past + n), dtype=x.dtype)
        mask[:, past:] = np.triu(np.full((n, n), ag.MASK_VALUE, dtype=x.dtype), k=1)

        attn = ag.causal_attention(q, k_all, v_all, mask)
        x = ag.add(x, ag.matmul(self._merge_heads(attn), w.wo))

        m_in = ag.rms_norm(x, w.mlp_gain, cfg.norm_eps)
        x = ag.add(x, ag.matmul(ag.silu(ag.matmul(m_in, w.up)), w.down))
        return x

    def forward_range(
        self,
        states: Tensor,
        start: int,
        stop: int,
        positions,
        cache: Optional[KvCache] = None,
        write_cache: bool = False,
    ) -> Tensor:
        """Apply blocks [start, stop) in order; empty range is the identity.

        ``positions`` are the absolute positions of the state rows and must
        be strictly increasing; with a cache they must also be contiguous,
        and every cached slot below them must be Filled at each layer.
        """
        if not 0 <= start <= stop <= self.config.n_layers:
            raise ConfigError(
                f"layer range [{start}, {stop}) outside [0, {self.config.n_layers}]"
            )
        positions = np.asarray(positions, dtype=np.int64)
        n = states.shape[-2]
        if positions.shape != (n,):
            raise DimensionError(
                f"positions length {positions.shape} does not match {n} state rows"
            )
        if n > 1 and np.any(np.diff(positions) <= 0):
            raise ConfigError("positions must be strictly increasing")
        if positions.size and positions[-1] >= self.config.max_seq_len:
            raise ConfigError(
                f"position {int(positions[-1])} exceeds max_seq_len={self.config.max_seq_len}"
            )
        if cache is not None:
            if n > 1 and np.any(np.diff(positions) != 1):
                raise ConfigError("cache-backed passes require contiguous positions")
            if states.ndim != 2:
                raise ConfigError("cache-backed passes operate on a single stream")
        for layer in range(start, stop):
            states = self._block_forward(layer, states, positions, cache, write_cache)
        return states

    def lm_head(self, states: Tensor) -> Tensor:
        """Final norm, then projection to vocabulary logits."""
        return ag.matmul(ag.rms_norm(states, self.final_gain, self.config.norm_eps), self.lm_head_w)
