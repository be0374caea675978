"""Decoder-only transformer with a three-way layer partition.

Layers are split into contiguous encoding, thinking, and decoding ranges.
``forward_range`` applies any contiguous sub-range of blocks in one of two
ways:

* **Training path** (no cache): every block runs on ``Tensor`` ops and
  records the autograd graph. It is also the reference that the inference
  kernel is tested against.
* **Inference kernel** (with a cache): plain numpy on the weights'
  arrays, no graph and no ``Tensor`` per op. Each layer checks that cache
  slots [0, past) are Filled before the pass writes anything, stores its
  new keys and values in the cache, then attends over the cache rows
  [0, past + n) as per-head strided views, so the past is neither copied
  nor re-split.

Cache occupancy is tracked per (layer, position). Reads of unfilled slots
raise ``CacheIntegrityError``; stale data is never returned silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import CacheIntegrityError, ConfigError, DimensionError

RANGE_NAMES = ("encoding", "thinking", "decoding")


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
        return {name: getattr(self, name) for name in RANGE_NAMES}

    def range_of(self, name: str) -> range:
        if name not in RANGE_NAMES:
            raise ConfigError(f"unknown layer range {name!r}")
        return getattr(self, name)

    def layers(self, names) -> list[int]:
        """The layer indices of the named ranges, in the order given."""
        return [layer for name in names for layer in self.range_of(name)]


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

    def write(self, layer: int, positions, k: np.ndarray, v: np.ndarray) -> None:
        """Store rows at ``positions`` (an index array or a slice) as Filled."""
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


def _causal_mask(n: int, past: int, dtype) -> np.ndarray:
    """Additive mask over [query, key] for n queries after ``past`` cached
    keys: the past fully visible, the in-flight block lower-triangular."""
    mask = np.zeros((n, past + n), dtype=dtype)
    mask[:, past:] = np.triu(np.full((n, n), ag.MASK_VALUE, dtype=dtype), k=1)
    return mask


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
        self._frozen_head: Optional[tuple[np.ndarray, np.ndarray]] = None

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

    def _block_forward(self, layer: int, x: Tensor, positions: np.ndarray, mask: np.ndarray) -> Tensor:
        cfg = self.config
        w = self.blocks[layer]

        a_in = ag.rms_norm(x, w.attn_gain, cfg.norm_eps)
        q = self._split_heads(ag.matmul(a_in, w.wq))
        k = self._split_heads(ag.matmul(a_in, w.wk))
        v = self._split_heads(ag.matmul(a_in, w.wv))
        q = ag.rope(q, positions, cfg.rope_base)
        k = ag.rope(k, positions, cfg.rope_base)
        attn = ag.causal_attention(q, k, v, mask)
        x = ag.add(x, ag.matmul(self._merge_heads(attn), w.wo))

        m_in = ag.rms_norm(x, w.mlp_gain, cfg.norm_eps)
        x = ag.add(x, ag.matmul(ag.silu(ag.matmul(m_in, w.up)), w.down))
        return x

    def _cached_forward(self, x: np.ndarray, start: int, stop: int, past: int, cache: KvCache) -> np.ndarray:
        """The inference kernel: blocks [start, stop) over rows at positions
        [past, past + n), reading and writing ``cache``; ``_block_forward``
        in plain numpy."""
        cfg = self.config
        n, d = x.shape
        h = cfg.n_heads
        hd = d // h
        m = past + n
        # Every layer's past is checked before any layer writes, so a
        # refused pass leaves the cache untouched.
        if past:
            for layer in range(start, stop):
                cache.read(layer, past)
        cos, sin = ag._rope_cos_sin(np.arange(past, m), hd // 2, cfg.rope_base, x.dtype)
        cos, sin = cos[:, None, :], sin[:, None, :]
        mask = _causal_mask(n, past, x.dtype) if n > 1 else None
        rows = slice(past, m)
        for layer in range(start, stop):
            w = self.blocks[layer]
            a_in = ag._rms_rows(x, w.attn_gain.data, cfg.norm_eps)[0]
            q = ag._rope_rotate((a_in @ w.wq.data).reshape(n, h, hd), cos, sin)
            k = ag._rope_rotate((a_in @ w.wk.data).reshape(n, h, hd), cos, sin)
            cache.write(layer, rows, k.reshape(n, d), a_in @ w.wv.data)
            keys = cache.keys[layer, :m].reshape(m, h, hd).transpose(1, 0, 2)
            values = cache.values[layer, :m].reshape(m, h, hd).transpose(1, 0, 2)
            attn = ag._attention_rows(q.transpose(1, 0, 2), keys, values, mask)[0]
            x = x + attn.transpose(1, 0, 2).reshape(n, d) @ w.wo.data

            m_in = ag._rms_rows(x, w.mlp_gain.data, cfg.norm_eps)[0]
            x = x + ag._silu_rows(m_in @ w.up.data)[0] @ w.down.data
        return x

    def forward_range(
        self,
        states: Tensor,
        start: int,
        stop: int,
        positions,
        cache: Optional[KvCache] = None,
    ) -> Tensor:
        """Apply blocks [start, stop) in order; empty range is the identity.

        ``positions`` are the absolute positions of the state rows and must
        be strictly increasing. Without a cache the blocks run on the
        training path. With one the pass is inference only (its result
        carries no graph): positions must be contiguous, every cached slot
        below them must be Filled at each layer, and each layer writes its
        keys and values for them.
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
            if positions.size and positions[0] < 0:
                raise ConfigError(f"position {int(positions[0])} is negative")
            if start == stop:
                return states
            return Tensor(self._cached_forward(states.data, start, stop, int(positions[0]), cache))
        mask = _causal_mask(n, 0, states.dtype)
        for layer in range(start, stop):
            states = self._block_forward(layer, states, positions, mask)
        return states

    def forward_ranges(self, states: Tensor, names, positions, cache: Optional[KvCache] = None) -> Tensor:
        """Apply the named layer ranges in order, one ``forward_range`` call each."""
        for name in names:
            r = self.partition.range_of(name)
            states = self.forward_range(states, r.start, r.stop, positions, cache)
        return states

    def lm_head(self, states: Tensor) -> Tensor:
        """Final norm, then projection to vocabulary logits."""
        return ag.matmul(ag.rms_norm(states, self.final_gain, self.config.norm_eps), self.lm_head_w)

    def frozen_head(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only copies of the final-norm gain and the ``lm_head`` weight,
        shared by every caller until either weight changes."""
        live = (self.final_gain.data, self.lm_head_w.data)
        frozen = self._frozen_head
        if frozen is None or not all(
            f.shape == w.shape and np.array_equal(f, w) for f, w in zip(frozen, live)
        ):
            frozen = tuple(w.copy() for w in live)
            for f in frozen:
                f.flags.writeable = False
            self._frozen_head = frozen
        return frozen
