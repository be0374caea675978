"""Independent checks of the engine's outputs.

Nothing here calls ``Model.forward_range``, ``masked_forward`` or the
autograd ops. The reference forward re-implements the transformer in plain
float64 numpy from the weights that ``Model.parameters()`` names, and the
invocation law is derived in closed form from the partition, so a fault in
the engine cannot hide by being reproduced on both sides of a comparison.
"""

from __future__ import annotations

import math

import numpy as np

# float32 engine against the float64 reference: the observed gap on the
# benchmark models is below 1e-6, while a mask anchored one position off
# moves logits by more than 0.1.
LOGIT_ATOL = 1e-4
# A greedy token may differ from the reference argmax only when the two
# logits are this close: a near-tie that float32 rounding can flip.
TIE_MARGIN = 2 * LOGIT_ATOL
LOSS_ATOL = 1e-4


class ReferenceModel:
    """Plain-numpy float64 forward of a ``cycledecode.Model``."""

    def __init__(self, model):
        cfg = model.config
        self.p = {name: t.data.astype(np.float64) for name, t in model.parameters()}
        self.n_heads = cfg.n_heads
        self.head_dim = cfg.d_model // cfg.n_heads
        self.eps = cfg.norm_eps
        self.rope_base = cfg.rope_base
        self.n_enc = cfg.n_encoding
        self.n_think = cfg.n_thinking
        self.n_layers = cfg.n_layers

    def _rms(self, x, gain):
        return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + self.eps) * gain

    def _rope(self, x, positions):
        """Rotary encoding of each head's channels in [n, d] rows."""
        n, half = x.shape[0], self.head_dim // 2
        inv = self.rope_base ** (-np.arange(half) * 2.0 / self.head_dim)
        ang = positions[:, None, None] * inv[None, None, :]
        cos = np.concatenate([np.cos(ang), np.cos(ang)], axis=-1)
        sin = np.concatenate([np.sin(ang), np.sin(ang)], axis=-1)
        x = x.reshape(n, self.n_heads, self.head_dim)
        rotated = np.concatenate([-x[..., half:], x[..., :half]], axis=-1)
        return (x * cos + rotated * sin).reshape(n, -1)

    def _block(self, i, x, positions):
        p = self.p
        pre = f"layers.{i}"
        n = x.shape[0]
        a = self._rms(x, p[f"{pre}.attn.norm_gain"])

        q = self._rope(a @ p[f"{pre}.attn.wq"], positions)
        k = self._rope(a @ p[f"{pre}.attn.wk"], positions)
        v = a @ p[f"{pre}.attn.wv"]
        causal = np.tril(np.ones((n, n), dtype=bool))
        out = np.empty_like(v)
        for h in range(self.n_heads):
            cols = slice(h * self.head_dim, (h + 1) * self.head_dim)
            scores = q[:, cols] @ k[:, cols].T / math.sqrt(self.head_dim)
            top = np.where(causal, scores, -np.inf).max(axis=-1, keepdims=True)
            # Future keys are zeroed after exp, which never sees -inf.
            weights = np.exp(np.where(causal, scores - top, 0.0)) * causal
            out[:, cols] = (weights / weights.sum(axis=-1, keepdims=True)) @ v[:, cols]
        x = x + out @ p[f"{pre}.attn.wo"]
        m = self._rms(x, p[f"{pre}.mlp.norm_gain"]) @ p[f"{pre}.mlp.up"]
        return x + (m / (1.0 + np.exp(-m))) @ p[f"{pre}.mlp.down"]

    def logits(self, tokens, variant: str, tau: int, anchor: int) -> np.ndarray:
        """Per-position logits [n, V] under the cycle routing rule.

        Decoding-range input is ``base + thinking * mask`` with the mask set
        where ``(position - anchor) % tau == 0``; ``base`` is the embedding
        (embedding variant) or the encoding-range output (encoding variant).
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        positions = np.arange(tokens.shape[0], dtype=np.float64)
        h_emb = self.p["embedding.weight"][tokens]
        h = h_emb
        for i in range(self.n_enc):
            h = self._block(i, h, positions)
        h_enc = h
        for i in range(self.n_enc, self.n_enc + self.n_think):
            h = self._block(i, h, positions)
        base = h_emb if variant == "embedding" else h_enc
        mask = ((np.arange(tokens.shape[0]) - anchor) % tau == 0)[:, None]
        h = base + h * mask
        for i in range(self.n_enc + self.n_think, self.n_layers):
            h = self._block(i, h, positions)
        return self._rms(h, self.p["final_norm.gain"]) @ self.p["lm_head.weight"]

    def sequence_loss(self, batch, variant: str, tau: int, anchor: int = 0) -> float:
        """Mean next-token cross-entropy over a [B, n] batch, last position excluded."""
        total, count = 0.0, 0
        for seq in np.asarray(batch):
            z = self.logits(seq, variant, tau, anchor)[:-1]
            m = z.max(axis=-1, keepdims=True)
            lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=-1))
            total += float(np.sum(lse - z[np.arange(z.shape[0]), seq[1:]]))
            count += z.shape[0]
        return total / count


def expected_invocations(partition, variant: str, tau: int, n_tokens: int) -> tuple[int, int]:
    """Closed-form (layer invocations, passes) for one greedy request.

    The prefill emits the first token; after it, pass k (k >= 1) is a cycle
    boundary when k % tau == 0 and a light pass otherwise. Prefill and
    boundary passes traverse all L layers; a light pass traverses the reuse
    range: the decoding layers, plus the encoding layers in the encoding
    variant. A whole cycle therefore costs L + (tau - 1) * reuse, and a
    partial last cycle is counted pass by pass.
    """
    n_layers = partition.n_layers
    reuse = len(partition.decoding) + (len(partition.encoding) if variant == "encoding" else 0)
    boundaries = (n_tokens - 1) // tau
    lights = n_tokens - 1 - boundaries
    return n_layers * (1 + boundaries) + reuse * lights, n_tokens


def check_request(ref: ReferenceModel, model, req) -> list[str]:
    """Logits, greedy choices and invocation law of one decode request."""
    errors = []
    tag = f"request tau={req.tau} ctx={len(req.prompt)} new={len(req.tokens)}"
    want_inv, want_passes = expected_invocations(
        model.partition, req.variant, req.tau, len(req.tokens)
    )
    got_inv = req.trace.layer_invocations(model.partition)
    if got_inv != want_inv or req.trace.pass_count() != want_passes:
        errors.append(
            f"{tag}: {got_inv} layer invocations in {req.trace.pass_count()} passes, "
            f"closed form gives {want_inv} in {want_passes}"
        )
    n_ctx = len(req.prompt)
    seq = np.concatenate([req.prompt, np.asarray(req.tokens[:-1], dtype=np.int64)])
    want = ref.logits(seq, req.variant, req.tau, (n_ctx - 1) % req.tau)[n_ctx - 1 :]
    got = np.stack(req.logit_rows).astype(np.float64)
    gap = float(np.max(np.abs(got - want)))
    if gap > LOGIT_ATOL:
        row = int(np.argmax(np.max(np.abs(got - want), axis=-1)))
        errors.append(f"{tag}: logits differ from the reference by {gap:.3g} at output {row}")
    chosen = want[np.arange(len(req.tokens)), req.tokens]
    short = np.nonzero(chosen < want.max(axis=-1) - TIE_MARGIN)[0]
    if short.size:
        errors.append(
            f"{tag}: token {int(short[0])} is not the reference argmax "
            f"({req.tokens[short[0]]} vs {int(np.argmax(want[short[0]]))})"
        )
    return errors
