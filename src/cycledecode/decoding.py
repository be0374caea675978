"""Cycle-based generation with cyclical KV-cache refilling.

Every pass follows the plan's ``Route`` (``masking.ROUTES``) and one rule:
a pass whose newest position is a cycle start, ``(p - mask_anchor) %
tau_infer == 0``, is full; any other pass is light. Both run the route's
base ranges and then decoding. A full pass also runs the skipped ranges,
over its own rows and the base rows of the light passes since the last
full pass, which refills their KV slots before any later attention can
need them, so no verification step is required downstream. A light pass
leaves its skipped ranges' slots marked PendingRefill.

Pass schedule for a cycle length of 3 over context x0..x4:

    pass 0  full, prefill   x0..x4 through all ranges, emits x5
    pass 1  light           x5 through the base ranges and decoding, emits x6
    pass 2  light           x6 through the base ranges and decoding, emits x7
    pass 3  full, boundary  x7 through the base ranges; x5,x6,x7 batched
                            through the skipped ranges (refilling x5 and x6,
                            filling x7); x7 alone through decoding, emits x8
    ...

The prefill anchors the mask so the final context position is a cycle
start, which makes it full; every following cycle then has one full pass
and ``tau_infer - 1`` light ones. The realized sequence follows exactly the
training-time masking rule, which is what makes teacher-forced replay
reproduce the inference logits.

A Model's weights are never mutated here (``Model.frozen_head`` only
caches copies of them) and a Model may be shared across streams; each
DecodeState (and its cache) belongs to exactly one generation stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autograd as ag
from .autograd import Tensor, no_grad
from .errors import ConfigError, ContractError, NumericError
from .masking import CyclePlan, build_cycle_mask, route_of
from .model import KvCache, Model, SlotState
from .trace import InvocationTrace


@dataclass
class SamplerConfig:
    mode: str = "greedy"
    temperature: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in ("greedy", "temperature"):
            raise ConfigError(f"unknown sampler mode {self.mode!r}")
        if self.mode == "temperature" and self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")


def sample(logits_row: np.ndarray, sampler: SamplerConfig, rng: Optional[np.random.Generator] = None) -> int:
    """Greedy argmax (lowest id wins ties) or seeded categorical draw."""
    logits_row = np.asarray(logits_row).reshape(-1)
    if not np.all(np.isfinite(logits_row)):
        raise NumericError("sampler received non-finite logits")
    if sampler.mode == "greedy":
        return int(np.argmax(logits_row))
    if rng is None:
        rng = np.random.default_rng(sampler.seed)
    scaled = logits_row.astype(np.float64) / sampler.temperature
    scaled -= scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    return int(rng.choice(logits_row.shape[0], p=probs))


@dataclass
class DecodeState:
    """Generation cursor for one stream.

    ``cycle_phase`` counts the light passes completed since the last full
    pass and always equals ``len(pending_refill)``, which holds each light
    pass's position and base row (the skipped ranges' input at the next
    refill). ``last_token`` is the newest sampled token, which has not
    been forwarded anywhere yet; ``last_hidden`` is the decoding-range
    output row whose ``lm_head`` gave its logits.
    """

    cache: KvCache
    plan: CyclePlan
    tau_infer: int
    mask_anchor: int
    next_position: int
    last_token: int
    pending_refill: list[tuple[int, np.ndarray]] = field(default_factory=list)
    trace: InvocationTrace = field(default_factory=InvocationTrace)
    pass_index: int = 0
    rng: Optional[np.random.Generator] = None
    last_hidden: Optional[np.ndarray] = None

    @property
    def cycle_phase(self) -> int:
        return len(self.pending_refill)

    def check_invariants(self, model: Model) -> None:
        route = route_of(self.plan.variant)
        boundary = self.next_position - len(self.pending_refill)
        occ = self.cache.occupancy
        if not np.all(occ[:, :boundary] == SlotState.FILLED):
            raise ContractError("settled positions must be Filled at all layers")
        light = model.partition.layers(route.light)
        skipped = model.partition.layers(route.skipped)
        for pos, _ in self.pending_refill:
            if not np.all(occ[light, pos] == SlotState.FILLED):
                raise ContractError("pending positions must be Filled at light-pass layers")
            if not np.all(occ[skipped, pos] == SlotState.PENDING_REFILL):
                raise ContractError("pending positions must be PendingRefill at skipped layers")


class LogitRows:
    """A generation's logit rows, kept as the hidden rows they come from.

    Row j is ``lm_head`` of ``hidden[j]`` under read-only copies of the
    head weights taken when the rows were made, computed on each access:
    a kept report holds ``d_model`` floats per token, not ``vocab_size``.
    Each row is projected on its own, the same single-row product as in
    the pass that sampled it. Indexing, iteration and ``np.asarray`` give
    ndarrays.
    """

    def __init__(self, hidden: np.ndarray, gain: np.ndarray, weight: np.ndarray, eps: float):
        self.hidden = hidden
        self._head = (gain, weight, eps)

    @property
    def shape(self) -> tuple[int, int]:
        return self.hidden.shape[0], self._head[1].shape[1]

    @property
    def dtype(self):
        return self.hidden.dtype

    def __len__(self) -> int:
        return self.hidden.shape[0]

    def __getitem__(self, rows) -> np.ndarray:
        if isinstance(rows, tuple):
            raise IndexError("logit rows are indexed by row; index the result for columns")
        gain, weight, eps = self._head
        hidden = self.hidden[rows]
        flat = hidden.reshape(-1, 1, hidden.shape[-1])
        out = np.empty((flat.shape[0], 1, weight.shape[1]), dtype=hidden.dtype)
        for h, row in zip(flat, out):
            np.matmul(ag._rms_rows(h, gain, eps)[0], weight, out=row)
        return out.reshape(hidden.shape[:-1] + weight.shape[1:])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        logits = self[:]
        return logits if dtype is None else logits.astype(dtype, copy=False)

    def __iter__(self):
        return iter(self[:])


@dataclass
class GenerationReport:
    tokens: list[int]
    trace: InvocationTrace
    tau_infer: int
    mask_anchor: int
    context_length: int
    # len(tokens) rows: row j holds the logits that produced tokens[j]
    logit_rows: Optional[LogitRows] = None
    truncated: bool = False
    message: str = ""


def _forward(model: Model, state: DecodeState, x: Tensor, names, positions) -> Tensor:
    """``x`` through the named ranges in order on the state's cache, with one
    trace entry for the current pass per named range that has layers."""
    x = model.forward_ranges(x, names, positions, state.cache)
    for name in names:
        if model.partition.range_of(name):
            state.trace.add(state.pass_index, name, positions)
    return x


def _pass(model: Model, state: DecodeState, tokens) -> np.ndarray:
    """Run ``tokens`` at the next positions; returns the newest one's logits.

    Every pass runs the route's base ranges. It is full when its newest
    position ``p`` is a cycle start, ``(p - mask_anchor) % tau_infer == 0``:
    the skipped ranges then run over the pending base rows and its own,
    refilling the pending slots, and decoding is fed ``base + think ⊙ mask``.
    Otherwise it is light: decoding is fed ``base`` alone, and the skipped
    ranges' slots at ``p`` are marked PendingRefill, with the base row kept
    for the next full pass to refill them from.
    """
    first = state.next_position
    n = len(tokens)
    p = first + n - 1
    if p >= model.config.max_seq_len:
        raise ConfigError(f"position {p} exceeds max_seq_len={model.config.max_seq_len}")
    route = route_of(state.plan.variant)
    positions = np.arange(first, p + 1)
    tau, anchor = state.tau_infer, state.mask_anchor

    with no_grad():
        base = _forward(model, state, model.embed_tokens(tokens), route.base, positions)
        if (p - anchor) % tau == 0:
            rows = Tensor(np.vstack([row for _, row in state.pending_refill] + [base.data]))
            refill = np.arange(first - len(state.pending_refill), p + 1)
            think = _forward(model, state, rows, route.skipped, refill)
            mask = build_cycle_mask(n, tau, (anchor - first) % tau)[:, None]
            decode_in = Tensor(base.data + think.data[-n:] * mask.astype(think.dtype))
            state.pending_refill.clear()
        else:
            decode_in = base
            state.cache.mark_pending(model.partition.layers(route.skipped), p)
            state.pending_refill.append((p, base.data[0].copy()))
        out = _forward(model, state, decode_in, ("decoding",), positions)
        if n > 1:
            out = Tensor(out.data[-1:])
        state.last_hidden = out.data[0].copy()
        logits = model.lm_head(out).data[0]

    state.next_position = p + 1
    state.pass_index += 1
    return logits


def prefill(
    model: Model,
    context,
    plan: CyclePlan,
    sampler: Optional[SamplerConfig] = None,
) -> tuple[DecodeState, int, np.ndarray]:
    """Run the whole context as the first full pass and emit the first token.

    The cyclical mask at ``tau_infer`` is anchored so the final context
    position is a cycle start, which makes this pass full. Returns the new
    state, on a fresh cache, the sampled token, and its logits row.
    """
    plan.validate(model.config)
    sampler = sampler or SamplerConfig()
    sampler.validate()
    context = np.asarray(context, dtype=np.int64).reshape(-1)
    n = context.shape[0]
    if n < 1:
        raise ConfigError("context must be nonempty")
    tau = plan.resolved_tau_infer()
    state = DecodeState(
        cache=model.new_cache(),
        plan=plan,
        tau_infer=tau,
        mask_anchor=(n - 1) % tau,
        next_position=0,
        last_token=-1,
        rng=np.random.default_rng(sampler.seed),
    )
    logits = _pass(model, state, context)
    token = sample(logits, sampler, state.rng)
    state.last_token = token
    return state, token, logits


def light_pass(model: Model, state: DecodeState, token: int) -> np.ndarray:
    """One light pass over ``token``: base ranges, then decoding; returns
    its logits. Allowed while fewer than ``tau_infer - 1`` light passes
    are pending."""
    if state.cycle_phase >= state.tau_infer - 1:
        raise ContractError(
            f"light pass at cycle phase {state.cycle_phase} with tau={state.tau_infer}"
        )
    return _pass(model, state, [int(token)])


def cycle_boundary_pass(model: Model, state: DecodeState, last_token: int) -> np.ndarray:
    """First pass of a cycle over ``last_token``: a full pass whose skipped
    ranges refill the pending light passes' slots in one batch; returns its
    logits. Only the newest token continues through decoding, so the
    pending tokens' light-pass KV is never overwritten."""
    if state.cycle_phase != state.tau_infer - 1:
        raise ContractError(
            f"boundary pass at cycle phase {state.cycle_phase} with tau={state.tau_infer}"
        )
    p = state.next_position
    pend_positions = [pos for pos, _ in state.pending_refill]
    if pend_positions != list(range(p - len(pend_positions), p)):
        raise ContractError(f"refill batch out of order: {pend_positions} before {p}")
    return _pass(model, state, [int(last_token)])


def generate(
    model: Model,
    context,
    max_new_tokens: int,
    plan: CyclePlan,
    sampler: Optional[SamplerConfig] = None,
    stop_token: Optional[int] = None,
    collect_logits: bool = False,
) -> tuple[GenerationReport, DecodeState]:
    """Generate up to ``max_new_tokens`` tokens in cycles of ``tau_infer``.

    Stops early on ``stop_token`` (included in the output) or when the
    cache is full, in which case the report is flagged truncated and the
    partial output returned. A generation that ends mid-cycle leaves the
    trailing PendingRefill slots untouched.
    """
    if max_new_tokens < 1:
        raise ConfigError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
    sampler = sampler or SamplerConfig()
    state, token, _ = prefill(model, context, plan, sampler)
    n_ctx = int(np.asarray(context).reshape(-1).shape[0])
    tokens = [token]
    if collect_logits:
        capacity = min(max_new_tokens, model.config.max_seq_len - n_ctx + 1)
        hidden = np.empty((capacity, state.last_hidden.shape[0]), dtype=state.last_hidden.dtype)
        hidden[0] = state.last_hidden
    report = GenerationReport(
        tokens=tokens,
        trace=state.trace,
        tau_infer=state.tau_infer,
        mask_anchor=state.mask_anchor,
        context_length=n_ctx,
    )
    stopped = stop_token is not None and token == stop_token
    while not stopped and len(tokens) < max_new_tokens:
        if state.next_position >= model.config.max_seq_len:
            report.truncated = True
            report.message = (
                f"generation stopped at max_seq_len={model.config.max_seq_len}; "
                f"returning {len(tokens)} of {max_new_tokens} tokens"
            )
            break
        if state.cycle_phase < state.tau_infer - 1:
            logits = light_pass(model, state, state.last_token)
        else:
            logits = cycle_boundary_pass(model, state, state.last_token)
        token = sample(logits, sampler, state.rng)
        state.last_token = token
        if collect_logits:
            hidden[len(tokens)] = state.last_hidden
        tokens.append(token)
        stopped = stop_token is not None and token == stop_token
    if collect_logits:
        if len(tokens) < hidden.shape[0]:
            hidden = hidden[: len(tokens)].copy()
        report.logit_rows = LogitRows(hidden, *model.frozen_head(), model.config.norm_eps)
    return report, state
