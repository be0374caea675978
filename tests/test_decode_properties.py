"""Property test of the decode state machine.

Hypothesis draws a partition, a variant, both cycle lengths, a context, a
``max_seq_len`` small enough to truncate, a greedy or temperature sampler
and perhaps a stop token. The decoder is stepped by hand, pass by pass,
with the state's invariants checked after every pass; the result must
equal ``generate``, obey the exact PLT law on whole cycles and agree with
the teacher-forced replay through ``masked_forward``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cycledecode.autograd import no_grad
from cycledecode.bench import measure_plt
from cycledecode.decoding import (
    SamplerConfig,
    cycle_boundary_pass,
    generate,
    light_pass,
    prefill,
    sample,
)
from cycledecode.masking import CyclePlan, masked_forward
from cycledecode.model import Model, ModelConfig


@st.composite
def decode_cases(draw):
    n_enc = draw(st.integers(0, 2))
    n_think = draw(st.integers(0, 3))
    n_dec = draw(st.integers(1, 2))
    variant = draw(st.sampled_from(("embedding", "encoding") if n_enc else ("embedding",)))
    tau_infer = draw(st.integers(1, 5))
    plan = CyclePlan(tau_train=draw(st.integers(1, 4)), tau_infer=tau_infer, variant=variant)
    # one to three whole cycles, then part of one more
    max_new = draw(st.integers(1, 3)) * tau_infer + draw(st.integers(0, tau_infer - 1))
    n_ctx = draw(st.integers(1, 10))
    config = ModelConfig(
        vocab_size=64, d_model=16, n_heads=2, d_ff=32,
        n_layers=n_enc + n_think + n_dec, n_encoding=n_enc, n_thinking=n_think,
        n_decoding=n_dec, max_seq_len=n_ctx + draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 999)),
    )
    context = draw(st.lists(st.integers(0, 63), min_size=n_ctx, max_size=n_ctx))
    sampler = SamplerConfig(
        mode=draw(st.sampled_from(("greedy", "temperature"))),
        temperature=draw(st.sampled_from((0.5, 1.0, 2.0))),
        seed=draw(st.integers(0, 999)),
    )
    # the stop token is the one a free run emits at this index, so it fires
    stop_index = draw(st.sampled_from((None, 0, max_new // 2, max_new - 1)))
    return config, plan, np.array(context), max_new, sampler, stop_index


@settings(max_examples=60, derandomize=True, deadline=None)
@given(decode_cases())
def test_hand_stepped_decode_obeys_both_laws(case):
    config, plan, context, max_new, sampler, stop_index = case
    model = Model(config)
    stop = None
    if stop_index is not None:
        free = generate(model, context, max_new, plan, sampler)[0].tokens
        stop = free[min(stop_index, len(free) - 1)]

    state, token, logits = prefill(model, context, plan, sampler)
    state.check_invariants(model)
    tokens, rows = [token], [logits]
    while token != stop and len(tokens) < max_new and state.next_position < config.max_seq_len:
        step = light_pass if state.cycle_phase < state.tau_infer - 1 else cycle_boundary_pass
        logits = step(model, state, state.last_token)
        state.check_invariants(model)
        token = state.last_token = sample(logits, sampler, state.rng)
        tokens.append(token)
        rows.append(logits)
    stopped = token == stop

    report, _ = generate(model, context, max_new, plan, sampler, stop_token=stop,
                         collect_logits=True)
    assert report.tokens == tokens
    assert report.truncated == (len(tokens) < max_new and not stopped)
    assert np.array_equal(np.asarray(report.logit_rows), np.stack(rows))
    assert report.trace.summary() == state.trace.summary()

    tau = state.tau_infer
    if len(tokens) % tau == 0:
        assert measure_plt(state.trace, model.partition, len(tokens), tau, plan.variant).match

    n_ctx = len(context)
    replay = np.array(list(context) + tokens[:-1])
    with no_grad():
        want = masked_forward(model, replay, plan, anchor=(n_ctx - 1) % tau, tau=tau).data
    assert np.abs(np.stack(rows) - want[n_ctx - 1:]).max() < 1e-5
