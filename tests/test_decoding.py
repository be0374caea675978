import gc
import tracemalloc

import numpy as np
import pytest

import cycledecode as cd
from cycledecode.autograd import Tensor, no_grad
from cycledecode.decoding import (
    SamplerConfig,
    cycle_boundary_pass,
    generate,
    light_pass,
    prefill,
    sample,
)
from cycledecode.errors import CacheIntegrityError, ConfigError, ContractError, NumericError
from cycledecode.masking import CyclePlan, masked_forward
from cycledecode.model import Model, SlotState

from conftest import tiny_config


def ctx_tokens(n=5, seed=0):
    return np.random.default_rng(seed).integers(0, 257, size=n)


def make_model(**overrides):
    return Model(tiny_config(**overrides))


def enc_think_kv_oracle(model, tokens):
    """From-scratch full-sequence forward capturing encoding/thinking KV."""
    cache = model.new_cache()
    part = model.partition
    pos = np.arange(len(tokens))
    with no_grad():
        h = model.embed_tokens(np.asarray(tokens))
        h = model.forward_range(h, part.encoding.start, part.encoding.stop, pos, cache)
        model.forward_range(h, part.thinking.start, part.thinking.stop, pos, cache)
    return cache


class TestSample:
    def test_greedy_argmax(self):
        assert sample(np.array([0.1, 0.9, 0.3]), SamplerConfig()) == 1

    def test_greedy_tie_breaks_low(self):
        assert sample(np.array([5.0, 5.0]), SamplerConfig()) == 0

    def test_temperature_limit_agrees_with_greedy(self):
        row = np.array([0.3, 1.7, -0.4, 0.9])
        cold = SamplerConfig(mode="temperature", temperature=1e-4, seed=0)
        rng = np.random.default_rng(0)
        assert sample(row, cold, rng) == 1

    def test_temperature_deterministic_under_seed(self):
        row = np.random.default_rng(1).normal(size=16)
        cfg = SamplerConfig(mode="temperature", temperature=1.0, seed=42)
        a = [sample(row, cfg, np.random.default_rng(42)) for _ in range(5)]
        b = [sample(row, cfg, np.random.default_rng(42)) for _ in range(5)]
        assert a == b

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            sample(np.array([np.nan, 1.0]), SamplerConfig())

    def test_bad_temperature_rejected(self):
        with pytest.raises(ConfigError):
            SamplerConfig(mode="temperature", temperature=0.0).validate()


class TestPrefill:
    def test_fills_all_context_slots(self):
        model = make_model()
        plan = CyclePlan(tau_train=3, tau_infer=3, variant="embedding")
        state, token, _ = prefill(model, ctx_tokens(5), plan)
        assert state.next_position == 5
        assert np.all(state.cache.occupancy[:, :5] == SlotState.FILLED)
        assert state.cycle_phase == 0
        assert 0 <= token < 257

    def test_anchor_makes_final_position_cycle_start(self):
        model = make_model()
        for n, tau in [(5, 3), (6, 3), (1, 4), (7, 2)]:
            plan = CyclePlan(tau_train=tau, tau_infer=tau, variant="embedding")
            state, _, _ = prefill(model, ctx_tokens(n, seed=n), plan)
            assert (n - 1 - state.mask_anchor) % tau == 0

    def test_single_token_context_equals_full_forward(self):
        model = make_model()
        plan = CyclePlan(tau_train=3, tau_infer=3, variant="embedding")
        tokens = np.array([97])
        _, _, logits = prefill(model, tokens, plan)
        with no_grad():
            want = masked_forward(model, tokens, plan, anchor=0, tau=3).data[-1]
        assert np.abs(logits - want).max() < 1e-5

    @pytest.mark.parametrize("variant", ["embedding", "encoding"])
    def test_final_logits_match_masked_forward(self, variant):
        model = make_model()
        tokens = ctx_tokens(7, seed=3)
        plan = CyclePlan(tau_train=3, tau_infer=3, variant=variant)
        state, _, logits = prefill(model, tokens, plan)
        with no_grad():
            want = masked_forward(model, tokens, plan, anchor=state.mask_anchor, tau=3).data[-1]
        assert np.abs(logits - want).max() < 1e-5

    def test_context_too_long_rejected(self):
        model = make_model(max_seq_len=8)
        plan = CyclePlan(tau_train=2, tau_infer=2)
        with pytest.raises(ConfigError):
            prefill(model, ctx_tokens(9), plan)

    def test_empty_context_rejected(self):
        model = make_model()
        with pytest.raises(ConfigError):
            prefill(model, np.array([], dtype=np.int64), CyclePlan(tau_train=2))


class TestLightPass:
    def test_decode_input_is_base_alone(self):
        # the mask-off branch: a light pass must equal a manual decode-range
        # pass fed the raw embedding
        model = make_model()
        plan = CyclePlan(tau_train=3, tau_infer=3, variant="embedding")
        state, token, _ = prefill(model, ctx_tokens(5), plan)
        part = model.partition

        import copy
        mirror = copy.deepcopy(state.cache)
        logits = light_pass(model, state, token)
        with no_grad():
            h = model.embed_tokens(np.array([token]))
            h = model.forward_range(h, part.decoding.start, part.decoding.stop,
                                    np.array([5]), mirror)
            want = model.lm_head(h).data[0]
        assert np.abs(logits - want).max() < 1e-6

    def test_marks_pending_and_stores_base(self):
        model = make_model()
        plan = CyclePlan(tau_train=3, tau_infer=3, variant="embedding")
        state, token, _ = prefill(model, ctx_tokens(5), plan)
        light_pass(model, state, token)
        part = model.partition
        assert [pos for pos, _ in state.pending_refill] == [5]
        for layer in list(part.encoding) + list(part.thinking):
            assert state.cache.occupancy[layer, 5] == SlotState.PENDING_REFILL
        for layer in part.decoding:
            assert state.cache.occupancy[layer, 5] == SlotState.FILLED
        state.check_invariants(model)

    def test_phase_contract(self):
        model = make_model()
        plan = CyclePlan(tau_train=2, tau_infer=2, variant="embedding")
        state, token, _ = prefill(model, ctx_tokens(5), plan)
        light_pass(model, state, token)
        with pytest.raises(ContractError):
            light_pass(model, state, token)  # phase tau-1 requires a boundary

    def test_tau1_forbids_light_passes(self):
        model = make_model()
        plan = CyclePlan(tau_train=1, tau_infer=1, variant="embedding")
        state, token, _ = prefill(model, ctx_tokens(4), plan)
        with pytest.raises(ContractError):
            light_pass(model, state, token)


class TestBoundaryPass:
    def test_refill_turns_pending_filled(self):
        model = make_model()
        plan = CyclePlan(tau_train=3, tau_infer=3, variant="embedding")
        state, token, _ = prefill(model, ctx_tokens(5), plan)
        t2 = sample(light_pass(model, state, token), SamplerConfig())
        t3 = sample(light_pass(model, state, t2), SamplerConfig())
        cycle_boundary_pass(model, state, t3)
        assert state.pending_refill == []
        assert np.all(state.cache.occupancy[:, :8] == SlotState.FILLED)
        state.check_invariants(model)

    def test_out_of_phase_rejected(self):
        model = make_model()
        plan = CyclePlan(tau_train=3, tau_infer=3, variant="embedding")
        state, token, _ = prefill(model, ctx_tokens(5), plan)
        with pytest.raises(ContractError):
            cycle_boundary_pass(model, state, token)  # phase 0, tau 3

    def test_decoding_kv_from_light_passes_not_overwritten(self):
        model = make_model()
        plan = CyclePlan(tau_train=3, tau_infer=3, variant="embedding")
        state, token, _ = prefill(model, ctx_tokens(5), plan)
        t2 = sample(light_pass(model, state, token), SamplerConfig())
        dec_layer = model.partition.decoding.start
        before = state.cache.keys[dec_layer, 5].copy()
        t3 = sample(light_pass(model, state, t2), SamplerConfig())
        cycle_boundary_pass(model, state, t3)
        assert np.array_equal(state.cache.keys[dec_layer, 5], before)


def fuzz_configs():
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(10):
        total = int(rng.integers(2, 9))
        n_dec = int(rng.integers(1, total + 1))
        rest = total - n_dec
        n_enc = int(rng.integers(0, rest + 1))
        n_think = rest - n_enc
        tau = int(rng.integers(1, 5))
        variant = "encoding" if (n_enc > 0 and rng.random() < 0.4) else "embedding"
        ctx = int(rng.integers(1, 17))
        gen = int(rng.integers(2, 13))
        seed = int(rng.integers(0, 1000))
        cases.append((total, n_enc, n_think, n_dec, tau, variant, ctx, gen, seed))
    return cases


class TestRefillExactness:
    @pytest.mark.parametrize("case", fuzz_configs())
    def test_filled_enc_think_kv_matches_full_recompute(self, case):
        total, n_enc, n_think, n_dec, tau, variant, ctx_len, gen, seed = case
        model = make_model(
            n_layers=total, n_encoding=n_enc, n_thinking=n_think, n_decoding=n_dec,
            seed=seed, max_seq_len=64,
        )
        plan = CyclePlan(tau_train=tau, tau_infer=tau, variant=variant)
        context = np.random.default_rng(seed).integers(0, 257, size=ctx_len)
        report, state = generate(model, context, gen, plan, SamplerConfig())
        realized = np.concatenate([context, report.tokens])
        oracle = enc_think_kv_oracle(model, realized)
        part = model.partition
        for layer in list(part.encoding) + list(part.thinking):
            for p in range(len(realized)):
                if state.cache.occupancy[layer, p] == SlotState.FILLED:
                    dk = np.abs(state.cache.keys[layer, p] - oracle.keys[layer, p]).max()
                    dv = np.abs(state.cache.values[layer, p] - oracle.values[layer, p]).max()
                    assert max(dk, dv) < 1e-5, (case, layer, p)
        state.check_invariants(model)


class TestGenerate:
    def test_fig_schedule_and_counts(self):
        # 6 new tokens at tau 3: full, light, light, full(+refill), light, light
        model = make_model()
        plan = CyclePlan(tau_train=3, tau_infer=3, variant="embedding")
        report, _ = generate(model, ctx_tokens(5), 6, plan, SamplerConfig())
        trace = report.trace
        assert trace.pass_count() == 6
        assert trace.range_pass_count("encoding", "thinking") == 2
        assert trace.range_pass_count("decoding") == 6
        # second boundary pass refills a batch of 3
        refills = [e for e in trace.entries if e.range_name == "thinking"]
        assert len(refills[1].positions) == 3

    def test_greedy_deterministic(self):
        model = make_model()
        plan = CyclePlan(tau_train=2, tau_infer=2, variant="embedding")
        a, _ = generate(model, ctx_tokens(4), 8, plan, SamplerConfig())
        b, _ = generate(model, ctx_tokens(4), 8, plan, SamplerConfig())
        assert a.tokens == b.tokens

    @pytest.mark.parametrize("variant", ["embedding", "encoding"])
    @pytest.mark.parametrize("tau_infer", [1, 2, 3])
    def test_replay_oracle(self, memorizer_tau2, variant, tau_infer):
        # teacher-forced replay reproduces inference logits and argmaxes
        if variant == "encoding":
            model = make_model(seed=11)
        else:
            model, _ = memorizer_tau2
        plan = CyclePlan(tau_train=2, tau_infer=tau_infer, variant=variant)
        context = cd.tokenize(b"the quick brown")
        report, _ = generate(model, context, 9, plan, SamplerConfig(), collect_logits=True)
        realized = np.concatenate([context, report.tokens])
        with no_grad():
            replay = masked_forward(
                model, realized, plan, anchor=report.mask_anchor, tau=tau_infer
            ).data
        n_ctx = len(context)
        for j, row in enumerate(report.logit_rows):
            pos = n_ctx - 1 + j
            assert np.abs(replay[pos] - row).max() < 1e-4
            assert int(np.argmax(replay[pos])) == int(np.argmax(row))

    def test_pass_count_law(self):
        # after g tokens with g = 0 mod tau: enc/think passes = g/tau, decode = g
        for tau, g in [(1, 5), (2, 8), (3, 9), (4, 8)]:
            model = make_model(seed=tau)
            plan = CyclePlan(tau_train=tau, tau_infer=tau, variant="embedding")
            report, _ = generate(model, ctx_tokens(5, seed=g), g, plan, SamplerConfig())
            assert report.trace.range_pass_count("encoding", "thinking") == g // tau
            assert report.trace.range_pass_count("decoding") == g

    def test_trained_tau_runs_at_other_cycle_lengths(self, memorizer_tau3):
        model, seq = memorizer_tau3
        for tau_infer in range(1, 7):
            plan = CyclePlan(tau_train=3, tau_infer=tau_infer, variant="embedding")
            report, state = generate(model, seq[:10], 12, plan, SamplerConfig())
            assert len(report.tokens) == 12
            state.check_invariants(model)

    def test_partial_cycle_leaves_trailing_pending(self):
        model = make_model()
        plan = CyclePlan(tau_train=3, tau_infer=3, variant="embedding")
        report, state = generate(model, ctx_tokens(5), 8, plan, SamplerConfig())
        # 8 tokens at tau 3: last light pass leaves its position pending
        assert state.cycle_phase == 1
        assert len(state.pending_refill) == 1
        state.check_invariants(model)

    def test_truncation_reports_partial_output(self):
        model = make_model(max_seq_len=10)
        plan = CyclePlan(tau_train=2, tau_infer=2, variant="embedding")
        report, _ = generate(model, ctx_tokens(8), 10, plan, SamplerConfig())
        assert report.truncated
        assert "max_seq_len" in report.message
        assert 1 <= len(report.tokens) < 10

    def test_stop_token_halts(self):
        model = make_model()
        plan = CyclePlan(tau_train=2, tau_infer=2, variant="embedding")
        full, _ = generate(model, ctx_tokens(4), 12, plan, SamplerConfig())
        stop = full.tokens[4]
        stopped, _ = generate(model, ctx_tokens(4), 12, plan, SamplerConfig(), stop_token=stop)
        assert stopped.tokens == full.tokens[:5]

    def test_max_new_validation(self):
        model = make_model()
        with pytest.raises(ConfigError):
            generate(model, ctx_tokens(4), 0, CyclePlan(tau_train=2), SamplerConfig())

    def test_invocation_counts_independent_of_sampler(self):
        model = make_model()
        plan = CyclePlan(tau_train=3, tau_infer=3, variant="embedding")
        greedy, _ = generate(model, ctx_tokens(5), 9, plan, SamplerConfig())
        hot, _ = generate(model, ctx_tokens(5), 9, plan,
                          SamplerConfig(mode="temperature", temperature=2.0, seed=7))
        a = [(e.pass_index, e.range_name) for e in greedy.trace.entries]
        b = [(e.pass_index, e.range_name) for e in hot.trace.entries]
        assert a == b


class TestCacheIntegrity:
    def test_forced_read_of_pending_slot_raises(self):
        model = make_model()
        plan = CyclePlan(tau_train=3, tau_infer=3, variant="embedding")
        state, token, _ = prefill(model, ctx_tokens(5), plan)
        light_pass(model, state, token)
        # a full-range pass over position 6 would read position 5 at
        # encoding layers, where it is PendingRefill
        x = Tensor(np.zeros((1, 32), dtype=np.float32))
        with pytest.raises(CacheIntegrityError):
            model.forward_range(x, 0, 6, np.array([6]), state.cache)

    def test_fuzzed_generation_never_trips_integrity(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            tau = int(rng.integers(1, 5))
            gen = int(rng.integers(1, 14))
            model = make_model(seed=int(rng.integers(100)))
            plan = CyclePlan(tau_train=tau, tau_infer=tau, variant="embedding")
            report, state = generate(model, ctx_tokens(int(rng.integers(1, 10))), gen,
                                     plan, SamplerConfig())
            state.check_invariants(model)


class TestInferenceKernel:
    @staticmethod
    def count_tensors(monkeypatch, fn, *args):
        made = []
        init = Tensor.__init__

        def counting_init(obj, *a, **k):
            made.append(1)
            init(obj, *a, **k)

        with monkeypatch.context() as m:
            m.setattr(Tensor, "__init__", counting_init)
            fn(*args)
        return len(made)

    @pytest.mark.parametrize("variant", ["embedding", "encoding"])
    def test_pass_tensor_count_independent_of_depth(self, monkeypatch, variant):
        # embedding, one result per range call, and the lm_head's two ops
        counts = []
        for n_enc, n_think, n_dec in [(1, 1, 1), (3, 2, 4)]:
            model = make_model(n_layers=n_enc + n_think + n_dec, n_encoding=n_enc,
                               n_thinking=n_think, n_decoding=n_dec)
            plan = CyclePlan(tau_train=2, tau_infer=2, variant=variant)
            state, token, _ = prefill(model, ctx_tokens(5), plan)
            light = self.count_tensors(monkeypatch, light_pass, model, state, token)
            boundary = self.count_tensors(monkeypatch, cycle_boundary_pass, model, state, token)
            counts.append((light, boundary))
        assert counts[0] == counts[1]
        assert counts[0][0] <= 5 and counts[0][1] <= 8

    @pytest.mark.parametrize("tau", [1, 4])
    def test_retained_bytes_are_the_hidden_rows(self, tau):
        # 480 tokens from a 16-token prompt at the decode benchmark's width
        model = make_model(n_layers=3, n_encoding=0, n_thinking=2, n_decoding=1,
                           d_model=128, n_heads=4, max_seq_len=512)
        plan = CyclePlan(tau_train=2, tau_infer=tau)
        context = ctx_tokens(16)
        generate(model, context, 480, plan, collect_logits=True)  # grows the RoPE table
        gc.collect()
        tracemalloc.start()
        try:
            report = generate(model, context, 480, plan, collect_logits=True)[0]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        rows = report.logit_rows
        assert rows.shape == (480, 257) and rows.dtype == np.float32
        assert np.asarray(rows).shape == (480, 257)
        # d_model floats per token plus the trace, well under the dense
        # float32 logits (480 x 257 x 4 bytes)
        assert rows.hidden.nbytes == 480 * 128 * 4
        assert retained <= 0.6 * 480 * 257 * 4

    def test_rows_match_the_sampled_logits(self, monkeypatch):
        import cycledecode.decoding as decoding

        seen = []
        real_sample = decoding.sample

        def recording_sample(logits, *args):
            seen.append(np.array(logits))
            return real_sample(logits, *args)

        monkeypatch.setattr(decoding, "sample", recording_sample)
        for variant in ("embedding", "encoding"):
            seen.clear()
            model = make_model()
            plan = CyclePlan(tau_train=2, tau_infer=3, variant=variant)
            report, _ = generate(model, ctx_tokens(6), 10, plan, collect_logits=True)
            # the same single-row head product as each pass: equal bits
            assert np.array_equal(np.asarray(report.logit_rows), np.stack(seen))
            for j, row in enumerate(report.logit_rows):
                assert np.array_equal(row, report.logit_rows[j])
                assert int(np.argmax(row)) == report.tokens[j]
            with pytest.raises(IndexError):
                report.logit_rows[0, 1]

    def test_rows_survive_a_weight_update(self):
        model = make_model()
        plan = CyclePlan(tau_train=2, tau_infer=2)
        report, _ = generate(model, ctx_tokens(4), 6, plan, collect_logits=True)
        before = np.asarray(report.logit_rows)
        gain, weight = model.frozen_head()
        assert model.frozen_head()[1] is weight and not weight.flags.writeable
        model.lm_head_w.data += 0.5  # in place, as AdamW updates
        model.final_gain.data *= 2.0
        assert np.array_equal(np.asarray(report.logit_rows), before)
        assert model.frozen_head()[1] is not weight
        again, _ = generate(model, ctx_tokens(4), 6, plan, collect_logits=True)
        with no_grad():
            want = model.lm_head(Tensor(again.logit_rows.hidden)).data
        assert np.abs(np.asarray(again.logit_rows) - want).max() < 1e-6

    def test_early_stop_copies_logit_rows_down(self):
        model = make_model()
        plan = CyclePlan(tau_train=2, tau_infer=2, variant="embedding")
        full, _ = generate(model, ctx_tokens(4), 12, plan, collect_logits=True)
        stopped, _ = generate(model, ctx_tokens(4), 12, plan, stop_token=full.tokens[4],
                              collect_logits=True)
        assert full.logit_rows.shape == (12, 257)
        assert stopped.logit_rows.shape == (5, 257) and stopped.logit_rows.hidden.base is None
        assert np.array_equal(stopped.logit_rows.hidden, full.logit_rows.hidden[:5])

    def test_truncated_generation_fills_its_logit_rows(self):
        model = make_model(max_seq_len=10)
        plan = CyclePlan(tau_train=2, tau_infer=2, variant="embedding")
        report, _ = generate(model, ctx_tokens(8), 10, plan, collect_logits=True)
        # positions 7..9 produce tokens: min(10, 10 - 8 + 1) rows
        assert report.truncated and len(report.tokens) == 3
        assert report.logit_rows.shape == (3, 257)
