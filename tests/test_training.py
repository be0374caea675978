import math

import numpy as np
import pytest

import cycledecode as cd
from cycledecode.autograd import Tensor, no_grad
from cycledecode.errors import ConfigError
from cycledecode.masking import CyclePlan, build_cycle_mask
from cycledecode.model import Model
from cycledecode.training import (
    TrainConfig,
    TrainRecord,
    batch_indices,
    evaluate,
    loss_by_offset,
    run_training,
    sequence_loss,
    training_step,
)

from conftest import tiny_config


@pytest.fixture
def model():
    return Model(tiny_config())


@pytest.fixture
def plan():
    return CyclePlan(tau_train=2, variant="embedding")


def random_batch(shape, seed=0):
    return np.random.default_rng(seed).integers(0, 257, size=shape)


class TestSequenceLoss:
    def test_untrained_near_uniform(self, model, plan):
        batch = random_batch((2, 16))
        with no_grad():
            loss, _ = sequence_loss(model, batch, plan)
        assert abs(loss.item() - math.log(256)) < 0.2

    def test_matches_per_position_oracle(self, model, plan):
        # mean of CE(z_i, x_{i+1}) for i = 0..n-2; the last position emits
        # no prediction of its own
        batch = random_batch((1, 8), seed=1)
        with no_grad():
            loss, logits = sequence_loss(model, batch, plan)
        rows = logits.data[0].astype(np.float64)
        want = 0.0
        for i in range(7):
            row = rows[i]
            m = row.max()
            want += (m + math.log(np.exp(row - m).sum())) - row[batch[0, i + 1]]
        want /= 7
        assert abs(loss.item() - want) < 1e-6

    def test_too_short_rejected(self, model, plan):
        with pytest.raises(ConfigError):
            sequence_loss(model, np.array([[5]]), plan)


class TestTrainingStep:
    def test_step_matches_eval_exactly(self, model, plan):
        batch = random_batch((2, 12), seed=2)
        with no_grad():
            want, _ = sequence_loss(model, batch, plan)
        opt = cd.AdamW(model.parameters(), total_steps=5)
        record = training_step(model, batch, plan, opt)
        assert record.train_loss == want.item()

    def test_memorization_run(self, memorizer_tau2):
        model, seq = memorizer_tau2
        plan = CyclePlan(tau_train=2, variant="embedding")
        with no_grad():
            loss, _ = sequence_loss(model, seq[None, :], plan)
        assert loss.item() < 0.1

    def test_tokens_seen_accumulates(self, model, plan):
        opt = cd.AdamW(model.parameters(), total_steps=5)
        r1 = training_step(model, random_batch((2, 8)), plan, opt, tokens_seen=0)
        r2 = training_step(model, random_batch((2, 8)), plan, opt, tokens_seen=r1.tokens_seen)
        assert r1.tokens_seen == 16
        assert r2.tokens_seen == 32
        assert r2.step == 2

    def test_record_round_trips_as_json(self):
        rec = TrainRecord(step=5, tokens_seen=100, train_loss=1.25,
                          offset_losses=[1.0, 1.5], eval_loss=None, lr=1e-4)
        back = TrainRecord.from_json_line(rec.to_json_line())
        assert back == rec


class TestLossByOffset:
    def test_tau1_single_entry_equals_total(self, model):
        plan = CyclePlan(tau_train=1, variant="embedding")
        batch = random_batch((2, 10), seed=3)
        with no_grad():
            loss, logits = sequence_loss(model, batch, plan)
        offs = loss_by_offset(logits.data, batch, tau=1)
        assert offs.shape == (1,)
        assert abs(offs[0] - loss.item()) < 1e-6

    @pytest.mark.parametrize("tau", [2, 3, 4])
    def test_count_weighted_mean_matches_total(self, model, tau):
        plan = CyclePlan(tau_train=tau, variant="embedding")
        batch = random_batch((2, 11), seed=tau)
        with no_grad():
            loss, logits = sequence_loss(model, batch, plan)
        offs = loss_by_offset(logits.data, batch, tau=tau)
        n = batch.shape[1]
        counts = np.array(
            [sum(1 for i in range(n - 1) if i % tau == k) for k in range(tau)], dtype=float
        )
        valid = counts > 0
        total = float((offs[valid] * counts[valid]).sum() / counts.sum())
        assert abs(total - loss.item()) < 1e-6

    def test_offsets_on_trained_model_are_finite(self, memorizer_tau3):
        model, seq = memorizer_tau3
        plan = CyclePlan(tau_train=3, variant="embedding")
        with no_grad():
            _, logits = sequence_loss(model, seq[None, :], plan)
        offs = loss_by_offset(logits.data, seq[None, :], tau=3)
        assert offs.shape == (3,)
        assert np.all(np.isfinite(offs))


class TestGradientFlow:
    def test_thinking_grads_match_detach_oracle(self):
        # Zero the cycle-start loss terms; thinking layers then receive
        # gradient only through attention keys/values of cycle-start
        # positions. The oracle detaches the thinking states at masked-out
        # positions, which must not change any thinking-layer gradient.
        cfg = tiny_config(n_layers=3, n_encoding=1, n_thinking=1, n_decoding=1)
        tokens = random_batch((9,), seed=7)
        tau, anchor, n = 3, 0, 9
        mask = build_cycle_mask(n, tau, anchor)
        ignore = np.ones(n, dtype=bool)
        ignore[: n - 1] = mask[:n - 1] == 1  # keep only decode-only losses
        targets = np.zeros(n, dtype=np.int64)
        targets[:-1] = tokens[1:]

        def run(detach_oracle: bool):
            model = Model(cfg)
            part = model.partition
            positions = np.arange(n)
            h_emb = model.embed_tokens(tokens)
            h_enc = model.forward_range(h_emb, 0, 1, positions)
            h_think = model.forward_range(h_enc, 1, 2, positions)
            mcol = Tensor(mask[:, None].astype(np.float32))
            if detach_oracle:
                inv = Tensor((1.0 - mask[:, None]).astype(np.float32))
                h_think = cd.Tensor.__mul__(h_think, mcol) + h_think.detach() * inv
            h_masked = h_emb + h_think * mcol
            out = model.forward_range(h_masked, 2, 3, positions)
            loss = cd.autograd.cross_entropy(model.lm_head(out), targets, ignore)
            loss.backward()
            return {
                name: p.grad.copy()
                for name, p in model.parameters()
                if name.startswith("layers.1.")
            }

        plain = run(False)
        oracle = run(True)
        for name in plain:
            assert np.allclose(plain[name], oracle[name], atol=1e-7), name

    def test_masked_out_positions_pass_no_think_gradient(self):
        # With a single position's decode-only loss and no cycle-start
        # position after it, thinking params get gradient only via the
        # cycle starts before it.
        cfg = tiny_config(n_layers=2, n_encoding=0, n_thinking=1, n_decoding=1)
        model = Model(cfg)
        tokens = random_batch((4,), seed=8)
        plan = CyclePlan(tau_train=4, variant="embedding")
        loss, _ = sequence_loss(model, tokens[None, :], plan)
        loss.backward()
        think_grads = [
            np.abs(p.grad).max() for name, p in model.parameters() if name.startswith("layers.0.")
        ]
        assert max(think_grads) > 0.0  # position 0 is a cycle start, grads flow


class TestEvaluate:
    def test_deterministic(self, model, plan):
        windows = random_batch((6, 12), seed=4)
        a = evaluate(model, windows, plan)
        b = evaluate(model, windows, plan)
        assert a == b

    def test_tau_override(self, model, plan):
        windows = random_batch((4, 12), seed=5)
        a = evaluate(model, windows, plan, tau=1)
        b = evaluate(model, windows, CyclePlan(tau_train=1, variant="embedding"))
        assert abs(a - b) < 1e-7

    def test_train_split_beats_heldout_after_overfit(self, memorizer_tau2):
        model, seq = memorizer_tau2
        plan = CyclePlan(tau_train=2, variant="embedding")
        train_loss = evaluate(model, seq[None, :], plan)
        heldout = np.random.default_rng(11).integers(0, 257, size=(1, 64))
        heldout_loss = evaluate(model, heldout, plan)
        assert train_loss < heldout_loss

    def test_empty_split_rejected(self, model, plan):
        with pytest.raises(ConfigError):
            evaluate(model, np.zeros((0, 8), dtype=np.int64), plan)

    @pytest.mark.parametrize("max_windows", [0, -1])
    def test_bad_max_windows_rejected(self, model, plan, max_windows):
        # 0 used to divide by zero, and -1 to drop the last window silently
        with pytest.raises(ConfigError):
            evaluate(model, random_batch((4, 12), seed=6), plan, max_windows=max_windows)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("eval_windows", 0), ("eval_windows", -3), ("checkpoint_interval", -1),
    ])
    def test_bad_cadence_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value}).validate()


class TestRunTraining:
    def test_batch_indices_stateless(self):
        a = batch_indices(3, 17, 100, 4)
        b = batch_indices(3, 17, 100, 4)
        assert np.array_equal(a, b)
        c = batch_indices(3, 18, 100, 4)
        assert not np.array_equal(a, c)

    def test_resume_matches_unbroken(self):
        cfg = tiny_config(n_layers=2, n_encoding=0, n_thinking=1, n_decoding=1, seed=3)
        windows = random_batch((8, 12), seed=6)
        tc = TrainConfig(batch_size=2, seq_len=12, steps=8, lr=1e-3, weight_decay=0.0,
                         warmup_ratio=0.0, schedule="constant", seed=1, eval_fraction=0.0,
                         log_interval=1, eval_interval=100)
        plan = CyclePlan(tau_train=2, variant="embedding")

        unbroken_model = Model(cfg)
        unbroken = run_training(unbroken_model, windows, np.zeros((0, 12), dtype=np.int64), tc, plan)

        model = Model(cfg)
        opt = cd.AdamW(model.parameters(), lr=tc.lr, beta1=tc.beta1, beta2=tc.beta2,
                       weight_decay=tc.weight_decay, max_grad_norm=tc.grad_clip,
                       warmup_ratio=tc.warmup_ratio, schedule=tc.schedule, total_steps=tc.steps)
        first_cfg = TrainConfig(**{**tc.__dict__, "steps": 4})
        first = run_training(model, windows, np.zeros((0, 12), dtype=np.int64), first_cfg, plan, opt=opt)
        resumed = run_training(model, windows, np.zeros((0, 12), dtype=np.int64), tc, plan,
                               opt=opt, start_step=4, start_tokens=first[-1].tokens_seen)
        assert first + resumed == unbroken

    def test_eval_interval_populates_eval_loss(self):
        cfg = tiny_config(n_layers=2, n_encoding=0, n_thinking=1, n_decoding=1)
        windows = random_batch((8, 10), seed=9)
        tc = TrainConfig(batch_size=2, seq_len=10, steps=4, eval_fraction=0.1,
                         log_interval=2, eval_interval=2, eval_windows=2)
        plan = CyclePlan(tau_train=2, variant="embedding")
        records = run_training(Model(cfg), windows[:6], windows[6:], tc, plan)
        assert [r.step for r in records] == [2, 4]
        assert all(r.eval_loss is not None for r in records)
