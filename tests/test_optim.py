import math

import numpy as np
import pytest

from cycledecode.autograd import Tensor
from cycledecode.errors import ConfigError, ContractError, NumericError
from cycledecode.optim import AdamW


def one_param(value=1.0):
    p = Tensor(np.array([value], dtype=np.float32), requires_grad=True)
    return [("w", p)], p


class TestAdamWUpdate:
    def test_decay_only(self):
        params, p = one_param(1.0)
        opt = AdamW(params, lr=0.001, weight_decay=0.1, total_steps=10)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert np.allclose(p.data, [0.9999], atol=1e-8)
        assert opt.step_count == 1

    def test_first_step_magnitude_is_lr(self):
        params, p = one_param(0.0)
        opt = AdamW(params, lr=0.001, weight_decay=0.0, total_steps=10)
        p.grad = np.ones(1, dtype=np.float32)
        opt.step()
        # bias-corrected moments make the first update m_hat/sqrt(v_hat) = 1
        assert abs(-p.data[0] - 0.001) < 1e-6

    def test_global_norm_clipping(self):
        a = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
        opt = AdamW([("a", a), ("b", b)], lr=1.0, max_grad_norm=1.0, total_steps=10)
        a.grad = np.array([6.0, 0.0], dtype=np.float32)
        b.grad = np.array([8.0], dtype=np.float32)
        norm = opt.step()
        assert abs(norm - 10.0) < 1e-6
        # moments were fed grads scaled by 0.1
        assert np.allclose(opt.first_moment[0], 0.1 * np.array([0.6, 0.0]), atol=1e-6)
        assert np.allclose(opt.first_moment[1], [0.08], atol=1e-6)

    def test_no_clip_below_threshold(self):
        params, p = one_param(0.0)
        opt = AdamW(params, lr=0.1, max_grad_norm=1.0, total_steps=10)
        p.grad = np.array([0.5], dtype=np.float32)
        opt.step()
        assert np.allclose(opt.first_moment[0], 0.05, atol=1e-7)

    def test_missing_grad_is_contract_error(self):
        params, p = one_param()
        opt = AdamW(params, total_steps=10)
        with pytest.raises(ContractError):
            opt.step()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grad_raises_before_update(self, bad):
        w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        opt = AdamW([("w", w)], lr=0.1, total_steps=10)
        w.grad = np.array([bad, 0.0, 0.0], dtype=np.float32)
        with pytest.raises(NumericError):
            opt.step()
        assert np.array_equal(w.data, np.ones(3))
        assert not opt.first_moment[0].any() and not opt.second_moment[0].any()
        assert opt.step_count == 0

    @pytest.mark.parametrize("grad_scale", [0.1, 100.0])
    def test_matches_plain_update_expressions(self, grad_scale):
        # The in-place update keeps the plain expressions' operation order,
        # so three steps (unclipped, then clipped) agree bit for bit.
        rng = np.random.default_rng(4)
        data = rng.normal(size=(5, 3)).astype(np.float32)
        grads = [(grad_scale * rng.normal(size=(5, 3))).astype(np.float32) for _ in range(3)]
        p = Tensor(data.copy(), requires_grad=True)
        opt = AdamW([("w", p)], lr=0.01, weight_decay=0.1, warmup_ratio=0.5, total_steps=4)
        ref, m, v = data.copy(), np.zeros_like(data), np.zeros_like(data)
        for step, grad in enumerate(grads):
            p.grad = grad.copy()
            norm = opt.step()
            g = grad if norm <= 1.0 else grad * (1.0 / (norm + 1e-12))
            lr_t, t = opt.lr_at(step), step + 1
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.95 * v + (1.0 - 0.95) * np.square(g)
            update = (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.95**t)) + 1e-8)
            ref -= lr_t * update + lr_t * 0.1 * ref
            assert np.array_equal(p.data, ref)

    def test_moments_shape_match(self):
        a = Tensor(np.zeros((3, 4), dtype=np.float32), requires_grad=True)
        opt = AdamW([("a", a)], total_steps=10)
        assert opt.first_moment[0].shape == (3, 4)
        assert opt.second_moment[0].shape == (3, 4)


class TestSchedule:
    def test_warmup_then_cosine(self):
        params, _ = one_param()
        opt = AdamW(params, lr=1.0, warmup_ratio=0.1, schedule="cosine", total_steps=100)
        lrs = [opt.lr_at(t) for t in range(100)]
        assert lrs[0] == pytest.approx(0.1)
        assert lrs[9] == pytest.approx(1.0)
        assert max(lrs) <= 1.0 + 1e-12
        assert min(lrs) >= 0.0
        # monotone decay after warmup
        assert all(x >= y - 1e-12 for x, y in zip(lrs[9:], lrs[10:]))
        assert lrs[-1] < 0.01

    def test_constant_schedule(self):
        params, _ = one_param()
        opt = AdamW(params, lr=0.5, warmup_ratio=0.0, schedule="constant", total_steps=50)
        assert all(opt.lr_at(t) == 0.5 for t in range(50))

    def test_warmup_is_linear(self):
        params, _ = one_param()
        opt = AdamW(params, lr=1.0, warmup_ratio=0.5, schedule="constant", total_steps=10)
        assert [opt.lr_at(t) for t in range(5)] == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])

    def test_cosine_midpoint(self):
        params, _ = one_param()
        opt = AdamW(params, lr=2.0, warmup_ratio=0.0, schedule="cosine", total_steps=100)
        assert opt.lr_at(50) == pytest.approx(2.0 * 0.5 * (1 + math.cos(math.pi * 0.5)))


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": 0.0},
            {"lr": -1.0},
            {"beta1": 1.0},
            {"beta2": 0.0},
            {"weight_decay": -0.1},
            {"max_grad_norm": 0.0},
            {"warmup_ratio": 1.5},
            {"schedule": "linear"},
            {"total_steps": 0},
        ],
    )
    def test_rejected(self, kwargs):
        params, _ = one_param()
        with pytest.raises(ConfigError):
            AdamW(params, **kwargs)

    def test_load_state_shape_check(self):
        params, _ = one_param()
        opt = AdamW(params, total_steps=10)
        with pytest.raises(ConfigError):
            opt.load_state([np.zeros(2)], [np.zeros(2)], 1)
