import math

import numpy as np
import pytest

from cycledecode import autograd as ag
from cycledecode.autograd import Tensor
from cycledecode.errors import ContractError, DimensionError, NumericError


def fd_check(fn, tensors, h=1e-5, rel_tol=1e-4, probes=5, seed=0):
    """Central finite differences against the recorded gradients (float64)."""
    loss = fn()
    loss.backward()
    rng = np.random.default_rng(seed)
    for t in tensors:
        flat = t.data.reshape(-1)
        gflat = t.grad.reshape(-1)
        idx = rng.choice(flat.size, size=min(probes, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            lp = fn().item()
            flat[i] = orig - h
            lm = fn().item()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            advalue = gflat[i]
            rel = abs(fd - advalue) / max(abs(fd), abs(advalue), 1e-6)
            assert rel < rel_tol, f"fd={fd} ad={advalue} rel={rel}"


def randt(rng, shape, scale=1.0):
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True, dtype=np.float64)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ag.matmul(a, b).data, b.data)

    def test_selector_row(self):
        a = Tensor([[1.0, 0.0]])
        b = Tensor([[0.0], [5.0]])
        assert np.array_equal(ag.matmul(a, b).data, [[0.0]])

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4)).astype(np.float32)
        b = rng.normal(size=(4, 2)).astype(np.float32)
        want = np.zeros((3, 2), dtype=np.float64)
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += float(a[i, k]) * float(b[k, j])
        got = ag.matmul(Tensor(a), Tensor(b)).data
        assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_triple_loop_oracle_32x32(self, seed):
        # Bounded entries keep float32 accumulation error under the bound.
        rng = np.random.default_rng(seed)
        m, k, n = rng.integers(1, 33, size=3)
        a = rng.uniform(-0.5, 0.5, size=(m, k)).astype(np.float32)
        b = rng.uniform(-0.5, 0.5, size=(k, n)).astype(np.float32)
        want = np.zeros((m, n), dtype=np.float64)
        for i in range(m):
            for j in range(n):
                for t in range(k):
                    want[i, j] += float(a[i, t]) * float(b[t, j])
        got = ag.matmul(Tensor(a), Tensor(b)).data
        assert np.abs(got - want).max() < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(DimensionError):
            ag.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_gradients(self):
        rng = np.random.default_rng(1)
        a = randt(rng, (3, 4))
        b = randt(rng, (4, 2))
        fd_check(lambda: ag.tsum(ag.mul(ag.matmul(a, b), ag.matmul(a, b))), [a, b])

    def test_batched_gradients(self):
        rng = np.random.default_rng(2)
        a = randt(rng, (2, 3, 4))
        w = randt(rng, (4, 5))
        b = randt(rng, (2, 5, 3))
        fd_check(lambda: ag.tsum(ag.mul(ag.matmul(ag.matmul(a, w), b), 0.5)), [a, w, b])


class TestSoftmax:
    def test_symmetry(self):
        out = ag.softmax(Tensor([0.0, 0.0])).data
        assert np.allclose(out, [0.5, 0.5])

    def test_shift_invariance_no_overflow(self):
        out = ag.softmax(Tensor([1000.0, 1000.0])).data
        assert np.allclose(out, [0.5, 0.5])
        assert np.all(np.isfinite(out))

    def test_closed_form(self):
        out = ag.softmax(Tensor([0.0, math.log(3.0)], dtype=np.float64)).data
        assert np.allclose(out, [0.25, 0.75], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_sum_to_one_and_shift(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=3.0, size=(4, 9)).astype(np.float32)
        y = ag.softmax(Tensor(x), axis=-1).data
        assert np.abs(y.sum(axis=-1) - 1.0).max() < 1e-6
        y_shift = ag.softmax(Tensor(x + 17.0), axis=-1).data
        assert np.abs(y - y_shift).max() < 1e-6

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            ag.softmax(Tensor([np.inf, 0.0]))
        with pytest.raises(NumericError):
            ag.softmax(Tensor([np.nan, 0.0]))
        with pytest.raises(NumericError):
            ag.softmax(Tensor([[0.0, 1.0], [-np.inf, 0.0]]))

    def test_gradients(self):
        rng = np.random.default_rng(3)
        x = randt(rng, (3, 6))
        w = randt(rng, (3, 6))
        fd_check(lambda: ag.tsum(ag.mul(ag.softmax(x, axis=-1), w)), [x, w])


class TestRmsNorm:
    def test_unit_rows(self):
        out = ag.rms_norm(Tensor([1.0, 1.0, 1.0, 1.0]), Tensor(np.ones(4)), eps=0.0)
        assert np.allclose(out.data, [1, 1, 1, 1])

    def test_scale_removal(self):
        out = ag.rms_norm(Tensor([2.0, 2.0]), Tensor(np.ones(2)), eps=0.0)
        assert np.allclose(out.data, [1, 1])

    def test_closed_form(self):
        out = ag.rms_norm(Tensor([3.0, 4.0], dtype=np.float64), Tensor(np.ones(2)), eps=0.0)
        want = np.array([3.0, 4.0]) / math.sqrt(12.5)
        assert np.allclose(out.data, want, atol=1e-12)

    def test_gain_shape_checked(self):
        with pytest.raises(DimensionError):
            ag.rms_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)))

    def test_gradients(self):
        rng = np.random.default_rng(4)
        x = randt(rng, (3, 5))
        g = randt(rng, (5,))
        w = randt(rng, (3, 5))
        fd_check(lambda: ag.tsum(ag.mul(ag.rms_norm(x, g, 1e-5), w)), [x, g, w])


class TestCrossEntropy:
    def test_uniform(self):
        logits = Tensor(np.zeros((1, 256)))
        loss = ag.cross_entropy(logits, [7])
        assert abs(loss.item() - math.log(256)) < 1e-5

    def test_saturation(self):
        # loss -> 0 as the correct-logit margin grows
        logits = np.zeros((1, 2))
        logits[0, 1] = 20.0
        loss = ag.cross_entropy(Tensor(logits, dtype=np.float64), [1])
        assert loss.item() < 1e-8
        wide = np.zeros((1, 257))
        wide[0, 3] = 30.0
        assert ag.cross_entropy(Tensor(wide, dtype=np.float64), [3]).item() < 1e-8

    def test_naive_oracle(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(3, 11)).astype(np.float32)
        targets = rng.integers(0, 11, size=3)
        want = 0.0
        for i in range(3):
            row = logits[i].astype(np.float64)
            want += math.log(np.exp(row).sum()) - row[targets[i]]
        want /= 3
        got = ag.cross_entropy(Tensor(logits), targets).item()
        assert abs(got - want) < 1e-6

    def test_all_ignored_is_zero_with_zero_grad(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(4, 7)), requires_grad=True)
        loss = ag.cross_entropy(logits, [0, 1, 2, 3], ignore_mask=[True] * 4)
        assert loss.item() == 0.0
        loss.backward()
        assert np.all(logits.grad == 0.0)

    def test_target_out_of_vocab(self):
        with pytest.raises(IndexError):
            ag.cross_entropy(Tensor(np.zeros((2, 5))), [0, 5])

    def test_gradients_with_mask(self):
        rng = np.random.default_rng(6)
        logits = randt(rng, (5, 8))
        targets = rng.integers(0, 8, size=5)
        mask = [False, True, False, False, True]
        fd_check(lambda: ag.cross_entropy(logits, targets, mask), [logits])


class TestBackward:
    def test_quadratic(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        loss = ag.tsum(ag.mul(w, w))
        loss.backward()
        assert np.allclose(w.grad, [2.0, 4.0])

    def test_softmax_cross_entropy_fd(self):
        rng = np.random.default_rng(7)
        logits = randt(rng, (4, 9))
        targets = rng.integers(0, 9, size=4)
        fd_check(lambda: ag.cross_entropy(logits, targets), [logits])

    def test_detached_receives_no_grad(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        cut = w.detach()
        loss = ag.tsum(ag.mul(cut, cut))
        loss.backward()
        assert w.grad is None
        assert cut.grad is None

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            ag.mul(w, w).backward()

    def test_grad_accumulates_across_uses(self):
        w = Tensor([3.0], requires_grad=True)
        loss = ag.add(ag.mul(w, 2.0), ag.mul(w, 5.0))
        ag.tsum(loss).backward()
        assert np.allclose(w.grad, [7.0])

    @pytest.mark.parametrize("a_first", [True, False])
    def test_shared_gradient_not_corrupted(self, a_first):
        # add() hands one gradient buffer to both operands; a later
        # contribution to one of them must not leak into the other.
        rng = np.random.default_rng(16)
        a, b = randt(rng, (3,)), randt(rng, (3,))
        w, w2 = rng.normal(size=3), rng.normal(size=3)
        shared = ag.tsum(ag.mul(ag.add(a, b), w))
        extra = ag.tsum(ag.mul(a, w2))
        ag.add(shared, extra).backward() if a_first else ag.add(extra, shared).backward()
        assert np.array_equal(b.grad, w)
        assert np.allclose(a.grad, w + w2, atol=1e-15)

    def test_no_grad_context(self):
        w = Tensor([1.0], requires_grad=True)
        with ag.no_grad():
            out = ag.mul(w, w)
        assert not out.requires_grad
        assert out._parents == ()


class TestElementwiseOps:
    @pytest.mark.parametrize("seed", range(3))
    def test_add_mul_broadcast_gradients(self, seed):
        rng = np.random.default_rng(seed)
        a = randt(rng, (3, 4))
        b = randt(rng, (4,))
        c = randt(rng, (3, 1))
        fd_check(lambda: ag.tsum(ag.mul(ag.add(a, b), c)), [a, b, c])

    def test_silu_gradients(self):
        rng = np.random.default_rng(8)
        x = randt(rng, (2, 6))
        fd_check(lambda: ag.tsum(ag.mul(ag.silu(x), 0.7)), [x])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_silu_and_rms_norm_match_plain_expressions(self, dtype):
        # The in-place evaluations keep the plain expressions' operation
        # order, so values and gradients agree bit for bit.
        rng = np.random.default_rng(17)
        xd = rng.normal(size=(3, 5, 8)).astype(dtype)
        gd = rng.normal(size=(3, 5, 8)).astype(dtype)
        gain_d = rng.normal(size=8).astype(dtype)

        x = Tensor(xd.copy(), requires_grad=True)
        ag.tsum(ag.mul(ag.silu(x), gd)).backward()
        sig = 1.0 / (1.0 + np.exp(-xd))
        assert np.array_equal(ag.silu(Tensor(xd)).data, xd * sig)
        assert np.array_equal(x.grad, gd * sig * (1.0 + xd * (1.0 - sig)))

        x = Tensor(xd.copy(), requires_grad=True)
        gain = Tensor(gain_d.copy(), requires_grad=True)
        ag.tsum(ag.mul(ag.rms_norm(x, gain), gd)).backward()
        r = 1.0 / np.sqrt(np.mean(np.square(xd), axis=-1, keepdims=True) + 1e-5)
        gg = gd * gain_d
        s = (gg * xd).sum(axis=-1, keepdims=True)
        assert np.array_equal(x.grad, r * gg - xd * (s * r**3 / 8))
        assert np.array_equal(gain.grad, (gd * (xd * r)).reshape(-1, 8).sum(axis=0))

    def test_transpose_reshape_gradients(self):
        rng = np.random.default_rng(10)
        a = randt(rng, (2, 3, 4))
        w = randt(rng, (4, 6))
        fd_check(
            lambda: ag.tsum(
                ag.matmul(ag.mul(ag.reshape(ag.transpose(a, (1, 0, 2)), (6, 4)), 1.3), w)
            ),
            [a, w],
        )


class TestRope:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(1, 8)).astype(np.float64)
        out = ag.rope(Tensor(x), np.array([0]), base=10000.0).data
        assert np.allclose(out, x, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(5, 8)).astype(np.float64)
        out = ag.rope(Tensor(x), np.arange(5), base=10000.0).data
        assert np.allclose(np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1))

    def test_relative_shift_property(self):
        # dot(q_p, k_q) depends only on p - q
        rng = np.random.default_rng(14)
        q = rng.normal(size=(1, 8))
        k = rng.normal(size=(1, 8))
        base = 10000.0

        def dot_at(p, s):
            qp = ag.rope(Tensor(np.asarray(q, dtype=np.float64)), np.array([p]), base).data
            ks = ag.rope(Tensor(np.asarray(k, dtype=np.float64)), np.array([s]), base).data
            return float((qp @ ks.T)[0, 0])

        assert abs(dot_at(7, 3) - dot_at(9, 5)) < 1e-9

    def test_odd_head_dim_rejected(self):
        with pytest.raises(DimensionError):
            ag.rope(Tensor(np.ones((2, 3))), np.arange(2), 10000.0)

    def test_gradients(self):
        rng = np.random.default_rng(15)
        x = randt(rng, (2, 3, 8))
        w = randt(rng, (2, 3, 8))
        fd_check(lambda: ag.tsum(ag.mul(ag.rope(x, np.array([2, 5, 11]), 10000.0), w)), [x, w])


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cached_tables_match_direct_computation(self, dtype):
        # Positions past the first table size make it grow.
        rng = np.random.default_rng(18)
        hd, base = 8, 10000.0
        for positions in (np.arange(5), np.arange(250, 270), np.array([3, 700, 701])):
            x = rng.normal(size=(2, positions.size, hd)).astype(dtype)
            inv = base ** (-np.arange(hd // 2, dtype=np.float64) * 2.0 / hd)
            ang = positions[:, None].astype(np.float64) * inv[None, :]
            cos = np.concatenate([np.cos(ang), np.cos(ang)], axis=-1).astype(dtype)
            sin = np.concatenate([np.sin(ang), np.sin(ang)], axis=-1).astype(dtype)
            rotated = np.concatenate([-x[..., hd // 2:], x[..., :hd // 2]], axis=-1)
            out = ag.rope(Tensor(x), positions, base).data
            assert out.dtype == dtype
            assert np.array_equal(out, x * cos + rotated * sin)

    def test_negative_position_rejected(self):
        with pytest.raises(DimensionError):
            ag.rope(Tensor(np.ones((2, 4))), np.array([-1, 0]), 10000.0)


def composed_attention(q, k, v, mask):
    """The matmul/mul/add/softmax graph that ``causal_attention`` fuses."""
    kt = ag.transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    scores = ag.add(ag.mul(ag.matmul(q, kt), 1.0 / np.sqrt(q.shape[-1])), mask)
    return ag.matmul(ag.softmax(scores, axis=-1), v)


def causal_mask(n, past, dtype=np.float64):
    mask = np.zeros((n, past + n), dtype=dtype)
    mask[:, past:] = np.triu(np.full((n, n), ag.MASK_VALUE, dtype=dtype), k=1)
    return mask


class TestCausalAttention:
    @pytest.mark.parametrize("n,past", [(6, 0), (1, 5), (3, 4)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_composed_graph(self, n, past, dtype):
        rng = np.random.default_rng(19 + n + past)
        shapes = {"q": (2, 3, n, 4), "k": (2, 3, past + n, 4), "v": (2, 3, past + n, 4)}
        data = {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
        w = rng.normal(size=(2, 3, n, 4)).astype(dtype)
        mask = causal_mask(n, past, dtype)
        grads = []
        for op in (ag.causal_attention, composed_attention):
            ts = {name: Tensor(d.copy(), requires_grad=True) for name, d in data.items()}
            out = op(ts["q"], ts["k"], ts["v"], mask)
            ag.tsum(ag.mul(out, w)).backward()
            grads.append([out.data] + [ts[name].grad for name in ("q", "k", "v")])
        for fused, composed in zip(*grads):
            assert np.array_equal(fused, composed)

    def test_gradients(self):
        rng = np.random.default_rng(20)
        q, k, v = randt(rng, (2, 5, 4)), randt(rng, (2, 7, 4)), randt(rng, (2, 7, 4))
        w = randt(rng, (2, 5, 4))
        mask = causal_mask(5, 2)
        fd_check(lambda: ag.tsum(ag.mul(ag.causal_attention(q, k, v, mask), w)), [q, k, v, w])

    def test_shapes_checked(self):
        q = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(DimensionError):
            ag.causal_attention(q, Tensor(np.zeros((2, 3, 6))), Tensor(np.zeros((2, 3, 6))), causal_mask(3, 0))
        with pytest.raises(DimensionError):
            ag.causal_attention(q, q, q, causal_mask(3, 1))

    def test_non_finite_rejected(self):
        q = np.zeros((1, 2, 4))
        q[0, 1, 2] = np.nan
        with pytest.raises(NumericError):
            ag.causal_attention(Tensor(q), Tensor(np.ones((1, 2, 4))), Tensor(np.ones((1, 2, 4))), causal_mask(2, 0))


class TestEmbedding:
    def test_lookup_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = ag.embedding(table, np.array([2, 0, 2]))
        assert np.array_equal(out.data, table.data[[2, 0, 2]])

    def test_out_of_range(self):
        table = Tensor(np.zeros((4, 3)))
        with pytest.raises(IndexError):
            ag.embedding(table, np.array([4]))
        with pytest.raises(IndexError):
            ag.embedding(table, np.array([-1]))

    def test_scatter_add_gradients(self):
        rng = np.random.default_rng(16)
        table = randt(rng, (5, 3))
        ids = np.array([1, 1, 4])
        w = randt(rng, (3, 3))
        fd_check(lambda: ag.tsum(ag.mul(ag.embedding(table, ids), w)), [table, w])
