import struct
import zlib

import numpy as np
import pytest

import cycledecode as cd
from cycledecode.autograd import Tensor
import cycledecode.checkpoint as checkpoint
from cycledecode.checkpoint import load_checkpoint, save_checkpoint
from cycledecode.errors import CacheIntegrityError, ChecksumError, ConfigError, DataError
from cycledecode.model import KvCache, Model
from cycledecode.runconfig import RunConfig, dump_run_config
from cycledecode.decoding import SamplerConfig, generate
from cycledecode.masking import CyclePlan, masked_forward
from cycledecode.training import TrainConfig

from conftest import tiny_config


def full_forward(model, tokens, cache=None, positions=None):
    tokens = np.asarray(tokens)
    if positions is None:
        positions = np.arange(tokens.shape[-1])
    with cd.no_grad():
        h = model.embed_tokens(tokens)
        h = model.forward_range(h, 0, model.config.n_layers, positions, cache)
        return model.lm_head(h).data


class TestInit:
    def test_partition_ranges(self):
        cfg = tiny_config(n_layers=8, n_encoding=3, n_thinking=3, n_decoding=2)
        model = Model(cfg)
        assert model.partition.encoding == range(0, 3)
        assert model.partition.thinking == range(3, 6)
        assert model.partition.decoding == range(6, 8)

    def test_no_decoding_layers_rejected(self):
        with pytest.raises(ConfigError):
            Model(tiny_config(n_layers=6, n_encoding=3, n_thinking=3, n_decoding=0))

    def test_partition_sum_rejected(self):
        with pytest.raises(ConfigError):
            Model(tiny_config(n_layers=6, n_encoding=3, n_thinking=3, n_decoding=2))

    def test_same_seed_bit_identical(self):
        a = Model(tiny_config(seed=9))
        b = Model(tiny_config(seed=9))
        for (na, ta), (nb, tb) in zip(a.parameters(), b.parameters()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        a = Model(tiny_config(seed=9))
        b = Model(tiny_config(seed=10))
        assert not np.array_equal(a.embedding.data, b.embedding.data)

    def test_untied_embedding_and_head(self):
        model = Model(tiny_config())
        assert model.embedding.data.shape == (257, 32)
        assert model.lm_head_w.data.shape == (32, 257)
        assert not np.shares_memory(model.embedding.data, model.lm_head_w.data)

    @pytest.mark.parametrize("heads,d", [(3, 32), (2, 30)])
    def test_head_geometry_rejected(self, heads, d):
        with pytest.raises(ConfigError):
            Model(tiny_config(n_heads=heads, d_model=d))


class TestEmbed:
    def test_row_zero(self, tiny_model):
        out = tiny_model.embed_tokens(np.array([0]))
        assert np.array_equal(out.data[0], tiny_model.embedding.data[0])

    def test_repeated_token_identical_rows(self, tiny_model):
        out = tiny_model.embed_tokens(np.array([42, 42, 42]))
        assert np.array_equal(out.data[0], out.data[1])
        assert np.array_equal(out.data[1], out.data[2])

    def test_batch_matches_singles(self, tiny_model):
        ids = np.array([5, 17, 201])
        batch = tiny_model.embed_tokens(ids).data
        singles = [tiny_model.embed_tokens(np.array([i])).data[0] for i in ids]
        assert np.array_equal(batch, np.stack(singles))

    def test_out_of_range_rejected(self, tiny_model):
        with pytest.raises(IndexError):
            tiny_model.embed_tokens(np.array([257]))


class TestForwardRange:
    def test_range_composition_exact(self, tiny_model):
        tokens = np.random.default_rng(0).integers(0, 257, size=5)
        pos = np.arange(5)
        with cd.no_grad():
            h = tiny_model.embed_tokens(tokens)
            whole = tiny_model.forward_range(h, 0, 6, pos).data
            part = tiny_model.forward_range(h, 0, 2, pos)
            part = tiny_model.forward_range(part, 2, 4, pos)
            part = tiny_model.forward_range(part, 4, 6, pos).data
        assert np.array_equal(whole, part)

    def test_empty_range_is_identity(self, tiny_model):
        x = Tensor(np.random.default_rng(1).normal(size=(3, 32)).astype(np.float32))
        out = tiny_model.forward_range(x, 2, 2, np.arange(3))
        assert np.array_equal(out.data, x.data)

    def test_incremental_matches_full_recompute(self, tiny_model):
        # Cached passes (the inference kernel) against the no-cache Tensor
        # path, to 1e-5. First single- and multi-row passes through every
        # layer: the rows of pass [a, b) equal rows a..b-1 of a full pass.
        tokens = np.random.default_rng(2).integers(0, 257, size=7)
        full = full_forward(tiny_model, tokens)
        for chunks in ([1] * 7, [3, 1, 2, 1], [1, 4, 2], [7]):
            cache = tiny_model.new_cache()
            rows = []
            with cd.no_grad():
                start = 0
                for size in chunks:
                    pos = np.arange(start, start + size)
                    h = tiny_model.embed_tokens(tokens[pos])
                    h = tiny_model.forward_range(h, 0, 6, pos, cache)
                    rows.append(tiny_model.lm_head(h).data)
                    start += size
            assert np.abs(np.concatenate(rows) - full).max() < 1e-5, chunks

        # Then whole generations: a multi-row prefill, light passes and
        # batched boundary refills, replayed through the no-cache masked
        # forward, over partitions with empty encoding or thinking ranges,
        # both variants and tau 1-4.
        rng = np.random.default_rng(3)
        for n_enc, n_think, n_dec in [(0, 2, 2), (2, 0, 1), (1, 2, 1), (0, 0, 1), (2, 3, 2)]:
            for variant in ("embedding", "encoding") if n_enc else ("embedding",):
                for tau in (1, 2, 3, 4):
                    case = (n_enc, n_think, n_dec, variant, tau)
                    model = Model(tiny_config(
                        n_layers=n_enc + n_think + n_dec, n_encoding=n_enc,
                        n_thinking=n_think, n_decoding=n_dec, seed=int(rng.integers(1000)),
                    ))
                    plan = CyclePlan(tau_train=2, tau_infer=tau, variant=variant)
                    context = rng.integers(0, 257, size=int(rng.integers(2, 9)))
                    report, _ = generate(model, context, 2 * tau + 3, plan, collect_logits=True)
                    realized = np.concatenate([context, report.tokens])
                    with cd.no_grad():
                        replay = masked_forward(
                            model, realized, plan, anchor=report.mask_anchor, tau=tau
                        ).data
                    n_ctx = len(context)
                    want = replay[n_ctx - 1 : n_ctx - 1 + len(report.tokens)]
                    assert np.abs(np.asarray(report.logit_rows) - want).max() < 1e-5, case

    def test_causality(self, tiny_model):
        tokens = np.random.default_rng(3).integers(0, 257, size=8)
        base = full_forward(tiny_model, tokens)
        mutated = tokens.copy()
        mutated[5] = (mutated[5] + 11) % 257
        out = full_forward(tiny_model, mutated)
        assert np.array_equal(base[:5], out[:5])
        assert not np.array_equal(base[5:], out[5:])

    def test_positions_must_increase(self, tiny_model):
        x = Tensor(np.zeros((2, 32), dtype=np.float32))
        with pytest.raises(ConfigError):
            tiny_model.forward_range(x, 0, 6, np.array([3, 3]))

    def test_cache_requires_contiguous_positions(self, tiny_model):
        x = Tensor(np.zeros((2, 32), dtype=np.float32))
        with pytest.raises(ConfigError):
            tiny_model.forward_range(x, 0, 6, np.array([0, 2]), tiny_model.new_cache())

    def test_bad_range_rejected(self, tiny_model):
        x = Tensor(np.zeros((1, 32), dtype=np.float32))
        with pytest.raises(ConfigError):
            tiny_model.forward_range(x, 4, 2, np.array([0]))
        with pytest.raises(ConfigError):
            tiny_model.forward_range(x, 0, 7, np.array([0]))

    def test_batched_matches_loop(self, tiny_model):
        rng = np.random.default_rng(4)
        batch = rng.integers(0, 257, size=(3, 6))
        with cd.no_grad():
            h = tiny_model.embed_tokens(batch)
            out = tiny_model.forward_range(h, 0, 6, np.arange(6)).data
        singles = np.stack([full_forward_states(tiny_model, row) for row in batch])
        assert np.abs(out - singles).max() < 1e-5


def full_forward_states(model, tokens):
    with cd.no_grad():
        h = model.embed_tokens(np.asarray(tokens))
        return model.forward_range(h, 0, model.config.n_layers, np.arange(len(tokens))).data


class TestKvCache:
    def test_read_unfilled_raises(self, tiny_model):
        cache = tiny_model.new_cache()
        with pytest.raises(CacheIntegrityError):
            cache.read(0, 1)

    def test_read_pending_raises(self, tiny_model):
        cache = tiny_model.new_cache()
        cache.write(0, np.array([0]), np.zeros((1, 32)), np.zeros((1, 32)))
        cache.mark_pending([0], 0)
        with pytest.raises(CacheIntegrityError):
            cache.read(0, 1)

    def test_attention_read_of_unfilled_slot_raises(self, tiny_model):
        cache = tiny_model.new_cache()
        x = Tensor(np.zeros((1, 32), dtype=np.float32))
        # position 1 with an empty position 0 below it
        with pytest.raises(CacheIntegrityError):
            tiny_model.forward_range(x, 0, 1, np.array([1]), cache)

    def test_refused_pass_leaves_cache_unchanged(self, tiny_model):
        # Position 4 is pending at the last layer only, so a pass over all
        # six layers at position 5 is refused at layer 5, after five layers
        # that could read their past; it must not have written any of them.
        cache = tiny_model.new_cache()
        with cd.no_grad():
            h = tiny_model.embed_tokens(np.arange(5))
            tiny_model.forward_range(h, 0, 6, np.arange(5), cache)
        cache.mark_pending([5], 4)
        before = (cache.occupancy.copy(), cache.keys.copy(), cache.values.copy())
        x = Tensor(np.zeros((1, 32), dtype=np.float32))
        with pytest.raises(CacheIntegrityError):
            tiny_model.forward_range(x, 0, 6, np.array([5]), cache)
        for now, then in zip((cache.occupancy, cache.keys, cache.values), before):
            assert np.array_equal(now, then)

    def test_occupancy_states(self):
        cache = KvCache(2, 4, 8)
        cache.write(0, np.array([0]), np.zeros((1, 8)), np.zeros((1, 8)))
        cache.mark_pending([1], 0)
        counts = cache.occupancy_counts()
        assert counts == {"filled": 1, "pending_refill": 1, "empty": 6}


class TestLmHead:
    def test_zero_states_zero_head(self, tiny_model):
        tiny_model.lm_head_w.data[:] = 0.0
        out = tiny_model.lm_head(Tensor(np.zeros((3, 32), dtype=np.float32)))
        assert np.array_equal(out.data, np.zeros((3, 257), dtype=np.float32))

    def test_argmax_tie_breaks_low(self):
        row = np.array([5.0, 5.0, 1.0])
        assert int(np.argmax(row)) == 0

    def test_batch_of_two_matches_singles(self, tiny_model):
        rng = np.random.default_rng(5)
        states = rng.normal(size=(2, 32)).astype(np.float32)
        with cd.no_grad():
            both = tiny_model.lm_head(Tensor(states)).data
            one = tiny_model.lm_head(Tensor(states[:1])).data
            two = tiny_model.lm_head(Tensor(states[1:])).data
        # GEMM kernels differ by batch shape, so equality is up to last-ulp
        assert np.abs(both - np.concatenate([one, two])).max() < 1e-6


def make_run_config(model_cfg) -> RunConfig:
    return RunConfig(
        model=model_cfg,
        plan=CyclePlan(tau_train=2),
        train=TrainConfig(seq_len=32),
        sampler=SamplerConfig(),
        corpus_path="corpus.txt",
        checkpoint_path="model.ckpt",
        report_dir=".",
    )


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path, tiny_model):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model, make_run_config(tiny_model.config), step=3, tokens_seen=99)
        loaded, run_cfg, state, moments = load_checkpoint(path)
        assert run_cfg.model == tiny_model.config
        assert state["step"] == "3"
        assert state["tokens_seen"] == "99"
        assert moments is None
        for (na, ta), (nb, tb) in zip(tiny_model.parameters(), loaded.parameters()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_optimizer_state_round_trip(self, tmp_path, tiny_model):
        opt = cd.AdamW(tiny_model.parameters(), total_steps=10)
        for _, p in tiny_model.parameters():
            p.grad = np.ones_like(p.data)
        opt.step()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model, make_run_config(tiny_model.config), 1, 10, opt)
        _, _, state, moments = load_checkpoint(path)
        first, second, step_count = moments
        assert step_count == 1
        for m, m2 in zip(opt.first_moment, first):
            assert np.array_equal(m, m2)
        for v, v2 in zip(opt.second_moment, second):
            assert np.array_equal(v, v2)

    def test_corruption_detected(self, tmp_path, tiny_model):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model, make_run_config(tiny_model.config))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path, tiny_model):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model, make_run_config(tiny_model.config))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, tiny_model, monkeypatch):
        path = tmp_path / "m.ckpt"
        run_cfg = make_run_config(tiny_model.config)
        save_checkpoint(path, tiny_model, run_cfg, step=1)
        before = path.read_bytes()

        class FailingFile:
            """Passes writes through to ``f`` until the fourth, which raises."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def write(self, data):
                self.writes += 1
                if self.writes == 4:
                    raise OSError("no space left on device")
                return self.f.write(data)

            def __getattr__(self, name):
                return getattr(self.f, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(
            checkpoint, "open", lambda *a, **k: FailingFile(open(*a, **k)), raising=False
        )
        with pytest.raises(OSError):
            save_checkpoint(path, tiny_model, run_cfg, step=2)
        monkeypatch.undo()
        assert path.read_bytes() == before
        _, _, state, _ = load_checkpoint(path)
        assert state["step"] == "1"
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_file_layout_matches_format(self, tmp_path, tiny_model):
        # The documented layout, built from joined bytes, against the
        # streamed writer: the same file, byte for byte.
        opt = cd.AdamW(tiny_model.parameters(), total_steps=10)
        for _, p in tiny_model.parameters():
            p.grad = np.full_like(p.data, 0.5)
        opt.step()
        run_cfg = make_run_config(tiny_model.config)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model, run_cfg, 1, 10, opt)
        state = {"step": 1, "tokens_seen": 10, "has_optimizer": True, "optimizer_step_count": 1}
        config = dump_run_config(run_cfg, state).encode("utf-8")
        first, second = opt.state_arrays()
        arrays = [t.data for _, t in tiny_model.parameters()] + list(first) + list(second)
        payload = b"".join(a.astype("<f4").tobytes() for a in arrays)
        want = (
            b"CYCD" + struct.pack("<II", 1, len(config)) + config + payload
            + struct.pack("<I", zlib.crc32(config + payload))
        )
        assert path.read_bytes() == want

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_loaded_model_reproduces_logits(self, tmp_path, tiny_model):
        tokens = np.random.default_rng(6).integers(0, 257, size=6)
        want = full_forward(tiny_model, tokens)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model, make_run_config(tiny_model.config))
        loaded, _, _, _ = load_checkpoint(path)
        assert np.array_equal(full_forward(loaded, tokens), want)
