"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The desk-scale learning criteria (7 and 8) train real models and dominate
the suite's runtime (roughly 20 minutes on two CPU cores); everything else
finishes in seconds. Heavy artifacts are shared through module-scoped
fixtures.
"""

import contextlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import cycledecode as cd
from cycledecode import autograd as ag
from cycledecode.autograd import Tensor, no_grad
from cycledecode.bench import fit_scaling_law, measure_plt, plt_theoretical, reuse_layer_count
from cycledecode.cli import main as cli_main
from cycledecode.corpus import split_windows, synthetic_text, tokenize
from cycledecode.decoding import SamplerConfig, generate
from cycledecode.masking import CyclePlan, build_cycle_mask, masked_forward
from cycledecode.model import Model, ModelConfig, SlotState
from cycledecode.training import evaluate, run_training, sequence_loss

from conftest import train_memorizer


@contextlib.contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL [{time.perf_counter() - start:.1f}s]")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS [{time.perf_counter() - start:.1f}s]")


# ---------------------------------------------------------------------------
# shared heavy artifacts


def desk_model_config(seed: int) -> ModelConfig:
    return ModelConfig(
        vocab_size=257, d_model=128, n_heads=4, d_ff=256, n_layers=8,
        n_encoding=0, n_thinking=6, n_decoding=2, max_seq_len=256, seed=seed,
    )


def desk_train_config(tau_seed: int) -> cd.TrainConfig:
    return cd.TrainConfig(
        batch_size=4, seq_len=96, steps=2000, lr=1e-3, weight_decay=0.01,
        warmup_ratio=0.1, schedule="cosine", seed=tau_seed, eval_fraction=0.05,
        log_interval=20, eval_interval=250, eval_windows=24,
    )


@pytest.fixture(scope="module")
def desk_corpus():
    text = synthetic_text(2_000_000, seed=3)
    return split_windows(tokenize(text), seq_len=96, eval_fraction=0.05, seed=0)


@pytest.fixture(scope="module")
def criterion7_run(desk_corpus):
    """2k-step tau=2 training run on the desk-scale corpus."""
    model = Model(desk_model_config(seed=10))
    plan = CyclePlan(tau_train=2, variant="embedding")
    cfg = desk_train_config(tau_seed=1)
    init_eval = evaluate(model, desk_corpus.eval_windows, plan, batch_size=4, max_windows=24)
    records = run_training(model, desk_corpus.train_windows, desk_corpus.eval_windows, cfg, plan)
    final_eval = evaluate(model, desk_corpus.eval_windows, plan, batch_size=4, max_windows=24)
    return {
        "model": model,
        "plan": plan,
        "records": records,
        "init_eval": init_eval,
        "final_eval": final_eval,
    }


# ---------------------------------------------------------------------------


def test_criterion_1_mask_law():
    with criterion(1, "mask law"):
        assert build_cycle_mask(9, 3, 0).tolist() == [1, 0, 0, 1, 0, 0, 1, 0, 0]
        for tau in range(1, 9):
            for anchor in range(tau):
                for n in range(1, 65):
                    got = build_cycle_mask(n, tau, anchor).tolist()
                    want = [1 if (p - anchor) % tau == 0 else 0 for p in range(n)]
                    assert got == want


def test_criterion_2_masked_forward_decomposition():
    with criterion(2, "masked-forward decomposition"):
        cfg = ModelConfig(
            vocab_size=257, d_model=32, n_heads=2, d_ff=64, n_layers=6,
            n_encoding=2, n_thinking=2, n_decoding=2, max_seq_len=32, seed=42,
        )
        model = Model(cfg)
        part = model.partition
        tokens = np.random.default_rng(7).integers(0, 257, size=12)
        positions = np.arange(12)
        for tau in (1, 2, 3, 4):
            plan = CyclePlan(tau_train=tau, variant="embedding")
            with no_grad():
                got = masked_forward(model, tokens, plan).data
                h_emb = model.embed_tokens(tokens)
                h_enc = model.forward_range(h_emb, 0, 2, positions)
                h_think = model.forward_range(h_enc, 2, 4, positions)
                rows = []
                for i in range(12):
                    if i % tau == 0:
                        rows.append(h_emb.data[i] + h_think.data[i])
                    else:
                        rows.append(h_emb.data[i])
                h_mixed = Tensor(np.stack(rows))
                out = model.forward_range(h_mixed, 4, 6, positions)
                want = model.lm_head(out).data
            assert np.abs(got - want).max() < 1e-5, tau


def test_criterion_3_gradient_integrity():
    with criterion(3, "gradient integrity"):
        for seed in range(20):
            rng = np.random.default_rng(seed)

            def check(fn, tensors, probes=3):
                loss = fn()
                loss.backward()
                for t in tensors:
                    flat = t.data.reshape(-1)
                    gflat = t.grad.reshape(-1)
                    for i in rng.choice(flat.size, size=min(probes, flat.size), replace=False):
                        orig = flat[i]
                        flat[i] = orig + 1e-5
                        lp = fn().item()
                        flat[i] = orig - 1e-5
                        lm = fn().item()
                        flat[i] = orig
                        fd = (lp - lm) / 2e-5
                        rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6)
                        assert rel < 1e-4, (fn, rel)
                    t.grad = None

            def t64(shape, scale=1.0):
                return Tensor(rng.normal(0, scale, size=shape), requires_grad=True,
                              dtype=np.float64)

            a, b = t64((3, 4)), t64((4, 3))
            check(lambda: ag.tsum(ag.mul(ag.matmul(a, b), ag.matmul(a, b))), [a, b])
            x, w = t64((2, 7)), t64((2, 7))
            check(lambda: ag.tsum(ag.mul(ag.softmax(x, axis=-1), w)), [x, w])
            y, g, yw = t64((3, 6)), t64((6,)), t64((3, 6))
            check(lambda: ag.tsum(ag.mul(ag.rms_norm(y, g, 1e-5), yw)), [y, g])
            s = t64((2, 5))
            check(lambda: ag.tsum(ag.mul(ag.silu(s), 0.3)), [s])
            r = t64((2, 4, 8))
            check(lambda: ag.tsum(ag.mul(ag.rope(r, np.array([1, 3, 6, 10]), 1e4), 0.5)), [r])
            table = t64((6, 4))
            ids = rng.integers(0, 6, size=5)
            check(lambda: ag.tsum(ag.mul(ag.embedding(table, ids), 1.1)), [table])
            logits = t64((4, 9))
            targets = rng.integers(0, 9, size=4)
            check(lambda: ag.cross_entropy(logits, targets), [logits])

            # full sequence loss: directional derivative over all parameters
            cfg = ModelConfig(
                vocab_size=31, d_model=16, n_heads=2, d_ff=24, n_layers=3,
                n_encoding=1, n_thinking=1, n_decoding=1, max_seq_len=16, seed=seed,
            )
            model = Model(cfg, dtype=np.float64)
            plan = CyclePlan(tau_train=int(rng.integers(1, 4)), variant="embedding")
            tokens = rng.integers(0, 31, size=(2, 7))
            loss, _ = sequence_loss(model, tokens, plan)
            loss.backward()
            params = model.parameters()
            d = [rng.normal(size=p.data.shape) for _, p in params]
            norm = math.sqrt(sum(float(np.sum(v * v)) for v in d))
            d = [v / norm for v in d]
            dot = sum(float(np.sum(p.grad * v)) for (_, p), v in zip(params, d))
            h = 1e-5
            for (_, p), v in zip(params, d):
                p.data += h * v
            lp, _ = sequence_loss(model, tokens, plan)
            for (_, p), v in zip(params, d):
                p.data -= 2 * h * v
            lm, _ = sequence_loss(model, tokens, plan)
            fd = (lp.item() - lm.item()) / (2 * h)
            rel = abs(fd - dot) / max(abs(fd), abs(dot), 1e-6)
            assert rel < 1e-4, (seed, rel)


def test_criterion_4_refill_exactness():
    with criterion(4, "refill exactness"):
        rng = np.random.default_rng(123)
        for case in range(12):
            total = int(rng.integers(2, 9))
            n_dec = int(rng.integers(1, total + 1))
            rest = total - n_dec
            n_enc = int(rng.integers(0, rest + 1))
            n_think = rest - n_enc
            tau = int(rng.integers(1, 5))
            variant = "encoding" if (n_enc > 0 and rng.random() < 0.4) else "embedding"
            ctx_len = int(rng.integers(1, 17))
            gen = int(rng.integers(2, 13))
            cfg = ModelConfig(
                vocab_size=257, d_model=32, n_heads=2, d_ff=48, n_layers=total,
                n_encoding=n_enc, n_thinking=n_think, n_decoding=n_dec,
                max_seq_len=48, seed=case,
            )
            model = Model(cfg)
            plan = CyclePlan(tau_train=tau, tau_infer=tau, variant=variant)
            context = rng.integers(0, 257, size=ctx_len)
            report, state = generate(model, context, gen, plan, SamplerConfig())
            realized = np.concatenate([context, report.tokens])

            oracle = model.new_cache()
            part = model.partition
            pos = np.arange(len(realized))
            with no_grad():
                h = model.embed_tokens(realized)
                h = model.forward_range(h, part.encoding.start, part.encoding.stop,
                                        pos, oracle)
                model.forward_range(h, part.thinking.start, part.thinking.stop,
                                    pos, oracle)
            for layer in list(part.encoding) + list(part.thinking):
                filled = state.cache.occupancy[layer] == SlotState.FILLED
                for p in np.nonzero(filled)[0]:
                    dk = np.abs(state.cache.keys[layer, p] - oracle.keys[layer, p]).max()
                    dv = np.abs(state.cache.values[layer, p] - oracle.values[layer, p]).max()
                    assert max(dk, dv) < 1e-5


def test_criterion_5_train_infer_consistency():
    with criterion(5, "train/infer consistency"):
        model, seq = train_memorizer(tau=2, steps=200, seed=5)
        context = seq[:12]
        for tau_infer in (1, 2, 3):
            plan = CyclePlan(tau_train=2, tau_infer=tau_infer, variant="embedding")
            report, _ = generate(model, context, 16, plan, SamplerConfig(),
                                 collect_logits=True)
            realized = np.concatenate([context, report.tokens])
            with no_grad():
                replay = masked_forward(model, realized, plan,
                                        anchor=report.mask_anchor, tau=tau_infer).data
            n_ctx = len(context)
            for j, row in enumerate(report.logit_rows):
                pos = n_ctx - 1 + j
                assert int(np.argmax(replay[pos])) == int(np.argmax(row)), (tau_infer, j)
                assert np.abs(replay[pos] - row).max() < 1e-4, (tau_infer, j)


def test_criterion_6_plt_law():
    with criterion(6, "layers-per-token law"):
        anchor_plt = plt_theoretical(36, 8, 3)
        assert anchor_plt == Fraction(52, 108)
        assert round(float(anchor_plt), 3) == 0.481
        assert round(float(1 / anchor_plt), 2) == 2.08

        rng = np.random.default_rng(55)
        for case in range(10):
            total = int(rng.integers(2, 9))
            n_dec = int(rng.integers(1, total + 1))
            rest = total - n_dec
            n_enc = int(rng.integers(0, rest + 1))
            n_think = rest - n_enc
            tau = int(rng.integers(1, 5))
            variant = "encoding" if (n_enc > 0 and rng.random() < 0.5) else "embedding"
            cycles = int(rng.integers(1, 4))
            cfg = ModelConfig(
                vocab_size=257, d_model=16, n_heads=2, d_ff=24, n_layers=total,
                n_encoding=n_enc, n_thinking=n_think, n_decoding=n_dec,
                max_seq_len=32, seed=case,
            )
            model = Model(cfg)
            plan = CyclePlan(tau_train=tau, tau_infer=tau, variant=variant)
            g = tau * cycles
            context = rng.integers(0, 257, size=3)
            report, _ = generate(model, context, g, plan, SamplerConfig())
            reuse = reuse_layer_count(model.partition, variant)
            plt = measure_plt(report.trace, model.partition, g, tau, variant=variant)
            assert plt.measured == plt.theoretical
            assert plt.match


def test_criterion_7_desk_scale_learning(criterion7_run):
    with criterion(7, "desk-scale learning"):
        init_eval = criterion7_run["init_eval"]
        final_eval = criterion7_run["final_eval"]
        assert final_eval <= 0.7 * init_eval, (init_eval, final_eval)
        off1 = np.array([r.offset_losses[1] for r in criterion7_run["records"]])
        window_means = [chunk.mean() for chunk in np.array_split(off1, 5)]
        assert all(a > b for a, b in zip(window_means, window_means[1:])), window_means


def test_criterion_8_cycle_length_ordering(desk_corpus):
    with criterion(8, "cycle-length ordering"):
        passing = 0
        orderings = []
        for seed in (0, 1, 2):
            model = Model(desk_model_config(seed=100 + seed))
            plan = CyclePlan(tau_train=3, variant="embedding")
            cfg = desk_train_config(tau_seed=seed)
            run_training(model, desk_corpus.train_windows, desk_corpus.eval_windows, cfg, plan)
            # averaging over mask anchors removes the absolute-phase
            # alignment advantage the model has at its training cycle
            # length, isolating the cycle-length effect itself
            losses = [
                evaluate(model, desk_corpus.eval_windows, plan, tau=tau, batch_size=4,
                         max_windows=24, average_anchors=True)
                for tau in (2, 3, 4)
            ]
            orderings.append(losses)
            assert all(np.isfinite(losses))
            if losses[0] <= losses[1] <= losses[2]:
                passing += 1
        assert passing >= 2, orderings


def test_criterion_9_scaling_fit(criterion7_run):
    with criterion(9, "scaling-fit utility"):
        slope = -0.178
        points = [(10.0**k, 2.0 + slope * k) for k in range(3, 10)]
        fit = fit_scaling_law(points)
        assert abs(fit.slope - slope) < 1e-9
        assert abs(fit.r_squared - 1.0) < 1e-9

        records = criterion7_run["records"]
        fit2 = fit_scaling_law([(r.tokens_seen, r.train_loss) for r in records])
        assert np.isfinite(fit2.slope) and fit2.slope < 0
        assert 0.0 <= fit2.r_squared <= 1.0


CONFIG_TEMPLATE = """\
[model]
vocab_size = 257
d_model = 48
n_heads = 4
d_ff = 96
n_layers = 4
n_encoding = 0
n_thinking = 3
n_decoding = 1
max_seq_len = 96
seed = 3

[cycle]
tau_train = 2
variant = embedding

[train]
batch_size = 2
seq_len = 64
steps = 120
lr = 0.002
weight_decay = 0.0
warmup_ratio = 0.1
schedule = cosine
seed = 7
eval_fraction = 0.1
log_interval = 10
eval_interval = 60
eval_windows = 4

[sampler]
mode = greedy
seed = 0

[paths]
corpus = {corpus}
checkpoint = out/model.ckpt
report_dir = out
"""


def test_criterion_10_determinism(tmp_path, monkeypatch, capsysbinary):
    with criterion(10, "end-to-end determinism"):
        corpus_path = tmp_path / "corpus.txt"
        corpus_path.write_bytes(synthetic_text(100_000, seed=9))
        artifacts = []
        for name in ("a", "b"):
            sub = tmp_path / name
            sub.mkdir()
            cfg_path = sub / "run.cfg"
            cfg_path.write_text(CONFIG_TEMPLATE.format(corpus=corpus_path))
            monkeypatch.chdir(sub)
            assert cli_main(["train", "--config", str(cfg_path)]) == 0
            capsysbinary.readouterr()
            assert cli_main([
                "generate", "--checkpoint", "out/model.ckpt",
                "--prompt", "the machine", "--max-new", "24", "--no-stop",
                "--transcript", "out/transcript.json",
            ]) == 0
            gen_out = capsysbinary.readouterr().out
            artifacts.append({
                "log": (sub / "out" / "train_log.jsonl").read_bytes(),
                "ckpt": (sub / "out" / "model.ckpt").read_bytes(),
                "generated": gen_out,
                "transcript": (sub / "out" / "transcript.json").read_bytes(),
            })
        for key in artifacts[0]:
            assert artifacts[0][key] == artifacts[1][key], key
