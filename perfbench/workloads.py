"""The benchmark workloads: set-up, one round of operations, checks, metrics.

Every run attempts whole rounds of the same operations, so the per-round
counts and the share of failed operations do not depend on the run length.
The seed chooses the inputs' content (corpus text, which prompts, model
initialisation); the lengths and cycle lengths of the requests are fixed,
so every seed costs the same work.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cycledecode.checkpoint as checkpoint
import cycledecode.corpus as corpus
import cycledecode.decoding as decoding
import cycledecode.training as training
from cycledecode.decoding import SamplerConfig
from cycledecode.masking import CyclePlan
from cycledecode.model import Model, ModelConfig
from cycledecode.runconfig import RunConfig
from cycledecode.training import TrainConfig, batch_indices
from reference import LOSS_ATOL, ReferenceModel, check_request

TAUS = (1, 2, 3, 4)
CORPUS_BYTES = 128 * 1024
# The final training loss must sit this far below the step-1 loss
# (ln 257 = 5.55 at initialisation; 16 steps reach about 3.3).
LOSS_DROP = 1.0


def model_config(n_enc: int, n_think: int, n_dec: int, seed: int) -> ModelConfig:
    return ModelConfig(
        vocab_size=corpus.VOCAB_SIZE,
        d_model=128,
        n_heads=4,
        d_ff=256,
        n_layers=n_enc + n_think + n_dec,
        n_encoding=n_enc,
        n_thinking=n_think,
        n_decoding=n_dec,
        max_seq_len=512,
        seed=seed,
    )


def trimmed_mean_ms(seconds) -> float:
    """Mean in ms without the fastest and slowest tenth of the samples.

    A median jumps between the host's fast and slow phases when a run holds
    some of each; a mean moves in proportion to their shares, and the trim
    keeps single stalls out.
    """
    values = sorted(seconds)
    cut = len(values) // 10
    return statistics.fmean(values[cut : len(values) - cut]) * 1e3


class Workload:
    """State shared by the workloads; subclasses fill in the operations."""

    def __init__(self, seed: int, scratch: Path, tracer):
        self.seed = seed
        self.scratch = scratch
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checkpoint_bytes: list[int] = []

    def save(self, path: Path, model: Model, run_cfg: RunConfig, *state) -> None:
        checkpoint.save_checkpoint(path, model, run_cfg, *state)
        self.checkpoint_bytes.append(os.path.getsize(path))

    def write_corpus(self) -> Path:
        path = self.scratch / "corpus.txt"
        path.write_bytes(corpus.synthetic_text(CORPUS_BYTES, self.seed))
        return path

    def fail(self, what: str, exc: Exception, count: int = 1) -> None:
        self.failed += count
        self.errors.append(f"{what} failed: {type(exc).__name__}: {exc}")


@dataclass
class Request:
    prompt: np.ndarray
    tau: int
    max_new: int
    variant: str
    tokens: list
    logit_rows: list
    trace: object
    ttft_s: float
    decode_s: float
    tensors: int


class DecodeWorkload(Workload):
    """Closed loop, one client: each greedy request is sent after the last ends."""

    partition: tuple[int, int, int]
    variant: str
    tau_train: int
    prompt_window: int
    # (prompt length, new tokens, tau_infer) for each request of a round
    schedule: list[tuple[int, int, int]]

    def setup(self) -> None:
        corpus_path = self.write_corpus()
        text = corpus.load_corpus(corpus_path, self.prompt_window, eval_fraction=0.0, seed=self.seed)
        self.windows = text.train_windows
        ckpt = self.scratch / "model.ckpt"
        run_cfg = RunConfig(
            model=model_config(*self.partition, seed=self.seed),
            plan=CyclePlan(tau_train=self.tau_train, variant=self.variant),
            train=TrainConfig(seq_len=self.prompt_window),
            sampler=SamplerConfig(),
            corpus_path=str(corpus_path),
            checkpoint_path=str(ckpt),
            report_dir=str(self.scratch),
        )
        self.save(ckpt, Model(run_cfg.model), run_cfg)
        self.model, self.run_cfg, _, _ = checkpoint.load_checkpoint(ckpt)
        self.requests: list[Request] = []
        # prefill() returns as soon as it has sampled the first token.
        self._first_token_at = 0.0
        prefill = decoding.prefill

        def stamped_prefill(*args, **kwargs):
            out = prefill(*args, **kwargs)
            self._first_token_at = time.perf_counter()
            return out

        decoding.prefill = stamped_prefill

    def plan(self, tau: int) -> CyclePlan:
        return CyclePlan(tau_train=self.tau_train, tau_infer=tau, variant=self.variant)

    def warm_up(self) -> None:
        longest = max(n for n, _, _ in self.schedule)
        for tau in TAUS:
            decoding.generate(self.model, self.windows[0][:longest], 2 * tau + 1, self.plan(tau))

    def run_round(self, index: int) -> None:
        sampler = SamplerConfig(mode="greedy")
        for slot, (n_prompt, max_new, tau) in enumerate(self.schedule):
            rng = np.random.default_rng([self.seed, index, slot])
            prompt = self.windows[rng.integers(self.windows.shape[0])][:n_prompt]
            self.attempted += 1
            tensors0 = self.tracer.tensors
            try:
                with self.tracer.operation("bench.request", f"{index}.{slot}"):
                    t0 = time.perf_counter()
                    report, _ = decoding.generate(
                        self.model, prompt, max_new, self.plan(tau), sampler, collect_logits=True
                    )
                    t1 = time.perf_counter()
            except Exception as exc:  # one failed request must not end the run
                self.fail(f"request tau={tau} ctx={n_prompt}", exc)
                continue
            self.requests.append(
                Request(
                    prompt=prompt,
                    tau=tau,
                    max_new=max_new,
                    variant=self.variant,
                    tokens=report.tokens,
                    logit_rows=report.logit_rows,
                    trace=report.trace,
                    ttft_s=self._first_token_at - t0,
                    decode_s=t1 - self._first_token_at,
                    tensors=self.tracer.tensors - tensors0,
                )
            )

    def check(self) -> list[str]:
        ref = ReferenceModel(self.model)
        errors = []
        for req in self.requests:
            if len(req.tokens) != req.max_new:
                errors.append(f"request tau={req.tau}: {len(req.tokens)} of {req.max_new} tokens")
                continue
            errors.extend(check_request(ref, self.model, req))
        return errors

    def end_to_end(self, loop_s: float) -> dict[str, float]:
        reqs = self.requests
        out = {
            "ops_s": len(reqs) / loop_s,
            "tok_s": sum(len(r.tokens) for r in reqs) / loop_s,
            "first_ms": trimmed_mean_ms([r.ttft_s for r in reqs]),
        }
        for tau in TAUS:
            at_tau = [r for r in reqs if r.tau == tau]
            out[f"tok_s_tau{tau}"] = sum(len(r.tokens) - 1 for r in at_tau) / sum(r.decode_s for r in at_tau)
        return out

    def per_layer(self, rounds: int) -> dict[str, float]:
        out = {
            "decoding.light_passes": self.tracer.calls.get("decoding.light_pass", 0) / rounds,
            "decoding.boundary_passes": self.tracer.calls.get("decoding.boundary_pass", 0) / rounds,
            "autograd.tensors_per_token": sum(r.tensors for r in self.requests)
            / sum(len(r.tokens) for r in self.requests),
        }
        n_layers = self.model.config.n_layers
        for tau in TAUS:
            at_tau = [r for r in self.requests if r.tau == tau]
            invocations = sum(r.trace.layer_invocations(self.model.partition) for r in at_tau)
            tokens = sum(len(r.tokens) for r in at_tau)
            out[f"trace.layers_per_token_tau{tau}"] = invocations / (tokens * n_layers)
        return out


class DecodeLong(DecodeWorkload):
    """Short prompts, long outputs: per-token passes against a growing cache."""

    partition = (0, 6, 2)
    variant = "embedding"
    tau_train = 2
    prompt_window = 16
    schedule = [(16, 480, tau) for tau in TAUS]


def _prompts_schedule() -> list[tuple[int, int, int]]:
    # 16 requests on a 4x4 Graeco-Latin square: request 4a+b has prompt
    # length 136 + 16(4a+b), tau 1 + (a+b) % 4 and output length
    # 17 + 2(4((2a+b) % 4) + a). Every tau gets the same mean prompt length
    # (256) and output length (32), so per-tau rates compare like with like.
    out = []
    for a in range(4):
        for b in range(4):
            out.append((136 + 16 * (4 * a + b), 17 + 2 * (4 * ((2 * a + b) % 4) + a), 1 + (a + b) % 4))
    return out


class DecodePrompts(DecodeWorkload):
    """Long ragged prompts, short outputs, tau_infer often unlike tau_train."""

    partition = (2, 4, 2)
    variant = "encoding"
    tau_train = 2
    prompt_window = 384
    schedule = _prompts_schedule()


class Train(Workload):
    """``run_training`` from a fresh model each round, then ``evaluate`` at tau 1-4."""

    steps = 16
    batch_size = 4
    seq_len = 96
    final_eval_windows = 16

    def setup(self) -> None:
        corpus_path = self.write_corpus()
        self.corpus = corpus.load_corpus(corpus_path, self.seq_len, eval_fraction=0.05, seed=self.seed)
        self.train_cfg = TrainConfig(
            batch_size=self.batch_size,
            seq_len=self.seq_len,
            steps=self.steps,
            lr=3e-3,
            warmup_ratio=0.1,
            schedule="cosine",
            seed=self.seed,
            log_interval=1,
            eval_interval=8,
            eval_windows=8,
            checkpoint_interval=8,
        )
        self.ckpt = self.scratch / "train.ckpt"
        self.run_cfg = RunConfig(
            model=model_config(0, 6, 2, seed=self.seed),
            plan=CyclePlan(tau_train=2, variant="embedding"),
            train=self.train_cfg,
            sampler=SamplerConfig(),
            corpus_path=str(corpus_path),
            checkpoint_path=str(self.ckpt),
            report_dir=str(self.scratch),
        )
        self.train_s: list[float] = []
        self.step_s: list[float] = []
        self.eval_s: dict[int, list[float]] = {tau: [] for tau in TAUS}
        self.losses: list[list[float]] = []
        self.tensors = 0

    def warm_up(self) -> None:
        model = Model(self.run_cfg.model)
        plan = self.run_cfg.plan
        opt_cfg = TrainConfig(batch_size=self.batch_size, seq_len=self.seq_len, steps=1)
        training.run_training(model, self.corpus.train_windows, self.corpus.eval_windows[:4], opt_cfg, plan)
        training.evaluate(model, self.corpus.eval_windows, plan, batch_size=self.batch_size, max_windows=4)

    def on_checkpoint(self, step: int, tokens_seen: int, opt) -> None:
        path = self.ckpt if step == self.steps else self.ckpt.with_name(f"train.step{step:06d}.ckpt")
        self.save(path, self.model, self.run_cfg, step, tokens_seen, opt)

    def run_round(self, index: int) -> None:
        self.model = Model(self.run_cfg.model)
        plan = self.run_cfg.plan
        stamps: list[float] = []
        self.attempted += self.steps
        tensors0 = self.tracer.tensors
        try:
            with self.tracer.operation("bench.train_round", str(index)):
                t0 = time.perf_counter()
                self.records = training.run_training(
                    self.model,
                    self.corpus.train_windows,
                    self.corpus.eval_windows,
                    self.train_cfg,
                    plan,
                    on_record=lambda record: stamps.append(time.perf_counter()),
                    on_checkpoint=self.on_checkpoint,
                )
                t1 = time.perf_counter()
                self.tensors += self.tracer.tensors - tensors0
                self.eval_loss = {}
                for tau in TAUS:
                    e0 = time.perf_counter()
                    self.eval_loss[tau] = training.evaluate(
                        self.model,
                        self.corpus.eval_windows,
                        plan,
                        tau=tau,
                        batch_size=self.batch_size,
                        max_windows=self.final_eval_windows,
                    )
                    self.eval_s[tau].append(time.perf_counter() - e0)
        except Exception as exc:  # a failed round must not end the run
            self.fail(f"training round {index}", exc, self.steps - len(stamps))
            return
        self.train_s.append(t1 - t0)
        self.step_s.extend(np.diff([t0] + stamps))
        self.losses.append([r.train_loss for r in self.records])

    def check(self) -> list[str]:
        if not self.losses:
            return []
        errors = []
        records = self.records
        if any(losses != self.losses[0] for losses in self.losses):
            errors.append("training rounds from the same initialisation gave different losses")
        first_batch = self.corpus.train_windows[
            batch_indices(self.seed, 0, self.corpus.train_windows.shape[0], self.batch_size)
        ]
        plan = self.run_cfg.plan
        want = ReferenceModel(Model(self.run_cfg.model)).sequence_loss(
            first_batch, plan.variant, plan.tau_train, plan.mask_anchor
        )
        if abs(records[0].train_loss - want) > LOSS_ATOL:
            errors.append(f"step-1 loss {records[0].train_loss} != reference {want}")
        # positions 0..n-2 carry targets; offset k holds those with i % tau == k
        counts = [len(range(k, self.seq_len - 1, plan.tau_train)) for k in range(plan.tau_train)]
        for r in records:
            mean = sum(c * x for c, x in zip(counts, r.offset_losses)) / sum(counts)
            if abs(mean - r.train_loss) > LOSS_ATOL:
                errors.append(f"step {r.step}: offset losses average {mean}, loss is {r.train_loss}")
        if not records[-1].train_loss < records[0].train_loss - LOSS_DROP:
            errors.append(
                f"loss fell from {records[0].train_loss} to {records[-1].train_loss}, "
                f"less than {LOSS_DROP}"
            )
        eval_loss = records[-1].eval_loss
        if eval_loss is None or not math.isfinite(eval_loss) or eval_loss >= math.log(corpus.VOCAB_SIZE):
            errors.append(f"final eval loss {eval_loss} is not finite and below ln 257")
        reloaded, _, _, _ = checkpoint.load_checkpoint(self.ckpt)
        for (name, a), (_, b) in zip(self.model.parameters(), reloaded.parameters()):
            if a.data.tobytes() != b.data.tobytes():
                errors.append(f"reloaded checkpoint differs in {name}")
                break
        again = training.evaluate(
            reloaded,
            self.corpus.eval_windows,
            plan,
            tau=TAUS[-1],
            batch_size=self.batch_size,
            max_windows=self.final_eval_windows,
        )
        if again != self.eval_loss[TAUS[-1]]:
            errors.append(f"reloaded checkpoint evaluates to {again}, not {self.eval_loss[TAUS[-1]]}")
        return errors

    def end_to_end(self, loop_s: float) -> dict[str, float]:
        rounds = len(self.train_s)
        out = {
            "ops_s": self.steps * rounds / loop_s,
            "tok_s": self.steps * rounds * self.batch_size * self.seq_len / sum(self.train_s),
            "first_ms": trimmed_mean_ms(self.step_s),
        }
        scored = min(self.final_eval_windows, self.corpus.eval_windows.shape[0]) * (self.seq_len - 1)
        for tau in TAUS:
            out[f"tok_s_tau{tau}"] = len(self.eval_s[tau]) * scored / sum(self.eval_s[tau])
        return out

    def per_layer(self, rounds: int) -> dict[str, float]:
        return {"autograd.tensors_per_step": self.tensors / (self.steps * len(self.train_s))}


WORKLOADS = {"decode_long": DecodeLong, "decode_prompts": DecodePrompts, "train": Train}
