"""Command-line entry point: train, generate, eval, bench, inspect."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bench import rows_to_summary, rows_to_tsv, throughput_bench
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import SEPARATOR_ID, detokenize, load_corpus, tokenize
from .decoding import generate
from .errors import ConfigError, DataError, NumericError
from .masking import CyclePlan
from .model import Model
from .runconfig import load_run_config
from .training import evaluate, make_optimizer, run_training

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycledecode",
        description="Train and run a cycle-based multi-token decoder on byte corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a run config")
    p_train.add_argument("--config", required=True, help="run config file")
    p_train.add_argument("--resume", default=None, help="checkpoint to resume from")

    p_gen = sub.add_parser("generate", help="generate text from a checkpoint")
    p_gen.add_argument("--checkpoint", required=True)
    p_gen.add_argument("--prompt", required=True, help="prompt text (utf-8)")
    p_gen.add_argument("--max-new", type=int, default=64)
    p_gen.add_argument("--tau", type=int, default=None, help="inference cycle length")
    p_gen.add_argument("--seed", type=int, default=None, help="sampler seed override")
    p_gen.add_argument("--temperature", type=float, default=None,
                       help="sample with this temperature instead of greedy")
    p_gen.add_argument("--transcript", default=None, help="write a transcript JSON here")
    p_gen.add_argument("--no-stop", action="store_true",
                       help="do not stop at the separator byte")

    p_eval = sub.add_parser(
        "eval", help="anchor-averaged held-out loss/perplexity of a checkpoint"
    )
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument("--tau", default=None,
                        help="cycle length or comma list, e.g. 3 or 1,2,3")

    p_bench = sub.add_parser("bench", help="exact layers-per-token report")
    p_bench.add_argument("--checkpoint", required=True)
    p_bench.add_argument("--taus", default="1,2,3", help="comma list of cycle lengths")
    p_bench.add_argument("--gen-len", type=int, default=24)
    p_bench.add_argument("--context-len", type=int, default=16)
    p_bench.add_argument("--report-dir", default=None)

    p_inspect = sub.add_parser("inspect", help="print checkpoint config and partition")
    p_inspect.add_argument("--checkpoint", required=True)
    return parser


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects a comma list of integers, got {raw!r}") from None
    if not values:
        raise ConfigError(f"{flag} is empty")
    return values


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    start_step, start_tokens, opt = 0, 0, None
    if args.resume:
        model, resumed_cfg, state, moments = load_checkpoint(args.resume)
        if resumed_cfg.model != cfg.model:
            raise ConfigError("resume checkpoint model section differs from --config")
        start_step = int(state.get("step", 0))
        start_tokens = int(state.get("tokens_seen", 0))
        if moments is None:
            raise DataError("resume checkpoint carries no optimizer state")
        opt = make_optimizer(model, cfg.train)
        opt.load_state(*moments)
        if start_step >= cfg.train.steps:
            print(f"checkpoint already at step {start_step}; nothing to do")
            return EXIT_OK
    else:
        model = Model(cfg.model)

    corpus = load_corpus(
        cfg.corpus_path, cfg.train.seq_len, cfg.train.eval_fraction, cfg.train.seed
    )
    report_dir = Path(cfg.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = Path(cfg.checkpoint_path)
    if ckpt_path.parent != Path("."):
        ckpt_path.parent.mkdir(parents=True, exist_ok=True)
    log_path = report_dir / "train_log.jsonl"
    mode = "a" if args.resume and log_path.exists() else "w"

    print(
        f"training: {model.num_parameters()} params, partition "
        f"E{cfg.model.n_encoding}T{cfg.model.n_thinking}D{cfg.model.n_decoding}, "
        f"tau={cfg.plan.tau_train}, {corpus.train_windows.shape[0]} train / "
        f"{corpus.eval_windows.shape[0]} eval windows"
    )
    with open(log_path, mode, encoding="utf-8") as log:

        def on_record(record):
            log.write(record.to_json_line() + "\n")
            log.flush()
            eval_part = "" if record.eval_loss is None else f" eval={record.eval_loss:.4f}"
            print(
                f"step {record.step} loss={record.train_loss:.4f}{eval_part} "
                f"lr={record.lr:.2e}"
            )

        def on_checkpoint(step, tokens_seen, optimizer):
            if step == cfg.train.steps:
                path = ckpt_path
            else:
                path = ckpt_path.with_name(f"{ckpt_path.stem}.step{step:06d}{ckpt_path.suffix}")
            save_checkpoint(path, model, cfg, step, tokens_seen, optimizer)

        run_training(
            model,
            corpus.train_windows,
            corpus.eval_windows,
            cfg.train,
            cfg.plan,
            opt=opt,
            start_step=start_step,
            start_tokens=start_tokens,
            on_record=on_record,
            on_checkpoint=on_checkpoint,
        )
    print(f"checkpoint written to {ckpt_path}")
    print(f"training log written to {log_path}")
    return EXIT_OK


def cmd_generate(args) -> int:
    model, run_cfg, _state, _ = load_checkpoint(args.checkpoint)
    tau = args.tau if args.tau is not None else run_cfg.plan.resolved_tau_infer()
    if tau != run_cfg.plan.tau_train:
        print(
            f"note: inference cycle length {tau} differs from training "
            f"cycle length {run_cfg.plan.tau_train}",
            file=sys.stderr,
        )
    plan = CyclePlan(
        tau_train=run_cfg.plan.tau_train,
        tau_infer=tau,
        variant=run_cfg.plan.variant,
    )
    sampler = run_cfg.sampler
    if args.seed is not None:
        sampler.seed = args.seed
    if args.temperature is not None:
        sampler.mode = "temperature"
        sampler.temperature = args.temperature

    prompt_ids = tokenize(args.prompt.encode("utf-8"))
    if prompt_ids.size == 0:
        raise ConfigError("prompt must be nonempty")
    if prompt_ids.size > model.config.max_seq_len:
        raise ConfigError(
            f"prompt holds {prompt_ids.size} tokens, exceeding "
            f"max_seq_len={model.config.max_seq_len}"
        )
    report, state = generate(
        model,
        prompt_ids,
        args.max_new,
        plan,
        sampler,
        stop_token=None if args.no_stop else SEPARATOR_ID,
    )
    sys.stdout.buffer.write(detokenize(report.tokens))
    sys.stdout.buffer.write(b"\n")
    sys.stdout.buffer.flush()
    if report.truncated:
        print(f"note: {report.message}", file=sys.stderr)
    if args.transcript:
        transcript = {
            "schema_version": 1,
            "tau_infer": report.tau_infer,
            "mask_anchor": report.mask_anchor,
            "context_length": report.context_length,
            "tokens": [int(t) for t in report.tokens],
            "truncated": report.truncated,
            "passes": report.trace.summary(),
            "occupancy": state.cache.occupancy_counts(),
        }
        Path(args.transcript).write_text(
            json.dumps(transcript, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return EXIT_OK


def cmd_eval(args) -> int:
    model, run_cfg, _state, _ = load_checkpoint(args.checkpoint)
    taus = (
        _parse_int_list(args.tau, "--tau")
        if args.tau is not None
        else [run_cfg.plan.tau_train]
    )
    corpus = load_corpus(
        args.corpus,
        run_cfg.train.seq_len,
        run_cfg.train.eval_fraction,
        run_cfg.train.seed,
    )
    print("tau\tloss\tperplexity")
    for tau in taus:
        loss = evaluate(
            model,
            corpus.eval_windows,
            run_cfg.plan,
            tau=tau,
            batch_size=run_cfg.train.batch_size,
            max_windows=run_cfg.train.eval_windows,
            average_anchors=True,
        )
        print(f"{tau}\t{loss:.6f}\t{np.exp(loss):.3f}")
    return EXIT_OK


def cmd_bench(args) -> int:
    model, run_cfg, _state, _ = load_checkpoint(args.checkpoint)
    taus = _parse_int_list(args.taus, "--taus")
    rows = throughput_bench(
        model, run_cfg.plan.variant, taus, gen_len=args.gen_len, context_len=args.context_len
    )
    tsv = rows_to_tsv(rows)
    sys.stdout.write(tsv)
    report_dir = Path(args.report_dir or run_cfg.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    (report_dir / "plt_report.tsv").write_text(tsv, encoding="utf-8")
    summary = rows_to_summary(rows, model, run_cfg.plan.variant)
    (report_dir / "bench_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"reports written to {report_dir}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    model, run_cfg, state, moments = load_checkpoint(args.checkpoint)
    part = model.partition
    print(f"model: {model.num_parameters()} parameters")
    print(
        f"partition: encoding=[{part.encoding.start},{part.encoding.stop}) "
        f"thinking=[{part.thinking.start},{part.thinking.stop}) "
        f"decoding=[{part.decoding.start},{part.decoding.stop})"
    )
    print(f"cycle: tau_train={run_cfg.plan.tau_train} variant={run_cfg.plan.variant}")
    print(f"training state: step={state.get('step', 0)} tokens_seen={state.get('tokens_seen', 0)}")
    print(f"optimizer state: {'present' if moments else 'absent'}")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "generate": cmd_generate,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "inspect": cmd_inspect,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, IndexError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
