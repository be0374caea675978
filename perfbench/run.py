"""Benchmark of the cycledecode engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One process sets up the workload, runs whole
rounds of its operations until ``--seconds`` have passed, checks every
output against independent references, and prints one JSON object as its
last line of standard output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics from spans around calls into
the engine and writes the spans to ``perfbench/out/``. See README.md.
"""

import os

# Fixed before numpy loads: one BLAS thread keeps the single client's
# numbers steady on a shared 2-CPU host and avoids the thread-pool start-up
# that made a cold first prefill take about a second.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

_SCRIPT_START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_s": "1/s",
    "tok_s": "tok/s",
    "first_ms": "ms",
    **{f"tok_s_tau{tau}": "tok/s" for tau in (1, 2, 3, 4)},
}

# Per-layer metrics: mean self time per call of the named span, in ms or us.
SPAN_METRICS = {
    "decoding.prefill_ms": ("decoding.prefill", 1.0),
    "decoding.light_pass_ms": ("decoding.light_pass", 1.0),
    "decoding.boundary_pass_ms": ("decoding.boundary_pass", 1.0),
    "decoding.sample_us": ("decoding.sample", 1e3),
    "model.forward_range.encoding_ms": ("model.forward_range.encoding", 1.0),
    "model.forward_range.thinking_ms": ("model.forward_range.thinking", 1.0),
    "model.forward_range.decoding_ms": ("model.forward_range.decoding", 1.0),
    "model.lm_head_ms": ("model.lm_head", 1.0),
    "model.kv_read_us": ("model.kv_read", 1e3),
    "model.kv_write_us": ("model.kv_write", 1e3),
    "masking.masked_forward_ms": ("masking.masked_forward", 1.0),
    "training.sequence_loss_ms": ("training.sequence_loss", 1.0),
    "training.loss_by_offset_ms": ("training.loss_by_offset", 1.0),
    "autograd.backward_ms": ("autograd.backward", 1.0),
    "optim.step_ms": ("optim.step", 1.0),
    "training.evaluate_ms": ("training.evaluate", 1.0),
    "checkpoint.save_ms": ("checkpoint.save", 1.0),
    "checkpoint.load_ms": ("checkpoint.load", 1.0),
    "corpus.load_corpus_ms": ("corpus.load_corpus", 1.0),
}
COUNT_METRICS = {
    "decoding.light_passes": "count",
    "decoding.boundary_passes": "count",
    "autograd.tensors_per_token": "count",
    "autograd.tensors_per_step": "count",
    **{f"trace.layers_per_token_tau{tau}": "ratio" for tau in (1, 2, 3, 4)},
    "checkpoint.bytes": "B",
}


def process_age_s() -> float:
    """Seconds since this process started, interpreter start-up included."""
    try:
        with open("/proc/self/stat", encoding="ascii") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _SCRIPT_START


def per_layer_metrics(workload, tracer, rounds: int) -> dict:
    values = {name: 0.0 for name in COUNT_METRICS}
    for name, (span, scale) in SPAN_METRICS.items():
        values[name] = tracer.mean_self_ms(span) * scale
    if workload.checkpoint_bytes:
        values["checkpoint.bytes"] = sum(workload.checkpoint_bytes) / len(workload.checkpoint_bytes)
    values.update(workload.per_layer(rounds))
    units = {name: ("us" if name.endswith("_us") else "ms") for name in SPAN_METRICS}
    units.update(COUNT_METRICS)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        from tracing import Tracer
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the cycledecode sources: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = BENCH_DIR / "out"
    scratch = out_dir / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        if args.trace:
            tracer.install()
            tracer.active = True
        workload = WORKLOADS[args.workload](args.seed, scratch, tracer)
        workload.setup()
        tracer.active = False
        workload.warm_up()
        setup_s = process_age_s()

        tracer.active = bool(args.trace)
        rounds = 0
        start = time.perf_counter()
        while True:
            workload.run_round(rounds)
            rounds += 1
            loop_s = time.perf_counter() - start
            if loop_s >= args.seconds:
                break
        tracer.active = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        check_errors = workload.check()
        end_to_end = workload.end_to_end(loop_s) if workload.failed < workload.attempted else {}
        end_to_end.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
        if args.trace:
            metrics = per_layer_metrics(workload, tracer, rounds)
            tracer.write(
                out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl",
                {"workload": args.workload, "seed": args.seed, "rounds": rounds, "end_to_end": end_to_end},
            )
        else:
            metrics = {
                name: {"value": end_to_end[name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items()
                if name in end_to_end
            }
    finally:
        tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    for line in (workload.errors + check_errors)[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    result = {
        "correct": not check_errors,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
