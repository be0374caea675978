"""Exact layers-per-token (PLT) report.

The layers-per-token ratio of cycle-based decoding has a closed form:
one full pass of L layers plus tau-1 reuse passes per cycle gives

    (L + (tau - 1) * reuse) / (tau * L)

per generated token, where ``reuse`` is the layer count a light pass
traverses: the variant's base ranges plus the decoding range
(``masking.Route.light``). The measured counterpart is read off an
invocation trace in exact rational arithmetic, so theory and measurement
can be compared with equality rather than tolerance. The report holds
counts and fractions only, so it is deterministic; wall-clock speed is
measured by the benchmark harness in ``perfbench/``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .decoding import generate
from .errors import ConfigError
from .masking import CyclePlan, route_of
from .model import LayerPartition, Model
from .trace import InvocationTrace

REPORT_SCHEMA_VERSION = 2


@dataclass
class PltReport:
    n_layers: int
    n_encoding: int
    n_thinking: int
    n_decoding: int
    tau: int
    generated_tokens: int
    theoretical: Fraction
    measured: Fraction
    match: bool


@dataclass
class ScalingFit:
    points: list[tuple[float, float]]
    slope: float
    intercept: float
    r_squared: float


def plt_theoretical(n_layers: int, reuse: int, tau: int) -> Fraction:
    """Average fraction of layers traversed per generated token."""
    if not 1 <= reuse <= n_layers:
        raise ConfigError(f"reuse layer count must lie in [1, {n_layers}], got {reuse}")
    if tau < 1:
        raise ConfigError(f"tau must be >= 1, got {tau}")
    return Fraction(n_layers + (tau - 1) * reuse, tau * n_layers)


def reuse_layer_count(partition: LayerPartition, variant: str) -> int:
    """Layers traversed by a light pass: the variant's base ranges, then decoding."""
    return len(partition.layers(route_of(variant).light))


def measure_plt(
    trace: InvocationTrace,
    partition: LayerPartition,
    generated_tokens: int,
    tau: int,
    variant: str,
) -> PltReport:
    """Layers-per-token read off a trace, as an exact rational.

    The trace window starts at the prefill pass, which counts as the first
    full pass of cycle one: per-pass accounting charges it L layer
    invocations no matter how many context positions rode along, which is
    precisely the memory-bound amortization the cost model assumes. The
    ``match`` flag only asserts equality when the generation length is a
    whole number of cycles. The theoretical value uses the light-pass
    layer count of the masking ``variant``.
    """
    if not len(trace):
        raise ConfigError("cannot measure an empty trace")
    if generated_tokens < 1:
        raise ConfigError("generated_tokens must be >= 1")
    total = trace.layer_invocations(partition)
    measured = Fraction(total, generated_tokens * partition.n_layers)
    reuse = reuse_layer_count(partition, variant)
    theoretical = plt_theoretical(partition.n_layers, reuse, tau)
    match = generated_tokens % tau == 0 and measured == theoretical
    return PltReport(
        n_layers=partition.n_layers,
        n_encoding=len(partition.encoding),
        n_thinking=len(partition.thinking),
        n_decoding=len(partition.decoding),
        tau=tau,
        generated_tokens=generated_tokens,
        theoretical=theoretical,
        measured=measured,
        match=match,
    )


def fit_scaling_law(points: Sequence[tuple[float, float]]) -> ScalingFit:
    """Ordinary least squares of loss against log10(tokens).

    The slope is the loss change per decade of training tokens. When both
    residual and total variance are zero the fit is exact and R² is
    defined as 1.
    """
    pts = [(float(t), float(loss)) for t, loss in points]
    if any(t <= 0 for t, _ in pts):
        raise ConfigError("token counts must be positive")
    xs = np.array([np.log10(t) for t, _ in pts], dtype=np.float64)
    ys = np.array([loss for _, loss in pts], dtype=np.float64)
    if np.unique(xs).size < 2:
        raise ConfigError("need at least 2 distinct token counts")
    xm, ym = xs.mean(), ys.mean()
    dx, dy = xs - xm, ys - ym
    slope = float(np.dot(dx, dy) / np.dot(dx, dx))
    intercept = float(ym - slope * xm)
    residuals = ys - (intercept + slope * xs)
    ss_res = float(np.dot(residuals, residuals))
    ss_tot = float(np.dot(dy, dy))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(points=pts, slope=slope, intercept=intercept, r_squared=r_squared)


@dataclass
class BenchRow:
    tau: int
    generated_tokens: int
    layer_invocations: int
    plt_measured: Fraction
    plt_theoretical: Fraction
    match: bool


def throughput_bench(
    model: Model,
    variant: str,
    taus: Sequence[int],
    gen_len: int,
    context_len: int = 16,
) -> list[BenchRow]:
    """Invocation counts and exact PLT of one greedy generation per tau.

    The pass schedule, and so every count, depends only on tau and the
    two lengths, never on token values, so one fixed context serves.
    """
    if gen_len < 1 or context_len < 1:
        raise ConfigError("gen_len and context_len must be >= 1")
    if gen_len + context_len > model.config.max_seq_len:
        raise ConfigError(
            f"context_len + gen_len = {context_len + gen_len} exceeds "
            f"max_seq_len={model.config.max_seq_len}"
        )
    context = np.zeros(context_len, dtype=np.int64)
    rows: list[BenchRow] = []
    for tau in taus:
        plan = CyclePlan(tau_train=tau, tau_infer=tau, variant=variant)
        report, _ = generate(model, context, gen_len, plan)
        plt = measure_plt(report.trace, model.partition, len(report.tokens), tau, variant)
        rows.append(
            BenchRow(
                tau=tau,
                generated_tokens=len(report.tokens),
                layer_invocations=report.trace.layer_invocations(model.partition),
                plt_measured=plt.measured,
                plt_theoretical=plt.theoretical,
                match=plt.match,
            )
        )
    return rows


def _row_dict(row: BenchRow) -> dict:
    """One report row, with fractions as exact ``p/q`` strings."""
    return {
        name: str(value) if isinstance(value, Fraction) else value
        for name, value in dataclasses.asdict(row).items()
    }


def rows_to_tsv(rows: Sequence[BenchRow]) -> str:
    header = "\t".join(f.name for f in dataclasses.fields(BenchRow))
    lines = [f"# schema_version={REPORT_SCHEMA_VERSION}", header]
    lines += ["\t".join(str(v) for v in _row_dict(r).values()) for r in rows]
    return "\n".join(lines) + "\n"


def rows_to_summary(rows: Sequence[BenchRow], model: Model, variant: str) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "n_layers": model.config.n_layers,
        "partition": {
            "encoding": len(model.partition.encoding),
            "thinking": len(model.partition.thinking),
            "decoding": len(model.partition.decoding),
        },
        "variant": variant,
        "rows": [_row_dict(r) for r in rows],
    }
