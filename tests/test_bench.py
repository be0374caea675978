from fractions import Fraction

import numpy as np
import pytest

from cycledecode.bench import (
    fit_scaling_law,
    measure_plt,
    plt_theoretical,
    rows_to_summary,
    rows_to_tsv,
    throughput_bench,
)
from cycledecode.decoding import SamplerConfig, generate
from cycledecode.errors import ConfigError, ContractError
from cycledecode.masking import CyclePlan
from cycledecode.model import LayerPartition, Model
from cycledecode.trace import InvocationTrace

from conftest import tiny_config


class TestPltTheoretical:
    def test_paper_anchor_configuration(self):
        plt = plt_theoretical(36, 8, 3)
        assert plt == Fraction(52, 108)
        assert round(float(plt), 3) == 0.481
        assert round(float(1 / plt), 2) == 2.08

    def test_tau_one_is_unity(self):
        for total, reuse in [(8, 2), (36, 8), (5, 5)]:
            assert plt_theoretical(total, reuse, 1) == 1

    def test_direct_evaluation(self):
        assert plt_theoretical(36, 8, 4) == Fraction(60, 144)
        assert abs(float(plt_theoretical(36, 8, 4)) - 0.4167) < 1e-4

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ConfigError):
            plt_theoretical(8, 0, 2)
        with pytest.raises(ConfigError):
            plt_theoretical(8, 9, 2)
        with pytest.raises(ConfigError):
            plt_theoretical(8, 2, 0)


def trace_for(schedule, partition):
    """Build a trace from (ranges, positions) per pass."""
    trace = InvocationTrace()
    for idx, ranges in enumerate(schedule):
        for name, positions in ranges:
            if len(partition.named_ranges()[name]):
                trace.add(idx, name, positions)
    return trace


class TestInvocationTrace:
    def test_entries_and_summary_read_the_columns(self):
        trace = InvocationTrace()
        trace.add(0, "encoding", np.arange(4))
        trace.add(0, "decoding", range(4))
        trace.add(1, "decoding", [4])
        entries = trace.entries
        assert [(e.pass_index, e.range_name, e.positions) for e in entries] == [
            (0, "encoding", range(0, 4)), (0, "decoding", range(0, 4)), (1, "decoding", range(4, 5)),
        ]
        entries.clear()  # a fresh list each time: the trace is unchanged
        assert len(trace.entries) == len(trace) == 3
        assert trace.summary()[2] == {"pass": 1, "range": "decoding", "positions": [4]}
        assert trace.pass_count() == 2
        assert trace.range_pass_count("encoding") == 1
        assert trace.layer_invocations(LayerPartition.from_counts(2, 1, 3)) == 2 + 3 + 3

    @pytest.mark.parametrize("pass_index,name,positions", [
        (1, "thinking", [3, 5]),      # not contiguous
        (1, "thinking", [4, 3]),      # not increasing
        (1, "refill", [0]),           # unknown range
        (0, "thinking", [7]),         # pass index goes back below 1
    ])
    def test_bad_entry_rejected(self, pass_index, name, positions):
        trace = InvocationTrace()
        trace.add(1, "decoding", [2])
        with pytest.raises(ContractError):
            trace.add(pass_index, name, positions)
        assert len(trace) == 1

    def test_unknown_range_count_rejected(self):
        # a misspelt name is refused, not counted as zero passes
        trace = InvocationTrace()
        trace.add(0, "thinking", [0])
        with pytest.raises(ContractError):
            trace.range_pass_count("thinking", "thinkng")


class TestMeasurePlt:
    def test_hand_counted_schedule(self):
        # 6 tokens, tau=3, L=8 with 6 skipped + 2 decoding layers:
        # 2 passes touch the skipped ranges, 6 touch decoding
        part = LayerPartition.from_counts(3, 3, 2)
        schedule = [
            [("encoding", range(5)), ("thinking", range(5)), ("decoding", range(5))],
            [("decoding", [5])],
            [("decoding", [6])],
            [("encoding", [5, 6, 7]), ("thinking", [5, 6, 7]), ("decoding", [7])],
            [("decoding", [8])],
            [("decoding", [9])],
        ]
        report = measure_plt(trace_for(schedule, part), part, 6, 3, "embedding")
        assert report.measured == Fraction(24, 48) == Fraction(1, 2)
        assert report.theoretical == Fraction(1, 2)
        assert report.match

    def test_tau_one_measures_unity(self):
        part = LayerPartition.from_counts(2, 4, 2)
        schedule = [
            [("encoding", [p]), ("thinking", [p]), ("decoding", [p])] for p in range(4)
        ]
        report = measure_plt(trace_for(schedule, part), part, 4, 1, "embedding")
        assert report.measured == 1
        assert report.match

    def test_partial_cycle_mismatch_is_bounded(self):
        model = Model(tiny_config(n_layers=8, n_encoding=3, n_thinking=3, n_decoding=2,
                                  max_seq_len=64))
        plan = CyclePlan(tau_train=3, tau_infer=3, variant="embedding")
        ctx = np.random.default_rng(0).integers(0, 257, size=5)
        report, _ = generate(model, ctx, 7, plan, SamplerConfig())
        plt = measure_plt(report.trace, model.partition, 7, 3, "embedding")
        assert not plt.match
        deviation = plt.measured - plt.theoretical
        # off by less than one skipped-range refill, in layer-pass units
        assert 0 < deviation * 7 * 8 < 3 + 3
        assert plt.measured == Fraction(3 * 6 + 7 * 2, 7 * 8)

    def test_encoding_variant_light_pass_runs_encoding_layers(self):
        # E2/T2/D2 at tau 3: a light pass runs 4 of the 6 layers, so
        # (6 + 2 * 4) / (3 * 6) = 7/9 layers per token
        model = Model(tiny_config())
        plan = CyclePlan(tau_train=3, tau_infer=3, variant="encoding")
        ctx = np.random.default_rng(0).integers(0, 257, size=5)
        report, _ = generate(model, ctx, 6, plan, SamplerConfig())
        plt = measure_plt(report.trace, model.partition, 6, 3, "encoding")
        assert plt.theoretical == plt.measured == Fraction(7, 9)
        assert plt.match

    def test_empty_trace_rejected(self):
        part = LayerPartition.from_counts(1, 1, 1)
        with pytest.raises(ConfigError):
            measure_plt(InvocationTrace(), part, 4, 2, "embedding")

    def test_unknown_variant_rejected(self):
        part = LayerPartition.from_counts(1, 3, 2)
        trace = trace_for([[("decoding", [0])]], part)
        with pytest.raises(ConfigError):
            measure_plt(trace, part, 1, 1, "encodng")


def fuzz_cases():
    rng = np.random.default_rng(99)
    cases = []
    for _ in range(8):
        total = int(rng.integers(2, 9))
        n_dec = int(rng.integers(1, total + 1))
        rest = total - n_dec
        n_enc = int(rng.integers(0, rest + 1))
        n_think = rest - n_enc
        tau = int(rng.integers(1, 5))
        variant = "encoding" if (n_enc > 0 and rng.random() < 0.5) else "embedding"
        cycles = int(rng.integers(1, 4))
        cases.append((total, n_enc, n_think, n_dec, tau, variant, cycles))
    return cases


class TestPltLawOnTraces:
    @pytest.mark.parametrize("case", fuzz_cases())
    def test_full_cycle_generation_matches_exactly(self, case):
        total, n_enc, n_think, n_dec, tau, variant, cycles = case
        model = Model(tiny_config(
            n_layers=total, n_encoding=n_enc, n_thinking=n_think, n_decoding=n_dec,
            seed=total * 7 + tau, max_seq_len=64,
        ))
        plan = CyclePlan(tau_train=tau, tau_infer=tau, variant=variant)
        g = tau * cycles
        ctx = np.random.default_rng(tau).integers(0, 257, size=4)
        report, _ = generate(model, ctx, g, plan, SamplerConfig())
        plt = measure_plt(report.trace, model.partition, g, tau, variant)
        assert plt.measured == plt.theoretical, case
        assert plt.match


class TestFitScalingLaw:
    def test_exact_synthetic_line(self):
        slope = -0.178
        points = [(10**k, 2.0 + slope * k) for k in range(3, 10)]
        fit = fit_scaling_law(points)
        assert abs(fit.slope - slope) < 1e-9
        assert abs(fit.intercept - 2.0) < 1e-9
        assert abs(fit.r_squared - 1.0) < 1e-9

    def test_two_points_exact(self):
        fit = fit_scaling_law([(100.0, 3.0), (1000.0, 2.5)])
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.slope == pytest.approx(-0.5)

    def test_constant_loss_convention(self):
        fit = fit_scaling_law([(10.0, 2.0), (100.0, 2.0), (1000.0, 2.0)])
        assert fit.slope == 0.0
        assert fit.r_squared == 1.0

    def test_too_few_distinct_rejected(self):
        with pytest.raises(ConfigError):
            fit_scaling_law([(100.0, 2.0)])
        with pytest.raises(ConfigError):
            fit_scaling_law([(100.0, 2.0), (100.0, 2.1)])

    def test_nonpositive_tokens_rejected(self):
        with pytest.raises(ConfigError):
            fit_scaling_law([(0.0, 2.0), (10.0, 1.0)])

    def test_noisy_fit_bounds(self):
        rng = np.random.default_rng(0)
        points = [(10**k, 3.0 - 0.2 * k + rng.normal(0, 0.01)) for k in range(2, 9)]
        fit = fit_scaling_law(points)
        assert 0.0 <= fit.r_squared <= 1.0
        assert fit.slope < 0


@pytest.fixture(scope="module")
def bench_model():
    return Model(tiny_config(max_seq_len=96))


class TestThroughputBench:
    def test_rows_and_invocation_counts(self, bench_model):
        rows = throughput_bench(bench_model, "embedding", taus=[1, 2], gen_len=4, context_len=4)
        assert [r.tau for r in rows] == [1, 2]
        vanilla, mtd2 = rows
        L = bench_model.config.n_layers
        assert vanilla.layer_invocations == 4 * L
        assert vanilla.plt_measured == 1
        assert mtd2.match

    def test_tau1_equals_plain_cached_decoding_invocations(self, bench_model):
        rows = throughput_bench(bench_model, "embedding", taus=[1], gen_len=6, context_len=4)
        assert rows[0].layer_invocations == 6 * bench_model.config.n_layers
        assert rows[0].plt_measured == rows[0].plt_theoretical == 1

    def test_paper_ratio_36_layers(self):
        model = Model(tiny_config(
            d_model=8, n_heads=2, d_ff=16, n_layers=36,
            n_encoding=0, n_thinking=28, n_decoding=8, max_seq_len=32,
        ))
        rows = throughput_bench(model, "embedding", taus=[1, 3], gen_len=6, context_len=4)
        vanilla, mtd3 = rows
        ratio = Fraction(vanilla.layer_invocations, mtd3.layer_invocations)
        assert ratio == Fraction(108, 52)
        assert round(float(ratio), 2) == 2.08

    def test_doubling_gen_length_doubles_invocations(self, bench_model):
        short = throughput_bench(bench_model, "embedding", [2], gen_len=4, context_len=4)
        long = throughput_bench(bench_model, "embedding", [2], gen_len=8, context_len=4)
        assert long[0].layer_invocations == 2 * short[0].layer_invocations

    def test_report_serialization(self, bench_model):
        rows = throughput_bench(bench_model, "embedding", [1], gen_len=2, context_len=2)
        tsv = rows_to_tsv(rows)
        assert tsv.startswith("# schema_version=2\n")
        assert "plt_measured" in tsv.splitlines()[1]
        summary = rows_to_summary(rows, bench_model, "embedding")
        assert summary["schema_version"] == 2
        assert summary["rows"][0]["match"] is True
