import json
import math

import numpy as np
import pytest

import cycledecode as cd
from cycledecode.checkpoint import load_checkpoint
from cycledecode.cli import main
from cycledecode.corpus import (
    SEPARATOR_BYTE,
    SEPARATOR_ID,
    detokenize,
    load_corpus,
    synthetic_text,
    tokenize,
)
from cycledecode.errors import ConfigError
from cycledecode.runconfig import load_run_config, parse_run_config
from cycledecode.training import TrainRecord, evaluate


CONFIG_TEMPLATE = """\
[model]
vocab_size = 257
d_model = 32
n_heads = 2
d_ff = 64
n_layers = 4
n_encoding = 0
n_thinking = 3
n_decoding = 1
max_seq_len = 64
seed = 3

[cycle]
tau_train = 2
variant = embedding

[train]
batch_size = 2
seq_len = 48
steps = {steps}
lr = 0.002
weight_decay = 0.0
warmup_ratio = 0.1
schedule = cosine
seed = 7
eval_fraction = 0.1
log_interval = 5
eval_interval = 10
eval_windows = 4
checkpoint_interval = {checkpoint_interval}

[sampler]
mode = greedy
seed = 0

[paths]
corpus = {corpus}
checkpoint = {checkpoint}
report_dir = {report_dir}
"""


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.txt"
    path.write_bytes(synthetic_text(120_000, seed=1))
    return path


def write_config(tmp_path, corpus_file, steps=20, checkpoint_interval=0, name="run.cfg"):
    report_dir = tmp_path / "out"
    cfg_path = tmp_path / name
    cfg_path.write_text(
        CONFIG_TEMPLATE.format(
            steps=steps,
            checkpoint_interval=checkpoint_interval,
            corpus=corpus_file,
            checkpoint=report_dir / "model.ckpt",
            report_dir=report_dir,
        )
    )
    return cfg_path, report_dir


class TestTokenizer:
    def test_ascii_bytes(self):
        assert tokenize(b"ab").tolist() == [97, 98]

    def test_round_trip_all_bytes(self):
        data = bytes(range(256)) * 3
        assert detokenize(tokenize(data)) == data

    def test_separator_maps_to_reserved_id(self):
        ids = tokenize(bytes([SEPARATOR_BYTE]))
        assert ids.tolist() == [SEPARATOR_ID]
        assert detokenize(ids) == bytes([SEPARATOR_BYTE])

    def test_invalid_id_rejected(self):
        with pytest.raises(IndexError):
            detokenize([257])
        with pytest.raises(IndexError):
            detokenize([-1])


class TestCorpus:
    def test_split_disjoint_and_deterministic(self, corpus_file):
        a = load_corpus(corpus_file, seq_len=32, eval_fraction=0.2, seed=5)
        b = load_corpus(corpus_file, seq_len=32, eval_fraction=0.2, seed=5)
        assert np.array_equal(a.train_windows, b.train_windows)
        assert np.array_equal(a.eval_windows, b.eval_windows)
        assert not set(a.train_indices) & set(a.eval_indices)
        assert len(a.train_indices) + len(a.eval_indices) == a.n_windows

    def test_missing_file(self, tmp_path):
        with pytest.raises(cd.errors.DataError):
            load_corpus(tmp_path / "nope.txt", seq_len=32)

    def test_synthetic_text_deterministic(self):
        assert synthetic_text(5000, seed=2) == synthetic_text(5000, seed=2)
        assert synthetic_text(5000, seed=2) != synthetic_text(5000, seed=3)


class TestRunConfig:
    def test_unknown_key_rejected_with_name(self, tmp_path, corpus_file):
        cfg_path, _ = write_config(tmp_path, corpus_file)
        text = cfg_path.read_text().replace("[train]", "[train]\nbogus_knob = 1")
        cfg_path.write_text(text)
        with pytest.raises(ConfigError, match="bogus_knob"):
            load_run_config(cfg_path)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="extras"):
            parse_run_config("[extras]\nx = 1\n", check_paths=False)

    def test_tau_zero_rejected(self, tmp_path, corpus_file):
        cfg_path, _ = write_config(tmp_path, corpus_file)
        cfg_path.write_text(cfg_path.read_text().replace("tau_train = 2", "tau_train = 0"))
        with pytest.raises(ConfigError):
            load_run_config(cfg_path)

    def test_missing_corpus_rejected(self, tmp_path, corpus_file):
        cfg_path, _ = write_config(tmp_path, corpus_file)
        cfg_path.write_text(cfg_path.read_text().replace(str(corpus_file), "/nonexistent.txt"))
        with pytest.raises(ConfigError):
            load_run_config(cfg_path)

    def test_report_dir_env_override(self, tmp_path, corpus_file, monkeypatch):
        cfg_path, _ = write_config(tmp_path, corpus_file)
        monkeypatch.setenv("CYCLEDECODE_REPORT_DIR", str(tmp_path / "elsewhere"))
        cfg = load_run_config(cfg_path)
        assert cfg.report_dir == str(tmp_path / "elsewhere")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match=r"\[model\] d_model"):
            parse_run_config("[model]\nd_model = tiny\n", check_paths=False)


def run_cli(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, corpus_file):
    tmp_path = tmp_path_factory.mktemp("train")
    cfg_path, report_dir = write_config(tmp_path, corpus_file, steps=20)
    assert run_cli(["train", "--config", cfg_path]) == 0
    return cfg_path, report_dir


class TestCmdTrain:
    def test_smoke_outputs_and_learning(self, trained_run):
        _, report_dir = trained_run
        log_path = report_dir / "train_log.jsonl"
        ckpt_path = report_dir / "model.ckpt"
        assert log_path.is_file() and ckpt_path.is_file()
        records = [TrainRecord.from_json_line(l) for l in log_path.read_text().splitlines()]
        assert records[-1].step == 20
        assert records[-1].train_loss < records[0].train_loss
        assert records[-1].eval_loss is not None

    def test_invalid_config_exit_code(self, tmp_path, corpus_file, capsys):
        cfg_path, _ = write_config(tmp_path, corpus_file)
        cfg_path.write_text(cfg_path.read_text().replace("n_decoding = 1", "n_decoding = 0"))
        assert run_cli(["train", "--config", cfg_path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path, corpus_file, monkeypatch):
        # identical config bytes (relative output paths) in two sandboxes
        runs = []
        for name in ("a", "b"):
            sub = tmp_path / name
            sub.mkdir()
            cfg_path, _ = write_config(sub, corpus_file, steps=10)
            text = cfg_path.read_text()
            text = text.replace(str(sub / "out"), "out")
            cfg_path.write_text(text)
            monkeypatch.chdir(sub)
            assert run_cli(["train", "--config", cfg_path]) == 0
            runs.append(
                (
                    (sub / "out" / "train_log.jsonl").read_bytes(),
                    (sub / "out" / "model.ckpt").read_bytes(),
                )
            )
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_resume_continues_identically(self, tmp_path, corpus_file):
        # unbroken run with a periodic checkpoint at step 10
        full_dir = tmp_path / "full"
        full_dir.mkdir()
        cfg_path, report_dir = write_config(full_dir, corpus_file, steps=20, checkpoint_interval=10)
        assert run_cli(["train", "--config", cfg_path]) == 0
        full_log = (report_dir / "train_log.jsonl").read_text().splitlines()
        mid_ckpt = report_dir / "model.step000010.ckpt"
        assert mid_ckpt.is_file()

        resume_dir = tmp_path / "resumed"
        resume_dir.mkdir()
        cfg2, report2 = write_config(resume_dir, corpus_file, steps=20, checkpoint_interval=10)
        assert run_cli(["train", "--config", cfg2, "--resume", mid_ckpt]) == 0
        resumed_log = (report2 / "train_log.jsonl").read_text().splitlines()

        tail = [l for l in full_log if json.loads(l)["step"] > 10]
        assert resumed_log == tail

    def test_resume_model_mismatch_rejected(self, tmp_path, corpus_file, trained_run):
        _, report_dir = trained_run
        cfg_path, _ = write_config(tmp_path, corpus_file)
        cfg_path.write_text(cfg_path.read_text().replace("d_model = 32", "d_model = 64"))
        code = run_cli(["train", "--config", cfg_path, "--resume", report_dir / "model.ckpt"])
        assert code == 2


class TestCmdGenerate:
    def test_deterministic_output(self, trained_run, capsysbinary):
        _, report_dir = trained_run
        outs = []
        for _ in range(2):
            assert run_cli([
                "generate", "--checkpoint", report_dir / "model.ckpt",
                "--prompt", "the river", "--max-new", 16, "--no-stop",
            ]) == 0
            outs.append(capsysbinary.readouterr().out)
        assert outs[0] == outs[1]

    def test_tau_one_equals_plain_cached_decoding(self, trained_run, capsysbinary):
        _, report_dir = trained_run
        assert run_cli([
            "generate", "--checkpoint", report_dir / "model.ckpt",
            "--prompt", "the river", "--max-new", 10, "--tau", 1, "--no-stop",
        ]) == 0
        cli_out = capsysbinary.readouterr().out

        # reference: token-by-token full passes over the cached model
        model, run_cfg, _, _ = load_checkpoint(report_dir / "model.ckpt")
        plan = cd.CyclePlan(tau_train=run_cfg.plan.tau_train, tau_infer=1,
                            variant=run_cfg.plan.variant)
        state, token, _ = cd.prefill(model, tokenize(b"the river"), plan)
        tokens = [token]
        while len(tokens) < 10:
            logits = cd.cycle_boundary_pass(model, state, state.last_token)
            token = cd.sample(logits, cd.SamplerConfig())
            state.last_token = token
            tokens.append(token)
        assert cli_out == detokenize(tokens) + b"\n"

    def test_tau_mismatch_logged(self, trained_run, capsys):
        _, report_dir = trained_run
        assert run_cli([
            "generate", "--checkpoint", report_dir / "model.ckpt",
            "--prompt", "abc", "--max-new", 4, "--tau", 3, "--no-stop",
        ]) == 0
        err = capsys.readouterr().err
        assert "differs from training" in err

    def test_transcript_written(self, trained_run, tmp_path, capsysbinary):
        _, report_dir = trained_run
        transcript = tmp_path / "t.json"
        assert run_cli([
            "generate", "--checkpoint", report_dir / "model.ckpt",
            "--prompt", "abc", "--max-new", 6, "--no-stop",
            "--transcript", transcript,
        ]) == 0
        capsysbinary.readouterr()
        data = json.loads(transcript.read_text())
        assert data["schema_version"] == 1
        assert len(data["tokens"]) == 6
        assert data["passes"][0]["range"] == "thinking"
        assert set(data["occupancy"]) == {"filled", "pending_refill", "empty"}

    def test_prompt_too_long(self, trained_run, capsys):
        _, report_dir = trained_run
        assert run_cli([
            "generate", "--checkpoint", report_dir / "model.ckpt",
            "--prompt", "x" * 100, "--max-new", 4,
        ]) == 2
        assert "max_seq_len" in capsys.readouterr().err

    def test_corrupt_checkpoint_exit_code(self, trained_run, tmp_path, capsys):
        _, report_dir = trained_run
        blob = bytearray((report_dir / "model.ckpt").read_bytes())
        blob[-10] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        assert run_cli(["generate", "--checkpoint", bad, "--prompt", "a", "--max-new", 2]) == 3
        assert "checksum" in capsys.readouterr().err.lower()


class TestCmdEval:
    def test_untrained_near_uniform(self, tmp_path, corpus_file, capsys):
        cfg_path, report_dir = write_config(tmp_path, corpus_file, steps=1)
        assert run_cli(["train", "--config", cfg_path]) == 0
        capsys.readouterr()
        assert run_cli([
            "eval", "--checkpoint", report_dir / "model.ckpt", "--corpus", corpus_file,
        ]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "tau\tloss\tperplexity"
        loss = float(out[1].split("\t")[1])
        assert abs(loss - math.log(256)) < 0.35

    def test_prints_anchor_averaged_loss(self, trained_run, corpus_file, capsys):
        _, report_dir = trained_run
        model, run_cfg, _, _ = load_checkpoint(report_dir / "model.ckpt")
        train = run_cfg.train
        corpus = load_corpus(corpus_file, train.seq_len, train.eval_fraction, train.seed)

        def loss_at(tau, average_anchors):
            return evaluate(model, corpus.eval_windows, run_cfg.plan, tau=tau,
                            batch_size=train.batch_size, max_windows=train.eval_windows,
                            average_anchors=average_anchors)

        assert run_cli([
            "eval", "--checkpoint", report_dir / "model.ckpt", "--corpus", corpus_file,
            "--tau", "2,3",
        ]) == 0
        rows = [r.split("\t") for r in capsys.readouterr().out.splitlines()[1:]]
        printed = {int(tau): float(loss) for tau, loss, _ in rows}
        assert abs(printed[3] - loss_at(3, True)) < 1e-6
        assert abs(printed[2] - loss_at(2, True)) < 1e-6
        # anchor 0 alone, which training logs, is a different number
        assert abs(printed[3] - loss_at(3, False)) > 1e-5
        records = [
            TrainRecord.from_json_line(l)
            for l in (report_dir / "train_log.jsonl").read_text().splitlines()
        ]
        assert abs(loss_at(run_cfg.plan.tau_train, False) - records[-1].eval_loss) < 2e-6

    def test_training_log_feeds_scaling_fit(self, trained_run):
        from cycledecode.bench import fit_scaling_law

        _, report_dir = trained_run
        records = [
            TrainRecord.from_json_line(l)
            for l in (report_dir / "train_log.jsonl").read_text().splitlines()
        ]
        fit = fit_scaling_law([(r.tokens_seen, r.train_loss) for r in records])
        assert np.isfinite(fit.slope)
        assert 0.0 <= fit.r_squared <= 1.0

    def test_tau_sweep_rows(self, trained_run, corpus_file, capsys):
        _, report_dir = trained_run
        assert run_cli([
            "eval", "--checkpoint", report_dir / "model.ckpt", "--corpus", corpus_file,
            "--tau", "1,2,3,4,6",
        ]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [int(r.split("\t")[0]) for r in rows] == [1, 2, 3, 4, 6]
        assert all(np.isfinite(float(r.split("\t")[1])) for r in rows)


class TestCmdBench:
    def test_reports_written_and_match(self, trained_run, tmp_path, capsys):
        _, report_dir = trained_run
        reports = []
        for run in range(2):
            out_dir = tmp_path / f"bench{run}"
            assert run_cli([
                "bench", "--checkpoint", report_dir / "model.ckpt",
                "--taus", "1,2", "--gen-len", "4",
                "--context-len", "4", "--report-dir", out_dir,
            ]) == 0
            reports.append([(out_dir / name).read_bytes()
                            for name in ("plt_report.tsv", "bench_summary.json")])
        capsys.readouterr()
        assert reports[0] == reports[1]  # no wall time: reruns are byte-identical
        tsv = (out_dir / "plt_report.tsv").read_text()
        assert tsv.startswith("# schema_version=2")
        rows = [r.split("\t") for r in tsv.splitlines()[2:]]
        assert rows[0][0] == "1"  # vanilla row present
        assert all(r[-1] == "True" for r in rows)
        summary = json.loads((out_dir / "bench_summary.json").read_text())
        assert summary["schema_version"] == 2
        assert summary["partition"] == {"encoding": 0, "thinking": 3, "decoding": 1}


class TestCmdInspect:
    def test_prints_partition_and_state(self, trained_run, capsys):
        _, report_dir = trained_run
        assert run_cli(["inspect", "--checkpoint", report_dir / "model.ckpt"]) == 0
        out = capsys.readouterr().out
        assert "decoding=[3,4)" in out
        assert "tau_train=2" in out
        assert "step=20" in out
