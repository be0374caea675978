"""Run configuration: sectioned key/value text, strictly validated.

A run file has [model], [cycle], [train], [sampler] and [paths] sections
whose keys mirror the config dataclasses. Unknown sections or keys are
rejected with the offending name, and every nested invariant is checked
before any output file is touched. The report directory may be overridden
with the CYCLEDECODE_REPORT_DIR environment variable.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .decoding import SamplerConfig
from .errors import ConfigError, DataError
from .masking import CyclePlan
from .model import ModelConfig
from .training import TrainConfig

REPORT_DIR_ENV = "CYCLEDECODE_REPORT_DIR"


@dataclass
class RunConfig:
    model: ModelConfig
    plan: CyclePlan
    train: TrainConfig
    sampler: SamplerConfig
    corpus_path: str = ""
    checkpoint_path: str = "model.ckpt"
    report_dir: str = "."

    def validate(self, check_paths: bool = True) -> None:
        self.model.validate()
        self.plan.validate(self.model)
        self.train.validate()
        self.sampler.validate()
        if self.train.seq_len > self.model.max_seq_len:
            raise ConfigError(
                f"train seq_len {self.train.seq_len} exceeds max_seq_len "
                f"{self.model.max_seq_len}"
            )
        if check_paths:
            if not self.corpus_path:
                raise ConfigError("[paths] corpus is required")
            if not Path(self.corpus_path).is_file():
                raise ConfigError(f"[paths] corpus not found: {self.corpus_path}")


_SECTION_TYPES = {
    "model": ModelConfig,
    "cycle": CyclePlan,
    "train": TrainConfig,
    "sampler": SamplerConfig,
}
_PATH_KEYS = ("corpus", "checkpoint", "report_dir")


def _coerce(section: str, key: str, raw: str, ftype):
    raw = raw.strip()
    try:
        if ftype is int:
            return int(raw)
        if ftype is float:
            return float(raw)
        if ftype is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if ftype == Optional[int]:
            return None if raw.lower() in ("", "none") else int(raw)
        return raw
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None


def _parse_section(parser: configparser.ConfigParser, section: str, cls):
    field_map = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    if parser.has_section(section):
        for key, raw in parser.items(section):
            if key not in field_map:
                raise ConfigError(f"unknown key [{section}] {key}")
            f = field_map[key]
            ftype = f.type
            if isinstance(ftype, str):
                ftype = {"int": int, "float": float, "str": str, "bool": bool,
                         "Optional[int]": Optional[int]}.get(ftype, str)
            kwargs[key] = _coerce(section, key, raw, ftype)
    return cls(**kwargs)


def parse_run_config(text: str, check_paths: bool = True) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise DataError(f"malformed run config: {e}") from None
    known = set(_SECTION_TYPES) | {"paths", "state"}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")
    model = _parse_section(parser, "model", ModelConfig)
    plan = _parse_section(parser, "cycle", CyclePlan)
    train = _parse_section(parser, "train", TrainConfig)
    sampler = _parse_section(parser, "sampler", SamplerConfig)
    corpus_path, checkpoint_path, report_dir = "", "model.ckpt", "."
    if parser.has_section("paths"):
        for key, raw in parser.items("paths"):
            if key not in _PATH_KEYS:
                raise ConfigError(f"unknown key [paths] {key}")
        corpus_path = parser.get("paths", "corpus", fallback=corpus_path)
        checkpoint_path = parser.get("paths", "checkpoint", fallback=checkpoint_path)
        report_dir = parser.get("paths", "report_dir", fallback=report_dir)
    report_dir = os.environ.get(REPORT_DIR_ENV, report_dir)
    cfg = RunConfig(
        model=model,
        plan=plan,
        train=train,
        sampler=sampler,
        corpus_path=corpus_path,
        checkpoint_path=checkpoint_path,
        report_dir=report_dir,
    )
    cfg.validate(check_paths=check_paths)
    return cfg


def load_run_config(path: str | Path, check_paths: bool = True) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_run_config(path.read_text(encoding="utf-8"), check_paths=check_paths)


def dump_run_config(cfg: RunConfig, state: Optional[dict] = None) -> str:
    """Serialize to the sectioned text format (round-trips with parse)."""
    parser = configparser.ConfigParser()
    for section, obj in (
        ("model", cfg.model),
        ("cycle", cfg.plan),
        ("train", cfg.train),
        ("sampler", cfg.sampler),
    ):
        parser.add_section(section)
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if value is None:
                continue
            parser.set(section, f.name, str(value))
    parser.add_section("paths")
    parser.set("paths", "corpus", cfg.corpus_path)
    parser.set("paths", "checkpoint", cfg.checkpoint_path)
    parser.set("paths", "report_dir", cfg.report_dir)
    if state:
        parser.add_section("state")
        for key, value in state.items():
            parser.set("state", key, str(value))
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def read_state_section(text: str) -> dict:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    if not parser.has_section("state"):
        return {}
    return dict(parser.items("state"))
