"""Checkpoint file format.

Layout (all integers little-endian):

    bytes 0..3   magic b"CYCD"
    bytes 4..7   format version (u32)
    bytes 8..11  config block length (u32)
    ...          config block: UTF-8 run-config text, including a [state]
                 section with step / tokens_seen / optimizer flags
    ...          payload: raw float32 values for every named parameter in
                 Model.parameters() order; if optimizer state is present,
                 followed by the first moments then the second moments in
                 the same order
    last 4       CRC-32 of config block + payload (u32)

Embedding the full run config means generate/eval/bench need no separate
config file and can never disagree with the training-time partition or
cycle settings.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ChecksumError, DataError
from .model import Model
from .optim import AdamW
from .runconfig import RunConfig, dump_run_config, parse_run_config, read_state_section

MAGIC = b"CYCD"
FORMAT_VERSION = 1


def save_checkpoint(
    path: str | Path,
    model: Model,
    run_cfg: RunConfig,
    step: int = 0,
    tokens_seen: int = 0,
    optimizer: Optional[AdamW] = None,
) -> None:
    state = {
        "step": step,
        "tokens_seen": tokens_seen,
        "has_optimizer": optimizer is not None,
    }
    if optimizer is not None:
        state["optimizer_step_count"] = optimizer.step_count
    config_bytes = dump_run_config(run_cfg, state).encode("utf-8")

    arrays = [t.data for _, t in model.parameters()]
    if optimizer is not None:
        first, second = optimizer.state_arrays()
        arrays.extend(first)
        arrays.extend(second)
    # Each array is written and checksummed in place (float32 arrays are
    # not copied), so the payload is never held twice.
    chunks = [np.ascontiguousarray(a, dtype="<f4") for a in arrays]
    crc = zlib.crc32(config_bytes)
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    # Write a sibling file and rename it over the target, so an interrupted
    # save leaves the previous checkpoint intact.
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", FORMAT_VERSION))
            f.write(struct.pack("<I", len(config_bytes)))
            f.write(config_bytes)
            for chunk in chunks:
                f.write(chunk)
            f.write(struct.pack("<I", crc & 0xFFFFFFFF))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path):
    """Returns (model, run_cfg, state dict, optimizer moments or None)."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"checkpoint not found: {path}")
    blob = path.read_bytes()
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise DataError(f"not a checkpoint file: {path}")
    version = struct.unpack("<I", blob[4:8])[0]
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    config_len = struct.unpack("<I", blob[8:12])[0]
    config_end = 12 + config_len
    if config_end + 4 > len(blob):
        raise DataError("checkpoint truncated")
    view = memoryview(blob)
    config_bytes = blob[12:config_end]
    payload = view[config_end:-4]
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    crc = zlib.crc32(view[12:-4]) & 0xFFFFFFFF
    if crc != stored_crc:
        raise ChecksumError(
            f"checkpoint checksum mismatch: stored {stored_crc:#010x}, computed {crc:#010x}"
        )

    config_text = config_bytes.decode("utf-8")
    run_cfg = parse_run_config(config_text, check_paths=False)
    state = read_state_section(config_text)
    has_optimizer = state.get("has_optimizer", "False") == "True"

    model = Model(run_cfg.model)
    params = model.parameters()
    n_param_values = sum(t.data.size for _, t in params)
    expected = n_param_values * (3 if has_optimizer else 1) * 4
    if len(payload) != expected:
        raise DataError(
            f"checkpoint payload holds {len(payload)} bytes, expected {expected}"
        )

    values = np.frombuffer(payload, dtype="<f4")
    cursor = 0

    def take(shape):
        nonlocal cursor
        size = int(np.prod(shape))
        out = values[cursor : cursor + size].reshape(shape).astype(np.float32)
        cursor += size
        return out

    for _, t in params:
        t.data = take(t.data.shape)
    moments = None
    if has_optimizer:
        first = [take(t.data.shape) for _, t in params]
        second = [take(t.data.shape) for _, t in params]
        moments = (first, second, int(state.get("optimizer_step_count", 0)))
    return model, run_cfg, state, moments
