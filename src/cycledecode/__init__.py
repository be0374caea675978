"""cycledecode: a desk-scale engine for cycle-based multi-token decoding.

A decoder-only transformer whose layers split into encoding, thinking and
decoding ranges. Training applies a cyclical mask so one forward pass
teaches both the full path and the decode-only path; inference emits
several tokens per full pass, running light passes through the reuse
range and batching the skipped layers' KV-cache refill at each cycle
boundary.
"""

from .autograd import Tensor, no_grad
from .bench import fit_scaling_law, measure_plt, plt_theoretical, throughput_bench
from .corpus import detokenize, load_corpus, synthetic_text, tokenize
from .decoding import (
    DecodeState,
    GenerationReport,
    SamplerConfig,
    cycle_boundary_pass,
    generate,
    light_pass,
    prefill,
    sample,
)
from .masking import CyclePlan, build_cycle_mask, masked_forward
from .model import KvCache, LayerPartition, Model, ModelConfig, SlotState
from .optim import AdamW
from .training import (
    TrainConfig,
    TrainRecord,
    evaluate,
    loss_by_offset,
    run_training,
    training_step,
)

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "CyclePlan",
    "DecodeState",
    "GenerationReport",
    "KvCache",
    "LayerPartition",
    "Model",
    "ModelConfig",
    "SamplerConfig",
    "SlotState",
    "Tensor",
    "TrainConfig",
    "TrainRecord",
    "build_cycle_mask",
    "cycle_boundary_pass",
    "detokenize",
    "evaluate",
    "fit_scaling_law",
    "generate",
    "light_pass",
    "load_corpus",
    "loss_by_offset",
    "masked_forward",
    "measure_plt",
    "no_grad",
    "plt_theoretical",
    "prefill",
    "run_training",
    "sample",
    "synthetic_text",
    "throughput_bench",
    "tokenize",
    "training_step",
]
