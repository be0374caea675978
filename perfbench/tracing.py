"""Spans around calls into the cycledecode modules, for the traced run.

The wrappers are installed at run time on the module and class attributes
that the engine looks names up through (``decoding.light_pass``,
``Model.forward_range``, ``training.sequence_loss``, ...); the source files
are untouched. Every span has a name, start, end, parent span and the
operation (request or training round) it belongs to. Spans stay in memory
and are written out once, after the measured loop. A span's self time is
its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import cycledecode.checkpoint as checkpoint
import cycledecode.corpus as corpus
import cycledecode.decoding as decoding
import cycledecode.masking as masking
import cycledecode.training as training
from cycledecode.autograd import Tensor
from cycledecode.model import KvCache, Model
from cycledecode.optim import AdamW


def _range_name(args, kwargs) -> str:
    model, start, stop = args[0], args[2], args[3]
    for name, r in model.partition.named_ranges().items():
        if (r.start, r.stop) == (start, stop):
            return f"model.forward_range.{name}"
    return "model.forward_range.other"


# (owner, attribute, span name or a function of the call's arguments)
_TARGETS = (
    (decoding, "prefill", "decoding.prefill"),
    (decoding, "light_pass", "decoding.light_pass"),
    (decoding, "cycle_boundary_pass", "decoding.boundary_pass"),
    (decoding, "sample", "decoding.sample"),
    (Model, "forward_range", _range_name),
    (Model, "lm_head", "model.lm_head"),
    (KvCache, "read", "model.kv_read"),
    (KvCache, "write", "model.kv_write"),
    (masking, "masked_forward", "masking.masked_forward"),
    (training, "masked_forward", "masking.masked_forward"),
    (training, "sequence_loss", "training.sequence_loss"),
    (training, "loss_by_offset", "training.loss_by_offset"),
    (training, "evaluate", "training.evaluate"),
    (Tensor, "backward", "autograd.backward"),
    (AdamW, "step", "optim.step"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (corpus, "load_corpus", "corpus.load_corpus"),
)


class Tracer:
    """Records spans while ``active``; counts every ``Tensor`` construction."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans: list[tuple] = []
        self.tensors = 0
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._installed: list[tuple] = []

    @contextlib.contextmanager
    def operation(self, name: str, op_id: str):
        """Span of one request or training round; its calls carry ``op_id``."""
        self.op = op_id
        if not self.active:
            yield
            return
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def begin(self, name: str) -> None:
        self._stack.append([len(self.spans), time.perf_counter_ns(), 0, name])
        self.spans.append(None)

    def end(self) -> None:
        t1 = time.perf_counter_ns()
        index, t0, child_ns, name = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans[index] = (name, t0, t1, parent, self.op)
        self.self_ns[name] += (t1 - t0) - child_ns
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += t1 - t0

    def install(self) -> None:
        for owner, attr, name in _TARGETS:
            fn = getattr(owner, attr)
            setattr(owner, attr, self._wrap(fn, name))
            self._installed.append((owner, attr, fn))
        init = Tensor.__init__

        def counting_init(obj, *args, **kwargs):
            self.tensors += 1
            init(obj, *args, **kwargs)

        Tensor.__init__ = counting_init
        self._installed.append((Tensor, "__init__", init))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()

        return traced

    def mean_self_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.self_ns.get(name, 0) / calls / 1e6 if calls else 0.0

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one line per span: name, start and end
        in ns, parent span index (-1 for none) and operation id."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
