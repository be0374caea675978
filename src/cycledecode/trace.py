"""Forward-pass accounting for the layers-per-token cost model.

Each generation pass logs one entry per (non-empty) layer range it
traverses. One entry costs ``len(range)`` layer invocations regardless of
how many token positions ride in the pass: the memory-bound premise that
makes the cost model exactly checkable on CPU.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .errors import ContractError
from .model import RANGE_NAMES, LayerPartition

_RANGE_IDS = {name: i for i, name in enumerate(RANGE_NAMES)}


def _range_id(name: str) -> int:
    try:
        return _RANGE_IDS[name]
    except KeyError:
        raise ContractError(f"unknown layer range {name!r}") from None


@dataclass(frozen=True, slots=True)
class TraceEntry:
    pass_index: int
    range_name: str
    positions: range


class InvocationTrace:
    """Entries stored as (pass, range id, start, stop) columns.

    Cache-backed passes run over contiguous positions, so an entry's
    positions are the half-open interval [start, stop).
    """

    def __init__(self):
        self._pass = array("q")
        self._range = array("q")
        self._start = array("q")
        self._stop = array("q")

    def add(self, pass_index: int, range_name: str, positions) -> None:
        range_id = _range_id(range_name)
        positions = [int(p) for p in positions]
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise ContractError("trace positions must be strictly increasing")
        if positions and positions[-1] - positions[0] != len(positions) - 1:
            raise ContractError("trace positions must be contiguous")
        if self._pass and pass_index < self._pass[-1]:
            raise ContractError("trace pass indices must be monotone")
        start = positions[0] if positions else 0
        self._pass.append(pass_index)
        self._range.append(range_id)
        self._start.append(start)
        self._stop.append(start + len(positions))

    def __len__(self) -> int:
        return len(self._pass)

    @property
    def entries(self) -> list[TraceEntry]:
        """The entries in order, built afresh on each access."""
        return [
            TraceEntry(p, RANGE_NAMES[r], range(a, b))
            for p, r, a, b in zip(self._pass, self._range, self._start, self._stop)
        ]

    def pass_count(self) -> int:
        return len(set(self._pass))

    def range_pass_count(self, *range_names: str) -> int:
        """Number of distinct passes that traverse any of the given ranges."""
        ids = {_range_id(name) for name in range_names}
        return len({p for p, r in zip(self._pass, self._range) if r in ids})

    def layer_invocations(self, partition: LayerPartition) -> int:
        ranges = partition.named_ranges()
        return sum(len(ranges[name]) * self._range.count(i) for i, name in enumerate(RANGE_NAMES))

    def summary(self) -> list[dict]:
        return [
            {"pass": e.pass_index, "range": e.range_name, "positions": list(e.positions)}
            for e in self.entries
        ]
