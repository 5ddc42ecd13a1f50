"""Machine-speed calibration.

The benchmark runs on shared hosts whose speed drifts: the same work has
taken twice as long in one half hour as in the next, in the program and in
a fixed loop alike.  So every time the benchmark reports is scaled by
`REFERENCE_S / r`, where `r` is the median time of a fixed reference
workload measured between the program's operations in the same round.
A reported second is a second on a machine where the reference takes
`REFERENCE_S`; the raw figures go to standard error.

The reference never calls the program, so a change to the program moves
the program's times and not the scale.
"""
from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass
from time import perf_counter

# Median reference time on an uncontended 2.1 GHz host of the kind the
# benchmark was tuned on; it fixes the unit and nothing else.
REFERENCE_S = 0.004
INTERVAL_S = 0.2  # at most one reference measurement per interval


@dataclass(frozen=True)
class _Cell:
    kind: str
    x: int
    y: int


def _verdict(item, table: dict) -> bool:
    if isinstance(item, _Cell):
        return table.get(item.kind, 0) > item.x % 3
    if isinstance(item, tuple):
        return any(_verdict(part, table) for part in item)
    return False


def reference() -> int:
    """Interpreter work of the program's kinds: small frozen objects,
    tuples, dicts and sets, dispatch on type, formatting, sorting, and a
    canonical JSON digest."""
    return sum(_pass(offset) for offset in range(6))


def _pass(offset: int) -> int:
    kinds = ("grass", "tree", "stone", "water", "sand", "cow", "zombie")
    cells = [_Cell(kinds[(i + offset) % 7], i % 9 - 4, i % 7 - 3) for i in range(600)]
    table: dict[str, int] = {}
    near = set()
    for cell in cells:
        table[cell.kind] = table.get(cell.kind, 0) + 1
        if abs(cell.x) <= 1 and abs(cell.y) <= 1:
            near.add(cell.kind)
    hits = sum(1 for i in range(0, 600, 2) if _verdict((cells[i], cells[i + 1]), table))
    ordered = sorted(cells, key=lambda c: (c.kind, c.y, c.x))
    text = [f"{c.kind}@{c.x},{c.y}" for c in ordered[:200]]
    blob = json.dumps({"cells": text, "near": sorted(near)}, sort_keys=True).encode()
    return hits + len(hashlib.sha1(blob).hexdigest())


class Calibration:
    """Reference timings of one round, taken at most every `INTERVAL_S`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._due = 0.0

    def due(self) -> bool:
        return perf_counter() >= self._due

    def measure(self) -> None:
        reference()  # untimed: refills the caches the program's work evicted
        started = perf_counter()
        reference()
        finished = perf_counter()
        self.samples.append(finished - started)
        self._due = finished + INTERVAL_S

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
