"""Wrappers installed from outside the program.

The benchmark never edits the program: it replaces module and class
attributes with wrappers at the place where the caller looks them up
(`agent.map_execute`, not `world_model.map_execute`, because `agent`
imported the name), and puts the originals back afterwards.
"""
from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable


class Patcher:
    """Replaces attributes and restores the originals on `restore()`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set `owner.attr` to `make(current)`.

        The attribute must be defined on `owner` itself, so a wrapper never
        lands on a copy that the caller does not read.
        """
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attr!r} itself")
        current = vars(owner)[attr]
        self._saved.append((owner, attr, current))
        setattr(owner, attr, make(current))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Spans:
    """Per-layer call counts and self times.

    A span's self time is its duration minus the time its wrapped children
    took.  Time the benchmark spends on its own checks is taken out with
    `excluded()`: from the enclosing span's self time and from the round
    clock (`excluded_s`).
    """

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.excluded_s = 0.0
        self._stack: list[list] = []  # [name, time taken by children]

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.excluded_s = 0.0

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack, calls, self_s = self._stack, self.calls, self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1][0] == name:
                # delegation to the same layer function (the noisy proposer
                # asks the oracle it wraps): one call, not two
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - started
                stack.pop()
                calls[name] += 1
                self_s[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took

        return span

    @contextmanager
    def excluded(self):
        started = perf_counter()
        try:
            yield
        finally:
            took = perf_counter() - started
            self.excluded_s += took
            if self._stack:
                self._stack[-1][1] += took


def timed(samples: list[float], fn: Callable) -> Callable:
    """Call timer: appends each call's duration in seconds to `samples`."""

    @functools.wraps(fn)
    def timer(*args, **kwargs):
        started = perf_counter()
        result = fn(*args, **kwargs)
        samples.append(perf_counter() - started)
        return result

    return timer
