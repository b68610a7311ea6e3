"""Span tracer that wraps evshape's public functions from outside the package.

A target names one public function or class method of an evshape
module.  Installing the tracer replaces the function at every place
the package binds it: the defining module (so intra-module calls such
as ``numeraire.max_epower -> numeraire.lcm`` are seen), every module
that imported it by name (``harness.sample``, ``cli.confidence_set``)
and the package namespace.  A method is replaced on its class.
``restore`` puts every original object back; nothing in ``src/`` is
edited.

Each call records one span: id, parent id, name, start, end and two
integer counts read from the call's arguments or return value.  Spans
stay in a flat in-memory buffer until the caller asks for them.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

import numpy as np

SPAN_FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "a1", "a2")
_NF = len(SPAN_FIELDS)

# counts(args, kwargs, result) -> (a1, a2); not called when the call raised
Counter = Callable[[tuple, dict, object], tuple[int, int]]


@dataclass(frozen=True)
class Target:
    module: str  # submodule of evshape, e.g. "eprocess"
    attr: str  # "lcm" or "UnimodalFamily.update"
    counts: Counter | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    """Install wrappers for ``targets``; collect spans; restore originals."""

    def __init__(self, targets: list[Target]) -> None:
        self.targets = list(targets)
        self.names = [t.name for t in self.targets]
        self._buf = array("q")
        self._stack = [0]
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    @staticmethod
    def _modules() -> list:
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "evshape" or name.startswith("evshape."))
        ]

    def _wrapper(self, fn, name_id: int, counts: Counter | None):
        buf, stack, ids, clock = self._buf, self._stack, self._ids, perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            result, returned = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                a1, a2 = counts(args, kwargs, result) if counts and returned else (0, 0)
                buf.extend((sid, parent, name_id, start, end, a1, a2))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.restore()
            raise

    def _install(self) -> None:
        modules = self._modules()
        for name_id, target in enumerate(self.targets):
            home = sys.modules[f"evshape.{target.module}"]
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                cls = getattr(home, owner_name)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrapper(original, name_id, target.counts))
                continue
            original = getattr(home, attr)
            wrapped = self._wrapper(original, name_id, target.counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # --------------------------------------------------------------- spans

    def take_spans(self) -> np.ndarray:
        """Return the recorded spans as an ``(n, 7)`` int64 array and clear."""
        spans = np.frombuffer(self._buf, dtype=np.int64).reshape(-1, _NF).copy()
        del self._buf[:]  # in place: the installed wrappers hold this buffer
        return spans


def self_times(spans: np.ndarray) -> np.ndarray:
    """Self time of every span: its duration minus what its children cover.

    Spans come from one thread, so children of a span nest inside it and
    do not overlap each other; the time they cover is the sum of their
    durations.
    """
    if len(spans) == 0:
        return np.zeros(0, dtype=np.int64)
    ids, parents = spans[:, 0], spans[:, 1]
    dur = spans[:, 4] - spans[:, 3]
    row = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
    row[ids] = np.arange(len(spans))
    child = np.zeros(len(spans), dtype=np.int64)
    has_parent = parents > 0
    np.add.at(child, row[parents[has_parent]], dur[has_parent])
    return dur - child


def parent_names(spans: np.ndarray) -> np.ndarray:
    """Name id of each span's parent; -1 for root spans."""
    out = np.full(len(spans), -1, dtype=np.int64)
    if len(spans) == 0:
        return out
    row = np.full(int(spans[:, 0].max()) + 1, -1, dtype=np.int64)
    row[spans[:, 0]] = np.arange(len(spans))
    has_parent = spans[:, 1] > 0
    out[has_parent] = spans[row[spans[has_parent, 1]], 2]
    return out


def root_index(spans: np.ndarray) -> np.ndarray:
    """Index (into the sorted root spans) of the root that encloses each span."""
    roots = spans[spans[:, 1] == 0]
    starts = np.sort(roots[:, 3])
    return np.searchsorted(starts, spans[:, 3], side="right") - 1
