"""Drive ``evshape.cli.main`` in process, with stdin and stdout swapped out.

``TimedLines`` stands in for stdin on the streaming commands.  It stamps
the clock each time the CLI pulls a line, so the gap between two pulls
is the time the CLI spent on one observation (parse, update, query,
emit).  This needs no change to ``cli.py``: the streaming commands read
``sys.stdin`` line by line through iteration, which is all this class
provides.
"""

from __future__ import annotations

import io
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np


class TimedLines:
    """Iterable of stdin lines that records when each line is pulled."""

    def __init__(self, lines: list[str]) -> None:
        self._lines = iter(lines)
        self._stamps = array("q")

    def __iter__(self) -> "TimedLines":
        return self

    def __next__(self) -> str:
        self._stamps.append(perf_counter_ns())
        return next(self._lines)

    def gaps_ns(self) -> np.ndarray:
        """Time from each pull to the next; the last gap ends at end-of-input."""
        return np.diff(np.frombuffer(self._stamps, dtype=np.int64))


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    gaps_ns: np.ndarray | None = None


def run_cli(cli, argv: list[str], stdin) -> CliResult:
    """Call ``cli.main(argv)`` with ``stdin`` as ``sys.stdin``; capture output.

    ``cli`` is the module, looked up at call time so that a wrapper
    installed on ``cli.main`` is the one called.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = stdin, out, err
    try:
        code = cli.main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    gaps = stdin.gaps_ns() if isinstance(stdin, TimedLines) else None
    return CliResult(code, out.getvalue(), err.getvalue(), gaps)
