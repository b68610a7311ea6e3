"""The benchmark's four workloads: their inputs, operations and checks.

Every input comes from the workload seed through this file's own
``numpy.random.default_rng``; nothing is drawn through
``evshape.sample``, so a change to the sampler cannot change the
streams or tables.  (The ``mc-*`` workloads run the harness, which does
sample through ``evshape``; there the seed only picks the config seeds.)

An operation is one ``run_experiment`` config, one CLI invocation or one
direct table call.  Each has an output key (report digest, sha256 of
stdout with the exit code, or the canonical JSON of a returned value)
that is compared with the recorded references, and an invariant that
must hold for every seed, so seeds without references are still checked
for sanity.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from feed import CliResult, TimedLines, run_cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_MASK64 = (1 << 64) - 1


class MissingProgram(RuntimeError):
    pass


def load_evshape():
    """Import ``evshape`` from this checkout's ``src/``, never from elsewhere."""
    init = SRC / "evshape" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no evshape package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import evshape

    if Path(evshape.__file__).resolve() != init.resolve():
        raise MissingProgram(f"evshape imported from {evshape.__file__}, not {init}")
    importlib.import_module("evshape.cli")  # the package does not import it
    return evshape


@dataclass
class Op:
    """One timed operation of a workload."""

    name: str
    units: int  # observations or table entries it processes
    run: Callable[[], Any]
    key: Callable[[Any], str]
    check: Callable[[Any], str | None]  # problem description, or None


def _rng(seed: int, tag: int) -> np.random.Generator:
    # one independent stream per input, so adding an input moves no other
    return np.random.default_rng([seed & _MASK64, tag])


def _shuffled(rng: np.random.Generator, masses, n: int) -> np.ndarray:
    """``n`` values on ``0, 1, ...`` in proportion to ``masses``, in seeded order.

    The counts are fixed (largest remainder), so every seed streams the
    same multiset and only the order changes: the spread and number of
    distinct values, which the streaming cost depends on, do not vary
    from seed to seed.
    """
    p = np.asarray(masses, dtype=float)
    raw = p / p.sum() * n
    counts = np.floor(raw).astype(np.int64)
    counts[np.argsort(counts - raw, kind="stable")[: n - counts.sum()]] += 1
    return rng.permutation(np.repeat(np.arange(len(p)), counts))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# ------------------------------------------------------------------ mc-*


def _mc_ops(ev, seed: int, specs) -> list[Op]:
    harness = ev.harness
    ops = []
    for k, (name, scenario, lo, masses, n, reps, check) in enumerate(specs):
        cfg = harness.ScenarioConfig(
            scenario, ev.make_pmf(lo, masses), n=n, reps=reps, alpha=0.05,
            seed=(seed * 1000 + k) & _MASK64,
        )

        def run(cfg=cfg):
            return harness.run_experiment(cfg)

        def full_check(report, reps=reps, check=check):
            if len(report.records) != reps:
                return f"{len(report.records)} records for {reps} reps"
            return check(report.aggregates)

        ops.append(Op(name, n * reps, run, lambda r: r.digest(), full_check))
    return ops


def _level_bound(reps: int, alpha: float = 0.05) -> float:
    # the acceptance tests' bound: alpha plus three binomial standard errors
    return alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / reps)


def _rate_at_most(key: str, bound: float):
    def check(agg):
        return None if agg[key] <= bound else f"{key} {agg[key]} > {bound}"
    return check


def _positive(key: str):
    def check(agg):
        return None if agg[key] > 0.0 else f"{key} {agg[key]} is not positive"
    return check


def mc_type1(ev, seed: int) -> list[Op]:
    # acceptance 03's largest null, the batched numpy kernel; 500 of its
    # 2000 reps, so that one run holds enough passes for a steady median
    return _mc_ops(ev, seed, [
        ("type1-uniform-100", "type1", 0, [0.01] * 100, 5000, 500,
         _rate_at_most("crossing_rate", _level_bound(500))),
    ])


def mc_sequential(ev, seed: int) -> list[Op]:
    # the per-replication scenarios: pure-Python tracker updates, 400 reps
    return _mc_ops(ev, seed, [
        ("unrestricted-uniform-5", "unrestricted_power", 0, [0.2] * 5, 1000, 300,
         _rate_at_most("rejection_rate", _level_bound(300))),
        ("settlement-narrow", "mode_settlement", 0, [0.2, 0.6, 0.2], 1000, 10,
         lambda agg: None),
        ("growth-rise", "growth", 0, [0.25, 0.75], 1000, 45,
         _positive("mean_rate")),
        ("numeraire-rise", "numeraire_compare", 0, [0.2, 0.3, 0.5], 1000, 45,
         _positive("analytic_epower")),
    ])


# ------------------------------------------------------------ stream-cli

# (name, argv, masses on 0, 1, ..., lines).  The test streams follow a
# null of their own test, with a small alpha, so they run to the end and
# the work per run is fixed.  mode-track gets one narrow stream
# and one spread over a triangle on 300 integers: its cost grows with n
# and with spread.  The spread stream is short because its large numpy
# temporaries slow down on this host in a way the calibration kernel does
# not track (see speed.py), so it must not dominate the workload's time.
# The test streams are kept short enough that mode-track lines are over
# 1 % of all lines, so the p99 line latency is a mode-track line.
_TRIANGLE_300 = np.minimum(np.arange(1, 301), np.arange(300, 0, -1)).tolist()
STREAMS = [
    ("test-monotone", ["test-monotone", "--alpha", "0.001"],
     [0.3, 0.25, 0.2, 0.12, 0.08, 0.05], 20000),
    ("test-unimodal", ["test-unimodal", "--alpha", "0.001", "--theta", "3"],
     [0.05, 0.1, 0.15, 0.3, 0.15, 0.1, 0.1, 0.05], 20000),
    ("test-unimodal-free", ["test-unimodal-free", "--alpha", "0.01", "--phi", "1"],
     [0.1, 0.2, 0.4, 0.2, 0.1], 20000),
    ("mode-track-narrow", ["mode-track", "--alpha", "0.05"],
     [0.25, 0.5, 0.25], 1000),
    ("mode-track-spread", ["mode-track", "--alpha", "0.05"],
     _TRIANGLE_300, 150),
]


def stream_lines(seed: int) -> dict[str, list[str]]:
    return {
        name: [f"{x}\n" for x in _shuffled(_rng(seed, tag), masses, n).tolist()]
        for tag, (name, _argv, masses, n) in enumerate(STREAMS)
    }


def _cli_key(res: CliResult) -> str:
    return f"{res.code}:{_sha(res.stdout)}"


def _stream_check(name: str, n_lines: int):
    def check(res: CliResult) -> str | None:
        if res.code != 0:
            return f"exit code {res.code}: {res.stderr.strip()[-200:]}"
        lines = res.stdout.splitlines()
        if name.startswith("mode-track"):
            if len(lines) != n_lines:
                return f"{len(lines)} output lines for {n_lines} observations"
            return None
        last = json.loads(lines[-1])
        if last.get("decision") != "continue" or last.get("n") != n_lines:
            return f"unexpected final state {lines[-1][:200]}"
        return None
    return check


def stream_cli(ev, seed: int) -> list[Op]:
    cli = ev.cli
    lines = stream_lines(seed)
    ops = []
    for name, argv, _masses, n in STREAMS:
        def run(argv=argv, data=lines[name]):
            return run_cli(cli, argv, TimedLines(data))
        ops.append(Op(name, n, run, _cli_key, _stream_check(name, n)))
    return ops


# ---------------------------------------------------------------- tables

SUPPORTS = (1000, 10000, 100000)
POLAR_U_SUPPORT = 2000  # is_in_polar_U is quadratic in the number of pieces


def _table_inputs(ev, seed: int, size: int, tag: int) -> dict:
    rng = _rng(seed, 100 + tag)
    masses = rng.random(size) + 0.05  # strictly positive, far from monotone
    masses /= masses.sum()
    evalue = rng.random(size)  # entries in [0, 1]: inside both polars
    widths = rng.random(size) + 0.1
    bps = np.concatenate([[0.0], np.cumsum(widths)])
    levels = rng.random(size) + 0.05
    levels /= float((levels * widths).sum())
    return {
        "pmf_text": "".join(f"{i} {m!r}\n" for i, m in enumerate(masses.tolist())),
        "evalue_json": json.dumps({"lo": 0, "values": evalue.tolist(),
                                   "left_tail": 0.5, "right_tail": 0.5}),
        "density_json": json.dumps({"breakpoints": bps.tolist(),
                                    "levels": levels.tolist()}),
        "pmf": ev.make_pmf(0, masses.tolist()),
        "evalue": ev.EvalFn(0, tuple(evalue.tolist()), 0.5, 0.5),
    }


def _step_evalue(ev, seed: int, pieces: int):
    # levels in [0, 1] and tail 1: inside the polar, so every breakpoint is checked
    rng = _rng(seed, 200)
    bps = np.concatenate([[0.0], np.cumsum(rng.random(pieces) + 0.1)])
    return ev.StepFn(tuple(bps.tolist()), tuple(rng.random(pieces).tolist()), 0.0, 1.0)


def _cli_table_check(test: Callable[[dict], bool], what: str):
    def check(res: CliResult) -> str | None:
        if res.code != 0:
            return f"exit code {res.code}: {res.stderr.strip()[-200:]}"
        return None if test(json.loads(res.stdout)) else what
    return check


def _equals(expected):
    def check(value):
        return None if value == expected else f"returned {value!r}, expected {expected!r}"
    return check


def _tilt_check(size: int):
    # a two-point tilt (1 - lam, 1 + lam), in either order, with 0 < lam <= 1/2
    def check(e: dict) -> str | None:
        lo, (a, b) = e["lo"], e["values"]
        lam = abs(b - a) / 2.0
        ok = 0 <= lo < size and 0.0 < lam <= 0.5 and abs(a + b - 2.0) < 1e-12
        return None if ok else f"not a two-point tilt inside the table: {e}"
    return check


def tables(ev, seed: int) -> list[Op]:
    cli, evalues, continuous = ev.cli, ev.evalues, ev.continuous
    ops = []
    for tag, size in enumerate(SUPPORTS):
        inp = _table_inputs(ev, seed, size, tag)
        theta = size // 2

        def cli_op(argv, text):
            return lambda: run_cli(cli, argv, io.StringIO(text))

        ops += [
            Op(f"numeraire-{size}", size, cli_op(["numeraire"], inp["pmf_text"]),
               _cli_key, _cli_table_check(lambda o: o["max_epower"] > 0.0,
                                          "max_epower not positive")),
            Op(f"check-evalue-{size}", size,
               cli_op(["check-evalue", "--theta", str(theta)], inp["evalue_json"]),
               _cli_key, _cli_table_check(
                   lambda o, t=theta: o == {"polar_M": True, f"polar_D_{t}": True},
                   "an e-value bounded by one left a polar")),
            Op(f"cont-numeraire-{size}", size,
               cli_op(["cont-numeraire"], inp["density_json"]),
               _cli_key, _cli_table_check(lambda o: o["max_epower"] > 0.0,
                                          "max_epower not positive")),
            Op(f"witness-{size}", size,
               lambda q=inp["pmf"]: evalues.witness(q).to_json(),
               _canon, _tilt_check(size)),
            Op(f"witness-theta-{size}", size,
               lambda q=inp["pmf"], t=theta: evalues.witness(q, t).to_json(),
               _canon, _tilt_check(size)),
            Op(f"polar-D-{size}", size,
               lambda e=inp["evalue"], t=size // 3: evalues.is_in_polar_D(e, t),
               _canon, _equals(True)),
        ]
    step_e = _step_evalue(ev, seed, POLAR_U_SUPPORT)
    ops.append(Op(f"polar-U-{POLAR_U_SUPPORT}", POLAR_U_SUPPORT,
                  lambda: continuous.is_in_polar_U(step_e), _canon, _equals(True)))
    return ops


WORKLOAD_OPS = {
    "mc-type1": mc_type1,
    "mc-sequential": mc_sequential,
    "stream-cli": stream_cli,
    "tables": tables,
}
WORKLOADS = tuple(WORKLOAD_OPS)


def build(ev, workload: str, seed: int) -> list[Op]:
    return WORKLOAD_OPS[workload](ev, seed)
