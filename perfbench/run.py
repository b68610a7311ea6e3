"""Run one evshape benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream-cli --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run repeats the workload's timed section (one
pass over all its operations) until ``--seconds`` have gone by and
reports the end-to-end metrics: each timing is scaled to a reference
host speed (see ``speed.py``) and taken as the median over the passes.  With ``--trace 1`` it alternates an
untraced pass with a traced pass, in which every public evshape
function the workload reaches records a span, and reports the
per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record
(environment, per-operation outcomes) goes to ``perfbench/_out/``.

Load comes from this one process: ``EVSHAPE_WORKERS`` is removed from
the environment before ``evshape`` is imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import layers
import speed
from tracer import SPAN_FIELDS, Tracer
from workloads import ROOT, WORKLOADS, MissingProgram, Op, build, load_evshape

HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"
REFERENCES = HERE / "references.json"
SETUP_REPEATS = 5

# (name, unit) of every end-to-end metric, in report order
END_TO_END = [
    ("wall_s", "s"),
    ("obs_latency_p50_us", "us"),
    ("obs_latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


# ---------------------------------------------------------------- checks


class Judge:
    """Decides, per operation run, whether it failed.

    An operation fails if it raised, if its invariant does not hold, if
    its output differs from the recorded reference for this seed, or if
    it differs from its own first output in this run.
    """

    def __init__(self, references: dict | None) -> None:
        self.references = references
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.problems: list[str] = []

    def judge(self, op: Op, raw, error: str | None) -> str:
        self.attempted += 1
        problem, key = error, None
        if problem is None:
            key = op.key(raw)
            problem = op.check(raw)
        if problem is None and self.references is not None:
            ref = self.references.get(op.name)
            if ref is None:
                problem = "no reference recorded for this operation"
            else:
                self.checked += 1
                if key != ref:
                    problem = f"output {key[:80]} differs from reference {ref[:80]}"
        if problem is None:
            seen = self.first.setdefault(op.name, key)
            if seen != key:
                problem = "output differs from this run's first output"
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.name}: {problem}")
        return key


def load_references(workload: str, seed: int) -> dict | None:
    if not REFERENCES.is_file():
        return None
    refs = json.loads(REFERENCES.read_text())
    return refs["seeds"].get(str(seed), {}).get(workload)


# ----------------------------------------------------------------- passes


@dataclass
class PassResult:
    """One pass.  ``op_s`` and ``gaps_ns`` are scaled to reference speed
    (see ``speed.py``); ``raw_op_s`` are the clock readings."""

    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    op_s: dict[str, float] = field(default_factory=dict)
    raw_op_s: dict[str, float] = field(default_factory=dict)
    gaps_ns: dict[str, np.ndarray] = field(default_factory=dict)
    cal: list[float] = field(default_factory=list)
    output_bytes: int = 0
    keys: dict[str, str] = field(default_factory=dict)


def run_pass(ops: list[Op], judge: Judge) -> PassResult:
    """Time every operation once, with the calibration kernel timed before
    and after each; check outputs after the timers stop."""
    gc.collect()
    res = PassResult()
    before = speed.calibrate()
    res.cal += before
    for op in ops:
        error = None
        t0 = perf_counter_ns()
        try:
            raw = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            raw, error = None, f"raised {type(exc).__name__}: {exc}"
        dt = (perf_counter_ns() - t0) / 1e9
        after = speed.calibrate()
        res.cal += after
        k = speed.scale(before + after)
        before = after
        res.raw_op_s[op.name] = dt
        res.raw_wall_s += dt
        res.op_s[op.name] = dt * k
        res.wall_s += dt * k
        if getattr(raw, "gaps_ns", None) is not None:
            res.gaps_ns[op.name] = raw.gaps_ns * k
        res.output_bytes += len(getattr(raw, "stdout", ""))
        res.keys[op.name] = judge.judge(op, raw, error)
    return res


def median_op_s(passes: list[PassResult]) -> dict[str, float]:
    """Each operation's median scaled time over the passes."""
    return {name: statistics.median(p.op_s[name] for p in passes)
            for name in passes[0].op_s}


def latencies_us(ops: list[Op], passes: list[PassResult]) -> np.ndarray:
    """Per-observation latency samples, one per observation.

    Streaming CLI commands give one sample per stdin line: the time from
    the CLI pulling that line to pulling the next, median over the
    passes.  Other operations give one sample each: their median time
    divided by the observations or table entries they process.
    """
    streamed = [op.name for op in ops if op.name in passes[0].gaps_ns]
    if streamed:
        per_op = []
        for name in streamed:
            runs = [p.gaps_ns[name] for p in passes if name in p.gaps_ns]
            n = min(len(g) for g in runs)
            per_op.append(np.median([g[:n] for g in runs], axis=0))
        return np.concatenate(per_op) / 1e3
    med = median_op_s(passes)
    return np.array([med[op.name] / op.units * 1e6 for op in ops])


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Time fresh interpreters that import evshape and build inputs.

    Returns the times scaled to reference speed, and the raw times.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    env = {k: v for k, v in os.environ.items() if k != "EVSHAPE_WORKERS"}
    scaled, raw = [], []
    before = speed.calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        raw.append(perf_counter() - t0)
        after = speed.calibrate()
        scaled.append(raw[-1] * speed.scale(before + after))
        before = after
    return scaled, raw


# ------------------------------------------------------------ environment


def git_rev() -> str:
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                 capture_output=True, text=True).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    return rev


def environment(load_1m: float, workers_was: str | None) -> dict:
    import evshape

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "evshape": evshape.__version__,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_1m_at_start": load_1m,
        "evshape_workers": "cleared" + ("" if workers_was is None
                                        else f" (was {workers_was!r})"),
    }


# ------------------------------------------------------------------- runs


def repeat_within(seconds: float):
    """Yield until one more round, as long as the longest so far, would end
    after ``seconds``; always yields at least once."""
    start = perf_counter()
    longest = 0.0
    while True:
        t0 = perf_counter()
        yield
        longest = max(longest, perf_counter() - t0)
        if perf_counter() - start + longest > seconds:
            return


def plain_run(ops, judge, workload, seed, seconds) -> tuple[dict, dict]:
    setup, setup_raw = measure_setup(workload, seed)
    passes = []
    for _ in repeat_within(seconds):
        passes.append(run_pass(ops, judge))
    lat = latencies_us(ops, passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": math.fsum(median_op_s(passes).values()),
        "obs_latency_p50_us": float(np.percentile(lat, 50)),
        "obs_latency_p99_us": float(np.percentile(lat, 99)),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup),
    }
    detail = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "latency_samples": int(lat.size),
        "setup_runs_s": setup,
        "setup_runs_raw_s": setup_raw,
        "raw_pass_wall_s": [p.raw_wall_s for p in passes],
        "cal_median_s": [statistics.median(p.cal) for p in passes],
        "op_s": [p.op_s for p in passes],
        "raw_op_s": [p.raw_op_s for p in passes],
    }
    return metrics, detail


def traced_run(ops, judge, workload, seconds) -> tuple[dict, dict]:
    tracer = Tracer(layers.TARGETS)
    plain, traced, per_pass = [], [], []
    first_spans = None
    for _ in repeat_within(seconds):
        # alternate which of the pair runs first, so warm-up favours neither
        if len(traced) % 2:
            plain.append(run_pass(ops, judge))
        with tracer.installed():
            traced.append(run_pass(ops, judge))
        if len(traced) % 2:
            plain.append(run_pass(ops, judge))
        spans = tracer.take_spans()
        m = layers.layer_metrics(spans, tracer.names, traced[-1].output_bytes)
        k = speed.scale(traced[-1].cal)
        per_pass.append({name: v * k if name.endswith(".self_s") else v
                         for name, v in m.items()})
        if first_spans is None:
            first_spans = spans
    # counts repeat exactly from pass to pass; times take the median pass
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_ratio"] = (
        math.fsum(median_op_s(traced).values()) / math.fsum(median_op_s(plain).values())
    )
    OUT.mkdir(exist_ok=True)
    np.savez(OUT / f"trace-{workload}.npz", spans=first_spans,
             names=np.array(tracer.names), fields=np.array(SPAN_FIELDS))
    detail = {
        "pairs": len(traced),
        "untraced_wall_s": [p.wall_s for p in plain],
        "traced_wall_s": [p.wall_s for p in traced],
        "self_time_share": layers.self_time_shares(first_spans, tracer.names),
        "spans_per_pass": int(len(first_spans)),
    }
    return metrics, detail


def report(workload, seed, trace, metrics, units, detail, judge, env) -> None:
    print(f"perfbench workload={workload} seed={seed} trace={trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if judge.references is None:
        print(f"references: none recorded for seed {seed}; "
              f"{judge.attempted} outputs unchecked against references "
              f"(invariants and in-run repeatability still checked)")
    else:
        print(f"references: {judge.checked}/{judge.attempted} outputs checked "
              f"against the recording for seed {seed}")
    for problem in judge.problems:
        print(f"FAILED {problem}")
    if trace:
        print(f"traced pairs: {detail['pairs']}, spans per traced pass: "
              f"{detail['spans_per_pass']}")
        print("self-time share: " + ", ".join(
            f"{name} {share:.1%}" for name, share in detail["self_time_share"][:6]))
    else:
        print(f"passes: {detail['passes']}, latency samples: "
              f"{detail['latency_samples']}, setup runs: {len(detail['setup_runs_s'])}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")


def run_all(args) -> int:
    """Run every workload in its own process; print each one's report."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    failed = sum(r["failed"] for r in results.values())
    print(f"all workloads: {failed} failed of "
          f"{sum(r['attempted'] for r in results.values())} attempted")
    print(json.dumps(results))
    return 1 if failed else 0


def main(argv=None) -> int:
    load_1m = os.getloadavg()[0]
    workers_was = os.environ.pop("EVSHAPE_WORKERS", None)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        ev = load_evshape()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    ops = build(ev, args.workload, args.seed)
    if args.setup_probe:
        return 0
    env = environment(load_1m, workers_was)
    judge = Judge(load_references(args.workload, args.seed))
    if args.trace:
        metrics, detail = traced_run(ops, judge, args.workload, args.seconds)
        units = layers.UNITS
    else:
        metrics, detail = plain_run(ops, judge, args.workload, args.seed, args.seconds)
        units = dict(END_TO_END)
    report(args.workload, args.seed, args.trace, metrics, units, detail, judge, env)
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "metrics": metrics, "detail": detail,
              "attempted": judge.attempted, "failed": judge.failed,
              "checked_against_references": judge.checked,
              "problems": judge.problems}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
