"""Tests of the benchmark's own machinery: tracer, stdin wrapper, checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import workloads
from feed import TimedLines, run_cli
from tracer import Target, Tracer, parent_names, root_index, self_times

ev = workloads.load_evshape()


def _bindings() -> dict:
    """Identity of every attribute of every evshape module and class."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "evshape" or name.startswith("evshape.")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = id(member)
    return out


# ---------------------------------------------------------------- tracer


def _span(sid, parent, name, start, end):
    return [sid, parent, name, start, end, 0, 0]


def test_self_time_subtracts_direct_children_only():
    # root 0..100 holds A 10..40 (which holds G 15..25) and B 50..90;
    # a second root 200..210.  Rows are in completion order, as recorded.
    spans = np.array([
        _span(3, 2, 2, 15, 25),
        _span(2, 1, 1, 10, 40),
        _span(4, 1, 1, 50, 90),
        _span(1, 0, 0, 0, 100),
        _span(5, 0, 0, 200, 210),
    ], dtype=np.int64)
    assert self_times(spans).tolist() == [10, 20, 40, 30, 10]
    assert parent_names(spans).tolist() == [1, 0, 0, -1, -1]
    assert root_index(spans).tolist() == [0, 0, 0, 0, 1]


def test_self_time_of_a_leaf_is_its_duration():
    spans = np.array([_span(7, 0, 0, 5, 12)], dtype=np.int64)
    assert self_times(spans).tolist() == [7]
    assert self_times(np.zeros((0, 7), dtype=np.int64)).tolist() == []


def test_tracer_records_nesting_and_counts_then_restores():
    before = _bindings()
    tracer = Tracer(layers.TARGETS)
    with tracer.installed():
        assert _bindings() != before
        fam = ev.UnimodalFamily()
        for x in [0, 1, 2, 1] * 8:  # enough data that a peak can be rejected
            fam.update(x)
        result = ev.mode.confidence_set(fam, 0.05)
    assert _bindings() == before
    spans = tracer.take_spans()
    names = tracer.names
    got = [names[i] for i in spans[:, 2]]
    assert got.count("eprocess.UnimodalFamily.update") == 32
    assert got.count("mode.confidence_set") == 1
    vr = got.index("eprocess.UnimodalFamily.values_range")
    assert names[parent_names(spans)[vr]] == "mode.confidence_set"
    lo, hi = result.window
    assert spans[vr, 5] == hi - lo + 1
    cs = got.index("mode.confidence_set")
    assert spans[cs, 5] == hi - lo + 1
    assert spans[cs, 6] == len(result.rejected.members)
    assert len(tracer.take_spans()) == 0


def test_tracer_sees_calls_inside_a_module():
    # cli's numeraire command reaches lcm once directly and three times
    # through numeraire's own functions
    tracer = Tracer([Target("numeraire", "lcm"), Target("cli", "main")])
    with tracer.installed():
        res = run_cli(ev.cli, ["numeraire"], io.StringIO("0 0.1\n1 0.9\n"))
    assert res.code == 0
    spans = tracer.take_spans()
    lcm = spans[:, 2] == tracer.names.index("numeraire.lcm")
    assert lcm.sum() == 4
    assert {tracer.names[p] for p in parent_names(spans)[lcm]} == {"cli.main"}


def test_tracer_restores_even_when_the_traced_code_raises():
    before = _bindings()
    tracer = Tracer(layers.TARGETS)
    with pytest.raises(ev.NegativeObservation):
        with tracer.installed():
            ev.MonotoneTracker().update(-1)
    assert _bindings() == before
    spans = tracer.take_spans()
    assert len(spans) == 1 and spans[0, 4] >= spans[0, 3]


def _short_stream_ops(seed: int = 1, lines: int = 200) -> list[workloads.Op]:
    ops = []
    for name, argv, _masses, _n in workloads.STREAMS:
        data = workloads.stream_lines(seed)[name][:lines]
        ops.append(workloads.Op(
            name, len(data), lambda argv=argv, data=data: run_cli(ev.cli, argv, TimedLines(data)),
            workloads._cli_key, workloads._stream_check(name, len(data))))
    return ops


def test_traced_run_leaves_no_wrapper_installed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    before = _bindings()
    judge = run.Judge(None)
    ops = _short_stream_ops()
    metrics, detail = run.traced_run(ops, judge, "short", 0.0)
    assert _bindings() == before
    assert judge.failed == 0, judge.problems
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    assert metrics["cli.main.calls"] == 5
    # one confidence set per mode-track line
    assert metrics["mode.confidence_set.calls"] == sum(
        op.units for op in ops if op.name.startswith("mode-track"))
    assert metrics["trace.overhead_ratio"] > 0.0
    assert (tmp_path / "trace-short.npz").is_file()


# ------------------------------------------------------------ stdin feed


@pytest.mark.parametrize("index", range(len(workloads.STREAMS)))
def test_timed_lines_feed_gives_identical_output(index):
    name, argv, _masses, _n = workloads.STREAMS[index]
    data = workloads.stream_lines(3)[name][:300]
    timed = TimedLines(data)
    a = run_cli(ev.cli, argv, timed)
    b = run_cli(ev.cli, argv, io.StringIO("".join(data)))
    assert (a.code, a.stdout) == (b.code, b.stdout)
    assert a.stdout
    assert len(a.gaps_ns) == len(data) and (a.gaps_ns > 0).all()


# ------------------------------------------------------------- workloads


def test_inputs_come_from_the_benchmarks_own_generator(monkeypatch):
    expected = workloads.stream_lines(5)
    table = workloads._table_inputs(ev, 5, 50, 0)

    def forbidden(*args, **kwargs):
        raise AssertionError("inputs must not be drawn through evshape.sample")

    for mod in (ev, ev.pmf, ev.harness):
        monkeypatch.setattr(mod, "sample", forbidden)
    assert workloads.stream_lines(5) == expected
    assert workloads._table_inputs(ev, 5, 50, 0)["pmf_text"] == table["pmf_text"]
    assert workloads.stream_lines(6) != expected


def test_judge_counts_mismatch_as_failed_and_missing_seed_as_unchecked():
    op = workloads.Op("op", 1, lambda: 1, lambda raw: str(raw), lambda raw: None)
    checked = run.Judge({"op": "1"})
    checked.judge(op, 1, None)
    checked.judge(op, 2, None)
    assert (checked.attempted, checked.failed, checked.checked) == (2, 1, 2)
    unchecked = run.Judge(None)
    unchecked.judge(op, 1, None)
    unchecked.judge(op, 2, None)  # differs from its own first output
    unchecked.judge(op, None, "raised ValueError")
    assert (unchecked.attempted, unchecked.failed, unchecked.checked) == (3, 2, 0)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((Path(run.__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
