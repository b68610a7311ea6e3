"""Experiment runner: determinism, config handling, engine fidelity."""

import json
import math
import os

import pytest

from evshape.eprocess import MonotoneTracker
from evshape.errors import ConfigError
from evshape.harness import (
    RunReport,
    ScenarioConfig,
    config_from_json,
    derive_seed,
    pool_size,
    run_experiment,
    worker_count,
)
from evshape.pmf import make_pmf, sample

UNIFORM10 = make_pmf(0, [0.1] * 10)


def config(**overrides):
    base = dict(scenario="growth", distribution=make_pmf(0, [0.25, 0.75]),
                n=50, reps=2, alpha=0.05, seed=3)
    base.update(overrides)
    return ScenarioConfig(**base)


# ------------------------------------------------------------ seed splitting


def test_derive_seed_is_stable():
    # frozen mix outputs; a change here breaks every recorded report
    assert derive_seed(0, 0) == 16294208416658607535
    assert derive_seed(0, 1) == 7960286522194355700
    assert derive_seed(12345, 7) == derive_seed(12345, 7)
    assert derive_seed(12345, 7) != derive_seed(12345, 8)
    assert derive_seed(12345, 7) != derive_seed(12346, 7)


def test_derived_seeds_do_not_collide():
    seen = {derive_seed(99, r) for r in range(10_000)}
    assert len(seen) == 10_000


# ------------------------------------------------------------ configuration


def test_config_validation():
    with pytest.raises(ConfigError, match="scenario"):
        config(scenario="nope")
    with pytest.raises(ConfigError, match="reps"):
        config(reps=0)
    with pytest.raises(ConfigError, match="n"):
        config(n=0)
    for alpha in (0.0, 1.0, -1.0):
        with pytest.raises(ConfigError, match="alpha"):
            config(alpha=alpha)
    with pytest.raises(ConfigError, match="support"):
        config(scenario="type1", distribution=make_pmf(-1, [0.5, 0.5]))


def test_config_defaults():
    c = config()
    assert c.resolved_phi == 0
    assert c.resolved_clip == (-20, 20)
    free = config(scenario="unrestricted_power",
                  distribution=make_pmf(0, [1.0]))
    assert free.resolved_phi == 1


def test_config_json_round_trip():
    c = config(seed=77, clip=(-5, 5))
    again = config_from_json(c.to_json())
    assert again == c
    assert config_from_json(json.dumps(c.to_json())) == c


def test_config_json_rejects_unknown_keys():
    obj = config().to_json()
    obj["typo"] = 1
    with pytest.raises(ConfigError, match="typo"):
        config_from_json(obj)
    with pytest.raises(ConfigError):
        config_from_json({"scenario": "growth"})


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("EVSHAPE_WORKERS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("EVSHAPE_WORKERS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("EVSHAPE_WORKERS", "zero")
    with pytest.raises(ConfigError):
        worker_count()
    monkeypatch.setenv("EVSHAPE_WORKERS", "0")
    with pytest.raises(ConfigError):
        worker_count()


def test_pool_size_is_capped_by_reps_and_cpus():
    assert pool_size(1, 100, 8) == 1
    assert pool_size(4, 100, 8) == 4
    assert pool_size(10_000, 100, 8) == 8
    assert pool_size(10_000, 3, 8) == 3
    assert pool_size(6, 100, None) == 1


# ------------------------------------------------------------------ reports


def test_trivial_single_step_report():
    c = ScenarioConfig("type1", UNIFORM10, n=1, reps=1, alpha=0.05, seed=1)
    report = run_experiment(c)
    assert len(report.records) == 1
    rec = report.records[0]
    assert rec["crossed"] is False
    assert rec["terminal_log"] == pytest.approx(0.0, abs=1e-12)


def test_report_is_byte_deterministic():
    c = ScenarioConfig("type1", UNIFORM10, n=400, reps=8, alpha=0.05, seed=21)
    a = run_experiment(c)
    b = run_experiment(c)
    assert a.to_json() == b.to_json()
    assert a.digest() == b.digest()
    moved = run_experiment(ScenarioConfig("type1", UNIFORM10, n=400, reps=8,
                                          alpha=0.05, seed=22))
    assert moved.digest() != a.digest()


def test_report_carries_config_and_version():
    report = run_experiment(config())
    payload = json.loads(report.to_json())
    assert payload["config"]["scenario"] == "growth"
    assert payload["library_version"]
    assert list(payload) == sorted(payload)


def test_aggregates_csv():
    report = run_experiment(config())
    lines = report.aggregates_csv().strip().splitlines()
    keys = {line.split(",")[0] for line in lines}
    assert "mean_rate" in keys


def assert_type1_matches_tracker_replay(c):
    report = run_experiment(c)
    threshold = math.log(1.0 / c.alpha)
    for rec in report.records:
        tracker = MonotoneTracker()
        crossing = None
        for t, x in enumerate(sample(c.distribution,
                                     derive_seed(c.seed, rec["rep"]), c.n)):
            tracker.update(x)
            if crossing is None and tracker.mixture_value() >= threshold:
                crossing = t + 1
        assert rec["terminal_log"] == pytest.approx(tracker.mixture_value(),
                                                    abs=1e-9)
        assert rec["crossed"] == (crossing is not None)
        assert rec["crossing_time"] == crossing
    return report


def test_type1_engine_matches_tracker_replay():
    """The vectorized path must reproduce the reference tracker exactly."""
    assert_type1_matches_tracker_replay(
        ScenarioConfig("type1", make_pmf(0, [0.25, 0.25, 0.25, 0.25]),
                       n=300, reps=6, alpha=0.05, seed=5))


GEOMETRIC = make_pmf(0, [2.0 ** -(k + 1) for k in range(29)] + [2.0 ** -29])


@pytest.mark.parametrize("dist, n, reps, alpha, crosses", [
    # every draw is 0, the row shape with no tilt below the observation
    (make_pmf(0, [1.0]), 300, 3, 0.05, False),
    (GEOMETRIC, 600, 4, 0.05, False),
    # block edges of the streamed draws
    (UNIFORM10, 1, 3, 0.05, False),
    (UNIFORM10, 255, 3, 0.05, False),
    (UNIFORM10, 256, 3, 0.05, False),
    (UNIFORM10, 257, 3, 0.05, False),
    (UNIFORM10, 513, 3, 0.05, False),
    (UNIFORM10, 700, 1, 0.05, False),
    # rising alternatives, one with support starting above zero
    (make_pmf(0, [0.1, 0.2, 0.3, 0.4]), 300, 4, 0.05, True),
    (make_pmf(2, [0.2, 0.3, 0.5]), 400, 3, 0.1, True),
])
def test_type1_engine_edge_cases_match_tracker_replay(dist, n, reps, alpha,
                                                      crosses):
    report = assert_type1_matches_tracker_replay(
        ScenarioConfig("type1", dist, n=n, reps=reps, alpha=alpha, seed=n))
    assert (report.aggregates["crossing_rate"] > 0.0) == crosses


@pytest.mark.parametrize("c, digest", [
    (ScenarioConfig("type1", UNIFORM10, n=700, reps=5, alpha=0.05, seed=11),
     "6b857de138a8e99c6d38374759807512b5cc3d2e18531fb41802a2d2e90ba823"),
    (ScenarioConfig("type1", make_pmf(0, [0.5, 0.25, 0.125, 0.0625, 0.0625]),
                    n=513, reps=4, alpha=0.1, seed=12),
     "fe86d5f558b26f77646a00004db50da04d15333665026334a01e127cef7e2673"),
    (ScenarioConfig("type1", make_pmf(2, [0.3, 0.3, 0.4]), n=257, reps=3,
                    alpha=0.05, seed=14),
     "7738a6521210a50f872ff0ec44c02a22eb64db9e7450a0d8ef8d1a3195467fdd"),
])
def test_type1_digests_are_pinned(c, digest):
    # recorded with the earlier engine that materialized every draw; the
    # streamed engine must reproduce reports byte for byte
    assert run_experiment(c).digest() == digest


def test_worker_count_does_not_change_reports():
    c = ScenarioConfig("growth", make_pmf(0, [0.25, 0.75]), n=150, reps=4,
                       alpha=0.05, seed=13)
    serial = run_experiment(c)
    saved = os.environ.get("EVSHAPE_WORKERS")
    os.environ["EVSHAPE_WORKERS"] = "2"
    try:
        parallel = run_experiment(c)
    finally:
        if saved is None:
            os.environ.pop("EVSHAPE_WORKERS", None)
        else:
            os.environ["EVSHAPE_WORKERS"] = saved
    assert parallel.to_json() == serial.to_json()


def test_scenarios_all_run_small():
    cases = [
        ScenarioConfig("type1", UNIFORM10, n=50, reps=2, alpha=0.05, seed=1),
        ScenarioConfig("growth", make_pmf(0, [0.25, 0.75]), n=50, reps=2,
                       alpha=0.05, seed=1),
        ScenarioConfig("ci_coverage", make_pmf(0, [0.2, 0.6, 0.2]), n=1,
                       reps=1, alpha=0.1, seed=1),
        ScenarioConfig("mode_settlement", make_pmf(0, [0.2, 0.6, 0.2]),
                       n=400, reps=2, alpha=0.05, seed=1),
        ScenarioConfig("unrestricted_power", make_pmf(0, [0.4, 0.1, 0.5]),
                       n=400, reps=2, alpha=0.05, seed=1),
        ScenarioConfig("numeraire_compare", make_pmf(0, [0.25, 0.75]),
                       n=200, reps=2, alpha=0.05, seed=1),
    ]
    for c in cases:
        report = run_experiment(c)
        assert len(report.records) == c.reps or c.scenario == "ci_coverage"
        assert report.aggregates


def test_ci_coverage_exact_sums():
    c = ScenarioConfig("ci_coverage", make_pmf(0, [0.1, 0.2, 0.4, 0.2, 0.1]),
                       n=1, reps=1, alpha=0.25, seed=0)
    agg = run_experiment(c).aggregates
    assert agg["target"] == pytest.approx(0.75)
    assert agg["min_mode_coverage"] >= agg["target"] - 1e-12
    assert 0.0 <= agg["coverage_all_modes"] <= 1.0 + 1e-12
