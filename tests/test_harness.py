"""Experiment runner: determinism, config handling, engine fidelity."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evshape.eprocess import MonotoneTracker, UnimodalFamily, _tilt_rows
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
from evshape.mode import UnrestrictedTest, mode_estimate
from evshape.pmf import make_pmf, mode_set, sample

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


# ------------------------------------- sequential engine against the trackers
#
# The scalar replications the time-blocked engine replaced, kept as the
# reference: ``sample`` driving ``UnrestrictedTest``, and a
# ``UnimodalFamily`` queried by ``mode_estimate`` after every step.


def reference_unrestricted(c, rep):
    test = UnrestrictedTest(c.alpha, c.resolved_phi)
    for x in sample(c.distribution, derive_seed(c.seed, rep), c.n):
        if test.step(x) == "reject":
            return {"rep": rep, "rejected": True, "reject_n": test.rejected_at}
    return {"rep": rep, "rejected": False, "reject_n": None}


def reference_settlement(c, rep):
    clip = c.resolved_clip
    family = UnimodalFamily()
    current, last_change = (), 0
    for t, x in enumerate(sample(c.distribution, derive_seed(c.seed, rep), c.n)):
        family.update(x)
        got = mode_estimate(family, clip).intersect_range(*clip)
        if got != current:
            current, last_change = got, t + 1
    modes = mode_set(c.distribution)
    target = tuple(t for t in range(clip[0], clip[1] + 1) if modes.contains(t))
    return {"rep": rep, "final_set": list(current), "target_set": list(target),
            "matches_target": current == target, "last_change_n": last_change}


REFERENCES = {"unrestricted_power": reference_unrestricted,
              "mode_settlement": reference_settlement}


def assert_engine_matches_reference(c):
    report = run_experiment(c)
    reference = REFERENCES[c.scenario]
    assert list(report.records) == [reference(c, rep) for rep in range(c.reps)]
    return report


@st.composite
def sequential_configs(draw, scenario):
    weights = draw(st.lists(st.integers(0, 6), min_size=1, max_size=6)
                   .filter(any))
    extra = {}
    if scenario == "unrestricted_power":
        extra["phi"] = draw(st.sampled_from([1, -1, 2, -3, 5]))
        alpha = draw(st.sampled_from([0.05, 0.2, 0.5]))
    else:
        alpha = 0.05
        if draw(st.booleans()):
            a = draw(st.integers(-8, 4))
            extra["clip"] = (a, a + draw(st.integers(0, 12)))
    return ScenarioConfig(
        scenario,
        make_pmf(draw(st.integers(-4, 3)), [w / sum(weights) for w in weights]),
        n=draw(st.sampled_from([1, 2, 256, 257, 513]) | st.integers(1, 300)),
        reps=draw(st.integers(1, 2)), alpha=alpha,
        seed=draw(st.integers(0, 2**32)), **extra)


@settings(max_examples=40, deadline=None, database=None)
@given(c=sequential_configs("unrestricted_power"))
def test_unrestricted_engine_matches_scalar_test(c):
    assert_engine_matches_reference(c)


@settings(max_examples=20, deadline=None, database=None)
@given(c=sequential_configs("mode_settlement"))
def test_settlement_engine_matches_scalar_family(c):
    assert_engine_matches_reference(c)


@pytest.mark.parametrize("c, reject_n", [
    # inside the first block of draws, after a full scan that moved the
    # tracked peak; negative support and phi = 2
    (ScenarioConfig("unrestricted_power", make_pmf(-2, [0.5, 0.0, 0.5]),
                    n=300, reps=1, alpha=0.3, seed=1, phi=2), 159),
    # blocks of 256 family steps start after the first draw: the last
    # row of the first block, the first row of the second, and both
    # edges of the second and third
    (ScenarioConfig("unrestricted_power", make_pmf(0, [0.45, 0.1, 0.45]),
                    n=600, reps=1, alpha=0.1, seed=127), 257),
    (ScenarioConfig("unrestricted_power", make_pmf(0, [0.45, 0.1, 0.45]),
                    n=600, reps=1, alpha=0.1, seed=26), 258),
    (ScenarioConfig("unrestricted_power", make_pmf(0, [0.4, 0.1, 0.5]),
                    n=600, reps=1, alpha=0.05, seed=156), 513),
    (ScenarioConfig("unrestricted_power", make_pmf(0, [0.4, 0.1, 0.5]),
                    n=600, reps=1, alpha=0.05, seed=93), 514),
])
def test_unrestricted_engine_rejects_where_the_scalar_test_does(c, reject_n):
    report = assert_engine_matches_reference(c)
    assert report.records[0]["reject_n"] == reject_n


@pytest.mark.parametrize("c, digest", [
    (ScenarioConfig("unrestricted_power", make_pmf(0, [0.4, 0.1, 0.5]),
                    n=2000, reps=6, alpha=0.05, seed=41),
     "9f468fc057a9d4aadbded2211e57bf03631bd6b61eb71129a6e4aa91f61b6796"),
    (ScenarioConfig("unrestricted_power",
                    make_pmf(-2, [0.3, 0.05, 0.3, 0.05, 0.3]),
                    n=700, reps=4, alpha=0.1, seed=42, phi=2),
     "ac28d6897c7e5334ade3d078aa9e590e8d650ea3e442c6f1e238bf5c69b1874b"),
    (ScenarioConfig("unrestricted_power", make_pmf(0, [0.2] * 5),
                    n=600, reps=5, alpha=0.05, seed=43),
     "989c4a433352b5c8396a1ae5f7ea2baa1793c58c6be5cb9e443e4bb8c819c993"),
    (ScenarioConfig("mode_settlement", make_pmf(0, [0.2, 0.6, 0.2]),
                    n=600, reps=3, alpha=0.05, seed=51),
     "80e45fbf91521210df6af859eb974c883b50975beecfb6ca82d80cd1dbb7c492"),
    (ScenarioConfig("mode_settlement",
                    make_pmf(-3, [0.1, 0.25, 0.4, 0.15, 0.1]),
                    n=513, reps=3, alpha=0.05, seed=52),
     "a7f9819d90bb4aa6692e7da3ebc0c273f03bad8904886252dcfe1e4cee0b079e"),
    (ScenarioConfig("mode_settlement", make_pmf(0, [0.3, 0.1, 0.3, 0.3]),
                    n=400, reps=2, alpha=0.05, seed=53, clip=(-4, 6)),
     "b4e6927adebf1d54c8a628949012500b8e4c1762b82c95cc9ac3a6ffd4d57b79"),
])
def test_sequential_digests_are_pinned(c, digest):
    # recorded with the scalar replications the time-blocked engine replaced
    assert run_experiment(c).digest() == digest


RISE100 = make_pmf(0, [(k + 1) / 5050 for k in range(100)])
SPARSE = make_pmf(0, [0.5] + [0.0] * 20 + [0.25] + [0.0] * 17 + [0.25])


@pytest.mark.parametrize("c, digest", [
    (ScenarioConfig("growth", make_pmf(0, [0.01] * 100), n=700, reps=3,
                    alpha=0.05, seed=61),
     "e4299c16cdd6c4e48076805805fd7a26884dce46a166f445ec9c1eb14b12cd95"),
    (ScenarioConfig("growth", make_pmf(0, [0.25, 0.75]), n=513, reps=4,
                    alpha=0.05, seed=62),
     "680995e7c1cc3a4ada7698f9bdd59164c8c3e9498f98a98e45e2c24609c0b25e"),
    (ScenarioConfig("growth", SPARSE, n=300, reps=3, alpha=0.05, seed=63),
     "8fda9e11334d486f43b5c8a885ddc7998e175ba3abf186ac2db8ea7c936f9bd6"),
    (ScenarioConfig("numeraire_compare", RISE100, n=513, reps=3, alpha=0.05,
                    seed=71),
     "1888696756f137a740d896b457908f43fcade4a2eb1c4350c72b3eb75a7ce3ac"),
    (ScenarioConfig("numeraire_compare", make_pmf(0, [0.2, 0.3, 0.5]), n=1000,
                    reps=5, alpha=0.05, seed=72),
     "1e7f9bdb5decb67b4eb75dff18d46e9db247f987b883ef3aed259728dd90d5bd"),
    (ScenarioConfig("numeraire_compare", make_pmf(3, [0.3, 0.7]), n=257, reps=2,
                    alpha=0.05, seed=73),
     "c5b5d9ea37381a10d4aa3ecd42d04f7896c134ab5cb30c11e154e149f73d879c"),
])
def test_monotone_digests_are_pinned(c, digest):
    # recorded with the scalar MonotoneTracker replications the block fold
    # replaced: float logs through math.log, summed one by one
    assert run_experiment(c).digest() == digest


@settings(max_examples=60, deadline=None, database=None)
@given(obs=st.lists(st.integers(-3, 3), min_size=1, max_size=120),
       rows=st.integers(1, 3), cuts=st.lists(st.integers(1, 119), max_size=4))
def test_tilt_rows_match_the_family_after_every_step(obs, rows, cuts):
    base = -4  # dense tables over sites -4..4 hold every touched site
    sites = range(base, 5)
    # row r folds obs rotated by r, so the rows differ
    streams = [obs[r % len(obs):] + obs[:r % len(obs)] for r in range(rows)]
    counts, rise, fall = np.zeros((rows, 9)), np.zeros((rows, 9)), np.zeros((rows, 9))
    families = [UnimodalFamily() for _ in range(rows)]
    bounds = sorted({0, len(obs), *(k for k in cuts if k < len(obs))})
    for a, b in zip(bounds, bounds[1:]):
        block = np.array([stream[a:b] for stream in streams]) - base
        counts, logs = _tilt_rows(counts, rise, fall, block)
        for r, family in enumerate(families):
            for step, x in enumerate(streams[r][a:b]):
                family.update(x)
                for table, got in zip((family.log_rise, family.log_fall),
                                      logs[:, r, step]):
                    for s, v in zip(sites, got):
                        if s not in table:
                            assert v == 0.0
                            continue
                        # numpy.log and math.log may differ in the last place;
                        # a log that cancels to near zero is held to 1e-12
                        # absolute
                        assert abs(v - table[s]) <= 1e-12 * max(abs(table[s]), 1.0)
            assert {s: int(c) for s, c in zip(sites, counts[r]) if c} == family.counts
        rise, fall = logs[:, :, -1]


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
