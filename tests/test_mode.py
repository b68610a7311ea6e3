"""Mode confidence sets, the set-valued estimator, and the free-mode test."""

import json
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evshape.eprocess import UnimodalFamily, UnimodalTracker, _peak_value
from evshape.errors import (
    AlreadyRejected,
    BadAlpha,
    InvalidSnapshot,
    MalformedJson,
    NonIntegerInput,
    NonNumericInput,
    ZeroPhi,
)
from evshape.mode import (
    IntSet,
    UnrestrictedTest,
    confidence_set,
    first_window,
    free_levels,
    mode_estimate,
    one_obs_ci,
    one_obs_ci_finite,
    scan_halfwidth,
    strong_hull,
)
from evshape.pmf import ModeInterval, make_pmf, sample


def fed_family(obs) -> UnimodalFamily:
    family = UnimodalFamily()
    for x in obs:
        family.update(x)
    return family


# ------------------------------------------------------- one-observation CI


def test_one_obs_ci_examples():
    assert one_obs_ci(5, 0.1, 0) == ModeInterval.bounded(-99, 109)
    assert one_obs_ci(0, 0.1, 0) == ModeInterval.all_integers()
    assert one_obs_ci(1, 0.5, 0) == ModeInterval.bounded(-3, 5)


def test_one_obs_ci_bad_alpha():
    for alpha in (0.0, 1.0, -0.2, 7.0):
        with pytest.raises(BadAlpha):
            one_obs_ci(3, alpha, 0)


def test_one_obs_ci_open_endpoints():
    # radius 105 around 5: endpoints -100 and 110 are excluded
    ci = one_obs_ci(5, 0.1, 0)
    assert not ci.contains(-100) and ci.contains(-99)
    assert not ci.contains(110) and ci.contains(109)


def ref_one_obs_ci(x: int, alpha: float, phi: int) -> ModeInterval:
    # the rational form: the radius T d as a Fraction, rebuilt on every call
    x, phi = int(x), int(phi)
    if x == phi:
        return ModeInterval.all_integers()
    radius = (Fraction(2) / Fraction(alpha) + 1) * abs(x - phi)
    return ModeInterval.bounded(math.floor(x - radius) + 1, math.ceil(x + radius) - 1)


# levels near 0 and near 1, and powers of two, whose T = 2/alpha + 1 is whole
_ALPHAS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([0.5, 0.25, 0.125, 2.0**-40, 5e-324, 1e-300,
                     math.nextafter(1.0, 0.0), 1.0 - 2.0**-30]))


@settings(max_examples=500, deadline=None, database=None)
@given(x=st.one_of(st.integers(-20, 20), st.integers(-10**30, 10**30)),
       phi=st.one_of(st.integers(-5, 5), st.integers(-10**30, 10**30)), alpha=_ALPHAS)
@example(x=5, phi=0, alpha=0.5)  # T d = 25: both ends excluded
@example(x=10**30, phi=-10**30, alpha=0.125)
@example(x=1, phi=0, alpha=5e-324)
def test_one_obs_ci_matches_the_rational_form(x, phi, alpha):
    assert one_obs_ci(x, alpha, phi) == ref_one_obs_ci(x, alpha, phi)


def test_one_obs_ci_finite_examples():
    assert one_obs_ci_finite(0, 0.2, 1) == ModeInterval.bounded(-20, 20)

    ci = one_obs_ci_finite(3, 0.1, 3)
    assert ci.kind == "range"
    assert ci.contains(3)

    with pytest.raises(ZeroPhi):
        one_obs_ci_finite(2, 0.1, 0)


def test_one_obs_ci_finite_always_bounded():
    rng = random.Random(1)
    for _ in range(300):
        x = rng.randint(-50, 50)
        phi = rng.choice([-3, -1, 1, 2, 9])
        alpha = rng.uniform(0.01, 0.9)
        ci = one_obs_ci_finite(x, alpha, phi)
        assert ci.kind == "range"
        assert ci.contains(x)
        half = (2.0 / (alpha / 2.0) + 1.0) * max(abs(x - phi), abs(x + phi))
        assert ci.hi - ci.lo < 2.0 * half


# ------------------------------------------------------------------- IntSet


def test_intset_basics():
    s = IntSet.finite((1, 5, 5))
    assert not s.complement and s.members == {1, 5}
    assert s.contains(5) and not s.contains(2)

    c = IntSet.cofinite((0,))
    assert c.complement
    assert c.contains(99) and not c.contains(0) and c.contains(-1)
    assert c.invert() == IntSet.finite((0,))
    assert IntSet.finite((0,)).invert() == c


# ----------------------------------------------------------- scan half-width


def test_scan_halfwidth_guards():
    with pytest.raises(ValueError):
        scan_halfwidth(5, 1.0)
    with pytest.raises(ValueError):
        scan_halfwidth(5, 0.5)


def test_scan_halfwidth_none_branch():
    # nothing can cross tau when even the global ceiling stays below it
    assert scan_halfwidth(1, 4.0) is None
    assert scan_halfwidth(1, 3.9) is not None
    assert scan_halfwidth(2, 5.6) is None


def test_scan_halfwidth_large_n():
    # used at tau = n^2 for every n; must stay finite far past float range
    w = scan_halfwidth(1_000_000, 20.0)
    assert isinstance(w, int)
    assert w > 500_000
    assert scan_halfwidth(3000, 3000.0 ** 2) > 0


# ------------------------------------------------------- confidence set


def test_confidence_set_fresh_family():
    res = confidence_set(UnimodalFamily(), 0.05)
    assert res.rejected == IntSet.finite(())
    assert res.window is None
    assert res.weak_set.contains(-(10**9))


def test_confidence_set_constant_stream():
    family = fed_family([4] * 60)
    res = confidence_set(family, 0.05)
    assert not res.rejected.contains(4)
    assert res.weak_set.contains(4)


def test_confidence_set_bimodal_rejects():
    rng = random.Random(1234)
    obs = [0 if rng.random() < 0.5 else 10 for _ in range(500)]
    family = fed_family(obs)
    res = confidence_set(family, 0.05)
    members = res.rejected.members
    assert members
    lo, hi = res.window
    assert all(lo <= t <= hi for t in members)
    # everything strictly between the two spikes carries evidence
    for t in range(1, 10):
        assert res.rejected.contains(t)


@st.composite
def family_streams(draw):
    """1-150 draws from a random pmf: 1-7 masses, zeros included, from -6..4."""
    masses = draw(st.lists(st.integers(0, 6), min_size=1, max_size=7).filter(any))
    p = make_pmf(draw(st.integers(-6, 4)), [m / sum(masses) for m in masses])
    return sample(p, draw(st.integers(0, 2**32)), draw(st.integers(1, 150)))


BIMODAL = sample(make_pmf(0, [0.5] + [0.0] * 9 + [0.5]), 4321, 300)
BAND = 40  # peaks checked past the window, or around the data


@settings(max_examples=50, deadline=None, database=None)
@given(obs=family_streams())
@example(obs=BIMODAL)
def test_confidence_set_outside_window_is_sound(obs):
    # scan_halfwidth's certificate at every n, for confidence_set's 1/alpha
    # and mode_estimate's n**2: a peak d >= w + 1 sites past the data has
    # value at most 1 + 2**-(d-1) * 1.5**n <= 1 + (tau - 1) / 4, so
    # settlement needs no window to leave it out
    family = UnimodalFamily()
    for x in obs:
        family.update(x)
        lo, hi = family.data_range()
        for tau in (1.0 / 0.05, float(family.n) ** 2):
            if tau <= 1.0:
                continue
            w = scan_halfwidth(family.n, tau)
            if w is None:
                assert family.values_range(lo - BAND, hi + BAND).max() <= math.log(tau)
                continue
            bound = math.log1p((tau - 1.0) / 4.0)
            assert family.values_range(lo - w - BAND, lo - w - 1).max() <= bound
            assert family.values_range(hi + w + 1, hi + w + BAND).max() <= bound


@settings(max_examples=50, deadline=None, database=None)
@given(obs=family_streams())
@example(obs=BIMODAL)
@example(obs=[5] * 80)  # the rise at site 4 carries peak 4: its factor nears 3/2
def test_one_observation_lifts_a_value_by_at_most_three_halves(obs):
    # tilt amplitudes are at most 1/2: the bound under scan_halfwidth's
    # 1.5**n and UnrestrictedTest's skip.  It is attained, so the check
    # allows the rounding of a log value
    lo, hi = min(obs) - BAND, max(obs) + BAND
    family = UnimodalFamily()
    before = np.zeros(hi - lo + 1)  # every value is one before any data
    for x in obs:
        family.update(x)
        after = family.values_range(lo, hi)
        slack = 1e-12 * np.maximum(1.0, np.abs(after))
        assert np.all(after - before <= math.log(1.5) + slack)
        before = after


def test_evidence_monotone_in_threshold():
    rng = random.Random(777)
    obs = [0 if rng.random() < 0.5 else 6 for _ in range(400)]
    family = fed_family(obs)
    strict = confidence_set(family, 0.05).rejected.members
    loose = confidence_set(family, 0.2).rejected.members
    assert strict <= loose


# ------------------------------------------------------------ mode estimate


def test_mode_estimate_first_step_accepts_everything():
    family = fed_family([13])
    est = mode_estimate(family)
    assert est == IntSet.cofinite(())
    assert est.contains(-(10**6)) and est.contains(10**6)


def test_mode_estimate_tracks_empirical_mode():
    obs = sample(make_pmf(0, [0.1, 0.7, 0.2]), 6, 2500)
    est = mode_estimate(fed_family(obs))
    assert [t for t in range(-20, 21) if est.contains(t)] == [1]


# -------------------------------------------------------------- strong hull


def test_strong_hull():
    assert strong_hull(IntSet.cofinite((3, 4))) == ModeInterval.all_integers()
    assert strong_hull(IntSet.finite((1, 3))) == ModeInterval.bounded(1, 3)
    assert strong_hull(IntSet.finite(())) == ModeInterval.empty()


# -------------------------------------------------------- unrestricted test


def test_unrestricted_first_step_continues():
    test = UnrestrictedTest(0.05, phi=1)
    assert test.step(9) == "continue"
    assert test.theta_window is not None
    lo, hi = test.theta_window
    ci = one_obs_ci_finite(9, 2.0 * 0.05 / 3.0, 1)
    assert (lo, hi) == (ci.lo, ci.hi)


def test_unrestricted_rejects_bimodal():
    q = make_pmf(0, [0.4, 0.1, 0.5])
    test = UnrestrictedTest(0.05, phi=1)
    decision = "continue"
    for x in sample(q, 31, 3000):
        decision = test.step(x)
        if decision == "reject":
            break
    assert decision == "reject"
    assert 1 < test.rejected_at <= 3000
    with pytest.raises(AlreadyRejected):
        test.step(0)


def test_unrestricted_keeps_quiet_under_point_mass():
    test = UnrestrictedTest(0.06, phi=1)
    for _ in range(300):
        assert test.step(0) == "continue"


def test_unrestricted_decisions_match_family_replay():
    """The short-circuit evaluation must agree with the definition."""
    alpha = 0.05
    q = make_pmf(0, [0.4, 0.1, 0.5])
    for seed in (424242, 7, 99):
        obs = sample(q, seed, 3000)
        test = UnrestrictedTest(alpha, phi=1)
        family = UnimodalFamily()
        window = None
        for x in obs:
            got = test.step(x)
            if window is None:
                assert got == "continue"
                window = test.theta_window
                continue
            family.update(x)
            lo, hi = window
            crossed = family.values_range(lo, hi).min() >= math.log(3.0 / alpha)
            assert got == ("reject" if crossed else "continue")
            if got == "reject":
                break


def every_step_free_test(alpha, phi, obs):
    """The free test evaluating its tracked peak at every observation, with
    a tracker at that peak replayed on the stream: decisions, the step that
    rejected, and the tracked peak's log value after each observation from
    the second on."""
    log_threshold, log_cut = free_levels(alpha)
    (lo, hi), theta0 = first_window(obs[0], alpha, phi)
    family, tracker = UnimodalFamily(), UnimodalTracker(theta0)
    decisions, values = ["continue"], []
    for x in obs[1:]:
        family.update(x)
        tracker.update(x)
        values.append(tracker.unimodal_value())
        decision = "continue"
        if values[-1] >= log_cut:
            vals = family.values_range(lo, hi)
            k = int(vals.argmin())
            if float(vals[k]) >= log_threshold:
                decision = "reject"
            tracker = UnimodalTracker(lo + k)
            for y in obs[1:len(decisions) + 1]:
                tracker.update(y)
        decisions.append(decision)
        if decision == "reject":
            return decisions, len(decisions), values
    return decisions, None, values


@settings(max_examples=60, deadline=None, database=None)
@given(masses=st.sampled_from([[0.4, 0.1, 0.5], [0.5, 0.0, 0.5],
                               [0.2, 0.6, 0.2], [0.1, 0.2, 0.4, 0.2, 0.1]]),
       lo=st.integers(-20, 20), seed=st.integers(0, 2**32),
       n=st.integers(1, 1500), alpha=st.sampled_from([0.05, 0.3, 0.6]),
       phi=st.sampled_from([1, -2, 3]))
def test_unrestricted_skips_only_steps_below_the_cut(masses, lo, seed, n,
                                                      alpha, phi):
    """The skipping test against a plain evaluation at every observation:
    the same decisions, the same value wherever it evaluates, and a value
    below the cut wherever it skips."""
    obs = sample(make_pmf(lo, masses), seed, n)
    test = UnrestrictedTest(alpha, phi)
    decisions, evaluated = run_recorded(test, obs)
    expected, rejected_at, values = every_step_free_test(alpha, phi, obs)
    assert decisions == expected
    assert test.rejected_at == rejected_at
    log_cut = free_levels(alpha)[1]
    for step, value in enumerate(values[:len(decisions) - 1], start=2):
        if step in evaluated:
            assert evaluated[step] == value
        else:
            assert value < log_cut


def test_unrestricted_skips_on_streams_that_reject_and_that_do_not():
    for masses, seed, rejects in (([0.4, 0.1, 0.5], 31, True),
                                  ([0.2, 0.6, 0.2], 5, False)):
        test = UnrestrictedTest(0.05, phi=1)
        decisions, evaluated = run_recorded(
            test, sample(make_pmf(0, masses), seed, 3000))
        assert (decisions[-1] == "reject") == rejects
        assert 0 < len(evaluated) < len(decisions) // 2


def run_recorded(test, obs):
    """:func:`run_free`, and the tracked peak's value at each step that
    evaluated it, by step."""
    evaluated = {}

    def record(*args):
        evaluated[test.n] = _peak_value(*args)
        return evaluated[test.n]

    with mock.patch("evshape.mode._peak_value", record):
        return run_free(test, obs), evaluated


def run_free(test, obs):
    decisions = []
    for x in obs:
        decisions.append(test.step(x))
        if decisions[-1] == "reject":
            break
    return decisions


@settings(max_examples=80, deadline=None, database=None)
@given(obs=st.lists(st.sampled_from([-2, 0, 0, 2, 4, 4]), max_size=120),
       split=st.integers(0, 120), alpha=st.sampled_from([0.05, 0.3, 0.6]),
       phi=st.sampled_from([1, -2, 3]))
def test_unrestricted_snapshot_round_trip_continues(obs, split, alpha, phi):
    whole = UnrestrictedTest(alpha, phi)
    expected = run_free(whole, obs)
    head = UnrestrictedTest(alpha, phi)
    decisions = run_free(head, obs[:split])
    resumed = UnrestrictedTest.from_snapshot(json.dumps(head.to_snapshot()))
    if "reject" in decisions:
        with pytest.raises(AlreadyRejected):
            resumed.step(0)
    else:
        decisions += run_free(resumed, obs[len(decisions):])
    assert decisions == expected
    assert resumed.rejected_at == whole.rejected_at
    assert resumed.n == whole.n
    assert resumed.to_snapshot()["family"] == whole.to_snapshot()["family"]


def test_unrestricted_snapshots_reject_inconsistent_state():
    test = UnrestrictedTest(0.3, 1)
    run_free(test, [0, 3, 3, 0, 1])
    snap = test.to_snapshot()
    assert UnrestrictedTest.from_snapshot(snap).to_snapshot() == snap
    fresh = UnrestrictedTest(0.3, 1).to_snapshot()
    assert set(snap) == {"alpha", "phi", "first", "theta0", "rejected", "family"}
    hi = test.theta_window[1]
    broken = [
        (dict(fresh, family=snap["family"]), "awaiting"),
        (dict(fresh, theta0=0), "awaiting"),
        (dict(fresh, rejected=True), "awaiting"),
        (dict(snap, theta0=hi + 1), "outside"),
        (dict(snap, family=dict(snap["family"], counts=[1])), "not a JSON object"),
        (dict(snap, family=dict(snap["family"], log_rise={"1.5": 0.0})),
         "not an integer"),
    ]
    for bad, message in broken:
        with pytest.raises(InvalidSnapshot, match=message):
            UnrestrictedTest.from_snapshot(bad)
    # integers are JSON integers, alpha a JSON number and rejected a JSON
    # boolean: int() would read 1.7 and true as 1
    typed = [
        (dict(snap, phi=1.0), NonIntegerInput),
        (dict(snap, first=float(snap["first"])), NonIntegerInput),
        (dict(snap, theta0=snap["theta0"] + 0.5), NonIntegerInput),
        (dict(snap, alpha="0.3"), NonNumericInput),
        (dict(snap, alpha=True), NonNumericInput),
        (dict(snap, rejected=0), MalformedJson),
        (dict(snap, rejected="false"), MalformedJson),
        (dict(fresh, rejected=None), MalformedJson),
        (dict(snap, family=dict(snap["family"], counts={"0": 1.7})), NonIntegerInput),
        (dict(snap, family=dict(snap["family"], log_fall={"0": "x"})), NonNumericInput),
    ]
    for bad, error in typed:
        for form in (bad, json.dumps(bad)):
            with pytest.raises(error):
                UnrestrictedTest.from_snapshot(form)
    stopped = UnrestrictedTest(0.6, 1)
    assert run_free(stopped, [0, 4] * 60)[-1] == "reject"
    resumed = UnrestrictedTest.from_snapshot(json.dumps(stopped.to_snapshot()))
    assert resumed.rejected_at == stopped.rejected_at == 51
    assert resumed.theta_window == (-11, 11)
    with pytest.raises(AlreadyRejected):
        resumed.step(0)
    with pytest.raises(BadAlpha):
        UnrestrictedTest.from_snapshot(dict(snap, alpha=1.5))
    with pytest.raises(ZeroPhi):
        UnrestrictedTest.from_snapshot(dict(snap, phi=0))
