"""Streaming trackers: hand replays, validity, and replay equivalence."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evshape.eprocess import (
    MonotoneTracker,
    UnimodalFamily,
    UnimodalTracker,
    _lambdas,
    _numeraire_logs,
    _tilt_rows,
    numeraire_eprocess,
    peak_values,
    peak_weights,
)
from evshape.errors import (
    InvalidSnapshot,
    NegativeObservation,
    NonIntegerInput,
    NonNumericInput,
)
from evshape.evalues import EvalFn, is_in_polar_D, is_in_polar_M, wavelet_lambda
from evshape.mode import IntSet, UnrestrictedTest, confidence_set, mode_estimate
from evshape.numeraire import lcm
from evshape.pmf import PROB_TOL, make_pmf, sample
from test_row_engine import fold_in_blocks


def replay_monotone(obs) -> MonotoneTracker:
    t = MonotoneTracker()
    for x in obs:
        t.update(x)
    return t


def replay_family(obs) -> UnimodalFamily:
    f = UnimodalFamily()
    for x in obs:
        f.update(x)
    return f


# --------------------------------------------------------- MonotoneTracker


def test_fresh_tracker():
    t = MonotoneTracker()
    assert t.mixture_value() == 0.0
    for m in (0, 7, 100):
        assert t.log_factors.get(m, 0.0) == 0.0
    snap = t.to_snapshot()
    assert snap == {"counts": {}, "log_factors": {}}


def test_first_observation_is_neutral():
    for x in (0, 1, 17):
        t = replay_monotone([x])
        assert t.mixture_value() == pytest.approx(0.0, abs=1e-15)


def test_hand_replay_two_ones():
    t = replay_monotone([1, 1])
    assert t.log_factors.get(0, 0.0) == pytest.approx(math.log(1.5), abs=1e-15)
    assert t.log_factors.get(1, 0.0) == 0.0
    assert t.mixture_value() == pytest.approx(math.log(1.25), abs=1e-12)


def test_hand_replay_then_drop():
    t = replay_monotone([1, 1, 0])
    # third step sees the empirical of [1, 1]: lambda at the (0, 1) pair is 1/2
    assert t.log_factors.get(0, 0.0) == pytest.approx(math.log(0.75), abs=1e-15)


def test_mixture_formula_from_forced_state():
    t = MonotoneTracker()
    t.log_factors = {0: math.log(2.0), 1: math.log(4.0)}
    assert t.mixture_value() == pytest.approx(math.log(2.25), abs=1e-12)


def test_update_rejects_negative():
    with pytest.raises(NegativeObservation):
        MonotoneTracker().update(-1)


def test_monotone_replay_equivalence():
    rng = random.Random(11)
    obs = [rng.randint(0, 6) for _ in range(120)]
    incremental = MonotoneTracker()
    for k, x in enumerate(obs, start=1):
        incremental.update(x)
        fresh = replay_monotone(obs[:k])
        assert incremental.mixture_value() == \
            pytest.approx(fresh.mixture_value(), abs=1e-12)
        for m in range(8):
            assert incremental.log_factors.get(m, 0.0) == \
                pytest.approx(fresh.log_factors.get(m, 0.0), abs=1e-12)


def test_one_step_supermartingale_under_uniform_nulls():
    """Exhaustive check over every state reachable in three updates."""
    prefixes = [[]]
    for _ in range(3):
        prefixes += [p + [x] for p in prefixes for x in (0, 1, 2)
                     if len(p) == _]
    for prefix in prefixes:
        base = replay_monotone(prefix)
        base_mix = base.mixture_value()
        base_comp = {m: base.log_factors.get(m, 0.0) for m in range(5)}
        ratios = {}
        for x in range(7):
            nxt = replay_monotone(prefix + [x])
            ratios[x] = math.exp(nxt.mixture_value() - base_mix)
            for m in range(5):
                factor = math.exp(nxt.log_factors.get(m, 0.0) - base_comp[m])
                assert factor >= 0.0
        for n in range(6):
            p = make_pmf(0, [1.0 / (n + 1)] * (n + 1))
            mean = sum(p.f(x) * ratios[x] for x in range(n + 1))
            assert mean <= 1.0 + 1e-12, (prefix, n)


# --------------------------------------------------------- UnimodalTracker


def test_fresh_unimodal():
    t = UnimodalTracker(3)
    assert t.unimodal_value() == 0.0


def test_unimodal_hand_replay():
    t = UnimodalTracker(0)
    t.update(1)
    t.update(1)
    # rising pair just above the mode carries weight 1/4
    assert t.unimodal_value() == pytest.approx(math.log(1.125), abs=1e-12)


def test_unimodal_constant_stream_is_neutral():
    t = UnimodalTracker(5)
    for _ in range(40):
        t.update(5)
    assert t.unimodal_value() == pytest.approx(0.0, abs=1e-12)


def test_unimodal_far_theta_is_inert():
    rng = random.Random(3)
    obs = [rng.randint(0, 5) for _ in range(50)]
    theta = max(obs) + 60
    t = UnimodalTracker(theta)
    for x in obs:
        t.update(x)
    assert abs(t.unimodal_value()) < 1e-8


def _moved(table: dict, shift: int) -> dict:
    # a snapshot table with every site moved by shift
    return {str(int(site) + shift): v for site, v in table.items()}


_RNG = random.Random(21)
_STREAM = [_RNG.randint(-2, 4) for _ in range(200)]


@settings(max_examples=60, deadline=None, database=None)
@given(obs=st.lists(st.integers(-3, 6), min_size=1, max_size=150),
       theta=st.integers(-5, 8),
       shift=st.one_of(st.sampled_from([12_345, 2**40, -(2**40)]),
                       st.integers(-10**6, 10**6)),
       alpha=st.sampled_from([0.05, 0.2, 0.5]))
@example(obs=_STREAM, theta=1, shift=-7, alpha=0.05)
@example(obs=_STREAM, theta=1, shift=13, alpha=0.05)
@example(obs=[0] * 40 + [3] * 40, theta=3, shift=2**40, alpha=0.05)
def test_translation_equivariance(obs, theta, shift, alpha):
    # the peaked family sees the data only through differences, so moving
    # the stream and theta together moves every answer with them, exactly
    moved = [x + shift for x in obs]
    base, tracker = UnimodalTracker(theta), UnimodalTracker(theta + shift)
    for x, y in zip(obs, moved):
        base.update(x)
        tracker.update(y)
    want = base.to_snapshot()
    snap = tracker.to_snapshot()
    assert snap == {"theta": theta + shift, **{key: _moved(want[key], shift)
                                               for key in ("counts", "log_rise", "log_fall")}}
    tracker = UnimodalTracker.from_snapshot(json.dumps(snap))
    assert tracker.unimodal_value() == base.unimodal_value()

    base, family = replay_family(obs), replay_family(moved)
    snap = family.to_snapshot()
    assert snap == {key: _moved(table, shift) for key, table in base.to_snapshot().items()}
    family = UnimodalFamily.from_snapshot(json.dumps(snap))
    want, got = confidence_set(base, alpha), confidence_set(family, alpha)
    assert got.rejected == IntSet.finite(m + shift for m in want.rejected.members)
    if want.window is None:  # too few observations to reject any peak
        assert got.window is None
    else:
        lo, hi = want.window
        assert got.window == (lo + shift, hi + shift)
        assert family.values_range(lo + shift, hi + shift).tolist() == \
            base.values_range(lo, hi).tolist()
    assert mode_estimate(family) == IntSet.cofinite(
        m + shift for m in mode_estimate(base).members)


@pytest.mark.parametrize("shift", [2**53 + 1, 2**63, -(2**63) - 5])
def test_family_values_are_shift_invariant_past_float_precision(shift):
    # sites this far out collide as floats; the values depend only on
    # distances, so they must equal those of the unshifted stream
    rng = random.Random(21)
    obs = [rng.randint(-2, 4) for _ in range(200)]
    base, moved = replay_family(obs), replay_family(x + shift for x in obs)
    assert moved.values_range(shift - 9, shift + 11).tolist() == \
        base.values_range(-9, 11).tolist()


def test_unimodal_snapshot_shape():
    t = UnimodalTracker(0)
    t.update(1)
    t.update(1)
    snap = t.to_snapshot()
    assert snap["theta"] == 0
    assert snap["counts"] == {"1": 2}
    # keyed by site, as the family's snapshot is
    assert set(snap) == {"theta", "counts", "log_rise", "log_fall"}
    assert set(snap["log_rise"]) == {"0", "1"} and set(snap["log_fall"]) == set()
    assert UnimodalTracker.from_snapshot(snap).n == 2


def test_snapshot_resume_equals_uninterrupted_run():
    rng = random.Random(31)
    obs = [rng.randint(0, 6) for _ in range(200)]
    for make, value in ((MonotoneTracker, "mixture_value"),
                        (lambda: UnimodalTracker(2), "unimodal_value")):
        whole, head = make(), make()
        for x in obs:
            whole.update(x)
        for x in obs[:120]:
            head.update(x)
        resumed = type(head).from_snapshot(json.dumps(head.to_snapshot()))
        for x in obs[120:]:
            resumed.update(x)
        assert resumed.to_snapshot() == whole.to_snapshot()
        assert getattr(resumed, value)() == getattr(whole, value)()


def _broken_snapshots(snap, log_keys, sides):
    yield dict(snap, counts={"0": -3}), "negative count"
    for key in log_keys:
        for bad in (float("nan"), float("inf"), float("-inf")):
            yield dict(snap, **{key: {"0": bad}}), "non-finite"
    # every table is a JSON object keyed by integers
    for key in ["counts", *log_keys]:
        yield dict(snap, **{key: [1]}), "not a JSON object"
        for bad in ("1.5", "true"):
            yield dict(snap, **{key: {bad: 1}}), "not an integer"
    # a site outside the tracker's side would carry evidence no data produced
    for key, site, message in sides:
        yield dict(snap, **{key: {str(site): 3 if key == "counts" else 3.0}}), message


def test_snapshots_reject_inconsistent_state():
    mono = replay_monotone([0, 1, 0, 2])
    uni = UnimodalTracker(1)
    for x in [0, 1, 2, 1]:
        uni.update(x)
    cases = [
        (MonotoneTracker, mono.to_snapshot(), ["log_factors"],
         [("counts", -1, "counts has a site below 0"),
          ("log_factors", -1, "log_factors has a site below 0")]),
        (UnimodalTracker, uni.to_snapshot(), ["log_rise", "log_fall"],
         [("log_rise", 0, "log_rise has a site below 1"),
          ("log_fall", 2, "log_fall has a site above 1")]),
        (UnimodalFamily, replay_family([0, 1, 2, 1]).to_snapshot(),
         ["log_rise", "log_fall"], []),
    ]
    for cls, snap, log_keys, sides in cases:
        for broken, message in _broken_snapshots(snap, log_keys, sides):
            with pytest.raises(InvalidSnapshot, match=message):
                cls.from_snapshot(broken)
    # the family keeps every site on both sides
    family = replay_family([0, 1, 2, 1]).to_snapshot()
    wide = dict(family, log_rise={"-9": 0.5}, log_fall={"9": 0.5})
    assert UnimodalFamily.from_snapshot(wide).log_rise == {-9: 0.5}
    with pytest.raises(InvalidSnapshot):
        MonotoneTracker.from_snapshot('{"counts": {"0": -3}, "log_factors": {"0": NaN}}')
    # counts are JSON integers, log factors JSON numbers: int() would read
    # 1.7 and true as 1
    typed = [
        ({"counts": {"0": 1.7}, "log_factors": {}}, NonIntegerInput),
        ({"counts": {"0": 1.0}, "log_factors": {}}, NonIntegerInput),
        ({"counts": {"0": True}, "log_factors": {}}, NonIntegerInput),
        ({"counts": {"0": 1}, "log_factors": {"0": "0.5"}}, NonNumericInput),
        ({"counts": {"0": 1}, "log_factors": {"0": None}}, NonNumericInput),
    ]
    for bad, error in typed:
        for form in (bad, json.dumps(bad)):
            with pytest.raises(error):
                MonotoneTracker.from_snapshot(form)
    with pytest.raises(NonIntegerInput):
        UnimodalTracker.from_snapshot(dict(uni.to_snapshot(), theta=1.5))



def _snapshots_missing_a_key():
    uni = UnimodalTracker(1)
    for x in [0, 1, 2, 1]:
        uni.update(x)
    free = UnrestrictedTest(0.3, 1)
    for x in [3, 0, 1, 2]:
        free.step(x)
    cases = [
        (MonotoneTracker, replay_monotone([0, 1, 0, 2]).to_snapshot()),
        (UnimodalTracker, uni.to_snapshot()),
        (UnimodalFamily, replay_family([0, 1, 2, 1]).to_snapshot()),
        (UnrestrictedTest, free.to_snapshot()),
    ]
    params = []
    for cls, snap in cases:
        for key in snap:
            broken = {k: v for k, v in snap.items() if k != key}
            params.append(pytest.param(cls, broken, key, id=f"{cls.__name__}-{key}"))
    snap = free.to_snapshot()
    for key in snap["family"]:
        family = {k: v for k, v in snap["family"].items() if k != key}
        params.append(pytest.param(UnrestrictedTest, dict(snap, family=family), key,
                                   id=f"UnrestrictedTest-family.{key}"))
    return params


@pytest.mark.parametrize("cls, snap, key", _snapshots_missing_a_key())
def test_snapshot_missing_a_key_is_invalid(cls, snap, key):
    for form in (snap, json.dumps(snap)):
        with pytest.raises(InvalidSnapshot, match=f"has no '{key}'"):
            cls.from_snapshot(form)


# Snapshots of the streams above as written when they stored n, the peak
# tracker keyed its tables by distance from the peak, and the free test
# stored its phase, window and stop step
_TABLES_V1 = ('"log_rise": {"-1": 0.0, "0": 0.0, "1": 0.0, "2": 0.0}, "log_fall": '
              '{"0": 0.0, "1": -0.6931471805599453, "2": -0.6931471805599453, "3": 0.0}')
_SNAPSHOTS_V1 = [
    (MonotoneTracker, '{"n": 4, "counts": {"0": 2, "1": 1, "2": 1}, '
     '"log_factors": {"0": 0.0, "1": 0.0, "2": 0.0}}', None),
    (UnimodalTracker, '{"theta": 1, "n": 4, "counts": {"0": 1, "1": 2, "2": 1}, '
     '"log_factors_plus": {"0": 0.0, "1": 0.0}, '
     '"log_factors_minus": {"0": -0.6931471805599453, "1": 0.0}}', "log_rise"),
    (UnimodalFamily, '{"n": 4, "counts": {"0": 1, "1": 2, "2": 1}, ' + _TABLES_V1 + '}',
     None),
    (UnrestrictedTest, '{"alpha": 0.3, "phi": 1, "phase": "running", "n": 4, '
     '"first": 3, "theta_window": [-39, 45], "theta0": 3, "rejected_at": null, '
     '"family": {"n": 3, "counts": {"0": 1, "1": 1, "2": 1}, ' + _TABLES_V1 + '}}',
     "rejected"),
]


@pytest.mark.parametrize("cls, text, missing", _SNAPSHOTS_V1,
                         ids=[cls.__name__ for cls, _, _ in _SNAPSHOTS_V1])
def test_snapshot_with_stored_n_loads_only_if_no_key_is_missing(cls, text, missing):
    if missing is not None:
        with pytest.raises(InvalidSnapshot, match=f"has no '{missing}'"):
            cls.from_snapshot(text)
        return
    old = json.loads(text)
    restored = cls.from_snapshot(old)
    assert restored.n == old.pop("n")
    assert restored.to_snapshot() == old


# ------------------------------------- step factors in the polar sets
#
# A process is a test supermartingale iff each step's factor
# x -> M_{t+1}(x) / M_t is a one-observation e-value for the null, and the
# polar checks decide that exactly: each tracker state must pass them.


def step_factor(cls, snap, value, lo: int, hi: int) -> EvalFn:
    """``x -> exp(value after x - value now)`` of the state ``snap`` on
    ``lo..hi``, with tails 1 (an untouched pair tilts by nothing)."""
    now = value(cls.from_snapshot(snap))

    def after(x):
        t = cls.from_snapshot(snap)
        t.update(x)
        return value(t)

    return EvalFn(lo, [math.exp(after(x) - now) for x in range(lo, hi + 1)], 1.0, 1.0)


@settings(max_examples=300, deadline=None, database=None)
@given(obs=st.lists(st.integers(0, 7), max_size=40))
def test_monotone_step_factor_is_in_polar_m(obs):
    t = replay_monotone(obs)
    e = step_factor(MonotoneTracker, t.to_snapshot(), MonotoneTracker.mixture_value,
                    0, max(obs, default=0) + 3)
    assert is_in_polar_M(e)


@settings(max_examples=300, deadline=None, database=None)
@given(theta=st.integers(-3, 8), obs=st.lists(st.integers(-3, 8), max_size=40))
def test_unimodal_step_factor_is_in_polar_d(theta, obs):
    t = UnimodalTracker(theta)
    for x in obs:
        t.update(x)
    e = step_factor(UnimodalTracker, t.to_snapshot(), UnimodalTracker.unimodal_value,
                    min(obs + [theta]) - 3, max(obs + [theta]) + 3)
    assert is_in_polar_D(e, theta)


@settings(max_examples=150, deadline=None, database=None)
@given(rows=st.integers(1, 30).flatmap(lambda n: st.lists(
           st.lists(st.integers(0, 7), min_size=n, max_size=n), min_size=1, max_size=3)),
       cuts=st.lists(st.integers(1, 29), max_size=4))
def test_monotone_rows_step_factor_is_in_polar_m(rows, cuts):
    for row, tracker in zip(rows, fold_in_blocks(rows, cuts)):
        e = step_factor(MonotoneTracker, tracker.to_snapshot(),
                        MonotoneTracker.mixture_value, 0, max(row) + 3)
        assert is_in_polar_M(e)


@settings(max_examples=300, deadline=None, database=None)
@given(masses=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                       min_size=1, max_size=13).filter(any))
def test_numeraire_step_factor_is_in_polar_m(masses):
    total = math.fsum(masses)
    q = make_pmf(0, [m / total for m in masses])
    # one observation's factor; past q.hi the product drops to zero
    logs = _numeraire_logs(q, lcm(q).fitted_masses())[:q.hi + 1]
    assert is_in_polar_M(EvalFn(0, [math.exp(v) for v in logs], 0.0, 0.0))


@settings(max_examples=100, deadline=None, database=None)
@given(obs=st.lists(st.integers(-3, 6), max_size=30))
def test_family_peak_step_factors_are_in_polar_d_and_at_most_3_halves(obs):
    # each peak alone, through values_range(theta, theta); the 3/2 bound is
    # what UnrestrictedTest's skip rule rests on
    snap = replay_family(obs).to_snapshot()
    lo, hi = min(obs, default=0) - 3, max(obs, default=0) + 3
    for theta in range(lo, hi + 1):
        e = step_factor(UnimodalFamily, snap,
                        lambda f: float(f.values_range(theta, theta)[0]), lo, hi)
        assert is_in_polar_D(e, theta)
        assert max(e.values) <= 1.5


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data(), width=st.integers(1, 6))
def test_row_block_peak_values_move_within_the_one_step_bound(data, width):
    # a block of _tilt_rows from random carried counts and tables: at every
    # step, each peak's value moves by a factor in [1/2, 3/2], and its step
    # factor over every next observation lies in D(theta).  Two untouched
    # sites pad each end, so observations there give the factor the tails
    # carry, 1.  numpy.log rounds apart from math.log: compare to PROB_TOL.
    pad = np.zeros(2)
    counts = np.concatenate([pad, data.draw(st.lists(st.integers(0, 9), min_size=width,
                                                     max_size=width)), pad]).astype(float)
    tables = np.array([np.concatenate([pad, data.draw(st.lists(
        st.floats(-8.0, 8.0), min_size=width, max_size=width)), pad]) for _ in "rf"])
    cells = np.array(data.draw(st.lists(st.integers(2, width + 1), min_size=1,
                                        max_size=12)))
    peaks = np.arange(-1, width + 5)
    weights = peak_weights(np.arange(width + 4), peaks)
    _, logs = _tilt_rows(counts[None], *tables[:, None], cells[None])
    states = np.concatenate([tables[:, None], logs[:, 0]], axis=1)
    values = peak_values(states, weights)
    ratio = np.exp(np.diff(values, axis=0))
    assert ((ratio >= 0.5 - PROB_TOL) & (ratio <= 1.5 + PROB_TOL)).all()
    xs = np.arange(1, width + 3)  # every site an observation can touch
    for step in range(len(cells) + 1):
        now = counts + np.bincount(cells[:step], minlength=counts.size)
        _, after = _tilt_rows(np.tile(now, (len(xs), 1)),
                              *np.repeat(states[:, step, None], len(xs), axis=1),
                              xs[:, None])
        factors = np.exp(peak_values(after[:, :, 0], weights) - values[step])
        for j, theta in enumerate(peaks.tolist()):
            e = EvalFn(1, factors[:, j].tolist(), 1.0, 1.0)
            assert is_in_polar_D(e, theta)


# ---------------------------------------------------------- UnimodalFamily


def test_family_matches_standalone_trackers():
    rng = random.Random(77)
    obs = [rng.randint(-3, 8) for _ in range(300)]
    family = replay_family(obs)
    for theta in range(-10, 15):
        t = UnimodalTracker(theta)
        for x in obs:
            t.update(x)
        # same per-site logs; the mixture reductions round differently
        assert family.values_range(theta, theta)[0] == \
            pytest.approx(t.unimodal_value(), abs=1e-12)


def test_family_values_range_consistent():
    rng = random.Random(5)
    family = replay_family(rng.randint(0, 4) for _ in range(150))
    grid = family.values_range(-6, 10)
    for offset, theta in enumerate(range(-6, 11)):
        assert grid[offset] == family.values_range(theta, theta)[0]


def test_family_data_range_and_snapshot():
    family = replay_family([4, -1, 2])
    assert family.data_range() == (-1, 4)
    snap = family.to_snapshot()
    assert snap["counts"] == {"-1": 1, "2": 1, "4": 1}
    assert set(snap) == {"counts", "log_rise", "log_fall"}
    # n is the total of the counts
    assert UnimodalFamily.from_snapshot(snap).n == 3


@settings(max_examples=60, deadline=None, database=None)
@given(obs=st.lists(st.integers(0, 8), max_size=60),
       split=st.integers(0, 60), theta=st.integers(-2, 10))
def test_snapshot_json_round_trip_continues_bit_for_bit(obs, split, theta):
    split = min(split, len(obs))
    stores = (
        (MonotoneTracker, lambda t: t.mixture_value()),
        (lambda: UnimodalTracker(theta), lambda t: t.unimodal_value()),
        (UnimodalFamily, lambda t: t.values_range(-3, 11).tolist()),
    )
    for make, value in stores:
        whole, head = make(), make()
        for x in obs:
            whole.update(x)
        for x in obs[:split]:
            head.update(x)
        resumed = type(head).from_snapshot(json.dumps(head.to_snapshot()))
        for x in obs[split:]:
            resumed.update(x)
        assert json.dumps(resumed.to_snapshot()) == json.dumps(whole.to_snapshot())
        assert value(resumed) == value(whole)


_counts = st.one_of(st.integers(0, 2**40), st.integers(0, 3))


@settings(max_examples=300, deadline=None, database=None)
@given(pairs=st.lists(st.tuples(_counts, _counts), min_size=1, max_size=20))
@example(pairs=[(0, 0)])  # 0/0 is no tilt
@example(pairs=[(0, 1), (0, 2**40), (2**40, 2**40 - 1), (2**40, 0)])  # 1/2 and 0
def test_lambdas_match_wavelet_lambda_bit_for_bit(pairs):
    # for nonnegative counts lam never exceeds 1/2, so only the clip at 0 is kept
    c_m, c_m1 = (np.array(side, dtype=float) for side in zip(*pairs))
    got = [float.hex(lam) for lam in _lambdas(c_m, c_m1).tolist()]
    assert got == [float.hex(wavelet_lambda(float(a), float(b))) for a, b in pairs]


# ------------------------------------------- reference: the per-tracker loops
#
# The update loops each tracker carried before the shared tilt kernel,
# kept verbatim as a plain reference.  The kernel must reproduce their
# log tables (and dict insertion order, which the free-mode test's
# incremental sum depends on) bit for bit.


def _lam_counts(c_lo: float, c_hi: float) -> float:
    # tilt amplitude from raw counts (scale cancels); 0/0 -> 0
    s = c_lo + c_hi
    if s <= 0:
        return 0.0
    lam = (c_hi - c_lo) / (2.0 * s)
    if lam < 0.0:
        return 0.0
    return 0.5 if lam > 0.5 else lam


class RefMonotone:
    def __init__(self) -> None:
        self.n = 0
        self.counts: dict[int, int] = {}
        self.log_factors: dict[int, float] = {}

    def update(self, x: int) -> None:
        c = self.counts
        for m in (x - 1, x):
            if m < 0:
                continue
            lam = _lam_counts(c.get(m, 0), c.get(m + 1, 0))
            factor = 1.0 + lam if x == m + 1 else 1.0 - lam
            self.log_factors[m] = self.log_factors.get(m, 0.0) + math.log(factor)
        c[x] = c.get(x, 0) + 1
        self.n += 1


class RefUnimodal:
    def __init__(self, theta: int) -> None:
        self.theta = int(theta)
        self.n = 0
        self.counts: dict[int, int] = {}
        self.log_factors_plus: dict[int, float] = {}
        self.log_factors_minus: dict[int, float] = {}

    def update(self, x: int) -> None:
        x = int(x)
        c = self.counts
        th = self.theta
        s = x - th
        for m in (s - 1, s):
            if m < 0:
                continue
            lam = _lam_counts(c.get(th + m, 0), c.get(th + m + 1, 0))
            factor = 1.0 + lam if s == m + 1 else 1.0 - lam
            self.log_factors_plus[m] = self.log_factors_plus.get(m, 0.0) + math.log(factor)
        r = th - x
        for m in (r - 1, r):
            if m < 0:
                continue
            lam = _lam_counts(c.get(th - m, 0), c.get(th - m - 1, 0))
            factor = 1.0 + lam if r == m + 1 else 1.0 - lam
            self.log_factors_minus[m] = self.log_factors_minus.get(m, 0.0) + math.log(factor)
        c[x] = c.get(x, 0) + 1
        self.n += 1

    def unimodal_value(self) -> float:
        weight_used = math.fsum(2.0 ** (-m - 2) for m in self.log_factors_plus)
        weight_used += math.fsum(2.0 ** (-m - 2) for m in self.log_factors_minus)
        terms = [-(m + 2) * math.log(2.0) + lf for m, lf in self.log_factors_plus.items()]
        terms += [-(m + 2) * math.log(2.0) + lf for m, lf in self.log_factors_minus.items()]
        residual = 1.0 - weight_used
        if residual > 0.0:
            terms.append(math.log(residual))
        if not terms:
            return 0.0
        top = max(terms)
        return top + math.log(math.fsum(math.exp(t - top) for t in terms))


class RefFamily:
    def __init__(self) -> None:
        self.n = 0
        self.counts: dict[int, int] = {}
        self.log_rise: dict[int, float] = {}
        self.log_fall: dict[int, float] = {}

    def update(self, x: int) -> None:
        x = int(x)
        c = self.counts
        for site in (x - 1, x):
            lam = _lam_counts(c.get(site, 0), c.get(site + 1, 0))
            factor = 1.0 + lam if x == site + 1 else 1.0 - lam
            old = self.log_rise.get(site, 0.0)
            new = old + math.log(factor)
            self.log_rise[site] = new
        for site in (x + 1, x):
            lam = _lam_counts(c.get(site, 0), c.get(site - 1, 0))
            factor = 1.0 + lam if x == site - 1 else 1.0 - lam
            old = self.log_fall.get(site, 0.0)
            new = old + math.log(factor)
            self.log_fall[site] = new
        c[x] = c.get(x, 0) + 1
        self.n += 1


def _items(table: dict, key=lambda k: k) -> list:
    return [(key(k), v) for k, v in table.items()]


@settings(max_examples=80, deadline=None, database=None)
@given(obs=st.lists(st.integers(-6, 6), max_size=80),
       thetas=st.lists(st.integers(-8, 8), min_size=1, max_size=3))
def test_tilt_kernel_matches_reference_loops(obs, thetas):
    mono, ref_mono = MonotoneTracker(), RefMonotone()
    fam, ref_fam = UnimodalFamily(), RefFamily()
    unis = [(UnimodalTracker(th), RefUnimodal(th)) for th in thetas]
    for x in obs:
        mono.update(abs(x))
        ref_mono.update(abs(x))
        fam.update(x)
        ref_fam.update(x)
        assert _items(mono.log_factors) == _items(ref_mono.log_factors)
        assert mono.counts == ref_mono.counts
        assert _items(fam.log_rise) == _items(ref_fam.log_rise)
        assert _items(fam.log_fall) == _items(ref_fam.log_fall)
        assert fam.counts == ref_fam.counts
        for uni, ref in unis:
            uni.update(x)
            ref.update(x)
            th = uni.theta
            assert _items(uni.log_rise, lambda j: j - th) == \
                _items(ref.log_factors_plus)
            assert _items(uni.log_fall, lambda i: th - i) == \
                _items(ref.log_factors_minus)
            assert uni.unimodal_value() == ref.unimodal_value()
            # each peak's tracker is the family cut to its side of the peak
            assert uni.log_rise == {j: v for j, v in fam.log_rise.items() if j >= th}
            assert uni.log_fall == {i: v for i, v in fam.log_fall.items() if i <= th}


# ----------------------------------- reference: the family's vectorized mixture
#
# UnimodalFamily.values_range as it was before the shared array evaluator,
# kept verbatim as a plain reference: rise and fall sites in separate
# arrays, each weighted by its component index.

_LN2 = math.log(2.0)


def _reference_values_range(self, lo: int, hi: int) -> np.ndarray:
    """Log mixture value for every peak in ``[lo, hi]``, vectorized."""
    # positions relative to lo, taken in Python ints: sites past 2**53
    # would collide as floats
    thetas = np.arange(hi - lo + 1, dtype=float)
    rise = sorted(self.log_rise)
    rise_sites = np.array([j - lo for j in rise], dtype=float)
    rise_logs = np.array([self.log_rise[j] for j in rise])
    fall = sorted(self.log_fall)
    fall_sites = np.array([i - lo for i in fall], dtype=float)
    fall_logs = np.array([self.log_fall[i] for i in fall])

    def side(sites, logs, sign):
        # component index of each site for each theta; negative means absent
        if len(sites) == 0:
            z = np.zeros((len(thetas), 0))
            return z, np.zeros(len(thetas))
        m = sign * (sites[None, :] - thetas[:, None])
        valid = m >= 0
        m_safe = np.where(valid, m, 0.0)
        logw = np.where(valid, -(m_safe + 2.0) * _LN2 + logs[None, :], -np.inf)
        used = np.where(valid, np.exp2(-(m_safe + 2.0)), 0.0).sum(axis=1)
        return logw, used

    logw_p, used_p = side(rise_sites, rise_logs, +1)
    logw_m, used_m = side(fall_sites, fall_logs, -1)
    # strictly positive in exact arithmetic; clamp away float dust
    residual = np.maximum(1.0 - used_p - used_m, 0.0)
    with np.errstate(divide="ignore"):
        log_res = np.log(residual)
    terms = np.concatenate([logw_p, logw_m, log_res[:, None]], axis=1)
    peak = terms.max(axis=1)
    out = peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))
    return out


# dense sites near zero, and sparse ones up to 2000 away, past the
# distance (about 1073) where a dyadic weight underflows as a float
_sites = st.one_of(st.integers(-12, 12), st.integers(-2000, 2000))
_tables = st.dictionaries(_sites, st.floats(-60.0, 1400.0), max_size=24)


@settings(max_examples=150, deadline=None, database=None)
@given(rise=_tables, fall=_tables, lo=st.integers(-40, 30),
       width=st.integers(0, 60))
@example(rise={}, fall={}, lo=-3, width=6)
@example(rise={j: 0.3 * j - 1.0 for j in range(-4, 8)},
         fall={i: 0.7 - 0.2 * i for i in range(-6, 5)}, lo=-9, width=20)
@example(rise={1500: 1100.0, 3: -2.0}, fall={-1400: 1000.0}, lo=-5, width=10)
def test_peak_values_match_the_reference_values_range(rise, fall, lo, width):
    family = UnimodalFamily()
    family.log_rise, family.log_fall = rise, fall
    got = family.values_range(lo, lo + width)
    want = _reference_values_range(family, lo, lo + width)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))


@settings(max_examples=60, deadline=None, database=None)
@given(sites=st.lists(_sites, min_size=1, max_size=16, unique=True),
       steps=st.integers(1, 6), lo=st.integers(-20, 10),
       width=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
def test_peak_values_per_step_and_per_peak_agree(sites, steps, lo, width, seed):
    # a steps axis gives each step's values, and a peak's value does not
    # depend on the peaks evaluated with it: equal to the last bit
    logs = np.random.default_rng(seed).uniform(-20.0, 40.0, (2, steps, len(sites)))
    weights = peak_weights(sites, range(lo, lo + width + 1))
    together = peak_values(logs, weights)
    assert together.shape == (steps, width + 1)
    for t in range(steps):
        alone = peak_values(logs[:, t], weights)
        assert alone.tolist() == together[t].tolist()
        for j in range(width + 1):
            one = (weights[0][..., j:j + 1], weights[1][j:j + 1])
            assert peak_values(logs[:, t], one)[0] == alone[j]


# ----------------------------------------------------- numeraire e-process


def test_numeraire_eprocess_examples():
    q = make_pmf(0, [0.1, 0.9])
    assert numeraire_eprocess(q, [1]) == pytest.approx(math.log(1.8))
    assert numeraire_eprocess(q, [0, 1]) == pytest.approx(math.log(0.36))


def test_numeraire_eprocess_null_is_flat():
    q = make_pmf(0, [0.4, 0.3, 0.2, 0.1])
    obs = sample(q, 9, 200)
    assert numeraire_eprocess(q, obs) == pytest.approx(0.0, abs=1e-9)


def test_numeraire_eprocess_guards():
    q = make_pmf(0, [0.1, 0.9])
    with pytest.raises(NegativeObservation):
        numeraire_eprocess(q, [1, -2])
    assert numeraire_eprocess(q, [5]) == -math.inf  # outside the support
