"""Shape predicates, envelopes, and the sampling front door."""

import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evshape.errors import (
    EmptyObservations,
    MassSumViolation,
    NegativeMass,
    NegativeSupport,
    SubprobabilitySampling,
)
from evshape.pmf import (
    ModeInterval,
    Pmf,
    _running_fsums,
    empirical,
    is_monotone,
    is_theta_unimodal,
    make_pmf,
    mode_set,
    monotone_envelope,
    pmf_from_json,
    pmf_from_text,
    sample,
    satisfies_basic_inequality,
    unimodal_envelope,
)


def random_unimodal(rng: random.Random, lo_range=(-5, 5), width_range=(1, 12)):
    """A pmf that rises to a mode and falls after it, by construction."""
    lo = rng.randint(*lo_range)
    width = rng.randint(*width_range)
    peak = rng.randint(0, width - 1)
    up = sorted(rng.uniform(0.1, 1.0) for _ in range(peak + 1))
    down = sorted((rng.uniform(0.1, 1.0) for _ in range(width - peak - 1)),
                  reverse=True)
    masses = up + [m for m in down if m <= up[-1]]
    total = sum(masses)
    return make_pmf(lo, [m / total for m in masses])


def random_monotone(rng: random.Random, width_range=(1, 12)):
    masses = sorted((rng.uniform(0.05, 1.0) for _ in
                     range(rng.randint(*width_range))), reverse=True)
    total = sum(masses)
    return make_pmf(0, [m / total for m in masses])


# ------------------------------------------------------------- construction


def test_make_pmf_rejects_negative_mass():
    with pytest.raises(NegativeMass):
        make_pmf(0, [0.5, -0.1, 0.6])


def test_make_pmf_rejects_bad_total():
    with pytest.raises(MassSumViolation):
        make_pmf(0, [0.5, 0.6])
    with pytest.raises(MassSumViolation):
        make_pmf(0, [0.5, 0.4])  # short of 1 and not flagged sub


def test_sub_pmf_allows_deficit():
    p = make_pmf(0, [0.3, 0.2], is_sub=True)
    assert p.total == pytest.approx(0.5)
    with pytest.raises(MassSumViolation):
        make_pmf(0, [0.8, 0.4], is_sub=True)  # sub still cannot exceed 1


def test_f_and_cdf():
    p = make_pmf(2, [0.25, 0.5, 0.25])
    assert p.f(1) == 0.0
    assert p.f(3) == 0.5
    assert p.f(99) == 0.0
    assert p.cdf(1) == 0.0
    assert p.cdf(3) == pytest.approx(0.75)
    assert p.cdf(99) == pytest.approx(1.0)
    assert p.hi == 4


def test_json_and_text_round_trips():
    p = make_pmf(-1, [0.2, 0.3, 0.5])
    assert pmf_from_json(p.to_json()) == p
    assert pmf_from_json('{"lo": -1, "masses": [0.2, 0.3, 0.5]}') == p  # no is_sub
    sub = make_pmf(0, [0.3, 0.2], is_sub=True)
    assert pmf_from_json(json.dumps(sub.to_json())) == sub  # "is_sub": true
    text = "\n".join(f"{x} {mass}" for x, mass in p.items())
    assert pmf_from_text(text) == p


# ---------------------------------------------------------------- empirical


def test_empirical_examples():
    assert empirical([0, 1, 1, 3]) == make_pmf(0, [0.25, 0.5, 0.0, 0.25])
    assert empirical([5]) == make_pmf(5, [1.0])
    assert empirical([-2, -2]) == make_pmf(-2, [1.0])
    with pytest.raises(EmptyObservations):
        empirical([])


# ----------------------------------------------------------------- sampling


def test_sample_point_mass():
    p = make_pmf(7, [1.0])
    assert sample(p, 123, 3) == [7, 7, 7]
    assert sample(p, 123, 0) == []


def test_sample_deterministic_and_calibrated():
    p = make_pmf(0, [0.5, 0.5])
    a = sample(p, 1, 100_000)
    b = sample(p, 1, 100_000)
    assert a == b
    assert abs(sum(a) / len(a) - 0.5) < 0.01
    assert sample(p, 2, 100) != sample(p, 3, 100)


def test_sample_rejects_subprobability():
    with pytest.raises(SubprobabilitySampling):
        sample(make_pmf(0, [0.5], is_sub=True), 1, 5)


# --------------------------------------------------------- shape predicates


def test_is_monotone():
    assert is_monotone(make_pmf(0, [0.5, 0.3, 0.2]))
    assert not is_monotone(make_pmf(0, [0.2, 0.4, 0.4]))
    with pytest.raises(NegativeSupport):
        is_monotone(make_pmf(-1, [0.6, 0.4]))


def test_is_theta_unimodal():
    p = make_pmf(-1, [0.2, 0.5, 0.3])
    assert is_theta_unimodal(p, 0)
    assert not is_theta_unimodal(p, -1)
    # flat pmf is unimodal at every interior point
    q = make_pmf(0, [0.25, 0.25, 0.25, 0.25])
    for t in range(-2, 6):
        assert is_theta_unimodal(q, t) == (0 <= t <= 3)


def test_mode_set_examples():
    assert mode_set(make_pmf(0, [0.2, 0.5, 0.3])) == ModeInterval.bounded(1, 1)
    assert mode_set(make_pmf(0, [0.25, 0.25, 0.25, 0.25])) == \
        ModeInterval.bounded(0, 3)
    assert mode_set(make_pmf(3, [1.0])) == ModeInterval.bounded(3, 3)


def test_mode_set_contiguous_on_random_unimodal():
    rng = random.Random(20260816)
    for _ in range(400):
        p = random_unimodal(rng)
        modes = mode_set(p)
        assert modes.kind in ("range", "all")
        if modes.kind == "range":
            assert modes.lo <= modes.hi
            for t in range(modes.lo, modes.hi + 1):
                assert is_theta_unimodal(p, t)
            assert not is_theta_unimodal(p, modes.lo - 1)
            assert not is_theta_unimodal(p, modes.hi + 1)


def test_basic_inequality():
    assert satisfies_basic_inequality(make_pmf(0, [0.5, 3 / 14, 4 / 14]))
    assert satisfies_basic_inequality(make_pmf(0, [0.5, 0.3, 0.2]))
    assert not satisfies_basic_inequality(make_pmf(0, [0.2, 0.8]))


def test_monotone_implies_basic_inequality():
    rng = random.Random(7)
    for _ in range(300):
        assert satisfies_basic_inequality(random_monotone(rng))


# ---------------------------------------------------------------- envelopes


def test_monotone_envelope_examples():
    env = monotone_envelope(make_pmf(0, [0.2, 0.4, 0.4]))
    assert env.masses == pytest.approx((0.4, 0.4, 0.4))
    assert env.total == pytest.approx(1.2)

    p = make_pmf(0, [0.5, 0.3, 0.2])
    assert monotone_envelope(p).masses == pytest.approx(p.masses)

    sub = make_pmf(0, [0.3, 0.1, 0.2], is_sub=True)
    env = monotone_envelope(sub)
    assert env.masses == pytest.approx((0.3, 0.2, 0.2))
    assert env.total == pytest.approx(0.7)


def test_monotone_envelope_dominates_and_decreases():
    rng = random.Random(99)
    for _ in range(200):
        width = rng.randint(1, 10)
        masses = [rng.uniform(0, 1) for _ in range(width)]
        total = sum(masses)
        p = make_pmf(0, [m / total for m in masses])
        env = monotone_envelope(p)
        for (x, orig), got in zip(p.items(), env.masses):
            assert got >= orig - 1e-15
        assert all(a >= b - 1e-15 for a, b in zip(env.masses, env.masses[1:]))


def test_unimodal_envelope_examples():
    p = make_pmf(0, [1.0])
    assert unimodal_envelope(p, 0).masses == pytest.approx((1.0,))

    env = unimodal_envelope(make_pmf(-1, [0.4, 0.1, 0.4], is_sub=True), 0)
    assert env.masses == pytest.approx((0.4, 0.4, 0.4))
    assert env.total == pytest.approx(1.2)

    p = make_pmf(0, [0.6, 0.4])
    assert unimodal_envelope(p, 0).masses == pytest.approx(p.masses)


def test_unimodal_envelope_shape():
    rng = random.Random(4242)
    for _ in range(200):
        width = rng.randint(1, 9)
        masses = [rng.uniform(0, 1) for _ in range(width)]
        total = sum(masses)
        lo = rng.randint(-4, 4)
        theta = rng.randint(lo - 2, lo + width + 1)
        p = make_pmf(lo, [m / total for m in masses])
        env = unimodal_envelope(p, theta)
        assert is_theta_unimodal(env, theta)
        for (x, orig), got in zip(p.items(), env.masses):
            assert got >= orig - 1e-15


# ------------------------------------------------------------- ModeInterval


def test_mode_interval_basics():
    r = ModeInterval.bounded(-2, 4)
    assert r.contains(-2) and r.contains(4) and not r.contains(5)
    assert ModeInterval.all_integers().contains(10**9)
    assert not ModeInterval.empty().contains(0)
    assert ModeInterval.empty().is_empty
    with pytest.raises(ValueError):
        ModeInterval.bounded(3, 1)  # inverted bounds are a caller bug


def test_mode_interval_intersect():
    a = ModeInterval.bounded(0, 10)
    b = ModeInterval.bounded(5, 20)
    assert a.intersect(b) == ModeInterval.bounded(5, 10)
    assert a.intersect(ModeInterval.all_integers()) == a
    assert a.intersect(ModeInterval.bounded(11, 12)).is_empty
    assert a.intersect(ModeInterval.empty()).is_empty


# ---------------------------------------------------------- running fsums


_DBL_MAX = 1.7976931348623157e308
# fsum's hard cases: subnormals, 2**53 (where 1 is half an ulp), steps
# below half an ulp of 1, -0.0, entries near the float range, non-finites
_FSUM_EDGES = [0.0, -0.0, 1.0, 2.0**53, 2.0**53 + 2.0, 2.0**-54, 2.0**-60, 5e-324,
               -5e-324, 1e-310, 1e308, 1.7e308, -1.7e308, _DBL_MAX, math.inf, -math.inf,
               math.nan]


@st.composite
def fsum_groups(draw):
    xs = draw(st.lists(st.one_of(st.floats(), st.sampled_from(_FSUM_EDGES)), max_size=24))
    # some entries leave again, as their negation, at or after the place they enter
    leaves = [[] for _ in xs]
    for i in draw(st.lists(st.integers(0, len(xs) - 1), max_size=len(xs))) if xs else ():
        leaves[draw(st.integers(i, len(xs) - 1))].append(-xs[i])
    flat = [y for x, out in zip(xs, leaves) for y in (x, *out)]
    cuts = sorted(draw(st.lists(st.integers(0, len(flat)), max_size=8)))
    return [flat[a:b] for a, b in zip([0, *cuts], [*cuts, len(flat)])]


def _fsum_reading(xs):
    try:
        return repr(math.fsum(xs))
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


@settings(max_examples=1000, deadline=None, database=None)
@given(groups=fsum_groups())
@example(groups=[[0.1, 0.7], [-0.1], [0.2, -0.7], [-0.2]])  # cancelling pairs
@example(groups=[[5e-324], [1e-310, -5e-324], [-1e-310]])  # subnormals
@example(groups=[[2.0**53], [1.0], [1.0], [-2.0**53]])  # at 2**53
@example(groups=[[1.0], [2.0**-54], [2.0**-54], [2.0**-60]])  # below half an ulp
@example(groups=[[-0.0], [-0.0, 0.0], [-0.0]])
@example(groups=[[1.0], [math.inf], [1.0], [math.nan], [-math.inf]])
@example(groups=[[1e308, math.inf], [1e308], [1e308]])  # overflow after an inf
@example(groups=[[1.7e308], [1.7e308], [-1.7e308]])  # a finite overflow raises
@example(groups=[[_DBL_MAX, -_DBL_MAX], [_DBL_MAX], [2.0**970]])
def test_running_fsums_read_fsum_of_every_prefix(groups):
    flat, want = [], []
    for group in groups:
        flat += group
        want.append(_fsum_reading(flat))
    got, readings = [], _running_fsums(groups)
    while len(got) < len(groups):
        try:
            got.append(repr(next(readings)))
        except (OverflowError, ValueError) as exc:
            got.append(type(exc).__name__)
            break
    assert got == want[:len(got)]
    assert len(got) == len(groups) or got[-1] in ("OverflowError", "ValueError")
