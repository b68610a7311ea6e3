"""One-observation e-values and the polar membership oracles."""

import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evshape.errors import (
    InvalidCertificate,
    NegativeSupport,
    NegativeValue,
    NoViolation,
    NoViolationAt,
    NonFiniteInput,
    NonzeroTail,
)
from evshape.evalues import (
    EvalFn,
    PolarCertificate,
    _scaled,
    epower,
    epower_lower_bound,
    expectation,
    is_in_polar_D,
    is_in_polar_M,
    is_xq_form,
    polar_certificate_d,
    polar_certificate_m,
    wavelet_evalue,
    wavelet_lambda,
    witness,
    xq_evalue,
)
from evshape.pmf import make_pmf

Q_RISE = make_pmf(0, [0.2, 0.4, 0.4])


def brute_polar_m(e: EvalFn, n_max: int = 400) -> bool:
    """Check the expectation bound against every uniform prefix directly."""
    s = 0.0
    for n in range(n_max + 1):
        s += e.at(n)
        if s / (n + 1) > 1.0 + 1e-9:
            return False
    return e.right_tail <= 1.0 + 1e-9


# -------------------------------------------------------------- EvalFn type


def test_evalfn_at_and_tails():
    e = EvalFn(2, (0.5, 1.5), left_tail=1.0, right_tail=0.25)
    assert e.at(1) == 1.0
    assert e.at(2) == 0.5
    assert e.at(3) == 1.5
    assert e.at(4) == 0.25
    assert e.hi == 3


def test_evalfn_rejects_negative():
    with pytest.raises(NegativeValue):
        EvalFn(0, (-0.1,), 1.0, 1.0)
    with pytest.raises(NegativeValue):
        EvalFn(0, (1.0,), -1.0, 1.0)


def test_evalfn_json_round_trip():
    e = EvalFn(-3, (0.0, 2.0, 1.0), 1.0, 0.5)
    assert EvalFn.from_json(e.to_json()) == e


# ------------------------------------------------------------------ wavelet


def test_wavelet_lambda():
    assert wavelet_lambda(0.2, 0.4) == pytest.approx(1 / 6)
    assert wavelet_lambda(0.4, 0.2) == 0.0
    assert wavelet_lambda(0.0, 0.0) == 0.0
    assert wavelet_lambda(0.0, 1.0) == 0.5  # closed clamp endpoint


def test_wavelet_evalue_rise():
    e = wavelet_evalue(Q_RISE, 0)
    assert e.at(0) == pytest.approx(5 / 6)
    assert e.at(1) == pytest.approx(7 / 6)
    assert e.at(-3) == 1.0
    assert e.at(7) == 1.0
    assert is_in_polar_M(e)


def test_wavelet_evalue_monotone_is_constant():
    q = make_pmf(0, [0.5, 0.3, 0.2])
    for m in range(4):
        e = wavelet_evalue(q, m)
        assert all(v == 1.0 for v in e.values)


def test_wavelet_evalue_extreme_lambda():
    e = wavelet_evalue(make_pmf(0, [0.0, 1.0]), 0)
    assert e.at(0) == pytest.approx(0.5)
    assert e.at(1) == pytest.approx(1.5)
    assert is_in_polar_M(e)


# ----------------------------------------------------- expectation / epower


def test_expectation_examples():
    one = EvalFn(0, (), 1.0, 1.0)
    assert expectation(one, Q_RISE) == pytest.approx(1.0)
    sub = make_pmf(0, [0.3, 0.4], is_sub=True)
    assert expectation(one, sub) == pytest.approx(0.7)

    e = wavelet_evalue(Q_RISE, 0)
    assert expectation(e, make_pmf(0, [0.5, 0.5])) == pytest.approx(1.0)
    assert expectation(e, Q_RISE) == pytest.approx(31 / 30)


def test_epower_examples():
    one = EvalFn(0, (), 1.0, 1.0)
    assert epower(one, Q_RISE) == 0.0

    e = wavelet_evalue(Q_RISE, 0)
    want = 0.2 * math.log(5 / 6) + 0.4 * math.log(7 / 6)
    assert epower(e, Q_RISE) == pytest.approx(want, abs=1e-15)
    assert epower(e, Q_RISE) == pytest.approx(0.025195960572112427, abs=1e-12)

    dead = EvalFn(0, (0.0, 2.0), 1.0, 1.0)
    assert epower(dead, Q_RISE) == -math.inf


def test_epower_lower_bound():
    assert epower_lower_bound(Q_RISE, 0) == pytest.approx(0.04 / 2.4)
    assert epower_lower_bound(make_pmf(0, [0.25, 0.75]), 0) == \
        pytest.approx(0.0625)
    with pytest.raises(NoViolationAt):
        epower_lower_bound(make_pmf(0, [0.5, 0.3, 0.2]), 0)


def test_epower_beats_lower_bound():
    # the certified floor never exceeds the actual e-power
    rng = random.Random(314)
    hits = 0
    while hits < 300:
        width = rng.randint(2, 9)
        masses = [rng.uniform(0.01, 1.0) for _ in range(width)]
        total = sum(masses)
        q = make_pmf(0, [m / total for m in masses])
        rises = [m for m in range(width - 1) if q.f(m + 1) > q.f(m)]
        if not rises:
            continue
        m = rng.choice(rises)
        assert epower(wavelet_evalue(q, m), q) >= \
            epower_lower_bound(q, m) - 1e-12
        hits += 1


# ----------------------------------------------------------- polar oracles


def test_polar_m_examples():
    assert is_in_polar_M(EvalFn(0, (0.0, 2.0, 1.0), 1.0, 1.0))
    assert not is_in_polar_M(EvalFn(0, (2.0,), 1.0, 1.0))
    assert is_in_polar_M(EvalFn(0, (), 1.0, 1.0))
    assert not is_in_polar_M(EvalFn(0, (), 1.0, 1.2))  # bad tail


def test_polar_m_agrees_with_uniform_brute_force():
    rng = random.Random(58)
    for _ in range(300):
        lo = rng.randint(0, 12)
        vals = tuple(rng.uniform(0, 2.2) for _ in range(rng.randint(0, 10)))
        tail = rng.choice([0.0, rng.uniform(0, 1), rng.uniform(1.3, 2)])
        e = EvalFn(lo, vals, rng.uniform(0, 1.5), tail)
        assert is_in_polar_M(e) == brute_polar_m(e)


def test_polar_d_examples():
    one = EvalFn(0, (), 1.0, 1.0)
    for theta in (-3, 0, 5):
        assert is_in_polar_D(one, theta)

    # unit-shift witness: -1 at m, +1 at m+1, for m at or above theta
    for theta, m in ((0, 0), (0, 3), (-2, 1)):
        e = EvalFn(m, (0.0, 2.0), 1.0, 1.0)
        assert is_in_polar_D(e, theta)

    bad = EvalFn(4, (1.5,), 1.0, 1.0)
    assert not is_in_polar_D(bad, 4)  # 1.5 at theta itself


def test_polar_d_shift_reflection():
    # falling pair below theta mirrors the rising pair above it
    e = EvalFn(-5, (2.0, 0.0), 1.0, 1.0)  # 2 at -5, 0 at -4
    assert is_in_polar_D(e, 0)
    assert not is_in_polar_M(EvalFn(0, (2.0, 0.0), 1.0, 1.0))


def test_polar_d_tail_guards():
    assert not is_in_polar_D(EvalFn(0, (), 1.0, 1.2), 0)
    assert not is_in_polar_D(EvalFn(0, (), 1.2, 1.0), 0)


# ------------------------------------------------------------- certificates


def test_certificate_round_trip():
    e = wavelet_evalue(Q_RISE, 0)
    cert = polar_certificate_m(e, upto=6)
    assert cert.eta is None
    assert all(r <= n + 1 + 1e-12 for n, r in enumerate(cert.rho))
    assert all(a <= b + 1e-12 for a, b in zip(cert.rho, cert.rho[1:]))

    shifted = EvalFn(2, (0.0, 2.0), 1.0, 1.0)
    cert = polar_certificate_d(shifted, 0, upto=6)
    assert cert.eta is not None
    assert cert.rho[0] == cert.eta[0]
    sup_rho = max(r - (n + 1) for n, r in enumerate(cert.rho))
    sup_eta = max(r - (n + 1) for n, r in enumerate(cert.eta))
    assert sup_rho + sup_eta <= 1e-12


def test_certificate_caps_sums_as_the_oracle_does():
    # a relative slack of 5e-10 per entry: inside the oracle's cap
    # (n + 1)(1 + tol) at every n, but past n + 1 + tol from n = 2 on
    e = EvalFn(0, (1 + 5e-10,) * 100000, 0.0, 1.0)
    assert is_in_polar_M(e)
    assert len(polar_certificate_m(e, 99999).rho) == 100000


def test_certificate_validation():
    with pytest.raises(InvalidCertificate):
        PolarCertificate(rho=(2.0, 1.0))  # not non-decreasing
    with pytest.raises(InvalidCertificate):
        PolarCertificate(rho=(1.5,))  # rho_1 > 1 in the monotone case
    with pytest.raises(InvalidCertificate):
        PolarCertificate(rho=(0.75, 1.0), eta=(0.25, 1.0))  # rho1 != eta1


@pytest.mark.parametrize("rho, eta, where", [
    ((math.nan,), None, "rho[0]"),
    ((0.75, math.nan), (0.75, 0.75), "rho[1]"),
    ((0.5, math.nan, 1.0), None, "rho[1]"),  # NaN passes the order check both ways
    ((0.75, 1.0), (0.75, math.nan), "eta[1]"),
])
def test_certificate_rejects_nan_sums(rho, eta, where):
    with pytest.raises(InvalidCertificate, match=re.escape(f"{where} is NaN")):
        PolarCertificate(rho, eta)


def test_polar_checks_share_the_relative_cap():
    # a relative slack of 5e-10 per entry: every block sum is at most its
    # length times 1 + 1e-9, so M, D and D's certificate all accept, where an
    # absolute cap of length + 1e-9 refused the blocks of more than two entries
    e = EvalFn(-50000, (1 + 5e-10,) * 100001, 0.0, 0.0)
    assert is_in_polar_M(e)
    assert is_in_polar_D(e, 0)
    cert = polar_certificate_d(e, 0, 50001)  # raises if its joint cap breaks
    assert len(cert.rho) == len(cert.eta) == 50002


def test_polar_checks_refuse_offsets_past_the_float_range():
    # the oracles place the table in floats: an offset that no float holds
    # is a typed error naming it, as the check-evalue readers give
    with pytest.raises(NonFiniteInput, match="^lo is too large for a float$"):
        is_in_polar_M(EvalFn(10**309 + 7, (0.5, 0.25, 0.1), 0.5, 0.5))
    with pytest.raises(NonFiniteInput,
                       match="^theta's distance to the table is too large for a float$"):
        is_in_polar_D(EvalFn(-(10**308 + 7), (0.5, 0.25, 0.1), 0.5, 0.5), 10**308)


def test_polar_m_reads_a_sum_past_the_float_range_as_past_its_cap():
    # a tail of 1.0 from 0 to lo, about 1.79e308, then 1e307: the exact
    # prefix through lo passes the float range, and every finite cap
    lo = int(1.79e308)
    assert not is_in_polar_M(EvalFn(lo, (1e307,), 1.0, 0.0))
    assert not is_in_polar_D(EvalFn(lo, (1e307,), 1.0, 0.0), 0)
    # the first prefix under its cap, the second past the float range
    assert not is_in_polar_M(EvalFn(0, (8e307, 1e308), 0.0, 0.0), 8.5e307)
    # it reads inf, which an infinite cap holds
    assert is_in_polar_M(EvalFn(0, (1e308, 1e308), 0.0, 0.0), math.inf)


@settings(max_examples=500, deadline=None, database=None)
@given(x=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(-2.0**-1021, 2.0**-1021, allow_nan=False)))
@example(x=0.0)
@example(x=-0.0)
@example(x=5e-324)
@example(x=-5e-324)
@example(x=2.0**-1022)
@example(x=1.7976931348623157e308)
@example(x=-1.7976931348623157e308)
def test_scaled_is_the_float_in_units_of_the_least_subnormal(x):
    assert _scaled(x) == Fraction(x) * 2**1074


def test_far_peak_walk_holds_bounded_memory():
    # 10^6 entries of tail between the table and theta: one piece
    e = EvalFn(0, (0.5, 0.25, 0.1), 0.5, 0.5)
    tracemalloc.start()
    try:
        assert is_in_polar_D(e, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------- xq family


def test_xq_evalue_examples():
    e = xq_evalue(make_pmf(4, [1.0]))
    assert e.at(4) == pytest.approx(5.0)
    assert e.at(3) == 0.0 and e.at(5) == 0.0

    e = xq_evalue(make_pmf(0, [0.5, 0.5]))
    assert e.values == pytest.approx((0.5, 1.0))

    geo = make_pmf(0, [2.0 ** (-n - 1) for n in range(20)], is_sub=True)
    e = xq_evalue(geo)
    assert e.at(3) == pytest.approx(4 * 2.0 ** -4)
    assert is_in_polar_M(e)

    with pytest.raises(NegativeSupport):
        xq_evalue(make_pmf(-1, [0.5, 0.5]))


def test_is_xq_form():
    rng = random.Random(12)
    for _ in range(50):
        width = rng.randint(1, 8)
        masses = [rng.uniform(0, 1) for _ in range(width)]
        total = sum(masses) / rng.uniform(0.3, 1.0)
        q = make_pmf(0, [m / total for m in masses], is_sub=True)
        assert is_xq_form(xq_evalue(q))

    assert not is_xq_form(EvalFn(1, (3.0,), 0.0, 0.0))
    assert not is_xq_form(EvalFn(0, (1.0, 1.0), 0.0, 0.0))  # 1 + 1/2 > 1
    with pytest.raises(NonzeroTail):
        is_xq_form(EvalFn(0, (1.0,), 0.0, 1.0))


# ------------------------------------------------------------------ witness


def test_witness_monotone_case():
    e = witness(Q_RISE)
    assert expectation(e, Q_RISE) == pytest.approx(31 / 30)
    assert is_in_polar_M(e)
    with pytest.raises(NoViolation):
        witness(make_pmf(0, [0.5, 0.3, 0.2]))


def test_witness_unimodal_case():
    q = make_pmf(-1, [0.4, 0.1, 0.5])
    e = witness(q, theta=0)
    assert is_in_polar_D(e, 0)
    assert expectation(e, q) > 1.0
    with pytest.raises(NoViolation):
        witness(make_pmf(0, [0.6, 0.4]), theta=0)


def test_witness_is_strong_on_random_alternatives():
    rng = random.Random(2025)
    found = 0
    while found < 200:
        width = rng.randint(2, 8)
        masses = [rng.uniform(0.01, 1.0) for _ in range(width)]
        total = sum(masses)
        lo = rng.randint(-3, 3)
        q = make_pmf(lo, [m / total for m in masses])
        theta = rng.randint(lo - 1, lo + width)
        from evshape.pmf import is_theta_unimodal
        if is_theta_unimodal(q, theta):
            continue
        e = witness(q, theta=theta)
        assert is_in_polar_D(e, theta)
        assert expectation(e, q) > 1.0
        found += 1
