"""Differential tests of the linear-time table layer.

Each single-pass operation is compared with ``==`` against the plain
code it replaced, copied below as the reference: the polar check that
re-sums every prefix, the bisecting refinement of two breakpoint grids,
the numeraire payloads that fit the majorant once per output, and the
witness scan that builds a tilt for every rising pair.  Outcomes are
compared through ``repr``, so float bits, ``-0.0`` and ``nan`` count,
and so does the type of any exception raised.

The C-level kernels (``map``, ``itertools`` and array merges in place of
per-entry loops) are compared the same way with the per-entry loops
they replaced: the text parser, the table validation, ``epower``, the
polar certificates, the monotone chain (on short and long inputs),
``integral_to``, ``lcm_cont`` and the two-pointer grid merge.  There
floats are compared by ``float.hex`` and exceptions by type and message.
The M and D polar checks, which read exact sums, are compared with exact
``Fraction`` block scans, and with the float walks they replaced where
those walks clear every cap by their rounding error.

The closed forms are compared with the scans they replaced: the mode
set and the peak predicate from the last rise and the first drop against
the predicate run at every candidate peak, and the majorant's value by
bisection against the walk over its segments.
"""

import contextlib
import functools
import io
import json
import math
import random
import sys
import tracemalloc
import warnings
from fractions import Fraction
from itertools import accumulate
from operator import sub

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evshape
from evshape.cli import _PIECE, _emit, _Runs, _runs, main
from evshape.continuous import (
    StepDensity,
    StepFn,
    XqEvalue,
    _charged_pieces,
    _numeraire_cont_with_epower,
    epower_cont,
    expectation_cont,
    is_in_polar_U,
    lcm_cont,
    numeraire_cont,
    step_density_from_json,
)
from evshape.errors import (
    BadInterval,
    EvshapeError,
    MalformedText,
    NegativeMass,
    NegativeSupport,
    NegativeValue,
    NonFiniteInput,
    NonzeroTail,
    NoViolation,
    SubprobabilityInput,
)
from evshape.eprocess import numeraire_eprocess
from evshape.evalues import (
    EvalFn,
    PolarCertificate,
    _over_block_caps,
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
)
from evshape.harness import ScenarioConfig, run_experiment
from evshape.numeraire import (
    LcmResult,
    _upper_hull,
    lcm,
    max_epower,
    numeraire_evalue,
    ripr,
)
from evshape.pmf import (
    PROB_TOL,
    SHAPE_TOL,
    ModeInterval,
    Pmf,
    _contiguous_rows,
    is_monotone,
    is_theta_unimodal,
    make_pmf,
    mode_set,
    pmf_from_text,
)

DBL_MAX = sys.float_info.max


# ------------------------------------------------- reference: the old code


def ref_is_in_polar_U(e, require_jump_guard: bool = False, tol: float = PROB_TOL) -> bool:
    if e.tail_level > 1.0 + tol:
        return False
    if require_jump_guard and e.value_at_0 > 1.0 + tol:
        return False
    return all(
        e.integral_to(b) <= b + tol * max(1.0, b) for b in e.breakpoints
    )


def _refined_pieces(e_bps, p_bps):
    # common refinement of two breakpoint grids, as (left, right] pairs
    cuts = sorted(set(e_bps) | set(p_bps))
    return list(zip(cuts, cuts[1:]))


def ref_expectation_cont(e, p: StepDensity) -> float:
    parts = [p.atom0 * e.value_at_0]
    product_form = isinstance(e, XqEvalue)
    for left, right in _refined_pieces(e.breakpoints, p.fn.breakpoints):
        p_lv = p.fn.at(right)
        if p_lv == 0.0:
            continue
        if product_form:
            q_lv = e.q.fn.at(right)
            parts.append(p_lv * q_lv * (right * right - left * left) / 2.0)
        else:
            parts.append(p_lv * e.at(right) * (right - left))
    return math.fsum(parts)


def ref_epower_cont(e: StepFn, q: StepDensity) -> float:
    parts = []
    if q.atom0 > 0.0:
        if e.value_at_0 <= 0.0:
            return -math.inf
        parts.append(q.atom0 * math.log(e.value_at_0))
    for left, right in _refined_pieces(e.breakpoints, q.fn.breakpoints):
        q_lv = q.fn.at(right)
        if q_lv == 0.0:
            continue
        e_lv = e.at(right)
        if e_lv <= 0.0:
            return -math.inf
        parts.append(q_lv * (right - left) * math.log(e_lv))
    # q has no tail mass, so pieces past its last breakpoint contribute 0
    return math.fsum(parts)


def ref_numeraire_cont(q: StepDensity) -> StepFn:
    fitted = lcm_cont(q)
    values = []
    for right in q.fn.breakpoints[1:]:
        q_lv = q.fn.at(right)
        values.append(q_lv / fitted.fn.at(right) if q_lv > 0.0 else 0.0)
    at0 = 1.0 if q.atom0 > 0.0 else 0.0
    return StepFn(q.fn.breakpoints, tuple(values), at0, 0.0)


def _masses_from_0(q: Pmf) -> list[float]:
    # q.f at every index 0 .. hi, read once: each q.f call recomputes q.hi
    return [0.0] * q.lo + list(q.masses)


@functools.lru_cache(maxsize=2)  # a far table's hull is slow in Python
def ref_lcm(q: Pmf) -> LcmResult:
    if q.lo < 0:
        raise NegativeSupport("majorant needs nonnegative support")
    if q.is_sub or abs(q.total - 1.0) > PROB_TOL:
        raise SubprobabilityInput("majorant needs a full probability")
    xs = list(range(-1, q.hi + 1))
    f = _masses_from_0(q)
    cdf, acc = [0.0], 0.0
    for n in range(0, q.hi + 1):
        acc += f[n]
        cdf.append(acc)
    hx, hy = ref_upper_hull(xs, cdf)
    # merge numerically equal adjacent slopes so contacts are canonical
    contacts = [hx[0]]
    heights = [hy[0]]
    slopes: list[float] = []
    for k in range(1, len(hx)):
        slope = (hy[k] - heights[-1]) / (hx[k] - contacts[-1])
        if slopes and abs(slope - slopes[-1]) <= 1e-12:
            run = hx[k] - contacts[-2]
            slopes[-1] = (hy[k] - heights[-2]) / run
            contacts[-1] = hx[k]
            heights[-1] = hy[k]
        else:
            slopes.append(slope)
            contacts.append(hx[k])
            heights.append(hy[k])
    return LcmResult(tuple(contacts), tuple(slopes), tuple(heights))


def ref_numeraire_evalue(q: Pmf) -> EvalFn:
    res = ref_lcm(q)
    fitted, f = res.fitted_masses(), _masses_from_0(q)
    values = tuple(
        f[n] / fitted[n] if f[n] > 0.0 else 0.0 for n in range(0, res.hi + 1)
    )
    return EvalFn(0, values, 0.0, 0.0)


def ref_ripr(q: Pmf) -> Pmf:
    res = ref_lcm(q)
    fitted, f = res.fitted_masses(), _masses_from_0(q)
    masses = [fitted[n] if f[n] > 0.0 else 0.0 for n in range(0, res.hi + 1)]
    return make_pmf(0, masses, is_sub=True)


def ref_max_epower(q: Pmf) -> float:
    return epower(ref_numeraire_evalue(q), q)


def ref_numeraire_eprocess(e: EvalFn, obs) -> float:
    # e = ref_numeraire_evalue(q)
    total = 0.0
    for x in obs:
        if e.at(x) <= 0.0:
            return -math.inf
        total += math.log(e.at(x))
    return total


def ref_witness(q: Pmf, theta: int | None = None) -> EvalFn:
    best: tuple[float, EvalFn] | None = None

    def consider(bound: float, fn: EvalFn) -> None:
        nonlocal best
        if best is None or bound > best[0]:
            best = (bound, fn)

    if theta is None:
        if q.lo < 0:
            raise NegativeSupport("monotone witness needs nonnegative support")
        if is_monotone(q):
            raise NoViolation("distribution is non-increasing")
        for m in range(max(0, q.lo - 1), q.hi):
            if q.f(m + 1) - q.f(m) > SHAPE_TOL:
                consider(epower_lower_bound(q, m), wavelet_evalue(q, m))
    else:
        if is_theta_unimodal(q, theta):
            raise NoViolation(f"distribution is unimodal with peak {theta}")
        for s in range(max(0, q.lo - 1 - theta), q.hi - theta):
            a, b = q.f(theta + s), q.f(theta + s + 1)
            if b - a > SHAPE_TOL:
                lam = wavelet_lambda(a, b)
                fn = EvalFn(theta + s, (1.0 - lam, 1.0 + lam), 1.0, 1.0)
                consider((b - a) ** 2 / (4.0 * (a + b)), fn)
        for r in range(max(0, theta - q.hi - 1), theta - q.lo):
            a, b = q.f(theta - r), q.f(theta - r - 1)
            if b - a > SHAPE_TOL:
                lam = wavelet_lambda(a, b)
                fn = EvalFn(theta - r - 1, (1.0 + lam, 1.0 - lam), 1.0, 1.0)
                consider((b - a) ** 2 / (4.0 * (a + b)), fn)
    if best is None:
        raise NoViolation("no adjacent-pair violation found")
    return best[1]


def ref_is_theta_unimodal(p: Pmf, theta: int, tol: float = SHAPE_TOL) -> bool:
    if p.is_empty:
        return True
    if theta < p.lo or theta > p.hi:
        return False
    for n in range(p.lo, theta + 1):
        if p.f(n - 1) > p.f(n) + tol:
            return False
    for n in range(theta, p.hi + 1):
        if p.f(n + 1) > p.f(n) + tol:
            return False
    return True


def ref_mode_set(p: Pmf) -> ModeInterval:
    if p.is_empty:
        return ModeInterval.all_integers()
    hits = [t for t in range(p.lo - 1, p.hi + 2) if ref_is_theta_unimodal(p, t)]
    if not hits:
        return ModeInterval.empty()
    lo, hi = hits[0], hits[-1]
    if hits != list(range(lo, hi + 1)):
        raise AssertionError("mode set is not contiguous")
    return ModeInterval.bounded(lo, hi)


def ref_cdf_value(res: LcmResult, n: int) -> float:
    if n <= -1:
        return 0.0
    if n >= res.hi:
        return res.heights[-1]
    for k in range(len(res.slopes)):
        if n <= res.contacts[k + 1]:
            return res.heights[k] + res.slopes[k] * (n - res.contacts[k])
    raise AssertionError("unreachable")


def _emit_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


def ref_numeraire_stdout(text: str) -> str:
    # the command as composed before: four fits of the majorant
    q = pmf_from_text(text)
    res = ref_lcm(q)
    return _emit_line({
        "contacts": list(res.contacts),
        "slopes": res.fitted_masses(),
        "ripr": ref_ripr(q).to_json(),
        "numeraire": ref_numeraire_evalue(q).to_json(),
        "max_epower": ref_max_epower(q),
    })


def ref_cont_numeraire_stdout(text: str) -> str:
    # two fits: one for the "lcm" field, one inside the numeraire
    q = step_density_from_json(text)
    fitted = lcm_cont(q)
    e = ref_numeraire_cont(q)
    return _emit_line({
        "lcm": fitted.to_json(),
        "numeraire": e.to_json(),
        "max_epower": ref_epower_cont(e, q),
    })


# the per-entry loops that the C-level kernels replaced


def ref_pmf_from_text(text: str, is_sub: bool = False) -> Pmf:
    entries: dict[int, float] = {}
    for row, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise MalformedText(f"row {row}: expected 2 fields (index mass), "
                                f"found {len(fields)}")
        idx_s, mass_s = fields
        try:
            idx = int(idx_s)
        except ValueError:
            raise MalformedText(f"row {row}: index {idx_s!r:.200} does not "
                                "read as an integer") from None
        try:
            mass = float(mass_s)
        except ValueError:
            raise MalformedText(f"row {row}: mass {mass_s!r:.200} does not "
                                "read as a number") from None
        if idx in entries:
            raise MalformedText(f"row {row}: duplicate index {idx}")
        entries[idx] = mass
    if not entries:
        raise MalformedText("no index mass rows found")
    lo, hi = min(entries), max(entries)
    masses = [entries.get(n, 0.0) for n in range(lo, hi + 1)]
    return make_pmf(lo, masses, is_sub)


def ref_validated(xs, error, what: str) -> tuple:
    # the check each constructor ran on its converted entries
    xs = tuple(float(x) for x in xs)
    for x in xs:
        if math.isnan(x):
            raise NonFiniteInput(f"{what} {x} is not a number")
        if x < 0.0:
            raise error(f"{what} {x} is negative")
    return xs


def ref_stepfn_parts(breakpoints, levels, value_at_0=0.0, tail_level=0.0):
    bps = tuple(float(b) for b in breakpoints)
    lvs = tuple(float(v) for v in levels)
    if not bps or bps[0] != 0.0:
        raise BadInterval("breakpoints must start at 0")
    if not all(b < c for b, c in zip(bps, bps[1:])) or not math.isfinite(bps[-1]):
        raise BadInterval("breakpoints must increase strictly and stay finite")
    if len(lvs) != len(bps) - 1:
        raise BadInterval(
            f"{len(bps)} breakpoints need {len(bps) - 1} levels, got {len(lvs)}"
        )
    ref_validated(lvs + (float(value_at_0), float(tail_level)), NegativeValue, "step level")
    return bps, lvs


def ref_expectation(e: EvalFn, p: Pmf) -> float:
    return math.fsum(mass * e.at(n) for n, mass in p.items())


def ref_epower(e: EvalFn, q: Pmf) -> float:
    terms = []
    for n, mass in q.items():
        if mass <= 0.0:
            continue
        v = e.at(n)
        if v <= 0.0:
            return float("-inf")
        terms.append(mass * math.log(v))
    return math.fsum(terms)


def ref_is_xq_form(e: EvalFn, tol: float = PROB_TOL) -> bool:
    if e.lo < 0:
        raise NegativeSupport("product form needs nonnegative support")
    if e.right_tail != 0.0:
        raise NonzeroTail("product form requires a zero right tail")
    s = math.fsum(e.at(n) / (n + 1.0) for n in range(0, max(e.hi, 0) + 1))
    return s <= 1.0 + tol


def _ref_over_block_cap(s: float, n: int, tol: float = PROB_TOL) -> bool:
    return s > (n + 1.0) * (1.0 + tol)


def ref_is_in_polar_M(e: EvalFn, tol: float = PROB_TOL) -> bool:
    if e.right_tail > 1.0 + tol:
        return False
    s = 0.0
    for n in range(0, max(e.hi, 0) + 1):
        s += e.at(n)
        if _ref_over_block_cap(s, n, tol):
            return False
    return True


def ref_is_in_polar_D(e: EvalFn, theta: int, tol: float = PROB_TOL) -> bool:
    if e.at(theta) > 1.0 + tol:
        return False
    if e.right_tail > 1.0 + tol or e.left_tail > 1.0 + tol:
        return False
    start = (1.0 + e.at(theta)) / 2.0

    def side_sup(step: int) -> float:
        span = max(e.hi - theta, theta - e.lo, 0) + 2
        best = start - 1.0
        r = start
        for k in range(1, span + 1):
            r += e.at(theta + step * k)
            best = max(best, r - (k + 1.0))
        return best

    return side_sup(+1) + side_sup(-1) <= tol


def ref_polar_certificate_m(e: EvalFn, upto: int) -> PolarCertificate:
    sums, s = [], 0.0
    for n in range(0, upto + 1):
        s += e.at(n)
        sums.append(s)
    return PolarCertificate(tuple(sums))


def ref_polar_certificate_d(e: EvalFn, theta: int, upto: int) -> PolarCertificate:
    start = (1.0 + e.at(theta)) / 2.0
    rho, eta = [start], [start]
    for k in range(1, upto + 1):
        rho.append(rho[-1] + e.at(theta + k))
        eta.append(eta[-1] + e.at(theta - k))
    return PolarCertificate(tuple(rho), tuple(eta))


# The float walks above were the oracles.  The oracles now read exact sums:
# M is is_in_polar_U's rule on the unit grid, and D compares each block's
# exact sum with its length times t = 1 + tol.  The walks stay references
# where their sums clear every cap by their rounding error, and the exact
# scans below are references everywhere.


def exact_polar_M(e: EvalFn, tol: float = PROB_TOL) -> bool:
    # is_in_polar_U's rule on M's unit grid, every prefix summed in
    # Fractions and rounded once: the piece (0, lo] carries the float area
    # lo * left_tail, the piece (n, n + 1] the entry e(n)
    if e.right_tail > 1.0 + tol:
        return False
    pieces = [(e.lo, e.lo * e.left_tail)] if e.lo > 0 else []
    pieces += [(n + 1, e.at(n)) for n in range(max(e.lo, 0), e.hi + 1)]
    total = Fraction(0)
    for b, area in pieces:
        if area == math.inf:
            return False
        total += Fraction(area)
        b = float(b)
        if float(total) > b + tol * max(1.0, b):
            return False
    return True


def block_verdict_M(e: EvalFn, tol: float = PROB_TOL):
    # the block criterion in exact arithmetic, S_n <= (n + 1)(1 + tol) for
    # every n >= 0, checked at the ends of the runs where S_n is linear in n;
    # None where some S_n lies within a few roundings of its cap
    if e.right_tail > 1.0 + tol:
        return False
    if math.inf in e.values[max(-e.lo, 0):] or (e.lo > 0 and e.left_tail == math.inf):
        return False
    t = 1 + Fraction(tol)
    total = e.lo * Fraction(e.left_tail) if e.lo > 0 else Fraction(0)
    ends = [(e.lo, total)] if e.lo > 0 else []
    for n in range(max(e.lo, 0), e.hi + 1):
        total += Fraction(e.at(n))
        ends.append((n + 1, total))
    gaps = [(s - b * t, max(s, b * t) / 2**50) for b, s in ends]
    if any(gap > slack for gap, slack in gaps):
        return False
    if all(gap < -slack for gap, slack in gaps):
        return True
    return None


def exact_polar_D(e: EvalFn, theta: int, tol: float = PROB_TOL) -> bool:
    # every block holding theta has an exact sum of at most its length times
    # t = 1 + tol (a float): e(theta) - t plus each side's largest exact
    # sum of e - t is at most 0.  The sides are walked position by position
    # to one past the table, but a tail run is crossed in one step, its
    # sums being linear in its length.
    t = 1.0 + tol
    if e.at(theta) > t or e.left_tail > t or e.right_tail > t:
        return False
    if math.inf in e.values:
        return False
    t = Fraction(t)

    def side(step):
        best = total = Fraction(0)
        k, end = theta + step, (e.hi + 1 if step > 0 else e.lo - 1)
        while (k - end) * step <= 0:
            count = max(e.lo - k if step > 0 else k - e.hi, 1)
            total += count * (Fraction(e.at(k)) - t)
            best = max(best, total)
            k += step * count
        return best

    return Fraction(e.at(theta)) - t + side(1) + side(-1) <= 0


def block_scan_D(e: EvalFn, theta: int, tol: float, reach: int) -> bool:
    # every block [theta - l, theta + r] with l, r <= reach, summed in
    # Fractions; past one step beyond the table, tails at most t add nothing
    t = 1.0 + tol
    if e.left_tail > t or e.right_tail > t:
        return False
    window = [e.at(theta + k) for k in range(-reach, reach + 1)]
    if math.inf in window:
        return False
    pre = list(accumulate(map(Fraction, window), initial=Fraction(0)))
    return all(pre[reach + 1 + r] - pre[reach - l] <= (l + r + 1) * Fraction(t)
               for l in range(reach + 1) for r in range(reach + 1))


def _walk_clears_M(e: EvalFn, tol: float) -> bool:
    # every sum of the float walk lies farther from its cap than the walk's
    # rounding error and the caps' rounding, so the walk and the exact rule agree
    s = 0.0
    for n in range(0, max(e.hi, 0) + 1):
        s += e.at(n)
        cap = (n + 1.0) * (1.0 + tol)
        if not abs(s - cap) > (n + 4) * 2.0**-50 * max(s, cap):
            return False
    return True


def _walk_clears_D(e: EvalFn, theta: int, tol: float) -> bool:
    # the float walk's largest block excess over the old absolute cap
    # (length + tol) and over the relative one (length times 1 + tol) lie
    # on the same side of 0, each farther from it than the walk's error
    start = (1.0 + e.at(theta)) / 2.0
    span = max(e.hi - theta, theta - e.lo, 0) + 2
    t = 1.0 + tol
    absolute, relative, size = -tol, 0.0, start
    for step in (1, -1):
        r, a, b = start, start - 1.0, start - 0.5 - 0.5 * t
        for k in range(1, span + 1):
            r += e.at(theta + step * k)
            a, b = max(a, r - (k + 1.0)), max(b, r - 0.5 - (k + 0.5) * t)
        absolute, relative, size = absolute + a, relative + b, size + r
    err = (span + 4) * 2.0**-48 * (size + 2 * span * t)
    return min(absolute, relative) > err or max(absolute, relative) < -err


def check_polar_walks(e: EvalFn, theta: int, tol: float = PROB_TOL) -> None:
    # the oracles against the exact scans, and against the float walks where
    # those clear every cap by their rounding error
    assert exact(is_in_polar_M, e, tol) == exact(exact_polar_M, e, tol)
    assert exact(is_in_polar_D, e, theta, tol) == exact(exact_polar_D, e, theta, tol)
    if _walk_clears_M(e, tol):
        assert is_in_polar_M(e, tol) is ref_is_in_polar_M(e, tol)
    if _walk_clears_D(e, theta, tol):
        assert is_in_polar_D(e, theta, tol) is ref_is_in_polar_D(e, theta, tol)


def ref_upper_hull(xs, ys):
    hx: list = []
    hy: list = []
    for x, y in zip(xs, ys):
        while len(hx) >= 2:
            cross = (hx[-1] - hx[-2]) * (y - hy[-2]) - (hy[-1] - hy[-2]) * (x - hx[-2])
            if cross >= 0.0:
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(x)
        hy.append(y)
    return hx, hy


def ref_fsum(parts) -> float:
    # an exact sum of nonnegative parts past the float range reads inf
    try:
        return math.fsum(parts)
    except OverflowError:
        return math.inf


def ref_integral_to(e: StepFn, x: float) -> float:
    if x <= 0.0:
        return 0.0
    parts = []
    bps = e.breakpoints
    for i, lv in enumerate(e.levels):
        left, right = bps[i], min(bps[i + 1], x)
        if right <= left:
            break
        parts.append(lv * (right - left))
    if x > bps[-1]:
        parts.append(e.tail_level * (x - bps[-1]))
    return ref_fsum(parts)


def ref_xq_integral_to(e: XqEvalue, x: float) -> float:
    if x <= 0.0:
        return 0.0
    parts = []
    bps = e.q.fn.breakpoints
    for i, lv in enumerate(e.q.fn.levels):
        left, right = bps[i], min(bps[i + 1], x)
        if right <= left:
            break
        parts.append(lv * (right * right - left * left) / 2.0)
    return ref_fsum(parts)


def ref_lcm_cont(q: StepDensity) -> StepDensity:
    bps = q.fn.breakpoints
    xs, ys = [0.0], [q.atom0]
    acc = q.atom0
    for i, lv in enumerate(q.fn.levels):
        acc += lv * (bps[i + 1] - bps[i])
        xs.append(bps[i + 1])
        ys.append(acc)
    hx, hy = ref_upper_hull(xs, ys)
    slopes = tuple(
        (hy[k + 1] - hy[k]) / (hx[k + 1] - hx[k]) for k in range(len(hx) - 1)
    )
    return StepDensity(StepFn(tuple(hx), slopes, 0.0, 0.0), q.atom0, q.is_sub)


def ref_common_pieces(a: StepFn, b: StepFn):
    # the two-pointer merge: (left, right, a level, b level) per common piece
    abps, bbps = a.breakpoints, b.breakpoints
    na, nb = len(abps), len(bbps)
    i = j = 1
    left = 0.0
    while i < na or j < nb:
        ra = abps[i] if i < na else math.inf
        rb = bbps[j] if j < nb else math.inf
        right = ra if ra <= rb else rb
        yield (left, right,
               a.levels[i - 1] if i < na else a.tail_level,
               b.levels[j - 1] if j < nb else b.tail_level)
        i += ra == right
        j += rb == right
        left = right


# ------------------------------------------------------------- plumbing

# Where a positive mass or level is fitted 0, the references divide by
# zero and let ZeroDivisionError escape; the package raises the typed
# ZeroFittedMass there, which the CLI reports with exit 1.
_TYPED = {"raises ZeroDivisionError": "raises ZeroFittedMass"}


def outcome(fn, *args) -> str:
    """``repr`` of the result, or the exception type: exact comparison."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return f"raises {type(exc).__name__}"


def cli_outcome(argv, text: str):
    """Exit code and stdout of ``evshape argv`` fed ``text``, or what escaped."""
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return f"raises {type(exc).__name__}"
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def ref_cli_outcome(command, text: str):
    # main's own handling: these exit 1 with nothing on stdout
    try:
        return 0, command(text)
    except (EvshapeError, ValueError, KeyError, OSError):
        return 1, ""
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return f"raises {type(exc).__name__}"


# levels near the tolerance edge, large enough to overflow a prefix, or infinite
_EDGE_LEVELS = [0.0, 2.0**-106, 2.0**-53, 1.0, 1.0 + PROB_TOL,
                math.nextafter(1.0 + PROB_TOL, 2.0), math.nextafter(1.0 + PROB_TOL, 0.0),
                2.0, 1e154, 1e300, 1e308, DBL_MAX, math.inf]
_EDGE_WIDTHS = [1.0, 0.5, 1e-300, 1e154, 1e300, 1e308, DBL_MAX / 2]
_levels = st.one_of(st.floats(0.0, 2.0), st.sampled_from(_EDGE_LEVELS))
_widths = st.one_of(st.floats(1e-3, 10.0), st.sampled_from(_EDGE_WIDTHS))


@st.composite
def step_fns(draw, tail=None):
    widths = draw(st.lists(_widths, min_size=1, max_size=12))
    bps = [0.0]
    for w in widths:
        nxt = bps[-1] + w
        if not math.isfinite(nxt) or nxt <= bps[-1]:
            break
        bps.append(nxt)
    levels = draw(st.lists(_levels, min_size=len(bps) - 1, max_size=len(bps) - 1))
    tail_level = tail if tail is not None else draw(
        st.sampled_from([0.0, 1.0, 1.0 + PROB_TOL, 2.0]))
    return StepFn(tuple(bps), tuple(levels), draw(_levels), tail_level)


_tols = st.sampled_from([PROB_TOL, PROB_TOL, 0.0, 1e-12, 0.5, -1e-9])


# ------------------------------------------------------------ polar check


@settings(max_examples=200, deadline=None, database=None)
@given(e=step_fns(), guard=st.booleans(), tol=_tols)
@example(e=StepFn((0.0, 1.7e308, 1.79e308), (1.0, 2.0), 0.0, 1.0),
         guard=False, tol=PROB_TOL)  # finite pieces whose sum overflows
@example(e=StepFn((0.0, 1e308, DBL_MAX), (1.0, 1e300), 0.0, 1.0),
         guard=False, tol=PROB_TOL)  # an infinite piece under an infinite bound
@example(e=StepFn((0.0, 1.0, 2.0), (0.5, math.inf), 0.0, 1.0),
         guard=False, tol=PROB_TOL)
@example(e=StepFn((0.0, 1.0, 2.0), (1.0 + PROB_TOL, 1.0), 0.0, 1.0),
         guard=False, tol=PROB_TOL)  # a prefix exactly on the bound
@example(e=StepFn((0.0, 0.25, 0.5, 1.0), (2.0**-104, 2.0**-51, 2.0), 0.0, 0.0),
         guard=False, tol=0.0)  # fsum rounds 1 + 2**-53 + 2**-106 up, sum does not
def test_polar_u_step_fn_matches_reference(e, guard, tol):
    assert outcome(is_in_polar_U, e, guard, tol) == outcome(
        ref_is_in_polar_U, e, guard, tol)


@settings(max_examples=150, deadline=None, database=None)
@given(fn=step_fns(tail=0.0), tol=_tols)
@example(fn=StepFn((0.0, 1e154, 2e154), (1e-300, 1.0), 0.0, 0.0), tol=PROB_TOL)
def test_polar_u_xq_matches_reference(fn, tol):
    # XqEvalue takes any atom-free density; squares of breakpoints past
    # 1.3e154 overflow, which makes a piece inf or nan
    e = XqEvalue(StepDensity(fn))
    assert outcome(is_in_polar_U, e, False, tol) == outcome(
        ref_is_in_polar_U, e, False, tol)


def _exact_polar_U(e: StepFn, tol: float = PROB_TOL) -> bool:
    # linear reference: exact rational prefixes, each rounded once, which
    # is what fsum of the prefix returns
    if e.tail_level > 1.0 + tol:
        return False
    bps, total = e.breakpoints, Fraction(0)
    for k, b in enumerate(bps):
        if k:
            total += Fraction(e.levels[k - 1]) * Fraction(bps[k] - bps[k - 1])
        if not float(total) <= b + tol * max(1.0, b):
            return False
    return True


def test_polar_u_on_a_long_step_fn_matches_exact_prefixes():
    rng = random.Random(5)
    pieces = 100_000
    widths = [rng.random() + 0.1 for _ in range(pieces)]
    bps = [0.0]
    for w in widths:
        bps.append(bps[-1] + w)
    inside = StepFn(tuple(bps), tuple(rng.random() for _ in range(pieces)), 0.0, 1.0)
    # levels on the edge until the last piece, which breaks the bound
    edge = StepFn(tuple(bps), (1.0 + PROB_TOL,) * (pieces - 1) + (3.0,), 0.0, 1.0)
    assert is_in_polar_U(inside) is _exact_polar_U(inside) is True
    assert is_in_polar_U(edge) is _exact_polar_U(edge) is False


# ---------------------------------------------------- merged breakpoint grids


@st.composite
def grid_pair(draw):
    """Two grids on one pool of cuts, so they share and interleave points."""
    pool = sorted(set(draw(st.lists(
        st.one_of(st.integers(1, 12).map(lambda k: k / 2.0), st.floats(0.01, 6.0)),
        min_size=2, max_size=16))))
    picks = draw(st.lists(st.integers(0, 3), min_size=len(pool), max_size=len(pool)))
    a = [0.0] + [c for c, k in zip(pool, picks) if k & 1]
    b = [0.0] + [c for c, k in zip(pool, picks) if k & 2]
    return tuple(a if len(a) > 1 else [0.0, pool[0]]), tuple(b if len(b) > 1 else [0.0, pool[-1]])


_grid_levels = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 3.0))


def _levels_for(draw, bps):
    return tuple(draw(st.lists(_grid_levels, min_size=len(bps) - 1, max_size=len(bps) - 1)))


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data(), grids=grid_pair())
def test_expectation_and_epower_match_the_bisecting_refinement(data, grids):
    ebps, pbps = grids
    draw = data.draw
    e = StepFn(ebps, _levels_for(draw, ebps), draw(_grid_levels), draw(_grid_levels))
    p = StepDensity(StepFn(pbps, _levels_for(draw, pbps), 0.0, 0.0),
                    draw(st.sampled_from([0.0, 0.0, 0.25])))
    xq = XqEvalue(StepDensity(StepFn(ebps, e.levels, 0.0, 0.0)))
    assert outcome(expectation_cont, e, p) == outcome(ref_expectation_cont, e, p)
    assert outcome(expectation_cont, xq, p) == outcome(ref_expectation_cont, xq, p)
    assert outcome(epower_cont, e, p) == outcome(ref_epower_cont, e, p)


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data(), grids=grid_pair())
def test_numeraire_cont_matches_the_two_fit_reference(data, grids):
    bps, _ = grids
    q = StepDensity(StepFn(bps, _levels_for(data.draw, bps), 0.0, 0.0),
                    data.draw(st.sampled_from([0.0, 0.0, 0.3])))
    want = outcome(ref_numeraire_cont, q)
    assert outcome(numeraire_cont, q) == _TYPED.get(want, want)


def test_stepfn_rejects_nan_breakpoints():
    with pytest.raises(BadInterval):
        StepFn((0.0, math.nan, 1.0), (0.5, 0.5))


# ------------------------------------------------------ numeraire payloads


# a small pool makes flat runs, collinear hull knots and tied bounds common
_masses = st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0]), st.floats(0.0, 1.0)),
                   min_size=1, max_size=25)


# masses written as they are, not normalized: subnormal, so below any
# rounding of the total
_SUBNORMAL = (5e-324, 2.0**-1060, 1e-310)

# blocks of one mass: zeros alone, in runs, inside a piece and at either end;
# runs past the 4,096-row chunk of the text parser; a block 2**-40 below the
# one before it, whose slopes the fit merges under its 1e-12 rule
_blocks = st.lists(st.tuples(
    st.one_of(st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, *_SUBNORMAL]),
              st.floats(0.0, 1.0)),
    st.sampled_from([1, 1, 1, 1, 2, 3, 4097]),
    st.booleans(),
), min_size=1, max_size=8)


@st.composite
def pmf_texts(draw):
    if draw(st.booleans()):
        raw = draw(_masses)
    else:
        raw = []
        for mass, count, nudged in draw(_blocks):
            if nudged and raw:
                mass = raw[-1] * (1.0 - 2.0**-40)
            raw += [mass] * count
    total = math.fsum(m for m in raw if m not in _SUBNORMAL)
    if total == 0.0:
        raw, total = [1.0], 1.0
    lo = draw(st.integers(-2, 5))
    return "".join(f"{lo + i} {m if m in _SUBNORMAL else m / total!r}\n"
                   for i, m in enumerate(raw))


def _merges_slopes(text: str) -> bool:
    # the fit merged two hull pieces under its 1e-12 slope rule
    q = pmf_from_text(text)
    hull = ref_upper_hull(list(range(-1, q.hi + 1)),
                          list(accumulate([0.0] * q.lo + list(q.masses), initial=0.0)))
    return len(hull[0]) > len(lcm(q).contacts)


# long tables: every knot a vertex, every knot collinear, a zero at every
# other index, a table 10^4 past zero; and a uniform density's grid of 10^4
# equal pieces, every knot near-collinear
_N = 10**4
_DECREASING = [float(_N - k) / (_N * (_N + 1) / 2) for k in range(_N)]
_EVERY_OTHER_ZERO = [2.0 / _N if k % 2 == 0 else 0.0 for k in range(_N)]
_LONG_TABLES = [(0, _DECREASING), (0, [1.0 / _N] * _N), (0, _EVERY_OTHER_ZERO),
                (_N, [0.5, 0.25, 0.25])]
_EQUAL_PIECES = [k / _N for k in range(_N + 1)]


def _pmf_text(lo: int, masses) -> str:
    return "".join(f"{lo + i} {m!r}\n" for i, m in enumerate(masses))


_NUMERAIRE_EXAMPLES = [
    "0 1.0\n1 1e-165\n",  # a fitted mass of 0 under a positive one
    "3 1.0\n",  # one entry
    "0 0.25\n1 0.0\n2 0.5\n3 0.25\n",  # a zero alone, inside a piece
    "0 0.0\n1 0.5\n2 0.0\n3 0.0\n4 0.5\n5 0.0\n",  # zeros at both ends
    "".join(f"{i} {1 / 5000!r}\n" for i in range(5000)),  # one run of 5,000
    # merged slopes: 0.3, then 2**-40 and 2**-39 below it, then the rest
    "0 0.3\n1 0.29999999999972715\n2 0.2999999999994543\n3 0.10000000000081855\n",
    "0 0.5\n1 5e-324\n2 0.5\n3 1e-310\n",  # subnormal masses
]


def test_the_numeraire_examples_reach_the_cases_they_name():
    _, one_entry, zero_alone, zero_ends, long_run, merged, subnormal = _NUMERAIRE_EXAMPLES
    assert len(pmf_from_text(one_entry).masses) == 1
    assert pmf_from_text(zero_alone).masses[1] == 0.0
    assert lcm(pmf_from_text(zero_alone)).contacts == (-1, 3)
    assert pmf_from_text(zero_ends).lo == 1
    assert lcm(pmf_from_text(long_run)).contacts == (-1, 4999)
    assert _merges_slopes(merged)
    assert min(pmf_from_text(subnormal).masses) == 5e-324


def _with_examples(test):
    for text in _NUMERAIRE_EXAMPLES + [_pmf_text(lo, m) for lo, m in _LONG_TABLES]:
        test = example(text=text)(test)
    return test


@settings(max_examples=200, deadline=None, database=None)
@given(text=pmf_texts())
@_with_examples
def test_numeraire_payload_matches_the_four_fit_composition(text):
    want = ref_cli_outcome(ref_numeraire_stdout, text)
    if want == "raises ZeroDivisionError":
        want = (1, "")
    assert cli_outcome(["numeraire"], text) == want
    assert_library_matches_the_lists_from_0(pmf_from_text(text))


def _seen_from_0(e: EvalFn) -> tuple:
    # what an e-value answers from -1 to one past its table, and its tails,
    # wherever its table starts
    return (*e.at_range(-1, e.hi + 2), e.left_tail, e.right_tail)


def assert_library_matches_the_lists_from_0(q: Pmf) -> None:
    for fn, ref in ((lcm, ref_lcm), (numeraire_evalue, ref_numeraire_evalue),
                    (ripr, ref_ripr), (max_epower, ref_max_epower)):
        if fn is numeraire_evalue:  # on its table: its lo is the table's
            fn, ref = (lambda q, f=f: _seen_from_0(f(q)) for f in (fn, ref))
        want = outcome(ref, q)
        assert outcome(fn, q) == _TYPED.get(want, want)


@pytest.mark.parametrize("masses", [[1.0], [0.5, 0.3, 0.2], [0.1, 0.9],
                                    [0.2, 0.0, 0.5, 0.3], [0.0, 0.25, 0.25, 0.5, 0.0]])
@pytest.mark.parametrize("lo", [0, 1, 10**3, 10**6])
def test_far_tables_answer_on_the_table_as_the_lists_from_0(lo, masses):
    # a Pmf built directly keeps zeros at its ends
    for q in {make_pmf(lo, masses), Pmf(lo, masses)}:
        assert_library_matches_the_lists_from_0(q)
        e = ref_numeraire_evalue(q)
        inside = [x for x in range(q.lo, q.hi + 1) if q.f(x) > 0.0]
        below = [q.lo - 1] if q.lo else []
        past = [q.hi + 1, q.hi + 10**30]
        for obs in ([], inside, inside[::-1] * 3, below, inside + below, past,
                    inside + past + inside, [0] + inside):
            want = outcome(ref_numeraire_eprocess, e, obs)
            assert outcome(numeraire_eprocess, q, obs) == want


@pytest.mark.parametrize("fn", [lcm, numeraire_evalue, ripr, max_epower,
                                lambda q: numeraire_eprocess(q, [q.lo, q.hi, q.hi + 1, 0])],
                         ids=["lcm", "numeraire_evalue", "ripr", "max_epower",
                              "numeraire_eprocess"])
def test_far_tables_hold_what_near_ones_hold(fn):
    # memory follows the table, not its distance from 0
    peaks = []
    for lo in (10**3, 10**6):
        q = make_pmf(lo, [0.2, 0.0, 0.5, 0.3])
        fn(q)
        tracemalloc.start()
        try:
            fn(q)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 4096, peaks


def _emitted(obj) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(obj)
    return out.getvalue()


def _written_out(arr: _Runs) -> list[float]:
    return [v for v, n in zip(arr.values, arr.lengths) for _ in range(n)]


_run_arrays = st.lists(st.tuples(
    st.one_of(st.sampled_from([0.0, -0.0, 0.5, 5e-324, 1e-310, 1e308]),
              st.floats(allow_nan=False, allow_infinity=False)),
    st.sampled_from([1, 1, 2, 3, 4097]),
), max_size=5).map(lambda runs: _Runs(tuple(v for v, _ in runs), [n for _, n in runs]))


@settings(max_examples=100, deadline=None, database=None)
@given(a=_run_arrays, b=_run_arrays, c=_run_arrays)
def test_emit_writes_runs_as_json_writes_the_written_out_lists(a, b, c):
    # several run arrays, nested and top level, empty or not, among plain values
    obj = {"z": a, "m": {"y": b, "x": [1, 2.5]}, "a": c, "b": True}
    plain = {"z": _written_out(a), "m": {"y": _written_out(b), "x": [1, 2.5]},
             "a": _written_out(c), "b": True}
    assert _emitted(obj) == _emitted(plain) == (
        json.dumps(plain, sort_keys=True, allow_nan=False) + "\n")


def _bits(xs) -> list[str]:
    return list(map(float.hex, xs))


_run_values = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 5e-324]),
                        st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None, database=None)
@given(blocks=st.lists(st.tuples(_run_values, st.sampled_from(
           [1, 1, 2, 3, _PIECE, _PIECE + 1, 2 * _PIECE + 5])), max_size=6),
       skip=st.sampled_from([0, 1, _PIECE, _PIECE + 1]),
       head=st.one_of(st.none(), _run_values))
def test_runs_keep_the_array_and_take_runs_only_when_they_pay(blocks, skip, head):
    # head None: the head equals the table's first entry
    table = tuple(v for v, n in blocks for _ in range(n))
    head = (table[0] if table else 0.5) if head is None else head
    full = [head] * skip + list(table)
    got = _runs(head, skip, table)
    starts = sum(a != b for a, b in zip(_bits(full[1:]), _bits(full)))
    if starts >= len(full) // 2:  # under two entries a run: the plain array
        assert type(got) is list and _bits(got) == _bits(full)
    else:
        assert _bits(_written_out(got)) == _bits(full)
        assert min(got.lengths) > 0
        assert all(a != b for a, b in zip(_bits(got.values[1:]), _bits(got.values)))
        assert all(p.count(", ") <= _PIECE for p in got.pieces())
    assert _emitted({"a": got}) == json.dumps({"a": full}, allow_nan=False) + "\n"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_run_raises_what_json_raises(bad):
    with pytest.raises(ValueError) as want:
        json.dumps({"s": [0.5, bad, bad]}, sort_keys=True, allow_nan=False)
    with pytest.raises(type(want.value)) as got:
        _emitted({"s": _Runs((0.5, bad), [1, 2])})
    assert str(got.value) == str(want.value)


@st.composite
def density_texts(draw):
    cuts = sorted(set(draw(st.lists(st.floats(0.01, 8.0), min_size=1, max_size=12))))
    raw = draw(st.lists(_grid_levels, min_size=len(cuts), max_size=len(cuts)))
    atom0 = draw(st.sampled_from([0.0, 0.0, 0.2]))
    bps = [0.0] + cuts
    mass = math.fsum(lv * (r - lf) for lv, lf, r in zip(raw, bps, bps[1:]))
    if mass == 0.0:
        raw, mass = [1.0] * len(raw), bps[-1]
    levels = [lv * (1.0 - atom0) / mass for lv in raw]
    return json.dumps({"breakpoints": bps, "levels": levels, "atom0": atom0})


@settings(max_examples=100, deadline=None, database=None)
@given(text=density_texts())
def test_cont_numeraire_payload_matches_the_two_fit_composition(text):
    want = ref_cli_outcome(ref_cont_numeraire_stdout, text)
    if want == "raises ZeroDivisionError":
        want = (1, "")
    assert cli_outcome(["cont-numeraire"], text) == want


@settings(max_examples=100, deadline=None, database=None)
@given(density=density_texts())
# fitted 0 under a positive level: ZeroFittedMass
@example(density=json.dumps({"breakpoints": [0, 1, 2], "levels": [1.0, 1e-300]}))
# a level of 5e-324 under a fitted level above 2: its ratio underflows to 0,
# so the e-power is -inf; and an atom at 0
@example(density=json.dumps({"breakpoints": [0, 0.1, 0.2, 0.3],
                             "levels": [0.001, 5e-324, 9.999]}))
@example(density=json.dumps({"breakpoints": [0, 1, 2], "levels": [0.1, 0.5], "atom0": 0.4}))
def test_numeraire_with_epower_is_the_epower_of_the_numeraire(density):
    # the discrete command takes its e-power with epower itself (the
    # four-fit composition above)
    d = step_density_from_json(density)
    assert outcome(lambda: _numeraire_cont_with_epower(d, lcm_cont(d))) == outcome(
        lambda: (numeraire_cont(d), epower_cont(numeraire_cont(d), d)))


def _count_calls(monkeypatch, original) -> list:
    """Replace ``original`` wherever the package binds it; count its calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "evshape" or name.startswith("evshape.")):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_each_table_command_fits_its_majorant_once(monkeypatch):
    lcm_calls = _count_calls(monkeypatch, evshape.numeraire.lcm)
    lcm_cont_calls = _count_calls(monkeypatch, evshape.continuous.lcm_cont)
    code, _ = cli_outcome(["numeraire"], "0 0.2\n1 0.3\n2 0.5\n")
    assert (code, len(lcm_calls)) == (0, 1)
    density = json.dumps({"breakpoints": [0.0, 1.0, 2.0], "levels": [0.25, 0.75]})
    code, _ = cli_outcome(["cont-numeraire"], density)
    assert (code, len(lcm_cont_calls)) == (0, 1)
    # numeraire_compare: one fit serves every replication and the report
    del lcm_calls[:]
    run_experiment(ScenarioConfig("numeraire_compare", make_pmf(0, [0.2, 0.3, 0.5]),
                                  n=20, reps=3, alpha=0.05, seed=1))
    assert len(lcm_calls) == 1


# ---------------------------------------------------------------- witness


@st.composite
def witness_cases(draw):
    values = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3]), st.floats(0.0, 1.0))
    if draw(st.booleans()):
        masses = draw(st.lists(values, max_size=20))
    else:  # up to 2,000 entries from a pool of a few: ties within and across sides
        pool = draw(st.lists(values, min_size=1, max_size=3))
        rng = random.Random(draw(st.integers(0, 2**32)))
        masses = rng.choices(pool, k=draw(st.integers(0, 2000)))
    lo = draw(st.integers(-3, 4))
    q = Pmf(lo, tuple(masses))
    theta = draw(st.one_of(st.none(), st.integers(lo - 3, q.hi + 3)))
    return q, theta


@settings(max_examples=250, deadline=None, database=None)
@given(case=witness_cases())
@example(case=(Pmf(0, (0.1, 0.2, 0.1, 0.2)), None))  # tied bounds at 0 and 2
@example(case=(Pmf(0, (0.2, 0.1, 0.2, 0.1, 0.2)), 2))  # tied across both sides
@example(case=(Pmf(0, (0.2, 0.1, 0.2, 0.1, 0.2)), 4))  # tied on the falling side
@example(case=(Pmf(2, (0.3, 0.3)), None))  # the rise into the window
# neighbouring rises whose bounds tie under one of delta * delta and
# delta ** 2 and not under the other
@example(case=(Pmf(0, (0.0, 0.24632406204900867, 0.0, 0.2463240620490087)), None))
@example(case=(Pmf(0, (0.0, 0.0, 0.013046783940414964, 0.0, 0.013046783940414966)), 0))
# rises whose bounds tie under ** and not under the product: the product
# is only a hint, and the tie goes to the first
@example(case=(Pmf(0, (0.0, 0.230197530756741, 0.0, 0.23019753075674101)), 0))
# rises past 2**511, whose products overflow: a nan bound after a finite one
# and before it, and a ** that raises OverflowError
@example(case=(Pmf(0, (0.0, 1.0, 0.0, 1e308)), None))
@example(case=(Pmf(0, (0.0, 1e308, 0.0, 1.0)), None))
@example(case=(Pmf(0, (0.0, 1.0, 0.0, 1e300)), 0))
def test_witness_matches_the_tilt_per_pair_scan(case):
    q, theta = case
    assert outcome(witness, q, theta) == outcome(ref_witness, q, theta)


def test_pmf_rejects_infinite_masses():
    with pytest.raises(NonFiniteInput):
        Pmf(0, (0.5, math.inf))


# ------------------------------------------------------ closed-form shapes

# a step to a neighbour within, at, or just past SHAPE_TOL, either way
_NEAR = [d * s for d in (0.5e-12, SHAPE_TOL, math.nextafter(SHAPE_TOL, 1.0),
                         1.5e-12, 2e-12) for s in (1.0, -1.0)]


@st.composite
def shape_tables(draw):
    # 0-12 entries; zeros (and -0.0) inside and at the ends, and runs of
    # neighbours that differ by about the shape tolerance
    masses: list[float] = []
    for _ in range(draw(st.integers(0, 12))):
        if masses and draw(st.booleans()):
            masses.append(max(masses[-1] + draw(st.sampled_from(_NEAR)), 0.0))
        else:
            masses.append(draw(st.one_of(st.sampled_from([0.0, -0.0, 0.1, 0.25, 5e-13]),
                                         st.floats(0.0, 1.0))))
    return Pmf(draw(st.integers(-5, 5)), tuple(masses))


@settings(max_examples=500, deadline=None, database=None)
@given(p=shape_tables(), tol=st.sampled_from([SHAPE_TOL, 0.0, -0.05, -SHAPE_TOL,
                                             0.15, math.nan]))
@example(p=Pmf(0, ()), tol=SHAPE_TOL)  # every peak works
@example(p=Pmf(-1, (-0.0, 0.3, -0.0)), tol=0.0)  # signed zeros at the ends
@example(p=Pmf(2, (0.3, 0.2, 0.3)), tol=SHAPE_TOL)  # no peak works
@example(p=Pmf(0, (0.04, 0.5, 0.03)), tol=-0.05)  # the pads rise and drop
@example(p=Pmf(0, (0.2, 0.2 + 1e-12, 0.2)), tol=SHAPE_TOL)  # a plateau within tol
def test_mode_set_and_peaks_match_the_per_peak_scan(p, tol):
    for theta in range(p.lo - 2, p.hi + 3):
        assert is_theta_unimodal(p, theta, tol) == ref_is_theta_unimodal(p, theta, tol)
    assert outcome(mode_set, p) == outcome(ref_mode_set, p)


@settings(max_examples=300, deadline=None, database=None)
@given(lo=st.integers(0, 4), weights=st.lists(
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 5e-324])),
    min_size=1, max_size=12).filter(lambda ws: math.fsum(ws) > 0.0))
@example(lo=0, weights=[1.0])  # one segment
@example(lo=3, weights=[0.25, 0.25, 0.25, 0.25])  # one segment from the zeros
def test_cdf_value_by_bisection_matches_the_segment_walk(lo, weights):
    total = math.fsum(weights)
    res = lcm(make_pmf(lo, [w / total for w in weights]))
    for n in range(-2, res.hi + 3):
        assert exact(res.cdf_value, n) == exact(ref_cdf_value, res, n)


# ------------------------------------------------------- C-level kernels


def exact(fn, *args) -> str:
    """Floats by ``float.hex``, other results by ``repr``, errors with message."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - type and message are compared
        return f"raises {type(exc).__name__}: {exc}"
    return float.hex(value) if isinstance(value, float) else repr(value)


# zeros of both signs, subnormals, values around the polar caps, large and
# infinite entries, and negative or NaN ones for the validation paths
_ENTRIES = [0.0, -0.0, 5e-324, 2.0**-1060, 1e-300, 0.5, 1.0, 1.0 + PROB_TOL,
            math.nextafter(1.0 + PROB_TOL, 2.0), 2.0, 1e308, math.inf]
_entries = st.one_of(st.floats(0.0, 1.5), st.sampled_from(_ENTRIES))
_bad_entries = st.one_of(_entries, st.sampled_from([-1.0, -5e-324, math.nan, -math.inf]))


# every ASCII control character, and CRLF, to join two rows or part two fields:
# \x0b, \x0c and \x1c-\x1e break lines for str.splitlines but part fields for
# numpy's text reader, and a lone \r breaks lines for one and not the other
_CONTROLS = [chr(c) for c in range(32)] + ["\x7f", "\r\n"]
_ROW_EDITS = ["shuffle", "gap", "duplicate", "comment", "blank", "three", "one",
              "bad-index", "bad-mass", "negative", "special", "tabs", "crlf",
              "unsorted", "join", "split", "signed", "float-index",
              "underscore-index", "underscore-mass", "note", "trailing", "wide-digit"]
_WIDE_DIGITS = str.maketrans("0123456789", "０１２３４５６７８９")


@st.composite
def text_tables(draw, max_edits=2):
    """``index mass`` text: contiguous rows, or broken in one of many ways."""
    masses = draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-300])), min_size=1, max_size=12))
    # small offsets, and the two ends of int64, where the reader's indices stop;
    # a text with edits may also start or end one past them
    ends = [-(2**63), 2**63 - len(masses)]
    if max_edits:
        ends += [-(2**63) - 1, 2**63 - len(masses) + 1]
    lo = draw(st.one_of(st.integers(-3, 5), st.sampled_from(ends)))
    total = math.fsum(masses)
    masses = [m / total for m in masses] if total > 0.0 else [1.0] + masses[1:]
    rows = [f"{lo + i} {m!r}" for i, m in enumerate(masses)]
    for edit in draw(st.lists(st.sampled_from(_ROW_EDITS), max_size=max_edits)):
        k = draw(st.integers(0, len(rows) - 1))
        # a row without both fields reads its missing ones as "lo 0.5", so no
        # edit puts an index far from the rest
        index, mass = (rows[k].split() + [str(lo), "0.5"])[:2]
        if edit == "shuffle":
            rows = draw(st.permutations(rows))
        elif edit == "gap" and len(rows) > 2:
            del rows[k if 0 < k < len(rows) - 1 else 1]
        elif edit == "duplicate":
            rows.insert(k, rows[k])
        elif edit == "comment":
            rows.insert(k, "# a comment")
        elif edit == "blank":
            rows.insert(k, draw(st.sampled_from(["   ", "\t", " \x1f "])))
        elif edit == "three":
            rows[k] += " 0.5"
        elif edit == "one":
            rows[k] = index
        elif edit == "bad-index":
            rows[k] = "x " + mass
        elif edit == "bad-mass":
            rows[k] = index + " abc"
        elif edit == "negative":
            rows[k] = index + " -0.25"
        elif edit == "special":
            rows[k] = index + " " + draw(st.sampled_from(
                ["nan", "-nan", "inf", "Infinity", "-0.0", "1e999", ".5", "5."]))
        elif edit == "tabs":
            rows[k] = "\t" + rows[k].replace(" ", " \t ") + "  "
        elif edit == "crlf":
            rows[k] += "\r"
        elif edit == "unsorted" and len(rows) > 1:
            rows[0], rows[-1] = rows[-1], rows[0]
        elif edit == "join" and k + 1 < len(rows):
            rows[k:k + 2] = [rows[k] + draw(st.sampled_from(_CONTROLS)) + rows[k + 1]]
        elif edit == "split":
            rows[k] = index + draw(st.sampled_from(_CONTROLS)) + mass
        elif edit == "signed":  # +1, -01 and 007 keep their value
            sign, digits = ("-", index[1:]) if index.startswith("-") else ("+", index)
            rows[k] = sign + draw(st.sampled_from(["", "0", "00"])) + digits + " " + mass
        elif edit == "float-index":
            rows[k] = index + draw(st.sampled_from([".0", "e0"])) + " " + mass
        elif edit == "underscore-index":
            rows[k] = "0_" + index + " " + mass
        elif edit == "underscore-mass":
            rows[k] = index + " 0_" + mass
        elif edit == "note":
            rows[k] += " # note"
        elif edit == "trailing":
            rows[k] += "   "
        elif edit == "wide-digit":  # int() reads Unicode digits, the reader reads ASCII
            rows[k] = index.translate(_WIDE_DIGITS) + " " + mass
    return "\n".join(rows) + draw(st.sampled_from(["", "\n", "\n\n", "\r\n"]))


@settings(max_examples=300, deadline=None, database=None)
@given(text=text_tables())
@example(text="")
@example(text="# only a comment\n")
@example(text="0 0.5\n1 0.5 0.0\n")
@example(text="5 1.0")
@example(text="0 1_0e-1\n1 0.9\n")  # int() and float() accept underscores
@example(text="0\x0c1")  # a line break to splitlines, field whitespace to the reader
@example(text="0 1\n1\x1e2")
def test_text_parser_matches_the_line_loop(text):
    assert exact(pmf_from_text, text) == exact(ref_pmf_from_text, text)
    assert exact(pmf_from_text, text, True) == exact(ref_pmf_from_text, text, True)


@pytest.mark.parametrize("control", _CONTROLS, ids=[repr(c)[1:-1] for c in _CONTROLS])
@pytest.mark.parametrize("form", ["0{}1", "0 0.5{}1 0.5", "0 0.5\n1{}0.5", "{}0 1{}"])
def test_every_control_character_reads_as_in_the_line_loop(form, control):
    text = form.format(control, control)
    assert exact(pmf_from_text, text, True) == exact(ref_pmf_from_text, text, True)


@settings(max_examples=100, deadline=None, database=None)
@given(text=text_tables(max_edits=0))
def test_contiguous_text_takes_the_reader(text):
    # so a reader that refused every text could not pass the test above
    assert _contiguous_rows(text.strip()) is not None
    assert exact(pmf_from_text, text, True) == exact(ref_pmf_from_text, text, True)


def test_the_reader_refuses_indices_that_wrap_around_int64():
    # int64 steps of 1 wrap from 2**63 - 1 to -(2**63); the line loop reads
    # this text as a table 2**64 entries wide, so it is not compared above
    assert _contiguous_rows(f"{2**63 - 1} 0.5\n{-(2**63)} 0.5") is None
    assert _contiguous_rows(f"{2**63 - 2} 0.5\n{2**63 - 1} 0.5") == (2**63 - 2, [0.5, 0.5])


@pytest.mark.parametrize("edit", ["none", "gap", "duplicate", "comment", "three"])
@pytest.mark.parametrize("where", [4095, 4096, 4097, 9000])
def test_text_parser_across_chunk_boundaries(edit, where):
    rows = [f"{i - 7} {1.0 / 10_000!r}" for i in range(10_000)]
    if edit == "gap":
        del rows[where]
    elif edit == "duplicate":
        rows.insert(where, rows[where])
    elif edit == "comment":
        rows.insert(where, "# comment")
    elif edit == "three":
        rows[where] += " 1"
    text = "\n".join(rows)
    assert exact(pmf_from_text, text, True) == exact(ref_pmf_from_text, text, True)


@settings(max_examples=200, deadline=None, database=None)
@given(xs=st.lists(_bad_entries, max_size=10), tails=st.tuples(_bad_entries, _bad_entries),
       lo=st.integers(-3, 3))
def test_table_validation_matches_the_entry_loops(xs, tails, lo):
    # the first negative or NaN entry names the error, as in the loops
    bps = tuple(map(float, range(len(xs) + 1)))

    def ref_pmf_masses():
        ms = ref_validated(xs, NegativeMass, "mass")
        if math.inf in ms:
            raise NonFiniteInput("a mass is infinite")
        return ms

    def ref_make_pmf():
        ref_validated(xs, NegativeMass, "mass")
        return make_pmf(lo, xs, is_sub=True)

    def stepfn_parts():
        f = StepFn(bps, xs, *tails)
        return f.breakpoints, f.levels

    assert exact(lambda: Pmf(lo, xs).masses) == exact(ref_pmf_masses)
    assert exact(make_pmf, lo, xs, True) == exact(ref_make_pmf)
    assert exact(lambda: EvalFn(lo, xs, *tails).values) == exact(
        lambda: ref_validated(xs + list(tails), NegativeValue, "e-value entry")[:len(xs)])
    assert exact(stepfn_parts) == exact(ref_stepfn_parts, bps, xs, *tails)


@st.composite
def evalue_tables(draw, entries=_entries):
    lo = draw(st.integers(-4, 4))
    values = draw(st.lists(entries, max_size=10))
    return EvalFn(lo, tuple(values), draw(entries), draw(entries))


@st.composite
def pmf_tables(draw):
    # direct construction: any window, sub- or superprobable, even empty
    lo = draw(st.integers(-4, 6))
    masses = draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(
        [0.0, -0.0, 5e-324, 2.0**-1060, 1e300, 1e308])), max_size=10))
    return Pmf(lo, tuple(masses))


@settings(max_examples=300, deadline=None, database=None)
@given(e=evalue_tables(), q=pmf_tables())
@example(e=EvalFn(0, (1.0, 0.0), 1.0, 1.0), q=Pmf(0, (0.5, 0.5)))  # e vanishes on mass
@example(e=EvalFn(0, (0.0,), 1.0, 1.0), q=Pmf(0, (0.0, 1.0)))  # only where q does not
@example(e=EvalFn(5, (), 2.0, 0.5), q=Pmf(-2, (0.25, 5e-324, 0.75)))  # tails only
@example(e=EvalFn(0, (1e308, 1e308), 1.0, 1.0), q=Pmf(0, (1e308, 1e308)))  # to inf
def test_epower_and_expectation_match_the_entry_loops(e, q):
    assert exact(epower, e, q) == exact(ref_epower, e, q)
    assert exact(expectation, e, q) == exact(ref_expectation, e, q)
    if e.lo >= 0 and e.right_tail == 0.0:
        assert exact(is_xq_form, e) == exact(ref_is_xq_form, e)


def test_epower_logs_with_math_log_not_numpy():
    # an argument where numpy's log rounds apart from math.log
    rng = np.random.default_rng(0)
    x = next(v for v in rng.random(100_000) * 8.0 + 0.5
             if float(np.log(v)) != math.log(float(v)))
    x = float(x)
    e = EvalFn(0, (x, 1.0), 1.0, 1.0)
    assert epower(e, Pmf(0, (1.0,))) == math.log(x) != float(np.log(x))
    density = StepDensity(StepFn((0.0, 1.0), (1.0,)))
    assert epower_cont(StepFn((0.0, 1.0), (x,)), density) == math.log(x)


# 1 + 2**-53 rounds back to 1 at every step of a sequential sum; numpy's
# pairwise np.sum adds the small terms together first and lands above 1
_SEQUENTIAL = (1.0,) + (2.0**-53,) * 15


def test_running_sums_are_sequential_not_pairwise():
    assert float(np.sum(_SEQUENTIAL)) > 1.0
    e = EvalFn(0, _SEQUENTIAL, 0.0, 0.0)
    assert polar_certificate_m(e, 15).rho[-1] == 1.0
    assert polar_certificate_m(e, 15) == ref_polar_certificate_m(e, 15)
    d = polar_certificate_d(EvalFn(-16, _SEQUENTIAL[::-1] + (1.0,) + _SEQUENTIAL,
                                   0.0, 0.0), 0, 16)
    assert d.rho[-1] == d.eta[-1] == 1.0 + 1.0
    q = StepDensity(StepFn(tuple(map(float, range(17))), _SEQUENTIAL), is_sub=True)
    assert lcm_cont(q).fn.levels == ref_lcm_cont(q).fn.levels
    assert lcm_cont(q).total == 1.0


@settings(max_examples=300, deadline=None, database=None)
@given(e=evalue_tables(), theta=st.integers(-7, 7), tol=_tols)
@example(e=EvalFn(0, (1.0 + PROB_TOL,) * 6, 0.0, 0.0), theta=0, tol=PROB_TOL)
@example(e=EvalFn(-2, (), 1.0, 1.0), theta=0, tol=0.0)  # an empty window
@example(e=EvalFn(0, _SEQUENTIAL, 1.0, 1.0), theta=3, tol=0.0)
@example(e=EvalFn(3, (0.5, 1.0), 1.0, 1.0 + PROB_TOL), theta=-40_000, tol=PROB_TOL)  # far
def test_polar_walks_match_the_entry_loops(e, theta, tol):
    check_polar_walks(e, theta, tol)
    reach = max(e.hi - theta, theta - e.lo, 0) + 1
    if reach <= 30:
        assert is_in_polar_D(e, theta, tol) is block_scan_D(e, theta, tol, reach)


@settings(max_examples=200, deadline=None, database=None)
@given(e=evalue_tables(), theta=st.integers(-7, 7), upto=st.integers(-2, 14))
def test_polar_certificates_match_the_entry_loops(e, theta, upto):
    assert exact(polar_certificate_m, e, upto) == exact(ref_polar_certificate_m, e, upto)
    assert exact(polar_certificate_d, e, theta, upto) == exact(
        ref_polar_certificate_d, e, theta, upto)


# Tables of thousands of entries: the one array pass, the certified bounds
# and the exact passes all run over long arrays.
_LONG = 4096
_SIZES = (_LONG - 1, _LONG, _LONG + 1, 2 * _LONG + 3)
_ONES = EvalFn(0, (1.0,) * (2 * _LONG + 3), 1.0, 1.0)  # every sum lands on its cap


@st.composite
def long_tables(draw):
    size = draw(st.sampled_from(_SIZES))
    pool = draw(st.lists(_entries, min_size=1, max_size=3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    values = [rng.choice(pool) for _ in range(size)]
    # sums that a sequential walk and a pairwise one round apart, near n = 4096
    at = min(draw(st.integers(_LONG - 15, _LONG - 1)), size - len(_SEQUENTIAL))
    values[at:at + len(_SEQUENTIAL)] = _SEQUENTIAL
    return EvalFn(draw(st.sampled_from([0, -2, 3])), values, draw(_entries), draw(_entries))


@st.composite
def long_walks(draw):
    e = draw(long_tables())
    # left of the table, 4096 in from either end, and past the table
    theta = draw(st.one_of(
        st.sampled_from([e.lo - 1, e.lo + _LONG - 8, e.hi - _LONG + 8, e.hi + 2]),
        st.integers(e.lo - 3, e.hi + 3)))
    return e, theta


@settings(max_examples=40, deadline=None, database=None)
@given(walk=long_walks(), tol=_tols, upto=st.sampled_from(_SIZES))
@example(walk=(_ONES, 5), tol=0.0, upto=_LONG)
@example(walk=(EvalFn(0, (1.0,) * _LONG + (1.0 + 2.0**-40,), 1.0, 1.0), 0), tol=0.0,
         upto=_LONG + 1)  # the one sum past its cap
@example(walk=(EvalFn(-2, (1.0,) * (_LONG - 10) + _SEQUENTIAL, 0.5, 1.0), -3), tol=0.0,
         upto=2 * _LONG + 3)
@example(walk=(EvalFn(5, (1e308,) * (_LONG + 1), 0.0, 0.0), 6), tol=PROB_TOL,
         upto=_LONG + 1)  # sums overflow to inf
def test_polar_checks_on_long_tables_match_the_entry_loops(walk, tol, upto):
    e, theta = walk
    check_polar_walks(e, theta, tol)
    assert exact(polar_certificate_m, e, upto) == exact(ref_polar_certificate_m, e, upto)
    assert exact(polar_certificate_d, e, theta, upto) == exact(
        ref_polar_certificate_d, e, theta, upto)


@pytest.mark.parametrize("e, theta", [
    (EvalFn(0, (0.5, 0.25, 0.1), 0.5, 0.5), 10**6),
    (EvalFn(3, (0.5, 1.0), 1.0, 1.0 + PROB_TOL), -10**6),
    (EvalFn(10**5, (1.0,) * _LONG, 1.0, 1.0), 10**5 + _LONG // 2),  # a 10^5 run to the table
])
def test_far_polar_walks_match_the_entry_loops(e, theta):
    check_polar_walks(e, theta)


@settings(max_examples=100, deadline=None, database=None)
@given(e=st.one_of(evalue_tables(), long_tables()), theta=st.integers(-7, 7),
       tol=_tols, shift=st.sampled_from([12345, 2**40, -2**40]))
def test_polar_d_is_shift_equivariant(e, theta, tol, shift):
    # D reads e only at theta + k: moving the table and the peak together
    # moves nothing the check sees
    moved = EvalFn(e.lo + shift, e.values, e.left_tail, e.right_tail)
    assert exact(is_in_polar_D, moved, theta + shift, tol) == exact(is_in_polar_D, e, theta, tol)


# Entries at and one float either side of the cap 1 + PROB_TOL and of 1,
# within 3 PROB_TOL of the cap, and below half an ulp of 1; offsets that
# put the sums near 2**53 or the tail runs 10^12 long.
_CAP = 1.0 + PROB_TOL
_NEAR_CAP = [1.0 + k * PROB_TOL for k in (-2.0, -1.0, -0.5, 0.5, 2.0, 3.0)] + [
    _CAP, math.nextafter(_CAP, 0.0), math.nextafter(_CAP, 2.0),
    1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]
_BELOW_HALF_ULP = [2.0**-53, 2.0**-54, 2.0**-60, 0.0]
_FAR = [10**6, 10**12, 2**53 - 2, 2**53 + 1, -10**12]


@st.composite
def near_cap_walks(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.one_of(st.integers(0, 12), st.sampled_from([300, 3000])))
    kind = draw(st.sampled_from(["constant", "near cap", "below half an ulp", "mixed"]))
    if kind == "constant":  # a long run at or near the cap
        values = [draw(st.sampled_from(_NEAR_CAP))] * size
    elif kind == "near cap":
        values = [rng.choice(_NEAR_CAP) for _ in range(size)]
    elif kind == "below half an ulp":  # unit entries, tiny steps between
        values = [rng.choice([1.0, _CAP] + _BELOW_HALF_ULP) for _ in range(size)]
    else:
        values = [rng.choice(_NEAR_CAP + _BELOW_HALF_ULP + [0.5, 2.0, 1e308, math.inf])
                  for _ in range(size)]
    lo = draw(st.one_of(st.integers(-4, 4), st.sampled_from(_FAR)))
    tails = st.sampled_from(_NEAR_CAP + [0.0, 0.5])
    e = EvalFn(lo, values, draw(tails), draw(tails))
    theta = lo + draw(st.one_of(st.integers(-3, size + 3),
                                st.sampled_from([-10**12, -10**6, 10**6, 10**12])))
    return e, theta


@settings(max_examples=150, deadline=None, database=None)
@given(walk=near_cap_walks(), tol=_tols)
@example(walk=(EvalFn(2**53 - 2, (1.0,) * 6, 1.0, 1.0), 0), tol=0.0)  # sums cross 2**53
@example(walk=(EvalFn(2**53 + 1, (2.0,) * 10, 1.0, 1.0), 0), tol=0.0)  # caps past 2**53
@example(walk=(EvalFn(0, (_CAP,) * 3000, _CAP, _CAP), 1500), tol=PROB_TOL)  # on the cap
@example(walk=(EvalFn(10**12, (0.5, 0.25, 0.1), 0.5, 0.5), 0), tol=PROB_TOL)
@example(walk=(EvalFn(0, (0.0, 2.0 + 2.0**-51), 0.0, 0.0), 0), tol=0.0)  # over by an ulp
@example(walk=(EvalFn(0, (0.5, 1.5), 0.0, 0.0), 0), tol=0.0)  # a block exactly on its cap
@example(walk=(EvalFn(0, (1.0, 1e308, 1e308), 1.0, 1.0), 0), tol=PROB_TOL)  # sums past floats
@example(walk=(EvalFn(5, (1.0 + 2.0**-51,) * 100, 1.0, 1.0), 0),
         tol=3 * 2.0**-53)  # float sums that fall 50 ulps short of exact ones past the cap
def test_polar_checks_match_exact_block_scans(walk, tol):
    e, theta = walk
    assert exact(is_in_polar_M, e, tol) == exact(exact_polar_M, e, tol)
    verdict = block_verdict_M(e, tol)
    if verdict is not None:  # away from the caps' rounding, the paper's criterion
        assert is_in_polar_M(e, tol) is verdict
    if tol >= 0.0 and e.hi + 1 < 2**53:  # M is U on the unit grid
        grid = ([0.0] + ([float(e.lo)] if e.lo > 0 else [])
                + [float(n + 1) for n in range(max(e.lo, 0), e.hi + 1)])
        levels = ([e.left_tail] if e.lo > 0 else []) + list(e.values[max(-e.lo, 0):])
        unit = StepFn(tuple(grid), tuple(levels), 0.0, e.right_tail)
        assert exact(is_in_polar_U, unit, False, tol) == exact(is_in_polar_M, e, tol)
    assert exact(is_in_polar_D, e, theta, tol) == exact(exact_polar_D, e, theta, tol)
    reach = max(e.hi - theta, theta - e.lo, 0) + 1
    if reach <= 30:
        assert is_in_polar_D(e, theta, tol) is block_scan_D(e, theta, tol, reach)


@settings(max_examples=200, deadline=None, database=None)
@given(sums=st.lists(st.one_of(_entries, st.just(math.nan),
                               st.integers(0, 12).map(float)), max_size=12), tol=_tols)
def test_block_cap_rule_matches_the_indexed_loop(sums, tol):
    assert _over_block_caps(sums, tol) is any(
        _ref_over_block_cap(s, n, tol) for n, s in enumerate(sums))


@settings(max_examples=300, deadline=None, database=None)
@given(ys=st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-2.0, 2.0),
                             st.sampled_from([math.inf, math.nan, 1e308])), max_size=14),
       start=st.integers(-2, 2), float_xs=st.booleans())
@example(ys=[1e308, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0], start=0, float_xs=False)
def test_monotone_chain_matches_the_list_loop(ys, start, float_xs):
    # small integer heights make collinear and repeated turns common; a
    # product that overflows gives a nan test, which keeps the point
    xs = [start + k for k in range(len(ys))]
    if float_xs:
        xs = [x / 4.0 for x in xs]
    assert repr(_upper_hull(xs, ys)) == repr(ref_upper_hull(xs, ys))


def _cdf_knots(masses):
    return list(range(-1, len(masses))), list(accumulate(masses, initial=0.0))


@st.composite
def long_hull_inputs(draw):
    # 50 to 3,000 points holding every kind of near-tie the chain decides
    size = draw(st.integers(50, 3000))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["plateaus", "small ints", "below half an ulp", "rare"]))
    if kind == "plateaus":  # a CDF whose masses repeat in runs
        masses: list[float] = []
        while len(masses) < size:
            masses += [rng.choice([0.0, 0.5, 1.0, 3.0, rng.random()])] * rng.randint(1, 200)
        ys = list(accumulate(masses[:size]))
    elif kind == "small ints":
        ys = [float(rng.randint(-3, 3)) for _ in range(size)]
    elif kind == "below half an ulp":  # steps from 1.0 that round away or land
        steps = [rng.choice([0.0, 2.0**-54, 2.0**-53, 2.0**-52]) for _ in range(size - 1)]
        ys = list(accumulate(steps, initial=1.0))
    else:  # subnormals, 1e308, inf and nan among ordinary heights
        pool = draw(st.lists(st.sampled_from([5e-324, 1e-310, 1e308, math.inf, math.nan]),
                             min_size=1, max_size=3))
        ys = [rng.choice(pool) if rng.random() < 0.1 else rng.random() for _ in range(size)]
    start = draw(st.integers(-2, 2))
    xs = draw(st.sampled_from([
        [start + k for k in range(size)],
        [(start + k) / 4.0 for k in range(size)],
        [-0.0] + [k / 4.0 for k in range(1, size)],
    ]))
    return xs, ys


@settings(max_examples=60, deadline=None, database=None)
@given(points=long_hull_inputs())
@example(points=_cdf_knots(_DECREASING))
@example(points=_cdf_knots([1.0 / _N] * _N))
@example(points=(_EQUAL_PIECES, list(accumulate(map(sub, _EQUAL_PIECES[1:], _EQUAL_PIECES),
                                                initial=0.0))))
@example(points=_cdf_knots(_EVERY_OTHER_ZERO))
def test_upper_hull_matches_the_list_loop_on_long_inputs(points):
    xs, ys = points
    assert repr(_upper_hull(xs, ys)) == repr(ref_upper_hull(xs, ys))


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data(), e=step_fns())
@example(data=None, e=StepFn((0.0, 10.0), (1e308,)))
def test_integral_to_matches_the_piece_loop(data, e):
    bps = e.breakpoints
    points = [bps[-1], bps[-1] * 2.0, math.inf, 0.0, -1.0,
              bps[len(bps) // 2], (bps[0] + bps[-1]) / 2.0]
    if data is not None:
        points.append(data.draw(st.floats(0.0, bps[-1] * 1.5 + 1.0)))
    for x in points:
        assert exact(e.integral_to, x) == exact(ref_integral_to, e, x)
    xq = XqEvalue(StepDensity(StepFn(bps, e.levels)))
    for x in points:
        assert exact(xq.integral_to, x) == exact(ref_xq_integral_to, xq, x)


@settings(max_examples=200, deadline=None, database=None)
@given(fn=step_fns(tail=0.0), atom0=st.sampled_from([0.0, 0.0, 0.25, 5e-324]))
@example(fn=StepFn((0.0, 1e308, DBL_MAX), (10.0, 1.0)), atom0=0.0)  # knots overflow
@example(fn=StepFn(tuple(_EQUAL_PIECES), (1.0,) * _N), atom0=0.0)
def test_lcm_cont_matches_the_knot_loop(fn, atom0):
    q = StepDensity(fn, atom0, is_sub=True)
    assert exact(lcm_cont, q) == exact(ref_lcm_cont, q)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), grids=grid_pair(), start=st.sampled_from([0.0, -0.0]))
def test_array_merge_matches_the_two_pointer_merge(data, grids, start):
    (_, *abps), (_, *bbps) = grids
    a = StepFn((start, *abps), _levels_for(data.draw, grids[0]), 0.0, data.draw(_grid_levels))
    b = StepFn((0.0, *bbps), _levels_for(data.draw, grids[1]), 0.0, data.draw(_grid_levels))
    want = [piece for piece in ref_common_pieces(a, b) if piece[3] != 0.0]
    left, right, a_lv, b_lv, charged = _charged_pieces(a, b)
    assert len(charged) == len(list(ref_common_pieces(a, b)))
    assert [p[0] for p in want] == left.tolist()  # == here: a start of -0.0 may stay
    assert [tuple(map(float.hex, p[1:])) for p in want] == [
        tuple(map(float.hex, p)) for p in zip(right.tolist(), a_lv.tolist(), b_lv.tolist())]


def test_table_arithmetic_overflows_silently():
    # Python float arithmetic gives inf without a word; the numpy kernels
    # must too (the test configuration turns their RuntimeWarnings into errors)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert StepFn((0.0, 10.0), (1e308,)).integral_to(10.0) == math.inf
        e = StepFn((0.0, 100.0), (1e308,))
        p = StepDensity(StepFn((0.0, 100.0), (0.1,)))
        assert expectation_cont(e, p) == ref_expectation_cont(e, p) == math.inf
        q = StepDensity(StepFn((0.0, 1e300), (1e300,)))
        e = StepFn((0.0, 1e300), (2.0,))
        assert epower_cont(e, q) == ref_epower_cont(e, q) == math.inf
        q = StepDensity(StepFn((0.0, 1.0, 2.0), (math.inf, 1.0)))  # inf / inf
        assert exact(numeraire_cont, q) == exact(ref_numeraire_cont, q)
