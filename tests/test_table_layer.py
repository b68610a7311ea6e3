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
polar walks and certificates, the monotone chain, ``integral_to``,
``lcm_cont`` and the two-pointer grid merge.  There floats are compared
by ``float.hex`` and exceptions by type and message.
"""

import contextlib
import io
import json
import math
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evshape
from evshape.cli import main
from evshape.continuous import (
    StepDensity,
    StepFn,
    XqEvalue,
    _charged_pieces,
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
    NegativeMass,
    NegativeSupport,
    NegativeValue,
    NonFiniteInput,
    NonzeroTail,
    NoViolation,
    SubprobabilityInput,
)
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
    Pmf,
    is_monotone,
    is_theta_unimodal,
    make_pmf,
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


def ref_lcm(q: Pmf) -> LcmResult:
    if q.lo < 0:
        raise NegativeSupport("majorant needs nonnegative support")
    if q.is_sub or abs(q.total - 1.0) > PROB_TOL:
        raise SubprobabilityInput("majorant needs a full probability")
    xs = list(range(-1, q.hi + 1))
    cdf, acc = [0.0], 0.0
    for n in range(0, q.hi + 1):
        acc += q.f(n)
        cdf.append(acc)
    hx, hy = _upper_hull(xs, cdf)
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
    fitted = res.fitted_masses()
    values = tuple(
        q.f(n) / fitted[n] if q.f(n) > 0.0 else 0.0 for n in range(0, res.hi + 1)
    )
    return EvalFn(0, values, 0.0, 0.0)


def ref_ripr(q: Pmf) -> Pmf:
    res = ref_lcm(q)
    fitted = res.fitted_masses()
    masses = [fitted[n] if q.f(n) > 0.0 else 0.0 for n in range(0, res.hi + 1)]
    return make_pmf(0, masses, is_sub=True)


def ref_max_epower(q: Pmf) -> float:
    return epower(ref_numeraire_evalue(q), q)


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
    stripped = text.strip()
    entries: dict[int, float] = {}
    for line in stripped.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        idx_s, mass_s = line.split()
        idx = int(idx_s)
        if idx in entries:
            raise ValueError(f"duplicate index {idx}")
        entries[idx] = float(mass_s)
    if not entries:
        raise ValueError("no mass entries found")
    lo, hi = min(entries), max(entries)
    masses = [entries.get(n, 0.0) for n in range(lo, hi + 1)]
    return make_pmf(lo, masses, is_sub)


def ref_validated(xs, error, what: str) -> tuple:
    # the check each constructor ran on its converted entries
    xs = tuple(float(x) for x in xs)
    for x in xs:
        if x < 0.0 or math.isnan(x):
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
    return math.fsum(parts)


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
    return math.fsum(parts)


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


@st.composite
def pmf_texts(draw):
    raw = draw(_masses)
    total = math.fsum(raw)
    if total == 0.0:
        raw, total = [1.0], 1.0
    lo = draw(st.integers(-2, 5))
    return "".join(f"{lo + i} {m / total!r}\n" for i, m in enumerate(raw))


@settings(max_examples=100, deadline=None, database=None)
@given(text=pmf_texts())
@example(text="0 1.0\n1 1e-165\n")  # a fitted mass of 0 under a positive one
def test_numeraire_payload_matches_the_four_fit_composition(text):
    want = ref_cli_outcome(ref_numeraire_stdout, text)
    if want == "raises ZeroDivisionError":
        want = (1, "")
    assert cli_outcome(["numeraire"], text) == want
    q = pmf_from_text(text)
    for fn, ref in ((lcm, ref_lcm), (numeraire_evalue, ref_numeraire_evalue),
                    (ripr, ref_ripr), (max_epower, ref_max_epower)):
        want = outcome(ref, q)
        assert outcome(fn, q) == _TYPED.get(want, want)


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
    masses = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3]),
                                     st.floats(0.0, 1.0)), max_size=20))
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
def test_witness_matches_the_tilt_per_pair_scan(case):
    q, theta = case
    assert outcome(witness, q, theta) == outcome(ref_witness, q, theta)


def test_pmf_rejects_infinite_masses():
    with pytest.raises(NonFiniteInput):
        Pmf(0, (0.5, math.inf))


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


@st.composite
def text_tables(draw):
    """``index mass`` text: contiguous rows, or broken in one of many ways."""
    lo = draw(st.integers(-3, 5))
    masses = draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-300])), min_size=1, max_size=12))
    total = math.fsum(masses)
    masses = [m / total for m in masses] if total > 0.0 else [1.0] + masses[1:]
    rows = [f"{lo + i} {m!r}" for i, m in enumerate(masses)]
    for edit in draw(st.lists(st.sampled_from(
            ["shuffle", "gap", "duplicate", "comment", "blank", "three", "one",
             "bad-index", "bad-mass", "negative", "nan", "tabs", "crlf", "unsorted"]),
            max_size=2)):
        k = draw(st.integers(0, len(rows) - 1))
        index, mass = (rows[k].split() + ["0", "0.5"])[:2]  # a blank row reads "0 0.5"
        if edit == "shuffle":
            rows = draw(st.permutations(rows))
        elif edit == "gap" and len(rows) > 2:
            del rows[k if 0 < k < len(rows) - 1 else 1]
        elif edit == "duplicate":
            rows.insert(k, rows[k])
        elif edit == "comment":
            rows.insert(k, "# a comment")
        elif edit == "blank":
            rows.insert(k, "   ")
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
        elif edit == "nan":
            rows[k] = index + " nan"
        elif edit == "tabs":
            rows[k] = "\t" + rows[k].replace(" ", " \t ") + "  "
        elif edit == "crlf":
            rows[k] += "\r"
        elif edit == "unsorted" and len(rows) > 1:
            rows[0], rows[-1] = rows[-1], rows[0]
    return "\n".join(rows) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=300, deadline=None, database=None)
@given(text=text_tables())
@example(text="")
@example(text="# only a comment\n")
@example(text="0 0.5\n1 0.5 0.0\n")
@example(text="5 1.0")
@example(text="0 1_0e-1\n1 0.9\n")  # int() and float() accept underscores
def test_text_parser_matches_the_line_loop(text):
    assert exact(pmf_from_text, text) == exact(ref_pmf_from_text, text)
    assert exact(pmf_from_text, text, True) == exact(ref_pmf_from_text, text, True)


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
    assert exact(is_in_polar_M, e, tol) == exact(ref_is_in_polar_M, e, tol)
    assert exact(is_in_polar_D, e, theta, tol) == exact(ref_is_in_polar_D, e, theta, tol)


@settings(max_examples=200, deadline=None, database=None)
@given(e=evalue_tables(), theta=st.integers(-7, 7), upto=st.integers(-2, 14))
def test_polar_certificates_match_the_entry_loops(e, theta, upto):
    assert exact(polar_certificate_m, e, upto) == exact(ref_polar_certificate_m, e, upto)
    assert exact(polar_certificate_d, e, theta, upto) == exact(
        ref_polar_certificate_d, e, theta, upto)


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
def test_monotone_chain_matches_the_list_loop(ys, start, float_xs):
    # small integer heights make collinear and repeated turns common
    xs = [start + k for k in range(len(ys))]
    if float_xs:
        xs = [x / 4.0 for x in xs]
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
