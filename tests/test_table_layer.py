"""Differential tests of the linear-time table layer.

Each single-pass operation is compared with ``==`` against the plain
code it replaced, copied below as the reference: the polar check that
re-sums every prefix, the bisecting refinement of two breakpoint grids,
the numeraire payloads that fit the majorant once per output, and the
witness scan that builds a tilt for every rising pair.  Outcomes are
compared through ``repr``, so float bits, ``-0.0`` and ``nan`` count,
and so does the type of any exception raised.
"""

import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evshape
from evshape.cli import main
from evshape.continuous import (
    StepDensity,
    StepFn,
    XqEvalue,
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
    NegativeSupport,
    NonFiniteInput,
    NoViolation,
    SubprobabilityInput,
)
from evshape.evalues import (
    EvalFn,
    epower,
    epower_lower_bound,
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


# ------------------------------------------------------------- plumbing


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
    assert outcome(numeraire_cont, q) == outcome(ref_numeraire_cont, q)


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


# Where a positive mass is fitted 0, the reference divides by zero and
# lets ZeroDivisionError escape; the package raises the typed
# ZeroFittedMass there, which the CLI reports with exit 1.
_TYPED = {"raises ZeroDivisionError": "raises ZeroFittedMass"}


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
    assert cli_outcome(["cont-numeraire"], text) == ref_cli_outcome(
        ref_cont_numeraire_stdout, text)


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
    monkeypatch.delenv("EVSHAPE_WORKERS", raising=False)
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
