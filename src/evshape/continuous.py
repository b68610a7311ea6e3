"""Step-function machinery for monotone shapes on the half-line.

Everything here is a finite step function or step density: bumps,
products ``x * q(x)``, least concave majorants of piecewise-linear CDFs,
and their ratios all stay inside that class, so exact arithmetic is a
matter of walking breakpoints.  The single membership oracle checks the
integral condition ``integral of e over [0, x] <= x`` at breakpoints,
which suffices because the integral minus ``x`` is piecewise linear for
step functions and piecewise convex for the ``x * q(x)`` family.

Every table operation is one linear walk, run at C level where it can
be.  The polar check is one array pass, ``pmf._under_caps``, that sums
exactly only near a cap, so it returns what summing every prefix afresh
with ``fsum`` would, bit for bit.  Expectations,
e-powers and the numeraire refine two breakpoint grids in one array
merge (a sort plus ``searchsorted``) and do the same float operations
on the arrays, one by one, that the scalar code did on each piece; logs
stay ``math.log``.  The numeraire divides by a majorant fitted once per
table: the knots' heights come from one ``cumsum``, and their upper hull
from the monotone chain of :mod:`evshape.numeraire`.  Its e-power is read
off the merge that made it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, islice
from operator import lt, mul, sub, truediv

import numpy as np

from .errors import (
    AtomPresent,
    BadInterval,
    NegativeValue,
    NonFiniteInput,
    NonzeroTail,
    ZeroFittedMass,
)
from .mode import _check_alpha
from .numeraire import _upper_hull
from .pmf import (PROB_TOL, SHAPE_TOL, _check_nonnegative, _check_total, _json_bool,
                  _json_number, _json_numbers, _json_object, _total, _under_caps)


def _rights_to(bps: tuple[float, ...], x: float):
    # right ends of the pieces that start left of x, the last one cut at x
    return chain(islice(bps, 1, bisect_left(bps, x)), (x,))


@dataclass(frozen=True)
class StepFn:
    """Right-closed step function on ``[0, inf)``.

    ``levels[i]`` is the value on ``(breakpoints[i], breakpoints[i+1]]``;
    ``value_at_0`` covers the single point 0 and ``tail_level`` covers
    everything past the last breakpoint.  The piece lookup is
    left-continuous: the value at a breakpoint is the level of the piece
    ending there.
    """

    breakpoints: tuple[float, ...]
    levels: tuple[float, ...]
    value_at_0: float = 0.0
    tail_level: float = 0.0

    def __post_init__(self) -> None:
        bps = tuple(map(float, self.breakpoints))
        lvs = tuple(map(float, self.levels))
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "levels", lvs)
        object.__setattr__(self, "value_at_0", float(self.value_at_0))
        object.__setattr__(self, "tail_level", float(self.tail_level))
        if not bps or bps[0] != 0.0:
            raise BadInterval("breakpoints must start at 0")
        if not all(map(lt, bps, islice(bps, 1, None))) or not math.isfinite(bps[-1]):
            raise BadInterval("breakpoints must increase strictly and stay finite")
        if len(lvs) != len(bps) - 1:
            raise BadInterval(
                f"{len(bps)} breakpoints need {len(bps) - 1} levels, got {len(lvs)}"
            )
        _check_nonnegative(lvs + (self.value_at_0, self.tail_level),
                           NegativeValue, "step level")

    def at(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        if x == 0.0:
            return self.value_at_0
        if x > self.breakpoints[-1]:
            return self.tail_level
        return self.levels[bisect_left(self.breakpoints, x) - 1]

    def integral_to(self, x: float) -> float:
        """Lebesgue integral over ``[0, x]`` (the point 0 carries none)."""
        if x <= 0.0:
            return 0.0
        bps = self.breakpoints
        tail = (self.tail_level * (x - bps[-1]),) if x > bps[-1] else ()
        return _total(chain(self._areas(x), tail))

    def _areas(self, x: float = math.inf):
        # the integral over each piece that starts left of x, cut at x
        bps = self.breakpoints
        return map(mul, self.levels, map(sub, _rights_to(bps, x), bps))

    def total_integral(self) -> float:
        if self.tail_level > 0.0:
            return math.inf
        return self.integral_to(self.breakpoints[-1])

    def to_json(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "levels": list(self.levels),
            "value_at_0": self.value_at_0,
            "tail_level": self.tail_level,
        }


@dataclass(frozen=True)
class StepDensity:
    """Step density plus a point mass at 0.

    Direct construction only checks structure (no tail mass, sane atom);
    :func:`make_step_density` additionally enforces the total-mass
    contract the way :func:`~evshape.pmf.make_pmf` does for tables.
    """

    fn: StepFn
    atom0: float = 0.0
    is_sub: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "atom0", float(self.atom0))
        _check_nonnegative((self.atom0,), NegativeValue, "atom")
        if self.fn.tail_level != 0.0:
            raise NonzeroTail("a density has no mass past its last breakpoint")

    def density(self, x: float) -> float:
        return self.fn.at(x) if x > 0.0 else 0.0

    def cdf(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        return self.atom0 + self.fn.integral_to(x)

    @property
    def total(self) -> float:
        return self.atom0 + self.fn.total_integral()

    def mass_between(self, a: float, b: float) -> float:
        """Mass of ``(a, b]``; includes the atom exactly when a < 0 <= b."""
        if b <= a:
            return 0.0
        return self.cdf(b) - self.cdf(a)

    def to_json(self) -> dict:
        return {
            "atom0": self.atom0,
            "breakpoints": list(self.fn.breakpoints),
            "levels": list(self.fn.levels),
            "is_sub": self.is_sub,
        }


def make_step_density(
    breakpoints, levels, atom0: float = 0.0, is_sub: bool = False
) -> StepDensity:
    """Validate a density spec; total mass must behave like a (sub)probability."""
    fn = StepFn(tuple(breakpoints), tuple(levels), 0.0, 0.0)
    d = StepDensity(fn, atom0, is_sub)
    _check_total(d.total, is_sub)
    return d


def step_density_from_json(obj: dict | str) -> StepDensity:
    obj = _json_object(obj)
    return make_step_density(
        _json_numbers(obj["breakpoints"], "breakpoints"),
        _json_numbers(obj["levels"], "levels"),
        _json_number(obj.get("atom0", 0.0), "atom0"),
        _json_bool(obj.get("is_sub", False), "is_sub"),
    )


def is_monotone_density(q: StepDensity, tol: float = SHAPE_TOL) -> bool:
    """True iff the density part is non-increasing on ``(0, inf)``."""
    lv = q.fn.levels
    return all(lv[i] >= lv[i + 1] - tol for i in range(len(lv) - 1))


# ------------------------------------------------------------- e-values


def bump_evalue(a: float, b: float) -> StepFn:
    """The flat bump ``b / (b - a)`` on ``(a, b]``, zero elsewhere."""
    a, b = float(a), float(b)
    if not (0.0 < a < b) or not math.isfinite(b):
        raise BadInterval(f"need 0 < a < b, got ({a}, {b})")
    return StepFn((0.0, a, b), (0.0, b / (b - a)), 0.0, 0.0)


@dataclass(frozen=True)
class XqEvalue:
    """The map ``x -> x * q(x)`` for an atom-free step density ``q``.

    Piecewise linear rather than piecewise constant, so it is kept as an
    evaluation interface; the polar check still reduces to breakpoints
    because its running integral is convex on each piece.
    """

    q: StepDensity

    # shared surface with StepFn so the polar oracle stays generic
    value_at_0: float = 0.0
    tail_level: float = 0.0

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self.q.fn.breakpoints

    def at(self, x: float) -> float:
        return x * self.q.density(x) if x > 0.0 else 0.0

    def integral_to(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return _total(self._areas(x))

    def _areas(self, x: float = math.inf):
        # the integral over each piece that starts left of x, cut at x
        bps = self.q.fn.breakpoints
        return (lv * (right * right - left * left) / 2.0
                for lv, left, right in zip(self.q.fn.levels, bps, _rights_to(bps, x)))


def xq_evalue_cont(q: StepDensity) -> XqEvalue:
    """Package ``x * q(x)``; the density must put no mass on the point 0."""
    if q.atom0 > 0.0:
        raise AtomPresent(f"atom {q.atom0} at 0 breaks the product form")
    return XqEvalue(q)


def bump_mixture_value(q: StepDensity, w: float, x: float) -> float:
    """Width-``w`` bump mixture at ``x``: grid bumps weighted by ``q`` mass.

    Converges pointwise to ``x * q(x)`` as ``w`` shrinks (away from the
    atom); the mixture is itself a convex combination of bump e-values.
    """
    if w <= 0.0:
        raise BadInterval(f"bandwidth {w} must be positive")
    if x <= 0.0:
        return 0.0
    k = math.ceil(x / w) - 1
    a, b = k * w, (k + 1) * w
    return q.mass_between(a, b) * (k + 1)


def is_in_polar_U(e, require_jump_guard: bool = False, tol: float = PROB_TOL) -> bool:
    """Membership oracle for e-values against monotone densities.

    ``e`` is a :class:`StepFn` or :class:`XqEvalue`.  Checks the running
    integral against ``x`` at every breakpoint (sufficient: the gap is
    piecewise linear, or convex piece-by-piece for the product form),
    requires the tail level at most one so the condition persists, and
    with ``require_jump_guard`` also caps the value at 0 by one, which
    extends validity to nulls carrying an atom there.

    One pass, :func:`pmf._under_caps`: each integral is exactly
    ``e.integral_to(b)`` at its breakpoint ``b`` (0 at the first).
    """
    if e.tail_level > 1.0 + tol:
        return False
    if require_jump_guard and e.value_at_0 > 1.0 + tol:
        return False
    # the right end of each piece and the integral over it: _areas() as an
    # array, by the same float operations
    bps = np.array(e.breakpoints)
    rights, lefts = bps[1:], bps[:-1]
    with np.errstate(all="ignore"):  # inf and nan come silently, as in float code
        if isinstance(e, XqEvalue):
            areas = np.array(e.q.fn.levels) * (rights * rights - lefts * lefts) / 2.0
        else:
            areas = np.array(e.levels) * (rights - lefts)
    b0 = e.breakpoints[0]  # where the integral is 0
    return 0.0 <= b0 + tol * max(1.0, b0) and _under_caps(rights, areas, tol)


# -------------------------------------------------- expectation, e-power


def _charged_pieces(a: StepFn, b: StepFn):
    # the common refinement of two breakpoint grids in one array merge: the
    # pieces (left, right] where b is nonzero, the levels of a and b at right
    # (tails past the last breakpoint), and the mask of those pieces
    abps, bbps = np.asarray(a.breakpoints), np.asarray(b.breakpoints)
    cuts = np.concatenate((abps, bbps))
    cuts.sort()
    cuts = cuts[np.append(True, cuts[1:] != cuts[:-1])]  # np.unique loads numpy.ma
    b_lv = np.append(b.levels, b.tail_level)[np.searchsorted(bbps, cuts[1:]) - 1]
    charged = b_lv != 0.0
    right = cuts[1:][charged]
    return (cuts[:-1][charged], right,
            np.append(a.levels, a.tail_level)[np.searchsorted(abps, right) - 1],
            b_lv[charged], charged)


def _floats(a: np.ndarray):
    # the entries of a as Python floats, made a chunk at a time
    return chain.from_iterable(a[k:k + 4096].tolist() for k in range(0, len(a), 4096))


def expectation_cont(e, p: StepDensity) -> float:
    """Exact ``E_p[e(X)]`` for ``e`` a StepFn or XqEvalue."""
    product_form = isinstance(e, XqEvalue)
    left, right, e_lv, p_lv, _ = _charged_pieces(e.q.fn if product_form else e, p.fn)
    with np.errstate(all="ignore"):  # inf and nan come silently, as in float code
        if product_form:
            parts = p_lv * e_lv * (right * right - left * left) / 2.0
        else:
            parts = p_lv * e_lv * (right - left)
    return math.fsum(chain((p.atom0 * e.value_at_0,), _floats(parts)))


def epower_cont(e: StepFn, q: StepDensity) -> float:
    """Exact ``E_q[log e(X)]``; ``-inf`` when ``q`` charges a zero of ``e``."""
    left, right, e_lv, q_lv, _ = _charged_pieces(e, q.fn)
    return _epower_pieces(e.value_at_0, q, left, right, e_lv, q_lv)


def _epower_pieces(at0: float, q: StepDensity, left, right, e_lv, q_lv) -> float:
    # epower_cont from the charged pieces of q's grid merged with e's, and e(0)
    parts = []
    if q.atom0 > 0.0:
        if at0 <= 0.0:
            return -math.inf
        parts.append(q.atom0 * math.log(at0))
    if not (e_lv > 0.0).all():
        return -math.inf
    with np.errstate(all="ignore"):
        weights = _floats(q_lv * (right - left))
    # q has no tail mass, so pieces past its last breakpoint contribute 0
    return math.fsum(chain(parts, map(mul, weights, map(math.log, _floats(e_lv)))))


# ------------------------------------------------------- p-value and CIs


def edelman_pvalue(x: float, a: float) -> float:
    """Distance-ratio p-value ``2|x-a| / (|x-a| + |x|)``, clamped to [0, 1].

    Raw values in (1, 2] occur only where the induced rejection region
    is empty, hence the clamp loses nothing.
    """
    d = abs(x - a)
    if d == 0.0:
        return 0.0
    return min(2.0 * d / (d + abs(x)), 1.0)


@dataclass(frozen=True)
class RealInterval:
    """Open interval, single point, or the whole line."""

    kind: str  # "open" | "singleton" | "all"
    lo: float = 0.0
    hi: float = 0.0

    @classmethod
    def open(cls, lo: float, hi: float) -> "RealInterval":
        return cls("open", float(lo), float(hi))

    @classmethod
    def singleton(cls, x: float) -> "RealInterval":
        return cls("singleton", float(x), float(x))

    @classmethod
    def all_reals(cls) -> "RealInterval":
        return cls("all", -math.inf, math.inf)

    def contains(self, y: float) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "singleton":
            return y == self.lo
        return self.lo < y < self.hi

    @property
    def width(self) -> float:
        return 0.0 if self.kind == "singleton" else self.hi - self.lo

    def to_json(self) -> dict:
        if self.kind == "all":
            return {"kind": "all"}
        return {"kind": self.kind, "lo": self.lo, "hi": self.hi}


def edelman_ci(x: float, alpha: float, phi: float) -> RealInterval:
    """Interval ``(x - L|x - phi|, x + L|x - phi|)`` with ``L = 2/alpha - 1``.

    Collapses to the single point ``{x}`` when ``x == phi``.
    """
    _check_alpha(alpha)
    if x == phi:
        return RealInterval.singleton(x)
    return _open_around(x, 2.0 / alpha - 1.0, phi)


def cont_mode_ci(x: float, alpha: float, phi: float) -> RealInterval:
    """Mode interval with the wider factor ``T = 2/alpha + 1``.

    At ``x == phi`` the event underlying the interval has probability
    zero, so the conservative answer is the whole line.
    """
    _check_alpha(alpha)
    if x == phi:
        return RealInterval.all_reals()
    return _open_around(x, 2.0 / alpha + 1.0, phi)


def _open_around(x: float, factor: float, phi: float) -> RealInterval:
    """The open interval ``x -+ factor |x - phi|``; :class:`NonFiniteInput`
    names it where an end overflows a float."""
    radius = factor * abs(x - phi)
    lo, hi = x - radius, x + radius
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteInput(f"interval {x!r} -+ {factor!r} * |{x!r} - {phi!r}| "
                             "overflows a float")
    return RealInterval.open(lo, hi)


# ------------------------------------------------------ concave majorant


def lcm_cont(q: StepDensity) -> StepDensity:
    """Least concave majorant of the CDF, as a step density.

    The jump at 0 is kept as-is; past it the majorant of a
    piecewise-linear CDF is the upper hull of its knots, so the fitted
    density is the hull's slope sequence.
    """
    bps = np.array(q.fn.breakpoints)
    cdf = np.empty(len(bps))  # the knots' heights: the atom, then each piece's area
    cdf[0] = q.atom0
    with np.errstate(all="ignore"):  # areas and sums overflow to inf, as floats do
        np.multiply(q.fn.levels, np.diff(bps), out=cdf[1:])
        np.cumsum(cdf, out=cdf)  # sequential, as accumulate(..., initial=atom0) is
    bps[0] = 0.0  # the grid may start at -0.0
    hx, hy = _upper_hull(bps.tolist(), cdf.tolist())
    slopes = tuple(map(truediv, map(sub, hy[1:], hy), map(sub, hx[1:], hx)))
    return StepDensity(StepFn(tuple(hx), slopes, 0.0, 0.0), q.atom0, q.is_sub)


def numeraire_cont(q: StepDensity) -> StepFn:
    """Log-optimal e-value for ``q`` against monotone nulls: ``q / fitted``.

    Piecewise-constant on ``q``'s own grid (hull breakpoints are a
    subset), zero off the support of ``q``, and exactly one at 0 when
    the atom survives the projection untouched.
    """
    return _numeraire_cont(q, lcm_cont(q))[0]


def _numeraire_cont_with_epower(q: StepDensity,
                                fitted: StepDensity) -> tuple[StepFn, float]:
    # fitted = lcm_cont(q); the e-power is epower_cont(e, q), read off the
    # merge that made e, as e's grid and the charged pieces are q's
    e, pieces = _numeraire_cont(q, fitted)
    return e, _epower_pieces(e.value_at_0, q, *pieces)


def _numeraire_cont(q: StepDensity, fitted: StepDensity):
    # fitted = lcm_cont(q), whose grid is a subset of q's; e and its charged
    # pieces (left, right, e's level, q's level)
    left, right, f_lv, q_lv, charged = _charged_pieces(fitted.fn, q.fn)
    if (f_lv == 0.0).any():
        k = np.argmax(f_lv == 0.0)
        raise ZeroFittedMass(f"level {q_lv[k].item()!r} up to {right[k].item()!r} is "
                             "fitted as 0: it is below the rounding of the CDF")
    values = np.zeros(len(charged))
    with np.errstate(all="ignore"):
        values[charged] = ratio = q_lv / f_lv
    at0 = 1.0 if q.atom0 > 0.0 else 0.0
    return StepFn(q.fn.breakpoints, _floats(values), at0, 0.0), (left, right, ratio, q_lv)
