"""Least concave majorant, information projection, and optimal e-values.

For a probability ``q`` on the nonnegative integers, the least concave
majorant of its CDF (anchored at the point ``(-1, 0)`` so that the mass
at zero is majorized too) yields the closest non-increasing
distribution in the information sense.  The ratio of ``q`` to that
projection is the log-optimal e-value against the monotone null.

The majorant is the upper hull of the CDF's knots, as the monotone chain
finds it in one pass over them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from operator import sub

from .errors import NegativeSupport, SubprobabilityInput, ZeroFittedMass
from .evalues import EvalFn, epower
from .pmf import PROB_TOL, Pmf, make_pmf


@dataclass(frozen=True)
class LcmResult:
    """Concave majorant of a CDF, stored by contacts and slopes.

    ``contacts`` are the knot indices where the majorant touches the
    CDF, always starting at ``-1``; ``slopes`` holds one strictly
    decreasing value per segment.  ``heights`` caches the majorant at
    the contacts.
    """

    contacts: tuple[int, ...]
    slopes: tuple[float, ...]
    heights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.contacts or self.contacts[0] != -1:
            raise ValueError("contacts must start at -1")
        if len(self.slopes) != len(self.contacts) - 1:
            raise ValueError("need one slope per segment")
        if len(self.heights) != len(self.contacts):
            raise ValueError("need one height per contact")

    @property
    def hi(self) -> int:
        return self.contacts[-1]

    def fitted_masses(self) -> list[float]:
        """Fitted mass at every index ``0 .. hi``."""
        runs = map(sub, self.contacts[1:], self.contacts)
        return list(chain.from_iterable(map(repeat, self.slopes, runs)))

    def cdf_value(self, n: int) -> float:
        """The least concave majorant of the CDF at the integer ``n``: 0 at
        and left of the anchor ``-1``, the total mass from ``hi`` on."""
        if n <= -1:
            return 0.0
        if n >= self.hi:
            return self.heights[-1]
        k = bisect_left(self.contacts, n, 1) - 1  # the segment ending at or past n
        return self.heights[k] + self.slopes[k] * (n - self.contacts[k])


def _upper_hull(xs: list, ys: list) -> tuple[list, list]:
    # monotone chain (Andrew, 1979) for the upper concave hull of the points
    # (xs[k], ys[k]), xs increasing; collinear middles are popped.  The top
    # two points are also held in locals, (ax, ay) under (bx, by)
    hx, hy = xs[:2], ys[:2]
    if len(hx) < 2:
        return hx, hy
    (ax, bx), (ay, by) = hx, hy
    for x, y in zip(islice(xs, 2, None), islice(ys, 2, None)):
        while (bx - ax) * (y - ay) - (by - ay) * (x - ax) >= 0.0:
            hx.pop()
            hy.pop()
            bx, by = ax, ay
            if len(hx) == 1:
                break
            ax, ay = hx[-2], hy[-2]
        ax, ay, bx, by = bx, by, x, y
        hx.append(x)
        hy.append(y)
    return hx, hy


def _masses_from_0(q: Pmf) -> list[float]:
    # q.f(n) for n = 0 .. q.hi, without a call per index
    return [0.0] * q.lo + list(q.masses)


def lcm(q: Pmf) -> LcmResult:
    """Least concave majorant of the CDF of a probability ``q``.

    The hull is taken over the knots ``(-1, 0), (0, F(0)), ...,
    (hi, 1)``; anchoring at ``-1`` is what makes the first fitted mass
    dominate ``f_q(0)`` rather than merely match the CDF at zero.
    """
    if q.lo < 0:
        raise NegativeSupport("majorant needs nonnegative support")
    if q.is_sub or abs(q.total - 1.0) > PROB_TOL:
        raise SubprobabilityInput("majorant needs a full probability")
    # The knots from lo - 1 on, the anchor in lo - 1's place.  The ones from
    # 0 to lo - 1 lie on the zero line: the chain pops each with the next
    # (a turn of 0, or of lo * F(lo) >= 0), and then pushes (lo, F(lo)) on
    # the anchor alone, as it does here
    xs = list(range(q.lo - 1, q.hi + 1))
    xs[0] = -1
    hx, hy = _upper_hull(xs, list(accumulate(q.masses, initial=0.0)))
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


def _numeraire_evalue(q: Pmf, fitted: list[float]) -> EvalFn:
    # fitted = lcm(q).fitted_masses()
    masses = _masses_from_0(q)
    try:
        values = tuple(m / fit if m > 0.0 else 0.0 for m, fit in zip(masses, fitted))
    except ZeroDivisionError:
        # a mass below the rounding of the CDF next to it is fitted as 0
        k = next(k for k, m in enumerate(masses) if m > 0.0 and fitted[k] == 0.0)
        raise ZeroFittedMass(f"mass {masses[k]!r} at index {k} has fitted mass 0: "
                             "it is below the rounding of the CDF") from None
    return EvalFn(0, values, 0.0, 0.0)


def _ripr(q: Pmf, fitted: list[float]) -> Pmf:
    # fitted = lcm(q).fitted_masses()
    masses = [fit if m > 0.0 else 0.0 for m, fit in zip(_masses_from_0(q), fitted)]
    return make_pmf(0, masses, is_sub=True)


def numeraire_evalue(q: Pmf) -> EvalFn:
    """Pointwise ratio of ``q`` to its fitted non-increasing mass.

    Zero tails; indices where ``q`` vanishes get value zero.  This is
    the growth-optimal e-value against the monotone null.
    """
    return _numeraire_evalue(q, lcm(q).fitted_masses())


def ripr(q: Pmf) -> Pmf:
    """Fitted mass restricted to the support of ``q`` (a subprobability).

    This is the reverse information projection of ``q`` onto the
    monotone class: the fitted masses where ``q`` has mass, zero
    elsewhere.
    """
    return _ripr(q, lcm(q).fitted_masses())


def _numeraire_with_epower(q: Pmf, fitted: list[float]) -> tuple[EvalFn, float]:
    # fitted = lcm(q).fitted_masses(); the e-power is the best achievable growth
    e = _numeraire_evalue(q, fitted)
    return e, epower(e, q)


def max_epower(q: Pmf) -> float:
    """Best achievable expected log growth against the monotone null."""
    return _numeraire_with_epower(q, lcm(q).fitted_masses())[1]
