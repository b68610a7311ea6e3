"""Least concave majorant, information projection, and optimal e-values.

For a probability ``q`` on the nonnegative integers, the least concave
majorant of its CDF (anchored at the point ``(-1, 0)`` so that the mass
at zero is majorized too) yields the closest non-increasing
distribution in the information sense.  The ratio of ``q`` to that
projection is the log-optimal e-value against the monotone null.

The majorant is the upper hull of the CDF's knots, as the monotone chain
finds it.  On long tables numpy passes first drop knots that a rounding
bound certifies to lie strictly below a chord; the chain runs on the rest
and still decides every near-tie, and a replay of the passes with the
chain's own float test confirms that its hull is the one on every knot.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, repeat
from operator import sub

import numpy as np

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


# The prune runs while more than _PRUNE_MIN points are left, and stops at
# a pass that would drop fewer than 1/_PRUNE_YIELD of them; where the first
# pass would, the chain runs on every point, with no replay
_PRUNE_MIN = 2048
_PRUNE_YIELD = 8
_REPLAY_BLOCK = 8192  # drops replayed at a time
_EPS = 2.0**-53  # unit roundoff of a float


def _upper_hull(xs, ys) -> tuple[list, list]:
    """Upper concave hull of the points ``(xs[k], ys[k])``, ``xs`` increasing.

    Returns what the monotone chain (Andrew, 1979) returns on every point,
    bit for bit, as Python ints or floats like the arrays' own entries.
    ``xs`` holds floats, or ints below ``2**52`` in magnitude (tested as
    floats, which is exact there, as Python's int-times-float product is).

    The chain pops its top point ``b`` for the next point ``c``, with ``a``
    under ``b``, when the float ``t1 - t2`` is at least 0, for the float
    products ``t1 = (bx - ax)*(cy - ay)`` and ``t2 = (by - ay)*(cx - ax)``.
    That float differs from the exact orientation by less than
    ``5*2**-53*(|t1| + |t2|) + 2**-1073``; the last term covers products
    that underflow to subnormals.  Past ``_PRUNE_MIN`` points a numpy
    prune runs first, unless its first pass would drop under
    ``1/_PRUNE_YIELD`` of them (a non-increasing table, whose knots are
    all vertices, or a long zero plateau, which is exactly collinear).
    Each pass evaluates ``t1 - t2`` at every point left, against its two
    neighbours, and may drop the point where the value exceeds
    ``8*2**-53*(|t1| + |t2|) + 2**-1070``, a bound that also covers its
    own rounding.  Such a point lies strictly below the chord
    of two input points, so it is no vertex of the exact hull; a
    non-finite value drops nothing, and no pass drops two neighbours.
    Near-ties are left to the chain, on the points the prune leaves.

    That the chain on them returns its result on every point is checked by
    replay, with the chain's own float test.  The chain on the points left
    records, for each, the point under it when it was pushed and the point
    that popped it.  The passes are then replayed from the last one back.
    A point ``p`` dropped between ``a`` and ``c`` meets the stack the run
    without it had when ``c`` came, ``a`` on top.  Every point ``p`` pops
    there must be one ``c`` popped, and ``c`` must pop ``p``: then ``c``
    goes on from where ``p`` stopped as it did without ``p``, both runs
    hold the same stack after ``c``, and the records extend to ``p`` and to
    the points it popped.  Where a check fails, the chain runs on every
    point instead.
    """
    x, y = np.asarray(xs), np.asarray(ys, dtype=float)
    hull = _pruned_hull(x, y) if len(x) > _PRUNE_MIN else None
    if hull is None:
        xs, ys = x.tolist(), y.tolist()
        hull = _monotone_chain(xs, ys)[0]
        return list(map(xs.__getitem__, hull)), list(map(ys.__getitem__, hull))
    return x[hull].tolist(), y[hull].tolist()


def _pruned_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    # the chain's hull as indices, from the prune's survivors; None where the
    # prune drops too little to pay for the replay, or a replay check fails
    # (see _upper_hull)
    xf = x.astype(float, copy=False)
    with np.errstate(all="ignore"):  # inf - inf and 0 * inf give nan, as floats do
        keep, passes = _prune(xf, y)
        if not passes:
            return None
        hull, under, popped_by = _monotone_chain(x[keep].tolist(), y[keep].tolist())
        under, popped_by = _spread(keep, under, len(x)), _spread(keep, popped_by, len(x))
        for level in reversed(passes):
            # the drops of a pass are independent: blocks of them keep the
            # arrays small (level-sized ones fragmented the heap and raised
            # the benchmark's peak RSS by 5 %)
            for p, a, c in (level[:, k:k + _REPLAY_BLOCK]
                            for k in range(0, level.shape[1], _REPLAY_BLOCK)):
                if not _replay(xf, y, p, a, c, under, popped_by):
                    return None
    return keep[hull]


def _replay(xf, y, p, a, c, under, popped_by) -> bool:
    # checks the drops p between a and c against the run without them, and
    # extends the records under and popped_by to them (see _upper_hull)
    stop = a.copy()  # where each p stops popping
    # nothing is under the first point: p is pushed on it untested
    live = np.flatnonzero(under[a] >= 0)
    top = a[live]
    while len(live):
        below, q = under[top], p[live]
        hit = np.flatnonzero(_pops(xf, y, below, top, q))
        live, top, below, q = live[hit], top[hit], below[hit], q[hit]
        if not np.array_equal(popped_by[top], c[live]):
            return False
        popped_by[top] = q
        stop[live] = below
        more = under[below] >= 0
        live, top = live[more], below[more]
    # a p that stopped at a needs no check: the prune's value, above a bound
    # above 0, was the chain's test of (a, p, c)
    moved = np.flatnonzero(stop != a)
    if not _pops(xf, y, stop[moved], p[moved], c[moved]).all():
        return False
    under[p] = stop
    popped_by[p] = c
    return True


def _spread(keep: np.ndarray, record: list[int], n: int) -> np.ndarray:
    # a chain record over the survivors' positions, as one over all n indices
    record = np.array(record, dtype=np.int32)
    out = np.full(n, -1, dtype=np.int32)
    out[keep] = np.where(record >= 0, keep[record], -1)
    return out


def _prune(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, list]:
    # the indices left, and per pass the indices (p, a, c) of each dropped
    # point and of its two neighbours then.  Arrays that outlive a pass are
    # allocated once, here: fresh ones from every pass fragmented the heap
    # and raised the benchmark's peak RSS by up to 6 %
    n = len(x)
    keep = np.arange(n, dtype=np.int32)
    x, y = x.copy(), y.copy()  # the points left, compacted in place
    dropped = np.empty((3, n), dtype=np.int32)  # (p, a, c) rows, pass after pass
    passes, used, parity = [], 0, 0
    while n > _PRUNE_MIN:
        ax, bx, cx = x[:n - 2], x[1:n - 1], x[2:n]
        ay, by, cy = y[:n - 2], y[1:n - 1], y[2:n]
        t1 = bx - ax
        t1 *= cy - ay
        t2 = by - ay
        t2 *= cx - ax
        bound = np.abs(t1)
        bound += np.abs(t2)
        bound *= 8 * _EPS
        bound += 2.0**-1070
        t1 -= t2
        sure = t1 > bound
        del t1, t2, bound
        # every other point of a run of sure ones (alternating sides between
        # passes), and every one whose neighbours stay
        drop = sure.copy()
        drop[parity::2] = False
        parity ^= 1
        lone = sure.copy()
        lone[1:] &= ~sure[:-1]
        lone[:-1] &= ~sure[1:]
        drop |= lone
        at = np.flatnonzero(drop) + 1
        if len(at) * _PRUNE_YIELD < n:
            break
        rows = dropped[:, used:used + len(at)]
        for row, shift in zip(rows, (0, -1, 1)):
            keep.take(at + shift, out=row)
        passes.append(rows)
        used += len(at)
        left = np.ones(n, dtype=bool)
        left[at] = False
        left = np.flatnonzero(left)
        n = len(left)
        for arr in (keep, x, y):
            arr[:n] = arr.take(left)
    return keep[:n], passes


def _pops(x: np.ndarray, y: np.ndarray, a, b, c) -> np.ndarray:
    # the chain's test at index arrays: c pops b with a under it
    ax, ay, bx, by, cx, cy = x[a], y[a], x[b], y[b], x[c], y[c]
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) >= 0.0


def _monotone_chain(xs: list, ys: list) -> tuple[list[int], list[int], list[int]]:
    # monotone chain for the upper concave hull; collinear middles are popped.
    # Returns the hull's positions and, per position, the one under it when
    # it was pushed and the one that popped it (-1 for none), which the
    # replay reads.  The top two points are also held in locals, (ax, ay)
    # under (bx, by)
    n = len(xs)
    under, popped_by = [-1] * n, [-1] * n
    hull = list(range(min(n, 2)))
    if n < 2:
        return hull, under, popped_by
    under[1] = 0
    (ax, bx), (ay, by) = xs[:2], ys[:2]
    for k in range(2, n):
        x, y = xs[k], ys[k]
        while (bx - ax) * (y - ay) - (by - ay) * (x - ax) >= 0.0:
            popped_by[hull.pop()] = k
            bx, by = ax, ay
            if len(hull) == 1:
                break
            ax, ay = xs[hull[-2]], ys[hull[-2]]
        under[k] = hull[-1]
        ax, ay, bx, by = bx, by, x, y
        hull.append(k)
    return hull, under, popped_by


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
    xs = np.arange(q.lo - 1, q.hi + 1)
    xs[0] = -1
    cdf = np.empty(len(xs))
    cdf[0] = 0.0
    cdf[1:] = q.masses
    # cumsum is sequential: the floats accumulate(..., initial=0.0) gives
    hx, hy = _upper_hull(xs, np.cumsum(cdf, out=cdf))
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
