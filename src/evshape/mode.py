"""Mode confidence intervals, confidence sequences, and mode tests.

The one-observation interval needs nothing but a single draw and an
anchor integer ``phi``: the uniform-block e-value at distance ``|x -
phi|`` exceeds ``1/alpha`` only outside an explicit open interval.  The
sequential tools build on :class:`~evshape.eprocess.UnimodalFamily`,
whose per-peak mixture values are exact for every integer peak, and use
an analytic scan bound to certify everything outside a finite window.

The anchor-free test scans its peak window only at steps where the value
at one tracked peak reaches ``0.99 * 3/alpha``.  Tilt amplitudes are at
most 1/2, so one observation multiplies any peak's value by a factor
between 1/2 and 3/2: a log value ``g`` below that cut stays below it for
the next ``g / log 1.5`` observations, less a rounding margin
(``eprocess._drift_margin``), and the test skips those evaluations.
The harness engines read the same bound both ways: a log value ``g``
above a level stays above it for ``g / log 2`` observations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import AlreadyRejected, BadAlpha, InvalidSnapshot, ZeroPhi
from .eprocess import (_LN_RISE, UnimodalFamily, _drift_margin, _peak_value,
                       _snapshot_fields)
from .pmf import ModeInterval, _json_bool, _json_int, _json_number

_LOG2_3HALF = math.log2(1.5)


@dataclass(frozen=True)
class IntSet:
    """A finite set of integers, or the complement of one."""

    members: frozenset[int]
    complement: bool = False

    @classmethod
    def finite(cls, members) -> "IntSet":
        return cls(frozenset(int(m) for m in members), False)

    @classmethod
    def cofinite(cls, excluded) -> "IntSet":
        return cls(frozenset(int(m) for m in excluded), True)

    def contains(self, n: int) -> bool:
        return (n in self.members) != self.complement

    def invert(self) -> "IntSet":
        return IntSet(self.members, not self.complement)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise BadAlpha(f"alpha {alpha} must lie in (0, 1)")


def one_obs_ci(x: int, alpha: float, phi: int) -> ModeInterval:
    """Mode interval from a single draw, anchored at ``phi``.

    Returns the integers in the open interval ``(x - T d, x + T d)``
    with ``T = 2/alpha + 1`` and ``d = |x - phi|``; all integers when
    ``x == phi``.  Endpoint handling is exact (integer arithmetic), so
    when ``T d`` is an integer the endpoints are correctly excluded.
    """
    _check_alpha(alpha)
    x, phi = int(x), int(phi)
    if x == phi:
        return ModeInterval.all_integers()
    a, b = alpha.as_integer_ratio()  # T = 2/alpha + 1 = (2b + a)/a
    r = -(-(2 * b + a) * abs(x - phi) // a)  # ceil(T d)
    return ModeInterval.bounded(x - r + 1, x + r - 1)


def one_obs_ci_finite(x: int, alpha: float, phi: int) -> ModeInterval:
    """Always-bounded variant: intersect level-``alpha/2`` intervals
    anchored at ``phi`` and ``-phi`` (so ``phi`` must be nonzero)."""
    _check_alpha(alpha)
    if int(phi) == 0:
        raise ZeroPhi("the finite interval needs a nonzero anchor")
    a = one_obs_ci(x, alpha / 2.0, phi)
    b = one_obs_ci(x, alpha / 2.0, -phi)
    return a.intersect(b)


# ------------------------------------------------------ sequential scan


def scan_halfwidth(n: int, tau: float) -> int | None:
    """Sound scan margin around the data for threshold ``tau``.

    A peak at distance ``d`` past the observed range has mixture value
    at most ``1 + 2**-(d-1) * 1.5**n``, so if that bound stays at or
    below ``tau`` nothing outside the window can be rejected.  Returns
    ``None`` when no peak anywhere can be rejected (``tau`` too high),
    and 0 or more otherwise.  Requires ``tau > 1``; callers special-case
    thresholds at or below one.
    """
    if tau <= 1.0:
        raise ValueError("scan bound needs tau > 1")
    # nothing rejectable iff tau >= 1 + 2 * 1.5**n; compare in log2 space
    if math.log2(tau - 1.0) >= n * _LOG2_3HALF + 1.0:
        return None
    w = math.ceil(n * _LOG2_3HALF + math.log2(1.0 / (tau - 1.0)) + 2.0)
    return max(w, 0)


@dataclass(frozen=True)
class ConfidenceSetResult:
    """Rejected peaks plus the window certifying everything else.

    ``rejected`` is finite and contained in ``window``; every peak
    outside the window satisfies the mixture bound analytically, which
    is the certificate that the weak confidence set is exact.
    """

    rejected: IntSet
    window: tuple[int, int] | None

    @property
    def weak_set(self) -> IntSet:
        """The weak mode confidence set: every peak not rejected."""
        return self.rejected.invert()


def estimate_level(n: int) -> float:
    """Log threshold ``log(n**2)`` of :func:`mode_estimate` at ``n``;
    infinite at ``n <= 1``, where every factor is one."""
    tau = float(n) * float(n)
    return math.log(tau) if tau > 1.0 else math.inf


def _scan(family: UnimodalFamily, tau: float):
    """Scanned window and the peaks in it whose mixture value exceeds
    ``tau``: the data range widened by :func:`scan_halfwidth`, ``None`` with
    no peaks when nothing can be rejected (``tau <= 1`` included)."""
    rng = family.data_range()
    margin = None if tau <= 1.0 else scan_halfwidth(family.n, tau)
    if rng is None or margin is None:
        return None, []
    lo, hi = rng[0] - margin, rng[1] + margin
    log_tau = math.log(tau)
    vals = family.values_range(lo, hi)
    return (lo, hi), [lo + k for k, v in enumerate(vals) if v > log_tau]


def confidence_set(family: UnimodalFamily, alpha: float) -> ConfidenceSetResult:
    """Peaks whose mixture value exceeds ``1/alpha``, with certificate."""
    _check_alpha(alpha)
    window, rejected = _scan(family, 1.0 / alpha)
    return ConfidenceSetResult(IntSet.finite(rejected), window)


def mode_estimate(family: UnimodalFamily) -> IntSet:
    """Set-valued mode estimate: peaks with mixture value at most ``n**2``.

    The result is cofinite (every peak far from the data is accepted).
    """
    _, rejected = _scan(family, float(family.n) * float(family.n))
    return IntSet.cofinite(rejected)


def strong_hull(weak: IntSet) -> ModeInterval:
    """Convex hull of a weak confidence set, as a mode interval."""
    if weak.complement:
        return ModeInterval.all_integers()
    if not weak.members:
        return ModeInterval.empty()
    return ModeInterval.bounded(min(weak.members), max(weak.members))


# ------------------------------------------------- anchor-free mode test


@functools.lru_cache(maxsize=1024)
def first_window(x: int, alpha: float, phi: int) -> tuple[tuple[int, int], int]:
    """The free test's peak window from its first observation ``x`` (two
    level-``alpha/3`` intervals anchored at ``phi`` and ``-phi``), and the
    peak it tracks first, ``x`` moved into the window."""
    # the finite variant halves its level, so this uses alpha/3 per side
    ci = one_obs_ci_finite(x, 2.0 * alpha / 3.0, phi)
    return (ci.lo, ci.hi), min(max(x, ci.lo), ci.hi)


def free_levels(alpha: float) -> tuple[float, float]:
    """Log levels of the free test at ``alpha``: it rejects when every peak
    of its window reaches ``log(3/alpha)``, and scans the window only at
    steps where its tracked peak reaches ``log(0.99 * 3/alpha)``."""
    return math.log(3.0 / alpha), math.log(0.99 * (3.0 / alpha))


class UnrestrictedTest:
    """Two-step sequential test of unimodality with unknown peak.

    The first observation buys a bounded peak interval
    (:func:`first_window`); afterwards a fresh mixture family runs on
    the remaining stream and the test rejects as soon as every peak in
    the interval has mixture value at least ``3/alpha``.

    A step can reject only if the value at the tracked peak reaches
    ``0.99 * 3/alpha`` (:func:`free_levels`); a scan that does not reject
    tracks the window's weakest peak.  As tilts ``lam <= 1/2`` move a value
    by a factor between 1/2 and 3/2 per observation, a log value ``g`` below
    that cut skips the next ``g / log 1.5`` evaluations, less the rounding
    margin of ``eprocess._drift_margin``: the rounding of the tables' sums
    and of the log-sum-exp, and of the leftover weight as sites are first
    touched.  The skip count is not part of the snapshot: a restored test
    evaluates at its next observation.
    """

    _SNAPSHOT_KEYS = ("alpha", "phi", "first", "theta0", "rejected", "family")

    def __init__(self, alpha: float, phi: int) -> None:
        _check_alpha(alpha)
        if int(phi) == 0:
            raise ZeroPhi("the anchor must be nonzero")
        self.alpha = float(alpha)
        self.phi = int(phi)
        self.first: int | None = None
        self.family: UnimodalFamily | None = None
        self.rejected = False
        self._log_threshold, self._log_cut = free_levels(alpha)
        self._theta0: int | None = None
        self._skip = 0  # coming observations that cannot reach the cut

    @property
    def n(self) -> int:
        """Observations seen: the first one and the family's."""
        return 0 if self.family is None else self.family.n + 1

    @property
    def theta_window(self) -> tuple[int, int] | None:
        """The peak window of the first observation (:func:`first_window`)."""
        if self.first is None:
            return None
        return first_window(self.first, self.alpha, self.phi)[0]

    @property
    def rejected_at(self) -> int | None:
        """The observation at which the test rejected, if it has."""
        return self.n if self.rejected else None

    def to_snapshot(self) -> dict:
        """JSON-ready state: level, anchor, first observation, tracked peak,
        whether the test has rejected, and the family snapshot (``None``
        before the first step)."""
        return {
            "alpha": self.alpha,
            "phi": self.phi,
            "first": self.first,
            "theta0": self._theta0,
            "rejected": self.rejected,
            "family": None if self.family is None else self.family.to_snapshot(),
        }

    @classmethod
    def from_snapshot(cls, snap: dict | str) -> "UnrestrictedTest":
        """Restore a test; the family goes through its own validation.

        ``n``, the window and the stop step are recomputed from the first
        observation, the family and ``rejected``.  Raises
        :class:`InvalidSnapshot` unless every key that :meth:`to_snapshot`
        writes is present, a test without a first observation holds no
        family, tracked peak or rejection, and the tracked peak lies in the
        first observation's window.  Its integers must be JSON integers,
        ``alpha`` a JSON number and ``rejected`` a JSON boolean, or the
        ``pmf`` readers raise their typed errors.
        """
        snap = _snapshot_fields(snap, cls._SNAPSHOT_KEYS)
        test = cls(_json_number(snap["alpha"], "snapshot alpha"),
                   _json_int(snap["phi"], "snapshot phi"))
        rejected = _json_bool(snap["rejected"], "snapshot rejected")
        if snap["first"] is None:
            if snap["family"] is not None or snap["theta0"] is not None or rejected:
                raise InvalidSnapshot("a test awaiting data cannot hold any")
            return test
        first = _json_int(snap["first"], "snapshot first")
        family = UnimodalFamily.from_snapshot(snap["family"])
        (lo, hi), _ = first_window(first, test.alpha, test.phi)
        theta0 = _json_int(snap["theta0"], "snapshot theta0")
        if not lo <= theta0 <= hi:
            raise InvalidSnapshot(f"tracked peak {theta0} outside ({lo}, {hi})")
        test.first, test.family, test.rejected = first, family, rejected
        test._theta0 = theta0
        return test

    def step(self, x: int) -> str:
        """Feed one observation; returns ``"continue"`` or ``"reject"``."""
        if self.rejected:
            raise AlreadyRejected(f"test stopped at observation {self.rejected_at}")
        x = int(x)
        if self.family is None:
            self.first = x
            _, self._theta0 = first_window(x, self.alpha, self.phi)
            self.family = UnimodalFamily()
            return "continue"
        fam = self.family
        fam.update(x)
        if self._skip:
            self._skip -= 1
            return "continue"
        th = self._theta0
        rise = {j: lf for j, lf in fam.log_rise.items() if j >= th}
        fall = {i: lf for i, lf in fam.log_fall.items() if i <= th}
        value = _peak_value(rise, fall, th)
        gap = self._log_cut - value
        if gap > 0.0:
            # skip the j < (gap - fixed) / (log 1.5 + per_step) steps with
            # value + j log 1.5 + margin(j) < cut; the skip is shorter than
            # gap / log 1.5, so its tables hold at most that many more
            fixed, per_step = _drift_margin(value, fam.n + gap / _LN_RISE,
                                            len(rise) + len(fall) + 1)
            self._skip = max(math.ceil((gap - fixed) / (_LN_RISE + per_step)) - 1, 0)
            return "continue"
        lo, hi = self.theta_window
        vals = fam.values_range(lo, hi)
        k = int(vals.argmin())
        if float(vals[k]) >= self._log_threshold:
            self.rejected = True
            return "reject"
        self._theta0 = lo + k
        return "continue"
