"""Mode confidence intervals, confidence sequences, and mode tests.

The one-observation interval needs nothing but a single draw and an
anchor integer ``phi``: the uniform-block e-value at distance ``|x -
phi|`` exceeds ``1/alpha`` only outside an explicit open interval.  The
sequential tools build on :class:`~evshape.eprocess.UnimodalFamily`,
whose per-peak mixture values are exact for every integer peak, and use
an analytic scan bound to certify everything outside a finite window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import AlreadyRejected, BadAlpha, InvalidSnapshot, ZeroPhi
from .eprocess import UnimodalFamily, _snapshot_fields
from .pmf import ModeInterval

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

    @property
    def is_finite(self) -> bool:
        return not self.complement

    def intersect_range(self, lo: int, hi: int) -> tuple[int, ...]:
        """Sorted members of the set inside ``[lo, hi]``."""
        return tuple(n for n in range(lo, hi + 1) if self.contains(n))

    def invert(self) -> "IntSet":
        return IntSet(self.members, not self.complement)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise BadAlpha(f"alpha {alpha} must lie in (0, 1)")


def one_obs_ci(x: int, alpha: float, phi: int) -> ModeInterval:
    """Mode interval from a single draw, anchored at ``phi``.

    Returns the integers in the open interval ``(x - T d, x + T d)``
    with ``T = 2/alpha + 1`` and ``d = |x - phi|``; all integers when
    ``x == phi``.  Endpoint handling is exact (rational arithmetic), so
    when ``T d`` is an integer the endpoints are correctly excluded.
    """
    _check_alpha(alpha)
    x, phi = int(x), int(phi)
    if x == phi:
        return ModeInterval.all_integers()
    d = abs(x - phi)
    radius = (Fraction(2) / Fraction(alpha) + 1) * d
    lo = math.floor(x - radius) + 1
    hi = math.ceil(x + radius) - 1
    return ModeInterval.bounded(lo, hi)


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
    threshold: float
    n: int

    @property
    def weak_set(self) -> IntSet:
        return self.rejected.invert()


def estimate_scan(n: int) -> tuple[int | None, float]:
    """Margin around the data and log threshold ``log(n**2)`` of
    :func:`mode_estimate` at ``n``; the margin is ``None`` when nothing can
    be rejected, as at ``n <= 1``, where every factor is one."""
    tau = float(n) * float(n)
    if tau <= 1.0:
        return None, math.inf
    return scan_halfwidth(n, tau), math.log(tau)


def _scan(family: UnimodalFamily, margin: int | None, log_tau: float,
          clip: tuple[int, int] | None = None):
    """Scanned window and the peaks in it whose log mixture value exceeds
    ``log_tau``: the data range widened by ``margin`` and cut to ``clip``,
    ``None`` with no peaks when the margin is ``None`` or it is empty."""
    rng = family.data_range()
    if rng is None or margin is None:
        return None, []
    lo, hi = rng[0] - margin, rng[1] + margin
    if clip is not None:
        lo, hi = max(lo, clip[0]), min(hi, clip[1])
        if lo > hi:
            return None, []
    vals = family.values_range(lo, hi)
    return (lo, hi), [lo + k for k, v in enumerate(vals) if v > log_tau]


def confidence_set(family: UnimodalFamily, alpha: float) -> ConfidenceSetResult:
    """Peaks whose mixture value exceeds ``1/alpha``, with certificate."""
    _check_alpha(alpha)
    tau = 1.0 / alpha
    window, rejected = _scan(family, scan_halfwidth(family.n, tau), math.log(tau))
    return ConfidenceSetResult(IntSet.finite(rejected), window, tau, family.n)


def mode_estimate(
    family: UnimodalFamily, clip: tuple[int, int] | None = None
) -> IntSet:
    """Set-valued mode estimate: peaks with mixture value at most ``n**2``.

    The result is cofinite (every peak far from the data is accepted).
    With ``clip = (lo, hi)`` only peaks inside the clip window are
    examined, which is exact for queries restricted to that window.
    """
    _, rejected = _scan(family, *estimate_scan(family.n), clip)
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


class UnrestrictedTest:
    """Two-step sequential test of unimodality with unknown peak.

    The first observation buys a bounded peak interval
    (:func:`first_window`); afterwards a fresh mixture family runs on
    the remaining stream and the test rejects as soon as every peak in
    the interval has mixture value at least ``3/alpha``.
    """

    _SNAPSHOT_KEYS = ("alpha", "phi", "phase", "n", "first", "theta_window",
                      "theta0", "rejected_at", "family")

    def __init__(self, alpha: float, phi: int) -> None:
        _check_alpha(alpha)
        if int(phi) == 0:
            raise ZeroPhi("the anchor must be nonzero")
        self.alpha = float(alpha)
        self.phi = int(phi)
        self.phase = "awaiting_first"
        self.n = 0
        self.first: int | None = None
        self.theta_window: tuple[int, int] | None = None
        self.family: UnimodalFamily | None = None
        self.rejected_at: int | None = None
        self._log_threshold = math.log(3.0 / alpha)
        self._theta0: int | None = None
        self._j0 = 1.0  # linear-space mixture value at _theta0
        self._j0_exp: dict[tuple[str, int], float] = {}

    def _fold(self, side: str, site: int, lf: float) -> None:
        # move _j0 to the new log product ``lf`` of one site, if _theta0 keeps it
        th = self._theta0
        if (site < th) if side == "rise" else (site > th):
            return
        g = math.exp(min(lf, 700.0))  # cap: stay finite, never NaN
        g_old = self._j0_exp.get((side, site), 1.0)
        self._j0 += 2.0 ** (-abs(site - th) - 2) * (g - g_old)
        self._j0_exp[(side, site)] = g

    def _rebase_theta0(self, theta: int) -> None:
        # rebuild the incremental mixture value around a new cheap peak
        self._theta0 = theta
        self._j0 = 1.0
        self._j0_exp = {}
        fam = self.family_required()
        for side, table in (("rise", fam.log_rise), ("fall", fam.log_fall)):
            for site, lf in table.items():
                self._fold(side, site, lf)

    def family_required(self) -> UnimodalFamily:
        if self.family is None:
            raise AssertionError("family not initialized")
        return self.family

    def to_snapshot(self) -> dict:
        """JSON-ready state: level, anchor, phase, first observation, window,
        tracked peak and family snapshot (``None`` before the first step)."""
        return {
            "alpha": self.alpha,
            "phi": self.phi,
            "phase": self.phase,
            "n": self.n,
            "first": self.first,
            "theta_window": None if self.theta_window is None
            else list(self.theta_window),
            "theta0": self._theta0,
            "rejected_at": self.rejected_at,
            "family": None if self.family is None else self.family.to_snapshot(),
        }

    @classmethod
    def from_snapshot(cls, snap: dict | str) -> "UnrestrictedTest":
        """Restore a test; the family goes through its own validation.

        Raises :class:`InvalidSnapshot` unless every key that
        :meth:`to_snapshot` writes is present, the phase is known, ``n``
        counts the first observation plus the family's, the window is the
        first observation's, the tracked peak lies in it, and
        ``rejected_at`` is ``n`` exactly when the test has rejected.
        """
        snap = _snapshot_fields(snap, cls._SNAPSHOT_KEYS)
        test = cls(float(snap["alpha"]), int(snap["phi"]))
        phase, n = snap["phase"], int(snap["n"])
        if phase == "awaiting_first":
            if n != 0 or snap["first"] is not None or snap["family"] is not None:
                raise InvalidSnapshot("a test awaiting data cannot hold any")
            return test
        if phase not in ("running", "rejected"):
            raise InvalidSnapshot(f"unknown phase {phase!r}")
        family = UnimodalFamily.from_snapshot(snap["family"])
        if n != family.n + 1:
            raise InvalidSnapshot(f"snapshot n={n} but its family holds {family.n}")
        first = int(snap["first"])
        (lo, hi), _ = first_window(first, test.alpha, test.phi)
        if [int(v) for v in snap["theta_window"]] != [lo, hi]:
            raise InvalidSnapshot(f"window {snap['theta_window']} is not "
                                  f"({lo}, {hi}), the one {first} gives")
        theta0 = int(snap["theta0"])
        if not lo <= theta0 <= hi:
            raise InvalidSnapshot(f"tracked peak {theta0} outside ({lo}, {hi})")
        rejected_at = snap["rejected_at"]
        if rejected_at != (n if phase == "rejected" else None):
            raise InvalidSnapshot(f"rejected_at={rejected_at!r} in phase {phase!r}")
        test.phase, test.n, test.rejected_at = phase, n, rejected_at
        test.first, test.theta_window, test.family = first, (lo, hi), family
        test._rebase_theta0(theta0)
        return test

    def step(self, x: int) -> str:
        """Feed one observation; returns ``"continue"`` or ``"reject"``."""
        if self.phase == "rejected":
            raise AlreadyRejected(f"test stopped at observation {self.rejected_at}")
        x = int(x)
        if self.phase == "awaiting_first":
            self.first = x
            self.theta_window, self._theta0 = first_window(x, self.alpha, self.phi)
            self.family = UnimodalFamily()
            self.n = 1
            self.phase = "running"
            return "continue"
        fam = self.family_required()
        fam.update(x)
        self.n += 1
        # cheap necessary condition: the tracked peak alone stays below
        # the threshold most of the time under the null
        rise, fall = fam.log_rise, fam.log_fall
        self._fold("rise", x - 1, rise[x - 1])
        self._fold("rise", x, rise[x])
        self._fold("fall", x + 1, fall[x + 1])
        self._fold("fall", x, fall[x])
        if self._j0 < 0.99 * (3.0 / self.alpha):
            return "continue"
        lo, hi = self.theta_window
        vals = fam.values_range(lo, hi)
        k = int(vals.argmin())
        if float(vals[k]) >= self._log_threshold:
            self.phase = "rejected"
            self.rejected_at = self.n
            return "reject"
        self._rebase_theta0(lo + k)
        return "continue"
