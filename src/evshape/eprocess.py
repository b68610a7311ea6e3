"""Sequential e-processes by predictable plug-in.

Each tracker multiplies, per observation, the two-point tilts whose
amplitude is computed from the empirical counts seen so far (so the
first observation always contributes a factor of exactly one).  Mixing
the per-location products with dyadic weights gives a test
supermartingale against the whole shape class.

All running products are kept in log space; mixture values are computed
with a log-sum-exp over the stored components plus the exact dyadic
weight of the untouched remainder.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import (
    InfiniteRange,
    InvalidSnapshot,
    MissingTracker,
    NegativeObservation,
)
from .numeraire import lcm
from .pmf import ModeInterval, Pmf

_LN2 = math.log(2.0)


def _lam_counts(c_lo: float, c_hi: float) -> float:
    # tilt amplitude from raw counts (scale cancels); 0/0 -> 0
    s = c_lo + c_hi
    if s <= 0:
        return 0.0
    lam = (c_hi - c_lo) / (2.0 * s)
    if lam < 0.0:
        return 0.0
    return 0.5 if lam > 0.5 else lam


def _logsumexp(terms: list[float]) -> float:
    m = max(terms)
    if m == float("-inf"):
        return m
    return m + math.log(math.fsum(math.exp(t - m) for t in terms))


def _load_snapshot(snap: dict | str, log_keys: tuple[str, ...]):
    """Parse a tracker snapshot; returns it with ``n``, counts and log tables.

    Raises :class:`InvalidSnapshot` unless every count is nonnegative,
    ``n`` is their total and every log factor is finite.
    """
    if isinstance(snap, str):
        snap = json.loads(snap)
    n = int(snap["n"])
    counts = {int(k): int(v) for k, v in snap["counts"].items()}
    if any(v < 0 for v in counts.values()):
        raise InvalidSnapshot("snapshot has a negative count")
    total = sum(counts.values())
    if n != total:
        raise InvalidSnapshot(f"snapshot n={n} but its counts total {total}")
    tables = []
    for key in log_keys:
        table = {int(k): float(v) for k, v in snap[key].items()}
        if not all(math.isfinite(v) for v in table.values()):
            raise InvalidSnapshot(f"snapshot {key} has a non-finite value")
        tables.append(table)
    return snap, n, counts, tables


def _check_obs(x) -> int:
    x = int(x)
    if x < 0:
        raise NegativeObservation(f"observation {x} is negative")
    return x


class MonotoneTracker:
    """Running mixture e-process against the non-increasing null.

    State is the observation count, the empirical counts, and one log
    factor per touched tilt location ``m`` (weights ``2**-(m+1)``).
    """

    def __init__(self) -> None:
        self.n = 0
        self.counts: dict[int, int] = {}
        self.log_factors: dict[int, float] = {}

    def update(self, x: int) -> None:
        """Fold in one observation; amplitudes use counts before it."""
        x = _check_obs(x)
        c = self.counts
        for m in (x - 1, x):
            if m < 0:
                continue
            lam = _lam_counts(c.get(m, 0), c.get(m + 1, 0))
            factor = 1.0 + lam if x == m + 1 else 1.0 - lam
            self.log_factors[m] = self.log_factors.get(m, 0.0) + math.log(factor)
        c[x] = c.get(x, 0) + 1
        self.n += 1

    def component_value(self, m: int) -> float:
        """Log of the product at location ``m`` (zero if untouched)."""
        return self.log_factors.get(m, 0.0)

    def mixture_value(self) -> float:
        """Log of the dyadic mixture over all locations."""
        weight_used = math.fsum(2.0 ** (-m - 1) for m in self.log_factors)
        terms = [-(m + 1) * _LN2 + lf for m, lf in self.log_factors.items()]
        residual = 1.0 - weight_used
        if residual > 0.0:
            terms.append(math.log(residual))
        if not terms:
            return 0.0
        return _logsumexp(terms)

    def to_snapshot(self) -> dict:
        """JSON-ready state: ``n``, counts, and per-location log factors."""
        return {
            "n": self.n,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "log_factors": {str(m): v for m, v in sorted(self.log_factors.items())},
        }

    @classmethod
    def from_snapshot(cls, snap: dict | str) -> "MonotoneTracker":
        _, n, counts, (log_factors,) = _load_snapshot(snap, ("log_factors",))
        t = cls()
        t.n, t.counts, t.log_factors = n, counts, log_factors
        return t


class UnimodalTracker:
    """Running mixture e-process against peaks at a fixed ``theta``.

    The rising side evaluates tilts in the shifted variable
    ``x - theta``; the falling side uses the reflected variable
    ``theta - x``, whose empirical masses are the counts at
    ``theta - m`` and ``theta - m - 1``.  Side weights are
    ``2**-(m+2)`` so the two sides together carry total weight one.
    """

    def __init__(self, theta: int) -> None:
        self.theta = int(theta)
        self.n = 0
        self.counts: dict[int, int] = {}
        self.log_factors_plus: dict[int, float] = {}
        self.log_factors_minus: dict[int, float] = {}

    def update(self, x: int) -> None:
        x = int(x)
        c = self.counts
        th = self.theta
        s = x - th
        for m in (s - 1, s):
            if m < 0:
                continue
            lam = _lam_counts(c.get(th + m, 0), c.get(th + m + 1, 0))
            factor = 1.0 + lam if s == m + 1 else 1.0 - lam
            self.log_factors_plus[m] = self.log_factors_plus.get(m, 0.0) + math.log(factor)
        r = th - x
        for m in (r - 1, r):
            if m < 0:
                continue
            lam = _lam_counts(c.get(th - m, 0), c.get(th - m - 1, 0))
            factor = 1.0 + lam if r == m + 1 else 1.0 - lam
            self.log_factors_minus[m] = self.log_factors_minus.get(m, 0.0) + math.log(factor)
        c[x] = c.get(x, 0) + 1
        self.n += 1

    def unimodal_value(self) -> float:
        """Log of the two-sided dyadic mixture."""
        weight_used = math.fsum(2.0 ** (-m - 2) for m in self.log_factors_plus)
        weight_used += math.fsum(2.0 ** (-m - 2) for m in self.log_factors_minus)
        terms = [-(m + 2) * _LN2 + lf for m, lf in self.log_factors_plus.items()]
        terms += [-(m + 2) * _LN2 + lf for m, lf in self.log_factors_minus.items()]
        residual = 1.0 - weight_used
        if residual > 0.0:
            terms.append(math.log(residual))
        if not terms:
            return 0.0
        return _logsumexp(terms)

    def to_snapshot(self) -> dict:
        return {
            "theta": self.theta,
            "n": self.n,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "log_factors_plus": {
                str(m): v for m, v in sorted(self.log_factors_plus.items())
            },
            "log_factors_minus": {
                str(m): v for m, v in sorted(self.log_factors_minus.items())
            },
        }

    @classmethod
    def from_snapshot(cls, snap: dict | str) -> "UnimodalTracker":
        snap, n, counts, (plus, minus) = _load_snapshot(
            snap, ("log_factors_plus", "log_factors_minus")
        )
        t = cls(int(snap["theta"]))
        t.n, t.counts = n, counts
        t.log_factors_plus, t.log_factors_minus = plus, minus
        return t


def range_value(trackers, theta_set: ModeInterval) -> float:
    """Minimum mixture value over a finite interval of peak locations."""
    if theta_set.is_all:
        raise InfiniteRange("need a bounded interval of peak locations")
    if theta_set.is_empty:
        raise MissingTracker("empty interval has no trackers")
    best = None
    for theta in range(theta_set.lo, theta_set.hi + 1):
        t = trackers.get(theta)
        if t is None:
            raise MissingTracker(f"no tracker for peak {theta}")
        v = t.unimodal_value()
        best = v if best is None else min(best, v)
    return best


class UnimodalFamily:
    """Every per-peak tracker at once, keyed by data sites.

    A tilt at pair ``(theta + m, theta + m + 1)`` depends on ``theta``
    only through the site ``j = theta + m``, and likewise the falling
    side through ``i = theta - m``.  Maintaining one rise product per
    site ``j`` and one fall product per site ``i`` therefore reproduces
    every :class:`UnimodalTracker` exactly:

    * plus component ``m`` of peak ``theta``  == rise product at ``theta + m``
    * minus component ``m`` of peak ``theta`` == fall product at ``theta - m``

    so the mixture value for any ``theta`` can be assembled on demand
    with no per-peak state.  Updates cost O(1) per observation.
    """

    def __init__(self) -> None:
        self.n = 0
        self.counts: dict[int, int] = {}
        self.log_rise: dict[int, float] = {}
        self.log_fall: dict[int, float] = {}
        self.observations: list[int] = []

    def update(self, x: int) -> tuple:
        """Fold in one observation; returns the touched-site changes.

        The return value lists ``(side, site, old_log, new_log)`` tuples
        (``side`` is ``"rise"`` or ``"fall"``) so callers can maintain
        incremental summaries.
        """
        x = int(x)
        c = self.counts
        changes = []
        for site in (x - 1, x):
            lam = _lam_counts(c.get(site, 0), c.get(site + 1, 0))
            factor = 1.0 + lam if x == site + 1 else 1.0 - lam
            old = self.log_rise.get(site, 0.0)
            new = old + math.log(factor)
            self.log_rise[site] = new
            changes.append(("rise", site, old, new))
        for site in (x + 1, x):
            lam = _lam_counts(c.get(site, 0), c.get(site - 1, 0))
            factor = 1.0 + lam if x == site - 1 else 1.0 - lam
            old = self.log_fall.get(site, 0.0)
            new = old + math.log(factor)
            self.log_fall[site] = new
            changes.append(("fall", site, old, new))
        c[x] = c.get(x, 0) + 1
        self.n += 1
        self.observations.append(x)
        return tuple(changes)

    def data_range(self) -> tuple[int, int] | None:
        if not self.counts:
            return None
        return min(self.counts), max(self.counts)

    def values_range(self, lo: int, hi: int) -> np.ndarray:
        """Log mixture value for every peak in ``[lo, hi]``, vectorized."""
        thetas = np.arange(lo, hi + 1)
        rise_sites = np.array(sorted(self.log_rise), dtype=float)
        rise_logs = np.array([self.log_rise[int(j)] for j in rise_sites])
        fall_sites = np.array(sorted(self.log_fall), dtype=float)
        fall_logs = np.array([self.log_fall[int(i)] for i in fall_sites])

        def side(sites, logs, sign):
            # component index of each site for each theta; negative means absent
            if len(sites) == 0:
                z = np.zeros((len(thetas), 0))
                return z, np.zeros(len(thetas))
            m = sign * (sites[None, :] - thetas[:, None])
            valid = m >= 0
            m_safe = np.where(valid, m, 0.0)
            logw = np.where(valid, -(m_safe + 2.0) * _LN2 + logs[None, :], -np.inf)
            used = np.where(valid, np.exp2(-(m_safe + 2.0)), 0.0).sum(axis=1)
            return logw, used

        logw_p, used_p = side(rise_sites, rise_logs, +1)
        logw_m, used_m = side(fall_sites, fall_logs, -1)
        # strictly positive in exact arithmetic; clamp away float dust
        residual = np.maximum(1.0 - used_p - used_m, 0.0)
        with np.errstate(divide="ignore"):
            log_res = np.log(residual)
        terms = np.concatenate([logw_p, logw_m, log_res[:, None]], axis=1)
        peak = terms.max(axis=1)
        out = peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))
        return out

    def value(self, theta: int) -> float:
        """Log mixture value for one peak location."""
        return float(self.values_range(theta, theta)[0])

    def tracker_view(self, theta: int) -> UnimodalTracker:
        """Materialize the classic per-peak tracker for ``theta``."""
        t = UnimodalTracker(theta)
        t.n = self.n
        t.counts = dict(self.counts)
        t.log_factors_plus = {
            j - theta: lf for j, lf in self.log_rise.items() if j >= theta
        }
        t.log_factors_minus = {
            theta - i: lf for i, lf in self.log_fall.items() if i <= theta
        }
        return t

    def to_snapshot(self) -> dict:
        return {
            "n": self.n,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "log_rise": {str(k): v for k, v in sorted(self.log_rise.items())},
            "log_fall": {str(k): v for k, v in sorted(self.log_fall.items())},
            "observations": list(self.observations),
        }


def numeraire_eprocess(q: Pmf, obs) -> float:
    """Log of the n-fold product of the optimal e-value along ``obs``.

    Uses the true alternative ``q``; an observation outside the support
    of ``q`` sends the product to zero (log ``-inf``).
    """
    res = lcm(q)
    fitted = res.fitted_masses()
    total = 0.0
    for x in obs:
        x = _check_obs(x)
        fx = q.f(x)
        if fx <= 0.0:
            return float("-inf")
        total += math.log(fx / fitted[x])
    return total
