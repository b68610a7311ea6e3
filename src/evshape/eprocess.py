"""Sequential e-processes by predictable plug-in.

Each observation multiplies two-point tilts at adjacent pairs: rises at
sites ``j`` (pair ``(j, j + 1)``) and falls at sites ``i`` (pair
``(i, i - 1)``), with amplitude computed from the counts seen so far (so
the first observation contributes a factor of exactly one).  One kernel,
:func:`_tilt`, updates either side; the trackers differ only in the
sites they keep: rises at ``j >= 0`` against the monotone null, rises at
``j >= theta`` and falls at ``i <= theta`` for peak ``theta``, and every
site in the family that serves all peaks at once.  Mixing the per-site
products with dyadic weights gives a test supermartingale against the
whole shape class.

All running products are kept in log space; mixture values are computed
with a log-sum-exp over the stored components plus the exact dyadic
weight of the untouched remainder.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidSnapshot, NegativeObservation
from .evalues import wavelet_lambda
from .numeraire import lcm
from .pmf import Pmf

_LN2 = math.log(2.0)


def _tilt(logs: dict, counts: dict, x: int, step: int, keep: int) -> None:
    """Fold observation ``x`` into the tilts of one side, before counting it.

    ``step`` is +1 for rises and -1 for falls.  The observation touches
    the pairs at sites ``x - step`` and ``x``; each amplitude comes from
    the counts at the site and at ``site + step``.  Site ``x - step``
    gains the factor ``1 + lam``, site ``x`` the factor ``1 - lam``.
    Sites before ``keep`` in the direction of ``step`` are skipped.
    """
    d = (x - keep) * step
    if d < 0:
        return
    c_x = counts.get(x, 0)
    if d > 0:
        up = x - step
        lam = wavelet_lambda(counts.get(up, 0), c_x)
        logs[up] = logs.get(up, 0.0) + math.log(1.0 + lam)
    lam = wavelet_lambda(c_x, counts.get(x + step, 0))
    logs[x] = logs.get(x, 0.0) + math.log(1.0 - lam)


def _lambdas(c_m: np.ndarray, c_m1: np.ndarray) -> np.ndarray:
    """:func:`wavelet_lambda` of count arrays, elementwise and bit for bit."""
    # counts are whole numbers, so 2 * (c_m + c_m1) is 0 or >= 2
    lam = (c_m1 - c_m) / np.maximum(2.0 * (c_m + c_m1), 1.0)
    return np.minimum(np.maximum(lam, 0.0), 0.5)


# The four tilts of one family update, in its order: rise sites x - 1 and
# x, then fall sites x + 1 and x.  Per tilt: table (0 rise, 1 fall), site
# offset from x, sign of lam in the factor, and the offsets from x of the
# two counts whose amplitude it takes.
_SIDE = np.array([[0], [0], [1], [1]])
_SITE = np.array([[-1], [0], [1], [0]])
_SIGN = np.array([[1.0], [-1.0], [1.0], [-1.0]])
_PAIR = (np.array([[-1], [0], [1], [0]]), np.array([[0], [1], [0], [-1]]))


def _tilt_rows(counts: np.ndarray, rise: np.ndarray, fall: np.ndarray,
               cells: np.ndarray):
    """Fold a block of observations into dense family tables, every step kept.

    ``counts``, ``rise`` and ``fall`` are the tables of one
    :class:`UnimodalFamily` over consecutive sites, and ``cells`` holds
    each observation's index into them, never the first or last one.
    Returns the counts after the block and the logs after every step, as
    ``(side, steps, sites)`` with side 0 rise and 1 fall.  Each site's
    log gains :func:`_tilt`'s increments in the same order, but through
    ``numpy.log``, which differs from ``math.log`` in the last place on
    about 1 % of arguments.
    """
    steps = np.arange(len(cells))
    hits = np.zeros((len(cells), len(counts)))
    hits[steps, cells] = 1.0
    after = np.cumsum(hits, axis=0)
    after += counts
    before = after - hits
    lam = _lambdas(*(before[steps, cells + d] for d in _PAIR))
    rows = np.zeros((2,) + hits.shape)
    # the first row starts from the tables, so the cumsum adds in _tilt's order
    rows[0, 0], rows[1, 0] = rise, fall
    rows[_SIDE, steps, cells + _SITE] += np.log(1.0 + _SIGN * lam)
    return after[-1], np.cumsum(rows, axis=1, out=rows)


def _logsumexp(terms: list[float]) -> float:
    m = max(terms)
    if m == float("-inf"):
        return m
    return m + math.log(math.fsum(math.exp(t - m) for t in terms))


def _load_snapshot(
    snap: dict | str, log_keys: tuple[str, ...], nonneg: tuple[str, ...] = ()
):
    """Parse a tracker snapshot; returns it with ``n``, counts and log tables.

    Raises :class:`InvalidSnapshot` unless every count is nonnegative,
    ``n`` is their total, every log factor is finite, and the tables
    named in ``nonneg`` (component indices, or the counts of a stream
    on the nonnegative integers) have no negative key.
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
    for key, table in zip(("counts",) + log_keys, [counts] + tables):
        if key in nonneg and min(table, default=0) < 0:
            raise InvalidSnapshot(f"snapshot {key} has a negative key")
    return snap, n, counts, tables


def _check_obs(x) -> int:
    x = int(x)
    if x < 0:
        raise NegativeObservation(f"observation {x} is negative")
    return x


class MonotoneTracker:
    """Running mixture e-process against the non-increasing null.

    State is the observation count, the empirical counts, and one log
    factor per touched rise site ``m >= 0`` (weights ``2**-(m+1)``).
    """

    def __init__(self) -> None:
        self.n = 0
        self.counts: dict[int, int] = {}
        self.log_factors: dict[int, float] = {}

    def update(self, x: int) -> None:
        """Fold in one observation; amplitudes use counts before it."""
        x = _check_obs(x)
        _tilt(self.log_factors, self.counts, x, 1, 0)
        self.counts[x] = self.counts.get(x, 0) + 1
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
        _, n, counts, (log_factors,) = _load_snapshot(
            snap, ("log_factors",), nonneg=("counts", "log_factors")
        )
        t = cls()
        t.n, t.counts, t.log_factors = n, counts, log_factors
        return t


class UnimodalTracker:
    """Running mixture e-process against peaks at a fixed ``theta``.

    Keeps the rise products at sites ``j >= theta`` and the fall
    products at sites ``i <= theta``.  The component index of a site is
    its distance ``m = |site - theta|`` from the peak, and each side
    weights component ``m`` by ``2**-(m+2)``, so the two sides together
    carry total weight one.  Snapshots are keyed by ``m``.
    """

    def __init__(self, theta: int) -> None:
        self.theta = int(theta)
        self.n = 0
        self.counts: dict[int, int] = {}
        self.log_rise: dict[int, float] = {}
        self.log_fall: dict[int, float] = {}

    def update(self, x: int) -> None:
        x = int(x)
        _tilt(self.log_rise, self.counts, x, 1, self.theta)
        _tilt(self.log_fall, self.counts, x, -1, self.theta)
        self.counts[x] = self.counts.get(x, 0) + 1
        self.n += 1

    def unimodal_value(self) -> float:
        """Log of the two-sided dyadic mixture."""
        th = self.theta
        weight_used = math.fsum(2.0 ** (th - j - 2) for j in self.log_rise)
        weight_used += math.fsum(2.0 ** (i - th - 2) for i in self.log_fall)
        terms = [-(j - th + 2) * _LN2 + lf for j, lf in self.log_rise.items()]
        terms += [-(th - i + 2) * _LN2 + lf for i, lf in self.log_fall.items()]
        residual = 1.0 - weight_used
        if residual > 0.0:
            terms.append(math.log(residual))
        if not terms:
            return 0.0
        return _logsumexp(terms)

    def to_snapshot(self) -> dict:
        th = self.theta
        return {
            "theta": th,
            "n": self.n,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "log_factors_plus": {
                str(j - th): v for j, v in sorted(self.log_rise.items())
            },
            "log_factors_minus": {
                str(th - i): v
                for i, v in sorted(self.log_fall.items(), reverse=True)
            },
        }

    @classmethod
    def from_snapshot(cls, snap: dict | str) -> "UnimodalTracker":
        keys = ("log_factors_plus", "log_factors_minus")
        snap, n, counts, (plus, minus) = _load_snapshot(snap, keys, nonneg=keys)
        t = cls(int(snap["theta"]))
        t.n, t.counts = n, counts
        t.log_rise = {t.theta + m: lf for m, lf in plus.items()}
        t.log_fall = {t.theta - m: lf for m, lf in minus.items()}
        return t


class UnimodalFamily:
    """Every per-peak tracker at once, keyed by data sites.

    A tilt at pair ``(theta + m, theta + m + 1)`` depends on ``theta``
    only through the site ``j = theta + m``, and likewise the falling
    side through ``i = theta - m``.  Keeping the products of every site
    therefore holds the tables of every :class:`UnimodalTracker`, each
    of which keeps the sites on its side of its peak:

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

    def update(self, x: int) -> None:
        """Fold in one observation: rise sites ``x - 1``, ``x``, then fall
        sites ``x + 1``, ``x``, in that order."""
        x = int(x)
        # keep = x - step keeps both touched sites
        _tilt(self.log_rise, self.counts, x, 1, x - 1)
        _tilt(self.log_fall, self.counts, x, -1, x + 1)
        self.counts[x] = self.counts.get(x, 0) + 1
        self.n += 1

    def data_range(self) -> tuple[int, int] | None:
        if not self.counts:
            return None
        return min(self.counts), max(self.counts)

    def values_range(self, lo: int, hi: int) -> np.ndarray:
        """Log mixture value for every peak in ``[lo, hi]``, vectorized."""
        # positions relative to lo, taken in Python ints: sites past 2**53
        # would collide as floats
        thetas = np.arange(hi - lo + 1, dtype=float)
        rise = sorted(self.log_rise)
        rise_sites = np.array([j - lo for j in rise], dtype=float)
        rise_logs = np.array([self.log_rise[j] for j in rise])
        fall = sorted(self.log_fall)
        fall_sites = np.array([i - lo for i in fall], dtype=float)
        fall_logs = np.array([self.log_fall[i] for i in fall])

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

    def to_snapshot(self) -> dict:
        return {
            "n": self.n,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "log_rise": {str(k): v for k, v in sorted(self.log_rise.items())},
            "log_fall": {str(k): v for k, v in sorted(self.log_fall.items())},
        }

    @classmethod
    def from_snapshot(cls, snap: dict | str) -> "UnimodalFamily":
        _, n, counts, (rise, fall) = _load_snapshot(snap, ("log_rise", "log_fall"))
        f = cls()
        f.n, f.counts, f.log_rise, f.log_fall = n, counts, rise, fall
        return f


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
