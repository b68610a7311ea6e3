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
weight of the untouched remainder: by :func:`_log_mixture` in the
trackers, and by :func:`peak_weights` and :func:`peak_values` wherever
many peaks are evaluated at once (the family and the harness engine).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidSnapshot, NegativeObservation
from .evalues import EvalFn, wavelet_lambda
from .numeraire import numeraire_evalue
from .pmf import Pmf, _json_int, _json_number, _json_object

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


# Every amplitude lies in [0, 1/2], so one observation multiplies each
# site's product, and with them every peak's mixture value, by a factor in
# [1/2, 3/2]: a log mixture value rises by at most _LN_RISE and falls by at
# most _LN_FALL per observation.
_LN_RISE = math.log(1.5)
_LN_FALL = _LN2


def _drift_margin(value, n, cells):
    """Rounding margin of the one-step bound, as ``(fixed, per_step)``: the
    computed log mixture ``value`` and the value computed ``steps``
    observations later, each a log-sum-exp of ``cells`` terms over tables
    of at most ``n`` observations, obey the bound up to ``fixed + steps *
    per_step``.

    Amplitudes are computed in ``[0, 1/2]`` exactly and the logs of ``1 +-
    lam`` to a few ulps, so an entry's increment lies in ``[-log 2, log
    1.5]`` up to ``2**-52 (n + 1)``: the log's rounding plus the addition's,
    to an entry of size at most ``n log 2`` (the tables are running sums,
    ``numpy.cumsum`` in the engine).  A log-sum-exp with the same weights at
    every step is monotone and 1-Lipschitz in the entries, so the bound
    moves the exact value of the rounded tables by ``steps`` such
    increments.  Evaluating it (:func:`peak_values`, :func:`_log_mixture`)
    errs by at most ``2**-51 (|top| + |value| + cells + 2)``, each term's
    error weighed by its share (``top`` its largest term, within ``log
    cells`` of the value), and ``|value| <= n log 2`` as every product lies
    in ``[2**-n, 1.5**n]``.  Two evaluations and the drift stay below
    ``2**-48 (steps + cells) (n + cells)``; the margin is ``2**-40 (steps +
    cells) (n + cells)``, 2**8 times that, which also covers the rounding of
    the closed forms that solve for ``steps``.  The trackers keep an untouched
    site's weight in their leftover term until the site is touched, and the
    leftover is rounded to ``2**-53`` absolute, which moves a log value by up
    to ``2**-53 exp(-value)``: ``fixed`` adds ``2**-51 exp(-value)``, which
    covers both values where the later one is the higher, the only case in
    which the trackers use the bound (they certify staying below)."""
    per_step = 2.0 ** -40 * (n + cells)
    return per_step * cells + 2.0 ** -51 * np.exp(np.minimum(-value, 700.0)), per_step


def _lambdas(c_m: np.ndarray, c_m1: np.ndarray) -> np.ndarray:
    """:func:`wavelet_lambda` of count arrays, elementwise and bit for bit."""
    # whole counts: 2 * (c_m + c_m1) is 0 or >= 2, and lam is at most 1/2
    lam = (c_m1 - c_m) / np.maximum(2.0 * (c_m + c_m1), 1.0)
    return np.maximum(lam, 0.0)


# The four tilts of one family update, in its order: rise sites x - 1 and
# x, then fall sites x + 1 and x.  Per tilt: table (0 rise, 1 fall), site
# offset from x, sign of lam in the factor, and the offsets from x of the
# two counts whose amplitude it takes; shaped to broadcast over (row, step).
_SIDE = np.array([0, 0, 1, 1]).reshape(4, 1, 1)
_SITE = np.array([-1, 0, 1, 0]).reshape(4, 1, 1)
_SIGN = np.array([1.0, -1.0, 1.0, -1.0]).reshape(4, 1, 1)
_PAIR = (np.array([-1, 0, 1, 0]).reshape(4, 1, 1),
         np.array([0, 1, 0, -1]).reshape(4, 1, 1))


def _tilt_rows(counts: np.ndarray, rise: np.ndarray, fall: np.ndarray,
               cells: np.ndarray):
    """Fold blocks of observations into dense family tables, every step kept.

    Each row is one :class:`UnimodalFamily`: ``counts``, ``rise`` and
    ``fall`` are its ``(row, site)`` tables over consecutive sites, and
    ``cells`` holds each row's observations ``(row, step)`` as indices
    into them, never the first or last one.  Returns the counts after the
    block and the logs after every step, as ``(side, row, step, site)``
    with side 0 rise and 1 fall.  Each site's log gains :func:`_tilt`'s
    increments in the same order, but through ``numpy.log``, which
    differs from ``math.log`` in the last place on about 1 % of arguments.
    """
    rows, steps = cells.shape
    width = counts.shape[-1]
    # flat index of each observation's cell in a (row, step, site) array
    at = cells + np.arange(0, rows * steps * width, width).reshape(rows, steps)
    hits = np.zeros((rows, steps, width))
    hits.ravel()[at] = 1.0
    after = np.cumsum(hits, axis=1)
    after += counts[:, None]
    before = np.subtract(after, hits, out=hits).ravel()
    lam = _lambdas(*(before[at + d] for d in _PAIR))
    logs = np.zeros((2,) + hits.shape)
    # the first step starts from the tables, so the cumsum adds in _tilt's order
    logs[0, :, 0], logs[1, :, 0] = rise, fall
    logs.ravel()[at + _SITE + _SIDE * hits.size] += np.log(1.0 + _SIGN * lam)
    return after[:, -1], np.cumsum(logs, axis=2, out=logs)


def peak_weights(sites, peaks) -> tuple[np.ndarray, np.ndarray]:
    """Log dyadic weights ``(side, site, *peaks.shape)`` and log leftover
    weight ``peaks.shape``: a rise site (side 0) at or past a peak and a
    fall site (side 1) at or before it weigh ``2**-(|site - peak| + 2)``,
    others nothing.  Sites and peaks become floats: pass large ones as
    offsets."""
    d = np.subtract.outer(np.asarray(sites, dtype=float),
                          np.asarray(peaks, dtype=float))
    on_side = np.stack([d >= 0, d <= 0])
    k = np.abs(d) + 2.0
    used = _plane_sum((on_side * np.exp2(-k)).reshape((-1,) + d.shape[1:]))
    with np.errstate(divide="ignore"):
        # strictly positive in exact arithmetic; clamp away float dust
        rest = np.log(np.maximum(1.0 - used, 0.0))
    # -k ln 2, not log(2**-k): a far site's weight underflows, its log not
    return np.where(on_side, -k * _LN2, -np.inf), rest


def _plane_sum(a: np.ndarray) -> np.ndarray:
    # Sum over the first axis in place by halving: the order depends on
    # its length alone, so a peak's sum ignores what shares the array
    # (numpy's reduction turns pairwise when one column is left).
    k = len(a)
    while k > 1:
        h = k // 2
        a[:h] += a[k - h:k]
        k -= h
    return a[0] if k else np.zeros(a.shape[1:])


def peak_values(logs: np.ndarray, weights) -> np.ndarray:
    """Log mixture value of every peak: ``(..., peak)`` from ``(side, ...,
    site)`` tables, with ``weights`` from :func:`peak_weights` over the same
    sites.  Peaks ``(peak,)`` serve every table; peaks ``(row, peak)`` pair
    row by row with tables ``(side, row, ..., site)``.  So ``(side, site)``
    tables give ``(peak,)``, ``(side, step, site)`` ones as
    :func:`_tilt_rows` gives them for one row ``(step, peak)``, and
    ``(side, row, step, site)`` ones ``(row, step, peak)``.  Untouched
    sites may be included (their log is zero).  A peak's value does not
    depend on what is evaluated with it."""
    log_w, rest = weights
    sides = log_w.shape[:2]
    # the peaks' leading axes pair with the tables' first middle axes
    lead = rest.shape[:-1] + (1,) * (logs.ndim - 1 - rest.ndim)
    # one plane per (side, site) term and one for the rest, each
    # (..., peak): peaks last, so the reductions add whole planes
    terms = np.empty((sides[0] * sides[1] + 1,) + logs.shape[1:-1] + rest.shape[-1:])
    by_site = logs.transpose((0, logs.ndim - 1) + tuple(range(1, logs.ndim - 1)))
    np.add(by_site[..., None], log_w.reshape(sides + lead + rest.shape[-1:]),
           out=terms[:-1].reshape(sides + terms.shape[1:]))
    terms[-1] = rest.reshape(lead + rest.shape[-1:])
    top = terms.max(axis=0)
    terms -= top
    np.exp(terms, out=terms)
    return top + np.log(_plane_sum(terms))


def _log_mixture(*sides) -> float:
    """Log of a dyadic mixture: each side ``(table, base, sign)`` maps a
    touched site ``s`` to its log product, of weight ``2**(base + sign * s)``;
    the weight left over carries product one."""
    weight_used = 0.0
    terms = []
    for table, base, sign in sides:
        try:
            weights = [2.0 ** (base + sign * s) for s in table]
        except OverflowError:  # exponents past the float range add 0.0 to both sums
            table = {s: lf for s, lf in table.items() if base + sign * s > -2**1000}
            weights = [2.0 ** (base + sign * s) for s in table]
        weight_used += math.fsum(weights)
        terms += [(base + sign * s) * _LN2 + lf for s, lf in table.items()]
    residual = 1.0 - weight_used
    if residual > 0.0:
        terms.append(math.log(residual))
    top = max(terms)
    return top + math.log(math.fsum([math.exp(t - top) for t in terms]))


def _peak_value(log_rise: dict, log_fall: dict, theta: int) -> float:
    """Log mixture value of peak ``theta`` from tables of its sides only:
    rise sites ``j >= theta`` weigh ``2**-(j - theta + 2)`` and fall sites
    ``i <= theta`` weigh ``2**-(theta - i + 2)``."""
    return _log_mixture((log_rise, theta - 2, -1), (log_fall, -theta - 2, 1))


def _snapshot_fields(snap: dict | str, keys) -> dict:
    """Parse a snapshot; :class:`InvalidSnapshot` names a missing key."""
    snap = _json_object(snap)
    for key in keys:
        if key not in snap:
            raise InvalidSnapshot(f"snapshot has no {key!r}")
    return snap


def _snapshot_table(snap: dict, key: str, read) -> dict:
    """Table ``key`` of a snapshot: integer keys, each value through ``read``."""
    table = snap[key]
    if not isinstance(table, dict):
        raise InvalidSnapshot(f"snapshot {key} is not a JSON object")
    try:  # through str, so int() neither truncates 1.5 nor reads true as 1
        return {int(str(k)): read(v, f"snapshot {key} entry") for k, v in table.items()}
    except ValueError:
        raise InvalidSnapshot(f"snapshot {key} has a key that is not an integer") from None


def _load_snapshot(snap: dict | str, log_keys: tuple[str, ...], sides: tuple = ()):
    """Parse a tracker snapshot; returns ``n``, the counts and the log tables.

    ``n`` is not stored: it is the total of the counts.  Raises
    :class:`InvalidSnapshot` unless the counts and every table in
    ``log_keys`` are present, every table is a JSON object with integer
    keys, every count is nonnegative, every log factor is finite, and
    every table named in ``sides``, as ``(key, step, keep)``, holds no
    site before ``keep`` in the direction of ``step``, the sites
    :func:`_tilt` keeps.  The counts must be JSON integers and the log
    factors JSON numbers, or the ``pmf`` readers raise their typed errors.
    """
    snap = _snapshot_fields(snap, ("counts",) + log_keys)
    counts = _snapshot_table(snap, "counts", _json_int)
    if any(v < 0 for v in counts.values()):
        raise InvalidSnapshot("snapshot has a negative count")
    tables = {"counts": counts}
    for key in log_keys:
        tables[key] = _snapshot_table(snap, key, _json_number)
        if not all(math.isfinite(v) for v in tables[key].values()):
            raise InvalidSnapshot(f"snapshot {key} has a non-finite value")
    for key, step, keep in sides:
        if any((s - keep) * step < 0 for s in tables[key]):
            side = "below" if step > 0 else "above"
            raise InvalidSnapshot(f"snapshot {key} has a site {side} {keep}")
    return sum(counts.values()), counts, [tables[key] for key in log_keys]


def _write_snapshot(counts: dict, **logs: dict) -> dict:
    """JSON-ready snapshot: the counts and each log table, in site order."""
    return {key: {str(s): v for s, v in sorted(table.items())}
            for key, table in (("counts", counts), *logs.items())}


def _check_obs(x) -> int:
    x = int(x)
    if x < 0:
        raise NegativeObservation(f"observation {x} is negative")
    return x


class _MonotoneRows:
    """One fresh :class:`MonotoneTracker` state per row, over values ``lo``
    to ``hi``, folded a block of observations at a time.  After each
    :meth:`fold`, the :meth:`tracker` of a row equals a tracker after
    ``update`` with the row's observations so far: the same counts, and
    log factors with the same keys and the same floats.

    Site ``s`` gains a factor at each observation of ``s`` (``1 - lam``)
    and of ``s + 1`` (``1 + lam``), with ``lam`` from the counts of ``s``
    and ``s + 1`` before it.  Sorted by (row, site, step), each site's
    events form one segment, and those counts are the carried counts plus
    running counts within it.  Each factor goes through ``math.log``, and
    each site adds its logs one by one in step order to its carried sum
    with ``numpy.add.accumulate``, as the tracker does (``numpy.sum`` adds
    pairwise, and the builtin ``sum`` compensates from Python 3.12).
    """

    def __init__(self, rows: int, lo: int, hi: int) -> None:
        self.base = max(lo - 1, 0)  # column 0: the lowest site an observation touches
        self.counts = np.zeros((rows, hi + 2 - self.base), dtype=np.int64)
        self.sums = np.zeros((rows, hi + 1 - self.base))
        self.touched = np.zeros(self.sums.shape, dtype=bool)

    def fold(self, xs: np.ndarray) -> None:
        """Fold ``(row, step)`` observations, each row into its own state."""
        rows, steps = xs.shape
        width = self.sums.shape[1]
        t = np.arange(steps)
        cols = xs - self.base
        seg = np.arange(rows)[:, None] * width + cols
        # event keys: segment (row and site), step, and 1 where the
        # observation is the site's upper neighbour; no site x - 1 at x = 0
        keys = np.sort(np.concatenate([((seg * steps + t) * 2).ravel(),
                                       ((seg - 1) * steps + t)[xs > 0] * 2 + 1]))
        up = keys & 1
        seg = (keys >> 1) // steps
        first = np.flatnonzero(np.diff(seg, prepend=-1))
        size = np.diff(first, append=len(keys))
        ups = np.cumsum(up) - up
        c_up = ups - np.repeat(ups[first], size)
        c_down = np.arange(len(keys)) - np.repeat(first, size) - c_up
        # counts carried from earlier blocks, at the site and one up
        at = seg + seg // width
        counts = self.counts.ravel()
        lam = _lambdas((c_down + counts[at]).astype(float),
                       (c_up + counts[at + 1]).astype(float))
        logs = np.zeros(len(keys))  # math.log(1.0) where lam is 0
        tilted = lam > 0.0
        factors = np.where(up == 1, 1.0 + lam, 1.0 - lam)[tilted]
        logs[tilted] = list(map(math.log, factors.tolist()))
        segs = seg[first]
        sums = self.sums.ravel()
        logs[first] += sums[segs]  # each site's sum goes on from its carry
        for s, a, b in zip(segs.tolist(), first.tolist(), (first + size).tolist()):
            sums[s] = np.add.accumulate(logs[a:b])[-1]
        self.touched.ravel()[segs] = True
        cells = np.arange(rows)[:, None] * (width + 1) + cols
        self.counts += np.bincount(cells.ravel(), minlength=counts.size).reshape(
            self.counts.shape)

    def tracker(self, row: int) -> "MonotoneTracker":
        """The row's state as a :class:`MonotoneTracker`."""
        t = MonotoneTracker()
        values = np.flatnonzero(self.counts[row])
        t.counts = dict(zip((values + self.base).tolist(), self.counts[row, values].tolist()))
        t.n = sum(t.counts.values())
        sites = np.flatnonzero(self.touched[row])
        t.log_factors = dict(zip((sites + self.base).tolist(), self.sums[row, sites].tolist()))
        return t


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

    def mixture_value(self) -> float:
        """Log of the dyadic mixture over all locations."""
        return _log_mixture((self.log_factors, -1, -1))

    def to_snapshot(self) -> dict:
        """JSON-ready state: counts and per-site log factors."""
        return _write_snapshot(self.counts, log_factors=self.log_factors)

    @classmethod
    def from_snapshot(cls, snap: dict | str) -> "MonotoneTracker":
        t = cls()
        t.n, t.counts, (t.log_factors,) = _load_snapshot(
            snap, ("log_factors",), (("counts", 1, 0), ("log_factors", 1, 0)))
        return t


class UnimodalTracker:
    """Running mixture e-process against peaks at a fixed ``theta``.

    Keeps the rise products at sites ``j >= theta`` and the fall
    products at sites ``i <= theta``.  The component index of a site is
    its distance ``m = |site - theta|`` from the peak, and each side
    weights component ``m`` by ``2**-(m+2)``, so the two sides together
    carry total weight one.  Snapshots are keyed by site, as the
    family's are.
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
        return _peak_value(self.log_rise, self.log_fall, self.theta)

    def to_snapshot(self) -> dict:
        return {"theta": self.theta, **_write_snapshot(
            self.counts, log_rise=self.log_rise, log_fall=self.log_fall)}

    @classmethod
    def from_snapshot(cls, snap: dict | str) -> "UnimodalTracker":
        snap = _snapshot_fields(snap, ("theta",))
        t = cls(_json_int(snap["theta"], "snapshot theta"))
        sides = (("log_rise", 1, t.theta), ("log_fall", -1, t.theta))
        t.n, t.counts, (t.log_rise, t.log_fall) = _load_snapshot(
            snap, ("log_rise", "log_fall"), sides)
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
        rise, fall = self.log_rise, self.log_fall
        sites = sorted(rise.keys() | fall.keys())
        logs = np.array([[rise.get(s, 0.0) for s in sites],
                         [fall.get(s, 0.0) for s in sites]])
        # offsets from lo, taken in Python ints: sites past 2**53 would
        # collide as floats
        weights = peak_weights([s - lo for s in sites], range(hi - lo + 1))
        return peak_values(logs, weights)

    def to_snapshot(self) -> dict:
        """JSON-ready state: counts and the rise and fall logs by site."""
        return _write_snapshot(self.counts, log_rise=self.log_rise,
                               log_fall=self.log_fall)

    @classmethod
    def from_snapshot(cls, snap: dict | str) -> "UnimodalFamily":
        f = cls()
        f.n, f.counts, (f.log_rise, f.log_fall) = _load_snapshot(
            snap, ("log_rise", "log_fall"))
        return f


def _numeraire_logs(e: EvalFn) -> np.ndarray:
    """``math.log`` of the numeraire e-value ``e`` on its table, then
    ``-inf`` for every value off it: the per-observation factors of
    :func:`numeraire_eprocess`, indexed by ``x - e.lo``."""
    return np.array([math.log(v) if v > 0.0 else -math.inf for v in e.values]
                    + [-math.inf])


def _numeraire_sums(logs: np.ndarray, xs: np.ndarray, carry) -> np.ndarray:
    """Log product of the factors ``logs`` along the last axis of the
    observations ``xs``, added one by one in order to ``carry``."""
    terms = logs[xs]
    terms[..., 0] += carry
    return np.add.accumulate(terms, axis=-1)[..., -1]


def numeraire_eprocess(q: Pmf, obs) -> float:
    """Log of the n-fold product of the optimal e-value along ``obs``.

    Uses the true alternative ``q``; an observation outside the support
    of ``q`` sends the product to zero (log ``-inf``).
    """
    e = numeraire_evalue(q)  # off the table x - e.lo clips to -1 or n, the last log: -inf
    xs = np.array([min(max(_check_obs(x) - e.lo, -1), len(e.values)) for x in obs], dtype=np.int64)
    return float(_numeraire_sums(_numeraire_logs(e), xs, 0.0)) if len(xs) else 0.0
