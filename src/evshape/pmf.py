"""Finite-window integer distributions and shape predicates.

A :class:`Pmf` stores a (sub)probability mass function supported on a
finite window of integers; indices outside the window carry exactly zero
mass.  Everything else in the package -- monotonicity and unimodality
predicates, envelopes, mode sets, sampling -- operates on these windows.
"""

from __future__ import annotations

import io
import json
import math
import numbers
import warnings
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import add, gt, le

import numpy as np

from .errors import (
    EmptyObservations,
    MalformedJson,
    MalformedText,
    MassSumViolation,
    NegativeMass,
    NegativeSupport,
    NonFiniteInput,
    NonIntegerInput,
    NonNumericInput,
    SubprobabilitySampling,
)

#: absolute tolerance used by shape predicates
SHAPE_TOL = 1e-12
#: slack allowed on the "total mass at most one" constraint
MASS_TOL = 1e-12
#: two-sided tolerance for declaring a table a full probability
PROB_TOL = 1e-9


@dataclass(frozen=True)
class ModeInterval:
    """An integer interval of modes: empty, bounded, or all of Z.

    Attributes
    ----------
    kind : str
        One of ``"empty"``, ``"range"``, ``"all"``.
    lo, hi : int or None
        Inclusive endpoints; only meaningful when ``kind == "range"``.
    """

    kind: str
    lo: int | None = None
    hi: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("empty", "range", "all"):
            raise ValueError(f"unknown ModeInterval kind {self.kind!r}")
        if self.kind == "range":
            if self.lo is None or self.hi is None or self.lo > self.hi:
                raise ValueError("range needs lo <= hi")

    @classmethod
    def empty(cls) -> "ModeInterval":
        return cls("empty")

    @classmethod
    def bounded(cls, lo: int, hi: int) -> "ModeInterval":
        return cls("range", int(lo), int(hi))

    @classmethod
    def all_integers(cls) -> "ModeInterval":
        return cls("all")

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"

    def contains(self, theta: int) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "empty":
            return False
        return self.lo <= theta <= self.hi

    def intersect(self, other: "ModeInterval") -> "ModeInterval":
        if self.kind == "empty" or other.kind == "empty":
            return ModeInterval.empty()
        if self.kind == "all":
            return other
        if other.kind == "all":
            return self
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return ModeInterval.empty()
        return ModeInterval.bounded(lo, hi)

    def to_json(self) -> dict:
        if self.kind == "range":
            return {"kind": "range", "lo": self.lo, "hi": self.hi}
        return {"kind": "all_integers" if self.kind == "all" else "empty"}


@dataclass(frozen=True)
class Pmf:
    """Mass table on the integer window ``[lo, lo + len(masses) - 1]``.

    Direct construction only checks that every mass is finite and
    nonnegative; use :func:`make_pmf` to additionally trim zeros and
    enforce the total-mass constraints.
    The relaxed path exists because envelope operations legitimately
    produce tables whose total exceeds one.
    """

    lo: int
    masses: tuple[float, ...]
    is_sub: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "masses", tuple(map(float, self.masses)))
        object.__setattr__(self, "lo", int(self.lo))
        _check_nonnegative(self.masses, NegativeMass, "mass")
        if math.inf in self.masses:
            raise NonFiniteInput("a mass is infinite")

    @property
    def hi(self) -> int:
        """Largest index of the window (``lo - 1`` when empty)."""
        return self.lo + len(self.masses) - 1

    @property
    def is_empty(self) -> bool:
        return not self.masses

    @property
    def total(self) -> float:
        return _total(self.masses)

    def f(self, n: int) -> float:
        """Mass at ``n``; exactly zero outside the window."""
        if self.lo <= n <= self.hi:
            return self.masses[n - self.lo]
        return 0.0

    def cdf(self, n: int) -> float:
        """Total mass on ``(-inf, n]``."""
        if n < self.lo:
            return 0.0
        return _total(self.masses[: n - self.lo + 1])

    def items(self):
        """Yield ``(index, mass)`` pairs over the window."""
        for k, m in enumerate(self.masses):
            yield self.lo + k, m

    def to_json(self) -> dict:
        return {"lo": self.lo, "masses": list(self.masses), "is_sub": self.is_sub}


def _check_nonnegative(xs, error, what: str) -> None:
    # one C-level pass (false on NaN too); the offender is sought only on failure
    if not all(map((0.0).__le__, xs)):
        bad = next(x for x in xs if not 0.0 <= x)
        if math.isnan(bad):
            raise NonFiniteInput(f"{what} {bad} is not a number")
        raise error(f"{what} {bad} is negative")


def _total(xs) -> float:
    """``math.fsum`` of nonnegative floats, ``inf`` past the float range."""
    try:
        return math.fsum(xs)
    except OverflowError:
        return math.inf


def _trimmed(lo: int, masses: list[float]) -> tuple[int, list[float]]:
    # strip exact zeros from both ends; canonical empty window is (0, [])
    a, b = 0, len(masses)
    while a < b and masses[a] == 0.0:
        a += 1
    while b > a and masses[b - 1] == 0.0:
        b -= 1
    if a == b:
        return 0, []
    return lo + a, masses[a:b]


def _check_total(total: float, is_sub: bool) -> None:
    # the total-mass rule of make_pmf, shared with the step densities
    if total > 1.0 + MASS_TOL:
        raise MassSumViolation(f"total mass {total} exceeds 1")
    if not is_sub and abs(total - 1.0) > PROB_TOL:
        raise MassSumViolation(f"total mass {total} is not 1 within {PROB_TOL}")


def _running_fsums(groups):
    """Yield ``math.fsum`` of every float added so far, after each group.

    The sum is kept exact as fsum's own partials (Shewchuk 1997), and only
    each reading rounds.  Non-finite cases are fsum's: ``inf`` and ``nan``
    entries restart the partials and set the reading, and a finite sum past
    the float range raises ``OverflowError``.
    """
    partials, specials = [], []
    for group in groups:
        for x in group:
            entry, i = x, 0
            for y in partials:
                if abs(x) < abs(y):
                    x, y = y, x
                hi = x + y
                lo = y - (hi - x)
                if lo:
                    partials[i] = lo
                    i += 1
                x = hi
            if not math.isfinite(x):
                if math.isfinite(entry):
                    raise OverflowError("intermediate overflow in fsum")
                specials.append(entry)
                i = x = 0
            partials[i:] = [x] if x else []
        yield math.fsum(specials or partials)


def _sum_margin(n: int) -> float:
    # a relative error bound for a sequential float sum of n terms: twice
    # Higham's (n - 1) 2**-53 (2002, section 4.2), with room for three
    # roundings per term and for the arithmetic that applies it
    return (n + 4) * 2.0**-52


def _under_caps(rights, areas, tol: float) -> bool:
    """Whether ``fsum(areas[:k + 1]) <= rights[k] + tol * max(1, rights[k])``
    at every ``k``, read in order: the polar checks' one pass.

    ``rights`` do not decrease; ``areas`` is an array of nonnegative areas.
    A ``cumsum`` that clears its cap by :func:`_sum_margin`,
    at least 5 units in the last place, decides its breakpoint exactly.
    Past the first breakpoint not so decided, or a sum that is not finite,
    :func:`_running_fsums` reads the exact prefixes; as in :func:`_total`,
    one past the float range reads ``inf``, and so do the rest.
    """
    n = len(areas)
    if not n:
        return True
    margin = _sum_margin(n)
    with np.errstate(all="ignore"):  # inf and nan come silently, as in float code
        # each cap, shrunk so that a float sum under it has its exact sum under the cap
        lows = (rights if rights[0] >= 1.0 else np.maximum(rights, 1.0)) * tol
        lows += rights
        lows *= 1.0 - margin
        sums = np.cumsum(areas)
        under = sums <= lows
    k = int(under.argmin())  # the first breakpoint not decided under
    if under[k]:
        k = n - 1  # all are
    s, b = float(sums[k]), float(rights[k])
    # the sums do not decrease: a finite bound at k bounds each exact prefix through k
    if math.isfinite(s * (1.0 + margin)):
        if under[k]:
            return True
        if s * (1.0 - margin) >= b + tol * max(1.0, b):  # past it by over an ulp
            return False
    caps = (b + tol * max(1.0, b) for b in rights.tolist())
    try:
        return all(map(le, _running_fsums(zip(areas.tolist())), caps))
    except OverflowError:  # map reads sums first: this prefix's cap is the next
        return all(map(le, repeat(math.inf), caps))


def make_pmf(lo: int, masses, is_sub: bool = False) -> Pmf:
    """Validate and normalize a mass table.

    Leading and trailing exact zeros are trimmed (adjusting ``lo``).
    Raises :class:`NegativeMass` on negative entries and
    :class:`MassSumViolation` when the total is above ``1 + 1e-12``, or
    when a full probability is not within ``1e-9`` of one.
    """
    ms = list(map(float, masses))
    _check_nonnegative(ms, NegativeMass, "mass")
    _check_total(_total(ms), is_sub)
    lo2, ms2 = _trimmed(int(lo), ms)
    return Pmf(lo2, tuple(ms2), is_sub)


# JSON readers: a value of the wrong type or a missing field is a typed
# error, not a TypeError in a constructor or a bare KeyError, and int()
# never truncates 0.5 or reads true as 1

class _JsonObject(dict):
    def __missing__(self, key):
        raise MalformedJson(f"JSON object has no field {key!r}")


def _json_object(obj: dict | str) -> dict:
    obj = json.loads(obj) if isinstance(obj, str) else obj
    if not isinstance(obj, dict):
        raise MalformedJson(f"expected a JSON object, got {type(obj).__name__}")
    return _JsonObject(obj)


def _json_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise NonIntegerInput(f"{name} {value!r} is not an integer")
    return int(value)


def _json_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise MalformedJson(f"{name} {value!r} is not a JSON boolean")
    return value


def _json_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise NonNumericInput(f"{name} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:  # a JSON integer past the float range
        raise NonFiniteInput(f"{name} is too large for a float") from None


def _json_numbers(values, name: str) -> list:
    if not isinstance(values, (list, tuple)):
        raise MalformedJson(f"{name} must be a list, got {type(values).__name__}")
    types = set(map(type, values))
    for t in types:  # one check per type, not per entry
        if issubclass(t, bool) or not issubclass(t, numbers.Real):
            bad = next(v for v in values if type(v) is t)
            raise NonNumericInput(f"{name} entry {bad!r} is not a number")
    try:  # an integer past the float range is a typed error here, not in float()
        return values if types <= {float} else list(map(float, values))
    except OverflowError:
        raise NonFiniteInput(f"{name} entry is too large for a float") from None


def pmf_from_json(obj: dict | str) -> Pmf:
    obj = _json_object(obj)
    return make_pmf(_json_int(obj["lo"], "lo"),
                    _json_numbers(obj["masses"], "masses"),
                    _json_bool(obj.get("is_sub", False), "is_sub"))


def _contiguous_rows(stripped: str) -> tuple[int, list[float]] | None:
    """``(lo, masses)`` of a stripped text of one ``index mass`` row per
    index from ``lo`` up, read in one call to numpy's C text reader; None
    for any other text.

    The reader converts masses with ``PyOS_string_to_double``, which
    ``float()`` calls once it has removed underscores, and indices as
    plain decimal int64.  It raises ``ValueError`` or warns, and so
    refuses, on any field ``int()`` or ``float()`` reads otherwise
    (underscores, hex, ``1.0`` as an index, an index past int64), on other
    field counts, quotes, a lone ``\\r``, and non-ASCII or empty text.
    It reads ``\\x0b``, ``\\x0c`` and ``\\x1c``-``\\x1e`` as field whitespace
    where ``str.splitlines`` breaks lines, so a text holding one is refused.
    """
    if any(map(stripped.__contains__, "\x0b\x0c\x1c\x1d\x1e")):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(io.BytesIO(stripped.encode("ascii")),
                              dtype=[("i", np.int64), ("m", np.float64)],
                              comments=None, ndmin=1, encoding="ascii")
    except (ValueError, Warning):  # UnicodeEncodeError is a ValueError
        return None
    index = rows["i"]
    lo = int(index[0])
    # int64 steps wrap, but steps of 1 mod 2**64 span n - 1 only if none did
    if int(index[-1]) - lo != len(index) - 1 or not (np.diff(index) == 1).all():
        return None
    return lo, rows["m"].tolist()


def pmf_from_text(text: str, is_sub: bool = False) -> Pmf:
    """Parse ``index mass`` rows (or a JSON object) into a Pmf.

    A text of one row per index from ``lo`` up takes numpy's text reader
    (:func:`_contiguous_rows`).  Any other goes through the line loop:
    blank rows and rows whose first field starts with ``#`` are skipped,
    and an index with no row has mass 0.  A row that is not one integer
    index and one number, or repeats an index, raises
    :class:`MalformedText` naming its 1-based row, as does a text with no
    rows.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        return pmf_from_json(stripped)
    rows = _contiguous_rows(stripped)
    if rows is not None:
        return make_pmf(*rows, is_sub)
    entries: dict[int, float] = {}
    for row, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 2:
            raise MalformedText(f"row {row}: expected 2 fields (index mass), "
                                f"found {len(fields)}")
        try:
            idx = int(fields[0])
        except ValueError:
            raise MalformedText(f"row {row}: index {fields[0]!r:.200} does not "
                                "read as an integer") from None
        try:
            mass = float(fields[1])
        except ValueError:
            raise MalformedText(f"row {row}: mass {fields[1]!r:.200} does not "
                                "read as a number") from None
        if idx in entries:
            raise MalformedText(f"row {row}: duplicate index {idx}")
        entries[idx] = mass
    if not entries:
        raise MalformedText("no index mass rows found")
    lo, hi = min(entries), max(entries)
    masses = [entries.get(n, 0.0) for n in range(lo, hi + 1)]
    return make_pmf(lo, masses, is_sub)


# --------------------------------------------------------------- shape


def is_monotone(p: Pmf, tol: float = SHAPE_TOL) -> bool:
    """True iff the mass is non-increasing over the nonnegative integers.

    Requires ``p.lo >= 0``; a window starting above zero fails because
    the zero mass just below it sits under a positive one.
    """
    if p.is_empty:
        return True
    if p.lo < 0:
        raise NegativeSupport("monotone shape is defined on nonnegative support")
    if p.lo > 0:
        return False
    return all(p.masses[k] >= p.masses[k + 1] - tol for k in range(len(p.masses) - 1))


def _last_rise_first_drop(p: Pmf, tol: float) -> tuple[int, int]:
    # the last n with f(n + 1) > f(n) + tol and the first n with
    # f(n - 1) > f(n) + tol, on the masses padded by a zero at each end; each
    # C-level scan stops at its first hit, or ends on its pad without one
    m, pad = p.masses, (0.0,)

    def first_fall(xs, ys, start: int, step: int) -> int:
        falls = map(gt, chain(pad, xs), map(add, chain(ys, pad), repeat(tol)))
        return next(compress(count(start, step), falls), start + step * len(m))

    return first_fall(reversed(m), reversed(m), p.hi, -1), first_fall(m, m, p.lo, 1)


def is_theta_unimodal(p: Pmf, theta: int, tol: float = SHAPE_TOL) -> bool:
    """True iff the mass rises up to ``theta`` and falls after it.

    In closed form: ``theta`` comes after the last rise ``f(n + 1) > f(n) +
    tol`` and before the first drop ``f(n - 1) > f(n) + tol``.  The pads are
    the zeros ``f`` reads off the window, so every ``tol`` (NaN finds no
    rise or drop) gives the boolean of a scan, and they keep both ends in
    ``[lo - 1, hi + 1]``, so a ``theta`` off the window fails.
    """
    rise, drop = _last_rise_first_drop(p, tol)
    return p.is_empty or rise < theta < drop


def mode_set(p: Pmf) -> ModeInterval:
    """The admissible peaks: the interval strictly between the last rise
    and the first drop of :func:`is_theta_unimodal`, empty when they cross.
    A table with no mass at all is degenerate and every integer works."""
    if p.is_empty:
        return ModeInterval.all_integers()
    rise, drop = _last_rise_first_drop(p, SHAPE_TOL)
    return ModeInterval.bounded(rise + 1, drop - 1) if drop - rise > 1 else ModeInterval.empty()


def satisfies_basic_inequality(p: Pmf, tol: float = PROB_TOL) -> bool:
    """Check ``f(n) <= 1/(n+1)`` over the window (nonnegative support)."""
    if p.is_empty:
        return True
    if p.lo < 0:
        raise NegativeSupport("the basic inequality is defined on nonnegative support")
    return all(m <= 1.0 / (n + 1.0) + tol for n, m in p.items())


# ----------------------------------------------------------- envelopes


def monotone_envelope(p: Pmf) -> Pmf:
    """Backward running maximum of the mass over ``[0, hi]``.

    The result is the least non-increasing table dominating ``p``; its
    total may exceed one, in which case no monotone probability
    dominates ``p``.
    """
    if p.lo < 0:
        raise NegativeSupport("monotone envelope needs nonnegative support")
    if p.is_empty:
        return Pmf(0, (), True)
    vals = [0.0] * (p.hi + 1)
    for n, m in p.items():
        vals[n] = m
    for n in range(p.hi - 1, -1, -1):
        vals[n] = max(vals[n], vals[n + 1])
    return Pmf(0, tuple(vals), True)


def unimodal_envelope(p: Pmf, theta: int) -> Pmf:
    """Least table dominating ``p`` that rises to ``theta`` then falls."""
    if p.is_empty:
        return Pmf(0, (), True)
    a = min(p.lo, theta)
    b = max(p.hi, theta)
    vals = [p.f(n) for n in range(a, b + 1)]
    t = theta - a
    for k in range(1, t + 1):  # rising side: running max from the left
        vals[k] = max(vals[k], vals[k - 1])
    for k in range(len(vals) - 2, t - 1, -1):  # falling side: from the right
        vals[k] = max(vals[k], vals[k + 1])
    lo2, ms2 = _trimmed(a, vals)
    return Pmf(lo2, tuple(ms2), True)


# ------------------------------------------------------ data and draws


def empirical(obs) -> Pmf:
    """Empirical frequencies of an integer sample."""
    xs = [int(x) for x in obs]
    if not xs:
        raise EmptyObservations("need at least one observation")
    lo, hi = min(xs), max(xs)
    counts = [0] * (hi - lo + 1)
    for x in xs:
        counts[x - lo] += 1
    n = float(len(xs))
    return make_pmf(lo, [c / n for c in counts])


_GUIDE_BUCKETS = 4096


class GuideTable:
    """Inverse CDF of one ``p`` (int64 values) through a guide table.

    The uniform ``u`` lies in bucket ``floor(u * 4096)``, exactly, since
    the scale is a power of two.  A bucket whose open interior holds no
    CDF value maps all of it to the index at its left edge; only draws in
    buckets that hold one go through ``searchsorted`` (Chen & Asau 1974;
    Devroye 1986, III.2).  Values equal ``searchsorted``'s on the CDF for
    every ``u`` in ``[0, 1)``.  Building costs two searches of 4096 edges,
    so build once per distribution, not per call.
    """

    def __init__(self, p: Pmf) -> None:
        self.lo = p.lo
        self.last = len(p.masses) - 1
        self.cum = np.cumsum(np.asarray(p.masses, dtype=float))
        edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
        start = np.searchsorted(self.cum, edges[:-1], side="right")
        self.exact = start == np.searchsorted(self.cum, edges[1:], side="left")
        self.start = np.minimum(start, self.last)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        bucket = (u * _GUIDE_BUCKETS).astype(np.intp)
        idx = self.start[bucket]
        slow = ~self.exact[bucket]
        if slow.any():
            found = np.searchsorted(self.cum, u[slow], side="right")
            idx[slow] = np.minimum(found, self.last)
        return self.lo + idx


def sample(p: Pmf, seed: int, n: int) -> list[int]:
    """Draw ``n`` values through :class:`GuideTable` with a seeded generator.

    Identical ``(p, seed, n)`` give identical output; the stream comes
    from ``numpy.random.default_rng(seed)``.
    """
    if p.is_sub:
        raise SubprobabilitySampling("cannot sample from a subprobability")
    if n < 0:
        raise ValueError("sample size must be >= 0")
    return GuideTable(p)(np.random.default_rng(seed).random(n)).tolist()
