"""Finite-window integer distributions and shape predicates.

A :class:`Pmf` stores a (sub)probability mass function supported on a
finite window of integers; indices outside the window carry exactly zero
mass.  Everything else in the package -- monotonicity and unimodality
predicates, envelopes, mode sets, sampling -- operates on these windows.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import (
    EmptyObservations,
    MalformedJson,
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

    @property
    def is_all(self) -> bool:
        return self.kind == "all"

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
        return math.fsum(self.masses)

    def f(self, n: int) -> float:
        """Mass at ``n``; exactly zero outside the window."""
        if self.lo <= n <= self.hi:
            return self.masses[n - self.lo]
        return 0.0

    def cdf(self, n: int) -> float:
        """Total mass on ``(-inf, n]``."""
        if n < self.lo:
            return 0.0
        if n >= self.hi:
            return self.total
        return math.fsum(self.masses[: n - self.lo + 1])

    def items(self):
        """Yield ``(index, mass)`` pairs over the window."""
        for k, m in enumerate(self.masses):
            yield self.lo + k, m

    def to_json(self) -> dict:
        return {"lo": self.lo, "masses": list(self.masses), "is_sub": self.is_sub}


def _check_nonnegative(xs, error, what: str) -> None:
    # one C-level pass (false on NaN too); the offender is sought only on failure
    if not all(map((0.0).__le__, xs)):
        raise error(f"{what} {next(x for x in xs if not 0.0 <= x)} is negative")


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


def make_pmf(lo: int, masses, is_sub: bool = False) -> Pmf:
    """Validate and normalize a mass table.

    Leading and trailing exact zeros are trimmed (adjusting ``lo``).
    Raises :class:`NegativeMass` on negative entries and
    :class:`MassSumViolation` when the total is above ``1 + 1e-12``, or
    when a full probability is not within ``1e-9`` of one.
    """
    ms = list(map(float, masses))
    _check_nonnegative(ms, NegativeMass, "mass")
    total = math.fsum(ms)
    if total > 1.0 + MASS_TOL:
        raise MassSumViolation(f"total mass {total} exceeds 1")
    if not is_sub and abs(total - 1.0) > PROB_TOL:
        raise MassSumViolation(f"total mass {total} is not 1 within {PROB_TOL}")
    lo2, ms2 = _trimmed(int(lo), ms)
    return Pmf(lo2, tuple(ms2), is_sub)


# JSON readers: a value of the wrong type is a typed error, not a TypeError
# in a constructor, and int() never truncates 0.5 or reads true as 1

def _json_object(obj: dict | str) -> dict:
    obj = json.loads(obj) if isinstance(obj, str) else obj
    if not isinstance(obj, dict):
        raise MalformedJson(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _json_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise NonIntegerInput(f"{name} {value!r} is not an integer")
    return int(value)


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
                    bool(obj.get("is_sub", False)))


def _contiguous_rows(lines: list[str]) -> tuple[int, list[float]] | None:
    # the common text, one "index mass" row per index from lo up, converted
    # at C level chunk by chunk, so no per-row list outlives its chunk; None
    # for anything else: comments, blanks, gaps, other field counts
    try:
        lo, masses = int(lines[0].split()[0]), []
        for k in range(0, len(lines), 4096):
            fields = list(map(str.split, lines[k:k + 4096]))
            if set(map(len, fields)) != {2}:
                return None
            index = list(map(int, map(itemgetter(0), fields)))
            if index != list(range(lo + k, lo + k + len(index))):
                return None
            masses += map(float, map(itemgetter(1), fields))
    except (IndexError, ValueError):  # no rows, or a field int or float does not read
        return None
    return lo, masses


def pmf_from_text(text: str, is_sub: bool = False) -> Pmf:
    """Parse ``index mass`` lines (or a JSON object) into a Pmf."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return pmf_from_json(stripped)
    lines = stripped.splitlines()
    rows = _contiguous_rows(lines)
    if rows is not None:
        return make_pmf(*rows, is_sub)
    entries: dict[int, float] = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        idx_s, mass_s = line.split()
        idx = int(idx_s)
        if idx in entries:
            raise ValueError(f"duplicate index {idx}")
        entries[idx] = float(mass_s)
    if not entries:
        raise ValueError("no mass entries found")
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


def is_theta_unimodal(p: Pmf, theta: int, tol: float = SHAPE_TOL) -> bool:
    """True iff the mass rises up to ``theta`` and falls after it."""
    if p.is_empty:
        return True
    if theta < p.lo or theta > p.hi:
        # mass strictly outside [lo, hi] is zero, so some positive mass
        # sits on the wrong side of a zero
        return False
    for n in range(p.lo, theta + 1):
        if p.f(n - 1) > p.f(n) + tol:
            return False
    for n in range(theta, p.hi + 1):
        if p.f(n + 1) > p.f(n) + tol:
            return False
    return True


def mode_set(p: Pmf) -> ModeInterval:
    """The set of admissible peak locations, as an interval.

    Scans one index past the window on both sides; outside that range
    the predicate is constantly false for nonempty tables.  A table with
    no mass at all is degenerate and every integer works.
    """
    if p.is_empty:
        return ModeInterval.all_integers()
    hits = [t for t in range(p.lo - 1, p.hi + 2) if is_theta_unimodal(p, t)]
    if not hits:
        return ModeInterval.empty()
    lo, hi = hits[0], hits[-1]
    if hits != list(range(lo, hi + 1)):  # pragma: no cover - provably contiguous
        raise AssertionError("mode set is not contiguous")
    return ModeInterval.bounded(lo, hi)


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


def inverse_cdf(p: Pmf, u: np.ndarray) -> np.ndarray:
    """Map uniforms in ``[0, 1)`` to values of ``p`` by inverse CDF (int64)."""
    cum = np.cumsum(np.asarray(p.masses, dtype=float))
    idx = np.searchsorted(cum, u, side="right")
    return p.lo + np.minimum(idx, len(p.masses) - 1)


_GUIDE_BUCKETS = 4096


class GuideTable:
    """:func:`inverse_cdf` of one ``p`` through a guide table, for many draws.

    The uniform ``u`` lies in bucket ``floor(u * 4096)``, exactly, since
    the scale is a power of two.  A bucket whose open interior holds no
    CDF value maps all of it to the index at its left edge; only draws in
    buckets that hold one go through ``searchsorted`` (Chen & Asau 1974;
    Devroye 1986, III.2).  Values equal :func:`inverse_cdf`'s for every
    ``u`` in ``[0, 1)``.  Building costs two searches of 4096 edges, so
    build once per distribution, not per call.
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
    """Draw ``n`` values by inverse CDF with a seeded generator.

    Identical ``(p, seed, n)`` give identical output; the stream comes
    from ``numpy.random.default_rng(seed)``.
    """
    if p.is_sub:
        raise SubprobabilitySampling("cannot sample from a subprobability")
    if n < 0:
        raise ValueError("sample size must be >= 0")
    if n == 0:
        return []
    return inverse_cdf(p, np.random.default_rng(seed).random(n)).tolist()
