"""Single-observation e-values for monotone and unimodal nulls.

An :class:`EvalFn` is a nonnegative function on the integers given by a
finite table plus constant tails.  The polar checks decide whether such
a function has expectation at most one under every distribution of the
relevant shape class; they are exact because the extreme points of both
classes are uniform blocks.  Each takes the block sums in one array pass,
a tail run being one piece, and sums exactly where rounding could decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import mul, truediv

import numpy as np

from .errors import (
    InvalidCertificate,
    NegativeSupport,
    NegativeValue,
    NonzeroTail,
    NoViolation,
    NoViolationAt,
)
from .pmf import (PROB_TOL, SHAPE_TOL, Pmf, _check_nonnegative, _json_int, _json_number,
                  _json_numbers, _json_object, _sum_margin, _under_caps, is_monotone,
                  is_theta_unimodal)


@dataclass(frozen=True)
class EvalFn:
    """Table-plus-tails function on the integers.

    ``at(n)`` returns ``values[n - lo]`` inside the window,
    ``left_tail`` below it and ``right_tail`` above it.
    """

    lo: int
    values: tuple[float, ...]
    left_tail: float
    right_tail: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        object.__setattr__(self, "lo", int(self.lo))
        object.__setattr__(self, "left_tail", float(self.left_tail))
        object.__setattr__(self, "right_tail", float(self.right_tail))
        _check_nonnegative(self.values + (self.left_tail, self.right_tail),
                           NegativeValue, "e-value entry")

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def at(self, n: int) -> float:
        if n < self.lo:
            return self.left_tail
        if n > self.hi:
            return self.right_tail
        return self.values[n - self.lo]

    def at_range(self, a: int, b: int):
        """``self.at(n)`` lazily over ``range(a, b)``."""
        n, lo = len(self.values), self.lo
        return chain(repeat(self.left_tail, max(min(b, lo) - a, 0)),
                     islice(self.values, min(max(a - lo, 0), n), min(max(b - lo, 0), n)),
                     repeat(self.right_tail, max(b - max(a, lo + n), 0)))

    def to_json(self) -> dict:
        return {
            "lo": self.lo,
            "values": list(self.values),
            "left_tail": self.left_tail,
            "right_tail": self.right_tail,
        }

    @classmethod
    def from_json(cls, obj: dict | str) -> "EvalFn":
        obj = _json_object(obj)
        lo = _json_int(obj["lo"], "lo")
        _json_number(lo, "lo")  # the polar checks place the table in floats
        return cls(lo, tuple(_json_numbers(obj["values"], "values")),
                   _json_number(obj["left_tail"], "left_tail"),
                   _json_number(obj["right_tail"], "right_tail"))


def _over_block_caps(sums, tol: float = PROB_TOL) -> bool:
    # some running sum through n breaks the uniform blocks' cap (n + 1)(1 + tol):
    # the monotone certificate's rule
    sums = np.asarray(sums, dtype=float)
    caps = np.arange(1, 1 + len(sums), dtype=float) * (1.0 + tol)
    return bool((sums > caps).any())


def _block_excess(sums, tol: float = PROB_TOL) -> float:
    # max over n of rho_n - 1/2 - (n + 1/2)(1 + tol), with sums[0] = rho_0: one
    # side's share of a block's excess over its relative cap, as in is_in_polar_D
    sums = np.asarray(sums, dtype=float)
    return float((sums - 0.5 - (np.arange(len(sums)) + 0.5) * (1.0 + tol)).max())


@dataclass(frozen=True)
class PolarCertificate:
    """Running-sum certificate of polar membership.

    ``rho`` collects partial sums on the rising side; ``eta`` is present
    for the unimodal case and collects the mirrored side.  Both start at
    ``(1 + e(center)) / 2`` in the unimodal case.
    """

    rho: tuple[float, ...]
    eta: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", tuple(float(r) for r in self.rho))
        if self.eta is not None:
            object.__setattr__(self, "eta", tuple(float(r) for r in self.eta))
        for name, seq in (("rho", self.rho), ("eta", self.eta or ())):
            # NaN passes every comparison below; numpy's max would spread it
            # where Python's skips it, so it is refused before the caps
            if any(map(math.isnan, seq)):
                at = next(i for i, r in enumerate(seq) if math.isnan(r))
                raise InvalidCertificate(f"certificate sum {name}[{at}] is NaN")
            if any(b < a - SHAPE_TOL for a, b in zip(seq, seq[1:])):
                raise InvalidCertificate("certificate sums must be non-decreasing")
        if self.eta is None:
            if _over_block_caps(self.rho):
                raise InvalidCertificate("monotone certificate exceeds its cap")
        else:
            if not self.rho or not self.eta:
                raise InvalidCertificate("unimodal certificate needs both sides")
            if abs(self.rho[0] - self.eta[0]) > SHAPE_TOL:
                raise InvalidCertificate("sides must share the starting value")
            if not 0.5 - SHAPE_TOL <= self.rho[0] <= 1.0 + PROB_TOL:
                raise InvalidCertificate("starting value outside [1/2, 1]")
            if _block_excess(self.rho) + _block_excess(self.eta) > 0.0:
                raise InvalidCertificate("certificate sums exceed the joint cap")


# ------------------------------------------------------------ wavelets


def wavelet_lambda(f_m: float, f_m1: float) -> float:
    """Tilt amplitude for the mass pair ``(f_m, f_m1)``; 0/0 gives 0."""
    s = f_m + f_m1
    if s <= 0.0:
        return 0.0
    lam = (f_m1 - f_m) / (2.0 * s)
    if lam < 0.0:
        return 0.0
    return 0.5 if lam > 0.5 else lam


def wavelet_evalue(q: Pmf, m: int) -> EvalFn:
    """Two-point tilt at ``(m, m+1)`` against the local rise in ``q``."""
    lam = wavelet_lambda(q.f(m), q.f(m + 1))
    return EvalFn(m, (1.0 - lam, 1.0 + lam), 1.0, 1.0)


# -------------------------------------------------- scalar functionals


def expectation(e: EvalFn, p: Pmf) -> float:
    """Exact expectation of ``e`` under a finite-window ``p``."""
    return math.fsum(map(mul, p.masses, e.at_range(p.lo, p.hi + 1)))


def epower(e: EvalFn, q: Pmf) -> float:
    """Expected log of ``e`` under ``q``; ``-inf`` when ``e`` vanishes on mass."""
    values, masses = e.at_range(q.lo, q.hi + 1), q.masses
    if 0.0 in masses:  # only the entries q charges count
        charged = list(map((0.0).__lt__, masses))
        values, masses = compress(values, charged), compress(masses, charged)
    values = list(values)
    if not all(map((0.0).__lt__, values)):
        return float("-inf")
    return math.fsum(map(mul, masses, map(math.log, values)))


def _rise_bound(a: float, b: float) -> float:
    # epower_lower_bound for the masses (a, b) = (f(m), f(m+1))
    delta = b - a
    return delta * delta / (4.0 * (a + b))


def epower_lower_bound(q: Pmf, m: int) -> float:
    """Guaranteed growth from the rise of ``q`` at ``(m, m+1)``.

    Returns ``delta^2 / (4 * s)`` where ``delta = f(m+1) - f(m)`` and
    ``s = f(m) + f(m+1)``.  Note the 4 in the denominator: the bound
    comes from ``lam * delta - lam^2 * s`` at ``lam = delta / (2 s)``,
    and the frequently quoted ``delta^2 / (2 s)`` overstates the
    guarantee (masses ``(0.2, 0.4, 0.4)`` at ``m = 0`` have e-power
    about ``0.0252 < 0.0333``).
    """
    a, b = q.f(m), q.f(m + 1)
    if b - a <= 0.0:
        raise NoViolationAt(f"no rise at ({m}, {m + 1})")
    return _rise_bound(a, b)


# ----------------------------------------------------- polar membership


def is_in_polar_M(e: EvalFn, tol: float = PROB_TOL) -> bool:
    """Expectation at most one under every non-increasing distribution.

    Exact via the block criterion: the running sum through ``n`` must
    stay at most ``(n + 1)(1 + tol)`` for every ``n >= 0``, and the right
    tail at most ``1 + tol``; entries below zero are ignored.  This is
    :func:`~evshape.continuous.is_in_polar_U` on the unit grid, where
    ``(k, k + 1]`` carries ``e(k)`` and ``(0, lo]`` the left tail as one
    piece: the cost is the table's, however far it lies from zero.
    """
    if e.right_tail > 1.0 + tol:
        return False
    start = max(e.lo, 1)
    base = _json_number(start, "lo")  # NonFiniteInput past the float range
    areas = (base * e.left_tail,) + e.values if e.lo > 0 else e.values[-e.lo:]
    # breakpoints start .. hi + 1, each rounded once: exact offsets on a
    # float base, as arange steps from rounded ends past 2**53
    offset = start - int(base)
    rights = np.arange(offset, offset + len(areas), dtype=float)
    rights += base
    return _under_caps(rights, np.fromiter(areas, float, len(areas)), tol)


def is_in_polar_D(e: EvalFn, theta: int, tol: float = PROB_TOL) -> bool:
    """Expectation at most one under every distribution peaked at ``theta``.

    Exact via uniform blocks containing ``theta``: each block's sum must
    stay at most its length times ``t = 1 + tol``, and both tails at most
    ``t``.  With ``R`` the largest sum of ``e(theta + k) - t`` over
    ``k = 1..r``, ``r >= 0``, and ``L`` its mirror image, that is
    ``e(theta) - t + R + L <= 0``.  Each side is one array pass, and the
    run of a tail between ``theta`` and the table is one piece of it, its
    sums being linear in its length: the cost is the table's, however far
    ``theta`` lies from it.  Unless the float sums show the sign positive,
    sums in units of ``2**-1074`` decide it exactly, up to the last index
    that could hold a side's largest sum.
    """
    t = 1.0 + tol
    center = e.at(theta)
    if center > t or e.left_tail > t or e.right_tail > t:
        return False
    i, n = theta - e.lo, len(e.values)  # theta's index in the table
    left = min(max(i, 0), n)  # entries below theta
    # each side in walk order: the run of a tail between theta and the
    # table (its length and value), then the table's entries
    sides = ((max(-i - 1, 0), e.left_tail, slice(min(max(i + 1, 0), n), None)),
             (max(i - n, 0), e.right_tail, slice(left - 1, None, -1) if left else slice(0)))
    steps = np.fromiter(e.values, float, n)
    steps -= t
    passes = []
    for gap, tail, cut in sides:  # each side's largest sum, an error bound, its sums
        head = _json_number(gap, "theta's distance to the table") * (tail - t)
        run = steps[cut]
        with np.errstate(all="ignore"):  # inf and nan come silently, as in float code
            err = _sum_margin(len(run) + 1) * (abs(head) + float(np.abs(run).sum()))
            sums = np.cumsum(run, out=run)
            top = max(0.0, head, head + float(np.max(sums, initial=-math.inf)))
        passes.append((top, err, head, sums))
    (r, r_err, *_), (l, l_err, *_) = passes
    c = center - t
    if c + max(r - r_err, 0.0) + max(l - l_err, 0.0) > (abs(c) + r + r_err + l + l_err) * 2.0**-50:
        return False  # positive past the roundings here
    unit = _scaled(t)
    total = _scaled(center) - unit
    for (gap, tail, cut), (top, err, head, sums) in zip(sides, passes):
        if math.isfinite(top + err):  # no sum past the last candidate can be the largest
            candidates = np.flatnonzero(sums >= top - head - 3.0 * err)
            run = e.values[cut][:candidates[-1] + 1] if len(candidates) else ()
        elif math.inf in (run := e.values[cut]):
            return False  # a block holding an infinite entry
        total += max(chain((0,), accumulate((_scaled(v) - unit for v in run),
                                            initial=gap * (_scaled(tail) - unit))))
    return total <= 0


def _scaled(x: float) -> int:
    # x in units of 2**-1074: an integer for every finite float
    n, d = x.as_integer_ratio()  # d is a power of two, at most 2**1074
    return n << (1075 - d.bit_length())


def polar_certificate_m(e: EvalFn, upto: int) -> PolarCertificate:
    """Running sums of ``e`` through ``upto``; raises if the cap breaks."""
    return PolarCertificate(tuple(accumulate(e.at_range(0, upto + 1), initial=0.0))[1:])


def polar_certificate_d(e: EvalFn, theta: int, upto: int) -> PolarCertificate:
    """Two-sided running sums around ``theta`` through depth ``upto``."""
    start = (1.0 + e.at(theta)) / 2.0
    return PolarCertificate(
        tuple(accumulate(e.at_range(theta + 1, theta + upto + 1), initial=start)),
        tuple(accumulate(reversed(list(e.at_range(theta - upto, theta))), initial=start)))


# -------------------------------------------------------- product forms


def xq_evalue(q: Pmf) -> EvalFn:
    """The function ``n -> (n + 1) f_q(n)``, with zero tails."""
    if q.lo < 0:
        raise NegativeSupport("product form needs nonnegative support")
    if q.is_empty:
        return EvalFn(0, (0.0,), 0.0, 0.0)
    values = tuple((n + 1.0) * mass for n, mass in q.items())
    return EvalFn(q.lo, values, 0.0, 0.0)


def is_xq_form(e: EvalFn, tol: float = PROB_TOL) -> bool:
    """True iff ``e(n) / (n + 1)`` sums to at most one.

    Such functions are exactly the products ``(n + 1) q(n)`` over
    subprobabilities ``q``; a nonzero right tail makes the sum diverge.
    """
    if e.lo < 0:
        raise NegativeSupport("product form needs nonnegative support")
    if e.right_tail != 0.0:
        raise NonzeroTail("product form requires a zero right tail")
    s = math.fsum(map(truediv, e.at_range(0, max(e.hi, 0) + 1), map(float, count(1))))
    return s <= 1.0 + tol


# -------------------------------------------------------------- witness


def witness(q: Pmf, theta: int | None = None) -> EvalFn:
    """Best two-point tilt against ``q`` outside the null class.

    With ``theta`` omitted the null is the non-increasing class and the
    scan runs over adjacent pairs; with ``theta`` given both sides of
    the peak are scanned.  The winner maximizes the guaranteed growth
    and has expectation strictly above one under ``q``.

    The winner is the first largest bound in scan order: rising pairs
    upward from ``max(theta, lo - 1)`` (``max(0, lo - 1)`` without
    ``theta``), then falling pairs downward from ``min(theta - 1, hi)``,
    over the pairs whose rise ``d = b - a`` exceeds ``SHAPE_TOL``.  One
    array pass takes every hint ``d * d / den``, ``den = 4 (a + b)``:
    without ``theta`` that is :func:`_rise_bound`'s bound, bit for bit.
    With ``theta`` the bound is ``d ** 2 / den``, and libm's ``pow`` may
    round apart from the product.  While ``d < 2**511`` nothing overflows,
    and as ``d > 1e-12`` and ``d >= b * 2**-54`` every bound is at least
    ``1e-12 * 2**-57``, never subnormal; so three roundings and a ``pow``
    within 1 ulp put ``d ** 2 / den`` within a factor ``1 + 6u`` of the
    hint (``u = 2**-53``).  A hint below ``1 - 2**-40`` times the largest
    then marks a bound below the largest hint's, so only the bounds within
    that margin are recomputed in Python, in scan order, and the first
    largest wins.  Past ``2**511`` every bound is recomputed, inf and nan
    included.
    """
    if theta is None:
        if q.lo < 0:
            raise NegativeSupport("monotone witness needs nonnegative support")
        if is_monotone(q):
            raise NoViolation("distribution is non-increasing")
    elif is_theta_unimodal(q, theta):
        raise NoViolation(f"distribution is unimodal with peak {theta}")
    n = len(q.masses)
    f = np.zeros(n + 2)  # f[k + off] is q.f(k) for lo - 1 <= k <= hi + 1
    f[1:-1] = q.masses
    off = 1 - q.lo
    up = min(max(0 if theta is None else theta, q.lo - 1), q.hi) + off  # first rising pair
    down = 0 if theta is None else max(min(theta - 1, q.hi), q.lo - 1) + off  # first falling
    a = np.concatenate((f[up:n], f[down + 1:1:-1]))
    b = np.concatenate((f[up + 1:n + 1], f[down:0:-1]))
    with np.errstate(all="ignore"):  # inf and nan come silently, as in float code
        d = b - a
        pairs = np.flatnonzero(d > SHAPE_TOL)  # the pairs that rise, in scan order
        d, den = d[pairs], 4.0 * (a[pairs] + b[pairs])
        hint = d * d / den
    if not len(pairs):
        raise NoViolation("no adjacent-pair violation found")
    near = (np.arange(len(d)) if d.max() >= 2.0**511
            else np.flatnonzero(hint >= hint.max() * (1.0 - 2.0**-40)))
    rises = zip(d[near].tolist(), den[near].tolist())
    bounds = [x * x / y if theta is None else x ** 2 / y for x, y in rises]
    k = int(pairs[near[bounds.index(max(bounds))]])
    if k < n - up:
        return wavelet_evalue(q, up + k - off)
    at = down - (k - (n - up)) - off
    lam = wavelet_lambda(q.f(at + 1), q.f(at))
    return EvalFn(at, (1.0 + lam, 1.0 - lam), 1.0, 1.0)
