"""Single-observation e-values for monotone and unimodal nulls.

An :class:`EvalFn` is a nonnegative function on the integers given by a
finite table plus constant tails.  The polar checks decide whether such
a function has expectation at most one under every distribution of the
relevant shape class; they are exact because the extreme points of both
classes are uniform blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import gt, mul, sub, truediv

from .errors import (
    InvalidCertificate,
    NegativeSupport,
    NegativeValue,
    NonzeroTail,
    NoViolation,
    NoViolationAt,
)
from .pmf import (PROB_TOL, SHAPE_TOL, Pmf, _check_nonnegative, _json_int, _json_number,
                  _json_numbers, _json_object, is_monotone, is_theta_unimodal)


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

    def at_range(self, a: int, b: int, reverse: bool = False):
        """``self.at(n)`` lazily over ``range(a, b)``, or from ``b - 1`` down."""
        n, lo = len(self.values), self.lo
        i, j = min(max(a - lo, 0), n), min(max(b - lo, 0), n)
        below = repeat(self.left_tail, max(min(b, lo) - a, 0))
        above = repeat(self.right_tail, max(b - max(a, lo + n), 0))
        if reverse:
            return chain(above, islice(reversed(self.values), n - j, n - i), below)
        return chain(below, islice(self.values, i, j), above)

    @classmethod
    def constant(cls, c: float) -> "EvalFn":
        return cls(0, (float(c),), float(c), float(c))

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
        return cls(_json_int(obj["lo"], "lo"),
                   tuple(_json_numbers(obj["values"], "values")),
                   _json_number(obj["left_tail"], "left_tail"),
                   _json_number(obj["right_tail"], "right_tail"))


def _over_block_caps(sums, tol: float = PROB_TOL) -> bool:
    # some running sum through n breaks the uniform blocks' cap n + 1; the
    # oracle and its certificate share this rule, so their verdicts agree
    return any(map(gt, sums, map(mul, map(float, count(1)), repeat(1.0 + tol))))


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
        seqs = [self.rho] + ([self.eta] if self.eta is not None else [])
        for seq in seqs:
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
            sup_r = max(r - (n + 1) for n, r in enumerate(self.rho))
            sup_e = max(r - (n + 1) for n, r in enumerate(self.eta))
            if sup_r + sup_e > PROB_TOL:
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
    charged = list(map((0.0).__lt__, q.masses))
    values = list(compress(e.at_range(q.lo, q.hi + 1), charged))
    if not all(map((0.0).__lt__, values)):
        return float("-inf")
    return math.fsum(map(mul, compress(q.masses, charged), map(math.log, values)))


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
    stay at most ``n + 1`` for every ``n >= 0``, and the right tail must
    not exceed one.  Entries below zero are ignored.
    """
    if e.right_tail > 1.0 + tol:
        return False
    return not _over_block_caps(accumulate(e.at_range(0, max(e.hi, 0) + 1)), tol)


def is_in_polar_D(e: EvalFn, theta: int, tol: float = PROB_TOL) -> bool:
    """Expectation at most one under every distribution peaked at ``theta``.

    Exact via uniform blocks containing ``theta``: with running sums
    ``rho_n = (1 + e(theta))/2 + sum_{k<n} e(theta + k)`` and the
    mirrored ``eta_m``, membership holds iff ``sup(rho_n - n) +
    sup(eta_m - m) <= 0``.  Constant tails make both suprema attainable
    one step past the table.
    """
    if e.at(theta) > 1.0 + tol:
        return False
    if e.right_tail > 1.0 + tol or e.left_tail > 1.0 + tol:
        return False
    start = (1.0 + e.at(theta)) / 2.0
    # one index past the table is enough: increments are constant after
    span = max(e.hi - theta, theta - e.lo, 0) + 2

    def side_sup(side) -> float:
        # max over k of rho_k - (k + 1), rho_k summed in order from start
        return max(map(sub, accumulate(side, initial=start), map(float, count(1))))

    return (side_sup(e.at_range(theta + 1, theta + span + 1))
            + side_sup(e.at_range(theta - span, theta, reverse=True))) <= tol


def polar_certificate_m(e: EvalFn, upto: int) -> PolarCertificate:
    """Running sums of ``e`` through ``upto``; raises if the cap breaks."""
    return PolarCertificate(tuple(accumulate(e.at_range(0, upto + 1), initial=0.0))[1:])


def polar_certificate_d(e: EvalFn, theta: int, upto: int) -> PolarCertificate:
    """Two-sided running sums around ``theta`` through depth ``upto``."""
    start = (1.0 + e.at(theta)) / 2.0
    return PolarCertificate(
        tuple(accumulate(e.at_range(theta + 1, theta + upto + 1), initial=start)),
        tuple(accumulate(e.at_range(theta - upto, theta, reverse=True), initial=start)))


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
    """
    best: tuple[float, int, bool] | None = None  # (bound, location, falling)

    def consider(bound: float, at: int, falling: bool) -> None:
        nonlocal best
        if best is None or bound > best[0]:
            best = (bound, at, falling)

    f = [0.0, *q.masses, 0.0]  # f[n + off] is q.f(n) for q.lo - 1 <= n <= q.hi + 1
    off = 1 - q.lo
    if theta is None:
        if q.lo < 0:
            raise NegativeSupport("monotone witness needs nonnegative support")
        if is_monotone(q):
            raise NoViolation("distribution is non-increasing")
        for m in range(max(0, q.lo - 1), q.hi):
            a, b = f[m + off], f[m + 1 + off]
            if b - a > SHAPE_TOL:
                consider(_rise_bound(a, b), m, False)
    else:
        if is_theta_unimodal(q, theta):
            raise NoViolation(f"distribution is unimodal with peak {theta}")
        # the bound as (b - a) ** 2: pow rounds apart from _rise_bound's product
        for j in range(max(theta, q.lo - 1), q.hi):
            a, b = f[j + off], f[j + 1 + off]
            if b - a > SHAPE_TOL:
                consider((b - a) ** 2 / (4.0 * (a + b)), j, False)
        for i in range(min(theta - 1, q.hi), q.lo - 1, -1):
            a, b = f[i + 1 + off], f[i + off]
            if b - a > SHAPE_TOL:
                consider((b - a) ** 2 / (4.0 * (a + b)), i, True)
    if best is None:
        raise NoViolation("no adjacent-pair violation found")
    _, at, falling = best
    if not falling:
        return wavelet_evalue(q, at)
    lam = wavelet_lambda(q.f(at + 1), q.f(at))
    return EvalFn(at, (1.0 + lam, 1.0 - lam), 1.0, 1.0)
