"""Deterministic Monte Carlo experiment runner.

Every replication derives its own generator seed from the master seed
and the replication index through a SplitMix64 mix, so reports are
reproducible byte-for-byte for a given config and identical no matter
how many worker processes share the replications.  Aggregation always
reduces records in replication order.

The ``type1`` scenario runs all replications side by side as numpy
rows, maintaining the mixture sum incrementally (two touched locations
per observation) with an exact resync every ``_RESYNC_EVERY`` steps.
Draws are streamed in blocks of that many columns: each replication's
generator fills its row of a ``(reps, _RESYNC_EVERY)`` block of
uniforms, so memory is bounded by ``reps * (support + _RESYNC_EVERY)``
rather than ``reps * n``.  PCG64 ``random()`` yields the same stream
whatever the block size, so the draws, and with them every report
digest, equal those of :func:`sample`.

``unrestricted_power`` and ``mode_settlement`` run one replication at a
time but a block of steps at once: ``eprocess._tilt_rows`` returns the
family's dense log tables after every step of the block as ``(side,
steps, sites)`` arrays, and each scenario evaluates its per-step query
on whole blocks with the evaluator of ``UnimodalFamily.values_range``
(``eprocess.peak_weights``, ``peak_values``) and the rules of
``mode.first_window`` and ``mode.estimate_scan``.  These tables differ
from the trackers' in the last place (``numpy.log`` against
``math.log``); the records, booleans and integers, are those of
``UnrestrictedTest`` and of ``mode_estimate`` on a ``UnimodalFamily``.
``growth`` and ``numeraire_compare`` report float logs, pinned to
``math.log``, so they keep driving the tracker objects.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .eprocess import (
    MonotoneTracker,
    _lambdas,
    _tilt_rows,
    numeraire_eprocess,
    peak_values,
    peak_weights,
)
from .errors import ConfigError, EvshapeError
from .mode import estimate_scan, first_window, one_obs_ci
from .numeraire import _numeraire_with_epower, lcm
from .pmf import Pmf, inverse_cdf, mode_set, pmf_from_json, sample

SCENARIOS = (
    "type1",
    "growth",
    "ci_coverage",
    "mode_settlement",
    "unrestricted_power",
    "numeraire_compare",
)

_MASK64 = (1 << 64) - 1
# SplitMix64: golden-ratio increment and the two finalizer multipliers
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_RESYNC_EVERY = 256
# family blocks of the sequential scenarios: at most this many steps, and
# at most this many cells in a caller's (steps x cells per step) temporary
_BLOCK_STEPS = 256
_BLOCK_CELLS = 1 << 15


def derive_seed(master: int, index: int) -> int:
    """Per-replication seed: SplitMix64 output ``index + 1`` steps in."""
    z = (master + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def worker_count() -> int:
    raw = os.environ.get("EVSHAPE_WORKERS", "1")
    try:
        w = int(raw)
    except ValueError:
        raise ConfigError(f"EVSHAPE_WORKERS={raw!r} is not an integer")
    if w < 1:
        raise ConfigError(f"EVSHAPE_WORKERS must be >= 1, got {w}")
    return w


def pool_size(requested: int, reps: int, cpus: int | None) -> int:
    """Worker processes to start: at most one per replication and per CPU."""
    return max(1, min(requested, reps, cpus or 1))


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment: scenario name, distribution, sizes, knobs."""

    scenario: str
    distribution: Pmf
    n: int
    reps: int
    alpha: float
    seed: int = 0
    theta: int | None = None
    phi: int | None = None
    clip: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"scenario {self.scenario!r} not one of {', '.join(SCENARIOS)}"
            )
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0 <= self.seed <= _MASK64:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")
        if self.distribution.is_sub or self.distribution.is_empty:
            raise ConfigError("distribution must be a full probability")
        if self.clip is not None:
            lo, hi = self.clip
            if lo > hi:
                raise ConfigError(f"clip window ({lo}, {hi}) is empty")
        if self.scenario in ("type1", "growth", "numeraire_compare"):
            if self.distribution.lo < 0:
                raise ConfigError(
                    f"scenario {self.scenario} needs nonnegative support, "
                    f"distribution starts at {self.distribution.lo}"
                )
        if self.scenario == "unrestricted_power" and self.resolved_phi == 0:
            raise ConfigError("unrestricted_power needs a nonzero phi")

    @property
    def resolved_phi(self) -> int:
        if self.phi is not None:
            return self.phi
        return 1 if self.scenario == "unrestricted_power" else 0

    @property
    def resolved_clip(self) -> tuple[int, int]:
        return self.clip if self.clip is not None else (-20, 20)

    def to_json(self) -> dict:
        out = {
            "scenario": self.scenario,
            "distribution": self.distribution.to_json(),
            "n": self.n,
            "reps": self.reps,
            "alpha": self.alpha,
            "seed": self.seed,
        }
        if self.theta is not None:
            out["theta"] = self.theta
        if self.phi is not None:
            out["phi"] = self.phi
        if self.clip is not None:
            out["clip"] = list(self.clip)
        return out


_CONFIG_KEYS = {
    "scenario", "distribution", "n", "reps", "alpha", "seed",
    "theta", "phi", "clip",
}


def config_from_json(obj: dict | str) -> ScenarioConfig:
    if isinstance(obj, str):
        obj = json.loads(obj)
    unknown = sorted(set(obj) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    for key in ("scenario", "distribution", "n", "reps", "alpha"):
        if key not in obj:
            raise ConfigError(f"config is missing required field {key!r}")
    try:
        dist = pmf_from_json(obj["distribution"])
    except (EvshapeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad distribution: {exc}") from exc
    clip = obj.get("clip")
    return ScenarioConfig(
        scenario=str(obj["scenario"]),
        distribution=dist,
        n=int(obj["n"]),
        reps=int(obj["reps"]),
        alpha=float(obj["alpha"]),
        seed=int(obj.get("seed", 0)),
        theta=None if obj.get("theta") is None else int(obj["theta"]),
        phi=None if obj.get("phi") is None else int(obj["phi"]),
        clip=None if clip is None else (int(clip[0]), int(clip[1])),
    )


@dataclass(frozen=True)
class RunReport:
    """Per-replication records plus order-independent aggregates."""

    config: dict
    library_version: str
    records: tuple = ()
    aggregates: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "library_version": self.library_version,
            "records": list(self.records),
            "aggregates": self.aggregates,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def aggregates_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["metric", "value"])
        for key in sorted(self.aggregates):
            writer.writerow([key, self.aggregates[key]])
        return buf.getvalue()


def _binomial_se(rate: float, reps: int) -> float:
    return math.sqrt(rate * (1.0 - rate) / reps)


def _mean(values) -> float:
    vals = list(values)
    return math.fsum(vals) / len(vals) if vals else 0.0


# ----------------------------------------------------- scenario: type1


def _run_type1(c: ScenarioConfig) -> tuple[list[dict], dict]:
    p = c.distribution
    reps, n = c.reps, c.n
    threshold = 1.0 / c.alpha
    hi = p.hi
    rngs = [np.random.default_rng(derive_seed(c.seed, r)) for r in range(reps)]

    # Flat state, one row of ``width`` cells per replication; cell k of a
    # row stands for location k - 1.  Location -1 carries weight zero, so
    # rows with x = 0 take the same steps as every other row: the product
    # there is capped at exp(700) and stays finite, and the mixture gains
    # exactly 0.0.  Location hi + 1 is never tilted; it only holds counts.
    width = hi + 3
    counts = np.zeros(reps * width)
    counts_up = counts[1:]  # counts_up[cell] is the count one location up
    lf = np.zeros(reps * width)
    lf_exp = np.ones(reps * width)  # exp(min(lf, 700)) of each cell
    weights = np.exp2(-(np.arange(hi + 1) + 1.0))
    cell_w = np.tile(np.concatenate([[0.0], weights, [0.0]]), reps)
    residual = 2.0 ** (-(hi + 1))
    mix_sum = np.full(reps, float(weights.sum()))
    crossed = np.zeros(reps, dtype=bool)
    cross_time = np.full(reps, -1, dtype=np.int64)
    # x + offsets: row 0 the cell of location x, row 1 of location x - 1
    offsets = np.arange(reps) * width + np.array([[1], [0]])
    # tilt at location x uses factor 1 - lam, at location x - 1 factor 1 + lam
    sign = np.array([[-1.0], [1.0]])
    u = np.empty((reps, _RESYNC_EVERY))
    # mixture sum after each step of a block; crossings are read off it
    trail = np.empty((_RESYNC_EVERY, reps))

    def resync() -> None:
        tail = lf_exp.reshape(reps, width)[:, 1:hi + 2]
        mix_sum[:] = (weights[None, :] * tail).sum(axis=1)

    for start in range(0, n, _RESYNC_EVERY):
        m = min(_RESYNC_EVERY, n - start)
        for r, rng in enumerate(rngs):
            rng.random(out=u[r, :m])
        xs = np.ascontiguousarray(inverse_cdf(p, u[:, :m]).T)
        for k in range(m):
            cell = xs[k] + offsets
            c_lo = counts[cell]
            c_hi = counts_up[cell]
            new = lf[cell] + np.log1p(sign * _lambdas(c_lo, c_hi))
            lf[cell] = new
            new_exp = np.exp(np.minimum(new, 700.0))
            delta = cell_w[cell] * (new_exp - lf_exp[cell])
            lf_exp[cell] = new_exp
            # location x first, then x - 1: reports are pinned to this order
            mix_sum += delta[0]
            mix_sum += delta[1]
            counts[cell[0]] = c_lo[0] + 1.0
            trail[k] = mix_sum
        if m == _RESYNC_EVERY:
            resync()
            trail[m - 1] = mix_sum
        hit = (trail[:m] + residual >= threshold) & ~crossed[None, :]
        newly = hit.any(axis=0)
        if newly.any():
            cross_time[newly] = start + 1 + hit[:, newly].argmax(axis=0)
            crossed |= newly

    resync()
    terminal = np.log(mix_sum + residual)
    records = [
        {
            "rep": r,
            "crossed": bool(crossed[r]),
            "crossing_time": int(cross_time[r]) if crossed[r] else None,
            "terminal_log": float(terminal[r]),
        }
        for r in range(reps)
    ]
    rate = float(crossed.sum()) / reps
    aggregates = {
        "crossing_rate": rate,
        "crossing_rate_se": _binomial_se(rate, reps),
        "threshold": threshold,
        "mean_terminal_log": _mean(rec["terminal_log"] for rec in records),
    }
    return records, aggregates


# ------------------------------------------- per-replication scenarios


def _rep_growth(c: ScenarioConfig, rep: int) -> dict:
    tracker = MonotoneTracker()
    for x in sample(c.distribution, derive_seed(c.seed, rep), c.n):
        tracker.update(x)
    terminal = tracker.mixture_value()
    return {"rep": rep, "terminal_log": terminal, "rate": terminal / c.n}


def _draws(c: ScenarioConfig, rep: int):
    """A replication's next ``m`` draws, as ``draw(m)``.

    PCG64 ``random()`` gives the same stream in any block size, so the
    values are those of :func:`sample`.
    """
    rng = np.random.default_rng(derive_seed(c.seed, rep))
    return lambda m: inverse_cdf(c.distribution, rng.random(m))


def _family_blocks(c: ScenarioConfig, draw, first: int, cells_per_step: int):
    """Fold draws ``first`` to ``c.n - 1`` into one fresh dense family.

    Yields ``(start, xs, logs)`` per block of draws ``xs``: the log
    tables after every step of the block (see ``eprocess._tilt_rows``),
    over every site the draws can touch, ``p.lo - 1`` to ``p.hi + 1``.
    Blocks are sized by the caller's cells per step.
    """
    p = c.distribution
    steps = max(1, min(_BLOCK_STEPS, _BLOCK_CELLS // cells_per_step))
    counts = np.zeros(p.hi - p.lo + 3)
    rise = fall = counts
    for start in range(first, c.n, steps):
        xs = draw(min(steps, c.n - start))
        counts, logs = _tilt_rows(counts, rise, fall, xs - (p.lo - 1))
        yield start, xs, logs
        rise, fall = logs[:, -1]


@functools.lru_cache(maxsize=1)
def _estimate_scans(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``mode.estimate_scan`` at steps 1..n as read-only arrays; a margin of
    ``None`` becomes ``-inf``, a window holding no peak."""
    margin, log_tau = zip(*(estimate_scan(k) for k in range(1, n + 1)))
    margin = np.array([-math.inf if m is None else m for m in margin])
    log_tau = np.array(log_tau)
    margin.flags.writeable = log_tau.flags.writeable = False
    return margin, log_tau


def _rep_settlement(c: ScenarioConfig, rep: int) -> dict:
    p = c.distribution
    clip = c.resolved_clip
    peaks = np.arange(clip[0], clip[1] + 1)
    sites = np.arange(p.lo - 1, p.hi + 2)
    weights = peak_weights(sites, peaks)
    margin, log_tau = _estimate_scans(c.n)
    # ``current == ()`` before the first step: every peak counts as rejected
    rejected = np.ones(len(peaks), dtype=bool)
    last_change = 0
    lo, hi = math.inf, -math.inf
    for start, xs, logs in _family_blocks(c, _draws(c, rep), 0, weights[0].size):
        # mode_estimate at each step of the block, cut to the clip
        values = peak_values(logs, weights)
        run_lo = np.minimum(np.minimum.accumulate(xs), lo)
        run_hi = np.maximum(np.maximum.accumulate(xs), hi)
        lo, hi = run_lo[-1], run_hi[-1]
        at = slice(start, start + len(xs))
        by_step = ((peaks >= (run_lo - margin[at])[:, None])
                   & (peaks <= (run_hi + margin[at])[:, None])
                   & (values > log_tau[at, None]))
        before = np.vstack([rejected, by_step[:-1]])
        changed = np.flatnonzero((by_step != before).any(axis=1))
        if len(changed):
            last_change = start + int(changed[-1]) + 1
        rejected = by_step[-1]
    current = tuple(peaks[~rejected].tolist())
    target = mode_set(c.distribution)
    target_members = tuple(
        t for t in range(clip[0], clip[1] + 1) if target.contains(t)
    )
    return {
        "rep": rep,
        "final_set": list(current),
        "target_set": list(target_members),
        "matches_target": current == target_members,
        "last_change_n": last_change,
    }


def _rep_unrestricted(c: ScenarioConfig, rep: int) -> dict:
    p = c.distribution
    log_threshold = math.log(3.0 / c.alpha)
    # UnrestrictedTest's prefilter on the value at its tracked peak
    log_cut = math.log(0.99 * (3.0 / c.alpha))
    sites = np.arange(p.lo - 1, p.hi + 2)
    draw = _draws(c, rep)
    window, theta0 = first_window(int(draw(1)[0]), c.alpha, c.resolved_phi)
    tracked = peak_weights(sites, [theta0])
    for start, _, logs in _family_blocks(c, draw, 1, len(sites)):
        k = 0
        while k < logs.shape[1]:
            over = np.flatnonzero(peak_values(logs[:, k:], tracked)[:, 0] >= log_cut)
            if not len(over):
                break
            k += int(over[0])
            # the full scan of this step's tables
            peaks = np.arange(window[0], window[1] + 1)
            vals = peak_values(logs[:, k], peak_weights(sites, peaks))
            j = int(vals.argmin())
            if float(vals[j]) >= log_threshold:
                return {"rep": rep, "rejected": True, "reject_n": start + k + 1}
            tracked = peak_weights(sites, [window[0] + j])
            k += 1
    return {"rep": rep, "rejected": False, "reject_n": None}


def _rep_numeraire(c: ScenarioConfig, rep: int) -> dict:
    obs = sample(c.distribution, derive_seed(c.seed, rep), c.n)
    log_opt = numeraire_eprocess(c.distribution, obs)
    tracker = MonotoneTracker()
    for x in obs:
        tracker.update(x)
    return {
        "rep": rep,
        "numeraire_rate": log_opt / c.n,
        "mixture_rate": tracker.mixture_value() / c.n,
    }


_REP_FNS = {
    "growth": _rep_growth,
    "mode_settlement": _rep_settlement,
    "unrestricted_power": _rep_unrestricted,
    "numeraire_compare": _rep_numeraire,
}


def _rep_task(packed: tuple) -> dict:
    config_json, rep = packed
    c = config_from_json(config_json)
    return _REP_FNS[c.scenario](c, rep)


def _map_reps(c: ScenarioConfig) -> list[dict]:
    workers = pool_size(worker_count(), c.reps, os.cpu_count())
    if workers == 1:
        fn = _REP_FNS[c.scenario]
        return [fn(c, rep) for rep in range(c.reps)]
    tasks = [(c.to_json(), rep) for rep in range(c.reps)]
    chunk = max(1, c.reps // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        records = list(pool.map(_rep_task, tasks, chunksize=chunk))
    records.sort(key=lambda rec: rec["rep"])
    return records


def _run_growth(c: ScenarioConfig) -> tuple[list[dict], dict]:
    records = _map_reps(c)
    rates = [rec["rate"] for rec in records]
    return records, {
        "mean_rate": _mean(rates),
        "min_rate": min(rates),
        "max_rate": max(rates),
    }


def _run_settlement(c: ScenarioConfig) -> tuple[list[dict], dict]:
    records = _map_reps(c)
    return records, {
        "all_match_target": all(rec["matches_target"] for rec in records),
        "max_last_change_n": max(rec["last_change_n"] for rec in records),
    }


def _run_unrestricted(c: ScenarioConfig) -> tuple[list[dict], dict]:
    records = _map_reps(c)
    rate = sum(1 for rec in records if rec["rejected"]) / c.reps
    times = [rec["reject_n"] for rec in records if rec["rejected"]]
    return records, {
        "rejection_rate": rate,
        "rejection_rate_se": _binomial_se(rate, c.reps),
        "max_reject_n": max(times) if times else None,
        "mean_reject_n": _mean(times) if times else None,
    }


def _run_numeraire_compare(c: ScenarioConfig) -> tuple[list[dict], dict]:
    records = _map_reps(c)
    q = c.distribution
    res = lcm(q)
    return records, {
        "analytic_epower": _numeraire_with_epower(q, res.fitted_masses())[1],
        "mean_numeraire_rate": _mean(rec["numeraire_rate"] for rec in records),
        "mean_mixture_rate": _mean(rec["mixture_rate"] for rec in records),
        "lcm_contacts": list(res.contacts),
        "lcm_slopes": list(res.slopes),
    }


# ----------------------------------------------- scenario: ci_coverage


def _run_ci_coverage(c: ScenarioConfig) -> tuple[list[dict], dict]:
    p = c.distribution
    phi = c.resolved_phi
    modes = mode_set(p)
    mode_members = (
        [t for t in range(p.lo - 1, p.hi + 2) if modes.contains(t)]
        if not modes.is_all
        else []
    )
    simultaneous = []
    per_theta = {t: [] for t in mode_members}
    for x, mass in p.items():
        if mass == 0.0:
            continue
        ci = one_obs_ci(x, c.alpha, phi)
        if all(ci.contains(t) for t in mode_members):
            simultaneous.append(mass)
        for t in mode_members:
            if ci.contains(t):
                per_theta[t].append(mass)
    coverage = math.fsum(simultaneous)
    theta_cov = {t: math.fsum(ms) for t, ms in per_theta.items()}
    records = [
        {
            "mode_set": modes.to_json(),
            "coverage_all_modes": coverage,
            "coverage_by_mode": {str(t): v for t, v in sorted(theta_cov.items())},
        }
    ]
    aggregates = {
        "coverage_all_modes": coverage,
        "min_mode_coverage": min(theta_cov.values()) if theta_cov else 1.0,
        "target": 1.0 - c.alpha,
    }
    return records, aggregates


_RUNNERS = {
    "type1": _run_type1,
    "growth": _run_growth,
    "ci_coverage": _run_ci_coverage,
    "mode_settlement": _run_settlement,
    "unrestricted_power": _run_unrestricted,
    "numeraire_compare": _run_numeraire_compare,
}


def run_experiment(c: ScenarioConfig) -> RunReport:
    """Execute one scenario; the report is a pure function of the config."""
    from evshape import __version__

    records, aggregates = _RUNNERS[c.scenario](c)
    return RunReport(
        config=c.to_json(),
        library_version=__version__,
        records=tuple(records),
        aggregates=aggregates,
    )
