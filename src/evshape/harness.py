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

The other four scenarios run replications as rows too.
:func:`_map_reps` cuts the replications into chunks, spread over the
worker processes, and each chunk draws one row per replication from
that replication's own generator, through a ``pmf.GuideTable`` built
once per scenario.  A chunk holds as many whole replications as fit one
block of ``_BLOCK_CELLS`` cells, or else one replication in blocks of
steps; a record depends on its replication alone, whatever the chunking.

``unrestricted_power`` and ``mode_settlement`` fold the rows in blocks:
``eprocess._tilt_rows`` returns every row's dense family log tables after
every step of the block as ``(side, row, step, site)`` arrays, and each
scenario evaluates its per-step query on whole blocks with the evaluator
of ``UnimodalFamily.values_range`` (``eprocess.peak_weights``,
``peak_values``) and the rules of ``mode.first_window`` and
``mode.estimate_scan``.  Rows of the free test that reject are dropped,
and a chunk ends when none is left.  These tables differ from the
trackers' in the last place (``numpy.log`` against ``math.log``); the
records, booleans and integers, are those of ``UnrestrictedTest`` and of
``mode_estimate`` on a ``UnimodalFamily``.

``growth`` and ``numeraire_compare`` report float logs, pinned to
``math.log`` and to the trackers' order of additions.
``eprocess._MonotoneRows`` folds every row's ``MonotoneTracker`` state
block by block in a sorted pass that keeps both, so the floats are the
tracker's bit for bit; the numeraire e-process adds up a table of
``math.log`` values from the one majorant fit of the scenario.
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
    _lambdas,
    _MonotoneRows,
    _numeraire_logs,
    _numeraire_sums,
    _tilt_rows,
    peak_values,
    peak_weights,
)
from .errors import ConfigError, EvshapeError
from .mode import estimate_scan, first_window, one_obs_ci
from .numeraire import _numeraire_with_epower, lcm
from .pmf import GuideTable, Pmf, mode_set, pmf_from_json
from .pmf import sample  # noqa: F401 - kept as harness.sample, which perfbench patches

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
# blocks of the per-replication scenarios: at most this many cells of a
# (rows x steps x cells per step) temporary
_BLOCK_CELLS = 1 << 16
# cells the monotone fold holds per observation: two events, each in some
# ten numpy arrays and two lists of Python floats
_FOLD_CELLS = 32


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
    draw = GuideTable(p)

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
        xs = np.ascontiguousarray(draw(u[:, :m]).T)
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


class _Rows:
    """A chunk of replications as the rows of blocks of draws.

    Each row draws from its own ``default_rng(derive_seed(seed, rep))``;
    PCG64 ``random()`` gives the same stream in any block size, so a
    row's draws are those of :func:`sample`.  :meth:`takes` yields them
    block by block, and :meth:`blocks` also folds them into the row's own
    dense family over every site the draws can touch, ``p.lo - 1`` to
    ``p.hi + 1``.  Rows whose replication has stopped can be dropped
    between blocks.
    """

    def __init__(self, c: ScenarioConfig, reps: range, draw: GuideTable) -> None:
        p = c.distribution
        self.n, self.draw, self.offset = c.n, draw, p.lo - 1
        self.rngs = [np.random.default_rng(derive_seed(c.seed, r)) for r in reps]
        self.counts = np.zeros((len(reps), p.hi - p.lo + 3))
        self.tables = np.zeros((2,) + self.counts.shape)

    def take(self, m: int) -> np.ndarray:
        """The next ``m`` draws of every row, ``(row, m)``."""
        u = np.empty((len(self.rngs), m))
        for rng, row in zip(self.rngs, u):
            rng.random(out=row)
        return self.draw(u)

    def takes(self, start: int, cells_per_step: int):
        """Draws ``start`` to ``n - 1``, as ``(start, xs)`` per block of at
        most ``_BLOCK_CELLS`` cells at ``cells_per_step`` per row and step;
        they end early when no row is left."""
        while start < self.n and self.rngs:
            steps = _BLOCK_CELLS // (len(self.rngs) * cells_per_step)
            xs = self.take(max(1, min(steps, self.n - start)))
            yield start, xs
            start += xs.shape[1]

    def blocks(self, start: int, cells_per_step: int):
        """:meth:`takes`, folded into the families: ``(start, xs, logs)``
        with the log tables after every step (see ``eprocess._tilt_rows``)."""
        for start, xs in self.takes(start, cells_per_step):
            self.counts, logs = _tilt_rows(self.counts, *self.tables,
                                           xs - self.offset)
            self.tables = logs[:, :, -1].copy()
            yield start, xs, logs

    def drop(self, rows: list[int]) -> None:
        keep = np.setdiff1d(np.arange(len(self.rngs)), rows)
        self.rngs = [self.rngs[i] for i in keep]
        self.counts, self.tables = self.counts[keep], self.tables[:, keep]


def _fold_monotone(c: ScenarioConfig, reps: range, draw: GuideTable, logs=None):
    """Every row's ``MonotoneTracker`` state after all its draws, and with
    ``logs`` (see ``eprocess._numeraire_logs``) its numeraire log product."""
    rows, fold = _Rows(c, reps, draw), _MonotoneRows(len(reps), c.distribution.hi)
    log_opt = np.zeros(len(reps))
    for _, xs in rows.takes(0, _FOLD_CELLS):
        fold.fold(xs)
        if logs is not None:
            log_opt = _numeraire_sums(logs, xs, log_opt)
    return fold, log_opt.tolist()


def _chunk_growth(c: ScenarioConfig, reps: range, draw: GuideTable) -> list[dict]:
    fold, _ = _fold_monotone(c, reps, draw)
    records = []
    for row, rep in enumerate(reps):
        terminal = fold.tracker(row).mixture_value()
        records.append({"rep": rep, "terminal_log": terminal, "rate": terminal / c.n})
    return records


def _chunk_numeraire(c: ScenarioConfig, reps: range, draw: GuideTable,
                     logs: np.ndarray) -> list[dict]:
    fold, log_opt = _fold_monotone(c, reps, draw, logs)
    return [
        {
            "rep": rep,
            "numeraire_rate": log_opt[row] / c.n,
            "mixture_rate": fold.tracker(row).mixture_value() / c.n,
        }
        for row, rep in enumerate(reps)
    ]


@functools.lru_cache(maxsize=1)
def _estimate_scans(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``mode.estimate_scan`` at steps 1..n as read-only arrays; a margin of
    ``None`` becomes ``-inf``, a window holding no peak."""
    margin, log_tau = zip(*(estimate_scan(k) for k in range(1, n + 1)))
    margin = np.array([-math.inf if m is None else m for m in margin])
    log_tau = np.array(log_tau)
    margin.flags.writeable = log_tau.flags.writeable = False
    return margin, log_tau


def _family_cells(c: ScenarioConfig, peaks: int) -> int:
    """Cells per row and step of a family block evaluated at ``peaks``
    peaks, in its two largest arrays: the log tables, one cell per (side,
    site), and the terms of ``eprocess.peak_values``, one per (side, site,
    peak) and one per peak for the leftover weight."""
    sides = 2 * (c.distribution.hi - c.distribution.lo + 3)
    return sides + (sides + 1) * peaks


def _clip_peaks(c: ScenarioConfig) -> np.ndarray:
    clip = c.resolved_clip
    return np.arange(clip[0], clip[1] + 1)


def _chunk_settlement(c: ScenarioConfig, reps: range, draw: GuideTable) -> list[dict]:
    p = c.distribution
    peaks = _clip_peaks(c)
    weights = peak_weights(np.arange(p.lo - 1, p.hi + 2), peaks)
    margin, log_tau = _estimate_scans(c.n)
    # ``current == ()`` before the first step: every peak counts as rejected
    rejected = np.ones((len(reps), len(peaks)), dtype=bool)
    last_change = np.zeros(len(reps), dtype=np.int64)
    lo, hi = np.full((len(reps), 1), math.inf), np.full((len(reps), 1), -math.inf)
    rows = _Rows(c, reps, draw)
    for start, xs, logs in rows.blocks(0, _family_cells(c, len(peaks))):
        # mode_estimate at each step of the block, cut to the clip
        values = peak_values(logs, weights)
        run_lo = np.minimum(np.minimum.accumulate(xs, axis=1), lo)
        run_hi = np.maximum(np.maximum.accumulate(xs, axis=1), hi)
        lo, hi = run_lo[:, -1:], run_hi[:, -1:]
        at = slice(start, start + xs.shape[1])
        by_step = ((peaks >= (run_lo - margin[at])[..., None])
                   & (peaks <= (run_hi + margin[at])[..., None])
                   & (values > log_tau[at, None]))
        before = np.concatenate([rejected[:, None], by_step[:, :-1]], axis=1)
        changed = (by_step != before).any(axis=2)
        moved = changed.any(axis=1)
        last_step = changed.shape[1] - changed[:, ::-1].argmax(axis=1)
        last_change[moved] = start + last_step[moved]
        rejected = by_step[:, -1]
    target = mode_set(p)
    target_members = tuple(t for t in peaks.tolist() if target.contains(t))
    records = []
    for rep, row, last in zip(reps, rejected, last_change.tolist()):
        current = tuple(peaks[~row].tolist())
        records.append({
            "rep": rep,
            "final_set": list(current),
            "target_set": list(target_members),
            "matches_target": current == target_members,
            "last_change_n": last,
        })
    return records


def _chunk_unrestricted(c: ScenarioConfig, reps: range, draw: GuideTable) -> list[dict]:
    p = c.distribution
    log_threshold = math.log(3.0 / c.alpha)
    # UnrestrictedTest's prefilter on the value at its tracked peak
    log_cut = math.log(0.99 * (3.0 / c.alpha))
    sites = np.arange(p.lo - 1, p.hi + 2)
    rows = _Rows(c, reps, draw)
    windows, tracked = zip(*(first_window(x, c.alpha, c.resolved_phi)
                             for x in rows.take(1)[:, 0].tolist()))
    tracked = np.array(tracked)
    records = [{"rep": rep, "rejected": False, "reject_n": None} for rep in reps]
    live = list(range(len(reps)))  # record index of each row
    for start, _, logs in rows.blocks(1, _family_cells(c, 1)):
        vals = peak_values(logs, peak_weights(sites, tracked[live, None]))[..., 0]
        stopped = []
        for i in np.flatnonzero((vals >= log_cut).any(axis=1)).tolist():
            rec = live[i]
            lo, hi = windows[rec]
            over = np.flatnonzero(vals[i] >= log_cut)
            k = 0
            while len(over):
                k += int(over[0])
                # the full scan of this step's tables
                peaks = np.arange(lo, hi + 1)
                scan = peak_values(logs[:, i, k], peak_weights(sites, peaks))
                j = int(scan.argmin())
                if float(scan[j]) >= log_threshold:
                    records[rec].update(rejected=True, reject_n=start + k + 1)
                    stopped.append(i)
                    break
                tracked[rec] = lo + j
                k += 1
                rest = peak_values(logs[:, i, k:], peak_weights(sites, [lo + j]))
                over = np.flatnonzero(rest[:, 0] >= log_cut)
        if stopped:
            rows.drop(stopped)
            live = [rec for i, rec in enumerate(live) if i not in stopped]
    return records


def _chunk_task(packed: tuple) -> list[dict]:
    fn, config_json, reps, shared = packed
    return fn(config_from_json(config_json), reps, *shared)


def _map_reps(c: ScenarioConfig, fn, cells_per_rep: int, *shared) -> list[dict]:
    """Records of every replication, in order, from ``fn(c, reps, *shared)``
    on chunks of consecutive replications: as many as fit ``_BLOCK_CELLS``
    at ``cells_per_rep`` each, at least one.  Chunks go to the worker
    processes; each replication's record depends on nothing else, so the
    chunking and the worker count do not change it."""
    size = max(1, _BLOCK_CELLS // cells_per_rep)
    chunks = [range(a, min(a + size, c.reps)) for a in range(0, c.reps, size)]
    workers = pool_size(worker_count(), len(chunks), os.cpu_count())
    if workers == 1:
        return [rec for reps in chunks for rec in fn(c, reps, *shared)]
    tasks = [(fn, c.to_json(), reps, shared) for reps in chunks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_chunk_task, tasks,
                              chunksize=max(1, len(tasks) // (workers * 4))))
    return [rec for part in parts for rec in part]


def _run_growth(c: ScenarioConfig) -> tuple[list[dict], dict]:
    records = _map_reps(c, _chunk_growth, _FOLD_CELLS * c.n, GuideTable(c.distribution))
    rates = [rec["rate"] for rec in records]
    return records, {
        "mean_rate": _mean(rates),
        "min_rate": min(rates),
        "max_rate": max(rates),
    }


def _run_settlement(c: ScenarioConfig) -> tuple[list[dict], dict]:
    cells = _family_cells(c, len(_clip_peaks(c))) * c.n
    records = _map_reps(c, _chunk_settlement, cells, GuideTable(c.distribution))
    return records, {
        "all_match_target": all(rec["matches_target"] for rec in records),
        "max_last_change_n": max(rec["last_change_n"] for rec in records),
    }


def _run_unrestricted(c: ScenarioConfig) -> tuple[list[dict], dict]:
    records = _map_reps(c, _chunk_unrestricted, _family_cells(c, 1) * c.n,
                        GuideTable(c.distribution))
    rate = sum(1 for rec in records if rec["rejected"]) / c.reps
    times = [rec["reject_n"] for rec in records if rec["rejected"]]
    return records, {
        "rejection_rate": rate,
        "rejection_rate_se": _binomial_se(rate, c.reps),
        "max_reject_n": max(times) if times else None,
        "mean_reject_n": _mean(times) if times else None,
    }


def _run_numeraire_compare(c: ScenarioConfig) -> tuple[list[dict], dict]:
    q = c.distribution
    res = lcm(q)  # the one fit: every replication's e-process and the report
    fitted = res.fitted_masses()
    records = _map_reps(c, _chunk_numeraire, _FOLD_CELLS * c.n, GuideTable(q),
                        _numeraire_logs(q, fitted))
    return records, {
        "analytic_epower": _numeraire_with_epower(q, fitted)[1],
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
