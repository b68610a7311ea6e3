"""Deterministic Monte Carlo experiment runner.

Every replication derives its own generator seed from the master seed
and the replication index through a SplitMix64 mix, so reports are
reproducible byte-for-byte for a given config.  Aggregation always
reduces records in replication order.

The ``type1`` scenario runs all replications side by side as numpy
rows, maintaining the mixture sum incrementally (two touched locations
per observation) with an exact resync every ``_RESYNC_EVERY`` steps.
It takes its draws from :class:`_Rows`, one ``(reps, _RESYNC_EVERY)``
block at a time, so memory is bounded by ``reps * (support +
_RESYNC_EVERY)`` rather than ``reps * n``.

Every sampling scenario draws through :class:`_Rows`: each replication
draws its row of a block from its own generator, through a
``pmf.GuideTable`` built once per scenario.  PCG64 ``random()`` yields
the same stream whatever the block size, so the draws, and with them
every report digest, equal those of :func:`sample`.  The other four
sampling scenarios run in chunks, one after another (:func:`_map_reps`):
a chunk holds as many whole replications as fit one block of
``_BLOCK_CELLS`` cells, or else one replication in blocks of steps; a
record depends on its replication alone, whatever the chunking.

``unrestricted_power`` and ``mode_settlement`` fold the rows in blocks:
``eprocess._tilt_rows`` returns every row's dense family log tables after
every step of the block as ``(side, row, step, site)`` arrays, and each
scenario decides its per-step query, a peak's log mixture value against
a level, with the evaluator of ``UnimodalFamily.values_range``
(``eprocess.peak_weights``, ``peak_values``), the rules of
``mode.first_window`` and the thresholds of ``mode.estimate_level``.
Settlement tests every clip peak against ``log(n**2)`` directly:
``mode_estimate``'s scan window only certifies that the peaks outside it
stay below ``1 + (n**2 - 1) / 4``, so cutting a finite clip to it changes
nothing.  Rows of the free test that reject are dropped, and a chunk
ends when none is left.  These tables differ from the trackers' in the
last place (``numpy.log`` against ``math.log``); the records, booleans
and integers, are those of ``UnrestrictedTest`` and of ``mode_estimate``
on a ``UnimodalFamily``.

Both evaluate peaks only where a bound cannot decide (:func:`_exceeding`).
Every amplitude is at most 1/2, so one observation moves a log mixture
value up by at most ``log 1.5`` and down by at most ``log 2``.  Each row
evaluates its peaks at anchor steps, every ``stride`` steps and at the
block's last step.  A value below the block's least level by more than
``j log 1.5`` plus a rounding margin stays below it for ``j`` steps, and
one above the greatest level by more than ``j log 2`` plus the margin
stays above; read backwards from the next anchor, the two rates swap.  A
step between two anchors that either certifies for every peak of its row
takes that anchor's decisions, and the steps that neither certifies are
evaluated.  The margin (``eprocess._drift_margin``) covers the rounding of
the ``cumsum`` tables and of ``peak_values``, so a certified decision is
the one the evaluation would make.  The stride of a row's next block is
seven tenths of what its last anchor certifies on both sides.  Where the
level leaves no room, or the anchors and open steps would be many, a first
slice of the block is evaluated at every step and the rest decided afresh
from its last step.  So a block holds the tables and the terms of a third
of its steps (``_family_cells``), and an evaluation at every step goes in
slices of at most ``_BLOCK_CELLS`` terms.

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
from dataclasses import dataclass, field

import numpy as np

from .eprocess import (
    _LN_FALL,
    _LN_RISE,
    _drift_margin,
    _lambdas,
    _MonotoneRows,
    _numeraire_logs,
    _numeraire_sums,
    _tilt_rows,
    peak_values,
    peak_weights,
)
from .errors import (ConfigError, EvshapeError, MalformedJson, NonIntegerInput,
                     NonNumericInput)
from .mode import estimate_level, first_window, free_levels, one_obs_ci
from .numeraire import _numeraire_with_epower, lcm
from .pmf import (GuideTable, Pmf, _json_int, _json_number, _json_numbers,
                  _json_object, mode_set, pmf_from_json)
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


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment: scenario name, distribution, sizes, knobs."""

    scenario: str
    distribution: Pmf
    n: int
    reps: int
    alpha: float
    seed: int = 0
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
        if self.phi is not None:
            out["phi"] = self.phi
        if self.clip is not None:
            out["clip"] = list(self.clip)
        return out


_CONFIG_KEYS = {
    "scenario", "distribution", "n", "reps", "alpha", "seed",
    "phi", "clip",
}


def config_from_json(obj: dict | str) -> ScenarioConfig:
    try:
        obj = _json_object(obj)
        unknown = sorted(set(obj) - _CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        for key in ("scenario", "distribution", "n", "reps", "alpha"):
            if key not in obj:
                raise ConfigError(f"config is missing required field {key!r}")
        try:
            dist = pmf_from_json(obj["distribution"])
        except (EvshapeError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad distribution: {exc}") from exc
        clip = obj.get("clip")
        if clip is not None and len(_json_numbers(clip, "clip")) != 2:
            raise ConfigError(f"clip must be a pair of integers, got {clip!r}")
        return ScenarioConfig(
            scenario=str(obj["scenario"]),
            distribution=dist,
            n=_json_int(obj["n"], "n"),
            reps=_json_int(obj["reps"], "reps"),
            alpha=_json_number(obj["alpha"], "alpha"),
            seed=_json_int(obj.get("seed", 0), "seed"),
            phi=None if obj.get("phi") is None else _json_int(obj["phi"], "phi"),
            clip=None if clip is None else tuple(_json_int(v, "clip") for v in clip),
        )
    except (MalformedJson, NonIntegerInput, NonNumericInput) as exc:
        raise ConfigError(f"bad config: {exc}") from exc


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
    rows = _Rows(c, range(reps), GuideTable(p))

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
    # mixture sum after each step of a block; crossings are read off it
    trail = np.empty((_RESYNC_EVERY, reps))

    def resync() -> None:
        tail = lf_exp.reshape(reps, width)[:, 1:hi + 2]
        mix_sum[:] = (weights[None, :] * tail).sum(axis=1)

    for start in range(0, n, _RESYNC_EVERY):
        m = min(_RESYNC_EVERY, n - start)
        xs = np.ascontiguousarray(rows.take(m).T)
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


def _sites(p: Pmf) -> np.ndarray:
    """The sites ``p.lo - 1`` to ``p.hi + 1`` of a family fed draws from ``p``."""
    return np.arange(p.lo - 1, p.hi + 2)


class _Rows:
    """A chunk of replications as the rows of blocks of draws.

    Each row draws from its own ``default_rng(derive_seed(seed, rep))``;
    PCG64 ``random()`` gives the same stream in any block size, so a
    row's draws are those of :func:`sample`.  :meth:`take` and
    :meth:`takes` yield them block by block, and :meth:`blocks` also
    folds them into the row's own dense family over the sites of
    :func:`_sites`, allocated when it starts: rows that only draw hold no
    family tables.  Rows whose replication has stopped can be dropped
    between the blocks of :meth:`blocks`.
    """

    def __init__(self, c: ScenarioConfig, reps: range, draw: GuideTable) -> None:
        self.n, self.draw, self.sites = c.n, draw, _sites(c.distribution)
        self.rngs = [np.random.default_rng(derive_seed(c.seed, r)) for r in reps]

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
        """:meth:`takes`, folded into families that start empty: ``(start,
        xs, logs)`` with the log tables after every step (see
        ``eprocess._tilt_rows``)."""
        self.counts = np.zeros((len(self.rngs), self.sites.size))
        self.tables = np.zeros((2,) + self.counts.shape)
        for start, xs in self.takes(start, cells_per_step):
            self.counts, logs = _tilt_rows(self.counts, *self.tables,
                                           xs - self.sites[0])
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


# Anchored evaluation costs some hundred small numpy calls a block, and a
# gathered step costs more than one of a slice: it is tried only where the
# anchors are at most a sixth of a block's steps, and kept only where they
# and the steps left open are at most a third.
_TRY, _GO = 6, 3


def _family_cells(c: ScenarioConfig, peaks: int) -> int:
    """Cells per row and step of a family block decided at ``peaks`` peaks,
    in its two largest arrays: the log tables, one cell per (side, site),
    and the terms of ``eprocess.peak_values`` at the steps that
    :func:`_exceeding` evaluates at once, at most a third of them, each
    with one term per (side, site, peak) and one per peak for the leftover
    weight.  A block evaluated at every step goes in slices."""
    sides = 2 * _sites(c.distribution).size
    return sides + math.ceil((sides + 1) * peaks / _GO)


def _clip_peaks(c: ScenarioConfig) -> np.ndarray:
    clip = c.resolved_clip
    return np.arange(clip[0], clip[1] + 1)


# how fast a value may near a level per step: rows after and before it,
# columns from below the level and from above it
_TOWARD = np.array([[_LN_RISE, _LN_FALL], [_LN_FALL, _LN_RISE]])


def _reach(values, least, most, n: int, cells: int):
    """How far the one-step bound keeps log values ``(..., peak)``, each a
    log-sum-exp of ``cells`` terms over tables of at most ``n``
    observations, on their side of the levels: the steps after and before
    over which all the peaks of each stay below ``least`` or above
    ``most``, from 0 to ``n``, and the side each peak is on (True above).
    A value stays below for ``j`` steps after where ``value + j log 1.5 +
    margin(j) < least``, and above where ``value - j log 2 - margin(j) >
    most``, with the margin of ``eprocess._drift_margin``; looking back,
    the two rates swap."""
    fixed, per_step = _drift_margin(values, n, cells)
    under, over = least - values - fixed, values - fixed - most
    toward = (_TOWARD + per_step).reshape((2, 2) + (1,) * under.ndim)
    reach = np.maximum(under / toward[:, 0], over / toward[:, 1]).min(axis=-1)
    after, before = np.minimum(np.maximum(np.ceil(reach) - 1, 0), n).astype(np.int64)
    return after, before, over > under


def _stride(after, before, steps: int):
    """The anchor stride from the reach (:func:`_reach`) of an anchor's
    values: seven tenths of the steps that two anchors of those values
    would certify between them, which leaves room for the values to move,
    at most ``steps``; 1, every step, where the level leaves no room."""
    return 1 + np.minimum((after + before) * 7 // 10, steps - 1)


@functools.lru_cache(maxsize=64)
def _first_stride(least: float, most: float, n: int, cells: int, peaks: int) -> int:
    """The first block's stride: a family that starts empty values every
    peak at one, log 0."""
    after, before, _ = _reach(np.zeros(peaks), least, most, n, cells)
    return int(_stride(after, before, n))


def _values_at(logs: np.ndarray, weights, rows, steps) -> np.ndarray:
    """``peak_values`` at the ``(row, step)`` pairs of tables ``(side, row,
    step, site)``, as ``(pair, peak)``; peaks ``(row, peak)`` go with their
    rows."""
    log_w, rest = weights
    if rest.ndim > 1:
        weights = log_w[:, :, rows], rest[rows]
    return peak_values(logs[:, rows, steps], weights)


def _exceeding(logs: np.ndarray, weights, level: np.ndarray, n: int,
               stride: np.ndarray):
    """``peak_values(logs, weights) > level[:, None]`` for tables ``(side,
    row, step, site)`` after at most ``n`` observations and a level per
    step, as ``(row, step, peak)`` booleans, evaluating peaks only where the
    one-step bound cannot decide; also each row's stride for the next block.

    Row ``r`` evaluates every ``stride[r]``-th step and its last step, its
    anchors.  The steps between two anchors take the sides of the later one
    for as many steps as it certifies all its peaks before it against the
    block's least and greatest level (:func:`_reach`), and the sides of the
    earlier one for as many steps after it; the steps that neither covers
    are evaluated.  Where that would evaluate over a third of the steps, or
    the anchors alone over a sixth, a first slice of the block is evaluated
    at every step and the rest is decided afresh, with strides from the
    slice's last step.  The decisions are those of the whole evaluation: a
    certified value lies beyond the level by more than its rounding.
    """
    rows, steps = logs.shape[1:3]
    cells = weights[0].shape[0] * weights[0].shape[1] + 1
    least, most = level.min(), level.max()
    count = (steps - 2) // stride + 2  # anchors of each row
    if _TRY * count.sum() <= rows * steps:
        ends = np.cumsum(count)
        r = np.repeat(np.arange(rows), count)
        k = (np.arange(ends[-1]) - np.repeat(ends - count, count)) * stride[r]
        k[ends - 1] = steps - 1
        vals = _values_at(logs, weights, r, k)
        after, before, side = _reach(vals, least, most, n, cells)
        # the steps up to the next anchor: the next one covers the last
        # ``back`` of them, this one the first ``after`` of the ``rest``
        rest = np.zeros_like(k)
        rest[:-1] = k[1:] - k[:-1] - 1
        np.maximum(rest, 0, out=rest)
        back = np.zeros_like(k)
        back[1:] = np.minimum(before[1:], rest[:-1])
        rest[:-1] -= back[1:]
        gap = rest - np.minimum(after, rest)
        if _GO * (len(k) + gap.sum()) <= rows * steps:
            out = np.repeat(side, back + 1 + rest, axis=0)
            at = r * steps + k
            out[at] = vals > level[k, None]
            if gap.any():
                total = np.cumsum(gap)
                at = np.repeat(at + 1 + rest - total, gap) + np.arange(total[-1])
                s = at % steps
                out[at] = _values_at(logs, weights, at // steps, s) > level[s, None]
            return (out.reshape(rows, steps, -1),
                    _stride(after[ends - 1], before[ends - 1], steps))
    # every step of a first slice of at most _BLOCK_CELLS terms, then the
    # rest afresh, with strides from the gaps to the level at its last step
    size = min(steps, max(1, _BLOCK_CELLS // (rows * cells * weights[1].shape[-1])))
    values = peak_values(logs[:, :, :size], weights)
    after, before, _ = _reach(values[:, -1], level[size - 1], level[size - 1], n, cells)
    head, stride = values > level[:size, None], _stride(after, before, steps)
    if size == steps:
        return head, stride
    tail, stride = _exceeding(logs[:, :, size:], weights, level[size:], n, stride)
    return np.concatenate([head, tail], axis=1), stride


def _chunk_settlement(c: ScenarioConfig, reps: range, draw: GuideTable,
                      log_tau: np.ndarray) -> list[dict]:
    p = c.distribution
    peaks, sites = _clip_peaks(c), _sites(p)
    weights = peak_weights(sites, peaks)
    # ``current == ()`` before the first step: every peak counts as rejected
    rejected = np.ones((len(reps), len(peaks)), dtype=bool)
    last_change = np.zeros(len(reps), dtype=np.int64)
    rows = _Rows(c, reps, draw)
    stride = np.full(len(reps), _first_stride(log_tau.min(), log_tau.max(), c.n,
                                              2 * sites.size + 1, len(peaks)))
    for start, xs, logs in rows.blocks(0, _family_cells(c, len(peaks))):
        m = xs.shape[1]
        # mode_estimate at each step of the block, cut to the clip; its
        # scan window only certifies peaks that this test never rejects
        by_step, stride = _exceeding(logs, weights, log_tau[start:start + m],
                                     start + m, stride)
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
    # UnrestrictedTest's rejection level and its cut at the tracked peak;
    # ``value >= log_cut`` is ``value > below_cut``
    log_threshold, log_cut = free_levels(c.alpha)
    below_cut = np.nextafter(log_cut, -math.inf)
    sites = _sites(c.distribution)
    rows = _Rows(c, reps, draw)
    windows, tracked = zip(*(first_window(x, c.alpha, c.resolved_phi)
                             for x in rows.take(1)[:, 0].tolist()))
    tracked = np.array(tracked)
    records = [{"rep": rep, "rejected": False, "reject_n": None} for rep in reps]
    live = list(range(len(reps)))  # record index of each row
    cells = 2 * sites.size + 1  # terms of a peak's value
    stride = np.full(len(reps), _first_stride(below_cut, below_cut, c.n, cells, 1))
    for start, _, logs in rows.blocks(1, _family_cells(c, 1)):
        m, n = logs.shape[2], start + logs.shape[2]
        level = np.full(m, below_cut)
        over, stride = _exceeding(logs, peak_weights(sites, tracked[live, None]),
                                  level, n, stride)
        stopped = []
        for i in np.flatnonzero(over.any(axis=(1, 2))).tolist():
            rec = live[i]
            lo, hi = windows[rec]
            at = np.flatnonzero(over[i, :, 0])
            k = 0
            while len(at):
                k += int(at[0])
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
                if k == m:
                    break
                # the new tracked peak on the rest of the block, anchored on
                # its value at this step
                after, before, _ = _reach(scan[None, j:j + 1], below_cut, below_cut, n, cells)
                rest, _ = _exceeding(logs[:, i:i + 1, k:], peak_weights(sites, [[lo + j]]),
                                     level[k:], n, _stride(after, before, m - k))
                at = np.flatnonzero(rest[0, :, 0])
        if stopped:
            rows.drop(stopped)
            live = [rec for i, rec in enumerate(live) if i not in stopped]
            stride = np.delete(stride, stopped)
    return records


def _map_reps(c: ScenarioConfig, fn, cells_per_rep: int, *shared) -> list[dict]:
    """Records of every replication, in order, from ``fn(c, reps, draw,
    *shared)`` on chunks of consecutive replications: as many as fit
    ``_BLOCK_CELLS`` at ``cells_per_rep`` each, at least one, all drawing
    through one ``GuideTable``.  Each replication's record depends on
    nothing else, so the chunking does not change it."""
    size, draw = max(1, _BLOCK_CELLS // cells_per_rep), GuideTable(c.distribution)
    return [rec for a in range(0, c.reps, size)
            for rec in fn(c, range(a, min(a + size, c.reps)), draw, *shared)]


def _run_growth(c: ScenarioConfig) -> tuple[list[dict], dict]:
    records = _map_reps(c, _chunk_growth, _FOLD_CELLS * c.n)
    rates = [rec["rate"] for rec in records]
    return records, {
        "mean_rate": _mean(rates),
        "min_rate": min(rates),
        "max_rate": max(rates),
    }


def _run_settlement(c: ScenarioConfig) -> tuple[list[dict], dict]:
    cells = _family_cells(c, len(_clip_peaks(c))) * c.n
    log_tau = np.array([estimate_level(k) for k in range(1, c.n + 1)])
    records = _map_reps(c, _chunk_settlement, cells, log_tau)
    return records, {
        "all_match_target": all(rec["matches_target"] for rec in records),
        "max_last_change_n": max(rec["last_change_n"] for rec in records),
    }


def _run_unrestricted(c: ScenarioConfig) -> tuple[list[dict], dict]:
    records = _map_reps(c, _chunk_unrestricted, _family_cells(c, 1) * c.n)
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
    records = _map_reps(c, _chunk_numeraire, _FOLD_CELLS * c.n,
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
    def members(m):  # the config holds a nonempty table, so m is never "all"
        return range(m.lo, m.hi + 1) if m.kind == "range" else ()

    modes = mode_set(c.distribution)
    simultaneous = []
    per_theta = {t: [] for t in members(modes)}
    for x, mass in c.distribution.items():
        if mass == 0.0:
            continue
        covered = one_obs_ci(x, c.alpha, c.resolved_phi).intersect(modes)
        if covered == modes:
            simultaneous.append(mass)
        for t in members(covered):
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
