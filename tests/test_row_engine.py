"""The row engine, the monotone block fold and the guide table against the
code they replaced.

The reference section copies the per-replication harness verbatim from
before replications ran as rows: the one-row ``_tilt_rows``, the
``peak_weights`` and ``peak_values`` it was evaluated with, and the
``_rep_*`` paths that drove them one replication at a time, plus the
per-observation ``numeraire_eprocess``.  Records are compared with ``==``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evshape.harness as harness
from evshape.eprocess import (
    _LN_FALL,
    _LN_RISE,
    MonotoneTracker,
    _check_obs,
    _drift_margin,
    _lambdas,
    _MonotoneRows,
    _numeraire_logs,
    _numeraire_sums,
)
from evshape.eprocess import _tilt_rows as tilt_rows
from evshape.eprocess import peak_values as engine_peak_values
from evshape.eprocess import peak_weights as engine_peak_weights
from evshape.harness import (
    ScenarioConfig,
    derive_seed,
    run_experiment,
)
from evshape.mode import estimate_scan, first_window
from evshape.numeraire import lcm
from evshape.pmf import GuideTable, inverse_cdf, make_pmf, mode_set, sample

# ------------------------------------------------- reference, verbatim

_LN2 = math.log(2.0)
_BLOCK_STEPS = 256
_BLOCK_CELLS = 1 << 15

_SIDE = np.array([[0], [0], [1], [1]])
_SITE = np.array([[-1], [0], [1], [0]])
_SIGN = np.array([[1.0], [-1.0], [1.0], [-1.0]])
_PAIR = (np.array([[-1], [0], [1], [0]]), np.array([[0], [1], [0], [-1]]))


def _tilt_rows(counts, rise, fall, cells):
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


def peak_weights(sites, peaks):
    d = np.subtract.outer(np.asarray(sites, dtype=float),
                          np.asarray(peaks, dtype=float))
    on_side = np.stack([d >= 0, d <= 0])
    k = np.abs(d) + 2.0
    used = _plane_sum((on_side * np.exp2(-k)).reshape(-1, d.shape[1]))
    with np.errstate(divide="ignore"):
        # strictly positive in exact arithmetic; clamp away float dust
        rest = np.log(np.maximum(1.0 - used, 0.0))
    # -k ln 2, not log(2**-k): a far site's weight underflows, its log not
    return np.where(on_side, -k * _LN2, -np.inf), rest


def _plane_sum(a):
    k = len(a)
    while k > 1:
        h = k // 2
        a[:h] += a[k - h:k]
        k -= h
    return a[0] if k else np.zeros(a.shape[1:])


def peak_values(logs, weights):
    log_w, rest = weights
    # one plane per (side, site) term and one for the rest, each
    # ([step,] peak): peaks last, so the reductions add whole planes
    sides = log_w.shape[:2]
    terms = np.empty((sides[0] * sides[1] + 1,) + logs.shape[1:-1] + rest.shape)
    np.add(logs.swapaxes(1, -1)[..., None],
           log_w.reshape(sides + (1,) * (logs.ndim - 2) + rest.shape),
           out=terms[:-1].reshape(sides + terms.shape[1:]))
    terms[-1] = rest
    top = terms.max(axis=0)
    terms -= top
    np.exp(terms, out=terms)
    return top + np.log(_plane_sum(terms))


def _draws(c, rep):
    rng = np.random.default_rng(derive_seed(c.seed, rep))
    return lambda m: inverse_cdf(c.distribution, rng.random(m))


def _family_blocks(c, draw, first, cells_per_step):
    p = c.distribution
    steps = max(1, min(_BLOCK_STEPS, _BLOCK_CELLS // cells_per_step))
    counts = np.zeros(p.hi - p.lo + 3)
    rise = fall = counts
    for start in range(first, c.n, steps):
        xs = draw(min(steps, c.n - start))
        counts, logs = _tilt_rows(counts, rise, fall, xs - (p.lo - 1))
        yield start, xs, logs
        rise, fall = logs[:, -1]


def _estimate_scans(n):
    margin, log_tau = zip(*(estimate_scan(k) for k in range(1, n + 1)))
    margin = np.array([-math.inf if m is None else m for m in margin])
    log_tau = np.array(log_tau)
    margin.flags.writeable = log_tau.flags.writeable = False
    return margin, log_tau


def _rep_settlement(c, rep):
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


def _rep_unrestricted(c, rep):
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


def numeraire_eprocess(q, obs):
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


def _rep_growth(c, rep):
    tracker = MonotoneTracker()
    for x in sample(c.distribution, derive_seed(c.seed, rep), c.n):
        tracker.update(x)
    terminal = tracker.mixture_value()
    return {"rep": rep, "terminal_log": terminal, "rate": terminal / c.n}


def _rep_numeraire(c, rep):
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


REFERENCE = {
    "mode_settlement": _rep_settlement,
    "unrestricted_power": _rep_unrestricted,
    "growth": _rep_growth,
    "numeraire_compare": _rep_numeraire,
}


def reference_records(c):
    return [REFERENCE[c.scenario](c, rep) for rep in range(c.reps)]


# ------------------------------------------------------- row engine


@st.composite
def row_configs(draw):
    scenario = draw(st.sampled_from(sorted(REFERENCE)))
    weights = draw(st.lists(st.integers(0, 6), min_size=1, max_size=6)
                   .filter(any))
    lo = draw(st.integers(-4, 3))
    extra = {}
    if scenario in ("growth", "numeraire_compare"):
        alpha, lo = 0.05, abs(lo)
    elif scenario == "unrestricted_power":
        extra["phi"] = draw(st.sampled_from([1, -1, 2, -3]))
        # large alphas reject within a few hundred steps on a dip, so
        # rows stop at different steps and are dropped mid-chunk
        alpha = draw(st.sampled_from([0.05, 0.3, 0.6]))
    else:
        alpha = 0.05
        if draw(st.booleans()):
            # the reference cuts each step's peaks to the data range and
            # scan margin; the engine tests the clip's peaks directly
            a = draw(st.integers(-40, 30))
            extra["clip"] = (a, a + draw(st.integers(0, 40)))
    return ScenarioConfig(
        scenario,
        make_pmf(lo, [w / sum(weights) for w in weights]),
        n=draw(st.sampled_from([1, 2, 257]) | st.integers(1, 200)),
        reps=draw(st.integers(1, 6)), alpha=alpha,
        seed=draw(st.integers(0, 2**32)), **extra)


# caps that give one step per block, a few rows and steps, and whole
# replications as rows of one block
CAPS = [1, 1 << 9, 1 << 20]


# where the level leaves the one-step bound no room, every step is evaluated:
# the free test at alpha 0.6, whose cut is log 4.95, and settlement with a
# clip on the data, whose peaks next to the mode cross log(n**2) late
NO_ROOM = [
    ScenarioConfig("unrestricted_power", make_pmf(0, [0.5, 0.0, 0.5]),
                   n=300, reps=4, alpha=0.6, seed=2),
    ScenarioConfig("mode_settlement", make_pmf(0, [0.3, 0.4, 0.3]),
                   n=400, reps=2, alpha=0.05, seed=5, clip=(-1, 3)),
]


@settings(max_examples=80, deadline=None, database=None)
@given(c=row_configs(), cap=st.sampled_from(CAPS))
@example(c=ScenarioConfig("unrestricted_power", make_pmf(0, [0.4, 0.2, 0.4]),
                          n=150, reps=6, alpha=0.6, seed=13), cap=1 << 9)
@example(c=NO_ROOM[0], cap=1 << 20)
@example(c=NO_ROOM[1], cap=1 << 9)
def test_row_engine_matches_the_per_replication_engine(c, cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_BLOCK_CELLS", cap)
        assert list(run_experiment(c).records) == reference_records(c)


CHUNKS = {"unrestricted_power": harness._chunk_unrestricted,
          "mode_settlement": harness._chunk_settlement}


@settings(max_examples=40, deadline=None, database=None)
@given(c=row_configs().filter(lambda c: c.scenario in CHUNKS),
       cap=st.sampled_from([1, 50, 300, 2000]))
@example(c=ScenarioConfig("unrestricted_power", make_pmf(0, [0.4, 0.2, 0.4]),
                          n=150, reps=6, alpha=0.6, seed=13), cap=300)
def test_many_rows_in_short_blocks_match_the_reference(c, cap):
    # every replication as a row of one chunk, in blocks of a few steps:
    # rows that stop are dropped while the others run on
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_BLOCK_CELLS", cap)
        shared = (_estimate_scans(c.n)[1],) if c.scenario == "mode_settlement" else ()
        got = CHUNKS[c.scenario](c, range(c.reps), GuideTable(c.distribution), *shared)
    assert got == reference_records(c)


# ------------------------------------------------------ anchored evaluation


def test_certified_steps_on_their_boundary():
    # values exactly j steps of the bound plus the margin from the level,
    # nudged by an eighth of the margin: certified for j steps on the far
    # side, for j - 1 on the near one.  Each certified step agrees with the
    # dense decision on the path that moves at the bound's full rate.
    n, cells, level = 700, 11, 4.0
    for j in range(1, 9):
        # (rate towards the level, direction of the side, after or before)
        for rate, side, back in ((_LN_RISE, -1, 0), (_LN_FALL, 1, 0),
                                 (_LN_FALL, -1, 1), (_LN_RISE, 1, 1)):
            edge = level + side * j * rate
            fixed, per_step = _drift_margin(edge, n, cells)
            margin = fixed + j * per_step
            for nudge, steps in ((margin / 8, j), (-margin / 8, j - 1)):
                value = edge + side * (margin + nudge)
                *reach, above = harness._reach(np.array([value]), level, level, n, cells)
                assert reach[back] == steps
                assert above.tolist() == [side > 0]
                path = value - side * rate * np.arange(steps + 1)
                assert ((path > level) == (side > 0)).all()


def test_the_one_step_bound_is_attained():
    # rise site 2 carries nearly all of peak 2's weight, and counts 0 and 5
    # at sites 2 and 3 tilt it by the widest amplitude, 1/2: an observation
    # at 2 halves the value and one at 3 lifts it by 3/2.  Neither step can
    # be certified to stay past a level just beyond where it lands.
    counts = np.array([[0.0, 0.0, 0.0, 5.0, 0.0, 0.0]])
    rise, fall = np.array([[0.0, 0.0, 40.0, 0.0, 0.0, 0.0]]), np.zeros((1, 6))
    weights = engine_peak_weights(np.arange(6), [2])
    now = engine_peak_values(np.stack([rise[0], fall[0]]), weights)
    for x, rate, side in ((2, _LN_FALL, 1), (3, _LN_RISE, -1)):
        _, logs = tilt_rows(counts, rise, fall, np.array([[x]]))
        moved = float(engine_peak_values(logs[:, 0, 0], weights)[0])
        assert moved - float(now[0]) == pytest.approx(-side * rate, abs=1e-12)
        level = moved + side * 1e-9
        assert harness._reach(now, level, level, 6, 13)[0] == 0


LEVELS = ["constant", "at a value", "rising", "infinite first"]


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), rows=st.integers(1, 3), steps=st.integers(1, 90),
       width=st.integers(1, 5), levels=st.sampled_from(LEVELS),
       per_row=st.booleans(), always=st.booleans(), seed=st.integers(0, 2**32),
       cap=st.sampled_from([1 << 16, 400, 40]))
def test_anchored_decisions_match_the_dense_evaluation(data, rows, steps, width, levels,
                                                       per_row, always, seed, cap):
    # any strides and levels, ties included; ``always`` keeps the anchored
    # path however much it evaluates, as the thresholds only pick the path,
    # and small caps cut a block evaluated at every step into many slices
    rng = np.random.default_rng(seed)
    counts = np.zeros((rows, width + 2))
    start = data.draw(st.integers(0, 500))
    _, logs = tilt_rows(counts, counts, counts, rng.integers(1, width + 1, (rows, steps)))
    peaks = rng.integers(-2, width + 4, (rows, 1)) if per_row else np.arange(-2, width + 4)
    weights = engine_peak_weights(np.arange(width + 2), peaks)
    dense = engine_peak_values(logs, weights)
    if levels == "constant":
        level = np.full(steps, data.draw(st.floats(-3.0, 6.0)))
    elif levels == "at a value":
        level = np.full(steps, rng.choice(dense.ravel()))
    else:
        level = np.log(np.arange(start + 1.0, start + steps + 1.0) ** 2)
        if levels == "infinite first":
            level[0] = math.inf
    stride = rng.integers(1, steps + 2, rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_BLOCK_CELLS", cap)
        if always:
            mp.setattr(harness, "_TRY", 0)
            mp.setattr(harness, "_GO", 0)
        got, nxt = harness._exceeding(logs, weights, level, start + steps, stride)
    assert got.tolist() == (dense > level[:, None]).tolist()
    assert nxt.shape == (rows,) and (nxt >= 1).all()


def test_settlement_evaluates_few_steps_once_the_peaks_have_settled():
    c = ScenarioConfig("mode_settlement", make_pmf(0, [0.2, 0.6, 0.2]), n=1000, reps=1,
                       alpha=0.05, seed=1)
    evaluated = []

    def counted(logs, weights):
        evaluated.append(math.prod(logs.shape[1:-1]))
        return engine_peak_values(logs, weights)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "peak_values", counted)
        assert run_experiment(c).records == tuple(reference_records(c))
    # the first 400 steps or so are evaluated whole, then the last two
    # blocks a few anchors each: 438 of the 1000 steps here
    assert sum(evaluated) < 0.5 * c.n
    assert max(evaluated[-2:]) < 40


def test_rows_stop_at_different_steps():
    # the example above: rows reject at several steps
    c = ScenarioConfig("unrestricted_power", make_pmf(0, [0.4, 0.2, 0.4]),
                       n=150, reps=6, alpha=0.6, seed=13)
    times = [rec["reject_n"] for rec in run_experiment(c).records]
    assert times == [None, 73, 107, 95, 137, None]


# ---------------------------------------------------------- monotone fold


values = st.sampled_from([0, 0, 1, 1, 2, 3, 7, 50, 1000])


def fold_in_blocks(rows, cuts):
    xs = np.array(rows, dtype=np.int64)
    fold = _MonotoneRows(len(rows), int(xs.max()))
    bounds = sorted({0, xs.shape[1], *(k for k in cuts if k < xs.shape[1])})
    for a, b in zip(bounds, bounds[1:]):
        fold.fold(xs[:, a:b])
    return [fold.tracker(r) for r in range(len(rows))]


def assert_fold_matches_the_tracker(rows, cuts=()):
    for row, folded in zip(rows, fold_in_blocks(rows, cuts)):
        tracker = MonotoneTracker()
        for x in row:
            tracker.update(x)
        # the same keys (x always, x - 1 for x > 0, also when the factor
        # is one) and the same floats
        assert sorted(folded.log_factors) == sorted(tracker.log_factors)
        assert folded.to_snapshot() == tracker.to_snapshot()
        assert folded.mixture_value() == tracker.mixture_value()


@settings(max_examples=150, deadline=None, database=None)
@given(rows=st.lists(st.lists(values, min_size=1, max_size=60), min_size=1,
                     max_size=4).map(lambda rs: [r[:min(map(len, rs))] for r in rs]),
       cuts=st.lists(st.integers(1, 59), max_size=4))
@example(rows=[[0]], cuts=[])
@example(rows=[[0, 0, 0]], cuts=[1, 2])
@example(rows=[[1000, 0, 1000, 999]], cuts=[2])
@example(rows=[[1, 0, 1, 0, 2, 2, 1], [0, 0, 0, 0, 0, 0, 0]], cuts=[3])
def test_monotone_fold_matches_the_tracker(rows, cuts):
    assert_fold_matches_the_tracker(rows, cuts)


@pytest.mark.parametrize("masses, seed", [
    # streams on which numpy.log in place of math.log moves a log factor
    ([0.2, 0.3, 0.5], 9),
    ([0.5, 0.5], 3),
    ([0.25, 0.75], 0),
])
def test_monotone_fold_matches_the_tracker_on_long_streams(masses, seed):
    assert_fold_matches_the_tracker([sample(make_pmf(0, masses), seed, 2000)],
                                    cuts=[700, 1500])


@settings(max_examples=80, deadline=None, database=None)
@given(masses=st.lists(st.integers(0, 9), min_size=1, max_size=8).filter(any),
       lo=st.integers(0, 3), seed=st.integers(0, 2**32), n=st.integers(1, 300),
       rows=st.integers(1, 3), cut=st.integers(1, 299))
def test_numeraire_table_sums_match_the_per_observation_product(masses, lo, seed,
                                                                n, rows, cut):
    q = make_pmf(lo, [m / sum(masses) for m in masses])
    logs = _numeraire_logs(q, lcm(q).fitted_masses())
    obs = np.array([sample(q, seed + r, n) for r in range(rows)])
    got = _numeraire_sums(logs, obs[:, :cut], np.zeros(rows))
    if cut < n:
        got = _numeraire_sums(logs, obs[:, cut:], got)
    assert got.tolist() == [numeraire_eprocess(q, o) for o in obs.tolist()]


def test_numeraire_eprocess_keeps_its_values_off_the_support():
    from evshape.eprocess import numeraire_eprocess as table_form
    q = make_pmf(1, [0.3, 0.0, 0.7])
    for obs in ([], [1, 3, 3], [0], [3, 4], [2], [10**30]):
        assert table_form(q, obs) == numeraire_eprocess(q, obs)


# ------------------------------------------------------------ guide table

EDGE = 1.0 / 4096


@st.composite
def guide_cases(draw):
    kind = draw(st.sampled_from(["edges", "ulp", "tiny", "short", "random"]))
    if kind == "ulp":
        # a CDF value one float below or above a bucket edge
        edge = draw(st.integers(1, 4095)) * EDGE
        first = np.nextafter(edge, draw(st.sampled_from([0.0, 1.0])))
        masses = [float(first), 1.0 - float(first)]
    elif kind == "edges":
        # every CDF value on a bucket edge
        ks = draw(st.lists(st.integers(0, 64), min_size=1, max_size=12)
                  .filter(lambda ks: sum(ks) <= 4096 and any(ks)))
        masses = [k * EDGE for k in ks] + [(4096 - sum(ks)) * EDGE]
    elif kind == "tiny":
        masses = draw(st.lists(st.sampled_from([0.0, 5e-324, 1e-300, 1e-17,
                                                EDGE / 3]), max_size=8))
        masses = masses + [1.0 - math.fsum(masses)]
        masses = draw(st.permutations(masses))
    elif kind == "short":
        # total below one by more than the rounding: cum[-1] < 1
        masses = [0.25, 0.25, 0.5 - draw(st.sampled_from([1e-12, 1e-10, 9e-10]))]
    else:
        raw = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)
                   .filter(lambda r: math.fsum(r) > 0.0))
        masses = [r / math.fsum(raw) for r in raw]
    return make_pmf(draw(st.integers(-5, 5)), masses)


@settings(max_examples=150, deadline=None, database=None)
@given(p=guide_cases(), seed=st.integers(0, 2**32))
def test_guide_table_matches_searchsorted(p, seed):
    cum = np.cumsum(np.asarray(p.masses, dtype=float))
    edges = np.arange(4096) * EDGE
    points = np.concatenate([cum, edges])
    u = np.concatenate([
        np.random.default_rng(seed).random(2000),
        points, np.nextafter(points, -1.0), np.nextafter(points, 2.0),
        [0.0, 1.0 - 2.0 ** -53],
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    want = p.lo + np.minimum(np.searchsorted(cum, u, side="right"),
                             len(p.masses) - 1)
    got = GuideTable(p)(u)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    # blocks of any shape, as the harness draws them
    block = u[:len(u) // 4 * 4].reshape(4, -1)
    assert GuideTable(p)(block).tolist() == inverse_cdf(p, block).tolist()
