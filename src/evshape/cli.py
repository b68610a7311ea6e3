"""Command-line front end.

Streams arrive as one value per line, or JSONL objects carrying ``x``.
Results go to stdout as JSON; sequential test subcommands signal a
rejected null with exit code 2, everything else exits 0 on success and
1 on error.  ``numeraire`` writes ``slopes`` and the e-value's ``values``
from 0 (the library keeps them on the table) and, with ``ripr.masses``,
once per run of equal entries, byte for byte what ``json.dumps`` writes
for the full arrays.  The parser is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain, repeat

import numpy as np

from .continuous import (
    _numeraire_cont_with_epower,
    cont_mode_ci,
    edelman_ci,
    edelman_pvalue,
    lcm_cont,
    step_density_from_json,
)
from .eprocess import MonotoneTracker, UnimodalFamily, UnimodalTracker
from .errors import EvshapeError, NonFiniteInput
from .evalues import EvalFn, epower, is_in_polar_D, is_in_polar_M
from .harness import config_from_json, run_experiment
from .mode import (
    UnrestrictedTest,
    _check_alpha,
    confidence_set,
    mode_estimate,
    one_obs_ci,
    one_obs_ci_finite,
)
from .numeraire import _check_from_0, _numeraire_evalue, _ripr, lcm
from .pmf import _json_int, _json_number, _json_object, pmf_from_text


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is taken by the rejection signal
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Runs:
    """A float array as runs of one value (lengths positive), for :func:`_emit`."""

    __slots__ = ("values", "lengths")

    def __init__(self, values, lengths) -> None:
        self.values, self.lengths = values, lengths

    def pieces(self):
        # the array's inner text, as strings: json writes each run's value
        # once, here (and refuses a non-finite one as in the full list), and
        # the value after its separator is repeated over the run, at most
        # _PIECE to a string; the first separator is cut
        cells = json.dumps(self.values, allow_nan=False)[1:-1].split(", ")
        texts = chain.from_iterable(
            chain(repeat(t * _PIECE, n // _PIECE) if n >= _PIECE else (), [t * (n % _PIECE)])
            for t, n in zip(map(", ".__add__, cells), self.lengths))
        return chain([next(texts, ", ")[2:]], texts)


def _runs(head: float, skip: int, table):
    """``skip`` entries ``head``, then the floats ``table``, as :class:`_Runs`
    of bitwise equal neighbours, or as the plain list where the runs are
    more than half the entries: json writes that faster, and it is then at
    most about twice as long as ``table``."""
    first = [head] if skip else []
    bits = np.fromiter(chain(first, table), float, len(first) + len(table)).view(np.int64)
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    extra = max(skip - 1, 0)  # the entries bits[0] stands for beyond itself
    size = len(bits) + extra
    if len(starts) >= size // 2:
        return [head] * skip + list(table)
    return _Runs(bits[np.r_[0, starts]].view(float).tolist(),
                 np.diff(np.r_[0, starts + extra, size]).tolist())


_PIECE = 4096  # entries of a run written as one string
_MARK = "\0"  # a _Runs is first written as [_MARK], then its text is spliced in
_MARK_TEXT = json.dumps(_MARK)


def _emit(obj) -> None:
    """Print ``obj`` as one JSON line: keys sorted, NaN and infinities refused.

    ``obj`` may hold :class:`_Runs` arrays (and then no string equal to
    ``_MARK``), which json hands to its ``default`` hook.  Each run's text
    is written once and repeated, and stdout takes the arrays and the rest
    piece by piece, unjoined: the bytes ``json.dumps`` gives the full lists.
    """
    parked = []

    def park(array: _Runs) -> list[str]:
        parked.append(array.pieces())  # json writes (or refuses) its values here
        return [_MARK]

    text = json.dumps(obj, sort_keys=True, allow_nan=False, default=park)
    *parts, last = text.split(_MARK_TEXT, len(parked))
    for part, pieces in zip(parts, parked):
        sys.stdout.write(part)
        sys.stdout.writelines(pieces)
    print(last, flush=True)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _stream_values(fh, as_int: bool):
    for line in fh:
        line = line.strip()
        if not line:
            continue
        if line.startswith("{"):
            raw = _json_object(line)["x"]
            # JSON admits Infinity and NaN, which int() would not report
            if isinstance(raw, float) and not math.isfinite(raw):
                raise NonFiniteInput(f"observation {raw!r} is not finite")
            raw = (_json_int if as_int else _json_number)(raw, "observation")
        else:
            raw = line
        if as_int:
            yield int(raw)
            continue
        value = float(raw)
        if not math.isfinite(value):
            raise NonFiniteInput(f"observation {raw!r} is not finite")
        yield value


def _first_value(fh, as_int: bool):
    for v in _stream_values(fh, as_int):
        return v
    raise ValueError("expected one observation on stdin")


# ------------------------------------------------------------- commands


def _cmd_test_tracker(args) -> int:
    """test-monotone and test-unimodal: one tracker, rejecting at 1/alpha."""
    _check_alpha(args.alpha)
    if args.command == "test-monotone":
        tracker, extra = MonotoneTracker(), {}
        value = tracker.mixture_value
    else:
        tracker, extra = UnimodalTracker(args.theta), {"theta": args.theta}
        value = tracker.unimodal_value
    log_threshold = math.log(1.0 / args.alpha)
    decision, log_value = "continue", value()
    for x in _stream_values(sys.stdin, as_int=True):
        tracker.update(x)
        log_value = value()
        if log_value >= log_threshold:
            decision = "reject"
            break
    _emit({"decision": decision, "n": tracker.n, "log_value": log_value, **extra})
    return 2 if decision == "reject" else 0


def _cmd_test_unimodal_free(args) -> int:
    test = UnrestrictedTest(args.alpha, args.phi)
    for x in _stream_values(sys.stdin, as_int=True):
        if test.step(x) == "reject":
            _emit({"decision": "reject", "n": test.rejected_at,
                   "window": list(test.theta_window)})
            return 2
    out = {"decision": "continue", "n": test.n}
    if test.theta_window is not None:
        out["window"] = list(test.theta_window)
    _emit(out)
    return 0


def _cmd_mode_ci(args) -> int:
    x = _first_value(sys.stdin, as_int=True)
    if args.finite:
        interval = one_obs_ci_finite(x, args.alpha, args.phi)
    else:
        interval = one_obs_ci(x, args.alpha, args.phi)
    _emit({"x": x, "alpha": args.alpha, "phi": args.phi,
           "interval": interval.to_json()})
    return 0


def _cmd_mode_track(args) -> int:
    family = UnimodalFamily()
    for x in _stream_values(sys.stdin, as_int=True):
        family.update(x)
        cs = confidence_set(family, args.alpha)
        estimate = mode_estimate(family)
        line = {
            "n": family.n,
            "rejected": sorted(cs.rejected.members),
            "window": None if cs.window is None else list(cs.window),
            "estimate_excluded": sorted(estimate.members),
        }
        _emit(line)
    return 0


def _cmd_check_evalue(args) -> int:
    e = EvalFn.from_json(sys.stdin.read())
    for end in (e.lo - 1, e.hi + 1):  # is_in_polar_D's tail runs, in floats
        _json_number(args.theta - end, "--theta's distance to the table")
    _emit({
        "polar_M": is_in_polar_M(e),
        f"polar_D_{args.theta}": is_in_polar_D(e, args.theta),
    })
    return 0


def _cmd_numeraire(args) -> int:
    q = pmf_from_text(sys.stdin.read())
    res = lcm(q)  # the one fit every output below reads
    _check_from_0(q.hi)  # fitted and e are on the table, and written from 0
    fitted = res._fitted(q.lo)
    e = _numeraire_evalue(q, fitted)
    ripr = _ripr(q, fitted)
    _emit({
        "contacts": list(res.contacts),
        "slopes": _runs(res.slopes[0], q.lo, fitted),
        "ripr": {"lo": ripr.lo, "masses": _runs(0.0, 0, ripr.masses), "is_sub": ripr.is_sub},
        "numeraire": {"lo": 0, "values": _runs(e.left_tail, e.lo, e.values),
                      "left_tail": e.left_tail, "right_tail": e.right_tail},
        "max_epower": epower(e, q),
    })
    return 0


def _cmd_cont_ci(args) -> int:
    x = _first_value(sys.stdin, as_int=False)
    if args.edelman:
        interval = edelman_ci(x, args.alpha, args.phi)
    else:
        interval = cont_mode_ci(x, args.alpha, args.phi)
    _emit({"x": x, "alpha": args.alpha, "phi": args.phi,
           "interval": interval.to_json()})
    return 0


def _cmd_cont_pvalue(args) -> int:
    x = _first_value(sys.stdin, as_int=False)
    _emit({"x": x, "a": args.a, "pvalue": edelman_pvalue(x, args.a)})
    return 0


def _cmd_cont_numeraire(args) -> int:
    q = step_density_from_json(sys.stdin.read())
    fitted = lcm_cont(q)
    e, power = _numeraire_cont_with_epower(q, fitted)
    _emit({
        "lcm": fitted.to_json(),
        "numeraire": e.to_json(),
        "max_epower": power,
    })
    return 0


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        obj = _json_object(fh.read())
    if args.seed is not None:
        obj["seed"] = args.seed
    report = run_experiment(config_from_json(obj))
    print(report.to_json())
    if args.csv is not None:
        with open(args.csv, "w") as fh:
            fh.write(report.aggregates_csv())
    return 0


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(prog="evshape")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("test-monotone", _cmd_test_tracker,
            help="sequential test of a non-increasing mass function")
    p.add_argument("--alpha", type=_finite_float, required=True)

    p = add("test-unimodal", _cmd_test_tracker,
            help="sequential test of unimodality with a known peak")
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--theta", type=int, required=True)

    p = add("test-unimodal-free", _cmd_test_unimodal_free,
            help="sequential test of unimodality, peak unknown")
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--phi", type=int, required=True)

    p = add("mode-ci", _cmd_mode_ci,
            help="mode interval from a single observation")
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--phi", type=int, required=True)
    p.add_argument("--finite", action="store_true",
                   help="intersect both anchors for an always-bounded interval")

    p = add("mode-track", _cmd_mode_track,
            help="stream observations; emit the mode confidence sequence")
    p.add_argument("--alpha", type=_finite_float, required=True)

    p = add("check-evalue", _cmd_check_evalue,
            help="polar membership of an e-value given as JSON")
    p.add_argument("--theta", type=int, default=0)

    add("numeraire", _cmd_numeraire,
        help="concave majorant, projection, and log-optimal e-value of a pmf")

    p = add("cont-ci", _cmd_cont_ci, help="continuous one-observation interval")
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--phi", type=_finite_float, required=True)
    p.add_argument("--edelman", action="store_true",
                   help="location interval instead of the wider mode interval")

    p = add("cont-pvalue", _cmd_cont_pvalue,
            help="distance-ratio p-value for monotone densities")
    p.add_argument("--a", type=_finite_float, required=True)

    add("cont-numeraire", _cmd_cont_numeraire,
        help="continuous concave majorant and log-optimal e-value")

    p = add("simulate", _cmd_simulate, help="run one experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--csv", default=None,
                   help="also write aggregate metrics to this CSV file")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage error remapped to 1 by _Parser
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (EvshapeError, ValueError, OSError, MemoryError) as exc:
        # a MemoryError comes from a dense peak scan over far-spread data
        print(f"evshape: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
