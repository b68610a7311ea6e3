"""The command-line input contract, on generated input.

Every command runs in process through ``cli.main`` on generated stdin and
options.  Half the calls are well formed, and the others carry faults:
truncated and non-object JSON, wrong types in every field, integers past
the float range in every index, offset and option, sums past it, ``NaN``
and ``Infinity`` literals, empty input, and blank and comment lines.
Whatever the input, the exit code is 0, 1 or 2, every stdout line is
strict JSON, and an error is one line on stderr that names the program,
never a traceback.

The generators stay within what a command answers in bounded memory:
``mode-track`` and ``test-unimodal-free`` scan every peak between their
data (and the free test's anchor), so their values lie within a few of
one base; ``numeraire`` builds its e-value and slopes from 0 up, so its
offsets stay small (a far ``lo`` allocates lists as long as the offset);
and ``simulate`` runs tiny ``n`` and ``reps`` with a clip and an anchor
near the table.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evshape.cli import main

_HUGE = "1" + "0" * 400  # a JSON integer past the float range
_FAR = [0, 2**53 + 1, 2**63, -(2**63) - 5, 10**30, int(_HUGE), -int(_HUGE)]
_FAR_TEXTS = [_HUGE, "-" + _HUGE, str(2**63), str(int(1.79e308))]

_NEAR = st.integers(-3, 6).map(str)  # offsets a command answers in small memory
# nonnegative numbers, up to the edge of the float range
_SIZES = st.one_of(st.integers(0, 6).map(str), st.floats(0.0, 2.0).map(repr),
                   st.sampled_from(["1e308", "1.5e308", "1.7976931348623157e308",
                                    "5e-324", "-0.0"]))
# any JSON number token, past the float range too, and the literals that
# Python's json reads but strict JSON lacks
_NUMBERS = st.one_of(
    _SIZES, _NEAR,
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-1e308", "NaN", "Infinity", "-Infinity", *_FAR_TEXTS]),
)
_WRONG = st.sampled_from(["null", "true", "false", '"3"', '"x"', "[1]", "{}", "[]"])
_ANY = st.one_of(_NUMBERS, _NUMBERS, _NUMBERS, _WRONG)


def _lists(elements, max_size=6):
    return st.lists(elements, max_size=max_size).map(lambda xs: "[" + ", ".join(xs) + "]")


@st.composite
def _objects(draw, clean, fields, anything=_ANY):
    """A JSON object text over ``fields`` (name -> value strategy).  Unless
    ``clean``, a field may be missing or ``anything``, and the text may be
    cut short, another JSON value, or empty."""
    items = []
    for name, values in fields.items():
        kind = "field" if clean else draw(st.sampled_from(["field"] * 3 + ["missing", "any"]))
        if kind != "missing":
            items.append(f'"{name}": {draw(values if kind == "field" else anything)}')
    text = "{" + ", ".join(draw(st.permutations(items))) + "}"
    form = "whole" if clean else draw(st.sampled_from(["whole", "cut", "other", "empty"]))
    if form == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif form == "other":
        text = draw(st.one_of(_ANY, _lists(_ANY)))
    elif form == "empty":
        text = draw(st.sampled_from(["", "\n", "  \n\n"]))
    return text


# tables that pass validation: weights over a few entries, normalized
_PROBABILITIES = st.lists(st.integers(0, 4), min_size=1, max_size=6).filter(any).map(
    lambda w: "[" + ", ".join(repr(k / sum(w)) for k in w) + "]")


def _pmf(clean):
    # no far positive lo: the e-value and slopes are lists from 0 up
    return _objects(clean, {
        "lo": _NEAR if clean else st.one_of(_NEAR, _NUMBERS.filter(lambda t: t[0] == "-")),
        "masses": _PROBABILITIES if clean else st.one_of(_PROBABILITIES, _lists(_NUMBERS)),
        "is_sub": st.sampled_from(["true", "false"]),
    }, anything=_ANY.filter(lambda t: not (t.isdigit() and len(t) > 3)))


@st.composite
def _pmf_texts(draw, clean):
    # the text form: "index mass" rows, among blank and comment lines
    if clean:
        masses = json.loads(draw(_PROBABILITIES))
        lo = int(draw(_NEAR))
        rows = [f"{lo + k} {m!r}" for k, m in enumerate(masses)]
        rows += draw(st.lists(st.sampled_from(["", "# a comment"]), max_size=2))
        rows = draw(st.permutations(rows))
    else:
        rows = draw(st.lists(st.one_of(
            st.tuples(_NEAR, _NUMBERS).map(" ".join),
            st.tuples(_NEAR, _NUMBERS, _NEAR).map(" ".join),
            st.sampled_from(["", "   ", "# a comment", "0", "x y", "0 nan", "1 1e308"]),
        ), max_size=6))
    return "\n".join(rows) + draw(st.sampled_from(["", "\n"]))


@st.composite
def _densities(draw):
    # a step density that passes validation: pieces of width 1 or 1/2
    widths = draw(st.lists(st.sampled_from([1.0, 0.5]), min_size=1, max_size=5))
    weights = [1 + draw(st.integers(0, 3)) for _ in widths]
    bps = [0.0]
    for w in widths:
        bps.append(bps[-1] + w)
    levels = [k / sum(weights) / w for k, w in zip(weights, widths)]
    return json.dumps({"breakpoints": bps, "levels": levels})


def _density(clean):
    if clean:
        return _densities()
    return st.one_of(_densities(), _objects(False, {
        "breakpoints": _lists(_NUMBERS), "levels": _lists(_NUMBERS), "atom0": _NUMBERS,
        "is_sub": st.sampled_from(["true", "false"])}))


def _evalue(clean):
    return _objects(clean, {
        "lo": st.one_of(_NEAR, st.sampled_from(_FAR_TEXTS)),
        "values": _lists(_SIZES if clean else _NUMBERS),
        "left_tail": _SIZES if clean else _NUMBERS,
        "right_tail": _SIZES if clean else _NUMBERS,
    })


_TABLES = st.sampled_from(['{"lo": 0, "masses": [0.4, 0.2, 0.4]}',
                           '{"lo": 0, "masses": [1.0]}', '{"lo": 0, "masses": [0.25, 0.75]}',
                           '{"lo": -2, "masses": [0.25, 0.5, 0.25]}'])


def _config(clean):
    # tiny runs of every scenario, with a clip and an anchor near the table
    return _objects(clean, {
        "scenario": st.sampled_from(['"type1"', '"growth"', '"ci_coverage"',
                                     '"mode_settlement"', '"unrestricted_power"',
                                     '"numeraire_compare"'] + ([] if clean else ['"other"'])),
        "distribution": _TABLES if clean else st.one_of(
            _TABLES, _pmf(False), st.just('{"lo": 0, "masses": [1e308, 1e308]}')),
        "n": st.integers(1, 30).map(str) if clean else st.integers(-1, 30).map(str),
        "reps": st.integers(1, 3).map(str) if clean else st.integers(-1, 3).map(str),
        "alpha": st.sampled_from(["0.05", "0.5", "0.9"] + ([] if clean else ["0", "NaN"])),
        "seed": st.sampled_from(["0", "1", "7"] + ([] if clean else [str(2**64), "-1"])),
        "phi": st.sampled_from(["null", "1", "2", "-1"]),
        "clip": st.one_of(st.just("null"), st.tuples(st.integers(-3, 0), st.integers(0, 3))
                          .map(lambda c: "[%d, %d]" % c)),
    })


@st.composite
def _lines(draw, clean, values):
    # a stream: plain values and {"x": ...} objects, among blank lines
    line = st.one_of(values, values, values.map(lambda v: '{"x": %s}' % v), st.just(""))
    if not clean:
        line = st.one_of(line, st.sampled_from(["# a comment", '{"y": 1}', "{", "[1]"]))
    return "\n".join(draw(st.lists(line, max_size=12))) + "\n"


def _near(base):
    # integers within a few of ``base``, the stream of a dense peak scan
    return st.integers(-4, 4).map(lambda k: str(base + k))


_ALPHAS = ["0.05", "0.5", "0.9", "0.999999", "1e-300"]
_BAD_OPTIONS = st.sampled_from(["1", "0", "-1", "nan", "inf", "-inf", "oops", "", "1e308",
                                *_FAR_TEXTS])


@st.composite
def _options(draw, clean, **options):
    # ``--name value`` for each option; unless clean, a value may be a bad
    # one, and an option may be missing
    argv = []
    for name, values in options.items():
        kind = "good" if clean else draw(st.sampled_from(["good", "good", "bad", "missing"]))
        if kind != "missing":
            argv += [f"--{name}", draw(values if kind == "good" else _BAD_OPTIONS)]
    return argv


@st.composite
def _calls(draw):
    """One command line and its stdin."""
    clean = draw(st.booleans())
    cmd = draw(st.sampled_from(
        ["numeraire", "cont-numeraire", "check-evalue", "simulate", "test-monotone",
         "test-unimodal", "test-unimodal-free", "mode-ci", "mode-track", "cont-ci",
         "cont-pvalue"]))
    alpha = st.sampled_from(_ALPHAS)
    anchor = st.one_of(_NEAR, st.sampled_from(_FAR_TEXTS))
    ints = _lines(clean, st.one_of(_NEAR, _NEAR, _NEAR, st.sampled_from(_FAR_TEXTS))
                  if clean else _NUMBERS)
    floats = _lines(clean, _SIZES if clean else _NUMBERS)
    if cmd == "numeraire":
        return [cmd], draw(st.one_of(_pmf(clean), _pmf_texts(clean)))
    if cmd == "cont-numeraire":
        return [cmd], draw(_density(clean))
    if cmd == "check-evalue":
        return [cmd, *draw(_options(clean, theta=anchor))], draw(_evalue(clean))
    if cmd == "simulate":
        return [cmd, *draw(_options(clean, seed=_NEAR))], draw(_config(clean))
    if cmd == "test-monotone":
        return [cmd, *draw(_options(clean, alpha=alpha))], draw(ints)
    if cmd == "test-unimodal":
        return [cmd, *draw(_options(clean, alpha=alpha, theta=anchor))], draw(ints)
    if cmd in ("test-unimodal-free", "mode-track"):
        # the data, and the free test's anchor, within a few of one base
        base = draw(st.sampled_from(_FAR))
        argv = ["--alpha", draw(st.sampled_from(_ALPHAS + ([] if clean else ["1", "oops"])))]
        if cmd == "test-unimodal-free":
            argv += ["--phi", draw(_near(base))]
        return [cmd, *argv], draw(_lines(clean, _near(base)))
    if cmd == "mode-ci":
        flag = draw(st.sampled_from([[], ["--finite"]]))
        return [cmd, *draw(_options(clean, alpha=alpha, phi=anchor)), *flag], draw(ints)
    if cmd == "cont-ci":
        flag = draw(st.sampled_from([[], ["--edelman"]]))
        return [cmd, *draw(_options(clean, alpha=alpha, phi=_SIZES)), *flag], draw(floats)
    return [cmd, *draw(_options(clean, a=_SIZES))], draw(floats)


def _strict(text):
    def refuse(literal):
        raise ValueError(f"{literal} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def _run(argv, text):
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=1000, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(call=_calls())
def test_every_command_answers_in_json_or_one_typed_line(call):
    argv, text = call
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "simulate":
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                fh.write(text)
            argv, text = argv + ["--config", path], ""
        code, out, err = _run(argv, text)
    assert code in (0, 1, 2)
    for line in out.splitlines():
        _strict(line)
    assert "Traceback" not in err
    if code == 1:
        # an input error, or a usage error from the command's own parser
        assert re.match(r"evshape( [a-z-]+)?: ", err.splitlines()[-1]), err
    else:
        assert err == ""
