"""End-to-end checks of the command-line surface.

Everything runs in process through ``cli.main`` with a patched stdin;
one subprocess test at the end confirms the installed entry point.
"""

import hashlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys

import pytest

from evshape import cli
from evshape.cli import main
from evshape.continuous import make_step_density
from evshape.errors import EvshapeError
from evshape.pmf import make_pmf, pmf_from_text, sample


def run_cli(monkeypatch, capsys, argv, stdin_text=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stream_of(masses, seed, n):
    return "\n".join(str(x) for x in sample(make_pmf(0, masses), seed, n))


def test_test_monotone_rejects(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["test-monotone", "--alpha", "0.05"],
                           stream_of([0.25, 0.75], seed=4, n=2000))
    assert code == 2
    payload = json.loads(out)
    assert payload["decision"] == "reject"
    assert payload["n"] <= 2000
    assert payload["log_value"] >= 2.9957 - 1e-3


def test_test_monotone_continues(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["test-monotone", "--alpha", "0.05"],
                           "1\n0\n0\n")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"decision": "continue", "n": 3,
                       "log_value": payload["log_value"]}
    assert payload["log_value"] < 3.0


def test_test_monotone_accepts_jsonl(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["test-monotone", "--alpha", "0.5"],
                           '{"x": 0}\n{"x": 1}\n')
    assert code == 0
    assert json.loads(out)["n"] == 2


def test_test_unimodal(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["test-unimodal", "--alpha", "0.05",
                            "--theta", "5"],
                           stream_of([0.5, 0.0, 0.5], seed=9, n=3000))
    assert code == 2
    payload = json.loads(out)
    assert payload["decision"] == "reject"
    assert payload["theta"] == 5

    code, out, _ = run_cli(monkeypatch, capsys,
                           ["test-unimodal", "--alpha", "0.05",
                            "--theta", "0"],
                           "0\n1\n2\n")
    assert code == 0
    assert json.loads(out)["decision"] == "continue"


def test_test_unimodal_free(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["test-unimodal-free", "--alpha", "0.05",
                            "--phi", "1"],
                           stream_of([0.4, 0.1, 0.5], seed=2, n=20_000))
    assert code == 2
    payload = json.loads(out)
    assert payload["decision"] == "reject"
    lo, hi = payload["window"]
    assert lo <= hi

    code, out, _ = run_cli(monkeypatch, capsys,
                           ["test-unimodal-free", "--alpha", "0.05",
                            "--phi", "1"],
                           "3\n3\n3\n")
    assert code == 0
    assert json.loads(out)["decision"] == "continue"

    # full scans move the tracked peak about 1300 sites below the data
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["test-unimodal-free", "--alpha", "0.05",
                            "--phi", "1"],
                           "\n".join(str(x) for x in sample(
                               make_pmf(10, [0.4, 0.1, 0.5]), 7, 40_000)))
    assert code == 2
    assert json.loads(out)["n"] == 5554


def test_mode_ci(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["mode-ci", "--alpha", "0.1", "--phi", "0"],
                           "5\n")
    assert code == 0
    assert json.loads(out) == {
        "x": 5, "alpha": 0.1, "phi": 0,
        "interval": {"kind": "range", "lo": -99, "hi": 109},
    }


def test_mode_ci_finite(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["mode-ci", "--alpha", "0.2", "--phi", "1",
                            "--finite"],
                           "0\n")
    assert code == 0
    assert json.loads(out)["interval"] == {"kind": "range",
                                           "lo": -20, "hi": 20}


def test_mode_ci_empty_stdin_is_an_error(monkeypatch, capsys):
    code, _, err = run_cli(monkeypatch, capsys,
                           ["mode-ci", "--alpha", "0.1", "--phi", "0"], "")
    assert code == 1
    assert "evshape:" in err


def test_mode_track_streams_jsonl(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["mode-track", "--alpha", "0.05"],
                           "4\n4\n5\n")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [line["n"] for line in lines] == [1, 2, 3]
    for line in lines:
        assert set(line) == {"n", "rejected", "window", "estimate_excluded"}
        assert line["rejected"] == []


@pytest.mark.parametrize("offset", [2**53 + 1, 2**63, -(2**63) - 5])
def test_mode_track_is_shift_invariant_past_float_precision(monkeypatch, capsys,
                                                             offset):
    # sites past 2**53 collide as floats; every line must be the line of
    # the unshifted stream moved by the offset
    rng = random.Random(3)
    obs = [rng.choice([0, 1, 1, 2, 2, 2, 5]) for _ in range(40)]

    def track(shift):
        stdin = "".join(json.dumps({"x": x + shift}) + "\n" for x in obs)
        code, out, _ = run_cli(monkeypatch, capsys,
                               ["mode-track", "--alpha", "0.05"], stdin)
        assert code == 0
        return [json.loads(line) for line in out.splitlines()]

    base = track(0)
    assert sum(len(line["rejected"]) for line in base) > 0
    moved = [{
        "n": line["n"],
        "rejected": [r - offset for r in line["rejected"]],
        "window": line["window"] and [w - offset for w in line["window"]],
        "estimate_excluded": [e - offset for e in line["estimate_excluded"]],
    } for line in track(offset)]
    assert moved == base


def test_mode_track_reports_far_data_as_one_line(monkeypatch, capsys):
    # a peak scan as wide as data 2**60 apart cannot be allocated: the line
    # before it stands, then one typed error line and exit 1, no traceback
    code, out, err = run_cli(monkeypatch, capsys, ["mode-track", "--alpha", "0.05"],
                             f"0\n{2**60}\n")
    assert code == 1
    assert [json.loads(line)["n"] for line in out.splitlines()] == [1]
    assert err.startswith("evshape: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_check_evalue_constant_one(monkeypatch, capsys):
    e_json = json.dumps({"lo": 0, "values": [1.0, 1.0],
                         "left_tail": 1.0, "right_tail": 1.0})
    code, out, _ = run_cli(monkeypatch, capsys, ["check-evalue"], e_json)
    assert code == 0
    assert json.loads(out) == {"polar_M": True, "polar_D_0": True}

    code, out, _ = run_cli(monkeypatch, capsys,
                           ["check-evalue", "--theta", "2"], e_json)
    assert json.loads(out) == {"polar_M": True, "polar_D_2": True}


def test_check_evalue_rejects_negative(monkeypatch, capsys):
    bad = json.dumps({"lo": 0, "values": [-0.5],
                      "left_tail": 0.0, "right_tail": 0.0})
    code, _, err = run_cli(monkeypatch, capsys, ["check-evalue"], bad)
    assert code == 1
    assert "evshape:" in err


def test_numeraire_command(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["numeraire"],
                           "0 0.1\n1 0.9\n")
    assert code == 0
    payload = json.loads(out)
    assert payload["contacts"] == [-1, 1]
    assert payload["slopes"] == pytest.approx([0.5, 0.5])
    assert payload["ripr"]["masses"] == pytest.approx([0.5, 0.5])
    assert payload["numeraire"]["values"] == pytest.approx([0.2, 1.8])
    assert payload["max_epower"] == pytest.approx(0.36806420716849717,
                                                  abs=1e-9)


def test_numeraire_with_a_mass_below_the_cdf_rounding_is_a_typed_error(
        monkeypatch, capsys):
    # 1 + 1e-165 == 1, so the majorant fits mass 0 at index 1
    code, out, err = run_cli(monkeypatch, capsys, ["numeraire"],
                             "0 1.0\n1 1e-165\n")
    assert (code, out) == (1, "")
    assert err == ("evshape: mass 1e-165 at index 1 has fitted mass 0: "
                   "it is below the rounding of the CDF\n")


@pytest.mark.parametrize("lo", [2**63, 2**60 - 1], ids=["past ssize_t", "past a list"])
@pytest.mark.parametrize("form", ['{"lo": %d, "masses": [1.0]}', "%d 1.0\n"],
                         ids=["json", "text"])
def test_numeraire_names_a_table_too_far_from_0_to_list(monkeypatch, capsys, lo, form):
    # the e-value and slopes are written from 0 up, and no list holds 2**60
    # entries: the check raises before anything is written
    code, out, err = run_cli(monkeypatch, capsys, ["numeraire"], form % lo)
    assert (code, out) == (1, "")
    assert err == (f"evshape: lo is too far from 0: the masses from 0 to {lo} "
                   "cannot be listed\n")


def test_cont_numeraire_with_a_level_below_the_cdf_rounding_is_a_typed_error(
        monkeypatch, capsys):
    # 1 + 1e-300 == 1, so the majorant fits level 0 on (1, 2]
    code, out, err = run_cli(monkeypatch, capsys, ["cont-numeraire"],
                             '{"breakpoints": [0, 1, 2], "levels": [1, 1e-300]}')
    assert (code, out) == (1, "")
    assert err == ("evshape: level 1e-300 up to 2.0 is fitted as 0: "
                   "it is below the rounding of the CDF\n")


def test_cont_ci(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["cont-ci", "--alpha", "0.1", "--phi", "0"],
                           "5\n")
    assert code == 0
    interval = json.loads(out)["interval"]
    assert interval["lo"] == pytest.approx(-100.0)
    assert interval["hi"] == pytest.approx(110.0)

    code, out, _ = run_cli(monkeypatch, capsys,
                           ["cont-ci", "--alpha", "0.1", "--phi", "0",
                            "--edelman"],
                           "5\n")
    interval = json.loads(out)["interval"]
    assert interval["lo"] == pytest.approx(-90.0)
    assert interval["hi"] == pytest.approx(100.0)


def test_cont_pvalue(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["cont-pvalue", "--a", "1"], "3\n")
    assert code == 0
    assert json.loads(out)["pvalue"] == pytest.approx(0.8)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
def test_cont_pvalue_rejects_non_finite(monkeypatch, capsys, value):
    code, out, err = run_cli(monkeypatch, capsys,
                             ["cont-pvalue", "--a", "1"], value + "\n")
    assert code == 1
    assert out == ""
    assert "not finite" in err


@pytest.mark.parametrize("value", ["nan", "inf", '{"x": NaN}'])
def test_cont_ci_rejects_non_finite(monkeypatch, capsys, value):
    code, out, err = run_cli(monkeypatch, capsys,
                             ["cont-ci", "--alpha", "0.1", "--phi", "0"],
                             value + "\n")
    assert code == 1
    assert out == ""
    assert "not finite" in err


@pytest.mark.parametrize("edelman", [[], ["--edelman"]], ids=["mode", "edelman"])
def test_cont_ci_names_an_interval_that_overflows(monkeypatch, capsys, edelman):
    # |x - phi| overflows to inf: a typed line, not json's own complaint
    code, out, err = run_cli(monkeypatch, capsys,
                             ["cont-ci", "--alpha", "0.5", "--phi", "1e308", *edelman],
                             "-1e308\n")
    factor = "3.0" if edelman else "5.0"  # 2/alpha -+ 1
    assert (code, out) == (1, "")
    assert err == (f"evshape: interval -1e+308 -+ {factor} * |-1e+308 - 1e+308| "
                   "overflows a float\n")
    # finite ends near the float range still print
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["cont-ci", "--alpha", "0.5", "--phi", "0", *edelman], "1e307\n")
    assert code == 0 and json.loads(out)["interval"]["kind"] == "open"


_HUGE = "1" + "0" * 400  # a JSON integer past the float range


@pytest.mark.parametrize("argv, text", [
    (["numeraire"], '{"lo": 0, "masses": [0.5, %s]}' % _HUGE),
    (["check-evalue"], '{"lo": 0, "values": [%s], "left_tail": 0, "right_tail": 0}' % _HUGE),
    (["cont-numeraire"], '{"breakpoints": [0, %s], "levels": [1]}' % _HUGE),
    (["cont-pvalue", "--a", "0"], '{"x": %s}\n' % _HUGE),
    (["cont-ci", "--alpha", "0.1", "--phi", "0"], '{"x": %s}\n' % _HUGE),
], ids=["numeraire", "check-evalue", "cont-numeraire", "cont-pvalue", "cont-ci"])
def test_integers_too_large_for_a_float_are_typed_errors(monkeypatch, capsys, argv, text):
    code, out, err = run_cli(monkeypatch, capsys, argv, text)
    assert (code, out) == (1, "")
    assert err.startswith("evshape: ") and err.count("\n") == 1
    assert "too large for a float" in err


_EVALUE = '{"lo": %s, "values": [1.0], "left_tail": 0.0, "right_tail": 0.0}'


@pytest.mark.parametrize("lo, theta, field", [
    (_HUGE, "0", "lo"),
    ("0", _HUGE, "--theta's distance to the table"),
    # each offset is a float, the distance between them is not
    ("-1" + "0" * 308, "1" + "0" * 308, "--theta's distance to the table"),
], ids=["lo", "theta", "distance"])
def test_check_evalue_names_an_offset_too_far_for_a_float(monkeypatch, capsys,
                                                         lo, theta, field):
    code, out, err = run_cli(monkeypatch, capsys, ["check-evalue", "--theta", theta],
                             _EVALUE % lo)
    assert (code, out, err) == (1, "", f"evshape: {field} is too large for a float\n")


_OVERFLOWING = '{"scenario": "type1", "distribution": %s, "n": 10, "reps": 1, "alpha": 0.05}'


@pytest.mark.parametrize("argv, text, message", [
    (["numeraire"], '{"lo":0,"masses":[1e308,1e308]}', "total mass inf exceeds 1"),
    (["numeraire"], "0 1e308\n1 1e308\n", "total mass inf exceeds 1"),
    (["cont-numeraire"], '{"breakpoints":[0,1,2],"levels":[1.5e308,1.5e308]}',
     "total mass inf exceeds 1"),
    (["simulate"], _OVERFLOWING % '{"lo":0,"masses":[1e308,1e308]}',
     "bad distribution: total mass inf exceeds 1"),
], ids=["numeraire-json", "numeraire-text", "cont-numeraire", "simulate"])
def test_a_total_past_the_float_range_is_a_typed_error(monkeypatch, capsys, tmp_path,
                                                       argv, text, message):
    # the exact sum exceeds every float, so it exceeds 1: it reads inf
    if argv[0] == "simulate":
        path = tmp_path / "cfg.json"
        path.write_text(text)
        argv, text = argv + ["--config", str(path)], ""
    code, out, err = run_cli(monkeypatch, capsys, argv, text)
    assert (code, out, err) == (1, "", f"evshape: {message}\n")


def test_check_evalue_reads_a_sum_past_the_float_range_as_past_its_cap(monkeypatch,
                                                                       capsys):
    # a tail of 1.0 from 0 to lo, then 1e307: the sum through lo passes every float
    text = '{"lo": %d, "values": [1e307], "left_tail": 1.0, "right_tail": 0.0}'
    code, out, err = run_cli(monkeypatch, capsys, ["check-evalue", "--theta", "0"],
                             text % int(1.79e308))
    assert (code, out, err) == (0, '{"polar_D_0": false, "polar_M": false}\n', "")


@pytest.mark.parametrize("argv, text, message", [
    (["numeraire"], "0 nan\n1 1\n", "mass nan is not a number"),
    (["numeraire"], '{"lo": 0, "masses": [0.5, NaN, -1.0]}', "mass nan is not a number"),
    (["numeraire"], '{"lo": 0, "masses": [0.5, -1.0, NaN]}', "mass -1.0 is negative"),
    (["check-evalue"], '{"lo": 0, "values": [NaN], "left_tail": 0, "right_tail": 0}',
     "e-value entry nan is not a number"),
    (["cont-numeraire"], '{"breakpoints": [0, 1], "levels": [NaN]}',
     "step level nan is not a number"),
    (["cont-numeraire"], '{"breakpoints": [0, 1], "levels": [1.0], "atom0": NaN}',
     "atom nan is not a number"),
], ids=["text-mass", "json-mass", "negative-first", "evalue", "level", "atom"])
def test_the_first_nan_or_negative_entry_names_the_error(monkeypatch, capsys,
                                                         argv, text, message):
    code, out, err = run_cli(monkeypatch, capsys, argv, text)
    assert (code, out, err) == (1, "", f"evshape: {message}\n")


@pytest.mark.parametrize("alpha", ["0", "1", "-0.5", "2"])
def test_tracker_tests_refuse_a_level_outside_the_unit_interval(monkeypatch, capsys,
                                                                alpha):
    for argv in (["test-monotone"], ["test-unimodal", "--theta", "0"]):
        code, out, err = run_cli(monkeypatch, capsys, argv + ["--alpha", alpha], "0\n")
        assert (code, out) == (1, "")
        assert err == f"evshape: alpha {float(alpha)} must lie in (0, 1)\n"


@pytest.mark.parametrize("argv", [["test-monotone"], ["test-unimodal", "--theta", "1"],
                                  ["test-unimodal", "--theta", _HUGE]],
                         ids=["monotone", "unimodal", "unimodal-far-theta"])
def test_tracker_tests_weigh_a_site_past_the_float_range_at_zero(monkeypatch, capsys,
                                                                 argv):
    # a site 10**400 from the peak weighs 2**-(10**400), 0.0 in floats, as
    # one 10**6 away does, and adds nothing to the mixture
    argv = argv + ["--alpha", "0.05"]
    far = run_cli(monkeypatch, capsys, argv, "0\n%s\n1\n0\n2\n" % _HUGE)
    near = run_cli(monkeypatch, capsys, argv, "0\n1000000\n1\n0\n2\n")
    assert far[0] == 0 and far == near


def test_integer_streams_reject_non_finite_json(monkeypatch, capsys):
    for argv in (["test-monotone", "--alpha", "0.05"],
                 ["mode-ci", "--alpha", "0.1", "--phi", "1"]):
        code, out, err = run_cli(monkeypatch, capsys, argv,
                                 '{"x": Infinity}\n')
        assert code == 1
        assert out == ""
        assert "not finite" in err


@pytest.mark.parametrize("line", ['{"x": 2.7}', '{"x": 2.0}', '{"x": true}',
                                  '{"x": "3"}', '{"x": null}', "2.7"])
def test_integer_streams_reject_non_integers(monkeypatch, capsys, line):
    code, out, err = run_cli(monkeypatch, capsys,
                             ["test-monotone", "--alpha", "0.05"],
                             '{"x": 2}\n' + line + "\n")
    assert code == 1
    assert out == ""
    assert err.startswith("evshape: ")


@pytest.mark.parametrize("line", ['{"x": null}', '{"x": true}', '{"x": false}',
                                  '{"x": "3"}', '{"x": [1.5]}', '{"x": {}}'])
def test_float_streams_reject_non_numbers(monkeypatch, capsys, line):
    for argv in (["cont-pvalue", "--a", "1"],
                 ["cont-ci", "--alpha", "0.1", "--phi", "0"]):
        code, out, err = run_cli(monkeypatch, capsys, argv, line + "\n")
        assert code == 1
        assert out == ""
        assert "is not a number" in err


def test_float_streams_accept_json_numbers(monkeypatch, capsys):
    for line, x in (('{"x": 3}', 3), ('{"x": 2.5}', 2.5)):
        code, out, _ = run_cli(monkeypatch, capsys, ["cont-pvalue", "--a", "1"],
                               line + "\n")
        assert code == 0
        assert json.loads(out)["x"] == x


def test_non_finite_options_are_usage_errors(monkeypatch, capsys):
    for argv in (["cont-pvalue", "--a", "nan"],
                 ["cont-ci", "--alpha", "0.1", "--phi", "inf"],
                 ["test-monotone", "--alpha", "nan"]):
        code, out, err = run_cli(monkeypatch, capsys, argv, "1\n")
        assert code == 1
        assert out == ""
        assert "not a finite number" in err


def test_cont_numeraire(monkeypatch, capsys):
    q = make_step_density((0.0, 1.0, 2.0), (0.25, 0.75))
    code, out, _ = run_cli(monkeypatch, capsys, ["cont-numeraire"],
                           json.dumps(q.to_json()))
    assert code == 0
    payload = json.loads(out)
    assert payload["lcm"]["levels"] == pytest.approx([0.5])
    assert payload["numeraire"]["levels"] == pytest.approx([0.5, 1.5])
    assert payload["max_epower"] == pytest.approx(
        0.25 * -0.6931471805599453 + 0.75 * 0.4054651081081644, abs=1e-12)


def test_simulate(monkeypatch, capsys, tmp_path):
    cfg = {
        "scenario": "growth",
        "distribution": make_pmf(0, [0.25, 0.75]).to_json(),
        "n": 100, "reps": 2, "alpha": 0.05, "seed": 11,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    csv_path = tmp_path / "agg.csv"

    code, out, _ = run_cli(monkeypatch, capsys,
                           ["simulate", "--config", str(cfg_path),
                            "--csv", str(csv_path)])
    assert code == 0
    report = json.loads(out)
    assert report["config"]["seed"] == 11
    assert len(report["records"]) == 2
    assert "mean_rate" in csv_path.read_text()

    code, out, _ = run_cli(monkeypatch, capsys,
                           ["simulate", "--config", str(cfg_path),
                            "--seed", "99"])
    assert json.loads(out)["config"]["seed"] == 99

    cfg_path.write_text(json.dumps(dict(cfg, theta=1)))
    code, out, err = run_cli(monkeypatch, capsys,
                             ["simulate", "--config", str(cfg_path)])
    assert (code, out) == (1, "")
    assert "unknown config fields: theta" in err


def test_simulate_missing_file(monkeypatch, capsys, tmp_path):
    code, _, err = run_cli(monkeypatch, capsys,
                           ["simulate", "--config",
                            str(tmp_path / "absent.json")])
    assert code == 1
    assert err


def test_usage_errors_exit_one(monkeypatch, capsys):
    assert run_cli(monkeypatch, capsys, ["no-such-command"])[0] == 1
    assert run_cli(monkeypatch, capsys, ["test-monotone"])[0] == 1
    assert run_cli(monkeypatch, capsys,
                   ["test-monotone", "--alpha", "oops"])[0] == 1


ONE_PROCESS_CALLS = [
    (["numeraire"], "0 0.1\n1 0.9\n"),
    (["test-monotone", "--alpha", "oops"], ""),
    (["check-evalue", "--theta", "3"],
     '{"lo": 0, "values": [0.5, 2.0], "left_tail": 1.0, "right_tail": 1.0}'),
    (["check-evalue"],
     '{"lo": 0, "values": [0.5, 2.0], "left_tail": 1.0, "right_tail": 1.0}'),
    (["test-unimodal", "--alpha", "0.05", "--theta", "1"], "1\n2\n0\n1\n"),
]


def test_the_parser_is_built_once_and_reused_unchanged(monkeypatch, capsys):
    # every call in one process against the same call on a fresh parser:
    # no default (check-evalue's --theta) and no state leaks between calls
    cli._build_parser.cache_clear()
    reused = [run_cli(monkeypatch, capsys, argv, text)
              for argv, text in ONE_PROCESS_CALLS]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv, text in ONE_PROCESS_CALLS:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(monkeypatch, capsys, argv, text))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 1, 0, 0, 0]
    assert reused[1][2].startswith("usage: evshape test-monotone")
    assert list(json.loads(reused[2][1])) == ["polar_D_3", "polar_M"]
    assert list(json.loads(reused[3][1])) == ["polar_D_0", "polar_M"]


GROWTH_CONFIG = {"scenario": "growth",
                 "distribution": {"lo": 0, "masses": [0.25, 0.75]},
                 "n": 100, "reps": 2, "alpha": 0.05}

MALFORMED = [
    pytest.param(["check-evalue"],
                 '{"lo":0,"values":[null],"left_tail":0,"right_tail":0}',
                 "is not a number", id="evalue-null-entry"),
    pytest.param(["check-evalue"],
                 '{"lo":0,"values":5,"left_tail":0,"right_tail":0}',
                 "must be a list", id="evalue-values-not-a-list"),
    pytest.param(["check-evalue"],
                 '{"lo":0.5,"values":[1],"left_tail":0,"right_tail":0}',
                 "is not an integer", id="evalue-fractional-lo"),
    pytest.param(["check-evalue"],
                 '{"lo":true,"values":[1],"left_tail":0,"right_tail":0}',
                 "is not an integer", id="evalue-boolean-lo"),
    pytest.param(["numeraire"], '{"lo":0,"masses":[null,1]}',
                 "is not a number", id="pmf-null-mass"),
    pytest.param(["numeraire"], '{"lo":0.5,"masses":[0.5,0.5]}',
                 "is not an integer", id="pmf-fractional-lo"),
    pytest.param(["numeraire"], '{"lo":true,"masses":[0.5,0.5]}',
                 "is not an integer", id="pmf-boolean-lo"),
    pytest.param(["cont-numeraire"], '{"breakpoints":[0,null],"levels":[1]}',
                 "is not a number", id="density-null-breakpoint"),
    pytest.param(["cont-numeraire"], "[1,2]",
                 "expected a JSON object", id="density-not-an-object"),
    pytest.param(["simulate"], json.dumps(dict(GROWTH_CONFIG, n=None)),
                 "is not an integer", id="config-null-n"),
    pytest.param(["simulate"], json.dumps(dict(GROWTH_CONFIG, n="abc")),
                 "is not an integer", id="config-string-n"),
    pytest.param(["simulate"], "[1]",
                 "expected a JSON object", id="config-not-an-object"),
    pytest.param(["simulate", "--seed", "5"], "[1]",
                 "expected a JSON object", id="config-not-an-object-seeded"),
    # a missing field is named, not echoed as a bare KeyError
    pytest.param(["check-evalue"], '{"values":[1],"left_tail":0,"right_tail":0}',
                 "JSON object has no field 'lo'", id="evalue-missing-lo"),
    pytest.param(["check-evalue"], '{"lo":0,"values":[1],"left_tail":0}',
                 "JSON object has no field 'right_tail'", id="evalue-missing-tail"),
    pytest.param(["numeraire"], '{"lo":0}',
                 "JSON object has no field 'masses'", id="pmf-missing-masses"),
    pytest.param(["cont-numeraire"], '{"levels":[1]}',
                 "JSON object has no field 'breakpoints'",
                 id="density-missing-breakpoints"),
    pytest.param(["test-monotone", "--alpha", "0.05"], '0\n{"y": 1}\n',
                 "JSON object has no field 'x'", id="stream-missing-x"),
    pytest.param(["mode-track", "--alpha", "0.05"], '{"y": 1}\n',
                 "JSON object has no field 'x'", id="track-missing-x"),
    pytest.param(["simulate"],
                 json.dumps(dict(GROWTH_CONFIG, distribution={"lo": 0})),
                 "bad distribution: JSON object has no field 'masses'",
                 id="config-distribution-missing-masses"),
    # is_sub is a JSON boolean or absent, never read by truthiness
    *(pytest.param([cmd], f'{{{fields},"is_sub":{value}}}',
                   f"is_sub {shown} is not a JSON boolean", id=f"{what}-is-sub-{name}")
      for cmd, what, fields in [("numeraire", "pmf", '"lo":0,"masses":[0.5,0.5]'),
                                ("cont-numeraire", "density",
                                 '"breakpoints":[0,1],"levels":[1.0]')]
      for value, shown, name in [('"false"', "'false'", "string"),
                                 ("null", "None", "null"), ("0", "0", "zero"),
                                 ("1", "1", "one")]),
    pytest.param(["simulate"], json.dumps(dict(
        GROWTH_CONFIG, distribution={"lo": 0, "masses": [1.0], "is_sub": "false"})),
                 "bad distribution: is_sub 'false' is not a JSON boolean",
                 id="config-distribution-string-is-sub"),
]


@pytest.mark.parametrize("argv, text, message", MALFORMED)
def test_malformed_json_is_a_one_line_error(monkeypatch, capsys, tmp_path,
                                            argv, text, message):
    if argv[0] == "simulate":
        path = tmp_path / "cfg.json"
        path.write_text(text)
        argv, text = argv + ["--config", str(path)], ""
    code, out, err = run_cli(monkeypatch, capsys, argv, text)
    assert (code, out) == (1, "")
    assert err.startswith("evshape: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("text, message", [
    ("0 0.5 1\n1 0.5\n", "row 1: expected 2 fields (index mass), found 3"),
    ("0 0.5\n\n1\n", "row 3: expected 2 fields (index mass), found 1"),
    ("x 0.5\n", "row 1: index 'x' does not read as an integer"),
    ("0 0.5\n1 abc\n", "row 2: mass 'abc' does not read as a number"),
    ("# note\n0 0.5\n0 0.5\n", "row 3: duplicate index 0"),
    ("0\x0c1\n", "row 1: expected 2 fields (index mass), found 1"),
    ("# only a comment\n", "no index mass rows found"),
    ("", "no index mass rows found"),
], ids=["three-fields", "one-field", "bad-index", "bad-mass", "duplicate", "form-feed",
        "only-a-comment", "empty"])
def test_malformed_text_names_its_row(monkeypatch, capsys, text, message):
    code, out, err = run_cli(monkeypatch, capsys, ["numeraire"], text)
    assert (code, out, err) == (1, "", f"evshape: {message}\n")
    # still a ValueError, for callers that catch one
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        pmf_from_text(text)
    assert isinstance(info.value, EvshapeError)


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "evshape.cli", "mode-ci",
         "--alpha", "0.5", "--phi", "0"],
        input="1\n", capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["interval"] == {"kind": "range",
                                                   "lo": -3, "hi": 5}


def test_cli_imports_no_process_pool():
    code = ("import sys, evshape.cli; print(sorted(m for m in sys.modules if "
            "m.split('.')[0] == 'multiprocessing' or "
            "m.startswith('concurrent.futures')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_FAR_TABLE = '{"lo": %d, "values": [0.5, 0.25, 0.1], "left_tail": 0.5, "right_tail": 0.5}'


def _limit_child():
    # the child's own address space: 1 GB, set in the child only
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("lo, theta", [(0, 10**12), (10**12, 0)],
                         ids=["theta-1e12", "lo-1e12"])
def test_far_check_evalue_answers_within_its_limits(lo, theta):
    # the tail run between the table and theta, or zero, is one piece, so
    # the check answers at once under 1 GB of address space and 10 s
    proc = subprocess.run(
        [sys.executable, "-m", "evshape.cli", "check-evalue", "--theta", str(theta)],
        input=_FAR_TABLE % lo, capture_output=True, text=True, timeout=10,
        preexec_fn=_limit_child)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"polar_M": True, f"polar_D_{theta}": True}


# the bytes the lists from 0 wrote for this table, 260 MB of them
_FAR_NUMERAIRE_SHA256 = "e2ba08e4a0969c0086f9650ef68bbbb11da47b064ecd4af9cf768f0bbaa3a227"


def _limit_child_to_300_mb():
    resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))


def test_far_numeraire_writes_its_runs_in_bounded_memory():
    # slopes and values from 0 at lo = 10^7 are written run by run, in pieces
    # of bounded length, so the child answers under 300 MB of address space
    # (lists from 0 took 760 MB); one BLAS thread keeps the address space
    # numpy reserves from growing with the host's CPUs
    child = subprocess.Popen(
        [sys.executable, "-m", "evshape.cli", "numeraire"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, preexec_fn=_limit_child_to_300_mb)
    child.stdin.write(b'{"lo": 10000000, "masses": [0.5, 0.3, 0.2]}')
    child.stdin.close()
    digest = hashlib.sha256()
    for chunk in iter(lambda: child.stdout.read(1 << 20), b""):
        digest.update(chunk)
    assert child.wait(timeout=10) == 0, child.stderr.read()
    assert digest.hexdigest() == _FAR_NUMERAIRE_SHA256
