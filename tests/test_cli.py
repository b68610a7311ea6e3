"""End-to-end checks of the command-line surface.

Everything runs in process through ``cli.main`` with a patched stdin;
one subprocess test at the end confirms the installed entry point.
"""

import io
import json
import random
import subprocess
import sys

import pytest

from evshape import cli
from evshape.cli import main
from evshape.continuous import make_step_density
from evshape.pmf import make_pmf, sample


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
