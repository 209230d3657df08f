"""CLI contract: grammar, JSON envelope, exit codes, determinism."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lplab import cli, constants
from lplab.cli import _LEMMAS, main
from lplab.verify import (
    check_block_inequalities,
    check_circle_minimum,
    check_cubic_min_algebra,
    check_positivity_interval,
    check_sign_alternation,
    check_tail_gap,
)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_reject_constant)


def test_eval_json_envelope(capsys):
    code, doc = run_json(
        capsys, ["eval", "--family", "eulerF", "--a", "4", "--z", "-5", "--tol", "1e-14"]
    )
    assert code == 0
    assert doc["command"] == "eval"
    assert doc["inputs"]["a"] == 4.0
    assert doc["inputs"]["z"] == {"re": -5.0, "im": 0.0}
    assert doc["result"]["value"]["re"] == pytest.approx(0.2719312322405228, abs=1e-13)
    assert doc["error_bounds"]["abs_error_bound"] < 1e-12
    assert doc["tool_version"] == "0.1.0"
    assert "runtime_ms" in doc


def test_eval_complex_argument(capsys):
    code, doc = run_json(
        capsys, ["eval", "--family", "theta", "--a", "2", "--z", "1,2"]
    )
    assert code == 0
    assert doc["result"]["value"]["im"] != 0.0


def test_section_value(capsys):
    code, doc = run_json(
        capsys, ["section", "--family", "eulerF", "--a", "4", "--n", "2", "--z", "17"]
    )
    assert code == 0
    # 1 + 17/5 + 289/85 at the positive-coefficient convention
    assert doc["result"]["value"]["re"] == pytest.approx(1.0 + 3.4 + 3.4, rel=1e-13)


def test_quotients_json_and_csv(capsys):
    code, doc = run_json(
        capsys, ["quotients", "--family", "eulerF", "--a", "4", "--n-max", "5"]
    )
    assert code == 0
    table = doc["result"]["table"]
    assert table[1]["q"] == pytest.approx(3.4, rel=1e-14)
    assert doc["result"]["limit"] == 4.0
    code = main(
        ["quotients", "--family", "eulerF", "--a", "4", "--n-max", "3", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,p,q"
    assert len(lines) == 4


def test_classify_commands(capsys):
    code, doc = run_json(capsys, ["classify", "--a", "3.0"])
    assert code == 0
    assert doc["result"]["verdict"] == "NotInLP"
    assert doc["result"]["criterion"] == "q2_necessary"
    code, doc = run_json(capsys, ["classify", "--a", "5.0"])
    assert doc["result"]["verdict"] == "InLP"


def test_sign_test_theta_with_section(capsys):
    code, doc = run_json(
        capsys, ["sign-test", "--family", "theta", "--a", "2.0", "--n", "2"]
    )
    assert code == 0
    assert doc["result"]["verdict"] == "Boundary"


def test_sign_test_euler_rejects_section(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sign-test", "--family", "eulerF", "--a", "4.0", "--n", "2"])
    assert exc.value.code == 2
    assert "expected --family theta --n N" in capsys.readouterr().err


def test_zeros_block_radius(capsys):
    code, doc = run_json(capsys, ["zeros", "--a", "4.0", "--radius", "rho:4"])
    assert code == 0
    assert doc["result"]["count"] == 4
    assert doc["result"]["certified"] is True
    assert doc["result"]["radius_spec"]["j"] == 4


def test_zeros_explicit_radius(capsys):
    code, doc = run_json(capsys, ["zeros", "--a", "4.0", "--radius", "3.4"])
    assert code == 0
    assert doc["result"]["count"] == 2


def test_constants_q_infinity(capsys):
    code, doc = run_json(
        capsys, ["constants", "--name", "q_infinity", "--tol", "1e-6"]
    )
    assert code == 0
    assert doc["result"]["lo"] <= 3.23363666 <= doc["result"]["hi"]
    assert doc["error_bounds"]["width"] <= 1e-6


def test_constants_tolerance_wider_than_the_probe_cell(capsys):
    code = main(["constants", "--name", "q_infinity", "--tol", "1e300"])
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 0
    assert doc["result"]["evaluations"] == constants._PROBE_POINTS
    assert doc["result"]["lo"] <= 3.23363666 <= doc["result"]["hi"]
    assert doc["error_bounds"] == {"width": pytest.approx(1.0 / 11.0), "tol": 1e300}


def test_constants_c_n_requires_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--name", "c_n"])
    assert exc.value.code == 2
    assert "expected --name c_n --n N" in capsys.readouterr().err
    code, doc = run_json(capsys, ["constants", "--name", "c_n", "--n", "2"])
    assert code == 0
    assert abs(doc["result"]["midpoint"] - 4.0) < 1e-5


def test_constants_critical_a_reports_missing_bracket(capsys):
    # the sign test has no transition inside the default [3.9, 3.92] window
    code, doc = run_json(capsys, ["constants", "--name", "critical_a", "--tol", "1e-5"])
    assert code == 1
    assert doc["error_type"] == "BracketError"


def test_constants_thresholds_csv(capsys):
    code = main(["constants", "--name", "thresholds", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,computed_root,reference,deviation"
    assert len(lines) == 7
    assert any("cubic_section_octic" in ln for ln in lines)


def test_verify_suites(capsys):
    code, doc = run_json(capsys, ["verify", "--lemma", "2"])
    assert code == 0
    assert doc["result"]["passed"] is True
    code, doc = run_json(capsys, ["verify", "--lemma", "rouche", "--a-grid", "3.6:4.6:4"])
    assert code == 0
    assert doc["result"]["passed"] is True
    code, doc = run_json(capsys, ["verify", "--lemma", "4algebra", "--seed", "3"])
    assert code == 0
    assert doc["result"]["passed"] is True


def test_verify_block_inequalities_over_an_a_grid(capsys):
    code, doc = run_json(capsys, ["verify", "--lemma", "3", "--a-grid", "3.6:4.6:3"])
    assert code == 0
    parts = [check_block_inequalities([a]) for a in doc["inputs"]["a_grid"]]
    res = doc["result"]
    assert res["suite"] == "block_inequalities"
    assert res["passed"] and res["failures"] == [] and res["inapplicable"] == []
    assert res["grid_points"] == sum(p.grid_points for p in parts) == 27
    assert res["worst_margin"] == min(p.worst_margin for p in parts)


def _grid(lo, hi, steps):
    return [float(x) for x in np.linspace(lo, hi, steps)]


# each --lemma choice as a direct call of its suite with the suite's own defaults
_SUITES_WITH_DEFAULTS = {
    "2": lambda: check_circle_minimum(_grid(3.6, 4.6, 8)),
    "rouche": lambda: check_tail_gap(_grid(3.2, 4.6, 8)),
    "3": lambda: check_block_inequalities([4.0]),
    "6": lambda: check_sign_alternation(_grid(3.0, 4.6, 5)),
    "positivity": lambda: check_positivity_interval(_grid(3.6, 4.6, 5)),
    "4algebra": lambda: check_cubic_min_algebra(),
}


@pytest.mark.parametrize("lemma", list(_LEMMAS))
def test_verify_report_is_the_suite_with_its_defaults(capsys, lemma):
    code, doc = run_json(capsys, ["verify", "--lemma", lemma])
    res = _SUITES_WITH_DEFAULTS[lemma]()
    assert code == 0
    assert doc["result"] == {
        "suite": res.name,
        "passed": res.passed,
        "grid_points": res.grid_points,
        "failures": res.failures,
        "inapplicable": res.inapplicable,
        "worst_margin": res.worst_margin,
    }


def test_scan_conjecture(capsys):
    code, doc = run_json(
        capsys, ["scan-conjecture", "--a-lo", "3.9", "--a-hi", "4.0", "--steps", "12"]
    )
    assert code == 0
    assert doc["result"]["single_transition"] is True
    assert len(doc["result"]["points"]) == 12


@pytest.mark.parametrize("a_hi", ["3.9", "3.8"])
def test_scan_conjecture_rejects_an_empty_or_reversed_range(capsys, a_hi):
    code, doc = run_json(
        capsys, ["scan-conjecture", "--a-lo", "3.9", "--a-hi", a_hi, "--steps", "10"]
    )
    assert code == 1
    assert doc["error_type"] == "ParameterError"
    assert "result" not in doc


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--family", "eulerF", "--a", "4"])  # missing --z
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--family", "eulerF", "--a", "4", "--z", "1,2,3"])
    assert exc.value.code == 2
    for argv in (
        ["eval", "--family", "eulerF", "--a", "nan", "--z", "1"],
        ["eval", "--family", "eulerF", "--a", "inf", "--z", "1"],
        ["eval", "--family", "eulerF", "--a", "4", "--z", "nan"],
        ["eval", "--family", "theta", "--a", "4", "--z", "1,-inf"],
        ["zeros", "--a", "4", "--radius", "abc"],
        ["zeros", "--a", "4", "--radius", "rho:x"],
        ["verify", "--lemma", "2", "--a-grid", "3:4:0"],
        ["verify", "--lemma", "2", "--a-grid", "3:4:-1"],
        ["verify", "--lemma", "2", "--a-grid", f"3:4:{2**20 + 1}"],
        ["quotients", "--family", "eulerF", "--a", "2", "--n-max", "0"],
        ["quotients", "--family", "eulerF", "--a", "2", "--n-max", str(2**20 + 1)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("argv", [
    ["quotients", "--family", "eulerF", "--a", "2", "--n-max", "x"],
    ["eval", "--family", "eulerF", "--a", "abc", "--z", "1"],
    ["eval", "--family", "eulerF", "--a", "4", "--z", "1,x"],
    ["eval", "--family", "eulerF", "--a", "4", "--z", "1", "--tol", ""],
    ["zeros", "--a", "4", "--radius", "abc"],
    ["zeros", "--a", "4", "--radius", "rho:x"],
    ["verify", "--lemma", "2", "--a-grid", "3:x:2"],
])
def test_usage_errors_name_the_expected_form_not_a_function(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected" in err
    # argparse names the type function of any other error, and each is private
    assert not re.search(r"(?<![\w-])_\w", err), err


def test_computation_errors_exit_1_with_json(capsys):
    code, doc = run_json(
        capsys, ["quotients", "--family", "theta", "--a", "1e200", "--n-max", "3"]
    )
    assert code == 1
    assert doc["error_type"] == "FloatRangeError"
    # the terms overflow before they decay: a range error, not a truncation
    code, doc = run_json(capsys, ["eval", "--family", "theta", "--a", "1.01", "--z", "1e6"])
    assert code == 1
    assert doc["error_type"] == "FloatRangeError"
    code, doc = run_json(
        capsys, ["section", "--family", "eulerF", "--a", "4", "--n", "-1", "--z", "1"]
    )
    assert code == 1
    assert doc["error_type"] == "ParameterError"
    # a degree past the term cap is refused before the first term
    code, doc = run_json(
        capsys, ["section", "--family", "theta", "--a", "2", "--n", "10001", "--z", "1"]
    )
    assert code == 1
    assert doc["error"] == "section degree must be <= 10000"
    # so is a block radius past it, however slowly its product grows
    code, doc = run_json(capsys, ["zeros", "--a", "1.001", "--radius", "rho:10001"])
    assert code == 1
    assert doc["error"] == "rho_radius needs j <= 10000"
    # a tolerance below critical_a's resolution is refused, not widened to 1e-8
    code, doc = run_json(capsys, ["constants", "--name", "critical_a", "--tol", "1e-10"])
    assert code == 1
    assert doc["error_type"] == "ParameterError"
    assert doc["error"] == "tol below achievable resolution (min 1e-8)"
    # base samples past the sample cap: an error report, not a traceback
    code, doc = run_json(
        capsys, ["zeros", "--a", "4", "--radius", "3.4", "--samples", "2000000"]
    )
    assert code == 1
    assert doc["error_type"] == "ParameterError"
    # a sign-test grid past its cap: an error report before any allocation
    code, doc = run_json(
        capsys, ["sign-test", "--family", "eulerF", "--a", "3.9", "--grid", str(2**20 + 1)]
    )
    assert code == 1
    assert doc["error_type"] == "ParameterError"
    # so is a scan past its cap on the parameter steps
    code, doc = run_json(
        capsys, ["scan-conjecture", "--a-lo", "3.9", "--a-hi", "4.0", "--steps", str(2**20 + 1)]
    )
    assert code == 1
    assert doc["error"] == "steps must lie in [10, 1048576]"
    # a^2 + 1 is inf: the tail bound rejects that radius
    code, doc = run_json(capsys, ["verify", "--lemma", "rouche", "--a-grid", "1e160:1e160:1"])
    assert code == 1
    assert doc["error_type"] == "ParameterError"
    code, doc = run_json(capsys, ["verify", "--lemma", "3", "--a-grid", "1e200:1e200:1"])
    assert code == 1
    assert doc["error_type"] == "FloatRangeError"
    # the block radii leave the float range before any series is summed
    code, doc = run_json(capsys, ["verify", "--lemma", "6", "--a-grid", "1e30:1e30:1"])
    assert code == 1
    assert doc["error_type"] == "FloatRangeError"
    assert "rho_" in doc["error"]
    # a negative tolerance would let a margin inside the error budget decide
    code, doc = run_json(capsys, ["classify", "--a", "3.8", "--tol", "-1"])
    assert code == 1
    assert doc["error_type"] == "ParameterError"
    assert doc["error"] == "tol must be finite and >= 0, got -1.0"
    # the tail bound rounds to 1: a zero margin is no strict inequality
    code, doc = run_json(capsys, ["verify", "--lemma", "rouche", "--a-grid", "1e100:1e100:1"])
    assert code == 0
    assert doc["result"]["passed"] is False
    assert doc["result"]["worst_margin"] == 0.0
    # no grid point satisfies the suite's hypothesis: no margin, not +inf
    code, doc = run_json(capsys, ["verify", "--lemma", "rouche", "--a-grid", "2:3:3"])
    assert code == 0
    assert doc["result"]["worst_margin"] is None
    assert len(doc["result"]["inapplicable"]) == 3


@pytest.mark.parametrize("radius", ["1e308", "1e200", "rho:500"])
def test_winding_counts_past_the_float_range_fail_quietly(radius):
    # a fresh interpreter, so that numpy's warnings reach its stderr
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "lplab.cli", "zeros", "--a", "4", "--radius", radius],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error_type"] == "FloatRangeError"
    assert proc.stderr == ""


@pytest.mark.parametrize("argv, expected", [
    # HI - LO overflows: the grid would hold nan, and its echo is no JSON
    (["verify", "--lemma", "rouche", "--a-grid=-1e308:1e308:3"], "expected LO:HI:STEPS"),
    (["sign-test", "--family", "eulerF", "--a", "4", "--n", "3"], "expected --family theta --n N"),
    (["constants", "--name", "c_n"], "expected --name c_n --n N"),
    (["classify", "--a", "3.8", "--format", "csv"], "--format csv is not available"),
    (["constants", "--name", "q_infinity", "--format", "csv"], "--format csv is not available"),
])
def test_usage_errors_exit_2_with_no_report_and_no_traceback(argv, expected):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "lplab.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert expected in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, handler", [
    (["classify", "--a", "3.8", "--format", "csv"], "_run_classify"),
    (["constants", "--name", "c_n", "--n", "4", "--format", "csv"], "_run_constants"),
    (["eval", "--family", "eulerF", "--a", "4", "--z", "1", "--format", "csv"], "_run_eval"),
])
def test_csv_without_a_table_is_refused_before_the_handler_runs(monkeypatch, capsys, argv,
                                                                 handler):
    def fail(args):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(cli, handler, fail)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["4", "1.5", "1.0000001", "1e200", "-3", "0", "abc", ""]),
)


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(["eval", "section", "quotients", "zeros"]))
    a = draw(_NUMBER)
    if command == "zeros":
        radius = draw(st.one_of(
            st.floats(min_value=-1.0, max_value=50.0).map(repr),
            st.integers(-2, 40).map(lambda j: f"rho:{j}"),
            st.sampled_from(["1e300", "abc", "rho:x", "rho:"]),
        ))
        return ["zeros", "--a", a, "--radius", radius]
    family = draw(st.sampled_from(["eulerF", "theta", "eulerH"]))
    argv = [command, "--family", family, "--a", a]
    if command == "quotients":
        return argv + ["--n-max", str(draw(st.integers(-2, 60)))]
    z = draw(_NUMBER)
    if draw(st.booleans()):
        z += "," + draw(_NUMBER)
    if command == "section":
        argv += ["--n", str(draw(st.integers(-3, 40)))]
    return argv + ["--z", z]


@settings(max_examples=50, deadline=None)
@given(_cli_argv())
def test_no_input_ends_in_traceback_or_nonstandard_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    if code in (0, 1):
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def test_determinism_modulo_runtime(capsys):
    argv = ["classify", "--a", "3.95"]
    _, doc1 = run_json(capsys, argv)
    _, doc2 = run_json(capsys, argv)
    doc1.pop("runtime_ms")
    doc2.pop("runtime_ms")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_out_path_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["classify", "--a", "5.0", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["result"]["verdict"] == "InLP"


def test_csv_rejected_for_scalar_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--a", "5.0", "--format", "csv"])
    assert exc.value.code == 2


def test_text_format(capsys):
    code = main(["classify", "--a", "5.0", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("command: classify")
    assert "InLP" in out
    # inputs in their JSON form, then the result as a JSON block
    code = main(["eval", "--family", "eulerF", "--a", "4", "--z=-5,1", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    head, block = out.split("result:\n")
    assert head.splitlines() == [
        "command: eval", "  family: eulerF", "  a: 4.0",
        "  z: {'re': -5.0, 'im': 1.0}", "  tol: 1e-12",
    ]
    assert json.loads(block)["value"]["im"] != 0.0


@pytest.mark.parametrize("argv, inputs", [
    (["eval", "--family", "eulerF", "--a", "4", "--z", "-5"],
     {"family": "eulerF", "a": 4.0, "z": {"re": -5.0, "im": 0.0}, "tol": 1e-12}),
    (["section", "--family", "theta", "--a", "2", "--n", "3", "--z", "1,2"],
     {"family": "theta", "a": 2.0, "z": {"re": 1.0, "im": 2.0}, "n": 3}),
    (["quotients", "--family", "eulerH", "--a", "3", "--n-max", "4"],
     {"family": "eulerH", "a": 3.0, "n_max": 4}),
    (["classify", "--a", "5"], {"a": 5.0, "tol": 1e-9}),
    # no --n: the None default is left out
    (["sign-test", "--family", "theta", "--a", "2"],
     {"family": "theta", "a": 2.0, "grid": 512}),
    (["zeros", "--a", "4", "--radius", "rho:2"], {"a": 4.0, "radius": "rho:2", "samples": 256}),
    (["constants", "--name", "c_n", "--n", "2"], {"n": 2, "tol": 1e-6, "name": "c_n"}),
    (["verify", "--lemma", "rouche", "--a-grid", "3.6:4.6:2"],
     {"lemma": "rouche", "a_grid": [3.6, 4.6], "seed": 0}),
    (["scan-conjecture", "--a-lo", "3.9", "--a-hi", "4", "--steps", "10"],
     {"a_lo": 3.9, "a_hi": 4.0, "steps": 10}),
])
def test_inputs_echo_the_parsed_arguments(tmp_path, argv, inputs):
    # every parsed argument but --format and --out, defaults included, in
    # declaration order
    target = tmp_path / "report.json"
    assert main(argv + ["--format", "json", "--out", str(target)]) == 0
    echoed = json.loads(target.read_text())["inputs"]
    assert list(echoed.items()) == list(inputs.items())


@pytest.mark.parametrize("argv, table", [
    (["quotients", "--family", "eulerF", "--a", "4", "--n-max", "6"], "table"),
    (["constants", "--name", "thresholds"], "thresholds"),
    (["verify", "--lemma", "rouche", "--a-grid", "2:3:3"], None),
    (["scan-conjecture", "--a-lo", "3.9", "--a-hi", "4.0", "--steps", "10"], "points"),
    (["verify", "--lemma", "rouche", "--a-grid", "1e100:1e100:1"], None),
    (["verify", "--lemma", "4algebra"], None),
])
def test_csv_is_the_json_table(capsys, argv, table):
    _, doc = run_json(capsys, argv)
    # verify's table is its one result row, each list reduced to its length
    records = doc["result"][table] if table else [doc["result"]]
    assert main(argv + ["--format", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))

    def cell(v):
        return str(len(v)) if isinstance(v, list) else "" if v is None else str(v)

    assert header == list(records[0])
    assert rows == [[cell(v) for v in rec.values()] for rec in records]
