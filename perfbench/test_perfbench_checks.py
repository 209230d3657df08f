"""Each benchmark check accepts lplab's answer and refuses a planted wrong one.

Run with ``python -m pytest perfbench/test_perfbench_checks.py``.
"""

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import refs  # noqa: E402
import workloads  # noqa: E402
from run import judge  # noqa: E402
from tracer import Tracer  # noqa: E402

from lplab import constants, criteria, polyroots, series, zerocount  # noqa: E402

ROOT = os.path.dirname(HERE)
REFDATA = refs.load()


def verdicts(workload, key, good, bad):
    ref = workload.reference(key)
    return workload.check(key, ref, good), workload.check(key, ref, bad)


@pytest.mark.parametrize("key, call", [
    (("classify", 3.0), lambda: criteria.classify_euler(3.0)),
    (("classify", 5.5), lambda: criteria.classify_euler(5.5)),
    (("classify", 4.3), lambda: criteria.classify_euler(4.3)),
    (("classify", 3.8), lambda: criteria.classify_euler(3.8)),
    (("sign_euler", 4.2), lambda: criteria.sign_test_euler(4.2)),
    (("sign_theta", 1.9, 5), lambda: criteria.sign_test_theta(1.9, 5)),
])
def test_membership_check_refuses_flipped_verdict(key, call):
    w = workloads.MembershipSweep(ROOT, REFDATA)
    good = call()
    flipped = criteria.Verdict.NOT_IN_LP if good.verdict is criteria.Verdict.IN_LP \
        else criteria.Verdict.IN_LP
    ok, bad = verdicts(w, key, good, dataclasses.replace(good, verdict=flipped))
    assert ok is None and bad
    _, bad = verdicts(w, key, good, dataclasses.replace(good, margin=good.margin + 1e-6))
    assert bad


def test_zero_census_check_refuses_wrong_count_and_minimum():
    w = workloads.ZeroCensus(ROOT, REFDATA)
    fam = series.SeriesFamily(series.FamilyKind.EULER_F, 4.0, alternating=True)
    key = ("eulerF", "4.0", "rho", 6)
    good = zerocount.count_zeros_in_disk(fam, zerocount.rho_radius(fam, 6))
    ok, bad = verdicts(w, key, good, dataclasses.replace(good, count=good.count + 1))
    assert ok is None and bad
    key = ("eulerF", "4.0", "min_modulus", None, 30.0)
    good = zerocount.min_modulus_on_circle(fam, None, 30.0)
    ok, bad = verdicts(w, key, good, good * (1 + 1e-6))
    assert ok is None and bad


def test_exact_roots_check_refuses_lost_root_moved_root_and_wrong_flag():
    w = workloads.ExactRoots(ROOT, REFDATA)
    coeffs, interval = workloads.THRESHOLD_POLYS[0]
    key = ("threshold", coeffs, interval)
    poly = polyroots.RealPolynomial(tuple(float(c) for c in coeffs))
    brackets, roots, real = workloads._roots_op(polyroots, poly, interval)
    ref = w.reference(key)
    assert w.check(key, ref, (brackets, roots, real)) is None
    assert w.check(key, ref, (brackets[1:], roots[1:], real))
    assert w.check(key, ref, (brackets, [roots[0] + 1e-9] + roots[1:], real))
    assert w.check(key, ref, (brackets, roots, not real))


def test_constants_check_refuses_shifted_wide_and_flat_brackets():
    w = workloads.CertifiedConstants(ROOT, REFDATA)
    key = ("q_infinity", 1e-6)
    good = constants.q_infinity(1e-6)
    assert w.check(key, None, good) is None
    shifted = dataclasses.replace(good, lo=good.lo + 1e-3, hi=good.hi + 1e-3)
    assert w.check(key, None, shifted)
    assert w.check(key, None, dataclasses.replace(good, hi=good.lo + 2e-6))
    assert w.check(key, None, dataclasses.replace(good, pred_hi=good.pred_lo))
    key = ("scan", 3.95, 3.98, 20)
    scan = constants.transition_scan(3.95, 3.98, 20)
    assert w.check(key, None, scan) is None
    points = list(scan.points)
    points[0] = dataclasses.replace(points[0], verdict="InLP")
    assert w.check(key, None, dataclasses.replace(scan, points=points))


def test_cli_check_refuses_bad_exit_nonstandard_json_and_wrong_verdict():
    w = workloads.CliOneshot(ROOT, REFDATA)
    key = ("classify", "--a", "5.5")
    ref = w.reference(key)
    doc = {"command": "classify", "result": {"verdict": "InLP"}}
    assert w.check(key, ref, (0, json.dumps(doc))) is None
    assert w.check(key, ref, (1, json.dumps(doc)))
    assert w.check(key, ref, (0, json.dumps(dict(doc, runtime_ms=float("inf")))))
    assert w.check(key, ref, (0, json.dumps({"command": "classify",
                                             "result": {"verdict": "NotInLP"}})))


def test_tracer_patches_every_binding_and_restores_them():
    original = series.evaluate
    tracer = Tracer()
    with tracer:
        assert criteria.evaluate is not original
        assert criteria.evaluate is series.evaluate
        criteria.sign_test_euler(3.8)
    assert series.evaluate is original and criteria.evaluate is original
    m = tracer.layer_metrics(1)
    assert m["criteria.minimize.calls"] == 1
    assert m["criteria.decided.sign_test"] == 1
    assert m["series.scalar_calls"] > m["series.repeat_points"] > 0
    assert all(span[3] < i for i, span in enumerate(tracer.spans))


def test_tracer_installed_before_lplab_is_imported_patches_every_binding():
    import subprocess

    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "from tracer import Tracer\n"
            "with Tracer():\n"
            "    from lplab import criteria, series\n"
            "    assert criteria.evaluate is series.evaluate\n"
            "    assert criteria.evaluate.__wrapped__ is not None\n")
    proc = subprocess.run([sys.executable, "-c", code, HERE, os.path.join(ROOT, "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_compare_judges_each_direction():
    base = [100.0, 101.0, 99.0, 100.5, 99.5] * 2
    assert judge(base, [130.0] * 10, 0.2, lower_better=True) == "worse"
    assert judge(base, [80.0, 81.0, 79.0, 80.5, 79.5] * 2, 0.2, lower_better=True) == "better"
    assert judge(base[:5], [80.0] * 5, 0.2, lower_better=True) == "same"
    assert judge(base, [100.2, 99.8, 100.1, 99.9, 100.0] * 2, 0.2, lower_better=True) == "same"
    assert judge(base, [60.0, 140.0, 70.0, 130.0, 100.0] * 2, 0.2,
                 lower_better=True) == "unresolved"


def test_compare_pairs_by_seed_and_refuses_more_failures(tmp_path, capsys):
    from run import compare

    def write(name, runs):
        path = tmp_path / name
        path.write_text("".join(json.dumps({
            "workload": "exact_roots", "seed": seed,
            "result": {"correct": not failed, "attempted": 100, "failed": failed,
                       "metrics": {"op_p50_ms": {"value": value, "unit": "ms"}}}}) + "\n"
            for seed, value, failed in runs))
        return str(path)

    old = write("old.jsonl", [(s, 100.0 + s, 0) for s in range(1, 11)])
    same = write("same.jsonl", [(s, 100.0 + s, 0) for s in reversed(range(1, 11))])
    assert compare([old, same]) == 0
    assert "op_p50_ms" in capsys.readouterr().out
    failing = write("failing.jsonl", [(s, 80.0 + s, 1 if s == 3 else 0) for s in range(1, 11)])
    assert compare([old, failing]) == 1
    assert "failed" in capsys.readouterr().out


def test_sustained_level_is_held_in_nine_rounds_of_ten():
    from run import Recorder

    rec = Recorder()
    # ten rounds of four operations: nine at 10 ms each, one burst at 5 ms
    for r in range(10):
        rec.round_starts.append(len(rec.latencies))
        rec.latencies += [0.005 if r == 3 else 0.010] * 4
        rec.completed += [True] * 4
    assert rec.sustained() == pytest.approx((100.0, 10.0))
    # a failed operation is timed but not counted as completed; with one
    # failure in each of two rounds, only eight rounds in ten reach 100/s
    rec.completed[-1] = rec.completed[-5] = False
    assert rec.sustained()[0] == pytest.approx(75.0)
