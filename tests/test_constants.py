"""Certified bisection of the critical constants."""

import math

import pytest

from lplab import constants
from lplab.constants import (
    bisect_predicate,
    c_n,
    critical_a,
    q_infinity,
    threshold_table,
    transition_scan,
)
from lplab.criteria import sign_test_theta
from lplab.errors import BracketError, MonotonicityError, ParameterError

Q_INF = 3.2336366658766087  # frozen from an independent 70-step bisection
TRUE_SIGN_FLIP = 3.964228020751282


def test_q_infinity_bracket():
    br = q_infinity(tol=1e-6)
    assert br.width <= 1e-6
    assert br.lo <= Q_INF <= br.hi
    assert br.lo <= 3.23363666 <= br.hi
    assert not br.pred_lo and br.pred_hi


def test_q_infinity_predicate_endpoints():
    # s = a^2 = 4 is past the transition, s = 3 before it
    assert sign_test_theta(2.0).margin <= 0.0
    assert sign_test_theta(math.sqrt(3.0)).margin > 0.0


def test_theta_constants_evaluate_only_the_sign_test(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sign_test_theta(*args, **kwargs)

    monkeypatch.setattr(constants, "sign_test_theta", counting)
    for bracket in (lambda: q_infinity(1e-6), lambda: c_n(5, 1e-6)):
        calls.clear()
        br = bracket()
        assert len(calls) == br.evaluations


def test_c2_and_c3_exact_values():
    br2 = c_n(2, tol=1e-7)
    assert abs(br2.midpoint - 4.0) <= 1e-6
    br3 = c_n(3, tol=1e-7)
    assert abs(br3.midpoint - 3.0) <= 1e-6


def test_c_n_parity_ordering():
    vals = {n: c_n(n, tol=1e-8).midpoint for n in range(2, 10)}
    # even sequence decreases toward the full-series constant
    assert vals[2] > vals[4] > vals[6] > Q_INF - 1e-6
    # odd sequence increases toward it
    assert vals[3] < vals[5] < vals[7] < Q_INF + 1e-6
    # both parities are tight against the full-series constant by n = 8
    assert abs(vals[8] - Q_INF) < 1e-4
    assert abs(vals[9] - Q_INF) < 1e-6


def test_critical_a_default_window_has_no_transition():
    # the sign test is positive across the whole historically quoted window
    with pytest.raises(BracketError):
        critical_a(tol=1e-5)


def test_critical_a_widened_window_finds_transition():
    br = critical_a(tol=1e-5, a_lo=3.9, a_hi=4.0)
    assert br.width <= 1e-5
    assert br.lo <= TRUE_SIGN_FLIP <= br.hi
    assert "non-rigorous" in br.note
    assert "outside the quoted reference window" in br.note


def test_bisect_predicate_monotonicity_guard():
    with pytest.raises(MonotonicityError) as exc:
        bisect_predicate(lambda x: math.sin(8.0 * x) > 0.0, 0.0, 3.0, 1e-6, "wiggle")
    assert len(exc.value.scan) == 32
    with pytest.raises(BracketError):
        bisect_predicate(lambda x: True, 0.0, 1.0, 1e-6, "flat")
    with pytest.raises(ParameterError):
        bisect_predicate(lambda x: x > 0.5, 0.0, 1.0, -1.0, "badtol")


def test_bisect_predicate_simple_root():
    br = bisect_predicate(lambda x: x * x >= 2.0, 0.0, 2.0, 1e-9, "sqrt2")
    assert br.midpoint == pytest.approx(math.sqrt(2.0), abs=1e-8)
    assert br.evaluations > 32


def test_threshold_table_values():
    table = {e.name: e for e in threshold_table()}
    assert table["rouche_gap_septic"].computed_root == pytest.approx(
        3.1625822466326916, abs=1e-9
    )
    assert table["rouche_gap_septic"].deviation <= 1e-4
    # quoted 1.47 is a safe upper bound for this one, not a 5-digit root
    e = table["limiting_gap_poly"]
    assert e.computed_root == pytest.approx(1.4655712318767682, abs=1e-9)
    assert e.computed_root <= 1.47
    assert table["alternation_quintic"].computed_root == pytest.approx(
        1.5768510873341182, abs=1e-9
    )
    assert table["alternation_quintic"].deviation <= 1e-4
    assert table["cubic_section_octic"].computed_root == pytest.approx(
        3.9015496781605448, abs=1e-9
    )
    assert table["cubic_section_octic"].deviation <= 1e-4
    assert table["six_term_reference_deg20"].computed_root == pytest.approx(
        3.9171769232810245, abs=1e-8
    )
    assert table["six_term_reference_deg20"].deviation <= 1e-4
    # the exact re-expansion puts the certificate threshold near 3.96426
    assert table["six_term_exact_deg20"].computed_root == pytest.approx(
        3.9642600256809155, abs=1e-8
    )
    assert table["six_term_exact_deg20"].reference is None


def test_transition_scan_single_flip():
    res = transition_scan(3.8, 4.0, 50, grid=256)
    assert res.single_transition
    lo, hi = res.transition_interval
    assert lo <= TRUE_SIGN_FLIP <= hi


def test_transition_scan_one_sided_regions():
    res = transition_scan(4.0, 4.6, 12, grid=256)
    assert all(p.verdict == "InLP" for p in res.points)
    assert res.single_transition
    assert res.transition_interval is None
    res = transition_scan(3.6, 3.9, 12, grid=256)
    assert all(p.verdict == "NotInLP" for p in res.points)
