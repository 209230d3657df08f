"""Inequality check suites: passing grids, inapplicable points, and
expected-fail fixtures (guards against vacuously green checks)."""

import math

import numpy as np
import pytest

from lplab import verify
from lplab.errors import FloatRangeError, ParameterError
from lplab.series import FamilyKind, SeriesFamily, quotients
from lplab.verify import (
    CheckResult,
    _block_terms,
    alternation_block_margin,
    alternation_closed_margin,
    check_block_inequalities,
    check_circle_minimum,
    check_cubic_min_algebra,
    check_positivity_interval,
    check_sign_alternation,
    check_tail_gap,
    limiting_gap_margin,
)


def test_circle_minimum_passes_in_range():
    res = check_circle_minimum([3.6, 3.8, 4.0, 4.3, 4.6])
    assert res.passed
    assert res.worst_margin >= 0.0
    assert not res.inapplicable


def test_circle_minimum_boundary_and_inapplicable():
    res = check_circle_minimum([3.5616, 5.0])
    # q_2(3.5616) is just above 3 (vertex at 1); q_2(5) = 26/6 > 4
    assert res.passed
    assert len(res.inapplicable) == 1
    assert res.inapplicable[0]["a"] == 5.0


def test_tail_gap_values():
    res = check_tail_gap([4.0])
    assert res.passed
    # 1 - 74273/78000
    assert res.worst_margin == pytest.approx(1.0 - 74273.0 / 78000.0, rel=1e-9)
    res = check_tail_gap([3.5616, 4.0, 4.6])
    assert res.passed
    res = check_tail_gap([3.0])
    assert len(res.inapplicable) == 1
    assert res.grid_points == 1


def test_tail_gap_zero_margin_fails():
    # at a = 1e100 the tail bound rounds to 1: "strictly below" is not shown
    res = check_tail_gap([1e100])
    assert res.worst_margin == 0.0
    assert not res.passed
    assert res.failures[0]["kind"] == "tail_bound"


def test_strict_records_fail_at_zero_and_others_pass():
    res = CheckResult("zero", 2)
    res.record(0.0, a=1.0, kind="vertex")
    assert res.passed
    res.record(0.0, strict=True, a=1.0, kind="gap")
    assert res.failures == [{"margin": 0.0, "a": 1.0, "kind": "gap"}]


def test_block_inequalities_pass():
    for a in (3.57, 4.0, 4.6):
        res = check_block_inequalities([a])
        assert res.passed, res.failures[:3]
        assert res.worst_margin >= 0.0


def test_block_inequalities_beyond_float_range():
    with pytest.raises(FloatRangeError):
        check_block_inequalities([4.0, 1e200])


def test_nan_margin_fails():
    res = CheckResult("nan", 1)
    res.record(math.nan, a=1.0)
    assert not res.passed
    assert math.isnan(res.failures[0]["margin"])


def test_block_inequalities_wide_j():
    # the suite's five conditions at j = 13..40, past its own j = 4..12
    for a in (3.57, 4.0, 4.6):
        q = quotients(SeriesFamily(FamilyKind.EULER_F, a)).q
        for j in range(13, 41):
            lhs, rhs, vertex, at_one, low_margin, high_margin = verify._block_terms(q, j)
            assert lhs > rhs and vertex >= 1.0 and at_one >= 0.0, (a, j)
            assert low_margin > 0.0 and high_margin > 0.0, (a, j)


def test_block_inequalities_preconditions():
    with pytest.raises(ParameterError):
        check_block_inequalities([2.0])


def test_block_gap_two_sides():
    lhs, rhs = _block_terms(quotients(SeriesFamily(FamilyKind.EULER_F, 4.0)).q, 6)[:2]
    assert lhs > rhs > 0.0


def test_limiting_form_expected_fail_below_threshold():
    # fails at a = 2.0 (sqrt(a) = 1.414 is below the gap-poly root 1.4656)
    assert limiting_gap_margin(2.0) < 0.0
    assert limiting_gap_margin(2.2) > 0.0  # and holds just above
    assert limiting_gap_margin(3.57) > 0.0


def test_sign_alternation_passes():
    res = check_sign_alternation([3.0, 3.5, 4.0, 4.6])
    assert res.passed, res.failures[:3]


def test_sign_alternation_inapplicable_below_three():
    res = check_sign_alternation([2.0])
    assert res.inapplicable == [{"a": 2.0}]
    assert res.passed


def test_sign_alternation_two_routes_agree():
    for a in (3.0, 4.0):
        for k in (4, 8, 15):
            nu = alternation_closed_margin(a, k)
            mu = alternation_block_margin(a, k)
            assert nu == pytest.approx(mu, rel=1e-10)
            assert nu >= 0.0


def test_sign_alternation_range_checks_every_radius_before_summing(monkeypatch):
    sums = []
    monkeypatch.setattr(verify, "scaled_real_value",
                        lambda *args: sums.append(args) or (1.0, 0.0, 0.0))
    # rho_20 is about 6.4e301, and p_1 * rho_20 about 1.9e317
    with pytest.raises(FloatRangeError, match="rho_20 "):
        check_sign_alternation([3e15])
    # rho_11 itself leaves the float range
    with pytest.raises(FloatRangeError, match="rho_11 "):
        check_sign_alternation([1e30])
    assert sums == []


def test_positivity_interval_passes():
    res = check_positivity_interval([4.0])
    assert res.passed, res.failures[:3]
    assert res.worst_margin >= 0.0


def test_positivity_endpoint_chain():
    res = check_positivity_interval([3.2, 4.5])
    assert res.passed
    chain = [f for f in res.failures if "chain" in str(f.get("kind"))]
    assert chain == []


def test_positivity_within_the_bound_is_undecided():
    # at a = 1e30 the series and its sections near x = a + 1 are about 1e-30,
    # far inside their bounds of about 1e-15
    res = check_positivity_interval([1e30])
    assert res.passed, res.failures[:3]
    undecided = [u for u in res.inapplicable if u["kind"] == "series_positivity"]
    assert len(undecided) == 1
    assert undecided[0]["a"] == 1e30
    assert "within its evaluation bound" in undecided[0]["reason"]


def test_positivity_certified_negative_point_fails():
    res = CheckResult("positivity", 3)
    xs = np.array([0.0, 1.0, 2.0])
    verify._record_positivity(res, xs, np.array([1.0, 1e-16, -1.0]), np.full(3, 1e-15),
                              a=5.0, kind="series_positivity")
    assert not res.passed
    assert res.failures[0]["margin"] == -1.0 - 1e-15
    assert res.inapplicable == []
    res = CheckResult("positivity", 3)
    verify._record_positivity(res, xs, np.array([1.0, 1e-16, 0.5]), np.full(3, 1e-15),
                              a=5.0, kind="series_positivity")
    assert res.passed
    assert res.inapplicable[0]["x"] == 1.0


def test_cubic_min_algebra_passes():
    res = check_cubic_min_algebra(seed=0)
    assert res.passed, res.failures[:3]


def test_cubic_min_algebra_deterministic_per_seed():
    a = check_cubic_min_algebra(seed=7)
    b = check_cubic_min_algebra(seed=7)
    assert a.worst_margin == b.worst_margin


def test_suites_check_fixed_ranges():
    # j = 4..12 and k = 2..20 at each a of the grid, and 64 drawn parameters
    assert check_block_inequalities([3.57, 4.0]).grid_points == 2 * 9
    assert check_sign_alternation([2.0, 3.0, 4.0]).grid_points == 3 * 19
    assert check_cubic_min_algebra(seed=7).grid_points == 64
