"""Membership criteria against directly computed ground truth.

Several decimal thresholds that circulate for the Euler-type family do not
survive direct evaluation; the expectations here were recomputed from
scratch (exact rational sweeps plus bisection on the interval minimum) and
pin the behavior actually observed:

  * the interval minimum stays positive up to a ~ 3.9642280 and the
    six-term section certificate fires from a ~ 3.9642600 on;
  * in particular the minimum is still positive at a = 3.9172 and 3.95.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lplab import criteria, polyroots
from lplab.criteria import (
    SIX_TERM_EXPANSION_COEFFS,
    SIX_TERM_REFERENCE_COEFFS,
    Verdict,
    _verdict,
    classify_euler,
    cubic_section_threshold,
    hutchinson_test,
    minimize_on_interval,
    necessary_q2,
    sign_test_euler,
    sign_test_theta,
    six_term_section_test,
)
from lplab.errors import ConsistencyError, FloatRangeError, ParameterError, PreconditionError
from lplab.polyroots import RealPolynomial
from lplab.series import FamilyKind, SeriesFamily, _golden_min, coefficient_log, quotients
from lplab.verify import (
    cubic_aux_margin,
    cubic_critical_points,
    cubic_profile,
    cubic_reduced_margin,
)

TRUE_SIGN_FLIP = 3.964228020751282        # bisection on the interval minimum
SIX_TERM_FLIP = 3.9642600256809155        # largest root of the exact expansion


def eulerF(a):
    return SeriesFamily(FamilyKind.EULER_F, a)


# ---------------------------------------------------------------------------
# hutchinson_test
# ---------------------------------------------------------------------------

def test_hutchinson_euler_above_threshold():
    rep = hutchinson_test(eulerF(5.0))
    assert rep.verdict is Verdict.IN_LP
    assert rep.margin == pytest.approx(26.0 / 6.0 - 4.0, rel=1e-12)


def test_hutchinson_boundary_at_irrational_threshold():
    rep = hutchinson_test(eulerF(2.0 + math.sqrt(7.0)))
    assert rep.verdict is Verdict.BOUNDARY
    assert abs(rep.margin) < 1e-13


def test_hutchinson_theta_exact_threshold_is_membership():
    # q_n identically 4: the inclusive criterion holds exactly
    rep = hutchinson_test(SeriesFamily(FamilyKind.THETA, 2.0))
    assert rep.verdict is Verdict.IN_LP
    assert rep.margin == 0.0


def test_hutchinson_euler_h_exact_limit_is_membership():
    # q_n decreases to a = 4 exactly: the limit decides, inclusively
    rep = hutchinson_test(SeriesFamily(FamilyKind.EULER_H, 4.0))
    assert (rep.verdict, rep.margin.hex()) == (Verdict.IN_LP, "0x0.0p+0")


def test_hutchinson_below_threshold_is_inconclusive():
    assert hutchinson_test(eulerF(4.0)).verdict is Verdict.INAPPLICABLE


# ---------------------------------------------------------------------------
# necessary_q2
# ---------------------------------------------------------------------------

def test_hutchinson_window_clamped_to_custom_coefficients():
    # five coefficients define q_2..q_4 only; the default window reaches 20
    logs = tuple(coefficient_log(SeriesFamily(FamilyKind.EULER_F, 5.0), k) for k in range(5))
    rep = hutchinson_test(SeriesFamily(FamilyKind.CUSTOM, custom_log_coeffs=logs))
    assert rep.verdict is Verdict.INAPPLICABLE
    assert rep.margin == pytest.approx(26.0 / 6.0 - 4.0, rel=1e-12)  # q_2 - 4


def test_necessary_q2_rejects_small_parameter():
    rep = necessary_q2(eulerF(3.0))
    assert rep.verdict is Verdict.NOT_IN_LP
    assert rep.margin == pytest.approx(2.5 - 3.0, rel=1e-12)


def test_necessary_q2_boundary():
    rep = necessary_q2(eulerF((3.0 + math.sqrt(17.0)) / 2.0))
    assert rep.verdict is Verdict.BOUNDARY


def test_necessary_q2_inconclusive_above():
    assert necessary_q2(eulerF(4.0)).verdict is Verdict.INAPPLICABLE


def test_necessary_q2_requires_nondecreasing_quotients():
    with pytest.raises(PreconditionError):
        necessary_q2(SeriesFamily(FamilyKind.EULER_H, 3.0))


def test_necessary_q2_on_custom_coefficients_agrees_with_the_named_family():
    logs = tuple(coefficient_log(SeriesFamily(FamilyKind.EULER_F, 3.5), k) for k in range(8))
    named = necessary_q2(eulerF(3.5))
    custom = necessary_q2(SeriesFamily(FamilyKind.CUSTOM, custom_log_coeffs=logs))
    assert named.verdict is custom.verdict is Verdict.NOT_IN_LP
    assert custom.margin == pytest.approx(named.margin, abs=1e-12)


def test_necessary_q2_rejects_non_monotone_custom_quotients():
    # q_2 = e^2, q_3 = e^-1, q_4 = e^2
    fam = SeriesFamily(FamilyKind.CUSTOM, custom_log_coeffs=(0.0, 0.0, -2.0, -3.0, -6.0))
    with pytest.raises(PreconditionError, match="not nondecreasing"):
        necessary_q2(fam)


# ---------------------------------------------------------------------------
# integer q_2: the same reports as the closed forms over Fraction
# ---------------------------------------------------------------------------

def _by_fraction(criterion, family):
    """(verdict, margin hex) of a named family's quotient criterion through
    the closed forms at Fraction(a), or (error type, message)."""
    try:
        qv = quotients(family)
        if criterion is necessary_q2 and qv.monotonicity == "decreasing":
            raise PreconditionError("necessary_q2 requires nondecreasing quotients")
        exact = quotients(SeriesFamily(family.kind, Fraction(family.a)))
        if criterion is necessary_q2:
            q, t, below, above = exact.q(2), 3, Verdict.NOT_IN_LP, Verdict.INAPPLICABLE
        else:
            q = exact.limit if exact.monotonicity == "decreasing" else exact.q(2)
            t, below, above = 4, Verdict.INAPPLICABLE, Verdict.IN_LP
            if q == t:
                return Verdict.IN_LP, (0.0).hex()
        margin = float(q - t)
        return _verdict(margin, criteria._verdict_band(float(q)), below, above), margin.hex()
    except (PreconditionError, FloatRangeError) as exc:
        return type(exc), str(exc)


def _report(criterion, family):
    try:
        rep = criterion(family)
    except (PreconditionError, FloatRangeError) as exc:
        return type(exc), str(exc)
    return rep.verdict, rep.margin.hex()


_NAMED_KINDS = [FamilyKind.EULER_F, FamilyKind.THETA, FamilyKind.EULER_H]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_NAMED_KINDS), st.floats(1.0, 1e6, exclude_min=True),
       st.sampled_from([necessary_q2, hutchinson_test]))
@example(FamilyKind.THETA, 2.0, hutchinson_test)
@example(FamilyKind.EULER_H, 4.0, hutchinson_test)
@example(FamilyKind.EULER_F, (3.0 + math.sqrt(17.0)) / 2.0, necessary_q2)
@example(FamilyKind.EULER_F, 2.0 + math.sqrt(7.0), hutchinson_test)
@example(FamilyKind.THETA, 1.0000000000000002, necessary_q2)
def test_integer_q2_gives_the_fraction_reports(kind, a, criterion):
    family = SeriesFamily(kind, a)
    assert _report(criterion, family) == _by_fraction(criterion, family)


@pytest.mark.parametrize("kind", _NAMED_KINDS)
@pytest.mark.parametrize("a", [1e154, 1.5e154, 1e300])
def test_integer_q2_keeps_the_range_errors(kind, a):
    # theta's q_2 = a^2 leaves the float range past a ~ 1.34e154
    for criterion in (necessary_q2, hutchinson_test):
        family = SeriesFamily(kind, a)
        assert _report(criterion, family) == _by_fraction(criterion, family)


# ---------------------------------------------------------------------------
# sign tests
# ---------------------------------------------------------------------------

def test_sign_test_euler_far_sides():
    rep = sign_test_euler(4.2)
    assert rep.verdict is Verdict.IN_LP
    assert rep.witness_value < 0
    assert 5.2 < rep.witness_x < 18.64
    rep = sign_test_euler(3.7)
    assert rep.verdict is Verdict.NOT_IN_LP
    assert rep.witness_value > 0


def test_sign_test_euler_true_transition_location():
    # the minimum is still positive at both quoted bracket endpoints and
    # flips only near 3.96423
    assert sign_test_euler(3.9016).verdict is Verdict.NOT_IN_LP
    assert sign_test_euler(3.9171).verdict is Verdict.NOT_IN_LP
    assert sign_test_euler(3.95).verdict is Verdict.NOT_IN_LP
    assert sign_test_euler(TRUE_SIGN_FLIP - 2e-4).verdict is Verdict.NOT_IN_LP
    assert sign_test_euler(TRUE_SIGN_FLIP + 2e-4).verdict is Verdict.IN_LP


def test_sign_test_euler_minimum_values():
    # frozen from a 20001-point exact-series scan
    rep = sign_test_euler(3.92)
    assert rep.witness_value == pytest.approx(9.3261e-3, rel=1e-3)
    rep = sign_test_euler(4.0)
    assert rep.witness_value == pytest.approx(-7.5786e-3, rel=1e-3)


def test_sign_test_theta_full():
    assert sign_test_theta(2.0).verdict is Verdict.IN_LP           # a^2 = 4
    assert sign_test_theta(math.sqrt(3.0)).verdict is Verdict.NOT_IN_LP
    # a^2 slightly above the theta threshold 3.2336367
    assert sign_test_theta(math.sqrt(3.25)).verdict is Verdict.IN_LP


def test_sign_test_theta_section_boundary():
    # degree-2 section at a^2 = 4: the minimum is exactly zero
    rep = sign_test_theta(2.0, n=2)
    assert rep.verdict is Verdict.BOUNDARY
    assert abs(rep.witness_value) < 1e-9


def test_sign_test_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        sign_test_euler(0.9)
    with pytest.raises(ParameterError):
        sign_test_theta(2.0, n=1)
    # interval ends beyond the float range: a^3, and a^2 + 1 (no numpy
    # overflow warning on the way)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match=r"a\^3"):
            sign_test_theta(1e160)
        with pytest.raises(FloatRangeError, match=r"a\^2 \+ 1"):
            sign_test_euler(1e160)


@pytest.mark.parametrize("tol", [-1.0, -5e-324, math.nan, math.inf])
def test_tol_must_be_finite_and_nonnegative(monkeypatch, tol):
    # a negative tol narrowed the Boundary band past the error budget:
    # classify_euler(3.8, tol=-1) read InLP where the minimum is +0.0344
    def summed(*args):
        raise AssertionError("a series was summed before tol was checked")

    monkeypatch.setattr(criteria, "_six_term_section_values", summed)
    monkeypatch.setattr(criteria, "minimize_on_interval", summed)
    for test, a in ((classify_euler, 3.8), (six_term_section_test, 3.8),
                    (sign_test_euler, 3.8), (sign_test_theta, 1.7)):
        with pytest.raises(ParameterError, match="tol must be finite and >= 0"):
            test(a, tol=tol)


def test_zero_tol_keeps_the_verdicts():
    assert classify_euler(3.8, tol=0.0).verdict is Verdict.NOT_IN_LP
    assert sign_test_theta(1.7, tol=0.0).verdict is Verdict.NOT_IN_LP
    assert six_term_section_test(3.8, tol=0.0).verdict is Verdict.INAPPLICABLE


def test_grid_outside_its_cap_is_rejected_before_any_allocation(monkeypatch):
    def no_grid(*args):
        raise AssertionError("built the grid")

    monkeypatch.setattr(np, "linspace", no_grid)
    for grid in (7, 2**20 + 1):
        with pytest.raises(ParameterError, match=r"\[8, 1048576\]"):
            minimize_on_interval(no_grid, no_grid, 1.0, 2.0, grid)
    with pytest.raises(ParameterError):
        sign_test_euler(3.9, grid=2**20 + 1)
    with pytest.raises(ParameterError):
        sign_test_theta(1.8, grid=2**20 + 1)


def test_one_verdict_rule_for_every_band():
    for m, expected in ((-2.0, "below"), (-1.0, Verdict.BOUNDARY), (0.0, Verdict.BOUNDARY),
                        (1.0, Verdict.BOUNDARY), (2.0, "above"), (math.nan, Verdict.BOUNDARY)):
        assert _verdict(m, 1.0, "below", "above") == expected


# ---------------------------------------------------------------------------
# cubic-section threshold machinery
# ---------------------------------------------------------------------------

def test_golden_min_stops_when_bracket_collapses():
    m = 3.7
    calls = []

    def fn(x):
        calls.append(x)
        return (x - m) ** 2, 0.5

    v, x, e = _golden_min(fn, m - 0.004, m + 0.003)
    assert len(calls) < 70  # the 90-step cap alone would make 92
    assert abs(x - m) <= 4 * math.ulp(m)
    assert (v, e) == ((x - m) ** 2, 0.5)


def test_cubic_section_threshold_value():
    assert cubic_section_threshold() == pytest.approx(3.9015496781605448, abs=1e-10)


def test_cubic_profile_at_zero():
    for b, c in ((3.4, 3.8), (3.1, 4.5)):
        assert cubic_profile(0.0, b, c) == 1.0


def test_cubic_critical_point_containment():
    # b = q_2(4), c = q_3(4)
    b, c = 3.4, 65.0 / 17.0
    y1, y2 = cubic_critical_points(b, c)
    assert 1.0 < y1 < b
    assert y2 > b
    assert y1 == pytest.approx(2.3222529161335523, rel=1e-12)


def test_cubic_reduced_margin_sign_matches_profile():
    for a in (3.7, 3.9015497, 4.2):
        b = (a * a + 1.0) / (a + 1.0)
        c = (a**3 + 1.0) / (a * a + 1.0)
        y1, _ = cubic_critical_points(b, c)
        k = cubic_profile(y1, b, c)
        red = cubic_reduced_margin(b, c)
        assert cubic_aux_margin(b, c) >= 0.0
        if abs(red) > 1e-4:
            assert (k <= 0.0) == (red >= 0.0)


# ---------------------------------------------------------------------------
# six-term section certificate
# ---------------------------------------------------------------------------

def test_six_term_expansion_coefficients():
    # exact integer expansion of the common-denominator form
    assert SIX_TERM_EXPANSION_COEFFS == (
        463, 729, -226, 567, 1360, 1062, 934, 1134, 758, 1701, 1351,
        612, 462, 918, 822, 1134, 567, -450, 567, 513, -162,
    )
    assert SIX_TERM_EXPANSION_COEFFS[-1] == -162
    assert SIX_TERM_EXPANSION_COEFFS[-2] == 513
    assert SIX_TERM_REFERENCE_COEFFS[-2:] == SIX_TERM_EXPANSION_COEFFS[-2:]


def test_six_term_expansion_matches_closed_form():
    # poly == 729 (a+1)(a^3+1)(a^4+1)(a^5+1)(a^6+1) * closed form
    for a in (3.5, 3.92, 4.3):
        closed, direct, _ = criteria._six_term_section_values(a)
        poly = RealPolynomial(SIX_TERM_EXPANSION_COEFFS)(a)
        prod = 729.0
        for j in (1, 3, 4, 5, 6):
            prod *= a**j + 1.0
        assert poly == pytest.approx(prod * closed, rel=1e-10)
        assert closed == pytest.approx(direct, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "a", [Fraction(3, 2), Fraction(7, 2), Fraction(3964, 1000), Fraction(9, 2), 5]
)
def test_six_term_expansion_is_the_closed_form_exactly(a):
    # sum c_i a^i == 729 (a+1)(a^3+1)(a^4+1)(a^5+1)(a^6+1) * closed form,
    # with the closed form in exact rational quotients
    qv = quotients(SeriesFamily(FamilyKind.EULER_F, Fraction(a)))
    q2, q3, q4, q5, q6 = (qv.q(j) for j in range(2, 7))
    closed = (
        1
        - Fraction(2, 9) * q2
        - Fraction(8, 27) * (q2 / q3)
        + Fraction(16, 81) * (q2 / (q3 * q3 * q4))
        - Fraction(32, 243) * (q2 / (q3**3 * q4 * q4 * q5))
        + Fraction(64, 729) * (q2 / (q3**4 * q4**3 * q5 * q5 * q6))
    )
    prod = 729
    for j in (1, 3, 4, 5, 6):
        prod *= a**j + 1
    poly = sum(c * Fraction(a) ** i for i, c in enumerate(SIX_TERM_EXPANSION_COEFFS))
    assert poly == prod * closed


def test_six_term_verdicts():
    assert six_term_section_test(4.5).verdict is Verdict.IN_LP
    assert six_term_section_test(3.5).verdict is Verdict.INAPPLICABLE
    # positive (hence inconclusive) on both historically quoted thresholds
    assert six_term_section_test(3.91719).verdict is Verdict.INAPPLICABLE
    assert six_term_section_test(SIX_TERM_FLIP - 1e-4).verdict is Verdict.INAPPLICABLE
    assert six_term_section_test(SIX_TERM_FLIP + 1e-4).verdict is Verdict.IN_LP
    near = six_term_section_test(SIX_TERM_FLIP, tol=1e-7)
    assert near.verdict is Verdict.BOUNDARY


def test_six_term_overflow_is_a_float_range_error():
    # q_3 ~ a, so q_3**4 leaves the float range past a ~ 1e77 and q_3**3
    # past a ~ 5.6e102; the cascade decides at hutchinson long before
    for a in (1e100, 1e160):
        with pytest.raises(FloatRangeError, match="six-term closed form"):
            six_term_section_test(a)
        assert classify_euler(a).criterion == "hutchinson"


def test_six_term_sign_is_exact_and_checked(monkeypatch):
    # the exact integer sign at the dyadic a agrees with the float Horner
    # value wherever that value is well clear of its roundoff
    rng = np.random.default_rng(5)
    p = RealPolynomial(SIX_TERM_EXPANSION_COEFFS)
    for a in rng.uniform(1.01, 8.0, 2000):
        a = float(a)
        poly = p(a)
        scale = sum(abs(c) * a**k for k, c in enumerate(SIX_TERM_EXPANSION_COEFFS))
        exact = polyroots._sign(SIX_TERM_EXPANSION_COEFFS, *polyroots._dyadic(a))
        if abs(poly) > 1e-12 * scale:
            assert exact == (1 if poly > 0 else -1)
    # a section value of the wrong sign is a ConsistencyError; one on the
    # edge of the band is Boundary
    band = 1e-9 + 64.0 * np.finfo(float).eps
    for closed, outcome in ((0.25, ConsistencyError), (-band, Verdict.BOUNDARY),
                            (-2 * band, Verdict.IN_LP)):
        monkeypatch.setattr(criteria, "_six_term_section_values",
                            lambda a, c=closed: (c, c, 1.0))
        if outcome is ConsistencyError:
            with pytest.raises(ConsistencyError):
                six_term_section_test(4.5)
        else:
            assert six_term_section_test(4.5).verdict is outcome


def test_six_term_closed_form_identity_randomized():
    rng = np.random.default_rng(99)
    for _ in range(30):
        a = float(rng.uniform(3.0, 5.0))
        closed, direct, _ = criteria._six_term_section_values(a)
        assert abs(closed - direct) <= 1e-10 * max(1.0, abs(closed), abs(direct))


# ---------------------------------------------------------------------------
# classify cascade
# ---------------------------------------------------------------------------

def test_classify_small_parameter_by_necessity():
    rep = classify_euler(3.0)
    assert rep.verdict is Verdict.NOT_IN_LP
    assert rep.criterion == "q2_necessary"


def test_classify_large_parameter_by_hutchinson():
    rep = classify_euler(5.0)
    assert rep.verdict is Verdict.IN_LP
    assert rep.criterion == "hutchinson"


def test_classify_mid_range_falls_to_sign_test():
    rep = classify_euler(3.95)
    assert rep.verdict is Verdict.NOT_IN_LP
    assert rep.criterion == "sign_test_euler"
    rep = classify_euler(4.0)
    assert rep.verdict is Verdict.IN_LP
    assert rep.criterion in ("six_term_section", "sign_test_euler")


def test_classify_iff_coherence():
    # classify agrees with the authoritative sign test away from the
    # transition band
    rng = np.random.default_rng(2718)
    for _ in range(50):
        a = float(rng.uniform(3.6, 4.6))
        if abs(a - TRUE_SIGN_FLIP) < 1e-3:
            continue
        assert classify_euler(a).verdict is sign_test_euler(a).verdict


def test_sufficiency_ordering():
    # six-term InLP implies sign-test InLP (the section dominates the series)
    for a in (3.97, 4.1, 4.5):
        if six_term_section_test(a).verdict is Verdict.IN_LP:
            assert sign_test_euler(a).verdict is Verdict.IN_LP


def test_necessity_ordering():
    # sign-test InLP implies a at least the cubic-section threshold
    thr = cubic_section_threshold()
    for a in (3.97, 4.0, 4.3):
        if sign_test_euler(a).verdict is Verdict.IN_LP:
            assert a >= thr - 1e-4


def test_monotone_verdict_scan():
    # single NotInLP -> InLP transition across (3.8, 4.0); reported as a
    # probe, so a failure here is a logged finding rather than silent
    verdicts = []
    for a in np.linspace(3.8, 4.0, 60):
        v = sign_test_euler(float(a)).verdict
        if v is not Verdict.BOUNDARY:
            verdicts.append(v)
    flips = sum(1 for x, y in zip(verdicts, verdicts[1:]) if x is not y)
    assert flips == 1
