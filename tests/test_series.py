"""Series engine tests against exact rational-arithmetic oracles."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lplab.errors import (
    DivergentMajorantError,
    FloatRangeError,
    InsufficientDataError,
    ParameterError,
    TruncationError,
)
from lplab.series import (
    EvalResult,
    FamilyKind,
    _evaluators,
    SeriesFamily,
    coefficient_log,
    evaluate,
    evaluate_many,
    evaluate_section,
    quotients,
    scaled_real_value,
    section_sum,
    tail_bound,
)


def eulerF(a, alternating=False):
    return SeriesFamily(FamilyKind.EULER_F, a, alternating=alternating)


def theta(a, alternating=False):
    return SeriesFamily(FamilyKind.THETA, a, alternating=alternating)


def eulerH(a, alternating=False):
    return SeriesFamily(FamilyKind.EULER_H, a, alternating=alternating)


# ---------------------------------------------------------------------------
# exact-arithmetic oracles
# ---------------------------------------------------------------------------

def exact_ratio(kind, a_fr, k):
    if kind is FamilyKind.EULER_F:
        return Fraction(1) / (a_fr**k + 1)
    if kind is FamilyKind.THETA:
        return Fraction(1) / a_fr ** (2 * k - 1)
    if kind is FamilyKind.EULER_H:
        return Fraction(1) / (a_fr**k - 1)
    raise AssertionError(kind)


def exact_sum(kind, a_fr, zre_fr, zim_fr=Fraction(0), terms=60):
    """Partial sum in exact rational arithmetic (complex as Fraction pair)."""
    tre, tim = Fraction(1), Fraction(0)
    sre, sim = tre, tim
    for k in range(1, terms):
        r = exact_ratio(kind, a_fr, k)
        tre, tim = (tre * zre_fr - tim * zim_fr) * r, (tre * zim_fr + tim * zre_fr) * r
        sre += tre
        sim += tim
    return sre, sim


# ---------------------------------------------------------------------------
# coefficient_log
# ---------------------------------------------------------------------------

def test_coefficient_log_trivial_cases():
    assert coefficient_log(eulerF(2.0), 0) == 0.0
    assert coefficient_log(eulerF(2.0), 2) == pytest.approx(math.log(1.0 / 15.0), abs=1e-14)
    assert coefficient_log(theta(2.0), 3) == pytest.approx(-9.0 * math.log(2.0), abs=1e-13)


def test_custom_log_ratio_and_coefficient_past_the_end():
    fam = SeriesFamily(FamilyKind.CUSTOM, custom_log_coeffs=(0.0, -1.0, -3.0))
    assert fam.log_ratio(2) == -2.0
    assert fam.log_ratio(3) == fam.log_ratio(10) == -math.inf
    assert coefficient_log(fam, 2) == -3.0
    with pytest.raises(ParameterError):
        coefficient_log(fam, 3)


def test_coefficient_log_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        eulerF(1.0)
    with pytest.raises(ParameterError):
        eulerF(0.5)
    for bad in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            theta(bad)
    with pytest.raises(ParameterError):
        coefficient_log(eulerF(2.0), -1)


def test_overflowing_terms_raise_instead_of_returning_inf():
    with pytest.raises(FloatRangeError):
        evaluate(theta(1.01), 1e6)
    slow = SeriesFamily(
        FamilyKind.CUSTOM, custom_log_coeffs=tuple(-0.001 * k for k in range(2000))
    )
    with pytest.raises(FloatRangeError):
        evaluate(slow, 1e300)
    with pytest.raises(FloatRangeError):
        evaluate_many(slow, np.array([1e300, 2.0]))


def test_overflow_stops_the_sum_where_the_terms_leave_float_range(monkeypatch):
    # The terms of theta(1.01) at |z| = 1e6 pass the float range near
    # k = 54, long before they start to decay (k ~ 695); those of
    # theta(1.005) at |z| = 1e60 would still grow at the 10,000-term cap.
    # Each sum stops where sum |t_k| leaves the float range.  A fresh family
    # per call, so that every ratio the sum reads is computed and counted.
    steps = []
    compute = SeriesFamily._ratio
    monkeypatch.setattr(SeriesFamily, "_ratio", lambda fam, k: steps.append(k) or compute(fam, k))
    for a, call, z in (
        (1.01, evaluate, complex(1e6, 1.0)),
        (1.01, evaluate_many, np.array([1e6, 2.0])),
        (1.01, evaluate_many, np.array([1e6, 2.0], dtype=complex)),
        (1.005, evaluate, 1e60),
        (1.005, evaluate_many, np.array([2.0, 1e60])),
    ):
        steps.clear()
        with pytest.raises(FloatRangeError):
            call(theta(a), z)
        assert len(steps) < 100


def test_complex_abs_overflow_is_a_float_range_error():
    # abs() of the overflowed complex term raises OverflowError in CPython
    with pytest.raises(FloatRangeError):
        evaluate(eulerF(1.5), complex(33695141190, 0))


def test_quotient_overflow_is_a_float_range_error():
    for fam in (theta(1e200), eulerF(1e200), eulerH(1e200)):
        with pytest.raises(FloatRangeError):
            quotients(fam).p(2)
    # a * a overflows to inf without raising
    with pytest.raises(FloatRangeError):
        quotients(theta(1e200)).q(2)
    with pytest.raises(FloatRangeError):
        quotients(theta(1e200)).limit
    # an exact parameter gives exact values, however far past the float range
    big = Fraction(10**200)
    assert quotients(theta(big)).limit == 10**400
    assert quotients(eulerF(big)).p(2) == 10**400 + 1
    assert eulerF(Fraction(10**400)).a == 10**400


@pytest.mark.parametrize(
    "a", [Fraction(3, 2), Fraction(4), Fraction(101, 100), Fraction(10**30 + 1, 7)]
)
def test_euler_h_closed_forms_are_exact_at_a_fraction(a):
    # eulerH shares eulerF's closed forms with a^k - 1 for a^k + 1
    fam = eulerH(a)
    qv = quotients(fam)
    assert qv.limit == a and qv.monotonicity == "decreasing"
    for n in range(1, 12):
        assert fam.ratio(n) == 1 / (a**n - 1)
        assert qv.p(n) == a**n - 1
        if n >= 2:
            assert qv.q(n) == (a**n - 1) / (a ** (n - 1) - 1)


def test_non_finite_points_are_rejected_before_the_sum(monkeypatch):
    steps = []
    compute = SeriesFamily._ratio
    monkeypatch.setattr(SeriesFamily, "_ratio", lambda fam, k: steps.append(k) or compute(fam, k))
    for z in (math.nan, math.inf, -math.inf, complex(math.nan, 0.0), complex(1.0, math.inf)):
        with pytest.raises(ParameterError):
            evaluate(eulerF(4.0), z)
        with pytest.raises(ParameterError):
            evaluate_many(eulerF(4.0), np.array([0.5, z]))
        for n in (0, 3):
            with pytest.raises(ParameterError):
                section_sum(eulerF(4.0), n, z)
            with pytest.raises(ParameterError):
                section_sum(eulerF(4.0, alternating=True), n, np.array([0.5, z]))
            with pytest.raises(ParameterError):
                evaluate_section(eulerF(4.0), n, z)
    assert steps == []
    # Fraction and mpmath points still evaluate
    value = evaluate(eulerF(4.0), 1.0 / 3.0).value
    assert evaluate(eulerF(4.0), Fraction(1, 3)).value == pytest.approx(value, rel=1e-14)
    mp_value = evaluate(SeriesFamily(FamilyKind.EULER_F, mpmath.mpf(4)), mpmath.mpf(1) / 3).value
    assert float(mp_value) == pytest.approx(value, rel=1e-14)


def test_series_and_section_evaluators_are_the_public_sums():
    fam = theta(1.7, alternating=True)
    zs = np.array([0.3, 2.5, -4.0])
    one, many = _evaluators(fam, None)
    res = evaluate(fam, 2.5, 1e-13)
    assert one(2.5) == (res.value, res.abs_error_bound)
    assert np.array_equal(many(zs), evaluate_many(fam, zs, 1e-13)[0])
    one, many = _evaluators(fam, 5)
    assert one(2.5) == section_sum(fam, 5, 2.5)
    assert np.array_equal(many(zs), section_sum(fam, 5, zs)[0])


def test_ratio_underflows_where_a_power_overflows():
    # a^k beyond float range: the ratio is 0.0, not an OverflowError
    assert eulerF(1e200).ratio(2) == 0.0
    assert eulerH(1e200).ratio(2) == 0.0
    assert evaluate(eulerF(1e200), 3.0).value == 1.0 + 3.0 / (1e200 + 1.0)


@pytest.mark.parametrize("fam", [eulerF(4.0), theta(2.0), eulerH(3.0)])
def test_ratio_consistency(fam):
    # exp(log a_k - log a_{k-1}) equals the closed-form ratio, k = 1..40
    for k in range(1, 41):
        lhs = math.exp(coefficient_log(fam, k) - coefficient_log(fam, k - 1))
        assert lhs == pytest.approx(fam.ratio(k), rel=1e-13)


@pytest.mark.parametrize("fam", [
    eulerF(3.8, alternating=True), theta(1.7), eulerH(2.5),
    eulerF(1e200), theta(1e200), eulerH(1e200),
    SeriesFamily(FamilyKind.CUSTOM, custom_log_coeffs=(0.3, -0.2, -1.5, -4.0)),
])
def test_memoized_ratios_are_the_computed_ones(fam):
    # ratio(k) of an unused family is computed on the spot; the memo a sum
    # fills must hold the same floats, bit for bit, including the 0.0 past
    # a custom family's end and the 0.0 where a**k overflows (a = 1e200)
    computed = [dataclasses.replace(fam).ratio(k) for k in range(1, 41)]
    if fam.kind is FamilyKind.CUSTOM:
        assert computed[3:] == [0.0] * 37
    elif fam.a == 1e200 and fam.kind is not FamilyKind.THETA:
        assert computed[1] == 0.0
    before = evaluate(fam, 2.5)
    assert section_sum(fam, 40, 0.5) == section_sum(dataclasses.replace(fam), 40, 0.5)
    assert evaluate(fam, 2.5) == before
    table = fam._ratio_table(41)
    for k, want in enumerate(computed, start=1):
        assert want.hex() == table[k].hex() == fam.ratio(k).hex()


def test_memo_keeps_exact_ratios_for_fraction_parameters():
    fam = SeriesFamily(FamilyKind.THETA, Fraction(3, 2))
    evaluate(fam, Fraction(1, 2), rel_tol=1e-20)  # fills the memo
    for k in range(1, 20):
        assert fam.ratio(k) == exact_ratio(FamilyKind.THETA, Fraction(3, 2), k)
        assert isinstance(fam.ratio(k), Fraction)


def test_mpmath_ratios_follow_the_working_precision():
    # an mpmath parameter rounds at the precision of the call, so a ratio
    # computed at 15 digits must never serve a sum at 50
    fam = SeriesFamily(FamilyKind.EULER_F, mpmath.mpf(4))
    oracle, _ = exact_sum(FamilyKind.EULER_F, Fraction(4), Fraction(1, 3))
    with mpmath.workdps(15):
        low = evaluate(fam, mpmath.mpf(1) / 3, rel_tol=1e-15).value
    with mpmath.workdps(50):
        high = evaluate(fam, mpmath.mpf(1) / 3, rel_tol=mpmath.mpf(10) ** -45).value
        assert fam.ratio(7) == 1 / (mpmath.mpf(4) ** 7 + 1)
    with mpmath.workdps(60):
        exact = mpmath.mpf(oracle.numerator) / oracle.denominator
        assert abs(high - exact) < mpmath.mpf(10) ** -45
        assert abs(low - exact) > mpmath.mpf(10) ** -30


@pytest.mark.parametrize("a", [2.5, 4.0, 5.5])
def test_coefficient_identity_via_q_product(a):
    # a_n from the p-product equals a_1 * (a_1/a_0)^{n-1} / (q_2^{n-1} ... q_n)
    fam = eulerF(a)
    qv = quotients(fam)
    for n in range(2, 26):
        log_from_p = coefficient_log(fam, n)
        log_a1 = coefficient_log(fam, 1)
        s = 0.0
        for j in range(2, n + 1):
            s += (n - j + 1) * math.log(qv.q(j))
        log_from_q = log_a1 + (n - 1) * log_a1 - s
        assert log_from_p == pytest.approx(log_from_q, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_at_zero_is_exact():
    res = evaluate(eulerF(4.0), 0.0)
    assert res.value == 1.0
    assert res.abs_error_bound == 0.0


def test_evaluate_eulerF_against_exact_oracle():
    # sum: 1 - 5/5 + 25/85 - 125/5525 + ... = 0.27193123224...
    sre, _ = exact_sum(FamilyKind.EULER_F, Fraction(4), Fraction(-5))
    assert float(sre) == pytest.approx(0.2719312322405228, abs=1e-15)
    res = evaluate(eulerF(4.0), -5.0, rel_tol=1e-14)
    assert abs(res.value - float(sre)) <= res.abs_error_bound


def test_evaluate_theta_against_exact_oracle():
    sre, _ = exact_sum(FamilyKind.THETA, Fraction(2), Fraction(-2), terms=40)
    assert float(sre) == pytest.approx(0.2346181878817788, abs=1e-15)
    res = evaluate(theta(2.0), -2.0, rel_tol=1e-14)
    assert abs(res.value - float(sre)) <= res.abs_error_bound


def test_evaluate_alternating_flag_matches_negated_argument():
    plain = evaluate(eulerF(4.0), -5.0)
    flipped = evaluate(eulerF(4.0, alternating=True), 5.0)
    assert flipped.value == pytest.approx(plain.value, rel=1e-14)


def test_evaluate_certificate_randomized():
    # 100 random (a, z), a in [2, 6], |z| <= a^3, vs a 60-term exact sum
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        a_fr = Fraction(int(rng.integers(32, 97)), 16)  # a in [2, 6] exactly dyadic
        a = float(a_fr)
        radius = rng.uniform(0, a**3)
        phi = rng.uniform(0, 2 * math.pi)
        zre = Fraction(round(radius * math.cos(phi) * 1024), 1024)
        zim = Fraction(round(radius * math.sin(phi) * 1024), 1024)
        kind = [FamilyKind.EULER_F, FamilyKind.THETA, FamilyKind.EULER_H][
            int(rng.integers(0, 3))
        ]
        fam = SeriesFamily(kind, a)
        sre, sim = exact_sum(kind, a_fr, zre, zim)
        res = evaluate(fam, complex(float(zre), float(zim)), rel_tol=1e-11)
        err = abs(res.value - complex(float(sre), float(sim)))
        assert err <= res.abs_error_bound + 1e-15


def test_evaluate_many_matches_scalar():
    fam = eulerF(4.0, alternating=True)
    for zs in (np.array([1.0 + 2.0j, -3.0, 10.0, 0.5j]), np.array([-3.0, 10.0, 0.5])):
        vals, bnds = evaluate_many(fam, zs, rel_tol=1e-13)
        assert vals.dtype == zs.dtype  # real points give real values
        for z, v, b in zip(zs, vals, bnds):
            res = evaluate(fam, z.item(), rel_tol=1e-13)
            assert abs(v - res.value) <= 1e-13 * max(1.0, abs(res.value))
            assert b >= 0.0


# a named family with its parameter range, alternating or not
_NAMED = st.builds(
    SeriesFamily,
    st.sampled_from([FamilyKind.EULER_F, FamilyKind.THETA, FamilyKind.EULER_H]),
    st.floats(1.5, 6.0),
    alternating=st.booleans(),
)
_REL_TOL = st.floats(-14.0, -6.0).map(lambda e: 10.0**e)
_REAL = st.floats(-40.0, 40.0)
_COMPLEX = st.builds(complex, st.floats(-25.0, 25.0), st.floats(-25.0, 25.0))


def _bits(v):
    return (v.real.hex(), v.imag.hex()) if isinstance(v, complex) else float(v).hex()


def _outcome(fn):
    try:
        return fn()
    except (FloatRangeError, TruncationError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(_NAMED, _REAL, _REL_TOL)
def test_scalar_and_batch_stop_rules_agree_bit_for_bit(fam, x, rel_tol):
    # a scalar stops on tail - rel_tol * (s if s > 1 else 1), a batch on
    # the array maximum of tail - rel_tol * np.maximum(1, s): one point
    # must stop at the same term with the same value and bound
    one = _outcome(lambda: evaluate(fam, x, rel_tol))
    many = _outcome(lambda: evaluate_many(fam, np.array([x]), rel_tol))
    if isinstance(one, type):
        assert many is one
    else:
        assert (_bits(many[0][0]), _bits(many[1][0])) == (
            _bits(one.value), _bits(one.abs_error_bound)
        )


@settings(max_examples=300, deadline=None)
@given(_NAMED, st.integers(0, 40), st.one_of(st.lists(_REAL, min_size=1, max_size=6),
                                             st.lists(_COMPLEX, min_size=1, max_size=6)))
def test_batch_sections_give_the_pointwise_bits(fam, n, points):
    # values agree on real and complex points; bounds on real points only,
    # as numpy's complex abs may move the last bit of a complex one
    batch = _outcome(lambda: section_sum(fam, n, np.array(points)))
    pointwise = [_outcome(lambda: section_sum(fam, n, z)) for z in points]
    if isinstance(batch, type):
        assert batch in pointwise
        return
    vals, bnds = batch
    assert [_bits(v) for v in vals.tolist()] == [_bits(v) for v, _ in pointwise]
    if isinstance(points[0], float):
        assert [_bits(b) for b in bnds.tolist()] == [_bits(b) for _, b in pointwise]


def test_single_coefficient_family_bound_is_the_same_for_points_and_batches():
    fam = SeriesFamily(FamilyKind.CUSTOM, custom_log_coeffs=(0.5,))
    res = evaluate(fam, 3.0)
    vals, bnds = evaluate_many(fam, np.array([3.0, -2.0]))
    assert vals.tolist() == [res.value] * 2
    assert bnds.tolist() == [res.abs_error_bound] * 2
    assert res.abs_error_bound > 0.0


def test_evaluate_truncation_failure_carries_partial():
    # theta(1.000002) decays so slowly that at z = 1.04 its terms grow up to
    # k ~ 9,800 and stay far above the tail target at the term cap, while
    # their sum stays in float range
    fam = theta(1.000002)
    with pytest.raises(TruncationError) as exc:
        evaluate(fam, 1.04, rel_tol=1e-12)
    assert exc.value.partial is not None
    assert exc.value.partial.terms_used == 10_000
    assert math.isfinite(exc.value.partial.value)


# ---------------------------------------------------------------------------
# evaluate_section
# ---------------------------------------------------------------------------

def test_section_examples():
    assert evaluate_section(eulerF(4.0, alternating=True), 1, 5.0) == pytest.approx(0.0, abs=1e-15)
    # at z = a^2 + 1 the two-term cancellation leaves exactly 1
    assert evaluate_section(eulerF(4.0, alternating=True), 2, 17.0) == pytest.approx(1.0, rel=1e-14)
    assert evaluate_section(theta(2.0), 2, 1.0) == pytest.approx(1.5625, rel=1e-15)


@pytest.mark.parametrize(
    "fam",
    [
        eulerF(3.7, alternating=True),
        eulerF(3.7),
        theta(1.8, alternating=True),
        theta(1.8),
        SeriesFamily(FamilyKind.CUSTOM, custom_log_coeffs=(0.3, -1.0, -2.5, -4.5),
                     alternating=True),
    ],
)
def test_section_sum_batch_equals_pointwise(fam):
    # the batched grid replaces pointwise evaluate_section calls in the
    # minimizers, so it must give the same floats, not merely close ones
    xs = np.linspace(0.5, 20.0, 97)
    zs = 6.0 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 97, endpoint=False))
    for n in (0, 2, 5, 9):  # the custom family has 4 coefficients
        for pts in (xs, zs):
            vals = section_sum(fam, n, pts)[0]
            assert vals.tolist() == [evaluate_section(fam, n, p) for p in pts.tolist()]


def _bits(v):
    a = np.asarray(v)
    return a.dtype.str, a.shape, a.tobytes()


@pytest.mark.parametrize("z", [
    np.array([0.5, 3.0, 10.0, 17.5], dtype=np.float16),
    np.array([0.1, 3.3, 10.0, 17.7], dtype=np.float32),
    np.array([5 + 1j, 10 + 0j, -3.3 + 2.2j], dtype=np.complex64),
    np.array([0, 3, 10, 17], dtype=np.int64),
    np.array([True, False, True]),
    np.float32(10.0),
    np.int64(10),
], ids=lambda z: f"{type(z).__name__}-{z.dtype}")
def test_narrow_numpy_inputs_sum_at_double_precision(z):
    # the roundoff bound takes float64's eps, so a narrower dtype must not
    # carry through the products: each input gives the bits of its points
    # as float64 or complex128
    fam = eulerF(3.8, alternating=True)
    wide = z.astype(np.promote_types(z.dtype, np.float64))
    if not isinstance(z, np.ndarray):
        wide = wide.item()
        assert type(evaluate(fam, z).value) is type(wide)  # summed as a Python scalar
    for run in (lambda p: dataclasses.astuple(evaluate(fam, p)),
                lambda p: evaluate_many(fam, p), lambda p: section_sum(fam, 8, p)):
        assert [_bits(v) for v in run(z)] == [_bits(v) for v in run(wide)]


def test_extended_precision_batches_keep_their_dtype():
    fam = eulerF(3.8, alternating=True)
    for dtype in (np.longdouble, np.clongdouble):
        vals, bounds = section_sum(fam, 8, np.array([3.0, 10.0], dtype=dtype))
        assert vals.dtype == dtype


@pytest.mark.parametrize("a", [Fraction(19, 5), mpmath.mpf("3.8")], ids=["Fraction", "mpf"])
def test_complex_section_batch_with_an_exact_or_mpmath_parameter(a):
    # the ratios are not floats: the points multiply elementwise, as objects
    fam = SeriesFamily(FamilyKind.EULER_F, a, alternating=True)
    zs = np.array([5 + 1j, 10 + 0j, -3 + 2j])
    vals, bounds = section_sum(fam, 6, zs)
    pointwise = [section_sum(fam, 6, z) for z in zs.tolist()]
    assert vals.tolist() == [v for v, _ in pointwise]
    assert bounds.tolist() == [b for _, b in pointwise]


def test_section_sum_roundoff_bound_and_degree():
    fam = eulerF(4.0, alternating=True)
    value, bound = section_sum(fam, 2, 17.0)
    assert value == evaluate_section(fam, 2, 17.0)
    # terms 1, 17/5, 289/85
    assert bound == pytest.approx(4.0 * np.finfo(float).eps * 3 * (1.0 + 3.4 + 3.4))
    with pytest.raises(ParameterError):
        section_sum(fam, -1, 1.0)


def test_section_degree_is_capped_at_the_term_cap():
    fam = theta(2.0)
    assert section_sum(fam, 10_000, 1.0)[0] == section_sum(fam, 60, 1.0)[0]  # later terms are 0
    for z in (1.0, np.array([1.0, 2.0])):
        with pytest.raises(ParameterError, match="<= 10000"):
            section_sum(fam, 10_001, z)
    with pytest.raises(ParameterError):
        evaluate_section(fam, 10_001, 1.0)


def test_slotted_result_records_stay_frozen_and_replaceable():
    from lplab.constants import ScanPoint
    from lplab.criteria import CriterionReport, Verdict
    from lplab.zerocount import WindingResult

    records = [
        EvalResult(1.0, 0.0, 1),
        CriterionReport("sign_test", Verdict.IN_LP, -0.5),
        WindingResult(2.0, 1, 0.0, 0.3, 256, True),
        ScanPoint(3.9, 0.01, "NotInLP"),
    ]
    for rec in records:
        assert not hasattr(rec, "__dict__")
        field = dataclasses.fields(rec)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, field, None)
        assert dataclasses.replace(rec) == rec


def test_section_full_consistency_with_tail_bound():
    fam = eulerF(4.0, alternating=True)
    for z in (2.0, -7.5, 10.0 + 3.0j):
        full = evaluate(fam, z, rel_tol=1e-14)
        for n in (3, 5, 9):
            sec = evaluate_section(fam, n, z)
            gap = abs(full.value - sec)
            assert gap <= tail_bound(fam.with_alternating(False), n + 1, abs(z)) * (1 + 1e-12) + full.abs_error_bound


# ---------------------------------------------------------------------------
# tail_bound
# ---------------------------------------------------------------------------

def test_tail_bound_closed_form_value():
    # (a^2+1)^2/((a+1)(a^3+1)) * (a^4+1)/(a^4-a^2) at a=4 equals 74273/78000
    b = tail_bound(eulerF(4.0), 3, 17.0)
    assert b == pytest.approx(74273.0 / 78000.0, rel=1e-12)
    # cross-check: it bounds the exact 40-term tail
    tail = sum(
        Fraction(17) ** k * exact_coeff(Fraction(4), k) for k in range(3, 43)
    )
    assert float(tail) < b


def exact_coeff(a_fr, k):
    c = Fraction(1)
    for j in range(1, k + 1):
        c /= a_fr**j + 1
    return c


def test_tail_bound_small_radius():
    b = tail_bound(eulerF(4.0), 3, 1.0)
    assert 0.0 < b < 1e-2
    tail = sum(Fraction(1) ** k * exact_coeff(Fraction(4), k) for k in range(3, 43))
    assert float(tail) < b


def test_tail_bound_zero_radius():
    assert tail_bound(eulerF(4.0), 0, 0.0) == 1.0
    assert tail_bound(eulerF(4.0), 2, 0.0) == 0.0


def test_tail_bound_divergent_majorant():
    with pytest.raises(DivergentMajorantError):
        tail_bound(eulerF(4.0), 1, 100.0)  # rho = 100/17 >= 1


def test_tail_bound_keeps_to_the_error_contract():
    for r in (math.inf, math.nan, -1.0):
        with pytest.raises(ParameterError):
            tail_bound(eulerF(4.0), 3, r)
    # past the float range: math.exp of the first kept term, then r**k of
    # a custom family's term
    with pytest.raises(FloatRangeError):
        tail_bound(eulerF(4.0), 100, 4.0**100)
    custom = SeriesFamily(FamilyKind.CUSTOM, custom_log_coeffs=(0.0, -1.0, -3.0))
    with pytest.raises(FloatRangeError):
        tail_bound(custom, 0, 1e200)
    assert tail_bound(custom, 3, 1e200) == 0.0  # nothing left to sum
    assert tail_bound(custom, 1, 2.0) == pytest.approx(2.0 / math.e + 4.0 / math.e**3)


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def test_quotient_examples():
    assert quotients(eulerF(3.0)).q(2) == pytest.approx(2.5, rel=1e-15)
    assert quotients(eulerF(4.0)).q(2) == pytest.approx(3.4, rel=1e-15)
    assert 3.0 <= quotients(eulerF(4.0)).q(2) < 4.0
    qv = quotients(theta(2.0))
    assert all(qv.q(n) == 4.0 for n in range(2, 30))


def test_quotient_monotonicity():
    # exact rationals: strictly increasing over the whole range 2..51
    a_fr = Fraction(4)
    exact = [(a_fr**n + 1) / (a_fr ** (n - 1) + 1) for n in range(2, 52)]
    assert all(x < y for x, y in zip(exact, exact[1:]))
    # floats agree until the gap to the limit drops below one ulp of 4.0,
    # and never decrease afterwards
    qv = quotients(eulerF(4.0))
    vals = [qv.q(n) for n in range(2, 52)]
    assert all(x < y for x, y in zip(vals[:24], vals[1:25]))
    assert all(x <= y for x, y in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(4.0, rel=1e-15)
    assert qv.monotonicity == "increasing"
    qh = quotients(eulerH(3.0))
    hvals = [qh.q(n) for n in range(2, 52)]
    assert all(x >= y for x, y in zip(hvals, hvals[1:]))
    assert all(x > y for x, y in zip(hvals[:24], hvals[1:25]))
    assert qh.monotonicity == "decreasing"


def test_quotient_identity_against_coefficients():
    fam = eulerF(3.7)
    qv = quotients(fam)
    for n in range(2, 30):
        lhs = qv.q(n)
        rhs = math.exp(
            2.0 * coefficient_log(fam, n - 1)
            - coefficient_log(fam, n - 2)
            - coefficient_log(fam, n)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_quotient_custom_and_errors():
    fam = SeriesFamily(FamilyKind.CUSTOM, custom_log_coeffs=(0.0, 0.0, -math.log(4.0)))
    qv = quotients(fam)
    assert qv.q(2) == pytest.approx(4.0, rel=1e-13)
    with pytest.raises(InsufficientDataError):
        quotients(SeriesFamily(FamilyKind.CUSTOM, custom_log_coeffs=(0.0, 0.0)))
    with pytest.raises(ParameterError):
        qv.q(1)


# ---------------------------------------------------------------------------
# scaled evaluation for huge real arguments
# ---------------------------------------------------------------------------

def test_scaled_real_value_matches_direct_in_overlap():
    fam = eulerF(4.0, alternating=True)
    for x in (3.0, 17.0, 120.0):
        m, ls, err = scaled_real_value(fam, x)
        direct = evaluate(fam, x, rel_tol=1e-14).value.real
        assert m * math.exp(ls) == pytest.approx(direct, rel=1e-11, abs=1e-11)
        assert err < 1e-9


def test_scaled_real_value_rejects_non_finite_arguments():
    fam = SeriesFamily(FamilyKind.EULER_F, 4.0, alternating=True)
    for x in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ParameterError):
            scaled_real_value(fam, x)


def test_scaled_real_value_ends_with_a_finite_custom_family():
    # terms 1, -2/e, 4/e^3: past the last one the tail is zero
    fam = SeriesFamily(FamilyKind.CUSTOM, custom_log_coeffs=(0.0, -1.0, -3.0), alternating=True)
    m, ls, err = scaled_real_value(fam, 2.0)
    with mpmath.workdps(40):
        want = 1 - 2 * mpmath.exp(-1) + 4 * mpmath.exp(-3)
        assert abs(m * mpmath.exp(ls) - want) <= err * mpmath.exp(ls)
    assert ls == 0.0


def test_scaled_real_value_survives_overflow_scale():
    # log-scale far beyond float range must still produce a finite mantissa
    fam = theta(4.0, alternating=True)
    m, ls, err = scaled_real_value(fam, 1e120)
    assert math.isfinite(m)
    assert ls > 700.0


def test_precision_extension_hook_exact_rationals():
    # the scalar recurrence is duck-typed: exact rational inputs run the
    # whole sum in exact arithmetic
    fam = SeriesFamily(FamilyKind.EULER_F, Fraction(4))
    res = evaluate(fam, Fraction(-5), rel_tol=1e-20)
    assert isinstance(res.value, Fraction)
    oracle, _ = exact_sum(FamilyKind.EULER_F, Fraction(4), Fraction(-5), terms=res.terms_used)
    assert res.value == oracle
    sec = evaluate_section(fam, 3, Fraction(-5))
    assert sec == 1 - Fraction(-5) * 0 + sum(
        Fraction(-5) ** k * exact_coeff(Fraction(4), k) for k in range(1, 4)
    )


def test_quotients_are_scale_and_substitution_invariant():
    # q_n of c * a_k * s^k equals q_n of a_k for any c, s > 0
    fam = eulerF(3.7)
    logs = [coefficient_log(fam, k) for k in range(8)]
    scaled = SeriesFamily(
        FamilyKind.CUSTOM,
        custom_log_coeffs=tuple(
            lv + math.log(2.5) + k * math.log(0.3) for k, lv in enumerate(logs)
        ),
    )
    qv = quotients(fam)
    qs = quotients(scaled)
    for n in range(2, 8):
        assert qs.q(n) == pytest.approx(qv.q(n), rel=1e-11)
