"""Membership criteria for the Laguerre-Polya class.

Four mechanisms, in increasing strength for the Euler-type family:

  * ``necessary_q2``      : q_2 >= 3 is necessary when q_n is nondecreasing.
  * ``hutchinson_test``   : q_n >= 4 for all n >= 2 is sufficient.
  * ``six_term_section_test`` : a one-point sign certificate on the degree-6
    section at z0 = (2/3)(a+1)q_2; sufficient only.
  * ``sign_test_euler`` / ``sign_test_theta`` : the decisive minimum-value
    sign tests on (a+1, a^2+1) resp. (a, a^3); these are equivalences.

Verdicts near a threshold fall into a Boundary band sized by the combined
numerical error plus ``tol`` (finite, >= 0); thresholds met *exactly* in
exact rational arithmetic count as satisfied for the inclusive >= criteria.
The quotient criteria of a named family take that arithmetic in integers:
with a = m/d (d = 2^e for a float), q_2 is (m^2 + s d^2) / (d (m + s d))
for the Euler kinds (s = +1 for eulerF, -1 for eulerH) and m^2/d^2 for
theta, and each margin is one correctly rounded int division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from .errors import ConsistencyError, FloatRangeError, ParameterError, PreconditionError
from .polyroots import _dyadic, _sign
from .series import _EPS, _EULER_SIGN, FamilyKind, SeriesFamily, _evaluators, quotients
from .series import minimize_on_interval, section_sum
from .series import evaluate  # noqa: F401  (perfbench's tracer tests patch this binding)

# numpy is imported by the minimizer's grid scan only: the quotient criteria
# and the six-term certificate decide with scalar and exact arithmetic


class Verdict(str, Enum):
    IN_LP = "InLP"
    NOT_IN_LP = "NotInLP"
    BOUNDARY = "Boundary"
    INAPPLICABLE = "Inapplicable"


@dataclass(frozen=True, slots=True)
class CriterionReport:
    """Outcome of one membership criterion.

    ``margin`` is the decisive quantity minus its threshold (q_min - 4 for
    the quotient tests, the interval minimum minus 0 for the sign tests);
    which sign favors membership depends on the criterion and is stated in
    each operation's docstring.  Witness fields are set by the sign tests
    only.
    """

    criterion: str
    verdict: Verdict
    margin: float
    witness_x: Optional[float] = None
    witness_value: Optional[float] = None


def _verdict_band(scale: float) -> float:
    return 64.0 * _EPS * max(1.0, scale)


def _check_a_tol(a: float, tol: float) -> None:
    """A tol below 0 would let a margin inside the error budget decide."""
    if not a > 1:
        raise ParameterError("requires a > 1")
    if not 0.0 <= tol < math.inf:
        raise ParameterError(f"tol must be finite and >= 0, got {tol!r}")


def _verdict(margin: float, band: float, below: Verdict, above: Verdict) -> Verdict:
    """The one margin-to-verdict rule: a margin beyond the band on either
    side decides, anything within it (or nan) is Boundary."""
    if margin < -band:
        return below
    if margin > band:
        return above
    return Verdict.BOUNDARY


# ---------------------------------------------------------------------------
# quotient criteria
# ---------------------------------------------------------------------------

def _exact_q2(family: SeriesFamily) -> Tuple[int, int]:
    """q_2 of a named family as integers (num, den), den > 0, at the exact
    rational value a = m/d of its parameter: (a^2+s)/(a+s) =
    (m^2 + s d^2) / (d (m + s d)) for the Euler kinds, a^2 = m^2/d^2 for
    theta.  A margin (num - t den) / den is then one correctly rounded int
    division, the float that ``float(Fraction)`` gives."""
    m, d = family.a.as_integer_ratio()
    s = _EULER_SIGN.get(family.kind)
    if s is None:
        return m * m, d * d
    return m * m + s * d * d, d * (m + s * d)


def hutchinson_test(family: SeriesFamily, n_max: int = 20) -> CriterionReport:
    """Sufficient test: q_n >= 4 for every n >= 2 forces real zeros.

    A named family's closed-form quotients are monotone, so exact rational
    arithmetic decides for all n at once (increasing: q_2 decides; constant:
    q decides; decreasing: the limit decides).  A positive margin (or an
    exactly-zero one, since the criterion is inclusive) gives InLP.  A
    custom family has no closed-form extension: its verdict is Inapplicable,
    with the margin of the finite window q_2 .. q_{n_max}.
    """
    if n_max < 2:
        raise ParameterError("n_max must be >= 2")
    qv = quotients(family)
    if family.kind is FamilyKind.CUSTOM:
        n_max = min(n_max, family.n_terms - 1)  # q_n needs a_n
        window_min = min(qv.q(n) for n in range(2, n_max + 1))
        return CriterionReport("hutchinson", Verdict.INAPPLICABLE, window_min - 4.0)
    # the closed forms at the exact rational value of the (dyadic) float a;
    # the float view above has already refused an a beyond the float range
    if qv.monotonicity == "decreasing":
        num, den = family.a.as_integer_ratio()  # lim q_n = a
    else:
        num, den = _exact_q2(family)
    if num == 4 * den:
        # threshold attained exactly in exact arithmetic: inclusive test holds
        return CriterionReport("hutchinson", Verdict.IN_LP, 0.0)
    margin = (num - 4 * den) / den
    band = _verdict_band(num / den)
    return CriterionReport(
        "hutchinson", _verdict(margin, band, Verdict.INAPPLICABLE, Verdict.IN_LP), margin
    )


def necessary_q2(family: SeriesFamily) -> CriterionReport:
    """Necessary condition for families with nondecreasing quotients:
    membership forces q_2 >= 3, so q_2 < 3 certifies NotInLP.  q_2 >= 3
    concludes nothing (Inapplicable); a q_2 within numerical resolution of
    3 is reported Boundary."""
    qv = quotients(family)
    if qv.monotonicity == "decreasing":
        raise PreconditionError("necessary_q2 requires nondecreasing quotients")
    if qv.monotonicity == "unknown":
        qs = [qv.q(n) for n in range(2, len(family.custom_log_coeffs))]
        if any(x > y * (1.0 + 1e-12) for x, y in zip(qs, qs[1:])):
            raise PreconditionError("custom quotients are not nondecreasing")
    if family.kind is FamilyKind.CUSTOM:
        q2 = qv.q(2)
        margin = q2 - 3
    else:  # exact q_2 at the (dyadic) float a, as in hutchinson_test
        num, den = _exact_q2(family)
        q2, margin = num / den, (num - 3 * den) / den
    verdict = _verdict(margin, _verdict_band(q2), Verdict.NOT_IN_LP, Verdict.INAPPLICABLE)
    return CriterionReport("q2_necessary", verdict, margin)


# ---------------------------------------------------------------------------
# sign tests (the decisive equivalences)
# ---------------------------------------------------------------------------

def sign_test_euler(a: float, grid: int = 512, tol: float = 1e-9) -> CriterionReport:
    """Minimum of the alternating Euler-type series on (a+1, a^2+1).

    A certified negative minimum is equivalent to membership; a certified
    positive one to non-membership.  margin = interval minimum, so negative
    margin favors InLP here.
    """
    _check_a_tol(a, tol)
    hi = a * a + 1.0
    if not math.isfinite(hi):
        raise FloatRangeError(f"a^2 + 1 is beyond the float range at a={a!r}")
    return _sign_test("sign_test_euler", FamilyKind.EULER_F, a, None, a + 1.0, hi, grid, tol)


def sign_test_theta(
    a: float, n: Optional[int] = None, grid: int = 512, tol: float = 1e-9
) -> CriterionReport:
    """Same contract as ``sign_test_euler`` for the partial theta function
    (or its degree-n section when ``n`` is given) on (a, a^3)."""
    _check_a_tol(a, tol)
    if n is not None and n < 2:
        raise ParameterError("section sign test needs n >= 2")
    try:
        hi = a**3
    except OverflowError:
        raise FloatRangeError(f"a^3 is beyond the float range at a={a!r}") from None
    name = "sign_test_theta" if n is None else f"sign_test_theta_section{n}"
    return _sign_test(name, FamilyKind.THETA, a, n, a, hi, grid, tol)


def _sign_test(
    name: str, kind: FamilyKind, a: float, n: Optional[int],
    lo: float, hi: float, grid: int, tol: float,
) -> CriterionReport:
    """The one sign-test body: minimum on (lo, hi) of the alternating
    series of ``kind`` at ``a`` (or of its degree-n section), as a report
    whose margin and witness value are that minimum."""
    fam = SeriesFamily(kind, a, alternating=True)
    v, x, e = minimize_on_interval(*_evaluators(fam, n), lo, hi, grid)
    verdict = _verdict(v, tol + e, Verdict.IN_LP, Verdict.NOT_IN_LP)
    return CriterionReport(name, verdict, v, witness_x=x, witness_value=v)


# ---------------------------------------------------------------------------
# six-term section certificate
# ---------------------------------------------------------------------------

def _six_term_expansion() -> Tuple[int, ...]:
    """Exact integer expansion of 729 (a+1)(a^3+1)(a^4+1)(a^5+1)(a^6+1)
    times the six-term closed form; same sign as the section value at z0.
    Its term m is scale_m (a^2+1)^m prod_{j in J_m} (a^j+1)."""
    terms = ((729, (1, 3, 4, 5, 6)), (-162, (3, 4, 5, 6)), (-216, (4, 5, 6)),
             (144, (5, 6)), (-96, (6,)), (64, ()))
    total = [0] * 21  # degree 20
    for m, (scale, js) in enumerate(terms):
        poly = [scale]
        for j in (2,) * m + js:  # times (a^j + 1)
            poly = [c + (poly[i - j] if i >= j else 0) for i, c in enumerate(poly + [0] * j)]
        for i, c in enumerate(poly):
            total[i] += c
    return tuple(total)


SIX_TERM_EXPANSION_COEFFS: Tuple[int, ...] = _six_term_expansion()


def _six_term_section_values(a: float) -> Tuple[float, float, float]:
    """(closed form, direct section, z0) at z0 = (2/3)(a+1) q_2 for the
    alternating Euler-type series."""
    fam = SeriesFamily(FamilyKind.EULER_F, a, alternating=True)
    qv = quotients(fam)
    q2, q3, q4, q5, q6 = (qv.q(j) for j in range(2, 7))
    try:
        closed = (
            1.0
            - (2.0 / 9.0) * q2
            - (8.0 / 27.0) * (q2 / q3)
            + (16.0 / 81.0) * (q2 / (q3 * q3 * q4))
            - (32.0 / 243.0) * (q2 / (q3**3 * q4 * q4 * q5))
            + (64.0 / 729.0) * (q2 / (q3**4 * q4**3 * q5 * q5 * q6))
        )
    except OverflowError:
        raise FloatRangeError(
            f"a power of q_3 or q_4 in the six-term closed form is beyond the "
            f"float range at a={a!r}"
        ) from None
    z0 = (2.0 / 3.0) * (a + 1.0) * q2
    direct, _ = section_sum(fam, 6, z0)
    return closed, direct, z0


def six_term_section_test(a: float, tol: float = 1e-9) -> CriterionReport:
    """Sufficient one-point certificate on the degree-6 section.

    Evaluates the section at z0 = (2/3)(a+1) q_2 through the six-term
    closed form and independently through the term recurrence (they must
    agree to 1e-9), and cross-checks the sign against the exact sign of the
    integer-coefficient polynomialization at the (dyadic) float ``a``.  A
    certified negative value implies a negative full-series value at z0 and
    hence membership; a positive value concludes nothing.
    """
    _check_a_tol(a, tol)
    closed, direct, z0 = _six_term_section_values(a)
    denom = max(1.0, abs(closed), abs(direct))
    if abs(closed - direct) > 1e-9 * denom:
        raise ConsistencyError(
            f"six-term closed form {closed!r} and direct section {direct!r} "
            "disagree beyond 1e-9 relative"
        )
    band = tol + _verdict_band(1.0)
    exact_sign = _sign(SIX_TERM_EXPANSION_COEFFS, *_dyadic(float(a)))
    if abs(closed) > band and math.copysign(1, closed) != exact_sign:
        raise ConsistencyError(
            f"section value {closed!r} and the exact polynomialization (sign "
            f"{exact_sign}) disagree in sign at a={a!r}"
        )
    verdict = _verdict(closed, band, Verdict.IN_LP, Verdict.INAPPLICABLE)
    return CriterionReport(
        "six_term_section", verdict, closed, witness_x=z0, witness_value=closed
    )


# ---------------------------------------------------------------------------
# decision cascade
# ---------------------------------------------------------------------------

def classify_euler(a: float, grid: int = 512, tol: float = 1e-9) -> CriterionReport:
    """Decision cascade for the Euler-type family:
    q2_necessary -> hutchinson -> six_term_section -> sign_test_euler.

    The first InLP/NotInLP wins and names its criterion; the sign test is
    the authoritative equivalence and supplies the fallback verdict.
    """
    _check_a_tol(a, tol)
    fam = SeriesFamily(FamilyKind.EULER_F, a)
    rep = necessary_q2(fam)
    if rep.verdict is Verdict.NOT_IN_LP:
        return rep
    rep = hutchinson_test(fam)
    if rep.verdict is Verdict.IN_LP:
        return rep
    rep = six_term_section_test(a, tol)
    if rep.verdict is Verdict.IN_LP:
        return rep
    return sign_test_euler(a, grid, tol)
