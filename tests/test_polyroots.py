"""Root isolation engine tests, including planted-root recovery."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lplab import polyroots
from lplab.errors import FloatRangeError, ParameterError
from lplab.polyroots import (
    RealPolynomial,
    count_real_roots,
    is_real_rooted,
    isolate_real_roots,
    refine,
    section_polynomial,
)
from lplab.series import FamilyKind, SeriesFamily, evaluate_section

SEPTIC = RealPolynomial((-1, 0, -3, -1, -1, 0, -3, 1))
OCTIC = RealPolynomial((-16, -40, -43, -28, -21, 12, 15, -8, 1))
QUINTIC = RealPolynomial((-2.0 / 9.0, 1.8, 0, 0, -2, 1))


def _sign_at(p, x):
    v = sum(Fraction(c) * Fraction(x) ** k for k, c in enumerate(p.coeffs))
    return (v > 0) - (v < 0)


def test_refine_stops_at_the_float_spacing(monkeypatch):
    # the largest root (about 2.19e6) of the degree-12 eulerF section at
    # a = 4: a tol of 1e-12 is far below the float spacing there (4.7e-10)
    p = section_polynomial(SeriesFamily(FamilyKind.EULER_F, 4.0), 12)
    br = isolate_real_roots(p, (-1e7, 1e7))[-1]
    evals = []
    sign = polyroots._sign
    monkeypatch.setattr(polyroots, "_sign", lambda q, m, e: evals.append(m) or sign(q, m, e))
    x = refine(p, br, 1e-12)
    assert 2.1e6 < x < 2.2e6
    # two end signs, then one per halving from the bracket width down to
    # the spacing, not on down to 1e-12
    assert evals
    assert len(evals) <= 2 + math.ceil(math.log2((br.hi - br.lo) / math.ulp(x))) + 1
    u = math.ulp(x)
    assert _sign_at(p, x - 4 * u) * _sign_at(p, x + 4 * u) == -1


def test_a_square_free_polynomial_builds_one_remainder_sequence(monkeypatch):
    # the section is square-free: its chain ends in a constant gcd(p, p'),
    # so every operation together costs one pseudo-division per chain step
    calls = []
    pdiv = polyroots._pdiv
    monkeypatch.setattr(polyroots, "_pdiv", lambda a, b: calls.append(1) or pdiv(a, b))
    p = section_polynomial(SeriesFamily(FamilyKind.EULER_F, 4.0), 12)
    assert is_real_rooted(p)
    assert count_real_roots(p) == count_real_roots(p, (-1e7, 1e7)) == 12
    brackets = isolate_real_roots(p, (-1e7, 1e7))
    for br in brackets:
        refine(p, br, 1e-12 * max(1.0, abs(br.lo), abs(br.hi)))
    assert len(brackets) == 12
    assert len(calls) == len(p._sturm_ints) - 1


def test_sturm_chain_is_built_once_per_polynomial(monkeypatch):
    calls = []
    sturm_chain = polyroots._sturm_chain
    monkeypatch.setattr(polyroots, "_sturm_chain", lambda q: calls.append(1) or sturm_chain(q))
    p = section_polynomial(SeriesFamily(FamilyKind.EULER_F, 4.0), 12)
    assert is_real_rooted(p)
    assert count_real_roots(p, (-1e7, 1e7)) == 12
    brackets = isolate_real_roots(p, (-1e7, 1e7))
    for br in brackets:
        refine(p, br, 1e-12 * max(1.0, abs(br.lo), abs(br.hi)))
    assert count_real_roots(p) == len(brackets) == 12
    assert len(calls) == 1


def test_isolate_simple_cases():
    brs = isolate_real_roots(RealPolynomial((-1, 0, 1)), (-2, 2))  # x^2 - 1
    assert len(brs) == 2
    assert brs[0].lo < -1 < brs[0].hi
    assert brs[1].lo < 1 < brs[1].hi
    assert brs[0].sign_lo * brs[0].sign_hi == -1
    assert isolate_real_roots(RealPolynomial((1, 0, 1)), (-10, 10)) == []


def test_isolate_septic_threshold_root():
    brs = isolate_real_roots(SEPTIC, (1, 10))
    assert len(brs) == 1
    root = refine(SEPTIC, brs[0], 1e-10)
    assert root == pytest.approx(3.1625822466326916, abs=1e-9)


def test_refine_sqrt2():
    p = RealPolynomial((-2, 0, 1))
    (br,) = isolate_real_roots(p, (1, 2))
    assert refine(p, br, 1e-12) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_refine_octic_root():
    (br,) = isolate_real_roots(OCTIC, (3, 5))
    assert refine(OCTIC, br, 1e-9) == pytest.approx(3.9015496781605448, abs=1e-8)


def test_refine_quintic_largest_root():
    brs = isolate_real_roots(QUINTIC, (1, 2))
    # two crossings in (1, 2); the threshold is the larger one
    assert len(brs) == 2
    root = refine(QUINTIC, brs[-1], 1e-9)
    assert root == pytest.approx(1.5768510873341182, abs=1e-8)


def test_refine_rejects_bad_tol():
    p = RealPolynomial((-2, 0, 1))
    (br,) = isolate_real_roots(p, (1, 2))
    with pytest.raises(ParameterError):
        refine(p, br, 0.0)


def test_endpoint_on_root_is_nudged():
    p = RealPolynomial((-1, 0, 1))  # roots at +-1
    brs = isolate_real_roots(p, (-1.0, 1.0))
    assert len(brs) == 2


def test_is_real_rooted_basics():
    assert is_real_rooted(RealPolynomial((2, -3, 1)))  # (x-1)(x-2)
    assert not is_real_rooted(RealPolynomial((1, 1, 1)))
    # multiplicity: (x-1)^2 (x+2) = x^3 - 3x + 2 has 3 real roots with mult.
    assert is_real_rooted(RealPolynomial((2, -3, 0, 1)))
    assert count_real_roots(RealPolynomial((2, -3, 0, 1))) == 2  # distinct


def test_is_real_rooted_matches_discriminant_on_grid():
    for b in np.linspace(-5, 5, 50):
        for c in np.linspace(-5, 5, 50):
            p = RealPolynomial((c, b, 1.0))
            disc = b * b - 4.0 * c
            if abs(disc) < 1e-9:
                continue
            assert is_real_rooted(p) == (disc > 0)


def test_rescaled_s2_section_is_not_real_rooted():
    # 1 - u + u^2/3.4 has complex conjugate roots
    p = section_polynomial(SeriesFamily(FamilyKind.EULER_F, 4.0), 2)
    assert list(p.coeffs) == pytest.approx([1.0, -1.0, 1.0 / 3.4], rel=1e-14)
    assert not is_real_rooted(p)


def test_section_polynomial_coefficients():
    p = section_polynomial(SeriesFamily(FamilyKind.EULER_F, 5.0), 3)
    q2, q3 = 26.0 / 6.0, 126.0 / 26.0
    assert list(p.coeffs) == pytest.approx(
        [1.0, -1.0, 1.0 / q2, -1.0 / (q2 * q2 * q3)], rel=1e-13
    )
    assert p.u_scale == pytest.approx(6.0, rel=1e-14)
    ptheta = section_polynomial(SeriesFamily(FamilyKind.THETA, 2.0), 2)
    assert list(ptheta.coeffs) == pytest.approx([1.0, -1.0, 0.25], rel=1e-14)


def test_section_polynomial_degree_is_capped_at_the_term_cap():
    with pytest.raises(ParameterError, match="<= 10000"):
        section_polynomial(SeriesFamily(FamilyKind.EULER_F, 4.0), 10_001)


def test_section_polynomial_checks_the_normalizing_scale():
    # a_1/a_0 = e^800 is beyond the float range: the scale would round to 0
    far = SeriesFamily(FamilyKind.CUSTOM, custom_log_coeffs=(0.0, 800.0, 900.0))
    with pytest.raises(FloatRangeError):
        section_polynomial(far, 2)
    # a_1/a_0 = e^-800 rounds to zero: there is nothing to normalize by
    flat = SeriesFamily(FamilyKind.CUSTOM, custom_log_coeffs=(0.0, -800.0, -1700.0))
    with pytest.raises(ParameterError):
        section_polynomial(flat, 2)


@pytest.mark.parametrize("kind, a", [(FamilyKind.THETA, 2.0), (FamilyKind.EULER_F, 4.0)])
def test_section_polynomial_refuses_an_underflowing_coefficient(kind, a):
    # the u^34 coefficient is below the least subnormal: stripped as a zero,
    # it left a degree-33 polynomial in place of the degree-40 section
    fam = SeriesFamily(kind, a)
    assert section_polynomial(fam, 33).degree == 33
    with pytest.raises(FloatRangeError, match=r"u\^34 of the degree-40 section underflows"):
        section_polynomial(fam, 40)


def test_section_scaling_soundness():
    # mapped roots of the section polynomial are zeros of the section itself
    fam = SeriesFamily(FamilyKind.EULER_F, 5.0)
    alt = fam.with_alternating(True)
    for n in (3, 5, 7):
        p = section_polynomial(fam, n)
        for br in isolate_real_roots(p, (0.0, 1e4)):
            u = refine(p, br, 1e-12)
            z = p.u_scale * u
            val = evaluate_section(alt, n, z)
            # compare against the size of the largest partial term
            scale = max(1.0, abs(z) / (fam.a + 1.0))
            assert abs(val) <= 1e-8 * scale**n


def test_hutchinson_sections_real_rooted():
    # q_2(a) >= 4 for a >= 2 + sqrt(7): every section is real-rooted
    for a in (4.7, 5.0):
        fam = SeriesFamily(FamilyKind.EULER_F, a)
        for n in range(2, 13):
            assert is_real_rooted(section_polynomial(fam, n))


def test_planted_root_recovery_randomized():
    # 200 instances, roots at distinct half-integers: coefficients are exact
    rng = np.random.default_rng(1234)
    pool = [Fraction(k, 2) for k in range(-16, 17)]
    for _ in range(200):
        deg = int(rng.integers(2, 13))
        roots = sorted(rng.choice(len(pool), size=deg, replace=False))
        roots = [pool[i] for i in roots]
        coeffs = [Fraction(1)]
        for r in roots:
            coeffs = [Fraction(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        fl = [float(c) for c in coeffs]
        assert all(Fraction(f) == c for f, c in zip(fl, coeffs))  # exactness
        p = RealPolynomial(tuple(fl))
        brs = isolate_real_roots(p, (-9.0, 9.0))
        assert len(brs) == deg
        for br, r in zip(brs, roots):
            assert refine(p, br, 1e-12) == pytest.approx(float(r), abs=1e-9)


def test_non_finite_input_is_a_parameter_error():
    for coeffs in ((1.0, math.inf), (1, math.nan, 1), (-math.inf, 0, 1)):
        with pytest.raises(ParameterError):
            RealPolynomial(coeffs)
    p = RealPolynomial((-1, 0, 1))
    for interval in ((-math.inf, 2.0), (0.0, math.inf), (math.nan, 2.0), (-2.0, math.nan)):
        with pytest.raises(ParameterError):
            isolate_real_roots(p, interval)
        with pytest.raises(ParameterError):
            count_real_roots(p, interval)
    assert count_real_roots(p, (-2.0, 2.0)) == 2


def test_degree_zero_has_no_roots():
    assert isolate_real_roots(RealPolynomial((3.0,)), (-1, 1)) == []
    assert count_real_roots(RealPolynomial((3.0,)), (-1, 1)) == 0
    assert is_real_rooted(RealPolynomial((3.0,)))


def test_reversed_and_empty_intervals_are_parameter_errors():
    # isolation and the interval count check their interval in one place
    for p in (RealPolynomial((2, -3, 1)), RealPolynomial((3.0,))):
        for interval in ((3.0, 0.0), (1.0, 1.0)):
            with pytest.raises(ParameterError):
                isolate_real_roots(p, interval)
            with pytest.raises(ParameterError):
                count_real_roots(p, interval)
    # roots at both ends count: the ends are nudged outward
    assert count_real_roots(RealPolynomial((2, -3, 1)), (1.0, 2.0)) == 2


# ---------------------------------------------------------------------------
# differential test against planted factors and a Fraction oracle
# ---------------------------------------------------------------------------

_GRID = [Fraction(j, 4) for j in range(-12, 13)]  # roots and interval ends


def _times(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _expand(lead, roots, quads):
    """Ascending Fraction coefficients of lead * prod (x - r)^m * prod quads."""
    coeffs = [lead]
    for r, m in roots.items():
        for _ in range(m):
            coeffs = _times(coeffs, [-r, Fraction(1)])
    for b, c in quads:
        coeffs = _times(coeffs, [c, b, Fraction(1)])
    return coeffs


@st.composite
def _planted(draw):
    """(lead, real roots with multiplicity, positive quadratics, interval):
    a polynomial with exact float coefficients and known factors."""
    roots = draw(st.lists(st.sampled_from(_GRID), min_size=0, max_size=4, unique=True))
    mults = [draw(st.integers(1, 3)) for _ in roots]
    quads = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 4)), max_size=2))
    quads = [(Fraction(b, 2), Fraction(b * b, 16) + Fraction(c, 4)) for b, c in quads]
    lead = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(3), Fraction(-3, 8)]))
    lo, hi = sorted(draw(st.lists(st.sampled_from(_GRID), min_size=2, max_size=2, unique=True)))
    return lead, dict(zip(roots, mults)), quads, (lo, hi)


def _oracle_sign(lead, roots, x):
    """Sign at x of the square-free part, leading sign kept (quadratics are
    positive on the line)."""
    s = 1 if lead > 0 else -1
    for r in roots:
        s *= (x > r) - (x < r)
    return s


def _oracle_refine(lead, roots, lo, hi, tol):
    """The bisection of ``refine`` in Fraction arithmetic."""
    lo, hi = Fraction(lo), Fraction(hi)
    s_lo = _oracle_sign(lead, roots, lo)
    while float(hi - lo) > max(tol, min(math.ulp(float(lo)), math.ulp(float(hi)))):
        mid = (lo + hi) / 2
        s = _oracle_sign(lead, roots, mid)
        if s == 0:
            return float(mid)
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


@settings(max_examples=150, deadline=None)
@given(_planted(), st.sampled_from([1e-6, 1e-12, 1e-300]))
@example((Fraction(1), {Fraction(-1): 3, Fraction(0): 1, Fraction(1): 2}, [], (Fraction(-1), Fraction(1))),
         1e-12)
# a repeated complex factor, (x^2+1)^2 (x-1), and repeated real roots only,
# (x-1)^2 (x+2)^3: real-rootedness is read off the square-free part
@example((Fraction(1), {Fraction(1): 1}, [(Fraction(0), Fraction(1))] * 2, (Fraction(-2), Fraction(2))),
         1e-12)
@example((Fraction(1), {Fraction(1): 2, Fraction(-2): 3}, [], (Fraction(-3), Fraction(3))), 1e-12)
def test_exact_layer_matches_planted_factors(case, tol):
    # roots and interval ends on a quarter grid: ends can sit on roots
    # (nudge) and bisection midpoints can hit roots exactly (step-off)
    lead, roots, quads, (lo, hi) = case
    coeffs = _expand(lead, roots, quads)
    p = RealPolynomial(tuple(float(c) for c in coeffs))
    assert [Fraction(c) for c in p.coeffs] == coeffs  # exactness
    assert is_real_rooted(p) == (not quads)
    assert count_real_roots(p) == len(roots)
    inside = sorted(r for r in roots if lo <= r <= hi)
    assert count_real_roots(p, (float(lo), float(hi))) == len(inside)
    brs = isolate_real_roots(p, (float(lo), float(hi)))
    assert len(brs) == len(inside)
    for br, r in zip(brs, inside):
        assert br.lo < r < br.hi
        assert br.sign_lo == _oracle_sign(lead, roots, Fraction(br.lo)) == -br.sign_hi
        assert br.sign_hi == _oracle_sign(lead, roots, Fraction(br.hi))
        x = refine(p, br, tol)
        assert x == _oracle_refine(lead, roots, br.lo, br.hi, tol)
        assert abs(x - r) <= max(tol, 2 * math.ulp(br.lo), 2 * math.ulp(br.hi))


_SIGN = polyroots._sign


def _two_evaluation_isolate(p, lo, hi, tally):
    """isolate_real_roots as it was before it carried variation counts:
    each split counts the lower half by evaluating the chain at both of its
    ends, and a count-1 interval evaluates the signs of its ends again.
    ``tally`` counts the nudge evaluations at the interval ends, the splits
    and the steps off a midpoint that is a root."""
    ps, chain = p._square_free_ints, p._sturm_ints
    if len(ps) <= 1:
        return []

    def nudge(x, direction):
        while True:
            tally["nudge"] += 1
            if _SIGN(ps, *polyroots._dyadic(x)) != 0:
                return polyroots._dyadic(x)
            x = x + direction * 16.0 * max(abs(x), 1.0) * polyroots._EPS

    def count(m_lo, m_hi, e):
        at = [polyroots._variations([_SIGN(q, m, e) for q in chain]) for m in (m_lo, m_hi)]
        return at[0] - at[1]

    m_lo, m_hi, e = polyroots._common(nudge(lo, -1.0), nudge(hi, +1.0))
    stack = [(m_lo, m_hi, e, count(m_lo, m_hi, e))]
    out = []
    while stack:
        m_lo, m_hi, e, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            scale = 1 << e
            out.append((m_lo / scale, m_hi / scale, _SIGN(ps, m_lo, e), _SIGN(ps, m_hi, e)))
            continue
        tally["splits"] += 1
        m_mid = m_lo + m_hi
        if _SIGN(ps, m_mid, e + 1) == 0:
            m_mid <<= 39
            while _SIGN(ps, m_mid, e + 40) == 0:
                tally["steps"] += 1
                m_mid += m_hi - m_lo
            m_lo, m_hi, e = m_lo << 40, m_hi << 40, e + 40
        else:
            m_lo, m_hi, e = m_lo << 1, m_hi << 1, e + 1
        c_lo = count(m_lo, m_mid, e)
        stack.append((m_lo, m_mid, e, c_lo))
        stack.append((m_mid, m_hi, e, cnt - c_lo))
    return sorted(out)


@settings(max_examples=150, deadline=None)
@given(_planted())
# ends on roots (nudged), and a first midpoint on a double root (step-off)
@example((Fraction(1), {Fraction(-1): 1, Fraction(-1, 2): 1, Fraction(0): 2, Fraction(1, 2): 1,
                        Fraction(1): 1}, [], (Fraction(-1), Fraction(1))))
def test_isolation_evaluates_the_chain_once_per_split(case):
    lead, roots, quads, (lo, hi) = case
    p = RealPolynomial(tuple(float(c) for c in _expand(lead, roots, quads)))
    tally = {"nudge": 0, "splits": 0, "steps": 0}
    want = _two_evaluation_isolate(p, float(lo), float(hi), tally)
    calls = []
    with mock.patch.object(polyroots, "_sign", lambda q, m, e: calls.append(m) or _SIGN(q, m, e)):
        brs = isolate_real_roots(p, (float(lo), float(hi)))
    assert [(br.lo, br.hi, br.sign_lo, br.sign_hi) for br in brs] == want
    # the nudges, the chain at the two ends, then the chain once per split
    # (its first sign is the root test) and one sign per step off a root
    chain = p._sturm_ints
    assert len(calls) == tally["nudge"] + (2 + tally["splits"]) * len(chain) + tally["steps"]


def _reference_gcd(a, b):
    a, b = a[:], b[:]
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, polyroots._primitive(polyroots._pdiv(a, b)[1])
    return polyroots._primitive(a)


def _reference_sturm_chain(p):
    chain = [p, polyroots._deriv(p)]
    while True:
        nxt = [-c for c in polyroots._primitive(polyroots._pdiv(chain[-2], chain[-1])[1])]
        if not nxt:
            return chain
        chain.append(nxt)


def _reference_square_free_and_chain(p):
    """(square-free part, its Sturm chain) as built before the chain of p
    supplied gcd(p, p'): a separate gcd sequence, the exact quotient of p by
    that gcd, then a second remainder sequence on the quotient."""
    ints = polyroots._to_int_poly(p.coeffs)
    q = polyroots._primitive(polyroots._pdiv(ints, _reference_gcd(ints, polyroots._deriv(ints)))[0])
    ps = q if q[-1] * ints[-1] > 0 else [-c for c in q]
    return ps, (_reference_sturm_chain(ps) if len(ps) > 1 else [])


_UNIT = (Fraction(-1), Fraction(1))


@settings(max_examples=150, deadline=None)
@given(_planted())
@example((Fraction(3), {}, [], _UNIT))  # constant
@example((Fraction(-3, 8), {Fraction(1, 2): 1}, [], _UNIT))  # linear
@example((Fraction(1), {Fraction(-1): 1, Fraction(0): 1, Fraction(1): 1},
          [(Fraction(1, 2), Fraction(5, 16))], _UNIT))  # square-free
@example((Fraction(1), {Fraction(1): 1}, [(Fraction(0), Fraction(1))] * 2, _UNIT))  # (x^2+1)^2
def test_one_remainder_sequence_matches_the_separate_gcd_construction(case):
    lead, roots, quads, _ = case
    p = RealPolynomial(tuple(float(c) for c in _expand(lead, roots, quads)))
    assert (p._square_free_ints, p._sturm_ints) == _reference_square_free_and_chain(p)
