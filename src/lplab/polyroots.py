"""Certified real-root isolation and real-rootedness tests.

Sturm sequences are computed in exact rational arithmetic: float
coefficients are dyadic rationals, so converting them through
``fractions.Fraction`` is lossless and every sign count below is a
certificate for the polynomial actually given (not for a nearby one).
Chain elements are renormalized to primitive integer vectors after each
remainder step to keep word sizes small; only positive scalings are used,
so sign variation counts are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm, ulp
from typing import List, Optional, Sequence, Tuple

from .errors import ConditioningError, ParameterError
from .series import _EPS, FamilyKind, SeriesFamily

IntPoly = List[int]  # ascending coefficients, primitive, nonzero leading term


@dataclass(frozen=True)
class RealPolynomial:
    """Real polynomial, ascending coefficients, trailing zeros stripped.

    ``u_scale`` is set on section polynomials: the polynomial lives in the
    normalized variable u and z = u_scale * u maps its roots back to the
    z-plane of the alternating series.
    """

    coeffs: Tuple[float, ...]
    u_scale: Optional[float] = None

    def __post_init__(self):
        cs = [float(c) for c in self.coeffs]
        while cs and cs[-1] == 0.0:
            cs.pop()
        if not cs:
            raise ParameterError("zero polynomial")
        object.__setattr__(self, "coeffs", tuple(cs))

    @cached_property
    def _square_free_ints(self) -> IntPoly:
        """The square-free part as a primitive integer vector, computed once
        for isolation, refinement and counting."""
        return _square_free(_to_int_poly(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class RootBracket:
    """An interval certified to contain exactly one distinct real root.

    The signs are those of the square-free part of the target polynomial
    at the endpoints (identical to the polynomial's own signs when the
    root is simple).
    """

    lo: float
    hi: float
    sign_lo: int
    sign_hi: int


# ---------------------------------------------------------------------------
# exact integer polynomial arithmetic
# ---------------------------------------------------------------------------

def _to_int_poly(coeffs: Sequence[float]) -> IntPoly:
    return _integral([Fraction(float(c)) for c in coeffs])


def _integral(fracs: Sequence[Fraction]) -> IntPoly:
    """The primitive integer vector along ``fracs`` (a positive multiple)."""
    denom_lcm = lcm(*(f.denominator for f in fracs))
    return _primitive([f.numerator * (denom_lcm // f.denominator) for f in fracs])


def _primitive(p: List[int]) -> IntPoly:
    g = 0
    for c in p:
        g = gcd(g, abs(c))
    if g > 1:
        p = [c // g for c in p]
    return p


def _deriv(p: IntPoly) -> IntPoly:
    return _primitive([k * c for k, c in enumerate(p)][1:])


def _eval_fr(p: Sequence[int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _divide(a: Sequence[int], b: IntPoly) -> Tuple[List[Fraction], List[Fraction]]:
    """Quotient and remainder of a / b by long division in rationals."""
    r = [Fraction(c) for c in a]
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    bl = Fraction(b[-1])
    db = len(b) - 1
    while len(r) - 1 >= db and any(r):
        dr = len(r) - 1
        f = r[-1] / bl
        q[dr - db] = f
        for i in range(db + 1):
            r[dr - db + i] -= f * b[i]
        while r and r[-1] == 0:
            r.pop()
    return q, r


def _rem(a: List[int], b: IntPoly) -> IntPoly:
    """Primitive integer remainder of a / b (positive scaling only)."""
    return _integral(_divide(a, b)[1])


def _sturm_chain(p: IntPoly) -> List[IntPoly]:
    chain = [p, _deriv(p)]
    while chain[-1]:
        nxt = [-c for c in _rem(chain[-2], chain[-1])]
        if not nxt:
            break
        if len(nxt) >= len(chain[-1]) + 1:
            raise ConditioningError("Sturm chain degree failed to decrease")
        chain.append(nxt)
    return [c for c in chain if c]


def _square_free(p: IntPoly) -> IntPoly:
    """p divided by gcd(p, p'), primitive, sign of leading term preserved."""
    if len(p) <= 2:
        return p[:]
    g = _gcd_poly(p, _deriv(p))
    if len(g) == 1:
        return p[:]
    q = _integral(_divide(p, g)[0])
    if q[-1] * p[-1] < 0:
        q = [-c for c in q]
    return q


def _gcd_poly(a: IntPoly, b: IntPoly) -> IntPoly:
    a, b = a[:], b[:]
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _rem(a, b)
    return _primitive(a)


def _variations(signs: List[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for x, y in zip(seq, seq[1:]) if x * y < 0)


def _variations_at(chain: List[IntPoly], x: Fraction) -> int:
    return _variations([_sign_fr(_eval_fr(p, x)) for p in chain])


def _sign_fr(v: Fraction) -> int:
    return (v > 0) - (v < 0)


def _count_in(chain: List[IntPoly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi] by Sturm's theorem."""
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def _count_all(chain: List[IntPoly]) -> int:
    """Distinct real roots over (-inf, inf)."""
    at_minus = _variations([_sign_fr(Fraction(p[-1]) * (-1) ** (len(p) - 1)) for p in chain])
    at_plus = _variations([_sign_fr(Fraction(p[-1])) for p in chain])
    return at_minus - at_plus


def _nudge(p: IntPoly, x: float, direction: float) -> Fraction:
    """Move x outward by 16 ulps until it is not a root of p."""
    fx = Fraction(x)
    while _eval_fr(p, fx) == 0:
        x = x + direction * 16.0 * max(abs(x), 1.0) * _EPS
        fx = Fraction(x)
    return fx


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def isolate_real_roots(
    p: RealPolynomial, interval: Tuple[float, float]
) -> List[RootBracket]:
    """Disjoint brackets, one per distinct real root of p in the interval.

    Each bracket carries a Sturm count of exactly 1 on the square-free part
    of p, so multiple roots are located once.  Interval endpoints landing
    exactly on roots are nudged outward by 16-ulp steps.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ParameterError("interval must satisfy lo < hi")
    if p.degree == 0:
        return []
    ps = p._square_free_ints
    if len(ps) <= 1:
        return []
    chain = _sturm_chain(ps)
    flo = _nudge(ps, lo, -1.0)
    fhi = _nudge(ps, hi, +1.0)
    total = _count_in(chain, flo, fhi)
    out: List[RootBracket] = []
    stack = [(flo, fhi, total)]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            sa = _sign_fr(_eval_fr(ps, a))
            sb = _sign_fr(_eval_fr(ps, b))
            out.append(RootBracket(float(a), float(b), sa, sb))
            continue
        mid = (a + b) / 2
        shift = (b - a) / Fraction(2**40)
        while _eval_fr(ps, mid) == 0:
            # midpoint hit a root exactly; step off it
            mid += shift
        cl = _count_in(chain, a, mid)
        stack.append((a, mid, cl))
        stack.append((mid, b, cnt - cl))
    out.sort(key=lambda br: br.lo)
    return out


def refine(p: RealPolynomial, bracket: RootBracket, tol: float) -> float:
    """Bisect a certified bracket down to width <= tol; returns the midpoint.

    Signs are evaluated exactly on the square-free part, so the shrink is
    monotone and never exits the original bracket.  A tol below the float
    spacing at the bracket ends counts as that spacing: a narrower bracket
    has the same float midpoint as one of its ends.
    """
    if not tol > 0:
        raise ParameterError("tol must be positive")
    ps = p._square_free_ints
    lo, hi = Fraction(bracket.lo), Fraction(bracket.hi)
    s_lo = _sign_fr(_eval_fr(ps, lo))
    if s_lo == 0 or s_lo * _sign_fr(_eval_fr(ps, hi)) != -1:
        raise ParameterError("bracket does not straddle a sign change of p")
    while float(hi - lo) > max(tol, min(ulp(float(lo)), ulp(float(hi)))):
        mid = (lo + hi) / 2
        sm = _sign_fr(_eval_fr(ps, mid))
        if sm == 0:
            return float(mid)
        if sm == s_lo:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def is_real_rooted(p: RealPolynomial) -> bool:
    """True iff the number of real roots counted with multiplicity equals
    the degree (square-free reduction handles multiplicity exactly)."""
    ip = _to_int_poly(p.coeffs)
    degree = len(ip) - 1
    if degree <= 0:
        return True
    return _real_count_with_multiplicity(ip) == degree


def _real_count_with_multiplicity(p: IntPoly) -> int:
    if len(p) <= 1:
        return 0
    if len(p) == 2:
        return 1
    ps = _square_free(p)
    distinct = _count_all(_sturm_chain(ps))
    g = _gcd_poly(p, _deriv(p))
    if len(g) == 1:
        return distinct
    return distinct + _real_count_with_multiplicity(g)


def count_real_roots(p: RealPolynomial, interval: Optional[Tuple[float, float]] = None) -> int:
    """Distinct real roots of p, over an interval or the whole line."""
    ps = p._square_free_ints
    if len(ps) <= 1:
        return 0
    chain = _sturm_chain(ps)
    if interval is None:
        return _count_all(chain)
    flo = _nudge(ps, float(interval[0]), -1.0)
    fhi = _nudge(ps, float(interval[1]), +1.0)
    return _count_in(chain, flo, fhi)


def section_polynomial(family: SeriesFamily, n: int) -> RealPolynomial:
    """Degree-n section in the normalized variable u = z * (a_1/a_0).

    Coefficients are the alternating Eq.-style normalized ones,
    1, -1, 1/q_2, -1/(q_2^2 q_3), ...; all magnitudes are <= 1 so nothing
    overflows.  The recorded ``u_scale`` = a_0/a_1 maps roots back to the
    z-plane of the alternating series via z = u_scale * u.
    """
    if n < 1:
        raise ParameterError("section degree must be >= 1")
    if family.kind is FamilyKind.CUSTOM and n >= len(family.custom_log_coeffs):
        raise ParameterError("custom family too short for requested section")
    r1 = family.ratio(1)
    if r1 <= 0:
        raise ParameterError("family must have a nonzero second coefficient")
    coeffs = [1.0, -1.0]
    mag = 1.0
    for k in range(2, n + 1):
        mag *= family.ratio(k) / r1
        coeffs.append(mag if k % 2 == 0 else -mag)
    return RealPolynomial(tuple(coeffs), u_scale=1.0 / r1)
