"""Certified real-root isolation and real-rootedness tests, over the integers.

Float coefficients are dyadic rationals, so a polynomial converts losslessly
to a primitive integer vector, and every point evaluated below (a float
endpoint, a bisection midpoint, a step off an exact root) is a dyadic
m / 2^e.  The sign of p(m / 2^e) is that of the integer 2^(e deg p) p(m / 2^e),
one Horner pass, so every sign count is a certificate for the polynomial
actually given (not for a nearby one).  Sturm chains are primitive
pseudo-remainder sequences: integer pseudo-division, each remainder reduced
to its primitive part.  Only positive scalings are used, so sign variation
counts are unaffected.

Each polynomial builds one remainder sequence, its Sturm chain, which ends
in gcd(p, p').  Only a polynomial with a repeated factor builds a second
one, the chain of its square-free part p / gcd(p, p').  The chain is cached,
and isolation, refinement, counting and the real-rootedness test all read
it.  Isolation carries the chain's variation count and the square-free
part's sign at both ends of every interval, so a split evaluates the chain
at its midpoint only: Sturm's theorem needs nothing but V(lo) - V(hi).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, isfinite, ulp
from typing import List, Optional, Sequence, Tuple

from .errors import FloatRangeError, ParameterError
from .series import _EPS, _TERM_CAP, FamilyKind, SeriesFamily, _normalizing_scale

IntPoly = List[int]  # ascending coefficients, primitive, nonzero leading term


@dataclass(frozen=True)
class RealPolynomial:
    """Real polynomial, ascending finite coefficients, trailing zeros stripped.

    ``u_scale`` is set on section polynomials: the polynomial lives in the
    normalized variable u and z = u_scale * u maps its roots back to the
    z-plane of the alternating series.
    """

    coeffs: Tuple[float, ...]
    u_scale: Optional[float] = None

    def __post_init__(self):
        cs = [float(c) for c in self.coeffs]
        if not all(isfinite(c) for c in cs):
            raise ParameterError(f"non-finite coefficient in {tuple(cs)!r}")
        while cs and cs[-1] == 0.0:
            cs.pop()
        if not cs:
            raise ParameterError("zero polynomial")
        object.__setattr__(self, "coeffs", tuple(cs))

    @cached_property
    def _sturm_ints(self) -> List[IntPoly]:
        """The Sturm chain of the square-free part, built once; empty when p
        is constant.  The chain of p ends in gcd(p, p'): when that is a
        constant p is square-free and its chain is final, otherwise the
        chain of p / gcd(p, p') is built."""
        p = _to_int_poly(self.coeffs)
        if len(p) == 1:
            return []
        chain = _sturm_chain(p)
        return chain if len(chain[-1]) == 1 else _sturm_chain(_exact_quotient(p, chain[-1]))

    @property
    def _square_free_ints(self) -> IntPoly:
        """The square-free part as a primitive integer vector: the first
        element of the chain, or p itself when p is constant."""
        chain = self._sturm_ints
        return chain[0] if chain else _to_int_poly(self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


@dataclass(frozen=True, slots=True)
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
    ratios = [float(c).as_integer_ratio() for c in coeffs]
    den = max(d for _, d in ratios)  # powers of two: the largest is the lcm
    return _primitive([n * (den // d) for n, d in ratios])


def _primitive(p: List[int]) -> IntPoly:
    g = 0
    for c in p:
        g = gcd(g, abs(c))
    if g > 1:
        p = [c // g for c in p]
    return p


def _deriv(p: IntPoly) -> IntPoly:
    return _primitive([k * c for k, c in enumerate(p)][1:])


def _dyadic(x: float) -> Tuple[int, int]:
    """(m, e) with x = m / 2^e exactly."""
    m, d = x.as_integer_ratio()
    return m, d.bit_length() - 1


def _common(lo: Tuple[int, int], hi: Tuple[int, int]) -> Tuple[int, int, int]:
    """(m_lo, m_hi, e): the two dyadics over one denominator 2^e."""
    e = max(lo[1], hi[1])
    return lo[0] << (e - lo[1]), hi[0] << (e - hi[1]), e


def _sign(p: Sequence[int], m: int, e: int) -> int:
    """Sign of p(m / 2^e): Horner on 2^(e deg p) p(m / 2^e), an integer."""
    acc = 0
    shift = 0
    for c in reversed(p):
        acc = acc * m + (c << shift)
        shift += e
    return (acc > 0) - (acc < 0)


def _pdiv(a: Sequence[int], b: IntPoly) -> Tuple[List[int], List[int]]:
    """Integer pseudo-division: |lc(b)|^(deg a - deg b + 1) a = q b + r.

    q and r are positive multiples of the rational quotient and remainder;
    r has its trailing zeros stripped.
    """
    lb, db = b[-1], len(b) - 1
    r = list(a)
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        f = r.pop()
        q = [lb * c for c in q]
        q[i] = f
        r = [lb * c for c in r]
        for j in range(db):
            r[i + j] -= f * b[j]
    if lb < 0 and len(q) % 2:
        q, r = [-c for c in q], [-c for c in r]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _sturm_chain(p: IntPoly) -> List[IntPoly]:
    """Sturm chain of a nonconstant p (each remainder is shorter: it ends)."""
    chain = [p, _deriv(p)]
    while True:
        nxt = [-c for c in _primitive(_pdiv(chain[-2], chain[-1])[1])]
        if not nxt:
            return chain
        chain.append(nxt)


def _exact_quotient(p: IntPoly, g: IntPoly) -> IntPoly:
    """p / g for a divisor g of p, primitive, sign of leading term preserved."""
    q = _primitive(_pdiv(p, g)[0])
    return q if q[-1] * p[-1] > 0 else [-c for c in q]


def _variations(signs: List[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for x, y in zip(seq, seq[1:]) if x * y < 0)


def _at(chain: List[IntPoly], m: int, e: int, s: Optional[int] = None) -> Tuple[int, int]:
    """(variations, sign of chain[0]) at m / 2^e; s is chain[0]'s sign there
    when it is already known."""
    if s is None:
        s = _sign(chain[0], m, e)
    return _variations([s] + [_sign(p, m, e) for p in chain[1:]]), s


def _count_all(chain: List[IntPoly]) -> int:
    """Distinct real roots over (-inf, inf), from the leading coefficients."""
    lead = [(p[-1] > 0) - (p[-1] < 0) for p in chain]
    at_minus = _variations([s if len(p) % 2 else -s for s, p in zip(lead, chain)])
    return at_minus - _variations(lead)


def _nudge(p: IntPoly, x: float, direction: float) -> Tuple[int, int]:
    """Move x outward by 16 ulps until it is not a root of p; (m, e) form."""
    while _sign(p, *_dyadic(x)) == 0:
        x = x + direction * 16.0 * max(abs(x), 1.0) * _EPS
    return _dyadic(x)


def _interval_ends(
    p: RealPolynomial, interval: Tuple[float, float]
) -> Tuple[int, int, int, Tuple[int, int], Tuple[int, int]]:
    """(m_lo, m_hi, e, at_lo, at_hi): the ends, checked finite with lo < hi
    and nudged outward off the roots of p, with the chain's _at at both
    (both (0, 0) for a constant p).  Isolation's first interval; Sturm's
    theorem counts at_lo[0] - at_hi[0] distinct roots in it."""
    lo, hi = float(interval[0]), float(interval[1])
    if not (isfinite(lo) and isfinite(hi)):
        raise ParameterError(f"interval ends must be finite, got {interval!r}")
    if not lo < hi:
        raise ParameterError("interval must satisfy lo < hi")
    chain = p._sturm_ints
    if not chain:
        return 0, 0, 0, (0, 0), (0, 0)
    m_lo, m_hi, e = _common(_nudge(chain[0], lo, -1.0), _nudge(chain[0], hi, +1.0))
    return m_lo, m_hi, e, _at(chain, m_lo, e), _at(chain, m_hi, e)


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
    # intervals (m_lo / 2^e, m_hi / 2^e] with (variations, sign of chain[0])
    # at both ends; a rescaled point keeps its value, so these stay valid
    stack = [_interval_ends(p, interval)]
    chain = p._sturm_ints
    out: List[RootBracket] = []
    while stack:
        m_lo, m_hi, e, at_lo, at_hi = stack.pop()
        cnt = at_lo[0] - at_hi[0]
        if cnt == 0:
            continue
        if cnt == 1:
            scale = 1 << e
            out.append(RootBracket(m_lo / scale, m_hi / scale, at_lo[1], at_hi[1]))
            continue
        m_mid = m_lo + m_hi
        s_mid = _sign(chain[0], m_mid, e + 1)
        if s_mid == 0:
            # midpoint hit a root exactly; step off it by (hi - lo) / 2^40
            step = m_hi - m_lo
            m_mid, m_lo, m_hi, e = m_mid << 39, m_lo << 40, m_hi << 40, e + 40
            while s_mid == 0:
                m_mid += step
                s_mid = _sign(chain[0], m_mid, e)
        else:
            m_lo, m_hi, e = m_lo << 1, m_hi << 1, e + 1
        at_mid = _at(chain, m_mid, e, s_mid)
        stack.append((m_lo, m_mid, e, at_lo, at_mid))
        stack.append((m_mid, m_hi, e, at_mid, at_hi))
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
    m_lo, m_hi, e = _common(_dyadic(float(bracket.lo)), _dyadic(float(bracket.hi)))
    s_lo = _sign(ps, m_lo, e)
    if s_lo == 0 or s_lo * _sign(ps, m_hi, e) != -1:
        raise ParameterError("bracket does not straddle a sign change of p")
    while True:
        scale = 1 << e
        if (m_hi - m_lo) / scale <= max(tol, min(ulp(m_lo / scale), ulp(m_hi / scale))):
            return (m_lo + m_hi) / (scale << 1)
        m_mid, e = m_lo + m_hi, e + 1
        s_mid = _sign(ps, m_mid, e)
        if s_mid == 0:
            return m_mid / (scale << 1)
        if s_mid == s_lo:
            m_lo, m_hi = m_mid, m_hi << 1
        else:
            m_lo, m_hi = m_lo << 1, m_mid


def is_real_rooted(p: RealPolynomial) -> bool:
    """True iff every root of p is real.  p and its square-free part ps have
    the same distinct roots, so this holds iff ps has deg ps distinct real
    roots."""
    return _count_all(p._sturm_ints) == len(p._square_free_ints) - 1


def count_real_roots(p: RealPolynomial, interval: Optional[Tuple[float, float]] = None) -> int:
    """Distinct real roots of p over the whole line, or in [lo, hi]: the
    ends must be finite with lo < hi (``ParameterError`` otherwise, as for
    ``isolate_real_roots``), and an end on a root is nudged outward."""
    if interval is None:
        return _count_all(p._sturm_ints)
    _, _, _, at_lo, at_hi = _interval_ends(p, interval)
    return at_lo[0] - at_hi[0]


def section_polynomial(family: SeriesFamily, n: int) -> RealPolynomial:
    """Degree-n section in the normalized variable u = z * (a_1/a_0).

    Coefficients are the alternating Eq.-style normalized ones,
    1, -1, 1/q_2, -1/(q_2^2 q_3), ...; all magnitudes are <= 1 so nothing
    overflows.  The recorded ``u_scale`` = a_0/a_1 maps roots back to the
    z-plane of the alternating series via z = u_scale * u.  A degree
    outside [1, 10000] or an a_1/a_0 of zero is a ``ParameterError``, an
    a_1/a_0 beyond the float range or a coefficient underflowing to 0 a
    ``FloatRangeError``.
    """
    if n < 1:
        raise ParameterError("section degree must be >= 1")
    if n > _TERM_CAP:
        raise ParameterError(f"section degree must be <= {_TERM_CAP}")
    if family.kind is FamilyKind.CUSTOM and n >= len(family.custom_log_coeffs):
        raise ParameterError("custom family too short for requested section")
    u_scale = _normalizing_scale(family)
    r1 = family.ratio(1)
    coeffs = [1.0, -1.0]
    mag = 1.0
    for k in range(2, n + 1):
        mag *= family.ratio(k) / r1
        if mag == 0.0:
            raise FloatRangeError(f"coefficient u^{k} of the degree-{n} section underflows to 0")
        coeffs.append(mag if k % 2 == 0 else -mag)
    return RealPolynomial(tuple(coeffs), u_scale=u_scale)
