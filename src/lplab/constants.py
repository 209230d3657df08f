"""Root-finding drivers for the critical constants.

Every constant here is the transition point of the monotone predicate
"a sign test's margin is <= 0", or the root of a threshold polynomial.
The driver first checks for a single transition on a coarse probe grid,
then narrows the flip cell by ITP root-finding on the continuous margin;
the result is a ``Bracket`` whose endpoints carry the recorded predicate
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from .criteria import (
    CUBIC_THRESHOLD_COEFFS,
    SIX_TERM_EXPANSION_COEFFS,
    SIX_TERM_REFERENCE_COEFFS,
    Verdict,
    sign_test_euler,
    sign_test_theta,
)
from .errors import BracketError, MonotonicityError, ParameterError
from .polyroots import RealPolynomial, isolate_real_roots, refine
from .series import _MAX_POINTS, _linspace

_PROBE_POINTS = 12
# ITP's truncation constants (Oliveira & Takahashi, ACM TOMS 47, 2021):
# kappa_1 = _ITP_K1 / (cell width), kappa_2 = 2, and n0 = _ITP_SLACK steps
# beyond bisection's count.
_ITP_K1 = 0.2
_ITP_SLACK = 1


@dataclass(frozen=True)
class Bracket:
    """An enclosure [lo, hi] of a predicate's transition point.

    ``pred_lo`` and ``pred_hi`` are the predicate values evaluated at the
    two ends, and ``evaluations`` counts every predicate evaluation made,
    probe scan included."""

    lo: float
    hi: float
    predicate: str
    evaluations: int
    pred_lo: bool
    pred_hi: bool
    note: str = ""

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


def bisect_predicate(
    margin: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    name: str,
) -> Bracket:
    """Enclose the transition of the monotone predicate ``margin(x) <= 0``.

    A ``_PROBE_POINTS``-point scan finds the one probe cell where the
    predicate flips; a tol at least that cell's width returns the cell.
    ITP root-finding on the continuous margin then narrows the cell to
    tol/8, in at most one step more than bisection would take.  The ends
    returned are two fresh evaluations at m -/+ 0.4 tol (clamped to the
    cell) around the midpoint m of the ITP bracket, so each lies about
    tol/3 from the crossing, clear of the roundoff zone where the margin's
    sign is in doubt.  An ITP point where the margin is exactly zero, with
    the margin nonzero at the bracket end on its side, closes the bracket
    there (m is that point) once the end beyond it shows the flip; a zero
    margin at that bracket end marks a margin flat at zero, which ITP
    narrows as usual.  ``evaluations`` counts every margin call.

    Raises ``BracketError`` when the predicate does not change across
    [lo, hi], and ``MonotonicityError`` (with the scan attached) when it
    changes more than once on the probe grid or an end lands on the wrong
    side of the crossing.
    """
    if not lo < hi:
        raise ParameterError("need lo < hi")
    if not tol > 0:
        raise ParameterError("tol must be positive")
    if tol < 16.0 * math.ulp(max(abs(lo), abs(hi))):
        raise ParameterError("tol below the float resolution of [lo, hi]")
    xs = _linspace(lo, hi, _PROBE_POINTS)
    ys = [margin(x) for x in xs]
    scan = [(x, bool(y <= 0.0)) for x, y in zip(xs, ys)]
    evals = len(scan)
    flips = [i for i in range(len(scan) - 1) if scan[i][1] != scan[i + 1][1]]
    if not flips:
        raise BracketError(
            f"{name}: predicate is constant ({scan[0][1]}) across "
            f"[{lo!r}, {hi!r}] on a {_PROBE_POINTS}-point probe"
        )
    if len(flips) > 1:
        raise MonotonicityError(
            f"{name}: predicate changed {len(flips)} times on the probe grid",
            scan=scan,
        )
    i = flips[0]
    a, b, ya, yb = xs[i], xs[i + 1], ys[i], ys[i + 1]
    pa, pb = scan[i][1], scan[i + 1][1]
    if b - a <= tol:
        return Bracket(a, b, name, evals, pa, pb)
    # ITP with half-width target eps: interpolate (regula falsi), truncate
    # towards the midpoint, project into bisection's worst-case reach
    eps = tol / 16.0
    n_max = math.ceil(math.log2((b - a) / (2.0 * eps))) + _ITP_SLACK
    k1 = _ITP_K1 / (b - a)
    closed = None  # the far end of an exact zero the bracket closed on
    for j in range(n_max):
        if b - a <= 2.0 * eps:
            break
        mid = 0.5 * (a + b)
        x_f = (yb * a - ya * b) / (yb - ya)
        if not a < x_f < b:  # a nan margin or a rounded-away quotient
            x_f = mid
        sigma = math.copysign(1.0, mid - x_f)
        delta = k1 * (b - a) ** 2
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        r = eps * 2.0 ** (n_max - j) - 0.5 * (b - a)
        x = x_t if abs(x_t - mid) <= r else mid - sigma * r
        y = margin(x)
        evals += 1
        if y == 0.0 and (ya if pa else yb) != 0.0:
            # an exact zero, and the margin is not flat at zero on its side
            # of the bracket: x is the crossing if the margin is positive at
            # the end 0.4 tol beyond it; otherwise that end is the new near end
            far = min(x + 0.4 * tol, xs[i + 1]) if pa else max(x - 0.4 * tol, xs[i])
            y_far = margin(far)
            evals += 1
            if y_far > 0.0:
                a, b, closed = x, x, far
                break
            x, y = far, y_far
        if (y <= 0.0) == pa:
            a, ya = x, y
        else:
            b, yb = x, y
    m, d = 0.5 * (a + b), 0.4 * tol
    ends = (max(m - d, xs[i]), min(m + d, xs[i + 1]))
    for x, want, side in zip(ends, (pa, pb), ("lower", "upper")):
        if x == closed:
            continue  # evaluated, on its side, when the bracket closed
        evals += 1
        if (margin(x) <= 0.0) != want:
            raise MonotonicityError(
                f"{name}: the predicate at {x!r} is not {want}, as at the "
                f"{side} end of its probe cell",
                scan=scan,
            )
    return Bracket(ends[0], ends[1], name, evals, pa, pb)


# ---------------------------------------------------------------------------
# theta-side constants
# ---------------------------------------------------------------------------

# The sign-test interval is open; some sections vanish identically at the
# excluded endpoint x = a^3 (the degree-3 one does), so a refined minimum
# within roundoff of zero is not an interior witness.  The predicate asks
# for a value below this floor instead of below exactly zero.  Where the
# margin crosses zero with a nonzero slope that shifts a constant by
# O(1e-11); c_3's margin leaves zero like -0.39 (s - 3)^(3/2), so the floor
# moves c_n(3) up by (1e-12 / 0.39)^(2/3), about 1.9e-8, and its brackets
# at tol below that exclude the exact c_3 = 3.
_WITNESS_FLOOR = 1e-12


def _theta_bracket(
    n: Optional[int], lo: float, hi: float, tol: float, grid: int, name: str
) -> Bracket:
    """Locate s = a^2 in [lo, hi] where the theta sign test (degree-n
    section when n is given) at a = sqrt(s) starts to have a minimum at or
    below -_WITNESS_FLOOR: the driver's margin is the minimum plus the
    floor."""
    if tol < 1e-10:
        raise ParameterError("tol below achievable resolution (min 1e-10)")
    return bisect_predicate(
        lambda s: sign_test_theta(math.sqrt(s), n, grid).margin + _WITNESS_FLOOR,
        lo, hi, tol, name,
    )


def q_infinity(tol: float = 1e-6, grid: int = 512) -> Bracket:
    """Enclose the critical squared parameter of the partial theta function
    (approximately 3.2336367) by root-finding on s = a^2 over [3, 4]."""
    return _theta_bracket(None, 3.0, 4.0, tol, grid, "q_infinity")


def c_n(n: int, tol: float = 1e-6, grid: int = 512) -> Bracket:
    """Enclose the critical squared parameter for the degree-n theta
    section, by root-finding on s = a^2 over [2.5, 4.5].  Both parities
    converge to the full-series constant.  The exact values are c_2 = 4 and
    c_3 = 3, but the witness floor biases c_n(3) by about +1.9e-8 (see
    ``_WITNESS_FLOOR``), so its brackets at tol below that miss 3."""
    if n < 2:
        raise ParameterError("c_n needs n >= 2")
    return _theta_bracket(n, 2.5, 4.5, tol, grid, f"c_{n}")


# ---------------------------------------------------------------------------
# the Euler-family critical parameter
# ---------------------------------------------------------------------------

_EXPECTED_WINDOW = (3.90145, 3.91729)


def critical_a(
    tol: float = 1e-6,
    a_lo: float = 3.9,
    a_hi: float = 3.92,
    grid: int = 512,
) -> Bracket:
    """NON-RIGOROUS ESTIMATE of the Euler-family critical parameter by
    root-finding on the interval-minimum sign test (predicate: minimum
    <= 0).

    The default search window [3.9, 3.92] brackets the historically quoted
    range; direct evaluation puts the sign change near 3.96423, outside
    that window, in which case this raises ``BracketError`` (widen
    ``a_hi`` to locate the transition).  Brackets found outside the quoted
    window are flagged in ``note`` rather than rejected.
    """
    if tol < 1e-8:
        raise ParameterError("tol below achievable resolution (min 1e-8)")
    br = bisect_predicate(
        lambda a: sign_test_euler(a, grid).margin,
        a_lo,
        a_hi,
        tol,
        "critical_a",
    )
    note = "non-rigorous estimate"
    if not (_EXPECTED_WINDOW[0] <= br.lo and br.hi <= _EXPECTED_WINDOW[1]):
        note += (
            "; bracket lies outside the quoted reference window "
            f"[{_EXPECTED_WINDOW[0]}, {_EXPECTED_WINDOW[1]}]"
        )
    return replace(br, note=note)


# ---------------------------------------------------------------------------
# threshold polynomial table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdEntry:
    name: str
    computed_root: float
    reference: Optional[float]
    deviation: Optional[float]
    coeffs: Tuple[float, ...] = field(repr=False)


# (name, ascending coefficients, isolation interval, quoted reference value)
_THRESHOLD_POLYS: List[Tuple[str, Tuple[float, ...], Tuple[float, float], Optional[float]]] = [
    # a^7 - 3a^6 - a^4 - a^3 - 3a^2 - 1: tail bound < circle minimum
    ("rouche_gap_septic", (-1, 0, -3, -1, -1, 0, -3, 1), (1.0, 10.0), 3.16258),
    # b^11 - 2b^10 + 2b^7 - b^4 + 2b^3 - 2b^2 - 2 in b = sqrt(a):
    # limiting block-domination inequality
    ("limiting_gap_poly", (-2, 0, -2, 2, -1, 0, 0, 2, 0, 0, -2, 1), (1.0, 2.0), 1.47),
    # t^5 - 2t^4 + 1.8t - 2/9 in t = sqrt(q): sign-alternation reduction
    ("alternation_quintic", (-2.0 / 9.0, 1.8, 0.0, 0.0, -2.0, 1.0), (0.5, 2.0), 1.57685),
    ("cubic_section_octic", tuple(float(c) for c in CUBIC_THRESHOLD_COEFFS), (3.0, 5.0), 3.90155),
    (
        "six_term_reference_deg20",
        tuple(float(c) for c in SIX_TERM_REFERENCE_COEFFS),
        (3.0, 6.0),
        3.91719,
    ),
    (
        "six_term_exact_deg20",
        tuple(float(c) for c in SIX_TERM_EXPANSION_COEFFS),
        (3.0, 6.0),
        None,
    ),
]


def threshold_table(tol: float = 1e-10) -> List[ThresholdEntry]:
    """Recompute every explicit threshold constant from its defining
    polynomial (largest real root on the stated interval) and report it
    next to the quoted reference value.

    The final row re-expands the six-term certificate polynomial exactly;
    its root is the one the certificate actually obeys.
    """
    out: List[ThresholdEntry] = []
    for name, coeffs, interval, reference in _THRESHOLD_POLYS:
        poly = RealPolynomial(coeffs)
        brackets = isolate_real_roots(poly, interval)
        if not brackets:
            raise BracketError(f"{name}: no real root in {interval}")
        root = refine(poly, brackets[-1], tol)
        deviation = abs(root - reference) if reference is not None else None
        out.append(ThresholdEntry(name, root, reference, deviation, coeffs))
    return out


# ---------------------------------------------------------------------------
# observational scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ScanPoint:
    a: float
    min_value: float
    verdict: str


@dataclass(frozen=True)
class ScanResult:
    points: List[ScanPoint]
    single_transition: bool
    transition_interval: Optional[Tuple[float, float]]


def transition_scan(a_lo: float, a_hi: float, steps: int, grid: int = 512) -> ScanResult:
    """Tabulate the sign-test minimum across a parameter grid and report
    whether the verdict sequence makes a single NotInLP -> InLP transition.
    Purely observational: a non-monotone sequence is reported, not raised.
    Needs 1 < a_lo < a_hi and steps in [10, 2^20], checked before the
    grid is built.
    """
    if not a_lo > 1:
        raise ParameterError("a_lo must be > 1")
    if not a_lo < a_hi:
        raise ParameterError("need a_lo < a_hi")
    if not 10 <= steps <= _MAX_POINTS:
        raise ParameterError(f"steps must lie in [10, {_MAX_POINTS}]")
    points: List[ScanPoint] = []
    for a in _linspace(a_lo, a_hi, steps):
        rep = sign_test_euler(a, grid)
        points.append(ScanPoint(a, rep.margin, rep.verdict.value))
    decisive = [p for p in points if p.verdict != Verdict.BOUNDARY.value]
    flips = [
        (decisive[i], decisive[i + 1])
        for i in range(len(decisive) - 1)
        if decisive[i].verdict != decisive[i + 1].verdict
    ]
    single = len(flips) <= 1
    interval = (flips[0][0].a, flips[0][1].a) if len(flips) == 1 else None
    return ScanResult(points, single, interval)
