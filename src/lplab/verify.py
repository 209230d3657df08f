"""Executable inequality suites over parameter grids.

Each suite re-evaluates one family of inequalities used by the analysis:
circle minima, tail-vs-minimum domination gaps, the block inequalities
behind the disk counts, sign alternation at the block radii, positivity on
[0, a+1], and the cubic-minimum algebra.  Quantities with both a closed
form and a direct series route are computed both ways; margins are the
certified slack of each inequality, and out-of-hypothesis grid points are
recorded as inapplicable rather than failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from .errors import FloatRangeError, ParameterError
from .series import FamilyKind, SeriesFamily, _normalizing_scale, evaluate_many, quotients
from .series import scaled_real_value, section_sum, tail_bound
from .zerocount import _log_rho, grid_min_modulus, rho_radius

# numpy is imported where an array is built (the positivity grids, the cubic
# suite's draws, the circle suite's scan): tail, block and alternation run without it

_GRID_DENSITY = 2048
_SEPTIC_ROOT_CEIL = 3.16259  # tail-vs-minimum gap opens above the septic root
_BLOCK_J = range(4, 13)  # block inequalities at j = 4..12
_ALTERNATION_K = range(2, 21)  # sign alternation at rho_2 .. rho_20
_SECTIONS = range(2, 9)  # positivity of the sections of degree 2..8
_CUBIC_SAMPLES = 64


@dataclass
class CheckResult:
    """Outcome of one check suite over its grid."""

    name: str
    grid_points: int
    failures: List[Dict] = field(default_factory=list)
    inapplicable: List[Dict] = field(default_factory=list)
    worst_margin: float = math.inf

    def record(self, margin: float, strict: bool = False, **params) -> None:
        """A margin below 0 fails, and so does 0 itself for a ``strict``
        inequality; a nan margin certifies nothing: it fails."""
        self.worst_margin = min(self.worst_margin, margin)
        if not (margin > 0.0 if strict else margin >= 0.0):
            self.failures.append({"margin": margin, **params})

    @property
    def passed(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# circle minimum of the degree-2 section
# ---------------------------------------------------------------------------

def check_circle_minimum(a_grid: Sequence[float]) -> CheckResult:
    """On |z| = a^2+1 the degree-2 section modulus has minimum exactly 1
    while q_2 is in [3, 4): numeric minimum vs 1 within 1e-8, negative
    parabola discriminant, and vertex location >= 1."""
    res = CheckResult("circle_minimum", len(a_grid))
    for a in a_grid:
        if not a > 1.0:
            res.inapplicable.append({"a": a})
            continue
        fam = SeriesFamily(FamilyKind.EULER_F, a, alternating=True)
        q2 = quotients(fam).q(2)
        if not 3.0 <= q2 < 4.0:
            res.inapplicable.append({"a": a, "q2": q2})
            continue
        numeric = grid_min_modulus(fam, 2, a * a + 1.0)
        res.record(1e-8 - abs(numeric - 1.0), a=a, kind="numeric_min", value=numeric)
        disc = q2 * (q2 - 1.0) ** 2 * (q2 - 4.0)
        res.record(-disc, a=a, kind="discriminant", value=disc)
        vertex = (1.0 + q2) / 4.0
        res.record(vertex - 1.0, a=a, kind="vertex", value=vertex)
    return res


# ---------------------------------------------------------------------------
# tail bound vs circle minimum
# ---------------------------------------------------------------------------

def check_tail_gap(a_grid: Sequence[float]) -> CheckResult:
    """The degree->=3 tail bound on |z| = a^2+1 stays strictly below the
    circle minimum 1 once a clears the septic-root threshold."""
    res = CheckResult("tail_gap", len(a_grid))
    for a in a_grid:
        if a <= _SEPTIC_ROOT_CEIL:
            res.inapplicable.append({"a": a})
            continue
        bound = tail_bound(SeriesFamily(FamilyKind.EULER_F, a), 3, a * a + 1.0)
        res.record(1.0 - bound, strict=True, a=a, kind="tail_bound", value=bound)
    return res


# ---------------------------------------------------------------------------
# block inequalities behind the disk counts
# ---------------------------------------------------------------------------

def _block_terms(q: Callable[[int], float], j: int) -> Tuple[float, ...]:
    """(lhs, rhs, parabola vertex, parabola at t = 1, low-ratio margin,
    high-ratio margin) of the block-domination inequality at index j: lhs
    is the scaled minimum of the five-term central block on the block
    radius, rhs the low- and high-index sums (geometric majorants) plus the
    block-completion term."""
    sq = math.sqrt(q(j + 1))
    block = q(j - 1) * q(j) * sq
    at_one = 2.0 - 2.0 * q(j) * sq + q(j) * q(j + 1)
    low_margin = 1.0 - 1.0 / (q(j - 2) * q(j - 1) * q(j) * sq)
    high_margin = 1.0 - 1.0 / (sq * q(j + 2) * q(j + 3) * q(j + 4))
    high = q(j - 1) * q(j) ** 2 / (q(j + 2) ** 2 * q(j + 3)) / high_margin
    rhs = 1.0 / low_margin + high + block * (1.0 - q(j) / q(j + 2))
    return block * at_one, rhs, q(j) * sq / 4.0, at_one, low_margin, high_margin


def limiting_gap_margin(a: float) -> float:
    """lhs - rhs of the constant-quotient limit of the block inequality;
    positive from roughly a > 2.17 (the gap polynomial root in sqrt(a) is
    about 1.4656)."""
    sq = math.sqrt(a)
    lhs = a * a * sq * (2.0 - 2.0 * a * sq + a * a)
    rhs = 2.0 / (1.0 - 1.0 / (a**3 * sq))
    return lhs - rhs


def check_block_inequalities(a_grid: Sequence[float]) -> CheckResult:
    """At each a > 3.56 of the grid and each j = 4..12: strict block
    domination, the parabola positivity on t in [-1, 1], finite geometric
    majorants; and at each a the limiting form.  A grid point whose
    inequalities leave the float range raises ``FloatRangeError``."""
    if not all(a > 3.56 for a in a_grid):
        raise ParameterError("block inequalities assume a > 3.56")
    res = CheckResult("block_inequalities", len(a_grid) * len(_BLOCK_J))
    try:
        for a in a_grid:
            q = quotients(SeriesFamily(FamilyKind.EULER_F, a)).q
            for j in _BLOCK_J:
                lhs, rhs, vertex, at_one, low_margin, high_margin = _block_terms(q, j)
                res.record(lhs - rhs, strict=True, a=a, j=j, kind="block_domination", lhs=lhs,
                           rhs=rhs)
                # parabola 4t^2 - 2 q_j sqrt(q_{j+1}) t + (q_j q_{j+1} - 2) on
                # [-1, 1]: vertex beyond t = 1, so the minimum sits at t = 1
                res.record(vertex - 1.0, a=a, j=j, kind="parabola_vertex", value=vertex)
                res.record(at_one, a=a, j=j, kind="parabola_min", value=at_one)
                # geometric majorants must contract: a ratio of 1 sums to infinity
                res.record(low_margin, strict=True, a=a, j=j, kind="low_ratio")
                res.record(high_margin, strict=True, a=a, j=j, kind="high_ratio")
            res.record(limiting_gap_margin(a), a=a, kind="limiting_form")
    except OverflowError:
        raise FloatRangeError(f"block inequalities overflow at a={a!r}") from None
    return res


# ---------------------------------------------------------------------------
# sign alternation at the block radii
# ---------------------------------------------------------------------------

def alternation_closed_margin(a: float, k: int) -> float:
    """The closed-form reduction nu_k of the seven-term block value at the
    k-th block radius; nonnegative for a >= 3, k >= 4."""
    if k < 4:
        raise ParameterError("closed-form reduction needs k >= 4")
    q = quotients(SeriesFamily(FamilyKind.EULER_F, a)).q
    sq = math.sqrt(q(k + 1))
    return (
        -1.0
        + q(k - 1) * q(k) * sq
        - 2.0 * q(k - 1) * q(k) ** 2 * q(k + 1)
        + q(k - 1) * q(k) ** 2 * q(k + 1) * sq
        + q(k - 1) * q(k) ** 2 * sq / q(k + 2)
        - q(k - 1) * q(k) ** 2 / (q(k + 2) ** 2 * q(k + 3))
    )


def alternation_block_margin(a: float, k: int) -> float:
    """The same seven-term block summed directly in log space (terms
    j = k-3 .. k+3 scaled by the first one); equals the closed form."""
    if k < 4:
        raise ParameterError("block sum needs k >= 4")
    q = quotients(SeriesFamily(FamilyKind.EULER_F, a)).q
    log_rho = _log_rho(q, k)

    def log_term(j: int) -> float:
        s = 0.0
        for i in range(2, j + 1):
            s += (j - i + 1) * math.log(q(i))
        return j * log_rho - s

    base = log_term(k - 3)
    total = 0.0
    for j in range(k - 3, k + 4):
        total += (-1.0) ** (j + k) * math.exp(log_term(j) - base)
    return total


def check_sign_alternation(a_grid: Sequence[float]) -> CheckResult:
    """(-1)^k * (normalized series at the k-th block radius) >= 0 for
    a >= 3, k = 2..20, plus the closed-form and seven-term reductions
    for k >= 4 (the window clips below that)."""
    res = CheckResult("sign_alternation", len(a_grid) * len(_ALTERNATION_K))
    for a in a_grid:
        if a < 3.0:
            res.inapplicable.append({"a": a})
            continue
        fam = SeriesFamily(FamilyKind.EULER_F, a, alternating=True)
        p1 = _normalizing_scale(fam)
        # every block radius in the z variable, range-checked before any sum
        radii = {k: p1 * rho_radius(fam, k) for k in _ALTERNATION_K}
        for k, x in radii.items():
            if not x < math.inf:
                raise FloatRangeError(
                    f"block radius p_1 * rho_{k} is beyond the float range at a={a!r}"
                )
        for k, x in radii.items():
            mantissa, _, err = scaled_real_value(fam, x)
            signed = (-1.0) ** k * mantissa
            res.record(signed + err, a=a, k=k, kind="series_sign", value=signed)
            if k >= 4:
                nu = alternation_closed_margin(a, k)
                mu = alternation_block_margin(a, k)
                res.record(nu, a=a, k=k, kind="closed_reduction", value=nu)
                res.record(mu, a=a, k=k, kind="block_sum", value=mu)
                agree = 1e-9 - abs(nu - mu) / max(1.0, abs(nu))
                res.record(agree, a=a, k=k, kind="two_route_agreement")
    return res


# ---------------------------------------------------------------------------
# positivity on [0, a+1]
# ---------------------------------------------------------------------------

def _record_positivity(res: CheckResult, xs, vals, bnds, **params) -> None:
    """Record min(value - bound) over the grid, the certified margin of
    value > 0.  Where no point is certified negative (value + bound < 0)
    but some value lies within its bound, the grid is undecided and is
    listed as inapplicable instead, with the point of least margin."""
    lower = vals - bnds
    i = int(lower.argmin())
    if not lower[i] >= 0.0 and float((vals + bnds).min()) >= 0.0:
        res.inapplicable.append({
            **params, "x": float(xs[i]),
            "reason": f"value {vals[i]:.3g} lies within its evaluation bound {bnds[i]:.3g}",
        })
    else:
        res.record(float(lower[i]), value=float(lower[i]), **params)


def check_positivity_interval(a_grid: Sequence[float]) -> CheckResult:
    """The alternating series and its sections of degree 2..8 stay
    positive on [0, a+1]; at the right endpoint the term chain 1 >= x/(a+1)
    > x^2/((a+1)(a^2+1)) > ... is checked termwise.  A value within its
    evaluation bound decides nothing: its grid is listed as inapplicable."""
    import numpy as np

    res = CheckResult("positivity_interval", len(a_grid) * _GRID_DENSITY)
    for a in a_grid:
        if not a > 1.0:
            res.inapplicable.append({"a": a})
            continue
        fam = SeriesFamily(FamilyKind.EULER_F, a, alternating=True)
        xs = np.linspace(0.0, a + 1.0, _GRID_DENSITY)
        vals, bnds = evaluate_many(fam, xs, 1e-13)
        _record_positivity(res, xs, vals, bnds, a=a, kind="series_positivity")
        for n in _SECTIONS:
            acc, roundoff = section_sum(fam, n, xs)
            _record_positivity(res, xs, acc, roundoff, a=a, n=n, kind="section_positivity")
        # termwise chain at x = a + 1
        x = a + 1.0
        t_prev = x * fam.ratio(1)
        res.record(1.0 - t_prev + 1e-15, a=a, kind="chain_first_term", value=t_prev)
        for k in range(2, 9):
            t_next = t_prev * x * fam.ratio(k)
            res.record(t_prev - t_next, a=a, k=k, kind="chain_decrease")
            t_prev = t_next
    return res


# ---------------------------------------------------------------------------
# cubic-minimum algebra
# ---------------------------------------------------------------------------

def cubic_profile(y: float, b: float, c: float) -> float:
    """K(y) = 1 - y + y^2/b - y^3/(b^2 c), the normalized cubic section at
    y = z/(a+1) with b = q_2 and c = q_3."""
    return 1.0 - y + y * y / b - y**3 / (b * b * c)


def cubic_critical_points(b: float, c: float) -> Tuple[float, float]:
    """Roots (y1, y2) of K'(y); requires c > 3 for a positive discriminant.
    y1 is the interior local minimum, y1 in (1, b) and y2 > b for the
    parameter range of interest."""
    if not c > 3.0:
        raise ParameterError("critical points need c > 3")
    root = b * math.sqrt(c * (c - 3.0))
    return (b * c - root) / 3.0, (b * c + root) / 3.0


def cubic_reduced_margin(b: float, c: float) -> float:
    """b^2 c^2 - 4 b^2 c + 18 b c - 4 b c^2 - 27; this is >= 0 exactly when
    K(y1) <= 0 (given the auxiliary inequality below holds)."""
    return b * b * c * c - 4.0 * b * b * c + 18.0 * b * c - 4.0 * b * c * c - 27.0


def cubic_aux_margin(b: float, c: float) -> float:
    """27 - 9 b c + 2 b c^2, nonnegative throughout the working range; its
    sign legitimizes squaring in the reduction to ``cubic_reduced_margin``."""
    return 27.0 - 9.0 * b * c + 2.0 * b * c * c


def check_cubic_min_algebra(seed: int = 0) -> CheckResult:
    """For 64 parameters in (3.6, 4.6) drawn from ``seed``: the reduced
    quartic inequality tracks the sign of the cubic minimum, the auxiliary
    inequality holds, and the critical points are where the reduction needs them."""
    import numpy as np

    rng = np.random.default_rng(seed)
    res = CheckResult("cubic_min_algebra", _CUBIC_SAMPLES)
    for _ in range(_CUBIC_SAMPLES):
        a = float(rng.uniform(3.6, 4.6))
        q = quotients(SeriesFamily(FamilyKind.EULER_F, a)).q
        b, c = q(2), q(3)
        y1, y2 = cubic_critical_points(b, c)
        res.record(y1 - 1.0, a=a, kind="y1_above_1", value=y1)
        res.record(b - y1, a=a, kind="y1_below_b", value=y1)
        res.record(y2 - b, a=a, kind="y2_above_b", value=y2)
        res.record(cubic_aux_margin(b, c), a=a, kind="aux_inequality")
        k_min = cubic_profile(y1, b, c)
        red = cubic_reduced_margin(b, c)
        if max(abs(k_min), abs(red)) > 1e-6:
            opposite = (k_min <= 0.0) == (red >= 0.0)
            res.record(1.0 if opposite else -1.0, a=a, kind="sign_agreement",
                       k_min=k_min, reduced=red)
    return res
