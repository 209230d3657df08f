"""Zero counting in disks via the argument principle.

All zero counting happens on the alternating normalized series

    phi(u) = sum_k (-1)^k u^k / (q_2^{k-1} q_3^{k-2} ... q_k),

the a_0 = a_1 = 1 form of the family, evaluated through the identity
phi(u) = f_alt(p_1 * u) / a_0 with p_1 = a_0/a_1.  Radii passed to
``rho_radius`` and ``count_zeros_in_disk`` live in this u-plane; the map
back to the z-plane of the alternating series is z = p_1 * u.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from .errors import FloatRangeError, ParameterError, RealRootsError, ZeroOnCircleError
from .series import FamilyKind, SeriesFamily, _evaluators, evaluate_many, quotients
from .series import _MAX_POINTS, _TERM_CAP, _first_coefficient, _normalizing_scale
from .series import minimize_on_interval

if TYPE_CHECKING:
    import numpy as np

# numpy is imported by the functions that sample a circle: rho_radius, the
# degree-2 shortcut and s2_root_modulus are scalar

_START_SAMPLES = 256
_MODULUS_SAFETY = 10.0
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True, slots=True)
class WindingResult:
    """Integer zero count in a disk with its numerical certificate.

    ``residual`` is the distance of the raw winding integral from the
    nearest integer, in turns.  It is reported but does not certify:
    wrapped increments around a closed curve sum to whole turns, so it only
    measures rounding.  ``certified`` requires every argument increment
    below pi/2 on a circle whose minimum modulus is safely above the
    evaluation error bound.
    """

    radius: float
    count: int
    residual: float
    min_modulus_seen: float
    samples_used: int
    certified: bool


def phi_eval_many(family: SeriesFamily, us: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized alternating series phi at an array of u-points, with the
    error bound of each value (``evaluate_many`` at rel_tol 1e-12)."""
    import numpy as np

    us = np.asarray(us, dtype=complex)
    if family.n_terms == 1:  # the constant a_0, so phi = 1: no second coefficient to scale by
        vals, bnds = evaluate_many(family, us, 1e-12)
    else:
        alt = family.with_alternating(True)
        vals, bnds = evaluate_many(alt, _normalizing_scale(family) * us, 1e-12)
    a0 = _first_coefficient(family)
    return vals / a0, bnds / a0


def _log_rho(q: Callable[[int], float], j: int) -> float:
    """ln rho_j, term by term: ``sum()`` over floats rounds otherwise from Python 3.12 on."""
    log_rho = 0.0
    for i in range(2, j + 1):
        log_rho += math.log(q(i))
    return log_rho + 0.5 * math.log(q(j + 1))


def rho_radius(family: SeriesFamily, j: int) -> float:
    """The block-domination radius q_2 q_3 ... q_j * sqrt(q_{j+1}).

    Computed in log space; j = 1 uses the empty-product convention
    sqrt(q_2).  Satisfies q_2...q_j < rho_j < q_2...q_j q_{j+1}.  j lies
    in [1, 10000], checked before the product: no series is summed past
    10000 terms, and near a = 1 the product stays finite for billions of j.
    """
    if j < 1:
        raise ParameterError("rho_radius needs j >= 1")
    if j > _TERM_CAP:
        raise ParameterError(f"rho_radius needs j <= {_TERM_CAP}")
    log_rho = _log_rho(quotients(family).q, j)
    if not log_rho <= _LOG_FLOAT_MAX:
        raise FloatRangeError(f"rho_{j} is beyond the float range (ln rho = {log_rho:.6g})")
    return math.exp(log_rho)


def count_zeros_in_disk(
    family: SeriesFamily, r: float, base_samples: int = _START_SAMPLES
) -> WindingResult:
    """Zero count of the normalized series inside |u| < r by winding number.

    Trapezoidal accumulation of argument increments on base_samples points
    (within [4, 2^20]), doubling the count until every increment is below
    pi/2; that rule alone certifies the count, and the reported
    ``residual`` does not.  Once doubling would pass 2^20 samples the count
    is returned uncertified.  A circle passing too close to a zero moves on
    to r*(1 +- k*1e-6), k = 1, 2; when every radius is too close,
    ``ZeroOnCircleError`` is raised.  A z-plane radius p_1*r beyond the
    float range raises ``FloatRangeError`` before any circle is sampled.
    """
    if not r > 0:
        raise ParameterError("radius must be positive")
    if not 4 <= base_samples <= _MAX_POINTS:
        raise ParameterError(f"base_samples must lie in [4, {_MAX_POINTS}]")
    if family.n_terms != 1:  # one coefficient is its own normalized form
        # the z-plane radius of the widest circle tried below
        zr = _normalizing_scale(family) * (r * (1.0 + 2e-6))
        if not zr < math.inf:
            raise FloatRangeError(f"z-plane radius p_1*r of |u| = {r!r} is beyond the float range")
    import numpy as np

    for bump in (0.0, 1e-6, -1e-6, 2e-6, -2e-6):
        rr = r * (1.0 + bump)
        n = int(base_samples)
        while True:
            theta = np.linspace(0.0, 2.0 * math.pi, n + 1)
            vals, bnds = phi_eval_many(family, rr * np.exp(1j * theta))
            min_mod = float(np.min(np.abs(vals)))
            if min_mod <= _MODULUS_SAFETY * float(np.max(bnds)):
                break  # too close to a zero: the next radius
            darg = np.diff(np.angle(vals))
            darg = (darg + math.pi) % (2.0 * math.pi) - math.pi
            raw = float(np.sum(darg)) / (2.0 * math.pi)
            count = int(round(raw))
            certified = float(np.max(np.abs(darg))) < 0.5 * math.pi
            if certified or 2 * n > _MAX_POINTS:
                return WindingResult(rr, count, abs(raw - count), min_mod, n, certified)
            n *= 2
    raise ZeroOnCircleError(
        f"circle |u| = {r!r} passes within 10x evaluation error of a zero "
        "after 5 radius perturbations"
    )


def grid_min_modulus(
    family: SeriesFamily,
    n_section: Optional[int],
    r: float,
    grid: int = 512,
) -> float:
    """Numeric minimum of |f| (or |S_n|) on |z| = r: grid scan plus
    golden-section refinement in the best cell.  Works in the family's own
    z-plane.

    The interval minimizer on theta in (-2 pi/grid, 2 pi) scans the
    periodic grid theta_i = 2 pi i/grid, i < grid, and the cells of its
    first and last points reach across theta = 0 resp. 2 pi.  ``grid``
    lies in [64, 2^20]; the minimizer refuses a larger one."""
    if not r > 0:
        raise ParameterError("radius must be positive")
    if grid < 64:
        raise ParameterError("grid must be >= 64")
    one, many = _evaluators(family, n_section)

    def f(th: float) -> Tuple[float, float]:
        return abs(one(r * complex(math.cos(th), math.sin(th)))[0]), 0.0

    def f_many(thetas: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.abs(many(r * np.exp(1j * thetas)))

    return minimize_on_interval(f, f_many, -2.0 * math.pi / grid, 2.0 * math.pi, grid)[0]


def min_modulus_on_circle(
    family: SeriesFamily,
    n_section: Optional[int],
    r: float,
    grid: int = 512,
) -> float:
    """Minimum of |f| on |z| = r, with the analytic shortcut for the
    degree-2 section.

    When n_section == 2, r equals p_2 (so both section terms carry the same
    factor q_2 on the circle) and q_2 lies in [3, 4), the squared modulus is
    the parabola 4 q_2 t^2 - 2 q_2 (1+q_2) t + 1 - 2 q_2 + 2 q_2^2 in
    t = cos(theta) with vertex at t = (1+q_2)/4 >= 1, so the minimum is
    attained at t = 1 and equals exactly 1.
    """
    if n_section == 2 and family.kind is not FamilyKind.CUSTOM:
        qv = quotients(family)
        q2 = qv.q(2)
        p2 = qv.p(2)
        if 3.0 <= q2 < 4.0 and abs(r - p2) <= 1e-9 * max(1.0, p2):
            return 1.0
    return grid_min_modulus(family, n_section, r, grid)


def s2_root_modulus(a: float) -> float:
    """Common modulus sqrt((a+1)(a^2+1)) of the conjugate zero pair of the
    degree-2 section, valid while its discriminant is negative."""
    disc = (a * a + 1.0) * (a * a - 4.0 * a - 3.0)
    if disc >= 0.0:
        raise RealRootsError(
            f"discriminant {disc:.6g} >= 0 at a={a!r}: the degree-2 section "
            "has real roots and the conjugate-pair formula does not apply"
        )
    m = math.sqrt((a + 1.0) * (a * a + 1.0))
    assert m < a * a + 1.0
    return m
