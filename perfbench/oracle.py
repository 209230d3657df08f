"""Reference answers computed apart from lplab.

Nothing in this module imports lplab.  Series values, interval minima and
circle minima come from mpmath at high precision; real-root counts come
from sympy over the rationals; zero moduli come from mpmath.polyroots on a
high-degree section.  The slow answers (zero moduli and the transition
constants) are stored in ``refdata.json`` beside this file; regenerate
them with

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import mpmath as mp
import numpy as np

from refs import REFDATA_PATH, ZERO_POOL, ratio

DPS = 30


# ---------------------------------------------------------------------------
# alternating series sum_k (-1)^k a_k x^k, in mpmath and in float64
# ---------------------------------------------------------------------------

def alt_value(kind: str, a, x, n: Optional[int] = None):
    """The alternating series (or its degree-n section) at x, at the
    current mpmath precision."""
    a = mp.mpf(a)
    x = mp.mpmathify(x)
    term = mp.mpf(1)
    total = term
    eps = mp.eps / 1024
    k = 0
    while True:
        k += 1
        if n is not None and k > n:
            return total
        term *= -x * ratio(kind, a, k)
        total += term
        if n is None and abs(term) <= eps * max(1, abs(total)):
            if abs(x) * ratio(kind, a, k + 1) < 0.5:
                return total
        if k > 5000:
            raise ArithmeticError("alternating series did not converge")


def alt_values_float(kind: str, a: float, xs: np.ndarray, n: Optional[int] = None) -> np.ndarray:
    """Float64 version of ``alt_value`` over an array, used only to locate
    the cell of a minimum before the mpmath refinement."""
    xs = np.asarray(xs)
    term = np.ones(xs.shape, dtype=xs.dtype)
    total = term.copy()
    xmax = float(np.max(np.abs(xs)))
    k = 0
    while True:
        k += 1
        if n is not None and k > n:
            return total
        term = term * (-xs) * ratio(kind, a, k)
        total = total + term
        if n is None and np.all(np.abs(term) <= 1e-18 * np.maximum(1.0, np.abs(total))):
            if xmax * ratio(kind, a, k + 1) < 0.5:
                return total


def _golden(fn, lo, hi, steps: int):
    inv = (mp.sqrt(5) - 1) / 2
    x1 = hi - inv * (hi - lo)
    x2 = lo + inv * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    best = min(f1, f2)
    for _ in range(steps):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            f2 = fn(x2)
        best = min(best, f1, f2)
    return best


def interval_min(kind: str, a: float, lo: float, hi: float, n: Optional[int] = None,
                 grid: int = 1024) -> float:
    """Infimum of the alternating series (or section) over the open
    interval (lo, hi): a float64 grid locates the cell, then golden-section
    search at 30 digits refines it.  When the best grid point is at an
    edge, the limit value at that endpoint is included."""
    xs = np.linspace(lo, hi, grid + 2)
    vals = alt_values_float(kind, a, xs, n)
    i = int(np.argmin(vals[1:-1])) + 1
    with mp.workdps(DPS):
        fn = lambda x: alt_value(kind, a, x, n)
        best = _golden(fn, mp.mpf(xs[i - 1]), mp.mpf(xs[i + 1]), 80)
        if i == 1:
            best = min(best, fn(mp.mpf(lo)))
        if i == grid:
            best = min(best, fn(mp.mpf(hi)))
        return float(best)


def euler_sign_min(a: float) -> float:
    """The decisive quantity of the eulerF sign test: the infimum over
    (a+1, a^2+1)."""
    return interval_min("eulerF", a, a + 1.0, a * a + 1.0)


def theta_sign_min(a: float, n: Optional[int] = None) -> float:
    """The theta sign test quantity: the infimum over (a, a^3)."""
    return interval_min("theta", a, a, a**3, n)


def six_term_value(a: float) -> float:
    """Degree-6 section of the alternating eulerF series at
    z0 = (2/3)(a+1) q_2."""
    with mp.workdps(DPS):
        am = mp.mpf(a)
        q2 = (am * am + 1) / (am + 1)
        return float(alt_value("eulerF", am, 2 * (am + 1) * q2 / 3, 6))


def circle_min(kind: str, a: float, r: float, n: Optional[int] = None,
               grid: int = 2048) -> float:
    """Minimum of |alternating series| (or section) on |z| = r."""
    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    vals = np.abs(alt_values_float(kind, a, r * np.exp(1j * thetas), n))
    i = int(np.argmin(vals))
    step = 2.0 * math.pi / grid
    with mp.workdps(DPS):
        fn = lambda t: abs(alt_value(kind, a, r * mp.expj(t), n))
        return float(_golden(fn, mp.mpf(thetas[i] - step), mp.mpf(thetas[i] + step), 80))


def circle_scale(kind: str, a: float, r: float, n: Optional[int] = None) -> float:
    """Sum of the term moduli on |z| = r: the scale of rounding errors there."""
    return float(alt_values_float(kind, a, np.array([-r]), n)[0])


# ---------------------------------------------------------------------------
# zero moduli of the normalized series phi(u) = f_alt(u / a_1)
# ---------------------------------------------------------------------------

def zero_moduli(kind: str, a: float, kept: int = 22, degree: int = 26) -> List[float]:
    """Sorted moduli of the smallest zeros of phi, from the zeros of its
    degree-``degree`` section; the section's own outer zeros are dropped."""
    with mp.workdps(DPS):
        am = mp.mpf(a)
        r1 = ratio(kind, am, 1)
        coeffs = [mp.mpf(1)]
        t = mp.mpf(1)
        for k in range(1, degree + 1):
            t = t * ratio(kind, am, k) / r1
            coeffs.append((-1) ** k * t)
        roots = mp.polyroots(coeffs[::-1], maxsteps=400, extraprec=150)
        return [float(m) for m in sorted(abs(z) for z in roots)[:kept]]


# ---------------------------------------------------------------------------
# exact real-root facts over the rationals (sympy)
# ---------------------------------------------------------------------------

def exact_root_facts(coeffs: Sequence[float], lo: float, hi: float) -> Dict:
    """Distinct real roots in [lo, hi], real roots with multiplicity, the
    degree, and the integer square-free part (ascending) for sign checks."""
    import sympy

    x = sympy.Symbol("x")
    rat = [sympy.Rational(Fraction(float(c)).numerator, Fraction(float(c)).denominator)
           for c in coeffs]
    while rat and rat[-1] == 0:
        rat.pop()
    P = sympy.Poly(list(reversed(rat)), x)
    lo_r = sympy.Rational(*Fraction(lo).as_integer_ratio())
    hi_r = sympy.Rational(*Fraction(hi).as_integer_ratio())
    with_mult = sum(m * f.count_roots() for f, m in P.sqf_list()[1])
    _, sqf = P.sqf_part().clear_denoms()
    return {
        "distinct_in": int(P.count_roots(lo_r, hi_r)),
        "real_with_multiplicity": int(with_mult),
        "degree": P.degree(),
        "sqf": [int(c) for c in reversed(sqf.all_coeffs())],
    }


def exact_sign(int_coeffs: Sequence[int], x: Fraction) -> int:
    acc = Fraction(0)
    for c in reversed(int_coeffs):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def straddles(int_coeffs: Sequence[int], root: float, tol: float) -> bool:
    """True when an exact sign change (or an exact zero) of the polynomial
    lies in [root - tol/2, root + tol/2]."""
    r = Fraction(root)
    half = Fraction(tol) / 2
    s_lo = exact_sign(int_coeffs, r - half)
    s_hi = exact_sign(int_coeffs, r + half)
    return s_lo * s_hi < 0 or exact_sign(int_coeffs, r) == 0 or 0 in (s_lo, s_hi)


# ---------------------------------------------------------------------------
# transitions, by bisection on the mpmath minimum
# ---------------------------------------------------------------------------

# The degree-3 section vanishes at the excluded endpoint x = a^3, and a^3
# rounded to a float leaves a value of order 1e-17 there; a witness of the
# InLP side must lie below that floor.
WITNESS = -1e-12


def _bisect(pred, lo: float, hi: float, tol: float) -> List[float]:
    p_lo = pred(lo)
    if p_lo == pred(hi):
        raise ArithmeticError(f"no transition in [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid) == p_lo:
            lo = mid
        else:
            hi = mid
    return [lo, hi]


def theta_transition(n: Optional[int]) -> List[float]:
    """Bracket of the squared parameter s = a^2 at which the theta sign test
    (or its degree-n section) turns InLP."""
    lo, hi = (3.0, 4.0) if n is None else (2.5, 4.5)
    return _bisect(lambda s: theta_sign_min(math.sqrt(s), n) < WITNESS, lo, hi, 1e-11)


def euler_transition() -> List[float]:
    return _bisect(lambda a: euler_sign_min(a) < WITNESS, 3.95, 3.98, 1e-11)


def regenerate() -> Dict:
    data = {
        "note": "regenerate with: python3 perfbench/oracle.py",
        "q_infinity": theta_transition(None),
        "c_n": {str(n): theta_transition(n) for n in range(2, 11)},
        "critical_a": euler_transition(),
        "zero_moduli": {
            kind: {repr(a): zero_moduli(kind, a) for a in values}
            for kind, values in ZERO_POOL.items()
        },
    }
    return data


if __name__ == "__main__":
    out = regenerate()
    with open(REFDATA_PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFDATA_PATH}", file=sys.stderr)
