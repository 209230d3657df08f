"""Coefficient generation and certified evaluation for the studied series.

Three named one-parameter families are supported, all entire of order zero
with positive Taylor coefficients and a_0 = 1:

  eulerF : a_k = 1 / ((a+1)(a^2+1)...(a^k+1))
  theta  : a_k = a^(-k^2)            (partial theta function)
  eulerH : a_k = 1 / ((a-1)(a^2-1)...(a^k-1))

plus ``custom`` families given by a finite sequence of log-coefficients.
Coefficients are never materialized directly: a_k underflows or overflows
binary floating point long before the interesting range of k is exhausted,
so everything runs on the term recurrence t_{k+1} = t_k * z * (a_{k+1}/a_k)
and standalone coefficients are exposed in log form only.

Evaluation returns a rigorous truncation bound built from a first-neglected-
term times geometric-series majorant; the same majorant backs ``tail_bound``.
The one interval minimizer, which the sign tests and circle minima share,
lives beside the evaluators that feed it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from .errors import (
    DivergentMajorantError,
    FloatRangeError,
    InsufficientDataError,
    ParameterError,
    TruncationError,
)

if TYPE_CHECKING:
    import numpy as np

# numpy is imported by the batch helpers and the minimizer's grid scan only:
# scalar sums, and the exact layer that imports this module, run without it
_EPS = sys.float_info.epsilon
_PY_SCALARS = frozenset((float, complex, int))  # never a batch
_TERM_CAP = 10_000
_MAX_POINTS = 2**20  # the most points a grid, circle or parameter scan may hold
_TABLE_START = 32  # first ratio table of a full series; most sums need fewer terms
# evaluate_many's binding-point rule: the dtypes it runs on, its bound on
# the largest term, and the factor that puts math.hypot above numpy's |z|
_DOUBLES = ("float64", "complex128")
_FAR = 2.0**1000
_ABS_SLACK = 1.0 + 2.0**-40


class FamilyKind(str, Enum):
    EULER_F = "eulerF"
    THETA = "theta"
    EULER_H = "eulerH"
    CUSTOM = "custom"


# the Euler-type kinds differ only in the s of a^k + s
_EULER_SIGN = {FamilyKind.EULER_F: 1, FamilyKind.EULER_H: -1}


@dataclass(frozen=True)
class SeriesFamily:
    """A coefficient family, optionally with the alternating sign convention.

    With ``alternating=True`` the object represents f(z) = sum (-1)^k a_k z^k,
    i.e. the original positive-coefficient series evaluated at -z.
    """

    kind: FamilyKind
    a: float = 0.0
    custom_log_coeffs: Optional[Tuple[float, ...]] = None
    alternating: bool = False

    def __post_init__(self):
        if self.kind is FamilyKind.CUSTOM:
            if not self.custom_log_coeffs:
                raise ParameterError("custom family needs at least one log-coefficient")
            object.__setattr__(
                self, "custom_log_coeffs", tuple(float(c) for c in self.custom_log_coeffs)
            )
        else:
            if not 1.0 < self.a < math.inf:
                raise ParameterError(
                    f"{self.kind.value} family requires finite a > 1, got a={self.a!r}"
                )
        # The memo behind _ratio_table, outside the dataclass fields so that
        # ==, hash and repr ignore it.  Only ratios whose value cannot depend
        # on a context precision are kept: custom ratios are floats, and
        # float, int and Fraction parameters round the same way every time;
        # an mpmath parameter rounds at the working precision of the call.
        fixed = self.kind is FamilyKind.CUSTOM or isinstance(self.a, (float, int, Fraction))
        object.__setattr__(self, "_memo", [] if fixed else None)

    # -- coefficient ratios ------------------------------------------------

    def ratio(self, k: int) -> float:
        """a_k / a_{k-1} for k >= 1 (0.0 past the end of a custom sequence
        and where a^k overflows, inf where a custom ratio overflows).

        Integer constants keep the arithmetic in the parameter's own scalar
        type, so extended-precision parameters stay extended-precision.
        """
        if k < 1:
            raise ParameterError("ratio index must be >= 1")
        memo = self._memo
        if memo is not None and k < len(memo):
            return memo[k]
        return self._ratio(k)

    def _ratio_table(self, size: int) -> list:
        """[a_0, ratio(1), ratio(2), ...] with at least ``size`` entries.

        The memo grows by replacement, never in place, so a list already
        handed out stays valid and a concurrent grower cannot misplace an
        entry.  Without a memo the table is computed afresh.
        """
        table = self._memo
        if table is None:
            table = []
        if len(table) < size:
            table = table + [
                self._ratio(k) if k else _first_coefficient(self) for k in range(len(table), size)
            ]
            if self._memo is not None:
                object.__setattr__(self, "_memo", table)
        return table

    def _ratio(self, k: int) -> float:
        a, s = self.a, _EULER_SIGN.get(self.kind)
        try:
            if s is not None:
                return 1 / (a**k + s)
            if self.kind is FamilyKind.THETA:
                return a ** (1 - 2 * k)
        except OverflowError:
            return 0.0  # a^k beyond float range: the ratio underflows
        lc = self.custom_log_coeffs
        if k >= len(lc):
            return 0.0
        try:
            return math.exp(lc[k] - lc[k - 1])
        except OverflowError:
            return math.inf  # a sum that multiplies by it raises FloatRangeError

    def log_ratio(self, k: int) -> float:
        """ln(a_k / a_{k-1}), computed without forming a^k when it overflows."""
        if k < 1:
            raise ParameterError("ratio index must be >= 1")
        a, s = self.a, _EULER_SIGN.get(self.kind)
        if s is not None:
            return -(k * math.log(a) + math.log1p(s * a ** (-k)))
        if self.kind is FamilyKind.THETA:
            return (1.0 - 2.0 * k) * math.log(a)
        lc = self.custom_log_coeffs
        if k >= len(lc):
            return -math.inf
        return lc[k] - lc[k - 1]

    @cached_property
    def n_terms(self) -> Optional[int]:
        """Number of terms for custom families, None for the entire ones."""
        if self.kind is FamilyKind.CUSTOM:
            return len(self.custom_log_coeffs)
        return None

    def with_alternating(self, alternating: bool = True) -> "SeriesFamily":
        if self.alternating == alternating:
            return self
        return SeriesFamily(self.kind, self.a, self.custom_log_coeffs, alternating)


@dataclass(frozen=True, slots=True)
class EvalResult:
    """A series value with a rigorous bound on the neglected tail."""

    value: complex
    abs_error_bound: float
    terms_used: int


@dataclass(frozen=True)
class QuotientView:
    """The quotient sequences p_n = a_{n-1}/a_n and q_n = p_n/p_{n-1}.

    ``q(n) = a_{n-1}^2 / (a_{n-2} a_n)`` is scale- and substitution-invariant;
    ``monotonicity`` records how q_n moves with n and ``limit`` its limit when
    one exists in closed form.
    """

    family: SeriesFamily
    p: Callable[[int], float]
    q: Callable[[int], float]
    limit: Optional[float]
    monotonicity: str  # "increasing" | "constant" | "decreasing" | "unknown"


def coefficient_log(family: SeriesFamily, k: int) -> float:
    """ln(a_k), accumulated from log-ratios (never from a_k itself)."""
    if k < 0:
        raise ParameterError("coefficient index must be >= 0")
    if family.kind is FamilyKind.CUSTOM:
        lc = family.custom_log_coeffs
        if k >= len(lc):
            raise ParameterError(f"custom family has only {len(lc)} coefficients")
        return lc[k]
    # left to right: ``sum()`` over floats rounds otherwise from Python 3.12 on
    log_ak = 0.0
    for j in range(1, k + 1):
        log_ak += family.log_ratio(j)
    return log_ak


def _first_coefficient(family: SeriesFamily) -> float:
    if family.kind is FamilyKind.CUSTOM:
        return math.exp(family.custom_log_coeffs[0])
    return 1  # int: multiplying it never forces a scalar type change


def _normalizing_scale(family: SeriesFamily) -> float:
    """p_1 = a_0/a_1, the u -> z scale of the normalized variable."""
    r1 = family.ratio(1)
    if r1 <= 0.0:
        raise ParameterError("family has no second coefficient to normalize by")
    if not r1 < math.inf:
        raise FloatRangeError("a_1/a_0 is beyond the float range")
    return 1.0 / r1


def _itself(v):
    return v


def _array_max(v: np.ndarray) -> float:
    return v.max(initial=0.0)


def _complex_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y over complex arrays, each part rounded as in Python's complex
    product (numpy's own may fuse it into multiply-adds)."""
    import numpy as np

    out = np.empty_like(x)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _where(z) -> str:
    np = sys.modules.get("numpy")
    batch = np is not None and isinstance(z, np.ndarray)
    return "(vectorized batch)" if batch else f"at z={z!r}"


def _term_sum(family: SeriesFamily, z, n: Optional[int], rel_tol: float = 1e-12):
    """The one loop over the term recurrence t_k = t_{k-1} * w * a_k/a_{k-1},
    w = -z for an alternating family; returns (total, bound, terms_used).

    ``z`` is a Python scalar of any numeric type, summed at its own
    precision, or a numpy array, summed pointwise.  With ``n`` it sums the
    degree-n section (fewer terms if a custom family ends sooner), with the
    roundoff bound 4 eps (n+1) sum |t_k|; with ``n=None`` the full series,
    until ``evaluate``'s stop rule holds at every point.  A non-finite point
    or a section degree outside [0, 10000] raises ``ParameterError`` before
    the first term; terms beyond the float range raise ``FloatRangeError``.
    """
    if n is None:
        if not rel_tol > 0:
            raise ParameterError("rel_tol must be positive")
    elif n < 0:
        raise ParameterError("section degree must be >= 0")
    elif n > _TERM_CAP:  # the full series' own cap bounds a section's loop too
        raise ParameterError(f"section degree must be <= {_TERM_CAP}")
    # no ndarray exists before numpy is imported, so a scalar sum needs no
    # numpy, and a Python scalar skips even the lookup; a batch reduces over
    # its points, a scalar loop makes no numpy call
    np = None if type(z) in _PY_SCALARS else sys.modules.get("numpy")
    batch = np is not None and isinstance(z, np.ndarray)
    top = _array_max if batch else _itself
    cmul = batch and n is not None and np.iscomplexobj(z)
    last = _TERM_CAP if n is None else n
    if family.n_terms is not None:
        last = min(last, family.n_terms - 1)
    try:
        w = -z if family.alternating else z
        absw = abs(w)
        wmax = _array_max(absw) if batch else absw
        if not wmax < math.inf:  # nan fails this test too
            raise ParameterError(f"non-finite point {_where(z)}")
        need = last + 2 if last < _TABLE_START - 2 else _TABLE_START
        rs = family._memo
        if rs is None or len(rs) < need:
            rs = family._ratio_table(need)
        term = rs[0] * z**0
        total, abs_acc = term, abs(term)
        if n is None and wmax == 0:
            return total, 0.0 * abs_acc, 1  # a zero bound shaped like z
        r, inf = rs[1], math.inf
        # a double batch tests its stop rule at one binding point first
        # (see evaluate_many): i is that point, i0 the one of largest |w|
        pick = batch and n is None and z.dtype in _DOUBLES and isinstance(r, float)
        if pick:
            i = i0 = int(absw.argmax())
            wmax = wi = absw.item(i0)  # the same float, as a Python float
            hypot = math.hypot if z.dtype.kind == "c" else None
        for k in range(1, last + 1):
            term = _complex_product(term, w * r) if cmul else term * (w * r)
            total = total + term
            mag = abs(term)
            abs_acc = abs_acc + mag
            try:
                r = rs[k + 1]
            except IndexError:  # the table doubles, up to the last ratio needed
                rs = family._ratio_table(min(2 * k + 2, last + 2))
                r = rs[k + 1]
            if n is None:
                rmax = wmax * r
                if rmax < 1.0:
                    if pick and mag.item(i0) < _FAR * (1.0 - rmax):
                        rho_i = wi * r
                        tail_i = mag.item(i) * rho_i / (1.0 - rho_i)
                        t = total.item(i)
                        s = abs(t) if hypot is None else hypot(t.real, t.imag) * _ABS_SLACK
                        if tail_i - rel_tol * (s if s > 1.0 else 1.0) > 0:
                            continue  # the batch fails the rule where i does
                    # tail - rel_tol * max(1, |total|), the worst point of a
                    # batch; a scalar takes the same float without a call
                    # (max keeps its first argument unless s > 1, nan included)
                    if batch:
                        rho = absw * r
                        tail = mag * rho / (1.0 - rho)
                        excess_at = tail - rel_tol * np.maximum(1.0, abs(total))
                        excess = top(excess_at)
                    else:
                        tail = mag * rmax / (1.0 - rmax)  # rmax is |w| r
                        s = abs(total)
                        excess = tail - rel_tol * (s if s > 1.0 else 1.0)
                    if excess <= 0:
                        bound, terms = tail + 4.0 * _EPS * k * abs_acc, k + 1
                        break
                    if pick:
                        i = int(excess_at.argmax())
                        wi = absw.item(i)
                    if not (excess < inf or top(abs_acc) < inf):
                        raise FloatRangeError(f"the terms overflow {_where(z)}")
                elif not top(abs_acc) < inf:  # still growing, already past the range
                    raise FloatRangeError(f"the terms overflow {_where(z)}")
        else:
            terms = last + 1
            if n is None and terms > _TERM_CAP:
                raise TruncationError(
                    f"tail target not reached within {_TERM_CAP} terms {_where(z)}",
                    partial=EvalResult(total, math.inf, _TERM_CAP),
                )
            bound = 4.0 * _EPS * (terms if n is None else n + 1) * abs_acc
    except OverflowError:
        raise FloatRangeError(f"the terms overflow {_where(z)}") from None
    if not (top(bound) if batch else bound) < math.inf:
        raise FloatRangeError(f"the terms overflow {_where(z)}")
    return total, bound, terms


def evaluate(family: SeriesFamily, z: complex, rel_tol: float = 1e-12) -> EvalResult:
    """Sum the series at ``z`` until a geometric tail majorant certifies it.

    Stops at the first k where |t_k| * rho / (1 - rho), with
    rho = |z| * a_{k+1}/a_k < 1, falls below rel_tol * max(1, |partial sum|).
    The returned ``abs_error_bound`` is that majorant plus a summation
    roundoff cushion.  The ratio sequences of all named kinds decrease in k,
    so rho dominates every later step ratio and the majorant is rigorous.

    The recurrence is duck-typed: an extended-precision scalar for ``z``
    (paired with a matching family parameter ``a``) runs the whole sum at
    that precision.
    """
    return EvalResult(*_term_sum(family, z, None, rel_tol))


def evaluate_many(
    family: SeriesFamily, zs: np.ndarray, rel_tol: float = 1e-12
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``evaluate`` over an array of points.

    Same recurrence and stop rule as the scalar path, run until every point
    meets it; returns (values, per-point error bounds).  A batch of one real
    point gives ``evaluate``'s value and bound bit for bit.  Complex points
    may differ in the last bits, since numpy's complex product may fuse into
    multiply-adds.  numpy's overflow and invalid-value warnings are silenced:
    terms beyond the float range raise ``FloatRangeError`` instead.

    A float64 or complex128 batch tests the rule at one binding point i
    first.  While tail_i - rel_tol * max(1, |total_i|) > 0 the batch cannot
    stop, and the test over all points is skipped.  i starts at the point
    of largest |w| and moves to the point of largest excess whenever the
    test over all points fails, so the batch stops at the same term, with
    the same values and bounds, as when every term tests every point.  The
    skip also needs the term at the largest |w| below 2^1000 (1 - rho).  No
    other point's term or tail is larger on real points, nor larger by more
    than rounding on complex ones, so no point leaves the float range on a
    skipped term, and overflow raises at the same term.  On complex points ``math.hypot``
    stands in for numpy's |total_i|, raised by 2^-40 relative to cover the
    ulp by which they differ.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        return _term_sum(family, np.asarray(zs), None, rel_tol)[:2]


def section_sum(family: SeriesFamily, n: int, z):
    """Sum of the first n+1 terms (fewer if a custom family ends sooner)
    and its roundoff bound 4 eps (n+1) sum |t_k|, for 0 <= n <= 10000.
    Duck-typed like ``evaluate``.  A numpy array gets the values of its
    points bit for bit, real or complex, and on real points their bounds
    too; numpy's complex ``abs`` may move the last bit of a complex
    point's bound."""
    return _term_sum(family, z, n)[:2]


def evaluate_section(family: SeriesFamily, n: int, z: complex) -> complex:
    """Exact sum of the first n+1 terms via the term recurrence (duck-typed
    like ``evaluate``)."""
    return _term_sum(family, z, n)[0]


def _evaluators(family: SeriesFamily, n: Optional[int]):
    """The series (``n=None``, through ``evaluate``/``evaluate_many`` at
    rel_tol 1e-13) or its degree-n section (through ``section_sum``) as a
    pair of callables: one point to (value, error_bound), and an array of
    points to their values, as ``minimize_on_interval`` takes them."""
    if n is None:
        def one(z) -> Tuple[complex, float]:
            res = evaluate(family, z, 1e-13)
            return res.value, res.abs_error_bound

        def many(zs: np.ndarray) -> np.ndarray:
            return evaluate_many(family, zs, 1e-13)[0]
    else:
        def one(z) -> Tuple[complex, float]:
            return section_sum(family, n, z)

        def many(zs: np.ndarray) -> np.ndarray:
            import numpy as np

            with np.errstate(over="ignore", invalid="ignore"):
                return section_sum(family, n, zs)[0]
    return one, many


def _linspace(lo: float, hi: float, num: int) -> list:
    """``np.linspace(lo, hi, num)`` as a list of Python floats, bit for bit:
    point i is i * step + lo (i / (num-1) * (hi-lo) + lo where the step
    underflows to 0), and the last point is hi itself."""
    lo, hi = float(lo), float(hi)
    delta, div = hi - lo, max(num - 1, 1)
    step = delta / div
    xs = [(i * step if step else i / div * delta) + lo for i in range(num)]
    return xs[:-1] + [hi] if num > 1 else xs


def _golden_min(
    fn: Callable[[float], Tuple[float, float]], lo: float, hi: float
) -> Tuple[float, float, float]:
    """Golden-section search for the minimum of ``fn(x) = (value, error)``
    on [lo, hi]; returns (value, argmin, error) of the better probe.

    Stops when bracket and probes repeat the state of two steps before (90
    steps at most).  Such a cycle occurs only on a bracket at most one ulp
    wide, and its states share one winner: the full 90 steps end the same.
    """
    inv_gr = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_gr * (hi - lo)
    x2 = lo + inv_gr * (hi - lo)
    f1, e1 = fn(x1)
    f2, e2 = fn(x2)
    prev = older = None
    for _ in range(90):
        if f1 <= f2:
            hi, x2, f2, e2 = x2, x1, f1, e1
            x1 = hi - inv_gr * (hi - lo)
            f1, e1 = fn(x1)
        else:
            lo, x1, f1, e1 = x1, x2, f2, e2
            x2 = lo + inv_gr * (hi - lo)
            f2, e2 = fn(x2)
        state = (lo, hi, x1, x2)
        if state == older:
            break
        older, prev = prev, state
    return (f1, x1, e1) if f1 <= f2 else (f2, x2, e2)


def minimize_on_interval(
    fn: Callable[[float], Tuple[float, float]],
    batch: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    grid: int,
) -> Tuple[float, float, float]:
    """Grid scan then golden-section refinement around the best cell.

    ``fn(x)`` returns (value, error_bound); ``batch(xs)`` returns the grid
    values in one vectorized call.  The grid is the ``grid`` interior points
    of ``grid + 1`` equal cells of (lo, hi); the best point's cell reaches
    to its neighbours (to lo or hi at the ends).  ``grid`` lies in
    [8, 2^20], checked before the grid is built.  Returns (min_value,
    argmin, error)."""
    if not 8 <= grid <= _MAX_POINTS:
        raise ParameterError(f"grid must lie in [8, {_MAX_POINTS}]")
    import numpy as np

    xs = np.linspace(lo, hi, grid + 2)[1:-1]
    vals = batch(xs)
    i = int(np.argmin(vals))
    cell_lo = xs[i - 1] if i > 0 else lo
    cell_hi = xs[i + 1] if i + 1 < len(xs) else hi
    v, x, e = _golden_min(fn, float(cell_lo), float(cell_hi))
    if vals[i] < v:
        x = float(xs[i])
        v, e = fn(x)
    return v, x, e


def tail_bound(family: SeriesFamily, start_index: int, r: float) -> float:
    """Rigorous upper bound on sum_{k >= start_index} a_k r^k.

    First kept term times the geometric series in rho = r * a_{s+1}/a_s,
    which dominates every later step ratio because the ratio sequences
    decrease.  Requires rho < 1 and a finite r >= 0; a bound beyond the
    float range raises ``FloatRangeError``.
    """
    if start_index < 0:
        raise ParameterError("start_index must be >= 0")
    if not 0.0 <= r < math.inf:
        raise ParameterError(f"radius must be finite and >= 0, got {r!r}")
    n_custom = family.n_terms
    try:
        if n_custom is not None:
            # finite series: sum the remaining magnitudes exactly
            bound = 0.0
            for k in range(start_index, n_custom):
                bound += math.exp(family.custom_log_coeffs[k]) * r**k
        elif r == 0.0:
            bound = 1.0 if start_index == 0 else 0.0  # a_0 = 1
        else:
            log_first = coefficient_log(family, start_index) + start_index * math.log(r)
            rho = r * family.ratio(start_index + 1)
            if rho >= 1.0:
                raise DivergentMajorantError(
                    f"majorant ratio {rho:.6g} >= 1 at start={start_index}, r={r!r}"
                )
            bound = math.exp(log_first) / (1.0 - rho)
    except OverflowError:
        bound = math.inf
    if not bound < math.inf:
        raise FloatRangeError(f"tail bound at r={r!r} is beyond the float range")
    return bound


def _indexed(name: str, least: int, fn: Callable[[int], float]) -> Callable[[int], float]:
    """``fn`` behind the check n >= least; a result beyond the float range,
    raised as ``OverflowError`` or returned as inf or nan, raises
    ``FloatRangeError``."""

    def value(n: int) -> float:
        if n < least:
            raise ParameterError(f"{name}(n) is defined for n >= {least}")
        try:
            v = fn(n)
        except OverflowError:
            v = math.inf
        if not -math.inf < v < math.inf:
            raise FloatRangeError(f"{name}({n}) is beyond the float range")
        return v

    return value


def quotients(family: SeriesFamily) -> QuotientView:
    """Closed-form quotient view for named kinds, numeric for custom ones.

    The closed forms use integer constants only, so a ``Fraction``
    parameter gives exact rational quotients."""
    a, s = family.a, _EULER_SIGN.get(family.kind)
    if s is not None:

        def p(n: int) -> float:
            return a**n + s

        def q(n: int) -> float:
            # (a^n+s)/(a^{n-1}+s) in a form that never overflows
            return a * (1 + s * a ** (-n)) / (1 + s * a ** (1 - n))

        limit, monotonicity = a, "increasing" if s > 0 else "decreasing"
    elif family.kind is FamilyKind.THETA:

        def p(n: int) -> float:
            return a ** (2 * n - 1)

        def q(n: int) -> float:
            return a * a

        limit, monotonicity = a * a, "constant"
        if not limit < math.inf:
            raise FloatRangeError(f"q_n = a^2 is beyond the float range at a={a!r}")
    else:
        lc = family.custom_log_coeffs
        if len(lc) < 3:
            raise InsufficientDataError(
                "quotients need at least 3 custom coefficients, got " + str(len(lc))
            )

        def p(n: int) -> float:
            if n >= len(lc):
                raise ParameterError(f"p({n}) outside custom range")
            return math.exp(lc[n - 1] - lc[n])

        def q(n: int) -> float:
            if n >= len(lc):
                raise ParameterError(f"q({n}) outside custom range")
            return math.exp(2.0 * lc[n - 1] - lc[n - 2] - lc[n])

        limit, monotonicity = None, "unknown"
    return QuotientView(
        family, _indexed("p", 1, p), _indexed("q", 2, q), limit, monotonicity
    )


_SCALED_DROP = 60.0  # nats below the peak term where scaled_real_value stops


def scaled_real_value(family: SeriesFamily, x: float) -> Tuple[float, float, float]:
    """Evaluate the series at real x > 0 as mantissa * exp(log_scale).

    Intended for sign checks at arguments where individual terms overflow
    float range.  Returns (mantissa, log_scale, mantissa_error_bound); the
    true value is mantissa * exp(log_scale) with |error| <= the bound at the
    mantissa scale.  Terms are accumulated relative to the largest one; the
    sum stops once log-terms have fallen 60 nats below the peak and a
    geometric majorant bounds the remainder.
    """
    if not 0 < x < math.inf:  # log(inf) would run the sum to its term cap
        raise ParameterError(f"scaled_real_value needs a finite x > 0, got {x!r}")
    logx = math.log(x)
    lt = peak = math.log(_first_coefficient(family))
    log_terms = [lt]
    lr = family.log_ratio(1)
    for k in range(1, _TERM_CAP + 1):
        if lr == -math.inf:
            tail_scaled = 0.0
            break
        lt = lt + logx + lr
        log_terms.append(lt)
        if lt > peak:  # the running max(log_terms)
            peak = lt
        lr = family.log_ratio(k + 1)
        step = logx + lr
        if lt < peak - _SCALED_DROP and step < 0.0:
            # geometric tail beyond the last computed term, relative to peak
            ratio = math.exp(step)
            tail_scaled = math.exp(lt - peak) * ratio / (1.0 - ratio)
            break
    else:
        raise TruncationError(f"no decay within {_TERM_CAP} terms at x={x!r}")
    mantissa = 0.0
    for j, lt in enumerate(log_terms):
        t = math.exp(lt - peak)
        mantissa += -t if (family.alternating and j % 2) else t
    err = tail_scaled + 4.0 * _EPS * len(log_terms)
    return mantissa, peak, err
