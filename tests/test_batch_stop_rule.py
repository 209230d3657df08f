"""The batch stop rule, tested first at one binding point, stops where the
vectorized rule checked on every term stops.

``_per_term_sum`` below is the full-series batch loop as it stood before
the binding point: it takes the array maximum of
tail - rel_tol * max(1, |total|) after every converging term.  Both loops
must give the same values, bounds and errors, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lplab.errors import FloatRangeError, ParameterError, TruncationError
from lplab.series import _EPS, _TERM_CAP, FamilyKind, SeriesFamily, evaluate, evaluate_many


def _per_term_sum(family, zs, rel_tol=1e-12):
    """evaluate_many with the vectorized stop check on every term."""
    z = np.asarray(zs)
    last = _TERM_CAP
    if family.n_terms is not None:
        last = min(last, family.n_terms - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        w = -z if family.alternating else z
        absw = abs(w)
        wmax = absw.max(initial=0.0)
        if not wmax < math.inf:
            raise ParameterError("non-finite point (vectorized batch)")
        rs = family._ratio_table(min(last + 2, 32))
        term = rs[0] * z**0
        total, abs_acc = term, abs(term)
        if wmax == 0:
            return total, 0.0 * abs_acc
        r = rs[1]
        for k in range(1, last + 1):
            term = term * (w * r)
            total = total + term
            mag = abs(term)
            abs_acc = abs_acc + mag
            try:
                r = rs[k + 1]
            except IndexError:
                rs = family._ratio_table(min(2 * k + 2, last + 2))
                r = rs[k + 1]
            if wmax * r < 1.0:
                rho = absw * r
                tail = mag * rho / (1.0 - rho)
                excess = (tail - rel_tol * np.maximum(1.0, abs(total))).max(initial=0.0)
                if excess <= 0:
                    bound = tail + 4.0 * _EPS * k * abs_acc
                    break
                if not (excess < math.inf or abs_acc.max(initial=0.0) < math.inf):
                    raise FloatRangeError("the terms overflow (vectorized batch)")
            elif not abs_acc.max(initial=0.0) < math.inf:
                raise FloatRangeError("the terms overflow (vectorized batch)")
        else:
            terms = last + 1
            if terms > _TERM_CAP:
                raise TruncationError(
                    f"tail target not reached within {_TERM_CAP} terms (vectorized batch)"
                )
            bound = 4.0 * _EPS * terms * abs_acc
    if not bound.max(initial=0.0) < math.inf:
        raise FloatRangeError("the terms overflow (vectorized batch)")
    return total, bound


def _outcome(fn):
    """(dtype, shape, value bytes, bound bytes), or (error type, message)."""
    try:
        vals, bnds = fn()
    except (FloatRangeError, TruncationError, ParameterError) as exc:
        return type(exc), str(exc)
    return vals.dtype, vals.shape, vals.tobytes(), bnds.dtype, bnds.tobytes()


def _assert_same(fam, zs, rel_tol=1e-12):
    want = _outcome(lambda: _per_term_sum(fam, zs, rel_tol))
    assert _outcome(lambda: evaluate_many(fam, zs, rel_tol)) == want


_FAMILY = st.builds(
    SeriesFamily,
    st.sampled_from([FamilyKind.EULER_F, FamilyKind.THETA, FamilyKind.EULER_H]),
    st.floats(1.005, 8.0),
    alternating=st.booleans(),
)
# custom ratios need not decrease, so a batch may leave and re-enter the
# converging branch
_CUSTOM = st.builds(
    lambda logs, alternating: SeriesFamily(
        FamilyKind.CUSTOM, custom_log_coeffs=tuple(logs), alternating=alternating
    ),
    st.lists(st.floats(-60.0, 5.0), min_size=1, max_size=40),
    st.booleans(),
)
_REL_TOL = st.sampled_from([1e-6, 1e-12, 1e-13, 1e-15])
# moduli up to 1e300 put the terms of most families past the float range
_MODULUS = st.one_of(st.floats(0.0, 60.0), st.floats(0.0, 1e300))
_REAL = st.one_of(st.floats(-60.0, 60.0), st.floats(-1e300, 1e300))
_COMPLEX = st.builds(
    lambda m, t: complex(m * math.cos(t), m * math.sin(t)), _MODULUS, st.floats(0.0, 6.3)
)


@settings(max_examples=250, deadline=None)
@given(st.one_of(_FAMILY, _CUSTOM), st.lists(_REAL, min_size=1, max_size=24), _REL_TOL)
@example(SeriesFamily(FamilyKind.THETA, 1.01), [1e6, 2.0], 1e-12)
@example(SeriesFamily(FamilyKind.EULER_F, 2.0), [1e150, 3.0, -7.5], 1e-12)
# the partial sums at -30 stay small, so that point stops after 30, the
# first binding point
@example(SeriesFamily(FamilyKind.EULER_F, 2.0), [30.0, -30.0], 1e-12)
def test_real_batches(fam, points, rel_tol):
    _assert_same(fam, np.array(points), rel_tol)


@settings(max_examples=250, deadline=None)
@given(st.one_of(_FAMILY, _CUSTOM), st.lists(_COMPLEX, min_size=1, max_size=24), _REL_TOL)
@example(SeriesFamily(FamilyKind.THETA, 1.01), [1e6 + 0j, 2.0 + 1.0j], 1e-12)
def test_complex_batches(fam, points, rel_tol):
    _assert_same(fam, np.array(points), rel_tol)


@settings(max_examples=100, deadline=None)
@given(_FAMILY, st.sampled_from([(2, 3), (4, 1), (3, 5)]),
       st.one_of(st.lists(_REAL, min_size=15, max_size=15),
                 st.lists(_COMPLEX, min_size=15, max_size=15)))
def test_two_dimensional_batches(fam, shape, points):
    zs = np.array(points[: shape[0] * shape[1]]).reshape(shape)
    _assert_same(fam, zs)


@pytest.mark.parametrize("fam, radius", [
    (SeriesFamily(FamilyKind.THETA, 1.5), 40.0),
    (SeriesFamily(FamilyKind.EULER_F, 1.3), 25.0),
    (SeriesFamily(FamilyKind.EULER_H, 2.5, alternating=True), 60.0),
])
def test_a_circle_whose_binding_point_changes(fam, radius):
    zs = radius * np.exp(2j * np.pi * np.arange(257) / 257)
    # the first binding point, the first point of largest |w|, meets the
    # rule before the slowest point of the circle does
    first = int(abs(zs).argmax())
    slowest = max(evaluate(fam, complex(z)).terms_used for z in zs)
    assert evaluate(fam, complex(zs[first])).terms_used < slowest
    _assert_same(fam, zs)


def test_sign_test_grid_and_overflowing_batches():
    a = 3.8
    _assert_same(SeriesFamily(FamilyKind.EULER_F, a, alternating=True),
                 np.linspace(a + 1.0, a * a + 1.0, 514)[1:-1], 1e-13)
    for fam, zs in (
        (SeriesFamily(FamilyKind.THETA, 1.01), np.array([2.0, 1e6, -3.0])),
        (SeriesFamily(FamilyKind.THETA, 1.005), np.array([2.0, 1e60])),
        (SeriesFamily(FamilyKind.EULER_F, 2.0), 1e200 * np.exp(2j * np.pi * np.arange(17) / 17)),
    ):
        want = _outcome(lambda: _per_term_sum(fam, zs))
        assert want == (FloatRangeError, "the terms overflow (vectorized batch)")
        assert _outcome(lambda: evaluate_many(fam, zs)) == want
