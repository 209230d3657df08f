"""Winding-number zero counts and circle minima."""

import math

import numpy as np
import pytest

from lplab.errors import FloatRangeError, ParameterError, RealRootsError
from lplab.polyroots import section_polynomial
from lplab import zerocount
from lplab.series import FamilyKind, SeriesFamily
from lplab.zerocount import (
    count_zeros_in_disk,
    grid_min_modulus,
    min_modulus_on_circle,
    rho_radius,
    s2_root_modulus,
)


def eulerF(a, alternating=False):
    return SeriesFamily(FamilyKind.EULER_F, a, alternating=alternating)


def theta(a):
    return SeriesFamily(FamilyKind.THETA, a)


def q_euler(a, n):
    return (a**n + 1.0) / (a ** (n - 1) + 1.0)


# ---------------------------------------------------------------------------
# rho_radius
# ---------------------------------------------------------------------------

def test_rho_radius_closed_forms():
    assert rho_radius(eulerF(4.0), 2) == pytest.approx(
        3.4 * math.sqrt(65.0 / 17.0), rel=1e-13
    )
    assert rho_radius(eulerF(4.0), 3) == pytest.approx(
        3.4 * (65.0 / 17.0) * math.sqrt(257.0 / 65.0), rel=1e-13
    )
    assert rho_radius(theta(2.0), 2) == pytest.approx(8.0, rel=1e-13)
    # empty-product convention for j=1
    assert rho_radius(eulerF(4.0), 1) == pytest.approx(math.sqrt(3.4), rel=1e-13)


def test_rho_radius_beyond_float_range_is_a_float_range_error():
    # ln rho_6 = 5.5 ln(1e60) + ... exceeds ln(float max) = 709.78
    with pytest.raises(FloatRangeError):
        rho_radius(eulerF(1e60), 6)


def test_rho_radius_index_is_capped_before_the_product(monkeypatch):
    # near a = 1 ln rho_j stays finite for billions of j: the cap, not the
    # range check, bounds the loop
    assert rho_radius(eulerF(1.001), 10_000) > 0.0

    def no_product(family):
        raise AssertionError("formed the quotients")

    monkeypatch.setattr(zerocount, "quotients", no_product)
    with pytest.raises(ParameterError, match="j <= 10000"):
        rho_radius(eulerF(1.001), 10_001)


def test_one_coefficient_family_is_normalized_to_one():
    # phi = f(p_1 u) / a_0 is the constant 1 whatever a_0 is
    fam = SeriesFamily(FamilyKind.CUSTOM, custom_log_coeffs=(2.0,))
    vals, bnds = zerocount.phi_eval_many(fam, np.array([0.5, 1j, -2.0]))
    assert np.all(vals == 1.0) and np.all(bnds < 1e-14)
    res = count_zeros_in_disk(fam, 0.7)
    assert res.count == 0 and res.certified
    assert res.min_modulus_seen == 1.0


def test_z_plane_radius_beyond_float_range_is_checked_before_sampling(monkeypatch):
    def no_circle(*args, **kwargs):
        raise AssertionError("sampled the circle")

    monkeypatch.setattr(np, "linspace", no_circle)
    # p_1 = a + 1 = 5, so p_1 * r overflows although r is finite
    with pytest.raises(FloatRangeError, match=r"p_1\*r"):
        count_zeros_in_disk(eulerF(4.0), 1e308)


def test_rho_radius_sandwich_and_monotone():
    fam = eulerF(3.7)
    prev = 0.0
    for j in range(2, 12):
        prod = 1.0
        for i in range(2, j + 1):
            prod *= q_euler(3.7, i)
        rj = rho_radius(fam, j)
        assert prod < rj < prod * q_euler(3.7, j + 1)
        assert rj > prev
        prev = rj


# ---------------------------------------------------------------------------
# count_zeros_in_disk
# ---------------------------------------------------------------------------

def test_two_zero_disk_at_classical_radius():
    # the circle |z| = a^2+1 of the alternating series maps to |u| = q_2
    for a in (3.6, 4.0, 4.5):
        res = count_zeros_in_disk(eulerF(a), q_euler(a, 2))
        assert res.certified
        assert res.count == 2


def test_wider_disk_contains_third_zero():
    # |u| < a^2+1 in the normalized variable is a much larger disk than the
    # classical |z| < a^2+1 circle (|u| = q_2) and swallows the third zero
    res = count_zeros_in_disk(eulerF(4.0), 17.0)
    assert res.certified
    assert res.count == 3


def test_block_radius_counts():
    for j in (2, 4, 6):
        res = count_zeros_in_disk(eulerF(4.0), rho_radius(eulerF(4.0), j))
        assert res.certified
        assert res.count == j


def test_count_against_section_roots():
    # independent route: companion-matrix roots of a long section polynomial
    a, j = 4.0, 6
    r = rho_radius(eulerF(a), j)
    res = count_zeros_in_disk(eulerF(a), r)
    p = section_polynomial(eulerF(a), j + 8)
    roots = np.roots(list(p.coeffs)[::-1])
    assert int(np.sum(np.abs(roots) < r)) == res.count == j


def test_constant_function_has_no_zeros():
    one = SeriesFamily(FamilyKind.CUSTOM, custom_log_coeffs=(0.0,))
    res = count_zeros_in_disk(one, 5.0)
    assert res.count == 0
    assert res.certified


def test_winding_residual_certificate():
    res = count_zeros_in_disk(eulerF(4.0), 3.4)
    assert res.residual < 0.05
    assert res.min_modulus_seen > 0.0
    assert res.samples_used >= 256


def test_count_rejects_bad_radius():
    with pytest.raises(ParameterError):
        count_zeros_in_disk(eulerF(4.0), 0.0)


def test_count_rejects_base_samples_outside_the_cap_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled the circle")

    monkeypatch.setattr(zerocount, "phi_eval_many", no_sampling)
    for base_samples in (3, 2**20 + 1):
        with pytest.raises(ParameterError):
            count_zeros_in_disk(eulerF(4.0), 3.4, base_samples)


def test_circle_minimum_inherits_the_grid_cap(monkeypatch):
    def no_grid(*args):
        raise AssertionError("built the grid")

    monkeypatch.setattr(np, "linspace", no_grid)
    with pytest.raises(ParameterError):
        grid_min_modulus(eulerF(4.0, alternating=True), None, 17.0, grid=2**20 + 1)


def test_count_at_the_sample_cap_is_uncertified(monkeypatch):
    # six zeros inside: 4 and 8 samples cannot keep every increment below
    # pi/2, and doubling past the cap returns the last count uncertified
    monkeypatch.setattr(zerocount, "_MAX_POINTS", 8)
    fam = eulerF(4.0)
    res = count_zeros_in_disk(fam, rho_radius(fam, 6), 4)
    assert (res.samples_used, res.certified) == (8, False)
    assert res.radius == rho_radius(fam, 6)


def test_count_retries_circle_through_zero():
    # locate the first zero of the normalized series precisely (the long
    # section approximates it far below the retry bump of 1e-6), then ask
    # for a count on a circle passing through it: the internal radius
    # perturbation must rescue the computation
    from lplab.polyroots import isolate_real_roots, refine, section_polynomial

    fam = eulerF(4.0)  # above the sign-flip parameter: zeros are real
    poly = section_polynomial(fam, 20)
    first = isolate_real_roots(poly, (1.0, 2.2))[0]
    zero_u = refine(poly, first, 1e-13)
    res = count_zeros_in_disk(fam, zero_u)
    assert res.certified
    assert res.radius != zero_u  # a perturbed radius was used
    assert res.count in (0, 1)
    # and a circle strictly between the first two zeros counts exactly one
    assert count_zeros_in_disk(fam, 2.2).count == 1


# ---------------------------------------------------------------------------
# min_modulus_on_circle
# ---------------------------------------------------------------------------

def test_min_modulus_section2_analytic():
    assert min_modulus_on_circle(eulerF(4.0, alternating=True), 2, 17.0) == 1.0
    a = 3.6
    assert min_modulus_on_circle(eulerF(a, alternating=True), 2, a * a + 1.0) == 1.0


def test_min_modulus_grid_agrees_with_analytic():
    rng = np.random.default_rng(7)
    for _ in range(20):
        # q_2 in [3, 4) corresponds to a in [3.5616, 4.6458)
        a = float(rng.uniform(3.57, 4.64))
        got = grid_min_modulus(eulerF(a, alternating=True), 2, a * a + 1.0, grid=512)
        assert got == pytest.approx(1.0, abs=1e-10)


def test_min_modulus_constant_family():
    one = SeriesFamily(FamilyKind.CUSTOM, custom_log_coeffs=(0.0,))
    assert min_modulus_on_circle(one, None, 3.0) == pytest.approx(1.0, abs=1e-14)


def test_min_modulus_full_series_positive():
    m = min_modulus_on_circle(eulerF(4.0, alternating=True), None, 17.0, grid=256)
    assert m > 0.0


# ---------------------------------------------------------------------------
# s2_root_modulus
# ---------------------------------------------------------------------------

def test_s2_root_modulus_values():
    assert s2_root_modulus(4.0) == pytest.approx(math.sqrt(85.0), rel=1e-14)
    assert s2_root_modulus(3.6) == pytest.approx(
        math.sqrt(4.6 * 13.96), rel=1e-12
    )


def test_s2_root_modulus_matches_quadratic_roots():
    # direct quadratic-root oracle on 1 - z/(a+1) + z^2/((a+1)(a^2+1))
    for a in (3.6, 3.9, 4.2):
        coeffs = [1.0 / ((a + 1.0) * (a * a + 1.0)), -1.0 / (a + 1.0), 1.0]
        roots = np.roots(coeffs)
        assert abs(roots[0]) == pytest.approx(s2_root_modulus(a), rel=1e-9)


def test_s2_root_modulus_precondition():
    with pytest.raises(RealRootsError):
        s2_root_modulus(5.0)  # a^2 - 4a - 3 = 2 > 0
