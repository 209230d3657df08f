"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.

Criterion 4 fails by design: the interval-minimum sign test for the
Euler-type family has no transition inside the historically quoted window
[3.90145, 3.91729].  Direct evaluation (confirmed by an exact rational
sweep and by the exact re-expansion of the six-term certificate
polynomial, whose largest root is 3.96426) puts the transition at
a = 3.9642280.  The test runs the criterion as stated and reports the
measured facts.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from lplab.cli import main
from lplab.constants import c_n, critical_a, q_infinity, threshold_table
from lplab.criteria import Verdict, classify_euler, sign_test_euler
from lplab.errors import BracketError
from lplab.polyroots import (
    RealPolynomial,
    is_real_rooted,
    isolate_real_roots,
    refine,
    section_polynomial,
)
from lplab.series import FamilyKind, SeriesFamily, evaluate
from lplab.verify import check_sign_alternation, limiting_gap_margin
from lplab.zerocount import (
    count_zeros_in_disk,
    grid_min_modulus,
    rho_radius,
    s2_root_modulus,
)

Q_INF_REF = 3.23363666


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def q2(a):
    return (a * a + 1.0) / (a + 1.0)


def test_criterion_01_q_infinity(capsys):
    code = main(["constants", "--name", "q_infinity", "--tol", "1e-6"])
    doc = json.loads(capsys.readouterr().out)
    lo, hi = doc["result"]["lo"], doc["result"]["hi"]
    ok = (
        code == 0
        and hi - lo <= 1e-6
        and lo <= Q_INF_REF <= hi
        and lo - 1e-6 <= 3.233636 <= hi + 1e-6
    )
    with capsys.disabled():
        assert report(1, ok, f"q_infinity bracket [{lo:.9f}, {hi:.9f}]")


def test_criterion_02_section_constants():
    qbr = q_infinity(tol=1e-8)
    vals = {n: c_n(n, tol=1e-8).midpoint for n in range(2, 16)}
    ok_c2 = abs(vals[2] - 4.0) <= 1e-6
    ok_c3 = abs(vals[3] - 3.0) <= 1e-6
    # strictly monotone per parity until the values sink below the numeric
    # resolution floor around the full-series constant
    floor = 1e-7
    ok_order = True
    for n in range(2, 14):
        a, b = vals[n], vals[n + 2]
        near_limit = abs(a - qbr.midpoint) <= floor and abs(b - qbr.midpoint) <= floor
        if near_limit:
            continue
        ok_order &= (b < a) if n % 2 == 0 else (b > a)
    ok_tail = (
        abs(vals[14] - qbr.midpoint) <= 5e-3 and abs(vals[15] - qbr.midpoint) <= 5e-3
    )
    ok = ok_c2 and ok_c3 and ok_order and ok_tail
    assert report(
        2,
        ok,
        f"c_2={vals[2]:.7f}, c_3={vals[3]:.7f}, "
        f"|c_15 - q_inf|={abs(vals[15]-qbr.midpoint):.2e}",
    )


def test_criterion_03_threshold_polynomials():
    table = {e.name: e for e in threshold_table()}
    checks = [
        ("rouche_gap_septic", 3.16258, table["rouche_gap_septic"].computed_root),
        ("alternation_quintic", 1.57685, table["alternation_quintic"].computed_root),
        ("cubic_section_octic", 3.90155, table["cubic_section_octic"].computed_root),
        (
            "six_term_reference_deg20",
            3.91719,
            table["six_term_reference_deg20"].computed_root,
        ),
    ]
    ok = all(abs(root - ref) <= 1e-4 for _, ref, root in checks)
    broot = table["limiting_gap_poly"].computed_root
    ok &= broot <= 1.47  # the quoted 1.47 is an upper bound for this one
    assert report(
        3,
        ok,
        "roots "
        + ", ".join(f"{name}={root:.6f}" for name, _, root in checks)
        + f", limiting_gap_poly={broot:.6f} <= 1.47",
    )


def test_criterion_04_critical_parameter():
    """Bracket of width <= 1e-5 strictly inside [3.90145, 3.91729].

    Expected to fail: the predicate does not change sign in that window.
    """
    window = (3.90145, 3.91729)
    try:
        br = critical_a(tol=1e-5)
    except BracketError as exc:
        lo_margin = sign_test_euler(3.9).margin
        hi_margin = sign_test_euler(3.92).margin
        wide = critical_a(tol=1e-5, a_lo=3.9, a_hi=4.0)
        report(
            4,
            False,
            "no sign change in [3.9, 3.92]: interval minimum is "
            f"+{lo_margin:.5f} at a=3.9 and +{hi_margin:.5f} at a=3.92; "
            f"the transition sits at [{wide.lo:.7f}, {wide.hi:.7f}]",
        )
        pytest.fail(
            "criterion 4 unattainable as stated: the sign test is positive "
            f"across the whole quoted window ({exc}); the measured "
            f"transition bracket is [{wide.lo:.7f}, {wide.hi:.7f}], "
            "far outside [3.90145, 3.91729]"
        )
    ok = br.width <= 1e-5 and window[0] < br.lo and br.hi < window[1]
    assert report(4, ok, f"bracket [{br.lo:.7f}, {br.hi:.7f}]")


def test_criterion_05_circle_minimum():
    # 20 parameters with q_2 in [3, 4)
    worst = 0.0
    for a in np.linspace(3.562, 4.64, 20):
        fam = SeriesFamily(FamilyKind.EULER_F, float(a), alternating=True)
        m = grid_min_modulus(fam, 2, float(a) * float(a) + 1.0, grid=512)
        worst = max(worst, abs(m - 1.0))
    ok = worst <= 1e-8
    assert report(5, ok, f"worst |min - 1| = {worst:.2e} over 20 parameters")


def test_criterion_06_block_radius_counts():
    ok = True
    detail = []
    for a in (3.7, 4.0, 4.3):
        fam = SeriesFamily(FamilyKind.EULER_F, a)
        for j in range(4, 11):
            r = rho_radius(fam, j)
            res = count_zeros_in_disk(fam, r)
            poly = section_polynomial(fam, j + 8)
            roots = np.roots(list(poly.coeffs)[::-1])
            inside = int(np.sum(np.abs(roots) < r))
            good = res.certified and res.count == j and inside == j
            ok &= good
            if not good:
                detail.append(f"a={a}, j={j}: winding={res.count}, section={inside}")
    assert report(6, ok, "winding == section count == j" if ok else "; ".join(detail))


def test_criterion_07_two_zero_disk():
    ok = True
    details = []
    for a in (3.6, 4.0, 4.5):
        fam = SeriesFamily(FamilyKind.EULER_F, a)
        # the classical circle |z| = a^2+1 maps to |u| = q_2 in the
        # normalized variable used for counting
        res = count_zeros_in_disk(fam, q2(a))
        modulus = s2_root_modulus(a)
        ok &= res.certified and res.count == 2
        ok &= abs(modulus - math.sqrt((a + 1.0) * (a * a + 1.0))) <= 1e-9
        details.append(f"a={a}: count={res.count}, |root|={modulus:.6f}")
    assert report(7, ok, "; ".join(details))


def test_criterion_08_sign_alternation():
    res = check_sign_alternation([3.0, 3.5, 4.0, 4.6])
    bad = [f for f in res.failures if f.get("kind") == "series_sign"]
    ok = not bad
    assert report(
        8, ok, f"alternation holds for k=2..20 at 4 parameters (worst "
        f"margin {res.worst_margin:.3e})"
    )


def test_criterion_09_hutchinson_coherence():
    rep5 = classify_euler(5.0)
    ok = rep5.verdict is Verdict.IN_LP and rep5.criterion == "hutchinson"
    fam = SeriesFamily(FamilyKind.EULER_F, 5.0)
    for n in range(2, 13):
        poly = section_polynomial(fam, n)
        ok &= is_real_rooted(poly)
        brackets = isolate_real_roots(poly, (0.0, 1e9))
        ok &= len(brackets) == n  # all roots on the positive u-axis,
        # i.e. negative z for the positive-coefficient series
    rep3 = classify_euler(3.0)
    ok &= rep3.verdict is Verdict.NOT_IN_LP and rep3.criterion == "q2_necessary"
    assert report(
        9, ok,
        "a=5 InLP by hutchinson with 12 real-rooted sections; "
        "a=3 NotInLP by q2_necessary",
    )


def test_criterion_10_oracle_equivalence():
    # (a) randomized certified evaluation vs exact 60-term rational sums
    rng = np.random.default_rng(31415)
    eval_ok = True
    for _ in range(100):
        a_fr = Fraction(int(rng.integers(32, 97)), 16)
        a = float(a_fr)
        radius = rng.uniform(0.0, a**3)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        zre = Fraction(round(radius * math.cos(phi) * 512), 512)
        zim = Fraction(round(radius * math.sin(phi) * 512), 512)
        kind = [FamilyKind.EULER_F, FamilyKind.THETA, FamilyKind.EULER_H][
            int(rng.integers(0, 3))
        ]
        tre, tim = Fraction(1), Fraction(0)
        sre, sim = tre, tim
        for k in range(1, 60):
            if kind is FamilyKind.EULER_F:
                ratio = Fraction(1) / (a_fr**k + 1)
            elif kind is FamilyKind.THETA:
                ratio = Fraction(1) / a_fr ** (2 * k - 1)
            else:
                ratio = Fraction(1) / (a_fr**k - 1)
            tre, tim = (
                (tre * zre - tim * zim) * ratio,
                (tre * zim + tim * zre) * ratio,
            )
            sre += tre
            sim += tim
        res = evaluate(SeriesFamily(kind, a), complex(float(zre), float(zim)), 1e-11)
        eval_ok &= abs(res.value - complex(float(sre), float(sim))) <= (
            res.abs_error_bound + 1e-15
        )
    # (b) randomized planted-root recovery
    roots_ok = True
    pool = [Fraction(k, 2) for k in range(-16, 17)]
    for _ in range(200):
        deg = int(rng.integers(2, 13))
        picked = sorted(rng.choice(len(pool), size=deg, replace=False))
        roots = [pool[i] for i in picked]
        coeffs = [Fraction(1)]
        for r in roots:
            coeffs = [Fraction(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        p = RealPolynomial(tuple(float(c) for c in coeffs))
        brackets = isolate_real_roots(p, (-9.0, 9.0))
        roots_ok &= len(brackets) == deg
        if len(brackets) == deg:
            for br, r in zip(brackets, roots):
                roots_ok &= abs(refine(p, br, 1e-12) - float(r)) <= 1e-9
    # (c) expected-fail fixture really fails outside its hypothesis
    fixture_ok = limiting_gap_margin(2.0) < 0.0 < limiting_gap_margin(3.57)
    ok = eval_ok and roots_ok and fixture_ok
    assert report(
        10, ok,
        f"eval oracle {'ok' if eval_ok else 'FAIL'}, "
        f"root recovery {'ok' if roots_ok else 'FAIL'}, "
        f"expected-fail fixture {'ok' if fixture_ok else 'FAIL'}",
    )
