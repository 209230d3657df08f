"""Certified bisection of the critical constants."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lplab import constants
from lplab.constants import (
    bisect_predicate,
    c_n,
    critical_a,
    q_infinity,
    threshold_table,
    transition_scan,
)
from lplab.criteria import sign_test_euler, sign_test_theta
from lplab.errors import BracketError, MonotonicityError, ParameterError

Q_INF = 3.2336366658766087  # frozen from an independent 70-step bisection
TRUE_SIGN_FLIP = 3.964228020751282


def test_q_infinity_bracket():
    br = q_infinity(tol=1e-6)
    assert br.width <= 1e-6
    assert br.lo <= Q_INF <= br.hi
    assert br.lo <= 3.23363666 <= br.hi
    assert not br.pred_lo and br.pred_hi


def test_q_infinity_predicate_endpoints():
    # s = a^2 = 4 is past the transition, s = 3 before it
    assert sign_test_theta(2.0).margin <= 0.0
    assert sign_test_theta(math.sqrt(3.0)).margin > 0.0


def test_theta_constants_evaluate_only_the_sign_test(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sign_test_theta(*args, **kwargs)

    monkeypatch.setattr(constants, "sign_test_theta", counting)
    for bracket in (lambda: q_infinity(1e-6), lambda: c_n(5, 1e-6)):
        calls.clear()
        br = bracket()
        assert len(calls) == br.evaluations


def test_c2_and_c3_exact_values():
    br2 = c_n(2, tol=1e-7)
    assert abs(br2.midpoint - 4.0) <= 1e-6
    br3 = c_n(3, tol=1e-7)
    assert abs(br3.midpoint - 3.0) <= 1e-6


def test_c_n_parity_ordering():
    vals = {n: c_n(n, tol=1e-8).midpoint for n in range(2, 10)}
    # even sequence decreases toward the full-series constant
    assert vals[2] > vals[4] > vals[6] > Q_INF - 1e-6
    # odd sequence increases toward it
    assert vals[3] < vals[5] < vals[7] < Q_INF + 1e-6
    # both parities are tight against the full-series constant by n = 8
    assert abs(vals[8] - Q_INF) < 1e-4
    assert abs(vals[9] - Q_INF) < 1e-6


def test_critical_a_default_window_has_no_transition():
    # the sign test is positive across the whole historically quoted window
    with pytest.raises(BracketError):
        critical_a(tol=1e-5)


def test_critical_a_widened_window_finds_transition():
    br = critical_a(tol=1e-5, a_lo=3.9, a_hi=4.0)
    assert br.width <= 1e-5
    assert br.lo <= TRUE_SIGN_FLIP <= br.hi
    assert "non-rigorous" in br.note
    assert "outside the quoted reference window" in br.note


def test_bisect_predicate_monotonicity_guard():
    with pytest.raises(MonotonicityError) as exc:
        bisect_predicate(lambda x: -math.sin(8.0 * x), 0.0, 3.0, 1e-6, "wiggle")
    assert len(exc.value.scan) == constants._PROBE_POINTS
    # a bump finer than the probe grid, where the lower end lands
    with pytest.raises(MonotonicityError) as exc:
        bisect_predicate(
            lambda x: 1.0 if 0.4955 < x < 0.4965 else x - 0.5, 0.0, 1.0, 0.01, "bump"
        )
    assert "lower end" in str(exc.value)
    assert len(exc.value.scan) == constants._PROBE_POINTS
    with pytest.raises(BracketError):
        bisect_predicate(lambda x: -1.0, 0.0, 1.0, 1e-6, "flat")
    for tol in (-1.0, 0.0, math.nan, 1e-17):
        # 1e-17 is below the float resolution near 1
        with pytest.raises(ParameterError):
            bisect_predicate(lambda x: 0.5 - x, 0.0, 1.0, tol, "badtol")


def test_bisect_predicate_simple_root():
    calls = []

    def margin(x):
        calls.append(x)
        return 2.0 - x * x

    br = bisect_predicate(margin, 0.0, 2.0, 1e-9, "sqrt2")
    assert br.lo <= math.sqrt(2.0) <= br.hi and br.width <= 1e-9
    assert not br.pred_lo and br.pred_hi
    assert len(calls) == br.evaluations
    # the 32-point probe and bisection took 58 calls
    assert br.evaluations <= 21


def test_bisect_predicate_closes_on_an_exact_zero():
    for rising in (True, False):
        calls = []

        def margin(x):
            calls.append(x)
            return x - 0.5 if rising else 0.5 - x

        br = bisect_predicate(margin, 0.0, 1.0, 0.01, "exact")
        # 12 probes, the ITP point that hits 0.5, and the two ends; falling
        # back to bisection after the hit took 21
        assert len(calls) == br.evaluations <= 15
        assert br.lo <= 0.5 <= br.hi and br.width <= 0.01
    # flat at zero on [0.47, 0.53]: the ITP point at 0.5 is zero, the end
    # 0.4 tol beyond it is still zero, and ITP goes on to the crossing 0.53
    calls = []

    def flat(x):
        calls.append(x)
        return min(x - 0.47, 0.0) + max(x - 0.53, 0.0)

    br = bisect_predicate(flat, 0.0, 1.0, 0.01, "flat")
    assert br.lo <= 0.53 <= br.hi and br.width <= 0.01
    assert br.pred_lo and not br.pred_hi
    assert len(calls) == br.evaluations


def _monotone_margin(shape, c, scale, rising):
    """A margin through c of one of several shapes: "margin <= 0" holds on
    the side of c where u = +-(x - c) is negative (and at c itself, except
    for the step)."""
    f = {
        "linear": lambda u: u,
        "cubic": lambda u: u**3,
        # like c_3's section minimum near s = 3: flat at the crossing
        "flat_steep": lambda u: u * math.sqrt(abs(u)),
        "flat_true": lambda u: 0.0 if u <= 0.0 else u * math.sqrt(u),
        "flat_false": lambda u: 1e-12 if u > 0.0 else u * math.sqrt(-u),
        "exp": lambda u: math.expm1(u),
        "step": lambda u: math.copysign(1.0, u),
    }[shape]
    return lambda x: scale * f(x - c if rising else c - x)


@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from(
        ["linear", "cubic", "flat_steep", "flat_true", "flat_false", "exp", "step"]
    ),
    lo=st.floats(-10.0, 10.0),
    span=st.floats(0.1, 100.0),
    where=st.floats(0.001, 0.999),
    scale=st.floats(1e-3, 1e3),
    rising=st.booleans(),
    digits=st.floats(0.0, 12.0),
)
def test_bisect_predicate_encloses_monotone_crossings(
    shape, lo, span, where, scale, rising, digits
):
    hi = lo + span
    c = lo + where * span
    tol = span * 10.0 ** -digits
    assume(lo < c < hi)
    base = _monotone_margin(shape, c, scale, rising)
    calls = []

    def margin(x):
        calls.append(x)
        return base(x)

    br = bisect_predicate(margin, lo, hi, tol, shape)
    assert br.width <= tol
    assert br.lo <= c <= br.hi
    assert br.pred_lo != br.pred_hi
    assert (base(br.lo) <= 0.0, base(br.hi) <= 0.0) == (br.pred_lo, br.pred_hi)
    assert len(calls) == br.evaluations
    # the probe cell as np.linspace rounds it, give or take a few ulps
    cell = span / (constants._PROBE_POINTS - 1)
    if tol >= cell * (1 + 1e-12):
        assert br.evaluations == constants._PROBE_POINTS
    else:
        # ITP reaches tol/8 within bisection's steps plus one, then two ends
        steps = math.ceil(math.log2(8.0 * cell * (1 + 1e-12) / tol)) + 1
        assert br.evaluations <= constants._PROBE_POINTS + steps + 2
    # never more than the 32-point probe and bisection to tol took
    assert br.evaluations <= 32 + max(0, math.ceil(math.log2(span / 31 / tol)))


def test_degenerate_tolerances_return_the_probe_cell():
    # q_infinity searches [3, 4], c_n [2.5, 4.5]; c_4 = 1 + sqrt(5)
    for br, span, inside in (
        (q_infinity(math.inf), 1.0, Q_INF),
        (q_infinity(1e300), 1.0, Q_INF),
        (c_n(4, 1e300), 2.0, 1.0 + math.sqrt(5.0)),
    ):
        assert br.evaluations == constants._PROBE_POINTS
        assert br.width == pytest.approx(span / (constants._PROBE_POINTS - 1))
        assert br.lo <= inside <= br.hi
        assert not br.pred_lo and br.pred_hi


# Brackets of the 32-point probe and bisection driver, as float.hex (lo, hi),
# for the same calls: each new bracket must intersect its old one.
_BISECTION_BRACKETS = {
    (10**-7.2, "q_infinity"): ("0x1.9de7cdef7bdf0p+1", "0x1.9de7ce739ce74p+1"),
    (10**-7.2, "c_4"): ("0x1.9e37794a5294cp+1", "0x1.9e3779ce739d0p+1"),
    (10**-7.2, "c_6"): ("0x1.9de7ce739ce76p+1", "0x1.9de7cef7bdefap+1"),
    (10**-7.2, "c_8"): ("0x1.9de7cdef7bdf2p+1", "0x1.9de7ce739ce76p+1"),
    (10**-7.2, "critical_a"): ("0x1.fb6bd2b45b2b4p+1", "0x1.fb6bd2fe592fep+1"),
    (1e-7, "q_infinity"): ("0x1.9de7cdef7bdf0p+1", "0x1.9de7ce739ce74p+1"),
    (1e-7, "c_4"): ("0x1.9e37794a5294cp+1", "0x1.9e3779ce739d0p+1"),
    (1e-7, "c_6"): ("0x1.9de7ce739ce76p+1", "0x1.9de7cef7bdefap+1"),
    (1e-7, "c_8"): ("0x1.9de7cdef7bdf2p+1", "0x1.9de7ce739ce76p+1"),
    (1e-7, "critical_a"): ("0x1.fb6bd26a5d26ap+1", "0x1.fb6bd2fe592fep+1"),
    (10**-6.8, "q_infinity"): ("0x1.9de7cd6b5ad6cp+1", "0x1.9de7ce739ce74p+1"),
    (10**-6.8, "c_4"): ("0x1.9e3778c6318c8p+1", "0x1.9e3779ce739d0p+1"),
    (10**-6.8, "c_6"): ("0x1.9de7ce739ce76p+1", "0x1.9de7cf7bdef7ep+1"),
    (10**-6.8, "c_8"): ("0x1.9de7cd6b5ad6ep+1", "0x1.9de7ce739ce76p+1"),
    (10**-6.8, "critical_a"): ("0x1.fb6bd26a5d26ap+1", "0x1.fb6bd39255392p+1"),
}


def test_bracket_ends_clear_the_crossing_and_meet_the_bisection_brackets():
    theta = lambda n: (lambda s: sign_test_theta(math.sqrt(s), n).margin + constants._WITNESS_FLOOR)
    runs = {
        "q_infinity": (lambda t: q_infinity(t), theta(None)),
        "c_4": (lambda t: c_n(4, t), theta(4)),
        "c_6": (lambda t: c_n(6, t), theta(6)),
        "c_8": (lambda t: c_n(8, t), theta(8)),
        "critical_a": (lambda t: critical_a(t, 3.92, 3.99), lambda a: sign_test_euler(a).margin),
    }
    for (tol, name), (old_lo, old_hi) in _BISECTION_BRACKETS.items():
        bracket, margin = runs[name]
        br = bracket(tol)
        assert br.width <= tol and not br.pred_lo and br.pred_hi
        for x in (br.lo, br.hi):
            assert abs(margin(x)) >= 1e-10, (name, tol, x)
        assert br.lo <= float.fromhex(old_hi) and float.fromhex(old_lo) <= br.hi, (name, tol)


def test_threshold_table_values():
    table = {e.name: e for e in threshold_table()}
    assert table["rouche_gap_septic"].computed_root == pytest.approx(
        3.1625822466326916, abs=1e-9
    )
    assert table["rouche_gap_septic"].deviation <= 1e-4
    # quoted 1.47 is a safe upper bound for this one, not a 5-digit root
    e = table["limiting_gap_poly"]
    assert e.computed_root == pytest.approx(1.4655712318767682, abs=1e-9)
    assert e.computed_root <= 1.47
    assert table["alternation_quintic"].computed_root == pytest.approx(
        1.5768510873341182, abs=1e-9
    )
    assert table["alternation_quintic"].deviation <= 1e-4
    assert table["cubic_section_octic"].computed_root == pytest.approx(
        3.9015496781605448, abs=1e-9
    )
    assert table["cubic_section_octic"].deviation <= 1e-4
    assert table["six_term_reference_deg20"].computed_root == pytest.approx(
        3.9171769232810245, abs=1e-8
    )
    assert table["six_term_reference_deg20"].deviation <= 1e-4
    # the exact re-expansion puts the certificate threshold near 3.96426
    assert table["six_term_exact_deg20"].computed_root == pytest.approx(
        3.9642600256809155, abs=1e-8
    )
    assert table["six_term_exact_deg20"].reference is None


def test_transition_scan_single_flip():
    res = transition_scan(3.8, 4.0, 50, grid=256)
    assert res.single_transition
    lo, hi = res.transition_interval
    assert lo <= TRUE_SIGN_FLIP <= hi


def test_transition_scan_one_sided_regions():
    res = transition_scan(4.0, 4.6, 12, grid=256)
    assert all(p.verdict == "InLP" for p in res.points)
    assert res.single_transition
    assert res.transition_interval is None
    res = transition_scan(3.6, 3.9, 12, grid=256)
    assert all(p.verdict == "NotInLP" for p in res.points)


def test_transition_scan_rejects_reversed_and_empty_ranges(monkeypatch):
    def no_sign_test(*args):
        raise AssertionError("ran a sign test")

    monkeypatch.setattr(constants, "sign_test_euler", no_sign_test)
    for a_lo, a_hi in ((3.98, 3.9), (3.9, 3.9)):
        with pytest.raises(ParameterError, match="a_lo < a_hi"):
            transition_scan(a_lo, a_hi, 10)


def test_transition_scan_caps_steps_before_any_allocation(monkeypatch):
    def no_grid(*args):
        raise AssertionError("built the grid")

    monkeypatch.setattr(constants, "_linspace", no_grid)
    for steps in (9, 2**20 + 1):
        with pytest.raises(ParameterError, match=r"steps must lie in \[10, 1048576\]"):
            transition_scan(3.9, 4.0, steps)
