"""Bit patterns of a few outputs, frozen as float.hex.

A speed-up of the term recurrence, the minimizer, root isolation or the
winding count must leave every value, bound and bracket the same float:
these fail on any reordered operation.
"""

import hashlib
import math
import random

from lplab.constants import q_infinity
from lplab.criteria import classify_euler, sign_test_euler
from lplab.polyroots import isolate_real_roots, refine, section_polynomial
from lplab.series import (
    FamilyKind, SeriesFamily, coefficient_log, evaluate, evaluate_many, section_sum, tail_bound,
)
from lplab.zerocount import count_zeros_in_disk, rho_radius


def _hex(v):
    return (v.real.hex(), v.imag.hex()) if isinstance(v, complex) else v.hex()


# (kind, a, alternating, z) -> (value, abs_error_bound, terms_used)
EVALUATE = {
    (FamilyKind.EULER_F, 3.8, True, 5.0):
        ("0x1.1093d9639bf6cp-2", "0x1.14bbb5c5e7e90p-46", 8),
    (FamilyKind.EULER_F, 3.8, True, complex(-2.0, 7.5)):
        (("0x1.44b970ced9f37p-1", "-0x1.e22fd2d442b74p+0"), "0x1.39bf71da6376ep-45", 8),
    (FamilyKind.THETA, 1.7, False, 2.5):
        ("0x1.adef1df6c740bp+1", "0x1.82461efeaf8d3p-39", 8),
    (FamilyKind.THETA, 1.7, False, complex(-3.0, 1.0)):
        (("0x1.820a259ec62a0p-5", "0x1.1e5e9523d577ep-4"), "0x1.5386cf9c42031p-45", 9),
    (FamilyKind.EULER_H, 2.5, False, -4.0):
        ("-0x1.13a49c7e410ebp-3", "0x1.adea2815a892fp-41", 9),
    (FamilyKind.EULER_H, 2.5, False, complex(1.5, -6.0)):
        (("-0x1.ba806ed15576cp+1", "-0x1.1f8588239d7f3p+2"), "0x1.1403584984086p-43", 10),
}


def test_outputs_keep_their_bits():
    for (kind, a, alternating, z), want in EVALUATE.items():
        res = evaluate(SeriesFamily(kind, a, alternating=alternating), z)
        assert (_hex(res.value), res.abs_error_bound.hex(), res.terms_used) == want
    value, bound = section_sum(SeriesFamily(FamilyKind.EULER_F, 3.8, alternating=True), 8, 5.0)
    assert (value.hex(), bound.hex()) == ("0x1.1093d9639bf73p-2", "0x1.5b06ca66663b7p-46")
    rep = sign_test_euler(3.95)
    assert (rep.margin.hex(), rep.witness_x.hex()) == (
        "0x1.89f27127d9a01p-9", "0x1.61b77d41f419fp+3"
    )
    br = q_infinity(1e-7)
    assert (br.lo.hex(), br.hi.hex(), br.evaluations) == (
        "0x1.9de7ce1658de5p+1", "0x1.9de7cec225557p+1", 21
    )
    # it meets the bracket of the 32-point probe and bisection (51 evaluations)
    old_lo, old_hi = "0x1.9de7cdef7bdf0p+1", "0x1.9de7ce739ce74p+1"
    assert br.lo <= float.fromhex(old_hi) and float.fromhex(old_lo) <= br.hi


# ln a_k of 2,000 drawn (kind, a, k), added left to right from ln a_0 = 0.0:
# the bits of Python 3.10 and 3.11, whose sum() rounds after every term
COEFFICIENT_LOG_SHA256 = "92dcdfe5e23682e85e3866537935bc136c4d9b5fd456236c47b96476c5673814"


def test_coefficient_logs_keep_their_bits_on_every_python():
    # needs neither numpy nor pytest, so a bare Python of any version runs it
    rng = random.Random(22)
    kinds = (FamilyKind.EULER_F, FamilyKind.THETA, FamilyKind.EULER_H)
    logs = []
    for _ in range(2000):
        fam = SeriesFamily(rng.choice(kinds), rng.uniform(1.01, 8.0))
        logs.append(coefficient_log(fam, rng.randrange(200)))
    assert all(type(v) is float for v in logs)
    digest = hashlib.sha256(" ".join(v.hex() for v in logs).encode()).hexdigest()
    assert digest == COEFFICIENT_LOG_SHA256
    fam = SeriesFamily(FamilyKind.EULER_F, 3.7)
    total = 0.0
    for k in range(1, 41):
        total += fam.log_ratio(k)
        assert coefficient_log(fam, k).hex() == total.hex()
    for kind in kinds:
        fam = SeriesFamily(kind, 3.7)
        assert (type(coefficient_log(fam, 0)), type(tail_bound(fam, 0, 0.0))) == (float, float)
        assert (coefficient_log(fam, 0), tail_bound(fam, 0, 0.0)) == (0.0, 1.0)


def _digest(values, bounds):
    return hashlib.sha256(values.tobytes() + bounds.tobytes()).hexdigest()


# evaluate_many on the 512-point grid of sign_test_euler(3.8), and on 257
# points of the circle |z| = rho_6 of eulerF at a = 4.  numpy fuses the
# complex product into multiply-adds where the CPU has them (x86-64-v3 and
# up), so the circle has one digest with that product and one without.
GRID_SHA256 = "fe2d6e8a019b7e36a9c1d36f89d8da77834726204bfa44296fff6f21d8d7203b"
CIRCLE_SHA256 = (
    "2d057ba975f8cf49b1de5150b2a618938ab030d49ea154a0761131be6066831c",
    "7e9e63960bd8c028b2e015673203da12b995bbfcd2f76b0fd94b51748db3deb8",
)


def test_batches_keep_their_bits():
    import numpy as np  # the no-numpy CI job imports this module for EVALUATE

    a = 3.8
    grid = np.linspace(a + 1.0, a * a + 1.0, 514)[1:-1]
    fam = SeriesFamily(FamilyKind.EULER_F, a, alternating=True)
    assert _digest(*evaluate_many(fam, grid, 1e-13)) == GRID_SHA256
    fam = SeriesFamily(FamilyKind.EULER_F, 4.0)
    radius = rho_radius(fam, 6)
    assert radius.hex() == "0x1.99a9997ccdec8p+10"
    circle = np.array([complex(radius * math.cos(2 * math.pi * k / 257),
                               radius * math.sin(2 * math.pi * k / 257)) for k in range(257)])
    assert _digest(*evaluate_many(fam, circle)) in CIRCLE_SHA256


# classify_euler at one a per stage of its cascade: (criterion, verdict, margin)
CLASSIFY = {
    2.0: ("q2_necessary", "NotInLP", "-0x1.5555555555555p+0"),
    5.5: ("hutchinson", "InLP", "0x1.9d89d89d89d8ap-1"),
    4.3: ("six_term_section", "InLP", "-0x1.231213451867dp-4"),
    3.8: ("sign_test_euler", "NotInLP", "0x1.1988b5e668a33p-5"),
}


def test_cascade_margins_keep_their_bits():
    for a, want in CLASSIFY.items():
        rep = classify_euler(a)
        assert (rep.criterion, rep.verdict.value, rep.margin.hex()) == want


# the degree-12 eulerF section at a = 4 on (-1e7, 1e7): (lo, hi, sign_lo,
# sign_hi) of every bracket, and its root refined to 1e-12 relative
SECTION_ROOTS = [
    (("0x0.0p+0", "0x1.312d000000000p+1", 1, -1), "0x1.0424a699c51c0p+1"),
    (("0x1.312d000000000p+1", "0x1.312d000000000p+2", -1, 1), "0x1.3cde2f646c960p+1"),
    (("0x1.312d000000000p+3", "0x1.312d000000000p+4", 1, -1), "0x1.9a6d44daf07a0p+3"),
    (("0x1.312d000000000p+5", "0x1.312d000000000p+6", -1, 1), "0x1.9998c4d9288fbp+5"),
    (("0x1.312d000000000p+7", "0x1.312d000000000p+8", 1, -1), "0x1.999999cec532ap+7"),
    (("0x1.312d000000000p+9", "0x1.312d000000000p+10", -1, 1), "0x1.99999999951cep+9"),
    (("0x1.312d000000000p+11", "0x1.312d000000000p+12", 1, -1), "0x1.9999999999e19p+11"),
    (("0x1.312d000000000p+13", "0x1.312d000000000p+14", -1, 1), "0x1.99999985ff2b9p+13"),
    (("0x1.312d000000000p+15", "0x1.312d000000000p+16", 1, -1), "0x1.9999e7f34f22bp+15"),
    (("0x1.312d000000000p+17", "0x1.312d000000000p+18", -1, 1), "0x1.994bb64b414a1p+17"),
    (("0x1.312d000000000p+19", "0x1.312d000000000p+20", 1, -1), "0x1.b04ef17269175p+19"),
    (("0x1.312d000000000p+20", "0x1.312d000000000p+21", -1, 1), "0x1.0b68978de7372p+21"),
]


def test_section_roots_keep_their_bits():
    p = section_polynomial(SeriesFamily(FamilyKind.EULER_F, 4.0), 12)
    got = []
    for br in isolate_real_roots(p, (-1e7, 1e7)):
        x = refine(p, br, 1e-12 * max(1.0, abs(br.lo), abs(br.hi)))
        got.append(((br.lo.hex(), br.hi.hex(), br.sign_lo, br.sign_hi), x.hex()))
    assert got == SECTION_ROOTS


def _winding(res):
    return (res.radius.hex(), res.count, res.residual.hex(), res.min_modulus_seen.hex(),
            res.samples_used, res.certified)


# the circle through the first zero of eulerF at a = 4, counted at a retry
# radius.  The residual sums numpy's angles, and its arctan2 rounds the last
# bits one way in its AVX-512 loops and another in its AVX2 and baseline
# loops, so the count has one frozen result per loop.
ZERO_CIRCLE_WINDINGS = (
    ("0x1.0424b7a63fdd2p+1", 1, "0x1.56e2c00000000p-35", "0x1.32934b8d241e3p-23", 256, True),
    ("0x1.0424b7a63fdd2p+1", 1, "0x1.56e3000000000p-35", "0x1.32934b8d241e3p-23", 256, True),
)


def test_winding_counts_keep_their_bits():
    fam = SeriesFamily(FamilyKind.EULER_F, 4.0)
    assert _winding(count_zeros_in_disk(fam, rho_radius(fam, 6))) == (
        "0x1.99a9997ccdec8p+10", 6, "0x0.0p+0", "0x1.6e2c70148101ap+32", 256, True
    )
    p = section_polynomial(fam, 20)
    zero_u = refine(p, isolate_real_roots(p, (1.0, 2.2))[0], 1e-13)
    assert zero_u.hex() == "0x1.0424a699c5780p+1"
    assert _winding(count_zeros_in_disk(fam, zero_u)) in ZERO_CIRCLE_WINDINGS
