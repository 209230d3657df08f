"""The five workloads: seeded inputs, the operations, and their checks.

A workload builds one *round*: a fixed list of operations made from the
seed.  A run repeats whole rounds, so every run attempts the same mix.
Each operation carries a hashable key naming its input; ``reference``
computes the expected answer for a key apart from lplab (see oracle.py),
and ``check`` compares one output with it.  Stratified draws keep the mix
of cheap and expensive inputs the same for every seed, so that seeds move
individual inputs, not the cost of a round.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import refs

Op = Tuple[tuple, Callable[[], object]]

# relative width to which every root bracket is refined
ROOT_TOL_REL = 1e-12
# sign tests call a verdict decisive beyond this margin (lplab's default tol)
SIGN_TOL = 1e-9
# inputs are drawn at least this far from any transition of their test
CLEARANCE = 0.03


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> List[float]:
    """One uniform draw from each of ``count`` equal slices of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def _clear_of(rng: random.Random, lo: float, hi: float, avoid: Sequence[float]) -> float:
    while True:
        s = rng.uniform(lo, hi)
        if all(abs(s - t) > CLEARANCE for t in avoid):
            return s


class Workload:
    name = ""
    setup_argv: List[str] = []
    tail_pct = 99.0
    trace_rounds = 1
    in_process = True

    def __init__(self, root: str, refdata: Dict) -> None:
        self.root = root
        self.refdata = refdata

    def build(self, rng: random.Random) -> List[Op]:
        raise NotImplementedError

    def reference(self, key: tuple):
        return None

    def check(self, key: tuple, ref, out) -> Optional[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# membership_sweep
# ---------------------------------------------------------------------------

def _sign_check(rep, expected_min: float, name: str) -> Optional[str]:
    if abs(expected_min) <= 1e-6:
        return f"input too close to a transition (minimum {expected_min:.3g})"
    verdict = "InLP" if expected_min < 0 else "NotInLP"
    if rep.verdict.value != verdict:
        return f"verdict {rep.verdict.value}, expected {verdict}"
    if not rep.criterion.startswith(name):
        return f"criterion {rep.criterion}, expected {name}"
    if abs(rep.margin - expected_min) > SIGN_TOL:
        return f"margin {rep.margin!r}, reference minimum {expected_min!r}"
    return None


class MembershipSweep(Workload):
    """classify_euler over every stage of the cascade, weighted to the sign
    band, plus the eulerF and theta sign tests (full series and sections)."""

    name = "membership_sweep"
    setup_argv = ["-c", "from lplab import classify_euler, sign_test_euler, sign_test_theta"]
    tail_pct = 99.0
    trace_rounds = 10

    def build(self, rng):
        from lplab import criteria

        crit = self.refdata["critical_a"][0]
        q_inf = self.refdata["q_infinity"][0]
        c_n = {int(n): br[0] for n, br in self.refdata["c_n"].items()}
        ops: List[Op] = []

        def classify(a):
            ops.append((("classify", a), lambda: criteria.classify_euler(a)))

        for a in _strata(rng, 1.5, refs.Q2_BELOW_3 - CLEARANCE, 3):
            classify(a)
        for a in _strata(rng, refs.Q2_AT_LEAST_4 + CLEARANCE, 8.0, 3):
            classify(a)
        for a in _strata(rng, crit + CLEARANCE, refs.Q2_AT_LEAST_4 - CLEARANCE, 4):
            classify(a)
        for a in _strata(rng, refs.Q2_BELOW_3 + CLEARANCE, crit - CLEARANCE, 14):
            classify(a)
        for a in (_strata(rng, refs.Q2_BELOW_3 + CLEARANCE, crit - CLEARANCE, 8)
                  + _strata(rng, crit + CLEARANCE, 4.6, 4)):
            ops.append((("sign_euler", a), lambda a=a: criteria.sign_test_euler(a)))
        for s in _strata(rng, 2.6, q_inf - 0.05, 4) + _strata(rng, q_inf + 0.05, 4.4, 4):
            b = math.sqrt(s)
            ops.append((("sign_theta", b, None), lambda b=b: criteria.sign_test_theta(b)))
        for n in (2, 4, 5, 6, 8):
            for _ in range(2):
                b = math.sqrt(_clear_of(rng, 2.6, 4.4, [c_n[n], q_inf]))
                ops.append((("sign_theta", b, n), lambda b=b, n=n: criteria.sign_test_theta(b, n)))
        return ops

    def reference(self, key):
        import oracle

        kind, a = key[0], key[1]
        if kind == "sign_theta":
            return oracle.theta_sign_min(a, key[2])
        if kind == "sign_euler":
            return oracle.euler_sign_min(a)
        q2 = refs.q2_euler(a)
        if a < refs.Q2_BELOW_3:
            return ("q2_necessary", "NotInLP", q2 - 3.0)
        if a >= refs.Q2_AT_LEAST_4:
            return ("hutchinson", "InLP", q2 - 4.0)
        six = oracle.six_term_value(a)
        if six < -1e-6:
            return ("six_term_section", "InLP", six)
        return ("sign_test_euler", None, oracle.euler_sign_min(a))

    def check(self, key, ref, out):
        if key[0] == "sign_theta":
            return _sign_check(out, ref, "sign_test_theta")
        if key[0] == "sign_euler":
            return _sign_check(out, ref, "sign_test_euler")
        criterion, verdict, margin = ref
        if verdict is None:
            return _sign_check(out, margin, criterion)
        if (out.criterion, out.verdict.value) != (criterion, verdict):
            return f"{out.criterion}/{out.verdict.value}, expected {criterion}/{verdict}"
        if abs(out.margin - margin) > SIGN_TOL * max(1.0, abs(margin)):
            return f"margin {out.margin!r}, reference {margin!r}"
        return None


# ---------------------------------------------------------------------------
# zero_census
# ---------------------------------------------------------------------------

_J_STRATA = ((1, 3), (4, 6), (7, 10), (11, 13), (14, 17), (18, 20))


class ZeroCensus(Workload):
    """Winding counts at block radii and at radii between stored zero
    moduli, for the three families, plus circle minima."""

    name = "zero_census"
    setup_argv = ["-c", "from lplab import count_zeros_in_disk, min_modulus_on_circle, rho_radius"]
    tail_pct = 99.0
    trace_rounds = 10

    def build(self, rng):
        from lplab import series, zerocount

        ops: List[Op] = []
        pool = self.refdata["zero_moduli"]
        n_section_next = True
        for kind in ("eulerF", "theta", "eulerH"):
            for a_text in rng.sample(sorted(pool[kind]), 2):
                a = float(a_text)
                moduli = pool[kind][a_text]
                fam = series.SeriesFamily(series.FamilyKind(kind), a, alternating=True)
                for lo, hi in _J_STRATA:
                    js = [j for j in range(lo, hi + 1)
                          if refs.zero_gap(moduli, refs.block_radius(kind, a, j)) > 0.05]
                    j = rng.choice(js)
                    ops.append(((kind, a_text, "rho", j),
                                lambda fam=fam, j=j: zerocount.count_zeros_in_disk(
                                    fam, zerocount.rho_radius(fam, j))))
                for r in self._between_zeros(rng, moduli, 1, 18, 2):
                    ops.append(((kind, a_text, "radius", r),
                                lambda fam=fam, r=r: zerocount.count_zeros_in_disk(fam, r)))
                # circle minimum in the z-plane of the alternating series,
                # of the full series at one parameter and a section at the other
                n = None if n_section_next else 6
                n_section_next = not n_section_next
                r = self._between_zeros(rng, moduli, 1, 4, 1)[0] / refs.ratio(kind, a, 1)
                ops.append(((kind, a_text, "min_modulus", n, r),
                            lambda fam=fam, n=n, r=r: zerocount.min_modulus_on_circle(fam, n, r)))
        # the exact degree-2 shortcut on |z| = a^2 + 1, valid for 3 <= q_2 < 4
        a = rng.uniform(refs.Q2_BELOW_3 + CLEARANCE, refs.Q2_AT_LEAST_4 - CLEARANCE)
        fam = series.SeriesFamily(series.FamilyKind.EULER_F, a, alternating=True)
        ops.append((("eulerF", repr(a), "min_modulus", 2, a * a + 1.0),
                    lambda: zerocount.min_modulus_on_circle(fam, 2, a * a + 1.0)))
        return ops

    @staticmethod
    def _between_zeros(rng, moduli, k_lo, k_hi, count) -> List[float]:
        """Radii strictly between distinct consecutive zero moduli, drawn
        within the middle two fifths of the gap in log scale."""
        gaps = [k for k in range(k_lo, k_hi + 1)
                if moduli[k] / moduli[k - 1] > 1.2]
        out = []
        for k in rng.sample(gaps, count):
            t = rng.uniform(0.3, 0.7)
            out.append(math.exp((1 - t) * math.log(moduli[k - 1]) + t * math.log(moduli[k])))
        return out

    def reference(self, key):
        kind, a_text, what = key[:3]
        a = float(a_text)
        if what == "rho":
            moduli = self.refdata["zero_moduli"][kind][a_text]
            r = refs.block_radius(kind, a, key[3])
            return r, refs.zero_count(moduli, r)
        if what == "radius":
            moduli = self.refdata["zero_moduli"][kind][a_text]
            return key[3], refs.zero_count(moduli, key[3])
        import oracle

        n, r = key[3], key[4]
        return oracle.circle_min(kind, a, r, n), oracle.circle_scale(kind, a, r, n)

    def check(self, key, ref, out):
        if key[2] == "min_modulus":
            value, scale = ref
            if abs(out - value) > 1e-9 * max(1.0, scale):
                return f"circle minimum {out!r}, reference {value!r}"
            return None
        r, count = ref
        if abs(out.radius / r - 1.0) > 3e-6:
            return f"radius {out.radius!r}, expected {r!r}"
        if out.count != count or not out.certified:
            return f"count {out.count} (certified={out.certified}), expected {count}"
        return None


# ---------------------------------------------------------------------------
# exact_roots
# ---------------------------------------------------------------------------

# the defining polynomials of the threshold table (ascending coefficients)
# with the interval searched; the degree-20 rows are the six-term certificate
THRESHOLD_POLYS = [
    ((-1, 0, -3, -1, -1, 0, -3, 1), (1.0, 10.0)),
    ((-2, 0, -2, 2, -1, 0, 0, 2, 0, 0, -2, 1), (1.0, 2.0)),
    ((-2.0 / 9.0, 1.8, 0.0, 0.0, -2.0, 1.0), (0.5, 2.0)),
    ((-16, -40, -43, -28, -21, 12, 15, -8, 1), (3.0, 5.0)),
    ((463, 729, -226, 567, 1360, 966, 1030, 750, 1142, 1125, 1927,
      228, 846, 822, 918, 1134, 567, -594, 567, 513, -162), (3.0, 6.0)),
    ((463, 729, -226, 567, 1360, 1062, 934, 1134, 758, 1701, 1351,
      612, 462, 918, 822, 1134, 567, -450, 567, 513, -162), (3.0, 6.0)),
]

# per family: a band on each side of the real-rootedness transition
_ROOT_BANDS = {
    "eulerF": ((3.6, 3.9), (4.05, 6.0)),
    "theta": ((1.6, 1.75), (1.85, 2.4)),
    "eulerH": ((2.5, 3.2), (4.0, 5.0)),
}
# section degrees per band: one cheap section at the first parameter, the
# middle and high degrees at both.  With the six threshold polynomials as
# the other cheap inputs, the median falls inside the middle class and the
# tail percentile inside the high class, never on a class boundary.
_LOW_DEGREE, _MID_DEGREE, _HIGH_DEGREE = 5, 8, 10


def _roots_op(polyroots, poly, interval):
    brackets = polyroots.isolate_real_roots(poly, interval)
    roots = [polyroots.refine(poly, b, ROOT_TOL_REL * max(1.0, abs(b.lo), abs(b.hi)))
             for b in brackets]
    return brackets, roots, polyroots.is_real_rooted(poly)


class ExactRoots(Workload):
    """isolate_real_roots, refine of every bracket and is_real_rooted on
    section polynomials of the three families and on the threshold
    polynomials."""

    name = "exact_roots"
    setup_argv = ["-c", "from lplab import isolate_real_roots, refine, is_real_rooted, section_polynomial"]
    tail_pct = 90.0
    trace_rounds = 2

    def build(self, rng):
        from lplab import polyroots, series

        ops: List[Op] = []
        for kind, bands in _ROOT_BANDS.items():
            for band in bands:
                a1, a2 = _strata(rng, band[0], band[1], 2)
                for a, n in ((a1, _LOW_DEGREE), (a1, _MID_DEGREE), (a2, _MID_DEGREE),
                             (a1, _HIGH_DEGREE), (a2, _HIGH_DEGREE)):
                    fam = series.SeriesFamily(series.FamilyKind(kind), a)
                    poly = polyroots.section_polynomial(fam, n)
                    c = poly.coeffs
                    bound = 1.0 + max(abs(x / c[-1]) for x in c[:-1])  # Cauchy
                    interval = (-1.0, bound)
                    ops.append(((kind, a, n, c, interval),
                                lambda p=poly, i=interval: _roots_op(polyroots, p, i)))
        for coeffs, interval in THRESHOLD_POLYS:
            poly = polyroots.RealPolynomial(tuple(float(c) for c in coeffs))
            ops.append((("threshold", coeffs, interval),
                        lambda p=poly, i=interval: _roots_op(polyroots, p, i)))
        return ops

    def reference(self, key):
        import oracle

        coeffs, interval = (key[1], key[2]) if key[0] == "threshold" else (key[3], key[4])
        return oracle.exact_root_facts([float(c) for c in coeffs], *interval)

    def check(self, key, ref, out):
        import oracle

        brackets, roots, real_rooted = out
        if len(brackets) != ref["distinct_in"]:
            return f"{len(brackets)} brackets, sympy counts {ref['distinct_in']} roots"
        if real_rooted != (ref["real_with_multiplicity"] == ref["degree"]):
            return f"is_real_rooted {real_rooted}, sympy counts " \
                   f"{ref['real_with_multiplicity']} real roots of degree {ref['degree']}"
        for b, r in zip(brackets, roots):
            tol = ROOT_TOL_REL * max(1.0, abs(b.lo), abs(b.hi))
            if not oracle.straddles(ref["sqf"], r, tol):
                return f"root {r!r} is not within {tol:.3g} of an exact sign change"
        if any(y - x <= 0 for x, y in zip(roots, roots[1:])):
            return "roots are not strictly increasing"
        return None


# ---------------------------------------------------------------------------
# certified_constants
# ---------------------------------------------------------------------------

class CertifiedConstants(Workload):
    """q_infinity, c_n for several n, critical_a on a window around the
    transition, and transition_scan across it."""

    name = "certified_constants"
    setup_argv = ["-c", "from lplab import q_infinity, c_n, critical_a, transition_scan"]
    tail_pct = 90.0
    trace_rounds = 2

    def build(self, rng):
        from lplab import constants

        # Every constant costs about 50 minimizations, and a section's
        # minimization costs more as n grows: here about 45 ms for a scan,
        # 60 for critical_a, 65 for q_infinity, then 75, 105 and 135 for
        # c_4, c_6 and c_8.  The n are fixed and the tolerances stay within
        # a factor 2.5, which moves the bisection by at most two of about 50
        # steps, so a seed moves the inputs but not the cost of a round.
        # Of the ten operations the two c_8 brackets are the dearest fifth,
        # so the p90 tail falls inside them, and the median falls between
        # the critical_a and q_infinity pairs, which cost about the same.
        ops: List[Op] = []
        tol = lambda: 10.0 ** rng.uniform(-7.2, -6.8)
        for _ in range(2):
            t = tol()
            ops.append((("q_infinity", t), lambda t=t: constants.q_infinity(t)))
        for n in (4, 6, 8, 8):
            t = tol()
            ops.append((("c_n", n, t), lambda n=n, t=t: constants.c_n(n, t)))
        for _ in range(2):
            t = tol()
            lo, hi = rng.uniform(3.90, 3.95), rng.uniform(3.975, 4.02)
            ops.append((("critical_a", t, lo, hi),
                        lambda t=t, lo=lo, hi=hi: constants.critical_a(t, lo, hi)))
        for _ in range(2):
            lo, hi = rng.uniform(3.90, 3.95), rng.uniform(3.97, 4.0)
            ops.append((("scan", lo, hi, 40),
                        lambda lo=lo, hi=hi: constants.transition_scan(lo, hi, 40)))
        return ops

    def check(self, key, ref, out):
        import oracle

        if key[0] == "scan":
            return self._check_scan(key, out)
        tol = key[-1] if key[0] in ("q_infinity", "c_n") else key[1]
        if not out.hi - out.lo <= tol:
            return f"bracket width {out.hi - out.lo:.3g} above tol {tol:.3g}"
        if out.pred_lo == out.pred_hi:
            return "pred_lo equals pred_hi"
        if key[0] == "critical_a":
            verdicts = [oracle.euler_sign_min(x) <= 0.0 for x in (out.lo, out.hi)]
        else:
            n = key[1] if key[0] == "c_n" else None
            verdicts = [oracle.theta_sign_min(math.sqrt(s), n) < oracle.WITNESS for s in (out.lo, out.hi)]
        if verdicts != [out.pred_lo, out.pred_hi]:
            return f"mpmath verdicts {verdicts} at the endpoints of [{out.lo!r}, {out.hi!r}]"
        return None

    def _check_scan(self, key, out):
        lo, hi = self.refdata["critical_a"]
        for p in out.points:
            if p.a < lo - 1e-6 and p.verdict != "NotInLP" or p.a > hi + 1e-6 and p.verdict != "InLP":
                return f"scan verdict {p.verdict} at a={p.a!r}, transition at {lo!r}"
        inside = key[1] < lo and hi < key[2]
        if not out.single_transition:
            return "scan reports more than one transition"
        if inside != (out.transition_interval is not None):
            return f"transition interval {out.transition_interval}"
        if inside and not (out.transition_interval[0] <= lo and hi <= out.transition_interval[1]):
            return f"transition interval {out.transition_interval} misses {lo!r}"
        return None


# ---------------------------------------------------------------------------
# cli_oneshot
# ---------------------------------------------------------------------------

def _reject_constant(text: str):
    raise ValueError(f"non-standard JSON constant {text}")


def parse_report(text: str) -> Dict:
    """Strict JSON: NaN, Infinity and -Infinity are refused."""
    return json.loads(text, parse_constant=_reject_constant)


def cli_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliOneshot(Workload):
    """Sequential ``python -m lplab.cli`` subprocesses over a fixed mix of
    subcommands (``constants --name critical_a`` exits 1 by design and is
    left out)."""

    name = "cli_oneshot"
    setup_argv = ["-m", "lplab.cli", "--version"]
    tail_pct = 75.0
    trace_rounds = 5
    in_process = False

    def commands(self, rng) -> List[List[str]]:
        fmt = lambda x: repr(round(x, 6))
        pool = self.refdata["zero_moduli"]["eulerF"]
        zeros_a = rng.choice(sorted(pool))
        moduli = pool[zeros_a]
        k = rng.randrange(3, 12)
        radius = math.sqrt(moduli[k - 1] * moduli[k])
        return [
            ["eval", "--family", "eulerF", "--a", fmt(rng.uniform(3.6, 5.0)),
             f"--z={fmt(rng.uniform(-20.0, -1.0))}"],
            ["eval", "--family", "theta", "--a", fmt(rng.uniform(1.6, 2.4)),
             f"--z={fmt(rng.uniform(-5, 5))},{fmt(rng.uniform(-5, 5))}"],
            ["section", "--family", "theta", "--a", fmt(rng.uniform(1.6, 2.4)),
             "--n", str(rng.randrange(2, 9)), "--z", fmt(rng.uniform(1.0, 10.0))],
            ["quotients", "--family", "eulerH", "--a", fmt(rng.uniform(2.5, 5.0)), "--n-max", "12"],
            ["classify", "--a", fmt(rng.uniform(3.6, 3.9))],
            ["classify", "--a", fmt(rng.uniform(4.7, 7.0))],
            ["sign-test", "--family", "theta", "--a", fmt(math.sqrt(rng.uniform(3.3, 4.4)))],
            ["sign-test", "--family", "theta", "--a", fmt(math.sqrt(rng.uniform(2.6, 3.1))),
             "--n", str(rng.choice((4, 5, 6)))],
            ["zeros", "--a", zeros_a, "--radius", f"rho:{rng.randrange(2, 16)}"],
            ["zeros", "--a", zeros_a, "--radius", repr(radius)],
            ["constants", "--name", "thresholds"],
            ["constants", "--name", "q_infinity", "--tol", "1e-6"],
            ["constants", "--name", "c_n", "--n", str(rng.choice((4, 5, 6))), "--tol", "1e-6"],
            ["verify", "--lemma", "6"],
            ["verify", "--lemma", "4algebra", "--seed", str(rng.randrange(1000))],
            ["scan-conjecture", "--a-lo", fmt(rng.uniform(3.90, 3.95)),
             "--a-hi", fmt(rng.uniform(3.97, 4.0)), "--steps", "20"],
        ]

    def build(self, rng):
        env = cli_env(self.root)
        ops: List[Op] = []
        for argv in self.commands(rng):
            cmd = [sys.executable, "-m", "lplab.cli"] + argv
            ops.append((tuple(argv), lambda cmd=cmd: _run_cli(cmd, self.root, env)))
        return ops

    def reference(self, key):
        args = dict(zip(key[1::2], key[2::2]))
        if key[0] == "classify":
            a = float(args["--a"])
            if a >= refs.Q2_AT_LEAST_4:
                return "InLP"
            import oracle

            return "InLP" if oracle.euler_sign_min(a) < 0 else "NotInLP"
        if key[0] == "zeros":
            moduli = self.refdata["zero_moduli"]["eulerF"][args["--a"]]
            spec = args["--radius"]
            r = (refs.block_radius("eulerF", float(args["--a"]), int(spec[4:]))
                 if spec.startswith("rho:") else float(spec))
            return refs.zero_count(moduli, r)
        if key[0] == "constants" and args["--name"] != "thresholds":
            return (self.refdata["q_infinity"] if args["--name"] == "q_infinity"
                    else self.refdata["c_n"][args["--n"]])
        return None

    def check(self, key, ref, out):
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        try:
            doc = parse_report(stdout)
        except ValueError as exc:
            return f"invalid JSON: {exc}"
        if doc.get("command") != key[0] or "result" not in doc:
            return "report lacks its command or result"
        result = doc["result"]
        if key[0] == "classify" and result["verdict"] != ref:
            return f"verdict {result['verdict']}, expected {ref}"
        if key[0] == "zeros" and (result["count"] != ref or not result["certified"]):
            return f"count {result['count']}, expected {ref}"
        if ref is not None and key[0] == "constants":
            if not (result["lo"] <= ref[1] and ref[0] <= result["hi"]):
                return f"bracket [{result['lo']}, {result['hi']}] misses {ref}"
        return None


def _run_cli(cmd: List[str], cwd: str, env: Dict[str, str]) -> Tuple[int, str]:
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    return proc.returncode, proc.stdout


WORKLOADS = {w.name: w for w in (MembershipSweep, ZeroCensus, ExactRoots,
                                  CertifiedConstants, CliOneshot)}
