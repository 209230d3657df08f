"""Command-line surface with machine-readable output.

Every subcommand runs exactly one operation and writes a single JSON
document (or a CSV table for the tabular commands) to stdout or --out.
All reports echo the command, its inputs, the error bounds, the runtime
and the tool version.  Exit codes: 0 success, 1 computation error,
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from . import __version__
from .errors import FloatRangeError, LplabError
from .series import _MAX_POINTS, FamilyKind, SeriesFamily, evaluate, quotients, section_sum
from .series import _linspace

if TYPE_CHECKING:
    from .criteria import CriterionReport

# Each handler imports its layer when it runs, and no layer imports numpy with
# its module: an array of points loads it at its first use.  So eval, section,
# quotients, constants --name thresholds, verify --lemma 3|6|rouche and a
# classify that a quotient criterion or the six-term certificate decides run
# without numpy.

_FAMILIES = {kind.value: kind for kind in FamilyKind if kind is not FamilyKind.CUSTOM}

# verify --lemma: the suite, named in lplab.verify, and its default a-grid;
# the cubic-minimum algebra draws its parameters from --seed instead
_LEMMAS = {
    "2": ("check_circle_minimum", "3.6:4.6:8"),
    "rouche": ("check_tail_gap", "3.2:4.6:8"),
    "3": ("check_block_inequalities", "4:4:1"),
    "6": ("check_sign_alternation", "3.0:4.6:5"),
    "positivity": ("check_positivity_interval", "3.6:4.6:5"),
    "4algebra": ("check_cubic_min_algebra", None),
}


# the argument types raise ArgumentTypeError with the expected form: on any
# other error argparse would name the function in its message

def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")
    return complex(*(_finite(part) for part in parts))


def _parse_grid(text: str) -> List[float]:
    try:
        lo, hi, steps = text.split(":")
        if not 1 <= int(steps) <= _MAX_POINTS:
            raise ValueError(f"STEPS must lie in [1, {_MAX_POINTS}]")
        return _linspace(_finite(lo), _finite(hi), int(steps))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected LO:HI:STEPS with 1 <= STEPS <= {_MAX_POINTS}, got {text!r}"
        ) from exc


def _n_max(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= _MAX_POINTS:
        raise argparse.ArgumentTypeError(f"expected 1 <= N_MAX <= {_MAX_POINTS}, got {text!r}")
    return value


def _parse_radius(text: str) -> str:
    """A finite radius or rho:J, checked here and kept as text for the echo."""
    try:
        int(text[4:]) if text.startswith("rho:") else _finite(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"expected a finite radius or rho:J, got {text!r}")
    return text


# ---------------------------------------------------------------------------
# command handlers: return (result, error_bounds)
# ---------------------------------------------------------------------------


def _family(args) -> SeriesFamily:
    return SeriesFamily(_FAMILIES[args.family], args.a)


def _run_eval(args) -> Tuple[Dict, Dict]:
    res = evaluate(_family(args), args.z, args.tol)
    return (
        {"value": res.value, "terms_used": res.terms_used},
        {"abs_error_bound": res.abs_error_bound, "rel_tol": args.tol},
    )


def _run_section(args) -> Tuple[Dict, Dict]:
    total, roundoff = section_sum(_family(args), args.n, args.z)
    return (
        {"value": total, "n": args.n},
        {"abs_error_bound": roundoff, "note": "exact truncation, roundoff only"},
    )


def _run_quotients(args) -> Tuple[Dict, Dict]:
    qv = quotients(_family(args))
    table = [{"n": n, "p": qv.p(n), "q": qv.q(n) if n >= 2 else None}
             for n in range(1, args.n_max + 1)]
    result = {"limit": qv.limit, "monotonicity": qv.monotonicity, "table": table}
    return result, {"type": "closed_form"}


def _report_result(rep: CriterionReport) -> Dict:
    return {
        "verdict": rep.verdict.value,
        "criterion": rep.criterion,
        "margin": rep.margin,
        "witness_x": rep.witness_x,
        "witness_value": rep.witness_value,
    }


def _run_classify(args) -> Tuple[Dict, Dict]:
    from .criteria import classify_euler

    rep = classify_euler(args.a, tol=args.tol)
    return _report_result(rep), {"tol": args.tol}


def _run_sign_test(args) -> Tuple[Dict, Dict]:
    from .criteria import sign_test_euler, sign_test_theta

    if args.family == "eulerF":
        if args.n is not None:
            raise LplabError("--n applies to the theta family only")
        rep = sign_test_euler(args.a, grid=args.grid)
    else:
        rep = sign_test_theta(args.a, n=args.n, grid=args.grid)
    return _report_result(rep), {"grid": args.grid}


def _run_zeros(args) -> Tuple[Dict, Dict]:
    from .zerocount import count_zeros_in_disk, rho_radius

    fam = SeriesFamily(FamilyKind.EULER_F, args.a, alternating=True)
    if args.radius.startswith("rho:"):
        j = int(args.radius.split(":", 1)[1])
        radius = rho_radius(fam, j)
        radius_spec = {"kind": "block_radius", "j": j, "value": radius}
    else:
        radius = float(args.radius)
        radius_spec = {"kind": "explicit", "value": radius}
    res = count_zeros_in_disk(fam, radius, base_samples=args.samples)
    return (
        {
            "count": res.count,
            "radius": res.radius,
            "radius_spec": radius_spec,
            "certified": res.certified,
            "samples_used": res.samples_used,
        },
        {"residual_turns": res.residual, "min_modulus_seen": res.min_modulus_seen},
    )


def _run_constants(args) -> Tuple[Dict, Dict]:
    from .constants import c_n, critical_a, q_infinity, threshold_table

    if args.name == "q_infinity":
        br = q_infinity(args.tol)
    elif args.name == "c_n":
        if args.n is None:
            raise LplabError("constants --name c_n requires --n")
        br = c_n(args.n, args.tol)
    elif args.name == "critical_a":
        br = critical_a(args.tol)
    else:
        table = [{"name": e.name, "computed_root": e.computed_root, "reference": e.reference,
                  "deviation": e.deviation} for e in threshold_table()]
        return {"thresholds": table}, {"root_tol": 1e-10}
    result = {
        "name": args.name,
        "lo": br.lo,
        "hi": br.hi,
        "midpoint": br.midpoint,
        "predicate": br.predicate,
        "pred_lo": br.pred_lo,
        "pred_hi": br.pred_hi,
        "evaluations": br.evaluations,
    }
    if br.note:
        result["note"] = br.note
    return result, {"width": br.width, "tol": args.tol}


def _run_verify(args) -> Tuple[Dict, Dict]:
    from . import verify

    suite_name, default_grid = _LEMMAS[args.lemma]
    suite = getattr(verify, suite_name)
    if default_grid is None:
        res = suite(seed=args.seed)
    else:
        res = suite(args.a_grid or _parse_grid(default_grid))
    # no applicable grid point leaves the margin at its +inf start value
    worst = res.worst_margin if math.isfinite(res.worst_margin) else None
    result = {
        "suite": res.name,
        "passed": res.passed,
        "grid_points": res.grid_points,
        "failures": res.failures,
        "inapplicable": res.inapplicable,
        "worst_margin": worst,
    }
    return result, {"worst_margin": worst}


def _run_scan(args) -> Tuple[Dict, Dict]:
    from .constants import transition_scan

    res = transition_scan(args.a_lo, args.a_hi, args.steps)
    result = {
        "single_transition": res.single_transition,
        "transition_interval": res.transition_interval,
        "points": [{"a": p.a, "min_value": p.min_value, "verdict": p.verdict} for p in res.points],
    }
    step = (args.a_hi - args.a_lo) / (args.steps - 1)
    return result, {"grid_step": step}


def _build_parser() -> argparse.ArgumentParser:
    """The one table of subcommands: each is declared with its handler and
    arguments, and the declaration order is the order of the echoed inputs."""
    top = argparse.ArgumentParser(
        prog="lplab",
        description="Zero localization and Laguerre-Polya membership tests "
        "for order-zero entire series with positive coefficients.",
    )
    top.add_argument("--version", action="version", version=f"lplab {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name: str, handler: Callable, help: str,
                table: Optional[Callable] = None) -> argparse.ArgumentParser:
        """``table`` reads the records of ``--format csv`` off the result; a
        command without one, or a result it finds none in, has no CSV form."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, table=table)
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        return p

    p = command("eval", _run_eval, "evaluate a family with a certified tail bound")
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--a", type=_finite, required=True)
    p.add_argument("--z", type=_parse_complex, required=True, metavar="RE[,IM]")
    p.add_argument("--tol", type=_finite, default=1e-12)

    p = command("section", _run_section, "evaluate a truncated section exactly")
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--a", type=_finite, required=True)
    p.add_argument("--z", type=_parse_complex, required=True, metavar="RE[,IM]")
    p.add_argument("--n", type=int, required=True)

    p = command("quotients", _run_quotients, "tabulate p_n and q_n", itemgetter("table"))
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--a", type=_finite, required=True)
    p.add_argument("--n-max", type=_n_max, required=True, dest="n_max")

    p = command("classify", _run_classify, "membership decision cascade for eulerF")
    p.add_argument("--a", type=_finite, required=True)
    p.add_argument("--tol", type=_finite, default=1e-9)

    p = command("sign-test", _run_sign_test, "interval-minimum sign test")
    p.add_argument("--family", choices=("eulerF", "theta"), required=True)
    p.add_argument("--a", type=_finite, required=True)
    p.add_argument("--n", type=int, default=None, help="theta section degree")
    p.add_argument("--grid", type=int, default=512)

    p = command("zeros", _run_zeros, "winding-number zero count for eulerF")
    p.add_argument("--a", type=_finite, required=True)
    p.add_argument(
        "--radius",
        type=_parse_radius,
        required=True,
        help="disk radius in the normalized variable, or rho:J for the "
        "J-th block radius",
    )
    p.add_argument("--samples", type=int, default=256)

    p = command("constants", _run_constants, "certified critical constants",
                lambda result: result.get("thresholds"))
    p.add_argument("--n", type=int, default=None, help="section index for c_n")
    p.add_argument("--tol", type=_finite, default=1e-6)
    p.add_argument(
        "--name",
        choices=("q_infinity", "c_n", "critical_a", "thresholds"),
        required=True,
    )

    # verify's CSV table is its one result row, each list reduced to its length
    p = command("verify", _run_verify, "run an inequality check suite",
                lambda result: [{k: len(v) if isinstance(v, list) else v
                                 for k, v in result.items()}])
    suites = ", ".join(f"{k}={s.removeprefix('check_')}" for k, (s, _) in _LEMMAS.items())
    p.add_argument("--lemma", choices=tuple(_LEMMAS), required=True, help=f"which suite: {suites}")
    p.add_argument("--a-grid", type=_parse_grid, default=None, dest="a_grid",
                   metavar="LO:HI:STEPS")
    p.add_argument("--seed", type=int, default=0)

    p = command("scan-conjecture", _run_scan, "verdict scan across a parameter range",
                itemgetter("points"))
    p.add_argument("--a-lo", type=_finite, required=True, dest="a_lo")
    p.add_argument("--a-hi", type=_finite, required=True, dest="a_hi")
    p.add_argument("--steps", type=int, required=True)

    return top


# parsed arguments that steer the output rather than the computation
_NOT_INPUTS = ("command", "handler", "table", "format", "out")


def _json_default(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    np = sys.modules.get("numpy")  # a numpy scalar exists only once numpy is loaded
    if np is not None and isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _to_json(doc) -> str:
    """The one JSON writer: complex numbers as {re, im}, numpy scalars as
    Python numbers; a non-finite number in ``doc`` is a computation error."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False, default=_json_default) + "\n"
    except ValueError as exc:
        raise FloatRangeError(f"non-finite number in the result ({exc})") from None


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    inputs = {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS and v is not None}

    def envelope(**body) -> Dict:
        runtime_ms = (time.perf_counter() - started) * 1e3
        return {"command": args.command, "inputs": inputs, **body,
                "runtime_ms": runtime_ms, "tool_version": __version__}

    try:
        result, bounds = args.handler(args)
        text = _to_json(envelope(result=result, error_bounds=bounds))
    except (LplabError, OverflowError) as exc:
        _emit(_to_json(envelope(error=str(exc), error_type=type(exc).__name__)), args.out)
        return 1
    if args.format == "csv":
        records = None if args.table is None else args.table(result)
        if records is None:
            parser.error(f"--format csv is not available for {args.command!r}")
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [list(records[0]), *(rec.values() for rec in records)]
        )
        text = buf.getvalue()
    elif args.format == "text":
        # inputs in their JSON form, then the JSON result block
        doc = json.loads(text)
        lines = [f"command: {args.command}"]
        lines += [f"  {key}: {value}" for key, value in doc["inputs"].items()]
        text = "\n".join(lines + ["result:", _to_json(doc["result"])])
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
