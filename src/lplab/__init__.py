"""lplab: zero localization and Laguerre-Polya membership tests for
order-zero entire series with positive Taylor coefficients.

The public names are served lazily (PEP 562): ``from lplab import
isolate_real_roots`` imports ``lplab.polyroots`` and what it needs, and no
other layer.  No layer imports numpy with its module: it is loaded at the
first array of points (a sign test's grid, a winding count), so the exact
layer, verdicts decided by scalar criteria and the scalar verify suites
start without it.
"""

import importlib

__version__ = "0.1.0"

# public name -> home module; each access goes through the home module and is
# never cached here, so a name rebound there is seen here too
_EXPORTS = {
    **dict.fromkeys((
        "EvalResult", "FamilyKind", "QuotientView", "SeriesFamily", "coefficient_log",
        "evaluate", "evaluate_section", "quotients", "tail_bound",
    ), "series"),
    **dict.fromkeys((
        "RealPolynomial", "RootBracket", "is_real_rooted", "isolate_real_roots", "refine",
        "section_polynomial",
    ), "polyroots"),
    **dict.fromkeys((
        "WindingResult", "count_zeros_in_disk", "min_modulus_on_circle", "rho_radius",
        "s2_root_modulus",
    ), "zerocount"),
    **dict.fromkeys((
        "CriterionReport", "Verdict", "classify_euler", "cubic_section_threshold",
        "hutchinson_test", "necessary_q2", "sign_test_euler", "sign_test_theta",
        "six_term_section_test",
    ), "criteria"),
    **dict.fromkeys((
        "Bracket", "c_n", "critical_a", "q_infinity", "threshold_table", "transition_scan",
    ), "constants"),
}

# submodules reachable as attributes after a bare ``import lplab``
_SUBMODULES = ("series", "polyroots", "zerocount", "criteria", "constants", "errors")

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    home = _EXPORTS.get(name)
    if home is not None:
        return getattr(importlib.import_module(f"{__name__}.{home}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))
