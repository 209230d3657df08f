"""Spans around the public functions of lplab's layers, for traced runs.

``Tracer.install()`` replaces each function listed in ``LAYERS`` by a
wrapper, in its home module and under every other name an lplab module
bound to it (``from .series import evaluate`` makes ``criteria.evaluate``
a second binding).  ``Tracer.remove()`` puts the originals back.  An
untraced run never installs a tracer, so it runs lplab unchanged.

Each call records a span (name, start, end, parent) in memory; the spans
are written out once, after the run.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Dict, List

LAYERS = {
    "series": ("lplab.series", (
        "evaluate", "evaluate_many", "evaluate_section", "scaled_real_value", "tail_bound",
    )),
    "polyroots": ("lplab.polyroots", (
        "isolate_real_roots", "refine", "is_real_rooted", "count_real_roots",
        "section_polynomial",
    )),
    "zerocount": ("lplab.zerocount", (
        "count_zeros_in_disk", "min_modulus_on_circle", "grid_min_modulus", "rho_radius",
    )),
    "criteria": ("lplab.criteria", (
        "classify_euler", "necessary_q2", "hutchinson_test", "six_term_section_test",
        "sign_test_euler", "sign_test_theta", "minimize_on_interval",
    )),
    "constants": ("lplab.constants", (
        "q_infinity", "c_n", "critical_a", "threshold_table", "transition_scan",
        "bisect_predicate",
    )),
    "verify": ("lplab.verify", (
        "check_circle_minimum", "check_tail_gap", "check_block_inequalities",
        "check_sign_alternation", "check_positivity_interval", "check_cubic_min_algebra",
    )),
}

# spans that open a minimization: scalar evaluations inside them are
# checked for arguments already evaluated within the same minimization
_MINIMIZERS = ("criteria.minimize_on_interval", "zerocount.grid_min_modulus")
_SCALAR = ("series.evaluate", "series.evaluate_section", "series.scaled_real_value")
_STAGES = ("q2_necessary", "hutchinson", "six_term_section", "sign_test")


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self._stack: List[list] = []
        self._seen: List[set] = []
        self._patched: List[tuple] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        # import every home module first, so that the list below holds
        # every module that can bind a second name to a wrapped function
        homes = {layer: importlib.import_module(modname)
                 for layer, (modname, _) in LAYERS.items()}
        lplab_modules = [m for n, m in sorted(sys.modules.items())
                         if m is not None and (n == "lplab" or n.startswith("lplab."))]
        for layer, (_, names) in LAYERS.items():
            home = homes[layer]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in lplab_modules + [home]:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- recording ----------------------------------------------------------

    def _bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def _wrap(self, name: str, fn):
        tracer = self
        minimizer = name in _MINIMIZERS
        scalar = name in _SCALAR

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            if scalar and tracer._seen:
                key = (name, args, tuple(sorted(kwargs.items())))
                seen = tracer._seen[-1]
                if key in seen:
                    tracer._bump("series.repeat_points")
                seen.add(key)
            if minimizer:
                tracer._seen.append(set())
            entry = [index, 0]
            stack.append(entry)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                if minimizer:
                    tracer._seen.pop()
                tracer.spans[index] = (name, t0, t1, parent)
                if stack:
                    stack[-1][1] += t1 - t0
                tracer.self_ns[name] = tracer.self_ns.get(name, 0) + (t1 - t0 - entry[1])
                tracer._bump(name)
            tracer._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name: str, args: tuple, result) -> None:
        if name in _SCALAR:
            self._bump("series.points")
        elif name == "series.evaluate_many":
            self._bump("series.points", int(getattr(args[1], "size", len(args[1]))))
        elif name == "polyroots.isolate_real_roots":
            self._bump("polyroots.roots", len(result))
        elif name == "zerocount.count_zeros_in_disk":
            self._bump("zerocount.samples", result.samples_used)
        elif name == "constants.bisect_predicate":
            self._bump("constants.brackets")
            self._bump("constants.predicate_evals", result.evaluations)
        elif name.startswith("criteria.") and name != "criteria.classify_euler" \
                and hasattr(result, "verdict") and result.verdict.value in ("InLP", "NotInLP"):
            # classify_euler passes on the verdict of the stage it called
            stage = "sign_test" if result.criterion.startswith("sign_test") else result.criterion
            if stage in _STAGES:
                self._bump(f"criteria.decided.{stage}")

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self, rounds: int) -> Dict[str, float]:
        """Per-layer figures per round (one pass over the input list)."""
        c = lambda key: self.counts.get(key, 0) / rounds

        def calls(layer: str) -> float:
            return sum(c(f"{layer}.{f}") for f in LAYERS[layer][1])

        def self_ms(*names: str) -> float:
            return sum(self.self_ns.get(n, 0) for n in names) / 1e6 / rounds

        def layer_self_ms(layer: str) -> float:
            return self_ms(*(f"{layer}.{f}" for f in LAYERS[layer][1]))

        counts = c("zerocount.count_zeros_in_disk")
        return {
            "series.calls": calls("series"),
            "series.points": c("series.points"),
            "series.scalar_calls": sum(c(n) for n in _SCALAR),
            "series.repeat_points": c("series.repeat_points"),
            "series.self_ms": layer_self_ms("series"),
            "criteria.minimize.calls": c("criteria.minimize_on_interval"),
            "criteria.minimize.self_ms": self_ms("criteria.minimize_on_interval"),
            "criteria.decided.q2_necessary": c("criteria.decided.q2_necessary"),
            "criteria.decided.hutchinson": c("criteria.decided.hutchinson"),
            "criteria.decided.six_term_section": c("criteria.decided.six_term_section"),
            "criteria.decided.sign_test": c("criteria.decided.sign_test"),
            "constants.brackets": c("constants.brackets"),
            "constants.predicate_evals": c("constants.predicate_evals"),
            "constants.self_ms": layer_self_ms("constants"),
            "polyroots.isolate.calls": c("polyroots.isolate_real_roots"),
            "polyroots.isolate.self_ms": self_ms("polyroots.isolate_real_roots"),
            "polyroots.refine.calls": c("polyroots.refine"),
            "polyroots.refine.self_ms": self_ms("polyroots.refine"),
            "polyroots.real_rooted.self_ms": self_ms("polyroots.is_real_rooted"),
            "polyroots.roots": c("polyroots.roots"),
            "zerocount.count.calls": counts,
            "zerocount.count.self_ms": self_ms("zerocount.count_zeros_in_disk"),
            "zerocount.samples": c("zerocount.samples"),
            "zerocount.samples_per_count": c("zerocount.samples") / counts if counts else 0.0,
            "zerocount.min_modulus.self_ms": self_ms(
                "zerocount.min_modulus_on_circle", "zerocount.grid_min_modulus"),
        }

    def write(self, path: str) -> None:
        """Write the spans as JSON: start and end in ns from the first span,
        parent as the index of the parent span (-1 for a root span)."""
        base = min((s[1] for s in self.spans if s), default=0)
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_ns", "end_ns", "parent"],
                "spans": [[n, t0 - base, t1 - base, p] for n, t0, t1, p in self.spans],
            }, fh, separators=(",", ":"))
