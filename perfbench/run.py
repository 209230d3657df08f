"""lplab benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

Run from the root of a checkout; lplab is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1``
it runs the same rounds untraced and then traced and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is the result as one JSON object.  An operation that raises is
counted in ``failed`` and makes the result incorrect, since no workload
has an operation that is expected to fail.  The compare mode reads two
files of ``{"workload", "seed", "result"}`` lines, as ``sweep.py`` writes
them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# fresh interpreters timed per run for setup_s, after one discarded start
SETUP_STARTS = 15
# start-up samples for the cli.* metrics of an in-process traced run
CLI_STARTS = 7
# in-process warm-up before the timed loop, in seconds
WARMUP_S = 0.3
# share of timed rounds that meet the reported throughput and median latency
SUSTAINED_SHARE = 0.9
# seed pairs a gain needs before compare calls it better
MIN_PAIRS = 10


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile: with n samples, n - ceil(pct/100 * n)
    samples lie beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def held_by(values: List[float], share: float, higher_better: bool) -> float:
    """The value that ``share`` of ``values`` meet or beat, by nearest rank:
    with n values, ceil(share * n) of them are at least this good."""
    ordered = sorted(values, reverse=higher_better)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def min_ops(pct: float) -> int:
    """Fewest samples that leave ten beyond the ``pct`` percentile."""
    return math.ceil(10.0 / (1.0 - pct / 100.0) - 1e-9)


def cold_start_s(argv: List[str], env: Dict[str, str]) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold start {argv} failed: {proc.stderr.decode()[-300:]}")
    return elapsed


class Recorder:
    """Runs operations, timing each, and keeps every output by input key."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.outputs: Dict[tuple, list] = {}
        self.errors: Dict[tuple, str] = {}
        self.completed: List[bool] = []
        self.failed = 0
        self.round_starts: List[int] = []

    def sustained(self) -> Tuple[float, float]:
        """(throughput in ops/s, median latency in ms) that nine timed
        rounds in ten meet or beat.

        Each round gives its completed operations per second of operation
        time and its median latency.  The machine this was tuned on
        drifts between a usual state and bursts of a few to tens of
        seconds in which the same call runs up to 40 % faster.  A mean
        over a run moves with the share of bursts the run happened to
        catch; the level held in nine rounds of ten is the usual state's,
        and across ten runs it spread half as much.
        """
        bounds = self.round_starts + [len(self.latencies)]
        rates, medians = [], []
        for a, b in zip(bounds, bounds[1:]):
            rates.append(sum(self.completed[a:b]) / sum(self.latencies[a:b]))
            medians.append(statistics.median(self.latencies[a:b]) * 1e3)
        return (held_by(rates, SUSTAINED_SHARE, higher_better=True),
                held_by(medians, SUSTAINED_SHARE, higher_better=False))

    def run_op(self, key: tuple, call) -> None:
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception:  # a failed operation is counted, not fatal
            self.latencies.append(time.perf_counter() - t0)
            self.completed.append(False)
            self.failed += 1
            self.errors[key] = traceback.format_exc()
            return
        self.latencies.append(time.perf_counter() - t0)
        self.completed.append(True)
        self.outputs.setdefault(key, []).append(out)

    def run_round(self, ops) -> None:
        for key, call in ops:
            self.run_op(key, call)


def check_outputs(workload, rec: Recorder) -> List[str]:
    problems = []
    for key, outs in rec.outputs.items():
        ref = workload.reference(key)
        for out in outs:
            msg = workload.check(key, ref, out)
            if msg:
                problems.append(f"{key!r}: {msg}")
                break
    for key, err in rec.errors.items():
        print(f"perfbench: operation failed {key!r}:\n{err}", file=sys.stderr)
    return problems


def timed_rounds(ops, rec: Recorder, seconds: float, least_ops: int,
                 pauses: int, pause) -> float:
    """Whole rounds until ``seconds`` of operations have run and at least
    ``least_ops`` operations completed.  ``pause`` is called ``pauses``
    times at even intervals of operation time; its own time is excluded,
    so what it measures samples the machine across the whole run."""
    start = time.perf_counter()
    paused = 0.0
    interval = seconds / (pauses + 1)
    done = 0
    while True:
        rec.round_starts.append(len(rec.latencies))
        for key, call in ops:
            rec.run_op(key, call)
            if done < pauses and time.perf_counter() - start - paused >= (done + 1) * interval:
                t0 = time.perf_counter()
                pause()
                paused += time.perf_counter() - t0
                done += 1
        elapsed = time.perf_counter() - start - paused
        if elapsed >= seconds and len(rec.latencies) >= least_ops:
            for _ in range(pauses - done):
                pause()
            return elapsed


def warm_up(ops) -> None:
    start = time.perf_counter()
    for _, call in ops:
        call()
        if time.perf_counter() - start > WARMUP_S:
            break


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def measured_run(workload, ops, seconds: float, env) -> Tuple[Dict, Recorder]:
    cold_start_s(workload.setup_argv, env)  # compiles bytecode on a fresh checkout
    starts: List[float] = []
    if workload.in_process:
        warm_up(ops)
    rec = Recorder()
    elapsed = timed_rounds(ops, rec, seconds, min_ops(workload.tail_pct), SETUP_STARTS,
                           lambda: starts.append(cold_start_s(workload.setup_argv, env)))
    setup = statistics.median(starts)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    lat_ms = [x * 1e3 for x in rec.latencies]
    throughput, p50_ms = rec.sustained()
    metrics = {
        "throughput_ops_s": metric(throughput, "1/s"),
        "op_p50_ms": metric(p50_ms, "ms"),
        "op_tail_ms": metric(percentile(lat_ms, workload.tail_pct), "ms"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    print(f"perfbench: {workload.name}: {len(lat_ms)} ops in {len(rec.round_starts)} rounds, "
          f"{elapsed:.2f} s, tail = p{workload.tail_pct:g}", file=sys.stderr)
    return metrics, rec


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times_ms(env) -> Tuple[float, float]:
    """(lplab import, numpy import) in ms from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lplab.cli"],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    lplab_us = numpy_us = 0
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(2)), len(m.group(3)), m.group(4)
        if depth == 1 and (name == "lplab" or name.startswith("lplab.")):
            lplab_us += cumulative
        elif name == "numpy" and not numpy_us:
            numpy_us = cumulative
    return lplab_us / 1e3, numpy_us / 1e3


def startup_sample(env) -> Tuple[float, float, float, float]:
    """One bare interpreter start, one ``-X importtime`` import and one
    uninstrumented ``import lplab.cli`` start, in ms."""
    return ((cold_start_s(["-c", "pass"], env) * 1e3,) + import_times_ms(env)
            + (cold_start_s(["-c", "import lplab.cli"], env) * 1e3,))


def in_process_cli_ops(workload, rng) -> list:
    """The cli_oneshot command mix run through ``lplab.cli.main`` in this
    process, so the tracer sees the layers under each handler."""
    from lplab import cli

    def call(argv):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = cli.main(list(argv))
        return code, buf.getvalue()

    return [(tuple(argv), lambda argv=argv: call(argv)) for argv in workload.commands(rng)]


def traced_run(workload, ops, seed: int, env) -> Tuple[Dict, Recorder]:
    from tracer import Tracer

    values: Dict[str, float] = {}
    rec = Recorder()
    cold_start_s(["-c", "pass"], env)
    samples = []
    if not workload.in_process:
        # wall time of each subprocess less the report's own runtime_ms,
        # with a start-up sample after each so both see the same machine
        rest = []
        for key, call in ops:
            t0 = time.perf_counter()
            out = call()
            wall = (time.perf_counter() - t0) * 1e3
            rec.outputs.setdefault(key, []).append(out)
            if out[0] == 0:
                handler = json.loads(out[1])["runtime_ms"]
                rest.append((wall - handler, handler))
            samples.append(startup_sample(env))
        ops = in_process_cli_ops(workload, random.Random(seed))
    else:
        samples = [startup_sample(env) for _ in range(CLI_STARTS)]
    interp, imports, numpy_ms, started = (statistics.median(col) for col in zip(*samples))
    values.update({"cli.interpreter_ms": interp, "cli.import_ms": imports,
                   "cli.import_numpy_ms": numpy_ms})
    if workload.in_process:
        values["cli.handler_ms"] = 0.0
        values["cli.other_ms"] = 0.0
    else:
        values["cli.handler_ms"] = statistics.median(h for _, h in rest)
        # -X importtime inflates what it times, so the rest is taken
        # against an uninstrumented start that imports lplab.cli
        values["cli.other_ms"] = statistics.median(w for w, _ in rest) - started
    warm_up(ops)
    rounds = workload.trace_rounds
    tracer = Tracer()
    t_plain = t_traced = 0.0
    # alternate untraced and traced rounds so that drift cancels out of
    # the overhead
    for _ in range(rounds):
        t0 = time.perf_counter()
        rec.run_round(ops)
        t_plain += time.perf_counter() - t0
        with tracer:
            t0 = time.perf_counter()
            rec.run_round(ops)
            t_traced += time.perf_counter() - t0
    values.update(tracer.layer_metrics(rounds))
    n_ops = rounds * len(ops)
    values["trace.overhead_ms"] = (t_traced - t_plain) / n_ops * 1e3
    values["trace.overhead_pct"] = (t_traced / t_plain - 1.0) * 100.0
    values["trace.spans"] = len(tracer.spans) / rounds
    os.makedirs(RESULTS, exist_ok=True)
    tracer.write(os.path.join(RESULTS, f"trace-{workload.name}-seed{seed}.json"))
    units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
    return {name: metric(values[name], unit) for name, unit in units.items()}, rec


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------

def load_benchmark() -> Dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def load_results(path: str) -> Tuple[Dict[Tuple[str, str], Dict[int, float]],
                                      Dict[str, Tuple[int, int]]]:
    """Metric values by (workload, metric) and seed, and (failed,
    attempted) summed by workload."""
    values: Dict[Tuple[str, str], Dict[int, float]] = {}
    counts: Dict[str, Tuple[int, int]] = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            wl, result = rec["workload"], rec["result"]
            failed, attempted = counts.get(wl, (0, 0))
            counts[wl] = (failed + result["failed"], attempted + result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault((wl, name), {})[rec["seed"]] = m["value"]
    return values, counts


def judge(old: List[float], new: List[float], bound: float, lower_better: bool) -> str:
    """better / worse / same / unresolved for one metric on one workload.

    ``old[i]`` and ``new[i]`` are a pair: the same seed, run back to back.
    worse: the new median is worse than the old by more than the bound.
    better: at least ten pairs, the new median better by more than the old
    runs' quartile spread, and the new run winning at least nine tenths of
    the pairs.  unresolved: either side spreads wider than the bound, unless
    there are ten pairs and every new run beats every old run.  same: none
    of these.
    """
    sign = 1.0 if lower_better else -1.0
    o_med, n_med = statistics.median(old), statistics.median(new)
    o_q = statistics.quantiles(old, n=4) if len(old) > 1 else [o_med] * 3
    n_q = statistics.quantiles(new, n=4) if len(new) > 1 else [n_med] * 3
    if sign * (n_med - o_med) > bound * o_med:
        return "worse"
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) < 0)
    if len(pairs) >= MIN_PAIRS:
        if sign * (o_med - n_med) > o_q[2] - o_q[0] and wins >= 0.9 * len(pairs):
            return "better"
        if all(sign * (n - o) < 0 for o in old for n in new):
            return "better"
    if (o_q[2] - o_q[0]) > bound * o_med or (n_q[2] - n_q[0]) > bound * n_med:
        return "unresolved"
    return "same"


def compare(argv: List[str]) -> int:
    """Judge every end-to-end metric on every workload; a workload whose
    new runs fail a larger share of their operations is worse outright."""
    if len(argv) != 2:
        return fail("usage: run.py compare OLD.jsonl NEW.jsonl")
    (old, old_counts), (new, new_counts) = load_results(argv[0]), load_results(argv[1])
    bench = load_benchmark()
    worse = False
    for wl in (w["name"] for w in bench["workloads"]):
        if wl not in old_counts or wl not in new_counts:
            continue
        (o_failed, o_att), (n_failed, n_att) = old_counts[wl], new_counts[wl]
        if n_failed * o_att > o_failed * n_att:
            worse = True
            print(f"{wl:22s} {'failed':18s} {o_failed}/{o_att} -> {n_failed}/{n_att} worse")
        for m in bench["end_to_end"]:
            key = (wl, m["name"])
            if key not in old or key not in new:
                continue
            seeds = sorted(set(old[key]) & set(new[key]))
            if not seeds:
                continue
            o_vals = [old[key][s] for s in seeds]
            n_vals = [new[key][s] for s in seeds]
            verdict = judge(o_vals, n_vals, m["bound"], m["better"] == "lower")
            worse |= verdict == "worse"
            print(f"{wl:22s} {m['name']:18s} {statistics.median(o_vals):12.5g} -> "
                  f"{statistics.median(n_vals):12.5g} {m['unit']:5s} {verdict}")
    return 1 if worse else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lplab", "__init__.py")):
        return fail(f"no lplab sources under {src}")
    sys.path.insert(0, src)
    import lplab
    if not os.path.abspath(lplab.__file__).startswith(src + os.sep):
        return fail(f"imported lplab from {lplab.__file__}, not from {src}")
    import refs
    from workloads import WORKLOADS, cli_env

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](ROOT, refs.load())
    env = cli_env(ROOT)
    ops = workload.build(random.Random(args.seed))
    if args.trace:
        metrics, rec = traced_run(workload, ops, args.seed, env)
    else:
        metrics, rec = measured_run(workload, ops, args.seconds, env)
    problems = check_outputs(workload, rec)
    for p in problems:
        print(f"perfbench: wrong output {p}", file=sys.stderr)
    attempted = sum(len(v) for v in rec.outputs.values()) + rec.failed
    result = {"correct": not problems and not rec.failed, "attempted": attempted,
              "failed": rec.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
