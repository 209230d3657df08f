"""Run the benchmark over several seeds, alone or against a parent tree.

    python3 perfbench/sweep.py [--seeds 1-10]
    python3 perfbench/sweep.py [--seeds 1-10] --parent PATH

Each run is a separate ``run.py`` process with the run length from
BENCHMARK.json, and every workload of BENCHMARK.json is run.  Alone, the
results go to ``perfbench/results/sweep.jsonl`` and the report gives, for
every end-to-end metric, the median of the runs and the quartile spread
(Q3 - Q1) as a share of the median, next to the metric's bound.

With ``--parent``, PATH is a checkout of the parent commit holding the same
``perfbench/`` and BENCHMARK.json as this tree.  For each workload and
seed the parent and this tree run back to back, and which goes first
alternates from seed to seed, so that both sides of a pair see the same
state of the machine.  The results go to ``perfbench/results/parent.jsonl``
and ``change.jsonl`` and are judged with ``run.py compare``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, root: str, workload: str, seed: int, out: str) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root}: exit {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    with open(out, "a") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
    print(f"{os.path.basename(out)} {workload} seed {seed}: " + " ".join(
        f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), file=sys.stderr)
    return result


def same_benchmark(parent: str) -> bool:
    names = ["BENCHMARK.json"] + [os.path.join("perfbench", f) for f in sorted(os.listdir(HERE))
                                  if os.path.isfile(os.path.join(HERE, f))]
    return all(os.path.isfile(os.path.join(parent, n))
               and filecmp.cmp(os.path.join(ROOT, n), os.path.join(parent, n), shallow=False)
               for n in names)


def spread_report(bench, results) -> None:
    for wl, runs in results.items():
        failed = {r["failed"] / r["attempted"] for r in runs}
        print(f"{wl}: failed share {sorted(failed)}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:18s} median {med:12.5g} {m['unit']:4s} "
                  f"spread {spread:6.3f} bound {m['bound']:.2f} {flag}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--parent", default=None)
    args = parser.parse_args()
    os.makedirs(RESULTS, exist_ok=True)
    seeds = parse_seeds(args.seeds)
    workloads = [w["name"] for w in bench["workloads"]]

    if args.parent is None:
        out = os.path.join(RESULTS, "sweep.jsonl")
        open(out, "w").close()
        results = {wl: [run_once(bench, ROOT, wl, s, out) for s in seeds] for wl in workloads}
        spread_report(bench, results)
        return 0

    parent = os.path.abspath(args.parent)
    if not same_benchmark(parent):
        print(f"sweep: {parent} does not hold this tree's perfbench/ and BENCHMARK.json",
              file=sys.stderr)
        return 2
    sides = [(parent, os.path.join(RESULTS, "parent.jsonl")),
             (ROOT, os.path.join(RESULTS, "change.jsonl"))]
    for _, out in sides:
        open(out, "w").close()
    for wl in workloads:
        for i, seed in enumerate(seeds):
            for root, out in (sides if i % 2 == 0 else sides[::-1]):
                run_once(bench, root, wl, seed, out)
    return subprocess.call([sys.executable, os.path.join(HERE, "run.py"), "compare",
                            sides[0][1], sides[1][1]], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
