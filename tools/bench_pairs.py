"""Benchmark this checkout against another one and write a BENCH file.

Runs ``bench/run.py`` for SECONDS seconds in alternating pairs (the
other checkout first in even pairs, this one first in odd ones) on every
workload; then VERIFY_RUNS runs of ``painlab verify all`` at VERIFY_SEED
per side, alternating in the same way; then per side one traced pass at
TRACE_SEED, which covers all three workloads, the tier-1 suite, and
``tools/sweep_margins.py`` over SWEEP_SEEDS.  It writes one JSON record:
per workload and side the median and quartiles of each end-to-end
metric with every run, and the pairs this checkout won on ``solve_s``;
per side the traced ``integrator.*`` metrics, the tier-1 wall time, each
check's median seconds with every verify run (its exit code, whether it
passed, its seconds), each verification item's thinnest margin over the
sweep with its seed and the count of items that passed at every seed,
and the hand-written and generated ``src/`` lines counted apart; and the
CPU model.  Every subprocess, on both sides, compiles painlab from its
checkout's source (:func:`source_env`), so a ``__pycache__`` left in one
checkout does not time a bytecode import against the other's compile.

Usage, from the root of the repository, with the parent commit checked
out (``git archive``) in another directory::

    python3 tools/bench_pairs.py --parent ../parent --seeds 8101-8110 \\
        --out BENCH_15.json
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

from sweep_margins import seed_range

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("flows", "monodromy", "manifolds")
END_TO_END = ("setup_s", "solve_s", "peak_rss_mb")
SECONDS = 20  # per run, as in BENCHMARK.json
TRACE_SEED = 7
VERIFY_SEED = 20260810
VERIFY_RUNS = 5  # per side: one run's check seconds spread by 2x
SWEEP_SEEDS = "1-200"
# run in a checkout: its own sweep_margins.sweep over its own src/, as JSON
SWEEP = ("import json, sys; sys.path.insert(0, 'tools'); "
         "import sweep_margins as s; "
         "worst, passed = s.sweep(list(s.verify.CHECKS), "
         "s.seed_range(sys.argv[1])); "
         "print(json.dumps({'passed': passed, 'thinnest': {k: {'margin': m, "
         "'seed': seed} for k, (m, seed) in worst.items()}}))")


@contextlib.contextmanager
def source_env(checkout):
    """The environment of a subprocess that imports painlab from the
    checkout's ``src`` and compiles it from source: no bytecode is written
    (PYTHONDONTWRITEBYTECODE), and none is read, since Python looks for it
    only under a fresh, empty PYTHONPYCACHEPREFIX, not in a ``__pycache__``
    of the checkout."""
    with tempfile.TemporaryDirectory() as prefix:
        yield dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
                   PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=prefix)


def run(checkout, *args, **kwargs):
    """``python *args`` in the checkout under :func:`source_env`, its
    output captured as text."""
    with source_env(checkout) as env:
        return subprocess.run([sys.executable, *args], cwd=checkout, env=env,
                              capture_output=True, text=True, **kwargs)


def bench(checkout, *args):
    """The last stdout line of one ``bench/run.py`` run, as JSON."""
    out = run(checkout, "bench/run.py", *args, check=True).stdout
    return json.loads(out.splitlines()[-1])


def summary(values):
    """Median, quartiles and every value, in run order."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def alternating(sides, k):
    """The side names in pair k's order: as given in even pairs, reversed
    in odd ones."""
    order = list(sides)
    return order if k % 2 == 0 else order[::-1]


def pairs(sides, workload, seeds):
    runs = {side: [] for side in sides}
    for k, seed in enumerate(seeds):
        for side in alternating(sides, k):
            out = bench(sides[side], "--workload", workload, "--seed",
                        str(seed), "--seconds", str(SECONDS))
            runs[side].append(out)
            print(f"{workload} seed {seed} {side}: solve_s "
                  f"{out['metrics']['solve_s']['value']:.4f}", flush=True)
    record = {side: {m: summary([r["metrics"][m]["value"] for r in rs])
                     for m in END_TO_END} for side, rs in runs.items()}
    for side, rs in runs.items():
        record[side]["correct"] = all(r["correct"] for r in rs)
        record[side]["failed_of_attempted"] = [
            sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)]
    parent, change = (record[side]["solve_s"]["runs"] for side in sides)
    record["change_wins_solve_s"] = sum(c < p for p, c in zip(parent, change))
    return record


def traced(checkout):
    """``integrator.*`` metrics of one traced pass (``--seconds 0``), which
    covers all three workloads."""
    out = bench(checkout, "--workload", WORKLOADS[0], "--seed",
                str(TRACE_SEED), "--seconds", "0", "--trace", "1")
    return {"correct": out["correct"],
            **{name: m["value"] for name, m in out["metrics"].items()
               if name.startswith("integrator.")}}


def tier1_seconds(checkout):
    start = time.perf_counter()
    done = run(checkout, "-m", "pytest", "-q", "-p", "no:cacheprovider")
    return {"seconds": time.perf_counter() - start,
            "summary": done.stdout.strip().splitlines()[-1]}


def verify_run(checkout):
    """One ``painlab verify all`` at VERIFY_SEED: its exit code, whether it
    passed, and each check's seconds (none if it wrote no report)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        done = run(checkout, "-m", "painlab", "verify", "all", "--seed",
                   str(VERIFY_SEED), "--out", path)
        try:
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = {"passed": False, "results": []}
    return {"exit": done.returncode, "passed": report["passed"],
            "seconds": {r["name"]: r["seconds"] for r in report["results"]}}


def verify_runs(sides):
    """Per side, each check's median seconds over VERIFY_RUNS alternating
    runs, and every run."""
    runs = {side: [] for side in sides}
    for k in range(VERIFY_RUNS):
        for side in alternating(sides, k):
            runs[side].append(verify_run(sides[side]))
    record = {}
    for side, rs in runs.items():
        names = dict.fromkeys(n for r in rs for n in r["seconds"])
        record[side] = {
            "verify_seconds": {n: statistics.median(
                r["seconds"][n] for r in rs if n in r["seconds"])
                for n in names},
            "verify_runs": rs}
    return record


def sweep(checkout):
    """Each verification item's thinnest margin over SWEEP_SEEDS and its
    seed (margin None: an exact-zero residual at every seed), and how many
    items passed at every seed (margin above 1)."""
    out = run(checkout, "-c", SWEEP, SWEEP_SEEDS, check=True).stdout
    record = json.loads(out)
    thinnest = {key: {"margin": None if math.isinf(item["margin"])
                      else item["margin"], "seed": item["seed"]}
                for key, item in record["thinnest"].items()}
    margins = [item["margin"] for item in thinnest.values()]
    return {"seeds": SWEEP_SEEDS, "passed": record["passed"],
            "items": len(margins),
            "passed_items": sum(m is None or m > 1 for m in margins),
            "thinnest": thinnest}


def lines(checkout):
    def count(pattern):
        total = 0
        for path in glob.glob(os.path.join(checkout, pattern)):
            with open(path, encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
        return total

    return {"src_painlab_py": count("src/painlab/*.py"),
            "generated_gradients": count("src/painlab/_gradients/*.py")}


def cpu_model():
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    record = {"cpu_model": cpu_model(), "seeds": list(args.seeds),
              "seconds": SECONDS, "trace_seed": TRACE_SEED,
              "verify_seed": VERIFY_SEED,
              "workloads": {w: pairs(sides, w, args.seeds)
                            for w in WORKLOADS},
              **verify_runs(sides)}
    for side, path in sides.items():
        record[side].update(traced=traced(path), tier1=tier1_seconds(path),
                            sweep=sweep(path), lines=lines(path))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
