"""painlab benchmark: one workload per run, calibrated timings.

    python3 bench/run.py --workload flows --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; painlab is imported from its ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``solve_s``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer
ones.  Details of every run go to ``bench/out/``.  See README.md.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread: the benchmark is one single-threaded process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

# String hashing is randomized per process, and with it the layout of the
# dicts painlab's hot loops look names up in: the calibrated time of a
# flows round moved by 8% between processes with random hash seeds and by
# 2% with a fixed one.  The run re-executes itself once, in place, with a
# fixed seed, so it stays one process.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import refkernel  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

PAINLAB_MODULES = ("algebra", "catalog", "fuchsian", "integrator", "sampling",
                   "parametrizations", "monodromy", "schlesinger", "rigid",
                   "degenerations", "verify")
SETUP_REPEATS = 21
# reference-kernel time interleaved after each operation, as a share of
# the operation's own time (set-up steps are short, so they get more)
REF_SHARE = 0.25
SETUP_REF_SHARE = 0.5


class Clock:
    """Sums operation time and interleaves the reference kernel."""

    def __init__(self):
        self.op_s = 0.0
        self.ref_s = 0.0
        self.n_ref = 0

    def reference(self, seconds, share):
        n = max(1, round(share * seconds / refkernel.NOMINAL_REF_S))
        for _ in range(n):
            self.ref_s += refkernel.time_kernel()
        self.n_ref += n

    @property
    def ref_mean_s(self):
        return self.ref_s / self.n_ref

    @property
    def factor(self):
        """Calibration: nominal over measured mean reference time."""
        return refkernel.NOMINAL_REF_S / self.ref_mean_s


def import_painlab():
    """Fresh import of painlab from the checkout's src (set-up work)."""
    for name in [m for m in sys.modules
                 if m == "painlab" or m.startswith("painlab.")]:
        del sys.modules[name]
    pl = types.SimpleNamespace(**{
        m: importlib.import_module(f"painlab.{m}") for m in PAINLAB_MODULES})
    where = os.path.dirname(os.path.abspath(pl.catalog.__file__))
    if where != os.path.join(SRC, "painlab"):
        raise ImportError(f"painlab imported from {where}, not from {SRC}")
    return pl


def run_round(ops, clock):
    """Run every operation once; exceptions become the op's result."""
    results = {}
    for op_id, fn in ops:
        t0 = refkernel.clock()
        try:
            results[op_id] = fn(results)
        except Exception as exc:  # counted as a failed operation
            results[op_id] = exc
        dt = refkernel.clock() - t0
        clock.op_s += dt
        clock.reference(dt, REF_SHARE)
    return results


def same(a, b):
    """Bitwise equality of two results (dicts, arrays, exceptions)."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same(a[k], b[k]) for k in a))
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return np.array_equal(np.asarray(a), np.asarray(b))


def judge(workload, pl, inputs, results):
    """{op_id: (passed, residual or error text)} for one round."""
    verdicts = {op: (False, f"{type(r).__name__}: {r}")
                for op, r in results.items() if isinstance(r, Exception)}
    good = {op: r for op, r in results.items() if op not in verdicts}
    try:
        checked = workload.check(pl, inputs, good)
    except Exception:
        traceback.print_exc()
        checked = {op: (False, "check raised") for op in good}
    for op, (ok, residual) in checked.items():
        verdicts[op] = (bool(ok), residual)
    return verdicts


def failures(workload, verdicts):
    failed = {op for op, (ok, _) in verdicts.items() if not ok}
    return failed, failed - workload.expected_failures


def setup(workload, seed):
    """Median calibrated time of a fresh import plus input generation."""
    clock = Clock()
    raw = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # free the previous import before timing the next
        t0 = refkernel.clock()
        pl = import_painlab()
        inputs = workload.make_inputs(pl, seed)
        raw.append(refkernel.clock() - t0)
        clock.reference(raw[-1], SETUP_REF_SHARE)
    return pl, inputs, statistics.median(raw), clock


def measure(name, seed, seconds):
    workload = workloads.WORKLOADS[name]
    pl, inputs, setup_raw, setup_clock = setup(workload, seed)
    ops = workload.operations(pl, inputs)
    clock = Clock()
    first, rounds, identical = None, 0, True
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        results = run_round(ops, clock)
        rounds += 1
        if first is None:
            first = results
        else:
            identical = identical and same(first, results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts = judge(workload, pl, inputs, first)
    failed, unexpected = failures(workload, verdicts)
    metrics = {
        "setup_s": {"value": setup_raw * setup_clock.factor, "unit": "s"},
        "solve_s": {"value": clock.op_s / rounds * clock.factor, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    detail = {
        "workload": name, "seed": seed, "rounds": rounds,
        "raw": {"setup_s": setup_raw, "solve_s": clock.op_s / rounds,
                "ref_mean_s": clock.ref_mean_s,
                "setup_ref_mean_s": setup_clock.ref_mean_s},
        "identical_rounds": identical,
        "verdicts": {op: [ok, r if isinstance(r, str) else float(r)]
                     for op, (ok, r) in verdicts.items()},
    }
    print(f"{name} seed {seed}: {rounds} rounds of {len(ops)} operations; "
          f"solve_s {metrics['solve_s']['value']:.4f} "
          f"(raw {clock.op_s / rounds:.4f}), setup_s "
          f"{metrics['setup_s']['value']:.4f} (raw {setup_raw:.4f}), "
          f"reference {clock.ref_mean_s * 1e3:.4f} ms "
          f"(nominal {refkernel.NOMINAL_REF_S * 1e3:.4f} ms)")
    report_failures(verdicts, failed, unexpected, identical)
    return (not unexpected and identical, rounds * len(ops),
            rounds * len(failed), metrics, detail)


def report_failures(verdicts, failed, unexpected, identical):
    for op in sorted(failed):
        tag = "UNEXPECTED FAILURE" if op in unexpected else "known failure"
        print(f"  {tag}: {op} ({verdicts[op][1]})")
    if not identical:
        print("  rounds disagree: results are not deterministic")


def trace(name, seed, seconds):
    """Untraced and traced passes over every workload, named one first."""
    order = [name] + [w for w in workloads.WORKLOADS if w != name]
    pl = import_painlab()
    plain, traced = Clock(), Clock()
    tracer = tracing.Tracer()
    firsts, identical, passes = {}, True, 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for w in order:
            workload = workloads.WORKLOADS[w]
            inputs = workload.make_inputs(pl, seed)
            results = run_round(workload.operations(pl, inputs), plain)
            firsts.setdefault(w, (inputs, results))
        uninstall = tracing.install(pl, tracer)
        try:
            for w in order:
                workload = workloads.WORKLOADS[w]
                inputs = workload.make_inputs(pl, seed)
                results = run_round(workload.operations(pl, inputs), traced)
                identical = identical and same(firsts[w][1], results)
        finally:
            uninstall()
        passes += 1
    correct = identical
    attempted = failed = 0
    for w in order:
        workload = workloads.WORKLOADS[w]
        inputs, results = firsts[w]
        verdicts = judge(workload, pl, inputs, results)
        bad, unexpected = failures(workload, verdicts)
        report_failures(verdicts, bad, unexpected, True)
        correct = correct and not unexpected
        if w == name:
            attempted = 2 * passes * len(results)
            failed = 2 * passes * len(bad)
    metrics = tracing.layer_metrics(tracer, traced.factor)
    plain_s = plain.op_s * plain.factor / passes
    traced_s = traced.op_s * traced.factor / passes
    metrics["trace.untraced_solve_s"] = {"value": plain_s, "unit": "s"}
    metrics["trace.traced_solve_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead"] = {"value": traced_s / plain_s,
                                 "unit": "ratio"}
    os.makedirs(OUT, exist_ok=True)
    tracing.write_spans(tracer, os.path.join(
        OUT, f"trace-{name}-seed{seed}.csv.gz"))
    print(f"traced {len(tracer.names)} spans over {passes} pass(es) of "
          f"{', '.join(order)}; overhead {traced_s / plain_s:.3f} "
          f"(traced {traced_s:.3f} s vs untraced {plain_s:.3f} s)")
    if not identical:
        print("  traced results differ from untraced ones")
    detail = {"workload": name, "seed": seed, "passes": passes,
              "spans": len(tracer.names)}
    return correct, attempted, failed, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("flows", "monodromy", "manifolds"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "painlab", "__init__.py")):
        print(f"painlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run = trace if args.trace else measure
    correct, attempted, failed, metrics, detail = run(
        args.workload, args.seed, args.seconds)
    os.makedirs(OUT, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    with open(os.path.join(
            OUT, f"{args.workload}-seed{args.seed}{suffix}.json"), "w") as fh:
        json.dump({**detail, "correct": correct, "attempted": attempted,
                   "failed": failed, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
