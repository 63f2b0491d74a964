"""The verification suite: golden residuals, the result schema, bounded
draws, exports."""

import dataclasses
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import painlab
from painlab import catalog, monodromy, rigid, verify
from painlab.cli import main
from painlab.parametrizations import SUPPORTED
from painlab.sampling import MAX_DRAWS, DrawBudgetError, rng_from_seed

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "verify_details_20260810.json"
ITEM_KEYS = {"id", "residual", "tolerance", "margin", "passed"}
# the checks whose details GOLDEN holds
GOLDEN_CHECKS = ("degeneration", "isomonodromy", "isospectral", "particular")


def test_checks_reproduce_golden_details_exactly(all_results):
    # exact equality: code that only restructures the derivative, matrix,
    # constraint-rate and series-transport arithmetic must not move a
    # single bit.  The isomonodromy entries (series transport) and the
    # flow-driven ones (isospectral, particular: DOP853 stage sums) are
    # matrix products that numpy hands to the BLAS library, which picks
    # its kernel from the CPU at run time.  They were recorded with numpy
    # 2.4.6 and OpenBLAS 0.3.31 running its SkylakeX kernels; another
    # BLAS build or CPU may move their last bits with no change to the
    # code (rank-3 generators move by up to 4.7e-15 under another
    # grouping of the product's columns).  Run ``python
    # tests/test_verify.py`` to print the current record as JSON.
    got = {name: all_results[name]["details"] for name in GOLDEN_CHECKS}
    assert json.loads(json.dumps(got)) == json.loads(GOLDEN.read_text())


def test_seconds_time_the_check_body_only(monkeypatch):
    # the first rng of a process imports numpy.random (about 17 ms); it is
    # made before the clock starts, so a check that draws little, such as
    # counts, does not read that import as its own time
    def slow_rng(seed):
        time.sleep(0.5)
        return rng_from_seed(seed)

    monkeypatch.setattr(verify, "rng_from_seed", slow_rng)
    r = verify.CHECKS["counts"]()
    assert r["passed"] and r["seconds"] < 0.25


def test_every_result_follows_the_one_schema(all_results):
    assert list(all_results) == list(verify.CHECKS)
    for name, r in all_results.items():
        assert set(r) == {"name", "passed", "seconds", "details"}
        assert set(r["details"]) == {"items", "counters"}
        items = r["details"]["items"]
        assert items and all(set(i) == ITEM_KEYS for i in items)
        ids = [i["id"] for i in items]
        assert len(set(ids)) == len(ids), name
        assert r["passed"] == all(i["passed"] for i in items)
        for i in items:
            # a passing item holds its rule at least once over, up to
            # rounding of the quotient; a failing one at most once
            if i["margin"] is None:
                assert i["residual"] == 0.0 and i["passed"]
            elif i["passed"]:
                assert i["margin"] >= 1.0
            else:
                assert not i["margin"] > 1.0
    counters = all_results["isomonodromy"]["details"]["counters"]
    assert set(counters) == {f"{sid}/{c}" for sid in verify._MONO_IDS
                             for c in ("transport_steps", "series_order")}


def test_every_check_takes_only_a_seed():
    # no option can loosen a check: its tolerances sit at its items
    for name, check in verify.CHECKS.items():
        params = inspect.signature(check, follow_wrapped=False).parameters
        assert list(params) == ["seed"], name
        assert params["seed"].default == verify.DEFAULT_SEED
        assert list(inspect.signature(check).parameters) == ["seed"], name


def test_judge_maximum_minimum_and_zero():
    assert verify._judge("a/x", 2e-7, 1e-6) == {
        "id": "a/x", "residual": 2e-7, "tolerance": 1e-6,
        "margin": 1e-6 / 2e-7, "passed": True}
    assert not verify._judge("a/x", 1e-6, 1e-6)["passed"]  # strict
    assert verify._judge("a/x", 0, 1)["margin"] is None
    nan = verify._judge("a/x", float("nan"), 1e-6)
    assert not nan["passed"]
    low = verify._judge("a/control", 5e-4, 1e-3, True)
    assert not low["passed"] and low["margin"] == 0.5
    assert verify._judge("a/control", 2e-3, 1e-3, True)["margin"] == 2.0


@pytest.fixture
def shifted_3122_lift(monkeypatch):
    """case-3122 lifted one thousandth off its manifold in q1: its field
    residual moves, its Pfaff residual (no lift in it) does not."""
    case = rigid.RIGID_CASES["case-3122"]

    def lift(w, t, par):
        q, p = case.lift(w, t, par)
        return (q[0] + 1e-3,) + tuple(q[1:]), p

    monkeypatch.setitem(rigid.RIGID_CASES, "case-3122",
                        dataclasses.replace(case, lift=lift))


def test_broken_lift_fails_exactly_its_item(shifted_3122_lift):
    r = verify.verify_particular(seed=20260810)
    assert not r["passed"]
    failing = [i["id"] for i in r["details"]["items"] if not i["passed"]]
    assert failing == ["case-3122/field_residual"]


def test_cli_fail_line_names_the_failing_item(shifted_3122_lift, tmp_path,
                                              capsys):
    out = tmp_path / "r.json"
    assert main(["verify", "particular", "--out", str(out)]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("FAIL particular (")
    assert "): case-3122/field_residual residual " in line
    assert line.endswith(" tolerance 1e-06") and line.count(";") == 0
    assert json.loads(out.read_text())["passed"] is False


def test_sweep_margins_tool_runs_one_seed():
    run = subprocess.run([sys.executable, str(ROOT / "tools" /
                                              "sweep_margins.py"),
                          "--seeds", "1", "--checks", "counts"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    n = (len(verify._COUNT_TABLE) + len(painlab.catalog.list_systems())
         + len(SUPPORTED))
    assert len(lines) == n + 1
    assert lines[0].startswith("counts:") and lines[0].endswith("inf  seed 1")
    assert lines[-1] == f"{n} items, seeds 1-1: all passed"


def test_bench_pairs_subprocesses_compile_from_source(monkeypatch):
    # an import under the tool's environment looks for bytecode only under
    # its fresh prefix, not in the tree's __pycache__, and writes none
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    bench_pairs = importlib.import_module("bench_pairs")
    with bench_pairs.source_env(str(ROOT)) as env:
        prefix = env["PYTHONPYCACHEPREFIX"]
        run = subprocess.run(
            [sys.executable, "-c",
             "import painlab.monodromy as m; print(m.__cached__)"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        cached = run.stdout.strip()
        assert cached.startswith(os.path.join(prefix, "")), cached
        assert cached.endswith(".pyc")
        assert os.listdir(prefix) == []


@pytest.mark.parametrize("args", [
    ["sweep_margins.py"],
    ["bench_pairs.py", "--parent", ".", "--out", "unused.json"]],
    ids=["sweep_margins", "bench_pairs"])
def test_empty_seed_range_is_a_usage_error(args):
    # both tools parse --seeds with sweep_margins.seed_range
    run = subprocess.run([sys.executable, str(ROOT / "tools" / args[0]),
                          *args[1:], "--seeds", "20-1"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and "Traceback" not in run.stderr
    assert run.stderr.splitlines()[-1].endswith(
        "invalid seed_range value: '20-1'")


def test_compare_reports_tool_names_a_changed_residual(tmp_path):
    paths = [tmp_path / f"{k}.json" for k in "abcd"]
    for path in paths[:2]:
        assert main(["verify", "counts", "--out", str(path)]) == 0
    report = json.loads(paths[1].read_text())
    item = report["results"][0]["details"]["items"][3]
    item["residual"] = 0.5
    paths[2].write_text(json.dumps(report))
    item["residual"] = 0.125
    paths[3].write_text(json.dumps(report))

    def compare(old, new):
        return subprocess.run([sys.executable, str(ROOT / "tools" /
                                                   "compare_reports.py"),
                               str(old), str(new)],
                              capture_output=True, text=True, timeout=60)

    same = compare(*paths[:2])
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout.startswith("0 differences over 1 checks")
    changed = compare(paths[0], paths[2])
    assert changed.returncode == 1
    lines = changed.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(f"counts:{item['id']}: ")
    assert "'residual': 0.0" in lines[0] and "'residual': 0.5" in lines[0]
    # each moved residual ends with its new/old ratio
    assert lines[0].endswith("(residual new/old inf)")
    down = compare(paths[2], paths[3]).stdout.splitlines()
    assert down[0].startswith(f"counts:{item['id']}: ")
    assert down[0].endswith("(residual new/old 0.25)")


NAN = float("nan")


def _spoil_field(real, *args):
    bind = real(*args)
    return lambda *a: lambda *z: (NAN,) * len(bind(*a)(*z))


# (check, item, where, name, call, spoil): the call-th call of where.name
# returns spoil(real, *args) instead, which puts a NaN into one term of
# the fold behind the item, past its first term
NAN_FOLDS = {
    "compat": ("compat", "11,11,11,11,11/disagreement", verify,
               "integrate_two_time", 2,
               lambda real, *a, **k: dataclasses.replace(
                   real(*a, **k), q=(NAN,) + real(*a, **k).q[1:])),
    "isospectral-deviation": (
        "isospectral", "21,21,21,21,111/matrix_deviation", verify,
        "realign_to_slice", 1,
        lambda real, *a: [m * NAN if k == 1 else m
                          for k, m in enumerate(real(*a))]),
    "eigenvalue-drift": ("isospectral", "21,21,21,21,111/eigenvalue_drift",
                         verify, "_match_multiset", 2,
                         lambda real, *a: NAN),
    "match-multiset": ("isospectral", "21,21,21,21,111/eigenvalue_drift",
                       verify, "_match_multiset", 2,
                       lambda real, values, targets: real(
                           np.append(values[:-1], NAN), targets)),
    "isomonodromy-drift": ("isomonodromy", "21,21,21,21,111/drift",
                           monodromy, "invariant_traces", 3,
                           lambda real, rep: real(rep) * NAN),
    "product-defect": ("isomonodromy", "21,21,21,21,111/product_defect",
                       monodromy.MonodromyRepresentation, "product_defect", 2,
                       lambda real, rep: NAN),
    "power-sum": ("riemann-schemes", "case-21x4/scheme_residual", verify,
                  "_power_sum_residual", 2,
                  lambda real, M, w: real(M, [NAN] + list(w)[1:])),
    "riemann-schemes": ("riemann-schemes", "case-21x4/scheme_residual",
                        verify, "_power_sum_residual", 2,
                        lambda real, *a: NAN),
    "particular-field": ("particular", "case-21x4/field_residual", rigid,
                         "lift_residuals", 2,
                         lambda real, *a: (NAN, real(*a)[1])),
    "particular-pfaff": ("particular", "case-21x4/pfaff_residual", rigid,
                         "lift_residuals", 2,
                         lambda real, *a: (real(*a)[0], NAN)),
    "symplectic": ("symplectic", "21,21,21,21,111/form_residual", verify,
                   "dual_gradient", 2,
                   lambda real, *a: (real(*a)[0],
                                     np.full_like(real(*a)[1], NAN))),
    "gradients": ("gradients", "11,11,11,11/relative_error", verify,
                  "field", 2, _spoil_field),
}


@pytest.mark.parametrize("fold", list(NAN_FOLDS))
def test_a_nan_term_fails_its_item(monkeypatch, fold):
    check, item_id, where, name, call, spoil = NAN_FOLDS[fold]
    real, calls = getattr(where, name), []

    def spoiled(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            return spoil(real, *args, **kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(where, name, spoiled)
    # the gradients check on one system only
    monkeypatch.setattr(catalog, "list_systems", lambda: ["11,11,11,11"])
    result = verify.CHECKS[check]()
    assert len(calls) >= call  # the NaN went in
    (item,) = [i for i in result["details"]["items"] if i["id"] == item_id]
    assert math.isnan(item["residual"]) and not item["passed"]
    assert not result["passed"]


def test_unsatisfiable_parameter_constraint_raises():
    case = dataclasses.replace(rigid.RIGID_CASES["case-21x4"],
                               parameter_constraint=lambda par: 1.0)
    with pytest.raises(RuntimeError,
                       match=f"case-21x4: .* {MAX_DRAWS} draws") as info:
        verify.constrained_rigid_params(case, rng_from_seed(1))
    assert isinstance(info.value, DrawBudgetError)
    assert (info.value.owner, info.value.what, info.value.draws) == (
        "case-21x4", "admissible parameters", MAX_DRAWS)


def test_every_exported_name_exists():
    mods = [painlab] + [importlib.import_module(info.name) for info in
                        pkgutil.walk_packages(painlab.__path__, "painlab.")]
    exporting = [m for m in mods if hasattr(m, "__all__")]
    assert len(exporting) >= 14  # every hand-written module was walked
    stale = [f"{m.__name__}.{name}" for m in exporting
             for name in m.__all__ if not hasattr(m, name)]
    assert not stale


def test_eigenvalue_drift_pairs_by_nearness_and_sees_a_move():
    # {0, 0, i} with real parts split by rounding noise: an order by real
    # part pairs i with 0
    a0 = np.diag([0, 0, 1j])
    reordered = np.diag([-1e-17 + 1j, 1e-17, 0])
    assert verify._eigenvalue_drift([a0], [reordered]) < 1e-16
    moved = np.diag([0, 0, 1j + 1e-7])
    assert verify._eigenvalue_drift([a0], [moved]) > 1e-8  # its tolerance


def test_moved_scheme_exponent_fails_riemann_schemes(monkeypatch):
    columns = rigid.riemann_scheme_columns

    def moved(case, par):
        first, *rest = columns(case, par)
        col = (first[0][0] + 1e-7,) + tuple(first[0][1:])
        return ((col,) + tuple(first[1:]), *rest)

    monkeypatch.setattr(rigid, "riemann_scheme_columns", moved)
    r = verify.verify_riemann_schemes(seed=20260810)
    assert not r["passed"]
    schemes = [i for i in r["details"]["items"]
               if i["id"].endswith("/scheme_residual")]
    assert len(schemes) == len(rigid.RIGID_CASES)
    assert all(i["residual"] > 1e-9 for i in schemes)


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_trace_checks_pass_at_swept_seeds(seed):
    # at each of these seeds a metric of one of the three checks failed
    # on correct code: eigenvalues paired by real part, an absolute trace
    # drift, and eigenvalues of residues with a Jordan block
    names = ["isospectral", "isomonodromy", "riemann-schemes"]
    failed = [r["name"] for r in verify.run_checks(names, seed=seed)
              if not r["passed"]]
    assert not failed


if __name__ == "__main__":
    print(json.dumps({r["name"]: r["details"] for r in verify.run_checks(
        list(GOLDEN_CHECKS), seed=verify.DEFAULT_SEED)}, indent=2,
        sort_keys=True))
