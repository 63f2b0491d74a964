"""The verification suite: golden residuals, bounded draws, exports."""

import dataclasses
import importlib
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import painlab
from painlab import rigid, verify
from painlab.sampling import MAX_DRAWS, rng_from_seed

GOLDEN = Path(__file__).parent / "data" / "verify_details_20260810.json"


def test_checks_reproduce_golden_details_exactly():
    # exact equality: code that only restructures the derivative, matrix
    # and constraint-rate arithmetic must not move a single bit
    got = {"degeneration": verify.verify_degeneration(seed=20260810),
           "isospectral": verify.verify_isospectral(seed=20260810),
           "particular": verify.verify_particular(seed=20260810)}
    got = {name: r["details"] for name, r in got.items()}
    assert json.loads(json.dumps(got)) == json.loads(GOLDEN.read_text())


def test_unsatisfiable_parameter_constraint_raises():
    case = dataclasses.replace(rigid.RIGID_CASES["case-21x4"],
                               parameter_constraint=lambda par: 1.0)
    with pytest.raises(RuntimeError,
                       match=f"case-21x4: .* {MAX_DRAWS} draws"):
        verify.constrained_rigid_params(case, rng_from_seed(1))


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
    assert verify._eigenvalue_drift([a0], [moved]) > 1e-8  # drift_tol


def test_moved_scheme_exponent_fails_riemann_schemes(monkeypatch):
    columns = rigid.riemann_scheme_columns

    def moved(case, par):
        first, *rest = columns(case, par)
        col = (first[0][0] + 1e-7,) + tuple(first[0][1:])
        return ((col,) + tuple(first[1:]), *rest)

    monkeypatch.setattr(rigid, "riemann_scheme_columns", moved)
    r = verify.verify_riemann_schemes(seed=20260810, n_samples=2)
    assert not r["passed"]
    assert all(c["scheme_residual"] > 1e-9
               for c in r["details"]["cases"].values())


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_trace_checks_pass_at_swept_seeds(seed):
    # at each of these seeds a metric of one of the three checks failed
    # on correct code: eigenvalues paired by real part, an absolute trace
    # drift, and eigenvalues of residues with a Jordan block
    names = ["isospectral", "isomonodromy", "riemann-schemes"]
    failed = [r["name"] for r in verify.run_checks(names, seed=seed)
              if not r["passed"]]
    assert not failed
