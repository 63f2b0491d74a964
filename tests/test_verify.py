"""The verification suite: golden residuals, bounded draws, exports."""

import dataclasses
import importlib
import json
import pkgutil
from pathlib import Path

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
