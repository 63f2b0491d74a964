"""The benchmark's checks have power: each rejects a known-wrong result.

Run with ``python3 -m pytest bench/test_bench_checks.py`` from the root
of the repository.
"""

import dataclasses
import os
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from painlab import (algebra, catalog, degenerations, fuchsian,  # noqa: E402
                     integrator, monodromy, parametrizations, rigid,
                     sampling, schlesinger, verify)


@pytest.fixture(scope="module")
def pl():
    return types.SimpleNamespace(
        algebra=algebra, catalog=catalog, degenerations=degenerations,
        fuchsian=fuchsian, integrator=integrator, monodromy=monodromy,
        parametrizations=parametrizations, rigid=rigid, sampling=sampling,
        schlesinger=schlesinger, verify=verify)


def _published_lift(y, t, par):
    # the case-3122 lift on the published manifold q1 p1 = +alpha1
    y0, y1, y2, y3 = y
    (tt,) = t
    a1, eta = par["alpha1"], par["eta"]
    p1 = -y1 / (tt * y0)
    p3 = eta * y3 / (tt * y1)
    p2 = -(y2 + y3) / (tt * y0)
    return (a1 / p1, 0.0, 0.0), (p1, p2, p3)


def test_published_sign_lift_fails_manifolds_check(pl):
    inputs = workloads.manifolds_inputs(pl, 1)
    repaired = next(r for r in inputs["lifts"]
                    if r.case.case_id == "case-3122")
    published = dataclasses.replace(
        repaired, key="case-3122:published",
        case=dataclasses.replace(repaired.case, lift=_published_lift))
    checked = {"lifts": [repaired, published], "rule_seeds": []}
    results = {f"lift:{r.key}": workloads._lift(pl, r)({})
               for r in (repaired, published)}
    verdicts = workloads.manifolds_check(pl, checked, results)
    assert verdicts[f"lift:{repaired.key}"][0]
    ok, residual = verdicts["lift:case-3122:published"]
    assert not ok and residual > 1e3 * workloads.LIFT_TOL


def test_perturbed_generator_fails_closed_form_check(pl):
    inputs = [m for m in workloads.monodromy_inputs(pl, 1)
              if m.sid == "21,21,21,21,111"]
    op_id = "rep:21,21,21,21,111:0"
    rep = workloads._representation(pl, inputs[0], None)({})
    assert workloads.monodromy_check(pl, inputs, {op_id: rep})[op_id][0]
    bent = dict(rep, generators=rep["generators"].copy())
    m = bent["generators"][1]
    rng = np.random.default_rng(0)
    m += 1e-5 * np.max(np.abs(m)) * (rng.normal(size=m.shape)
                                     + 1j * rng.normal(size=m.shape))
    ok, residual = workloads.monodromy_check(pl, inputs, {op_id: bent})[op_id]
    assert not ok and residual > 10 * workloads.GENERATOR_TOL


def test_scaled_flow_fails_endpoint_check(pl):
    inputs = [s for s in workloads.flows_inputs(pl, 1)
              if s.sid == "11,11,11,11"]
    op_id = "flow:11,11,11,11:1"
    exact = workloads._flow(pl, inputs[0], 1)({})
    scaled = workloads._flow(pl, inputs[0], 1, scale=1.1)({})
    assert workloads.flows_check(pl, inputs, {op_id: exact})[op_id][0]
    ok, gap = workloads.flows_check(pl, inputs, {op_id: scaled})[op_id]
    assert not ok and gap > 1e3 * workloads.FLOW_CHECK_TOL


def test_reference_kernel_imports_nothing_from_painlab():
    code = ("import sys; import refkernel; refkernel.reference_kernel(); "
            "print(sorted(m for m in sys.modules if 'painlab' in m))")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": HERE})
    assert out.stdout.strip() == "[]"
