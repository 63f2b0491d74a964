"""Bit-for-bit pin of the integrator on three representative transports.

The endpoint (``float.hex`` of its real and imaginary parts), the
accepted and the rejected step counts must repeat exactly.  A change to
how the Dormand-Prince 8(5,3) stages are summed, to the starting step,
or to the order in which a rhs adds its terms, moves the bits and fails
this test, where the tolerance-based tests would still pass.  Samples do
not steer the steps, so only the sampled ``catalog_flow`` would see a
change that made them do so again.

The stepper forms its stage sums as matrix products, which numpy hands
to the BLAS library; OpenBLAS picks its kernel (and whether it fuses
multiply-adds) from the CPU at run time.  The endpoints were recorded
with numpy 2.4.6 and OpenBLAS 0.3.31 running its SkylakeX kernels on an
Intel Xeon with AVX-512; another BLAS build or CPU may move their last
bits with no change to the code.

Run ``python tests/test_integrator_bits.py`` to print the current
record as JSON.
"""

import json
from pathlib import Path

import numpy as np

from painlab import catalog
from painlab.catalog import PhaseState, flow_states
from painlab.integrator import Arc, ComplexPath, integrate, integrate_time
from painlab.monodromy import base_point
from painlab.parametrizations import assemble
from painlab.rigid import RIGID_CASES, rigid_rhs
from painlab.sampling import rng_from_seed, sample_params, sample_state
from painlab.verify import constrained_rigid_params

PIN = Path(__file__).parent / "data" / "integrator_bits_20260810.json"


def _record(traj):
    return {"end": [[z.real.hex(), z.imag.hex()]
                    for z in traj.end_state.ravel()],
            "n_steps": traj.n_steps, "n_rejected": traj.n_rejected}


def _catalog_flow():
    sid = "21,21,21,21,111"
    rng = rng_from_seed(20260810)
    par = sample_params(sid, rng, generic=True)
    st = sample_state(sid, rng, times=(1.7 + 0.8j, -0.6 + 0.5j))
    st = PhaseState(tuple(0.4 * z for z in st.q),
                    tuple(0.4 * z for z in st.p), st.t)
    trajs = []

    def keep(*args, **kwargs):
        trajs.append(integrate_time(*args, **kwargs))
        return trajs[-1]

    saved = catalog.integrate_time
    catalog.integrate_time = keep
    try:
        flow_states(sid, 1, par, st, st.t[0] + 0.2 + 0.1j,
                    samples=(0.25, 0.5), rel_tol=1e-10, abs_tol=1e-13)
    finally:
        catalog.integrate_time = saved
    (traj,) = trajs
    return traj


def _rigid_leg():
    case = RIGID_CASES["case-3131"]
    rng = rng_from_seed(20260811)
    par = constrained_rigid_params(case, rng)
    times = (1.7 + 0.6j, -0.8 + 0.5j)
    rhs = rigid_rhs(case, par, 1, times[1:])
    y0 = np.array([1.0, 0.5 - 0.25j, -0.75j, 0.25], dtype=complex)
    return integrate_time(rhs, y0, times, 1, 1.4 + 0.9j, rel_tol=1e-10,
                          abs_tol=1e-13)


def _assembled():
    sid = "22,22,211,211"
    rng = rng_from_seed(20260812)
    par = {k: 0.25 * v for k, v in
           sample_params(sid, rng, generic=True).items()}
    st = sample_state(sid, rng, times=(1.7 + 0.8j,))
    st = PhaseState(tuple(0.4 * z for z in st.q),
                    tuple(0.4 * z for z in st.p), st.t)
    return assemble(sid, par, st)


def _big_circle_transport():
    """The fundamental matrix, flattened, once clockwise about 0 through
    the default base point."""
    sys = _assembled()
    rhs, L = sys.rhs(), sys.size
    x0 = base_point(sys.points)
    circle = ComplexPath((Arc(0.0, abs(x0), float(np.angle(x0)), -2 * np.pi),),
                         singularities=sys.points, margin=None)
    return integrate(lambda x, y: rhs(x, y.reshape(L, L)).ravel(),
                     np.eye(L, dtype=complex).ravel(), circle, rel_tol=1e-10,
                     abs_tol=1e-13)


CASES = {"catalog_flow": _catalog_flow, "rigid_leg": _rigid_leg,
         "big_circle": _big_circle_transport}


def current():
    return {name: _record(run()) for name, run in CASES.items()}


def test_integrator_repeats_pinned_bits():
    assert current() == json.loads(PIN.read_text())


if __name__ == "__main__":
    print(json.dumps(current(), indent=1))
