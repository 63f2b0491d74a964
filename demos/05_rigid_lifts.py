"""Particular solutions from rigid systems.

On an invariant submanifold, the nonlinear dynamics linearize to a
fourth-order rigid system in an auxiliary vector y.  Integrating y and
lifting back recovers a trajectory of the parent system; the printed
logarithmic-derivative rule for y0 is a free consistency check.  Each
lifted point also lies on the case's constraints, whose rates along the
parent flows vanish there.
"""

import numpy as np

from painlab.integrator import integrate_time
from painlab.rigid import RIGID_CASES, lift_residuals, rigid_rhs
from painlab.sampling import rng_from_seed
from painlab.verify import constrained_rigid_params

rng = rng_from_seed(43)
for cid, case in RIGID_CASES.items():
    par = constrained_rigid_params(case, rng)
    times = (1.7 + 0.6j, -0.8 + 0.5j)[:case.n_times]
    other = times[1:]
    t0, t1 = times[0], times[0] + 0.25
    rhs = rigid_rhs(case, par, 1, other)
    traj = integrate_time(rhs, np.array([1.0, 0.1, 0.1, 0.1], dtype=complex),
                          times, 1, t1, rel_tol=1e-11, samples=[0.5])
    field, pfaff, on, tangency = map(max, zip(*(
        lift_residuals(case, par, rhs, y, (t0 + s * (t1 - t0),) + other)
        for s, y in zip(traj.params, traj.states))))
    print(f"{cid:12s} parent {case.parent:16s} field {field:.2e}  "
          f"log-derivative rule {pfaff:.2e}  on manifold {on:.2e}  "
          f"tangency {tangency:.2e}")
