"""Commuting deformation flows.

A multi-time system is consistent exactly when deforming t_1 then t_2
lands at the same endpoint as t_2 then t_1.  This is the numerical
content of the claim that the Hamiltonians define one deformation.
"""

import numpy as np

from painlab.integrator import integrate_two_time
from painlab.sampling import rng_from_seed, sample_params, small_state

rng = rng_from_seed(7)
for sid in ("11,11,11,11,11", "21,21,21,21,111", "31,31,22,22,22"):
    par = sample_params(sid, rng, generic=True)
    st = small_state(sid, rng, (1.8 + 0.6j, -0.9 + 0.4j))
    ta, tb = st.t[0] + 0.2, st.t[1] + 0.2
    first = integrate_two_time(sid, par, st, 1, ta, 2, tb, rel_tol=1e-9)
    second = integrate_two_time(sid, par, st, 2, tb, 1, ta, rel_tol=1e-9)
    gap = np.max(np.abs(np.array(first.q + first.p)
                        - np.array(second.q + second.p)))
    print(f"{sid:18s} endpoint disagreement between path orders: {gap:.3e}")
