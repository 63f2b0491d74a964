"""One deformation, two descriptions.

The headline six-dimensional system can be integrated either as a
canonical Hamiltonian flow in (q, p) or as a commutator flow on the
residue matrices of its linear problem.  After re-normalizing the
matrix-side endpoint onto the coordinate gauge slice, the two agree
entry by entry, and every residue keeps its eigenvalues on the way.
"""

import numpy as np

from painlab.catalog import flow_states
from painlab.integrator import integrate_time
from painlab.parametrizations import assemble
from painlab.sampling import rng_from_seed, sample_params, small_state
from painlab.schlesinger import realign_to_slice, schlesinger_flow_rhs

sid = "21,21,21,21,111"
rng = rng_from_seed(91)
par = sample_params(sid, rng, generic=True)
st = small_state(sid, rng, (1.8 + 0.6j, -0.9 + 0.4j))

t1 = st.t[0] + 0.3
end = flow_states(sid, 1, par, st, t1, rel_tol=1e-11)[-1]
mats_canonical = assemble(sid, par, end).residues

sys0 = assemble(sid, par, st)
trajS = integrate_time(schlesinger_flow_rhs(sys0.points, 1),
                       sys0.residues.ravel(), st.t, 1, t1, rel_tol=1e-11)
mats_raw = trajS.end_state.reshape(sys0.residues.shape)

for a0, a1 in zip(sys0.residues, mats_raw):
    drift = np.max(np.abs(np.sort_complex(np.linalg.eigvals(a0))
                          - np.sort_complex(np.linalg.eigvals(a1))))
    print(f"residue eigenvalue drift along the matrix flow: {drift:.3e}")

realigned = realign_to_slice(sid, par, mats_raw)
gap = max(np.max(np.abs(a - b)) for a, b in zip(mats_canonical, realigned))
print(f"\nendpoint matrix deviation after gauge realignment: {gap:.3e}")
