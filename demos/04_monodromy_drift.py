"""Invariance of monodromy along the Hamiltonian deformation.

The Hamiltonian flow moves a singular point of the linear problem while
keeping the conjugacy class of every monodromy generator fixed.  Scaling
the Hamiltonian by 1.1 destroys the property, which makes a sharp
negative control.
"""

from painlab.catalog import flow_states
from painlab.monodromy import isomonodromy_drift, monodromy_representation
from painlab.parametrizations import assemble
from painlab.sampling import rng_from_seed, sample_params, small_state

sid = "21,21,21,21,111"
rng = rng_from_seed(12)
par = sample_params(sid, rng, generic=True)
par = {k: 0.25 * v for k, v in par.items()}
st = small_state(sid, rng, (1.7 + 0.8j, -0.6 + 0.5j))

for label, scale in (("along the Hamiltonian flow", 1.0),
                     ("with the Hamiltonian scaled by 1.1", 1.1)):
    states = flow_states(sid, 1, par, st, st.t[0] + 0.2, samples=(0.5,),
                         scale=scale, rel_tol=1e-10, abs_tol=1e-13)
    drift = isomonodromy_drift([monodromy_representation(
        assemble(sid, par, s), rel_tol=1e-10) for s in states])
    print(f"relative trace drift {label}: {drift:.3e}")
