"""Bit-for-bit pin of every catalog flow field.

For each of the catalog's flows ``(sid, i)``, on five seeded draws of
parameters and state, the sha256 of these outputs must repeat exactly:
``flow_rhs`` at ``scale`` 1.0 and 1.1, each at z = t_i and at a moved
z, and ``vector_field``.  A change to the order in which the generated
gradients multiply or add, to which subexpressions they share, or to
how the callers scale and sign the partials, moves the bits and fails
this test, where the tolerance-based tests of ``test_gradients.py``
would still pass.

The fields are plain Python complex arithmetic, with no BLAS call, so
the record does not depend on the BLAS build.

Run ``python tests/test_flow_field_bits.py`` to print the current
record as JSON.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from painlab.catalog import CATALOG, flow_rhs, vector_field
from painlab.sampling import rng_from_seed, sample_params, sample_state

PIN = Path(__file__).parent / "data" / "flow_field_bits_20260810.json"

FLOWS = [(sid, i) for sid, desc in CATALOG.items()
         for i in range(1, desc.n_times + 1)]
DRAWS = 5
MOVE = 0.125 - 0.0625j  # the moved z is t_i + MOVE


def _digest(sid, i):
    rng = rng_from_seed(20260810)
    outputs = []
    for _ in range(DRAWS):
        par = sample_params(sid, rng)
        st = sample_state(sid, rng)
        y = np.array(st.q + st.p, dtype=complex)
        ti = st.t[i - 1]
        for scale in (1.0, 1.1):
            rhs = flow_rhs(sid, i, par, st.t, scale=scale)
            outputs += [rhs(ti, y), rhs(ti + MOVE, y)]
        dq, dp = vector_field(sid, i, par, st)
        outputs.append(np.array(dq + dp, dtype=complex))
    return hashlib.sha256(np.concatenate(outputs).tobytes()).hexdigest()


def current():
    return {f"{sid}:{i}": _digest(sid, i) for sid, i in FLOWS}


def test_flow_fields_repeat_pinned_bits():
    assert current() == json.loads(PIN.read_text())


if __name__ == "__main__":
    print(json.dumps(current(), indent=1))
