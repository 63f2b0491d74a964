"""Generated gradients: agreement with Dual, lazy loading, freshness."""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

import painlab
from painlab._gradients import gradient, module_name
from painlab.algebra import dual_gradient
from painlab.catalog import CATALOG, HAMILTONIANS, full_params, lookup
from painlab.sampling import rng_from_seed, sample_params, sample_state

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(painlab.__file__)))

FLOWS = [(sid, i) for sid, desc in CATALOG.items()
         for i in range(1, desc.n_times + 1)]

# Each partial is a sum of at most a few hundred rounded complex products
# of O(1) sampled values: 1e-12 is a few thousand ulps of the largest.
REL_TOL = 1e-12


@pytest.mark.parametrize("sid,i", FLOWS, ids=[f"{s}:{i}" for s, i in FLOWS])
def test_generated_gradient_matches_dual(sid, i):
    rng = rng_from_seed(4242)
    n = lookup(sid).n_pairs
    h = HAMILTONIANS[sid]
    for _ in range(20):
        merged = full_params(sid, sample_params(sid, rng))
        st = sample_state(sid, rng)
        _, want = dual_gradient(
            lambda *w: h(i, merged, w[:n], w[n:], st.t), st.q + st.p)
        got = gradient(sid, i)(merged, st.q, st.p, st.t)
        assert len(got) == 2 * n
        err = np.max(np.abs(np.array(got) - np.array(want)))
        assert err <= REL_TOL * np.max(np.abs(want))


def test_flows_do_not_import_sympy():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from painlab import catalog, sampling\n"
        "rng = sampling.rng_from_seed(1)\n"
        "for sid in catalog.list_systems():\n"
        "    par = sampling.sample_params(sid, rng)\n"
        "    st = sampling.sample_state(sid, rng)\n"
        "    rhs = catalog.flow_rhs(sid, 1, par, st.t)\n"
        "    rhs(st.t[0], np.array(st.q + st.p))\n"
        "    catalog.vector_field(sid, 1, par, st)\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


def test_committed_module_is_fresh():
    # A full regeneration takes seconds; the smallest system takes
    # milliseconds and exercises the whole pipeline.
    pytest.importorskip("sympy")
    path = os.path.join(ROOT, "tools", "gen_gradients.py")
    spec = importlib.util.spec_from_file_location("gen_gradients", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    sid = "11,11,11,11"
    committed = os.path.join(SRC, "painlab", "_gradients",
                             module_name(sid) + ".py")
    with open(committed, encoding="utf-8") as fh:
        assert fh.read() == gen.render_module(sid)
