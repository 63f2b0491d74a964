"""Generated flow fields: agreement with Dual, hoisting, lazy loading,
freshness."""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

import painlab
from painlab._gradients import field, module_name
from painlab.algebra import dual_gradient
from painlab.catalog import CATALOG, HAMILTONIANS, full_params, lookup
from painlab.sampling import rng_from_seed, sample_params, sample_state

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(painlab.__file__)))

FLOWS = [(sid, i) for sid, desc in CATALOG.items()
         for i in range(1, desc.n_times + 1)]
FLOW_IDS = [f"{s}:{i}" for s, i in FLOWS]

# Each partial is a sum of at most a few hundred rounded complex products
# of O(1) sampled values: 1e-12 is a few thousand ulps of the largest.
REL_TOL = 1e-12

MOVE = 0.125 - 0.0625j  # a z away from t_i


def _draws(sid, count, seed=4242):
    rng = rng_from_seed(seed)
    for _ in range(count):
        yield full_params(sid, sample_params(sid, rng)), sample_state(sid, rng)


@pytest.mark.parametrize("sid,i", FLOWS, ids=FLOW_IDS)
def test_generated_gradient_matches_dual(sid, i):
    # the bound field against (sc*dH/dp, -sc*dH/dq) from the Dual gradient
    # of the hand-written H, at t_i and at a moved z
    n = lookup(sid).n_pairs
    h = HAMILTONIANS[sid]
    for merged, st in _draws(sid, 20):
        kernel = field(sid, i)(merged, st.t)
        for z in (st.t[i - 1], st.t[i - 1] + MOVE):
            t = st.t[:i - 1] + (z,) + st.t[i:]
            _, grad = dual_gradient(
                lambda *w: h(i, merged, w[:n], w[n:], t), st.q + st.p)
            sc = 1.0 / (z * (z - 1))
            want = [sc * g for g in grad[n:]] + [-sc * g for g in grad[:n]]
            got = kernel(z, st.q + st.p, sc)
            assert len(got) == 2 * n
            err = np.max(np.abs(np.array(got) - np.array(want)))
            assert err <= REL_TOL * np.max(np.abs(want))


@pytest.mark.parametrize("sid,i", FLOWS, ids=FLOW_IDS)
def test_kernel_hoists_nothing_that_moves_with_t_i(sid, i):
    # a kernel bound at t and called at z must equal, to the bit, one
    # bound with t_i := z: a t_i term run once at the bind fails this
    for merged, st in _draws(sid, 5):
        z = st.t[i - 1] + MOVE
        moved = st.t[:i - 1] + (z,) + st.t[i:]
        w, sc = st.q + st.p, 1.0 / (z * (z - 1))
        got = field(sid, i)(merged, st.t)(z, w, sc)
        want = field(sid, i)(merged, moved)(z, w, sc)
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("sid,i", FLOWS, ids=FLOW_IDS)
def test_dual_passes_through_bind_and_kernel(sid, i):
    # the exact derivatives of the field over (q, p, t), with the times
    # entering at the bind and t_i at the kernel, against central
    # differences
    n, m = lookup(sid).n_pairs, lookup(sid).n_times
    step = 1e-5
    for merged, st in _draws(sid, 2):
        def f(*x):
            return field(sid, i)(merged, x[2 * n:])(
                x[2 * n + i - 1], x[:2 * n], 1.0)

        x0 = st.q + st.p + st.t
        _, rows = dual_gradient(f, x0)
        exact = np.array(rows)
        fd = np.empty_like(exact)
        for k in range(2 * n + m):
            xp, xm = list(x0), list(x0)
            xp[k] += step
            xm[k] -= step
            fd[:, k] = (np.array(f(*xp)) - np.array(f(*xm))) / (2 * step)
        assert np.max(np.abs(exact - fd)) <= 1e-8 * np.max(np.abs(exact))


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


def _generator():
    pytest.importorskip("sympy")
    path = os.path.join(ROOT, "tools", "gen_gradients.py")
    spec = importlib.util.spec_from_file_location("gen_gradients", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _committed(sid):
    path = os.path.join(SRC, "painlab", "_gradients", module_name(sid) + ".py")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# the smallest system whose kernel takes the Horner form
HORNER_SID = "22,22,22,211"


def test_committed_module_is_fresh():
    # A full regeneration takes seconds; the smallest system takes
    # milliseconds and exercises the whole pipeline, the smallest
    # two-time system a fraction of a second, and HORNER_SID about one
    # second.
    gen = _generator()
    # 11,11,11,11,11 freezes t_2 for flow 1 and moves it for flow 2
    for sid in ("11,11,11,11", "11,11,11,11,11", HORNER_SID):
        assert _committed(sid) == gen.render_module(sid)


def test_committed_kernel_is_the_form_with_fewer_operations():
    gen = _generator()
    ops = {form: gen.kernel_ops(source)
           for form, source in gen.render_forms(HORNER_SID, 1).items()}
    assert ops["horner"] < ops["cse"]
    assert gen.kernel_ops(_committed(HORNER_SID)) == ops["horner"]


def test_rendering_does_not_depend_on_the_hash_seed():
    # --check must not flap with the hash order of sets and dicts
    pytest.importorskip("sympy")
    code = ("import sys; sys.path.insert(0, 'tools'); import gen_gradients; "
            f"print(gen_gradients.render_module({HORNER_SID!r}))")
    runs = [subprocess.Popen(
        [sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE,
        text=True, env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed))
        for seed in ("1", "2")]
    texts = [run.communicate(timeout=120)[0] for run in runs]
    assert all(run.returncode == 0 for run in runs)
    assert texts[0] == texts[1] == _committed(HORNER_SID) + "\n"
