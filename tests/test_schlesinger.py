"""Matrix flows, trace Hamiltonians, canonical maps."""

import numpy as np
import pytest

from painlab.algebra import Dual, mat_mul
from painlab.catalog import (PhaseState, eval_h, full_params, lookup,
                             vector_field)
from painlab.parametrizations import SUPPORTED, assemble, parametrization
from painlab.sampling import (redraws, rng_from_seed, sample_params,
                              sample_state)
from painlab import schlesinger
from painlab.schlesinger import (SliceRealignmentError, induced_state_field,
                                 realign_to_slice, schlesinger_rhs,
                                 trace_hamiltonian)


def random_system(rng, n_pts=4, L=2, scale=0.4):
    pts = [1.6 + 0.4j, -0.7 + 0.6j, 1.0, 0.0][:n_pts]
    mats = [scale * (rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L)))
            for _ in pts]
    return pts, mats


def test_commuting_residues_give_zero_flow():
    rng = rng_from_seed(1)
    d = [np.diag(rng.normal(size=3) + 1j * rng.normal(size=3))
         for _ in range(3)]
    pts = [1.5, 1.0, 0.0]
    ders = schlesinger_rhs(pts, d, 1)
    assert max(np.max(np.abs(x)) for x in ders) < 1e-14


def test_derivatives_are_traceless_and_sum_to_zero():
    rng = rng_from_seed(2)
    pts, mats = random_system(rng)
    ders = schlesinger_rhs(pts, mats, 1)
    for d in ders:
        assert abs(np.trace(d)) < 1e-12
    assert np.max(np.abs(sum(ders))) < 1e-12


def _per_pair_rhs(points, mats, i):
    """The commutator flow one pair at a time: [A_i, A_j]/(t_i - t_j), and
    for j = i minus the others' sum, subtracted left to right from 0."""
    Ai, ti = mats[i - 1], points[i - 1]
    out, own = [], np.zeros_like(Ai)
    for j, (tj, Aj) in enumerate(zip(points, mats)):
        if j == i - 1:
            out.append(None)
            continue
        out.append((Ai @ Aj - Aj @ Ai) / (ti - tj))
        own -= out[-1]
    out[i - 1] = own
    return np.array(out)


@pytest.mark.parametrize("P", [3, 4, 5])
@pytest.mark.parametrize("L", [2, 3, 4])
def test_stacked_rhs_matches_per_pair_bit_for_bit(P, L):
    rng = rng_from_seed(100 * P + L)
    for draw in range(20):
        A = rng.normal(size=(P, L, L)) + 1j * rng.normal(size=(P, L, L))
        if draw % 2:
            # small integers and zeros: exact commutators, signed zeros
            A = np.round(2 * A) / 2
        pts = [complex(*rng.normal(size=2)) for _ in range(P - 2)]
        pts += [1.0, 0.0]
        for i in range(1, P - 1):
            got = schlesinger_rhs(pts, A, i)
            assert isinstance(got, np.ndarray) and got.shape == (P, L, L)
            assert got.tobytes() == _per_pair_rhs(pts, A, i).tobytes()


def test_flow_is_hamiltonian_for_trace_function():
    # the entrywise bracket {(A)_kl, (A)_rs} = d_rl A_ks - d_ks A_rl turns
    # the trace Hamiltonian into {H, A_j} = [(dH/dA_j)^T, A_j]; check that
    # against finite differences of H in the matrix entries
    rng = rng_from_seed(3)
    pts, mats = random_system(rng, n_pts=4, L=2)
    i = 1
    ders = schlesinger_rhs(pts, mats, i)
    h = 1e-7

    def H(ms):
        return trace_hamiltonian(pts, ms, i)

    for j in range(len(mats)):
        G = np.zeros((2, 2), dtype=complex)
        for r in range(2):
            for s in range(2):
                ms_p = [m.copy() for m in mats]
                ms_m = [m.copy() for m in mats]
                ms_p[j][r, s] += h
                ms_m[j][r, s] -= h
                G[r, s] = (H(ms_p) - H(ms_m)) / (2 * h)
        bracket = G.T @ mats[j] - mats[j] @ G.T
        assert np.max(np.abs(bracket - ders[j])) < 1e-6


def test_trace_hamiltonian_diagonal_expansion():
    d1 = np.diag([0.3, -0.6])
    d2 = np.diag([0.9, 0.2])
    d3 = np.diag([-0.1, 0.5])
    pts = [1.8, 1.0, 0.0]
    got = trace_hamiltonian(pts, [d1, d2, d3], 1)
    want = sum(d1[k, k] * d2[k, k] for k in range(2)) / (1.8 - 1.0) \
        + sum(d1[k, k] * d3[k, k] for k in range(2)) / 1.8
    assert abs(got - want) < 1e-14


def test_trace_hamiltonian_conjugation_invariant():
    rng = rng_from_seed(4)
    pts, mats = random_system(rng)
    g = np.diag([1.0, 2.5 - 0.5j])
    gi = np.linalg.inv(g)
    conj = [gi @ m @ g for m in mats]
    a = trace_hamiltonian(pts, mats, 1)
    b = trace_hamiltonian(pts, conj, 1)
    assert abs(a - b) < 1e-12 * (1 + abs(a))


def test_catalog_hamiltonian_is_scaled_trace_hamiltonian():
    # H_i equals t_i(t_i-1)(trace H_i + correction) up to a state-free shift
    sid = "21,21,21,21,111"
    rng = rng_from_seed(5)
    par = sample_params(sid, rng, generic=True)
    times = (1.7 + 0.4j, -0.8 + 0.6j)

    def shifted(i, st):
        sys = assemble(sid, par, st)
        pts = st.t + (1.0, 0.0)
        htr = trace_hamiltonian(pts, sys.residues, i)
        if i == 1:
            corr = st.q[0] * st.p[0] / st.t[0] + st.q[2] * st.p[2] / st.t[0]
        else:
            corr = st.q[1] * st.p[1] / st.t[1]
        ti = st.t[i - 1]
        return eval_h(sid, i, par, st) - ti * (ti - 1) * (htr + corr)

    st1 = sample_state(sid, rng, times=times)
    st2 = sample_state(sid, rng, times=times)
    for i in (1, 2):
        d1, d2 = shifted(i, st1), shifted(i, st2)
        assert abs(d1 - d2) < 1e-9 * (1 + abs(d1))


def test_canonical_round_trips():
    # state_from_bc carries the matrix-side field back to (q, p)
    for sid in SUPPORTED:
        rng = rng_from_seed(8)
        pz = parametrization(sid)
        for _ in range(20):
            par = full_params(sid, sample_params(sid, rng, generic=True))
            st = sample_state(sid, rng)
            try:
                b, c = pz.bc_from_state(par, st.q, st.p, st.t)
            except ValueError:
                continue
            q, p = pz.state_from_bc(par, tuple(b), tuple(c), st.t)
            dev = max(abs(np.array(tuple(q) + tuple(p))
                          - np.array(st.q + st.p)))
            assert dev < 1e-10


def test_involutive_map_is_exact():
    sid = "22,22,211,211"
    rng = rng_from_seed(9)
    par = full_params(sid, sample_params(sid, rng))
    st = sample_state(sid, rng)
    b, c = parametrization(sid).bc_from_state(par, st.q, st.p, st.t)
    assert tuple(b) == tuple(-z for z in st.p)
    assert tuple(c) == st.q


def test_singular_locus_raises_not_nan():
    sid = "21,21,21,21,111"
    rng = rng_from_seed(10)
    par = sample_params(sid, rng)
    # t2*p2 - q3*p1 == 0 is the declared singular locus of the map
    st = PhaseState((0.3, 0.4, 1.0), (0.5, 0.25, 0.7),
                    (2.0 + 0j, 0.5 + 0j))
    # arrange q3*p1 == t2*p2
    st = PhaseState((0.3, 0.4, (st.t[1] * st.p[1]) / st.p[0]),
                    st.p, st.t)
    with pytest.raises(ValueError):
        parametrization(sid).bc_from_state(full_params(sid, par), st.q, st.p,
                                           st.t)


def test_catalog_field_matches_matrix_side():
    # the canonical flow of the trace Hamiltonian, pushed through the
    # coordinate maps, is an independent derivation of the vector field
    for sid in ("21,21,21,21,111", "31,31,22,22,22", "22,22,211,211"):
        rng = rng_from_seed(12)
        desc = lookup(sid)
        done = 0
        for _ in redraws(sid, "third regular draw"):
            par = sample_params(sid, rng, generic=True)
            st = sample_state(sid, rng)
            try:
                for i in range(1, desc.n_times + 1):
                    ds = induced_state_field(sid, par, st, i)
                    dc = vector_field(sid, i, par, st)
                    dev = max(abs(a - b) for a, b in
                              zip(ds[0] + ds[1], dc[0] + dc[1]))
                    assert dev < 1e-9 * (1 + max(abs(x) for x in ds[0] + ds[1]))
            except ValueError:
                continue
            done += 1
            if done == 3:
                break


def _headline_stack():
    sid = "21,21,21,21,111"
    rng = rng_from_seed(5)
    par = sample_params(sid, rng, generic=True)
    st = sample_state(sid, rng, times=(1.7 + 0.8j, -0.6 + 0.5j))
    return sid, par, assemble(sid, par, st).residues


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_realign_rejects_a_non_finite_stack(bad):
    # a NaN entry once ran Newton until a singular solve
    sid, par, A = _headline_stack()
    A = np.array(A)
    A[1, 2, 0] = bad
    with pytest.raises(ValueError, match="non-finite residue stack"):
        realign_to_slice(sid, par, A)


@pytest.mark.parametrize("k, reason, residual", [
    (3, "divide by zero", False),    # once a bare ZeroDivisionError
    (2, "singular Newton step", True),    # once LinAlgError
])
def test_realign_failure_is_typed_with_its_iteration_and_residual(
        k, reason, residual):
    sid, par, A = _headline_stack()
    A = np.array(A)
    A[k] = 0
    with pytest.raises(SliceRealignmentError, match=reason) as info:
        realign_to_slice(sid, par, A)
    assert isinstance(info.value, RuntimeError)
    assert info.value.iteration == 0
    assert np.isfinite(info.value.residual) == residual


def test_realign_without_convergence_is_typed(monkeypatch):
    sid, par, A = _headline_stack()
    assert np.max(np.abs(realign_to_slice(sid, par, A) - A)) < 1e-12
    g = np.array([[1, 0, 0], [0.1, 1.1, 0], [0.2, 0.05j, 0.9]])
    off = np.linalg.inv(g) @ A @ g
    monkeypatch.setattr(schlesinger, "_NEWTON_STEPS", 2)
    with pytest.raises(SliceRealignmentError, match="no convergence") as info:
        realign_to_slice(sid, par, off)
    assert info.value.iteration == 2
    assert info.value.residual > 1e-12


def test_realign_products_meet_no_numpy_scalar(monkeypatch):
    # the stack's np.complex128 entries once leaked into every Dual's
    # gradient; Python scalars give the same bits at less cost
    def scalars(m):
        for row in m:
            for x in row:
                yield x
                if isinstance(x, Dual):
                    yield from x.grad

    def checked(a, b):
        out = mat_mul(a, b)
        for x in [*scalars(a), *scalars(b), *scalars(out)]:
            assert not isinstance(x, np.generic), type(x)
        return out

    sid, par, A = _headline_stack()
    g = np.array([[1, 0, 0], [0.1, 1.1, 0], [0.2, 0.05j, 0.9]])
    off = np.linalg.inv(g) @ A @ g
    monkeypatch.setattr(schlesinger, "mat_mul", checked)
    assert np.max(np.abs(realign_to_slice(sid, par, off) - A)) < 1e-10
