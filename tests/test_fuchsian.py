"""Spectral types, accessory counts, assembly, the linear rhs."""

import numpy as np
import pytest

from painlab.catalog import full_params, lookup
from painlab.fuchsian import (ClusterAmbiguityError, FuchsianSystem,
                              LinearRhs, accessory_count,
                              parse_spectral_type, riemann_scheme_of)
from painlab import monodromy
from painlab.parametrizations import (SUPPORTED, UnsupportedAssemblyError,
                                      assemble, parametrization)
from painlab.sampling import (redraws, rng_from_seed, sample_params,
                              sample_state)


def sample_assembly(sid, rng, max_norm=200.0):
    """Generic parameters plus a state whose matrices stay tame."""
    for _ in redraws(sid, "tame assembly"):
        par = sample_params(sid, rng, generic=True)
        st = sample_state(sid, rng)
        try:
            sys = assemble(sid, par, st)
        except ValueError:
            continue
        if max(np.max(np.abs(a)) for a in sys.residues) < max_norm:
            return par, st, sys


def partitions(sys):
    return tuple(em.partition for em in riemann_scheme_of(sys))


@pytest.mark.parametrize("st,count", [
    ("11,11,11,11", 2),
    ("111,111,111", 2),
    ("22,1111,1111", 2),
    ("33,222,111111", 2),
    ("11,11,11,11,11", 4),
    ("21,21,21,21,111", 6),
    ("211,211,211", 0),
    ("22,211,1111", 0),
])
def test_accessory_count(st, count):
    assert accessory_count(st) == count


def test_parse_rejects_mixed_sums():
    with pytest.raises(ValueError):
        parse_spectral_type("21,111,11")


def test_residue_infinity_zero_cases():
    z = np.zeros((3, 3))
    sys = FuchsianSystem(points=(0.5, 1.0, 0.0), residues=(z, z, z))
    assert np.all(sys.residue_at_infinity == 0)
    a1 = np.array([[1.0, 2.0], [0.5, -1.0]])
    sys = FuchsianSystem(points=(0.5, 0.0), residues=(a1, -a1))
    assert np.max(np.abs(sys.residue_at_infinity)) == 0


def test_residues_are_one_read_only_stack():
    a = np.array([[1.0, 2.0], [0.5, -1.0]])
    sys = FuchsianSystem(points=(0.5, 1.0, 0.0), residues=(a, -a, 2 * a))
    assert isinstance(sys.residues, np.ndarray)
    assert sys.residues.shape == (3, 2, 2) and sys.residues.dtype == complex
    assert sys.size == 2
    # a read-only copy: later edits of the caller's matrices do not reach
    # it, and no edit through it can reach an rhs bound to it
    a[0, 0] = 7.0
    assert sys.residues[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        sys.residues[0, 0, 0] = 7.0


@pytest.mark.parametrize("residues", [
    (np.eye(2), np.eye(2)),                    # two matrices, three points
    (np.eye(2),) * 4,                          # four matrices
    (np.ones((2, 3)),) * 3,                    # not square
    (np.eye(2), np.eye(3), np.eye(2)),         # ragged
    (1.0, 2.0, 3.0),                           # not matrices
], ids=["too-few", "too-many", "not-square", "ragged", "scalars"])
def test_residue_count_and_shape_checked(residues):
    with pytest.raises(ValueError):
        FuchsianSystem(points=(0.5, 1.0, 0.0), residues=residues)


@pytest.mark.parametrize("points", [(float("nan"), 1.0, 0.0),
                                    (0.5, float("nan"), 0.0),
                                    (0.5, 1.0, float("nan"))],
                         ids=["first", "middle", "last"])
def test_nan_singular_point_rejected(points):
    z = np.zeros((2, 2))
    with pytest.raises(ValueError, match="finite and distinct"):
        FuchsianSystem(points=points, residues=(z, z, z))


def test_spectral_type_of_diagonal_residues():
    d1 = np.diag([0.3, 1.7 + 1j])
    d2 = np.diag([-0.4, 0.9])
    sys = FuchsianSystem(points=(2.0, 0.0), residues=(d1, d2))
    assert partitions(sys) == ((1, 1), (1, 1), (1, 1))


def test_cluster_ambiguity_names_the_point():
    d1 = np.diag([0.3, 0.3 + 5e-8])
    d2 = np.diag([-0.4, 0.9])
    sys = FuchsianSystem(points=(2.0, 0.0), residues=(d1, d2))
    with pytest.raises(ClusterAmbiguityError, match="x="):
        riemann_scheme_of(sys)


@pytest.mark.parametrize("sid", SUPPORTED)
def test_assembly_realizes_spectral_type(sid):
    rng = rng_from_seed(sum(map(ord, sid)))
    par, st, sys = sample_assembly(sid, rng)
    assert partitions(sys) == parse_spectral_type(sid)
    # Fuchs relation: the multiplicity-weighted exponents sum to zero
    assert abs(sum(w * m for em in riemann_scheme_of(sys)
                   for w, m in zip(em.values, em.mults))) < 1e-9
    assert accessory_count(partitions(sys)) == 2 * lookup(sid).n_pairs


@pytest.mark.parametrize("sid", SUPPORTED)
def test_assembly_residue_at_infinity_structure(sid):
    rng = rng_from_seed(11)
    par, st, sys = sample_assembly(sid, rng)
    ainf = sys.residue_at_infinity
    L = sys.size
    upper = max(abs(ainf[i][j]) for i in range(L) for j in range(L) if j > i)
    assert upper < 1e-10


def test_headline_assembly_traces_and_relations():
    sid = "21,21,21,21,111"
    rng = rng_from_seed(13)
    par, st, sys = sample_assembly(sid, rng)
    merged = full_params(sid, par)
    for k, name in enumerate(("theta1", "theta2", "theta3", "theta4")):
        assert abs(np.trace(sys.residues[k]) - merged[name]) < 1e-10
    # dependent-variable relations of the matrix coordinates
    pz = parametrization(sid)
    b, c = pz.bc_from_state(merged, st.q, st.p, st.t)
    b1, b2, b3, b4 = b
    c1, c2, c3, c4 = c
    assert abs(b1 * (c1 - c2) + b3 * (c3 - c4) + merged["rho2"]) < 1e-12
    assert abs(b2 * (c2 - c1) + b4 * (c4 - c3) + merged["rho3"]) < 1e-12
    ainf = sys.residue_at_infinity
    for k, name in enumerate(("rho1", "rho2", "rho3")):
        assert abs(ainf[k, k] - merged[name]) < 1e-10


def test_assembly_2x2_blocks_reproduce_displayed_shapes():
    # the 22,22,211,211 assembly builds A_1 from the (q, p) blocks directly
    sid = "22,22,211,211"
    rng = rng_from_seed(17)
    par, st, sys = sample_assembly(sid, rng)
    A1 = sys.residues[0]
    C1 = A1[0:2, 2:4]
    assert abs(C1[0, 0] - st.q[0]) < 1e-12
    assert abs(C1[0, 1] - 1) < 1e-12
    assert abs(C1[1, 0] - st.q[1]) < 1e-12
    assert abs(C1[1, 1] - st.q[2]) < 1e-12
    B1 = A1[2:4, 2:4] @ np.linalg.inv(C1)
    assert abs(B1[0, 0] + st.p[0]) < 1e-10
    merged = full_params(sid, par)
    assert abs(np.trace(sys.residues[0]) - 2 * merged["theta1"]) < 1e-10


def test_rank_one_residue_eigenvalues():
    # rank-one block with trace theta4: eigenvalues {theta4, 0, 0}
    sid = "21,21,21,21,111"
    rng = rng_from_seed(19)
    par, st, sys = sample_assembly(sid, rng)
    merged = full_params(sid, par)
    from painlab.algebra import eigen_small

    em = eigen_small(sys.residues[3])
    vals = sorted((w for w, m in zip(em.values, em.mults) for _ in range(m)),
                  key=abs)
    assert abs(vals[0]) < 1e-10 and abs(vals[1]) < 1e-10
    assert abs(vals[2] - merged["theta4"]) < 1e-10


def test_unsupported_assembly_raises():
    with pytest.raises(UnsupportedAssemblyError):
        parametrization("42,33,33,222")
    rng = rng_from_seed(29)
    par = sample_params("42,33,33,222", rng)
    st = sample_state("42,33,33,222", rng)
    with pytest.raises(UnsupportedAssemblyError):
        assemble("42,33,33,222", par, st)


def _ordered_coefficient(sys, x):
    """A_1/(x - t_1) + A_2/(x - t_2) + ..., added left to right."""
    terms = [a / (x - t) for t, a in zip(sys.points, sys.residues)]
    out = terms[0]
    for term in terms[1:]:
        out = out + term
    return out


def test_rhs_is_the_linear_rhs_on_a_vector_a_matrix_and_a_stack():
    rng = np.random.default_rng(3)
    L, B = 3, 5

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    sys = FuchsianSystem(points=(0.6 + 0.3j, 1.0, 0.0), residues=draw(3, L, L))
    rhs = sys.rhs()
    assert isinstance(rhs, LinearRhs)
    x, xs = complex(draw()), draw(B, 1)
    y, Y, Ys = draw(L), draw(L, L), draw(B, L, L)
    assert rhs(x, y).tobytes() == (_ordered_coefficient(sys, x) @ y).tobytes()
    assert rhs(x, Y).tobytes() == (_ordered_coefficient(sys, x) @ Y).tobytes()
    got = rhs(xs, Ys)
    assert got.shape == (B, L, L)
    for row, xb, Yb in zip(got, xs[:, 0], Ys):
        assert row.tobytes() == (_ordered_coefficient(sys, xb) @ Yb).tobytes()


def test_the_series_transport_calls_the_traced_rhs(monkeypatch):
    # the bench's tracer times the Fuchsian rhs by wrapping this method
    # in a plain closure (bench/tracing.py); its traced run aborts on a
    # layer with no calls, so the defect check must keep calling it, once
    # per block of chords, and get the same bits through the wrapper
    monkeypatch.setattr(monodromy, "BLOCK", 8)
    sys = FuchsianSystem(points=(0.6 + 0.3j, 1.0, 0.0), residues=(
        0.3 * np.array([[1, 2j], [0.5, -1]]), 0.2 * np.eye(2),
        0.4 * np.array([[0, 1], [1j, 0.5]])))
    plain = monodromy.monodromy_representation(sys)
    rhs, calls = FuchsianSystem.rhs, []

    def rhs_factory(self):
        inner = rhs(self)

        def traced(x, y):
            calls.append(x)
            return inner(x, y)

        return traced

    monkeypatch.setattr(FuchsianSystem, "rhs", rhs_factory)
    rep = monodromy.monodromy_representation(sys)
    assert len(calls) == -(-rep.transport_steps // 8) > 1
    assert np.array_equal(np.array(rep.matrices + (rep.at_infinity,)),
                          np.array(plain.matrices + (plain.at_infinity,)))
