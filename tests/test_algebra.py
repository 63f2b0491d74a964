"""Dual arithmetic, gradients, and small-matrix eigenvalue clustering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from painlab.algebra import (Dual, dual_gradient, eigen_small, mat_mul,
                             mat_shift, mat_smul, max_residual, min_gap,
                             time_derivative)
from painlab.catalog import full_params
from painlab.sampling import (redraws, rng_from_seed, sample_params,
                              sample_state)

finite_complex = st.complex_numbers(min_magnitude=0.01, max_magnitude=10,
                                    allow_nan=False, allow_infinity=False)


def test_square_derivative():
    v, g = dual_gradient(lambda x: x ** 2, [3.0])
    assert v == 9 and g[0] == 6


def test_constant_function_has_zero_gradient():
    v, g = dual_gradient(lambda x, y: 7.5, [1.0, 2.0])
    assert v == 7.5 and g == (0j, 0j)


def test_tuple_output_gives_one_row_per_component():
    x, y = 1.5 - 0.5j, 0.75 + 2j
    vals, rows = dual_gradient(lambda a, b: (a * b, a / b, 3.0), [x, y])
    assert vals == (x * y, x / y, 3.0)
    want = ((y, x), (1 / y, -x / y ** 2))
    for row, w in zip(rows, want):
        assert max(abs(r - c) for r, c in zip(row, w)) < 1e-15
    assert rows[2] == (0j, 0j)
    # a scalar f still gets a (value, gradient) pair
    assert dual_gradient(lambda a, b: a * b, [x, y]) == (x * y, (y, x))


def test_time_derivative_closed_form():
    w, dw, t = (0.5 + 1j, -1.5 + 0.25j), (0.3 - 2j, 1.25j), (1.7 + 0.6j, -0.8j)

    def f(w, t):
        return (w[0] * w[1] * t[0] ** 2, w[0] + t[1])

    def f_scalar(w, t):
        return f(w, t)[0]

    dg = ((dw[0] * w[1] + w[0] * dw[1]) * t[0] ** 2
          + 2 * w[0] * w[1] * t[0])
    assert abs(time_derivative(f_scalar, w, dw, t, 1) - dg) < 1e-14
    d1 = time_derivative(f, w, dw, t, 1)
    assert abs(d1[0] - dg) < 1e-14 and d1[1] == dw[0]  # t_2 is frozen
    d2 = time_derivative(f, w, dw, t, 2)
    assert abs(d2[0] - (dw[0] * w[1] + w[0] * dw[1]) * t[0] ** 2) < 1e-14
    assert d2[1] == dw[0] + 1.0


@given(a=finite_complex, b=finite_complex, c=finite_complex)
@settings(max_examples=200, deadline=None)
def test_leibniz_rule(a, b, c):
    x = Dual(a, (1.0,))
    y = Dual(b, (c,))
    prod = x * y
    assert prod.val == a * b
    assert abs(prod.grad[0] - (b + a * c)) <= 1e-12 * (1 + abs(b + a * c))


@given(a=finite_complex, b=finite_complex)
@settings(max_examples=200, deadline=None)
def test_division_inverts_multiplication(a, b):
    x = Dual(a, (1.0, 0.0))
    y = Dual(b, (0.0, 1.0))
    z = (x * y) / y
    assert abs(z.val - a) <= 1e-10 * (1 + abs(a))
    assert abs(z.grad[0] - 1) <= 1e-10
    assert abs(z.grad[1]) <= 1e-10 * (1 + abs(a / b))


def test_zero_grad_dual_behaves_like_value():
    x = Dual(2.0 + 1.0j, (0.0, 0.0))
    y = Dual(0.5 - 0.25j, (0.0, 0.0))
    out = (x ** 3 / y - 2) * y + 1 / x
    plain = ((2.0 + 1.0j) ** 3 / (0.5 - 0.25j) - 2) * (0.5 - 0.25j) \
        + 1 / (2.0 + 1.0j)
    assert abs(out.val - plain) < 1e-12
    assert all(g == 0 for g in out.grad)


def test_division_by_zero_value_dual_raises():
    x = Dual(1.0, (1.0,))
    zero = Dual(0.0, (1.0,))
    with pytest.raises(ZeroDivisionError):
        _ = x / zero
    with pytest.raises(ZeroDivisionError):
        _ = 1.0 / zero


def test_hvi_partial_matches_finite_difference():
    from painlab.catalog import HAMILTONIANS

    rng = rng_from_seed(1)
    par = sample_params("11,11,11,11", rng)
    st_ = sample_state("11,11,11,11", rng)
    merged = full_params("11,11,11,11", par)

    def f(q, p):
        return HAMILTONIANS["11,11,11,11"](1, merged, (q,), (p,), st_.t)

    _, grad = dual_gradient(f, (st_.q[0], st_.p[0]))
    h = 1e-6
    fd = (f(st_.q[0], st_.p[0] + h) - f(st_.q[0], st_.p[0] - h)) / (2 * h)
    assert abs(grad[1] - fd) <= 1e-7 * (1 + abs(fd))


# -- eigenvalues ------------------------------------------------------------


def test_identity_has_double_eigenvalue():
    em = eigen_small(np.eye(2))
    assert em.values == (1 + 0j,) and em.mults == (2,)


def test_companion_matrix_roots():
    # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    comp = np.array([[0, 0, 6], [1, 0, -11], [0, 1, 6]], dtype=complex)
    expected = sorted(np.roots([1, -6, 11, -6]), key=lambda z: z.real)
    em = eigen_small(comp)
    assert em.mults == (1, 1, 1)
    for got, want in zip(em.values, expected):
        assert abs(got - want) < 1e-10


def _sorted_eigenvalues(em):
    """Eigenvalues with multiplicity, by real then imaginary part."""
    return sorted((w for w, m in zip(em.values, em.mults) for _ in range(m)),
                  key=lambda z: (z.real, z.imag))


def test_diagonal_matrix_exact():
    d = [0.3 + 1j, -0.7, 2.5 - 0.2j, 0.1]
    em = eigen_small(np.diag(d))
    assert _sorted_eigenvalues(em) == \
        sorted([complex(x) for x in d], key=lambda z: (z.real, z.imag))


def test_conjugation_invariance():
    rng = rng_from_seed(5)
    for _ in range(20):
        L = int(rng.integers(2, 7))
        a = rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L))
        for _ in redraws(f"L={L}", "conjugator with cond < 1e3"):
            g = rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L))
            if np.linalg.cond(g) < 1e3:
                break
        e1 = _sorted_eigenvalues(eigen_small(a))
        b = np.linalg.inv(g) @ a @ g
        e2 = _sorted_eigenvalues(eigen_small(b))
        assert max(abs(x - y) for x, y in zip(e1, e2)) < 1e-8 * \
            (1 + max(abs(x) for x in e1))


def test_min_gap_is_the_smallest_pairwise_distance():
    assert min_gap([]) == min_gap([2j]) == float("inf")
    assert min_gap([0j, 1 + 0j, 0.25 + 0j, 3j]) == 0.25


# a min over distances keeps or drops a NaN depending on where it sits
@pytest.mark.parametrize("bad", [complex(float("nan"), 0.0),
                                 complex(0.0, float("nan")),
                                 complex(float("inf"), 0.0)])
@pytest.mark.parametrize("at", [0, 1, 3], ids=["first", "middle", "last"])
def test_min_gap_is_nan_with_a_non_finite_point_anywhere(bad, at):
    points = [0j, 1 + 0j, 0.5 + 0.5j]
    points.insert(at, bad)
    assert np.isnan(min_gap(points))


def test_max_residual_keeps_a_nan_wherever_it_sits():
    # max(0.0, nan) is 0.0 and max(1.0, nan) is 1.0: a fold with max
    # would read a NaN residual as a pass
    assert max_residual([]) == 0.0
    assert max_residual([0.5, 2.0, 1.0]) == 2.0
    for at in (0, 1, 3):
        values = [0.5, 2.0, 1.0]
        values.insert(at, float("nan"))
        assert np.isnan(max_residual(values))


def test_size_guard():
    with pytest.raises(ValueError):
        eigen_small(np.eye(7))
    with pytest.raises(ValueError):
        eigen_small(np.eye(1))


@pytest.mark.parametrize("a, b", [
    (((1, 2), (3, 4)), ((1, 2, 3),)),             # inner dimensions 2 and 1
    (((1, 2, 3), (4, 5)), ((1,), (2,), (3,))),    # a ragged left operand
    (((1, 2), (3, 4)), ((1, 2), (3,))),           # a ragged right operand
    (((1, 2), (3, 4)), ((1,), (2, 3))),
])
def test_mat_mul_rejects_mismatched_or_ragged_operands(a, b):
    with pytest.raises(ValueError, match="cannot multiply a .* by a "):
        mat_mul(a, b)


# the helpers' generator forms, as reference: the new forms must make the
# same products and sums, in the same order
def _ref_mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(k)) for j in range(m))
        for i in range(n))


def _ref_mat_smul(s, a):
    return tuple(tuple(s * x for x in row) for row in a)


def _ref_mat_shift(a, s):
    return tuple(tuple(x + s if i == j else x for j, x in enumerate(row))
                 for i, row in enumerate(a))


SIGNED_ZEROS = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]


def _bits(x):
    """Every bit of a complex or Dual entry: value, then gradient slots."""
    parts = [x.val, *x.grad] if isinstance(x, Dual) else [x]
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in parts]


def _draw(rng, width):
    """A complex entry, a signed zero one time in three, or a Dual of the
    gradient width (with signed-zero slots) if width > 0."""
    def scalar():
        if rng.random() < 1 / 3:
            return SIGNED_ZEROS[rng.integers(4)]
        return complex(*rng.normal(size=2))
    if width == 0:
        return scalar()
    return Dual(scalar(), [scalar() for _ in range(width)])


@pytest.mark.parametrize("width", [0, 3])
def test_matrix_helpers_repeat_the_generator_forms_bit_for_bit(width):
    rng = rng_from_seed(29)
    for n in range(1, 5):
        for k in range(1, 5):
            for m in range(1, 5):
                for _ in range(3):
                    a = tuple(tuple(_draw(rng, width) for _ in range(k))
                              for _ in range(n))
                    b = tuple(tuple(_draw(rng, width) for _ in range(m))
                              for _ in range(k))
                    s = _draw(rng, width)
                    for got, want in (
                            (mat_mul(a, b), _ref_mat_mul(a, b)),
                            (mat_smul(s, a), _ref_mat_smul(s, a))):
                        assert [list(map(_bits, r)) for r in got] \
                            == [list(map(_bits, r)) for r in want]
        sq = tuple(tuple(_draw(rng, width) for _ in range(n))
                   for _ in range(n))
        s = _draw(rng, width)
        assert [list(map(_bits, r)) for r in mat_shift(sq, s)] \
            == [list(map(_bits, r)) for r in _ref_mat_shift(sq, s)]
