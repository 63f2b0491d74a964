"""Fuchsian systems: residue bookkeeping, spectral types, Riemann schemes.

A system is the data of its finite singular points (deformation times,
then 1, then 0) and one residue matrix per point, held as one (P, L, L)
stack; the residue at infinity is minus their sum.  Its coefficient
M(x) = sum A_i/(x - t_i) drives one right-hand side, :class:`LinearRhs`
(``rhs()``): dY/dx = M(x) Y on a vector, a matrix or a stack of them,
which the integrator steps with one evaluation of M per step.  Spectral
types are tuples of integer partitions, one per singular point including
infinity, in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import COLLISION_TOL, EigenMultiset, eigen_small, min_gap

__all__ = [
    "FuchsianSystem",
    "LinearRhs",
    "ClusterAmbiguityError",
    "parse_spectral_type",
    "accessory_count",
    "riemann_scheme_of",
]


def parse_spectral_type(sid: str):
    """'21,21,111' -> ((2,1),(2,1),(1,1,1)); digits are the parts."""
    parts = tuple(tuple(int(ch) for ch in block) for block in sid.split(","))
    sums = {sum(p) for p in parts}
    if len(sums) != 1:
        raise ValueError(f"partitions of {sid!r} do not share a common sum")
    return parts


def accessory_count(st) -> int:
    """Number of accessory parameters: (N+1)L^2 - sum of m^2 + 2.

    ``st`` is a spectral-type string or tuple of partitions; the number
    of singular points is N+3 (N deformation times, 1, 0, infinity).
    """
    parts = parse_spectral_type(st) if isinstance(st, str) else tuple(st)
    L = sum(parts[0])
    n_points = len(parts)
    N = n_points - 3
    sq = sum(m * m for p in parts for m in p)
    return (N + 1) * L * L - sq + 2


@dataclass(frozen=True)
class FuchsianSystem:
    """Finite singular points with residue matrices; A_infinity derived.

    The points may come in any order: the coefficient sums A_i/(x - t_i)
    in the order given, so the order fixes its rounding.
    """

    points: tuple
    residues: np.ndarray  # (P, L, L) complex, one matrix per finite point

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(complex(z) for z in self.points))
        # a copy, read-only: the coefficient binds it without copying again
        res = np.array(self.residues, dtype=complex)
        res.flags.writeable = False
        if res.shape != (len(self.points),) + res.shape[-1:] * 2:
            raise ValueError(f"residues of shape {res.shape}: one square "
                             f"matrix per finite point required")
        if not min_gap(self.points) > COLLISION_TOL:
            raise ValueError("singular points must be finite and distinct")
        object.__setattr__(self, "residues", res)

    @property
    def size(self):
        return self.residues.shape[-1]

    @property
    def residue_at_infinity(self):
        return -sum(self.residues)  # from 0: np.sum can flip a zero's sign

    def rhs(self):
        """dY/dx = (sum A_i/(x - t_i)) Y: the system's :class:`LinearRhs`."""
        return LinearRhs(self)


class LinearRhs:
    """dY/dx = M(x) Y, M(x) = sum A_i/(x - t_i) of a :class:`FuchsianSystem`
    summed in its points' order: a plain rhs(x, Y) that carries M as
    ``coefficient``.  (B, 1) points x give (B, L, L), one matrix per row,
    so Y may be a vector (L,), a matrix (L, L) or a (B, L, L) stack, as
    the series transport of :mod:`painlab.monodromy` checks a block of
    chords.  :func:`~painlab.integrator.integrate` evaluates M at a
    step's twelve stage points in one call, and each stage multiplies its
    state by its matrix, as a call does, so the two routes agree to the
    bit.
    """

    __slots__ = ("coefficient",)

    def __init__(self, sys: FuchsianSystem):
        # add.reduce over the point axis keeps the left-to-right order of
        # a plain sum of A_i/(x - t_i), where a product with a weight
        # vector would round differently
        pts, res = np.array(sys.points), sys.residues

        def coefficient(x):
            return np.add.reduce(res / (x - pts)[..., None, None], axis=-3)

        self.coefficient = coefficient

    def __call__(self, x, y):
        return self.coefficient(x) @ y


class ClusterAmbiguityError(RuntimeError):
    """Two eigenvalue clusters are too close to call the multiplicities."""


def _checked_multiset(a, label) -> EigenMultiset:
    em = eigen_small(a)
    if em.separation <= 10 * em.tol:
        raise ClusterAmbiguityError(
            f"eigenvalue clusters at {label} separated by only "
            f"{em.separation:.3e} (tol {em.tol:.3e})")
    return em


def riemann_scheme_of(sys: FuchsianSystem):
    """The exponents, one EigenMultiset per finite point, then infinity."""
    ems = [_checked_multiset(a, f"x={t}")
           for t, a in zip(sys.points, sys.residues)]
    return (*ems, _checked_multiset(sys.residue_at_infinity, "x=inf"))
