"""Scalar substrate and small dense-matrix eigenvalue utilities.

Everything downstream evaluates over either plain ``complex`` or
:class:`Dual` scalars, so each Hamiltonian is written once and
differentiated exactly (forward mode, no truncation error).
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from operator import mul

import numpy as np

__all__ = [
    "Dual",
    "dual_gradient",
    "time_derivative",
    "value_of",
    "EigenMultiset",
    "eigen_small",
    "default_cluster_tol",
    "mat_mul",
    "mat_smul",
    "mat_shift",
    "mat_trace",
    "COLLISION_TOL",
    "min_gap",
    "max_residual",
]

# singular points (deformation times, 1, 0) closer than this collide
COLLISION_TOL = 1e-12


def min_gap(points) -> float:
    """Smallest pairwise distance in the sequence ``points`` (inf for fewer
    than two), NaN if any point is not finite: reject on ``not gap > tol``."""
    gap = cmath.inf
    for i, a in enumerate(points):
        if not cmath.isfinite(a):
            return cmath.nan
        for b in points[i + 1:]:
            d = abs(a - b)
            if d < gap:
                gap = d
    return gap


def max_residual(values) -> float:
    """Largest of ``values`` (0.0 for none), NaN if any value is NaN: unlike
    ``max``, a NaN term is never dropped.  Reject on ``not worst <= tol``."""
    worst = 0.0
    for v in values:
        if v != v:
            return cmath.nan
        if v > worst:
            worst = v
    return worst


class Dual:
    """Forward-mode dual scalar: a complex value plus a gradient vector.

    The gradient has one slot per independent variable of the current
    evaluation context; its width is fixed per call.  A Dual with zero
    gradient behaves exactly like its value under all operations.
    """

    __slots__ = ("val", "grad")

    def __init__(self, val, grad=()):
        self.val = complex(val)
        self.grad = tuple(grad)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val,
                        tuple(a + b for a, b in zip(self.grad, other.grad)))
        return Dual(self.val + other, self.grad)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, tuple(-a for a in self.grad))

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val,
                        tuple(a - b for a, b in zip(self.grad, other.grad)))
        return Dual(self.val - other, self.grad)

    def __rsub__(self, other):
        return Dual(other - self.val, tuple(-a for a in self.grad))

    def __mul__(self, other):
        if isinstance(other, Dual):
            v, w = self.val, other.val
            return Dual(v * w,
                        tuple(w * a + v * b for a, b in zip(self.grad, other.grad)))
        return Dual(self.val * other, tuple(other * a for a in self.grad))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if other.val == 0:
                raise ZeroDivisionError("division by a dual with zero value part")
            v = self.val / other.val
            inv = 1.0 / other.val
            return Dual(v, tuple((a - v * b) * inv
                                 for a, b in zip(self.grad, other.grad)))
        return Dual(self.val / other, tuple(a / other for a in self.grad))

    def __rtruediv__(self, other):
        if self.val == 0:
            raise ZeroDivisionError("division by a dual with zero value part")
        v = other / self.val
        inv = 1.0 / self.val
        return Dual(v, tuple(-v * a * inv for a in self.grad))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise TypeError("Dual powers are restricted to nonnegative integers")
        out = Dual(1.0, (0.0,) * len(self.grad))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        return f"Dual({self.val!r}, {self.grad!r})"


def value_of(x) -> complex:
    """Plain complex value of either a Dual or a number."""
    return x.val if isinstance(x, Dual) else complex(x)


@functools.lru_cache(maxsize=None)
def _unit_rows(k):
    """The k unit seed rows of a width-k gradient, built once per width."""
    return tuple(tuple(1.0 if j == i else 0.0 for j in range(k))
                 for i in range(k))


def dual_gradient(f, point):
    """Evaluate ``f`` and all first partials at ``point`` in one pass.

    ``f`` must accept ``len(point)`` scalar arguments and be built from
    arithmetic the :class:`Dual` type supports.  Returns
    ``(value, gradient_tuple)``; the partials are exact up to rounding.
    If ``f`` returns a tuple, returns ``(values, rows)`` instead: one
    value and one gradient row (a Jacobian row) per component, with a
    zero row for a component that does not depend on ``point``.
    """
    k = len(point)
    seeds = [Dual(z, row) for z, row in zip(point, _unit_rows(k))]

    def split(out):
        if isinstance(out, Dual):
            return out.val, out.grad
        return complex(out), (0j,) * k

    out = f(*seeds)
    if isinstance(out, tuple):
        pairs = [split(o) for o in out]
        return (tuple(v for v, _ in pairs), tuple(g for _, g in pairs))
    return split(out)


def time_derivative(f, w, dw, t, i):
    """d/dt_i of ``f(w, t)`` while ``w`` moves with velocity ``dw``.

    Only t_i of the times ``t`` moves.  The exact gradient over (w, t_i) is
    contracted with (dw, 1), once per component for a tuple-valued ``f``.
    """
    k, t = len(w), tuple(t)
    values, grad = dual_gradient(
        lambda *z: f(z[:k], t[:i - 1] + (z[k],) + t[i:]),
        tuple(w) + (t[i - 1],))
    dz = list(dw) + [1.0]
    rows = grad if isinstance(values, tuple) else [grad]
    der = [sum(a * b for a, b in zip(row, dz)) for row in rows]
    return der if isinstance(values, tuple) else der[0]


# ---------------------------------------------------------------------------
# eigenvalues of small matrices, with multiplicity clustering
# ---------------------------------------------------------------------------


def default_cluster_tol(eigvals) -> float:
    """Relative clustering tolerance, stable across parameter scales."""
    return 1e-8 * (1.0 + max(abs(w) for w in eigvals))


@dataclass(frozen=True)
class EigenMultiset:
    """Clustered eigenvalues of a small matrix.

    ``values[k]`` is the mean of cluster ``k`` and ``mults[k]`` its size;
    multiplicities sum to the matrix dimension.  ``separation`` is the
    smallest distance between distinct cluster means (``inf`` for a
    single cluster), used by callers to detect borderline clusterings.
    """

    values: tuple
    mults: tuple
    tol: float
    separation: float

    @property
    def partition(self):
        """Multiplicities sorted descending (a partition of L)."""
        return tuple(sorted(self.mults, reverse=True))


def eigen_small(m) -> EigenMultiset:
    """Eigenvalues of a dense matrix of size 2..6, clustered by tolerance.

    Clusters are connected components of the "distance < tol" graph on
    the raw eigenvalues, with tol from :func:`default_cluster_tol`; each
    cluster is reported as (mean, multiplicity).
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    L = a.shape[0]
    if not 2 <= L <= 6:
        raise ValueError(f"matrix size {L} outside the supported range 2..6")
    w = np.linalg.eigvals(a)
    tol = default_cluster_tol(w)

    # single-linkage clustering; L <= 6 so the quadratic scan is fine
    labels = list(range(L))

    def find(i):
        while labels[i] != i:
            labels[i] = labels[labels[i]]
            i = labels[i]
        return i

    for i in range(L):
        for j in range(i + 1, L):
            if abs(w[i] - w[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    labels[rj] = ri
    groups = {}
    for i in range(L):
        groups.setdefault(find(i), []).append(w[i])
    clusters = sorted(((np.mean(g), len(g)) for g in groups.values()),
                      key=lambda vw: (vw[0].real, vw[0].imag))
    values = tuple(complex(v) for v, _ in clusters)
    mults = tuple(int(k) for _, k in clusters)
    return EigenMultiset(values, mults, tol, min_gap(values))


# ---------------------------------------------------------------------------
# tiny generic matrix helpers (nested tuples over Dual-or-complex scalars)
# ---------------------------------------------------------------------------


def _shape(a):
    """(rows, columns) of a nested-tuple matrix, or (rows, the row lengths)
    for a ragged one."""
    lengths = tuple(map(len, a))
    return (len(a), lengths[0] if len(set(lengths)) == 1 else lengths)


def mat_mul(a, b):
    """a @ b, each entry summed left to right from 0; ValueError naming
    both shapes where a's rows do not all have len(b) entries or b is
    ragged."""
    cols = tuple(zip(*b))
    for rows, n in ((a, len(b)), (b, len(cols))):
        for row in rows:
            if len(row) != n:
                raise ValueError(f"cannot multiply a {_shape(a)} matrix by "
                                 f"a {_shape(b)} one")
    return tuple([tuple([sum(map(mul, row, col)) for col in cols])
                  for row in a])


def mat_smul(s, a):
    return tuple([tuple([s * x for x in row]) for row in a])


def mat_shift(a, s):
    """a + s*I for a square generic matrix."""
    return tuple([tuple([x + s if i == j else x for j, x in enumerate(row)])
                  for i, row in enumerate(a)])


def mat_trace(a):
    out = a[0][0]
    for i in range(1, len(a)):
        out = out + a[i][i]
    return out
