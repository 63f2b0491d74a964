"""Numerical monodromy of Fuchsian systems and deformation drift.

Generators are "lasso" loops from a common base point: straight approach
to a small circle around one singular point, the full circle, and the
return leg.  The return leg retraces the approach, so its transport is
the inverse of the approach's: a lasso is integrated up to the end of
its circle and the return is obtained by inversion.  The loop at
infinity is one more lasso from the same base point: out along its ray
to a circle of twice its modulus, one clockwise turn around every
singular point, and back.  All lassos of a representation, that one
included, are transported together, as one stacked linear ODE on a
shared path parameter in a single integrate call.  The big circle is a
transport of its own, not a product of the generators, so the product
relation stays an independent check.  Only conjugacy-invariant data
(traces of the monodromy matrices and of their pairwise products) is
compared across a deformation; fundamental-solution normalization at a
moving singularity configuration is gauge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fuchsian import FuchsianSystem
from .integrator import Arc, ComplexPath, Line, default_margin, integrate

__all__ = [
    "base_point",
    "lasso",
    "lasso_at_infinity",
    "monodromy_matrix",
    "MonodromyRepresentation",
    "monodromy_representation",
    "invariant_traces",
    "isomonodromy_drift",
]


def base_point(points) -> complex:
    """Base point on the negative imaginary axis, safely below everything."""
    r = max(abs(complex(z)) for z in points)
    return -2j * max(r, 1.0)


def _loop_radius(points, k) -> float:
    tk = points[k]
    return 0.1 * min(abs(tk - points[j]) for j in range(len(points)) if j != k)


def lasso(points, k, x0=None) -> ComplexPath:
    """Approach-circle-return loop around the k-th finite singular point.

    The return leg is the approach reversed; :func:`monodromy_matrix`
    obtains its transport by inverting the approach's.
    """
    pts = [complex(z) for z in points]
    if x0 is None:
        x0 = base_point(pts)
    tk = pts[k]
    r = _loop_radius(pts, k)
    direction = (x0 - tk) / abs(x0 - tk)
    entry = tk + r * direction
    angle0 = float(np.angle(entry - tk))
    segments = (
        Line(x0, entry),
        Arc(tk, r, angle0, 2 * np.pi),
        Line(entry, x0),
    )
    others = [z for j, z in enumerate(pts) if j != k]
    margin = min(0.5 * r, default_margin(pts))
    return ComplexPath(segments=segments, singularities=tuple(others),
                       margin=margin)


def lasso_at_infinity(points, x0=None) -> ComplexPath:
    """Lasso around infinity: out along the ray of x0 to the circle of
    radius 2|x0| about 0, one clockwise turn, and back.

    From the default base point every finite singular point lies inside
    the circle, so the loop is the clockwise :func:`big_circle` up to
    homotopy; its return leg retraces the approach, like a :func:`lasso`.
    """
    pts = [complex(z) for z in points]
    if x0 is None:
        x0 = base_point(pts)
    x0 = complex(x0)
    far = 2 * x0
    segments = (
        Line(x0, far),
        Arc(0j, abs(far), float(np.angle(x0)), -2 * np.pi),
        Line(far, x0),
    )
    return ComplexPath(segments=segments, singularities=tuple(pts),
                       margin=None)


def big_circle(points, x0=None) -> ComplexPath:
    """One clockwise turn about 0 through x0."""
    pts = [complex(z) for z in points]
    if x0 is None:
        x0 = base_point(pts)
    r = abs(x0)
    angle0 = float(np.angle(x0))
    return ComplexPath(segments=(Arc(0.0, r, angle0, -2 * np.pi),),
                       singularities=tuple(pts), margin=None)


def monodromy_matrix(sys: FuchsianSystem, lassos, rel_tol=1e-10):
    """Transport matrices of the fundamental solution around B lassos.

    The lassos, loops that start with a straight line and end by
    retracing it, are transported as one stack (:meth:`ComplexPath.stack`)
    in a single integrate call, giving a (B, L, L) array.  The return leg
    is not integrated: with P the transport along the first segment and
    C P the transport up to the return leg, the matrix is P^-1 C P.
    Raises ValueError for a loop that does not retrace its first segment.
    """
    members = []
    for loop in lassos:
        first, last = loop.segments[0], loop.segments[-1]
        if not (isinstance(first, Line) and last == Line(first.end,
                                                          first.start)):
            raise ValueError("monodromy_matrix takes lassos: a loop must "
                             "end by retracing its first, straight segment")
        members.append(ComplexPath(loop.segments[:-1], loop.singularities,
                                   loop.margin))
    L = sys.size
    y0 = np.tile(np.eye(L, dtype=complex).ravel(), (len(members), 1))
    traj = integrate(sys.rhs(), y0, ComplexPath.stack(members),
                     rel_tol=rel_tol, abs_tol=1e-13)
    shape = (len(members), L, L)
    return np.linalg.solve(traj.states[1].reshape(shape),
                           traj.end_state.reshape(shape))


@dataclass(frozen=True)
class MonodromyRepresentation:
    base: complex
    loops: tuple             # (encircled point, circle radius) per generator
    matrices: tuple          # one generator per finite singular point
    at_infinity: np.ndarray  # its own lasso around a large circle

    def product_defect(self) -> float:
        """|M_inf . M_last ... M_first - 1| over the product of the factor
        sizes max(1, max|M|), for the generator ordering.

        Each factor carries a relative transport error, so the absolute
        defect grows with the size of the factors; the scaled one does not.
        """
        prod = self.at_infinity.copy()
        scale = max(1.0, float(np.max(np.abs(prod))))
        for m in self.matrices[::-1]:
            prod = prod @ m
            scale *= max(1.0, float(np.max(np.abs(m))))
        L = prod.shape[0]
        return float(np.max(np.abs(prod - np.eye(L)))) / scale


def monodromy_representation(sys: FuchsianSystem, rel_tol=1e-10,
                             x0=None) -> MonodromyRepresentation:
    """Generators around every finite point, ordered by visual angle.

    All lassos, the loop at infinity's (:func:`lasso_at_infinity`)
    included, go through one stacked :func:`monodromy_matrix` call.  The
    loop at infinity is transported along its own large circle, not
    composed from the generators, so it independently closes the product
    relation M_inf . M_last ... M_first = 1.  Generators are ordered by
    the angle of t_k - x0 so their composite is the full counterclockwise
    sweep.
    """
    pts = sys.points
    if x0 is None:
        x0 = base_point(pts)
    order = sorted(range(len(pts)), key=lambda k: np.angle(pts[k] - x0))
    paths = [lasso(pts, k, x0) for k in order] + [lasso_at_infinity(pts, x0)]
    *ordered, minf = monodromy_matrix(sys, paths, rel_tol)
    loops = tuple((pts[k], _loop_radius(pts, k)) for k in order)
    return MonodromyRepresentation(base=complex(x0), loops=loops,
                                   matrices=tuple(ordered), at_infinity=minf)


def invariant_traces(rep: MonodromyRepresentation):
    """tr M_k and tr M_k M_l (k < l): base-point-free conjugacy data."""
    ms = list(rep.matrices) + [rep.at_infinity]
    out = [np.trace(m) for m in ms]
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            out.append(np.trace(ms[i] @ ms[j]))
    return np.array(out)


def isomonodromy_drift(reps) -> float:
    """Max drift of the invariant traces across a family of representations.

    ``reps`` lists MonodromyRepresentations along a deformation; the first
    is the reference.  Returns the largest trace deviation relative to
    max(1, max|reference trace|): each trace carries a relative transport
    error, so large traces would otherwise fail an absolute tolerance.
    """
    ref = invariant_traces(reps[0])
    scale = max(1.0, float(np.max(np.abs(ref))))
    return max((float(np.max(np.abs(invariant_traces(rep) - ref))) / scale
                for rep in reps[1:]), default=0.0)
