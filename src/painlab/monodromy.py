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
from .integrator import Arc, ComplexPath, Line, integrate

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
    margin = min(0.5 * r, 0.05 * min(abs(a - b) for i, a in enumerate(pts)
                                     for b in pts[i + 1:]) if len(pts) > 1 else r)
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


def big_circle(points, x0=None, clockwise=True) -> ComplexPath:
    pts = [complex(z) for z in points]
    if x0 is None:
        x0 = base_point(pts)
    r = abs(x0)
    angle0 = float(np.angle(x0))
    sweep = -2 * np.pi if clockwise else 2 * np.pi
    return ComplexPath(segments=(Arc(0.0, r, angle0, sweep),),
                       singularities=tuple(pts), margin=None)


def _retraces(loop: ComplexPath) -> bool:
    first, last = loop.segments[0], loop.segments[-1]
    return isinstance(first, Line) and last == Line(first.end, first.start)


def monodromy_matrix(sys: FuchsianSystem, loop, rel_tol=1e-10,
                     abs_tol=1e-13):
    """Transport matrix of the fundamental solution around a closed loop.

    ``loop`` is one ComplexPath, giving an (L, L) matrix, or a sequence
    of B loops with matching segment kinds, transported as one stack
    (:meth:`ComplexPath.stack`) in a single integrate call and giving a
    (B, L, L) array.  Loops that all start with a straight line and end
    by retracing it (lassos) are integrated without that last segment:
    with P the transport along the first segment and C P the transport
    up to the return leg, the matrix is P^-1 C P.  Every other loop is
    integrated in full.
    """
    stacked = not isinstance(loop, ComplexPath)
    members = tuple(loop) if stacked else (loop,)
    retraced = all(_retraces(m) for m in members)
    if retraced:
        members = tuple(ComplexPath(m.segments[:-1], m.singularities,
                                    m.margin) for m in members)
    L = sys.size
    y0 = np.eye(L, dtype=complex).ravel()
    if stacked:
        y0 = np.tile(y0, (len(members), 1))
    path = ComplexPath.stack(members) if stacked else members[0]
    traj = integrate(sys.rhs(), y0, path, rel_tol=rel_tol, abs_tol=abs_tol)
    shape = y0.shape[:-1] + (L, L)
    end = traj.end_state.reshape(shape)
    if retraced:
        return np.linalg.solve(traj.states[1].reshape(shape), end)
    return end


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

    def to_json_dict(self):
        def mat(m):
            return [[[z.real, z.imag] for z in row] for row in np.asarray(m)]

        return {
            "base": [self.base.real, self.base.imag],
            "loops": [{"around": [z.real, z.imag], "radius": r}
                      for z, r in self.loops],
            "matrices": [mat(m) for m in self.matrices],
            "at_infinity": mat(self.at_infinity),
            "traces": [[np.trace(m).real, np.trace(m).imag]
                       for m in self.matrices],
        }


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
    is the reference.  Returns the largest absolute trace deviation.
    """
    ref = invariant_traces(reps[0])
    return max((float(np.max(np.abs(invariant_traces(rep) - ref)))
                for rep in reps[1:]), default=0.0)
