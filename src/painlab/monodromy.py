"""Numerical monodromy of Fuchsian systems and deformation drift.

Generators are "lasso" loops from a common base point: straight approach
to a small circle around one singular point, the full circle, and the
return leg.  The return leg retraces the approach, so its transport is
the inverse of the approach's: a lasso is integrated up to the end of
its circle and the return is obtained by inversion, while the loop at
infinity is integrated in full and keeps the product relation an
independent check.  Only conjugacy-invariant data (traces of the monodromy
matrices and of their pairwise products) is compared across a
deformation; fundamental-solution normalization at a moving singularity
configuration is gauge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fuchsian import FuchsianSystem
from .integrator import Arc, ComplexPath, Line, integrate

__all__ = [
    "base_point",
    "lasso",
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


def big_circle(points, x0=None, clockwise=True) -> ComplexPath:
    pts = [complex(z) for z in points]
    if x0 is None:
        x0 = base_point(pts)
    r = abs(x0)
    angle0 = float(np.angle(x0))
    sweep = -2 * np.pi if clockwise else 2 * np.pi
    return ComplexPath(segments=(Arc(0.0, r, angle0, sweep),),
                       singularities=tuple(pts), margin=None)


def monodromy_matrix(sys: FuchsianSystem, loop: ComplexPath, rel_tol=1e-10,
                     abs_tol=1e-13):
    """Transport matrix of the fundamental solution around a closed loop.

    A loop that starts with a straight line and ends by retracing it (a
    lasso) is integrated without that last segment: with P the transport
    along the first segment and C P the transport up to the return leg,
    the matrix is P^-1 C P.  Every other loop is integrated in full.
    """
    L = sys.size
    y0 = np.eye(L, dtype=complex).ravel()
    first, last = loop.segments[0], loop.segments[-1]
    retraced = isinstance(first, Line) and last == Line(first.end, first.start)
    if retraced:
        loop = ComplexPath(loop.segments[:-1], loop.singularities, loop.margin)
    traj = integrate(sys.rhs(), y0, loop, rel_tol=rel_tol, abs_tol=abs_tol)
    end = traj.end_state.reshape(L, L)
    if retraced:
        return np.linalg.solve(traj.states[1].reshape(L, L), end)
    return end


@dataclass(frozen=True)
class MonodromyRepresentation:
    base: complex
    loops: tuple             # (encircled point, circle radius) per generator
    matrices: tuple          # one generator per finite singular point
    at_infinity: np.ndarray  # computed independently along a large circle

    def product_defect(self) -> float:
        """|M_inf . M_last ... M_first - 1| for the generator ordering."""
        prod = self.at_infinity.copy()
        for m in self.matrices[::-1]:
            prod = prod @ m
        L = prod.shape[0]
        return float(np.max(np.abs(prod - np.eye(L))))

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

    The independent loop at infinity (large clockwise circle) closes the
    product relation M_inf . M_last ... M_first = 1; generators are
    ordered by the angle of t_k - x0 so their composite is the full
    counterclockwise sweep.
    """
    pts = sys.points
    if x0 is None:
        x0 = base_point(pts)
    order = sorted(range(len(pts)), key=lambda k: np.angle(pts[k] - x0))
    mats_by_point = {}
    for k in order:
        mats_by_point[k] = monodromy_matrix(sys, lasso(pts, k, x0), rel_tol)
    minf = monodromy_matrix(sys, big_circle(pts, x0, clockwise=True), rel_tol)
    ordered = tuple(mats_by_point[k] for k in order)
    loops = tuple((pts[k], _loop_radius(pts, k)) for k in order)
    return MonodromyRepresentation(base=complex(x0), loops=loops,
                                   matrices=ordered, at_infinity=minf)


def invariant_traces(rep: MonodromyRepresentation):
    """tr M_k and tr M_k M_l (k < l): base-point-free conjugacy data."""
    ms = list(rep.matrices) + [rep.at_infinity]
    out = [np.trace(m) for m in ms]
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            out.append(np.trace(ms[i] @ ms[j]))
    return np.array(out)


def isomonodromy_drift(systems, rel_tol=1e-10) -> float:
    """Max drift of the invariant traces across a family of systems.

    ``systems`` lists FuchsianSystems along a deformation; the first is
    the reference.  Returns the largest absolute trace deviation.
    """
    ref = None
    worst = 0.0
    for sys in systems:
        tr = invariant_traces(monodromy_representation(sys, rel_tol=rel_tol))
        if ref is None:
            ref = tr
        else:
            worst = max(worst, float(np.max(np.abs(tr - ref))))
    return worst
