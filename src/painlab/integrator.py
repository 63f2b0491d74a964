"""Adaptive embedded Runge-Kutta integration along paths in the complex plane.

The integrator advances a complex state vector along a piecewise path
(straight segments and circular arcs), treating each segment as a real
parameter interval and pulling the right-hand side back through the
segment chart.  A Dormand-Prince 5(4) pair with PI step control does the
stepping; each stage's state, and the error estimate, is one matrix
product of step-scaled weights with the stage rows.  "Dense output" at
requested parameters is realized by landing on them exactly, which is
simpler and slightly more accurate than an interpolant at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import min_gap

__all__ = [
    "Line",
    "Arc",
    "ComplexPath",
    "PathMarginError",
    "StepUnderflowError",
    "StepBudgetError",
    "Trajectory",
    "integrate",
    "integrate_time",
    "integrate_two_time",
    "trajectory_to_csv",
]


class PathMarginError(ValueError):
    """Path approaches a declared singular point closer than the margin."""


class StepUnderflowError(RuntimeError):
    """Step size collapsed, typically near a singularity of the rhs."""


class StepBudgetError(RuntimeError):
    """A segment took more than MAX_SEGMENT_STEPS steps (a stiff rhs)."""


@dataclass(frozen=True)
class Line:
    start: complex
    end: complex

    def point(self, s):
        return self.start + s * (self.end - self.start)

    def distance(self, z):
        """Exact distance from z to the segment (clamped projection; by a
        complex division, which does not overflow where |d|**2 would)."""
        d = self.end - self.start
        s = ((z - self.start) / d).real if d else 0.0
        return abs(z - self.point(min(1.0, max(0.0, s))))


@dataclass(frozen=True)
class Arc:
    """Circular arc: center + radius * exp(i*(angle0 + s*sweep)), s in [0,1]."""

    center: complex
    radius: float
    angle0: float
    sweep: float

    def __post_init__(self):
        if self.radius <= 0 or self.sweep == 0:
            raise ValueError("degenerate arc")

    def point(self, s):
        return self.center + self.radius * np.exp(1j * (self.angle0 + s * self.sweep))

    def distance(self, z):
        """Exact distance from z to the arc (radial, or to an endpoint)."""
        sweep = abs(self.sweep)
        turn = np.sign(self.sweep) * (np.angle(z - self.center) - self.angle0)
        if sweep >= 2 * np.pi or turn % (2 * np.pi) <= sweep:
            return abs(abs(z - self.center) - self.radius)
        return min(abs(z - self.point(0.0)), abs(z - self.point(1.0)))


def default_margin(singularities) -> float:
    """0.05 x min_gap of the singular points (0 for fewer than two)."""
    pts = [complex(z) for z in singularities]
    return 0.05 * min_gap(pts) if len(pts) >= 2 else 0.0


@dataclass(frozen=True)
class ComplexPath:
    """Piecewise path that must keep a margin from declared singular points.

    Construction fails fast if any segment comes closer than ``margin`` to
    a singularity; the 1/(z - t) coefficients downstream blow up there.
    """

    segments: tuple
    singularities: tuple = ()
    margin: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "singularities",
                           tuple(complex(z) for z in self.singularities))
        m = self.margin
        if m is None:
            m = default_margin(self.singularities)
        object.__setattr__(self, "margin", float(m))
        # written so that a NaN margin or distance fails
        if self.singularities and not self.margin <= 0:
            for seg in self.segments:
                for z0 in self.singularities:
                    d = seg.distance(z0)
                    if not d >= self.margin:
                        raise PathMarginError(
                            f"path comes within {d:.3g} of singular point "
                            f"{z0} (margin {self.margin:.3g})")

    @classmethod
    def polyline(cls, waypoints, singularities=(), margin=None):
        pts = [complex(z) for z in waypoints]
        segs = [Line(a, b) for a, b in zip(pts[:-1], pts[1:]) if a != b]
        return cls(segments=tuple(segs), singularities=singularities,
                   margin=margin)

    def reversed(self):
        segs = []
        for seg in reversed(self.segments):
            if isinstance(seg, Line):
                segs.append(Line(seg.end, seg.start))
            else:
                segs.append(Arc(seg.center, seg.radius,
                                seg.angle0 + seg.sweep, -seg.sweep))
        return ComplexPath(tuple(segs), self.singularities, self.margin)


@dataclass
class Trajectory:
    """Integration result: states at strictly increasing path parameters.

    The path parameter counts segments: parameter k + s is the point at
    fraction s of segment k.  ``states[k]`` is the state at ``params[k]``.
    ``n_rhs_evals`` counts the stage values computed (one per segment
    for its first stage, six per step tried).
    """

    params: list = field(default_factory=list)
    states: list = field(default_factory=list)
    n_steps: int = 0
    n_rejected: int = 0
    n_rhs_evals: int = 0

    @property
    def end_state(self):
        return self.states[-1]


# Dormand-Prince 5(4) tableau.  Row k of _DP_W holds stage k's weights
# on the stage rows before it, so stage k's state is y + h*_DP_W[k, :k]
# @ K[:k]; stage 6's state is the 5th-order solution (FSAL).  Row 0, which
# no stage uses, holds the error weights b5 - b4.  Complex: its products
# with the complex stage rows need no cast.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_W = np.zeros((7, 7), dtype=complex)
_DP_W[1, :1] = [1 / 5]
_DP_W[2, :2] = [3 / 40, 9 / 40]
_DP_W[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_DP_W[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_DP_W[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                -5103 / 18656]
_DP_W[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_DP_W[0] = _DP_W[6] - [5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                       -92097 / 339200, 187 / 2100, 1 / 40]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
# accepted plus rejected steps one segment may take before StepBudgetError
MAX_SEGMENT_STEPS = 50_000


def _modulus(y):
    """The state's largest modulus, for error messages."""
    return float(np.max(np.abs(y)))


def _length(seg):
    """The segment's length, for error messages."""
    if isinstance(seg, Line):
        return abs(seg.end - seg.start)
    return seg.radius * abs(seg.sweep)


def _integrate_segment(rhs, seg, y, rel_tol, abs_tol, traj, stops, k):
    """Advance y across segment k, landing exactly on each stop in (0,1]."""

    # the chart z(s) and its velocity, with the parts constant in s hoisted
    # (the same arithmetic as Line.point and Arc.point): f is the rhs
    # pulled back to s
    if isinstance(seg, Line):
        z0, v = seg.start, seg.end - seg.start

        def f(s, y):
            return v * np.asarray(rhs(z0 + s * v, y), dtype=complex)
    else:
        c, r, a0, sweep = seg.center, seg.radius, seg.angle0, seg.sweep
        turn = 1j * sweep * r  # velocity over exp(i angle)

        def f(s, y):
            e = np.exp(1j * (a0 + s * sweep))
            return turn * e * np.asarray(rhs(c + r * e, y), dtype=complex)

    s = 0.0
    h = 1e-3  # initial step: 1e-3 x segment length, in chart units
    err_prev = 1.0
    tries = 0  # accepted plus rejected steps on this segment
    K = np.empty((7,) + y.shape, dtype=complex)  # the seven stage rows
    hW = np.empty((7, 7), dtype=complex)  # h * _DP_W, refilled per step
    # per later stage k, made once: stage k's state is y + hW[k, :k] @
    # K[:k] (views), then its abscissa
    stages = [(k, hW[k, :k], K[:k], _DP_C[k]) for k in range(1, 7)]
    K[0] = f(s, y)
    ay = np.abs(y)  # |y|, kept from the last accepted step
    for stop in stops:
        while s < stop:
            rest = stop - s
            h = min(h, rest)
            if h < 1e-14:
                raise StepUnderflowError(
                    f"step underflow on segment {k} (length "
                    f"{_length(seg):.3g}) at s={s:.6f}, h={h:.3g}, "
                    f"|y|={_modulus(y):.3g}")
            tries += 1
            if tries > MAX_SEGMENT_STEPS:
                raise StepBudgetError(
                    f"more than {MAX_SEGMENT_STEPS} steps on segment {k} "
                    f"(length {_length(seg):.3g}) at s={s:.6f}, h={h:.3g}, "
                    f"|y|={_modulus(y):.3g}")
            np.multiply(_DP_W, h, out=hW)
            for row, w, Kw, c_row in stages:
                yk = y + w @ Kw
                K[row] = f(s + c_row * h, yk)
            # RMS of the error over abs_tol + rel_tol * max(|y|, |y5|);
            # y5, the 5th-order solution, is stage 6's state yk
            ay5 = np.abs(yk)
            u = np.abs(hW[0] @ K) / (abs_tol + rel_tol * np.maximum(ay, ay5))
            enorm = math.sqrt(u @ u / u.size)
            if enorm <= 1.0:
                # a step clipped to the stop lands on it exactly: s + rest
                # may round below it
                s = stop if h == rest else s + h
                y, ay = yk, ay5
                K[0] = K[6]  # FSAL
                traj.n_steps += 1
                factor = _SAFETY * (enorm + 1e-16) ** (-_PI_ALPHA) \
                    * err_prev ** _PI_BETA
                err_prev = enorm + 1e-16
                h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            else:
                traj.n_rejected += 1
                factor = _SAFETY * enorm ** (-_PI_ALPHA)
                h *= min(1.0, max(_MIN_FACTOR, factor))
        yield stop, y
    traj.n_rhs_evals += 1 + 6 * tries  # K[0], then six rows per step tried


def integrate(rhs, y0, path: ComplexPath, rel_tol=1e-9, abs_tol=1e-12,
              samples=None) -> Trajectory:
    """Integrate dy/dz = rhs(z, y) along the path.

    ``samples``: optional increasing path parameters (in [0, n_segments])
    at which states are recorded in addition to segment endpoints.
    """
    y = np.asarray(y0, dtype=complex).copy()
    if y.ndim != 1:
        raise ValueError(f"state must be 1-D, got shape {y.shape}")
    traj = Trajectory()
    traj.params.append(0.0)
    traj.states.append(y.copy())
    samples = sorted(s for s in (samples or []) if 0.0 < s)
    for k, seg in enumerate(path.segments):
        local = sorted({s - k for s in samples if k < s <= k + 1} | {1.0})
        for stop, y_at in _integrate_segment(rhs, seg, y, rel_tol, abs_tol,
                                             traj, local, k):
            traj.params.append(k + stop)
            traj.states.append(y_at.copy())
            y = y_at
    return traj


def integrate_time(rhs, y0, times, i, end, rel_tol=1e-9, abs_tol=1e-12,
                   samples=None) -> Trajectory:
    """Integrate along the straight leg moving t_i from times[i-1] to end,
    the other times frozen; they, 0 and 1 are the leg's singular points.
    ``samples`` are fractions of the leg, as in :func:`integrate`."""
    if not 1 <= i <= len(times):
        raise ValueError(f"time index {i} out of range 1..{len(times)}")
    others = [t for k, t in enumerate(times) if k != i - 1]
    path = ComplexPath.polyline([times[i - 1], end],
                                singularities=[0.0, 1.0] + others)
    return integrate(rhs, y0, path, rel_tol=rel_tol, abs_tol=abs_tol,
                     samples=samples)


def integrate_two_time(sid, params, state, i_first, end_first, i_second,
                       end_second, rel_tol=1e-9, abs_tol=1e-12):
    """Integrate the i_first flow to its target time, then the i_second flow.

    Each leg moves one deformation time along a straight segment with the
    other times frozen; returns the endpoint PhaseState.  Raises
    PathMarginError if a leg passes too close to {0, 1, other times}.
    """
    from .catalog import flow_states

    for i, end in ((i_first, end_first), (i_second, end_second)):
        state = flow_states(sid, i, params, state, end, rel_tol=rel_tol,
                            abs_tol=abs_tol)[-1]
    return state


def trajectory_to_csv(traj: Trajectory, fileobj, component_names):
    """Write path_parameter plus re/im of each named state component as
    CSV."""
    cols = ["path_parameter"]
    for name in component_names:
        cols += [f"re_{name}", f"im_{name}"]
    fileobj.write(",".join(cols) + "\n")
    for s, y in zip(traj.params, traj.states):
        row = [f"{s:.12g}"]
        for z in y:
            row += [f"{z.real:.16g}", f"{z.imag:.16g}"]
        fileobj.write(",".join(row) + "\n")
