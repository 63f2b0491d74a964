"""Adaptive embedded Runge-Kutta integration along paths in the complex plane.

The integrator advances a complex state vector along a piecewise path of
segments, each a Line or an Arc that carries its own chart s in [0, 1] ->
z(s): its length, point, reverse, chord step and the pull-back of a
right-hand side (the series transport in ``monodromy`` plans its chords on
the same chart).  The stepper advances the pulled-back rhs in s, whatever
the segment, by the Dormand-Prince 8(5,3) pair (DOP853): twelve stages
per step, kept with the FSAL stage in one stage array, where each stage's
state, and each of the two error estimates, is one matrix product of
step-scaled weights with the stage rows.  Each segment's first step comes
from the problem (the starting step of Hairer, Norsett & Wanner, Solving
ODEs I, II.4), at one extra rhs evaluation.  Only the error controller
sizes the steps, the last one clipped to land on the segment's end.  It
is a PI controller (Gustafsson, ACM TOMS 17, 1991) whose memory of the
last error norm is floored at 1e-4, as dop853.f's FACOLD, and whose step
factor lies in [0.2, 6] (dop853.f's FAC2 is 6): an over-accurate step,
such as a starting step whose error norm is rounding noise, does not
shrink the next one.  A requested sample does not steer the steps: its
state is read off DOP853's continuous extension of order 7 (ibid., II.6)
over the accepted step that holds it, at three more rhs evaluations for
that step.

The step bookkeeping (the step size, the path parameter s, the error
norm and its memory) is in Python floats.  The error norm is cast from
its two numpy dots: a numpy float64 there would carry into every stage
abscissa, chart point and rhs call after the first step, and cost
numpy's scalar dispatch at each for the same IEEE bits.  So each chart
hands the rhs a Python complex z, an Arc's by cmath.exp, and
``Trajectory.params`` holds Python floats.  An error norm that is NaN,
or whose sum of squares overflows, fails the step.

A linear rhs y' = M(z) y, given as a :class:`~painlab.fuchsian.LinearRhs`,
takes a shorter route with the same arithmetic: all twelve stage abscissae
s + c_k h of a step are known before its first stage (ibid., II.5), so the
step evaluates the chart and M at all of them in one broadcast, and each
stage forms its state as above and stores z'(s_k) (M_k @ y_k), the product
a call of the pulled-back rhs makes.  The two routes agree to the bit.  Any
other callable, a wrapped LinearRhs included, takes one call per stage.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import COLLISION_TOL, min_gap
from .fuchsian import LinearRhs

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
    """Straight segment: z(s) = start + s * (end - start), s in [0, 1]."""

    start: complex
    end: complex

    def __post_init__(self):
        # written so that a NaN fails
        if not (cmath.isfinite(self.start) and cmath.isfinite(self.end)):
            raise ValueError(f"non-finite line {self}")

    @property
    def length(self):
        return abs(self.end - self.start)

    def point(self, s):
        return self.start + s * (self.end - self.start)

    def reversed(self):
        return Line(self.end, self.start)

    def chord_step(self, r):
        """The parameter step of a chord of length r."""
        return r / self.length

    def pullback(self, rhs):
        """The rhs pulled back to the chart: f(s, y) = z'(s) rhs(z(s), y)."""
        z0, v = self.start, self.end - self.start

        def f(s, y):
            return v * np.asarray(rhs(z0 + s * v, y), dtype=complex)
        return f

    def _chart(self, s):
        """z at the parameters ``s`` (an array) and z' at each, as the
        pulled-back rhs forms them."""
        v = self.end - self.start
        return self.start + s * v, [v] * len(s)

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
        # written so that a NaN fails
        if not (0 < self.radius < math.inf and 0 < abs(self.sweep) < math.inf
                and cmath.isfinite(self.center)
                and math.isfinite(self.angle0)):
            raise ValueError(f"degenerate arc {self}")

    @property
    def length(self):
        return self.radius * abs(self.sweep)

    def point(self, s):
        """The point at a scalar s."""
        return self.center + self.radius * cmath.exp(
            1j * (self.angle0 + s * self.sweep))

    def reversed(self):
        return Arc(self.center, self.radius, self.angle0 + self.sweep,
                   -self.sweep)

    def chord_step(self, r):
        """The parameter step of a chord of length r; a diameter at most."""
        return 2 * math.asin(min(1.0, r / (2 * self.radius))) \
            / abs(self.sweep)

    def pullback(self, rhs):
        """The rhs pulled back to the chart, as for a Line; one cmath.exp
        per call gives both z(s) and z'(s), Python complex numbers, with
        the bits of np.exp."""
        c, r, a0, sweep = self.center, self.radius, self.angle0, self.sweep
        turn = 1j * sweep * r  # velocity over exp(i angle)

        def f(s, y):
            e = cmath.exp(1j * (a0 + s * sweep))
            return turn * e * np.asarray(rhs(c + r * e, y), dtype=complex)
        return f

    def _chart(self, s):
        """z at the parameters ``s`` (an array) and z' at each, as the
        pulled-back rhs forms them."""
        e = np.exp(1j * (self.angle0 + s * self.sweep))
        return self.center + self.radius * e, 1j * self.sweep * self.radius * e

    def distance(self, z):
        """Exact distance from z to the arc (radial, or to an endpoint)."""
        sweep = abs(self.sweep)
        turn = math.copysign(1.0, self.sweep) * (cmath.phase(z - self.center)
                                                 - self.angle0)
        if sweep >= 2 * math.pi or turn % (2 * math.pi) <= sweep:
            return abs(abs(z - self.center) - self.radius)
        return min(abs(z - self.point(0.0)), abs(z - self.point(1.0)))


def default_margin(singularities, segments=()) -> float:
    """0.05 x min_gap of the singular points; a single point has no gap,
    so 0.05 x the length of the path's segments (0 for no points)."""
    pts = [complex(z) for z in singularities]
    if len(pts) == 1:
        return 0.05 * sum(seg.length for seg in segments)
    return 0.05 * min_gap(pts) if pts else 0.0


@dataclass(frozen=True)
class ComplexPath:
    """Piecewise path that must keep a margin from declared singular points.

    Construction fails fast if any segment comes closer than ``margin`` to
    a singularity; the 1/(z - t) coefficients downstream blow up there.
    Declared points that collide (their default margin would be 0) or are
    not finite fail it too.
    """

    segments: tuple
    singularities: tuple = ()
    margin: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "singularities",
                           tuple(complex(z) for z in self.singularities))
        if not min_gap(self.singularities) > COLLISION_TOL:
            raise PathMarginError(f"declared singular points collide or are "
                                  f"not finite: {self.singularities}")
        m = self.margin
        if m is None:
            m = default_margin(self.singularities, self.segments)
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
        return ComplexPath(tuple(seg.reversed()
                                 for seg in reversed(self.segments)),
                           self.singularities, self.margin)


@dataclass
class Trajectory:
    """Integration result: states at strictly increasing path parameters.

    The path parameter counts segments: parameter k + s is the point at
    fraction s of segment k, a Python float.  ``states[k]`` is the state
    at ``params[k]``.
    ``n_rhs_evals`` counts the stage values computed: two per segment,
    for its first stage and the starting-step probe, then twelve per step
    tried, and three more per accepted step that holds a sample strictly
    inside (its dense output's extra stages).
    """

    params: list = field(default_factory=list)
    states: list = field(default_factory=list)
    n_steps: int = 0
    n_rejected: int = 0
    n_rhs_evals: int = 0

    @property
    def end_state(self):
        return self.states[-1]


# Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner's DOP853).  Row
# k of _DP_W holds stage k's weights on the stage rows before it, so stage
# k's state is y + h*_DP_W[k, :k] @ K[:k]; stage 12's state is the
# 8th-order solution (FSAL).  Rows 13-15 are the dense output's three extra
# stages, on the FSAL row too, and _DP_D holds the weights of its last four
# interpolant rows on all sixteen.  Rows 0 and 1 of _DP_E hold the weights
# of the 5th- and 3rd-order error estimates on the first twelve stages (row
# 1 is the 8th-order weights less the 3rd-order ones).  Complex: their
# products with the complex stage rows need no cast.
_DP_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
         0.2816496580927726, 1 / 3, 0.25, 4 / 13, 127 / 195, 0.6, 6 / 7,
         1.0, 1.0, 0.1, 0.2, 0.7777777777777778)
_DP_W = np.zeros((16, 16), dtype=complex)
_DP_W[1, :1] = [0.05260015195876773]
_DP_W[2, :2] = [0.0197250569845379, 0.0591751709536137]
_DP_W[3, :3] = [0.02958758547680685, 0.0, 0.08876275643042054]
_DP_W[4, :4] = [0.2413651341592667, 0.0, -0.8845494793282861,
                0.924834003261792]
_DP_W[5, :5] = [0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
                0.12546768756682242]
_DP_W[6, :6] = [0.037109375, 0.0, 0.0, 0.17025221101954405,
                0.06021653898045596, -0.017578125]
_DP_W[7, :7] = [0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
                0.10726203044637328, -0.015319437748624402,
                0.008273789163814023]
_DP_W[8, :8] = [0.6241109587160757, 0.0, 0.0, -3.3608926294469414,
                -0.868219346841726, 27.59209969944671, 20.154067550477894,
                -43.48988418106996]
_DP_W[9, :9] = [0.47766253643826434, 0.0, 0.0, -2.4881146199716677,
                -0.590290826836843, 21.230051448181193, 15.279233632882423,
                -33.28821096898486, -0.020331201708508627]
_DP_W[10, :10] = [-0.9371424300859873, 0.0, 0.0, 5.186372428844064,
                  1.0914373489967295, -8.149787010746927, -18.52006565999696,
                  22.739487099350505, 2.4936055526796523,
                  -3.0467644718982196]
_DP_W[11, :11] = [2.273310147516538, 0.0, 0.0, -10.53449546673725,
                  -2.0008720582248625, -17.9589318631188, 27.94888452941996,
                  -2.8589982771350235, -8.87285693353063, 12.360567175794303,
                  0.6433927460157636]
_DP_W[12, :12] = [0.054293734116568765, 0.0, 0.0, 0.0, 0.0,
                  4.450312892752409, 1.8915178993145003, -5.801203960010585,
                  0.3111643669578199, -0.1521609496625161,
                  0.20136540080403034, 0.04471061572777259]
_DP_W[13, :13] = [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0,
                  0.25350021021662483, -0.2462390374708025,
                  -0.12419142326381637, 0.15329179827876568,
                  0.00820105229563469, 0.007567897660545699, -0.008298]
_DP_W[14, :14] = [0.03183464816350214, 0.0, 0.0, 0.0, 0.0,
                  0.028300909672366776, 0.053541988307438566,
                  -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932,
                  0.0003825710908356584, -0.00034046500868740456,
                  0.1413124436746325]
_DP_W[15, :15] = [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0,
                  -4.697621415361164, 7.683421196062599, 4.06898981839711,
                  0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
                  2.9475147891527724, -9.15095847217987]
_DP_D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564]], dtype=complex)
_DP_C12 = np.array(_DP_C[1:13])  # stages 1-12's, for a step's broadcast
_DP_E = np.zeros((2, 12), dtype=complex)
_DP_E[0] = [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
            -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
            0.3341791187130175, 0.08192320648511571, -0.022355307863886294]
_DP_E[1] = _DP_W[12, :12]
_DP_E[1, [0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118,
                         0.022058823529411766]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 6.0
_PI_ALPHA = 0.7 / 8.0
_PI_BETA = 0.4 / 8.0
_ERR_FLOOR = 1e-4  # the least error norm the PI term remembers
# accepted plus rejected steps one segment may take before StepBudgetError
MAX_SEGMENT_STEPS = 50_000


def _modulus(y):
    """The state's largest modulus, for error messages."""
    return float(np.max(np.abs(y)))


def _rms(x):
    """Root mean square of the moduli of x."""
    u = np.abs(x)
    return math.sqrt(u @ u / u.size)


def _error_norm(u):
    """Hairer's error norm e5 / sqrt(n (e5 + 0.01 e3)) of a step, a Python
    float, where e5 and e3 are the squared sums of the rows of ``u``, the
    scaled moduli (2, n) of the 5th- and 3rd-order estimates.  Both
    exactly zero: no error, 0.0.  A NaN or infinite n (e5 + 0.01 e3) gives
    inf, so that the step fails: e3 alone may overflow, and the quotient
    would read 0.0."""
    e5, e3 = float(u[0] @ u[0]), float(u[1] @ u[1])
    deno = u.shape[1] * (e5 + 0.01 * e3)
    if deno == 0:
        return 0.0
    if not deno < math.inf:  # written so that a NaN fails
        return math.inf
    return e5 / math.sqrt(deno)


def _first_step(f, y, f0, rel_tol, abs_tol):
    """The starting step of Hairer, Norsett & Wanner (Solving ODEs I, II.4)
    in chart units, from the sizes of y and f0 = f(0, y) and one Euler
    probe; at most 1, the whole segment, which is also the step where f
    does not vary (a zero rhs).  Always finite and positive: where a size
    is infinite or NaN it falls back to the probe step or to 1e-6, and the
    stepper shrinks the step from there."""
    sc = abs_tol + rel_tol * np.abs(y)
    d0, d1 = _rms(y / sc), _rms(f0 / sc)
    h0 = 0.01 * d0 / d1 if d0 >= 1e-5 and d1 >= 1e-5 else 1e-6
    h0 = min(h0, 1.0) if h0 > 0 else 1e-6
    d2 = _rms((f(h0, y + h0 * f0) - f0) / sc) / h0
    # h**(p+1) max(d1, d2) = 0.01 for the order p = 8
    d = max(d1, d2)
    if d <= 1e-15:
        return 1.0
    h = min(100 * h0, (0.01 / d) ** (1 / 9), 1.0)
    return h if h > 0 else h0


def _dense_states(f, s, step, y, y8, K, hW, xs):
    """The states at fractions ``xs`` of an accepted step from (s, y) to y8,
    from DOP853's continuous extension of order 7 (dop853.f's contd8): three
    more stages fill K[13:16], then the interpolant's seven rows are summed
    for all fractions at once in Horner form, in x and 1 - x alternately."""
    for row in range(13, 16):
        K[row] = f(s + _DP_C[row] * step, y + hW[row, :row] @ K[:row])
    dy = y8 - y
    F = np.empty((7,) + y.shape, dtype=complex)
    F[0] = dy
    F[1] = step * K[0] - dy
    F[2] = 2 * dy - step * (K[12] + K[0])
    F[3:] = (step * _DP_D) @ K
    x = np.asarray(xs)[:, None]
    u = F[6] * x
    for r in range(5, -1, -1):
        u = (u + F[r]) * (x if r % 2 == 0 else 1 - x)
    return y + u


def _integrate_segment(rhs, seg, y, rel_tol, abs_tol, traj, stops, k):
    """Advance y across segment k, yielding (stop, state) for each of the
    increasing ``stops`` in (0, 1], whose last is 1.  The steps are the
    error controller's alone, the last clipped to land on 1 exactly; a
    stop strictly inside an accepted step is read off its dense output, a
    stop at its end takes its state.  For a LinearRhs y' = M(z) y, each
    step evaluates the chart and M at its twelve stage abscissae in one
    broadcast, and stage k stores z'_k (M_k @ y_k), as a call of f does."""
    f = seg.pullback(rhs)  # the rhs in the chart parameter s
    coefficient = rhs.coefficient if isinstance(rhs, LinearRhs) else None
    s = 0.0
    err_prev = 1.0
    tries = 0  # accepted plus rejected steps on this segment
    dense = 0  # accepted steps with a stop strictly inside
    # the thirteen stage rows, then the dense output's three
    K = np.empty((16,) + y.shape, dtype=complex)
    hW = np.empty((16, 16), dtype=complex)  # h * _DP_W, refilled per step
    hE = np.empty((2, 12), dtype=complex)  # h * _DP_E, likewise
    # per later stage k, made once: stage k's state is y + hW[k, :k] @
    # K[:k] (views), then its abscissa
    stages = [(k, hW[k, :k], K[:k], _DP_C[k]) for k in range(1, 13)]
    K[0] = f(s, y)
    h = _first_step(f, y, K[0], rel_tol, abs_tol)
    ay = np.abs(y)  # |y|, kept from the last accepted step
    i = 0  # stops[i] is the first stop beyond s
    while s < 1.0:
        rest = 1.0 - s
        step = min(h, rest)
        if step < 1e-14:
            raise StepUnderflowError(
                f"step underflow on segment {k} (length "
                f"{seg.length:.3g}) at s={s:.6f}, h={step:.3g}, "
                f"|y|={_modulus(y):.3g}")
        tries += 1
        if tries > MAX_SEGMENT_STEPS:
            raise StepBudgetError(
                f"more than {MAX_SEGMENT_STEPS} steps on segment {k} "
                f"(length {seg.length:.3g}) at s={s:.6f}, h={step:.3g}, "
                f"|y|={_modulus(y):.3g}")
        np.multiply(_DP_W, step, out=hW)
        np.multiply(_DP_E, step, out=hE)
        if coefficient is None:
            for row, w, Kw, c_row in stages:
                yk = y + w @ Kw
                K[row] = f(s + c_row * step, yk)
        else:
            z, dz = seg._chart(s + _DP_C12 * step)
            for (row, w, Kw, _), dzk, Mk in zip(stages, dz,
                                                coefficient(z[:, None])):
                yk = y + w @ Kw
                K[row] = dzk * (Mk @ yk)
        # the estimates over abs_tol + rel_tol * max(|y|, |y8|); y8, the
        # 8th-order solution, is stage 12's state yk
        ay8 = np.abs(yk)
        enorm = _error_norm(
            np.abs(hE @ K[:12]) / (abs_tol + rel_tol * np.maximum(ay, ay8)))
        if enorm <= 1.0:
            # the last step lands on 1 exactly: s + rest may round below it
            s_new = 1.0 if step == rest else s + step
            j = i  # stops[i:j] lie strictly inside the step
            while stops[j] < s_new:
                j += 1
            if j > i:
                dense += 1
                xs = [(stop - s) / step for stop in stops[i:j]]
                yield from zip(stops[i:j],
                               _dense_states(f, s, step, y, yk, K, hW, xs))
            if stops[j] == s_new:
                yield s_new, yk
                j += 1
            i = j
            s, y, ay = s_new, yk, ay8
            K[0] = K[12]  # FSAL
            traj.n_steps += 1
            factor = _SAFETY * (enorm + 1e-16) ** (-_PI_ALPHA) \
                * err_prev ** _PI_BETA
            err_prev = max(enorm, _ERR_FLOOR)  # dop853.f's FACOLD
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        else:
            traj.n_rejected += 1
            factor = _SAFETY * enorm ** (-_PI_ALPHA)
            h = step * min(1.0, max(_MIN_FACTOR, factor))
    # K[0] and the probe, twelve rows per step tried, three more per step
    # read inside
    traj.n_rhs_evals += 2 + 12 * tries + 3 * dense


def integrate(rhs, y0, path: ComplexPath, rel_tol=1e-9, abs_tol=1e-12,
              samples=None) -> Trajectory:
    """Integrate dy/dz = rhs(z, y) along the path.

    ``samples``: optional path parameters in [0, n_segments] at which
    states are recorded in addition to segment endpoints; a NaN or one
    outside that range raises ValueError.  They do not steer the steps:
    each is read off the dense output of the step that holds it.
    """
    y = np.asarray(y0, dtype=complex).copy()
    if y.ndim != 1:
        raise ValueError(f"state must be 1-D, got shape {y.shape}")
    n_seg = len(path.segments)
    samples = [float(s) for s in (() if samples is None else samples)]
    # written so that a NaN sample fails
    bad = [s for s in samples if not 0.0 <= s <= n_seg]
    if bad:
        raise ValueError(f"samples {bad} outside the path's parameter "
                         f"range [0, {n_seg}]")
    traj = Trajectory()
    traj.params.append(0.0)
    traj.states.append(y.copy())
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
