"""Numerical monodromy of Fuchsian systems and deformation drift.

Generators are "lasso" loops from a common base point: straight approach
to a small circle around one singular point, the full circle, and the
return leg.  The return leg retraces the approach, so its transport is
the inverse of the approach's: a lasso is transported up to the end of
its circle and the return is obtained by inversion.  The loop at
infinity is one more lasso from the same base point: out along its ray
to a circle of twice its modulus, one clockwise turn around every
singular point, and back.  The big circle is a transport of its own, not
a product of the generators, so the product relation stays an
independent check.  Only conjugacy-invariant data (traces of the
monodromy matrices and of their pairwise products) is compared across a
deformation; fundamental-solution normalization at a moving singularity
configuration is gauge.

The transport is by power series, as in the numerical analytic
continuation of holonomic functions (van der Hoeven, Theoret. Comput.
Sci. 210, 1999; Mezzarobba, ISSAC 2016).  Each Line and Arc becomes a
chain of chords c -> c + h between points on it.  On a chord of ratio
rho = |h|/dist(c, points) the series in tau has the majorant
(1 - rho tau)^(-alpha), alpha = dist(c, points) sum_i ||A_i||/|t_i - c|,
and each chord is as long as its own majorant tail past the order K
allows: rho is the largest ratio up to RHO whose tail is at most rel_tol
(:func:`_chord_ratio`).  The sizes depend only on the geometry and the
residues, so every chord of every lasso is known before any arithmetic.
A chord lies inside the disc of convergence about c, together with the
arc it replaces, so the homotopy class is kept.  On a chord
Y(c + tau h) = sum_k Z_k tau^k Y(c) with Z_0 = I; with u_i = h/(t_i - c)
and W_{i,-1} = 0,

    W_{i,k} = u_i (Z_k + W_{i,k-1}),
    Z_{k+1} = -sum_i A_i W_{i,k} / (k + 1),

and T = sum_{k<=K} Z_k carries Y(c) to Y(c + h).  One order K serves
every chord: the least whose tail is at most rel_tol at ratio RHO and
alpha = SIGMA/RHO (:func:`series_order`).
All chords of a representation, the loop at infinity's included, run
through this recurrence together, in blocks of BLOCK chords, each order
one matrix product into a preallocated buffer.  The other passes of an
order take same-shape operands (u_i is spread over W_i once per block),
and a block's work arrays are freed before its a-posteriori check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import max_residual
from .fuchsian import FuchsianSystem
from .integrator import (MAX_SEGMENT_STEPS, Arc, ComplexPath, Line,
                         StepBudgetError, StepUnderflowError, default_margin)

__all__ = [
    "base_point",
    "lasso",
    "lasso_at_infinity",
    "monodromy_matrix",
    "LassoTransport",
    "TransportDefectError",
    "series_order",
    "MonodromyRepresentation",
    "monodromy_representation",
    "invariant_traces",
    "isomonodromy_drift",
]

# a chord from c has |h| <= RHO dist(c, points); the series order is the
# one a chord of ratio RHO needs at alpha = SIGMA/RHO (series_order)
RHO = 0.4
SIGMA = 2.0
# chords per block of the recurrence: a multiple of 4 (see _transfer)
BLOCK = 256
# the highest series order: series_order reaches rel_tol 1e-70 below it
MAX_ORDER = 200
# the smallest defect the check asks for, above roundoff: the worst chord
# of the five assemblable systems at seeds 8-13 reads 3.3e-14
DEFECT_FLOOR = 1e-12


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
    approach = Line(x0, entry)
    segments = (approach, Arc(tk, r, angle0, 2 * np.pi), approach.reversed())
    others = [z for j, z in enumerate(pts) if j != k]
    margin = min(0.5 * r, default_margin(pts))
    return ComplexPath(segments=segments, singularities=tuple(others),
                       margin=margin)


def lasso_at_infinity(points, x0=None) -> ComplexPath:
    """Lasso around infinity: out along the ray of x0 to the circle of
    radius 2|x0| about 0, one clockwise turn, and back.

    From the default base point every finite singular point lies inside
    the circle, so it is one clockwise turn about 0 through x0 up to
    homotopy; its return leg retraces the approach, like a :func:`lasso`.
    """
    pts = [complex(z) for z in points]
    if x0 is None:
        x0 = base_point(pts)
    x0 = complex(x0)
    far = 2 * x0
    approach = Line(x0, far)
    segments = (approach, Arc(0j, abs(far), float(np.angle(x0)), -2 * np.pi),
                approach.reversed())
    return ComplexPath(segments=segments, singularities=tuple(pts),
                       margin=None)


class TransportDefectError(RuntimeError):
    """A chord's series fails the a-posteriori check of its derivative."""

    def __init__(self, lasso, step, c, h, defect, tol):
        super().__init__(
            f"series defect {defect:.3g} above {tol:.3g} on lasso {lasso}, "
            f"step {step}: chord from c={c:.6g} with h={h:.3g}")
        self.lasso, self.step, self.c, self.h = lasso, step, c, h
        self.defect, self.tol = defect, tol


@functools.lru_cache
def series_order(rel_tol) -> int:
    """Order K of every chord's series, from the majorant and rel_tol.

    K is the least order at which :func:`_chord_ratio` lets a chord at
    alpha = SIGMA/RHO have the full ratio RHO: SIGMA fixes K, and
    :func:`_chord_ratio` then sizes each chord for it.  ValueError for a
    rel_tol that is not positive, or that needs an order past MAX_ORDER.
    """
    if not rel_tol > 0:  # a NaN too, which would leave every chord at RHO
        raise ValueError(f"rel_tol {rel_tol} is not positive")
    for k in range(MAX_ORDER + 1):
        if _chord_ratio(k, rel_tol)(SIGMA / RHO) >= RHO:
            return k
    raise ValueError(f"rel_tol {rel_tol:.3g} needs a series order above "
                     f"{MAX_ORDER}")


def _chord_ratio(order, rel_tol):
    """The map alpha -> rho = |h|/dist(c, points) for chords of majorant
    (1 - rho tau)^(-alpha): the largest rho <= RHO, to within 0.07% at
    rel_tol 1e-6 to 1e-14, with c_{K+1}/(1 - rho m) <= rel_tol, K = order.

    c_{K+1} = rho^{K+1} (alpha)_{K+1}/(K+1)!, and m = max(1, (alpha + K
    + 1)/(K + 2)) bounds the later term ratios over rho, which rise
    towards 1 for alpha < 1.  With free the rho of c_{K+1} = rel_tol, the
    rho sought is at most min(RHO, free), so 1 - min(RHO, free) m floors
    the denominator: that gives the closed form.  Its logs aim 2^-40 of
    their sizes below log rel_tol, far above their rounding, so the bound
    holds at the rho returned.  Zero residues (alpha = 0) leave no tail
    and give RHO; an infinite alpha gives 0; a NaN one gives RHO, for the
    a-posteriori check to read.
    """
    n = order + 1
    log_tol, fact = math.log(rel_tol), math.lgamma(n + 1)
    size, root = fact + abs(log_tol), 1 / n
    lgamma, exp, inf = math.lgamma, math.exp, math.inf

    def ratio(alpha):
        if not 0 < alpha < inf:  # no residues, an infinite one, or a NaN
            return 0.0 if alpha == inf else RHO
        # log (alpha)_n/n!, the log of c_n/rho^n
        top, low = lgamma(alpha + n), lgamma(alpha)
        slack = 2.0 ** -40 * (abs(top) + abs(low) + size)
        free = exp((log_tol - slack - top + low + fact) / n)
        m = (alpha + n) / (n + 1)
        floor = 1 - (free if free < RHO else RHO) * (m if m > 1.0 else 1.0)
        rho = free * floor ** root if floor > 0 else 0.0
        return rho if rho < RHO else RHO

    return ratio


def _chords(seg, points, norms, ratio, lasso):
    """Vertices of the chords that replace one Line or Arc segment.

    From a vertex c the next one lies on the segment at chord length
    rho dist(c, points), rho = ``ratio(alpha)`` (:func:`_chord_ratio`) at
    alpha = dist(c, points) sum_i norms_i/|t_i - c|, or at the segment's
    end.  ``norms`` bound the residues' spectral norms.  The segment's own
    chart gives the vertices (``seg.point``) and the parameter steps
    (``seg.chord_step``).  Raises StepBudgetError past MAX_SEGMENT_STEPS
    chords, and StepUnderflowError for a chord whose length is not
    positive (an infinite residue, say).
    """
    point, chord_step = seg.point, seg.chord_step
    s, c = 0.0, complex(point(0.0))
    out = [c]
    while s < 1.0:
        if len(out) > MAX_SEGMENT_STEPS:
            raise StepBudgetError(
                f"more than {MAX_SEGMENT_STEPS} chords on a segment of "
                f"lasso {lasso}, at step {len(out) - 1} of the segment: "
                f"c={c:.6g}, h={out[-1] - out[-2]:.3g}")
        near, weight = math.inf, 0.0
        for a, t in zip(norms, points):
            d = abs(t - c)
            if d < near:
                near = d
            weight += a / d
        r = near * ratio(near * weight)
        if not r > 0:  # an infinite weight, say: s would never advance
            raise StepUnderflowError(
                f"chord of length {r:.3g} on a segment of lasso {lasso}, at "
                f"step {len(out) - 1} of the segment: c={c:.6g}, "
                f"weight={weight:.3g}")
        s = min(1.0, s + chord_step(r))
        c = complex(point(s))
        out.append(c)
    return out


def _recurrence(neg, u, order):
    """T = sum Z_k and sum k Z_k of one block, each (L, b, L) with chord
    j in [:, j, :], from neg = -[A_1 ... A_P] and u_i = h/(t_i - c) (P, b).

    Every pass has same-shape operands: u is spread to W's shape once,
    and Z_k goes into each W_i by its own in-place add, so numpy's inner
    loops run over whole rows, not over the L entries a broadcast leaves.
    """
    L, (P, b) = len(neg), u.shape
    z = np.zeros((L, b, L), dtype=complex)  # Z_k[r, j, c]: chord j
    z[np.arange(L), :, np.arange(L)] = 1.0
    t = z.copy()
    dz = np.zeros_like(z)  # sum k Z_k
    w = np.zeros((P, L, b, L), dtype=complex)
    u = np.broadcast_to(u[:, None, :, None], w.shape).copy()
    # w takes in Z_k before the product overwrites z with (k + 1) Z_{k+1}
    ws = list(w)  # views of the W_i
    w2, z2, zf = w.reshape(P * L, -1), z.reshape(L, -1), z.view(float)
    for k in range(order):
        for wi in ws:
            wi += z
        w *= u
        np.matmul(neg, w2, out=z2)
        dz += z
        # numpy's complex / (k + 1) is (x + 0 y, y - 0 x) * (1 / (k + 1))
        zf *= 1.0 / (k + 1)
        t += z
    return t, dz


def _transfer(sys, c, h, order, rel_tol, firsts):
    """Transfer matrices Y(c + h) = T Y(c) of the chords, shape (S, L, L).

    Blocks of BLOCK chords run the recurrence of the module docstring
    side by side (:func:`_recurrence`): the P W_i of a block form one
    (P L, b L) array, so each order is one product with [A_1 ... A_P],
    written over Z_k in place; every BLOCK that is a multiple of 4 (the
    BLAS product's column group) gives the same bits.  The work arrays
    are freed when the recurrence returns, so they are not held while
    each block is checked with one broadcast call of ``sys.rhs()``:
    h M(c + h) T must equal the derivative sum k Z_k to
    max(rel_tol, DEFECT_FLOOR), relative to its size, or a
    TransportDefectError (a NaN too) names the chord's lasso and step,
    found from ``firsts``, each lasso's first chord index.
    """
    L = sys.size
    pts = np.array(sys.points)
    # -[A_1 ... A_P]: Z_{k+1} = this times the stacked W_k over k + 1
    neg = -np.concatenate(sys.residues, axis=1)
    rhs = sys.rhs()
    tol = max(rel_tol, DEFECT_FLOOR)
    out = np.empty((len(c), L, L), dtype=complex)
    for lo in range(0, len(c), BLOCK):
        cb, hb = c[lo:lo + BLOCK], h[lo:lo + BLOCK]
        b = len(cb)
        t, dz = _recurrence(neg, hb / (pts[:, None] - cb), order)
        # t copied: the stacked product runs faster on it than on the view
        t, dz = t.transpose(1, 0, 2).copy(), dz.transpose(1, 0, 2)
        slope = hb[:, None, None] * rhs((cb + hb)[:, None], t)
        size = np.abs(dz).max(axis=(1, 2)).clip(np.finfo(float).tiny)
        defect = np.max(np.abs(slope - dz), axis=(1, 2)) / size
        worst = int(np.argmax(defect))
        if not defect[worst] <= tol:
            j = lo + worst
            k = int(np.searchsorted(firsts, j, side="right")) - 1
            raise TransportDefectError(k, int(j - firsts[k]), c[j], h[j],
                                       float(defect[worst]), tol)
        out[lo:lo + b] = t
    return out


def _chain(ts):
    """Product ts[-1] ... ts[0] of a (n, L, L) run, by pairs."""
    left = None  # the odd ones out, ts[-1] first: they multiply from the left
    while len(ts) > 1:
        if len(ts) % 2:
            left = ts[-1] if left is None else left @ ts[-1]
            ts = ts[:-1]
        ts = ts[1::2] @ ts[0::2]
    return ts[0] if left is None else left @ ts[0]


class LassoTransport(NamedTuple):
    """What :func:`monodromy_matrix` returns: the matrices and the work."""

    matrices: np.ndarray  # (B, L, L): one monodromy matrix per lasso
    steps: int            # chords transported, all lassos together
    order: int            # series order of every chord


def monodromy_matrix(sys: FuchsianSystem, lassos, rel_tol=1e-10):
    """Monodromy matrices of the fundamental solution around B lassos.

    A lasso starts with a straight line and ends by retracing it.  Its
    segments up to the return leg become chords (:func:`_chords`), and
    the chords of all B lassos go through one blocked series recurrence
    (:func:`_transfer`).  The return leg is not transported: with P the
    product along the first segment and C P the product up to the return
    leg, the matrix is P^-1 C P.  Raises ValueError for a loop that does
    not retrace its first segment.
    """
    for loop in lassos:
        first, last = loop.segments[0], loop.segments[-1]
        if not (isinstance(first, Line) and last == first.reversed()):
            raise ValueError("monodromy_matrix takes lassos: a loop must "
                             "end by retracing its first, straight segment")
    # Frobenius norms: they bound the spectral ones, and need no SVD
    norms = [float(np.linalg.norm(a)) for a in sys.residues]
    order = series_order(rel_tol)
    ratio = _chord_ratio(order, rel_tol)
    counts = []  # per lasso: chords on its approach, then on the rest
    c, h = [], []  # per segment: its chords' starts and steps
    for b, loop in enumerate(lassos):
        legs = [np.array(_chords(seg, sys.points, norms, ratio, b))
                for seg in loop.segments[:-1]]
        counts.append((len(legs[0]) - 1, sum(len(v) - 1 for v in legs[1:])))
        c += [v[:-1] for v in legs]
        h += [np.diff(v) for v in legs]
    c, h = np.concatenate(c), np.concatenate(h)
    firsts = np.cumsum([0] + [sum(n) for n in counts[:-1]])
    ts = _transfer(sys, c, h, order, rel_tol, firsts)
    mats = []
    lo = 0
    for n_approach, n_rest in counts:
        mid = lo + n_approach
        approach = _chain(ts[lo:mid])
        rest = _chain(ts[mid:mid + n_rest])
        mats.append(np.linalg.solve(approach, rest @ approach))
        lo = mid + n_rest
    return LassoTransport(np.array(mats), len(c), order)


@dataclass(frozen=True)
class MonodromyRepresentation:
    base: complex
    loops: tuple             # (encircled point, circle radius) per generator
    matrices: tuple          # one generator per finite singular point
    at_infinity: np.ndarray  # its own lasso around a large circle
    transport_steps: int     # chords of all lassos, that one included
    series_order: int        # the order of every chord's series

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
    included, go through one :func:`monodromy_matrix` call.  The
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
    transport = monodromy_matrix(sys, paths, rel_tol)
    *ordered, minf = transport.matrices
    loops = tuple((pts[k], _loop_radius(pts, k)) for k in order)
    return MonodromyRepresentation(base=complex(x0), loops=loops,
                                   matrices=tuple(ordered), at_infinity=minf,
                                   transport_steps=transport.steps,
                                   series_order=transport.order)


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
    return max_residual(float(np.max(np.abs(invariant_traces(rep) - ref)))
                        / scale for rep in reps[1:])
