"""System descriptors, parameter maps, Hamiltonian evaluation and flows.

A catalog entry is addressed by its spectral-type id, the comma-separated
partition string also used on the command line (e.g. ``21,21,21,21,111``).
Systems come in two parameter conventions: the newly derived six-dimensional
ones are parametrized by local exponents (theta/rho) with a linear map to
alpha values, while the companion systems are parametrized by alphas
directly.  Either way one linear relation (the trace condition on the
exponents) must vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Callable, Mapping

import numpy as np

from ._gradients import field
from .algebra import COLLISION_TOL, dual_gradient, max_residual, min_gap
from .hamiltonians import HAMILTONIANS
from .integrator import integrate_time

__all__ = [
    "LinearForm",
    "SystemDescriptor",
    "PhaseState",
    "lookup",
    "list_systems",
    "MergedParams",
    "derive_alphas",
    "full_params",
    "eval_h",
    "vector_field",
    "flow_rhs",
    "flow_states",
    "constraint_rate",
]


@dataclass(frozen=True)
class LinearForm:
    """Affine form sum(coeffs[name] * value[name]) + const."""

    coeffs: Mapping[str, float]
    const: float = 0.0

    def __call__(self, values: Mapping[str, complex]) -> complex:
        coeffs = self.coeffs
        return sum(map(mul, coeffs.values(), map(values.__getitem__, coeffs))) \
            + self.const

    def solve_for(self, name: str, values: Mapping[str, complex]) -> complex:
        """Value of ``name`` that makes the form vanish, others given."""
        others = dict(self.coeffs)
        c = others.pop(name)
        rest = sum(map(mul, others.values(), map(values.__getitem__, others)))
        return -(rest + self.const) / c


@dataclass(frozen=True)
class SystemDescriptor:
    """Static data of one catalog system."""

    sid: str
    n_times: int
    n_pairs: int
    matrix_size: int
    family: str
    param_names: tuple
    fuchs_relation: LinearForm
    alpha_map: Mapping[str, LinearForm] | None = None
    alpha_relation: LinearForm | None = None

    @property
    def alpha_names(self):
        if self.alpha_map is not None:
            return tuple(self.alpha_map)
        return tuple(n for n in self.param_names if n.startswith(("alpha", "eta")))


def _uniform(names, coeff=1.0, const=0.0, **overrides):
    coeffs = {n: overrides.get(n, coeff) for n in names}
    return LinearForm(coeffs=coeffs, const=const)


def _lf(const=0.0, **coeffs):
    return LinearForm(coeffs=coeffs, const=const)


_ALPHAS6 = tuple(f"alpha{k}" for k in range(6))

# printed exponent->alpha maps of the newly derived systems
_ALPHA_MAPS = {
    "21,21,21,21,111": {
        "alpha0": _lf(rho2=-1),
        "alpha1": _lf(theta1=-1),
        "alpha2": _lf(theta2=-1, rho3=-1),
        "alpha3": _lf(theta4=-1),
        "alpha4": _lf(rho1=-1, rho2=1, const=1),
        "alpha5": _lf(theta3=-1, const=-1),
    },
    "31,31,22,22,22": {
        "alpha0": _lf(theta1=0.5, theta2=-0.5, rho2=-1),
        "alpha1": _lf(theta1=-1),
        "alpha2": _lf(theta1=-0.5, theta2=0.5),
        "alpha3": _lf(theta4=-1),
        "alpha4": _lf(rho1=-1, rho2=1, const=1),
        "alpha5": _lf(theta3=-1, const=-1),
    },
    "21,111,111,111": {
        "alpha0": _lf(rho2=1),
        "alpha1": _lf(theta32=-1, rho2=-1),
        "alpha2": _lf(theta31=-1, theta32=1),
        "alpha3": _lf(theta21=1, theta31=1, rho1=1),
        "alpha4": _lf(rho1=-1, rho3=1, const=1),
        "alpha5": _lf(theta21=-1, rho3=-1),
        "eta": _lf(theta1=1, theta21=1, theta31=1, rho1=1),
    },
    "31,22,211,1111": {
        "alpha0": _lf(theta32=1),
        "alpha1": _lf(theta2=-1, theta32=-1, rho2=-1, rho4=-1),
        "alpha2": _lf(theta2=1, theta31=1, rho2=1, rho4=1),
        "alpha3": _lf(theta2=-1, theta31=-1, rho1=-1, rho4=-1),
        "alpha4": _lf(rho1=1, rho3=-1, const=1),
        "alpha5": _lf(theta2=1, rho3=1, rho4=1),
        "eta": _lf(rho3=1, rho4=-1),
    },
    "22,22,211,211": {
        "alpha0": _lf(theta2=-1),
        "alpha1": _lf(theta31=-1, const=1),
        "alpha2": _lf(rho3=-1),
        "alpha3": _lf(theta1=1, theta2=1, theta31=1, rho3=2),
        "alpha4": _lf(theta1=-1),
        "alpha5": _lf(theta1=-1, theta2=-1, theta32=-1, rho2=-1),
    },
    "22,22,22,1111": {
        "alpha0": _lf(theta2=-1),
        "alpha1": _lf(theta3=-1, const=1),
        "alpha2": _lf(rho3=-1),
        "alpha3": _lf(theta1=1, theta2=1, theta3=1, rho3=2),
        "alpha4": _lf(theta1=-1),
        "alpha5": _lf(theta1=-1, theta2=-1, theta3=-1, rho2=-1),
    },
    "51,33,222,222": {
        "alpha0": _lf(theta1=1, theta31=1, theta32=1, rho2=1, rho3=1, const=1),
        "alpha1": _lf(theta1=1, rho2=1),
        "alpha2": _lf(theta1=-1),
        "alpha3": _lf(rho3=-1),
        "alpha4": _lf(theta1=-0.5, theta2=-0.5, theta32=-1, rho2=-1),
        "alpha5": _lf(theta31=-1, theta32=1),
        "alpha6": _lf(theta1=0.5, theta2=0.5, rho3=1),
    },
}

_THETA4 = ("theta1", "theta2", "theta3", "theta4")


def _make_catalog():
    entries = []

    def add(sid, n_times, n_pairs, L, family, params, fuchs,
            alpha_relation=None):
        if family != "sixdim":
            # alpha-native: the trace relation is the printed alpha relation
            alpha_relation = fuchs
        entries.append(SystemDescriptor(
            sid=sid, n_times=n_times, n_pairs=n_pairs, matrix_size=L,
            family=family, param_names=tuple(params), fuchs_relation=fuchs,
            alpha_map=_ALPHA_MAPS.get(sid), alpha_relation=alpha_relation,
        ))

    a = lambda k: tuple(f"alpha{j}" for j in range(k))

    add("11,11,11,11", 1, 1, 2, "classical", a(5),
        _uniform(a(5), alpha2=2, const=-1))

    sixdim = "sixdim"
    add("21,21,21,21,111", 2, 3, 3, sixdim,
        _THETA4 + ("rho1", "rho2", "rho3"),
        _uniform(_THETA4 + ("rho1", "rho2", "rho3")),
        alpha_relation=_uniform(_ALPHAS6, alpha0=2))
    add("31,31,22,22,22", 2, 3, 4, sixdim,
        _THETA4 + ("rho1", "rho2"),
        _lf(theta1=1, theta2=1, theta3=2, theta4=2, rho1=2, rho2=2),
        alpha_relation=_uniform(_ALPHAS6, alpha0=2))
    add("21,111,111,111", 1, 3, 3, sixdim,
        ("theta1", "theta21", "theta22", "theta31", "theta32",
         "rho1", "rho2", "rho3"),
        _uniform(("theta1", "theta21", "theta22", "theta31", "theta32",
                  "rho1", "rho2", "rho3")),
        alpha_relation=_uniform(_ALPHAS6, const=-1))
    add("31,22,211,1111", 1, 3, 4, sixdim,
        ("theta1", "theta2", "theta31", "theta32",
         "rho1", "rho2", "rho3", "rho4"),
        _lf(theta1=1, theta2=2, theta31=1, theta32=1,
            rho1=1, rho2=1, rho3=1, rho4=1),
        alpha_relation=_uniform(_ALPHAS6, const=-1))
    add("22,22,211,211", 1, 3, 4, sixdim,
        ("theta1", "theta2", "theta31", "theta32", "rho1", "rho2", "rho3"),
        _lf(theta1=2, theta2=2, theta31=1, theta32=1, rho1=1, rho2=1, rho3=2),
        alpha_relation=_lf(alpha0=1, alpha1=1, alpha2=2, alpha3=1, alpha4=1,
                           const=-1))
    add("22,22,22,1111", 1, 3, 4, sixdim,
        ("theta1", "theta2", "theta3", "rho1", "rho2", "rho3", "rho4"),
        _lf(theta1=2, theta2=2, theta3=2, rho1=1, rho2=1, rho3=1, rho4=1),
        alpha_relation=_lf(alpha0=1, alpha1=1, alpha2=2, alpha3=1, alpha4=1,
                           const=-1))
    add("42,33,33,222", 1, 3, 6, sixdim,
        ("theta1", "theta2", "theta3", "rho1", "rho2", "rho3"),
        _lf(theta1=3, theta2=3, theta3=2, rho1=2, rho2=2, rho3=2))
    add("51,33,222,222", 1, 3, 6, sixdim,
        ("theta1", "theta2", "theta31", "theta32", "rho1", "rho2", "rho3"),
        _lf(theta1=3, theta2=1, theta31=2, theta32=2, rho1=2, rho2=2, rho3=2))

    comp = "sixdim-companion"
    add("11,11,11,11,11,11", 3, 3, 2, comp, a(7), _uniform(a(7), alpha0=2))
    add("31,31,1111,1111", 1, 3, 4, comp, a(8) + ("eta",),
        _uniform(a(8), const=-1))
    add("33,33,33,321", 1, 3, 6, comp, a(6),
        _lf(alpha0=1, alpha1=1, alpha2=2, alpha3=1, alpha4=1, const=-1))
    add("51,33,33,111111", 1, 3, 6, comp, a(9),
        _lf(alpha0=1, alpha1=1, alpha2=2, alpha3=2, alpha4=2, alpha5=2,
            alpha6=2, alpha7=1, alpha8=1, const=-1))

    four = "fourdim"
    add("11,11,11,11,11", 2, 2, 2, four, a(6), _uniform(a(6), alpha0=2))
    add("21,21,111,111", 1, 2, 3, four, a(6) + ("eta",),
        _uniform(a(6), const=-1))
    add("22,22,22,211", 1, 2, 4, four, a(6),
        _lf(alpha0=1, alpha1=1, alpha2=2, alpha3=1, alpha4=1, const=-1))
    add("31,22,22,1111", 1, 2, 4, four, a(7),
        _lf(alpha0=1, alpha1=1, alpha2=2, alpha3=2, alpha4=2, alpha5=1,
            alpha6=1, const=-1))

    return {e.sid: e for e in entries}


CATALOG = _make_catalog()

FUCHS_TOL = 1e-10


def lookup(sid: str) -> SystemDescriptor:
    try:
        return CATALOG[sid]
    except KeyError:
        raise KeyError(f"unknown system id {sid!r}") from None


def list_systems():
    return tuple(CATALOG)


class MergedParams(dict):
    """Native parameters merged with the alpha values derived for ``sid``;
    read-only, so :func:`full_params` can hand them back as they are."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("merged parameters are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = \
        setdefault = update = _read_only


def derive_alphas(sid: str, params: Mapping[str, complex]):
    """Alpha values of a system from its native parameters.

    For exponent-parametrized systems this applies the printed linear map;
    for alpha-native systems it passes the values through.  The trace
    relation on the native parameters must vanish (to ``FUCHS_TOL``); a
    residual that is not a number fails too.  Parameters merged for
    ``sid`` already hold the alphas.
    """
    desc = lookup(sid)
    if isinstance(params, MergedParams) and params.sid == sid:
        return {n: params[n] for n in desc.alpha_names}
    res = abs(desc.fuchs_relation(params))
    if not res <= FUCHS_TOL:
        raise ValueError(
            f"{sid}: exponent trace relation violated (residual {res:.3e})")
    if desc.alpha_map is None:
        return {n: complex(params[n]) for n in desc.alpha_names}
    return {name: form(params) for name, form in desc.alpha_map.items()}


def full_params(sid: str, params: Mapping[str, complex]):
    """Native parameters merged with derived alpha values, read-only;
    parameters already merged for ``sid`` come back as they are."""
    if isinstance(params, MergedParams) and params.sid == sid:
        return params
    merged = MergedParams({k: complex(v) for k, v in params.items()})
    dict.update(merged, derive_alphas(sid, params))
    merged.sid = sid
    return merged


@dataclass(frozen=True)
class PhaseState:
    """Point of the extended phase space: (q, p) plus deformation times."""

    q: tuple
    p: tuple
    t: tuple

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(map(complex, self.q)))
        object.__setattr__(self, "p", tuple(map(complex, self.p)))
        object.__setattr__(self, "t", tuple(map(complex, self.t)))
        if not min_gap((0j, 1 + 0j) + self.t) > COLLISION_TOL:
            raise ValueError(f"times {self.t} collide or are not finite")

    def with_time(self, i: int, value: complex) -> "PhaseState":
        t = list(self.t)
        t[i - 1] = value
        return PhaseState(self.q, self.p, tuple(t))


def _lookup_flow(sid: str, i: int):
    """Descriptor of ``sid``; raises ValueError unless 1 <= i <= n_times."""
    desc = lookup(sid)
    if not 1 <= i <= desc.n_times:
        raise ValueError(f"{sid}: time index {i} out of range 1..{desc.n_times}")
    return desc


def eval_h(sid: str, i: int, params, state: PhaseState):
    """Value of the i-th Hamiltonian at a phase-space point."""
    desc = _lookup_flow(sid, i)
    n = desc.n_pairs
    if len(state.q) != n or len(state.p) != n or len(state.t) != desc.n_times:
        raise ValueError(f"{sid}: state has wrong dimensions")
    merged = full_params(sid, params)
    return HAMILTONIANS[sid](i, merged, state.q, state.p, state.t)


def vector_field(sid: str, i: int, params, state: PhaseState):
    """(dq/dt_i, dp/dt_i): the canonical flow of H_i, from the generated
    field bound at ``state``'s times.

    Convention: t_i(t_i-1) dq_j/dt_i = +dH_i/dp_j and
    t_i(t_i-1) dp_j/dt_i = -dH_i/dq_j.
    """
    desc = _lookup_flow(sid, i)
    n = desc.n_pairs
    if len(state.q) != n or len(state.p) != n or len(state.t) != desc.n_times:
        raise ValueError(f"{sid}: state has wrong dimensions")
    ti = state.t[i - 1]
    v = field(sid, i)(full_params(sid, params), state.t)(
        ti, state.q + state.p, 1.0 / (ti * (ti - 1)))
    return v[:n], v[n:]


def flow_rhs(sid: str, i: int, params, times, scale=1.0) -> Callable:
    """rhs(z, y) for integrating the i-th flow with the integrator module.

    ``y`` is an array stacking q then p; ``z`` is the running value of
    t_i; the other entries of ``times`` (one per time of ``sid``) stay
    frozen.  The generated field is bound to the parameters and the
    frozen times once, here.  ``scale`` multiplies the Hamiltonian (1.0
    is the true flow; other values give the negative controls of the
    isomonodromy check).
    """
    desc = _lookup_flow(sid, i)
    if len(times) != desc.n_times:
        raise ValueError(f"{sid}: {len(times)} times given, "
                         f"{desc.n_times} expected")
    kernel = field(sid, i)(full_params(sid, params),
                           tuple(map(complex, times)))

    def rhs(z, y):
        # plain Python complex: the generated arithmetic is several times
        # slower on numpy scalars
        z = complex(z)
        return np.array(kernel(z, y.tolist(), scale / (z * (z - 1))),
                        dtype=complex)

    return rhs


def flow_states(sid: str, i: int, params, state: PhaseState, end,
                samples=(), scale=1.0, rel_tol=1e-9, abs_tol=1e-12):
    """States of the i-th flow as t_i moves straight to ``end``: the start,
    one per sample fraction s (at t_i = t0 + s*(end - t0)) and the end, at
    exactly t_i = ``end``.  ``scale`` is as in :func:`flow_rhs`."""
    n = lookup(sid).n_pairs
    traj = integrate_time(flow_rhs(sid, i, params, state.t, scale=scale),
                          np.array(state.q + state.p, dtype=complex),
                          state.t, i, end, rel_tol=rel_tol, abs_tol=abs_tol,
                          samples=samples)
    t0 = state.t[i - 1]
    ts = [t0 + s * (end - t0) for s in traj.params[:-1]] + [end]
    return [PhaseState(tuple(y[:n]), tuple(y[n:]),
                       state.t[:i - 1] + (t,) + state.t[i:])
            for t, y in zip(ts, traj.states)]


def constraint_rate(sid: str, params, state: PhaseState, constraints,
                    fields=()):
    """Max |d g/dt_i| over every flow i of ``sid`` and every constraint g,
    NaN if any rate is NaN; ``fields[i - 1]``, where given, is flow i's
    :func:`vector_field` at ``state``, which is then not evaluated again.

    Each ``g(q, p, t, merged_params)`` cuts a submanifold; on an invariant
    one the rate vanishes.  One exact gradient pass over (q, p, t_1..t_m)
    gives a row per constraint; flow i contracts each row with
    (dq/dt_i, dp/dt_i, 1) over its (q, p, t_i) slots, summed left to right
    as :func:`~painlab.algebra.time_derivative` sums.  The rates equal that
    route's bit for bit while no constraint divides by an expression of the
    times: the times frozen for flow i enter as Duals whose extra slots are
    exact zeros under +, - and *, but Dual / Dual multiplies by the
    inverse.  None of the rigid cases' or degeneration rules' constraints
    divides by a time.
    """
    desc = lookup(sid)
    par = full_params(sid, params)
    n = desc.n_pairs
    _, rows = dual_gradient(
        lambda *z: tuple(g(z[:n], z[n:2 * n], z[2 * n:], par)
                         for g in constraints),
        state.q + state.p + state.t)
    rates = []
    for i in range(1, desc.n_times + 1):
        dq, dp = (fields[i - 1] if i <= len(fields)
                  else vector_field(sid, i, par, state))
        dz = dq + dp
        # map stops at the 2n phase slots; the t_i slot's weight is 1
        rates.extend(abs(sum(map(mul, row, dz)) + row[2 * n + i - 1])
                     for row in rows)
    return max_residual(rates)
