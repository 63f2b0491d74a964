"""Seeded random sampling of parameters and phase-space points.

Property tests draw rational complex values of modulus at most 2 and
solve the last free parameter from the trace relation exactly, so the
relation holds to machine precision and accidental resonances are
avoided.  All draws go through a caller-supplied ``numpy.random.Generator``
so every report is reproducible from its seed.
"""

from __future__ import annotations

import numpy as np

from .algebra import min_gap
from .catalog import PhaseState, lookup

__all__ = ["MAX_DRAWS", "rational_complex", "sample_params", "tied_params",
           "sample_state", "small_state", "rng_from_seed"]

# draws a rejection loop makes before it gives up with a RuntimeError
MAX_DRAWS = 100


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def rational_complex(rng, nonzero=False) -> complex:
    """Random rational complex value with |z| <= 2."""
    for _ in range(MAX_DRAWS):
        den = int(rng.integers(1, 5))
        hi = 2 * den
        z = complex(int(rng.integers(-hi, hi + 1)) / den,
                    int(rng.integers(-hi, hi + 1)) / den)
        if abs(z) > 2:
            continue
        if nonzero and abs(z) < 0.25:
            continue
        return z
    raise RuntimeError(f"no rational value with |z| <= 2 in {MAX_DRAWS} draws")


def sample_params(sid: str, rng, fixed=None, generic=False):
    """Random parameter assignment with the trace relation solved exactly.

    ``fixed`` presets some parameters (used by degeneration rules); the
    relation is solved for the last parameter not preset.  With
    ``generic=True`` the draw is repeated until all parameters are nonzero
    and pairwise distinct by 0.2, which keeps eigenvalue clusters of
    assembled systems well separated.
    """
    desc = lookup(sid)
    fixed = dict(fixed or {})
    names = list(desc.param_names)
    solve_name = [n for n in names if n not in fixed
                  and n in desc.fuchs_relation.coeffs][-1]
    for _ in range(MAX_DRAWS):
        values = {}
        for n in names:
            if n in fixed:
                values[n] = complex(fixed[n])
            elif n != solve_name:
                values[n] = rational_complex(rng)
        values[solve_name] = desc.fuchs_relation.solve_for(solve_name, values)
        if not generic:
            return values
        if min_gap([0j, *values.values()]) > 0.2:
            return values
    raise RuntimeError(f"{sid}: no generic parameters in {MAX_DRAWS} draws")


def tied_params(sid: str, rng, name, value, solve, generic=False):
    """A :func:`sample_params` draw with ``name`` tied to ``value(par)``
    and the trace relation re-solved for ``solve``.

    The tie overwrites a full draw rather than presetting ``name`` through
    ``fixed``, so the rng advances exactly as for an untied draw.
    """
    par = sample_params(sid, rng, generic=generic)
    par[name] = value(par)
    par[solve] = lookup(sid).fuchs_relation.solve_for(solve, par)
    return par


def _good_times(rng, sid):
    """Times of moderate size, separated from 0, 1 and each other."""
    for _ in range(MAX_DRAWS):
        ts = [rational_complex(rng) for _ in range(lookup(sid).n_times)]
        if min_gap([0.0, 1.0] + ts) > 0.3:
            return tuple(ts)
    raise RuntimeError(f"{sid}: no separated deformation times in "
                       f"{MAX_DRAWS} draws")


def sample_state(sid: str, rng, times=None) -> PhaseState:
    desc = lookup(sid)
    n = desc.n_pairs
    q = tuple(rational_complex(rng) for _ in range(n))
    p = tuple(rational_complex(rng) for _ in range(n))
    t = tuple(times) if times is not None else _good_times(rng, sid)
    return PhaseState(q, p, t)


def small_state(sid: str, rng, times) -> PhaseState:
    """A :func:`sample_state` draw (``times`` None draws them too) with q
    and p scaled by 0.4, so that flows from it stay moderate."""
    st = sample_state(sid, rng, times=times)
    return PhaseState(tuple(0.4 * z for z in st.q),
                      tuple(0.4 * z for z in st.p), st.t)
