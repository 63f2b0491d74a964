"""Seeded random sampling of parameters and phase-space points.

Property tests draw rational complex values of modulus at most 2 and
solve the last free parameter from the trace relation exactly, so the
relation holds to machine precision and accidental resonances are
avoided.  All draws go through a caller-supplied ``numpy.random.Generator``
so every report is reproducible from its seed.  They read the bit
generator's 32-bit stream directly, by the map ``Generator.integers``
applies to it, so they give the same values and leave the same state as
``integers`` calls would, without their per-call overhead.
"""

from __future__ import annotations

import numpy as np

from .algebra import min_gap
from .catalog import PhaseState, lookup

__all__ = ["MAX_DRAWS", "DrawBudgetError", "redraws", "rational_complex",
           "sample_params", "tied_params", "sample_state", "small_state",
           "rng_from_seed"]

# draws a rejection loop makes before it gives up with a DrawBudgetError
MAX_DRAWS = 100


class DrawBudgetError(RuntimeError):
    """A rejection loop accepted none of its ``draws`` draws of ``what``;
    ``owner`` is the system, case or rule drawn for, None for a bare value."""

    def __init__(self, owner, what):
        super().__init__(("" if owner is None else f"{owner}: ")
                         + f"no {what} in {MAX_DRAWS} draws")
        self.owner, self.what, self.draws = owner, what, MAX_DRAWS


def redraws(owner, what):
    """``MAX_DRAWS`` tries of a rejection loop, then a DrawBudgetError."""
    yield from range(MAX_DRAWS)
    raise DrawBudgetError(owner, what)


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _below(draw, state, n):
    """``Generator.integers(0, n)`` for 1 < n < 2**32, from ``draw(state)``,
    the bit generator's ``next_uint32``.

    This is the map numpy applies (Lemire, ACM TOMACS 29(1), 2019): a draw
    u gives u*n >> 32, redrawn while u*n mod 2**32 < 2**32 mod n.  That
    bound is below n, so only u*n mod 2**32 < n can redraw.
    """
    m = draw(state) * n
    if m & 0xFFFFFFFF < n:
        floor = (1 << 32) % n
        draws = 1
        while m & 0xFFFFFFFF < floor:
            if draws == MAX_DRAWS:
                raise DrawBudgetError(None, f"unbiased draw below {n}")
            m = draw(state) * n
            draws += 1
    return m >> 32


def rational_complex(rng, nonzero=False) -> complex:
    """Random rational complex value with |z| <= 2.

    The denominator, the real and the imaginary numerator are the values
    ``rng.integers(1, 5)``, ``rng.integers(-hi, hi + 1)`` twice would give,
    in that order.  Unlike ``integers``, this path does not take the bit
    generator's lock, so the rng must not be shared between threads.
    """
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rational_complex: rng must be a "
                        f"numpy.random.Generator, got {type(rng).__name__}")
    bits = rng.bit_generator.ctypes
    draw, state = bits.next_uint32, bits.state
    for _ in range(MAX_DRAWS):
        den = 1 + _below(draw, state, 4)
        hi = 2 * den
        z = complex((_below(draw, state, 2 * hi + 1) - hi) / den,
                    (_below(draw, state, 2 * hi + 1) - hi) / den)
        if abs(z) > 2:
            continue
        if nonzero and abs(z) < 0.25:
            continue
        return z
    raise DrawBudgetError(None, "rational value with |z| <= 2")


def sample_params(sid: str, rng, fixed=None, generic=False):
    """Random parameter assignment with the trace relation solved exactly.

    ``fixed`` presets some parameters (used by degeneration rules); the
    relation is solved for the last parameter not preset.  With
    ``generic=True`` the draw is repeated until all parameters are nonzero
    and pairwise distinct by 0.2, which keeps eigenvalue clusters of
    assembled systems well separated.  A preset name the system lacks, or
    presets that leave no parameter of the relation free, raise
    ``ValueError`` before any draw.
    """
    desc = lookup(sid)
    fixed = dict(fixed or {})
    names = list(desc.param_names)
    unknown = sorted(set(fixed) - set(names))
    if unknown:
        raise ValueError(f"{sid}: no parameter named {', '.join(unknown)}")
    free = [n for n in names if n not in fixed
            and n in desc.fuchs_relation.coeffs]
    if not free:
        raise ValueError(f"{sid}: no free parameter of the trace relation "
                         f"to solve for")
    solve_name = free[-1]
    for _ in redraws(sid, "generic parameters"):
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
    for _ in redraws(sid, "separated deformation times"):
        ts = [rational_complex(rng) for _ in range(lookup(sid).n_times)]
        if min_gap([0.0, 1.0] + ts) > 0.3:
            return tuple(ts)


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
