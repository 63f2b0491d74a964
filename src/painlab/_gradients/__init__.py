"""Generated flow fields of the catalog Hamiltonians.

One module per system, ``h_<sid with commas as underscores>``, written by
``tools/gen_gradients.py`` (regenerate after editing
:mod:`painlab.hamiltonians`).  Each module holds ``FIELDS``, whose entry
``i - 1`` binds the flow of ``H_i``: ``FIELDS[i - 1](merged_params, t)``
reads the parameters, unpacks the times other than t_i (entry ``i - 1``
of ``t`` is ignored) and runs every common subexpression that depends on
neither q, p nor t_i, once.  It returns ``kernel(z, w, sc)``, which sets
t_i = z, unpacks ``w = q + p`` and returns the 2n values
``sc*dH/dp_1..sc*dH/dp_n, -sc*dH/dq_1..-sc*dH/dq_n``.  The modules load
on first use, so importing painlab compiles none of them.
"""

from __future__ import annotations

import functools
import importlib

__all__ = ["field", "module_name"]


def module_name(sid: str) -> str:
    """Name of the generated module of a catalog system."""
    return "h_" + sid.replace(",", "_")


@functools.lru_cache(maxsize=None)
def field(sid: str, i: int):
    """The generated flow-field binder of ``H_i`` of system ``sid``."""
    module = importlib.import_module(f"{__name__}.{module_name(sid)}")
    return module.FIELDS[i - 1]
