"""Generated exact gradients of the catalog Hamiltonians.

One module per system, ``h_<sid with commas as underscores>``, written by
``tools/gen_gradients.py`` (regenerate after editing
:mod:`painlab.hamiltonians`).  Each module holds ``GRADIENTS``, whose
entry ``i - 1`` maps ``(merged_params, q, p, t)`` to the 2n partials of
``H_i``: ``dH/dq_1..dH/dq_n`` then ``dH/dp_1..dH/dp_n``.  The modules load
on first use, so importing painlab compiles none of them.
"""

from __future__ import annotations

import functools
import importlib

__all__ = ["gradient", "module_name"]


def module_name(sid: str) -> str:
    """Name of the generated module of a catalog system."""
    return "h_" + sid.replace(",", "_")


@functools.lru_cache(maxsize=None)
def gradient(sid: str, i: int):
    """The generated gradient of ``H_i`` of system ``sid``."""
    module = importlib.import_module(f"{__name__}.{module_name(sid)}")
    return module.GRADIENTS[i - 1]
