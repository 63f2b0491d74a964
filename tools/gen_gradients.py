"""Generate the exact gradients of the catalog Hamiltonians.

Every Hamiltonian in :mod:`painlab.hamiltonians` is written over generic
scalars, so calling it with SymPy symbols for ``q``, ``p``, ``t`` and the
parameters traces it into one symbolic expression.  For every flow
``(sid, i)`` of the catalog this script differentiates ``H_i`` in each
``q_j`` and ``p_j``, shares common subexpressions with ``sympy.cse`` and
prints plain-Python complex arithmetic.  The output is one module per
system in ``src/painlab/_gradients/``; see that package's docstring for
the interface.

Usage, from the root of the repository::

    python3 tools/gen_gradients.py           # rewrite the modules
    python3 tools/gen_gradients.py --check   # exit 1 if any is stale

SymPy is a development dependency only (the ``dev`` extra); the generated
modules import nothing.
"""

from __future__ import annotations

import argparse
import os
import sys

import sympy
from sympy.printing.precedence import PRECEDENCE
from sympy.printing.str import StrPrinter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from painlab.catalog import CATALOG  # noqa: E402
from painlab.hamiltonians import HAMILTONIANS  # noqa: E402
from painlab._gradients import module_name  # noqa: E402

OUT_DIR = os.path.join(SRC, "painlab", "_gradients")


class _Params(dict):
    """Parameter dict that hands out a symbol for every key read."""

    def __missing__(self, key):
        sym = sympy.Symbol(key)
        self[key] = sym
        return sym


class _Printer(StrPrinter):
    """Python source for polynomial/rational expressions.

    Small integer powers become products (``x*x`` is about twice as fast
    as ``x**2`` on Python complex numbers).  Inside a larger expression
    the product is parenthesized, so it stays one factor wherever the
    enclosing printer places it (after a ``/``, say).
    """

    def _print_Pow(self, expr, rational=False):
        base, exp = expr.args
        if not exp.is_Integer or exp > 4:
            return super()._print_Pow(expr, rational=rational)
        b = self.parenthesize(base, PRECEDENCE["Mul"], strict=True)
        if exp == -1:
            return "1/" + b
        if exp < 0:
            return "1/" + self._print(sympy.Pow(base, -exp, evaluate=False))
        product = "*".join([b] * int(exp))
        return product if self._print_level == 1 else f"({product})"


def _symbols(prefix, count):
    return tuple(sympy.Symbol(f"{prefix}{k}") for k in range(1, count + 1))


def _unpack(names, source):
    if len(names) == 1:
        return f"    ({names[0]},) = {source}"
    return f"    {', '.join(names)} = {source}"


def render_function(sid, i):
    """Source of ``grad_<i>(par, q, p, t)`` for the flow ``(sid, i)``."""
    desc = CATALOG[sid]
    q = _symbols("q", desc.n_pairs)
    p = _symbols("p", desc.n_pairs)
    t = _symbols("t", desc.n_times)
    par = _Params()
    h = HAMILTONIANS[sid](i, par, q, p, t)
    partials = [sympy.diff(h, v) for v in q + p]
    steps, exprs = sympy.cse(partials, symbols=sympy.numbered_symbols("x"))
    used = set().union(*(e.free_symbols for e in exprs),
                       *(e.free_symbols for _, e in steps))
    printer = _Printer()
    lines = [f"def grad_{i}(par, q, p, t):"]
    lines += [f'    {name} = par["{name}"]'
              for name in sorted(par) if par[name] in used]
    lines.append(_unpack([s.name for s in q], "q"))
    lines.append(_unpack([s.name for s in p], "p"))
    lines.append(_unpack([s.name for s in t], "t"))
    lines += [f"    {lhs} = {printer.doprint(rhs)}" for lhs, rhs in steps]
    lines.append("    return (")
    lines += [f"        {printer.doprint(e)}," for e in exprs]
    lines.append("    )")
    return "\n".join(lines)


def render_module(sid):
    """Source of the generated module of one catalog system."""
    desc = CATALOG[sid]
    funcs = [render_function(sid, i) for i in range(1, desc.n_times + 1)]
    names = ", ".join(f"grad_{i}" for i in range(1, desc.n_times + 1))
    header = (
        f'"""Exact gradients of the {sid} Hamiltonians.\n\n'
        "Generated by tools/gen_gradients.py from painlab.hamiltonians;"
        " do not edit.\n"
        '"""\n'
    )
    body = "\n\n\n".join(funcs)
    return f"{header}\n\n{body}\n\n\nGRADIENTS = ({names},)\n"


def expected_files():
    """{file name: source} of every generated module."""
    return {module_name(sid) + ".py": render_module(sid) for sid in CATALOG}


def _generated_on_disk():
    return {f for f in os.listdir(OUT_DIR)
            if f.startswith("h_") and f.endswith(".py")}


def check(files):
    """Names of generated modules that are stale, missing or extra."""
    stale = []
    for name, source in files.items():
        path = os.path.join(OUT_DIR, name)
        try:
            with open(path, encoding="utf-8") as fh:
                current = fh.read()
        except FileNotFoundError:
            current = None
        if current != source:
            stale.append(name)
    stale += sorted(_generated_on_disk() - set(files))
    return stale


def write(files):
    for name in _generated_on_disk() - set(files):
        os.remove(os.path.join(OUT_DIR, name))
    for name, source in files.items():
        with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
            fh.write(source)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="regenerate in memory; exit 1 if any committed"
                             " module differs")
    args = parser.parse_args(argv)
    files = expected_files()
    if args.check:
        stale = check(files)
        for name in stale:
            print(f"stale: src/painlab/_gradients/{name}")
        if stale:
            print("run python3 tools/gen_gradients.py to regenerate")
            return 1
        print(f"{len(files)} generated modules are up to date")
        return 0
    write(files)
    lines = sum(src.count("\n") for src in files.values())
    print(f"wrote {len(files)} modules ({lines} lines) to {OUT_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
