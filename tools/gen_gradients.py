"""Generate the bound flow fields of the catalog Hamiltonians.

Every Hamiltonian in :mod:`painlab.hamiltonians` is written over generic
scalars, so calling it with SymPy symbols for ``q``, ``p``, ``t`` and the
parameters traces it into one symbolic expression.  For every flow
``(sid, i)`` of the catalog this script differentiates ``H_i`` in each
``q_j`` and ``p_j``, shares common subexpressions with ``sympy.cse`` and
prints plain-Python complex arithmetic as ``field_<i>(par, t)``.  That
function reads the parameters, unpacks the frozen times and runs the
subexpressions that depend on no q, no p and not on t_i, once; the
``kernel(z, w, sc)`` it returns runs the rest, in the same order, and
scales the partials into the flow field.  Where every expanded partial
is a polynomial, the script also renders the CSE of their Horner forms
and keeps whichever kernel runs fewer operations per call
(:func:`render_field`); writing the modules prints one line per flow
naming the form it took and both counts.  The output is one module per
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
import ast
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


def _partials(sid, i):
    """(q, p, t, par, [dH_i/dq_j..., dH_i/dp_j...]) of the flow ``(sid, i)``
    traced with symbols; ``par`` holds each parameter that H_i read."""
    desc = CATALOG[sid]
    q = _symbols("q", desc.n_pairs)
    p = _symbols("p", desc.n_pairs)
    t = _symbols("t", desc.n_times)
    par = _Params()
    h = HAMILTONIANS[sid](i, par, q, p, t)
    return q, p, t, par, [sympy.diff(h, v) for v in q + p]


def _render(i, q, p, t, par, partials):
    """Source of ``field_<i>(par, t)`` sharing ``sympy.cse`` of ``partials``.

    The CSE steps that depend on no q, no p and not on t_i, directly or
    through an earlier step, run once in ``field_<i>``; the rest run in
    the ``kernel(z, w, sc)`` it returns, in the same order.
    """
    steps, exprs = sympy.cse(partials, symbols=sympy.numbered_symbols("x"))
    used = set().union(*(e.free_symbols for e in exprs),
                       *(e.free_symbols for _, e in steps))
    moving = set(q + p) | {t[i - 1]}
    bound, per_call = [], []
    for lhs, rhs in steps:
        if rhs.free_symbols & moving:
            moving.add(lhs)
            per_call.append((lhs, rhs))
        else:
            bound.append((lhs, rhs))
    printer = _Printer()
    n = len(q)
    lines = [f"def field_{i}(par, t):"]
    lines += [f'    {name} = par["{name}"]'
              for name in sorted(par) if par[name] in used]
    if len(t) > 1:
        names = [s.name for s in t]
        names[i - 1] = "_"
        lines.append(f"    {', '.join(names)} = t")
    lines += [f"    {lhs} = {printer.doprint(rhs)}" for lhs, rhs in bound]
    lines += ["", "    def kernel(z, w, sc):"]
    if t[i - 1] in used:
        lines.append(f"        {t[i - 1].name} = z")
    lines.append(f"        {', '.join(s.name for s in q + p)} = w")
    lines += [f"        {lhs} = {printer.doprint(rhs)}"
              for lhs, rhs in per_call]
    lines += ["        msc = -sc", "        return ("]
    lines += [f"            sc*({printer.doprint(e)})," for e in exprs[n:]]
    lines += [f"            msc*({printer.doprint(e)})," for e in exprs[:n]]
    lines += ["        )", "", "    return kernel"]
    return "\n".join(lines)


def render_forms(sid, i):
    """{form: source of ``field_<i>``} of the flow ``(sid, i)``.

    ``"cse"`` shares subexpressions of the partials as traced.  Where
    every partial, expanded, is a polynomial in its symbols, ``"horner"``
    shares subexpressions of their multivariate Horner forms
    (``sympy.horner``, its variables in SymPy's sorted order).
    """
    q, p, t, par, partials = _partials(sid, i)
    forms = {"cse": _render(i, q, p, t, par, partials)}
    expanded = [sympy.expand(e) for e in partials]
    if all(e.is_polynomial() for e in expanded):
        forms["horner"] = _render(i, q, p, t, par,
                                  [sympy.horner(e) for e in expanded])
    return forms


def kernel_ops(source):
    """Operations per kernel call: the BinOp and UnaryOp nodes in the body
    of every ``kernel`` defined in ``source``."""
    return sum(isinstance(node, (ast.BinOp, ast.UnaryOp))
               for fn in ast.walk(ast.parse(source))
               if isinstance(fn, ast.FunctionDef) and fn.name == "kernel"
               for node in ast.walk(fn))


def render_field(sid, i):
    """(form, {form: kernel ops}, source) of the form of ``field_<i>``
    whose kernel runs the fewest operations; a tie keeps ``"cse"``."""
    forms = render_forms(sid, i)
    ops = {form: kernel_ops(source) for form, source in forms.items()}
    best = min(ops, key=ops.get)  # the first of equal counts: "cse"
    return best, ops, forms[best]


def render_module(sid, log=None):
    """Source of the generated module of one catalog system; each flow
    appends a line naming its form and kernel operations to ``log``."""
    desc = CATALOG[sid]
    funcs = []
    for i in range(1, desc.n_times + 1):
        form, ops, source = render_field(sid, i)
        funcs.append(source)
        if log is not None:
            counts = ", ".join(f"{f} {n}" for f, n in ops.items())
            log.append(f"{sid}:{i} {form} (kernel ops: {counts})")
    names = ", ".join(f"field_{i}" for i in range(1, desc.n_times + 1))
    header = (
        f'"""Bound flow fields of the {sid} Hamiltonians.\n\n'
        "Generated by tools/gen_gradients.py from painlab.hamiltonians;"
        " do not edit.\n"
        '"""\n'
    )
    body = "\n\n\n".join(funcs)
    return f"{header}\n\n{body}\n\n\nFIELDS = ({names},)\n"


def expected_files(log=None):
    """{file name: source} of every generated module; ``log`` as in
    :func:`render_module`."""
    return {module_name(sid) + ".py": render_module(sid, log)
            for sid in CATALOG}


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
    log = []
    files = expected_files(log)
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
    print("\n".join(log))
    lines = sum(src.count("\n") for src in files.values())
    print(f"wrote {len(files)} modules ({lines} lines) to {OUT_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
