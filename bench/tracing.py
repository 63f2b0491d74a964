"""In-memory span tracer for the traced run.

:func:`install` wraps painlab's public functions, and the rhs callables
that its factories return, from the benchmark's side: every painlab
module global bound to a wrapped function is rebound for the traced pass
and restored afterwards.  Each call records a span (name, start, end,
parent) and a few counts, timed by the benchmark's CPU clock;
:func:`layer_metrics` turns them into the per-layer metrics, and
:func:`write_spans` writes the spans out.
"""

from __future__ import annotations

import collections
import gzip
import sys

import numpy as np

from refkernel import clock

# (module, function, span name): one span per call
FUNCTIONS = (
    ("algebra", "dual_gradient", "algebra.dual_gradient"),
    ("catalog", "vector_field", "catalog.vector_field"),
    ("catalog", "eval_h", "catalog.eval_h"),
    ("monodromy", "monodromy_matrix", "monodromy.monodromy_matrix"),
    ("monodromy", "monodromy_representation",
     "monodromy.monodromy_representation"),
    ("parametrizations", "assemble", "parametrizations.assemble"),
    ("schlesinger", "realign_to_slice", "schlesinger.realign_to_slice"),
    ("rigid", "constraint_flow_drift", "rigid.constraint_flow_drift"),
    ("sampling", "sample_params", "sampling.sample_params"),
)

# (module, factory, span name): one span per call of the returned rhs
FACTORIES = (
    ("catalog", "flow_rhs", "catalog.flow_rhs"),
    ("rigid", "rigid_rhs", "rigid.rigid_rhs"),
    ("schlesinger", "schlesinger_flow_rhs", "schlesinger.flow_rhs"),
)


class Tracer:
    """Spans in parallel lists; parent -1 marks a root span."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = collections.Counter()
        self._stack = [-1]

    def span(self, name, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced


def _painlab_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "painlab" or name.startswith("painlab.")]


def install(pl, tracer):
    """Wrap the traced layers; returns a function that undoes it."""
    undo = []

    def patch(owner, attr, replacement, setter=setattr):
        original = getattr(owner, attr)
        undo.append(lambda: setter(owner, attr, original))
        setter(owner, attr, replacement)

    def rebind(original, replacement):
        for mod in _painlab_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patch(mod, attr, replacement)

    for mod, fn, name in FUNCTIONS:
        original = getattr(getattr(pl, mod), fn)
        rebind(original, tracer.span(name, original))

    for mod, fn, name in FACTORIES:
        original = getattr(getattr(pl, mod), fn)

        def factory(*args, _original=original, _name=name, **kwargs):
            return tracer.span(_name, _original(*args, **kwargs))

        rebind(original, factory)

    counts = tracer.counts
    integrate = pl.integrator.integrate
    traced_integrate = tracer.span("integrator.integrate", integrate)

    def counting_integrate(rhs, *args, **kwargs):
        def counted(z, y):
            counts["integrator.rhs_evals"] += 1
            return rhs(z, y)

        traj = traced_integrate(counted, *args, **kwargs)
        counts["integrator.steps"] += traj.n_steps
        counts["integrator.rejected"] += traj.n_rejected
        return traj

    rebind(integrate, counting_integrate)

    check_rule = pl.degenerations.check_rule
    traced_rule = tracer.span("degenerations.check_rule", check_rule)

    def counting_rule(rule, n_samples, rng):
        counts["degenerations.check_rule.samples"] += n_samples
        return traced_rule(rule, n_samples, rng)

    rebind(check_rule, counting_rule)

    path_cls = pl.integrator.ComplexPath
    patch(path_cls, "__post_init__",
          tracer.span("integrator.path", path_cls.__post_init__))

    fuchsian_cls = pl.fuchsian.FuchsianSystem
    fuchsian_rhs = fuchsian_cls.rhs

    def rhs_factory(self):
        return tracer.span("fuchsian.rhs", fuchsian_rhs(self))

    patch(fuchsian_cls, "rhs", rhs_factory)

    for case in pl.rigid.RIGID_CASES.values():
        # RigidCase is a frozen dataclass, hence object.__setattr__
        patch(case, "lift", tracer.span("rigid.lift", case.lift),
              object.__setattr__)

    def uninstall():
        for restore in reversed(undo):
            restore()

    return uninstall


def span_totals(tracer):
    """Per span name: (calls, total seconds, self seconds)."""
    dur = np.array(tracer.ends) - np.array(tracer.starts)
    parents = np.array(tracer.parents, dtype=np.int64)
    child = np.zeros(len(dur))
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    own = dur - child
    names = np.array(tracer.names, dtype=object)
    out = {}
    for name in set(tracer.names):
        mask = names == name
        out[name] = (int(mask.sum()), float(dur[mask].sum()),
                     float(own[mask].sum()))
    return out


# per-layer metric -> (span, statistic, unit); statistic is one of
# "calls", "count:<counter>", "per_call", "self_per:<counter>",
# "per:<counter>"
LAYER_METRICS = {
    "integrator.calls": ("integrator.integrate", "calls", "count"),
    "integrator.steps": (None, "count:integrator.steps", "count"),
    "integrator.rejected": (None, "count:integrator.rejected", "count"),
    "integrator.rhs_evals": (None, "count:integrator.rhs_evals", "count"),
    "integrator.self_us_per_step": ("integrator.integrate",
                                    "self_per:integrator.steps", "us"),
    "integrator.path_us": ("integrator.path", "per_call", "us"),
    "algebra.dual_gradient.calls": ("algebra.dual_gradient", "calls",
                                    "count"),
    "algebra.dual_gradient.us_per_call": ("algebra.dual_gradient",
                                          "per_call", "us"),
    "catalog.flow_rhs.us_per_call": ("catalog.flow_rhs", "per_call", "us"),
    "catalog.vector_field.us_per_call": ("catalog.vector_field", "per_call",
                                         "us"),
    "catalog.eval_h.us_per_call": ("catalog.eval_h", "per_call", "us"),
    "fuchsian.rhs.calls": ("fuchsian.rhs", "calls", "count"),
    "fuchsian.rhs.us_per_call": ("fuchsian.rhs", "per_call", "us"),
    "monodromy.monodromy_matrix.calls": ("monodromy.monodromy_matrix",
                                         "calls", "count"),
    "monodromy.monodromy_matrix.ms_per_call": ("monodromy.monodromy_matrix",
                                               "per_call", "ms"),
    "monodromy.monodromy_representation.ms_per_call": (
        "monodromy.monodromy_representation", "per_call", "ms"),
    "parametrizations.assemble.us_per_call": ("parametrizations.assemble",
                                              "per_call", "us"),
    "schlesinger.flow_rhs.us_per_call": ("schlesinger.flow_rhs", "per_call",
                                         "us"),
    "schlesinger.realign_to_slice.ms_per_call": (
        "schlesinger.realign_to_slice", "per_call", "ms"),
    "rigid.rigid_rhs.us_per_call": ("rigid.rigid_rhs", "per_call", "us"),
    "rigid.lift.us_per_call": ("rigid.lift", "per_call", "us"),
    "rigid.constraint_flow_drift.us_per_call": ("rigid.constraint_flow_drift",
                                                "per_call", "us"),
    "degenerations.check_rule.ms_per_sample": (
        "degenerations.check_rule", "per:degenerations.check_rule.samples",
        "ms"),
    "sampling.sample_params.us_per_call": ("sampling.sample_params",
                                           "per_call", "us"),
}

_SCALE = {"us": 1e6, "ms": 1e3}


def layer_metrics(tracer, factor):
    """Per-layer metrics; times are calibrated by ``factor``."""
    totals = span_totals(tracer)
    out = {}
    for metric, (span, stat, unit) in LAYER_METRICS.items():
        calls, total, own = totals.get(span, (0, 0.0, 0.0))
        if stat == "calls":
            value = calls
        elif stat.startswith("count:"):
            value = tracer.counts[stat[6:]]
        else:
            if stat == "per_call":
                seconds, n = total, calls
            elif stat.startswith("self_per:"):
                seconds, n = own, tracer.counts[stat[9:]]
            else:
                seconds, n = total, tracer.counts[stat[4:]]
            if n == 0:
                raise RuntimeError(f"{metric}: the traced pass made no calls")
            value = seconds * factor * _SCALE[unit] / n
        out[metric] = {"value": value, "unit": unit}
    return out


def write_spans(tracer, path):
    """Spans as gzipped CSV: index, name, parent, start_us, end_us."""
    t0 = tracer.starts[0] if tracer.starts else 0.0
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("index,name,parent,start_us,end_us\n")
        for k, (name, parent, start, end) in enumerate(zip(
                tracer.names, tracer.parents, tracer.starts, tracer.ends)):
            fh.write(f"{k},{name},{parent},{(start - t0) * 1e6:.3f},"
                     f"{(end - t0) * 1e6:.3f}\n")
