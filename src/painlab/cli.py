"""Command line driver: system listing, trajectory runs, verification.

Usage:
    painlab list
    painlab integrate --system ID [--config FILE] [flags] --out traj.csv
    painlab verify {counts,degeneration,compat,isospectral,isomonodromy,
                    riemann-schemes,particular,symplectic,gradients,all}
                   [--seed N] [--out report.json]

A JSON config file supplies defaults; command line flags override config
fields.  PAINLAB_SEED overrides the configured seed.  Reports carry the
seed and are byte-reproducible from it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import catalog, verify
from .catalog import PhaseState, lookup
from .integrator import (StepBudgetError, StepUnderflowError, integrate_time,
                         trajectory_to_csv)
from .sampling import rng_from_seed, sample_params, small_state

__all__ = ["main"]


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return config


# what malformed JSON values raise on their way to complex numbers
_BAD_VALUE = (ValueError, TypeError, IndexError)


def _error(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def _complex_from(v):
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ValueError(f"expected [re, im], got {len(v)} entries")
        return complex(*v)
    return complex(v)


def cmd_list(args, config):
    rows = [("id", "times", "pairs", "dim", "matrix", "family")]
    for sid in catalog.list_systems():
        d = lookup(sid)
        rows.append((sid, str(d.n_times), str(d.n_pairs),
                     str(2 * d.n_pairs), str(d.matrix_size), d.family))
    widths = [max(len(r[k]) for r in rows) for k in range(len(rows[0]))]
    for r in rows:
        print("  ".join(s.ljust(w) for s, w in zip(r, widths)))
    return 0


def cmd_integrate(args, config):
    sid = args.system or config.get("system")
    if sid is None:
        return _error("--system is required")
    try:
        desc = lookup(sid)
    except KeyError as exc:
        return _error(exc)
    try:
        seed = _resolve_seed(args, config)
        out = _resolve_path(args.out, config, "out", "trajectory.csv")
    except ValueError as exc:
        return _error(exc)
    rng = rng_from_seed(seed)

    params = config.get("params")
    if args.params is None and params is None:
        params = {k: [v.real, v.imag]
                  for k, v in sample_params(sid, rng, generic=True).items()}
    try:
        if args.params is not None:
            params = json.loads(args.params)
        if not isinstance(params, dict):
            raise TypeError("expected a JSON object")
        par = {k: _complex_from(v) for k, v in params.items()}
    except _BAD_VALUE as exc:
        return _error(f"bad parameters: {exc}")
    missing = [n for n in desc.param_names if n not in par]
    if missing:
        return _error(f"missing parameters {missing}")

    time_index = (args.time_index if args.time_index is not None
                  else config.get("time_index", 1))
    rel_tol = (args.rel_tol if args.rel_tol is not None
               else config.get("rel_tol", 1e-9))
    if type(time_index) is not int or not 1 <= time_index <= desc.n_times:
        return _error(f"time index {time_index} outside 1..{desc.n_times}")
    # a relative tolerance of 1 or more (1e300, inf, JSON's 1e400) switches
    # error control off
    if type(rel_tol) not in (int, float) or not 0 < rel_tol < 1:
        return _error(f"rel_tol {rel_tol} is not in (0, 1)")
    state_cfg = config.get("state")
    try:
        if state_cfg is None:
            st = small_state(sid, rng, None)
        else:
            st = PhaseState(*(tuple(_complex_from(z) for z in state_cfg[k])
                              for k in "qpt"))
            n = desc.n_pairs
            if [len(st.q), len(st.p), len(st.t)] != [n, n, desc.n_times]:
                raise ValueError("state has wrong dimensions")
        t_end = (_complex_from(json.loads(args.t_end)) if args.t_end
                 else _complex_from(config.get("t_end",
                                               st.t[time_index - 1] + 0.3)))
    except KeyError as exc:
        return _error(f"state has no {exc}")
    except _BAD_VALUE as exc:
        return _error(f"bad state or t_end: {exc}")
    if not np.isfinite(t_end):
        return _error(f"t_end {t_end} is not finite")

    try:
        # full_params raises here on a violated trace relation
        rhs = catalog.flow_rhs(sid, time_index, par, st.t)
        # a stiff flow overflows in trial steps, which are then rejected
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate_time(rhs, np.array(st.q + st.p, dtype=complex),
                                  st.t, time_index, t_end, rel_tol=rel_tol,
                                  samples=list(np.linspace(0.1, 0.9, 9)))
    except (ValueError, StepUnderflowError, StepBudgetError) as exc:
        return _error(exc)
    names = [f"q{k+1}" for k in range(desc.n_pairs)] + \
            [f"p{k+1}" for k in range(desc.n_pairs)]
    try:
        with open(out, "w") as fh:
            trajectory_to_csv(traj, fh, component_names=names)
    except OSError as exc:
        return _error(exc)
    print(f"wrote {out} ({traj.n_steps} accepted steps, "
          f"{traj.n_rejected} rejected)")
    return 0


def _resolve_seed(args, config):
    """The flag, else PAINLAB_SEED, else the config field, else the default;
    ValueError unless it is a non-negative integer."""
    env = os.environ.get("PAINLAB_SEED")
    if args.seed is not None:
        source, seed = "--seed", args.seed
    elif env is not None:
        source, seed = "PAINLAB_SEED", env.strip()
        if seed.isdecimal():
            seed = int(seed)
    else:
        source, seed = "config seed", config.get("seed", verify.DEFAULT_SEED)
    if type(seed) is not int or seed < 0:
        raise ValueError(f"{source} {seed!r} is not a non-negative integer")
    return seed


def _resolve_path(flag, config, field, default):
    """The flag, else the config field, else the default: a path string."""
    path = flag or config.get(field, default)
    if not isinstance(path, str):
        raise ValueError(f"config {field} {path!r} is not a path string")
    return path


def cmd_verify(args, config):
    try:
        seed = _resolve_seed(args, config)
        out = _resolve_path(args.out, config, "report", "report.json")
    except ValueError as exc:
        return _error(exc)
    names = list(verify.CHECKS) if args.what == "all" else [args.what]
    try:
        # opened before the checks run, so a bad path costs no check time
        fh = open(out, "w")
    except OSError as exc:
        return _error(exc)
    with fh:
        results = verify.run_checks(names, seed=seed)
        report = {"seed": seed, "results": results,
                  "passed": all(r["passed"] for r in results)}
        for r in results:
            line = f"{r['name']} ({r['seconds']:.2f}s)"
            if r["passed"]:
                print(f"PASS {line}")
                continue
            failing = "; ".join(
                f"{i['id']} residual {i['residual']:.3e} tolerance "
                f"{i['tolerance']:g}" for i in r["details"]["items"]
                if not i["passed"])
            print(f"FAIL {line}: {failing}")
        json.dump(report, fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")
    print(f"wrote {out}")
    return 0 if report["passed"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="painlab",
        description="Hamiltonian deformation systems: catalog, flows, checks")
    parser.add_argument("--config", help="JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the system catalog")

    p_int = sub.add_parser("integrate", help="integrate one deformation flow")
    p_int.add_argument("--system")
    p_int.add_argument("--params", help="JSON object of parameter values")
    p_int.add_argument("--time-index", type=int, dest="time_index")
    p_int.add_argument("--t-end", dest="t_end",
                       help="target time, JSON number or [re, im]")
    p_int.add_argument("--rel-tol", type=float, dest="rel_tol")
    p_int.add_argument("--seed", type=int)
    p_int.add_argument("--out")

    p_ver = sub.add_parser("verify", help="run verification checks")
    p_ver.add_argument("what", choices=list(verify.CHECKS) + ["all"])
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--out")

    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
    except (OSError, ValueError) as exc:
        return _error(f"bad config: {exc}")
    if args.command == "list":
        return cmd_list(args, config)
    if args.command == "integrate":
        return cmd_integrate(args, config)
    return cmd_verify(args, config)


if __name__ == "__main__":
    sys.exit(main())
