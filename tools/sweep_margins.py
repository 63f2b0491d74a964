"""Smallest margin of every verification item over a range of seeds.

Runs :func:`painlab.verify.run_checks` at each seed and prints one line
per item: its id (``check:item``), its smallest margin and the seed that
gave it, thinnest margin first.  A margin above 1 means the item passed
at every seed; an exact-zero residual (margin ``None``) counts as an
infinite margin.

Usage, from the root of the repository::

    python3 tools/sweep_margins.py --seeds 1-20
    python3 tools/sweep_margins.py --seeds 2 --checks isomonodromy

The exit status is 1 when any item failed at any seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from painlab import verify  # noqa: E402


def seed_range(text):
    """``"N"`` or ``"A-B"`` (inclusive) as a range of seeds; ValueError if
    it is empty (A > B), which argparse reports as a usage error."""
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def sweep(names, seeds):
    """{check:item id: (smallest margin, its seed)} and whether all passed."""
    worst, passed = {}, True
    for seed in seeds:
        for result in verify.run_checks(names, seed=seed):
            passed = passed and result["passed"]
            for item in result["details"]["items"]:
                key = f"{result['name']}:{item['id']}"
                margin = math.inf if item["margin"] is None else item["margin"]
                if key not in worst or margin < worst[key][0]:
                    worst[key] = (margin, seed)
    return worst, passed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-20"),
                        help="one seed N or an inclusive range A-B")
    parser.add_argument("--checks", nargs="+", choices=list(verify.CHECKS),
                        default=list(verify.CHECKS))
    args = parser.parse_args(argv)
    worst, passed = sweep(args.checks, args.seeds)
    width = max(len(key) for key in worst)
    for key, (margin, seed) in sorted(worst.items(),
                                      key=lambda kv: (kv[1][0], kv[0])):
        print(f"{key:<{width}}  {margin:10.4g}  seed {seed}")
    print(f"{len(worst)} items, seeds {args.seeds.start}-{args.seeds.stop - 1}"
          f": {'all passed' if passed else 'FAILED'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
