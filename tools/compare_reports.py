"""Compare two ``painlab verify`` reports, with ``seconds`` masked.

Prints one line per difference: the seed or overall verdict, a check only
one report has or whose verdict differs, and every item (``check:id``) or
counter (``check:counters/name``) that differs or that only one report
holds.  An item whose residual moved ends with the ratio of the new
residual to the old, so a change of order of magnitude reads at a glance.
Wall-clock ``seconds`` are the one field that varies between runs from a
seed, so they are left out.

Usage, from the root of the repository::

    python3 tools/compare_reports.py old.json new.json

The exit status is 1 when the reports differ, 0 when they agree.
"""

from __future__ import annotations

import argparse
import json
import math
import sys


def _keyed(result):
    """{check:id or check:counters/name: value} of one check's result."""
    name, details = result["name"], result["details"]
    out = {f"{name}:{item['id']}": item for item in details["items"]}
    out.update({f"{name}:counters/{key}": value
                for key, value in details["counters"].items()})
    return out


def _text(value):
    """A value as JSON text: exact for floats, and NaN equals NaN."""
    return json.dumps(value, sort_keys=True)


def _ratio(a, b):
    """The suffix naming the new/old residual ratio of two items whose
    residuals differ (inf from an old residual of 0); '' otherwise."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return ""
    old, new = a["residual"], b["residual"]
    if _text(old) == _text(new):
        return ""
    ratio = new / old if old else math.inf
    return f"  (residual new/old {ratio:.3g})"


def differences(old, new):
    """Lines naming each difference between two reports."""
    lines = [f"{field}: {old.get(field)!r} -> {new.get(field)!r}"
             for field in ("seed", "passed") if old.get(field) != new.get(field)]
    checks = [{r["name"]: r for r in report["results"]}
              for report in (old, new)]
    for name in list(checks[0]) + [n for n in checks[1] if n not in checks[0]]:
        a, b = (c.get(name) for c in checks)
        if a is None or b is None:
            lines.append(f"{name}: only in {'NEW' if a is None else 'OLD'}")
            continue
        if a["passed"] != b["passed"]:
            lines.append(f"{name}: passed {a['passed']} -> {b['passed']}")
        ka, kb = _keyed(a), _keyed(b)
        for key in list(ka) + [k for k in kb if k not in ka]:
            if key not in kb or key not in ka:
                lines.append(f"{key}: only in {'OLD' if key in ka else 'NEW'}")
            elif _text(ka[key]) != _text(kb[key]):
                lines.append(f"{key}: {ka[key]!r} -> {kb[key]!r}"
                             f"{_ratio(ka[key], kb[key])}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the first report (JSON)")
    parser.add_argument("new", help="the second report (JSON)")
    args = parser.parse_args(argv)
    reports = []
    for path in (args.old, args.new):
        with open(path) as fh:
            reports.append(json.load(fh))
    lines = differences(*reports)
    for line in lines:
        print(line)
    n_keys = sum(len(_keyed(r)) for r in reports[0]["results"])
    print(f"{len(lines)} differences over {len(reports[0]['results'])} "
          f"checks, {n_keys} items and counters")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
