"""Compare two reports written by ``bench/run.py --report FILE``.

    python3 bench/compare.py BEFORE.json AFTER.json

Refuses, with exit code 2, to compare runs that were given different
inputs: another workload, seed or size shows as another input
fingerprint.  Otherwise prints every metric the two reports share, with
the relative change, and the machine each ran on.
"""

from __future__ import annotations

import json
import sys


def compare(before: dict, after: dict) -> list[str]:
    """Lines of the comparison; raises ValueError on different inputs."""
    if (before["workload"], before["fingerprint"]) != (after["workload"], after["fingerprint"]):
        raise ValueError(
            f"refusing to compare: inputs differ ({before['workload']} "
            f"{before['fingerprint'][:12]} vs {after['workload']} "
            f"{after['fingerprint'][:12]})")
    lines = [f"workload {before['workload']}  inputs sha256 {before['fingerprint']}"]
    for side, rep in (("before", before), ("after", after)):
        m = rep["machine"]
        lines.append(f"{side}: {m['cpu']}; nproc {m['nproc']}; Python {m['python']}; "
                     f"{m['cc']}; failed {rep['failed']}/{rep['attempted']}")
    for name, a in before["metrics"].items():
        b = after["metrics"].get(name)
        if b is None:
            continue
        change = ("" if a["value"] == 0
                  else f"{100.0 * (b['value'] - a['value']) / abs(a['value']):+.1f}%")
        lines.append(f"  {name:32s} {a['value']:<12.6g} {b['value']:<12.6g} "
                     f"{a['unit']:6s} {change}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    reports = []
    for path in args:
        with open(path) as f:
            reports.append(json.load(f))
    try:
        lines = compare(*reports)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
