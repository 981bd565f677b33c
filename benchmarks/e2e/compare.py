"""Compare two result files: ``python3 benchmarks/e2e/compare.py A.json B.json``.

A is the base (the parent commit), B the change.  Each file is what
``run.py --out FILE`` appends to, so it may hold many runs of each
workload (different seeds, repeated pairs); a metric's value on one side
is the median over that side's runs and its spread the distance between
the quartiles as a share of the median (max − min with fewer than four
runs).

One row per (workload, metric), every ratio printed with its base.  An
end-to-end metric gets a verdict against its bound in BENCHMARK.json:

* ``unresolved`` — a side's spread is wider than the bound;
* ``regressed``  — B is worse than A by more than the bound;
* ``improved``   — B is better than A by more than both spreads;
* ``unchanged``  — otherwise.

Per-layer metrics have no bound; their rows carry the ratio only.
Exit status is 1 if any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

import harness


def load(path: str) -> dict[tuple[str, str], list[float]]:
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for run in runs:
        for name, entry in run["metrics"].items():
            values[run["workload"], name].append(entry["value"])
    return values


def spread(values: list[float]) -> float:
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(middle)


def verdict(base, change, better: str, bound: float) -> str:
    a, b = statistics.median(base), statistics.median(change)
    if not a or not b:
        return "unresolved"
    noise = max(spread(base), spread(change))
    if noise > bound:
        return "unresolved"
    worse = (b / a - 1.0) if better == "lower" else (a / b - 1.0)
    if worse > bound:
        return "regressed"
    if -worse > noise:
        return "improved"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    spec = harness.declared()
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    order = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    regressed = False
    print(f"{'workload':22} {'metric':40} {'A (base)':>14} {'B':>14} {'B/A':>8}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for name in order:
            key = (workload, name)
            if key not in base or key not in change:
                continue
            a, b = statistics.median(base[key]), statistics.median(change[key])
            if not a and not b:
                continue
            ratio = f"{b / a:8.3f}" if a else "     n/a"
            outcome = "-"
            if name in bounded:
                declared = bounded[name]
                outcome = verdict(
                    base[key], change[key], declared["better"], declared["bound"]
                )
                outcome += (
                    f" (bound {declared['bound']:.0%},"
                    f" spread {spread(base[key]):.1%} / {spread(change[key]):.1%},"
                    f" n {len(base[key])} / {len(change[key])})"
                )
                regressed |= outcome.startswith("regressed")
            print(f"{workload:22} {name:40} {a:14.6g} {b:14.6g} {ratio}  {outcome}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
