#!/usr/bin/env python3
"""Compare two sets of saved benchmark results, refusing mismatched ones.

Each run saves ``.perfbench/results/<workload>-seed<n>-trace<t>.json``
with its metrics and a fingerprint (benchmark sources, dataset and
request-stream hashes, kernel backend, Python and numpy versions,
nproc).  Copy that directory aside after measuring one commit, measure
the other, then:

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Runs are paired by workload, seed and trace mode.  A pair whose
fingerprints differ is refused (exit status 2): a change to the
dataset generator, the request streams, the kernel backend or the
benchmark itself must never read as a speed change.  For each workload,
trace mode and metric the report gives both medians, the before side's
quartile spread as a share of its median, and how many pairs the after
side won.  A metric a run did not report (a write-mix window that failed
its levelling check saves no throughput or read latency) is compared
over the pairs where both sides reported it.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent


def load(directory: pathlib.Path) -> dict:
    runs = {}
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        fp = doc["fingerprint"]
        runs[(fp["workload"], fp["seed"], path.stem.rsplit("-", 1)[-1])] = doc
    return runs


def directions() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (load(pathlib.Path(a)) for a in argv)
    keys = sorted(before.keys() & after.keys())
    if not keys:
        print("no runs in common", file=sys.stderr)
        return 2
    mismatched = [k for k in keys if before[k]["fingerprint"] != after[k]["fingerprint"]]
    if mismatched:
        for key in mismatched:
            b, a = before[key]["fingerprint"], after[key]["fingerprint"]
            diff = {f: (b.get(f), a.get(f)) for f in b.keys() | a.keys() if b.get(f) != a.get(f)}
            print(f"refused: {key} fingerprints differ: {diff}", file=sys.stderr)
        return 2
    better = directions()
    print(f"{'workload':11s} {'trace':6s} {'metric':42s} {'before':>12s} {'after':>12s} {'spread':>7s} wins")
    for workload, trace in sorted({(k[0], k[2]) for k in keys}):
        group = [k for k in keys if (k[0], k[2]) == (workload, trace)]
        incorrect = [k for k in group if not (before[k]["correct"] and after[k]["correct"])]
        if incorrect:
            print(f"{workload} {trace}: incorrect runs {incorrect}; not compared")
            continue
        names = sorted(set().union(*(before[k]["metrics"].keys() & after[k]["metrics"].keys() for k in group)))
        for name in names:
            pairs = [
                (before[k]["metrics"][name]["value"], after[k]["metrics"][name]["value"])
                for k in group
                if before[k]["metrics"].get(name, {}).get("value") is not None
                and after[k]["metrics"].get(name, {}).get("value") is not None
            ]
            if not pairs:
                print(f"{workload:11s} {trace:6s} {name:42s} {'not steady':>12s}")
                continue
            b, a = (list(side) for side in zip(*pairs))
            sign = -1 if better.get(name, "lower") == "lower" else 1
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            print(
                f"{workload:11s} {trace:6s} {name:42s} {statistics.median(b):12.5g} "
                f"{statistics.median(a):12.5g} {spread(b):7.3f} {wins}/{len(pairs)}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
