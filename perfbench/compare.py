"""Compare two result sets of the benchmark, one row per workload and
end-to-end metric.

Usage::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records ``run.py`` saves (any depth; copy
``.perfbench/results`` aside after measuring each commit).  Only untraced
runs are compared.  Runs pair up by seed where both sides ran the same
seed, and otherwise in file-name order.  A row gives each side's median
and quartiles, the share of pairs the change won (ties count for
neither), and a verdict:

* ``better``: the change wins at least nine tenths of the pairs and the
  medians differ, in its favour, by more than the parent's quartile
  distance;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the parent's own quartile distance exceeds the bound,
  and not every change run beats every parent run;
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory):
    """Untraced run records under ``directory``: workload -> [record]."""
    runs = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            with open(path) as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(record, dict) or record.get("trace") != 0 or "workload" not in record:
            continue
        runs.setdefault(record["workload"], []).append(record)
    return runs


def pair_up(parent, change):
    """Pairs of records: by seed where both sides have it, else by order."""
    by_seed = {r["seed"]: r for r in change}
    if {r["seed"] for r in parent} == set(by_seed):
        return [(r, by_seed[r["seed"]]) for r in parent]
    return list(zip(parent, change))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent_values, change_values, pairs, better, bound):
    """``(share of pairs won, verdict)`` for one workload and metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    won = wins / len(pairs) if pairs else 0.0
    p_med = statistics.median(parent_values)
    c_med = statistics.median(change_values)
    q1, q3 = _quartiles(parent_values)
    spread = q3 - q1
    gain = sign * (c_med - p_med)
    if won >= 0.9 and gain > spread:
        return won, "better"
    if -gain > bound * abs(p_med):
        return won, "worse"
    all_better = all(sign * (c - p) > 0 for p in parent_values for c in change_values)
    if spread > bound * abs(p_med) and not all_better:
        return won, "unresolved"
    return won, "unchanged"


def _summary(values):
    q1, q3 = _quartiles(values)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(parent_dir, change_dir):
    """Printable rows comparing the two result sets."""
    with open(BENCHMARK) as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    rows = [("workload", "metric", "parent median [q1, q3]",
             "change median [q1, q3]", "pairs won", "verdict")]
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        failed = sum(r["failed"] for r in p_runs), sum(r["failed"] for r in c_runs)
        for metric in metrics:
            name = metric["name"]
            p_values = [r["metrics"][name] for r in p_runs if name in r["metrics"]]
            c_values = [r["metrics"][name] for r in c_runs if name in r["metrics"]]
            if not p_values or not c_values:
                rows.append((workload, name, "-", "-", "-", "unresolved"))
                continue
            pairs = [
                (p["metrics"][name], c["metrics"][name])
                for p, c in pair_up(p_runs, c_runs)
                if name in p["metrics"] and name in c["metrics"]
            ]
            won, result = verdict(p_values, c_values, pairs, metric["better"],
                                  metric["bound"])
            if failed[1] > failed[0] and result == "better":
                result = "unresolved"  # a gain does not count with more failures
            rows.append((workload, name, _summary(p_values), _summary(c_values),
                         f"{won:.0%} of {len(pairs)}", result))
        if any(failed):
            rows.append((workload, "failed operations", str(failed[0]),
                         str(failed[1]), "-", "-"))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change)
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
