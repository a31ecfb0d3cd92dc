"""Spread tables and regression comparison over benchmark result sets.

A result set is a JSONL file of run records as ``run.py`` appends them to
``.perfbench/results.jsonl`` (copy it aside to keep a set)::

    python3 perfbench/report.py spread [RESULTS.jsonl]
    python3 perfbench/report.py compare BASE.jsonl NEW.jsonl

``spread`` prints, per workload, every metric's median and quartiles over
the repeated runs and the spread (Q3 - Q1) / median against the metric's
bound.  ``compare`` prints one row per workload and flags every end-to-end
metric whose median moved the wrong way by more than its bound; it exits 1
when any metric regressed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import statistics
import sys
from collections import defaultdict
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_runs(path) -> Dict[tuple, List[dict]]:
    """``{(workload, trace): [record, ...]}`` from one result file."""
    runs: Dict[tuple, List[dict]] = defaultdict(list)
    for line in pathlib.Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            runs[(record["workload"], record["trace"])].append(record)
    return runs


def quartiles(values: List[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclasses.dataclass
class SpreadRow:
    """One metric over repeated runs of one workload."""

    metric: str
    unit: str
    values: List[float]
    bound: float = 0.0

    @property
    def spread(self) -> float:
        q1, median, q3 = quartiles(self.values)
        return (q3 - q1) / abs(median) if median else float("inf")

    def __str__(self) -> str:
        q1, median, q3 = quartiles(self.values)
        text = (
            f"  {self.metric:<40} {self.unit:>6} {len(self.values):>3} "
            f"{median:>12.5g} {q1:>12.5g} {q3:>12.5g} {100 * self.spread:>7.2f}%"
        )
        if self.bound:
            verdict = (
                "steady" if self.spread <= self.bound / 3
                else "within" if self.spread <= self.bound else "OVER"
            )
            text += f" {100 * self.bound:>6.1f}% {verdict}"
        return text


def spread(args) -> int:
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for (workload, trace), records in sorted(load_runs(args.results).items()):
        print(f"{workload} ({'traced' if trace else 'untraced'}, {len(records)} runs)")
        print(
            f"  {'metric':<40} {'unit':>6} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
            f"{'spread':>8} {'bound':>7}"
        )
        for name, first in records[-1]["result"]["metrics"].items():
            values = [
                r["result"]["metrics"][name]["value"]
                for r in records
                if name in r["result"]["metrics"]
            ]
            bound = 0.0 if trace else bounds.get(name, 0.0)
            print(SpreadRow(name, first["unit"], values, bound))
        bad = sum(not r["result"]["correct"] for r in records)
        attempted = sum(r["result"]["attempted"] for r in records)
        failed = sum(r["result"]["failed"] for r in records)
        print(
            f"  checks failed in {bad} of {len(records)} runs; "
            f"{failed} of {attempted} operations failed"
        )
    return 0


def compare(args) -> int:
    spec = load_spec()
    base, new = load_runs(args.base), load_runs(args.new)
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = base.get((workload, 0), []), new.get((workload, 0), [])
        if not a or not b:
            print(f"{workload:<20} missing runs (base {len(a)}, new {len(b)})")
            continue
        flags, moves = [], []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ma = statistics.median(r["result"]["metrics"][name]["value"] for r in a)
            mb = statistics.median(r["result"]["metrics"][name]["value"] for r in b)
            change = (mb - ma) / abs(ma) if ma else 0.0
            worse = change if metric["better"] == "lower" else -change
            moves.append(f"{name} {100 * change:+.1f}%")
            if worse > metric["bound"]:
                flags.append(f"{name} worse by {100 * worse:.1f}% > {100 * metric['bound']:.0f}%")
        regressed |= bool(flags)
        verdict = "REGRESSED: " + "; ".join(flags) if flags else "ok"
        print(f"{workload:<20} {verdict}  (n={len(a)}/{len(b)}; {', '.join(moves)})")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread", help="median and quartiles per metric")
    p.add_argument("results", nargs="?", default=str(ROOT / ".perfbench" / "results.jsonl"))
    p = sub.add_parser("compare", help="flag end-to-end metrics that moved past their bound")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)
    return {"spread": spread, "compare": compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
