#!/usr/bin/env python3
"""Set two groups of benchmark runs against each other, metric by metric.

    python3 perfbench/compare.py BASE_FILE CHANGE_FILE

Each file holds the standard output of one or more runs of run.py, one
after another (a header line, then the result line). For every workload
and metric both medians are printed with the change as a share of the
base median and, for end-to-end metrics, the bound from BENCHMARK.json.
Runs made on different backends are never compared: the script refuses
with exit code 2. It exits 1 if a run was not correct or an end-to-end
metric got worse by more than its bound, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: str) -> list[tuple[dict, dict]]:
    """(header, result) pairs in the order they appear in the file."""
    runs, header = [], None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "header" in obj:
            header = obj["header"]
        elif "metrics" in obj and header is not None:
            runs.append((header, obj))
            header = None
    return runs


def medians(runs) -> dict[tuple[str, str], float]:
    values = defaultdict(list)
    for header, result in runs:
        for name, metric in result["metrics"].items():
            values[(header["workload"], name)].append(metric["value"])
    return {key: statistics.median(v) for key, v in values.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load_runs(argv[0]), load_runs(argv[1])
    if not base or not change:
        print("error: a file holds no complete run", file=sys.stderr)
        return 2
    backends = {h["backend"] for h, _ in base + change}
    if len(backends) != 1:
        print(f"error: runs use different backends {sorted(backends)}; not comparable", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    status = 0 if all(r["correct"] for _, r in base + change) else 1
    old, new = medians(base), medians(change)
    print(f"backend {backends.pop()}; {len(base)} base runs, {len(change)} change runs")
    print(f"{'workload':<18} {'metric':<40} {'base':>12} {'change':>12} {'worse by':>9} {'bound':>6}")
    for key in sorted(old.keys() & new.keys()):
        workload, name = key
        better, bound = bounds.get(name, ("lower", None))
        sign = 1 if better == "lower" else -1
        worse = sign * (new[key] - old[key]) / old[key] if old[key] else 0.0
        flag = ""
        if bound is not None and worse > bound:
            flag, status = "  REGRESSED", 1
        shown = "" if bound is None else f"{bound:.2f}"
        print(f"{workload:<18} {name:<40} {old[key]:>12.6g} {new[key]:>12.6g} {worse:>+9.3f} {shown:>6}{flag}")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
