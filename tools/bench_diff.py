#!/usr/bin/env python3
"""Diff a fresh BENCH_*.json report against its committed baseline.

    python3 tools/bench_diff.py BENCH_sim.json BENCH_sim.json.new

Works on every snf-bench report (BENCH_sim, BENCH_sweep, BENCH_oltp).
Each cell's "perf" block holds host wall-clock numbers and is dropped
from both sides; everything else is a pure function of the run
configuration and must match exactly. Exits 0 on a match; otherwise
prints the first differing cell and key and exits 1.
"""

import json
import sys

MISSING = object()


def load(path):
    with open(path) as f:
        doc = json.load(f)
    for cell in doc.get("cells", []):
        cell.pop("perf", None)
    return doc


def first_difference(a, b, path=""):
    """Path and both values of the first place a and b differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            found = first_difference(a.get(key, MISSING),
                                     b.get(key, MISSING),
                                     f"{path}.{key}" if path else key)
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            found = first_difference(a[i] if i < len(a) else MISSING,
                                     b[i] if i < len(b) else MISSING,
                                     f"{path}[{i}]")
            if found:
                return found
        return None
    return None if a == b else (path, a, b)


def describe(doc_a, doc_b, path):
    """Name the cell a "cells[i]..." path points into, by its identity."""
    if not path.startswith("cells["):
        return f"config: {path}"
    index, _, rest = path[len("cells["):].partition("]")
    cells = doc_a["cells"] if int(index) < len(doc_a["cells"]) \
        else doc_b["cells"]
    cell = cells[int(index)]
    fields = [str(cell[k]) for k in ("workload", "mode", "cc") if k in cell]
    return f"cell {index} ({'/'.join(fields)}): {rest.lstrip('.') or 'whole cell'}"


def show(value):
    return "<missing>" if value is MISSING else json.dumps(value)


def main(argv):
    if len(argv) != 3:
        sys.exit(f"usage: {argv[0]} <committed.json> <fresh.json>")
    committed, fresh = argv[1], argv[2]
    a, b = load(committed), load(fresh)
    found = first_difference(a, b)
    if found:
        path, want, got = found
        print(f"{fresh} drifted from {committed}: "
              f"{describe(a, b, path)}: committed {show(want)}, "
              f"fresh {show(got)}")
        return 1
    print(f"{fresh} matches {committed} "
          f"({len(a.get('cells', []))} cells, perf blocks ignored)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
