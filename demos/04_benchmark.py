#!/usr/bin/env python3
"""End-to-end benchmark: generate a synthetic point file, sweep the
connectivity threshold through the command-line harness, and print the
resulting table."""

import sys
import tempfile
from pathlib import Path

from bmcc.cli import main as bmcc


def main():
    with tempfile.TemporaryDirectory(prefix="bmcc-demo-") as tmp:
        run(Path(tmp))


def run(tmp):
    points = tmp / "points.csv"
    table = tmp / "bench.tsv"

    print("== generating a 120-dataset synthetic collection ==")
    bmcc(["gen", str(points), "--datasets", "120", "--points-per", "10", "--seed", "42"])

    print("\n== sweeping delta at two catalog scales ==")
    code = bmcc([
        "bench", str(points),
        "--solvers", "dsa,dpsa-ba,cmc-mc,cmc-mg",
        "--theta", "8",
        "--delta", "5,10,20",
        "--scales", "0.5,1.0",
        "--budget-ratio", "0.1",
        "--seed", "1",
        "--out", str(table),
    ])
    if code != 0:
        sys.exit(code)

    rows = table.read_text().splitlines()
    header = rows[0].split("\t")
    keep = ["solver", "delta", "scale", "n_datasets", "avg_degree",
            "components", "coverage", "solve_ms"]
    idx = [header.index(k) for k in keep]
    widths = [max(len(k), 10) for k in keep]
    print("  ".join(k.ljust(w) for k, w in zip(keep, widths)))
    for row in rows[1:]:
        parts = row.split("\t")
        print("  ".join(parts[i].ljust(w) for i, w in zip(idx, widths)))


if __name__ == "__main__":
    main()
