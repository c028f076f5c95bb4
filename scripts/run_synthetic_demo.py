"""Run the full pipeline on a small synthetic ontology and print the stats.

No server needed: the synthetic backend answers every prompt from a sampled
reference ontology. Useful as a smoke test and as a template for real runs.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from evontree.config import parse_config
from evontree.pipeline import RunContext, run_all


def build_config(args: argparse.Namespace) -> dict:
    return {
        "model": {
            "kind": "synthetic",
            "synthetic": {
                "depth": args.depth,
                "branching": args.branching,
                "synonym_rate": 0.3,
                "seed": args.seed,
                "hallucination_rate": 0.1,
            },
        },
        "extraction": {"roots": ["T0N0"], "max_depth": args.depth},
        "synthesis": {"strategy": "mix"},
        "output": {"dir": str(args.out)},
    }


def print_table(path: Path) -> None:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("demo_out"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--branching", type=int, default=7)
    args = parser.parse_args()

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    config = parse_config(build_config(args), base_dir=Path.cwd())
    ctx = RunContext(config)
    try:
        run_all(ctx)
    finally:
        ctx.close()

    print()
    print_table(ctx.paths.report_csv)
    print()

    manifest = json.loads(ctx.paths.manifest.read_text())
    gaps = manifest["stages"]["gap"]["tallies"]["gap"]
    corpus = sum(manifest["stages"]["synthesize"]["tallies"]["entries"].values())
    print(f"{gaps} gaps -> {corpus} corpus records in {ctx.paths.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
