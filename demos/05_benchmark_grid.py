"""Run a scaled-down benchmark grid and print its summary table.

Same harness as `varsparse reproduce`, shrunk to finish in about a minute:
the graph-density sweep at reduced size, both methods, summarized as
mean +/- standard error over seeds. Pass --full for the benchmark-scale
protocol (5 seeds, 100k rows, 50 epochs; much slower).
"""

import argparse
import tempfile
from pathlib import Path

from varsparse.experiments import GRIDS, ExperimentConfig, reproduce

FULL = ExperimentConfig()
QUICK = ExperimentConfig(n_per_env=8_000, seeds=(0, 1), epochs=25, batch_size=1024)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--which", default="fig2b", choices=tuple(GRIDS))
    parser.add_argument("--full", action="store_true", help="benchmark-scale settings")
    parser.add_argument("--out", default=None, help="directory for the CSV files")
    args = parser.parse_args()

    out = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="varsparse_"))
    config = FULL if args.full else QUICK
    d_limit = None if args.full else 10  # skip d=30 in the quick pass
    rows_path, summary_path, rows = reproduce(args.which, out, config, d_limit=d_limit)

    failures = sum(1 for r in rows if r.error)
    print(f"{len(rows)} runs, {failures} failures")
    print(f"rows:    {rows_path}")
    print(f"summary: {summary_path}")
    print()
    print(summary_path.read_text())


if __name__ == "__main__":
    main()
