"""Regenerate the committed reference outputs in refs/.

Usage (from the repository root):

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs each workload once per grid variant through the same worker the
benchmark uses, and keeps every output column rounded to check.REF_DIGITS
significant digits. The references must come from the full-basis Lindblad
solver (the oracle), so regenerate them only from a commit whose outputs are
trusted; a fast path is then checked against them by run.py.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
import time
from pathlib import Path

import check
import run
import workloads


def make(root: Path, workload: str) -> dict:
    table = {}
    for seed in range(workloads.GRID_VARIANTS):
        work = root / ".perfbench_runs" / "refs" / f"{workload}-seed{seed}"
        shutil.rmtree(work, ignore_errors=True)
        entries = workloads.write_configs(workload, seed, work / "configs")
        result = run.run_worker(root, work / "pass", entries,
                                deadline=time.monotonic() + run.RUN_LIMIT_S)
        if any(result["codes"]):
            raise SystemExit(f"{workload} seed {seed}: exit codes {result['codes']}")
        table[str(seed)] = {name: check.reference_table(csv) for name, (csv, _, _)
                            in run.merged_outputs(result, entries).items()}
        print(f"{workload} seed {seed}: {result['wall_s']:.2f} s", flush=True)
    return table


def main(argv) -> int:
    root = Path.cwd()
    check.REF_DIR.mkdir(exist_ok=True)
    for workload in argv or sorted(workloads.WORKLOADS):
        table = make(root, workload)
        path = check.REF_DIR / f"{workload}.json.gz"
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0,
                                                   filename="") as fh:
            fh.write(json.dumps(table, sort_keys=True, separators=(",", ":")).encode())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
