"""Correctness checks on the CSVs a workload pass writes.

A grid point (one output row) fails when its scenario exited non-zero, when
the row is missing, when a value is not finite or breaks an invariant, when
it differs from the committed reference by more than RTOL, or when its bytes
differ from the same row written by the run's first pass.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "refs"

# A converged fast path stays well inside this (a photon cap N_cap = 3
# deviates by ~5e-10); a lossy one does not (N_cap = 2 deviates by ~4e-5).
RTOL = 1e-6
# Values this far below their column's largest magnitude are compared
# against that scale instead of their own, so that exact zeros compare.
SCALE_FLOOR = 1e-6
RESIDUAL_MAX = 1e-9
REF_DIGITS = 12


def read_csv(path) -> tuple[list[str], list[str], list[str]]:
    """(metadata lines, header, data lines) of an omx CSV."""
    meta, lines = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            (meta if line.startswith("#") else lines).append(line)
    if not lines:
        return meta, [], []
    return meta, lines[0].split(","), lines[1:]


def merge_csvs(paths, dest) -> Path:
    """Concatenate the data rows of a scan's chunk CSVs, in order, under the
    metadata and header of the first chunk that wrote one."""
    meta, header, data = None, None, []
    for path in paths:
        if not Path(path).is_file():
            continue
        m, h, d = read_csv(path)
        if meta is None:
            meta, header = m, h
        data.extend(d)
    dest = Path(dest)
    dest.parent.mkdir(parents=True, exist_ok=True)
    lines = (meta or []) + ([",".join(header)] if header else []) + data
    dest.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return dest


def parse_rows(data: list[str]) -> list[list[float]]:
    return [[float(v) for v in line.split(",")] for line in data]


def reference_table(path) -> dict:
    """The compact form kept in refs/: header and rows rounded to REF_DIGITS."""
    _, header, data = read_csv(path)
    rows = [[float(f"{v:.{REF_DIGITS}g}") for v in row] for row in parse_rows(data)]
    return {"header": header, "rows": rows}


def load_references(workload: str) -> dict:
    path = REF_DIR / f"{workload}.json.gz"
    if not path.is_file():
        return {}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _deviation(name: str, value: float, ref: float, scale: float) -> float:
    diff = value - ref
    if name.endswith("phase"):
        diff = math.remainder(diff, 2 * math.pi)  # -pi and pi are one phase
    return abs(diff) / scale if scale > 0 else (0.0 if diff == 0 else math.inf)


def compare_reference(header, rows, ref: dict) -> tuple[set[int], float]:
    """Rows off the reference by more than RTOL, and the largest deviation.

    Every column but `residual` is compared; a missing column fails all rows.
    """
    failed: set[int] = set()
    worst = 0.0
    ref_rows = ref["rows"]
    for j, name in enumerate(ref["header"]):
        if name == "residual":
            continue
        if name not in header:
            return set(range(len(rows))), math.inf
        k = header.index(name)
        col_max = max((abs(r[j]) for r in ref_rows), default=0.0)
        for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            scale = max(abs(ref_row[j]), SCALE_FLOOR * col_max)
            dev = _deviation(name, row[k], ref_row[j], scale)
            worst = max(worst, dev)
            if dev > RTOL:
                failed.add(i)
    return failed, worst


def invariant_failures(header, rows) -> set[int]:
    """Rows with a non-finite value, residual > 1e-9, g2 < 0 or |r| > 1."""
    failed = set()
    for i, row in enumerate(rows):
        for name, v in zip(header, row):
            if (not math.isfinite(v)
                    or (name == "residual" and v > RESIDUAL_MAX)
                    or ("g2" in name and v < 0)
                    or (name == "r_abs" and v > 1.0 + RESIDUAL_MAX)):
                failed.add(i)
    return failed


def check_scenario(csv_path, code: int, expected_rows: int, ref: dict | None,
                   first_pass_csv=None) -> tuple[int, float]:
    """(failed points, max relative deviation) for one scenario of one pass."""
    if code != 0 or not Path(csv_path).is_file():
        return expected_rows, math.inf
    meta, header, data = read_csv(csv_path)
    try:
        rows = parse_rows(data)
    except ValueError:
        return expected_rows, math.inf
    complete = next((i for i, row in enumerate(rows) if len(row) != len(header)), len(rows))
    rows = rows[:min(complete, expected_rows)]  # a short row and all after it count as missing
    failed = invariant_failures(header, rows)
    worst = 0.0
    if ref is not None:
        bad, worst = compare_reference(header, rows, ref)
        failed |= bad
        failed |= set(range(len(ref["rows"]), len(rows)))
    if first_pass_csv is not None:
        meta0, header0, data0 = read_csv(first_pass_csv)
        if (meta0, header0) != (meta, header):
            return expected_rows, worst
        failed |= {i for i, line in enumerate(data[:len(rows)])
                   if i >= len(data0) or line != data0[i]}
    missing = expected_rows - len(rows)
    return len(failed) + missing, worst
