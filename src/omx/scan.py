"""Tabular sweep results with deterministic CSV/JSON serialization.

CSV layout: UTF-8, comma separated, '#'-prefixed metadata lines (sorted by
key) before a single header row; complex observables are split into _re/_im
columns. Floating point values are written with repr-faithful precision so
identical configs reproduce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


def _cells(col: np.ndarray) -> list[str]:
    """One column's CSV cells, formatted in one pass: integers as str, all
    else (bool included) as the repr of its float, the shortest exact
    round-trip."""
    if np.issubdtype(col.dtype, np.integer):
        return [str(v) for v in col.tolist()]
    return [repr(v) for v in col.astype(float).tolist()]


@dataclass
class ScanResult:
    """Axes (slowest first), observable columns, and provenance metadata.

    Rows run over the cartesian product of the axes in row-major order;
    every column must have exactly prod(len(axis)) entries.
    """

    axes: list[tuple[str, np.ndarray]]
    columns: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.axes = [(name, np.asarray(vals)) for name, vals in self.axes]
        self.columns = {k: np.asarray(v) for k, v in self.columns.items()}
        n = self.n_rows
        for k, v in self.columns.items():
            if v.shape != (n,):
                raise ValueError(f"column {k!r} has shape {v.shape}, expected ({n},)")
            if np.issubdtype(v.dtype, np.inexact) and np.isnan(v).any():
                raise ValueError(f"column {k!r} contains NaN")

    @property
    def n_rows(self) -> int:
        n = 1
        for _, vals in self.axes:
            n *= len(vals)
        return n

    def axis_grid(self) -> list[np.ndarray]:
        """Axis value columns broadcast over the row product."""
        grids = np.meshgrid(*[vals for _, vals in self.axes], indexing="ij")
        return [g.reshape(-1) for g in grids]

    def _flat_columns(self) -> list[tuple[str, np.ndarray]]:
        out = [(name, col) for (name, _), col in zip(self.axes, self.axis_grid())]
        for name, col in self.columns.items():
            if np.iscomplexobj(col):
                out.append((f"{name}_re", col.real))
                out.append((f"{name}_im", col.imag))
            else:
                out.append((name, col))
        return out

    def write_csv(self, path) -> None:
        cols = self._flat_columns()
        lines = []
        for key in sorted(self.metadata):
            lines.append(f"# {key} = {json.dumps(self.metadata[key], sort_keys=True, default=str)}")
        lines.append(",".join(name for name, _ in cols))
        lines.extend(map(",".join, zip(*(_cells(col) for _, col in cols))))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    def write_json(self, path) -> None:
        payload = {
            "metadata": {k: self.metadata[k] for k in sorted(self.metadata)},
            "axes": [{"name": name, "values": [float(v) for v in vals]}
                     for name, vals in self.axes],
            "columns": {},
        }
        for name, col in self.columns.items():
            if np.iscomplexobj(col):
                payload["columns"][name] = {
                    "re": [float(v) for v in col.real],
                    "im": [float(v) for v in col.imag]}
            else:
                payload["columns"][name] = [float(v) for v in col]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
