"""Benchmark workloads: which omx scenarios each one runs, and the configs it
generates for a seed.

A workload is a list of (scenario, config template) pairs run in order by one
client in one process. The seed shifts every start/stop/points grid by the
same fraction of its step, so different seeds solve different but equally
hard points; seed 0 reproduces the committed templates exactly. There are
GRID_VARIANTS offsets, seed n taking offset n mod GRID_VARIANTS, so that the
outputs of every seed have a committed reference. Mode truncations are pinned
in every template that builds a Fock space, so a change to omx's default
truncations cannot change the work done.

A scan may be split into chunks: contiguous pieces of its grid (and of a
listed [run] option such as n_m), each run as its own omx.cli.main call with
its own output directory. Concatenated in order, the chunks' rows are the rows
of the unsplit scan. A g2scan checks uniqueness on the first point of the
first chunk only, as one unsplit scan does, so splitting adds no solver work.
Chunks let the runner time each piece of a pass on its own (see run.py).
"""

from __future__ import annotations

import configparser
import math
from itertools import product
from pathlib import Path

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Why each workload exists, which layer it loads or bypasses, and how each
# scenario is split: ((kind, key, parts), ...), outermost output axis first,
# kind "grid" for a [grid.<key>] section and "run" for a listed [run] option.
# The closed-form scenarios ride with the transistor: as a workload of their own
# (0.6-1.1 s passes of compute-bound Python) their median moved by 39% between
# two sets of ten runs of the same code on a 2-vCPU host whose speed drifts.
# A g2-thermal workload (N_th = 1, m:10, 25600^2 Liouvillian, 2 detunings) was
# dropped as unsteady: its 2-4 s solves hide the host's slow spells from the
# host-speed probes around them, and with four passes a run its wall_s spread
# 0.11 over ten runs (see README.md).
WORKLOADS = {
    "g2scan": {
        "why": "many medium sparse LU solves (9216^2 Liouvillian) plus one uniqueness check",
        "scenarios": [("g2scan", "g2scan_reduced.cfg", (("grid", "Delta_a", 9),))],
    },
    "transistor": {
        "why": "642 tiny steady states, then the closed-form scenarios: per-call overhead, no large factorization",
        "scenarios": [
            ("transistor", "transistor_reflection.cfg",
             (("run", "n_m", 2), ("grid", "Delta", 8))),
            ("spectrum", "antibunching_spectrum.cfg", ()),
            ("ming2", "min_g2_vs_coupling.cfg", ()),
            ("sweep", "kerr_rates_sweep.cfg", ()),
            ("gate-error", "phonon_gate_error.cfg", ()),
            ("phonon-eigen", "phonon_eigen_benchmark.cfg", ()),
            ("compare-effective", "effective_model_check.cfg", ()),
        ],
    },
}

GRID_VARIANTS = 10
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def grid_variant(seed: int) -> int:
    return seed % GRID_VARIANTS


def seed_fraction(seed: int) -> float:
    """Grid offset in units of the grid step, in [-0.5, 0.5); 0 for variant 0."""
    variant = grid_variant(seed)
    if variant == 0:
        return 0.0
    return (variant * _GOLDEN) % 1.0 - 0.5


def _read(path: Path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), comment_prefixes=("#",))
    cp.optionxform = str
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    return cp


def _shift_grid(section, frac: float) -> None:
    if "values" in section or frac == 0.0:
        return
    start, stop = float(section["start"]), float(section["stop"])
    points = int(section["points"])
    if points < 2:
        return
    if section.get("scale", "lin").strip().lower() == "log":
        factor = (stop / start) ** (frac / (points - 1))
        start, stop = start * factor, stop * factor
    else:
        offset = frac * (stop - start) / (points - 1)
        start, stop = start + offset, stop + offset
    section["start"], section["stop"] = repr(start), repr(stop)


def seeded_config(template: str, seed: int) -> configparser.ConfigParser:
    cp = _read(CONFIG_DIR / template)
    frac = seed_fraction(seed)
    for name in cp.sections():
        if name.startswith("grid."):
            _shift_grid(cp[name], frac)
    return cp


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def grid_values(cp: configparser.ConfigParser, axis: str) -> list[float]:
    """The grid an omx config describes, exactly as omx.cli parses it."""
    section = cp[f"grid.{axis}"]
    if "values" in section:
        return _floats(section["values"])
    start, stop = float(section["start"]), float(section["stop"])
    points = int(section["points"])
    if section.get("scale", "lin").strip().lower() == "log":
        return [float(v) for v in np.geomspace(start, stop, points)]
    return [float(v) for v in np.linspace(start, stop, points)]


def expected_rows(scenario: str, cp: configparser.ConfigParser) -> int:
    """Output rows the scenario must write: the product of its axes.

    The templates state every [run] option that adds an axis.
    """
    rows = 1
    for name in cp.sections():
        if name.startswith("grid."):
            rows *= len(grid_values(cp, name[5:]))
    if scenario == "transistor":
        rows *= len(_floats(cp["run"]["n_m"]))
    elif scenario == "ming2":
        rows *= len(_floats(cp["run"]["nth_list"]))
    elif scenario in ("phonon-eigen", "compare-effective"):
        rows *= len(_floats(cp["run"]["alphas"])) * (int(cp["run"]["n_max"]) + 1)
    return rows


def _pieces(items: list, parts: int) -> list[list]:
    """items cut into `parts` contiguous pieces of near-equal length."""
    bounds = [round(k * len(items) / parts) for k in range(parts + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def split_config(scenario: str, cp: configparser.ConfigParser, split) -> list:
    """The chunk configs of one scan, in the order their rows are written."""
    axes = []
    for kind, key, parts in split:
        if kind == "grid":
            values = [repr(v) for v in grid_values(cp, key)]
        else:
            values = [v.strip() for v in cp["run"][key].split(",") if v.strip()]
        axes.append([(kind, key, piece) for piece in _pieces(values, parts)])
    chunks = []
    for k, combo in enumerate(product(*axes)):
        chunk = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                          comment_prefixes=("#",))
        chunk.optionxform = str
        chunk.read_dict(cp)
        for kind, key, piece in combo:
            if kind == "grid":
                chunk.remove_section(f"grid.{key}")
                chunk[f"grid.{key}"] = {"values": ", ".join(piece)}
            else:
                chunk["run"][key] = ", ".join(piece)
        if scenario == "g2scan" and k > 0 and chunk["run"].get("check_unique", "first") == "first":
            chunk["run"]["check_unique"] = "none"  # the unsplit scan checks its first point only
        chunks.append(chunk)
    return chunks


def write_configs(workload: str, seed: int, out_dir: Path) -> list[dict]:
    """Write the seeded chunk configs of one workload; return one entry per
    chunk, in run order, each naming its scenario, config, rows and output
    directory (relative to the pass's output directory)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for scenario, template, split in WORKLOADS[workload]["scenarios"]:
        chunks = split_config(scenario, seeded_config(template, seed), split)
        for k, cp in enumerate(chunks):
            name = f"{scenario}-{k:02d}" if len(chunks) > 1 else scenario
            path = out_dir / f"{name}.cfg"
            with open(path, "w", encoding="utf-8") as fh:
                cp.write(fh)
            entries.append({"scenario": scenario, "config": str(path), "out": name,
                            "rows": expected_rows(scenario, cp)})
    return entries
