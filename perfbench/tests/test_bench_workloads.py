import json
import math
from pathlib import Path

import pytest

import check
import hostspeed
import run
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def grids(workload, seed):
    out = {}
    for scenario, template, _ in workloads.WORKLOADS[workload]["scenarios"]:
        cp = workloads.seeded_config(template, seed)
        for name in cp.sections():
            if name.startswith("grid."):
                out[(scenario, name)] = workloads.grid_values(cp, name[5:])
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_zero_is_the_committed_grid(workload):
    for scenario, template, _ in workloads.WORKLOADS[workload]["scenarios"]:
        committed = workloads._read(workloads.CONFIG_DIR / template)
        seeded = workloads.seeded_config(template, 0)
        assert {s: dict(committed[s]) for s in committed.sections()} == \
            {s: dict(seeded[s]) for s in seeded.sections()}


def test_seeds_are_deterministic_and_shift_by_a_sub_step():
    assert workloads.seed_fraction(0) == 0.0
    assert grids("transistor", 7) == grids("transistor", 7)
    base, shifted = grids("transistor", 0), grids("transistor", 3)
    assert base[("sweep", "grid.alpha")] == shifted[("sweep", "grid.alpha")]  # listed values stay
    for key in [("transistor", "grid.Delta"), ("spectrum", "grid.Delta_a"), ("ming2", "grid.g0")]:
        step = base[key][1] - base[key][0]
        offsets = [b - a for a, b in zip(base[key], shifted[key])]
        assert max(offsets) - min(offsets) < 1e-9
        assert 0 < abs(offsets[0]) <= 0.5 * step
    fractions = [workloads.seed_fraction(seed) for seed in range(workloads.GRID_VARIANTS)]
    assert len(set(fractions)) == workloads.GRID_VARIANTS
    assert all(-0.5 <= f < 0.5 for f in fractions)


def test_every_seed_maps_to_a_committed_variant():
    assert grids("g2scan", 13) == grids("g2scan", 3)
    assert workloads.seed_fraction(workloads.GRID_VARIANTS) == 0.0
    refs = check.load_references("g2scan")
    assert sorted(refs, key=int) == [str(v) for v in range(workloads.GRID_VARIANTS)]


def test_log_grids_shift_by_a_sub_ratio():
    base = grids("transistor", 0)[("gate-error", "grid.kappa")]
    shifted = grids("transistor", 5)[("gate-error", "grid.kappa")]
    ratio = base[1] / base[0]
    factors = [b / a for a, b in zip(base, shifted)]
    assert max(factors) - min(factors) < 1e-12
    assert ratio ** -0.5 <= factors[0] <= ratio ** 0.5


def test_expected_rows(tmp_path):
    entries = workloads.write_configs("transistor", 2, tmp_path)
    rows = {name: sum(entries[i]["rows"] for i in idx) for name, idx in run.scans(entries).items()}
    assert rows == {"transistor": 642, "spectrum": 481, "ming2": 44, "sweep": 120,
                    "gate-error": 49, "phonon-eigen": 8, "compare-effective": 8}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_chunks_cover_the_unsplit_scan_in_order(workload, tmp_path):
    entries = workloads.write_configs(workload, 4, tmp_path)
    for scenario, template, split in workloads.WORKLOADS[workload]["scenarios"]:
        full = workloads.seeded_config(template, 4)
        chunks = [workloads._read(Path(entries[i]["config"]))
                  for i in run.scans(entries)[scenario]]
        assert len(chunks) == math.prod(parts for _, _, parts in split)
        for kind, key, _ in split:
            if kind == "grid":  # the chunks' values are omx's own grid, bit for bit
                seen = sorted({v for cp in chunks for v in workloads.grid_values(cp, key)})
                assert seen == workloads.grid_values(full, key)
        assert sum(workloads.expected_rows(scenario, cp) for cp in chunks) \
            == workloads.expected_rows(scenario, full)


def test_g2scan_checks_uniqueness_once(tmp_path):
    entries = workloads.write_configs("g2scan", 0, tmp_path)
    checks = [workloads._read(Path(e["config"]))["run"]["check_unique"] for e in entries]
    assert checks == ["first"] + ["none"] * (len(entries) - 1)


def test_transistor_chunks_follow_the_row_order(tmp_path):
    entries = workloads.write_configs("transistor", 0, tmp_path)
    order = [(cp["run"]["n_m"], workloads.grid_values(cp, "Delta")[0])
             for cp in (workloads._read(Path(entries[i]["config"]))
                        for i in run.scans(entries)["transistor"])]
    assert order == sorted(order, key=lambda t: (float(t[0]), t[1]))


def test_wall_scales_each_pass_by_its_median_probe():
    ref = hostspeed.REFERENCE_S
    passes = [{"chunk_s": [1.0, 5.0], "probe_s": [ref, 2 * ref, 9 * ref]},
              {"chunk_s": [1.5, 4.0], "probe_s": [ref, ref, ref]},
              {"chunk_s": [0.5, 3.0], "probe_s": [ref, 2 * ref, 2 * ref, 9 * ref]}]
    # chunk 0: 1.0 / 2, 1.5, 0.5 / 2 -> median 0.5; chunk 1: 2.5, 4, 1.5 -> 2.5
    assert run.steady_chunk_s(passes[0]) == pytest.approx([0.5, 2.5])
    assert run.steady_pass_s(passes) == pytest.approx(3.0)


def test_setup_scales_by_every_probe_of_the_run():
    ref = hostspeed.REFERENCE_S
    setups = [{"setup_s": 0.5, "probe_s": [ref, 3 * ref]},
              {"setup_s": 0.7, "probe_s": [2 * ref] * 2},
              {"setup_s": 0.9, "probe_s": [2 * ref]}]
    assert run.steady_setup_s(setups) == pytest.approx(0.35)


def test_probing_lasts_for_the_share_asked():
    calls = iter([0.01, 0.02, 0.03, 0.04])
    assert hostspeed.probe_for(lambda: next(calls), 0.0) == [0.01]
    assert hostspeed.probe_for(lambda: next(calls), 0.05) == [0.02, 0.03]


def test_benchmark_json_matches_the_runner():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_timing_summary_tail_needs_ten_beyond():
    assert run.timing_summary([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3}
    summary = run.timing_summary(range(20))
    assert summary["n"] == 20 and summary["p50"] == 9


def test_per_layer_reports_every_listed_metric(tmp_path):
    recorded = [
        [0, "cli.main", 0.0, 2.0, None],
        [1, "dynamics.steady_state", 0.5, 1.5, 0],
        [2, "dynamics.spsolve", 0.6, 1.0, 1],
        [3, "dynamics.spsolve", 1.0, 1.2, 1],
    ]
    (tmp_path / "spans.json").write_text(json.dumps(
        {"spans": recorded, "counters": {"residual_max": 1e-15}}), encoding="utf-8")
    untraced = {"wall_s": 1.8, "import_s": 0.5, "load_config_s": 0.01}
    traced = dict(untraced, wall_s=2.0, dir=tmp_path)
    values = run.per_layer(untraced, traced, 0.0)
    assert set(values) == set(run.PER_LAYER_UNITS)
    assert values["dynamics.steady_state_self_s"] == pytest.approx(0.4)
    assert values["dynamics.spsolve_calls"] == 2
    assert values["dynamics.solve_useful_ratio"] == 0.5
    assert values["trace.overhead_s"] == pytest.approx(0.2)
    assert values["trace.coverage"] == pytest.approx(0.5)
