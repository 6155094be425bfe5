import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from omx.cli import ConfigError, load_config, main, run_spectrum, run_sweep, run_transistor
from omx.scan import ScanResult


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


SPECTRUM_CFG = """
[params]
g0 = 8
kappa = 1
Omega_a = 0.01

[grid.Delta_a]
start = -8
stop = 8
points = 81
"""


def test_config_units_and_anchor(tmp_path):
    cfg = load_config(write(tmp_path / "c.cfg", """
[params]
kappa = 5 MHz
g0 = 50 MHz
omega_m = 4 GHz
Q = 1e5
T = 100 mK
"""))
    p = cfg.params
    assert p.kappa == 1.0 and p.kappa_hz == 5e6
    assert p.g0 == pytest.approx(10.0)
    assert p.omega_m == pytest.approx(800.0)
    assert p.N_th == pytest.approx(0.1724, abs=2e-3)


def test_config_rejects_unknown_keys(tmp_path):
    for key in ("bogus", "omega_c", "omega_m2"):
        with pytest.raises(ConfigError, match="unknown parameter"):
            load_config(write(tmp_path / "c.cfg", f"[params]\n{key} = 3\n"))


@pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "configs").glob("*.cfg")),
                         ids=lambda p: p.name)
def test_shipped_config_loads(path):
    cfg = load_config(path)
    assert cfg.grids or cfg.run


def test_config_grids(tmp_path):
    cfg = load_config(write(tmp_path / "c.cfg", """
[params]
g0 = 1

[grid.x]
start = 1
stop = 100
points = 3
scale = log

[grid.y]
values = 0.5, 1.5
"""))
    assert cfg.grid("x") == pytest.approx([1.0, 10.0, 100.0])
    assert cfg.grid("y") == pytest.approx([0.5, 1.5])
    with pytest.raises(ConfigError, match="missing"):
        cfg.grid("z")


def test_spectrum_scenario_and_determinism(tmp_path):
    cfg_path = write(tmp_path / "spectrum.cfg", SPECTRUM_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    csv_a = (out_a / "spectrum.csv").read_bytes()
    csv_b = (out_b / "spectrum.csv").read_bytes()
    assert csv_a == csv_b
    header = [ln for ln in csv_a.decode().splitlines() if not ln.startswith("#")][0]
    assert header.split(",")[0] == "Delta_a"
    meta = json.loads((out_a / "spectrum.json").read_text())["metadata"]
    assert meta["params"]["g0"] == 8.0
    assert meta["grids"]["Delta_a"][0] == -8.0


def test_spectrum_antibunching_content(tmp_path):
    cfg = load_config(write(tmp_path / "c.cfg", SPECTRUM_CFG))
    res = run_spectrum(cfg)
    g2 = res.columns["g2_analytic"]
    grid = res.axes[0][1]
    assert g2[np.abs(grid) == 4.0].max() < 1.0
    assert g2[grid == 0.0][0] > 1.0


def test_missing_config_exits_2(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)]) == 2


def test_empty_grid_exits_2(tmp_path):
    cfg_path = write(tmp_path / "bad.cfg", """
[params]
g0 = 8

[grid.Delta_a]
values =
""")
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2


def test_transistor_scenario(tmp_path):
    cfg = load_config(write(tmp_path / "t.cfg", """
[params]
g0 = 10
kappa = 1
omega_m = 100
J = 50

[grid.Delta]
start = -8
stop = 8
points = 65

[run]
n_m = 0, 1
"""))
    res = run_transistor(cfg)
    assert res.n_rows == 2 * 65
    assert res.metadata["truncations"] == {"s": 4, "ap": 4}
    absr = res.columns["r_abs"].reshape(2, 65)
    assert absr[0].min() > 1 - 1e-6          # empty ladder: no dip
    assert absr[1].min() < 0.2               # split ladder: deep dips


@pytest.mark.parametrize("n_m", ["0.5", "-1"])
def test_transistor_rejects_non_integer_phonon_number(tmp_path, n_m):
    cfg_path = write(tmp_path / "t.cfg", f"""
[params]
g0 = 10

[grid.Delta]
values = 0

[run]
n_m = 0, {n_m}
""")
    assert main(["transistor", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2


def test_sweep_parallel_matches_serial(tmp_path):
    text = """
[params]
g0 = 8
kappa = 1
Omega_a = 0.01

[grid.Delta_a]
start = 1
stop = 4
points = 7

[grid.N_th]
values = 0, 1

[run]
observable = six_state_g2
jobs = {jobs}
"""
    serial = run_sweep(load_config(write(tmp_path / "s1.cfg", text.format(jobs=1))))
    parallel = run_sweep(load_config(write(tmp_path / "s2.cfg", text.format(jobs=2))))
    assert np.array_equal(serial.columns["g2_analytic"], parallel.columns["g2_analytic"])
    assert serial.n_rows == 14


def test_sweep_requires_known_observable(tmp_path):
    cfg = load_config(write(tmp_path / "s.cfg", """
[params]
g0 = 8

[grid.Delta_a]
values = 1

[run]
observable = nope
"""))
    with pytest.raises(ConfigError, match="observable"):
        run_sweep(cfg)


def test_scan_result_rejects_nan_and_bad_shape():
    with pytest.raises(ValueError, match="NaN"):
        ScanResult([("x", np.array([1.0]))], {"v": np.array([np.nan])})
    with pytest.raises(ValueError, match="NaN"):
        ScanResult([("x", np.array([0.0]))], {"r": np.array([complex(np.nan, 1.0)])})
    with pytest.raises(ValueError, match="shape"):
        ScanResult([("x", np.array([1.0, 2.0]))], {"v": np.array([1.0])})


def test_compare_effective_exit_codes(tmp_path):
    base = """
[params]
g0 = 1
kappa = 0.025
gamma = 2.5e-4
N_th = 1
Delta_s = -1
omega_m = 0.5
Delta_a = -5.5
alpha = 1

[run]
alphas = 1.0
n_max = 2
truncations = a:4, s:3, m:7
{tol}
"""
    ok_cfg = write(tmp_path / "ok.cfg", base.format(tol=""))
    assert main(["compare-effective", "--config", str(ok_cfg),
                 "--out", str(tmp_path / "ok")]) == 0
    tight = write(tmp_path / "tight.cfg", base.format(tol="tolerance_re = 1e-6"))
    assert main(["compare-effective", "--config", str(tight),
                 "--out", str(tmp_path / "tight")]) == 4


PHONON_EIGEN_CFG = """
[params]
g0 = 1
kappa = 0.025
gamma = 2.5e-4
N_th = 1
Delta_s = -1
omega_m = 0.5
Delta_a = -5.5

[run]
truncations = a:4, s:3, m:7
{run}
"""


@pytest.mark.parametrize("scenario, run, key", [
    ("phonon-eigen", "alphas = 1.0\nn_max = -2", "n_max"),
    ("phonon-eigen", "alphas = 1.0\nn_max = 1.5", "n_max"),
    ("phonon-eigen", "alphas =\nn_max = 2", "alphas"),
    ("compare-effective", "alphas = 1.0\nn_max = 0", "n_max"),
    ("compare-effective", "alphas = ,\nn_max = 2", "alphas"),
], ids=["negative-n_max", "fractional-n_max", "no-alphas", "compare-n_max-0",
        "compare-no-alphas"])
def test_phonon_eigen_rejects_empty_ladders(tmp_path, capsys, scenario, run, key):
    # each of these once wrote a 0-row CSV with exit 0, or failed inside numpy
    cfg_path = write(tmp_path / "pe.cfg", PHONON_EIGEN_CFG.format(run=run))
    assert main([scenario, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {key} " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario", ["phonon-eigen", "compare-effective"])
def test_phonon_eigen_exits_2_below_the_overlap_floor(tmp_path, capsys, scenario):
    # a2/s2/m2 once wrote the n = 2 row with overlap 0.005 and exit 0
    text = (Path(__file__).parents[1] / "configs" / "phonon_eigen_benchmark.cfg").read_text()
    text = text.replace("n_max = 3", "n_max = 2").replace(
        "truncations = a:5, s:3, m:9", "truncations = a:2, s:2, m:2")
    cfg_path = write(tmp_path / "pe.cfg", text)
    assert main([scenario, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: level n=2 has best overlap 0.00495 <= 0.5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


COMPARE_CFG = PHONON_EIGEN_CFG.format(run="alphas = 1.0\nn_max = 2\n{tol}")


@pytest.mark.parametrize("key", ["tolerance_re", "tolerance_im"])
@pytest.mark.parametrize("value", ["nan", "-1", "abc"])
def test_compare_effective_rejects_bad_tolerance(tmp_path, capsys, key, value):
    # nan and -1 once printed "-> FAIL" and exited 4, a comparison failure
    cfg_path = write(tmp_path / "ce.cfg", COMPARE_CFG.format(tol=f"{key} = {value}"))
    out = tmp_path / "out"
    assert main(["compare-effective", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"config error: {key} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, key, text", [
    ("phonon-eigen", "alphas", PHONON_EIGEN_CFG.format(run="alphas = 1.0, abc")),
    ("transistor", "n_m", "[params]\ng0 = 1\n[grid.Delta]\nvalues = 0\n[run]\nn_m = 0, abc\n"),
    ("ming2", "nth_list", "[params]\ng0 = 8\n[grid.g0]\nvalues = 8\n[run]\nnth_list = 0, abc\n"),
], ids=["alphas", "n_m", "nth_list"])
def test_number_lists_name_their_key(tmp_path, capsys, scenario, key, text):
    cfg_path = write(tmp_path / "bad.cfg", text)
    assert main([scenario, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {key} " in capsys.readouterr().err


MING2_RUN = "[params]\ng0 = 8\n[grid.g0]\nvalues = 8\n[run]\n"
TRANSISTOR_RUN = ("[params]\ng0 = 10\nkappa = 1\nomega_m = 100\nJ = 50\n"
                  "[grid.Delta]\nvalues = 0\n[run]\nn_m = 0\n")
G2SCAN_RUN = "[params]\ng0 = 2\n[grid.Delta_a]\nvalues = 0.5\n[run]\n"
SWEEP_RUN = "[params]\ng0 = 8\n[grid.Delta_a]\nvalues = 1\n[run]\nobservable = six_state_g2\n"


@pytest.mark.parametrize("scenario, key, text", [
    ("ming2", "nth_list", MING2_RUN + "nth_list ="),
    ("ming2", "nth_list", MING2_RUN + "nth_list = 0, nan"),
    ("transistor", "n_m", TRANSISTOR_RUN.replace("n_m = 0", "n_m =")),
    ("transistor", "omega", TRANSISTOR_RUN + "omega = nan"),
    ("transistor", "omega", TRANSISTOR_RUN + "omega = -0.01"),
    ("transistor", "omega", TRANSISTOR_RUN + "omega = 0"),
    ("transistor", "omega", TRANSISTOR_RUN + "omega = 0.06"),
    ("transistor", "omega", TRANSISTOR_RUN + "omega = abc"),
    ("g2scan", "jobs", G2SCAN_RUN + "jobs = abc"),
    ("g2scan", "jobs", G2SCAN_RUN + "jobs = 0"),
    ("sweep", "jobs", SWEEP_RUN + "jobs = -2"),
    ("g2scan", "truncations", G2SCAN_RUN + "truncations = a:4, a:5"),
    ("g2scan", "truncations", G2SCAN_RUN + "truncations = a:x"),
    ("transistor", "truncations", TRANSISTOR_RUN + "truncations = s:4.5"),
    ("transistor", "truncations", TRANSISTOR_RUN + "truncations ="),
], ids=["ming2-empty", "ming2-nan", "transistor-empty-n_m", "omega-nan", "omega-negative",
        "omega-zero", "omega-strong", "omega-text", "jobs-text", "jobs-zero", "sweep-jobs-negative",
        "truncations-repeated-label", "truncations-text-dim", "truncations-fractional-dim",
        "truncations-empty"])
def test_bad_run_values_exit_2_naming_the_key(tmp_path, capsys, scenario, key, text):
    # the empty lists, omega = nan or -0.01, jobs = 0 or -2 (run serially),
    # a repeated truncation label (the last won) and an empty truncations
    # once wrote a CSV with exit 0
    cfg_path = write(tmp_path / "bad.cfg", text)
    assert main([scenario, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {key} " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario, key, text", [
    ("spectrum", "g0", SPECTRUM_CFG.replace("g0 = 8", "g0 = inf")),
    ("g2scan", "kappa", G2SCAN_RUN.replace("[params]\n", "[params]\nkappa = nan\n")),
    ("transistor", "kappa", TRANSISTOR_RUN.replace("kappa = 1", "kappa = nan")),
    ("transistor", "omega_m", TRANSISTOR_RUN.replace("omega_m = 100", "omega_m = -inf")),
    ("spectrum", "kappa", SPECTRUM_CFG.replace("kappa = 1", "kappa = nan MHz")),
    ("spectrum", "kappa", SPECTRUM_CFG.replace("kappa = 1", "kappa = 0 MHz")
     .replace("g0 = 8", "g0 = 40 MHz")),
], ids=["g0-inf", "g2scan-kappa-nan", "transistor-kappa-nan", "omega_m-minus-inf",
        "kappa-nan-MHz", "kappa-zero-MHz"])
def test_params_that_are_not_finite_exit_2_naming_the_key(tmp_path, capsys, scenario, key,
                                                          text):
    # g0 = inf once exited 1 with a ZeroDivisionError traceback, kappa = nan
    # exited 3 as a singular solve (g2scan) or 2 blaming omega (transistor)
    cfg_path = write(tmp_path / "bad.cfg", text)
    assert main([scenario, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {key} " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tau_p_may_be_infinite(tmp_path):
    # an infinite pulse drops the bandwidth and decoherence terms
    cfg = load_config(write(tmp_path / "t.cfg", "[params]\ng0 = 10\ntau_p = inf\n"))
    assert cfg.params.tau_p == np.inf


def test_closed_form_pole_exits_2(tmp_path, capsys):
    # at kappa = 1e-14 the six-state closed form hits its dressed-resonance
    # pole; this once exited 1 with a ZeroDivisionError traceback
    cfg_path = write(tmp_path / "p.cfg", "[params]\ng0 = 8\nkappa = 1e-14\n"
                                         "[grid.Delta_a]\nvalues = -4\n")
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert ("config error: dressed-resonance pole at Delta_a = -4.0"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_transistor_takes_the_weak_drive_bound(tmp_path):
    cfg_path = write(tmp_path / "t.cfg", TRANSISTOR_RUN + "omega = 0.05")
    assert main(["transistor", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0


SCENARIOS = ["spectrum", "g2scan", "ming2", "transistor", "gate-error", "phonon-eigen",
             "compare-effective", "sweep"]


@pytest.mark.parametrize("argv", [["bogus", "--config", "c.cfg", "--out", "o"],
                                  ["spectrum", "--config", "c.cfg"]],
                         ids=["unknown-scenario", "missing-out"])
def test_bad_command_line_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_help_lists_every_scenario(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in SCENARIOS)
    assert "--config" in out and "--out" in out


def test_g2scan_full_vs_analytic_within_tolerance(tmp_path):
    from omx.cli import run_g2scan
    cfg = load_config(write(tmp_path / "g.cfg", """
[params]
g0 = 8
kappa = 1
omega_m = 160
J = 80
Omega_a = 0.01
gamma = 0.01

[grid.Delta_a]
values = -4, -2, 2, 2.8, 4

[run]
truncations = a:4, s:4, m:6
jobs = 2
"""))
    res = run_g2scan(cfg)
    analytic = res.columns["g2_analytic"]
    rel = np.abs(res.columns["g2_numeric"] - analytic) / np.abs(analytic)
    assert rel.max() <= 0.10, f"max rel deviation {rel.max():.3f}"
    assert np.all(res.columns["residual"] < 1e-9)


def _fmt(x) -> str:
    """The per-cell CSV formatter that ScanResult.write_csv once called."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))  # shortest exact round-trip


def test_csv_cells_match_the_per_cell_formatter(tmp_path):
    axes = [("n", np.array([0, 1], dtype=np.int64)), ("x", np.array([-0.0, 0.1, np.inf]))]
    cols = {
        "int": np.array([0, -1, 2**40, 7, -(2**31), 3]),
        "uint": np.arange(6, dtype=np.uint8),
        "float": np.array([0.1, -0.0, np.inf, -np.inf, 5e-324, 1 / 3]),
        "single": np.array([0.1, -0.0, np.inf, 1e-40, 3.5, 1 / 3], dtype=np.float32),
        "bool": np.array([True, False, True, True, False, False]),
        "complex": np.array([1 + 2j, -0.0 - 0.0j, complex(np.inf, -np.inf), 0.1j,
                             -1e300 + 1e-300j, 2.0]),
    }
    res = ScanResult(axes, cols, {"note": "cells"})
    res.write_csv(tmp_path / "r.csv")
    flat = res._flat_columns()
    want = [",".join(_fmt(col[i]) for _, col in flat) for i in range(res.n_rows)]
    lines = (tmp_path / "r.csv").read_text(encoding="utf-8").split("\n")
    assert lines[:2] == ['# note = "cells"', ",".join(name for name, _ in flat)]
    assert lines[2:] == want + [""]


def test_json_roundtrip(tmp_path):
    axes = [("x", np.array([1.0, 2.0])), ("y", np.array([0.0, 0.5, 1.0]))]
    cols = {"z": np.arange(6.0), "w": np.arange(6) * (1 + 2j)}
    res = ScanResult(axes, cols, {"note": "roundtrip"})
    res.write_json(tmp_path / "r.json")
    with open(tmp_path / "r.json", encoding="utf-8") as fh:
        back = json.load(fh)
    assert [ax["name"] for ax in back["axes"]] == ["x", "y"]
    w = back["columns"]["w"]
    assert np.allclose(np.asarray(w["re"]) + 1j * np.asarray(w["im"]), cols["w"])
    assert back["metadata"]["note"] == "roundtrip"


def test_gate_error_surface_monotone(tmp_path):
    from omx.cli import run_gate_error
    cfg = load_config(write(tmp_path / "ge.cfg", """
[params]
g0 = 1
gamma = 8e-5
delta = 3
alpha = 1

[grid.kappa]
values = 0.0025, 0.01

[grid.Gamma_m]
values = 1e-5, 1e-3
"""))
    res = run_gate_error(cfg)
    surface = res.columns["eps_g"].reshape(2, 2)
    assert np.all(np.diff(surface, axis=0) > 0)  # larger kappa hurts
    assert np.all(np.diff(surface, axis=1) > 0)  # larger Gamma_m hurts


GATE_ERROR_CFG = """
[params]
g0 = 1
gamma = 8e-5
delta = 3
alpha = 1

[grid.kappa]
values = 0.01

[grid.Gamma_m]
values = 1e-4

[run]
exact = {exact}
"""


def test_gate_error_exact_flag_is_strict(tmp_path, capsys):
    from omx.cli import run_gate_error
    for text in ("No", "FALSE", "0"):
        cfg = load_config(write(tmp_path / "ge.cfg", GATE_ERROR_CFG.format(exact=text)))
        assert run_gate_error(cfg).metadata["exact"] is False
    # a misspelt true once ran the estimate silently
    cfg_path = write(tmp_path / "ge.cfg", GATE_ERROR_CFG.format(exact="ture"))
    assert main(["gate-error", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: exact " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gate_error_counts_the_marginal_points_in_one_line(tmp_path, capsys):
    # exact = true once printed one raw UserWarning block per optimal Delta_s
    text = GATE_ERROR_CFG.replace("values = 1e-4", "values = 1e-4, 1e-3")
    for exact, err in (("true", "warning: adiabatic elimination marginal at 2 of 2 grid "
                                "points (see models.build_effective_phonon)\n"),
                       ("false", "")):
        cfg_path = write(tmp_path / "ge.cfg", text.format(exact=exact))
        assert main(["gate-error", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == err


def test_gate_error_exact_over_the_shipped_grid(tmp_path, capsys):
    shipped = Path(__file__).parents[1] / "configs" / "phonon_gate_error.cfg"
    cfg_path = write(tmp_path / "ge.cfg",
                     shipped.read_text().replace("exact = false", "exact = true"))
    out = tmp_path / "out"
    assert main(["gate-error", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ("warning: adiabatic elimination marginal at 49 of 49 "
                                       "grid points (see models.build_effective_phonon)\n")
    lines = [ln for ln in (out / "gate-error.csv").read_text().splitlines()
             if not ln.startswith("#")]
    assert lines[0] == "kappa,Gamma_m,eps_g,delta_s_opt,t_g"
    eps = np.array([float(ln.split(",")[2]) for ln in lines[1:]])
    assert eps.size == 49 and np.all((eps >= 0) & (eps <= 1))


def test_ming2_refuses_an_oversized_grid_before_allocating(tmp_path, capsys, monkeypatch):
    def allocate(*args, **kwargs):
        raise AssertionError("the detuning grid was allocated")

    monkeypatch.setattr(np, "arange", allocate)
    cfg_path = write(tmp_path / "m.cfg", """
[params]
g0 = 8
kappa = 1e-14
Omega_a = 0.01

[grid.g0]
values = 8
""")
    assert main(["ming2", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ming2 grid too large: g0 = 8 in steps of kappa/20")
    assert not (tmp_path / "out").exists()


def test_ming2_scenario(tmp_path):
    cfg_path = write(tmp_path / "m.cfg", """
[params]
g0 = 8
kappa = 1
Omega_a = 0.01

[grid.g0]
values = 8, 16

[run]
nth_list = 0, 1
""")
    out = tmp_path / "out"
    assert main(["ming2", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "ming2.csv").read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "g0,N_th,min_g2,argmin_delta_a"


def test_malformed_grid_entry_is_config_error(tmp_path):
    cfg_path = write(tmp_path / "bad.cfg", """
[params]
g0 = 2

[grid.Delta_a]
values = 1.0, nofail
""")
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("scenario, grid, text", [
    ("spectrum", "Delta_a", "values = 1, nan"),
    ("spectrum", "Delta_a", "values = 1, inf"),
    ("spectrum", "Delta_a", "start = nan\nstop = 1\npoints = 3"),
    ("spectrum", "Delta_a", "start = 0\nstop = 1\npoints = 2.5"),
    ("ming2", "g0", "values = 4, inf"),
], ids=["values-nan", "values-inf", "start-nan", "fractional-points", "ming2-values-inf"])
def test_grids_are_finite_and_named(tmp_path, capsys, scenario, grid, text):
    # NaN once failed only as a NaN output column, and ming2's inf inside numpy
    cfg_path = write(tmp_path / "bad.cfg", f"[params]\ng0 = 8\n[grid.{grid}]\n{text}\n")
    assert main([scenario, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: [grid.{grid}] " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


G2SCAN_THERMAL_CFG = """
[params]
g0 = 8
kappa = 1
omega_m = 160
J = 80
Omega_a = 0.01
gamma = 0.01
N_th = 0.5

[grid.Delta_a]
values = 3.3
"""


def test_g2scan_default_dims_follow_the_occupation(tmp_path):
    # without truncations this point once ran at m6 and came out 1.2% high
    from omx.cli import run_g2scan
    res = run_g2scan(load_config(write(tmp_path / "g.cfg", G2SCAN_THERMAL_CFG)))
    assert res.metadata["truncations"] == {"a": 4, "m": 13, "s": 4}
    pinned = write(tmp_path / "m20.cfg",
                   G2SCAN_THERMAL_CFG + "[run]\ntruncations = m:20\ncheck_unique = none\n")
    ref = run_g2scan(load_config(pinned))
    assert ref.metadata["truncations"] == {"a": 4, "m": 20, "s": 4}
    assert res.columns["g2_numeric"][0] == pytest.approx(ref.columns["g2_numeric"][0], rel=1e-4)


def test_phonon_eigen_records_every_dim_it_ran(tmp_path):
    # a partial truncations once recorded only its own entries
    from omx.cli import run_phonon_eigen
    text = (Path(__file__).parents[1] / "configs" / "phonon_eigen_benchmark.cfg").read_text()
    cfg = load_config(write(tmp_path / "pe.cfg", text.replace(
        "truncations = a:5, s:3, m:9", "truncations = m:9")))
    assert run_phonon_eigen(cfg).metadata["truncations"] == {"a": 4, "s": 4, "m": 9}


def test_g2scan_records_the_operating_point_it_ran(tmp_path):
    # the config's params were recorded, not the omega_m, J and gamma filled in
    from omx.cli import run_g2scan
    cfg = load_config(write(tmp_path / "g.cfg", """
[params]
g0 = 8
kappa = 1
Omega_a = 0.01

[grid.Delta_a]
values = 3.3
"""))
    params = run_g2scan(cfg).metadata["params"]
    assert (params["omega_m"], params["J"], params["gamma"]) == (160.0, 80.0, 0.01)


def test_spectrum_records_only_the_drive_it_fills_in(tmp_path):
    cfg = load_config(write(tmp_path / "s.cfg", SPECTRUM_CFG.replace("Omega_a = 0.01\n", "")))
    params = run_spectrum(cfg).metadata["params"]
    assert params["Omega_a"] == 0.01
    assert "omega_m" not in params and "J" not in params


def test_g2scan_solver_failure_flushes_partial(tmp_path, monkeypatch):
    import omx.cli as climod
    from omx.dynamics import SolverError

    real = climod._g2_point
    calls = {"n": 0}

    def flaky(args):
        calls["n"] += 1
        if calls["n"] == 3:
            raise SolverError("forced")
        return real(args)

    monkeypatch.setattr(climod, "_g2_point", flaky)
    cfg_path = write(tmp_path / "scan.cfg", """
[params]
g0 = 2
kappa = 1
omega_m = 40
J = 20
Omega_a = 0.01
gamma = 0.01

[grid.Delta_a]
values = 0.5, 1.0, 1.5, 2.0

[run]
truncations = a:3, s:3, m:3
""")
    out = tmp_path / "out"
    assert main(["g2scan", "--config", str(cfg_path), "--out", str(out)]) == 3
    partial = (out / "g2scan.partial.csv").read_text()
    rows = [ln for ln in partial.splitlines() if not ln.startswith("#")]
    assert len(rows) == 1 + 2  # header + the two solved points
    assert "aborted_at" in partial


def test_g2scan_partial_has_the_full_columns(tmp_path, monkeypatch):
    import omx.cli as climod
    from omx.dynamics import SolverError

    cfg_path = write(tmp_path / "scan.cfg", """
[params]
g0 = 2
kappa = 1
omega_m = 40
J = 20
Omega_a = 0.01
gamma = 0.01

[grid.Delta_a]
values = 0.5, 1.0

[run]
truncations = a:3, s:3, m:3
""")
    full_out, part_out = tmp_path / "full", tmp_path / "part"
    assert main(["g2scan", "--config", str(cfg_path), "--out", str(full_out)]) == 0

    real = climod.steady_state
    calls = {"n": 0}

    def fail_second(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise SolverError("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(climod, "steady_state", fail_second)
    assert main(["g2scan", "--config", str(cfg_path), "--out", str(part_out)]) == 3

    def table(path):
        lines = path.read_text().splitlines()
        return ([ln for ln in lines if ln.startswith("#")],
                [ln for ln in lines if not ln.startswith("#")])

    full_meta, full_rows = table(full_out / "g2scan.csv")
    part_meta, part_rows = table(part_out / "g2scan.partial.csv")
    assert part_rows[0] == full_rows[0]  # header
    assert "na_over_n0_numeric" in part_rows[0] and "g2_analytic" in part_rows[0]
    assert len(part_rows) == 2 and part_rows[1] == full_rows[1]
    assert any(ln.startswith("# n0 = ") for ln in part_meta)
    assert "# aborted_at = 1.0" in part_meta
    assert set(part_meta) - {"# aborted_at = 1.0"} == set(full_meta)


def test_g2scan_rejects_unknown_check_unique(tmp_path):
    cfg_path = write(tmp_path / "scan.cfg", """
[params]
g0 = 2

[grid.Delta_a]
values = 0.5

[run]
check_unique = sometimes
""")
    assert main(["g2scan", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "g2scan.csv").exists()


def test_unknown_run_key_exits_2_before_solving(tmp_path, capsys):
    cfg_path = write(tmp_path / "scan.cfg", """
[params]
g0 = 2

[grid.Delta_a]
values = 0.5

[run]
truncation = a:4, s:4, m:20
""")
    assert main(["g2scan", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "'truncation'" in capsys.readouterr().err
    assert not (tmp_path / "g2scan.csv").exists()


@pytest.mark.parametrize("scenario, truncations", [("g2scan", "a:4, s:4, mm:20"),
                                                    ("transistor", "s:4, ap:4, m:3")])
def test_unknown_truncation_label_exits_2(tmp_path, capsys, scenario, truncations):
    cfg_path = write(tmp_path / "scan.cfg", f"""
[params]
g0 = 2

[grid.Delta_a]
values = 0.5

[grid.Delta]
values = 0.5

[run]
truncations = {truncations}
""")
    assert main([scenario, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "unknown truncation labels" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


SHIPPED_SCENARIOS = {
    "antibunching_spectrum": "spectrum", "antibunching_g2scan": "g2scan",
    "g2scan_reduced": "g2scan", "min_g2_vs_coupling": "ming2",
    "transistor_reflection": "transistor", "phonon_gate_error": "gate-error",
    "phonon_eigen_benchmark": "phonon-eigen", "effective_model_check": "compare-effective",
    "kerr_rates_sweep": "sweep",
}


@pytest.mark.parametrize("path", sorted(
    p for d in ("configs", "perfbench/configs")
    for p in (Path(__file__).parents[1] / d).glob("*.cfg")),
    ids=lambda p: p.relative_to(Path(__file__).parents[1]).as_posix())
def test_shipped_run_keys_are_known(path):
    from omx.cli import _SCENARIOS
    assert set(load_config(path).run) <= _SCENARIOS[SHIPPED_SCENARIOS[path.stem]][1]


def test_benchmark_trace_binds_every_name():
    # perfbench/spans.py wraps omx functions by name; a renamed one must
    # fail here rather than in a traced benchmark run
    import importlib.util

    from omx import dynamics, hilbert
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = dynamics.null_space_gap, hilbert.DensityMatrix.__post_init__
    rec = spans.SpanRecorder("test")
    try:
        spans.instrument(rec)
        assert dynamics.null_space_gap is not originals[0]
    finally:
        rec.unpatch()
    assert (dynamics.null_space_gap, hilbert.DensityMatrix.__post_init__) == originals


def test_settable_values_are_counted():
    # defaulted positional and keyword-only arguments of every function plus
    # annotated class-body fields over src/omx: a change that adds or removes
    # a knob edits this number in its own diff
    import ast

    count = 0
    for path in sorted((Path(__file__).parents[1] / "src" / "omx").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef):
                count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    assert count == 83


def test_every_export_has_a_caller():
    # a name omx exports must be used in src/omx outside its own definition
    # (annotations aside) or by the acceptance suite; a helper only other
    # tests call belongs in tests/oracles.py
    import ast

    root = Path(__file__).parents[1]
    src = root / "src" / "omx"
    modules = {"omx"} | {path.stem for path in src.glob("*.py")}
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            used.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr not in inside):
            used.add(node.attr)
        for name, value in ast.iter_fields(node):
            if name not in ("annotation", "returns"):
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, ast.AST):
                        visit(child, inside)

    for path in sorted(src.glob("*.py")):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    visit(ast.parse((root / "tests" / "test_acceptance.py").read_text(encoding="utf-8")),
          frozenset())
    init = ast.parse((src / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(set(exported) - used) == []
    assert len(exported) == 43


def test_unwritable_output_is_config_error(tmp_path):
    cfg_path = write(tmp_path / "s.cfg", SPECTRUM_CFG)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where a directory must go")
    assert main(["spectrum", "--config", str(cfg_path),
                 "--out", str(blocker / "sub")]) == 2


def test_import_cli_leaves_scipy_integrate_unloaded():
    # no module of omx integrates in time: the time-domain oracle, evolve,
    # lives in tests/oracles.py
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import omx.cli; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
