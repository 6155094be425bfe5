"""Scenario runner: config-driven sweeps with deterministic CSV/JSON output.

Usage (one positional scenario and two required flags):
    omx spectrum|g2scan|ming2|transistor|gate-error|phonon-eigen|
        compare-effective|sweep --config FILE --out DIR

Every scenario takes one path: load the config, check its [run] keys,
run, write <scenario>.csv and .json. Exit codes: 0 success, 2 config error
(a bad config, or a closed form at its pole), 3 solver failure (a failed
g2scan flushes the points solved before it to <scenario>.partial.csv), 4
tolerance failure (compare-effective, after its outputs are written).

Config grammar (INI-style, '#' comments):

    [params]            # any SystemParams field; values take unit suffixes
    g0 = 8              # bare numbers are kappa units (or dimensionless)
    kappa = 5 MHz       # a physical kappa anchors Hz/kHz/MHz/GHz inputs
    T = 100 mK          # temperatures in K/mK/uK

    [grid.Delta_a]      # one section per swept axis
    start = -8
    stop = 8
    points = 161
    scale = lin         # or log
    # or instead:  values = -8, -4, 0, 4, 8

    [run]               # scenario options; a key the scenario does not
    truncations = m:10  # read (see _SCENARIOS) is a config error
    jobs = 1
    check_unique = first  # g2scan: null-space check at first | all | none points

Every output embeds the resolved parameters, grids, options and Fock dims
(models.default_truncations fills in a mode truncations leaves out), enough
to reproduce the run; repeated runs of one config are byte identical.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import warnings
from dataclasses import fields as dc_fields
from pathlib import Path

import numpy as np

from . import __version__, analytics, models
from .analytics import WEAK_DRIVE_DEFAULT
from .dynamics import SolverError, g2_zero, nonhermitian_eigs, reflection_spectrum, steady_state
from .params import FREQ_UNITS, SystemParams, parse_quantity
from .scan import ScanResult


class ConfigError(ValueError):
    pass


class ScanAborted(RuntimeError):
    """A grid point failed to solve; carries whatever was already computed."""

    def __init__(self, message: str, partial: ScanResult):
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------- config ---

_PARAM_FIELDS = {f.name for f in dc_fields(SystemParams)} - {"kappa_hz"}


class Config:
    def __init__(self, params: SystemParams, grids: dict, run: dict):
        self.params = params
        self.grids = grids
        self.run = run

    def grid(self, name: str) -> np.ndarray:
        if name not in self.grids:
            raise ConfigError(f"missing [grid.{name}] section")
        return self.grids[name]


def _parse_grid(section) -> np.ndarray:
    if "values" in section:
        return np.array(_floats(section, "values", None))
    missing = sorted({"start", "stop", "points"} - set(section))
    if missing:
        raise ConfigError(f"needs values, or start, stop and points (missing {missing})")
    start, stop = (_number(section, key, None, np.isfinite, "a finite number")
                   for key in ("start", "stop"))
    points = _integer(section, "points", None, 1)
    scale = section.get("scale", "lin").strip().lower()
    if scale == "lin":
        return np.linspace(start, stop, points)
    if scale == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError("log grids need positive endpoints")
        return np.geomspace(start, stop, points)
    raise ConfigError(f"unknown grid scale {scale!r}")


def load_config(path) -> Config:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), comment_prefixes=("#",))
    cp.optionxform = str
    try:
        cp.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    raw_params = dict(cp["params"]) if cp.has_section("params") else {}
    kappa_hz = None
    if "kappa" in raw_params:
        text = raw_params["kappa"].strip()
        parts = text.split()
        if len(parts) == 2 and parts[1].lower() in FREQ_UNITS:
            kappa_hz = parse_quantity(parts[0] + " " + parts[1], kappa_hz=1.0)  # value in Hz
            if not 0 < kappa_hz < np.inf:  # NaN fails too
                raise ConfigError(f"kappa must be a positive finite frequency; got {text!r}")
            raw_params["kappa"] = "1.0"
    kw = {}
    for key, text in raw_params.items():
        if key not in _PARAM_FIELDS:
            raise ConfigError(f"unknown parameter {key!r}")
        try:
            kw[key] = parse_quantity(text, kappa_hz)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # tau_p = inf is the pulse without bandwidth or decoherence terms
        if not (np.isfinite(kw[key]) or (key == "tau_p" and kw[key] == np.inf)):
            raise ConfigError(f"{key} must be a finite number; got {text.strip()!r}")
    kw["kappa_hz"] = kappa_hz
    try:
        params = SystemParams(**kw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc

    grids = {}
    for section in cp.sections():
        if section.startswith("grid."):
            try:
                grids[section[5:]] = _parse_grid(cp[section])
            except ConfigError as exc:
                raise ConfigError(f"[{section}] {exc}") from None
    run = dict(cp["run"]) if cp.has_section("run") else {}
    return Config(params, grids, run)


def _truncations(cfg: Config) -> dict[str, int] | None:
    """[run] truncations as {label: dim}, or None without the key; a builder
    fills in each label left out (models.default_truncations)."""
    text = cfg.run.get("truncations")
    if text is None:
        return None
    entries = [[part.strip() for part in item.split(":")]
               for item in text.split(",") if item.strip()]
    dims = {e[0]: int(e[1]) for e in entries if len(e) == 2 and e[1].isdecimal()}
    if not entries or len(dims) != len(entries):
        raise ConfigError("truncations must list label:dim entries with distinct labels "
                          f"and integer dims; got {text!r}")
    return dims


# readers of a [run] or [grid.*] key: a bad value is a ConfigError naming it
def _floats(options, key: str, default: str | None) -> list[float]:
    text = str(options.get(key, default))
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        vals = []
    if not vals or not np.isfinite(vals).all():
        raise ConfigError(f"{key} must list one or more finite numbers; got {text!r}")
    return vals


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _integer(options, key: str, default: int | None, least: int) -> int:
    text = str(options.get(key, default))
    if not text.removeprefix("-").isdecimal() or int(text) < least:
        raise ConfigError(f"{key} must be an integer >= {least}; got {text!r}")
    return int(text)


def _number(options, key: str, default: float | None, accept, rule: str) -> float:
    """A number, unless accept(value) fails (a text that is not a number
    reads as NaN)."""
    text = str(options.get(key, default))
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not accept(value):
        raise ConfigError(f"{key} must be {rule}; got {text!r}")
    return value


def _provenance(cfg: Config, params: SystemParams, scenario: str, **extra) -> dict:
    """Output metadata: the params that ran (defaults filled in), grids and [run] options."""
    meta = {
        "omx_version": __version__,
        "scenario": scenario,
        "deterministic": True,
        "params": {k: v for k, v in (
            (f.name, getattr(params, f.name)) for f in dc_fields(params))
            if v is not None},
        "grids": {name: [float(v) for v in vals] for name, vals in cfg.grids.items()},
        "run": dict(cfg.run),
    }
    meta.update(extra)
    return meta


def _map(fn, tasks, jobs: int):
    """Yield fn(task) for each task in order, over jobs worker processes
    when jobs > 1; rows yielded before a failure stay with the caller."""
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when parallel

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(fn, tasks)
    else:
        yield from map(fn, tasks)


# ------------------------------------------------------------- scenarios ---

def _weak_drive(p: SystemParams) -> SystemParams:
    """p with the probe drive Omega_a at its weak default where unset."""
    return p if p.Omega_a else p.replace(Omega_a=WEAK_DRIVE_DEFAULT * p.kappa)


def _g2scan_params(p: SystemParams) -> SystemParams:
    """g2scan's operating point: p with the weak drive Omega_a, a resonant
    omega_m = 2J and gamma = 0.01 kappa wherever p leaves them unset."""
    p = _weak_drive(p)
    if p.omega_m is None:
        # resonant operating point, large compared to g0 and kappa
        om = 20.0 * max(p.g0, p.kappa)
        p = p.replace(omega_m=om, J=om / 2)
    elif p.J is None:
        p = p.replace(J=p.omega_m / 2)  # resonant tunnel splitting
    if p.gamma is None:
        p = p.replace(gamma=0.01 * p.kappa, Q=None)
    return p


def _six_state_columns(p: SystemParams, grid, n0: float) -> dict:
    """Closed-form <n_a>/n0 and g2 over the Delta_a grid."""
    mean_na, g2 = analytics.six_state_spectrum(p, grid)
    return {"na_over_n0_analytic": mean_na / n0, "g2_analytic": g2}


def run_spectrum(cfg: Config) -> ScanResult:
    """Weak-drive excitation spectrum and g2 versus Delta_a (closed form)."""
    p = _weak_drive(cfg.params)
    grid = cfg.grid("Delta_a")
    n0 = (p.Omega_a / p.kappa) ** 2
    return ScanResult([("Delta_a", grid)], _six_state_columns(p, grid, n0),
                      _provenance(cfg, p, "spectrum", n0=n0))


def _g2_point(args):
    p, da, truncations, check = args
    model = models.build_rwa(p.replace(Delta_a=float(da)), truncations)
    rep = steady_state(model, check_unique=check)
    # <a^dag a> off the populations, as g2_zero reads it
    space = model.space
    nbar = float(rep.state.matrix.diagonal().real @ space.occupations[space.index("a")])
    return nbar, g2_zero(rep.state, "a"), rep.residual, space.modes


def run_g2scan(cfg: Config) -> ScanResult:
    """Full master-equation g2 and excitation scan with analytic overlay.

    A solver failure raises ScanAborted naming the grid point, carrying the
    points solved so far.
    """
    p = _g2scan_params(cfg.params)
    grid = cfg.grid("Delta_a")
    truncations = _truncations(cfg)
    check = cfg.run.get("check_unique", "first")
    if check not in ("first", "all", "none"):
        raise ConfigError(f"check_unique must be first, all or none; got {check!r}")
    tasks = [(p, da, truncations, check == "all" or (check == "first" and i == 0))
             for i, da in enumerate(grid)]
    rows = []
    try:
        for row in _map(_g2_point, tasks, _integer(cfg.run, "jobs", 1, 1)):
            rows.append(row)
    except SolverError as exc:
        partial = _g2scan_result(cfg, p, grid, rows, aborted_at=float(grid[len(rows)]))
        raise ScanAborted(
            f"solver failed at Delta_a = {grid[len(rows)]}: {exc}", partial) from exc
    return _g2scan_result(cfg, p, grid, rows)


def _g2scan_result(cfg: Config, p: SystemParams, grid, rows, **extra) -> ScanResult:
    """The g2scan table over the first len(rows) grid points: the same
    columns for a finished and for an aborted scan, with the dims of the
    solved models (none before the first point is solved)."""
    done = grid[: len(rows)]
    n0 = (p.Omega_a / p.kappa) ** 2
    return ScanResult(
        [("Delta_a", done)],
        {"na_over_n0_numeric": np.array([r[0] for r in rows]) / n0,
         "g2_numeric": np.array([r[1] for r in rows]),
         **_six_state_columns(p, done, n0),
         "residual": np.array([r[2] for r in rows])},
        _provenance(cfg, p, "g2scan", truncations=dict(rows[0][3]) if rows else None, n0=n0,
                    **extra))


def run_ming2(cfg: Config) -> ScanResult:
    g0_grid = cfg.grid("g0")
    nth = np.array(_floats(cfg.run, "nth_list", "0"))
    res = analytics.min_g2_scan(cfg.params, g0_grid, nth)
    res.metadata.update(_provenance(cfg, cfg.params, "ming2"))
    return res


def run_transistor(cfg: Config) -> ScanResult:
    p = cfg.params
    grid = cfg.grid("Delta")
    n_ms = _floats(cfg.run, "n_m", "0, 1")
    if not all(v >= 0 and v.is_integer() for v in n_ms):
        raise ConfigError(f"n_m must be non-negative integers; got {cfg.run['n_m']!r}")
    n_ms = [int(v) for v in n_ms]
    # reflection_spectrum's weak-drive bound
    omega = _number(cfg.run, "omega", WEAK_DRIVE_DEFAULT * p.kappa,
                    lambda w: 0.0 < w <= 0.05 * p.kappa, "a finite number in (0, 0.05 kappa]")
    truncations = _truncations(cfg)
    r_all = []
    for n_m in n_ms:
        model = models.build_transistor(p, n_m, truncations)
        refl = reflection_spectrum(model, "s", grid, omega)
        r_all.extend(r for _, r in refl)
    r_all = np.array(r_all)
    return ScanResult(
        [("n_m", np.array(n_ms)), ("Delta", grid)],
        {"r": r_all, "r_abs": np.abs(r_all), "r_phase": np.angle(r_all)},
        _provenance(cfg, p, "transistor", omega=omega, truncations=dict(model.space.modes)))


def run_gate_error(cfg: Config) -> ScanResult:
    """Conditional-phase gate error over (kappa, Gamma_m), optimized in Delta_s;
    stderr gets one line counting the points where the elimination is marginal."""
    p = cfg.params
    kappas = cfg.grid("kappa")
    gammas_m = cfg.grid("Gamma_m")
    exact = _BOOLEANS.get(str(cfg.run.get("exact", "false")).lower())
    if exact is None:
        raise ConfigError(f"exact must be true, false, yes, no, 1 or 0; got {cfg.run['exact']!r}")
    eps, ds_opt, tg = [], [], []
    # the exact path's builder warns at most once a point: count those
    # warnings and pass on the rest
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for kap in kappas:
            for gm in gammas_m:
                # Gamma_m = gamma/4 at N_th = 0
                pp = p.replace(kappa=float(kap), gamma=4.0 * float(gm), N_th=0.0,
                               T=None, Q=None)
                budget = analytics.phase_gate_error(pp, exact=exact)
                eps.append(budget.epsilon_g)
                ds_opt.append(budget.delta_s_opt)
                tg.append(budget.t_g)
    rest = [w for w in caught if not str(w.message).startswith(models.MARGINAL_ELIMINATION)]
    marginal = len(caught) - len(rest)
    for w in rest:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if marginal:
        print(f"warning: {models.MARGINAL_ELIMINATION} at {marginal} of {len(eps)} grid points "
              "(see models.build_effective_phonon)", file=sys.stderr)
    return ScanResult(
        [("kappa", kappas), ("Gamma_m", gammas_m)],
        {"eps_g": np.array(eps), "delta_s_opt": np.array(ds_opt),
         "t_g": np.array(tg)},
        _provenance(cfg, p, "gate-error", exact=exact))


def run_phonon_eigen(cfg: Config) -> ScanResult:
    """Hybridized-phonon eigenvalue ladder: exact versus closed form.

    Emits (Re lambda_n - n tilde_omega_m)/Lambda0 and |Im lambda_n|/Lambda0
    per Fock index and drive amplitude, for the non-Hermitian model and for
    the analytic prediction.
    """
    p = cfg.params
    alphas = np.array(_floats(cfg.run, "alphas", "0.5, 1.0"))
    n_max = _integer(cfg.run, "n_max", 3, 0)
    truncations = _truncations(cfg)
    lam0 = analytics.phonon_nonlinearity(p.replace(alpha=1.0)).Lambda0
    re_num, im_num, re_pred, im_pred, ovl = [], [], [], [], []
    for alpha in alphas:
        pa = p.replace(alpha=complex(alpha))
        h = models.build_nonhermitian(pa, truncations)
        frame = h.meta["frame"]   # the one hybridize of this alpha
        eigs = {e.n: e for e in nonhermitian_eigs(h, n_max + 1)}
        for n in range(n_max + 1):
            lam = eigs[n].value
            pred = analytics.eigenvalue_prediction(pa, frame, n)
            re_num.append((lam.real - n * frame.tilde_omega_m) / lam0)
            im_num.append(abs(lam.imag) / lam0)
            re_pred.append((pred.real - n * frame.tilde_omega_m) / lam0)
            im_pred.append(abs(pred.imag) / lam0)
            ovl.append(eigs[n].overlap)
    return ScanResult(
        [("alpha", alphas), ("n", np.arange(n_max + 1))],
        {"re_dev_over_L0_numeric": np.array(re_num),
         "im_over_L0_numeric": np.array(im_num),
         "re_dev_over_L0_analytic": np.array(re_pred),
         "im_over_L0_analytic": np.array(im_pred),
         "overlap": np.array(ovl)},
        _provenance(cfg, p, "phonon-eigen", truncations=dict(h.space.modes), Lambda0=lam0))


def run_compare_effective(cfg: Config) -> ScanResult:
    """phonon-eigen scan plus per-point analytic-vs-numeric deviations.

    rel_err_re is the real-part deviation relative to the predicted Kerr
    splitting (0 at n = 0, where both vanish and nothing is compared),
    rel_err_im that of the decay rates at every n; the metadata holds the
    tolerances. The command exits 4 when either maximum exceeds its
    tolerance (_verdict).
    """
    _integer(cfg.run, "n_max", 3, 1)  # the real-part comparison skips n = 0
    tol_re, tol_im = (_number(cfg.run, key, default, lambda t: 0.0 <= t < np.inf,
                              "a finite number >= 0")
                      for key, default in (("tolerance_re", 0.15), ("tolerance_im", 0.20)))
    res = run_phonon_eigen(cfg)
    n_col = res.axis_grid()[1]
    nonzero = n_col > 0
    rel_re = np.zeros(res.n_rows)
    rel_re[nonzero] = np.abs(
        res.columns["re_dev_over_L0_numeric"][nonzero]
        / res.columns["re_dev_over_L0_analytic"][nonzero] - 1.0)
    rel_im = np.abs(res.columns["im_over_L0_numeric"]
                    / res.columns["im_over_L0_analytic"] - 1.0)
    res.columns["rel_err_re"] = rel_re
    res.columns["rel_err_im"] = rel_im
    res.metadata.update(scenario="compare-effective",
                        tolerance_re=tol_re, tolerance_im=tol_im,
                        max_rel_err_re=float(rel_re[nonzero].max()),
                        max_rel_err_im=float(rel_im.max()))
    return res


# observable -> {output column: attribute of the record the observable returns}
_SWEEP_OBSERVABLES = {
    "six_state_g2": {"g2_analytic": "g2_zero", "mean_na": "mean_na"},
    "transistor_error": {"epsilon": "epsilon", "tau_opt": "tau_opt", "Gamma_m": "Gamma_m"},
    "phonon_nonlinearity": {"Lambda": "Lambda", "Gamma_phi": "Gamma_phi",
                            "gamma_prime": "gamma_prime"},
    "phase_gate_error": {"eps_g": "epsilon_g", "delta_s_opt": "delta_s_opt", "t_g": "t_g"},
}


def _sweep_point(args):
    p, names, values, obs_name = args
    pp = p.replace(**dict(zip(names, map(float, values))))
    out = getattr(analytics, obs_name)(pp)
    return {col: getattr(out, attr) for col, attr in _SWEEP_OBSERVABLES[obs_name].items()}


def run_sweep(cfg: Config) -> ScanResult:
    """Generic analytic sweep over any SystemParams fields."""
    obs_name = cfg.run.get("observable")
    if obs_name not in _SWEEP_OBSERVABLES:
        raise ConfigError(
            f"observable must be one of {sorted(_SWEEP_OBSERVABLES)}; got {obs_name!r}")
    if not cfg.grids:
        raise ConfigError("sweep needs at least one [grid.<param>] section")
    names = list(cfg.grids)
    for name in names:
        if name not in _PARAM_FIELDS:
            raise ConfigError(f"cannot sweep unknown parameter {name!r}")
    axes = [(name, cfg.grids[name]) for name in names]
    mesh = np.meshgrid(*[v for _, v in axes], indexing="ij")
    points = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    tasks = [(cfg.params, names, pt, obs_name) for pt in points]
    rows = list(_map(_sweep_point, tasks, _integer(cfg.run, "jobs", 1, 1)))
    columns = {k: np.array([r[k] for r in rows]) for k in rows[0]}
    return ScanResult(axes, columns, _provenance(cfg, cfg.params, "sweep", observable=obs_name))


# scenario -> (runner, the [run] keys it reads)
_SCENARIOS = {
    "spectrum": (run_spectrum, set()),
    "g2scan": (run_g2scan, {"truncations", "jobs", "check_unique"}),
    "ming2": (run_ming2, {"nth_list"}),
    "transistor": (run_transistor, {"n_m", "omega", "truncations"}),
    "gate-error": (run_gate_error, {"exact"}),
    "phonon-eigen": (run_phonon_eigen, {"alphas", "n_max", "truncations"}),
    "compare-effective": (run_compare_effective,
                          {"alphas", "n_max", "truncations", "tolerance_re", "tolerance_im"}),
    "sweep": (run_sweep, {"observable", "jobs"}),
}

# built once per process, not on every call of main
_PARSER = argparse.ArgumentParser(
    prog="omx",
    description="Multimode optomechanics scenario runner (data output only; "
                "plotting is external)")
_PARSER.add_argument("scenario", choices=_SCENARIOS)
_PARSER.add_argument("--config", required=True, help="scenario config file")
_PARSER.add_argument("--out", required=True, help="output directory")


# ------------------------------------------------------------------ main ---

def _emit(result: ScanResult, out_dir: Path, stem: str) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        result.write_csv(out_dir / f"{stem}.csv")
        result.write_json(out_dir / f"{stem}.json")
    except OSError as exc:
        raise ConfigError(f"cannot write to {out_dir}: {exc}") from exc
    print(f"wrote {out_dir / (stem + '.csv')} ({result.n_rows} rows)")


def _verdict(result: ScanResult) -> int:
    """compare-effective's two tolerance lines, read off its rel_err columns
    (the real part skips n = 0); 4 when either maximum is over tolerance."""
    passed = []
    for part, name, rows in (("re", "re_dev_over_L0", result.axis_grid()[1] > 0),
                             ("im", "im_over_L0", slice(None))):
        rel = result.columns[f"rel_err_{part}"][rows]
        tol = result.metadata[f"tolerance_{part}"]
        passed.append(rel.max() <= tol)
        print(f"{name}: max rel dev {rel.max():.4f}, median {np.median(rel):.4f}, "
              f"tolerance {tol:.4f} -> {'ok' if passed[-1] else 'FAIL'}")
    return 0 if all(passed) else 4


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    runner, run_keys = _SCENARIOS[args.scenario]
    out_dir = Path(args.out)
    try:
        cfg = load_config(args.config)
        unknown = sorted(set(cfg.run) - run_keys)
        if unknown:
            raise ConfigError(f"unknown [run] keys {unknown} for {args.scenario}; "
                              f"known: {sorted(run_keys)}")
        result = runner(cfg)
        _emit(result, out_dir, args.scenario)
        return _verdict(result) if args.scenario == "compare-effective" else 0
    except ScanAborted as exc:
        if exc.partial.n_rows:
            try:
                _emit(exc.partial, out_dir, f"{args.scenario}.partial")
            except ConfigError as io_exc:
                print(f"could not flush partial results: {io_exc}", file=sys.stderr)
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        # ConfigError and an undecodable config are ValueErrors; a
        # ZeroDivisionError is a closed form's pole, set by the parameters
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
