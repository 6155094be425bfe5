from itertools import product
from pathlib import Path

import numpy as np
import pytest
from oracles import dense_gate_error, phase_gate_scan
from scipy.optimize import minimize_scalar

from omx import (
    SystemParams,
    analytics,
    build_rwa,
    eigenvalue_prediction,
    g2_zero,
    min_g2_scan,
    phase_gate_error,
    phonon_nonlinearity,
    six_state_g2,
    six_state_spectrum,
    steady_state,
    transistor_error,
)
from omx.cli import load_config
from omx.hilbert import thermal_dim, thermal_weights


def test_g2_is_exactly_one_without_coupling():
    p = SystemParams(g0=0.0, kappa=1.0, Delta_a=0.7, Omega_a=0.01)
    res = six_state_g2(p)
    assert abs(res.g2_zero - 1.0) < 1e-12
    # and the driven-cavity excitation in the standard normalization
    assert res.mean_na == pytest.approx(0.01**2 / (0.7**2 + 1.0), rel=1e-12)


def test_g2_invariant_under_drive_rescaling():
    p = SystemParams(g0=8.0, kappa=1.0, Delta_a=3.0, Omega_a=0.01, N_th=0.5)
    base = six_state_g2(p).g2_zero
    for scale in (0.1, 7.0, 1000.0):
        res = six_state_g2(p.replace(Omega_a=0.01 * scale))
        assert res.g2_zero == pytest.approx(base, rel=1e-12)


def test_pole_guard_at_zero_linewidth():
    p = SystemParams(g0=8.0, kappa=1e-300, Delta_a=4.0, Omega_a=0.01)
    with pytest.raises(ZeroDivisionError):
        six_state_g2(p)
    # |X_0| = 8e-14 at Delta_a = 1: the grid kernel names the pole's detuning
    p = SystemParams(g0=2.0, kappa=1e-14, Omega_a=0.01)
    with pytest.raises(ZeroDivisionError, match=r"at Delta_a = 1\.0 "):
        six_state_spectrum(p, [0.5, 1.0, 1.5])


def _ladder_sums(p, da):
    """(sum zeta_n p_{1,0,n}, sum zeta_n p_{2,0,n}) at one detuning."""
    g0, kappa, nth = p.g0, p.kappa, p.N_th
    omega = p.Omega_a if p.Omega_a else 1e-2 * kappa
    ns = np.arange(thermal_dim(nth))
    zeta = thermal_weights(nth, ns.size)
    d = da - 1j * kappa
    x = 4 * d * d - g0**2 * (ns + 1)
    two_x = 2 * x - g0**2
    p1 = np.abs(4 * omega * d / x) ** 2
    p2 = 8 * np.abs(omega**2 * (8 * d * d - g0**2) / (x * two_x)) ** 2
    return float(zeta @ p1), float(zeta @ p2)


def _six_state_point(p, da):
    """(<n_a>, g2) from the closed form at one detuning: the reference that
    six_state_spectrum must reproduce bit for bit."""
    s1, s2 = _ladder_sums(p, da)
    return s1, 2 * s2 / s1**2


def _ming2_grid(g0, kappa=1.0):
    return np.arange(0.0, g0 + kappa, kappa / 20)


@pytest.mark.parametrize("nth", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("g0, grid", [(6.0, _ming2_grid(6.0)), (20.0, _ming2_grid(20.0)),
                                      (22.0, _ming2_grid(22.0)),
                                      (8.0, np.linspace(-12.0, 12.0, 481))],
                         ids=["ming2-g6", "ming2-g20", "ming2-g22", "spectrum-g8"])
def test_six_state_spectrum_matches_per_point_formula(g0, grid, nth):
    # equal, not close: the spectrum, g2scan and ming2 CSVs must not move
    p = SystemParams(g0=g0, kappa=1.0, Omega_a=0.01, N_th=nth)
    mean_na, g2 = six_state_spectrum(p, grid)
    ref = np.array([_six_state_point(p, float(da)) for da in grid])
    assert np.array_equal(mean_na, ref[:, 0])
    assert np.array_equal(g2, ref[:, 1])


def test_six_state_grids_hold_last_bit_sensitive_points():
    # at these points g2 = 2 s2 / s1**2 differs in its last bit from
    # 2 s2 / (s1 * s1), so the test above tells Python's pow from an
    # ndarray's square
    for g0, nth, da in ((6.0, 2.0, 2.9), (22.0, 0.5, 2.05)):
        grid = _ming2_grid(g0)
        k = int(np.abs(grid - da).argmin())
        assert abs(grid[k] - da) < 1e-12
        p = SystemParams(g0=g0, kappa=1.0, Omega_a=0.01, N_th=nth)
        s1, s2 = _ladder_sums(p, float(grid[k]))
        assert 2 * s2 / (s1 * s1) != 2 * s2 / s1**2


def test_min_g2_scan_matches_per_point_argmin():
    cfg = load_config(Path(__file__).parents[1] / "configs" / "min_g2_vs_coupling.cfg")
    g0_grid = cfg.grid("g0")
    nth_list = [float(v) for v in cfg.opt("nth_list").split(",")]
    res = min_g2_scan(cfg.params, g0_grid, nth_list)
    want_min, want_arg = [], []
    for g0 in g0_grid:
        grid = _ming2_grid(g0, cfg.params.kappa)
        for nth in nth_list:
            p = cfg.params.replace(g0=float(g0), N_th=nth, T=None)
            vals = [_six_state_point(p, float(da))[1] for da in grid]
            # ties go to the smaller |Delta_a|
            k = min(range(len(grid)), key=lambda i: (vals[i], abs(grid[i])))
            want_min.append(vals[k])
            want_arg.append(grid[k])
    assert np.array_equal(res.columns["min_g2"], want_min)
    assert np.array_equal(res.columns["argmin_delta_a"], want_arg)


def _random_six_state_params(rng):
    kappa = rng.uniform(0.2, 4.0)
    return SystemParams(g0=rng.uniform(0.0, 30.0), kappa=kappa,
                        Omega_a=kappa * 10 ** rng.uniform(-3.0, 0.0),
                        N_th=rng.choice([0.0, rng.uniform(0.0, 5.0)]))


def test_six_state_spectrum_matches_the_scalar_oracle_on_random_draws():
    # the array prologue must round as the Python complex scalars do:
    # negative detunings, kappa != 1, Omega_a != 0.01, N_th up to 5
    rng = np.random.default_rng(18)
    for _ in range(25):
        p = _random_six_state_params(rng)
        span = 1.5 * (p.g0 + p.kappa)
        grid = rng.uniform(-span, span, 30)
        mean_na, g2 = six_state_spectrum(p, grid)
        ref = np.array([_six_state_point(p, float(da)) for da in grid])
        assert np.array_equal(mean_na, ref[:, 0])
        assert np.array_equal(g2, ref[:, 1])


def _exhaustive_min_g2(params, g0_grid, nth_list):
    """(min_g2, argmin) from the exact value at every grid point, first
    occurrence: the scan that min_g2_scan's screen must reproduce."""
    want_min, want_arg = [], []
    for g0 in g0_grid:
        grid = _ming2_grid(g0, params.kappa)
        for nth in nth_list:
            _, vals = six_state_spectrum(params.replace(g0=g0, N_th=nth, T=None), grid)
            k = int(np.argmin(vals))
            want_min.append(vals[k])
            want_arg.append(grid[k])
    return want_min, want_arg


def _assert_min_g2_exhaustive(params, g0_grid, nth_list):
    res = min_g2_scan(params, g0_grid, nth_list)
    want_min, want_arg = _exhaustive_min_g2(params, g0_grid, nth_list)
    assert np.array_equal(res.columns["min_g2"], want_min)
    assert np.array_equal(res.columns["argmin_delta_a"], want_arg)


def test_min_g2_scan_equals_the_exhaustive_argmin_on_random_draws():
    rng = np.random.default_rng(19)
    for _ in range(20):
        p = _random_six_state_params(rng)
        _assert_min_g2_exhaustive(p, [p.g0, 0.5 * p.g0], [0.0, p.N_th])


@pytest.mark.parametrize("kappa", [1.0, 3.0, 0.25])
def test_min_g2_scan_equals_the_exhaustive_argmin_flat_and_rescaled(kappa):
    # g0 = 1e-6 leaves g2 flat to rounding, so ties and near-ties fill the band
    p = SystemParams(g0=8.0 * kappa, kappa=kappa, Omega_a=0.01 * kappa)
    _assert_min_g2_exhaustive(p, [1e-6 * kappa, 8.0 * kappa, 16.0 * kappa], [0.0, 0.5, 2.0])


def _count_exact_rows(monkeypatch):
    rows = []
    exact = analytics._exact_sums

    def counted(zeta, p1, p2):
        rows.append(len(p1))
        return exact(zeta, p1, p2)

    monkeypatch.setattr(analytics, "_exact_sums", counted)
    return rows


def test_min_g2_scan_sends_every_row_to_the_exact_sums_when_the_screen_is_not_finite(
        monkeypatch):
    p = SystemParams(g0=8.0, kappa=1.0, Omega_a=0.01, N_th=0.5)
    ladder = analytics._ladder

    def poisoned(params, grid):
        zeta, p1, p2 = ladder(params, grid)
        p1[3] = np.inf  # the screened s1**2 of row 3 overflows
        return zeta, p1, p2

    monkeypatch.setattr(analytics, "_ladder", poisoned)
    want_min, want_arg = _exhaustive_min_g2(p, [8.0], [0.5])
    rows = _count_exact_rows(monkeypatch)
    res = min_g2_scan(p, [8.0], [0.5])
    assert rows == [_ming2_grid(8.0).size]
    assert np.array_equal(res.columns["min_g2"], want_min)
    assert np.array_equal(res.columns["argmin_delta_a"], want_arg)
    zeta, p1, p2 = ladder(p, _ming2_grid(8.0))
    p2[5] = np.nan
    assert np.array_equal(analytics._screen(zeta, p1, p2), np.arange(p1.shape[0]))


def test_min_g2_scan_runs_the_exact_sums_on_a_few_rows(monkeypatch):
    # the screen leaves at most a few rows per (g0, N_th) of the shipped
    # config to the exact sums; a return to the exhaustive scan fails here
    cfg = load_config(Path(__file__).parents[1] / "configs" / "min_g2_vs_coupling.cfg")
    nth_list = [float(v) for v in cfg.opt("nth_list").split(",")]
    rows = _count_exact_rows(monkeypatch)
    min_g2_scan(cfg.params, cfg.grid("g0"), nth_list)
    assert len(rows) == cfg.grid("g0").size * len(nth_list)
    assert max(rows) <= 3


def test_antibunching_near_single_photon_resonances():
    p = SystemParams(g0=8.0, kappa=1.0, Omega_a=0.01)
    for da in (3.5, 4.0, -4.0):
        assert six_state_g2(p.replace(Delta_a=da)).g2_zero < 1.0
    # bunching at line center
    assert six_state_g2(p.replace(Delta_a=0.0)).g2_zero > 1.0


def test_six_state_matches_full_master_equation():
    p = SystemParams(g0=8.0, kappa=1.0, omega_m=160.0, J=80.0, Omega_a=0.01,
                     gamma=0.01, N_th=0.0)
    for da in (4.0, 2.8, 0.5):
        pp = p.replace(Delta_a=da)
        rep = steady_state(build_rwa(pp, (4, 4, 6)), check_unique=False)
        g2_full = g2_zero(rep.state, "a")
        g2_six = six_state_g2(pp).g2_zero
        assert abs(g2_full / g2_six - 1.0) < 0.1


def test_min_g2_asymptotic_scaling():
    p = SystemParams(g0=16.0, kappa=1.0, Omega_a=0.01)
    res = min_g2_scan(p, [16.0], [0.0])
    ref = 8.0 / 16.0**2
    assert abs(res.columns["min_g2"][0] / ref - 1.0) < 0.25


def test_min_g2_monotone_in_coupling_and_temperature():
    p = SystemParams(g0=8.0, kappa=1.0, Omega_a=0.01)
    res = min_g2_scan(p, [6.0, 10.0, 16.0], [0.0, 0.5, 1.0])
    table = res.columns["min_g2"].reshape(3, 3)
    assert np.all(np.diff(table, axis=0) < 0)   # stronger coupling helps
    assert np.all(np.diff(table, axis=1) > 0)   # temperature degrades
    # vanishing coupling: classical statistics
    weak = min_g2_scan(p, [1e-6], [0.0])
    assert weak.columns["min_g2"][0] == pytest.approx(1.0, abs=1e-9)


def test_argmin_invariant_under_rate_rescaling():
    base = SystemParams(g0=8.0, kappa=1.0, Omega_a=0.01)
    r0 = min_g2_scan(base, [8.0], [0.0])
    for scale in (3.0, 0.25):
        p = SystemParams(g0=8.0 * scale, kappa=scale, Omega_a=0.01 * scale)
        r = min_g2_scan(p, [8.0 * scale], [0.0])
        assert r.columns["min_g2"][0] == pytest.approx(r0.columns["min_g2"][0], rel=1e-9)
        assert r.columns["argmin_delta_a"][0] / scale == pytest.approx(
            r0.columns["argmin_delta_a"][0], rel=1e-9)


# --------------------------------------------------------- transistor error ---

def test_transistor_error_physical_operating_point():
    p = SystemParams.from_physical(kappa_hz=5e6, g0=50e6, omega_m=4e9, Q=1e5, T=0.1)
    budget = transistor_error(p)
    assert 0.07 <= budget.epsilon <= 0.12
    # optimal inverse pulse duration around 0.8 MHz in ordinary frequency
    assert 1.0 / budget.tau_opt * 5e6 == pytest.approx(0.79e6, rel=0.05)


def test_transistor_error_reflection_floor():
    p = SystemParams(g0=10.0, kappa=1.0, gamma=0.0, N_th=0.0)
    budget = transistor_error(p.replace(tau_p=np.inf))
    assert budget.epsilon == pytest.approx(4.0 / 100.0, rel=1e-12)


def test_transistor_error_optimum_on_log_grid():
    # tau_opt is the rounded optimum (kappa^2 Gamma_m)^(-1/3); the exact
    # minimizer sits at 2^(1/3) tau_opt where the bandwidth+decoherence part
    # is lower by the factor (2^(-2/3) + 2^(1/3))/2, about 5.6%
    p = SystemParams(g0=10.0, kappa=1.0, gamma=2e-4, N_th=1.0)
    opt = transistor_error(p)
    slack = 2.0 / (2 ** (-2 / 3) + 2 ** (1 / 3))
    for tau in np.geomspace(opt.tau_opt / 100, opt.tau_opt * 100, 41):
        assert opt.epsilon <= slack * transistor_error(p.replace(tau_p=float(tau))).epsilon + 1e-15


def test_transistor_error_matches_numeric_minimization():
    p = SystemParams(g0=10.0, kappa=1.0, gamma=2e-4, N_th=1.0)
    opt = transistor_error(p)
    res = minimize_scalar(lambda t: transistor_error(p.replace(tau_p=float(t))).epsilon,
                          bracket=(opt.tau_opt / 10, opt.tau_opt * 10))
    assert res.x == pytest.approx(2 ** (1 / 3) * opt.tau_opt, rel=1e-3)
    assert opt.tau_opt == pytest.approx(res.x, rel=0.3)  # rounded optimum is close


def test_transistor_error_clamped_flag():
    p = SystemParams(g0=0.1, kappa=1.0, gamma=0.0)
    budget = transistor_error(p.replace(tau_p=np.inf))
    assert budget.clamped and budget.epsilon == 1.0


# ------------------------------------------------------ phonon nonlinearity ---

SM = dict(g0=1.0, kappa=0.025, gamma=2.5e-4, N_th=1.0, Delta_s=-1.0,
          omega_m=2.0, Delta_a=-7.0)


def test_nonlinearity_vanishes_without_drive():
    b = phonon_nonlinearity(SystemParams(alpha=0.0, **SM))
    assert b.Lambda == 0.0 and b.Gamma_phi == 0.0 and b.gamma_prime == 0.0


def test_nonlinearity_normalized_scale():
    for alpha in (0.5, 1.0):
        b = phonon_nonlinearity(SystemParams(alpha=alpha, **SM))
        assert abs(b.Lambda) / b.Lambda0 == pytest.approx(alpha**2, rel=1e-3)


def test_kerr_dephasing_ratio_identity():
    for ds in (-0.3, -1.0, -4.0):
        p = SystemParams(alpha=0.7, **{**SM, "Delta_s": ds,
                                       "Delta_a": SM["Delta_a"]})
        b = phonon_nonlinearity(p.replace(Delta_s=ds))
        assert b.Lambda / b.Gamma_phi == pytest.approx(ds / p.kappa, rel=1e-12)


def test_eigenvalue_prediction_ground_level():
    p = SystemParams(alpha=1.0, **SM)
    lam0 = eigenvalue_prediction(p, 0)
    assert lam0.real == 0.0
    assert -lam0.imag == pytest.approx(0.5 * p.gamma * p.N_th, rel=1e-12)


def test_eigenvalue_prediction_closed_system_is_real():
    p = SystemParams(g0=1.0, kappa=1e-300, gamma=0.0, Delta_s=-1.0,
                     omega_m=2.0, Delta_a=-7.0, alpha=1.0)
    for n in range(4):
        assert abs(eigenvalue_prediction(p, n).imag) < 1e-15


# -------------------------------------------------------------- phase gate ---

def test_phase_gate_error_decoherence_free_limit():
    p = SystemParams(g0=1.0, kappa=1e-9, gamma=0.0, delta=3.0, alpha=1.0)
    est = phase_gate_error(p)
    assert est.epsilon_g < 1e-6
    exact = phase_gate_error(p, exact=True)
    assert exact.epsilon_g < 1e-6


def test_phase_gate_exact_tracks_estimate():
    p = SystemParams(g0=1.0, kappa=5e-3, gamma=8e-5, delta=3.0, alpha=1.0)
    b = phase_gate_error(p, exact=True)
    est = b.extras["epsilon_g_estimate"]
    assert 0 < est < 1
    assert b.epsilon_g == pytest.approx(est, rel=0.5)
    assert b.t_g == pytest.approx(np.pi / (2 * abs(b.Lambda)))


def test_phase_gate_optimum_near_half_coupling():
    p = SystemParams(g0=1.0, kappa=5e-3, gamma=8e-5, delta=3.0, alpha=1.0)
    b = phase_gate_error(p)
    assert abs(b.delta_s_opt) == pytest.approx(0.5, abs=0.125)


def _gate_params(rng, alpha_from, delta_from, n_th):
    g0 = rng.uniform(0.2, 5.0)
    kw = dict(g0=g0, kappa=rng.uniform(1e-3, 0.3) * g0, gamma=rng.uniform(1e-6, 1e-3) * g0,
              N_th=n_th)
    if alpha_from == "alpha":
        kw["alpha"] = complex(rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0))
    else:
        kw["Omega_s"] = rng.uniform(0.01, 1.0) * g0
    delta = rng.uniform(2.0, 6.0) * g0  # > 0 >= every Delta_s of the scan
    if delta_from == "delta":
        kw["delta"] = delta
    elif delta_from == "J":  # hybrid delta -(Delta_s - 2J + omega_m) moves with Delta_s
        kw["omega_m"] = rng.uniform(1.0, 40.0) * g0
        kw["J"] = 0.5 * (delta + kw["omega_m"])
    else:  # Delta_a and omega_m without J: a fixed hybrid delta
        kw["omega_m"] = rng.uniform(1.0, 40.0) * g0
        kw["Delta_a"] = -delta - kw["omega_m"]
    return SystemParams(**kw)


@pytest.mark.parametrize("alpha_from,delta_from,n_th",
                         list(product(("alpha", "Omega_s"), ("delta", "J", "Delta_a"), (0.0, 1.3))))
def test_phase_gate_scan_matches_the_per_detuning_oracle(alpha_from, delta_from, n_th):
    rng = np.random.default_rng([len(alpha_from), len(delta_from), int(10 * n_th)])
    for _ in range(10):
        p = _gate_params(rng, alpha_from, delta_from, n_th)
        # every field: epsilon_g, delta_s_opt, t_g, the rates, extras, clamped
        assert vars(phase_gate_error(p)) == vars(phase_gate_scan(p))


def test_phase_gate_scan_keeps_the_first_of_equal_errors():
    # Gamma_m t_g > 40 at every detuning: eps_g rounds to 1.0 on the whole grid
    p = SystemParams(g0=1.0, kappa=0.01, gamma=100.0, delta=3.0, alpha=1.0)
    got, want = phase_gate_error(p), phase_gate_scan(p)
    assert got.epsilon_g == 1.0 and got.delta_s_opt == -0.025
    assert vars(got) == vars(want)


def test_phase_gate_scan_fails_as_the_oracle_does():
    base = dict(g0=1.0, kappa=0.01, gamma=8e-5)
    for kw in (dict(alpha=0.0, delta=3.0), dict(Omega_s=0.0, delta=3.0)):
        for scan in (phase_gate_error, phase_gate_scan):
            with pytest.raises(ValueError, match="no gate"):
                scan(SystemParams(**base, **kw))
    for scan in (phase_gate_error, phase_gate_scan):
        with pytest.raises(ZeroDivisionError):
            scan(SystemParams(**base, alpha=1.0, delta=0.0))


@pytest.mark.filterwarnings("ignore:adiabatic elimination marginal")
def test_exact_gate_error_on_the_blocks_matches_the_dense_oracle():
    # the seven kappa of configs/phonon_gate_error.cfg, at Gamma_m = 1e-4
    for kap in np.geomspace(1e-3, 3e-2, 7):
        p = SystemParams(g0=1.0, kappa=float(kap), gamma=4e-4, delta=3.0, alpha=1.0)
        b = phase_gate_error(p)
        at = p.replace(Delta_s=b.delta_s_opt)
        got, want = analytics._exact_gate_error(at, b.t_g), dense_gate_error(at, b.t_g)
        assert 0 < want < 1
        assert abs(got - want) <= 1e-12 * want


def test_min_g2_location_tracks_interference_zero():
    # the global minimum lives at the two-photon destructive-interference
    # zero of (8 d^2 - g0^2), between g0/(2 sqrt(2)) and the single-photon
    # resonance g0/2 at finite kappa
    p = SystemParams(g0=8.0, kappa=1.0, Omega_a=0.01)
    res = min_g2_scan(p, [8.0, 16.0], [0.0])
    for g0, loc in zip((8.0, 16.0), res.columns["argmin_delta_a"]):
        assert g0 / (2 * np.sqrt(2)) <= loc < g0 / 2


def test_occupation_resolved_rates_improve_benchmark():
    # at higher ladder levels the occupation-shifted cavity response is
    # required: the flat rates drift away from the exact eigenvalues
    from omx import build_nonhermitian, hybridize, nonhermitian_eigs

    p = SystemParams(alpha=1.0, **SM)
    frame = hybridize(p)
    eigs = {e.n: e for e in nonhermitian_eigs(build_nonhermitian(p, (5, 3, 9)), 4)}
    flat = phonon_nonlinearity(p)
    corr = phonon_nonlinearity(p, corrected=True, n_max=3)
    for n in (2, 3):
        re_dev = eigs[n].value.real - n * frame.tilde_omega_m
        err_corr = abs(re_dev / (n**2 * corr.Lambda_n[n]) - 1)
        err_flat = abs(re_dev / (n**2 * flat.Lambda) - 1)
        assert err_corr < err_flat
        assert err_corr <= 0.15
