import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from omx import (
    DensityMatrix,
    FockState,
    LindbladModel,
    ModeSpace,
    SolverError,
    SystemParams,
    annihilator,
    build_displaced,
    build_rwa,
    build_transistor,
    evolve,
    fock_density,
    g2_zero,
    liouvillian,
    nonhermitian_eigs,
    null_space_gap,
    number_op,
    population_sector,
    reflection_spectrum,
    steady_state,
    thermal_state,
)
from omx.hilbert import Operator, identity


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    return 0.5 * float(np.abs(sla.eigvalsh(a.matrix - b.matrix)).sum())


def decay_model(kappa=1.0, dim=4):
    space = ModeSpace([("c", dim)])
    h = Operator(space, 0.0 * identity(space).matrix, hermitian_hint=True)
    return LindbladModel(h, [(annihilator(space, "c"), kappa)], space)


def test_pure_decay_rate_convention():
    # D[c] at rate kappa decays the energy at 2*kappa
    kappa = 0.7
    model = decay_model(kappa, dim=3)
    rho0 = fock_density(FockState(model.space, (2,)))
    ts = np.linspace(0.0, 2.0, 9)
    traj = evolve(model, rho0, ts)
    n_op = number_op(model.space, "c")
    for t, rho in zip(ts, traj):
        assert np.real(rho.expect(n_op)) == pytest.approx(2 * np.exp(-2 * kappa * t), abs=1e-7)


def test_number_conserving_hamiltonian_keeps_populations():
    space = ModeSpace([("c", 4)])
    h = Operator(space, 1.3 * number_op(space, "c").matrix, hermitian_hint=True)
    model = LindbladModel(h, [], space)
    rho0 = fock_density(FockState(space, (2,)))
    traj = evolve(model, rho0, np.linspace(0, 5, 6))
    for rho in traj:
        assert np.real(np.diag(rho.matrix)) == pytest.approx([0, 0, 1, 0], abs=1e-9)


def test_liouvillian_trace_preservation_functional():
    p = SystemParams(g0=2.0, omega_m=40.0, J=20.0, Delta_a=1.0, Omega_a=0.01, gamma=0.05)
    L = liouvillian(build_rwa(p, (3, 3, 4)))
    n = 3 * 3 * 4
    tvec = np.zeros(n * n)
    tvec[:: n + 1] = 1.0
    assert np.abs(tvec @ L).max() < 1e-10 * np.abs(L.data).max()


def test_driven_cavity_linear_response_oracle():
    # g0 = 0: steady <n> of the driven mode equals the solution of the
    # classical 2x2 (Re/Im) linear system for the amplitude
    kappa, delta_a, omega = 1.0, 0.6, 0.01
    p = SystemParams(g0=0.0, kappa=kappa, omega_m=40.0, J=20.0, Delta_a=delta_a,
                     Omega_a=omega, gamma=0.05)
    model = build_rwa(p, (5, 2, 2))
    rep = steady_state(model)
    n_num = np.real(rep.state.expect(number_op(model.space, "a")))
    # (i delta - kappa) c = i omega  (drive H = Omega (c + c^dag))
    mat = np.array([[-kappa, -delta_a], [delta_a, -kappa]])
    re, im = np.linalg.solve(mat, [0.0, -omega])
    assert n_num == pytest.approx(re**2 + im**2, rel=1e-6)
    assert rep.residual < 1e-9


def test_steady_state_thermal_fixed_point():
    from omx import thermal_dim
    space = ModeSpace([("m", thermal_dim(0.8))])
    h = Operator(space, 2.0 * number_op(space, "m").matrix, hermitian_hint=True)
    n_th = 0.8
    b = annihilator(space, "m")
    model = LindbladModel(h, [(b, 0.05 * (n_th + 1)), (b.dag(), 0.05 * n_th)], space)
    rep = steady_state(model)
    assert trace_distance(rep.state, thermal_state(space, n_th)) < 1e-8


def test_steady_state_degenerate_sector_raises():
    # no dissipation at all: every diagonal state is stationary
    space = ModeSpace([("c", 3)])
    h = Operator(space, number_op(space, "c").matrix, hermitian_hint=True)
    model = LindbladModel(h, [], space)
    with pytest.raises(SolverError, match="degenerate"):
        steady_state(model)


def test_steady_state_split_populations_raise_typed():
    # same dissipationless model: each population |i><i| is its own sector,
    # so the sector solve must refuse even without the eigenvalue check
    space = ModeSpace([("c", 3)])
    h = Operator(space, number_op(space, "c").matrix, hermitian_hint=True)
    model = LindbladModel(h, [], space)
    with pytest.raises(SolverError, match="degenerate"):
        steady_state(model, check_unique=False)


def _hermitian_jump():
    # H = 0 and one jump c + c^dag on a qubit: sigma_x is stationary too
    space = ModeSpace([("c", 2)])
    c = annihilator(space, "c")
    return LindbladModel(Operator(space, 0.0 * identity(space).matrix), [(c + c.dag(), 0.5)])


def _cyclic_jump():
    # H = 0 and one jump |k+1><k| (mod 3): c and c^2 are stationary too
    space = ModeSpace([("c", 3)])
    shift = Operator(space, sp.csr_matrix(np.roll(np.eye(3), 1, axis=0)))
    return LindbladModel(Operator(space, 0.0 * identity(space).matrix), [(shift, 0.5)])


@pytest.mark.parametrize("make, population_gap", [(_hermitian_jump, 2.0),
                                                  (_cyclic_jump, np.sqrt(3.0))],
                         ids=["hermitian-jump", "cyclic-jump"])
def test_steady_state_degenerate_coherence_block_raises(make, population_gap):
    # the population block alone has a gap; the second steady state lies
    # in a block of coherences, which the check must cover as well
    model = make()
    L = liouvillian(model)
    sector = population_sector(L, model.space.total_dim)
    assert null_space_gap(L[sector][:, sector])[1] == pytest.approx(population_gap)
    assert null_space_gap(L)[1] < 1e-12
    with pytest.raises(SolverError, match="degenerate"):
        steady_state(model)


def _full_space_steady_state(model) -> np.ndarray:
    # oracle: trace row over the whole Liouvillian, one sparse solve
    import scipy.sparse.linalg as spla
    L = liouvillian(model)
    n = model.space.total_dim
    M = L.tolil(copy=True)
    M[0, :] = np.eye(n).reshape(-1)
    rhs = np.zeros(n * n, dtype=complex)
    rhs[0] = 1.0
    rho = spla.spsolve(M.tocsc(), rhs).reshape(n, n)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _rwa(n_th, dims=(3, 3, 4)):
    p = SystemParams(g0=2.0, kappa=1.0, omega_m=8.0, J=4.0, Delta_a=1.0,
                     Omega_a=0.01, gamma=0.2, N_th=n_th)
    return build_rwa(p, dims)


def _driven_transistor(n_m=1, delta=0.7, omega=0.01):
    model = _transistor(n_m)
    s = annihilator(model.space, "s")
    h = (model.hamiltonian.matrix - delta * (s.dag() @ s).matrix
         + 1j * omega * (s.matrix - s.matrix.conj().T))
    return model.with_hamiltonian(Operator(model.space, h))


@pytest.mark.parametrize("make", [lambda: _rwa(0.0), lambda: _rwa(0.3), _driven_transistor],
                         ids=["rwa-Nth0", "rwa-Nth0.3", "transistor-driven"])
def test_sector_solve_matches_full_space_oracle(make):
    model = make()
    rep = steady_state(model)
    assert np.abs(rep.state.matrix - _full_space_steady_state(model)).max() <= 1e-12


def _displaced(dims):
    p = SystemParams(g0=1.0, kappa=2.5e-2, gamma=2.5e-4, N_th=1.0,
                     Delta_s=-1.0, omega_m=0.5, Delta_a=-5.5, alpha=1.0)
    return build_displaced(p, dims)


@pytest.mark.parametrize("make", [lambda: _rwa(0.0), lambda: _rwa(0.3),
                                  lambda: _displaced((3, 2, 7)), lambda: _displaced((4, 3, 5)),
                                  _driven_transistor],
                         ids=["rwa-Nth0", "rwa-Nth0.3", "displaced-327", "displaced-435",
                              "transistor-driven"])
def test_null_gap_matches_full_space_oracle(make):
    # oracle: shift-invert ARPACK on the full L. Its random start vector
    # scatters |lambda_1| by up to 2.2e-8 relative (rwa-Nth0.3, 200 draws),
    # hence rel 1e-6. The population block sets the gap of all five models:
    # on the displaced ones only after the loose comparison bound on the
    # coherence blocks (1.3e-9 at (4, 3, 5)) is replaced by the exact one.
    model = make()
    oracle = null_space_gap(liouvillian(model))[1]
    gap = steady_state(model).null_gap
    assert gap <= oracle * (1 + 1e-6)
    assert gap == pytest.approx(oracle, rel=1e-6)


def test_sector_solve_dimension():
    n = 4 * 4 * 6
    rep = steady_state(_rwa(0.0, (4, 4, 6)), check_unique=False)
    assert rep.solved_dim == 1216 < n * n
    small = steady_state(_rwa(0.3), check_unique=False)
    assert small.solved_dim < 36 * 36
    assert steady_state(_driven_transistor()).solved_dim == 16 * 16


def test_steady_state_failed_solve_raises_after_one_spsolve(monkeypatch):
    # one solve path: a bad LU result is reported, never retried
    import omx.dynamics
    real = omx.dynamics.spla.spsolve
    calls = []

    def nan_solve(A, b):
        calls.append(A.shape)
        return np.full_like(real(A, b), np.nan)

    monkeypatch.setattr(omx.dynamics.spla, "spsolve", nan_solve)
    with pytest.raises(SolverError, match="steady-state residual nan exceeds"):
        steady_state(_rwa(0.3), check_unique=False)
    assert len(calls) == 1


def test_steady_state_long_time_agrees():
    p = SystemParams(g0=2.0, kappa=1.0, omega_m=8.0, J=4.0, Delta_a=1.0,
                     Omega_a=0.01, gamma=0.2, N_th=0.3)
    model = build_rwa(p, (3, 3, 4))
    direct = steady_state(model)
    n = model.space.total_dim
    rho0 = DensityMatrix(model.space, np.eye(n, dtype=complex) / n)
    horizon = 20.0 / min(rate for _, rate in model.collapses if rate > 0)
    longtime = evolve(model, rho0, np.linspace(0.0, horizon, 5))[-1]
    assert trace_distance(direct.state, longtime) < 1e-6


def test_evolve_rabi_oracle():
    # resonant exchange |1_a,0_s,0_m> <-> |0_a,1_s,1_m> at the coupling
    # matrix element g0/2: P(t) = cos^2(g0 t / 2), kappa = gamma = 0
    g0 = 1.0
    p = SystemParams(g0=g0, kappa=1.0, omega_m=6.0, J=3.0, Delta_a=0.0, gamma=0.0)
    model = build_rwa(p, (2, 2, 2))
    model = LindbladModel(model.hamiltonian, [], model.space)  # drop kappa decay
    rho0 = fock_density(FockState(model.space, (1, 0, 0)))
    ts = np.linspace(0, 2 * np.pi / g0, 25)
    traj = evolve(model, rho0, ts)
    n_a = number_op(model.space, "a")
    for t, rho in zip(ts, traj):
        assert np.real(rho.expect(n_a)) == pytest.approx(np.cos(0.5 * g0 * t) ** 2, abs=1e-8)


def test_evolve_trace_drift_bound():
    from omx import thermal_dim
    model = decay_model(0.5, dim=thermal_dim(0.25))
    rho0 = thermal_state(model.space, 0.25)
    traj = evolve(model, rho0, np.linspace(0, 10, 21))
    # states are validated on construction; drift is checked inside evolve
    assert len(traj) == 21


def test_evolve_converges_to_steady_state():
    p = SystemParams(g0=2.0, kappa=1.0, omega_m=8.0, J=4.0, Delta_a=1.0,
                     Omega_a=0.01, gamma=0.2, N_th=0.3)
    model = build_rwa(p, (3, 3, 4))
    rep = steady_state(model)
    rho0 = fock_density(FockState(model.space, (0, 0, 0)))
    traj = evolve(model, rho0, np.linspace(0, 120.0, 7))
    assert trace_distance(traj[-1], rep.state) < 1e-6


def test_liouvillian_spectrum_single_null_eigenvalue():
    p = SystemParams(g0=1.5, kappa=1.0, omega_m=8.0, J=4.0, Delta_a=0.5,
                     Omega_a=0.02, gamma=0.3, N_th=0.2)
    model = build_rwa(p, (2, 2, 3))
    w = sla.eigvals(liouvillian(model).toarray())
    on_axis = np.abs(w) <= 1e-9
    assert on_axis.sum() == 1
    assert np.all(w[~on_axis].real < 0)


def test_g2_coherent_state_is_one():
    p = SystemParams(g0=0.0, kappa=1.0, omega_m=40.0, J=20.0, Delta_a=0.2,
                     Omega_a=0.01, gamma=0.05)
    model = build_rwa(p, (5, 2, 2))
    rep = steady_state(model)
    assert g2_zero(rep.state, "a") == pytest.approx(1.0, abs=1e-6)


def test_g2_fock_one_is_zero():
    space = ModeSpace([("a", 3)])
    rho = fock_density(FockState(space, (1,)))
    assert g2_zero(rho, "a") == pytest.approx(0.0, abs=1e-12)


def test_g2_vanishing_denominator_raises():
    space = ModeSpace([("a", 3)])
    rho = fock_density(FockState(space, (0,)))
    with pytest.raises(ValueError, match="too small"):
        g2_zero(rho, "a")


# ------------------------------------------------------------- reflection ---

def _transistor(n_m, g0=10.0):
    p = SystemParams(g0=g0, kappa=1.0, omega_m=100.0, J=50.0)
    return build_transistor(p, n_m)


def test_reflection_empty_ladder_phase_pi():
    refl = reflection_spectrum(_transistor(0), "s", [0.0, 3.0], 0.01)
    r0 = refl[0][1]
    assert abs(r0 + 1.0) < 1e-6          # r(0) = -1: full pi phase flip
    assert abs(abs(refl[1][1]) - 1.0) < 1e-6


def test_reflection_single_phonon_splitting():
    g0 = 10.0
    grid = np.arange(-8.0, 8.0 + 1e-9, 0.05)
    refl = reflection_spectrum(_transistor(1, g0), "s", grid, 0.01)
    absr = np.array([abs(r) for _, r in refl])
    mins = [grid[i] for i in range(1, len(grid) - 1)
            if absr[i] < absr[i - 1] and absr[i] < absr[i + 1]]
    assert len(mins) == 2
    # dips at +-sqrt(g_eff^2 - kappa^2), g_eff = g0/2
    expected = np.sqrt((g0 / 2) ** 2 - 1.0)
    assert mins[0] == pytest.approx(-expected, abs=0.05)
    assert mins[1] == pytest.approx(+expected, abs=0.05)
    mid = np.argmin(np.abs(grid))
    assert absr[mid] > 0.9
    assert abs(np.angle(refl[mid][1])) < 0.05


def test_reflection_no_coupling_dip_independent_of_nm():
    for n_m in (0, 1, 2):
        refl = reflection_spectrum(_transistor(n_m, g0=0.0), "s", [0.0], 0.01)
        assert abs(refl[0][1] + 1.0) < 1e-6


def test_reflection_rejects_strong_drive():
    with pytest.raises(ValueError, match="weak-drive"):
        reflection_spectrum(_transistor(0), "s", [0.0], 0.2)


@pytest.mark.parametrize("n_m", [0, 1, 2])
def test_reflection_matches_lindblad_steady_state(n_m):
    # oracle: r from <c> of the driven master equation, one steady state per
    # Delta, on a model with a phonon-shifted partner (delta = 0.6)
    p = SystemParams(g0=4.0, kappa=1.0, omega_m=100.0, J=50.3)
    model = build_transistor(p, n_m)
    space, omega, kappa = model.space, 0.01, 1.0
    s = annihilator(space, "s")
    n_tot = (number_op(space, "s") + number_op(space, "ap")).matrix
    drive = 1j * omega * (s.matrix - s.matrix.conj().T)
    grid = [-2.5, -0.3, 0.0, 0.6, 1.7]
    for delta, r in reflection_spectrum(model, "s", grid, omega):
        h = Operator(space, model.hamiltonian.matrix - delta * n_tot + drive)
        # both modes are damped, so the steady state is unique; skip the check
        state = steady_state(model.with_hamiltonian(h), check_unique=False).state
        r_oracle = 1.0 + 2.0 * kappa * state.expect(s) / omega
        assert abs(r - r_oracle) < 1e-10


@pytest.mark.parametrize("n_m", [0, 1, 2])
def test_reflection_closed_form_at_zero_detuning(n_m):
    # delta = 2J - omega_m = 0: r = 1 - 2 kappa u / (u^2 + g_eff^2), u = kappa - i Delta
    g0, kappa = 10.0, 1.0
    grid = np.linspace(-8.0, 8.0, 33)
    g_eff = 0.5 * g0 * np.sqrt(n_m)
    u = kappa - 1j * grid
    expected = 1.0 - 2.0 * kappa * u / (u**2 + g_eff**2)
    r = np.array([r for _, r in reflection_spectrum(_transistor(n_m, g0), "s", grid, 0.01)])
    assert np.abs(r - expected).max() < 1e-13


def test_reflection_is_passive():
    # |r| <= 1, equivalent to kappa |G_ss|^2 <= Im G_ss: the bound that keeps
    # |<c>|^2 <= (Omega/kappa)^2 without a check after the solve
    grid = np.linspace(-12.0, 12.0, 4801)
    models = [build_transistor(SystemParams(g0=10.0, kappa=1.0, omega_m=100.0, J=J), n_m)
              for n_m in (0, 1, 2) for J in (50.0, 50.3)]   # delta = 0, 0.6
    # the two modes decaying at unequal rates
    base = models[-1]
    s, ap = annihilator(base.space, "s"), annihilator(base.space, "ap")
    models += [LindbladModel(base.hamiltonian, [(s, 1.0), (ap, rate)], base.space)
               for rate in (0.1, 5.0)]
    for model in models:
        r = np.array([r for _, r in reflection_spectrum(model, "s", grid, 0.05)])
        assert np.abs(r).max() <= 1.0 + 1e-12


def test_reflection_rejects_drive_in_hamiltonian():
    with pytest.raises(ValueError, match="excitation number"):
        reflection_spectrum(_driven_transistor(), "s", [0.0], 0.01)


def test_reflection_rejects_raising_collapse():
    model = _transistor(1)
    heating = (annihilator(model.space, "ap").dag(), 0.1)
    model = LindbladModel(model.hamiltonian, model.collapses + [heating], model.space)
    with pytest.raises(ValueError, match="collapse operator"):
        reflection_spectrum(model, "s", [0.0], 0.01)


def test_model_rejects_non_hermitian_hamiltonian():
    # +1.5i s^dag s once gave max |r| = 3.11 over the reflection grid, silently
    model = _transistor(1)
    n_s = (annihilator(model.space, "s").dag() @ annihilator(model.space, "s")).matrix
    h = model.hamiltonian.matrix
    with pytest.raises(ValueError, match="not Hermitian"):
        model.with_hamiltonian(Operator(model.space, h + 1.5j * n_s))
    # the tolerance is relative: a deviation of 2e-7 on max|H| = 1.5e7 passes
    model.with_hamiltonian(Operator(model.space, 1e6 * h + 1e-7j * n_s))


# ------------------------------------------------------- nonhermitian eigs ---

def test_nonhermitian_eigs_free_ladder():
    # kappa = gamma = g0 = 0: lambda_n = n * omega_m exactly
    from omx import build_nonhermitian
    omega_m = 2.0
    p = SystemParams(g0=0.0, kappa=1e-12, omega_m=omega_m, Delta_s=-1.0,
                     Delta_a=-omega_m - 5.0, alpha=0.0, gamma=0.0)
    h = build_nonhermitian(p, (2, 2, 6))
    eigs = nonhermitian_eigs(h, 4)
    for e in eigs:
        assert e.value.real == pytest.approx(e.n * omega_m, abs=1e-9)
        assert abs(e.value.imag) < 1e-9
        assert e.overlap > 0.999
    assert [e.n for e in eigs] == [0, 1, 2, 3]  # ascending Re


def test_nonhermitian_eigs_alpha_zero_thermal_rates():
    # alpha = 0 decouples the ladder: Im lambda_n from the diagonal rates
    from omx import build_nonhermitian
    gamma, n_th, omega_m = 4e-3, 1.0, 2.0
    p = SystemParams(g0=1.0, kappa=0.025, omega_m=omega_m, Delta_s=-1.0,
                     Delta_a=-omega_m - 5.0, alpha=0.0, gamma=gamma, N_th=n_th)
    h = build_nonhermitian(p, (3, 2, 7))
    for e in nonhermitian_eigs(h, 4):
        n = e.n
        expected_im = 0.5 * gamma * (n_th + 1) * n + 0.5 * gamma * n_th * (n + 1)
        assert e.value.real == pytest.approx(n * omega_m, abs=1e-10)
        assert -e.value.imag == pytest.approx(expected_im, rel=1e-9)


def test_nonhermitian_eigs_k_bound():
    from omx import build_nonhermitian
    p = SystemParams(g0=1.0, kappa=0.025, omega_m=2.0, Delta_s=-1.0,
                     Delta_a=-7.0, alpha=0.5, gamma=1e-4)
    h = build_nonhermitian(p, (2, 2, 3))
    with pytest.raises(ValueError):
        nonhermitian_eigs(h, 100)
