"""Reference implementations that the tests compare the library against.

Each is the direct, slow form of something omx computes another way: the
kron embedding of a single-mode operator (hilbert.annihilator and
hilbert.ladder_product read the occupation table instead), dense Fock and
thermal states with their expectation values and diagonal partial trace
(dynamics reads observables off the populations), the time integration
of the master equation (dynamics.steady_state solves the null space), and
the phase gate's scan with one SystemParams and one phonon_nonlinearity per
detuning and its exact error from one dense expm of L
(analytics.phase_gate_error scans on Python floats and takes the expm on
L's blocks).
"""

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from omx import models
from omx.analytics import GateBudget, _qubit_superposition, phonon_nonlinearity
from omx.dynamics import LindbladModel, SolverError, liouvillian
from omx.hilbert import DensityMatrix, ModeSpace, Operator, _canonical, thermal_weights
from omx.params import SystemParams


def destroy_matrix(dim: int) -> sp.csr_matrix:
    """Single-mode lowering operator, <n-1|a|n> = sqrt(n)."""
    return _canonical(sp.diags(np.sqrt(np.arange(1, dim)), 1, shape=(dim, dim), format="csr"))


def tensor_embed(op, space: ModeSpace, label: str) -> Operator:
    """Embed a single-mode operator into the full tensor space at `label`."""
    k = space.index(label)
    m = op.matrix if isinstance(op, Operator) else sp.csr_matrix(op)
    if m.shape != (space.dims[k], space.dims[k]):
        raise ValueError(f"operator dim {m.shape} does not match mode {label!r} "
                         f"dim {space.dims[k]}")
    out = None
    for i, d in enumerate(space.dims):
        f = m if i == k else sp.identity(d, dtype=complex, format="csr")
        out = f if out is None else sp.kron(out, f, format="csr")
    return Operator(space, out)


def thermal_state(space: ModeSpace, n_th) -> DensityMatrix:
    """Product thermal state; n_th is a scalar or a {label: n_th} mapping."""
    if not isinstance(n_th, dict):
        n_th = {lbl: n_th for lbl in space.labels}
    rho = None
    for lbl, dim in space.modes:
        w = thermal_weights(float(n_th.get(lbl, 0.0)), dim)
        block = np.diag(w.astype(complex))
        rho = block if rho is None else np.kron(rho, block)
    return DensityMatrix(space, rho)


def fock_density(space: ModeSpace, occupations) -> DensityMatrix:
    """The product Fock state |n0, n1, ...><n0, n1, ...|."""
    rho = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    i = space.basis_index(occupations)  # validates the range
    rho[i, i] = 1.0
    return DensityMatrix(space, rho)


def expect(rho: DensityMatrix, op) -> complex:
    """Tr(op rho) of an Operator or a matrix."""
    m = op.matrix if isinstance(op, Operator) else op
    return complex(np.sum(m.multiply(rho.matrix.T)) if sp.issparse(m)
                   else np.trace(m @ rho.matrix))


def ptrace_population(rho: DensityMatrix, label: str, n: int) -> float:
    """Population of Fock level n of one mode (diagonal partial trace)."""
    space = rho.space
    k = space.index(label)
    diag = np.real(np.diag(rho.matrix)).reshape(space.dims)
    return float(diag.sum(axis=tuple(i for i in range(len(space.dims)) if i != k))[n])


def evolve(model: LindbladModel, rho0: DensityMatrix, t_grid) -> list[DensityMatrix]:
    """Trajectory of the master equation at the requested times.

    Uses an adaptive DOP853 integration of the vectorized generator with
    rtol = 1e-9 and atol = 1e-12; the trace drift is monitored at every
    output time and must stay below 1e-8.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a 1-d array of times")
    if rho0.space != model.space:
        raise ValueError("initial state lives on a different space")
    L = liouvillian(model).tocsc()
    n = model.space.total_dim
    y0 = rho0.matrix.reshape(-1)
    if t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    sol = solve_ivp(lambda t, y: L @ y, (0.0, float(t_grid[-1])), y0,
                    t_eval=t_grid, method="DOP853", rtol=1e-9, atol=1e-12)
    if not sol.success:
        raise SolverError(f"time evolution failed: {sol.message}")
    out = []
    for k in range(t_grid.size):
        rho = sol.y[:, k].reshape(n, n)
        drift = abs(np.trace(rho) - 1.0)
        if drift > 1e-8:
            raise SolverError(f"trace drift {drift:.2e} at t={t_grid[k]} (step control failed)")
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
        out.append(DensityMatrix(model.space, rho))
    return out


def phase_gate_scan(params: SystemParams) -> GateBudget:
    """phase_gate_error's estimate (exact=False): the budget at the Delta_s of
    least 1 - exp(-Gamma_decoh t_g) over its 60 detunings, first of ties."""
    if params.g0 <= 0:
        raise ValueError("phase_gate_error needs g0 > 0")
    params.require("gamma")
    best = None
    for ds in -np.linspace(0.025, 1.5, 60) * params.g0:
        b = phonon_nonlinearity(params.replace(Delta_s=float(ds)))
        if b.Lambda == 0:
            continue
        gdecoh = 2 * b.Gamma_m + b.Gamma_phi + 0.5 * b.gamma_prime
        eps = 1.0 - math.exp(-gdecoh * b.t_g)
        if best is None or eps < best.epsilon_g:
            best = b
            best.epsilon_g = eps
            best.delta_s_opt = float(ds)
            best.extras["Gamma_decoh"] = gdecoh
    if best is None:
        raise ValueError("no gate: Lambda vanishes on the whole grid")
    best.clamped = best.epsilon_g > 1.0
    best.epsilon_g = min(max(best.epsilon_g, 0.0), 1.0)
    return best


def dense_gate_error(params: SystemParams, t_g: float) -> float:
    """The exact gate error at params.Delta_s from one expm of the dense L."""
    model = models.build_effective_phonon(params, truncations=(4, 4),
                                          two_resonators=True)
    n = model.space.total_dim
    psi0 = np.kron(_qubit_superposition(4), _qubit_superposition(4))
    rho0 = np.outer(psi0, psi0.conj())
    gen = liouvillian(model).toarray()
    rho = (sla.expm(gen * t_g) @ rho0.reshape(-1)).reshape(n, n)
    target = sla.expm(-1j * model.hamiltonian.to_dense() * t_g) @ psi0
    return 1.0 - float(np.real(target.conj() @ rho @ target))
