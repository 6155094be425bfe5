"""Reference implementations that the tests compare the library against.

Each is the direct, slow form of something omx computes another way: the
kron embedding of a single-mode operator (hilbert.annihilator and
hilbert.ladder_product read the occupation table instead), dense Fock and
thermal states with their expectation values and diagonal partial trace
(dynamics reads observables off the populations), the time integration
of the master equation and a full-pivoting LU solve of its trace-row
system on the population sector, the actual component of L's pattern
(dynamics.steady_state refines on a simpler system's factor, on the
structural block from the kron factors' patterns), the structural
component labels and the drive order from the n^2-entry graph, and P's
level orders one level at a time (the plan labels from the factors, finds
the drive order by a bucket search on M's pattern and orders the levels
in one pass), the refinement on scipy's own gmres (dynamics transcribes one of
its cycles), the uniqueness check's disc bounds and coherence gap on the
full L (dynamics bounds and gathers the blocks from the kron factors), and
the phase gate's scan with one SystemParams and one phonon_nonlinearity per
detuning and its exact error from one dense expm of L
(analytics.phase_gate_error scans on Python floats and takes the expm on
L's blocks).
"""

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp
from scipy.sparse.csgraph import dijkstra

from omx import models
from omx.analytics import GateBudget, _qubit_superposition, phonon_nonlinearity
from omx import dynamics
from omx.dynamics import (LindbladModel, SolverError, _backward_error, _block_gap,
                          _component_labels, liouvillian)
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


def population_sector(labels: np.ndarray, n: int) -> np.ndarray:
    """Sorted indices of the population sector of L, the component of
    entry (0,0) in its labels; SolverError if the populations split over
    several."""
    if np.any(labels[:: n + 1] != labels[0]):
        raise SolverError(
            "degenerate Liouvillian null space: the populations split into "
            "disconnected sectors, each with its own steady state")
    return np.flatnonzero(labels == labels[0])


def structural_pattern(model) -> sp.csr_matrix:
    """L's structural pattern, the pattern before exact cancellations: the
    sum of the kron products of the patterns of every term's factors, as
    ones, so that nothing cancels."""
    n = model.space.total_dim

    def pattern(f):
        if f is None:
            return sp.identity(n, format="csr")
        return sp.csr_matrix((np.ones(f[0].size), (f[0], f[1])), shape=(n, n))

    return sum(sp.kron(pattern(a), pattern(b), format="csr")
               for a, b in dynamics._generator_terms(model))


def structural_labels(model) -> np.ndarray:
    """The component labels of L's structural pattern, from scipy's
    connected_components on the n^2-entry graph of every contribution of
    the generator's terms: the oracle of the plan's labels, which come
    from the factors' patterns alone."""
    return _component_labels(structural_pattern(model))


def drive_order(model, idx) -> np.ndarray:
    """The drive order of the sorted entries idx of L's structural block:
    scipy's dijkstra from entry (0,0) on the n^2-entry structural pattern,
    each edge col -> row weighted by the rise of the photon order
    N_i + N_j along it, or 0 where it does not rise (csgraph keeps the
    explicit zeros of a sparse input as edges). An entry no path reaches
    keeps its photon order. N is the handed-over meta["photons"], or 0
    throughout for a model without a drive. The oracle of the plan's
    bucket search on M's pattern."""
    n = model.space.total_dim
    photons = model.hamiltonian.meta.get("photons", np.zeros(n, int))
    c = (photons[:, None] + photons).ravel()
    A = structural_pattern(model).tocoo()
    rise = np.maximum(c[A.row] - c[A.col], 0).astype(float)
    graph = sp.csr_matrix((rise, (A.col, A.row)), shape=A.shape)   # edge col -> row
    d = dijkstra(graph, indices=0)
    return np.where(np.isinf(d), c, d).astype(int)[idx]


def level_orders(model) -> np.ndarray:
    """P's level order with one _min_degree call per level: the plan's
    block sorted by drive order (drive_order), each level's diagonal block
    of M's structural pattern ordered on its own. The oracle of the plan's
    one ordering pass over all level blocks."""
    plan = dynamics._plan(model)[0]
    m = plan.idx.size
    order = drive_order(model, plan.idx)
    M = sp.csc_matrix((np.ones(plan.m_src.size), plan.m_indices, plan.m_indptr), shape=(m, m))
    perm = np.argsort(order, kind="stable")
    A = M[perm][:, perm]
    bounds = np.flatnonzero(np.diff(order[perm], prepend=-1, append=-1))
    for s, e in zip(bounds[:-1], bounds[1:]):
        perm[s:e] = perm[s:e][dynamics._min_degree(A[s:e, s:e].tocsc())]
    return perm


def trace_row_system(model, idx=None) -> tuple[sp.csc_matrix, np.ndarray]:
    """(M, idx) from the full L: L on the sorted entries idx with its first
    row replaced by the trace condition. idx defaults to the population
    sector of L, its actual component; steady_state solves on the plan's
    structural block, which also holds any component that exact
    cancellations cut from the sector."""
    L = liouvillian(model)
    n = model.space.total_dim
    if idx is None:
        idx = population_sector(_component_labels(L), n)
    trace = sp.csr_matrix(np.eye(n).reshape(1, -1)[:, idx])
    return sp.vstack([trace, L[idx][:, idx][1:]]).tocsc(), idx


def sector_state(model, idx, y) -> np.ndarray:
    """The density matrix whose sector entries idx are y, hermitized and
    normalized as steady_state does."""
    n = model.space.total_dim
    x = np.zeros(n * n, dtype=complex)
    x[idx] = y
    rho = x.reshape(n, n)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def lu_oracle(model) -> DensityMatrix:
    """The steady state from the trace-row system solved on a full-pivoting
    LU of M in another column order (MMD on M^T M), plus three refinement
    steps."""
    M, idx = trace_row_system(model)
    lu = spla.splu(M, permc_spec="MMD_ATA")
    rhs = np.zeros(M.shape[0], dtype=complex)
    rhs[0] = 1.0
    y = lu.solve(rhs)
    for _ in range(3):
        y += lu.solve(rhs - M @ y)
    return DensityMatrix(model.space, sector_state(model, idx, y))


def scipy_refine(M, lu0, rhs) -> tuple[np.ndarray, int, float]:
    """dynamics._refine with each correction from scipy's gmres (maxiter=1),
    which applies the preconditioner to b twice and forms the residual
    after the cycle."""
    krylov = []
    precond = spla.LinearOperator(M.shape, matvec=lu0.solve, dtype=complex)
    abs_m = abs(M)
    x = lu0.solve(rhs)
    for step in range(dynamics.REFINE_STEP_CAP + 1):
        r = rhs - M @ x
        omega = _backward_error(abs_m, x, r, rhs)
        if omega <= dynamics.BACKWARD_ERROR_STOP or step == dynamics.REFINE_STEP_CAP:
            break
        x += spla.gmres(M, r, rtol=dynamics.KRYLOV_RTOL, restart=dynamics.KRYLOV_RESTART,
                        maxiter=1, M=precond, callback=krylov.append,
                        callback_type="pr_norm")[0]
    return x, len(krylov), omega


def disc_bounds(L: sp.csr_matrix, labels: np.ndarray) -> np.ndarray:
    """Gershgorin lower bound on min |lambda| of each labelled block of the
    full L, from |L|: the larger of min_i (|L_ii| - sum_{j != i} |L_ij|)
    over its rows and over its columns."""
    a = abs(L)
    twice = 2.0 * a.diagonal()
    rows = np.full(labels.max() + 1, np.inf)
    cols = rows.copy()
    np.minimum.at(rows, labels, twice - np.asarray(a.sum(axis=1)).ravel())
    np.minimum.at(cols, labels, twice - np.asarray(a.sum(axis=0)).ravel())
    return np.maximum(rows, cols)


def coherence_gap(L: sp.csr_matrix, labels: np.ndarray, n: int, floor: float) -> float:
    """The uniqueness check's min |lambda| over the blocks of the full L
    outside the population block, on L's component labels: one block of
    each rho -> rho^dag pair, disc-bounded (disc_bounds) and sliced from L
    and measured where the bound falls below floor."""
    first = np.unique(labels, return_index=True)[1]
    row, col = np.divmod(first, n)
    partner = labels[col * n + row]
    discs = disc_bounds(L, labels)
    bound = np.inf
    for c in np.flatnonzero(np.arange(first.size) <= partner):
        if c == labels[0]:
            continue
        block = discs[c]
        if block < floor:
            idx = np.flatnonzero(labels == c)
            block = _block_gap(L[idx][:, idx], None)
        bound = min(bound, block)
    return bound


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
