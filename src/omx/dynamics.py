"""Lindblad engine: Liouvillian assembly, steady states, time evolution,
weak-drive reflection spectra, and non-Hermitian eigenvalues.

Master-equation convention (the one used throughout):

    rho' = -i[H, rho] + sum_k rate_k * D[c_k] rho,
    D[c] rho = 2 c rho c^dag - {c^dag c, rho}.

With this prefactor a cavity collapse (c, kappa) decays the field amplitude
at rate kappa and the energy at 2*kappa. Mechanical thermal contact enters
as (gamma/2)(N_th+1) D[b] + (gamma/2) N_th D[b^dag].

Superoperators act on row-major vectorized density matrices:
vec(A rho B) = (A kron B^T) vec(rho).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp
from scipy.sparse.csgraph import connected_components

from .hilbert import DensityMatrix, ModeSpace, Operator, annihilator

TRACE_PRESERVATION_ATOL = 1e-10
STEADY_RESIDUAL_ATOL = 1e-9
NULL_GAP_ATOL = 1e-8
DENSE_EIG_LIMIT = 2500


class SolverError(RuntimeError):
    """Raised when a steady-state or propagation solve fails."""


@dataclass
class LindbladModel:
    """Hamiltonian plus weighted collapse operators on one ModeSpace."""

    hamiltonian: Operator
    collapses: list[tuple[Operator, float]]
    space: ModeSpace = None
    meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.space is None:
            self.space = self.hamiltonian.space
        if self.hamiltonian.space != self.space:
            raise ValueError("hamiltonian acts on a different space")
        for op, rate in self.collapses:
            if op.space != self.space:
                raise ValueError("collapse operator acts on a different space")
            if rate < 0:
                raise ValueError(f"negative collapse rate {rate}")

    def with_hamiltonian(self, h: Operator) -> "LindbladModel":
        return LindbladModel(h, self.collapses, self.space, dict(self.meta))


def liouvillian(model: LindbladModel, check: bool = True) -> sp.csr_matrix:
    """Sparse matrix of the generator acting on vec(rho) (row-major).

    With check=True the trace functional is verified to annihilate the
    generator: |vec(I)^T L| <= 1e-10 columnwise.
    """
    h = model.hamiltonian.matrix
    n = h.shape[0]
    eye = sp.identity(n, dtype=complex, format="csr")
    L = -1j * (sp.kron(h, eye, format="csr") - sp.kron(eye, h.T, format="csr"))
    for op, rate in model.collapses:
        if rate == 0.0:
            continue
        c = op.matrix
        cdc = (c.conj().T @ c).tocsr()
        L = L + rate * (2.0 * sp.kron(c, c.conj(), format="csr")
                        - sp.kron(cdc, eye, format="csr")
                        - sp.kron(eye, cdc.T, format="csr"))
    L = L.tocsr()
    L.sort_indices()
    if check:
        worst = np.abs(_trace_vec(n) @ L).max()
        scale = max(1.0, np.abs(L.data).max() if L.nnz else 1.0)
        if worst > TRACE_PRESERVATION_ATOL * scale:
            raise SolverError(f"Liouvillian is not trace preserving: {worst:.2e}")
    return L


def _trace_vec(n: int) -> np.ndarray:
    t = np.zeros(n * n)
    t[:: n + 1] = 1.0
    return t


def null_space_gap(L: sp.csr_matrix) -> tuple[float, float]:
    """(|lambda_0|, |lambda_1|): the two smallest-magnitude eigenvalues of L.

    A unique steady state requires |lambda_1| > 1e-8 (in the model's rate
    units); |lambda_0| should be numerically zero.
    """
    m = L.shape[0]
    if m <= 400:
        w = np.sort(np.abs(sla.eigvals(L.toarray())))
        return float(w[0]), float(w[1])
    try:
        w = spla.eigs(L.tocsc(), k=2, sigma=1e-9, which="LM", return_eigenvectors=False,
                      maxiter=5000)
    except (spla.ArpackNoConvergence, RuntimeError) as exc:
        raise SolverError(f"null-space gap estimation failed: {exc}") from exc
    w = np.sort(np.abs(w))
    return float(w[0]), float(w[1])


@dataclass
class SteadyStateReport:
    state: DensityMatrix
    residual: float
    method: str  # "null-space", "normal-equations" or "long-time"
    null_gap: float | None = None
    solved_dim: int | None = None  # size of the linear system actually solved


def _population_sector(L: sp.csr_matrix, n: int) -> np.ndarray:
    """Sorted indices of the block of L that holds the populations.

    The block is the connected component of entry (0,0) in the graph of
    L's sparsity pattern. Raises SolverError if the diagonal entries
    vec(|i><i|) fall in more than one component.
    """
    # csgraph casts complex weights to real, which would drop the purely
    # imaginary -i[H, rho] entries: hand it a real pattern instead
    pattern = sp.csr_matrix((np.ones(L.nnz), L.indices, L.indptr), shape=L.shape)
    _, labels = connected_components(pattern, directed=True, connection="weak")
    if np.any(labels[:: n + 1] != labels[0]):
        raise SolverError(
            "degenerate Liouvillian null space: the populations split into "
            "disconnected sectors, each with its own steady state")
    return np.flatnonzero(labels == labels[0])


def steady_state(model: LindbladModel, method: str = "null-space",
                 check_unique: bool = True, t_horizon: float | None = None) -> SteadyStateReport:
    """Stationary state of the master equation.

    The default solves the Liouvillian null space directly, on the
    population sector of L only. When H and every collapse operator shift
    some charge Q by a fixed amount (a weak U(1) symmetry, e.g.
    Q = n_s - n_m for the rotating-wave model), L maps each coherence
    order |i><j| with Q_i - Q_j = q onto itself, so L is block-diagonal and
    the steady state lives in the block that holds the populations
    (Buca & Prosen, New J. Phys. 14, 073007 (2012)). That block is found
    from the sparsity pattern alone, as the connected component of the
    (0,0) entry; for a model without such a symmetry it is the whole space.
    Within it the row of the (0,0) matrix element is replaced by the trace
    condition and the square system is solved sparsely, with the normal
    equations of the trace-augmented system as fallback
    (method "normal-equations" in the report). The residual is checked on
    the full L. method "long-time" instead propagates a maximally mixed
    state until stationary.

    check_unique verifies the second-smallest |eigenvalue| of L exceeds
    1e-8; a degenerate null space (dark state or disconnected sector)
    raises SolverError. Populations split over several sectors raise
    SolverError even with check_unique=False, since each such sector
    carries its own steady state.
    """
    L = liouvillian(model)
    n = model.space.total_dim
    if check_unique:
        lam0, lam1 = null_space_gap(L)
        if lam1 <= NULL_GAP_ATOL:
            raise SolverError(
                f"degenerate Liouvillian null space (|lambda_1| = {lam1:.2e}); "
                "the model has a dark state or disconnected sector")
    else:
        lam1 = None

    if method == "long-time":
        rho0 = DensityMatrix(model.space, np.eye(n, dtype=complex) / n)
        horizon = t_horizon if t_horizon is not None else _default_horizon(model)
        states = evolve(model, rho0, np.linspace(0.0, horizon, 5))
        x = states[-1].matrix.reshape(-1)
        resid = float(np.linalg.norm(L @ x))
        return SteadyStateReport(states[-1], resid, "long-time", lam1, n * n)
    if method != "null-space":
        raise ValueError(f"unknown steady-state method {method!r}")

    idx = _population_sector(L, n)
    m = idx.size
    Lc = L if m == n * n else L[idx][:, idx]
    tvec = _trace_vec(n)[idx]
    rhs = np.zeros(m, dtype=complex)
    rhs[0] = 1.0
    M = Lc.tolil(copy=True)
    M[0, :] = tvec
    x = np.zeros(n * n, dtype=complex)
    try:
        x[idx] = spla.spsolve(M.tocsc(), rhs)
    except RuntimeError as exc:
        raise SolverError(f"sparse solve failed: {exc}") from exc
    resid = float(np.linalg.norm(L @ x))
    used = "null-space"
    if not np.isfinite(resid) or resid > STEADY_RESIDUAL_ATOL:
        # fallback: normal equations of [L_CC; t_C] x_C = [0; 1]
        used = "normal-equations"
        A = sp.vstack([Lc, sp.csr_matrix(tvec)]).tocsc()
        b = np.zeros(m + 1, dtype=complex)
        b[-1] = 1.0
        x[idx] = spla.spsolve((A.conj().T @ A).tocsc(), A.conj().T @ b)
        resid = float(np.linalg.norm(L @ x))
        if not np.isfinite(resid) or resid > STEADY_RESIDUAL_ATOL:
            raise SolverError(f"steady-state residual {resid:.2e} exceeds tolerance")
    rho = x.reshape(n, n)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    return SteadyStateReport(DensityMatrix(model.space, rho), resid, used, lam1, m)


def _default_horizon(model: LindbladModel) -> float:
    rates = [r for _, r in model.collapses if r > 0]
    slowest = min(rates) if rates else 1.0
    return 20.0 / slowest


def evolve(model: LindbladModel, rho0: DensityMatrix, t_grid,
           rtol: float = 1e-9, atol: float = 1e-12) -> list[DensityMatrix]:
    """Trajectory of the master equation at the requested times.

    Uses an adaptive DOP853 integration of the vectorized generator; the
    trace drift is monitored at every output time and must stay below 1e-8.
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
                    t_eval=t_grid, method="DOP853", rtol=rtol, atol=atol)
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


def expect(state: DensityMatrix, op: Operator) -> complex:
    return state.expect(op)


def g2_zero(state: DensityMatrix, label: str) -> float:
    """Equal-time two-photon correlation <a+a+aa>/<a+a>^2 of one mode."""
    a = annihilator(state.space, label)
    ad = a.dag()
    nbar = np.real(state.expect(ad @ a))
    if nbar <= 1e-12:
        raise ValueError(f"mode {label!r} occupation {nbar:.2e} too small for g2")
    g2 = np.real(state.expect(ad @ ad @ a @ a)) / nbar**2
    return float(max(g2, 0.0))


def reflection_spectrum(model: LindbladModel, drive_label: str, delta_grid,
                        omega: float, kappa: float | None = None,
                        scan_labels=None, check_unique: bool = False):
    """Weak-probe reflection r(Delta) = 1 + 2 kappa <c>_ss / Omega.

    Input-output convention: single-sided cavity with c_out = c_in +
    sqrt(2 kappa) c and drive Hamiltonian i Omega (c - c^dag), which is the
    phase for which the empty-cavity reflection is (i Delta + kappa)/
    (i Delta - kappa). Scanning the probe detuning shifts every mode listed
    in scan_labels (default: all modes of the model, appropriate for the
    pinned transistor models where the mechanical state has been projected
    out).

    Expects a model without drive terms; the mechanical mode must already be
    pinned (see models.build_transistor). The probe must satisfy
    omega <= 0.05 kappa, and a nonlinear response (<c^dag c> > 0.1) raises.
    Returns a list of (Delta, r) with r complex.
    """
    space = model.space
    c = annihilator(space, drive_label)
    if kappa is None:
        kappa = _collapse_rate(model, drive_label)
    if omega > 0.05 * kappa:
        raise ValueError(f"probe amplitude {omega} exceeds weak-drive bound 0.05*kappa")
    labels = space.labels if scan_labels is None else tuple(scan_labels)
    n_scan = None
    for lbl in labels:
        a = annihilator(space, lbl)
        term = (a.dag() @ a).matrix
        n_scan = term if n_scan is None else n_scan + term
    drive = 1j * omega * (c.matrix - c.matrix.conj().T)
    n_drive = (c.dag() @ c).matrix
    out = []
    for i, delta in enumerate(np.asarray(delta_grid, dtype=float)):
        h = Operator(space, model.hamiltonian.matrix - delta * n_scan + drive)
        rep = steady_state(model.with_hamiltonian(h),
                           check_unique=check_unique and i == 0)
        nbar = np.real(rep.state.expect(n_drive))
        if nbar > 0.1:
            raise SolverError(
                f"nonlinear response at Delta={delta}: <c^dag c> = {nbar:.3f} > 0.1")
        r = 1.0 + 2.0 * kappa * complex(rep.state.expect(c)) / omega
        out.append((float(delta), r))
    return out


def _collapse_rate(model: LindbladModel, label: str) -> float:
    target = annihilator(model.space, label).matrix
    for op, rate in model.collapses:
        if (op.matrix - target).nnz == 0:
            return rate
    raise ValueError(f"no collapse operator found for mode {label!r}; pass kappa explicitly")


@dataclass
class LabeledEigenvalue:
    """Complex eigenvalue matched to a Fock level of the hybridized B mode."""

    n: int
    value: complex
    overlap: float


def nonhermitian_eigs(h_eff: Operator, k: int, b_mode: Operator | None = None):
    """Lowest-lying complex eigenvalues of a non-Hermitian Hamiltonian.

    Returns k LabeledEigenvalue entries sorted by ascending real part.
    Each Fock level n = 0..k-1 of the hybridized B mode (taken from
    h_eff.meta["b_mode"] unless given) is matched to the eigenvector of
    largest overlap with (B^dag)^n |vac>; ties resolve toward lower n by
    assigning labels in ascending order with exclusion.
    """
    dim = h_eff.space.total_dim
    if k > dim:
        raise ValueError(f"k={k} exceeds space dimension {dim}")
    if b_mode is None:
        b_mode = h_eff.meta.get("b_mode")
    if b_mode is None:
        raise ValueError("no B-mode operator available for Fock matching")
    if dim > DENSE_EIG_LIMIT:
        raise SolverError(
            f"dimension {dim} too large for the dense eigensolver; reduce truncations")
    try:
        w, v = sla.eig(h_eff.to_dense())
    except sla.LinAlgError as exc:  # pragma: no cover
        raise SolverError(f"eigensolver failed: {exc}") from exc
    norms = np.linalg.norm(v, axis=0)

    bd = b_mode.matrix.conj().T.tocsr()
    target = np.zeros(dim, dtype=complex)
    target[0] = 1.0
    assigned: list[LabeledEigenvalue] = []
    used: set[int] = set()
    for n in range(k):
        if n > 0:
            target = bd @ target / np.sqrt(n)
        ov = np.abs(target.conj() @ v) ** 2 / norms**2
        order = np.argsort(-ov)
        idx = next(int(i) for i in order if int(i) not in used)
        used.add(idx)
        assigned.append(LabeledEigenvalue(n, complex(w[idx]), float(ov[idx])))
    assigned.sort(key=lambda e: e.value.real)
    return assigned
