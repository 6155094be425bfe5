"""Lindblad engine: Liouvillian assembly, steady states, time evolution,
weak-drive reflection spectra, and non-Hermitian eigenvalues.

Reflection spectra solve no master equation: they come from the resolvent
of the non-Hermitian Hamiltonian on the one-excitation states (see
reflection_spectrum).

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
from scipy.sparse.csgraph import connected_components

from .hilbert import DensityMatrix, ModeSpace, Operator, annihilator

TRACE_PRESERVATION_ATOL = 1e-10
STEADY_RESIDUAL_ATOL = 1e-9
NULL_GAP_ATOL = 1e-8
HERMITIAN_RTOL = 1e-12
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
        h = self.hamiltonian.matrix
        dev = abs(h - h.conj().T).max()
        if dev > HERMITIAN_RTOL * abs(h).max():
            raise ValueError(f"hamiltonian is not Hermitian: max|H - H^dag| = {dev:.2e}")
        for op, rate in self.collapses:
            if op.space != self.space:
                raise ValueError("collapse operator acts on a different space")
            if rate < 0:
                raise ValueError(f"negative collapse rate {rate}")

    def with_hamiltonian(self, h: Operator) -> "LindbladModel":
        return LindbladModel(h, self.collapses, self.space, dict(self.meta))


def liouvillian(model: LindbladModel) -> sp.csr_matrix:
    """Sparse matrix of the generator acting on vec(rho) (row-major).

    The trace functional is verified to annihilate the generator:
    |vec(I)^T L| <= 1e-10 columnwise (relative to the largest entry).
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

    Both are measured, not bounded: by a dense eigvals for m <= 400, above
    that by shift-invert ARPACK (k = 2 at sigma = 1e-9) on a sparse LU of L.
    A unique steady state requires |lambda_1| > 1e-8 (in the model's rate
    units); |lambda_0| should be numerically zero. steady_state calls it on
    the population sector only; on a full Liouvillian it is the reference
    the block-by-block check is tested against.
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
    """Steady state with the evidence that it is the right one.

    residual: |L x|_2 of the solution on the full Liouvillian.
    null_gap: with check_unique, a lower bound on |lambda_1| of the full
        Liouvillian: the smaller of the population sector's measured
        |lambda_1| and the proven bounds on the other blocks (see
        steady_state). None without the check.
    solved_dim: size of the linear system actually solved.
    """

    state: DensityMatrix
    residual: float
    null_gap: float | None = None
    solved_dim: int | None = None


def _component_labels(L: sp.csr_matrix) -> np.ndarray:
    """Label of each entry's connected component in L's sparsity graph."""
    # csgraph casts complex weights to real, which would drop the purely
    # imaginary -i[H, rho] entries: hand it a real pattern instead
    pattern = sp.csr_matrix((np.ones(L.nnz), L.indices, L.indptr), shape=L.shape)
    return connected_components(pattern, directed=True, connection="weak")[1]


def population_sector(L: sp.csr_matrix, n: int) -> np.ndarray:
    """Sorted indices of the block of L that holds the populations.

    The block is the connected component of entry (0,0) in the graph of
    L's sparsity pattern, for n the Hilbert-space dimension. Raises
    SolverError if the diagonal entries vec(|i><i|) fall in more than one
    component.
    """
    labels = _component_labels(L)
    if np.any(labels[:: n + 1] != labels[0]):
        raise SolverError(
            "degenerate Liouvillian null space: the populations split into "
            "disconnected sectors, each with its own steady state")
    return np.flatnonzero(labels == labels[0])


def _comparison(t: sp.csc_matrix) -> sp.csc_matrix:
    """Comparison matrix M(T) of a triangular factor: |t_ii| on the
    diagonal, -|t_ij| off it, as a real matrix."""
    data = -np.abs(t.data)
    cols = np.repeat(np.arange(t.shape[1]), np.diff(t.indptr))
    data[t.indices == cols] *= -1.0
    return sp.csc_matrix((data, t.indices, t.indptr), shape=t.shape)


def _coherence_gap(L: sp.csr_matrix, n: int, floor: float) -> float:
    """Proven lower bound on min |lambda| over the blocks of L outside the
    population sector; inf when there are none. A block whose cheap bound
    falls below floor gets the exact ||B^-1||_1 instead. See steady_state."""
    labels = _component_labels(L)
    first = np.unique(labels, return_index=True)[1]
    row, col = np.divmod(first, n)
    partner = labels[col * n + row]   # the component of the transposed entries
    bound = np.inf
    for c in np.flatnonzero(np.arange(first.size) <= partner):
        if c == labels[0]:
            continue
        idx = np.flatnonzero(labels == c)
        try:
            # a minimum-degree order on B + B^T fills about 40% less than
            # the default COLAMD on these blocks (rwa a4/s4/m6)
            lu = spla.splu(L[idx][:, idx].tocsc(), permc_spec="MMD_AT_PLUS_A",
                           options={"SymmetricMode": True})
        except RuntimeError:   # an exactly singular factor: lambda = 0
            return 0.0
        # |B^-1| <= M(U_B)^-1 M(L_B)^-1 entrywise, so ||B^-1||_1 is at most the
        # largest entry of e^T M(U_B)^-1 M(L_B)^-1: two transposed triangular solves
        y = spla.spsolve_triangular(_comparison(lu.U).T, np.ones(idx.size), lower=True,
                                    overwrite_A=True, overwrite_b=True)
        z = spla.spsolve_triangular(_comparison(lu.L).T, y, lower=False, unit_diagonal=True,
                                    overwrite_A=True, overwrite_b=True)
        block = 1.0 / z.max()
        if block < floor:
            block = 1.0 / np.abs(lu.solve(np.eye(idx.size, dtype=complex))).sum(axis=0).max()
        bound = min(bound, block)
    return bound


def steady_state(model: LindbladModel, check_unique: bool = True) -> SteadyStateReport:
    """Stationary state of the master equation.

    Solves the Liouvillian null space directly, on the population sector of
    L only. When H and every collapse operator shift some charge Q by a
    fixed amount (a weak U(1) symmetry, e.g.
    Q = n_s - n_m for the rotating-wave model), L maps each coherence
    order |i><j| with Q_i - Q_j = q onto itself, so L is block-diagonal and
    the steady state lives in the block that holds the populations
    (Buca & Prosen, New J. Phys. 14, 073007 (2012)). That block is found
    from the sparsity pattern alone, as the connected component of the
    (0,0) entry; for a model without such a symmetry it is the whole space.
    Within it the row of the (0,0) matrix element is replaced by the trace
    condition, and the square system M x = e_0 is solved by one sparse LU.
    The residual is checked on the full L: above 1e-9, or not finite, it
    raises SolverError.

    No second solve path could do better. Let A = [L_CC; t_C] be the
    trace-augmented system on the sector C. Trace preservation makes the
    population rows of L sum to zero, so the replaced (0,0) row is minus
    the sum of the other population rows. Hence ker M = ker A: the two are
    singular together. The same identity gives |A x|^2 <= n |M x|^2, with n
    the Hilbert-space dimension, so cond(M) <= sqrt(n) cond(A). The normal
    equations of A have cond(A)^2, so they are better conditioned only when
    cond(A) < sqrt(n), where the LU of M is already accurate to about 1e-14.

    check_unique verifies, block by block, that |lambda_1| of the full L
    exceeds 1e-8; a degenerate null space (dark state or disconnected
    sector) raises SolverError. report.null_gap is a lower bound on that
    |lambda_1|. The spectrum of L is the union of its blocks' spectra, and a
    second steady state may sit in any block: a Hermitian jump c + c^dag on
    a qubit keeps sigma_x stationary in the {01, 10} block, and a cyclic
    jump |k+1><k| on three levels keeps c and c^2 in the blocks of charge
    difference 1 and 2, while the population block of both has a gap.
    - The population block's |lambda_1| is measured by null_space_gap.
    - Every other block B gets a proven bound. Since L(X^dag) = L(X)^dag
      for Hermitian H, the transpose (i,j) -> (j,i) maps each block onto a
      block with the complex-conjugate spectrum, so one block of each such
      pair is checked. With P B Q = L_B U_B its sparse LU,
      min |lambda(B)| = 1/rho(B^-1) >= 1/||B^-1||_1. The comparison matrix
      M(T) (|t_ii| on the diagonal, -|t_ij| off it) of a triangular T
      bounds |T^-1| <= M(T)^-1 entrywise (Higham, Accuracy and Stability of
      Numerical Algorithms, ch. 8), so ||B^-1||_1 <= ||M(U_B)^-1 M(L_B)^-1||_1,
      which two triangular solves give. Where the factors cancel, this
      bound is loose (build_displaced at (4, 3, 5): 1.3e-9 against a true
      0.036); a block whose bound falls below the population block's
      |lambda_1| gets the exact ||B^-1||_1, one solve per column, instead. An
      exactly singular factor counts as lambda = 0.
    Both bounds hold up to the rounding of the LU. For the g2scan model
    (rwa a4/s4/m6) the cheap bound on every other block is 80 or more, far
    above the population |lambda_1| of about 0.01, so the reported gap is
    the full-space |lambda_1|. Populations split over several sectors
    raise SolverError even with check_unique=False, since each such sector
    carries its own steady state.
    """
    L = liouvillian(model)
    n = model.space.total_dim
    idx = population_sector(L, n)
    m = idx.size
    Lc = L if m == n * n else L[idx][:, idx]
    gap = None
    if check_unique:
        lam1 = null_space_gap(Lc)[1]
        gap = min(lam1, _coherence_gap(L, n, lam1))
        if not gap > NULL_GAP_ATOL:
            raise SolverError(
                f"degenerate Liouvillian null space (|lambda_1| bound {gap:.2e}); "
                "the model has a dark state or disconnected sector")

    tvec = _trace_vec(n)[idx]
    rhs = np.zeros(m, dtype=complex)
    rhs[0] = 1.0
    M = sp.vstack([sp.csr_matrix(tvec), Lc[1:]])
    x = np.zeros(n * n, dtype=complex)
    try:
        x[idx] = spla.spsolve(M.tocsc(), rhs)
    except RuntimeError as exc:
        raise SolverError(f"sparse solve failed: {exc}") from exc
    resid = float(np.linalg.norm(L @ x))
    if not np.isfinite(resid) or resid > STEADY_RESIDUAL_ATOL:
        raise SolverError(f"steady-state residual {resid:.2e} exceeds tolerance")
    rho = x.reshape(n, n)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    return SteadyStateReport(DensityMatrix(model.space, rho), resid, gap, m)


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
    # imported here, so that importing omx does not load scipy.integrate
    from scipy.integrate import solve_ivp
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
                        omega: float):
    """Weak-probe reflection r(Delta) = 1 + 2 kappa <c>_ss / Omega.

    Input-output convention: single-sided cavity with c_out = c_in +
    sqrt(2 kappa) c and drive Hamiltonian i Omega (c - c^dag), which is the
    phase for which the empty-cavity reflection is (i Delta + kappa)/
    (i Delta - kappa), with kappa the collapse rate of the driven mode.
    Scanning the probe detuning shifts every mode of the model, as fits the
    pinned transistor models where the mechanical state has been projected
    out.

    No master equation is solved. With N the total excitation number and
    H_eff = H - i sum_k rate_k c_k^dag c_k restricted to the N = 1 states,
    the driven amplitudes obey (Gardiner & Collett, PRA 31, 3761 (1985))

        <c> = i Omega G_ss,   G = (H_eff - Delta)^-1,
        r(Delta) = 1 + 2 i kappa G_ss,

    with s the state c^dag|vac>; one batched solve covers the whole grid.
    This is exact for quadratic models such as models.build_transistor,
    and exact to first order in Omega for any other model.

    Expects a model without drive terms; the mechanical mode must already be
    pinned (see models.build_transistor). H must conserve N and every
    collapse operator must lower N by exactly one, else ValueError; this
    rejects a drive term left in H. The probe must satisfy
    omega <= 0.05 kappa, else ValueError.

    For Hermitian H the response is passive and stays weak, so it needs no
    check after the solve. Let x = G e_s and Gamma = sum_k rate_k c_k^dag c_k
    on the N = 1 block. The imaginary part of <x|(H_eff - Delta)|x> = x_s^*
    gives <x|Gamma|x> = Im x_s, and Gamma >= kappa |s><s|, so
    kappa |G_ss|^2 <= Im G_ss. Hence |G_ss| <= 1/kappa, so
    |<c>|^2 = Omega^2 |G_ss|^2 <= (Omega/kappa)^2 <= 0.0025, and
    |r|^2 = 1 - 4 kappa (Im G_ss - kappa |G_ss|^2) <= 1.

    Returns a list of (Delta, r) with r complex.
    """
    space = model.space
    kappa = _collapse_rate(model, drive_label)
    if omega > 0.05 * kappa:
        raise ValueError(f"probe amplitude {omega} exceeds weak-drive bound 0.05*kappa")
    # total excitation number of each basis state, as integers (row-major
    # product basis, as in ModeSpace.basis_index)
    n_tot = np.indices(space.dims).reshape(len(space.dims), -1).sum(axis=0)
    h = model.hamiltonian.matrix.tocoo()
    if np.any(n_tot[h.row] != n_tot[h.col]):
        raise ValueError("H does not conserve the excitation number "
                         "(drive term left in the Hamiltonian?)")
    h_eff = model.hamiltonian.matrix
    for op, rate in model.collapses:
        if rate == 0.0:
            continue
        m = op.matrix.tocoo()
        if np.any(n_tot[m.row] != n_tot[m.col] - 1):
            raise ValueError("a collapse operator does not lower the excitation number by one")
        h_eff = h_eff - 1j * rate * (op.matrix.conj().T @ op.matrix)
    # the vacuum is left out: with it the matrix is singular at Delta = 0
    one = np.flatnonzero(n_tot == 1)
    s = int(np.searchsorted(one, space.basis_index(
        [int(lbl == drive_label) for lbl in space.labels])))
    block = h_eff[one][:, one].toarray()
    deltas = np.asarray(delta_grid, dtype=float)
    e_s = np.zeros((one.size, 1))
    e_s[s] = 1.0
    g_ss = np.linalg.solve(block - deltas[:, None, None] * np.eye(one.size), e_s)[:, s, 0]
    r = 1.0 + 2j * kappa * g_ss
    return [(float(d), complex(x)) for d, x in zip(deltas, r)]


def _collapse_rate(model: LindbladModel, label: str) -> float:
    target = annihilator(model.space, label).matrix
    for op, rate in model.collapses:
        if (op.matrix - target).nnz == 0:
            return rate
    raise ValueError(f"no collapse operator found for mode {label!r}")


@dataclass
class LabeledEigenvalue:
    """Complex eigenvalue matched to a Fock level of the hybridized B mode."""

    n: int
    value: complex
    overlap: float


def nonhermitian_eigs(h_eff: Operator, k: int):
    """Lowest-lying complex eigenvalues of a non-Hermitian Hamiltonian.

    Returns k LabeledEigenvalue entries sorted by ascending real part.
    Each Fock level n = 0..k-1 of the hybridized B mode (taken from
    h_eff.meta["b_mode"]) is matched to the eigenvector of
    largest overlap with (B^dag)^n |vac>; ties resolve toward lower n by
    assigning labels in ascending order with exclusion.
    """
    dim = h_eff.space.total_dim
    if k > dim:
        raise ValueError(f"k={k} exceeds space dimension {dim}")
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
