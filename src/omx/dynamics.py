"""Lindblad engine: Liouvillian assembly, steady states, weak-drive
reflection spectra, and non-Hermitian eigenvalues.

Nothing here integrates in time; tests/oracles.py holds that oracle (evolve).

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
vec(A rho B) = (A kron B^T) vec(rho). Collecting the terms that act on rho
from the left and from the right, the generator is

    L = K_L kron I + I kron K_R + sum_k 2 rate_k c_k kron conj(c_k),
    K_L = -iH - sum_k rate_k c_k^dag c_k,
    K_R = (iH - sum_k rate_k c_k^dag c_k)^T,

which liouvillian assembles in one pass from coordinate lists. K_R is a
transpose, not conj(K_L), so the identity does not assume H Hermitian.

Observables diagonal in the Fock basis (<a^dag a>, <a^dag^2 a^2>, the
top-Fock-level population of SteadyStateReport.fock_tail) are read off the
populations rho_ii, weighted by the integer occupations of
ModeSpace.occupations; no operator product is formed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy

from .hilbert import DensityMatrix, ModeSpace, Operator, ladder_product

TRACE_PRESERVATION_ATOL = 1e-10
STEADY_RESIDUAL_ATOL = 1e-9
NULL_GAP_ATOL = 1e-8
HERMITIAN_RTOL = 1e-12
G2_NEGATIVE_ATOL = 1e-12
DENSE_EIG_LIMIT = 2500
GAP_DENSE_LIMIT = 64
OVERLAP_FLOOR = 0.5
BACKWARD_ERROR_STOP = 1e-12
REFINE_STEP_CAP = 8
KRYLOV_RTOL = 1e-10
KRYLOV_RESTART = 40


class SolverError(RuntimeError):
    """Raised when a steady-state or propagation solve fails."""


@dataclass
class LindbladModel:
    """Hamiltonian plus weighted collapse operators; the model's space is
    the Hamiltonian's."""

    hamiltonian: Operator
    collapses: list[tuple[Operator, float]]

    def __post_init__(self):
        h = self.hamiltonian.matrix
        dev = _hermitian_deviation(h)
        if dev > HERMITIAN_RTOL * np.abs(h.data).max(initial=0.0):
            raise ValueError(f"hamiltonian is not Hermitian: max|H - H^dag| = {dev:.2e}")
        for op, rate in self.collapses:
            if op.space != self.space:
                raise ValueError("collapse operator acts on a different space")
            if not rate >= 0:  # NaN fails too
                raise ValueError(f"collapse rate must be >= 0; got {rate}")

    @property
    def space(self) -> ModeSpace:
        return self.hamiltonian.space

    def decay(self) -> scipy.sparse.csr_matrix:
        """sum_k rate_k c_k^dag c_k over the collapses of nonzero rate, as CSR:
        the one place it is formed, read by liouvillian, reflection_spectrum
        and models.build_nonhermitian.

        Formed in one pass as one coordinate list: (c^dag c)_ij sums
        conj(c_li) c_lj over the rows l of c, so each pair of stored
        entries (p, q) that share a row of c adds rate conj(c_p) c_q at
        (col_p, col_q). The CSR conversion sums the pairs that meet, and
        sums that cancel exactly are dropped.
        """
        n = self.space.total_dim
        rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0, complex)]
        for op, rate in self.collapses:
            if rate == 0.0:
                continue
            c = op.matrix
            per_row = np.diff(c.indptr)
            # for each stored entry: the first entry of its row, and the row's size
            first, width = np.repeat(c.indptr[:-1], per_row), np.repeat(per_row, per_row)
            # p runs over the entries, each once per entry q of its row
            p = np.repeat(np.arange(c.nnz), width)
            q = np.repeat(first, width) + np.arange(p.size) - np.repeat(np.cumsum(width) - width, width)
            rows.append(c.indices[p])
            cols.append(c.indices[q])
            vals.append(rate * (c.data[p].conj() * c.data[q]))
        out = scipy.sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
        out.eliminate_zeros()
        return out


def _hermitian_deviation(h: scipy.sparse.csr_matrix) -> float:
    """max|H - H^dag| of a canonical CSR H. |H - H^dag| is symmetric, so
    the stored entries of H cover every nonzero of it: each stored H_ij is
    compared with conj(H_ji), its partner found by searchsorted on the
    sorted row-major keys, or with 0 where H_ji is not stored."""
    n = h.shape[0]
    rows = np.repeat(np.arange(n), np.diff(h.indptr))
    cols = h.indices.astype(np.int64)
    keys, key_t = rows * n + cols, cols * n + rows
    pos = np.searchsorted(keys, key_t).clip(max=keys.size - 1)
    partner = np.where(keys[pos] == key_t, h.data[pos], 0)
    return float(np.abs(h.data - partner.conj()).max(initial=0.0))


def liouvillian(model: LindbladModel) -> scipy.sparse.csr_matrix:
    """Sparse matrix of the generator acting on vec(rho) (row-major).

    Assembled from K_L, K_R and the jump terms (see the module docstring)
    as one coordinate list and one CSR conversion, with no kron products.
    The trace functional is verified to annihilate the generator:
    |vec(I)^T L| <= 1e-10 columnwise (relative to the largest entry).
    steady_state builds it only for its uniqueness check; its population
    block comes from a _BlockPlan, and this is that block's oracle.
    """
    n = model.space.total_dim
    rows, cols, vals = _kron_sum(_generator_terms(model), n)
    # the CSR conversion sums duplicates (for ladder collapses only on the
    # diagonal, where K_L and K_R meet); entries that cancel exactly are
    # dropped, as an operator sum drops them
    L = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n * n, n * n)).tocsr()
    L.eliminate_zeros()
    _check_trace(L, _trace_vec(n))
    return L


def _generator_terms(model: LindbladModel) -> list:
    """The terms of L as _kron_sum takes them: K_L kron I, I kron K_R and
    2 rate_k c_k kron conj(c_k) for each collapse of nonzero rate."""
    h, decay = model.hamiltonian.matrix, model.decay()
    jumps = []
    for op, rate in model.collapses:
        if rate == 0.0:
            continue
        row, col, val = _triplet(op.matrix)
        jumps.append(((row, col, (2.0 * rate) * val), (row, col, val.conj())))
    col, row, val = _triplet(1j * h - decay)   # K_R is its transpose
    return [(_triplet(-1j * h - decay), None), (None, (row, col, val))] + jumps


def _triplet(a: scipy.sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, col, val) of a CSR matrix's stored entries in storage order,
    as tocoo gives them."""
    rows = np.repeat(np.arange(a.shape[0], dtype=a.indices.dtype), np.diff(a.indptr))
    return rows, a.indices, a.data


def _check_trace(L: scipy.sparse.csr_matrix, t: np.ndarray) -> None:
    """SolverError unless |t^T L| <= TRACE_PRESERVATION_ATOL columnwise,
    relative to the largest entry of L (at least 1)."""
    worst = np.abs(t @ L).max(initial=0.0)
    if worst > TRACE_PRESERVATION_ATOL * np.abs(L.data).max(initial=1.0):
        raise SolverError(f"Liouvillian is not trace preserving: {worst:.2e}")


def _kron_sum(terms, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate list (rows, cols, vals) of sum_k A_k kron B_k on n^2
    entries, each factor an n x n (row, col, val) triplet or None for the
    identity. Each term writes its entries straight into one preallocated
    list, with 32-bit indices while n^2 fits; duplicates are not summed."""
    index = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    eye = (np.arange(n, dtype=index), np.arange(n, dtype=index), np.ones(n))
    terms = [(eye if a is None else a, eye if b is None else b) for a, b in terms]
    size = sum(a[0].size * b[0].size for a, b in terms)
    rows, cols = np.empty(size, index), np.empty(size, index)
    vals = np.empty(size, complex)
    start, n = 0, index(n)
    for (a_row, a_col, a_val), (b_row, b_col, b_val) in terms:
        shape = (a_row.size, b_row.size)
        end = start + a_row.size * b_row.size
        np.add(a_row[:, None] * n, b_row, out=rows[start:end].reshape(shape))
        np.add(a_col[:, None] * n, b_col, out=cols[start:end].reshape(shape))
        np.multiply(a_val[:, None], b_val, out=vals[start:end].reshape(shape))
        start = end
    return rows, cols, vals


def _trace_vec(n: int) -> np.ndarray:
    t = np.zeros(n * n)
    t[:: n + 1] = 1.0
    return t


def null_space_gap(L: scipy.sparse.csr_matrix) -> tuple[float, float]:
    """(|lambda_0|, |lambda_1|): the two smallest-magnitude eigenvalues of L.

    Both are measured, not bounded: by a dense eigvals for m <= 400, above
    that by shift-invert ARPACK (k = 2 at sigma = 1e-9) on a sparse LU of L.
    A unique steady state requires |lambda_1| > 1e-8 (in the model's rate
    units); |lambda_0| should be numerically zero. steady_state does not
    call it: on a full Liouvillian it is the oracle that the block-by-block
    check is tested against. ARPACK starts from a fixed complex vector, so
    repeated calls return the same bits.
    """
    m = L.shape[0]
    if m <= 400:
        w = np.sort(np.abs(scipy.linalg.eigvals(L.toarray())))
        return float(w[0]), float(w[1])
    try:
        w = scipy.sparse.linalg.eigs(L.tocsc(), k=2, sigma=1e-9, which="LM",
                                     return_eigenvectors=False, maxiter=5000,
                                     v0=_start_vector(m))
    except (scipy.sparse.linalg.ArpackNoConvergence, RuntimeError) as exc:
        raise SolverError(f"null-space gap estimation failed: {exc}") from exc
    w = np.sort(np.abs(w))
    return float(w[0]), float(w[1])


def _start_vector(m: int) -> np.ndarray:
    """The one random vector: a seeded complex ARPACK start vector."""
    rng = np.random.default_rng(0)
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


@dataclass
class SteadyStateReport:
    """Steady state with the evidence that it is the right one.

    residual: |L x|_2 of the solution, the norm of the n^2 vector L x,
        formed from the population block alone (see steady_state).
    null_gap: with check_unique, |lambda_1| of the full Liouvillian: the
        smaller of the population sector's |lambda_1|, measured with the
        LU of the trace-row system M, and the smallest |lambda| of the
        blocks whose disc bound falls below it, each measured too (see
        steady_state). None without the check.
    solved_dim: size of the linear system actually solved.
    lu_nnz: entries SuperLU stores in the L and U factors the solution
        was computed with: the summed fill of P's level factors, M's when
        P = M (a model without a drive) or after the fallback.
    fock_tail: population of the top Fock level of each mode, by label,
        read off the diagonal of the state: the truncation's evidence.
    krylov_iterations: GMRES iterations over all refinement steps; 0 for
        a model without a drive, whose corrections need no Krylov step.
    backward_error: componentwise backward error of the solution of M.
    lu_fallback: whether the refinement missed BACKWARD_ERROR_STOP within
        REFINE_STEP_CAP steps, or a level block of P was singular, so M
        was factored and solved instead.
    """

    state: DensityMatrix
    residual: float
    null_gap: float | None = None
    solved_dim: int | None = None
    lu_nnz: int | None = None
    fock_tail: dict[str, float] | None = None
    krylov_iterations: int | None = None
    backward_error: float | None = None
    lu_fallback: bool | None = None


def _component_labels(L: scipy.sparse.csr_matrix) -> np.ndarray:
    """Label of each entry's connected component in L's sparsity graph."""
    # csgraph casts complex weights to real, which would drop the purely
    # imaginary -i[H, rho] entries: hand it a real pattern instead
    pattern = scipy.sparse.csr_matrix((np.ones(L.nnz), L.indices, L.indptr), shape=L.shape)
    return scipy.sparse.csgraph.connected_components(pattern, directed=True, connection="weak")[1]


def _sector(labels: np.ndarray, n: int) -> np.ndarray:
    """Sorted indices of the population block of L, the component of entry
    (0,0) in its labels; SolverError if the populations split over several."""
    if np.any(labels[:: n + 1] != labels[0]):
        raise SolverError(
            "degenerate Liouvillian null space: the populations split into "
            "disconnected sectors, each with its own steady state")
    return np.flatnonzero(labels == labels[0])


def _block_gap(B: scipy.sparse.csr_matrix, lu: _PermutedLU | None) -> float:
    """Smallest |lambda| of a block B of L, measured.

    Given lu, the LU of the trace-row system M of the population block B,
    it is |lambda_1| instead: the largest |mu| of M^-1 Pi is 1/|lambda_1|
    (see steady_state). Given None, B is factored (_factor) and the largest
    |mu| of B^-1 is 1/min |lambda|; an exactly singular factor gives 0.
    ARPACK finds that |mu| from solves alone (k = 2, since a population
    block's spectrum comes in conjugate pairs), from the seeded start
    vector. A block of at most GAP_DENSE_LIMIT entries takes a dense
    eigvals and is not factored: with one BLAS thread that takes 1 ms at
    40 entries, 4 ms at 72 and 11 ms at 108, against 1 to 5 ms for the LU
    and ARPACK of such a coherence block, and 1 ms for ARPACK alone on a
    population block (displaced (3, 2, 7) and (2, 3, 3)).
    """
    m = B.shape[0]
    if m <= GAP_DENSE_LIMIT:
        w = np.sort(np.abs(scipy.linalg.eigvals(B.toarray())))
        return float(w[0] if lu is None else w[1])
    if lu is None:
        try:
            solve = _factor(B.tocsc()).solve
        except RuntimeError:   # an exactly singular factor: lambda = 0
            return 0.0
    else:
        def solve(v):
            v = v.copy()
            v[0] = 0.0
            return lu.solve(v)

    try:
        op = scipy.sparse.linalg.LinearOperator((m, m), matvec=solve, dtype=complex)
        w = scipy.sparse.linalg.eigs(op, k=2, which="LM", return_eigenvectors=False,
                                     maxiter=5000, v0=_start_vector(m))
    except (scipy.sparse.linalg.ArpackNoConvergence, RuntimeError) as exc:
        raise SolverError(f"null-space gap estimation failed: {exc}") from exc
    return float(1.0 / np.abs(w).max())


def _disc_bounds(L: scipy.sparse.csr_matrix, labels: np.ndarray) -> np.ndarray:
    """Gershgorin lower bound on min |lambda| of each connected block of L:
    the larger of min_i (|L_ii| - sum_{j != i} |L_ij|) over its rows and
    over its columns."""
    a = abs(L)
    twice = 2.0 * a.diagonal()
    rows = np.full(labels.max() + 1, np.inf)
    cols = rows.copy()
    np.minimum.at(rows, labels, twice - np.asarray(a.sum(axis=1)).ravel())
    np.minimum.at(cols, labels, twice - np.asarray(a.sum(axis=0)).ravel())
    return np.maximum(rows, cols)


ORDER_CACHE_SIZE = 16
PLAN_CACHE_SIZE = 8
_ORDERS: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_PLANS: dict[tuple, _BlockPlan] = {}


def _cached(cache: dict, size: int, key: tuple, make):
    """cache[key], made by make() on a miss; a full cache first drops its
    oldest entry, so it never holds more than size."""
    hit = cache.get(key)
    if hit is None:
        hit = make()
        if len(cache) >= size:
            del cache[next(iter(cache))]
        cache[key] = hit
    return hit


class _PermutedLU:
    """The LU of A[q][:, q] (SuperLU's), solving A x = b: b is permuted in
    and the solution out."""

    def __init__(self, lu, q: np.ndarray, perm_c: np.ndarray):
        self.lu, self.q, self.perm_c = lu, q, perm_c

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(b[self.q])[self.perm_c]

    @property
    def nnz(self) -> int:
        return self.lu.nnz


def _order(A: scipy.sparse.csc_matrix) -> tuple[np.ndarray, np.ndarray]:
    """(q, perm_c) for A: SuperLU's minimum-degree column order perm_c on
    the pattern of A + A^T, and q = argsort(perm_c), so that A[q][:, q] is
    A in that order. The order is a function of the pattern alone, so it is
    computed once per pattern and kept, for the last ORDER_CACHE_SIZE = 16
    patterns, under the exact key (shape, indptr bytes, indices bytes);
    _cached, the one bounded cache, drops the oldest pattern first and
    serves steady_state's _BlockPlan too.

    scipy computes no order without a factorization, so on a miss it comes
    from an incomplete LU of a proxy with A's pattern: unit entries plus m
    on the diagonal, strictly diagonally dominant (a row holds at most
    m - 1 off-diagonal entries), so nothing is singular and drop_tol = 1
    keeps little more than the diagonal. The ILU orders as splu does (the
    same minimum degree and elimination-tree postorder, from the pattern
    only) at a fraction of its cost: 7.3 ms against 26.5 ms for the LU of
    the g2scan sector (rwa a4/s4/m6), 18 ms against 130 ms at m10 with
    N_th = 1. Its perm_c equals splu's own on both and on the largest
    coherence block of displaced (4, 3, 5) (tier-1 test).
    """
    return _cached(_ORDERS, ORDER_CACHE_SIZE,
                   (A.shape, A.indptr.tobytes(), A.indices.tobytes()), lambda: _min_degree(A))


def _min_degree(A: scipy.sparse.csc_matrix) -> tuple[np.ndarray, np.ndarray]:
    """(q, perm_c) of _order, computed afresh: the ordering-only ILU of
    A's diagonally dominant proxy."""
    m = A.shape[0]
    proxy = (scipy.sparse.csc_matrix((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape)
             + m * scipy.sparse.identity(m, format="csc"))
    ilu = scipy.sparse.linalg.spilu(
        proxy, drop_tol=1.0, fill_factor=1.0, permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.1, options={"SymmetricMode": True})
    perm_c = ilu.perm_c.copy()   # a view into ilu: the copy lets its factors go
    return np.argsort(perm_c), perm_c


def _factor(A: scipy.sparse.csc_matrix) -> _PermutedLU:
    """Sparse LU of a block of L, or of its trace-row system.

    The column order is a minimum degree on the pattern of A + A^T: the
    -i[H, rho] part of L has a symmetric pattern and only the c rho c^dag
    jumps are one-way, so the pattern is nearly symmetric. Threshold
    pivoting that takes the diagonal entry whenever it is at least 0.1 of
    its column's largest keeps that order; at the default threshold 1.0
    the row swaps undo it. Entries stored in the factors (SuperLU's nnz):

    | system | this | COLAMD | this order, threshold 1.0 |
    |---|---|---|---|
    | g2scan sector, rwa a4/s4/m6 | 218,844 | 355,080 | 629,477 |
    | 4 coherence blocks, displaced (4, 3, 5) | 92,238 | 161,734 | 114,126 |
    | 7 coherence blocks, displaced (4, 3, 8) | 457,671 | 763,991 | 682,691 |

    The order comes from _order, cached per sparsity pattern, and every
    system is factored on it, the first of a pattern included: SuperLU
    factors A[q][:, q] in its natural order, with the same pivoting, and
    never orders anything itself. A scan's points share one pattern (only
    diagonal values such as Delta_a change), so they share one ordering
    pass; at the g2scan sector the LU takes 20.9 ms against 26.5 ms when
    SuperLU orders each point (medians of 135 interleaved pairs, one BLAS
    thread, 2-vCPU host), and the fill is the same. Since the order is a
    function of A's pattern, the factor of A is a function of A alone: its
    bits cannot depend on which system came first, on the cache or on how
    a scan is split over processes.

    steady_state repays the weaker pivoting with refinement steps. The
    gap of _coherence_gap moves by less than 5e-15 relative between the
    three factors at displaced (3, 2, 7), (4, 3, 5) and (4, 3, 8).
    """
    q, perm_c = _order(A)
    return _PermutedLU(_splu(A[q][:, q]), q, perm_c)


def _splu(A: scipy.sparse.csc_matrix):
    """SuperLU's factor of A in its natural order, with _factor's pivoting."""
    return scipy.sparse.linalg.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.1,
                                    options={"SymmetricMode": True})


def _coherence_gap(L: scipy.sparse.csr_matrix, labels: np.ndarray, n: int, floor: float) -> float:
    """min |lambda| over the blocks of L outside the population sector, or a
    proven lower bound on it of at least floor; inf when there are none. A
    block whose disc bound falls below floor is measured (_block_gap). See
    steady_state."""
    first = np.unique(labels, return_index=True)[1]
    row, col = np.divmod(first, n)
    partner = labels[col * n + row]   # the component of the transposed entries
    discs = _disc_bounds(L, labels)
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


class _BlockPlan:
    """The symbolic half of L's population block, a function of the
    sparsity patterns of the generator's factors and of the photon number
    handed over with the drive (see steady_state).

    idx: the block's entries, sorted: the connected component of entry
        (0,0) in the structural pattern of L, the pattern before exact
        cancellations, so it holds the block of every model with these
        factor patterns.
    pops: positions of the populations |i><i| in the block; fewer than n
        when they split structurally.
    block: the _Sums of L's terms on the block, in CSR order.
    off_diagonal: which of the block's stored entries lie off its diagonal.
    m_src, m_indptr, m_indices: the trace-row system M of the block in CSC
        order, entry k taken from [1 at each of pops, block values][m_src[k]].
    order: the photon order N_i + N_j of each entry |i><j| of the block,
        N = photons; None for a model without a drive.
    levels: the _Levels of M under that order, or None.
    All of it is block-sized: no array of the n^2 space outlives __init__.
    """

    def __init__(self, terms: list, photons: np.ndarray | None, n: int):
        rows, cols = _kron_sum(terms, n)[:2]
        labels = _component_labels(
            scipy.sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n * n, n * n)))
        self.idx = np.flatnonzero(labels == labels[0])
        del labels
        m = self.idx.size
        pos = np.full(n * n, -1)
        pos[self.idx] = np.arange(m)
        self.pops = pos[:: n + 1][pos[:: n + 1] >= 0]
        sel = np.flatnonzero(pos[rows] >= 0)   # a component: its rows' columns are in it
        self.block = _sums(terms, n, sel, pos[rows[sel]], pos[cols[sel]], m)
        indptr, indices = self.block.indptr, self.block.indices
        self.off_diagonal = indices != np.repeat(np.arange(m), np.diff(indptr))
        # M replaces L's row 0 by the trace row; a CSC conversion of the
        # entry numbers gives each stored entry of M its source
        k, row0 = self.pops.size, indptr[1]
        ids = np.concatenate([np.arange(k), k + np.arange(row0, indices.size)])
        M = scipy.sparse.csr_matrix(
            (ids.astype(float), np.concatenate([self.pops, indices[row0:]]),
             np.concatenate([[0], k + indptr[1:] - row0])), shape=(m, m)).tocsc()
        self.m_src, self.m_indptr, self.m_indices = M.data.astype(np.intp), M.indptr, M.indices
        self.order = self.levels = None
        if photons is not None:
            i, j = np.divmod(self.idx, n)
            self.order = photons[i] + photons[j]
            self.levels = _Levels(M, self.order)

    def assemble(self, terms: list, n: int) -> tuple:
        """(idx, Lc, M, P) of steady_state for a model with these factor
        patterns: the values of its terms summed onto the block, the
        block's trace check, and the population sector inside the block."""
        m = self.idx.size
        vals = _summed(_factor_values(terms, n), self.block)
        Lc = scipy.sparse.csr_matrix((vals, self.block.indices.copy(), self.block.indptr.copy()),
                                     shape=(m, m))
        src = np.concatenate([np.ones(self.pops.size), vals])[self.m_src]
        M = scipy.sparse.csc_matrix((src, self.m_indices.copy(), self.m_indptr.copy()),
                                    shape=(m, m))
        P = None if self.levels is None else self.levels.gather(src)
        # entries that cancel exactly are dropped, as liouvillian drops them
        M.eliminate_zeros()
        split = np.any((vals == 0) & self.off_diagonal)
        Lc.eliminate_zeros()
        t = np.zeros(m)
        t[self.pops] = 1.0
        _check_trace(Lc, t)
        idx = self.idx
        # the structural block is connected, so only populations outside it
        # or an off-diagonal entry that cancels can split the sector
        if self.pops.size < n or split:
            labels = np.full(n * n, -1)
            labels[idx] = _component_labels(Lc)
            idx = _sector(labels, n)
            if idx.size < m:
                sub = np.searchsorted(self.idx, idx)
                Lc, M = Lc[sub][:, sub], M[sub][:, sub]
                if P is not None:
                    P = _Levels(M, self.order[sub]).gather(M.data)
        return idx, Lc, M, P


class _Levels:
    """The structure of P, the photon-order block-lower-triangular part of
    a trace-row system M (see steady_state): the entries of M whose column
    has a photon order at most its row's.

    perm: M's entries in level order, each level a contiguous slice
        bounds[l]:bounds[l + 1], and within it in the minimum-degree order
        of its diagonal block (_min_degree on the block's pattern), kept
        here so that no level goes through _order's cache.
    diag, lower: for each level, the diagonal block of M[perm][:, perm]
        in CSC and the block of its rows left of it in CSR, each as
        (slots, indices, indptr, shape), slots the positions of their
        entries in M's CSC data.
    """

    def __init__(self, M: scipy.sparse.csc_matrix, order: np.ndarray):
        pos = scipy.sparse.csc_matrix((np.arange(1.0, M.nnz + 1), M.indices, M.indptr),
                                      shape=M.shape)   # 1 + the position of each entry
        perm = np.argsort(order, kind="stable")
        self.bounds = np.append(np.flatnonzero(np.diff(order[perm], prepend=-1)), order.size)
        spans = list(zip(self.bounds[:-1], self.bounds[1:]))
        A = pos[perm][:, perm]
        for s, e in spans:
            perm[s:e] = perm[s:e][_min_degree(A[s:e, s:e])[0]]
        A = pos[perm][:, perm]
        self.perm, self.diag, self.lower = perm, [], []
        for s, e in spans:
            for out, block in ((self.diag, A[s:e, s:e]), (self.lower, A[s:e, :s].tocsr())):
                block.sort_indices()
                out.append((block.data.astype(np.intp) - 1, block.indices, block.indptr,
                            block.shape))

    def gather(self, data: np.ndarray) -> _LevelSystem:
        """P of the M whose CSC data is data, its exact zeros dropped."""
        zeros = not data.all()
        blocks = []
        for fmt, parts in ((scipy.sparse.csc_matrix, self.diag),
                           (scipy.sparse.csr_matrix, self.lower)):
            blocks.append([])
            for slots, indices, indptr, shape in parts:
                if zeros:   # dropped in place, so not on the plan's own arrays
                    b = fmt((data[slots], indices.copy(), indptr.copy()), shape=shape)
                    b.eliminate_zeros()
                else:
                    b = fmt((data[slots], indices, indptr), shape=shape)
                blocks[-1].append(b)
        return _LevelSystem(self.perm, self.bounds, *blocks)


_LevelSystem = namedtuple("_LevelSystem", "perm bounds diag lower")


class _LevelLU:
    """The exact solve of P = _LevelSystem: each diagonal block factored
    (_splu, in the level's kept order), and P x = b solved by forward
    substitution over the levels, each level's block left of the diagonal
    applied as a sparse product. An exactly singular level block raises
    RuntimeError, as splu does."""

    def __init__(self, P: _LevelSystem):
        self.P = P
        self.lus = [_splu(D) for D in P.diag]

    def solve(self, b: np.ndarray) -> np.ndarray:
        P = self.P
        y = np.asarray(b, complex)[P.perm]
        for lu, B, s, e in zip(self.lus, P.lower, P.bounds[:-1], P.bounds[1:]):
            if s:
                y[s:e] -= B @ y[:s]
            y[s:e] = lu.solve(y[s:e])
        x = np.empty_like(y)
        x[P.perm] = y
        return x

    @property
    def nnz(self) -> int:
        return sum(lu.nnz for lu in self.lus)


def _keys(indptr: np.ndarray, indices: np.ndarray, m: int) -> np.ndarray:
    """line * m + index of each stored entry of a compressed m x m matrix:
    increasing when its indices are sorted."""
    return np.repeat(np.arange(m, dtype=np.int64), np.diff(indptr)) * m + indices


def _sums(terms: list, n: int, sel: np.ndarray, major: np.ndarray, minor: np.ndarray,
          size: int) -> _Sums:
    """How entries sel of _kron_sum(terms, n), at (major, minor) of a
    compressed size x size matrix, sum into it, as scipy's conversion of
    a coordinate list sums them: the lines are filled in list order,
    sort_indices sorts each line, and a run of equal indices is added left
    to right. The sort is done once, here, by scipy itself on the entries'
    numbers, so _summed gives the conversion's bits.

    Returns a _Sums: left and right, the positions in the value arrays of
    _factor_values of the two factors of each stored entry's first
    contribution, then of each entry's second, and so on; runs, the stored
    entries that take each further contribution; and the structure,
    duplicates summed.
    """
    sizes = np.array([[n if f is None else f[0].size for f in term] for term in terms])
    starts = np.concatenate([[0], np.cumsum(sizes[:, 0] * sizes[:, 1])])
    term = np.searchsorted(starts, sel, side="right") - 1
    p, q = np.divmod(sel - starts[term], sizes[term, 1])
    left = np.concatenate([[0], np.cumsum(sizes[:, 0])])[term] + p
    right = np.concatenate([[0], np.cumsum(sizes[:, 1])])[term] + q
    order = np.argsort(major, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(major, minlength=size))])
    lines = scipy.sparse.csr_matrix((order.astype(float), minor[order], indptr),
                                    shape=(size, size))
    lines.sort_indices()
    entry = lines.data.astype(np.intp)
    key = _keys(lines.indptr, lines.indices, size)
    first = np.flatnonzero(np.diff(key, prepend=-1))
    count = np.diff(first, append=key.size)
    runs = [np.flatnonzero(count > j) for j in range(1, count.max(initial=1))]
    take = entry[np.concatenate([first] + [first[r] + j for j, r in enumerate(runs, 1)])]
    return _Sums(left[take], right[take], runs,
                 np.concatenate([[0], np.cumsum(np.bincount(key[first] // size, minlength=size))]),
                 lines.indices[first])


_Sums = namedtuple("_Sums", "left right runs indptr indices")


def _factor_values(terms: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The values of the left and of the right factors of terms, each
    concatenated in term order; the identity's are n ones."""
    ones = np.ones(n)
    return (np.concatenate([ones if a is None else a[2] for a, _ in terms]),
            np.concatenate([ones if b is None else b[2] for _, b in terms]))


def _summed(values: tuple[np.ndarray, np.ndarray], sums: _Sums) -> np.ndarray:
    """The stored values of the matrix that _sums planned, from the factor
    values of _factor_values: each contribution is the product of its two
    factors, and the contributions to an entry are added in scipy's order."""
    left, right = values
    v = left[sums.left] * right[sums.right]
    out, start = v[: sums.indices.size], sums.indices.size
    for r in sums.runs:
        out[r] += v[start:start + r.size]
        start += r.size
    return out


def _population_block(model: LindbladModel) -> tuple:
    """(idx, Lc, M, P) of steady_state, from the model's _BlockPlan: made
    on the first model with its factor patterns and photon numbers
    (model.hamiltonian.meta["photons"]) and kept, for the last
    PLAN_CACHE_SIZE such sets, under the exact key of the photon numbers
    and of every factor's (row, col) arrays."""
    n = model.space.total_dim
    terms, photons = _generator_terms(model), model.hamiltonian.meta.get("photons")
    key = (n, None if photons is None else np.asarray(photons, np.int64).tobytes()) + tuple(
        tuple(None if f is None else (np.asarray(f[0], np.int64).tobytes(),
                                      np.asarray(f[1], np.int64).tobytes()) for f in term)
        for term in terms)
    plan = _cached(_PLANS, PLAN_CACHE_SIZE, key, lambda: _BlockPlan(terms, photons, n))
    return plan.assemble(terms, n)


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
    condition, and the square system M x = e_0 is solved by iterative
    refinement on the exact solve of a simpler system P.
    - Only the block is built. Its symbolic part is a _BlockPlan, made
      once per sparsity pattern of the generator's factors (the K_L, K_R
      and jump triplets that liouvillian writes) and photon numbers, and
      kept for the last PLAN_CACHE_SIZE = 8 such sets under their exact
      key, as _order keeps orders. It holds the block's entries, taken
      from the structural pattern of L (before exact cancellations, so it
      holds the sector of every point with that pattern); which products
      of factor entries land in the block, where, and in which order
      scipy's CSR conversion would add them; the slots of the trace row in
      M; and P's levels (_Levels). A point then forms the block's values,
      Lc, M and P's blocks, with the bits that slicing liouvillian(model)
      gives (tier-1 test), checks the block's trace, drops its exact
      zeros, and labels the block's components when an off-diagonal entry
      has cancelled or the populations lie outside it, so split
      populations and cancellations are caught as on the full L. On the
      g2scan sector (rwa a4/s4/m6, 1216 of 9216 entries) the block and P's
      blocks take 2 to 2.5 ms a point against 7.1 to 8.6 ms for the full
      L, its labels and the slicing (one BLAS thread); the plan takes
      18 ms, once. The full liouvillian(model) is built only for
      check_unique, which needs the blocks outside the sector.
    - P is the photon-order block-lower-triangular part of M. With
      N = model.hamiltonian.meta["photons"], the photon number of each
      basis state (handed over with a nonzero drive by models.build_rwa,
      n_a + n_s, and build_full, n_c1 + n_c2), the entry |i><j| has the
      order c = N_i + N_j. The undriven H conserves N and the collapses
      never raise it, so M's entries run from order c to c (H, the decay,
      N-conserving jumps), from c - 1 to c and from c + 1 to c (the
      drive), and from c + 2 to c (the photon jumps), besides the trace
      row. P keeps those whose column's order is at most the row's: the
      diagonal level blocks and the drive's raising entries, the source
      of each photon order in the weak-drive hierarchy (Bamba et al., PRA
      83, 021802(R) (2011)). It drops the jumps, the drive's lowering
      entries and the trace row's populations above order 0. P is block
      lower triangular over the levels, so it is solved exactly by
      forward substitution (_LevelLU): only the diagonal level blocks are
      factored, each in a minimum-degree order of its pattern kept in the
      plan, and each block left of the diagonal is applied as a sparse
      product. On the g2scan sector that is 13 levels whose factors store
      9,015 entries in all, against 218,844 for M's. For a model without
      a drive (no meta["photons"]) P = M.
    - M's factor, for the check and the fallback, comes from _factor: a
      minimum-degree column order on the nearly symmetric pattern of
      A + A^T, kept by threshold pivoting that takes a diagonal pivot down
      to 0.1 of its column's largest entry (the level blocks are factored
      with the same pivoting). The order is computed from the pattern
      alone (_order) and cached per pattern, so the points of a scan,
      which share one pattern, are ordered once.
    - From x = P^-1 e_0, each refinement step takes r = e_0 - M x, solves
      M d = r by one GMRES cycle (at most KRYLOV_RESTART iterations, to
      KRYLOV_RTOL of |r|) preconditioned by P's solve, and sets x += d:
      GMRES-based iterative refinement on an exact solve of a nearby
      system (Carson & Higham, SIAM J. Sci. Comput. 39, A2834 (2017)). With
      P = M the factor is exact and the step is x += M^-1 r itself
      (Skeel, Math. Comp. 35, 817 (1980)), with no Krylov iteration.
    - The steps stop when the componentwise backward error
      omega = max_i |r_i| / (|M||x| + |e_0|)_i (Oettli & Prager, Numer.
      Math. 6, 405 (1964)) is at most BACKWARD_ERROR_STOP = 1e-12: x then
      solves (M + dM) x = e_0 exactly for some |dM| <= 1e-12 |M|, entry by
      entry. That holds each row to its own scale, which a residual norm
      cannot do: the norm is set by the populations of order 1, while the
      two-photon entries behind g2 are of order 1e-9 at a weak drive, so
      errors far larger than rounding in them leave it untouched (at
      N_th = 1 with m10, an un-refined COLAMD LU puts g2 5.9e-6 to 6.9e-6
      relative off at a residual of 1.4e-16). Run on past the stop, omega
      levels off between 1.5e-16 and 5.3e-14 at the nine g2scan points
      and wanders there from step to step. 1e-12 was set as the first
      decade above the floor of a preconditioner without the drive
      entries (3e-13), and it keeps that margin. At the stop, g2 agrees
      with the LU of M to 4.2e-15 relative over the 161 points of
      configs/antibunching_g2scan.cfg.
    - Without the stop after REFINE_STEP_CAP = 8 steps, or with an exactly
      singular level block (say, undamped phonons), M is factored and
      solved with one refinement step on its own factor, and
      report.lu_fallback says so. A solution that is not finite raises
      SolverError at once, from any factor and before any Krylov step: it
      is never retried.
    - The g2scan points take 8 to 12 Krylov iterations in all (23 to 28
      with the drive left out of the preconditioner), and the thermal
      sectors fewer: 3 at N_th = 1 with m10, m20, and a5/s5/m20 (11,500
      entries, 0.15 s, where the drive-free preconditioner fell back to
      M's LU after 8 stalled steps, about 6 s). The iteration converges at
      strong drive too (Omega_a = 0.1 to 1 kappa on the g2scan point, g2
      within 1e-12 of the LU), with more: 11 at 0.1 kappa, 15 at 0.3 kappa
      and 25 at kappa.
    Every factor is a function of its own matrix and order, each order a
    function of a pattern, and the iteration a function of M and P, so the
    result is a function of the model alone, whatever was
    solved before it in the process: the same for any point order or
    number of jobs. The residual |L x| is checked on the n^2 vector: the
    block's product, scattered into it, has the bits of the full product,
    since the rows outside the sector are zero. Above 1e-9, or not finite,
    it raises SolverError.

    The trace-augmented system could not do better. Let A = [L_CC; t_C]
    be that system on the sector C. Trace preservation makes the
    population rows of L sum to zero, so the replaced (0,0) row is minus
    the sum of the other population rows. Hence ker M = ker A: the two are
    singular together. The same identity gives |A x|^2 <= n |M x|^2, with n
    the Hilbert-space dimension, so cond(M) <= sqrt(n) cond(A). The normal
    equations of A have cond(A)^2, so they are better conditioned only when
    cond(A) < sqrt(n), where the LU of M is already accurate to about 1e-14.
    M is singular exactly when 0 is not a simple eigenvalue of L_CC (a
    second null vector, or a Jordan chain, is traceless and lies in ker M),
    so an exactly singular LU of M raises SolverError.

    check_unique verifies, block by block, that |lambda_1| of the full L
    exceeds 1e-8; a degenerate null space (dark state or disconnected
    sector) raises SolverError. report.null_gap is that |lambda_1|. The
    spectrum of L is the union of its blocks' spectra, and a second steady
    state may sit in any block: a Hermitian jump c + c^dag on a qubit keeps
    sigma_x stationary in the {01, 10} block, and a cyclic jump |k+1><k| on
    three levels keeps c and c^2 in the blocks of charge difference 1 and 2,
    while the population block of both has a gap. One routine (_block_gap)
    measures a block's gap: ARPACK finds the largest |mu| of the block's
    inverse from solves alone, or a dense eigvals does for a small block.
    - The population block's |lambda_1| is measured with the LU of M, the
      one factorization the check adds (none for a model without a drive,
      whose solve uses that factor too). With Pi = I - e_0 e_0^T,
      let L_CC v = lambda v with lambda != 0. Then t_C^T v = 0, since
      t_C^T L_CC = 0, so M v = lambda Pi v and M^-1 Pi v = v / lambda; with
      M^-1 Pi e_0 = 0 the spectrum of M^-1 Pi is {0} and the 1/lambda. Its
      largest |mu| is 1/|lambda_1|.
    - Every other block B would need a factor of its own, so it is measured
      only where a proven bound falls short. Since L(X^dag) = L(X)^dag
      for Hermitian H, the transpose (i,j) -> (j,i) maps each block onto a
      block with the complex-conjugate spectrum, so one block of each such
      pair is checked. By Gershgorin's theorem every eigenvalue of B lies
      in a disc |z - B_ii| <= sum_{j != i} |B_ij| for some i, so
      min |lambda(B)| >= min_i (|B_ii| - sum_{j != i} |B_ij|), and the same
      holds with column sums, as B^T has the spectrum of B. One pass over
      |L| gives both for every block. Where the discs reach the origin the
      bound is useless (build_displaced at (4, 3, 5), where the true block
      gaps are 0.036 or more); a block whose bound falls below the
      population block's |lambda_1| is measured instead,
      min |lambda(B)| = 1/rho(B^-1), from its sparse LU. An exactly
      singular factor counts as lambda = 0.
    A block whose disc bound clears the population |lambda_1| cannot hold
    the full-space |lambda_1|, so null_gap is measured, not bounded. The
    disc bound is exact arithmetic on the entries of L; the measured gaps
    hold up to the rounding of the LU. For the g2scan model (rwa a4/s4/m6)
    the disc bound on every other block is 72 or more, far above the
    population |lambda_1| of about 0.01, so no block is factored.
    Populations split over several sectors raise SolverError even with
    check_unique=False, since each such sector carries its own steady
    state.
    """
    n = model.space.total_dim
    # the check's full L comes first, so that its assembly's peak adds to
    # nothing of the block's
    L = liouvillian(model) if check_unique else None
    idx, Lc, M, P = _population_block(model)
    m = idx.size
    lu = gap = None   # lu: the factor of M, made for the check or the fallback only
    if check_unique:
        lu = _factor_trace_system(M)
        lam1 = _block_gap(Lc, lu)
        gap = min(lam1, _coherence_gap(L, _component_labels(L), n, lam1))
        del L
        if not gap > NULL_GAP_ATOL:
            raise SolverError(
                f"degenerate Liouvillian null space (|lambda_1| bound {gap:.2e}); "
                "the model has a dark state or disconnected sector")

    rhs = np.zeros(m, dtype=complex)
    rhs[0] = 1.0
    try:
        lu0 = (lu or _factor(M)) if P is None else _LevelLU(P)
    except RuntimeError:   # an exactly singular factor (say, undamped phonons): solve M instead
        lu0 = None
    y, krylov, omega = (None, 0, np.inf) if lu0 is None else _refine(M, lu0, rhs, P is None)
    fallback = not omega <= BACKWARD_ERROR_STOP
    if fallback:
        lu0 = lu or _factor_trace_system(M)
        y = lu0.solve(rhs)
        y += lu0.solve(rhs - M @ y)
        omega = _backward_error(abs(M), y, rhs - M @ y, rhs)
    # |L x| as the n^2 vector it is: the rows outside the sector are zero,
    # and the norm of the scattered block product has the same bits
    x = np.zeros(n * n, dtype=complex)
    x[idx] = Lc @ y
    resid = float(np.linalg.norm(x))
    if not np.isfinite(resid) or resid > STEADY_RESIDUAL_ATOL:
        raise SolverError(f"steady-state residual {resid:.2e} exceeds tolerance")
    x[idx] = y
    rho = x.reshape(n, n)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    space = model.space
    p, occ = rho.diagonal().real, space.occupations
    tail = {lbl: float(p[occ[k] == dim - 1].sum()) for k, (lbl, dim) in enumerate(space.modes)}
    return SteadyStateReport(DensityMatrix(space, rho), resid, gap, m, lu0.nnz, tail,
                             krylov, omega, fallback)


def _factor_trace_system(M: scipy.sparse.csc_matrix) -> _PermutedLU:
    """_factor(M), with an exactly singular M raised as a degenerate null
    space (see steady_state)."""
    try:
        return _factor(M)
    except RuntimeError as exc:
        raise SolverError(
            f"degenerate Liouvillian null space: the trace-row system is singular ({exc})"
        ) from exc


def _backward_error(abs_m: scipy.sparse.csc_matrix, x: np.ndarray, r: np.ndarray,
                    rhs: np.ndarray) -> float:
    """Componentwise backward error max_i |r_i| / (|M||x| + |rhs|)_i of x,
    given |M| and the residual r = rhs - M x (Oettli & Prager, Numer. Math.
    6, 405 (1964)); a row whose denominator is 0 has a zero residual and
    counts 0. SolverError when x is not finite."""
    if not np.isfinite(x).all():
        raise SolverError("steady-state solve is not finite")
    denom = abs_m @ np.abs(x) + np.abs(rhs)
    ratio = np.divide(np.abs(r), denom, out=np.zeros(x.size), where=denom > 0)
    return float(ratio.max())


def _refine(M: scipy.sparse.csc_matrix, lu0, rhs: np.ndarray,
            exact: bool) -> tuple[np.ndarray, int, float]:
    """(x, Krylov iterations, backward error): M x = rhs by iterative
    refinement from x = lu0.solve(rhs), each correction a GMRES solve of M
    preconditioned by lu0, the exact solve of P; when lu0 is exact, the
    factor of M itself, the correction is M^-1 r (see steady_state). |M|
    is formed once, and each step's residual serves both its backward
    error and its correction."""
    krylov = []
    if exact:
        correct = lu0.solve
    else:
        precond = scipy.sparse.linalg.LinearOperator(M.shape, matvec=lu0.solve, dtype=complex)

        def correct(r):
            return scipy.sparse.linalg.gmres(
                M, r, rtol=KRYLOV_RTOL, restart=KRYLOV_RESTART, maxiter=1, M=precond,
                callback=krylov.append, callback_type="pr_norm")[0]
    abs_m = abs(M)
    x = lu0.solve(rhs)
    for step in range(REFINE_STEP_CAP + 1):
        r = rhs - M @ x
        omega = _backward_error(abs_m, x, r, rhs)
        if omega <= BACKWARD_ERROR_STOP or step == REFINE_STEP_CAP:
            break
        x += correct(r)
    return x, len(krylov), omega


def g2_zero(state: DensityMatrix, label: str) -> float:
    """Equal-time two-photon correlation <a+a+aa>/<a+a>^2 of one mode.

    a^dag a and a^dag^2 a^2 are diagonal in the Fock basis, so both means
    are read off the populations, weighted by the integer occupations n
    and n(n - 1).

    Raises ValueError when <a+a> <= 1e-12, or when g2 < -1e-12, which only
    a wrong state can give; a negative g2 of rounding size reads 0.
    """
    space = state.space
    n = space.occupations[space.index(label)]
    p = state.matrix.diagonal().real
    nbar = p @ n
    if nbar <= 1e-12:
        raise ValueError(f"mode {label!r} occupation {nbar:.2e} too small for g2")
    g2 = (p @ (n * (n - 1))) / nbar**2
    if g2 < -G2_NEGATIVE_ATOL:
        raise ValueError(f"g2 of mode {label!r} is {g2:.3e} < 0: the state is not physical")
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
    # total excitation number of each basis state, as integers
    n_tot = space.occupations.sum(axis=0)
    h = model.hamiltonian.matrix.tocoo()
    if np.any(n_tot[h.row] != n_tot[h.col]):
        raise ValueError("H does not conserve the excitation number "
                         "(drive term left in the Hamiltonian?)")
    for op, rate in model.collapses:
        m = op.matrix.tocoo()
        if rate != 0.0 and np.any(n_tot[m.row] != n_tot[m.col] - 1):
            raise ValueError("a collapse operator does not lower the excitation number by one")
    h_eff = model.hamiltonian.matrix - 1j * model.decay()
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
    """Rate of the collapse operator that is exactly the annihilator of
    mode label. The annihilator's canonical CSR holds the ladder_product
    triplets in row order, one entry a row (see hilbert.annihilator), so a
    collapse matches when its row counts, indices and data equal them; no
    annihilator is built and no difference is formed."""
    rows, cols, amps = ladder_product(model.space, {label: -1})
    per_row = np.bincount(rows, minlength=model.space.total_dim)
    for op, rate in model.collapses:
        c = op.matrix
        if (np.array_equal(np.diff(c.indptr), per_row) and np.array_equal(c.indices, cols)
                and np.array_equal(c.data, amps)):
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

    Returns k LabeledEigenvalue entries sorted by ascending real part; k
    outside [1, dim] raises ValueError.
    Each Fock level n = 0..k-1 of the hybridized B mode (taken from
    h_eff.meta["b_mode"]) is matched to the eigenvector of
    largest overlap with (B^dag)^n |vac> (the first on a tie), each level
    on its own: a label that passes OVERLAP_FLOOR is the only one its
    eigenvector can take (see below), so no exclusion is needed.

    One dense eig runs, on the blocks of H_eff that hold the targets
    (B^dag)^n |vac>, n < k: the weakly connected components of H_eff's
    sparsity graph (as steady_state finds the blocks of L) that meet a
    target's support. This is exact. H_eff is block diagonal over its
    components, so its spectrum is the union of the blocks' spectra, and
    every eigenvector of another block is zero on the kept coordinates, so
    its overlap with every target is zero. Two blocks that share an exact
    eigenvalue cannot mix their vectors either. When a charge Q is
    conserved (build_nonhermitian conserves n_a + n_m, and B^dag raises it
    by one), the targets sit in the blocks of Q = 0..k-1: 28 of the 135
    states at a5/s3/m9 for k = 4. A model without a conservation law is one
    block, decomposed whole. DENSE_EIG_LIMIT caps the kept size, and a
    target that the truncation cuts to zero raises ValueError.

    A level whose best overlap is at most OVERLAP_FLOOR = 1/2 raises
    ValueError naming n and the overlap: no eigenvector holds that level.
    The 1/2 is where a label becomes unambiguous. The targets are
    orthogonal, each in its own sector of n_a + n_m, with norm at most 1
    (B = cos(theta) b + sin(theta) c_a is a unit mode, so (B^dag)^n|vac> /
    sqrt(n!) is its Fock state, cut by the truncation to a projection).
    For a unit eigenvector v, Bessel's inequality then gives
    sum_n |<target_n|v>|^2 <= 1, so no v holds more than 1/2 of two
    levels. When every level's best overlap exceeds 1/2 the levels take
    distinct eigenvectors; at 1/2 or below one eigenvector may be the best
    match of two levels, and the label would be a guess. The shipped
    configs/phonon_eigen_benchmark.cfg gives 0.970 or more; a2/s2/m2 gives
    0.005 (alpha = 0.5) and 0.019 (alpha = 1) at n = 2.
    """
    dim = h_eff.space.total_dim
    if not 1 <= k <= dim:
        raise ValueError(f"k={k} must lie in [1, {dim}], the space dimension")
    b_mode = h_eff.meta.get("b_mode")
    if b_mode is None:
        raise ValueError("no B-mode operator available for Fock matching")
    bd = b_mode.matrix.conj().T.tocsr()
    targets = np.zeros((k, dim), dtype=complex)
    targets[0, 0] = 1.0
    for n in range(1, k):
        targets[n] = bd @ targets[n - 1] / np.sqrt(n)
    support = targets != 0
    if not support[-1].any():
        raise ValueError(f"(B^dag)^{k - 1}|vac> vanishes in this truncation: "
                         f"the ladder holds fewer than {k} levels")
    labels = _component_labels(h_eff.matrix)
    keep = np.flatnonzero(np.isin(labels, labels[support.any(axis=0)]))
    if keep.size > DENSE_EIG_LIMIT:
        raise SolverError(
            f"{keep.size} states too many for the dense eigensolver; reduce truncations")
    try:
        w, v = scipy.linalg.eig(h_eff.matrix[keep][:, keep].toarray())
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise SolverError(f"eigensolver failed: {exc}") from exc
    norms = np.linalg.norm(v, axis=0)

    assigned: list[LabeledEigenvalue] = []
    for n, target in enumerate(targets[:, keep]):
        ov = np.abs(target.conj() @ v) ** 2 / norms**2
        idx = int(np.argmax(ov))
        if not ov[idx] > OVERLAP_FLOOR:
            raise ValueError(
                f"level n={n} has best overlap {ov[idx]:.3g} <= {OVERLAP_FLOOR} with "
                f"(B^dag)^{n}|vac>: no eigenvector holds it; enlarge the truncations")
        assigned.append(LabeledEigenvalue(n, complex(w[idx]), float(ov[idx])))
    assigned.sort(key=lambda e: e.value.real)
    return assigned
