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

import functools
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy

from .hilbert import DensityMatrix, ModeSpace, Operator, _components, ladder_product

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
    with no kron products: _gather on every entry, the one enumeration of
    the contributions that a _BlockPlan and the uniqueness check use too.
    The CSR conversion sums duplicates (for ladder collapses only on the
    diagonal, where K_L and K_R meet), and entries that cancel exactly are
    dropped, as an operator sum drops them. The trace functional is
    verified to annihilate the generator: |vec(I)^T L| <= 1e-10 columnwise
    (relative to the largest entry). steady_state never builds it: its
    blocks come from a _BlockPlan and _gather, and this is their oracle.
    """
    n = model.space.total_dim
    L = _gather(_generator_terms(model), n, np.arange(n * n))
    _check_trace(L, np.eye(n).ravel())   # the trace functional vec(I)
    return L


def _generator_terms(model: LindbladModel) -> list:
    """The terms of L, each a pair of n x n (row, col, val) triplets or
    None for the identity: K_L kron I, I kron K_R and
    2 rate_k c_k kron conj(c_k) for each collapse of nonzero rate."""
    h, decay = model.hamiltonian.matrix, model.decay()
    jumps = []
    for op, rate in model.collapses:
        if rate == 0.0:
            continue
        row, col, val = _triplet(op.matrix)
        jumps.append(((row, col, (2.0 * rate) * val), (row, col, val.conj())))
    k_r = _triplet((1j * h - decay).T.tocsr())   # K_R is a transpose
    return [(_triplet(-1j * h - decay), None), (None, k_r)] + jumps


def _triplet(a: scipy.sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, col, val) of a CSR matrix's stored entries in storage order,
    as tocoo gives them: in row order."""
    rows = np.repeat(np.arange(a.shape[0], dtype=a.indices.dtype), np.diff(a.indptr))
    return rows, a.indices, a.data


def _check_trace(L: scipy.sparse.csr_matrix, t: np.ndarray) -> None:
    """SolverError unless |t^T L| <= TRACE_PRESERVATION_ATOL columnwise,
    relative to the largest entry of L (at least 1)."""
    worst = np.abs(t @ L).max(initial=0.0)
    if worst > TRACE_PRESERVATION_ATOL * np.abs(L.data).max(initial=1.0):
        raise SolverError(f"Liouvillian is not trace preserving: {worst:.2e}")


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
    """The one random vector: a seeded complex ARPACK start vector, whose
    real part starts the real-mode ARPACK on M's real form."""
    rng = np.random.default_rng(0)
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


@dataclass
class SteadyStateReport:
    """Steady state with the evidence that it is the right one.

    residual: |L x|_2 of the solution, the norm of the n^2 vector L x,
        formed from the population block alone (see steady_state).
    null_gap: with check_unique, |lambda_1| of the full Liouvillian,
        which is never built: the smaller of the population block's
        |lambda_1|, every component of the block included, measured with
        the real LU of R = Re(T^-1 M T), the real form of the trace-row
        system M, formed by two sparse products (_BlockPlan.real), and the
        smallest |lambda| of the other blocks whose disc bound, taken from
        the generator's kron factors, falls below it, each gathered from
        those factors and measured too (see steady_state). None without
        the check.
    solved_dim: size of the linear system solved: the plan's structural
        population block, which also holds any component that exact
        cancellations cut from the populations' sector.
    lu_nnz: entries SuperLU stores in the factors the solution was refined
        on: the summed fill of P's level factors (one level, M itself, for
        a model without a drive), or, after the fallback, the real entries
        of the factor of R = Re(T^-1 M T), M's real form, that the check
        shares.
    fock_tail: population of the top Fock level of each mode, by label,
        read off the diagonal of the state: the truncation's evidence.
    krylov_iterations: GMRES iterations over every refinement step, the
        fallback's included. On an exact factor a step takes about one,
        and none are needed when its first solve meets the stop.
    backward_error: componentwise backward error of the solution of M,
        with rows of rounding size judged normwise (_backward_error).
    lu_fallback: whether the refinement on P missed BACKWARD_ERROR_STOP
        within REFINE_STEP_CAP steps, or a level block of P was singular,
        so the refinement ran again on the factor of M's real form.
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


def _block_gap(B: scipy.sparse.csr_matrix, factor: Callable[[], _LevelLU] | None) -> float:
    """Smallest |lambda| of a block B of L, measured.

    Given factor, which makes the factor of the real form R = Re(T^-1 M T)
    of the trace-row system M of the population block B, formed by two
    sparse products (_BlockPlan.real_factor), it is |lambda_1| instead:
    R^-1 Pi has the nonzero eigenvalues of M^-1 Pi, whose largest |mu| is
    1/|lambda_1| (see steady_state), and ARPACK finds it in real
    arithmetic. Given None, B is factored (_factor) and the largest |mu|
    of B^-1 is 1/min |lambda|; an exactly singular factor gives 0.
    ARPACK finds that |mu| from solves alone (k = 2, since a population
    block's spectrum comes in conjugate pairs), from the seeded start
    vector, or its real part for R. A block of at most GAP_DENSE_LIMIT
    entries takes a dense eigvals, and factor is not called: with one BLAS
    thread that takes 1 ms at 40 entries, 4 ms at 72 and 11 ms at 108,
    against 1 to 5 ms for the LU and ARPACK of such a coherence block, and
    1 ms for ARPACK alone on a population block (displaced (3, 2, 7) and
    (2, 3, 3)).
    """
    m = B.shape[0]
    if m <= GAP_DENSE_LIMIT:
        w = np.sort(np.abs(scipy.linalg.eigvals(B.toarray())))
        return float(w[0] if factor is None else w[1])
    v0 = _start_vector(m)
    if factor is None:
        try:
            B = B.tocsc()
            solve = _factor(B, _min_degree(B)).solve
        except SolverError:   # an exactly singular factor: lambda = 0
            return 0.0
    else:
        v0, lu = v0.real, factor()

        def solve(v):
            v = v.copy()
            v[0] = 0.0
            return lu.solve(v)

    try:
        op = scipy.sparse.linalg.LinearOperator((m, m), matvec=solve, dtype=v0.dtype)
        w = scipy.sparse.linalg.eigs(op, k=2, which="LM", return_eigenvectors=False,
                                     maxiter=5000, v0=v0)
    except (scipy.sparse.linalg.ArpackNoConvergence, RuntimeError) as exc:
        raise SolverError(f"null-space gap estimation failed: {exc}") from exc
    return float(1.0 / np.abs(w).max())


def _disc_gaps(terms: list, n: int) -> np.ndarray:
    """(2, n^2): for each row r of L, a lower bound on its Gershgorin gap
    |L_rr| - sum_{c != r} |L_rc|, and the same for each column, from the
    kron factors of terms alone (n x n work; no entry of L is formed).

    A term A kron B puts A_ii B_jj on the diagonal at (i, j), and adds at
    most rowsum|A|_i rowsum|B|_j - |A_ii| |B_jj| to the row's off-diagonal
    sum (column sums likewise). The bound is exact, up to rounding, where
    no two terms meet off the diagonal and nothing cancels there.
    """
    diag = np.zeros((n, n), complex)
    off = np.zeros((2, n, n))
    for a, b in terms:
        (da, sa), (db, sb) = _abs_sums(a, n), _abs_sums(b, n)
        diag += np.multiply.outer(da, db)
        own = np.multiply.outer(np.abs(da), np.abs(db))
        for k in (0, 1):
            off[k] += np.multiply.outer(sa[k], sb[k]) - own
    return (np.abs(diag) - off).reshape(2, n * n)


def _abs_sums(f, n: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """(diagonal, (row sums of |f|, column sums of |f|)) of an n x n
    (row, col, val) triplet, or of the identity for None."""
    if f is None:
        ones = np.ones(n)
        return ones, (ones, ones)
    row, col, val = f
    diag = np.zeros(n, complex)
    on = row == col
    np.add.at(diag, row[on], val[on])
    mag = np.abs(val)
    return diag, (np.bincount(row, mag, minlength=n), np.bincount(col, mag, minlength=n))


def _disc_bounds(gaps: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gershgorin lower bound on min |lambda| of each labelled block of L,
    given the gaps of its entries' rows and columns (_disc_gaps): the
    larger of its rows' least gap and its columns' least gap."""
    rows = np.full(labels.max() + 1, np.inf)
    cols = rows.copy()
    np.minimum.at(rows, labels, gaps[0])
    np.minimum.at(cols, labels, gaps[1])
    return np.maximum(rows, cols)


def _coherence_gap(terms: list, n: int, labels: np.ndarray, floor: float) -> float:
    """min |lambda| over the blocks of L that labels marks, the block of
    labels[0] left out, or a proven lower bound on it of at least floor;
    inf when there are none. Of each pair of blocks related by
    rho -> rho^dag one is taken. A block whose disc bound (_disc_gaps,
    _disc_bounds) falls below floor is gathered from the terms (_gather)
    and measured (_block_gap). See steady_state."""
    bounds = _disc_bounds(_disc_gaps(terms, n), labels)
    first = np.unique(labels, return_index=True)[1]
    row, col = np.divmod(first, n)
    partner = labels[col * n + row]   # the block of the transposed entry
    bound = np.inf
    for c in np.flatnonzero(np.arange(first.size) <= partner):
        if c == labels[0]:
            continue
        block = bounds[c]
        if block < floor:
            block = _block_gap(_gather(terms, n, np.flatnonzero(labels == c)), None)
        bound = min(bound, block)
    return bound


def _gather(terms: list, n: int, e: np.ndarray) -> scipy.sparse.csr_matrix:
    """L[e][:, e] of liouvillian(model), in bits, for the sorted entries e
    of a block of L, from the terms alone: the products of _contributions,
    summed by scipy's conversion with its exact zeros dropped."""
    r, c, p, q = _contributions(terms, n, e)
    left, right = _factor_values(terms, n)
    vals = left[p]
    vals *= right[q]
    B = scipy.sparse.coo_matrix((vals, (r, c)), shape=(e.size, e.size)).tocsr()
    B.eliminate_zeros()
    return B


def _contributions(terms: list, n: int, e: np.ndarray) -> tuple:
    """(r, c, p, q): each contribution of the terms to the rows e of L, the
    sorted entries of a structural block, at row r and column c of
    L[e][:, e] (32-bit while n^2 fits), the product of the factor values p
    and q (positions in the arrays of _factor_values). Term by term and
    row by row, the contributions of a row (i, j) run over the stored
    entries of row i of the left factor, and within each over those of row
    j of the right factor, in storage order: each row in the order of a
    list of the terms' kron products, the only order on which the sums of
    scipy's stable COO-to-CSR conversion depend. e is a structural block,
    so every column lies in it; a column outside e gets index -1, which
    scipy's COO constructor rejects."""
    index = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    pos, r = np.full(n * n, -1, index), np.arange(e.size)
    pos[e] = r
    i, j = np.divmod(e, n)
    ptrs = [[None if f is None else np.searchsorted(f[0], np.arange(n + 1)) for f in t]
            for t in terms]
    mask = np.zeros(n * n)
    mask[e] = 1.0   # a term's count: its row sizes on either side, summed over e
    count = int(sum((np.ones(n) if a is None else np.diff(a)) @ mask.reshape(n, n)
                    @ (np.ones(n) if b is None else np.diff(b)) for a, b in ptrs))
    rc, pq, s, start = np.empty((2, count), index), np.empty((2, count), int), 0, np.zeros(2, int)
    for (a, b), (a_ptr, b_ptr) in zip(terms, ptrs):
        g, p = _expand(a_ptr, i)
        h, q = _expand(b_ptr, j[g])
        p = p[h]
        t = slice(s, s + q.size)
        rc[0, t] = r[g][h]
        col = np.multiply(p if a is None else a[1][p], n, dtype=int)
        col += q if b is None else b[1][q]
        np.take(pos, col, out=rc[1, t])
        np.add(p, start[0], out=pq[0, t])
        np.add(q, start[1], out=pq[1, t])
        s = t.stop
        start += [n if f is None else f[0].size for f in (a, b)]
    return (*rc, *pq)


def _expand(ptr: np.ndarray | None, rows: np.ndarray) -> tuple:
    """(g, k): the stored entries of each of rows of a factor with row
    pointers ptr, row by row: the index in rows of each entry's row, and
    the entry's position. For the identity (None) each row's one entry is
    the row itself, and g a slice."""
    if ptr is None:
        return slice(None), rows
    counts, starts = np.diff(ptr)[rows], ptr[rows]
    if counts.max(initial=0) <= 1:   # ladder and jump factors: skip the repeats
        g = np.flatnonzero(counts)
        return g, starts[g]
    g = np.repeat(np.arange(rows.size), counts)
    return g, np.arange(g.size) + np.repeat(starts - np.cumsum(counts) + counts, counts)


PLAN_CACHE_SIZE = 8
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


def _min_degree(A: scipy.sparse.csc_matrix) -> np.ndarray:
    """q such that A[q][:, q] is A in SuperLU's minimum-degree column order
    perm_c on the pattern of A + A^T (q = argsort(perm_c)): a function of
    A's pattern alone.

    scipy computes no order without a factorization, so it comes from an
    incomplete LU of a proxy with A's pattern: unit entries plus m on the
    diagonal, strictly diagonally dominant (a row holds at most m - 1
    off-diagonal entries), so nothing is singular and drop_tol = 1 keeps
    little more than the diagonal. The ILU orders as splu does (the same
    minimum degree and elimination-tree postorder, from the pattern only)
    at a fraction of its cost: 7.3 ms against 26.5 ms for the LU of the
    g2scan sector (rwa a4/s4/m6), 18 ms against 130 ms at m10 with
    N_th = 1. Its perm_c equals splu's own on both and on the largest
    coherence block of displaced (4, 3, 5) (tier-1 test).
    """
    m = A.shape[0]
    proxy = (scipy.sparse.csc_matrix((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape)
             + m * scipy.sparse.identity(m, format="csc"))
    ilu = scipy.sparse.linalg.spilu(
        proxy, drop_tol=1.0, fill_factor=1.0, permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.1, options={"SymmetricMode": True})
    return np.argsort(ilu.perm_c)


def _factor(A: scipy.sparse.csc_matrix, q: np.ndarray) -> _LevelLU:
    """Sparse LU of a block of L or of the real form R = Re(T^-1 M T) of
    its trace-row system M: the _LevelLU of A as one level, A[q][:, q] in
    the order q, which the caller computes: _min_degree of A's pattern, or
    the pair order that the plan keeps with T (_BlockPlan.real). An
    exactly singular A raises SolverError: a block of L or a trace-row
    system with a second null vector (see steady_state).

    The order is a minimum degree on the pattern of A + A^T, which is
    nearly symmetric (only the c rho c^dag jumps are one-way). Threshold
    pivoting that takes the diagonal entry whenever it is at least 0.1 of
    its column's largest keeps that order; at the default threshold 1.0
    the row swaps undo it. SuperLU never orders anything itself: left to
    its own minimum degree it picks the same order, but where A has zero
    diagonal entries it can store more fill (130,002 against 96,253
    entries for M of the undamped g2scan model). So the factor is a
    function of the model: its bits cannot depend on which system came
    first or on how a scan is split over processes.
    """
    try:   # one level: nothing lies left of its diagonal block
        return _LevelLU(_LevelSystem(q, np.array([0, A.shape[0]]), [A[q][:, q]], [None]))
    except RuntimeError as exc:
        raise SolverError(f"degenerate Liouvillian null space: singular factor ({exc})") from exc


def _splu(A: scipy.sparse.csc_matrix):
    """SuperLU's factor of A in its natural order, with _factor's pivoting."""
    return scipy.sparse.linalg.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.1,
                                    options={"SymmetricMode": True})


def _structural_labels(terms: list, n: int) -> np.ndarray:
    """The weak component of each of the n^2 entries in the structural
    pattern of L = sum_k A_k kron B_k, labelled from the factors' patterns.

    The one-sided terms make L's graph the Cartesian product of two
    n-node graphs, that of the left factors A of the (A, I) terms and
    that of the right factors B of the (I, B) terms, whose components are
    the pairs (component of i, component of j). A two-sided term A kron B
    can only merge pairs, along (the component edges of A) x (the
    component edges of B). So the components are those of the small graph
    of pairs (_components). The components of each side are numbered by
    their first node, so the pairs run in the order of their first entries
    i n + j, and numbering the pair graph's components by first occurrence
    numbers L's as scipy's connected_components does on L's pattern."""
    sides = ([a for a, b in terms if b is None], [b for a, b in terms if a is None])
    left, right = (_components(*(np.concatenate([f[k] for f in side]) for k in (0, 1)), n)
                   for side in sides)
    kl, kr = left.max() + 1, right.max() + 1
    ends = ([np.zeros(0, int)], [np.zeros(0, int)])
    for a, b in terms:
        if a is not None and b is not None:   # a jump: pairs of its component edges
            (a0, a1), (b0, b1) = (np.divmod(np.unique(c[f[0]] * k + c[f[1]]), k)
                                  for c, f, k in ((left, a, kl), (right, b, kr)))
            ends[0].append((a0[:, None] * kr + b0).ravel())
            ends[1].append((a1[:, None] * kr + b1).ravel())
    pair = _components(*(np.concatenate(x) for x in ends), kl * kr)
    return pair[left[:, None] * kr + right].astype(np.int32).ravel()


class _BlockPlan:
    """The symbolic half of L's population block, a function of the
    sparsity patterns of the generator's factors and of the photon number
    handed over with the drive (see steady_state).

    labels: the connected component of each of the n^2 entries in the
        structural pattern of L, the pattern before exact cancellations,
        so its blocks hold those of every model with these factor
        patterns: the uniqueness check's blocks. They come from the
        factors' patterns (_structural_labels), numbered as scipy's
        connected_components numbers the components of L's pattern, in
        int32 as it does; no n^2-entry graph is formed.
    idx: the block's entries, sorted: the component of entry (0,0),
        which steady_state solves and checks whole.
    pops: positions of the populations |i><i| in the block; fewer than n
        when they split structurally.
    row, col, left, right: each contribution of the terms to the block,
        as _contributions enumerates them: its block coordinates, and the
        positions of its two factors in the value arrays of
        _factor_values.
    off_diagonal: which of the block's stored entries lie off its diagonal.
    m_src, m_indptr, m_indices: the trace-row system M of the block in CSC
        order, entry k taken from [1 at each of pops, block values][m_src[k]].
    levels: the _Levels of M under the drive order of each entry
        (_drive_order): the least total rise of the photon order
        N_i + N_j, N = photons, along a path from |0><0| in M's
        structural pattern. It equals N_i + N_j wherever some path from
        |0><0| never lowers it, as thermal phonon jumps make it on every
        entry. At N_th = 0 an entry that holds a phonon but
        fewer photons than made it lies higher: 17 levels at g2scan m6,
        against 13 photon orders. One level, P = M, for a model without a
        drive.
    real: (T, T^-1, perm), the change of unknowns that takes M to its real
        form R = Re(T^-1 M T) and the order R is factored in, made on first
        use. R's is the one factor of the block's size, the check's and the
        fallback's (real_factor, real_solve).
    n: the model's Hilbert-space dimension.
    Besides labels all of it is block-sized.
    """

    def __init__(self, terms: list, photons: np.ndarray | None, n: int):
        self.labels = _structural_labels(terms, n)
        self.idx = np.flatnonzero(self.labels == self.labels[0])
        m = self.idx.size
        self.pops = np.flatnonzero(self.idx % (n + 1) == 0)
        row, col, self.left, self.right = _contributions(terms, n, self.idx)
        block = scipy.sparse.coo_matrix((np.ones(row.size), (row, col)), shape=(m, m))
        self.row, self.col = block.row, block.col
        block = block.tocsr()
        indptr, indices = block.indptr, block.indices
        self.off_diagonal = indices != np.repeat(np.arange(m), np.diff(indptr))
        # M replaces L's row 0 by the trace row; a CSC conversion of the
        # entry numbers gives each stored entry of M its source
        k, row0 = self.pops.size, indptr[1]
        ids = np.concatenate([np.arange(k), k + np.arange(row0, indices.size)])
        M = scipy.sparse.csr_matrix(
            (ids.astype(float), np.concatenate([self.pops, indices[row0:]]),
             np.concatenate([[0], k + indptr[1:] - row0])), shape=(m, m)).tocsc()
        self.m_src, self.m_indptr, self.m_indices = M.data.astype(np.intp), M.indptr, M.indices
        photons = np.zeros(n, int) if photons is None else np.asarray(photons)
        i, j = np.divmod(self.idx, n)
        self.levels = _Levels(M, _drive_order(M, photons[i] + photons[j]))
        self.n = n

    def assemble(self, terms: list, n: int) -> tuple:
        """(Lc, M, P) of steady_state on the block for a model with these
        factor patterns: the values of its terms summed onto the block, its
        exact zeros dropped and its trace checked. SolverError when the
        populations split: some lie outside the block, or an off-diagonal
        entry that cancels exactly cuts them apart."""
        m = self.idx.size
        left, right = _factor_values(terms, n)
        # scipy sums the products as liouvillian's conversion does, in the
        # same order (see steady_state)
        Lc = scipy.sparse.coo_matrix((left[self.left] * right[self.right], (self.row, self.col)),
                                     shape=(m, m)).tocsr()
        vals = Lc.data
        src = np.concatenate([np.ones(self.pops.size), vals])[self.m_src]
        # P gathers copies of src before M drops its zeros in place
        M = scipy.sparse.csc_matrix((src, self.m_indices.copy(), self.m_indptr.copy()),
                                    shape=(m, m))
        P = self.levels.gather(src)
        # entries that cancel exactly are dropped, as liouvillian drops them
        M.eliminate_zeros()
        cancelled = np.any((vals == 0) & self.off_diagonal)
        Lc.eliminate_zeros()
        t = np.zeros(m)
        t[self.pops] = 1.0
        _check_trace(Lc, t)
        # the structural block is connected, so only populations outside it
        # or an off-diagonal entry that cancels can split them
        split = self.pops.size < n
        if cancelled and not split:
            labels = _components(*Lc.nonzero(), m)
            split = np.any(labels[self.pops] != labels[0])
        if split:
            raise SolverError(
                "degenerate Liouvillian null space: the populations split into "
                "disconnected sectors, each with its own steady state")
        return Lc, M, P

    @functools.cached_property
    def real(self) -> tuple:
        """(T, T^-1, perm): the change of unknowns that makes M real, and
        the order R is factored in, made on first use.

        The population block is closed under rho -> rho^dag, and L(rho^dag) =
        L(rho)^dag, so on the Hermitian matrices M is a real linear map. Its
        real unknowns are rho_ii at the position of |i><i|, and Re rho_ij at
        that of |i><j| and Im rho_ij at that of |j><i| (i < j): x = T u with
        x_ij = u_ij + i u_ji and x_ji = u_ij - i u_ji. R = Re(T^-1 M T), and
        M is its complexification up to the discarded Im(T^-1 M T): M's
        departure from that symmetry, which only rounding and the Hermiticity
        that LindbladModel checks leave (0 at g2scan m6, 2.8e-17 at m20 with
        N_th = 1; tier-1 test). So R^-1 Pi has the eigenvalues of M^-1 Pi, as
        Pi = I - e_0 e_0^T commutes with T: entry 0 is a population.

        perm: a minimum degree (_min_degree) on the pair graph, one node per
        pair {|i><j|, |j><i|} joined where M joins their entries, each pair's
        two unknowns kept adjacent. At g2scan m6 it orders in 3 ms and R's
        factor holds 264,861 real entries, against 13 ms and 271,776 in R's
        own minimum degree (786,000 against 970,000 at m10); undamped it loses,
        465,958 against 208,387 at m10."""
        m, n = self.idx.size, self.n
        i, j = np.divmod(self.idx, n)
        t = np.searchsorted(self.idx, j * n + i).clip(max=m - 1)   # each unknown's partner
        if np.any(self.idx[t] != j * n + i):
            raise SolverError("the population block is not closed under rho -> rho^dag: "
                              "the model's H or collapse patterns break L(rho^dag) = L(rho)^dag")
        k = np.arange(m)
        d, a = np.flatnonzero(k == t), np.flatnonzero(k < t)
        b, one = t[a], np.ones(a.size)
        rows, cols = np.concatenate([d, a, b, a, b]), np.concatenate([d, a, a, b, b])
        T = scipy.sparse.csc_matrix(
            (np.concatenate([np.ones(d.size), one, one, 1j * one, -1j * one]), (rows, cols)),
            shape=(m, m))
        T_inv = scipy.sparse.csc_matrix(
            (np.concatenate([np.ones(d.size), one / 2, one / 2, -0.5j * one, 0.5j * one]),
             (cols, rows)), shape=(m, m))
        # the pair graph's minimum degree, each pair's unknowns in a row
        head = np.minimum(k, t)
        heads = np.flatnonzero(head == k)
        pair = np.cumsum(head == k) - 1
        s, c = self.m_indices, np.repeat(k, np.diff(self.m_indptr))
        graph = scipy.sparse.csc_matrix((np.ones(s.size), (pair[head[s]], pair[head[c]])),
                                        shape=(heads.size, heads.size))
        heads = heads[_min_degree(graph)]
        perm = np.column_stack([heads, t[heads]]).ravel()
        perm = perm[np.column_stack([np.ones(heads.size, bool), t[heads] != heads]).ravel()]
        return T, T_inv, perm

    def real_factor(self, M: scipy.sparse.csc_matrix) -> _LevelLU:
        """The factor of R = Re(T^-1 M T), formed by two sparse products
        with the plan's T and T^-1 (real), its exact zeros dropped, in the
        pair order kept with them; its solve takes real vectors. An exactly
        singular R raises SolverError, as _factor does."""
        T, T_inv, perm = self.real
        R = (T_inv @ M @ T).real
        R.eliminate_zeros()
        return _factor(R, perm)

    def real_solve(self, lu: _LevelLU, b: np.ndarray) -> np.ndarray:
        """M^-1 b from real_factor's factor lu of R: b taken to the real
        unknowns by T^-1, its real and imaginary parts solved as two
        columns, and the solution taken back by T."""
        T, T_inv, _ = self.real
        u = T_inv @ b
        w = lu.solve(np.column_stack([u.real, u.imag]))
        return T @ (w[:, 0] + 1j * w[:, 1])


def _drive_order(M: scipy.sparse.csc_matrix, c: np.ndarray) -> np.ndarray:
    """The drive order of each entry of a trace-row system M whose entries
    have the photon orders c: the least total rise of c along a path in
    M's structural pattern from entry 0, |0><0|, where an edge col -> row
    (M[row, col] stored) that raises c by k costs k and any other edge
    costs nothing. It is the power of the drive at which the entry first
    appears, never below c (every path from entry 0 climbs to c), and
    equal to it wherever some path from entry 0 never lowers c. An entry
    that no path reaches keeps c. M's first row is the trace row, not L's,
    but it only leads into entry 0, which no path needs to enter.

    Dial's bucket search in numpy: the entries of the least open order t
    are closed over the edges that cost nothing, breadth first, and each
    edge that costs k offers t + k to its row; one pass per order and per
    breadth-first step, each on the out-edges of its frontier alone."""
    ptr, rows = M.indptr, M.indices
    rises = c[rows] - np.repeat(c, np.diff(ptr))   # along each stored entry's edge
    far = np.iinfo(np.int64).max
    d, done = np.full(c.size, far), np.zeros(c.size, bool)
    d[0] = 0
    while True:
        reached = np.flatnonzero(~done & (d < far))
        if not reached.size:
            return np.where(done, d, c)
        t = d[reached].min()
        frontier = reached[d[reached] == t]
        while frontier.size:
            done[frontier] = True
            k = _expand(ptr, frontier)[1]   # the frontier's out-edges
            dst, rise = rows[k], rises[k]
            up = rise > 0
            np.minimum.at(d, dst[up], t + rise[up])
            frontier = np.unique(dst[~up & ~done[dst]])
            d[frontier] = t


class _Levels:
    """The structure of P, the block-lower-triangular part of a trace-row
    system M under a level order of its entries, the drive order
    (_drive_order) in steady_state: the entries of M whose column's order
    is at most its row's.

    perm: M's entries in level order, each level a contiguous slice
        bounds[l]:bounds[l + 1], and within it in the minimum-degree order
        of its diagonal block. One _min_degree call orders them all, on
        the block-diagonal pattern of the level blocks. That SuperLU's
        minimum degree gives each disconnected block the order it gets on
        its own, interleaved with the others', is its observed behaviour,
        not a theorem: the tier-1 test
        test_one_ordering_pass_gives_each_level_its_own_order checks it on
        the test models. A block without off-diagonal entries is the one
        exception seen: it keeps its natural order, as SuperLU gives a
        pattern without them on its own.
    diag, lower: for each level, the diagonal block of M[perm][:, perm]
        in CSC and the block of its rows left of it in CSR, each as
        (slots, indices, indptr, shape), slots the positions of their
        entries in M's CSC data.
    """

    def __init__(self, M: scipy.sparse.csc_matrix, order: np.ndarray):
        perm = np.argsort(order, kind="stable")
        self.bounds = np.append(np.flatnonzero(np.diff(order[perm], prepend=-1)), order.size)
        spans = list(zip(self.bounds[:-1], self.bounds[1:]))
        level = np.repeat(np.arange(len(spans)), np.diff(self.bounds))
        row, col = M.indices, np.repeat(np.arange(M.shape[1]), np.diff(M.indptr))
        r, c = np.argsort(perm)[np.array([row, col])]   # M's entries in level order
        own = level[r] == level[c]
        q = _min_degree(scipy.sparse.csc_matrix((np.ones(own.sum()), (r[own], c[own])),
                                                shape=M.shape))
        bare = np.bincount(level[r[own & (r != c)]], minlength=len(spans)) == 0
        grouped = q[np.argsort(level[q], kind="stable")]
        perm = perm[np.where(bare[level], np.arange(order.size), grouped)]
        r, c = np.argsort(perm)[np.array([row, col])]
        self.perm, self.diag, self.lower = perm, [], []
        # the diagonal blocks in CSC order, the blocks left of them in CSR
        for out, major, minor, diag in ((self.diag, c, r, True), (self.lower, r, c, False)):
            k = np.flatnonzero(level[r] == level[c] if diag else level[c] < level[r])
            k = k[np.lexsort((minor[k], major[k]))]
            cuts = np.searchsorted(major[k], self.bounds)
            for (s, e), a, b in zip(spans, cuts[:-1], cuts[1:]):
                ptr = np.searchsorted(major[k[a:b]], np.arange(s, e + 1))
                out.append((k[a:b], (minor[k[a:b]] - s * diag).astype(M.indices.dtype),
                            ptr.astype(M.indptr.dtype), (e - s, e - s if diag else s)))

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
    """The exact solve of a _LevelSystem P (steady_state's, or _factor's
    one level): each diagonal block factored (_splu, in the level's
    order), and P x = b solved by forward
    substitution over the levels, each level's block left of the diagonal
    applied as a sparse product. An exactly singular level block raises
    RuntimeError, as splu does. b may hold several columns; a real P
    solves real b only, as SuperLU refuses complex b for a real factor."""

    def __init__(self, P: _LevelSystem):
        self.perm, self.bounds, self.lower = P.perm, P.bounds, P.lower   # not the factored blocks
        self.lus = [_splu(D) for D in P.diag]
        self.dtype = P.diag[0].dtype

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = np.asarray(b, np.result_type(b, self.dtype))[self.perm]
        for lu, B, s, e in zip(self.lus, self.lower, self.bounds[:-1], self.bounds[1:]):
            if s:
                y[s:e] -= B @ y[:s]
            y[s:e] = lu.solve(y[s:e])
        x = np.empty_like(y)
        x[self.perm] = y
        return x

    @property
    def nnz(self) -> int:
        return sum(lu.nnz for lu in self.lus)


def _factor_values(terms: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The values of the left and of the right factors of terms, each
    concatenated in term order; the identity's are n ones."""
    ones = np.ones(n)
    return (np.concatenate([ones if a is None else a[2] for a, _ in terms]),
            np.concatenate([ones if b is None else b[2] for _, b in terms]))


def _plan(model: LindbladModel) -> tuple[_BlockPlan, list]:
    """The model's _BlockPlan and its _generator_terms. The plan is made on
    the first model with its factor patterns and photon numbers
    (model.hamiltonian.meta["photons"]) and kept, for the last
    PLAN_CACHE_SIZE such sets, under the exact key of the photon numbers
    and of every factor's (row, col) arrays."""
    n = model.space.total_dim
    terms, photons = _generator_terms(model), model.hamiltonian.meta.get("photons")
    key = (n, None if photons is None else np.asarray(photons, np.int64).tobytes()) + tuple(
        tuple(None if f is None else (np.asarray(f[0], np.int64).tobytes(),
                                      np.asarray(f[1], np.int64).tobytes()) for f in term)
        for term in terms)
    return _cached(_PLANS, PLAN_CACHE_SIZE, key, lambda: _BlockPlan(terms, photons, n)), terms


def steady_state(model: LindbladModel, check_unique: bool = True) -> SteadyStateReport:
    """Stationary state of the master equation, with its evidence.

    The state lives in the block of L that holds the populations: when H
    and every collapse operator shift some charge Q by a fixed amount (a
    weak U(1) symmetry, e.g. Q = n_s - n_m for the rotating-wave model), L
    maps each coherence order onto itself (Buca & Prosen, New J. Phys. 14,
    073007 (2012)). The block is the connected component of entry (0,0)
    in L's structural sparsity pattern, before exact cancellations, the
    whole space for a model without such a symmetry; the plan labels the
    components from the kron factors' patterns (_structural_labels), with
    no n^2-entry graph. Only the block is built, from a _BlockPlan kept
    per sparsity pattern and photon numbers, with the bits of the same
    block sliced from liouvillian(model), which is never built here. An
    off-diagonal entry that cancels exactly may cut a component from the
    populations' sector; the block keeps it, and as its right-hand side
    is zero, its part of the solution is exactly 0. Populations split
    over several sectors raise SolverError, with or without the check.

    Within the block the row of (0,0) is replaced by the trace condition,
    and M x = e_0 is solved by GMRES-based iterative refinement (_refine;
    Carson & Higham, SIAM J. Sci. Comput. 39, A2834 (2017)) on the exact
    solve of P, the drive-order block-lower-triangular part of M. With
    N = model.hamiltonian.meta["photons"], handed over with a drive by
    models.build_rwa and build_full, the entry |i><j| has the photon order
    N_i + N_j, and its drive order is the least total rise of the photon
    order along a path from |0><0| in the block's structural pattern
    (_drive_order): the power of the drive at which the entry first
    appears, in the weak-drive hierarchy of Bamba et al., PRA 83,
    021802(R) (2011). It is never below the photon order, and equal to it
    when thermal phonon jumps connect every phonon state. At N_th = 0 an
    entry that holds a phonon but fewer photons than made it is fed only
    by a photon decay from two orders up, and so sits two orders higher.
    P keeps the entries of M whose column's drive order is at most its
    row's, that decay included, so its solve gives such an entry the
    value that a P on the photon order sets to 0: the g2scan points take
    2 to 4 Krylov iterations, against 8 to 12 on the photon order. P is
    solved level by level (_LevelLU), each level block in its own
    minimum-degree order, all made by one ordering pass (_Levels);
    without a drive it is one level, M itself. The steps stop once the
    componentwise backward error max_i |r_i| / (|M||x| + |e_0|)_i (Oettli
    & Prager, Numer. Math. 6, 405 (1964)) is at most BACKWARD_ERROR_STOP.
    That holds each row to its own scale, which a residual norm cannot:
    the norm is set by the order-1 populations, not by the small
    two-photon entries behind g2. A row that meets only unknowns of
    rounding size, as where the exact state is 0 (undamped phonons), is
    judged normwise (_backward_error). If the stop is missed within
    REFINE_STEP_CAP steps, or a level block of P is exactly singular, the
    same refinement runs on the check's factor of M's real form
    R = Re(T^-1 M T), made at most once a call (_BlockPlan.real_factor),
    each solve taken to R's unknowns by T^-1 and back by T (real_solve),
    and report.lu_fallback says so. A solution that is not finite raises
    SolverError at once and is never retried; an exactly singular M raises
    too, as its null space is degenerate. Each factor is a function of its
    matrix and order, and each order of a plan's pattern, so the result is
    a function of the model alone: the same bits for any point order,
    number of jobs or check_unique. A residual |L x| above
    STEADY_RESIDUAL_ATOL, or not finite, raises SolverError.

    check_unique verifies, block by block, that |lambda_1| of the full L
    exceeds NULL_GAP_ATOL, and raises SolverError otherwise (a dark state
    or a disconnected sector); report.null_gap is that |lambda_1|,
    measured, not bounded. The population block's comes from the check's
    own factor: with Pi = I - e_0 e_0^T and t^T L = 0, each eigenvector
    L v = lambda v, lambda != 0, gives M v = lambda Pi v, so the largest
    |mu| of M^-1 Pi is 1/|lambda_1|, taken over every component of the
    block. The block is closed under rho -> rho^dag, so M is the
    complexification of a real matrix R = Re(T^-1 M T), T the change of
    unknowns to Re and Im of the coherences, whose R^-1 Pi has the same
    eigenvalues (_BlockPlan.real): the check forms R by two sparse
    products with T and T^-1, which the plan keeps, factors it in real
    arithmetic and in an order of its pair graph kept with them
    (_BlockPlan.real_factor), and ARPACK runs in real mode. A second
    steady state may sit in any other block (a Hermitian jump c + c^dag on
    a qubit keeps sigma_x stationary), so each block of each pair related
    by rho -> rho^dag gets Gershgorin's disc bound on min |lambda|, taken
    from the kron factors (_disc_gaps) on the plan's structural blocks.
    Only a block whose bound falls below the population block's
    |lambda_1| is gathered from the factors (_gather) and measured
    (_block_gap).
    """
    n = model.space.total_dim
    plan, terms = _plan(model)
    Lc, M, P = plan.assemble(terms, n)
    idx, m = plan.idx, plan.idx.size
    real = functools.cache(lambda: plan.real_factor(M))   # the check's and the fallback's
    gap = None
    if check_unique:   # the population gap on R's factor, then the other blocks
        gap = _block_gap(Lc, real)
        gap = min(gap, _coherence_gap(terms, n, plan.labels, gap))
        if not gap > NULL_GAP_ATOL:
            raise SolverError(
                f"degenerate Liouvillian null space (|lambda_1| bound {gap:.2e}); "
                "the model has a dark state or disconnected sector")

    rhs = np.zeros(m, dtype=complex)
    rhs[0] = 1.0
    try:
        lu0 = _LevelLU(P)
    except RuntimeError:   # an exactly singular level block (say, undamped phonons)
        krylov, omega = 0, np.inf
    else:
        y, krylov, omega = _refine(M, lu0.solve, rhs)
    fallback = not omega <= BACKWARD_ERROR_STOP
    if fallback:
        lu0 = real()
        y, more, omega = _refine(M, functools.partial(plan.real_solve, lu0), rhs)
        krylov += more
    # |L x| as the n^2 vector it is: the rows outside the block are zero,
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


def _backward_error(abs_m: scipy.sparse.csc_matrix, row_sums: np.ndarray, x: np.ndarray,
                    r: np.ndarray, rhs: np.ndarray) -> float:
    """Componentwise backward error of x, given |M|, its row sums |M| 1 and
    the residual r = rhs - M x: max_i |r_i| / d_i, d_i = (|M||x| + |rhs|)_i
    (Oettli & Prager, Numer. Math. 6, 405 (1964)), except that a row whose
    d_i is at most eps s_i, s_i = (|M| 1)_i |x|_inf + |rhs_i|, meets only
    unknowns of rounding size and is judged normwise, on d_i + (|M| 1)_i
    |x|_inf (Arioli, Demmel & Duff, SIAM J. Matrix Anal. Appl. 10, 165
    (1989)). A zero denominator counts 0. SolverError when x is not finite."""
    if not np.isfinite(x).all():
        raise SolverError("steady-state solve is not finite")
    size, b = np.abs(x), np.abs(rhs)
    norm = row_sums * size.max()
    denom = abs_m @ size + b
    denom = np.where(denom <= np.finfo(float).eps * (norm + b), denom + norm, denom)
    ratio = np.divide(np.abs(r), denom, out=np.zeros(x.size), where=denom > 0)
    return float(ratio.max())


def _refine(M: scipy.sparse.csc_matrix, psolve, rhs: np.ndarray) -> tuple[np.ndarray, int, float]:
    """(x, Krylov iterations, backward error): M x = rhs by iterative
    refinement from x = psolve(rhs), each correction one GMRES cycle
    (_gmres_cycle) on M preconditioned by psolve, the exact solve of P or
    M's solve through the factor of its real form (see steady_state). |M|
    and its row sums are formed once, and each step's residual serves
    both its backward error and its correction."""
    krylov = 0
    abs_m = abs(M)
    row_sums = abs_m @ np.ones(M.shape[0])
    x = psolve(rhs)
    for step in range(REFINE_STEP_CAP + 1):
        r = rhs - M @ x
        omega = _backward_error(abs_m, row_sums, x, r, rhs)
        if omega <= BACKWARD_ERROR_STOP or step == REFINE_STEP_CAP:
            break
        dx, iterations = _gmres_cycle(M, psolve, r)
        x += dx
        krylov += iterations
    return x, krylov, omega


def _gmres_cycle(M: scipy.sparse.csc_matrix, psolve, b: np.ndarray) -> tuple[np.ndarray, int]:
    """(x, iterations): one GMRES cycle for M x = b from x = 0, left-
    preconditioned by psolve, stopping at a preconditioned residual of
    KRYLOV_RTOL relative or after KRYLOV_RESTART iterations.

    This is scipy 1.17's gmres (scipy/sparse/linalg/_isolve/iterative.py,
    BSD licence) at x0 = None, maxiter = 1, rtol = KRYLOV_RTOL and
    restart = KRYLOV_RESTART, transcribed operation for operation, so its
    iterate has the same bits: modified Gram-Schmidt with vdot, LAPACK
    lartg Givens rotations, the back substitution, x += y @ V and the same
    inner tolerance. Two results it discards are not computed: psolve(b)
    serves both the tolerance and the first Krylov vector (scipy takes
    psolve(r) again with r = b), and no residual is formed after the cycle.
    """
    n = b.size
    bnrm2 = np.linalg.norm(b)
    atol = KRYLOV_RTOL * float(bnrm2)
    eps = np.finfo(complex).eps
    restart = min(KRYLOV_RESTART, n)
    lartg = scipy.linalg.get_lapack_funcs("lartg", dtype=complex)
    v = np.empty([restart + 1, n], dtype=complex)
    h = np.zeros([restart, restart + 1], dtype=complex)
    givens = np.zeros([restart, 2], dtype=complex)
    v[0, :] = psolve(b)
    tmp = np.linalg.norm(v[0, :])
    ptol = tmp * min(1.0, atol / bnrm2)
    v[0, :] *= (1 / tmp)
    S = np.zeros(restart + 1, dtype=complex)   # the Hessenberg problem's right side
    S[0] = tmp
    breakdown = False
    for col in range(restart):
        w = psolve(M @ v[col, :])
        h0 = np.linalg.norm(w)
        for k in range(col + 1):
            tmp = np.vdot(v[k, :], w)
            h[col, k] = tmp
            w -= tmp * v[k, :]
        h1 = np.linalg.norm(w)
        h[col, col + 1] = h1
        v[col + 1, :] = w[:]
        if h1 <= eps * h0:   # the exact solution
            h[col, col + 1] = 0
            breakdown = True
        else:
            v[col + 1, :] *= (1 / h1)
        for k in range(col):
            c, s = givens[k, 0], givens[k, 1]
            n0, n1 = h[col, [k, k + 1]]
            h[col, [k, k + 1]] = [c * n0 + s * n1, -s.conj() * n0 + c * n1]
        c, s, mag = lartg(h[col, col], h[col, col + 1])
        givens[col, :] = [c, s]
        h[col, [col, col + 1]] = mag, 0
        tmp = -np.conjugate(s) * S[col]
        S[[col, col + 1]] = [c * S[col], tmp]
        if np.abs(tmp) <= ptol or breakdown:
            break
    if h[col, col] == 0:
        S[col] = 0
    y = S[:col + 1].copy()
    for k in range(col, 0, -1):
        if y[k] != 0:
            y[k] /= h[k, k]
            tmp = y[k]
            y[:k] -= tmp * h[k, :k]
    if y[0] != 0:
        y[0] /= h[0, 0]
    x = np.zeros(n, dtype=complex)
    x += y @ v[:col + 1, :]
    return x, col + 1


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
    labels = _components(*h_eff.matrix.nonzero(), dim)
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
