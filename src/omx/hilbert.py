"""Truncated bosonic Fock-space algebra: modes, operators, states.

The kron-embedding, Fock- and thermal-state oracles that tests compare
these primitives against live in tests/oracles.py.

All operators live on a fixed tensor-product space described by a ModeSpace.
The basis ordering is row major: for modes (m0, m1, ...) with dims
(d0, d1, ...), the basis index of occupations (n0, n1, ...) is
n0*d1*d2*... + n1*d2*... + ..., i.e. the first mode is the most significant
factor (numpy kron convention).

Sparse matrices are kept in CSR form with sorted indices and explicit zeros
pruned, so repeated builds are bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy

TRACE_ATOL = 1e-10
POSITIVITY_ATOL = 1e-8
TAIL_MASS = 1e-6


def _canonical(m) -> scipy.sparse.csr_matrix:
    """m as complex CSR with sorted indices, no duplicates and no stored
    zeros. A complex csr_matrix whose arrays show it is one already passes
    through uncopied (builders write most operators so); anything else is
    copied and canonicalized."""
    if isinstance(m, scipy.sparse.csr_matrix) and m.dtype == complex:
        # sorted and distinct within each row: the entries' row-major
        # positions strictly increase
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        if np.all(np.diff(rows * m.shape[1] + m.indices) > 0) and m.data.all():
            return m
    out = scipy.sparse.csr_matrix(m.astype(complex))
    out.sum_duplicates()
    out.eliminate_zeros()
    out.sort_indices()
    return out


@dataclass(frozen=True)
class ModeSpace:
    """Ordered collection of bosonic modes with Fock truncations."""

    modes: tuple[tuple[str, int], ...]

    def __init__(self, modes):
        modes = tuple((str(lbl), int(dim)) for lbl, dim in modes)
        labels = [lbl for lbl, _ in modes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate mode labels in {labels}")
        for lbl, dim in modes:
            if dim < 2:
                raise ValueError(f"mode {lbl!r}: dim must be >= 2, got {dim}")
        object.__setattr__(self, "modes", modes)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.modes)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.modes)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown mode label {label!r}; have {self.labels}") from None

    @cached_property
    def occupations(self) -> np.ndarray:
        """Integer occupation of each mode in each basis state: row k holds
        n_k of every basis index, shape (modes, total_dim). Formed once per
        space and read-only, so every reader shares one table; the cache is
        no dataclass field, so equality and hashing still see only modes."""
        occ = np.indices(self.dims).reshape(len(self.modes), -1)
        occ.flags.writeable = False
        return occ

    def basis_index(self, occupations) -> int:
        """Flat index of the product Fock state with the given occupations."""
        occs = tuple(int(n) for n in occupations)
        if len(occs) != len(self.modes):
            raise ValueError("occupation list length does not match mode count")
        idx = 0
        for (lbl, dim), n in zip(self.modes, occs):
            if not 0 <= n < dim:
                raise ValueError(f"occupation {n} outside truncation of mode {lbl!r} (dim {dim})")
            idx = idx * dim + n
        return idx


@dataclass
class Operator:
    """Sparse operator on a ModeSpace."""

    space: ModeSpace
    matrix: scipy.sparse.csr_matrix
    meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.matrix = _canonical(self.matrix)
        n = self.space.total_dim
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match total_dim {n}")

    def dag(self) -> "Operator":
        # the transpose's CSC -> CSR conversion writes fresh arrays with each
        # row sorted, so the result is canonical and _canonical takes it
        # uncopied; its data is conjugated in place
        m = self.matrix.T.tocsr()
        np.conjugate(m.data, out=m.data)
        return Operator(self.space, m)

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    # minimal algebra
    def __add__(self, other):
        return Operator(self.space, self.matrix + _mat(other, self.space))

    __radd__ = __add__

    def __sub__(self, other):
        return Operator(self.space, self.matrix - _mat(other, self.space))

    def __mul__(self, scalar):
        return Operator(self.space, self.matrix * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return Operator(self.space, self.matrix @ _mat(other, self.space))


def _mat(op, space: ModeSpace) -> scipy.sparse.csr_matrix:
    if isinstance(op, Operator):
        if op.space is not space and op.space != space:
            raise ValueError("operators act on different spaces")
        return op.matrix
    return op


@dataclass
class DensityMatrix:
    """Dense density matrix with trace/Hermiticity/positivity validation."""

    space: ModeSpace
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = self.space.total_dim
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match total_dim {n}")
        tr = np.trace(self.matrix)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.2e}")
        herm = np.abs(self.matrix - self.matrix.conj().T).max()
        if herm > TRACE_ATOL:
            raise ValueError(f"not Hermitian: max deviation {herm:.2e}")
        wmin = _min_eigenvalue(0.5 * (self.matrix + self.matrix.conj().T))
        if wmin < -POSITIVITY_ATOL:
            raise ValueError(f"negative eigenvalue {wmin:.2e}")


def _min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian h, taken over the diagonal blocks
    of its exact-zero pattern. h is block diagonal over the connected
    components of the graph of h != 0 (symmetric, as h is), so its spectrum
    is the union of theirs. A state with a conserved charge, such as the
    rotating-wave steady state, splits into one block per charge; a state
    of one component takes one eigvalsh of the whole. The components come
    from _components, which on the g2scan state (96 states, nine blocks)
    takes 0.1 ms against 0.2 ms for scipy's csgraph."""
    n = h.shape[0]
    labels = _components(*np.nonzero(h), n)
    if labels.max() == 0:
        return float(np.linalg.eigvalsh(h).min())
    size = np.bincount(labels, minlength=n)
    # a block of one entry is its own eigenvalue
    w = [h.diagonal().real[size[labels] == 1]]
    w += [np.linalg.eigvalsh(h[np.ix_(b, b)]) for b in
          (np.flatnonzero(labels == lbl) for lbl in np.flatnonzero(size > 1))]
    return float(min(v.min(initial=np.inf) for v in w))


def _components(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """The connected component of each node of the graph on n nodes whose
    edges rows[k] - cols[k] are taken both ways, numbered by first
    occurrence, as scipy's connected_components numbers them.

    Labelled in numpy: each node takes the smallest label among itself and
    its neighbours, then its label's label, until nothing changes. Every
    label names a node of the same component, and at the fixed point the
    labels agree across every edge, so each component carries one label,
    its smallest node, whose label can never fall; their ranks are the
    numbers."""
    rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    labels = np.arange(n)
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        new = new[new]
        if np.array_equal(new, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = new


def ladder_product(space: ModeSpace, steps: dict[str, int]):
    """Coordinate triplets (rows, cols, amplitudes) of a product of ladder
    operators on distinct modes, steps mapping each mode's label to -1 (its
    lowering operator) or +1 (its raising operator): a s^dag b^dag is
    {"a": -1, "s": 1, "m": 1}.

    Read off the integer occupations: the product maps basis state i to
    i + sum_k step_k stride_k, stride_k being the index step of one quantum
    of mode k, with amplitude sqrt of the integer prod_k n_k (lowered) or
    n_k + 1 (raised), and zero where a lowered mode is empty or a raised
    one full. Operators on distinct modes commute, so the order of the
    product does not matter. The adjoint's triplets are (cols, rows,
    amplitudes).
    """
    occ, dims = space.occupations, space.dims
    allowed = np.ones(space.total_dim, dtype=bool)
    weight = np.ones(space.total_dim, dtype=np.int64)
    shift = 0
    for label, step in steps.items():
        k = space.index(label)
        if step == -1:
            allowed &= occ[k] > 0
            weight *= occ[k]
        elif step == 1:
            allowed &= occ[k] < dims[k] - 1
            weight *= occ[k] + 1
        else:
            raise ValueError(f"step of mode {label!r} must be -1 or +1, got {step}")
        shift += step * math.prod(dims[k + 1:])
    cols = np.flatnonzero(allowed)
    return cols + shift, cols, np.sqrt(weight[cols])


def annihilator(space: ModeSpace, label: str) -> Operator:
    """Lowering operator of one mode, embedded in the full space: the
    one-mode ladder_product, sqrt(n) at (i - stride, i). These are the bits
    of the kron embedding of the single-mode lowering operator (the
    tensor_embed oracle of tests/oracles.py), without its kron chain.
    """
    rows, cols, amps = ladder_product(space, {label: -1})
    n = space.total_dim
    # at most one entry per row, rows ascending: the CSR arrays directly
    indptr = np.zeros(n + 1, dtype=cols.dtype)
    indptr[rows + 1] = 1
    m = scipy.sparse.csr_matrix((amps.astype(complex), cols, np.cumsum(indptr)), shape=(n, n))
    return Operator(space, m)


def number_op(space: ModeSpace, label: str) -> Operator:
    """Occupation of one mode: the diagonal of its integer occupations, so
    the spectrum is exact."""
    return Operator(space, scipy.sparse.diags(space.occupations[space.index(label)], dtype=complex))


def thermal_dim(n_th: float) -> int:
    """Smallest truncation whose neglected thermal tail mass is < 1e-6.

    For occupation n_th the Fock distribution is geometric with ratio
    q = n_th/(n_th+1); the mass beyond dim levels is q**dim.
    """
    if n_th <= 0:
        return 2
    q = n_th / (n_th + 1.0)
    return max(2, int(np.ceil(np.log(TAIL_MASS) / np.log(q))))


def thermal_weights(n_th: float, dim: int) -> np.ndarray:
    """Renormalized geometric weights zeta_n over a truncated ladder.

    Raises if the truncation drops more than 1e-6 of the probability mass.
    """
    if n_th < 0:
        raise ValueError("n_th must be >= 0")
    if n_th == 0:
        w = np.zeros(dim)
        w[0] = 1.0
        return w
    q = n_th / (n_th + 1.0)
    if q**dim > TAIL_MASS:
        raise ValueError(
            f"truncation dim={dim} keeps only {1 - q**dim:.8f} of the thermal "
            f"distribution for n_th={n_th}; need dim >= {thermal_dim(n_th)}")
    w = (1 - q) * q ** np.arange(dim)
    return w / w.sum()
