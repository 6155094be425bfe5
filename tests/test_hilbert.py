import numpy as np
import pytest
import scipy.sparse as sp

from omx.hilbert import (
    DensityMatrix,
    ModeSpace,
    Operator,
    annihilator,
    ladder_product,
    number_op,
    thermal_dim,
    thermal_weights,
)
from oracles import (
    destroy_matrix,
    expect,
    fock_density,
    ptrace_population,
    tensor_embed,
    thermal_state,
)


def test_modespace_invariants():
    space = ModeSpace([("a", 4), ("s", 3), ("m", 6)])
    assert space.total_dim == 4 * 3 * 6
    assert space.labels == ("a", "s", "m")
    with pytest.raises(ValueError):
        ModeSpace([("a", 2), ("a", 3)])
    with pytest.raises(ValueError):
        ModeSpace([("a", 1)])
    with pytest.raises(KeyError):
        space.index("zz")


def test_basis_index_row_major():
    space = ModeSpace([("x", 3), ("y", 2)])
    assert space.basis_index((0, 0)) == 0
    assert space.basis_index((0, 1)) == 1
    assert space.basis_index((1, 0)) == 2
    assert space.basis_index((2, 1)) == 5
    with pytest.raises(ValueError):
        space.basis_index((3, 0))


def test_annihilator_dim2_matrix():
    space = ModeSpace([("a", 2)])
    a = annihilator(space, "a")
    assert np.allclose(a.to_dense(), [[0, 1], [0, 0]])


def test_annihilator_ladder_elements():
    space = ModeSpace([("a", 3)])
    a = annihilator(space, "a").to_dense()
    assert a[1, 2] == pytest.approx(np.sqrt(2))
    # a^dag a |2> = 2 |2>
    n = number_op(space, "a").to_dense()
    v = np.zeros(3)
    v[2] = 1
    assert np.allclose(n @ v, 2 * v)


def test_commutator_identity_below_truncation():
    space = ModeSpace([("a", 7)])
    a = annihilator(space, "a")
    comm = (a @ a.dag() - a.dag() @ a).to_dense()
    # identity except at the top Fock level; sqrt(n)^2 is exact to 1 ulp
    assert np.abs(comm[:-1, :-1] - np.eye(6)).max() < 1e-14
    assert np.abs(comm - np.diag(np.diag(comm))).max() == 0.0
    assert comm[-1, -1] == pytest.approx(-6.0)


def test_tensor_embed_commutes_distinct_modes():
    space = ModeSpace([("a", 3), ("b", 4)])
    a = annihilator(space, "a")
    b = annihilator(space, "b")
    comm = (a @ b - b @ a).matrix
    assert comm.nnz == 0
    comm2 = (a @ b.dag() - b.dag() @ a).matrix
    assert comm2.nnz == 0


@pytest.mark.parametrize("modes", [(("a", 4), ("s", 2), ("m", 6)),
                                   (("x", 2), ("y", 3), ("z", 2), ("w", 5))])
def test_annihilator_is_the_kron_embedding_bit_for_bit(modes):
    # number_op too: both are built from the occupations, not a kron chain
    space = ModeSpace(modes)
    for label, dim in modes:
        for op, single in ((annihilator, destroy_matrix(dim)),
                           (number_op, sp.diags(np.arange(dim, dtype=float)))):
            a = op(space, label).matrix
            oracle = tensor_embed(single, space, label).matrix
            assert a.dtype == oracle.dtype
            for x, y in ((a.data, oracle.data), (a.indices, oracle.indices),
                         (a.indptr, oracle.indptr)):
                assert np.array_equal(x, y)


def test_occupations_match_basis_index():
    space = ModeSpace([("a", 3), ("s", 2), ("m", 4)])
    occ = space.occupations
    assert occ.shape == (3, space.total_dim)
    assert occ.dtype.kind == "i"
    for i in range(space.total_dim):
        assert space.basis_index(occ[:, i]) == i


def test_occupations_are_one_read_only_table():
    space = ModeSpace([("a", 3), ("s", 2), ("m", 4)])
    occ = space.occupations
    assert space.occupations is occ
    assert not occ.flags.writeable
    with pytest.raises(ValueError):
        occ[0, 0] = 7
    # the cache is no field: a space with it equals and hashes as one without
    twin = ModeSpace([("a", 3), ("s", 2), ("m", 4)])
    assert twin == space and hash(twin) == hash(space)
    assert twin.occupations is not occ
    assert np.array_equal(twin.occupations, occ)
    assert twin == space and hash(twin) == hash(space)
    assert ModeSpace([("a", 3), ("s", 2), ("m", 5)]) != space


@pytest.mark.parametrize("steps", [{"a": -1}, {"m": 1}, {"a": -1, "m": 1},
                                   {"a": -1, "s": 1, "m": 1}, {"m": -1, "a": 1, "s": -1}])
def test_ladder_product_matches_the_operator_product(steps):
    space = ModeSpace([("a", 4), ("s", 3), ("m", 5)])
    oracle = np.eye(space.total_dim)
    for label, step in steps.items():
        a = tensor_embed(destroy_matrix(space.dims[space.index(label)]), space, label).to_dense()
        oracle = oracle @ (a if step == -1 else a.conj().T)
    rows, cols, amps = ladder_product(space, steps)
    got = np.zeros_like(oracle)
    got[rows, cols] = amps
    assert np.array_equal(got != 0, oracle != 0)
    assert np.abs(got - oracle).max() <= 1e-15 * np.abs(oracle).max()
    # no two entries share a row or a column
    assert np.unique(rows).size == np.unique(cols).size == rows.size


def test_ladder_product_rejects_a_step_of_two():
    space = ModeSpace([("a", 4), ("m", 5)])
    with pytest.raises(ValueError, match="'m'"):
        ladder_product(space, {"a": -1, "m": 2})


def test_tensor_embed_dimension_check():
    space = ModeSpace([("a", 3), ("b", 4)])
    with pytest.raises(ValueError):
        tensor_embed(sp.identity(5, format="csr"), space, "a")


def test_deterministic_sparse_layout():
    space = ModeSpace([("a", 4), ("m", 5)])
    m1 = (annihilator(space, "a") @ annihilator(space, "m").dag()).matrix
    m2 = (annihilator(space, "a") @ annihilator(space, "m").dag()).matrix
    assert np.array_equal(m1.data, m2.data)
    assert np.array_equal(m1.indices, m2.indices)
    assert np.array_equal(m1.indptr, m2.indptr)


# one operator on a 3-level mode, 2 at (0, 1), 3 at (0, 2) and 1 at (2, 0),
# written as CSR (data, indices, indptr) in ways that are not canonical
_CANONICAL = ([2, 3, 1], [1, 2, 0], [0, 2, 2, 3])
_NOT_CANONICAL = {
    "duplicates": ([1, 3, 1, 1], [1, 2, 1, 0], [0, 3, 3, 4]),
    "unsorted": ([3, 2, 1], [2, 1, 0], [0, 2, 2, 3]),
    "explicit-zero": ([2, 3, 0, 1], [1, 2, 1, 0], [0, 2, 3, 4]),
}


@pytest.mark.parametrize("case", [*_NOT_CANONICAL, "real"])
def test_operator_makes_any_input_complex_canonical(case):
    data, indices, indptr = _NOT_CANONICAL.get(case, _CANONICAL)
    dtype = float if case == "real" else complex
    m = sp.csr_matrix((np.array(data, dtype), indices, indptr), shape=(3, 3))
    before = [a.copy() for a in (m.data, m.indices, m.indptr)]
    out = Operator(ModeSpace([("a", 3)]), m).matrix
    assert isinstance(out, sp.csr_matrix) and out.dtype == complex
    for x, want in zip((out.data, out.indices, out.indptr), _CANONICAL):
        assert np.array_equal(x, want)
    # the input was copied, not canonicalized in place
    for x, was in zip((m.data, m.indices, m.indptr), before):
        assert np.array_equal(x, was)


def test_operator_takes_a_canonical_matrix_uncopied():
    m = sp.csr_matrix((np.array(_CANONICAL[0], complex), *_CANONICAL[1:]), shape=(3, 3))
    assert Operator(ModeSpace([("a", 3)]), m).matrix is m


@pytest.mark.parametrize("scale", [1.0, 0.5 - 2j])
def test_dag_hands_operator_a_canonical_matrix(monkeypatch, scale):
    from omx import hilbert
    a = scale * annihilator(ModeSpace([("a", 4), ("s", 4), ("m", 20)]), "m")
    oracle = hilbert._canonical(a.matrix.conj().T)   # a CSC input: the copying path
    real, uncopied = hilbert._canonical, []

    def spy(m):
        out = real(m)
        uncopied.append(out is m)
        return out

    monkeypatch.setattr(hilbert, "_canonical", spy)
    d = a.dag().matrix
    assert uncopied == [True]
    assert np.array_equal(d.toarray(), a.matrix.toarray().conj().T)
    for x, y in ((d.data, oracle.data), (d.indices, oracle.indices), (d.indptr, oracle.indptr)):
        assert np.array_equal(x, y)


def test_thermal_state_zero_temperature():
    space = ModeSpace([("m", 5)])
    rho = thermal_state(space, 0.0)
    expected = np.zeros((5, 5))
    expected[0, 0] = 1.0
    assert np.allclose(rho.matrix, expected)


def test_thermal_state_mean_occupation_matches_partial_sum():
    # oracle: renormalized geometric partial sum computed directly
    n_th = 1.0
    dim = thermal_dim(n_th)
    q = n_th / (n_th + 1.0)
    w = q ** np.arange(dim)
    w /= w.sum()
    mean_direct = float(np.arange(dim) @ w)

    space = ModeSpace([("m", dim)])
    rho = thermal_state(space, n_th)
    mean = np.real(np.trace(number_op(space, "m").to_dense() @ rho.matrix))
    assert mean == pytest.approx(mean_direct, abs=1e-12)
    assert abs(mean - n_th) < 1e-4


def test_thermal_state_strictly_decreasing_weights():
    space = ModeSpace([("m", thermal_dim(2.0))])
    rho = thermal_state(space, 2.0)
    diag = np.real(np.diag(rho.matrix))
    assert np.all(np.diff(diag) < 0)
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    assert np.abs(off).max() == 0.0


def test_thermal_truncation_guard():
    with pytest.raises(ValueError):
        thermal_weights(1.0, 12)  # tail 2^-12 > 1e-6
    w = thermal_weights(1.0, thermal_dim(1.0))
    assert w.sum() == pytest.approx(1.0)


def test_dim_helpers_control_tail():
    for n_th in (0.3, 1.0, 2.7):
        dim = thermal_dim(n_th)
        q = n_th / (n_th + 1.0)
        assert q**dim < 1e-6
        assert q ** (dim - 1) >= 1e-6


def test_fock_density_trace_one():
    space = ModeSpace([("a", 3), ("m", 4)])
    rho = fock_density(space, (1, 2))
    assert np.trace(rho.matrix) == pytest.approx(1.0)
    assert ptrace_population(rho, "m", 2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fock_density(space, (3, 0))


def test_density_matrix_validation():
    space = ModeSpace([("a", 2)])
    with pytest.raises(ValueError):
        DensityMatrix(space, np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        DensityMatrix(space, np.array([[1.0, 0.5], [0.2, 0.0]]))
    with pytest.raises(ValueError):
        DensityMatrix(space, np.diag([1.5, -0.5]))


def _scattered_blocks():
    # a Hermitian 6 x 6 of four blocks, {0, 3}, {1, 5}, {2} and {4}, whose
    # entries interleave; the {0, 3} block has eigenvalue 0.2 - sqrt(0.0725)
    h = np.zeros((6, 6), dtype=complex)
    h[np.ix_([0, 3], [0, 3])] = [[0.3, 0.25], [0.25, 0.1]]
    h[np.ix_([1, 5], [1, 5])] = [[0.2, 0.05j], [-0.05j, 0.1]]
    h[2, 2] = h[4, 4] = 0.15
    return h


def test_positivity_is_checked_block_by_block():
    # the smallest eigenvalue is taken over the blocks of the exact-zero
    # pattern: a block that is not positive still raises, with the value
    # a dense eigvalsh gives; a state of one block takes that eigvalsh itself
    from omx.hilbert import _min_eigenvalue
    space = ModeSpace([("a", 2), ("m", 3)])
    h = _scattered_blocks()
    w = np.linalg.eigvalsh(h).min()
    assert w == pytest.approx(0.2 - np.sqrt(0.0725), rel=1e-14)
    assert _min_eigenvalue(h) == pytest.approx(w, rel=1e-14, abs=0.0)
    with pytest.raises(ValueError, match=f"negative eigenvalue {w:.2e}"):
        DensityMatrix(space, h)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    dense = a @ a.conj().T
    assert _min_eigenvalue(dense) == np.linalg.eigvalsh(dense).min()
    DensityMatrix(space, dense / np.trace(dense).real)   # positive: no error


def test_block_minimum_matches_the_dense_one_on_a_steady_state():
    # the rotating-wave steady state splits into one block per n_s - n_m
    from scipy.sparse.csgraph import connected_components

    from omx import SystemParams, build_rwa, steady_state
    from omx.hilbert import _min_eigenvalue
    p = SystemParams(g0=8.0, kappa=1.0, omega_m=160.0, J=80.0, Delta_a=3.3,
                     Omega_a=0.01, gamma=0.01, N_th=0.3)
    rho = steady_state(build_rwa(p, (3, 3, 4)), check_unique=False).state.matrix
    h = 0.5 * (rho + rho.conj().T)
    assert connected_components(sp.csr_matrix(h != 0), directed=False)[0] > 1
    assert _min_eigenvalue(h) == pytest.approx(np.linalg.eigvalsh(h).min(), rel=0.0, abs=1e-15)


@pytest.mark.parametrize("seed", range(4))
def test_components_are_numbered_as_scipy_numbers_them(seed):
    # by first occurrence, on the edges taken as directed, with self-loops
    # and isolated nodes among them
    from scipy.sparse.csgraph import connected_components

    from omx.hilbert import _components
    rng = np.random.default_rng(seed)
    n = 300
    rows, cols = rng.integers(0, n, 250), rng.integers(0, n, 250)
    rows[:5] = cols[:5]
    graph = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    count, oracle = connected_components(graph, directed=True, connection="weak")
    labels = _components(rows, cols, n)
    assert count > 1 and np.array_equal(labels, oracle)


def test_thermal_state_per_mode_occupations():
    space = ModeSpace([("a", 2), ("m", thermal_dim(0.5))])
    rho = thermal_state(space, {"m": 0.5})  # unspecified modes default to 0
    n_a = number_op(space, "a")
    n_m = number_op(space, "m")
    assert np.real(expect(rho, n_a)) == pytest.approx(0.0, abs=1e-12)
    assert np.real(expect(rho, n_m)) == pytest.approx(0.5, abs=1e-4)
