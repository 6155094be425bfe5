from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from omx import (
    DensityMatrix,
    LindbladModel,
    ModeSpace,
    SolverError,
    SystemParams,
    annihilator,
    build_displaced,
    build_full,
    build_rwa,
    build_transistor,
    dynamics,
    g2_zero,
    liouvillian,
    nonhermitian_eigs,
    number_op,
    reflection_spectrum,
    steady_state,
)
from omx.dynamics import _component_labels, null_space_gap
from omx.hilbert import Operator
from oracles import (
    coherence_gap,
    destroy_matrix,
    disc_bounds,
    drive_order,
    evolve,
    expect,
    fock_density,
    level_orders,
    lu_oracle,
    population_sector,
    ptrace_population,
    scipy_refine,
    sector_state,
    structural_labels,
    tensor_embed,
    thermal_state,
    trace_row_system,
)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    return 0.5 * float(np.abs(sla.eigvalsh(a.matrix - b.matrix)).sum())


def decay_model(kappa=1.0, dim=4):
    space = ModeSpace([("c", dim)])
    h = Operator(space, sp.csr_matrix((dim, dim)))
    return LindbladModel(h, [(annihilator(space, "c"), kappa)])


def test_pure_decay_rate_convention():
    # D[c] at rate kappa decays the energy at 2*kappa
    kappa = 0.7
    model = decay_model(kappa, dim=3)
    rho0 = fock_density(model.space, (2,))
    ts = np.linspace(0.0, 2.0, 9)
    traj = evolve(model, rho0, ts)
    n_op = number_op(model.space, "c")
    for t, rho in zip(ts, traj):
        assert np.real(expect(rho, n_op)) == pytest.approx(2 * np.exp(-2 * kappa * t), abs=1e-7)


def test_number_conserving_hamiltonian_keeps_populations():
    space = ModeSpace([("c", 4)])
    h = Operator(space, 1.3 * number_op(space, "c").matrix)
    model = LindbladModel(h, [])
    rho0 = fock_density(space, (2,))
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


def _kron_liouvillian(model):
    # oracle: the generator as a sum of kron products, term by term
    h = model.hamiltonian.matrix
    eye = sp.identity(h.shape[0], dtype=complex, format="csr")
    L = -1j * (sp.kron(h, eye, format="csr") - sp.kron(eye, h.T, format="csr"))
    for op, rate in model.collapses:
        if rate == 0.0:
            continue
        c = op.matrix
        cdc = (c.conj().T @ c).tocsr()
        L = L + rate * (2.0 * sp.kron(c, c.conj(), format="csr")
                        - sp.kron(cdc, eye, format="csr") - sp.kron(eye, cdc.T, format="csr"))
    L = L.tocsr()
    L.sort_indices()
    return L


def _decay_pair(rates):
    space = ModeSpace([("c", 3), ("d", 2)])
    c, d = annihilator(space, "c"), annihilator(space, "d")
    h = Operator(space, (0.7 * (c.dag() @ c) + 0.3 * (c.dag() @ d + d.dag() @ c)
                         + 0.1 * (c + c.dag())).matrix)
    return LindbladModel(h, [(op, r) for op, r in zip((c, d), rates)])


_RWA_G2SCAN = SystemParams(g0=8.0, kappa=1.0, omega_m=160.0, J=80.0, Delta_a=3.3,
                           Omega_a=0.01, gamma=0.01)
_LIOUVILLIAN_CASES = {
    "rwa-Nth0": lambda: build_rwa(_RWA_G2SCAN, (3, 3, 4)),
    "rwa-Nth1": lambda: build_rwa(_RWA_G2SCAN.replace(N_th=1.0), (3, 3, 5)),
    "displaced": lambda: _displaced((3, 2, 4)),
    "full": lambda: build_full(SystemParams(g0=2.0, kappa=1.0, omega_m=8.0, J=4.0,
                                            Delta_a=1.0, Omega_a=0.05, gamma=0.2, N_th=0.5),
                               (3, 3, 4)),
    "transistor": lambda: _transistor(1),
    "zero-rate-collapse": lambda: _decay_pair((0.0, 0.4)),
    "no-collapses": lambda: _decay_pair(()),
    # Delta_a = -1 with omega_m = 2J = 2 makes H_ii = n_a - n_s + 2 n_m
    # degenerate, so the imaginary parts of many diagonal entries cancel,
    # and gamma = 0 leaves the photon-free populations undamped
    "cancelling-diagonal": lambda: build_rwa(
        SystemParams(g0=1.0, kappa=1.0, omega_m=2.0, J=1.0, Delta_a=-1.0, Omega_a=0.1),
        (3, 3, 4)),
}


@pytest.mark.parametrize("name", ["rwa-Nth0.3", "transistor", "zero-rate-collapse"])
def test_decay_is_the_sum_of_rate_cdag_c(name):
    model = {"rwa-Nth0.3": lambda: build_rwa(_RWA_G2SCAN.replace(N_th=0.3), (3, 3, 4)),
             **_LIOUVILLIAN_CASES}[name]()
    oracle = sum(rate * (op.to_dense().conj().T @ op.to_dense())
                 for op, rate in model.collapses)
    decay = model.decay()
    assert decay.format == "csr"
    assert np.abs(decay.toarray() - oracle).max() <= 1e-15 * np.abs(oracle).max()
    # and stores no zeros
    assert decay.nnz == np.count_nonzero(oracle)


def test_decay_pairs_the_entries_of_each_row():
    # ladder collapses hold one entry per row; these hold up to four, and
    # one row none, so every pair (p, q) of a row must meet
    space = ModeSpace([("a", 2), ("m", 3)])
    rng = np.random.default_rng(11)
    mats = []
    for density in (0.6, 0.3):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m[rng.random((6, 6)) > density] = 0.0
        m[2] = 0.0
        mats.append(m)
    model = LindbladModel(Operator(space, sp.csr_matrix((6, 6))),
                          [(Operator(space, sp.csr_matrix(m)), r)
                           for m, r in zip(mats, (0.7, 1.3))])
    oracle = sum(r * (m.conj().T @ m) for m, r in zip(mats, (0.7, 1.3)))
    decay = model.decay()
    assert max(np.diff(model.collapses[0][0].matrix.indptr)) >= 4
    # sums of up to ten products, added in another order than the dense oracle
    assert np.abs(decay.toarray() - oracle).max() <= 1e-14 * np.abs(oracle).max()
    assert decay.nnz == np.count_nonzero(oracle)


@pytest.mark.parametrize("name", sorted(_LIOUVILLIAN_CASES))
def test_liouvillian_matches_kron_oracle(name):
    # the sector search reads the sparsity pattern, so it must be the
    # oracle's exactly; the diagonal sums its terms in another order
    model = _LIOUVILLIAN_CASES[name]()
    L, oracle = liouvillian(model), _kron_liouvillian(model)
    assert np.array_equal(L.indptr, oracle.indptr)
    assert np.array_equal(L.indices, oracle.indices)
    assert np.abs(L.data - oracle.data).max() <= 1e-14 * np.abs(oracle.data).max()
    if name == "cancelling-diagonal":
        # K_L_ii + K_R_ii = -i H_ii + i H_ii cancels at each photon-free
        # population; those entries are absent, as in the oracle
        assert np.count_nonzero(oracle.diagonal() == 0) == model.space.dims[model.space.index("m")]


def test_liouvillian_and_annihilator_make_no_kron(monkeypatch):
    # both are assembled from coordinate lists; a kron chain here is the
    # slow path coming back
    import scipy.sparse
    real = scipy.sparse.kron
    calls = []

    def counting_kron(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    model = build_rwa(_RWA_G2SCAN.replace(N_th=1.0), (3, 3, 4))
    monkeypatch.setattr(scipy.sparse, "kron", counting_kron)
    _kron_liouvillian(model)
    assert calls, "the counter does not see kron calls"
    calls.clear()
    liouvillian(model)
    for label in model.space.labels:
        annihilator(model.space, label)
    assert calls == []


def test_driven_cavity_linear_response_oracle():
    # g0 = 0: steady <n> of the driven mode equals the solution of the
    # classical 2x2 (Re/Im) linear system for the amplitude
    kappa, delta_a, omega = 1.0, 0.6, 0.01
    p = SystemParams(g0=0.0, kappa=kappa, omega_m=40.0, J=20.0, Delta_a=delta_a,
                     Omega_a=omega, gamma=0.05)
    model = build_rwa(p, (5, 2, 2))
    rep = steady_state(model)
    n_num = np.real(expect(rep.state, number_op(model.space, "a")))
    # (i delta - kappa) c = i omega  (drive H = Omega (c + c^dag))
    mat = np.array([[-kappa, -delta_a], [delta_a, -kappa]])
    re, im = np.linalg.solve(mat, [0.0, -omega])
    assert n_num == pytest.approx(re**2 + im**2, rel=1e-6)
    assert rep.residual < 1e-9


def test_steady_state_thermal_fixed_point():
    from omx import thermal_dim
    space = ModeSpace([("m", thermal_dim(0.8))])
    h = Operator(space, 2.0 * number_op(space, "m").matrix)
    n_th = 0.8
    b = annihilator(space, "m")
    model = LindbladModel(h, [(b, 0.05 * (n_th + 1)), (b.dag(), 0.05 * n_th)])
    rep = steady_state(model)
    assert trace_distance(rep.state, thermal_state(space, n_th)) < 1e-8


def test_steady_state_degenerate_sector_raises():
    # no dissipation at all: every diagonal state is stationary
    space = ModeSpace([("c", 3)])
    h = Operator(space, number_op(space, "c").matrix)
    model = LindbladModel(h, [])
    with pytest.raises(SolverError, match="degenerate"):
        steady_state(model)


def test_steady_state_split_populations_raise_typed():
    # same dissipationless model: each population |i><i| is its own sector,
    # so the sector solve must refuse even without the eigenvalue check
    space = ModeSpace([("c", 3)])
    h = Operator(space, number_op(space, "c").matrix)
    model = LindbladModel(h, [])
    with pytest.raises(SolverError, match="degenerate"):
        steady_state(model, check_unique=False)


def _hermitian_jump():
    # H = 0 and one jump c + c^dag on a qubit: sigma_x is stationary too
    space = ModeSpace([("c", 2)])
    c = annihilator(space, "c")
    return LindbladModel(Operator(space, sp.csr_matrix((2, 2))), [(c + c.dag(), 0.5)])


def _cyclic_jump():
    # H = 0 and one jump |k+1><k| (mod 3): c and c^2 are stationary too
    space = ModeSpace([("c", 3)])
    shift = Operator(space, sp.csr_matrix(np.roll(np.eye(3), 1, axis=0)))
    return LindbladModel(Operator(space, sp.csr_matrix((3, 3))), [(shift, 0.5)])


@pytest.mark.parametrize("make, population_gap", [(_hermitian_jump, 2.0),
                                                  (_cyclic_jump, np.sqrt(3.0))],
                         ids=["hermitian-jump", "cyclic-jump"])
def test_steady_state_degenerate_coherence_block_raises(make, population_gap):
    # the population block alone has a gap; the second steady state lies
    # in a block of coherences, which the check must cover as well
    model = make()
    L = liouvillian(model)
    sector = population_sector(_component_labels(L), model.space.total_dim)
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
    # the probe drives s; like the builders' drives, it hands over the
    # photon number n_s + n_ap, which the undriven H conserves
    model = _transistor(n_m)
    s = annihilator(model.space, "s")
    h = (model.hamiltonian.matrix - delta * (s.dag() @ s).matrix
         + 1j * omega * (s.matrix - s.matrix.conj().T))
    h = Operator(model.space, h)
    h.meta["photons"] = model.space.occupations.sum(axis=0)
    return replace(model, hamiltonian=h)


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
    # oracle: shift-invert ARPACK on the full L. Its start vector moves
    # |lambda_1| by up to 2.2e-8 relative (rwa-Nth0.3, 200 random draws),
    # hence rel 1e-6. The population block sets the gap of all five models.
    # On the displaced ones some coherence blocks have disc bounds below it;
    # they are measured, and their gaps (0.036 or more) lie well above it.
    model = make()
    oracle = null_space_gap(liouvillian(model))[1]
    gap = steady_state(model).null_gap
    assert gap <= oracle * (1 + 1e-6)
    assert gap == pytest.approx(oracle, rel=1e-6)


def test_coherence_block_gap_is_measured():
    # at displaced (4, 3, 5) the disc bounds of the coherence blocks of 180
    # to 504 entries fall below the population gap. Each such block's gap
    # must be its exact min |lambda|, not a lower bound such as
    # 1/||B^-1||_1 (0.0152 on the block whose gap is 0.0359). The check
    # takes the blocks and their bounds from the plan's structural labels
    # and the kron factors, and gives the full-L check's gap in bits
    from omx.dynamics import (GAP_DENSE_LIMIT, _block_gap, _coherence_gap, _disc_bounds,
                              _disc_gaps)
    model = _displaced((4, 3, 5))
    L = liouvillian(model)
    n = model.space.total_dim
    plan, terms = dynamics._plan(model)
    labels = plan.labels
    discs = _disc_bounds(_disc_gaps(terms, n), labels)
    floor = steady_state(model).null_gap
    exact = {}
    for c in np.unique(labels):
        if c != labels[0] and discs[c] < floor:
            idx = np.flatnonzero(labels == c)
            B = L[idx][:, idx]
            exact[c] = np.abs(sla.eigvals(B.toarray())).min()
            assert _block_gap(B, None) == pytest.approx(exact[c], rel=1e-8)
    assert max(np.count_nonzero(labels == c) for c in exact) > GAP_DENSE_LIMIT
    gap = _coherence_gap(terms, n, labels, floor)
    assert gap == pytest.approx(min(exact.values()), rel=1e-8)
    assert gap == coherence_gap(L, _component_labels(L), n, floor)


def test_gathered_blocks_are_the_liouvillians():
    # every structural block of displaced (4, 3, 5), the short ones that
    # the check measures among them, gathered from the kron factors alone
    # has the bits of the same block sliced from the full L
    from omx.dynamics import _disc_bounds, _disc_gaps, _gather
    model = _displaced((4, 3, 5))
    L = liouvillian(model)
    n = model.space.total_dim
    plan, terms = dynamics._plan(model)
    discs = _disc_bounds(_disc_gaps(terms, n), plan.labels)
    floor = steady_state(model).null_gap
    for c in np.unique(plan.labels):
        e = np.flatnonzero(plan.labels == c)
        _same_bits(_gather(terms, n, e), L[e][:, e])
    assert np.count_nonzero(discs < floor) > 2   # the population block's and short ones
    # an entry set that is not closed under L is refused, not mis-gathered
    e = plan.idx[: plan.idx.size // 2]
    assert np.setdiff1d(L[e].indices, e).size > 0
    with pytest.raises(ValueError):
        _gather(terms, n, e)


def test_checked_solve_allocates_no_dense_block():
    # no n^2 scratch: the peak stays below one dense complex square of the
    # largest factored block (the population block, 972 entries)
    import tracemalloc
    model = _displaced((4, 3, 8))
    tracemalloc.start()
    try:
        rep = steady_state(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.solved_dim == 972
    assert peak < 16 * rep.solved_dim**2


def test_null_space_gap_is_reproducible():
    L = liouvillian(_rwa(0.3))
    assert L.shape[0] > 400  # the ARPACK branch
    assert null_space_gap(L) == null_space_gap(L)


def test_sector_solve_dimension():
    n = 4 * 4 * 6
    rep = steady_state(_rwa(0.0, (4, 4, 6)), check_unique=False)
    assert rep.solved_dim == 1216 < n * n
    small = steady_state(_rwa(0.3), check_unique=False)
    assert small.solved_dim < 36 * 36
    assert steady_state(_driven_transistor()).solved_dim == 16 * 16


@pytest.mark.parametrize("make", [lambda: _rwa(1.0, (3, 3, 5)), lambda: _displaced((3, 2, 4))],
                         ids=["rwa-Nth1", "displaced"])
def test_fock_tail_is_top_level_population(make):
    rep = steady_state(make(), check_unique=False)
    for label, dim in rep.state.space.modes:
        expected = ptrace_population(rep.state, label, dim - 1)
        assert rep.fock_tail[label] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_fock_tail_falls_with_mechanical_truncation():
    # g2scan operating point at N_th = 1: the default m6 leaves 1.6e-2 of
    # the population in the top mechanical level, m10 9.8e-4 (the thermal
    # ladder's q^(d-1)(1-q)/(1-q^d) at q = 1/2)
    tails = [steady_state(_g2scan_point(1.0, (4, 4, m), delta_a=3.3),
                          check_unique=False).fock_tail["m"] for m in (6, 10)]
    assert tails[0] > 1e-2
    assert tails[1] < 0.1 * tails[0]


def test_steady_state_failed_solve_raises_after_one_factorization(monkeypatch):
    # one solve path: a NaN from any factor is reported, never retried and
    # never handed to the Krylov step. The first factors are P's level
    # blocks, each factored once; with the step cap at 0 the last is M's,
    # in the fallback
    import scipy.sparse.linalg
    real = scipy.sparse.linalg.splu

    class NanLU:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz

        def solve(self, b):
            return np.full_like(self.lu.solve(b), np.nan)

    def no_krylov(*args, **kwargs):
        raise AssertionError("a NaN reached the Krylov step")

    levels = len(_population_block(_rwa(0.3))[3].diag)
    assert levels > 1
    monkeypatch.setattr(dynamics, "_gmres_cycle", no_krylov)
    for nan_call, cap in ((1, dynamics.REFINE_STEP_CAP), (levels, dynamics.REFINE_STEP_CAP),
                          (levels + 1, 0)):
        calls = []

        def nan_splu(A, *args, **kwargs):
            calls.append(A.shape)
            lu = real(A, *args, **kwargs)
            return NanLU(lu) if len(calls) == nan_call else lu

        monkeypatch.setattr(scipy.sparse.linalg, "splu", nan_splu)
        monkeypatch.setattr(dynamics, "REFINE_STEP_CAP", cap)
        with pytest.raises(SolverError, match="not finite"):
            steady_state(_rwa(0.3), check_unique=False)
        assert len(calls) == max(nan_call, levels)


def _g2scan_point(n_th, dims, delta_a=-8.0):
    # the shipped g2scan operating point (configs/antibunching_g2scan.cfg)
    p = SystemParams(g0=8.0, kappa=1.0, omega_m=160.0, J=80.0, Delta_a=delta_a,
                     Omega_a=0.01, gamma=0.01, N_th=n_th)
    return build_rwa(p, dims)


@pytest.mark.parametrize("n_th, dims", [(0.0, (4, 4, 6)), (0.3, (3, 3, 4))],
                         ids=["a4s4m6", "a3s3m4-Nth0.3"])
def test_checked_steady_state_factors_once(monkeypatch, n_th, dims):
    # the uniqueness check factors M once and measures the population gap
    # with that factor; at the g2scan operating point the disc bound clears
    # every coherence block, so the only other factors are P's level
    # blocks, each once, on which the solution is iterated. The full-space
    # oracle is never called
    import scipy.sparse.linalg
    real = scipy.sparse.linalg.splu
    calls = []

    def counting_splu(A, *args, **kwargs):
        calls.append(A.nnz)
        return real(A, *args, **kwargs)

    def oracle(L):
        raise AssertionError("steady_state called null_space_gap")

    model = _g2scan_point(n_th, dims)
    M = trace_row_system(model)[0]
    P = _population_block(model)[3]
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    monkeypatch.setattr(dynamics, "null_space_gap", oracle)
    rep = steady_state(model)
    assert calls == [M.nnz] + [D.nnz for D in P.diag]
    assert sum(D.nnz for D in P.diag) < M.nnz
    assert rep.null_gap > 1e-8
    assert not rep.lu_fallback and rep.krylov_iterations > 0


def test_scan_bits_do_not_depend_on_point_order(monkeypatch):
    # every factor uses its own pattern's order, never an earlier point's:
    # the scan forward and reversed, each from an empty plan cache, gives
    # the same bits, its two ends checked, one first and one last. One
    # pattern: one ordering pass over the 17 level blocks of P, kept in the
    # plan, and each point factors the 17 level blocks (their fill is
    # 7,660); the first checked point orders M, kept in the plan too, and
    # each checked point factors M, for the null-space gap
    import scipy.sparse.linalg
    calls = []

    def counting(name):
        real = getattr(scipy.sparse.linalg, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    def scan(deltas):
        monkeypatch.setattr(dynamics, "_PLANS", {})
        out = {}
        for d in deltas:
            rep = steady_state(_g2scan_point(0.0, (4, 4, 6), d),
                               check_unique=d in (deltas[0], deltas[-1]))
            space, p = rep.state.space, rep.state.matrix.diagonal().real
            n_a = p @ space.occupations[space.index("a")]
            out[d] = (g2_zero(rep.state, "a"), n_a, rep.residual, rep.lu_nnz,
                      rep.krylov_iterations, rep.backward_error, rep.null_gap)
        return out

    for name in ("spilu", "splu"):
        monkeypatch.setattr(scipy.sparse.linalg, name, counting(name))
    deltas = np.linspace(-8.0, 8.0, 9)   # perfbench/configs/g2scan_reduced.cfg
    forward = scan(deltas)
    assert calls.count("spilu") == 1 + 1 and calls.count("splu") == 9 * 17 + 2
    assert {v[3] for v in forward.values()} == {7_660}
    assert [d for d, v in forward.items() if v[6] is not None] == [-8.0, 8.0]
    assert scan(deltas[::-1]) == forward


def test_cached_order_is_superlus_own():
    # the ordering-only ILU (_min_degree, whose orders the plan keeps for
    # P's levels) gives the column order that splu computes for itself, on
    # the g2scan sector, the thermal sector at m10, and a coherence block
    # that the uniqueness check factors
    import scipy.sparse.linalg as spla
    from omx.dynamics import _disc_bounds, _disc_gaps, _min_degree
    systems = [trace_row_system(_g2scan_point(0.0, (4, 4, 6)))[0],
               trace_row_system(_g2scan_point(1.0, (4, 4, 10)))[0]]
    model = _displaced((4, 3, 5))
    L = liouvillian(model)
    plan, terms = dynamics._plan(model)
    labels = plan.labels
    sizes = np.bincount(labels)
    sizes[labels[0]] = 0
    idx = np.flatnonzero(labels == sizes.argmax())
    # its discs reach the origin, so the check factors it (504 entries)
    discs = _disc_bounds(_disc_gaps(terms, model.space.total_dim), labels)
    assert discs[sizes.argmax()] < 0 and idx.size > 64
    systems.append(L[idx][:, idx].tocsc())
    for A in systems:
        own = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                        options={"SymmetricMode": True}).perm_c
        assert np.array_equal(_min_degree(A), np.argsort(own))


def _diagonal_collapse():
    # a dephasing jump n_c beside the two decays: on the diagonal of L the
    # K_L, K_R and n_c kron n_c entries meet, three contributions whose sum
    # depends on the order they are added in (at these rates two entries
    # round differently when the three are added the other way round)
    space = ModeSpace([("c", 3), ("d", 2)])
    c, d = annihilator(space, "c"), annihilator(space, "d")
    n_c = c.dag() @ c
    h = Operator(space, (0.7 * n_c + 0.3 * (c.dag() @ d + d.dag() @ c)).matrix)
    return LindbladModel(h, [(c, 0.1), (d, 0.7), (n_c, 0.3)])


def _cancelling_coupling():
    # a qubit with the jump |0><1| + 1/2 at rate 1/2 and H_01 = -i/4: the
    # entries that tie the coherences to the populations cancel exactly,
    # so the structural block holds all four entries, the sector two
    space = ModeSpace([("c", 2)])
    h = sp.csr_matrix(np.array([[0.3, -0.25j], [0.25j, -0.2]]))
    c = sp.csr_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    return LindbladModel(Operator(space, h), [(Operator(space, c), 0.5)])


_BLOCK_CASES = {
    "rwa-Nth0": lambda: _rwa(0.0),
    "rwa-Nth0.3": lambda: _rwa(0.3),
    "displaced-327": lambda: _displaced((3, 2, 7)),
    "full": _LIOUVILLIAN_CASES["full"],
    "transistor-driven": _driven_transistor,
    "diagonal-collapse": _diagonal_collapse,
    "cancelling-diagonal": _LIOUVILLIAN_CASES["cancelling-diagonal"],
    "cancelling-coupling": _cancelling_coupling,
    "cancelling-coupling-levels": lambda: _with_photons(_cancelling_coupling()),
}


def _with_photons(model):
    # the model with its occupation handed over as the photon number, so
    # that P has levels, the component that the cancellations cut from the
    # sector one of them
    model.hamiltonian.meta["photons"] = model.space.occupations.sum(axis=0)
    return model


def _masked(M, order):
    # P by its definition: the entries of M whose column has a drive
    # order at most its row's
    A = M.tocoo()
    keep = order[A.col] <= order[A.row]
    return sp.csc_matrix((A.data[keep], (A.row[keep], A.col[keep])), shape=M.shape)


def _assembled(P):
    # P put together from its level blocks, in its level order
    rows, cols, vals = [], [], []
    for D, B, s in zip(P.diag, P.lower, P.bounds[:-1]):
        for block in (D, B):
            a = block.tocoo()
            rows.append(a.row + s)
            cols.append(a.col + (s if block is D else 0))
            vals.append(a.data)
    m = P.perm.size
    return sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(m, m))


def _population_block(model):
    # steady_state's (idx, Lc, M, P), from the model's plan: idx is the
    # plan's structural block
    plan, terms = dynamics._plan(model)
    return (plan.idx, *plan.assemble(terms, model.space.total_dim))


def _same_bits(a, b):
    assert a.format == b.format and a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64))


@pytest.mark.parametrize("name", sorted(_BLOCK_CASES))
def test_block_plan_matches_the_liouvillian(name):
    # the block steady_state assembles from its plan, with M and P, is
    # liouvillian's restricted to the structural block, which holds the
    # population sector, in pattern and in bits; P's levels run in
    # increasing drive order and hold exactly the masked M's entries.
    # Without a drive P is one level, M itself in its level order
    model = _BLOCK_CASES[name]()
    idx, Lc, M, P = _population_block(model)
    sector = trace_row_system(model)[1]
    M_o = trace_row_system(model, idx)[0]
    L = liouvillian(model)
    assert np.isin(sector, idx).all()
    _same_bits(Lc, L[idx][:, idx])
    _same_bits(M, M_o)
    order = drive_order(model, idx)[P.perm]
    assert np.all(np.diff(order) >= 0)
    assert np.array_equal(P.bounds, np.flatnonzero(np.diff(order, prepend=-1, append=-1)))
    oracle = _masked(M_o, drive_order(model, idx))[P.perm][:, P.perm]
    oracle.sort_indices()
    _same_bits(_assembled(P), oracle)
    if "photons" not in model.hamiltonian.meta:
        assert len(P.diag) == 1
        oracle = M_o[P.perm][:, P.perm]
        oracle.sort_indices()
        _same_bits(_assembled(P), oracle)
    plan = dynamics._BlockPlan(dynamics._generator_terms(model), None, model.space.total_dim)
    if name == "diagonal-collapse":
        # K_L, K_R and n_c kron conj(n_c) meet on each population, so
        # scipy's conversion adds three contributions there
        m = plan.idx.size
        counts = np.bincount(plan.row.astype(np.int64) * m + plan.col)
        assert counts.max() == 3 and np.count_nonzero(counts == 3) == model.space.total_dim
    assert (idx.size > sector.size) == name.startswith("cancelling-coupling")


@pytest.mark.parametrize("name", ["rwa-Nth0", "rwa-Nth0.3", "full", "transistor-driven"])
def test_level_solve_is_the_masked_solve(name):
    # forward substitution over the levels solves P exactly: it agrees
    # with a sparse solve of M masked to c(col) <= c(row)
    import scipy.sparse.linalg as spla
    model = _BLOCK_CASES[name]()
    idx, _, M, P = _population_block(model)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
    x = dynamics._LevelLU(P).solve(b)
    oracle = spla.spsolve(_masked(M, drive_order(model, idx)), b)
    assert np.abs(x - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_unchecked_solve_builds_no_liouvillian(monkeypatch):
    # the solve works on the block alone, and the uniqueness check bounds
    # and gathers the other blocks from the kron factors: neither builds
    # the full L, also where the check measures coherence blocks
    real, calls = dynamics.liouvillian, []

    def counting(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(dynamics, "liouvillian", counting)
    model = _g2scan_point(0.0, (4, 4, 6))
    steady_state(model, check_unique=False)
    steady_state(model)
    steady_state(_displaced((4, 3, 5)))
    assert calls == []


def _count_min_degree(monkeypatch) -> list:
    # the sizes of the matrices _min_degree orders, from an empty plan cache
    real, sizes = dynamics._min_degree, []

    def counting(A):
        sizes.append(A.shape[0])
        return real(A)

    monkeypatch.setattr(dynamics, "_PLANS", {})
    monkeypatch.setattr(dynamics, "_min_degree", counting)
    return sizes


def test_checked_scan_orders_m_once(monkeypatch):
    # with every point checked, M's minimum-degree order is made on the
    # first point of the pattern and kept in the plan, as is the one
    # ordering pass over P's level blocks, on a pattern of M's size too
    sizes = _count_min_degree(monkeypatch)
    for delta_a in (-8.0, 0.0, 3.3):
        rep = steady_state(_g2scan_point(0.0, (4, 4, 6), delta_a))
    assert sizes.count(rep.solved_dim) == 2


def test_checked_undriven_solve_orders_m_once(monkeypatch):
    # without a drive P is M as one level, and its level order is M's:
    # the check takes it, so displaced (3, 2, 7) orders its 220-entry M
    # once, then each coherence block that the check measures
    sizes = _count_min_degree(monkeypatch)
    assert steady_state(_displaced((3, 2, 7))).solved_dim == 220
    assert sizes == [220, 208, 180, 144, 108, 72]


_PATTERN_CASES = {
    **{f"liouvillian-{k}": make for k, make in _LIOUVILLIAN_CASES.items()},
    **{f"block-{k}": make for k, make in _BLOCK_CASES.items()},
    "displaced-435": lambda: _displaced((4, 3, 5)),
    "g2scan-m6": lambda: _g2scan_point(0.0, (4, 4, 6)),
    "g2scan-m20-Nth1": lambda: _g2scan_point(1.0, (4, 4, 20)),
    # the occupation n_a + n_s + n_m as the order: levels without couplings
    # among levels with them
    "levels-rwa-Nth1": lambda: _with_photons(_LIOUVILLIAN_CASES["rwa-Nth1"]()),
}


@pytest.mark.parametrize("name", sorted(_PATTERN_CASES))
def test_plan_labels_are_those_of_the_full_pattern(name):
    # the plan labels L's structural components from the factors' patterns
    # alone; scipy, on the n^2-entry graph of every contribution, gives the
    # same labels, in value and in int32
    model = _PATTERN_CASES[name]()
    labels = dynamics._BlockPlan(dynamics._generator_terms(model), None,
                                 model.space.total_dim).labels
    oracle = structural_labels(model)
    assert labels.dtype == oracle.dtype == np.int32
    assert np.array_equal(labels, oracle)


@pytest.mark.parametrize("name", sorted(_PATTERN_CASES))
def test_one_ordering_pass_gives_each_level_its_own_order(name):
    # one _min_degree call on the block-diagonal pattern of P's level
    # blocks orders each level as a call on its block alone does (17
    # levels at g2scan m6)
    model = _PATTERN_CASES[name]()
    plan = dynamics._plan(model)[0]
    assert np.array_equal(plan.levels.perm, level_orders(model))
    if name == "g2scan-m6":
        assert len(plan.levels.diag) == 17


def _plan_order(model):
    # (plan, the photon order N_i + N_j of its block's entries, the plan's
    # drive order of them from M's structural pattern)
    plan = dynamics._plan(model)[0]
    n, m = model.space.total_dim, plan.idx.size
    photons = model.hamiltonian.meta.get("photons", np.zeros(n, int))
    c = photons[plan.idx // n] + photons[plan.idx % n]
    M = sp.csc_matrix((np.ones(plan.m_src.size), plan.m_indices, plan.m_indptr), shape=(m, m))
    return plan, c, dynamics._drive_order(M, c)


def _assert_levels_follow(levels, order):
    # the levels are the values of order, increasing
    ranked = order[levels.perm]
    assert np.all(np.diff(ranked) >= 0)
    assert np.array_equal(levels.bounds, np.flatnonzero(np.diff(ranked, prepend=-1, append=-1)))


@pytest.mark.parametrize("name", sorted(_PATTERN_CASES))
def test_plan_levels_follow_the_drive_order(name):
    # the bucket search on M's pattern gives the drive order that dijkstra
    # gives on the n^2-entry structural pattern, and P's levels follow it
    model = _PATTERN_CASES[name]()
    plan, c, order = _plan_order(model)
    assert np.array_equal(order, drive_order(model, plan.idx))
    assert np.all(order >= c)
    _assert_levels_follow(plan.levels, order)
    if name == "g2scan-m6":
        assert np.count_nonzero(order > c) == 736


@pytest.mark.parametrize("n_th, dims", [(0.5, (4, 4, 6)), (1.0, (4, 4, 10))],
                         ids=["a4s4m6-Nth0.5", "a4s4m10-Nth1"])
def test_thermal_phonons_make_the_drive_order_the_photon_order(n_th, dims):
    # thermal jumps connect every phonon state both ways, so the drive's
    # raising edges reach every entry at its photon order: P keeps the 13
    # photon-order levels
    plan, c, order = _plan_order(_g2scan_point(n_th, dims))
    assert np.array_equal(order, c)
    _assert_levels_follow(plan.levels, c)
    assert len(plan.levels.diag) == 13


def test_a_level_without_couplings_keeps_its_natural_order():
    # SuperLU orders a pattern without off-diagonal entries naturally, but
    # its nodes, isolated in a larger pattern, in reverse: level 13 of
    # levels-rwa-Nth1 is ten such entries, in their own order
    levels = dynamics._plan(_PATTERN_CASES["levels-rwa-Nth1"]())[0].levels
    s, e = levels.bounds[13:15]
    bare = levels.diag[13]
    assert bare[3] == (10, 10) and np.array_equal(bare[1], np.arange(10))
    assert np.all(np.diff(levels.perm[s:e]) > 0)


def test_plan_peak_is_below_the_full_pattern_graph():
    # the bound is the CSR of the n^2-entry graph that labelling the full
    # pattern with scipy needs at rwa a4/s4/m20, N_th = 1: float64 ones
    # and int32 indices over its 1,030,912 contributions, and int32 indptr
    # over its 102,400 rows, 12.8 MB. The plan forms no such graph
    import tracemalloc
    model = _g2scan_point(1.0, (4, 4, 20), 3.3)
    n = model.space.total_dim
    terms = dynamics._generator_terms(model)
    count = sum((n if a is None else a[0].size) * (n if b is None else b[0].size)
                for a, b in terms)
    assert count == 1_030_912
    bound = count * (8 + 4) + (n * n + 1) * 4
    tracemalloc.start()
    try:
        dynamics._BlockPlan(terms, model.hamiltonian.meta["photons"], n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


# |lambda_1| of each case to 17 digits, as a check that slices the actual
# population sector from the block, and bounds or measures the components
# cut from it as blocks of their own, gives it: the whole-block check
# must agree
_NULL_GAPS = {
    "cancelling-coupling": 0.7071067811865476,
    "cancelling-coupling-levels": 0.7071067811865476,
    "cancelling-diagonal": 0.0012310842060420317,
    "diagonal-collapse": 0.31427550784910424,
    "displaced-327": 0.0008417476312932072,
    "full": 0.23942376897785295,
    "rwa-Nth0": 0.19998871711445704,
    "rwa-Nth0.3": 0.21555617567562543,
    "transistor-driven": 2.0,
}


@pytest.mark.parametrize("name", sorted(_BLOCK_CASES))
def test_steady_state_solves_and_checks_the_structural_block(name):
    # the solve and the population gap take the plan's block whole, also
    # where cancellations cut a component from the sector: the gap sees
    # every component of the block, so |lambda_1| is the same
    model = _BLOCK_CASES[name]()
    rep = steady_state(model)
    assert rep.solved_dim == dynamics._plan(model)[0].idx.size
    assert rep.null_gap == pytest.approx(_NULL_GAPS[name], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", ["cancelling-coupling", "cancelling-coupling-levels"])
def test_component_cut_from_the_sector_solves_to_zero(name):
    # the cancelled couplings cut |0><1| and |1><0| from the sector. In the
    # block they form a component whose right-hand side is zero, so the
    # solution is exactly 0 there, and on the sector it is the LU oracle's
    model = _BLOCK_CASES[name]()
    rep = steady_state(model)
    off = np.ones(model.space.total_dim ** 2, dtype=bool)
    off[trace_row_system(model)[1]] = False
    assert np.count_nonzero(off) == 2 and not rep.state.matrix.reshape(-1)[off].any()
    oracle = lu_oracle(model).matrix
    assert np.abs(rep.state.matrix - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_a_warm_plan_cache_changes_no_bit(monkeypatch):
    # a point solved from empty caches, and again after another point of
    # its pattern, gives the same state bits and the same report
    monkeypatch.setattr(dynamics, "_PLANS", {})
    cold = steady_state(_g2scan_point(0.3, (3, 3, 4), 3.3))
    steady_state(_g2scan_point(0.3, (3, 3, 4), -2.0), check_unique=False)
    warm = steady_state(_g2scan_point(0.3, (3, 3, 4), 3.3))
    assert len(dynamics._PLANS) == 1
    assert np.array_equal(cold.state.matrix.view(np.uint64), warm.state.matrix.view(np.uint64))
    assert {k: v for k, v in vars(cold).items() if k != "state"} == \
        {k: v for k, v in vars(warm).items() if k != "state"}


@pytest.mark.parametrize("make", [
    lambda: _g2scan_point(0.0, (4, 4, 6), 3.3),
    lambda: build_rwa(SystemParams(g0=2.0, kappa=1.0, omega_m=8.0, J=4.0, Delta_a=1.0,
                                   Omega_a=0.0, gamma=0.2, N_th=0.3), (3, 3, 4)),
    _BLOCK_CASES["cancelling-diagonal"], _BLOCK_CASES["cancelling-coupling"]],
    ids=["g2scan", "rwa-undriven", "cancelling-diagonal", "cancelling-coupling"])
def test_checked_and_unchecked_solves_give_the_same_bits(make):
    # the check measures the gap with its own factor of M, and the
    # solution comes from P's either way (without a drive P is M as one
    # level, factored apart from the check's): the same state bits and
    # report, also where entries of M cancel, so that M's pattern is not
    # the one P's order was planned on
    model = make()
    checked, unchecked = steady_state(model), steady_state(model, check_unique=False)
    assert checked.null_gap > 1e-8 and unchecked.null_gap is None
    assert np.array_equal(checked.state.matrix.view(np.uint64),
                          unchecked.state.matrix.view(np.uint64))
    assert {k: v for k, v in vars(checked).items() if k not in ("state", "null_gap")} == \
        {k: v for k, v in vars(unchecked).items() if k not in ("state", "null_gap")}


def test_bounded_cache_drops_its_oldest_entry():
    cache, made = {}, []
    for key in (1, 2, 1, 3):
        assert dynamics._cached(cache, 2, key, lambda: made.append(key) or -key) == -key
    assert made == [1, 2, 3] and cache == {2: -2, 3: -3}


def test_iterated_state_does_not_depend_on_blas_threads():
    # the iteration at a converged truncation (a4/s4/m10 at N_th = 1, the
    # g2scan operating point) gives the same state bits with one and with
    # two OpenBLAS threads. The LU path is not pinned: above the shipped
    # sizes it may differ in the last bits (README, BLAS threads)
    import os
    import subprocess
    import sys
    code = ("import hashlib\n"
            "from omx import SystemParams, build_rwa, steady_state\n"
            "p = SystemParams(g0=8.0, kappa=1.0, omega_m=160.0, J=80.0, Delta_a=3.3,\n"
            "                 Omega_a=0.01, gamma=0.01, N_th=1.0)\n"
            "rep = steady_state(build_rwa(p, (4, 4, 10)), check_unique=False)\n"
            "print(rep.lu_fallback, hashlib.sha256(rep.state.matrix.tobytes()).hexdigest())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out.append(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True).stdout)
    assert out[0].startswith("False ") and out[1] == out[0]


def test_lu_fill_below_colamd():
    # the kept orders on the pattern of A + A^T beat COLAMD on what a
    # g2scan point factors: M for the check, and P's level blocks for the
    # solve, whose summed fill the report records
    import scipy.sparse.linalg as spla
    from omx.dynamics import _factor, _min_degree
    model = _g2scan_point(0.0, (4, 4, 6))
    M = trace_row_system(model)[0]
    P = _population_block(model)[3]
    rep = steady_state(model, check_unique=False)
    assert _factor(M, _min_degree(M)).nnz < spla.splu(M).nnz
    assert rep.lu_nnz == dynamics._LevelLU(P).nnz < sum(spla.splu(D).nnz for D in P.diag)


@pytest.mark.parametrize("delta_a", [3.3, 0.5])
def test_g2_does_not_depend_on_lu_order(delta_a):
    # at N_th = 1, m10, an un-refined COLAMD solve is 5.9e-6 and 6.9e-6
    # off at these two points; the refined solution of steady_state agrees
    # with the oracle's other order and pivoting
    model = _g2scan_point(1.0, (4, 4, 10), delta_a)
    g2 = g2_zero(steady_state(model, check_unique=False).state, "a")
    assert g2 == pytest.approx(g2_zero(lu_oracle(model), "a"), rel=1e-10, abs=0.0)


# Krylov iterations over all refinement steps, measured on both sectors
# below (m6 at N_th = 0, then m10 at N_th = 1): 2 and 3, 8 and 11, 10 and
# 15, 26 and 24. With P's levels on the photon order the m6 sector took 11,
# 11, 15 and 25; against M without its drive entries as the preconditioner
# the counts were 23 to 28, 36, 49 and 56
_KRYLOV_CEILING = {0.01: 4, 0.1: 12, 0.3: 16, 1.0: 27}


@pytest.mark.parametrize("n_th, dims", [(0.0, (4, 4, 6)), (1.0, (4, 4, 10))],
                         ids=["a4s4m6", "a4s4m10-Nth1"])
@pytest.mark.parametrize("omega_a", sorted(_KRYLOV_CEILING))
def test_refinement_matches_the_lu_oracle(n_th, dims, omega_a):
    # the Krylov refinement on P's level solve converges without the
    # fallback up to a drive of kappa, where the drive is no longer weak,
    # within each drive's iteration ceiling, and gives the LU's <n_a> and g2
    model = build_rwa(SystemParams(g0=8.0, kappa=1.0, omega_m=160.0, J=80.0, Delta_a=3.3,
                                   Omega_a=omega_a, gamma=0.01, N_th=n_th), dims)
    rep = steady_state(model, check_unique=False)
    assert not rep.lu_fallback and 0 < rep.krylov_iterations <= _KRYLOV_CEILING[omega_a]
    assert rep.backward_error <= dynamics.BACKWARD_ERROR_STOP
    _assert_matches_the_lu_oracle(model, rep.state)


@pytest.mark.parametrize("make", [
    *(lambda omega_a=omega_a: build_rwa(SystemParams(
        g0=8.0, kappa=1.0, omega_m=160.0, J=80.0, Delta_a=3.3, Omega_a=omega_a, gamma=0.01),
        (4, 4, 6)) for omega_a in sorted(_KRYLOV_CEILING)),
    lambda: _g2scan_point(1.0, (4, 4, 10), 3.3), _BLOCK_CASES["cancelling-diagonal"]],
    ids=[f"a4s4m6-drive{w}" for w in sorted(_KRYLOV_CEILING)] + ["a4s4m10-Nth1",
                                                                "cancelling-diagonal"])
def test_gmres_cycle_is_scipys(monkeypatch, make):
    # the transcribed cycle gives scipy's gmres iterates in bits, at every
    # drive of the Krylov ceilings (0.01 kappa is the g2scan point), on the
    # thermal sector and through the fallback (cancelling-diagonal)
    ours = steady_state(make(), check_unique=False)
    monkeypatch.setattr(dynamics, "_refine", scipy_refine)
    theirs = steady_state(make(), check_unique=False)
    assert np.array_equal(ours.state.matrix.view(np.uint64), theirs.state.matrix.view(np.uint64))
    assert (ours.krylov_iterations, ours.backward_error, ours.lu_fallback) == \
        (theirs.krylov_iterations, theirs.backward_error, theirs.lu_fallback)


def test_gmres_cycle_solves_p_once_per_krylov_vector(monkeypatch):
    # at the g2scan point (Delta_a = 3.3) the refinement takes 1 cycle and
    # 2 iterations: one solve of P to start, one per cycle for its first
    # Krylov vector and one per iteration, 4 in all. scipy's gmres takes
    # the first one twice, and 5 solves
    real, calls = dynamics._LevelLU.solve, []

    def counting(self, b):
        calls.append(b.size)
        return real(self, b)

    monkeypatch.setattr(dynamics._LevelLU, "solve", counting)
    model = _g2scan_point(0.0, (4, 4, 6), 3.3)
    rep = steady_state(model, check_unique=False)
    assert rep.krylov_iterations == 2 and len(calls) == 4
    calls.clear()
    monkeypatch.setattr(dynamics, "_refine", scipy_refine)
    steady_state(model, check_unique=False)
    assert len(calls) == 5


def _assert_matches_the_lu_oracle(model, state):
    oracle = lu_oracle(model)
    n_a = model.space.occupations[model.space.index("a")]
    assert (state.matrix.diagonal().real @ n_a
            == pytest.approx(oracle.matrix.diagonal().real @ n_a, rel=1e-12, abs=0.0))
    assert g2_zero(state, "a") == pytest.approx(g2_zero(oracle, "a"), rel=1e-12, abs=0.0)


def _weak_regime(delta_a):
    # ROADMAP item 2's weak drive: gamma = 1e-3, Omega_a = 1e-4
    return build_rwa(SystemParams(g0=8.0, kappa=1.0, omega_m=160.0, J=80.0, Delta_a=delta_a,
                                  Omega_a=1e-4, gamma=1e-3), (4, 4, 6))


@pytest.mark.parametrize("makes", [
    [lambda d=d: _g2scan_point(0.0, (4, 4, 6), d) for d in np.linspace(-8.0, 8.0, 9)],
    [lambda: _g2scan_point(0.0, (4, 4, 10), 3.3)],
    [lambda: _weak_regime(3.3), lambda: _weak_regime(0.0)]],
    ids=["g2scan-reduced", "a4s4m10-Nth0", "weak-regime"])
def test_drive_order_levels_converge_in_a_few_krylov_iterations(makes):
    # at N_th = 0 an entry that holds a phonon but fewer photons than made
    # it is fed only by a photon decay from two orders up: P on the drive
    # order keeps that decay, so the refinement converges in at most 4
    # Krylov iterations at the nine points of the reduced g2scan grid
    # (perfbench/configs/g2scan_reduced.cfg), at m10 and in the weak
    # regime, with no fallback (on the photon order: 8 to 11, then 32 and
    # 23 or 24 before the fallback). g2 is that of the same refinement on
    # the factor of M
    for make in makes:
        model = make()
        rep = steady_state(model, check_unique=False)
        assert not rep.lu_fallback and rep.krylov_iterations <= 4
        plan, terms = dynamics._plan(model)
        M = plan.assemble(terms, model.space.total_dim)[1]
        rhs = np.zeros(M.shape[0], dtype=complex)
        rhs[0] = 1.0
        y = dynamics._refine(M, dynamics._factor(M, plan.min_degree()), rhs)[0]
        on_m = DensityMatrix(model.space, sector_state(model, plan.idx, y))
        assert g2_zero(rep.state, "a") == pytest.approx(g2_zero(on_m, "a"), rel=1e-12, abs=0.0)


def test_large_thermal_sector_converges_without_the_fallback():
    # a4/s4/m20 at N_th = 1 (4800 sector entries): P carries the drive's
    # raising entries, so the refinement needs no Krylov climb up the
    # photon ladder (3 iterations; 24 against M without the drive)
    model = _g2scan_point(1.0, (4, 4, 20), 3.3)
    rep = steady_state(model, check_unique=False)
    assert rep.solved_dim == 4800
    assert not rep.lu_fallback and 0 < rep.krylov_iterations <= 6
    _assert_matches_the_lu_oracle(model, rep.state)


@pytest.mark.parametrize("cap, gamma", [(0, 0.01), (dynamics.REFINE_STEP_CAP, 0.0)],
                         ids=["stalled", "undamped-mechanics"])
def test_refinement_falls_back_to_the_lu(monkeypatch, cap, gamma):
    # with no refinement step allowed the iteration stalls at P's own
    # solution; without mechanical damping P's photon-free level block is
    # singular (every phonon population there is stationary) while M is not.
    # Either way the fallback runs the same refinement on the check's
    # factor of M and reports its fill. At the real cap it meets the stop
    # and the LU oracle; at cap 0 both loops stop at their first solve
    from omx.dynamics import _backward_error, _factor, _min_degree
    monkeypatch.setattr(dynamics, "REFINE_STEP_CAP", cap)
    model = build_rwa(SystemParams(g0=8.0, kappa=1.0, omega_m=160.0, J=80.0, Delta_a=3.3,
                                   Omega_a=0.01, gamma=gamma), (4, 4, 6))
    rep = steady_state(model)
    assert rep.lu_fallback and rep.null_gap > 1e-8
    M, idx = trace_row_system(model)
    lu = _factor(M, _min_degree(M))
    assert rep.lu_nnz == lu.nnz
    if cap:
        assert rep.backward_error <= dynamics.BACKWARD_ERROR_STOP
        _assert_matches_the_lu_oracle(model, rep.state)
    else:
        rhs = np.zeros(M.shape[0], dtype=complex)
        rhs[0] = 1.0
        y = lu.solve(rhs)
        assert rep.krylov_iterations == 0
        assert rep.backward_error == _backward_error(abs(M), y, rhs - M @ y, rhs)
        assert np.array_equal(rep.state.matrix, sector_state(model, idx, y))


def test_undriven_model_refines_on_its_one_level_factor(monkeypatch):
    # build_displaced has no drive term, so P is M as one level and its
    # factor is exact: the same GMRES refinement converges in one Krylov
    # iteration. The checked solve factors M twice, once for the check and
    # once as P (the check also factors some coherence blocks of this model)
    import scipy.sparse.linalg
    real = scipy.sparse.linalg.splu
    calls = []

    def counting_splu(A, *args, **kwargs):
        calls.append(A.shape)
        return real(A, *args, **kwargs)

    model = _displaced((3, 2, 7))
    assert "photons" not in model.hamiltonian.meta
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    rep = steady_state(model)
    assert calls.count((rep.solved_dim, rep.solved_dim)) == 2
    assert rep.krylov_iterations == 1 and not rep.lu_fallback
    assert rep.backward_error <= dynamics.BACKWARD_ERROR_STOP
    assert rep.lu_nnz == dynamics._LevelLU(_population_block(model)[3]).nnz
    oracle = lu_oracle(model).matrix
    assert np.abs(rep.state.matrix - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("make", [lambda: _rwa(0.3), lambda: _displaced((3, 2, 7)),
                                  lambda: _g2scan_point(0.3, (3, 3, 4))],
                         ids=["rwa-Nth0.3", "displaced-327", "g2scan-a3s3m4-Nth0.3"])
def test_disc_bound_is_a_lower_bound(make):
    from omx.dynamics import _disc_bounds, _disc_gaps
    model = make()
    L = liouvillian(model)
    plan, terms = dynamics._plan(model)
    labels = plan.labels
    discs = _disc_bounds(_disc_gaps(terms, model.space.total_dim), labels)
    others = [c for c in np.unique(labels) if c != labels[0]]
    assert others
    for c in others:
        idx = np.flatnonzero(labels == c)
        assert discs[c] <= np.abs(sla.eigvals(L[idx][:, idx].toarray())).min()


@pytest.mark.parametrize("name", sorted(_BLOCK_CASES) + ["displaced-435"])
def test_term_disc_bound_is_the_full_bound(name):
    # the disc bounds from the kron factors equal those of |L| to rounding
    # wherever the structural and the actual components coincide, and
    # never exceed a block's exact min |lambda|: on the structural blocks,
    # and on the actual blocks, those that cancellations cut from the
    # population block included
    from omx.dynamics import _disc_bounds, _disc_gaps
    model = {**_BLOCK_CASES, "displaced-435": lambda: _displaced((4, 3, 5))}[name]()
    n = model.space.total_dim
    L = liouvillian(model)
    plan, terms = dynamics._plan(model)
    actual = _component_labels(L)
    gaps = _disc_gaps(terms, n)
    oracle, term, cut = (disc_bounds(L, actual), _disc_bounds(gaps, plan.labels),
                         _disc_bounds(gaps, actual))
    for s in np.unique(plan.labels):
        e = np.flatnonzero(plan.labels == s)
        if np.count_nonzero(actual == actual[e[0]]) == e.size:
            assert term[s] == pytest.approx(oracle[actual[e[0]]], rel=1e-12, abs=0.0)
    for c in np.unique(actual):
        if c != actual[0]:
            e = np.flatnonzero(actual == c)
            exact = np.abs(sla.eigvals(L[e][:, e].toarray())).min()
            assert max(cut[c], term[plan.labels[e[0]]]) <= exact


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
    model = LindbladModel(model.hamiltonian, [])  # drop kappa decay
    rho0 = fock_density(model.space, (1, 0, 0))
    ts = np.linspace(0, 2 * np.pi / g0, 25)
    traj = evolve(model, rho0, ts)
    n_a = number_op(model.space, "a")
    for t, rho in zip(ts, traj):
        assert np.real(expect(rho, n_a)) == pytest.approx(np.cos(0.5 * g0 * t) ** 2, abs=1e-8)


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
    rho0 = fock_density(model.space, (0, 0, 0))
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
    rho = fock_density(space, (1,))
    assert g2_zero(rho, "a") == pytest.approx(0.0, abs=1e-12)


def _random_state(space, seed):
    # a dense valid state whose coherences are as large as its populations
    rng = np.random.default_rng(seed)
    n = space.total_dim
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return DensityMatrix(space, rho / np.trace(rho).real)


@pytest.mark.parametrize("modes, label", [((("a", 5),), "a"),
                                          ((("a", 4), ("s", 3), ("m", 2)), "a"),
                                          ((("m", 3), ("x", 2), ("a", 5)), "a"),
                                          ((("a", 4), ("s", 3), ("m", 2)), "m")])
def test_g2_matches_operator_formula(modes, label):
    # oracle: <a+a+aa>/<a+a>^2 from the kron-embedded ladder operator
    space = ModeSpace(modes)
    a = tensor_embed(destroy_matrix(space.dims[space.index(label)]), space, label).to_dense()
    ad = a.conj().T
    for seed in range(3):
        rho = _random_state(space, seed)
        nbar = np.trace(ad @ a @ rho.matrix).real
        expected = np.trace(ad @ ad @ a @ a @ rho.matrix).real / nbar**2
        assert g2_zero(rho, label) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_g2_negative_raises():
    # a valid state (eigenvalue -5e-9 is within rounding) with a negative
    # two-photon population: g2 is about -1e4, not 0
    space = ModeSpace([("a", 3)])
    rho = DensityMatrix(space, np.diag([1 - 1e-6 + 5e-9, 1e-6, -5e-9]).astype(complex))
    with pytest.raises(ValueError, match="not physical"):
        g2_zero(rho, "a")


def test_g2_vanishing_denominator_raises():
    space = ModeSpace([("a", 3)])
    rho = fock_density(space, (0,))
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
        state = steady_state(replace(model, hamiltonian=h), check_unique=False).state
        r_oracle = 1.0 + 2.0 * kappa * expect(state, s) / omega
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
    models += [LindbladModel(base.hamiltonian, [(s, 1.0), (ap, rate)])
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
    model = LindbladModel(model.hamiltonian, model.collapses + [heating])
    with pytest.raises(ValueError, match="collapse operator"):
        reflection_spectrum(model, "s", [0.0], 0.01)


def test_model_rejects_non_hermitian_hamiltonian():
    # +1.5i s^dag s once gave max |r| = 3.11 over the reflection grid, silently
    model = _transistor(1)
    n_s = (annihilator(model.space, "s").dag() @ annihilator(model.space, "s")).matrix
    h = model.hamiltonian.matrix
    with pytest.raises(ValueError, match="not Hermitian"):
        replace(model, hamiltonian=Operator(model.space, h + 1.5j * n_s))
    # the tolerance is relative: a deviation of 2e-7 on max|H| = 1.5e7 passes
    replace(model, hamiltonian=Operator(model.space, 1e6 * h + 1e-7j * n_s))
    # an annihilator is no Hamiltonian
    space = ModeSpace([("a", 2)])
    with pytest.raises(ValueError, match="not Hermitian"):
        LindbladModel(annihilator(space, "a"), [])


@pytest.mark.parametrize("rate", [np.nan, -0.1])
def test_model_rejects_a_rate_below_zero_or_nan(rate):
    # a NaN rate once passed: reflection_spectrum then returned nan+nanj,
    # and steady_state reported a degenerate null space
    model = _transistor(1)
    s, ap = annihilator(model.space, "s"), annihilator(model.space, "ap")
    with pytest.raises(ValueError, match=f"collapse rate must be >= 0; got {rate}"):
        LindbladModel(model.hamiltonian, [(s, 1.0), (ap, rate)])


def test_hermitian_deviation_matches_the_sparse_difference():
    # each stored entry meets its transposed partner, or 0 where none is
    # stored; symmetric and one-way patterns give max|H - H^dag| bit for bit
    rng = np.random.default_rng(7)
    for trial in range(40):
        n = int(rng.integers(2, 12))
        mask = rng.random((n, n)) < rng.uniform(0.0, 0.6)
        a = np.where(mask, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 0.0)
        if trial % 2:
            a = a + a.conj().T
            if trial % 4 == 1:
                a = a + 1e-3j * (a != 0)  # symmetric pattern, a non-Hermitian part
        h = Operator(ModeSpace([("x", n)]), sp.csr_matrix(a)).matrix
        assert dynamics._hermitian_deviation(h) == abs(h - h.conj().T).max()


def test_model_rejects_a_one_way_hamiltonian_entry():
    # H_02 without H_20: H and H^dag differ in pattern
    space = ModeSpace([("a", 3)])

    def one_way(value):
        return Operator(space, sp.csr_matrix(
            ([1.0, 2.0, 3.0, value], ([0, 1, 2, 0], [0, 1, 2, 2])), shape=(3, 3)))

    with pytest.raises(ValueError, match=r"not Hermitian: max\|H - H\^dag\| = 1\.00e-10"):
        LindbladModel(one_way(1e-10), [])
    LindbladModel(one_way(1e-12), [])  # within 1e-12 max|H| = 3e-12


def test_collapse_rate_needs_the_annihilator_exactly():
    model = _transistor(1)
    space = model.space
    a_s, a_ap = annihilator(space, "s"), annihilator(space, "ap")
    h = model.hamiltonian
    nudged = Operator(space, a_s.matrix.copy())
    nudged.matrix.data[0] = np.nextafter(nudged.matrix.data[0].real, 2.0)
    # 2 a_s and the nudged a_s have the annihilator's pattern, not its values
    for impostor in (2 * a_s, nudged):
        model = LindbladModel(h, [(impostor, 0.3), (a_ap, 0.7)])
        with pytest.raises(ValueError, match="no collapse operator found for mode 's'"):
            reflection_spectrum(model, "s", [0.0], 0.01)
        assert dynamics._collapse_rate(model, "ap") == 0.7
    model = LindbladModel(h, [(2 * a_s, 0.3), (a_s, 0.6), (a_ap, 0.7)])
    assert dynamics._collapse_rate(model, "s") == 0.6


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


@pytest.mark.parametrize("k", [0, -1])
def test_nonhermitian_eigs_rejects_k_below_one(k):
    # k = 0 once raised a bare IndexError
    from omx import build_nonhermitian
    p = SystemParams(g0=1.0, kappa=0.025, omega_m=2.0, Delta_s=-1.0,
                     Delta_a=-7.0, alpha=0.5, gamma=1e-4)
    with pytest.raises(ValueError, match=rf"k={k} must lie in \[1, 12\]"):
        nonhermitian_eigs(build_nonhermitian(p, (2, 2, 3)), k)


def _full_space_eigs(h_eff, k):
    """Oracle: one dense eig of the whole H_eff, matched to (B^dag)^n|vac>
    with exclusion, as (n, value, overlap) in ascending Re."""
    w, v = sla.eig(h_eff.to_dense())
    norms = np.linalg.norm(v, axis=0)
    bd = h_eff.meta["b_mode"].matrix.conj().T
    target = np.zeros(h_eff.space.total_dim, dtype=complex)
    target[0] = 1.0
    out, used = [], set()
    for n in range(k):
        if n > 0:
            target = bd @ target / np.sqrt(n)
        ov = np.abs(target.conj() @ v) ** 2 / norms**2
        idx = next(int(i) for i in np.argsort(-ov) if int(i) not in used)
        used.add(idx)
        out.append((n, complex(w[idx]), float(ov[idx])))
    return sorted(out, key=lambda e: e[1].real)


def _assert_matches_oracle(h_eff, k):
    eigs = nonhermitian_eigs(h_eff, k)
    oracle = _full_space_eigs(h_eff, k)
    assert [e.n for e in eigs] == [n for n, _, _ in oracle]
    for e, (_, value, overlap) in zip(eigs, oracle):
        assert abs(e.value - value) <= 1e-12
        assert abs(e.overlap - overlap) <= 1e-12


def _benchmark_h_eff(alpha, truncations=None):
    from omx import build_nonhermitian
    from omx.cli import _truncations, load_config
    cfg = load_config(Path(__file__).parents[1] / "configs" / "phonon_eigen_benchmark.cfg")
    return build_nonhermitian(cfg.params.replace(alpha=complex(alpha)),
                              truncations or _truncations(cfg))


def _record_eig_shapes(monkeypatch):
    shapes, eig = [], sla.eig
    monkeypatch.setattr(sla, "eig",
                        lambda a, *args, **kw: shapes.append(a.shape) or eig(a, *args, **kw))
    return shapes


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_nonhermitian_block_solve_matches_full_space_oracle(alpha):
    _assert_matches_oracle(_benchmark_h_eff(alpha), 4)


def test_nonhermitian_eigs_decomposes_only_the_ladder_blocks(monkeypatch):
    h = _benchmark_h_eff(1.0)
    shapes = _record_eig_shapes(monkeypatch)
    nonhermitian_eigs(h, 4)
    assert h.space.total_dim == 135
    assert shapes == [(28, 28)]


def test_nonhermitian_eigs_without_blocks_keeps_the_whole_space(monkeypatch):
    # a random matrix holds no ladder, so its overlaps fall below the floor
    monkeypatch.setattr(dynamics, "OVERLAP_FLOOR", 0.0)
    space = ModeSpace([("a", 3), ("m", 4)])
    rng = np.random.default_rng(7)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    b_mode = annihilator(space, "m") + 0.5 * annihilator(space, "a")
    h = Operator(space, sp.csr_matrix(m), {"b_mode": b_mode})
    shapes = _record_eig_shapes(monkeypatch)
    _assert_matches_oracle(h, 4)
    assert shapes == [(12, 12), (12, 12)]  # the block solve, then the oracle


@pytest.mark.parametrize("limit, raises", [(27, True), (28, False), (134, False)])
def test_dense_eig_limit_judges_the_kept_blocks(monkeypatch, limit, raises):
    h = _benchmark_h_eff(1.0)
    monkeypatch.setattr(dynamics, "DENSE_EIG_LIMIT", limit)
    if raises:
        with pytest.raises(SolverError, match="28 states"):
            nonhermitian_eigs(h, 4)
    else:
        assert len(nonhermitian_eigs(h, 4)) == 4


def test_nonhermitian_eigs_rejects_a_cut_ladder(monkeypatch):
    # a2/m2 hold n_a + n_m <= 2, so (B^dag)^3|vac> is zero; the n = 2 level
    # that survives the cut fails the overlap floor (see the next test)
    monkeypatch.setattr(dynamics, "OVERLAP_FLOOR", 0.0)
    from omx import build_nonhermitian
    p = SystemParams(g0=1.0, kappa=0.025, omega_m=2.0, Delta_s=-1.0,
                     Delta_a=-7.0, alpha=0.5, gamma=1e-4)
    h = build_nonhermitian(p, (2, 2, 2))
    assert len(nonhermitian_eigs(h, 3)) == 3
    with pytest.raises(ValueError, match="vanishes"):
        nonhermitian_eigs(h, 4)


@pytest.mark.parametrize("alpha, overlap", [(0.5, "0.00495"), (1.0, "0.0192")])
def test_nonhermitian_eigs_rejects_a_level_below_the_overlap_floor(alpha, overlap):
    # a2/s2/m2 keeps only the a'b'|vac> part of (B^dag)^2|vac>: no
    # eigenvector holds the n = 2 level, whose best overlap was once
    # written out as if it were the level
    assert min(e.overlap for e in nonhermitian_eigs(_benchmark_h_eff(alpha), 4)) >= 0.97
    small = _benchmark_h_eff(alpha, (2, 2, 2))
    assert min(e.overlap for e in nonhermitian_eigs(small, 2)) > 0.99
    with pytest.raises(ValueError, match=f"level n=2 has best overlap {overlap} <= 0.5"):
        nonhermitian_eigs(small, 3)
