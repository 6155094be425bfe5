import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from omx import (
    LindbladModel,
    ModeSpace,
    SystemParams,
    annihilator,
    build_displaced,
    build_effective_phonon,
    build_full,
    build_hybrid_decomposition,
    build_nonhermitian,
    build_rwa,
    build_transistor,
    default_truncations,
    eigenvalue_prediction,
    hybrid_rotation,
    hybridize,
    number_op,
    phonon_nonlinearity,
    reflection_spectrum,
)
from omx.hilbert import Operator, thermal_dim
from omx.models import (
    _resolve_truncations,
    _thermal_collapses,
    coupling_spectrum,
    fock_shift,
)
from omx.params import thermal_occupation


# ---------------------------------------------------------------- params ---

def test_gamma_from_quality_factor():
    p = SystemParams(g0=1.0, omega_m=100.0, Q=1e4)
    assert p.gamma == pytest.approx(0.01)
    with pytest.raises(ValueError, match="inconsistent damping"):
        SystemParams(g0=1.0, omega_m=100.0, Q=1e4, gamma=0.5)


def test_delta_and_detuning_consistency():
    p = SystemParams(g0=1.0, omega_m=160.0, J=80.0, Delta_a=4.0)
    assert p.Delta_s == pytest.approx(164.0)
    assert p.delta == pytest.approx(0.0)
    with pytest.raises(ValueError, match="inconsistent delta"):
        SystemParams(g0=1.0, omega_m=160.0, J=80.0, delta=3.0)
    with pytest.raises(ValueError, match="inconsistent detunings"):
        SystemParams(g0=1.0, J=80.0, Delta_s=10.0, Delta_a=0.0)


def test_thermal_occupation_from_temperature():
    # omega_m/2pi = 4 GHz at T = 100 mK
    n = thermal_occupation(4e9, 0.1)
    assert n == pytest.approx(0.1724, abs=2e-3)
    p = SystemParams.from_physical(kappa_hz=5e6, g0=50e6, omega_m=4e9,
                                   Q=1e5, T=0.1)
    assert p.g0 == pytest.approx(10.0)
    assert p.N_th == pytest.approx(n, rel=1e-9)
    assert p.Gamma_m == pytest.approx(0.5 * p.gamma * (3 * n + 0.5))


def test_si_constants_are_scipys_bit_for_bit():
    # params writes h and k_B as literals, so that importing omx loads no
    # scipy.constants; they are the exact 2019 SI defining values
    import scipy.constants

    from omx import params
    assert params.h == scipy.constants.h
    assert params.k_B == scipy.constants.k


def test_system_params_rejects_a_nan_occupation():
    with pytest.raises(ValueError, match="N_th must be >= 0; got nan"):
        SystemParams(g0=8.0, N_th=float("nan"))
    with pytest.raises(ValueError, match="N_th must be >= 0; got -1"):
        SystemParams(g0=8.0).replace(N_th=-1.0)


def test_replace_rederives_downstream():
    p = SystemParams(g0=1.0, omega_m=160.0, J=80.0, Delta_a=4.0)
    q = p.replace(Delta_a=6.0)
    assert q.Delta_s == pytest.approx(166.0)
    r = p.replace(omega_m=150.0)
    assert r.delta == pytest.approx(10.0)


def test_hybrid_delta_sources():
    p = SystemParams(g0=1.0, Delta_s=-1.0, omega_m=2.0, Delta_a=-7.0)
    assert p.hybrid_delta == pytest.approx(5.0)
    q = SystemParams(g0=1.0, Delta_s=-0.5, delta=3.0)
    assert q.hybrid_delta == pytest.approx(3.0)


def test_steady_alpha_fixed_point():
    p = SystemParams(g0=1.0, kappa=1.0, Delta_s=-2.0, Omega_s=0.3)
    alpha = p.alpha_at(p.Delta_s)
    # fixed point of alpha' = (i Delta_s - kappa) alpha + Omega_s
    assert (1j * p.Delta_s - p.kappa) * alpha + p.Omega_s == pytest.approx(0.0, abs=1e-15)


# ------------------------------------------------------------------- rwa ---

def test_rwa_coupling_matrix_element():
    p = SystemParams(g0=3.0, omega_m=60.0, J=30.0, Delta_a=0.0)
    model = build_rwa(p, (3, 3, 3))
    space = model.space
    h = model.hamiltonian.to_dense()
    bra = space.basis_index((0, 1, 1))
    ket = space.basis_index((1, 0, 0))
    assert h[bra, ket] == pytest.approx(p.g0 / 2)


def test_truncations_reject_unknown_label():
    # a typo such as "mm" for "m" must not fall back to the default m6
    p = SystemParams(g0=3.0, omega_m=60.0, J=30.0, Delta_a=0.0)
    assert build_rwa(p, {"a": 3, "m": 5}).space.dims == (3, 4, 5)
    with pytest.raises(ValueError, match="'mm'"):
        build_rwa(p, {"a": 4, "s": 4, "mm": 20})
    with pytest.raises(ValueError, match="'m'"):
        build_transistor(p, 1, {"s": 4, "m": 4})


@pytest.mark.parametrize("n_th, mech", [(0.0, 6), (0.1, 6), (0.25, 9), (0.5, 13), (1.0, 20),
                                        (2.0, 35)])
def test_default_truncations_keep_the_thermal_tail(n_th, mech):
    # one rule for every builder; the mechanical dim was 6 up to N_th = 1
    p = SystemParams(g0=3.0, omega_m=60.0, J=30.0, Delta_a=0.0, N_th=n_th)
    assert mech == max(6, thermal_dim(n_th))
    assert default_truncations(p, ["a", "s", "ap", "c1", "m", "b1", "B2"]) == {
        "a": 4, "s": 4, "ap": 4, "c1": 4, "m": mech, "b1": mech, "B2": mech}
    assert build_rwa(p, {"a": 3}).space.dims == (3, 4, mech)
    assert build_transistor(p, 1).space.dims == (4, 4)


def test_rwa_transition_amplitude_scaling():
    p = SystemParams(g0=2.0, omega_m=60.0, J=30.0, Delta_a=0.0)
    model = build_rwa(p, (5, 5, 5))
    h = model.hamiltonian.to_dense()
    space = model.space
    for na in (1, 2, 3):
        for ns in (0, 1, 2):
            for nm in (0, 1, 2):
                bra = space.basis_index((na - 1, ns + 1, nm + 1))
                ket = space.basis_index((na, ns, nm))
                expected = 0.5 * p.g0 * np.sqrt(na * (ns + 1) * (nm + 1))
                assert h[bra, ket] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("builder", [build_rwa, build_displaced])
def test_three_mode_builders_need_both_detunings(builder):
    # omega_m is checked first, then the detunings
    with pytest.raises(ValueError, match=r"missing parameters: \['omega_m'\]"):
        builder(SystemParams(g0=1.0, kappa=1.0, Delta_s=-1.0), (2, 2, 2))
    p = SystemParams(g0=1.0, kappa=1.0, omega_m=2.0, Delta_s=-1.0)
    with pytest.raises(ValueError, match=f"{builder.__name__} needs Delta_s and Delta_a"):
        builder(p, (2, 2, 2))


# ------------------------------------------ builders vs operator algebra ---
# The scenario builders write H straight from the occupation table.
# These oracles build the same models from Operator products, as the
# builders once did.

def _oracle_rwa(params, truncations=None):
    space = _resolve_truncations(params, ["a", "s", "m"], truncations)
    a, s, b = (annihilator(space, l) for l in ("a", "s", "m"))
    h = (-params.Delta_s * (s.dag() @ s) - params.Delta_a * (a.dag() @ a)
         + params.omega_m * (b.dag() @ b)
         + 0.5 * params.g0 * ((a @ s.dag() @ b.dag()) + (a.dag() @ s @ b)))
    if params.Omega_a:
        h = h + params.Omega_a * (a + a.dag())
    if params.Omega_s:
        h = h + params.Omega_s * (s + s.dag())
    cols = [(a, params.kappa), (s, params.kappa)]
    cols += _thermal_collapses(b, params)
    return LindbladModel(h, cols)


def _oracle_displaced(params, truncations=None):
    alpha = params.alpha_at(params.Delta_s)
    g = 0.5 * params.g0 * alpha
    space = _resolve_truncations(params, ["a", "s", "m"], truncations)
    a, s, b = (annihilator(space, l) for l in ("a", "s", "m"))
    h = (-params.Delta_s * (s.dag() @ s) - params.Delta_a * (a.dag() @ a)
         + params.omega_m * (b.dag() @ b)
         + (g * (a @ b.dag()) + np.conj(g) * (a.dag() @ b))
         + 0.5 * params.g0 * ((a @ s.dag() @ b.dag()) + (a.dag() @ s @ b)))
    cols = [(a, params.kappa), (s, params.kappa)]
    cols += _thermal_collapses(b, params)
    return LindbladModel(h, cols)


def _oracle_transistor(params, n_m, truncations=(4, 4)):
    delta = params.delta if params.delta is not None else 0.0
    space = _resolve_truncations(params, ["s", "ap"], truncations)
    s, ap = annihilator(space, "s"), annihilator(space, "ap")
    geff = 0.5 * params.g0 * math.sqrt(n_m)
    h = delta * (ap.dag() @ ap) + geff * ((s @ ap.dag()) + (s.dag() @ ap))
    cols = [(s, params.kappa), (ap, params.kappa)]
    return LindbladModel(h, cols)


def _oracle_effective_phonon(params, truncations=None, corrected=False, two_resonators=False):
    frame = hybridize(params, two_resonators)
    s0 = coupling_spectrum(params, frame, 0.0)
    lam, gph = s0.imag, s0.real
    gamma_p = frame.gamma_prime
    omega_m = params.omega_m if params.omega_m is not None else 0.0
    labels = ["B1", "B2"] if two_resonators else ["B"]
    space = _resolve_truncations(params, labels, truncations)
    if two_resonators:
        b1, b2 = annihilator(space, "B1"), annihilator(space, "B2")
        om1 = frame.tilde_omega_m if frame.tilde_omega_m is not None else 0.0
        om2 = frame.tilde_omega_m2 if frame.tilde_omega_m2 is not None else 0.0
        coupling_op = (b1.dag() @ b1) - (b2.dag() @ b2)
        h = om1 * (b1.dag() @ b1) + om2 * (b2.dag() @ b2)
        cols = [(b1, gamma_p / 2), (b2, gamma_p / 2)]
        for b in (b1, b2):
            cols += _thermal_collapses(b, params)
    else:
        b = annihilator(space, "B")
        om1 = frame.tilde_omega_m if frame.tilde_omega_m is not None else omega_m
        coupling_op = b.dag() @ b
        h = om1 * coupling_op
        cols = [(b, gamma_p / 2)]
        cols += _thermal_collapses(b, params)
    if corrected:
        dvals = np.rint(np.real(coupling_op.matrix.diagonal())).astype(int)
        for k in sorted(set(dvals.tolist())):
            if k == 0:
                continue
            sk = coupling_spectrum(params, frame, -k * fock_shift(params, frame))
            proj = sp.diags((dvals == k).astype(complex)).tocsr()
            h = h + (k**2 * sk.imag) * Operator(space, proj)
            if sk.real > 0:
                cols.append((Operator(space, proj), k**2 * sk.real))
    else:
        h = h + lam * (coupling_op @ coupling_op)
        if gph > 0:
            cols.append((coupling_op, gph))
    return LindbladModel(h, cols)


_G2SCAN = SystemParams(g0=8.0, kappa=1.0, omega_m=160.0, J=80.0, Omega_a=0.01,
                       Omega_s=0.004, gamma=0.01, Delta_a=3.3)
_PINNED = SystemParams(g0=10.0, kappa=1.0, omega_m=100.0, J=50.7)
SM_PARAMS = dict(g0=1.0, kappa=0.025, gamma=2.5e-4, N_th=1.0,
                 Delta_s=-1.0, omega_m=2.0, Delta_a=-7.0)
_KERR = SystemParams(alpha=1.0, **SM_PARAMS)
_BUILDER_CASES = {
    "rwa-Nth0": (build_rwa, _oracle_rwa, (_G2SCAN, (4, 4, 6))),
    "rwa-Nth1": (build_rwa, _oracle_rwa, (_G2SCAN.replace(N_th=1.0), (3, 4, 10))),
    # Delta_a = -1 with omega_m = 2J = 2 makes H_ii = n_a - n_s + 2 n_m
    # vanish on many states
    "cancelling-diagonal": (build_rwa, _oracle_rwa, (SystemParams(
        g0=1.0, kappa=1.0, omega_m=2.0, J=1.0, Delta_a=-1.0, Omega_a=0.1), (3, 3, 4))),
    "displaced-complex-alpha": (build_displaced, _oracle_displaced, (SystemParams(
        g0=1.0, kappa=0.025, gamma=2.5e-4, N_th=1.0, Delta_s=-1.0, omega_m=2.0,
        Delta_a=-7.0, alpha=0.8 - 0.6j), (5, 3, 9))),
    "transistor-nm0": (build_transistor, _oracle_transistor, (_PINNED, 0)),
    "transistor-nm1": (build_transistor, _oracle_transistor, (_PINNED, 1)),
    "transistor-nm4": (build_transistor, _oracle_transistor, (_PINNED, 4, (5, 4))),
    "effective-phonon": (build_effective_phonon, _oracle_effective_phonon, (_KERR, (6,))),
    "effective-phonon-corrected": (build_effective_phonon, _oracle_effective_phonon,
                                   (_KERR, (7,), True)),
    "effective-phonon-two-resonators": (build_effective_phonon, _oracle_effective_phonon,
                                        (_KERR, (4, 4), False, True)),
}


@pytest.mark.parametrize("name", sorted(_BUILDER_CASES))
def test_builders_match_operator_algebra(name):
    build, oracle_build, args = _BUILDER_CASES[name]
    model, oracle = build(*args), oracle_build(*args)
    h, ref = model.hamiltonian.matrix, oracle.hamiltonian.matrix
    scale = abs(ref).max()
    assert abs(h - ref).max() <= 1e-14 * scale
    # the oracle's s'(s) diagonal is sqrt(n)^2, which rounds; where the
    # exact terms cancel, it keeps a residue that the occupation diagonal
    # does not. Everywhere else the patterns are identical.
    diag = ref.diagonal()
    residue = (diag != 0) & (np.abs(diag) <= 1e-14 * scale)
    assert residue.any() == (name == "cancelling-diagonal")
    expected = (ref - sp.diags(np.where(residue, diag, 0))).tocsr()
    expected.eliminate_zeros()
    assert np.array_equal(h.indptr, expected.indptr)
    assert np.array_equal(h.indices, expected.indices)
    assert model.space == oracle.space
    assert len(model.collapses) == len(oracle.collapses)
    # the oracle's dephasing collapse B'B holds sqrt(n)^2, which rounds;
    # the builder's holds the integer n
    rtol = 1e-14 if name.startswith("effective-phonon") else 0.0
    for (op, rate), (op_ref, rate_ref) in zip(model.collapses, oracle.collapses):
        assert rate == rate_ref
        assert np.all(np.abs(op.matrix.data - op_ref.matrix.data)
                      <= rtol * np.abs(op_ref.matrix.data))
        assert np.array_equal(op.matrix.indices, op_ref.matrix.indices)
        assert np.array_equal(op.matrix.indptr, op_ref.matrix.indptr)


def test_scenario_builders_make_no_operator_product(monkeypatch):
    # H comes from one coordinate list; an Operator product here is the
    # per-term CSR churn coming back
    real = Operator.__matmul__
    calls = []

    def counting_matmul(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(Operator, "__matmul__", counting_matmul)
    _oracle_rwa(*_BUILDER_CASES["rwa-Nth1"][2])
    assert calls, "the counter does not see Operator products"
    calls.clear()
    for name, (build, _, args) in _BUILDER_CASES.items():
        build(*args)
    build_nonhermitian(*_BUILDER_CASES["displaced-complex-alpha"][2])
    assert calls == []


# ------------------------------------------------------------------ full ---

def _one_photon_block(model, number_operator):
    nvals = np.real(number_operator.matrix.diagonal())
    idx = np.where(np.abs(nvals - 1) < 1e-9)[0]
    h = model.hamiltonian.to_dense()
    return np.sort(sla.eigvalsh(h[np.ix_(idx, idx)]))


def test_full_uncoupled_cavities():
    p = SystemParams(g0=0.0, omega_m=20.0, J=0.0, Delta_s=0.5, Delta_a=0.5,
                     gamma=0.0)
    model = build_full(p, {"c1": 3, "c2": 3, "b1": 2})
    space = model.space
    expected = (-0.5 * (number_op(space, "c1") + number_op(space, "c2"))
                + 20.0 * number_op(space, "b1")).to_dense()
    assert np.abs(model.hamiltonian.to_dense() - expected).max() < 1e-12


def test_full_normal_mode_splitting():
    p = SystemParams(g0=0.0, omega_m=20.0, J=3.0, Delta_s=3.0, Delta_a=-3.0,
                     gamma=0.0)
    model = build_full(p, {"c1": 2, "c2": 2, "b1": 2})
    n_tot = number_op(model.space, "c1") + number_op(model.space, "c2")
    evals = _one_photon_block(model, n_tot)
    # photon block at zero mechanical excitation: energies -Delta_c -+ J
    assert evals[0] == pytest.approx(-3.0)
    assert evals[1] == pytest.approx(+3.0)


def test_full_vs_rwa_single_photon_spectrum():
    g0, om = 1.0, 20.0
    p = SystemParams(g0=g0, omega_m=om, J=om / 2, Delta_a=0.3 - om / 2, gamma=0.0)
    full = build_full(p, {"c1": 3, "c2": 3, "b1": 14})
    rwa = build_rwa(p, {"a": 3, "s": 3, "m": 14})
    ev_full = _one_photon_block(
        full, number_op(full.space, "c1") + number_op(full.space, "c2"))
    ev_rwa = _one_photon_block(
        rwa, number_op(rwa.space, "a") + number_op(rwa.space, "s"))
    dev = np.abs(ev_full[:10] - ev_rwa[:10]).max()
    assert dev <= g0**2 / om


# ------------------------------------------------------------- displaced ---

def test_displaced_alpha_zero_equals_undriven_rwa():
    p = SystemParams(g0=2.0, omega_m=60.0, J=30.0, Delta_a=1.0, alpha=0.0,
                     gamma=0.01, N_th=0.5)
    disp = build_displaced(p, (4, 3, 5))
    rwa = build_rwa(p.replace(Omega_a=0.0, Omega_s=0.0), (4, 3, 5))
    assert (disp.hamiltonian.matrix - rwa.hamiltonian.matrix).nnz == 0


def test_displaced_beam_splitter_element():
    alpha = 0.8
    p = SystemParams(g0=2.0, omega_m=60.0, J=30.0, Delta_a=1.0, alpha=alpha)
    model = build_displaced(p, (3, 2, 3))
    h = model.hamiltonian.to_dense()
    space = model.space
    bra = space.basis_index((1, 0, 0))
    ket = space.basis_index((0, 0, 1))
    assert h[bra, ket] == pytest.approx(0.5 * p.g0 * alpha)


# ------------------------------------------------------------- hybridize ---


def test_hybridize_angle_and_decay():
    p = SystemParams(alpha=1.0, **SM_PARAMS)
    fr = hybridize(p)
    g = 0.5 * p.g0 * 1.0
    assert np.tan(2 * fr.theta) == pytest.approx(-2 * g / 5.0, abs=1e-12)
    assert fr.gamma_prime == pytest.approx(2 * p.kappa * np.sin(fr.theta) ** 2)


def test_hybridize_zero_drive_limit():
    p = SystemParams(alpha=0.0, **SM_PARAMS)
    fr = hybridize(p)
    assert fr.theta == 0.0
    assert fr.gamma_prime == 0.0
    assert fr.tilde_omega_m == pytest.approx(p.omega_m)


def test_hybridize_resonant_raises():
    p = SystemParams(g0=1.0, Delta_s=-1.0, omega_m=2.0, Delta_a=-2.0, alpha=1.0)
    with pytest.raises(ValueError, match="singular"):
        hybridize(p)


def test_hybrid_frequencies_match_two_by_two_diagonalization():
    # oracle: eigenvalues of the single-excitation coupling block
    alpha = 1.0
    p = SystemParams(alpha=alpha, **SM_PARAMS)
    fr = hybridize(p)
    g = 0.5 * p.g0 * alpha
    block = np.array([[-p.Delta_a, g], [g, p.omega_m]])
    evals = np.sort(sla.eigvalsh(block))
    assert fr.tilde_omega_m == pytest.approx(evals[0], rel=1e-12)
    assert -fr.tilde_Delta_a == pytest.approx(evals[1], rel=1e-12)


def test_hybridize_spot_value_moderate_mixing():
    # |G| = delta/5: tilde_omega_m - omega_m = delta (1 - sqrt(29/25))/2
    delta = 5.0
    alpha = 2 * delta / 5.0  # G = g0 alpha / 2 = delta/5 at g0 = 1
    p = SystemParams(g0=1.0, kappa=0.025, Delta_s=-1.0, omega_m=2.0,
                     Delta_a=-p_omega_delta(2.0, delta), alpha=alpha)
    fr = hybridize(p)
    expected = 2.0 + delta * (1 - np.sqrt(29 / 25)) / 2
    assert fr.tilde_omega_m == pytest.approx(expected, rel=1e-12)


def p_omega_delta(omega_m, delta):
    return omega_m + delta


def test_gamma_prime_small_angle_limit():
    # 2 kappa sin^2(theta) -> kappa |alpha|^2 g0^2 / (2 delta^2) + O(theta^4)
    alpha = 0.1
    p = SystemParams(alpha=alpha, **SM_PARAMS)
    fr = hybridize(p)
    small = p.kappa * alpha**2 * p.g0**2 / (2 * 5.0**2)
    assert fr.gamma_prime == pytest.approx(small, rel=4 * (fr.theta**2))


def test_two_resonator_frame():
    p = SystemParams(alpha=1.0, **SM_PARAMS)
    fr = hybridize(p, two_resonators=True)
    g = 0.5
    assert np.tan(2 * fr.Theta) == pytest.approx(-np.sqrt(2) * g / 5.0, abs=1e-12)
    assert fr.gamma_prime == pytest.approx(p.kappa * np.sin(2 * fr.Theta) ** 2)
    root = np.sqrt(25.0 + 2 * g**2)
    assert fr.tilde_omega_m == pytest.approx(-p.Delta_a - root)
    assert fr.tilde_omega_m2 == pytest.approx(-p.Delta_a + root)


# ----------------------------------------------------- frame decomposition ---
# The rotation generator conserves the joint excitation number of the mixed
# modes, so the identity is exact on excitation sectors that fit completely
# inside the truncation; the comparison projects onto those.

def complete_sector_mask(space, labels, dims):
    total = sum((number_op(space, l) for l in labels[1:]),
                start=number_op(space, labels[0]))
    nsum = np.real(total.matrix.diagonal())
    return nsum <= min(dims) - 1


@pytest.mark.parametrize("alpha", [0.4, 1.0, 2.0])
def test_decomposition_identity_single(alpha):
    p = SystemParams(alpha=alpha, **SM_PARAMS)  # |G/delta| up to 0.2
    dims = (5, 3, 5)
    h1, h2, hres = build_hybrid_decomposition(p, dims)
    space = h1.space
    a, s, b = (annihilator(space, l) for l in ("a", "s", "m"))
    hg = 0.5 * p.g0 * ((a @ s.dag() @ b.dag()) + (a.dag() @ s @ b))
    u = hybrid_rotation(p, space).matrix.toarray()
    rotated = u.conj().T @ hg.to_dense() @ u
    total = (h1 + h2 + hres).to_dense()
    keep = complete_sector_mask(space, ("a", "m"), (dims[0], dims[2]))
    assert np.abs(rotated - total)[np.ix_(keep, keep)].max() < 1e-8


def test_decomposition_identity_two_resonators():
    p = SystemParams(alpha=1.0, **SM_PARAMS)
    dims = (4, 3, 4, 4)
    h1, h2, hres = build_hybrid_decomposition(p, dims, two_resonators=True)
    assert h2.matrix.nnz == 0
    space = h1.space
    a, s = annihilator(space, "a"), annihilator(space, "s")
    b1, b2 = annihilator(space, "m1"), annihilator(space, "m2")
    bdiff = b1 - b2
    hg = 0.5 * p.g0 * ((a @ s.dag() @ bdiff.dag()) + (a.dag() @ s @ bdiff))
    u = hybrid_rotation(p, space, two_resonators=True).matrix.toarray()
    rotated = u.conj().T @ hg.to_dense() @ u
    total = (h1 + h2 + hres).to_dense()
    keep = complete_sector_mask(space, ("a", "m1", "m2"), (dims[0], dims[2], dims[3]))
    assert np.abs(rotated - total)[np.ix_(keep, keep)].max() < 1e-8


def test_decomposition_leading_term_structure():
    p = SystemParams(alpha=1.0, **SM_PARAMS)
    h1, _, _ = build_hybrid_decomposition(p, (3, 3, 4))
    space = h1.space
    s = annihilator(space, "s")
    nb = number_op(space, "m")
    fr = hybridize(p)
    expected = 0.25 * p.g0 * np.sin(2 * fr.theta) * ((s + s.dag()) @ nb)
    assert np.abs((h1 - expected).to_dense()).max() < 1e-14


# ------------------------------------------------------- effective phonon ---

def test_effective_phonon_zero_drive_is_thermal():
    p = SystemParams(alpha=0.0, **SM_PARAMS)
    model = build_effective_phonon(p, (8,))
    # Lambda = 0: H is tilde_omega_m n alone
    n = model.space.occupations[0]
    assert np.array_equal(model.hamiltonian.matrix.diagonal(), hybridize(p).tilde_omega_m * n)
    # gamma' = 0 on the leakage collapse, and no dephasing collapse (Gamma_phi = 0)
    assert [rate for _, rate in model.collapses] == [
        0.0, 0.5 * p.gamma * (p.N_th + 1), 0.5 * p.gamma * p.N_th]
    rates = sorted(rate for _, rate in model.collapses if rate > 0)
    gamma = p.gamma
    assert rates == pytest.approx([0.5 * gamma * p.N_th, 0.5 * gamma * (p.N_th + 1)])


def test_effective_phonon_kerr_over_dephasing_ratio():
    p = SystemParams(alpha=1.0, **SM_PARAMS)
    model = build_effective_phonon(p, (6,))
    # the dephasing collapse B'B comes last, at rate Gamma_phi
    op, gamma_phi = model.collapses[-1]
    assert np.array_equal(op.matrix.diagonal(), model.space.occupations[0])
    assert coupling_spectrum(p, hybridize(p), 0.0).imag / gamma_phi == pytest.approx(
        p.Delta_s / p.kappa, rel=1e-12)


def test_effective_phonon_cross_term():
    # two-mode Kerr expansion carries the conditional-phase cross term
    p = SystemParams(alpha=1.0, **SM_PARAMS)
    model = build_effective_phonon(p, (4, 4), two_resonators=True)
    lam = coupling_spectrum(p, hybridize(p, two_resonators=True), 0.0).imag
    h = model.hamiltonian.to_dense()
    space = model.space
    e = {occ: h[space.basis_index(occ), space.basis_index(occ)].real
         for occ in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    cross = e[(1, 1)] - e[(1, 0)] - e[(0, 1)] + e[(0, 0)]
    assert abs(cross) == pytest.approx(2 * abs(lam), rel=1e-12)


def test_corrected_two_resonator_model_raises():
    # the occupation-resolved rates use the single-resonator Fock shift
    p = SystemParams(alpha=1.0, **SM_PARAMS)
    with pytest.raises(ValueError, match="single resonator"):
        build_effective_phonon(p, (4, 4), corrected=True, two_resonators=True)


def test_corrected_rates_reduce_to_flat_in_dispersive_limit():
    # tiny mixing and huge detuning ratio: occupation-resolved rates
    # collapse onto the flat expressions to 1e-4 relative
    from omx import phonon_nonlinearity
    delta = 2e4
    alpha = 2 * delta * 1e-3  # |G/delta| = 1e-3 at g0 = 1
    p = SystemParams(g0=1.0, kappa=0.025, Delta_s=-1.0, delta=delta, alpha=alpha)
    flat = phonon_nonlinearity(p)
    corr = phonon_nonlinearity(p, corrected=True, n_max=3)
    assert np.abs(corr.Lambda_n / flat.Lambda - 1).max() < 1e-4
    assert np.abs(corr.Gamma_phi_n / flat.Gamma_phi - 1).max() < 1e-4


def test_effective_phonon_warns_when_elimination_marginal():
    p = SystemParams(g0=1.0, kappa=0.025, Delta_s=-0.05, delta=2.0, alpha=4.0,
                     gamma=0.0)
    with pytest.warns(UserWarning, match="marginal"):
        build_effective_phonon(p, (6,))


@pytest.mark.parametrize("call", [
    lambda p: phonon_nonlinearity(p, corrected=True),
    lambda p: eigenvalue_prediction(p, hybridize(p), 2),
    lambda p: build_effective_phonon(p, corrected=True),
], ids=["phonon_nonlinearity", "eigenvalue_prediction", "build_effective_phonon"])
def test_each_call_derives_its_frame_once(call):
    # kappa = 0.8 is not small against the hybrid-mode splitting, so each
    # hybridize warns of the dropped cross-terms: one call, one warning
    p = SystemParams(alpha=1.0, **{**SM_PARAMS, "kappa": 0.8})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(p)
    assert sum("cross-terms" in str(w.message) for w in caught) == 1


@pytest.mark.parametrize("build, dims, cavities",
                         [(build_rwa, (3, 3, 4), ("a", "s")), (build_full, (3, 3, 4), ("c1", "c2"))],
                         ids=["rwa", "full"])
def test_drive_part_is_handed_over(build, dims, cavities):
    # meta["photons"] is the photon number of each basis state, handed over
    # with a drive only: H at zero drive conserves it, the drive part of H
    # changes it by exactly one, and no collapse raises it
    p = SystemParams(g0=1.5, kappa=1.0, omega_m=8.0, J=4.0, Delta_a=0.5,
                     Omega_a=0.02, Omega_s=0.03, gamma=0.3, N_th=0.2)
    model = build(p, dims)
    h, space = model.hamiltonian, model.space
    undriven = build(p.replace(Omega_a=0.0, Omega_s=0.0), dims).hamiltonian
    assert "photons" not in undriven.meta
    photons = h.meta["photons"]
    assert np.array_equal(photons, sum(space.occupations[space.index(c)] for c in cavities))
    u = undriven.matrix.tocoo()
    assert np.array_equal(photons[u.row], photons[u.col])
    d = (h.matrix - undriven.matrix).tocoo()
    moved = d.data != 0
    assert moved.any()
    assert np.all(np.abs(photons[d.row[moved]] - photons[d.col[moved]]) == 1)
    for op, _ in model.collapses:
        c = op.matrix.tocoo()
        assert np.all(photons[c.row] <= photons[c.col])
    assert "photons" not in build_displaced(_KERR, dims).hamiltonian.meta


# ----------------------------------------------------------- nonhermitian ---

def test_nonhermitian_all_rates_zero_is_hermitian():
    p = SystemParams(g0=1.0, kappa=1e-300, omega_m=2.0, Delta_s=-1.0,
                     Delta_a=-7.0, alpha=0.5, gamma=0.0)
    h = build_nonhermitian(p, (3, 3, 4))
    dev = (h.matrix - h.matrix.conj().T)
    assert np.abs(dev.toarray()).max() < 1e-12
    assert "b_mode" in h.meta


def test_nonhermitian_matches_its_docstring_formula():
    # H - i kappa (n_s + n_a) - i (gamma/2)(N_th + 1) b'b - i (gamma/2) N_th b b'
    p = SystemParams(g0=1.0, kappa=0.025, gamma=2.5e-4, N_th=0.3, omega_m=2.0,
                     Delta_s=-1.0, Delta_a=-7.0, alpha=0.5)
    h = build_nonhermitian(p, (3, 3, 4))
    ham = build_displaced(p, (3, 3, 4)).hamiltonian.to_dense()
    a, s, b = (annihilator(h.space, l).to_dense() for l in ("a", "s", "m"))
    formula = (ham - 1j * p.kappa * (s.conj().T @ s + a.conj().T @ a)
               - 0.5j * p.gamma * (p.N_th + 1) * (b.conj().T @ b)
               - 0.5j * p.gamma * p.N_th * (b @ b.conj().T))
    assert np.abs(h.to_dense() - formula).max() <= 1e-15 * np.abs(ham).max()


# -------------------------------------------------------------- transistor ---

def test_transistor_effective_coupling():
    p = SystemParams(g0=10.0, kappa=1.0, omega_m=100.0, J=50.0)
    for n_m in (0, 1, 2, 4):
        model = build_transistor(p, n_m)
        space = model.space
        g_eff = model.hamiltonian.to_dense()[space.basis_index((1, 0)), space.basis_index((0, 1))]
        assert g_eff == pytest.approx(5.0 * np.sqrt(n_m))
    with pytest.raises(ValueError):
        build_transistor(p, -1)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_transistor_is_the_pinned_rwa_model(n):
    # at gamma = 0 the rwa model conserves n_a + n_s and n_s - n_m, so the
    # states |0_a 1_s n> and |1_a 0_s n-1> (the first alone at n = 0) are
    # closed under H - i decay. Shifted by the energy of |0_a 1_s n>, that
    # block is the transistor's one-photon block on |1_s 0_ap>, |0_s 1_ap>:
    # delta = Delta_s - Delta_a - omega_m = 2J - omega_m, hopping
    # (g0/2) sqrt(n) and kappa on each. The shift cancels entries up to
    # |H|, so they agree to a few eps |H|
    p = SystemParams(g0=10.0, kappa=1.0, omega_m=100.0, J=50.7, Delta_a=0.3, gamma=0.0)
    rwa = build_rwa(p, (2, 2, 4))
    space, h = rwa.space, rwa.hamiltonian.matrix
    keep = [space.basis_index(occ) for occ in ((0, 1, n), (1, 0, n - 1)) if min(occ) >= 0]
    h_eff = (h - 1j * rwa.decay()).tocsr()
    outside = np.setdiff1d(np.arange(space.total_dim), keep)
    assert h_eff[keep][:, outside].nnz == 0 and h_eff[outside][:, keep].nnz == 0
    block = h_eff[keep][:, keep].toarray() - h[keep[0], keep[0]] * np.eye(len(keep))

    pinned = build_transistor(p, n)
    one = [pinned.space.basis_index(occ) for occ in ((1, 0), (0, 1))]
    oracle = (pinned.hamiltonian.matrix - 1j * pinned.decay())[one][:, one].toarray()
    assert p.delta == pytest.approx(1.4) and oracle[1, 1] == p.delta - 1j * p.kappa
    k = len(keep)
    assert np.abs(block - oracle[:k, :k]).max() <= 4 * np.finfo(float).eps * abs(h).max()
    if n == 0:   # no hopping: ap is a dark partner
        assert oracle[0, 1] == oracle[1, 0] == 0
    else:
        assert block[0, 1] == pytest.approx(0.5 * p.g0 * np.sqrt(n), rel=1e-15)

    # the reflection of the pinned model is the sliced block's resolvent
    deltas = np.linspace(-8.0, 8.0, 33)
    r = np.array([x for _, x in reflection_spectrum(pinned, "s", deltas, 0.01)])
    g_ss = [np.linalg.inv(block - d * np.eye(k))[0, 0] for d in deltas]
    assert np.abs(r - (1.0 + 2j * p.kappa * np.array(g_ss))).max() <= 1e-12


# ------------------------------------------------- effective-model fidelity ---

def test_effective_phonon_tracks_displaced_dynamics():
    # B-mode populations from the eliminated model against the displaced
    # three-mode model, propagated by eigendecomposition of the generator
    # over a full induced-dephasing time. The displaced generator is
    # diagonalised on its population sector only: the start state lies in
    # it, and L maps the sector onto itself.
    from omx import build_displaced, liouvillian, phonon_nonlinearity
    from omx.dynamics import _component_labels
    from oracles import population_sector

    p = SystemParams(g0=1.0, kappa=2.5e-2, gamma=2.5e-4, N_th=1.0,
                     Delta_s=-1.0, omega_m=0.5, Delta_a=-5.5, alpha=1.0)
    rates = phonon_nonlinearity(p, corrected=True)
    horizon = 1.0 / rates.Gamma_phi_n[1]
    times = np.linspace(0.0, horizon, 7)
    fr = hybridize(p)

    dims = (3, 2, 7)
    full = build_displaced(p, dims)
    space = full.space
    n_full = space.total_dim
    a = annihilator(space, "a").matrix
    b = annihilator(space, "m").matrix
    bd_hyb = (np.cos(fr.theta) * b + np.sin(fr.theta) * a).conj().T.tocsr()
    targets = [np.zeros(n_full, dtype=complex)]
    targets[0][0] = 1.0
    for n in range(1, 5):
        targets.append(bd_hyb @ targets[-1] / np.sqrt(n))
    start = np.outer(targets[2], targets[2].conj()).reshape(-1)

    L = liouvillian(full)
    sector = population_sector(_component_labels(L), n_full)
    outside = np.ones(n_full * n_full, dtype=bool)
    outside[sector] = False
    assert not np.any(start[outside])
    w, v = sla.eig(L[sector][:, sector].toarray())
    coeff = np.linalg.solve(v, start[sector])

    eff = build_effective_phonon(p, (7,), corrected=True)
    n_eff = 7
    w_e, v_e = sla.eig(liouvillian(eff).toarray())
    start_e = np.zeros((n_eff, n_eff), dtype=complex)
    start_e[2, 2] = 1.0
    coeff_e = np.linalg.solve(v_e, start_e.reshape(-1))

    worst = 0.0
    for t in times:
        rho = np.zeros(n_full * n_full, dtype=complex)
        rho[sector] = v @ (np.exp(w * t) * coeff)
        rho = rho.reshape(n_full, n_full)
        pops_full = np.array([np.real(u.conj() @ rho @ u) for u in targets])
        rho_e = (v_e @ (np.exp(w_e * t) * coeff_e)).reshape(n_eff, n_eff)
        pops_eff = np.real(np.diag(rho_e))[:5]
        worst = max(worst, float(np.abs(pops_full - pops_eff).max()))
    assert worst < 0.05
