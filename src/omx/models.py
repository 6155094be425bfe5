"""Model builders: two tunnel-coupled optical cavities with radiation-pressure
coupling to one mechanical mode (two in the hybridized and eliminated phonon
frames), in the lab frame, the two-mode rotating-wave frame, the displaced
(classical-drive-eliminated) frame, the hybridized-mode frame, and the
adiabatically eliminated phonon-only frame.

Mode label conventions:
    build_full          ("c1", "c2", "b1")   b1 couples to cavity c1
    build_rwa           ("a", "s", "m")      antisymmetric, symmetric, mechanical
    build_displaced     ("a", "s", "m")
    build_hybrid_...    ("a", "s", "m") or ("a", "s", "m1", "m2")
    build_effective_... ("B",) or ("B1", "B2")
    build_transistor    ("s", "ap")          probe mode and phonon-shifted partner

All builders are pure functions of a SystemParams record; outputs are
immutable and safe to share across threads.

Every scenario builder (build_rwa, build_displaced and with it
build_nonhermitian, build_transistor, build_effective_phonon) takes one
construction path, _hamiltonian: H is written as one coordinate list and
one CSR, its diagonal straight from the integer ModeSpace.occupations (so
it is exact) and each three-wave, beam-splitter, hopping and drive term
with its Hermitian partner from hilbert.ladder_product; a diagonal
collapse (the phonon dephasing) is read off the same table. build_rwa and
build_displaced share one body, _three_mode, and differ only in their
coupling terms.
build_full and build_hybrid_decomposition stay on the Operator algebra as
the oracles for the scenario frames.

Every builder takes a truncation it is not given from default_truncations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy

from .dynamics import LindbladModel
from .hilbert import ModeSpace, Operator, annihilator, ladder_product, thermal_dim
from .params import SystemParams

RESONANCE_ATOL = 1e-9
# the start of build_effective_phonon's warning, which omx.cli counts
MARGINAL_ELIMINATION = "adiabatic elimination marginal"


def default_truncations(params: SystemParams, labels) -> dict[str, int]:
    """The Fock truncation of every mode a builder is not given one for:
    optical modes 4; mechanical modes (labels b..., m..., B...)
    max(6, thermal_dim(N_th)), so that the bath's thermal ladder loses
    less than hilbert.TAIL_MASS of its weight, the cut analytics applies to
    the closed form's ladder."""
    mech = max(6, thermal_dim(params.N_th))
    return {lbl: mech if lbl.startswith(("b", "m", "B")) else 4 for lbl in labels}


def _resolve_truncations(params, labels, truncations) -> ModeSpace:
    """The ModeSpace of labels: truncations is None (every dim from
    default_truncations), a dict of some labels' dims (the rest from
    default_truncations) or one dim per label in order."""
    dims = default_truncations(params, labels)
    if isinstance(truncations, dict):
        unknown = sorted(set(truncations) - set(labels))
        if unknown:
            raise ValueError(f"unknown truncation labels {unknown}; modes are {labels}")
        dims.update(truncations)
    elif truncations is not None:
        if len(truncations) != len(labels):
            raise ValueError(f"need {len(labels)} truncations for modes {labels}")
        dims = dict(zip(labels, truncations))
    return ModeSpace([(lbl, dims[lbl]) for lbl in labels])


def _hamiltonian(space: ModeSpace, diagonal: np.ndarray, couplings) -> Operator:
    """H = diag(diagonal) + sum_k (g_k P_k + conj(g_k) P_k^dag) as one
    coordinate list and one CSR, each P_k the ladder_product of the steps
    in couplings = [(g_k, steps_k), ...]. The diagonal comes from the
    integer occupations, so it is exact; a coupling with g_k = 0 writes
    nothing."""
    n = space.total_dim
    diag = np.arange(n)
    rows, cols, vals = [diag], [diag], [np.asarray(diagonal, dtype=complex)]
    for g, steps in couplings:
        if g:
            r, c, amp = ladder_product(space, steps)
            rows += [r, c]
            cols += [c, r]
            vals += [g * amp, np.conj(g) * amp]
    h = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    h.eliminate_zeros()   # zero diagonal entries; Operator then takes h uncopied
    return Operator(space, h)


def _thermal_collapses(b: Operator, params: SystemParams):
    """The bath contact of mode b at params.gamma (None reads as 0) and N_th."""
    gamma, n_th = params.gamma or 0.0, params.N_th
    cols = []
    if gamma > 0:
        cols.append((b, 0.5 * gamma * (n_th + 1.0)))
        if n_th > 0:
            cols.append((b.dag(), 0.5 * gamma * n_th))
    return cols


def build_full(params: SystemParams, truncations=None) -> LindbladModel:
    """Two tunnel-coupled cavities in the frame rotating at the drive, with
    one mechanical mode b1 on cavity c1.

    H = -Delta_c (n1 + n2) + omega_m b1'b1 + g0 n1 (b1 + b1')
        - J (c1'c2 + c2'c1) + sum_i Omega_i (c_i + c_i'),
    with Delta_c = (Delta_s + Delta_a)/2 the detuning from the bare cavity
    frequency, and local drive amplitudes Omega_{1,2} = (Omega_s +-
    Omega_a)/sqrt(2). Dissipation: kappa D[c_i] per cavity and thermal
    contact on the mechanical mode. A nonzero drive part of H is handed
    over as H.meta["drive"] (see dynamics.steady_state).
    """
    params.require("omega_m", "J")
    if params.Delta_s is None or params.Delta_a is None:
        raise ValueError("build_full needs Delta_s and Delta_a (or one of them plus J)")
    space = _resolve_truncations(params, ["c1", "c2", "b1"], truncations)

    c1, c2, b = (annihilator(space, l) for l in ("c1", "c2", "b1"))
    delta_c = 0.5 * (params.Delta_s + params.Delta_a)
    h = (-delta_c * ((c1.dag() @ c1) + (c2.dag() @ c2))
         - params.J * ((c1.dag() @ c2) + (c1 @ c2.dag())))
    om1 = (params.Omega_s + params.Omega_a) / math.sqrt(2)
    om2 = (params.Omega_s - params.Omega_a) / math.sqrt(2)
    drives = [amp * (c + c.dag()) for amp, c in ((om1, c1), (om2, c2)) if amp]
    for d in drives:
        h = h + d
    h = h + params.omega_m * (b.dag() @ b) + params.g0 * ((c1.dag() @ c1) @ (b + b.dag()))
    if drives:
        h.meta["drive"] = sum(drives[1:], drives[0])
    cols = [(c1, params.kappa), (c2, params.kappa)]
    cols += _thermal_collapses(b, params)
    return LindbladModel(h, cols)


def _three_mode(name: str, params: SystemParams, truncations, couplings) -> LindbladModel:
    """The (a, s, m) frame of build_rwa and build_displaced: the space, the
    diagonal -Delta_s n_s - Delta_a n_a + omega_m n_m, kappa on both
    cavities and m's thermal contact. couplings(params), the builder's
    _hamiltonian terms as (couplings, drives), runs between the parameter
    checks and the space. A nonzero drive part D of H is handed over as
    H.meta["drive"] (see dynamics.steady_state)."""
    params.require("omega_m")
    if params.Delta_s is None or params.Delta_a is None:
        raise ValueError(f"{name} needs Delta_s and Delta_a")
    terms, drives = couplings(params)
    space = _resolve_truncations(params, ["a", "s", "m"], truncations)
    n_a, n_s, n_m = space.occupations
    h = _hamiltonian(space, -params.Delta_s * n_s - params.Delta_a * n_a + params.omega_m * n_m,
                     terms + drives)
    if any(g for g, _ in drives):
        h.meta["drive"] = _hamiltonian(space, np.zeros(space.total_dim), drives)
    a, s, b = (annihilator(space, l) for l in ("a", "s", "m"))
    return LindbladModel(h, [(a, params.kappa), (s, params.kappa)] + _thermal_collapses(b, params))


def build_rwa(params: SystemParams, truncations=None) -> LindbladModel:
    """Two-mode model after the rotating-wave approximation in omega_m ~ 2J.

    H = -Delta_s n_s - Delta_a n_a + omega_m b'b
        + (g0/2)(c_a c_s' b' + c_a' c_s b) + Omega_a (c_a + c_a')
        + Omega_s (c_s + c_s').
    The matrix element <0_a 1_s 1_m|H|1_a 0_s 0_m> equals g0/2, and the
    general transition amplitude scales as (g0/2) sqrt(n_a (n_s+1)(n_m+1)).
    The drive part of H is handed over as H.meta["drive"].
    """
    return _three_mode("build_rwa", params, truncations, lambda p: (
        [(0.5 * p.g0, {"a": -1, "s": 1, "m": 1})],   # c_a c_s' b'
        [(p.Omega_a, {"a": -1}), (p.Omega_s, {"s": -1})]))


def build_displaced(params: SystemParams, truncations=None) -> LindbladModel:
    """Frame with the classical drive removed by displacing c_s by alpha.

    The drive term disappears and the linear Hamiltonian picks up a
    beam-splitter coupling G c_a b' + G* c_a' b with G = g0 alpha / 2;
    the three-wave coupling is unchanged. alpha is taken from params or
    from the steady drive balance.
    """
    return _three_mode("build_displaced", params, truncations, lambda p: ([
        (0.5 * p.g0 * p.alpha_at(p.Delta_s), {"a": -1, "m": 1}),   # c_a b'
        (0.5 * p.g0, {"a": -1, "s": 1, "m": 1})], []))              # c_a c_s' b'


@dataclass
class HybridFrame:
    """Mixing angles and shifted frequencies of the optical-mechanical
    hybridization induced by the classical field.

    Single resonator: tan(2 theta) = -2|G|/delta, where delta is the
    beam-splitter detuning -(Delta_a + omega_m); the hybrid modes are
    B = cos(theta) b + sin(theta) c_a and C = cos(theta) c_a - sin(theta) b
    at frequencies
        tilde_omega_m = omega_m + (delta - sqrt(delta^2 + 4|G|^2))/2,
        -tilde_Delta_a = -Delta_a - (delta - sqrt(delta^2 + 4|G|^2))/2,
    and the B mode acquires the optical decay gamma_prime =
    2 kappa sin^2(theta).

    Two resonators at symmetric detuning: tan(2 Theta) = -sqrt(2)|G|/delta,
    gamma_prime = kappa sin^2(2 Theta), and the hybrid frequencies split by
    2 sqrt(delta^2 + 2|G|^2) around -Delta_a while the C mode is unshifted.
    """

    G: complex
    delta: float
    theta: float | None = None
    Theta: float | None = None
    tilde_omega_m: float | None = None
    tilde_omega_m2: float | None = None
    tilde_Delta_a: float | None = None
    gamma_prime: float = 0.0


def hybridize(params: SystemParams, two_resonators: bool = False) -> HybridFrame:
    """Mixing angles, shifted frequencies, and induced optical decay."""
    delta = params.hybrid_delta
    if abs(delta) < RESONANCE_ATOL:
        raise ValueError("resonant configuration (delta = 0): hybridization is singular")
    g = abs(0.5 * params.g0 * params.alpha_at(params.Delta_s))
    if two_resonators:
        big_theta = 0.5 * math.atan2(-math.sqrt(2) * g, delta)
        root = math.sqrt(delta**2 + 2 * g**2)
        frame = HybridFrame(G=g, delta=delta, Theta=big_theta,
                            gamma_prime=params.kappa * math.sin(2 * big_theta) ** 2)
        if params.omega_m is not None:
            frame.tilde_omega_m = params.omega_m + (delta - root)
            frame.tilde_omega_m2 = params.omega_m + 2 * delta - (delta - root)
        if params.Delta_a is not None:
            frame.tilde_Delta_a = params.Delta_a
        _warn_cross_terms(params.kappa, root)
        return frame
    theta = 0.5 * math.atan2(-2 * g, delta)
    root = math.sqrt(delta**2 + 4 * g**2)
    frame = HybridFrame(G=g, delta=delta, theta=theta,
                        gamma_prime=2 * params.kappa * math.sin(theta) ** 2)
    if params.omega_m is not None:
        frame.tilde_omega_m = params.omega_m + 0.5 * (delta - root)
    if params.Delta_a is not None:
        frame.tilde_Delta_a = params.Delta_a + 0.5 * (delta - root)
    _warn_cross_terms(params.kappa, root)
    return frame


def _warn_cross_terms(kappa: float, splitting: float):
    # dissipator cross-terms between the hybrid modes are dropped; only safe
    # when kappa is small against their splitting
    if kappa > 0.1 * splitting:
        warnings.warn(
            f"kappa = {kappa:.3g} is not small against the hybrid-mode splitting "
            f"{splitting:.3g}; neglected dissipator cross-terms may matter",
            stacklevel=3)


def hybrid_rotation(params: SystemParams, space: ModeSpace,
                    two_resonators: bool = False) -> Operator:
    """Unitary mapping bare (b, c_a) operators onto the hybrid (B, C) pair.

    U b U' = B and U c_a U' = C; conjugating the three-wave coupling with
    U' reproduces the rotated-frame decomposition exactly.
    """
    frame = hybridize(params, two_resonators)
    a = annihilator(space, "a").matrix
    if two_resonators:
        b1 = annihilator(space, "m1").matrix
        b2 = annihilator(space, "m2").matrix
        bs = (b1 + b2) / math.sqrt(2)
        gen = 2 * frame.Theta * (a.conj().T @ bs - bs.conj().T @ a)
    else:
        b = annihilator(space, "m").matrix
        gen = frame.theta * (a.conj().T @ b - b.conj().T @ a)
    u = scipy.sparse.linalg.expm(gen.tocsc())
    return Operator(space, u.tocsr())


def build_hybrid_decomposition(params: SystemParams, truncations=None,
                               two_resonators: bool = False):
    """Three-wave coupling split into hybrid-frame pieces (H1, H2, Hres).

    The pieces are expressed in the rotated frame, where the bare lowering
    operators stand for the hybrid modes (b -> B, c_a -> C). H1 couples the
    c_s quadrature to the B occupation, H2 is the sin^2(theta) three-mode
    correction (zero for two resonators), and Hres collects the remaining
    off-resonant couplings, which matter only when c_s or C are excited.
    Their sum equals the rotated original coupling to machine precision.
    """
    labels = ["a", "s"] + (["m1", "m2"] if two_resonators else ["m"])
    space = _resolve_truncations(params, labels, truncations)
    frame = hybridize(params, two_resonators)
    a, s = annihilator(space, "a"), annihilator(space, "s")
    xs = s + s.dag()
    g0 = params.g0
    if two_resonators:
        th2 = 2 * frame.Theta
        b1, b2 = annihilator(space, "m1"), annihilator(space, "m2")
        dn = (b1.dag() @ b1) - (b2.dag() @ b2)
        h1 = (g0 / math.sqrt(8)) * math.sin(th2) * (xs @ dn)
        n = space.total_dim
        h2 = Operator(space, scipy.sparse.csr_matrix((n, n), dtype=complex))
        bdiff = b1 - b2
        hres = (0.5 * g0 * math.cos(th2) * ((a @ s.dag() @ bdiff.dag())
                                            + (a.dag() @ s @ bdiff))
                + (g0 * math.sin(th2) / (2 * math.sqrt(2)))
                * ((s.dag() - s) @ ((b1.dag() @ b2) - (b2.dag() @ b1))))
        return h1, h2, hres
    th = frame.theta
    b = annihilator(space, "m")
    h1 = 0.25 * g0 * math.sin(2 * th) * (xs @ (b.dag() @ b))
    h2 = -0.5 * g0 * math.sin(th) ** 2 * ((b @ s.dag() @ a.dag()) + (b.dag() @ s @ a))
    hres = (0.5 * g0 * math.cos(th) ** 2 * ((a @ s.dag() @ b.dag()) + (a.dag() @ s @ b))
            - 0.25 * g0 * math.sin(2 * th) * (xs @ (a.dag() @ a)))
    return h1, h2, hres


def coupling_spectrum(params: SystemParams, frame: HybridFrame, omega: float) -> complex:
    """Cavity response S(omega) = g~^2 / (-i(Delta_s + omega) + kappa) of the
    c_s quadrature coupled to the B occupation, in frame, the caller's
    hybridize(params) of either kind: g~ = g0 sin(2 theta)/4 for one
    resonator, g~ = g0 sin(2 Theta)/sqrt(8) for two, where the coupled
    operator is B1'B1 - B2'B2.

    Im S gives the induced Kerr strength, Re S the induced dephasing.
    """
    if frame.Theta is None:
        gt = 0.25 * params.g0 * math.sin(2 * frame.theta)
    else:
        gt = params.g0 * math.sin(2 * frame.Theta) / math.sqrt(8)
    return gt**2 / (-1j * (params.Delta_s + omega) + params.kappa)


def fock_shift(params: SystemParams, frame: HybridFrame) -> float:
    """Occupation-dependent detuning shift of the driven mode, in frame, the
    caller's single-resonator hybridize(params):
    Delta_B = g0^2 cos^4(theta) / (4 (tilde_Delta_a + tilde_omega_m - Delta_s)).

    The denominator reduces to -(delta + sqrt(delta^2 + 4|G|^2)) - Delta_s,
    so no absolute mode frequencies are needed.
    """
    g = abs(frame.G)
    denom = -(frame.delta + math.sqrt(frame.delta**2 + 4 * g**2)) - params.Delta_s
    return params.g0**2 * math.cos(frame.theta) ** 4 / (4 * denom)


def build_effective_phonon(params: SystemParams, truncations=None,
                           corrected: bool = False,
                           two_resonators: bool = False) -> LindbladModel:
    """Mechanical-only master equation after eliminating the cavity modes.

    Single mode: H = tilde_omega_m B'B + Lambda (B'B)^2 with dephasing
    Gamma_phi D[B'B], optical leakage (gamma'/2) D[B], and the bare thermal
    contact. Two modes: the Kerr term becomes Lambda (B1'B1 - B2'B2)^2,
    whose expansion carries the cross term -2 Lambda n1 n2 that generates a
    conditional phase between phonon qubits.

    corrected=True replaces the flat Lambda, Gamma_phi with occupation-
    resolved values Lambda(n), Gamma_phi(n) from the cavity response
    evaluated at the shifted frequency -n Delta_B, applied on the
    eigenprojectors of the coupling operator. It exists for the single
    mode only; with two_resonators it raises ValueError.

    Validity requires |alpha| = O(1) and g0^2 |alpha| / (4 delta) small
    against |Delta_s + i kappa|; a warning is issued otherwise.
    """
    if params.Delta_s is None:
        raise ValueError("build_effective_phonon needs Delta_s")
    if corrected and two_resonators:
        raise ValueError("corrected=True is defined for a single resonator only")
    frame = hybridize(params, two_resonators)
    alpha = params.alpha_at(params.Delta_s)
    drive_scale = params.g0**2 * abs(alpha) / (4 * abs(frame.delta))
    if drive_scale > 0.1 * abs(params.Delta_s + 1j * params.kappa):
        warnings.warn(
            f"{MARGINAL_ELIMINATION}: g0^2|alpha|/(4 delta) = {drive_scale:.3g} "
            f"vs |Delta_s + i kappa| = {abs(params.Delta_s + 1j * params.kappa):.3g}")
    s0 = coupling_spectrum(params, frame, 0.0)
    lam, gph = s0.imag, s0.real
    gamma_p = frame.gamma_prime

    labels = ["B1", "B2"] if two_resonators else ["B"]
    space = _resolve_truncations(params, labels, truncations)
    occ = space.occupations
    # the hybrid frequencies are unset only without omega_m
    freqs = [frame.tilde_omega_m, frame.tilde_omega_m2][:len(labels)]
    diagonal = sum((om if om is not None else 0.0) * n for om, n in zip(freqs, occ))
    d = occ[0] - occ[1] if two_resonators else occ[0]   # the coupling operator's diagonal
    modes = [annihilator(space, lbl) for lbl in labels]
    cols = [(b, gamma_p / 2) for b in modes]
    for b in modes:
        cols += _thermal_collapses(b, params)

    if corrected:
        shift, delta_b = np.zeros(space.total_dim), fock_shift(params, frame)
        for k in range(1, space.dims[0]):
            sk = coupling_spectrum(params, frame, -k * delta_b)
            shift[d == k] = k**2 * sk.imag
            if sk.real > 0:
                proj = scipy.sparse.diags((d == k).astype(complex))
                cols.append((Operator(space, proj), k**2 * sk.real))
        diagonal = diagonal + shift
    else:
        diagonal = diagonal + lam * d**2
        if gph > 0:
            cols.append((Operator(space, scipy.sparse.diags(d.astype(complex))), gph))
    return LindbladModel(_hamiltonian(space, diagonal, []), cols)


def build_nonhermitian(params: SystemParams, truncations=None) -> Operator:
    """Displaced-frame Hamiltonian with decay folded in as -i rates.

    H~ = H_lin + H_g - i kappa (n_s + n_a)
         - i (gamma/2)(N_th + 1) b'b - i (gamma/2) N_th b b'.
    Its low-lying eigenvalues track the Fock ladder of the hybridized B
    mode; meta carries the B lowering operator for eigenvector matching
    and the hybridize(params) frame it was built from.
    """
    model = build_displaced(params, truncations)
    space, frame = model.space, hybridize(params)
    theta = frame.theta
    b_mode = math.cos(theta) * annihilator(space, "m") + math.sin(theta) * annihilator(space, "a")
    return Operator(space, model.hamiltonian.matrix - 1j * model.decay(),
                    {"b_mode": b_mode, "frame": frame})


def build_transistor(params: SystemParams, n_m: int, truncations=None) -> LindbladModel:
    """Probe-facing model with the mechanical mode pinned to Fock state n_m.

    Within the weak-probe single-photon manifold the mechanical occupation
    enters only through an effective hopping (g0/2) sqrt(n_m) between the
    probed symmetric mode and the phonon-shifted antisymmetric partner
    ("ap", offset by delta = 2J - omega_m). Both modes decay at kappa; the
    mechanical damping is set to zero by the pinning assumption
    (Gamma_m << kappa). Feed the result to dynamics.reflection_spectrum:
    the model is quadratic, conserves the excitation number and loses it
    one at a time, so the one-excitation resolvent gives its weak-probe
    reflection exactly.
    """
    if n_m < 0:
        raise ValueError("n_m must be a non-negative integer")
    delta = params.delta if params.delta is not None else 0.0
    space = _resolve_truncations(params, ["s", "ap"], truncations)
    geff = 0.5 * params.g0 * math.sqrt(n_m)
    _, n_ap = space.occupations
    h = _hamiltonian(space, delta * n_ap, [(geff, {"s": -1, "ap": 1})])   # c_s c_ap'
    cols = [(annihilator(space, "s"), params.kappa), (annihilator(space, "ap"), params.kappa)]
    return LindbladModel(h, cols)

