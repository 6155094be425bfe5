"""Closed-form predictions for the resonant two-mode optomechanical system,
each one backed elsewhere in the package by an exact-numerics counterpart.

The weak-drive photon statistics come from solving the stationary amplitude
equations on the six-state manifold that a weak antisymmetric-mode drive
explores within one mechanical Fock sector: with d = Delta_a - i kappa and

    X_n = 4 d^2 - g0^2 (n + 1),

the occupation probabilities are

    p_{1,0,n} = |4 Omega_a d / X_n|^2,
    p_{2,0,n} = 8 |Omega_a^2 (8 d^2 - g0^2) / (X_n (2 X_n - g0^2))|^2,

which reduce at g0 = 0 to the driven-cavity values Omega^2/|d|^2 and
nbar^2/2. The poles of X_n and 2 X_n - g0^2 sit at the one- and two-photon
dressed resonances Delta_a = +-(g0/2) sqrt(n+1) and
+-g0 sqrt((2n+3)/8), consistent with the (g0/2) sqrt(n_a (n_s+1)(n_m+1))
transition ladder. Thermal averaging uses geometric weights zeta_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import models
from .dynamics import _component_labels, liouvillian
from .hilbert import thermal_dim, thermal_weights
from .params import SystemParams
from .scan import ScanResult

POLE_ATOL = 1e-12
WEAK_DRIVE_DEFAULT = 0.01  # in units of kappa; used wherever a probe is implied
# the range in which min_g2_scan's screen bound holds (see its docstring)
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max / 4
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# detunings x ladder levels of one min_g2_scan pair; its arrays peak near
# 75 B an entry, so about 0.3 GB
MAX_GRID_ENTRIES = 2**22


@dataclass
class SixStateResult:
    """Weak-drive mean photon number and g2 for one detuning point."""

    mean_na: float
    g2_zero: float


def _ladder(params: SystemParams, grid: np.ndarray):
    """(zeta, p1, p2): the thermal weights and p_{1,0,n}, p_{2,0,n} as
    arrays over grid x ladder, after the pole check on the whole grid. The
    prologue keeps the first rule of six_state_spectrum; a real factor
    scales both parts of a complex one.
    """
    g0, kappa, nth = params.g0, params.kappa, params.N_th
    omega = params.Omega_a if params.Omega_a else WEAK_DRIVE_DEFAULT * kappa
    ns = np.arange(thermal_dim(nth))
    zeta = thermal_weights(nth, ns.size)
    dr, di = grid, -kappa  # d = Delta_a - i kappa
    four_d2 = _complex(4 * dr * dr - 4 * di * di, 4 * dr * di + 4 * di * dr)[:, None]
    x = four_d2 - g0**2 * (ns + 1)
    two_x = 2 * x - g0**2
    pole = (np.abs(x) < POLE_ATOL).any(axis=1) | (np.abs(two_x) < POLE_ATOL).any(axis=1)
    if pole.any():
        raise ZeroDivisionError(
            f"dressed-resonance pole at Delta_a = {float(grid[pole.argmax()])} (kappa = 0)")
    amp1 = _complex(4 * omega * dr, 4 * omega * di)[:, None]
    w2 = omega**2
    amp2 = _complex(w2 * (8 * dr * dr - 8 * di * di - g0**2),
                    w2 * (8 * dr * di + 8 * di * dr))[:, None]
    p1 = np.abs(amp1 / x) ** 2
    p2 = 8 * np.abs(amp2 / (x * two_x)) ** 2
    return zeta, p1, p2


def _complex(re, im) -> np.ndarray:
    """Complex array holding re and im as they are, with no arithmetic."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _exact_sums(zeta: np.ndarray, p1: np.ndarray, p2: np.ndarray):
    """(<n_a>, g2) per row of p1, p2: each ladder sum its own
    float(zeta @ row), and 2 s2 / s1**2 on Python floats."""
    s1 = [float(zeta @ row) for row in p1]
    g2 = [2 * float(zeta @ row) / s**2 for row, s in zip(p2, s1)]
    return s1, g2


def six_state_spectrum(params: SystemParams, delta_a) -> tuple[np.ndarray, np.ndarray]:
    """Thermally averaged <n_a> and g2(0) over a grid of Delta_a, to leading
    order in the drive; params.Delta_a is not read.

    One evaluation serves the whole grid: the thermal ladder is built once
    and X_n, p_{1,0,n} and p_{2,0,n} are arrays over grid x ladder. The
    mechanical ladder is truncated where the zeta_n tail drops below 1e-6.
    Omega_a rescaling cancels exactly in g2 (the probabilities use
    params.Omega_a, falling back to WEAK_DRIVE_DEFAULT kappa).
    Raises ZeroDivisionError, naming the first such Delta_a, near the
    kappa = 0 poles of X_n or 2 X_n - g0^2.

    Each point equals, bit for bit, the same formula evaluated at that point
    alone on Python complex scalars, which takes three rules:

    - d, 4 d^2, 4 Omega d and Omega^2 (8 d^2 - g0^2) are formed on real and
      imaginary float64 arrays in the operation order of CPython's complex
      product, (a.r b.r - a.i b.i, a.r b.i + a.i b.r), each operation
      rounded once (numpy's complex multiply orders them otherwise). This
      matches the scalars where CPython does not contract that product
      into a fused multiply-add, as on x86-64, whose baseline has no FMA; a
      build that fuses it differs in the last bit.
    - each ladder sum is its own float(zeta @ row): one matrix-vector
      product sums in another order;
    - 2 s2 / s1**2 is taken on Python floats: float ** calls pow, an
      ndarray ** 2 multiplies.
    """
    zeta, p1, p2 = _ladder(params, np.asarray(delta_a, dtype=float))
    s1, g2 = _exact_sums(zeta, p1, p2)
    return np.array(s1), np.array(g2)


def six_state_g2(params: SystemParams) -> SixStateResult:
    """Thermally averaged <n_a> and g2(0) at params.Delta_a to leading order
    in the drive: the one-point case of six_state_spectrum."""
    params.require("Delta_a")
    mean_na, g2 = six_state_spectrum(params, [params.Delta_a])
    return SixStateResult(float(mean_na[0]), float(g2[0]))


def min_g2_scan(params: SystemParams, g0_grid, nth_list) -> ScanResult:
    """Minimum of g2(0) over probe detuning, per coupling and temperature.

    Per coupling g0 the detuning grid runs from 0 to g0 + kappa in steps of
    kappa/20; ties in the minimum go to the smaller |Delta_a|. g2 is even in
    Delta_a, so only the non-negative half axis is scanned and the reported
    argmin is >= 0. The reported minimum and argmin are those of the exact
    per-point values of six_state_spectrum, first occurrence.

    Each (g0, N_th) pair builds p1 and p2 over its whole grid once
    (six_state_spectrum's prologue and pole check) and screens every row at
    once: g = 2 (p2 @ zeta) / (p1 @ zeta)**2. The exact reduction runs only
    on the rows whose screened g lies within a relative band tau of the
    screened minimum m, that is g <= m (1 + tau).

    tau is derived, not tuned. Every sum adds n = thermal_dim(N_th)
    non-negative products zeta_k p_k, so in any summation order its
    relative error is at most gamma_n = n u / (1 - n u), u the unit
    roundoff (Higham, Accuracy and Stability of Numerical Algorithms, 4.2;
    a fused multiply-add only removes roundings). With the square (pow is
    within one ulp, two roundings) and the division, each of the screened
    and the exact g2 carries at most 3n + 3 roundings, so the two differ
    relatively by at most gamma_{6n+6}; the band edge m (1 + tau) takes two
    more. With eps = gamma_{6n+8}, a row whose exact g2 is at most the
    exact value at the screen's argmin has screened g <= m (1 + eps) /
    (1 - eps) = m (1 + tau), tau = 2 eps / (1 - eps): every row that can
    hold the exact minimum, ties included, is in the band. The bound needs
    every operation away from underflow and overflow: the screen is
    trusted only when every nonzero product zeta_k p_k is normal and every
    screened s1**2, s2 and g lies in [2 tiny, max/4]; otherwise, NaN
    included, every row goes to the exact reduction.

    ValueError, before anything is allocated, when the largest pair would
    exceed MAX_GRID_ENTRIES grid x ladder entries; it names nth_list when
    the ladder alone is too long, and kappa and g0 otherwise.
    """
    g0_grid = np.asarray(g0_grid, dtype=float)
    nth_list = np.asarray(nth_list, dtype=float)
    g0_max = g0_grid.max(initial=0.0)
    points = (g0_max + params.kappa) / (params.kappa / 20)
    levels = max(map(thermal_dim, nth_list), default=0)
    if points * levels > MAX_GRID_ENTRIES:
        # a ladder too long for even the 20 detunings at g0 = 0 is set by N_th alone
        remedy = ("lower the largest N_th in nth_list" if 20 * levels > MAX_GRID_ENTRIES
                  else "raise kappa or lower g0")
        raise ValueError(
            f"ming2 grid too large: g0 = {g0_max:g} in steps of kappa/20 = "
            f"{params.kappa / 20:g} is {points:.3g} detunings x {levels} ladder levels, "
            f"over {MAX_GRID_ENTRIES} entries; {remedy}")
    min_g2 = np.empty(len(g0_grid) * len(nth_list))
    argmin = np.empty_like(min_g2)
    row = 0
    for g0 in g0_grid:
        grid = np.arange(0.0, g0 + params.kappa, params.kappa / 20)
        for nth in nth_list:
            p = params.replace(g0=float(g0), N_th=float(nth), T=None)
            zeta, p1, p2 = _ladder(p, grid)
            rows = _screen(zeta, p1, p2)
            _, vals = _exact_sums(zeta, p1[rows], p2[rows])
            k = int(np.argmin(vals))
            min_g2[row] = vals[k]
            argmin[row] = grid[rows[k]]
            row += 1
    return ScanResult(
        axes=[("g0", g0_grid), ("N_th", nth_list)],
        columns={"min_g2": min_g2, "argmin_delta_a": argmin},
        metadata={"kappa": params.kappa, "grid_step": params.kappa / 20})


def _screen(zeta: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows of p1, p2 that can hold the exact
    minimum of g2; every row when the screen is not trusted (see
    min_g2_scan for the band and the trust rule)."""
    with np.errstate(all="ignore"):
        s1_sq, s2 = (p1 @ zeta) ** 2, p2 @ zeta
        g = 2 * s2 / s1_sq
        trusted = (zeta[zeta > 0].min() * min(p1.min(), p2.min()) >= _TINY
                   and all(((a >= 2 * _TINY) & (a <= _HUGE)).all() for a in (s1_sq, s2, g)))
    if not trusted:
        return np.arange(g.size)
    k = 6 * zeta.size + 8
    eps = k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)
    return np.flatnonzero(g <= g.min() * (1 + 2 * eps / (1 - eps)))


@dataclass
class GateBudget:
    """Error budgets for the photon-phonon transistor and the phonon gate."""

    Gamma_m: float | None = None
    epsilon: float | None = None          # entangled-state preparation error
    tau_opt: float | None = None
    Lambda: float | None = None           # induced Kerr strength
    Gamma_phi: float | None = None        # induced dephasing
    gamma_prime: float | None = None      # optical-leakage decay
    Lambda0: float | None = None          # g0^4 / (16 |Delta_s| delta^2)
    t_g: float | None = None              # pi / (2 |Lambda|)
    epsilon_g: float | None = None        # conditional-phase gate error
    delta_s_opt: float | None = None
    clamped: bool = False
    Lambda_n: np.ndarray | None = None
    Gamma_phi_n: np.ndarray | None = None
    extras: dict = field(default_factory=dict)


def transistor_error(params: SystemParams) -> GateBudget:
    """Error budget for mapping a phonon qubit onto a routed photon.

    epsilon(tau) = 4 kappa^2/g0^2 + 1/(tau kappa)^2 + tau Gamma_m, from
    imperfect reflection contrast, finite pulse bandwidth, and mechanical
    decoherence at Gamma_m = (gamma/2)(3 N_th + 1/2). The optimum pulse
    duration is tau_opt = (kappa^2 Gamma_m)^(-1/3), used unless params.tau_p
    sets the pulse. Values above 1 are clamped (flagged), since the budget is
    perturbative.
    """
    if params.g0 <= 0:
        raise ValueError("transistor_error needs g0 > 0")
    gm = params.Gamma_m
    tau_opt = (params.kappa**2 * gm) ** (-1.0 / 3.0) if gm > 0 else math.inf
    tau = params.tau_p if params.tau_p is not None else tau_opt
    eps = 4 * params.kappa**2 / params.g0**2
    if math.isfinite(tau):
        eps += 1.0 / (tau * params.kappa) ** 2 + tau * gm
    clamped = eps > 1.0
    return GateBudget(Gamma_m=gm, epsilon=min(eps, 1.0), tau_opt=tau_opt, clamped=clamped)


def phonon_nonlinearity(params: SystemParams, corrected: bool = False,
                        n_max: int = 8) -> GateBudget:
    """Optically induced phonon Kerr strength, dephasing, and leakage decay.

    Flat (small-mixing-angle) values:
        Lambda     = g0^4 |alpha|^2 Delta_s / (16 delta^2 (Delta_s^2 + kappa^2)),
        Gamma_phi  = g0^4 |alpha|^2 kappa   / (16 delta^2 (Delta_s^2 + kappa^2)),
        gamma'     = kappa |alpha|^2 g0^2 / (2 delta^2),
    so Lambda/Gamma_phi = Delta_s/kappa identically. With corrected=True the
    returned arrays Lambda_n, Gamma_phi_n evaluate the cavity response at
    the occupation-shifted frequencies -n Delta_B with the exact mixing
    angle, for n = 0..n_max.
    """
    params.require("Delta_s")
    delta = params.hybrid_delta
    ds, g0 = params.Delta_s, params.g0
    lam, gph, gp = _flat_rates(params, abs(params.alpha_at(ds)) ** 2, delta, ds)
    budget = GateBudget(
        Lambda=lam, Gamma_phi=gph, gamma_prime=gp,
        Lambda0=g0**4 / (16 * abs(ds) * delta**2),
        Gamma_m=params.Gamma_m if params.gamma is not None else None,
    )
    if budget.Lambda:
        budget.t_g = math.pi / (2 * abs(budget.Lambda))
    if corrected:
        frame = models.hybridize(params)
        delta_b = models.fock_shift(params, frame)
        s = np.array([models.coupling_spectrum(params, frame, -n * delta_b)
                      for n in range(n_max + 1)])
        budget.Lambda_n = s.imag.copy()
        budget.Gamma_phi_n = s.real.copy()
        budget.gamma_prime = frame.gamma_prime
    return budget


def _flat_rates(params: SystemParams, alpha2: float, delta: float,
                Delta_s: float) -> tuple[float, float, float]:
    """(Lambda, Gamma_phi, gamma') of phonon_nonlinearity's flat formulas at
    |alpha|^2, delta and Delta_s; Python floats in, so every caller rounds
    alike. delta = 0 raises ZeroDivisionError."""
    g0, kap = params.g0, params.kappa
    denom = 16 * delta**2 * (Delta_s**2 + kap**2)
    return (g0**4 * alpha2 * Delta_s / denom, g0**4 * alpha2 * kap / denom,
            kap * alpha2 * g0**2 / (2 * delta**2))


def eigenvalue_prediction(params: SystemParams, frame: models.HybridFrame, n: int) -> complex:
    """Predicted complex eigenvalue of the n-th hybridized-phonon level, in
    frame, the caller's single-resonator hybridize(params).

    Re lambda_n = n tilde_omega_m + n^2 Lambda(n);
    |Im lambda_n| = (gamma/2) N_th + n [(gamma/2)(2 N_th + 1) + gamma'/2]
                    + n^2 Gamma_phi(n).
    Returned with the decaying sign convention (Im <= 0).
    """
    params.require("omega_m", "Delta_s")
    s_n = models.coupling_spectrum(params, frame, -n * models.fock_shift(params, frame))
    gamma = params.gamma or 0.0
    re = n * frame.tilde_omega_m + n**2 * s_n.imag
    im = (0.5 * gamma * params.N_th
          + n * (0.5 * gamma * (2 * params.N_th + 1) + 0.5 * frame.gamma_prime)
          + n**2 * s_n.real)
    return complex(re, -im)


def _qubit_superposition(dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[0] = v[1] = 1.0 / math.sqrt(2)
    return v


def phase_gate_error(params: SystemParams, exact: bool = False) -> GateBudget:
    """Conditional-phase gate error between two phonon qubits.

    The Kerr cross term acts for t_g = pi/(2|Lambda|); during that time the
    state decoheres at Gamma_decoh = 2 Gamma_m + Gamma_phi + gamma'/2. The
    analytic estimate is eps_g ~= 1 - exp(-Gamma_decoh t_g), minimized over
    Delta_s on 60 points from -0.025 g0 to -1.5 g0; ties go to the first.
    With exact=True the error at the optimum is recomputed by evolving the
    eliminated two-mode master equation (4 Fock levels per mode) from
    (|0> + |1>)(|0> + |1>)/2 and projecting onto the coherently evolved
    target state, so that the decoherence-free limit gives exactly zero
    error.

    The scan is one pass over Python floats. Each detuning takes
    _flat_rates, the formulas of phonon_nonlinearity in its operation
    order, with alpha and delta moved with Delta_s as
    params.replace(Delta_s=...) would move them (SystemParams.alpha_at and
    hybrid_delta_at). So the optimum, its eps_g and Gamma_decoh are bit for
    bit those of one phonon_nonlinearity call per detuning, and the budget
    returned is phonon_nonlinearity's at the optimum. Floats, not arrays:
    numpy squares by x * x where float ** calls pow, which can differ in
    the last bit, and a zero delta must still raise ZeroDivisionError.
    """
    if params.g0 <= 0:
        raise ValueError("phase_gate_error needs g0 > 0")
    params.require("gamma")
    gm = params.Gamma_m
    best = None
    for ds in (-np.linspace(0.025, 1.5, 60) * params.g0).tolist():
        lam, gph, gp = _flat_rates(params, abs(params.alpha_at(ds)) ** 2,
                                   params.hybrid_delta_at(ds), ds)
        if lam == 0:
            continue
        gdecoh = 2 * gm + gph + 0.5 * gp
        eps = 1.0 - math.exp(-gdecoh * (math.pi / (2 * abs(lam))))
        if best is None or eps < best[0]:
            best = eps, ds, gdecoh
    if best is None:
        raise ValueError("no gate: Lambda vanishes on the whole grid")
    eps, ds, gdecoh = best
    p = params.replace(Delta_s=ds)
    budget = phonon_nonlinearity(p)
    budget.epsilon_g, budget.delta_s_opt = eps, ds
    budget.extras["Gamma_decoh"] = gdecoh
    if exact:
        budget.extras["epsilon_g_estimate"] = eps
        budget.epsilon_g = _exact_gate_error(p, budget.t_g)
    budget.clamped = budget.epsilon_g > 1.0
    budget.epsilon_g = min(max(budget.epsilon_g, 0.0), 1.0)
    return budget


def _exact_gate_error(params: SystemParams, t_g: float) -> float:
    """1 - <target|rho(t_g)|target> in the eliminated two-mode model.

    L is block diagonal over the connected components of its sparsity
    graph (the coherence orders n1 - n1', n2 - n2'), and so is exp(L t):
    rho(t_g) takes one expm per block that rho0 touches, 9 of 49 blocks of
    at most 16 entries each, in place of one dense expm of L (256^2).
    """
    model = models.build_effective_phonon(params, truncations=(4, 4),
                                          two_resonators=True)
    n = model.space.total_dim
    psi0 = np.kron(_qubit_superposition(4), _qubit_superposition(4))
    rho0 = np.outer(psi0, psi0.conj()).reshape(-1)
    gen = liouvillian(model)
    labels = _component_labels(gen)
    rho = np.zeros_like(rho0)
    for label in np.unique(labels[rho0 != 0]):
        idx = np.flatnonzero(labels == label)
        rho[idx] = scipy.linalg.expm(gen[idx][:, idx].toarray() * t_g) @ rho0[idx]
    rho = rho.reshape(n, n)
    target = scipy.linalg.expm(-1j * model.hamiltonian.to_dense() * t_g) @ psi0
    fidelity = float(np.real(target.conj() @ rho @ target))
    return 1.0 - fidelity
