"""Physical parameter record and unit conversion.

Internally every frequency and rate is stored in units of the optical field
decay rate kappa (so kappa itself is normally 1.0). Inputs quoted in Hz-type
units are ordinary frequencies nu = omega/2pi, matching how device numbers
are usually written (e.g. "omega_m/2pi = 4 GHz"); ratios are unchanged by
the 2pi, and the absolute scale only matters for converting temperature to
a thermal occupation, where h*nu/kT is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from scipy.constants import h, k as k_B

FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9, "thz": 1e12}
TEMP_UNITS = {"k": 1.0, "mk": 1e-3, "uk": 1e-6}

_REL = 1e-8  # tolerance for cross-checking redundant inputs


def parse_quantity(text: str, kappa_hz: float | None = None) -> float:
    """Parse '5 MHz', '100 mK', '0.3 kappa' or a bare number.

    Frequency units require kappa_hz to normalize; temperatures return Kelvin;
    bare numbers and 'kappa'-suffixed values are returned as-is (kappa units).
    """
    parts = text.strip().split()
    if len(parts) == 1:
        return float(parts[0])
    if len(parts) != 2:
        raise ValueError(f"cannot parse quantity {text!r}")
    value, unit = float(parts[0]), parts[1].lower()
    if unit in ("kappa", "kappa-units"):
        return value
    if unit in FREQ_UNITS:
        if kappa_hz is None:
            raise ValueError(f"{text!r}: frequency units need a physical kappa for normalization")
        return value * FREQ_UNITS[unit] / kappa_hz
    if unit in TEMP_UNITS:
        return value * TEMP_UNITS[unit]
    raise ValueError(f"unknown unit {unit!r} in {text!r}")


def thermal_occupation(nu_hz: float, T_kelvin: float) -> float:
    """Bose occupation 1/(exp(h nu / k T) - 1) for ordinary frequency nu."""
    if T_kelvin <= 0:
        return 0.0
    return 1.0 / math.expm1(h * nu_hz / (k_B * T_kelvin))


@dataclass
class SystemParams:
    """All model parameters in kappa units (dimensionless where noted).

    Redundant combinations are cross-checked on construction:
    gamma = omega_m/Q, delta = 2J - omega_m, Delta_s - Delta_a = 2J, and
    N_th from T (the last needs kappa_hz to fix the absolute scale).
    Missing members of a consistent pair are filled in.
    """

    g0: float = 0.0
    kappa: float = 1.0
    gamma: float | None = None
    omega_m: float | None = None
    J: float | None = None
    delta: float | None = None            # 2J - omega_m (also the hybridization detuning)
    Delta_s: float | None = None
    Delta_a: float | None = None
    Omega_s: float = 0.0
    Omega_a: float = 0.0
    Q: float | None = None
    N_th: float | None = None
    T: float | None = None                # Kelvin; needs kappa_hz
    alpha: complex | None = None
    tau_p: float | None = None            # transistor pulse length; None means tau_opt
    kappa_hz: float | None = None         # physical kappa/2pi, anchors unit conversion

    def __post_init__(self):
        if not 0 < self.kappa < math.inf:  # NaN fails too
            raise ValueError(f"kappa must be positive and finite; got {self.kappa}")
        if not 0 <= self.g0 < math.inf:
            raise ValueError(f"g0 must be >= 0 and finite; got {self.g0}")

        if self.Q is not None and self.omega_m is not None:
            gamma_q = self.omega_m / self.Q
            if self.gamma is None:
                self.gamma = gamma_q
            elif not math.isclose(self.gamma, gamma_q, rel_tol=_REL):
                raise ValueError(
                    f"inconsistent damping: gamma={self.gamma} but omega_m/Q={gamma_q}")

        if self.J is not None:
            if self.Delta_s is None and self.Delta_a is not None:
                self.Delta_s = self.Delta_a + 2 * self.J
            if self.Delta_a is None and self.Delta_s is not None:
                self.Delta_a = self.Delta_s - 2 * self.J
            if self.omega_m is not None:
                delta_j = 2 * self.J - self.omega_m
                if self.delta is None:
                    self.delta = delta_j
                elif not math.isclose(self.delta, delta_j, rel_tol=_REL, abs_tol=1e-12):
                    raise ValueError(f"inconsistent delta: {self.delta} vs 2J - omega_m = {delta_j}")
        if (self.J is not None and self.Delta_s is not None and self.Delta_a is not None
                and not math.isclose(self.Delta_s - self.Delta_a, 2 * self.J,
                                     rel_tol=_REL, abs_tol=1e-12)):
            raise ValueError(
                f"inconsistent detunings: Delta_s - Delta_a = {self.Delta_s - self.Delta_a}"
                f" but 2J = {2 * self.J}")

        if self.T is not None:
            if self.kappa_hz is None or self.omega_m is None:
                raise ValueError("temperature input needs kappa_hz and omega_m")
            n_T = thermal_occupation(self.omega_m / self.kappa * self.kappa_hz, self.T)
            if self.N_th is None:
                self.N_th = n_T
            elif not math.isclose(self.N_th, n_T, rel_tol=1e-6, abs_tol=1e-9):
                raise ValueError(f"inconsistent N_th={self.N_th} vs thermal_occupation(T)={n_T}")
        if self.N_th is None:
            self.N_th = 0.0
        if not self.N_th >= 0:  # NaN fails too
            raise ValueError(f"N_th must be >= 0; got {self.N_th}")

    @classmethod
    def from_physical(cls, kappa_hz: float, **kwargs) -> "SystemParams":
        """Build from ordinary-frequency inputs in Hz (suffix-free floats).

        Every frequency-like keyword is divided by kappa_hz; T (Kelvin),
        N_th, Q, alpha pass through unchanged.
        """
        passthrough = {"N_th", "Q", "alpha", "T"}
        out = {"kappa": 1.0, "kappa_hz": kappa_hz}
        for name, value in kwargs.items():
            if value is None or name in passthrough:
                out[name] = value
            elif name == "tau_p":
                out[name] = value * kappa_hz  # seconds -> 1/kappa units
            else:
                out[name] = value / kappa_hz
        return cls(**out)

    @property
    def Gamma_m(self) -> float:
        """Mechanical qubit decoherence rate (gamma/2)(3 N_th + 1/2)."""
        if self.gamma is None:
            raise ValueError("gamma (or omega_m and Q) required for Gamma_m")
        return 0.5 * self.gamma * (3.0 * self.N_th + 0.5)

    @property
    def hybrid_delta(self) -> float:
        """Detuning governing the optical-mechanical hybridization.

        In the displaced frame this is -(Delta_a + omega_m); when Delta_a is
        not specified it falls back to delta = 2J - omega_m, which is the
        same quantity for an undriven antisymmetric mode.
        """
        return self._hybrid_delta(self.Delta_a)

    def hybrid_delta_at(self, Delta_s: float) -> float:
        """hybrid_delta of replace(Delta_s=Delta_s), without the copy: with J
        given, Delta_a = Delta_s - 2J moves with Delta_s."""
        return self._hybrid_delta(self.Delta_a if self.J is None else Delta_s - 2 * self.J)

    def _hybrid_delta(self, Delta_a: float | None) -> float:
        if Delta_a is not None and self.omega_m is not None:
            return -(Delta_a + self.omega_m)
        if self.delta is not None:
            return self.delta
        raise ValueError("need (Delta_a, omega_m) or delta for the hybridization detuning")

    def alpha_at(self, Delta_s: float | None) -> complex:
        """Cavity amplitude at the detuning Delta_s: alpha when given, else
        the classical steady state Omega_s/(kappa - i Delta_s)."""
        if self.alpha is not None:
            return self.alpha
        if Delta_s is None:
            raise ValueError("Delta_s required for the steady displacement")
        return self.Omega_s / (self.kappa - 1j * Delta_s)

    def require(self, *names: str) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ValueError(f"missing parameters: {missing}")

    def replace(self, **kwargs) -> "SystemParams":
        """Copy with fields overridden; stale derived siblings are cleared
        and recomputed whenever their sources remain available."""
        data = {name: getattr(self, name) for name in _FIELD_NAMES}
        data.update(kwargs)

        def drop(name, *sources):
            if name not in kwargs and all(data.get(s) is not None for s in sources):
                data[name] = None

        if "Delta_s" in kwargs or "J" in kwargs:
            drop("Delta_a", "Delta_s", "J")
        if "Delta_a" in kwargs or "J" in kwargs:
            drop("Delta_s", "Delta_a", "J")
        if "J" in kwargs or "omega_m" in kwargs:
            drop("delta", "J", "omega_m")
        if "omega_m" in kwargs or "Q" in kwargs:
            drop("gamma", "Q", "omega_m")
        if "T" in kwargs:
            drop("N_th", "T")
        if "N_th" in kwargs and "T" not in kwargs:
            data["T"] = None
        return SystemParams(**data)


# read once: dataclasses.fields() rebuilds its tuple on every call
_FIELD_NAMES = tuple(f.name for f in fields(SystemParams))
