"""Thin-film superfluid helium material parameters and dispersion relations.

A van-der-Waals dominated film of depth h0 on a substrate behaves like a
shallow fluid in an effective gravitational field

    g_eff = 3 * alpha_vdw / h0**4,

so long-wavelength surface waves (third sound) propagate at
c3 = sqrt(g_eff * h0).  The full inviscid surface-wave dispersion is

    omega(k)**2 = g_eff * (1 + ell_c**2 * k**2) * k * tanh(k * h0),

with capillary length ell_c**2 = sigma / (rho * g_eff).  In the linear
regime the interface maps onto a massless Tomonaga-Luttinger liquid with
stiffness K = hbar * rho * c3 / (g_eff * m4**2).

All frequencies in this package are angular (rad/s); Hz only ever appears
in CLI display output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ThirdSoundError

# CODATA 2018 exact values
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23      # J / K


@dataclass(frozen=True)
class FilmParams:
    """Film geometry and material constants.

    sigma, rho and m4 default to common helium-4 values; they are
    configuration defaults, not measured ground truth, and several derived
    quantities (notably the Luttinger stiffness) are sensitive to rho.
    """

    h0: float                     # equilibrium film depth (m)
    alpha_vdw: float              # van der Waals coefficient (m^5 / s^2)
    temperature: float            # sample temperature (K)
    sigma: float = 3.54e-4        # surface tension (N/m)
    rho: float = 145.0            # superfluid density (kg/m^3)
    m4: float = 6.6465e-27        # helium-4 atomic mass (kg)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            need = "non-negative" if f.name in ("sigma", "temperature") else "positive"
            if not math.isfinite(value) or value < 0 or (value == 0 and need == "positive"):
                raise ValueError(f"film.{f.name} must be finite and {need}, got {value}")


@dataclass(frozen=True)
class DerivedParams:
    g_eff: float        # effective gravity (m/s^2)
    ell_c: float        # capillary length (m)
    c3: float           # third-sound speed (m/s)
    luttinger_k: float  # Luttinger stiffness (m)


def derive_params(film: FilmParams) -> DerivedParams:
    """Derive effective gravity, capillary length, third-sound speed and
    Luttinger stiffness from film parameters.

    Exact formulas:
        g_eff = 3 alpha_vdw / h0^4
        c3    = sqrt(g_eff h0)
        ell_c = sqrt(sigma / (rho g_eff))
        K     = hbar rho c3 / (g_eff m4^2)
    """
    g_eff = 3.0 * film.alpha_vdw / film.h0**4
    if not math.isfinite(g_eff) or g_eff <= 0:
        raise ThirdSoundError(f"effective gravity is not finite/positive: {g_eff}")
    c3 = math.sqrt(g_eff * film.h0)
    ell_c = math.sqrt(film.sigma / (film.rho * g_eff))
    luttinger_k = HBAR * film.rho * c3 / (g_eff * film.m4**2)
    return DerivedParams(g_eff=g_eff, ell_c=ell_c, c3=c3, luttinger_k=luttinger_k)


def dispersion_thin_film(k, derived: DerivedParams, h0: float):
    """Angular frequency of an inviscid surface wave of wavenumber k.

    omega = sqrt(g_eff (1 + ell_c^2 k^2) k tanh(k h0)); omega(0) = 0.
    Accepts scalars or arrays, k >= 0.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("wavenumber must be non-negative")
    w2 = derived.g_eff * (1.0 + derived.ell_c**2 * k**2) * k * np.tanh(k * h0)
    out = np.sqrt(w2)
    return out if out.ndim else float(out)


def dispersion_linear(k, c: float, mass: float = 0.0):
    """Relativistic-form dispersion omega = c sqrt(k^2 + c^2 mass^2 / hbar^2)."""
    if c <= 0:
        raise ValueError("wave speed must be positive")
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("wavenumber must be non-negative")
    out = c * np.sqrt(k**2 + (c * mass / HBAR) ** 2)
    return out if out.ndim else float(out)


def bose_einstein(omega, temperature: float):
    """Bose-Einstein occupation n = 1 / (exp(hbar omega / kB T) - 1).

    Returns 0 at temperature zero (exact vacuum).  omega must be strictly
    positive: the zero mode must never be queried.
    """
    omega_arr = np.asarray(omega, dtype=float)
    scalar = omega_arr.ndim == 0
    if not np.all(omega_arr > 0):
        raise ValueError("bose_einstein requires omega > 0 (zero mode is excluded)")
    if not (0 <= temperature < math.inf):
        raise ValueError(f"temperature must be finite and non-negative, got {temperature}")
    out = (np.zeros_like(omega_arr) if temperature == 0
           else 1.0 / np.expm1(HBAR * omega_arr / (K_B * temperature)))
    return float(out) if scalar else out


@dataclass(frozen=True)
class QuantumRegimeReport:
    """Per-mode quantum/classical classification at temperature T.

    A mode is quantum-dominated when hbar omega / (kB T) >= 1.  t_quantum
    is the temperature below which every retained mode is quantum.
    """

    ratios: np.ndarray        # hbar omega_m / (kB T) per mode (inf at T=0)
    quantum: np.ndarray       # boolean flags at threshold 1
    t_quantum: float          # hbar omega_min / kB
    temperature: float

    @property
    def n_quantum(self) -> int:
        return int(np.count_nonzero(self.quantum))

    @property
    def n_classical(self) -> int:
        return int(self.quantum.size - self.n_quantum)


def quantum_regime_report(basis, temperature: float) -> QuantumRegimeReport:
    """Classify each mode of a solved basis as quantum- or classical-dominated."""
    omegas = np.asarray(basis.omegas, dtype=float)
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if temperature == 0:
        ratios = np.full(omegas.shape, np.inf)
    else:
        ratios = HBAR * omegas / (K_B * temperature)
    t_quantum = HBAR * float(np.min(omegas)) / K_B
    return QuantumRegimeReport(ratios=ratios, quantum=ratios >= 1.0,
                               t_quantum=t_quantum, temperature=temperature)
