"""Finite-size fits of sweep outputs.

The volume-sweep curves are fitted to the Calabrese-Cardy-type finite-size
form

    MI(f) ~ kappa1 * ln[(N/pi) * sin(pi f) + kappa2] + kappa3,

where f is the subsystem pixel fraction and N the total pixel count.  A
literal subsystem-volume argument of the sine is an integer multiple of pi
for every mask on the lattice, so the pixel-fraction argument is used and
recorded in output metadata (see the CLI's `sine_argument_convention`
field).

The model is linear in kappa1 and kappa3, so it is fitted by variable
projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)): kappa2
is scanned on a fixed log grid of min(base) + kappa2, base = (N/pi) sin(pi f),
with least-squares kappa1 and kappa3 at each point, and the projected
gradient is bisected around the best point.  `converged` means that the rms
minimum lies inside the scan and the bisection closed on a sign change.

Area-sweep outputs get an ordinary linear fit with an R^2 diagnostic and a
super-linearity flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SINE_ARGUMENT_CONVENTION = "pixel_fraction"

# min(base) + kappa2 in units of min(base): 20 points per decade
_SCAN_T = np.logspace(-6.0, 12.0, 361)


@dataclass(frozen=True)
class CalabreseFit:
    kappa1: float
    kappa2: float
    kappa3: float
    rms: float
    converged: bool

    def predict(self, fractions, n_total: int) -> np.ndarray:
        return calabrese_model(np.asarray(fractions, dtype=float), n_total,
                               self.kappa1, self.kappa2, self.kappa3)


@dataclass(frozen=True)
class AreaLawFit:
    slope: float
    intercept: float
    r_squared: float
    superlinear: bool


def calabrese_model(fractions: np.ndarray, n_total: int,
                    kappa1: float, kappa2: float, kappa3: float) -> np.ndarray:
    arg = (n_total / np.pi) * np.sin(np.pi * fractions) + kappa2
    return kappa1 * np.log(arg) + kappa3


def _finite(name: str, values) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must be finite")
    return array


def fit_calabrese_curve(fractions, mi_values, n_total: int) -> CalabreseFit:
    """Variable-projection fit; an unconverged fit is the best scan point."""
    f = _finite("fractions", fractions)
    y = _finite("mi_values", mi_values)
    if f.size < 5:
        raise ValueError("the finite-size fit needs at least 5 sweep points")
    base = (n_total / np.pi) * np.sin(np.pi * f)
    if np.any((f <= 0) | (f >= 1)) or np.unique(base).size < 3:
        raise ValueError("subsystem fractions must lie strictly inside (0, 1) "
                         "and give at least 3 distinct sin(pi f)")
    excess = base - base.min()
    yc = y - y.mean()

    def project(t):
        """kappa1, the residual r at the optimal kappa1 and kappa3, and the
        gradient kappa1 sum r / (base + kappa2), at t = min(base) + kappa2.
        log1p(excess / t) and weights centred (r sums to zero) keep r and
        the gradient free of cancellation at large t."""
        u = np.log1p(excess / t)
        u -= u.mean(axis=-1, keepdims=True)
        k1 = (u @ yc) / np.sum(u * u, axis=-1)
        r = k1[..., None] * u - yc
        w = 1.0 / (excess + t)
        w -= w.mean(axis=-1, keepdims=True)
        return k1, r, k1 * np.sum(r * w, axis=-1)

    ts = base.min() * _SCAN_T
    _, r, g = project(ts[:, None])
    best = int(np.argmin(np.sum(r ** 2, axis=1)))
    t, lo, hi = ts.take([best, best - 1, best + 1], mode="clip")
    converged = bool(0 < best < ts.size - 1 and g[best - 1] < 0 < g[best + 1])
    while converged and lo < (t := 0.5 * (lo + hi)) < hi:
        lo, hi = (t, hi) if project(t)[2] < 0 else (lo, t)
    k1, k2 = float(project(t)[0]), float(t - base.min())
    r = calabrese_model(f, n_total, k1, k2, 0.0) - y   # kappa3 = -mean(r), rms = std(r)
    return CalabreseFit(kappa1=k1, kappa2=k2, kappa3=-float(r.mean()),
                        rms=float(np.std(r)), converged=converged)


def calabrese_fit(sweep) -> CalabreseFit:
    """Fit a volume SweepResult; the abscissa is converted to the subsystem
    pixel fraction of the full grid."""
    if not sweep.points:
        raise ValueError("empty sweep")
    grid = sweep.points[0].pair.a.grid
    n_total = grid.n_pixels
    fractions = np.array([p.stats.pixel_count for p in sweep.points]) / n_total
    return fit_calabrese_curve(fractions, sweep.mi_values, n_total)


def fit_area_line(areas, mi_values) -> AreaLawFit:
    x = _finite("areas", areas)
    y = _finite("mi_values", mi_values)
    if x.size < 4:
        raise ValueError("the area-law fit needs at least 4 sweep points")
    coeffs_lin = np.polyfit(x, y, 1)
    res_lin = y - np.polyval(coeffs_lin, x)
    ss_res = float(np.sum(res_lin ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    if np.unique(x).size >= 3:
        coeffs_quad = np.polyfit(x, y, 2)
        ss_quad = float(np.sum((y - np.polyval(coeffs_quad, x)) ** 2))
        superlinear = ss_quad > 0 and ss_res / ss_quad > 10.0
    else:
        superlinear = False
    return AreaLawFit(slope=float(coeffs_lin[0]), intercept=float(coeffs_lin[1]),
                      r_squared=r_squared, superlinear=superlinear)


def area_law_fit(sweep) -> AreaLawFit:
    """Linear MI-versus-boundary-area fit of an area SweepResult; uses the
    raw (pre-aggregation) points so congruent shapes each contribute."""
    points = sweep.raw_points or sweep.points
    areas = [p.abscissa for p in points]
    mis = [p.mi for p in points]
    return fit_area_line(areas, mis)
