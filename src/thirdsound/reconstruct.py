"""Single-quadrature covariance reconstruction.

Each mode pair rotates in phase space at its own frequency,

    phi_m(t) = phi_m(0) cos(w_m t) + eta_m(0) sin(w_m t),
    eta_m(t) = eta_m(0) cos(w_m t) - phi_m(0) sin(w_m t),

so an equal-time two-point function of a single quadrature carries beat
notes at |w_m - w_n| and w_m + w_n whose amplitudes are linear in the
initial mode covariances.  Sampling one two-point function over time and
regressing those trigonometric amplitudes therefore recovers the full
initial momentum-space covariance (Q~, P~, R~).  This is the free-evolution
readout of Gluza et al., Commun. Phys. 3, 12 (2020).

The field-field model, with mode prefactor c / (K sqrt(w_m w_n)) and
sampled mode functions G, reads

    <phi_i phi_j>(t) = sum_mn pref * G_mi G_nj *
        [cos(w_m t) cos(w_n t) Q~_mn + sin(w_m t) sin(w_n t) P~_mn]
        + pref * (G_mi G_nj + G_ni G_mj) cos(w_m t) sin(w_n t) R~_mn,

and the momentum-momentum model swaps Q~ <-> P~, inverts the prefactor
and flips the sign of the R~ term (both follow directly from the rotation
above).  Because G has orthonormal rows, conjugating a measured sample
with G and the inverse prefactors recovers the mode-space observable
Y_mn(t) exactly, and the regression decouples into one least-squares
problem per mode pair.  With c_m = cos(w_m t) and s_m = sin(w_m t), pair
(m, n) of the field quadrature has the design columns

    c_m c_n, s_m s_n, c_m s_n, s_m c_n    for    Q~_mn, P~_mn, R~_mn, R~_nm;

its rows for (m, n) and (n, m) coincide, so it fits the symmetric part of
Y.  The momentum quadrature swaps c and s and flips the sign of R~.

`fit_covariance` solves the normal equations A^T A x = A^T y of every pair
at once.  Each entry of A^T A is a time sum of products of c^2, s^2 and
c s for modes m and n, i.e. an entry of one of six n x n products such as
(C^2)^T C^2; A^T y accumulates one sample at a time.  On the diagonal and
on pairs with degenerate frequencies (w_m = w_n, generic on square grids)
c_m s_n = s_m c_n: there is no beat note and the antisymmetric part of R~
is unidentifiable.  Those pairs are solved with the three columns
(c_m c_n, s_m s_n, c_m s_n + s_m c_n), which sets R~_mn = R~_nm (exact on
the diagonal), and the degenerate off-diagonal ones are reported in
`unidentifiable_pairs`.  A pair whose A^T A has a condition number of at
least RANK_COND (cond(A) >= 1e6) is rank deficient.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import RankDeficiencyError
from .gaussian import CovarianceMatrix, MOMENTUM, _mode_prefactors
from .physics import DerivedParams

FIELD = "field"
MOMENTUM_QUADRATURE = "momentum"

DEGENERACY_RTOL = 1e-9
RANK_COND = 1e12         # cond(A^T A) at which a pair's design counts as rank deficient

# sampling rules of `suggested_times`
NYQUIST_FACTOR = 4.0     # dt <= pi / (NYQUIST_FACTOR * w_max)
SPAN_CYCLES = 2.0        # span in periods of the smallest nonzero frequency gap


@dataclass
class TwoPointSeries:
    """Time-stamped equal-time two-point samples of one quadrature."""

    quadrature: str
    times: np.ndarray
    samples: np.ndarray          # (n_times, n_pix, n_pix), symmetric to 1e-12 relative
    noise_sigma: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.samples = np.asarray(self.samples, dtype=float)
        if self.quadrature not in (FIELD, MOMENTUM_QUADRATURE):
            raise ValueError(f"unknown quadrature {self.quadrature!r}")
        if (self.times.ndim != 1 or not np.all(np.isfinite(self.times))
                or np.any(np.diff(self.times) <= 0)):
            raise ValueError("sample times must be finite and strictly increasing")
        if self.samples.ndim != 3 or self.samples.shape[0] != self.times.size:
            raise ValueError("one sample matrix per time stamp required")
        scale = max(self.samples.max(), -self.samples.min())   # NaN or inf anywhere shows here
        if not np.isfinite(scale):
            raise ValueError("two-point samples must be finite")
        skew = max(np.max(np.abs(s - s.T)) for s in self.samples)
        if skew > 1e-12 * scale:
            raise ValueError("two-point samples must be symmetric to 1e-12 relative")

    @property
    def n_times(self) -> int:
        return self.times.size

    @property
    def n_pixels(self) -> int:
        return self.samples.shape[1]


@dataclass
class ReconstructionResult:
    qt: np.ndarray                      # recovered Q~(0)
    pt: np.ndarray                      # recovered P~(0)
    rt: np.ndarray                      # recovered R~(0)
    residual_rms: float                 # pixel-space model residual
    condition: float                    # largest per-pair cond(A)
    unidentifiable_pairs: list = field(default_factory=list)

    def gamma(self, basis=None) -> CovarianceMatrix:
        return CovarianceMatrix.from_blocks(self.qt, self.pt, self.rt, MOMENTUM, basis=basis)


def evolve_mode_covariance(gamma0: CovarianceMatrix, t: float) -> CovarianceMatrix:
    """Free evolution of a mode-space covariance: per-mode phase rotation
    by omega_m t.  The symplectic spectrum is invariant."""
    if gamma0.labelling != MOMENTUM:
        raise ValueError("evolution acts on momentum-space covariances")
    if gamma0.basis is None:
        raise ValueError("covariance carries no mode basis")
    omegas = gamma0.basis.omegas
    c, s = np.diag(np.cos(omegas * t)), np.diag(np.sin(omegas * t))
    rot = np.block([[c, s], [-s, c]])
    return CovarianceMatrix(rot @ gamma0.data @ rot.T, MOMENTUM, basis=gamma0.basis)


def _mode_observable(gamma0: CovarianceMatrix, omegas: np.ndarray, t: float,
                     quadrature: str) -> np.ndarray:
    c, s = np.cos(omegas * t), np.sin(omegas * t)
    qt, pt, rt = gamma0.q_block, gamma0.p_block, gamma0._r
    if quadrature != FIELD:
        # the momentum model is the field model with cos and sin swapped
        # and R~ negated
        c, s, rt = s, c, rt if rt is None else -rt
    y = c[:, None] * qt * c[None, :] + s[:, None] * pt * s[None, :]
    if rt is not None:
        y += c[:, None] * rt * s[None, :]
        y += s[:, None] * rt.T * c[None, :]
    return y


def _available_memory() -> int:
    """MemAvailable where /proc/meminfo gives it, else physical memory."""
    try:
        with open("/proc/meminfo") as fh:
            info = dict(line.split(":", 1) for line in fh)
        return int(info["MemAvailable"].split()[0]) * 1024
    except (OSError, KeyError, ValueError):
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def synth_two_point(gamma0: CovarianceMatrix, basis, derived: DerivedParams,
                    times, quadrature: str = FIELD, noise_sigma: float = 0.0,
                    seed: int = 0) -> TwoPointSeries:
    """Exact two-point series of the chosen quadrature, plus optional
    i.i.d. Gaussian noise on each independent matrix entry.

    The t-th sample equals the corresponding block of the freely evolved
    covariance transformed to the pixel lattice.  A sample array larger
    than available memory raises ValueError before anything is allocated.
    """
    if gamma0.labelling != MOMENTUM:
        raise ValueError("synthesis starts from a momentum-space covariance")
    if gamma0.n != basis.n_modes:
        raise ValueError("covariance dimension does not match the basis")
    if quadrature not in (FIELD, MOMENTUM_QUADRATURE):
        raise ValueError(f"unknown quadrature {quadrature!r}")
    if not 0 <= noise_sigma < np.inf:
        raise ValueError(f"noise_sigma must be finite and non-negative, got {noise_sigma}")
    times = np.asarray(times, dtype=float)
    n_pix = basis.grid.n_pixels
    need = times.size * n_pix * n_pix * 8
    have = _available_memory()
    if need > have:
        raise ValueError(f"{times.size} samples of {n_pix}x{n_pix} pixels need {need} bytes, "
                         f"more than the {have} bytes of available memory")
    d_phi, d_eta = _mode_prefactors(basis, derived)
    d = d_phi if quadrature == FIELD else d_eta
    g = basis.sampled
    omegas = basis.omegas
    rng = np.random.default_rng(seed)
    samples = np.empty((times.size, n_pix, n_pix))
    iu = np.triu_indices(n_pix)
    for it, t in enumerate(times):
        y = _mode_observable(gamma0, omegas, t, quadrature)
        m = g.T @ (d[:, None] * y * d[None, :]) @ g
        m = 0.5 * (m + m.T)
        if noise_sigma > 0:
            noise = np.zeros_like(m)
            noise[iu] = rng.normal(0.0, noise_sigma, size=iu[0].size)
            noise = noise + np.triu(noise, 1).T
            m = m + noise
        samples[it] = m
    return TwoPointSeries(quadrature=quadrature, times=times, samples=samples,
                          noise_sigma=noise_sigma, seed=seed)


def suggested_times(basis) -> np.ndarray:
    """Uniform time grid satisfying the sampling rules:
    dt <= pi / (NYQUIST_FACTOR * w_max) and a total span of SPAN_CYCLES
    full periods of the smallest nonzero frequency gap."""
    omegas = np.sort(np.unique(basis.omegas))
    gaps = np.diff(omegas)
    gaps = gaps[gaps > DEGENERACY_RTOL * omegas[-1]]
    if gaps.size == 0:
        raise ValueError("basis has no resolvable frequency gaps")
    span = SPAN_CYCLES * 2.0 * np.pi / gaps.min()
    dt = np.pi / (NYQUIST_FACTOR * omegas[-1])
    return np.arange(int(np.ceil(span / dt)) + 1) * dt


def fit_covariance(series: TwoPointSeries, basis, derived: DerivedParams) -> ReconstructionResult:
    """Least-squares recovery of (Q~, P~, R~) at t=0 from a two-point series.

    The normal equations of every mode pair are built from Gram sums and
    from right-hand sides accumulated one sample at a time, then solved in
    two batches: diagonal and degenerate pairs with three unknowns
    (R~_mn = R~_nm), every other pair with four.  `condition` is the
    largest cond(A) over all pairs.  Raises RankDeficiencyError if any
    pair's cond(A^T A) reaches RANK_COND.
    """
    if series.n_pixels != basis.grid.n_pixels:
        raise ValueError("series pixel count does not match the basis grid")
    g = basis.sampled
    d_phi, d_eta = _mode_prefactors(basis, derived)
    field_quadrature = series.quadrature == FIELD
    d = d_phi if field_quadrature else d_eta
    omegas = basis.omegas
    n = basis.n_modes
    phase = np.outer(series.times, omegas)                  # (nt, n)
    cos_t, sin_t = np.cos(phase), np.sin(phase)
    if not field_quadrature:   # swap cos and sin, negate R~ (see _mode_observable)
        cos_t, sin_t = sin_t, cos_t

    # gram[m, n, i, j] = sum_t f_i f_j over the columns
    # f = (c_m c_n, s_m s_n, c_m s_n, s_m c_n)
    c2, s2, cs = cos_t ** 2, sin_t ** 2, cos_t * sin_t
    cc, ss, xx = c2.T @ c2, s2.T @ s2, cs.T @ cs
    c_s, c_x, x_s = c2.T @ s2, c2.T @ cs, cs.T @ s2
    gram = np.stack([np.stack([cc, xx, c_x, c_x.T], -1),
                     np.stack([xx, ss, x_s, x_s.T], -1),
                     np.stack([c_x, x_s, c_s, xx], -1),
                     np.stack([c_x.T, x_s.T, xx, c_s.T], -1)], -2)

    # right-hand sides sum_t f_i Y_mn from Y(t) = D^-1 G M(t) G^T D^-1,
    # symmetrised because the (m, n) and (n, m) rows coincide
    b_cc, b_ss, b_cs = np.zeros((3, n, n))
    dd = np.outer(d, d)
    for sample, c, s in zip(series.samples, cos_t, sin_t):
        y = (g @ sample @ g.T) / dd
        y = 0.5 * (y + y.T)
        cy, sy = c[:, None] * y, s[:, None] * y
        b_cc += cy * c
        b_ss += sy * s
        b_cs += cy * s
    rhs = np.stack([b_cc, b_ss, b_cs, b_cs.T], -1)

    iu, ju = np.triu_indices(n)
    tied = np.abs(omegas[iu] - omegas[ju]) <= DEGENERACY_RTOL * omegas[-1]
    off = tied & (iu != ju)
    unidentifiable = list(zip(iu[off].tolist(), ju[off].tolist()))

    # tied pairs: the R~ columns merge into f_3 + f_4
    merge = np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]])
    a4, b4 = gram[iu, ju], rhs[iu, ju]
    a3, b3 = merge.T @ a4[tied] @ merge, b4[tied] @ merge
    a4, b4 = a4[~tied], b4[~tied]
    worst = np.concatenate([np.linalg.cond(a3), np.linalg.cond(a4)]).max()
    if not worst < RANK_COND:
        raise RankDeficiencyError(
            f"design condition number {np.sqrt(worst):.3g} >= {np.sqrt(RANK_COND):.0g}; "
            "add time samples spanning the slowest beat period")
    sol = np.empty((iu.size, 4))
    sol[tied] = np.linalg.solve(a3, b3[..., None])[:, [0, 1, 2, 2], 0]
    sol[~tied] = np.linalg.solve(a4, b4[..., None])[..., 0]
    if not field_quadrature:
        sol[:, 2:] *= -1.0

    qt, pt, rt = np.zeros((3, n, n))
    qt[iu, ju] = qt[ju, iu] = sol[:, 0]
    pt[iu, ju] = pt[ju, iu] = sol[:, 1]
    rt[iu, ju], rt[ju, iu] = sol[:, 2], sol[:, 3]

    result = ReconstructionResult(qt=qt, pt=pt, rt=rt, residual_rms=0.0,
                                  condition=float(np.sqrt(worst)),
                                  unidentifiable_pairs=unidentifiable)
    gamma_fit = result.gamma(basis=basis)
    sq = 0.0
    for it, t in enumerate(series.times):
        y = _mode_observable(gamma_fit, omegas, t, series.quadrature)
        model = g.T @ (d[:, None] * y * d[None, :]) @ g
        sq += float(np.mean((model - series.samples[it]) ** 2))
    result.residual_rms = float(np.sqrt(sq / series.n_times))
    return result
