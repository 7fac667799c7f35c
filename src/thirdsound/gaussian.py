"""Covariance-matrix Gaussian states: thermal construction, real-space
transformation, partial trace, symplectic spectra, entropy and mutual
information.

Conventions.  A state of n degrees of freedom is a symmetric 2n x 2n
matrix in block form (Q, R; R^T, P); indices 0..n-1 are field quadratures,
n..2n-1 momentum quadratures, matching Omega = (0, I; -I, 0).  Entropy is
always in nats.  The vacuum is Gamma = I/2 and every physical state has
symplectic eigenvalues nu >= 1/2.

The momentum-to-real-space map multiplies the mode quadratures by the
dimensionless prefactors sqrt(c/(K omega)) (field) and sqrt(K omega / c)
(momentum) and rotates with the sampled basis G.  Because G already
carries the sqrt(cell area) lattice factor, the map is symplectic on the
retained mode span and physicality is preserved.  When the basis spans a
proper subspace of the pixel lattice (Neumann with the zero mode dropped),
the real-space matrix acquires exact null directions; these are structural
(the lattice simply has fewer physical collective degrees of freedom than
pixels), are tracked via ``structural_nulls`` and are projected out of the
spectrum rather than flagged as uncertainty violations.

Symplectic spectra come from one exact Williamson route: Cholesky-factor
Gamma = L L^T and take the singular values of L^T Omega L, which reduce to
svd(chol(Q)^T chol(P)) when R = 0, as for every thermal real-space state
and every restriction of one.  The route is invariant under symplectic
rescalings, so the huge momentum-quadrature scale needs no balancing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalCovarianceError
from .physics import bose_einstein, DerivedParams, PhysicalConstants

MOMENTUM = "momentum"
REAL = "real"

# below 1/2 - CLAMP_TOL is round-off and clamped; below 1/2 - HARD_TOL is a bug
CLAMP_TOL = 1e-9
HARD_TOL = 1e-6
NULL_TOL = 1e-6   # largest share of a block's scale a structural null may carry


class CovarianceMatrix:
    """Immutable symmetric covariance matrix with quadrature-block layout."""

    def __init__(self, data: np.ndarray, labelling: str, basis=None,
                 structural_nulls: int = 0):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] != data.shape[1] or data.shape[0] % 2:
            raise ValueError(f"covariance must be square with even dimension, got {data.shape}")
        scale = np.max(np.abs(data))
        if scale > 0 and np.max(np.abs(data - data.T)) > 1e-12 * scale:
            raise ValueError("covariance matrix is not symmetric to 1e-12 relative")
        if not np.all(np.isfinite(data)):
            raise ValueError("covariance matrix has non-finite entries")
        if labelling not in (MOMENTUM, REAL):
            raise ValueError(f"unknown labelling {labelling!r}")
        self._data = 0.5 * (data + data.T)
        self._data.setflags(write=False)
        self.labelling = labelling
        self.basis = basis
        self.structural_nulls = int(structural_nulls)
        if not 0 <= self.structural_nulls <= self.n:
            raise ValueError(f"structural_nulls must lie in 0..{self.n}, "
                             f"got {self.structural_nulls}")

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def n(self) -> int:
        return self._data.shape[0] // 2

    @property
    def q_block(self) -> np.ndarray:
        return self._data[: self.n, : self.n]

    @property
    def r_block(self) -> np.ndarray:
        return self._data[: self.n, self.n:]

    @property
    def p_block(self) -> np.ndarray:
        return self._data[self.n:, self.n:]

    def __repr__(self):
        return (f"CovarianceMatrix(n={self.n}, labelling={self.labelling!r}, "
                f"structural_nulls={self.structural_nulls})")


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Positive symplectic eigenvalues, ascending; n_null counts excluded
    structural zero directions."""

    values: np.ndarray
    n_null: int = 0

    @property
    def min(self) -> float:
        return float(self.values[0])


def thermal_momentum_covariance(basis, temperature: float,
                                constants: PhysicalConstants = PhysicalConstants()) -> CovarianceMatrix:
    """Thermal state in the mode basis: Q~ = P~ = diag(n_T(omega) + 1/2), R~ = 0."""
    diag = bose_einstein(basis.omegas, temperature, constants) + 0.5
    return CovarianceMatrix(np.diag(np.concatenate([diag, diag])), MOMENTUM, basis=basis)


def _mode_prefactors(basis, derived: DerivedParams):
    d_phi = np.sqrt(derived.c3 / (derived.luttinger_k * basis.omegas))
    return d_phi, 1.0 / d_phi


def to_real_space(gamma: CovarianceMatrix, basis, derived: DerivedParams) -> CovarianceMatrix:
    """Transform a mode-space covariance to pixel-lattice labelling."""
    if gamma.labelling != MOMENTUM:
        raise ValueError("to_real_space expects a momentum-space covariance")
    if gamma.n != basis.n_modes:
        raise ValueError(f"covariance has {gamma.n} modes, basis has {basis.n_modes}")
    n_pix = basis.grid.n_pixels
    if basis.n_modes > n_pix:
        raise ValueError(f"basis has {basis.n_modes} modes, more than the "
                         f"{n_pix} pixels it is sampled on")
    g = basis.sampled
    d_phi, d_eta = _mode_prefactors(basis, derived)
    q = g.T @ (d_phi[:, None] * gamma.q_block * d_phi[None, :]) @ g
    p = g.T @ (d_eta[:, None] * gamma.p_block * d_eta[None, :]) @ g
    r = g.T @ (d_phi[:, None] * gamma.r_block * d_eta[None, :]) @ g
    return CovarianceMatrix(np.block([[q, r], [r.T, p]]), REAL, basis=basis,
                            structural_nulls=n_pix - basis.n_modes)


def to_momentum_space(gamma: CovarianceMatrix, basis, derived: DerivedParams) -> CovarianceMatrix:
    """Inverse of :func:`to_real_space` on the retained mode span."""
    if gamma.labelling != REAL:
        raise ValueError("to_momentum_space expects a real-space covariance")
    if gamma.n != basis.grid.n_pixels:
        raise ValueError("covariance dimension does not match the basis grid")
    g = basis.sampled
    d_phi, d_eta = _mode_prefactors(basis, derived)
    qt = (g @ gamma.q_block @ g.T) / np.outer(d_phi, d_phi)
    pt = (g @ gamma.p_block @ g.T) / np.outer(d_eta, d_eta)
    rt = (g @ gamma.r_block @ g.T) / np.outer(d_phi, d_eta)
    data = np.block([[0.5 * (qt + qt.T), rt], [rt.T, 0.5 * (pt + pt.T)]])
    return CovarianceMatrix(data, MOMENTUM, basis=basis)


def _drop_structural_nulls(gamma: CovarianceMatrix):
    """Q, P and R on the complement of the declared structural nulls.

    The k nulls are the k lowest eigendirections of Q.  Each block must
    carry nothing on them; rotating both quadratures by the same orthogonal
    matrix is symplectic, so cutting them out leaves the spectrum intact.
    """
    q, p, r = gamma.q_block, gamma.p_block, gamma.r_block
    k = gamma.structural_nulls
    if not k:
        return q, p, r
    vecs = np.linalg.eigh(q)[1]
    null, keep = vecs[:, :k], vecs[:, k:]
    for name, block in (("Q", q), ("P", p), ("R", r), ("R^T", r.T)):
        residual = np.max(np.abs(block @ null))
        if residual > NULL_TOL * np.max(np.abs(block)):
            raise UnphysicalCovarianceError(
                f"declared {k} structural nulls but {name} carries {residual:.3g} "
                f"on them, above {NULL_TOL:g} of its largest entry")
    return keep.T @ q @ keep, keep.T @ p @ keep, keep.T @ r @ keep


def _cholesky(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise UnphysicalCovarianceError(
            "covariance is not positive definite on its non-null span") from None


def symplectic_spectrum(gamma: CovarianceMatrix) -> SymplecticSpectrum:
    """Symplectic eigenvalues by Williamson's theorem, ascending.

    With Gamma = L L^T (Cholesky), nu are the singular values of the
    antisymmetric L^T Omega L, each appearing twice.  When R = 0 that
    matrix is block off-diagonal and nu = svd(chol(Q)^T chol(P)), an n x n
    problem.  A symplectic rescaling D = diag(s, 1/s) gives chol(D Gamma D)
    = D chol(Gamma) and D Omega D = Omega, so the ~1e18 momentum-quadrature
    scale needs no balancing.

    Declared structural nulls (a mode basis smaller than the pixel lattice)
    are checked to be empty and projected out first.  A Gamma that is not
    positive definite on what remains, or a value below 1/2 - 1e-6, raises;
    values within 1e-9 below 1/2 are clamped.
    """
    q, p, r = _drop_structural_nulls(gamma)
    if not r.any():
        values = np.linalg.svd(_cholesky(q).T @ _cholesky(p), compute_uv=False)[::-1]
    else:
        m = q.shape[0]
        chol = _cholesky(np.block([[q, r], [r.T, p]]))
        twice = np.linalg.svd(chol.T @ np.vstack([chol[m:], -chol[:m]]), compute_uv=False)
        values = twice[::-1][::2]
    if values.size and values[0] < 0.5 - HARD_TOL:
        raise UnphysicalCovarianceError(
            f"symplectic eigenvalue {values[0]:.9g} violates the uncertainty bound 1/2")
    values[np.abs(values - 0.5) < CLAMP_TOL] = 0.5   # round-off band
    return SymplecticSpectrum(values=values, n_null=gamma.structural_nulls)


def _entropy_terms(nus: np.ndarray) -> np.ndarray:
    # (nu+1/2)ln(nu+1/2) - (nu-1/2)ln(nu-1/2) rewritten as
    # ln(nu+1/2) + (nu-1/2) log1p(1/(nu-1/2)), which avoids the large-nu
    # cancellation (both terms stay O(ln nu)) and is exactly 0 at nu = 1/2
    b = np.maximum(nus - 0.5, 0.0)
    out = np.log(nus + 0.5)
    pos = b > 0
    out[pos] += b[pos] * np.log1p(1.0 / b[pos])
    return out


def von_neumann_entropy(gamma: CovarianceMatrix) -> float:
    """Entropy in nats from the symplectic spectrum."""
    return float(math.fsum(_entropy_terms(symplectic_spectrum(gamma).values)))


def _selector_indices(gamma: CovarianceMatrix, selector) -> np.ndarray:
    if hasattr(selector, "indices"):   # RegionMask-like
        if gamma.labelling != REAL:
            raise ValueError("pixel masks select from real-space covariances only")
        idx = np.asarray(selector.indices(), dtype=int)
    else:
        idx = np.asarray(selector, dtype=int)
    if idx.size == 0:
        raise ValueError("cannot restrict to an empty selection")
    if idx.size != np.unique(idx).size:
        raise ValueError("selection contains repeated indices")
    if np.any(idx < 0) or np.any(idx >= gamma.n):
        raise ValueError("selection out of range")
    return np.sort(idx)


def restrict(gamma: CovarianceMatrix, selector) -> CovarianceMatrix:
    """Partial trace: keep rows/columns of the selected degrees of freedom.

    `selector` is a pixel mask (real-space labelling) or a plain index
    array into the n degrees of freedom (either labelling).
    """
    idx = _selector_indices(gamma, selector)
    rows = np.concatenate([idx, gamma.n + idx])
    sub = gamma.data[np.ix_(rows, rows)]
    nulls = gamma.structural_nulls if idx.size == gamma.n else 0
    return CovarianceMatrix(sub, gamma.labelling, basis=gamma.basis,
                            structural_nulls=nulls)


def mutual_information(gamma: CovarianceMatrix, a, b) -> float:
    """I(A:B) = S(A) + S(B) - S(A u B) in nats, clamped at zero.

    A and B are masks or index arrays and must be disjoint.
    """
    ia = _selector_indices(gamma, a)
    ib = _selector_indices(gamma, b)
    if np.intersect1d(ia, ib).size:
        raise ValueError("regions A and B overlap")
    s_a = von_neumann_entropy(restrict(gamma, ia))
    s_b = von_neumann_entropy(restrict(gamma, ib))
    s_ab = von_neumann_entropy(restrict(gamma, np.concatenate([ia, ib])))
    return max(s_a + s_b - s_ab, 0.0)
