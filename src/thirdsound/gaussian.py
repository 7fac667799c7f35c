"""Covariance-matrix Gaussian states: thermal construction, real-space
transformation, partial trace, symplectic spectra, entropy and mutual
information.

Conventions.  A state of n degrees of freedom is a symmetric 2n x 2n
matrix in block form (Q, R; R^T, P); indices 0..n-1 are field quadratures,
n..2n-1 momentum quadratures, matching Omega = (0, I; -I, 0).  Entropy is
always in nats.  The vacuum is Gamma = I/2 and every physical state has
symplectic eigenvalues nu >= 1/2.

Storage.  A state keeps its n x n blocks Q and P, and R only when it is
nonzero; the full matrix is assembled on demand (``data``).  A thermal
state has R = 0 in mode space and on the pixel lattice, so neither it nor
any restriction of it ever holds a 2n x 2n matrix or a zero block.

The momentum-to-real-space map multiplies the mode quadratures by the
dimensionless prefactors sqrt(c/(K omega)) (field) and sqrt(K omega / c)
(momentum) and rotates with the sampled basis G, one axis at a time
(``ModeBasis.to_pixels``).  Because G already carries the sqrt(cell area)
lattice factor, the map is symplectic on the retained mode span and
physicality is preserved.  When the basis spans a proper subspace of the
pixel lattice (Neumann, whose zero mode is dropped), the real-space matrix
acquires exact null directions; these are structural (the lattice simply
has fewer physical collective degrees of freedom than pixels).  Their
number ``structural_nulls`` is derived from the basis, pixels minus modes
for a state on the whole lattice, and they are projected out of the
spectrum rather than flagged as uncertainty violations.

Checks.  A covariance is checked once, where it enters: the public
constructors reject non-finite entries and asymmetry above SYMMETRY_TOL of
the largest entry, and symmetrise what they keep.  A partial trace keeps the
principal submatrices it gathers, and the thermal mode state its diagonal
blocks built from checked occupations, without checking them again.

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
from .physics import bose_einstein, DerivedParams

MOMENTUM = "momentum"
REAL = "real"

# below 1/2 - CLAMP_TOL is round-off and clamped; below 1/2 - HARD_TOL is a bug
CLAMP_TOL = 1e-9
HARD_TOL = 1e-6
NULL_TOL = 1e-6   # largest share of a block's scale a structural null may carry
SYMMETRY_TOL = 1e-12   # largest asymmetry, relative to the largest entry
TILE = 64              # tile side of the symmetry pass


def _largest(block: np.ndarray, name: str) -> float:
    scale = float(max(block.max(), -block.min()))   # NaN or inf anywhere shows here
    if not math.isfinite(scale):
        raise ValueError(f"{name} has non-finite entries")
    return scale


def _symmetrised(block, name: str) -> np.ndarray:
    """A private symmetric copy of a square block.  Raises if the block has
    a non-finite entry or departs from symmetry by more than SYMMETRY_TOL
    of its largest entry."""
    block = np.asarray(block, dtype=float)
    scale = _largest(block, name)
    # square tiles keep a tile and its transposed partner in cache together
    sym = np.empty_like(block)
    skew = 0.0   # largest |M - sym|, half of |M - M^T|
    for i in range(0, block.shape[0], TILE):
        for j in range(i, block.shape[0], TILE):
            upper, lower = block[i:i + TILE, j:j + TILE], block[j:j + TILE, i:i + TILE]
            tile = sym[i:i + TILE, j:j + TILE]
            np.add(upper, lower.T, out=tile)
            tile *= 0.5
            skew = max(skew, float(np.max(np.abs(upper - tile))))
            sym[j:j + TILE, i:i + TILE] = tile.T
    if skew > 0.5 * SYMMETRY_TOL * scale:
        raise ValueError(f"{name} is not symmetric to {SYMMETRY_TOL:g} relative")
    return sym


class CovarianceMatrix:
    """Immutable symmetric covariance matrix, stored as its Q and P blocks
    and its R block when that is nonzero.

    ``CovarianceMatrix(data, labelling)`` checks and splits a full 2n x 2n
    matrix; ``CovarianceMatrix.from_blocks(q, p, r, labelling)`` checks blocks.
    """

    def __init__(self, data: np.ndarray, labelling: str, basis=None):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] != data.shape[1] or data.shape[0] % 2:
            raise ValueError(f"covariance must be square with even dimension, got {data.shape}")
        data = _symmetrised(data, "covariance matrix")
        n = data.shape[0] // 2
        self._store(data[:n, :n].copy(), data[n:, n:].copy(), data[:n, n:].copy(),
                    labelling, basis)

    @classmethod
    def from_blocks(cls, q, p, r, labelling: str, basis=None) -> "CovarianceMatrix":
        """A covariance from its n x n blocks; r=None means R = 0."""
        shape = np.shape(q)
        if len(shape) != 2 or shape[0] != shape[1] or np.shape(p) != shape or (
                r is not None and np.shape(r) != shape):
            raise ValueError("Q, P and R must be square blocks of one shape")
        q, p = _symmetrised(q, "covariance block Q"), _symmetrised(p, "covariance block P")
        if r is not None:
            r = np.array(r, dtype=float)
            _largest(r, "covariance block R")
        return cls.__new__(cls)._store(q, p, r, labelling, basis)

    def _store(self, q, p, r, labelling, basis) -> "CovarianceMatrix":
        """Keep checked blocks as they are, read-only; R only when nonzero."""
        if labelling not in (MOMENTUM, REAL):
            raise ValueError(f"unknown labelling {labelling!r}")
        self._q, self._p = q, p
        self._r = r if r is not None and r.any() else None
        for block in (q, p, self._r):
            if block is not None:
                block.setflags(write=False)
        self.labelling = labelling
        self.basis = basis
        if self.structural_nulls < 0:
            raise ValueError(f"basis has {basis.n_modes} modes, more than the "
                             f"{basis.grid.n_pixels} pixels it is sampled on")
        return self

    @property
    def data(self) -> np.ndarray:
        """The full 2n x 2n matrix, assembled on each call."""
        return np.block([[self._q, self.r_block], [self.r_block.T, self._p]])

    @property
    def n(self) -> int:
        return self._q.shape[0]

    @property
    def structural_nulls(self) -> int:
        """Pixels minus modes for a real-space state on its basis's whole lattice, else 0."""
        if self.labelling != REAL or self.basis is None or self.n != self.basis.grid.n_pixels:
            return 0
        return self.n - self.basis.n_modes

    @property
    def q_block(self) -> np.ndarray:
        return self._q

    @property
    def r_block(self) -> np.ndarray:
        return self._r if self._r is not None else np.zeros_like(self._q)

    @property
    def p_block(self) -> np.ndarray:
        return self._p

    def __repr__(self):
        return (f"CovarianceMatrix(n={self.n}, labelling={self.labelling!r}, "
                f"nulls={self.structural_nulls})")


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Positive symplectic eigenvalues, ascending; n_null counts excluded
    structural zero directions."""

    values: np.ndarray
    n_null: int = 0

    @property
    def min(self) -> float:
        return float(self.values[0])


def thermal_momentum_covariance(basis, temperature: float) -> CovarianceMatrix:
    """Thermal state in the mode basis: Q~ = P~ = diag(n_T(omega) + 1/2), R~ = 0."""
    diag = np.diag(bose_einstein(basis.omegas, temperature) + 0.5)
    return CovarianceMatrix.__new__(CovarianceMatrix)._store(diag, diag, None, MOMENTUM, basis)


def _mode_prefactors(basis, derived: DerivedParams):
    d_phi = np.sqrt(derived.c3 / (derived.luttinger_k * basis.omegas))
    return d_phi, 1.0 / d_phi


def to_real_space(gamma: CovarianceMatrix, basis, derived: DerivedParams) -> CovarianceMatrix:
    """Transform a mode-space covariance to pixel-lattice labelling:
    Q = G^T D_phi Q~ D_phi G, P = G^T D_eta P~ D_eta G and, when R~ is
    nonzero, R = G^T D_phi R~ D_eta G, each built one axis at a time."""
    if gamma.labelling != MOMENTUM:
        raise ValueError("to_real_space expects a momentum-space covariance")
    if gamma.n != basis.n_modes:
        raise ValueError(f"covariance has {gamma.n} modes, basis has {basis.n_modes}")
    d_phi, d_eta = _mode_prefactors(basis, derived)
    q = basis.to_pixels(gamma.q_block, d_phi, d_phi)
    p = basis.to_pixels(gamma.p_block, d_eta, d_eta)
    r = None if gamma._r is None else basis.to_pixels(gamma._r, d_phi, d_eta)
    return CovarianceMatrix.from_blocks(q, p, r, REAL, basis=basis)


def _drop_structural_nulls(gamma: CovarianceMatrix):
    """Q, P and R on the complement of the structural nulls.

    The k nulls are the k lowest eigendirections of Q.  Each block must
    carry nothing on them; rotating both quadratures by the same orthogonal
    matrix is symplectic, so cutting them out leaves the spectrum intact.
    """
    q, p, r = gamma.q_block, gamma.p_block, gamma._r
    k = gamma.structural_nulls
    if not k:
        return q, p, r
    vecs = np.linalg.eigh(q)[1]
    null, keep = vecs[:, :k], vecs[:, k:]
    blocks = [("Q", q), ("P", p)] + ([] if r is None else [("R", r), ("R^T", r.T)])
    for name, block in blocks:
        residual = np.max(np.abs(block @ null))
        if residual > NULL_TOL * np.max(np.abs(block)):
            raise UnphysicalCovarianceError(
                f"the basis leaves {k} structural nulls but {name} carries {residual:.3g} "
                f"on them, above {NULL_TOL:g} of its largest entry")
    return keep.T @ q @ keep, keep.T @ p @ keep, None if r is None else keep.T @ r @ keep


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

    Structural nulls (a mode basis smaller than the pixel lattice)
    are checked to be empty and projected out first.  A Gamma that is not
    positive definite on what remains, or a value below 1/2 - 1e-6, raises;
    values within 1e-9 below 1/2 are clamped.
    """
    q, p, r = _drop_structural_nulls(gamma)
    if r is None:
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
    cut = np.ix_(idx, idx)
    r = None if gamma._r is None else gamma._r[cut]
    return CovarianceMatrix.__new__(CovarianceMatrix)._store(
        gamma._q[cut], gamma._p[cut], r, gamma.labelling, gamma.basis)


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
