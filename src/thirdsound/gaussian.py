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
any restriction of it ever holds a 2n x 2n matrix or a zero block.  Its
real-space blocks are built exactly symmetric and stored as built.

The momentum-to-real-space map multiplies the mode quadratures by the
dimensionless prefactors sqrt(c/(K omega)) (field) and sqrt(K omega / c)
(momentum) and rotates with the sampled basis G, one axis at a time for a
thermal state (``ModeBasis.to_pixels``).  Because G already carries the
sqrt(cell area) lattice factor, the map is symplectic on the retained mode
span and physicality is preserved.  When the basis spans a proper subspace
of the pixel lattice (Neumann, whose zero mode is dropped), the real-space
matrix acquires exact null directions; these are structural (the lattice
simply has fewer physical collective degrees of freedom than pixels).  Their
number ``structural_nulls`` is derived from the basis, pixels minus modes
for a state on the whole lattice, and they are projected out of the
spectrum rather than flagged as uncertainty violations.

Checks.  A covariance is checked once, where it enters: the public
constructors reject non-finite entries and asymmetry above SYMMETRY_TOL of
the largest entry, and symmetrise what they keep.  A partial trace keeps the
principal submatrices it gathers, the thermal mode state its diagonal
blocks built from checked occupations, and ``to_real_space`` the exactly
symmetric real-space blocks of a diagonal, R = 0 mode state, without
checking them again.  Every other real-space state is checked by
``from_blocks``.

Entropy takes one of two routes.  The exact one is Williamson's: with
Gamma = L L^T, nu are the singular values of L^T Omega L (of chol(Q)^T
chol(P) when R = 0), which symplectic rescalings leave alone, so the huge
momentum scale needs no balancing.  The classical one, S = 1/2 ln det Q +
1/2 ln det P + n, errs by 0 <= ln nu + 1 - S(nu) <= MODE_ERROR / nu^2 per
mode (nu >= 1) and is taken when a certificate bounds that sum by
CLASSICAL_TOL.  A diagonal mode state with R = 0 gives Q = G^T diag(a) G
and P = G^T diag(b) G, so Q_S >= min a G_S^T G_S and P_S >= min b G_S^T G_S
on any pixel set S, and by monotonicity of symplectic eigenvalues (Bhatia &
Jain, J. Math. Phys. 56, 112201 (2015)) the j-th nu of Gamma_S is at least
nu_floor = sqrt(min a min b) times the j-th eigenvalue of G_S^T G_S: 1, but
1 - |S|/N once on Neumann, whose G lacks the flat mode.  ``to_real_space``
stores nu_floor and ``restrict`` passes it on; every other state takes the
exact route, which stays the oracle through ``symplectic_spectrum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UnphysicalCovarianceError
from .physics import bose_einstein, DerivedParams

MOMENTUM = "momentum"
REAL = "real"

# below 1/2 - CLAMP_TOL is round-off and clamped; below 1/2 - HARD_TOL is a bug
CLAMP_TOL = 1e-9
HARD_TOL = 1e-6
CLASSICAL_TOL = 1e-10  # largest certified entropy error the log-det route may carry, nats
MODE_ERROR = 1 / 12    # 0 <= ln nu + 1 - S(nu) <= MODE_ERROR / nu^2 for nu >= 1
NULL_TOL = 1e-6   # largest share of a block's scale a structural null may carry
SYMMETRY_TOL = 1e-12   # largest asymmetry, relative to the largest entry


def _largest(block: np.ndarray, name: str) -> float:
    scale = float(max(block.max(), -block.min()))   # NaN or inf anywhere shows here
    if not math.isfinite(scale):
        raise ValueError(f"{name} has non-finite entries")
    return scale


def _symmetrised(block, name: str) -> np.ndarray:
    """A private symmetric copy (M + M^T) / 2 of a square block.  Raises if
    the block has a non-finite entry or departs from symmetry by more than
    SYMMETRY_TOL of its largest entry."""
    block = np.asarray(block, dtype=float)
    scale = _largest(block, name)
    sym = 0.5 * (block + block.T)   # M - sym is half of M - M^T
    if np.max(np.abs(block - sym), initial=0.0) > 0.5 * SYMMETRY_TOL * scale:
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

    def _store(self, q, p, r, labelling, basis, nu_floor=None) -> "CovarianceMatrix":
        """Keep checked (or exactly symmetric) blocks, read-only; R only when nonzero."""
        if labelling not in (MOMENTUM, REAL):
            raise ValueError(f"unknown labelling {labelling!r}")
        self._q, self._p = q, p
        self._r = r if r is not None and r.any() else None
        for block in (q, p, self._r):
            if block is not None:
                block.setflags(write=False)
        self.labelling = labelling
        self.basis = basis
        self.nu_floor = nu_floor   # certified, see the module docstring; None without one
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
    nonzero, R = G^T D_phi R~ D_eta G.  A diagonal state with R~ = 0 is
    built axis by axis from its mode weights and stored as built, with its
    nu_floor on a basis that lacks no mode but the flat Neumann one; any
    other goes through the dense G products and ``from_blocks``."""
    if gamma.labelling != MOMENTUM:
        raise ValueError("to_real_space expects a momentum-space covariance")
    if gamma.n != basis.n_modes:
        raise ValueError(f"covariance has {gamma.n} modes, basis has {basis.n_modes}")
    d_phi, d_eta = _mode_prefactors(basis, derived)
    q, p, r = gamma.q_block, gamma.p_block, gamma._r
    if r is None and all(np.count_nonzero(m) == np.count_nonzero(np.diagonal(m)) for m in (q, p)):
        a, b = d_phi * np.diagonal(q) * d_phi, d_eta * np.diagonal(p) * d_eta
        flat_only = basis.grid.n_pixels - basis.n_modes == (basis.boundary.kind == "neumann")
        floor = math.sqrt(a.min() * b.min()) if flat_only and min(a.min(), b.min()) > 0 else None
        return CovarianceMatrix.__new__(CovarianceMatrix)._store(
            basis.to_pixels(a), basis.to_pixels(b), None, REAL, basis, floor)
    g = basis.sampled
    q, p, r = (None if m is None else g.T @ (left[:, None] * m * right) @ g
               for m, left, right in ((q, d_phi, d_phi), (p, d_eta, d_eta), (r, d_phi, d_eta)))
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


def entropy_error_bound(gamma: CovarianceMatrix, size: int | None = None) -> float:
    """Certified bound, in nats, on how far the log-det entropy of any `size`
    of gamma's dof (default all) lies above the exact one, or inf."""
    if gamma.nu_floor is None:
        return math.inf
    size, n_pixels = gamma.n if size is None else size, gamma.basis.grid.n_pixels
    flat = gamma.basis.n_modes < n_pixels   # the flat Neumann mode is missing
    low = gamma.nu_floor * (1.0 - size / n_pixels if flat else 1.0)   # the lowest nu's floor
    return math.inf if low < 1.0 else MODE_ERROR * ((size - 1) / gamma.nu_floor ** 2 + 1 / low ** 2)


def von_neumann_entropy(gamma: CovarianceMatrix) -> float:
    """Entropy in nats: 1/2 ln det Q + 1/2 ln det P + n when the certificate
    bounds that by CLASSICAL_TOL, else from the symplectic spectrum."""
    if entropy_error_bound(gamma) <= CLASSICAL_TOL:
        half = sum(np.log(np.diagonal(_cholesky(m))).sum() for m in (gamma._q, gamma._p))
        return float(half) + gamma.n
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
    idx = np.sort(idx)
    if np.any(idx[1:] == idx[:-1]):
        raise ValueError("selection contains repeated indices")
    if idx[0] < 0 or idx[-1] >= gamma.n:
        raise ValueError("selection out of range")
    return idx


def restrict(gamma: CovarianceMatrix, selector) -> CovarianceMatrix:
    """Partial trace: keep rows/columns of the selected degrees of freedom.

    `selector` is a pixel mask (real-space labelling) or a plain index
    array into the n degrees of freedom (either labelling).
    """
    idx = _selector_indices(gamma, selector)
    cut = np.ix_(idx, idx)
    r = None if gamma._r is None else gamma._r[cut]
    return CovarianceMatrix.__new__(CovarianceMatrix)._store(
        gamma._q[cut], gamma._p[cut], r, gamma.labelling, gamma.basis, gamma.nu_floor)


class EntropyRoute(NamedTuple):
    """'classical' (log-dets), 'exact' (symplectic spectra) or 'mixed', and
    the classical route's error bound on the largest set, in nats."""

    name: str
    error_bound: float


def entropy_route(gamma: CovarianceMatrix, smallest: int, largest: int) -> EntropyRoute:
    """The route of subsets of gamma from `smallest` to `largest` in size."""
    bound = entropy_error_bound(gamma, largest)
    return EntropyRoute("classical" if bound <= CLASSICAL_TOL else "mixed" if
                        entropy_error_bound(gamma, smallest) <= CLASSICAL_TOL else "exact", bound)


class _LogDets:
    """Classical entropies of subsets of a certified box of gamma's dof, less
    sum_i (1 + 1/2 ln Q_ii P_ii): that cancels in any mutual information and
    leaves log-dets of correlation matrices, small enough to keep their digits.
    A Cholesky factor of each block and of the reversed block gives every
    leading and trailing set; a set larger than its complement C uses
    det M_{-C} = det M det((M^-1)_CC) unless the box has structural nulls (the
    factors then leave out one end); any other set is factored on its own."""

    def __init__(self, gamma: CovarianceMatrix, box: np.ndarray):
        sub = gamma if box.size == gamma.n else restrict(gamma, box)
        self.box, self.blocks = box, (sub._q, sub._p)
        self.diags = [np.diagonal(block) for block in self.blocks]
        m = sub.n - (sub.structural_nulls > 0)
        self.leading = _running_logs(self.blocks, m)
        self.trailing = _running_logs([block[::-1, ::-1] for block in self.blocks], m)
        self.inverses = [] if m == sub.n else None   # M^-1, built on first use

    def reduced(self, idx: np.ndarray) -> float:
        pos = np.searchsorted(self.box, idx)
        k, n = pos.size, self.box.size
        if pos[-1] == k - 1 or pos[0] == n - k:
            return float((self.leading if pos[-1] == k - 1 else self.trailing)[k - 1])
        base, mats, power = 0.0, self.blocks, 1.0   # the set, factored on its own
        if self.inverses is not None and 2 * k > n:   # its complement C, scaled by M_ii
            if not self.inverses:
                self.inverses = [np.linalg.inv(block) for block in self.blocks]
            base, mats, power = float(self.leading[-1]), self.inverses, -1.0
            pos = np.setdiff1d(np.arange(n), pos, assume_unique=True)
        return base + float(sum(_reduced_logs(_cholesky(m[np.ix_(pos, pos)]), d[pos] ** power).sum()
                                for m, d in zip(mats, self.diags)))


def _reduced_logs(factor: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """ln(L_ii / sqrt(d_i)) over the positions of the Cholesky factor L."""
    return np.log(np.diagonal(factor) / np.sqrt(diag[:factor.shape[0]]))


def _running_logs(blocks, m: int) -> np.ndarray:
    """Reduced log-dets of the leading 1..m positions, summed over blocks."""
    return np.cumsum(sum(_reduced_logs(_cholesky(b[:m, :m]), np.diagonal(b)) for b in blocks))


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    union = np.sort(np.concatenate([a, b]))
    if np.any(union[1:] == union[:-1]):
        raise ValueError("regions A and B overlap")
    return union


def mutual_information_batch(gamma: CovarianceMatrix, pairs):
    """I(A:B) in nats, clamped at zero, for each disjoint (A, B) pair of masks
    or index arrays that `pairs` yields, and the EntropyRoute taken.  When the
    certificate covers the largest A u B, every entropy is read from one
    ``_LogDets`` of all pairs' pixels; otherwise from ``von_neumann_entropy``,
    once per distinct set."""
    sets, used = [], np.zeros(gamma.n, dtype=bool)
    for a, b in pairs:
        sets.append((_selector_indices(gamma, a), _selector_indices(gamma, b)))
        used[_union(*sets[-1])] = True
    route = entropy_route(gamma, min(min(a.size, b.size) for a, b in sets),
                          max(a.size + b.size for a, b in sets))
    if route.name == "classical":
        entropy = _LogDets(gamma, np.flatnonzero(used)).reduced
    else:
        known = {}

        def entropy(idx):
            key = idx.tobytes()
            if key not in known:
                known[key] = von_neumann_entropy(restrict(gamma, idx))
            return known[key]

    values = [entropy(a) + entropy(b) - entropy(_union(a, b)) for a, b in sets]
    return np.maximum(values, 0.0), route


def mutual_information(gamma: CovarianceMatrix, a, b) -> float:
    """I(A:B) = S(A) + S(B) - S(A u B) in nats, clamped at zero, for disjoint
    masks or index arrays A and B."""
    return float(mutual_information_batch(gamma, [(a, b)])[0][0])
