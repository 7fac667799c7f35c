"""Covariance-matrix Gaussian states: thermal construction, real-space
transformation, partial trace, symplectic spectra, entropy and mutual
information.

Conventions.  A state of n degrees of freedom is a symmetric 2n x 2n
matrix in block form (Q, R; R^T, P); indices 0..n-1 are field quadratures,
n..2n-1 momentum quadratures, matching Omega = (0, I; -I, 0).  Entropy is
always in nats.  The vacuum is Gamma = I/2 and every physical state has
symplectic eigenvalues nu >= 1/2.

Storage.  A state keeps its blocks Q and P, and R only when it is
nonzero; a diagonal block is kept as its vector, and the n x n blocks and
the full matrix are assembled on demand (``q_block``, ``p_block``,
``data``).  A thermal state has R = 0 in mode space and on the pixel
lattice, so neither it nor any restriction of it ever holds a 2n x 2n
matrix or a zero block.  In mode space it holds the n-vector n_T + 1/2,
once for Q~ and P~.  On the pixel lattice it holds the mode weights a of
Q and b of P, and each whole block is built from them, exactly symmetric,
on its first whole read.  A certified state also keeps the weights 1/a of
X = G^T diag(1/a) G, Q's inverse in closed form (its pseudo-inverse on
Neumann, whose G lacks the flat mode), and one channel stack per block
(below), ny nx^2 numbers: Q's from the start, P's and X's from their first
read.  Each pixel set S of Q, P or X (``restrict``, a mutual information)
is read from the block's stack (``ModeBasis.pixel_block``) until the
block's reads would have cost more than building it: a loop over small
sets, such as tile against tile, never holds an n_pixels^2 block.  The
certified mutual information never reads P and inverts nothing
(``_LogDets``): it reads a union of whole pixel columns from Q's stack
(below), any other small set from Q, and a large one from X on its
complement.  Inside a box that leaves a ring of pixels, every read of X
comes from X's stack directly, so only a batch whose pairs use every
pixel, such as the full area sweep, reads X through ``_on`` and may build
it.  The map of each pixel's MI with the rest of a set
(``local_information``) reads diag Q, diag X and X's ring rows, and builds
neither block.

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
principal submatrices it gathers, the thermal mode state the diagonals
it builds from checked occupations, and ``to_real_space`` the exactly
symmetric real-space blocks of a diagonal, R = 0 mode state, without
checking them again.  Every other real-space state is checked by
``from_blocks``.

Entropy takes one of two routes.  The exact one is Williamson's: with
Gamma = L L^T, nu are the singular values of L^T Omega L (of chol(Q)^T
chol(P) when R = 0), which symplectic rescalings leave alone, so the huge
momentum scale needs no balancing.  The classical one, S = 1/2 ln det Q +
1/2 ln det P + n, errs by 0 <= ln nu + 1 - S(nu) <= MODE_ERROR / nu^2 per
mode (nu >= 1) and is taken when a certificate bounds the error by
CLASSICAL_TOL.  A diagonal mode state with R = 0 gives Q = G^T diag(a) G
and P = G^T diag(b) G, so on any pixel set S, with Pi_S = G_S^T G_S,
Q_S >= min a Pi_S and min b Pi_S <= P_S <= (1 + delta) min b Pi_S, where
delta = max b / min b - 1.  By monotonicity of symplectic eigenvalues
(Bhatia & Jain, J. Math. Phys. 56, 112201 (2015)) the j-th nu of Gamma_S
is at least nu_floor = sqrt(min a min b) times the j-th eigenvalue of Pi_S:
1, but 1 - |S|/N once on Neumann, whose G lacks the flat mode.  And
1/2 ln det P_S is 1/2 |S| ln min b + 1/2 ln det Pi_S to within
1/2 |S| ln(1 + delta), with ln det Pi_S = 0, or ln(1 - |S|/N) on Neumann.
Deep in the Rayleigh-Jeans regime delta ~ 1/(12 nu^2) is round-off, so a
mutual information reads Q alone and takes P's share in closed form: the
classical field MI of Wolf, Verstraete, Hastings & Cirac, PRL 100, 070502
(2008).  Both certificates take G_S^T G_S = Pi_S; the per-axis defects
||B B^T - I||_2 are at most 1.2e-14 on 48 x 48 grids (1.3e-15 for Robin).
``to_real_space`` stores nu_floor and delta and ``restrict`` passes them
on; every other state takes the exact route, which stays the oracle
through ``symplectic_spectrum``.

Column channels.  G is a row permutation of Bx (x) By, so on a set S of
whole pixel columns, I (x) By conjugates Q_S into one block per transverse
mode my: ln det Q_S = sum_my ln det C_my[cols, cols], with the channel Gram
C_my = Bx^T diag(a(., my)) Bx of nx x nx.  This is the reduction of strip
entropies to 1-D fields of mass ~ k_y (Casini & Huerta, J. Phys. A 42,
504007 (2009)).  A certified mutual information reads each of its sets
that is a union of whole columns (every set of a full-height volume sweep,
an area sweep's B beside a full-height A) from the state's (ny, nx, nx)
stack of C_my by one batched Cholesky per set; a batch of such sets alone
builds, gathers and slices no pixel-space block.  Any pixel set S of a
block is sum_my (By[my, S_y]^T By[my, S_y]) * C_my[S_x, S_x], entrywise,
which ``ModeBasis.pixel_block`` contracts in |S| m ny^2 multiply-adds, m
the pixel columns S touches.
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
# the blocks ``CovarianceMatrix._stored`` and ``_on`` read, by attribute: Q, P and
# X = G^T diag(1/a) G, Q's inverse (its pseudo-inverse when G lacks the flat Neumann mode)
Q, P, X = "_q", "_p", "_x"


def _largest(block: np.ndarray, name: str) -> float:
    scale = float(max(block.max(), -block.min()))   # NaN or inf anywhere shows here
    if not math.isfinite(scale):
        raise ValueError(f"{name} has non-finite entries")
    return scale


def _compact(block: np.ndarray) -> np.ndarray:
    """A square block with no nonzero entry off its diagonal as that diagonal,
    any other as it is."""
    diag = np.diagonal(block)
    return diag.copy() if np.count_nonzero(block) == np.count_nonzero(diag) else block


def _dense(block: np.ndarray) -> np.ndarray:
    """A stored block as its n x n matrix, read-only; a diagonal kept as its
    vector is expanded on each call."""
    if block.ndim == 2:
        return block
    full = np.diag(block)
    full.setflags(write=False)
    return full


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
    """Immutable symmetric covariance matrix, stored as its Q and P blocks,
    a diagonal one as its vector, and its R block when that is nonzero.

    ``CovarianceMatrix(data, labelling)`` checks and splits a full 2n x 2n
    matrix; ``CovarianceMatrix.from_blocks(q, p, r, labelling)`` checks blocks.
    """

    def __init__(self, data: np.ndarray, labelling: str, basis=None):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] != data.shape[1] or data.shape[0] % 2:
            raise ValueError(f"covariance must be square with even dimension, got {data.shape}")
        data = _symmetrised(data, "covariance matrix")
        n = data.shape[0] // 2
        self._store(_compact(data[:n, :n].copy()), _compact(data[n:, n:].copy()),
                    data[:n, n:].copy(), labelling, basis)

    @classmethod
    def from_blocks(cls, q, p, r, labelling: str, basis=None) -> "CovarianceMatrix":
        """A covariance from its n x n blocks; r=None means R = 0."""
        shape = np.shape(q)
        if len(shape) != 2 or shape[0] != shape[1] or np.shape(p) != shape or (
                r is not None and np.shape(r) != shape):
            raise ValueError("Q, P and R must be square blocks of one shape")
        q, p = (_compact(_symmetrised(m, f"covariance block {name}"))
                for m, name in ((q, "Q"), (p, "P")))
        if r is not None:
            r = np.array(r, dtype=float)
            _largest(r, "covariance block R")
        return cls.__new__(cls)._store(q, p, r, labelling, basis)

    def _store(self, q, p, r, labelling, basis, nu_floor=None, p_spread=None,
               weights=None, stack=None) -> "CovarianceMatrix":
        """Keep checked (or exactly symmetric) blocks, read-only, a diagonal one
        as its vector; R only when nonzero; Q and P as None with their mode
        weights {Q: a, P: b} (and X's, 1/a, on a certified state) when each
        is built on its first whole read, and with Q's channel stack when sets
        are read from channel stacks."""
        if labelling not in (MOMENTUM, REAL):
            raise ValueError(f"unknown labelling {labelling!r}")
        self._q, self._p, self._x, self._weights = q, p, None, weights
        self._stacks = None if stack is None else {Q: stack}   # the others built on first use
        self._gathered = {Q: 0, P: 0, X: 0}   # multiply-adds each block's gathers have spent
        self._r = r if r is not None and r.any() else None
        for block in (q, p, self._r):
            if block is not None:
                block.setflags(write=False)
        self.labelling = labelling
        self.basis = basis
        self.nu_floor = nu_floor   # certified, see the module docstring; None without one
        self.p_spread = p_spread   # delta = max b / min b - 1, set with nu_floor
        if self.structural_nulls < 0:
            raise ValueError(f"basis has {basis.n_modes} modes, more than the "
                             f"{basis.grid.n_pixels} pixels it is sampled on")
        return self

    @property
    def data(self) -> np.ndarray:
        """The full 2n x 2n matrix, assembled on each call."""
        r = self.r_block
        return np.block([[self.q_block, r], [r.T, self.p_block]])

    @property
    def n(self) -> int:
        return self.basis.grid.n_pixels if self._q is None else self._q.shape[0]

    @property
    def structural_nulls(self) -> int:
        """Pixels minus modes for a real-space state on its basis's whole lattice, else 0."""
        if self.labelling != REAL or self.basis is None or self.n != self.basis.grid.n_pixels:
            return 0
        return self.n - self.basis.n_modes

    @property
    def q_block(self) -> np.ndarray:
        return _dense(self._stored(Q))

    @property
    def r_block(self) -> np.ndarray:
        return self._r if self._r is not None else np.zeros((self.n, self.n))

    @property
    def p_block(self) -> np.ndarray:
        return _dense(self._stored(P))

    @property
    def diagonals(self):
        """(diag Q, diag P) of a state stored as diagonal blocks with R = 0, else None."""
        if self._r is None and self._q is not None and self._q.ndim == 1 and self._p.ndim == 1:
            return self._q, self._p
        return None

    def _stored(self, k: str) -> np.ndarray:
        """Block k as stored, built from its mode weights on the first call
        that needs it."""
        if getattr(self, k) is None:
            setattr(self, k, self.basis.to_pixels(self._weights[k]))
            getattr(self, k).setflags(write=False)
        return getattr(self, k)

    def _stack(self, k: str) -> np.ndarray:
        """Block k's (ny, nx, nx) channel stack (``ModeBasis.channels``) on a
        certified state, Q's kept from ``to_real_space`` and the others built
        on first use."""
        if k not in self._stacks:
            self._stacks[k] = self.basis.channels(self._weights[k])
        return self._stacks[k]

    def _on(self, k: str, box: np.ndarray) -> np.ndarray:
        """Block k on an index set S.  While a certified state's block is
        unbuilt, a proper subset S is read from the block's channel stack by
        ``ModeBasis.pixel_block``, for |S| m ny^2 multiply-adds, m the pixel
        columns S touches, and symmetrised, (B + B^T) / 2, so that it is exactly
        symmetric.  The first S that would take the block's gathers past
        nx^3 ny^2, the cost of building it, builds it instead (ski rental: a
        run of sets never costs more than twice the cheaper plan); every later
        S is sliced from the block, or is it."""
        if getattr(self, k) is None and self._stacks is not None and box.size < self.n:
            ny = self.basis.grid.ny
            cost = box.size * np.count_nonzero(np.bincount(box // ny)) * ny ** 2
            if self._gathered[k] + cost <= self.n ** 2 * self.basis.grid.nx:   # nx^3 ny^2
                self._gathered[k] += cost
                block = self.basis.pixel_block(self._stack(k), box, box)
                return 0.5 * (block + block.T)
        block = self._stored(k)
        return block if box.size == self.n else block[np.ix_(*[box] * block.ndim)]

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
    """Thermal state in the mode basis: Q~ = P~ = diag(n_T(omega) + 1/2), R~ = 0,
    stored as the one vector n_T(omega) + 1/2."""
    occupation = bose_einstein(basis.omegas, temperature) + 0.5
    return CovarianceMatrix.__new__(CovarianceMatrix)._store(
        occupation, occupation, None, MOMENTUM, basis)


def _mode_prefactors(basis, derived: DerivedParams):
    d_phi = np.sqrt(derived.c3 / (derived.luttinger_k * basis.omegas))
    return d_phi, 1.0 / d_phi


def to_real_space(gamma: CovarianceMatrix, basis, derived: DerivedParams) -> CovarianceMatrix:
    """Transform a mode-space covariance to pixel-lattice labelling:
    Q = G^T D_phi Q~ D_phi G, P = G^T D_eta P~ D_eta G and, when R~ is
    nonzero, R = G^T D_phi R~ D_eta G.  A state stored diagonal with R~ = 0
    keeps the mode weights of Q and P, from which each block is built axis by
    axis on its first whole read.  On a basis that lacks no mode but the flat
    Neumann one it carries its nu_floor, P's spread delta, X's weights 1/a,
    and Q's channel stack (``ModeBasis.channels``), ny nx^2 numbers, from
    which small sets and unions of whole columns of Q are read.
    Any other goes through the dense G products and ``from_blocks``."""
    if gamma.labelling != MOMENTUM:
        raise ValueError("to_real_space expects a momentum-space covariance")
    if gamma.n != basis.n_modes:
        raise ValueError(f"covariance has {gamma.n} modes, basis has {basis.n_modes}")
    d_phi, d_eta = _mode_prefactors(basis, derived)
    if gamma.diagonals is not None:
        q, p = gamma.diagonals
        a, b = d_phi * q * d_phi, d_eta * p * d_eta
        flat_only = basis.grid.n_pixels - basis.n_modes == (basis.boundary.kind == "neumann")
        floor, spread = ((math.sqrt(a.min() * b.min()), b.max() / b.min() - 1.0)
                         if flat_only and min(a.min(), b.min()) > 0 else (None, None))
        return CovarianceMatrix.__new__(CovarianceMatrix)._store(
            None, None, None, REAL, basis, floor, spread,
            {Q: a, P: b} if floor is None else {Q: a, P: b, X: 1.0 / a},
            None if floor is None else basis.channels(a))
    g = basis.sampled
    q, p, r = (None if m is None else g.T @ (left[:, None] * m * right) @ g
               for m, left, right in ((gamma.q_block, d_phi, d_phi),
                                      (gamma.p_block, d_eta, d_eta), (gamma._r, d_phi, d_eta)))
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
    """Certified bound, in nats, on how far a classical entropy of any `size`
    of gamma's dof (default all) lies from the exact one, or inf: the log-det
    entropy's excess plus 1/2 size ln(1 + delta), which covers P's
    closed-form share."""
    if gamma.nu_floor is None:
        return math.inf
    size, n_pixels = gamma.n if size is None else size, gamma.basis.grid.n_pixels
    flat = gamma.basis.n_modes < n_pixels   # the flat Neumann mode is missing
    low = gamma.nu_floor * (1.0 - size / n_pixels if flat else 1.0)   # the lowest nu's floor
    if low < 1.0:
        return math.inf
    return (MODE_ERROR * ((size - 1) / gamma.nu_floor ** 2 + 1 / low ** 2)
            + 0.5 * size * math.log1p(gamma.p_spread))


def von_neumann_entropy(gamma: CovarianceMatrix) -> float:
    """Entropy in nats: 1/2 ln det Q + 1/2 ln det P + n when the certificate
    bounds that by CLASSICAL_TOL, else from the symplectic spectrum."""
    if entropy_error_bound(gamma) <= CLASSICAL_TOL:
        half = sum(np.log(np.diagonal(_cholesky(m))).sum() for m in (gamma.q_block, gamma.p_block))
        return float(half) + gamma.n
    return float(math.fsum(_entropy_terms(symplectic_spectrum(gamma).values)))


def _selector_indices(gamma: CovarianceMatrix, selector) -> np.ndarray:
    mask = hasattr(selector, "indices")   # RegionMask-like
    if mask and (gamma.labelling != REAL or selector.grid != getattr(gamma.basis, "grid", None)):
        raise ValueError("a pixel mask selects from a real-space covariance on its own grid only")
    idx = np.asarray(selector.indices() if mask else selector)
    if idx.size == 0 or idx.dtype.kind not in "iu":   # not bool, not float
        raise ValueError(f"a selection must be nonempty integer indices, got {idx.size} "
                         f"of dtype {idx.dtype}")
    idx = np.sort(idx)
    if (idx[1:] == idx[:-1]).any():
        raise ValueError("selection contains repeated indices")
    if idx[0] < 0 or idx[-1] >= gamma.n:
        raise ValueError("selection out of range")
    return idx


def restrict(gamma: CovarianceMatrix, selector) -> CovarianceMatrix:
    """Partial trace: keep rows/columns of the selected degrees of freedom.

    `selector` is a pixel mask (real-space labelling) or a plain index
    array into the n degrees of freedom (either labelling), each block
    read by ``CovarianceMatrix._on`` and R_S sliced."""
    idx = _selector_indices(gamma, selector)
    r = None if gamma._r is None else gamma._r[np.ix_(idx, idx)]
    return CovarianceMatrix.__new__(CovarianceMatrix)._store(
        gamma._on(Q, idx), gamma._on(P, idx), r, gamma.labelling, gamma.basis,
        gamma.nu_floor, gamma.p_spread)


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
    """Classical entropies of subsets S of a certified box B of gamma's
    pixels, less sum_S (1 + 1/2 ln c + 1/2 ln min b), which cancels in any
    mutual information: 1/2 ln det(Q_S / c), c the mean of Q's diagonal, plus
    P's closed-form share 1/2 ln det Pi_S (module docstring).

    Each set picks its own read.  A union of whole pixel columns takes one
    batched Cholesky of its blocks of the channel Grams C_my in Q's stack
    (module docstring), with a(mx, my) = 0 for the flat Neumann mode G
    lacks, and 1/c in the log-det's scale.  Any other set is factored from
    Q_S when it is at most half the box, as ``_on`` reads it, or when the
    box is at most half the lattice, sliced from the box's Q, read on the
    first such set.
    A larger set is read through its complement C in the lattice, from
    M^-1 = W = X + u u^T / c in closed form, where M = Q + c u u^T, u is the
    flat unit vector, and the u terms are kept only on a Neumann lattice,
    whose Q u = 0 and X = Q^+.  No matrix is inverted: ln det M =
    sum ln a (+ ln c), and Jacobi's complementary-minor identity gives
    det M_S = det M det W_CC (Horn & Johnson, Matrix Analysis, 2nd ed.
    (2013)).  C is the ring R of pixels outside the box plus the set's
    complement D in the box.  R is eliminated once, into the |R| x |B|
    factor F = L^-1 W_RB, L = chol(W_RR), and each D takes its own Schur
    complement Z_DD = W_DD - F_D^T F_D, so det W_CC = det W_RR det Z_DD.  X's
    ring rows and each X_DD come from X's stack of channel inverses
    Bx^T diag(1/a(., my)) Bx (``ModeBasis.pixel_block``), so a box with a
    ring never builds X; without one, X_DD is read by ``_on``.  On
    Neumann, Q_S = M_S - c u_S u_S^T and M^-1 u = u / c, so the determinant
    lemma (Sherman & Morrison, Ann. Math. Stat. 21, 124 (1950)) adds
    ln(u_C^T W_CC^-1 u_C / c), where u_C^T W_CC^-1 u_C = beta + w_D^T Z_DD^-1 w_D
    with beta = |f_u|^2, f_u = L^-1 u_R and w_D = u_D - F_D^T f_u; each D
    takes both terms from one factor."""

    def __init__(self, gamma: CovarianceMatrix, box: np.ndarray):
        self.gamma, self.box = gamma, box
        a, n_pixels = gamma._weights[Q], gamma.basis.grid.n_pixels
        self.c = a.sum() / n_pixels   # the mean of Q's diagonal
        self.flat = (a.size < n_pixels) / n_pixels   # 1/N without the flat mode
        self.place = np.zeros(n_pixels, dtype=int)   # each box pixel's place in the box
        self.place[box] = np.arange(box.size)
        self.small = 2 * box.size <= n_pixels   # its Q is read once, and each set sliced
        self.q = self.base = None   # each read on first use

    def reduced(self, idx: np.ndarray) -> float:
        k, n, pos, ny = idx.size, self.box.size, self.place[idx], self.gamma.basis.grid.ny
        out = 0.5 * math.log1p(-k * self.flat)   # P's share
        if _whole_columns(idx, ny):
            cols = idx[::ny] // ny
            grams = self.gamma._stack(Q)[:, cols[:, None], cols]   # C_my by (my, i, j)
            return out + _half_log_det(_cholesky(grams), 1.0 / self.c)
        if self.small or 2 * k <= n:
            if self.small and self.q is None:
                self.q = self.gamma._on(Q, self.box)
            q = self.gamma._on(Q, idx) if self.q is None else self.q[pos[:, None], pos]
            return out + _half_log_det(_cholesky(q), 1.0 / self.c)
        if self.base is None:
            self._eliminate_ring()
        out += self.base
        rest = np.ones(n, dtype=bool)
        rest[pos] = False
        rest = np.flatnonzero(rest)   # D, by its places in the box
        if not rest.size:
            return out + (0.5 * math.log(self.beta / self.c) if self.flat else 0.0)
        f, d = self.f[:, rest], self.box[rest]
        x = (self.gamma.basis.pixel_block(self.gamma._stack(X), d, d) if len(self.f) else
             self.gamma._on(X, d))   # from X's stack, as its ring rows, when a ring is left
        z = x + self.shift - f.T @ f
        if not self.flat:
            return out + _half_log_det(_cholesky(z), self.c)
        # Z_DD bordered by w_D and a corner above w_D^T Z_DD^-1 w_D <= |w_D|^2 max(a, c):
        # the factor's last row is L^-1 w_D, as numpy has no triangular solve
        k = rest.size
        bordered = np.empty((k + 1, k + 1))
        w = math.sqrt(self.flat) - self.fu @ f
        bordered[:k, :k], bordered[k, :k], bordered[:k, k] = z, w, w
        bordered[k, k] = 2.0 * self.top * (w @ w)
        chol = _cholesky(bordered)
        tail = chol[k, :k]
        return (out + _half_log_det(chol[:k, :k], self.c)
                + 0.5 * math.log((self.beta + tail @ tail) / self.c))

    def _eliminate_ring(self):
        """base = 1/2 ln det(M / c) + 1/2 ln det(c W_RR), F, f_u and beta;
        with no ring, F and f_u have no rows and beta = 0."""
        a, box, n_pixels = self.gamma._weights[Q], self.box, self.gamma.basis.grid.n_pixels
        self.base = 0.5 * float(np.log(a / self.c).sum())   # sum ln a (+ ln c) - N ln c
        self.top = max(a.max(), self.c)   # M's largest eigenvalue
        self.shift = self.flat / self.c   # u u^T / c on every entry
        ring = np.setdiff1d(np.arange(n_pixels), box, assume_unique=True)
        f = np.empty((0, box.size + 1))
        if ring.size:
            rows = self.gamma.basis.pixel_block(self.gamma._stack(X), ring,
                                                np.concatenate([ring, box]))
            chol = _cholesky(rows[:, :ring.size] + self.shift)
            self.base += _half_log_det(chol, self.c)
            rhs = np.empty((ring.size, box.size + 1))
            rhs[:, :-1] = rows[:, ring.size:] + self.shift
            rhs[:, -1] = math.sqrt(self.flat)
            del rows
            f = np.linalg.solve(chol, rhs)   # L^-1 (W_RB, u_R), one solve per box
        self.f, self.fu, self.beta = f[:, :-1], f[:, -1], float(f[:, -1] @ f[:, -1])


def _half_log_det(chol: np.ndarray, scale: float) -> float:
    """1/2 ln det(scale M) from M's Cholesky factor, summed over a stack of them."""
    return float(np.log(np.diagonal(chol, axis1=-2, axis2=-1) * math.sqrt(scale)).sum())


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    union = np.sort(np.concatenate([a, b]))
    if (union[1:] == union[:-1]).any():
        raise ValueError("regions A and B overlap")
    return union


def _whole_columns(idx: np.ndarray, ny: int) -> bool:
    """Whether sorted distinct pixel indices are a union of whole columns of ny pixels."""
    return idx.size % ny == 0 and np.array_equal(idx.reshape(-1, ny),
                                                 idx[::ny, None] // ny * ny + np.arange(ny))


def mutual_information_batch(gamma: CovarianceMatrix, pairs):
    """I(A:B) in nats, clamped at zero, for each disjoint (A, B) pair of masks
    or index arrays that `pairs` yields, and the EntropyRoute taken.

    When the certificate covers the largest A u B of a state stored by its
    mode weights, every entropy is a log-det of Q, read by one ``_LogDets``
    of all pairs' pixels, which picks each set's read from the set.
    Otherwise (no certificate, or a restriction of a certified state, which
    keeps no weights) each entropy comes from ``von_neumann_entropy``, once
    per distinct set."""
    sets, used = [], np.zeros(gamma.n, dtype=bool)
    for a, b in pairs:
        sets.append((_selector_indices(gamma, a), _selector_indices(gamma, b)))
        used[sets[-1][0]] = used[sets[-1][1]] = True
    if not sets:
        raise ValueError("mutual information needs at least one (A, B) pair; the batch is empty")
    route = entropy_route(gamma, min(min(a.size, b.size) for a, b in sets),
                          max(a.size + b.size for a, b in sets))
    if route.name == "classical" and gamma._weights is not None:
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


def local_information(gamma: CovarianceMatrix, selector) -> np.ndarray:
    """I(p : S \\ p) in nats, clamped at zero, for each pixel p of a pixel set
    S, in index order, on a certified state stored by its mode weights whose
    certificate covers S; any other state raises ValueError.
    ``mutual_information_batch`` of the pairs ({p}, S \\ p) stays the oracle.

    Since det Q_S\\p = det Q_S (Q_S^-1)_pp, the classical MI is
    1/2 ln(Q_pp (Q_S^-1)_pp) plus P's closed-form share
    1/2 ln((1 - 1/N)(1 - (|S| - 1)/N) / (1 - |S|/N)), which is 0 off Neumann.
    The ring R, the lattice less S, is eliminated as in ``_LogDets``, so
    Z = M_S^-1 has diag Z = diag W_SS less the squared column norms of
    F = L^-1 W_RS.  On Neumann Q_S = M_S - c u_S u_S^T, and Sherman-Morrison
    adds c (Z u_S)_p^2 / (1 - c u_S^T Z u_S) = w_p^2 / beta: Z u_S = w / c,
    w = u_S - F^T f_u, and 1 - c u_S^T Z u_S = beta / c by the determinant
    lemma.  diag Q and diag X on S come from ``ModeBasis.pixel_diagonal``:
    past the thin factor the work is O(|R| |S|), and neither Q nor X is built."""
    idx = _selector_indices(gamma, selector)
    if gamma._weights is None or entropy_route(gamma, 1, idx.size).name != "classical":
        raise ValueError("local information in closed form needs a certified state "
                         "stored by its mode weights")
    reader = _LogDets(gamma, idx)
    reader._eliminate_ring()
    f, flat, diagonal = reader.f, reader.flat, gamma.basis.pixel_diagonal
    inverse = diagonal(gamma._weights[X])[idx] + reader.shift - np.einsum("ij,ij->j", f, f)
    if flat:
        w = math.sqrt(flat) - reader.fu @ f
        inverse += w * w / reader.beta
    k = idx.size
    share = math.log1p(-flat) + math.log1p(-(k - 1) * flat) - math.log1p(-k * flat)   # P's
    return np.maximum(0.5 * (np.log(diagonal(gamma._weights[Q])[idx] * inverse) + share), 0.0)


def mutual_information(gamma: CovarianceMatrix, a, b) -> float:
    """I(A:B) = S(A) + S(B) - S(A u B) in nats, clamped at zero, for disjoint
    masks or index arrays A and B."""
    return float(mutual_information_batch(gamma, [(a, b)])[0][0])
