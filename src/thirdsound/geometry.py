"""Helmholtz mode bases on rectangular grids with Dirichlet, Neumann or
Robin boundary conditions.

Sampling is cell-centered, x_i = (i + 1/2) dx, so grid points never lie on
the cell boundary and the sampled sine/cosine bases are the orthonormal
type-II transform matrices.  Each row of the sampled basis G carries the
lattice factor sqrt(dx dy) relative to the continuum-normalised mode
function, which makes G G^T the identity and keeps discrete canonical
commutators in canonical form downstream.

Robin boundary conditions are taken in the stable (absorbing) sign
convention n . grad(g) + alpha g = 0 on both ends with alpha > 0, whose 1D
quantisation condition is

    tan(k L) = 2 alpha k / (k^2 - alpha^2).

Branch m of this condition has exactly one root in ((m-1) pi / L, m pi / L),
moving from the Neumann wavenumber (m-1) pi / L at alpha -> 0 to the
Dirichlet wavenumber m pi / L as alpha -> infinity.  The opposite sign
convention (outward gradient proportional to +alpha times the field) admits
a bound solution with k^2 < 0 for every alpha > 0, i.e. an imaginary-
frequency instability for a massless field, and is therefore rejected.

Every 2D mode is a product of 1D modes, so G is a row permutation of the
Kronecker product Bx (x) By of the two per-axis matrices, for all three
boundary kinds.  The basis keeps Bx, By and each mode's (mx, my), and maps
a diagonal mode-space matrix to the pixel lattice, G^T diag(w) G, one axis
at a time: O(n^5) for an n x n grid instead of O(n^6) for the dense
products, exactly symmetric, and written into its one output buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError, UnstableRobinError

_ROBIN_MAX_BISECT = 200


class BoundaryKind(str, Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    ROBIN = "robin"


@dataclass(frozen=True)
class BoundarySpec:
    kind: BoundaryKind
    alpha: Optional[float] = None          # Robin parameter (1/m)

    def __post_init__(self):
        kind = BoundaryKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is BoundaryKind.ROBIN:
            if self.alpha is None or not math.isfinite(self.alpha):
                raise ValueError("Robin boundary requires a finite alpha")
            if self.alpha == 0:
                raise ValueError("alpha = 0 is the Neumann condition; use kind='neumann'")
            if self.alpha < 0:
                raise UnstableRobinError(
                    "alpha < 0 admits a bound mode with k^2 < 0 "
                    "(tanh-branch root); the massless spectrum is unstable")
        elif self.alpha is not None:
            raise ValueError(f"alpha is only meaningful for Robin boundaries, not {kind.value}")

    @classmethod
    def dirichlet(cls) -> "BoundarySpec":
        return cls(BoundaryKind.DIRICHLET)

    @classmethod
    def neumann(cls) -> "BoundarySpec":
        return cls(BoundaryKind.NEUMANN)

    @classmethod
    def robin(cls, alpha: float) -> "BoundarySpec":
        return cls(BoundaryKind.ROBIN, alpha=alpha)


@dataclass(frozen=True)
class Grid:
    """Rectangular cell of size lx x ly sampled on nx x ny cell centers."""

    lx: float
    ly: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError("cell side lengths must be positive")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("pixel counts must be at least 1")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def n_pixels(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True)
class Mode:
    index: tuple          # (mx, my) per-axis branch indices
    k: float
    omega: float


def _robin_eq(k, alpha, length):
    # pole-free form of tan(kL) = 2 alpha k / (k^2 - alpha^2)
    return (k * k - alpha * alpha) * np.sin(k * length) - 2.0 * alpha * k * np.cos(k * length)


def _robin_roots(alpha: float, length: float, count: int) -> np.ndarray:
    """Bisect the single quantisation root in each ((m-1) pi/L, m pi/L),
    m = 1..count, all branches at once."""
    branch = np.arange(1, count + 1)
    lo = (branch - 1) * math.pi / length
    hi = branch * math.pi / length
    # endpoints are roots of sin(kL); nudge inward, keeping the tiny-alpha
    # root k ~ sqrt(2 alpha / L) of branch 1 inside the bracket
    pad = (hi - lo) * 1e-13
    lo += pad
    lo[0] = min(pad[0], 0.25 * math.sqrt(2.0 * alpha / length))
    hi -= pad
    flo, fhi = _robin_eq(lo, alpha, length), _robin_eq(hi, alpha, length)
    same_sign = flo * fhi > 0
    if same_sign.any():
        raise NumericalError(f"Robin bracket {np.argmax(same_sign) + 1} has no sign "
                             f"change (alpha*L={alpha * length:g})")
    root = np.where(flo == 0.0, lo, hi)        # kept where an end is a root
    active = (flo != 0.0) & (fhi != 0.0)
    for _ in range(_ROBIN_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        fmid = _robin_eq(mid, alpha, length)
        done = active & ((mid == lo) | (mid == hi) | (fmid == 0.0))
        root[done] = mid[done]
        active &= ~done
        if not active.any():
            return root
        left = flo * fmid < 0
        hi = np.where(left, mid, hi)
        lo, flo = np.where(left, lo, mid), np.where(left, flo, fmid)
    raise NumericalError(f"Robin bisection did not converge in {_ROBIN_MAX_BISECT} iterations")


def solve_wavenumbers_1d(boundary: BoundarySpec, length: float, count: int) -> np.ndarray:
    """Lowest `count` admissible 1D wavenumbers for the boundary condition.

    Dirichlet: m pi / L for m = 1..count.  Neumann: m pi / L for
    m = 0..count-1 (the k=0 entry is the zero mode).  Robin: one root per
    branch interval ((m-1) pi / L, m pi / L), m = 1..count.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if length <= 0:
        raise ValueError("length must be positive")
    kind = boundary.kind
    if kind is BoundaryKind.DIRICHLET:
        return np.arange(1, count + 1) * math.pi / length
    if kind is BoundaryKind.NEUMANN:
        return np.arange(0, count) * math.pi / length
    return _robin_roots(boundary.alpha, length, count)


def sine_basis_1d(n: int) -> np.ndarray:
    """Orthonormal type-II sine matrix; row m-1 samples sin(m pi x / L) at
    cell centers.  The Nyquist row m = n needs 1/sqrt(2) instead of the
    continuum normalisation to stay orthonormal on the lattice."""
    i = np.arange(n) + 0.5
    m = np.arange(1, n + 1)
    mat = np.sqrt(2.0 / n) * np.sin(np.outer(m, i) * math.pi / n)
    mat[-1] /= math.sqrt(2.0)
    return mat


def cosine_basis_1d(n: int) -> np.ndarray:
    """Orthonormal type-II cosine matrix; row m samples cos(m pi x / L),
    with the flat m = 0 row normalised to 1/sqrt(n)."""
    i = np.arange(n) + 0.5
    m = np.arange(0, n)
    mat = np.sqrt(2.0 / n) * np.cos(np.outer(m, i) * math.pi / n)
    mat[0] /= math.sqrt(2.0)
    return mat


def robin_basis_1d(alpha: float, length: float, n: int, ks: np.ndarray) -> np.ndarray:
    """Sampled Robin modes cos(kx) + (alpha/k) sin(kx), re-orthonormalised.

    Midpoint sampling leaves O(dx^2) departures from orthogonality, so the
    rows are polished by a QR factorisation (ascending-k order keeps each
    polished row aligned with its analytic parent)."""
    x = (np.arange(n) + 0.5) * (length / n)
    rows = np.cos(np.outer(ks, x)) + (alpha / ks)[:, None] * np.sin(np.outer(ks, x))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    q, r = np.linalg.qr(rows.T)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (q * signs).T


def _axis_basis(boundary: BoundarySpec, length: float, n: int):
    ks = solve_wavenumbers_1d(boundary, length, n)
    kind = boundary.kind
    if kind is BoundaryKind.DIRICHLET:
        return ks, sine_basis_1d(n)
    if kind is BoundaryKind.NEUMANN:
        return ks, cosine_basis_1d(n)
    return ks, robin_basis_1d(boundary.alpha, length, n, ks)


@dataclass
class ModeBasis:
    """Solved Helmholtz spectrum on a grid: ordered modes and the per-axis
    orthonormal matrices (Bx, By).  The sampled mode-function matrix G, of
    shape (n_modes, n_pixels), is built from them on each access;
    ``to_pixels`` maps mode weights to the exactly symmetric G^T diag(w) G
    by one O(n^5) route that never forms G."""

    grid: Grid
    boundary: BoundarySpec
    modes: list = field(repr=False)
    axes: tuple = field(repr=False)           # (Bx, By), rows orthonormal

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def omegas(self) -> np.ndarray:
        return self._omegas

    def __post_init__(self):
        self._omegas = np.array([m.omega for m in self.modes])
        self._index = np.array([m.index for m in self.modes], dtype=int).reshape(-1, 2).T

    @property
    def kron(self) -> np.ndarray:
        """Each mode's row mx ny + my in Bx (x) By, so that G = (Bx (x) By)[kron]."""
        return self._index[0] * self.grid.ny + self._index[1]

    @property
    def sampled(self) -> np.ndarray:
        """G, rows orthonormal; the row for mode (mx, my) is Bx[mx] (x) By[my]."""
        (bx, by), (mx, my) = self.axes, self._index
        return (bx[mx][:, :, None] * by[my][:, None, :]).reshape(self.n_modes, self.grid.n_pixels)

    def _grid(self, weights: np.ndarray) -> np.ndarray:
        """Mode weights on the (mx, my) grid of Bx (x) By, 0 where the basis
        lacks the mode."""
        w = np.zeros((self.axes[0].shape[0], self.axes[1].shape[0]))
        w.flat[self.kron] = weights
        return w

    def channels(self, weights: np.ndarray) -> np.ndarray:
        """The (ny, nx, nx) stack of channel blocks C_my = Bx^T diag(w(., my)) Bx,
        one per transverse mode my: G^T diag(weights) G is
        sum_my (By[my]^T By[my]) (x) C_my.  The weights are nonnegative, so
        C_my = A A^T with A = Bx^T diag(sqrt(w(., my))): one symmetric rank-k
        product per channel, half a general one's multiply-adds, writes into
        the stack, exactly symmetric, and nothing else of its size is held."""
        bx, w = self.axes[0], self._grid(weights)
        out = np.empty((w.shape[1], bx.shape[0], bx.shape[0]))
        for my in range(w.shape[1]):
            a = bx.T * np.sqrt(w[:, my])
            np.matmul(a, a.T, out=out[my])
        return out

    def pixel_diagonal(self, weights: np.ndarray) -> np.ndarray:
        """diag(G^T diag(weights) G) by pixel, (Bx o Bx)^T w (By o By)."""
        bx, by = self.axes
        return ((bx * bx).T @ self._grid(weights) @ (by * by)).ravel()

    def pixel_block(self, channels: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray) -> np.ndarray:
        """Rows `rows` and columns `cols` (pixel indices) of
        sum_my (By[my]^T By[my]) (x) C_my for a stack C of ``channels``: entry
        ((i, a), (j, b)) is sum_my By[my, a] By[my, b] C_my[i, j].  It takes
        |rows| m ny^2 multiply-adds, m the number of pixel columns that `cols`
        touches, and holds no n_pixels^2 array."""
        by = self.axes[1]
        ny = by.shape[0]
        ix, iy = np.divmod(rows, ny)
        xs = np.flatnonzero(np.bincount(cols // ny))   # the columns touched: np.unique
        at = np.searchsorted(xs, cols // ny)           # takes 3x as long, or imports numpy.ma
        t = channels.transpose(1, 2, 0)[ix[:, None], xs]   # (row, column j, my): C_my[i, j]
        t *= by.T[iy][:, None, :]
        t = (t.reshape(-1, ny) @ by).reshape(rows.size, -1)   # (row, (column j, b))
        return t[:, at * ny + cols % ny]

    def orthonormality_defect(self) -> float:
        g = self.sampled
        return float(np.max(np.abs(g @ g.T - np.eye(self.n_modes))))

    def to_pixels(self, weights: np.ndarray) -> np.ndarray:
        """G^T diag(weights) G, exactly symmetric, in O(n^5) for an n x n grid
        and one n_pixels x n_pixels buffer.

        The product is a weighted sum of Kronecker products,
        sum_m w_m (Bx[mx] Bx[mx]^T) (x) (By[my] By[my]^T), contracted one
        axis at a time: one GEMM fills the buffer in (i, j, a, b) order, and
        each x row i is then laid out in place as its (i, a), (j, b) rows.
        Each entry is averaged with its transposed partner, (M + M^T) / 2,
        one x row against one x column at a time.  (A GEMM per x row would
        need no reordering, but OpenBLAS blocks such smaller products
        differently and they can differ in the last bit.)
        """
        bx, by = self.axes
        nx, ny = bx.shape[0], by.shape[0]
        ty = np.einsum("xy,ya,yb->xab", self._grid(weights), by, by, optimize=True)   # (mx, a, b)
        t = np.tensordot(bx[:, :, None] * bx[:, None, :], ty, axes=(0, 0))   # (i, j, a, b)
        out = t.reshape(nx, ny, nx, ny)                                      # (i, a, j, b)
        for i in range(nx):
            out[i] = t[i].transpose(1, 0, 2).copy()
        for i in range(nx):
            row, col = out[i, :, i:], out[i:, :, i].transpose(2, 0, 1)      # (a, j, b) each
            row[...] = col[...] = (row + col) * 0.5
        return out.reshape(nx * ny, nx * ny)


def build_basis(grid: Grid, boundary: BoundarySpec,
                dispersion: Callable[[np.ndarray], np.ndarray]) -> ModeBasis:
    """Tensor-product 2D mode basis with frequencies from `dispersion`.

    Modes are ordered by ascending wavenumber magnitude, ties broken by
    (mx, my); the (0, 0) Neumann mode has k = 0 and is dropped.
    """
    kx, bx = _axis_basis(boundary, grid.lx, grid.nx)
    ky, by = _axis_basis(boundary, grid.ly, grid.ny)

    mx, my = np.divmod(np.arange(grid.n_pixels), grid.ny)
    # math.hypot, not np.hypot: they can differ in the last bit, and k sets
    # the mode order and the frequencies
    ks = np.array(list(map(math.hypot, kx[mx].tolist(), ky[my].tolist())))
    order = np.lexsort((my, mx, ks))
    order = order[ks[order] > 0]
    mx, my, ks = mx[order], my[order], ks[order]
    omegas = np.asarray(dispersion(ks), dtype=float)
    bad = ~((omegas > 0) & np.isfinite(omegas))
    if bad.any():
        row = int(np.argmax(bad))
        raise NumericalError(f"dispersion returned omega={omegas[row]} for k={ks[row]}")
    modes = [Mode(index=index, k=k, omega=omega)
             for index, k, omega in zip(zip(mx.tolist(), my.tolist()), ks.tolist(), omegas.tolist())]
    return ModeBasis(grid=grid, boundary=boundary, modes=modes, axes=(bx, by))
