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
    include_zero_mode: bool = False        # Neumann only

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
        if self.include_zero_mode and kind is not BoundaryKind.NEUMANN:
            raise ValueError("only the Neumann basis has a zero mode")

    @classmethod
    def dirichlet(cls) -> "BoundarySpec":
        return cls(BoundaryKind.DIRICHLET)

    @classmethod
    def neumann(cls, include_zero_mode: bool = False) -> "BoundarySpec":
        return cls(BoundaryKind.NEUMANN, include_zero_mode=include_zero_mode)

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
    kx: float
    ky: float
    k: float
    omega: float

    @property
    def is_zero_mode(self) -> bool:
        return self.k == 0.0


def _robin_eq(k, alpha, length):
    # pole-free form of tan(kL) = 2 alpha k / (k^2 - alpha^2)
    return (k * k - alpha * alpha) * np.sin(k * length) - 2.0 * alpha * k * np.cos(k * length)


def _robin_root(alpha: float, length: float, branch: int) -> float:
    """Bisect the single quantisation root in ((branch-1) pi/L, branch pi/L)."""
    lo = (branch - 1) * math.pi / length
    hi = branch * math.pi / length
    # endpoints are roots of sin(kL); nudge inward, keeping the tiny-alpha
    # root k ~ sqrt(2 alpha / L) of branch 1 inside the bracket
    pad = (hi - lo) * 1e-13
    lo = lo + pad if branch > 1 else min(pad, 0.25 * math.sqrt(2.0 * alpha / length))
    hi -= pad
    flo = _robin_eq(lo, alpha, length)
    fhi = _robin_eq(hi, alpha, length)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NumericalError(
            f"Robin bracket {branch} has no sign change (alpha*L={alpha * length:g})")
    for _ in range(_ROBIN_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        fmid = _robin_eq(mid, alpha, length)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
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
    return np.array([_robin_root(boundary.alpha, length, m) for m in range(1, count + 1)])


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
    """Solved Helmholtz spectrum on a grid: ordered modes plus the sampled
    orthonormal mode-function matrix G of shape (n_modes, n_pixels)."""

    grid: Grid
    boundary: BoundarySpec
    modes: list = field(repr=False)
    sampled: np.ndarray = field(repr=False)   # G, rows orthonormal

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def omegas(self) -> np.ndarray:
        return self._omegas

    @property
    def wavenumbers(self) -> np.ndarray:
        return self._ks

    def __post_init__(self):
        self._omegas = np.array([m.omega for m in self.modes])
        self._ks = np.array([m.k for m in self.modes])

    def orthonormality_defect(self) -> float:
        g = self.sampled
        return float(np.max(np.abs(g @ g.T - np.eye(self.n_modes))))


def build_basis(grid: Grid, boundary: BoundarySpec,
                dispersion: Callable[[np.ndarray], np.ndarray]) -> ModeBasis:
    """Tensor-product 2D mode basis with frequencies from `dispersion`.

    Modes are ordered by ascending wavenumber magnitude, ties broken by
    (mx, my); the (0, 0) Neumann zero mode is dropped unless the boundary
    spec retains it.
    """
    kx, bx = _axis_basis(boundary, grid.lx, grid.nx)
    ky, by = _axis_basis(boundary, grid.ly, grid.ny)

    entries = []
    for mx in range(grid.nx):
        for my in range(grid.ny):
            k = math.hypot(kx[mx], ky[my])
            if k == 0.0 and not boundary.include_zero_mode:
                continue
            entries.append((k, mx, my))
    entries.sort()

    ks = np.array([e[0] for e in entries])
    omegas = np.asarray(dispersion(ks), dtype=float)
    modes = []
    g = np.empty((len(entries), grid.n_pixels))
    for row, ((k, mx, my), omega) in enumerate(zip(entries, omegas)):
        if omega <= 0 and k > 0:
            raise NumericalError(f"dispersion returned omega={omega} for k={k}")
        modes.append(Mode(index=(mx, my), kx=float(kx[mx]), ky=float(ky[my]),
                          k=float(k), omega=float(omega)))
        g[row] = np.outer(bx[mx], by[my]).ravel()

    expected = grid.n_pixels
    if boundary.kind is BoundaryKind.NEUMANN and not boundary.include_zero_mode:
        expected -= 1
    if len(modes) != expected:
        raise NumericalError(f"mode count {len(modes)} != expected {expected}")
    return ModeBasis(grid=grid, boundary=boundary, modes=modes, sampled=g)
