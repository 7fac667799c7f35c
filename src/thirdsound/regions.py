"""Pixel subsystems, their geometric statistics, and the sweep protocols
used for the volume/area scans and local-information maps.

Perimeters and corners use 4-connectivity on the pixel lattice: the
boundary length of a mask is the total length of edges between a masked
pixel and an unmasked-or-exterior pixel, and corners are counted at lattice
vertices (a diagonal pixel contact contributes two corners).  Subsystem
pairs are always separated by a buffer of at least one pixel ring so that
A and B never touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gaussian
from .geometry import Grid


@dataclass(frozen=True)
class RegionStats:
    pixel_count: int
    volume: float           # pixel count * cell area (m^2)
    boundary_length: float  # exposed-edge length (m)
    corner_count: int


class RegionMask:
    """Boolean pixel mask over a grid; immutable after construction."""

    def __init__(self, grid: Grid, pixels: np.ndarray):
        pixels = np.asarray(pixels, dtype=bool)
        if pixels.shape != (grid.nx, grid.ny):
            raise ValueError(f"mask shape {pixels.shape} != grid ({grid.nx}, {grid.ny})")
        self.grid = grid
        self.pixels = pixels.copy()
        self.pixels.setflags(write=False)

    @classmethod
    def full(cls, grid: Grid) -> "RegionMask":
        return cls(grid, np.ones((grid.nx, grid.ny), dtype=bool))

    @classmethod
    def from_rect(cls, grid: Grid, ix0: int, iy0: int, width: int, height: int) -> "RegionMask":
        """Axis-aligned rectangle of `width` pixels along x, `height` along y."""
        pixels = np.zeros((grid.nx, grid.ny), dtype=bool)
        pixels[ix0:ix0 + width, iy0:iy0 + height] = True
        return cls(grid, pixels)

    @classmethod
    def from_columns(cls, grid: Grid, ix0: int, ix1: int,
                     iy0: int = 0, iy1: int | None = None) -> "RegionMask":
        pixels = np.zeros((grid.nx, grid.ny), dtype=bool)
        pixels[ix0:ix1, iy0:(grid.ny if iy1 is None else iy1)] = True
        return cls(grid, pixels)

    @classmethod
    def from_indices(cls, grid: Grid, indices) -> "RegionMask":
        flat = np.zeros(grid.n_pixels, dtype=bool)
        flat[np.asarray(indices, dtype=int)] = True
        return cls(grid, flat.reshape(grid.nx, grid.ny))

    def indices(self) -> np.ndarray:
        """Flat pixel indices (C order over (nx, ny)), matching the
        covariance-matrix pixel ordering."""
        return np.flatnonzero(self.pixels.ravel())

    @property
    def pixel_count(self) -> int:
        return int(np.count_nonzero(self.pixels))

    def volume(self) -> float:
        return self.pixel_count * self.grid.cell_area

    def boundary_length(self) -> float:
        p = np.pad(self.pixels, 1, constant_values=False)
        # edges to x-neighbours are vertical segments of length dy
        x_edges = np.count_nonzero(p[1:, :] != p[:-1, :])
        y_edges = np.count_nonzero(p[:, 1:] != p[:, :-1])
        return x_edges * self.grid.dy + y_edges * self.grid.dx

    def corner_count(self) -> int:
        p = np.pad(self.pixels, 1, constant_values=False).astype(np.int8)
        # each lattice vertex sees a 2x2 cell neighbourhood: 1 or 3 masked
        # cells is one corner, a diagonal pair is two
        quad = p[:-1, :-1] + p[1:, :-1] + p[:-1, 1:] + p[1:, 1:]
        corners = np.count_nonzero(quad == 1) + np.count_nonzero(quad == 3)
        diag = (quad == 2) & (p[:-1, :-1] == p[1:, 1:])
        return int(corners + 2 * np.count_nonzero(diag))

    def stats(self) -> RegionStats:
        return RegionStats(pixel_count=self.pixel_count, volume=self.volume(),
                           boundary_length=self.boundary_length(),
                           corner_count=self.corner_count())

    def union(self, other: "RegionMask") -> "RegionMask":
        return RegionMask(self.grid, self.pixels | other.pixels)

    def intersects(self, other: "RegionMask") -> bool:
        return bool(np.any(self.pixels & other.pixels))

    def dilate(self, radius: int) -> "RegionMask":
        """Chebyshev dilation by `radius` pixels."""
        p = np.pad(self.pixels, radius, constant_values=False)
        out = np.zeros_like(self.pixels)
        for sx in range(-radius, radius + 1):
            for sy in range(-radius, radius + 1):
                out |= p[radius + sx:radius + sx + self.grid.nx,
                         radius + sy:radius + sy + self.grid.ny]
        return RegionMask(self.grid, out)

    def rle(self) -> str:
        """Run-length encoding of the C-order flattened mask: the leading
        bit, then run lengths, e.g. '0:5,15,380'."""
        flat = self.pixels.ravel()
        runs, current, count = [], bool(flat[0]), 0
        for v in flat:
            if bool(v) == current:
                count += 1
            else:
                runs.append(count)
                current, count = bool(v), 1
        runs.append(count)
        return f"{int(flat[0])}:" + ",".join(str(r) for r in runs)


@dataclass(frozen=True)
class SweepPair:
    a: RegionMask
    b: RegionMask
    label: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepPoint:
    abscissa: float
    mi: float
    stats: RegionStats      # statistics of subsystem A
    pair: SweepPair


@dataclass(frozen=True)
class SweepResult:
    """Evaluated sweep: `points` has strictly increasing abscissae
    (duplicate abscissae from congruent subsystem shapes are averaged);
    `raw_points` keeps every evaluated pair."""

    protocol: str
    points: list
    raw_points: list

    @property
    def abscissae(self) -> np.ndarray:
        return np.array([p.abscissa for p in self.points])

    @property
    def mi_values(self) -> np.ndarray:
        return np.array([p.mi for p in self.points])


def volume_sweep(grid: Grid, buffer: int = 1, include_cell_boundary: bool = True) -> list:
    """Vertical-divider bipartitions with constant A-B interface length.

    A is every column left of the divider, B every column at least
    `buffer` columns to its right.  With include_cell_boundary=False the
    outermost pixel ring is removed from both subsystems.
    """
    if buffer < 1:
        raise ValueError("buffer must be at least one pixel")
    margin = 0 if include_cell_boundary else 1
    x_lo, x_hi = margin, grid.nx - margin
    y_lo, y_hi = margin, grid.ny - margin
    if x_hi - x_lo < buffer + 2:
        raise ValueError(f"grid too small for buffer {buffer}")
    pairs = []
    for divider in range(x_lo + 1, x_hi - buffer):
        a = RegionMask.from_columns(grid, x_lo, divider, y_lo, y_hi)
        b = RegionMask.from_columns(grid, divider + buffer, x_hi, y_lo, y_hi)
        pairs.append(SweepPair(a=a, b=b, label={"divider_index": divider}))
    return pairs


def area_sweep(grid: Grid, fixed_volume: int, include_cell_boundary: bool = True,
               buffer: int = 1) -> list:
    """Centred rectangles of `fixed_volume` pixels and varying aspect ratio
    (so A always has exactly 4 corners), with B the complement of A and its
    buffer ring, ordered by increasing A perimeter.
    """
    if buffer < 1:
        raise ValueError("buffer must be at least one pixel")
    if fixed_volume < 1:
        raise ValueError("fixed_volume must be positive")
    margin = 0 if include_cell_boundary else 1
    box = RegionMask.from_columns(grid, margin, grid.nx - margin, margin, grid.ny - margin)
    shapes = [(w, fixed_volume // w) for w in range(1, fixed_volume + 1)
              if fixed_volume % w == 0]
    pairs = []
    for width, height in shapes:
        if width > grid.nx - 2 * margin or height > grid.ny - 2 * margin:
            continue
        ix0 = margin + (grid.nx - 2 * margin - width) // 2
        iy0 = margin + (grid.ny - 2 * margin - height) // 2
        a = RegionMask.from_rect(grid, ix0, iy0, width, height)
        b = RegionMask(grid, box.pixels & ~a.dilate(buffer).pixels)
        if b.pixel_count == 0:
            continue
        pairs.append(SweepPair(a=a, b=b, label={"width": width, "height": height}))
    if not pairs:
        raise ValueError(f"no rectangle of {fixed_volume} pixels fits the grid")
    pairs.sort(key=lambda p: (p.a.boundary_length(), p.label["width"]))
    return pairs


def evaluate_sweep(gamma, pairs: list, abscissa: str, protocol: str) -> SweepResult:
    """Compute MI for each (A, B) pair and assemble a SweepResult.

    abscissa is 'volume' (A volume in m^2) or 'perimeter' (A boundary
    length in m).
    """
    if abscissa == "volume":
        xs = [p.a.volume() for p in pairs]
    elif abscissa == "perimeter":
        xs = [p.a.boundary_length() for p in pairs]
    else:
        raise ValueError(f"unknown abscissa {abscissa!r}")
    mis = [gaussian.mutual_information(gamma, p.a, p.b) for p in pairs]
    raw = [SweepPoint(abscissa=x, mi=mi, stats=p.a.stats(), pair=p)
           for x, mi, p in zip(xs, mis, pairs)]

    grouped: dict = {}
    for point in raw:
        grouped.setdefault(point.abscissa, []).append(point)
    points = []
    for x in sorted(grouped):
        bucket = grouped[x]
        mean_mi = float(np.mean([p.mi for p in bucket]))
        points.append(SweepPoint(abscissa=x, mi=mean_mi, stats=bucket[0].stats,
                                 pair=bucket[0].pair))
    return SweepResult(protocol=protocol, points=points, raw_points=raw)


def run_volume_sweep(gamma, buffer: int = 1, include_cell_boundary: bool = True) -> SweepResult:
    grid = gamma.basis.grid
    pairs = volume_sweep(grid, buffer=buffer, include_cell_boundary=include_cell_boundary)
    tag = "full" if include_cell_boundary else "interior"
    return evaluate_sweep(gamma, pairs, abscissa="volume",
                          protocol=f"volume_sweep/{tag}/buffer={buffer}")


def run_area_sweep(gamma, fixed_volume: int, include_cell_boundary: bool = True,
                   buffer: int = 1) -> SweepResult:
    grid = gamma.basis.grid
    pairs = area_sweep(grid, fixed_volume, include_cell_boundary=include_cell_boundary,
                       buffer=buffer)
    tag = "full" if include_cell_boundary else "interior"
    return evaluate_sweep(gamma, pairs, abscissa="perimeter",
                          protocol=f"area_sweep/{tag}/volume={fixed_volume}")


def mi_map(gamma) -> np.ndarray:
    """Local-information map: for every interior pixel p, the MI between
    {p} and the rest of the interior.  The outer pixel ring is excluded
    from the analysis (it keeps subsystem boundary statistics constant)
    and reported as NaN.
    """
    grid = gamma.basis.grid
    if grid.nx < 3 or grid.ny < 3:
        raise ValueError("mi_map needs a grid of at least 3x3 pixels")
    interior = RegionMask.from_columns(grid, 1, grid.nx - 1, 1, grid.ny - 1)
    interior_idx = interior.indices()
    # the union A u B is the interior for every pixel, so its entropy is
    # computed once and shared
    s_union = gaussian.von_neumann_entropy(gaussian.restrict(gamma, interior_idx))

    def local_mi(pixel: int) -> float:
        rest = interior_idx[interior_idx != pixel]
        s_a = gaussian.von_neumann_entropy(gaussian.restrict(gamma, np.array([pixel])))
        s_b = gaussian.von_neumann_entropy(gaussian.restrict(gamma, rest))
        return max(s_a + s_b - s_union, 0.0)

    out = np.full((grid.nx, grid.ny), np.nan)
    out.ravel()[interior_idx] = [local_mi(p) for p in interior_idx]
    return out
