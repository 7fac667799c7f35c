"""Pixel subsystems, their geometric statistics, and the sweep protocols
used for the volume/area scans and local-information maps.

Perimeters and corners use 4-connectivity on the pixel lattice: the
boundary length of a mask is the total length of edges between a masked
pixel and an unmasked-or-exterior pixel, and corners are counted at lattice
vertices (a diagonal pixel contact contributes two corners).  Subsystem
pairs are always separated by a buffer of at least one pixel ring so that
A and B never touch.

Each sweep hands all its pairs to ``gaussian.mutual_information_batch``,
which reads a certified state's entropies as log-dets on the pixels the
pairs use, the box.  A set of at most half the box is factored from Q on
its own.  A larger one (A u B, an area-sweep B) is read through its
complement from Q's closed-form inverse G^T diag(1/a) G, lifted along the
flat null vector on a Neumann lattice; an interior box (the interior
sweeps) eliminates the outer pixel ring from that inverse once, into a thin
factor of ring rows by box columns, from which each complement takes its
own Schur complement.  A set of whole columns (every set of the full-height
volume sweep, an area sweep's B beside a full-height A) reads neither
block: its log-det splits into one problem per transverse mode on its
columns.  The map on the classical route takes no pairs: each pixel's value
is 1/2 ln(Q_pp (Q_I^-1)_pp) plus P's share, with diag Q_I^-1 read from the
same thin ring factor of its interior I (``gaussian.local_information``).
Every block of Q or of its inverse that these reads take is gathered from
the state's per-channel stacks, so no protocol builds an n_pixels^2 block.
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
        edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
        runs = np.diff(np.concatenate([[0], edges, [flat.size]]))
        return f"{int(flat[0])}:" + ",".join(map(str, runs.tolist()))


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
    route: gaussian.EntropyRoute

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
    if x_hi - x_lo < buffer + 2 or y_hi <= y_lo:
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


def evaluate_sweep(gamma, pairs: list, abscissae: list, protocol: str) -> SweepResult:
    """Compute MI for each (A, B) pair and assemble a SweepResult, with
    `abscissae[i]` the abscissa of pair i (A's volume in m^2 for a volume
    sweep, its boundary length in m for an area sweep)."""
    mis, route = gaussian.mutual_information_batch(gamma, [(p.a, p.b) for p in pairs])
    raw = [SweepPoint(abscissa=x, mi=mi, stats=p.a.stats(), pair=p)
           for x, mi, p in zip(abscissae, mis, pairs)]

    points = []
    for x in sorted({p.abscissa for p in raw}):
        bucket = [p for p in raw if p.abscissa == x]
        points.append(SweepPoint(abscissa=x, mi=float(np.mean([p.mi for p in bucket])),
                                 stats=bucket[0].stats, pair=bucket[0].pair))
    return SweepResult(protocol=protocol, points=points, raw_points=raw, route=route)


def run_volume_sweep(gamma, buffer: int = 1, include_cell_boundary: bool = True) -> SweepResult:
    pairs = volume_sweep(gamma.basis.grid, buffer=buffer,
                         include_cell_boundary=include_cell_boundary)
    tag = "full" if include_cell_boundary else "interior"
    return evaluate_sweep(gamma, pairs, [p.a.volume() for p in pairs],
                          protocol=f"volume_sweep/{tag}/buffer={buffer}")


def run_area_sweep(gamma, fixed_volume: int, include_cell_boundary: bool = True,
                   buffer: int = 1) -> SweepResult:
    pairs = area_sweep(gamma.basis.grid, fixed_volume,
                       include_cell_boundary=include_cell_boundary, buffer=buffer)
    tag = "full" if include_cell_boundary else "interior"
    return evaluate_sweep(gamma, pairs, [p.a.boundary_length() for p in pairs],
                          protocol=f"area_sweep/{tag}/volume={fixed_volume}")


def _interior(grid: Grid) -> np.ndarray:
    interior = RegionMask.from_columns(grid, 1, grid.nx - 1, 1, grid.ny - 1).indices()
    if interior.size < 2:
        raise ValueError(f"mi_map needs an interior of at least two pixels; "
                         f"the {grid.nx}x{grid.ny} grid has {interior.size}")
    return interior


def mi_map(gamma) -> np.ndarray:
    """Local-information map: for every interior pixel p, the MI between
    {p} and the rest of the interior.  The outer pixel ring is excluded
    from the analysis (it keeps subsystem boundary statistics constant)
    and reported as NaN.  On the classical route (``map_route``) the map is
    ``gaussian.local_information`` in closed form; any other state takes the
    per-pair ``gaussian.mutual_information_batch``, which stays its oracle.
    """
    grid = gamma.basis.grid
    interior = _interior(grid)
    out = np.full((grid.nx, grid.ny), np.nan)
    if map_route(gamma).name == "classical":
        out.ravel()[interior] = gaussian.local_information(gamma, interior)
    else:
        pairs = ((interior[i:i + 1], np.delete(interior, i)) for i in range(interior.size))
        out.ravel()[interior] = gaussian.mutual_information_batch(gamma, pairs)[0]
    return out


def map_route(gamma) -> gaussian.EntropyRoute:
    """The entropy route of ``mi_map``, whose sets run from one pixel to the interior."""
    return gaussian.entropy_route(gamma, 1, _interior(gamma.basis.grid).size)
