import numpy as np
import pytest

from thirdsound import FilmParams, derive_params
from thirdsound import gaussian as ga
from thirdsound import regions as rg
from thirdsound.geometry import BoundarySpec, Grid, build_basis
from thirdsound.physics import dispersion_thin_film
from thirdsound.regions import RegionMask

FILM = FilmParams(h0=80e-9, alpha_vdw=2.6e-24, temperature=0.3)
DERIVED = derive_params(FILM)


def brute_boundary_length(mask):
    """4-connectivity edge walk, one pixel at a time."""
    grid, pix = mask.grid, mask.pixels
    total = 0.0
    for ix in range(grid.nx):
        for iy in range(grid.ny):
            if not pix[ix, iy]:
                continue
            for dx, dy, length in ((1, 0, grid.dy), (-1, 0, grid.dy),
                                   (0, 1, grid.dx), (0, -1, grid.dx)):
                jx, jy = ix + dx, iy + dy
                outside = not (0 <= jx < grid.nx and 0 <= jy < grid.ny)
                if outside or not pix[jx, jy]:
                    total += length
    return total


def brute_corner_count(mask):
    """Vertex-by-vertex 2x2 neighbourhood classification."""
    grid, pix = mask.grid, mask.pixels

    def cell(ix, iy):
        return bool(pix[ix, iy]) if 0 <= ix < grid.nx and 0 <= iy < grid.ny else False

    corners = 0
    for vx in range(grid.nx + 1):
        for vy in range(grid.ny + 1):
            quad = [cell(vx - 1, vy - 1), cell(vx, vy - 1), cell(vx - 1, vy), cell(vx, vy)]
            count = sum(quad)
            if count in (1, 3):
                corners += 1
            elif count == 2 and quad[0] == quad[3]:
                corners += 2
    return corners


def thermal_state(grid, spec, temperature=0.3):
    basis = build_basis(grid, spec, lambda k: dispersion_thin_film(k, DERIVED, FILM.h0))
    return ga.to_real_space(ga.thermal_momentum_covariance(basis, temperature),
                            basis, DERIVED)


class TestRegionStats:
    def setup_method(self):
        # anisotropic pixels catch axis mix-ups: dx=0.1, dy=0.2
        self.grid = Grid(1.0, 2.0, 10, 10)

    def test_rectangle_hand_values(self):
        mask = RegionMask.from_rect(self.grid, 2, 3, 3, 4)  # 3 wide (x), 4 tall (y)
        assert mask.pixel_count == 12
        assert mask.volume() == pytest.approx(12 * 0.1 * 0.2)
        # perimeter: 2 vertical sides of 4 pixels (length dy each edge) and
        # 2 horizontal sides of 3 pixels (length dx each edge)
        assert mask.boundary_length() == pytest.approx(2 * 4 * 0.2 + 2 * 3 * 0.1)
        assert mask.corner_count() == 4

    def test_shapes(self):
        single = RegionMask.from_indices(self.grid, [33])
        assert single.corner_count() == 4
        l_shape = RegionMask(self.grid, RegionMask.from_rect(self.grid, 1, 1, 3, 1).pixels
                             | RegionMask.from_rect(self.grid, 1, 1, 1, 3).pixels)
        assert l_shape.corner_count() == 6
        diagonal = RegionMask.from_indices(self.grid, [0, 11])
        assert diagonal.corner_count() == 8
        assert diagonal.boundary_length() == pytest.approx(2 * (2 * 0.2 + 2 * 0.1))

    def test_against_brute_force_enumeration(self):
        rng = np.random.default_rng(42)
        grid = Grid(0.8, 0.6, 8, 6)
        for _ in range(300):
            pix = rng.random((8, 6)) < rng.uniform(0.2, 0.8)
            mask = RegionMask(grid, pix)
            assert mask.boundary_length() == pytest.approx(brute_boundary_length(mask))
            assert mask.corner_count() == brute_corner_count(mask)

    def test_rle_hand_values(self):
        # C order over (nx, ny) = (10, 10): pixel (ix, iy) is flat index 10 ix + iy
        assert RegionMask.full(self.grid).rle() == "1:100"
        assert RegionMask.from_columns(self.grid, 0, 2).rle() == "1:20,80"
        assert RegionMask.from_rect(self.grid, 1, 2, 1, 3).rle() == "0:12,3,85"
        assert RegionMask.from_indices(self.grid, [0, 99]).rle() == "1:1,98,1"


class TestVolumeSweep:
    def test_paper_grid_point_count_and_interface(self):
        grid = Grid(5e-3, 5e-3, 20, 20)
        pairs = rg.volume_sweep(grid, buffer=1, include_cell_boundary=True)
        assert len(pairs) == 18
        for pair in pairs:
            cols_a = np.any(pair.a.pixels, axis=1)
            # A spans full-height columns, so the A-B interface is one cell side
            assert np.all(pair.a.pixels[cols_a, :])
            assert not pair.a.intersects(pair.b)
            union = pair.a.union(pair.b)
            assert union.pixel_count == pair.a.pixel_count + pair.b.pixel_count
            # exactly `buffer` empty columns between A and B
            gap = np.flatnonzero(np.any(pair.b.pixels, axis=1))[0] - np.flatnonzero(cols_a)[-1] - 1
            assert gap == 1

    def test_midpoint_symmetric(self):
        grid = Grid(5e-3, 5e-3, 21, 21)
        pairs = rg.volume_sweep(grid, buffer=1)
        mid = pairs[len(pairs) // 2]
        assert mid.a.pixel_count == mid.b.pixel_count

    def test_small_grid_hand_enumeration(self):
        grid = Grid(6e-3, 6e-3, 6, 6)
        pairs = rg.volume_sweep(grid, buffer=1, include_cell_boundary=False)
        assert len(pairs) == 2
        expected_a0 = np.zeros((6, 6), dtype=bool)
        expected_a0[1, 1:5] = True
        expected_b0 = np.zeros((6, 6), dtype=bool)
        expected_b0[3:5, 1:5] = True
        assert np.array_equal(pairs[0].a.pixels, expected_a0)
        assert np.array_equal(pairs[0].b.pixels, expected_b0)
        expected_a1 = np.zeros((6, 6), dtype=bool)
        expected_a1[1:3, 1:5] = True
        expected_b1 = np.zeros((6, 6), dtype=bool)
        expected_b1[4, 1:5] = True
        assert np.array_equal(pairs[1].a.pixels, expected_a1)
        assert np.array_equal(pairs[1].b.pixels, expected_b1)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            rg.volume_sweep(Grid(1e-3, 1e-3, 3, 3), buffer=2)


class TestAreaSweep:
    def test_rectangle_family_36_pixels(self):
        grid = Grid(5e-3, 5e-3, 20, 20)
        pairs = rg.area_sweep(grid, 36)
        shapes = {(p.label["width"], p.label["height"]) for p in pairs}
        assert shapes == {(2, 18), (3, 12), (4, 9), (6, 6), (9, 4), (12, 3), (18, 2)}
        for pair in pairs:
            assert pair.a.pixel_count == 36
            assert pair.a.corner_count() == 4
            assert not pair.a.dilate(1).intersects(pair.b)
        perims = [p.a.boundary_length() for p in pairs]
        assert perims == sorted(perims)

    def test_square_has_minimal_perimeter(self):
        grid = Grid(5e-3, 5e-3, 20, 20)
        pairs = rg.area_sweep(grid, 36)
        assert pairs[0].label == {"width": 6, "height": 6}

    def test_16_pixel_family_hand_perimeters(self):
        grid = Grid(6e-3, 6e-3, 12, 12)
        pairs = rg.area_sweep(grid, 16)
        dx = 0.5e-3
        expected = {(2, 8): 20 * dx, (4, 4): 16 * dx, (8, 2): 20 * dx}
        got = {(p.label["width"], p.label["height"]): p.a.boundary_length() for p in pairs}
        assert got == pytest.approx(expected)

    def test_no_factorization_fits(self):
        with pytest.raises(ValueError):
            rg.area_sweep(Grid(1e-3, 1e-3, 4, 4), 25)


class TestEvaluateSweep:
    def test_volume_sweep_monotone_abscissa_and_masks_recorded(self):
        grid = Grid(5e-3, 5e-3, 8, 8)
        gamma = thermal_state(grid, BoundarySpec.dirichlet())
        sweep = rg.run_volume_sweep(gamma)
        xs = sweep.abscissae
        assert np.all(np.diff(xs) > 0)
        assert len(sweep.points) == 6
        for point in sweep.points:
            assert point.pair.a.pixel_count == point.stats.pixel_count
            assert point.mi >= 0.0

    def test_area_sweep_duplicate_perimeters_averaged(self):
        grid = Grid(5e-3, 5e-3, 12, 12)
        gamma = thermal_state(grid, BoundarySpec.dirichlet())
        sweep = rg.run_area_sweep(gamma, 16)
        assert len(sweep.raw_points) == 3     # 2x8, 4x4, 8x2
        assert len(sweep.points) == 2         # congruent shapes merged
        assert np.all(np.diff(sweep.abscissae) > 0)
        dup = [p.mi for p in sweep.raw_points if p.stats.boundary_length !=
               min(q.stats.boundary_length for q in sweep.raw_points)]
        assert sweep.points[-1].mi == pytest.approx(np.mean(dup))


class TestMiMap:
    def test_ring_nan_and_symmetry(self):
        grid = Grid(5e-3, 5e-3, 6, 6)
        gamma = thermal_state(grid, BoundarySpec.dirichlet())
        field = rg.mi_map(gamma)
        assert np.all(np.isnan(field[0, :])) and np.all(np.isnan(field[-1, :]))
        assert np.all(np.isnan(field[:, 0])) and np.all(np.isnan(field[:, -1]))
        interior = field[1:-1, 1:-1]
        assert np.all(np.isfinite(interior))
        # reflection symmetries of the square cell
        assert np.allclose(interior, interior[::-1, :], atol=1e-8)
        assert np.allclose(interior, interior[:, ::-1], atol=1e-8)
        assert np.allclose(interior, interior.T, atol=1e-8)

    def test_small_grid_rejected(self):
        grid = Grid(1e-3, 1e-3, 2, 2)
        gamma = thermal_state(grid, BoundarySpec.dirichlet())
        with pytest.raises(ValueError):
            rg.mi_map(gamma)
