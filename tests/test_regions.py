import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from thirdsound import FilmParams, derive_params
from thirdsound import gaussian as ga
from thirdsound import regions as rg
from thirdsound.geometry import BoundarySpec, Grid, ModeBasis, build_basis
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
        single = RegionMask.from_rect(self.grid, 3, 3, 1, 1)
        assert single.corner_count() == 4
        l_shape = RegionMask(self.grid, RegionMask.from_rect(self.grid, 1, 1, 3, 1).pixels
                             | RegionMask.from_rect(self.grid, 1, 1, 1, 3).pixels)
        assert l_shape.corner_count() == 6
        pixels = np.zeros((10, 10), dtype=bool)
        pixels[0, 0] = pixels[1, 1] = True
        diagonal = RegionMask(self.grid, pixels)
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
        corners = np.zeros((10, 10), dtype=bool)
        corners[0, 0] = corners[9, 9] = True
        assert RegionMask(self.grid, corners).rle() == "1:1,98,1"

    def test_rle_matches_pixel_walk(self):
        def walked(mask):
            flat = mask.pixels.ravel()
            runs, current, count = [], bool(flat[0]), 0
            for v in flat:
                if bool(v) == current:
                    count += 1
                else:
                    runs.append(count)
                    current, count = bool(v), 1
            return f"{int(flat[0])}:" + ",".join(str(r) for r in runs + [count])

        rng = np.random.default_rng(8)
        for nx, ny in [(1, 1), (1, 5), (7, 3), (8, 6)]:
            for _ in range(50):
                mask = RegionMask(Grid(1.0, 1.0, nx, ny), rng.random((nx, ny)) < rng.random())
                assert mask.rle() == walked(mask)


class TestVolumeSweep:
    def test_paper_grid_point_count_and_interface(self):
        grid = Grid(5e-3, 5e-3, 20, 20)
        pairs = rg.volume_sweep(grid, buffer=1, include_cell_boundary=True)
        assert len(pairs) == 18
        for pair in pairs:
            cols_a = np.any(pair.a.pixels, axis=1)
            # A spans full-height columns, so the A-B interface is one cell side
            assert np.all(pair.a.pixels[cols_a, :])
            assert not np.any(pair.a.pixels & pair.b.pixels)
            union = pair.a.pixels | pair.b.pixels
            assert np.count_nonzero(union) == pair.a.pixel_count + pair.b.pixel_count
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

    @pytest.mark.parametrize("ny", [1, 2])
    def test_interior_sweep_without_rows_rejected(self, ny):
        # the interior drops the first and last row, which leaves none
        grid = Grid(5e-3, 5e-3, 8, ny)
        assert all(p.a.pixel_count and p.b.pixel_count for p in rg.volume_sweep(grid))
        with pytest.raises(ValueError, match="grid too small"):
            rg.volume_sweep(grid, include_cell_boundary=False)

    def test_interior_sweep_on_three_rows_keeps_one(self):
        pairs = rg.volume_sweep(Grid(5e-3, 5e-3, 8, 3), include_cell_boundary=False)
        assert len(pairs) == 4
        assert all(np.array_equal(np.flatnonzero(np.any(m.pixels, axis=0)), [1])
                   for p in pairs for m in (p.a, p.b))


class TestAreaSweep:
    def test_rectangle_family_36_pixels(self):
        grid = Grid(5e-3, 5e-3, 20, 20)
        pairs = rg.area_sweep(grid, 36)
        shapes = {(p.label["width"], p.label["height"]) for p in pairs}
        assert shapes == {(2, 18), (3, 12), (4, 9), (6, 6), (9, 4), (12, 3), (18, 2)}
        for pair in pairs:
            assert pair.a.pixel_count == 36
            assert pair.a.corner_count() == 4
            assert not np.any(pair.a.dilate(1).pixels & pair.b.pixels)
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
        # 2x2 has no interior; 3x3 has one pixel, with nothing to pair it with
        for n, interior in ((2, 0), (3, 1)):
            gamma = thermal_state(Grid(1e-3, 1e-3, n, n), BoundarySpec.dirichlet())
            with pytest.raises(ValueError, match=f"^mi_map needs an interior of at least two "
                                                 f"pixels; the {n}x{n} grid has {interior}$"):
                rg.mi_map(gamma)


def exact_mi(gamma, a, b):
    """Test-local oracle: per-pair MI from exact symplectic spectra."""
    def entropy(idx):
        spectrum = ga.symplectic_spectrum(ga.restrict(gamma, idx))
        return math.fsum(ga._entropy_terms(spectrum.values))

    a = a.indices() if hasattr(a, "indices") else np.asarray(a)
    b = b.indices() if hasattr(b, "indices") else np.asarray(b)
    return max(entropy(a) + entropy(b) - entropy(np.union1d(a, b)), 0.0)


def squeezed_real_state(grid, seed=4):
    """A thermal state after a random mode-space symplectic map: R != 0."""
    basis = build_basis(grid, BoundarySpec.dirichlet(),
                        lambda k: dispersion_thin_film(k, DERIVED, FILM.h0))
    gm = ga.thermal_momentum_covariance(basis, 0.3)
    n = gm.n
    h = np.random.default_rng(seed).normal(scale=0.3, size=(2 * n, 2 * n))
    omega = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    s = scipy.linalg.expm(omega @ (h + h.T) / 2)
    gm = ga.CovarianceMatrix(s @ gm.data @ s.T, ga.MOMENTUM, basis=basis)
    return ga.to_real_space(gm, basis, DERIVED)


SPECS = [BoundarySpec.dirichlet(), BoundarySpec.neumann(), BoundarySpec.robin(200.0)]


@pytest.fixture
def spectra(monkeypatch):
    """Sizes of the states symplectic_spectrum is called on."""
    calls = []
    spectrum = ga.symplectic_spectrum
    monkeypatch.setattr(ga, "symplectic_spectrum", lambda g: calls.append(g.n) or spectrum(g))
    return calls


def _refused(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return refuse


class TestEntropyRoutes:
    """Every protocol agrees with exact per-pair MI, and takes the classical
    route exactly where the certificate covers its largest set."""

    @pytest.mark.parametrize("shape", [(8, 8), (10, 7)], ids=["8x8", "10x7"])
    @pytest.mark.parametrize("buffer", [1, 2])
    @pytest.mark.parametrize("include", [True, False], ids=["full", "interior"])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_sweeps_match_exact_mi(self, spec, include, buffer, shape, spectra):
        gamma = thermal_state(Grid(5e-3, 3.7e-3, *shape), spec)
        sweeps = [rg.run_volume_sweep(gamma, buffer=buffer, include_cell_boundary=include),
                  rg.run_area_sweep(gamma, 4, include_cell_boundary=include, buffer=buffer)]
        assert spectra == []
        for sweep in sweeps:
            assert sweep.route.name == "classical"
            assert sweep.route.error_bound <= ga.CLASSICAL_TOL
            for point in sweep.raw_points:
                assert point.mi == pytest.approx(exact_mi(gamma, point.pair.a, point.pair.b),
                                                 abs=1e-10)

    @pytest.mark.parametrize("shape", [(8, 8), (10, 7)], ids=["8x8", "10x7"])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_map_matches_exact_mi(self, spec, shape, spectra):
        gamma = thermal_state(Grid(5e-3, 3.7e-3, *shape), spec)
        field = rg.mi_map(gamma)
        assert spectra == [] and rg.map_route(gamma).name == "classical"
        interior = rg._interior(gamma.basis.grid)
        for p in interior:
            want = exact_mi(gamma, [p], interior[interior != p])
            assert field.ravel()[p] == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("shape", [(20, 20), (17, 9)], ids=["20x20", "17x9"])
    def test_whole_neumann_lattice_reads_large_sets_through_complements(
            self, shape, spectra, monkeypatch):
        # the area sweep's box is the whole lattice, whose Q is singular: its
        # log-det is the closed form, with no factor of the box, and every set
        # larger than half the box is read through its complement C, from one
        # factor of (X + u u^T / c)_CC bordered by u_C; the volume sweep's
        # whole columns read neither Q nor X; nothing is inverted or solved
        gamma = thermal_state(Grid(5e-3, 3.7e-3, *shape), BoundarySpec.neumann())
        factored = []
        cholesky = ga._cholesky
        monkeypatch.setattr(ga, "_cholesky", lambda m: factored.append(m) or cholesky(m))
        for name in ("inv", "solve"):
            monkeypatch.setattr(np.linalg, name, _refused(f"np.linalg.{name}"))
        volume = rg.run_volume_sweep(gamma)
        assert gamma._q is None and gamma._x is None
        assert gamma._gathered == {ga.Q: 0, ga.P: 0, ga.X: 0}
        factored.clear()
        area = rg.run_area_sweep(gamma, 36)
        n = gamma.n
        assert volume.route.name == area.route.name == "classical"
        assert spectra == [] and max(m.shape[0] for m in factored) <= (n + 1) // 2
        bordered = [m for m in factored if np.all(m[-1, :-1] == 1 / math.sqrt(n))]
        assert len(bordered) >= len(area.raw_points)
        for sweep in (volume, area):
            for point in sweep.raw_points:
                assert point.mi == pytest.approx(exact_mi(gamma, point.pair.a, point.pair.b),
                                                 abs=1e-10)

    @pytest.mark.parametrize("state", ["zero-temperature", "public-constructor", "squeezed"])
    def test_uncertified_states_take_exact_route(self, state, spectra):
        grid = Grid(5e-3, 5e-3, 6, 6)
        if state == "squeezed":
            gamma = squeezed_real_state(grid)
            assert gamma._r is not None
        else:
            gamma = thermal_state(grid, BoundarySpec.dirichlet(),
                                  0.0 if state == "zero-temperature" else 0.3)
            if state == "public-constructor":
                gamma = ga.CovarianceMatrix(gamma.data, ga.REAL, basis=gamma.basis)
        volume = rg.run_volume_sweep(gamma)
        area = rg.run_area_sweep(gamma, 4)
        field = rg.mi_map(gamma)
        assert spectra and rg.map_route(gamma).name == "exact"
        for sweep in (volume, area):
            assert sweep.route.name == "exact"
            for point in sweep.raw_points:
                assert point.mi == pytest.approx(exact_mi(gamma, point.pair.a, point.pair.b),
                                                 abs=1e-10)
        interior = rg._interior(grid)
        assert field.ravel()[interior[0]] == pytest.approx(
            exact_mi(gamma, interior[:1], interior[1:]), abs=1e-10)

    def test_mixed_route_named(self, spectra):
        # nu_floor ~ 6e4 (nu ~ kT / hbar omega) certifies one pixel but not the
        # 16-pixel interior, so each set of the map takes its own route
        grid = Grid(5e-3, 5e-3, 6, 6)
        floor = thermal_state(grid, BoundarySpec.dirichlet()).nu_floor
        gamma = thermal_state(grid, BoundarySpec.dirichlet(), 0.3 * 6e4 / floor)
        assert ga.entropy_error_bound(gamma, 1) <= ga.CLASSICAL_TOL < ga.entropy_error_bound(
            gamma, 16)
        route = rg.map_route(gamma)
        assert route.name == "mixed" and route.error_bound == ga.entropy_error_bound(gamma, 16)
        field = rg.mi_map(gamma)
        assert spectra and 1 not in spectra
        interior = rg._interior(grid)
        for p in interior:
            assert field.ravel()[p] == pytest.approx(
                exact_mi(gamma, [p], interior[interior != p]), abs=1e-10)

    def test_map_48x48_certified(self, spectra):
        # one factorisation of the 2,116-pixel interior, where the exact
        # route would solve 2,116 Williamson problems of 2,115 pixels
        grid = Grid(5e-3, 5e-3, 48, 48)
        gamma = thermal_state(grid, BoundarySpec.dirichlet())
        field = rg.mi_map(gamma)
        assert spectra == []
        interior = field[1:-1, 1:-1]
        assert np.all(interior > 0.1) and np.all(np.isfinite(interior))
        assert np.allclose(interior, interior[::-1, ::-1], atol=1e-10)
        assert np.allclose(interior, interior.T, atol=1e-10)


class TestComplementRoute:
    """With np.linalg.inv refused, every classical protocol matches exact MI.
    The area sweeps and the interior volume sweep read their large sets from
    the closed-form inverse of Q: on the whole lattice the complements are
    gathered from its channel stack before that inverse is built, and the
    interior boxes eliminate a ring.  The map reads each value in closed form
    from the ring's factor.  The full-height volume sweep reads its whole
    columns from the column channels."""

    @pytest.mark.parametrize("shape", [(20, 20), (17, 9)], ids=["20x20", "17x9"])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_protocols_match_exact_mi(self, spec, shape, spectra, monkeypatch):
        monkeypatch.setattr(np.linalg, "inv", _refused("np.linalg.inv"))
        gamma = thermal_state(Grid(5e-3, 3.7e-3, *shape), spec)
        sweeps = [sweep(gamma, *args, include_cell_boundary=include)
                  for sweep, args in ((rg.run_volume_sweep, ()), (rg.run_area_sweep, (12,)))
                  for include in (True, False)]
        field = rg.mi_map(gamma).ravel()
        assert spectra == [] and rg.map_route(gamma).name == "classical"
        for sweep in sweeps:
            assert sweep.route.name == "classical"
            for point in sweep.raw_points:
                assert point.mi == pytest.approx(exact_mi(gamma, point.pair.a, point.pair.b),
                                                 abs=1e-10)
        # the map: exact spectra on the 17 x 9 interior and on the 20 x 20
        # interior's diagonal (each takes a Williamson problem of the interior
        # less one pixel), and every value against log-dets of Q on each set
        interior = rg._interior(gamma.basis.grid)
        nx, ny = shape
        checked = interior if nx * ny < 200 else interior[::ny - 1]
        whole = _exact_entropy(gamma, interior)
        for p in checked:
            rest = interior[interior != p]
            want = _exact_entropy(gamma, [p]) + _exact_entropy(gamma, rest) - whole
            assert field[p] == pytest.approx(want, abs=1e-10)
        q = gamma.q_block
        log_det = lambda idx: np.linalg.slogdet(q[np.ix_(idx, idx)])[1]   # noqa: E731
        share = (gamma.basis.n_modes < q.shape[0]) / q.shape[0]   # P's, on Neumann
        whole = 0.5 * (log_det(interior) + math.log1p(-interior.size * share))
        for p in interior:
            rest = interior[interior != p]
            want = 0.5 * (log_det([p]) + math.log1p(-share) + log_det(rest)
                          + math.log1p(-rest.size * share)) - whole
            assert field[p] == pytest.approx(want, abs=1e-10)


class TestColumnChannels:
    """On a certified state stored by its mode weights, each set that is a
    union of whole pixel columns reads its log-det from the column channels;
    a batch of such sets alone never reads a pixel-space block."""

    @pytest.mark.parametrize("shape", [(20, 20), (17, 9)], ids=["20x20", "17x9"])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_full_volume_sweep_builds_and_gathers_nothing(self, spec, shape, monkeypatch):
        gamma = thermal_state(Grid(5e-3, 3.7e-3, *shape), spec)
        built = []
        to_pixels = ModeBasis.to_pixels
        monkeypatch.setattr(ModeBasis, "to_pixels",
                            lambda basis, w: built.append(w) or to_pixels(basis, w))
        for name in ("_on", "_stored"):
            monkeypatch.setattr(ga.CovarianceMatrix, name, _refused(f"CovarianceMatrix.{name}"))
        for buffer in (1, 2):
            assert rg.run_volume_sweep(gamma, buffer=buffer).route.name == "classical"
        assert built == [] and gamma._gathered == {ga.Q: 0, ga.P: 0, ga.X: 0}
        assert gamma._q is None and gamma._p is None and gamma._x is None

    def test_whole_columns_hand_values(self):
        ny = 3
        for idx, whole in (([0, 1, 2], True), ([3, 4, 5, 9, 10, 11], True), ([0, 1], False),
                           ([1, 2, 3], False), ([0, 1, 2, 3, 4, 6], False)):
            assert ga._whole_columns(np.array(idx), ny) is whole

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_one_set_off_the_columns_keeps_log_dets(self, spec, monkeypatch):
        # the last pair's A u B is whole columns, but its A and B end
        # mid-column: in one batch, each whole-column set takes a channel
        # stack and each of those two a factor of Q_S
        grid, ny = Grid(5e-3, 3.7e-3, 12, 7), 7
        n = grid.n_pixels
        columns = [(np.arange(k * ny), np.arange((k + 1) * ny, n)) for k in range(1, 11)]
        pairs = columns + [(np.arange(3 * ny + 4), np.arange(3 * ny + 4, 6 * ny))]
        dense = thermal_state(grid, spec)
        q, share = dense.q_block, (dense.basis.n_modes < n) / n   # P's share, on Neumann
        half_log_det = lambda idx: 0.5 * (np.linalg.slogdet(q[np.ix_(idx, idx)])[1]   # noqa: E731
                                          + math.log1p(-idx.size * share))
        want = [half_log_det(a) + half_log_det(b) - half_log_det(np.union1d(a, b))
                for a, b in pairs]
        strips = ga.mutual_information_batch(thermal_state(grid, spec), columns)
        factored = []
        cholesky = ga._cholesky
        monkeypatch.setattr(ga, "_cholesky", lambda m: factored.append(m.ndim) or cholesky(m))
        mis, route = ga.mutual_information_batch(thermal_state(grid, spec), pairs)
        assert factored == [3, 3, 3] * len(columns) + [2, 2, 3]
        assert route.name == strips[1].name == "classical"
        assert np.max(np.abs(mis - np.maximum(want, 0.0))) <= 1e-12
        assert np.max(np.abs(strips[0] - mis[:-1])) <= 1e-10

    @pytest.mark.parametrize("protocol", ["interior-volume", "full-area", "interior-area", "map"])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_other_protocols_keep_log_dets(self, spec, protocol, monkeypatch):
        gamma = thermal_state(Grid(5e-3, 3.7e-3, 12, 7), spec)
        readers, factored = [], []
        logdets, cholesky = ga._LogDets, ga._cholesky
        monkeypatch.setattr(ga, "_LogDets",
                            lambda g, box: readers.append(logdets(g, box)) or readers[-1])
        monkeypatch.setattr(ga, "_cholesky", lambda m: factored.append(m.ndim) or cholesky(m))
        if protocol == "map":
            rg.mi_map(gamma)
        else:
            include = protocol.startswith("full")
            sweep = (rg.run_volume_sweep(gamma, include_cell_boundary=include)
                     if protocol.endswith("volume") else
                     rg.run_area_sweep(gamma, 4, include_cell_boundary=include))
            assert sweep.route.name == "classical"
        # no set is read from the column channels, which take a stack of factors
        assert len(readers) == 1 and 3 not in factored and gamma._x is None

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_area_sweep_reads_a_whole_column_b_from_channels(self, spec, monkeypatch):
        # at 20 x 20 the 2 x 18 rectangle's buffer spans every row, so its B is
        # columns 0-7 and 12-19, one (20, 16, 16) stack; every other set is not
        gamma = thermal_state(Grid(5e-3, 3.7e-3, 20, 20), spec)
        factored = []
        cholesky = ga._cholesky
        monkeypatch.setattr(ga, "_cholesky", lambda m: factored.append(m.shape) or cholesky(m))
        sweep = rg.run_area_sweep(gamma, 36)
        assert sweep.route.name == "classical"
        assert [s for s in factored if len(s) == 3] == [(20, 16, 16)]
        assert any(p.pair.label == {"width": 2, "height": 18} for p in sweep.raw_points)
        for point in sweep.raw_points:
            assert point.mi == pytest.approx(exact_mi(gamma, point.pair.a, point.pair.b),
                                             abs=1e-10)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_two_columns_gather_nothing(self, spec):
        # a box of at most half the lattice reads its Q on its first set that
        # is not whole columns, so columns 0 and 2 read no pixel-space block
        gamma = thermal_state(Grid(5e-3, 3.7e-3, 20, 20), spec)
        a, b = np.arange(20), np.arange(40, 60)
        got = ga.mutual_information(gamma, a, b)
        assert gamma._gathered == {ga.Q: 0, ga.P: 0, ga.X: 0}
        assert gamma._q is None and gamma._x is None
        assert got == pytest.approx(exact_mi(gamma, a, b), abs=1e-10)

    @pytest.mark.parametrize("spec", SPECS[:2], ids=lambda s: s.kind.value)
    def test_48x48_volume_sweep_holds_no_block(self, spec):
        gamma = thermal_state(Grid(5e-3, 5e-3, 48, 48), spec)
        tracemalloc.start()
        try:
            sweep = rg.run_volume_sweep(gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sweep.route.name == "classical" and len(sweep.raw_points) == 46
        assert peak < gamma.n ** 2 * 8 / 8, peak   # an eighth of one n_pixels^2 block


class TestLocalInformation:
    """On the classical route the map is in closed form, 1/2 ln(Q_pp (Q_I^-1)_pp)
    plus P's share, from one thin factor of the ring outside the interior I:
    it takes no per-pair pass and builds neither Q nor X."""

    @pytest.mark.parametrize("shape", [(16, 16), (20, 20), (17, 9)], ids=["16x16", "20x20", "17x9"])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_map_matches_per_pair_batch(self, spec, shape, monkeypatch):
        grid = Grid(5e-3, 3.7e-3, *shape)
        interior = rg._interior(grid)
        pairs = [(interior[i:i + 1], np.delete(interior, i)) for i in range(interior.size)]
        want, route = ga.mutual_information_batch(thermal_state(grid, spec), pairs)
        monkeypatch.setattr(ga, "mutual_information_batch",
                            _refused("gaussian.mutual_information_batch"))
        field = rg.mi_map(thermal_state(grid, spec))
        assert route.name == "classical" and np.all(want > 0)
        assert np.max(np.abs(field.ravel()[interior] - want)) <= 1e-12

    @pytest.mark.parametrize("spec", SPECS[:2], ids=lambda s: s.kind.value)
    def test_48x48_map_holds_no_block(self, spec, monkeypatch):
        gamma = thermal_state(Grid(5e-3, 5e-3, 48, 48), spec)
        monkeypatch.setattr(ModeBasis, "to_pixels", _refused("ModeBasis.to_pixels"))
        monkeypatch.setattr(np.linalg, "inv", _refused("np.linalg.inv"))
        tracemalloc.start()
        try:
            field = rg.mi_map(gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gamma._q is None and gamma._x is None
        assert peak < gamma.n ** 2 * 8 / 2, peak   # half of one n_pixels^2 block
        assert np.all(field[1:-1, 1:-1] > 0.1)

    @pytest.mark.parametrize("protocol", ["full-volume", "interior-volume", "full-area",
                                          "interior-area", "map"])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_only_whole_lattice_batches_build_x(self, spec, protocol):
        # X is built only by CovarianceMatrix._on, for a batch whose pairs use
        # every pixel once its complements' gathers would cost more than
        # building X: of the 20 x 20 protocols only the full area sweep gathers
        # X, 2,800,000 multiply-adds against 20^3 20^2 = 3,200,000 for the
        # build, so none builds it.  An interior box reads X's ring rows and
        # its complements' blocks from X's channel stack, and the map reads
        # diagonals besides
        gamma = thermal_state(Grid(5e-3, 3.7e-3, 20, 20), spec)
        if protocol == "map":
            rg.mi_map(gamma)
        else:
            include = protocol.startswith("full")
            sweep = (rg.run_volume_sweep(gamma, include_cell_boundary=include)
                     if protocol.endswith("volume") else
                     rg.run_area_sweep(gamma, 36, include_cell_boundary=include))
            assert sweep.route.name == "classical"
        assert gamma._x is None

    def test_uncertified_state_rejected(self):
        gamma = thermal_state(Grid(5e-3, 5e-3, 6, 6), BoundarySpec.dirichlet(), 0.0)
        with pytest.raises(ValueError, match="needs a certified state"):
            ga.local_information(gamma, rg._interior(gamma.basis.grid))


def _exact_entropy(gamma, idx):
    return math.fsum(ga._entropy_terms(ga.symplectic_spectrum(ga.restrict(gamma, idx)).values))
