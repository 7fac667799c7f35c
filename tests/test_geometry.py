import math

import numpy as np
import pytest
import scipy.fft

from thirdsound import geometry
from thirdsound.errors import NumericalError, UnstableRobinError
from thirdsound.geometry import (BoundarySpec, Grid, build_basis,
                                 cosine_basis_1d, robin_basis_1d,
                                 sine_basis_1d, solve_wavenumbers_1d)

L = 5e-3


def robin_bracket(alpha, length, branch):
    """Padded bracket of one Robin branch, computed one scalar at a time."""
    lo = (branch - 1) * math.pi / length
    hi = branch * math.pi / length
    pad = (hi - lo) * 1e-13
    lo = lo + pad if branch > 1 else min(pad, 0.25 * math.sqrt(2.0 * alpha / length))
    return lo, hi - pad


def scalar_robin_root(alpha, length, branch):
    """Reference: bisect one branch's root with scalar arithmetic."""
    lo, hi = robin_bracket(alpha, length, branch)
    flo = geometry._robin_eq(lo, alpha, length)
    fhi = geometry._robin_eq(hi, alpha, length)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NumericalError(
            f"Robin bracket {branch} has no sign change (alpha*L={alpha * length:g})")
    for _ in range(geometry._ROBIN_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        fmid = geometry._robin_eq(mid, alpha, length)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    raise NumericalError("Robin bisection did not converge")


def linear_dispersion(k):
    return 0.1234 * np.asarray(k, dtype=float)


class TestWavenumbers1D:
    def test_dirichlet_values(self):
        ks = solve_wavenumbers_1d(BoundarySpec.dirichlet(), L, 3)
        assert np.allclose(ks, [628.3185, 1256.637, 1884.956], rtol=1e-6)

    def test_neumann_includes_zero(self):
        ks = solve_wavenumbers_1d(BoundarySpec.neumann(), L, 3)
        assert ks[0] == 0.0
        assert np.allclose(ks[1:], [628.3185, 1256.637], rtol=1e-6)

    def test_robin_neumann_limit(self):
        ks = solve_wavenumbers_1d(BoundarySpec.robin(1e-6 / L), L, 6)
        neumann = solve_wavenumbers_1d(BoundarySpec.neumann(), L, 6)
        # branch 1 descends into the Neumann zero mode; compare the rest
        assert np.allclose(ks[1:], neumann[1:], rtol=1e-5)

    def test_robin_dirichlet_limit(self):
        ks = solve_wavenumbers_1d(BoundarySpec.robin(1e6 / L), L, 6)
        dirichlet = solve_wavenumbers_1d(BoundarySpec.dirichlet(), L, 6)
        assert np.allclose(ks, dirichlet, rtol=1e-5)

    def test_robin_root_satisfies_transcendental(self):
        alpha = 200.0   # alpha L = 1
        ks = solve_wavenumbers_1d(BoundarySpec.robin(alpha), L, 1)
        k = ks[0]
        assert 0.0 < k < math.pi / L
        residual = (k * k - alpha * alpha) * math.sin(k * L) - 2 * alpha * k * math.cos(k * L)
        scale = abs(k * k - alpha * alpha) + 2 * alpha * k
        assert abs(residual) / scale < 1e-10

    def test_robin_root_against_dense_scan(self):
        # oracle: densely scan the pole-free residual over the first branch
        alpha = 200.0
        grid = np.linspace(1e-4 * math.pi / L, math.pi / L * (1 - 1e-9), 1_000_000)
        res = (grid ** 2 - alpha ** 2) * np.sin(grid * L) - 2 * alpha * grid * np.cos(grid * L)
        k_scan = grid[np.argmin(np.abs(res))]
        k = solve_wavenumbers_1d(BoundarySpec.robin(alpha), L, 1)[0]
        assert abs(k - k_scan) < 2 * (grid[1] - grid[0])

    def test_robin_monotone_in_alpha(self):
        alphas = np.array([1e-6, 0.1, 1.0, 10.0, 1e6]) / L
        branches = np.array([solve_wavenumbers_1d(BoundarySpec.robin(a), L, 5)
                             for a in alphas])
        assert np.all(np.diff(branches, axis=0) > 0)
        # each branch stays inside ((m-1) pi/L, m pi/L)
        m = np.arange(1, 6)
        assert np.all(branches > (m - 1) * math.pi / L)
        assert np.all(branches < m * math.pi / L)

    @pytest.mark.parametrize("length", [1e-3, 3.7e-3, 5e-3])
    @pytest.mark.parametrize("count", [3, 10, 48])
    def test_robin_roots_bit_identical_to_scalar_bisection(self, length, count):
        for alpha in np.logspace(-3, 8, 12):
            ks = solve_wavenumbers_1d(BoundarySpec.robin(alpha), length, count)
            ref = [scalar_robin_root(alpha, length, m) for m in range(1, count + 1)]
            assert ks.tolist() == ref

    def test_robin_exact_zeros_at_ends_and_midpoint(self, monkeypatch):
        # residual zeros planted on branch 2's lower end, branch 3's upper
        # end and branch 4's first midpoint are returned as they are
        alpha = 200.0
        lo2, _ = robin_bracket(alpha, L, 2)
        _, hi3 = robin_bracket(alpha, L, 3)
        mid4 = 0.5 * sum(robin_bracket(alpha, L, 4))
        planted = [lo2, hi3, mid4]
        real = geometry._robin_eq
        monkeypatch.setattr(geometry, "_robin_eq", lambda k, a, length: np.where(
            np.isin(k, planted), 0.0, real(k, a, length)))
        ks = solve_wavenumbers_1d(BoundarySpec.robin(alpha), L, 5)
        assert ks[1:4].tolist() == planted
        assert ks.tolist() == [scalar_robin_root(alpha, L, m) for m in range(1, 6)]

    def test_robin_bracket_without_sign_change_named(self, monkeypatch):
        real = geometry._robin_eq
        # lift branch 3's residual clear of zero on both ends
        lo3, hi3 = robin_bracket(200.0, L, 3)
        monkeypatch.setattr(geometry, "_robin_eq", lambda k, a, length: np.where(
            (k >= lo3) & (k <= hi3), 1.0, real(k, a, length)))
        with pytest.raises(NumericalError, match="Robin bracket 3 has no sign change"):
            solve_wavenumbers_1d(BoundarySpec.robin(200.0), L, 6)

    def test_unstable_robin_rejected(self):
        with pytest.raises(UnstableRobinError):
            BoundarySpec.robin(-200.0)
        with pytest.raises(ValueError):
            BoundarySpec.robin(0.0)


class TestSampledBases:
    def test_sine_matches_orthonormal_dst2(self):
        for n in (4, 9, 16):
            oracle = scipy.fft.dst(np.eye(n), type=2, norm="ortho", axis=1)
            assert np.max(np.abs(sine_basis_1d(n) - oracle.T)) < 1e-12

    def test_cosine_matches_orthonormal_dct2(self):
        for n in (4, 9, 16):
            oracle = scipy.fft.dct(np.eye(n), type=2, norm="ortho", axis=1)
            assert np.max(np.abs(cosine_basis_1d(n) - oracle.T)) < 1e-12

    def test_robin_rows_orthonormal_and_close_to_analytic(self):
        n = 16
        ks = solve_wavenumbers_1d(BoundarySpec.robin(1.0 / L), L, n)
        rows = robin_basis_1d(1.0 / L, L, n, ks)
        assert np.max(np.abs(rows @ rows.T - np.eye(n))) < 1e-12
        x = (np.arange(n) + 0.5) * (L / n)
        analytic = np.cos(np.outer(ks, x)) + (1.0 / L / ks)[:, None] * np.sin(np.outer(ks, x))
        analytic /= np.linalg.norm(analytic, axis=1, keepdims=True)
        assert np.max(np.abs(rows - analytic)) < 1e-2


class TestBuildBasis:
    def test_mode_counts(self):
        grid = Grid(5e-3, 5e-3, 20, 20)
        neumann = build_basis(grid, BoundarySpec.neumann(), linear_dispersion)
        assert neumann.n_modes == 399
        dirichlet = build_basis(grid, BoundarySpec.dirichlet(), linear_dispersion)
        assert dirichlet.n_modes == 400
        assert np.all(dirichlet.omegas > 0)

    @pytest.mark.parametrize("spec", [BoundarySpec.dirichlet(), BoundarySpec.neumann()]
                             + [BoundarySpec.robin(a / L) for a in (1e-6, 0.1, 1.0, 10.0, 1e6)])
    @pytest.mark.parametrize("shape", [(8, 8), (12, 7), (32, 32)])
    def test_orthonormality(self, spec, shape):
        grid = Grid(5e-3, 4e-3, *shape)
        basis = build_basis(grid, spec, linear_dispersion)
        assert basis.orthonormality_defect() < 1e-10

    def test_sampled_built_on_each_access(self):
        grid = Grid(5e-3, 4e-3, 5, 3)
        basis = build_basis(grid, BoundarySpec.robin(200.0), linear_dispersion)
        assert "sampled" not in vars(basis)
        g = basis.sampled
        assert g is not basis.sampled
        bx, by = basis.axes
        for row, mode in zip(g, basis.modes):
            mx, my = mode.index
            assert np.array_equal(row, np.kron(bx[mx], by[my]))

    @pytest.mark.parametrize("spec", [BoundarySpec.dirichlet(), BoundarySpec.neumann(),
                                      BoundarySpec.robin(200.0)], ids=lambda s: s.kind.value)
    def test_kron_rows(self, spec):
        # G is Bx (x) By with its rows picked by kron; Neumann lacks row 0
        basis = build_basis(Grid(5e-3, 4e-3, 5, 3), spec, linear_dispersion)
        bx, by = basis.axes
        assert basis.kron.tolist() == [mx * 3 + my for mx, my in (m.index for m in basis.modes)]
        assert np.array_equal(basis.sampled, np.kron(bx, by)[basis.kron])
        assert sorted(basis.kron) == list(range(spec.kind.value == "neumann", 15))

    @pytest.mark.parametrize("shape", [(5, 3), (7, 6)], ids=["5x3", "7x6"])
    @pytest.mark.parametrize("spec", [BoundarySpec.dirichlet(), BoundarySpec.neumann(),
                                      BoundarySpec.robin(200.0)], ids=lambda s: s.kind.value)
    def test_channel_reads_match_dense_product(self, spec, shape):
        # diagonals and blocks of G^T diag(w) G read from the column channels
        basis = build_basis(Grid(5e-3, 4e-3, *shape), spec, linear_dispersion)
        w = np.random.default_rng(2).uniform(0.5, 2.0, basis.n_modes)
        g = basis.sampled
        dense = g.T @ (w[:, None] * g)
        tol = 1e-14 * np.max(np.abs(dense))
        assert np.max(np.abs(basis.pixel_diagonal(w) - np.diag(dense))) <= tol
        channels = basis.channels(w)
        assert channels.shape == (shape[1], shape[0], shape[0])
        rng = np.random.default_rng(3)
        for rows, cols in ((np.arange(3), np.arange(basis.grid.n_pixels)),
                           (rng.permutation(basis.grid.n_pixels)[:6], np.array([4, 1, 9, 2]))):
            got = basis.pixel_block(channels, rows, cols)
            assert np.max(np.abs(got - dense[np.ix_(rows, cols)])) <= tol

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_non_positive_or_non_finite_omega_rejected(self, bad):
        def dispersion(k):
            omegas = linear_dispersion(k)
            omegas[3] = bad
            return omegas

        with pytest.raises(NumericalError, match="dispersion returned omega"):
            build_basis(Grid(5e-3, 5e-3, 4, 4), BoundarySpec.dirichlet(), dispersion)

    def test_ordering_deterministic(self):
        grid = Grid(5e-3, 5e-3, 6, 6)
        b1 = build_basis(grid, BoundarySpec.dirichlet(), linear_dispersion)
        b2 = build_basis(grid, BoundarySpec.dirichlet(), linear_dispersion)
        assert [m.index for m in b1.modes] == [m.index for m in b2.modes]
        assert np.all(np.diff([m.k for m in b1.modes]) >= -1e-12)
        # ties broken lexicographically
        for a, b in zip(b1.modes[:-1], b1.modes[1:]):
            if a.k == b.k:
                assert a.index < b.index
