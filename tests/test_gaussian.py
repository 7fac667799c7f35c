import math

import numpy as np
import pytest
import scipy.linalg

from thirdsound import FilmParams, HBAR, K_B, bose_einstein, derive_params
from thirdsound import gaussian as ga
from thirdsound.errors import UnphysicalCovarianceError
from thirdsound.geometry import BoundarySpec, Grid, ModeBasis, build_basis
from thirdsound.physics import dispersion_thin_film
from thirdsound.regions import RegionMask, run_volume_sweep

FILM = FilmParams(h0=80e-9, alpha_vdw=2.6e-24, temperature=0.3)
DERIVED = derive_params(FILM)


def film_basis(nx, ny, spec=None, lx=5e-3, ly=5e-3):
    grid = Grid(lx, ly, nx, ny)
    return build_basis(grid, spec or BoundarySpec.dirichlet(),
                       lambda k: dispersion_thin_film(k, DERIVED, FILM.h0))


def diagonal_covariance(nus, labelling=ga.MOMENTUM):
    nus = np.asarray(nus, dtype=float)
    return ga.CovarianceMatrix(np.diag(np.concatenate([nus, nus])), labelling)


def thermal_fock_entropy(nbar, cutoff=200):
    k = np.arange(cutoff + 1)
    p = (nbar / (1.0 + nbar)) ** k / (1.0 + nbar)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def random_physical_two_mode(seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(4, 4))
    h = 0.5 * (h + h.T)
    omega = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    s = scipy.linalg.expm(omega @ h)          # symplectic for symmetric h
    nus = 0.5 + rng.uniform(0.0, 3.0, size=2)
    return ga.CovarianceMatrix(s @ np.diag(np.tile(nus, 2)) @ s.T, ga.MOMENTUM), nus


class TestThermalConstruction:
    def test_vacuum(self):
        basis = film_basis(4, 4)
        g = ga.thermal_momentum_covariance(basis, 0.0)
        assert np.allclose(g.data, 0.5 * np.eye(2 * basis.n_modes))

    def test_half_occupation_point(self):
        # hbar w/(kB T) = ln 2 gives n = 1, diagonal value 1.5
        basis = film_basis(2, 2)
        t = HBAR * basis.omegas[0] / (K_B * math.log(2.0))
        g = ga.thermal_momentum_covariance(basis, t)
        assert g.data[0, 0] == pytest.approx(1.5, rel=1e-12)

    def test_paper_scale_occupations(self):
        basis = film_basis(20, 20, BoundarySpec.neumann())
        g = ga.thermal_momentum_covariance(basis, 0.3)
        assert g.n == 399
        assert g.data.max() == pytest.approx(5.06e8 + 0.5, rel=1e-2)
        assert np.all(g.r_block == 0.0)


class TestRealSpaceTransform:
    def test_vacuum_stays_vacuum(self):
        basis = film_basis(6, 6)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.0), basis, DERIVED)
        spectrum = ga.symplectic_spectrum(gr)
        assert np.max(np.abs(spectrum.values - 0.5)) < 1e-9

    def test_thermal_physical_and_symmetric(self):
        basis = film_basis(6, 6, BoundarySpec.robin(200.0))
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        assert np.allclose(gr.data, gr.data.T)
        assert ga.symplectic_spectrum(gr).min >= 0.5 - 1e-9

    def test_round_trip(self):
        for spec in (BoundarySpec.dirichlet(), BoundarySpec.neumann()):
            basis = film_basis(6, 6, spec)
            gm = ga.thermal_momentum_covariance(basis, 0.3)
            gr = ga.to_real_space(gm, basis, DERIVED)
            back = ga.to_momentum_space(gr, basis, DERIVED)
            err = np.linalg.norm(back.data - gm.data) / np.linalg.norm(gm.data)
            assert err < 1e-9

    def test_neumann_structural_nulls_tracked(self):
        basis = film_basis(6, 6, BoundarySpec.neumann())
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        assert gr.structural_nulls == 1
        spectrum = ga.symplectic_spectrum(gr)
        assert spectrum.n_null == 1
        # the non-null real-space spectrum is exactly the mode spectrum
        expected = np.sort(bose_einstein(basis.omegas, 0.3) + 0.5)
        assert np.allclose(np.sort(spectrum.values), expected, rtol=1e-9)

    def test_more_modes_than_pixels_rejected(self):
        # a basis listing the 9 modes of a 3x3 Dirichlet lattice twice would
        # declare structural_nulls = 9 - 18 = -9
        basis = film_basis(3, 3)
        doubled = ModeBasis(basis.grid, basis.boundary, basis.modes + basis.modes,
                            np.vstack([basis.sampled, basis.sampled]))
        gm = ga.thermal_momentum_covariance(doubled, 0.3)
        with pytest.raises(ValueError, match="more than"):
            ga.to_real_space(gm, doubled, DERIVED)

    @pytest.mark.parametrize("nulls", [-9, -1, 10])
    def test_structural_nulls_outside_range_rejected(self, nulls):
        with pytest.raises(ValueError, match="structural_nulls"):
            ga.CovarianceMatrix(0.5 * np.eye(18), ga.REAL, structural_nulls=nulls)

    def test_undeclared_null_in_full_rank_state_raises(self):
        basis = film_basis(6, 6)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        assert gr.structural_nulls == 0
        lying = ga.CovarianceMatrix(gr.data, ga.REAL, basis=basis, structural_nulls=1)
        with pytest.raises(UnphysicalCovarianceError, match="structural nulls"):
            ga.symplectic_spectrum(lying)


class TestSymplecticSpectrum:
    def test_vacuum_identity(self):
        g = diagonal_covariance(np.full(5, 0.5))
        assert np.allclose(ga.symplectic_spectrum(g).values, 0.5)

    def test_single_mode_geometric_mean(self):
        data = np.diag([2.0, 0.5])
        g = ga.CovarianceMatrix(data, ga.MOMENTUM)
        assert ga.symplectic_spectrum(g).values[0] == pytest.approx(1.0, rel=1e-12)

    def test_two_routes_agree_on_random_states(self):
        for seed in range(8):
            g, nus = random_physical_two_mode(seed)
            primary = ga.symplectic_spectrum(g).values
            # oracle: sqrt of positive eigenvalues of -(Omega Gamma)^2
            omega = np.block([[np.zeros((2, 2)), np.eye(2)],
                              [-np.eye(2), np.zeros((2, 2))]])
            m = omega @ g.data
            alt = np.sqrt(np.linalg.eigvals(-m @ m).real)
            alt = np.sort(alt)[::2][::-1]   # collapse duplicate pairs
            assert np.allclose(np.sort(primary), np.sort(alt), atol=1e-10, rtol=1e-10)
            assert np.allclose(np.sort(primary), np.sort(nus), rtol=1e-9)

    def test_unphysical_raises(self):
        with pytest.raises(UnphysicalCovarianceError):
            ga.symplectic_spectrum(diagonal_covariance([0.25, 0.6]))

    @pytest.mark.parametrize("r", [0.0, 0.1])
    def test_not_positive_definite_raises(self, r):
        # Q has a negative eigenvalue; R = 0 and R != 0 take different routes
        data = np.array([[1.0, 2.0, r, 0.0], [2.0, 1.0, 0.0, 0.0],
                         [r, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(UnphysicalCovarianceError, match="positive definite"):
            ga.symplectic_spectrum(ga.CovarianceMatrix(data, ga.MOMENTUM))

    def test_roundoff_clamped(self):
        g = diagonal_covariance([0.5 - 5e-10])
        assert ga.symplectic_spectrum(g).values[0] == 0.5
        assert ga.von_neumann_entropy(g) == 0.0


class TestEntropy:
    def test_vacuum_zero(self):
        assert ga.von_neumann_entropy(diagonal_covariance(np.full(4, 0.5))) == 0.0

    def test_analytic_point(self):
        s = ga.von_neumann_entropy(diagonal_covariance([1.5]))
        assert s == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("nbar", [0.5, 1.0, 5.0])
    def test_thermal_against_fock_oracle(self, nbar):
        s = ga.von_neumann_entropy(diagonal_covariance([nbar + 0.5]))
        assert s == pytest.approx(thermal_fock_entropy(nbar), abs=1e-8)

    def test_additivity_block_diagonal(self):
        g1 = diagonal_covariance([1.5, 2.5])
        g2 = diagonal_covariance([0.5, 7.0])
        combined = diagonal_covariance([1.5, 2.5, 0.5, 7.0])
        s = ga.von_neumann_entropy(combined)
        assert s == pytest.approx(ga.von_neumann_entropy(g1) + ga.von_neumann_entropy(g2),
                                  abs=1e-10)

    def test_invariance_under_orthogonal_rotation(self):
        basis = film_basis(4, 4)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        rng = np.random.default_rng(3)
        o = np.linalg.qr(rng.normal(size=(16, 16)))[0]
        rot = np.block([[o, np.zeros((16, 16))], [np.zeros((16, 16)), o]])
        g2 = ga.CovarianceMatrix(rot @ gr.data @ rot.T, ga.REAL)
        assert ga.von_neumann_entropy(g2) == pytest.approx(ga.von_neumann_entropy(gr),
                                                           abs=1e-9 * ga.von_neumann_entropy(gr))

    def test_large_occupation_stable(self):
        # stable formula: f(nu) ~ ln(nu) + 1 for huge nu, no cancellation
        s = ga.von_neumann_entropy(diagonal_covariance([1e12]))
        assert s == pytest.approx(math.log(1e12) + 1.0, rel=1e-12)


class TestTwoModeSqueezedThermal:
    def test_gaussian_matches_fock_oracle(self):
        nbar, r, cutoff = 0.3, 0.4, 24
        ch, sh = math.cosh(r), math.sinh(r)
        s_mat = np.array([[ch, sh, 0, 0], [sh, ch, 0, 0],
                          [0, 0, ch, -sh], [0, 0, -sh, ch]])
        gamma0 = np.diag([nbar + 0.5] * 4)
        g = ga.CovarianceMatrix(s_mat @ gamma0 @ s_mat.T, ga.MOMENTUM)

        # Fock oracle: rho = U (rho_th x rho_th) U+, U = exp(r (a+b+ - a b))
        d = cutoff + 1
        a = np.diag(np.sqrt(np.arange(1, d)), 1)
        kron = np.kron
        gen = r * (kron(a.T, a.T) - kron(a, a))
        u = scipy.linalg.expm(gen)
        k = np.arange(d)
        p = (nbar / (1 + nbar)) ** k / (1 + nbar)
        rho = u @ np.diag(kron(p, p)) @ u.conj().T

        # global entropy (invariant under the squeeze) through a correlated matrix
        s_global = ga.von_neumann_entropy(g)
        assert s_global == pytest.approx(2 * thermal_fock_entropy(nbar), abs=1e-6)

        # reduced single-mode state: partial trace over mode 2
        rho_1 = np.einsum("ikjk->ij", rho.reshape(d, d, d, d))
        evals = np.linalg.eigvalsh(rho_1)
        evals = evals[evals > 1e-14]
        s_reduced_fock = float(-(evals * np.log(evals)).sum())
        s_reduced = ga.von_neumann_entropy(ga.restrict(g, np.array([0])))
        assert s_reduced == pytest.approx(s_reduced_fock, abs=1e-6)


class TestRestrict:
    def setup_method(self):
        self.basis = film_basis(4, 4)
        self.grid = self.basis.grid
        gm = ga.thermal_momentum_covariance(self.basis, 0.3)
        self.gr = ga.to_real_space(gm, self.basis, DERIVED)

    def test_full_mask_identity(self):
        sub = ga.restrict(self.gr, RegionMask.full(self.grid))
        assert np.array_equal(sub.data, self.gr.data)

    def test_single_pixel_block(self):
        sub = ga.restrict(self.gr, np.array([5]))
        n = self.gr.n
        expected = np.array([[self.gr.data[5, 5], self.gr.data[5, n + 5]],
                             [self.gr.data[n + 5, 5], self.gr.data[n + 5, n + 5]]])
        assert np.array_equal(sub.data, expected)

    def test_union_contains_marginals_as_principal_blocks(self):
        ia, ib = np.array([1, 4, 9]), np.array([2, 7])
        union = ga.restrict(self.gr, np.concatenate([ia, ib]))
        sub_a = ga.restrict(self.gr, ia)
        merged = np.sort(np.concatenate([ia, ib]))
        pos = np.searchsorted(merged, ia)
        rows = np.concatenate([pos, len(merged) + pos])
        assert np.array_equal(union.data[np.ix_(rows, rows)], sub_a.data)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ga.restrict(self.gr, np.array([], dtype=int))

    def test_momentum_mask_rejected(self):
        gm = ga.thermal_momentum_covariance(self.basis, 0.3)
        with pytest.raises(ValueError):
            ga.restrict(gm, RegionMask.full(self.grid))


class TestMutualInformation:
    def test_momentum_product_state_zero(self):
        basis = film_basis(6, 6, BoundarySpec.neumann())
        gm = ga.thermal_momentum_covariance(basis, 0.3)
        rng = np.random.default_rng(7)
        perm = rng.permutation(basis.n_modes)
        assert ga.mutual_information(gm, perm[:10], perm[10:30]) <= 1e-10

    def test_pure_state_identity(self):
        basis = film_basis(6, 6)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.0), basis, DERIVED)
        a = RegionMask.from_columns(basis.grid, 0, 3)
        a_c = RegionMask(basis.grid, ~a.pixels)
        mi = ga.mutual_information(gr, a, a_c)
        assert mi == pytest.approx(2.0 * ga.von_neumann_entropy(ga.restrict(gr, a)), abs=1e-8)

    def test_against_independent_oracle(self):
        # independent route: assemble blocks by hand, nu = sqrt(eig(Q P))
        basis = film_basis(4, 4)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        q, p = gr.q_block, gr.p_block

        def oracle_entropy(idx):
            qs, ps = q[np.ix_(idx, idx)], p[np.ix_(idx, idx)]
            nus = np.sqrt(np.abs(np.linalg.eigvals(qs @ ps)))
            return sum((v + 0.5) * math.log(v + 0.5) - (v - 0.5) * math.log(v - 0.5)
                       for v in nus if v > 0.5 + 1e-15)

        ia = RegionMask.from_columns(basis.grid, 0, 2).indices()
        ib = RegionMask.from_columns(basis.grid, 2, 4).indices()
        oracle = (oracle_entropy(ia) + oracle_entropy(ib)
                  - oracle_entropy(np.concatenate([ia, ib])))
        assert ga.mutual_information(gr, ia, ib) == pytest.approx(oracle, abs=1e-5)

    def test_overlap_rejected(self):
        basis = film_basis(4, 4)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        with pytest.raises(ValueError):
            ga.mutual_information(gr, np.array([0, 1]), np.array([1, 2]))

    def test_symmetry(self):
        basis = film_basis(5, 5)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        ia, ib = np.arange(0, 8), np.arange(12, 20)
        assert ga.mutual_information(gr, ia, ib) == pytest.approx(
            ga.mutual_information(gr, ib, ia), abs=1e-10)

    def test_monotone_under_region_growth(self):
        basis = film_basis(6, 6)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        b = RegionMask.from_columns(basis.grid, 4, 6)
        previous = 0.0
        for width in (1, 2, 3):
            a = RegionMask.from_columns(basis.grid, 0, width)
            mi = ga.mutual_information(gr, a, b)
            assert mi >= previous - 1e-8
            previous = mi


class TestClassicalRegime:
    def test_sweep_mi_temperature_independent_and_p_block_scalar(self):
        # every mode is deep in the Rayleigh-Jeans regime at 0.3 K and still
        # at 30 uK, so real-space MI is set by the lattice Green's function
        # alone; a complete Dirichlet basis makes P a multiple of I
        basis = film_basis(10, 10)
        hot, cold = (ga.to_real_space(ga.thermal_momentum_covariance(basis, t), basis, DERIVED)
                     for t in (0.3, 30e-6))
        p = hot.p_block
        assert np.max(np.abs(p - p[0, 0] * np.eye(basis.grid.n_pixels))) <= 1e-12 * p[0, 0]
        mi_hot = run_volume_sweep(hot).mi_values
        mi_cold = run_volume_sweep(cold).mi_values
        assert mi_hot.min() > 0.1
        assert np.max(np.abs(mi_hot - mi_cold)) <= 1e-6
