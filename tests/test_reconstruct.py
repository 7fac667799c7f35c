import numpy as np
import pytest

from thirdsound import FilmParams, derive_params
from thirdsound import gaussian as ga
from thirdsound import reconstruct as rc
from thirdsound.errors import RankDeficiencyError
from thirdsound.geometry import BoundarySpec, Grid, build_basis
from thirdsound.physics import dispersion_thin_film

FILM = FilmParams(h0=80e-9, alpha_vdw=2.6e-24, temperature=0.3)
DERIVED = derive_params(FILM)


def film_basis(nx, ny, spec=None, ly=5e-3):
    grid = Grid(5e-3, ly, nx, ny)
    return build_basis(grid, spec or BoundarySpec.dirichlet(),
                       lambda k: dispersion_thin_film(k, DERIVED, FILM.h0))


def excited_covariance(basis, mode=0, value=2.0):
    n = basis.n_modes
    diag = np.full(n, 0.5)
    diag[mode] = value
    return ga.CovarianceMatrix(np.diag(np.concatenate([diag, diag])), ga.MOMENTUM,
                               basis=basis)


def squeezed_covariance(basis):
    """A squeezed thermal state exp(Omega H) diag(1.7) exp(Omega H)^T with
    random symmetric H; its R~ has an antisymmetric part."""
    import scipy.linalg
    n = basis.n_modes
    rng = np.random.default_rng(4)
    h = rng.normal(size=(2 * n, 2 * n)) * 0.1
    omega = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    s = scipy.linalg.expm(omega @ (0.5 * (h + h.T)))
    return ga.CovarianceMatrix(s @ np.diag(np.full(2 * n, 1.7)) @ s.T, ga.MOMENTUM,
                               basis=basis)


class TestEvolution:
    def test_zero_time_identity(self):
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        assert np.allclose(rc.evolve_mode_covariance(g0, 0.0).data, g0.data)

    def test_thermal_stationary(self):
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        for t in (1e-3, 0.7, 13.0):
            gt = rc.evolve_mode_covariance(g0, t)
            assert np.allclose(gt.data, g0.data, rtol=1e-12, atol=1e-12 * g0.data.max())

    def test_single_mode_period(self):
        basis = film_basis(3, 3)
        g0 = excited_covariance(basis, mode=2, value=3.0)
        period = 2 * np.pi / basis.omegas[2]
        gt = rc.evolve_mode_covariance(g0, period)
        block = np.ix_([2, basis.n_modes + 2], [2, basis.n_modes + 2])
        assert np.allclose(gt.data[block], g0.data[block], atol=1e-12 * 3.0)

    def test_spectrum_preserved_at_random_times(self):
        basis = film_basis(3, 3)
        rng = np.random.default_rng(13)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        ref = np.sort(ga.symplectic_spectrum(g0).values)
        for t in rng.uniform(0.0, 10.0, size=100):
            vals = np.sort(ga.symplectic_spectrum(rc.evolve_mode_covariance(g0, t)).values)
            assert np.allclose(vals, ref, rtol=1e-12)


class TestSynthesis:
    def test_vacuum_equal_time_formula(self):
        basis = film_basis(4, 4)
        g0 = ga.thermal_momentum_covariance(basis, 0.0)
        series = rc.synth_two_point(g0, basis, DERIVED, [0.0])
        g = basis.sampled
        pref = DERIVED.c3 / (DERIVED.luttinger_k * basis.omegas)
        expected = (g.T * (0.5 * pref)) @ g
        assert np.allclose(series.samples[0], expected, rtol=1e-12)

    def test_thermal_series_constant(self):
        basis = film_basis(4, 4)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        series = rc.synth_two_point(g0, basis, DERIVED, [0.0, 0.01, 0.37, 2.9])
        spread = np.max(np.abs(series.samples - series.samples[0]))
        assert spread < 1e-12 * np.max(np.abs(series.samples[0]))

    def test_single_excited_mode_beats_at_twice_omega(self):
        basis = film_basis(4, 4)
        g0 = excited_covariance(basis, mode=0, value=2.0)
        omega = basis.omegas[0]
        times = np.linspace(0.0, 2 * np.pi / omega, 240, endpoint=False)
        series = rc.synth_two_point(g0, basis, DERIVED, times)
        i, j = 5, 10
        signal = series.samples[:, i, j]
        # hand expansion: (2 - 1/2) cos^2 + 1/2 = 1.25 + 0.75 cos(2 w t),
        # scaled by the mode prefactor and sampled mode functions
        pref = DERIVED.c3 / (DERIVED.luttinger_k * omega)
        scale = pref * basis.sampled[0, i] * basis.sampled[0, j]
        amp = 2.0 * np.mean(signal * np.cos(2 * omega * times))
        assert amp == pytest.approx(0.75 * scale, rel=1e-9)

    def test_matches_evolved_covariance_block(self):
        # the synthesised field sample at time t equals the Q block of the
        # evolved covariance transformed to the lattice (and likewise for
        # the momentum quadrature), tying synthesis to evolution
        basis = film_basis(3, 3)
        g0 = squeezed_covariance(basis)
        for t in (0.0, 0.013, 0.2):
            gt = ga.to_real_space(rc.evolve_mode_covariance(g0, t), basis, DERIVED)
            phi = rc.synth_two_point(g0, basis, DERIVED, [t], quadrature=rc.FIELD)
            eta = rc.synth_two_point(g0, basis, DERIVED, [t],
                                     quadrature=rc.MOMENTUM_QUADRATURE)
            assert np.allclose(phi.samples[0], gt.q_block, rtol=1e-10)
            assert np.allclose(eta.samples[0], gt.p_block, rtol=1e-10)

    def test_noise_deterministic_and_symmetric(self):
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        times = np.linspace(0.0, 0.1, 5)
        s1 = rc.synth_two_point(g0, basis, DERIVED, times, noise_sigma=1e-3, seed=99)
        s2 = rc.synth_two_point(g0, basis, DERIVED, times, noise_sigma=1e-3, seed=99)
        s3 = rc.synth_two_point(g0, basis, DERIVED, times, noise_sigma=1e-3, seed=100)
        assert np.array_equal(s1.samples, s2.samples)
        assert not np.array_equal(s1.samples, s3.samples)
        assert np.allclose(s1.samples, np.transpose(s1.samples, (0, 2, 1)))

    def test_memory_preflight_raises_before_allocating(self, monkeypatch):
        # 10^6 samples of 400 x 400 doubles need 1.28e12 bytes (1.2 TiB)
        basis = film_basis(20, 20)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        times = np.arange(1e6)

        def refuse(*args, **kwargs):
            raise AssertionError("sample array allocated")

        monkeypatch.setattr(rc.np, "empty", refuse)
        with pytest.raises(ValueError, match="1280000000000 bytes"):
            rc.synth_two_point(g0, basis, DERIVED, times)

    def test_r_free_state_reads_no_r_block(self, monkeypatch):
        # a thermal state stores no R~, so synthesis adds no R~ terms
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        times = [0.0, 0.013]
        want = {q: rc.synth_two_point(g0, basis, DERIVED, times, quadrature=q).samples
                for q in (rc.FIELD, rc.MOMENTUM_QUADRATURE)}

        def refuse(self):
            raise AssertionError("r_block read for an R-free state")

        monkeypatch.setattr(ga.CovarianceMatrix, "r_block", property(refuse))
        for quadrature, samples in want.items():
            got = rc.synth_two_point(g0, basis, DERIVED, times, quadrature=quadrature)
            assert np.array_equal(got.samples, samples)

    def test_unknown_quadrature_raises_before_work(self, monkeypatch):
        # rejected before the memory preflight and the synthesis loop
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)

        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(rc, "_available_memory", refuse)
        monkeypatch.setattr(rc, "_mode_observable", refuse)
        with pytest.raises(ValueError, match="unknown quadrature 'fieldd'"):
            rc.synth_two_point(g0, basis, DERIVED, [0.0, 0.1, 0.2], quadrature="fieldd")

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
    def test_invalid_noise_sigma_raises_before_work(self, monkeypatch, sigma):
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)

        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(rc, "_available_memory", refuse)
        monkeypatch.setattr(rc, "_mode_observable", refuse)
        with pytest.raises(ValueError, match="noise_sigma must be finite and non-negative"):
            rc.synth_two_point(g0, basis, DERIVED, [0.0, 0.1], noise_sigma=sigma)

    def test_memory_preflight_reads_available_memory(self, monkeypatch):
        # the preflight compares with what is free, which never exceeds
        # physical memory; 2 samples of 9 pixels need 1296 bytes
        physical = rc.os.sysconf("SC_PAGE_SIZE") * rc.os.sysconf("SC_PHYS_PAGES")
        assert 0 < rc._available_memory() <= physical
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        monkeypatch.setattr(rc, "_available_memory", lambda: 1000)
        with pytest.raises(ValueError, match="1296 bytes, more than the 1000 bytes of available"):
            rc.synth_two_point(g0, basis, DERIVED, [0.0, 0.1])


class TestSeriesValidation:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            rc.TwoPointSeries(rc.FIELD, [0.0, 0.0], np.zeros((2, 2, 2)))

    def test_samples_must_be_symmetric(self):
        bad = np.zeros((1, 3, 3))
        bad[0, 0, 1] = 1.0
        with pytest.raises(ValueError):
            rc.TwoPointSeries(rc.FIELD, [0.0], bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        samples = np.ones((2, 3, 3))
        samples[1, 2, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            rc.TwoPointSeries(rc.FIELD, [0.0, 1.0], samples)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            rc.TwoPointSeries(rc.FIELD, [0.0, bad], np.ones((2, 3, 3)))


class TestFit:
    def test_noiseless_round_trip(self):
        basis = film_basis(4, 4)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        times = rc.suggested_times(basis)
        series = rc.synth_two_point(g0, basis, DERIVED, times)
        result = rc.fit_covariance(series, basis, DERIVED)
        err = np.linalg.norm(result.gamma().data - g0.data) / np.linalg.norm(g0.data)
        assert err < 1e-6
        assert result.residual_rms < 1e-9 * np.max(np.abs(series.samples))

    def test_single_time_sample_rank_deficient(self):
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        series = rc.synth_two_point(g0, basis, DERIVED, [0.1])
        with pytest.raises(RankDeficiencyError):
            rc.fit_covariance(series, basis, DERIVED)

    def test_degenerate_pairs_flagged_on_square_grid(self):
        basis = film_basis(4, 4)
        omegas = basis.omegas
        expected = {(m, n) for m in range(len(omegas)) for n in range(m + 1, len(omegas))
                    if abs(omegas[m] - omegas[n]) <= 1e-9 * omegas[-1]}
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        times = rc.suggested_times(basis)
        series = rc.synth_two_point(g0, basis, DERIVED, times)
        result = rc.fit_covariance(series, basis, DERIVED)
        assert set(result.unidentifiable_pairs) == expected
        assert expected   # square grid really has degeneracies

    def test_degenerate_pair_antisymmetric_part_regularized(self):
        # plant an off-diagonal R~ with an antisymmetric part on a
        # degenerate pair: only the symmetric part is identifiable, and the
        # fit's single unknown R~_mn = R~_nm recovers it split evenly
        basis = film_basis(4, 4)
        m, n = sorted_degenerate_pair = None, None
        for (a, b) in [(i, j) for i in range(basis.n_modes)
                       for j in range(i + 1, basis.n_modes)]:
            if abs(basis.omegas[a] - basis.omegas[b]) <= 1e-9 * basis.omegas[-1]:
                m, n = a, b
                break
        nmode = basis.n_modes
        data = np.diag(np.tile(np.full(nmode, 5.0), 2))
        data[m, nmode + n] = 0.8   # R~_mn
        data[nmode + n, m] = 0.8
        data[n, nmode + m] = 0.2   # R~_nm
        data[nmode + m, n] = 0.2
        g0 = ga.CovarianceMatrix(data, ga.MOMENTUM, basis=basis)
        times = rc.suggested_times(basis)
        series = rc.synth_two_point(g0, basis, DERIVED, times)
        result = rc.fit_covariance(series, basis, DERIVED)
        assert (m, n) in result.unidentifiable_pairs
        assert result.rt[m, n] == pytest.approx(0.5, abs=1e-6)
        assert result.rt[n, m] == pytest.approx(0.5, abs=1e-6)
        assert result.qt[m, n] == pytest.approx(0.0, abs=1e-6)

    def test_field_and_momentum_series_agree(self):
        basis = film_basis(3, 4)   # 3 pairs degenerate on this square cell
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        times = rc.suggested_times(basis)
        fits = []
        for quadrature in (rc.FIELD, rc.MOMENTUM_QUADRATURE):
            series = rc.synth_two_point(g0, basis, DERIVED, times, quadrature=quadrature)
            fits.append(rc.fit_covariance(series, basis, DERIVED).gamma().data)
        assert np.allclose(fits[0], fits[1], atol=1e-6 * np.max(np.abs(g0.data)))

    @pytest.mark.parametrize("quadrature", [rc.FIELD, rc.MOMENTUM_QUADRATURE])
    def test_antisymmetric_r_recovered_from_either_quadrature(self, quadrature):
        # a non-square cell has no degenerate pairs, so all of R~ is
        # identifiable, including the part the momentum fit sign-flips
        basis = film_basis(3, 4, ly=3.7e-3)
        g0 = squeezed_covariance(basis)
        assert np.max(np.abs(g0.r_block - g0.r_block.T)) > 0.01
        series = rc.synth_two_point(g0, basis, DERIVED, rc.suggested_times(basis),
                                    quadrature=quadrature)
        result = rc.fit_covariance(series, basis, DERIVED)
        assert result.unidentifiable_pairs == []
        err = np.max(np.abs(result.gamma().data - g0.data)) / np.max(np.abs(g0.data))
        assert err < 1e-8

    def test_noiseless_residual_stays_zero_as_times_grow(self):
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        full = rc.suggested_times(basis)
        scale = np.max(np.abs(ga.to_real_space(g0, basis, DERIVED).q_block))
        last = np.inf
        for count in (len(full) // 4, len(full) // 2, len(full)):
            series = rc.synth_two_point(g0, basis, DERIVED, full[:count])
            r = rc.fit_covariance(series, basis, DERIVED).residual_rms
            assert r < 1e-9 * scale
            assert r <= last + 1e-9 * scale
            last = r

    def test_noise_error_scaling(self):
        # estimator error roughly proportional to sigma / sqrt(n_times)
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        full = rc.suggested_times(basis)
        scale = float(np.mean(np.abs(rc.synth_two_point(g0, basis, DERIVED,
                                                        full[:1]).samples)))

        def mean_error(sigma, times, seeds=range(4)):
            errs = []
            for seed in seeds:
                series = rc.synth_two_point(g0, basis, DERIVED, times,
                                            noise_sigma=sigma * scale, seed=seed)
                fit = rc.fit_covariance(series, basis, DERIVED)
                errs.append(np.linalg.norm(fit.gamma().data - g0.data)
                            / np.linalg.norm(g0.data))
            return np.mean(errs)

        e3 = mean_error(1e-3, full)
        e2 = mean_error(1e-2, full)
        assert 10.0 / 3.0 < e2 / e3 < 10.0 * 3.0
        quarter = full[: len(full) // 4]
        e3_quarter = mean_error(1e-3, quarter)
        ratio = e3_quarter / e3
        assert 2.0 / 3.0 < ratio < 2.0 * 3.0


class TestSuggestedTimes:
    def test_satisfies_sampling_rules(self):
        basis = film_basis(4, 3)
        times = rc.suggested_times(basis)
        omegas = np.unique(basis.omegas)
        gaps = np.diff(omegas)
        gap_min = gaps[gaps > 1e-9 * omegas[-1]].min()
        assert times[1] - times[0] <= np.pi / (4 * omegas.max()) * (1 + 1e-12)
        assert times[-1] >= 2 * 2 * np.pi / gap_min * (1 - 1e-3)
