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


def evolve_mode_covariance(gamma0, t):
    """Free evolution of a mode-space covariance: per-mode phase rotation
    by omega_m t.  The symplectic spectrum is invariant."""
    omegas = gamma0.basis.omegas
    c, s = np.diag(np.cos(omegas * t)), np.diag(np.sin(omegas * t))
    rot = np.block([[c, s], [-s, c]])
    return ga.CovarianceMatrix(rot @ gamma0.data @ rot.T, ga.MOMENTUM, basis=gamma0.basis)


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
        assert np.allclose(evolve_mode_covariance(g0, 0.0).data, g0.data)

    def test_thermal_stationary(self):
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        for t in (1e-3, 0.7, 13.0):
            gt = evolve_mode_covariance(g0, t)
            assert np.allclose(gt.data, g0.data, rtol=1e-12, atol=1e-12 * g0.data.max())

    def test_single_mode_period(self):
        basis = film_basis(3, 3)
        g0 = excited_covariance(basis, mode=2, value=3.0)
        period = 2 * np.pi / basis.omegas[2]
        gt = evolve_mode_covariance(g0, period)
        block = np.ix_([2, basis.n_modes + 2], [2, basis.n_modes + 2])
        assert np.allclose(gt.data[block], g0.data[block], atol=1e-12 * 3.0)

    def test_spectrum_preserved_at_random_times(self):
        basis = film_basis(3, 3)
        rng = np.random.default_rng(13)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        ref = np.sort(ga.symplectic_spectrum(g0).values)
        for t in rng.uniform(0.0, 10.0, size=100):
            vals = np.sort(ga.symplectic_spectrum(evolve_mode_covariance(g0, t)).values)
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
            gt = ga.to_real_space(evolve_mode_covariance(g0, t), basis, DERIVED)
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
        # 10^6 samples of 400 x 400 pixels, 80,200 packed doubles each,
        # need 6.416e11 bytes (0.58 TiB)
        basis = film_basis(20, 20)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        times = np.arange(1e6)

        def refuse(*args, **kwargs):
            raise AssertionError("sample array allocated")

        monkeypatch.setattr(rc.np, "empty", refuse)
        with pytest.raises(ValueError, match="641600000000 bytes"):
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
        monkeypatch.setattr(rc, "_pixel_observable", refuse)
        monkeypatch.setattr(rc.np, "empty", refuse)
        with pytest.raises(ValueError, match="unknown quadrature 'fieldd'"):
            rc.synth_two_point(g0, basis, DERIVED, [0.0, 0.1, 0.2], quadrature="fieldd")

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
    def test_invalid_noise_sigma_raises_before_work(self, monkeypatch, sigma):
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)

        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(rc, "_available_memory", refuse)
        monkeypatch.setattr(rc, "_pixel_observable", refuse)
        monkeypatch.setattr(rc.np, "empty", refuse)
        with pytest.raises(ValueError, match="noise_sigma must be finite and non-negative"):
            rc.synth_two_point(g0, basis, DERIVED, [0.0, 0.1], noise_sigma=sigma)

    @pytest.mark.parametrize("times", [[0.0, 0.0], [0.1, 0.0], [0.0, np.nan],
                                       [0.0, np.inf], [[0.0, 0.1]]])
    def test_bad_times_raise_before_work(self, monkeypatch, times):
        # the check TwoPointSeries makes, made before the memory preflight and the loop
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)

        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(rc, "_available_memory", refuse)
        monkeypatch.setattr(rc, "_pixel_observable", refuse)
        monkeypatch.setattr(rc.np, "empty", refuse)
        with pytest.raises(ValueError, match="sample times must be finite and strictly increasing"):
            rc.synth_two_point(g0, basis, DERIVED, times)

    def test_memory_preflight_reads_available_memory(self, monkeypatch):
        # the preflight compares with what is free, which never exceeds
        # physical memory; 2 samples of 9 pixels, 45 packed doubles each,
        # need 720 bytes, one more than the 719 available
        physical = rc.os.sysconf("SC_PAGE_SIZE") * rc.os.sysconf("SC_PHYS_PAGES")
        assert 0 < rc._available_memory() <= physical
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        monkeypatch.setattr(rc, "_available_memory", lambda: 719)
        with pytest.raises(ValueError, match="720 bytes, more than the available memory"):
            rc.synth_two_point(g0, basis, DERIVED, [0.0, 0.1])

    def test_memory_preflight_message_is_deterministic(self, monkeypatch):
        # the message names the bytes needed, not the live free memory
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        messages = []
        for have in (500, 719):
            monkeypatch.setattr(rc, "_available_memory", lambda: have)
            with pytest.raises(ValueError) as err:
                rc.synth_two_point(g0, basis, DERIVED, [0.0, 0.1])
            messages.append(str(err.value))
        assert messages[0] == messages[1]


class TestSeriesValidation:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            rc.TwoPointSeries(rc.FIELD, [0.0, 0.0], np.zeros((2, 2, 2)))

    def test_samples_must_be_symmetric(self):
        bad = np.zeros((1, 3, 3))
        bad[0, 0, 1] = 1.0
        with pytest.raises(ValueError):
            rc.TwoPointSeries(rc.FIELD, [0.0], bad)

    @pytest.mark.parametrize("skew, ok", [(0.99e-12, True), (1.01e-12, False)])
    def test_symmetry_threshold_is_relative_to_largest_entry(self, monkeypatch, skew, ok):
        # checked a chunk of 2 samples at a time: the skew of the last
        # sample is measured against the largest entry of the first
        monkeypatch.setattr(rc, "_CHUNK_BYTES", 2 * 9 * 8)
        samples = np.full((5, 3, 3), 1e-3)
        samples[0, 1, 1] = 1.0
        samples[4, 0, 2] += skew
        if ok:
            rc.TwoPointSeries(rc.FIELD, np.arange(5.0), samples)
        else:
            with pytest.raises(ValueError, match="symmetric"):
                rc.TwoPointSeries(rc.FIELD, np.arange(5.0), samples)

    def test_non_finite_sample_in_a_later_chunk_rejected(self, monkeypatch):
        monkeypatch.setattr(rc, "_CHUNK_BYTES", 2 * 9 * 8)
        samples = np.ones((5, 3, 3))
        samples[0, 0, 1] = 2.0      # asymmetric, but finiteness is reported first
        samples[4, 2, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            rc.TwoPointSeries(rc.FIELD, np.arange(5.0), samples)

    def test_samples_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            rc.TwoPointSeries(rc.FIELD, [0.0], np.zeros((1, 3, 1)))

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


def dense_sample(g0, basis, t, quadrature):
    """G^T D Y(t) D G from the whole blocks of g0, with Y(t) written out in
    full: c Q~ c + s P~ s + c R~ s + s R~^T c for the field, and cos and sin
    swapped with R~ negated for the momentum."""
    d_phi, d_eta = ga._mode_prefactors(basis, DERIVED)
    c, s = np.cos(basis.omegas * t), np.sin(basis.omegas * t)
    r = g0.r_block
    if quadrature == rc.FIELD:
        d = d_phi
    else:
        d, c, s, r = d_eta, s, c, -r
    y = (c[:, None] * g0.q_block * c + s[:, None] * g0.p_block * s
         + c[:, None] * r * s + s[:, None] * r.T * c)
    dg = d[:, None] * basis.sampled
    return dg.T @ y @ dg


class TestPackedStorage:
    GRIDS = {"dirichlet": (4, 4, BoundarySpec.dirichlet()),
             "neumann": (4, 4, BoundarySpec.neumann()),     # n_modes < n_pix
             "robin": (4, 4, BoundarySpec.robin(200.0)),
             "non-square": (3, 5, BoundarySpec.dirichlet())}

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("quadrature", [rc.FIELD, rc.MOMENTUM_QUADRATURE])
    @pytest.mark.parametrize("state", ["thermal", "squeezed"])
    def test_packed_rows_equal_dense_route(self, grid, quadrature, state):
        nx, ny, spec = self.GRIDS[grid]
        basis = film_basis(nx, ny, spec)
        g0 = (ga.thermal_momentum_covariance(basis, 0.3) if state == "thermal"
              else squeezed_covariance(basis))
        times = [0.0, 0.013, 0.37, 2.9]
        series = rc.synth_two_point(g0, basis, DERIVED, times, quadrature=quadrature)
        n_pix = basis.grid.n_pixels
        assert series.packed.shape == (len(times), n_pix * (n_pix + 1) // 2)
        assert series.n_pixels == n_pix
        iu = np.triu_indices(n_pix)
        for row, t in zip(series.packed, times):
            want = dense_sample(g0, basis, t, quadrature)
            assert np.max(np.abs(row - want[iu])) <= 1e-14 * np.max(np.abs(want))

    def test_samples_exactly_symmetric(self):
        basis = film_basis(3, 4)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        for series in (rc.synth_two_point(g0, basis, DERIVED, [0.0, 0.2]),
                       rc.synth_two_point(g0, basis, DERIVED, [0.0, 0.2], noise_sigma=1e-3),
                       rc.synth_two_point(squeezed_covariance(basis), basis, DERIVED, [0.1])):
            samples = series.samples
            assert np.array_equal(samples, np.transpose(samples, (0, 2, 1)))

    @pytest.mark.parametrize("chunk_bytes", [rc._CHUNK_BYTES, 3 * 45 * 8])
    def test_noise_equals_per_sample_draws(self, monkeypatch, chunk_bytes):
        # one draw of each sample's 45 upper-triangle entries in turn, in
        # np.triu_indices order, whatever the chunk the draws are made in
        monkeypatch.setattr(rc, "_CHUNK_BYTES", chunk_bytes)
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        times = np.linspace(0.0, 0.1, 7)
        clean = rc.synth_two_point(g0, basis, DERIVED, times)
        noisy = rc.synth_two_point(g0, basis, DERIVED, times, noise_sigma=1e-3, seed=5)
        rng = np.random.default_rng(5)
        want = np.array([row + rng.normal(0.0, 1e-3, row.size) for row in clean.packed])
        assert np.array_equal(noisy.packed, want)

    def test_diagonal_synthesis_does_not_depend_on_the_blocks(self, monkeypatch):
        # blocks of 3 pair columns and 3 times, the last of each short,
        # write what one block of each writes
        basis = film_basis(3, 4)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        times = np.linspace(0.0, 0.1, 8)
        want = rc.synth_two_point(g0, basis, DERIVED, times).packed
        monkeypatch.setattr(rc, "_CHUNK_BYTES", 3 * 8 * basis.n_modes)
        got = rc.synth_two_point(g0, basis, DERIVED, times).packed
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_full_samples_round_trip(self):
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        series = rc.synth_two_point(g0, basis, DERIVED, rc.suggested_times(basis))
        full = series.samples
        again = rc.TwoPointSeries(rc.FIELD, series.times, full)
        assert np.array_equal(again.samples, full)
        assert np.array_equal(again.packed, series.packed)
        want, got = (rc.fit_covariance(s, basis, DERIVED) for s in (series, again))
        for block in ("qt", "pt", "rt"):
            assert np.array_equal(getattr(got, block), getattr(want, block))
        assert got.residual_rms == want.residual_rms

    def test_storage_is_read_only(self):
        basis = film_basis(3, 3)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        series = rc.synth_two_point(g0, basis, DERIVED, [0.0, 0.1])
        with pytest.raises(AttributeError):
            series.samples = np.zeros((2, 9, 9))
        with pytest.raises(ValueError):
            series.packed[0, 0] = 1.0
        built = series.samples
        built[0, 0, 0] = 1.0      # a new array on each read
        assert not np.array_equal(series.samples, built)

    def test_traced_peak_below_one_full_array(self):
        import tracemalloc
        basis = film_basis(6, 6)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        times = rc.suggested_times(basis)
        full_bytes = times.size * basis.grid.n_pixels ** 2 * 8
        assert times.size > 1000
        tracemalloc.start()
        try:
            series = rc.synth_two_point(g0, basis, DERIVED, times)
            rc.fit_covariance(series, basis, DERIVED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_bytes

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("quadrature", [rc.FIELD, rc.MOMENTUM_QUADRATURE])
    @pytest.mark.parametrize("state", ["thermal", "squeezed"])
    def test_residual_rms_equals_dense_oracle(self, grid, quadrature, state):
        # the rms over every sample and entry of the dense model of the
        # fitted blocks less the sample
        nx, ny, spec = self.GRIDS[grid]
        basis = film_basis(nx, ny, spec)
        g0 = (ga.thermal_momentum_covariance(basis, 0.3) if state == "thermal"
              else squeezed_covariance(basis))
        times = rc.suggested_times(basis)
        clean = rc.synth_two_point(g0, basis, DERIVED, times, quadrature=quadrature)
        sigma = 1e-3 * np.max(np.abs(clean.packed))
        series = rc.synth_two_point(g0, basis, DERIVED, times, quadrature=quadrature,
                                    noise_sigma=sigma, seed=11)
        result = rc.fit_covariance(series, basis, DERIVED)
        fitted = result.gamma()
        sq = sum(np.sum((dense_sample(fitted, basis, t, quadrature) - sample) ** 2)
                 for t, sample in zip(times, series.samples))
        want = np.sqrt(sq / series.samples.size)
        assert want > 0.1 * sigma
        assert abs(result.residual_rms - want) <= 1e-10 * want

    @pytest.mark.parametrize("grid", GRIDS)
    def test_half_transform_twice_is_the_kron_conjugation(self, grid):
        # K (K M)^T = K M K^T for K = Bx (x) By and a symmetric M, one
        # matrix or a stack, with K square even where n_modes < n_pix
        nx, ny, spec = self.GRIDS[grid]
        basis = film_basis(nx, ny, spec)
        bx, by = basis.axes
        k = np.kron(bx, by)
        m = np.random.default_rng(2).normal(size=(3, nx * ny, nx * ny))
        m += m.transpose(0, 2, 1)
        got = rc._half(rc._half(m, bx, by).transpose(0, 2, 1), bx, by)
        want = k @ m @ k.T
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        one = rc._half(rc._half(m[1], bx, by).T, bx, by)
        assert np.max(np.abs(one - want[1])) <= 1e-14 * np.max(np.abs(want[1]))

    def test_fit_working_set_does_not_grow_with_times(self):
        # beyond the series it reads, the fit holds O(n_pix^2) numbers and
        # one chunk of phases: a quarter of the times and all of them (more
        # than one chunk) peak under the same bound
        import tracemalloc
        basis = film_basis(6, 6)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        full = rc.suggested_times(basis)
        bound = rc._CHUNK_BYTES + 64 * basis.grid.n_pixels ** 2 * 8
        assert full.size * basis.grid.n_pixels * 8 * 5 > rc._CHUNK_BYTES
        for times in (full[: full.size // 4], full):
            series = rc.synth_two_point(g0, basis, DERIVED, times)
            tracemalloc.start()
            try:
                rc.fit_covariance(series, basis, DERIVED)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound


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

    def test_one_solve_and_one_cond_for_every_pair(self, monkeypatch):
        # tied and untied pairs share one batched 4 x 4 system
        basis = film_basis(4, 4)
        g0 = ga.thermal_momentum_covariance(basis, 0.3)
        series = rc.synth_two_point(g0, basis, DERIVED, rc.suggested_times(basis))
        calls = {"solve": 0, "cond": 0}

        def counted(name):
            real = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(rc.np.linalg, name, counted(name))
        result = rc.fit_covariance(series, basis, DERIVED)
        assert result.unidentifiable_pairs   # the square grid has tied pairs
        assert calls == {"solve": 1, "cond": 1}

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

    @pytest.mark.parametrize("quadrature", [rc.FIELD, rc.MOMENTUM_QUADRATURE])
    def test_matches_per_pair_least_squares(self, quadrature):
        # oracle: each mode pair (m, n) fitted on its own by lstsq on the
        # explicit N x 4 design, to the symmetrised Y_mn(t) of D^-1 G M(t) G^T D^-1
        basis = film_basis(3, 4, ly=3.7e-3)   # no tied pairs
        g0 = squeezed_covariance(basis)
        times = rc.suggested_times(basis)
        clean = rc.synth_two_point(g0, basis, DERIVED, times, quadrature=quadrature)
        series = rc.synth_two_point(g0, basis, DERIVED, times, quadrature=quadrature,
                                    noise_sigma=1e-3 * np.max(np.abs(clean.packed)), seed=2)
        result = rc.fit_covariance(series, basis, DERIVED)
        assert result.unidentifiable_pairs == []

        d_phi, d_eta = ga._mode_prefactors(basis, DERIVED)
        gd = (1.0 / (d_phi if quadrature == rc.FIELD else d_eta))[:, None] * basis.sampled
        y = np.einsum("mi,tij,nj->tmn", gd, series.samples, gd)
        y = 0.5 * (y + y.transpose(0, 2, 1))
        c, s = np.cos(np.outer(times, basis.omegas)), np.sin(np.outer(times, basis.omegas))
        if quadrature != rc.FIELD:
            c, s = s, c
        n = basis.n_modes
        want = np.zeros((3, n, n))   # Q~, P~, R~ with R~ negated for momentum below
        for m in range(n):
            for k in range(m, n):
                design = np.stack([c[:, m] * c[:, k], s[:, m] * s[:, k],
                                   c[:, m] * s[:, k], s[:, m] * c[:, k]], axis=1)
                x = np.linalg.lstsq(design, y[:, m, k], rcond=None)[0]
                want[0, m, k] = want[0, k, m] = x[0]
                want[1, m, k] = want[1, k, m] = x[1]
                want[2, m, k], want[2, k, m] = x[2], x[3]
        if quadrature != rc.FIELD:
            want[2] *= -1.0
        for got, block in zip((result.qt, result.pt, result.rt), want):
            assert np.max(np.abs(got - block)) <= 1e-9 * np.max(np.abs(block))

    def test_fit_reads_no_sampled_basis(self, monkeypatch):
        basis = film_basis(3, 4, ly=3.7e-3)
        g0 = squeezed_covariance(basis)
        series = rc.synth_two_point(g0, basis, DERIVED, rc.suggested_times(basis))
        want = rc.fit_covariance(series, basis, DERIVED)

        def refused(self):
            raise AssertionError("fit_covariance read ModeBasis.sampled")

        monkeypatch.setattr(type(basis), "sampled", property(refused))
        got = rc.fit_covariance(series, basis, DERIVED)
        assert np.array_equal(got.qt, want.qt) and got.residual_rms == want.residual_rms

    def test_fit_never_calls_pixel_observable(self, monkeypatch):
        # both passes read the samples through half transforms; the dense
        # model generator is synthesis's alone
        basis = film_basis(3, 4, ly=3.7e-3)
        g0 = squeezed_covariance(basis)
        series = rc.synth_two_point(g0, basis, DERIVED, rc.suggested_times(basis))

        def refuse(*args, **kwargs):
            raise AssertionError("fit_covariance called _pixel_observable")

        monkeypatch.setattr(rc, "_pixel_observable", refuse)
        result = rc.fit_covariance(series, basis, DERIVED)
        assert np.max(np.abs(result.gamma().data - g0.data)) <= 1e-8 * np.max(np.abs(g0.data))

    @pytest.mark.parametrize("per_batch", [1, 3])
    def test_fit_does_not_depend_on_the_batch_size(self, monkeypatch, per_batch):
        # batches of 1 and 3 samples, whose edges do not fall on the edges
        # of the phase chunks the Gram sums are read in, give the fit made
        # in batches sized from the default step, on a noisy series with R~ != 0
        basis = film_basis(3, 4, ly=3.7e-3)
        n_pix = basis.grid.n_pixels
        g0 = squeezed_covariance(basis)
        times = rc.suggested_times(basis)
        clean = rc.synth_two_point(g0, basis, DERIVED, times)
        series = rc.synth_two_point(g0, basis, DERIVED, times, seed=7,
                                    noise_sigma=1e-3 * np.max(np.abs(clean.packed)))
        want = rc.fit_covariance(series, basis, DERIVED)
        sample = 8 * n_pix * (2 + 4 * n_pix)   # a sample's share of a batch
        monkeypatch.setattr(rc, "_CHUNK_BYTES", sample * per_batch + sample // 2)
        chunk = rc._rows(5 * 8 * n_pix)
        assert rc._batch(n_pix) == per_batch and times.size > chunk
        assert per_batch == 1 or chunk % per_batch   # a batch straddles two chunks
        got = rc.fit_covariance(series, basis, DERIVED)
        for block in ("qt", "pt", "rt"):
            w, g = getattr(want, block), getattr(got, block)
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))
        assert abs(got.residual_rms - want.residual_rms) <= 1e-12 * want.residual_rms
        assert got.unidentifiable_pairs == want.unidentifiable_pairs

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
