import math

import numpy as np
import pytest

from thirdsound import (FilmParams, HBAR, K_B, bose_einstein, derive_params,
                        dispersion_thin_film, quantum_regime_report)
from thirdsound.geometry import BoundarySpec, Grid, build_basis

BASE = dict(h0=80e-9, alpha_vdw=2.6e-24, temperature=0.3)


def film(**overrides):
    kw = dict(BASE)
    kw.update(overrides)
    return FilmParams(**kw)


def test_constants():
    assert HBAR == 1.054571817e-34
    assert K_B == 1.380649e-23


class TestDeriveParams:
    def test_effective_gravity_exact(self):
        d = derive_params(film())
        assert d.g_eff == 3.0 * 2.6e-24 / (80e-9) ** 4

    def test_third_sound_speed_matches_reported_value(self):
        d = derive_params(film())
        assert abs(d.c3 - 0.1234) < 0.005
        assert d.c3 == pytest.approx(math.sqrt(d.g_eff * 80e-9), rel=1e-15)

    def test_luttinger_stiffness_matches_reported_value(self):
        d = derive_params(film(rho=145.0, m4=6.6465e-27))
        assert abs(d.luttinger_k - 2.21e14) / 2.21e14 < 0.05

    def test_capillary_length_hand_value(self):
        # ell_c = sqrt(sigma / (rho g_eff)) evaluated by hand
        d = derive_params(film(sigma=3.54e-4, rho=145.0))
        assert d.ell_c == pytest.approx(math.sqrt(3.54e-4 / (145.0 * d.g_eff)), rel=1e-15)
        assert d.ell_c == pytest.approx(3.58e-6, rel=1e-3)

    def test_invalid_film_rejected(self):
        with pytest.raises(ValueError):
            FilmParams(h0=0.0, alpha_vdw=2.6e-24, temperature=0.3)
        with pytest.raises(ValueError):
            FilmParams(h0=80e-9, alpha_vdw=-1.0, temperature=0.3)
        with pytest.raises(ValueError):
            FilmParams(h0=80e-9, alpha_vdw=2.6e-24, temperature=-0.1)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["h0", "alpha_vdw", "temperature", "sigma", "rho", "m4"])
    def test_non_finite_film_value_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"film.{name} must be finite"):
            film(**{name: bad})


class TestDispersion:
    def test_zero_wavenumber(self):
        d = derive_params(film())
        assert dispersion_thin_film(0.0, d, 80e-9) == 0.0

    def test_linear_regime_limit(self):
        d = derive_params(film())
        k = 100.0
        assert abs(dispersion_thin_film(k, d, 80e-9) / (d.c3 * k) - 1.0) < 1e-3

    def test_first_cell_mode_frequency(self):
        # k = pi/5mm fundamental: omega ~ c3*k = 77.55 rad/s by hand
        d = derive_params(film())
        w = dispersion_thin_film(628.3, d, 80e-9)
        assert w == pytest.approx(77.55, abs=0.1)

    def test_monotone_in_k(self):
        d = derive_params(film())
        for h0 in (20e-9, 80e-9, 300e-9):
            k = np.linspace(0.0, 1e7, 2000)
            w = dispersion_thin_film(k, d, h0)
            assert np.all(np.diff(w) > 0)

    def test_agrees_with_linear_in_shallow_regime(self):
        d = derive_params(film())
        h0 = 80e-9
        k_max = min(0.05 / h0, 0.05 / d.ell_c)
        k = np.linspace(1.0, k_max, 500)
        w_full = dispersion_thin_film(k, d, h0)
        w_lin = d.c3 * k
        assert np.max(np.abs(w_full / w_lin - 1.0)) < 1e-2


class TestBoseEinstein:
    def test_analytic_points(self):
        # hbar w / kB T = ln 2  ->  n = 1
        t = 1.0
        w = math.log(2.0) * K_B * t / HBAR
        assert bose_einstein(w, t) == pytest.approx(1.0, rel=1e-12)
        w = K_B * t / HBAR
        assert bose_einstein(w, t) == pytest.approx(0.581977, rel=1e-5)

    def test_zero_temperature(self):
        assert bose_einstein(100.0, 0.0) == 0.0

    def test_film_mode_occupation(self):
        n = bose_einstein(77.6, 0.3)
        assert n == pytest.approx(5.06e8, rel=1e-2)

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            bose_einstein(0.0, 0.3)
        with pytest.raises(ValueError):
            bose_einstein(-1.0, 0.3)
        with pytest.raises(ValueError):
            bose_einstein(np.array([77.6, math.nan]), 0.3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_temperature_rejected(self, bad):
        with pytest.raises(ValueError, match="temperature must be finite"):
            bose_einstein(77.6, bad)
        with pytest.raises(ValueError, match="temperature must be finite"):
            bose_einstein(np.array([77.6, 80.0]), bad)

    def test_detailed_balance_identity(self):
        # n + 1 = exp(hbar w / kB T) * n
        w = np.logspace(0, 12, 40)
        t = 0.3
        n = bose_einstein(w, t)
        x = HBAR * w / (K_B * t)
        keep = x < 500
        assert np.allclose(n[keep] + 1.0, np.exp(x[keep]) * n[keep], rtol=1e-12)


class TestQuantumRegime:
    def test_micron_cell_quantum_temperature(self):
        # 50 nm film in a 1 um cell; lowest Dirichlet mode in the
        # third-sound (linear) regime sits at a few microkelvin
        f = film(h0=50e-9, temperature=0.0)
        d = derive_params(f)
        grid = Grid(1e-6, 1e-6, 4, 4)
        basis = build_basis(grid, BoundarySpec.dirichlet(),
                            lambda k: d.c3 * k)
        report = quantum_regime_report(basis, 1e-3)
        assert 0.5e-6 < report.t_quantum < 10e-6

    def test_zero_temperature_all_quantum(self):
        d = derive_params(film())
        grid = Grid(5e-3, 5e-3, 4, 4)
        basis = build_basis(grid, BoundarySpec.dirichlet(),
                            lambda k: dispersion_thin_film(k, d, 80e-9))
        report = quantum_regime_report(basis, 0.0)
        assert report.n_quantum == basis.n_modes

    def test_paper_scale_cell_is_classical(self):
        f = film()
        d = derive_params(f)
        grid = Grid(5e-3, 5e-3, 20, 20)
        basis = build_basis(grid, BoundarySpec.dirichlet(),
                            lambda k: dispersion_thin_film(k, d, f.h0))
        report = quantum_regime_report(basis, 0.3)
        assert basis.n_modes == 400
        assert report.n_classical == 400
        assert report.ratios.min() == pytest.approx(2.8e-9, rel=0.5)
