from pathlib import Path

import numpy as np
import pytest

from thirdsound import cli, fitting, regions

REPO = Path(__file__).resolve().parents[1]


def planted_curve(n_total=400, kappa=(2.0, 1.0, 0.5), n_points=18, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    f = np.linspace(0.05, 0.95, n_points)
    y = fitting.calabrese_model(f, n_total, *kappa)
    return f, y + rng.normal(0.0, noise, size=n_points)


def sweep_curve(config):
    """Pixel fractions, MI values and pixel count of a config's volume sweep."""
    cfg = cli.load_config(str(REPO / config))
    sweep = regions.run_volume_sweep(cli.build_pipeline(cfg), buffer=cfg.sweep_buffer,
                                     include_cell_boundary=cfg.sweep_include_cell_boundary)
    n_total = cfg.grid_nx * cfg.grid_ny
    fractions = np.array([p.stats.pixel_count for p in sweep.points]) / n_total
    return fractions, sweep.mi_values, n_total


class TestCalabreseFit:
    def test_recovers_planted_parameters(self):
        f, y = planted_curve(noise=1e-6)
        fit = fitting.fit_calabrese_curve(f, y, 400)
        assert fit.kappa1 == pytest.approx(2.0, abs=1e-3)
        assert fit.kappa2 == pytest.approx(1.0, abs=1e-2)
        assert fit.kappa3 == pytest.approx(0.5, abs=1e-3)
        assert fit.rms < 1e-5

    def test_model_symmetric_about_half(self):
        f = np.linspace(0.1, 0.9, 17)
        y = fitting.calabrese_model(f, 400, 3.0, 2.0, 1.0)
        assert np.allclose(y, y[::-1], rtol=1e-12)

    def test_point_order_irrelevant(self):
        f, y = planted_curve(noise=1e-4, seed=3)
        rng = np.random.default_rng(1)
        perm = rng.permutation(f.size)
        fit1 = fitting.fit_calabrese_curve(f, y, 400)
        fit2 = fitting.fit_calabrese_curve(f[perm], y[perm], 400)
        assert fit1.kappa1 == pytest.approx(fit2.kappa1, rel=1e-9)
        assert fit1.rms == pytest.approx(fit2.rms, rel=1e-9)

    def test_descent_from_every_start(self):
        # final residual never exceeds the best initial guess
        f, y = planted_curve(kappa=(0.8, 5.0, -2.0), noise=1e-3, seed=7)
        best_start = np.inf
        base = (400 / np.pi) * np.sin(np.pi * f)
        for k1 in (0.1, 1.0, 10.0):
            for k2 in (0.0, 1.0, 10.0):
                k3 = float(np.mean(y - k1 * np.log(base + k2)))
                r = k1 * np.log(base + k2) + k3 - y
                best_start = min(best_start, float(np.sqrt(np.mean(r ** 2))))
        fit = fitting.fit_calabrese_curve(f, y, 400)
        assert fit.rms <= best_start + 1e-12

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fitting.fit_calabrese_curve([0.2, 0.4, 0.6, 0.8], [1, 2, 2, 1], 400)

    @pytest.mark.parametrize("source", ["planted", "configs/baseline.cfg",
                                        "benchmark/configs/map-neumann-16.cfg"])
    def test_kappas_stable_under_rounding_noise(self, source):
        # +-1e-12 nats on the MI values move the kappas by at most 1e-9 relative
        if source == "planted":
            (f, y), n_total = planted_curve(kappa=(0.8, 5.0, -2.0), noise=1e-3, seed=7), 400
        else:
            f, y, n_total = sweep_curve(source)
        ref = fitting.fit_calabrese_curve(f, y, n_total)
        assert ref.converged
        rng = np.random.default_rng(0)
        for _ in range(20):
            fit = fitting.fit_calabrese_curve(f, y + rng.uniform(-1e-12, 1e-12, y.size), n_total)
            assert fit.converged
            for name in ("kappa1", "kappa2", "kappa3"):
                assert getattr(fit, name) == pytest.approx(getattr(ref, name), rel=1e-9)

    def test_best_kappa2_outside_scan_not_converged(self):
        # the planted log singularity lies 1e-9 min(base) below the smallest
        # point, past the scan's lower end at 1e-6 min(base)
        f = np.linspace(0.05, 0.95, 18)
        base_min = (400 / np.pi) * np.sin(np.pi * f[0])
        y = fitting.calabrese_model(f, 400, 1.0, -base_min * (1 - 1e-9), 0.0)
        fit = fitting.fit_calabrese_curve(f, y, 400)
        assert not fit.converged
        assert fit.kappa2 == pytest.approx(-base_min * (1 - 1e-6), rel=1e-12)

    @pytest.mark.parametrize("argument", ["fractions", "mi_values"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, argument, bad):
        f, y = planted_curve()
        (f if argument == "fractions" else y)[3] = bad
        with pytest.raises(ValueError, match=f"{argument} must be finite"):
            fitting.fit_calabrese_curve(f, y, 400)

    def test_all_starts_inadmissible(self):
        # negative sine argument cannot happen for f in (0,1); force failure
        # through fractions outside the domain instead
        with pytest.raises(ValueError):
            fitting.fit_calabrese_curve([0.0, 0.2, 0.4, 0.6, 0.8], np.ones(5), 400)


class TestAreaLawFit:
    def test_exact_line(self):
        x = np.linspace(1.0, 2.0, 6)
        fit = fitting.fit_area_line(x, 3.0 * x + 0.25)
        assert fit.slope == pytest.approx(3.0, rel=1e-12)
        assert fit.intercept == pytest.approx(0.25, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert not fit.superlinear

    def test_constant_data(self):
        fit = fitting.fit_area_line([1.0, 2.0, 3.0, 4.0], [2.0] * 4)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_flagged_superlinear(self):
        x = np.linspace(1.0, 5.0, 12)
        fit = fitting.fit_area_line(x, x ** 2)
        assert fit.superlinear

    def test_slope_sign_on_monotone_data(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = np.sort(rng.uniform(0.0, 1.0, size=6))
            increments = rng.uniform(0.1, 1.0, size=6)
            fit_up = fitting.fit_area_line(x, np.cumsum(increments))
            fit_down = fitting.fit_area_line(x, -np.cumsum(increments))
            assert fit_up.slope > 0
            assert fit_down.slope < 0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fitting.fit_area_line([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("argument", ["areas", "mi_values"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, argument, bad):
        x = np.linspace(1.0, 2.0, 6)
        y = 3.0 * x + 0.25
        (x if argument == "areas" else y)[3] = bad
        with pytest.raises(ValueError, match=f"{argument} must be finite"):
            fitting.fit_area_line(x, y)
