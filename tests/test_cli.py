from pathlib import Path

import numpy as np
import pytest

from thirdsound import cli, fitting, regions
from thirdsound.errors import (ConfigError, NumericalError,
                               UnphysicalCovarianceError, UnstableRobinError)

BASELINE = """
# thin-film cell
film.h0 = 80e-9
film.alpha_vdw = 2.6e-24
film.temperature = 0.3
grid.lx = 5e-3
grid.ly = 5e-3
grid.nx = 8
grid.ny = 8
boundary.kind = dirichlet
sweep.buffer = 1
sweep.include_cell_boundary = true
sweep.fixed_volume = 4
reconstruct.n_times = 40
reconstruct.seed = 11
"""


REPO = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted((REPO / "configs").glob("*.cfg")) + sorted(
    (REPO / "benchmark" / "configs").glob("*.cfg"))


def write_config(tmp_path, text=BASELINE, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_round_trip_hash_stable(self):
        cfg = cli.parse_config(BASELINE)
        emitted = cli.emit_config(cfg)
        assert cli.config_hash(cli.parse_config(emitted)) == cli.config_hash(cfg)

    def test_missing_key_named(self):
        with pytest.raises(ConfigError) as err:
            cli.parse_config("film.h0 = 80e-9\n")
        assert "film.alpha_vdw" in str(err.value)

    def test_bad_line_number_reported(self):
        text = "film.h0 = 80e-9\nfilm.alpha_vdw = not_a_number\n"
        with pytest.raises(ConfigError) as err:
            cli.parse_config(text)
        assert "line 2" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config(BASELINE + "film.unknown = 2\n")

    def test_robin_requires_alpha(self):
        text = BASELINE.replace("boundary.kind = dirichlet", "boundary.kind = robin")
        with pytest.raises(ConfigError) as err:
            cli.parse_config(text)
        assert "boundary.alpha" in str(err.value)

    def test_exit_code_mapping(self):
        assert cli.exit_code_for(ConfigError("x")) == 2
        assert cli.exit_code_for(ValueError("x")) == 2
        assert cli.exit_code_for(NumericalError("x")) == 3
        assert cli.exit_code_for(UnstableRobinError("x")) == 3
        assert cli.exit_code_for(UnphysicalCovarianceError("x")) == 4
        assert cli.exit_code_for(NotADirectoryError("x")) == 2

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        cfg = cli.load_config(str(path))
        assert cli.parse_config(cli.emit_config(cfg)) == cfg

    def test_shipped_configs_found(self):
        assert len(SHIPPED_CONFIGS) >= 2

    @pytest.mark.parametrize("line", ["threads = 4", "film.mass = 1e-27",
                                      "boundary.include_zero_mode = true"])
    def test_removed_keys_rejected(self, line):
        with pytest.raises(ConfigError, match="unknown key"):
            cli.parse_config(BASELINE + line + "\n")


class TestCommands:
    def test_params_prints_third_sound_speed(self, tmp_path, capsys):
        code = cli.main(["params", "--config", write_config(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "c3=0.1234" in out

    def test_missing_config_key_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "film.h0 = 80e-9\n")
        assert cli.main(["params", "--config", path]) == 2
        assert "film.temperature" in capsys.readouterr().err

    def test_sweep_volume_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["sweep-volume", "--config", write_config(tmp_path),
                         "--out", str(out)])
        assert code == 0
        lines = (out / "sweep_volume.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")]
        assert header[0] == "divider_index,volume_m2,mi_nats"
        assert len(header) == 1 + 6   # 8 columns, buffer 1
        assert any(l.startswith("# config_hash=") for l in lines)
        assert any("mask_a=" in l for l in lines)
        assert any("sine_argument_convention=pixel_fraction" in l for l in lines)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["sweep-volume", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["sweep-volume", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "sweep_volume.csv").read_bytes() == (out2 / "sweep_volume.csv").read_bytes()

    def test_sweep_area_csv(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["sweep-area", "--config", write_config(tmp_path),
                         "--out", str(out), "--svg"])
        assert code == 0
        lines = (out / "sweep_area.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")]
        assert header[0] == "perimeter_m,mi_nats,corner_count"
        assert (out / "sweep_area.svg").exists()

    def test_mi_map_csv(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["mi-map", "--config", write_config(tmp_path),
                         "--out", str(out), "--svg"])
        assert code == 0
        rows = [l for l in (out / "mi_map.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert rows[0] == "ix,iy,mi_nats"
        assert len(rows) == 1 + 36   # 6x6 interior of the 8x8 grid
        assert (out / "mi_map.svg").exists()

    @pytest.mark.parametrize("temperature, route", [("0.3", "classical"), ("0", "exact")])
    def test_mi_tables_name_their_entropy_route(self, tmp_path, temperature, route):
        cfg_text = BASELINE.replace("film.temperature = 0.3", f"film.temperature = {temperature}")
        cfg = write_config(tmp_path, cfg_text)
        out = tmp_path / "out"
        tables = {"sweep-volume": "sweep_volume.csv", "sweep-area": "sweep_area.csv",
                  "mi-map": "mi_map.csv"}
        for command, name in tables.items():
            assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
            lines = (out / name).read_text().splitlines()
            routes = [l for l in lines if l.startswith("# entropy_route=")]
            assert len(routes) == 1
            fields = dict(item.split("=") for item in routes[0][2:].split())
            assert fields["entropy_route"] == route
            bound = float(fields["error_bound_nats"])
            assert (bound <= 1e-10) == (route == "classical")
            assert f"# config_hash={cli.config_hash(cli.parse_config(cfg_text))}" in lines
            assert not any(l.startswith("# fit ") for l in lines)

    def test_reconstruct_csv(self, tmp_path):
        out = tmp_path / "out"
        small = BASELINE.replace("grid.nx = 8", "grid.nx = 3").replace("grid.ny = 8",
                                                                       "grid.ny = 3")
        code = cli.main(["reconstruct", "--config", write_config(tmp_path, small),
                         "--out", str(out)])
        assert code == 0
        lines = [l for l in (out / "reconstruct.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "relative_frobenius_error,residual_rms,n_unidentifiable"
        err = float(lines[1].split(",")[0])
        assert err < 1e-6

    def test_reconstruct_time_subset_well_conditioned(self, tmp_path):
        # 50 of the suggested times, drawn at random, keep every beat note
        # apart; 50 evenly spaced ones alias them to cond(A) ~ 1e2
        out = tmp_path / "out"
        cfg = BASELINE.replace("grid.nx = 8", "grid.nx = 10").replace(
            "grid.ny = 8", "grid.ny = 10").replace("n_times = 40", "n_times = 50")
        assert cli.main(["reconstruct", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)]) == 0
        lines = (out / "reconstruct.csv").read_text().splitlines()
        header = dict(l[2:].split("=", 1) for l in lines if l.startswith("# ") and "=" in l)
        assert header["n_times"] == "50"
        assert float(header["design_condition"]) < 3.0
        assert float(lines[-1].split(",")[0]) < 1e-12

    def test_seed_flag_equals_config_seed(self, tmp_path):
        # the seed draws the time subset and the noise; the flag sets it
        # before the config hash is taken, so the files match byte for byte
        small = BASELINE.replace("grid.nx = 8", "grid.nx = 3").replace(
            "grid.ny = 8", "grid.ny = 3") + "reconstruct.noise_sigma = 1e-3\n"
        seeded = small.replace("reconstruct.seed = 11", "reconstruct.seed = 5")
        runs = {"flag": (small, ["--seed", "5"]), "config": (seeded, []),
                "default": (small, [])}
        text = {}
        for name, (cfg, extra) in runs.items():
            out = tmp_path / name
            path = write_config(tmp_path, cfg, name=f"{name}.cfg")
            assert cli.main(["reconstruct", "--config", path, "--out", str(out)] + extra) == 0
            text[name] = (out / "reconstruct.csv").read_text()
        assert text["flag"] == text["config"]
        assert f"# config_hash={cli.config_hash(cli.parse_config(seeded))}" in text["flag"]
        assert text["default"].splitlines()[-1] != text["flag"].splitlines()[-1]

    def test_reconstruct_with_noise(self, tmp_path):
        # sigma is relative to the mean absolute sample at the first time
        small = BASELINE.replace("grid.nx = 8", "grid.nx = 3").replace(
            "grid.ny = 8", "grid.ny = 3").replace("reconstruct.n_times = 40", "")
        noisy = small + "reconstruct.noise_sigma = 1e-3\n"
        out = tmp_path / "out"
        assert cli.main(["reconstruct", "--config", write_config(tmp_path, noisy),
                         "--out", str(out)]) == 0
        lines = (out / "reconstruct.csv").read_text().splitlines()
        header = dict(l[2:].split("=", 1) for l in lines if l.startswith("# ") and "=" in l)
        cfg = cli.parse_config(noisy)
        film, derived, basis = cli._film_basis(cfg)
        gamma_modes = cli.gaussian.thermal_momentum_covariance(basis, film.temperature)
        probe = cli.reconstruct.synth_two_point(gamma_modes, basis, derived,
                                                cli.reconstruct.suggested_times(basis)[:1])
        sigma = 1e-3 * float(np.mean(np.abs(probe.samples)))
        assert header["noise_sigma_absolute"] == f"{sigma:.17g}"
        err, rms, _ = map(float, lines[-1].split(","))
        # the residual is the noise, less the ~2 % of its power that the
        # 180 fitted numbers absorb from 205 x 45 noisy entries
        assert 0.9 * sigma < rms < 1.05 * sigma
        assert 1e-6 < err < 1e-2

    def test_sweep_volume_svg(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["sweep-volume", "--config", write_config(tmp_path),
                         "--out", str(out), "--svg"]) == 0
        svg = (out / "sweep_volume.svg").read_text()
        assert svg.startswith("<svg") and svg.count("<circle") == 6
        assert "nan" not in svg

    def test_fit_calabrese_svg_plots_the_prediction(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["fit-calabrese", "--config", write_config(tmp_path),
                         "--out", str(out), "--svg"]) == 0
        svg = (out / "fit_calabrese.svg").read_text()
        assert svg.startswith("<svg") and svg.count("<circle") == 6
        assert "nan" not in svg and "finite-size fit" in svg
        sweep = regions.run_volume_sweep(cli.build_pipeline(cli.parse_config(BASELINE)))
        fit = fitting.calabrese_fit(sweep)
        grid = sweep.points[0].pair.a.grid
        fr = np.array([p.stats.pixel_count for p in sweep.points]) / grid.n_pixels
        reference = tmp_path / "reference.svg"
        cli.write_line_svg(reference, sweep.abscissae, fit.predict(fr, grid.n_pixels),
                           "finite-size fit", "volume (m^2)", "MI (nats)")
        assert svg == reference.read_text()

    def test_interior_sweep_on_short_grid_exit_2(self, tmp_path, capsys):
        # 8x2 has no interior row: rejected as too small, not left to an empty selection
        cfg = BASELINE.replace("grid.ny = 8", "grid.ny = 2").replace(
            "sweep.include_cell_boundary = true", "sweep.include_cell_boundary = false")
        out = tmp_path / "out"
        assert cli.main(["sweep-volume", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: grid too small for buffer 1"]
        assert not out.exists()

    def test_mi_map_on_3x3_grid_exit_2(self, tmp_path, capsys):
        # a 3x3 grid's interior is one pixel: rejected, not left to an empty selection
        cfg = BASELINE.replace("grid.nx = 8", "grid.nx = 3").replace("grid.ny = 8", "grid.ny = 3")
        out = tmp_path / "out"
        assert cli.main(["mi-map", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: mi_map needs an interior of at least two pixels; the 3x3 grid has 1"]
        assert not out.exists()

    def test_fit_calabrese_csv(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["fit-calabrese", "--config", write_config(tmp_path),
                         "--out", str(out)])
        assert code == 0
        text = (out / "fit_calabrese.csv").read_text()
        assert "kappa1,kappa2,kappa3,rms" in text
        sweep_text = (out / "sweep_volume.csv").read_text()
        assert "# fit kappa1=" in sweep_text

    @pytest.mark.parametrize("config, converged", [
        ("configs/baseline.cfg", True),
        # on 10x10 the rms falls all the way to the end of the kappa2 scan
        ("benchmark/configs/reconstruct-dirichlet-10.cfg", False)])
    def test_fit_calabrese_csv_says_whether_converged(self, tmp_path, config, converged):
        out = tmp_path / "out"
        assert cli.main(["fit-calabrese", "--config", str(REPO / config), "--out", str(out)]) == 0
        lines = (out / "fit_calabrese.csv").read_text().splitlines()
        assert [line for line in lines if "converged" in line] == [f"# converged={converged}"]
        assert lines[-2] == "kappa1,kappa2,kappa3,rms" and len(lines[-1].split(",")) == 4

    def test_fit_calabrese_sweep_csv_matches_sweep_volume(self, tmp_path):
        # one writer: the two files differ only in the command line and the fit footer
        cfg = write_config(tmp_path)
        fit_out, sweep_out = tmp_path / "fit", tmp_path / "sweep"
        assert cli.main(["fit-calabrese", "--config", cfg, "--out", str(fit_out)]) == 0
        assert cli.main(["sweep-volume", "--config", cfg, "--out", str(sweep_out)]) == 0
        fit_lines = (fit_out / "sweep_volume.csv").read_text().splitlines()
        sweep_lines = (sweep_out / "sweep_volume.csv").read_text().splitlines()
        assert fit_lines[-1].startswith("# fit kappa1=")
        assert fit_lines[1] == "# command=fit-calabrese"
        assert sweep_lines[1] == "# command=sweep-volume"
        assert fit_lines[2:-1] == sweep_lines[2:]

    def test_fit_area_needs_enough_points(self, tmp_path, capsys):
        # 4-pixel rectangles on an 8x8 grid give only 3 shapes: 1x4, 2x2, 4x1
        out = tmp_path / "out"
        code = cli.main(["fit-area", "--config", write_config(tmp_path),
                         "--out", str(out)])
        assert code == 2
        assert "4 sweep points" in capsys.readouterr().err

    def test_fit_area_csv(self, tmp_path):
        out = tmp_path / "out"
        cfg = BASELINE.replace("sweep.fixed_volume = 4", "sweep.fixed_volume = 8")
        code = cli.main(["fit-area", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)])
        assert code == 0
        lines = [l for l in (out / "fit_area.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "slope,intercept,r2"

    def test_memory_error_exit_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg, out_dir, svg):
            raise MemoryError("cannot allocate sample array")

        monkeypatch.setitem(cli._COMMANDS, "params", exhausted)
        assert cli.main(["params", "--config", write_config(tmp_path)]) == 3
        assert "cannot allocate" in capsys.readouterr().err

    def test_unknown_quadrature_exit_2_before_synthesis(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("samples synthesised")

        monkeypatch.setattr(cli.reconstruct, "synth_two_point", refuse)
        cfg = BASELINE + "reconstruct.quadrature = fieldd\n"
        out = tmp_path / "out"
        assert cli.main(["reconstruct", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "reconstruct.quadrature" in err and "'fieldd'" in err
        assert not out.exists()

    def test_alpha_on_dirichlet_exit_2(self, tmp_path, capsys):
        cfg = BASELINE.replace("boundary.kind = dirichlet",
                               "boundary.kind = dirichlet\nboundary.alpha = 200.0")
        assert cli.main(["params", "--config", write_config(tmp_path, cfg)]) == 2
        assert "only meaningful for Robin" in capsys.readouterr().err

    def test_unstable_robin_exit_3(self, tmp_path, capsys):
        cfg = BASELINE.replace("boundary.kind = dirichlet",
                               "boundary.kind = robin\nboundary.alpha = -100")
        assert cli.main(["params", "--config", write_config(tmp_path, cfg)]) == 3
        assert "bound mode" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep-volume", "fit-area"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("a regular file, not a directory\n")
        cfg = BASELINE.replace("sweep.fixed_volume = 4", "sweep.fixed_volume = 8")
        code = cli.main([command, "--config", write_config(tmp_path, cfg),
                         "--out", str(blocker / "out")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "file" in err[0]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["h0", "alpha_vdw", "temperature", "sigma", "rho", "m4"])
    def test_non_finite_film_value_exit_2(self, tmp_path, capsys, key, value):
        lines = [l for l in BASELINE.splitlines() if not l.startswith(f"film.{key} ")]
        cfg = "\n".join(lines + [f"film.{key} = {value}"]) + "\n"
        assert cli.main(["params", "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: film.{key} must be finite")

    @pytest.mark.parametrize("line", ["reconstruct.noise_sigma = nan",
                                      "reconstruct.noise_sigma = inf",
                                      "reconstruct.noise_sigma = -0.1",
                                      "reconstruct.n_times = -1"])
    def test_invalid_reconstruct_value_exit_2(self, tmp_path, capsys, monkeypatch, line):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "_film_basis", refuse)
        cfg = BASELINE.replace("reconstruct.n_times = 40\n", "") + line + "\n"
        out = tmp_path / "out"
        assert cli.main(["reconstruct", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        key = line.split(" =")[0]
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key} must be finite")
        assert not out.exists()

    def test_nan_temperature_sweep_exit_2(self, tmp_path, capsys):
        cfg = BASELINE.replace("film.temperature = 0.3", "film.temperature = nan")
        out = tmp_path / "out"
        assert cli.main(["sweep-area", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)]) == 2
        assert "film.temperature must be finite" in capsys.readouterr().err
        assert not out.exists()
