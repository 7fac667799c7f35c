"""One round of one benchmark workload, in a fresh process.

    python3 benchmark/worker.py WORKLOAD --out DIR --seed N [--trace] [--setup-only]

The round is timed from the start of this script to the last output
written; the program's outputs are then checked against ``oracle`` and
the result is printed as one JSON line.  With --setup-only the process
imports ``thirdsound`` and builds the workload's thermal state(s), and
reports only that time.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
# numpy, and oracle which imports it, are imported inside functions that run
# after the timed import of thirdsound, so set-up time includes numpy's import.

# CLI workloads: commands run in order through thirdsound.cli.main
CLI_COMMANDS = {"sweep-dirichlet-20": ("sweep-area", "fit-calabrese"),
                "map-neumann-16": ("mi-map",)}
LIBRARY = ("reconstruct-dirichlet-10", "tilemap-dirichlet-48")
WORKLOADS = tuple(CLI_COMMANDS) + LIBRARY
TILE = 3


class Round:
    """Operations attempted and failed, and what went wrong.  An operation
    fails if it raises, exits non-zero or misses its check; `wrong` counts
    the operations that completed and missed their check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []

    def record(self, label: str, problems: list, completed: bool = True) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += completed
            self.problems.extend(f"{label}: {p}" for p in problems)

    def record_exit(self, command: str, code, check) -> None:
        """A CLI command: its exit code, then `check()` if it exited 0."""
        if code != 0:
            self.record(command, [f"exit code {code}"], completed=False)
        else:
            self.record(command, check())


def read_config(path) -> dict:
    """Flat ``section.key = value`` text; numbers become floats."""
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, raw = line.partition("=")
            try:
                values[key.strip()] = float(raw)
            except ValueError:
                values[key.strip()] = raw.strip()
    return values


def build_state(ts, cfg: dict):
    """Library path to the thermal state, as cli.build_pipeline takes it."""
    film = ts.FilmParams(h0=cfg["film.h0"], alpha_vdw=cfg["film.alpha_vdw"],
                         temperature=cfg["film.temperature"], sigma=cfg["film.sigma"],
                         rho=cfg["film.rho"], m4=cfg["film.m4"])
    derived = ts.derive_params(film)
    grid = ts.Grid(lx=cfg["grid.lx"], ly=cfg["grid.ly"],
                   nx=int(cfg["grid.nx"]), ny=int(cfg["grid.ny"]))
    boundary = ts.BoundarySpec(ts.BoundaryKind(cfg["boundary.kind"]))
    basis = ts.build_basis(grid, boundary,
                           lambda k: ts.dispersion_thin_film(k, derived, film.h0))
    gamma_modes = ts.thermal_momentum_covariance(basis, film.temperature)
    gamma_real = ts.to_real_space(gamma_modes, basis, derived)
    return derived, basis, gamma_modes, gamma_real


def _timed(fn, sink: list):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - t0)
    return wrapper


# ---------------------------------------------------------------------------
# workloads: each returns what its checks need

def run_cli(name, cfg_path, out, seed, setup):
    cli = importlib.import_module("thirdsound.cli")
    cli.build_pipeline = _timed(cli.build_pipeline, setup)
    codes = {}
    for command in CLI_COMMANDS[name]:
        argv = [command, "--config", str(cfg_path), "--out", str(out), "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                codes[command] = cli.main(argv)
            except Exception as exc:   # noqa: BLE001 - counted as a failed operation
                codes[command] = f"raised {exc!r}"
    return codes


def run_reconstruct(ts, cfg, out, seed, setup):
    import numpy as np
    t0 = time.perf_counter()
    derived, basis, gamma_modes, _ = build_state(ts, cfg)
    setup.append(time.perf_counter() - t0)
    results = {}
    try:
        results["times"] = ts.suggested_times(basis)
        series = ts.synth_two_point(gamma_modes, basis, derived, results["times"],
                                    quadrature="field", noise_sigma=0.0, seed=seed)
        results["series"] = series
        fit = ts.fit_covariance(series, basis, derived)
        results["fit"] = fit
        results["modes"] = [m.index for m in basis.modes]
        np.savez(out / "reconstruct.npz", seed=seed, mode_index=results["modes"],
                 qt=fit.qt, pt=fit.pt, rt=fit.rt)
    except Exception as exc:   # noqa: BLE001 - the remaining operations fail
        results["error"] = repr(exc)
    return results


def run_tilemap(ts, cfg, out, setup):
    import oracle
    t0 = time.perf_counter()
    _, _, _, gamma = build_state(ts, cfg)
    setup.append(time.perf_counter() - t0)
    centre, a, tiles = oracle.tile_grid(int(cfg["grid.nx"]), int(cfg["grid.ny"]), TILE)
    values = {}
    for key, b in tiles.items():
        try:
            values[key] = ts.mutual_information(gamma, a, b)
        except Exception as exc:   # noqa: BLE001 - counted as a failed operation
            values[key] = repr(exc)
    with open(out / "tilemap.csv", "w") as fh:
        fh.write(f"# centre tile {centre}, {TILE}x{TILE} pixels\ntx,ty,distance_tiles,mi_nats\n")
        for (tx, ty), mi in values.items():
            dist = ((tx - centre[0]) ** 2 + (ty - centre[1]) ** 2) ** 0.5
            fh.write(f"{tx},{ty},{dist:.17g},{mi!s}\n")
    return values


# ---------------------------------------------------------------------------
# checks, run after the timed part

def _read_csv(path: Path):
    """Data rows as float lists (column names skipped), and the comment lines."""
    lines = path.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")][1:]
    return [[float(v) for v in line.split(",")] for line in data], comments


def check_sweep(state, out: Path, rnd: Round, codes: dict, cfg: dict) -> None:
    import oracle
    import numpy as np
    tol = oracle.MI_TOL

    def area():
        rows, _ = _read_csv(out / "sweep_area.csv")
        groups = oracle.area_sweep_groups(state, int(cfg["sweep.fixed_volume"]))
        want = np.array([[perimeter, np.mean([state.mutual_information(a, b) for a, b in pairs])]
                         for perimeter, pairs in groups])
        got = np.array(rows).reshape(-1, 3)[:, :2]
        return (oracle.check_close("sweep_area.csv perimeter", got[:, 0], want[:, 0], 0.0, 1e-12)
                + oracle.check_close("sweep_area.csv MI", got[:, 1], want[:, 1], tol))

    def volume_and_fit():
        rows, comments = _read_csv(out / "sweep_volume.csv")
        pairs = oracle.volume_sweep_pairs(state.nx, state.ny)
        cell = state.lx * state.ly / (state.nx * state.ny)
        want = np.array([[d, d * state.ny * cell, state.mutual_information(a, b)]
                         for d, (a, b) in pairs.items()])
        data = np.array(rows).reshape(-1, 3)
        problems = (oracle.check_close("sweep_volume.csv divider, volume",
                                       data[:, :2], want[:, :2], 0.0, 1e-12)
                    + oracle.check_close("sweep_volume.csv MI", data[:, 2], want[:, 2], tol))
        fit_rows, _ = _read_csv(out / "fit_calabrese.csv")
        k1, k2, k3, rms = fit_rows[0]
        n_total = state.nx * state.ny
        frac = data[:, 0] * state.ny / n_total
        model = k1 * np.log(n_total / np.pi * np.sin(np.pi * frac) + k2) + k3
        recomputed = float(np.sqrt(np.mean((model - data[:, 2]) ** 2)))
        problems += oracle.check_close("fit_calabrese.csv rms", rms, recomputed, 1e-15, 1e-9)
        footer = [c for c in comments if c.startswith("# fit ")]
        if not footer or "converged=True" not in footer[-1].split():
            problems.append(f"fit footer does not say converged=True: {footer}")
        return problems

    rnd.record_exit("sweep-area", codes["sweep-area"], area)
    rnd.record_exit("fit-calabrese", codes["fit-calabrese"], volume_and_fit)


def check_map(state, out: Path, rnd: Round, codes: dict) -> None:
    import oracle
    import numpy as np

    def local():
        rows, _ = _read_csv(out / "mi_map.csv")
        interior = oracle.block_indices(state.ny, 1, state.nx - 1, 1, state.ny - 1)
        ix, iy = np.divmod(interior, state.ny)
        want = np.column_stack([ix, iy, state.local_information(interior)])
        return oracle.check_close("mi_map.csv", rows, want, oracle.MI_TOL)

    rnd.record_exit("mi-map", codes["mi-map"], local)


def check_reconstruct(state, results: dict, rnd: Round) -> None:
    import oracle
    import numpy as np
    missing = [results.get("error", "not reached")]
    times, series, fit = results.get("times"), results.get("series"), results.get("fit")

    if times is None:
        rnd.record("suggested_times", missing, completed=False)
    else:
        rnd.record("suggested_times", oracle.check_times(state, times))
    if series is None:
        rnd.record("synth_two_point", missing, completed=False)
    else:
        tol = oracle.RECON_RTOL * float(np.max(np.abs(state.q)))
        err = float(np.max(np.abs(series.samples - state.q[None, :, :])))
        problems = [] if err <= tol else [f"samples differ from Q by {err:.3g} > {tol:.3g}"]
        if series.samples.shape[0] != times.size:
            problems.append("one sample per time expected")
        rnd.record("synth_two_point", problems)
    if fit is None or "modes" not in results:
        rnd.record("fit_covariance", missing, completed=False)
    else:
        rnd.record("fit_covariance", oracle.check_reconstruction(
            state, results["modes"], fit.qt, fit.pt, fit.rt))


def check_tilemap(state, values: dict, rnd: Round) -> None:
    import oracle
    _, a, tiles = oracle.tile_grid(state.nx, state.ny, TILE)
    for key, b in tiles.items():
        got = values[key]
        if isinstance(got, str):
            rnd.record(f"tile {key}", [got], completed=False)
        else:
            rnd.record(f"tile {key}", oracle.check_close(
                f"tile {key}", got, state.mutual_information(a, b), oracle.MI_TOL))


def run_round(ts, name: str, cfg_path: Path, cfg: dict, out: Path, seed: int, setup: list):
    """The workload's operations; set-up times are appended to `setup`."""
    if name in CLI_COMMANDS:
        return run_cli(name, cfg_path, out, seed, setup)
    if name == "reconstruct-dirichlet-10":
        return run_reconstruct(ts, cfg, out, seed, setup)
    return run_tilemap(ts, cfg, out, setup)


def check_round(state, name: str, cfg: dict, out: Path, results) -> Round:
    rnd = Round()
    if name == "sweep-dirichlet-20":
        check_sweep(state, out, rnd, results, cfg)
    elif name == "map-neumann-16":
        check_map(state, out, rnd, results)
    elif name == "reconstruct-dirichlet-10":
        check_reconstruct(state, results, rnd)
    else:
        check_tilemap(state, results, rnd)
    return rnd


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    name, out = args.workload, args.out
    cfg_path = HERE / "configs" / f"{name}.cfg"
    cfg = read_config(cfg_path)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    ts = importlib.import_module("thirdsound")
    if name in CLI_COMMANDS:
        importlib.import_module("thirdsound.cli")
    setup = [time.perf_counter() - t0]

    if args.setup_only:
        if name in CLI_COMMANDS:
            cli = importlib.import_module("thirdsound.cli")
            run_config = cli.load_config(str(cfg_path))
            for _ in CLI_COMMANDS[name]:
                t0 = time.perf_counter()
                cli.build_pipeline(run_config)
                setup.append(time.perf_counter() - t0)
        else:
            t0 = time.perf_counter()
            build_state(ts, cfg)
            setup.append(time.perf_counter() - t0)
        print(json.dumps({"setup_s": sum(setup)}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    results = run_round(ts, name, cfg_path, cfg, out, args.seed, setup)
    wall_s = time.perf_counter() - T_START
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import oracle
    rnd = check_round(oracle.ClosedFormState(cfg), name, cfg, out, results)

    report = {"wall_s": wall_s, "setup_s": sum(setup), "peak_rss_mib": peak_rss_mib,
              "attempted": rnd.attempted, "failed": rnd.failed, "wrong": rnd.wrong,
              "problems": rnd.problems[:20]}
    if tracer is not None:
        layers = tracer.metrics(wall_s)
        report["layers"] = {key: value for key, (value, _) in layers.items()}
        report["units"] = {key: unit for key, (_, unit) in layers.items()}
        report["absent"] = tracer.absent
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
