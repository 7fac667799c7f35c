"""Batch front-end: config parsing, command dispatch and CSV/SVG emission.

Configs are flat ``section.key = value`` text (see configs/baseline.cfg).
Every output file embeds the config hash, package version and the
finite-size sine-argument convention, and all commands are deterministic
under a fixed seed.  The MI tables also name the protocol's entropy route
and its certified error bound (``gaussian.EntropyRoute``) in one line.

Exit codes: 0 ok, 2 config error (including outputs that cannot be
written), 3 numerical failure (including MemoryError), 4 unphysical covariance.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, fitting, gaussian, reconstruct, regions
from .errors import (ConfigError, NumericalError, ThirdSoundError,
                     UnphysicalCovarianceError)
from .fitting import SINE_ARGUMENT_CONVENTION
from .geometry import BoundarySpec, Grid, build_basis
from .physics import (FilmParams, derive_params, dispersion_thin_film,
                      quantum_regime_report)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNPHYSICAL = 4


@dataclass(kw_only=True)
class RunConfig:   # the fields without a default are the required keys
    # film
    film_h0: float
    film_alpha_vdw: float
    film_temperature: float
    film_sigma: float = FilmParams.sigma
    film_rho: float = FilmParams.rho
    film_m4: float = FilmParams.m4
    # grid
    grid_lx: float
    grid_ly: float
    grid_nx: int
    grid_ny: int
    # boundary
    boundary_kind: str
    boundary_alpha: float | None = None
    # sweeps
    sweep_buffer: int = 1
    sweep_include_cell_boundary: bool = True
    sweep_fixed_volume: int = 36
    # reconstruction
    reconstruct_quadrature: str = "field"
    reconstruct_n_times: int = 0          # 0: derive from the mode spectrum
    reconstruct_noise_sigma: float = 0.0
    reconstruct_seed: int = 1234
    # output
    output_dir: str = "out"


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _coerce(raw: str, target_type, key: str, lineno: int):
    raw = raw.strip()
    try:
        return _BOOLS[raw.lower()] if target_type is bool else target_type(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"line {lineno}: cannot parse {key} = {raw!r} as {target_type.__name__}")


def parse_config(text: str) -> RunConfig:
    """Parse flat key=value config text with line diagnostics."""
    known = {f.name: f for f in fields(RunConfig)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        attr = key.replace(".", "_")
        if attr not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if attr in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        # annotations are strings here; "float" and "float | None" parse as float
        target = {"int": int, "bool": bool, "str": str}.get(known[attr].type, float)
        values[attr] = _coerce(raw, target, key, lineno)
    missing = [f.name.replace("_", ".", 1) for f in known.values()
               if f.default is MISSING and f.name not in values]
    if missing:
        raise ConfigError(f"missing required config key(s): {', '.join(missing)}")
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc))
    for key, allowed in (("boundary.kind", ("dirichlet", "neumann", "robin")),
                         ("reconstruct.quadrature", ("field", "momentum"))):
        value = getattr(cfg, key.replace(".", "_"))
        if value not in allowed:
            raise ConfigError(f"{key} must be {'|'.join(allowed)}, got {value!r}")
    if cfg.boundary_kind == "robin" and cfg.boundary_alpha is None:
        raise ConfigError("missing required config key(s): boundary.alpha (Robin boundary)")
    for key, value in (("reconstruct.noise_sigma", cfg.reconstruct_noise_sigma),
                       ("reconstruct.n_times", cfg.reconstruct_n_times)):
        if not 0 <= value < np.inf:
            raise ConfigError(f"{key} must be finite and non-negative, got {value}")
    return cfg


def emit_config(cfg: RunConfig) -> str:
    """Canonical serialization: sorted section.key = value lines."""
    lines = []
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        key = f.name.replace("_", ".", 1)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = f"{value:.17g}"
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(emit_config(cfg).encode()).hexdigest()[:16]


def load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config(text)


# ---------------------------------------------------------------------------
# pipeline assembly helpers

def _film_basis(cfg: RunConfig):
    """Film, derived constants and mode basis of a config."""
    film = FilmParams(h0=cfg.film_h0, alpha_vdw=cfg.film_alpha_vdw,
                      temperature=cfg.film_temperature, sigma=cfg.film_sigma,
                      rho=cfg.film_rho, m4=cfg.film_m4)
    derived = derive_params(film)
    grid = Grid(lx=cfg.grid_lx, ly=cfg.grid_ly, nx=cfg.grid_nx, ny=cfg.grid_ny)
    basis = build_basis(grid, BoundarySpec(cfg.boundary_kind, alpha=cfg.boundary_alpha),
                        lambda k: dispersion_thin_film(k, derived, film.h0))
    return film, derived, basis


def build_pipeline(cfg: RunConfig):
    """Film -> derived constants -> mode basis -> thermal real-space state."""
    film, derived, basis = _film_basis(cfg)
    gamma_modes = gaussian.thermal_momentum_covariance(basis, film.temperature)
    return gaussian.to_real_space(gamma_modes, basis, derived)


# ---------------------------------------------------------------------------
# output helpers

def _header_lines(cfg: RunConfig, command: str, extra: dict | None = None,
                  route=None) -> list:
    lines = [f"# thirdsound v{__version__}",
             f"# command={command}",
             f"# config_hash={config_hash(cfg)}",
             f"# sine_argument_convention={SINE_ARGUMENT_CONVENTION}"]
    for key, value in (extra or {}).items():
        lines.append(f"# {key}={value}")
    if route is not None:
        lines.append(f"# entropy_route={route.name} error_bound_nats={route.error_bound:.3g}")
    return lines


def _write_csv(path: Path, header: list, columns: list, rows: list,
               footer: list | None = None) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for line in header:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")
        for line in footer or []:
            fh.write(line + "\n")


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


_VIRIDIS = [(0.267, 0.005, 0.329), (0.229, 0.322, 0.545), (0.128, 0.567, 0.551),
            (0.369, 0.789, 0.383), (0.993, 0.906, 0.144)]


def _colour(frac: float) -> str:
    frac = min(max(frac, 0.0), 1.0)
    pos = frac * (len(_VIRIDIS) - 1)
    i = min(int(pos), len(_VIRIDIS) - 2)
    t = pos - i
    rgb = [(1 - t) * a + t * b for a, b in zip(_VIRIDIS[i], _VIRIDIS[i + 1])]
    return "#" + "".join(f"{int(round(255 * c)):02x}" for c in rgb)


def write_line_svg(path: Path, xs, ys, title: str, xlabel: str, ylabel: str) -> None:
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    w, h, ml, mb, mt, mr = 640, 480, 70, 50, 30, 20
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (w - ml - mr)

    def py(y):
        return h - mb - (y - y0) / (y1 - y0) * (h - mb - mt)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<text x="{w/2:.0f}" y="18" text-anchor="middle" font-size="14">{title}</text>']
    for i in range(5):
        xv = x0 + i * (x1 - x0) / 4
        yv = y0 + i * (y1 - y0) / 4
        parts.append(f'<line x1="{px(xv):.1f}" y1="{h-mb}" x2="{px(xv):.1f}" '
                     f'y2="{h-mb+4}" stroke="black"/>')
        parts.append(f'<text x="{px(xv):.1f}" y="{h-mb+16}" text-anchor="middle" '
                     f'font-size="10">{xv:.3g}</text>')
        parts.append(f'<line x1="{ml-4}" y1="{py(yv):.1f}" x2="{ml}" '
                     f'y2="{py(yv):.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml-6}" y="{py(yv)+3:.1f}" text-anchor="end" '
                     f'font-size="10">{yv:.3g}</text>')
    parts.append(f'<rect x="{ml}" y="{mt}" width="{w-ml-mr}" height="{h-mb-mt}" '
                 'fill="none" stroke="black"/>')
    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#133d69" stroke-width="2"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="#133d69"/>')
    parts.append(f'<text x="{(ml+w-mr)/2:.0f}" y="{h-8}" text-anchor="middle" '
                 f'font-size="12">{xlabel}</text>')
    parts.append(f'<text x="14" y="{(mt+h-mb)/2:.0f}" text-anchor="middle" font-size="12" '
                 f'transform="rotate(-90 14 {(mt+h-mb)/2:.0f})">{ylabel}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def write_heatmap_svg(path: Path, grid_values: np.ndarray, title: str) -> None:
    nx, ny = grid_values.shape
    cell = max(4, 480 // max(nx, ny))
    w, h = nx * cell + 40, ny * cell + 60
    finite = grid_values[np.isfinite(grid_values)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo or 1.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<text x="{w/2:.0f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
             f'<text x="{w/2:.0f}" y="{h-8}" text-anchor="middle" font-size="10">'
             f'min={lo:.4g} max={hi:.4g}</text>']
    for ix in range(nx):
        for iy in range(ny):
            v = grid_values[ix, iy]
            fill = "#dddddd" if not np.isfinite(v) else _colour((v - lo) / span)
            parts.append(f'<rect x="{20 + ix*cell}" y="{30 + (ny-1-iy)*cell}" '
                         f'width="{cell}" height="{cell}" fill="{fill}"/>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# commands

def cmd_params(cfg: RunConfig, out_dir: Path, svg: bool) -> None:
    film, derived, basis = _film_basis(cfg)
    report = quantum_regime_report(basis, film.temperature)
    print(f"film: h0={film.h0:g} m, alpha_vdw={film.alpha_vdw:g} m^5/s^2, "
          f"T={film.temperature:g} K")
    print(f"      sigma={film.sigma:g} N/m, rho={film.rho:g} kg/m^3, m4={film.m4:g} kg")
    print(f"derived: g_eff={derived.g_eff:.6g} m/s^2")
    print(f"         c3={derived.c3:.4g} m/s")
    print(f"         ell_c={derived.ell_c:.4g} m")
    print(f"         K={derived.luttinger_k:.4g} m")
    omegas = basis.omegas
    print(f"basis: {cfg.boundary_kind}, {basis.n_modes} modes on "
          f"{basis.grid.nx}x{basis.grid.ny} pixels")
    print(f"       omega range {omegas.min():.6g} .. {omegas.max():.6g} rad/s "
          f"({omegas.min()/(2*np.pi):.6g} .. {omegas.max()/(2*np.pi):.6g} Hz)")
    print(f"regime: {report.n_quantum} quantum / {report.n_classical} classical modes "
          f"at T={film.temperature:g} K (threshold hbar*omega = kB*T)")
    print(f"        all modes quantum below T_q={report.t_quantum:.4g} K")


def _volume_sweep(cfg: RunConfig):
    return regions.run_volume_sweep(build_pipeline(cfg), buffer=cfg.sweep_buffer,
                                    include_cell_boundary=cfg.sweep_include_cell_boundary)


def _area_sweep(cfg: RunConfig):
    return regions.run_area_sweep(build_pipeline(cfg), cfg.sweep_fixed_volume,
                                  include_cell_boundary=cfg.sweep_include_cell_boundary,
                                  buffer=cfg.sweep_buffer)


def _write_volume_csv(cfg: RunConfig, out_dir: Path, command: str, sweep,
                      footer: list | None = None) -> Path:
    """sweep_volume.csv: one row per point, its masks in the header."""
    header = _header_lines(cfg, command, {"protocol": sweep.protocol}, sweep.route)
    for i, p in enumerate(sweep.points):
        header.append(f"# point {i} mask_a={p.pair.a.rle()} mask_b={p.pair.b.rle()}")
    rows = [(p.pair.label["divider_index"], p.abscissa, p.mi) for p in sweep.points]
    path = out_dir / "sweep_volume.csv"
    _write_csv(path, header, ["divider_index", "volume_m2", "mi_nats"], rows, footer=footer)
    return path


def cmd_sweep_volume(cfg: RunConfig, out_dir: Path, svg: bool) -> None:
    sweep = _volume_sweep(cfg)
    path = _write_volume_csv(cfg, out_dir, "sweep-volume", sweep)
    print(f"wrote {path} ({len(sweep.points)} points)")
    if svg:
        write_line_svg(out_dir / "sweep_volume.svg", sweep.abscissae, sweep.mi_values,
                       "mutual information vs subsystem volume", "volume (m^2)", "MI (nats)")


def cmd_sweep_area(cfg: RunConfig, out_dir: Path, svg: bool) -> None:
    sweep = _area_sweep(cfg)
    header = _header_lines(cfg, "sweep-area", {"protocol": sweep.protocol}, sweep.route)
    for i, p in enumerate(sweep.raw_points):
        header.append(f"# raw point {i} shape={p.pair.label['width']}x"
                      f"{p.pair.label['height']} mask_a={p.pair.a.rle()} "
                      f"mask_b={p.pair.b.rle()}")
    rows = [(p.abscissa, p.mi, p.stats.corner_count) for p in sweep.points]
    path = out_dir / "sweep_area.csv"
    _write_csv(path, header, ["perimeter_m", "mi_nats", "corner_count"], rows)
    print(f"wrote {path} ({len(rows)} points)")
    if svg:
        write_line_svg(out_dir / "sweep_area.svg", sweep.abscissae, sweep.mi_values,
                       "mutual information vs boundary area", "perimeter (m)", "MI (nats)")


def cmd_mi_map(cfg: RunConfig, out_dir: Path, svg: bool) -> None:
    gamma = build_pipeline(cfg)
    field, route = regions.mi_map(gamma), regions.map_route(gamma)
    header = _header_lines(cfg, "mi-map", {"note": "outer pixel ring excluded"}, route)
    rows = [(ix, iy, field[ix, iy])
            for ix in range(field.shape[0]) for iy in range(field.shape[1])
            if np.isfinite(field[ix, iy])]
    path = out_dir / "mi_map.csv"
    _write_csv(path, header, ["ix", "iy", "mi_nats"], rows)
    print(f"wrote {path} ({len(rows)} interior pixels)")
    if svg:
        write_heatmap_svg(out_dir / "mi_map.svg", field, "local mutual information map")


def cmd_reconstruct(cfg: RunConfig, out_dir: Path, svg: bool) -> None:
    film, derived, basis = _film_basis(cfg)
    gamma_modes = gaussian.thermal_momentum_covariance(basis, film.temperature)
    times = reconstruct.suggested_times(basis)
    if cfg.reconstruct_n_times > 0:
        # a random subset, unlike a coarse uniform grid, does not alias; seeded apart from the noise
        rng = np.random.default_rng(np.random.SeedSequence(cfg.reconstruct_seed).spawn(1)[0])
        times = np.sort(rng.choice(times, min(cfg.reconstruct_n_times, times.size),
                                   replace=False))
    sigma = cfg.reconstruct_noise_sigma
    if sigma > 0:   # relative to the mean absolute sample
        probe = reconstruct.synth_two_point(gamma_modes, basis, derived, times[:1],
                                            quadrature=cfg.reconstruct_quadrature)
        sigma = sigma * float(np.mean(np.abs(probe.samples)))
    series = reconstruct.synth_two_point(gamma_modes, basis, derived, times,
                                         quadrature=cfg.reconstruct_quadrature,
                                         noise_sigma=sigma, seed=cfg.reconstruct_seed)
    result = reconstruct.fit_covariance(series, basis, derived)
    truth = gamma_modes.data
    err = np.linalg.norm(result.gamma().data - truth) / np.linalg.norm(truth)
    header = _header_lines(cfg, "reconstruct", {
        "quadrature": series.quadrature, "n_times": series.n_times,
        "noise_sigma_absolute": f"{sigma:.17g}",
        "design_condition": f"{result.condition:.6g}"})
    path = out_dir / "reconstruct.csv"
    _write_csv(path, header,
               ["relative_frobenius_error", "residual_rms", "n_unidentifiable"],
               [(float(err), result.residual_rms, len(result.unidentifiable_pairs))])
    print(f"wrote {path} (relative error {err:.3g}, "
          f"{len(result.unidentifiable_pairs)} degenerate pairs)")


def cmd_fit_calabrese(cfg: RunConfig, out_dir: Path, svg: bool) -> None:
    sweep = _volume_sweep(cfg)
    fit = fitting.calabrese_fit(sweep)
    footer = [f"# fit kappa1={fit.kappa1:.17g} kappa2={fit.kappa2:.17g} "
              f"kappa3={fit.kappa3:.17g} rms={fit.rms:.17g} converged={fit.converged}"]
    _write_volume_csv(cfg, out_dir, "fit-calabrese", sweep, footer=footer)
    header = _header_lines(cfg, "fit-calabrese", {"protocol": sweep.protocol,
                                                  "converged": fit.converged})
    _write_csv(out_dir / "fit_calabrese.csv", header,
               ["kappa1", "kappa2", "kappa3", "rms"],
               [(fit.kappa1, fit.kappa2, fit.kappa3, fit.rms)])
    print(f"wrote {out_dir / 'fit_calabrese.csv'} "
          f"(kappa=({fit.kappa1:.4g}, {fit.kappa2:.4g}, {fit.kappa3:.4g}), "
          f"rms={fit.rms:.4g})")
    if svg:
        grid = sweep.points[0].pair.a.grid
        fr = np.array([p.stats.pixel_count for p in sweep.points]) / grid.n_pixels
        write_line_svg(out_dir / "fit_calabrese.svg", sweep.abscissae,
                       fit.predict(fr, grid.n_pixels),
                       "finite-size fit", "volume (m^2)", "MI (nats)")


def cmd_fit_area(cfg: RunConfig, out_dir: Path, svg: bool) -> None:
    sweep = _area_sweep(cfg)
    fit = fitting.area_law_fit(sweep)
    header = _header_lines(cfg, "fit-area", {"protocol": sweep.protocol,
                                             "superlinear": fit.superlinear})
    _write_csv(out_dir / "fit_area.csv", header,
               ["slope", "intercept", "r2"],
               [(fit.slope, fit.intercept, fit.r_squared)])
    print(f"wrote {out_dir / 'fit_area.csv'} (slope={fit.slope:.4g}, "
          f"R^2={fit.r_squared:.4g})")


_COMMANDS = {
    "params": cmd_params,
    "sweep-volume": cmd_sweep_volume,
    "sweep-area": cmd_sweep_area,
    "mi-map": cmd_mi_map,
    "reconstruct": cmd_reconstruct,
    "fit-calabrese": cmd_fit_calabrese,
    "fit-area": cmd_fit_area,
}


def exit_code_for(exc: Exception) -> int:
    if isinstance(exc, (ConfigError, ValueError, OSError)):
        # config values the run cannot honour (grid too small for the buffer,
        # no fitting rectangle, an output directory it cannot write) exit 2
        return EXIT_CONFIG
    if isinstance(exc, UnphysicalCovarianceError):
        return EXIT_UNPHYSICAL
    if isinstance(exc, (NumericalError, ThirdSoundError, np.linalg.LinAlgError,
                        MemoryError)):
        return EXIT_NUMERICAL
    raise exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thirdsound",
        description="mutual-information area laws in thin-film superfluid helium")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument("--out", default=None, help="output directory (default: config output.dir)")
    parser.add_argument("--svg", action="store_true", help="also emit SVG plots")
    parser.add_argument("--seed", type=int, default=None, help="override reconstruction seed")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.reconstruct_seed = args.seed
        out_dir = Path(args.out) if args.out else Path(cfg.output_dir)
        _COMMANDS[args.command](cfg, out_dir, args.svg)
    except Exception as exc:   # noqa: BLE001 - translated to exit codes
        code = exit_code_for(exc)
        print(f"error: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
