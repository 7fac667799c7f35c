"""Show that the benchmark's output checks can fail.

    python3 benchmark/mutation_check.py

Runs every workload's operations on a small grid with the program's
dispersion perturbed to omega^1.05, then applies the benchmark's checks
twice: against the true closed-form oracle, where every operation must
fail, and against an oracle perturbed the same way, where every operation
must pass (so the failures come from the dispersion and nothing else).
Exits 0 when both hold.  Not part of the timed runs.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import oracle  # noqa: E402
import worker  # noqa: E402

POWER = 1.05
SMALL_GRID = {"sweep-dirichlet-20": 12, "map-neumann-16": 8,
              "reconstruct-dirichlet-10": 4, "tilemap-dirichlet-48": 12}


def perturb_dispersion():
    """Rebind thin-film dispersion as omega^POWER in every thirdsound namespace."""
    package = importlib.import_module("thirdsound")
    modules = [package] + [importlib.import_module(f"thirdsound.{m.name}")
                           for m in pkgutil.iter_modules(package.__path__)]
    original = package.physics.dispersion_thin_film

    def perturbed(k, derived, h0):
        return original(k, derived, h0) ** POWER

    for module in modules:
        for attr, obj in list(vars(module).items()):
            if obj is original:
                setattr(module, attr, perturbed)
    return package


def run_and_check(ts, name: str, out: Path) -> tuple:
    """Failed/attempted against the true oracle, then against the
    perturbed one."""
    n = SMALL_GRID[name]
    text = (HERE / "configs" / f"{name}.cfg").read_text()
    for axis in ("nx", "ny"):
        text = "\n".join(f"grid.{axis} = {n}" if line.startswith(f"grid.{axis} ") else line
                         for line in text.splitlines())
    out.mkdir(parents=True)
    cfg_path = out / f"{name}.cfg"
    cfg_path.write_text(text + "\n")
    cfg = worker.read_config(cfg_path)
    results = worker.run_round(ts, name, cfg_path, cfg, out, 0, [])
    counts = []
    for power in (1.0, POWER):
        state = oracle.ClosedFormState(cfg, omega_power=power)
        rnd = worker.check_round(state, name, cfg, out, results)
        counts.append((rnd.wrong, rnd.attempted, rnd.problems[:1]))
    return counts


def main() -> int:
    ts = perturb_dispersion()
    base = ROOT / ".bench_out" / "mutation"
    shutil.rmtree(base, ignore_errors=True)
    ok = True
    for name in SMALL_GRID:
        (wrong, attempted, example), (wrong_p, attempted_p, example_p) = \
            run_and_check(ts, name, base / name)
        caught = wrong == attempted
        consistent = wrong_p == 0
        ok &= caught and consistent
        print(f"{name} at {SMALL_GRID[name]}x{SMALL_GRID[name]}: true oracle fails "
              f"{wrong}/{attempted} operations; perturbed oracle fails {wrong_p}/{attempted_p}"
              f" -> {'ok' if caught and consistent else 'NOT OK'}")
        for problem in example + example_p:
            print(f"    e.g. {problem}")
    print("mutation check:", "every perturbed output was caught" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
