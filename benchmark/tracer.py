"""Per-layer spans recorded from outside the program.

Every public module-level function of every ``thirdsound`` module is
replaced, in each ``thirdsound.*`` namespace that binds it, by a wrapper
that records a span: its name, its parent span, its start and end.  The
module a function is defined in is its layer.  Calls that go through a
module global (``mutual_information`` -> ``von_neumann_entropy``) or a name
imported into another module (``cli.build_basis``) are caught, because the
binding in that namespace is replaced too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

import numpy as np

# functions the per-layer metrics name; one that a version of the program
# no longer has is reported in `absent` and its metrics read 0
NAMED = ("geometry.build_basis", "gaussian.thermal_momentum_covariance",
         "gaussian.to_real_space", "gaussian.symplectic_spectrum",
         "gaussian.von_neumann_entropy", "gaussian.restrict",
         "gaussian.mutual_information", "regions.run_volume_sweep",
         "regions.run_area_sweep", "regions.mi_map", "reconstruct.suggested_times",
         "reconstruct.synth_two_point", "reconstruct.fit_covariance",
         "fitting.calabrese_fit", "cli.main", "cli.build_pipeline")

KERNEL = {"gaussian.symplectic_spectrum", "gaussian.von_neumann_entropy",
          "gaussian.restrict", "gaussian.mutual_information"}
STATE_BUILD = {"geometry.build_basis", "gaussian.thermal_momentum_covariance",
               "gaussian.to_real_space"}


def _info(name, args, result):
    """Sizes recorded with a span: dof of a spectrum call, MI values a
    protocol produced, the reconstruction's sample array and mode count."""
    if name == "gaussian.symplectic_spectrum":
        return args[0].n
    if name in ("regions.run_volume_sweep", "regions.run_area_sweep"):
        return len(result.raw_points)
    if name == "regions.mi_map":
        return int(np.count_nonzero(np.isfinite(result)))
    if name == "reconstruct.synth_two_point":
        return result.samples.shape
    if name == "reconstruct.fit_covariance":
        return args[1].n_modes
    return None


class Tracer:
    """Spans of one process, and the per-layer metrics derived from them."""

    def __init__(self):
        self.spans = []        # [name, parent index, start ns, end ns, info]
        self._stack = []
        self.absent = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter_ns(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            span[4] = _info(name, args, result)
            return result

        return wrapper

    def install(self):
        package = importlib.import_module("thirdsound")
        modules = [package] + [importlib.import_module(f"thirdsound.{info.name}")
                               for info in pkgutil.iter_modules(package.__path__)]
        wrappers, names = {}, set()
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    names.add(f"{layer}.{attr}")
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        self.absent = [name for name in NAMED if name not in names]

    def metrics(self, wall_s: float) -> dict:
        spans = self.spans
        dur = [(s[3] - s[2]) * 1e-9 for s in spans]
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[1] >= 0:
                child_time[s[1]] += dur[i]

        def has_ancestor(i, names):
            p = spans[i][1]
            while p >= 0:
                if spans[p][0] in names:
                    return True
                p = spans[p][1]
            return False

        def total(name):
            return sum(d for s, d in zip(spans, dur) if s[0] == name)

        def calls(name):
            return sum(1 for s in spans if s[0] == name)

        def outermost(names):
            return sum(d for i, (s, d) in enumerate(zip(spans, dur))
                       if s[0] in names and not has_ancestor(i, names))

        def layer_names(layer):
            return {s[0] for s in spans if s[0].startswith(layer + ".")}

        def self_time(layer):
            return sum(d - child_time[i] for i, (s, d) in enumerate(zip(spans, dur))
                       if s[0].startswith(layer + "."))

        dofs = [s[4] for s in spans if s[0] == "gaussian.symplectic_spectrum"]
        regions = layer_names("regions")
        protocols = ("regions.run_volume_sweep", "regions.run_area_sweep", "regions.mi_map")
        values = sum(s[4] for i, s in enumerate(spans)
                     if s[0] in protocols and not has_ancestor(i, regions))
        spectra_in_regions = sum(1 for i, s in enumerate(spans)
                                 if s[0] == "gaussian.symplectic_spectrum"
                                 and has_ancestor(i, regions))
        shapes = [s[4] for s in spans if s[0] == "reconstruct.synth_two_point"]
        n_times, n_pix = (shapes[-1][0], shapes[-1][1]) if shapes else (0, 0)
        n_modes = [s[4] for s in spans if s[0] == "reconstruct.fit_covariance"]
        mode_pairs = n_modes[-1] * (n_modes[-1] + 1) // 2 if n_modes else 0
        reconstruct = layer_names("reconstruct")
        return {
            "geometry.build_basis.s": (total("geometry.build_basis"), "s"),
            "gaussian.thermal_momentum_covariance.s":
                (total("gaussian.thermal_momentum_covariance"), "s"),
            "gaussian.to_real_space.s": (total("gaussian.to_real_space"), "s"),
            "gaussian.symplectic_spectrum.calls": (len(dofs), "count"),
            "gaussian.symplectic_spectrum.s": (total("gaussian.symplectic_spectrum"), "s"),
            "gaussian.symplectic_spectrum.dof_max": (max(dofs, default=0), "count"),
            "gaussian.symplectic_spectrum.n3_sum": (sum((2 * n) ** 3 for n in dofs), "count"),
            "gaussian.von_neumann_entropy.calls": (calls("gaussian.von_neumann_entropy"), "count"),
            "gaussian.restrict.calls": (calls("gaussian.restrict"), "count"),
            "gaussian.restrict.s": (total("gaussian.restrict"), "s"),
            "gaussian.mutual_information.calls": (calls("gaussian.mutual_information"), "count"),
            "gaussian.mutual_information.s": (total("gaussian.mutual_information"), "s"),
            "regions.protocol.s": (outermost(regions), "s"),
            "regions.self_s": (self_time("regions"), "s"),
            "regions.values": (values, "count"),
            "regions.spectra_per_value":
                (spectra_in_regions / values if values else 0.0, "ratio"),
            "reconstruct.n_times": (n_times, "count"),
            "reconstruct.mode_pairs": (mode_pairs, "count"),
            "reconstruct.samples_mib": (n_times * n_pix ** 2 * 8 / 2 ** 20, "MiB"),
            "reconstruct.synth_two_point.s": (total("reconstruct.synth_two_point"), "s"),
            "reconstruct.fit_covariance.s": (total("reconstruct.fit_covariance"), "s"),
            "fitting.calabrese_fit.s": (total("fitting.calabrese_fit"), "s"),
            "cli.main.s": (total("cli.main"), "s"),
            "cli.self_s": (self_time("cli"), "s"),
            "share.gaussian_kernel": (outermost(KERNEL) / wall_s, "ratio"),
            "share.state_build": (outermost(STATE_BUILD) / wall_s, "ratio"),
            "share.reconstruct": (outermost(reconstruct) / wall_s, "ratio"),
            "trace.wall_s": (wall_s, "s"),
        }
