"""The thermal state build against the benchmark's closed-form oracle.

``benchmark/oracle.py`` rebuilds the real-space Q and P blocks from closed
forms and imports nothing from ``thirdsound``; ``benchmark/worker.py``
builds the state through the library calls the benchmark times.  Both are
executed here from their source, under private module names and without
writing anything, so a change that breaks the benchmark's library path
fails here rather than at benchmark time.  ``benchmark/tracer.py`` is
loaded the same way, to check that every function its per-layer metrics
name is still a public function of its layer.
"""

import importlib
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

import thirdsound as ts

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def _load(name):
    """Execute benchmark/<name>.py as a fresh module; no bytecode is written."""
    path = BENCHMARK / f"{name}.py"
    module = types.ModuleType(f"_benchmark_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


oracle = _load("oracle")
worker = _load("worker")
tracer = _load("tracer")


def config(kind):
    """The tile-map workload's operating point on a 12 x 10 grid."""
    cfg = worker.read_config(BENCHMARK / "configs" / "tilemap-dirichlet-48.cfg")
    cfg.update({"grid.nx": 12.0, "grid.ny": 10.0, "grid.ly": 4.2e-3, "boundary.kind": kind})
    return cfg


@pytest.fixture(scope="module", params=["dirichlet", "neumann"])
def built(request):
    cfg = config(request.param)
    return cfg, worker.build_state(ts, cfg), oracle.ClosedFormState(cfg)


def test_real_space_blocks_match_closed_form(built):
    _, (_, _, _, gamma), state = built
    for got, want in ((gamma.q_block, state.q), (gamma.p_block, state.p)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_real_space_blocks_exactly_symmetric(built):
    _, (_, _, _, gamma), _ = built
    for block in (gamma.q_block, gamma.p_block):
        assert np.array_equal(block, block.T)


def test_worker_build_state_through_mutual_information(built):
    cfg, (_, basis, _, gamma), state = built
    assert gamma.n == basis.grid.n_pixels == 120
    a = oracle.block_indices(10, 0, 3, 0, 10)
    b = oracle.block_indices(10, 4, 12, 0, 10)
    mi = ts.mutual_information(gamma, a, b)
    assert mi > 0.1
    assert mi == pytest.approx(state.mutual_information(a, b), abs=oracle.MI_TOL)


@pytest.mark.parametrize("name", tracer.NAMED)
def test_tracer_names_a_public_function(name):
    # the tracer wraps public module-level functions only; a named one that
    # is renamed, made private or moved would read 0 in its metrics
    layer, _, attr = name.partition(".")
    module = importlib.import_module(f"thirdsound.{layer}")
    function = getattr(module, attr, None)
    assert not attr.startswith("_")
    assert inspect.isfunction(function) and function.__module__ == module.__name__


def test_tracer_groups_use_named_functions():
    assert tracer.KERNEL | tracer.STATE_BUILD <= set(tracer.NAMED)
