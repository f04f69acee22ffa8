"""The benchmark's traced names still exist in the package.

``perfbench/tracing.py`` wraps functions and methods at the names their
callers look up.  A renamed or moved function would make it fail with a
``KeyError`` when the benchmark runs, so every name it patches is checked
here, reading ``perfbench/`` without changing it.
"""

import importlib.util
import pathlib

import pytest

from vpbandit import analysis, baselines, cli, environments, game, scaling

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = {
    "game": game,
    "cli": cli,
    "analysis": analysis,
    "environments": environments,
    "scaling": scaling,
    "baselines": baselines,
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("plan", ["_patches", "_entry_patches"])
def test_every_traced_name_exists(plan):
    entries = getattr(_tracing(), plan)(MODULES)
    assert entries
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, *_ in entries
        if attr not in vars(owner)
    ]
    assert not missing
