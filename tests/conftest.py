"""Shared fixtures."""

import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from smcflab import geometry
from smcflab.config import load_config
from smcflab.grid import Grid
from smcflab.harness import generate_scenario

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# bump_smalldata.txt and the overrides of each gauge-initialized bump scenario;
# d = 3 needs an envelope index s > d/2
BUMP_SCENARIOS = {
    "d2-n64": {},
    "d3-n32": {"grid_dimension_d": 3, "grid_points_n": 32, "envelope_s": 2.5},
}


@pytest.fixture
def transform_counts(monkeypatch):
    """Counts Grid.fft and Grid.ifft calls from here on; zero the dict to restart."""
    counts = {"fft": 0, "ifft": 0}
    for name in counts:
        original = getattr(Grid, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Grid, name, counted)
    return counts


@pytest.fixture
def geometry_calls(monkeypatch):
    """count(*names) wraps those smcflab.geometry functions in every smcflab
    module that binds them, wherever they are called from, and returns the dict
    of their call counts; zero it to restart."""

    def count(*names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(geometry, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("smcflab"):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, attr, counting)
        return counts

    return count


@pytest.fixture
def traced_peak():
    """traced_peak(fn) -> (fn(), the peak bytes that tracemalloc traced while fn
    ran): the most that fn's allocations, numpy arrays included, held at once."""

    def run(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run


@pytest.fixture(scope="session", params=sorted(BUMP_SCENARIOS))
def bump_scenario(request):
    """(name, bundle): a gauge-initialized bump of BUMP_SCENARIOS, built once per session.
    Tests may read its states but must not change their arrays."""
    cfg = replace(load_config(CONFIGS / "bump_smalldata.txt"), **BUMP_SCENARIOS[request.param])
    return request.param, generate_scenario(cfg)
