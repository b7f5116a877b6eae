"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench

Run from the root of the repository.  They use a shortened cliff config, so
they take seconds, and they leave the program untouched.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import worker  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS, parse_config_text, workload_config  # noqa: E402

from smcflab import harness, schrodinger  # noqa: E402
from smcflab.config import config_from_text  # noqa: E402
from smcflab.grid import Grid  # noqa: E402


def _base_text(name):
    with open(os.path.join(ROOT, WORKLOADS[name]["file"])) as fh:
        return fh.read()


@pytest.fixture
def short_cliff(tmp_path):
    """cliff8 cut to 10 steps, writing under a temporary directory."""
    text = workload_config("cliff8", 0, _base_text("cliff8"), str(tmp_path / "out"))
    return replace(config_from_text(text), final_time_T=0.01).resolve()


def test_default_seed_reproduces_the_config_files(tmp_path):
    for name, spec in WORKLOADS.items():
        base = dict(parse_config_text(_base_text(name)))
        built = dict(parse_config_text(workload_config(name, 0, _base_text(name), "o")))
        assert list(built) == list(base), name
        assert built == {**base, **spec["overrides"], "output_dir": "o"}, name


def test_other_seeds_draw_within_the_band():
    def bands(cfg):
        return list(Grid(cfg.grid_dimension_d, cfg.grid_points_n, cfg.box_length_L).lp_band_range())

    default_bands = bands(config_from_text(_base_text("cliff8")))
    for seed in range(1, 20):
        cliff = config_from_text(workload_config("cliff8", seed, _base_text("cliff8"), "o"))
        assert 0.95 < cliff.cliff_radius_r <= 1.0
        # the norms' per-band work, and so every call count, stays the same
        assert bands(cliff) == default_bands
        assert cliff.box_length_L == pytest.approx(2 * 3.141592653589793 * cliff.cliff_radius_r)
        bump = config_from_text(workload_config("bump64", seed, _base_text("bump64"), "o"))
        assert abs(bump.bump_epsilon - 0.02) <= 0.001
    a = workload_config("bump128", 7, _base_text("bump128"), "o")
    assert a == workload_config("bump128", 7, _base_text("bump128"), "o")


def test_forced_blowup_is_counted_as_failed_and_the_run_goes_on(short_cliff):
    bad = replace(short_cliff, blowup_threshold=1e-6)
    with tracing.StageTimers() as timers:
        failed = worker.one_pass(harness, bad, "cliff", timers)
    with tracing.StageTimers() as timers:
        good = worker.one_pass(harness, short_cliff, "cliff", timers)
    assert not failed.ok and failed.correct and failed.error.startswith("BlowupError")
    assert good.ok, good.error
    summary = worker.summarize([failed, good])
    assert (summary["attempted"], summary["failed"], summary["correct"]) == (2, 1, True)
    assert summary["run_s"] == good.run_s
    assert not os.path.exists(short_cliff.output_dir)


def test_tracer_wraps_every_binding_and_restores_them():
    original = schrodinger.picard_evolve
    assert harness.picard_evolve is original
    with tracing.Tracer():
        assert harness.picard_evolve is schrodinger.picard_evolve is not original
    assert harness.picard_evolve is schrodinger.picard_evolve is original


def test_trace_passes_report_every_layer(short_cliff, tmp_path):
    spans = tmp_path / "spans.npz"
    out = worker.trace_passes(harness, short_cliff, "cliff", str(spans))
    assert (out["attempted"], out["failed"], out["correct"]) == (2, 0, True)
    layers = out["layers"]
    assert list(layers) == list(tracing.PER_LAYER)
    nsteps = 10
    assert layers["grid.fft.calls"] > 0
    assert layers["schrodinger.step_schrodinger.calls"] == 2 * nsteps
    assert layers["trajectory.load_trajectory.s"] > 0
    assert layers["harness.stage.io.s"] > 0
    assert spans.exists()


def test_benchmark_json_names_every_emitted_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cliff8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
