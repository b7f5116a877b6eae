"""Config round-trip, scenario generation, experiment outputs, CLI contract."""

import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smcflab
from smcflab import norms, trajectory
from smcflab.cli import main
from smcflab.config import RunConfig, config_from_text, config_to_text, load_config, save_config
from smcflab.errors import SmcfValidationError, StepRejectedError
from smcflab.grid import Grid, GridField, read_field
from smcflab.harness import generate_scenario, heat_gauge_and_write, norm_suite_rows, norms_and_write, run_experiment
from smcflab.schrodinger import picard_evolve
from smcflab.trajectory import Trajectory, TrajectoryRecord, load_trajectory, save_trajectory


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# magic (4 bytes), then version, d, n (uint32 each) and L (float64) before the parity byte
SNAPSHOT_PARITY_OFFSET = 24
# the payload closes the file with n^d (real, imaginary) float64 pairs: the first
# imaginary half of an n = 8, d = 2 snapshot, counted from the end
FIRST_IMAGINARY_HALF = -16 * 8**2 + 8


def canonical_config(name, tmp_path):
    return replace(load_config(CONFIGS / f"{name}.txt"), output_dir=str(tmp_path / "out")).resolve()


def small_cliff_config(tmp_path, **overrides):
    cfg = RunConfig(
        scenario_kind="cliff",
        cliff_radius_r=1.0,
        grid_points_n=8,
        box_length_L=2 * np.pi,
        time_step_dt=2e-3,
        final_time_T=0.02,
        snapshot_every_steps=1,
        output_dir=str(tmp_path / "out"),
    )
    return replace(cfg, **overrides).resolve()


def small_bump_config(tmp_path, **overrides):
    cfg = RunConfig(
        scenario_kind="bump",
        bump_epsilon=0.05,
        grid_points_n=32,
        box_length_L=16.0,
        time_step_dt=0.02,
        final_time_T=0.04,
        snapshot_every_steps=1,
        output_dir=str(tmp_path / "out"),
    )
    return replace(cfg, **overrides).resolve()


class TestConfig:
    def test_roundtrip_bit_exact(self):
        cfg = RunConfig(time_step_dt=1 / 3, bump_epsilon=0.02, box_length_L=np.pi).resolve()
        back = config_from_text(config_to_text(cfg))
        assert back == cfg

    @settings(max_examples=25, deadline=None)
    @given(
        dt=st.floats(1e-6, 1.0, allow_nan=False),
        L=st.floats(0.1, 100.0, allow_nan=False),
        eps=st.floats(1e-4, 0.9, allow_nan=False),
    )
    def test_roundtrip_random_floats(self, dt, L, eps):
        cfg = RunConfig(time_step_dt=dt, box_length_L=L, bump_epsilon=eps)
        back = config_from_text(config_to_text(cfg))
        assert back.time_step_dt == dt and back.box_length_L == L and back.bump_epsilon == eps

    def test_file_roundtrip(self, tmp_path):
        cfg = RunConfig().resolve()
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(SmcfValidationError):
            config_from_text("not_a_key = 3\n")

    def test_validation(self):
        with pytest.raises(SmcfValidationError):
            RunConfig(grid_points_n=40).resolve()
        with pytest.raises(SmcfValidationError):
            RunConfig(scenario_kind="sphere").resolve()
        with pytest.raises(SmcfValidationError):
            RunConfig(bump_delta=1.5).resolve()

    def test_resolve_fills_derived(self):
        cfg = RunConfig(time_step_dt=0.0, bump_profile_width_w=0.0).resolve()
        dx = cfg.box_length_L / cfg.grid_points_n
        assert cfg.time_step_dt == 0.5 * dx * dx
        assert cfg.bump_profile_width_w == cfg.box_length_L / 8


    @pytest.mark.parametrize(
        "key, value",
        [
            ("final_time_T", np.nan),
            ("final_time_T", np.inf),
            ("time_step_dt", -0.1),
            ("time_step_dt", np.inf),
            # finite, but T / dt overflows to inf
            ("time_step_dt", 5e-324),
            # a NaN threshold compares false, which would switch blow-up detection off
            ("blowup_threshold", np.nan),
            ("solver_tol", -1.0),
            ("holonomy_tol", 0.0),
            ("cliff_radius_r", np.inf),
            # r = 0 divides by zero in the cliff fixture; a negative w was squared away
            ("cliff_radius_r", 0.0),
            ("cliff_radius_r", -1.0),
            ("bump_profile_width_w", -2.0),
            ("picard_tol", -1e-3),
            ("solver_max_iter", 0),
        ],
    )
    def test_non_finite_or_negative_timing_rejected(self, tmp_path, key, value):
        with pytest.raises(SmcfValidationError):
            RunConfig(**{key: value}).resolve()
        path = tmp_path / "cfg.txt"
        save_config(path, RunConfig(output_dir=str(tmp_path / "out"), **{key: value}))
        assert main(["run", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_duplicate_key_exits_2(self, tmp_path):
        text = "grid_points_n = 8\n# note\ngrid_points_n = 16\n"
        with pytest.raises(SmcfValidationError, match=r"'grid_points_n' set twice, on lines 1 and 3"):
            config_from_text(text)
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("key, text", [("grid_points_n", "abc"), ("final_time_T", "x")])
    def test_unparsable_value_exits_2(self, tmp_path, key, text):
        path = tmp_path / "cfg.txt"
        save_config(path, RunConfig(output_dir=str(tmp_path / "out")))
        lines = path.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(key + " ="))
        lines[lineno - 1] = f"{key} = {text}"
        path.write_text("\n".join(lines) + "\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(smcflab.__file__)))
        out = subprocess.run(
            [sys.executable, "-m", "smcflab.cli", "run", "--config", str(path)], env=env, capture_output=True, text=True
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert f"config line {lineno}: {key}" in out.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [None, b"grid_points_n = 8\n# caf\xe9\n"], ids=["missing", "not-utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.txt"
        if content is not None:
            path.write_bytes(content)
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
        assert f"smcf: error: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_every_config_field_is_read():
    """A RunConfig field that no code outside config.py reads is a knob that does nothing."""
    src_dir = os.path.dirname(smcflab.__file__)
    source = "".join(
        Path(src_dir, name).read_text()
        for name in sorted(os.listdir(src_dir))
        if name.endswith(".py") and name != "config.py"
    )
    unread = [f.name for f in fields(RunConfig) if not re.search(rf"\.{f.name}\b", source)]
    assert unread == []


def test_importing_the_harness_loads_no_scipy():
    """import scipy.fft pulls in scipy.special, an import cost every run would pay at set-up."""
    code = "import sys, smcflab.harness; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(smcflab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestScenario:
    def test_flat_bundle_is_zero(self, tmp_path):
        cfg = small_cliff_config(tmp_path, scenario_kind="flat")
        bundle = generate_scenario(cfg)
        assert np.max(np.abs(bundle.sf.lam)) == 0.0
        assert np.max(np.abs(bundle.gauge.metric.h)) < 1e-14
        assert np.max(np.abs(bundle.gauge.A)) == 0.0

    def test_cliff_bundle_analytic(self, tmp_path):
        cfg = small_cliff_config(tmp_path)
        bundle = generate_scenario(cfg)
        assert abs(np.mean(bundle.sf.lam[0, 0]).real + 1.0) < 1e-10
        assert abs(np.mean(bundle.sf.lam[1, 1]).imag + 1.0) < 1e-10
        assert bundle.residuals["harmonic_defect_l2"] < 1e-10

    def test_bump_bundle_gauged(self, tmp_path):
        cfg = small_bump_config(tmp_path, grid_points_n=64)
        bundle = generate_scenario(cfg)
        assert bundle.residuals["coulomb_divergence_l2"] < 1e-8
        assert bundle.residuals["initial_A_div_l2"] < 1e-8
        assert bundle.residuals["initial_A_route_gap_linf"] < 1e-6
        assert bundle.residuals["elliptic_h_rel"] < 1e-6

    def test_bump_bundle_keeps_no_gauge_init_cache(self, tmp_path):
        # the initial-A solve and the elliptic check build these on their form;
        # the bundle's form holds lambda and psi only
        bundle = generate_scenario(canonical_config("bump_smalldata", tmp_path))
        assert not {"lam_up", "lam_lambar", "w", "ricci"} & vars(bundle.sf).keys()
        assert "psi" in vars(bundle.sf)

    def test_bump_gauge_init_builds_V_once_per_metric(self, tmp_path, monkeypatch):
        # the graph metric feeds the harmonic solve; the gauged metric feeds the
        # Coulomb solve and the gauge state, which share its V
        from smcflab import gauge_init, geometry, parabolic

        calls = []

        def counted(m, _original=geometry.harmonic_defect):
            calls.append(m)
            return _original(m)

        for mod in (geometry, gauge_init, parabolic):
            if hasattr(mod, "harmonic_defect"):
                monkeypatch.setattr(mod, "harmonic_defect", counted)
        bump = os.path.join(os.path.dirname(__file__), "..", "configs", "bump_smalldata.txt")
        generate_scenario(replace(load_config(bump), output_dir=str(tmp_path / "out")))
        assert len(calls) == 2
        assert calls[0] is not calls[1]

    def test_bump_lambda_amplitude_scaling(self, tmp_path):
        # curvature amplitude follows eps^{d/2 + delta}; the H^s norm follows
        # the same exponent because the profile is fixed in box units
        from smcflab.grid import GridField
        from smcflab.norms import sobolev_norm

        vals = {}
        for eps in (0.02, 0.04, 0.08):
            cfg = small_bump_config(tmp_path, bump_epsilon=eps, grid_points_n=64)
            bundle = generate_scenario(cfg)
            total = np.sqrt(
                sum(
                    sobolev_norm(GridField(bundle.grid, bundle.sf.lam[a, b]), cfg.envelope_s) ** 2
                    for a in range(2)
                    for b in range(2)
                )
            )
            vals[eps] = (total, float(np.max(np.abs(bundle.sf.lam))))
        expo = cfg.grid_dimension_d / 2 + cfg.bump_delta
        for key in (0, 1):
            fit = np.polyfit(np.log([0.02, 0.04, 0.08]), np.log([vals[e][key] for e in (0.02, 0.04, 0.08)]), 1)[0]
            assert abs(fit - expo) < 0.1 * expo


class TestNormStage:
    """Each per-grid norm table is built once, in the audit, and each norm field
    is transformed forward once."""

    def test_gauge_init_builds_no_norm_table(self, tmp_path):
        assert Grid(2, 64, 16.0)._tables == {}
        assert generate_scenario(canonical_config("bump_smalldata", tmp_path)).grid._tables == {}

    def test_one_record_transforms_each_norm_field_once(self, tmp_path, transform_counts):
        # lambda_10 is lambda_01, so three lambda components and the three of h
        # are transformed forward; each Y norm of h takes one inverse
        cfg = canonical_config("bump_smalldata", tmp_path)
        bundle = generate_scenario(cfg)
        traj = picard_evolve(bundle.sf, bundle.gauge, T=cfg.time_step_dt, dt=cfg.time_step_dt)
        gauge, sf = traj[-1].gauge(traj.grid), traj[-1].second_form(traj.grid)
        transform_counts.update(fft=0, ifft=0)
        norm_suite_rows(cfg, traj.grid, gauge, sf)
        assert transform_counts == {"fft": 6, "ifft": 6}

    @pytest.mark.parametrize("name, scales", [("bump_smalldata", 5), ("cliff_oracle", 4)])
    def test_norms_stage_builds_each_cube_scale_once(self, name, scales, tmp_path, monkeypatch):
        cfg = canonical_config(name, tmp_path)
        bundle = generate_scenario(cfg)
        traj = picard_evolve(bundle.sf, bundle.gauge, T=2 * cfg.time_step_dt, dt=cfg.time_step_dt)
        built = []

        def axis_weights(grid, scale, _original=norms._axis_weights):
            built.append(scale)
            return _original(grid, scale)

        monkeypatch.setattr(norms, "_axis_weights", axis_weights)
        os.makedirs(cfg.output_dir)
        norms_and_write(cfg, traj)
        assert len(traj) == 3
        assert len(built) == len(set(built)) == scales

    def test_tables_and_spectra_are_read_only(self, tmp_path):
        cfg = canonical_config("bump_smalldata", tmp_path)
        bundle = generate_scenario(cfg)
        grid = bundle.grid
        norm_suite_rows(cfg, grid, bundle.gauge, bundle.sf)
        assert {key if isinstance(key, str) else key[0] for key in grid._tables} == {
            "lp_bands",
            "sobolev",
            "cube_l2",
            "y0_lo",
        }
        lam = GridField(grid, bundle.sf.lam[0, 1])
        h = GridField.from_real(grid, bundle.gauge.metric.h[0, 0])
        for arr in [*grid._tables.values(), lam.hat, h.hat, h._half_hat]:
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
        with pytest.raises(FrozenInstanceError):
            lam.values = h.values


class TestExperiment:
    def test_flat_run_all_residuals_zero(self, tmp_path):
        cfg = small_cliff_config(tmp_path, scenario_kind="flat", grid_points_n=8)
        result = run_experiment(cfg)
        for rep in result["reports"]:
            for _, norms in rep.entries.items():
                assert norms.l2 < 1e-10
        files = os.listdir(cfg.output_dir)
        for expected in ("manifest.txt", "diagnostics.csv", "constraints.csv", "reconstruction.csv"):
            assert expected in files

    def test_determinism_bit_identical(self, tmp_path):
        cfg1 = small_bump_config(tmp_path, output_dir=str(tmp_path / "r1"))
        cfg2 = small_bump_config(tmp_path, output_dir=str(tmp_path / "r2"))
        run_experiment(cfg1)
        run_experiment(cfg2)
        for name in ("diagnostics.csv", "constraints.csv", "reconstruction.csv", "gauge_init.csv"):
            a = Path(cfg1.output_dir, name).read_bytes()
            b = Path(cfg2.output_dir, name).read_bytes()
            assert a == b, name

    def test_manifest_contains_calibration(self, tmp_path):
        from smcflab import calibration

        cfg = small_cliff_config(tmp_path, scenario_kind="flat")
        run_experiment(cfg)
        text = Path(cfg.output_dir, "manifest.txt").read_text()
        for key in calibration.ALL:
            assert key in text
        assert "time_step_dt" in text

    def test_manifest_echoes_the_step_taken(self, tmp_path):
        # T = 0.25 with dt = 1.0 takes one step of 0.25
        path = tmp_path / "cfg.txt"
        cfg = replace(small_cliff_config(tmp_path, scenario_kind="flat"), final_time_T=0.25, time_step_dt=1.0)
        save_config(path, cfg)
        assert main(["run", "--config", str(path)]) == 0
        manifest = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
        assert "time_step_dt = 0.25" in manifest
        assert load_trajectory(str(tmp_path / "out" / "snapshots")).times.tolist() == [0.0, 0.25]

    def test_snapshots_reload(self, tmp_path):
        cfg = small_cliff_config(tmp_path)
        result = run_experiment(cfg)
        traj = load_trajectory(os.path.join(cfg.output_dir, "snapshots"))
        assert len(traj) == len(result["trajectory"])
        assert np.array_equal(traj[0].lam, result["trajectory"][0].lam)

    def test_load_reads_each_snapshot_file_once(self, tmp_path, monkeypatch):
        # 9 records in d = 2 hold 9 files each: h00, h01, h11, A0, A1, lam00, lam01, lam11, psi
        cfg = small_cliff_config(tmp_path)
        bundle = generate_scenario(cfg)
        records = [TrajectoryRecord.from_state(0.1 * i, bundle.gauge, bundle.sf) for i in range(9)]
        save_trajectory(str(tmp_path / "snaps"), Trajectory(grid=bundle.grid, records=records))
        paths = []
        original = trajectory.read_field

        def counting(path, *args, **kwargs):
            paths.append(path)
            return original(path, *args, **kwargs)

        monkeypatch.setattr(trajectory, "read_field", counting)
        traj = load_trajectory(str(tmp_path / "snaps"))
        assert len(paths) == 81 and len(set(paths)) == 81
        assert all(np.array_equal(rec.psi, bundle.sf.psi) for rec in traj.records)

    def test_heat_gauge_frozen_lambda(self, tmp_path):
        cfg = small_bump_config(tmp_path)
        bundle = generate_scenario(cfg)
        traj = heat_gauge_and_write(cfg, bundle)
        assert len(traj) > 1
        assert np.array_equal(traj[-1].lam, bundle.sf.lam)
        assert not np.array_equal(traj[-1].g, traj[0].g)


class TestCLI:
    def test_run_and_check_constraints(self, tmp_path, capsys):
        cfg = small_cliff_config(tmp_path)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        assert main(["run", "--config", str(path)]) == 0
        assert main(["check-constraints", "--config", str(path)]) == 0
        assert main(["norms", "--config", str(path), "--snapshots", os.path.join(cfg.output_dir, "snapshots")]) == 0
        assert main(["reconstruct", "--config", str(path)]) == 0

    def test_reconstruct_command_audits_holonomy_like_run(self, tmp_path):
        cfg = small_cliff_config(tmp_path)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        csv_path = os.path.join(cfg.output_dir, "reconstruction.csv")
        assert main(["run", "--config", str(path)]) == 0
        from_run = Path(csv_path).read_bytes()
        os.remove(csv_path)
        assert main(["reconstruct", "--config", str(path)]) == 0
        from_reconstruct = Path(csv_path).read_bytes()
        assert b",spatial_holonomy," in from_reconstruct
        assert from_reconstruct == from_run

    def test_subcommands_reproduce_run(self, tmp_path):
        # the subcommands run the harness stages, so chaining them writes the
        # same tree, byte for byte, as `smcf run`
        cfg = small_cliff_config(tmp_path)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        assert main(["run", "--config", str(path)]) == 0
        run_dir = str(tmp_path / "from_run")
        os.rename(cfg.output_dir, run_dir)
        for command in ("evolve", "check-constraints", "norms", "reconstruct"):
            assert main([command, "--config", str(path)]) == 0, command

        def tree(root):
            out = {}
            for dirpath, _, names in os.walk(root):
                for name in names:
                    full = os.path.join(dirpath, name)
                    out[os.path.relpath(full, root)] = Path(full).read_bytes()
            return out

        from_run, from_commands = tree(run_dir), tree(cfg.output_dir)
        assert sorted(from_commands) == sorted(from_run)
        assert any(name.startswith("snapshots") for name in from_run)
        assert any(name.startswith("immersions") for name in from_run)
        for name, data in from_run.items():
            assert from_commands[name] == data, name

    def test_evolve_blowup_leaves_manifest_and_names_stage(self, tmp_path, capsys):
        cfg = small_cliff_config(tmp_path, blowup_threshold=1e-6)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        assert main(["evolve", "--config", str(path)]) == 3
        files = os.listdir(cfg.output_dir)
        assert "manifest.txt" in files
        assert "gauge_init.csv" in files
        assert "[evolve]" in capsys.readouterr().err

    def test_evolve_with_overrides(self, tmp_path):
        cfg = small_cliff_config(tmp_path)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        code = main(
            [
                "evolve",
                "--config",
                str(path),
                "--dt",
                "0.004",
                "--T",
                "0.008",
                "--sign-variant",
                "plus",
                "--snapshot-every",
                "2",
            ]
        )
        assert code == 0
        traj = load_trajectory(os.path.join(cfg.output_dir, "snapshots"))
        assert len(traj) == 2  # t = 0 and t = 0.008

    def test_heat_gauge_subcommand(self, tmp_path):
        cfg = small_bump_config(tmp_path, final_time_T=0.04)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        assert main(["heat-gauge", "--config", str(path)]) == 0
        traj = load_trajectory(os.path.join(cfg.output_dir, "gauge_snapshots"))
        # lambda stays frozen while the metric relaxes
        assert np.array_equal(traj[-1].lam, traj[0].lam)
        assert not np.array_equal(traj[-1].g, traj[0].g)

    def test_heat_gauge_on_stored_lambda_path(self, tmp_path, capsys):
        cfg = small_bump_config(tmp_path, final_time_T=0.04)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        assert main(["run", "--config", str(path)]) == 0
        snapdir = os.path.join(cfg.output_dir, "snapshots")
        capsys.readouterr()
        assert main(["heat-gauge", "--config", str(path), "--snapshots", snapdir]) == 0
        assert "in prescribed-lambda mode" in capsys.readouterr().out
        gauge_traj = load_trajectory(os.path.join(cfg.output_dir, "gauge_snapshots"))
        full_traj = load_trajectory(snapdir)
        # lambda path is the prescribed one and the resolved gauge follows the
        # coupled run closely
        assert np.array_equal(gauge_traj[-1].lam, full_traj[-1].lam)
        assert np.max(np.abs(gauge_traj[-1].g - full_traj[-1].g)) < 1e-6

    def test_heat_gauge_step_rejection_names_stage(self, tmp_path, capsys, monkeypatch):
        import smcflab.parabolic as parabolic

        def reject(s, lam_path, dt, sign_variant):
            raise StepRejectedError(f"metric degenerate after parabolic step at t={s.t + dt}")

        monkeypatch.setattr(parabolic, "step_parabolic", reject)
        cfg = small_cliff_config(tmp_path)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        assert main(["heat-gauge", "--config", str(path)]) == 3
        assert "[heat-gauge]" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(cfg.output_dir, "gauge_snapshots"))

    @staticmethod
    def _two_snapshots(tmp_path):
        """A cliff config file and a snapshot directory holding its initial state twice."""
        cfg = small_cliff_config(tmp_path)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        bundle = generate_scenario(cfg)
        snapdir = tmp_path / "snaps"
        records = [TrajectoryRecord.from_state(t, bundle.gauge, bundle.sf) for t in (0.0, cfg.time_step_dt)]
        save_trajectory(str(snapdir), Trajectory(grid=bundle.grid, records=records))
        return path, snapdir

    @pytest.mark.parametrize("keep", [20, 40, -3])
    def test_truncated_snapshot_exits_2(self, tmp_path, capsys, keep):
        # 20 bytes cuts the header, 40 the payload after 6 bytes, -3 its last float
        path, snapdir = self._two_snapshots(tmp_path)
        field = snapdir / "snap_000001_lam01.smcf"
        data = field.read_bytes()
        field.write_bytes(data[:keep])
        assert main(["check-constraints", "--config", str(path), "--snapshots", str(snapdir)]) == 2
        assert f"smcf: error: [check-constraints] {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("0,0,snap_000000", "0,zero,snap_000000"),
            ("0,0,snap_000000", "0,0.5,snap_000000"),
            ("0,0,snap_000000", "0,0"),
            ("prefix", "stem"),
        ],
        ids=["t-not-a-number", "t-not-increasing", "row-without-prefix", "no-prefix-column"],
    )
    def test_bad_snapshot_index_exits_2(self, tmp_path, capsys, old, new):
        path, snapdir = self._two_snapshots(tmp_path)
        index = snapdir / "index.csv"
        index.write_text(index.read_text().replace(old, new))
        assert main(["check-constraints", "--config", str(path), "--snapshots", str(snapdir)]) == 2
        assert f"smcf: error: [check-constraints] {index}" in capsys.readouterr().err

    def test_missing_snapshot_field_exits_2(self, tmp_path, capsys):
        path, snapdir = self._two_snapshots(tmp_path)
        field = snapdir / "snap_000001_A1.smcf"
        field.unlink()
        assert main(["check-constraints", "--config", str(path), "--snapshots", str(snapdir)]) == 2
        assert f"smcf: error: [check-constraints] {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["norms", "check-constraints", "reconstruct"])
    def test_non_finite_snapshot_exits_2(self, tmp_path, capsys, command):
        # a NaN in the real part of the last stored value of the metric deviation
        path, snapdir = self._two_snapshots(tmp_path)
        field = snapdir / "snap_000001_h00.smcf"
        data = field.read_bytes()
        field.write_bytes(data[:-16] + np.array([np.nan], dtype="<f8").tobytes() + data[-8:])
        assert main([command, "--config", str(path), "--snapshots", str(snapdir)]) == 2
        assert f"smcf: error: [{command}] {field}: " in capsys.readouterr().err

    @staticmethod
    def _rewrite(field, offset, value):
        """Write the bytes of value into the snapshot file at offset (from the end if negative)."""
        data = bytearray(field.read_bytes())
        at = offset % len(data)
        data[at : at + len(value)] = value
        field.write_bytes(bytes(data))

    def test_imaginary_half_of_a_real_snapshot_exits_2(self, tmp_path, capsys):
        path, snapdir = self._two_snapshots(tmp_path)
        field = snapdir / "snap_000001_h00.smcf"
        self._rewrite(field, FIRST_IMAGINARY_HALF, np.array([5.0], dtype="<f8").tobytes())
        assert main(["norms", "--config", str(path), "--snapshots", str(snapdir)]) == 2
        assert f"smcf: error: [norms] {field}: real field with a nonzero imaginary part" in capsys.readouterr().err

    def test_unknown_parity_byte_exits_2(self, tmp_path, capsys):
        path, snapdir = self._two_snapshots(tmp_path)
        field = snapdir / "snap_000001_lam01.smcf"
        self._rewrite(field, SNAPSHOT_PARITY_OFFSET, b"\x02")
        assert main(["norms", "--config", str(path), "--snapshots", str(snapdir)]) == 2
        assert f"smcf: error: [norms] {field}: parity byte 2" in capsys.readouterr().err

    @pytest.mark.parametrize("tag", ["h01", "A1"])
    def test_complex_metric_or_connection_snapshot_exits_2(self, tmp_path, capsys, tag):
        path, snapdir = self._two_snapshots(tmp_path)
        field = snapdir / f"snap_000001_{tag}.smcf"
        self._rewrite(field, SNAPSHOT_PARITY_OFFSET, b"\x01")
        self._rewrite(field, FIRST_IMAGINARY_HALF, np.array([0.5], dtype="<f8").tobytes())
        assert main(["norms", "--config", str(path), "--snapshots", str(snapdir)]) == 2
        assert f"smcf: error: [norms] {field}: {tag} must be a real field" in capsys.readouterr().err

    def test_gauge_init_outputs(self, tmp_path):
        cfg = small_bump_config(tmp_path)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        assert main(["gauge-init", "--config", str(path)]) == 0
        files = os.listdir(cfg.output_dir)
        assert "init_h00.smcf" in files
        assert "init_A0.smcf" in files
        assert "gauge_init.csv" in files

    def test_gauge_init_files_read_back_as_the_bundle(self, tmp_path):
        # the snapshot layout of one record, h_ab and lambda_ab for a <= b, A_a
        # and psi, plus the frame components nu1_i and nu2_i
        cfg = small_bump_config(tmp_path)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        assert main(["gauge-init", "--config", str(path)]) == 0
        bundle = generate_scenario(cfg)
        d = bundle.grid.d

        def back(tag, real):
            fld = read_field(os.path.join(cfg.output_dir, f"init_{tag}.smcf"), grid=bundle.grid)
            assert fld.name == tag and fld.parity == ("real" if real else "complex")
            return fld.values.real if real else fld.values

        expected = {"psi": (bundle.sf.psi, False)}
        for a in range(d):
            expected[f"A{a}"] = bundle.gauge.A[a], True
            for b in range(a, d):
                expected[f"h{a}{b}"] = bundle.gauge.metric.h[a, b], True
                expected[f"lam{a}{b}"] = bundle.sf.lam[a, b], False
        for i in range(d + 2):
            expected[f"nu1_{i}"] = bundle.nu1[i], True
            expected[f"nu2_{i}"] = bundle.nu2[i], True
        for tag, (values, real) in expected.items():
            assert np.array_equal(back(tag, real), values), tag
        assert sorted(f for f in os.listdir(cfg.output_dir) if f.endswith(".smcf")) == sorted(
            f"init_{tag}.smcf" for tag in expected
        )

    def test_solver_no_convergence_exits_3(self, tmp_path, capsys):
        bump = os.path.join(os.path.dirname(__file__), "..", "configs", "bump_smalldata.txt")
        cfg = replace(load_config(bump), output_dir=str(tmp_path / "out"), solver_tol=1e-30, solver_max_iter=2)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        assert main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "[gauge-init] harmonic coordinates: residual" in err
        assert "after 2 sweeps" in err

    def test_validation_exit_code(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("grid_points_n = 7\n")
        assert main(["run", "--config", str(path)]) == 2

    def test_blowup_exit_code(self, tmp_path):
        cfg = small_cliff_config(tmp_path, blowup_threshold=1e-6)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        assert main(["run", "--config", str(path)]) == 3

    def test_constraint_exit_code(self, tmp_path):
        # a drift tolerance of zero forces the frame audit to trip
        cfg = small_cliff_config(tmp_path, frame_drift_tol=1e-300)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        assert main(["run", "--config", str(path)]) == 4

    def test_write_config(self, tmp_path):
        path = tmp_path / "default.txt"
        assert main(["write-config", str(path)]) == 0
        cfg = load_config(path)
        assert cfg == cfg.resolve()


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """The config file and snapshot directory of a two-step n = 8 cliff run."""
    root = tmp_path_factory.mktemp("short_run")
    cfg = small_cliff_config(root, final_time_T=0.004)
    path = root / "cfg.txt"
    save_config(path, cfg)
    assert main(["evolve", "--config", str(path)]) == 0
    return path, Path(cfg.output_dir) / "snapshots"


class TestSnapshotBytes:
    """`smcf norms --snapshots` on a copy of short_run with one .smcf file flipped
    in one byte or cut short: it exits 0 or 2, raises nothing else and lets no
    warning escape.

    A flipped exponent byte can leave a finite value near 1e300 that the loader
    cannot tell from data; its norms overflow, and the norms stage refuses the
    record with exit 2 instead of writing a non-finite row.  Warnings are
    recorded here, as a command-line run would print them, and there must be
    none."""

    @staticmethod
    def _norms(config, snapdir, out):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["norms", "--config", str(config), "--snapshots", str(snapdir), "--output", str(out)])
        assert not caught, [str(w.message) for w in caught]
        return code, err.getvalue()

    @staticmethod
    def _corrupted_copy(snapdir, dest, name, edit):
        shutil.copytree(snapdir, dest)
        field = dest / name
        data = bytearray(field.read_bytes())
        kind, at, mask = edit
        if kind == "cut":
            del data[at:]
        else:
            data[at] ^= mask
        field.write_bytes(bytes(data))
        return field

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_flipped_or_cut_byte_exits_0_or_2(self, short_run, data):
        config, snapdir = short_run
        name = data.draw(st.sampled_from(sorted(f.name for f in snapdir.glob("*.smcf"))), label="file")
        size = (snapdir / name).stat().st_size
        edit = data.draw(
            st.tuples(st.just("cut"), st.integers(0, size - 1), st.just(0))
            | st.tuples(st.just("flip"), st.integers(0, size - 1), st.integers(1, 255)),
            label="edit",
        )
        with tempfile.TemporaryDirectory() as tmp:
            field = self._corrupted_copy(snapdir, Path(tmp) / "snaps", name, edit)
            code, err = self._norms(config, field.parent, Path(tmp) / "out")
        kind, at, _ = edit
        payload = size - 16 * 8**2
        real = name.split("_")[-1].startswith(("h", "A"))
        if kind == "cut" or at < SNAPSHOT_PARITY_OFFSET or (real and at >= payload and (at - payload) % 16 >= 8):
            # a short file, a flip in the magic, version or grid fields, or in the imaginary half of a real field
            assert code == 2 and err.startswith(f"smcf: error: [norms] {field}: "), (code, err)
        else:
            assert code in (0, 2)

    @settings(max_examples=10, deadline=None)
    @given(value=st.integers(0, 8**2 - 1), byte=st.integers(0, 7), mask=st.integers(1, 255))
    def test_a_flip_in_the_imaginary_half_of_a_real_field_exits_2(self, short_run, value, byte, mask):
        config, snapdir = short_run
        at = FIRST_IMAGINARY_HALF + 16 * value + byte
        with tempfile.TemporaryDirectory() as tmp:
            field = self._corrupted_copy(snapdir, Path(tmp) / "snaps", "snap_000002_A0.smcf", ("flip", at, mask))
            code, err = self._norms(config, field.parent, Path(tmp) / "out")
        assert code == 2 and err.startswith(f"smcf: error: [norms] {field}: ")


class TestAuditRefusal:
    """A stored value that is finite but overflows the audit: byte 41 of
    snap_000000_lam00.smcf is the top byte of its first real part, and XOR 64
    with it sets the top exponent bit.  norms and check-constraints refuse the
    record with exit 2, naming t and the row, let no warning escape and write
    no non-finite row."""

    @staticmethod
    def _overflowing_copy(snapdir, dest):
        shutil.copytree(snapdir, dest)
        field = dest / "snap_000000_lam00.smcf"
        data = bytearray(field.read_bytes())
        assert len(data) - 16 * 8**2 + 7 == 41
        data[41] ^= 64
        field.write_bytes(bytes(data))
        value = read_field(field).values.flat[0].real
        assert np.isfinite(value) and abs(value) > 1e307
        return dest

    @pytest.mark.parametrize("command, row", [("norms", "lambda_Hs"), ("check-constraints", "T1 l2")])
    def test_an_overflowing_record_exits_2(self, short_run, tmp_path, command, row):
        config, snapdir = short_run
        snaps = self._overflowing_copy(snapdir, tmp_path / "snaps")
        out = tmp_path / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([command, "--config", str(config), "--snapshots", str(snaps), "--output", str(out)])
        assert not caught, [str(w.message) for w in caught]
        assert code == 2
        assert err.getvalue().startswith(f"smcf: error: [{command}] the record at t=0 cannot be measured: {row} is ")
        for name in ("diagnostics.csv", "constraints.csv"):
            if (out / name).exists():
                assert (out / name).read_text().count("\n") == 1, name


class TestSnapshotStageTags:
    """A snapshot directory that cannot be loaded fails with the tag of the stage
    that reads it, as every other error of that stage does."""

    @pytest.mark.parametrize("command", ["norms", "check-constraints", "reconstruct", "heat-gauge"])
    def test_a_missing_snapshot_directory_names_its_stage(self, tmp_path, capsys, command):
        cfg = small_cliff_config(tmp_path)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        missing = tmp_path / "missing"
        assert main([command, "--config", str(path), "--snapshots", str(missing)]) == 2
        assert capsys.readouterr().err == f"smcf: error: [{command}] {missing}: no trajectory index found\n"
