"""Config round-trip, scenario generation, experiment outputs, CLI contract."""

import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smcflab
from smcflab.cli import main
from smcflab.config import RunConfig, config_from_text, config_to_text, load_config, save_config
from smcflab.errors import SmcfValidationError, StepRejectedError
from smcflab.harness import generate_scenario, heat_gauge_and_write, run_experiment
from smcflab.trajectory import Trajectory, TrajectoryRecord, load_trajectory, save_trajectory


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


class TestExperiment:
    def test_flat_run_all_residuals_zero(self, tmp_path):
        cfg = small_cliff_config(tmp_path, scenario_kind="flat", grid_points_n=8)
        result = run_experiment(cfg)
        for rep in result["reports"]:
            for _, norms in rep.rows():
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

    def test_heat_gauge_on_stored_lambda_path(self, tmp_path):
        cfg = small_bump_config(tmp_path, final_time_T=0.04)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        assert main(["run", "--config", str(path)]) == 0
        snapdir = os.path.join(cfg.output_dir, "snapshots")
        assert main(["heat-gauge", "--config", str(path), "--snapshots", snapdir]) == 0
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

    @pytest.mark.parametrize("keep", [20, 40, -3])
    def test_truncated_snapshot_exits_2(self, tmp_path, capsys, keep):
        # 20 bytes cuts the header, 40 the payload after 6 bytes, -3 its last float
        cfg = small_cliff_config(tmp_path)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        bundle = generate_scenario(cfg)
        snapdir = tmp_path / "snaps"
        records = [TrajectoryRecord.from_state(t, bundle.gauge, bundle.sf) for t in (0.0, cfg.time_step_dt)]
        save_trajectory(str(snapdir), Trajectory(grid=bundle.grid, records=records))
        field = snapdir / "snap_000001_lam01.smcf"
        data = field.read_bytes()
        field.write_bytes(data[:keep])
        assert main(["check-constraints", "--config", str(path), "--snapshots", str(snapdir)]) == 2
        assert f"smcf: error: {field}: " in capsys.readouterr().err

    def test_gauge_init_outputs(self, tmp_path):
        cfg = small_bump_config(tmp_path)
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        assert main(["gauge-init", "--config", str(path)]) == 0
        files = os.listdir(cfg.output_dir)
        assert "init_h00.smcf" in files
        assert "init_A0.smcf" in files
        assert "gauge_init.csv" in files

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
