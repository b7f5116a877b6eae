"""Scenario generation and experiment orchestration."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__, calibration
from .config import RunConfig, config_to_text
from .constraints import constraint_reports, write_reports_csv
from .errors import SmcfError, SmcfValidationError
from .fixtures import bump_immersion, cliff_fixture, flat_immersion
from .gauge_init import (
    build_coulomb_frame,
    check_elliptic_h,
    pullback_immersion,
    solve_harmonic_coordinates,
    solve_initial_A,
)
from .geometry import (
    Immersion,
    SecondForm,
    induced_metric,
    second_form,
)
from .grid import Grid, GridField
from .norms import (
    DiagnosticsCSV,
    EnvelopeParams,
    frequency_envelope,
    sobolev_norm,
    y0_lo_norm_upper,
    y0_norm_upper,
)
from .parabolic import GaugeState, gauge_path, time_grid
from .reconstruction import frame_from_normal_basis, reconstruct, write_reconstruction_csv
from .schrodinger import picard_evolve
from .trajectory import Trajectory, TrajectoryRecord, load_trajectory, save_trajectory, write_fields


@dataclass
class ScenarioBundle:
    grid: Grid
    immersion: Immersion
    nu1: np.ndarray
    nu2: np.ndarray
    gauge: GaugeState
    sf: SecondForm
    residuals: dict = field(default_factory=dict)


def make_grid(cfg: RunConfig) -> Grid:
    return Grid(
        d=cfg.grid_dimension_d,
        n=cfg.grid_points_n,
        L=cfg.box_length_L,
        dealias_fraction=cfg.dealias_fraction,
    )


def generate_scenario(cfg: RunConfig) -> ScenarioBundle:
    """Initial-data bundle: immersion, gauged frame, (h0, A0, lambda0)."""
    cfg = cfg.resolve()
    grid = make_grid(cfg)
    d = grid.d

    if cfg.scenario_kind == "flat":
        F = flat_immersion(grid)
        m = induced_metric(F)
        nu1 = np.zeros((d + 2,) + grid.shape)
        nu2 = np.zeros((d + 2,) + grid.shape)
        nu1[d] = 1.0
        nu2[d + 1] = 1.0
        sf = second_form(F, (nu1, nu2), m)
        gauge = GaugeState(m, np.zeros((d,) + grid.shape))
        return ScenarioBundle(grid, F, nu1, nu2, gauge, sf, residuals={"harmonic_defect_l2": 0.0})

    if cfg.scenario_kind == "cliff":
        fix = cliff_fixture(grid, cfg.cliff_radius_r)
        m = induced_metric(fix.immersion)
        sf = second_form(fix.immersion, (fix.nu1, fix.nu2), m)
        gauge = GaugeState(m, np.zeros((d,) + grid.shape))
        res = {"harmonic_defect_l2": grid.l2(gauge.V)}
        return ScenarioBundle(grid, fix.immersion, fix.nu1, fix.nu2, gauge, sf, residuals=res)

    # bump: graph data -> harmonic coordinates -> Coulomb frame
    fix = bump_immersion(grid, cfg.bump_epsilon, cfg.bump_delta, cfg.bump_profile_width_w)
    change = solve_harmonic_coordinates(
        induced_metric(fix.immersion),
        tol=cfg.solver_tol,
        max_iter=cfg.solver_max_iter,
        small_data_threshold=cfg.small_data_threshold,
        s=cfg.envelope_s,
        delta=cfg.envelope_delta,
    )
    F = pullback_immersion(fix.immersion, change)
    m = induced_metric(F)
    nu1, nu2, A, coulomb_report = build_coulomb_frame(
        F, m, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter
    )
    sf = second_form(F, (nu1, nu2), m)
    gauge = GaugeState(m, A)
    A_solve, _, divcurl = solve_initial_A(sf, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    A_cent = A - A.mean(axis=tuple(range(1, d + 1)), keepdims=True)
    _, elliptic = check_elliptic_h(sf, tol=cfg.solver_tol)
    residuals = {
        "harmonic_defect_l2": grid.l2(gauge.V),
        "harmonic_iterations": change.report.iterations,
        "coulomb_divergence_l2": coulomb_report.residual,
        "initial_A_div_l2": divcurl["div_l2"],
        "initial_A_curl_l2": divcurl["curl_l2"],
        "initial_A_route_gap_linf": float(np.max(np.abs(A_solve - A_cent))),
        "elliptic_h_rel": elliptic["rel"],
    }
    # a fresh form on the same arrays: the run keeps none of the solves' caches
    return ScenarioBundle(grid, F, nu1, nu2, gauge, SecondForm(m, sf.lam, sf.psi), residuals=residuals)


def norm_suite_rows(cfg: RunConfig, grid: Grid, gauge: GaugeState, sf: SecondForm):
    """Deterministic diagnostics rows for one state."""
    params = EnvelopeParams(s=cfg.envelope_s, delta=cfg.envelope_delta)
    sigma_d = params.sigma_d(grid.d)
    rows = []
    lam_norm2 = 0.0
    env_acc = None
    measured = {}
    for a in range(grid.d):
        for b in range(grid.d):
            if b < a and np.array_equal(sf.lam[a, b], sf.lam[b, a]):
                # lambda is symmetric: reuse the (b, a) component's numbers
                norm, env = measured[b, a]
            else:
                f = GridField(grid, sf.lam[a, b])
                norm, env = sobolev_norm(f, cfg.envelope_s), frequency_envelope(f, params)
                measured[a, b] = norm, env
            lam_norm2 += norm**2
            env_acc = env if env_acc is None else np.maximum(env_acc, env)
    rows.append(("lambda_Hs", float(np.sqrt(lam_norm2))))
    rows.append(("lambda_l2", grid.l2(sf.lam)))
    for j, aj in enumerate(env_acc):
        rows.append((f"lambda_envelope_a{j}", float(aj)))
    h_y0 = 0.0
    h_lo = 0.0
    for a in range(grid.d):
        for b in range(a, grid.d):
            f = GridField.from_real(grid, gauge.metric.h[a, b])
            h_y0 += y0_norm_upper(f, cfg.envelope_s + 2, cfg.envelope_delta) ** 2
            h_lo += y0_lo_norm_upper(f, cfg.envelope_delta) ** 2
    rows.append(("h_Y0_upper", float(np.sqrt(h_y0))))
    rows.append(("h_Y0lo_upper", float(np.sqrt(h_lo))))
    rows.append(("h_l2", grid.l2(gauge.metric.h)))
    rows.append(("A_l2", grid.l2(gauge.A)))
    rows.append(("metric_eig_min", gauge.metric.eig_min()))
    rows.append(("sigma_d", sigma_d))
    return rows


def write_manifest(cfg: RunConfig):
    """Create the output directory and echo the resolved config and the
    frozen calibration constants into its manifest.txt."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "manifest.txt"), "w") as fh:
        fh.write(f"# smcflab {__version__} run manifest\n")
        fh.write(config_to_text(cfg))
        fh.write("# frozen calibration constants\n")
        for name, value in calibration.ALL.items():
            fh.write(f"{name} = {value!r}\n")


class _Stage:
    """Tag escaping errors with the pipeline stage they came from."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, SmcfError):
            exc.args = (f"[{self.name}] {exc.args[0] if exc.args else ''}",) + exc.args[1:]
        return False


# -- pipeline stages ------------------------------------------------------------
# Each stage runs under its _Stage tag and writes its artifacts into
# cfg.output_dir before the next stage starts.  run_experiment and every `smcf`
# subcommand are compositions of these functions.  The stage calls go through
# this module's globals, so a caller can time or replace them here.


def gauge_init_and_write(cfg: RunConfig) -> ScenarioBundle:
    """Gauge-fix the initial data and write the solver residuals to gauge_init.csv."""
    with _Stage("gauge-init"):
        bundle = generate_scenario(cfg)
    init_csv = DiagnosticsCSV(os.path.join(cfg.output_dir, "gauge_init.csv"))
    init_csv.append_many(0.0, sorted(bundle.residuals.items()))
    return bundle


def evolve_and_write(cfg: RunConfig, bundle: ScenarioBundle) -> Trajectory:
    """Evolve the coupled system from the scenario and write snapshots/."""
    with _Stage("evolve"):
        traj = picard_evolve(
            bundle.sf,
            bundle.gauge,
            T=cfg.final_time_T,
            dt=cfg.time_step_dt,
            sweeps=cfg.picard_sweeps,
            tol=cfg.picard_tol or None,
            mode=cfg.coupling_mode,
            sign_variant=cfg.sign_variant,
            snapshot_every=cfg.snapshot_every_steps,
            blowup_threshold=cfg.blowup_threshold,
        )
    save_trajectory(os.path.join(cfg.output_dir, "snapshots"), traj)
    return traj


def heat_gauge_and_write(cfg: RunConfig, bundle: ScenarioBundle, snapshots=None) -> Trajectory:
    """Solve the parabolic (h, A) system alone along a prescribed lambda path
    and write gauge_snapshots/.

    Without snapshots the scenario's initial lambda is held constant on the
    config's time grid; with a snapshot directory its stored lambda path is
    prescribed (not evolved) and the gauge system is re-solved at the stored times.
    """
    grid = bundle.grid
    with _Stage("heat-gauge"):
        if snapshots is None:
            nsteps, dt = time_grid(cfg.final_time_T, cfg.time_step_dt)
            times = [i * dt for i in range(nsteps + 1)]
            steps = [dt] * nsteps
            sf0 = bundle.sf
            lam_path = [sf0.lam] * (nsteps + 1)
        else:
            lam_traj = load_trajectory(snapshots, grid=grid)
            times = list(lam_traj.times)
            steps = np.diff(times)
            sf0 = lam_traj[0].second_form(grid)
            lam_path = [rec.lam for rec in lam_traj.records]
        records = []
        for i, s in enumerate(gauge_path(bundle.gauge, lam_path, steps, cfg.sign_variant)):
            if i == 0:
                records.append(TrajectoryRecord.from_state(times[0], s, sf0))
            elif i % cfg.snapshot_every_steps == 0 or i == len(times) - 1:
                sf = SecondForm(s.metric, lam_path[i])
                records.append(TrajectoryRecord.from_state(times[i], s, sf))
    mode = "frozen-lambda" if snapshots is None else "prescribed-lambda"
    traj = Trajectory(grid=grid, records=records, meta={"mode": mode})
    save_trajectory(os.path.join(cfg.output_dir, "gauge_snapshots"), traj)
    return traj


def _measurable(t, rows):
    """rows, a list of (name, value); refuses the record at t if a value is not
    finite.  A stored value can be finite and still overflow the audit."""
    for name, value in rows:
        if not np.isfinite(value):
            raise SmcfValidationError(f"the record at t={t:.17g} cannot be measured: {name} is {value}")
    return rows


def norms_and_write(cfg: RunConfig, traj: Trajectory):
    """Write the norm and envelope rows of every stored record to diagnostics.csv."""
    grid = traj.grid
    diag = DiagnosticsCSV(os.path.join(cfg.output_dir, "diagnostics.csv"))
    with _Stage("norms"), np.errstate(all="ignore"):
        for rec in traj.records:
            rows = norm_suite_rows(cfg, grid, rec.gauge(grid), rec.second_form(grid))
            diag.append_many(rec.t, _measurable(rec.t, rows))


def check_constraints_and_write(cfg: RunConfig, traj: Trajectory):
    """Run the T1-T5 monitors over the trajectory and write constraints.csv."""
    with _Stage("check-constraints"), np.errstate(all="ignore"):
        reports = constraint_reports(traj)
        for rep in reports:
            rows = [(f"{name} {col}", v) for name, res in rep.entries.items() for col, v in vars(res).items()]
            _measurable(rep.t, rows)
    write_reports_csv(os.path.join(cfg.output_dir, "constraints.csv"), reports)
    return reports


def reconstruct_and_write(cfg: RunConfig, bundle: ScenarioBundle, traj: Trajectory):
    """Rebuild the immersion from the scenario's initial frame, with the
    spatial holonomy audit, and write reconstruction.csv and immersions/."""
    frame0 = frame_from_normal_basis(bundle.immersion, bundle.nu1, bundle.nu2)
    with _Stage("reconstruct"):
        result = reconstruct(
            traj,
            frame0,
            bundle.immersion,
            drift_tol=cfg.frame_drift_tol,
            consistency_tol=cfg.consistency_tol,
            holonomy_tol=cfg.holonomy_tol,
        )
    write_reconstruction_csv(os.path.join(cfg.output_dir, "reconstruction.csv"), result)
    recon_dir = os.path.join(cfg.output_dir, "immersions")
    os.makedirs(recon_dir, exist_ok=True)
    for i, imm in enumerate(result.immersions):
        fields = (GridField.from_real(traj.grid, dev, name=f"F{comp}") for comp, dev in enumerate(imm.dev))
        write_fields(recon_dir, f"imm_{i:06d}", fields)
    return result


def run_experiment(cfg: RunConfig) -> dict:
    """Full pipeline: manifest, then every stage in order.

    Outputs are flushed stage by stage, so a failing run leaves every
    completed artifact behind and its error message names the stage.
    """
    cfg = cfg.resolve()
    write_manifest(cfg)
    bundle = gauge_init_and_write(cfg)
    traj = evolve_and_write(cfg, bundle)
    norms_and_write(cfg, traj)
    reports = check_constraints_and_write(cfg, traj)
    result = reconstruct_and_write(cfg, bundle, traj)
    return {
        "trajectory": traj,
        "reports": reports,
        "reconstruction": result,
        "bundle": bundle,
        "output_dir": cfg.output_dir,
    }
