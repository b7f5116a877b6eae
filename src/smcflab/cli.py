"""Command-line interface.

Exit codes: 0 success, 2 validation error, 3 numerical failure
(blowup/divergence/no convergence), 4 constraint or integrability error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import RunConfig, load_config, save_config
from .errors import SmcfError


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for name in ("scenario", "resolution", "dt", "T", "picard_sweeps", "sign_variant", "snapshot_every"):
        val = getattr(args, name, None)
        if val is None:
            continue
        key = {
            "scenario": "scenario_kind",
            "resolution": "grid_points_n",
            "dt": "time_step_dt",
            "T": "final_time_T",
            "picard_sweeps": "picard_sweeps",
            "sign_variant": "sign_variant",
            "snapshot_every": "snapshot_every_steps",
        }[name]
        from dataclasses import replace

        cfg = replace(cfg, **{key: val})
    if getattr(args, "output", None):
        from dataclasses import replace

        cfg = replace(cfg, output_dir=args.output)
    return cfg.resolve()


def cmd_gauge_init(args):
    from .grid import GridField, write_field
    from .harness import generate_scenario
    from .norms import DiagnosticsCSV

    cfg = _load(args)
    bundle = generate_scenario(cfg)
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    grid = bundle.grid
    d = grid.d
    for a in range(d):
        for b in range(a, d):
            write_field(
                os.path.join(outdir, f"init_h{a}{b}.smcf"),
                GridField.from_real(grid, bundle.gauge.metric.h[a, b], name=f"h{a}{b}"),
            )
            write_field(
                os.path.join(outdir, f"init_lam{a}{b}.smcf"),
                GridField(grid, bundle.sf.lam[a, b], name=f"lam{a}{b}"),
            )
    for a in range(d):
        write_field(
            os.path.join(outdir, f"init_A{a}.smcf"),
            GridField.from_real(grid, bundle.gauge.A[a], name=f"A{a}"),
        )
    for tag, vec in (("nu1", bundle.nu1), ("nu2", bundle.nu2)):
        for i in range(d + 2):
            write_field(
                os.path.join(outdir, f"init_{tag}_{i}.smcf"),
                GridField.from_real(grid, vec[i], name=f"{tag}{i}"),
            )
    csv = DiagnosticsCSV(os.path.join(outdir, "gauge_init.csv"))
    csv.append_many(0.0, sorted(bundle.residuals.items()))
    print(f"gauge-init: wrote snapshots and residual report to {outdir}")


def cmd_heat_gauge(args):
    from .harness import generate_scenario, run_heat_gauge, write_manifest
    from .trajectory import load_trajectory, save_trajectory

    cfg = _load(args)
    bundle = generate_scenario(cfg)
    lam_traj = (
        load_trajectory(args.snapshots, grid=bundle.grid)
        if getattr(args, "snapshots", None)
        else None
    )
    traj = run_heat_gauge(cfg, bundle, lam_traj)
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_manifest(os.path.join(cfg.output_dir, "manifest.txt"), cfg)
    save_trajectory(os.path.join(cfg.output_dir, "gauge_snapshots"), traj)
    print(f"heat-gauge: evolved (h, A) along frozen lambda for {len(traj) - 1} stored steps")


def cmd_evolve(args):
    from .harness import generate_scenario, write_manifest
    from .norms import DiagnosticsCSV
    from .harness import norm_suite_rows
    from .schrodinger import picard_evolve
    from .trajectory import save_trajectory

    cfg = _load(args)
    bundle = generate_scenario(cfg)
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
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_manifest(os.path.join(cfg.output_dir, "manifest.txt"), cfg)
    save_trajectory(os.path.join(cfg.output_dir, "snapshots"), traj)
    diag = DiagnosticsCSV(os.path.join(cfg.output_dir, "diagnostics.csv"))
    for rec in traj.records:
        diag.append_many(rec.t, norm_suite_rows(cfg, bundle.grid, rec.gauge(bundle.grid), rec.second_form(bundle.grid)))
    print(f"evolve: {len(traj)} snapshots written to {cfg.output_dir}")


def cmd_check_constraints(args):
    from .constraints import constraint_reports, write_reports_csv
    from .harness import make_grid
    from .trajectory import load_trajectory

    cfg = _load(args)
    snapdir = args.snapshots or os.path.join(cfg.output_dir, "snapshots")
    traj = load_trajectory(snapdir, grid=make_grid(cfg))
    reports = constraint_reports(traj)
    out = os.path.join(cfg.output_dir, "constraints.csv")
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_reports_csv(out, reports)
    worst = max(
        (norms.rel for rep in reports for _, norms in rep.rows()),
        default=0.0,
    )
    print(f"check-constraints: {len(reports)} reports, worst relative residual {worst:.3e}")


def cmd_reconstruct(args):
    from .harness import generate_scenario, reconstruct_and_write
    from .trajectory import load_trajectory

    cfg = _load(args)
    bundle = generate_scenario(cfg)
    snapdir = args.snapshots or os.path.join(cfg.output_dir, "snapshots")
    traj = load_trajectory(snapdir, grid=bundle.grid)
    os.makedirs(cfg.output_dir, exist_ok=True)
    result = reconstruct_and_write(cfg, bundle, traj, cfg.output_dir)
    finite = [r for r in result.smcf_residual if r == r]
    worst = max(finite) if finite else float("nan")
    print(f"reconstruct: flow residual (L2) max {worst:.3e} over {len(result.times)} slices")


def cmd_norms(args):
    from .harness import generate_scenario, norm_suite_rows
    from .norms import DiagnosticsCSV
    from .trajectory import load_trajectory

    cfg = _load(args)
    os.makedirs(cfg.output_dir, exist_ok=True)
    out = DiagnosticsCSV(os.path.join(cfg.output_dir, "norms.csv"))
    if args.snapshots:
        from .harness import make_grid

        traj = load_trajectory(args.snapshots, grid=make_grid(cfg))
        for rec in traj.records:
            out.append_many(rec.t, norm_suite_rows(cfg, traj.grid, rec.gauge(traj.grid), rec.second_form(traj.grid)))
        print(f"norms: wrote rows for {len(traj)} snapshots")
    else:
        bundle = generate_scenario(cfg)
        out.append_many(0.0, norm_suite_rows(cfg, bundle.grid, bundle.gauge, bundle.sf))
        print("norms: wrote rows for the initial data")


def cmd_run(args):
    from .harness import run_experiment

    cfg = _load(args)
    result = run_experiment(cfg)
    finite = [r for r in result["reconstruction"].smcf_residual if r == r]
    worst = max(finite) if finite else float("nan")
    print(
        f"run: {len(result['trajectory'])} snapshots, flow residual max {worst:.3e}, "
        f"outputs in {result['output_dir']}"
    )


def cmd_write_config(args):
    cfg = RunConfig().resolve()
    save_config(args.path, cfg)
    print(f"wrote default config to {args.path}")


def build_parser():
    p = argparse.ArgumentParser(prog="smcf", description="skew mean curvature flow laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, snapshots=False):
        sp.add_argument("--config", help="path to a key-value config file")
        sp.add_argument("--output", help="override output_dir")
        if snapshots:
            sp.add_argument("--snapshots", help="snapshot directory (default: <output_dir>/snapshots)")

    sp = sub.add_parser("gauge-init", help="fix gauges on the initial data and write snapshots")
    common(sp)
    sp.set_defaults(func=cmd_gauge_init)

    sp = sub.add_parser("heat-gauge", help="run the parabolic system alone on frozen lambda")
    common(sp, snapshots=True)
    sp.set_defaults(func=cmd_heat_gauge)

    sp = sub.add_parser("evolve", help="run the coupled evolution")
    common(sp)
    sp.add_argument("--scenario", choices=("flat", "cliff", "bump"))
    sp.add_argument("--resolution", type=int)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--T", type=float)
    sp.add_argument("--picard-sweeps", dest="picard_sweeps", type=int)
    sp.add_argument("--sign-variant", dest="sign_variant", choices=("minus", "plus"))
    sp.add_argument("--snapshot-every", dest="snapshot_every", type=int)
    sp.set_defaults(func=cmd_evolve)

    sp = sub.add_parser("check-constraints", help="constraint reports over a snapshot directory")
    common(sp, snapshots=True)
    sp.set_defaults(func=cmd_check_constraints)

    sp = sub.add_parser("reconstruct", help="rebuild the immersion and audit the flow")
    common(sp, snapshots=True)
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("norms", help="norm and envelope suite")
    common(sp, snapshots=True)
    sp.set_defaults(func=cmd_norms)

    sp = sub.add_parser("run", help="full experiment pipeline")
    common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("write-config", help="write a fully resolved default config")
    sp.add_argument("path")
    sp.set_defaults(func=cmd_write_config)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except SmcfError as exc:
        print(f"smcf: error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
