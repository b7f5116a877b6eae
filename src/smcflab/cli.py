"""Command-line interface.

Every subcommand is a composition of the pipeline stages in `harness`, so it
writes the same artifacts, and tags its errors with the same stage names, as
`smcf run`.

Exit codes: 0 success, 2 validation error, 3 numerical failure
(blowup/divergence/no convergence), 4 constraint or integrability error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import harness
from .config import RunConfig, load_config, save_config
from .errors import SmcfError
from .grid import GridField
from .trajectory import TrajectoryRecord, load_trajectory, record_fields, write_fields

# evolve's command-line overrides: argument name -> config field
OVERRIDES = {
    "scenario": "scenario_kind",
    "resolution": "grid_points_n",
    "dt": "time_step_dt",
    "T": "final_time_T",
    "picard_sweeps": "picard_sweeps",
    "sign_variant": "sign_variant",
    "snapshot_every": "snapshot_every_steps",
}
SNAPSHOTS_HELP = "snapshot directory (default: <output_dir>/snapshots)"


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    given = {key: getattr(args, name, None) for name, key in OVERRIDES.items()}
    if getattr(args, "output", None):
        given["output_dir"] = args.output
    return replace(cfg, **{key: val for key, val in given.items() if val is not None}).resolve()


def _snapshots(args, cfg: RunConfig, stage):
    """The trajectory in --snapshots, by default <output_dir>/snapshots, loaded
    under the tag of the stage that reads it."""
    with harness._Stage(stage):
        traj = load_trajectory(args.snapshots or os.path.join(cfg.output_dir, "snapshots"), grid=harness.make_grid(cfg))
    os.makedirs(cfg.output_dir, exist_ok=True)
    return traj


def _flow_max(result):
    finite = [r for r in result.smcf_residual if r == r]
    return max(finite) if finite else float("nan")


def cmd_gauge_init(args):
    cfg = _load(args)
    harness.write_manifest(cfg)
    bundle = harness.gauge_init_and_write(cfg)
    grid = bundle.grid
    fields = list(record_fields(grid, TrajectoryRecord.from_state(0.0, bundle.gauge, bundle.sf)))
    for tag, vec in (("nu1", bundle.nu1), ("nu2", bundle.nu2)):
        fields += [GridField.from_real(grid, comp, name=f"{tag}_{i}") for i, comp in enumerate(vec)]
    write_fields(cfg.output_dir, "init", fields)
    print(f"gauge-init: wrote snapshots and residual report to {cfg.output_dir}")


def cmd_heat_gauge(args):
    cfg = _load(args)
    harness.write_manifest(cfg)
    traj = harness.heat_gauge_and_write(cfg, harness.gauge_init_and_write(cfg), args.snapshots or None)
    print(f"heat-gauge: evolved (h, A) in {traj.meta['mode']} mode for {len(traj) - 1} stored steps")


def cmd_evolve(args):
    cfg = _load(args)
    harness.write_manifest(cfg)
    traj = harness.evolve_and_write(cfg, harness.gauge_init_and_write(cfg))
    harness.norms_and_write(cfg, traj)
    print(f"evolve: {len(traj)} snapshots written to {cfg.output_dir}")


def cmd_check_constraints(args):
    cfg = _load(args)
    reports = harness.check_constraints_and_write(cfg, _snapshots(args, cfg, "check-constraints"))
    worst = max((norms.rel for rep in reports for norms in rep.entries.values()), default=0.0)
    print(f"check-constraints: {len(reports)} reports, worst relative residual {worst:.3e}")


def cmd_reconstruct(args):
    cfg = _load(args)
    traj = _snapshots(args, cfg, "reconstruct")
    result = harness.reconstruct_and_write(cfg, harness.gauge_init_and_write(cfg), traj)
    print(f"reconstruct: flow residual (L2) max {_flow_max(result):.3e} over {len(result.times)} slices")


def cmd_norms(args):
    cfg = _load(args)
    traj = _snapshots(args, cfg, "norms")
    harness.norms_and_write(cfg, traj)
    print(f"norms: wrote rows for {len(traj)} snapshots")


def cmd_run(args):
    result = harness.run_experiment(_load(args))
    print(
        f"run: {len(result['trajectory'])} snapshots, flow residual max {_flow_max(result['reconstruction']):.3e}, "
        f"outputs in {result['output_dir']}"
    )


def cmd_write_config(args):
    cfg = RunConfig().resolve()
    save_config(args.path, cfg)
    print(f"wrote default config to {args.path}")


def build_parser():
    p = argparse.ArgumentParser(prog="smcf", description="skew mean curvature flow laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    commands = (
        ("gauge-init", cmd_gauge_init, "fix gauges on the initial data and write snapshots", None),
        (
            "heat-gauge",
            cmd_heat_gauge,
            "run the parabolic system alone on frozen or prescribed lambda",
            "snapshot directory whose stored lambda path drives the gauge system "
            "(default: none, lambda stays frozen at its t = 0 value)",
        ),
        ("evolve", cmd_evolve, "run the coupled evolution", None),
        ("check-constraints", cmd_check_constraints, "constraint reports over a snapshot directory", SNAPSHOTS_HELP),
        ("reconstruct", cmd_reconstruct, "rebuild the immersion and audit the flow", SNAPSHOTS_HELP),
        ("norms", cmd_norms, "norm and envelope suite over a snapshot directory", SNAPSHOTS_HELP),
        ("run", cmd_run, "full experiment pipeline", None),
    )
    parsers = {}
    for name, func, help_text, snapshots_help in commands:
        sp = parsers[name] = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="path to a key-value config file")
        sp.add_argument("--output", help="override output_dir")
        if snapshots_help:
            sp.add_argument("--snapshots", help=snapshots_help)
        sp.set_defaults(func=func)

    sp = parsers["evolve"]
    sp.add_argument("--scenario", choices=("flat", "cliff", "bump"))
    sp.add_argument("--resolution", type=int)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--T", type=float)
    sp.add_argument("--picard-sweeps", dest="picard_sweeps", type=int)
    sp.add_argument("--sign-variant", dest="sign_variant", choices=("minus", "plus"))
    sp.add_argument("--snapshot-every", dest="snapshot_every", type=int)

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
