"""One benchmark process: set up a workload, then run and check pipeline passes.

    python3 perfbench/worker.py --mode {setup,run,trace} --kind {bump,cliff} \
        --config PATH --seconds S --min-passes K --result PATH

Run from the root of a checkout with `src` on PYTHONPATH.  The clock for
`setup_s` starts before the package is imported, so the import counts; the
interpreter's own start does not.

- `setup` times the set-up alone and exits.
- `run` sets up, then runs untraced passes until the next one would end after
  `--seconds`, and at least `--min-passes`.
- `trace` sets up, runs one untraced pass and then one traced pass, and
  reports the per-layer metrics of the traced pass.

A pass that raises or fails a check is counted as failed and the loop goes
on.  The result is written as JSON to `--result`.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from statistics import median  # noqa: E402


def setup(config_path):
    """Import the package, load and resolve the config, build the first scenario."""
    import smcflab.harness as harness
    from smcflab.config import load_config

    cfg = load_config(config_path).resolve()
    harness.generate_scenario(cfg)
    return time.perf_counter() - _T0, harness, cfg


class Pass:
    """Outcome of one pipeline pass."""

    def __init__(self):
        self.ok = False
        self.correct = True
        self.run_s = None
        self.stage_s = {}
        self.nsteps = None
        self.wall_s = None
        self.error = None


def one_pass(harness, cfg, kind, stage_timers=None):
    """Run `run_experiment` once and check its outputs.

    The pass's output directory is removed before and after, so every pass
    writes into an empty directory and the checkout does not fill up.
    """
    import checks
    from smcflab.errors import SmcfError

    p = Pass()
    shutil.rmtree(cfg.output_dir, ignore_errors=True)
    gc.collect()
    t_wall = time.perf_counter()
    try:
        t0 = time.perf_counter()
        result = harness.run_experiment(cfg)
        p.run_s = time.perf_counter() - t0
        if stage_timers is not None:
            p.stage_s = dict(stage_timers.seconds)
        traj = result["trajectory"]
        p.nsteps = int(round(cfg.final_time_T / traj.meta["dt"]))
        failures = checks.check_pass(kind, cfg, result)
        if failures:
            p.correct = False
            p.error = "; ".join(failures)
        else:
            p.ok = True
    except SmcfError as exc:
        p.error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a crash of the program counts as a failed pass too
        p.error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    finally:
        shutil.rmtree(cfg.output_dir, ignore_errors=True)
    p.wall_s = time.perf_counter() - t_wall
    if p.error:
        print(f"perfbench: failed pass: {p.error}", file=sys.stderr)
    return p


def run_passes(harness, cfg, kind, seconds, min_passes=1):
    """Untraced passes until the next would end after `seconds`; at least `min_passes`."""
    from tracing import StageTimers

    passes = []
    start = time.perf_counter()
    while True:
        with StageTimers() as timers:
            passes.append(one_pass(harness, cfg, kind, timers))
        typical = median(p.wall_s for p in passes)
        if len(passes) >= min_passes and time.perf_counter() - start + typical > seconds:
            return passes


def summarize(passes):
    """End-to-end figures of the passes that did not fail (medians over passes)."""
    good = [p for p in passes if p.ok]
    out = {
        "attempted": len(passes),
        "failed": len(passes) - len(good),
        "correct": all(p.correct for p in passes),
        "passes": [
            {"ok": p.ok, "run_s": p.run_s, "stage_s": p.stage_s, "error": p.error} for p in passes
        ],
    }
    if good:
        audit = [p.stage_s["norms"] + p.stage_s["check-constraints"] + p.stage_s["reconstruct"] for p in good]
        out["run_s"] = median([p.run_s for p in good])
        out["evolve_steps_per_s"] = median([p.nsteps / p.stage_s["evolve"] for p in good])
        out["audit_s"] = median(audit)
    return out


def trace_passes(harness, cfg, kind, spans_path):
    """One untraced pass, then one traced pass; per-layer metrics of the latter."""
    import tracing

    with tracing.StageTimers() as timers:
        untraced = one_pass(harness, cfg, kind, timers)
    with tracing.Tracer() as tracer:
        traced = one_pass(harness, cfg, kind)
    tracer.save(spans_path)
    passes = [untraced, traced]
    out = {
        "attempted": 2,
        "failed": sum(not p.ok for p in passes),
        "correct": all(p.correct for p in passes),
    }
    if out["failed"] == 0:
        out["layers"] = tracing.layer_metrics(tracer, traced.nsteps, untraced.run_s)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--kind", choices=("bump", "cliff"), required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    setup_s, harness, cfg = setup(args.config)
    out = {"setup_s": setup_s}
    if args.mode == "run":
        out.update(summarize(run_passes(harness, cfg, args.kind, args.seconds, args.min_passes)))
    elif args.mode == "trace":
        spans = os.path.join(os.path.dirname(os.path.abspath(args.result)), "spans.npz")
        out.update(trace_passes(harness, cfg, args.kind, spans))
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(args.result, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
