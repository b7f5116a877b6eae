"""End-to-end and per-layer benchmark of the smcflab pipeline.

    python3 perfbench/run.py --workload {cliff8,bump64,bump128,bump64-slab} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout of the repository.  The config of the
workload is built from the seed (see workloads.py) and written under
`.perfbench_out/<workload>/`; every process below runs `src/` from the
checkout and uses one BLAS thread.

With `--trace 0` the benchmark times set-up in SETUP_SAMPLES fresh processes
and runs untraced pipeline passes for about `--seconds` in one more; it
prints the end-to-end metrics.  With `--trace 1` it runs one untraced and one
traced pass and prints the per-layer metrics of the traced one together with
the tracing overhead.  Every pass is checked (checks.py); a pass that raises
or fails a check counts as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is not 0, and
no such line is printed, when the checkout has no program to run, a process
fails or runs out of time, or no pass succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

from workloads import WORKLOADS, workload_config

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".perfbench_out"
SETUP_SAMPLES = 3
BLAS_THREADS = "1"
# a run must end within 180 s; keep a margin for the driver's own start-up
TIME_LIMIT_S = 170.0

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "evolve_steps_per_s": "steps/s",
    "audit_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


class Runner:
    """Starts worker processes one at a time within the run's time limit."""

    def __init__(self, rundir, config_path, spec, deadline):
        self.rundir = rundir
        self.config_path = config_path
        self.spec = spec
        self.deadline = deadline
        src = os.path.abspath("src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + path if path else ""),
            OPENBLAS_NUM_THREADS=BLAS_THREADS,
            OMP_NUM_THREADS=BLAS_THREADS,
            MKL_NUM_THREADS=BLAS_THREADS,
        )
        self.count = 0

    def worker(self, mode, seconds=0.0):
        self.count += 1
        result = os.path.join(self.rundir, f"worker{self.count}.json")
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--mode", mode,
            "--kind", self.spec["kind"],
            "--config", self.config_path,
            "--seconds", repr(seconds),
            "--min-passes", str(self.spec["min_passes"]),
            "--result", result,
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            # the worker's output goes to stderr so that stdout ends with the result
            proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker ran past the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        with open(result) as fh:
            return json.load(fh)


def measure(runner, seconds):
    setups = [runner.worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    res = runner.worker("run", seconds)
    setups.append(res["setup_s"])
    if res["attempted"] == res["failed"]:
        raise BenchError(f"all {res['attempted']} passes failed: {res['passes'][0]['error']}")
    values = {
        "run_s": res["run_s"],
        "setup_s": median(setups),
        "evolve_steps_per_s": res["evolve_steps_per_s"],
        "audit_s": res["audit_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    print(f"perfbench: setup_s samples {', '.join(f'{s:.4f}' for s in setups)}")
    for i, p in enumerate(res["passes"]):
        state = f"run_s {p['run_s']:.4f}" if p["ok"] else f"FAILED {p['error']}"
        print(f"perfbench: pass {i + 1}: {state}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return res, metrics


def trace(runner):
    from tracing import PER_LAYER

    res = runner.worker("trace")
    if "layers" not in res:
        raise BenchError("the traced or the untraced pass failed; no per-layer metrics")
    layers = res["layers"]
    print(f"perfbench: spans written to {os.path.join(runner.rundir, 'spans.npz')}")
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return res, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    spec = WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join("src", "smcflab", "harness.py")):
        raise BenchError("no smcflab sources under ./src; run from the root of a checkout")
    if not os.path.isfile(spec["file"]):
        raise BenchError(f"workload config {spec['file']} not found")
    with open(spec["file"]) as fh:
        base = fh.read()

    rundir = os.path.join(OUT_ROOT, args.workload)
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    config_text = workload_config(args.workload, args.seed, base, os.path.join(rundir, "out"))
    config_path = os.path.join(rundir, "config.txt")
    with open(config_path, "w") as fh:
        fh.write(config_text)

    print(f"perfbench: workload {args.workload}, seed {args.seed}, config {config_path}")
    print(f"perfbench: BLAS threads {BLAS_THREADS} (OPENBLAS/OMP/MKL_NUM_THREADS)")
    runner = Runner(rundir, config_path, spec, deadline)
    res, metrics = trace(runner) if args.trace else measure(runner, args.seconds)
    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        sys.exit(1)
