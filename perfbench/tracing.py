"""Timing from outside the program: stage timers and per-call spans.

Nothing here edits the package.  Wrappers replace module attributes and
`Grid` methods for the duration of a `with` block and are removed on exit.
Because the package binds many functions with `from .x import f`, a wrapper
replaces every attribute of every `smcflab` module that is the same function
object, not only the defining one.

`StageTimers` puts light timers on the five calls `run_experiment` makes into
the pipeline stages; the end-to-end metrics come from it.  `Tracer` records
one span per call of every function in `TARGETS` (name, start, end, parent)
in memory, and `layer_metrics` turns the spans of one pass into the
per-layer metrics.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

import numpy as np

# span name -> (module, attribute); "Grid.x" names a method of the Grid class
TARGETS = {
    "grid.fft": ("smcflab.grid", "Grid.fft"),
    "grid.ifft": ("smcflab.grid", "Grid.ifft"),
    "grid.eval_at_points": ("smcflab.grid", "Grid.eval_at_points"),
    "grid.lp_multiplier": ("smcflab.grid", "Grid.lp_multiplier"),
    "geometry.christoffel": ("smcflab.geometry", "christoffel"),
    "geometry.curvature": ("smcflab.geometry", "curvature"),
    "geometry.covariant_derivative": ("smcflab.geometry", "covariant_derivative"),
    "gauge_init.solve_harmonic_coordinates": ("smcflab.gauge_init", "solve_harmonic_coordinates"),
    "gauge_init.pullback_immersion": ("smcflab.gauge_init", "pullback_immersion"),
    "gauge_init.build_coulomb_frame": ("smcflab.gauge_init", "build_coulomb_frame"),
    "gauge_init.solve_initial_A": ("smcflab.gauge_init", "solve_initial_A"),
    "gauge_init.check_elliptic_h": ("smcflab.gauge_init", "check_elliptic_h"),
    "parabolic.step_parabolic": ("smcflab.parabolic", "step_parabolic"),
    "parabolic.gauge_state_from": ("smcflab.parabolic", "gauge_state_from"),
    "parabolic.heat_rhs_h": ("smcflab.parabolic", "heat_rhs_h"),
    "parabolic.heat_rhs_A": ("smcflab.parabolic", "heat_rhs_A"),
    "schrodinger.step_schrodinger": ("smcflab.schrodinger", "step_schrodinger"),
    "schrodinger.assemble_nonlinearity": ("smcflab.schrodinger", "assemble_nonlinearity"),
    "schrodinger.picard_evolve": ("smcflab.schrodinger", "picard_evolve"),
    "norms.sobolev_norm": ("smcflab.norms", "sobolev_norm"),
    "norms.frequency_envelope": ("smcflab.norms", "frequency_envelope"),
    "norms.y0_norm_upper": ("smcflab.norms", "y0_norm_upper"),
    "norms.y0_lo_norm_upper": ("smcflab.norms", "y0_lo_norm_upper"),
    "norms.cube_weights": ("smcflab.norms", "cube_weights"),
    "constraints.residual_T1": ("smcflab.constraints", "residual_T1"),
    "constraints.residual_T2": ("smcflab.constraints", "residual_T2"),
    "constraints.residual_T3": ("smcflab.constraints", "residual_T3"),
    "constraints.residual_T4": ("smcflab.constraints", "residual_T4"),
    "constraints.residual_T5": ("smcflab.constraints", "residual_T5"),
    "constraints.residual_metric_evolution": ("smcflab.constraints", "residual_metric_evolution"),
    "constraints.constraint_reports": ("smcflab.constraints", "constraint_reports"),
    "reconstruction.reconstruct": ("smcflab.reconstruction", "reconstruct"),
    "reconstruction.transport_frame_time": ("smcflab.reconstruction", "transport_frame_time"),
    "reconstruction.integrate_frame_space": ("smcflab.reconstruction", "integrate_frame_space"),
    "trajectory.save_trajectory": ("smcflab.trajectory", "save_trajectory"),
    "trajectory.load_trajectory": ("smcflab.trajectory", "load_trajectory"),
    "harness.generate_scenario": ("smcflab.harness", "generate_scenario"),
    "harness.norm_suite_rows": ("smcflab.harness", "norm_suite_rows"),
    "harness.run_experiment": ("smcflab.harness", "run_experiment"),
}

# the five calls run_experiment makes into the stages: harness attribute -> stage
STAGES = {
    "generate_scenario": "gauge-init",
    "picard_evolve": "evolve",
    "norm_suite_rows": "norms",
    "constraint_reports": "check-constraints",
    "reconstruct": "reconstruct",
}
# the same five calls as span names
STAGE_SPANS = {span: STAGES[attr] for span, (_, attr) in TARGETS.items() if attr in STAGES}


class _Patches:
    """Replace attributes, remember the originals, restore them on exit."""

    def __init__(self):
        self._saved = []

    def replace_everywhere(self, original, wrapper):
        """Every smcflab module attribute bound to `original` gets `wrapper`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "smcflab" or mod_name.startswith("smcflab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def _resolve(module, attr):
    mod = importlib.import_module(module)
    if attr.startswith("Grid."):
        return mod.Grid, attr[len("Grid."):]
    return mod, attr


class StageTimers:
    """Wall time of the five stage calls in `harness`, summed per stage."""

    def __init__(self):
        self.seconds = {}
        self._patches = _Patches()

    def __enter__(self):
        import smcflab.harness as harness

        for attr, stage in STAGES.items():
            self._patches.set(harness, attr, self._timed(getattr(harness, attr), stage))
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    def _timed(self, fn, stage):
        seconds = self.seconds
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[stage] = seconds.get(stage, 0.0) + clock() - t0

        return timed


def _dir_bytes(path):
    total = 0
    for entry in os.scandir(path):
        if entry.is_file(follow_symlinks=False):
            total += entry.stat(follow_symlinks=False).st_size
    return total


class Tracer:
    """One span per call of every target, kept in memory.

    A span is (name id, start, end, parent span index, nested) where `nested`
    is true when a span of the same name is already open, so inclusive times
    count only the outermost call.  A few targets also add to `counters`
    after their span closes.
    """

    def __init__(self):
        self.names = list(TARGETS)
        self.spans = []
        self.counters = {
            "grid.fft.bytes": 0,
            "gauge_init.harmonic.iterations": 0,
            "gauge_init.coulomb.iterations": 0,
            "schrodinger.sweeps": 0,
            "trajectory.bytes_written": 0,
        }
        self._stack = [-1]
        self._active = [0] * len(self.names)
        self._patches = _Patches()

    def __enter__(self):
        hooks = {
            "grid.fft": self._count_bytes,
            "grid.ifft": self._count_bytes,
            "gauge_init.solve_harmonic_coordinates": self._harmonic_iterations,
            "gauge_init.build_coulomb_frame": self._coulomb_iterations,
            "schrodinger.picard_evolve": self._sweeps,
            "trajectory.save_trajectory": self._bytes_written,
        }
        for nid, name in enumerate(self.names):
            owner, attr = _resolve(*TARGETS[name])
            original = owner.__dict__[attr]
            wrapper = self._wrap(nid, original, hooks.get(name))
            if isinstance(owner, type):
                self._patches.set(owner, attr, wrapper)
            else:
                self._patches.replace_everywhere(original, wrapper)
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    def _wrap(self, nid, fn, hook):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            nested = active[nid]
            active[nid] = nested + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[nid] = nested
                spans[idx] = (nid, t0, t1, parent, nested > 0)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters filled after a span closes ---------------------------------

    def _count_bytes(self, args, kwargs, result):
        self.counters["grid.fft.bytes"] += np.asarray(args[1]).nbytes + result.nbytes

    def _harmonic_iterations(self, args, kwargs, result):
        self.counters["gauge_init.harmonic.iterations"] += result.report.iterations

    def _coulomb_iterations(self, args, kwargs, result):
        self.counters["gauge_init.coulomb.iterations"] += result[3].iterations

    def _sweeps(self, args, kwargs, result):
        self.counters["schrodinger.sweeps"] += len(result.meta.get("sweep_distances", []))

    def _bytes_written(self, args, kwargs, result):
        dirpath = args[0] if args else kwargs["dirpath"]
        self.counters["trajectory.bytes_written"] += _dir_bytes(dirpath)

    # -- output ---------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, start, end, parent, nested."""
        if any(s is None for s in self.spans):
            raise RuntimeError("a traced call is still open")
        table = np.array([s[:4] for s in self.spans], dtype=float).reshape(-1, 4)
        nested = np.array([s[4] for s in self.spans], dtype=bool)
        return table[:, 0].astype(int), table[:, 1], table[:, 2], table[:, 3].astype(int), nested

    def save(self, path):
        """Write the spans of this tracer to an .npz file."""
        nid, start, end, parent, nested = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, start=start, end=end, parent=parent, nested=nested)


# per-layer metric name -> unit, in reporting order
PER_LAYER = {
    "grid.fft.calls": "count",
    "grid.ifft.calls": "count",
    "grid.fft.calls_per_step": "count",
    "grid.fft.s": "s",
    "grid.fft.us_per_call": "us",
    "grid.fft.mb_computed": "MB",
    "grid.eval_at_points.calls": "count",
    "grid.eval_at_points.s": "s",
    "grid.lp_multiplier.calls": "count",
    "geometry.christoffel.calls": "count",
    "geometry.curvature.calls": "count",
    "geometry.curvature.s": "s",
    "geometry.covariant_derivative.calls": "count",
    "geometry.covariant_derivative.s": "s",
    "gauge_init.solve_harmonic_coordinates.s": "s",
    "gauge_init.harmonic.iterations": "count",
    "gauge_init.pullback_immersion.s": "s",
    "gauge_init.build_coulomb_frame.s": "s",
    "gauge_init.coulomb.iterations": "count",
    "gauge_init.solve_initial_A.s": "s",
    "gauge_init.check_elliptic_h.s": "s",
    "parabolic.step_parabolic.calls": "count",
    "parabolic.step_parabolic.s": "s",
    "parabolic.gauge_state_from.calls": "count",
    "parabolic.gauge_state_from.s": "s",
    "parabolic.heat_rhs_h.s": "s",
    "parabolic.heat_rhs_A.s": "s",
    "schrodinger.step_schrodinger.calls": "count",
    "schrodinger.step_schrodinger.s": "s",
    "schrodinger.assemble_nonlinearity.calls": "count",
    "schrodinger.assemble_nonlinearity.s": "s",
    "schrodinger.picard_evolve.s": "s",
    "schrodinger.sweeps": "count",
    "norms.sobolev_norm.s": "s",
    "norms.frequency_envelope.s": "s",
    "norms.y0_norm_upper.s": "s",
    "norms.y0_lo_norm_upper.s": "s",
    "norms.cube_weights.calls": "count",
    "constraints.residual_T1.s": "s",
    "constraints.residual_T2.s": "s",
    "constraints.residual_T3.s": "s",
    "constraints.residual_T4.s": "s",
    "constraints.residual_T5.s": "s",
    "constraints.residual_metric_evolution.s": "s",
    "reconstruction.reconstruct.s": "s",
    "reconstruction.reconstruct.self_s": "s",
    "reconstruction.transport_frame_time.s": "s",
    "reconstruction.integrate_frame_space.s": "s",
    "trajectory.save_trajectory.s": "s",
    "trajectory.bytes_written": "B",
    "trajectory.load_trajectory.s": "s",
    "harness.stage.gauge-init.s": "s",
    "harness.stage.evolve.s": "s",
    "harness.stage.norms.s": "s",
    "harness.stage.check-constraints.s": "s",
    "harness.stage.reconstruct.s": "s",
    "harness.stage.io.s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def layer_metrics(tracer: Tracer, nsteps: int, untraced_run_s: float):
    """Per-layer metrics of one traced pass, as {name: value}.

    Layer aggregates cover the spans inside the traced `run_experiment` call;
    `trajectory.load_trajectory.s` is the round-trip check made after it.
    Self time is a span's duration minus the durations of its direct
    children, which nest inside it because the program is single-threaded.
    """
    nid, start, end, parent, nested = tracer.arrays()
    names = tracer.names
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    run_id = names.index("harness.run_experiment")
    runs = np.flatnonzero(nid == run_id)
    if len(runs) != 1:
        raise RuntimeError(f"expected one traced run_experiment call, got {len(runs)}")
    run = runs[0]
    inside = (start >= start[run]) & (end <= end[run])

    def mask(name):
        return inside & (nid == names.index(name))

    def calls(name):
        return int(np.count_nonzero(mask(name)))

    def incl(name):
        m = mask(name) & ~nested
        return float(np.sum(dur[m]))

    evolve = np.flatnonzero(mask("schrodinger.picard_evolve"))
    fft_starts = start[mask("grid.fft")]
    fft_in_evolve = sum(
        int(np.count_nonzero((fft_starts >= start[i]) & (fft_starts <= end[i]))) for i in evolve
    )
    n_transforms = calls("grid.fft") + calls("grid.ifft")
    fft_s = incl("grid.fft") + incl("grid.ifft")

    stage_s = {stage: 0.0 for stage in STAGE_SPANS.values()}
    direct = np.flatnonzero(parent == run)
    for i in direct:
        stage = STAGE_SPANS.get(names[nid[i]])
        if stage is not None:
            stage_s[stage] += dur[i]
    traced_run_s = float(dur[run])

    out = {
        "grid.fft.calls": calls("grid.fft"),
        "grid.ifft.calls": calls("grid.ifft"),
        "grid.fft.calls_per_step": fft_in_evolve / nsteps,
        "grid.fft.s": fft_s,
        "grid.fft.us_per_call": 1e6 * fft_s / n_transforms if n_transforms else 0.0,
        "grid.fft.mb_computed": tracer.counters["grid.fft.bytes"] / 1e6,
        "grid.eval_at_points.calls": calls("grid.eval_at_points"),
        "grid.eval_at_points.s": incl("grid.eval_at_points"),
        "grid.lp_multiplier.calls": calls("grid.lp_multiplier"),
        "geometry.christoffel.calls": calls("geometry.christoffel"),
        "geometry.curvature.calls": calls("geometry.curvature"),
        "geometry.curvature.s": incl("geometry.curvature"),
        "geometry.covariant_derivative.calls": calls("geometry.covariant_derivative"),
        "geometry.covariant_derivative.s": incl("geometry.covariant_derivative"),
        "gauge_init.solve_harmonic_coordinates.s": incl("gauge_init.solve_harmonic_coordinates"),
        "gauge_init.harmonic.iterations": tracer.counters["gauge_init.harmonic.iterations"],
        "gauge_init.pullback_immersion.s": incl("gauge_init.pullback_immersion"),
        "gauge_init.build_coulomb_frame.s": incl("gauge_init.build_coulomb_frame"),
        "gauge_init.coulomb.iterations": tracer.counters["gauge_init.coulomb.iterations"],
        "gauge_init.solve_initial_A.s": incl("gauge_init.solve_initial_A"),
        "gauge_init.check_elliptic_h.s": incl("gauge_init.check_elliptic_h"),
        "parabolic.step_parabolic.calls": calls("parabolic.step_parabolic"),
        "parabolic.step_parabolic.s": incl("parabolic.step_parabolic"),
        "parabolic.gauge_state_from.calls": calls("parabolic.gauge_state_from"),
        "parabolic.gauge_state_from.s": incl("parabolic.gauge_state_from"),
        "parabolic.heat_rhs_h.s": incl("parabolic.heat_rhs_h"),
        "parabolic.heat_rhs_A.s": incl("parabolic.heat_rhs_A"),
        "schrodinger.step_schrodinger.calls": calls("schrodinger.step_schrodinger"),
        "schrodinger.step_schrodinger.s": incl("schrodinger.step_schrodinger"),
        "schrodinger.assemble_nonlinearity.calls": calls("schrodinger.assemble_nonlinearity"),
        "schrodinger.assemble_nonlinearity.s": incl("schrodinger.assemble_nonlinearity"),
        "schrodinger.picard_evolve.s": incl("schrodinger.picard_evolve"),
        "schrodinger.sweeps": tracer.counters["schrodinger.sweeps"],
        "norms.sobolev_norm.s": incl("norms.sobolev_norm"),
        "norms.frequency_envelope.s": incl("norms.frequency_envelope"),
        "norms.y0_norm_upper.s": incl("norms.y0_norm_upper"),
        "norms.y0_lo_norm_upper.s": incl("norms.y0_lo_norm_upper"),
        "norms.cube_weights.calls": calls("norms.cube_weights"),
        "constraints.residual_T1.s": incl("constraints.residual_T1"),
        "constraints.residual_T2.s": incl("constraints.residual_T2"),
        "constraints.residual_T3.s": incl("constraints.residual_T3"),
        "constraints.residual_T4.s": incl("constraints.residual_T4"),
        "constraints.residual_T5.s": incl("constraints.residual_T5"),
        "constraints.residual_metric_evolution.s": incl("constraints.residual_metric_evolution"),
        "reconstruction.reconstruct.s": incl("reconstruction.reconstruct"),
        "reconstruction.reconstruct.self_s": float(np.sum(self_time[mask("reconstruction.reconstruct")])),
        "reconstruction.transport_frame_time.s": incl("reconstruction.transport_frame_time"),
        "reconstruction.integrate_frame_space.s": incl("reconstruction.integrate_frame_space"),
        "trajectory.save_trajectory.s": incl("trajectory.save_trajectory"),
        "trajectory.bytes_written": tracer.counters["trajectory.bytes_written"],
        "trajectory.load_trajectory.s": float(
            np.sum(dur[(nid == names.index("trajectory.load_trajectory")) & ~inside & ~nested])
        ),
        "trace.spans": len(nid),
        "trace.overhead_s": traced_run_s - untraced_run_s,
        "trace.overhead_pct": 100.0 * (traced_run_s - untraced_run_s) / untraced_run_s,
    }
    for stage, seconds in stage_s.items():
        out[f"harness.stage.{stage}.s"] = float(seconds)
    out["harness.stage.io.s"] = traced_run_s - sum(stage_s.values())
    return {name: out[name] for name in PER_LAYER}
