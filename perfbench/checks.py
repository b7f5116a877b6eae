"""Output checks for one pipeline pass.

Every check compares against a computation made apart from the program (the
product-torus ODE, eigenvalues of the stored metric) or against a property
the method must have (truncation-level residuals, bounded Picard
contraction, a bit-exact snapshot round trip).  None compares against stored
output of an earlier run.

`check_pass` returns a list of failure messages; an empty list means the pass
is correct.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy.integrate import solve_ivp

from smcflab import trajectory as trajectory_mod

MONITORS = ("T1", "T2", "T3", "T4", "T5", "metric_evolution")
TRUNC = 1e-9

# cliff8: radii against the ODE, drift of r1 r2, absolute L2 of T1..T4
CLIFF_RADIUS_TOL = 1e-5
CLIFF_PRODUCT_TOL = 1e-6
CLIFF_EXACT_TOL = 1e-10

SLAB_CONTRACTION_MAX = 0.5


def _bit_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_round_trip(traj, snapshot_dir):
    """load_trajectory(save_trajectory(traj)) gives back every record bit for bit."""
    loaded = trajectory_mod.load_trajectory(snapshot_dir, grid=traj.grid)
    if len(loaded) != len(traj):
        return [f"round trip: {len(loaded)} records loaded, {len(traj)} in memory"]
    out = []
    for i, (mem, disk) in enumerate(zip(traj.records, loaded.records)):
        if mem.t != disk.t:
            out.append(f"round trip: record {i} time {disk.t!r} != {mem.t!r}")
        for key in ("g", "A", "lam", "psi"):
            if not _bit_equal(getattr(mem, key), getattr(disk, key)):
                out.append(f"round trip: record {i} field {key} differs")
    return out


def check_cliff(cfg, result):
    """Radii against r1' = 1/r2, r2' = -1/r1 and exact identities in absolute L2."""
    out = []
    r0 = cfg.cliff_radius_r
    T = cfg.final_time_T
    sol = solve_ivp(
        lambda t, r: [1.0 / r[1], -1.0 / r[0]],
        (0.0, T),
        [r0, r0],
        rtol=1e-12,
        atol=1e-12,
        dense_output=True,
    )
    recon = result["reconstruction"]
    worst_r = worst_p = 0.0
    for t, imm in zip(recon.times, recon.immersions):
        r1 = np.sqrt(imm.dev[0] ** 2 + imm.dev[1] ** 2)
        r2 = np.sqrt(imm.dev[2] ** 2 + imm.dev[3] ** 2)
        r1o, r2o = sol.sol(t)
        worst_r = max(worst_r, float(np.max(np.abs(r1 - r1o))), float(np.max(np.abs(r2 - r2o))))
        worst_p = max(worst_p, float(np.max(np.abs(r1 * r2 - r0 * r0))))
    if not worst_r <= CLIFF_RADIUS_TOL:
        out.append(f"cliff radii {worst_r:.3e} from the ODE oracle (> {CLIFF_RADIUS_TOL:.0e})")
    if not worst_p <= CLIFF_PRODUCT_TOL:
        out.append(f"cliff r1 r2 drift {worst_p:.3e} (> {CLIFF_PRODUCT_TOL:.0e})")
    # rel is meaningless here: residual and constituents are both at roundoff
    worst = max(rep.entries[name].l2 for rep in result["reports"] for name in ("T1", "T2", "T3", "T4"))
    if not worst <= CLIFF_EXACT_TOL:
        out.append(f"cliff T1..T4 absolute L2 {worst:.3e} (> {CLIFF_EXACT_TOL:.0e})")
    return out


def _metric_eig_min(g):
    """Smallest eigenvalue of the pointwise metric, by LAPACK on the stored g."""
    d = g.shape[0]
    mats = np.moveaxis(g.reshape(d, d, -1), -1, 0)
    return float(np.min(np.linalg.eigvalsh(mats)))


def check_bump(cfg, result):
    """Monitor growth, closure and flow residual, metric positivity, holonomy."""
    out = []
    traj = result["trajectory"]
    grid = traj.grid
    dt = traj.meta["dt"]
    for name in MONITORS:
        series = [rep.entries[name].rel for rep in result["reports"] if name in rep.entries]
        if not series:
            out.append(f"monitor {name} never reported")
            continue
        bound = 10.0 * (series[0] + dt * dt + TRUNC)
        peak = max(series)
        if not peak <= bound:
            out.append(f"monitor {name} peak rel {peak:.3e} > 10(initial + dt^2 + 1e-9) = {bound:.3e}")
    recon = result["reconstruction"]
    scale = grid.l2(traj[0].lam)
    bound = 10.0 * (dt * dt + TRUNC)
    closure = max(recon.lambda_closure) / scale
    if not closure <= bound:
        out.append(f"lambda closure {closure:.3e} > 10(dt^2 + 1e-9) = {bound:.3e}")
    flow = [r for r in recon.smcf_residual if math.isfinite(r)]
    if not flow:
        out.append("no interior slice for the flow residual")
    elif not max(flow) / scale <= bound:
        out.append(f"flow residual {max(flow) / scale:.3e} > 10(dt^2 + 1e-9) = {bound:.3e}")
    for rec in traj.records:
        eig = _metric_eig_min(rec.g)
        if not eig > 0.0:
            out.append(f"metric_eig_min {eig:.3e} <= 0 at t={rec.t:.6g}")
    if not recon.holonomy <= cfg.holonomy_tol:
        out.append(f"spatial holonomy {recon.holonomy!r} exceeds holonomy_tol {cfg.holonomy_tol:.1e}")
    return out


def check_slab(traj):
    """Every Picard sweep contracts the distance by at least half."""
    dist = traj.meta.get("sweep_distances", [])
    if len(dist) < 2:
        return [f"slab run reported {len(dist)} sweep distances"]
    out = []
    for k in range(1, len(dist)):
        factor = dist[k] / dist[k - 1] if dist[k - 1] > 0 else math.inf
        if not factor <= SLAB_CONTRACTION_MAX:
            out.append(f"sweep {k + 1} contraction factor {factor:.3e} > {SLAB_CONTRACTION_MAX}")
    return out


def check_pass(kind, cfg, result):
    """All checks of one workload kind on the dict run_experiment returned."""
    traj = result["trajectory"]
    out = check_round_trip(traj, os.path.join(result["output_dir"], "snapshots"))
    if kind == "cliff":
        out += check_cliff(cfg, result)
    else:
        out += check_bump(cfg, result)
    if cfg.coupling_mode == "slab":
        out += check_slab(traj)
    return out
