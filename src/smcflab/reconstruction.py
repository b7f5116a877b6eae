"""Rebuild the moving frame and immersion from a gauge-system trajectory.

The frame obeys one linear system along any direction,
d F_a = M_a^g F_g + Re(c_a mbar) and d m = -i B m - c^g F_g, and time and
space share one RK4 step on it.  In time it runs at every grid point, with
coefficients taken from stored snapshots (midpoints by averaging).  Along the
coordinate lines of one axis it audits integrability (holonomy of the
periodic loop) and spreads seed data.  Invariants are checked, never
re-imposed, so drift is a genuine error signal.

The immersion integrates the displacement identity by the trapezoid rule over
stored slices, and the final audit recomputes the mean curvature from the
rebuilt surface to compare the geometric flow's two sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import (
    FrameDriftError,
    IntegrabilityError,
    ReconstructionInconsistencyError,
)
from .geometry import Immersion, MetricState, covariant_derivative, normal_part, raise_first
from .grid import Grid
from .norms import DiagnosticsCSV
from .trajectory import Trajectory, TrajectoryRecord


@dataclass
class Frame:
    """Tangent vectors and the complex normal vector at every grid point."""

    grid: Grid
    F_alpha: np.ndarray  # (d, d+2, *shape) real
    m: np.ndarray  # (d+2, *shape) complex

    def invariant_defects(self, g=None):
        """Worst pointwise violations of orthogonality/normalization/metric."""
        dot = lambda u, v: np.einsum("i...,i...->...", u, v)
        out = {
            "m_norm": float(np.max(np.abs(dot(self.m, np.conj(self.m)) - 2.0))),
            "m_null": float(np.max(np.abs(dot(self.m, self.m)))),
        }
        worst_fm = 0.0
        for a in range(self.grid.d):
            worst_fm = max(worst_fm, float(np.max(np.abs(dot(self.F_alpha[a], self.m)))))
        out["tangent_normal"] = worst_fm
        if g is not None:
            gr = np.einsum("ai...,bi...->ab...", self.F_alpha, self.F_alpha)
            out["metric"] = float(np.max(np.abs(gr - g)))
        return out


def frame_from_normal_basis(F: Immersion, nu1, nu2) -> Frame:
    return Frame(F.grid, F.tangents(), nu1 + 1j * nu2)


# -- coefficient bundles -------------------------------------------------------


def _bundle(grid: Grid, rec) -> SimpleNamespace:
    """What _frame_rhs reads at one record: B, M, c = i(dApsi - i lam V) and c raised."""
    s = rec.gauge(grid)
    sf = rec.second_form(grid)
    m = s.metric
    lam_up = raise_first(m, sf.lam)
    dApsi = grid.grad(sf.psi) + 1j * np.einsum("a...,...->a...", s.A, sf.psi)
    dApsi_up = np.einsum("ab...,b...->a...", m.ginv, dApsi)
    lamV = np.einsum("ag...,g...->a...", sf.lam, s.V)
    lamV_up = np.einsum("ab...,b...->a...", m.ginv, lamV)
    nablaV = covariant_derivative(s.V, m, valence="u")  # [a, g]
    M = np.imag(np.einsum("...,ga...->ag...", sf.psi, np.conj(lam_up))) + nablaV
    return SimpleNamespace(t=rec.t, B=s.B, M=M, c=1j * (dApsi - 1j * lamV), cu=1j * (dApsi_up - 1j * lamV_up))


def _bundle_midpoint(grid: Grid, rec0, rec1) -> SimpleNamespace:
    mid = TrajectoryRecord(
        t=0.5 * (rec0.t + rec1.t),
        g=0.5 * (rec0.g + rec1.g),
        A=0.5 * (rec0.A + rec1.A),
        lam=0.5 * (rec0.lam + rec1.lam),
        psi=0.5 * (rec0.psi + rec1.psi),
    )
    return _bundle(grid, mid)


def _frame_rhs(frame_F, frame_m, b):
    """d F_a = M_a^g F_g + Re(c_a mbar), d m = -i B m - c^g F_g at one coefficient bundle."""
    Fdot = np.real(np.einsum("a...,i...->ai...", b.c, np.conj(frame_m)))
    Fdot = Fdot + np.einsum("ag...,gi...->ai...", b.M, frame_F)
    mdot = -1j * b.B * frame_m - np.einsum("a...,ai...->i...", b.cu, frame_F)
    return Fdot, mdot


def _rk4(F0, m0, h, b0, bm, b1):
    """One RK4 step of length h of the frame system, with start, midpoint and end bundles."""
    k1F, k1m = _frame_rhs(F0, m0, b0)
    k2F, k2m = _frame_rhs(F0 + 0.5 * h * k1F, m0 + 0.5 * h * k1m, bm)
    k3F, k3m = _frame_rhs(F0 + 0.5 * h * k2F, m0 + 0.5 * h * k2m, bm)
    k4F, k4m = _frame_rhs(F0 + h * k3F, m0 + h * k3m, b1)
    F1 = F0 + h / 6.0 * (k1F + 2 * k2F + 2 * k3F + k4F)
    m1 = m0 + h / 6.0 * (k1m + 2 * k2m + 2 * k3m + k4m)
    return F1, m1


def transport_frame_time(frame: Frame, bundles, dt, drift_tol=1e-5) -> Frame:
    """One RK4 step of the frame motion; invariants re-checked, not re-imposed."""
    F1, m1 = _rk4(frame.F_alpha.astype(complex), frame.m, dt, *bundles)
    out = Frame(frame.grid, F1.real, m1)
    # the orthogonality invariants are protected by the skew structure; the
    # metric consistency mixes in the accuracy of the stored g and is audited
    # separately by the reconstruction driver
    defects = out.invariant_defects()
    worst = max(defects.values())
    if worst > drift_tol:
        raise FrameDriftError(
            f"frame invariants drifted to {worst:.3e} (> {drift_tol:.1e}) at t={bundles[2].t:.6g}: {defects}"
        )
    return out


# -- spatial transport (integrability audit) --------------------------------------


def _shifted(grid: Grid, hat, shift, real):
    """A field on the lattice shifted by `shift` along the last axis, from its spectrum `hat`."""
    phase = np.exp(1j * grid.k[-1] * shift)
    out = grid.ifft(hat * phase)
    return out.real if real else out


def integrate_frame_space(
    seed_F,
    seed_m,
    m_state: MetricState,
    sf,
    A,
    substeps=16,
    holonomy_tol=1e-4,
):
    """Transport the frame along the coordinate lines of the last axis across the grid.

    seed_F, seed_m: frame values on the slice {x_last = 0} (shapes like the
    full frame with the last axis removed).  Returns (Frame, holonomy) where
    the holonomy is the worst mismatch after closing the periodic loop.
    """
    grid = m_state.grid
    d = grid.d
    last = d - 1
    n = grid.n
    h = grid.dx / substeps

    lam_up = raise_first(m_state, sf.lam)
    # the transport reads only the last slot of each coefficient; as a frame
    # bundle M[a, g] = Gamma^g_{last a}, c = lam_{last .}, cu = lam_up^._{last}
    # and B = A_last, each transformed once
    M = np.swapaxes(m_state.gamma_u[:, last], 0, 1)
    coeff = {"M": M, "c": sf.lam[last], "cu": lam_up[:, last], "B": A[last]}
    spectra = {key: (grid.fft(val), np.isrealobj(val)) for key, val in coeff.items()}
    # coefficient lattices at all substep shifts (whole and half)
    shifts = {}
    for q in range(2 * substeps):
        shift = q * h / 2.0
        shifts[q] = {key: _shifted(grid, hat, shift, real) for key, (hat, real) in spectra.items()}

    def take(fields, j):
        # slice j along the transport axis; fields indexed [..., spatial]
        return SimpleNamespace(**{key: val[..., j] for key, val in fields.items()})

    Fa = seed_F.astype(complex)
    mv = seed_m.astype(complex)
    frame_F = np.empty((d, d + 2) + grid.shape, dtype=float)
    frame_m = np.empty((d + 2,) + grid.shape, dtype=complex)

    frame_F[..., 0] = Fa.real
    frame_m[..., 0] = mv
    for j in range(n):
        for s_ in range(substeps):
            c0 = take(shifts[(2 * s_) % (2 * substeps)], j)
            cm = take(shifts[(2 * s_ + 1) % (2 * substeps)], j)
            jn = j if 2 * s_ + 2 < 2 * substeps else (j + 1) % n
            c1 = take(shifts[(2 * s_ + 2) % (2 * substeps)], jn)
            Fa, mv = _rk4(Fa, mv, h, c0, cm, c1)
        if j + 1 < n:
            frame_F[..., j + 1] = Fa.real
            frame_m[..., j + 1] = mv
    holonomy = max(
        float(np.max(np.abs(Fa.real - seed_F))),
        float(np.max(np.abs(mv - seed_m))),
    )
    if holonomy > holonomy_tol:
        raise IntegrabilityError(
            f"periodic holonomy {holonomy:.3e} exceeds {holonomy_tol:.1e}: "
            "the supplied data violate the integrability conditions"
        )
    return Frame(grid, frame_F, frame_m), holonomy


# -- immersion path and the flow audit ---------------------------------------------


@dataclass
class ReconstructionResult:
    times: list
    frames: list
    immersions: list
    holonomy: float = np.nan
    frame_defects: list = field(default_factory=list)
    consistency_gap: list = field(default_factory=list)
    lambda_closure: list = field(default_factory=list)
    metric_closure: list = field(default_factory=list)
    smcf_residual: list = field(default_factory=list)
    identity_residual: list = field(default_factory=list)


def _displacement(grid, frame: Frame, rec):
    disp = -np.imag(np.einsum("...,i...->i...", rec.psi, np.conj(frame.m)))
    disp = disp + np.einsum("g...,gi...->i...", rec.gauge(grid).V, frame.F_alpha)
    return disp


def reconstruct(
    traj: Trajectory,
    frame0: Frame,
    F0: Immersion,
    drift_tol=1e-5,
    consistency_tol=1e-4,
    holonomy_tol=1e-4,
    spatial_audit=False,
) -> ReconstructionResult:
    """Transport the frame along the trajectory and integrate the immersion.

    With spatial_audit the initial frame is also re-derived by transporting a
    seed slice across the grid, and the periodic holonomy is recorded.
    """
    grid = traj.grid
    frames = [frame0]
    # each step's end bundle is the next step's start; only the (start, mid,
    # end) window of the current step stays alive
    end = _bundle(grid, traj[0])
    for i in range(len(traj) - 1):
        rec0, rec1 = traj[i], traj[i + 1]
        start = end
        mid = _bundle_midpoint(grid, rec0, rec1)
        end = _bundle(grid, rec1)
        frames.append(transport_frame_time(frames[-1], (start, mid, end), rec1.t - rec0.t, drift_tol=drift_tol))

    immersions = [F0]
    disp_prev = _displacement(grid, frames[0], traj[0])
    for i in range(len(traj) - 1):
        dt = traj[i + 1].t - traj[i].t
        disp_next = _displacement(grid, frames[i + 1], traj[i + 1])
        dev = immersions[-1].dev + 0.5 * dt * (disp_prev + disp_next)
        immersions.append(Immersion(grid, dev, graph=F0.graph))
        disp_prev = disp_next

    result = ReconstructionResult(times=list(traj.times), frames=frames, immersions=immersions)
    if spatial_audit:
        # seed on the slice {x_last = 0}, transported along the last axis
        s0, sf0 = traj[0].gauge(grid), traj[0].second_form(grid)
        _, result.holonomy = integrate_frame_space(
            frame0.F_alpha[..., 0], frame0.m[..., 0], s0.metric, sf0, s0.A, holonomy_tol=holonomy_tol
        )
    for i, (frame, imm) in enumerate(zip(frames, immersions)):
        rec = traj[i]
        result.frame_defects.append(frame.invariant_defects(rec.g))
        tang = imm.tangents()
        gap = float(np.max(np.abs(tang - frame.F_alpha)))
        if gap > consistency_tol:
            raise ReconstructionInconsistencyError(
                f"d_alpha F vs transported F_alpha gap {gap:.3e} exceeds {consistency_tol:.1e} at t={rec.t:.6g}"
            )
        result.consistency_gap.append(gap)
        d2F = imm.second_partials()
        lam_rec = grid.dealias(np.einsum("abi...,i...->ab...", d2F, frame.m))
        result.lambda_closure.append(grid.l2(lam_rec - rec.lam))
        gr = np.einsum("ai...,bi...->ab...", frame.F_alpha, frame.F_alpha)
        result.metric_closure.append(grid.l2(gr - rec.g))
        if 0 < i < len(traj) - 1:
            dtF = (immersions[i + 1].dev - immersions[i - 1].dev) / (traj[i + 1].t - traj[i - 1].t)
            smcf, ident = _flow_residuals(grid, frame, tang, d2F, dtF, rec.psi)
        else:
            smcf = ident = np.nan
        result.smcf_residual.append(smcf)
        result.identity_residual.append(ident)
    return result


def _flow_residuals(grid: Grid, frame: Frame, tang, d2F, dtF, psi):
    """L2 of (d_t F)^perp - J H(F) and of the displacement identity at one
    interior record, from the rebuilt surface's tangents and second partials."""
    # rebuild the geometry of the reconstructed surface from scratch
    g = np.einsum("ai...,bi...->ab...", tang, tang)
    mst = MetricState(grid, 0.5 * (g + np.swapaxes(g, 0, 1)))
    H = grid.dealias(
        np.einsum("ab...,abi...->i...", mst.ginv, d2F)
        - np.einsum("ab...,gab...,gi...->i...", mst.ginv, mst.gamma_u, tang)
    )
    nu1 = frame.m.real
    nu2 = frame.m.imag
    JH = np.einsum("i...,i...->...", H, nu1) * nu2 - np.einsum("i...,i...->...", H, nu2) * nu1
    perp = normal_part(mst, tang, dtF)
    ident = -np.imag(np.einsum("...,i...->i...", psi, np.conj(frame.m))) - JH
    return grid.l2(perp - JH), grid.l2(ident)


def write_reconstruction_csv(path, result: ReconstructionResult):
    out = DiagnosticsCSV(path)
    if np.isfinite(result.holonomy):
        out.append_many(result.times[0], [("spatial_holonomy", result.holonomy)])
    for i, t in enumerate(result.times):
        rows = [
            ("consistency_gap", result.consistency_gap[i]),
            ("lambda_closure_l2", result.lambda_closure[i]),
            ("metric_closure_l2", result.metric_closure[i]),
            ("smcf_residual_l2", result.smcf_residual[i]),
            ("identity_residual_l2", result.identity_residual[i]),
        ]
        rows.extend((f"frame_defect_{k}", v) for k, v in result.frame_defects[i].items())
        out.append_many(t, rows)
