"""Rebuild the moving frame and immersion from a gauge-system trajectory.

The frame obeys one linear system along any direction,
d F_a = M_a^g F_g + Re(c_a mbar) and d m = -i B m - c^g F_g.  On the real rows
X = (F_0, ..., F_{d-1}, Re m, Im m) it is X' = K X, with one real (d+2)x(d+2)
generator K acting alike on every ambient component, and one RK4 step of it
serves both directions.  In time it runs at every grid point, with generators
from stored snapshots (midpoints by averaging).  Along the last axis it audits
integrability: one RK4 sweep of all cells at once, from the identity, gives
every cell's propagator; chained from a seed slice they spread the frame, and
the mismatch after the periodic loop is the holonomy.  Invariants are checked,
never re-imposed, so drift is a genuine error signal.

The immersion integrates the displacement identity by the trapezoid rule over
stored slices, and the final audit recomputes the mean curvature from the
rebuilt surface to compare the geometric flow's two sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    FrameDriftError,
    IntegrabilityError,
    ReconstructionInconsistencyError,
)
from .geometry import Immersion, SecondForm, covariant_derivative, frame_defects, induced_metric, normal_part
from .grid import Grid
from .norms import DiagnosticsCSV
from .trajectory import Trajectory, TrajectoryRecord


@dataclass
class Frame:
    """Tangent vectors and the complex normal vector at every grid point; the
    arrays must not change once the Gram matrix or the defects are read."""

    grid: Grid
    F_alpha: np.ndarray  # (d, d+2, *shape) real
    m: np.ndarray  # (d+2, *shape) complex

    @cached_property
    def normal_defects(self):
        """geometry.frame_defects of the frame: the invariants that the skew
        structure of the frame motion protects."""
        return frame_defects(self.F_alpha, self.m)

    @cached_property
    def gram(self):
        """F_a . F_b, indexed [a, b]."""
        return np.einsum("ai...,bi...->ab...", self.F_alpha, self.F_alpha)

    def invariant_defects(self, g):
        """normal_defects and the worst violation of F_a . F_b = g_ab."""
        return {**self.normal_defects, "metric": float(np.max(np.abs(self.gram - g)))}


def frame_from_normal_basis(F: Immersion, nu1, nu2) -> Frame:
    return Frame(F.grid, F.tangents(), nu1 + 1j * nu2)


# -- the frame system ------------------------------------------------------------


def _generator(M, c, cu, B):
    """The real (d+2)x(d+2) matrix K of the frame system at every point.  It acts
    alike on every ambient component's column (F_0, ..., F_{d-1}, Re m, Im m)."""
    d = len(c)
    K = np.zeros((d + 2, d + 2) + B.shape)
    K[:d, :d] = M
    K[:d, d], K[:d, d + 1] = c.real, c.imag
    K[d, :d], K[d + 1, :d] = -cu.real, -cu.imag
    K[d, d + 1], K[d + 1, d] = B, -B
    return K


def _apply(K, X):
    """K X for the (d+2)x(d+2) matrix fields K and X."""
    return np.einsum("ik...,kj...->ij...", K, X)


def _rk4(X0, h, K0, Km, K1):
    """One RK4 step of length h of X' = K X, with start, midpoint and end generators."""
    k1 = _apply(K0, X0)
    k2 = _apply(Km, X0 + 0.5 * h * k1)
    k3 = _apply(Km, X0 + 0.5 * h * k2)
    k4 = _apply(K1, X0 + h * k3)
    return X0 + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def _pack(F_alpha, m):
    """The frame as the rows (F_0, ..., F_{d-1}, Re m, Im m) of one real array."""
    return np.concatenate([F_alpha, m.real[None], m.imag[None]])


def _unpack(grid: Grid, X) -> Frame:
    return Frame(grid, X[:-2], X[-2] + 1j * X[-1])


def _bundle(grid: Grid, rec):
    """(t, K) at one record: the generator of M, c = i(dApsi - i lam V), c raised and B."""
    s = rec.gauge(grid)
    sf = rec.second_form(grid)
    m = s.metric
    dApsi = grid.grad(sf.psi) + 1j * np.einsum("a...,...->a...", s.A, sf.psi)
    dApsi_up = np.einsum("ab...,b...->a...", m.ginv, dApsi)
    lamV = np.einsum("ag...,g...->a...", sf.lam, s.V)
    lamV_up = np.einsum("ab...,b...->a...", m.ginv, lamV)
    nablaV = covariant_derivative(s.V, m, valence="u")  # [a, g]
    M = np.imag(np.einsum("...,ga...->ag...", sf.psi, np.conj(sf.lam_up))) + nablaV
    return rec.t, _generator(M, 1j * (dApsi - 1j * lamV), 1j * (dApsi_up - 1j * lamV_up), s.B)


def _bundle_midpoint(grid: Grid, rec0, rec1):
    mid = TrajectoryRecord(
        t=0.5 * (rec0.t + rec1.t),
        g=0.5 * (rec0.g + rec1.g),
        A=0.5 * (rec0.A + rec1.A),
        lam=0.5 * (rec0.lam + rec1.lam),
        psi=0.5 * (rec0.psi + rec1.psi),
    )
    return _bundle(grid, mid)


def transport_frame_time(frame: Frame, bundles, dt, drift_tol=1e-5) -> Frame:
    """One RK4 step of the frame motion; invariants re-checked, not re-imposed."""
    (_, K0), (_, Km), (t1, K1) = bundles
    out = _unpack(frame.grid, _rk4(_pack(frame.F_alpha, frame.m), dt, K0, Km, K1))
    # the metric consistency mixes in the accuracy of the stored g and is
    # audited separately by the reconstruction driver
    defects = out.normal_defects
    worst = np.max(list(defects.values()))
    if not worst <= drift_tol:
        raise FrameDriftError(
            f"frame invariants drifted to {worst:.3e} (> {drift_tol:.1e}) at t={t1:.6g}: {defects}"
        )
    return out


# -- spatial transport (integrability audit) --------------------------------------


def integrate_frame_space(seed_F, seed_m, sf: SecondForm, A, substeps=16, holonomy_tol=1e-4):
    """Transport the frame along the coordinate lines of the last axis across the grid.

    seed_F, seed_m: frame values on the slice {x_last = 0} (shapes like the
    full frame with the last axis removed).  Returns (Frame, holonomy) where
    the holonomy is the worst mismatch after closing the periodic loop.  The
    connection coefficients come from the metric sf carries.
    """
    grid = sf.grid
    d = grid.d
    h = grid.dx / substeps

    # the transport reads only the last slot of each coefficient: M[a, g] =
    # Gamma^g_{last a}, c = lam_{last .}, cu = lam_up^._{last} and B = A_last,
    # each transformed once (the real M and B on the half spectrum)
    coeff = (np.swapaxes(sf.metric.gamma_u[:, d - 1], 0, 1), sf.lam[d - 1], sf.lam_up[:, d - 1], A[d - 1])
    spectra = [(grid.fft(val, half=np.isrealobj(val)), np.isrealobj(val)) for val in coeff]

    def generator(q):
        # K on the lattice shifted by q half substeps along the last axis
        phase = np.exp(1j * grid.k[-1] * (q * h / 2.0))
        return _generator(*(grid.ifft(hat * (grid.half(phase) if real else phase), half=real) for hat, real in spectra))

    # one RK4 sweep of every cell at once, from the identity, gives each cell's
    # propagator P[..., j].  Besides the first generator only the (start, mid,
    # end) window is alive, and the last end is the first one cell on.  The
    # sweep runs in blocks of about 4096 cells along the first axis, whose RK4
    # buffers stay in cache.
    P = np.einsum("ik,...->ik...", np.eye(d + 2), np.ones(grid.shape))
    rows = max(1, 4096 // grid.n ** (d - 1))
    blocks = [(slice(None), slice(None), slice(i, i + rows)) for i in range(0, grid.n, rows)]
    K_first = K_start = generator(0)
    for s_ in range(substeps):
        K_mid = generator(2 * s_ + 1)
        K_end = generator(2 * s_ + 2) if s_ + 1 < substeps else np.roll(K_first, -1, axis=-1)
        for b in blocks:
            P[b] = _rk4(P[b], h, K_start[b], K_mid[b], K_end[b])
        K_start = K_end

    # chain the cells; the columns of X are the ambient components
    X = _pack(seed_F, seed_m)
    out = np.empty((d + 2, d + 2) + grid.shape)
    for j in range(grid.n):
        out[..., j] = X
        X = _apply(P[..., j], X)
    holonomy = float(np.max([np.max(np.abs(X[:d] - seed_F)), np.max(np.abs(X[d] + 1j * X[d + 1] - seed_m))]))
    if not holonomy <= holonomy_tol:
        raise IntegrabilityError(
            f"periodic holonomy {holonomy:.3e} exceeds {holonomy_tol:.1e}: "
            "the supplied data violate the integrability conditions"
        )
    return _unpack(grid, out), holonomy


# -- immersion path and the flow audit ---------------------------------------------


@dataclass
class ReconstructionResult:
    times: list
    frames: list
    immersions: list
    holonomy: float
    frame_defects: list = field(default_factory=list)
    consistency_gap: list = field(default_factory=list)
    lambda_closure: list = field(default_factory=list)
    metric_closure: list = field(default_factory=list)
    smcf_residual: list = field(default_factory=list)
    identity_residual: list = field(default_factory=list)


def _displacement(grid, frame: Frame, rec):
    disp = -np.imag(np.einsum("...,i...->i...", rec.psi, np.conj(frame.m)))
    return disp + np.einsum("g...,gi...->i...", rec.gauge(grid).V, frame.F_alpha)


def reconstruct(
    traj: Trajectory,
    frame0: Frame,
    F0: Immersion,
    drift_tol=1e-5,
    consistency_tol=1e-4,
    holonomy_tol=1e-4,
) -> ReconstructionResult:
    """Transport the frame along the trajectory and integrate the immersion.

    The initial frame is also re-derived by transporting a seed slice across
    the grid, and the periodic holonomy is recorded.
    """
    grid = traj.grid
    frames, immersions = [frame0], [F0]
    disp_prev = _displacement(grid, frame0, traj[0])
    # each step's end bundle is the next step's start; only the (start, mid,
    # end) window of the current step stays alive
    end = _bundle(grid, traj[0])
    for rec0, rec1 in zip(traj.records, traj.records[1:]):
        dt = rec1.t - rec0.t
        start, mid, end = end, _bundle_midpoint(grid, rec0, rec1), _bundle(grid, rec1)
        frames.append(transport_frame_time(frames[-1], (start, mid, end), dt, drift_tol=drift_tol))
        disp_next = _displacement(grid, frames[-1], rec1)
        immersions.append(Immersion(grid, immersions[-1].dev + 0.5 * dt * (disp_prev + disp_next), graph=F0.graph))
        disp_prev = disp_next

    # seed on the slice {x_last = 0}, transported along the last axis
    _, holonomy = integrate_frame_space(
        frame0.F_alpha[..., 0], frame0.m[..., 0], traj[0].second_form(grid), traj[0].A, holonomy_tol=holonomy_tol
    )
    result = ReconstructionResult(times=list(traj.times), frames=frames, immersions=immersions, holonomy=holonomy)
    for i, (frame, imm) in enumerate(zip(frames, immersions)):
        rec = traj[i]
        result.frame_defects.append(frame.invariant_defects(rec.g))
        tang = imm.tangents()
        gap = float(np.max(np.abs(tang - frame.F_alpha)))
        if not gap <= consistency_tol:
            raise ReconstructionInconsistencyError(
                f"d_alpha F vs transported F_alpha gap {gap:.3e} exceeds {consistency_tol:.1e} at t={rec.t:.6g}"
            )
        result.consistency_gap.append(gap)
        d2F = imm.second_partials()
        lam_rec = grid.dealias(np.einsum("abi...,i...->ab...", d2F, frame.m))
        result.lambda_closure.append(grid.l2(lam_rec - rec.lam))
        result.metric_closure.append(grid.l2(frame.gram - rec.g))
        if 0 < i < len(traj) - 1:
            dtF = (immersions[i + 1].dev - immersions[i - 1].dev) / (traj[i + 1].t - traj[i - 1].t)
            smcf, ident = _flow_residuals(frame, imm, tang, d2F, dtF, rec.psi)
        else:
            smcf = ident = np.nan
        result.smcf_residual.append(smcf)
        result.identity_residual.append(ident)
    return result


def _flow_residuals(frame: Frame, imm: Immersion, tang, d2F, dtF, psi):
    """L2 of (d_t F)^perp - J H(F) and of the displacement identity at one
    interior record, from the rebuilt immersion, its tangents and second partials."""
    grid = imm.grid
    mst = induced_metric(imm)
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
