"""Initial-time gauge fixing.

Harmonic coordinates on the initial surface, the Coulomb frame in its normal
bundle, and the elliptic div-curl solve for the initial connection.  Each
elliptic problem L u = f has the flat Laplacian as its principal part and is
solved by plain Picard iteration, mirroring the contraction-principle
structure of the continuum construction.  A sweep evaluates the residual
field r = L u - f once and steps u <- u - Lap^{-1} r with the spatial mean
removed, the same fixed point as u = Lap^{-1}(f - (L - Lap) u).  Each solver
records its per-sweep contraction factor instead of asserting a convergence
radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractionFailureError,
    NoConvergenceError,
    SmcfValidationError,
    TransversalityError,
)
from .geometry import (
    Immersion,
    MetricState,
    SecondForm,
    covariant_divergence,
    normal_connection,
    normal_part,
    pointwise_det,
)
from .grid import Grid


@dataclass
class SolveReport:
    iterations: int = 0
    residual: float = np.inf
    residual_history: list = field(default_factory=list)
    contraction_factors: list = field(default_factory=list)


@dataclass
class CoordinateChange:
    """y = x + phi(x) with the inverse map sampled on the uniform y-grid."""

    grid: Grid
    phi: np.ndarray  # (d, *shape)
    report: SolveReport

    def __post_init__(self):
        grid = self.grid
        dphi = np.swapaxes(grid.grad(self.phi), 0, 1)  # dphi[c, a] = d_a phi_c
        jacobian = dphi.copy()
        for a in range(grid.d):
            jacobian[a, a] += 1.0
        sup = float(np.max(np.sqrt(np.sum(dphi**2, axis=(0, 1)))))
        if sup >= 0.5:
            raise SmcfValidationError(f"coordinate change too large: sup|dphi| = {sup:.3f} >= 0.5")
        det = pointwise_det(grid, jacobian)
        if np.min(det) <= 0:
            raise SmcfValidationError("coordinate change is not orientation preserving")

    def inverse_samples(self):
        """x(y_j) on the uniform y-lattice by the fixed point x = y - phi(x)."""
        grid = self.grid
        y = np.stack([g.ravel() for g in grid.x], axis=-1)  # (P, d)
        x = y.copy()
        for _ in range(60):
            x_new = y - grid.eval_at_points(self.phi, x).T
            delta = np.max(np.abs(x_new - x))
            x = x_new
            if delta < 1e-13 * max(1.0, grid.L):
                break
        return x


def fractional_sobolev(grid: Grid, fields, sigma, s):
    """(sum_k |k|^{2 sigma} (1+|k|^2)^s |f_k|^2)^{1/2} summed over components."""
    weight = np.where(grid.k_mag > 0, np.where(grid.k_mag > 0, grid.k_mag, 1.0) ** (2 * sigma), 0.0)
    weight = weight * (1.0 + grid.k_sq) ** s
    meas = grid.L**grid.d / grid.n ** (2 * grid.d)
    flat = np.asarray(fields).reshape((-1,) + grid.shape)
    return float(np.sqrt(np.sum(weight * np.abs(grid.fft(flat)) ** 2) * meas))


def _picard_loop(grid: Grid, residual_of, u0, tol, max_iter, label):
    """Picard iteration u <- u - Lap^{-1}(L u - f) with divergence detection.

    residual_of(u) returns the residual field L u - f; it is evaluated once
    per sweep, and its norm is what the report records.
    """
    report = SolveReport()
    u = u0
    r = residual_of(u)
    res = grid.l2(r)
    report.residual_history.append(res)
    for it in range(1, max_iter + 1):
        u = u - grid.inv_laplacian(r)
        u = u - u.mean(axis=tuple(range(-grid.d, 0)), keepdims=True)
        r = residual_of(u)
        res_new = grid.l2(r)
        report.iterations = it
        report.contraction_factors.append(res_new / res if res > 0 else 0.0)
        report.residual_history.append(res_new)
        if res_new <= tol:
            report.residual = res_new
            return u, report
        hist = report.residual_history
        if len(hist) >= 4 and hist[-1] > hist[-2] > hist[-3] > hist[-4]:
            raise ContractionFailureError(
                f"{label}: residual grew over three sweeps ({hist[-4]:.3e} -> {hist[-1]:.3e})"
            )
        res = res_new
    raise NoConvergenceError(f"{label}: residual {res:.3e} > tol {tol:.1e} after {max_iter} sweeps")


def solve_harmonic_coordinates(
    m: MetricState,
    tol=1e-9,
    max_iter=60,
    small_data_threshold=0.1,
    s=2.0,
    delta=0.5,
) -> CoordinateChange:
    """Fixed-point solve of Lap_g phi = g^{ab} Gamma^g_{ab} with spectral inverse."""
    grid = m.grid
    sigma_d = grid.d / 2 - delta
    size = fractional_sobolev(grid, m.h, sigma_d, s + 1 - sigma_d)
    if size > small_data_threshold:
        raise SmcfValidationError(
            f"metric deviation too large for the harmonic solve: {size:.3e} > {small_data_threshold}"
        )
    Vg = m.V

    def residual_of(phi):
        dphi, d2 = grid.grad_hessian(phi)  # [s, c, ...], [a, b, c, ...]
        lap_g = grid.dealias(
            np.einsum("ab...,abc...->c...", m.ginv, d2)
            - np.einsum("s...,sc...->c...", Vg, dphi)
        )
        return lap_g - Vg

    phi0 = np.zeros((grid.d,) + grid.shape)
    phi, report = _picard_loop(grid, residual_of, phi0, tol, max_iter, "harmonic coordinates")
    return CoordinateChange(grid=grid, phi=phi, report=report)


def pullback_immersion(F: Immersion, change: CoordinateChange) -> Immersion:
    """Resample the immersion in the new coordinates: F~(y) = F(x(y))."""
    grid = F.grid
    x_at = change.inverse_samples()
    dev_new = grid.eval_at_points(F.dev, x_at).reshape(F.dev.shape)
    if F.graph:
        # linear part: F = (x, u) and x(y) = y + (x(y) - y); fold the periodic
        # difference into the tangential deviation
        for a in range(grid.d):
            diff = x_at[:, a].reshape(grid.shape) - grid.x[a]
            dev_new[a] = dev_new[a] + diff
    return Immersion(grid, grid.dealias(dev_new), graph=F.graph)


def build_coulomb_frame(F: Immersion, m: MetricState, tol=1e-9, max_iter=60):
    """Transversal constant direction, projection, and the Coulomb rotation:
    (nu1, nu2, A, report) of coulomb_rotation."""
    grid = F.grid
    t = F.tangents()
    amb = F.ambient_dim

    candidates = []
    for i in (grid.d, grid.d + 1):
        e = np.zeros((amb,) + grid.shape)
        e[i] = 1.0
        candidates.append(e)
    for sgn in (1.0, -1.0):
        e = np.zeros((amb,) + grid.shape)
        e[grid.d] = 1.0 / np.sqrt(2)
        e[grid.d + 1] = sgn / np.sqrt(2)
        candidates.append(e)

    scored = []
    for v in candidates:
        proj = normal_part(m, t, v)
        score = float(np.min(np.sqrt(np.einsum("i...,i...->...", proj, proj))))
        scored.append((score, v, proj))
    scored.sort(key=lambda item: -item[0])
    best_score, _, proj1 = scored[0]
    if best_score < 0.2:
        raise TransversalityError(
            f"no uniformly transversal constant direction: best projection norm {best_score:.3f}"
        )
    nu1_t = proj1 / np.sqrt(np.einsum("i...,i...->...", proj1, proj1))
    # second direction: best remaining candidate, orthonormalized
    for _, v, proj in scored[1:]:
        w = normal_part(m, t, v)
        w = w - np.einsum("i...,i...->...", w, nu1_t) * nu1_t
        nrm = np.sqrt(np.einsum("i...,i...->...", w, w))
        if float(np.min(nrm)) > 0.2:
            nu2_t = w / nrm
            break
    else:
        raise TransversalityError("no second transversal direction found")
    return coulomb_rotation(m, nu1_t, nu2_t, tol, max_iter)


def coulomb_rotation(m: MetricState, nu1_t, nu2_t, tol=1e-9, max_iter=60):
    """Rotate any orthonormal normal frame (nu1_t, nu2_t) by the angle b with
    Lap_g b = nabla^a A~_a into the Coulomb gauge nabla^a A_a = 0.  Returns
    (nu1, nu2, A, report); A is recomputed from the rotated frame."""
    grid = m.grid
    A_tilde = normal_connection(grid, nu1_t, nu2_t)
    div_tilde = covariant_divergence(m, A_tilde)
    Vg = m.V

    def residual_of(b):
        db, d2 = grid.grad_hessian(b)
        lap_g = grid.dealias(np.einsum("ac...,ac...->...", m.ginv, d2) - np.einsum("s...,s...->...", Vg, db))
        return lap_g - div_tilde

    b, report = _picard_loop(grid, residual_of, np.zeros(grid.shape), tol, max_iter, "Coulomb rotation")
    cb, sb = np.cos(b), np.sin(b)
    nu1 = cb * nu1_t - sb * nu2_t
    nu2 = sb * nu1_t + cb * nu2_t
    A = normal_connection(grid, nu1, nu2)
    report.residual = grid.l2(covariant_divergence(m, A))
    return nu1, nu2, A, report


def solve_initial_A(sf: SecondForm, tol=1e-9, max_iter=60):
    """Div-curl solve for the initial connection, keeping the divergence structure.

    Fixed point of Lap T(A) = d(lambda^2) + d(h dA) followed by a pure-gradient
    correction so the metric-contracted divergence vanishes; gradients do not
    move the curl.  The metric is the one sf carries.
    """
    m = sf.metric
    grid = m.grid
    w = sf.w
    # flat divergence of the antisymmetric source: (d^b w)_{a b}
    div_w = grid.div(np.swapaxes(w, 0, 1))

    def residual_of(A):
        dA = np.swapaxes(grid.grad(A), 0, 1)
        # Lap A_a + d_a(h^{mu b} d_b A_mu) + (d^b w)_{ab}
        inner = grid.dealias(np.einsum("mb...,mb...->...", m.ginv_dev, dA))
        return grid.laplacian(A) + grid.grad(inner) + div_w

    A0 = np.zeros((grid.d,) + grid.shape)
    A, report = _picard_loop(grid, residual_of, A0, tol, max_iter, "initial connection")

    # gradient correction for the contracted divergence q = g^{ab} d_b A_a
    def div_q(dA):
        return grid.dealias(np.einsum("ab...,ab...->...", m.ginv, dA))

    q = div_q(np.swapaxes(grid.grad(A), 0, 1))

    def residual_rho(rho):
        # q(A + d rho) = q(A) + g^{ab} d_a d_b rho
        return q + grid.dealias(np.einsum("ab...,ab...->...", m.ginv, grid.hessian(rho)))

    rho, _ = _picard_loop(grid, residual_rho, np.zeros(grid.shape), tol, max_iter, "divergence correction")
    A = A + grid.grad(rho)

    dA = np.swapaxes(grid.grad(A), 0, 1)  # dA[mu, b] = d_b A_mu
    curl_res = grid.l2((np.swapaxes(dA, 0, 1) - dA) - w)
    report.residual = grid.l2(div_q(dA))
    report.residual_history.append(report.residual)
    return A, report, {"div_l2": report.residual, "curl_l2": curl_res}


def check_elliptic_h(sf: SecondForm, tol=1e-9):
    """Residual of the harmonic-coordinate elliptic identity for the metric sf carries:
    the metric flow's right side without its Im(psi lambar) term, g^{ab} d_a d_b g
    + 2 Ric + the metric's Gamma terms, with lhs the first and rhs minus the rest.

    "rel" divides the residual by max(|lhs|, |rhs|, tol k_nyq) in the grid L2
    norm.  The floor is the harmonic solve's tolerance carried one derivative
    up: the residual is about 2 d(V) for the harmonic defect V, and
    |d V| <= k_nyq |V|.  Without it a metric whose both sides sit at the defect
    level, as harmonic coordinates make every d = 1 metric, reads about 1
    however well the solve converged; with it such a metric reads below 1 once
    the defect is below tol, and above it when the solve stopped short.
    """
    m = sf.metric
    grid = m.grid
    lhs = grid.dealias(np.einsum("ab...,abcs...->cs...", m.ginv, grid.hessian(m.g)))
    term_gg, term_dg = m.gamma_terms
    rhs = -2.0 * sf.ricci - grid.dealias(term_gg + term_dg)
    res = lhs - rhs
    norms_scale = max(grid.l2(lhs), grid.l2(rhs), tol * grid.k_nyq, 1e-300)
    return res, {
        "l2": grid.l2(res),
        "linf": grid.linf(res),
        "rel": grid.l2(res) / norms_scale,
    }
