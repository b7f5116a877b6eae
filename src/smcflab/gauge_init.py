"""Initial-time gauge fixing.

Harmonic coordinates on the initial surface, the Coulomb frame in its normal
bundle, and the elliptic div-curl solve for the initial connection.  All
elliptic problems are solved by plain Picard iteration with the spectral
inverse Laplacian, mirroring the contraction-principle structure of the
continuum construction; each solver records its per-sweep contraction factor
instead of asserting a convergence radius.
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
    christoffel,
    covariant_divergence,
    curl_source,
    harmonic_defect,
    identity_metric,
    normal_connection,
    normal_part,
    pointwise_det,
    pointwise_inverse,
    raise_first,
)
from .grid import Grid


@dataclass
class SolveReport:
    iterations: int = 0
    residual: float = np.inf
    residual_history: list = field(default_factory=list)
    contraction_factors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


@dataclass
class CoordinateChange:
    """y = x + phi(x) with the inverse map sampled on the uniform y-grid."""

    grid: Grid
    phi: np.ndarray  # (d, *shape)
    report: SolveReport
    _inverse_samples: np.ndarray = None

    def __post_init__(self):
        grid = self.grid
        dphi = np.stack([np.stack([grid.deriv(self.phi[c], a) for a in range(grid.d)]) for c in range(grid.d)])
        # dphi[c, a] = d_a phi_c
        self.jacobian = dphi.copy()
        for a in range(grid.d):
            self.jacobian[a, a] += 1.0
        sup = float(np.max(np.sqrt(np.sum(dphi**2, axis=(0, 1)))))
        if sup >= 0.5:
            raise SmcfValidationError(f"coordinate change too large: sup|dphi| = {sup:.3f} >= 0.5")
        det = pointwise_det(grid, self.jacobian)
        if np.min(det) <= 0:
            raise SmcfValidationError("coordinate change is not orientation preserving")

    def inverse_samples(self, max_iter=60, tol=1e-13):
        """x(y_j) on the uniform y-lattice by the fixed point x = y - phi(x)."""
        if self._inverse_samples is not None:
            return self._inverse_samples
        grid = self.grid
        y = np.stack([g.ravel() for g in grid.x], axis=-1)  # (P, d)
        x = y.copy()
        for _ in range(max_iter):
            phi_at = np.stack([grid.eval_at_points(self.phi[c], x) for c in range(grid.d)], axis=-1)
            x_new = y - phi_at
            delta = np.max(np.abs(x_new - x))
            x = x_new
            if delta < tol * max(1.0, grid.L):
                break
        self._inverse_samples = x
        return x


def fractional_sobolev(grid: Grid, fields, sigma, s):
    """(sum_k |k|^{2 sigma} (1+|k|^2)^s |f_k|^2)^{1/2} summed over components."""
    total = 0.0
    weight = np.where(grid.k_mag > 0, np.where(grid.k_mag > 0, grid.k_mag, 1.0) ** (2 * sigma), 0.0)
    weight = weight * (1.0 + grid.k_sq) ** s
    meas = grid.L**grid.d / grid.n ** (2 * grid.d)
    arr = np.asarray(fields)
    flat = arr.reshape((-1,) + grid.shape)
    for comp in flat:
        total += np.sum(weight * np.abs(grid.fft(comp)) ** 2) * meas
    return float(np.sqrt(total))


def _picard_loop(update, residual_of, tol, max_iter, label):
    """Generic damped-free Picard iteration with divergence detection."""
    report = SolveReport()
    state = update(None)
    res = residual_of(state)
    report.residual_history.append(res)
    for it in range(1, max_iter + 1):
        state = update(state)
        res_new = residual_of(state)
        report.iterations = it
        if report.residual_history:
            prev = report.residual_history[-1]
            report.contraction_factors.append(res_new / prev if prev > 0 else 0.0)
        report.residual_history.append(res_new)
        if res_new <= tol:
            report.residual = res_new
            return state, report
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
    if m.gamma_u is None:
        m = christoffel(m)
    sigma_d = grid.d / 2 - delta
    size = fractional_sobolev(grid, m.h, sigma_d, s + 1 - sigma_d)
    if size > small_data_threshold:
        raise SmcfValidationError(
            f"metric deviation too large for the harmonic solve: {size:.3e} > {small_data_threshold}"
        )
    Vg = harmonic_defect(m)
    ginv_dev = m.ginv - identity_metric(grid)

    def update(phi):
        if phi is None:
            return np.zeros((grid.d,) + grid.shape)
        d2 = np.stack(
            [np.stack([grid.deriv(grid.deriv(phi, a), b) for b in range(grid.d)]) for a in range(grid.d)]
        )  # [a, b, c, ...]
        dphi = np.stack([grid.deriv(phi, a) for a in range(grid.d)])  # [s, c, ...]
        rhs = (
            Vg
            - grid.dealias(np.einsum("ab...,abc...->c...", ginv_dev, d2))
            + grid.dealias(np.einsum("s...,sc...->c...", Vg, dphi))
        )
        out = grid.inv_laplacian(rhs)
        return out - out.mean(axis=tuple(range(1, grid.d + 1)), keepdims=True)

    def residual_of(phi):
        d2 = np.stack(
            [np.stack([grid.deriv(grid.deriv(phi, a), b) for b in range(grid.d)]) for a in range(grid.d)]
        )
        dphi = np.stack([grid.deriv(phi, a) for a in range(grid.d)])
        lap_g = grid.dealias(
            np.einsum("ab...,abc...->c...", m.ginv, d2)
            - np.einsum("s...,sc...->c...", Vg, dphi)
        )
        return grid.l2(lap_g - Vg)

    phi, report = _picard_loop(update, residual_of, tol, max_iter, "harmonic coordinates")
    return CoordinateChange(grid=grid, phi=phi, report=report)


def pullback_immersion(F: Immersion, change: CoordinateChange) -> Immersion:
    """Resample the immersion in the new coordinates: F~(y) = F(x(y))."""
    grid = F.grid
    x_at = change.inverse_samples()
    dev_new = np.stack(
        [grid.eval_at_points(F.dev[i], x_at).reshape(grid.shape) for i in range(F.ambient_dim)]
    )
    if F.graph:
        # linear part: F = (x, u) and x(y) = y + (x(y) - y); fold the periodic
        # difference into the tangential deviation
        for a in range(grid.d):
            diff = x_at[:, a].reshape(grid.shape) - grid.x[a]
            dev_new[a] = dev_new[a] + diff
    return Immersion(grid, np.stack([grid.dealias(c) for c in dev_new]), graph=F.graph)


def pullback_metric(m: MetricState, change: CoordinateChange):
    """Metric components in y-coordinates on the uniform grid.

    Returns (MetricState, report) where the report carries the harmonic
    residual after pullback and a warning if phi's spectrum is truncated.
    """
    grid = m.grid
    report = SolveReport()
    mass_out = 0.0
    for c in range(grid.d):
        hat = grid.fft(change.phi[c])
        mass_out = max(mass_out, np.sqrt(np.sum(np.abs(hat[~grid.dealias_mask]) ** 2) / max(np.sum(np.abs(hat) ** 2), 1e-300)))
    if mass_out > 1e-8:
        report.warnings.append(f"coordinate change spectrum truncated: relative mass {mass_out:.2e}")
    jac_inv = pointwise_inverse(grid, change.jacobian)
    # M(x) = Jinv^T g Jinv evaluated pointwise, then sampled at x(y)
    M = np.einsum("ma...,mn...,nb...->ab...", jac_inv, m.g, jac_inv)
    x_at = change.inverse_samples()
    g_new = np.empty_like(m.g)
    for a in range(grid.d):
        for b in range(a, grid.d):
            g_new[a, b] = grid.eval_at_points(M[a, b], x_at).reshape(grid.shape)
            g_new[b, a] = g_new[a, b]
    out = christoffel(MetricState(grid, g_new))
    report.residual = grid.l2(harmonic_defect(out))
    return out, report


def build_coulomb_frame(F: Immersion, m: MetricState, tol=1e-9, max_iter=60, initial_frame=None):
    """Transversal constant direction, projection, and the Coulomb rotation.

    Returns (nu1, nu2, A, report); A is recomputed from the rotated frame.
    With initial_frame = (nu1, nu2) the transversal search is skipped and the
    supplied orthonormal normal frame is rotated into the Coulomb gauge (the
    route for surfaces, like the product torus, whose normal bundle admits no
    constant transversal direction).
    """
    grid = F.grid
    if m.gamma_u is None:
        m = christoffel(m)
    t = F.tangents()
    amb = F.ambient_dim

    if initial_frame is not None:
        nu1_t, nu2_t = initial_frame
    else:
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

    A_tilde = normal_connection(grid, nu1_t, nu2_t)
    div_tilde = covariant_divergence(m, A_tilde)
    Vg = harmonic_defect(m)
    ginv_dev = m.ginv - identity_metric(grid)

    def update(b):
        if b is None:
            return np.zeros(grid.shape)
        d2 = np.stack([np.stack([grid.deriv(grid.deriv(b, a), c) for c in range(grid.d)]) for a in range(grid.d)])
        db = grid.grad(b)
        rhs = (
            div_tilde
            - grid.dealias(np.einsum("ac...,ac...->...", ginv_dev, d2))
            + grid.dealias(np.einsum("s...,s...->...", Vg, db))
        )
        out = grid.inv_laplacian(rhs)
        return out - out.mean()

    def residual_of(b):
        d2 = np.stack([np.stack([grid.deriv(grid.deriv(b, a), c) for c in range(grid.d)]) for a in range(grid.d)])
        db = grid.grad(b)
        lap_g = grid.dealias(np.einsum("ac...,ac...->...", m.ginv, d2) - np.einsum("s...,s...->...", Vg, db))
        return grid.l2(lap_g - div_tilde)

    b, report = _picard_loop(update, residual_of, tol, max_iter, "Coulomb rotation")
    cb, sb = np.cos(b), np.sin(b)
    nu1 = cb * nu1_t - sb * nu2_t
    nu2 = sb * nu1_t + cb * nu2_t
    A = normal_connection(grid, nu1, nu2)
    report.residual = grid.l2(covariant_divergence(m, A))
    return nu1, nu2, A, report


def solve_initial_A(sf: SecondForm, m: MetricState, tol=1e-9, max_iter=60):
    """Div-curl solve for the initial connection, keeping the divergence structure.

    Fixed point of Lap T(A) = d(lambda^2) + d(h dA) followed by a pure-gradient
    correction so the metric-contracted divergence vanishes; gradients do not
    move the curl.
    """
    grid = m.grid
    w = curl_source(grid, raise_first(m, sf.lam), sf.lam)
    # flat divergence of the antisymmetric source: (d^b w)_{a b}
    div_w = np.stack([sum(grid.deriv(w[a, b], b) for b in range(grid.d)) for a in range(grid.d)])
    hinv = m.ginv - identity_metric(grid)

    def update(A):
        if A is None:
            return np.zeros((grid.d,) + grid.shape)
        dA = np.stack([np.stack([grid.deriv(A[mu], b) for b in range(grid.d)]) for mu in range(grid.d)])
        # -d_a(h^{mu b} d_b A_mu) - (d^b w)_{ab}
        inner = grid.dealias(np.einsum("mb...,mb...->...", hinv, dA))
        rhs = -grid.grad(inner) - div_w
        out = grid.inv_laplacian(rhs)
        return out - out.mean(axis=tuple(range(1, grid.d + 1)), keepdims=True)

    def residual_of(A):
        dA = np.stack([np.stack([grid.deriv(A[mu], b) for b in range(grid.d)]) for mu in range(grid.d)])
        lap = np.stack([grid.laplacian(A[a]) for a in range(grid.d)])
        inner = grid.dealias(np.einsum("mb...,mb...->...", hinv, dA))
        return grid.l2(lap + grid.grad(inner) + div_w)

    A, report = _picard_loop(update, residual_of, tol, max_iter, "initial connection")

    # gradient correction for the contracted divergence q = g^{ab} d_b A_a
    def div_q(Af):
        dA = np.stack([np.stack([grid.deriv(Af[mu], b) for b in range(grid.d)]) for mu in range(grid.d)])
        return grid.dealias(np.einsum("ab...,ab...->...", m.ginv, dA))

    def update_rho(rho):
        if rho is None:
            return np.zeros(grid.shape)
        d2 = np.stack([np.stack([grid.deriv(grid.deriv(rho, a), b) for b in range(grid.d)]) for a in range(grid.d)])
        rhs = -div_q(A) - grid.dealias(np.einsum("ab...,ab...->...", hinv, d2))
        out = grid.inv_laplacian(rhs)
        return out - out.mean()

    def residual_rho(rho):
        return grid.l2(div_q(A + grid.grad(rho)))

    rho, rho_report = _picard_loop(update_rho, residual_rho, tol, max_iter, "divergence correction")
    A = A + grid.grad(rho)

    dA = np.stack([np.stack([grid.deriv(A[mu], b) for b in range(grid.d)]) for mu in range(grid.d)])
    curl = dA - np.swapaxes(dA, 0, 1)  # [b, mu] - [mu, b] pattern: d_b A_mu
    curl_res = grid.l2((np.swapaxes(dA, 0, 1) - dA) - w)
    report.residual = grid.l2(div_q(A))
    report.warnings.extend(rho_report.warnings)
    report.residual_history.append(report.residual)
    return A, report, {"div_l2": report.residual, "curl_l2": curl_res}


def check_elliptic_h(m: MetricState, sf: SecondForm):
    """Residual of the harmonic-coordinate elliptic identity for the metric."""
    grid = m.grid
    if m.gamma_u is None:
        m = christoffel(m)
    d = grid.d
    d2g = np.empty((d, d, d, d) + grid.shape)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for s_ in range(d):
                    d2g[a, b, c, s_] = grid.deriv(grid.deriv(m.g[c, s_], a), b)
    lhs = grid.dealias(np.einsum("ab...,abcs...->cs...", m.ginv, d2g))
    dg = np.stack([np.stack([np.stack([grid.deriv(m.g[a, b], c) for c in range(d)]) for b in range(d)]) for a in range(d)])
    dginv = np.stack([np.stack([np.stack([grid.deriv(m.ginv[a, b], c) for c in range(d)]) for b in range(d)]) for a in range(d)])
    # dg[a, b, c] = d_c g_{ab};  dginv[a, b, c] = d_c g^{ab}
    term1 = -np.einsum("abc...,asb...->cs...", dginv, dg)
    term2 = -np.einsum("abs...,acb...->cs...", dginv, dg)
    term3 = np.einsum("abc...,abs...->cs...", dg, dginv)
    term4 = 2.0 * np.einsum("ab...,san...,nbc...->cs...", m.ginv, m.gamma_l, m.gamma_u)
    lam_up = raise_first(m, sf.lam)
    term5 = -2.0 * np.real(
        np.einsum("cs...,...->cs...", sf.lam, np.conj(sf.psi))
        - np.einsum("ac...,as...->cs...", sf.lam, np.conj(lam_up))
    )
    rhs = grid.dealias(term1 + term2 + term3 + term4 + term5)
    res = lhs - rhs
    norms_scale = max(grid.l2(lhs), grid.l2(rhs), 1e-300)
    return res, {
        "l2": grid.l2(res),
        "linf": grid.linf(res),
        "rel": grid.l2(res) / norms_scale,
    }
