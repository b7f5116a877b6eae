"""Heat-gauge dynamics: the parabolic system for (h, A) driven by lambda.

The stepper is an exponential-integrator two-stage scheme (ETD2RK): the flat
Laplacian is applied through its exact spectral exponential, the
variable-coefficient correction (g^{ab} - delta^{ab}) d^2 and every
lower-order term are explicit, evaluated at the midpoint lambda supplied by
the caller.  On spatially homogeneous states the scheme degenerates to Heun's
method on the reduced ODE system, which the tests exploit.

The advection field V and temporal connection component B are never
integrated; every state builds them from their defining contractions of
(g, A) when they are first read, so the gauge identities hold on exit by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ImmersionDegeneracyError, SmcfValidationError, StepRejectedError
from .geometry import (
    MetricState,
    SecondForm,
    covariant_derivative,
    covariant_divergence,
    laplacian_lower_order,
    raise_first,
)
from .grid import Grid

SIGN_VARIANTS = ("minus", "plus")


@dataclass
class GaugeState:
    """Metric and connection A; B, the contractions several right sides share
    and the lambda-free part of the parabolic right side are built on first read
    and kept, so g and A must not change (V and the Gamma terms are kept by the
    metric).  The flows read the curvature only through lambda; the T1/T2
    monitors build it."""

    metric: MetricState
    A: np.ndarray  # (d, *shape) real
    t: float = 0.0

    @property
    def grid(self) -> Grid:
        return self.metric.grid

    @property
    def V(self):
        """V^g = g^{ab} Gamma^g_{ab}, upper index; kept on the metric."""
        return self.metric.V

    @cached_property
    def B(self):
        """B = nabla^a A_a."""
        return covariant_divergence(self.metric, self.A)

    @cached_property
    def A_up(self):
        """A^a = g^{ab} A_b."""
        return raise_first(self.metric, self.A)

    @cached_property
    def nabla_V_low(self):
        """nabla_b V_g of the lowered field V_g = g_{gs} V^s, indexed [b, g]."""
        V_low = self.grid.dealias(np.einsum("gs...,s...->g...", self.metric.g, self.V))
        return covariant_derivative(V_low, self.metric, valence="l")

    @cached_property
    def potential(self):
        """B + A_s A^s - V_s A^s, the zeroth-order coefficient of the lambda equation."""
        AA, VA = (self.grid.dealias(np.einsum("s...,s...->...", X, self.A)) for X in (self.A_up, self.V))
        return self.B + AA - VA

    @cached_property
    def principal_remainder(self):
        """(g^{ab} - delta^{ab}) d_a d_b g and nabla_s nabla^s A - Lap A: the parts
        of the principal terms that the exponential step leaves to its stages.
        The second is (g^{ab} - delta^{ab}) d_a d_b A plus terms of first order in A."""
        grid, m = self.grid, self.metric
        d2g = grid.hessian(m.g)  # d2g[a, b, mu, nu] = d^2_{ab} g_{mu nu}
        Nh = grid.dealias(np.einsum("ab...,abmn...->mn...", m.ginv_dev, d2g))
        dA, d2A = grid.grad_hessian(self.A)
        nA, S = laplacian_lower_order(m, self.A, dA)  # nA[b, a] = nabla_b A_a
        principal = np.einsum("cb...,cba...->a...", m.ginv_dev, d2A)
        return Nh, grid.dealias(principal - np.einsum("t...,ta...->a...", m.V, nA) - S)


def gauge_state_from(grid: Grid, g, A, t=0.0) -> GaugeState:
    """The state of (g, A); its derived fields are built when first read."""
    return GaugeState(MetricState(grid, np.asarray(g, dtype=float)), np.asarray(A, dtype=float), t)


def heat_rhs_h(s: GaugeState, sf: SecondForm):
    """Everything on the metric-flow right side except the principal term.

    The Ricci term enters through the second form's Ricci form sf.ricci, which
    keeps the right side quadratic; its defect against the curvature of g is
    exactly the T1 monitor.  sf is traced with s.metric.
    """
    term_im = 2.0 * np.imag(np.einsum("...,ab...->ab...", sf.psi, np.conj(sf.lam)))
    term_gg, term_dg = s.metric.gamma_terms
    out = 2.0 * sf.ricci + s.grid.dealias(term_im + term_gg + term_dg)
    return 0.5 * (out + np.swapaxes(out, 0, 1))


def connection_terms(s: GaugeState, sf: SecondForm):
    """(Re(lambda^g_a conj((d + iA)_g psi)), w_{as} V^s), untruncated: the two
    terms of the connection flow that the T5 monitor checks too."""
    grid = s.grid
    dpsi_cov = grid.grad(sf.psi) + 1j * grid.dealias(np.einsum("g...,...->g...", s.A, sf.psi))
    re_term = np.real(np.einsum("ga...,g...->a...", sf.lam_up, np.conj(dpsi_cov)))
    return re_term, np.einsum("as...,s...->a...", sf.w, s.V)


def heat_rhs_A(s: GaugeState, sf: SecondForm, sign_variant="plus"):
    """Lower-order terms of the connection flow; the quadratic-curl term's sign
    is the configurable variant.  sf is traced with s.metric, as for heat_rhs_h."""
    if sign_variant not in SIGN_VARIANTS:
        raise SmcfValidationError(f"sign_variant must be one of {SIGN_VARIANTS}")
    sign = -1.0 if sign_variant == "minus" else 1.0
    m = s.metric
    nab_w = covariant_derivative(sf.w, m, valence="ll")  # [b, a, s]
    div_w = np.einsum("sb...,bas...->a...", m.ginv, nab_w)
    ric_term = np.einsum("ad...,d...->a...", sf.ricci, s.A_up)
    re_term, v_term = connection_terms(s, sf)
    # the truncation is linear: the sum of the products needs it once
    return s.grid.dealias(sign * div_w - ric_term + re_term - v_term)


# Below |z| = _PHI_SERIES_CUT, phi2 is its Taylor series sum_k z^k / (k + 2)!
# (the terms past _PHI2_TAYLOR are below 3e-18 of it there): the closed form
# (expm1(z) - z) / z^2 loses about eps / |z| to cancellation.  At the cut-off
# the two agree to about 4e-16.
_PHI_SERIES_CUT = 0.5
_PHI2_TAYLOR = tuple(1.0 / math.factorial(k + 2) for k in range(14))


def _phi_factors(z):
    """phi1 = (e^z - 1)/z and phi2 = (e^z - 1 - z)/z^2 of real z, to about
    1e-15 relative; below the series cut-off phi1 = 1 + z phi2."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _PHI_SERIES_CUT
    zs, zt = np.where(small, 1.0, z), np.where(small, z, 0.0)
    series = np.zeros_like(z)
    for coeff in reversed(_PHI2_TAYLOR):
        series = series * zt + coeff
    phi1 = np.where(small, 1.0 + z * series, np.expm1(zs) / zs)
    phi2 = np.where(small, series, (np.expm1(zs) - zs) / zs**2)
    return phi1, phi2


def _etd2_factors(grid, dt):
    """(E, dt phi1, dt phi2) of z = -k^2 dt on the r2c half spectrum, stacked."""
    z = -grid.half(grid.k_sq) * dt
    phi1, phi2 = _phi_factors(z)
    return np.stack([np.exp(z), dt * phi1, dt * phi2])


def step_parabolic(s: GaugeState, lam_path, dt, sign_variant="plus") -> GaugeState:
    """One exponential-integrator step of the (h, A) system.

    lam_path supplies the two lambda slices bracketing the step; the
    lower-order terms are evaluated at their midpoint.
    """
    if dt <= 0:
        raise SmcfValidationError(f"dt must be positive, got {dt}")
    grid = s.grid
    lam_a, lam_b = lam_path
    lam_mid = 0.5 * (lam_a + lam_b)

    def nonlinear(state: GaugeState):
        # psi is retraced with the stage metric: freezing it at the averaged
        # metric leaves an O(dt) coefficient bias that costs one global order
        sf_mid = SecondForm(state.metric, lam_mid)
        Nh_free, NA_free = state.principal_remainder
        return Nh_free + heat_rhs_h(state, sf_mid), NA_free + heat_rhs_A(state, sf_mid, sign_variant)

    # g, A and their right sides are real: the factors act on r2c half spectra
    E, dt_phi1, dt_phi2 = grid.table(("etd2", dt), lambda: _etd2_factors(grid, dt))

    def predict(u, N):
        return grid.ifft(E * grid.fft(u, half=True) + dt_phi1 * grid.fft(N, half=True), half=True)

    def correct(u_star, N0, N1):
        return u_star + grid.ifft(dt_phi2 * grid.fft(N1 - N0, half=True), half=True)

    def stage_state(g, A, t):  # inverting g is the degeneracy check
        try:
            return gauge_state_from(grid, g, A, t=t)
        except ImmersionDegeneracyError as exc:
            raise StepRejectedError(f"metric degenerate in the parabolic step to t={s.t + dt}") from exc

    Nh0, NA0 = nonlinear(s)
    g_star = predict(s.metric.g, Nh0)
    A_star = predict(s.A, NA0)
    Nh1, NA1 = nonlinear(stage_state(g_star, A_star, s.t))
    g1 = correct(g_star, Nh0, Nh1)
    A1 = correct(A_star, NA0, NA1)
    return stage_state(0.5 * (g1 + np.swapaxes(g1, 0, 1)), A1, s.t + dt)


def time_grid(T, dt):
    """(nsteps, dt) of the uniform time grid on [0, T]: T/dt rounded to the
    nearest whole number of steps (at least one), and the step that divides T."""
    ratio = T / dt
    if not np.isfinite(ratio):
        raise SmcfValidationError(f"final_time_T / time_step_dt = {T!r} / {dt!r} is not a finite step count")
    nsteps = max(1, int(round(ratio)))
    return nsteps, T / nsteps


def gauge_path(gauge0: GaugeState, lam_path, steps, sign_variant="plus"):
    """Yield gauge0, then the (g, A) state stepped along the prescribed lambda
    values lam_path[i], one step_parabolic of size steps[i - 1] per interval."""
    s = gauge0
    yield s
    for i, dt in enumerate(steps, 1):
        s = step_parabolic(s, (lam_path[i - 1], lam_path[i]), dt, sign_variant)
        yield s
