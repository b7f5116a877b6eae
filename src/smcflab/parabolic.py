"""Heat-gauge dynamics: the parabolic system for (h, A) driven by lambda.

The stepper is an exponential-integrator two-stage scheme (ETD2RK): the flat
Laplacian is applied through its exact spectral exponential, the
variable-coefficient correction (g^{ab} - delta^{ab}) d^2 and every
lower-order term are explicit, evaluated at the midpoint lambda supplied by
the caller.  On spatially homogeneous states the scheme degenerates to Heun's
method on the reduced ODE system, which the tests exploit.

The advection field V and temporal connection component B are never
integrated; they are recomputed from their defining contractions each time a
state is published, so the gauge identities hold on exit by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SmcfValidationError, StepRejectedError
from .geometry import (
    MetricState,
    SecondForm,
    christoffel,
    covariant_derivative,
    covariant_divergence,
    curl_source,
    harmonic_defect,
    identity_metric,
    metric_eig_min,
    raise_first,
    ricci_from_lambda,
)
from .grid import Grid

SIGN_VARIANTS = ("minus", "plus")


@dataclass
class GaugeState:
    """Metric with Christoffel symbols, connection A, and the derived gauge sources V, B.

    The curvature is left unfilled: the flows read it only through its
    second-fundamental-form representation, and the T1/T2 monitors build it.
    Contractions of the state alone are filled on first use and shared by
    every right side evaluated at it, so the fields must not change once set.
    """

    metric: MetricState
    A: np.ndarray  # (d, *shape) real
    B: np.ndarray  # (*shape,) real
    V: np.ndarray  # (d, *shape) real, upper index
    t: float = 0.0

    @property
    def grid(self) -> Grid:
        return self.metric.grid

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


def compute_gauge_sources(metric: MetricState, A):
    """V^g = g^{ab} Gamma^g_{ab} and B = nabla^a A_a (heat-gauge contractions)."""
    if metric.gamma_u is None:
        metric = christoffel(metric)
    return harmonic_defect(metric), covariant_divergence(metric, A)


def gauge_state_from(grid: Grid, g, A, t=0.0) -> GaugeState:
    """Build a state with Christoffel symbols, V and B from (g, A); no curvature."""
    metric = christoffel(MetricState(grid, np.asarray(g, dtype=float)))
    A = np.asarray(A, dtype=float)
    V, B = compute_gauge_sources(metric, A)
    return GaugeState(metric=metric, A=A, B=B, V=V, t=t)


def heat_rhs_h(s: GaugeState, sf: SecondForm, ric_rep):
    """Everything on the metric-flow right side except the principal term.

    The Ricci term enters through its second-fundamental-form representation
    ric_rep = ricci_from_lambda(s.metric, sf.lam, sf.psi), which keeps the
    right side quadratic; its defect against the curvature of g is exactly the
    T1 monitor.
    """
    m = s.metric
    grid = s.grid
    term_im = 2.0 * np.imag(np.einsum("...,ab...->ab...", sf.psi, np.conj(sf.lam)))
    term_gg = -2.0 * np.einsum("ab...,mbs...,san...->mn...", m.ginv, m.gamma_l, m.gamma_u)
    dginv = grid.grad(m.ginv)  # dginv[mu, a, b] = d_mu g^{ab}
    term_dg = np.einsum("mab...,abn...->mn...", dginv, m.gamma_l)
    term_dg = term_dg + np.einsum("mn...->nm...", term_dg)
    out = 2.0 * ric_rep + grid.dealias(term_im + term_gg + term_dg)
    return 0.5 * (out + np.swapaxes(out, 0, 1))


def heat_rhs_A(s: GaugeState, sf: SecondForm, ric_rep, sign_variant="minus"):
    """Lower-order terms of the connection flow; the quadratic-curl term's sign
    is the configurable variant.  ric_rep is ricci_from_lambda(s.metric,
    sf.lam, sf.psi), as for heat_rhs_h."""
    if sign_variant not in SIGN_VARIANTS:
        raise SmcfValidationError(f"sign_variant must be one of {SIGN_VARIANTS}")
    sign = -1.0 if sign_variant == "minus" else 1.0
    m = s.metric
    grid = s.grid
    lam_up = raise_first(m, sf.lam)
    w = curl_source(grid, lam_up, sf.lam)
    nab_w = covariant_derivative(w, m, valence="ll")  # [b, a, s]
    div_w = np.einsum("sb...,bas...->a...", m.ginv, nab_w)
    ric_term = np.einsum("ad...,d...->a...", ric_rep, s.A_up)
    dpsi_cov = grid.grad(sf.psi) + 1j * grid.dealias(np.einsum("g...,...->g...", s.A, sf.psi))
    re_term = np.real(np.einsum("ga...,g...->a...", lam_up, np.conj(dpsi_cov)))
    v_term = np.einsum("as...,s...->a...", w, s.V)
    # the truncation is linear: the sum of the products needs it once
    return grid.dealias(sign * div_w - ric_term + re_term - v_term)


def _cov_laplacian_oneform(m: MetricState, A):
    """nabla_s nabla^s A_a for a real one-form."""
    first = covariant_derivative(A, m, valence="l")  # [b, a]
    second = covariant_derivative(first, m, valence="ll")  # [c, b, a]
    return m.grid.dealias(np.einsum("cb...,cba...->a...", m.ginv, second))


def _phi_factors(z):
    """phi1 = (e^z - 1)/z, phi2 = (e^z - 1 - z)/z^2 with stable small-z limits."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-7
    zs = np.where(small, 1.0, z)
    phi1 = np.where(small, 1.0 + z / 2.0, np.expm1(zs) / zs)
    phi2 = np.where(small, 0.5 + z / 6.0, (np.expm1(zs) - zs) / zs**2)
    return phi1, phi2


def step_parabolic(s: GaugeState, lam_path, dt, sign_variant="minus") -> GaugeState:
    """One exponential-integrator step of the (h, A) system.

    lam_path supplies the two second-form slices bracketing the step; the
    lower-order terms are evaluated at their midpoint.
    """
    if dt <= 0:
        raise SmcfValidationError(f"dt must be positive, got {dt}")
    grid = s.grid
    sf_a, sf_b = lam_path
    lam_mid = 0.5 * (sf_a.lam + sf_b.lam)

    ident = identity_metric(grid)

    def nonlinear(state: GaugeState):
        m, g, A = state.metric, state.metric.g, state.A
        # psi is retraced with the stage metric: freezing it at the averaged
        # metric leaves an O(dt) coefficient bias that costs one global order
        sf_mid = SecondForm.from_lambda(grid, lam_mid, m)
        ric_rep = ricci_from_lambda(m, sf_mid.lam, sf_mid.psi)
        d2g = grid.hessian(g)  # d2g[a, b, mu, nu] = d^2_{ab} g_{mu nu}
        coeff = m.ginv - ident
        Nh = grid.dealias(np.einsum("ab...,abmn...->mn...", coeff, d2g)) + heat_rhs_h(state, sf_mid, ric_rep)
        NA = (
            _cov_laplacian_oneform(m, A)
            - grid.laplacian(A)
            + heat_rhs_A(state, sf_mid, ric_rep, sign_variant)
        )
        return 0.5 * (Nh + np.swapaxes(Nh, 0, 1)), NA

    # g, A and their right sides are real: the factors act on r2c half spectra
    z = -grid.half(grid.k_sq) * dt
    E = np.exp(z)
    phi1, phi2 = _phi_factors(z)

    def predict(u, N):
        return grid.ifft(E * grid.fft(u, half=True) + dt * phi1 * grid.fft(N, half=True), half=True)

    def correct(u_star, N0, N1):
        return u_star + grid.ifft(dt * phi2 * grid.fft(N1 - N0, half=True), half=True)

    Nh0, NA0 = nonlinear(s)
    g_star = predict(s.metric.g, Nh0)
    A_star = predict(s.A, NA0)
    Nh1, NA1 = nonlinear(gauge_state_from(grid, g_star, A_star, t=s.t))
    g1 = correct(g_star, Nh0, Nh1)
    A1 = correct(A_star, NA0, NA1)

    g1 = 0.5 * (g1 + np.swapaxes(g1, 0, 1))
    if not np.all(np.isfinite(g1)) or metric_eig_min(grid, g1) <= 0.0:
        raise StepRejectedError(f"metric degenerate after parabolic step at t={s.t + dt}")
    return gauge_state_from(grid, g1, A1, t=s.t + dt)


def time_grid(T, dt):
    """(nsteps, dt) of the uniform time grid on [0, T]: T/dt rounded to the
    nearest whole number of steps (at least one), and the step that divides T."""
    ratio = T / dt
    if not np.isfinite(ratio):
        raise SmcfValidationError(f"final_time_T / time_step_dt = {T!r} / {dt!r} is not a finite step count")
    nsteps = max(1, int(round(ratio)))
    return nsteps, T / nsteps


def gauge_path(gauge0: GaugeState, lam_path, times, sign_variant="minus"):
    """Yield gauge0, then the (g, A) state stepped along the prescribed second
    forms lam_path[i] at times[i], one step_parabolic per interval."""
    s = gauge0
    yield s
    for i in range(1, len(times)):
        s = step_parabolic(s, (lam_path[i - 1], lam_path[i]), times[i] - times[i - 1], sign_variant)
        yield s
