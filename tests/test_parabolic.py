"""Heat-gauge system: sources, right-hand sides, and the IMEX stepper."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from smcflab import calibration
from smcflab.fixtures import bump_immersion, cliff_fixture
from smcflab.geometry import (
    SecondForm,
    identity_metric,
    induced_metric,
    ricci_from_lambda,
    second_form,
)
from smcflab.grid import Grid
from smcflab.parabolic import (
    compute_gauge_sources,
    gauge_state_from,
    heat_rhs_A,
    heat_rhs_h,
    step_parabolic,
)


def maxabs(x):
    return float(np.max(np.abs(x)))


def fd_deriv(grid, arr, axis):
    """4th-order centered difference along a spatial axis (independent oracle)."""
    ax = arr.ndim - grid.d + axis
    h = grid.dx

    def roll(k):
        return np.roll(arr, -k, axis=ax)

    return (-roll(2) + 8 * roll(1) - 8 * roll(-1) + roll(-2)) / (12 * h)


def ric(s, sf):
    return ricci_from_lambda(s.metric, sf.lam, sf.psi)


def flat_state(grid, t=0.0):
    return gauge_state_from(grid, identity_metric(grid), np.zeros((grid.d,) + grid.shape), t)


def zero_sf(grid):
    return SecondForm(grid, np.zeros((grid.d, grid.d) + grid.shape, dtype=complex), np.zeros(grid.shape, dtype=complex))


def cliff_state_and_sf(grid, r=1.0):
    fix = cliff_fixture(grid, r)
    m = induced_metric(fix.immersion)
    sf = second_form(fix.immersion, (fix.nu1, fix.nu2), m)
    s = gauge_state_from(grid, m.g, np.zeros((2,) + grid.shape))
    return s, sf


def bump_state_and_sf(grid, eps=0.05, delta=0.5):
    fix = bump_immersion(grid, eps=eps, delta=delta)
    F = fix.immersion
    m = induced_metric(F)
    nu1 = np.zeros((4,) + grid.shape)
    nu2 = np.zeros((4,) + grid.shape)
    nu1[2] = 1.0
    nu2[3] = 1.0
    sf = second_form(F, (nu1, nu2), m)
    # a small divergence-free-ish connection for exercise
    rng = np.random.default_rng(7)
    hat = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) * (1 + grid.k_sq) ** -3
    chi = grid.ifft(hat).real * 1e-3
    A = np.stack([grid.deriv(chi, 1), -grid.deriv(chi, 0)])
    return gauge_state_from(grid, m.g, A), sf


def radii_oracle(t_eval, r0=1.0):
    """Independent high-order integration of r1' = 1/r2, r2' = -1/r1."""
    sol = solve_ivp(
        lambda t, r: [1.0 / r[1], -1.0 / r[0]],
        (0.0, max(t_eval) if len(t_eval) else 1.0),
        [r0, r0],
        t_eval=t_eval,
        rtol=1e-12,
        atol=1e-12,
        dense_output=True,
    )
    return sol


class TestGaugeSources:
    def test_flat(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        s = flat_state(grid)
        V, B = compute_gauge_sources(s.metric, s.A)
        assert maxabs(V) < 1e-13 and maxabs(B) < 1e-13

    def test_cliff(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        s, _ = cliff_state_and_sf(grid)
        assert maxabs(s.V) < 1e-11 and maxabs(s.B) < 1e-11

    def test_state_carries_no_curvature(self):
        # the flows read curvature only through lambda; the monitors build it
        grid = Grid(d=2, n=16, L=16.0)
        s, _ = bump_state_and_sf(grid)
        assert s.metric.gamma_u is not None
        assert s.metric.riem is None
        assert s.metric.ric is None

    def test_bump_fd_oracle(self):
        grid = Grid(d=2, n=64, L=16.0)
        s, _ = bump_state_and_sf(grid, eps=0.05)
        g = s.metric.g
        ginv = s.metric.ginv
        d = grid.d
        dg = np.stack([np.stack([np.stack([fd_deriv(grid, g[a, b], c) for c in range(d)]) for b in range(d)]) for a in range(d)])
        gamma_l = 0.5 * (
            np.einsum("bsa...->abs...", dg) + np.einsum("asb...->abs...", dg) - dg
        )
        V_fd = np.einsum("ab...,gs...,abs...->g...", ginv, ginv, gamma_l)
        assert maxabs(s.V - V_fd) < 1e-6


class TestHeatRhsH:
    def test_flat_zero(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        s = flat_state(grid)
        sf = zero_sf(grid)
        out = heat_rhs_h(s, sf, ric(s, sf))
        assert maxabs(out) < 1e-13

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_cliff_closed_form(self, r):
        grid = Grid(d=2, n=16, L=2 * np.pi * r)
        s, sf = cliff_state_and_sf(grid, r)
        out = heat_rhs_h(s, sf, ric(s, sf))
        exact = np.zeros_like(out)
        exact[0, 0] = 2.0 / r**2
        exact[1, 1] = -2.0 / r**2
        assert maxabs(out - exact) < 1e-9

    def test_symmetric_output(self):
        grid = Grid(d=2, n=64, L=16.0)
        s, sf = bump_state_and_sf(grid)
        out = heat_rhs_h(s, sf, ric(s, sf))
        assert maxabs(out - np.swapaxes(out, 0, 1)) < 1e-15


class TestHeatRhsA:
    def test_zero_data(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        s = flat_state(grid)
        sf = zero_sf(grid)
        out = heat_rhs_A(s, sf, ric(s, sf))
        assert maxabs(out) < 1e-13

    def test_cliff_all_terms_vanish(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        s, sf = cliff_state_and_sf(grid)
        for variant in ("minus", "plus"):
            assert maxabs(heat_rhs_A(s, sf, ric(s, sf), variant)) < 1e-10

    def test_bump_fd_assembly_oracle(self):
        grid = Grid(d=2, n=64, L=16.0)
        s, sf = bump_state_and_sf(grid, eps=0.05)
        m = s.metric
        lam_up = np.einsum("gs...,sa...->ga...", m.ginv, sf.lam)
        w = np.imag(np.einsum("ga...,sg...->as...", lam_up, np.conj(sf.lam)))
        # independent finite-difference covariant divergence of w
        nab_w = np.stack([
            np.stack([
                np.stack([
                    fd_deriv(grid, w[a, ss], b)
                    - sum(m.gamma_u[q, b, a] * w[q, ss] for q in range(2))
                    - sum(m.gamma_u[q, b, ss] * w[a, q] for q in range(2))
                    for ss in range(2)
                ])
                for a in range(2)
            ])
            for b in range(2)
        ])
        div_w = np.einsum("sb...,bas...->a...", m.ginv, nab_w)
        A_up = np.einsum("ds...,s...->d...", m.ginv, s.A)
        ric_rep = np.real(
            np.einsum("ab...,...->ab...", sf.lam, np.conj(sf.psi))
            - np.einsum("as...,sb...->ab...", sf.lam, np.conj(lam_up))
        )
        ric_term = np.einsum("ad...,d...->a...", ric_rep, A_up)
        dpsi = np.stack([fd_deriv(grid, sf.psi, a) for a in range(2)]) + 1j * s.A * sf.psi
        re_term = np.real(np.einsum("ga...,g...->a...", lam_up, np.conj(dpsi)))
        v_term = np.einsum("as...,s...->a...", w, s.V)
        expected = -div_w - ric_term + re_term - v_term
        got = heat_rhs_A(s, sf, ric(s, sf), "minus")
        assert maxabs(got - expected) < 1e-6

    def test_sign_variants_differ_by_twice_div(self):
        grid = Grid(d=2, n=64, L=16.0)
        s, sf = bump_state_and_sf(grid, eps=0.05)
        a = heat_rhs_A(s, sf, ric(s, sf), "minus")
        b = heat_rhs_A(s, sf, ric(s, sf), "plus")
        assert maxabs(a - b) > 0


class TestStepParabolic:
    def test_equilibrium(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        s = flat_state(grid)
        out = step_parabolic(s, (zero_sf(grid), zero_sf(grid)), 0.01)
        assert maxabs(out.metric.g - identity_metric(grid)) < 1e-13
        assert maxabs(out.A) < 1e-13
        assert out.t == pytest.approx(0.01)

    def test_cliff_matches_reduced_ode(self):
        grid = Grid(d=2, n=8, L=2 * np.pi)
        s, _ = cliff_state_and_sf(grid, r=1.0)
        dt, T = 1e-3, 0.1
        n = int(round(T / dt))
        sol = radii_oracle(np.linspace(0, T, n + 1))

        def sf_at(tq):
            r1, r2 = sol.sol(tq)
            lam = np.zeros((2, 2) + grid.shape, dtype=complex)
            lam[0, 0] = -r1
            lam[1, 1] = -1j * r2
            psi = np.full(grid.shape, -1.0 / r1 - 1j / r2, dtype=complex)
            return SecondForm(grid, lam, psi)

        for i in range(n):
            s = step_parabolic(s, (sf_at(i * dt), sf_at((i + 1) * dt)), dt)
        r1, r2 = sol.sol(T)
        exact = np.zeros((2, 2) + grid.shape)
        exact[0, 0] = r1**2
        exact[1, 1] = r2**2
        assert maxabs(s.metric.g - exact) < 1e-6
        assert maxabs(s.V) < 1e-10 and maxabs(s.B) < 1e-10

    def test_second_order_self_convergence(self):
        grid = Grid(d=2, n=32, L=16.0)
        s0, sf = bump_state_and_sf(grid, eps=0.1)
        T = 0.02

        def run(dt):
            s = s0
            for _ in range(int(round(T / dt))):
                s = step_parabolic(s, (sf, sf), dt)
            return s.metric.g

        ref = run(T / 64)
        e1 = maxabs(run(T / 4) - ref)
        e2 = maxabs(run(T / 8) - ref)
        assert 2.8 < e1 / e2 < 5.5

    def test_block_smoothing_on_linear_subproblem(self):
        grid = Grid(d=2, n=32, L=2 * np.pi)
        rng = np.random.default_rng(5)
        hat = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        rough = grid.ifft(hat).real
        rough = 1e-4 * rough / maxabs(rough)
        g0 = identity_metric(grid)
        g0[0, 0] += rough
        g0[1, 1] -= rough
        s = gauge_state_from(grid, g0, np.zeros((2,) + grid.shape))
        t_end, dt = 0.05, 0.005
        blocks0 = {}
        for j in range(1, 5):
            blocks0[j] = grid.l2(grid.lp_project(s.metric.h[0, 0], j, "S"))
        for _ in range(int(t_end / dt)):
            s = step_parabolic(s, (zero_sf(grid), zero_sf(grid)), dt)
        c = calibration.HEAT_BLOCK_DECAY_RATE
        feed = 10.0 * t_end * 1e-8  # quadratic feed bound ~ ||h0||^2
        for j in range(1, 5):
            bj = grid.l2(grid.lp_project(s.metric.h[0, 0], j, "S"))
            assert bj <= np.exp(-c * 4.0**j * t_end) * blocks0[j] + feed

    def test_exit_gauge_identities(self):
        grid = Grid(d=2, n=32, L=16.0)
        s0, sf = bump_state_and_sf(grid, eps=0.1)
        s = step_parabolic(s0, (sf, sf), 0.005)
        V, B = compute_gauge_sources(s.metric, s.A)
        assert maxabs(s.V - V) < 1e-13
        assert maxabs(s.B - B) < 1e-13
        assert maxabs(s.metric.g - np.swapaxes(s.metric.g, 0, 1)) == 0.0
        assert np.isrealobj(s.A)

    def test_step_builds_only_stage_and_result_states(self, monkeypatch):
        # stage 0 runs on the state passed in; only the predicted stage and
        # the published result are rebuilt from (g, A)
        import smcflab.parabolic as parabolic

        grid = Grid(d=2, n=16, L=16.0)
        s0, sf = bump_state_and_sf(grid)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return gauge_state_from(*args, **kwargs)

        monkeypatch.setattr(parabolic, "gauge_state_from", counting)
        step_parabolic(s0, (sf, sf), 0.005)
        assert len(calls) == 2

    def test_step_builds_the_ricci_representation_once_per_stage(self, monkeypatch):
        # heat_rhs_h and heat_rhs_A share one ricci_from_lambda per stage
        import smcflab.parabolic as parabolic

        grid = Grid(d=2, n=16, L=16.0)
        s0, sf = bump_state_and_sf(grid)
        calls = []

        def counting(*args):
            calls.append(args)
            return ricci_from_lambda(*args)

        monkeypatch.setattr(parabolic, "ricci_from_lambda", counting)
        step_parabolic(s0, (sf, sf), 0.005)
        assert len(calls) == 2
