"""Heat-gauge system: sources, right-hand sides, and the IMEX stepper."""

from dataclasses import replace
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import CONFIGS
from normal_frames import gram_schmidt_normal
from oracles import deriv, lp_project, nested_laplacian_remainder
from smcflab import calibration
from smcflab.config import load_config
from smcflab.errors import StepRejectedError
from smcflab.fixtures import bump_immersion, cliff_fixture
from smcflab.geometry import (
    SecondForm,
    covariant_divergence,
    harmonic_defect,
    identity_metric,
    induced_metric,
    second_form,
)
from smcflab.grid import Grid
from smcflab.harness import generate_scenario
from smcflab.parabolic import (
    _PHI_SERIES_CUT,
    GaugeState,
    _phi_factors,
    gauge_path,
    gauge_state_from,
    heat_rhs_A,
    heat_rhs_h,
    step_parabolic,
    time_grid,
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


def flat_state(grid, t=0.0):
    return gauge_state_from(grid, identity_metric(grid), np.zeros((grid.d,) + grid.shape), t)


def zero_sf(grid):
    return SecondForm(flat_state(grid).metric, np.zeros((grid.d, grid.d) + grid.shape, dtype=complex), np.zeros(grid.shape, dtype=complex))


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
    sf = second_form(F, gram_schmidt_normal(F, m, nu1, nu2), m)
    # a small divergence-free-ish connection for exercise
    rng = np.random.default_rng(7)
    hat = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) * (1 + grid.k_sq) ** -3
    chi = grid.ifft(hat).real * 1e-3
    A = np.stack([deriv(grid, chi, 1), -deriv(grid, chi, 0)])
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
        assert maxabs(s.V) < 1e-13 and maxabs(s.B) < 1e-13

    def test_cliff(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        s, _ = cliff_state_and_sf(grid)
        assert maxabs(s.V) < 1e-11 and maxabs(s.B) < 1e-11

    def test_state_carries_no_curvature(self, monkeypatch):
        # the flows read curvature only through lambda; the monitors build it.
        # Christoffel symbols are built on first read, once, and kept
        import smcflab.geometry as geometry

        calls = {"christoffel": 0, "curvature": 0}
        for name in calls:

            def counting(*args, _name=name, _original=getattr(geometry, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(geometry, name, counting)
        grid = Grid(d=2, n=16, L=16.0)
        s, sf = bump_state_and_sf(grid)
        assert calls["christoffel"] == 0
        assert s.metric.gamma_u is s.metric.gamma_u and s.metric.gamma_l.shape == s.metric.gamma_u.shape
        assert calls["christoffel"] == 1
        # the stage-1 state reads its symbols, the published result not yet
        step_parabolic(s, (sf.lam, sf.lam), 0.005)
        assert calls == {"christoffel": 2, "curvature": 0}
        assert not any(hasattr(s.metric, name) for name in ("riem", "ric"))

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


class TestPrincipalRemainder:
    """nabla_s nabla^s A - Lap A in closed form against two nested covariant derivatives."""

    @staticmethod
    def check_connection_part(m):
        # the bump's own Coulomb A is of order 1e-11, so a band-limited A of
        # order one is put on the metric; the nested form takes Lap A from a
        # field of its size, and its roundoff scales with Lap A
        grid = m.grid
        x, k = grid.x, 2 * np.pi / grid.L
        A = np.stack([np.sin((a + 1) * k * x[a] + 0.3) * np.cos(k * x[-1 - a]) for a in range(grid.d)])
        _, closed = GaugeState(m, A).principal_remainder
        nested = nested_laplacian_remainder(m, A)
        lap = maxabs(grid.laplacian(A))
        assert maxabs(closed - nested) <= 1e-12 * lap
        assert maxabs(nested) > 1e-7 * lap

    def test_connection_part_matches_nested_form(self, bump_scenario):
        self.check_connection_part(bump_scenario[1].gauge.metric)

    def test_connection_part_matches_nested_form_off_harmonic_coordinates(self):
        # the graph metric has V != 0, which harmonic coordinates remove
        s, _ = bump_state_and_sf(Grid(d=2, n=64, L=16.0), eps=0.1)
        self.check_connection_part(s.metric)


class TestHeatRhsH:
    def test_flat_zero(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        s = flat_state(grid)
        sf = zero_sf(grid)
        out = heat_rhs_h(s, sf)
        assert maxabs(out) < 1e-13

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_cliff_closed_form(self, r):
        grid = Grid(d=2, n=16, L=2 * np.pi * r)
        s, sf = cliff_state_and_sf(grid, r)
        out = heat_rhs_h(s, sf)
        exact = np.zeros_like(out)
        exact[0, 0] = 2.0 / r**2
        exact[1, 1] = -2.0 / r**2
        assert maxabs(out - exact) < 1e-9

    def test_symmetric_output(self):
        grid = Grid(d=2, n=64, L=16.0)
        s, sf = bump_state_and_sf(grid)
        out = heat_rhs_h(s, sf)
        assert maxabs(out - np.swapaxes(out, 0, 1)) < 1e-15


class TestHeatRhsA:
    def test_zero_data(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        s = flat_state(grid)
        sf = zero_sf(grid)
        out = heat_rhs_A(s, sf)
        assert maxabs(out) < 1e-13

    def test_cliff_all_terms_vanish(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        s, sf = cliff_state_and_sf(grid)
        for variant in ("minus", "plus"):
            assert maxabs(heat_rhs_A(s, sf, variant)) < 1e-10

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
        got = heat_rhs_A(s, sf, "minus")
        assert maxabs(got - expected) < 1e-6

    def test_sign_variants_differ_by_twice_div(self):
        grid = Grid(d=2, n=64, L=16.0)
        s, sf = bump_state_and_sf(grid, eps=0.05)
        a = heat_rhs_A(s, sf, "minus")
        b = heat_rhs_A(s, sf, "plus")
        assert maxabs(a - b) > 0


class TestStepParabolic:
    def test_equilibrium(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        s = flat_state(grid)
        lam0 = zero_sf(grid).lam
        out = step_parabolic(s, (lam0, lam0), 0.01)
        assert maxabs(out.metric.g - identity_metric(grid)) < 1e-13
        assert maxabs(out.A) < 1e-13
        assert out.t == pytest.approx(0.01)

    def test_cliff_matches_reduced_ode(self):
        grid = Grid(d=2, n=8, L=2 * np.pi)
        s, _ = cliff_state_and_sf(grid, r=1.0)
        dt, T = 1e-3, 0.1
        n = int(round(T / dt))
        sol = radii_oracle(np.linspace(0, T, n + 1))

        def lam_at(tq):
            r1, r2 = sol.sol(tq)
            lam = np.zeros((2, 2) + grid.shape, dtype=complex)
            lam[0, 0] = -r1
            lam[1, 1] = -1j * r2
            return lam

        for i in range(n):
            s = step_parabolic(s, (lam_at(i * dt), lam_at((i + 1) * dt)), dt)
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
                s = step_parabolic(s, (sf.lam, sf.lam), dt)
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
            blocks0[j] = grid.l2(lp_project(grid, s.metric.h[0, 0], j, "S"))
        lam0 = zero_sf(grid).lam
        for _ in range(int(t_end / dt)):
            s = step_parabolic(s, (lam0, lam0), dt)
        c = calibration.HEAT_BLOCK_DECAY_RATE
        feed = 10.0 * t_end * 1e-8  # quadratic feed bound ~ ||h0||^2
        for j in range(1, 5):
            bj = grid.l2(lp_project(grid, s.metric.h[0, 0], j, "S"))
            assert bj <= np.exp(-c * 4.0**j * t_end) * blocks0[j] + feed

    def test_exit_gauge_identities(self):
        grid = Grid(d=2, n=32, L=16.0)
        s0, sf = bump_state_and_sf(grid, eps=0.1)
        s = step_parabolic(s0, (sf.lam, sf.lam), 0.005)
        V, B = harmonic_defect(s.metric), covariant_divergence(s.metric, s.A)
        assert maxabs(s.V - V) < 1e-13
        assert maxabs(s.B - B) < 1e-13
        assert maxabs(s.metric.g - np.swapaxes(s.metric.g, 0, 1)) == 0.0
        assert np.isrealobj(s.A)

    def test_degenerate_predictor_rejects_the_step(self):
        # lambda x 1e4 drives the predicted metric indefinite: a rejected
        # step, not a validation error
        cfg = replace(load_config(CONFIGS / "bump_smalldata.txt"), grid_points_n=32)
        bundle = generate_scenario(cfg)
        lam = 1e4 * bundle.sf.lam
        with pytest.raises(StepRejectedError):
            step_parabolic(bundle.gauge, (lam, lam), cfg.time_step_dt)

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
        step_parabolic(s0, (sf.lam, sf.lam), 0.005)
        assert len(calls) == 2

    def test_a_second_step_at_the_same_dt_builds_no_factors(self, monkeypatch):
        # E, dt phi1 and dt phi2 are kept per (grid, dt)
        import smcflab.parabolic as parabolic

        grid = Grid(d=2, n=16, L=16.0)
        s0, sf = bump_state_and_sf(grid)
        calls = []

        def counting(z):
            calls.append(z)
            return _phi_factors(z)

        monkeypatch.setattr(parabolic, "_phi_factors", counting)
        first = step_parabolic(s0, (sf.lam, sf.lam), 0.005)
        assert len(calls) == 1
        E, dt_phi1, dt_phi2 = grid._tables["etd2", 0.005]
        phi1, phi2 = _phi_factors(calls[0])
        assert np.array_equal(E, np.exp(calls[0]))
        assert np.array_equal(dt_phi1, 0.005 * phi1) and np.array_equal(dt_phi2, 0.005 * phi2)
        again = step_parabolic(s0, (sf.lam, sf.lam), 0.005)
        assert len(calls) == 1
        assert np.array_equal(again.metric.g, first.metric.g) and np.array_equal(again.A, first.A)

    def test_step_builds_the_ricci_representation_once_per_stage(self, monkeypatch):
        # heat_rhs_h and heat_rhs_A share the Ricci form cached on the stage's
        # second form: one build per stage
        grid = Grid(d=2, n=16, L=16.0)
        s0, sf = bump_state_and_sf(grid)
        calls = []
        build = SecondForm.ricci.func

        def counting(self):
            calls.append(self)
            return build(self)

        ricci = cached_property(counting)
        ricci.__set_name__(SecondForm, "ricci")
        monkeypatch.setattr(SecondForm, "ricci", ricci)
        step_parabolic(s0, (sf.lam, sf.lam), 0.005)
        assert len(calls) == 2


@pytest.mark.parametrize(
    "T, dt, expected",
    [
        (0.25, 0.03125, (8, 0.03125)),  # T/dt an integer: dt kept
        (0.2, 0.001, (200, 0.2 / 200)),
        (0.25, 0.1, (2, 0.125)),  # 2.5 steps round to 2 (half to even)
        (0.25, 0.07, (4, 0.0625)),  # 3.57 steps round up to 4
        (0.25, 1.0, (1, 0.25)),  # never fewer than one step
    ],
)
def test_time_grid(T, dt, expected):
    assert time_grid(T, dt) == expected


def test_gauge_path_steps_between_the_given_times(monkeypatch):
    # the sweep looks step_parabolic up in the parabolic module, where the
    # benchmark tracer counts it
    import smcflab.parabolic as parabolic

    grid = Grid(d=2, n=8, L=2 * np.pi)
    s0 = flat_state(grid)
    path = [zero_sf(grid).lam for _ in range(3)]
    calls = []

    def recording(s, lam_path, dt, sign_variant):
        calls.append((lam_path, dt, sign_variant))
        return step_parabolic(s, lam_path, dt, sign_variant)

    monkeypatch.setattr(parabolic, "step_parabolic", recording)
    states = list(gauge_path(s0, path, np.diff([0.0, 0.25, 0.75]), "plus"))
    assert len(states) == 3 and states[0] is s0
    assert [dt for _, dt, _ in calls] == [0.25, 0.5]
    assert calls[1][0][0] is path[1] and calls[1][0][1] is path[2] and calls[1][2] == "plus"
    assert states[-1].t == 0.75


def exact_phi(z):
    """(phi1, phi2) at the float z by the Taylor series sum_k z^k / (k + 2)! in
    exact rational arithmetic, 80 terms (enough for |z| <= 3)."""
    zf, phi2, term = Fraction(z), Fraction(0), Fraction(1, 2)
    for k in range(80):
        phi2 += term
        term = term * zf / (k + 3)
    return float(1 + zf * phi2), float(phi2)


@pytest.mark.parametrize(
    "z",
    [-(10.0**-k) for k in range(1, 13)]
    + [-np.nextafter(_PHI_SERIES_CUT, 0.0), -_PHI_SERIES_CUT, -0.999 * _PHI_SERIES_CUT, -1.001 * _PHI_SERIES_CUT]
    + [-1.0, -3.0],
)
def test_phi_factors_match_the_exact_series(z):
    # (expm1(z) - z) / z^2 alone is off by about eps / |z|: 1.6e-10 at z = -1e-6
    phi1, phi2 = _phi_factors(np.array([z]))
    want1, want2 = exact_phi(z)
    assert abs(phi1[0] - want1) <= 1e-14 * abs(want1)
    assert abs(phi2[0] - want2) <= 1e-14 * abs(want2)


def test_phi_factors_at_zero():
    phi1, phi2 = _phi_factors(np.zeros(1))
    assert (phi1[0], phi2[0]) == (1.0, 0.5)
