"""Covariant Schroedinger stepper and the coupled evolution drivers."""

import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from normal_frames import gram_schmidt_normal
from oracles import nested_principal_difference
from smcflab import schrodinger
from smcflab.config import load_config
from smcflab.errors import BlowupError
from smcflab.fixtures import bump_immersion, cliff_fixture
from smcflab.geometry import SecondForm, identity_metric, induced_metric, second_form
from smcflab.grid import Grid
from smcflab.harness import generate_scenario
from smcflab.parabolic import gauge_state_from, heat_rhs_h
from smcflab.schrodinger import (
    assemble_nonlinearity,
    evolve_coupled,
    nonlinearity_terms,
    picard_evolve,
    step_schrodinger,
)

CLIFF_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "cliff_oracle.txt"


def maxabs(x):
    return float(np.max(np.abs(x)))


def flat_gauge(grid, t=0.0):
    return gauge_state_from(grid, identity_metric(grid), np.zeros((grid.d,) + grid.shape), t)


def zero_sf(grid):
    return SecondForm(
        flat_gauge(grid).metric,
        np.zeros((grid.d, grid.d) + grid.shape, dtype=complex),
        np.zeros(grid.shape, dtype=complex),
    )


def cliff_setup(grid, r=1.0):
    fix = cliff_fixture(grid, r)
    m = induced_metric(fix.immersion)
    sf = second_form(fix.immersion, (fix.nu1, fix.nu2), m)
    gauge = gauge_state_from(grid, m.g, np.zeros((2,) + grid.shape))
    return sf, gauge


def bump_setup(grid, eps=0.02, delta=0.5):
    fix = bump_immersion(grid, eps=eps, delta=delta)
    F = fix.immersion
    m = induced_metric(F)
    nu1 = np.zeros((4,) + grid.shape)
    nu2 = np.zeros((4,) + grid.shape)
    nu1[2] = 1.0
    nu2[3] = 1.0
    sf = second_form(F, gram_schmidt_normal(F, m, nu1, nu2), m)
    gauge = gauge_state_from(grid, m.g, np.zeros((2,) + grid.shape))
    return sf, gauge


class TestAssembleNonlinearity:
    def test_zero_lambda(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        out = assemble_nonlinearity(zero_sf(grid), flat_gauge(grid))
        assert maxabs(out) == 0.0

    @pytest.mark.parametrize("r", [1.0, 1.5])
    def test_cliff_reduces_to_cubics(self, r):
        grid = Grid(d=2, n=8, L=2 * np.pi * r)
        sf, gauge = cliff_setup(grid, r)
        total, terms = assemble_nonlinearity(sf, gauge), nonlinearity_terms(sf, gauge)
        # only the three cubic terms survive; psi-quadratic at (0,0) is psi |lam11|^2
        for name in (
            "principal_difference",
            "advection",
            "magnetic_covariant_correction",
            "div_A",
            "potential",
            "lambda_grad_V",
        ):
            assert maxabs(terms[name]) < 1e-11, name
        expected_psi_term = -(1.0 + 1j) / r**3
        assert maxabs(terms["psi_quadratic"][0, 0] - expected_psi_term) < 1e-10
        # total at (0,0) equals the homogeneous-ODE right side i d_t lam_11 = -i/r^3
        assert maxabs(total[0, 0] - (-1j / r**3)) < 1e-10

    def test_term_isolation_zero_connection(self):
        grid = Grid(d=2, n=32, L=16.0)
        sf, gauge = bump_setup(grid, eps=0.1)
        terms = nonlinearity_terms(sf, gauge)
        assert maxabs(terms["magnetic_covariant_correction"]) == 0.0
        assert maxabs(terms["div_A"]) == 0.0
        # with A = 0 the potential reduces to B = div A = 0 too
        assert maxabs(terms["potential"]) == 0.0

    def test_output_symmetric(self):
        grid = Grid(d=2, n=32, L=16.0)
        sf, gauge = bump_setup(grid, eps=0.1)
        out = assemble_nonlinearity(sf, gauge)
        assert maxabs(out - np.swapaxes(out, 0, 1)) < 1e-14


class TestPrincipalDifference:
    """d_m(g^{mn} d_n lam) - g^{ec} nabla_e nabla_c lam: the stepper's first-order
    closed form against the nested second-order form.  Both are untruncated
    and the stepper truncates the sum it enters once, so the truncated fields
    are compared."""

    def test_bump_matches_nested_form(self, bump_scenario):
        name, bundle = bump_scenario
        grid = bundle.grid
        terms = nonlinearity_terms(bundle.sf, bundle.gauge)
        closed = grid.dealias(terms["principal_difference"])
        nested = grid.dealias(nested_principal_difference(bundle.sf, bundle.gauge.metric))
        rel_tol = {"d2-n64": 1e-9, "d3-n32": 1e-8}[name]
        assert maxabs(closed - nested) <= rel_tol * maxabs(nested)

    def test_bump_off_harmonic_coordinates_matches_nested_form(self):
        # the graph metric has V != 0, which harmonic coordinates remove
        grid = Grid(d=2, n=64, L=16.0)
        sf, gauge = bump_setup(grid, eps=0.1)
        terms = nonlinearity_terms(sf, gauge)
        nested = grid.dealias(nested_principal_difference(sf, gauge.metric))
        assert maxabs(grid.dealias(terms["principal_difference"]) - nested) <= 1e-9 * maxabs(nested)

    def test_cliff_matches_nested_form(self):
        # the flat cliff metric leaves pdiff at roundoff, so the bound is absolute
        bundle = generate_scenario(load_config(CLIFF_CONFIG))
        grid = bundle.grid
        terms = nonlinearity_terms(bundle.sf, bundle.gauge)
        nested = nested_principal_difference(bundle.sf, bundle.gauge.metric)
        assert maxabs(grid.dealias(terms["principal_difference"]) - grid.dealias(nested)) <= 1e-11

    def test_lambda_terms_take_no_covariant_derivative(self, geometry_calls):
        # a first call builds the state's own fields (B, nabla V); the lambda
        # terms of the second call need none
        grid = Grid(d=2, n=16, L=16.0)
        sf, gauge = bump_setup(grid, eps=0.1)
        assemble_nonlinearity(sf, gauge)
        counts = geometry_calls("covariant_derivative")
        assemble_nonlinearity(sf, gauge)
        assert counts == {"covariant_derivative": 0}


class TestStepSchrodinger:
    def test_free_mode_exact_phase(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        gauge = flat_gauge(grid)
        k = np.array([2.0, 1.0])
        mode = np.exp(1j * (k[0] * grid.x[0] + k[1] * grid.x[1]))
        lam = np.zeros((2, 2) + grid.shape, dtype=complex)
        lam[0, 0] = mode
        lam[1, 1] = mode
        sf = SecondForm(gauge.metric, lam, np.zeros(grid.shape, dtype=complex))
        dt = 0.0137
        out = step_schrodinger(sf, gauge, dt, frozen_source=zero_sf(grid))
        expected = np.exp(-1j * (k @ k) * dt) * lam
        assert maxabs(out.lam - expected) < 1e-12

    def test_free_l2_conservation(self):
        grid = Grid(d=2, n=32, L=2 * np.pi)
        gauge = flat_gauge(grid)
        rng = np.random.default_rng(0)
        lam = np.zeros((2, 2) + grid.shape, dtype=complex)
        vals = grid.dealias(rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        lam[0, 0] = vals
        lam[0, 1] = lam[1, 0] = 0.3 * vals
        lam[1, 1] = -vals
        sf = SecondForm(gauge.metric, lam, np.zeros(grid.shape, dtype=complex))
        out = sf
        for _ in range(20):
            out = step_schrodinger(out, gauge, 0.01, frozen_source=zero_sf(grid))
        assert abs(grid.l2(out.lam) - grid.l2(sf.lam)) < 1e-12 * grid.l2(sf.lam)

    def test_self_convergence_second_order(self):
        grid = Grid(d=2, n=32, L=16.0)
        sf0, gauge = bump_setup(grid, eps=0.1)
        T = 0.05

        def run(dt):
            out = sf0
            for _ in range(int(round(T / dt))):
                out = step_schrodinger(out, gauge, dt)
            return out.lam

        ref = run(T / 64)
        e1 = maxabs(run(T / 4) - ref)
        e2 = maxabs(run(T / 8) - ref)
        assert 2.8 < e1 / e2 < 5.5

    def test_symmetry_preserved(self):
        grid = Grid(d=2, n=32, L=16.0)
        sf0, gauge = bump_setup(grid, eps=0.1)
        out = step_schrodinger(sf0, gauge, 0.01)
        assert maxabs(out.lam - np.swapaxes(out.lam, 0, 1)) < 1e-13


class TestPicardEvolve:
    def test_zero_data_stays_zero(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        traj = picard_evolve(zero_sf(grid), flat_gauge(grid), T=0.05, dt=0.01)
        assert maxabs(traj[-1].lam) == 0.0
        assert maxabs(traj[-1].g - identity_metric(grid)) < 1e-14

    def test_cliff_matches_radii_ode(self):
        grid = Grid(d=2, n=8, L=2 * np.pi)
        sf, gauge = cliff_setup(grid, r=1.0)
        T, dt = 0.2, 1e-3
        traj = picard_evolve(sf, gauge, T=T, dt=dt, snapshot_every=25)
        sol = solve_ivp(
            lambda t, r: [1.0 / r[1], -1.0 / r[0]],
            (0, T),
            [1.0, 1.0],
            rtol=1e-12,
            atol=1e-12,
            dense_output=True,
        )
        for rec in traj.records:
            r1o, r2o = sol.sol(rec.t)
            # lambda_11 = -r1, lambda_22 = -i r2, g = diag(r1^2, r2^2)
            r1 = -np.mean(rec.lam[0, 0]).real
            r2 = -np.mean(rec.lam[1, 1]).imag
            assert abs(r1 - r1o) < 1e-5
            assert abs(r2 - r2o) < 1e-5
            assert abs(r1 * r2 - 1.0) < 1e-6
            assert maxabs(np.sqrt(rec.g[0, 0]) - r1o) < 1e-5

    def test_scaling_invariance(self):
        # mu = 2: same arrays evolved on the half box with dt/4 match exactly
        mu = 2.0
        grid1 = Grid(d=2, n=32, L=16.0)
        sf1, gauge1 = bump_setup(grid1, eps=0.05)
        T, dt = 0.04, 0.005
        traj1 = picard_evolve(sf1, gauge1, T=T, dt=dt, snapshot_every=8)

        grid2 = Grid(d=2, n=32, L=16.0 / mu)
        g2 = gauge1.metric.g.copy()
        A2 = mu * gauge1.A
        lam2 = mu * sf1.lam
        gauge2 = gauge_state_from(grid2, g2, A2)
        sf2 = SecondForm(gauge2.metric, lam2)
        traj2 = picard_evolve(sf2, gauge2, T=T / mu**2, dt=dt / mu**2, snapshot_every=8)

        rel = maxabs(traj2[-1].lam - mu * traj1[-1].lam) / maxabs(mu * traj1[-1].lam)
        assert rel < 1e-11
        assert maxabs(traj2[-1].g - traj1[-1].g) < 1e-11

    def test_slab_picard_contracts(self):
        grid = Grid(d=2, n=32, L=16.0)
        sf, gauge = bump_setup(grid, eps=0.02)
        traj = picard_evolve(sf, gauge, T=0.05, dt=0.01, mode="slab", sweeps=4)
        dist = traj.meta["sweep_distances"]
        assert len(dist) == 4
        for a, b in zip(dist[1:], dist[:-1]):
            assert a <= 0.5 * b

    def test_records_stay_bitwise_symmetric(self):
        # g is symmetrized once per parabolic step; lambda and the metric flow's
        # right side N_h = (g^{ab} - delta^{ab}) d_a d_b g + heat_rhs_h are
        # symmetric bit for bit without a guard of their own
        bump = Path(__file__).resolve().parents[1] / "configs" / "bump_smalldata.txt"
        bundle = generate_scenario(replace(load_config(bump), grid_points_n=32))
        grid = bundle.grid
        assert maxabs(bundle.gauge.A) > 0
        for mode in ("perstep", "slab"):
            traj = picard_evolve(bundle.sf, bundle.gauge, T=5 * 0.03125, dt=0.03125, mode=mode)
            assert len(traj) == 6
            for rec in traj.records:
                s = rec.gauge(grid)
                Nh = s.principal_remainder[0] + heat_rhs_h(s, SecondForm(s.metric, rec.lam))
                for field in (rec.g, rec.lam, Nh):
                    assert np.array_equal(field, np.swapaxes(field, 0, 1)), (mode, rec.t)

    def test_slab_and_perstep_runs_store_the_same_times(self):
        # 20 steps at a cadence of 5: steps 0, 5, 10, 15 and 20 are stored in both modes
        grid = Grid(d=2, n=8, L=2 * np.pi)
        sf, gauge = cliff_setup(grid, r=1.0)
        runs = [
            picard_evolve(sf, gauge, T=0.02, dt=0.001, mode=mode, snapshot_every=5) for mode in ("perstep", "slab")
        ]
        assert len(runs[0]) == 5
        assert np.array_equal(runs[0].times, runs[1].times)

    def test_a_slab_run_steps_by_one_dt(self):
        # 0.001 is not dyadic: differences of the times i * dt take 5 values over 40 steps
        grid = Grid(d=2, n=8, L=2 * np.pi)
        sf, gauge = cliff_setup(grid, r=1.0)
        traj = picard_evolve(sf, gauge, T=0.04, dt=0.001, mode="slab", sweeps=1)
        assert [key for key in grid._tables if key[0] == "etd2"] == [("etd2", traj.meta["dt"])]

    def test_hs_norm_control(self):
        grid = Grid(d=2, n=32, L=16.0)
        sf, gauge = bump_setup(grid, eps=0.02)
        from smcflab.grid import GridField
        from smcflab.norms import sobolev_norm

        traj = picard_evolve(sf, gauge, T=0.2, dt=0.01, snapshot_every=4)
        s_idx = 2.0

        def hs(lam):
            return np.sqrt(
                sum(
                    sobolev_norm(GridField(grid, lam[a, b]), s_idx) ** 2
                    for a in range(2)
                    for b in range(2)
                )
            )

        h0 = hs(traj[0].lam)
        for rec in traj.records:
            assert hs(rec.lam) <= 2.0 * h0

    def test_l2_drift_regression(self):
        from smcflab import calibration

        grid = Grid(d=2, n=32, L=16.0)
        sf, gauge = bump_setup(grid, eps=0.02)
        T, dt = 0.1, 0.005
        traj = picard_evolve(sf, gauge, T=T, dt=dt, snapshot_every=20)
        drift = abs(grid.l2(traj[-1].lam) - grid.l2(traj[0].lam)) / grid.l2(traj[0].lam)
        assert drift <= calibration.L2_DRIFT_CONSTANT * dt**2 * T / T

    def test_one_cliff_step_stays_under_21_forward_transforms(self, transform_counts):
        # the cliff config at n=8, where per-call overhead sets the cost; the
        # initial form's psi is traced outside the count, which covers the step.
        # The named operators are matrices there: the first step builds five,
        # one forward transform each, and every later step reuses them
        grid = Grid(d=2, n=8, L=2 * np.pi)
        sf, gauge = cliff_setup(grid)
        sf.psi
        transform_counts.update(fft=0, ifft=0)
        evolve_coupled(sf, gauge, 1e-3, 1e-3, sign_variant="plus")
        assert transform_counts["fft"] <= 21
        transform_counts.update(fft=0, ifft=0)
        evolve_coupled(sf, gauge, 1e-3, 1e-3, sign_variant="plus")
        assert transform_counts["fft"] <= 16

    def test_free_phase_is_built_once_per_dt(self):
        grid = Grid(d=2, n=8, L=2 * np.pi)
        sf, gauge = cliff_setup(grid)
        first = step_schrodinger(sf, gauge, 1e-3)
        phase = grid._tables["free_phase", 1e-3]
        assert np.array_equal(phase, np.exp(-1j * grid.k_sq * 1e-3 / 2.0))
        assert np.array_equal(step_schrodinger(sf, gauge, 1e-3).lam, first.lam)
        assert grid._tables["free_phase", 1e-3] is phase
        step_schrodinger(sf, gauge, 2e-3)
        assert sorted(key[1] for key in grid._tables if key[0] == "free_phase") == [1e-3, 2e-3]

    def test_stepped_forms_trace_psi_only_when_published(self, monkeypatch):
        # neither Schroedinger step's result is published, so neither traces psi;
        # the step's final form traces it when its record is written
        grid = Grid(d=2, n=8, L=2 * np.pi)
        sf, gauge = cliff_setup(grid)
        results = []

        def stepped(*args, **kwargs):
            results.append(step_schrodinger(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(schrodinger, "step_schrodinger", stepped)
        traj = evolve_coupled(sf, gauge, 2e-3, 1e-3, sign_variant="plus", snapshot_every=2)
        assert len(results) == 4 and not any("psi" in vars(r) for r in results)
        assert len(traj) == 2

    def test_frozen_source_is_freed_before_the_first_stage(self, monkeypatch):
        grid = Grid(d=2, n=8, L=2 * np.pi)
        sf, gauge = cliff_setup(grid)
        sources, alive = [], []

        def assemble(source, s, _original=assemble_nonlinearity):
            out = _original(source, s)
            sources.append(weakref.ref(source))
            return out

        def grad(arr, _original=grid.grad):
            # the first gradient after the source's nonlinearity is the first W stage's
            if sources and not alive:
                alive.append(sources[0]() is not None)
            return _original(arr)

        monkeypatch.setattr(schrodinger, "assemble_nonlinearity", assemble)
        monkeypatch.setattr(grid, "grad", grad)
        step_schrodinger(sf, gauge, 1e-3, frozen_source=SecondForm(gauge.metric, sf.lam, sf.psi))
        assert len(sources) == 1 and alive == [False]

    def test_steady_step_builds_four_christoffel_and_two_divergences(self, geometry_calls):
        # per step the start state, both parabolic stage-1 states and the
        # midpoint gauge read their Christoffel symbols; only the start state
        # and the midpoint gauge, which the Schroedinger steps read, build B.
        # The predicted gauge is only averaged and builds neither.
        counts = geometry_calls("christoffel", "covariant_divergence")
        grid = Grid(d=2, n=8, L=2 * np.pi)
        totals = []
        for nsteps in (1, 2):
            sf, gauge = cliff_setup(grid)
            counts.update(christoffel=0, covariant_divergence=0)
            evolve_coupled(sf, gauge, nsteps * 1e-3, 1e-3)
            totals.append(dict(counts))
        assert {key: totals[1][key] - totals[0][key] for key in counts} == {"christoffel": 4, "covariant_divergence": 2}

    def test_blowup_detected(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        lam = 1e2 * np.ones((2, 2) + grid.shape, dtype=complex)
        sf = SecondForm(flat_gauge(grid).metric, lam)
        with pytest.raises(BlowupError):
            picard_evolve(sf, flat_gauge(grid), T=1.0, dt=0.05, blowup_threshold=10.0)
