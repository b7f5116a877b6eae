"""Initial gauge fixing: harmonic coordinates, Coulomb frame, initial connection."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from normal_frames import graph_normal_bundle
from oracles import deriv, gauge_rotate
from smcflab.cli import main
from smcflab.config import load_config, save_config
from smcflab.errors import (
    ContractionFailureError,
    NoConvergenceError,
    SmcfValidationError,
    TransversalityError,
)
from smcflab.fixtures import bump_immersion, cliff_fixture, flat_immersion
from smcflab.gauge_init import (
    build_coulomb_frame,
    check_elliptic_h,
    coulomb_rotation,
    covariant_divergence,
    _picard_loop,
    pullback_immersion,
    solve_harmonic_coordinates,
    solve_initial_A,
)
from smcflab.geometry import (
    SecondForm,
    harmonic_defect,
    identity_metric,
    induced_metric,
    second_form,
    MetricState,
)
from smcflab.grid import Grid
from smcflab.harness import generate_scenario

BUMP_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "bump_smalldata.txt"


def maxabs(x):
    return float(np.max(np.abs(x)))


@pytest.fixture
def bump_grid():
    return Grid(d=2, n=64, L=16.0)


def bump_metric(bump_grid, eps=0.05, delta=0.5):
    F = bump_immersion(bump_grid, eps=eps, delta=delta).immersion
    return F, induced_metric(F)


class TestHarmonicCoordinates:
    def test_flat_is_already_harmonic(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        m = MetricState(grid, identity_metric(grid))
        change = solve_harmonic_coordinates(m)
        assert maxabs(change.phi) < 1e-13
        assert change.report.iterations <= 1

    def test_cliff_needs_no_change(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        fix = cliff_fixture(grid, 1.0)
        m = induced_metric(fix.immersion)
        change = solve_harmonic_coordinates(m)
        assert maxabs(change.phi) < 1e-11

    def test_bump_converges_fast(self, bump_grid):
        F, m = bump_metric(bump_grid)
        change = solve_harmonic_coordinates(m, tol=1e-9, max_iter=30)
        assert change.report.residual < 1e-9
        assert change.report.iterations <= 30
        # |d phi| controlled by |h|, both measured in the same norm
        from smcflab.gauge_init import fractional_sobolev

        dphi = np.stack([np.stack([deriv(bump_grid, change.phi[c], a) for a in range(2)]) for c in range(2)])
        lhs = fractional_sobolev(bump_grid, dphi, 0.5, 2.5)
        rhs = fractional_sobolev(bump_grid, m.h, 0.5, 2.5)
        assert lhs <= 2.0 * rhs

    def test_large_data_rejected(self, bump_grid):
        F, m = bump_metric(bump_grid)
        with pytest.raises(SmcfValidationError):
            solve_harmonic_coordinates(m, small_data_threshold=1e-12)

    def test_each_sweep_evaluates_operator_once(self, transform_counts):
        grid = Grid(d=2, n=16, L=16.0)
        F, m = bump_metric(grid)
        m.V  # V and the Christoffel symbols are built on first read, outside the count
        counts = {}
        for k in (1, 2):
            transform_counts.update(fft=0, ifft=0)
            with pytest.raises(NoConvergenceError):
                solve_harmonic_coordinates(m, tol=0.0, max_iter=k)
            counts[k] = dict(transform_counts)
        # one sweep: grad_hessian and dealias of the residual, and inv_laplacian
        assert counts[2]["fft"] - counts[1]["fft"] == 3


class TestPicardLoop:
    def test_growing_error_raises_contraction_failure(self):
        # residual 3 Lap u - f: each sweep maps the error e to -2 e
        grid = Grid(d=2, n=16, L=2 * np.pi)
        f = np.cos(grid.x[0]) + 0.5 * np.sin(2 * grid.x[1])
        with pytest.raises(ContractionFailureError, match="toy problem: residual grew over three sweeps"):
            _picard_loop(grid, lambda u: 3 * grid.laplacian(u) - f, np.zeros(grid.shape), 1e-12, 20, "toy problem")

    def test_stalled_residual_is_not_reported_as_growth(self, tmp_path, capsys):
        # the bump at n = 8, eps = 0.1: the harmonic residual falls to 1.58e-8 in
        # two sweeps and then sits at 1.5729666e-8, above tol = 1e-9, within 4e-9
        # relative, until roundoff rises three times in a row at sweep 36
        path = tmp_path / "cfg.txt"
        cfg = replace(load_config(BUMP_CONFIG), grid_points_n=8, bump_epsilon=0.1, output_dir=str(tmp_path / "out"))
        save_config(path, cfg)
        assert main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "harmonic coordinates: residual stalled at 1.573e-08 > tol 1.0e-09 after 6 sweeps" in err
        assert "grew" not in err


class TestPullback:
    def test_one_evaluation_per_point_set(self, monkeypatch):
        # three inverse sweeps evaluate the whole phi stack, the pullback all of F.dev
        grid = Grid(d=2, n=32, L=16.0)
        F, m = bump_metric(grid, eps=0.02)
        stacks = []
        original = Grid.eval_at_points

        def counted(self, arr, pts):
            stacks.append(np.shape(arr))
            return original(self, arr, pts)

        monkeypatch.setattr(Grid, "eval_at_points", counted)
        pullback_immersion(F, solve_harmonic_coordinates(m, tol=1e-10))
        assert stacks == [(2, 32, 32)] * 3 + [(4, 32, 32)]

    def test_bump_pullback_reduces_harmonic_defect(self, bump_grid):
        F, m = bump_metric(bump_grid)
        before = bump_grid.l2(harmonic_defect(m))
        change = solve_harmonic_coordinates(m, tol=1e-10)
        F2 = pullback_immersion(F, change)
        m2 = induced_metric(F2)
        after = bump_grid.l2(harmonic_defect(m2))
        assert after < before / 10.0


class TestCoulombFrame:
    def test_flat_constant_frame(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        F = flat_immersion(grid)
        m = induced_metric(F)
        nu1, nu2, A, report = build_coulomb_frame(F, m)
        assert maxabs(A) < 1e-12
        assert maxabs(nu1 - nu1.mean(axis=(1, 2), keepdims=True)) < 1e-12

    def test_cliff_transversality_fails(self):
        # the product-of-circles normal bundle admits no constant transversal
        grid = Grid(d=2, n=16, L=2 * np.pi)
        fix = cliff_fixture(grid, 1.0)
        m = induced_metric(fix.immersion)
        with pytest.raises(TransversalityError):
            build_coulomb_frame(fix.immersion, m)

    def test_cliff_analytic_frame_is_already_coulomb(self):
        # seeded with the rotating frame: its connection vanishes, so the
        # rotation angle solves to zero and the frame comes back unchanged
        grid = Grid(d=2, n=16, L=2 * np.pi)
        fix = cliff_fixture(grid, 1.0)
        m = induced_metric(fix.immersion)
        nu1, nu2, A, report = coulomb_rotation(m, fix.nu1, fix.nu2)
        assert maxabs(A) < 1e-11
        assert maxabs(nu1 - fix.nu1) < 1e-11
        assert maxabs(nu2 - fix.nu2) < 1e-11
        assert report.residual < 1e-11

    def test_bump_divergence_free(self, bump_grid):
        F, m = bump_metric(bump_grid)
        change = solve_harmonic_coordinates(m, tol=1e-10)
        F2 = pullback_immersion(F, change)
        m2 = induced_metric(F2)
        nu1, nu2, A, report = build_coulomb_frame(F2, m2, tol=1e-10)
        assert report.residual < 1e-9
        # frame orthonormality and normality
        t = F2.tangents()
        assert maxabs(np.einsum("i...,i...->...", nu1, nu1) - 1) < 1e-8
        assert maxabs(np.einsum("i...,i...->...", nu1, nu2)) < 1e-8
        for a in range(2):
            assert maxabs(np.einsum("i...,i...->...", t[a], nu1)) < 1e-8
            assert maxabs(np.einsum("i...,i...->...", t[a], nu2)) < 1e-8

    def test_gauge_rotation_then_resolve_recovers_divergence(self, bump_grid):
        F, m = bump_metric(bump_grid)
        change = solve_harmonic_coordinates(m, tol=1e-10)
        F2 = pullback_immersion(F, change)
        m2 = induced_metric(F2)
        nu1, nu2, A, _ = build_coulomb_frame(F2, m2, tol=1e-10)
        sf = second_form(F2, (nu1, nu2), m2)
        rng = np.random.default_rng(2)
        hat = rng.standard_normal(bump_grid.shape) + 1j * rng.standard_normal(bump_grid.shape)
        hat[bump_grid.k_mag > 1.5] = 0
        theta = bump_grid.ifft(hat).real
        theta = 0.05 * (theta - theta.mean()) / maxabs(theta)
        sf_rot, A_rot, m_rot = gauge_rotate(sf, A, nu1 + 1j * nu2, theta)
        # the rotated connection is not divergence free; re-running the
        # Coulomb rotation from the rotated frame recovers the representative
        assert bump_grid.l2(covariant_divergence(m2, A_rot)) > 1e-6
        nu1_b, nu2_b, A_back, report = coulomb_rotation(m2, np.real(m_rot), np.imag(m_rot), tol=1e-10)
        assert report.residual < 1e-9
        assert bump_grid.l2(covariant_divergence(m2, A_back)) < 1e-9
        # with mean-pinned theta the fixed point is recovered exactly
        assert maxabs(A_back - A) < 1e-8
        assert maxabs(nu1_b - nu1) < 1e-8


class TestInitialA:
    def test_zero_lambda_gives_zero(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        m = MetricState(grid, identity_metric(grid))
        sf = SecondForm(m, np.zeros((2, 2) + grid.shape, dtype=complex), np.zeros(grid.shape, dtype=complex))
        A, report, res = solve_initial_A(sf)
        assert maxabs(A) < 1e-13

    def test_cliff_source_vanishes(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        fix = cliff_fixture(grid, 1.0)
        m = induced_metric(fix.immersion)
        sf = second_form(fix.immersion, (fix.nu1, fix.nu2), m)
        A, report, res = solve_initial_A(sf)
        assert maxabs(A) < 1e-11

    def test_bump_residuals_small(self, bump_grid):
        F, m0 = bump_metric(bump_grid)
        change = solve_harmonic_coordinates(m0, tol=1e-10)
        F2 = pullback_immersion(F, change)
        m = induced_metric(F2)
        nu1, nu2, A_frame, _ = build_coulomb_frame(F2, m, tol=1e-10)
        sf = second_form(F2, (nu1, nu2), m)
        A, report, res = solve_initial_A(sf, tol=1e-10)
        assert res["div_l2"] < 1e-8
        assert res["curl_l2"] < 1e-8
        # agreement with the frame-construction route, modulo the constant
        # one-forms (the periodic harmonic kernel of the div-curl system)
        A_frame_cent = A_frame - A_frame.mean(axis=(1, 2), keepdims=True)
        assert maxabs(A - A_frame_cent) < 1e-6


class TestEllipticH:
    def test_flat_zero(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        m = MetricState(grid, identity_metric(grid))
        sf = SecondForm(m, np.zeros((2, 2) + grid.shape, dtype=complex), np.zeros(grid.shape, dtype=complex))
        _, norms = check_elliptic_h(sf)
        assert norms["l2"] < 1e-12

    def test_cliff_residual_is_zero(self):
        # the curvature combination Re(lam psi-bar - lam lambar) equals Ric = 0
        # on the product of circles, so the whole identity balances to zero
        grid = Grid(d=2, n=16, L=2 * np.pi)
        fix = cliff_fixture(grid, 1.0)
        m = induced_metric(fix.immersion)
        sf = second_form(fix.immersion, (fix.nu1, fix.nu2), m)
        _, norms = check_elliptic_h(sf)
        assert norms["l2"] < 1e-10

    def test_bump_residual_discriminates_harmonic_coordinates(self, bump_grid):
        # in harmonic coordinates the identity holds to the truncation floor;
        # in the raw graph coordinates it is violated at the size of the
        # harmonic defect (the eps^3 scaling is invisible below truncation)
        eps = 0.05
        F = bump_immersion(bump_grid, eps=eps, delta=0.5).immersion
        m0 = induced_metric(F)
        nu1, nu2, _ = graph_normal_bundle(F, m0)
        sf0 = second_form(F, (nu1, nu2), m0)
        _, norms_raw = check_elliptic_h(sf0)

        change = solve_harmonic_coordinates(m0, tol=1e-11)
        F2 = pullback_immersion(F, change)
        m = induced_metric(F2)
        nu1, nu2, _, _ = build_coulomb_frame(F2, m, tol=1e-10)
        sf = second_form(F2, (nu1, nu2), m)
        _, norms_harm = check_elliptic_h(sf)

        assert norms_harm["rel"] < 1e-8
        assert norms_raw["l2"] > 100.0 * norms_harm["l2"]

    def test_converged_d1_bump_reads_below_one(self):
        # harmonic coordinates make a d = 1 metric constant, so both sides of
        # the identity sit at the defect level; unfloored, this row read 1.00
        bundle = generate_scenario(replace(load_config(BUMP_CONFIG), grid_dimension_d=1))
        assert bundle.residuals["harmonic_defect_l2"] < 1e-9
        assert bundle.residuals["elliptic_h_rel"] < 0.2

    def test_early_stopped_d1_solve_reads_above_the_floor(self):
        # one harmonic sweep (tol 1e-4) leaves a defect far above the 1e-9
        # the check is floored at, and the residual fills the scale
        bundle = generate_scenario(replace(load_config(BUMP_CONFIG), grid_dimension_d=1, solver_tol=1e-4))
        assert bundle.residuals["harmonic_iterations"] == 1
        _, norms = check_elliptic_h(bundle.sf, tol=1e-9)
        assert norms["rel"] > 0.5

    def test_floor_leaves_gauged_bumps_unchanged(self, bump_scenario):
        # d >= 2: both sides are O(curvature), far above the floor
        _, bundle = bump_scenario
        _, unfloored = check_elliptic_h(bundle.sf, tol=0.0)
        assert bundle.residuals["elliptic_h_rel"] == unfloored["rel"]
