"""Compatibility-identity monitors on fixtures and short trajectories."""

import numpy as np

from normal_frames import graph_normal_bundle
from smcflab.constraints import (
    constraint_report,
    constraint_reports,
    residual_T1,
    residual_T2,
    residual_T3,
    residual_T4,
    residual_T5,
    residual_metric_evolution,
    write_reports_csv,
)
from smcflab.fixtures import bump_immersion, cliff_fixture, flat_immersion
from smcflab.geometry import (
    SecondForm,
    christoffel,
    curvature,
    gauge_rotate,
    identity_metric,
    induced_metric,
    second_form,
)
from smcflab.grid import Grid
from smcflab.parabolic import gauge_state_from
from smcflab.schrodinger import picard_evolve
from smcflab.trajectory import Trajectory, TrajectoryRecord


def maxabs(x):
    return float(np.max(np.abs(x)))


def _smooth_gauge_angle(grid, seed, amplitude=0.05, kmax=1.5):
    """Strictly band-limited real angle; its phase harmonics stay deep inside
    the 2/3 band so gauge rotation commutes with dealiasing to high accuracy."""
    rng = np.random.default_rng(seed)
    hat = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    hat[grid.k_mag > kmax] = 0.0
    theta = grid.ifft(hat).real
    return amplitude * theta / maxabs(theta)


def flat_bundle(grid):
    F = flat_immersion(grid)
    m = curvature(christoffel(induced_metric(F)))
    sf = SecondForm(
        grid,
        np.zeros((2, 2) + grid.shape, dtype=complex),
        np.zeros(grid.shape, dtype=complex),
    )
    return m, sf, np.zeros((2,) + grid.shape)


def cliff_bundle(grid, r=1.0):
    fix = cliff_fixture(grid, r)
    m = curvature(christoffel(induced_metric(fix.immersion)))
    sf = second_form(fix.immersion, (fix.nu1, fix.nu2), m)
    return m, sf, np.zeros((2,) + grid.shape)


def bump_bundle(grid, eps=0.05, delta=0.5, width=None):
    fix = bump_immersion(grid, eps=eps, delta=delta, width=width)
    F = fix.immersion
    m = curvature(christoffel(induced_metric(F)))
    nu1, nu2, A = graph_normal_bundle(F, m)
    sf = second_form(F, (nu1, nu2), m)
    return m, sf, A


class TestStaticResiduals:
    def test_flat_all_zero(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        m, sf, A = flat_bundle(grid)
        for fn, args in (
            (residual_T1, (m, sf)),
            (residual_T2, (m, sf)),
            (residual_T3, (m, sf, A)),
            (residual_T4, (m, sf, A)),
        ):
            res, norms = fn(*args)
            assert norms.l2 < 1e-12

    def test_cliff_analytic_zeros(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        m, sf, A = cliff_bundle(grid)
        assert residual_T1(m, sf)[1].l2 < 1e-10
        assert residual_T2(m, sf)[1].l2 < 1e-10
        assert residual_T3(m, sf, A)[1].l2 < 1e-10
        assert residual_T4(m, sf, A)[1].l2 < 1e-10

    def test_bump_residuals_at_truncation(self):
        grid = Grid(d=2, n=64, L=16.0)
        m, sf, A = bump_bundle(grid, eps=0.05)
        for fn, args in (
            (residual_T1, (m, sf)),
            (residual_T2, (m, sf)),
            (residual_T3, (m, sf, A)),
            (residual_T4, (m, sf, A)),
        ):
            _, norms = fn(*args)
            assert norms.rel < 1e-6

    def test_bump_spectral_decay_with_resolution(self):
        # a bump marginally resolved at n=32 must drop by >= 4 orders at n=64
        rels = {}
        for n in (32, 64):
            grid = Grid(d=2, n=n, L=16.0)
            m, sf, A = bump_bundle(grid, eps=0.05, width=1.3)
            rels[n] = max(
                residual_T1(m, sf)[1].rel,
                residual_T2(m, sf)[1].rel,
            )
        assert rels[32] > 1e4 * rels[64]

    def test_t3_antisymmetric_by_construction(self):
        grid = Grid(d=2, n=32, L=16.0)
        m, sf, A = bump_bundle(grid)
        res, _ = residual_T3(m, sf, A)
        assert maxabs(res + np.swapaxes(res, 0, 1)) < 1e-15

    def test_gauge_invariance_of_norms(self):
        grid = Grid(d=2, n=64, L=16.0)
        m, sf, A = bump_bundle(grid)
        theta = _smooth_gauge_angle(grid, seed=4)
        sf2, A2, _ = gauge_rotate(sf, A, None, theta)
        for fn, args, args2 in (
            (residual_T1, (m, sf), (m, sf2)),
            (residual_T2, (m, sf), (m, sf2)),
            (residual_T3, (m, sf, A), (m, sf2, A2)),
            (residual_T4, (m, sf, A), (m, sf2, A2)),
        ):
            a = fn(*args)[1].l2
            b = fn(*args2)[1].l2
            assert abs(a - b) < 1e-9

    def test_gauge_invariance_on_violated_data(self):
        # corrupt lambda so the residuals are far above truncation: the norms
        # must still agree under a gauge rotation, now in relative terms
        grid = Grid(d=2, n=64, L=16.0)
        m, sf, A = bump_bundle(grid)
        # spatially varying distortion: breaks every identity including Codazzi
        warp = 1.0 + 0.3 * np.cos(2 * np.pi * grid.x[0] / grid.L)
        lam_bad = sf.lam * warp * (1.0 + 0.5j)
        sf_bad = SecondForm.from_lambda(grid, lam_bad, m)
        theta = _smooth_gauge_angle(grid, seed=5)
        sf2, A2, _ = gauge_rotate(sf_bad, A, None, theta)
        for fn, args, args2 in (
            (residual_T1, (m, sf_bad), (m, sf2)),
            (residual_T2, (m, sf_bad), (m, sf2)),
            (residual_T3, (m, sf_bad, A), (m, sf2, A2)),
            (residual_T4, (m, sf_bad, A), (m, sf2, A2)),
        ):
            a = fn(*args)[1].l2
            b = fn(*args2)[1].l2
            assert abs(a - b) < 1e-9 * a


class TestTimeResiduals:
    def test_static_flat_trajectory(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        recs = [
            TrajectoryRecord(
                t=0.1 * i,
                g=identity_metric(grid),
                A=np.zeros((2,) + grid.shape),
                lam=np.zeros((2, 2) + grid.shape, dtype=complex),
                psi=np.zeros(grid.shape, dtype=complex),
            )
            for i in range(3)
        ]
        res, norms = residual_T5(grid, recs[0], recs[1], recs[2])
        assert norms.l2 < 1e-13
        res, norms = residual_metric_evolution(grid, recs[0], recs[1], recs[2])
        assert norms.l2 < 1e-13

    def _cliff_traj(self, dt, T=0.04):
        grid = Grid(d=2, n=8, L=2 * np.pi)
        fix = cliff_fixture(grid, 1.0)
        m = induced_metric(fix.immersion)
        sf = second_form(fix.immersion, (fix.nu1, fix.nu2), m)
        gauge = gauge_state_from(grid, m.g, np.zeros((2,) + grid.shape))
        return picard_evolve(sf, gauge, T=T, dt=dt, snapshot_every=1)

    def test_cliff_t5_vanishes(self):
        traj = self._cliff_traj(2e-3)
        mid = len(traj) // 2
        _, norms = residual_T5(traj.grid, traj[mid - 1], traj[mid], traj[mid + 1])
        assert norms.l2 < 1e-10

    def test_cliff_metric_evolution_small_and_second_order(self):
        errs = {}
        for dt in (5e-4, 2.5e-4):
            traj = self._cliff_traj(dt)
            mid = len(traj) // 2
            _, norms = residual_metric_evolution(traj.grid, traj[mid - 1], traj[mid], traj[mid + 1])
            errs[dt] = norms
        # homogeneous data: the stepper-vs-identity agreement is pointwise
        assert errs[2.5e-4].linf < 1e-6
        ratio = errs[5e-4].l2 / errs[2.5e-4].l2
        assert 2.5 < ratio < 6.0

    def test_t5_monitor_centered_difference_order(self):
        # synthetic trajectory with analytic A(t): the monitor's defect is the
        # centered-difference truncation, order dt^2
        grid = Grid(d=2, n=16, L=2 * np.pi)
        X, _ = grid.x
        A0 = np.stack([np.sin(X), np.cos(X)])

        def rec(t, dt_scale):
            a = np.exp(np.sin(3 * t))
            return TrajectoryRecord(
                t=t,
                g=identity_metric(grid),
                A=a * A0,
                lam=np.zeros((2, 2) + grid.shape, dtype=complex),
                psi=np.zeros(grid.shape, dtype=complex),
            )

        errs = []
        for dt in (0.02, 0.01):
            r = [rec(0.3 - dt, dt), rec(0.3, dt), rec(0.3 + dt, dt)]
            res, _ = residual_T5(grid, r[0], r[1], r[2])
            # subtract the exact d_t A - grad B (B = div A here is nonzero)
            s = r[1].gauge(grid)
            exact_dtA = 3 * np.cos(3 * 0.3) * np.exp(np.sin(3 * 0.3)) * A0
            defect = res - (exact_dtA - grid.grad(s.B))
            errs.append(maxabs(defect))
        assert 3.0 < errs[0] / errs[1] < 5.0


class TestReports:
    def test_report_rows_and_csv(self, tmp_path):
        traj = TestTimeResiduals()._cliff_traj(2e-3, T=0.01)
        reports = constraint_reports(traj)
        assert set(reports[0].entries) == {"T1", "T2", "T3", "T4"}
        mid = len(reports) // 2
        assert "T5" in reports[mid].entries
        assert "metric_evolution" in reports[mid].entries
        for rep in reports:
            for _, norms in rep.rows():
                assert np.isfinite(norms.l2) and norms.l2 >= 0
                assert np.isfinite(norms.linf) and norms.linf >= 0
        path = tmp_path / "constraints.csv"
        write_reports_csv(path, reports)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,name,l2,linf,rel,scale"
        assert len(lines) == 1 + sum(len(r.entries) for r in reports)
