"""Frame transport, immersion integration, and the end-to-end flow audit."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from smcflab.errors import IntegrabilityError
from smcflab.fixtures import cliff_fixture, flat_immersion
from smcflab.geometry import SecondForm, christoffel, identity_metric, induced_metric, second_form
from smcflab.grid import Grid
from smcflab.parabolic import gauge_state_from
from smcflab.reconstruction import (
    Frame,
    frame_from_normal_basis,
    integrate_frame_space,
    reconstruct,
    transport_frame_time,
    write_reconstruction_csv,
)
from smcflab.schrodinger import picard_evolve
from smcflab.trajectory import Trajectory, TrajectoryRecord


def maxabs(x):
    return float(np.max(np.abs(x)))


def flat_frame(grid):
    F = flat_immersion(grid)
    nu1 = np.zeros((4,) + grid.shape)
    nu2 = np.zeros((4,) + grid.shape)
    nu1[2] = 1.0
    nu2[3] = 1.0
    return F, frame_from_normal_basis(F, nu1, nu2)


def cliff_data(grid, r=1.0):
    fix = cliff_fixture(grid, r)
    m = christoffel(induced_metric(fix.immersion))
    sf = second_form(fix.immersion, (fix.nu1, fix.nu2), m)
    frame = frame_from_normal_basis(fix.immersion, fix.nu1, fix.nu2)
    return fix, m, sf, frame


def static_record(grid, g, A, lam, psi, t):
    return TrajectoryRecord(t=t, g=g.copy(), A=A.copy(), lam=lam.copy(), psi=psi.copy())


class TestSpatialTransport:
    def test_flat_constant_frame_zero_holonomy(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        F, frame = flat_frame(grid)
        m = christoffel(induced_metric(F))
        sf = SecondForm(grid, np.zeros((2, 2) + grid.shape, dtype=complex), np.zeros(grid.shape, dtype=complex))
        seed_F = frame.F_alpha[:, :, :, 0]
        seed_m = frame.m[:, :, 0]
        out, holonomy = integrate_frame_space(
            seed_F, seed_m, m, sf, np.zeros((2,) + grid.shape), axis=1
        )
        assert holonomy < 1e-13
        assert maxabs(out.F_alpha - frame.F_alpha) < 1e-13

    def test_cliff_reproduces_rotating_frame(self):
        grid = Grid(d=2, n=64, L=2 * np.pi)
        fix, m, sf, frame = cliff_data(grid)
        seed_F = frame.F_alpha[:, :, :, 0]
        seed_m = frame.m[:, :, 0]
        out, holonomy = integrate_frame_space(
            seed_F, seed_m, m, sf, np.zeros((2,) + grid.shape), axis=1
        )
        assert holonomy <= 1e-10
        assert maxabs(out.F_alpha - frame.F_alpha) < 1e-8
        assert maxabs(out.m - frame.m) < 1e-8

    def test_codazzi_violation_raises(self):
        grid = Grid(d=2, n=64, L=2 * np.pi)
        fix, m, sf, frame = cliff_data(grid)
        # transverse warp: each transported line sees a different coefficient
        # scale, so the periodic loops cannot all close
        warp = 1.0 + 0.5 * np.cos(grid.x[0])
        bad = SecondForm(grid, sf.lam * warp, sf.psi * warp)
        with pytest.raises(IntegrabilityError):
            integrate_frame_space(
                frame.F_alpha[:, :, :, 0],
                frame.m[:, :, 0],
                m,
                bad,
                np.zeros((2,) + grid.shape),
                axis=1,
            )


class TestTimeTransport:
    def test_static_flat_unchanged(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        F, frame = flat_frame(grid)
        zero_lam = np.zeros((2, 2) + grid.shape, dtype=complex)
        zero_psi = np.zeros(grid.shape, dtype=complex)
        recs = [
            static_record(grid, identity_metric(grid), np.zeros((2,) + grid.shape), zero_lam, zero_psi, t)
            for t in (0.0, 0.05, 0.1)
        ]
        from smcflab.reconstruction import _bundle, _bundle_midpoint

        bundles = (_bundle(grid, recs[0]), _bundle_midpoint(grid, recs[0], recs[2]), _bundle(grid, recs[2]))
        out = transport_frame_time(frame, bundles, 0.1)
        assert maxabs(out.F_alpha - frame.F_alpha) < 1e-14
        assert maxabs(out.m - frame.m) < 1e-14

    def _cliff_oracle_records(self, grid, times):
        sol = solve_ivp(
            lambda t, r: [1.0 / r[1], -1.0 / r[0]],
            (0.0, max(times) + 1e-9),
            [1.0, 1.0],
            rtol=1e-12,
            atol=1e-12,
            dense_output=True,
        )
        recs = []
        for t in times:
            r1, r2 = sol.sol(t)
            g = np.zeros((2, 2) + grid.shape)
            g[0, 0] = r1**2
            g[1, 1] = r2**2
            lam = np.zeros((2, 2) + grid.shape, dtype=complex)
            lam[0, 0] = -r1
            lam[1, 1] = -1j * r2
            psi = np.full(grid.shape, -1.0 / r1 - 1j / r2, dtype=complex)
            recs.append(static_record(grid, g, np.zeros((2,) + grid.shape), lam, psi, t))
        return recs, sol

    def test_cliff_frame_matches_oracle(self):
        grid = Grid(d=2, n=8, L=2 * np.pi)
        fix, m, sf, frame = cliff_data(grid)
        dt = 5e-4
        times = np.arange(0, 0.1 + dt / 2, dt)
        recs, sol = self._cliff_oracle_records(grid, times)
        from smcflab.reconstruction import _bundle, _bundle_midpoint

        cur = frame
        for i in range(len(recs) - 1):
            bundles = (
                _bundle(grid, recs[i]),
                _bundle_midpoint(grid, recs[i], recs[i + 1]),
                _bundle(grid, recs[i + 1]),
            )
            cur = transport_frame_time(cur, bundles, dt)
        r1, r2 = sol.sol(times[-1])
        X, Y = grid.x
        F1_exact = r1 * np.stack([-np.sin(X), np.cos(X), np.zeros_like(X), np.zeros_like(X)])
        assert maxabs(cur.F_alpha[0] - F1_exact) < 1e-8
        assert maxabs(cur.m - frame.m) < 1e-8

    def test_metric_consistency_second_order_in_snapshot_spacing(self):
        # the coefficient midpoints come from record averaging, so the frame's
        # metric consistency converges at second order
        grid = Grid(d=2, n=8, L=2 * np.pi)
        fix, m, sf, frame = cliff_data(grid)
        from smcflab.reconstruction import _bundle, _bundle_midpoint

        drifts = {}
        for dt in (0.02, 0.01):
            times = np.arange(0, 0.08 + dt / 2, dt)
            recs, _ = self._cliff_oracle_records(grid, times)
            cur = frame
            for i in range(len(recs) - 1):
                bundles = (
                    _bundle(grid, recs[i]),
                    _bundle_midpoint(grid, recs[i], recs[i + 1]),
                    _bundle(grid, recs[i + 1]),
                )
                cur = transport_frame_time(cur, bundles, dt)
            defects = cur.invariant_defects(recs[-1].g)
            # skew structure protects the orthogonality relations outright
            assert max(defects["m_norm"], defects["m_null"], defects["tangent_normal"]) < 1e-12
            drifts[dt] = defects["metric"]
        ratio = drifts[0.02] / drifts[0.01]
        assert 3.0 < ratio < 6.0

    def test_unitarity_drift_fourth_order_pointwise(self):
        # synthetic temporal connection: m rotates, and the RK4 unitarity
        # defect of the rotation scales at fourth order
        grid = Grid(d=2, n=8, L=2 * np.pi)
        _, frame = flat_frame(grid)
        zero_lam = np.zeros((2, 2) + grid.shape, dtype=complex)
        zero_psi = np.zeros(grid.shape, dtype=complex)

        def bundle_with_B(t):
            rec = static_record(
                grid, identity_metric(grid), np.zeros((2,) + grid.shape), zero_lam, zero_psi, t
            )
            from smcflab.reconstruction import _bundle

            b = _bundle(grid, rec)
            b.B = np.full(grid.shape, 2.0)
            return b

        drifts = {}
        for dt in (0.05, 0.025):
            cur = frame
            steps = int(round(0.4 / dt))
            for i in range(steps):
                b = bundle_with_B(i * dt)
                cur = transport_frame_time(cur, (b, b, b), dt, drift_tol=1.0)
            drifts[dt] = cur.invariant_defects()["m_norm"]
        ratio = drifts[0.05] / drifts[0.025]
        assert ratio > 12.0


class TestEndToEnd:
    def _run(self, T=0.1, dt=1e-3):
        grid = Grid(d=2, n=8, L=2 * np.pi)
        fix, m, sf, frame = cliff_data(grid)
        gauge = gauge_state_from(grid, m.g, np.zeros((2,) + grid.shape))
        traj = picard_evolve(sf, gauge, T=T, dt=dt, snapshot_every=1)
        result = reconstruct(traj, frame, fix.immersion)
        return grid, traj, result

    def test_each_bundle_built_once(self, monkeypatch):
        # N records need N slice bundles and N - 1 midpoint bundles; the flow
        # audit and the displacement read the records themselves
        import smcflab.reconstruction as reconstruction

        grid = Grid(d=2, n=8, L=2 * np.pi)
        fix, m, sf, frame = cliff_data(grid)
        gauge = gauge_state_from(grid, m.g, np.zeros((2,) + grid.shape))
        traj = picard_evolve(sf, gauge, T=0.01, dt=1e-3, snapshot_every=2)
        calls = []

        def counting(grid, rec):
            calls.append(rec.t)
            return bundle(grid, rec)

        bundle = reconstruction._bundle
        monkeypatch.setattr(reconstruction, "_bundle", counting)
        reconstruct(traj, frame, fix.immersion)
        assert len(traj) == 6
        assert len(calls) == 2 * len(traj) - 1

    def test_cliff_radii_from_immersion(self):
        grid, traj, result = self._run()
        sol = solve_ivp(
            lambda t, r: [1.0 / r[1], -1.0 / r[0]],
            (0.0, 0.1),
            [1.0, 1.0],
            rtol=1e-12,
            atol=1e-12,
            dense_output=True,
        )
        for t, imm in zip(result.times, result.immersions):
            r1 = np.sqrt(imm.dev[0] ** 2 + imm.dev[1] ** 2)
            r2 = np.sqrt(imm.dev[2] ** 2 + imm.dev[3] ** 2)
            r1o, r2o = sol.sol(t)
            assert maxabs(r1 - r1o) < 1e-6
            assert maxabs(r2 - r2o) < 1e-6
            assert maxabs(r1 * r2 - 1.0) < 1e-6

    def test_closures_and_flow_residual(self):
        grid, traj, result = self._run()
        dt = traj.meta["dt"]
        tol = 10 * (dt**2 + 1e-10)
        for i in range(len(result.times)):
            assert result.lambda_closure[i] <= tol
            assert result.metric_closure[i] <= tol
            assert result.consistency_gap[i] <= tol
        mids = [r for r in result.smcf_residual if np.isfinite(r)]
        assert max(mids) < 1e-5
        idents = [r for r in result.identity_residual if np.isfinite(r)]
        assert max(idents) < 1e-5

    def test_zero_data_immersion_static(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        F, frame = flat_frame(grid)
        zero_lam = np.zeros((2, 2) + grid.shape, dtype=complex)
        zero_psi = np.zeros(grid.shape, dtype=complex)
        recs = [
            static_record(grid, identity_metric(grid), np.zeros((2,) + grid.shape), zero_lam, zero_psi, 0.05 * i)
            for i in range(5)
        ]
        traj = Trajectory(grid=grid, records=recs)
        result = reconstruct(traj, frame, F, spatial_audit=True)
        for imm in result.immersions:
            assert maxabs(imm.dev) == 0.0
        assert result.holonomy < 1e-13
        for r in result.smcf_residual:
            assert (not np.isfinite(r)) or r < 1e-13
        for r in result.identity_residual:
            assert (not np.isfinite(r)) or r < 1e-13

    def test_csv_written(self, tmp_path):
        grid, traj, result = self._run(T=0.02)
        path = tmp_path / "recon.csv"
        write_reconstruction_csv(path, result)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,name,value"
        assert any("smcf_residual_l2" in line for line in lines)
