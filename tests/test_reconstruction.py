"""Frame transport, immersion integration, and the end-to-end flow audit."""

from dataclasses import replace
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import CONFIGS
from oracles import _rk4 as complex_form_rk4
from oracles import frame_bundle, integrate_frame_space_by_lines
from smcflab.config import load_config
from smcflab.errors import FrameDriftError, IntegrabilityError, ReconstructionInconsistencyError
from smcflab.fixtures import cliff_fixture, flat_immersion
from smcflab.geometry import Immersion
from smcflab.harness import generate_scenario
from smcflab.geometry import SecondForm, identity_metric, induced_metric, second_form
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
    m = induced_metric(fix.immersion)
    sf = second_form(fix.immersion, (fix.nu1, fix.nu2), m)
    frame = frame_from_normal_basis(fix.immersion, fix.nu1, fix.nu2)
    return fix, m, sf, frame


def static_record(grid, g, A, lam, psi, t):
    return TrajectoryRecord(grid=grid, t=t, g=g.copy(), A=A.copy(), lam=lam.copy(), psi=psi.copy())


class TestSpatialTransport:
    def test_flat_constant_frame_zero_holonomy(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        F, frame = flat_frame(grid)
        m = induced_metric(F)
        sf = SecondForm(m, np.zeros((2, 2) + grid.shape, dtype=complex), np.zeros(grid.shape, dtype=complex))
        seed_F = frame.F_alpha[:, :, :, 0]
        seed_m = frame.m[:, :, 0]
        out, holonomy = integrate_frame_space(seed_F, seed_m, sf, np.zeros((2,) + grid.shape))
        assert holonomy < 1e-13
        assert maxabs(out.F_alpha - frame.F_alpha) < 1e-13

    def test_cliff_reproduces_rotating_frame(self):
        grid = Grid(d=2, n=64, L=2 * np.pi)
        fix, m, sf, frame = cliff_data(grid)
        seed_F = frame.F_alpha[:, :, :, 0]
        seed_m = frame.m[:, :, 0]
        out, holonomy = integrate_frame_space(seed_F, seed_m, sf, np.zeros((2,) + grid.shape))
        assert holonomy <= 1e-10
        assert maxabs(out.F_alpha - frame.F_alpha) < 1e-8
        assert maxabs(out.m - frame.m) < 1e-8

    def test_each_coefficient_transformed_once(self, transform_counts):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        fix, m, sf, frame = cliff_data(grid)
        # the Christoffel symbols and the raised lambda are built on first
        # read, outside the count
        m.gamma_u, sf.lam_up
        counts = {}
        for substeps in (2, 4):
            transform_counts.update(fft=0, ifft=0)
            integrate_frame_space(
                frame.F_alpha[:, :, :, 0],
                frame.m[:, :, 0],
                sf,
                np.zeros((2,) + grid.shape),
                substeps=substeps,
            )
            counts[substeps] = dict(transform_counts)
        # Gamma, lam, lam_up and A go forward once whatever the substep count,
        # and back once each per half substep
        assert counts[4]["fft"] == counts[2]["fft"]
        assert counts[4]["ifft"] - counts[2]["ifft"] == 4 * 2 * (4 - 2)

    @pytest.mark.parametrize("n", [16, 32])
    def test_generator_evaluations_do_not_grow_with_n(self, monkeypatch, n):
        # one RK4 sweep covers every cell: 2 * substeps generators, whatever n
        import smcflab.reconstruction as reconstruction

        calls = []
        generator = reconstruction._generator

        def counting(*args):
            calls.append(1)
            return generator(*args)

        monkeypatch.setattr(reconstruction, "_generator", counting)
        grid = Grid(d=2, n=n, L=2 * np.pi)
        fix, m, sf, frame = cliff_data(grid)
        integrate_frame_space(frame.F_alpha[..., 0], frame.m[..., 0], sf, np.zeros((2,) + grid.shape), substeps=4)
        assert len(calls) == 2 * 4

    def test_nan_coefficient_raises(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        fix, m, sf, frame = cliff_data(grid)
        lam = sf.lam.copy()
        lam[-1, 0, 3, 5] = np.nan
        with pytest.raises(IntegrabilityError):
            integrate_frame_space(
                frame.F_alpha[..., 0], frame.m[..., 0], SecondForm(m, lam, sf.psi), np.zeros((2,) + grid.shape)
            )

    def test_codazzi_violation_raises(self):
        grid = Grid(d=2, n=64, L=2 * np.pi)
        fix, m, sf, frame = cliff_data(grid)
        # transverse warp: each transported line sees a different coefficient
        # scale, so the periodic loops cannot all close
        warp = 1.0 + 0.5 * np.cos(grid.x[0])
        bad = SecondForm(m, sf.lam * warp, sf.psi * warp)
        with pytest.raises(IntegrabilityError):
            integrate_frame_space(
                frame.F_alpha[:, :, :, 0],
                frame.m[:, :, 0],
                bad,
                np.zeros((2,) + grid.shape),
            )


class TestTimeTransport:
    def test_nan_frame_raises(self):
        grid = Grid(d=2, n=8, L=2 * np.pi)
        fix, m, sf, frame = cliff_data(grid)
        from smcflab.reconstruction import _bundle

        rec = static_record(grid, m.g, np.zeros((2,) + grid.shape), sf.lam, sf.psi, 0.0)
        t, K = _bundle(rec.t, *rec.states())
        bad = Frame(grid, frame.F_alpha, frame.m.copy())
        bad.m[0, 2, 3] = np.nan
        with pytest.raises(FrameDriftError):
            transport_frame_time(bad, fix.immersion, (t, K), (t + 1e-3, K))

    def test_nan_tangents_read_as_nan(self):
        grid = Grid(d=2, n=8, L=2 * np.pi)
        _, frame = flat_frame(grid)
        bad = Frame(grid, np.full_like(frame.F_alpha, np.nan), frame.m)
        assert np.isnan(bad.normal_defects["tangent_normal"])

    def test_static_flat_unchanged(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        F, frame = flat_frame(grid)
        zero_lam = np.zeros((2, 2) + grid.shape, dtype=complex)
        zero_psi = np.zeros(grid.shape, dtype=complex)
        recs = [
            static_record(grid, identity_metric(grid), np.zeros((2,) + grid.shape), zero_lam, zero_psi, t)
            for t in (0.0, 0.1)
        ]
        from smcflab.reconstruction import _bundle

        out, imm = transport_frame_time(frame, F, *(_bundle(rec.t, *rec.states()) for rec in recs))
        assert maxabs(out.F_alpha - frame.F_alpha) < 1e-14
        assert maxabs(out.m - frame.m) < 1e-14
        assert maxabs(imm.dev - F.dev) < 1e-14

    @staticmethod
    def _transport(frame, F, recs):
        """The frame and immersion transported along recs, one RK4 step per interval."""
        from smcflab.reconstruction import _bundle

        bundles = [_bundle(rec.t, *rec.states()) for rec in recs]
        for start, end in zip(bundles, bundles[1:]):
            frame, F = transport_frame_time(frame, F, start, end)
        return frame, F

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
        cur, _ = self._transport(frame, fix.immersion, recs)
        r1, r2 = sol.sol(times[-1])
        X, Y = grid.x
        F1_exact = r1 * np.stack([-np.sin(X), np.cos(X), np.zeros_like(X), np.zeros_like(X)])
        assert maxabs(cur.F_alpha[0] - F1_exact) < 1e-8
        assert maxabs(cur.m - frame.m) < 1e-8

    @pytest.mark.parametrize("kind", ["cliff", "bump"])
    def test_matches_the_complex_form(self, kind):
        # the real generator form X' = K X against the complex form of the
        # same frame system, one step at a time along the records, both with
        # the mean of the two records' coefficients at the midpoint
        from smcflab.reconstruction import _bundle

        if kind == "cliff":
            grid = Grid(d=2, n=8, L=2 * np.pi)
            fix, _, _, frame = cliff_data(grid)
            F = fix.immersion
            recs, _ = self._cliff_oracle_records(grid, [0.0, 0.01, 0.02, 0.03])
        else:
            cfg = replace(load_config(CONFIGS / "bump_smalldata.txt"), grid_points_n=32)
            bundle = generate_scenario(cfg)
            frame = frame_from_normal_basis(bundle.immersion, bundle.nu1, bundle.nu2)
            F = bundle.immersion
            recs = picard_evolve(bundle.sf, bundle.gauge, T=3 * cfg.time_step_dt, dt=cfg.time_step_dt).records
        cur = frame
        for rec0, rec1 in zip(recs, recs[1:]):
            b0, b1 = frame_bundle(rec0), frame_bundle(rec1)
            mid = SimpleNamespace(**{k: 0.5 * (v + getattr(b1, k)) for k, v in vars(b0).items()})
            ref_F, ref_m = complex_form_rk4(cur.F_alpha.astype(complex), cur.m, rec1.t - rec0.t, b0, mid, b1)
            cur, F = transport_frame_time(cur, F, *(_bundle(rec.t, *rec.states()) for rec in (rec0, rec1)))
            assert maxabs(ref_F.imag) == 0.0
            assert maxabs(cur.F_alpha - ref_F.real) <= 1e-15 * max(1.0, maxabs(ref_F))
            assert maxabs(cur.m - ref_m) <= 1e-15 * max(1.0, maxabs(ref_m))

    def test_metric_consistency_fourth_order_on_the_cliff(self):
        # on the cliff the frame generator is constant in time (M = +-1/(r1 r2),
        # c = 0, B = 0, and r1 r2 is conserved), so the linear generator between
        # records is exact and the frame's metric consistency shows RK4's own
        # fourth order
        grid = Grid(d=2, n=8, L=2 * np.pi)
        fix, m, sf, frame = cliff_data(grid)
        drifts = {}
        for dt in (0.02, 0.01):
            times = np.arange(0, 0.08 + dt / 2, dt)
            recs, _ = self._cliff_oracle_records(grid, times)
            cur, _ = self._transport(frame, fix.immersion, recs)
            defects = cur.invariant_defects(recs[-1].g)
            # skew structure protects the orthogonality relations outright
            assert max(defects["m_norm"], defects["m_null"], defects["tangent_normal"]) < 1e-12
            drifts[dt] = defects["metric"]
        assert drifts[0.02] <= 5e-10
        assert drifts[0.02] / drifts[0.01] >= 12.0

    def test_immersion_radii_match_the_ode_at_second_order(self):
        # the immersion is the last row of the frame system; its velocity
        # -Im(psi mbar) is quadratic in time between records, so the linear
        # generator leaves a second-order error
        grid = Grid(d=2, n=8, L=2 * np.pi)
        fix, m, sf, frame = cliff_data(grid)
        errs = {}
        for dt in (0.02, 0.01):
            times = np.arange(0, 0.08 + dt / 2, dt)
            recs, sol = self._cliff_oracle_records(grid, times)
            _, imm = self._transport(frame, fix.immersion, recs)
            r1, r2 = sol.sol(times[-1])
            errs[dt] = max(
                maxabs(np.hypot(imm.dev[0], imm.dev[1]) - r1), maxabs(np.hypot(imm.dev[2], imm.dev[3]) - r2)
            )
        assert errs[0.01] <= 1.4e-6
        assert errs[0.02] / errs[0.01] >= 3.5

    def test_a_nan_immersion_never_reaches_the_frame(self):
        grid = Grid(d=2, n=8, L=2 * np.pi)
        fix, m, sf, frame = cliff_data(grid)
        recs, _ = self._cliff_oracle_records(grid, [0.0, 0.01])
        zero = Immersion(grid, np.zeros_like(fix.immersion.dev), graph=False)
        bad = Immersion(grid, fix.immersion.dev.copy(), graph=False)
        bad.dev[1, 3, 5] = np.nan
        ref, _ = self._transport(frame, zero, recs)
        out, imm = self._transport(frame, bad, recs)
        assert np.isnan(imm.dev[1, 3, 5])
        assert np.array_equal(out.F_alpha, ref.F_alpha) and np.array_equal(out.m, ref.m)

    def test_unitarity_drift_fourth_order_pointwise(self):
        # synthetic temporal connection: m rotates, and the RK4 unitarity
        # defect of the rotation scales at fourth order
        grid = Grid(d=2, n=8, L=2 * np.pi)
        F, frame = flat_frame(grid)
        zero_lam = np.zeros((2, 2) + grid.shape, dtype=complex)
        zero_psi = np.zeros(grid.shape, dtype=complex)

        def bundle_with_B(t):
            rec = static_record(
                grid, identity_metric(grid), np.zeros((2,) + grid.shape), zero_lam, zero_psi, t
            )
            from smcflab.reconstruction import _bundle

            # B enters the generator as the rotation block of (Re m, Im m)
            t, K = _bundle(rec.t, *rec.states())
            K[2, 3], K[3, 2] = 2.0, -2.0
            return t, K

        drifts = {}
        for dt in (0.05, 0.025):
            cur = frame
            steps = int(round(0.4 / dt))
            for i in range(steps):
                cur, F = transport_frame_time(cur, F, bundle_with_B(i * dt), bundle_with_B((i + 1) * dt), drift_tol=1.0)
            drifts[dt] = cur.normal_defects["m_norm"]
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
        # N records need N bundles, each shared by the two steps it bounds;
        # the flow audit reads the records themselves
        import smcflab.reconstruction as reconstruction

        grid = Grid(d=2, n=8, L=2 * np.pi)
        fix, m, sf, frame = cliff_data(grid)
        gauge = gauge_state_from(grid, m.g, np.zeros((2,) + grid.shape))
        traj = picard_evolve(sf, gauge, T=0.01, dt=1e-3, snapshot_every=2)
        calls = []

        def counting(t, s, sf):
            calls.append(t)
            return bundle(t, s, sf)

        bundle = reconstruction._bundle
        monkeypatch.setattr(reconstruction, "_bundle", counting)
        reconstruct(traj, frame, fix.immersion)
        assert len(traj) == 6
        assert len(calls) == len(traj)

    def test_frame_defects_taken_once_per_frame(self, monkeypatch):
        # the drift check after each transport step and the audit share one
        # set of defects per frame; the lists keep every frame alive, so the
        # ids below are distinct
        grid = Grid(d=2, n=8, L=2 * np.pi)
        fix, m, sf, frame = cliff_data(grid)
        gauge = gauge_state_from(grid, m.g, np.zeros((2,) + grid.shape))
        traj = picard_evolve(sf, gauge, T=0.01, dt=1e-3, snapshot_every=2)
        calls, builds = [], []
        defects, build = Frame.invariant_defects, Frame.normal_defects.func

        def counting(self, g):
            calls.append(self)
            return defects(self, g)

        def counting_build(self):
            builds.append(self)
            return build(self)

        normal_defects = cached_property(counting_build)
        normal_defects.__set_name__(Frame, "normal_defects")
        monkeypatch.setattr(Frame, "invariant_defects", counting)
        monkeypatch.setattr(Frame, "normal_defects", normal_defects)
        reconstruct(traj, frame, fix.immersion)
        assert len(traj) == 6
        assert len(calls) == 6 and len(builds) == 6
        assert len({id(f) for f in calls}) == 6 and {id(f) for f in calls} == {id(f) for f in builds}

    @staticmethod
    def _bump32():
        """The d = 2, n = 32 bump over 8 steps: (trajectory, frame, immersion)."""
        cfg = replace(load_config(CONFIGS / "bump_smalldata.txt"), grid_points_n=32)
        bundle = generate_scenario(cfg)
        traj = picard_evolve(bundle.sf, bundle.gauge, T=cfg.final_time_T, dt=cfg.time_step_dt)
        return traj, frame_from_normal_basis(bundle.immersion, bundle.nu1, bundle.nu2), bundle.immersion

    def test_each_rebuilt_immersion_differentiated_once(self, monkeypatch):
        # the audit takes a record's tangents and second partials from one
        # grid.grad_hessian, and the flow residuals build the metric from them
        traj, frame, F0 = self._bump32()
        calls = {"derivatives": 0, "tangents": 0}

        def counting(name):
            method = getattr(Immersion, name)

            def wrapped(self):
                calls[name] += 1
                return method(self)

            return wrapped

        for name in calls:
            monkeypatch.setattr(Immersion, name, counting(name))
        reconstruct(traj, frame, F0)
        assert len(traj) == 9
        assert calls == {"derivatives": 9, "tangents": 0}

    def test_working_set_stays_bounded(self, traced_peak):
        # the d = 2, n = 32 bump over 8 steps: each record is audited once the
        # next immersion exists, and neither frames nor bundles outlive their
        # use; 1.25x the traced peak measured then (see CHANGES.md for the value before)
        traj, frame, F0 = self._bump32()
        result, peak = traced_peak(lambda: reconstruct(traj, frame, F0))
        assert len(result.immersions) == len(traj) == 9
        # measured 2.51 MB
        assert peak <= 3.1e6

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
        result = reconstruct(traj, frame, F)
        for imm in result.immersions:
            assert maxabs(imm.dev) == 0.0
        assert result.holonomy < 1e-13
        for r in result.smcf_residual:
            assert (not np.isfinite(r)) or r < 1e-13
        for r in result.identity_residual:
            assert (not np.isfinite(r)) or r < 1e-13

    def test_nan_immersion_raises(self):
        grid = Grid(d=2, n=16, L=2 * np.pi)
        F, frame = flat_frame(grid)
        zero_lam = np.zeros((2, 2) + grid.shape, dtype=complex)
        zero_psi = np.zeros(grid.shape, dtype=complex)
        recs = [
            static_record(grid, identity_metric(grid), np.zeros((2,) + grid.shape), zero_lam, zero_psi, 0.05 * i)
            for i in range(2)
        ]
        # two records: no interior one, so only the consistency gap sees the NaN
        dev = F.dev.copy()
        dev[0, 4, 4] = np.nan
        with pytest.raises(ReconstructionInconsistencyError):
            reconstruct(Trajectory(grid=grid, records=recs), frame, Immersion(grid, dev, graph=F.graph))

    def test_csv_written(self, tmp_path):
        grid, traj, result = self._run(T=0.02)
        path = tmp_path / "recon.csv"
        write_reconstruction_csv(path, result)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,name,value"
        assert any("smcf_residual_l2" in line for line in lines)


def _scenario(**overrides):
    cfg = replace(load_config(CONFIGS / "bump_smalldata.txt"), **overrides)
    bundle = generate_scenario(cfg)
    frame = frame_from_normal_basis(bundle.immersion, bundle.nu1, bundle.nu2)
    return bundle.sf, bundle.gauge.A, frame


def _cliff_scenario(n):
    grid = Grid(d=2, n=n, L=2 * np.pi)
    fix, m, sf, frame = cliff_data(grid)
    return sf, np.zeros((2,) + grid.shape), frame


AGREEMENT_CASES = {
    "cliff-n16": lambda: _cliff_scenario(16),
    "cliff-n64": lambda: _cliff_scenario(64),
    "bump-d2-n32": lambda: _scenario(grid_points_n=32),
    "flat-d1-n16": lambda: _scenario(scenario_kind="flat", grid_dimension_d=1, grid_points_n=16),
    "bump-d1-n16": lambda: _scenario(grid_dimension_d=1, grid_points_n=16),
    "flat-d3-n16": lambda: _scenario(scenario_kind="flat", grid_dimension_d=3, grid_points_n=16, envelope_s=2.5),
    "bump-d3-n16": lambda: _scenario(grid_dimension_d=3, grid_points_n=16, envelope_s=2.5),
}


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_cell_propagators_match_the_line_by_line_transport(case):
    sf, A, frame = AGREEMENT_CASES[case]()
    args = (frame.F_alpha[..., 0], frame.m[..., 0], sf, A)
    out, holonomy = integrate_frame_space(*args)
    ref, ref_holonomy = integrate_frame_space_by_lines(*args)
    assert maxabs(out.F_alpha - ref.F_alpha) <= 1e-12
    assert maxabs(out.m - ref.m) <= 1e-12
    assert abs(holonomy - ref_holonomy) <= 1e-12
