"""Acceptance suite: one test and one printed pass line per criterion.

Desk scale throughout: d = 2, n in {8, 16, 32, 64, 128}, T <= 0.25.  Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from smcflab import calibration
from normal_frames import graph_normal_bundle
from smcflab.config import RunConfig
from smcflab.constraints import (
    constraint_reports,
    residual_T1,
    residual_T2,
    residual_T3,
    residual_T4,
)
from smcflab.fixtures import bump_immersion, cliff_fixture, flat_immersion
from smcflab.geometry import (
    SecondForm,
    christoffel,
    curvature,
    induced_metric,
    second_form,
)
from smcflab.grid import Grid, GridField
from smcflab.harness import generate_scenario
from smcflab.norms import (
    EnvelopeParams,
    frequency_envelope,
    sobolev_norm,
    y0_lo_norm_upper,
)
from smcflab.parabolic import gauge_state_from
from smcflab.reconstruction import frame_from_normal_basis, reconstruct
from smcflab.schrodinger import picard_evolve


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def static_bundle(kind, n=16, **kw):
    grid = Grid(d=2, n=n, L=kw.get("L", 2 * np.pi))
    if kind == "flat":
        F = flat_immersion(grid)
        m = curvature(christoffel(induced_metric(F)))
        sf = SecondForm(
            grid,
            np.zeros((2, 2) + grid.shape, dtype=complex),
            np.zeros(grid.shape, dtype=complex),
        )
        return grid, m, sf, np.zeros((2,) + grid.shape)
    if kind == "cliff":
        fix = cliff_fixture(grid, 1.0)
        m = curvature(christoffel(induced_metric(fix.immersion)))
        sf = second_form(fix.immersion, (fix.nu1, fix.nu2), m)
        return grid, m, sf, np.zeros((2,) + grid.shape)
    F = bump_immersion(grid, kw["eps"], 0.5, width=kw.get("width")).immersion
    m = curvature(christoffel(induced_metric(F)))
    nu1, nu2, A = graph_normal_bundle(F, m)
    sf = second_form(F, (nu1, nu2), m)
    return grid, m, sf, A


def run_bump(n, dt_scale=1.0, T=0.25, eps=0.02, sign="plus", coupling="perstep", sweeps=3):
    cfg = RunConfig(
        scenario_kind="bump",
        bump_epsilon=eps,
        grid_points_n=n,
        box_length_L=16.0,
        final_time_T=T,
        sign_variant=sign,
        coupling_mode=coupling,
        picard_sweeps=sweeps,
        snapshot_every_steps=1,
    ).resolve()
    dx64 = 16.0 / 64
    cfg = replace(cfg, time_step_dt=0.5 * dx64 * dx64 * dt_scale).validate()
    bundle = generate_scenario(cfg)
    traj = picard_evolve(
        bundle.sf,
        bundle.gauge,
        T=cfg.final_time_T,
        dt=cfg.time_step_dt,
        sweeps=cfg.picard_sweeps,
        mode=cfg.coupling_mode,
        sign_variant=cfg.sign_variant,
        snapshot_every=cfg.snapshot_every_steps,
    )
    return cfg, bundle, traj


@pytest.fixture(scope="module")
def coarse_run():
    return run_bump(n=64, dt_scale=1.0)


@pytest.fixture(scope="module")
def fine_run():
    return run_bump(n=128, dt_scale=0.5)


MONITORS = ("T1", "T2", "T3", "T4", "T5", "metric_evolution")


def residual_table(traj):
    reports = constraint_reports(traj)
    out = {}
    for name in MONITORS:
        vals = [rep.entries[name].rel for rep in reports if name in rep.entries]
        out[name] = (vals[0], max(vals))
    return out


class TestAcceptance:
    def test_criterion_1_geometry_identity_suite(self):
        worst_exact = 0.0
        for kind in ("flat", "cliff"):
            grid, m, sf, A = static_bundle(kind)
            for fn, args in (
                (residual_T1, (m, sf)),
                (residual_T2, (m, sf)),
                (residual_T3, (m, sf, A)),
                (residual_T4, (m, sf, A)),
            ):
                worst_exact = max(worst_exact, fn(*args)[1].l2)
        rels = {}
        for n in (64, 128):
            grid, m, sf, A = static_bundle("bump", n=n, L=16.0, eps=0.1, width=0.8)
            rels[n] = [
                residual_T1(m, sf)[1].rel,
                residual_T2(m, sf)[1].rel,
                residual_T3(m, sf, A)[1].rel,
                residual_T4(m, sf, A)[1].rel,
            ]
        decay = min(rels[64][i] / max(rels[128][i], 1e-300) for i in range(4))
        ok = worst_exact <= 1e-10 and decay >= 1e4
        report(
            1,
            ok,
            f"flat/cliff identities at {worst_exact:.1e} (<=1e-10), "
            f"bump residual decay x{decay:.1e} (>=1e4) between n=64 and n=128",
        )

    def test_criterion_2_cliff_ode_oracle(self):
        grid = Grid(d=2, n=8, L=2 * np.pi)
        fix = cliff_fixture(grid, 1.0)
        m = induced_metric(fix.immersion)
        sf = second_form(fix.immersion, (fix.nu1, fix.nu2), m)
        gauge = gauge_state_from(grid, m.g, np.zeros((2,) + grid.shape))
        T, dt = 0.2, 1e-3
        traj = picard_evolve(sf, gauge, T=T, dt=dt, snapshot_every=5)
        frame0 = frame_from_normal_basis(fix.immersion, fix.nu1, fix.nu2)
        result = reconstruct(traj, frame0, fix.immersion)
        sol = solve_ivp(
            lambda t, r: [1.0 / r[1], -1.0 / r[0]],
            (0, T),
            [1.0, 1.0],
            rtol=1e-12,
            atol=1e-12,
            dense_output=True,
        )
        worst_r, worst_p = 0.0, 0.0
        for t, imm in zip(result.times, result.immersions):
            r1 = np.sqrt(imm.dev[0] ** 2 + imm.dev[1] ** 2)
            r2 = np.sqrt(imm.dev[2] ** 2 + imm.dev[3] ** 2)
            r1o, r2o = sol.sol(t)
            worst_r = max(worst_r, float(np.max(np.abs(r1 - r1o))), float(np.max(np.abs(r2 - r2o))))
            worst_p = max(worst_p, float(np.max(np.abs(r1 * r2 - 1.0))))
        ok = worst_r <= 1e-5 and worst_p <= 1e-6
        report(
            2,
            ok,
            f"reconstructed radii within {worst_r:.1e} of the ODE oracle (<=1e-5), "
            f"area product drift {worst_p:.1e} (<=1e-6) on [0, {T}]",
        )

    def test_criterion_3_scaling_invariance(self):
        mu = 2.0
        grid1 = Grid(d=2, n=32, L=16.0)
        F = bump_immersion(grid1, 0.05, 0.5).immersion
        m1 = curvature(christoffel(induced_metric(F)))
        nu1, nu2, A1 = graph_normal_bundle(F, m1)
        sf1 = second_form(F, (nu1, nu2), m1)
        gauge1 = gauge_state_from(grid1, m1.g, A1)
        T, dt = 0.05, 0.00625
        traj1 = picard_evolve(sf1, gauge1, T=T, dt=dt, snapshot_every=8)

        grid2 = Grid(d=2, n=32, L=16.0 / mu)
        gauge2 = gauge_state_from(grid2, gauge1.metric.g.copy(), mu * gauge1.A)
        sf2 = SecondForm.from_lambda(grid2, mu * sf1.lam, gauge2.metric)
        traj2 = picard_evolve(sf2, gauge2, T=T / mu**2, dt=dt / mu**2, snapshot_every=8)

        num = float(np.max(np.abs(traj2[-1].lam - mu * traj1[-1].lam)))
        den = float(np.max(np.abs(mu * traj1[-1].lam)))
        rel = num / den
        bound = 5.0 * (dt**2 + 1e-12)
        ok = rel <= bound
        report(
            3,
            ok,
            f"mu=2 rescaled run agrees to relative {rel:.1e} (<= 5(dt^2+trunc) = {bound:.1e})",
        )

    def test_criterion_4_constraint_propagation(self, coarse_run, fine_run):
        cfg_a, _, traj_a = coarse_run
        cfg_b, _, traj_b = fine_run
        table_a = residual_table(traj_a)
        table_b = residual_table(traj_b)
        trunc = 1e-9
        ok = True
        details = []
        for name in MONITORS:
            init, peak = table_a[name]
            bound = 10.0 * (init + cfg_a.time_step_dt**2 + trunc)
            ok &= peak <= bound
            ratio = peak / max(table_b[name][1], 1e-300)
            ok &= ratio >= 3.0
            details.append(f"{name}:{peak:.1e}/{bound:.1e},x{ratio:.1f}")
        report(
            4,
            ok,
            "all residuals within 10(init+dt^2+trunc) and tightened >=3x under "
            "dt/2, n*2 refinement [" + " ".join(details) + "]",
        )

    def test_criterion_5_reconstruction_closure(self, coarse_run):
        cfg, bundle, traj = coarse_run
        frame0 = frame_from_normal_basis(bundle.immersion, bundle.nu1, bundle.nu2)
        result = reconstruct(traj, frame0, bundle.immersion)
        grid = traj.grid
        scale = grid.l2(traj[0].lam)
        bound = 10.0 * (cfg.time_step_dt**2 + 1e-9)
        worst_closure = max(c / scale for c in result.lambda_closure)
        smcf = [r for r in result.smcf_residual if np.isfinite(r)]
        worst_smcf = max(smcf) / scale
        ok = worst_closure <= bound and worst_smcf <= bound
        report(
            5,
            ok,
            f"lambda round trip {worst_closure:.1e} and flow residual {worst_smcf:.1e} "
            f"(both <= 10(dt^2+trunc) = {bound:.1e}, relative L2)",
        )

    def test_criterion_6_small_data_stability(self):
        cfg, bundle, traj = run_bump(n=32, T=0.1, dt_scale=0.64)
        grid = traj.grid

        def hs(lam):
            return np.sqrt(
                sum(
                    sobolev_norm(GridField(grid, lam[a, b]), cfg.envelope_s) ** 2
                    for a in range(2)
                    for b in range(2)
                )
            )

        h0 = hs(traj[0].lam)
        growth = max(hs(rec.lam) for rec in traj.records) / h0
        _, _, traj_slab = run_bump(n=32, T=0.05, dt_scale=0.64, coupling="slab", sweeps=4)
        dist = traj_slab.meta["sweep_distances"]
        factors = [b / a for a, b in zip(dist[:-1], dist[1:])]
        ok = growth <= 2.0 and max(factors) <= 0.5
        report(
            6,
            ok,
            f"sup_t |lambda|_Hs / |lambda_0|_Hs = {growth:.3f} (<=2) and Picard sweep "
            f"contraction factors {['%.2e' % f for f in factors]} (all <=0.5)",
        )

    def test_criterion_7_norm_envelope_suite(self):
        grid = Grid(d=2, n=64, L=2 * np.pi)
        rng = np.random.default_rng(11)
        vals = grid.dealias(rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        f = GridField(grid, vals)
        hat = f.hat
        spec = np.sqrt(np.sum(np.abs(hat) ** 2) * grid.L**2 / grid.n**4)
        parseval = abs(f.l2() - spec) / f.l2()
        homog = abs(sobolev_norm(GridField(grid, 2.5 * vals), 2.0) - 2.5 * sobolev_norm(f, 2.0)) / (
            2.5 * sobolev_norm(f, 2.0)
        )
        params = EnvelopeParams(s=2.0, delta=0.25)
        smooth = GridField.from_real(grid, grid.ifft((1 + grid.k_sq) ** -1.5 * hat).real)
        env = frequency_envelope(smooth, params)
        slow = env.is_slowly_varying()
        bern = 0.0
        for k in (2, 3, 4):
            band = np.zeros(grid.shape, dtype=complex)
            sel = (grid.k_mag >= 2.0 ** (k - 1)) & (grid.k_mag <= 2.0 ** (k + 1))
            band[sel] = rng.standard_normal(sel.sum()) + 1j * rng.standard_normal(sel.sum())
            pk = grid.lp_project(grid.ifft(band), k, "P")
            bern = max(bern, grid.linf(pk) / (2.0**k * grid.l2(pk)))
        big = Grid(d=2, n=64, L=16.0)
        worst_alg = 0.0
        for seed in range(3):
            r2 = np.random.default_rng(200 + seed)
            h1 = big.ifft((r2.standard_normal(big.shape) + 1j * r2.standard_normal(big.shape)) * (1 + big.k_sq) ** -2.5).real
            h2 = big.ifft((r2.standard_normal(big.shape) + 1j * r2.standard_normal(big.shape)) * (1 + big.k_sq) ** -2.5).real
            ratio = y0_lo_norm_upper(GridField.from_real(big, h1 * h2), 0.25) / (
                y0_lo_norm_upper(GridField.from_real(big, h1), 0.25)
                * y0_lo_norm_upper(GridField.from_real(big, h2), 0.25)
            )
            worst_alg = max(worst_alg, ratio)
        ok = (
            parseval <= 1e-12
            and homog <= 1e-12
            and slow
            and bern <= calibration.BERNSTEIN_CONSTANT
            and worst_alg <= calibration.Y0_LO_ALGEBRA_CONSTANT
        )
        report(
            7,
            ok,
            f"Parseval {parseval:.1e}, homogeneity {homog:.1e}, slow variation {slow}, "
            f"Bernstein {bern:.3f}<={calibration.BERNSTEIN_CONSTANT}, "
            f"algebra {worst_alg:.3f}<={calibration.Y0_LO_ALGEBRA_CONSTANT} (frozen constants)",
        )

    def test_criterion_8_gauge_audits(self, coarse_run):
        cfg, bundle, traj = coarse_run
        grid = traj.grid
        div0 = bundle.residuals["coulomb_divergence_l2"]
        # heat-gauge identities at every published state, via an independent
        # inline recomputation of the two contractions
        worst_vb = 0.0
        for rec in traj.records[:: max(1, len(traj) // 4)]:
            s = rec.gauge(grid)
            m = s.metric
            V_chk = np.einsum("ab...,gab...->g...", m.ginv, m.gamma_u)
            nabA = np.stack(
                [
                    np.stack(
                        [
                            grid.deriv(s.A[a], b)
                            - np.einsum("g...,g...->...", m.gamma_u[:, b, a], s.A)
                            for a in range(2)
                        ]
                    )
                    for b in range(2)
                ]
            )
            B_chk = np.einsum("ba...,ba...->...", m.ginv, nabA)
            worst_vb = max(
                worst_vb,
                float(np.max(np.abs(grid.dealias(V_chk) - s.V))),
                float(np.max(np.abs(grid.dealias(B_chk) - s.B))),
            )
        # sign discrimination on a short run
        _, _, traj_good = run_bump(n=32, T=0.1, dt_scale=0.64, sign="plus")
        _, _, traj_bad = run_bump(n=32, T=0.1, dt_scale=0.64, sign="minus")
        t4_good = residual_table(traj_good)["T4"][1]
        t4_bad = residual_table(traj_bad)["T4"][1]
        ok = div0 <= 1e-9 and worst_vb <= 1e-10 and t4_bad >= 100.0 * t4_good
        report(
            8,
            ok,
            f"Coulomb divergence {div0:.1e} (<=1e-9); V/B identities {worst_vb:.1e} "
            f"(<=1e-10); T4 discriminates the connection-flow sign: plus "
            f"{t4_good:.1e} vs minus {t4_bad:.1e} - winning sign: plus",
        )
