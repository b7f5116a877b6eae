"""The machinery is dimension-generic: d=1 filaments and d=3 graphs run too."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normal_frames import graph_normal_bundle
from oracles import fourier_sum, gauge_rotate, graph_flow, hasimoto_modulus, helix, helix_deviation
from smcflab.config import load_config
from smcflab.constraints import residual_T1, residual_T2, residual_T3, residual_T4
from smcflab.fixtures import bump_immersion
from smcflab.geometry import curvature, induced_metric, second_form
from smcflab.grid import Grid, GridField, read_field, write_field
from smcflab.harness import generate_scenario
from smcflab.parabolic import gauge_state_from
from smcflab.reconstruction import frame_from_normal_basis, reconstruct
from smcflab.schrodinger import picard_evolve
from smcflab.trajectory import Trajectory

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def bundle_for(d, n, eps=0.1, delta=None):
    grid = Grid(d=d, n=n, L=16.0)
    F = bump_immersion(grid, eps, delta if delta is not None else 0.5).immersion
    m = induced_metric(F)
    nu1, nu2, A = graph_normal_bundle(F, m)
    sf = second_form(F, (nu1, nu2), m)
    return grid, F, m, nu1, nu2, A, sf


class TestOtherDimensions:
    def test_d1_filament_identities_and_evolution(self):
        grid, F, m, nu1, nu2, A, sf = bundle_for(1, 64)
        # in one dimension the curvature tensor and the antisymmetrized
        # derivative vanish identically; the curl source sits at the
        # dealiased-product truncation floor
        riem, _ = curvature(m)
        assert float(np.max(np.abs(riem))) < 1e-12
        assert residual_T3(sf, A)[1].l2 < 1e-12
        assert residual_T4(sf, A)[1].l2 < 1e-9
        gauge = gauge_state_from(grid, m.g, A)
        traj = picard_evolve(sf, gauge, T=0.05, dt=0.005)
        assert np.all(np.isfinite(traj[-1].lam))
        assert traj[-1].t == 0.05

    def test_d3_identities_at_truncation(self):
        grid, F, m, nu1, nu2, A, sf = bundle_for(3, 32, eps=0.1, delta=0.6)
        riem, ric = curvature(m)
        assert residual_T1(sf, ric)[1].rel < 1e-4
        assert residual_T2(sf, riem)[1].rel < 1e-4
        assert residual_T3(sf, A)[1].rel < 1e-4
        assert residual_T4(sf, A)[1].rel < 1e-3

    def test_d3_short_evolution(self):
        grid, F, m, nu1, nu2, A, sf = bundle_for(3, 16, eps=0.1, delta=0.6)
        gauge = gauge_state_from(grid, m.g, A)
        traj = picard_evolve(sf, gauge, T=0.01, dt=0.005)
        assert np.all(np.isfinite(traj[-1].lam))
        assert gauge.metric.eig_min() > 0.9


# the helix runs: final time per d (d = 3 is kept short) and the two steps
HELIX_T = {1: 0.2, 2: 0.2, 3: 0.02}
HELIX_DT = (0.004, 0.002)


@pytest.fixture(scope="module", params=[1, 2, 3], ids=["d1", "d2", "d3"])
def helix_runs(request):
    """The helix x R^{d-1} evolved at both steps, rebuilt from the finer run,
    and, with nu2 -> -nu2, evolved and rebuilt at the coarser step."""
    d = request.param
    T = HELIX_T[d]
    h = helix(d)
    runs = {dt: picard_evolve(h.sf, h.gauge, T=T, dt=dt) for dt in HELIX_DT}
    rebuilt = reconstruct(runs[HELIX_DT[1]], frame_from_normal_basis(h.immersion, h.nu1, h.nu2), h.immersion)
    r = helix(d, orientation=-1.0)
    reversed_run = picard_evolve(r.sf, r.gauge, T=T, dt=HELIX_DT[0])
    reversed_rebuilt = reconstruct(reversed_run, frame_from_normal_basis(r.immersion, r.nu1, r.nu2), r.immersion)
    return h, T, runs, rebuilt, reversed_rebuilt


class TestHelixOracle:
    """An exact solution at d = 1, 2 and 3 with A != 0 (oracles.helix).

    The state is homogeneous, so every derivative in the lambda equation
    vanishes, and so do Gamma, V and B = nabla^a A_a.  What is left of

        i d_t lam + d_a(g^{ab} d_b lam) + 2i A^a d_a lam = F

    is i d_t lam_11 = F_11, and of F's terms only three survive: the potential
    (B + A_s A^s - V_s A^s) lam = g^{ab} A_a A_b lam, psi Re(lam_{ad} lambar^d_b)
    = (a k^2 / c^2)(a^2 k^4 / c^2) and the cubic chain -lam_{am} lambar^m_s lam^s_b
    = -a^3 k^6 / c^4; the curvature cubic vanishes with lam_{ab} = 0 off (1, 1).
    The two cubics cancel, so

        d_t lam = -i g^{ab} A_a A_b lam,  lam(t) = lam_0 exp(-i g^{ab} A_a A_b t),

    with g^{11} A_1 A_1 = k^2 / c^4.  The modulus of lam is conserved, and g and
    A do not move: Im(psi lambar), the Gauss-Ricci form Re(lam psibar - lam
    lambar^up) and w = Im(lam^up lambar) vanish for a real multiple of one phase.
    The immersion moves by the rigid screw motion of oracles.helix_deviation.

    Measured at n = 8, L = 2 pi, a = 0.5, k = 1 (T = 0.2 at d = 1, 2; 0.02 at
    d = 3): g and A moved by <= 3.0e-15; the phase error was 3.5e-7 T at dt =
    0.004 and 8.7e-8 T at 0.002 (ratio 4.00); |lam| moved by 8.5e-11 T; the
    rebuilt F missed the closed form by 4.92e-8 T, and with nu2 -> -nu2 by 0.71 T.
    Each bound below states its margin over these."""

    def test_metric_and_connection_stay_constant(self, helix_runs):
        h, _, runs, _, _ = helix_runs
        for traj in runs.values():
            for rec in traj.records:
                # 30x the measured drift
                assert np.max(np.abs(rec.g - h.gauge.metric.g)) <= 1e-13
                assert np.max(np.abs(rec.A - h.gauge.A)) <= 1e-13

    def test_phase_is_exact_to_second_order(self, helix_runs):
        h, T, runs, _, _ = helix_runs
        rate = np.einsum("ab...,a...,b...->...", h.gauge.metric.ginv, h.gauge.A, h.gauge.A)
        assert np.max(np.abs(rate - h.k**2 / (1.0 + (h.a * h.k) ** 2) ** 2)) < 1e-15
        exact = h.sf.lam * np.exp(-1j * rate * T)
        err = {dt: np.max(np.abs(traj[-1].lam - exact)) for dt, traj in runs.items()}
        coarse, fine = HELIX_DT
        assert err[coarse] / err[fine] >= 3.5
        # 2x the measured error at the finer step
        assert err[fine] <= 1.75e-7 * T

    def test_modulus_is_conserved(self, helix_runs):
        h, T, runs, _, _ = helix_runs
        for rec in runs[HELIX_DT[1]].records:
            # 6x the measured drift
            assert np.max(np.abs(np.abs(rec.lam) - np.abs(h.sf.lam))) <= 5e-10 * T

    def test_rebuilt_immersion_is_the_screw_motion(self, helix_runs):
        h, T, runs, rebuilt, _ = helix_runs
        assert rebuilt.times == list(runs[HELIX_DT[1]].times)
        miss = max(
            np.max(np.abs(imm.dev - helix_deviation(h.grid, t))) for imm, t in zip(rebuilt.immersions, rebuilt.times)
        )
        # 3.0x the measured miss
        assert miss <= 1.5e-7 * T

    def test_the_opposite_orientation_misses(self, helix_runs):
        h, T, _, _, reversed_rebuilt = helix_runs
        miss = np.max(np.abs(reversed_rebuilt.immersions[-1].dev - helix_deviation(h.grid, T)))
        # half the measured miss
        assert miss >= 0.35 * T


# the Hasimoto runs: a d = 1 bump evolved to T = 0.5 at both steps
HASIMOTO_DT = (0.01, 0.005)


@pytest.fixture(scope="module")
def hasimoto_runs():
    """The d = 1 bump (eps = 0.1, n = 64) evolved to T at both steps, and |chi(T)|
    of the NLS from its chi(0) = lambda_0 / g with either orientation."""
    base = replace(load_config(CONFIGS / "bump_smalldata.txt"), grid_dimension_d=1, bump_epsilon=0.1, final_time_T=0.5)
    bundle = generate_scenario(base)
    g0 = float(np.mean(bundle.gauge.metric.g[0, 0]))
    chi0 = bundle.sf.lam[0, 0] / g0
    length, beta = np.sqrt(g0) * base.box_length_L, float(np.mean(bundle.gauge.A[0])) / np.sqrt(g0)
    T = base.final_time_T
    runs = {dt: picard_evolve(bundle.sf, bundle.gauge, T=T, dt=dt) for dt in HASIMOTO_DT}
    return runs, hasimoto_modulus(chi0, length, beta, T), hasimoto_modulus(chi0, length, beta, T, orientation=-1.0)


class TestHasimotoOracle:
    """At d = 1 the flow is the binormal flow of a curve in R^3 (Da Rios 1906),
    and Hasimoto (J. Fluid Mech. 51, 1972) showed that psi = kappa exp(i int tau ds)
    solves i psi_t + psi_ss + |psi|^2 psi / 2 = 0, up to a real time-only
    potential that |psi| does not see.  Harmonic coordinates make g_11
    constant in space at d = 1, the flow keeps arclength, so s = sqrt(g) x and
    |lambda_11| / g = kappa.  The Coulomb frame twists against the parallel
    frame at the constant rate beta = A_1 / sqrt(g) of the initial data, so
    chi(0) = lambda_0 / g solves the twisted NLS of oracles.hasimoto_modulus
    (A itself spreads by 2.9e-3 by T = 0.5, so this checks the A flow too).

    Measured on the bump_smalldata config at d = 1, eps = 0.1, T = 0.5: g_11
    spread over x by <= 5.3e-10; the error in |lambda_11| / g was 8.26e-9 at
    dt = 0.01 and 2.06e-9 at dt = 0.005 (ratio 4.01); beta of the wrong sign
    missed by 2.4e-4 and the opposite orientation by 5.5e-2.  Dropping the
    potential term of the lambda equation made the error 3.3e-5.  Each bound
    states what it must tell apart."""

    def test_metric_is_constant_in_space(self, hasimoto_runs):
        runs, _, _ = hasimoto_runs
        for traj in runs.values():
            for rec in traj.records:
                # 19x the measured spread; the NLS lives on s = sqrt(g) x
                assert np.ptp(rec.g[0, 0]) <= 1e-8

    def test_modulus_follows_the_nls(self, hasimoto_runs):
        runs, modulus, _ = hasimoto_runs
        traj = runs[HASIMOTO_DT[0]]
        err = np.max(np.abs(np.abs(traj[-1].lam[0, 0]) / traj[-1].g[0, 0] - modulus))
        # 12x the measured error, 330x below the smallest dropped-term miss
        assert err <= 1e-7

    def test_error_is_second_order(self, hasimoto_runs):
        runs, modulus, _ = hasimoto_runs
        err = [np.max(np.abs(np.abs(runs[dt][-1].lam[0, 0]) / runs[dt][-1].g[0, 0] - modulus)) for dt in HASIMOTO_DT]
        assert err[0] / err[1] >= 3.5

    def test_the_opposite_orientation_misses(self, hasimoto_runs):
        runs, _, reversed_modulus = hasimoto_runs
        traj = runs[HASIMOTO_DT[1]]
        miss = np.max(np.abs(np.abs(traj[-1].lam[0, 0]) / traj[-1].g[0, 0] - reversed_modulus))
        # a fifth of the measured miss
        assert miss >= 1e-2


# the graph run: steps of 1/64 rebuilt at the cadences 1/32 and 1/64
GRAPH_EVERY = (2, 1)


@pytest.fixture(scope="module")
def graph_runs():
    """The bump_smalldata config at n = 32 and dt = 1/64, rebuilt from every
    second record and from every record; the rebuilt surface at T against the
    graph flow of the same initial graph, of either orientation."""
    cfg = replace(load_config(CONFIGS / "bump_smalldata.txt"), grid_points_n=32, time_step_dt=1 / 64).resolve()
    bundle = generate_scenario(cfg)
    grid, d = bundle.grid, bundle.grid.d
    traj = picard_evolve(bundle.sf, bundle.gauge, T=cfg.final_time_T, dt=cfg.time_step_dt)
    frame0 = frame_from_normal_basis(bundle.immersion, bundle.nu1, bundle.nu2)
    u0 = bump_immersion(grid, cfg.bump_epsilon, cfg.bump_delta, cfg.bump_profile_width_w).immersion.dev[d:]
    nu1, nu2 = bundle.nu1[d:], bundle.nu2[d:]
    orientation = np.sign(nu1[0] * nu2[1] - nu1[1] * nu2[0])
    assert np.all(orientation == orientation.flat[0])
    orientation = float(orientation.flat[0])
    gaps = {}
    for every in GRAPH_EVERY:
        rebuilt = reconstruct(Trajectory(grid, traj.records[::every]), frame0, bundle.immersion)
        assert rebuilt.times[-1] == cfg.final_time_T
        dev = rebuilt.immersions[-1].dev
        points = np.stack([grid.x[a] + dev[a] for a in range(d)]).reshape(d, -1)
        gaps[every] = (dev[d] + 1j * dev[d + 1]).ravel(), points
    flows = {sign: graph_flow(u0, grid.L, cfg.final_time_T, 0.005, sign * orientation) for sign in (1.0, -1.0)}
    return {
        sign: {every: U - fourier_sum(w_hat, grid.L, points) for every, (U, points) in gaps.items()}
        for sign, w_hat in flows.items()
    }


class TestGraphOracle:
    """At d = 2 a codimension-two graph F = (x, u(x)) that moves by
    (d_t F)^perp = J H(F) with x held fixed obeys u_t = G R G c / sqrt(det G)
    (oracles.graph_flow), a flow in the graph's own unknowns with no gauge.
    The run's rebuilt immersion (X, U) at T is compared with it as a point set,
    U(y) - u(T, X(y)), u evaluated by a direct Fourier sum.

    Measured on the bump_smalldata config at n = 32, dt = 1/64, T = 0.25 (the
    surface moves by 1.6e-3): the gap was 5.13e-7 at a snapshot cadence of
    1/32 and 1.28e-7 at 1/64 (ratio 4.00), the audit's time quadrature; the
    Richardson combination (4 gap_64 - gap_32) / 3 of the two gap fields,
    which removes that quadrature's dt^2 term, read 6.4e-11.  The opposite
    orientation missed by 3.9e-3.  Dropping the principal difference of the
    lambda equation left the cadence gaps within 1 % but made the Richardson
    gap 7.8e-9.  Each bound states what it must tell apart."""

    def test_the_rebuilt_surface_is_the_graph_flow(self, graph_runs):
        # 2x the measured gap
        assert np.max(np.abs(graph_runs[1.0][GRAPH_EVERY[0]])) <= 1e-6

    def test_gap_is_second_order_in_the_cadence(self, graph_runs):
        coarse, fine = (np.max(np.abs(graph_runs[1.0][every])) for every in GRAPH_EVERY)
        assert coarse / fine >= 3.5

    def test_extrapolated_gap_is_at_the_stepper_floor(self, graph_runs):
        coarse, fine = (graph_runs[1.0][every] for every in GRAPH_EVERY)
        # 16x the measured gap, 7.8x below the dropped principal difference
        assert np.max(np.abs(4.0 * fine - coarse)) / 3.0 <= 1e-9

    def test_the_opposite_orientation_misses(self, graph_runs):
        # a quarter of the measured miss
        assert np.max(np.abs(graph_runs[-1.0][GRAPH_EVERY[0]])) >= 1e-3


class TestPropertyBased:
    @settings(max_examples=20, deadline=None)
    @given(
        name=st.text(min_size=0, max_size=40),
        parity=st.sampled_from(["real", "complex"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_snapshot_roundtrip_any_name(self, tmp_path_factory, name, parity, seed):
        grid = Grid(d=2, n=8, L=1.0)
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(grid.shape)
        if parity == "complex":
            vals = vals + 1j * rng.standard_normal(grid.shape)
        f = GridField(grid, vals, parity=parity, name=name)
        path = tmp_path_factory.mktemp("snap") / "f.smcf"
        write_field(path, f)
        back = read_field(path)
        assert back.name == name and back.parity == parity
        assert np.array_equal(back.values, f.values)

    @settings(max_examples=15, deadline=None)
    @given(amp=st.floats(0.0, 0.2, allow_nan=False), seed=st.integers(0, 1000))
    def test_gauge_rotation_preserves_modulus(self, amp, seed):
        grid = Grid(d=2, n=16, L=16.0)
        rng = np.random.default_rng(seed)
        hat = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        hat[grid.k_mag > 1.5] = 0
        theta = grid.ifft(hat).real
        theta = amp * theta / max(float(np.max(np.abs(theta))), 1e-300)
        lam = rng.standard_normal((2, 2) + grid.shape) + 1j * rng.standard_normal((2, 2) + grid.shape)
        lam = 0.5 * (lam + np.swapaxes(lam, 0, 1))
        from smcflab.geometry import MetricState, SecondForm, identity_metric

        m = MetricState(grid, identity_metric(grid))
        sf = SecondForm(m, lam)
        out, _, _ = gauge_rotate(sf, None, None, theta)
        assert float(np.max(np.abs(np.abs(out.lam) - np.abs(sf.lam)))) < 1e-12
