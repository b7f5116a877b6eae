"""The machinery is dimension-generic: d=1 filaments and d=3 graphs run too."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normal_frames import graph_normal_bundle
from oracles import gauge_rotate, helix, helix_deviation
from smcflab.constraints import residual_T1, residual_T2, residual_T3, residual_T4
from smcflab.fixtures import bump_immersion
from smcflab.geometry import curvature, induced_metric, second_form
from smcflab.grid import Grid, GridField, read_field, write_field
from smcflab.parabolic import gauge_state_from
from smcflab.reconstruction import frame_from_normal_basis, reconstruct
from smcflab.schrodinger import picard_evolve


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
    rebuilt F missed the closed form by 6.2e-8 T, and with nu2 -> -nu2 by 0.71 T.
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
        # 2.4x the measured miss
        assert miss <= 1.5e-7 * T

    def test_the_opposite_orientation_misses(self, helix_runs):
        h, T, _, _, reversed_rebuilt = helix_runs
        miss = np.max(np.abs(reversed_rebuilt.immersions[-1].dev - helix_deviation(h.grid, T)))
        # half the measured miss
        assert miss >= 0.35 * T


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
