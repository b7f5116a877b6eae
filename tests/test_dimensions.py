"""The machinery is dimension-generic: d=1 filaments and d=3 graphs run too."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from normal_frames import graph_normal_bundle
from smcflab.constraints import residual_T1, residual_T2, residual_T3, residual_T4
from smcflab.fixtures import bump_immersion
from smcflab.geometry import christoffel, curvature, gauge_rotate, induced_metric, second_form
from smcflab.grid import Grid, GridField, read_field, write_field
from smcflab.parabolic import gauge_state_from
from smcflab.schrodinger import picard_evolve


def bundle_for(d, n, eps=0.1, delta=None):
    grid = Grid(d=d, n=n, L=16.0)
    F = bump_immersion(grid, eps, delta if delta is not None else 0.5).immersion
    m = curvature(christoffel(induced_metric(F)))
    nu1, nu2, A = graph_normal_bundle(F, m)
    sf = second_form(F, (nu1, nu2), m)
    return grid, F, m, nu1, nu2, A, sf


class TestOtherDimensions:
    def test_d1_filament_identities_and_evolution(self):
        grid, F, m, nu1, nu2, A, sf = bundle_for(1, 64)
        # in one dimension the curvature tensor and the antisymmetrized
        # derivative vanish identically; the curl source sits at the
        # dealiased-product truncation floor
        assert float(np.max(np.abs(m.riem))) < 1e-12
        assert residual_T3(m, sf, A)[1].l2 < 1e-12
        assert residual_T4(m, sf, A)[1].l2 < 1e-9
        gauge = gauge_state_from(grid, m.g, A)
        traj = picard_evolve(sf, gauge, T=0.05, dt=0.005)
        assert np.all(np.isfinite(traj[-1].lam))
        assert traj[-1].t == 0.05

    def test_d3_identities_at_truncation(self):
        grid, F, m, nu1, nu2, A, sf = bundle_for(3, 32, eps=0.1, delta=0.6)
        assert residual_T1(m, sf)[1].rel < 1e-4
        assert residual_T2(m, sf)[1].rel < 1e-4
        assert residual_T3(m, sf, A)[1].rel < 1e-4
        assert residual_T4(m, sf, A)[1].rel < 1e-3

    def test_d3_short_evolution(self):
        grid, F, m, nu1, nu2, A, sf = bundle_for(3, 16, eps=0.1, delta=0.6)
        gauge = gauge_state_from(grid, m.g, A)
        traj = picard_evolve(sf, gauge, T=0.01, dt=0.005)
        assert np.all(np.isfinite(traj[-1].lam))
        assert gauge.metric.eig_min() > 0.9


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
        sf = SecondForm.from_lambda(grid, lam, m)
        out, _, _ = gauge_rotate(sf, None, None, theta)
        assert float(np.max(np.abs(np.abs(out.lam) - np.abs(sf.lam)))) < 1e-12
