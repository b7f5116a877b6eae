"""Metric, curvature, and second-fundamental-form operators on fixtures."""

import numpy as np
import pytest

from normal_frames import graph_normal_bundle, gram_schmidt_normal
from oracles import (
    analytic_second_form,
    deriv,
    gauge_rotate,
    gauss_form_scab,
    gauss_form_sdab,
    graph_metric_oracle,
    sphere_cap_metric,
)
from smcflab.errors import FrameNotNormalError, ImmersionDegeneracyError, ValenceMismatchError
from smcflab.fixtures import bump_immersion, cliff_fixture, flat_immersion
from smcflab.geometry import (
    MetricState,
    covariant_derivative,
    curvature,
    frame_defects,
    identity_metric,
    induced_metric,
    invert_metric,
    metric_eig_min,
    pointwise_det,
    pointwise_inverse,
    second_form,
)
from smcflab.grid import Grid


@pytest.fixture
def grid():
    return Grid(d=2, n=32, L=2 * np.pi)


@pytest.fixture
def bump_grid():
    return Grid(d=2, n=64, L=16.0)


def maxabs(x):
    return float(np.max(np.abs(x)))


class TestInducedMetric:
    def test_flat_plane(self, grid):
        m = induced_metric(flat_immersion(grid))
        assert maxabs(m.g - identity_metric(grid)) < 1e-14

    def test_graph_formula(self, bump_grid):
        F = bump_immersion(bump_grid, eps=0.1, delta=0.5).immersion
        m = induced_metric(F)
        oracle = graph_metric_oracle(F)
        assert maxabs(m.g - oracle) < 1e-12

    def test_cliff_is_exactly_flat(self, grid):
        fix = cliff_fixture(grid, r=1.0)
        m = induced_metric(fix.immersion)
        assert maxabs(m.g - identity_metric(grid)) < 1e-11

    def test_inverse_is_inverse(self, bump_grid):
        F = bump_immersion(bump_grid, eps=0.2, delta=0.5).immersion
        m = induced_metric(F)
        prod = np.einsum("ac...,cb...->ab...", m.ginv, m.g)
        assert maxabs(prod - identity_metric(bump_grid)) < 1e-10

    def test_degenerate_metric_rejected(self, grid):
        for bad in (-1.0, np.nan):
            g = identity_metric(grid)
            g[0, 0] = bad
            with pytest.raises(ImmersionDegeneracyError):
                MetricState(grid, g)


class TestPointwiseMatrices:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_inverse_and_det_of_nonsymmetric_field(self, d):
        grid = Grid(d=d, n=8, L=2 * np.pi)
        rng = np.random.default_rng(d)
        # identity plus a small non-symmetric perturbation: well conditioned
        mat = identity_metric(grid) + 0.2 * rng.standard_normal((d, d) + grid.shape)
        inv = pointwise_inverse(grid, mat)
        prod = np.einsum("ac...,cb...->ab...", inv, mat)
        assert maxabs(prod - identity_metric(grid)) < 1e-12
        rows = np.moveaxis(mat.reshape(d, d, -1), -1, 0)
        oracle = np.linalg.det(rows).reshape(grid.shape)
        assert maxabs(pointwise_det(grid, mat) - oracle) < 1e-12

    @pytest.mark.parametrize("d", [1, 3])
    def test_indefinite_metric_rejected(self, d):
        grid = Grid(d=d, n=8, L=2 * np.pi)
        g = identity_metric(grid)
        g[0, 0, (0,) * d] = -1.0
        with pytest.raises(ImmersionDegeneracyError):
            invert_metric(grid, g)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_non_finite_metric_rejected(self, d):
        # a NaN entry reads as a NaN eigenvalue, so inverting rejects it
        grid = Grid(d=d, n=8, L=2 * np.pi)
        g = identity_metric(grid)
        g[0, 0, (0,) * d] = np.nan
        assert np.isnan(metric_eig_min(grid, g))
        with pytest.raises(ImmersionDegeneracyError):
            invert_metric(grid, g)

    def test_metric_eig_min_matches_eigvalsh_on_near_conformal_metrics(self):
        # tr^2 - 4 det cancels when the eigenvalues nearly coincide; the
        # smaller eigenvalue must still hold to roundoff
        grid = Grid(d=2, n=8, L=2 * np.pi)
        rng = np.random.default_rng(5)
        for eps in (1e-3, 1e-6, 1e-9, 1e-12):
            pert = rng.standard_normal((2, 2) + grid.shape)
            scale = rng.uniform(0.5, 2.0, grid.shape)
            g = scale * (identity_metric(grid) + eps * (pert + np.swapaxes(pert, 0, 1)))
            oracle = np.min(np.linalg.eigvalsh(np.moveaxis(g.reshape(2, 2, -1), -1, 0)))
            assert abs(metric_eig_min(grid, g) - oracle) <= 1e-14 * oracle, eps
        g = np.zeros((2, 2) + grid.shape)
        g[0, 0], g[0, 1], g[1, 0], g[1, 1] = 1 + 1e-9, 1e-9, 1e-9, 1.0
        oracle = np.linalg.eigvalsh(np.array([[1 + 1e-9, 1e-9], [1e-9, 1.0]]))[0]
        assert abs(metric_eig_min(grid, g) - oracle) <= 1e-14 * oracle


class TestChristoffel:
    def test_flat_vanishes(self, grid):
        m = MetricState(grid, identity_metric(grid))
        assert maxabs(m.gamma_u) < 1e-14

    def test_conformal_1d_profile_closed_form(self):
        # g = e^{2 phi(x1)} I in d=2: nonzero symbols are
        # G^1_11 = phi', G^1_22 = -phi', G^2_12 = G^2_21 = phi'
        grid = Grid(d=2, n=64, L=2 * np.pi)
        X, _ = grid.x
        phi = 0.1 * np.sin(X)
        dphi = 0.1 * np.cos(X)
        g = np.zeros((2, 2) + grid.shape)
        g[0, 0] = np.exp(2 * phi)
        g[1, 1] = np.exp(2 * phi)
        m = MetricState(grid, g)
        exact = np.zeros_like(m.gamma_u)
        exact[0, 0, 0] = dphi
        exact[0, 1, 1] = -dphi
        exact[1, 0, 1] = dphi
        exact[1, 1, 0] = dphi
        assert maxabs(m.gamma_u - exact) < 1e-9

    def test_symmetry_in_lower_indices(self, bump_grid):
        F = bump_immersion(bump_grid, eps=0.2, delta=0.5).immersion
        m = induced_metric(F)
        assert maxabs(m.gamma_u - np.swapaxes(m.gamma_u, 1, 2)) < 1e-13


class TestCurvature:
    def test_flat_vanishes(self, grid):
        riem, ric = curvature(MetricState(grid, identity_metric(grid)))
        assert maxabs(riem) < 1e-13
        assert maxabs(ric) < 1e-13

    def test_sphere_cap_gauss_curvature(self):
        grid = Grid(d=2, n=256, L=20.0)
        radius = 2.0
        m = sphere_cap_metric(grid, radius=radius, cap_width=5.0)
        # Gauss curvature K = R_1212 / det g; compare on the interior of the cap
        X, Y = grid.x
        rho = np.sqrt((X - 10.0) ** 2 + (Y - 10.0) ** 2)
        interior = rho < 1.5
        det = m.g[0, 0] * m.g[1, 1] - m.g[0, 1] ** 2
        riem, _ = curvature(m)
        K = riem[0, 1, 0, 1] / det
        assert np.max(np.abs(K[interior] - 1.0 / radius**2)) < 1e-4

    def test_antisymmetry_first_pair(self, bump_grid):
        F = bump_immersion(bump_grid, eps=0.2, delta=0.5).immersion
        riem, _ = curvature(induced_metric(F))
        swap = np.einsum("scab...->csab...", riem)
        scale = max(maxabs(riem), 1e-30)
        assert maxabs(riem + swap) < 1e-8 * scale


class TestCovariantDerivative:
    def test_scalar_is_partial(self, bump_grid):
        F = bump_immersion(bump_grid, eps=0.2, delta=0.5).immersion
        m = induced_metric(F)
        f = np.sin(2 * np.pi * bump_grid.x[0] / bump_grid.L)
        nab = covariant_derivative(f, m, valence="")
        assert maxabs(nab - bump_grid.grad(f)) < 1e-13

    def test_metric_compatibility(self, bump_grid):
        F = bump_immersion(bump_grid, eps=0.2, delta=0.5).immersion
        m = induced_metric(F)
        nab_g = covariant_derivative(m.g, m, valence="ll")
        assert maxabs(nab_g) < 1e-10

    def test_gauge_covariant_reduces_at_zero_connection(self, bump_grid):
        F = bump_immersion(bump_grid, eps=0.2, delta=0.5).immersion
        m = induced_metric(F)
        lam = np.einsum("ab...,...->ab...", identity_metric(bump_grid) + 0j, np.exp(1j * bump_grid.x[0]))
        a = covariant_derivative(lam, m, valence="ll", A=np.zeros((2,) + bump_grid.shape))
        b = covariant_derivative(lam, m, valence="ll")
        assert maxabs(a - b) == 0.0

    def test_valence_mismatch(self, grid):
        m = MetricState(grid, identity_metric(grid))
        with pytest.raises(ValenceMismatchError):
            covariant_derivative(np.zeros((2,) + grid.shape), m, valence="ll")


class TestSecondForm:
    def test_flat_vanishes(self, grid):
        F = flat_immersion(grid)
        m = induced_metric(F)
        nu1 = np.zeros((4,) + grid.shape)
        nu2 = np.zeros((4,) + grid.shape)
        nu1[2] = 1.0
        nu2[3] = 1.0
        sf = second_form(F, (nu1, nu2), m)
        assert maxabs(sf.lam) < 1e-14

    def test_cliff_closed_form(self, grid):
        fix = cliff_fixture(grid, r=1.0)
        m = induced_metric(fix.immersion)
        sf = second_form(fix.immersion, (fix.nu1, fix.nu2), m)
        oracle = analytic_second_form(m, 1.0)
        assert maxabs(sf.lam - oracle.lam) < 1e-10
        assert maxabs(sf.psi - oracle.psi) < 1e-10

    def test_small_graph_taylor_scaling(self, bump_grid):
        # lambda = d2u1 + i d2u2 + O(|du|^2): the defect must scale ~ amp^3
        defects = []
        for eps in (0.1, 0.2):
            fix = bump_immersion(bump_grid, eps=eps, delta=0.5)
            F = fix.immersion
            m = induced_metric(F)
            nu1 = np.zeros((4,) + bump_grid.shape)
            nu2 = np.zeros((4,) + bump_grid.shape)
            nu1[2] = 1.0
            nu2[3] = 1.0
            sf = second_form(F, gram_schmidt_normal(F, m, nu1, nu2), m)
            d2 = F.second_partials()
            taylor = d2[:, :, 2] + 1j * d2[:, :, 3]
            du_sq = max(
                maxabs(bump_grid.grad(F.dev[2])) ** 2, maxabs(bump_grid.grad(F.dev[3])) ** 2
            )
            defects.append((fix.amplitude, maxabs(sf.lam - taylor), maxabs(sf.lam), du_sq))
        # cubic smallness: defect / amp^3 roughly constant, defect = O(|du|^2 |lambda|)
        r0 = defects[0][1] / defects[0][0] ** 3
        r1 = defects[1][1] / defects[1][0] ** 3
        assert 0.2 < r0 / r1 < 5.0
        assert defects[0][1] < 3.0 * defects[0][3] * defects[0][2]

    def test_trace_consistency(self, bump_grid):
        fix = bump_immersion(bump_grid, eps=0.2, delta=0.5)
        F = fix.immersion
        m = induced_metric(F)
        nu1 = np.zeros((4,) + bump_grid.shape)
        nu2 = np.zeros((4,) + bump_grid.shape)
        nu1[2] = 1.0
        nu2[3] = 1.0
        sf = second_form(F, gram_schmidt_normal(F, m, nu1, nu2), m)
        tr = np.einsum("ab...,ab...->...", m.ginv, sf.lam)
        assert maxabs(sf.psi - bump_grid.dealias(tr)) < 1e-12

    def test_bad_frame_rejected(self, grid):
        F = flat_immersion(grid)
        m = induced_metric(F)
        nu1 = np.zeros((4,) + grid.shape)
        nu2 = np.zeros((4,) + grid.shape)
        nu1[0] = 1.0  # tangent direction: cannot be fixed by Gram-Schmidt
        nu2[3] = 1.0
        with pytest.raises(FrameNotNormalError):
            second_form(F, (nu1, nu2), m)

    @staticmethod
    def _flat_frame(grid):
        F = flat_immersion(grid)
        nu1 = np.zeros((4,) + grid.shape)
        nu2 = np.zeros((4,) + grid.shape)
        nu1[2] = 1.0
        nu2[3] = 1.0
        return F, induced_metric(F), nu1, nu2

    def test_frame_holding_a_nan_is_rejected(self, grid):
        # the builtin max drops a NaN that is not its first argument
        F, m, nu1, nu2 = self._flat_frame(grid)
        nu2[3, 1, 2] = np.nan
        with pytest.raises(FrameNotNormalError, match="nan"):
            second_form(F, (nu1, nu2), m)

    def test_unequal_lengths_are_caught_by_m_dot_m(self, grid):
        # |nu1|^2 = 1 + eps and |nu2|^2 = 1 - eps keep |m|^2 = 2 and the frame
        # normal; only m.m = |nu1|^2 - |nu2|^2 = 2 eps sees the defect
        F, m, nu1, nu2 = self._flat_frame(grid)
        eps = 1e-6
        nu1[2] *= np.sqrt(1.0 + eps)
        nu2[3] *= np.sqrt(1.0 - eps)
        defects = frame_defects(F.tangents(), nu1 + 1j * nu2)
        assert defects["m_norm"] < 1e-15 and defects["tangent_normal"] == 0.0
        assert abs(defects["m_null"] - 2 * eps) < 1e-15
        with pytest.raises(FrameNotNormalError, match="normal frame defect 2.000e-06"):
            second_form(F, (nu1, nu2), m)

    def test_raw_graph_frame_is_rejected_not_repaired(self, bump_grid):
        # (e_d, e_{d+1}) is not normal to a bump: second_form takes orthonormal
        # normal frames only, and tests orthonormalize with gram_schmidt_normal
        F = bump_immersion(bump_grid, eps=0.2, delta=0.5).immersion
        m = induced_metric(F)
        nu1 = np.zeros((4,) + bump_grid.shape)
        nu2 = np.zeros((4,) + bump_grid.shape)
        nu1[2] = 1.0
        nu2[3] = 1.0
        with pytest.raises(FrameNotNormalError, match="normal frame defect"):
            second_form(F, (nu1, nu2), m)
        second_form(F, gram_schmidt_normal(F, m, nu1, nu2), m)

    @pytest.mark.parametrize("d, n", [(2, 16), (2, 32), (3, 16), (3, 32)])
    def test_one_gauss_stack_serves_the_monitor_and_the_nonlinearity(self, d, n):
        # n = 16 transforms by the dense DFT, n = 32 by numpy.fft; the cached
        # stack is bit for bit T2's [s, c, a, b] form, and with its middle slots
        # swapped the lambda nonlinearity's [s, d, a, b] form
        grid = Grid(d=d, n=n, L=16.0)
        F = bump_immersion(grid, 0.1, 0.6).immersion
        m = induced_metric(F)
        nu1, nu2, _ = graph_normal_bundle(F, m)
        sf = second_form(F, (nu1, nu2), m)
        G = sf.gauss
        grid_axes = tuple(range(4, 4 + d))
        assert np.array_equal(G, gauss_form_scab(grid, sf.lam))
        assert np.array_equal(np.transpose(G, (0, 2, 1, 3) + grid_axes), gauss_form_sdab(grid, sf.lam))
        # R_{scab} = -R_{csab} = -R_{scba} = R_{absc}
        assert np.array_equal(G, -np.swapaxes(G, 0, 1))
        assert np.array_equal(G, -np.swapaxes(G, 2, 3))
        assert np.array_equal(G, np.transpose(G, (2, 3, 0, 1) + grid_axes))
        assert maxabs(G) > 1e-6


class TestGaugeRotate:
    def _setup(self, grid):
        fix = cliff_fixture(grid, r=1.0)
        m = induced_metric(fix.immersion)
        sf = second_form(fix.immersion, (fix.nu1, fix.nu2), m)
        rng = np.random.default_rng(3)
        hat = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) * (
            1.0 + grid.k_sq
        ) ** -2
        theta = grid.ifft(hat).real
        A = np.stack([deriv(grid, theta, a) for a in range(2)]) * 0.3
        return sf, A, fix.nu1 + 1j * fix.nu2, theta

    def test_identity_at_zero_angle(self, grid):
        sf, A, mvec, _ = self._setup(grid)
        out, A2, m2 = gauge_rotate(sf, A, mvec, np.zeros(grid.shape))
        assert maxabs(out.lam - sf.lam) == 0.0
        assert maxabs(A2 - A) == 0.0
        assert maxabs(m2 - mvec) == 0.0

    def test_modulus_invariant(self, grid):
        sf, A, mvec, theta = self._setup(grid)
        out, _, _ = gauge_rotate(sf, A, mvec, theta)
        assert maxabs(np.abs(out.lam) - np.abs(sf.lam)) < 1e-12

    def test_curvature_of_connection_invariant(self, grid):
        sf, A, mvec, theta = self._setup(grid)
        _, A2, _ = gauge_rotate(sf, A, mvec, theta)

        def curl(Af):
            return deriv(grid, Af[1], 0) - deriv(grid, Af[0], 1)

        assert maxabs(curl(A2) - curl(A)) < 1e-10
