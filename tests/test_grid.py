"""Spectral grid operators against analytic oracles."""

import tracemalloc

import numpy as np
import pytest

from oracles import deriv, lp_project
from smcflab import calibration
from smcflab.errors import SmcfValidationError
from smcflab.grid import _OPERATORS, Grid, GridField, bump_profile, read_field, write_field


def rel_err(a, b):
    denom = np.max(np.abs(b))
    return np.max(np.abs(a - b)) / (denom if denom > 0 else 1.0)


@pytest.fixture
def grid2():
    return Grid(d=2, n=32, L=2 * np.pi)


def random_field(grid, seed=0, real=True, lead=()):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(lead + grid.shape)
    if not real:
        vals = vals + 1j * rng.standard_normal(lead + grid.shape)
    return grid.dealias(vals)


def direct_eval_at_points(grid, arr, pts):
    """Reference for Grid.eval_at_points: the direct O(P n^d) Fourier sum over the
    FFT box, taking the real part for real arr."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    hat = grid.fft(arr) / (grid.n**grid.d)
    phase = np.exp(1j * np.outer(pts[:, grid.d - 1], grid.k1d))  # (P, n)
    out = np.tensordot(hat, phase, axes=([hat.ndim - 1], [1]))  # (..., P)
    for a in reversed(range(grid.d - 1)):
        phase = np.exp(1j * np.outer(pts[:, a], grid.k1d))
        out = np.einsum("...xp,px->...p", out, phase)
    return out.real if np.isrealobj(arr) else out


class TestGridConstruction:
    def test_invariants_enforced(self):
        with pytest.raises(SmcfValidationError):
            Grid(d=2, n=6, L=1.0)
        with pytest.raises(SmcfValidationError):
            Grid(d=2, n=48, L=1.0)  # not a power of two
        with pytest.raises(SmcfValidationError):
            Grid(d=2, n=16, L=-1.0)
        with pytest.raises(SmcfValidationError):
            Grid(d=4, n=16, L=1.0)

    def test_roundtrip(self, grid2):
        f = random_field(grid2, seed=1, real=False)
        back = grid2.ifft(grid2.fft(f))
        assert rel_err(back, f) < 1e-12

    def test_parseval(self, grid2):
        f = random_field(grid2, seed=2, real=False)
        phys = grid2.l2(f)
        hat = grid2.fft(f)
        spec = np.sqrt(np.sum(np.abs(hat) ** 2) * grid2.L**grid2.d / grid2.n ** (2 * grid2.d))
        assert abs(phys - spec) / phys < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_roundtrip_all_dims(self, d):
        grid = Grid(d=d, n=16, L=3.0)
        f = random_field(grid, seed=d, real=False)
        assert rel_err(grid.ifft(grid.fft(f)), f) < 1e-12


def c2c_deriv(grid, arr, axis, order=1):
    """One derivative of every component by a full c2c round trip: the
    per-component composition the fused operators replace."""
    mult = (1j * grid.k[axis]) ** order
    if order % 2:
        mult = np.where(np.isclose(np.abs(grid.k[axis]), grid.k_nyq), 0.0, mult)
    out = grid.ifft(grid.fft(arr) * mult)
    return out.real if np.isrealobj(arr) else out


def c2c_dealias(grid, arr):
    out = grid.ifft(grid.fft(arr) * grid.dealias_mask)
    return out.real if np.isrealobj(arr) else out


def full_spectrum_stack(grid, lead, real, seed=0):
    """Random tensor stack with content up to and on the Nyquist planes."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(lead + grid.shape)
    if not real:
        vals = vals + 1j * rng.standard_normal(lead + grid.shape)
    return vals


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("d", [1, 2, 3])
class TestFusedOperators:
    def test_apply_matches_c2c(self, d, real):
        grid = Grid(d=d, n=8, L=3.0)
        f = full_spectrum_stack(grid, (2, 3), real, seed=d)
        mult = np.exp(-grid.k_sq) * grid.lp_multiplier(0, "S")
        ref = grid.ifft(grid.fft(f) * mult)
        out = grid.apply(f, mult)
        assert np.isrealobj(out) == real
        assert rel_err(out, ref.real if real else ref) < 1e-13

    def test_grad_matches_per_component(self, d, real):
        grid = Grid(d=d, n=8, L=3.0)
        f = full_spectrum_stack(grid, (d, d), real, seed=10 + d)
        ref = np.stack([c2c_deriv(grid, f, a) for a in range(d)])
        out = grid.grad(f)
        assert out.shape == (d, d, d) + grid.shape and np.isrealobj(out) == real
        assert rel_err(out, ref) < 1e-13

    def test_hessian_matches_per_component(self, d, real):
        grid = Grid(d=d, n=8, L=3.0)
        f = full_spectrum_stack(grid, (d + 2,), real, seed=20 + d)

        def d_ab(a, b):
            return c2c_deriv(grid, f, a, 2) if a == b else c2c_deriv(grid, c2c_deriv(grid, f, a), b)

        ref = np.stack([np.stack([d_ab(a, b) for b in range(d)]) for a in range(d)])
        out = grid.hessian(f)
        assert out.shape == (d, d, d + 2) + grid.shape and np.isrealobj(out) == real
        assert rel_err(out, ref) < 1e-13

    def test_div_matches_per_component(self, d, real):
        grid = Grid(d=d, n=8, L=3.0)
        X = full_spectrum_stack(grid, (d, 2, 2), real, seed=30 + d)
        ref = sum(c2c_deriv(grid, c2c_dealias(grid, X[mu]), mu) for mu in range(d))
        out = grid.div(X)
        assert out.shape == (2, 2) + grid.shape and np.isrealobj(out) == real
        assert rel_err(out, ref) < 1e-13

    @pytest.mark.parametrize("n", [8, 32])
    def test_grad_hessian_is_the_two_calls(self, d, real, n):
        grid = Grid(d=d, n=n, L=3.0)
        f = full_spectrum_stack(grid, (d,), real, seed=40 + d)
        grad, hess = grid.grad_hessian(f)
        assert np.array_equal(grad, grid.grad(f)) and np.array_equal(hess, grid.hessian(f))

    def test_odd_derivatives_zero_the_nyquist_plane(self, d, real):
        grid = Grid(d=d, n=8, L=3.0)
        nyq = np.cos(grid.k_nyq * grid.x[d - 1]) * (1.0 if real else 1.0 + 2.0j)
        assert np.max(np.abs(grid.grad(nyq))) < 1e-13
        hess = grid.hessian(nyq)
        for a in range(d):
            for b in range(d):
                # only the second derivative along the Nyquist axis survives
                want = -grid.k_nyq**2 * nyq if a == b == d - 1 else 0.0 * nyq
                assert np.max(np.abs(hess[a, b] - want)) < 1e-13 * grid.k_nyq**2


def test_grad_of_a_tensor_stack_is_one_transform_pair(transform_counts):
    grid = Grid(d=2, n=16, L=2 * np.pi)
    out = grid.grad(full_spectrum_stack(grid, (2, 2), real=True))
    assert out.shape == (2, 2, 2) + grid.shape
    assert transform_counts == {"fft": 1, "ifft": 1}


def test_grad_hessian_is_one_transform_pair(transform_counts):
    grid = Grid(d=2, n=16, L=2 * np.pi)
    grid.grad_hessian(full_spectrum_stack(grid, (2, 2), real=True))
    assert transform_counts == {"fft": 1, "ifft": 1}


# the grids whose named operators are one cached real matrix (n^d <= 64)
MATRIX_GRIDS = [(1, 8), (1, 32), (1, 64), (2, 8)]


def operator_input(grid, name, real, lead=(3, 2), seed=0):
    """A random tensor stack for the named operator; div reads its leading axis
    as the d vector components."""
    return full_spectrum_stack(grid, ((grid.d,) if name == "div" else ()) + lead, real, seed)


def named(grid, name, x):
    """The named operator's output, grad_hessian's pair stacked on one axis."""
    out = getattr(grid, name)(x)
    if name == "grad_hessian":
        grad, hess = out
        return np.concatenate([grad, hess.reshape((grid.d**2,) + hess.shape[2:])])
    return out


def spectral(grid, name, x):
    """The named operator by its transform pair, as grids above the cut-off apply it."""
    attr, summed = _OPERATORS[name]
    return grid._spectral(getattr(grid, attr), summed, x)


@pytest.mark.parametrize("name", sorted(_OPERATORS))
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("d, n", MATRIX_GRIDS)
class TestOperatorMatrices:
    """Grids with n^d <= 64 apply each named operator as one cached real matrix."""

    def test_matches_the_spectral_path(self, d, n, real, name):
        grid = Grid(d=d, n=n, L=3.0)
        stack = operator_input(grid, name, real, seed=100 + d)
        comps = (slice(None),) if name == "div" else ()
        # a lone field, a stack, and a stack whose tensor axes are swapped (not contiguous)
        for x in (stack[comps + (0, 0)], stack, np.swapaxes(stack, -grid.d - 2, -grid.d - 1)):
            got, want = named(grid, name, x), spectral(grid, name, x)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert rel_err(got, want) <= 1e-13

    def test_a_slab_comes_out_as_it_does_alone(self, d, n, real, name):
        grid = Grid(d=d, n=n, L=3.0)
        stack = operator_input(grid, name, real, seed=110 + d)
        comps = (slice(None),) if name == "div" else ()
        whole = named(grid, name, stack)
        out_comps = (slice(None),) * (whole.ndim - 2 - d)
        for slab in ((0, 0), (2, 1), (1,)):
            alone = named(grid, name, stack[comps + slab].copy())
            assert np.array_equal(alone, whole[out_comps + slab])

    def test_built_tables_make_no_transforms(self, d, n, real, name, transform_counts):
        grid = Grid(d=d, n=n, L=3.0)
        x = operator_input(grid, name, real, seed=120 + d)
        first = named(grid, name, x)
        assert transform_counts == {"fft": 1, "ifft": 1}  # the unit fields' pair
        transform_counts.update(fft=0, ifft=0)
        assert np.array_equal(named(grid, name, x), first)
        assert transform_counts == {"fft": 0, "ifft": 0}


@pytest.mark.parametrize("d, n", MATRIX_GRIDS)
def test_a_fresh_grid_holds_no_operator_matrix(d, n):
    grid = Grid(d=d, n=n, L=3.0)
    assert grid._tables == {}
    grid.dealias(full_spectrum_stack(grid, (), real=True))
    assert list(grid._tables) == [("operator", "dealias")]
    mat = grid._tables["operator", "dealias"]
    assert mat.shape == (n**d, n**d) and mat.dtype == np.float64 and not mat.flags.writeable


@pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("name", sorted(_OPERATORS))
def test_larger_grids_stay_on_the_spectral_path(d, n, name):
    grid = Grid(d=d, n=n, L=3.0)
    x = operator_input(grid, name, real=True, lead=(2,), seed=130 + d)
    assert np.array_equal(named(grid, name, x), spectral(grid, name, x))
    assert grid._tables == {}


@pytest.mark.parametrize("name", [*sorted(_OPERATORS), "apply"])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("d, n", [(2, 8), (2, 16), (3, 8), (2, 32)])
def test_every_operator_returns_c_order(d, n, real, name):
    # the operator matrices (n^d <= 64), the dense DFT (n <= 16) and numpy.fft
    # alike: a stack whose tensor axes are swapped comes back C-ordered and
    # equal to the result for its C-ordered copy, so grid.l2, which sums in
    # memory order, reads one number whatever the input's layout
    grid = Grid(d=d, n=n, L=3.0)
    stack = np.swapaxes(operator_input(grid, name, real, seed=140 + d), -grid.d - 2, -grid.d - 1)
    assert not stack.flags.c_contiguous

    def outputs(x):
        out = grid.apply(x, -grid.k_sq) if name == "apply" else getattr(grid, name)(x)
        return out if name == "grad_hessian" else (out,)

    for got, want in zip(outputs(stack), outputs(np.ascontiguousarray(stack)), strict=True):
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)


def numpy_transforms(grid, x):
    """(Grid result, numpy.fft result) of every transform fft and ifft make of x:
    r2c and c2r for real x, the c2c pair for any x."""
    axes = tuple(range(x.ndim - grid.d, x.ndim))
    pairs = [(grid.fft(x), np.fft.fftn(x, axes=axes)), (grid.ifft(x), np.fft.ifftn(x, axes=axes))]
    if np.isrealobj(x):
        half = np.fft.rfftn(x, axes=axes)
        pairs.append((grid.fft(x, half=True), half))
        pairs.append((grid.ifft(half, half=True), np.fft.irfftn(half, s=grid.shape, axes=axes)))
    return pairs


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("d", [1, 2, 3])
class TestDenseTransforms:
    """Grids with n <= 16 transform by dense DFT matrices, larger ones by numpy.fft."""

    @pytest.mark.parametrize("n", [8, 16])
    def test_matches_numpy(self, d, real, n):
        grid = Grid(d=d, n=n, L=3.0)
        stack = full_spectrum_stack(grid, (3, 2), real, seed=50 + d)
        # a lone field, a stack, and a stack whose tensor axes are swapped (not contiguous)
        for x in (stack[0, 0], stack, np.swapaxes(stack, 0, 1)):
            for got, want in numpy_transforms(grid, x):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert rel_err(got, want) <= 1e-13

    @pytest.mark.parametrize("n", [8, 16])
    def test_round_trips(self, d, real, n):
        grid = Grid(d=d, n=n, L=3.0)
        x = full_spectrum_stack(grid, (2,), real, seed=60 + d)
        assert rel_err(grid.ifft(grid.fft(x)), x) <= 1e-13
        if real:
            back = grid.ifft(grid.fft(x, half=True), half=True)
            assert np.isrealobj(back) and rel_err(back, x) <= 1e-13

    @pytest.mark.parametrize("n", [8, 16])
    def test_small_grids_never_call_numpy_fft(self, d, real, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.fft called on a dense-DFT grid")

        for name in ("fft", "ifft", "fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, refuse)
        grid = Grid(d=d, n=n, L=3.0)
        x = full_spectrum_stack(grid, (2,), real, seed=70 + d)
        grid.ifft(grid.fft(x))
        if real:
            grid.ifft(grid.fft(x, half=True), half=True)

    @pytest.mark.parametrize("n", [32, 64])
    def test_large_grids_are_numpy_fft(self, d, real, n):
        grid = Grid(d=d, n=n, L=3.0)
        x = full_spectrum_stack(grid, (2,), real, seed=80 + d)
        for got, want in numpy_transforms(grid, x):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_a_slab_transforms_as_it_does_alone(self, d, real, n):
        # the bit-identity of packed tensor stacks rests on this, on both paths
        grid = Grid(d=d, n=n, L=3.0)
        stack = full_spectrum_stack(grid, (3, 2), real, seed=90 + d)
        for slab in ((0, 0), (2, 1), (1,)):
            alone = [got for got, _ in numpy_transforms(grid, stack[slab].copy())]
            whole = [got[slab] for got, _ in numpy_transforms(grid, stack)]
            for a, b in zip(alone, whole):
                assert np.array_equal(a, b)


class TestSpectralDerivative:
    def test_constant_derivative_vanishes(self, grid2):
        out = deriv(grid2, np.full(grid2.shape, 3.7), axis=0, order=1)
        assert np.max(np.abs(out)) < 1e-13

    @pytest.mark.parametrize("L", [2 * np.pi, 5.0])
    def test_sine_first_derivative(self, L):
        grid = Grid(d=1, n=64, L=L)
        x = grid.x[0]
        out = deriv(grid, np.sin(2 * np.pi * x / L), axis=0, order=1)
        exact = (2 * np.pi / L) * np.cos(2 * np.pi * x / L)
        assert rel_err(out, exact) < 1e-12

    def test_sine_second_derivative(self):
        L = 2 * np.pi
        grid = Grid(d=1, n=64, L=L)
        x = grid.x[0]
        out = deriv(grid, np.sin(2 * np.pi * x / L), axis=0, order=2)
        exact = -((2 * np.pi / L) ** 2) * np.sin(2 * np.pi * x / L)
        assert rel_err(out, exact) < 1e-12

    def test_commutes_with_lp_project(self, grid2):
        f = random_field(grid2, seed=3, real=False)
        a = deriv(grid2, lp_project(grid2, f, 2), axis=1)
        b = lp_project(grid2, deriv(grid2, f, axis=1), 2)
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(f)))


class TestLittlewoodPaley:
    def test_s_partition_of_unity(self, grid2):
        f = random_field(grid2, seed=6, real=False)
        J = max(grid2.lp_band_range())
        total = sum(lp_project(grid2, f, j, kind="S") for j in range(0, J + 1))
        assert rel_err(total, f) < 1e-12

    def test_pure_mode_deep_in_annulus_passes(self):
        grid = Grid(d=1, n=128, L=2 * np.pi)
        # |k| = 6 lies in (2^2, 2^3) strictly inside the j=3 annulus plateau region
        x = grid.x[0]
        f = np.exp(1j * 6 * x)
        out = lp_project(grid, f, 3, kind="P")
        expected = bump_profile(6 / 2**3) - bump_profile(6 / 2**2)
        assert abs(expected - 1.0) < 1e-12  # oracle: mode sits where the multiplier is 1
        assert rel_err(out, f) < 1e-12

    def test_disjoint_projectors_annihilate(self, grid2):
        f = random_field(grid2, seed=7, real=False)
        out = lp_project(grid2, lp_project(grid2, f, 4, "P"), 1, "P")
        assert np.max(np.abs(out)) < 1e-12 * max(1.0, np.max(np.abs(f)))

    def test_s_requires_nonnegative_j(self, grid2):
        with pytest.raises(SmcfValidationError):
            lp_project(grid2, np.zeros(grid2.shape, dtype=complex), -1, kind="S")

    def test_bernstein_regression(self):
        # L^inf vs 2^{kd/2} L^2 on random band-limited data; constant frozen once
        grid = Grid(d=2, n=64, L=2 * np.pi)
        rng = np.random.default_rng(8)
        worst = 0.0
        for k in (2, 3, 4):
            hat = np.zeros(grid.shape, dtype=complex)
            band = (grid.k_mag >= 2.0 ** (k - 1)) & (grid.k_mag <= 2.0 ** (k + 1))
            hat[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
            f = grid.ifft(hat)
            pk = lp_project(grid, f, k, "P")
            ratio = grid.linf(pk) / (2.0 ** (k * grid.d / 2) * grid.l2(pk))
            worst = max(worst, ratio)
        assert worst <= calibration.BERNSTEIN_CONSTANT


class TestInverseLaplacian:
    def test_zero_maps_to_zero(self, grid2):
        assert np.max(np.abs(grid2.inv_laplacian(np.zeros(grid2.shape)))) == 0.0

    def test_inverts_laplacian_on_mean_zero(self, grid2):
        g_vals = random_field(grid2, seed=9)
        g_vals = g_vals - g_vals.mean()
        out = grid2.inv_laplacian(grid2.laplacian(g_vals))
        assert rel_err(out, g_vals) < 1e-12

    def test_constant_projected_out(self, grid2):
        assert np.max(np.abs(grid2.inv_laplacian(np.full(grid2.shape, 2.0)))) < 1e-14


def dealiased_product(grid, f, g):
    """The 2/3-rule product: truncate both factors, multiply, truncate again."""
    return grid.dealias(grid.dealias(f) * grid.dealias(g))


class TestDealiasedProduct:
    def test_product_with_one(self, grid2):
        f = np.random.default_rng(10).standard_normal(grid2.shape).astype(complex)
        out = dealiased_product(grid2, f, np.ones(grid2.shape))
        trunc = grid2.dealias(f)
        assert rel_err(out, trunc) < 1e-13

    def test_two_modes_convolve(self):
        grid = Grid(d=1, n=64, L=2 * np.pi)
        x = grid.x[0]
        out = dealiased_product(grid, np.exp(1j * 3 * x), np.exp(1j * 5 * x))
        assert rel_err(out, np.exp(1j * 8 * x)) < 1e-12


class TestSnapshotIO:
    def test_bit_exact_roundtrip(self, tmp_path, grid2):
        rng = np.random.default_rng(13)
        vals = rng.standard_normal(grid2.shape) + 1j * rng.standard_normal(grid2.shape)
        f = GridField(grid2, vals, parity="complex", name="lambda_01")
        path = tmp_path / "f.smcf"
        write_field(path, f)
        back = read_field(path)
        assert np.array_equal(back.values, f.values)
        assert back.name == f.name
        assert back.parity == f.parity
        assert back.grid.n == grid2.n and back.grid.L == grid2.L

    def test_real_parity_preserved(self, tmp_path, grid2):
        f = GridField.from_real(grid2, np.random.default_rng(14).standard_normal(grid2.shape), name="h_00")
        path = tmp_path / "h.smcf"
        write_field(path, f)
        back = read_field(path, grid=grid2)
        assert back.parity == "real"
        assert np.array_equal(back.values, f.values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.smcf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(SmcfValidationError):
            read_field(path)


class TestEvalAtPoints:
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_grid_samples(self, d):
        grid = Grid(d=d, n=16, L=2 * np.pi)
        f = random_field(grid, seed=15, real=False)
        pts = np.stack([g.ravel() for g in grid.x], axis=-1)
        vals = grid.eval_at_points(f, pts)
        assert rel_err(vals.reshape(grid.shape), f) < 1e-11

    def test_band_limited_exactness_off_grid(self):
        grid = Grid(d=2, n=32, L=2 * np.pi)
        X, Y = grid.x
        f = np.sin(3 * X) * np.cos(2 * Y)
        rng = np.random.default_rng(16)
        pts = rng.uniform(0, 2 * np.pi, size=(50, 2))
        vals = grid.eval_at_points(f, pts)
        exact = np.sin(3 * pts[:, 0]) * np.cos(2 * pts[:, 1])
        assert np.max(np.abs(vals - exact)) < 1e-11

    @pytest.mark.parametrize(
        "d, n", [(1, 8), (1, 16), (1, 64), (1, 128), (2, 8), (2, 16), (2, 64), (2, 128), (3, 8), (3, 32)]
    )
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "stacked"])
    def test_matches_direct_sum(self, d, n, real, lead):
        grid = Grid(d=d, n=n, L=2 * np.pi * 1.3)
        f = random_field(grid, seed=17, real=real, lead=lead)
        rng = np.random.default_rng(18)
        pts = rng.uniform(-grid.L, 2 * grid.L, size=(200, d))
        pts = np.vstack([pts, np.full((1, d), 0.0), np.full((1, d), -1e-14), np.full((1, d), grid.L - 1e-14)])
        fast = grid.eval_at_points(f, pts)
        direct = direct_eval_at_points(grid, f, pts)
        assert fast.shape == direct.shape == lead + (len(pts),)
        assert np.isrealobj(fast) == real
        assert np.max(np.abs(fast - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_gather_memory_is_chunked(self):
        # a (4, 128, 128) stack at every grid point: an unchunked gather would
        # hold 4 * 16384 * 16^2 values at once
        grid = Grid(d=2, n=128, L=16.0)
        f = random_field(grid, seed=19, lead=(4,))
        pts = np.stack([g.ravel() for g in grid.x], axis=-1) + 0.01
        tracemalloc.start()
        try:
            grid.eval_at_points(f, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48e6
