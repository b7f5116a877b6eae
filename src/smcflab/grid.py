"""Uniform periodic grid with FFT calculus and dyadic projections.

All fields live on the torus [0, L)^d sampled at n points per axis.  Spatial
axes are always the *last* d axes of an array, so tensor components can be
stacked in front and every operator broadcasts over them.

Conventions:
  * physical wavenumbers k = 2*pi*m/L with integer m in FFT ordering;
  * L2 norms carry the grid measure (L/n)^d, so Parseval holds exactly;
  * the dyadic scale j = 0 sits at wavenumber 1 in box units.

Grid.fft and Grid.ifft are the only transform call sites, with two regimes.
Grids with n <= 16 points per axis multiply by cached dense DFT matrices, one
spatial axis at a time, since at that size numpy.fft's per-call overhead costs
more than the O(n^(d+1)) arithmetic.  Their rounding error grows as O(n eps)
where an FFT's grows as O(log n eps); at n = 16 they match numpy.fft to under
1e-15 relative, and a constant field leaks that much into the nonzero modes.
Larger grids call numpy.fft.

A third regime skips the transforms: on grids of at most 64 points n^d, the
named operators dealias, grad, hessian, grad_hessian and div are each one real
matrix, the spectral operator built from the unit fields on first use
(Trefethen, Spectral Methods in MATLAB, 2000, ch. 3), applied by
Grid._operator alone.

The dyadic projector profile is a fixed C^infinity bump: 1 on [-1, 1],
supported in [-2, 2] with the transition completed by |r| = 3/2, glued with
the standard exp(-1/t) smoothstep

    step(t) = q(t) / (q(t) + q(1 - t)),   q(t) = exp(-1/t) for t > 0,
    bump(r) = step(2 (3/2 - |r|))   for 1 < |r| < 3/2.

Finishing the transition at 3/2 gives each annulus multiplier
bump(k/2^j) - bump(k/2^(j-1)) a genuine plateau [0.75 * 2^j, 2^j] where it
equals 1 exactly.  The profile is frozen so every projector-dependent number
in the tests is deterministic.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridMismatchError, SmcfValidationError

SNAPSHOT_MAGIC = b"SMCF"
SNAPSHOT_VERSION = 1
# version, d, n, L, parity flag (0 real, 1 complex), name length
_HEADER = struct.Struct("<IIIdBI")

# Type-2 NUFFT behind Grid.eval_at_points (Barnett, Magland & af Klinteberg,
# SISC 41, 2019): the exponential-of-semicircle kernel spans _NUFFT_WIDTH points
# of a grid oversampled _NUFFT_SIGMA times, with their shape parameter
# beta = 2.30 w for sigma = 2.  Its Fourier factors take _NUFFT_NODES
# Gauss-Legendre nodes; the gather runs in chunks of about _NUFFT_CHUNK values.
_NUFFT_SIGMA = 2
_NUFFT_WIDTH = 16
_NUFFT_BETA = 2.30 * _NUFFT_WIDTH
_NUFFT_NODES = 3 * _NUFFT_WIDTH
_NUFFT_CHUNK = 1 << 20

# Grids with at most this many points per axis transform by dense DFT
# matrices (Grid._dft).  Per call on a (2, 2) stack with one BLAS thread,
# numpy.fft -> dense: d = 2, n = 8, r2c 32 -> 15 us; d = 2, n = 16, r2c 28 ->
# 19 us; d = 2, n = 32, c2c 70 -> 56 us but its inverse 59 -> 62 us; d = 3,
# n = 16, c2r 283 -> 132 us but c2c 232 -> 507 us; d = 2, n = 64, c2c 289 -> 423 us.
_DENSE_DFT_MAX_N = 16

# Grids with at most this many points n^d apply the named operators below as
# one cached real matrix (Grid._operator).  Per call on a (2, 2) stack of real
# fields with one BLAS thread, transform pair -> matrix: d = 2, n = 8, dealias
# 29 -> 8 us, grad 39 -> 12 us, hessian 42 -> 18 us, grad_hessian 48 -> 28 us,
# div 38 -> 18 us; d = 1, n = 32, dealias 23 -> 4.5 us; d = 1, n = 64, grad
# 24 -> 6 us; but d = 2, n = 16, grad 37 -> 52 us, hessian 47 -> 207 us, and
# d = 3, n = 8, dealias 60 -> 188 us.
_OPERATOR_MATRIX_MAX_POINTS = 64
# name -> (multiplier stack attribute, whether the operator pairs the stack
# with the leading axis of its input and sums over it)
_OPERATORS = {
    "dealias": ("dealias_mask", False),
    "grad": ("_grad_mult", False),
    "hessian": ("_hessian_mult", False),
    "grad_hessian": ("_grad_hessian_mult", False),
    "div": ("_div_mult", True),
}


def _smoothstep(t):
    """C^infinity transition from 0 (t<=0) to 1 (t>=1)."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        qa = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        qb = np.where(1.0 - t > 0.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return qa / (qa + qb)


def _es_kernel(z):
    """Exponential of semicircle exp(beta (sqrt(1 - z^2) - 1)) on [-1, 1]."""
    return np.exp(_NUFFT_BETA * (np.sqrt(np.maximum(1.0 - z * z, 0.0)) - 1.0))


def bump_profile(r):
    """Radial bump: 1 on [-1,1], 0 beyond 3/2, smooth in between."""
    r = np.abs(np.asarray(r, dtype=float))
    out = np.zeros_like(r)
    out[r <= 1.0] = 1.0
    mid = (r > 1.0) & (r < 1.5)
    out[mid] = _smoothstep(2.0 * (1.5 - r[mid]))
    return out


class Grid:
    """Uniform periodic grid over [0, L)^d, n points per axis (n a power of two)."""

    def __init__(self, d, n, L, dealias_fraction=2.0 / 3.0):
        if d not in (1, 2, 3):
            raise SmcfValidationError(f"dimension must be 1, 2 or 3, got {d}")
        if n < 8 or (n & (n - 1)) != 0:
            raise SmcfValidationError(f"points per axis must be a power of two >= 8, got {n}")
        if not L > 0:
            raise SmcfValidationError(f"box length must be positive, got {L}")
        if not 0.0 < dealias_fraction <= 1.0:
            raise SmcfValidationError(f"dealias fraction must lie in (0,1], got {dealias_fraction}")
        self.d = int(d)
        self.n = int(n)
        self.L = float(L)
        self.dealias_fraction = float(dealias_fraction)
        self.dx = self.L / self.n
        self.shape = (self.n,) * self.d

        k1 = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        self.k1d = k1
        # broadcastable per-axis wavenumber arrays
        self.k = []
        for a in range(self.d):
            sh = [1] * self.d
            sh[a] = self.n
            self.k.append(k1.reshape(sh))
        self.k_nyq = 2.0 * np.pi / self.L * (self.n // 2)
        self.x1d = np.arange(self.n) * self.dx

        self._tables = {}
        self._spread_plans = {}

    # The full-grid arrays are built on first use, so a grid that only
    # transforms (the oversampled grid of eval_at_points) never holds them.

    @cached_property
    def k_sq(self):
        return sum(ka**2 for ka in self.k)

    @cached_property
    def k_mag(self):
        return np.sqrt(self.k_sq)

    @cached_property
    def dealias_mask(self):
        cut = self.dealias_fraction * self.k_nyq
        mask = np.ones(self.shape, dtype=bool)
        for a in range(self.d):
            mask &= np.abs(self.k[a]) <= cut + 1e-12 * self.k_nyq
        return mask

    @cached_property
    def x(self):
        return np.meshgrid(*([self.x1d] * self.d), indexing="ij")

    @cached_property
    def _inv_lap_mult(self):
        return np.where(self.k_sq > 0.0, -1.0 / np.where(self.k_sq > 0, self.k_sq, 1.0), 0.0)

    # -- basic transforms ---------------------------------------------------
    # The only transform call sites: every spectral operator below reaches
    # numpy.fft, or the dense DFT matrices of a small grid, through these two
    # methods.

    def fft(self, arr, half=False):
        """Forward transform over the spatial axes; half=True takes the r2c
        half spectrum of a real array (last axis cut to n//2 + 1)."""
        arr = np.asarray(arr)
        if self.n > _DENSE_DFT_MAX_N:
            if half:
                return np.fft.rfftn(arr, axes=self._axes(arr))
            return np.fft.fftn(arr, axes=self._axes(arr))
        fwd, fwd_ri, _, _ = self._dft
        if np.isrealobj(arr):
            # one real product on interleaved (re, im) columns, viewed as complex
            cols = 2 * (self.n // 2 + 1) if half else 2 * self.n
            hat = self._along_last(arr, fwd_ri[:, :cols]).view(np.complex128)
        else:
            hat = self._along_last(arr, fwd)
        return self._along_leading(hat, fwd)

    def ifft(self, hat, half=False):
        """Inverse of fft; half=True turns a half spectrum back into a real array."""
        hat = np.asarray(hat)
        if self.n > _DENSE_DFT_MAX_N:
            if half:
                return np.fft.irfftn(hat, s=self.shape, axes=self._axes(hat))
            return np.fft.ifftn(hat, axes=self._axes(hat))
        _, _, inv, inv_half = self._dft
        if half:
            arr = np.ascontiguousarray(self._along_leading(hat, inv), dtype=np.complex128)
            return self._along_last(arr.view(np.float64), inv_half)
        return self._along_leading(self._along_last(hat, inv), inv)

    @cached_property
    def _dft(self):
        """The one-axis DFT matrices of a grid with n <= _DENSE_DFT_MAX_N, from a
        root table w[m] = exp(-2 pi i m / n) with exact +-1, +-i and
        w[n - m] = conj(w[m]):
          F[j, k] = w[jk] (symmetric), and F_ri, real (n, 2n), its Re and Im
          in alternating columns;
          F^-1 = conj(F) / n;
          C2R, real (2 (n//2 + 1), n), taking interleaved (Re, Im) pairs of a
          half spectrum to the real inverse: rows c_k Re F^-1 and -c_k Im F^-1,
          c_k = 2 but for k = 0 and n/2, whose Im rows vanish (numpy's irfft
          also ignores those imaginary parts)."""
        n, half = self.n, self.n // 2 + 1
        w = np.exp(-2j * np.pi * np.arange(n // 2 + 1) / n)
        w[[0, n // 4, n // 2]] = 1.0, -1j, -1.0
        w = np.concatenate([w, np.conj(w[1 : n // 2][::-1])])
        fwd = w[np.outer(np.arange(n), np.arange(n)) % n]
        fwd_ri = np.stack([fwd.real, fwd.imag], axis=-1).reshape(n, 2 * n)
        inv = np.conj(fwd) / n
        c = np.full((half, 1), 2.0)
        c[[0, -1]] = 1.0
        inv_half = np.stack([c * inv[:half].real, -c * inv[:half].imag], axis=1).reshape(2 * half, n)
        return fwd, fwd_ri, inv, inv_half

    def _along_last(self, x, mat):
        """x @ mat over the last axis.  Every slab of the tensor stack takes the
        same BLAS call, a gemm of its n^(d-1) rows (a gemv when d = 1), so a
        slab transforms bit-identically alone or inside a stack."""
        lead = x.shape[: x.ndim - self.d]
        return (x.reshape(lead + (-1, x.shape[-1])) @ mat).reshape(x.shape[:-1] + (mat.shape[1],))

    def _along_leading(self, x, mat):
        """mat applied along every spatial axis but the last; as in _along_last,
        every slab takes the same gemm calls."""
        lead = x.shape[: x.ndim - self.d]
        for a in range(self.d - 1):
            x = (mat @ x.reshape(lead + (self.n**a, self.n, -1))).reshape(x.shape)
        return x

    def half(self, mult):
        """A full-spectrum multiplier cut to the r2c half spectrum of fft(..., half=True)."""
        return mult[..., : self.n // 2 + 1]

    def _axes(self, arr):
        nd = np.ndim(arr)
        return tuple(range(nd - self.d, nd))

    # -- measures and norms -------------------------------------------------

    @property
    def cell_volume(self):
        return self.dx**self.d

    def l2(self, arr):
        """L2 norm with grid measure; sums over every axis (components included)."""
        a = np.asarray(arr)
        return float(np.sqrt(np.sum(np.abs(a) ** 2) * self.cell_volume))

    def linf(self, arr):
        return float(np.max(np.abs(arr))) if np.asarray(arr).size else 0.0

    # -- multiplier operators ------------------------------------------------

    def apply(self, arr, mult):
        """Fourier multiplier: ifft(mult * fft(arr)) over the spatial axes.

        A real arr takes the r2c path on the half spectrum and comes back real,
        so mult must be Hermitian, mult(-k) = conj(mult(k)), as every
        multiplier here is; complex input stays c2c.  Leading axes of mult
        broadcast against the tensor axes of arr.
        """
        hat, real = self._spectrum(arr, mult)
        return self.ifft(hat, half=real)

    def _spectrum(self, arr, mult):
        """(mult * fft(arr), real), on the half spectrum when arr is real."""
        arr = np.asarray(arr)
        if np.isrealobj(arr):
            return self.fft(arr, half=True) * self.half(mult), True
        return self.fft(arr) * mult, False

    def _over(self, mult, arr):
        """Reshape a multiplier stack (*stack, *shape) to broadcast over the tensor axes of arr."""
        stack = mult.shape[: mult.ndim - self.d]
        return mult.reshape(stack + (1,) * (np.ndim(arr) - self.d) + self.shape)

    def _deriv_mult(self, axis, order):
        mult = (1j * self.k[axis]) ** order
        if order % 2 == 1:
            # odd derivatives break Hermitian symmetry on the Nyquist plane
            mult = np.where(np.abs(np.abs(self.k[axis]) - self.k_nyq) < 1e-12, 0.0, mult)
        return mult

    @cached_property
    def _grad_hessian_mult(self):
        """The d gradient multipliers stacked on the d*d Hessian ones; _grad_mult
        and _hessian_mult are views of it."""
        grad = np.stack([np.broadcast_to(self._deriv_mult(a, 1), self.shape) for a in range(self.d)])
        hessian = grad[:, None] * grad[None, :]
        for a in range(self.d):
            hessian[a, a] = self._deriv_mult(a, 2)
        return np.concatenate([grad, hessian.reshape((self.d**2,) + self.shape)])

    @cached_property
    def _grad_mult(self):
        return self._grad_hessian_mult[: self.d]

    @cached_property
    def _hessian_mult(self):
        return self._grad_hessian_mult[self.d :].reshape((self.d, self.d) + self.shape)

    @cached_property
    def _div_mult(self):
        return self._grad_mult * self.dealias_mask

    def grad(self, arr):
        """[a] = d_a arr for every axis, a new leading axis of length d; one transform
        pair, or one matrix product on a tiny grid (_operator)."""
        return self._operator("grad", arr)

    def hessian(self, arr):
        """[a, b] = d_a d_b arr, two new leading axes; one transform pair, or one
        matrix product on a tiny grid (_operator).

        Mixed derivatives zero the Nyquist planes of both axes, as two first
        derivatives would; the diagonal is the second derivative (i k_a)^2.
        """
        return self._operator("hessian", arr)

    def grad_hessian(self, arr):
        """(grad(arr), hessian(arr)) from one forward transform and one inverse of
        the stacked multiplier, or one matrix product on a tiny grid;
        bit-identical to the two calls."""
        both = self._operator("grad_hessian", arr)
        return both[: self.d], both[self.d :].reshape((self.d, self.d) + both.shape[1:])

    def div(self, X):
        """sum_mu d_mu dealias(X[mu]) over the leading axis of X; one transform
        pair, or one matrix product on a tiny grid (_operator)."""
        return self._operator("div", X)

    def _operator(self, name, arr):
        """The operator `name` of _OPERATORS over the spatial axes of arr.

        On a grid of at most _OPERATOR_MATRIX_MAX_POINTS points it is one real
        matrix, (out components * n^d, in components * n^d), built on first use
        by passing the unit fields through the spectral path and kept in the
        grid's tables.  Every multiplier here is Hermitian, so the matrix is
        real, and a complex arr takes it on its interleaved (Re, Im) view.  Each
        slab of the tensor stack is one batched product mat @ (n^d, 1 or 2), the
        same BLAS call alone or inside a stack, so a slab comes out
        bit-identical either way.  Larger grids take the spectral path.
        """
        attr, summed = _OPERATORS[name]
        mult = getattr(self, attr)
        x = np.asarray(arr)
        points = self.n**self.d
        if points > _OPERATOR_MATRIX_MAX_POINTS:
            return self._spectral(mult, summed, x)

        def build():
            ins = self.d if summed else 1
            units = np.eye(ins * points).reshape((ins * points, ins) + self.shape)
            out = self._spectral(mult, summed, np.moveaxis(units, 1, 0) if summed else units[:, 0])
            # out[c, q, p] is entry ((c, p), q) of the matrix
            mat = np.ascontiguousarray(out.reshape(-1, ins * points, points).transpose(0, 2, 1))
            return mat.reshape(-1, ins * points)

        mat = self.table(("operator", name), build)
        stack = () if summed else mult.shape[: mult.ndim - self.d]
        if summed:
            # each slab's d components side by side; np.moveaxis(x, 0, -d - 1)
            # costs more than the product at this size
            k = x.ndim - self.d
            x = x.transpose((*range(1, k), 0, *range(k, x.ndim)))
        lead = x.shape[: x.ndim - self.d - summed]
        if np.isrealobj(x):
            out = mat @ np.ascontiguousarray(x, dtype=np.float64).reshape(-1, mat.shape[1], 1)
        else:
            pairs = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
            out = (mat @ pairs.reshape(-1, mat.shape[1], 2)).view(np.complex128)
        out = out.reshape(-1, mat.shape[0] // points, points).transpose(1, 0, 2)
        return np.ascontiguousarray(out).reshape(stack + lead + self.shape)

    def _spectral(self, mult, summed, arr):
        """The multiplier stack mult applied by one transform pair: broadcast over
        the tensor axes of arr, or, when summed, paired with its leading axis and
        summed over it before the inverse."""
        if summed:
            hat, real = self._spectrum(arr, self._over(mult, arr[0]))
            return self.ifft(hat.sum(axis=0), half=real)
        return self.apply(arr, self._over(mult, arr))

    def inv_laplacian(self, arr):
        """Spectral solve of Laplace u = arr with the zero mode projected out."""
        return self.apply(arr, self._inv_lap_mult)

    def laplacian(self, arr):
        return self.apply(arr, -self.k_sq)

    # -- Littlewood-Paley ----------------------------------------------------

    def lp_multiplier(self, j, kind="P"):
        if kind == "P":
            return bump_profile(self.k_mag / 2.0**j) - bump_profile(self.k_mag / 2.0 ** (j - 1))
        if kind == "S":
            if j < 0:
                raise SmcfValidationError("S projections require j >= 0")
            if j == 0:
                return bump_profile(self.k_mag)
            return bump_profile(self.k_mag / 2.0**j) - bump_profile(self.k_mag / 2.0 ** (j - 1))
        raise SmcfValidationError(f"projection kind must be 'P' or 'S', got {kind!r}")

    def table(self, key, build):
        """The array build() returns, made on the first call with this key and kept
        read-only for the grid's lifetime: the band stacks, the norms' weight
        tables, the steppers' per-dt factors and the operator matrices of a
        tiny grid.  A fresh grid holds none."""
        if key not in self._tables:
            arr = build()
            arr.setflags(write=False)
            self._tables[key] = arr
        return self._tables[key]

    def lp_bands(self, kind="P"):
        """Every band's multiplier stacked on a leading axis, built once per grid:
        P_j for j in lp_band_range(), S_j for j = 0..max(0, max(lp_band_range()))."""
        js = self.lp_band_range() if kind == "P" else range(max(0, max(self.lp_band_range())) + 1)
        return self.table(("lp_bands", kind), lambda: np.stack([self.lp_multiplier(j, kind) for j in js]))

    def lp_band_range(self):
        """Dyadic indices j whose annulus intersects the resolvable spectrum."""
        return self._lp_band_range

    @cached_property
    def _lp_band_range(self):
        kmin = 2.0 * np.pi / self.L
        kmax = self.k_mag.max()
        j_lo = int(np.floor(np.log2(kmin)))
        j_hi = int(np.ceil(np.log2(kmax))) + 1
        return range(j_lo, j_hi + 1)

    # -- dealiasing ------------------------------------------------------------

    def dealias(self, arr):
        return self._operator("dealias", arr)

    # -- nonuniform evaluation -------------------------------------------------

    @cached_property
    def _fine(self):
        """The grid oversampled _NUFFT_SIGMA times that eval_at_points interpolates from."""
        return Grid(self.d, _NUFFT_SIGMA * self.n, self.L, self.dealias_fraction)

    @cached_property
    def _kernel_factors(self):
        """L / (n psi_hat(k)) per axis in FFT order, for the kernel psi(x) = es(x / alpha)
        of half-width alpha = w dx_fine / 2; psi_hat by Gauss-Legendre quadrature."""
        z, weights = np.polynomial.legendre.leggauss(_NUFFT_NODES)
        alpha = _NUFFT_WIDTH * self._fine.dx / 2.0
        psi_hat = alpha * np.cos(np.outer(self.k1d * alpha, z)) @ (weights * _es_kernel(z))
        return self.L / (self.n * psi_hat)

    def _spread_plan(self, real):
        """(source slots, fine slots, multiplier) that move fft(arr, half=real),
        divided by the kernel factors, onto the fine spectrum."""
        if real not in self._spread_plans:
            n = self.n
            if real:
                modes = [np.arange(-n // 2, n // 2 + 1)] * (self.d - 1) + [np.arange(n // 2 + 1)]
            else:
                modes = [np.fft.fftfreq(n, 1.0 / n).astype(int)] * self.d
            mesh = np.ix_(*modes)
            mult = math.prod(self._kernel_factors[m % n] for m in mesh)
            if real:
                # Re of the sum over the FFT box [-n/2, n/2)^d is the sum over the
                # Hermitian box [-n/2, n/2]^d that halves each mode on a Nyquist
                # face and drops the modes with both a +n/2 and a -n/2 index
                no_plus = math.prod(m != n // 2 for m in mesh)
                no_minus = math.prod(m != -n // 2 for m in mesh)
                mult = mult * 0.5 * (no_plus + no_minus)
            src = tuple(m % n for m in mesh)
            dst = tuple(m % self._fine.n for m in mesh)
            self._spread_plans[real] = src, dst, mult
        return self._spread_plans[real]

    def eval_at_points(self, arr, pts):
        """Evaluate the band-limited interpolant at arbitrary points.

        pts: array (P, d) of physical coordinates (any real values; periodic).
        Returns shape leading + (P,), one evaluation for the whole stack; a real
        arr gives the real part of the Fourier sum over the FFT box.

        Type-2 NUFFT (Barnett, Magland & af Klinteberg, SISC 41, 2019): the
        spectrum is divided by the Fourier factors of the exponential-of-
        semicircle kernel, zero-padded to a grid oversampled sigma = 2 times and
        transformed once; each point then sums its w^d = 16^d nearest fine-grid
        values weighted by the kernel.  It matches the direct O(P n^d) sum to
        about 1e-14 relative and costs O(n^d log n + P w^d).
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        real = np.isrealobj(arr)
        hat = self.fft(arr, half=real)
        src, dst, mult = self._spread_plan(real)
        fine = self._fine
        lead = hat.shape[: hat.ndim - self.d]
        spec = np.zeros(lead + fine.shape[:-1] + (fine.n // 2 + 1 if real else fine.n,), dtype=complex)
        spec[(Ellipsis,) + dst] = hat[(Ellipsis,) + src] * mult
        w = _NUFFT_WIDTH
        # wrap-pad every axis by w - 1 so the w^d neighbours of a point are one window
        u = np.pad(fine.ifft(spec, half=real), [(0, 0)] * len(lead) + [(0, w - 1)] * self.d, mode="wrap")
        windows = sliding_window_view(u, (w,) * self.d, axis=self._axes(u))
        out = np.empty(lead + (len(pts),), dtype=u.dtype)
        step = max(1, _NUFFT_CHUNK // (w**self.d * math.prod(lead)))
        for lo in range(0, len(pts), step):
            t = pts[lo : lo + step] / fine.dx  # (p, d) in fine-grid units
            first = np.floor(t - w / 2).astype(np.int64) + 1
            ker = _es_kernel(((t - first)[..., None] - np.arange(w)) / (w / 2))  # (p, d, w)
            vals = windows[(slice(None),) * len(lead) + tuple((first % fine.n).T)]  # (..., p, w, ..., w)
            # the kernel is a product over axes: contract the window one axis at a time
            for a in reversed(range(1, self.d)):
                vals = np.matmul(vals, ker[:, a].reshape((len(t),) + (1,) * (a - 1) + (w, 1)))[..., 0]
            out[..., lo : lo + step] = np.einsum("...pk,pk->...p", vals, ker[:, 0])
        return out


# -- GridField: the public field type ------------------------------------------


@dataclass(frozen=True)
class GridField:
    """Scalar field sampled on a Grid, with a declared parity.  Its values are
    read-only and its fields cannot be rebound, so it keeps its spectra."""

    grid: Grid
    values: np.ndarray
    parity: str = "complex"  # "real" | "complex"
    name: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != self.grid.shape:
            raise GridMismatchError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if self.parity not in ("real", "complex"):
            raise SmcfValidationError(f"parity must be 'real' or 'complex', got {self.parity!r}")
        values = vals.astype(np.complex128, copy=True)
        if self.parity == "real":
            values = values.real.astype(np.complex128)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_real(cls, grid, arr, name=""):
        return cls(grid, np.asarray(arr, dtype=float), parity="real", name=name)

    @cached_property
    def hat(self):
        """The full spectrum of values, kept read-only."""
        hat = self.grid.fft(self.values)
        hat.setflags(write=False)
        return hat

    @cached_property
    def _half_hat(self):
        """The r2c half spectrum of a real field, kept read-only."""
        hat = self.grid.fft(self.values.real, half=True)
        hat.setflags(write=False)
        return hat

    def apply(self, mult):
        """The Fourier multiplier of Grid.apply on the kept spectrum: a real field
        multiplies its half spectrum and comes back real."""
        if self.parity == "real":
            return self.grid.ifft(self._half_hat * self.grid.half(mult), half=True)
        return self.grid.ifft(self.hat * mult)


# -- snapshot IO -----------------------------------------------------------------


def write_field(path, field: GridField):
    """Self-describing binary snapshot; bit-exact round trip."""
    name_bytes = field.name.encode("utf-8")
    header = SNAPSHOT_MAGIC + _HEADER.pack(
        SNAPSHOT_VERSION,
        field.grid.d,
        field.grid.n,
        field.grid.L,
        0 if field.parity == "real" else 1,
        len(name_bytes),
    )
    data = np.ascontiguousarray(
        np.stack([field.values.real, field.values.imag], axis=-1), dtype="<f8"
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(name_bytes)
        fh.write(data.tobytes())


def read_field(path, grid: Grid | None = None) -> GridField:
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise SmcfValidationError(f"{path}: cannot open snapshot: {exc.strerror}") from None
    with fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise SmcfValidationError(f"{path}: bad magic {magic!r}")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise SmcfValidationError(f"{path}: truncated header, {len(header)} of {_HEADER.size} bytes")
        version, d, n, L, parity_flag, name_len = _HEADER.unpack(header)
        if version != SNAPSHOT_VERSION:
            raise SmcfValidationError(f"{path}: unsupported snapshot version {version}")
        if parity_flag not in (0, 1):
            raise SmcfValidationError(f"{path}: parity byte {parity_flag} is neither 0 (real) nor 1 (complex)")
        rest = fh.read()  # name_len is not trusted with an allocation of its own
    name, payload = rest[:name_len], rest[name_len:]
    if len(name) != name_len:
        raise SmcfValidationError(f"{path}: truncated name, {len(name)} of {name_len} bytes")
    try:
        name = name.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SmcfValidationError(f"{path}: field name is not UTF-8") from exc
    if grid is None:
        grid = Grid(d, n, L)
    elif (grid.d, grid.n) != (d, n) or grid.L != L:
        raise GridMismatchError(f"{path}: snapshot grid ({d},{n},{L}) differs from target")
    expected = 16 * n**d
    if len(payload) != expected:
        raise SmcfValidationError(f"{path}: payload has {len(payload)} bytes, expected {expected}")
    pairs = np.frombuffer(payload, dtype="<f8").reshape((n,) * d + (2,))
    if not np.all(np.isfinite(pairs)):
        raise SmcfValidationError(f"{path}: payload holds a non-finite value")
    if parity_flag == 0 and np.any(pairs[..., 1]):
        raise SmcfValidationError(f"{path}: real field with a nonzero imaginary part")
    values = pairs[..., 0] + 1j * pairs[..., 1]
    return GridField(grid, values, parity="real" if parity_flag == 0 else "complex", name=name)
