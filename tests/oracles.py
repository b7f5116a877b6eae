"""Test oracles: closed forms and reference norms that only the tests evaluate.

None of these runs in the pipeline; each is an independent statement of a
quantity the package computes another way (or a norm the paper defines that a
run does not report), kept here so the package ships only what runs.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from smcflab.errors import IntegrabilityError, SmcfValidationError
from smcflab.geometry import (
    Immersion,
    MetricState,
    SecondForm,
    covariant_derivative,
    identity_metric,
    induced_metric,
    normal_connection,
    raise_first,
    second_form,
)
from smcflab.grid import Grid, GridField, _smoothstep
from smcflab.norms import _cube_l2, _spectral_sums, cube_weights
from smcflab.parabolic import GaugeState
from smcflab.reconstruction import Frame


class ScaleExceedsBoxError(SmcfValidationError):
    """Cube scale larger than the box."""


# -- grid -----------------------------------------------------------------------


def deriv(grid: Grid, arr, axis, order=1):
    """order-th spectral derivative of arr along one spatial axis."""
    return grid.apply(arr, grid._deriv_mult(axis, order))


def lp_project(grid: Grid, arr, j, kind="P"):
    """The Littlewood-Paley projection P_j (or S_j) of arr."""
    return grid.apply(arr, grid.lp_multiplier(j, kind))


# -- geometry -------------------------------------------------------------------


def graph_metric_oracle(F: Immersion) -> np.ndarray:
    """Closed-form induced metric of a graph: delta_ab + du_a . du_b."""
    grid = F.grid
    if not F.graph:
        raise SmcfValidationError("oracle applies to graph immersions only")
    du = grid.grad(F.dev[grid.d :])  # (d, 2, *shape)
    return np.einsum("aj...,bj...->ab...", du, du) + identity_metric(grid)


def analytic_second_form(m: MetricState, r: float) -> SecondForm:
    """Product of circles of radius r, on its metric m: lambda_11 = -1/r,
    lambda_22 = -i/r, lambda_12 = 0, psi = -(1+i)/r."""
    grid = m.grid
    lam = np.zeros((2, 2) + grid.shape, dtype=complex)
    lam[0, 0] = -1.0 / r
    lam[1, 1] = -1j / r
    psi = np.full(grid.shape, -(1.0 + 1j) / r, dtype=complex)
    return SecondForm(m, lam, psi)


def sphere_cap_metric(grid: Grid, radius: float, cap_width: float) -> MetricState:
    """Round-sphere metric on a small cap, smoothly cut off into the flat plane.

    Conformal form g = phi(x)^2 I with phi interpolating between the
    stereographic sphere factor near the center and 1 outside; the interior
    region has Gauss curvature 1/radius^2 up to the cutoff.
    """
    if grid.d != 2:
        raise SmcfValidationError("sphere cap fixture needs d = 2")
    X, Y = grid.x
    cx = cy = grid.L / 2
    rho2 = (X - cx) ** 2 + (Y - cy) ** 2
    conf = 1.0 / (1.0 + rho2 / (4 * radius**2))
    # C-infinity cutoff: keep the sphere factor within the cap, relax to 1 outside
    t = np.clip((np.sqrt(rho2) - cap_width) / cap_width, 0.0, 1.0)
    blend = _smoothstep(t)
    phi = conf * (1 - blend) + 1.0 * blend
    g = np.zeros((2, 2) + grid.shape)
    g[0, 0] = phi**2
    g[1, 1] = phi**2
    return MetricState(grid, g)


def helix(d, n=8, a=0.5, k=1.0, L=2 * np.pi, orientation=1.0):
    """The helix times a flat R^{d-1}, a codimension-two periodic-deviation graph
    in R^{d+2}: F(x) = (x, 0, 0) + dev with dev_d = a cos(k x_1) and
    dev_{d+1} = a sin(k x_1), k a wavenumber of the box.

    The frame nu1 = -(0, ..., cos k x_1, sin k x_1) and
    nu2 = orientation (a k, 0, ..., sin k x_1, -cos k x_1) / c, c = sqrt(1 + a^2 k^2),
    is orthonormal and normal, and the state is homogeneous: g_11 = c^2,
    lambda_11 = a k^2, A_1 = orientation k / c, every other component zero,
    Gamma = V = B = 0.  The exact solution of the flow with orientation 1 is the
    rigid screw motion of helix_deviation.  A is the frame's normal connection
    and lambda its second form, both as the package computes them."""
    grid = Grid(d=d, n=n, L=L)
    x1 = grid.x[0]
    c = np.sqrt(1.0 + (a * k) ** 2)
    F = Immersion(grid, helix_deviation(grid, 0.0, a, k), graph=True)
    nu1 = np.zeros((d + 2,) + grid.shape)
    nu1[d], nu1[d + 1] = -np.cos(k * x1), -np.sin(k * x1)
    nu2 = np.zeros((d + 2,) + grid.shape)
    nu2[0], nu2[d], nu2[d + 1] = a * k / c, np.sin(k * x1) / c, -np.cos(k * x1) / c
    nu2 = orientation * nu2
    m = induced_metric(F)
    gauge = GaugeState(m, normal_connection(grid, nu1, nu2))
    sf = second_form(F, (nu1, nu2), m)
    return SimpleNamespace(grid=grid, immersion=F, nu1=nu1, nu2=nu2, gauge=gauge, sf=sf, a=a, k=k)


def helix_deviation(grid: Grid, t, a=0.5, k=1.0):
    """The deviation of helix(...) with orientation 1 at time t.  The flow moves
    it rigidly, along the binormal: with c = sqrt(1 + a^2 k^2) and the curvature
    kappa = a k^2 / c^2, F(t, x) = (x_1 + alpha t, x_2, ..., a cos(k x_1 + omega t),
    a sin(k x_1 + omega t)), alpha = kappa a k / c and omega = -kappa / (a c)."""
    d = grid.d
    c = np.sqrt(1.0 + (a * k) ** 2)
    kappa = a * k**2 / c**2
    alpha, omega = kappa * a * k / c, -kappa / (a * c)
    x1 = grid.x[0]
    dev = np.zeros((d + 2,) + grid.shape)
    dev[0] = alpha * t
    dev[d], dev[d + 1] = a * np.cos(k * x1 + omega * t), a * np.sin(k * x1 + omega * t)
    return dev


def gauge_rotate(sf: SecondForm, A, m_vec, theta):
    """Apply the unit-circle gauge action with real angle theta.

    lambda -> e^{i theta} lambda, m -> e^{i theta} m, A -> A - grad theta.
    """
    grid = sf.grid
    theta = np.asarray(theta)
    if np.iscomplexobj(theta) and np.max(np.abs(theta.imag)) > 1e-14:
        raise SmcfValidationError("gauge angle must be real")
    theta = theta.real
    phase = np.exp(1j * theta)
    lam = sf.lam * phase
    psi = sf.psi * phase
    A_new = None if A is None else A - grid.grad(theta)
    m_new = None if m_vec is None else m_vec * phase
    return SecondForm(sf.metric, lam, psi), A_new, m_new


def gauss_form_scab(grid: Grid, lam):
    """Re(lam_bc lambar_as - lam_ac lambar_bs) indexed [s, c, a, b], dealiased, from
    two einsums: the form the T2 monitor compared the curvature against."""
    return grid.dealias(
        np.real(
            np.einsum("bc...,as...->scab...", lam, np.conj(lam))
            - np.einsum("ac...,bs...->scab...", lam, np.conj(lam))
        )
    )


def gauss_form_sdab(grid: Grid, lam):
    """Re(lam_sd lambar_ab - lam_sb lambar_ad) indexed [s, d, a, b], dealiased, from
    two einsums: the stack the lambda nonlinearity contracted with lam^{sd}."""
    return grid.dealias(
        np.real(
            np.einsum("sd...,ab...->sdab...", lam, np.conj(lam))
            - np.einsum("sb...,ad...->sdab...", lam, np.conj(lam))
        )
    )


def nested_principal_difference(sf: SecondForm, m: MetricState):
    """d_m(g^{mn} d_n lam) - g^{ec} nabla_e nabla_c lam, from two nested covariant
    derivatives and a divergence: the second-order form the stepper expands."""
    grid = m.grid
    div_form = grid.div(np.einsum("mn...,nab...->mab...", m.ginv, grid.grad(sf.lam)))
    first = covariant_derivative(sf.lam, m, valence="ll")  # [c, a, b]
    second = covariant_derivative(first, m, valence="lll")  # [e, c, a, b]
    return div_form - np.einsum("ec...,ecab...->ab...", m.ginv, second)


def nested_laplacian_remainder(m: MetricState, A):
    """g^{cb} nabla_c nabla_b A - Lap A of a one-form, from two nested covariant derivatives."""
    grid = m.grid
    first = covariant_derivative(A, m, valence="l")  # [b, a]
    second = covariant_derivative(first, m, valence="ll")  # [c, b, a]
    return grid.dealias(np.einsum("cb...,cba...->a...", m.ginv, second)) - grid.laplacian(A)


# -- reconstruction ------------------------------------------------------------------


def frame_bundle(rec):
    """The complex-form coefficients of the frame's time motion at one record:
    B, M, c = i(dApsi - i lam V) and c raised."""
    s, sf = rec.states()
    m = s.metric
    grid = rec.grid
    dApsi = grid.grad(sf.psi) + 1j * np.einsum("a...,...->a...", s.A, sf.psi)
    lamV = np.einsum("ag...,g...->a...", sf.lam, s.V)
    c = 1j * (dApsi - 1j * lamV)
    nablaV = covariant_derivative(s.V, m, valence="u")  # [a, g]
    M = np.imag(np.einsum("...,ga...->ag...", sf.psi, np.conj(sf.lam_up))) + nablaV
    cu = np.einsum("ab...,b...->a...", m.ginv, c)
    return SimpleNamespace(t=rec.t, B=s.B, M=M, c=c, cu=cu)


def _frame_rhs(frame_F, frame_m, b):
    """d F_a = M_a^g F_g + Re(c_a mbar), d m = -i B m - c^g F_g at one coefficient bundle."""
    Fdot = np.real(np.einsum("a...,i...->ai...", b.c, np.conj(frame_m)))
    Fdot = Fdot + np.einsum("ag...,gi...->ai...", b.M, frame_F)
    mdot = -1j * b.B * frame_m - np.einsum("a...,ai...->i...", b.cu, frame_F)
    return Fdot, mdot


def _rk4(F0, m0, h, b0, bm, b1):
    """One RK4 step of length h of the frame system, with start, midpoint and end bundles."""
    k1F, k1m = _frame_rhs(F0, m0, b0)
    k2F, k2m = _frame_rhs(F0 + 0.5 * h * k1F, m0 + 0.5 * h * k1m, bm)
    k3F, k3m = _frame_rhs(F0 + 0.5 * h * k2F, m0 + 0.5 * h * k2m, bm)
    k4F, k4m = _frame_rhs(F0 + h * k3F, m0 + h * k3m, b1)
    F1 = F0 + h / 6.0 * (k1F + 2 * k2F + 2 * k3F + k4F)
    m1 = m0 + h / 6.0 * (k1m + 2 * k2m + 2 * k3m + k4m)
    return F1, m1


def _shifted(grid: Grid, hat, shift, real):
    """A field on the lattice shifted by `shift` along the last axis, from its spectrum `hat`."""
    phase = np.exp(1j * grid.k[-1] * shift)
    out = grid.ifft(hat * phase)
    return out.real if real else out


def integrate_frame_space_by_lines(
    seed_F,
    seed_m,
    sf,
    A,
    substeps=16,
    holonomy_tol=1e-4,
):
    """Transport the frame along the coordinate lines of the last axis across the
    grid, line by line: n * substeps RK4 steps on slices, from a table of the
    coefficient lattices at every substep shift (the package's form before it
    chained per-cell propagators).

    seed_F, seed_m: frame values on the slice {x_last = 0} (shapes like the
    full frame with the last axis removed).  Returns (Frame, holonomy) where
    the holonomy is the worst mismatch after closing the periodic loop.
    """
    m_state = sf.metric
    grid = m_state.grid
    d = grid.d
    last = d - 1
    n = grid.n
    h = grid.dx / substeps

    lam_up = raise_first(m_state, sf.lam)
    # the transport reads only the last slot of each coefficient; as a frame
    # bundle M[a, g] = Gamma^g_{last a}, c = lam_{last .}, cu = lam_up^._{last}
    # and B = A_last, each transformed once
    M = np.swapaxes(m_state.gamma_u[:, last], 0, 1)
    coeff = {"M": M, "c": sf.lam[last], "cu": lam_up[:, last], "B": A[last]}
    spectra = {key: (grid.fft(val), np.isrealobj(val)) for key, val in coeff.items()}
    # coefficient lattices at all substep shifts (whole and half)
    shifts = {}
    for q in range(2 * substeps):
        shift = q * h / 2.0
        shifts[q] = {key: _shifted(grid, hat, shift, real) for key, (hat, real) in spectra.items()}

    def take(fields, j):
        # slice j along the transport axis; fields indexed [..., spatial]
        return SimpleNamespace(**{key: val[..., j] for key, val in fields.items()})

    Fa = seed_F.astype(complex)
    mv = seed_m.astype(complex)
    frame_F = np.empty((d, d + 2) + grid.shape, dtype=float)
    frame_m = np.empty((d + 2,) + grid.shape, dtype=complex)

    frame_F[..., 0] = Fa.real
    frame_m[..., 0] = mv
    for j in range(n):
        for s_ in range(substeps):
            c0 = take(shifts[(2 * s_) % (2 * substeps)], j)
            cm = take(shifts[(2 * s_ + 1) % (2 * substeps)], j)
            jn = j if 2 * s_ + 2 < 2 * substeps else (j + 1) % n
            c1 = take(shifts[(2 * s_ + 2) % (2 * substeps)], jn)
            Fa, mv = _rk4(Fa, mv, h, c0, cm, c1)
        if j + 1 < n:
            frame_F[..., j + 1] = Fa.real
            frame_m[..., j + 1] = mv
    holonomy = max(
        float(np.max(np.abs(Fa.real - seed_F))),
        float(np.max(np.abs(mv - seed_m))),
    )
    if holonomy > holonomy_tol:
        raise IntegrabilityError(
            f"periodic holonomy {holonomy:.3e} exceeds {holonomy_tol:.1e}: "
            "the supplied data violate the integrability conditions"
        )
    return Frame(grid, frame_F, frame_m), holonomy


# -- gauge-free references ----------------------------------------------------------
# Solutions of the flow written in other unknowns than the heat gauge's: numpy's
# FFT on their own wavenumbers, no formula shared with the package.


def _wavenumbers(n, L, d):
    k1 = 2 * np.pi * np.fft.fftfreq(n, d=L / n)
    return [k1.reshape([n if b == a else 1 for b in range(d)]) for a in range(d)]


def hasimoto_modulus(chi0, length, beta, T, dt=2e-4, orientation=1.0):
    """|chi(T)| for the cubic NLS of a filament's Hasimoto function, twisted by beta,

        i chi_t + (d_s + i beta)^2 chi + |chi|^2 chi / 2 = 0,

    on the periodic interval of the given length that chi0 samples.  Orientation
    -1 is the flow of the opposite J, which runs this equation backwards.
    Strang split-step Fourier: the linear flow is the exact phase
    exp(-i (k + beta)^2 h) of each mode, and the cubic flow keeps |chi| at each
    point, so it is the exact phase exp(i |chi|^2 h / 2)."""
    n = len(chi0)
    k = 2 * np.pi * np.fft.fftfreq(n, d=length / n)
    steps = max(1, int(round(T / dt)))
    h = orientation * T / steps
    half = np.exp(-0.5j * (k + beta) ** 2 * h)
    chi = np.asarray(chi0, dtype=complex)
    for _ in range(steps):
        chi = np.fft.ifft(half * np.fft.fft(chi))
        chi = chi * np.exp(0.5j * np.abs(chi) ** 2 * h)
        chi = np.fft.ifft(half * np.fft.fft(chi))
    return np.abs(chi)


def _pointwise_inverse(M):
    """The inverse of the matrix field M[i, j, *shape] at every point."""
    return np.moveaxis(np.linalg.inv(np.moveaxis(M, (0, 1), (-2, -1))), (-2, -1), (0, 1))


def graph_flow(u0, L, T, dt, orientation=1.0):
    """The spectrum (numpy.fft.fftn) at time T of w = u_1 + i u_2 for the
    codimension-two graph F = (x, u(x)) in R^(d+2), u0 = (u_1, u_2) on the
    periodic box of side L, moving by (d_t F)^perp = J H(F) with x held fixed:

        u_t = orientation G R G c / sqrt(det G).

    The graph normals n_j = (-grad u_j, e_j) have the Gram matrix
    G_jk = delta_jk + grad u_j . grad u_k, and the normal part of (0, v) is
    (G^-1 v)_j n_j.  So d_t F = (0, u_t) has the normal coefficients G^-1 u_t,
    and H = c_j n_j with c = G^-1 g^ab d_a d_b u for the induced metric
    g_ab = delta_ab + d_a u . d_b u.  On coefficients in the basis (n_1, n_2)
    the rotation by +pi/2 is R G / sqrt(det G), R = ((0, -1), (1, 0));
    orientation is the sign of (nu1, nu2) against (n_1, n_2).  Near u = 0 the
    flow is w_t = orientation i Lap w: that part is integrated exactly and the
    rest by RK4, the integrating-factor scheme of Kassam & Trefethen (SISC 26,
    2005)."""
    d = u0.ndim - 1
    axes = tuple(range(-d, 0))
    k = _wavenumbers(u0.shape[-1], L, d)
    grad_mult = np.stack([1j * ka * np.ones(u0.shape[1:]) for ka in k])
    hess_mult = np.stack([np.stack([-ka * kb * np.ones(u0.shape[1:]) for kb in k]) for ka in k])
    lin = -1j * orientation * sum(ka**2 for ka in k)
    eye_d = np.eye(d).reshape((d, d) + (1,) * d)
    eye_2 = np.eye(2).reshape((2, 2) + (1,) * d)

    def nonlinear(w_hat):
        dw = np.fft.ifftn(grad_mult * w_hat, axes=axes)  # [a]
        d2w = np.fft.ifftn(hess_mult * w_hat, axes=axes)  # [a, b]
        du = np.stack([dw.real, dw.imag])  # [j, a]
        d2u = np.stack([d2w.real, d2w.imag])  # [j, a, b]
        ginv = _pointwise_inverse(eye_d + np.einsum("ja...,jb...->ab...", du, du))
        G = eye_2 + np.einsum("ja...,ka...->jk...", du, du)
        c = np.einsum("jk...,k...->j...", _pointwise_inverse(G), np.einsum("ab...,jab...->j...", ginv, d2u))
        Gc = np.einsum("jk...,k...->j...", G, c)
        v = np.einsum("jk...,k...->j...", G, np.stack([-Gc[1], Gc[0]]))
        v *= orientation / np.sqrt(G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0])
        return np.fft.fftn(v[0] + 1j * v[1], axes=axes) - lin * w_hat

    steps = max(1, int(round(T / dt)))
    h = T / steps
    E = np.exp(0.5 * h * lin)
    w_hat = np.fft.fftn(u0[0] + 1j * u0[1], axes=axes)
    for _ in range(steps):
        k1 = h * nonlinear(w_hat)
        k2 = h * nonlinear(E * (w_hat + 0.5 * k1))
        k3 = h * nonlinear(E * w_hat + 0.5 * k2)
        k4 = h * nonlinear(E * E * w_hat + E * k3)
        w_hat = E * E * w_hat + (E * E * k1 + 2.0 * E * (k2 + k3) + k4) / 6.0
    return w_hat


def fourier_sum(hat, L, pts):
    """The trigonometric interpolant with spectrum hat (numpy.fft.fftn over all
    of its d axes, box side L) at the points pts[a, p], by a direct sum over the
    FFT box."""
    n = hat.shape[0]
    k1 = 2 * np.pi * np.fft.fftfreq(n, d=L / n)
    out = np.einsum("pk,k...->p...", np.exp(1j * np.outer(pts[0], k1)), hat)
    for x in pts[1:]:
        out = np.einsum("pk,pk...->p...", np.exp(1j * np.outer(x, k1)), out)
    return out / hat.size


# -- norms ------------------------------------------------------------------------


def is_slowly_varying(a, delta, tol=1e-12):
    """Whether the envelope a_j obeys a_k <= 2^(delta |j - k|) a_j for all j, k."""
    j = np.arange(len(a))
    bound = a[None, :] * 2.0 ** (delta * np.abs(j[:, None] - j[None, :]))
    return bool(np.all(a[:, None] <= bound + tol * np.max(a, initial=0.0)))


def _as_field_series(series):
    out = []
    for item in series:
        if isinstance(item, GridField):
            out.append(item)
        else:
            out.append(item[1])
    if not out:
        raise SmcfValidationError("empty time series")
    return out


def z_norm(series, sigma: float, s: float) -> float:
    """Time-sup inside each dyadic block, then weighted l2 across blocks."""
    fields = _as_field_series(series)
    grid = fields[0].grid
    mults = grid.lp_bands("S")
    if sigma != 0.0:
        mag = np.where(grid.k_mag > 0, grid.k_mag, 1.0)
        frac = np.where(grid.k_mag > 0, mag**sigma, 0.0)
        mults = np.concatenate([mults[:1] * frac, mults[1:]])
    sup = np.max([np.sqrt(_spectral_sums(grid, np.abs(mults * f.hat) ** 2)) for f in fields], axis=0)
    J = len(sup) - 1
    weights = np.array([1.0] + [2.0 ** (2 * s * j) for j in range(1, J + 1)])
    return float(np.sqrt(np.sum(weights * sup**2)))


def cube_partition_norm(f: GridField, j: int, p, inner: str = "l2") -> float:
    """l^p over cubes of side ~2^j of the inner norm of chi_Q * f.

    The l2 inner norm is the package's separable per-cube vector (the one the
    Y surrogates sum); the linf inner norm is built from the weight stack.
    """
    grid = f.grid
    scale = 2.0**j
    if scale > grid.L * (1 + 1e-12):
        raise ScaleExceedsBoxError(f"cube scale 2^{j} exceeds box length {grid.L}")
    if inner == "l2":
        per = _cube_l2(grid, f.values, scale)
    elif inner == "linf":
        per = np.max(cube_weights(grid, scale) * np.abs(f.values), axis=tuple(range(1, grid.d + 1)))
    else:
        raise SmcfValidationError(f"inner norm must be 'l2' or 'linf', got {inner!r}")
    if p in (np.inf, "inf"):
        return float(np.max(per))
    if p == 1:
        return float(np.sum(per))
    if p == 2:
        return float(np.sqrt(np.sum(per**2)))
    raise SmcfValidationError(f"p must be 1, 2 or 'inf', got {p!r}")
