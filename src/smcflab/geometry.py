"""Discrete geometry of immersed codimension-two submanifolds.

Index conventions: tensor component axes come first, the d spatial grid axes
last, so einsum contractions broadcast pointwise over the grid.  Mixed-index
tensors come from the shared contraction helpers below (raise_first,
harmonic_defect, covariant_divergence, curl_source, ...).  The few that depend
on a gauge state alone and that several right sides read (A^a, nabla V_low,
the lambda-equation potential) are filled once per state, lazily, on
parabolic.GaugeState; the rest are built at the use site.

Orientation: the complex structure on the normal bundle is defined by the
frame itself, J nu1 = nu2; reversing the orientation conjugates the complex
second fundamental form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    FrameNotNormalError,
    ImmersionDegeneracyError,
    SmcfValidationError,
    ValenceMismatchError,
)
from .grid import Grid


# -- immersions -------------------------------------------------------------


@dataclass
class Immersion:
    """Map F: torus -> R^{d+2}, stored as a periodic deviation.

    With ``graph=True`` the full map is F(x) = (x, 0, 0) + dev(x); graph
    parametrizations carry linear growth that is handled analytically, so the
    stored fields stay periodic.  With ``graph=False`` the map is dev itself
    (e.g. product-of-circles embeddings).
    """

    grid: Grid
    dev: np.ndarray  # (d+2, *grid.shape), real
    graph: bool = True

    def __post_init__(self):
        self.dev = np.asarray(self.dev, dtype=float)
        want = (self.grid.d + 2,) + self.grid.shape
        if self.dev.shape != want:
            raise SmcfValidationError(f"immersion deviation shape {self.dev.shape} != {want}")

    @property
    def ambient_dim(self):
        return self.grid.d + 2

    def tangents(self):
        """F_alpha = d_alpha F, shape (d, d+2, *shape)."""
        t = self.grid.grad(self.dev)
        if self.graph:
            for a in range(self.grid.d):
                t[a, a] += 1.0
        return t

    def second_partials(self):
        """d_a d_b F, shape (d, d, d+2, *shape); the linear part drops out."""
        return self.grid.hessian(self.dev)


# -- metric state -----------------------------------------------------------


@dataclass
class MetricState:
    """Metric with progressively filled derived fields (Christoffel, curvature)."""

    grid: Grid
    g: np.ndarray  # (d, d, *shape) real symmetric
    ginv: np.ndarray = None
    h: np.ndarray = None
    gamma_l: np.ndarray = None  # Gamma_{ab,s}
    gamma_u: np.ndarray = None  # Gamma^c_{ab} indexed [c, a, b]
    riem: np.ndarray = None  # R_{s c a b}
    ric: np.ndarray = None
    scal: np.ndarray = None

    def __post_init__(self):
        d = self.grid.d
        self.g = np.asarray(self.g, dtype=float)
        if self.g.shape != (d, d) + self.grid.shape:
            raise SmcfValidationError(f"metric shape {self.g.shape} invalid for d={d}")
        if self.ginv is None:
            self.ginv = invert_metric(self.grid, self.g)
        if self.h is None:
            self.h = self.g - identity_metric(self.grid)

    def eig_min(self):
        return metric_eig_min(self.grid, self.g)


def identity_metric(grid: Grid):
    g = np.zeros((grid.d, grid.d) + grid.shape)
    for a in range(grid.d):
        g[a, a] = 1.0
    return g


def pointwise_det(grid: Grid, mat):
    """Determinant of a (d, d, *shape) matrix field at every grid point."""
    d = grid.d
    if d == 1:
        return mat[0, 0]
    if d == 2:
        return mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    rows = np.moveaxis(mat.reshape(d, d, -1), -1, 0)
    return np.linalg.det(rows).reshape(grid.shape)


def pointwise_inverse(grid: Grid, mat):
    """Inverse of a (d, d, *shape) matrix field at every grid point."""
    d = grid.d
    if d == 1:
        return 1.0 / mat
    if d == 2:
        det = pointwise_det(grid, mat)
        inv = np.empty_like(mat)
        inv[0, 0] = mat[1, 1] / det
        inv[1, 1] = mat[0, 0] / det
        inv[0, 1] = -mat[0, 1] / det
        inv[1, 0] = -mat[1, 0] / det
        return inv
    rows = np.moveaxis(mat.reshape(d, d, -1), -1, 0)
    return np.moveaxis(np.linalg.inv(rows), 0, -1).reshape(mat.shape)


def invert_metric(grid: Grid, g):
    """Pointwise inverse; raises on non-positive-definite metrics."""
    if metric_eig_min(grid, g) <= 0.0:
        raise ImmersionDegeneracyError("metric is not positive definite on the grid")
    return pointwise_inverse(grid, g)


def metric_eig_min(grid: Grid, g):
    d = grid.d
    if d == 1:
        return float(np.min(g))
    if d == 2:
        # (g00 - g11)^2 + 4 g01 g10 = tr^2 - 4 det without the cancellation
        # that costs tr^2 - 4 det half its digits on near-conformal metrics
        disc = np.sqrt(np.maximum((g[0, 0] - g[1, 1]) ** 2 + 4 * g[0, 1] * g[1, 0], 0.0))
        return float(np.min((g[0, 0] + g[1, 1] - disc) / 2))
    mats = np.moveaxis(g.reshape(d, d, -1), -1, 0)
    return float(np.min(np.linalg.eigvalsh(mats)))


def induced_metric(F: Immersion) -> MetricState:
    """g_{ab} = F_a . F_b pointwise from the immersion tangents."""
    grid = F.grid
    t = F.tangents()
    g = np.einsum("ai...,bi...->ab...", t, t)
    g = 0.5 * (g + np.swapaxes(g, 0, 1))
    return MetricState(grid, g)


def christoffel(m: MetricState) -> MetricState:
    grid = m.grid
    dg = grid.grad(m.g)  # dg[c, a, b] = d_c g_{ab}
    gamma_l = 0.5 * (dg + np.einsum("bas...->abs...", dg) - np.einsum("sab...->abs...", dg))
    gamma_u = grid.dealias(np.einsum("cs...,abs...->cab...", m.ginv, gamma_l))
    return replace(m, gamma_l=gamma_l, gamma_u=gamma_u)


def curvature(m: MetricState) -> MetricState:
    """Fills R_{s c a b} and the Ricci tensor (plus scalar curvature in d=2)."""
    if m.gamma_l is None:
        m = christoffel(m)
    grid = m.grid
    d = grid.d
    dG = grid.grad(m.gamma_l)  # dG[a, b, c, s] = d_a Gamma_{bc,s}
    quad = grid.dealias(np.einsum("mbs...,acm...->scab...", m.gamma_u, m.gamma_l))
    riem = (
        np.einsum("abcs...->scab...", dG)
        - np.einsum("bacs...->scab...", dG)
        + quad
        - np.einsum("scba...->scab...", quad)
    )
    ric = grid.dealias(np.einsum("sc...,casb...->ab...", m.ginv, riem))
    scal = grid.dealias(np.einsum("ab...,ab...->...", m.ginv, ric)) if d >= 2 else None
    return replace(m, riem=riem, ric=ric, scal=scal)


# -- covariant derivatives -----------------------------------------------------

_LETTERS = "bcef"


def covariant_derivative(T, m: MetricState, valence, A=None):
    """nabla_gamma T with the declared valence ('l'/'u' per index slot).

    Output has a new leading axis for gamma.  With A supplied the result is
    the gauge-covariant derivative on complex sections: nabla + i A.
    """
    if m.gamma_u is None:
        m = christoffel(m)
    grid = m.grid
    T = np.asarray(T)
    rank = len(valence)
    if rank > T.ndim - grid.d:
        raise ValenceMismatchError(f"valence {valence!r} exceeds tensor rank of shape {T.shape}")
    if any(v not in ("l", "u") for v in valence):
        raise ValenceMismatchError(f"valence entries must be 'l' or 'u', got {valence!r}")
    if rank != T.ndim - grid.d:
        raise ValenceMismatchError(
            f"tensor of shape {T.shape} has {T.ndim - grid.d} index slots, valence says {rank}"
        )
    rest = _LETTERS[: rank - 1]
    corrections = []
    for slot, v in enumerate(valence):
        T_m = np.moveaxis(T, slot, 0)
        if v == "l":
            corr = -np.einsum(f"sga...,s{rest}...->ga{rest}...", m.gamma_u, T_m)
        else:
            corr = np.einsum(f"ags...,s{rest}...->ga{rest}...", m.gamma_u, T_m)
        corrections.append(np.moveaxis(corr, 1, slot + 1))
    if A is not None:
        corrections.append(1j * np.einsum("g...,...->g...", A, T))
    out = grid.grad(T)
    if corrections:
        out = out + grid.dealias(sum(corrections))
    return out


def ricci_from_lambda(m: MetricState, lam, psi):
    """Ricci tensor through the Gauss/Ricci identity: Re(lam_{ab} psi-bar - lam lam-bar).

    Along exact solutions this equals the curvature of g; the gauge flows use
    this representation (it is what keeps their right sides quadratic), and
    the defect against the metric Ricci is the T1 constraint monitor.
    """
    lam_up = raise_first(m, lam)
    quad = np.einsum("as...,sb...->ab...", lam, np.conj(lam_up))
    out = np.real(np.einsum("ab...,...->ab...", lam, np.conj(psi)) - quad)
    return m.grid.dealias(out)


# -- metric contractions ----------------------------------------------------------


def raise_first(m: MetricState, T):
    """T^g_... = g^{gs} T_{s...}: the first slot raised, dealiased."""
    return m.grid.dealias(np.einsum("gs...,s...->g...", m.ginv, T))


def harmonic_defect(m: MetricState):
    """V^g = g^{ab} Gamma^g_{ab}: zero exactly in harmonic coordinates."""
    if m.gamma_u is None:
        m = christoffel(m)
    return m.grid.dealias(np.einsum("ab...,gab...->g...", m.ginv, m.gamma_u))


def covariant_divergence(m: MetricState, A):
    """nabla^a A_a = g^{ba} nabla_b A_a for a one-form A."""
    nab = covariant_derivative(A, m, valence="l")  # [b, a]
    return m.grid.dealias(np.einsum("ba...,ba...->...", m.ginv, nab))


def curl_source(grid: Grid, lam_up, lam):
    """w_{ab} = Im(lam^g_a lambar_{bg}) from lam_up = raise_first(m, lam); antisymmetric."""
    return grid.dealias(np.imag(np.einsum("ga...,bg...->ab...", lam_up, np.conj(lam))))


# -- the second fundamental form ------------------------------------------------


@dataclass
class SecondForm:
    """Complex symmetric tensor lambda_{ab} and its metric trace psi."""

    grid: Grid
    lam: np.ndarray  # (d, d, *shape) complex
    psi: np.ndarray  # (*shape,) complex

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=complex)
        self.psi = np.asarray(self.psi, dtype=complex)

    @classmethod
    def from_lambda(cls, grid, lam, m: MetricState):
        lam = np.asarray(lam, dtype=complex)
        psi = grid.dealias(np.einsum("ab...,ab...->...", m.ginv, lam))
        return cls(grid, lam, psi)


def frame_defect(F: Immersion, nu1, nu2):
    """Worst pointwise violation of orthonormality/normality of (nu1, nu2)."""
    if not (np.all(np.isfinite(nu1)) and np.all(np.isfinite(nu2))):
        return np.inf
    t = F.tangents()
    worst = 0.0
    worst = max(worst, float(np.max(np.abs(np.einsum("i...,i...->...", nu1, nu1) - 1.0))))
    worst = max(worst, float(np.max(np.abs(np.einsum("i...,i...->...", nu2, nu2) - 1.0))))
    worst = max(worst, float(np.max(np.abs(np.einsum("i...,i...->...", nu1, nu2)))))
    for a in range(F.grid.d):
        worst = max(worst, float(np.max(np.abs(np.einsum("i...,i...->...", t[a], nu1)))))
        worst = max(worst, float(np.max(np.abs(np.einsum("i...,i...->...", t[a], nu2)))))
    return worst


def normal_part(m: MetricState, t, v):
    """v - g^{ab} (v . F_a) F_b for tangents t = F.tangents(); undealiased."""
    vt = np.einsum("ai...,i...->a...", t, v)
    up = np.einsum("ab...,b...->a...", m.ginv, vt)
    return v - np.einsum("a...,ai...->i...", up, t)


def normal_connection(grid: Grid, nu1, nu2):
    """A_a = d_a nu1 . nu2, the connection one-form of a normal frame."""
    return grid.dealias(np.einsum("ai...,i...->a...", grid.grad(nu1), nu2))


def gram_schmidt_normal(F: Immersion, m: MetricState, nu1, nu2):
    """One projection/normalization sweep of (nu1, nu2) against the tangents."""
    t = F.tangents()
    # degenerate inputs (e.g. tangent vectors) produce non-finite output here,
    # which frame_defect reports as an infinite defect
    with np.errstate(invalid="ignore", divide="ignore"):
        v1 = normal_part(m, t, nu1)
        v1 = v1 / np.sqrt(np.einsum("i...,i...->...", v1, v1))
        v2 = normal_part(m, t, nu2)
        v2 = v2 - np.einsum("i...,i...->...", v2, v1) * v1
        v2 = v2 / np.sqrt(np.einsum("i...,i...->...", v2, v2))
    return v1, v2


def second_form(F: Immersion, frame, m: MetricState, tol=1e-8) -> SecondForm:
    """lambda_{ab} = d_a d_b F . (nu1 + i nu2); psi is its metric trace."""
    nu1, nu2 = frame
    defect = frame_defect(F, nu1, nu2)
    if defect > tol:
        nu1, nu2 = gram_schmidt_normal(F, m, nu1, nu2)
        defect = frame_defect(F, nu1, nu2)
        if defect > tol:
            raise FrameNotNormalError(
                f"normal frame defect {defect:.3e} exceeds {tol:.1e} after re-orthonormalization"
            )
    d2F = F.second_partials()
    mvec = nu1 + 1j * nu2
    lam = F.grid.dealias(np.einsum("abi...,i...->ab...", d2F, mvec))
    return SecondForm.from_lambda(F.grid, lam, m)


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
    return SecondForm(grid, lam, psi), A_new, m_new
