"""Discrete geometry of immersed codimension-two submanifolds.

Index conventions: tensor component axes come first, the d spatial grid axes
last, so einsum contractions broadcast pointwise over the grid.  Mixed-index
tensors come from the shared contraction helpers below (raise_first,
harmonic_defect, covariant_divergence, ...).

Derived fields are built on first read and kept by their state: Christoffel
symbols and their metric traces, the gradient of ginv, ginv - delta, h, V and
the metric flow's Gamma terms on MetricState (ginv is eager: inverting is the
degeneracy check), gauge sources and shared contractions on
parabolic.GaugeState, and the quadratic forms of lambda (the Gauss, Ricci and
curl forms) on SecondForm, which carries the metric it was traced with.  The curvature (`curvature`) is never kept.
`laplacian_lower_order` writes a covariant Laplacian minus its principal part
in first-order form from those caches, so the stepper never nests two
covariant derivatives.

Orientation: the complex structure on the normal bundle is defined by the
frame itself, J nu1 = nu2; reversing the orientation conjugates the complex
second fundamental form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

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
        return self._with_linear_part(self.grid.grad(self.dev))

    def derivatives(self):
        """(tangents, d_a d_b F) from one grid.grad_hessian; d_a d_b F has shape
        (d, d, d+2, *shape), and the linear part drops out of it."""
        t, d2 = self.grid.grad_hessian(self.dev)
        return self._with_linear_part(t), d2

    def _with_linear_part(self, t):
        if self.graph:
            for a in range(self.grid.d):
                t[a, a] += 1.0
        return t


# -- metric state -----------------------------------------------------------


@dataclass
class MetricState:
    """Metric g with its inverse; Christoffel symbols, h, V and the Gamma terms are
    built on first read.

    The cached fields must not change once set, so neither may g.
    """

    grid: Grid
    g: np.ndarray  # (d, d, *shape) real symmetric
    ginv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = self.grid.d
        self.g = np.asarray(self.g, dtype=float)
        if self.g.shape != (d, d) + self.grid.shape:
            raise SmcfValidationError(f"metric shape {self.g.shape} invalid for d={d}")
        self.ginv = invert_metric(self.grid, self.g)

    @cached_property
    def h(self):
        """h = g - delta, the deviation from the flat metric."""
        return self.g - identity_metric(self.grid)

    @cached_property
    def ginv_dev(self):
        """g^{-1} - delta, the inverse's deviation from the flat metric."""
        return self.ginv - identity_metric(self.grid)

    @cached_property
    def gamma_l(self):
        """Gamma_{ab,s}."""
        return christoffel(self)

    @cached_property
    def gamma_u(self):
        """Gamma^c_{ab} indexed [c, a, b]."""
        return self.grid.dealias(np.einsum("cs...,abs...->cab...", self.ginv, self.gamma_l))

    @cached_property
    def dginv(self):
        """d_e g^{ab} indexed [e, a, b]."""
        return self.grid.grad(self.ginv)

    @cached_property
    def gamma_traces(self):
        """(g^{ec} d_e Gamma^s_{ca} indexed [s, a], g^{ec} Gamma^s_{ca} indexed [e, s, a]):
        the metric's part of laplacian_lower_order.  The gradient of Gamma is not kept."""
        P = np.einsum("ec...,esca...->sa...", self.ginv, self.grid.grad(self.gamma_u))
        return P, np.einsum("ec...,sca...->esa...", self.ginv, self.gamma_u)

    @cached_property
    def V(self):
        """V^g = g^{ab} Gamma^g_{ab}, upper index; see harmonic_defect."""
        return harmonic_defect(self)

    @cached_property
    def gamma_terms(self):
        """The Gamma.Gamma and d(g^{-1}).Gamma terms of the metric flow's right side,
        untruncated; a pair, so each reader adds them in a fixed order."""
        term_gg = -2.0 * np.einsum("ab...,mbs...,san...->mn...", self.ginv, self.gamma_l, self.gamma_u)
        term_dg = np.einsum("mab...,abn...->mn...", self.dginv, self.gamma_l)
        return term_gg, term_dg + np.einsum("mn...->nm...", term_dg)

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
    return np.ascontiguousarray(np.moveaxis(np.linalg.inv(rows), 0, -1)).reshape(mat.shape)


def invert_metric(grid: Grid, g):
    """Pointwise inverse; raises on metrics that are not positive definite
    (a NaN eigenvalue included)."""
    if not metric_eig_min(grid, g) > 0.0:
        raise ImmersionDegeneracyError("metric is not positive definite on the grid")
    return pointwise_inverse(grid, g)


def metric_eig_min(grid: Grid, g):
    """The least eigenvalue of g over the grid; NaN if g has a non-finite entry."""
    d = grid.d
    if not np.all(np.isfinite(g)):
        return np.nan
    if d == 1:
        return float(np.min(g))
    if d == 2:
        # (g00 - g11)^2 + 4 g01 g10 = tr^2 - 4 det without the cancellation
        # that costs tr^2 - 4 det half its digits on near-conformal metrics
        disc = np.sqrt(np.maximum((g[0, 0] - g[1, 1]) ** 2 + 4 * g[0, 1] * g[1, 0], 0.0))
        return float(np.min((g[0, 0] + g[1, 1] - disc) / 2))
    mats = np.moveaxis(g.reshape(d, d, -1), -1, 0)
    return float(np.min(np.linalg.eigvalsh(mats)))


def induced_metric(F: Immersion, t=None) -> MetricState:
    """g_{ab} = F_a . F_b pointwise from the immersion tangents t, taken from F
    when not given."""
    grid = F.grid
    t = F.tangents() if t is None else t
    g = np.einsum("ai...,bi...->ab...", t, t)
    g = 0.5 * (g + np.swapaxes(g, 0, 1))
    return MetricState(grid, g)


def christoffel(m: MetricState):
    """Gamma_{ab,s} = (d_a g_{bs} + d_b g_{as} - d_s g_{ab}) / 2; read it as m.gamma_l."""
    dg = m.grid.grad(m.g)  # dg[c, a, b] = d_c g_{ab}
    return 0.5 * (dg + np.einsum("bas...->abs...", dg) - np.einsum("sab...->abs...", dg))


def curvature(m: MetricState):
    """(R_{s c a b}, R_{ab}) of m, from its Christoffel symbols; not kept on m."""
    grid = m.grid
    dG = grid.grad(m.gamma_l)  # dG[a, b, c, s] = d_a Gamma_{bc,s}
    quad = grid.dealias(np.einsum("mbs...,acm...->scab...", m.gamma_u, m.gamma_l))
    riem = (
        np.einsum("abcs...->scab...", dG)
        - np.einsum("bacs...->scab...", dG)
        + quad
        - np.einsum("scba...->scab...", quad)
    )
    ric = grid.dealias(np.einsum("sc...,casb...->ab...", m.ginv, riem))
    return riem, ric


# -- covariant derivatives -----------------------------------------------------

_LETTERS = "bcef"


def covariant_derivative(T, m: MetricState, valence, A=None):
    """nabla_gamma T with the declared valence ('l'/'u' per index slot).

    Output has a new leading axis for gamma.  With A supplied the result is
    the gauge-covariant derivative on complex sections: nabla + i A.
    """
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


def laplacian_lower_order(m: MetricState, T, dT):
    """(nabla T, S) for a one-form or symmetric two-tensor T and dT = grad T, where
    g^{ec} nabla_e nabla_c T = g^{ec} d_e d_c T - V^t nabla_t T - S and S sums over
    the slots a of T: g^{ec} [(d_e Gamma^s_{ca}) T_s + Gamma^s_{ca} d_e T_s +
    Gamma^s_{ea} nabla_c T_s].  S is first order in T; both are pointwise and untruncated."""
    rest = "b" * (np.ndim(T) - m.grid.d - 1)
    corr = np.einsum(f"sca...,s{rest}...->ca{rest}...", m.gamma_u, T)  # Gamma^s_{ca} T_{s..}
    if rest:
        corr = corr + np.swapaxes(corr, 1, 2)
    nT = dT - corr
    P, G = m.gamma_traces  # g^{ec} d_e Gamma^s_{ca} and g^{ec} Gamma^s_{ca}
    S = np.einsum(f"sa...,s{rest}...->a{rest}...", P, T) + np.einsum(f"esa...,es{rest}...->a{rest}...", G, dT + nT)
    if rest:
        S = S + np.swapaxes(S, 0, 1)
    return nT, S


# -- metric contractions ----------------------------------------------------------


def raise_first(m: MetricState, T):
    """T^g_... = g^{gs} T_{s...}: the first slot raised, dealiased."""
    return m.grid.dealias(np.einsum("gs...,s...->g...", m.ginv, T))


def harmonic_defect(m: MetricState):
    """V^g = g^{ab} Gamma^g_{ab}: zero exactly in harmonic coordinates."""
    return m.grid.dealias(np.einsum("ab...,gab...->g...", m.ginv, m.gamma_u))


def covariant_divergence(m: MetricState, A):
    """nabla^a A_a = g^{ba} nabla_b A_a for a one-form A."""
    nab = covariant_derivative(A, m, valence="l")  # [b, a]
    return m.grid.dealias(np.einsum("ba...,ba...->...", m.ginv, nab))


# -- the second fundamental form ------------------------------------------------


class SecondForm:
    """Complex symmetric tensor lambda_{ab}, its metric trace psi and the metric
    they belong to.  psi is traced on first read unless it is given; it and the
    contractions the flows and monitors share are built on first read and kept,
    so lam, psi and the metric must not change."""

    def __init__(self, metric: MetricState, lam, psi=None):
        self.metric = metric
        self.lam = np.asarray(lam, dtype=complex)  # (d, d, *shape)
        if psi is not None:
            self.psi = np.asarray(psi, dtype=complex)

    @property
    def grid(self) -> Grid:
        return self.metric.grid

    @cached_property
    def psi(self):
        """g^{ab} lambda_{ab}, dealiased, indexed [*shape]."""
        return self.grid.dealias(np.einsum("ab...,ab...->...", self.metric.ginv, self.lam))

    @cached_property
    def lam_up(self):
        """lambda^g_b = g^{gs} lambda_{sb}, dealiased."""
        return raise_first(self.metric, self.lam)

    @cached_property
    def dlam(self):
        """d_c lambda_{ab} indexed [c, a, b]."""
        return self.grid.grad(self.lam)

    @cached_property
    def lam_lambar(self):
        """lambda_{as} lambar^s_b, untruncated."""
        return np.einsum("as...,sb...->ab...", self.lam, np.conj(self.lam_up))

    @cached_property
    def ricci(self):
        """Re(lambda_{ab} psibar - lambda_{as} lambar^s_b): the Ricci tensor through
        the Gauss equation.  Along exact solutions it equals the curvature of g;
        the gauge flows use it (it keeps their right sides quadratic), and its
        defect against the metric Ricci is the T1 monitor."""
        out = np.real(np.einsum("ab...,...->ab...", self.lam, np.conj(self.psi)) - self.lam_lambar)
        return self.grid.dealias(out)

    @cached_property
    def gauss(self):
        """Re(lambda_{bc} lambar_{as} - lambda_{ac} lambar_{bs}) indexed [s, c, a, b]:
        R_{scab} through the Gauss equation, the T2 monitor's other side.  Only the
        components with (s < c) <= (a < b) are multiplied and dealiased, as one
        stack; R_{scab} = -R_{csab} = -R_{scba} = R_{absc} gives the others."""
        grid, d = self.grid, self.grid.d
        out = np.zeros((d,) * 4 + grid.shape)
        pairs = list(itertools.combinations(range(d), 2))
        comps = [p + q for i, p in enumerate(pairs) for q in pairs[i:]]  # (s, c, a, b)
        if not comps:
            return out
        s, c, a, b = np.array(comps).T
        lam, lbar = self.lam, np.conj(self.lam)
        prod = np.einsum("k...,k...->k...", lam[b, c], lbar[a, s]) - np.einsum("k...,k...->k...", lam[a, c], lbar[b, s])
        for comp, R in zip(comps, grid.dealias(np.real(prod))):
            # swapping the two pairs keeps the sign, reversing either pair flips it
            for p, q in ((comp[:2], comp[2:]), (comp[2:], comp[:2])):
                out[p + q] = out[p[::-1] + q[::-1]] = R
                out[p[::-1] + q] = out[p + q[::-1]] = -R
        return out

    @cached_property
    def w(self):
        """w_{ab} = Im(lambda^g_a lambar_{bg}), antisymmetric: the curvature of the
        normal connection through the Ricci equation."""
        prod = np.einsum("ga...,bg...->ab...", self.lam_up, np.conj(self.lam))
        return self.grid.dealias(np.imag(prod))


def frame_defects(t, m):
    """Worst pointwise violations of |m|^2 = 2, m.m = 0 and F_a.m = 0 for tangents
    t and m = nu1 + i nu2: (nu1, nu2) is an orthonormal normal frame exactly when
    all three vanish.  A NaN in the frame reads NaN."""
    dot = lambda u, v: np.einsum("i...,i...->...", u, v)
    return {
        "m_norm": float(np.max(np.abs(dot(m, np.conj(m)) - 2.0))),
        "m_null": float(np.max(np.abs(dot(m, m)))),
        "tangent_normal": float(np.max([np.max(np.abs(dot(Fa, m))) for Fa in t])),
    }


def normal_part(m: MetricState, t, v):
    """v - g^{ab} (v . F_a) F_b for tangents t = F.tangents(); undealiased."""
    vt = np.einsum("ai...,i...->a...", t, v)
    up = np.einsum("ab...,b...->a...", m.ginv, vt)
    return v - np.einsum("a...,ai...->i...", up, t)


def normal_connection(grid: Grid, nu1, nu2):
    """A_a = d_a nu1 . nu2, the connection one-form of a normal frame."""
    return grid.dealias(np.einsum("ai...,i...->a...", grid.grad(nu1), nu2))


def second_form(F: Immersion, frame, m: MetricState, tol=1e-8) -> SecondForm:
    """lambda_{ab} = d_a d_b F . (nu1 + i nu2); psi is its metric trace.  The frame
    must be orthonormal and normal to within tol: none is repaired here."""
    nu1, nu2 = frame
    mvec = nu1 + 1j * nu2
    t, d2F = F.derivatives()
    # np.max, not max: the builtin drops a NaN that is not first
    defect = np.max(list(frame_defects(t, mvec).values()))
    if not defect <= tol:
        raise FrameNotNormalError(f"normal frame defect {defect:.3e} exceeds {tol:.1e}")
    lam = F.grid.dealias(np.einsum("abi...,i...->ab...", d2F, mvec))
    return SecondForm(m, lam)
