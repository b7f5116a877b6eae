"""Reference submanifolds used by tests and the CLI.

FLAT   : the standard plane, everything vanishes.
CLIFF  : product of two circles of radius r in R^4 (d = 2 only); flat metric,
         constant curvature tensor, closed forms for every derived quantity.
BUMP   : graph over the plane with two Gaussian defining functions whose
         curvature amplitude follows the eps^{d/2+delta} law; width is fixed
         in box units (the box is the only unit carrier).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SmcfValidationError
from .geometry import Immersion, MetricState, SecondForm, identity_metric
from .grid import Grid


def flat_immersion(grid: Grid) -> Immersion:
    return Immersion(grid, np.zeros((grid.d + 2,) + grid.shape), graph=True)


@dataclass
class CliffFixture:
    immersion: Immersion
    nu1: np.ndarray
    nu2: np.ndarray
    r: float

    def analytic_second_form(self):
        """lambda_11 = -1/r, lambda_22 = -i/r, lambda_12 = 0, psi = -(1+i)/r."""
        grid = self.immersion.grid
        lam = np.zeros((2, 2) + grid.shape, dtype=complex)
        lam[0, 0] = -1.0 / self.r
        lam[1, 1] = -1j / self.r
        psi = np.full(grid.shape, -(1.0 + 1j) / self.r, dtype=complex)
        return SecondForm(grid, lam, psi)


def cliff_fixture(grid: Grid, r: float = 1.0) -> CliffFixture:
    """Product of circles; requires the box to wind an integer number of times."""
    if grid.d != 2:
        raise SmcfValidationError("the product-of-circles fixture needs d = 2")
    winding = grid.L / (2 * np.pi * r)
    if abs(winding - round(winding)) > 1e-9 or round(winding) < 1:
        raise SmcfValidationError(
            f"box length {grid.L} does not wind the circle of radius {r}: L/(2 pi r) = {winding}"
        )
    X, Y = grid.x
    dev = np.stack(
        [r * np.cos(X / r), r * np.sin(X / r), r * np.cos(Y / r), r * np.sin(Y / r)]
    )
    nu1 = np.stack([np.cos(X / r), np.sin(X / r), np.zeros(grid.shape), np.zeros(grid.shape)])
    nu2 = np.stack([np.zeros(grid.shape), np.zeros(grid.shape), np.cos(Y / r), np.sin(Y / r)])
    return CliffFixture(Immersion(grid, dev, graph=False), nu1, nu2, r)


def periodized_gaussian(grid: Grid, center, width):
    """exp(-|x-c|^2 / (2 w^2)) summed over periodic images (3 per axis)."""
    out = np.zeros(grid.shape)
    shifts = (-grid.L, 0.0, grid.L)
    for m in np.ndindex(*(3,) * grid.d):
        r2 = np.zeros(grid.shape)
        for a in range(grid.d):
            r2 = r2 + (grid.x[a] - center[a] + shifts[m[a]]) ** 2
        out += np.exp(-r2 / (2 * width**2))
    return out


@dataclass
class BumpFixture:
    immersion: Immersion
    eps: float
    delta: float
    width: float
    amplitude: float

    @property
    def u(self):
        """The two defining functions (graph components)."""
        return self.immersion.dev[self.immersion.grid.d :]


def bump_immersion(grid: Grid, eps: float, delta: float, width: float | None = None) -> BumpFixture:
    """Graph with defining functions u_j = eps^{d/2+delta} w^2 G_j((x-c_j)/w).

    The two profiles are offset and slightly anisotropic so u_1 and u_2 are
    independent; the second derivative (hence the curvature) has amplitude
    ~ eps^{d/2+delta}.
    """
    if not 0 < eps < 1:
        raise SmcfValidationError(f"bump eps must lie in (0,1), got {eps}")
    if not 0 < delta < 1:
        raise SmcfValidationError(f"bump delta must lie in (0,1), got {delta}")
    if width is None:
        width = grid.L / 8.0
    if width > grid.L / 6.0:
        raise SmcfValidationError(
            f"bump width {width} too large for box {grid.L}; periodization would distort it"
        )
    amp = eps ** (grid.d / 2 + delta) * width**2
    c0 = np.full(grid.d, grid.L / 2)
    c1 = c0.copy()
    c1[0] += width / 2
    c2 = c0.copy()
    c2[-1] -= width / 3
    u1 = amp * periodized_gaussian(grid, c1, width)
    u2 = 0.8 * amp * periodized_gaussian(grid, c2, 0.8 * width)
    dev = np.zeros((grid.d + 2,) + grid.shape)
    dev[grid.d] = grid.dealias(u1)
    dev[grid.d + 1] = grid.dealias(u2)
    return BumpFixture(Immersion(grid, dev, graph=True), eps, delta, width, amp)


def graph_metric_oracle(F: Immersion) -> np.ndarray:
    """Closed-form induced metric of a graph: delta_ab + du_a . du_b."""
    grid = F.grid
    if not F.graph:
        raise SmcfValidationError("oracle applies to graph immersions only")
    du = grid.grad(F.dev[grid.d :])  # (d, 2, *shape)
    return np.einsum("aj...,bj...->ab...", du, du) + identity_metric(grid)


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
    from .grid import _smoothstep

    t = np.clip((np.sqrt(rho2) - cap_width) / cap_width, 0.0, 1.0)
    blend = _smoothstep(t)
    phi = conf * (1 - blend) + 1.0 * blend
    g = np.zeros((2, 2) + grid.shape)
    g[0, 0] = phi**2
    g[1, 1] = phi**2
    return MetricState(grid, g)
