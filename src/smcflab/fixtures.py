"""The initial surfaces a run can start from (scenario_kind in the config).

FLAT   : the standard plane, everything vanishes.
CLIFF  : product of two circles of radius r in R^4 (d = 2 only); flat metric,
         constant curvature tensor, closed forms for every derived quantity.
BUMP   : graph over the plane with two Gaussian defining functions whose
         curvature amplitude follows the eps^{d/2+delta} law; width is fixed
         in box units (the box is the only unit carrier).

The closed forms the tests check these against (graph metric, cliff second
form, sphere-cap metric) are test oracles and live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SmcfValidationError
from .geometry import Immersion
from .grid import Grid

# the fixtures' preconditions, which RunConfig.validate reads too: the cliff is a
# surface in R^4, the bump's delta lies in (0, BUMP_DELTA_MAX), and the box holds
# at least BUMP_BOX_WIDTHS bump widths, since periodization distorts a wider bump
CLIFF_DIMENSION = 2
BUMP_DELTA_MAX = 1.0
BUMP_BOX_WIDTHS = 6.0


def cliff_winding(L, r):
    """L / (2 pi r), and whether it is a whole number >= 1: whether the box winds
    the circle of radius r."""
    winding = L / (2 * np.pi * r)
    return winding, round(winding) >= 1 and abs(winding - round(winding)) <= 1e-9


def flat_immersion(grid: Grid) -> Immersion:
    return Immersion(grid, np.zeros((grid.d + 2,) + grid.shape), graph=True)


@dataclass
class CliffFixture:
    immersion: Immersion
    nu1: np.ndarray
    nu2: np.ndarray


def cliff_fixture(grid: Grid, r: float = 1.0) -> CliffFixture:
    """Product of circles; requires the box to wind an integer number of times."""
    if grid.d != CLIFF_DIMENSION:
        raise SmcfValidationError(f"the product-of-circles fixture needs d = {CLIFF_DIMENSION}")
    winding, winds = cliff_winding(grid.L, r)
    if not winds:
        raise SmcfValidationError(
            f"box length {grid.L} does not wind the circle of radius {r}: L/(2 pi r) = {winding}"
        )
    X, Y = grid.x
    dev = np.stack(
        [r * np.cos(X / r), r * np.sin(X / r), r * np.cos(Y / r), r * np.sin(Y / r)]
    )
    nu1 = np.stack([np.cos(X / r), np.sin(X / r), np.zeros(grid.shape), np.zeros(grid.shape)])
    nu2 = np.stack([np.zeros(grid.shape), np.zeros(grid.shape), np.cos(Y / r), np.sin(Y / r)])
    return CliffFixture(Immersion(grid, dev, graph=False), nu1, nu2)


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
    amplitude: float


def bump_immersion(grid: Grid, eps: float, delta: float, width: float | None = None) -> BumpFixture:
    """Graph with defining functions u_j = eps^{d/2+delta} w^2 G_j((x-c_j)/w).

    The two profiles are offset and slightly anisotropic so u_1 and u_2 are
    independent; the second derivative (hence the curvature) has amplitude
    ~ eps^{d/2+delta}.
    """
    if not 0 < eps < 1:
        raise SmcfValidationError(f"bump eps must lie in (0,1), got {eps}")
    if not 0 < delta < BUMP_DELTA_MAX:
        raise SmcfValidationError(f"bump delta must lie in (0,{BUMP_DELTA_MAX:g}), got {delta}")
    if width is None:
        width = grid.L / 8.0
    if width > grid.L / BUMP_BOX_WIDTHS:
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
    return BumpFixture(Immersion(grid, dev, graph=True), amp)
