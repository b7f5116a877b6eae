"""The norms and frequency envelopes a run writes to diagnostics.csv.

H^s norms, dyadic block norms, the Y-norm upper-bound surrogates and the
frequency envelopes, plus the CSV writer for their rows.  The Z norm and the
general l^p cube-partition norm are test oracles and live with the tests.

The Y-type norms are infima over atomic decompositions and cannot be computed
exactly; every function here with an ``_upper`` suffix evaluates the canonical
one-term decomposition (the full dyadic block at cube scale 2^|j|) and is
therefore an UPPER BOUND surrogate: monotone, reproducible, and guaranteed to
dominate the true norm.

Scale conventions: the dyadic index j = 0 sits at physical wavenumber 1, and
cube partitions are measured in box units (the box length L is the only unit
carrier).  Cube scales larger than the box are capped at one cube covering
the whole box.

Cost: every table read here is built on first use and kept read-only by the
grid (Grid.table): the Sobolev weight (1 + k^2)^s per s, the squared axis
weights of the cube partition per scale and the band stack of the
low-frequency Y norm, next to the grid's dyadic band stacks.  Every norm of a
GridField reads that field's one kept spectrum: H^s norms, block norms and
envelopes the full one, the Y norms the r2c half spectrum of a real field,
each transforming its bands back once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SmcfValidationError
from .grid import Grid, GridField, _smoothstep

# the Sobolev indices sobolev_norm accepts, and so a run's envelope_s
SOBOLEV_S_RANGE = (-4.0, 6.0)


@dataclass(frozen=True)
class EnvelopeParams:
    """Sobolev index s, slack delta, and the derived low-frequency weight."""

    s: float
    delta: float

    def __post_init__(self):
        # the slack must leave room under s - d/2 for every supported d;
        # the d-dependent part of the check happens where a grid is known
        if not self.delta > 0:
            raise SmcfValidationError(f"delta must be positive, got {self.delta}")

    def validate_for(self, d: int):
        if not self.delta < self.s - d / 2:
            raise SmcfValidationError(
                f"need 0 < delta < s - d/2, got delta={self.delta}, s={self.s}, d={d}"
            )

    def sigma_d(self, d: int) -> float:
        return d / 2 - self.delta


def _japanese_bracket_sq(grid: Grid, s: float):
    """(1 + k^2)^s, built once per (grid, s)."""
    return grid.table(("sobolev", s), lambda: (1.0 + grid.k_sq) ** s)


def sobolev_norm(f: GridField, s: float) -> float:
    """Inhomogeneous H^s norm with grid measure."""
    if not SOBOLEV_S_RANGE[0] <= s <= SOBOLEV_S_RANGE[1]:
        raise SmcfValidationError("s must lie in [{:g}, {:g}], got {}".format(*SOBOLEV_S_RANGE, s))
    grid = f.grid
    hat = f.hat
    weight = _japanese_bracket_sq(grid, s)
    total = np.sum(weight * np.abs(hat) ** 2) * grid.L**grid.d / grid.n ** (2 * grid.d)
    return float(np.sqrt(total))


def s_block_norms(f: GridField, s_weight):
    """L2 norms of the S_j blocks, j = 0..J (J covers the resolvable spectrum),
    with the spectral weight s_weight."""
    grid = f.grid
    w = np.abs(grid.lp_bands("S") * f.hat) ** 2 * s_weight
    return np.sqrt(_spectral_sums(grid, w))


def _spectral_sums(grid: Grid, w):
    """Grid-measure sums of a stack of spectral densities, one per leading index."""
    return np.sum(w, axis=tuple(range(1, grid.d + 1))) * grid.L**grid.d / grid.n ** (2 * grid.d)


# -- cube partitions -------------------------------------------------------


def _axis_weights(grid: Grid, scale: float):
    """Smooth 1D partition of unity into m = round(L / scale) >= 1 cells with
    10%-width overlap, as an (m, n) array.

    Adjacent transitions use the exp-smoothstep, whose two halves sum to one
    exactly, so the cell weights sum to 1 without renormalization.
    """
    m = max(1, round(grid.L / scale))
    if m == 1:
        return np.ones((1, grid.n))
    c = grid.L / m
    x = grid.x1d
    w = np.zeros((m, grid.n))
    half_overlap = 0.05 * c
    for i in range(m):
        center = (i + 0.5) * c
        u = np.abs((x - center + grid.L / 2) % grid.L - grid.L / 2)  # periodic distance
        t = (c / 2 + half_overlap - u) / (2 * half_overlap)
        w[i] = np.clip(_smoothstep(np.clip(t, 0.0, 1.0)), 0.0, 1.0)
        w[i][u <= c / 2 - half_overlap] = 1.0
        w[i][u >= c / 2 + half_overlap] = 0.0
    return w


def cube_weights(grid: Grid, scale: float):
    """Partition-of-unity weights chi_Q at the given physical scale.

    Returns an array (n_cubes, *grid.shape); the weights sum to 1 pointwise.
    """
    per = _axis_weights(grid, scale)
    if grid.d == 1:
        return per
    if grid.d == 2:
        return np.einsum("ix,jy->ijxy", per, per).reshape(-1, *grid.shape)
    return np.einsum("ix,jy,kz->ijkxyz", per, per, per).reshape(-1, *grid.shape)


def _cube_l2(grid: Grid, values, scale):
    """Per-cube l2 norms ||chi_Q f||, one per cube of the partition at `scale`.

    chi_Q^2 = prod_a w_{i_a}(x_a)^2 is separable: contract one axis at a time
    instead of building the (m^d, *shape) stack of cube weights.  The squared
    axis weights are built once per (grid, scale).
    """
    w_sq = grid.table(("cube_l2", scale), lambda: _axis_weights(grid, scale) ** 2)
    per = np.abs(np.asarray(values)) ** 2
    for _ in range(grid.d):
        per = np.tensordot(per, w_sq, axes=([0], [1]))
    return np.sqrt(per * grid.cell_volume)


# -- Y-norm upper-bound surrogates -------------------------------------------


def _y0j_upper(grid: Grid, pj_values, j: int) -> float:
    """Canonical one-term decomposition value for one dyadic block.

    Uses h_{j,|j|} = P_j h, i.e. the l1 cube sum at scale 2^|j| with unit
    weight.  Cube scales beyond the box collapse to a single cube.
    """
    scale = min(2.0 ** abs(j), grid.L)
    return float(np.sum(_cube_l2(grid, pj_values, scale)))


def y0_norm_upper(f: GridField, s: float, delta: float) -> float:
    """Upper bound for the weighted-in-frequency cube-l1 norm of f."""
    grid = f.grid
    total = 0.0
    for j, pj in zip(grid.lp_band_range(), f.apply(grid.lp_bands())):
        block = _y0j_upper(grid, pj, j)
        if block == 0.0:
            continue
        w = 2.0 ** ((grid.d / 2 - delta) * min(j, 0) + s * max(j, 0))
        total += (w * block) ** 2
    return float(np.sqrt(total))


def y0_lo_norm_upper(f: GridField, delta: float) -> float:
    """Low-frequency variant: high band measured once, l2 over negative bands."""
    grid = f.grid
    lo_js = [j for j in grid.lp_band_range() if j < 0]
    lo_bands = grid.lp_bands()[: len(lo_js)]
    hi, *lo = f.apply(grid.table("y0_lo", lambda: np.concatenate([1.0 - lo_bands.sum(axis=0)[None], lo_bands])))
    hi_val = max(_y0j_upper(grid, hi, 0), grid.linf(hi))
    total = hi_val**2
    for j, pj in zip(lo_js, lo):
        block = _y0j_upper(grid, pj, j)
        total += (2.0 ** ((grid.d / 2 - delta) * j) * block) ** 2
    return float(np.sqrt(total))


# -- frequency envelopes -----------------------------------------------------


def frequency_envelope(f: GridField, params: EnvelopeParams):
    """a_j = 2^{-delta j} ||u|| + max_k 2^{-delta |j-k|} ||S_k u||, U = H^s: a
    slowly varying majorant of the dyadic block norms of f, indexed [j]."""
    grid = f.grid
    params.validate_for(grid.d)
    weight = _japanese_bracket_sq(grid, params.s)
    blocks = s_block_norms(f, s_weight=weight)
    total = sobolev_norm(f, params.s)
    J = len(blocks) - 1
    j = np.arange(J + 1)
    damp = 2.0 ** (-params.delta * np.abs(j[:, None] - j[None, :]))
    return 2.0 ** (-params.delta * j) * total + np.max(damp * blocks[None, :], axis=1)


# -- diagnostics output --------------------------------------------------------


class DiagnosticsCSV:
    """Append-only (t, name, value) rows with fixed 17-significant-digit text."""

    def __init__(self, path):
        self.path = path
        with open(self.path, "w") as fh:
            fh.write("t,name,value\n")

    def append_many(self, t, pairs):
        with open(self.path, "a") as fh:
            for name, value in pairs:
                fh.write(f"{t:.17g},{name},{value:.17g}\n")
