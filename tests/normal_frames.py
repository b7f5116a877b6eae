"""Test helper: orthonormal graph normal frames and their connection on fixture data."""

from __future__ import annotations

import numpy as np

from smcflab.geometry import Immersion, MetricState, normal_connection, normal_part


def gram_schmidt_normal(F: Immersion, m: MetricState, nu1, nu2):
    """One projection/normalization sweep of (nu1, nu2) against the tangents:
    second_form takes only orthonormal normal frames and repairs none."""
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


def graph_normal_bundle(F: Immersion, m: MetricState):
    """Orthonormalized graph frame and its connection A_a = d_a nu1 . nu2."""
    grid = F.grid
    nu1 = np.zeros((F.ambient_dim,) + grid.shape)
    nu2 = np.zeros((F.ambient_dim,) + grid.shape)
    nu1[grid.d] = 1.0
    nu2[grid.d + 1] = 1.0
    nu1, nu2 = gram_schmidt_normal(F, m, nu1, nu2)
    return nu1, nu2, normal_connection(grid, nu1, nu2)
