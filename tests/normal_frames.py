"""Test helper: orthonormal graph normal frames and their connection on fixture data."""

from __future__ import annotations

import numpy as np

from smcflab.geometry import Immersion, MetricState, gram_schmidt_normal, normal_connection


def graph_normal_bundle(F: Immersion, m: MetricState):
    """Orthonormalized graph frame and its connection A_a = d_a nu1 . nu2."""
    grid = F.grid
    nu1 = np.zeros((F.ambient_dim,) + grid.shape)
    nu2 = np.zeros((F.ambient_dim,) + grid.shape)
    nu1[grid.d] = 1.0
    nu2[grid.d + 1] = 1.0
    nu1, nu2 = gram_schmidt_normal(F, m, nu1, nu2)
    return nu1, nu2, normal_connection(grid, nu1, nu2)
