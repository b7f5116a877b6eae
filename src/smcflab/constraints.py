"""Numerical monitors for the compatibility identities of the gauge system.

Every residual is reported in absolute L2/Linf and relative to its largest
constituent term, which makes "truncation level" resolution-independent.
Time derivatives are formed by three-point differences on stored snapshots,
never from integrator internals, so the monitors stay independent of the
steppers they audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import SecondForm, covariant_derivative, curvature
from .grid import Grid
from .parabolic import GaugeState, connection_terms
from .trajectory import Trajectory, time_derivative


@dataclass
class ResidualNorms:
    l2: float
    linf: float
    rel: float
    scale: float


@dataclass
class ConstraintReport:
    t: float
    entries: dict = field(default_factory=dict)


def _norms(grid: Grid, res, constituents):
    """Absolute norms of res and its ratio to the largest constituent.

    Below the floor 1e3 eps L^(d/2), the grid L2 norm of roundoff on an O(1)
    field, the constituents have no digits left to compare against and rel
    reads 0; a NaN scale reads rel = NaN.
    """
    scale = float(np.max([grid.l2(c) for c in constituents]))
    l2 = grid.l2(res)
    floor = 1e3 * np.finfo(float).eps * grid.L ** (grid.d / 2)
    return ResidualNorms(
        l2=l2,
        linf=grid.linf(res),
        rel=0.0 if scale <= floor else l2 / scale,
        scale=scale,
    )


def residual_T1(sf: SecondForm, ric):
    """Ricci tensor ric of sf.metric against the Ricci form of lambda."""
    res = ric - sf.ricci
    return res, _norms(sf.grid, res, [ric, sf.ricci])


def residual_T2(sf: SecondForm, riem):
    """Full curvature tensor riem of sf.metric against the Gauss form of lambda."""
    res = riem - sf.gauss
    return res, _norms(sf.grid, res, [riem, sf.gauss])


def residual_T3(sf: SecondForm, A):
    """Antisymmetrized gauge-covariant derivative of lambda."""
    nab = covariant_derivative(sf.lam, sf.metric, valence="ll", A=A)  # [c, a, b]
    res = nab - np.swapaxes(nab, 0, 1)
    return res, _norms(sf.grid, res, [nab])


def residual_T4(sf: SecondForm, A):
    """Curvature of the normal connection against Im(lam lambar)."""
    nabA = covariant_derivative(A, sf.metric, valence="l")  # [a, b] = nabla_a A_b
    curl = nabA - np.swapaxes(nabA, 0, 1)
    res = curl - sf.w
    return res, _norms(sf.grid, res, [curl, sf.w])


def residual_T5(s: GaugeState, sf: SecondForm, rec_prev, rec_next):
    """Temporal curvature relation at the state s (time s.t) with second form sf,
    d_t A by trajectory.time_derivative through the neighbouring records."""
    grid = s.grid
    dtA = time_derivative(rec_prev.A, s.A, rec_next.A, rec_prev.t, s.t, rec_next.t)
    dB = grid.grad(s.B)
    re_term, v_term = (grid.dealias(term) for term in connection_terms(s, sf))
    res = dtA - dB - re_term + v_term
    return res, _norms(grid, res, [dtA, dB, re_term, v_term])


def residual_metric_evolution(s: GaugeState, sf: SecondForm, rec_prev, rec_next):
    """d_t g against 2 Im(psi lambar) + symmetrized covariant gradient of V at the
    state s with second form sf, d_t g as d_t A in residual_T5."""
    grid = s.grid
    dtg = time_derivative(rec_prev.g, s.metric.g, rec_next.g, rec_prev.t, s.t, rec_next.t)
    im_term = 2.0 * np.imag(np.einsum("...,ab...->ab...", sf.psi, np.conj(sf.lam)))
    sym = s.nabla_V_low + np.swapaxes(s.nabla_V_low, 0, 1)
    res = dtg - grid.dealias(im_term) - sym
    return res, _norms(grid, res, [dtg, im_term, sym])


def constraint_report(traj: Trajectory, i: int) -> ConstraintReport:
    """All monitors at stored time i; time residuals only at interior indices."""
    rec = traj[i]
    s, sf = rec.states()
    riem, ric = curvature(s.metric)
    report = ConstraintReport(t=rec.t)
    _, report.entries["T1"] = residual_T1(sf, ric)
    _, report.entries["T2"] = residual_T2(sf, riem)
    _, report.entries["T3"] = residual_T3(sf, s.A)
    _, report.entries["T4"] = residual_T4(sf, s.A)
    if 0 < i < len(traj) - 1:
        _, report.entries["T5"] = residual_T5(s, sf, traj[i - 1], traj[i + 1])
        _, report.entries["metric_evolution"] = residual_metric_evolution(s, sf, traj[i - 1], traj[i + 1])
    return report


def constraint_reports(traj: Trajectory):
    return [constraint_report(traj, i) for i in range(len(traj))]


def write_reports_csv(path, reports):
    with open(path, "w") as fh:
        fh.write("t,name,l2,linf,rel,scale\n")
        for rep in reports:
            for name, norms in rep.entries.items():
                fh.write(
                    f"{rep.t:.17g},{name},{norms.l2:.17g},{norms.linf:.17g},"
                    f"{norms.rel:.17g},{norms.scale:.17g}\n"
                )
