"""Numerical monitors for the compatibility identities of the gauge system.

Every residual is reported in absolute L2/Linf and relative to its largest
constituent term, which makes "truncation level" resolution-independent.
Time derivatives are formed by centered differences on stored snapshots,
never from integrator internals, so the monitors stay independent of the
steppers they audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    MetricState,
    SecondForm,
    covariant_derivative,
    curl_source,
    curvature,
    raise_first,
    ricci_from_lambda,
)
from .grid import Grid
from .trajectory import Trajectory


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

    def rows(self):
        for name, norms in self.entries.items():
            yield name, norms


def _norms(grid: Grid, res, constituents):
    scale = max([grid.l2(c) for c in constituents] + [0.0])
    l2 = grid.l2(res)
    return ResidualNorms(
        l2=l2,
        linf=grid.linf(res),
        rel=l2 / scale if scale > 0 else l2,
        scale=scale,
    )


def residual_T1(m: MetricState, sf: SecondForm):
    """Ricci of g against its second-fundamental-form representation."""
    if m.ric is None:
        m = curvature(m)
    rep = ricci_from_lambda(m, sf.lam, sf.psi)
    res = m.ric - rep
    return res, _norms(m.grid, res, [m.ric, rep])


def residual_T2(m: MetricState, sf: SecondForm):
    """Full curvature tensor against the quadratic form of lambda."""
    if m.riem is None:
        m = curvature(m)
    grid = m.grid
    lam = sf.lam
    rep = grid.dealias(
        np.real(
            np.einsum("bc...,as...->scab...", lam, np.conj(lam))
            - np.einsum("ac...,bs...->scab...", lam, np.conj(lam))
        )
    )
    res = m.riem - rep
    return res, _norms(grid, res, [m.riem, rep])


def residual_T3(m: MetricState, sf: SecondForm, A):
    """Antisymmetrized gauge-covariant derivative of lambda."""
    nab = covariant_derivative(sf.lam, m, valence="ll", A=A)  # [c, a, b]
    res = nab - np.swapaxes(nab, 0, 1)
    return res, _norms(m.grid, res, [nab])


def residual_T4(m: MetricState, sf: SecondForm, A):
    """Curvature of the normal connection against Im(lam lambar)."""
    nabA = covariant_derivative(A, m, valence="l")  # [a, b] = nabla_a A_b
    curl = nabA - np.swapaxes(nabA, 0, 1)
    w = curl_source(m.grid, raise_first(m, sf.lam), sf.lam)
    res = curl - w
    return res, _norms(m.grid, res, [curl, w])


def _centered_dt(prev, nxt, t_prev, t_next):
    return (nxt - prev) / (t_next - t_prev)


def residual_T5(grid: Grid, rec_prev, rec, rec_next):
    """Temporal curvature relation, with d_t A by centered differences."""
    s = rec.gauge(grid)
    m = s.metric
    sf = rec.second_form(grid)
    dtA = _centered_dt(rec_prev.A, rec_next.A, rec_prev.t, rec_next.t)
    dB = grid.grad(s.B)
    lam_up = raise_first(m, sf.lam)
    dpsi_cov = grid.grad(sf.psi) + 1j * grid.dealias(np.einsum("g...,...->g...", s.A, sf.psi))
    re_term = grid.dealias(np.real(np.einsum("ga...,g...->a...", lam_up, np.conj(dpsi_cov))))
    w2 = grid.dealias(np.imag(np.einsum("ga...,gs...->as...", lam_up, np.conj(sf.lam))))
    v_term = grid.dealias(np.einsum("as...,s...->a...", w2, s.V))
    res = dtA - dB - re_term + v_term
    return res, _norms(grid, res, [dtA, dB, re_term, v_term])


def residual_metric_evolution(grid: Grid, rec_prev, rec, rec_next):
    """d_t g against 2 Im(psi lambar) + symmetrized covariant gradient of V."""
    s = rec.gauge(grid)
    sf = rec.second_form(grid)
    dtg = _centered_dt(rec_prev.g, rec_next.g, rec_prev.t, rec_next.t)
    im_term = 2.0 * np.imag(np.einsum("...,ab...->ab...", sf.psi, np.conj(sf.lam)))
    sym = s.nabla_V_low + np.swapaxes(s.nabla_V_low, 0, 1)
    res = dtg - grid.dealias(im_term) - sym
    return res, _norms(grid, res, [dtg, im_term, sym])


STATIC_RESIDUALS = ("T1", "T2", "T3", "T4")
TIME_RESIDUALS = ("T5", "metric_evolution")


def constraint_report(traj: Trajectory, i: int) -> ConstraintReport:
    """All monitors at stored time i; time residuals only at interior indices."""
    grid = traj.grid
    rec = traj[i]
    s = rec.gauge(grid)
    m = curvature(s.metric)
    sf = rec.second_form(grid)
    report = ConstraintReport(t=rec.t)
    _, report.entries["T1"] = residual_T1(m, sf)
    _, report.entries["T2"] = residual_T2(m, sf)
    _, report.entries["T3"] = residual_T3(m, sf, s.A)
    _, report.entries["T4"] = residual_T4(m, sf, s.A)
    if 0 < i < len(traj) - 1:
        _, report.entries["T5"] = residual_T5(grid, traj[i - 1], rec, traj[i + 1])
        _, report.entries["metric_evolution"] = residual_metric_evolution(
            grid, traj[i - 1], rec, traj[i + 1]
        )
    return report


def constraint_reports(traj: Trajectory):
    return [constraint_report(traj, i) for i in range(len(traj))]


def write_reports_csv(path, reports):
    with open(path, "w") as fh:
        fh.write("t,name,l2,linf,rel,scale\n")
        for rep in reports:
            for name, norms in rep.rows():
                fh.write(
                    f"{rep.t:.17g},{name},{norms.l2:.17g},{norms.linf:.17g},"
                    f"{norms.rel:.17g},{norms.scale:.17g}\n"
                )
