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
    """Absolute norms of res and its ratio to the largest constituent.

    Below the floor 1e3 eps L^(d/2), the grid L2 norm of roundoff on an O(1)
    field, the constituents have no digits left to compare against and rel
    reads 0; a NaN scale reads rel = NaN.
    """
    scale = max([grid.l2(c) for c in constituents] + [0.0])
    l2 = grid.l2(res)
    floor = 1e3 * np.finfo(float).eps * grid.L ** (grid.d / 2)
    return ResidualNorms(
        l2=l2,
        linf=grid.linf(res),
        rel=0.0 if scale <= floor else l2 / scale,
        scale=scale,
    )


def residual_T1(m: MetricState, sf: SecondForm, ric, lam_up=None):
    """Ricci tensor ric of g against its second-fundamental-form representation;
    lam_up is raise_first(m, sf.lam), raised here unless the caller has it."""
    rep = ricci_from_lambda(m, sf.lam, sf.psi, lam_up)
    res = ric - rep
    return res, _norms(m.grid, res, [ric, rep])


def residual_T2(m: MetricState, sf: SecondForm, riem):
    """Full curvature tensor riem of g against the quadratic form of lambda."""
    grid = m.grid
    lam = sf.lam
    rep = grid.dealias(
        np.real(
            np.einsum("bc...,as...->scab...", lam, np.conj(lam))
            - np.einsum("ac...,bs...->scab...", lam, np.conj(lam))
        )
    )
    res = riem - rep
    return res, _norms(grid, res, [riem, rep])


def residual_T3(m: MetricState, sf: SecondForm, A):
    """Antisymmetrized gauge-covariant derivative of lambda."""
    nab = covariant_derivative(sf.lam, m, valence="ll", A=A)  # [c, a, b]
    res = nab - np.swapaxes(nab, 0, 1)
    return res, _norms(m.grid, res, [nab])


def residual_T4(m: MetricState, sf: SecondForm, A, lam_up=None):
    """Curvature of the normal connection against Im(lam lambar); lam_up as for T1."""
    nabA = covariant_derivative(A, m, valence="l")  # [a, b] = nabla_a A_b
    curl = nabA - np.swapaxes(nabA, 0, 1)
    if lam_up is None:
        lam_up = raise_first(m, sf.lam)
    w = curl_source(m.grid, lam_up, sf.lam)
    res = curl - w
    return res, _norms(m.grid, res, [curl, w])


def _centered_dt(prev, nxt, t_prev, t_next):
    return (nxt - prev) / (t_next - t_prev)


def residual_T5(grid: Grid, rec_prev, rec, rec_next, lam_up=None):
    """Temporal curvature relation, with d_t A by centered differences; lam_up
    as for T1, at rec."""
    s = rec.gauge(grid)
    m = s.metric
    sf = rec.second_form(grid)
    dtA = _centered_dt(rec_prev.A, rec_next.A, rec_prev.t, rec_next.t)
    dB = grid.grad(s.B)
    if lam_up is None:
        lam_up = raise_first(m, sf.lam)
    dpsi_cov = grid.grad(sf.psi) + 1j * grid.dealias(np.einsum("g...,...->g...", s.A, sf.psi))
    re_term = grid.dealias(np.real(np.einsum("ga...,g...->a...", lam_up, np.conj(dpsi_cov))))
    w = curl_source(grid, lam_up, sf.lam)
    v_term = grid.dealias(np.einsum("as...,s...->a...", w, s.V))
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


def constraint_report(traj: Trajectory, i: int) -> ConstraintReport:
    """All monitors at stored time i; time residuals only at interior indices."""
    grid = traj.grid
    rec = traj[i]
    s = rec.gauge(grid)
    m = s.metric
    riem, ric = curvature(m)
    sf = rec.second_form(grid)
    lam_up = raise_first(m, sf.lam)
    report = ConstraintReport(t=rec.t)
    _, report.entries["T1"] = residual_T1(m, sf, ric, lam_up)
    _, report.entries["T2"] = residual_T2(m, sf, riem)
    _, report.entries["T3"] = residual_T3(m, sf, s.A)
    _, report.entries["T4"] = residual_T4(m, sf, s.A, lam_up)
    if 0 < i < len(traj) - 1:
        _, report.entries["T5"] = residual_T5(grid, traj[i - 1], rec, traj[i + 1], lam_up)
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
