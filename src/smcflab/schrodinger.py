"""Covariant Schroedinger evolution of the second fundamental form.

One step is a Strang split: the flat Laplacian propagates through its exact
unitary spectral phase, and the remainder (variable-coefficient divergence
form, magnetic advection, and the assembled nonlinearity) integrates with an
explicit Heun stage at the midpoint gauge.  The coupled driver re-solves the
parabolic gauge every step (default) or runs whole-slab Picard sweeps in
which each sweep solves a linear equation with coefficients and sources from
the previous iterate.
"""

from __future__ import annotations

import numpy as np

from .errors import BlowupError, IterationDivergenceError, SmcfValidationError
from .geometry import SecondForm, laplacian_lower_order
from .parabolic import GaugeState, gauge_path, gauge_state_from, step_parabolic, time_grid
from .trajectory import Trajectory, TrajectoryRecord, records_along, stored


def nonlinearity_terms(sf: SecondForm, s: GaugeState):
    """Yield, one at a time, the named, untruncated top-level terms of the
    nonlinearity F of the iteration form of the lambda equation:

        i d_t lam + d_a(g^{ab} d_b lam) + 2i A^a d_a lam = F.

    Its principal difference d_m(g^{mn} d_n lam) - nabla^s nabla_s lam is first
    order in lam, built from dlam and the metric's cached Gamma contractions and
    d g^{-1}; the nested second-order form is the test oracle.  The inner
    products of the cubic chains keep their own truncation.  sf is traced with
    s.metric.
    """
    grid = s.grid
    m = s.metric
    lam = sf.lam
    dlam = sf.dlam  # [c, a, b]

    # d_m(g^{mn} d_n lam) - nabla^s nabla_s lam, first order in lam
    nlam, S = laplacian_lower_order(m, lam, dlam)  # nlam[c, a, b] = nabla_c lam_ab
    V_nlam = np.einsum("t...,tab...->ab...", m.V, nlam)
    div_ginv = np.einsum("eec...->c...", m.dginv)  # d_e g^{ec}
    yield "principal_difference", np.einsum("c...,cab...->ab...", div_ginv, dlam) + V_nlam + S
    del S, div_ginv

    # i V^s nabla_s lam
    yield "advection", 1j * V_nlam
    del V_nlam

    # 2i A^s (nabla_s - d_s) lam, the covariant completion of the magnetic term
    yield "magnetic_covariant_correction", -2j * np.einsum("s...,sab...->ab...", s.A_up, nlam - dlam)
    del nlam

    # -i (nabla_s A^s) lam + (B + A_s A^s - V_s A^s) lam
    yield "div_A", -1j * np.einsum("...,ab...->ab...", s.B, lam)
    yield "potential", np.einsum("...,ab...->ab...", s.potential, lam)

    # i lam^g_a nabla_b V_g + i lam^g_b nabla_a V_g
    half = np.einsum("ga...,bg...->ab...", sf.lam_up, s.nabla_V_low)
    yield "lambda_grad_V", 1j * (half + np.swapaxes(half, 0, 1))
    del half

    # psi Re(lam_{ad} lambar^d_b)
    yield "psi_quadratic", np.einsum("...,ab...->ab...", sf.psi, grid.dealias(np.real(sf.lam_lambar)))

    # -Re(lam_{sd} lambar_{ab} - lam_{sb} lambar_{ad}) lam^{sd}, the Gauss form
    # with its middle slots swapped
    lam_upup = grid.dealias(np.einsum("sc...,dm...,cm...->sd...", m.ginv, m.ginv, lam))
    yield "curvature_cubic", -np.einsum("sadb...,sd...->ab...", sf.gauss, lam_upup)
    del lam_upup

    # -lam_{am} lambar^m_s lam^s_b
    yield "cubic_chain", -np.einsum("as...,sb...->ab...", grid.dealias(sf.lam_lambar), sf.lam_up)


def assemble_nonlinearity(sf: SecondForm, s: GaugeState):
    """F, the running sum of nonlinearity_terms in their order, dealiased once
    (the truncation is linear) and symmetrized."""
    total = s.grid.dealias(sum(term for _, term in nonlinearity_terms(sf, s)))
    return 0.5 * (total + np.swapaxes(total, 0, 1))


def step_schrodinger(sf: SecondForm, s_mid: GaugeState, dt, frozen_source: SecondForm | None = None) -> SecondForm:
    """One Strang-split step at the midpoint gauge.

    With frozen_source the nonlinearity is evaluated on that second form (the
    linear solve of one Picard sweep); otherwise F is re-evaluated on the
    current stage values.
    """
    if dt <= 0:
        raise SmcfValidationError(f"dt must be positive, got {dt}")
    grid = s_mid.grid
    phase = grid.table(("free_phase", dt), lambda: np.exp(-1j * grid.k_sq * dt / 2.0))

    def free_half(lam):
        return grid.ifft(phase * grid.fft(lam))

    # the frozen source's caches are not needed past F_frozen: drop them
    F_frozen = None if frozen_source is None else assemble_nonlinearity(frozen_source, s_mid)
    frozen_source = None

    def W(lam):
        """d_t lam = i Lap lam + W(lam); the flat phase is handled exactly."""
        if F_frozen is None:
            stage = SecondForm(s_mid.metric, lam)
            F, dlam = assemble_nonlinearity(stage, s_mid), stage.dlam
        else:
            F, dlam = F_frozen, grid.grad(lam)
        flux = grid.div(np.einsum("mn...,nab...->mab...", s_mid.metric.ginv_dev, dlam))
        adv = grid.dealias(np.einsum("s...,sab...->ab...", s_mid.A_up, dlam))
        return 1j * flux - 2.0 * adv - 1j * F

    lam1 = free_half(sf.lam)
    k1 = W(lam1)
    k2 = W(lam1 + dt * k1)
    lam2 = lam1 + 0.5 * dt * (k1 + k2)
    lam3 = free_half(lam2)
    if not np.all(np.isfinite(lam3)):
        raise BlowupError("second form became non-finite during a step", t=s_mid.t)
    return SecondForm(s_mid.metric, lam3)


# -- trajectory drivers ----------------------------------------------------------


def _check_blowup(grid, lam, t, threshold):
    worst = grid.linf(lam)
    if not np.isfinite(worst) or worst > threshold:
        raise BlowupError(f"|lambda| reached {worst:.3e} at t={t:.6g}", t=t)


def _midpoint_gauge(grid, a, b):
    """The state at the average of two (g, A, t) triples."""
    return gauge_state_from(grid, *(0.5 * (x + y) for x, y in zip(a, b)))


def evolve_coupled(
    sf0: SecondForm,
    gauge0: GaugeState,
    T,
    dt,
    sign_variant="plus",
    snapshot_every=1,
    blowup_threshold=1e3,
) -> Trajectory:
    """Per-step re-coupling: predictor lambda step, gauge step, midpoint correction."""
    grid = gauge0.grid
    nsteps, dt = time_grid(T, dt)
    s, sf = gauge0, sf0
    records = [TrajectoryRecord.from_state(0.0, s, sf)]
    for step in range(1, nsteps + 1):
        t_new = step * dt
        sf_pred = step_schrodinger(sf, s, dt)
        s_pred = step_parabolic(s, (sf.lam, sf_pred.lam), dt, sign_variant)
        s_mid = _midpoint_gauge(grid, (s.metric.g, s.A, s.t), (s_pred.metric.g, s_pred.A, s_pred.t))
        del sf_pred, s_pred
        sf_new = step_schrodinger(sf, s_mid, dt)
        del s_mid
        s_new = step_parabolic(s, (sf.lam, sf_new.lam), dt, sign_variant)
        sf_new = SecondForm(s_new.metric, sf_new.lam)
        _check_blowup(grid, sf_new.lam, t_new, blowup_threshold)
        s, sf = s_new, sf_new
        if stored(step, nsteps, snapshot_every):
            records.append(TrajectoryRecord.from_state(t_new, s, sf))
    return Trajectory(grid=grid, records=records, meta={"dt": dt, "mode": "perstep"})


def evolve_slab(
    sf0: SecondForm,
    gauge0: GaugeState,
    T,
    dt,
    sweeps=3,
    sign_variant="plus",
    snapshot_every=1,
    blowup_threshold=1e3,
) -> Trajectory:
    """Whole-slab Picard iteration with trivial initialization.

    Each sweep solves the parabolic system on [0, T] driven by the previous
    lambda iterate, then the linear Schroedinger equation with those
    coefficients and the previous iterate in the source.  The records keep the
    steps evolve_coupled keeps.
    """
    grid = gauge0.grid
    nsteps, dt = time_grid(T, dt)
    times = [i * dt for i in range(nsteps + 1)]
    # the iterate holds (lambda, psi) arrays, not second forms: a form stepped
    # at a midpoint gauge carries that gauge's metric and its caches
    zero = (np.zeros((grid.d, grid.d) + grid.shape, dtype=complex), np.zeros(grid.shape, dtype=complex))
    path = [zero] * (nsteps + 1)
    distances = []
    for _ in range(sweeps):
        # the (g, A, t) of each state: the states' derived fields are rebuilt where read
        stepped = gauge_path(gauge0, [lam for lam, _ in path], [dt] * nsteps, sign_variant)
        gauges = [(s.metric.g, s.A, s.t) for s in stepped]
        new_path = [(sf0.lam, sf0.psi)]
        for i in range(nsteps):
            s_mid = _midpoint_gauge(grid, gauges[i], gauges[i + 1])
            # the forms are passed inline, so step_schrodinger holds their only
            # references; it reads only the lambda of the first
            sf = step_schrodinger(
                SecondForm(s_mid.metric, new_path[-1][0]),
                s_mid,
                dt,
                frozen_source=SecondForm(s_mid.metric, *(0.5 * (x + y) for x, y in zip(path[i], path[i + 1]))),
            )
            _check_blowup(grid, sf.lam, times[i + 1], blowup_threshold)
            new_path.append((sf.lam, sf.psi))
            # the next step reads only this lambda: the midpoint gauge and its caches go
            del sf, s_mid
        distance = max(grid.l2(new[0] - old[0]) for new, old in zip(new_path, path))
        distances.append(distance)
        path = new_path
        if len(distances) >= 3 and distances[-1] > distances[-2] > distances[-3]:
            raise IterationDivergenceError(
                f"Picard sweep distances grew over three sweeps: {distances[-3:]}"
            )
    states = (gauge_state_from(grid, *arrays) for arrays in gauges)
    records = records_along(times, states, [lam for lam, _ in path], snapshot_every)
    return Trajectory(grid=grid, records=records, meta={"dt": dt, "mode": "slab", "sweep_distances": distances})


def picard_evolve(
    sf0: SecondForm,
    gauge0: GaugeState,
    T,
    dt,
    sweeps=3,
    mode="perstep",
    sign_variant="plus",
    snapshot_every=1,
    blowup_threshold=1e3,
) -> Trajectory:
    """Evolve the coupled system on [0, T]; see the module docstring for modes."""
    if T <= 0 or dt <= 0:
        raise SmcfValidationError("T and dt must be positive")
    shared = dict(sign_variant=sign_variant, snapshot_every=snapshot_every, blowup_threshold=blowup_threshold)
    if mode == "perstep":
        return evolve_coupled(sf0, gauge0, T, dt, **shared)
    if mode == "slab":
        return evolve_slab(sf0, gauge0, T, dt, sweeps=sweeps, **shared)
    raise SmcfValidationError(f"mode must be 'perstep' or 'slab', got {mode!r}")
