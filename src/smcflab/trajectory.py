"""Trajectory records: slim snapshots of the coupled evolution.

Records hold raw (g, A, lambda, psi) arrays; derived structures (Christoffel,
V, B) are rebuilt on demand so that published states always satisfy the gauge
identities by recomputation, and the monitors build the curvature themselves.
Persistence uses the self-describing binary field format plus an index CSV.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import SmcfValidationError
from .geometry import SecondForm
from .grid import Grid, GridField, read_field, write_field
from .parabolic import GaugeState, gauge_state_from


@dataclass
class TrajectoryRecord:
    """The state at time t on its grid, as arrays only: a state never changes its
    arrays, so neither may a record."""

    grid: Grid
    t: float
    g: np.ndarray
    A: np.ndarray
    lam: np.ndarray
    psi: np.ndarray

    @classmethod
    def from_state(cls, t, gauge: GaugeState, sf: SecondForm):
        """A gauge state's (g, A) and a second form's (lam, psi) at time t, stored, not copied."""
        return cls(gauge.grid, t, gauge.metric.g, gauge.A, sf.lam, sf.psi)

    @property
    def gauge(self) -> GaugeState:
        """A new gauge state of (g, A) on each read: the record keeps none of its fields."""
        return gauge_state_from(self.grid, self.g, self.A, t=self.t)

    def states(self):
        """(gauge, second form): a new gauge state and a second form on its metric."""
        s = self.gauge
        return s, SecondForm(s.metric, self.lam, self.psi)


def stored(i, nsteps, every):
    """Whether step i of nsteps is kept: every every-th step and the last."""
    return i % every == 0 or i == nsteps


def records_along(times, gauges, lams, every):
    """The stored records of the gauge states gauges[i] at times[i], each paired
    with lams[i] and its psi traced on that state's own metric."""
    nsteps = len(times) - 1
    return [
        TrajectoryRecord.from_state(t, s, SecondForm(s.metric, lam))
        for i, (t, s, lam) in enumerate(zip(times, gauges, lams))
        if stored(i, nsteps, every)
    ]


@dataclass
class Trajectory:
    grid: Grid
    records: list
    meta: dict = field(default_factory=dict)

    @property
    def times(self):
        return np.array([r.t for r in self.records])

    def __len__(self):
        return len(self.records)

    def __getitem__(self, i) -> TrajectoryRecord:
        return self.records[i]


def measurable(t, rows):
    """rows, a list of (name, value); refuses the record at t if a value is not
    finite.  A stored value can be finite and still overflow the audit."""
    for name, value in rows:
        if not np.isfinite(value):
            raise SmcfValidationError(f"the record at t={t:.17g} cannot be measured: {name} is {value}")
    return rows


def time_derivative(f0, f1, f2, t0, t1, t2):
    """d_t f at t1: the slope of the quadratic through (t_k, f_k), second order on
    uneven spacing, and exactly the centred difference when t1 - t0 == t2 - t1."""
    h1, h2 = t1 - t0, t2 - t1
    return (f2 - f0) / (t2 - t0) + (h1 - h2) / (t2 - t0) * ((f2 - f1) / h2 - (f1 - f0) / h1)


def record_fields(rec: TrajectoryRecord):
    """The snapshot fields of one record, each named by its file tag: h_ab and
    lambda_ab for a <= b, A_a and psi."""
    grid = rec.grid
    for a in range(grid.d):
        for b in range(a, grid.d):
            yield GridField.from_real(grid, rec.g[a, b] - (1.0 if a == b else 0.0), name=f"h{a}{b}")
            yield GridField(grid, rec.lam[a, b], name=f"lam{a}{b}")
        yield GridField.from_real(grid, rec.A[a], name=f"A{a}")
    yield GridField(grid, rec.psi, name="psi")


def write_fields(dirpath, prefix, fields):
    """Write each field to <dirpath>/<prefix>_<name>.smcf."""
    for fld in fields:
        write_field(os.path.join(dirpath, f"{prefix}_{fld.name}.smcf"), fld)


def save_trajectory(dirpath, traj: Trajectory):
    os.makedirs(dirpath, exist_ok=True)
    index_rows = []
    for step, rec in enumerate(traj.records):
        prefix = f"snap_{step:06d}"
        write_fields(dirpath, prefix, record_fields(rec))
        index_rows.append((step, rec.t, prefix))
    with open(os.path.join(dirpath, "index.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "prefix"])
        for row in index_rows:
            writer.writerow([row[0], f"{row[1]:.17g}", row[2]])


def load_trajectory(dirpath, grid: Grid | None = None) -> Trajectory:
    """Rebuild a trajectory from a snapshot directory.

    With the run's Grid the records share that grid object and its tables, and
    every snapshot header must match its (d, n, L).
    """
    index_path = os.path.join(dirpath, "index.csv")
    if not os.path.exists(index_path):
        raise SmcfValidationError(f"{dirpath}: no trajectory index found")
    try:
        with open(index_path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except OSError as exc:
        raise SmcfValidationError(f"{index_path}: cannot read the trajectory index: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise SmcfValidationError(f"{index_path}: trajectory index is not UTF-8 text") from None
    missing = [col for col in ("t", "prefix") if col not in (reader.fieldnames or ())]
    if missing:
        raise SmcfValidationError(f"{index_path}: trajectory index lacks column(s) {', '.join(missing)}")
    if not rows:
        raise SmcfValidationError(f"{dirpath}: empty trajectory index")
    times = []
    for lineno, row in enumerate(rows, 2):
        try:
            t = float(row["t"])
        except (TypeError, ValueError):
            t = float("nan")
        if not np.isfinite(t) or (times and t <= times[-1]):
            raise SmcfValidationError(
                f"{index_path} line {lineno}: t must be finite and increasing, got {row['t']!r}"
            )
        if not row["prefix"]:
            raise SmcfValidationError(f"{index_path} line {lineno}: no snapshot prefix")
        times.append(t)
    first = read_field(os.path.join(dirpath, rows[0]["prefix"] + "_psi.smcf"), grid=grid)
    grid = first.grid
    d = grid.d
    records = []
    for t, row in zip(times, rows):
        prefix = row["prefix"]

        def load(tag, real=False):
            path = os.path.join(dirpath, f"{prefix}_{tag}.smcf")
            fld = read_field(path, grid=grid)
            # h and A are written real: a complex file for them is corrupt
            if real and fld.parity != "real":
                raise SmcfValidationError(f"{path}: {tag} must be a real field, the file says complex")
            return fld.values.real if real else fld.values

        g = np.zeros((d, d) + grid.shape)
        lam = np.zeros((d, d) + grid.shape, dtype=complex)
        for a in range(d):
            for b in range(a, d):
                g[a, b] = load(f"h{a}{b}", real=True) + (1.0 if a == b else 0.0)
                g[b, a] = g[a, b]
                lam[a, b] = load(f"lam{a}{b}")
                lam[b, a] = lam[a, b]
        A = np.stack([load(f"A{a}", real=True) for a in range(d)])
        psi = load("psi") if records else first.values
        records.append(TrajectoryRecord(grid, t, g, A, lam, psi))
    return Trajectory(grid=grid, records=records)
