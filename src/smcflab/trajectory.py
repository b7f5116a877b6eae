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


@dataclass
class TrajectoryRecord:
    t: float
    g: np.ndarray
    A: np.ndarray
    lam: np.ndarray
    psi: np.ndarray
    _gauge: object = field(default=None, repr=False, compare=False)

    @classmethod
    def from_state(cls, t, gauge, sf: SecondForm):
        """Copies of a gauge state's (g, A) and a second form's (lam, psi) at time t."""
        return cls(t=t, g=gauge.metric.g.copy(), A=gauge.A.copy(), lam=sf.lam.copy(), psi=sf.psi.copy())

    def gauge(self, grid: Grid):
        if self._gauge is None or self._gauge.grid is not grid:
            from .parabolic import gauge_state_from

            self._gauge = gauge_state_from(grid, self.g, self.A, t=self.t)
        return self._gauge

    def second_form(self, grid: Grid) -> SecondForm:
        """A new second form on the record's metric each call: the record keeps
        none of its contractions."""
        return SecondForm(self.gauge(grid).metric, self.lam, self.psi)


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


def _components(grid):
    d = grid.d
    comps = []
    for a in range(d):
        for b in range(a, d):
            comps.append(("h", (a, b)))
    for a in range(d):
        comps.append(("A", (a,)))
    for a in range(d):
        for b in range(a, d):
            comps.append(("lam", (a, b)))
    comps.append(("psi", ()))
    return comps


def save_trajectory(dirpath, traj: Trajectory):
    os.makedirs(dirpath, exist_ok=True)
    grid = traj.grid
    index_rows = []
    for step, rec in enumerate(traj.records):
        prefix = f"snap_{step:06d}"
        for kind, idx in _components(grid):
            tag = kind + "".join(str(i) for i in idx)
            name = f"{prefix}_{tag}"
            if kind == "h":
                a, b = idx
                fld = GridField.from_real(grid, rec.g[a, b] - (1.0 if a == b else 0.0), name=tag)
            elif kind == "A":
                fld = GridField.from_real(grid, rec.A[idx[0]], name=tag)
            elif kind == "lam":
                a, b = idx
                fld = GridField(grid, rec.lam[a, b], parity="complex", name=tag)
            else:
                fld = GridField(grid, rec.psi, parity="complex", name=tag)
            write_field(os.path.join(dirpath, name + ".smcf"), fld)
        index_rows.append((step, rec.t, prefix))
    with open(os.path.join(dirpath, "index.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "prefix"])
        for row in index_rows:
            writer.writerow([row[0], f"{row[1]:.17g}", row[2]])


def load_trajectory(dirpath, grid: Grid | None = None) -> Trajectory:
    """Rebuild a trajectory from a snapshot directory.

    Pass the run's Grid to preserve a non-default dealias fraction; snapshot
    headers carry only (d, n, L).
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
        records.append(TrajectoryRecord(t=t, g=g, A=A, lam=lam, psi=psi))
    return Trajectory(grid=grid, records=records)
