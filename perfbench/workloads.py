"""Benchmark workloads: which config each one runs and how a seed varies it.

Every workload starts from one of the repository's canonical config files and
applies fixed overrides.  Seed 0 is the default and leaves the drawn keys as
the file has them.  Any other seed draws `bump_epsilon` (bump workloads) from
a ±5 % band around the file's value, or `cliff_radius_r` (cliff workload)
from (0.95, 1.0]; every output check holds in these bands.  The program sees
only the resulting config text; nothing passes the seed to it.

This module uses the standard library only, so the driver can build configs
without importing numpy or the package.
"""

from __future__ import annotations

import math
import random

BUMP_FILE = "configs/bump_smalldata.txt"
CLIFF_FILE = "configs/cliff_oracle.txt"

# Relative width of the band a nonzero seed draws from.
BAND = 0.05

WORKLOADS = {
    "cliff8": {
        "kind": "cliff",
        "file": CLIFF_FILE,
        "overrides": {},
        # one pass audits for only ~1.2 s, too short a window on a noisy host
        "min_passes": 2,
    },
    "bump64": {
        "kind": "bump",
        "file": BUMP_FILE,
        "overrides": {},
        "min_passes": 1,
    },
    "bump128": {
        "kind": "bump",
        "file": BUMP_FILE,
        "overrides": {
            "grid_points_n": "128",
            "time_step_dt": "0.015625",
            "final_time_T": "0.0625",
        },
        "min_passes": 1,
    },
    "bump64-slab": {
        "kind": "bump",
        "file": BUMP_FILE,
        "overrides": {"coupling_mode": "slab", "picard_sweeps": "3"},
        "min_passes": 1,
    },
}


def parse_config_text(text):
    """Ordered (key, value) pairs of a flat `key = value` config."""
    pairs = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValueError(f"not a config line: {raw!r}")
        pairs.append((key.strip(), val.strip()))
    return pairs


def seeded_overrides(name, seed):
    """The keys a seed changes; empty for the default seed 0."""
    if seed == 0:
        return {}
    rng = random.Random(f"{name}/{seed}")
    if WORKLOADS[name]["kind"] == "cliff":
        # r <= 1 keeps the box's dyadic band range, and with it every call
        # count, equal to that of r = 1; the product torus needs a box that
        # winds each circle once
        r = 1.0 - BAND * rng.random()
        return {"cliff_radius_r": repr(r), "box_length_L": repr(2.0 * math.pi * r)}
    return {"bump_epsilon": repr(0.02 * (1.0 + rng.uniform(-BAND, BAND)))}


def workload_config(name, seed, base_text, output_dir):
    """Config text for one workload and seed, built on the base file's text."""
    spec = WORKLOADS[name]
    values = dict(parse_config_text(base_text))
    changes = dict(spec["overrides"])
    changes.update(seeded_overrides(name, seed))
    changes["output_dir"] = output_dir
    for key in changes:
        if key not in values:
            raise KeyError(f"{spec['file']} has no key {key!r}")
    values.update(changes)
    lines = [f"# perfbench workload {name}, seed {seed}"]
    lines += [f"{key} = {val}" for key, val in values.items()]
    return "\n".join(lines) + "\n"
