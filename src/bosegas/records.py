"""Result records, tabular writers, and binary snapshot formats.

A record is exact when its estimator returned no error, and it refuses a
non-finite exact value or a NaN or negative error.  Binary payloads (field
snapshots, chain checkpoints) are flat arrays plus a JSON sidecar describing
shape, grid, and versions, so they remain readable without this package.
"""

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__


@dataclass
class ResultRecord:
    config_hash: str
    observable: str
    value: float
    std_error: float | None = None  # None means exact
    ess: float | None = None
    code_version: str = __version__

    def __post_init__(self):
        if self.std_error is None and not np.isfinite(self.value):
            raise ValueError(f"{self.observable}: exact value {self.value!r} is not finite")
        if self.std_error is not None and not self.std_error >= 0:
            raise ValueError(f"{self.observable}: std_error {self.std_error!r} is NaN or negative")

    @property
    def tag(self) -> str:
        return "exact" if self.std_error is None else "estimated"


def config_hash(payload) -> str:
    """Stable hash of a run configuration (dict of plain values)."""
    canon = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(canon).hexdigest()[:16]


CSV_FIELDS = ["config_hash", "observable", "value", "std_error", "tag", "ess", "code_version"]


def write_records_csv(records, path):
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        w.writeheader()
        for r in records:
            row = asdict(r)
            row["tag"] = r.tag
            row["std_error"] = "" if r.std_error is None else repr(r.std_error)
            row["value"] = repr(r.value)
            row["ess"] = "" if r.ess is None else repr(r.ess)
            w.writerow({k: row[k] for k in CSV_FIELDS})


def write_records_json(records, path):
    out = []
    for r in records:
        d = asdict(r)
        d["tag"] = r.tag
        out.append(d)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)


def save_field_snapshot(values: np.ndarray, grid_meta: dict, path_base: str):
    """Flat float64 binary plus a JSON sidecar with shape and grid data."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    arr.tofile(path_base + ".bin")
    sidecar = {
        "format": "bosegas-field-snapshot",
        "version": 1,
        "dtype": "float64",
        "order": "C",
        "shape": list(arr.shape),
        "grid": grid_meta,
        "code_version": __version__,
    }
    with open(path_base + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)


def load_field_snapshot(path_base: str):
    with open(path_base + ".json") as fh:
        sidecar = json.load(fh)
    arr = np.fromfile(path_base + ".bin", dtype=np.float64).reshape(sidecar["shape"])
    return arr, sidecar


def save_loop_checkpoint(
    config,
    region_meta: dict,
    rng_state: dict,
    path_base: str,
    sweep: int,
    chain_state: dict,
    N_history=(),
):
    """Self-describing chain checkpoint, format version 2.

    The npz blob holds the packed configuration (knots, offsets, windings,
    images) and the particle number after each recorded sweep (N_history, the
    last entry being sweep - 1); the JSON sidecar holds the sweep count, the
    region, the RNG state and chain_state (energy and move counters).
    """
    np.savez_compressed(
        path_base + ".npz",
        knots=config.knots,
        offsets=config.offsets,
        windings=config.windings,
        images=config.images,
        N_history=np.asarray(N_history, dtype=np.int64),
    )
    sidecar = {
        "format": "bosegas-loop-checkpoint",
        "version": 2,
        "sweep": sweep,
        "region": region_meta,
        "rng_state": rng_state,
        "chain": chain_state,
        "code_version": __version__,
    }
    with open(path_base + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)


def load_loop_checkpoint(path_base: str):
    """(configuration, sidecar) of a version 2 checkpoint; the sidecar's
    "N_history" is the array from the blob."""
    from .loopgas.loops import LoopConfiguration

    with open(path_base + ".json") as fh:
        sidecar = json.load(fh)
    if sidecar.get("version") != 2:
        raise ValueError(f"unsupported loop checkpoint version {sidecar.get('version')!r}")
    if not {"energy", "attempts", "accepts"} <= set(sidecar.get("chain", {})):
        raise ValueError(f"loop checkpoint chain {sidecar.get('chain')!r} lacks energy, attempts or accepts")
    with np.load(path_base + ".npz") as blobs:
        config = LoopConfiguration(
            knots=blobs["knots"], offsets=blobs["offsets"],
            windings=blobs["windings"], images=blobs["images"],
        )
        sidecar["N_history"] = blobs["N_history"]
    return config, sidecar
