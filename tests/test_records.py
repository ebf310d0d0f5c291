"""Record writers and binary snapshot round trips."""

import csv
import json

import numpy as np
import pytest

from bosegas.loopgas import BoxRegion, sample_free_poisson
from bosegas.records import (
    ResultRecord,
    load_field_snapshot,
    load_loop_checkpoint,
    save_field_snapshot,
    save_loop_checkpoint,
    write_records_csv,
    write_records_json,
)


@pytest.mark.parametrize("value, std_error", [
    (float("inf"), None),   # an infinite exact value
    (float("-inf"), None),
    (float("nan"), None),   # a NaN exact value
    (1.0, float("nan")),    # a NaN error
    (1.0, -0.1),            # a negative error
])
def test_record_refuses(value, std_error):
    with pytest.raises(ValueError, match="rho"):
        ResultRecord("abc", "rho", value, std_error)


def test_exact_tag(tmp_path):
    recs = [
        ResultRecord("abc", "rho", 0.1, std_error=None),
        ResultRecord("abc", "mean", 0.2, std_error=0.01, ess=200.0),
    ]
    assert recs[0].tag == "exact"
    assert recs[1].tag == "estimated"
    write_records_csv(recs, tmp_path / "r.csv")
    write_records_json(recs, tmp_path / "r.json")
    text = (tmp_path / "r.csv").read_text()
    assert "exact" in text and "estimated" in text


def test_numerics_exclude_wall_time(tmp_path):
    # wall time lives in meta.json only, so the result files are byte-deterministic
    recs = [ResultRecord("h", "x", 1.5, None), ResultRecord("h", "y", 2.5, 0.1, ess=50.0)]
    write_records_csv(recs, tmp_path / "r.csv")
    write_records_json(recs, tmp_path / "r.json")
    with open(tmp_path / "r.csv") as fh:
        header = next(csv.reader(fh))
    assert "wall_time" not in header
    assert all("wall_time" not in row for row in json.loads((tmp_path / "r.json").read_text()))


def test_field_snapshot_roundtrip(tmp_path):
    values = np.arange(24.0).reshape(2, 3, 4)
    save_field_snapshot(values, {"L": 4.0, "beta": 1.0}, str(tmp_path / "snap"))
    back, sidecar = load_field_snapshot(str(tmp_path / "snap"))
    assert np.array_equal(back, values)
    assert sidecar["grid"]["L"] == 4.0


def test_loop_checkpoint_roundtrip(tmp_path):
    region = BoxRegion(d=2, L=5.0, n_slices=4)
    cfg = sample_free_poisson(0.6, 1.0, region, rng_seed=3)
    chain = {"energy": 0.0, "attempts": {"insert": 3}, "accepts": {"insert": 1}}
    save_loop_checkpoint(cfg, {"d": 2, "L": 5.0}, {"alg": "pcg64", "state": 7}, str(tmp_path / "ck"), sweep=12,
                         chain_state=chain)
    back, sidecar = load_loop_checkpoint(str(tmp_path / "ck"))
    assert sidecar["chain"] == chain
    assert back.loop_count == cfg.loop_count
    assert back.particle_number == cfg.particle_number
    for a, b in zip(cfg.loops, back.loops):
        assert np.array_equal(a.path, b.path)
        assert a.winding == b.winding
    assert sidecar["sweep"] == 12
    assert sidecar["rng_state"]["state"] == 7


def test_loop_checkpoint_version_1_refused(tmp_path):
    # version 1 (one path_i array per loop, no history) is no longer read
    region = BoxRegion(d=2, L=5.0, n_slices=4)
    cfg = sample_free_poisson(0.6, 1.0, region, rng_seed=4)
    base = str(tmp_path / "v1")
    np.savez_compressed(base + ".npz", **{f"path_{i}": lp.path for i, lp in enumerate(cfg.loops)})
    with open(base + ".json", "w") as fh:
        json.dump({"format": "bosegas-loop-checkpoint", "version": 1, "sweep": 7, "region": {},
                   "loops": [{"winding": int(lp.winding), "image": [int(v) for v in lp.image]}
                             for lp in cfg.loops],
                   "rng_state": {}}, fh)
    with pytest.raises(ValueError, match="unsupported loop checkpoint version 1"):
        load_loop_checkpoint(base)


@pytest.mark.parametrize("missing", ["energy", "attempts", "accepts"])
def test_loop_checkpoint_without_chain_state_refused(tmp_path, missing):
    # a checkpoint that cannot resume is refused when it is read, not with a
    # KeyError deep in resume_gibbs
    region = BoxRegion(d=2, L=5.0, n_slices=4)
    cfg = sample_free_poisson(0.6, 1.0, region, rng_seed=5)
    chain = {"energy": 0.0, "attempts": {}, "accepts": {}}
    del chain[missing]
    base = str(tmp_path / "ck")
    save_loop_checkpoint(cfg, {"d": 2, "L": 5.0}, {}, base, sweep=3, chain_state=chain)
    with pytest.raises(ValueError, match="lacks energy, attempts or accepts"):
        load_loop_checkpoint(base)
