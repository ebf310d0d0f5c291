"""Runner: config validation, determinism, sweeps, output hygiene."""

import json
import os

import numpy as np
import pytest

from bosegas.cli import _run_gauss, main, run, sweep
from bosegas.errors import ConfigError
from bosegas.runcfg import parse_potential, parse_run_config


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


IDEAL = """
[run]
kind = ideal
seed = 3

[physics]
beta_values = 0.5, 1.0, 2.0, 4.0
mu = 0.5

[geometry]
d = 3
L = 8.0
"""

LOOPS = """
[run]
kind = loops
seed = 5

[physics]
beta = 1.0
z = 0.3
potential = hardcore:0.8

[geometry]
d = 3
L = 5.0
boundary = periodic
n_slices = 4

[sampler]
n_sweeps = 200
thin = 5
"""

ORACLE = """
[run]
kind = oracle
seed = 1

[physics]
beta = 1.0
mu = 0.8

[modes]
energies = 0.0, 0.7, 1.3
n_max = 40
"""


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        bad = IDEAL.replace("d = 3", "d = 3\nwhatever = 1")
        path = write(tmp_path, "bad.ini", bad)
        with pytest.raises(ConfigError, match="whatever"):
            parse_run_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path, "bad.ini", IDEAL + "\n[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            parse_run_config(path)

    def test_range_check(self, tmp_path):
        path = write(tmp_path, "bad.ini", IDEAL.replace("L = 8.0", "L = -2.0"))
        with pytest.raises(ConfigError, match=r"\[geometry\] L"):
            parse_run_config(path)

    def test_missing_required(self, tmp_path):
        path = write(tmp_path, "bad.ini", IDEAL.replace("beta_values = 0.5, 1.0, 2.0, 4.0", ""))
        with pytest.raises(ConfigError, match="beta_values"):
            parse_run_config(path)

    def test_potential_specs(self):
        assert parse_potential("none", 3) is None
        assert parse_potential("hardcore:0.5", 3).hard_core == 0.5
        V = parse_potential("gauss:1.5,0.8", 3)
        assert np.isclose(float(V(0.8)), 1.5 * np.exp(-1.0))
        with pytest.raises(ConfigError):
            parse_potential("what:1", 3)


class TestRun:
    def test_ideal_scaling_table(self, tmp_path):
        cfgp = write(tmp_path, "ideal.ini", IDEAL)
        status = run(cfgp, out=str(tmp_path / "out"))
        assert status == 0
        import csv

        with open(tmp_path / "out" / "table.csv") as fh:
            rows = list(csv.DictReader(fh))
        betas = np.array([float(r["beta"]) for r in rows])
        rho_cr = np.array([float(r["rho_cr"]) for r in rows])
        slope = np.polyfit(np.log(betas), np.log(rho_cr), 1)[0]
        assert abs(slope + 1.5) < 0.015

    def test_determinism_byte_identical(self, tmp_path):
        cfgp = write(tmp_path, "loops.ini", LOOPS)
        run(cfgp, out=str(tmp_path / "a"))
        run(cfgp, out=str(tmp_path / "b"))
        for name in ("table.csv", "results.csv", "results.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_collision_refused(self, tmp_path):
        cfgp = write(tmp_path, "oracle.ini", ORACLE)
        assert run(cfgp, out=str(tmp_path / "out")) == 0
        with pytest.raises(ConfigError, match="force"):
            run(cfgp, out=str(tmp_path / "out"))
        assert run(cfgp, out=str(tmp_path / "out"), force=True) == 0

    def test_oracle_payload(self, tmp_path):
        cfgp = write(tmp_path, "oracle.ini", ORACLE)
        run(cfgp, out=str(tmp_path / "out"))
        recs = json.loads((tmp_path / "out" / "results.json").read_text())
        names = {r["observable"] for r in recs}
        assert "logZ" in names and "mean_N" in names
        assert all(r["tag"] == "exact" for r in recs)

    def test_kind_mismatch(self, tmp_path):
        cfgp = write(tmp_path, "ideal.ini", IDEAL)
        assert main(["loops", "--config", cfgp]) == 2


class TestSweep:
    def test_empty_values_noop(self, tmp_path):
        cfgp = write(tmp_path, "ideal.ini", IDEAL)
        assert sweep(cfgp, "geometry.L", [], out=str(tmp_path / "s")) == 0

    def test_sweep_and_resume(self, tmp_path):
        cfgp = write(tmp_path, "ideal.ini", IDEAL)
        out = str(tmp_path / "s")
        assert sweep(cfgp, "geometry.L", [6.0, 8.0], out=out) == 0
        manifest = json.loads((tmp_path / "s" / "sweep-manifest.json").read_text())
        assert manifest == {"point-000": True, "point-001": True}
        mtimes = {p: os.path.getmtime(os.path.join(out, p, "results.csv"))
                  for p in ("point-000", "point-001")}
        # resuming skips completed points: the outputs are untouched
        assert sweep(cfgp, "geometry.L", [6.0, 8.0, 10.0], out=out) == 0
        for p, t in mtimes.items():
            assert os.path.getmtime(os.path.join(out, p, "results.csv")) == t
        assert os.path.exists(os.path.join(out, "point-002", "results.csv"))

    def test_failed_point_is_not_marked_done(self, tmp_path, capsys):
        cfgp = write(tmp_path, "ideal.ini", IDEAL)
        out = str(tmp_path / "s")
        # L = -2 fails the range check of the point's config
        assert sweep(cfgp, "geometry.L", [6.0, -2.0, 10.0], out=out) != 0
        assert "point-001" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "s" / "sweep-manifest.json").read_text())
        assert manifest == {"point-000": True, "point-002": True}
        assert not os.path.exists(os.path.join(out, "sweep-manifest.json.tmp"))
        mtimes = {p: os.path.getmtime(os.path.join(out, p, "results.csv")) for p in manifest}
        # the re-run without --force runs only the failed point
        assert sweep(cfgp, "geometry.L", [6.0, 8.0, 10.0], out=out) == 0
        for p, t in mtimes.items():
            assert os.path.getmtime(os.path.join(out, p, "results.csv")) == t
        assert os.path.exists(os.path.join(out, "point-001", "results.csv"))
        manifest = json.loads((tmp_path / "s" / "sweep-manifest.json").read_text())
        assert manifest == {"point-000": True, "point-001": True, "point-002": True}

    def test_failed_point_with_threads(self, tmp_path):
        cfgp = write(tmp_path, "ideal.ini", IDEAL)
        out = str(tmp_path / "s")
        assert sweep(cfgp, "geometry.L", [-1.0, 6.0, -2.0, 8.0], out=out, threads=2) != 0
        manifest = json.loads((tmp_path / "s" / "sweep-manifest.json").read_text())
        assert manifest == {"point-001": True, "point-003": True}

    def test_manifest_keeps_every_point_under_thread_switching(self, tmp_path):
        # more threads than cores and a short switch interval: a lost update
        # of the shared manifest would drop a point
        import sys

        cfgp = write(tmp_path, "ideal.ini", IDEAL)
        out = str(tmp_path / "s")
        values = [6.0 + i for i in range(12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert sweep(cfgp, "geometry.L", values, out=out, threads=6) == 0
        finally:
            sys.setswitchinterval(interval)
        manifest = json.loads((tmp_path / "s" / "sweep-manifest.json").read_text())
        assert manifest == {f"point-{i:03d}": True for i in range(len(values))}

    def test_per_point_seeds_differ(self, tmp_path):
        cfgp = write(tmp_path, "loops.ini", LOOPS)
        out = str(tmp_path / "s2")
        sweep(cfgp, "physics.z", [0.2, 0.2], out=out)
        a = json.loads((tmp_path / "s2" / "point-000" / "meta.json").read_text())
        b = json.loads((tmp_path / "s2" / "point-001" / "meta.json").read_text())
        assert a["seed"] != b["seed"]


class TestGaussSnapshot:
    CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "gauss-covariance.ini")

    def test_covariance_writes_field_snapshot(self, tmp_path):
        out = tmp_path / "out"
        assert main(["gauss", "--config", self.CONFIG, "--out", str(out)]) == 0
        from bosegas.records import load_field_snapshot

        values, sidecar = load_field_snapshot(str(out / "field-snapshot"))
        assert values.shape == (8, 16)
        assert sidecar["grid"]["n_x"] == 16
        assert "_snapshot" not in (out / "meta.json").read_text()

    def test_snapshot_travels_in_the_outcome(self):
        cfg = parse_run_config(self.CONFIG)
        rows, records, extra, snapshot = _run_gauss(cfg, 11)
        assert "_snapshot" not in cfg.sections
        values, meta = snapshot
        assert values.shape == (8, 16) and meta["n_tau"] == 8


class TestCheckKind:
    def test_check_subset_exit_zero(self, tmp_path):
        cfgp = write(
            tmp_path,
            "check.ini",
            "[run]\nkind = check\nseed = 1\n\n[check]\ncriteria = 1,3,5,12,13\n",
        )
        assert run(cfgp, out=str(tmp_path / "out")) == 0
        recs = json.loads((tmp_path / "out" / "results.json").read_text())
        assert len(recs) == 5
        assert all(r["value"] == 1.0 for r in recs)


class TestLoopsDiagnostics:
    def test_tau_int_goes_to_meta_not_results(self, tmp_path):
        cfgp = write(tmp_path, "loops.ini", LOOPS.replace("n_sweeps = 200", "n_sweeps = 50"))
        assert run(cfgp, out=str(tmp_path / "out")) == 0
        text = (tmp_path / "out" / "results.csv").read_text()
        assert "exact" not in text and "tau_int_N" not in text and "nan" not in text
        json.loads((tmp_path / "out" / "results.json").read_text(),
                   parse_constant=lambda c: pytest.fail(f"{c} in results.json"))
        tau = json.loads((tmp_path / "out" / "meta.json").read_text())["extra"]["tau_int_N"]
        assert np.isfinite(tau) and tau >= 0

    def test_sweep_floor(self, tmp_path):
        with pytest.raises(ConfigError, match="n_sweeps"):
            parse_run_config(write(tmp_path, "a.ini", LOOPS.replace("n_sweeps = 200", "n_sweeps = 49")))
        cfg = parse_run_config(write(tmp_path, "b.ini", LOOPS.replace("n_sweeps = 200", "n_sweeps = 50")))
        assert cfg.get("sampler", "n_sweeps") == 50
