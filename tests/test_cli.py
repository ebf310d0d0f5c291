"""Runner: config validation, determinism, sweeps, output hygiene."""

import json
import os
import re

import numpy as np
import pytest

from bosegas.cli import _run_gauss, main, run, sweep
from bosegas.errors import ConfigError
from bosegas.runcfg import parse_potential, parse_run_config

# a NaN mean or error of an empty or one-sample estimate fails here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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

EXPAND = """
[run]
kind = expand
seed = 2

[physics]
beta = 1.0
potential = hardcore:0.8

[sampler]
n_mc = 100
orders = 1, 2
"""

ERGODICITY = """
[run]
kind = gauss
seed = 4

[physics]
beta = 1.0
mu = 0.7

[geometry]
d = 1
L = 2.0
n_x = 4
n_tau = 4

[sampler]
n_samples = 100
volumes = 2.0, 4.0, 8.0

[experiment]
name = ergodicity
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


def three_trace_oracle(cfg, seed):
    """Reference `bose oracle` runner: one enumeration per trace."""
    from bosegas.records import ResultRecord, config_hash
    from bosegas.fock import (DiagonalInteraction, TruncatedFock, exact_occupations, exact_partition,
                              exact_zero_mode_statistics)

    energies = np.array(cfg.get("modes", "energies"))
    fock = TruncatedFock(energies=energies, n_max=cfg.get("modes", "n_max"))
    beta, mu = cfg.get("physics", "beta"), cfg.get("physics", "mu")
    vhat0 = cfg.get("physics", "vhat0")
    inter = None
    if vhat0 is not None:
        inter = DiagonalInteraction(vhat=np.full((len(energies), len(energies)), vhat0),
                                    volume=cfg.get("physics", "volume", 1.0))
    Z = exact_partition(fock, beta, mu, inter)
    occ = exact_occupations(fock, beta, mu, inter)
    hist = exact_zero_mode_statistics(fock, beta, mu, inter)
    h = config_hash({"kind": "oracle", "seed": seed, **cfg.sections})
    payload = {"Z": Z, "logZ": float(np.log(Z)), "occupations": occ.tolist(),
               "n0_histogram": hist.tolist()}
    records = [ResultRecord(h, "logZ", float(np.log(Z)), None),
               ResultRecord(h, "mean_N", float(occ.sum()), None)]
    summary = {"Z": Z, "logZ": float(np.log(Z)), "mean_N": float(occ.sum())}
    return [summary], records, {"oracle": payload}


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

    @pytest.mark.parametrize("physics, found", [("mu = 0.5\nrho = 0.1", "both are set"),
                                                ("", "neither is set")], ids=["both", "neither"])
    def test_ideal_takes_exactly_one_of_mu_and_rho(self, tmp_path, physics, found):
        path = write(tmp_path, "bad.ini", IDEAL.replace("mu = 0.5", physics))
        with pytest.raises(ConfigError, match=rf"\[physics\] mu, rho: set exactly one of them \({found}\)"):
            parse_run_config(path)
        assert main(["ideal", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("orders, message", [("1.7, 2", "expected an integer"),
                                                 ("1, 4", "above the allowed range")])
    def test_expand_orders_are_integers_up_to_three(self, tmp_path, capsys, orders, message):
        path = write(tmp_path, "bad.ini", EXPAND.replace("orders = 1, 2", f"orders = {orders}"))
        with pytest.raises(ConfigError, match=rf"\[sampler\] orders: .*{message}"):
            parse_run_config(path)
        assert main(["expand", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert parse_run_config(write(tmp_path, "ok.ini", EXPAND)).get("sampler", "orders") == [1, 2]

    def test_potential_specs(self):
        assert parse_potential("none", 3) is None
        assert parse_potential("hardcore:0.5", 3).hard_core == 0.5
        V = parse_potential("gauss:1.5,0.8", 3)
        assert np.isclose(float(V(0.8)), 1.5 * np.exp(-1.0))
        with pytest.raises(ConfigError):
            parse_potential("what:1", 3)

    @pytest.mark.parametrize("spec, message", [
        ("gauss:1", "expected none | hardcore:a | gauss:A,w"),
        ("gauss:1,0.5,2", "expected none | hardcore:a | gauss:A,w"),
        ("hardcore", "expected none | hardcore:a | gauss:A,w"),
        ("none:1", "expected none | hardcore:a | gauss:A,w"),
        ("hardcore:abc", "expected a number"),
        ("hardcore:-0.8", "below the allowed range"),
        ("gauss:1.5,0", "below the allowed range"),
        ("gauss:nan,0.5", "expected a finite number"),
    ])
    @pytest.mark.parametrize("kind, text", [("loops", LOOPS), ("expand", EXPAND)], ids=["loops", "expand"])
    def test_potential_spec_refused_at_parse_time(self, tmp_path, capsys, spec, message, kind, text):
        # each exited 1 on a bare ValueError deep in the run before
        path = write(tmp_path, "bad.ini", text.replace("potential = hardcore:0.8", f"potential = {spec}"))
        with pytest.raises(ConfigError, match=rf"\[physics\] potential: .*{re.escape(message)}"):
            parse_run_config(path)
        with pytest.raises(ConfigError, match=r"\[physics\] potential"):
            parse_potential(spec, 3)
        assert main([kind, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "[physics] potential" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("physics", [
        "mu = 0",                      # the critical point without critical = true
        "critical = true\nmu = 0.7",   # critical ignores mu
        "critical = true\nc = 0",      # the critical covariance needs c > 0
        "mu = 0.7\nc = 0.5",           # c weighs the condensate of critical = true only
    ], ids=["zero-mu", "critical-mu", "critical-zero-c", "noncritical-c"])
    def test_gauss_covariance_keys_refused_at_parse_time(self, tmp_path, capsys, physics):
        path = write(tmp_path, "bad.ini", ERGODICITY.replace("mu = 0.7", physics))
        with pytest.raises(ConfigError, match=r"\[physics\] mu, c, critical: critical = "):
            parse_run_config(path)
        assert main(["gauss", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "[physics] mu, c, critical" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        for ok in ("mu = 0.7", "critical = true", "critical = true\nc = 0.5", "critical = false\nmu = 0.2"):
            parse_run_config(write(tmp_path, "ok.ini", ERGODICITY.replace("mu = 0.7", ok)))


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

    def test_ideal_below_three_dimensions_writes_what_exists(self, tmp_path):
        # no critical density or condensate fraction at d = 2: no record, and
        # the reason goes to meta.json
        cfgp = write(tmp_path, "ideal.ini", IDEAL.replace("d = 3", "d = 2"))
        assert run(cfgp, out=str(tmp_path / "out")) == 0
        recs = json.loads((tmp_path / "out" / "results.json").read_text(),
                          parse_constant=lambda c: pytest.fail(f"{c} in results.json"))
        assert len(recs) == 8
        assert {r["observable"].split("@")[0] for r in recs} == {"pressure", "density"}
        assert all(r["tag"] == "exact" and np.isfinite(r["value"]) for r in recs)
        refused = json.loads((tmp_path / "out" / "meta.json").read_text())["extra"]["refused"]
        assert refused == {name: "no condensation in this dimension"
                           for name in ("rho_cr", "condensate_fraction")}

    def test_refused_reweighting_writes_no_record(self, tmp_path):
        # 50 samples cannot reach the ESS floor of 100
        cfgp = write(tmp_path, "rw.ini", ERGODICITY.replace("name = ergodicity", "name = reweight")
                     .replace("n_samples = 100", "n_samples = 50"))
        assert run(cfgp, out=str(tmp_path / "out")) == 0
        assert json.loads((tmp_path / "out" / "results.json").read_text()) == []
        refused = json.loads((tmp_path / "out" / "meta.json").read_text())["extra"]["refused"]
        assert refused["ess"] == 50.0 and "effective sample size" in refused["reweighted_state"]

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

    @pytest.mark.parametrize("interaction", ["", "vhat0 = 0.3\nvolume = 2.0\n"])
    def test_oracle_one_enumeration(self, tmp_path, monkeypatch, interaction):
        """The oracle's files equal those of three separate traces, from one pass."""
        import bosegas.cli as cli
        import bosegas.fock as fock

        cfgp = write(tmp_path, "oracle.ini", ORACLE.replace("mu = 0.8\n", "mu = 0.8\n" + interaction))
        passes = []
        sums = fock._fock_sums
        monkeypatch.setattr(fock, "_fock_sums", lambda *a: passes.append(a) or sums(*a))
        run(cfgp, out=str(tmp_path / "new"))
        assert len(passes) == 1
        monkeypatch.setattr(cli, "_run_oracle", three_trace_oracle)
        run(cfgp, out=str(tmp_path / "ref"))
        assert len(passes) == 4
        for name in ("table.csv", "results.csv", "results.json"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
        extra = [json.loads((tmp_path / d / "meta.json").read_text())["extra"] for d in ("new", "ref")]
        assert extra[0] == extra[1]

    @staticmethod
    def results_csv(out):
        import csv

        with open(out / "results.csv") as fh:
            return {r["observable"]: r for r in csv.DictReader(fh)}

    @pytest.mark.parametrize("potential", ["hardcore:0.8", "hardcore:0.001"])
    def test_expand_tags_only_closed_forms_exact(self, tmp_path, potential):
        # at a core of 0.001 no sample touches it, so b2 and C have sample error 0
        cfgp = write(tmp_path, "expand.ini", EXPAND.replace("hardcore:0.8", potential))
        assert run(cfgp, out=str(tmp_path / "out")) == 0
        recs = self.results_csv(tmp_path / "out")
        assert recs["b1"]["tag"] == "exact"
        for name in ("b2", "radius_lower_bound"):
            assert recs[name]["tag"] == "estimated" and float(recs[name]["std_error"]) >= 0
        if potential == "hardcore:0.8":
            assert float(recs["radius_lower_bound"]["std_error"]) > 0
        free = write(tmp_path, "free.ini", EXPAND.replace("hardcore:0.8", "none"))
        assert run(free, out=str(tmp_path / "free")) == 0
        assert {r["tag"] for r in self.results_csv(tmp_path / "free").values()} == {"exact"}

    def test_expand_table_has_one_row_per_sector(self, tmp_path):
        # each sector's row carries that sector's own error; in quadrature the
        # errors make b_n's, and the values sum to b_n
        import csv

        cfgp = write(tmp_path, "expand.ini", EXPAND.replace("orders = 1, 2", "orders = 1, 2, 3"))
        assert run(cfgp, out=str(tmp_path / "out")) == 0
        with open(tmp_path / "out" / "table.csv") as fh:
            rows = list(csv.DictReader(fh))
        sectors = {"1": ["j1"], "2": ["w2", "mayer11"], "3": ["w3", "mix21", "mayer111"]}
        assert {n: [r["sector"] for r in rows if r["n"] == n] for n in sectors} == sectors
        assert len(rows) == 6 and rows[0]["error"] == ""
        recs = self.results_csv(tmp_path / "out")
        for n in ("2", "3"):
            values = [float(r["value"]) for r in rows if r["n"] == n]
            errors = [float(r["error"]) for r in rows if r["n"] == n]
            assert all(e >= 0 for e in errors)
            assert np.isclose(sum(values), float(recs[f"b{n}"]["value"]), rtol=1e-12)
            assert np.isclose(np.hypot.reduce(errors), float(recs[f"b{n}"]["std_error"]), rtol=1e-12)

    def test_ergodicity_records_carry_errors(self, tmp_path):
        cfgp = write(tmp_path, "erg.ini", ERGODICITY)
        assert run(cfgp, out=str(tmp_path / "out")) == 0
        recs = self.results_csv(tmp_path / "out")
        (status,) = [r for name, r in recs.items() if name.startswith("ergodicity_status:")]
        for rec in (recs["ergodicity_slope"], status):
            assert rec["tag"] == "estimated" and float(rec["std_error"]) > 0

    def test_inconclusive_ergodicity_writes_no_slope(self, tmp_path):
        # below the diagnostic's 64 samples there is no slope: no record for
        # it, the reason in meta.json, and the status record still written
        cfgp = write(tmp_path, "erg.ini", ERGODICITY.replace("n_samples = 100", "n_samples = 32"))
        assert run(cfgp, out=str(tmp_path / "out")) == 0
        recs = self.results_csv(tmp_path / "out")
        assert list(recs) == ["ergodicity_status:inconclusive"]
        refused = json.loads((tmp_path / "out" / "meta.json").read_text())["extra"]["refused"]
        assert refused == {"ergodicity_slope": "no slope from n_samples = 32: status inconclusive"}

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

    def test_covariance_table_holds_plain_numbers(self, tmp_path):
        # the probe means are numpy scalars; a cell is repr(float(v)), not np.float64(...)
        out = tmp_path / "out"
        assert main(["gauss", "--config", self.CONFIG, "--out", str(out)]) == 0
        import csv

        assert "np.float64(" not in (out / "table.csv").read_text()
        with open(out / "table.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(np.isfinite(float(v)) for row in rows for v in row.values())

    def test_snapshot_travels_in_the_outcome(self):
        cfg = parse_run_config(self.CONFIG)
        rows, records, extra, snapshot = _run_gauss(cfg, 11)
        assert "_snapshot" not in cfg.sections
        values, meta = snapshot
        assert values.shape == (8, 16) and meta["n_tau"] == 8


class TestCheckKind:
    def test_threads_come_from_the_flag(self, tmp_path, monkeypatch):
        # the shipped config carries no worker count to override --threads
        import bosegas.acceptance as acceptance

        seen = []
        monkeypatch.setattr(acceptance, "run_acceptance", lambda ids, seed, threads: seen.append(threads) or [])
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "check.ini")
        assert main(["check", "--config", config, "--threads", "4", "--out", str(tmp_path / "out")]) == 0
        assert seen == [4]
        with pytest.raises(ConfigError, match="threads"):
            parse_run_config(write(tmp_path, "c.ini", "[run]\nkind = check\n\n[check]\nthreads = 1\n"))

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

    def test_criterion_times_go_to_meta_only(self, tmp_path):
        # a criterion's time is its own only at one worker, so the worker count goes beside it
        cfgp = write(tmp_path, "check.ini", "[run]\nkind = check\nseed = 1\n\n[check]\ncriteria = 3,5,12\n")
        for out, threads in (("a", 1), ("b", 2)):
            assert run(cfgp, out=str(tmp_path / out), threads=threads) == 0
        for out, threads in (("a", 1), ("b", 2)):
            extra = json.loads((tmp_path / out / "meta.json").read_text())["extra"]
            assert sorted(extra["criterion_wall_s"]) == ["12", "3", "5"] and extra["workers"] == threads
            assert all(isinstance(t, float) and t > 0 for t in extra["criterion_wall_s"].values())
        for name in ("table.csv", "results.csv", "results.json"):
            text = (tmp_path / "a" / name).read_bytes()
            assert text == (tmp_path / "b" / name).read_bytes()
            assert b"wall" not in text


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

    def test_mean_N_ess_counts_sweeps_not_configurations(self, tmp_path):
        # mean_N averages all 160 post-burn sweeps (batch means); the 32
        # thinned configurations are not its sample
        cfgp = write(tmp_path, "loops.ini", LOOPS)
        assert run(cfgp, out=str(tmp_path / "out")) == 0
        records = json.loads((tmp_path / "out" / "results.json").read_text())
        (rec,) = [r for r in records if r["observable"] == "mean_N"]
        tau = json.loads((tmp_path / "out" / "meta.json").read_text())["extra"]["tau_int_N"]
        assert tau > 0 and rec["ess"] == 160 / (2 * tau)
        assert rec["ess"] != 32

    def test_sweep_floor(self, tmp_path):
        with pytest.raises(ConfigError, match="n_sweeps"):
            parse_run_config(write(tmp_path, "a.ini", LOOPS.replace("n_sweeps = 200", "n_sweeps = 49")))
        cfg = parse_run_config(write(tmp_path, "b.ini", LOOPS.replace("n_sweeps = 200", "n_sweeps = 50")))
        assert cfg.get("sampler", "n_sweeps") == 50


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED = sorted(name for name in os.listdir(CONFIG_DIR) if name.endswith(".ini"))


class TestShippedConfigs:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_parses(self, name):
        # each file is named after its kind
        assert parse_run_config(os.path.join(CONFIG_DIR, name)).kind == name.removesuffix(".ini").split("-")[0]

    def test_oracle_runs(self, tmp_path):
        assert "oracle.ini" in SHIPPED
        out = tmp_path / "out"
        assert main(["oracle", "--config", os.path.join(CONFIG_DIR, "oracle.ini"), "--out", str(out)]) == 0
        recs = {r["observable"]: r["value"] for r in json.loads((out / "results.json").read_text())}
        assert recs["logZ"] == pytest.approx(0.9274383835652091, rel=1e-13)  # the benchmark's free ln Z

    def test_ideal_sweep_runs(self, tmp_path):
        # d = 3, L = 8 at four betas: the automatic torus spectrum end to end
        out = tmp_path / "out"
        assert run(os.path.join(CONFIG_DIR, "ideal-sweep.ini"), out=str(out)) == 0
        recs = json.loads((out / "results.json").read_text())
        assert len(recs) == 16
        assert all(r["tag"] == "exact" and np.isfinite(r["value"]) for r in recs)
