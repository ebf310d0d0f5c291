"""Batch experiment driver.

    bose ideal|gauss|loops|expand|oracle|check --config FILE
         [--seed N] [--out DIR] [--threads K] [--force]
    bose sweep --config FILE --axis SECTION.KEY --values v1,v2,...

Runs are deterministic for a fixed (config, seed): per-point child seeds are
derived by hashing (seed, kind, point index), so a sweep reproduces stream by
stream no matter how points are scheduled.  Output collisions are refused
without --force; sweeps keep a manifest of the points that succeeded,
rewritten atomically after each one, and a re-run resumes from it, running
only the points not yet done.
The environment variable BOSE_OUT_ROOT overrides the output root.
"""

import argparse
import json
import os
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .diagnostics import stratified_mean
from .errors import ConfigError, DivergenceError
from .records import ResultRecord, config_hash, write_records_csv, write_records_json
from .rng import derive_seed
from .runcfg import RunConfig, parse_potential, parse_run_config


def _out_dir(cfg: RunConfig, cli_out):
    root = os.environ.get("BOSE_OUT_ROOT", ".")
    out = cli_out or cfg.out or f"bose-{cfg.kind}-out"
    return out if os.path.isabs(out) else os.path.join(root, out)


def _prepare_out(path, force):
    marker = os.path.join(path, "results.csv")
    if os.path.exists(marker) and not force:
        raise ConfigError(f"output {marker} exists; pass --force to overwrite")
    os.makedirs(path, exist_ok=True)
    return path


# -- experiment implementations -------------------------------------------------


def _run_ideal(cfg: RunConfig, seed: int):
    from .spectral import (
        analytic_dos,
        auto_torus_spectrum,
        condensate_fraction,
        critical_density,
        density,
        pressure,
        solve_mu,
    )

    d = cfg.get("geometry", "d")
    L = cfg.get("geometry", "L")
    rows, records, extra = [], [], {}
    h = config_hash({"kind": "ideal", "seed": seed, **cfg.sections})
    for beta in cfg.get("physics", "beta_values"):
        spec = auto_torus_spectrum(d, L, beta)
        dos = analytic_dos(d)
        mu = cfg.get("physics", "mu")
        rho_target = cfg.get("physics", "rho")
        if mu is None and rho_target is not None:
            mu = solve_mu(spec, beta, rho_target)
        if mu is None:
            mu = 1.0
        rho = density(spec, beta, mu)
        values = {"pressure": pressure(spec, beta, mu), "density": rho}
        try:
            values["rho_cr"] = critical_density(beta, dos)
            values["condensate_fraction"] = condensate_fraction(beta, rho, dos)
        except DivergenceError as exc:  # no such quantity in this dimension
            extra["refused"] = {name: str(exc) for name in ("rho_cr", "condensate_fraction")}
        rows.append({"beta": beta, "mu": mu, "L": L, "d": d, **values})
        for name, val in values.items():
            records.append(ResultRecord(config_hash=h, observable=f"{name}@beta={beta}",
                                        value=val, std_error=None))
    return rows, records, extra


def _run_gauss(cfg: RunConfig, seed: int):
    from .thermal import (
        FieldGrid,
        PolynomialPerturbation,
        ThermalFieldParams,
        covariance,
        ergodicity_diagnostic,
        mixing_decomposition_check,
        renormalized_mixing,
        reweighted_state,
        sample_fields,
    )

    g = cfg.sections["geometry"]
    grid = FieldGrid(beta=cfg.get("physics", "beta"), n_tau=g["n_tau"], d=g["d"], L=g["L"], n_x=g["n_x"])
    critical = cfg.get("physics", "critical", False)
    params = ThermalFieldParams(
        grid=grid,
        mu=0.0 if critical else cfg.get("physics", "mu", 1.0),
        critical=critical,
        c=cfg.get("physics", "c", 1.0 if critical else 0.0),
    )
    n = cfg.get("sampler", "n_samples")
    name = cfg.get("experiment", "name")
    h = config_hash({"kind": "gauss", "seed": seed, **cfg.sections})
    rows, records, extra, snapshot = [], [], {}, None
    if name == "covariance":
        from .thermal import pair_field

        phi = sample_fields(params, n, seed)
        snapshot = (phi[0], {"beta": grid.beta, "n_tau": grid.n_tau, "d": grid.d, "L": grid.L,
                             "n_x": grid.n_x, "mu": params.mu, "critical": params.critical, "c": params.c})
        rng = np.random.default_rng(derive_seed(seed, "probes"))
        for i in range(4):
            f = rng.standard_normal(grid.spatial_shape)
            tau_i = int(rng.integers(grid.n_tau))
            emp = pair_field(phi, grid, f, 0) * pair_field(phi, grid, f, tau_i)
            target = covariance(params, f, f, tau_i * grid.dtau)
            mean, err = stratified_mean([(1.0, emp)])
            rows.append({"probe": i, "tau": tau_i * grid.dtau, "empirical": mean, "err": err, "analytic": target})
            records.append(ResultRecord(h, f"covariance_probe_{i}", float(mean), float(err), ess=float(n)))
    elif name == "ergodicity":
        volumes = cfg.get("sampler", "volumes") or [grid.L, 2 * grid.L, 4 * grid.L]
        rep = ergodicity_diagnostic(params, n, volumes, seed)
        rows = rep["rows"]
        records.append(ResultRecord(h, "ergodicity_slope", float(rep["slope"]), float(rep["slope_err"])))
        records.append(ResultRecord(h, "ergodicity_status:" + rep["status"], float(rep["plateau"]),
                                    float(rows[-1]["var_err"])))
    elif name == "mixing":
        pert = _poly_pert(cfg)
        rep = renormalized_mixing(params, pert, 8, 8, n, seed)
        rows = [{"r": float(r), "weight": float(w)} for r, w in
                zip(rep["r"], rep["weights"].sum(axis=1))]
        records.append(ResultRecord(h, "var_r", rep["var_r"], rep["var_r_jackknife_err"], ess=float(n)))
    elif name == "reweight":
        pert = _poly_pert(cfg)
        f = np.ones(grid.spatial_shape)
        rec = reweighted_state(params, pert, f, n, seed)
        if rec["estimate"] is None:
            extra["refused"] = {"reweighted_state": rec["diagnostic"], "ess": rec["ess"]}
            rows = [rec]
        else:
            records.append(ResultRecord(h, "reweighted_re", rec["re"], rec["re_err"], ess=rec["ess"]))
            records.append(ResultRecord(h, "reweighted_im", rec["im"], rec["im_err"], ess=rec["ess"]))
            rows = [{k: rec[k] for k in ("re", "re_err", "im", "im_err", "ess")}]
    return rows, records, extra, snapshot


def _poly_pert(cfg: RunConfig):
    from .thermal import PolynomialPerturbation

    coeffs = cfg.get("physics", "poly") or [0.0, 0.0, 1.0]
    return PolynomialPerturbation(
        coeffs=tuple(coeffs),
        lam=cfg.get("physics", "lam", 0.0),
        mollifier_width=cfg.get("physics", "mollifier", 0.0),
    )


def _run_loops(cfg: RunConfig, seed: int):
    from .loopgas import BoxRegion, gibbs_sample

    g = cfg.sections["geometry"]
    region = BoxRegion(d=g["d"], L=g["L"], boundary=g.get("boundary", "periodic"),
                       n_slices=g.get("n_slices", 16))
    V = parse_potential(cfg.get("physics", "potential"), g["d"])
    run = gibbs_sample(
        cfg.get("physics", "z"),
        cfg.get("physics", "beta"),
        region,
        V,
        cfg.get("sampler", "n_sweeps"),
        seed,
        thin=cfg.get("sampler", "thin", 5),
    )
    rows = [
        {**row, **{f"acc_{k}": v for k, v in run["acceptance"].items()}}
        for row in run["rows"]
    ]
    h = config_hash({"kind": "loops", "seed": seed, **cfg.sections})
    records = [ResultRecord(h, "mean_N", run["mean_N"], run["err_N"], ess=run["ess_N"])]
    # a diagnostic, not a result: it goes to meta.json
    return rows, records, {"tau_int_N": run["tau_int_N"]}


def _run_expand(cfg: RunConfig, seed: int):
    from .expansion import convergence_radius, mayer_coefficient, series_density

    beta = cfg.get("physics", "beta")
    V = parse_potential(cfg.get("physics", "potential"), 3)
    orders = cfg.get("sampler", "orders") or [1, 2]
    n_mc = cfg.get("sampler", "n_mc")
    coeffs = [mayer_coefficient(n, beta, V, None, n_mc, derive_seed(seed, "b", n)) for n in orders]
    h = config_hash({"kind": "expand", "seed": seed, **cfg.sections})
    rows = []
    records = []
    for c in coeffs:
        for part, (val, err) in c.parts.items():
            rows.append({"n": c.order, "sector": part, "value": val, "error": err})
        records.append(ResultRecord(h, f"b{c.order}", c.value, c.error, ess=float(n_mc)))
    bound = convergence_radius(beta, V, n_mc=max(n_mc // 2, 100), seed=derive_seed(seed, "radius"))
    records.append(ResultRecord(h, "radius_lower_bound", bound.radius_lower_bound, bound.radius_error))
    z = cfg.get("physics", "z")
    extra = {"radius": bound.radius_lower_bound, "C": bound.C_value}
    if z is not None:
        rec = series_density(z, coeffs, bound)
        extra["series_density"] = rec if rec["refused"] else rec["density"]
        if not rec["refused"]:
            records.append(ResultRecord(h, f"series_density@z={z}", rec["density"],
                                        rec["stat_error"], ess=float(n_mc)))
    return rows, records, extra


def _run_oracle(cfg: RunConfig, seed: int):
    from .fock import DiagonalInteraction, TruncatedFock, exact_traces

    energies = np.array(cfg.get("modes", "energies"))
    fock = TruncatedFock(energies=energies, n_max=cfg.get("modes", "n_max"))
    beta, mu = cfg.get("physics", "beta"), cfg.get("physics", "mu")
    vhat0 = cfg.get("physics", "vhat0")
    inter = None
    if vhat0 is not None:
        inter = DiagonalInteraction(
            vhat=np.full((len(energies), len(energies)), vhat0),
            volume=cfg.get("physics", "volume", 1.0),
        )
    Z, occ, hist = exact_traces(fock, beta, mu, inter)
    h = config_hash({"kind": "oracle", "seed": seed, **cfg.sections})
    payload = {"Z": Z, "logZ": float(np.log(Z)), "occupations": occ.tolist(),
               "n0_histogram": hist.tolist()}
    records = [ResultRecord(h, "logZ", float(np.log(Z)), None),
               ResultRecord(h, "mean_N", float(occ.sum()), None)]
    summary = {"Z": Z, "logZ": float(np.log(Z)), "mean_N": float(occ.sum())}
    return [summary], records, {"oracle": payload}


def run(config_path: str, seed=None, out=None, threads=1, force=False) -> int:
    """Execute one configured experiment; returns the process exit status."""
    cfg = parse_run_config(config_path)
    seed = cfg.seed if seed is None else seed
    out_dir = _prepare_out(_out_dir(cfg, out), force)
    t0 = time.perf_counter()
    status = 0
    extra = {}
    if cfg.kind == "check":
        from .acceptance import run_acceptance

        crit = cfg.get("check", "criteria")
        ids = None if crit in (None, "all") else [int(t) for t in crit.split(",")]
        results = run_acceptance(ids, seed=seed, threads=threads)
        rows = [{"criterion": r.cid, "name": r.name, "passed": r.passed, **r.details} for r in results]
        h = config_hash({"kind": "check", "seed": seed, "criteria": crit})
        records = [
            ResultRecord(h, f"criterion_{r.cid}:{r.name}", 1.0 if r.passed else 0.0, None)
            for r in results
        ]
        status = 0 if all(r.passed for r in results) else 1
        # timings are diagnostics, not results: they go to meta.json only
        extra = {"criterion_wall_s": {str(r.cid): r.wall_s for r in results}}
    else:
        runner = {"ideal": _run_ideal, "gauss": _run_gauss, "loops": _run_loops,
                  "expand": _run_expand, "oracle": _run_oracle}[cfg.kind]
        # a runner returns rows, records and optionally meta extras and a
        # field snapshot (values, meta) to save
        rows, records, *rest = runner(cfg, seed)
        extra = rest[0] if rest else {}
        if len(rest) > 1 and rest[1] is not None:
            from .records import save_field_snapshot

            values, meta = rest[1]
            save_field_snapshot(values, meta, os.path.join(out_dir, "field-snapshot"))
    wall = time.perf_counter() - t0
    _write_rows_csv(rows, os.path.join(out_dir, "table.csv"))
    write_records_csv(records, os.path.join(out_dir, "results.csv"))
    write_records_json(records, os.path.join(out_dir, "results.json"))
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump({"config": config_path, "seed": seed, "kind": cfg.kind,
                   "wall_time": wall, "extra": _jsonable(extra)}, fh, indent=1, sort_keys=True)
    return status


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "__dict__"):
        return _jsonable(vars(obj))
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_rows_csv(rows, path):
    import csv

    if not rows:
        with open(path, "w") as fh:
            fh.write("")
        return
    keys = sorted({k for row in rows for k in row})
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=keys)
        w.writeheader()
        for row in rows:
            w.writerow({k: repr(float(v)) if isinstance(v, float) else v for k, v in row.items()})


def sweep(config_path: str, axis: str, values, seed=None, out=None, threads=1, force=False) -> int:
    """Cartesian sweep of one config key; resumable via the point manifest."""
    cfg = parse_run_config(config_path)
    seed = cfg.seed if seed is None else seed
    if not values:
        print("empty sweep value list: nothing to do")
        return 0
    section, _, key = axis.partition(".")
    if not key:
        raise ConfigError("axis must be SECTION.KEY")
    base_out = _out_dir(cfg, out)
    os.makedirs(base_out, exist_ok=True)
    manifest_path = os.path.join(base_out, "sweep-manifest.json")
    done = {}
    if os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            done = json.load(fh)
    import configparser

    lock = threading.Lock()

    def mark_done(tag):
        """Record a successful point: the manifest is replaced whole, never half written."""
        with lock:
            done[tag] = True
            tmp = f"{manifest_path}.tmp"
            with open(tmp, "w") as fh:
                json.dump(done, fh, indent=1, sort_keys=True)
            os.replace(tmp, manifest_path)

    def run_point(item):
        idx, val = item
        tag = f"point-{idx:03d}"
        if tag in done and not force:
            return 0
        cp = configparser.ConfigParser()
        cp.optionxform = str
        cp.read(config_path)
        if section not in cp:
            cp.add_section(section)
        cp[section][key] = str(val)
        point_cfg = os.path.join(base_out, f"{tag}.ini")
        with open(point_cfg, "w") as fh:
            cp.write(fh)
        child_seed = derive_seed(seed, cfg.kind, idx)
        try:
            status = run(point_cfg, seed=child_seed, out=os.path.join(base_out, tag), threads=1, force=force)
        except Exception:  # a failed point must not stop the others or lose the manifest
            print(f"sweep {tag} ({axis} = {val}) failed:\n{traceback.format_exc()}", file=sys.stderr)
            return 1
        if status == 0:
            mark_done(tag)
        else:
            print(f"sweep {tag} ({axis} = {val}) failed with status {status}", file=sys.stderr)
        return status

    items = list(enumerate(values))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            statuses = list(pool.map(run_point, items))
    else:
        statuses = [run_point(it) for it in items]
    return max(statuses)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bose", description="Bose-gas loop toolkit driver")
    parser.add_argument("kind", choices=["ideal", "gauss", "loops", "expand", "oracle", "check", "sweep"])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--force", action="store_true")
    parser.add_argument("--axis", default=None, help="sweep axis as SECTION.KEY")
    parser.add_argument("--values", default=None, help="comma-separated sweep values")
    args = parser.parse_args(argv)
    try:
        if args.kind == "sweep":
            if args.axis is None:
                raise ConfigError("sweep requires --axis")
            values = [v for v in (args.values or "").split(",") if v != ""]
            return sweep(args.config, args.axis, values, args.seed, args.out, args.threads, args.force)
        cfg_kind = parse_run_config(args.config).kind
        if cfg_kind != args.kind:
            raise ConfigError(f"config kind {cfg_kind!r} does not match command {args.kind!r}")
        return run(args.config, args.seed, args.out, args.threads, args.force)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
