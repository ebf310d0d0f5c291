"""Acceptance suite: the operational exit criteria of the toolkit.

Each criterion is a function returning a CheckResult; `run_acceptance` runs a
selection (optionally on a thread pool; results are assembled in criterion
order so the emitted numerics are identical for any worker count) and prints
one pass/fail line per criterion.  Tolerances are fixed here, not tunable.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .rng import derive_seed

BASE_SEED = 20_260_811


@dataclass
class CheckResult:
    cid: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    wall_s: float = field(default=float("nan"), compare=False)  # set by run_acceptance

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.cid:2d} {self.name}: {self.summary()}"

    def summary(self) -> str:
        return ", ".join(f"{k}={_fmt(v)}" for k, v in self.details.items())


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


# -- 1 ------------------------------------------------------------------------


def check_1_ideal_condensation(seed=BASE_SEED) -> CheckResult:
    """rho_cr oracle at 0.5% and the beta^(-3/2) scaling fit within 0.015."""
    from .spectral import analytic_dos, critical_density

    rho = critical_density(1.0, analytic_dos(3))
    j = np.arange(1, 200_001)
    head = ((4 * np.pi * j) ** -1.5).sum()
    tail = (4 * np.pi) ** -1.5 * 2 * 200_000**-0.5 - 0.5 * (4 * np.pi * 200_000) ** -1.5
    oracle = head + tail
    rel = abs(rho - oracle) / oracle
    betas = np.array([0.5, 1.0, 2.0, 4.0])
    vals = np.array([critical_density(b, analytic_dos(3)) for b in betas])
    slope = np.polyfit(np.log(betas), np.log(vals), 1)[0]
    ok = rel < 0.005 and abs(slope + 1.5) < 0.015
    return CheckResult(1, "ideal-gas condensation", ok,
                       {"rho_cr": rho, "oracle": oracle, "rel": rel, "fit_exponent": slope})


# -- 2 ------------------------------------------------------------------------


def check_2_fugacity_duality(seed=BASE_SEED) -> CheckResult:
    """Loop-gas density vs spectral density at mu = -ln z, 0.5%, L = 16; the
    sampler's mean over 1e4 configurations must agree with its intensity."""
    from .loopgas import BoxRegion, free_density, sample_free_poisson_batch
    from .spectral import auto_torus_spectrum, density

    beta, L = 1.0, 16.0
    region = BoxRegion(d=3, L=L, n_slices=8)
    spec = auto_torus_spectrum(3, L, beta)
    rels = {}
    for z in (0.1, 0.3, 0.5):
        rho_loop = free_density(z, beta, region)
        rho_spec = density(spec, beta, -np.log(z) / beta)
        rels[z] = abs(rho_loop - rho_spec) / rho_spec
    configs = sample_free_poisson_batch(10_000, 0.3, beta, region, derive_seed(seed, "duality"))
    N = configs.particle_numbers.astype(float)
    target = free_density(0.3, beta, region) * region.volume
    zscore = abs(N.mean() - target) / (N.std(ddof=1) / np.sqrt(N.size))
    ok = max(rels.values()) < 0.005 and zscore < 3.0
    return CheckResult(2, "fugacity duality", ok,
                       {"max_rel_gap": max(rels.values()), "sampler_z_score": zscore})


# -- 3 ------------------------------------------------------------------------


def check_3_trace_identity(seed=BASE_SEED) -> CheckResult:
    """Spectral vs Poisson-loop log Z: 1e-8 periodic, 1e-6 absorbing, L=6."""
    from .loopgas import BoxRegion, trace_identity_check

    per = trace_identity_check(1.0, 0.5, BoxRegion(d=3, L=6.0, boundary="periodic"))
    dr = trace_identity_check(1.0, 0.5, BoxRegion(d=3, L=6.0, boundary="dirichlet"))
    ok = per["abs_diff"] < 1e-8 and dr["abs_diff"] < 1e-6
    return CheckResult(3, "trace identity (free)", ok,
                       {"periodic_diff": per["abs_diff"], "dirichlet_diff": dr["abs_diff"]})


# -- 4 ------------------------------------------------------------------------


def check_4_gaussian_covariance(seed=BASE_SEED) -> CheckResult:
    """Empirical covariance at 12 probe (f, tau) pairs within 3 standard
    errors over 1e4 samples, plus the Wick fourth-moment identity."""
    from .thermal import FieldGrid, ThermalFieldParams, covariance, pair_field, sample_fields

    grid = FieldGrid(beta=1.0, n_tau=8, d=1, L=4.0, n_x=16)
    p = ThermalFieldParams(grid=grid, mu=0.7)
    n = 10_000
    phi = sample_fields(p, n, derive_seed(seed, "cov"))
    rng = np.random.default_rng(derive_seed(seed, "probes"))
    worst = 0.0
    for trial in range(4):
        fvec = rng.standard_normal(16)
        gvec = rng.standard_normal(16)
        v0 = pair_field(phi, grid, fvec, 0)
        for i in (0, 2, 5):
            vi = pair_field(phi, grid, gvec, i)
            prods = v0 * vi
            target = covariance(p, fvec, gvec, i * grid.dtau)
            zscore = abs(prods.mean() - target) / (prods.std(ddof=1) / np.sqrt(n))
            worst = max(worst, zscore)
    f1 = np.ones(16)
    v = pair_field(phi, grid, f1, 0)
    m2, m4 = (v**2).mean(), (v**4).mean()
    wick_z = abs(m4 - 3 * m2**2) / ((v**4).std(ddof=1) / np.sqrt(n))
    ok = worst < 3.0 and wick_z < 3.0
    return CheckResult(4, "Gaussian field covariance", ok,
                       {"worst_probe_z": worst, "wick_z": wick_z})


# -- 5 ------------------------------------------------------------------------


def check_5_mixing_identity(seed=BASE_SEED) -> CheckResult:
    """Quadrature of the amplitude-phase factor reproduces exp(-c f0^2) to 1e-6."""
    from .thermal import mixing_decomposition_check

    worst = 0.0
    for c in (0.25, 1.0, 4.0):
        for f0 in (0.0, 0.5, 1.0, 2.0):
            lhs, rhs = mixing_decomposition_check(c, f0)
            worst = max(worst, abs(lhs - rhs))
    return CheckResult(5, "mixing decomposition identity", worst < 1e-6, {"worst_abs": worst})


# -- 6 ------------------------------------------------------------------------


def check_6_ergodicity(seed=BASE_SEED) -> CheckResult:
    """Averaged-field variance: exponent -1 +- 0.2 noncritically; critical
    plateau above c/2 across >= 3 volumes."""
    from .thermal import FieldGrid, ThermalFieldParams, ergodicity_diagnostic

    grid = FieldGrid(beta=1.0, n_tau=8, d=1, L=2.0, n_x=8)
    nonc = ThermalFieldParams(grid=grid, mu=0.5)
    rep_n = ergodicity_diagnostic(nonc, 6000, volumes=[2.0, 4.0, 8.0], seed=derive_seed(seed, "erg-n"))
    crit = ThermalFieldParams(grid=grid, mu=0.0, critical=True, c=1.0)
    rep_c = ergodicity_diagnostic(crit, 6000, volumes=[2.0, 4.0, 8.0], seed=derive_seed(seed, "erg-c"))
    ok = (
        rep_n["status"] == "ergodic"
        and abs(rep_n["slope"] + 1.0) < 0.2
        and rep_c["status"] == "non-ergodic"
        and rep_c["plateau"] > 0.5
    )
    return CheckResult(6, "ergodicity dichotomy", ok,
                       {"noncritical_slope": rep_n["slope"], "critical_plateau": rep_c["plateau"]})


# -- 7 ------------------------------------------------------------------------


def check_7_mixing_witness(seed=BASE_SEED) -> CheckResult:
    """Renormalized mixing at P = x^2, lambda = 1e-2: Var(r) > 3x jackknife
    error; lambda = 0 weights are exactly unit ratio."""
    from .thermal import FieldGrid, PolynomialPerturbation, ThermalFieldParams, renormalized_mixing

    grid = FieldGrid(beta=1.0, n_tau=8, d=1, L=4.0, n_x=16)
    p = ThermalFieldParams(grid=grid, mu=0.0, critical=True, c=1.0)
    free = PolynomialPerturbation(coeffs=(0.0, 0.0, 1.0), lam=0.0, mollifier_width=0.5)
    rep0 = renormalized_mixing(p, free, 8, 8, n_samples=400, seed=derive_seed(seed, "mix0"))
    unit = np.allclose(rep0["weight_ratio"], 1.0, atol=1e-12)
    pert = PolynomialPerturbation(coeffs=(0.0, 0.0, 1.0), lam=1e-2, mollifier_width=0.5)
    rep = renormalized_mixing(p, pert, 8, 8, n_samples=4000, seed=derive_seed(seed, "mix"))
    ratio = rep["var_r"] / max(rep["var_r_jackknife_err"], 1e-300)
    ok = unit and ratio > 3.0 and rep["var_r"] > 0
    return CheckResult(7, "non-purity witness", ok,
                       {"var_r": rep["var_r"], "jk_err": rep["var_r_jackknife_err"],
                        "ratio": ratio, "free_weights_unit": unit})


# -- 8 ------------------------------------------------------------------------


def check_8_integration_by_parts(seed=BASE_SEED) -> CheckResult:
    """Six (F, G, f) triples within 3 sigma at V = 0 and at hard-core small z."""
    from .loopgas import (
        BoxRegion,
        ExpPairing,
        LoopTestFunction,
        One,
        Pairing,
        PairingProduct,
        hard_core,
        integration_by_parts_check,
    )

    region = BoxRegion(d=1, L=5.0, n_slices=8)
    f = LoopTestFunction(fn=lambda ts, xs: np.cos(2 * np.pi * xs[..., 0] / 5.0) + 0.5, t_max=1.0)
    g1 = LoopTestFunction(fn=lambda ts, xs: np.sin(2 * np.pi * xs[..., 0] / 5.0), t_max=2.0)
    g2 = LoopTestFunction(fn=lambda ts, xs: np.cos(4 * np.pi * xs[..., 0] / 5.0), t_max=2.0)
    triples = [
        (One(), One()),
        (One(), Pairing(g1)),
        (Pairing(g1), One()),
        (Pairing(g1), Pairing(g2)),
        (One(), PairingProduct(g1, g2)),
        (One(), ExpPairing(g1)),
        (ExpPairing(g1), ExpPairing(g2)),
    ]
    sigmas = {}
    for i, (F, G) in enumerate(triples):
        rec = integration_by_parts_check(
            0.4, 1.0, region, None, f, F, G, n_mc=2500, seed=derive_seed(seed, "ibp0", i)
        )
        sigmas[f"free_{i}"] = rec["sigma_distance"]
    V = hard_core(1, 0.4)
    for i, (F, G) in enumerate(triples[:4]):
        rec = integration_by_parts_check(
            0.2, 1.0, region, V, f, F, G, n_mc=2500, seed=derive_seed(seed, "ibpV", i)
        )
        sigmas[f"hc_{i}"] = rec["sigma_distance"]
    worst = max(sigmas.values())
    return CheckResult(8, "integration by parts", worst < 3.0,
                       {"worst_sigma": worst, "n_triples": len(sigmas)})


# -- 9 ------------------------------------------------------------------------


def check_9_gibbs_validity(seed=BASE_SEED) -> CheckResult:
    """V = 0 chain vs direct sampling (two-sample p > 0.01) and exact per-move
    detailed-balance antisymmetry."""
    from scipy import stats

    from .loopgas import BoxRegion, gaussian_repulsion, gibbs_sample, sample_free_poisson_batch
    from .loopgas.gibbs import (
        GibbsChain,
        _draw_beta_bridge,
        _leg_block,
        cut_proposal,
        delete_proposal,
        merge_proposal,
        redraw_proposal,
        shift_proposal,
    )
    from .rng import generator

    region = BoxRegion(d=3, L=6.0, n_slices=4)
    z = 0.5
    run = gibbs_sample(z, 1.0, region, None, n_sweeps=4000, rng_seed=derive_seed(seed, "chain"), thin=8)
    counts_chain = np.array([c.loop_count for c in run["configs"]])
    direct = sample_free_poisson_batch(counts_chain.size, z, 1.0, region, derive_seed(seed, "direct"))
    counts_direct = direct.loop_counts
    top = int(max(counts_chain.max(), counts_direct.max()))
    bins = np.arange(0, top + 2)
    h1, _ = np.histogram(counts_chain, bins=bins)
    h2, _ = np.histogram(counts_direct, bins=bins)
    keep = (h1 + h2) >= 10
    _, pval, _, _ = stats.chi2_contingency(np.stack([h1[keep], h2[keep]]))

    # detailed balance: forward and reverse log ratios are exact negatives
    V = gaussian_repulsion(2, 1.0, width=0.5)  # range 3 = L/2
    region2 = BoxRegion(d=2, L=6.0, n_slices=4)
    chain = GibbsChain(0.55, 1.0, region2, V, rng_seed=derive_seed(seed, "db"))
    guard = 0
    while chain.config.loop_count < 2 and guard < 20_000:
        chain.step()
        guard += 1
    rng = generator(derive_seed(seed, "db-draws"))
    residuals = []
    iprop = chain.propose_insert()
    Y, eY = iprop.builder()
    chain2 = GibbsChain(0.55, 1.0, region2, V, rng_seed=1)
    chain2.config, chain2.energy = Y, eY
    residuals.append(iprop.log_accept + delete_proposal(chain2, Y.loop_count - 1).log_accept)
    delta = 0.3 * rng.standard_normal(2)
    sprop = shift_proposal(chain, 0, delta)
    Y, eY = sprop.builder()
    chain2.config, chain2.energy = Y, eY
    residuals.append(sprop.log_accept + shift_proposal(chain2, 0, -delta).log_accept)
    A, B = chain.config.loops[0], chain.config.loops[1]
    ns = region2.n_slices
    ja, jb = A.winding, B.winding
    a1 = A.path[(1 % ja) * ns]
    b1 = B.path[(1 % jb) * ns]
    T1 = _draw_beta_bridge(A.path[0], b1, 1.0, region2, rng)
    T2 = _draw_beta_bridge(B.path[0], a1, 1.0, region2, rng)
    mprop = merge_proposal(chain, 0, 1, 0, 0, T1, T2)
    Y, eY = mprop.builder()
    chain2.config, chain2.energy = Y, eY
    cprop = cut_proposal(chain2, Y.loop_count - 1, 0, jb, _leg_block(A, 0, ns), _leg_block(B, 0, ns))
    residuals.append(mprop.log_accept + cprop.log_accept)
    # a frozen redraw of A's knots 1 .. 3 and the redraw that puts them back
    u, arc = 1, 2
    old_arc = A.path[u : u + arc + 1].copy()
    new_arc = _draw_beta_bridge(A.path[u], A.path[u + arc], 1.0, region2, rng, arc)
    rprop = redraw_proposal(chain, 0, u, new_arc)
    Y, eY = rprop.builder()
    chain2.config, chain2.energy = Y, eY
    residuals.append(rprop.log_accept + redraw_proposal(chain2, 0, u, old_arc).log_accept)
    db_resid = max(abs(r) for r in residuals)
    ok = pval > 0.01 and db_resid < 1e-9
    return CheckResult(9, "Gibbs sampler validity", ok,
                       {"two_sample_p": pval, "balance_residual": db_resid})


# -- 10 -----------------------------------------------------------------------


def check_10_series_vs_mc(seed=BASE_SEED) -> CheckResult:
    """Expansion density (n <= 2) vs chain density at z = 0.2 hard core within
    combined errors; the repulsive correction to b2 is negative."""
    from .expansion import mayer_coefficient, series_density
    from .loopgas import BoxRegion, gibbs_sample, hard_core

    beta, z = 1.0, 0.2
    V = hard_core(3, 1.0)
    region = BoxRegion(d=3, L=6.0, n_slices=8)
    coeffs = [
        mayer_coefficient(n, beta, V, region=region, n_mc=5000, seed=derive_seed(seed, "b", n))
        for n in (1, 2)
    ]
    b2_free = mayer_coefficient(2, beta, None, region=region)
    correction = coeffs[1].value - b2_free.value
    rec = series_density(z, coeffs)
    run = gibbs_sample(z, beta, region, V, n_sweeps=5000, rng_seed=derive_seed(seed, "mc"), thin=5)
    rho_mc = run["mean_N"] / region.volume
    combined = 3 * run["err_N"] / region.volume + 3 * rec["stat_error"] + rec["truncation_error"]
    gap = abs(rho_mc - rec["density"])
    ok = gap < combined and correction < 0
    return CheckResult(10, "series vs Monte Carlo", ok,
                       {"series": rec["density"], "mc": rho_mc, "gap": gap,
                        "allowance": combined, "b2_correction": correction})


# -- 11 -----------------------------------------------------------------------


def check_11_sigma_independence(seed=BASE_SEED) -> CheckResult:
    """Centered-window density gap shrinks monotonically over L = 6, 10, 14 and
    ends below 1%; the boundary-touching window does not shrink."""
    from .loopgas import sigma_independence_check

    rep = sigma_independence_check(0.5, 1.0, None, [6.0, 10.0, 14.0], seed=derive_seed(seed, "si"))
    rels = [r["rel_gap"] for r in rep["rows"]]
    neg = sigma_independence_check(
        0.5, 1.0, None, [6.0, 10.0, 14.0], boundary_window=True, seed=derive_seed(seed, "si-neg")
    )
    ok = (rels[0] > rels[1] > rels[2]) and rels[2] < 0.01 and not neg["passed"]
    return CheckResult(11, "sigma independence", ok,
                       {"rel_gaps": [round(r, 6) for r in rels],
                        "negative_control_final": neg["rows"][-1]["rel_gap"]})


# -- 12 -----------------------------------------------------------------------


def check_12_exact_oracle(seed=BASE_SEED) -> CheckResult:
    """Free exact trace matches the mode-product free energy to 1e-12; the
    log-derivative number matches <N> to 1e-8."""
    from .fock import TruncatedFock, exact_partition, mean_particle_number
    from .spectral import TorusGeometry, build_torus_spectrum, pressure

    spec = build_torus_spectrum(TorusGeometry(d=1, L=6.0, mode_cutoff=1))
    beta, mu = 1.0, 0.8
    fock = TruncatedFock(energies=spec.eigenvalues, n_max=45)
    lnz = np.log(exact_partition(fock, beta, mu))
    rel = abs(lnz - spec.volume * pressure(spec, beta, mu)) / abs(lnz)
    h = 1e-6
    fd = -(np.log(exact_partition(fock, beta, mu + h / beta))
           - np.log(exact_partition(fock, beta, mu - h / beta))) / (2 * h)
    diff = abs(fd - mean_particle_number(fock, beta, mu))
    ok = rel < 1e-12 and diff < 1e-8
    return CheckResult(12, "exact oracle consistency", ok,
                       {"pressure_rel": rel, "number_fd_diff": diff})


# -- 13 -----------------------------------------------------------------------


def _numerics_payload(seed: int, threads: int) -> bytes:
    """A representative bundle of deterministic numerics, computed on a worker
    pool and assembled in fixed order."""
    from .loopgas import BoxRegion, sample_free_poisson_batch, trace_identity_check
    from .spectral import analytic_dos, critical_density
    from .thermal import FieldGrid, ThermalFieldParams, pair_field, sample_fields

    def t_rho(_):
        return repr(critical_density(1.0, analytic_dos(3)))

    def t_trace(_):
        rec = trace_identity_check(1.0, 0.5, BoxRegion(d=3, L=5.0))
        return repr((rec["spectral"], rec["loop"]))

    def t_field(_):
        grid = FieldGrid(beta=1.0, n_tau=4, d=1, L=2.0, n_x=8)
        p = ThermalFieldParams(grid=grid, mu=0.6)
        phi = sample_fields(p, 500, derive_seed(seed, "det-field"))
        return repr(float(pair_field(phi, grid, np.ones(8)).var(ddof=1)))

    def t_loops(_):
        region = BoxRegion(d=3, L=4.0, n_slices=4)
        cfgs = sample_free_poisson_batch(300, 0.4, 1.0, region, derive_seed(seed, "det-loops"))
        return repr(sorted(cfgs.particle_numbers.tolist()))

    tasks = [t_rho, t_trace, t_field, t_loops]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(lambda f: f(None), tasks))
    return json.dumps(results).encode()


def check_13_determinism(seed=BASE_SEED) -> CheckResult:
    """The same seed emits byte-identical numerics for 1, 2, and 4 workers."""
    blobs = [_numerics_payload(seed, k) for k in (1, 2, 4)]
    again = _numerics_payload(seed, 1)
    ok = blobs[0] == blobs[1] == blobs[2] == again
    return CheckResult(13, "determinism", ok, {"bytes": len(blobs[0]), "identical": ok})


CHECKS = {
    1: check_1_ideal_condensation,
    2: check_2_fugacity_duality,
    3: check_3_trace_identity,
    4: check_4_gaussian_covariance,
    5: check_5_mixing_identity,
    6: check_6_ergodicity,
    7: check_7_mixing_witness,
    8: check_8_integration_by_parts,
    9: check_9_gibbs_validity,
    10: check_10_series_vs_mc,
    11: check_11_sigma_independence,
    12: check_12_exact_oracle,
    13: check_13_determinism,
}


def _timed(cid, seed) -> CheckResult:
    t0 = time.perf_counter()
    result = CHECKS[cid](seed)
    result.wall_s = time.perf_counter() - t0
    return result


def run_acceptance(criteria=None, seed=BASE_SEED, threads=1, verbose=True):
    """Run the selected criteria (all by default); returns the CheckResults,
    each with the wall time of its criterion in `wall_s`.

    Criteria are independent; with threads > 1 they run on a pool but are
    reported in order, so output is reproducible for any worker count.
    """
    ids = sorted(CHECKS) if criteria is None else sorted(criteria)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda i: _timed(i, seed), ids))
    else:
        results = [_timed(i, seed) for i in ids]
    if verbose:
        for r in results:
            print(r.line())
    return results
