"""The benchmark's three workloads.

Each workload builds its fixed objects (potentials, regions, grids, Fock
spaces) in `setup`, and the inputs of round k (chains, Monte Carlo seeds,
probe vectors) from (workload seed, k) in `inputs`; `warm_up` prepares
round 0's inputs outside the timed region (the chains' burn-in).  A round is
a fixed list of public bosegas calls on its inputs.  Successive rounds draw
fresh inputs (the chain workload instead continues its chains), so a run
averages over them.  A traced round replays the inputs of
the untraced round before it and must reproduce its determinism digest;
round 0, which every run makes, gives the run's digest.

  gibbs-chain      the interacting loop-gas Metropolis chain (energy layer,
                   one-vs-rest; moves; configuration copies).
  identity-checks  integration by parts, the trace identity and the Mayer
                   series (energy layer as isolated pairs and whole sums;
                   pairings; the free sampler; single-row bridge fills).
  fields-and-fock  thermal Gaussian fields, mixing, reweighting, exact Fock
                   enumeration and the torus spectrum (numpy only, no
                   loop-gas code).

Statistical gates (a 3-sigma test fails by chance about once in 370 tries)
run once per run on a fixed reference seed, outside the timed region; the
gates on seeded rounds are exact identities and inequalities that hold for
every seed.
"""

import copy
import hashlib
import statistics
import time

import numpy as np

from bosegas.expansion import convergence_radius, mayer_coefficient
from bosegas.fock import (
    DiagonalInteraction,
    TruncatedFock,
    exact_occupations,
    exact_partition,
    exact_zero_mode_statistics,
)
from bosegas.loopgas import (
    PERIODIC,
    BoxRegion,
    ExpPairing,
    GibbsChain,
    LoopTestFunction,
    Pairing,
    gaussian_repulsion,
    gibbs_sample,
    hard_core,
    integration_by_parts_check,
    interaction_energy,
    trace_identity_check,
)
from bosegas.loopgas.gibbs import cut_proposal, delete_proposal, merge_proposal, shift_proposal
from bosegas.loopgas.loops import fill_bridges
from bosegas.loopgas.regions import min_image, wrap
from bosegas.spectral import Spectrum, analytic_dos, auto_torus_spectrum, critical_density, pressure, solve_mu
from bosegas.thermal import (
    FieldGrid,
    PolynomialPerturbation,
    ThermalFieldParams,
    covariance,
    pair_field,
    renormalized_mixing,
    sample_fields,
)
from bosegas.thermal.perturb import reweighted_state

from ess import effective_sample_size

clock = time.perf_counter

# Statistical gates use this seed in every run, whatever the workload seed.
REFERENCE_SEED = 20_260_811

# What a bosegas operation raises when it refuses or fails: its own error
# types (ValueError / RuntimeError subclasses), plain validation errors, the
# kernel's ZeroDivisionError and the chain's stability-floor assertion.
OP_ERRORS = (ValueError, RuntimeError, ZeroDivisionError, AssertionError)


def child_seeds(seed: int, k: int, count: int) -> list:
    """count 64-bit seeds for round k of workload seed `seed`."""
    return [int(s) for s in np.random.SeedSequence([int(seed), k]).generate_state(count, dtype=np.uint64)]


# Timed work is also given at a reference host speed: the speed at which
# calibrate()'s loop takes CAL_REF_S (it takes 4-7 ms on a shared 2-vCPU
# Intel Xeon VM, whose speed drifts by up to 2x within seconds to minutes).
CAL_REF_S = 0.005


def calibrate(n: int = 5) -> float:
    """The host's current speed: the median time of a fixed pure-Python loop
    that runs no bosegas code, so no change to the program moves it."""
    times = []
    for _ in range(n):
        t = clock()
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        times.append(clock() - t)
    return statistics.median(times)


class Ops:
    """Times and records each top-level bosegas call of a round.

    Given a calibrate() reading taken before the first call, it calibrates
    again after every call and also sums the calls' times scaled to the
    reference host speed, each by the mean of the readings around it.
    """

    def __init__(self, cal: float | None = None):
        self.records = []  # [op name, seconds, error repr or None]
        self.cal = cal
        self.busy_s = self.cpu_s = self.scaled_s = 0.0

    def call(self, op, fn, *args, **kwargs):
        out, err = None, None
        t, c = clock(), time.process_time()
        try:
            out = fn(*args, **kwargs)
        except OP_ERRORS as exc:
            err = repr(exc)
        seconds = clock() - t
        self.cpu_s += time.process_time() - c
        self.busy_s += seconds
        self.records.append([op, seconds, err])
        if self.cal is not None:
            after = calibrate()
            self.scaled_s += seconds * CAL_REF_S / ((self.cal + after) / 2)
            self.cal = after
        return out

    def seconds(self, op) -> list:
        return [s for name, s, err in self.records if name == op and err is None]


def digest(values) -> str:
    """sha256 over the exact float representations of the outputs."""
    flat = []
    for v in values:
        arr = np.atleast_1d(np.asarray(v))
        if np.iscomplexobj(arr):
            arr = np.concatenate([arr.real, arr.imag])
        flat.extend(float(x).hex() for x in arr.ravel())
    return hashlib.sha256(" ".join(flat).encode()).hexdigest()[:16]


def _median(xs):
    return float(np.median(xs)) if len(xs) else float("nan")


# -- gibbs-chain -------------------------------------------------------------------


class GibbsChainWorkload:
    """Two warm chains of gibbs_sample at the ROADMAP's L = 12 baseline size.

    A sweep costs about N^2.5 and N fluctuates by ~6 around 29.6, with an
    autocorrelation of several sweeps.  A fresh chain starts from a free gas
    (N ~ 40-90) whose relaxation cost differs wildly from seed to seed, so
    the chains are burned in once, untimed, and every round then continues
    them for n_sweeps more: a run measures the equilibrium chain.
    """

    name = "gibbs-chain"
    d, L, n_slices, beta, z, thin = 3, 12.0, 8, 1.0, 0.6, 5
    n_chains, n_sweeps, n_burn = 2, 5, 15
    # A round's size is counted in sweeps at the reference particle number:
    # a sweep from a state of N particles counts (N / N_REF)^2.5.  N_REF is
    # about the chain's equilibrium mean (29.6 over seeds 1-10, 4400 sweeps).
    N_REF, COST_EXPONENT = 30.0, 2.5

    def setup(self, seed):
        V = gaussian_repulsion(self.d, 0.5, 0.5)
        region = BoxRegion(d=self.d, L=self.L, boundary=PERIODIC, n_slices=self.n_slices)
        gate_seed = child_seeds(seed, 0, self.n_chains + 1)[-1]
        return {"seed": seed, "V": V, "region": region, "gate_seed": gate_seed}

    def inputs(self, st, k):
        """Round 0: fresh chains from the seed.  Round k > 0: the chains as
        round k - 1 left them."""
        if k > 0:
            return st["chains"]
        seeds = child_seeds(st["seed"], k, self.n_chains)
        return [GibbsChain(self.z, self.beta, st["region"], st["V"], s) for s in seeds]

    def warm_up(self, st, chains, ops):
        """Burn the fresh chains in (untimed); returns the warm chains."""
        for chain in chains:
            ops.call("gibbs_sample", gibbs_sample, self.z, self.beta, st["region"], st["V"],
                     self.n_burn, rng_seed=0, thin=self.thin, burn=self.n_burn, resume_chain=chain)
        return chains

    def run_round(self, st, chains, ops):
        out = []
        for template in chains:
            chain = copy.deepcopy(template)  # a traced replay starts from the same state
            sweep_s = []
            inner = chain.sweep

            def timed_sweep(inner=inner, sweep_s=sweep_s):
                t = clock()
                inner()
                sweep_s.append(clock() - t)

            chain.sweep = timed_sweep
            try:
                res = ops.call("gibbs_sample", gibbs_sample, self.z, self.beta, st["region"], st["V"],
                               self.n_sweeps, rng_seed=0, thin=self.thin, burn=0, resume_chain=chain)
            finally:
                del chain.sweep  # the next round's deepcopy must not carry this closure
            out.append({"res": res, "chain": chain, "sweep_s": sweep_s})
        st["chains"] = [c["chain"] for c in out]
        return out

    def gate_round(self, st, chains, ops):
        """Detailed balance on round 0's first chain, in its initial state."""
        resid = ops.call("detailed_balance", self._balance_residual, chains[0], st["gate_seed"])
        if resid is not None and not resid < 1e-9:
            return [("detailed_balance", f"balance residual {resid:.3e}")]
        return []

    def check(self, st, out):
        """Gates on one round's chains (exact: they hold for every seed)."""
        fails = []
        for i, c in enumerate(out):
            chain = c["chain"]
            if c["res"] is None:
                continue
            full = interaction_energy(chain.config, st["V"], self.beta, st["region"])
            if not abs(chain.energy - full) <= 1e-9 * max(abs(full), 1.0):
                fails.append(("gibbs_sample", f"chain {i}: incremental energy {chain.energy!r} != {full!r}"))
            floor = -self.beta * st["V"].stability_B * chain.config.particle_number - 1e-9
            if not chain.energy >= floor:
                fails.append(("gibbs_sample", f"chain {i}: stability floor violated"))
            try:
                chain.check_tuning()
            except OP_ERRORS as exc:
                fails.append(("gibbs_sample", f"chain {i}: {exc!r}"))
        return fails

    def _bridge(self, x, y, region, rng):
        """One-beta bridge from x to the nearest image of y (wrapped knots)."""
        n = region.n_slices
        disp = min_image(np.asarray(y) - np.asarray(x), region.L)
        path = fill_bridges(np.asarray(x)[None], (x + disp)[None], n, self.beta / n, rng)[0]
        path = wrap(path, region.L)
        path[0], path[-1] = x, y
        return path

    def _balance_residual(self, chain, seed):
        """Frozen insert/delete, shift and merge/cut pairs (criterion 9's
        construction): forward and reverse log-ratios must cancel."""
        rng = np.random.default_rng(seed)
        chain = copy.deepcopy(chain)
        region = chain.region
        if chain.config.loop_count < 2:
            return float("inf")
        rev = copy.deepcopy(chain)
        residuals = []
        iprop = chain.propose_insert()  # draws the loop, then calls insert_proposal
        rev.config, rev.energy = iprop.builder()
        residuals.append(iprop.log_accept + delete_proposal(rev, rev.config.loop_count - 1).log_accept)
        delta = 0.3 * rng.standard_normal(region.d)
        sprop = shift_proposal(chain, 0, delta)
        rev.config, rev.energy = sprop.builder()
        residuals.append(sprop.log_accept + shift_proposal(rev, 0, -delta).log_accept)
        A, B = chain.config.loops[0], chain.config.loops[1]
        ns = region.n_slices
        a1, b1 = A.path[(1 % A.winding) * ns], B.path[(1 % B.winding) * ns]
        T1 = self._bridge(A.path[0], b1, region, rng)
        T2 = self._bridge(B.path[0], a1, region, rng)
        mprop = merge_proposal(chain, 0, 1, 0, 0, T1, T2)
        rev.config, rev.energy = mprop.builder()
        cprop = cut_proposal(rev, rev.config.loop_count - 1, 0, B.winding,
                             A.path[: ns + 1].copy(), B.path[: ns + 1].copy())
        residuals.append(mprop.log_accept + cprop.log_accept)
        return max(abs(r) for r in residuals)

    def round_size(self, chains, out) -> float:
        """The round's sweeps counted at N_REF, as a share of its n_chains *
        n_sweeps sweeps: how much larger or smaller than a typical round it was.
        Its time divided by this share is the time of a typical round, which
        varies far less with the chain's wandering particle number."""
        if any(c["res"] is None for c in out):
            return 1.0
        work = 0.0
        for template, c in zip(chains, out):
            starts = [template.config.particle_number] + [row["N"] for row in c["res"]["rows"][:-1]]
            work += sum((n / self.N_REF) ** self.COST_EXPONENT for n in starts)
        return work / (self.n_chains * self.n_sweeps)

    @staticmethod
    def _ess(rounds):
        """Pooled ESS of N and of the energy over each chain's whole trace."""
        traces = [[r["out"][i]["res"]["rows"] for r in rounds] for i in range(len(rounds[0]["out"]))]
        N = [np.array([row["N"] for rows in tr for row in rows], float) for tr in traces]
        E = [np.array([row["energy"] for rows in tr for row in rows], float) for tr in traces]
        return effective_sample_size(N), effective_sample_size(E)

    def digest_values(self, out):
        if any(c["res"] is None for c in out):
            return []
        (ess_n, _), (ess_e, _) = self._ess([{"out": out}])
        vals = [ess_n, ess_e]
        for c in out:
            vals += [c["res"]["mean_N"], c["chain"].energy, list(c["res"]["attempts"].values())]
        return vals

    def metrics(self, st, rounds):
        sweeps = [s for r in rounds for c in r["out"] for s in c["sweep_s"]]
        total_wall = sum(r["wall"] for r in rounds)
        m = {
            "sweeps_per_s": (self.n_chains * self.n_sweeps * len(rounds) / total_wall, "1/s"),
            "sweep_ms.p50": (1e3 * float(np.percentile(sweeps, 50)), "ms"),
            "sweep_ms.p99": (1e3 * float(np.percentile(sweeps, 99)), "ms"),
            "sweep_ms.samples": (len(sweeps), "count"),
        }
        if all(c["res"] is not None for r in rounds for c in r["out"]):
            (ess_n, tau_n), (ess_e, tau_e) = self._ess(rounds)
            m.update({
                "ess_N_per_s": (ess_n / total_wall, "1/s"),  # the run's ESS over the run's time
                "ess_E_per_s": (ess_e / total_wall, "1/s"),
                "ess_N": (ess_n, "count"),
                "ess_E": (ess_e, "count"),
                "tau_int_N": (tau_n, "sweeps"),
                "tau_int_E": (tau_e, "sweeps"),
                "mean_N": (float(np.mean([row["N"] for r in rounds for c in r["out"]
                                          for row in c["res"]["rows"]])), "count"),
            })
        return m


# -- identity-checks ---------------------------------------------------------------


def _cos_f(ts, xs):
    return np.cos(2 * np.pi * xs[..., 0] / 5.0) + 0.5


def _sin_g1(ts, xs):
    return np.sin(2 * np.pi * xs[..., 0] / 5.0)


def _cos_g2(ts, xs):
    return np.cos(4 * np.pi * xs[..., 0] / 5.0)


class IdentityChecksWorkload:
    """Criterion 8's region and test functions, the trace identity, the Mayer series."""

    name = "identity-checks"
    n_ibp = 300  # Monte Carlo draws per side of each integration-by-parts check
    n_trace = 300
    n_mayer = 1000
    n_radius, n_ref = 500, 4

    def setup(self, seed):
        st = {
            "region": BoxRegion(d=1, L=5.0, n_slices=8),
            "f": LoopTestFunction(fn=_cos_f, t_max=1.0),
            "g1": LoopTestFunction(fn=_sin_g1, t_max=2.0),
            "g2": LoopTestFunction(fn=_cos_g2, t_max=2.0),
            "hc_ibp": hard_core(1, 0.4),
            "gauss": gaussian_repulsion(3, 0.5, 0.5),
            "hc_mayer": hard_core(3, 1.0),
            "region3": BoxRegion(d=3, L=6.0),
            "seed": seed,
        }
        st["ibp_cases"] = [
            (F, G, z, V)
            for F, G in ((Pairing(st["g1"]), Pairing(st["g2"])), (ExpPairing(st["g1"]), ExpPairing(st["g2"])))
            for z, V in ((0.4, None), (0.2, st["hc_ibp"]))
        ]
        return st

    def _ibp(self, st, ops, seeds):
        return [
            ops.call("integration_by_parts_check", integration_by_parts_check, z, 1.0, st["region"], V,
                     st["f"], F, G, n_mc=self.n_ibp, seed=s)
            for (F, G, z, V), s in zip(st["ibp_cases"], seeds)
        ]

    def inputs(self, st, k):
        return child_seeds(st["seed"], k, 8)

    def round_size(self, inp, out) -> float:
        return 1.0  # every round makes the same calls at the same sizes

    def warm_up(self, st, inp, ops):
        return inp

    def run_round(self, st, s, ops):
        return {
            "ibp": self._ibp(st, ops, s[:4]),
            "trace": ops.call("trace_identity_check", trace_identity_check, 1.0, 0.5, st["region3"],
                              n_mc=self.n_trace, V=st["gauss"], seed=s[4]),
            "b2": ops.call("mayer_coefficient", mayer_coefficient, 2, 1.0, st["hc_mayer"], None,
                           n_mc=self.n_mayer, seed=s[5]),
            "b3": ops.call("mayer_coefficient", mayer_coefficient, 3, 1.0, st["hc_mayer"], None,
                           n_mc=self.n_mayer, seed=s[6]),
            "radius": ops.call("convergence_radius", convergence_radius, 1.0, st["hc_mayer"],
                               n_mc=self.n_radius, n_ref=self.n_ref, seed=s[7]),
        }

    def gate_round(self, st, seeds, ops):
        """sigma-distance < 3 on every check, at the reference seed."""
        recs = self._ibp(st, ops, child_seeds(REFERENCE_SEED, 0, 4))
        return [
            ("integration_by_parts_check", f"reference case {i}: sigma {r['sigma_distance']:.3f} >= 3")
            for i, r in enumerate(recs)
            if r is not None and not r["sigma_distance"] < 3.0
        ]

    def check(self, st, out):
        fails = []
        tr = out["trace"]
        if tr is not None:
            if not tr["abs_diff"] < 1e-8:
                fails.append(("trace_identity_check", f"free trace gap {tr['abs_diff']:.3e}"))
            if not tr["interaction_correction"] <= 0:
                fails.append(("trace_identity_check", f"correction {tr['interaction_correction']!r} > 0"))
        if out["b2"] is not None:
            b2_free = mayer_coefficient(2, 1.0, None).value
            if not out["b2"].value - b2_free < 0:
                fails.append(("mayer_coefficient", "hard-core b2 correction is not negative"))
        return fails

    def digest_values(self, out):
        vals = []
        for r in out["ibp"]:
            vals += [r["lhs"], r["rhs"]] if r is not None else []
        if out["trace"] is not None:
            tr = out["trace"]
            vals += [tr["spectral"], tr["loop"], tr["interaction_correction"]]
        vals += [out[k].value for k in ("b2", "b3") if out[k] is not None]
        if out["radius"] is not None:
            vals.append(out["radius"].radius_lower_bound)
        return vals

    def metrics(self, st, rounds):
        ibp = [s for r in rounds for s in r["ops"].seconds("integration_by_parts_check")]
        mayer_samples = self.n_mayer * (2 + 3)  # Monte Carlo sectors of b2 and of b3
        rates = [mayer_samples / sum(r["ops"].seconds("mayer_coefficient")) for r in rounds
                 if len(r["ops"].seconds("mayer_coefficient")) == 2]
        sig = [r["sigma_distance"] for r in rounds[0]["out"]["ibp"] if r is not None]
        return {
            "ibp_check_s": (_median(ibp), "s"),
            "ibp_check_s.samples": (len(ibp), "count"),
            "mayer_samples_per_s": (_median(rates), "1/s"),
            "ibp_max_sigma": (max(sig) if sig else float("nan"), "sigma"),
        }


# -- fields-and-fock ---------------------------------------------------------------


def _gauss_kernel(r):
    return np.exp(-np.asarray(r) ** 2)


class FieldsAndFockWorkload:
    """Vectorised numpy work: fields, mixing, reweighting, Fock, spectrum."""

    name = "fields-and-fock"
    n_fields = 2000  # (2000, 8, 16, 16) float64 = 33 MB per batch
    n_mix, n_rw = 400, 1000
    beta, mu = 1.0, 0.8

    def setup(self, seed):
        grid = FieldGrid(beta=1.0, n_tau=8, d=2, L=4.0, n_x=16)
        params = ThermalFieldParams(grid=grid, mu=0.0, critical=True, c=1.0)
        k2 = (2 * np.pi / 6.0) ** 2
        modes = np.array([0.0, 1.0, -1.0, 2.0])
        ev = k2 * modes**2
        dk = np.sqrt(k2) * (modes[:, None] - modes[None, :])
        vhat = 0.5 * np.sqrt(np.pi) * 0.5 * np.exp(-(0.5 * dk) ** 2 / 4)  # gauss:0.5,0.5 in d=1
        return {
            "grid": grid,
            "params": params,
            "pert_mix": PolynomialPerturbation(coeffs=(0.0, 0.0, 1.0, 0.0, 1.0), lam=1e-2, mollifier_width=0.5),
            "pert_rw": PolynomialPerturbation(coeffs=(0.0, 0.0, 1.0), lam=1e-3, kernel=_gauss_kernel,
                                              mollifier_width=0.5),
            "fock": TruncatedFock(energies=ev, n_max=45),
            "interaction": DiagonalInteraction(vhat=vhat, volume=6.0),
            "fock_spectrum": Spectrum(eigenvalues=ev, gaps=ev - ev[0], volume=6.0),
            "seed": seed,
        }

    def inputs(self, st, k):
        seeds = child_seeds(st["seed"], k, 4)
        rng = np.random.default_rng(seeds[3])
        shape = st["grid"].spatial_shape
        return {
            "seeds": seeds,
            "probe_vecs": rng.standard_normal((4, 2) + shape),
            "f_rw": 0.2 * rng.standard_normal(shape),
        }

    def _probes(self, p, grid, phi, vecs):
        rows = []
        for fvec, gvec in vecs:
            v0 = pair_field(phi, grid, fvec, 0)
            for i in (0, 2, 5):
                prods = v0 * pair_field(phi, grid, gvec, i)
                rows.append((prods.mean(), prods.std(ddof=1), covariance(p, fvec, gvec, i * grid.dtau)))
        return rows

    def round_size(self, inp, out) -> float:
        return 1.0  # every round makes the same calls at the same sizes

    def warm_up(self, st, inp, ops):
        return inp

    def run_round(self, st, inp, ops):
        p, grid, s = st["params"], st["grid"], inp["seeds"]
        out = {"phi_stats": None, "probes": None}
        phi = ops.call("sample_fields", sample_fields, p, self.n_fields, s[0])
        if phi is not None:
            out["phi_stats"] = [phi.sum(), (phi**2).sum()]
            out["probes"] = ops.call("covariance_probes", self._probes, p, grid, phi, inp["probe_vecs"])
        del phi
        out["mix"] = ops.call("renormalized_mixing", renormalized_mixing, p, st["pert_mix"], 8, 8,
                              n_samples=self.n_mix, seed=s[1])
        out["rw"] = ops.call("reweighted_state", reweighted_state, p, st["pert_rw"], inp["f_rw"],
                             self.n_rw, seed=s[2])
        out["fock"] = []
        for inter in (None, st["interaction"]):
            args = (st["fock"], self.beta, self.mu, inter)
            out["fock"].append([
                ops.call("exact_partition", exact_partition, *args),
                ops.call("exact_occupations", exact_occupations, *args),
                ops.call("exact_zero_mode_statistics", exact_zero_mode_statistics, *args),
            ])
        spec = ops.call("auto_torus_spectrum", auto_torus_spectrum, 3, 24.0, 1.0)
        out["mu"] = ops.call("solve_mu", solve_mu, spec, 1.0, 0.05) if spec is not None else None
        out["rho_c"] = ops.call("critical_density", critical_density, 1.0, analytic_dos(3))
        return out

    def gate_round(self, st, inp, ops):
        """Covariance probes within 3 standard errors (criterion 4), reference seed."""
        p, grid = st["params"], st["grid"]
        rng = np.random.default_rng(REFERENCE_SEED)
        vecs = rng.standard_normal((4, 2) + grid.spatial_shape)
        phi = ops.call("sample_fields", sample_fields, p, self.n_fields, REFERENCE_SEED)
        if phi is None:
            return []
        rows = ops.call("covariance_probes", self._probes, p, grid, phi, vecs)
        fails = []
        for i, (mean, sd, target) in enumerate(rows or []):
            zscore = abs(mean - target) / (sd / np.sqrt(self.n_fields))
            if not zscore < 3.0:
                fails.append(("covariance_probes", f"reference probe {i}: z = {zscore:.2f} >= 3"))
        return fails

    def check(self, st, out):
        fails = []
        Z = out["fock"][0][0]
        if Z is not None:
            lnz = np.log(Z)
            ref = st["fock_spectrum"].volume * pressure(st["fock_spectrum"], self.beta, self.mu)
            if not abs(lnz - ref) <= 1e-12 * abs(lnz):
                fails.append(("exact_partition", f"free Fock ln Z {lnz!r} vs spectral {ref!r}"))
        mix = out["mix"]
        if mix is not None and not (np.isfinite(mix["var_r"]) and mix["var_r"] > 0):
            fails.append(("renormalized_mixing", f"var_r = {mix['var_r']!r}"))
        if out["rw"] is not None and out["rw"]["estimate"] is None:
            fails.append(("reweighted_state", out["rw"]["diagnostic"]))
        return fails

    def digest_values(self, out):
        vals = list(out["phi_stats"] or [])
        vals += [v for row in (out["probes"] or []) for v in row]
        if out["mix"] is not None:
            vals += [out["mix"]["var_r"], out["mix"]["var_r_jackknife_err"]]
        if out["rw"] is not None and out["rw"]["estimate"] is not None:
            vals.append(out["rw"]["estimate"])
        for triple in out["fock"]:
            for v in triple:
                if v is not None:
                    vals.append(np.log(v) if np.ndim(v) == 0 else v)
        vals += [v for v in (out["mu"], out["rho_c"]) if v is not None]
        return vals

    def metrics(self, st, rounds):
        fields = [self.n_fields / s for r in rounds for s in r["ops"].seconds("sample_fields")]
        mixing = [s for r in rounds for s in r["ops"].seconds("renormalized_mixing")]
        fock_ops = ("exact_partition", "exact_occupations", "exact_zero_mode_statistics")
        states = 2 * len(fock_ops) * st["fock"].state_count
        fock = [states / sum(sum(r["ops"].seconds(op)) for op in fock_ops) for r in rounds
                if all(len(r["ops"].seconds(op)) == 2 for op in fock_ops)]
        return {
            "field_samples_per_s": (_median(fields), "1/s"),
            "mixing_s": (_median(mixing), "s"),
            "fock_states_per_s": (_median(fock), "1/s"),
        }


WORKLOADS = {w.name: w for w in (GibbsChainWorkload, IdentityChecksWorkload, FieldsAndFockWorkload)}
