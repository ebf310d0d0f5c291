"""Metropolis-Hastings chain for the Gibbs-perturbed loop gas.

Targets dG proportional to exp(-energy) dP with dP the free Poisson loop
measure, using a grand-canonical move set:

  insert  draw a fresh loop from the free intensity; accept with
          nu_tot e^(-dE) / (N+1) (times the wall-survival weight).
  delete  uniform loop choice; the reverse ratio.
  shift   rigid Gaussian translation of one loop (symmetric proposal).
  redraw  staging: resample an interior arc from the exact bridge conditional.
  merge   cut-and-merge winding change: two loops (j_a, j_b) become one
          (j_a + j_b) loop by redrawing one beta-leg of each into crossing
          bridges; acceptance carries the combinatorial factor
          N j_a j_b / (j_c (j_c - 1)) and the beta-step kernel ratio.
  cut     the inverse split, with the reciprocal factor.

The move mix is the module table MOVE_WEIGHTS (MOVES lists its names).  Merge
and cut are one reconnection seen from either side: two beta-legs p -> p' and
q -> q' are replaced by crossing bridges p -> q' and q -> p', so both price
their proposal with one function (_reconnection_log_accept): the combinatorial
factor, the kernel ratio k(p, q') k(q, p') / (k(p, p') k(q, q')) and, in
Dirichlet boxes, the survival of the two bridges over that of the two legs.

Chain state stores knots in the box (regions.wrap_knots).  Every fresh
bridge (inserted loop, merge/cut bridge, redraw arc) is a loops.box_bridges
draw, exact in a periodic box at any sqrt(beta) / L, and each acceptance
carries the log wall survival of what it adds over what it removes
(wall_survival_log), so Dirichlet bridge proposals stay free.

Every move's acceptance log-ratio is computed by a standalone function of the
frozen picks, so detailed balance is unit-testable: the forward and reverse
log-ratios of any proposal pair are exact negatives.  Each move prices only
the loops it touches against the rest (loop_in_config_energy), and an
accepted move adds that difference to the chain energy, delete included.
A proposal's builder returns a new packed configuration and never
edits the current one, so a rejected proposal costs no copy.

A step is mostly fixed costs at the sizes the chain runs (tens of loops), so
the move layer keeps them few without moving a bit of the trajectory:

  draws    the move and an insert's winding are drawn as Generator.choice
           draws them, one rng.random() double inverted through the same
           cumulative table (_choice_table, built once), without choice's
           per-call checks; the accept test takes log(rng.random()), the
           double rng.uniform() returned.
  pricing  loops priced against the same other loops share one broadcast
           (loops_in_config_energies): shift and redraw price the old and
           the new path together, merge its B and C, cut its C and both
           halves; each loop's leg pairs are summed on their own, so every
           energy has the bits of its own loop_in_config_energy call.  The
           other loops' legs are slices of the configuration's kept legs
           array (LoopConfiguration.legs), which spliced and replaced carry
           over to the configurations they build.
  kernels  merge and cut evaluate the four kernels of their ratio in one
           call.
"""

from bisect import bisect_right
from dataclasses import asdict, dataclass

import numpy as np

from ..diagnostics import batch_means
from ..errors import StabilityError, TuningError
from ..rng import derive_seed, generator
from .energy import (
    check_image_range,
    interaction_energy,
    loop_in_config_energy,
    loops_in_config_energies,
    pair_energy,
)
from .free import _sample_bases, sample_free_poisson, winding_masses
from .loops import BridgeLoop, LoopConfiguration, box_bridges
from .potential import PairPotential
from .regions import BoxRegion, bridge_kernel, wall_survival_log, wrap_knots


def _choice_table(p) -> list:
    """The cumulative table that Generator.choice(len(p), p=p) searches, built
    as choice builds it."""
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _choice(table: list, rng) -> int:
    """The index Generator.choice(len(p), p=p) draws, for table =
    _choice_table(p): the same one rng.random() double, inverted through the
    same table, without choice's per-call checks."""
    return bisect_right(table, rng.random())


MOVE_WEIGHTS = {"insert": 0.22, "delete": 0.22, "shift": 0.2, "redraw": 0.2, "merge": 0.08, "cut": 0.08}
MOVES = tuple(MOVE_WEIGHTS)
_MOVE_PROBS = np.array(list(MOVE_WEIGHTS.values()))
_MOVE_PROBS /= _MOVE_PROBS.sum()
_MOVE_CDF = _choice_table(_MOVE_PROBS)


def _wrap_config(config: LoopConfiguration, region: BoxRegion) -> LoopConfiguration:
    """Every loop's knots wrapped into the box, each closing onto its own first knot."""
    knots = np.array(wrap_knots(config.knots, region))
    knots[config.offsets[1:] - 1] = knots[config.offsets[:-1]]
    return LoopConfiguration(knots=knots, offsets=config.offsets, windings=config.windings)


def _draw_beta_bridge(x, y, beta: float, region: BoxRegion, rng, arc: int | None = None) -> np.ndarray:
    """A bridge between wrapped knots over arc knot spacings beta / n_slices
    (one beta-leg by default), to a winding image of y (box_bridges), wrapped
    into the box with its ends pinned at x and y (knot rows, (d,) each)."""
    n = region.n_slices
    path = wrap_knots(box_bridges(x[None], y[None], arc or n, beta / n, region, rng)[0], region)
    path[0], path[-1] = x, y
    return path


@dataclass
class Proposal:
    move: str
    eligible: bool
    log_accept: float = -np.inf
    builder: object = None  # () -> (new_config, new_energy)


class GibbsChain:
    """Single-stream Metropolis chain; strictly sequential within one instance."""

    def __init__(self, z: float, beta: float, region: BoxRegion, V: PairPotential | None, rng_seed: int):
        check_image_range(V, region)
        self.z, self.beta, self.region, self.V = z, beta, region, V
        self.rng = generator(rng_seed)
        self.nus = winding_masses(z, beta, region)[0]
        self.nu_tot = float(self.nus.sum())
        self._winding_cdf = _choice_table(self.nus / self.nu_tot)
        # a free draw can overlap a hard core; retry, then fall back to empty
        self.config = LoopConfiguration()
        self.energy = 0.0
        for attempt in range(200):
            init = _wrap_config(sample_free_poisson(z, beta, region, derive_seed(rng_seed, "init", attempt)), region)
            e = self._total_energy(init)
            if np.isfinite(e):
                self.config, self.energy = init, e
                break
        self.attempts = {m: 0 for m in MOVES}
        self.accepts = {m: 0 for m in MOVES}

    # -- energies ------------------------------------------------------------

    def _total_energy(self, config) -> float:
        if self.V is None:
            return 0.0
        return interaction_energy(config, self.V, self.beta, self.region)

    def _loop_energy(self, loop, skip=-1) -> float:
        if self.V is None:
            return 0.0
        return loop_in_config_energy(loop, self.config, self.V, self.beta, self.region, skip=skip)

    def _loop_energies(self, paths, skip) -> list:
        """_loop_energy of each loop path against the same loops, in one broadcast."""
        if self.V is None:
            return [0.0] * len(paths)
        return loops_in_config_energies(paths, self.config, self.V, self.beta, self.region, skip=skip)

    def _survival_log(self, path) -> np.ndarray:
        """A path's log wall survival at the chain's knot spacing (0.0 in a periodic box)."""
        return wall_survival_log(path, self.region, self.beta / self.region.n_slices)

    # -- proposals -------------------------------------------------------------

    def _pick(self) -> int | None:
        """A uniform loop index, or None for an empty configuration."""
        n = self.config.loop_count
        return int(self.rng.integers(n)) if n else None

    def propose_insert(self) -> Proposal:
        j = 1 + _choice(self._winding_cdf, self.rng)
        base = _sample_bases(1, j, self.beta, self.region, self.rng)
        # a bridge not conditioned on the walls: its wall survival enters the acceptance
        path = _draw_beta_bridge(base[0], base[0], self.beta, self.region, self.rng, j * self.region.n_slices)
        return insert_proposal(self, BridgeLoop(winding=j, path=path), self._survival_log(path))

    def propose_delete(self) -> Proposal:
        idx = self._pick()
        if idx is None:
            return Proposal("delete", eligible=False)
        return delete_proposal(self, idx)

    def propose_shift(self) -> Proposal:
        idx = self._pick()
        if idx is None:
            return Proposal("shift", eligible=False)
        delta = 0.5 * np.sqrt(2 * self.beta) * self.rng.standard_normal(self.region.d)
        return shift_proposal(self, idx, delta)

    def propose_redraw(self) -> Proposal:
        idx = self._pick()
        if idx is None:
            return Proposal("redraw", eligible=False)
        loop = self.config.loop(idx)
        n_knots = loop.path.shape[0]
        arc = min(self.region.n_slices, n_knots - 2)
        if arc < 2:
            return Proposal("redraw", eligible=False)
        u = int(self.rng.integers(0, n_knots - arc - 1))
        new_arc = _draw_beta_bridge(loop.path[u], loop.path[u + arc], self.beta, self.region, self.rng, arc)
        return redraw_proposal(self, idx, u, new_arc)

    def propose_merge(self) -> Proposal:
        n = self.config.loop_count
        if n < 2:
            return Proposal("merge", eligible=False)
        ia, ib = self.rng.choice(n, size=2, replace=False)
        A, B = self.config.loop(int(ia)), self.config.loop(int(ib))
        alpha = int(self.rng.integers(A.winding))
        gamma = int(self.rng.integers(B.winding))
        a0, a1 = _leg_ends(A, alpha, self.region.n_slices)
        b0, b1 = _leg_ends(B, gamma, self.region.n_slices)
        T1 = _draw_beta_bridge(a0, b1, self.beta, self.region, self.rng)
        T2 = _draw_beta_bridge(b0, a1, self.beta, self.region, self.rng)
        return merge_proposal(self, int(ia), int(ib), alpha, gamma, T1, T2)

    def propose_cut(self) -> Proposal:
        # uniform over all loops keeps the reverse probability at 1/N: pick any
        # loop, reject ineligible ones
        idx = self._pick()
        if idx is None or self.config.windings[idx] < 2:
            return Proposal("cut", eligible=False)
        loop = self.config.loop(idx)
        jc = loop.winding
        s = int(self.rng.integers(jc))
        t = int(self.rng.integers(jc - 1))
        if t >= s:
            t += 1
        cs, cs1 = _leg_ends(loop, s, self.region.n_slices)
        ct, ct1 = _leg_ends(loop, t, self.region.n_slices)
        U1 = _draw_beta_bridge(cs, ct1, self.beta, self.region, self.rng)
        U2 = _draw_beta_bridge(ct, cs1, self.beta, self.region, self.rng)
        return cut_proposal(self, idx, s, t, U1, U2)

    # -- driver ----------------------------------------------------------------

    def step(self):
        name = MOVES[_choice(_MOVE_CDF, self.rng)]
        prop = getattr(self, f"propose_{name}")()
        if not prop.eligible:
            return False
        self.attempts[name] += 1
        if np.log(self.rng.random()) < prop.log_accept:
            self.config, self.energy = prop.builder()
            self.accepts[name] += 1
            if self.V is not None:
                floor = -self.beta * self.V.stability_B * self.config.particle_number - 1e-9
                if self.energy < floor:
                    raise StabilityError(
                        f"energy {self.energy!r} below the stability floor {floor!r} after {name}: "
                        f"check the potential's B"
                    )
            return True
        return False

    def sweep(self):
        for _ in range(max(4, self.config.loop_count + 1)):
            self.step()

    def acceptance_rates(self) -> dict:
        return {
            m: (self.accepts[m] / self.attempts[m]) if self.attempts[m] else np.nan
            for m in MOVES
        }

    def check_tuning(self):
        for m in MOVES:
            if self.attempts[m] >= 500:
                rate = self.accepts[m] / self.attempts[m]
                if rate < 0.01:
                    raise TuningError(
                        f"move {m!r} acceptance {rate:.3%} after {self.attempts[m]} attempts; "
                        f"rates: { {k: round(v, 4) for k, v in self.acceptance_rates().items()} }"
                    )


# -- standalone acceptance computations (unit-testable detailed balance) --------


def insert_proposal(chain: GibbsChain, loop: BridgeLoop, log_surv: float) -> Proposal:
    dE = chain._loop_energy(loop)
    n_after = chain.config.loop_count + 1
    log_acc = -dE + np.log(chain.nu_tot / n_after) + log_surv
    if np.isinf(dE):
        log_acc = -np.inf

    def build():
        return chain.config.spliced(add=[loop]), chain.energy + dE

    return Proposal("insert", True, float(log_acc), build)


def delete_proposal(chain: GibbsChain, idx: int) -> Proposal:
    loop = chain.config.loop(idx)
    dE = chain._loop_energy(loop, skip=idx)
    log_surv = chain._survival_log(loop.path)
    n = chain.config.loop_count
    log_acc = dE + np.log(n / chain.nu_tot) - log_surv

    def build():
        return chain.config.spliced(drop=[idx]), chain.energy - dE

    return Proposal("delete", True, float(log_acc), build)


def shift_proposal(chain: GibbsChain, idx: int, delta: np.ndarray) -> Proposal:
    old = chain.config.loop(idx)
    new_path = wrap_knots(old.path + delta, chain.region)
    new_path[-1] = new_path[0]
    e_old, e_new = chain._loop_energies((old.path, new_path), skip=idx)
    log_acc = -(e_new - e_old)
    log_acc += float(chain._survival_log(new_path) - chain._survival_log(old.path))
    if np.isinf(e_new):
        log_acc = -np.inf

    def build():
        return chain.config.replaced(idx, new_path), chain.energy + (e_new - e_old)

    return Proposal("shift", True, float(log_acc), build)


def redraw_proposal(chain: GibbsChain, idx: int, u: int, new_arc: np.ndarray) -> Proposal:
    old = chain.config.loop(idx)
    arc = new_arc.shape[0] - 1
    new_path = old.path.copy()
    new_path[u : u + arc + 1] = new_arc
    e_old, e_new = chain._loop_energies((old.path, new_path), skip=idx)
    log_acc = -(e_new - e_old)
    log_acc += float(chain._survival_log(new_arc) - chain._survival_log(old.path[u : u + arc + 1]))
    if np.isinf(e_new):
        log_acc = -np.inf

    def build():
        return chain.config.replaced(idx, new_path), chain.energy + (e_new - e_old)

    return Proposal("redraw", True, float(log_acc), build)


def _cyclic_knots(loop: BridgeLoop, start_knot: int, count: int) -> np.ndarray:
    """count knots along the loop starting at start_knot (closure knot excluded)."""
    body = loop.path[:-1]
    idx = (start_knot + np.arange(count)) % body.shape[0]
    return body[idx]


def _leg_block(loop: BridgeLoop, leg: int, ns: int) -> np.ndarray:
    """Knots of one beta-leg including both boundary knots (cyclic read)."""
    return _cyclic_knots(loop, leg * ns, ns + 1)


def _leg_ends(loop: BridgeLoop, leg: int, ns: int):
    """First and last knot of one beta-leg (the last read cyclically)."""
    return loop.path[leg * ns], loop.path[((leg + 1) % loop.winding) * ns]


def _closed_loop(parts, winding: int) -> BridgeLoop:
    """The loop whose body is the knot blocks `parts` in order, closed onto its
    first knot; its knots stay wrapped."""
    body = np.concatenate(parts, axis=0)
    return BridgeLoop(winding=winding, path=np.concatenate([body, body[:1]], axis=0))


def _reconnection_log_accept(
    chain: GibbsChain, dE: float, e_new: float, log_comb: float, legs, bridges
) -> float:
    """Log acceptance of merge and cut.  legs = ((loop, leg), (loop, leg)) are
    the beta-legs p -> p' and q -> q' that the move removes, bridges the
    paths p -> q' and q -> p' that replace them: -dE + log_comb plus the log
    kernel ratio k(p, q') k(q, p') / (k(p, p') k(q, q')) and the log wall
    survival of the bridges minus that of the legs; -inf when the
    new state has infinite energy or the ratio is not finite."""
    ns = chain.region.n_slices
    (p, p1), (q, q1) = (_leg_ends(loop, leg, ns) for loop, leg in legs)
    k = np.log(bridge_kernel(np.array((p, q, p, q)), np.array((q1, p1, p1, q1)), chain.region, chain.beta))
    log_kernels = k[0] + k[1] - k[2] - k[3]
    log_acc = -dE + log_comb + log_kernels
    survival = chain._survival_log
    log_acc += float(survival(bridges[0]) + survival(bridges[1])
                     - survival(_leg_block(*legs[0], ns)) - survival(_leg_block(*legs[1], ns)))
    if np.isinf(e_new) or not np.isfinite(log_acc):
        log_acc = -np.inf
    return float(log_acc)


def merge_proposal(
    chain: GibbsChain, ia: int, ib: int, alpha: int, gamma: int, T1: np.ndarray, T2: np.ndarray
) -> Proposal:
    A, B = chain.config.loop(ia), chain.config.loop(ib)
    ns = chain.region.n_slices
    ja, jb = A.winding, B.winding
    jc = ja + jb
    # C = T1 + B's remaining legs + T2 + A's remaining legs
    rest_B = _cyclic_knots(B, ((gamma + 1) % jb) * ns, (jb - 1) * ns)
    rest_A = _cyclic_knots(A, ((alpha + 1) % ja) * ns, (ja - 1) * ns)
    C = _closed_loop([T1[:-1], rest_B, T2[:-1], rest_A], jc)

    # A against everything but itself, then B (and C) against everything but A and B
    e_b, e_new = chain._loop_energies((B.path, C.path), skip=(ia, ib))
    e_old = chain._loop_energy(A, skip=ia) + e_b
    dE = e_new - e_old
    log_comb = np.log(chain.config.loop_count * ja * jb / (jc * (jc - 1)))
    log_acc = _reconnection_log_accept(chain, dE, e_new, log_comb, ((A, alpha), (B, gamma)), (T1, T2))

    def build():
        return chain.config.spliced(drop=(ia, ib), add=[C]), chain.energy + dE

    return Proposal("merge", True, log_acc, build)


def cut_proposal(
    chain: GibbsChain, idx: int, s: int, t: int, U1: np.ndarray, U2: np.ndarray
) -> Proposal:
    C = chain.config.loop(idx)
    ns = chain.region.n_slices
    jc = C.winding
    j1 = (s - t) % jc
    j2 = (t - s) % jc
    # loop 1: U1 (cs -> ct1) followed by legs t+1 .. s-1; loop 2: U2 (ct -> cs1), legs s+1 .. t-1
    rest1 = _cyclic_knots(C, ((t + 1) % jc) * ns, (j1 - 1) * ns)
    rest2 = _cyclic_knots(C, ((s + 1) % jc) * ns, (j2 - 1) * ns)
    loop1 = _closed_loop([U1[:-1], rest1], j1)
    loop2 = _closed_loop([U2[:-1], rest2], j2)

    e_old, e_1, e_2 = chain._loop_energies((C.path, loop1.path, loop2.path), skip=idx)
    e_new = e_1 + e_2 + (pair_energy(loop1, loop2, chain.V, chain.beta, chain.region) if chain.V is not None else 0.0)
    dE = e_new - e_old
    log_comb = np.log(jc * (jc - 1) / ((chain.config.loop_count + 1) * j1 * j2))
    log_acc = _reconnection_log_accept(chain, dE, e_new, log_comb, ((C, s), (C, t)), (U1, U2))

    def build():
        return chain.config.spliced(drop=[idx], add=[loop1, loop2]), chain.energy + dE

    return Proposal("cut", True, log_acc, build)


# -- run driver ------------------------------------------------------------------


def gibbs_sample(
    z: float,
    beta: float,
    region: BoxRegion,
    V: PairPotential | None,
    n_sweeps: int,
    rng_seed: int,
    thin: int = 5,
    burn: int | None = None,
    checkpoint_base: str | None = None,
    checkpoint_every: int = 0,
    resume_chain: "GibbsChain | None" = None,
    first_sweep: int = 0,
    N_history=(),
) -> dict:
    """Run the chain and emit decorrelated configurations with diagnostics.

    Returns configs (thinned, post-burn), per-sweep stats rows
    {sweep, N, loop_count, energy}, acceptance rates, and the mean particle
    number over every post-burn sweep with its batch-means error, integrated
    autocorrelation time and effective sample size ess_N = n / (2 tau_int_N)
    (n when tau_int_N is 0, None when it is undefined).  With a checkpoint base
    the full sampler state (loops, energy, RNG, move counters and the
    per-sweep particle numbers) is written every checkpoint_every sweeps, and
    `resume_gibbs` continues the identical trajectory.  N_history holds the
    particle numbers after the sweeps just before first_sweep, so the N
    estimates of a resumed run cover the sweeps before the resume too.  A
    checkpoint holds z, beta, the box, thin, burn as given and checkpoint_every.
    """
    schedule = {"thin": thin, "burn": burn, "checkpoint_every": checkpoint_every}
    burn = n_sweeps // 5 if burn is None else burn
    chain = resume_chain if resume_chain is not None else GibbsChain(z, beta, region, V, rng_seed)
    configs, rows = [], []
    N_hist = [int(n) for n in N_history]
    hist_start = first_sweep - len(N_hist)  # the sweep whose N is N_hist[0]
    for sweep in range(first_sweep, n_sweeps):
        chain.sweep()
        N_hist.append(chain.config.particle_number)
        rows.append(
            {
                "sweep": sweep,
                "N": chain.config.particle_number,
                "loop_count": chain.config.loop_count,
                "energy": chain.energy,
            }
        )
        if sweep >= burn and (sweep - burn) % thin == 0:
            configs.append(chain.config.copy())
        if checkpoint_base and checkpoint_every and (sweep + 1) % checkpoint_every == 0:
            from ..records import save_loop_checkpoint

            save_loop_checkpoint(
                chain.config,
                {**asdict(region), "z": z, "beta": beta},
                chain.rng.bit_generator.state,
                checkpoint_base,
                sweep=sweep + 1,
                chain_state={"energy": chain.energy, "attempts": chain.attempts, "accepts": chain.accepts,
                             "schedule": schedule},
                N_history=N_hist,
            )
        if sweep == max(burn, 50):
            chain.check_tuning()
    chain.check_tuning()
    N_arr = np.array(N_hist[max(burn - hist_start, 0) :], dtype=float)
    err_N, tau_int = batch_means(N_arr, 20)
    if np.isnan(tau_int):
        ess_N = None
    else:
        ess_N = N_arr.size / (2 * tau_int) if tau_int else float(N_arr.size)
    return {
        "configs": configs,
        "rows": rows,
        "acceptance": chain.acceptance_rates(),
        "attempts": dict(chain.attempts),
        "tau_int_N": tau_int,
        "mean_N": float(N_arr.mean()) if N_arr.size else np.nan,  # no sweep after burn-in
        "err_N": err_N,
        "ess_N": ess_N,
        "chain": chain,
    }


def resume_gibbs(checkpoint_base: str, V: PairPotential | None, n_sweeps: int) -> dict:
    """Continue a checkpointed chain to n_sweeps under its stored law and
    schedule (thin 5, burn None, checkpoint_every 0 if it holds none), exactly
    as the uninterrupted run: rows, configurations, counters, N estimates and
    checkpoints.  V, which no checkpoint holds, is refused with a ValueError
    when the stored configuration's energy under it (0.0 for None) is off the
    stored energy by more than 1e-9 max(|E|, 1); a change of hard core that
    leaves that configuration free of contacts passes unseen."""
    from ..records import load_loop_checkpoint

    config, sidecar = load_loop_checkpoint(checkpoint_base)
    law = dict(sidecar["region"])
    z, beta = law.pop("z"), law.pop("beta")
    region = BoxRegion(**law)
    chain = GibbsChain(z, beta, region, V, rng_seed=0)
    state = sidecar["chain"]
    stored, energy = state["energy"], chain._total_energy(config)
    if not abs(energy - stored) <= 1e-9 * max(abs(stored), 1.0):
        raise ValueError(f"checkpoint {checkpoint_base} stores energy {stored!r}, but its configuration has "
                         f"energy {energy!r} under the given V: it was written under another potential")
    schedule = {"thin": 5, "burn": None, "checkpoint_every": 0, **state.get("schedule", {})}
    chain.config = config
    chain.energy = stored
    chain.attempts.update(state["attempts"])
    chain.accepts.update(state["accepts"])
    chain.rng.bit_generator.state = sidecar["rng_state"]
    return gibbs_sample(
        z, beta, region, V, n_sweeps, rng_seed=0, **schedule,
        checkpoint_base=checkpoint_base if schedule["checkpoint_every"] else None,
        resume_chain=chain, first_sweep=sidecar["sweep"], N_history=sidecar["N_history"],
    )
