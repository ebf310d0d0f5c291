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

Chain state stores wrapped coordinates (periodic) or in-box coordinates
(dirichlet); step densities use the minimum-image Gaussian increments, valid
for sqrt(beta) well below L.  Dirichlet targets include per-segment continuum
survival weights, handled as explicit acceptance factors so bridge proposals
stay free.

Every move's acceptance log-ratio is computed by a standalone function of the
frozen picks, so detailed balance is unit-testable: the forward and reverse
log-ratios of any proposal pair are exact negatives.  Each move prices only
the loops it touches against the rest (loop_in_config_energy), and an
accepted move adds that difference to the chain energy, delete included; the
full energy is recomputed only when a delete leaves an infinite-energy
state.  A proposal's builder returns a new packed configuration and never
edits the current one, so a rejected proposal costs no copy.
"""

from dataclasses import dataclass, field

import numpy as np

from ..diagnostics import batch_means
from ..errors import StabilityError, TuningError
from ..rng import derive_seed, generator
from .energy import interaction_energy, loop_in_config_energy, pair_energy
from .free import sample_free_poisson, winding_masses
from .loops import BridgeLoop, LoopConfiguration, draw_open_images, draw_winding_images, fill_bridges, segment_survival_log
from .potential import PairPotential
from .regions import DIRICHLET, PERIODIC, BoxRegion, free_kernel, kernel, wrap

MOVES = ("insert", "delete", "shift", "redraw", "merge", "cut")


def _wrap_loop(path: np.ndarray, region: BoxRegion) -> np.ndarray:
    if region.boundary == PERIODIC:
        out = wrap(path, region.L)
        out[-1] = out[0]
        return out
    return path


def _wrap_config(config: LoopConfiguration, region: BoxRegion) -> LoopConfiguration:
    """_wrap_loop applied to every loop of a configuration."""
    if region.boundary != PERIODIC:
        return config
    knots = wrap(config.knots, region.L)
    knots[config.offsets[1:] - 1] = knots[config.offsets[:-1]]
    return LoopConfiguration(knots=knots, offsets=config.offsets, windings=config.windings, images=config.images)


def loop_survival_log(loop: BridgeLoop, beta: float, region: BoxRegion) -> float:
    """Log wall-survival weight of a loop (0 for periodic boxes)."""
    if region.boundary == PERIODIC:
        return 0.0
    return float(segment_survival_log(loop.path, region.L, beta / region.n_slices))


def beta_step_kernel(x, y, beta: float, region: BoxRegion) -> float:
    """Boundary-aware normalizer of a one-beta bridge proposal between knots."""
    if region.boundary == PERIODIC:
        return float(kernel(x, y, region, beta)[0])
    d2 = float(((np.asarray(x) - np.asarray(y)) ** 2).sum())
    return float(free_kernel(d2, beta, region.d))


def _draw_beta_bridge(x, y, beta: float, region: BoxRegion, rng) -> np.ndarray:
    """A one-beta bridge between wrapped knots; periodic targets pick a winding
    image with the exact kernel weights."""
    n = region.n_slices
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if region.boundary != PERIODIC:
        return fill_bridges(x[None], y[None], n, beta / n, rng)[0]
    target = y + draw_open_images(x, y, 1, beta, region.L, rng)[0] * region.L
    path = wrap(fill_bridges(x[None], target[None], n, beta / n, rng)[0], region.L)
    path[0], path[-1] = x, y
    return path


@dataclass
class Proposal:
    move: str
    eligible: bool
    log_accept: float = -np.inf
    builder: object = None  # () -> (new_config, new_energy)
    details: dict = field(default_factory=dict)


class GibbsChain:
    """Single-stream Metropolis chain; strictly sequential within one instance."""

    def __init__(
        self,
        z: float,
        beta: float,
        region: BoxRegion,
        V: PairPotential | None,
        rng_seed: int,
        shift_step: float | None = None,
        move_weights: dict | None = None,
    ):
        self.z, self.beta, self.region, self.V = z, beta, region, V
        self.rng = generator(rng_seed)
        nus, self.j_max = winding_masses(z, beta, region)
        self.nus = nus
        self.nu_tot = float(nus.sum())
        self.shift_step = shift_step if shift_step is not None else 0.5 * np.sqrt(2 * beta)
        weights = move_weights or {
            "insert": 0.22, "delete": 0.22, "shift": 0.2, "redraw": 0.2,
            "merge": 0.08, "cut": 0.08,
        }
        self.move_names = list(weights)
        self.move_probs = np.array([weights[m] for m in self.move_names], dtype=float)
        self.move_probs /= self.move_probs.sum()
        # a free draw can overlap a hard core; retry, then fall back to empty
        self.config = LoopConfiguration()
        self.energy = 0.0
        for attempt in range(200):
            init = _wrap_config(sample_free_poisson(z, beta, region, derive_seed(rng_seed, "init", attempt)), region)
            e = self._total_energy(init)
            if np.isfinite(e):
                self.config, self.energy = init, e
                break
        self.attempts = {m: 0 for m in self.move_names}
        self.accepts = {m: 0 for m in self.move_names}

    # -- energies ------------------------------------------------------------

    def _total_energy(self, config) -> float:
        if self.V is None:
            return 0.0
        return interaction_energy(config, self.V, self.beta, self.region)

    def _loop_energy(self, loop, config, skip=-1) -> float:
        if self.V is None:
            return 0.0
        return loop_in_config_energy(loop, config, self.V, self.beta, self.region, skip=skip)

    # -- proposals -------------------------------------------------------------

    def propose_insert(self) -> Proposal:
        j = 1 + int(self.rng.choice(len(self.nus), p=self.nus / self.nu_tot))
        t = j * self.beta
        n_int = j * self.region.n_slices
        dtau = self.beta / self.region.n_slices
        if self.region.boundary == PERIODIC:
            base = self.rng.uniform(0, self.region.L, size=self.region.d)
            image = draw_winding_images(1, j, self.beta, self.region, self.rng)[0]
            path = fill_bridges(base[None], (base + image * self.region.L)[None], n_int, dtau, self.rng)[0]
            loop = BridgeLoop(base=base, winding=j, path=_wrap_loop(path, self.region), image=image)
            log_surv = 0.0
        else:
            from .free import _sample_bases

            base = _sample_bases(1, j, self.beta, self.region, self.rng)[0]
            path = fill_bridges(base[None], base[None], n_int, dtau, self.rng)[0]
            loop = BridgeLoop(base=base, winding=j, path=path, image=np.zeros(self.region.d, dtype=int))
            log_surv = loop_survival_log(loop, self.beta, self.region)
        return insert_proposal(self, loop, log_surv)

    def propose_delete(self) -> Proposal:
        if not self.config.loop_count:
            return Proposal("delete", eligible=False)
        idx = int(self.rng.integers(self.config.loop_count))
        return delete_proposal(self, idx)

    def propose_shift(self) -> Proposal:
        if not self.config.loop_count:
            return Proposal("shift", eligible=False)
        idx = int(self.rng.integers(self.config.loop_count))
        delta = self.shift_step * self.rng.standard_normal(self.region.d)
        return shift_proposal(self, idx, delta)

    def propose_redraw(self) -> Proposal:
        if not self.config.loop_count:
            return Proposal("redraw", eligible=False)
        idx = int(self.rng.integers(self.config.loop_count))
        loop = self.config.loop(idx)
        n_knots = loop.path.shape[0]
        arc = min(self.region.n_slices, n_knots - 2)
        if arc < 2:
            return Proposal("redraw", eligible=False)
        u = int(self.rng.integers(0, n_knots - arc - 1))
        dtau = self.beta / self.region.n_slices
        if self.region.boundary == PERIODIC:
            # bridge between images: unwrap the arc endpoints through min-image steps
            a = loop.path[u]
            b_wrapped = loop.path[u + arc]
            from .regions import min_image

            # draw in a frame where the endpoint is the nearest image of b
            disp = min_image(b_wrapped - a, self.region.L)
            new_arc = fill_bridges(a[None], (a + disp)[None], arc, dtau, self.rng)[0]
            new_arc = wrap(new_arc, self.region.L)
            new_arc[0], new_arc[-1] = a, b_wrapped
        else:
            new_arc = fill_bridges(loop.path[u][None], loop.path[u + arc][None], arc, dtau, self.rng)[0]
        return redraw_proposal(self, idx, u, new_arc)

    def propose_merge(self) -> Proposal:
        n = self.config.loop_count
        if n < 2:
            return Proposal("merge", eligible=False)
        ia, ib = self.rng.choice(n, size=2, replace=False)
        A, B = self.config.loop(int(ia)), self.config.loop(int(ib))
        alpha = int(self.rng.integers(A.winding))
        gamma = int(self.rng.integers(B.winding))
        ns = self.region.n_slices
        a0, a1 = A.path[alpha * ns], A.path[(alpha + 1) * ns]
        b0, b1 = B.path[gamma * ns], B.path[(gamma + 1) * ns]
        T1 = _draw_beta_bridge(a0, b1, self.beta, self.region, self.rng)
        T2 = _draw_beta_bridge(b0, a1, self.beta, self.region, self.rng)
        return merge_proposal(self, int(ia), int(ib), alpha, gamma, T1, T2)

    def propose_cut(self) -> Proposal:
        if not self.config.loop_count:
            return Proposal("cut", eligible=False)
        # uniform over all loops keeps the reverse probability at 1/N: pick any
        # loop, reject ineligible ones
        idx = int(self.rng.integers(self.config.loop_count))
        loop = self.config.loop(idx)
        if loop.winding < 2:
            return Proposal("cut", eligible=False)
        jc = loop.winding
        s = int(self.rng.integers(jc))
        t = int(self.rng.integers(jc - 1))
        if t >= s:
            t += 1
        ns = self.region.n_slices
        cs, cs1 = loop.path[s * ns], loop.path[((s + 1) % jc) * ns]
        ct, ct1 = loop.path[t * ns], loop.path[((t + 1) % jc) * ns]
        U1 = _draw_beta_bridge(cs, ct1, self.beta, self.region, self.rng)
        U2 = _draw_beta_bridge(ct, cs1, self.beta, self.region, self.rng)
        return cut_proposal(self, idx, s, t, U1, U2)

    # -- driver ----------------------------------------------------------------

    def step(self):
        name = self.move_names[int(self.rng.choice(len(self.move_names), p=self.move_probs))]
        prop = getattr(self, f"propose_{name}")()
        if not prop.eligible:
            return False
        self.attempts[name] += 1
        if np.log(self.rng.uniform()) < prop.log_accept:
            self.config, self.energy = prop.builder()
            self.accepts[name] += 1
            if self.V is not None and np.isfinite(self.energy):
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
            for m in self.move_names
        }

    def check_tuning(self, min_attempts: int = 500):
        for m in self.move_names:
            if self.attempts[m] >= min_attempts:
                rate = self.accepts[m] / self.attempts[m]
                if rate < 0.01:
                    raise TuningError(
                        f"move {m!r} acceptance {rate:.3%} after {self.attempts[m]} attempts; "
                        f"rates: { {k: round(v, 4) for k, v in self.acceptance_rates().items()} }"
                    )


# -- standalone acceptance computations (unit-testable detailed balance) --------


def insert_proposal(chain: GibbsChain, loop: BridgeLoop, log_surv: float) -> Proposal:
    dE = chain._loop_energy(loop, chain.config)
    n_after = chain.config.loop_count + 1
    log_acc = -dE + np.log(chain.nu_tot / n_after) + log_surv
    if np.isinf(dE):
        log_acc = -np.inf

    def build():
        return chain.config.spliced(add=[loop]), chain.energy + dE

    return Proposal("insert", True, float(log_acc), build, {"j": loop.winding})


def delete_proposal(chain: GibbsChain, idx: int) -> Proposal:
    loop = chain.config.loop(idx)
    dE = chain._loop_energy(loop, chain.config, skip=idx)
    log_surv = loop_survival_log(loop, chain.beta, chain.region)
    n = chain.config.loop_count
    log_acc = dE + np.log(n / chain.nu_tot) - log_surv
    if np.isinf(dE):  # removing an overlapping loop from an infinite-energy state
        log_acc = np.inf

    def build():
        cfg = chain.config.spliced(drop=[idx])
        if np.isinf(chain.energy):  # leaving an infinite-energy state: no finite difference
            return cfg, chain._total_energy(cfg)
        return cfg, chain.energy - dE

    return Proposal("delete", True, float(log_acc), build, {"j": loop.winding})


def shift_proposal(chain: GibbsChain, idx: int, delta: np.ndarray) -> Proposal:
    old = chain.config.loop(idx)
    new_path = _wrap_loop(old.path + delta, chain.region)
    new = BridgeLoop(base=new_path[0].copy(), winding=old.winding, path=new_path, image=old.image.copy())
    e_old = chain._loop_energy(old, chain.config, skip=idx)
    e_new = chain._loop_energy(new, chain.config, skip=idx)
    log_acc = -(e_new - e_old)
    log_acc += loop_survival_log(new, chain.beta, chain.region) - loop_survival_log(
        old, chain.beta, chain.region
    )
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
    new = BridgeLoop(base=new_path[0].copy(), winding=old.winding, path=new_path, image=old.image.copy())
    e_old = chain._loop_energy(old, chain.config, skip=idx)
    e_new = chain._loop_energy(new, chain.config, skip=idx)
    log_acc = -(e_new - e_old)
    if chain.region.boundary == DIRICHLET:
        dtau = chain.beta / chain.region.n_slices
        log_acc += float(
            segment_survival_log(new_arc, chain.region.L, dtau)
            - segment_survival_log(old.path[u : u + arc + 1], chain.region.L, dtau)
        )
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


def _assemble(parts, region: BoxRegion) -> np.ndarray:
    """Concatenate knot blocks and append the closure knot."""
    body = np.concatenate(parts, axis=0)
    return np.concatenate([body, body[:1]], axis=0)


def merge_proposal(
    chain: GibbsChain, ia: int, ib: int, alpha: int, gamma: int, T1: np.ndarray, T2: np.ndarray
) -> Proposal:
    A, B = chain.config.loop(ia), chain.config.loop(ib)
    ns = chain.region.n_slices
    ja, jb = A.winding, B.winding
    jc = ja + jb
    a0, a1 = A.path[alpha * ns], A.path[((alpha + 1) % ja) * ns]
    b0, b1 = B.path[gamma * ns], B.path[((gamma + 1) % jb) * ns]
    # C = T1 + B's remaining legs + T2 + A's remaining legs
    parts = [T1[:-1]]
    if jb > 1:
        parts.append(_cyclic_knots(B, ((gamma + 1) % jb) * ns, (jb - 1) * ns))
    parts.append(T2[:-1])
    if ja > 1:
        parts.append(_cyclic_knots(A, ((alpha + 1) % ja) * ns, (ja - 1) * ns))
    path = _assemble(parts, chain.region)
    C = BridgeLoop(base=path[0].copy(), winding=jc, path=path, image=np.zeros(chain.region.d, dtype=int))

    # A against everything but itself, then B against everything but A and B
    e_old = chain._loop_energy(A, chain.config, skip=ia) + chain._loop_energy(B, chain.config, skip=(ia, ib))
    e_new = chain._loop_energy(C, chain.config, skip=(ia, ib))
    dE = e_new - e_old

    n = chain.config.loop_count
    k = lambda x, y: beta_step_kernel(x, y, chain.beta, chain.region)
    log_kernels = np.log(k(a0, b1)) + np.log(k(b0, a1)) - np.log(k(a0, a1)) - np.log(k(b0, b1))
    log_comb = np.log(n * ja * jb / (jc * (jc - 1)))
    log_acc = -dE + log_comb + log_kernels
    if chain.region.boundary == DIRICHLET:
        dtau = chain.beta / ns
        Lbox = chain.region.L
        log_acc += float(
            segment_survival_log(T1, Lbox, dtau)
            + segment_survival_log(T2, Lbox, dtau)
            - segment_survival_log(_leg_block(A, alpha, ns), Lbox, dtau)
            - segment_survival_log(_leg_block(B, gamma, ns), Lbox, dtau)
        )
    if np.isinf(e_new) or not np.isfinite(log_acc):
        log_acc = -np.inf

    def build():
        return chain.config.spliced(drop=(ia, ib), add=[C]), chain.energy + dE

    return Proposal("merge", True, float(log_acc), build, {"ja": ja, "jb": jb})


def _leg_block(loop: BridgeLoop, leg: int, ns: int) -> np.ndarray:
    """Knots of one beta-leg including both boundary knots (cyclic read)."""
    j = loop.winding
    body = loop.path[:-1]
    idx = (leg * ns + np.arange(ns + 1)) % body.shape[0]
    return body[idx]


def cut_proposal(
    chain: GibbsChain, idx: int, s: int, t: int, U1: np.ndarray, U2: np.ndarray
) -> Proposal:
    C = chain.config.loop(idx)
    ns = chain.region.n_slices
    jc = C.winding
    j1 = (s - t) % jc
    j2 = (t - s) % jc
    cs, cs1 = C.path[s * ns], C.path[((s + 1) % jc) * ns]
    ct, ct1 = C.path[t * ns], C.path[((t + 1) % jc) * ns]
    # loop 1: U1 (cs -> ct1) followed by legs t+1 .. s-1
    parts1 = [U1[:-1]]
    if j1 > 1:
        parts1.append(_cyclic_knots(C, ((t + 1) % jc) * ns, (j1 - 1) * ns))
    path1 = _assemble(parts1, chain.region)
    loop1 = BridgeLoop(base=path1[0].copy(), winding=j1, path=path1, image=np.zeros(chain.region.d, dtype=int))
    parts2 = [U2[:-1]]
    if j2 > 1:
        parts2.append(_cyclic_knots(C, ((s + 1) % jc) * ns, (j2 - 1) * ns))
    path2 = _assemble(parts2, chain.region)
    loop2 = BridgeLoop(base=path2[0].copy(), winding=j2, path=path2, image=np.zeros(chain.region.d, dtype=int))

    e_old = chain._loop_energy(C, chain.config, skip=idx)
    e_new = (
        chain._loop_energy(loop1, chain.config, skip=idx)
        + chain._loop_energy(loop2, chain.config, skip=idx)
        + (pair_energy(loop1, loop2, chain.V, chain.beta, chain.region) if chain.V else 0.0)
    )
    dE = e_new - e_old

    n_after = chain.config.loop_count + 1
    k = lambda x, y: beta_step_kernel(x, y, chain.beta, chain.region)
    # new crossing bridges (cs -> ct1), (ct -> cs1) enter the numerator
    log_kernels = np.log(k(cs, ct1)) + np.log(k(ct, cs1)) - np.log(k(cs, cs1)) - np.log(k(ct, ct1))
    log_comb = np.log(jc * (jc - 1) / (n_after * j1 * j2))
    log_acc = -dE + log_comb + log_kernels
    if chain.region.boundary == DIRICHLET:
        dtau = chain.beta / ns
        Lbox = chain.region.L
        log_acc += float(
            segment_survival_log(U1, Lbox, dtau)
            + segment_survival_log(U2, Lbox, dtau)
            - segment_survival_log(_leg_block(C, s, ns), Lbox, dtau)
            - segment_survival_log(_leg_block(C, t, ns), Lbox, dtau)
        )
    if np.isinf(e_new) or not np.isfinite(log_acc):
        log_acc = -np.inf

    def build():
        return chain.config.spliced(drop=[idx], add=[loop1, loop2]), chain.energy + dE

    return Proposal("cut", True, float(log_acc), build, {"j1": j1, "j2": j2})


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
    {sweep, N, loop_count, energy}, acceptance rates, and a batch-means
    autocorrelation estimate for the particle number.  With a checkpoint base
    the full sampler state (loops, energy, RNG, move counters and the
    per-sweep particle numbers) is written every checkpoint_every sweeps, and
    `resume_gibbs` continues the identical trajectory.  N_history holds the
    particle numbers after the sweeps just before first_sweep, so the N
    estimates of a resumed run cover the sweeps before the resume too.
    """
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
                {"d": region.d, "L": region.L, "boundary": region.boundary,
                 "n_slices": region.n_slices, "z": z, "beta": beta},
                chain.rng.bit_generator.state,
                checkpoint_base,
                sweep=sweep + 1,
                chain_state={"energy": chain.energy, "attempts": chain.attempts, "accepts": chain.accepts},
                N_history=N_hist,
            )
        if sweep == max(burn, 50):
            chain.check_tuning()
    chain.check_tuning()
    N_arr = np.array(N_hist[max(burn - hist_start, 0) :], dtype=float)
    err_N, tau_int = batch_means(N_arr, 20)
    return {
        "configs": configs,
        "rows": rows,
        "acceptance": chain.acceptance_rates(),
        "attempts": dict(chain.attempts),
        "tau_int_N": tau_int,
        "mean_N": float(N_arr.mean()) if N_arr.size else 0.0,
        "err_N": err_N,
        "chain": chain,
    }


def resume_gibbs(
    checkpoint_base: str,
    z: float,
    beta: float,
    region: BoxRegion,
    V: PairPotential | None,
    n_sweeps: int,
    thin: int = 5,
    burn: int | None = None,
    checkpoint_every: int = 0,
) -> dict:
    """Continue a checkpointed chain; the trajectory matches an uninterrupted
    run exactly (the checkpoint carries the complete RNG state), and so do
    the move counters and the N estimates.  A version-1 checkpoint carries
    neither, so its counters and N trace restart at the resume."""
    from ..records import load_loop_checkpoint

    config, sidecar = load_loop_checkpoint(checkpoint_base)
    chain = GibbsChain(z, beta, region, V, rng_seed=0)
    chain.config = config
    state = sidecar.get("chain", {})
    chain.energy = state["energy"] if "energy" in state else chain._total_energy(config)
    chain.attempts.update(state.get("attempts", {}))
    chain.accepts.update(state.get("accepts", {}))
    chain.rng.bit_generator.state = sidecar["rng_state"]
    return gibbs_sample(
        z, beta, region, V, n_sweeps, rng_seed=0, thin=thin, burn=burn,
        checkpoint_base=checkpoint_base if checkpoint_every else None,
        checkpoint_every=checkpoint_every,
        resume_chain=chain, first_sweep=sidecar["sweep"], N_history=sidecar["N_history"],
    )
