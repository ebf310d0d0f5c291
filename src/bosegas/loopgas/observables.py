"""Test functions and reduced density matrices for the loop gas.

Test functions on R+ x box are callables f(ts, xs) -> values over knot
times ts (K,) and positions xs (..., K, d), broadcasting over the leading
axes of xs (paths come in blocks), wrapped in LoopTestFunction with a time
cut and an optional spatial box.
"""

from dataclasses import dataclass

import numpy as np

from ..diagnostics import stratified_mean
from ..rng import derive_seed, generator
from .energy import added_loop_energies, intra_energies
from .free import free_rdm, winding_masses
from .loops import as_batch, box_bridges
from .potential import PairPotential
from .regions import PERIODIC, BoxRegion, kernel, wall_survival_log, wrap_knots


@dataclass(frozen=True)
class LoopTestFunction:
    """Bounded test function with finite time support [0, t_max] and an
    optional spatial box ((lo, hi) per axis)."""

    fn: object
    t_max: float
    box: tuple | None = None

    def __call__(self, ts, xs):
        """Values at knot times ts (K,) and positions xs (..., K, d), shaped
        xs.shape[:-1]; fn may return any shape that broadcasts to it."""
        xs = np.asarray(xs)
        vals = np.broadcast_to(np.asarray(self.fn(ts, xs), dtype=float), xs.shape[:-1])
        vals = np.where(np.asarray(ts) <= self.t_max, vals, 0.0)
        if self.box is not None:
            inside = np.ones_like(vals, dtype=bool)
            for ax, (lo, hi) in enumerate(self.box):
                inside &= (xs[..., ax] >= lo) & (xs[..., ax] < hi)
            vals = np.where(inside, vals, 0.0)
        return vals


def reduced_density_matrix(
    z: float,
    beta: float,
    region: BoxRegion,
    x,
    y,
    V: PairPotential | None = None,
    gibbs_configs=None,
    n_mc: int = 2000,
    seed: int = 0,
) -> dict:
    """One-particle kernel rho(x|y) = sum_j z^j integral dW^{j beta}_{x|y} weight(omega).

    The open bridge of winding j carries j beta-legs; its weight is the
    intra-path distinct-leg Gibbs factor times exp(-energy against a sampled
    loop configuration) (V = None leaves weight 1, so in a periodic box the
    record is free_rdm's closed form, exact, with no draws).  When the
    estimate sinks below twice its error the record reports an upper bound
    instead of a value.
    """
    _, jm = winding_masses(z, beta, region)
    rng = generator(derive_seed(seed, "rdm"))
    dtau = beta / region.n_slices
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if V is not None and gibbs_configs is not None:
        # bridge b meets configuration b mod len, in every winding: pack once
        partners = as_batch([gibbs_configs[b % len(gibbs_configs)] for b in range(n_mc)])

    def sectors():
        """(mass, weights) of each winding; one below 1e-16 of the estimate so far is dropped."""
        seen = 0.0
        for j in range(1, jm + 1):
            mass = z**j * float(kernel(x, y, region, j * beta)[0])
            if mass < 1e-16 * max(abs(seen), 1.0):
                continue
            # open bridges x -> y, each ending at a winding image of y
            paths = box_bridges(np.tile(x, (n_mc, 1)), y, j * region.n_slices, dtau, region, rng)
            logw = wall_survival_log(paths, region, dtau)
            if V is not None:
                bridges = wrap_knots(paths, region)
                if gibbs_configs is not None:
                    e = added_loop_energies(bridges, partners, V, beta, region)
                else:
                    e = intra_energies(bridges, V, beta, region)
                logw = np.where(np.isinf(e), -np.inf, logw - e)
            w = np.exp(logw)
            seen += mass * w.mean()
            yield mass, w

    if V is None and region.boundary == PERIODIC:
        total, err = free_rdm(z, beta, region, x, y), None  # weights are identically 1
    else:
        total, err = (float(v) for v in stratified_mean(sectors()))
    rec = {"x": x, "y": y, "estimate": float(total), "std_error": err, "j_max": jm, "status": "value"}
    if err and abs(total) < 2 * err:  # an exact (None) or zero error bounds nothing
        rec.update(upper_bound=abs(total) + 3 * err, status="upper-bound")
    return rec
