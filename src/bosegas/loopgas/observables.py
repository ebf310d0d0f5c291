"""Moment estimation and reduced density matrices for the loop gas.

Test functions on R+ x box are callables f(ts, xs) -> values over knot
times ts (K,) and positions xs (..., K, d), broadcasting over the leading
axes of xs (paths come in blocks), wrapped in LoopTestFunction with declared
supports so disjoint-support products can be flagged.
"""

from dataclasses import dataclass

import numpy as np

from ..diagnostics import batch_means, stratified_mean
from ..rng import derive_seed, generator
from .energy import added_loop_energies, intra_energies
from .free import config_pairings, winding_masses
from .loops import as_batch, draw_open_images, fill_bridges, segment_survival_log
from .potential import PairPotential
from .regions import DIRICHLET, PERIODIC, BoxRegion, kernel, wrap


@dataclass(frozen=True)
class LoopTestFunction:
    """Bounded test function with finite time support [0, t_max] and an
    optional spatial box ((lo, hi) per axis)."""

    fn: object
    t_max: float
    box: tuple | None = None
    label: str = "f"

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

    def overlaps(self, other: "LoopTestFunction") -> bool:
        if self.box is None or other.box is None:
            return True
        for (a_lo, a_hi), (b_lo, b_hi) in zip(self.box, other.box):
            if a_hi <= b_lo or b_hi <= a_lo:
                return False
        return True


def moment_estimate(configs, fs, beta: float, region: BoxRegion) -> dict:
    """E[prod_i (phi, f_i)] over a configuration stream with batch-means errors.

    Pairwise-disjoint declared supports are flagged (the product then
    factorizes for the free measure) but still estimated.
    """
    vals = config_pairings(configs, fs, beta, region)[2].prod(axis=1)
    err, _ = batch_means(vals, 16)
    disjoint = all(
        not fi.overlaps(fj)
        for i, fi in enumerate(fs)
        for fj in fs[i + 1 :]
        if isinstance(fi, LoopTestFunction) and isinstance(fj, LoopTestFunction)
    ) and len(fs) > 1
    return {
        "estimate": float(vals.mean()),
        "std_error": float(err),
        "n": vals.size,
        "disjoint_supports": bool(disjoint),
    }


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
    j_max: int | None = None,
) -> dict:
    """One-particle kernel rho(x|y) = sum_j z^j integral dW^{j beta}_{x|y} weight(omega).

    The open bridge of winding j carries j beta-legs; its weight is the
    intra-path distinct-leg Gibbs factor times exp(-energy against a sampled
    loop configuration) (V = None leaves weight 1).  When the estimate sinks
    below twice its error the record reports an upper bound instead of a value.
    """
    _, jm = winding_masses(z, beta, region, j_max)
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
            # open bridges x -> y; periodic ones end at a winding image of y
            if region.boundary == PERIODIC:
                ends = y + draw_open_images(x, y, n_mc, j * beta, region.L, rng) * region.L
            else:
                ends = np.tile(y, (n_mc, 1))
            paths = fill_bridges(np.tile(x, (n_mc, 1)), ends, j * region.n_slices, dtau, rng)
            logw = np.zeros(n_mc)
            if region.boundary == DIRICHLET:
                logw += segment_survival_log(paths, region.L, dtau)
            if V is not None:
                bridges = paths if region.boundary == DIRICHLET else wrap(paths, region.L)
                if gibbs_configs is not None:
                    e = added_loop_energies(bridges, partners, V, beta, region)
                else:
                    e = intra_energies(bridges, V, beta, region)
                logw = np.where(np.isinf(e), -np.inf, logw - e)
            w = np.exp(logw)
            seen += mass * w.mean()
            yield mass, w

    total, err = stratified_mean(sectors())
    rec = {"x": x, "y": y, "estimate": float(total), "std_error": float(err), "j_max": jm}
    if V is None and gibbs_configs is None and region.boundary == PERIODIC:
        rec["std_error"] = 0.0  # weights are identically 1: the mass sum is exact
    if rec["std_error"] > 0 and abs(rec["estimate"]) < 2 * rec["std_error"]:
        rec["upper_bound"] = abs(rec["estimate"]) + 3 * rec["std_error"]
        rec["status"] = "upper-bound"
    else:
        rec["status"] = "value"
    return rec


def density_from_configs(configs, region: BoxRegion) -> tuple:
    """Mean particle density over a configuration stream, with the batch error."""
    N = as_batch(configs).particle_numbers.astype(float)
    err, _ = batch_means(N, 16)
    return float(N.mean() / region.volume), float(err / region.volume)
