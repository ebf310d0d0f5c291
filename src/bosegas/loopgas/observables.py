"""Moment estimation and reduced density matrices for the loop gas.

Test functions on R+ x box are callables f(ts, xs) -> values over knot
times ts (K,) and positions xs (..., K, d), broadcasting over the leading
axes of xs (paths come in blocks), wrapped in LoopTestFunction with declared
supports so disjoint-support products can be flagged.
"""

from dataclasses import dataclass

import numpy as np

from ..rng import derive_seed, generator
from .energy import added_loop_energies, intra_energies
from .free import config_pairings, winding_masses
from .loops import fill_bridges, segment_survival_log
from .potential import PairPotential
from .regions import DIRICHLET, PERIODIC, BoxRegion, _image_range, kernel, wrap


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


def moment_estimate(configs, fs, beta: float, region: BoxRegion, n_batches: int = 16) -> dict:
    """E[prod_i (phi, f_i)] over a configuration stream with batch-means errors.

    Pairwise-disjoint declared supports are flagged (the product then
    factorizes for the free measure) but still estimated.
    """
    vals = config_pairings(configs, fs, beta, region)[2].prod(axis=1)
    n = vals.size
    b = max(n // n_batches, 1)
    means = vals[: b * (n // b)].reshape(-1, b).mean(axis=1)
    err = means.std(ddof=1) / np.sqrt(means.size) if means.size > 1 else np.inf
    disjoint = all(
        not fi.overlaps(fj)
        for i, fi in enumerate(fs)
        for fj in fs[i + 1 :]
        if isinstance(fi, LoopTestFunction) and isinstance(fj, LoopTestFunction)
    ) and len(fs) > 1
    return {
        "estimate": float(vals.mean()),
        "std_error": float(err),
        "n": n,
        "disjoint_supports": bool(disjoint),
    }


def _open_bridges(x, y, j: int, beta: float, region: BoxRegion, n_mc: int, rng):
    """Open bridges x -> y over time j beta: periodic picks winding images with
    kernel weights; walls are handled by survival weights on the caller side."""
    n_int = j * region.n_slices
    dtau = beta / region.n_slices
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = j * beta
    if region.boundary == PERIODIC:
        targets = np.empty((n_mc, region.d))
        m = _image_range(region.L, t, tol=1e-16)
        ws = np.arange(-m, m + 1)
        for k in range(region.d):
            p = np.exp(-((y[k] - x[k] + ws * region.L) ** 2) / (4 * t))
            p = p / p.sum()
            targets[:, k] = y[k] + rng.choice(ws, size=n_mc, p=p) * region.L
    else:
        targets = np.tile(y, (n_mc, 1))
    starts = np.tile(x, (n_mc, 1))
    return fill_bridges(starts, targets, n_int, dtau, rng)


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
    nus, jm = winding_masses(z, beta, region, j_max)
    rng = generator(derive_seed(seed, "rdm"))
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total, var_total = 0.0, 0.0
    for j in range(1, jm + 1):
        mass = z**j * float(kernel(x, y, region, j * beta)[0])
        if mass < 1e-16 * max(abs(total), 1.0):
            continue
        paths = _open_bridges(x, y, j, beta, region, n_mc, rng)
        logw = np.zeros(n_mc)
        if region.boundary == DIRICHLET:
            logw += segment_survival_log(paths, region.L, beta / region.n_slices)
        if V is not None:
            bridges = paths if region.boundary == DIRICHLET else wrap(paths, region.L)
            if gibbs_configs is not None:
                cfgs = [gibbs_configs[b % len(gibbs_configs)] for b in range(n_mc)]
                e = added_loop_energies(bridges, cfgs, V, beta, region)
            else:
                e = intra_energies(bridges, V, beta, region)
            logw = np.where(np.isinf(e), -np.inf, logw - e)
        w = np.exp(logw)
        total += mass * w.mean()
        var_total += mass**2 * w.var(ddof=1) / n_mc
    err = float(np.sqrt(var_total))
    rec = {"x": x, "y": y, "estimate": float(total), "std_error": err, "j_max": jm}
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
    N = np.array([c.particle_number for c in configs], dtype=float)
    b = max(N.size // 16, 1)
    means = N[: b * (N.size // b)].reshape(-1, b).mean(axis=1)
    err = means.std(ddof=1) / np.sqrt(means.size) if means.size > 1 else np.inf
    return float(N.mean() / region.volume), float(err / region.volume)
