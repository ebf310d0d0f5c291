"""Decomposition of the critical state over condensate amplitude and phase.

The critical Gaussian state is a mixture of pure components labeled by
(r, theta): each component is the mu = 0 field (zero mode removed) shifted by
the constant offset sqrt(c r) cos(theta).  The reference mixing measure is

    dlambda_0(r, theta) = (1/4) exp(-r/4) dr (x) dtheta / (2 pi),

the unique exponential-in-r, uniform-in-theta choice for which integrating the
phase factor exp(i sqrt(c r) cos(theta) fhat(0)) reproduces the zero-mode
factor exp(-c fhat(0)^2) of the critical Weyl state; `mixing_decomposition_check`
verifies that identity by direct quadrature.

Switching on a perturbation reweights the mixture: the renormalized measure is
dlambda_0 times the normalized partition-function ratio of each component,
estimated per node by free sampling with common random numbers (components
share the covariance and differ only in the mean).  Because a node only adds
a constant to every sample, all node actions come from one set of power sums
of the shared samples (`shifted_action_batch`).  The shared samples are the
critical fields without their condensate offsets, streamed in the sampler's
blocks: each block's spectrum is mollified, inverted once and reduced to its
samples' power sums before the next, and the node actions contract the whole
batch's sums in one call.  The critical spectrum vanishes at spatial k = 0,
so the samples are centered with no mean subtracted.
"""

import numpy as np

from ..diagnostics import jackknife_error
from .fields import ThermalFieldParams, _noise_blocks
from .perturb import PolynomialPerturbation, _kernel_weights, _mollifier, _power_sums, _shifted_actions


def mixing_nodes(n_r: int, n_theta: int):
    """Quadrature nodes and weights for dlambda_0: Gauss-Laguerre in r/4, uniform theta."""
    s, w = np.polynomial.laguerre.laggauss(n_r)
    r = 4.0 * s
    theta = 2 * np.pi * (np.arange(n_theta) + 0.5) / n_theta
    wr = w  # integral e^{-s} g(4s) ds
    wt = np.full(n_theta, 1.0 / n_theta)
    weights = np.outer(wr, wt)
    weights = weights / weights.sum()  # normalize the discrete measure exactly
    return r, theta, weights


def mixing_decomposition_check(c: float, f0: float, n_quadrature: int = 96, n_theta: int = 256):
    """Integrate the (r, theta) phase factor against dlambda_0 and compare it with
    the zero-mode factor exp(-c f0^2); returns (lhs, rhs)."""
    if c <= 0:
        raise ValueError("c must be positive")
    r, theta, w = mixing_nodes(n_quadrature, n_theta)
    phase = np.exp(1j * np.sqrt(c * r)[:, None] * np.cos(theta)[None, :] * f0)
    lhs = complex((w * phase).sum())
    rhs = float(np.exp(-c * f0**2))
    return lhs.real, rhs


def renormalized_mixing(
    params: ThermalFieldParams,
    pert: PolynomialPerturbation,
    n_grid_r: int,
    n_grid_theta: int,
    n_samples: int,
    seed: int = 0,
) -> dict:
    """Reweighted mixing measure on the (r, theta) quadrature grid.

    Per node, the component partition function Z(r, theta) = E[exp(action)] is
    estimated over a shared batch of centered samples shifted by the node
    offset (common random numbers: the components differ only in their mean);
    the total Z is the dlambda_0 quadrature of the per-node values, so at
    lambda = 0 every weight ratio is exactly 1.  Accumulation runs in log
    space, so uniformly tiny weights cannot underflow to an all-zero table.

    Returns the normalized weight table, the variance of r under it, and a
    delete-one jackknife error for that variance.
    """
    from scipy import fft as sfft
    from scipy.special import logsumexp

    if not params.critical:
        raise ValueError("renormalized mixing requires critical parameters")
    if n_samples < 2:
        raise ValueError(f"n_samples = {n_samples}: a jackknife error needs at least 2 samples")
    grid = params.grid
    r, theta, w0 = mixing_nodes(n_grid_r, n_grid_theta)
    m = np.sqrt(params.c * r)[:, None] * np.cos(theta)[None, :]  # node offsets
    filt = _mollifier(grid, pert.mollifier_width) if pert.mollifier_width else 1.0
    # the critical spectrum vanishes at spatial k = 0, so the fields without
    # their condensate offsets are centered: each node adds its own offset
    kweights = _kernel_weights(grid, pert)
    _, _, blocks = _noise_blocks(params, n_samples, seed)
    sums = []
    for _, spec in blocks:
        spec *= filt
        centered = sfft.irfftn(spec, s=(grid.n_tau,) + grid.spatial_shape, axes=tuple(range(1, grid.d + 2)))
        sums.append(_power_sums(centered, grid, pert, kweights))
    log_w_samples = _shifted_actions(grid, pert, m.ravel(), sums).reshape(m.shape + (n_samples,))
    log_znode = logsumexp(log_w_samples, axis=-1) - np.log(n_samples)
    log_z = logsumexp(np.log(w0) + log_znode)
    weights = w0 * np.exp(log_znode - log_z)
    weights = weights / weights.sum()

    def var_r(wt):
        """Variance of r under the table wt[i, j, ...] (trailing axes are a batch)."""
        rr = r.reshape((-1,) + (1,) * (wt.ndim - 1))
        return (wt * rr**2).sum(axis=(0, 1)) - (wt * rr).sum(axis=(0, 1)) ** 2

    v_full = var_r(weights)
    # delete-one jackknife over the shared samples: table s leaves sample s out
    w_lin = np.exp(log_w_samples - log_w_samples.max())
    z_loo = w0[..., None] * (w_lin.sum(axis=-1, keepdims=True) - w_lin)
    jk_err = jackknife_error(var_r(z_loo / z_loo.sum(axis=(0, 1))))
    return {
        "r": r,
        "theta": theta,
        "base_weights": w0,
        "weights": weights,
        "weight_ratio": weights / w0,
        "var_r": float(v_full),
        "var_r_jackknife_err": jk_err,
        "n_samples": n_samples,
    }


def mixing_convergence_diagnostic(
    params_list,
    pert: PolynomialPerturbation,
    n_grid_r: int = 8,
    n_grid_theta: int = 8,
    n_samples: int = 2000,
    seed: int = 0,
) -> dict:
    """Total-variation distance between renormalized weight tables across volumes.

    Shrinking increments indicate the reweighted mixture converging along the
    volume family (the small-coupling cluster-expansion regime)."""
    tables = [
        renormalized_mixing(p, pert, n_grid_r, n_grid_theta, n_samples, seed + i)["weights"]
        for i, p in enumerate(params_list)
    ]
    tv = [0.5 * np.abs(a - b).sum() for a, b in zip(tables, tables[1:])]
    return {"tv_increments": tv, "converging": all(b <= a + 1e-3 for a, b in zip(tv, tv[1:]))}
