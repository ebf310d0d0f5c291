"""Monte Carlo error estimators, each implemented once: batch means, the
delete-one jackknife and the stratified sum over independent sectors."""

import numpy as np


def batch_means(x: np.ndarray, n_batches: int) -> tuple:
    """(error of the mean, tau_int) of the series x by batch means (Flyvbjerg &
    Petersen, J. Chem. Phys. 91 (1989) 461).

    The batch size is b = max(n // n_batches, 1) and every one of the n // b
    full batches is used, so a short series (n < n_batches) falls back to
    batches of one sample.  tau_int = b Var(batch means) / (2 Var(x)), 0 for
    a constant series.  With fewer than two batches the error is inf and
    tau_int is nan.
    """
    b = max(x.size // n_batches, 1)
    means = x[: b * (x.size // b)].reshape(-1, b).mean(axis=1)
    if means.size < 2:
        return np.inf, np.nan
    err = means.std(ddof=1) / np.sqrt(means.size)
    var_x = x.var(ddof=1)
    tau = 0.0 if var_x == 0 else max(b * means.var(ddof=1) / var_x / 2, 0.0)
    return float(err), float(tau)


def jackknife_error(loo: np.ndarray) -> float:
    """Delete-one jackknife error from the n leave-one-out estimates loo."""
    n = loo.size
    return float(np.sqrt((n - 1) / n * ((loo - loo.mean()) ** 2).sum()))


def stratified_mean(sectors) -> tuple:
    """(sum_j w_j mean(x_j), (sum_j w_j^2 Var(x_j) / n_j)^(1/2)) over the
    (weight w_j, samples x_j) pairs of independent sectors, (0, 0) for none.
    A complex sector's Var is Var(Re) + Var(Im)."""
    total, var = 0.0, 0.0
    for w, x in sectors:
        total += w * x.mean()
        spread = x.real.var(ddof=1) + x.imag.var(ddof=1) if np.iscomplexobj(x) else x.var(ddof=1)
        var += w**2 * spread / x.size
    return total, np.sqrt(var)
