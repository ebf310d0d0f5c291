"""Integrated autocorrelation time with Madras-Sokal automatic windowing.

tau_int(W) = 1/2 + sum_{t=1}^{W} rho(t), with the window W the smallest lag
such that W >= c * tau_int(W) (Madras & Sokal, J. Stat. Phys. 50 (1988) 109;
Sokal, Monte Carlo Methods in Statistical Mechanics, 1996).  The
autocorrelation is pooled over independent chains: each chain's
autocovariance is taken about its own mean, and the lag sums are added across
chains before normalising.  ESS = total samples / (2 tau_int).
"""

import numpy as np


def _autocov_sums(x: np.ndarray, max_lag: int) -> np.ndarray:
    """sum_i (x_i - m)(x_{i+t} - m) for t = 0..max_lag, by zero-padded FFT."""
    y = x - x.mean()
    n = y.size
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(y, size)
    acov = np.fft.irfft(f * np.conj(f), size)[: max_lag + 1]
    return acov


def tau_int(chains, c: float = 5.0) -> float:
    """Pooled integrated autocorrelation time (in samples) of one observable."""
    chains = [np.asarray(ch, dtype=float) for ch in chains if len(ch) > 1]
    if not chains:
        raise ValueError("need at least one chain with two samples")
    max_lag = min(ch.size for ch in chains) - 1
    sums = np.zeros(max_lag + 1)
    pairs = np.zeros(max_lag + 1)
    for ch in chains:
        sums += _autocov_sums(ch, max_lag)
        pairs += ch.size - np.arange(max_lag + 1)
    gamma = sums / pairs
    if gamma[0] <= 0:
        return 0.5  # a constant trace: every sample is independent of the mean
    rho = gamma / gamma[0]
    tau = 0.5
    for w in range(1, max_lag + 1):
        tau += rho[w]
        if w >= c * tau:
            break
    return float(max(tau, 0.5))


def effective_sample_size(chains, c: float = 5.0) -> tuple:
    """(ESS, tau_int) pooled over the chains."""
    total = sum(len(ch) for ch in chains)
    tau = tau_int(chains, c)
    return total / (2.0 * tau), tau
