"""Gaussian loop fields on the time circle times a periodic spatial grid.

A field sample phi(tau, x) lives on n_tau slices of the circle of
circumference beta and an n_x^d periodic grid of side L.  Each spatial
momentum mode carries an independent stationary loop in imaginary time whose
two-point function is

    K_eps(tau) = (exp(-tau eps) + exp(-(beta - tau) eps)) / (1 - exp(-beta eps)),

the thermal kernel of a mode of energy eps = k^2 + mu.  In the critical state
(mu = 0) the spatial zero mode is removed from the sum and replaced by a
tau-independent Gaussian condensate offset of variance c.

Sampling is exact on the discrete lattice: the space-time covariance is
diagonal in the full discrete Fourier basis, so filtering white noise with the
square root of that spectrum reproduces the covariance with no time-stepping
bias.  The empirical covariance of the sampler therefore estimates the same
kernel that `covariance` evaluates analytically.  The spectrum is even in the
space-time momentum, so the filtered noise is real and the filter is applied
by real-to-complex transforms over half the spectrum (the last axis keeps
n_x // 2 + 1 bins).  A call draws all its noise at once and then filters and
inverts it in blocks of samples sized to stay in cache (`_noise_blocks`).
`sample_fields` and the perturbation and mixing estimators all consume that
block stream: the estimators filter each block's spectrum further, invert it
once and reduce it to per-sample numbers before the next block, on the same
random stream as `sample_fields`.

The Weyl-state value exp(-1/4 <f coth(beta h/2) f>) and the measure's own
characteristic functional exp(-1/2 Cov(f,f)) are both exposed; they differ by
the documented factor of two in the exponent and are not forced to coincide.
"""

from dataclasses import dataclass

import numpy as np

from ..rng import generator


@dataclass(frozen=True)
class FieldGrid:
    """Discretization: time circle (beta, n_tau) and spatial torus (d, L, n_x)."""

    beta: float
    n_tau: int
    d: int
    L: float
    n_x: int

    def __post_init__(self):
        if self.beta <= 0 or self.L <= 0:
            raise ValueError("beta and L must be positive")
        if self.n_tau < 2 or self.n_x < 2:
            raise ValueError("need n_tau >= 2 and n_x >= 2")
        if self.d < 1:
            raise ValueError("d must be >= 1")

    @property
    def a(self) -> float:
        return self.L / self.n_x

    @property
    def dtau(self) -> float:
        return self.beta / self.n_tau

    @property
    def cell(self) -> float:
        return self.a**self.d

    @property
    def volume(self) -> float:
        return self.L**self.d

    @property
    def spatial_shape(self) -> tuple:
        return (self.n_x,) * self.d

    def taus(self) -> np.ndarray:
        return self.dtau * np.arange(self.n_tau)

    def mode_energies(self, mu: float) -> np.ndarray:
        """eps(k) = |2 pi m / L|^2 + mu on the d-dimensional mode grid."""
        m = np.fft.fftfreq(self.n_x, d=1.0 / self.n_x)
        grids = np.meshgrid(*([m] * self.d), indexing="ij")
        return (2 * np.pi / self.L) ** 2 * sum(g**2 for g in grids) + mu

    def ksq(self) -> np.ndarray:
        return self.mode_energies(0.0)


@dataclass(frozen=True)
class ThermalFieldParams:
    """Covariance specification: noncritical (mu > 0) or critical (mu = 0, c > 0)."""

    grid: FieldGrid
    mu: float = 0.0
    critical: bool = False
    c: float = 0.0

    def __post_init__(self):
        if self.critical:
            if self.mu != 0.0:
                raise ValueError("critical covariance requires mu = 0")
            if not self.c > 0:
                raise ValueError("critical covariance requires condensate weight c > 0")
        else:
            if not self.mu > 0:
                raise ValueError("noncritical covariance requires mu > 0 (zero-mode pole)")


@dataclass(frozen=True)
class FieldSample:
    """One field realization, values indexed (tau slice, spatial point)."""

    values: np.ndarray
    params: ThermalFieldParams

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


def loop_kernel(eps, beta: float, tau) -> np.ndarray:
    """Thermal mode kernel K_eps(tau); symmetric about beta/2, K(0) = coth(beta eps / 2)."""
    e = np.asarray(eps, dtype=float)
    t = np.asarray(tau, dtype=float)
    if np.any(e <= 0):
        raise ZeroDivisionError("mode at zero energy: kernel pole (handle the zero mode separately)")
    return (np.exp(-t * e) + np.exp(-(beta - t) * e)) / (-np.expm1(-beta * e))


def _mode_amplitudes(params: ThermalFieldParams, f: np.ndarray) -> np.ndarray:
    g = params.grid
    fa = np.asarray(f, dtype=float)
    if fa.shape != g.spatial_shape:
        raise ValueError(f"test vector must have shape {g.spatial_shape}")
    return np.fft.fftn(fa)


def covariance(params: ThermalFieldParams, f, g, tau: float) -> float:
    """<f | (e^(-tau h) + e^(-(beta-tau) h)) (1 - e^(-beta h))^(-1) | g> by mode sum.

    Critical case: the zero mode drops out of the sum and contributes
    c * fhat(0) * ghat(0) instead, with fhat the continuum-normalized transform.
    """
    gr = params.grid
    if not (0 <= tau <= gr.beta):
        raise ValueError("tau must lie in [0, beta]")
    F = _mode_amplitudes(params, f)
    G = _mode_amplitudes(params, g)
    eps = gr.mode_energies(params.mu)
    prod = (np.conj(F) * G).real
    if params.critical:
        zero = (0,) * gr.d
        mask = np.ones_like(eps, dtype=bool)
        mask[zero] = False
        K = np.zeros_like(eps)
        K[mask] = loop_kernel(eps[mask], gr.beta, tau)
        cov = (gr.cell**2 / gr.volume) * float((K * prod).sum())
        cov += params.c * (gr.cell * F[zero].real) * (gr.cell * G[zero].real)
        return cov
    K = loop_kernel(eps, gr.beta, tau)
    return (gr.cell**2 / gr.volume) * float((K * prod).sum())


def _spectral_density(params: ThermalFieldParams) -> np.ndarray:
    """Full space-time DFT spectrum S[n, m] so that ifftn(fftn(noise) sqrt(S)) has
    the target covariance on the lattice."""
    g = params.grid
    eps = params.grid.mode_energies(params.mu)
    flat = eps.ravel()
    uniq, inv = np.unique(flat, return_inverse=True)
    taus = g.taus()
    if params.critical:
        # zero spatial mode replaced by the condensate offset
        ktab = np.zeros((uniq.size, g.n_tau))
        nz = uniq > 0
        ktab[nz] = loop_kernel(uniq[nz, None], g.beta, taus[None, :])
    else:
        ktab = loop_kernel(uniq[:, None], g.beta, taus[None, :])
    lam = np.fft.fft(ktab, axis=1).real
    lam = np.clip(lam, 0.0, None)  # circulant eigenvalues; clip roundoff negatives
    S = lam[inv].reshape(eps.shape + (g.n_tau,))
    S = np.moveaxis(S, -1, 0)  # (n_tau, *spatial)
    return (g.n_x**g.d / g.volume) * S


# Noise is filtered in blocks of at most _BLOCK_FLOATS floats (at least one
# sample), so a block's spectrum stays in cache: 2^16 floats are 32 samples of
# an 8 x 16 x 16 grid.
_BLOCK_FLOATS = 1 << 16


def _noise_blocks(params: ThermalFieldParams, n: int, seed: int):
    """A call's white noise, its condensate offsets and its filtered spectrum
    in blocks of samples: (noise, offset, blocks).

    noise has shape (n, n_tau, *spatial) and is drawn first, in one call; the
    offsets (shape (n,), None when not critical) are drawn second, so every
    consumer sees the samples of `sample_fields`.  blocks yields (rows, spec)
    in sample order, spec being the half spectrum (n_x // 2 + 1 bins on the
    last axis) of noise[rows] filtered by the square root of the covariance
    spectrum; noise[rows] is read when its block is reached, so a consumer may
    overwrite the rows of the blocks it has taken.  Every transform acts on
    one sample at a time, so a sample's spectrum is bitwise the same in any
    block.
    """
    from scipy import fft as sfft

    g = params.grid
    rng = generator(seed)
    noise = rng.standard_normal((n, g.n_tau) + g.spatial_shape)
    offset = np.sqrt(params.c) * rng.standard_normal(n) if params.critical else None
    amp = np.sqrt(_spectral_density(params)[..., : g.n_x // 2 + 1])
    step = max(1, _BLOCK_FLOATS // (g.n_tau * g.n_x**g.d))
    axes = tuple(range(1, g.d + 2))

    def blocks():
        for start in range(0, n, step):
            rows = slice(start, start + step)
            spec = sfft.rfftn(noise[rows], axes=axes)
            spec *= amp
            yield rows, spec

    return noise, offset, blocks()


def sample_fields(params: ThermalFieldParams, n: int, seed: int) -> np.ndarray:
    """n independent field realizations, shape (n, n_tau, *spatial); deterministic in seed.

    Each block of samples is inverted back into its own rows of the noise, so
    the output is the only array of the batch's size.
    """
    from scipy import fft as sfft

    g = params.grid
    noise, offset, blocks = _noise_blocks(params, n, seed)
    lead = (-1,) + (1,) * (g.d + 1)
    for rows, spec in blocks:
        noise[rows] = sfft.irfftn(spec, s=(g.n_tau,) + g.spatial_shape, axes=tuple(range(1, g.d + 2)))
        if offset is not None:
            noise[rows] += offset[rows].reshape(lead)
    return noise


def sample_field(params: ThermalFieldParams, rng_seed: int) -> FieldSample:
    """One field draw; seed reuse replays the identical sample."""
    return FieldSample(values=sample_fields(params, 1, rng_seed)[0], params=params)


def pair_field(values: np.ndarray, grid: FieldGrid, f, tau_index: int = 0) -> np.ndarray:
    """phi(f (x) delta_tau) = cell * sum_x f(x) phi(tau, x); vectorized over leading axes."""
    fa = np.asarray(f, dtype=float)
    if fa.shape != grid.spatial_shape:
        raise ValueError(f"test vector must have shape {grid.spatial_shape}")
    slice_vals = values[(..., tau_index) + (slice(None),) * grid.d]  # a view, not a copy
    return grid.cell * (slice_vals.reshape(slice_vals.shape[: -grid.d] + (-1,)) @ fa.ravel())


def weyl_expectation(params: ThermalFieldParams, f) -> float:
    """State value exp(-1/4 <f | coth(beta h/2) | f>), times exp(-c fhat(0)^2) when critical."""
    g = params.grid
    F = _mode_amplitudes(params, f)
    eps = g.mode_energies(params.mu)
    amp2 = (np.conj(F) * F).real
    if params.critical:
        zero = (0,) * g.d
        mask = np.ones_like(eps, dtype=bool)
        mask[zero] = False
        quad = (g.cell**2 / g.volume) * float(
            (loop_kernel(eps[mask], g.beta, 0.0) * amp2[mask]).sum()
        )
        fhat0 = g.cell * F[zero].real
        return float(np.exp(-0.25 * quad - params.c * fhat0**2))
    quad = (g.cell**2 / g.volume) * float((loop_kernel(eps, g.beta, 0.0) * amp2).sum())
    return float(np.exp(-0.25 * quad))


def char_functional(params: ThermalFieldParams, f) -> float:
    """Characteristic functional of the field measure itself: exp(-1/2 Cov(f, f; 0)).

    This is what Monte Carlo averages of exp(i phi(f)) converge to; it carries
    the full covariance in the exponent, twice the Weyl-state exponent.
    """
    return float(np.exp(-0.5 * covariance(params, f, f, 0.0)))


def ergodicity_diagnostic(
    params: ThermalFieldParams,
    n_samples: int,
    volumes,
    seed: int = 0,
    min_samples: int = 64,
) -> dict:
    """Variance of the space-and-time averaged field across growing volumes.

    Ergodic: the variance decays like 1/|box| (log-log slope within 0.2 of -1).
    Non-ergodic: it plateaus above c/2, the condensate-offset signature.
    """
    if len(volumes) < 2:
        raise ValueError("need at least two volumes")
    g0 = params.grid
    rows = []
    for i, L in enumerate(volumes):
        n_x = max(2, int(round(L / g0.a)))
        grid = FieldGrid(beta=g0.beta, n_tau=g0.n_tau, d=g0.d, L=float(L), n_x=n_x)
        p = ThermalFieldParams(grid=grid, mu=params.mu, critical=params.critical, c=params.c)
        phi = sample_fields(p, n_samples, seed + i)
        avg = phi.mean(axis=tuple(range(1, phi.ndim)))
        var = float(avg.var(ddof=1))
        rows.append({"L": float(L), "volume": grid.volume, "var": var,
                     "var_err": var * np.sqrt(2.0 / (n_samples - 1))})
    status = "inconclusive"
    slope = slope_err = np.nan
    if n_samples >= min_samples:
        lv = np.log([r["volume"] for r in rows])
        lvar = np.log([max(r["var"], 1e-300) for r in rows])
        slope = float(np.polyfit(lv, lvar, 1)[0])
        # least-squares slope error: each ln var has the relative error sqrt(2 / (n - 1))
        slope_err = float(np.sqrt(2.0 / (n_samples - 1) / ((lv - lv.mean()) ** 2).sum()))
        plateau = rows[-1]["var"]
        if plateau < 1e-10:
            # the flat average retains only the condensate offset; a collapsed
            # variance (c -> 0 limit) is ergodic volume averaging
            status = "ergodic"
        elif params.critical and params.c > 0 and plateau > params.c / 2 and slope > -0.5:
            status = "non-ergodic"
        elif -1.2 <= slope <= -0.8:
            status = "ergodic"
    return {"rows": rows, "slope": slope, "slope_err": slope_err, "status": status,
            "plateau": rows[-1]["var"], "threshold": params.c / 2 if params.critical else None}
