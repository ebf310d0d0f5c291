"""Polynomial perturbations of the free loop-field measure.

The Gibbs weight of a sample is exp(action) with

    action = -lambda * integral_0^beta dtau integral_region dx P(phi_eps(tau, x))

in the local case, and the double-smeared form

    -lambda * integral dtau dx dy P(phi_eps(tau, x)) F(x - y) P(phi_eps(tau, y))

in the nonlocal one.  P must be bounded below (even degree, positive leading
coefficient), which bounds the weight above; the nonlocal kernel F must be
integrable and positive definite on the grid, and there P is additionally
required to be pointwise nonnegative.  phi_eps is the field smoothed by a
spectral Gaussian mollifier of width eps >= 2 grid spacings.

Every filter here (the mollifier, the periodized kernel F) is even in k and
acts on real fields, so the transforms are real-to-complex ones over half the
spectrum: the last spatial axis keeps n_x // 2 + 1 bins.  The nonlocal double
sum is priced by Parseval, sum_k |P^_k|^2 F^_k, with one forward transform of
P and no inverse.  `reweighted_state` takes the sampler's spectrum in its
blocks of samples: per block it multiplies the spectrum by the mollifier,
makes one inverse transform and prices the block's actions, so a sample is
never transformed back and forth to be smoothed and no batch-sized spectrum
or field is held; the kernel's Parseval weights are built once per call.

Perturbed expectations are importance-sampling estimates from the free
measure, guarded by an effective-sample-size floor so a collapsing weight
distribution cannot produce a silently wrong number.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

from ..diagnostics import jackknife_error
from .fields import FieldGrid, FieldSample, ThermalFieldParams, _noise_blocks, pair_field

ESS_FLOOR = 100.0


@dataclass(frozen=True)
class PolynomialPerturbation:
    """Interaction data: polynomial P (coeffs low-to-high), coupling, optional kernel.

    region is an optional axis-aligned sub-box ((lo, hi) per axis) in physical
    coordinates; None means the whole torus.
    """

    coeffs: tuple
    lam: float
    kernel: object = None  # radial callable F(r), nonlocal case only
    mollifier_width: float = 0.0
    region: tuple | None = None

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        deg = len(c) - 1
        while deg > 0 and c[deg] == 0.0:
            deg -= 1
        if deg == 0 or deg % 2 != 0 or c[deg] <= 0:
            raise ValueError("P must have even degree with positive leading coefficient")
        object.__setattr__(self, "coeffs", tuple(float(x) for x in c[: deg + 1]))
        if self.kernel is not None and self.min_value() < -1e-12:
            raise ValueError("nonlocal case requires P >= 0 on the real line")

    def poly(self) -> np.polynomial.Polynomial:
        return np.polynomial.Polynomial(self.coeffs)

    def min_value(self) -> float:
        """Global minimum of P over the real line (finite: even degree, positive lead)."""
        p = self.poly()
        crit = p.deriv().roots()
        crit = crit[np.abs(crit.imag) < 1e-10].real
        vals = p(crit) if crit.size else np.array([p(0.0)])
        return float(vals.min())


def _mollifier(grid: FieldGrid, eps: float) -> np.ndarray:
    """Half-spectrum factor exp(-eps^2 k^2 / 2) of the Gaussian mollifier of width eps.

    eps must resolve on the grid (>= 2 spacings).  The factor is 1 at k = 0, so
    constants (the condensate offset) pass through unchanged.
    """
    if eps < 2 * grid.a:
        raise ValueError("mollifier width must be at least 2 grid spacings")
    return np.exp(-0.5 * eps**2 * grid.ksq()[..., : grid.n_x // 2 + 1])


def mollify(values: np.ndarray, grid: FieldGrid, eps: float) -> np.ndarray:
    """Spatial Gaussian smoothing exp(-eps^2 k^2 / 2) applied spectrally.

    eps must resolve on the grid (>= 2 spacings); constants pass through
    unchanged, so the condensate offset is preserved.
    """
    from scipy import fft as sfft

    filt = _mollifier(grid, eps)
    axes = tuple(range(-grid.d, 0))
    spec = sfft.rfftn(values, axes=axes)
    spec *= filt
    return sfft.irfftn(spec, s=grid.spatial_shape, axes=axes)


def _region_mask(grid: FieldGrid, region) -> np.ndarray:
    if region is None:
        return np.ones(grid.spatial_shape, dtype=bool)
    axes = np.indices(grid.spatial_shape) * grid.a
    mask = np.ones(grid.spatial_shape, dtype=bool)
    for ax, (lo, hi) in enumerate(region):
        mask &= (axes[ax] >= lo) & (axes[ax] < hi)
    if not mask.any():
        raise ValueError("perturbation region contains no grid points")
    return mask


def _kernel_matrix(grid: FieldGrid, kernel) -> np.ndarray:
    """Periodized F on the grid (image sum over two periods); FFT-checked positive definite."""
    axes = np.indices(grid.spatial_shape) * grid.a
    Fv = np.zeros(grid.spatial_shape)
    shifts = np.arange(-2, 3) * grid.L
    for off in np.stack(np.meshgrid(*([shifts] * grid.d), indexing="ij"), axis=-1).reshape(-1, grid.d):
        r = np.sqrt(((axes + off.reshape((grid.d,) + (1,) * grid.d)) ** 2).sum(axis=0))
        Fv += np.asarray(kernel(r), dtype=float)
    spec = np.fft.fftn(Fv).real
    if spec.min() < -1e-8 * max(abs(spec).max(), 1e-300):
        raise ValueError("nonlocal kernel is not positive definite on this grid")
    return Fv


def _parseval_kernel(grid: FieldGrid, kernel) -> np.ndarray:
    """Real half-spectrum weights K with cell^2 sum_xy a(x) F(x - y) b(y) =
    Re sum_k conj(a^_k) K_k b^_k for real fields a, b and their rfftn a^, b^.

    Parseval gives sum_x a(x) (F * b)(x) = sum_k conj(a^_k) F^_k b^_k / n_cells
    over the full spectrum.  For real a, b, F the k and -k terms are conjugate,
    so the sum is the real part of the half-spectrum sum with weight 2 on every
    bin of the last axis but the DC bin and (for even n_x) the Nyquist bin.  In
    any form symmetric in a and b only Re F^ survives, so K is real.
    """
    from scipy import fft as sfft

    hermitian = np.full(grid.n_x // 2 + 1, 2.0)
    hermitian[0] = 1.0
    if grid.n_x % 2 == 0:
        hermitian[-1] = 1.0
    spec = sfft.rfftn(_kernel_matrix(grid, kernel)).real
    return spec * hermitian * (grid.cell**2 / grid.n_x**grid.d)


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    """P(x) for coefficients low-to-high, by Horner's rule on one output array.

    The products and sums are numpy's polyval ones, so the values are bitwise
    those of Polynomial(coeffs)(x); zero coefficients are skipped.
    """
    out = x * coeffs[-1]
    for i, c in enumerate(coeffs[-2::-1]):
        if i:
            out *= x
        if c:
            out += c
    return out


def perturbation_action_batch(values: np.ndarray, grid: FieldGrid, pert: PolynomialPerturbation) -> np.ndarray:
    """Gibbs log-weights for a batch of samples, shape (n, n_tau, *spatial) -> (n,).

    The samples are mollified at pert.mollifier_width first (not at all at
    width 0).  The nonlocal double sum is priced by Parseval on the spectrum
    of P restricted to the region.
    """
    if pert.lam == 0.0:
        lead = values.shape[: values.ndim - (grid.d + 1)]
        return np.zeros(lead) if lead else 0.0
    eps = pert.mollifier_width
    phi = values if eps == 0 else mollify(values, grid, eps)
    return _action(phi, grid, pert, _kernel_weights(grid, pert))


def _kernel_weights(grid: FieldGrid, pert: PolynomialPerturbation):
    """The Parseval weights of a nonlocal P's kernel, None for a local P."""
    return None if pert.kernel is None else _parseval_kernel(grid, pert.kernel)


def _action(phi: np.ndarray, grid: FieldGrid, pert: PolynomialPerturbation, kweights) -> np.ndarray:
    """Gibbs log-weights of mollified fields, with kweights from
    `_kernel_weights`; each sample's weight is reduced on its own."""
    P = _horner(pert.coeffs, phi)
    if pert.region is not None:
        P *= _region_mask(grid, pert.region)
    spatial = tuple(range(-grid.d, 0))
    if kweights is None:
        dens = P.sum(axis=spatial) * grid.cell
        return -pert.lam * grid.dtau * dens.sum(axis=-1)
    from scipy import fft as sfft

    spec = sfft.rfftn(P, axes=spatial)
    # |P^_k|^2 K_k summed over k, reading each (re, im) pair in place
    pairs = spec.view(np.float64).reshape(spec.shape[: -grid.d] + (-1, 2))
    quad = np.einsum("...kc,...kc,k->...", pairs, pairs, kweights.ravel())
    return -pert.lam * grid.dtau * quad.sum(axis=-1)


def shifted_action_batch(
    values: np.ndarray,
    grid: FieldGrid,
    pert: PolynomialPerturbation,
    shifts,
) -> np.ndarray:
    """perturbation_action_batch(values + m, grid, pert) at mollifier width 0,
    for already mollified values and every constant shift m: shape (len(shifts), n).

    Taylor expansion gives P(phi + m) = sum_p c_p(m) phi^p with
    c_p(m) = P^(p)(m) / p!, so the samples enter only through deg + 1 power
    fields phi^p restricted to the region: their sums S_p for a local P (each
    action is c(m) . S) or, for a kernel F, the Gram matrix
    G_pq = <phi^p, F * phi^q> (each action is c(m)^T G c(m)), which takes
    deg + 1 FFTs whatever the number of shifts.
    """
    shifts = np.asarray(shifts, dtype=float)
    if pert.lam == 0.0:
        return np.zeros((shifts.size, values.shape[0]))
    return _shifted_actions(grid, pert, shifts, [_power_sums(values, grid, pert, _kernel_weights(grid, pert))])


def _power_sums(values: np.ndarray, grid: FieldGrid, pert: PolynomialPerturbation, kweights) -> np.ndarray:
    """The power sums of a batch (n, n_tau, *spatial) that price every shift:
    S_p, shape (deg + 1, n), for a local P, or G_pq, shape (n, deg + 1,
    deg + 1), for a kernel with Parseval weights kweights.  Each sample's sums
    are its own, so batches may be priced in blocks and joined along n."""
    deg = pert.poly().degree()
    n = values.shape[0]
    powers = np.empty((deg + 1,) + values.shape)
    powers[0] = _region_mask(grid, pert.region)
    for p in range(1, deg + 1):
        np.multiply(powers[p - 1], values, out=powers[p])
    if kweights is None:
        return powers.reshape(deg + 1, n, -1).sum(axis=-1) * grid.cell
    from scipy import fft as sfft

    spec = sfft.rfftn(powers, axes=tuple(range(-grid.d, 0)))
    filtered = (spec * kweights).reshape(deg + 1, n, -1)
    spec = spec.reshape(deg + 1, n, -1).conj()
    return np.einsum("pnk,qnk->npq", spec, filtered).real


def _shifted_actions(grid: FieldGrid, pert: PolynomialPerturbation, shifts: np.ndarray, blocks) -> np.ndarray:
    """Every shift's actions from the `_power_sums` of a batch's blocks, in
    sample order: shape (len(shifts), n), one contraction of the joined sums
    with the Taylor coefficients c_p(m)."""
    poly = pert.poly()
    C = np.stack([poly.deriv(p)(shifts) / factorial(p) for p in range(poly.degree() + 1)], axis=-1)
    if pert.kernel is None:
        return -pert.lam * grid.dtau * (C @ np.concatenate(blocks, axis=1))
    return -pert.lam * grid.dtau * np.einsum("sp,npq,sq->sn", C, np.concatenate(blocks), C)


def perturbation_action(sample: FieldSample, pert: PolynomialPerturbation) -> float:
    """Log Gibbs weight of one sample; 0 at lambda = 0, <= 0 for P >= 0."""
    grid = sample.params.grid
    return float(perturbation_action_batch(sample.values[None], grid, pert)[0])


def _jackknife_ratio(num: np.ndarray, den: np.ndarray):
    """sum(num)/sum(den) and its delete-one jackknife error."""
    Sn, Sd = num.sum(), den.sum()
    return float(Sn / Sd), jackknife_error((Sn - num) / (Sd - den))


def reweighted_state(
    params: ThermalFieldParams,
    pert: PolynomialPerturbation,
    f,
    n_samples: int,
    seed: int = 0,
) -> dict:
    """Importance-sampling estimate of E[exp(i phi(f)) w] / E[w], w = exp(action).

    Returns a record with the (complex) estimate, jackknife errors for both
    quadratures, and the effective sample size; refuses to quote a number when
    ESS < 100.  At lambda = 0 the weights are identically 1 and the estimate
    is the plain free-measure characteristic functional.
    """
    from scipy import fft as sfft

    if n_samples < 2:
        raise ValueError(f"n_samples = {n_samples}: a jackknife error needs at least 2 samples")
    grid = params.grid
    filt = _mollifier(grid, pert.mollifier_width) if pert.mollifier_width else 1.0
    kweights = _kernel_weights(grid, pert)
    _, offset, blocks = _noise_blocks(params, n_samples, seed)
    # Per block, the inverse of sample_fields' transform in two steps: the
    # time pass, then the spatial passes.  The mollifier acts on the spatial
    # modes only, so it multiplies the spectrum between the two; the time
    # pass's tau = 0 row, inverted alone, is the slice that pair_field reads,
    # bitwise as sample_fields gives it (same passes, and the same single 1/N
    # factor, which pocketfft takes as 1/N in long double).
    inv_n = np.float64(1 / np.longdouble(grid.n_tau * grid.n_x**grid.d))
    scale = filt * inv_n
    lead = (-1,) + (1,) * grid.d
    phi0 = np.empty((n_samples,) + grid.spatial_shape)
    logw = np.empty(n_samples)
    for rows, spec in blocks:
        spec = sfft.ifft(spec, axis=1, norm="forward", overwrite_x=True)
        phi0[rows] = sfft.irfftn(spec[:, 0], s=grid.spatial_shape, axes=tuple(range(1, grid.d + 1)),
                                 norm="forward")
        phi0[rows] *= inv_n
        if offset is not None:
            phi0[rows] += offset[rows].reshape(lead)
        spec *= scale
        phi_eps = sfft.irfftn(spec, s=grid.spatial_shape, axes=tuple(range(2, grid.d + 2)), norm="forward")
        if offset is not None:
            phi_eps += offset[rows].reshape(lead + (1,))
        logw[rows] = _action(phi_eps, grid, pert, kweights)
    logw = logw - logw.max()  # overflow guard; ratios are shift invariant
    w = np.exp(logw)
    ess = float(w.sum() ** 2 / (w**2).sum())
    record = {"ess": ess, "n_samples": n_samples, "seed": seed}
    if ess < ESS_FLOOR:
        record.update(estimate=None, diagnostic=f"effective sample size {ess:.1f} < {ESS_FLOOR}")
        return record
    fv = pair_field(phi0[:, None], grid, np.asarray(f, dtype=float), tau_index=0)
    re, re_err = _jackknife_ratio(np.cos(fv) * w, w)
    im, im_err = _jackknife_ratio(np.sin(fv) * w, w)
    record.update(estimate=complex(re, im), re=re, re_err=re_err, im=im, im_err=im_err,
                  diagnostic=None)
    return record
