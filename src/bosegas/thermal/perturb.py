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
spectrum: the last spatial axis keeps n_x // 2 + 1 bins.

Perturbed expectations are importance-sampling estimates from the free
measure, guarded by an effective-sample-size floor so a collapsing weight
distribution cannot produce a silently wrong number.
"""

from dataclasses import dataclass, field
from math import factorial

import numpy as np
from scipy import fft as sfft

from ..diagnostics import jackknife_error
from .fields import FieldGrid, FieldSample, ThermalFieldParams, pair_field, sample_fields

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


def mollify(values: np.ndarray, grid: FieldGrid, eps: float) -> np.ndarray:
    """Spatial Gaussian smoothing exp(-eps^2 k^2 / 2) applied spectrally.

    eps must resolve on the grid (>= 2 spacings); constants pass through
    unchanged, so the condensate offset is preserved.
    """
    if eps < 2 * grid.a:
        raise ValueError("mollifier width must be at least 2 grid spacings")
    filt = np.exp(-0.5 * eps**2 * grid.ksq()[..., : grid.n_x // 2 + 1])
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


def perturbation_action_batch(
    values: np.ndarray,
    grid: FieldGrid,
    pert: PolynomialPerturbation,
    premollified: bool = False,
) -> np.ndarray:
    """Gibbs log-weights for a batch of samples, shape (n, n_tau, *spatial) -> (n,).

    premollified skips the smoothing step when the caller already applied it
    (the mollifier is linear and preserves constants, so shifted-mean batches
    can smooth once and add offsets afterwards).
    """
    if pert.lam == 0.0:
        lead = values.shape[: values.ndim - (grid.d + 1)]
        return np.zeros(lead) if lead else 0.0
    eps = pert.mollifier_width
    phi = values if (premollified or eps == 0) else mollify(values, grid, eps)
    P = pert.poly()(phi)
    mask = _region_mask(grid, pert.region)
    spatial = tuple(range(-grid.d, 0))
    if pert.kernel is None:
        dens = (P * mask).sum(axis=spatial) * grid.cell
        return -pert.lam * grid.dtau * dens.sum(axis=-1)
    Fm = _kernel_matrix(grid, pert.kernel)
    Pm = P * mask
    if pert.region is None:
        # periodic convolution via FFT: sum_xy P(x) F(x-y) P(y)
        spec = sfft.rfftn(Pm, axes=spatial)
        spec *= sfft.rfftn(Fm)
        conv = sfft.irfftn(spec, s=grid.spatial_shape, axes=spatial)
        quad = (Pm * conv).sum(axis=spatial) * grid.cell**2
    else:
        pts = np.argwhere(mask)
        diffs = (pts[:, None, :] - pts[None, :, :]) % grid.n_x
        flatF = Fm.reshape(-1)
        idx = np.ravel_multi_index(np.moveaxis(diffs, -1, 0), grid.spatial_shape)
        Fsub = flatF[idx]
        Pflat = Pm.reshape(Pm.shape[: -grid.d] + (-1,))[..., mask.ravel()]
        quad = np.einsum("...i,ij,...j->...", Pflat, Fsub, Pflat) * grid.cell**2
    return -pert.lam * grid.dtau * quad.sum(axis=-1)


def shifted_action_batch(
    values: np.ndarray,
    grid: FieldGrid,
    pert: PolynomialPerturbation,
    shifts,
) -> np.ndarray:
    """perturbation_action_batch(values + m, grid, pert, premollified=True) for
    every constant shift m: shape (len(shifts), n).

    Taylor expansion gives P(phi + m) = sum_p c_p(m) phi^p with
    c_p(m) = P^(p)(m) / p!, so the samples enter only through deg + 1 power
    fields phi^p restricted to the region: their sums S_p for a local P (each
    action is c(m) . S) or, for a kernel F, the Gram matrix
    G_pq = <phi^p, F * phi^q> (each action is c(m)^T G c(m)), which takes
    deg + 1 FFTs whatever the number of shifts.
    """
    shifts = np.asarray(shifts, dtype=float)
    n = values.shape[0]
    if pert.lam == 0.0:
        return np.zeros((shifts.size, n))
    poly = pert.poly()
    deg = poly.degree()
    C = np.stack([poly.deriv(p)(shifts) / factorial(p) for p in range(deg + 1)], axis=-1)
    mask = _region_mask(grid, pert.region)
    spatial = tuple(range(-grid.d, 0))
    powers = np.empty((deg + 1,) + values.shape)
    powers[0] = mask
    for p in range(1, deg + 1):
        np.multiply(powers[p - 1], values, out=powers[p])
    if pert.kernel is None:
        S = powers.reshape(deg + 1, n, -1).sum(axis=-1) * grid.cell  # (deg + 1, n)
        return -pert.lam * grid.dtau * (C @ S)
    # Parseval: sum_x a(x) (F * b)(x) = sum_k conj(a^_k) F^_k b^_k / n_cells.
    # For real a, b, F the k and -k terms are conjugate, so the sum is the real
    # part of the half-spectrum sum with weight 2 on every bin of the last axis
    # but the DC bin and (for even n_x) the Nyquist bin.
    hermitian = np.full(grid.n_x // 2 + 1, 2.0)
    hermitian[0] = 1.0
    if grid.n_x % 2 == 0:
        hermitian[-1] = 1.0
    weighted_kernel = sfft.rfftn(_kernel_matrix(grid, pert.kernel)) * hermitian
    spec = sfft.rfftn(powers, axes=spatial)
    filtered = (spec * weighted_kernel).reshape(deg + 1, n, -1)
    spec = spec.reshape(deg + 1, n, -1).conj()
    G = np.einsum("pnk,qnk->npq", spec, filtered).real * grid.cell**2 / mask.size
    return -pert.lam * grid.dtau * np.einsum("sp,npq,sq->sn", C, G, C)


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
    stratify: tuple | None = None,
) -> dict:
    """Importance-sampling estimate of E[exp(i phi(f)) w] / E[w], w = exp(action).

    Returns a record with the (complex) estimate, jackknife errors for both
    quadratures, and the effective sample size; refuses to quote a number when
    ESS < 100.  At lambda = 0 the weights are identically 1 and the estimate
    is the plain free-measure characteristic functional.

    For critical parameters, stratify = (n_r, n_theta) additionally emits the
    per-component partition-ratio weights of the condensate mixing measure.
    """
    grid = params.grid
    phi = sample_fields(params, n_samples, seed)
    logw = perturbation_action_batch(phi, grid, pert)
    logw = logw - logw.max()  # overflow guard; ratios are shift invariant
    w = np.exp(logw)
    ess = float(w.sum() ** 2 / (w**2).sum())
    record = {"ess": ess, "n_samples": n_samples, "seed": seed}
    if ess < ESS_FLOOR:
        record.update(estimate=None, diagnostic=f"effective sample size {ess:.1f} < {ESS_FLOOR}")
        return record
    fv = pair_field(phi, grid, np.asarray(f, dtype=float), tau_index=0)
    re, re_err = _jackknife_ratio(np.cos(fv) * w, w)
    im, im_err = _jackknife_ratio(np.sin(fv) * w, w)
    record.update(estimate=complex(re, im), re=re, re_err=re_err, im=im, im_err=im_err,
                  diagnostic=None)
    if stratify is not None and params.critical:
        from .mixing import PureStatePoint, renormalized_mixing

        n_r, n_theta = stratify
        mix = renormalized_mixing(params, pert, n_r, n_theta, n_samples, seed)
        record["component_weights"] = [
            (PureStatePoint(r=float(r), theta=float(t)), float(mix["weight_ratio"][i, j]))
            for i, r in enumerate(mix["r"])
            for j, t in enumerate(mix["theta"])
        ]
    return record
