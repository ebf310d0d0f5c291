"""Boxes, heat kernels, and diagonal bridge masses for the loop gas.

Units hbar = 2m = 1: the free heat kernel is p_t(x, y) = (4 pi t)^(-d/2)
exp(-|x-y|^2 / 4t) and a Brownian increment over time t has variance 2t per
coordinate.  Two boundary conditions are implemented, each with closed-form
masses:

  periodic:   p^per_t(x, y) = sum over winding images; the diagonal is
              x-independent and integrates to |box| (4 pi t)^(-d/2) Theta(t)^d
              with Theta the one-dimensional image sum.
  dirichlet:  absorbing walls at the faces of [0, L]^d; the kernel is the
              alternating image sum and the diagonal mass integrates to
              prod_dims [ L (4 pi t)^(-1/2) Theta - 1/2 ].

The Dirichlet mass also equals the sine-mode trace sum_{n>=1} exp(-t (pi n/L)^2)
per dimension (Poisson summation); both forms are exposed so identities can be
checked through genuinely independent routes.  The mode traces read the
axis modes from spectral.box_spectrum, the one list of a box's modes.

The box owns what its boundary does to a bridge, through three functions
of the region in the idiom of kernel(x, y, region, t): wrap_knots (np.mod,
or the knots themselves), winding_images (draw_images, or zeros and no draw)
and wall_survival_log (segment_survival_log, or exactly 0.0).  A caller
written once for both boxes thus keeps the streams and bits of one written
for each.  Every periodic bridge ends at a kernel-weighted winding image of
its end point (loops.box_bridges draws every bridge in a box), and
bridge_kernel is the normaliser of that bridge law.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import pi

import numpy as np

from ..spectral import DIRICHLET, PERIODIC, box_spectrum

_MODE_TOL = 1e-18  # the mode sums keep every box_spectrum mode with exp(-t lam) >= _MODE_TOL


@dataclass(frozen=True)
class BoxRegion:
    """Simulation box: dimension, side, boundary condition, path slices per beta."""

    d: int
    L: float
    boundary: str = PERIODIC
    n_slices: int = 16

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("L must be positive")
        if self.n_slices < 2:
            raise ValueError("n_slices must be >= 2")
        if self.boundary not in (PERIODIC, DIRICHLET):
            raise ValueError(f"unknown boundary condition {self.boundary!r}")
        if self.d < 1:
            raise ValueError("d must be >= 1")

    @property
    def volume(self) -> float:
        return self.L**self.d


def free_kernel(dist2, t: float, d: int):
    """(4 pi t)^(-d/2) exp(-dist2 / 4t)."""
    return (4 * pi * t) ** (-d / 2) * np.exp(-np.asarray(dist2) / (4 * t))


def _image_range(L: float, t: float, tol: float = 1e-18) -> int:
    """Largest |n| with exp(-(nL)^2 / 4t) above tol."""
    return int(np.sqrt(max(-4 * t * np.log(tol), 0.0)) / L) + 1


def theta_image_sum(L: float, t: float) -> float:
    """One-dimensional winding factor sum_n exp(-(nL)^2 / 4t)."""
    n = _image_range(L, t)
    w = np.arange(-n, n + 1)
    return float(np.exp(-((w * L) ** 2) / (4 * t)).sum())


def periodic_kernel_1d(dx, L: float, t: float):
    """Image-summed periodic heat kernel in one dimension."""
    n = _image_range(L, t) + 1
    w = np.arange(-n, n + 1) * L
    dx = np.asarray(dx, dtype=float)
    return ((4 * pi * t) ** -0.5 * np.exp(-((dx[..., None] + w) ** 2) / (4 * t))).sum(axis=-1)


def dirichlet_kernel_1d(x, y, L: float, t: float):
    """Absorbing-wall kernel on (0, L), zero at the walls: the alternating image
    sum; for t >= L^2, where its two image sums cancel, the sine-mode sum
    (2/L) sum_n sin(k_n x) sin(k_n y) exp(-t k_n^2) over box_spectrum's modes
    k_n = pi n / L (n = 1, 2 at least: the rest sum under 1e-33 of n = 1)."""
    x = np.asarray(x, dtype=float)[..., None]
    y = np.asarray(y, dtype=float)[..., None]
    if t >= L**2:
        k = np.sqrt(box_spectrum(1, L, DIRICHLET, t, _MODE_TOL).eigenvalues)
        return (2 / L) * (np.sin(k * x) * np.sin(k * y) * np.exp(-t * k**2)).sum(axis=-1)
    n = _image_range(L, t) + 1
    w = 2 * L * np.arange(-n, n + 1)
    direct = np.exp(-((x - y + w) ** 2) / (4 * t))
    mirror = np.exp(-((x + y + w) ** 2) / (4 * t))
    return (4 * pi * t) ** -0.5 * (direct - mirror).sum(axis=-1)


def kernel(x, y, region: BoxRegion, t: float):
    """Boundary-aware heat kernel p_t(x, y); x, y arrays of shape (..., d).
    The one-dimensional factors of all coordinates come from one call and
    multiply in coordinate order."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if region.boundary == PERIODIC:
        return periodic_kernel_1d(x - y, region.L, t).prod(axis=-1)
    return dirichlet_kernel_1d(x, y, region.L, t).prod(axis=-1)


def diagonal_mass(region: BoxRegion, t: float) -> float:
    """Total diagonal bridge mass integral_box p_t(x, x) dx, by image sums.

    The Dirichlet image form is a difference of two terms that both tend to
    1/2 as t grows (its value is about exp(-pi^2 t / L^2)), so for t >= L^2
    the mass is the sine-mode trace, whose terms are all positive.
    """
    if region.boundary == PERIODIC:
        one_dim = region.L * (4 * pi * t) ** -0.5 * theta_image_sum(region.L, t)
    elif t >= region.L**2:
        return dirichlet_mode_trace(region, t)
    else:
        # integral of the alternating image sum: L p_free Theta(images at 2L... ) - 1/2
        n = _image_range(region.L, t) + 1
        w = np.arange(-n, n + 1)
        theta = float(np.exp(-((w * region.L) ** 2) / t).sum())
        one_dim = region.L * (4 * pi * t) ** -0.5 * theta - 0.5
    return float(one_dim**region.d)


def bridge_kernel(x, y, region: BoxRegion, t: float) -> np.ndarray:
    """Normaliser (n,) of loops.box_bridges' law over time t from x to y, (n,
    d) each: the periodic kernel, whose images it samples, or in a Dirichlet
    box the free kernel (its bridges ignore the walls: wall_survival_log)."""
    if region.boundary == PERIODIC:
        return kernel(x, y, region, t)
    return free_kernel(((np.asarray(x) - np.asarray(y)) ** 2).sum(axis=-1), t, region.d)


def dirichlet_mode_trace(region: BoxRegion, t: float) -> float:
    """Independent spectral route: [sum_{n>=1} exp(-t (pi n / L)^2)]^d."""
    return float(np.exp(-t * box_spectrum(1, region.L, DIRICHLET, t, _MODE_TOL).eigenvalues).sum() ** region.d)


def periodic_mode_trace(region: BoxRegion, t: float) -> float:
    """Independent spectral route: [sum_{m in Z} exp(-t (2 pi m / L)^2)]^d."""
    return float(np.exp(-t * box_spectrum(1, region.L, PERIODIC, t, _MODE_TOL).eigenvalues).sum() ** region.d)


def wrap(x, L: float):
    """Torus coordinates in [0, L)."""
    return np.mod(x, L)


def min_image(dx, L: float):
    """Minimum-image displacement dx - L rint(dx / L), in [-L/2, L/2] (an
    exact half-box displacement keeps either sign), built in one new array;
    dx is left as it is."""
    dx = np.asarray(dx)
    out = np.asarray(dx / L)
    np.rint(out, out=out)
    out *= L
    return np.subtract(dx, out, out=out)


def wrap_knots(knots, region: BoxRegion):
    """Knots (..., d) in the box: wrap(knots, L) in a periodic box; in a
    Dirichlet box the knots themselves, which stay inside it."""
    return wrap(knots, region.L) if region.boundary == PERIODIC else knots


def winding_images(dx: np.ndarray, count: int, region: BoxRegion, t: float, rng) -> np.ndarray:
    """Winding images (count, d) of bridges over time t whose end lies dx (d,)
    from their start: draw_images in a periodic box; zeros in a Dirichlet
    box, with no draw from rng."""
    if region.boundary == PERIODIC:
        return draw_images(dx, count, t, region.L, rng)
    return np.zeros((count, region.d), dtype=int)


def wall_survival_log(path: np.ndarray, region: BoxRegion, dtau: float) -> np.ndarray:
    """Log wall survival (...,) of paths (..., K + 1, d) with knot spacing
    dtau: segment_survival_log in a Dirichlet box; exactly 0.0 in a periodic
    box, which has no wall."""
    if region.boundary == PERIODIC:
        return np.zeros(np.shape(path)[:-2])
    return segment_survival_log(path, region.L, dtau)


def draw_images(dx: np.ndarray, count: int, t: float, L: float, rng) -> np.ndarray:
    """Winding images w (count, d) of periodic bridges over time t whose end
    lies dx (d,) from their start, up to the image w L (dx = 0 for closed
    loops): each coordinate k independently, with the heat-kernel weights
    exp(-(dx_k + w L)^2 / (4 t)).

    One rng.random((count, d)) draw is inverted through each coordinate's
    cumulative weights, as rng.choice(w, size, p=weights) inverts its draw.
    Closed loops (dx = 0) share one cached table of weights per (t, L, d).
    """
    n = _image_range(L, t, tol=1e-16)
    cdf = _image_cdf(dx, t, L, n) if np.count_nonzero(dx) else _closed_image_cdf(t, L, n, dx.size)
    u = rng.random((count, dx.size))
    images = np.empty((count, dx.size), dtype=int)
    for k in range(dx.size):
        images[:, k] = cdf[k].searchsorted(u[:, k], side="right")
    images -= n
    return images


def _image_cdf(dx: np.ndarray, t: float, L: float, n: int) -> np.ndarray:
    """(d, 2n + 1) cumulative heat-kernel weights of the images -n .. n of
    each coordinate of dx (d,), normalised as rng.choice normalises its p."""
    p = np.exp(-((dx[:, None] + np.arange(-n, n + 1) * L) ** 2) / (4 * t))
    cdf = (p / p.sum(axis=1, keepdims=True)).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return cdf


@lru_cache(maxsize=64)
def _closed_image_cdf(t: float, L: float, n: int, d: int) -> np.ndarray:
    cdf = _image_cdf(np.zeros(d), t, L, n)
    cdf.flags.writeable = False
    return cdf


def segment_survival_log(path: np.ndarray, L: float, dtau: float) -> np.ndarray:
    """Log-probability that each discrete segment's continuum excursion stays in (0, L).

    Leading two-image bound per coordinate: the chance a bridge from a to b
    over dtau (variance 2 dtau) hits 0 is exp(-a b / dtau), similarly at L.
    Knots outside the box give log 0 = -inf.  Shape: path (..., K+1, d) ->
    (...,) summed log survival.
    """
    a = path[..., :-1, :]
    b = path[..., 1:, :]
    inside = (path > 0).all(axis=(-1, -2)) & (path < L).all(axis=(-1, -2))
    with np.errstate(divide="ignore", invalid="ignore"):
        hit_low = np.exp(-a * b / dtau)
        hit_high = np.exp(-(L - a) * (L - b) / dtau)
        p = np.clip(1.0 - hit_low - hit_high, 1e-300, 1.0)
        logp = np.log(p).sum(axis=(-1, -2))
    return np.where(inside, logp, -np.inf)
