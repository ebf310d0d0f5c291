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
checked through genuinely independent routes.
"""

from dataclasses import dataclass
from math import pi

import numpy as np

PERIODIC = "periodic"
DIRICHLET = "dirichlet"


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
    """Absorbing-wall kernel on (0, L): alternating image sum; zero at the walls."""
    n = _image_range(L, t) + 1
    w = 2 * L * np.arange(-n, n + 1)
    x = np.asarray(x, dtype=float)[..., None]
    y = np.asarray(y, dtype=float)[..., None]
    direct = np.exp(-((x - y + w) ** 2) / (4 * t))
    mirror = np.exp(-((x + y + w) ** 2) / (4 * t))
    return (4 * pi * t) ** -0.5 * (direct - mirror).sum(axis=-1)


def kernel(x, y, region: BoxRegion, t: float):
    """Boundary-aware heat kernel p_t(x, y); x, y arrays of shape (..., d)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if region.boundary == PERIODIC:
        out = np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
        for k in range(region.d):
            out = out * periodic_kernel_1d(x[..., k] - y[..., k], region.L, t)
        return out
    out = np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
    for k in range(region.d):
        out = out * dirichlet_kernel_1d(x[..., k], y[..., k], region.L, t)
    return out


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


def dirichlet_mode_trace(region: BoxRegion, t: float, tol: float = 1e-18) -> float:
    """Independent spectral route: [sum_{n>=1} exp(-t (pi n / L)^2)]^d."""
    n_max = int(np.sqrt(max(-np.log(tol) / t, 1.0)) * region.L / pi) + 2
    n = np.arange(1, n_max + 1)
    return float(np.exp(-t * (pi * n / region.L) ** 2).sum() ** region.d)


def periodic_mode_trace(region: BoxRegion, t: float, tol: float = 1e-18) -> int:
    """Independent spectral route: [sum_{m in Z} exp(-t (2 pi m / L)^2)]^d."""
    m_max = int(np.sqrt(max(-np.log(tol) / t, 1.0)) * region.L / (2 * pi)) + 2
    m = np.arange(-m_max, m_max + 1)
    return float(np.exp(-t * (2 * pi * m / region.L) ** 2).sum() ** region.d)


def wrap(x, L: float):
    """Torus coordinates in [0, L)."""
    return np.mod(x, L)


def min_image(dx, L: float):
    """Minimum-image displacement in [-L/2, L/2] (an exact half-box
    displacement keeps either sign)."""
    dx = np.asarray(dx)
    return dx - L * np.rint(dx / L)
