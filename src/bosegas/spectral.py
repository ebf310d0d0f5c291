"""Exact thermodynamics of the noninteracting Bose gas.

Finite boxes carry the discrete Laplacian spectrum: (2 pi m / L)^2 per axis
for a periodic box, (pi n / L)^2 for a Dirichlet one.  This module is the only
code that lists a box's modes: the ideal gas, the loop gas's trace identity
and its mode traces all read it.  The infinite-volume limit is represented
through a density of states.  Units: hbar = 2m = 1, so the kinetic dispersion
is p^2 and the thermal wavelength scale is sqrt(4 pi beta).

Conventions.  The free-energy density is p = ln(Z)/|box| evaluated through the
mode product, so dp/dmu = -beta * density with the density defined as the
(nonnegative) Bose-Einstein occupation sum.  Derivative consistency is checked
as |dp/dmu| = beta * rho; at beta = 1 this is the plain -density relation.
"""

from dataclasses import dataclass, field
from math import gamma as gamma_fn
from math import pi

import numpy as np

from .errors import CondensationBoundaryError, DivergenceError, ResourceBudgetError, TruncationError

PERIODIC = "periodic"
DIRICHLET = "dirichlet"
MODE_BUDGET = 20_000_000  # most eigenvalues a spectrum may hold
J_SERIES_CAP = 100_000  # most terms continuum_density sums


@dataclass(frozen=True)
class TorusGeometry:
    """Periodic box: dimension, side length, and symmetric momentum cutoff."""

    d: int
    L: float
    mode_cutoff: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if not (self.L > 0 and np.isfinite(self.L)):
            raise ValueError("side length must be positive and finite")
        if self.mode_cutoff < 1:
            raise ValueError("mode_cutoff must be >= 1")


@dataclass(frozen=True)
class Spectrum:
    """Sorted one-particle eigenvalues with their gaps and the box volume."""

    eigenvalues: np.ndarray
    gaps: np.ndarray
    volume: float

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be nondecreasing")
        if self.gaps[0] != 0 or np.any(np.asarray(self.gaps) < 0):
            raise ValueError("gaps must start at 0 and be nonnegative")


def _spectrum(boundary: str, L: float, n: int, d: int, box: str) -> Spectrum:
    """Every sum of d axis eigenvalues, (2 pi m / L)^2 for |m| <= n (periodic)
    or (pi m / L)^2 for 1 <= m <= n (Dirichlet), sorted; a box of more than
    MODE_BUDGET modes is refused before anything is allocated."""
    if boundary not in (PERIODIC, DIRICHLET):
        raise ValueError(f"unknown boundary condition {boundary!r}")
    size = 2 * n + 1 if boundary == PERIODIC else n
    if size**d > MODE_BUDGET:
        raise ResourceBudgetError(f"the {box} holds {size}^{d} = {size**d} modes, over the budget of {MODE_BUDGET}")
    m = np.arange(-n, n + 1) if boundary == PERIODIC else np.arange(1, n + 1)
    lam = axis = ((2 * pi if boundary == PERIODIC else pi) * m / L) ** 2
    for _ in range(d - 1):
        lam = np.add.outer(lam, axis).ravel()
    ev = np.sort(lam)
    return Spectrum(eigenvalues=ev, gaps=ev - ev[0], volume=L**d)


def box_spectrum(d: int, L: float, boundary: str, t: float, tol: float) -> Spectrum:
    """Spectrum of the periodic or Dirichlet box of side L in d dimensions whose
    axes keep every mode with exp(-t lam) >= tol, and two more.

    Tail bound: with k the axis mode spacing (2 pi / L periodic, pi / L
    Dirichlet) and s = k sqrt(-t ln tol), the modes an axis drops on each side
    (one side for Dirichlet, two for periodic) have
    sum exp(-t lam) <= tol exp(-4 s) / (1 - exp(-2 s)).
    """
    n = int(np.sqrt(max(-np.log(tol) / t, 1.0)) * L / (2 * pi if boundary == PERIODIC else pi)) + 2
    return _spectrum(boundary, L, n, d, f"{boundary} box d={d}, L={L:g} at t={t:g}, tol={tol:g}")


def build_torus_spectrum(geom: TorusGeometry) -> Spectrum:
    """All eigenvalues (2 pi / L)^2 |m|^2 with |m_i| <= cutoff, sorted with multiplicity."""
    box = f"periodic box d={geom.d}, L={geom.L:g} at mode_cutoff={geom.mode_cutoff}"
    return _spectrum(PERIODIC, geom.L, geom.mode_cutoff, geom.d, box)


def auto_torus_spectrum(d: int, L: float, beta: float, tol: float = 1e-10) -> Spectrum:
    """The periodic box_spectrum at t = beta: each axis keeps every mode with exp(-beta lam) >= tol."""
    return box_spectrum(d, L, PERIODIC, beta, tol)


def admissibility_phi(spec: Spectrum, beta: float) -> float:
    """(1/|box|) sum_k exp(-beta gap_k); converges to (4 pi beta)^(-d/2) on growing tori."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return float(np.exp(-beta * spec.gaps).sum() / spec.volume)


def admissibility_report(d: int, beta: float, L_list, tol: float = 1e-10) -> dict:
    """phi per volume over a growing family, with Cauchy increments as the diagnostic."""
    values = [admissibility_phi(auto_torus_spectrum(d, L, beta, tol), beta) for L in L_list]
    increments = [abs(b - a) for a, b in zip(values, values[1:])]
    return {"L": list(L_list), "phi": values, "cauchy_increments": increments}


def _check_domain(spec: Spectrum, beta: float, mu: float):
    if beta <= 0:
        raise ValueError("beta must be positive")
    if mu <= -spec.eigenvalues[0]:
        raise CondensationBoundaryError("condensation boundary crossed: mu <= -lambda(1)")


def pressure(spec: Spectrum, beta: float, mu: float) -> float:
    """Free-energy density ln(Z)/|box| = -(1/|box|) sum_k ln(1 - exp(-beta(lam_k + mu)))."""
    _check_domain(spec, beta, mu)
    x = beta * (spec.eigenvalues + mu)
    return float(-np.log(-np.expm1(-x)).sum() / spec.volume)


def density(spec: Spectrum, beta: float, mu: float) -> float:
    """Bose-Einstein sum (1/|box|) sum_k 1/(exp(beta(lam_k + mu)) - 1); decreasing in mu."""
    _check_domain(spec, beta, mu)
    x = spec.eigenvalues + mu  # one buffer: solve_mu calls this dozens of times
    x *= beta
    with np.errstate(over="ignore"):  # a mode whose expm1 overflows adds 1/inf = 0, exactly
        return float(np.divide(1.0, np.expm1(x, out=x), out=x).sum() / spec.volume)


def solve_mu(spec: Spectrum, beta: float, rho_target: float, rtol: float = 1e-12) -> float:
    """Unique mu in (-lambda(1), inf) with density(spec, beta, mu) = rho_target.

    The finite-volume density is a strictly decreasing bijection onto (0, inf),
    so a bracketed root always exists; the low bracket sits just above the pole,
    at -lambda(1) + 1e-14, or at the next double above -lambda(1) where that
    sum rounds back onto the pole (lambda(1) of 128 or more).
    """
    # Here and across the package scipy is imported in the calls that use it:
    # its import is most of the start-up time of a run that never calls it.
    from scipy import optimize

    if rho_target <= 0:
        raise ValueError("rho_target must be positive")
    lo = max(-spec.eigenvalues[0] + 1e-14, np.nextafter(-spec.eigenvalues[0], np.inf))
    hi = max(lo + 1.0, 1.0)
    while density(spec, beta, hi) > rho_target:
        hi = 2 * hi + 1.0
    f = lambda mu: density(spec, beta, mu) - rho_target
    return float(optimize.brentq(f, lo, hi, rtol=rtol, maxiter=200))


_SPHERE_VOL = {  # unit-ball volume v_d
    d: pi ** (d / 2) / gamma_fn(d / 2 + 1) for d in range(1, 12)
}


@dataclass(frozen=True)
class DensityOfStates:
    """Integrated density of states F(lam) of the one-particle spectrum, per volume.

    kind 'analytic-continuum' means F(lam) = v_d lam^(d/2) / (2 pi)^d, the free
    Laplacian in R^d; 'tabulated' carries explicit (lam, F) pairs on a strictly
    increasing grid with F nondecreasing and F(0) = 0.
    """

    kind: str
    d: int
    table: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.kind not in ("analytic-continuum", "tabulated"):
            raise ValueError(f"unknown density-of-states kind {self.kind!r}")
        if self.kind == "tabulated":
            t = np.asarray(self.table, dtype=float)
            if t.ndim != 2 or t.shape[1] != 2:
                raise ValueError("table must be (n, 2) pairs (lam, F)")
            lam, F = t[:, 0], t[:, 1]
            if np.any(np.diff(lam) <= 0):
                raise ValueError("lambda grid must be strictly increasing")
            if np.any(np.diff(F) < 0) or F[0] < 0:
                raise ValueError("F must be nondecreasing with F(0) = 0")

    def prefactor(self) -> float:
        return _SPHERE_VOL[self.d] / (2 * pi) ** self.d


def analytic_dos(d: int) -> DensityOfStates:
    return DensityOfStates(kind="analytic-continuum", d=d)


def tabulated_dos(d: int, lam_grid: np.ndarray) -> DensityOfStates:
    """Tabulate the analytic continuum F on an explicit grid (testing aid)."""
    lam = np.asarray(lam_grid, dtype=float)
    c = _SPHERE_VOL[d] / (2 * pi) ** d
    return DensityOfStates(kind="tabulated", d=d, table=np.column_stack([lam, c * lam ** (d / 2)]))


def _stieltjes(dos: DensityOfStates, g) -> float:
    """Trapezoid-rule Stieltjes integral of g against dF over the table."""
    t = dos.table
    lam, F = t[:, 0], t[:, 1]
    gv = g(lam)
    return float((0.5 * (gv[:-1] + gv[1:]) * np.diff(F)).sum())


def laplace_transform_dos(dos: DensityOfStates, beta: float) -> float:
    """integral exp(-beta lam) dF(lam); equals phi_infinity(beta) for a consistent dF."""
    if dos.kind == "analytic-continuum":
        return (4 * pi * beta) ** (-dos.d / 2)
    return _stieltjes(dos, lambda lam: np.exp(-beta * lam))


def critical_density(beta: float, dos: DensityOfStates) -> float:
    """rho_cr(beta) = integral (exp(beta lam) - 1)^(-1) dF(lam).

    For the analytic continuum this equals zeta(d/2) (4 pi beta)^(-d/2); the
    integral diverges for d <= 2 (no condensation in low dimension).
    """
    from scipy import integrate

    if beta <= 0:
        raise ValueError("beta must be positive")
    if dos.kind == "analytic-continuum":
        if dos.d <= 2:
            raise DivergenceError("no condensation in this dimension")
        c, d = dos.prefactor(), dos.d
        # substitute lam = u^2 to regularize the endpoint: integrand ~ u^(d-3)
        f = lambda u: d * c * u ** (d - 1) * np.exp(-beta * u**2) / (-np.expm1(-beta * u**2))
        val, _ = integrate.quad(f, 0, np.inf, limit=200)
        return float(val)
    return _stieltjes(dos, lambda lam: 1.0 / np.expm1(beta * lam))


def condensate_fraction(beta: float, rho: float, dos: DensityOfStates) -> float:
    """Infinite-volume condensate fraction max(0, rho - rho_cr)/rho."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return max(0.0, rho - critical_density(beta, dos)) / rho


def continuum_density(d: int, beta: float, mu: float, tol: float = 1e-16) -> float:
    """Infinite-volume density sum_j exp(-j beta mu) (4 pi j beta)^(-d/2), mu > 0.

    Raises TruncationError when the series needs more than J_SERIES_CAP terms.
    """
    if mu <= 0:
        raise ValueError("mu must be positive for the convergent series")
    z = np.exp(-beta * mu)
    total, j = 0.0, 1
    while True:
        term = z**j * (4 * pi * j * beta) ** (-d / 2)
        total += term
        # geometric tail bound for the remaining terms
        tail = term * z / (1 - z)
        if tail < tol * max(total, 1e-300):
            return total
        if j > J_SERIES_CAP:
            raise TruncationError(
                f"density series passed the cap of {J_SERIES_CAP} terms with tail bound "
                f"{tail:.3g} = {tail / total:.3g} of the sum >= tol = {tol:g} (d={d}, beta={beta}, mu={mu})"
            )
        j += 1
