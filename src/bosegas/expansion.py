"""Small-activity expansion of the loop gas: Mayer coefficients, series
density, and a Kirkwood-Salsburg-type convergence bound.

The pressure-like generating function ln Z / |box| = sum_n c_n z^n collects,
at each order in the activity, winding sectors and connected Mayer clusters:

    c_1 = kappa_1                      (one 1-loop; kappa_j = (4 pi j beta)^(-d/2))
    c_2 = (1/2) kappa_2 <e^(-intra)>   (one 2-loop)
        + (1/2) kappa_1^2 integral dx <e^(-pair) - 1>
    c_3 = (1/3) kappa_3 <e^(-intra)>
        + kappa_2 kappa_1 / 2 integral dx <e^(-intra(2-loop)) (e^(-pair) - 1)>
        + (1/6) kappa_1^3 integral dx2 dx3 <sum of connected 2- and 3-edge products>

and the density series is rho(z) = z d/dz ln Z / |box| = sum_n n c_n z^n, so
b_n = n c_n.  Pair energies are the time-aligned leg sums used everywhere
else; expectations run over free Brownian bridges, with Mayer displacement
integrals importance-sampled uniformly inside a truncation ball sized from
the potential's range and the thermal spread.

A finite box may be passed for boundary-condition comparisons; the
thermodynamic-limit default uses free bridges with no images.

Each Monte Carlo sector is sampled as one batch: its bridges come from one
fill_bridges call and its ball displacements from one rejection pass, and
the sector's energies are one broadcast (a hard-core contact has energy +inf
and weight exp(-inf) = 0).  The sectors of an order are independent strata:
b_n, each part and their errors come from diagnostics.stratified_mean.
"""

from dataclasses import dataclass
from math import gamma as gamma_fn
from math import pi

import numpy as np

from .diagnostics import stratified_mean
from .loopgas.energy import intra_energies, pair_energies
from .loopgas.free import _fill_loop_paths, _sample_bases
from .loopgas.loops import fill_bridges
from .loopgas.potential import PairPotential
from .loopgas.regions import PERIODIC, BoxRegion, diagonal_mass
from .rng import derive_seed, generator


@dataclass(frozen=True)
class MayerCoefficients:
    """Density-series coefficient b_n with its quadrature error (None: closed
    form), and its sector parts, each sector mapped to (value, error)."""

    order: int
    value: float
    error: float | None
    parts: dict


@dataclass(frozen=True)
class ConvergenceEstimate:
    """Lower bound on the activity convergence radius, exp(-2 beta B - 1)/C, with C's
    relative error as its own (None for the free gas, where it is exact)."""

    radius_lower_bound: float
    stability_B: float
    C_value: float
    C_error: float
    radius_error: float | None


def _ball_volume(d: int, R: float) -> float:
    return pi ** (d / 2) / gamma_fn(d / 2 + 1) * R**d


def _mayer_ball_radius(V: PairPotential, beta: float, j_sum: int = 2) -> float:
    """Truncation radius for displacement integrals: interaction range plus
    the thermal spread of the two paths."""
    return V.range + 6.0 * np.sqrt(j_sum * beta)


def _free_paths(count: int, j: int, beta: float, d: int, n_slices: int, rng) -> np.ndarray:
    """(count, j * n_slices + 1, d) closed free bridges based at the origin."""
    zero = np.zeros((count, d))
    return fill_bridges(zero, zero, j * n_slices, beta / n_slices, rng)


def mayer_coefficient(
    n: int,
    beta: float,
    V: PairPotential | None,
    region: BoxRegion | None = None,
    n_mc: int = 4000,
    seed: int = 0,
    n_slices: int = 16,
) -> MayerCoefficients:
    """b_n of the density series, n in {1, 2, 3}.

    region = None gives the thermodynamic-limit coefficients; a finite box
    (periodic or absorbing) evaluates the same clusters with boundary-aware
    masses and bridges, for sigma-independence comparisons.
    """
    if n not in (1, 2, 3):
        raise ValueError("orders 1..3 are implemented")
    d = region.d if region is not None else (V.d if V is not None else 3)
    if region is not None:
        n_slices = region.n_slices
    rng = generator(derive_seed(seed, "mayer", n))
    free_geom = BoxRegion(d=d, L=1e9, boundary=PERIODIC, n_slices=n_slices)
    geom = region if region is not None else free_geom

    def kappa(j):
        if region is None:
            return (4 * pi * j * beta) ** (-d / 2)
        return diagonal_mass(region, j * beta) / region.volume

    def draw_paths(count, j):
        if region is None:
            return _free_paths(count, j, beta, d, n_slices, rng)
        return _fill_loop_paths(_sample_bases(count, j, beta, region, rng), j, beta, region, rng)[0]

    if n == 1:
        return MayerCoefficients(order=1, value=float(kappa(1)), error=None, parts={"j1": (float(kappa(1)), None)})

    if V is None:
        # free gas: only the winding sector survives at each order (b_n = kappa_n)
        return MayerCoefficients(order=n, value=float(kappa(n)), error=None, parts={f"w{n}": (float(kappa(n)), None)})

    if n == 2:
        w2 = np.exp(-intra_energies(draw_paths(n_mc, 2), V, beta, geom))
        a_paths = draw_paths(n_mc, 1)
        b_paths = draw_paths(n_mc, 1)
        if region is None:
            R = _mayer_ball_radius(V, beta)
            vol = _ball_volume(d, R)
            b_paths = b_paths + _random_balls(rng, n_mc, d, R)[:, None]
        else:
            # independent box bases carry the displacement law; weight = |box|
            vol = region.volume
        mayer11 = np.exp(-pair_energies(a_paths, b_paths, V, beta, geom)) - 1.0
        table = {"w2": (0.5 * kappa(2), w2), "mayer11": (0.5 * kappa(1) ** 2 * vol, mayer11)}
    else:
        w3 = np.exp(-intra_energies(draw_paths(n_mc, 3), V, beta, geom))
        R = _mayer_ball_radius(V, beta, j_sum=3)
        vol = _ball_volume(d, R) if region is None else region.volume
        twos = draw_paths(n_mc, 2)
        ones = draw_paths(n_mc, 1)
        if region is None:
            ones = ones + _random_balls(rng, n_mc, d, R)[:, None]
        wi = np.exp(-intra_energies(twos, V, beta, geom))
        mix21 = wi * (np.exp(-pair_energies(twos, ones, V, beta, geom)) - 1.0)

        l1 = draw_paths(n_mc, 1)
        l2 = draw_paths(n_mc, 1)
        l3 = draw_paths(n_mc, 1)
        if region is None:
            x = _random_balls(rng, 2 * n_mc, d, R).reshape(n_mc, 2, 1, d)  # per sample: x2, then x3
            l2, l3 = l2 + x[:, 0], l3 + x[:, 1]
        f12 = np.exp(-pair_energies(l1, l2, V, beta, geom)) - 1.0
        f13 = np.exp(-pair_energies(l1, l3, V, beta, geom)) - 1.0
        f23 = np.exp(-pair_energies(l2, l3, V, beta, geom)) - 1.0
        mayer111 = f12 * f13 + f12 * f23 + f13 * f23 + f12 * f13 * f23
        table = {
            "w3": (kappa(3) / 3, w3),
            "mix21": (0.5 * kappa(2) * kappa(1) * vol, mix21),
            "mayer111": ((1.0 / 6.0) * kappa(1) ** 3 * vol**2, mayer111),
        }

    # b_n = n c_n, and each part n times its own sector of c_n
    value, error = stratified_mean(table.values())
    return MayerCoefficients(
        order=n, value=float(n * value), error=float(n * error),
        parts={name: tuple(float(n * v) for v in stratified_mean([sector])) for name, sector in table.items()},
    )


def _random_balls(rng, count: int, d: int, R: float) -> np.ndarray:
    """(count, d) points uniform in the ball of radius R about the origin, by
    rejection from the cube [-R, R]^d: the first `count` candidates inside
    the ball, in draw order."""
    cube_per_ball = 2.0**d / _ball_volume(d, 1.0)
    found = [np.empty((0, d))]
    need = count
    while need > 0:
        cand = rng.uniform(-R, R, size=(int(1.2 * cube_per_ball * need) + 16, d))
        found.append(cand[(cand**2).sum(axis=1) <= R**2][:need])
        need -= len(found[-1])
    return np.concatenate(found)


def series_density(z: float, coeffs, bound: ConvergenceEstimate | None = None) -> dict:
    """Truncated-series density with a last-term truncation heuristic.

    Refuses (returns the bound info instead of a number) when z exceeds the
    supplied convergence bound.
    """
    if bound is not None and z > bound.radius_lower_bound:
        return {
            "refused": True,
            "reason": f"z = {z} above the convergence bound {bound.radius_lower_bound:.4g}",
            "bound": bound,
        }
    coeffs = sorted(coeffs, key=lambda c: c.order)
    rho = sum(c.value * z**c.order for c in coeffs)
    stat = np.sqrt(sum((c.error * z**c.order) ** 2 for c in coeffs if c.error is not None))
    last = coeffs[-1]
    trunc = abs(last.value) * z ** last.order * z / max(1 - z, 1e-9)
    return {
        "refused": False,
        "density": float(rho),
        "stat_error": float(stat),
        "truncation_error": float(trunc),
    }


def convergence_radius(
    beta: float,
    V: PairPotential | None,
    n_mc: int = 2000,
    n_ref: int = 8,
    seed: int = 0,
    n_slices: int = 16,
) -> ConvergenceEstimate:
    """Kirkwood-Salsburg-type bound exp(-2 beta B - 1) / C(beta, V).

    C is the supremum over reference bridges of the absolute Mayer integral
    against a second one-loop; it is estimated as the maximum over sampled
    reference bridges plus the Monte Carlo error (conservative).  The bound is
    capped at the free-gas radius z < 1, which is also the V = 0 limit where
    C degenerates to zero.
    """
    if V is None:
        return ConvergenceEstimate(1.0, 0.0, 0.0, 0.0, None)
    d = V.d
    rng = generator(derive_seed(seed, "ks-radius"))
    R = _mayer_ball_radius(V, beta)
    vol = _ball_volume(d, R)
    kappa1 = (4 * pi * beta) ** (-d / 2)
    geom = BoxRegion(d=d, L=1e9, n_slices=n_slices)
    best, best_err = 0.0, 0.0
    for _ in range(n_ref):
        ref = _free_paths(1, 1, beta, d, n_slices, rng)
        others = _free_paths(n_mc, 1, beta, d, n_slices, rng) + _random_balls(rng, n_mc, d, R)[:, None]
        vals = np.abs(np.exp(-pair_energies(ref, others, V, beta, geom)) - 1.0)
        C_ref, err = stratified_mean([(kappa1 * vol, vals)])
        if C_ref > best:
            best, best_err = C_ref, err
    C = best + best_err
    if C <= 0:
        return ConvergenceEstimate(1.0, V.stability_B, 0.0, 0.0, 0.0)  # no sample interacted
    r = min(float(np.exp(-2 * beta * V.stability_B - 1.0) / C), 1.0)
    return ConvergenceEstimate(r, V.stability_B, float(C), float(best_err), r * float(best_err) / float(C))
