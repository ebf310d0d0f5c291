"""Identity checks for the loop gas: integration by parts, the spectral/loop
trace identity, and boundary-condition independence.

Integration by parts.  For the free Poisson measure with intensity nu the
Skorokhod-type identity holds for cylindrical F, G:

    E[ :<phi,f> F:  G ] = integral nu(dw) I_f(w) E[ F(phi) (G(phi + d_w) - G(phi)) ]

where :<phi,f> F: = sum_{w in phi} I_f(w) F(phi - d_w) - E<phi,f> F(phi) is the
Charlier-centered product (for F = 1 it reduces to the centered pairing, and
both sides vanish when G = 1 as well).  Gibbs weights ride along inside G, so
the identity is checked at V = 0 and small V with the same machinery.

Trace identity.  At V = 0 the spectral route -sum_k ln(1 - z exp(-beta lam_k))
and the loop route sum_j (z^j / j) M_j(box) are independent closed forms (mode
sums versus image sums) that must agree to quadrature tolerance.  With V
switched on, the interaction correction ln E_P[e^(-energy)] to ln Z is
measured and reported with its error; nothing compares it with the
expansion.
"""

import numpy as np

from ..diagnostics import stratified_mean
from ..rng import derive_seed, generator
from .energy import _trapezoid_weights, added_loop_energies, interaction_energies
from .free import (
    _CHUNK_FLOATS,
    _live_knots,
    config_pairings,
    free_log_partition,
    free_rdm,
    sample_free_poisson_batch,
    sector_bridges,
    time_integrals,
    time_integrals_of,
    winding_masses,
)
from .potential import PairPotential
from .observables import LoopTestFunction
from .regions import DIRICHLET, PERIODIC, BoxRegion, _mode_eigenvalues


# -- cylindrical functionals -------------------------------------------------------


class CylindricalFunctional:
    """F(phi) = h((phi, g_1), ..., (phi, g_k)), a function of finitely many
    pairings.  `of` evaluates h on pairing vectors p of shape (..., k), so the
    shifted values the identity needs are F(phi -+ d_w) = h(p -+ I(w))."""

    gs = ()

    def of(self, p):
        raise NotImplementedError


class One(CylindricalFunctional):
    label = "1"

    def of(self, p):
        return np.ones(p.shape[:-1])


class Pairing(CylindricalFunctional):
    """(phi, g)"""

    def __init__(self, g, label="(phi,g)"):
        self.g, self.gs, self.label = g, (g,), label

    def of(self, p):
        return p[..., 0]


class PairingProduct(CylindricalFunctional):
    """(phi, g1)(phi, g2)"""

    def __init__(self, g1, g2, label="(phi,g1)(phi,g2)"):
        self.g1, self.g2, self.gs, self.label = g1, g2, (g1, g2), label

    def of(self, p):
        return p[..., 0] * p[..., 1]


class ExpPairing(CylindricalFunctional):
    """exp(i (phi, g)); complex-valued."""

    def __init__(self, g, label="e^{i(phi,g)}"):
        self.g, self.gs, self.label = g, (g,), label

    def of(self, p):
        return np.exp(1j * p[..., 0])


def gibbs_weights(configs, V: PairPotential | None, beta: float, region: BoxRegion) -> np.ndarray:
    """exp(-energy) of each configuration (1 at V = None, 0 on a hard-core contact)."""
    if V is None:
        return np.ones(len(configs))
    return np.exp(-interaction_energies(configs, V, beta, region))


# Points of the coarse midpoint grid of the exact periodic mean (per axis:
# the d-th root, rounded).
_MEAN_GRID_POINTS = 1 << 12


def _knot_means(f, ts, region, m) -> np.ndarray:
    """|box|^-1 int f(t_k, x) dx at each knot time t_k, by the midpoint rule on
    the periodic grid of m points per axis (exact for trigonometric
    polynomials of degree < m).  f sees the grid broadcast over the knots,
    in chunks of at most _CHUNK_FLOATS positions."""
    axis = (np.arange(m) + 0.5) * (region.L / m)
    grid = np.stack(np.meshgrid(*[axis] * region.d, indexing="ij"), axis=-1).reshape(-1, 1, region.d)
    sums = np.zeros(ts.size)
    rows = max(1, _CHUNK_FLOATS // (max(ts.size, 1) * region.d))
    for a in range(0, grid.shape[0], rows):
        block = grid[a : a + rows]
        xs = np.broadcast_to(block, (block.shape[0], ts.size, region.d))
        sums += np.broadcast_to(f(ts, xs), xs.shape[:-1]).sum(axis=0)
    return sums / grid.shape[0]


def _campbell_mean(nus, beta, region, f) -> tuple:
    """Periodic E<phi, f> = sum_j nu_j sum_k w_k |box|^-1 int f(t_k, x) dx
    over the knots f reads, on the coarse and on the fine grid."""
    if nus.size == 0:
        return 0.0, 0.0
    dtau = beta / region.n_slices
    n_knots = np.arange(1, nus.size + 1) * region.n_slices + 1
    live = np.minimum(n_knots, _live_knots([f], n_knots[-1], dtau))
    ts = dtau * np.arange(live.max())
    m = round(_MEAN_GRID_POINTS ** (1 / region.d))
    weights = [_trapezoid_weights(n, dtau)[:k] for n, k in zip(n_knots, live)]
    return tuple(
        float(sum(nu * (w @ means[: w.size]) for nu, w in zip(nus, weights)))
        for means in (_knot_means(f, ts, region, k) for k in (m, 2 * m + 1))
    )


def mean_pairing(z, beta, region, f, n_mc, seed) -> tuple:
    """E<phi, f> = sum_j nu_j E_j[I_f] and its error: exact in periodic boxes,
    Monte Carlo in Dirichlet boxes.

    Periodic: a loop's base point is uniform, so each of its wrapped knots is
    uniform on the torus whatever the bridge, and (Campbell's formula)
    E<phi, f> = sum_j nu_j sum_k w_k |box|^-1 int f(t_k, x) dx, with w_k the
    trapezoid weights of a j-loop cut to the knots f reads.  The spatial
    means are midpoint sums on a grid of m points per axis (about
    _MEAN_GRID_POINTS in all) and on one of 2m + 1, about twice as fine; the
    value is the fine one, the error the gap between them.  (With 2m, every
    coarse cell edge is a fine one too, and a jump of f near such an edge
    errs alike on both grids.)  The error is an estimate, not a bound:
    rounding-small for a smooth f, of the cell size for a box indicator.
    n_mc and seed are not used.

    Dirichlet: the base points are not uniform, so each winding draws n_mc
    bridges (seeded by seed) and the sectors are summed by stratified_mean.
    """
    nus, _ = winding_masses(z, beta, region)
    if region.boundary == PERIODIC:
        coarse, fine = _campbell_mean(nus, beta, region, f)
        return fine, abs(fine - coarse)
    rng = generator(derive_seed(seed, "mean-pairing"))
    return stratified_mean(
        (nu, time_integrals(paths, f, beta, region)) for nu, paths, _ in sector_bridges(nus, n_mc, beta, region, rng)
    )


def integration_by_parts_check(
    z: float,
    beta: float,
    region: BoxRegion,
    V: PairPotential | None,
    f,
    F: CylindricalFunctional,
    G: CylindricalFunctional,
    n_mc: int,
    seed: int = 0,
) -> dict:
    """Both sides of the point-process integration-by-parts identity.

    Gibbs factors are absorbed into G: with V given, G_eff(phi) =
    G(phi) exp(-energy(phi)), and the added-loop shift includes the loop's
    interaction with the configuration.  Returns lhs, rhs, errors, and the
    sigma-distance between them.

    Every loop is integrated once against the test functions of F, of G and
    f; F and G then act on pairing vectors, with loops and bridge samples
    along the leading axis: F(phi - d_w) = F(p - I(w)), G(phi + d_w) =
    G(p + I(w)).  At V = None the right-hand side's periodic bridges are
    filled only up to the knots the test functions of G and f read.

    The Charlier centring E<phi, f> is mean_pairing's: exact in periodic
    boxes, Monte Carlo in Dirichlet boxes (4 n_mc bridges per winding); its
    error enters lhs_err.
    """
    kf = len(F.gs)
    fs = [*F.gs, *G.gs, f]  # pairing columns: F's [:kf], G's [kf:-1], f last
    ef, ef_err = mean_pairing(z, beta, region, f, 4 * n_mc, derive_seed(seed, "ef"))

    # lhs: E[ (sum_w I_f(w) F(phi - d_w) - E<phi,f> F(phi)) G_eff(phi) ]
    configs = sample_free_poisson_batch(n_mc, z, beta, region, derive_seed(seed, "lhs"))
    weights = gibbs_weights(configs, V, beta, region)
    per_loop, owner, p = config_pairings(configs, fs, beta, region)
    charlier = per_loop[:, -1] * F.of(p[owner, :kf] - per_loop[:, :kf])
    skor = np.zeros(n_mc, dtype=charlier.dtype)
    np.add.at(skor, owner, charlier)
    f_val, g_val = F.of(p[:, :kf]), G.of(p[:, kf:-1]) * weights
    lhs, lhs_err = stratified_mean([(1.0, (skor - ef * f_val) * g_val)])
    k = min(200, n_mc)
    lhs_err = np.hypot(lhs_err, ef_err * abs(np.mean(f_val[:k] * g_val[:k])))

    # rhs: sum_j nu_j E_bridge[I_f (F(phi) (G_eff(phi + d_w) - G_eff(phi)))]
    nus, _ = winding_masses(z, beta, region)
    rngb = generator(derive_seed(seed, "rhs-bridges"))
    configs2 = sample_free_poisson_batch(n_mc, z, beta, region, derive_seed(seed, "rhs"))
    weights2 = gibbs_weights(configs2, V, beta, region)
    p2 = config_pairings(configs2, fs, beta, region)[2]
    f_plain = F.of(p2[:, :kf])
    g_plain = G.of(p2[:, kf:-1]) * weights2

    def rhs_terms(paths, n_knots):
        added = time_integrals_of(paths, fs[kf:], beta, region, n_knots)
        g_shift = G.of(p2[:, kf:-1] + added[:, :-1]) * weights2
        if V is not None:
            de = added_loop_energies(paths, configs2, V, beta, region)
            g_shift = np.where(np.isinf(de), 0.0, g_shift * np.exp(-de))
        return added[:, -1] * f_plain * (g_shift - g_plain)

    # the added loop's energy reads its whole path
    bridges = sector_bridges(nus, n_mc, beta, region, rngb, None if V is not None else fs[kf:])
    rhs, rhs_err = stratified_mean((nu, rhs_terms(paths, n_knots)) for nu, paths, n_knots in bridges)
    diff = abs(lhs - rhs)
    sigma = diff / max(np.hypot(lhs_err, rhs_err), 1e-300)
    return {
        "lhs": complex(lhs),
        "lhs_err": float(lhs_err),
        "rhs": complex(rhs),
        "rhs_err": float(rhs_err),
        "sigma_distance": float(sigma),
        "mean_pairing": float(ef),
    }


# -- trace identity ---------------------------------------------------------------


def spectral_log_partition(beta: float, mu: float, region: BoxRegion, tol: float = 1e-16) -> float:
    """-sum_k ln(1 - exp(-beta (lam_k + mu))) over the box modes (mode-sum route)."""
    lam1 = _mode_eigenvalues(region.boundary, region.L, beta, tol)
    grids = np.meshgrid(*([lam1] * region.d), indexing="ij")
    lam = sum(grids).ravel()
    x = beta * (lam + mu)
    return float(-np.log(-np.expm1(-x)).sum())


def trace_identity_check(
    beta: float,
    mu: float,
    region: BoxRegion,
    n_mc: int = 0,
    V: PairPotential | None = None,
    seed: int = 0,
) -> dict:
    """V = 0: spectral vs loop log-partition closed forms.  V != 0: also the
    measured interaction correction ln E_P[e^(-energy)] with its error."""
    if V is not None and n_mc < 2:
        raise ValueError(f"the interaction correction needs n_mc >= 2 samples, got {n_mc}")
    z = float(np.exp(-beta * mu))
    lhs = spectral_log_partition(beta, mu, region)
    rhs = free_log_partition(z, beta, region)
    rec = {"z": z, "spectral": lhs, "loop": rhs, "abs_diff": abs(lhs - rhs)}
    if V is None:
        return rec
    configs = sample_free_poisson_batch(n_mc, z, beta, region, derive_seed(seed, "ti"))
    mean_w, err = stratified_mean([(1.0, gibbs_weights(configs, V, beta, region))])
    rec.update(interaction_correction=float(np.log(mean_w)), correction_err=float(err / mean_w))
    return rec


# -- sigma independence -------------------------------------------------------------


def _window_density_exact(z, beta, region, window) -> float:
    """V = 0 density averaged over a centered (or offset) window, from the kernel."""
    lo, hi = window
    xs = np.linspace(lo, hi, 9)
    pts = np.stack(np.meshgrid(*([xs] * region.d), indexing="ij"), axis=-1).reshape(-1, region.d)
    return float(np.mean(free_rdm(z, beta, region, pts, pts)))


def sigma_independence_check(
    z: float,
    beta: float,
    V: PairPotential | None,
    L_list,
    window_frac: float = 0.2,
    boundary_window: bool = False,
    n_mc: int = 2000,
    n_slices: int = 16,
    seed: int = 0,
    d: int = 3,
) -> dict:
    """Gap between periodic and absorbing-wall window densities over growing
    boxes: exact for V = None, from two Gibbs chains otherwise.

    Pass: the relative gap shrinks monotonically (within error) and ends below
    1 percent.  A window touching the wall is the negative control: its gap
    must not shrink.
    """
    rows = []
    for i, L in enumerate(L_list):
        per = BoxRegion(d=d, L=float(L), boundary=PERIODIC, n_slices=n_slices)
        dir_ = BoxRegion(d=d, L=float(L), boundary=DIRICHLET, n_slices=n_slices)
        if boundary_window:
            window = (0.02 * L, 0.02 * L + window_frac * L)
        else:
            window = (L * (0.5 - window_frac / 2), L * (0.5 + window_frac / 2))
        if V is None:
            a = _window_density_exact(z, beta, per, window)
            b = _window_density_exact(z, beta, dir_, window)
            err = 0.0
        else:
            from .gibbs import gibbs_sample

            # the trapezoid time a closed loop spends in the window, over beta,
            # is its share of knots inside times its winding
            lo, hi = window
            inside = LoopTestFunction(fn=lambda ts, xs: 1.0, t_max=np.inf, box=((lo, hi),) * d)

            def window_density(configs, region):
                counts = config_pairings(configs, [inside], beta, region)[2][:, 0]
                return stratified_mean([(1.0 / (beta * (hi - lo) ** d), counts)])

            run_a = gibbs_sample(z, beta, per, V, n_mc, derive_seed(seed, "per", i))
            run_b = gibbs_sample(z, beta, dir_, V, n_mc, derive_seed(seed, "dir", i))
            a, ea = window_density(run_a["configs"], per)
            b, eb = window_density(run_b["configs"], dir_)
            err = float(np.hypot(ea, eb))
        gap = abs(a - b)
        rel = gap / max(abs(a), 1e-300)
        rows.append({"L": float(L), "periodic": a, "dirichlet": b, "gap": gap,
                     "rel_gap": rel, "err": err})
    rels = [r["rel_gap"] for r in rows]
    errs = [r["err"] / max(abs(r["periodic"]), 1e-300) for r in rows]
    shrinking = all(b <= a + 3 * (ea + eb) for (a, b, ea, eb) in zip(rels, rels[1:], errs, errs[1:]))
    passed = shrinking and rels[-1] < 0.01
    return {"rows": rows, "shrinking": shrinking, "final_rel_gap": rels[-1], "passed": passed}
