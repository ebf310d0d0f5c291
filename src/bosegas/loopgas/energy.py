"""Time-aligned interaction energies of loop configurations.

All loops share the same beta grid, so the pair energy between two legs is a
single trapezoid sum over one period:

    e(leg_k, leg_l) = integral_0^beta V(omega_k(tau) - omega_l(tau)) dtau.

The configuration energy collects every unordered pair of legs on distinct
loops plus every unordered pair of distinct legs within one loop; the same-leg
diagonal V(0) never enters (normal ordering removes it).  Together these are
exactly the unordered pairs of distinct legs of the whole configuration, so on
the packed layout (loops.py) every energy is one numpy broadcast over an
array of legs:

    interaction_energy     upper triangle of all legs against all legs;
    loop_in_config_energy  the loop's legs against every other leg, plus the
                           upper triangle of its own legs;
    pair_energy            one loop's legs against another's;
    intra_energy           the upper triangle of one loop's legs.

A hard-core contact returns +inf, which the Gibbs weight turns into zero.
"""

from functools import lru_cache

import numpy as np

from .loops import BridgeLoop, LoopConfiguration, leg_index
from .potential import PairPotential
from .regions import PERIODIC, BoxRegion, min_image

# Displacement floats one broadcast of interaction_energy may hold (32 MB);
# larger configurations are summed in blocks of legs.
_BROADCAST_FLOATS = 1 << 22


# Small read-only index and weight arrays, shared by every call with the
# same sizes (a move prices loops of a handful of windings on one grid);
# building them costs more than the broadcast they serve.


@lru_cache(maxsize=64)
def _trapezoid_weights(n_knots: int, dtau: float) -> np.ndarray:
    w = np.full(n_knots, dtau)
    w[0] = w[-1] = dtau / 2
    w.flags.writeable = False
    return w


@lru_cache(maxsize=64)
def _loop_leg_index(winding: int, n_slices: int) -> np.ndarray:
    idx = leg_index([winding], n_slices)
    idx.flags.writeable = False
    return idx


def _legs(loop: BridgeLoop, region: BoxRegion) -> np.ndarray:
    """(winding, n_slices + 1, d) legs of one loop on the common grid."""
    return loop.path.take(_loop_leg_index(loop.winding, region.n_slices), axis=0)


def _sum(diff: np.ndarray, V: PairPotential, beta: float, region: BoxRegion) -> float:
    """Trapezoid energy of leg-pair displacements diff (..., n_slices + 1, d)."""
    if region.boundary == PERIODIC:
        diff = min_image(diff, region.L)
    r = np.sqrt(np.einsum("...k,...k->...", diff, diff))
    w = _trapezoid_weights(region.n_slices + 1, beta / region.n_slices)
    return float((V(r) @ w).sum())  # +inf on any hard-core contact


def _cross(a: np.ndarray, b: np.ndarray, V, beta, region) -> float:
    """Every leg of a against every leg of b."""
    if not (len(a) and len(b)):
        return 0.0
    return _sum(a[:, None] - b[None, :], V, beta, region)


def _distinct(legs: np.ndarray, V, beta, region) -> float:
    """Every unordered pair of distinct legs."""
    if len(legs) < 2:
        return 0.0
    n = np.arange(len(legs))
    i, k = np.nonzero(n[:, None] < n)  # the strict upper triangle, row by row
    return _sum(legs[i] - legs[k], V, beta, region)


def pair_energy(
    a: BridgeLoop, b: BridgeLoop, V: PairPotential, beta: float, region: BoxRegion
) -> float:
    """Sum over leg pairs (alpha on a, gamma on b) of the one-period trapezoid."""
    return _cross(_legs(a, region), _legs(b, region), V, beta, region)


def intra_energy(loop: BridgeLoop, V: PairPotential, beta: float, region: BoxRegion) -> float:
    """Unordered distinct-leg pairs within one loop; zero for winding 1."""
    return _distinct(_legs(loop, region), V, beta, region)


def interaction_energy(
    config: LoopConfiguration, V: PairPotential, beta: float, region: BoxRegion
) -> float:
    """Full configuration energy: every unordered pair of distinct legs."""
    if np.any(np.diff(config.offsets) != config.windings * region.n_slices + 1):
        raise ValueError(f"configuration paths do not have winding * {region.n_slices} + 1 knots")
    legs = config.knots.take(leg_index(config.windings, region.n_slices), axis=0)
    n = legs.shape[0]
    block = max(1, _BROADCAST_FLOATS // max(n * legs[0].size, 1)) if n else 1
    total = 0.0
    for a in range(0, n, block):
        head = legs[a : a + block]
        total += _distinct(head, V, beta, region) + _cross(head, legs[a + block :], V, beta, region)
    return total


def loop_in_config_energy(
    loop: BridgeLoop,
    config: LoopConfiguration,
    V: PairPotential,
    beta: float,
    region: BoxRegion,
    skip=-1,
) -> float:
    """Energy of one loop against a configuration, including the loop's own
    intra-leg term; skip is the index, or a sequence of indices, of loops of
    the configuration to leave out."""
    legs = _legs(loop, region)
    total = _distinct(legs, V, beta, region)
    if not config.loop_count:
        return total
    rows = leg_index(config.windings, region.n_slices)
    for i in sorted({int(i) for i in np.atleast_1d(skip) if 0 <= i < config.loop_count}, reverse=True):
        end = int(config.windings[: i + 1].sum())  # loop i's legs are rows end - winding .. end - 1
        rows = np.concatenate((rows[: end - config.windings[i]], rows[end:]))
    return total + _cross(legs, config.knots.take(rows, axis=0), V, beta, region)
