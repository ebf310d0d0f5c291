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

    interaction_energy        upper triangle of all legs against all legs;
    loop_in_config_energy     the loop's legs against every other leg, plus
                              the upper triangle of its own legs;
    loops_in_config_energies  loop_in_config_energy of several loops against
                              the same other legs, in one broadcast;
    pair_energy               one loop's legs against another's;
    intra_energy              the upper triangle of one loop's legs.

The configuration's legs are the array LoopConfiguration.legs keeps, and
the other legs of a one-against-the-rest energy are slices of it.

Monte Carlo samplers price many small loops at once.  One trapezoid kernel
(`_leg_pair_energies`) gives the energy of every leg pair of a block, and the
batched energies sum it per sample:

    pair_energies, intra_energies  stacked loops of one winding, legs
                                   (B, j, n_slices + 1, d);
    added_loop_energies            loop b against configuration b, with the
                                   loop's own intra term (bincount per owner);
    interaction_energies           interaction_energy of each configuration.

The batched energies take a LoopBatch, or a list of configurations that
`as_batch` packs the same way, and read its arrays directly.

The batched energies sum leg pairs in the order of the scalar functions, so
pair_energies, intra_energies and interaction_energies give their bits.

A hard-core contact returns +inf, which the Gibbs weight turns into zero.
Periodic boxes take each displacement at its minimum image, so the trapezoid
kernel refuses a potential whose finite range_hint exceeds L/2
(`check_image_range`, which GibbsChain also runs at set-up).
"""

from functools import lru_cache
from math import isfinite

import numpy as np

from ..errors import TruncationError
from .loops import BridgeLoop, LoopConfiguration, _loop_leg_index, as_batch, leg_index
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
def _upper_pairs(n_legs: int) -> tuple:
    """(i, k) of the strict upper triangle of n_legs legs, row by row."""
    n = np.arange(n_legs)
    pairs = np.nonzero(n[:, None] < n)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _legs(loop: BridgeLoop, region: BoxRegion) -> np.ndarray:
    """(winding, n_slices + 1, d) legs of one loop on the common grid."""
    return loop.path.take(_loop_leg_index(loop.winding, region.n_slices), axis=0)


def _stacked_legs(paths: np.ndarray, region: BoxRegion) -> np.ndarray:
    """(B, j, n_slices + 1, d) legs of stacked paths (B, j * n_slices + 1, d)."""
    winding = (paths.shape[1] - 1) // region.n_slices
    return paths.take(_loop_leg_index(winding, region.n_slices), axis=1)


def check_image_range(V: PairPotential | None, region: BoxRegion) -> None:
    """Refuse a periodic box that V's finite range reaches across.

    Periodic energies count each pair at its minimum image, which holds every
    image within reach only while V.range_hint <= L/2; past that the further
    images would be dropped without a word.  An infinite range_hint claims no
    range and is not refused.
    """
    if V is not None and region.boundary == PERIODIC and isfinite(V.range_hint) and V.range_hint > region.L / 2:
        raise TruncationError(
            f"potential range {V.range_hint:g} exceeds half the box side {region.L / 2:g}: "
            "minimum-image energies would drop image pairs"
        )


def _leg_pair_energies(diff: np.ndarray, V: PairPotential, beta: float, region: BoxRegion) -> np.ndarray:
    """Trapezoid energy of each leg pair: displacements diff (..., n_slices + 1, d)
    give energies (...), +inf on any hard-core contact."""
    if region.boundary == PERIODIC:
        check_image_range(V, region)
        diff = min_image(diff, region.L)
    r = np.sqrt(np.einsum("...k,...k->...", diff, diff))
    w = _trapezoid_weights(region.n_slices + 1, beta / region.n_slices)
    return V(r) @ w


def _sum(diff: np.ndarray, V: PairPotential, beta: float, region: BoxRegion) -> float:
    """Total trapezoid energy of leg-pair displacements diff (..., n_slices + 1, d)."""
    return float(_leg_pair_energies(diff, V, beta, region).sum())


def _cross(a: np.ndarray, b: np.ndarray, V, beta, region) -> float:
    """Every leg of a against every leg of b."""
    if not (len(a) and len(b)):
        return 0.0
    return _sum(a[:, None] - b[None, :], V, beta, region)


def _distinct(legs: np.ndarray, V, beta, region) -> float:
    """Every unordered pair of distinct legs."""
    if len(legs) < 2:
        return 0.0
    i, k = _upper_pairs(len(legs))
    return _sum(legs[i] - legs[k], V, beta, region)


def _distinct_per_row(legs: np.ndarray, V, beta, region) -> np.ndarray:
    """_distinct of each row of stacked legs (B, n_legs, n_slices + 1, d),
    in blocks of rows."""
    out = np.zeros(len(legs))
    i, k = _upper_pairs(legs.shape[1])
    if not len(i):
        return out
    rows = max(1, _BROADCAST_FLOATS // (len(i) * legs[0, 0].size))
    for a in range(0, len(legs), rows):
        block = legs[a : a + rows]
        out[a : a + rows] = _leg_pair_energies(block[:, i] - block[:, k], V, beta, region).sum(axis=1)
    return out


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
    legs = config.legs(region.n_slices)
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
    return loops_in_config_energies([loop.path], config, V, beta, region, skip)[0]


def loops_in_config_energies(
    paths, config: LoopConfiguration, V: PairPotential, beta: float, region: BoxRegion, skip=-1
) -> list:
    """loop_in_config_energy of each loop path (winding * n_slices + 1, d) of
    `paths` against the same configuration and skip, with one broadcast of
    all their legs against the configuration's.  Each loop's leg pairs are
    summed on their own, in the order of a call for that loop alone, so every
    entry has the bits of such a call."""
    ns = region.n_slices
    legs = [path.take(_loop_leg_index((len(path) - 1) // ns, ns), axis=0) for path in paths]
    out = [_distinct(own, V, beta, region) for own in legs]
    others = config.legs(ns, skip)
    if not len(others):
        return out
    e = _leg_pair_energies(np.concatenate(legs)[:, None] - others, V, beta, region)
    start = 0
    for k, own in enumerate(legs):
        out[k] += float(e[start : start + len(own)].sum())
        start += len(own)
    return out


# -- batched energies: one broadcast per Monte Carlo sector ---------------------


def pair_energies(a: np.ndarray, b: np.ndarray, V: PairPotential, beta: float, region: BoxRegion) -> np.ndarray:
    """pair_energy of loops a[i] and b[i] for stacked paths a (B, ja * n_slices
    + 1, d) and b (B, jb * n_slices + 1, d), each of one winding; a stack of
    one loop broadcasts against the other."""
    legs_a, legs_b = _stacked_legs(a, region), _stacked_legs(b, region)
    e = _leg_pair_energies(legs_a[:, :, None] - legs_b[:, None], V, beta, region)
    return e.sum(axis=(1, 2))


def intra_energies(paths: np.ndarray, V: PairPotential, beta: float, region: BoxRegion) -> np.ndarray:
    """intra_energy of each of the stacked paths (B, j * n_slices + 1, d) of one winding."""
    return _distinct_per_row(_stacked_legs(paths, region), V, beta, region)


def added_loop_energies(paths: np.ndarray, configs, V: PairPotential, beta: float, region: BoxRegion) -> np.ndarray:
    """loop_in_config_energy of loop b, stacked paths (B, j * n_slices + 1, d)
    of one winding, against configs[b], including the loop's intra term."""
    legs = _stacked_legs(paths, region)
    total = _distinct_per_row(legs, V, beta, region)
    batch = as_batch(configs)
    if not batch.windings.size:
        return total
    others = batch.knots.take(leg_index(batch.windings, region.n_slices), axis=0)
    owner = np.repeat(np.arange(len(batch)), batch.particle_numbers)
    block = max(1, _BROADCAST_FLOATS // legs[0].size)
    e = np.empty(len(others))
    for a in range(0, len(others), block):
        diff = legs[owner[a : a + block]] - others[a : a + block, None]
        e[a : a + block] = _leg_pair_energies(diff, V, beta, region).sum(axis=1)
    return total + np.bincount(owner, weights=e, minlength=len(batch))


def interaction_energies(configs, V: PairPotential, beta: float, region: BoxRegion) -> np.ndarray:
    """interaction_energy of each configuration of a batch.

    Configurations of equal leg count are stacked and summed together; one
    that interaction_energy sums in blocks goes to it.
    """
    batch = as_batch(configs)
    out = np.zeros(len(batch))
    if not batch.windings.size:
        return out
    legs = batch.knots.take(leg_index(batch.windings, region.n_slices), axis=0)
    counts = batch.particle_numbers
    starts = np.cumsum(counts) - counts
    for m in np.unique(counts[counts > 1]):
        members = np.flatnonzero(counts == m)
        if m * m * legs[0].size > _BROADCAST_FLOATS:
            out[members] = [interaction_energy(batch[c], V, beta, region) for c in members]
        else:
            out[members] = _distinct_per_row(legs[starts[members, None] + np.arange(m)], V, beta, region)
    return out
