"""Time-aligned interaction energies of loop configurations.

All loops share the same beta grid, so the pair energy between two legs is a
single trapezoid sum over one period:

    e(leg_k, leg_l) = integral_0^beta V(omega_k(tau) - omega_l(tau)) dtau.

The configuration energy collects every unordered pair of legs on distinct
loops plus every unordered pair of distinct legs within one loop; the same-leg
diagonal V(0) never enters (normal ordering removes it).  Together these are
exactly the unordered pairs of distinct legs of the whole configuration.

Two kernels compute every energy: `_leg_pair_energies` gives the trapezoid
energy of each leg pair of a broadcast, and `_distinct_per_row` sums it over
the unordered pairs of distinct legs of each row of stacked legs (B, n_legs,
n_slices + 1, d).  The batched energies price many loops, stacked paths (B,
j * n_slices + 1, d) of one winding, or configurations (a LoopBatch, or a
list that `as_batch` packs) at once:

    pair_energies             loop a[b] against loop b[b];
    intra_energies            each loop's own pairs;
    interaction_energies      each configuration's pairs, configurations of
                              equal leg count stacked;
    added_loop_energies       loop b against configuration b plus its own
                              pairs (bincount per owner);
    loops_in_config_energies  several loops against the same configuration
                              in one broadcast, each loop's block summed on
                              its own, plus its own pairs.

The scalar energies are these sums applied to a stack of one, so they agree
with them bit for bit: pair_energy, intra_energy and loop_in_config_energy
price one loop, and interaction_energy sums the legs LoopConfiguration.legs
keeps.  (added_loop_energies adds a loop's pairs per leg of the configuration
first, so it agrees with loop_in_config_energy to rounding.)  One broadcast
holds at most _BROADCAST_FLOATS displacement floats; larger sums go in
blocks, which changes only their rounding.  A path whose knot count is not
winding * n_slices + 1 is refused with ValueError wherever it enters.

The trapezoid kernel makes one pass per potential kind over arrays it owns.
It takes the displacements at their minimum image (periodic boxes; a new
array, so the caller's displacements are left as they are), forms the
squared distances r2 in one einsum (one square at d = 1), and hands r2 to
`V.of_squared`, which returns V at sqrt(r2) and may overwrite r2 in place:
the hard core and the Gaussian bump evaluate there in one pass, any other
potential takes the square root and its own call.  Each kind returns the bits of V(r), so the
energies do not depend on which path priced them.

A hard-core contact returns +inf, which the Gibbs weight turns into zero.
Periodic boxes take each displacement at its minimum image, so every public
energy refuses, before it prices or skips anything, a potential of range
beyond L/2, and in any box one of another dimension (`check_image_range`,
which GibbsChain also runs at set-up).
"""

from functools import lru_cache

import numpy as np

from ..errors import TruncationError
from .loops import BridgeLoop, LoopConfiguration, _loop_leg_index, _packed_legs, as_batch
from .potential import PairPotential
from .regions import PERIODIC, BoxRegion, min_image

# Displacement floats one broadcast may hold (32 MB); larger sums go in blocks.
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


def _stacked_legs(paths: np.ndarray, region: BoxRegion) -> np.ndarray:
    """(..., j, n_slices + 1, d) legs of paths (..., j * n_slices + 1, d)."""
    ns = region.n_slices
    winding = (paths.shape[-2] - 1) // ns
    if paths.shape[-2] != winding * ns + 1:
        raise ValueError(f"loop paths do not have winding * {ns} + 1 knots")
    return paths.take(_loop_leg_index(winding, ns), axis=-2)


def _stack_of_one(loop: BridgeLoop, region: BoxRegion) -> np.ndarray:
    """A loop's path as a stack of one, refused unless it has winding * n_slices + 1 knots."""
    if loop.path.shape[0] != loop.winding * region.n_slices + 1:
        raise ValueError(f"loop paths do not have winding * {region.n_slices} + 1 knots")
    return loop.path[None]


def check_image_range(V: PairPotential | None, region: BoxRegion) -> None:
    """Refuse a potential V of another dimension than the box (ValueError),
    or a periodic box that V's range reaches across (TruncationError).

    Periodic energies count each pair at its minimum image, which holds every
    image within reach only while V.range <= L/2; past that the further
    images would be dropped without a word.
    """
    if V is None:
        return
    if V.d != region.d:
        raise ValueError(f"a potential in d = {V.d} cannot price paths in a box of d = {region.d}")
    if region.boundary == PERIODIC and V.range > region.L / 2:
        raise TruncationError(
            f"potential range {V.range:g} exceeds half the box side {region.L / 2:g}: "
            "minimum-image energies would drop image pairs"
        )


def _leg_pair_energies(diff: np.ndarray, V: PairPotential, beta: float, region: BoxRegion) -> np.ndarray:
    """Trapezoid energy of each leg pair: displacements diff (..., n_slices + 1, d)
    give energies (...), +inf on any hard-core contact.  The squared distances
    are a buffer of the kernel's own, which V.of_squared may overwrite."""
    if region.boundary == PERIODIC:
        diff = min_image(diff, region.L)
    r2 = np.square(diff[..., 0]) if diff.shape[-1] == 1 else np.einsum("...k,...k->...", diff, diff)
    w = _trapezoid_weights(region.n_slices + 1, beta / region.n_slices)
    return V.of_squared(r2) @ w


def _distinct_per_row(legs: np.ndarray, V, beta, region) -> np.ndarray:
    """Energy of the unordered pairs of distinct legs of each row of stacked
    legs (B, n_legs, n_slices + 1, d), pair by pair in the row-by-row order of
    the upper triangle.  Rows go in blocks of rows; a row whose pairs alone
    exceed one broadcast goes in blocks of pairs, each block the pairs of a
    run of triangle rows, whose indices are built for that block alone
    rather than cached for the whole triangle."""
    out = np.zeros(len(legs))
    n = legs.shape[1]
    pairs = n * (n - 1) // 2
    if not pairs:
        return out
    per_block = max(1, _BROADCAST_FLOATS // (legs.shape[2] * legs.shape[3]))
    if pairs <= per_block:
        i, k = _upper_pairs(n)
        rows = per_block // pairs
        for a in range(0, len(legs), rows):
            block = legs[a : a + rows]
            e = _leg_pair_energies(block.take(i, axis=1) - block.take(k, axis=1), V, beta, region)
            out[a : a + rows] = e.sum(axis=1)
        return out
    heads, idx = max(1, per_block // (n - 1)), np.arange(n)
    for h in range(0, n - 1, heads):
        i, k = np.nonzero(idx[h : h + heads, None] < idx)
        for b, row in enumerate(legs):
            out[b] += _leg_pair_energies(row[h + i] - row[k], V, beta, region).sum()
    return out


# -- batched energies: one broadcast per Monte Carlo sector or move ------------


def pair_energies(a: np.ndarray, b: np.ndarray, V: PairPotential, beta: float, region: BoxRegion) -> np.ndarray:
    """pair_energy of loops a[i] and b[i] for stacked paths a (B, ja * n_slices
    + 1, d) and b (B, jb * n_slices + 1, d), each of one winding; a stack of
    one loop broadcasts against the other."""
    check_image_range(V, region)
    legs_a, legs_b = _stacked_legs(a, region), _stacked_legs(b, region)
    e = _leg_pair_energies(legs_a[:, :, None] - legs_b[:, None], V, beta, region)
    return e.sum(axis=(1, 2))


def intra_energies(paths: np.ndarray, V: PairPotential, beta: float, region: BoxRegion) -> np.ndarray:
    """intra_energy of each of the stacked paths (B, j * n_slices + 1, d) of one winding."""
    check_image_range(V, region)
    return _distinct_per_row(_stacked_legs(paths, region), V, beta, region)


def added_loop_energies(paths: np.ndarray, configs, V: PairPotential, beta: float, region: BoxRegion) -> np.ndarray:
    """loop_in_config_energy of loop b, stacked paths (B, j * n_slices + 1, d)
    of one winding, against configs[b], including the loop's intra term."""
    check_image_range(V, region)
    legs = _stacked_legs(paths, region)
    total = _distinct_per_row(legs, V, beta, region)
    batch = as_batch(configs)
    if not batch.windings.size:
        return total
    others = _packed_legs(batch, region.n_slices)
    owner = np.repeat(np.arange(len(batch)), batch.particle_numbers)
    block = max(1, _BROADCAST_FLOATS // legs[0].size)
    e = np.empty(len(others))
    for a in range(0, len(others), block):
        diff = legs[owner[a : a + block]] - others[a : a + block, None]
        e[a : a + block] = _leg_pair_energies(diff, V, beta, region).sum(axis=1)
    return total + np.bincount(owner, weights=e, minlength=len(batch))


def interaction_energies(configs, V: PairPotential, beta: float, region: BoxRegion) -> np.ndarray:
    """interaction_energy of each configuration of a batch; configurations of
    equal leg count are stacked and summed together."""
    check_image_range(V, region)
    batch = as_batch(configs)
    out = np.zeros(len(batch))
    if not batch.windings.size:
        return out
    legs = _packed_legs(batch, region.n_slices)
    counts = batch.particle_numbers
    starts = np.cumsum(counts) - counts
    for m in np.unique(counts[counts > 1]):
        members = np.flatnonzero(counts == m)
        out[members] = _distinct_per_row(legs[starts[members, None] + np.arange(m)], V, beta, region)
    return out


def loops_in_config_energies(
    paths, config: LoopConfiguration, V: PairPotential, beta: float, region: BoxRegion, skip=-1
) -> list:
    """loop_in_config_energy of each loop path (winding * n_slices + 1, d) of
    `paths` against the same configuration and skip, with one broadcast of
    all their legs against the configuration's.  Each loop's leg pairs are
    summed on their own, in the order of a call for that loop alone, so every
    entry has the bits of such a call."""
    check_image_range(V, region)
    legs = [_stacked_legs(path, region) for path in paths]
    out = [float(_distinct_per_row(own[None], V, beta, region)[0]) for own in legs]
    others = config.legs(region.n_slices, skip)
    if not len(others):
        return out
    e = _leg_pair_energies(np.concatenate(legs)[:, None] - others, V, beta, region)
    start = 0
    for k, own in enumerate(legs):
        out[k] += float(e[start : start + len(own)].sum())
        start += len(own)
    return out


# -- scalar energies: the batched ones on a stack of one -------------------------


def pair_energy(
    a: BridgeLoop, b: BridgeLoop, V: PairPotential, beta: float, region: BoxRegion
) -> float:
    """Sum over leg pairs (alpha on a, gamma on b) of the one-period trapezoid."""
    return float(pair_energies(_stack_of_one(a, region), _stack_of_one(b, region), V, beta, region)[0])


def intra_energy(loop: BridgeLoop, V: PairPotential, beta: float, region: BoxRegion) -> float:
    """Unordered distinct-leg pairs within one loop; zero for winding 1."""
    return float(intra_energies(_stack_of_one(loop, region), V, beta, region)[0])


def interaction_energy(
    config: LoopConfiguration, V: PairPotential, beta: float, region: BoxRegion
) -> float:
    """Full configuration energy: every unordered pair of distinct legs."""
    check_image_range(V, region)
    return float(_distinct_per_row(config.legs(region.n_slices)[None], V, beta, region)[0])


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
    return loops_in_config_energies(_stack_of_one(loop, region), config, V, beta, region, skip)[0]
