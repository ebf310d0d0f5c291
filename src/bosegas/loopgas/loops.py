"""Closed discretized Brownian bridges and packed loop configurations.

A loop is its winding number and its path of knots, nothing more.  A
winding-j loop carries j particles: its path visits j beta-legs on a common
time grid of n_slices knots per leg, so it has j * n_slices + 1 knots and leg
a is knots a * n_slices .. (a + 1) * n_slices.  Its base is the first knot
and its image the closure vector, last knot minus first: a periodic loop
drawn unwrapped may close onto a lattice image of its base (spatial
winding), while the chain's loops are wrapped into the box and close onto
their base.  Both are read from the path, never stored beside it.

A LoopConfiguration is packed as a struct of arrays: the paths of all its
loops back to back in one (K, d) `knots` array, loop i occupying knots
offsets[i] .. offsets[i + 1] - 1, with `windings` (n,).
Every beta-leg of every loop is read from `knots` through one index array
(`leg_index`), so the energy layer sees the configuration as a single
(n_legs, n_slices + 1, d) array of legs, which `legs` builds on first use
and keeps.  The arrays are read-only and a configuration is never edited in
place: `spliced` and `replaced` return new configurations, which a
Metropolis move can build without touching the current state.  `.loops`
gives read-only BridgeLoop views for callers that work loop by loop.

A LoopBatch packs many configurations the same way, sample after sample,
with per-sample loop offsets `loop_starts`: the free sampler returns one, and
the batched consumers (pairings, batched energies, Gibbs weights, densities)
read its arrays directly through `as_batch`, which packs a list of
configurations into the same arrays.  `batch[s]` is a read-only
LoopConfiguration view of sample s, and slicing and iteration keep working
for callers that expect a list.

Bridge interiors follow recursive midpoint construction: split the knot
range at its midpoint, draw the midpoint from the exact Gaussian conditional
(variance 2 dt_left dt_right / dt_total per coordinate), recurse.  The
schedule is deterministic, so every knot is one fixed linear combination of
the two endpoints and the scaled normals of the midpoints above it.  That
map depends only on (n_intervals, dtau), and a batch of bridges is one draw
of all its normals (in schedule order, as the recursion consumed them) and
one matrix product.  Maps of up to _CACHED_INTERVALS = 256 intervals (about
0.5 MB each) are cached, which covers every winding the samplers reuse.  A
caller that reads only the first k knots (a test function that vanishes
after t_max) asks fill_bridges for knots=k.  A midpoint enters only the knots
strictly inside its range, so those k knots read the endpoints and the
midpoints whose range starts before knot k - 1: only their normals are
drawn, and only the map's first k rows over their columns are applied.  The
k knots have the law of a whole bridge's first k knots, drawn from a
shorter stream; a whole fill draws every normal, as the recursion does.
Every bridge in a box, in the free sampler, the chain and the density
matrix, is a box_bridges draw: the box draws its winding image
(regions.winding_images) and fill_bridges its knots.
"""

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .regions import BoxRegion, winding_images


@dataclass
class BridgeLoop:
    """One closed bridge: winding number and unwrapped path of knots.

    path has shape (winding * n_slices + 1, d).  Its base is path[0], and its
    image path[-1] - path[0] is the closure vector: a lattice vector of L
    for a periodic loop, zero for a Dirichlet loop (whose knots all lie
    strictly inside the box).
    """

    winding: int
    path: np.ndarray

    @property
    def base(self) -> np.ndarray:
        return self.path[0]

    @property
    def image(self) -> np.ndarray:
        return self.path[-1] - self.path[0]


def leg_index(windings, n_slices: int) -> np.ndarray:
    """Knot indices of the beta-legs of paths packed back to back, each of
    winding * n_slices + 1 knots: row l lists the n_slices + 1 knots of leg
    l, the legs coming loop by loop.

    Leg a of the i-th loop starts after the a * n_slices body knots of its
    own earlier legs, the body knots of all earlier loops (a multiple of
    n_slices) and their i closure knots, so the legs' first knots are
    n_slices * (leg number) + (loop number).
    """
    first = np.arange(len(windings)).repeat(windings)
    first += np.arange(0, n_slices * first.size, n_slices)
    return first[:, None] + np.arange(n_slices + 1)


def _packed_legs(packed, n_slices: int) -> np.ndarray:
    """(n_legs, n_slices + 1, d) legs of the loops of a LoopConfiguration or a
    LoopBatch, loop by loop.  A loop whose path does not have winding *
    n_slices + 1 knots is refused: its legs would be read from the wrong knots."""
    if np.any(np.diff(packed.offsets) != packed.windings * n_slices + 1):
        raise ValueError(f"loop paths do not have winding * {n_slices} + 1 knots")
    return packed.knots.take(leg_index(packed.windings, n_slices), axis=0)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _loop_leg_index(winding: int, n_slices: int) -> np.ndarray:
    """leg_index of one loop, shared by every call with the same sizes."""
    return _frozen(leg_index([winding], n_slices))


def _stack(blocks, like: np.ndarray) -> np.ndarray:
    """Row-wise concatenation that skips empty blocks (an empty configuration
    does not know its dimension); a fresh empty array like `like` if none."""
    blocks = [b for b in blocks if len(b)]
    return np.concatenate(blocks) if blocks else like[:0].copy()


class LoopConfiguration:
    """Multiset of loops, packed; the particle number is the total winding.

    Built either from BridgeLoops, LoopConfiguration(loops=[...]), or from
    the packed arrays LoopConfiguration(knots=..., offsets=..., windings=...).
    The arrays are adopted, not copied, and made read-only.
    """

    __slots__ = ("knots", "offsets", "windings", "_legs")

    def __init__(self, loops=(), *, knots=None, offsets=None, windings=None):
        if knots is None:
            loops = list(loops)
            windings = np.array([lp.winding for lp in loops], dtype=int)
            knots = np.concatenate([lp.path for lp in loops]).astype(float, copy=False) if loops else np.empty((0, 0))
            offsets = np.concatenate([[0], np.cumsum([lp.path.shape[0] for lp in loops], dtype=int)])
        self.knots = _frozen(knots)
        self.offsets = _frozen(offsets)
        self.windings = _frozen(windings)
        self._legs = None

    def legs(self, n_slices: int, skip=()) -> np.ndarray:
        """Read-only (n_legs, n_slices + 1, d) legs of every loop, loop by loop
        (knots.take(leg_index(windings, n_slices)); ValueError if a path does
        not have winding * n_slices + 1 knots), built on the first call and
        kept: the configuration never changes.  skip, an index or a sequence
        of indices, leaves those loops' legs out (indices outside the
        configuration are ignored); the others keep their order."""
        if self._legs is None or self._legs.shape[1] != n_slices + 1:
            self._legs = _frozen(_packed_legs(self, n_slices))
        if isinstance(skip, (int, np.integer)):
            skip = (skip,)
        runs, start = [], 0
        for i in sorted({int(i) for i in skip if 0 <= i < self.loop_count}):
            first = self._first_leg(i, n_slices)
            runs.append(self._legs[start:first])
            start = first + int(self.windings[i])
        return np.concatenate(runs + [self._legs[start:]]) if runs else self._legs

    def _first_leg(self, i: int, n_slices: int) -> int:
        """Row of loop i's first leg in legs(): it follows the i closure knots
        and n_slices body knots per leg of the loops before it."""
        return (int(self.offsets[i]) - i) // n_slices

    @property
    def particle_number(self) -> int:
        return int(self.windings.sum())

    @property
    def loop_count(self) -> int:
        return self.windings.shape[0]

    def loop(self, i: int) -> BridgeLoop:
        """Read-only view of loop i."""
        path = self.knots[self.offsets[i] : self.offsets[i + 1]]
        return BridgeLoop(winding=int(self.windings[i]), path=path)

    @property
    def loops(self) -> tuple:
        """Read-only views of every loop, in order."""
        return tuple(self.loop(i) for i in range(self.loop_count))

    def copy(self) -> "LoopConfiguration":
        return LoopConfiguration(
            knots=self.knots.copy(),
            offsets=self.offsets.copy(),
            windings=self.windings.copy(),
        )

    def spliced(self, drop=(), add=()) -> "LoopConfiguration":
        """A new configuration: the loops at indices `drop` removed, the
        BridgeLoops `add` appended; the others keep their order."""
        gone = sorted({range(self.loop_count)[i] for i in drop})
        # the kept loops come in runs between dropped ones, each copied as slices
        runs = list(zip([0] + [i + 1 for i in gone], gone + [self.loop_count]))
        lengths = np.diff(self.offsets)
        out = LoopConfiguration(
            knots=_stack([self.knots[self.offsets[a] : self.offsets[b]] for a, b in runs] + [lp.path for lp in add],
                         self.knots),
            offsets=np.cumsum(np.concatenate([np.zeros(1, dtype=int)] + [lengths[a:b] for a, b in runs]
                                             + [np.array([lp.path.shape[0] for lp in add], dtype=int)])),
            windings=np.concatenate([self.windings[a:b] for a, b in runs]
                                    + [np.array([lp.winding for lp in add], dtype=int)]),
        )
        if self._legs is not None:  # built legs carry over: the kept loops', then the added ones'
            ns = self._legs.shape[1] - 1
            if any(lp.path.shape[0] != lp.winding * ns + 1 for lp in add):
                raise ValueError(f"loop paths do not have winding * {ns} + 1 knots")
            added = [lp.path.take(_loop_leg_index(lp.winding, ns), axis=0) for lp in add]
            out._legs = _frozen(_stack([self.legs(ns, gone)] + added, self._legs))
        return out

    def replaced(self, i: int, path: np.ndarray) -> "LoopConfiguration":
        """A new configuration with loop i's path replaced by one of the same
        length (same winding); the other arrays are shared."""
        knots = self.knots.copy()
        knots[self.offsets[i] : self.offsets[i + 1]] = path
        out = LoopConfiguration(knots=knots, offsets=self.offsets, windings=self.windings)
        if self._legs is not None:  # built legs carry over, with loop i's rows replaced
            ns = self._legs.shape[1] - 1
            first, winding = self._first_leg(i, ns), int(self.windings[i])
            legs = self._legs.copy()
            legs[first : first + winding] = path.take(_loop_leg_index(winding, ns), axis=0)
            out._legs = _frozen(legs)
        return out


class LoopBatch:
    """Read-only packed batch of configurations (samples).

    The LoopConfiguration arrays of every sample back to back, sample after
    sample: `knots` (K, d), `offsets` (n_loops + 1,) and `windings`
    (n_loops,), plus `loop_starts` (n_samples + 1,), so that
    sample s holds loops loop_starts[s] .. loop_starts[s + 1] - 1.  The
    arrays are adopted, not copied, and made read-only.

    len(batch) counts samples; batch[s] is a read-only LoopConfiguration
    view of sample s (an empty one for a sample without loops), a slice is a
    LoopBatch, and iteration gives configurations.
    """

    __slots__ = ("knots", "offsets", "windings", "loop_starts")

    def __init__(self, *, knots, offsets, windings, loop_starts):
        self.knots = _frozen(knots)
        self.offsets = _frozen(offsets)
        self.windings = _frozen(windings)
        self.loop_starts = _frozen(loop_starts)

    def __len__(self) -> int:
        return self.loop_starts.size - 1

    @property
    def loop_counts(self) -> np.ndarray:
        return np.diff(self.loop_starts)

    @property
    def owner(self) -> np.ndarray:
        """Sample index of each loop."""
        return np.repeat(np.arange(len(self)), self.loop_counts)

    @property
    def particle_numbers(self) -> np.ndarray:
        """Total winding of each sample."""
        summed = np.concatenate([[0], np.cumsum(self.windings)])
        return np.diff(summed[self.loop_starts])

    def _arrays(self, first: int, last: int) -> dict:
        """The packed arrays of samples first .. last - 1 (views)."""
        a, b = self.loop_starts[first], self.loop_starts[last]
        k0 = self.offsets[a]
        return dict(
            knots=self.knots[k0 : self.offsets[b]],
            offsets=self.offsets[a : b + 1] - k0,
            windings=self.windings[a:b],
        )

    def __getitem__(self, s):
        if isinstance(s, slice):
            first, last, step = s.indices(len(self))
            if step != 1:
                return as_batch([self[i] for i in range(first, last, step)])
            last = max(first, last)
            starts = self.loop_starts[first : last + 1] - self.loop_starts[first]
            return LoopBatch(**self._arrays(first, last), loop_starts=starts)
        s = operator.index(s)
        if s < 0:
            s += len(self)
        if not 0 <= s < len(self):
            raise IndexError("sample index out of range")
        if self.loop_starts[s] == self.loop_starts[s + 1]:
            return LoopConfiguration()
        return LoopConfiguration(**self._arrays(s, s + 1))

    def __iter__(self):
        return (self[s] for s in range(len(self)))


def as_batch(configs) -> LoopBatch:
    """The packed arrays of a batch of configurations: a LoopBatch as it is,
    a sequence of LoopConfigurations packed into one."""
    if isinstance(configs, LoopBatch):
        return configs
    configs = list(configs)
    loop_starts = np.concatenate([[0], np.cumsum([c.loop_count for c in configs], dtype=int)])
    full = [c for c in configs if c.loop_count]
    if not full:
        empty = LoopConfiguration()
        return LoopBatch(knots=empty.knots, offsets=empty.offsets, windings=empty.windings, loop_starts=loop_starts)
    lengths = np.concatenate([np.diff(c.offsets) for c in full])
    return LoopBatch(
        knots=np.concatenate([c.knots for c in full]),
        offsets=np.concatenate([[0], np.cumsum(lengths)]),
        windings=np.concatenate([c.windings for c in full]),
        loop_starts=loop_starts,
    )


def _midpoint_schedule(n_intervals: int):
    """Deterministic (a, m, b) splitting order for a bridge over n_intervals steps."""
    out = []
    stack = [(0, n_intervals)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        m = (a + b) // 2
        out.append((a, m, b))
        stack.append((a, m))
        stack.append((m, b))
    return out


# Maps of up to this many intervals (at most 0.5 MB each) are cached: the
# identity checks reuse windings up to 22 at 8 slices, 176 intervals.  A
# longer bridge serves a batch whose own cost dwarfs building its map.
_CACHED_INTERVALS = 256


def _bridge_map(n_intervals: int, dtau: float) -> np.ndarray:
    """(n + 1, n + 1) map from (x0, x1, normal of each midpoint in schedule
    order) to the knots of the midpoint construction.

    Each step interpolates linearly between the ends of its range, so the
    endpoints enter every knot linearly in time, and the normal drawn at
    midpoint m of range (a, b) enters with its standard deviation times the
    hat function that is 1 at m and falls linearly to 0 at a and at b.
    """
    a, m, b = np.array(_midpoint_schedule(n_intervals), dtype=int).reshape(-1, 3).T
    t = dtau * np.arange(n_intervals + 1)
    ta, tm, tb = t[a], t[m], t[b]
    sd = np.sqrt(2.0 * (tm - ta) * (tb - tm) / (tb - ta))
    rise = (t[:, None] - ta) * (sd / (tm - ta))
    fall = (tb - t[:, None]) * (sd / (tb - tm))
    coef = np.empty((n_intervals + 1, n_intervals + 1))
    coef[:, 0] = (t[-1] - t) / t[-1]
    coef[:, 1] = t / t[-1]
    np.maximum(np.minimum(rise, fall), 0.0, out=coef[:, 2:])
    coef.flags.writeable = False
    return coef


_cached_bridge_map = lru_cache(maxsize=64)(_bridge_map)


def fill_bridges(
    x0: np.ndarray, x1: np.ndarray, n_intervals: int, dtau: float, rng, knots: int | None = None
) -> np.ndarray:
    """Batch of discrete Brownian bridges between fixed endpoints.

    x0, x1: (batch, d) endpoints; returns (batch, n_intervals + 1, d) with the
    exact Gaussian bridge law at the knot times (variance 2 t per coordinate).
    A whole fill advances the generator by one (n_intervals - 1, batch, d)
    normal draw, the stream the recursion draws midpoint by midpoint.

    With `knots` given (1 .. n_intervals + 1), only the first `knots` knots
    are filled and returned, (batch, knots, d).  Midpoint (a, m, b) enters
    knots a + 1 .. b - 1 only, so those knots read the map's columns that are
    nonzero in its first `knots` rows: the endpoints and the midpoints with
    a < knots - 1.  Only their normals are drawn, one (columns - 2, batch, d)
    block in schedule order, and the map's first rows over those columns are
    applied.  The knots keep the law of the whole bridge's first knots, on a
    stream of their own; at knots = n_intervals + 1 every column is read, and
    the draw and the product are those of a whole fill.
    """
    batch, d = x0.shape
    rows = n_intervals + 1 if knots is None else knots
    if not 1 <= rows <= n_intervals + 1:
        raise ValueError(f"knots = {knots} outside 1 .. n_intervals + 1 = {n_intervals + 1}")
    small = n_intervals <= _CACHED_INTERVALS
    bridge_map = (_cached_bridge_map if small else _bridge_map)(n_intervals, dtau)
    coef = bridge_map[:rows]
    if rows <= n_intervals:  # a prefix reads the map's columns nonzero in its rows
        read = coef.any(axis=0)
        read[1] = True  # x1 enters every knot but the first
        coef = coef.compress(read, axis=1)
    # the map's input: the endpoints, then the normals of the midpoints read
    src = np.empty((coef.shape[1], batch, d))
    src[0] = x0
    src[1] = x1
    rng.standard_normal(out=src[2:])
    # with the draw transposed, BLAS writes each coordinate's knots in a row,
    # and only the d coordinates of a bridge remain to be interleaved
    out = src.reshape(coef.shape[1], -1).T.dot(coef.T).reshape(batch, d, rows)
    return np.ascontiguousarray(out.swapaxes(1, 2))


def box_bridges(x0: np.ndarray, x1, n_intervals: int, dtau: float, region: BoxRegion, rng, knots: int | None = None):
    """Bridges over n_intervals knot spacings dtau from x0 (batch, d) to
    winding images of x1 ((batch, d) or (d,)), all with one displacement x1 -
    x0: the images (batch, d) from winding_images at time n_intervals * dtau
    (kernel-weighted periodic; zeros and no draw Dirichlet), then the knots
    from fill_bridges, `knots` of them as there.  Returns the unwrapped
    paths."""
    dx = np.broadcast_to(x1, x0.shape)[0] - x0[0]
    images = winding_images(dx, x0.shape[0], region, n_intervals * dtau, rng)
    return fill_bridges(x0, x1 + images * region.L, n_intervals, dtau, rng, knots)
