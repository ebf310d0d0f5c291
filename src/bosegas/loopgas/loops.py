"""Closed discretized Brownian bridges and packed loop configurations.

A winding-j loop carries j particles: its path visits j beta-legs on a common
time grid of n_slices knots per leg, so it has j * n_slices + 1 knots and leg
a is knots a * n_slices .. (a + 1) * n_slices.  Paths are stored unwrapped;
periodic loops may close onto a lattice image of their base point (spatial
winding), in which case the wrapped view satisfies the closure identity
modulo L.

A LoopConfiguration is packed as a struct of arrays: the paths of all its
loops back to back in one (K, d) `knots` array, loop i occupying knots
offsets[i] .. offsets[i + 1] - 1, with `windings` (n,) and `images` (n, d).
Every beta-leg of every loop is read from `knots` through one index array
(`leg_index`), so the energy layer sees the configuration as a single
(n_legs, n_slices + 1, d) array of legs.  The arrays are read-only and a
configuration is never edited in place: `spliced` and `replaced` return new
configurations, which a Metropolis move can build without touching the
current state.  `.loops` gives read-only BridgeLoop views for callers that
work loop by loop.

A LoopBatch packs many configurations the same way, sample after sample,
with per-sample loop offsets `loop_starts`: the free sampler returns one, and
the batched consumers (pairings, batched energies, Gibbs weights, densities)
read its arrays directly through `as_batch`, which packs a list of
configurations into the same arrays.  `batch[s]` is a read-only
LoopConfiguration view of sample s, and slicing, iteration and `[cfg] +
batch` keep working for callers that expect a list.

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
after t_max) asks fill_bridges for knots=k: every normal is still drawn, so
the generator stream is the same, and only the map's first k rows are
applied.  `bridges_from_normals` applies the same map to normals drawn
bridge by bridge, so a batch can reproduce the stream of one-row
fill_bridges calls.
"""

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .regions import PERIODIC, BoxRegion, _image_range, wrap


@dataclass
class BridgeLoop:
    """One closed bridge: base point, winding number, unwrapped path of knots.

    path has shape (winding * n_slices + 1, d) with path[0] = base and
    path[-1] = base + image * L (image is the spatial winding vector; zero for
    Dirichlet loops, whose knots all lie strictly inside the box).
    """

    base: np.ndarray
    winding: int
    path: np.ndarray
    image: np.ndarray

    def n_knots(self) -> int:
        return self.path.shape[0]

    def wrapped(self, L: float) -> np.ndarray:
        return wrap(self.path, L)

    def validate(self, region: BoxRegion):
        if self.winding < 1:
            raise ValueError("winding must be >= 1")
        expect = self.winding * region.n_slices + 1
        if self.path.shape != (expect, region.d):
            raise ValueError(f"path must have shape ({expect}, {region.d})")
        if region.boundary == PERIODIC:
            if not np.allclose(self.path[-1], self.path[0] + self.image * region.L):
                raise ValueError("periodic loop must close onto an image of its base")
        else:
            if np.any(self.image != 0):
                raise ValueError("dirichlet loops carry no spatial winding")
            if not np.allclose(self.path[-1], self.path[0]):
                raise ValueError("loop must close")
            inner = self.path
            if inner.min() <= 0 or inner.max() >= region.L:
                raise ValueError("dirichlet loop knots must stay strictly inside the box")


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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _stack(blocks, like: np.ndarray) -> np.ndarray:
    """Row-wise concatenation that skips empty blocks (an empty configuration
    does not know its dimension); a fresh empty array like `like` if none."""
    blocks = [b for b in blocks if len(b)]
    return np.concatenate(blocks) if blocks else like[:0].copy()


class LoopConfiguration:
    """Multiset of loops, packed; the particle number is the total winding.

    Built either from BridgeLoops, LoopConfiguration(loops=[...]) (each
    loop's base is taken to be path[0]), or from the packed arrays
    LoopConfiguration(knots=..., offsets=..., windings=..., images=...).  The
    arrays are adopted, not copied, and made read-only.
    """

    __slots__ = ("knots", "offsets", "windings", "images")

    def __init__(self, loops=(), *, knots=None, offsets=None, windings=None, images=None):
        if knots is None:
            loops = list(loops)
            windings = np.array([lp.winding for lp in loops], dtype=int)
            if loops:
                knots = np.concatenate([lp.path for lp in loops]).astype(float, copy=False)
                images = np.array([lp.image for lp in loops], dtype=int)
            else:
                knots = np.empty((0, 0))
                images = np.empty((0, 0), dtype=int)
            offsets = np.concatenate([[0], np.cumsum([lp.path.shape[0] for lp in loops], dtype=int)])
        self.knots = _frozen(knots)
        self.offsets = _frozen(offsets)
        self.windings = _frozen(windings)
        self.images = _frozen(images)

    @property
    def particle_number(self) -> int:
        return int(self.windings.sum())

    @property
    def loop_count(self) -> int:
        return self.windings.shape[0]

    def loop(self, i: int) -> BridgeLoop:
        """Read-only view of loop i."""
        path = self.knots[self.offsets[i] : self.offsets[i + 1]]
        return BridgeLoop(base=path[0], winding=int(self.windings[i]), path=path, image=self.images[i])

    @property
    def loops(self) -> tuple:
        """Read-only views of every loop, in order."""
        return tuple(self.loop(i) for i in range(self.loop_count))

    def winding_histogram(self, j_max: int) -> np.ndarray:
        h = np.bincount(self.windings, minlength=j_max + 1)
        return h[: j_max + 1]

    def copy(self) -> "LoopConfiguration":
        return LoopConfiguration(
            knots=self.knots.copy(),
            offsets=self.offsets.copy(),
            windings=self.windings.copy(),
            images=self.images.copy(),
        )

    def spliced(self, drop=(), add=()) -> "LoopConfiguration":
        """A new configuration: the loops at indices `drop` removed, the
        BridgeLoops `add` appended; the others keep their order."""
        keep = np.ones(self.loop_count, dtype=bool)
        keep[list(drop)] = False
        lengths = np.diff(self.offsets)
        add_lengths = [lp.path.shape[0] for lp in add]
        return LoopConfiguration(
            knots=_stack([self.knots[np.repeat(keep, lengths)]] + [lp.path for lp in add], self.knots),
            offsets=np.concatenate([[0], np.cumsum(np.concatenate([lengths[keep], add_lengths]), dtype=int)]),
            windings=np.concatenate([self.windings[keep], [lp.winding for lp in add]]).astype(int),
            images=_stack([self.images[keep]] + [np.asarray(lp.image, dtype=int)[None] for lp in add], self.images),
        )

    def replaced(self, i: int, path: np.ndarray) -> "LoopConfiguration":
        """A new configuration with loop i's path replaced by one of the same
        length (same winding and image); the other arrays are shared."""
        knots = self.knots.copy()
        knots[self.offsets[i] : self.offsets[i + 1]] = path
        return LoopConfiguration(knots=knots, offsets=self.offsets, windings=self.windings, images=self.images)


class LoopBatch:
    """Read-only packed batch of configurations (samples).

    The LoopConfiguration arrays of every sample back to back, sample after
    sample: `knots` (K, d), `offsets` (n_loops + 1,), `windings` (n_loops,)
    and `images` (n_loops, d), plus `loop_starts` (n_samples + 1,), so that
    sample s holds loops loop_starts[s] .. loop_starts[s + 1] - 1.  The
    arrays are adopted, not copied, and made read-only.

    len(batch) counts samples; batch[s] is a read-only LoopConfiguration
    view of sample s (an empty one for a sample without loops), a slice is a
    LoopBatch, and iteration and `+` with a list give configurations.
    """

    __slots__ = ("knots", "offsets", "windings", "images", "loop_starts")

    def __init__(self, *, knots, offsets, windings, images, loop_starts):
        self.knots = _frozen(knots)
        self.offsets = _frozen(offsets)
        self.windings = _frozen(windings)
        self.images = _frozen(images)
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
            images=self.images[a:b],
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

    def __add__(self, other) -> list:
        return list(self) + list(other)

    def __radd__(self, other) -> list:
        return list(other) + list(self)


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
        return LoopBatch(knots=empty.knots, offsets=empty.offsets, windings=empty.windings,
                         images=empty.images, loop_starts=loop_starts)
    lengths = np.concatenate([np.diff(c.offsets) for c in full])
    return LoopBatch(
        knots=np.concatenate([c.knots for c in full]),
        offsets=np.concatenate([[0], np.cumsum(lengths)]),
        windings=np.concatenate([c.windings for c in full]),
        images=np.concatenate([c.images for c in full]),
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


def _bridge_source(x0: np.ndarray, x1: np.ndarray, n_intervals: int) -> np.ndarray:
    """(n_intervals + 1, batch, d) input of the bridge map with the endpoints
    filled in; rows 2.. take the midpoint normals."""
    src = np.empty((n_intervals + 1, *x0.shape))
    src[0] = x0
    src[1] = x1
    return src


def _map_bridges(src: np.ndarray, dtau: float, knots: int | None = None) -> np.ndarray:
    """The first `knots` knots (all by default), (batch, knots, d), of the
    bridges whose endpoints and midpoint normals are src (n_intervals + 1,
    batch, d)."""
    n_knots, batch, d = src.shape
    n_intervals = n_knots - 1
    small = n_intervals <= _CACHED_INTERVALS
    bridge_map = (_cached_bridge_map if small else _bridge_map)(n_intervals, dtau)
    rows = n_knots if knots is None else knots
    # with the draw transposed, BLAS writes each coordinate's knots in a row,
    # and only the d coordinates of a bridge remain to be interleaved
    out = src.reshape(n_knots, -1).T.dot(bridge_map[:rows].T).reshape(batch, d, rows)
    return np.ascontiguousarray(out.swapaxes(1, 2))


def fill_bridges(
    x0: np.ndarray, x1: np.ndarray, n_intervals: int, dtau: float, rng, knots: int | None = None
) -> np.ndarray:
    """Batch of discrete Brownian bridges between fixed endpoints.

    x0, x1: (batch, d) endpoints; returns (batch, n_intervals + 1, d) with the
    exact Gaussian bridge law at the knot times (variance 2 t per coordinate).
    The generator is advanced by one (n_intervals - 1, batch, d) normal draw,
    the stream the recursion draws midpoint by midpoint.  With `knots` given,
    only the first `knots` knots are filled and returned, (batch, knots, d),
    from the same draw.  They equal the whole bridges' first knots bit for
    bit when BLAS sums each column of the narrower product as it does in the
    full one; with OpenBLAS that held at every size the identity checks use,
    while a one-row product (a matrix-vector call), and with two BLAS threads
    some prefixes of over 100 knots, differed by rounding (at most 4e-15).
    """
    src = _bridge_source(x0, x1, n_intervals)
    rng.standard_normal(out=src[2:])
    return _map_bridges(src, dtau, knots)


def bridges_from_normals(x0: np.ndarray, x1: np.ndarray, normals: np.ndarray, dtau: float) -> np.ndarray:
    """The bridges of fill_bridges from given midpoint normals (batch,
    n_intervals - 1, d), bridge by bridge.

    With normals = rng.standard_normal((batch, n_intervals - 1, d)) these are
    the bridges, and rng is left in the state, of `batch` one-row
    fill_bridges calls, row after row.
    """
    src = _bridge_source(x0, x1, normals.shape[1] + 1)
    src[2:] = normals.swapaxes(0, 1)
    return _map_bridges(src, dtau)


@lru_cache(maxsize=256)
def _image_weights(j: int, beta: float, L: float) -> tuple:
    """(images w, probabilities p) of one coordinate's winding over j beta."""
    t = j * beta
    n = _image_range(L, t, tol=1e-16)
    w = np.arange(-n, n + 1)
    p = np.exp(-((w * L) ** 2) / (4 * t))
    return _frozen(w), _frozen(p / p.sum())


def draw_winding_images(count: int, j: int, beta: float, region: BoxRegion, rng) -> np.ndarray:
    """Spatial winding vectors for periodic loops, per coordinate with the
    image weights exp(-(w L)^2 / (4 j beta))."""
    w, p = _image_weights(j, beta, region.L)
    return rng.choice(w, size=(count, region.d), p=p)


def draw_open_images(x: np.ndarray, y: np.ndarray, count: int, t: float, L: float, rng) -> np.ndarray:
    """Winding images w (count, d) of open periodic bridges x -> y + w L over
    time t, coordinate by coordinate (one rng.choice each) with the kernel
    weights exp(-(y - x + w L)^2 / (4 t))."""
    n = _image_range(L, t, tol=1e-16)
    ws = np.arange(-n, n + 1)
    images = np.empty((count, x.size), dtype=int)
    for k in range(x.size):
        p = np.exp(-((y[k] - x[k] + ws * L) ** 2) / (4 * t))
        images[:, k] = rng.choice(ws, size=count, p=p / p.sum())
    return images


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
