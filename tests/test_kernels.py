"""Batched kernels against the per-path code they replace: the time-integral
kernel, the bridge map and its prefix fills, the packed sample batch,
test-function broadcasting, and the Dirichlet masses at large j beta."""

import numpy as np
import pytest

from bosegas.loopgas import (
    DIRICHLET,
    PERIODIC,
    BoxRegion,
    LoopTestFunction,
    density_from_configs,
    diagonal_mass,
    dirichlet_mode_trace,
    gaussian_repulsion,
    moment_estimate,
    sample_free_poisson,
    sample_free_poisson_batch,
    winding_masses,
)
from bosegas.loopgas.free import (
    _fill_loop_paths,
    _sample_bases,
    config_pairings,
    loop_integrals,
    loop_time_integral,
    pairing,
    time_integrals,
)
from bosegas.loopgas.checks import gibbs_weights
from bosegas.loopgas.regions import _image_range
from bosegas.loopgas.energy import added_loop_energies, interaction_energies
from bosegas.loopgas.loops import (
    _CACHED_INTERVALS,
    LoopBatch,
    LoopConfiguration,
    _bridge_map,
    _cached_bridge_map,
    _midpoint_schedule,
    as_batch,
    draw_open_images,
    fill_bridges,
)
from bosegas.rng import generator

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

BETA = 1.0


def per_path_trapezoid(path, f, beta, region):
    """The trapezoid written out knot by knot, one path at a time."""
    dtau = beta / region.n_slices
    xs = np.mod(path, region.L) if region.boundary == PERIODIC else path
    total = 0.0
    for k in range(path.shape[0]):
        w = dtau / 2 if k in (0, path.shape[0] - 1) else dtau
        total += w * float(np.broadcast_to(f(np.array([k * dtau]), xs[k : k + 1]), (1,))[0])
    return total


def recursive_bridges(x0, x1, n_intervals, dtau, rng):
    """Recursive midpoint construction, one midpoint draw at a time."""
    batch, d = x0.shape
    path = np.empty((batch, n_intervals + 1, d))
    path[:, 0] = x0
    path[:, -1] = x1
    for a, m, b in _midpoint_schedule(n_intervals):
        ta, tm, tb = a * dtau, m * dtau, b * dtau
        w = (tb - tm) / (tb - ta)
        mean = w * path[:, a] + (1 - w) * path[:, b]
        var = 2.0 * (tm - ta) * (tb - tm) / (tb - ta)
        path[:, m] = mean + np.sqrt(var) * rng.standard_normal((batch, d))
    return path


def _wave(ts, xs):
    return np.cos(1.3 * xs[..., 0]) + 0.4 * np.sin(0.7 * xs[..., -1]) * ts


TEST_FUNCTIONS = [
    LoopTestFunction(fn=_wave, t_max=1.6),
    LoopTestFunction(fn=lambda ts, xs: np.ones_like(ts), t_max=0.5),
    LoopTestFunction(fn=lambda ts, xs: 1.0 + ts, t_max=2.0, box=((1.0, 3.0), (0.5, 4.0))),
]


def _paths(region, j, count, seed):
    rng = generator(seed)
    bases = _sample_bases(count, j, BETA, region, rng)
    return _fill_loop_paths(bases, j, BETA, region, rng)[0]


class TestTimeIntegrals:
    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_matches_per_path_trapezoid(self, boundary, j):
        region = BoxRegion(d=2, L=4.0, boundary=boundary, n_slices=6)
        paths = _paths(region, j, 12, seed=100 + j)
        for f in TEST_FUNCTIONS:
            got = time_integrals(paths, f, BETA, region)
            want = [per_path_trapezoid(p, f, BETA, region) for p in paths]
            assert got.shape == (12,)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            assert loop_time_integral(paths[3], f, BETA, region) == pytest.approx(want[3], rel=1e-12)

    def test_leading_axes_and_chunks(self):
        region = BoxRegion(d=2, L=4.0, n_slices=6)
        paths = _paths(region, 2, 3000, seed=7)  # more rows than one chunk holds
        f = TEST_FUNCTIONS[0]
        flat = time_integrals(paths, f, BETA, region)
        block = time_integrals(paths.reshape(30, 100, *paths.shape[1:]), f, BETA, region)
        assert block.shape == (30, 100)
        np.testing.assert_array_equal(block.ravel(), flat)

    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_loop_and_configuration_pairings(self, boundary):
        region = BoxRegion(d=2, L=6.0, boundary=boundary, n_slices=6)
        configs = sample_free_poisson_batch(40, 0.8, BETA, region, rng_seed=8)
        assert len({int(w) for c in configs for w in c.windings}) > 1
        per_loop, owner, totals = config_pairings(configs, TEST_FUNCTIONS, BETA, region)
        row = 0
        for m, cfg in enumerate(configs):
            mine = loop_integrals(cfg, TEST_FUNCTIONS, BETA, region)
            want = [[per_path_trapezoid(lp.path, f, BETA, region) for f in TEST_FUNCTIONS] for lp in cfg.loops]
            np.testing.assert_allclose(mine.reshape(-1, 3), np.reshape(want, (-1, 3)), rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(per_loop[row : row + cfg.loop_count], mine)
            assert (owner[row : row + cfg.loop_count] == m).all()
            row += cfg.loop_count
            for k, f in enumerate(TEST_FUNCTIONS):
                assert totals[m, k] == pytest.approx(pairing(cfg, f, BETA, region), rel=1e-12, abs=1e-12)
        assert row == per_loop.shape[0]


class TestBridgeMap:
    @pytest.mark.parametrize("batch,n,d", [(1, 16, 3), (1, 48, 3), (5, 1, 2), (7, 2, 1), (40, 24, 1), (3, 33, 2)])
    def test_matches_recursive_construction(self, batch, n, d):
        x0 = generator(1).uniform(0, 5, (batch, d))
        x1 = x0 + generator(2).normal(size=(batch, d))
        new_rng, old_rng = generator(3), generator(3)
        got = fill_bridges(x0, x1, n, 0.125, new_rng)
        want = recursive_bridges(x0, x1, n, 0.125, old_rng)
        assert got.shape == (batch, n + 1, d)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got[:, 0], x0)
        np.testing.assert_array_equal(got[:, -1], x1)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
        assert new_rng.random() == old_rng.random()

    def test_large_batch(self):
        x0 = np.zeros((3000, 3))
        got = fill_bridges(x0, x0, 40, 0.1, generator(4))
        want = recursive_bridges(x0, x0, 40, 0.1, generator(4))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestTestFunctionBroadcasting:
    def test_block_of_paths(self):
        ts = 0.25 * np.arange(9)
        xs = generator(5).uniform(0, 4, (6, 9, 2))
        cases = [
            LoopTestFunction(fn=lambda ts, xs: np.ones_like(ts), t_max=1.0),
            LoopTestFunction(fn=lambda ts, xs: np.ones_like(ts), t_max=10.0, box=((1.0, 3.0), (0.0, 2.0))),
            LoopTestFunction(fn=lambda ts, xs: 2.0, t_max=1.0, box=((1.0, 3.0),)),
            LoopTestFunction(fn=_wave, t_max=1.0, box=((0.5, 3.5), (1.0, 4.0))),
        ]
        for f in cases:
            vals = f(ts, xs)
            assert vals.shape == (6, 9)
            for r in range(6):
                np.testing.assert_array_equal(vals[r], f(ts, xs[r]))
            assert (vals[:, ts > f.t_max] == 0).all()
            if f.box is not None:
                lo, hi = f.box[0]
                outside = (xs[..., 0] < lo) | (xs[..., 0] >= hi)
                assert (vals[outside] == 0).all()


class TestDirichletMassesLargeTime:
    def test_masses_nonnegative_and_match_mode_trace(self):
        # the image form cancels to about 1e-16 while the mass is 3.7e-52 at t = 100
        region = BoxRegion(d=3, L=5.0, boundary=DIRICHLET)
        assert diagonal_mass(region, 100.0) == pytest.approx(dirichlet_mode_trace(region, 100.0), rel=1e-12)
        nus, j_max = winding_masses(0.9, BETA, region)
        assert (nus >= 0).all()
        j = np.arange(1, j_max + 1)
        modes = np.array([dirichlet_mode_trace(region, t) for t in j * BETA])
        np.testing.assert_allclose(nus, 0.9**j / j * modes, rtol=1e-9, atol=0)

    def test_sampler_runs_at_high_activity(self):
        region = BoxRegion(d=3, L=5.0, boundary=DIRICHLET, n_slices=8)
        cfg = sample_free_poisson(0.9, BETA, region, rng_seed=9)
        configs = [cfg] + sample_free_poisson_batch(20, 0.9, BETA, region, rng_seed=10)
        knots = np.concatenate([c.knots for c in configs if c.loop_count])
        assert len(knots) and ((knots > 0) & (knots < region.L)).all()


class TestPrefixFills:
    @pytest.mark.parametrize("j", [1, 2, 9, 13, 22])
    @pytest.mark.parametrize("batch,d", [(300, 1), (1200, 1), (40, 3)])
    def test_prefix_equals_whole_bridges(self, j, batch, d):
        # the checks' sizes: 8 slices, t_max = 1 or 2 (9 or 17 knots)
        n = 8 * j
        x0 = generator(j).uniform(0, 5, (batch, d))
        x1 = x0 + 5.0 * generator(j + 1).integers(-1, 2, (batch, d))
        whole_rng = generator(3)
        whole = fill_bridges(x0, x1, n, 0.125, whole_rng)
        for k in sorted({1, min(9, n + 1), min(17, n + 1), n + 1}):
            rng = generator(3)
            part = fill_bridges(x0, x1, n, 0.125, rng, knots=k)
            assert part.shape == (batch, k, d)
            np.testing.assert_array_equal(part, whole[:, :k])
            assert rng.bit_generator.state == whole_rng.bit_generator.state

    def test_single_row_prefix_within_rounding(self):
        # a one-row product is a BLAS matrix-vector call, whose kernel may sum
        # a narrower product in another order
        x0 = np.array([[1.0]])
        whole = fill_bridges(x0, x0 + 5.0, 100, 0.125, generator(3))
        for k in (2, 17, 51):
            part = fill_bridges(x0, x0 + 5.0, 100, 0.125, generator(3), knots=k)
            np.testing.assert_allclose(part, whole[:, :k], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("j", [1, 3, 22])
    def test_time_integral_of_prefix_is_whole_integral(self, j):
        region = BoxRegion(d=2, L=4.0, n_slices=8)
        paths = _paths(region, j, 50, seed=40 + j)
        n_knots = paths.shape[1]
        for f in TEST_FUNCTIONS:
            live = int(np.searchsorted(0.125 * np.arange(n_knots), f.t_max, side="right"))
            whole = time_integrals(paths, f, BETA, region)
            for k in {live, min(live + 3, n_knots), n_knots}:
                got = time_integrals(paths[:, :k], f, BETA, region, n_knots)
                np.testing.assert_array_equal(got, whole)
            if live > 1:
                with pytest.raises(ValueError, match="knots"):
                    time_integrals(paths[:, : live - 1], f, BETA, region, n_knots)

    def test_long_bridge_maps_are_cached(self):
        assert _CACHED_INTERVALS >= 176  # windings up to 22 at 8 slices
        for n in (65, 100, 176, _CACHED_INTERVALS):
            cached = _cached_bridge_map(n, 0.125)
            np.testing.assert_array_equal(cached, _bridge_map(n, 0.125))
            assert not cached.flags.writeable
        hits = _cached_bridge_map.cache_info().hits
        fill_bridges(np.zeros((4, 1)), np.zeros((4, 1)), 176, 0.125, generator(1))
        assert _cached_bridge_map.cache_info().hits == hits + 1


def packed_per_sample(n_configs, z, beta, region, seed):
    """The sampler's generator stream, packed into one configuration per sample
    (each sample's loops in increasing winding)."""
    nus, _ = winding_masses(z, beta, region)
    rng = generator(seed)
    blocks = [[] for _ in range(n_configs)]
    for j in range(1, nus.size + 1):
        counts = rng.poisson(nus[j - 1], size=n_configs)
        if not counts.sum():
            continue
        bases = _sample_bases(int(counts.sum()), j, beta, region, rng)
        paths, images = _fill_loop_paths(bases, j, beta, region, rng)
        ends = np.cumsum(counts)
        for c in np.flatnonzero(counts):
            rows = slice(ends[c] - counts[c], ends[c])
            blocks[c].append((j, paths[rows], images[rows]))
    out = []
    for b in blocks:
        if not b:
            out.append(LoopConfiguration())
            continue
        windings = np.concatenate([np.full(len(p), j) for j, p, _ in b])
        out.append(LoopConfiguration(
            knots=np.concatenate([p.reshape(-1, region.d) for _, p, _ in b]),
            offsets=np.concatenate([[0], np.cumsum(windings * region.n_slices + 1)]),
            windings=windings,
            images=np.concatenate([im for _, _, im in b]),
        ))
    return out


def assert_same_arrays(a, b):
    for name in ("knots", "offsets", "windings", "images"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        np.testing.assert_array_equal(x, y)


class TestLoopBatch:
    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_matches_per_sample_packing(self, boundary):
        region = BoxRegion(d=2, L=5.0, boundary=boundary, n_slices=6)
        batch = sample_free_poisson_batch(60, 0.7, BETA, region, rng_seed=21)
        want = packed_per_sample(60, 0.7, BETA, region, seed=21)
        assert isinstance(batch, LoopBatch) and len(batch) == 60
        assert len({int(w) for w in batch.windings}) > 1
        for s, cfg in enumerate(want):
            assert_same_arrays(batch[s], cfg)
            assert not batch[s].knots.flags.writeable
        assert_same_arrays(batch, as_batch(want))
        np.testing.assert_array_equal(batch.loop_starts, as_batch(want).loop_starts)
        np.testing.assert_array_equal(batch.particle_numbers, [c.particle_number for c in want])
        np.testing.assert_array_equal(batch.loop_counts, [c.loop_count for c in want])
        for name in ("knots", "offsets", "windings", "images", "loop_starts"):
            assert not getattr(batch, name).flags.writeable

    def test_empty_samples(self):
        region = BoxRegion(d=1, L=2.0, n_slices=4)
        batch = sample_free_poisson_batch(40, 0.1, BETA, region, rng_seed=3)
        want = packed_per_sample(40, 0.1, BETA, region, seed=3)
        empty = [s for s in range(40) if not want[s].loop_count]
        assert empty and len(empty) < 40
        for s in range(40):
            assert_same_arrays(batch[s], want[s])
        assert (batch.particle_numbers[empty] == 0).all()
        f = TEST_FUNCTIONS[0]
        V = gaussian_repulsion(1, 0.5, 0.5)
        for configs in (batch, sample_free_poisson_batch(5, 0.0, BETA, region, rng_seed=3)):
            as_list = list(configs)
            np.testing.assert_array_equal(config_pairings(configs, [f], BETA, region)[2],
                                          config_pairings(as_list, [f], BETA, region)[2])
            np.testing.assert_array_equal(interaction_energies(configs, V, BETA, region),
                                          interaction_energies(as_list, V, BETA, region))
            assert density_from_configs(configs, region)[0] == density_from_configs(as_list, region)[0]

    def test_single_draw_is_first_sample(self):
        region = BoxRegion(d=3, L=5.0, n_slices=8)
        assert_same_arrays(sample_free_poisson(0.6, BETA, region, rng_seed=9),
                           sample_free_poisson_batch(1, 0.6, BETA, region, rng_seed=9)[0])

    def test_slicing_iteration_and_list_concatenation(self):
        region = BoxRegion(d=2, L=5.0, n_slices=4)
        batch = sample_free_poisson_batch(12, 0.6, BETA, region, rng_seed=14)
        configs = list(batch)
        assert len(configs) == 12
        for sub, idx in ((batch[3:8], range(3, 8)), (batch[::3], range(0, 12, 3)), (batch[8:3], ())):
            assert isinstance(sub, LoopBatch) and len(sub) == len(idx)
            for got, s in zip(sub, idx):
                assert_same_arrays(got, configs[s])
        assert_same_arrays(batch[-1], configs[11])
        with pytest.raises(IndexError):
            batch[12]
        cfg = sample_free_poisson(0.6, BETA, region, rng_seed=1)
        joined = [cfg] + batch
        assert isinstance(joined, list) and len(joined) == 13 and joined[0] is cfg
        assert_same_arrays(joined[5], configs[4])
        assert len(batch + [cfg]) == 13

    def test_consumers_read_batch_as_list(self):
        region = BoxRegion(d=2, L=4.0, n_slices=4)
        batch = sample_free_poisson_batch(30, 0.6, BETA, region, rng_seed=5)
        configs = list(batch)
        V = gaussian_repulsion(2, 0.5, 0.5)
        np.testing.assert_array_equal(gibbs_weights(batch, V, BETA, region), gibbs_weights(configs, V, BETA, region))
        paths = _paths(region, 2, 30, seed=6)
        np.testing.assert_array_equal(added_loop_energies(paths, batch, V, BETA, region),
                                      added_loop_energies(paths, configs, V, BETA, region))
        for a, b in zip(config_pairings(batch, TEST_FUNCTIONS, BETA, region),
                        config_pairings(configs, TEST_FUNCTIONS, BETA, region)):
            np.testing.assert_array_equal(a, b)
        assert moment_estimate(batch, TEST_FUNCTIONS[:2], BETA, region) == \
            moment_estimate(configs, TEST_FUNCTIONS[:2], BETA, region)


class TestOpenImages:
    """draw_open_images against the per-coordinate draws it replaced: the
    chain's one-bridge draw (a scalar rng.choice per coordinate) and the
    density matrix's batch draw (rng.choice of size n per coordinate)."""

    @staticmethod
    def reference(x, y, count, t, L, rng, scalar):
        m = _image_range(L, t, tol=1e-16)
        ws = np.arange(-m, m + 1)
        out = np.empty((count, x.size))
        for k in range(x.size):
            p = np.exp(-((y[k] - x[k] + ws * L) ** 2) / (4 * t))
            p = p / p.sum()
            out[:, k] = rng.choice(ws, p=p) if scalar else rng.choice(ws, size=count, p=p)
        return out

    @pytest.mark.parametrize("count,t", [(1, 1.0), (1, 3.0), (300, 2.0)])
    def test_same_images_and_stream(self, count, t):
        x, y, L = np.array([0.3, 3.9, 2.0]), np.array([3.7, 0.2, 2.5]), 4.0
        a, b = generator(9), generator(9)
        got = draw_open_images(x, y, count, t, L, a)
        want = self.reference(x, y, count, t, L, b, scalar=count == 1)
        assert np.array_equal(got, want)
        assert a.bit_generator.state == b.bit_generator.state
