"""Batched kernels against the per-path code they replace: the time-integral
kernel, the bridge map and its prefix fills, the packed sample batch,
test-function broadcasting, the winding-image sampler, and the Dirichlet
masses at large j beta."""

import numpy as np
import pytest
from scipy import stats

from bosegas.loopgas import (
    DIRICHLET,
    PERIODIC,
    BoxRegion,
    LoopTestFunction,
    diagonal_mass,
    dirichlet_mode_trace,
    gaussian_repulsion,
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
    time_integrals_of,
)
from bosegas.loopgas import free
from bosegas.loopgas.checks import gibbs_weights
from bosegas.loopgas.regions import (
    _image_range,
    dirichlet_kernel_1d,
    draw_images,
    segment_survival_log,
    wall_survival_log,
    winding_images,
    wrap_knots,
)
from bosegas.loopgas.energy import added_loop_energies, interaction_energies
from bosegas.loopgas.loops import (
    _CACHED_INTERVALS,
    LoopBatch,
    LoopConfiguration,
    _bridge_map,
    _cached_bridge_map,
    _midpoint_schedule,
    as_batch,
    box_bridges,
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
    return _fill_loop_paths(bases, j, BETA, region, rng)


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

    def test_leading_axes_and_chunks(self, monkeypatch):
        region = BoxRegion(d=2, L=4.0, n_slices=6)
        paths = _paths(region, 2, 3000, seed=7)
        f = TEST_FUNCTIONS[0]  # reads 10 knots of d = 2
        whole = time_integrals(paths, f, BETA, region)  # one chunk
        monkeypatch.setattr(free, "_CHUNK_FLOATS", 1000)  # 50 rows a chunk
        chunks, wrap = [], free.wrap_knots
        monkeypatch.setattr(free, "wrap_knots", lambda p, r: chunks.append(len(p)) or wrap(p, r))
        flat = time_integrals(paths, f, BETA, region)
        block = time_integrals(paths.reshape(30, 100, *paths.shape[1:]), f, BETA, region)
        assert chunks == [50] * 120  # 60 chunks a call
        assert block.shape == (30, 100)
        np.testing.assert_array_equal(flat, whole)
        np.testing.assert_array_equal(block.ravel(), flat)

    @pytest.mark.parametrize("chunk_floats", [64, free._CHUNK_FLOATS])
    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    @pytest.mark.parametrize("j", [1, 3])
    def test_list_equals_single_calls(self, j, boundary, chunk_floats, monkeypatch):
        # mixed supports (t_max 1.6, 0.5, 2.0) and one function without a
        # support; chunks of 64 floats hold a few rows of the longest slice
        monkeypatch.setattr(free, "_CHUNK_FLOATS", chunk_floats)
        region = BoxRegion(d=2, L=4.0, boundary=boundary, n_slices=6)
        paths = _paths(region, j, 40, seed=60 + j).reshape(4, 10, -1, 2)
        n_knots = paths.shape[-2]
        supported, unsupported = TEST_FUNCTIONS, [*TEST_FUNCTIONS, _wave]
        live = max(int(np.searchsorted(np.arange(n_knots) / 6, f.t_max, side="right")) for f in supported)
        for fs, given in ((unsupported, n_knots), (supported, n_knots), (supported, live)):
            got = time_integrals_of(paths[..., :given, :], fs, BETA, region, n_knots)
            assert got.shape == (4, 10, len(fs))
            for k, f in enumerate(fs):
                np.testing.assert_array_equal(got[..., k], time_integrals(paths, f, BETA, region))
                np.testing.assert_array_equal(got[..., k], time_integrals(paths[..., :given, :], f, BETA, region, n_knots))
        if live < n_knots:
            with pytest.raises(ValueError, match="knots"):
                time_integrals_of(paths[..., :live, :], unsupported, BETA, region, n_knots)

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

    @pytest.mark.parametrize("L, t", [(1.0, 5.0), (5.0, 100.0), (5.0, 25.0)])
    def test_kernel_is_the_sine_mode_sum(self, L, t):
        # the image form cancels to -2.1e-17 where the kernel is 7.4e-22 (L = 1, t = 5)
        x = np.array([0.5, 0.1, 0.9, 0.37]) * L
        y = np.array([0.5, 0.5, 0.2, 0.81]) * L
        k = np.pi * np.arange(1, 40) / L
        modes = (2 / L) * (np.sin(k * x[:, None]) * np.sin(k * y[:, None]) * np.exp(-t * k**2)).sum(axis=1)
        np.testing.assert_allclose(dirichlet_kernel_1d(x, y, L, t), modes, rtol=1e-12, atol=0)

    def test_base_points_follow_the_diagonal_at_large_time(self):
        # at t = 6, L = 1 the diagonal is 2 sin^2(pi x) to 1e-77, so E cos(2 pi x) = -1/2
        region = BoxRegion(d=1, L=1.0, boundary=DIRICHLET)
        c = np.cos(2 * np.pi * _sample_bases(20_000, 1, 6.0, region, generator(21))[:, 0])
        assert abs(c.mean() + 0.5) < 3 * c.std() / np.sqrt(c.size)

    def test_sampler_runs_at_high_activity(self):
        region = BoxRegion(d=3, L=5.0, boundary=DIRICHLET, n_slices=8)
        cfg = sample_free_poisson(0.9, BETA, region, rng_seed=9)
        configs = [cfg, *sample_free_poisson_batch(20, 0.9, BETA, region, rng_seed=10)]
        knots = np.concatenate([c.knots for c in configs if c.loop_count])
        assert len(knots) and ((knots > 0) & (knots < region.L)).all()


def _prefix_columns(n, k):
    """Bridge-map columns the first k knots of an n-interval bridge read: the
    endpoints and the midpoints (a, m, b) with a < k - 1, which enter knots
    a + 1 .. b - 1 only."""
    mids = [2 + i for i, (a, _, _) in enumerate(_midpoint_schedule(n)) if a < k - 1]
    return np.array([0, 1, *mids])


def _map_applied(x0, x1, normals, coef):
    """Knots (batch, rows, d) of the map rows coef (rows, cols) applied to the
    endpoints and normals (cols - 2, batch, d), by fill_bridges' product."""
    batch, d = x0.shape
    src = np.concatenate([x0[None], x1[None], normals])
    out = src.reshape(len(src), -1).T.dot(np.ascontiguousarray(coef).T)
    return np.ascontiguousarray(out.reshape(batch, d, -1).swapaxes(1, 2))


def _whole_bridges_through(x0, x1, n, cols, normals, seed):
    """Whole bridges whose midpoints in cols take the given normals and every
    other midpoint a normal of generator(seed)."""
    batch, d = x0.shape
    full = generator(seed).standard_normal((n + 1, batch, d))
    full[cols[2:]] = normals
    return _map_applied(x0, x1, full[2:], _bridge_map(n, 0.125))


class TestPrefixFills:
    @pytest.mark.parametrize("j", [1, 2, 9, 13, 22])
    @pytest.mark.parametrize("batch,d", [(300, 1), (1200, 1), (40, 3)])
    def test_prefix_equals_whole_bridges(self, j, batch, d):
        # the checks' sizes: 8 slices, t_max = 1 or 2 (9 or 17 knots).  A
        # prefix of every knot is the whole fill, stream included; a shorter
        # prefix is the map's first k rows over the columns they read,
        # applied to a draw of just those columns' normals, and so the first
        # k knots of whole bridges whatever their other midpoints draw
        n = 8 * j
        x0 = generator(j).uniform(0, 5, (batch, d))
        x1 = x0 + 5.0 * generator(j + 1).integers(-1, 2, (batch, d))
        whole_rng = generator(3)
        whole = fill_bridges(x0, x1, n, 0.125, whole_rng)
        rng = generator(3)
        np.testing.assert_array_equal(fill_bridges(x0, x1, n, 0.125, rng, knots=n + 1), whole)
        assert rng.bit_generator.state == whole_rng.bit_generator.state
        for k in sorted({1, min(9, n), min(17, n)}):
            cols = _prefix_columns(n, k)
            twin = generator(3)
            normals = twin.standard_normal((cols.size - 2, batch, d))
            rng = generator(3)
            part = fill_bridges(x0, x1, n, 0.125, rng, knots=k)
            assert part.shape == (batch, k, d)
            np.testing.assert_array_equal(part, _map_applied(x0, x1, normals, _bridge_map(n, 0.125)[:k, cols]))
            assert rng.bit_generator.state == twin.bit_generator.state
            through = _whole_bridges_through(x0, x1, n, cols, normals, seed=k)
            np.testing.assert_allclose(part, through[:, :k], rtol=0, atol=1e-13)

    def test_single_row_prefix_within_rounding(self):
        # one row: BLAS takes the product as a matrix-vector call, whose
        # kernel may sum the narrower product in another order
        x0 = np.array([[1.0]])
        for k in (2, 17, 51):
            cols = _prefix_columns(100, k)
            normals = generator(3).standard_normal((cols.size - 2, 1, 1))
            part = fill_bridges(x0, x0 + 5.0, 100, 0.125, generator(3), knots=k)
            through = _whole_bridges_through(x0, x0 + 5.0, 100, cols, normals, seed=k)
            np.testing.assert_allclose(part, through[:, :k], rtol=0, atol=1e-14)

    def test_prefix_law_is_the_bridge_law(self):
        # 200 000 prefixes of 17 knots of 176-interval bridges (22 legs of 8
        # slices) against the exact bridge: mean x0 + (x1 - x0) t / T and
        # covariance 2 min(s, t) (T - max(s, t)) / T.  The same statistic of
        # the same normals with any one read column dropped must fail.
        n, k, dtau, chunk, n_chunks = 176, 17, 0.125, 50_000, 4
        x0, x1 = np.full((chunk, 1), 0.7), np.full((chunk, 1), 5.7)
        t, T = dtau * np.arange(1, k), dtau * n
        mean = 0.7 + 5.0 * t / T
        cov = 2 * np.minimum.outer(t, t) * (T - np.maximum.outer(t, t)) / T
        sd = np.sqrt(np.diag(cov))
        cols = _prefix_columns(n, k)
        coef = _bridge_map(n, dtau)[1:k, cols[2:]]
        rng, twin = generator(11), generator(11)
        total, outer, z_outer = np.zeros(k - 1), np.zeros((k - 1, k - 1)), np.zeros((cols.size - 2,) * 2)
        for _ in range(n_chunks):
            x = fill_bridges(x0, x1, n, dtau, rng, knots=k)[:, :, 0]
            assert (x[:, 0] == 0.7).all()
            total += x[:, 1:].sum(axis=0)
            outer += (x[:, 1:] - mean).T @ (x[:, 1:] - mean)
            z = twin.standard_normal((cols.size - 2, chunk))
            z_outer += z @ z.T
        size = chunk * n_chunks
        assert (np.abs(total / size - mean) < 5 * sd / np.sqrt(size)).all()

        def worst(c):  # largest covariance error, in correlation units
            return np.abs((c - cov) / np.outer(sd, sd)).max()

        assert worst(outer / size) < 0.015
        assert worst(coef @ (z_outer / size) @ coef.T) < 0.015
        for c in range(coef.shape[1]):
            dropped = np.delete(coef, c, axis=1)
            z_kept = np.delete(np.delete(z_outer, c, axis=0), c, axis=1)
            assert worst(dropped @ (z_kept / size) @ dropped.T) > 0.025, c

    @pytest.mark.parametrize("bad", [-3, 0, 10, 20])
    def test_knots_outside_the_bridge_refused(self, bad):
        with pytest.raises(ValueError, match="knots"):
            fill_bridges(np.zeros((4, 1)), np.ones((4, 1)), 8, 0.125, generator(1), knots=bad)

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
        paths = _fill_loop_paths(bases, j, beta, region, rng)
        ends = np.cumsum(counts)
        for c in np.flatnonzero(counts):
            rows = slice(ends[c] - counts[c], ends[c])
            blocks[c].append((j, paths[rows]))
    out = []
    for b in blocks:
        if not b:
            out.append(LoopConfiguration())
            continue
        windings = np.concatenate([np.full(len(p), j) for j, p in b])
        out.append(LoopConfiguration(
            knots=np.concatenate([p.reshape(-1, region.d) for _, p in b]),
            offsets=np.concatenate([[0], np.cumsum(windings * region.n_slices + 1)]),
            windings=windings,
        ))
    return out


def assert_same_arrays(a, b):
    for name in ("knots", "offsets", "windings"):
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
        for name in ("knots", "offsets", "windings", "loop_starts"):
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
        V = gaussian_repulsion(1, 0.5, 1 / 6)
        for configs in (batch, sample_free_poisson_batch(5, 0.0, BETA, region, rng_seed=3)):
            as_list = list(configs)
            np.testing.assert_array_equal(config_pairings(configs, [f], BETA, region)[2],
                                          config_pairings(as_list, [f], BETA, region)[2])
            np.testing.assert_array_equal(interaction_energies(configs, V, BETA, region),
                                          interaction_energies(as_list, V, BETA, region))
            np.testing.assert_array_equal(as_batch(configs).particle_numbers, as_batch(as_list).particle_numbers)

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

    def test_consumers_read_batch_as_list(self):
        region = BoxRegion(d=2, L=4.0, n_slices=4)
        batch = sample_free_poisson_batch(30, 0.6, BETA, region, rng_seed=5)
        configs = list(batch)
        V = gaussian_repulsion(2, 0.5, 1 / 3)
        np.testing.assert_array_equal(gibbs_weights(batch, V, BETA, region), gibbs_weights(configs, V, BETA, region))
        paths = _paths(region, 2, 30, seed=6)
        np.testing.assert_array_equal(added_loop_energies(paths, batch, V, BETA, region),
                                      added_loop_energies(paths, configs, V, BETA, region))
        for a, b in zip(config_pairings(batch, TEST_FUNCTIONS, BETA, region),
                        config_pairings(configs, TEST_FUNCTIONS, BETA, region)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(as_batch(batch).particle_numbers, as_batch(configs).particle_numbers)


class TestRegionFunctions:
    """The box's boundary functions: a Dirichlet box draws no image, has the
    knots themselves and survives by segment_survival_log; a periodic box
    draws draw_images' images from draw_images' stream, wraps by np.mod and
    survives with 0.0."""

    PER = BoxRegion(d=3, L=4.0, boundary=PERIODIC, n_slices=6)
    DIR = BoxRegion(d=3, L=4.0, boundary=DIRICHLET, n_slices=6)

    def test_dirichlet_images_are_zero_and_draw_nothing(self):
        rng = generator(11)
        before = rng.bit_generator.state
        for dx in (np.zeros(3), np.array([0.5, -1.0, 2.0])):
            images = winding_images(dx, 5, self.DIR, 1.5, rng)
            assert images.shape == (5, 3) and images.dtype.kind == "i" and not images.any()
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("dx", [np.zeros(3), np.array([0.5, -1.0, 2.0])])
    def test_periodic_images_are_draw_images(self, dx):
        a, b = generator(12), generator(12)
        np.testing.assert_array_equal(winding_images(dx, 40, self.PER, 1.5, a), draw_images(dx, 40, 1.5, 4.0, b))
        assert a.bit_generator.state == b.bit_generator.state

    def test_survival(self):
        paths = _paths(self.DIR, 2, 7, seed=13)
        assert np.array_equal(wall_survival_log(paths, self.DIR, 0.25), segment_survival_log(paths, 4.0, 0.25))
        per = wall_survival_log(paths, self.PER, 0.25)
        assert per.shape == (7,) and np.all(per == 0.0)
        assert wall_survival_log(paths[0], self.PER, 0.25) == 0.0

    def test_wrap(self):
        paths = 3.0 * generator(14).standard_normal((5, 13, 3))
        assert wrap_knots(paths, self.DIR) is paths
        np.testing.assert_array_equal(wrap_knots(paths, self.PER), np.mod(paths, 4.0))

    X0 = np.array([[0.5, 1.0, 3.5], [2.0, 0.25, 1.5]])

    @pytest.mark.parametrize("dx", [np.zeros(3), np.array([0.5, -1.0, 2.0])])
    @pytest.mark.parametrize("knots", [None, 1, 7])
    def test_box_bridges_are_images_then_fill(self, dx, knots):
        # closed (dx = 0) and open bridges, whole and prefix fills: the
        # winding_images + fill_bridges composition, on the same stream
        a, b = generator(15), generator(15)
        x1 = self.X0 + dx
        paths = box_bridges(self.X0, x1, 12, 0.125, self.PER, a, knots)
        want_images = winding_images(dx, 2, self.PER, 1.5, b)
        want = fill_bridges(self.X0, x1 + want_images * 4.0, 12, 0.125, b, knots)
        np.testing.assert_array_equal(paths, want)
        assert paths.shape == (2, 13 if knots is None else knots, 3)
        assert a.bit_generator.state == b.bit_generator.state

    def test_box_bridges_draw_no_dirichlet_image(self):
        a, b = generator(16), generator(16)
        x1 = self.X0 + np.array([0.5, -1.0, 2.0])
        paths = box_bridges(self.X0, x1, 12, 0.125, self.DIR, a)
        np.testing.assert_array_equal(paths, fill_bridges(self.X0, x1, 12, 0.125, b))
        np.testing.assert_allclose(paths[:, -1], x1)
        assert a.bit_generator.state == b.bit_generator.state


class TestClosedImages:
    """draw_images of closed loops against the draw it reproduces: one
    rng.choice of size (count, d) with the image weights normalised first."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 300])
    def test_same_images_and_stream(self, count, d):
        j, beta, L = 3, 0.7, 2.5
        t = j * beta
        m = _image_range(L, t, tol=1e-16)
        ws = np.arange(-m, m + 1)
        p = np.exp(-((ws * L) ** 2) / (4 * t))
        a, b = generator(8), generator(8)
        got = draw_images(np.zeros(d), count, t, L, a)
        want = b.choice(ws, size=(count, d), p=p / p.sum())
        assert got.shape == (count, d) and np.array_equal(got, want)
        assert a.bit_generator.state == b.bit_generator.state


class TestOpenImages:
    """draw_images of open bridges x -> y + w L: one bridge against its
    per-coordinate draws (a scalar rng.choice each), and a batch against the
    kernel weights exp(-(y - x + w L)^2 / (4 t))."""

    X, Y, L = np.array([0.3, 3.9, 2.0]), np.array([3.7, 0.2, 2.5]), 4.0

    @staticmethod
    def weights(x, y, t, L):
        m = _image_range(L, t, tol=1e-16)
        ws = np.arange(-m, m + 1)
        p = np.exp(-((y - x + ws[:, None] * L) ** 2) / (4 * t))
        return ws, p / p.sum(axis=0)

    @pytest.mark.parametrize("count,t", [(1, 1.0), (1, 3.0)])
    def test_same_images_and_stream(self, count, t):
        a, b = generator(9), generator(9)
        got = draw_images(self.Y - self.X, count, t, self.L, a)
        ws, p = self.weights(self.X, self.Y, t, self.L)
        want = [[b.choice(ws, p=p[:, k]) for k in range(self.X.size)]]
        assert np.array_equal(got, want)
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("t", [1.0, 3.0])
    def test_batch_law(self, t):
        # chi-squared of each coordinate's image counts against its weights
        # (images with expected count below 5 pooled into one cell)
        n = 20000
        got = draw_images(self.Y - self.X, n, t, self.L, generator(10))
        ws, p = self.weights(self.X, self.Y, t, self.L)
        for k in range(self.X.size):
            observed = np.array([(got[:, k] == w).sum() for w in ws])
            assert observed.sum() == n
            expected = n * p[:, k]
            big = expected >= 5
            o = np.append(observed[big], observed[~big].sum())
            e = np.append(expected[big], expected[~big].sum())
            o, e = (o, e) if e[-1] > 0 else (o[:-1], e[:-1])
            assert stats.chisquare(o, e).pvalue > 1e-3
