"""Batched kernels against the per-path code they replace: the time-integral
kernel, the bridge map, test-function broadcasting, and the Dirichlet masses
at large j beta."""

import numpy as np
import pytest

from bosegas.loopgas import (
    DIRICHLET,
    PERIODIC,
    BoxRegion,
    LoopTestFunction,
    diagonal_mass,
    dirichlet_mode_trace,
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
from bosegas.loopgas.loops import _midpoint_schedule, fill_bridges
from bosegas.rng import generator

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
