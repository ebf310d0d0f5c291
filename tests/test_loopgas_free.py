"""Free Poisson loop gas: masses, sampler statistics, functional identities."""

import numpy as np
import pytest

from bosegas import spectral
from bosegas.diagnostics import batch_means
from bosegas.errors import ActivityError, CondensationBoundaryError, ResourceBudgetError, TruncationError
from bosegas.loopgas import (
    BoxRegion,
    DIRICHLET,
    PERIODIC,
    LoopTestFunction,
    characteristic_functional,
    diagonal_mass,
    dirichlet_mode_trace,
    free_density,
    free_log_partition,
    free_rdm,
    interaction_energy,
    pair_energy,
    pairing,
    periodic_mode_trace,
    sample_free_poisson,
    sample_free_poisson_batch,
    spectral_log_partition,
    trace_identity_check,
    winding_masses,
)
from bosegas.loopgas.free import config_pairings
from bosegas.loopgas.loops import BridgeLoop, LoopConfiguration
from bosegas.loopgas.potential import gaussian_repulsion, hard_core
from bosegas.spectral import TorusGeometry, auto_torus_spectrum, build_torus_spectrum, density, pressure

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")



def discrete_time_mass(t_max, j, beta, n_slices):
    """Trapezoid weight the knot-level indicator 1(t <= t_max) actually carries."""
    ts = (beta / n_slices) * np.arange(j * n_slices + 1)
    w = np.full(ts.size, beta / n_slices)
    w[0] = w[-1] = beta / (2 * n_slices)
    return float(w[ts <= t_max].sum())


class TestMassesAndActivity:
    def test_activity_error(self):
        region = BoxRegion(d=3, L=4.0)
        with pytest.raises(ActivityError):
            winding_masses(1.0, 1.0, region)
        with pytest.raises(ActivityError):
            winding_masses(-0.1, 1.0, region)

    def test_image_vs_mode_traces(self):
        # Poisson summation: image sums equal spectral mode sums for both walls
        for L, t in [(4.0, 0.7), (6.0, 2.0), (3.0, 0.3)]:
            per = BoxRegion(d=2, L=L, boundary=PERIODIC)
            dir_ = BoxRegion(d=2, L=L, boundary=DIRICHLET)
            assert np.isclose(diagonal_mass(per, t), periodic_mode_trace(per, t), rtol=1e-12)
            assert np.isclose(diagonal_mass(dir_, t), dirichlet_mode_trace(dir_, t), rtol=1e-12)

    def test_winding_cap_raises(self):
        # the tail bound is still far above the tolerance at J_MAX_CAP windings
        region = BoxRegion(d=3, L=6.0)
        with pytest.raises(TruncationError, match="J_MAX_CAP.*tail"):
            winding_masses(0.999, 1.0, region)

    def test_below_the_cap_returns(self):
        nus, j = winding_masses(0.9, 1.0, BoxRegion(d=3, L=6.0))
        assert j < 400 and nus.size == j

    def test_mean_one_loop_count(self):
        # z L^3 (4 pi)^(-3/2) at z=0.3, L=8: about 3.448
        region = BoxRegion(d=3, L=8.0)
        nus, _ = winding_masses(0.3, 1.0, region)
        # the winding-image factor differs from 1 by 2 e^{-16}
        assert np.isclose(nus[0], 0.3 * 512 * (4 * np.pi) ** -1.5, rtol=1e-6)
        assert np.isclose(nus[0], 3.4484, rtol=1e-3)


class TestFreeSampler:
    def test_zero_activity_empty(self):
        region = BoxRegion(d=3, L=5.0)
        cfg = sample_free_poisson(0.0, 1.0, region, rng_seed=1)
        assert cfg.loop_count == 0

    def test_one_loop_count_statistics(self):
        region = BoxRegion(d=3, L=8.0, n_slices=8)
        nus, _ = winding_masses(0.3, 1.0, region)
        configs = sample_free_poisson_batch(3000, 0.3, 1.0, region, rng_seed=2)
        ones = np.array([np.count_nonzero(c.windings == 1) for c in configs])
        se = ones.std(ddof=1) / np.sqrt(len(ones))
        assert abs(ones.mean() - nus[0]) < 3 * se

    def test_poisson_dispersion_and_independence(self):
        region = BoxRegion(d=3, L=6.0, n_slices=4)
        configs = sample_free_poisson_batch(4000, 0.5, 1.0, region, rng_seed=3)
        h = np.array([np.bincount(c.windings, minlength=4)[1:4] for c in configs])  # counts for j=1,2,3
        for col in range(2):
            counts = h[:, col]
            disp = counts.var(ddof=1) / counts.mean()
            assert abs(disp - 1.0) < 0.1
        c12 = np.corrcoef(h[:, 0], h[:, 1])[0, 1]
        assert abs(c12) < 3 / np.sqrt(len(configs))

    def test_loop_geometry(self):
        # a loop is its winding and knots: a periodic loop closes onto a
        # lattice image of its base; a Dirichlet loop closes onto its base,
        # with every knot strictly inside the box
        for boundary in (PERIODIC, DIRICHLET):
            region = BoxRegion(d=2, L=5.0, boundary=boundary, n_slices=8)
            cfg = sample_free_poisson(0.6, 1.0, region, rng_seed=4)
            assert cfg.loop_count > 0
            for lp in cfg.loops:
                assert lp.winding >= 1 and lp.path.shape == (lp.winding * region.n_slices + 1, region.d)
                assert np.array_equal(lp.base, lp.path[0])
                if boundary == PERIODIC:
                    np.testing.assert_allclose(lp.image / region.L, np.rint(lp.image / region.L), atol=1e-12)
                else:
                    np.testing.assert_allclose(lp.image, 0.0, atol=1e-12)
                    assert lp.path.min() > 0 and lp.path.max() < region.L

    def test_dirichlet_stays_inside(self):
        region = BoxRegion(d=2, L=5.0, boundary=DIRICHLET, n_slices=8)
        configs = sample_free_poisson_batch(50, 0.5, 1.0, region, rng_seed=5)
        for cfg in configs:
            for lp in cfg.loops:
                assert lp.path.min() > 0 and lp.path.max() < 5.0


class TestFugacityDuality:
    @pytest.mark.parametrize("z", [0.1, 0.3, 0.5])
    def test_density_formula_matches_spectral(self, z):
        beta, L = 1.0, 16.0
        region = BoxRegion(d=3, L=L)
        mu = -np.log(z) / beta
        spec = auto_torus_spectrum(3, L, beta)
        rho_spec = density(spec, beta, mu)
        rho_loop = free_density(z, beta, region)
        assert abs(rho_loop - rho_spec) / rho_spec < 5e-3

    def test_sampled_density_consistent(self):
        beta, L, z = 1.0, 8.0, 0.3
        region = BoxRegion(d=3, L=L, n_slices=4)
        configs = sample_free_poisson_batch(2000, z, beta, region, rng_seed=6)
        N = np.array([c.particle_number for c in configs], dtype=float)
        target = free_density(z, beta, region) * region.volume
        assert abs(N.mean() - target) < 3 * N.std(ddof=1) / np.sqrt(len(N))


class TestCharacteristicFunctional:
    def test_zero_function(self):
        region = BoxRegion(d=1, L=4.0, n_slices=8)
        f = LoopTestFunction(fn=lambda ts, xs: np.zeros_like(ts), t_max=1.0)
        rec = characteristic_functional(0.4, 1.0, region, f, n_mc=200, seed=7)
        assert rec["formula"] == pytest.approx(1.0)
        assert rec["empirical"] == pytest.approx(1.0)

    def test_two_routes_agree(self):
        region = BoxRegion(d=1, L=4.0, n_slices=8)
        f = LoopTestFunction(
            fn=lambda ts, xs: 0.6 * np.cos(2 * np.pi * xs[..., 0] / 4.0) * np.exp(-ts), t_max=2.0
        )
        rec = characteristic_functional(0.5, 1.0, region, f, n_mc=4000, seed=8)
        err = np.hypot(rec["formula_err"], rec["empirical_err"])
        assert abs(rec["formula"] - rec["empirical"]) < 3.5 * err

    def test_first_order_response(self):
        # log Gamma(s f) ~ i s E<phi, f> for small s
        region = BoxRegion(d=1, L=4.0, n_slices=8)
        s = 1e-3
        f = LoopTestFunction(fn=lambda ts, xs: s * np.ones_like(ts), t_max=0.5)
        z = 0.4
        rec = characteristic_functional(z, 1.0, region, f, n_mc=4000, seed=9)
        nus, jm = winding_masses(z, 1.0, region)
        # E I_f per j-loop is deterministic: the discrete weight of [0, t_max]
        expected = sum(
            nus[j - 1] * s * discrete_time_mass(0.5, j, 1.0, region.n_slices)
            for j in range(1, jm + 1)
        )
        assert np.isclose(np.log(rec["formula"]).imag, expected, rtol=2e-2)
        assert abs(np.log(rec["formula"]).real) < 1e-4


class TestInteractionEnergy:
    @staticmethod
    def static_loop(point, region, winding=1):
        n = winding * region.n_slices + 1
        path = np.tile(np.asarray(point, dtype=float), (n, 1))
        return BridgeLoop(winding=winding, path=path)

    def test_single_one_loop_is_free(self):
        region = BoxRegion(d=3, L=12.0)
        V = gaussian_repulsion(3, 2.0)
        cfg = LoopConfiguration(loops=[self.static_loop([1.0, 1.0, 1.0], region)])
        assert interaction_energy(cfg, V, 1.0, region) == 0.0

    def test_far_apart_finite_range(self):
        region = BoxRegion(d=3, L=12.0)
        V = hard_core(3, 0.5)
        a = self.static_loop([2.0, 2.0, 2.0], region)
        b = self.static_loop([8.0, 8.0, 8.0], region)
        assert interaction_energy(LoopConfiguration(loops=[a, b]), V, 1.0, region) == 0.0

    def test_static_pair_collapses_to_beta_V(self):
        region = BoxRegion(d=3, L=24.0)
        beta = 1.3
        V = gaussian_repulsion(3, 2.0, width=2.0)
        a = self.static_loop([2.0, 2.0, 2.0], region)
        b = self.static_loop([2.0, 2.0, 5.0], region)
        e = pair_energy(a, b, V, beta, region)
        assert np.isclose(e, beta * float(V(3.0)), rtol=1e-12)

    def test_hard_core_sentinel(self):
        region = BoxRegion(d=3, L=6.0)
        V = hard_core(3, 1.0)
        a = self.static_loop([2.0, 2.0, 2.0], region)
        b = self.static_loop([2.0, 2.0, 2.5], region)
        assert np.isinf(interaction_energy(LoopConfiguration(loops=[a, b]), V, 1.0, region))

    def test_intra_loop_legs(self):
        # a static winding-2 loop has one distinct-leg pair at distance 0...
        # displace the second leg by hand to get a clean value
        region = BoxRegion(d=1, L=24.0, n_slices=4)
        V = gaussian_repulsion(1, 1.5, width=2.0)
        n = region.n_slices
        path = np.concatenate([np.full((n, 1), 3.0), np.full((n + 1, 1), 5.0)])
        # force closure: last knot equals first
        path[-1, 0] = 3.0
        lp = BridgeLoop(winding=2, path=path)
        from bosegas.loopgas import intra_energy

        e = intra_energy(lp, V, 1.0, region)
        assert np.isfinite(e) and e > 0


class TestTraceIdentity:
    def test_leading_order_large_mu(self):
        region = BoxRegion(d=3, L=4.0)
        rec = trace_identity_check(1.0, 6.0, region)
        nus, _ = winding_masses(rec["z"], 1.0, region)
        assert np.isclose(rec["loop"], nus[0], rtol=1e-2)
        assert np.isclose(rec["spectral"], rec["loop"], rtol=1e-10)

    def test_periodic_box(self):
        region = BoxRegion(d=3, L=6.0)
        rec = trace_identity_check(1.0, 0.5, region)
        assert rec["abs_diff"] < 1e-8

    @pytest.mark.parametrize("n_mc", [0, 1])
    def test_interaction_correction_needs_two_samples(self, n_mc):
        # an empty batch has no mean weight, one sample no error: refused, not NaN
        region = BoxRegion(d=3, L=6.0)
        with pytest.raises(ValueError, match="n_mc"):
            trace_identity_check(1.0, 0.5, region, n_mc=n_mc, V=gaussian_repulsion(3, 0.5, 0.5))

    def test_interaction_correction_needs_a_free_sample(self):
        # no sampled configuration is free of contacts: the mean weight is 0,
        # whose log was written as -inf with a NaN error; refused instead
        region = BoxRegion(d=1, L=3.0)
        with pytest.raises(ValueError, match="none of the n_mc = 3 sampled configurations"):
            trace_identity_check(1.0, 0.1, region, n_mc=3, V=hard_core(1, 1.5), seed=1)

    def test_dirichlet_box(self):
        region = BoxRegion(d=3, L=6.0, boundary=DIRICHLET)
        rec = trace_identity_check(1.0, 0.5, region)
        assert rec["abs_diff"] < 1e-6

    def test_spectral_routes_match_spectral_gas(self):
        # the automatic cutoff of the periodic mode sum keeps 15 modes per
        # axis (m = -7 .. 7); an explicit cutoff of 12 changes ln Z by < 1e-10
        region = BoxRegion(d=3, L=6.0)
        beta, mu = 1.0, 0.5
        spec = build_torus_spectrum(TorusGeometry(3, 6.0, 12))
        assert np.isclose(
            spectral_log_partition(beta, mu, region), spec.volume * pressure(spec, beta, mu),
            rtol=1e-10,
        )

    @pytest.mark.parametrize("boundary, mu", [(PERIODIC, -0.1), (DIRICHLET, -0.9)])
    def test_spectral_side_refuses_the_condensation_boundary(self, boundary, mu):
        # mu = -0.9 lies below -lambda(1) = -3 pi^2 / 36 of the absorbing box
        with pytest.raises(CondensationBoundaryError):
            spectral_log_partition(1.0, mu, BoxRegion(d=3, L=6.0, boundary=boundary))

    def test_spectral_side_keeps_the_mode_budget(self, monkeypatch):
        monkeypatch.setattr(spectral, "MODE_BUDGET", 1000)
        with pytest.raises(ResourceBudgetError, match=r"15\^3 = 3375 modes"):
            spectral_log_partition(1.0, 0.5, BoxRegion(d=3, L=6.0))


class TestFreeRDM:
    def test_closed_form_matches_direct_sum(self):
        region = BoxRegion(d=3, L=7.0)
        z, beta = 0.4, 1.0
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([2.0, 2.5, 3.5])
        val = free_rdm(z, beta, region, x, y)
        # direct truncated image sum
        direct = 0.0
        for j in range(1, 60):
            term = 0.0
            for wx in range(-2, 3):
                for wy in range(-2, 3):
                    for wz in range(-2, 3):
                        d2 = ((x - y + 7.0 * np.array([wx, wy, wz])) ** 2).sum()
                        term += (4 * np.pi * j * beta) ** -1.5 * np.exp(-d2 / (4 * j * beta))
            direct += z**j * term
        assert np.isclose(val, direct, rtol=1e-10)

    def test_diagonal_matches_density(self):
        region = BoxRegion(d=3, L=8.0)
        z, beta = 0.3, 1.0
        x = np.array([4.0, 4.0, 4.0])
        rho_kernel = free_rdm(z, beta, region, x, x)
        assert np.isclose(rho_kernel, free_density(z, beta, region), rtol=1e-10)

    def test_symmetry(self):
        region = BoxRegion(d=2, L=6.0, boundary=DIRICHLET)
        x = np.array([2.0, 3.0])
        y = np.array([4.0, 2.5])
        assert np.isclose(
            free_rdm(0.5, 1.0, region, x, y), free_rdm(0.5, 1.0, region, y, x), rtol=1e-12
        )

    @pytest.mark.parametrize("boundary", ["periodic", DIRICHLET])
    def test_point_arrays_match_scalars(self, boundary):
        # leading point axes broadcast; each entry is the single-pair value
        region = BoxRegion(d=3, L=6.0, boundary=boundary)
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.0, 6.0, (4, 5, 3))
        ys = rng.uniform(0.0, 6.0, (5, 3))
        got = free_rdm(0.6, 1.0, region, xs, ys)
        assert got.shape == (4, 5)
        ref = [[free_rdm(0.6, 1.0, region, xs[a, b], ys[b]) for b in range(5)] for a in range(4)]
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)
        assert isinstance(free_rdm(0.6, 1.0, region, xs[0, 0], ys[0]), float)


def moment(configs, fs, region):
    """E[prod_i (phi, f_i)] over the configurations at beta = 1, with its batch-means error."""
    vals = config_pairings(configs, fs, 1.0, region)[2].prod(axis=1)
    return float(vals.mean()), float(batch_means(vals, 16)[0])


class TestMoments:
    def test_positive_function_positive_moment(self):
        region = BoxRegion(d=1, L=4.0, n_slices=8)
        configs = sample_free_poisson_batch(500, 0.5, 1.0, region, rng_seed=10)
        f = LoopTestFunction(fn=lambda ts, xs: np.ones_like(ts), t_max=1.0)
        assert moment(configs, [f], region)[0] >= 0

    def test_first_moment_matches_intensity(self):
        region = BoxRegion(d=1, L=4.0, n_slices=8)
        z = 0.4
        configs = sample_free_poisson_batch(4000, z, 1.0, region, rng_seed=11)
        f = LoopTestFunction(fn=lambda ts, xs: np.ones_like(ts), t_max=0.5)
        est, err = moment(configs, [f], region)
        nus, jm = winding_masses(z, 1.0, region)
        target = sum(
            nus[j - 1] * discrete_time_mass(0.5, j, 1.0, region.n_slices)
            for j in range(1, jm + 1)
        )
        assert abs(est - target) < 3 * err

    def test_disjoint_supports_factorize(self):
        region = BoxRegion(d=1, L=16.0, n_slices=8)
        z = 0.3
        configs = sample_free_poisson_batch(6000, z, 1.0, region, rng_seed=12)
        f1 = LoopTestFunction(fn=lambda ts, xs: np.ones_like(ts), t_max=1.0, box=((1.0, 3.0),))
        f2 = LoopTestFunction(fn=lambda ts, xs: np.ones_like(ts), t_max=1.0, box=((9.0, 11.0),))
        (m12, e12), (m1, e1), (m2, e2) = (moment(configs, fs, region) for fs in ([f1, f2], [f1], [f2]))
        assert abs(m12 - m1 * m2) < 3.5 * (e12 + abs(m1) * e2 + abs(m2) * e1)
