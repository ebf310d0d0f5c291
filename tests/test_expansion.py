"""Mayer coefficients, series density, and the convergence bound."""

import numpy as np
import pytest
from scipy import stats

from bosegas.expansion import (
    ConvergenceEstimate,
    _mayer_ball_radius,
    _random_balls,
    convergence_radius,
    mayer_coefficient,
    series_density,
)
from bosegas.loopgas import (
    BoxRegion,
    DIRICHLET,
    PERIODIC,
    PairPotential,
    free_density,
    gaussian_repulsion,
    gibbs_sample,
    hard_core,
)
from bosegas.rng import generator

# an inf - inf or 0 * inf in the batched hard-core sectors fails here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestCoefficients:
    def test_b1_closed_form(self):
        c = mayer_coefficient(1, 1.0, None)
        assert np.isclose(c.value, (4 * np.pi) ** -1.5, rtol=1e-12)

    @pytest.mark.parametrize("n, V", [(1, None), (1, hard_core(3, 1.0)), (2, None), (3, None)])
    def test_closed_forms_carry_no_error(self, n, V):
        # b1, and every b_n of a free gas, is exact: error None, not 0.0
        assert mayer_coefficient(n, 1.0, V, n_mc=50).error is None

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("region", [None, BoxRegion(d=3, L=6.0, n_slices=8)], ids=["limit", "box"])
    def test_parts_are_the_strata_of_the_coefficient(self, n, region):
        # the sectors are independent: b_n is the sum of the parts, and its
        # squared error the sum of theirs
        c = mayer_coefficient(n, 1.0, hard_core(3, 1.0), region, n_mc=200, seed=12)
        values, errors = zip(*c.parts.values())
        assert len(values) == n
        assert abs(c.value - sum(values)) <= 1e-12 * abs(c.value)
        assert abs(c.error**2 - sum(e**2 for e in errors)) <= 1e-12 * c.error**2

    def test_free_coefficients_reproduce_density_series(self):
        beta, z = 1.0, 0.3
        coeffs = [mayer_coefficient(n, beta, None) for n in (1, 2, 3)]
        rec = series_density(z, coeffs)
        exact = sum(z**j * (4 * np.pi * j * beta) ** -1.5 for j in (1, 2, 3))
        assert np.isclose(rec["density"], exact, rtol=1e-10)

    def test_hard_core_b2_negative_correction(self):
        beta = 1.0
        V = hard_core(3, 1.0)
        b2_v = mayer_coefficient(2, beta, V, n_mc=4000, seed=1)
        b2_0 = mayer_coefficient(2, beta, None)
        corr = b2_v.value - b2_0.value
        assert corr < 0
        assert b2_v.parts["mayer11"][0] < 0

    def test_classical_excluded_volume_oracle(self):
        # heavy-particle regime: paths shrink to points and the pair Mayer
        # integral approaches -(4/3) pi a^3, so the correction is -v_excl b1^2
        # (path spread sqrt(2 beta) inflates the effective radius slightly)
        beta, a = 0.005, 2.0
        V = hard_core(3, a)
        b2_v = mayer_coefficient(2, beta, V, n_mc=6000, seed=2, n_slices=8)
        b1 = mayer_coefficient(1, beta, None).value
        predicted = -(4.0 / 3.0) * np.pi * a**3 * b1**2
        assert np.isclose(b2_v.parts["mayer11"][0], predicted, rtol=0.2)

    def test_winding_sector_suppressed_by_hard_core(self):
        V = hard_core(3, 1.0)
        b2_v = mayer_coefficient(2, 1.0, V, n_mc=3000, seed=3)
        b2_0 = mayer_coefficient(2, 1.0, None)
        assert b2_v.parts["w2"][0] < b2_0.value


class TestSeriesDensity:
    def test_leading_order(self):
        coeffs = [mayer_coefficient(1, 1.0, None)]
        z = 1e-4
        rec = series_density(z, coeffs)
        assert np.isclose(rec["density"], z * (4 * np.pi) ** -1.5, rtol=1e-12)

    def test_matches_free_gas(self):
        region = BoxRegion(d=3, L=16.0)
        z = 0.2
        coeffs = [mayer_coefficient(n, 1.0, None) for n in (1, 2, 3)]
        rec = series_density(z, coeffs)
        rho = free_density(z, 1.0, region)
        assert abs(rec["density"] - rho) < rec["truncation_error"] + 5e-5

    def test_refuses_above_bound(self):
        bound = ConvergenceEstimate(0.15, 1.0, 2.0, 0.1, 0.0075)
        coeffs = [mayer_coefficient(1, 1.0, None)]
        rec = series_density(0.5, coeffs, bound=bound)
        assert rec["refused"]
        assert "bound" in rec

    @pytest.mark.slow
    def test_series_vs_chain_hard_core(self):
        beta, z = 1.0, 0.2
        V = hard_core(3, 1.0)
        coeffs = [mayer_coefficient(n, beta, V, n_mc=4000, seed=4) for n in (1, 2)]
        rec = series_density(z, coeffs)
        region = BoxRegion(d=3, L=6.0, n_slices=8)
        run = gibbs_sample(z, beta, region, V, n_sweeps=4000, rng_seed=5, thin=5)
        rho_mc = run["mean_N"] / region.volume
        err = 3 * run["err_N"] / region.volume + 3 * rec["stat_error"] + rec["truncation_error"]
        assert abs(rho_mc - rec["density"]) < err


class TestSigmaIndependenceSeries:
    def test_boundary_gap_shrinks_exact_free(self):
        # V = 0 coefficients are exact mass ratios: the wall-layer surface term
        # decays like 1/L, so the gap must fall monotonically
        gaps = []
        for L in (4.0, 8.0, 16.0):
            per = BoxRegion(d=3, L=L, boundary=PERIODIC, n_slices=8)
            dr = BoxRegion(d=3, L=L, boundary=DIRICHLET, n_slices=8)
            b_per = mayer_coefficient(2, 1.0, None, region=per)
            b_dir = mayer_coefficient(2, 1.0, None, region=dr)
            gaps.append(abs(b_per.value - b_dir.value))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_boundary_gap_shrinks_hard_core(self):
        V = hard_core(3, 0.8)
        gaps = []
        for L in (4.0, 16.0):
            per = BoxRegion(d=3, L=L, boundary=PERIODIC, n_slices=8)
            dr = BoxRegion(d=3, L=L, boundary=DIRICHLET, n_slices=8)
            b_per = mayer_coefficient(2, 1.0, V, region=per, n_mc=3000, seed=6)
            b_dir = mayer_coefficient(2, 1.0, V, region=dr, n_mc=3000, seed=6)
            gaps.append(abs(b_per.value - b_dir.value))
        assert gaps[1] < gaps[0]


class TestConvergenceRadius:
    def test_free_gas_radius(self):
        est = convergence_radius(1.0, None)
        assert est.radius_lower_bound == 1.0
        assert est.C_value == 0.0
        assert est.radius_error is None

    def test_doubling_potential_increases_C(self):
        # C grows monotonically with the interaction; the bound formula
        # exp(-2 beta B - 1)/C is then strictly decreasing in B and C
        v1 = gaussian_repulsion(3, 1.0)
        v2 = gaussian_repulsion(3, 2.0)
        e1 = convergence_radius(1.0, v1, n_mc=800, n_ref=4, seed=7, n_slices=8)
        e2 = convergence_radius(1.0, v2, n_mc=800, n_ref=4, seed=7, n_slices=8)
        assert e2.C_value > e1.C_value > 0
        raw = lambda B, C: np.exp(-2 * 1.0 * B - 1.0) / C
        assert raw(0.0, e2.C_value) < raw(0.0, e1.C_value)
        assert raw(1.0, e1.C_value) < raw(0.0, e1.C_value)

    def test_wide_cores_give_bound_below_cap(self):
        e1 = convergence_radius(1.0, hard_core(3, 2.0), n_mc=600, n_ref=3, seed=7, n_slices=8)
        e2 = convergence_radius(1.0, hard_core(3, 2.5), n_mc=600, n_ref=3, seed=7, n_slices=8)
        assert 0 < e2.radius_lower_bound < e1.radius_lower_bound < 1.0

    def test_hard_core_reproducible(self):
        V = hard_core(3, 1.0)
        a = convergence_radius(1.0, V, n_mc=600, n_ref=3, seed=8, n_slices=8)
        b = convergence_radius(1.0, V, n_mc=600, n_ref=3, seed=8, n_slices=8)
        assert a.radius_lower_bound == b.radius_lower_bound
        assert a.radius_lower_bound > 0


class TestPinnedRecords:
    # a hard core turns every energy into 0 or inf, so the records are bitwise
    # functions of the draws: each sector's bridges from one fill_bridges call,
    # its displacements from one _random_balls call
    def test_mayer_and_radius_records(self):
        V = hard_core(3, 1.0)
        b2 = mayer_coefficient(2, 1.0, V, None, n_mc=300, seed=803)
        b3 = mayer_coefficient(3, 1.0, V, None, n_mc=300, seed=804)
        r = convergence_radius(0.5, V, n_mc=150, n_ref=2, seed=805)
        assert (b2.value, b2.error) == (-0.004919977002692647, 0.0060067294101993)
        assert (b3.value, b3.error) == (0.0002592116832548878, 5.933449900447137e-05)
        assert (r.radius_lower_bound, r.C_value, r.C_error) == (
            0.08394574077067063, 4.382347904659552, 1.3415211895997432
        )
        # the radius carries C's relative error
        assert r.radius_error == r.radius_lower_bound * r.C_error / r.C_value


    def test_finite_box_records(self):
        # values of the sample-by-sample construction; a hard core keeps them bit-identical
        V = hard_core(3, 1.0)
        region = BoxRegion(d=3, L=6.0, n_slices=8)
        b2 = mayer_coefficient(2, 1.0, V, region=region, n_mc=300, seed=806)
        b3 = mayer_coefficient(3, 1.0, V, region=region, n_mc=300, seed=807)
        assert (b2.value, b2.error) == (-0.006682210371512901, 0.0017563454607597798)
        assert (b3.value, b3.error) == (0.005473767105460775, 0.0027058095968655596)


class TestRange:
    def test_ball_radius_is_range_plus_thermal_spread(self):
        # a custom potential's own range sets the ball, not a default reach
        V = PairPotential(v_of_r=lambda r: 0.5 * np.exp(-2.0 * np.asarray(r)), d=3, range=16.0)
        assert _mayer_ball_radius(V, 0.7) == 16.0 + 6.0 * np.sqrt(2 * 0.7)
        assert _mayer_ball_radius(V, 0.7, j_sum=3) == 16.0 + 6.0 * np.sqrt(3 * 0.7)

    def test_potential_of_another_dimension_refused(self):
        with pytest.raises(ValueError, match="d = 3"):
            mayer_coefficient(2, 1.0, hard_core(3, 0.4), region=BoxRegion(d=1, L=6.0, n_slices=8), n_mc=50)


def per_sample_ball(rng, d, R):
    """One point of the ball by rejection, one cube candidate at a time."""
    while True:
        x = rng.uniform(-R, R, size=d)
        if (x**2).sum() <= R**2:
            return x


class TestBatchedDraws:
    """A sector's ball displacements are one rejection pass over blocks of
    cube candidates."""

    @pytest.mark.parametrize("count, d, R", [(0, 3, 2.0), (1, 3, 2.0), (700, 3, 4.5), (50, 1, 1.0), (300, 5, 1.5)])
    def test_random_balls_match_per_sample_draws(self, count, d, R):
        # the batch keeps the candidates that one-at-a-time rejection would
        # accept, in order; the generator may run past the last of them
        one, batch = generator(11), generator(11)
        want = np.array([per_sample_ball(one, d, R) for _ in range(count)]).reshape(count, d)
        got = _random_balls(batch, count, d, R)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_random_balls_uniform_in_ball(self, d):
        # uniform in the ball: inside it, radial CDF (r / R)^d, centred
        R, n = 1.7, 4000
        x = _random_balls(generator(19), n, d, R)
        r = np.sqrt((x**2).sum(axis=1))
        assert x.shape == (n, d) and (r <= R).all()
        assert stats.kstest((r / R) ** d, "uniform").pvalue > 1e-3
        assert (np.abs(x.mean(axis=0)) < 4 * R / np.sqrt(n)).all()


class TestOrderByOrderChainMatch:
    @pytest.mark.slow
    def test_richardson_recovers_b1_b2(self):
        # runs at z, z/2 expose b1 and b2 through divided differences
        beta = 1.0
        V = hard_core(3, 0.8)
        region = BoxRegion(d=3, L=6.0, n_slices=8)
        zs = [0.1, 0.2]
        rhos, errs = [], []
        for i, z in enumerate(zs):
            run = gibbs_sample(z, beta, region, V, n_sweeps=5000, rng_seed=30 + i, thin=5)
            rhos.append(run["mean_N"] / region.volume)
            errs.append(run["err_N"] / region.volume)
        # rho = b1 z + b2 z^2: solve the 2x2 system
        A = np.array([[zs[0], zs[0] ** 2], [zs[1], zs[1] ** 2]])
        b1_fit, b2_fit = np.linalg.solve(A, np.array(rhos))
        prop = np.abs(np.linalg.inv(A)) @ np.array(errs)
        b1 = mayer_coefficient(1, beta, V, region=region, n_mc=2000, seed=9)
        b2 = mayer_coefficient(2, beta, V, region=region, n_mc=6000, seed=9)
        assert b1.error is None  # b1 is closed-form
        assert abs(b1_fit - b1.value) < 3 * prop[0] + 0.15 * abs(b1.value)
        assert abs(b2_fit - b2.value) < 3 * prop[1] + 3 * b2.error + 0.3 * abs(b2.value)
