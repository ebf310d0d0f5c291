"""Integration by parts, reduced density matrices, boundary independence."""

import numpy as np
import pytest

from bosegas.loopgas import (
    BoxRegion,
    DIRICHLET,
    ExpPairing,
    LoopTestFunction,
    One,
    Pairing,
    PairingProduct,
    free_density,
    free_rdm,
    gibbs_sample,
    hard_core,
    integration_by_parts_check,
    mean_pairing,
    reduced_density_matrix,
    sample_free_poisson_batch,
    sigma_independence_check,
)

# an inf - inf or 0 * inf in the hard-core right-hand side fails here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def f_probe(L):
    return LoopTestFunction(fn=lambda ts, xs: np.cos(2 * np.pi * xs[..., 0] / L) + 0.5, t_max=1.0)


def g_probe(L, k=1):
    return LoopTestFunction(fn=lambda ts, xs: np.sin(2 * np.pi * k * xs[..., 0] / L), t_max=2.0)


class TestIntegrationByParts:
    def test_first_charlier_both_sides_vanish(self):
        region = BoxRegion(d=1, L=5.0, n_slices=8)
        rec = integration_by_parts_check(
            0.4, 1.0, region, None, f_probe(5.0), One(), One(), n_mc=600, seed=41
        )
        assert abs(rec["lhs"]) < 3.5 * rec["lhs_err"]
        assert rec["rhs"] == 0

    def test_exp_reproduces_functional_derivative(self):
        # F = 1, G = e^{i(phi,g)}: the rhs equals the directional derivative of
        # the generating functional, checked by numerical differentiation
        from bosegas.loopgas import characteristic_functional

        region = BoxRegion(d=1, L=5.0, n_slices=8)
        z = 0.4
        f, g = f_probe(5.0), g_probe(5.0)
        rec = integration_by_parts_check(
            z, 1.0, region, None, f, One(), ExpPairing(g), n_mc=4000, seed=42
        )
        eps = 1e-3
        gp = LoopTestFunction(
            fn=lambda ts, xs: g.fn(ts, xs) + eps * np.where(ts <= f.t_max, f.fn(ts, xs), 0.0),
            t_max=2.0,
        )
        gm = LoopTestFunction(
            fn=lambda ts, xs: g.fn(ts, xs) - eps * np.where(ts <= f.t_max, f.fn(ts, xs), 0.0),
            t_max=2.0,
        )
        cp = characteristic_functional(z, 1.0, region, gp, n_mc=4000, seed=43)
        cm = characteristic_functional(z, 1.0, region, gm, n_mc=4000, seed=43)
        # E[(phi,f) e^{i(phi,g)}] = -i dGamma/deps; lhs subtracts E<phi,f> Gamma
        deriv = (cp["formula"] - cm["formula"]) / (2 * eps)
        cg = characteristic_functional(z, 1.0, region, g, n_mc=4000, seed=43)
        target = -1j * deriv - rec["mean_pairing"] * cg["formula"]
        err = np.hypot(rec["lhs_err"], abs(cp["formula_err"]) / eps / 2 + abs(cg["formula_err"]))
        assert abs(rec["lhs"] - target) < 4 * err
        assert abs(rec["lhs"] - rec["rhs"]) < 3.5 * np.hypot(rec["lhs_err"], rec["rhs_err"])

    @pytest.mark.parametrize(
        "make_FG",
        [
            lambda f, g1, g2: (One(), Pairing(g1)),
            lambda f, g1, g2: (Pairing(g1), One()),
            lambda f, g1, g2: (Pairing(g1), Pairing(g2)),
            lambda f, g1, g2: (One(), PairingProduct(g1, g2)),
            lambda f, g1, g2: (One(), ExpPairing(g1)),
            lambda f, g1, g2: (ExpPairing(g1), ExpPairing(g2)),
        ],
    )
    def test_cylindrical_family_free(self, make_FG):
        region = BoxRegion(d=1, L=5.0, n_slices=8)
        f, g1, g2 = f_probe(5.0), g_probe(5.0, 1), g_probe(5.0, 2)
        F, G = make_FG(f, g1, g2)
        rec = integration_by_parts_check(0.4, 1.0, region, None, f, F, G, n_mc=3000, seed=44)
        assert rec["sigma_distance"] < 3.5

    def test_small_hard_core(self):
        region = BoxRegion(d=1, L=5.0, n_slices=8)
        V = hard_core(1, 0.4)
        f, g = f_probe(5.0), g_probe(5.0)
        rec = integration_by_parts_check(0.2, 1.0, region, V, f, One(), ExpPairing(g), n_mc=3000, seed=45)
        assert rec["sigma_distance"] < 3.5

    def test_mean_pairing_closed_form(self):
        # periodic box + time-window profile: E<phi, f> is exact up to the
        # trapezoid weight of the window
        region = BoxRegion(d=1, L=5.0, n_slices=8)
        z = 0.4
        f = LoopTestFunction(fn=lambda ts, xs: np.ones_like(ts), t_max=0.5)
        val, err = mean_pairing(z, 1.0, region, f, n_mc=2000, seed=46)
        from bosegas.loopgas import winding_masses

        nus, jm = winding_masses(z, 1.0, region)
        ts_weight = []
        for j in range(1, jm + 1):
            ts = 0.125 * np.arange(j * 8 + 1)
            w = np.full(ts.size, 0.125)
            w[0] = w[-1] = 0.0625
            ts_weight.append(nus[j - 1] * w[ts <= 0.5].sum())
        assert abs(val - sum(ts_weight)) < max(3 * err, 1e-10)


# Records of criterion 8's (F, G) pairs at V = 0 and at the hard core, from the
# loop-by-loop evaluation (each F(phi - d_w) re-paired on the reduced
# configuration); the pairing-vector evaluation must reproduce them.
PINNED_IBP = {
    ("pairing", 0.4): dict(
        lhs=-0.012464497012229223, rhs=-0.014291698914050136,
        lhs_err=0.012960278053866545, rhs_err=0.010431734003114831, mean_pairing=0.33849628588108965,
    ),
    ("pairing", 0.2): dict(
        lhs=0.001098422121973633, rhs=0.004247465946914795,
        lhs_err=0.0023862821314319742, rhs_err=0.004448216483010558, mean_pairing=0.15079427337405923,
    ),
    ("exp", 0.4): dict(
        lhs=-0.1074602444967405 + 0.02892800520960469j, rhs=-0.01915341919431579 - 0.0062071315781898374j,
        lhs_err=0.07058719227531403, rhs_err=0.02121797207393195, mean_pairing=0.33849628588108965,
    ),
    ("exp", 0.2): dict(
        lhs=-0.0019809554130790527 + 0.014352372983624573j, rhs=-0.032625166557181146 - 0.005520858947090996j,
        lhs_err=0.04737917489724009, rhs_err=0.012209413066222473, mean_pairing=0.15079427337405923,
    ),
}


@pytest.mark.parametrize("kind,z", list(PINNED_IBP))
def test_ibp_records_pinned(kind, z):
    region = BoxRegion(d=1, L=5.0, n_slices=8)
    f = LoopTestFunction(fn=lambda ts, xs: np.cos(2 * np.pi * xs[..., 0] / 5.0) + 0.5, t_max=1.0)
    g1 = LoopTestFunction(fn=lambda ts, xs: np.sin(2 * np.pi * xs[..., 0] / 5.0), t_max=2.0)
    g2 = LoopTestFunction(fn=lambda ts, xs: np.cos(4 * np.pi * xs[..., 0] / 5.0), t_max=2.0)
    F, G = (Pairing(g1), Pairing(g2)) if kind == "pairing" else (ExpPairing(g1), ExpPairing(g2))
    V, seed = (None, 801) if z == 0.4 else (hard_core(1, 0.4), 802)
    rec = integration_by_parts_check(z, 1.0, region, V, f, F, G, n_mc=80, seed=seed)
    for key, want in PINNED_IBP[(kind, z)].items():
        assert abs(rec[key] - want) <= 1e-12 * abs(want), key


class TestReducedDensityMatrix:
    def test_free_matches_closed_form(self):
        region = BoxRegion(d=3, L=7.0, n_slices=8)
        z = 0.4
        x = np.array([2.0, 3.0, 3.5])
        y = np.array([2.5, 3.0, 3.5])
        rec = reduced_density_matrix(z, 1.0, region, x, y, V=None, n_mc=400, seed=47)
        assert np.isclose(rec["estimate"], free_rdm(z, 1.0, region, x, y), rtol=1e-10)

    def test_free_diagonal_is_density(self):
        region = BoxRegion(d=3, L=7.0, n_slices=8)
        z = 0.35
        x = np.array([3.5, 3.5, 3.5])
        rec = reduced_density_matrix(z, 1.0, region, x, x, V=None, n_mc=200, seed=48)
        assert np.isclose(rec["estimate"], free_density(z, 1.0, region), rtol=1e-10)

    def test_interacting_symmetry(self):
        region = BoxRegion(d=3, L=6.0, n_slices=4)
        z = 0.25
        V = hard_core(3, 0.8)
        run = gibbs_sample(z, 1.0, region, V, n_sweeps=800, rng_seed=49, thin=4)
        x = np.array([2.0, 3.0, 3.0])
        y = np.array([3.2, 3.0, 3.0])
        a = reduced_density_matrix(z, 1.0, region, x, y, V=V, gibbs_configs=run["configs"], n_mc=600, seed=50)
        b = reduced_density_matrix(z, 1.0, region, y, x, V=V, gibbs_configs=run["configs"], n_mc=600, seed=51)
        err = np.hypot(a["std_error"], b["std_error"])
        assert abs(a["estimate"] - b["estimate"]) < 3.5 * err

    def test_interacting_below_free_at_diagonal(self):
        # repulsion depletes the local density
        region = BoxRegion(d=3, L=6.0, n_slices=4)
        z = 0.3
        V = hard_core(3, 1.0)
        run = gibbs_sample(z, 1.0, region, V, n_sweeps=1200, rng_seed=52, thin=4)
        x = np.array([3.0, 3.0, 3.0])
        rec = reduced_density_matrix(z, 1.0, region, x, x, V=V, gibbs_configs=run["configs"], n_mc=800, seed=53)
        assert rec["estimate"] < free_density(z, 1.0, region)

    def test_far_separation_bound_status(self):
        region = BoxRegion(d=3, L=12.0, n_slices=4)
        z = 0.2
        V = hard_core(3, 0.6)
        run = gibbs_sample(z, 1.0, region, V, n_sweeps=300, rng_seed=54, thin=4)
        x = np.array([1.0, 1.0, 1.0])
        y = np.array([7.0, 7.0, 7.0])
        rec = reduced_density_matrix(z, 1.0, region, x, y, V=V, gibbs_configs=run["configs"], n_mc=300, seed=55)
        # the free kernel at separation > 10 thermal lengths is immeasurably small
        assert rec["status"] in ("upper-bound", "value")
        assert abs(rec["estimate"]) < 1e-6

    def test_rdm_integral_matches_mean_number_free(self):
        # integral of the diagonal over the box = <N>: exact identity of the masses
        region = BoxRegion(d=3, L=6.0, n_slices=4)
        z = 0.4
        from bosegas.loopgas import winding_masses

        nus, _ = winding_masses(z, 1.0, region)
        j = np.arange(1, nus.size + 1)
        mean_N = (j * nus).sum()
        x = np.array([3.0, 3.0, 3.0])
        rho = reduced_density_matrix(z, 1.0, region, x, x, V=None, n_mc=100, seed=56)["estimate"]
        assert np.isclose(rho * region.volume, mean_N, rtol=1e-10)


class TestSigmaIndependence:
    def test_free_density_gap_shrinks(self):
        rep = sigma_independence_check(0.5, 1.0, None, [6.0, 10.0, 14.0], seed=57)
        rels = [r["rel_gap"] for r in rep["rows"]]
        assert rels[0] > rels[1] > rels[2]
        assert rep["passed"]
        assert rep["final_rel_gap"] < 0.01

    def test_boundary_window_negative_control(self):
        rep = sigma_independence_check(
            0.5, 1.0, None, [6.0, 10.0, 14.0], boundary_window=True, seed=58
        )
        assert not rep["passed"]
        assert rep["rows"][-1]["rel_gap"] > 0.05

    @pytest.mark.slow
    def test_hard_core_gap_shrinks(self):
        V = hard_core(3, 0.6)
        rep = sigma_independence_check(
            0.25, 1.0, V, [5.0, 8.0], n_mc=1200, n_slices=4, seed=59
        )
        rels = [r["rel_gap"] for r in rep["rows"]]
        errs = [r["err"] / abs(r["periodic"]) for r in rep["rows"]]
        assert rels[1] < rels[0] + 3 * (errs[0] + errs[1])
