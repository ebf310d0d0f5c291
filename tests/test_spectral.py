"""Ideal-gas module against closed-form and quadrature oracles."""

import numpy as np
import pytest
from scipy.special import zeta

from bosegas.errors import CondensationBoundaryError, DivergenceError, ResourceBudgetError, TruncationError
from bosegas import spectral
from bosegas.spectral import (
    J_SERIES_CAP,
    MODE_BUDGET,
    Spectrum,
    TorusGeometry,
    analytic_dos,
    auto_torus_spectrum,
    box_spectrum,
    build_torus_spectrum,
    condensate_fraction,
    continuum_density,
    critical_density,
    density,
    pressure,
    solve_mu,
)


def series_rho_cr(d, beta, n_terms=200_000):
    """Independent oracle: sum_j (4 pi j beta)^(-d/2) with integral tail correction."""
    j = np.arange(1, n_terms + 1)
    head = ((4 * np.pi * beta * j) ** (-d / 2)).sum()
    # Euler-Maclaurin tail: integral_N^inf + f(N)/2
    f_N = (4 * np.pi * beta * n_terms) ** (-d / 2)
    tail = (4 * np.pi * beta) ** (-d / 2) * 2 * n_terms ** (-1 / 2) - 0.5 * f_N
    return head + tail


def single_mode_spectrum(lam=0.0, volume=1.0):
    return Spectrum(eigenvalues=np.array([lam]), gaps=np.array([0.0]), volume=volume)


class TestTorusSpectrum:
    def test_1d_unit_scale(self):
        spec = build_torus_spectrum(TorusGeometry(d=1, L=2 * np.pi, mode_cutoff=1))
        assert np.allclose(spec.eigenvalues, [0.0, 1.0, 1.0])

    def test_3d_first_gap_multiplicity(self):
        spec = build_torus_spectrum(TorusGeometry(d=3, L=2 * np.pi, mode_cutoff=1))
        gaps = spec.gaps
        assert gaps[0] == 0.0
        assert np.isclose(gaps[1], 1.0)
        assert np.count_nonzero(np.isclose(gaps, 1.0)) == 6

    def test_mode_count(self):
        spec = build_torus_spectrum(TorusGeometry(d=3, L=10.0, mode_cutoff=20))
        assert spec.eigenvalues.size == 41**3

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(spectral, "MODE_BUDGET", 10**6)
        with pytest.raises(ResourceBudgetError, match=r"mode_cutoff=200 holds 401\^3 = 64481201 modes, over the budget of 1000000"):
            build_torus_spectrum(TorusGeometry(d=3, L=10.0, mode_cutoff=200))

    def test_automatic_cutoff_is_an_explicit_one(self):
        # the automatic torus is the explicit-cutoff torus at the cutoff its axis reaches
        n = box_spectrum(1, 6.0, "periodic", 1.0, 1e-10).eigenvalues.size
        auto = auto_torus_spectrum(3, 6.0, 1.0)
        explicit = build_torus_spectrum(TorusGeometry(d=3, L=6.0, mode_cutoff=(n - 1) // 2))
        assert n == 13 and np.array_equal(auto.eigenvalues, explicit.eigenvalues)

    def test_axis_cutoff_keeps_every_mode_above_tol_and_two_more(self):
        # exactly the last two modes of each side have exp(-t lam) < tol, and
        # the dropped tail stays inside the docstring's bound
        for boundary, k, sides in (("periodic", 2 * np.pi / 5.0, 2), ("dirichlet", np.pi / 5.0, 1)):
            for t, tol in ((1.0, 1e-10), (0.1, 1e-16), (30.0, 1e-18)):
                lam = box_spectrum(1, 5.0, boundary, t, tol).eigenvalues
                assert np.count_nonzero(np.exp(-t * lam) < tol) == 2 * sides
                n = int(round(np.sqrt(lam.max()) / k))
                s = k * np.sqrt(-t * np.log(tol))
                dropped = np.exp(-t * (k * np.arange(n + 1, n + 400)) ** 2).sum()
                assert dropped <= tol * np.exp(-4 * s) / (1 - np.exp(-2 * s))

    def test_dirichlet_box(self):
        spec = box_spectrum(2, np.pi, "dirichlet", 1.0, 1e-10)
        assert np.allclose(spec.eigenvalues[:4], [2.0, 5.0, 5.0, 8.0])
        assert spec.volume == np.pi**2 and spec.gaps[0] == 0.0

    def test_unknown_boundary(self):
        with pytest.raises(ValueError, match="boundary"):
            box_spectrum(3, 6.0, "neumann", 1.0, 1e-10)


class TestTruncationCaps:
    """Caps that stop a sum short of its tolerance raise instead of returning."""

    def test_mode_budget_raises(self):
        # refused from the per-axis count, before any list is allocated
        with pytest.raises(ResourceBudgetError, match=r"periodic box d=3, L=100000 .*tol=1e-10 "
                           r"holds 152741827\^3 = \d+ modes, over the budget of 20000000"):
            auto_torus_spectrum(3, 1e5, 1e-6)

    def test_series_cap_raises(self):
        with pytest.raises(TruncationError, match=f"cap of {J_SERIES_CAP} terms.*tail"):
            continuum_density(3, 1.0, 1e-9)

    def test_shipped_sizes_stay_inside_the_budget(self):
        # the benchmark's torus, the ideal-sweep config and the acceptance
        # boxes, counted from the axis list without building the spectrum;
        # the largest, (3, 40, 0.25), holds 127^3 = 2.05e6 modes
        for (d, L, beta), size in zip([(3, 24.0, 1.0), (3, 8.0, 0.5), (3, 16.0, 1.0), (3, 40.0, 0.25)],
                                      (41, 21, 29, 127)):
            assert box_spectrum(1, L, "periodic", beta, 1e-10).eigenvalues.size == size
            assert size**d < MODE_BUDGET / 5
        assert np.isfinite(continuum_density(3, 1.0, 0.5))


class TestAdmissibility:
    """The torus spectrum's admissibility sum (1/|box|) sum_k exp(-beta gap_k)."""

    @staticmethod
    def phi(spec, beta):
        return float(np.exp(-beta * spec.gaps).sum() / spec.volume)

    def test_large_beta_limit(self):
        spec = build_torus_spectrum(TorusGeometry(d=3, L=5.0, mode_cutoff=3))
        assert np.isclose(self.phi(spec, 1e4), 1.0 / spec.volume, rtol=1e-12)

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_gaussian_integral_oracle(self, beta):
        # Riemann sum of exp(-beta p^2) over the momentum lattice vs the Gaussian integral
        spec = auto_torus_spectrum(3, 40.0, beta)
        oracle = (4 * np.pi * beta) ** -1.5
        assert np.isclose(self.phi(spec, beta), oracle, rtol=2e-4)


class TestPressureDensity:
    def test_empty_gas_limit(self):
        spec = auto_torus_spectrum(3, 6.0, 1.0)
        assert pressure(spec, 1.0, 400.0) < 1e-150
        assert density(spec, 1.0, 400.0) < 1e-150

    def test_single_mode_closed_forms(self):
        spec = single_mode_spectrum(lam=0.0, volume=1.0)
        assert np.isclose(pressure(spec, 1.0, 1.0), -np.log(1 - np.exp(-1.0)), rtol=1e-14)
        # (e^{ln 2} - 1)^{-1} = 1
        assert np.isclose(density(spec, 1.0, np.log(2.0)), 1.0, rtol=1e-14)

    def test_boundary_error(self):
        spec = auto_torus_spectrum(3, 6.0, 1.0)
        with pytest.raises(CondensationBoundaryError):
            pressure(spec, 1.0, 0.0)
        with pytest.raises(CondensationBoundaryError):
            density(spec, 1.0, -0.5)

    def test_derivative_consistency(self):
        # centered finite difference of pressure equals -density at beta = 1
        spec = auto_torus_spectrum(3, 8.0, 1.0)
        h, mu = 1e-5, 0.4
        fd = (pressure(spec, 1.0, mu + h) - pressure(spec, 1.0, mu - h)) / (2 * h)
        assert abs(fd + density(spec, 1.0, mu)) < 1e-8

    def test_derivative_beta_scaling(self):
        # with p = ln(Z)/|box| the general relation is dp/dmu = -beta rho
        spec = auto_torus_spectrum(3, 8.0, 2.0)
        h, mu, beta = 1e-5, 0.4, 2.0
        fd = (pressure(spec, beta, mu + h) - pressure(spec, beta, mu - h)) / (2 * h)
        assert abs(fd + beta * density(spec, beta, mu)) < 1e-8

    def test_monotone_in_mu(self):
        spec = auto_torus_spectrum(3, 6.0, 1.0)
        mus = [0.1, 0.3, 1.0, 3.0]
        rhos = [density(spec, 1.0, m) for m in mus]
        ps = [pressure(spec, 1.0, m) for m in mus]
        assert all(a > b > 0 for a, b in zip(rhos, rhos[1:]))
        assert all(a > b > 0 for a, b in zip(ps, ps[1:]))

    def test_finite_vs_infinite_volume(self):
        beta, mu = 1.0, 0.5
        target = continuum_density(3, beta, mu)
        spec = auto_torus_spectrum(3, 16.0, beta)
        assert np.isclose(density(spec, beta, mu), target, rtol=5e-3)


class TestCriticalDensity:
    def test_oracle_value(self):
        rho = critical_density(1.0, analytic_dos(3))
        assert np.isclose(rho, series_rho_cr(3, 1.0), rtol=5e-3)
        assert np.isclose(rho, zeta(1.5) * (4 * np.pi) ** -1.5, rtol=1e-9)

    def test_beta_scaling(self):
        assert np.isclose(
            critical_density(4.0, analytic_dos(3)),
            critical_density(1.0, analytic_dos(3)) / 8.0,
            rtol=1e-9,
        )

    def test_low_dimension_divergence(self):
        with pytest.raises(DivergenceError):
            critical_density(1.0, analytic_dos(2))


class TestSolveMu:
    def test_round_trip(self):
        spec = auto_torus_spectrum(3, 8.0, 1.0)
        mu0 = 0.7317
        rho = density(spec, 1.0, mu0)
        assert np.isclose(solve_mu(spec, 1.0, rho), mu0, rtol=1e-10)

    def test_single_mode_ln2(self):
        spec = single_mode_spectrum()
        assert np.isclose(solve_mu(spec, 1.0, 1.0), np.log(2.0), rtol=1e-10)

    def test_condensed_regime_extrapolation(self):
        # above rho_cr the solution collapses to 0 like 1/(rho_excess L^d)
        rho = 2 * critical_density(1.0, analytic_dos(3))
        mus = []
        for L in (10.0, 20.0, 40.0):
            spec = auto_torus_spectrum(3, L, 1.0)
            mus.append(solve_mu(spec, 1.0, rho))
        assert mus[0] > mus[1] > mus[2] > 0
        scaled = [mu * L**3 for mu, L in zip(mus, (10.0, 20.0, 40.0))]
        assert max(scaled) < 5 * min(scaled)  # mu L^d stays bounded

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("L", [0.3, 0.2])
    def test_large_lowest_eigenvalue(self, L):
        # lambda(1) = 329 and 740: -lambda(1) + 1e-14 rounds back onto the pole,
        # and the upper modes' expm1 overflows to a term of exactly 0
        spec = box_spectrum(3, L, spectral.DIRICHLET, 1.0, 1e-16)
        assert spec.eigenvalues[0] > 128
        mu = solve_mu(spec, 1.0, 1.0)
        assert density(spec, 1.0, mu) == pytest.approx(1.0, rel=1e-12)

    def test_dilute_regime_converges_to_positive_mu(self):
        rho = 0.5 * critical_density(1.0, analytic_dos(3))
        mus = [solve_mu(auto_torus_spectrum(3, L, 1.0), 1.0, rho) for L in (10.0, 16.0, 24.0)]
        assert mus[-1] > 0.01
        assert abs(mus[2] - mus[1]) < abs(mus[1] - mus[0]) + 1e-12


class TestCondensateFraction:
    def test_below_critical(self):
        assert condensate_fraction(1.0, 0.01, analytic_dos(3)) == 0.0

    def test_double_critical(self):
        rho = 2 * critical_density(1.0, analytic_dos(3))
        assert np.isclose(condensate_fraction(1.0, rho, analytic_dos(3)), 0.5, rtol=1e-9)

    def test_derived_value(self):
        frac = condensate_fraction(1.0, 0.1, analytic_dos(3))
        assert np.isclose(frac, 1.0 - series_rho_cr(3, 1.0) / 0.1, rtol=5e-3)


class TestSolveMuProperty:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=25, deadline=None)
    @given(
        beta=st.floats(min_value=0.3, max_value=3.0),
        rho=st.floats(min_value=1e-4, max_value=1.0),
    )
    def test_round_trip_over_random_targets(self, beta, rho):
        spec = build_torus_spectrum(TorusGeometry(d=3, L=5.0, mode_cutoff=6))
        mu = solve_mu(spec, beta, rho)
        assert mu > -spec.eigenvalues[0]
        assert np.isclose(density(spec, beta, mu), rho, rtol=1e-8)
