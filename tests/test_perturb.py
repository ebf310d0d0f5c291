"""Polynomial perturbations: action, reweighting, first-order response."""

from math import factorial

import numpy as np
import pytest

from bosegas.thermal import (
    FieldGrid,
    PolynomialPerturbation,
    ThermalFieldParams,
    char_functional,
    mollify,
    pair_field,
    reweighted_state,
    sample_field,
    sample_fields,
)
from bosegas.thermal.perturb import (
    _kernel_matrix,
    _region_mask,
    perturbation_action,
    perturbation_action_batch,
    shifted_action_batch,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def params_1d(mu=0.7, n_x=16, L=4.0, n_tau=8):
    grid = FieldGrid(beta=1.0, n_tau=n_tau, d=1, L=L, n_x=n_x)
    return ThermalFieldParams(grid=grid, mu=mu)


def quadratic(lam, width=0.5, region=None, kernel=None):
    return PolynomialPerturbation(
        coeffs=(0.0, 0.0, 1.0), lam=lam, mollifier_width=width, region=region, kernel=kernel
    )


class TestConstruction:
    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            PolynomialPerturbation(coeffs=(0.0, 1.0, 0.0, 1.0), lam=0.1)

    def test_negative_leading_rejected(self):
        with pytest.raises(ValueError):
            PolynomialPerturbation(coeffs=(0.0, 0.0, -1.0), lam=0.1)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            PolynomialPerturbation(coeffs=(0.0, 0.0, 1.0), lam=-0.1)

    def test_nonlocal_requires_nonnegative_P(self):
        # x^2 - 1 dips below zero: rejected in the nonlocal case
        with pytest.raises(ValueError):
            PolynomialPerturbation(
                coeffs=(-1.0, 0.0, 1.0), lam=0.1, kernel=lambda r: np.exp(-(r**2))
            )
        # shifted up it is fine
        PolynomialPerturbation(coeffs=(1.0, 0.0, 1.0), lam=0.1, kernel=lambda r: np.exp(-(r**2)))

    def test_nonlocal_kernel_must_be_positive_definite(self):
        p = params_1d()
        pert = PolynomialPerturbation(
            coeffs=(0.0, 0.0, 1.0),
            lam=0.1,
            mollifier_width=0.5,
            # sign-alternating kernel: not positive definite on the grid
            kernel=lambda r: np.cos(8 * np.pi * r / 4.0) - 0.5,
        )
        s = sample_field(p, 1)
        with pytest.raises(ValueError):
            perturbation_action(s, pert)

    def test_min_value(self):
        pert = PolynomialPerturbation(coeffs=(2.0, 0.0, 1.0), lam=0.1)
        assert np.isclose(pert.min_value(), 2.0)


class TestMollifier:
    def test_preserves_constants(self):
        p = params_1d()
        vals = np.full((1, 8, 16), 2.5)
        out = mollify(vals, p.grid, 0.6)
        assert np.allclose(out, 2.5)

    def test_damps_high_modes(self):
        p = params_1d()
        x = np.arange(16)
        wave = np.cos(2 * np.pi * 7 * x / 16)[None, None, :] * np.ones((1, 8, 1))
        out = mollify(wave, p.grid, 0.6)
        assert np.abs(out).max() < 0.05 * np.abs(wave).max()

    def test_width_floor(self):
        p = params_1d()
        with pytest.raises(ValueError):
            mollify(np.zeros((1, 8, 16)), p.grid, 0.1)


class TestAction:
    def test_zero_coupling(self):
        p = params_1d()
        s = sample_field(p, 5)
        assert perturbation_action(s, quadratic(0.0)) == 0.0

    def test_quadratic_sign(self):
        p = params_1d()
        s = sample_field(p, 6)
        assert perturbation_action(s, quadratic(0.3)) <= 0.0

    def test_matches_direct_sum(self):
        p = params_1d()
        s = sample_field(p, 7)
        pert = quadratic(0.3, width=0.5)
        phi_eps = mollify(s.values[None], p.grid, 0.5)[0]
        direct = -0.3 * p.grid.dtau * p.grid.cell * (phi_eps**2).sum()
        assert np.isclose(perturbation_action(s, pert), direct, rtol=1e-12)

    def test_subregion_smaller_than_full(self):
        p = params_1d()
        s = sample_field(p, 8)
        full = perturbation_action(s, quadratic(0.3))
        sub = perturbation_action(s, quadratic(0.3, region=((1.0, 3.0),)))
        assert 0 >= sub >= full

    def test_nonlocal_action_nonpositive(self):
        p = params_1d()
        s = sample_field(p, 9)
        pert = PolynomialPerturbation(
            coeffs=(0.5, 0.0, 1.0), lam=0.2, mollifier_width=0.5,
            kernel=lambda r: np.exp(-(r**2)),
        )
        assert perturbation_action(s, pert) < 0.0

    def test_nonlocal_subregion_matches_full_direct(self):
        # direct double sum against the FFT convolution on the full torus
        p = params_1d(n_x=8)
        s = sample_field(p, 10)
        kern = lambda r: np.exp(-(r**2))
        full = PolynomialPerturbation(
            coeffs=(0.5, 0.0, 1.0), lam=0.2, mollifier_width=1.0, kernel=kern
        )
        boxed = PolynomialPerturbation(
            coeffs=(0.5, 0.0, 1.0), lam=0.2, mollifier_width=1.0, kernel=kern,
            region=((0.0, 4.0),),
        )
        assert np.isclose(perturbation_action(s, full), perturbation_action(s, boxed), rtol=1e-10)


class TestReweighting:
    def test_zero_coupling_reproduces_free_functional(self):
        p = params_1d()
        f = 0.6 * np.ones(16)
        rec = reweighted_state(p, quadratic(0.0), f, n_samples=20_000, seed=31)
        assert rec["ess"] == pytest.approx(20_000)
        assert abs(rec["re"] - char_functional(p, f)) < 3 * rec["re_err"]

    def test_first_order_shift(self):
        # d<phi(f)^2>/dlambda at 0 = -Cov(phi(f)^2, S), S = integral phi_eps^2
        p = params_1d()
        lam = 1e-3
        pert = quadratic(lam, width=0.5)
        n = 40_000
        phi = sample_fields(p, n, seed=32)
        f = np.ones(16)
        v2 = pair_field(phi, p.grid, f) ** 2
        S = -perturbation_action_batch(phi, p.grid, quadratic(1.0, width=0.5))
        w = np.exp(-lam * S)
        shifted = (v2 * w).sum() / w.sum()
        predicted = v2.mean() - lam * (np.cov(v2, S)[0, 1])
        shift = shifted - v2.mean()
        assert shift < 0  # repulsive quadratic pushes the variance down
        assert abs(shifted - predicted) < 0.1 * abs(shift) + 3 * v2.std() / np.sqrt(n) * lam

    def test_reweighted_matches_first_order(self):
        p = params_1d()
        lam = 1e-2
        f = np.ones(16)
        pert = quadratic(lam, width=0.5)
        rec = reweighted_state(p, pert, f, n_samples=30_000, seed=33)
        # first-order oracle from free-field covariances, common random numbers
        n = 30_000
        phi = sample_fields(p, n, seed=33)
        cosv = np.cos(pair_field(phi, p.grid, f))
        S = -perturbation_action_batch(phi, p.grid, quadratic(1.0, width=0.5))
        first_order = cosv.mean() - lam * np.cov(cosv, S)[0, 1]
        assert abs(rec["re"] - first_order) < 3 * rec["re_err"] + 0.1 * lam

    def test_ess_guard(self):
        p = params_1d()
        # brutal coupling collapses the weights
        pert = PolynomialPerturbation(coeffs=(0.0, 0.0, 0.0, 0.0, 50.0), lam=50.0,
                                      mollifier_width=0.5)
        rec = reweighted_state(p, pert, np.ones(16), n_samples=500, seed=34)
        assert rec["estimate"] is None
        assert "effective sample size" in rec["diagnostic"]


class TestReweightingExactConsistency:
    def test_zero_coupling_same_samples_exact(self):
        # lambda = 0: weights are identically 1, so the reweighted value equals
        # the plain average over the identical sample stream, bit for bit
        p = params_1d()
        f = 0.5 * np.ones(16)
        rec = reweighted_state(p, quadratic(0.0), f, n_samples=2000, seed=71)
        phi = sample_fields(p, 2000, seed=71)
        plain = float(np.cos(pair_field(phi, p.grid, f)).mean())
        assert rec["re"] == plain

    def test_critical_zero_function_is_one(self):
        from bosegas.thermal import FieldGrid, ThermalFieldParams

        grid = FieldGrid(beta=1.0, n_tau=8, d=1, L=4.0, n_x=16)
        p = ThermalFieldParams(grid=grid, mu=0.0, critical=True, c=1.0)
        rec = reweighted_state(p, quadratic(1e-3), np.zeros(16), n_samples=500, seed=72)
        assert rec["re"] == 1.0 and rec["im"] == 0.0

    def test_stratified_component_weights(self):
        from bosegas.thermal import FieldGrid, ThermalFieldParams
        from bosegas.thermal.mixing import PureStatePoint

        grid = FieldGrid(beta=1.0, n_tau=8, d=1, L=4.0, n_x=16)
        p = ThermalFieldParams(grid=grid, mu=0.0, critical=True, c=1.0)
        rec = reweighted_state(p, quadratic(1e-3), np.ones(16), n_samples=400, seed=73,
                               stratify=(4, 4))
        assert len(rec["component_weights"]) == 16
        pt, wt = rec["component_weights"][0]
        assert isinstance(pt, PureStatePoint) and wt > 0


# Full complex-FFT forms of the filters; the real-to-complex ones must agree
# with them to rounding.


def reference_mollify(values, grid, eps):
    axes = tuple(range(-grid.d, 0))
    filt = np.exp(-0.5 * eps**2 * grid.ksq())
    return np.fft.ifftn(np.fft.fftn(values, axes=axes) * filt, axes=axes).real


def reference_nonlocal_action(phi, grid, pert):
    """Whole-torus nonlocal action of premollified fields."""
    spatial = tuple(range(-grid.d, 0))
    P = pert.poly()(phi)
    conv = np.fft.ifftn(
        np.fft.fftn(P, axes=spatial) * np.fft.fftn(_kernel_matrix(grid, pert.kernel)), axes=spatial
    ).real
    return -pert.lam * grid.dtau * ((P * conv).sum(axis=spatial) * grid.cell**2).sum(axis=-1)


def reference_gram_actions(values, grid, pert, shifts):
    """Nonlocal shifted actions from the full-spectrum Gram matrix of the power fields."""
    poly, deg, n = pert.poly(), pert.poly().degree(), values.shape[0]
    C = np.stack([poly.deriv(q)(shifts) / factorial(q) for q in range(deg + 1)], axis=-1)
    mask = _region_mask(grid, pert.region)
    spatial = tuple(range(-grid.d, 0))
    powers = np.stack([mask * values**q for q in range(deg + 1)])
    spec = np.fft.fftn(powers, axes=spatial)
    filtered = (spec * np.fft.fftn(_kernel_matrix(grid, pert.kernel))).reshape(deg + 1, n, -1)
    spec = spec.reshape(deg + 1, n, -1).conj()
    G = np.einsum("pnk,qnk->npq", spec, filtered).real * grid.cell**2 / mask.size
    return -pert.lam * grid.dtau * np.einsum("sp,npq,sq->sn", C, G, C)


# (d, n_x, n_tau): every d with an odd and an even n_x, both n_tau parities
SHAPES = [(1, 7, 5), (1, 8, 4), (2, 5, 4), (2, 6, 3), (3, 4, 3), (3, 5, 2)]


def shaped_fields(d, n_x, n_tau, critical, n=5, seed=51):
    grid = FieldGrid(beta=1.0, n_tau=n_tau, d=d, L=3.0, n_x=n_x)
    if critical:
        p = ThermalFieldParams(grid=grid, mu=0.0, critical=True, c=1.0)
    else:
        p = ThermalFieldParams(grid=grid, mu=0.6)
    return grid, sample_fields(p, n, seed)


@pytest.mark.parametrize("critical", [False, True])
@pytest.mark.parametrize("d, n_x, n_tau", SHAPES)
class TestRealTransforms:
    def test_mollify(self, d, n_x, n_tau, critical):
        grid, phi = shaped_fields(d, n_x, n_tau, critical)
        eps = 2.5 * grid.a
        np.testing.assert_allclose(mollify(phi, grid, eps), reference_mollify(phi, grid, eps),
                                   rtol=1e-12, atol=1e-12 * np.abs(phi).max())

    def test_nonlocal_action(self, d, n_x, n_tau, critical):
        grid, phi = shaped_fields(d, n_x, n_tau, critical)
        eps = 2.5 * grid.a
        kern = lambda r: np.exp(-(r**2))
        full = PolynomialPerturbation(coeffs=(0.5, 0.0, 1.0), lam=0.2, mollifier_width=eps, kernel=kern)
        ref = reference_nonlocal_action(reference_mollify(phi, grid, eps), grid, full)
        np.testing.assert_allclose(perturbation_action_batch(phi, grid, full), ref, rtol=1e-12)
        # a sub-region takes the direct double sum over the mollified fields
        boxed = PolynomialPerturbation(coeffs=(0.5, 0.0, 1.0), lam=0.2, mollifier_width=eps,
                                       kernel=kern, region=((0.0, 1.6),) * d)
        ref = perturbation_action_batch(reference_mollify(phi, grid, eps), grid, boxed,
                                        premollified=True)
        np.testing.assert_allclose(perturbation_action_batch(phi, grid, boxed), ref, rtol=1e-12)

    @pytest.mark.parametrize("region", [None, "box"])
    def test_shifted_gram(self, d, n_x, n_tau, critical, region):
        grid, phi = shaped_fields(d, n_x, n_tau, critical)
        pert = PolynomialPerturbation(coeffs=(0.5, 0.0, 1.0, 0.0, 0.3), lam=0.2,
                                      kernel=lambda r: np.exp(-(r**2)),
                                      region=None if region is None else ((0.0, 1.6),) * d)
        shifts = np.array([0.0, 0.4, -1.3])
        np.testing.assert_allclose(shifted_action_batch(phi, grid, pert, shifts),
                                   reference_gram_actions(phi, grid, pert, shifts), rtol=1e-12)
