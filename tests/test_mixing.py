"""Condensate mixing measure: decomposition identity and reweighted tables."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0

from bosegas.thermal import (
    FieldGrid,
    PolynomialPerturbation,
    ThermalFieldParams,
    mixing_decomposition_check,
    renormalized_mixing,
    sample_fields,
)
from bosegas.diagnostics import jackknife_error
from bosegas.thermal.mixing import mixing_nodes
from bosegas.thermal.perturb import mollify, perturbation_action_batch, shifted_action_batch
from test_perturb import fused_case, reference_action, reference_mollify

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def bessel_oracle(c, f0):
    """Independent oracle: integral (1/4) e^{-r/4} J0(sqrt(c r) f0) dr."""
    val, _ = quad(lambda r: 0.25 * np.exp(-r / 4) * j0(np.sqrt(c * r) * f0), 0, np.inf, limit=400)
    return val


def critical_params(c=1.0, n_x=16, L=4.0, n_tau=8):
    grid = FieldGrid(beta=1.0, n_tau=n_tau, d=1, L=L, n_x=n_x)
    return ThermalFieldParams(grid=grid, mu=0.0, critical=True, c=c)


class TestDecomposition:
    def test_trivial_zero_mode(self):
        lhs, rhs = mixing_decomposition_check(1.0, 0.0)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == 1.0

    def test_bessel_values(self):
        lhs, rhs = mixing_decomposition_check(1.0, 1.0)
        assert abs(lhs - np.exp(-1.0)) < 1e-6
        assert abs(lhs - bessel_oracle(1.0, 1.0)) < 1e-6
        lhs, rhs = mixing_decomposition_check(4.0, 0.5)
        assert abs(lhs - np.exp(-1.0)) < 1e-6

    @pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("f0", [0.0, 0.5, 1.0, 2.0])
    def test_identity_grid(self, c, f0):
        lhs, rhs = mixing_decomposition_check(c, f0)
        assert abs(lhs - rhs) < 1e-6
        assert abs(lhs - bessel_oracle(c, f0)) < 1e-6

    def test_requires_positive_c(self):
        with pytest.raises(ValueError):
            mixing_decomposition_check(0.0, 1.0)


class TestRenormalizedMixing:
    def test_free_weights_are_unit_ratio(self):
        p = critical_params()
        pert = PolynomialPerturbation(coeffs=(0.0, 0.0, 1.0), lam=0.0, mollifier_width=0.5)
        rep = renormalized_mixing(p, pert, 6, 8, n_samples=200, seed=1)
        assert np.allclose(rep["weight_ratio"], 1.0, atol=1e-12)
        # the base measure has Var(r) = 16 under the exponential law
        assert rep["var_r"] == pytest.approx(16.0, rel=1e-6)

    @pytest.mark.parametrize("lam", [1e-3, 1e-2])
    def test_small_coupling_nondegenerate(self, lam):
        p = critical_params()
        pert = PolynomialPerturbation(coeffs=(0.0, 0.0, 1.0), lam=lam, mollifier_width=0.5)
        rep = renormalized_mixing(p, pert, 8, 8, n_samples=3000, seed=2)
        assert rep["var_r"] > 3 * rep["var_r_jackknife_err"]
        assert rep["var_r"] > 0

    def test_quartic_coupling_has_real_jackknife_spread(self):
        # quartic P couples the sample fluctuations into the weights, so the
        # jackknife error is genuinely nonzero (the quadratic case is exact
        # under common random numbers)
        p = critical_params()
        pert = PolynomialPerturbation(coeffs=(0.0, 0.0, 0.0, 0.0, 1.0), lam=1e-3,
                                      mollifier_width=0.5)
        rep = renormalized_mixing(p, pert, 6, 6, n_samples=800, seed=9)
        assert rep["var_r_jackknife_err"] > 1e-8
        assert rep["var_r"] > 3 * rep["var_r_jackknife_err"]

    def test_even_P_theta_reflection_symmetry(self):
        # even P sees only |cos theta|: weights are exactly symmetric under
        # theta -> pi - theta and theta -> -theta on the common sample batch
        p = critical_params()
        pert = PolynomialPerturbation(coeffs=(0.0, 0.0, 1.0), lam=1e-2, mollifier_width=0.5)
        rep = renormalized_mixing(p, pert, 6, 8, n_samples=500, seed=3)
        w = rep["weights"]
        assert np.allclose(w, w[:, ::-1], rtol=1e-10)  # theta -> 2 pi - theta

    def test_tiny_coupling_near_uniform_in_theta(self):
        p = critical_params()
        pert = PolynomialPerturbation(coeffs=(0.0, 0.0, 1.0), lam=1e-4, mollifier_width=0.5)
        rep = renormalized_mixing(p, pert, 6, 8, n_samples=1000, seed=4)
        ratios = rep["weight_ratio"]
        spread = np.abs(ratios - ratios.mean(axis=1, keepdims=True)).max()
        assert spread < 0.05

    def test_requires_critical(self):
        grid = FieldGrid(beta=1.0, n_tau=8, d=1, L=4.0, n_x=16)
        p = ThermalFieldParams(grid=grid, mu=0.5)
        pert = PolynomialPerturbation(coeffs=(0.0, 0.0, 1.0), lam=0.1, mollifier_width=0.5)
        with pytest.raises(ValueError):
            renormalized_mixing(p, pert, 4, 4, 100)

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_samples_refused(self, n):
        # one sample left a nan jackknife error, none a bare numpy error
        pert = PolynomialPerturbation(coeffs=(0.0, 0.0, 1.0), lam=1e-2, mollifier_width=0.5)
        with pytest.raises(ValueError, match="n_samples"):
            renormalized_mixing(critical_params(), pert, 4, 4, n_samples=n, seed=1)


def _gauss(r):
    return np.exp(-np.asarray(r) ** 2)


class TestShiftedActions:
    """All node actions from one set of power sums, against one
    perturbation_action_batch call per shifted batch."""

    PERTS = {
        "local": dict(coeffs=(0.0, 0.0, 1.0, 0.0, 1.0), lam=1e-2),
        "local-region": dict(coeffs=(0.1, -0.3, 1.0, 0.2, 1.0), lam=1e-2, region=((1.0, 3.0),)),
        "nonlocal": dict(coeffs=(0.5, 0.0, 1.0), lam=0.2, kernel=_gauss),
        "nonlocal-region": dict(coeffs=(0.5, 0.0, 1.0, 0.0, 0.3), lam=0.2, kernel=_gauss,
                                region=((1.0, 3.0),)),
    }

    @pytest.mark.parametrize("name", sorted(PERTS))
    def test_matches_per_shift_batches(self, name):
        p = critical_params()
        pert = PolynomialPerturbation(mollifier_width=0.5, **self.PERTS[name])
        phi = sample_fields(p, 40, 11)
        centered = mollify(phi - phi.mean(axis=(1, 2), keepdims=True), p.grid, 0.5)
        shifts = np.array([0.0, 0.4, -1.3, 3.0, -9.5])
        got = shifted_action_batch(centered, p.grid, pert, shifts)
        no_mollifier = dataclasses.replace(pert, mollifier_width=0.0)
        ref = np.stack([perturbation_action_batch(centered + m, p.grid, no_mollifier) for m in shifts])
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_zero_coupling(self):
        p = critical_params()
        pert = PolynomialPerturbation(coeffs=(0.0, 0.0, 1.0), lam=0.0, mollifier_width=0.5)
        got = shifted_action_batch(sample_fields(p, 5, 1), p.grid, pert, [0.0, 2.0, 3.0])
        assert got.shape == (3, 5) and not got.any()


class TestPinnedMixing:
    """var_r and its jackknife error as the node-by-node loop gave them."""

    @pytest.mark.parametrize("pert, pinned", [
        (PolynomialPerturbation(coeffs=(0.0, 0.0, 0.0, 0.0, 1.0), lam=1e-3, mollifier_width=0.5),
         (12.890323599913328, 0.004775966344283089)),
        (PolynomialPerturbation(coeffs=(0.5, 0.0, 1.0), lam=1e-2, mollifier_width=0.5,
                                kernel=_gauss, region=((1.0, 3.0),)),
         (10.1883336058541, 0.010095509078629975)),
    ])
    def test_pinned(self, pert, pinned):
        rep = renormalized_mixing(critical_params(), pert, 6, 6, n_samples=800, seed=9)
        assert rep["var_r"] == pytest.approx(pinned[0], rel=1e-10)
        assert rep["var_r_jackknife_err"] == pytest.approx(pinned[1], rel=1e-10)


def reference_mixing(params, pert, n_r, n_theta, n_samples, seed):
    """renormalized_mixing composed from its parts: sample_fields, each
    sample's mean subtracted, the complex-FFT mollifier and one reference
    action per node."""
    grid = params.grid
    r, theta, w0 = mixing_nodes(n_r, n_theta)
    phi = sample_fields(params, n_samples, seed)
    centered = phi - phi.mean(axis=tuple(range(1, phi.ndim)), keepdims=True)
    if pert.mollifier_width:
        centered = reference_mollify(centered, grid, pert.mollifier_width)
    m = np.sqrt(params.c * r)[:, None] * np.cos(theta)[None, :]
    logw = np.stack([reference_action(centered + mi, grid, pert) for mi in m.ravel()])
    logw = logw.reshape(m.shape + (n_samples,))
    w = np.exp(logw - logw.max())
    z = w0 * w.sum(axis=-1)
    z_loo = w0[..., None] * (w.sum(axis=-1, keepdims=True) - w)

    def var_r(wt):
        rr = r.reshape((-1,) + (1,) * (wt.ndim - 1))
        return (wt * rr**2).sum(axis=(0, 1)) - (wt * rr).sum(axis=(0, 1)) ** 2

    return float(var_r(z / z.sum())), jackknife_error(var_r(z_loo / z_loo.sum(axis=(0, 1))))


class TestFusedMixing:
    """renormalized_mixing against its composition from the separate steps."""

    @pytest.mark.parametrize("width, lam", [(2.5, 1e-2), (0.0, 1e-3), (2.5, 0.0)])
    @pytest.mark.parametrize("region", [False, True])
    @pytest.mark.parametrize("kernel", [False, True])
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_composition(self, d, kernel, region, width, lam):
        params, pert = fused_case(d, True, kernel, region, width, lam)
        rep = renormalized_mixing(params, pert, 5, 4, n_samples=200, seed=62)
        var_r, err = reference_mixing(params, pert, 5, 4, 200, 62)
        assert rep["var_r"] == pytest.approx(var_r, rel=1e-12)
        # the error is a spread of leave-one-out values of var_r, each exact to
        # rounding: it agrees to 1e-12 of var_r
        assert rep["var_r_jackknife_err"] == pytest.approx(err, rel=0, abs=1e-12 * var_r)

    def test_narrow_mollifier_refused(self):
        pert = PolynomialPerturbation(coeffs=(0.0, 0.0, 1.0), lam=1e-2, mollifier_width=0.3)
        with pytest.raises(ValueError, match="mollifier width"):
            renormalized_mixing(critical_params(), pert, 4, 4, n_samples=100, seed=1)
