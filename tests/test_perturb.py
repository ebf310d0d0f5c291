"""Polynomial perturbations: action, reweighting, first-order response."""

from math import factorial

import numpy as np
import pytest

from bosegas.diagnostics import jackknife_error
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
from bosegas.thermal import fields
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

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_samples_refused(self, n):
        with pytest.raises(ValueError, match="n_samples"):
            reweighted_state(params_1d(), quadratic(1e-2), np.ones(16), n_samples=n, seed=1)


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


def reference_region_action(phi, grid, pert):
    """Nonlocal action of premollified fields over a region, as the direct
    double sum sum_ij P(x_i) F(x_i - x_j) P(x_j) over the region's points."""
    mask = _region_mask(grid, pert.region)
    pts = np.argwhere(mask)
    diffs = (pts[:, None, :] - pts[None, :, :]) % grid.n_x
    idx = np.ravel_multi_index(np.moveaxis(diffs, -1, 0), grid.spatial_shape)
    Fsub = _kernel_matrix(grid, pert.kernel).reshape(-1)[idx]
    P = pert.poly()(phi).reshape(phi.shape[: -grid.d] + (-1,))[..., mask.ravel()]
    quad = np.einsum("...i,ij,...j->...", P, Fsub, P) * grid.cell**2
    return -pert.lam * grid.dtau * quad.sum(axis=-1)


def reference_action(phi, grid, pert):
    """Gibbs log-weights of premollified fields from the forms above: the local
    sum, the whole-torus convolution by complex FFTs, or the region double sum."""
    if pert.lam == 0.0:
        return np.zeros(phi.shape[0])
    if pert.kernel is None:
        P = pert.poly()(phi) * _region_mask(grid, pert.region)
        return -pert.lam * grid.dtau * grid.cell * P.reshape(phi.shape[0], -1).sum(axis=-1)
    if pert.region is None:
        return reference_nonlocal_action(phi, grid, pert)
    return reference_region_action(phi, grid, pert)


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
        # a sub-region against the direct double sum over the mollified fields
        boxed = PolynomialPerturbation(coeffs=(0.5, 0.0, 1.0), lam=0.2, mollifier_width=eps,
                                       kernel=kern, region=((0.0, 1.6),) * d)
        ref = reference_region_action(reference_mollify(phi, grid, eps), grid, boxed)
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


def reference_reweighted_state(params, pert, f, n_samples, seed):
    """reweighted_state composed from its parts: sample_fields, the complex-FFT
    mollifier and the reference actions."""
    grid = params.grid
    phi = sample_fields(params, n_samples, seed)
    eps = pert.mollifier_width
    logw = reference_action(phi if eps == 0 else reference_mollify(phi, grid, eps), grid, pert)
    w = np.exp(logw - logw.max())
    fv = pair_field(phi, grid, f, 0)
    out = {"ess": w.sum() ** 2 / (w**2).sum()}
    for key, g in (("re", np.cos), ("im", np.sin)):
        num = g(fv) * w
        out[key] = num.sum() / w.sum()
        out[key + "_err"] = jackknife_error((num.sum() - num) / (w.sum() - w))
    return out


def fused_case(d, critical, kernel, region, width, lam):
    """Field parameters and a perturbation for one combination of the fused paths."""
    grid = (FieldGrid(beta=1.0, n_tau=8, d=1, L=4.0, n_x=16) if d == 1
            else FieldGrid(beta=1.0, n_tau=4, d=2, L=4.0, n_x=8))
    params = (ThermalFieldParams(grid=grid, mu=0.0, critical=True, c=1.0) if critical
              else ThermalFieldParams(grid=grid, mu=0.6))
    pert = PolynomialPerturbation(
        coeffs=(0.5, 0.0, 1.0) if kernel else (0.0, 0.3, 1.0, 0.0, 1.0), lam=lam,
        kernel=(lambda r: np.exp(-(r**2))) if kernel else None,
        mollifier_width=width * grid.a, region=((1.0, 3.0),) * d if region else None,
    )
    return params, pert


# d, critical, nonlocal P, region, mollifier width in grid spacings, lambda
FUSED_CASES = [
    (d, crit, kern, reg, width, lam)
    for d in (1, 2) for crit in (False, True) for kern in (False, True) for reg in (False, True)
    for width, lam in ((2.5, 1e-2), (0.0, 1e-3), (2.5, 0.0))
]


class TestFusedReweighting:
    """reweighted_state against its composition from the separate steps."""

    @pytest.mark.parametrize("d, critical, kernel, region, width, lam", FUSED_CASES)
    def test_matches_composition(self, d, critical, kernel, region, width, lam):
        params, pert = fused_case(d, critical, kernel, region, width, lam)
        f = 0.3 * np.random.default_rng(d).standard_normal(params.grid.spatial_shape)
        got = reweighted_state(params, pert, f, n_samples=300, seed=61)
        ref = reference_reweighted_state(params, pert, f, 300, 61)
        assert got["estimate"] is not None
        for key in ("ess", "re", "im", "re_err", "im_err"):
            assert got[key] == pytest.approx(ref[key], rel=1e-12, abs=1e-15), key

    def test_narrow_mollifier_refused(self):
        p = params_1d()
        with pytest.raises(ValueError, match="mollifier width"):
            reweighted_state(p, quadratic(1e-2, width=0.1), np.ones(16), n_samples=200, seed=1)


def counted_transforms(monkeypatch):
    """Patch the scipy transforms; returns the list of (name, input shape) calls."""
    from scipy import fft as sfft

    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        def spy(x, *args, _name=name, _fn=getattr(sfft, name), **kwargs):
            calls.append((_name, np.shape(x)))
            return _fn(x, *args, **kwargs)

        monkeypatch.setattr(sfft, name, spy)
    return calls


class TestTransformCounts:
    """Guard: each estimator streams its samples in blocks, passing every
    sample through each of its transforms once, and transforms the kernel
    once per call."""

    N, BLOCK = 150, 32  # five blocks, the last of 22 samples

    def streamed(self, monkeypatch, grid):
        monkeypatch.setattr(fields, "_BLOCK_FLOATS", self.BLOCK * grid.n_tau * grid.n_x**grid.d)
        return counted_transforms(monkeypatch)

    def passes(self, calls, grid):
        """Samples per transform kind (name, per-sample shape) over the batch
        calls; no batch call spans more than one block."""
        seen = {}
        for name, shape in calls:
            if shape != grid.spatial_shape:
                assert shape[0] <= self.BLOCK, (name, shape)
                seen[name, shape[1:]] = seen.get((name, shape[1:]), 0) + shape[0]
        return seen

    def test_reweighted_state(self, monkeypatch):
        grid = FieldGrid(beta=1.0, n_tau=4, d=2, L=4.0, n_x=8)
        params = ThermalFieldParams(grid=grid, mu=0.0, critical=True, c=1.0)
        pert = PolynomialPerturbation(coeffs=(0.0, 0.0, 1.0), lam=1e-3, kernel=lambda r: np.exp(-(r**2)),
                                      mollifier_width=1.0)
        calls = self.streamed(monkeypatch, grid)
        reweighted_state(params, pert, np.ones((8, 8)), n_samples=self.N, seed=2)
        # forward over (tau, x, y) and the P transform; the inverse as its time
        # pass and spatial passes; the tau = 0 slice's spatial inverse
        assert self.passes(calls, grid) == {
            ("rfftn", (4, 8, 8)): 2 * self.N, ("ifft", (4, 8, 5)): self.N,
            ("irfftn", (4, 8, 5)): self.N, ("irfftn", (8, 5)): self.N,
        }
        assert [c for c in calls if c[1] == grid.spatial_shape] == [("rfftn", (8, 8))]  # the kernel

    def test_renormalized_mixing(self, monkeypatch):
        from bosegas.thermal import renormalized_mixing

        grid = FieldGrid(beta=1.0, n_tau=4, d=2, L=4.0, n_x=8)
        params = ThermalFieldParams(grid=grid, mu=0.0, critical=True, c=1.0)
        pert = PolynomialPerturbation(coeffs=(0.0, 0.0, 1.0, 0.0, 1.0), lam=1e-2, mollifier_width=1.0)
        calls = self.streamed(monkeypatch, grid)
        renormalized_mixing(params, pert, 4, 4, n_samples=self.N, seed=3)
        assert self.passes(calls, grid) == {("rfftn", (4, 8, 8)): self.N, ("irfftn", (4, 8, 5)): self.N}
        assert len(calls) == 2 * 5  # a forward and an inverse per block, nothing else
