"""Gaussian loop-field sampler against the analytic mode-sum covariance."""

import numpy as np
import pytest

import bosegas.thermal.fields as fields_mod
from bosegas.rng import generator
from bosegas.thermal import (
    FieldGrid,
    ThermalFieldParams,
    char_functional,
    covariance,
    ergodicity_diagnostic,
    loop_kernel,
    pair_field,
    sample_fields,
    weyl_expectation,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def small_params(critical=False, c=1.0, mu=0.7, n_x=16, L=4.0, n_tau=8, d=1, beta=1.0):
    grid = FieldGrid(beta=beta, n_tau=n_tau, d=d, L=L, n_x=n_x)
    if critical:
        return ThermalFieldParams(grid=grid, mu=0.0, critical=True, c=c)
    return ThermalFieldParams(grid=grid, mu=mu)


class TestKernel:
    def test_closed_form_coth(self):
        # single mode at energy 1, beta 1, tau 0: (1+e^-1)/(1-e^-1) = coth(1/2)
        val = loop_kernel(1.0, 1.0, 0.0)
        assert np.isclose(val, 1.0 / np.tanh(0.5), rtol=1e-14)
        assert np.isclose(val, 2.163953413738653, rtol=1e-12)

    def test_time_reflection_symmetry(self):
        eps = np.array([0.3, 1.7, 9.0])
        assert np.allclose(loop_kernel(eps, 1.3, 0.4), loop_kernel(eps, 1.3, 0.9))

    def test_zero_energy_pole(self):
        with pytest.raises(ZeroDivisionError):
            loop_kernel(0.0, 1.0, 0.0)


class TestCovariance:
    def test_tau_symmetry(self):
        p = small_params()
        rng = np.random.default_rng(3)
        f, g = rng.standard_normal(16), rng.standard_normal(16)
        assert np.isclose(covariance(p, f, g, 0.25), covariance(p, f, g, p.grid.beta - 0.25))

    def test_gram_positive_semidefinite(self):
        p = small_params()
        rng = np.random.default_rng(4)
        probes = [(rng.standard_normal(16), t) for t in (0.0, 0.2, 0.5, 0.8)]
        G = np.array(
            [
                [
                    0.5 * (covariance(p, f1, f2, abs(t2 - t1)) + covariance(p, f2, f1, abs(t2 - t1)))
                    for (f2, t2) in probes
                ]
                for (f1, t1) in probes
            ]
        )
        assert np.linalg.eigvalsh(G).min() > -1e-10

    def test_critical_zero_mode_term(self):
        p = small_params(critical=True, c=1.5)
        const = np.ones(16)
        base = covariance(
            ThermalFieldParams(grid=p.grid, mu=0.0, critical=True, c=1e-12), const, const, 0.3
        )
        val = covariance(p, const, const, 0.3)
        fhat0 = p.grid.cell * const.sum()
        assert np.isclose(val - base, 1.5 * fhat0**2, rtol=1e-10)

    def test_noncritical_needs_positive_mu(self):
        grid = FieldGrid(beta=1.0, n_tau=4, d=1, L=2.0, n_x=4)
        with pytest.raises(ValueError):
            ThermalFieldParams(grid=grid, mu=0.0)


class TestSampler:
    def test_mean_is_zero(self):
        p = small_params()
        phi = sample_fields(p, 10_000, seed=11)
        f = np.sin(2 * np.pi * np.arange(16) / 16) + 0.3
        vals = pair_field(phi, p.grid, f)
        assert abs(vals.mean()) < 4 * vals.std(ddof=1) / np.sqrt(len(vals))

    def test_empirical_covariance_matches(self):
        p = small_params()
        n = 10_000
        phi = sample_fields(p, n, seed=12)
        rng = np.random.default_rng(7)
        for trial in range(3):
            f = rng.standard_normal(16)
            v0 = pair_field(phi, p.grid, f, tau_index=0)
            emp = (v0 * v0).mean()
            se = (v0 * v0).std(ddof=1) / np.sqrt(n)
            assert abs(emp - covariance(p, f, f, 0.0)) < 3 * se

    def test_cross_time_covariance(self):
        p = small_params()
        n = 20_000
        phi = sample_fields(p, n, seed=13)
        f = np.cos(2 * np.pi * 2 * np.arange(16) / 16)
        g = np.cos(2 * np.pi * 2 * np.arange(16) / 16 + 0.4)
        i = 3
        prods = pair_field(phi, p.grid, f, 0) * pair_field(phi, p.grid, g, i)
        target = covariance(p, f, g, i * p.grid.dtau)
        assert abs(prods.mean() - target) < 3 * prods.std(ddof=1) / np.sqrt(n)

    def test_seed_replay(self):
        p = small_params()
        a = sample_fields(p, 1, 42)[0]
        b = sample_fields(p, 1, 42)[0]
        assert np.array_equal(a, b)

    def test_wick_fourth_moment(self):
        p = small_params()
        n = 10_000
        phi = sample_fields(p, n, seed=14)
        f = np.ones(16)
        v = pair_field(phi, p.grid, f)
        m2, m4 = (v**2).mean(), (v**4).mean()
        se4 = (v**4).std(ddof=1) / np.sqrt(n)
        assert abs(m4 - 3 * m2**2) < 3.5 * se4

    def test_critical_offset_variance(self):
        # critical c = 1: the spatial zero mode gains variance c over the mu->0 limit
        c = 1.0
        p_crit = small_params(critical=True, c=c)
        n = 20_000
        phi = sample_fields(p_crit, n, seed=15)
        zero_mode = phi.mean(axis=(1, 2))  # space-time average isolates the offset
        var = zero_mode.var(ddof=1)
        # the nonzero modes contribute nothing to the flat average
        assert abs(var - c) < 4 * var * np.sqrt(2 / (n - 1))


class TestWeyl:
    def test_empty_exponent(self):
        p = small_params()
        assert weyl_expectation(p, np.zeros(16)) == 1.0

    def test_single_mode_closed_form(self):
        # 1-site-like probe: constant f on a grid picks out only the zero mode,
        # whose energy is mu; at mu = 1, L = 1 the exponent is coth(1/2)/4
        grid = FieldGrid(beta=1.0, n_tau=4, d=1, L=1.0, n_x=2)
        p = ThermalFieldParams(grid=grid, mu=1.0)
        f = np.ones(2)  # fhat(0) = 1
        val = weyl_expectation(p, f)
        assert np.isclose(val, np.exp(-1.0 / np.tanh(0.5) / 4), rtol=1e-12)
        assert np.isclose(val, 0.5821725756700977, rtol=1e-12)

    def test_critical_zero_mean_f_matches_mu0_limit(self):
        p = small_params(critical=True, c=2.0)
        f = np.sin(2 * np.pi * np.arange(16) / 16)  # fhat(0) = 0
        tiny = ThermalFieldParams(grid=p.grid, mu=0.0, critical=True, c=1e-14)
        assert np.isclose(weyl_expectation(p, f), weyl_expectation(tiny, f), rtol=1e-12)

    def test_factor_two_link(self):
        # measure-level characteristic functional carries twice the Weyl exponent
        p = small_params()
        rng = np.random.default_rng(8)
        f = rng.standard_normal(16)
        assert np.isclose(
            -np.log(char_functional(p, f)), -2 * np.log(weyl_expectation(p, f)), rtol=1e-12
        )
        assert np.isclose(covariance(p, f, f, 0.0), -4 * np.log(weyl_expectation(p, f)), rtol=1e-12)

    def test_mc_reproduces_char_functional(self):
        p = small_params()
        n = 20_000
        phi = sample_fields(p, n, seed=16)
        f = 0.7 * np.ones(16)
        v = pair_field(phi, p.grid, f)
        est = np.cos(v).mean()
        se = np.cos(v).std(ddof=1) / np.sqrt(n)
        assert abs(est - char_functional(p, f)) < 3 * se


class TestErgodicity:
    def test_noncritical_is_ergodic(self):
        p = small_params(mu=0.5, n_x=8, L=2.0)
        rep = ergodicity_diagnostic(p, 4000, volumes=[2.0, 4.0, 8.0], seed=21)
        assert rep["status"] == "ergodic"
        assert -1.2 <= rep["slope"] <= -0.8

    def test_critical_is_non_ergodic(self):
        p = small_params(critical=True, c=1.0, n_x=8, L=2.0)
        rep = ergodicity_diagnostic(p, 4000, volumes=[2.0, 4.0, 8.0], seed=22)
        assert rep["status"] == "non-ergodic"
        assert rep["plateau"] > 0.5

    def test_vanishing_c_reduces_to_ergodic(self):
        p = small_params(critical=True, c=1e-12, n_x=8, L=2.0)
        rep = ergodicity_diagnostic(p, 4000, volumes=[2.0, 4.0, 8.0], seed=23)
        assert rep["status"] == "ergodic"

    def test_too_few_samples_inconclusive(self):
        p = small_params(mu=0.5, n_x=8, L=2.0)
        rep = ergodicity_diagnostic(p, 8, volumes=[2.0, 4.0], seed=24)
        assert rep["status"] == "inconclusive"


# (d, n_x, n_tau): every d with an odd and an even n_x, both n_tau parities
SHAPES = [(1, 7, 5), (1, 8, 4), (2, 5, 4), (2, 6, 3), (3, 4, 3), (3, 5, 2)]


def reference_sample_fields(params, n, seed):
    """Full complex-FFT sampler (the real-to-complex one must agree to rounding);
    returns the fields and the generator after its draws."""
    g = params.grid
    rng = generator(seed)
    S = fields_mod._spectral_density(params)
    axes = tuple(range(1, g.d + 2))
    eta = rng.standard_normal((n, g.n_tau) + g.spatial_shape)
    phi = np.fft.ifftn(np.fft.fftn(eta, axes=axes) * np.sqrt(S)[None], axes=axes).real
    if params.critical:
        phi += (np.sqrt(params.c) * rng.standard_normal(n)).reshape((n,) + (1,) * (g.d + 1))
    return phi, rng


class TestRealTransformSampler:
    @pytest.mark.parametrize("critical", [False, True])
    @pytest.mark.parametrize("d, n_x, n_tau", SHAPES)
    def test_matches_complex_reference(self, d, n_x, n_tau, critical, monkeypatch):
        p = small_params(critical=critical, d=d, n_x=n_x, n_tau=n_tau, L=3.0)
        made = []

        def spy(seed):
            made.append(generator(seed))
            return made[-1]

        monkeypatch.setattr(fields_mod, "generator", spy)
        got = sample_fields(p, 6, 41)
        ref, ref_rng = reference_sample_fields(p, 6, 41)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        assert made[0].bit_generator.state == ref_rng.bit_generator.state


def reference_pair_field(values, grid, f, tau_index=0):
    slice_vals = np.take(values, tau_index, axis=-1 - grid.d)
    spatial = list(range(-grid.d, 0))
    return grid.cell * np.tensordot(slice_vals, np.asarray(f, dtype=float), axes=(spatial, spatial))


class TestPairFieldView:
    @pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
    def test_matches_take_tensordot(self, lead):
        p = small_params(d=2, n_x=5, n_tau=4)
        rng = np.random.default_rng(42)
        values = rng.standard_normal(lead + (4, 5, 5))
        f = rng.standard_normal((5, 5))
        for tau_index in (0, 3, -1):
            got = pair_field(values, p.grid, f, tau_index)
            ref = reference_pair_field(values, p.grid, f, tau_index)
            assert np.shape(got) == np.shape(ref)
            np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_non_contiguous_input(self):
        p = small_params(d=2, n_x=6, n_tau=4)
        rng = np.random.default_rng(43)
        # reversed sample axis and transposed spatial axes: no C-order view
        values = rng.standard_normal((8, 4, 6, 6))[::-2].swapaxes(-1, -2)
        assert not values.flags.c_contiguous
        f = rng.standard_normal((6, 6))
        np.testing.assert_allclose(pair_field(values, p.grid, f, 2),
                                   reference_pair_field(values, p.grid, f, 2), rtol=1e-12)

    def test_wrong_shape_rejected(self):
        p = small_params(d=2, n_x=4, n_tau=4)
        with pytest.raises(ValueError):
            pair_field(np.zeros((2, 4, 4, 4)), p.grid, np.ones(16))


class TestSampleFieldsBytes:
    """sample_fields output bytes, as recorded before the sampler's spectrum
    was shared with the perturbation and mixing estimators (7 samples, seed 123)."""

    DIGESTS = {
        (1, 16, 8, False): "0d3e626f85915505b4a029ba8ae6fd7bbc9650b032f10400510f3a0063cbfdbd",
        (1, 7, 5, True): "d3906495c46f75aa64581bf0b18d2bd82df40a32562fc04fd13e71b6fe830f9c",
        (2, 16, 8, True): "88e9321bdd700ab4feeceff86ad34b21886a7163c5b4675d0f5e4657765c8ed4",
        (2, 6, 3, False): "396dee33b820b8a82c656640ceafc93cc1747fe316f3f60b16e5db9c91dd49ab",
        (3, 5, 2, True): "6e3483236c7ffc4b8bcefc0faca520ef428d03cd63db44c05e198e60efef0a51",
    }

    @pytest.mark.parametrize("d, n_x, n_tau, critical", sorted(DIGESTS))
    def test_bytes_unchanged(self, d, n_x, n_tau, critical):
        import hashlib

        grid = FieldGrid(beta=1.0, n_tau=n_tau, d=d, L=4.0, n_x=n_x)
        p = (ThermalFieldParams(grid=grid, mu=0.0, critical=True, c=1.0) if critical
             else ThermalFieldParams(grid=grid, mu=0.7))
        digest = hashlib.sha256(sample_fields(p, 7, 123).tobytes()).hexdigest()
        assert digest == self.DIGESTS[(d, n_x, n_tau, critical)]
