"""The error estimators of bosegas.diagnostics against the formulas they
replace, an AR(1) series of known autocorrelation time, and pins of the
estimates that route through them."""

import numpy as np
import pytest
from scipy.signal import lfilter

from bosegas.diagnostics import batch_means, jackknife_error, stratified_mean
from bosegas.loopgas import (
    DIRICHLET,
    BoxRegion,
    LoopTestFunction,
    characteristic_functional,
    gaussian_repulsion,
    gibbs_sample,
    hard_core,
    reduced_density_matrix,
    sample_free_poisson_batch,
)
from bosegas.loopgas.checks import Pairing, integration_by_parts_check, mean_pairing
from bosegas.loopgas.free import config_pairings
from bosegas.thermal.perturb import _jackknife_ratio

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

LENGTHS = (1, 2, 30, 39, 40, 45, 399, 400, 4000)


# -- the replaced formulas, verbatim ------------------------------------------


def chain_err_reference(x, n_batches=20):
    """The chain's batch-means error before the diagnostics module."""
    if x.size < 2 * n_batches:
        return np.nan
    b = x.size // n_batches
    means = x[: b * n_batches].reshape(n_batches, b).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(n_batches))


def chain_tau_reference(x, n_batches=20):
    """The chain's batch-means tau_int before the diagnostics module."""
    if x.size < 2 * n_batches:
        return np.nan
    b = x.size // n_batches
    means = x[: b * n_batches].reshape(n_batches, b).mean(axis=1)
    var_b = means.var(ddof=1)
    var_x = x.var(ddof=1)
    if var_x == 0:
        return 0.0
    return float(max(b * var_b / var_x / 2, 0.0))


def observables_err_reference(vals, n_batches=16):
    """The loop observables' batch-means error before the diagnostics module:
    every full batch of b = max(n // n_batches, 1) values."""
    n = vals.size
    b = max(n // n_batches, 1)
    means = vals[: b * (n // b)].reshape(-1, b).mean(axis=1)
    err = means.std(ddof=1) / np.sqrt(means.size) if means.size > 1 else np.inf
    return float(err)


def jackknife_ratio_reference(num, den):
    """The reweighted state's delete-one jackknife of sum(num)/sum(den)."""
    n = num.size
    Sn, Sd = num.sum(), den.sum()
    full = Sn / Sd
    loo = (Sn - num) / (Sd - den)
    err = np.sqrt((n - 1) / n * ((loo - loo.mean()) ** 2).sum())
    return float(full), float(err)


def mixing_jackknife_reference(loo_vars, n_samples):
    """The mixing weights' delete-one jackknife of var(r)."""
    return float(np.sqrt((n_samples - 1) / n_samples * ((loo_vars - loo_vars.mean()) ** 2).sum()))


def series(n, seed=0):
    """A correlated, non-constant test series of length n."""
    rng = np.random.default_rng(seed + n)
    return np.cumsum(rng.standard_normal(n)) * 0.1 + rng.poisson(3.0, n)


def same(a, b):
    """Bitwise equality of floats, nan equal to nan."""
    return np.array(a, dtype=float).tobytes() == np.array(b, dtype=float).tobytes()


# -- batch means ---------------------------------------------------------------


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("n_batches", (16, 20))
def test_observables_rule_is_bitwise(n, n_batches):
    x = series(n)
    assert same(batch_means(x, n_batches)[0], observables_err_reference(x, n_batches))


@pytest.mark.parametrize("n", LENGTHS)
def test_chain_rule_bitwise_where_twenty_batches(n):
    x = series(n)
    err, tau = batch_means(x, 20)
    b = max(n // 20, 1)
    if n >= 40 and n // b == 20:
        assert same(err, chain_err_reference(x)) and same(tau, chain_tau_reference(x))
        return
    # documented new value: all n // b full batches of b = max(n // 20, 1)
    assert same(err, observables_err_reference(x, 20))
    if n // b < 2:
        assert np.isinf(err) and np.isnan(tau)
    else:
        means = x[: b * (n // b)].reshape(-1, b).mean(axis=1)
        assert same(tau, max(b * means.var(ddof=1) / x.var(ddof=1) / 2, 0.0))


def test_constant_and_empty_series():
    assert batch_means(np.full(100, 3.0), 20) == (0.0, 0.0)
    err, tau = batch_means(np.zeros(0), 20)
    assert np.isinf(err) and np.isnan(tau)


def test_ar1_autocorrelation_time():
    """x_t = rho x_(t-1) + e_t from its stationary law: tau_int = (1 + rho) / (2 (1 - rho))."""
    rho, n = 0.8, 400_000
    e = np.random.default_rng(5).standard_normal(n)
    e[0] /= np.sqrt(1 - rho**2)
    x = lfilter([1.0], [1.0, -rho], e)
    err, tau = batch_means(x, 400)
    expected = (1 + rho) / (2 * (1 - rho))
    assert abs(tau - expected) < 0.2 * expected
    assert abs(err - np.sqrt(2 * expected * x.var() / n)) < 0.15 * err


# -- jackknife -----------------------------------------------------------------


@pytest.mark.parametrize("n", LENGTHS)
def test_jackknife_matches_both_replaced_formulas(n):
    rng = np.random.default_rng(n)
    loo = rng.normal(1.0, 0.1, n)
    assert same(jackknife_error(loo), mixing_jackknife_reference(loo, n))
    num, den = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)
    with np.errstate(divide="ignore", invalid="ignore"):  # n = 1 leaves nothing out
        assert same(_jackknife_ratio(num, den), jackknife_ratio_reference(num, den))


# -- winding-sector sum --------------------------------------------------------


def test_stratified_mean_real_sectors():
    rng = np.random.default_rng(1)
    sectors = [(w, rng.normal(w, 1.0, 50)) for w in (0.5, 0.1, 1e-3)]
    total, var = 0.0, 0.0
    for w, x in sectors:
        total += w * x.mean()
        var += w**2 * x.var(ddof=1) / 50
    got = stratified_mean(sectors)
    assert same(got[0], total) and same(got[1], np.sqrt(var))


def test_stratified_mean_complex_sectors():
    rng = np.random.default_rng(2)
    sectors = [(w, np.exp(1j * rng.normal(0, 1.0, 40)) - 1.0) for w in (0.7, 0.2)]
    total, var = 0.0 + 0.0j, 0.0
    for w, x in sectors:
        total += w * x.mean()
        var += (w**2) * (x.real.var(ddof=1) + x.imag.var(ddof=1)) / 40
    got = stratified_mean(sectors)
    assert got[0] == total and same(got[1], np.sqrt(var))


def test_stratified_mean_without_sectors():
    assert stratified_mean([]) == (0.0, 0.0)


# -- z = 0: no winding sector ----------------------------------------------------

REGION = BoxRegion(d=1, L=5.0, n_slices=8)
F = LoopTestFunction(fn=lambda ts, xs: np.cos(2 * np.pi * xs[..., 0] / 5.0) + 0.5, t_max=1.0)


def test_mean_pairing_at_zero_activity():
    assert mean_pairing(0.0, 1.0, REGION, F, 50, 1) == (0.0, 0.0)


def test_integration_by_parts_at_zero_activity():
    rec = integration_by_parts_check(0.0, 1.0, REGION, None, F, Pairing(F), Pairing(F), n_mc=50, seed=1)
    assert rec["lhs"] == 0 and rec["rhs"] == 0


# -- pins: values of the estimators before the diagnostics module ----------------


def test_mean_pairing_pinned():
    # exact in a periodic box: the value and its grid error (the Monte Carlo pin
    # this replaced, 0.3457742087396881 +- 0.020957185323339605, lies within 1 sigma)
    assert mean_pairing(0.4, 1.0, REGION, F, 300, 11) == (0.3458844854458552, 1.1102230246251565e-15)
    dreg = BoxRegion(d=1, L=5.0, n_slices=8, boundary=DIRICHLET)
    assert mean_pairing(0.3, 1.0, dreg, F, 100, 12) == (0.045526050512503156, 0.012644174168536347)


def test_characteristic_functional_pinned():
    rec = characteristic_functional(0.4, 1.0, REGION, F, 200, seed=13)
    assert rec == {
        "formula": 0.7942968233915164 + 0.21378620240232518j,
        "formula_err": 0.019668538445742,
        "empirical": 0.7763976404007862 + 0.2488189274254248j,
        "empirical_err": 0.041047579044345264,
        "j_max": 22,
    }


def test_reduced_density_matrix_pinned():
    region = BoxRegion(d=2, L=4.0, n_slices=4)
    x, y = np.array([0.5, 1.0]), np.array([3.5, 1.5])
    free = reduced_density_matrix(0.5, 1.0, region, x, y, V=None, n_mc=200, seed=14)
    assert (free["estimate"], free["std_error"], free["j_max"]) == (0.06641022172529994, None, 29)
    hc = reduced_density_matrix(0.5, 1.0, region, x, y, V=hard_core(2, 0.3), n_mc=200, seed=15)
    assert (hc["estimate"], hc["std_error"]) == (0.05707250822504091, 0.0005228292871101255)


@pytest.mark.parametrize("n,want", [
    (1, (0.0, np.inf)),
    (2, (0.0, 0.0)),
    (30, (0.4127956780157941, 0.14850881569643312)),
    (45, (0.38747028353884444, 0.10516507202106572)),
    (400, (0.37231381265190483, 0.029564342642306847)),
])
def test_moment_estimate_pinned(n, want):
    # the first moment E[(phi, F)] over n free configurations, with its 16-batch error
    batch = sample_free_poisson_batch(400, 0.4, 1.0, REGION, 16)
    vals = config_pairings(batch[:n], [F], 1.0, REGION)[2].prod(axis=1)
    assert (vals.mean(), batch_means(vals, 16)[0], vals.size) == (*want, n)


def test_gibbs_err_and_tau_pinned():
    region = BoxRegion(d=2, L=5.0, n_slices=4)
    # width 5/12: gaussian_repulsion's range, 6 widths, fits half the box
    run = gibbs_sample(0.4, 1.0, region, gaussian_repulsion(2, 0.5, width=5 / 12), n_sweeps=3000, rng_seed=17)
    assert (run["err_N"], run["tau_int_N"], run["mean_N"]) == (
        0.056954249619388386, 2.7119688439394714, 1.0166666666666666)
