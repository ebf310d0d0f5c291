"""Exact Fock traces against closed forms and the mode-sum free energy."""

import itertools
from math import fsum

import numpy as np
import pytest

import bosegas.fock as fock_module
from bosegas.errors import CondensationBoundaryError, ResourceBudgetError, TruncationError
from bosegas.fock import (
    DiagonalInteraction,
    TruncatedFock,
    exact_occupations,
    exact_partition,
    exact_zero_mode_statistics,
    mean_particle_number,
    solve_mu_for_number,
)
from bosegas.spectral import TorusGeometry, build_torus_spectrum, pressure

# an overflow or invalid value anywhere in the oracle fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def uniform_interaction(n_modes, vhat0, volume):
    return DiagonalInteraction(vhat=np.full((n_modes, n_modes), vhat0), volume=volume)


class TestPartition:
    def test_geometric_series(self):
        # one mode, lam = 0: Z = (1 - e^{-beta mu})^{-1} up to an invisible tail
        fock = TruncatedFock(energies=np.array([0.0]), n_max=60)
        Z = exact_partition(fock, 1.0, 1.0)
        assert np.isclose(Z, 1.0 / (1.0 - np.exp(-1.0)), rtol=1e-15, atol=0)

    def test_matches_mode_product(self):
        # free case: ln Z equals |box| * pressure on the same mode set
        spec = build_torus_spectrum(TorusGeometry(d=1, L=6.0, mode_cutoff=1))
        beta, mu = 1.0, 0.8
        fock = TruncatedFock(energies=spec.eigenvalues, n_max=45)
        lnz = np.log(exact_partition(fock, beta, mu))
        assert np.isclose(lnz, spec.volume * pressure(spec, beta, mu), rtol=1e-12)

    def test_repulsion_decreases_Z(self):
        fock = TruncatedFock(energies=np.array([0.0, 0.5, 0.5]), n_max=40)
        Z_free = exact_partition(fock, 1.0, 0.9)
        Z_int = exact_partition(fock, 1.0, 0.9, uniform_interaction(3, 2.0, 1.0))
        assert Z_int < Z_free

    def test_truncation_error(self):
        fock = TruncatedFock(energies=np.array([0.0]), n_max=3)
        with pytest.raises(TruncationError):
            exact_partition(fock, 1.0, 0.05)

    def test_budget(self):
        with pytest.raises(ResourceBudgetError):
            TruncatedFock(energies=np.zeros(12), n_max=10)


class TestOccupations:
    def test_degenerate_modes_equal(self):
        fock = TruncatedFock(energies=np.array([0.3, 0.3, 0.3]), n_max=20)
        occ = exact_occupations(fock, 1.0, 0.5, uniform_interaction(3, 1.0, 2.0))
        assert np.allclose(occ, occ[0])

    def test_free_bose_einstein(self):
        lam = np.array([0.0, 0.7, 1.3])
        beta, mu = 1.2, 0.4
        fock = TruncatedFock(energies=lam, n_max=70)
        occ = exact_occupations(fock, beta, mu)
        # closed form with the finite-cutoff correction of the truncated geometric sums
        x = beta * (lam + mu)
        n = fock.n_max
        corr = 1.0 / np.expm1(x) - (n + 1) * np.exp(-(n + 1) * x) / (1 - np.exp(-(n + 1) * x))
        assert np.allclose(occ, corr, atol=1e-10)

    def test_mean_field_binomial_reduction(self):
        # hard truncation n_max = 1 with degenerate modes and uniform Vhat makes the
        # energy a pure function of N, so P(N) ~ C(M,N) exp(-beta E(N)) exactly
        M, lam0, beta, mu, v0, vol = 6, 0.2, 1.1, 0.3, 0.8, 2.0
        fock = TruncatedFock(energies=np.full(M, lam0), n_max=1)
        occ = exact_occupations(fock, beta, mu, uniform_interaction(M, v0, vol))
        from math import comb

        Ns = np.arange(M + 1)
        E = (lam0 + mu) * Ns + v0 * (Ns**2 - Ns) / vol  # both interaction terms collapse
        w = np.array([comb(M, int(N)) for N in Ns]) * np.exp(-beta * E)
        n_mean = (Ns * w).sum() / w.sum()
        assert np.allclose(occ, n_mean / M, atol=1e-12)

    def test_sum_is_mean_number(self):
        fock = TruncatedFock(energies=np.array([0.0, 1.0]), n_max=30)
        occ = exact_occupations(fock, 1.0, 0.7)
        assert np.isclose(occ.sum(), mean_particle_number(fock, 1.0, 0.7), rtol=1e-14)


class TestZeroMode:
    def test_large_mu_concentrates_at_zero(self):
        fock = TruncatedFock(energies=np.array([0.0, 1.0]), n_max=10)
        hist = exact_zero_mode_statistics(fock, 1.0, 20.0)
        assert hist[0] > 1.0 - 1e-8

    def test_free_geometric(self):
        beta, mu = 1.0, 0.3
        fock = TruncatedFock(energies=np.array([0.0, 2.0]), n_max=60)
        hist = exact_zero_mode_statistics(fock, beta, mu)
        ratio = hist[1:6] / hist[0:5]
        assert np.allclose(ratio, np.exp(-beta * mu), atol=1e-10)

    def test_repulsion_at_fixed_number(self):
        # switching on diagonal repulsion at fixed <N>: direction of the variance
        # change is recorded as an observation, not asserted
        M, vol, beta = 3, 1.5, 1.0
        fock = TruncatedFock(energies=np.array([0.0, 0.8, 0.8]), n_max=14)
        mu_free = solve_mu_for_number(fock, beta, 1.5, bracket=(-1.5, 30.0))
        inter = uniform_interaction(M, 1.5, vol)
        mu_int = solve_mu_for_number(fock, beta, 1.5, inter, bracket=(-1.5, 30.0))
        m = np.arange(15)

        def variance(hist):
            return float((m**2 * hist).sum() - (m * hist).sum() ** 2)

        v_free = variance(exact_zero_mode_statistics(fock, beta, mu_free))
        v_int = variance(exact_zero_mode_statistics(fock, beta, mu_int, inter))
        assert np.isfinite(v_free) and np.isfinite(v_int)
        print(f"n0 variance free={v_free:.4f} interacting={v_int:.4f}")


class TestThermodynamicConsistency:
    def test_number_from_log_derivative(self):
        # -d ln Z / d(beta mu) = <N> by centered finite differences
        fock = TruncatedFock(energies=np.array([0.0, 0.6, 1.1]), n_max=40)
        beta, mu = 1.0, 0.5
        inter = uniform_interaction(3, 0.7, 2.0)
        h = 1e-6
        lnzp = np.log(exact_partition(fock, beta, mu + h / beta, inter))
        lnzm = np.log(exact_partition(fock, beta, mu - h / beta, inter))
        fd = -(lnzp - lnzm) / (2 * h)
        assert abs(fd - mean_particle_number(fock, beta, mu, inter)) < 1e-8

    def test_probabilities_normalized(self):
        fock = TruncatedFock(energies=np.array([0.0, 0.9]), n_max=80)
        hist = exact_zero_mode_statistics(fock, 1.0, 0.4)
        assert np.all(hist >= 0) and np.all(hist <= 1)
        assert abs(hist.sum() - 1.0) < 1e-12
        assert exact_partition(fock, 1.0, 0.4) > 0

    def test_truncation_monotone(self):
        lam = np.array([0.0, 0.5])
        zs = [
            exact_partition(TruncatedFock(energies=lam, n_max=n), 1.0, 1.0, tail_tol=1.0)
            for n in (4, 8, 16, 32)
        ]
        assert all(b >= a for a, b in zip(zs, zs[1:]))
        assert zs[-1] - zs[-2] < 1e-6 * zs[-1]


class TestInteractionValidation:
    def test_asymmetric_rejected(self):
        v = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError):
            DiagonalInteraction(vhat=v, volume=1.0)

    def test_nonconstant_diagonal_rejected(self):
        v = np.array([[1.0, 0.2], [0.2, 2.0]])
        with pytest.raises(ValueError):
            DiagonalInteraction(vhat=v, volume=1.0)


class TestSharedModeSetWithSpectralGas:
    def test_d3_truncated_mode_set(self):
        # d = 3 box at L = 20, shallow mu: the two lowest eigenvalues as the
        # shared truncated mode set on both routes; agreement to 1e-12 needs a
        # deep occupation cutoff because exp(-beta mu) is close to one
        from bosegas.spectral import Spectrum, TorusGeometry, build_torus_spectrum, pressure

        full = build_torus_spectrum(TorusGeometry(d=3, L=20.0, mode_cutoff=2))
        ev = full.eigenvalues[:2]
        shared = Spectrum(eigenvalues=ev, gaps=ev - ev[0], volume=full.volume)
        beta, mu = 1.0, 0.1
        fock = TruncatedFock(energies=ev, n_max=320)
        lnz = np.log(exact_partition(fock, beta, mu))
        target = shared.volume * pressure(shared, beta, mu)
        assert abs(lnz - target) / abs(target) < 1e-12


def brute_force(energies, n_max, beta, mu, interaction=None):
    """Z, <n_k> and the lowest mode's histogram from itertools.product and fsum."""
    lam = np.asarray(energies, dtype=float)
    M, k0 = lam.size, int(np.argmin(lam))
    states = np.array(list(itertools.product(range(n_max + 1), repeat=M)), dtype=float)
    N = states.sum(axis=1)
    E = states @ lam + mu * N
    if interaction is not None:
        v, v0, vol2 = interaction.vhat, interaction.vhat0, 2.0 * interaction.volume
        off = v - v0 * np.eye(M)
        E = E + (v0 * (N**2 - N) + np.einsum("sk,kl,sl->s", states, off, states)) / vol2
    w = np.exp(-beta * E)
    Z = fsum(w)
    occ = np.array([fsum(w * states[:, k]) for k in range(M)]) / Z
    hist = np.array([fsum(w[states[:, k0] == m]) for m in range(n_max + 1)]) / Z
    return Z, occ, hist


def random_interaction(M, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 0.6, (M, M))
    v = 0.5 * (a + a.T)
    np.fill_diagonal(v, 0.7)
    return DiagonalInteraction(vhat=v, volume=1.5)


class TestAgainstBruteForce:
    """The one-pass head x tail kernel against a state-by-state sum."""

    CASES = [
        (np.array([0.4]), 30, 0.3),
        (np.array([0.0, 0.6]), 14, 0.5),  # lowest mode in the head
        (np.array([0.9, 0.2]), 14, 0.1),  # lowest mode is the last (tail) mode
        (np.array([0.5, 0.8, 0.0]), 8, 0.4),  # tail lowest, M = 3
        (np.array([0.7, 0.0, 1.1]), 8, 0.4),  # head lowest, M = 3
        (np.array([0.3, 0.0, 0.5]), 8, -0.6),  # vacuum is not the lowest state
    ]

    @pytest.mark.parametrize("chunk", [None, 8])
    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("interacting", [False, True])
    def test_sums_match(self, case, interacting, chunk, monkeypatch):
        if chunk is not None:  # several blocks, so the running shift moves
            monkeypatch.setattr(fock_module, "_CHUNK", chunk)
        lam, n_max, mu = self.CASES[case]
        beta = 1.3
        inter = random_interaction(lam.size, case) if interacting else None
        fock = TruncatedFock(energies=lam, n_max=n_max)
        Z, occ, hist = brute_force(lam, n_max, beta, mu, inter)
        if inter is None and mu <= -lam.min():
            with pytest.raises(CondensationBoundaryError):
                exact_partition(fock, beta, mu, inter, tail_tol=1.0)
        else:
            assert exact_partition(fock, beta, mu, inter, tail_tol=1.0) == pytest.approx(Z, rel=1e-13)
        np.testing.assert_allclose(exact_occupations(fock, beta, mu, inter), occ, rtol=1e-13)
        np.testing.assert_allclose(exact_zero_mode_statistics(fock, beta, mu, inter), hist,
                                   rtol=1e-13, atol=0)


class TestBelowLowestMode:
    """mu below -min(energies): no inf or NaN out of the oracle."""

    fock = TruncatedFock(energies=np.array([0.0, 0.5]), n_max=40)

    def test_free_partition_raises(self):
        with pytest.raises(CondensationBoundaryError):
            exact_partition(self.fock, 1.0, -30.0)

    def test_free_occupations_and_histogram_finite(self):
        occ = exact_occupations(self.fock, 1.0, -30.0)
        hist = exact_zero_mode_statistics(self.fock, 1.0, -30.0)
        # the fully occupied state dominates: each mode sits at the cutoff
        np.testing.assert_allclose(occ, [40.0, 40.0], rtol=1e-11)
        assert np.all(np.isfinite(hist)) and hist[-1] == pytest.approx(1.0, rel=1e-11)

    def test_interacting_partition_overflow_raises(self):
        inter = uniform_interaction(2, 0.5, 1.0)
        with pytest.raises(OverflowError):
            exact_partition(self.fock, 1.0, -30.0, inter, tail_tol=1.0)
        occ = exact_occupations(self.fock, 1.0, -30.0, inter)
        assert np.all(np.isfinite(occ)) and np.all(occ > 0)

    def test_interacting_partition_finite_below_vacuum(self):
        # lowest state well below the vacuum but Z representable
        lam = np.array([0.0, 0.5])
        inter = uniform_interaction(2, 0.5, 1.0)
        fock = TruncatedFock(energies=lam, n_max=40)
        Z, occ, _ = brute_force(lam, 40, 1.0, -3.0, inter)
        assert exact_partition(fock, 1.0, -3.0, inter) == pytest.approx(Z, rel=1e-13)
        np.testing.assert_allclose(exact_occupations(fock, 1.0, -3.0, inter), occ, rtol=1e-13)


class TestPinnedWorkloadOracle:
    """The benchmark's 4-mode, n_max = 45 oracle (d = 1, L = 6, gauss:0.5,0.5):
    ln Z, <n_k> and histogram bins as the chunked enumeration gave them."""

    k2 = (2 * np.pi / 6.0) ** 2
    modes = np.array([0.0, 1.0, -1.0, 2.0])
    bins = [0, 1, 2, 5, 10, 20, 45]
    PINNED = {
        False: (0.9274383835652091,
                [0.8159662209160868, 0.17657386317885404, 0.17657386317885393, 0.005623035933478121],
                [0.5506710358827799, 0.2474324461225651, 0.11117856470524295, 0.010085891839714135,
                 0.000184729552807035, 6.196986123590364e-08, 1.2772940396839835e-16]),
        True: (0.8534735811266291,
               [0.6565164263542762, 0.15292597297361663, 0.15294822593158022, 0.005006466855774365],
               [0.5882583293254557, 0.2526998213782476, 0.10148285484271091, 0.004347761162567224,
                5.546261325499698e-06, 3.9295097661881215e-14, 1.7461115221613075e-48]),
    }

    @pytest.mark.parametrize("interacting", [False, True])
    def test_pinned(self, interacting):
        dk = np.sqrt(self.k2) * (self.modes[:, None] - self.modes[None, :])
        vhat = 0.5 * np.sqrt(np.pi) * 0.5 * np.exp(-(0.5 * dk) ** 2 / 4)
        inter = DiagonalInteraction(vhat=vhat, volume=6.0) if interacting else None
        fock = TruncatedFock(energies=self.k2 * self.modes**2, n_max=45)
        lnz, occ, hist = self.PINNED[interacting]
        assert np.log(exact_partition(fock, 1.0, 0.8, inter)) == pytest.approx(lnz, rel=1e-13)
        np.testing.assert_allclose(exact_occupations(fock, 1.0, 0.8, inter), occ, rtol=1e-13)
        got = exact_zero_mode_statistics(fock, 1.0, 0.8, inter)[self.bins]
        np.testing.assert_allclose(got, hist, rtol=1e-13, atol=0)
