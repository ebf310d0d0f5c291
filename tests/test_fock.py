"""Exact Fock traces against closed forms and the mode-sum free energy."""

import itertools
import os
import subprocess
import sys
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
    exact_traces,
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
        # the truncated model itself, cutoff weight and all
        fock = TruncatedFock(energies=np.full(M, lam0), n_max=1)
        occ = exact_traces(fock, beta, mu, uniform_interaction(M, v0, vol), tail_tol=1.0)[1]
        from math import comb

        Ns = np.arange(M + 1)
        E = (lam0 + mu) * Ns + v0 * (Ns**2 - Ns) / vol  # both interaction terms collapse
        w = np.array([comb(M, int(N)) for N in Ns]) * np.exp(-beta * E)
        n_mean = (Ns * w).sum() / w.sum()
        assert np.allclose(occ, n_mean / M, atol=1e-12)

    def test_sum_is_mean_number(self):
        fock = TruncatedFock(energies=np.array([0.0, 1.0]), n_max=45)
        occ = exact_occupations(fock, 1.0, 0.7)
        assert np.isclose(occ.sum(), mean_particle_number(fock, 1.0, 0.7), rtol=1e-14)


class TestZeroMode:
    def test_large_mu_concentrates_at_zero(self):
        fock = TruncatedFock(energies=np.array([0.0, 1.0]), n_max=10)
        hist = exact_zero_mode_statistics(fock, 1.0, 20.0)
        assert hist[0] > 1.0 - 1e-8

    def test_free_geometric(self):
        beta, mu = 1.0, 0.3
        fock = TruncatedFock(energies=np.array([0.0, 2.0]), n_max=100)
        hist = exact_zero_mode_statistics(fock, beta, mu)
        ratio = hist[1:6] / hist[0:5]
        assert np.allclose(ratio, np.exp(-beta * mu), atol=1e-10)

    def test_repulsion_at_fixed_number(self):
        # switching on diagonal repulsion at fixed <N> = 1.5 narrows n0; the
        # roots are those of the brute-force <N> over all 41^3 states (brentq
        # at xtol 1e-15), and at each root brute_force gives <N> and the n0
        # histogram whose variance the oracle's must match
        M, vol, beta = 3, 1.5, 1.0
        fock = TruncatedFock(energies=np.array([0.0, 0.8, 0.8]), n_max=40)
        m = np.arange(fock.n_max + 1)

        def variance(hist):
            return float((m**2 * hist).sum() - (m * hist).sum() ** 2)

        variances = []
        for inter, root in ((None, 0.7232309923316561),
                            (uniform_interaction(M, 1.5, vol), -0.8998528070591526)):
            mu = solve_mu_for_number(fock, beta, 1.5, inter, bracket=(-1.5, 30.0))
            assert mu == pytest.approx(root, rel=1e-10)
            _, occ, hist = brute_force(fock.energies, fock.n_max, beta, mu, inter)
            assert occ.sum() == pytest.approx(1.5, rel=1e-10)
            variances.append(variance(exact_zero_mode_statistics(fock, beta, mu, inter)))
            assert variances[-1] == pytest.approx(variance(hist), rel=1e-10)
        assert variances[1] < variances[0]  # 0.979 against 1.831


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
            exact_traces(TruncatedFock(energies=lam, n_max=n), 1.0, 1.0, tail_tol=1.0)[0]
            for n in (4, 8, 16, 32)
        ]
        assert all(b >= a for a, b in zip(zs, zs[1:]))
        assert zs[-1] - zs[-2] < 1e-6 * zs[-1]


class TestCutoffRefusal:
    """Every view of the trace refuses a cutoff that carries weight, as
    exact_traces does."""

    fock = TruncatedFock(energies=np.array([0.0, 0.5, 1.0]), n_max=3)

    def test_views_refuse_a_heavy_cutoff(self):
        # the cutoff states carry 0.32 of the weight at mu = 0.05; the
        # unrefused truncated sum reads <n_k> = [1.438, 0.865, 0.477]
        for trace in (exact_traces, exact_partition, exact_occupations, exact_zero_mode_statistics,
                      mean_particle_number):
            with pytest.raises(TruncationError, match="3.215e-01"):
                trace(self.fock, 1.0, 0.05)

    def test_solve_mu_refuses_a_root_heavy_at_the_cutoff(self):
        # <N> = 2 has its root at mu = 0.358 on the truncated model, where the
        # cutoff states carry 0.18 of the weight
        with pytest.raises(TruncationError, match="1.849e-01"):
            solve_mu_for_number(self.fock, 1.0, 2.0)


class TestInteractionValidation:
    def test_asymmetric_rejected(self):
        v = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError):
            DiagonalInteraction(vhat=v, volume=1.0)

    def test_nonconstant_diagonal_rejected(self):
        v = np.array([[1.0, 0.2], [0.2, 2.0]])
        with pytest.raises(ValueError):
            DiagonalInteraction(vhat=v, volume=1.0)

    def test_nearly_symmetric_rejected(self):
        # the kernel reads the head-tail pairs from the last column only: this
        # vhat and its transpose gave Z 3e-8 and <n_k> 2e-7 apart (relative)
        v = np.full((3, 3), 0.25)
        np.fill_diagonal(v, 0.7)
        v[2, 1] = 0.250002
        for vhat in (v, v.T):
            with pytest.raises(ValueError, match="symmetric"):
                DiagonalInteraction(vhat=vhat, volume=1.0)

    def test_nearly_constant_diagonal_rejected(self):
        v = np.full((3, 3), 0.25)
        np.fill_diagonal(v, [0.7, 0.7, 0.700001])
        with pytest.raises(ValueError, match="constant"):
            DiagonalInteraction(vhat=v, volume=1.0)

    @pytest.mark.parametrize("energies", [[0.0, 0.5, 1.0], [0.0], [0.0, 0.5, 1.0, 1.5]])
    def test_vhat_of_another_size_refused(self, energies):
        # a 2x2 vhat on 3 modes read Z = 3.446, on 1 mode Z = 2.085
        fock = TruncatedFock(energies=np.array(energies), n_max=40)
        inter = DiagonalInteraction(vhat=0.3 * np.eye(2) + 0.1, volume=2.0)
        for trace in (exact_traces, exact_partition, exact_occupations, exact_zero_mode_statistics,
                      mean_particle_number):
            with pytest.raises(ValueError, match=f"vhat is 2x2 for M = {len(energies)} modes"):
                trace(fock, 1.0, 0.5, inter)
        with pytest.raises(ValueError, match="vhat is 2x2"):
            solve_mu_for_number(fock, 1.0, 1.0, inter)

    def test_single_precision_vhat_is_read_in_double(self):
        # numpy keeps float32 + float in float32, so the head-tail couplings
        # of a float32 vhat were rounded to single precision
        v = random_interaction(3, 2, TestAgainstBruteForce.REPULSIVE).vhat.astype(np.float32)
        fock = TruncatedFock(energies=np.array([0.0, 0.5, 1.0]), n_max=30)
        single, double = (exact_traces(fock, 1.0, 0.5, DiagonalInteraction(vhat=vhat, volume=2.0))
                          for vhat in (v, v.astype(float)))
        assert single[0] == double[0]
        assert np.array_equal(single[1], double[1]) and np.array_equal(single[2], double[2])


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


def random_interaction(M, seed, off):
    """Symmetric Vhat with Vhat(0) = 0.7 and off-diagonal entries drawn from `off`."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(*off, (M, M))
    v = 0.5 * (a + a.T)
    np.fill_diagonal(v, 0.7)
    return DiagonalInteraction(vhat=v, volume=1.5)


class TestAgainstBruteForce:
    """The one-pass head x tail kernel against a state-by-state sum."""

    REPULSIVE, ATTRACTIVE = (0.1, 0.6), (-2.0, -1.6)
    CASES = [  # energies, n_max, mu, range of the off-diagonal Vhat
        (np.array([0.4]), 30, 0.3, REPULSIVE),
        (np.array([0.0, 0.6]), 14, 0.5, REPULSIVE),  # lowest mode in the head
        (np.array([0.9, 0.2]), 14, 0.1, REPULSIVE),  # lowest mode is the last (tail) mode
        (np.array([0.5, 0.8, 0.0]), 8, 0.4, REPULSIVE),  # tail lowest, M = 3
        (np.array([0.7, 0.0, 1.1]), 8, 0.4, REPULSIVE),  # head lowest, M = 3
        (np.array([0.3, 0.0, 0.5]), 8, -0.6, REPULSIVE),  # vacuum is not the lowest state
        # Vhat(0) + Vhat(k, M) < 0: the tail coupling C_h of every occupied head is negative
        (np.array([0.6, 0.0, 0.9]), 8, 0.2, ATTRACTIVE),
        (np.array([0.5, 0.0, 0.8, 0.3]), 5, 0.3, REPULSIVE),  # M = 4
    ]

    @pytest.mark.parametrize("chunk", [None, 8])
    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("interacting", [False, True])
    def test_sums_match(self, case, interacting, chunk, monkeypatch):
        lam, n_max, mu, off = self.CASES[case]
        blocks = []  # head blocks per call
        if chunk is not None:  # several blocks, so the running shift moves
            monkeypatch.setattr(fock_module, "_CHUNK", chunk)
            heads = fock_module._head_blocks

            def counted(*args):
                blocks.append(0)
                for block in heads(*args):
                    blocks[-1] += 1
                    yield block

            monkeypatch.setattr(fock_module, "_head_blocks", counted)
        beta = 1.3
        inter = random_interaction(lam.size, case, off) if interacting else None
        if inter is not None and off == self.ATTRACTIVE:
            assert np.all(inter.vhat0 + inter.vhat[:-1, -1] < 0)
        fock = TruncatedFock(energies=lam, n_max=n_max)
        Z, occ, hist = brute_force(lam, n_max, beta, mu, inter)
        if inter is None and mu <= -lam.min():  # every trace refuses a free gas there
            for trace in (exact_partition, exact_occupations, exact_zero_mode_statistics):
                with pytest.raises(CondensationBoundaryError):
                    trace(fock, beta, mu, inter)
            return
        # the truncated model itself: these cutoffs carry weight
        got = exact_traces(fock, beta, mu, inter, tail_tol=1.0)
        assert got[0] == pytest.approx(Z, rel=1e-13)
        np.testing.assert_allclose(got[1], occ, rtol=1e-13)
        np.testing.assert_allclose(got[2], hist, rtol=1e-13, atol=0)
        if chunk is not None and lam.size >= 3:
            assert len(blocks) == 1 and blocks[0] > 1


class TestBelowLowestMode:
    """mu below -min(energies): a free gas is refused, an interacting one
    gives no inf or NaN."""

    fock = TruncatedFock(energies=np.array([0.0, 0.5]), n_max=40)

    def test_free_partition_raises(self):
        with pytest.raises(CondensationBoundaryError):
            exact_partition(self.fock, 1.0, -30.0)

    def test_free_occupations_and_histogram_raise(self):
        for trace in (exact_occupations, exact_zero_mode_statistics, mean_particle_number):
            with pytest.raises(CondensationBoundaryError):
                trace(self.fock, 1.0, -30.0)

    def test_free_occupations_refused_just_beyond_boundary(self):
        # the truncated sum is finite here ([1.747, 1.134, 0.646]), but a free
        # gas beyond the boundary has no grand-canonical state
        fock = TruncatedFock(energies=np.array([0.0, 0.5, 1.0]), n_max=3)
        with pytest.raises(CondensationBoundaryError):
            exact_occupations(fock, 1.0, -0.2)

    def test_free_solve_mu_refuses_beyond_boundary(self):
        # <N> = 5 needs mu = -0.652 < -min(energies); the root search stays
        # above the boundary, where the truncated free gas holds <N> < 3
        fock = TruncatedFock(energies=np.array([0.0, 0.5, 1.0]), n_max=3)
        with pytest.raises(CondensationBoundaryError):
            solve_mu_for_number(fock, 1.0, 5.0)
        deep = TruncatedFock(energies=fock.energies, n_max=60)  # <N> = 2 is refused at n_max = 3
        assert mean_particle_number(deep, 1.0, solve_mu_for_number(deep, 1.0, 2.0)) == pytest.approx(2.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_free_solve_mu_above_a_high_lowest_mode(self):
        # -200 + 1e-14 rounds back onto the boundary; the bracket starts one double above it
        fock = TruncatedFock(energies=np.array([200.0, 201.0]), n_max=80)
        mu = solve_mu_for_number(fock, 1.0, 2.0, bracket=(-250.0, 50.0))
        assert mean_particle_number(fock, 1.0, mu) == pytest.approx(2.0, rel=1e-10)

    def test_bracket_above_the_root_refused(self):
        # mu in [-50, 50] keeps every mode at 150 or more: <N> is far below 2 at both ends
        fock = TruncatedFock(energies=np.array([200.0, 201.0, 203.0]), n_max=40)
        msg = (r"bracket mu in \[-50, 50\] does not hold n_target = 2.0: "
               r"<N> = 1.01719e-65 at mu = -50 and 3.78402e-109 at mu = 50")
        with pytest.raises(ValueError, match=msg):
            solve_mu_for_number(fock, 1.0, 2.0)

    def test_interacting_occupations_at_the_cutoff_refused(self):
        # n_0 = 39.99997 here is the cutoff itself, not the gas's occupation
        inter = uniform_interaction(2, 0.5, 1.0)
        for trace in (exact_occupations, exact_zero_mode_statistics, mean_particle_number):
            with pytest.raises(TruncationError):
                trace(self.fock, 1.0, -30.0, inter)

    def test_interacting_partition_overflow_raises(self):
        # no weight at the cutoff, ln Z = 916.3: Z is beyond the double range,
        # its ratios are not
        inter = uniform_interaction(2, 0.5, 1.0)
        fock = TruncatedFock(energies=np.array([0.0, 0.5]), n_max=150)
        with pytest.raises(OverflowError, match="exp\\(916.328"):
            exact_partition(fock, 1.0, -30.0, inter)
        occ = exact_occupations(fock, 1.0, -30.0, inter)
        np.testing.assert_allclose(occ, [60.5, 5.6613619e-12], rtol=1e-7)
        hist = exact_zero_mode_statistics(fock, 1.0, -30.0, inter)
        assert hist @ np.arange(151) == pytest.approx(occ[0], rel=1e-12)

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


class TestExactTraces:
    """One enumeration for all three traces, with exact_partition's refusals."""

    fock = TruncatedFock(energies=np.array([0.0, 0.4, 0.9]), n_max=40)

    @pytest.mark.parametrize("interacting", [False, True])
    def test_bitwise_equal_to_the_three_calls(self, interacting, monkeypatch):
        inter = uniform_interaction(3, 0.3, 2.0) if interacting else None
        args = (self.fock, 1.0, 1.0, inter)
        separate = (exact_partition(*args), exact_occupations(*args), exact_zero_mode_statistics(*args))
        calls = []
        sums = fock_module._fock_sums
        monkeypatch.setattr(fock_module, "_fock_sums", lambda *a: calls.append(a) or sums(*a))
        Z, occ, hist = exact_traces(*args)
        assert len(calls) == 1
        assert Z == separate[0]
        assert np.array_equal(occ, separate[1]) and np.array_equal(hist, separate[2])

    def test_refusal_order(self):
        # below the lowest mode with a cutoff far too small: the boundary comes first
        small = TruncatedFock(energies=np.array([0.0, 0.5]), n_max=2)
        with pytest.raises(CondensationBoundaryError):
            exact_traces(small, 1.0, -30.0)
        # interacting, far below the vacuum: heavy at the cutoff and beyond the
        # double range; the truncation is reported before the overflow
        inter = uniform_interaction(2, 0.5, 1.0)
        fock = TruncatedFock(energies=np.array([0.0, 0.5]), n_max=40)
        with pytest.raises(TruncationError):
            exact_traces(fock, 1.0, -30.0, inter)
        with pytest.raises(OverflowError):
            exact_traces(fock, 1.0, -30.0, inter, tail_tol=1.0)


NAN, INF = float("nan"), float("inf")


class TestRefusesNaN:
    """A NaN or infinite beta or mu, or target <N>, is refused before any
    state is enumerated; each of these enumerated every state and then
    returned nan or raised OverflowError for Z = exp(nan)."""

    fock = TruncatedFock(energies=np.array([0.0, 0.4, 0.9]), n_max=40)

    @pytest.fixture
    def no_pass(self, monkeypatch):
        monkeypatch.setattr(fock_module, "_head_blocks", lambda *a: pytest.fail("a state was enumerated"))

    @pytest.mark.parametrize("interacting", [False, True])
    @pytest.mark.parametrize(
        "beta, mu, name",
        [(NAN, 0.5, "beta"), (INF, 0.5, "beta"), (1.0, NAN, "mu"), (1.0, INF, "mu")],
    )
    def test_every_view_refuses(self, beta, mu, name, interacting, no_pass):
        inter = uniform_interaction(3, 0.3, 2.0) if interacting else None
        for trace in (exact_traces, exact_partition, exact_occupations, exact_zero_mode_statistics):
            with pytest.raises(ValueError, match=rf"^{name} must be "):
                trace(self.fock, beta, mu, inter)

    @pytest.mark.parametrize("n_target", [NAN, INF, -INF])
    def test_solve_mu_for_number_refuses_the_target(self, n_target, no_pass):
        with pytest.raises(ValueError, match=r"^n_target must be finite"):
            solve_mu_for_number(self.fock, 1.0, n_target)


class TestSharedRoot:
    """solve_mu_for_number's root is spectral's Brent root, fed the <N> found at
    the bracket's ends: it matches scipy.optimize.brentq in two fewer passes."""

    fock = TruncatedFock(energies=np.array([200.0, 201.0]), n_max=80)

    def test_matches_brentq_next_to_the_boundary(self, monkeypatch):
        # test_free_solve_mu_above_a_high_lowest_mode's bracket: -200 + 1e-14
        # rounds onto the boundary, so the low end is the next double above it
        from scipy.optimize import brentq

        sums = fock_module._fock_sums
        calls = []
        monkeypatch.setattr(fock_module, "_fock_sums", lambda *a: calls.append(a[2]) or sums(*a))
        mu = solve_mu_for_number(self.fock, 1.0, 2.0, bracket=(-250.0, 50.0))
        search = calls[:-1]  # the last pass refuses a root heavy at the cutoff
        monkeypatch.setattr(fock_module, "_fock_sums", sums)
        lo = float(np.nextafter(-200.0, np.inf))
        number = lambda m: float(fock_module._traces(self.fock, 1.0, m, None, np.inf)[2].sum()) - 2.0
        ref = brentq(number, lo, 50.0, xtol=2e-12, rtol=1e-12, maxiter=200)
        assert abs(mu - ref) <= 2 * (2e-12 + 1e-12 * abs(ref))
        assert search[:2] == [lo, 50.0] and len(set(search)) == len(search)


THREADS_SCRIPT = """
import numpy as np
from bosegas.fock import DiagonalInteraction, TruncatedFock, exact_traces

k2 = (2 * np.pi / 6.0) ** 2
modes = np.array([0.0, 1.0, -1.0, 2.0])
dk = np.sqrt(k2) * (modes[:, None] - modes[None, :])
vhat = 0.5 * np.sqrt(np.pi) * 0.5 * np.exp(-(0.5 * dk) ** 2 / 4)
oracles = [  # the workload's oracle, and 12 modes whose blocks are long enough for BLAS to split
    (TruncatedFock(energies=k2 * modes**2, n_max=45), DiagonalInteraction(vhat=vhat, volume=6.0)),
    (TruncatedFock(energies=np.linspace(0.0, 1.1, 12), n_max=2),
     DiagonalInteraction(vhat=np.full((12, 12), 0.3) + 0.1 * np.eye(12), volume=6.0)),
]
for fock, inter in oracles:
    for v in (None, inter):
        Z, occ, hist = exact_traces(fock, 1.0, 0.8, v, tail_tol=1.0)
        print(np.concatenate([[Z], occ, hist]).tobytes().hex())
"""


def test_traces_identical_across_blas_thread_counts():
    # a BLAS reduction may split its sum by thread count; the oracle's bytes must not move
    import bosegas

    src = os.path.dirname(os.path.dirname(bosegas.__file__))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].count("\n") == 4 and outs[0] == outs[1]
