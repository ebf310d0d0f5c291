"""Gibbs chain: per-move detailed balance, free-case invariance, interaction effects."""

import numpy as np
import pytest
from scipy import stats

from bosegas.loopgas import (
    BoxRegion,
    DIRICHLET,
    GibbsChain,
    free_density,
    gaussian_repulsion,
    gibbs_sample,
    hard_core,
    sample_free_poisson_batch,
    winding_masses,
)
from bosegas.loopgas.gibbs import (
    _draw_beta_bridge,
    _leg_block,
    cut_proposal,
    delete_proposal,
    merge_proposal,
    redraw_proposal,
    shift_proposal,
)
from bosegas.rng import generator

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def make_chain(seed, boundary="periodic", z=0.5, V=None, L=6.0, n_slices=4, d=2):
    region = BoxRegion(d=d, L=L, boundary=boundary, n_slices=n_slices)
    return GibbsChain(z, 1.0, region, V, rng_seed=seed)


def grown_chain(seed, min_loops=2, **kw):
    chain = make_chain(seed, **kw)
    guard = 0
    while chain.config.loop_count < min_loops:
        chain.step()
        guard += 1
        assert guard < 20_000
    return chain


def clone_state(chain, config, energy):
    other = make_chain(
        1,
        boundary=chain.region.boundary,
        z=chain.z,
        V=chain.V,
        L=chain.region.L,
        n_slices=chain.region.n_slices,
        d=chain.region.d,
    )
    other.config, other.energy = config, energy
    return other


class TestDetailedBalanceExact:
    """Forward and reverse acceptance log-ratios must be exact negatives."""

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    def test_insert_delete(self, boundary):
        V = gaussian_repulsion(2, 1.0)
        chain = grown_chain(11, boundary=boundary, V=V)
        prop = chain.propose_insert()
        Y, eY = prop.builder()
        rev = delete_proposal(clone_state(chain, Y, eY), Y.loop_count - 1)
        assert prop.log_accept == pytest.approx(-rev.log_accept, abs=1e-9)

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    def test_shift(self, boundary):
        V = gaussian_repulsion(2, 1.0)
        chain = grown_chain(12, boundary=boundary, V=V)
        rng = generator(5)
        delta = 0.4 * rng.standard_normal(2)
        prop = shift_proposal(chain, 0, delta)
        Y, eY = prop.builder()
        rev = shift_proposal(clone_state(chain, Y, eY), 0, -delta)
        assert prop.log_accept == pytest.approx(-rev.log_accept, abs=1e-9)

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    def test_redraw(self, boundary):
        from bosegas.loopgas.loops import fill_bridges

        V = gaussian_repulsion(2, 1.0)
        chain = grown_chain(13, boundary=boundary, V=V)
        loop = chain.config.loops[0]
        u, arc = 1, 2
        rng = generator(6)
        new_arc = fill_bridges(loop.path[u][None], loop.path[u + arc][None], arc, 0.25, rng)[0]
        old_arc = loop.path[u : u + arc + 1].copy()
        prop = redraw_proposal(chain, 0, u, new_arc)
        Y, eY = prop.builder()
        rev = redraw_proposal(clone_state(chain, Y, eY), 0, u, old_arc)
        assert prop.log_accept == pytest.approx(-rev.log_accept, abs=1e-9)

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    def test_merge_cut(self, boundary):
        V = gaussian_repulsion(2, 1.0)
        chain = grown_chain(14, boundary=boundary, V=V, z=0.6)
        rng = generator(7)
        A, B = chain.config.loops[0], chain.config.loops[1]
        ja, jb = A.winding, B.winding
        ns = chain.region.n_slices
        alpha, gamma = int(rng.integers(ja)), int(rng.integers(jb))
        a0, a1 = A.path[alpha * ns], A.path[((alpha + 1) % ja) * ns]
        b0, b1 = B.path[gamma * ns], B.path[((gamma + 1) % jb) * ns]
        T1 = _draw_beta_bridge(a0, b1, 1.0, chain.region, rng)
        T2 = _draw_beta_bridge(b0, a1, 1.0, chain.region, rng)
        prop = merge_proposal(chain, 0, 1, alpha, gamma, T1, T2)
        Y, eY = prop.builder()
        rev = cut_proposal(
            clone_state(chain, Y, eY),
            Y.loop_count - 1,
            0,
            jb,
            _leg_block(A, alpha, ns),
            _leg_block(B, gamma, ns),
        )
        assert prop.log_accept == pytest.approx(-rev.log_accept, abs=1e-9)
        assert rev.details == {"j1": ja, "j2": jb}


class TestDetailedBalanceEmpirical:
    """Frozen 2-configuration toy: empirical transition frequencies obey balance."""

    def test_two_state_frequencies(self):
        chain = grown_chain(15, V=gaussian_repulsion(2, 1.0))
        rng = generator(8)
        delta = np.array([0.8, -0.4])
        fwd = shift_proposal(chain, 0, delta)
        Y, eY = fwd.builder()
        rev = shift_proposal(clone_state(chain, Y, eY), 0, -delta)
        a_fwd = min(1.0, np.exp(fwd.log_accept))
        a_rev = min(1.0, np.exp(rev.log_accept))
        n = 40_000
        acc_fwd = (np.log(rng.uniform(size=n)) < fwd.log_accept).mean()
        acc_rev = (np.log(rng.uniform(size=n)) < rev.log_accept).mean()
        se = np.sqrt(a_fwd * (1 - a_fwd) / n) + np.sqrt(a_rev * (1 - a_rev) / n) + 1e-12
        # balance: pi(X) A(X->Y) = pi(Y) A(Y->X) with the exact ratio known
        ratio_target = np.exp(fwd.log_accept) if a_fwd < 1 else 1 / np.exp(rev.log_accept)
        assert abs(acc_fwd / max(acc_rev, 1e-12) - ratio_target) < 12 * se / max(a_rev, 1e-6)


class TestFreeInvariance:
    def test_loop_count_two_sample(self):
        # V = 0: the chain's stationary loop-count law equals direct Poisson sampling
        region = BoxRegion(d=3, L=6.0, n_slices=4)
        z = 0.5
        run = gibbs_sample(z, 1.0, region, None, n_sweeps=4000, rng_seed=16, thin=8)
        counts_chain = np.array([c.loop_count for c in run["configs"]])
        direct = sample_free_poisson_batch(counts_chain.size, z, 1.0, region, rng_seed=17)
        counts_direct = np.array([c.loop_count for c in direct])
        top = int(max(counts_chain.max(), counts_direct.max()))
        bins = np.arange(0, top + 2)
        h1, _ = np.histogram(counts_chain, bins=bins)
        h2, _ = np.histogram(counts_direct, bins=bins)
        keep = (h1 + h2) >= 10
        table = np.stack([h1[keep], h2[keep]])
        _, p, _, _ = stats.chi2_contingency(table)
        assert p > 0.01

    def test_winding_sector_reachable(self):
        # merge/cut must populate the j >= 2 sectors with the right mass
        region = BoxRegion(d=3, L=5.0, n_slices=4)
        z = 0.6
        run = gibbs_sample(z, 1.0, region, None, n_sweeps=6000, rng_seed=18, thin=6)
        h = np.sum([c.winding_histogram(3) for c in run["configs"]], axis=0).astype(float)
        nus, _ = winding_masses(z, 1.0, region)
        expect = nus[1] / nus[0]
        seen = h[2] / h[1]
        assert abs(seen - expect) / expect < 0.35

    def test_acceptance_rates_reported(self):
        region = BoxRegion(d=2, L=5.0, n_slices=4)
        run = gibbs_sample(0.4, 1.0, region, None, n_sweeps=300, rng_seed=19)
        rates = run["acceptance"]
        assert set(rates) == {"insert", "delete", "shift", "redraw", "merge", "cut"}
        assert rates["shift"] > 0.9  # free measure accepts symmetric moves always


class TestInteractions:
    def test_hard_core_suppresses_density(self):
        region = BoxRegion(d=3, L=5.0, n_slices=4)
        z = 0.3
        V = hard_core(3, 1.0)
        run = gibbs_sample(z, 1.0, region, V, n_sweeps=3000, rng_seed=20, thin=5)
        rho_free = free_density(z, 1.0, region)
        rho = run["mean_N"] / region.volume
        err = run["err_N"] / region.volume
        assert rho + 3 * err < rho_free

    def test_first_order_number_shift(self):
        # weak coupling: <N>_V - <N>_0 ~ -Cov_free(N, energy)
        region = BoxRegion(d=3, L=4.0, n_slices=4)
        z = 0.4
        V = gaussian_repulsion(3, 0.15, width=1.0)
        run = gibbs_sample(z, 1.0, region, V, n_sweeps=6000, rng_seed=21, thin=5)
        free_cfgs = sample_free_poisson_batch(4000, z, 1.0, region, rng_seed=22)
        from bosegas.loopgas import interaction_energy

        N = np.array([c.particle_number for c in free_cfgs], dtype=float)
        E = np.array([interaction_energy(c, V, 1.0, region) for c in free_cfgs])
        predicted_shift = -np.cov(N, E)[0, 1]
        shift = run["mean_N"] - free_density(z, 1.0, region) * region.volume
        tol = 3 * run["err_N"] + 3 * abs(np.cov(N, E)[0, 1]) / np.sqrt(len(N)) + 0.15 * abs(predicted_shift)
        assert abs(shift - predicted_shift) < tol

    def test_stability_guard_active(self):
        region = BoxRegion(d=2, L=5.0, n_slices=4)
        V = gaussian_repulsion(2, 0.5)
        run = gibbs_sample(0.4, 1.0, region, V, n_sweeps=400, rng_seed=23)
        for row in run["rows"]:
            assert row["energy"] >= -1.0 * V.stability_B * row["N"] - 1e-9


class TestCheckpointResume:
    def test_resume_matches_uninterrupted(self, tmp_path):
        from bosegas.loopgas.gibbs import resume_gibbs

        region = BoxRegion(d=2, L=5.0, n_slices=4)
        V = gaussian_repulsion(2, 0.5)
        base = str(tmp_path / "ck")
        full = gibbs_sample(0.4, 1.0, region, V, n_sweeps=60, rng_seed=77,
                            checkpoint_base=base, checkpoint_every=30)
        # last checkpoint written after sweep 60; use the one at sweep 30 by
        # rerunning the first half only
        half = gibbs_sample(0.4, 1.0, region, V, n_sweeps=30, rng_seed=77,
                            checkpoint_base=base, checkpoint_every=30)
        resumed = resume_gibbs(base, 0.4, 1.0, region, V, n_sweeps=60)
        full_N = [r["N"] for r in full["rows"]]
        res_N = [r["N"] for r in resumed["rows"]]
        assert res_N == full_N[30:]

    def test_resume_restores_counters_and_N_trace(self, tmp_path):
        from bosegas.loopgas.gibbs import resume_gibbs

        region = BoxRegion(d=2, L=5.0, n_slices=4)
        V = gaussian_repulsion(2, 0.5)
        base = str(tmp_path / "ck")
        full = gibbs_sample(0.4, 1.0, region, V, n_sweeps=100, rng_seed=78)
        gibbs_sample(0.4, 1.0, region, V, n_sweeps=50, rng_seed=78, checkpoint_base=base, checkpoint_every=50)
        resumed = resume_gibbs(base, 0.4, 1.0, region, V, n_sweeps=100)
        assert [r["N"] for r in resumed["rows"]] == [r["N"] for r in full["rows"][50:]]
        assert resumed["rows"][-1]["energy"] == full["rows"][-1]["energy"]
        assert resumed["attempts"] == full["attempts"]
        assert resumed["acceptance"] == full["acceptance"]
        assert resumed["mean_N"] == full["mean_N"]
        assert resumed["err_N"] == full["err_N"] and np.isfinite(full["err_N"])


STABILITY_SCRIPT = """
import sys
import numpy as np
from bosegas.errors import StabilityError
from bosegas.loopgas import BoxRegion, GibbsChain, PairPotential

# attractive, stable with B = 2 on every point set the constructor probes;
# the claim is then understated to B = 0, so any negative energy breaks it
V = PairPotential(v_of_r=lambda r: -0.5 * np.exp(-np.asarray(r) ** 2), d=2, stability_B=2.0)
object.__setattr__(V, "stability_B", 0.0)
chain = GibbsChain(0.5, 1.0, BoxRegion(d=2, L=4.0, n_slices=4), V, rng_seed=3)
try:
    for _ in range(5000):
        chain.step()
except StabilityError:
    sys.exit(0)
sys.exit(1)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_stability_floor_raises(flags):
    # the floor must hold under python -O too, where assert statements vanish
    import os
    import subprocess
    import sys

    import bosegas

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bosegas.__file__)))
    proc = subprocess.run([sys.executable, *flags, "-c", STABILITY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
