"""Gibbs chain: per-move detailed balance, free-case invariance, interaction effects."""

import json

import numpy as np
import pytest
from scipy import stats

from bosegas.loopgas import (
    BoxRegion,
    BridgeLoop,
    DIRICHLET,
    GibbsChain,
    LoopConfiguration,
    free_density,
    gaussian_repulsion,
    gibbs_sample,
    hard_core,
    sample_free_poisson_batch,
    winding_masses,
)
from bosegas.loopgas.gibbs import (
    _MOVE_CDF,
    _MOVE_PROBS,
    MOVES,
    _choice,
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
        V = gaussian_repulsion(2, 1.0, width=0.5)
        chain = grown_chain(11, boundary=boundary, V=V)
        prop = chain.propose_insert()
        Y, eY = prop.builder()
        rev = delete_proposal(clone_state(chain, Y, eY), Y.loop_count - 1)
        assert prop.log_accept == pytest.approx(-rev.log_accept, abs=1e-9)

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    def test_shift(self, boundary):
        V = gaussian_repulsion(2, 1.0, width=0.5)
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

        V = gaussian_repulsion(2, 1.0, width=0.5)
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
        V = gaussian_repulsion(2, 1.0, width=0.5)
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
        # the cut gives back loops of A's and B's windings
        assert rev.builder()[0].windings[-2:].tolist() == [ja, jb]


class TestDetailedBalanceEmpirical:
    """Frozen 2-configuration toy: empirical transition frequencies obey balance."""

    def test_two_state_frequencies(self):
        chain = grown_chain(15, V=gaussian_repulsion(2, 1.0, width=0.5))
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


class TestRedrawImage:
    """A periodic redraw arc is the exact bridge of the periodic kernel: it
    ends at a kernel-weighted winding image of its end knot, not at the
    nearest one."""

    def test_arc_samples_its_winding_image(self):
        # one winding-1 loop at L = 2, n_slices = 4, beta = 1 whose knots 0 and
        # 3 coincide: every redraw resamples knots 1, 2 of the arc 0 -> 3
        region = BoxRegion(d=1, L=2.0, n_slices=4)
        chain = GibbsChain(0.5, 1.0, region, None, rng_seed=23)
        path = np.array([[0.3], [0.9], [1.5], [0.3], [0.3]])
        chain.config = LoopConfiguration([BridgeLoop(winding=1, path=path)])
        n = 10_000
        c = np.empty(n)
        for i in range(n):
            knots = chain.propose_redraw().builder()[0].knots
            c[i] = np.cos(2 * np.pi * (knots[2, 0] - knots[0, 0]) / region.L)
        # knot 2 sits at time 1/2 of the arc's 3/4 to the image 0.3 + 2w: its
        # displacement has mean 4w/3 and variance 1/3, and w has weight exp(-4w^2/3)
        w = np.arange(-6, 7)
        p = np.exp(-4 * w**2 / 3)
        exact = np.exp(-np.pi**2 / 6) * (p * np.cos(4 * np.pi * w / 3)).sum() / p.sum()
        assert exact == pytest.approx(0.0919, abs=1e-4)
        assert abs(c.mean() - exact) < 3 * c.std() / np.sqrt(n)


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
        h = np.bincount(np.concatenate([c.windings for c in run["configs"]]), minlength=4).astype(float)
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
        # weak coupling: <N>_V - <N>_0 ~ -Cov_free(N, energy).  At d = 2 and
        # amplitude 3 (range 2 = L/2) the prediction, -0.130, exceeds the
        # tolerance, 0.079, so a chain that ignored V would fail
        region = BoxRegion(d=2, L=4.0, n_slices=4)
        z = 0.4
        V = gaussian_repulsion(2, 3.0, width=1 / 3)
        run = gibbs_sample(z, 1.0, region, V, n_sweeps=9000, rng_seed=21, thin=5)
        free_cfgs = sample_free_poisson_batch(4000, z, 1.0, region, rng_seed=22)
        from bosegas.loopgas import interaction_energy

        N = np.array([c.particle_number for c in free_cfgs], dtype=float)
        E = np.array([interaction_energy(c, V, 1.0, region) for c in free_cfgs])
        predicted_shift = -np.cov(N, E)[0, 1]
        shift = run["mean_N"] - free_density(z, 1.0, region) * region.volume
        tol = 3 * run["err_N"] + 3 * abs(np.cov(N, E)[0, 1]) / np.sqrt(len(N)) + 0.15 * abs(predicted_shift)
        assert abs(shift - predicted_shift) < tol
        assert abs(0.0 - predicted_shift) > tol  # a shift of 0 is outside the tolerance

    def test_stability_guard_active(self):
        region = BoxRegion(d=2, L=5.0, n_slices=4)
        V = gaussian_repulsion(2, 0.5, width=5 / 12)
        run = gibbs_sample(0.4, 1.0, region, V, n_sweeps=400, rng_seed=23)
        for row in run["rows"]:
            assert row["energy"] >= -1.0 * V.stability_B * row["N"] - 1e-9


def test_empty_window_mean_N_is_nan():
    # burn >= n_sweeps leaves no sweep to average: the chain held particles,
    # so a mean of 0 would be a wrong number
    run = gibbs_sample(0.4, 1.0, BoxRegion(d=2, L=5.0), None, n_sweeps=10, rng_seed=1, burn=10)
    assert any(row["N"] > 0 for row in run["rows"])
    assert np.isnan(run["mean_N"]) and np.isnan(run["tau_int_N"]) and run["err_N"] == np.inf
    assert run["ess_N"] is None


class TestEffectiveSampleSize:
    def test_ess_is_n_over_two_tau(self):
        # mean_N averages every sweep after burn-in, not the thinned configurations
        region = BoxRegion(d=2, L=5.0, n_slices=4)
        run = gibbs_sample(0.6, 1.0, region, gaussian_repulsion(2, 0.5, width=5 / 12), n_sweeps=200, rng_seed=3)
        N = np.array([row["N"] for row in run["rows"][40:]], dtype=float)
        assert run["mean_N"] == N.mean()
        assert run["tau_int_N"] > 0
        assert run["ess_N"] == N.size / (2 * run["tau_int_N"])
        # 160 sweeps fill the 20 batches exactly: the ESS is Var(N) / err_N^2
        assert run["ess_N"] == pytest.approx(N.var(ddof=1) / run["err_N"] ** 2, rel=1e-12)
        assert len(run["configs"]) == 32 and run["ess_N"] != 32

    def test_constant_N_gives_every_sweep(self):
        # at z = 1e-4 no loop is ever inserted: tau_int_N = 0 and each sweep counts
        run = gibbs_sample(1e-4, 1.0, BoxRegion(d=1, L=2.0, n_slices=4), None, n_sweeps=50, rng_seed=1)
        assert all(row["N"] == 0 for row in run["rows"])
        assert run["tau_int_N"] == 0 and run["ess_N"] == 40


class TestInverseCDFDraws:
    """The chain draws its move and an insert's winding by inverting one
    rng.random() double through Generator.choice's own cumulative table, so
    it must draw choice's index and leave choice's generator state."""

    N_DRAWS = 10_000

    def assert_same_as_choice(self, table, p, seed):
        ours, theirs = generator(seed), generator(seed)
        drawn = [_choice(table, ours) for _ in range(self.N_DRAWS)]
        assert drawn == [int(theirs.choice(len(p), p=p)) for _ in range(self.N_DRAWS)]
        assert len(set(drawn)) > 1
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_move_draw(self):
        assert len(_MOVE_CDF) == len(MOVES)
        self.assert_same_as_choice(_MOVE_CDF, _MOVE_PROBS, seed=11)

    @pytest.mark.parametrize("z", [0.3, 0.8, 0.95])
    def test_insert_winding_draw(self, z):
        chain = make_chain(5, z=z, L=3.0)
        assert len(chain.nus) > 2
        self.assert_same_as_choice(chain._winding_cdf, chain.nus / chain.nu_tot, seed=int(100 * z))


class TestTrajectoryPins:
    """Two short chains from fixed seeds, pinned bit for bit to the numbers
    they gave when recorded: move counts, mean_N, the final energy, and the
    log-ratios of a frozen merge on the final state and of its reverse cut.
    A final state of fewer than two loops is stepped on until it has two,
    and the merge is built there.  A change to the move layer must leave
    every one of these bits."""

    CASES = {
        "periodic-gauss": dict(
            region=BoxRegion(d=2, L=5.0, n_slices=4), z=0.6,
            V=gaussian_repulsion(2, 0.5, width=5 / 12), seed=101, n_sweeps=300,
            attempts={"insert": 276, "delete": 221, "shift": 179, "redraw": 202, "merge": 48, "cut": 19},
            accepts={"insert": 182, "delete": 184, "shift": 179, "redraw": 201, "merge": 18, "cut": 19},
            mean_N=2.075, energy=-6.245004513516506e-17,
            merge=-1.8217052558468319, cut=1.821705255846832,
        ),
        "dirichlet-hard-core": dict(
            region=BoxRegion(d=2, L=7.0, boundary=DIRICHLET, n_slices=4), z=0.8,
            V=hard_core(2, 0.3), seed=202, n_sweeps=200,
            attempts={"insert": 205, "delete": 139, "shift": 112, "redraw": 128, "merge": 31, "cut": 7},
            accepts={"insert": 116, "delete": 114, "shift": 93, "redraw": 113, "merge": 6, "cut": 6},
            mean_N=1.69375, energy=0.0,
            merge=0.2341604100400733, cut=-0.2341604100400733,
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_pinned(self, case):
        c = self.CASES[case]
        run = gibbs_sample(c["z"], 1.0, c["region"], c["V"], n_sweeps=c["n_sweeps"], rng_seed=c["seed"])
        chain = run["chain"]
        assert chain.attempts == c["attempts"]
        assert chain.accepts == c["accepts"]
        assert run["mean_N"] == c["mean_N"]
        assert chain.energy == c["energy"]
        while chain.config.loop_count < 2:
            chain.step()
        # a frozen merge of the first two loops and the cut that undoes it
        rng = generator(7)
        A, B = chain.config.loop(0), chain.config.loop(1)
        ja, jb = A.winding, B.winding
        ns = chain.region.n_slices
        alpha, gamma = int(rng.integers(ja)), int(rng.integers(jb))
        a0, a1 = A.path[alpha * ns], A.path[((alpha + 1) % ja) * ns]
        b0, b1 = B.path[gamma * ns], B.path[((gamma + 1) % jb) * ns]
        T1 = _draw_beta_bridge(a0, b1, 1.0, chain.region, rng)
        T2 = _draw_beta_bridge(b0, a1, 1.0, chain.region, rng)
        merge = merge_proposal(chain, 0, 1, alpha, gamma, T1, T2)
        Y, eY = merge.builder()
        cut = cut_proposal(clone_state(chain, Y, eY), Y.loop_count - 1, 0, jb,
                           _leg_block(A, alpha, ns), _leg_block(B, gamma, ns))
        assert merge.log_accept == c["merge"]
        assert cut.log_accept == c["cut"]


class TestCheckpointResume:
    def test_resume_matches_uninterrupted(self, tmp_path):
        from bosegas.loopgas.gibbs import resume_gibbs

        region = BoxRegion(d=2, L=5.0, n_slices=4)
        V = gaussian_repulsion(2, 0.5, width=5 / 12)
        base = str(tmp_path / "ck")
        full = gibbs_sample(0.4, 1.0, region, V, n_sweeps=60, rng_seed=77,
                            checkpoint_base=base, checkpoint_every=30)
        # last checkpoint written after sweep 60; use the one at sweep 30 by
        # rerunning the first half only
        half = gibbs_sample(0.4, 1.0, region, V, n_sweeps=30, rng_seed=77,
                            checkpoint_base=base, checkpoint_every=30)
        resumed = resume_gibbs(base, V, n_sweeps=60)
        full_N = [r["N"] for r in full["rows"]]
        res_N = [r["N"] for r in resumed["rows"]]
        assert res_N == full_N[30:]

    def test_resume_restores_counters_and_N_trace(self, tmp_path):
        from bosegas.loopgas.gibbs import resume_gibbs

        region = BoxRegion(d=2, L=5.0, n_slices=4)
        V = gaussian_repulsion(2, 0.5, width=5 / 12)
        base = str(tmp_path / "ck")
        full = gibbs_sample(0.4, 1.0, region, V, n_sweeps=100, rng_seed=78)
        gibbs_sample(0.4, 1.0, region, V, n_sweeps=50, rng_seed=78, checkpoint_base=base, checkpoint_every=50)
        resumed = resume_gibbs(base, V, n_sweeps=100)
        assert [r["N"] for r in resumed["rows"]] == [r["N"] for r in full["rows"][50:]]
        assert resumed["rows"][-1]["energy"] == full["rows"][-1]["energy"]
        assert resumed["attempts"] == full["attempts"]
        assert resumed["acceptance"] == full["acceptance"]
        assert resumed["mean_N"] == full["mean_N"]
        assert resumed["err_N"] == full["err_N"] and np.isfinite(full["err_N"])

    def test_resume_reads_version_2_checkpoint(self, tmp_path):
        # a version-2 checkpoint, as written before the images field went (an
        # images blob beside the knots), resumes bit for bit; its images are
        # not read, so arbitrary ones change nothing
        from bosegas.loopgas.gibbs import resume_gibbs

        region = BoxRegion(d=2, L=5.0, n_slices=4)
        V = gaussian_repulsion(2, 0.5, width=5 / 12)
        base = str(tmp_path / "ck")
        full = gibbs_sample(0.4, 1.0, region, V, n_sweeps=100, rng_seed=78)
        gibbs_sample(0.4, 1.0, region, V, n_sweeps=50, rng_seed=78, checkpoint_base=base, checkpoint_every=50)
        with np.load(base + ".npz") as blobs:
            arrays = dict(blobs)
        arrays["images"] = generator(5).integers(-2, 3, size=(arrays["windings"].size, region.d))
        np.savez_compressed(base + ".npz", **arrays)
        with open(base + ".json") as fh:
            sidecar = json.load(fh)
        sidecar["version"] = 2
        with open(base + ".json", "w") as fh:
            json.dump(sidecar, fh, indent=1, sort_keys=True)
        resumed = resume_gibbs(base, V, n_sweeps=100)
        assert resumed["rows"] == full["rows"][50:]
        assert resumed["attempts"] == full["attempts"]
        assert resumed["acceptance"] == full["acceptance"]
        assert resumed["mean_N"] == full["mean_N"] and resumed["err_N"] == full["err_N"]
        for a, b in zip(resumed["configs"], full["configs"][-len(resumed["configs"]):]):
            assert a.knots.tobytes() == b.knots.tobytes() and np.array_equal(a.windings, b.windings)

    def test_resume_keeps_the_written_schedule(self, tmp_path):
        # a thin-3 run checkpointed every 25 sweeps and resumed at sweep 50
        # emits the uninterrupted run's configurations from sweep 50 on, and
        # its checkpoints go on to sweep 100
        from bosegas.loopgas.gibbs import resume_gibbs

        region = BoxRegion(d=2, L=5.0, n_slices=4)
        V = gaussian_repulsion(2, 0.5, width=5 / 12)
        base, full_base = str(tmp_path / "ck"), str(tmp_path / "full")
        full = gibbs_sample(0.4, 1.0, region, V, n_sweeps=100, rng_seed=81, thin=3,
                            checkpoint_base=full_base, checkpoint_every=25)
        gibbs_sample(0.4, 1.0, region, V, n_sweeps=50, rng_seed=81, thin=3, checkpoint_base=base, checkpoint_every=25)
        resumed = resume_gibbs(base, V, n_sweeps=100)
        assert len(full["configs"]) == 27 and len(resumed["configs"]) == 17
        for a, b in zip(resumed["configs"], full["configs"][10:]):
            assert a.knots.tobytes() == b.knots.tobytes() and np.array_equal(a.windings, b.windings)
        assert resumed["rows"] == full["rows"][50:]
        for b in (base, full_base):
            with open(b + ".json") as fh:
                assert json.load(fh)["sweep"] == 100
        with open(base + ".json") as fh:
            assert json.load(fh)["chain"]["schedule"] == {"thin": 3, "burn": None, "checkpoint_every": 25}

    @pytest.mark.parametrize("field, change", [
        ("L", {"region": BoxRegion(d=2, L=9.0, n_slices=4)}),
        ("boundary", {"region": BoxRegion(d=2, L=6.0, boundary="dirichlet", n_slices=4)}),
        ("n_slices", {"region": BoxRegion(d=2, L=6.0, n_slices=8)}),
        ("z", {"z": 0.7}),
        ("beta", {"beta": 2.0}),
        ("L", {"region": BoxRegion(d=2, L=9.0, n_slices=4), "z": 0.7, "beta": 2.0}),
    ])
    def test_resume_runs_under_the_written_law(self, tmp_path, field, change):
        # z, beta and the box come from the checkpoint, so a chain written
        # away from z = 0.4, beta = 1, L = 6 continues under its own law
        from bosegas.loopgas.gibbs import resume_gibbs

        base = str(tmp_path / "ck")
        law = {"z": 0.4, "beta": 1.0, "region": BoxRegion(d=2, L=6.0, n_slices=4), **change}
        full = gibbs_sample(law["z"], law["beta"], law["region"], None, n_sweeps=20, rng_seed=79)
        gibbs_sample(law["z"], law["beta"], law["region"], None, n_sweeps=10, rng_seed=79,
                     checkpoint_base=base, checkpoint_every=10)
        resumed = resume_gibbs(base, None, n_sweeps=20)
        chain = resumed["chain"]
        assert (chain.z, chain.beta, chain.region) == (law["z"], law["beta"], law["region"])
        assert resumed["rows"] == full["rows"][10:] and resumed["attempts"] == full["attempts"]

    @pytest.mark.parametrize("V", [None, gaussian_repulsion(1, 3.0, 0.5)], ids=["none", "gauss-3"])
    def test_resume_refuses_another_potential(self, tmp_path, V):
        # a checkpoint written under gaussian_repulsion(1, 0.5, 0.5) stores
        # energy 0.2605; under V = None its rows kept that energy, and under
        # an amplitude of 3 the chain ended below the stability floor
        from bosegas.loopgas.gibbs import resume_gibbs

        base = str(tmp_path / "ck")
        region = BoxRegion(d=1, L=6.0, n_slices=4)
        gibbs_sample(0.8, 1.0, region, gaussian_repulsion(1, 0.5, 0.5), n_sweeps=20, rng_seed=4,
                     checkpoint_base=base, checkpoint_every=20)
        with open(base + ".json") as fh:
            assert json.load(fh)["chain"]["energy"] == pytest.approx(0.2605, abs=1e-4)
        with pytest.raises(ValueError, match="stores energy 0.2605.* under the given V"):
            resume_gibbs(base, V, n_sweeps=40)


STABILITY_SCRIPT = """
import sys
import numpy as np
from bosegas.errors import StabilityError
from bosegas.loopgas import BoxRegion, GibbsChain, PairPotential

# attractive, stable with B = 2 on every point set the constructor probes;
# the claim is then understated to B = 0, so any negative energy breaks it
# the range of 5 leaves 1.4e-11 of the tail beyond it and fits the box of side 10
V = PairPotential(v_of_r=lambda r: -0.5 * np.exp(-np.asarray(r) ** 2), d=2, range=5.0, stability_B=2.0)
object.__setattr__(V, "stability_B", 0.0)
chain = GibbsChain(0.5, 1.0, BoxRegion(d=2, L=10.0, n_slices=4), V, rng_seed=3)
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
