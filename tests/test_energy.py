"""Energy engine on the packed layout: brute-force agreement, hard cores,
incremental chain energies and side-effect-free move builders."""

import math

import numpy as np
import pytest

from bosegas.loopgas import (
    DIRICHLET,
    PERIODIC,
    BoxRegion,
    BridgeLoop,
    GibbsChain,
    LoopConfiguration,
    gaussian_repulsion,
    hard_core,
    interaction_energy,
    intra_energy,
    pair_energy,
)
from bosegas.loopgas.energy import (
    added_loop_energies,
    interaction_energies,
    intra_energies,
    loop_in_config_energy,
    pair_energies,
)
from bosegas.loopgas.loops import fill_bridges
from bosegas.loopgas.gibbs import MOVES
from bosegas.rng import generator

# an inf - inf or 0 * inf in the hard-core paths fails here, not silently
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

BETA = 1.0


def random_config(region, seed, windings=(1, 2, 3, 1, 3, 2, 1)):
    """Loops of the given windings with random bases (and, periodic, random
    spatial windings), packed from BridgeLoops."""
    rng = generator(seed)
    ns, L, d = region.n_slices, region.L, region.d
    loops = []
    for j in windings:
        if region.boundary == PERIODIC:
            base = rng.uniform(0, L, size=d)
            image = rng.integers(-1, 2, size=d)
        else:
            base = rng.uniform(0.3 * L, 0.7 * L, size=d)
            image = np.zeros(d, dtype=int)
        path = fill_bridges(base[None], (base + image * L)[None], j * ns, BETA / ns, rng)[0]
        loops.append(BridgeLoop(base=base, winding=j, path=path, image=image))
    return LoopConfiguration(loops=loops)


def brute_pairs(legs_a, legs_b, V, region, distinct=False):
    """Double loop over leg pairs and time knots (distinct: a against itself,
    unordered pairs of different legs only)."""
    ns, L = region.n_slices, region.L
    dtau = BETA / ns
    total = 0.0
    for p, leg_p in enumerate(legs_a):
        for q, leg_q in enumerate(legs_b):
            if distinct and q <= p:
                continue
            for k in range(ns + 1):
                dx = leg_p[k] - leg_q[k]
                if region.boundary == PERIODIC:
                    dx = dx - L * np.floor(dx / L + 0.5)
                w = dtau / 2 if k in (0, ns) else dtau
                total += w * float(V(math.sqrt(float((dx**2).sum()))))
    return total


def legs_of(loop, ns):
    return [loop.path[a * ns : (a + 1) * ns + 1] for a in range(loop.winding)]


def brute_total(loops, V, region):
    legs = [leg for lp in loops for leg in legs_of(lp, region.n_slices)]
    return brute_pairs(legs, legs, V, region, distinct=True)


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_engine_matches_brute_force(boundary):
    region = BoxRegion(d=3, L=4.0, boundary=boundary, n_slices=4)
    V = gaussian_repulsion(3, 0.7, width=1.0)
    cfg = random_config(region, seed=31)
    loops = cfg.loops
    ns = region.n_slices
    assert sorted({lp.winding for lp in loops}) == [1, 2, 3]

    full = brute_total(loops, V, region)
    assert full > 0
    assert interaction_energy(cfg, V, BETA, region) == pytest.approx(full, rel=1e-12)

    for i, lp in enumerate(loops):
        own = legs_of(lp, ns)
        others = [leg for k, q in enumerate(loops) if k != i for leg in legs_of(q, ns)]
        intra = brute_pairs(own, own, V, region, distinct=True)
        assert intra_energy(lp, V, BETA, region) == pytest.approx(intra, rel=1e-12, abs=1e-300)
        expect = brute_pairs(own, others, V, region) + intra
        assert loop_in_config_energy(lp, cfg, V, BETA, region, skip=i) == pytest.approx(expect, rel=1e-12)

    a, b = loops[1], loops[2]
    assert pair_energy(a, b, V, BETA, region) == pytest.approx(
        brute_pairs(legs_of(a, ns), legs_of(b, ns), V, region), rel=1e-12
    )
    # an outside loop against the whole configuration, and with two loops left out
    extra = random_config(region, seed=32, windings=(2,)).loop(0)
    expect = brute_total(list(loops) + [extra], V, region) - full
    assert loop_in_config_energy(extra, cfg, V, BETA, region) == pytest.approx(expect, rel=1e-12)
    rest = [q for k, q in enumerate(loops) if k not in (0, 3)]
    expect = brute_total(rest + [extra], V, region) - brute_total(rest, V, region)
    assert loop_in_config_energy(extra, cfg, V, BETA, region, skip=(0, 3)) == pytest.approx(expect, rel=1e-12)


def test_blocked_sum_matches_one_broadcast(monkeypatch):
    from bosegas.loopgas import energy

    region = BoxRegion(d=3, L=4.0, n_slices=4)
    V = gaussian_repulsion(3, 0.7, width=1.0)
    cfg = random_config(region, seed=33)
    whole = interaction_energy(cfg, V, BETA, region)
    monkeypatch.setattr(energy, "_BROADCAST_FLOATS", 1)  # one leg per block
    assert interaction_energy(cfg, V, BETA, region) == pytest.approx(whole, rel=1e-12)


def static_loop(point, region, winding=1, second=None):
    """Loop resting at point; with `second`, its legs after the first rest there."""
    ns = region.n_slices
    path = np.tile(np.asarray(point, dtype=float), (winding * ns + 1, 1))
    if second is not None:
        path[ns:-1] = second
    return BridgeLoop(base=path[0].copy(), winding=winding, path=path, image=np.zeros(region.d, dtype=int))


def test_hard_core_contact_is_infinite():
    region = BoxRegion(d=3, L=6.0, n_slices=4)
    V = hard_core(3, 1.0)
    a = static_loop([2.0, 2.0, 2.0], region)
    b = static_loop([2.0, 2.0, 2.5], region)
    far = static_loop([5.0, 5.0, 5.0], region)
    assert np.isinf(pair_energy(a, b, V, BETA, region))
    assert pair_energy(a, far, V, BETA, region) == 0.0
    assert np.isinf(interaction_energy(LoopConfiguration(loops=[a, far, b]), V, BETA, region))
    # a winding-2 loop whose second leg sits 0.5 from its first
    folded = static_loop([2.0, 2.0, 2.0], region, winding=2, second=[2.0, 2.5, 2.0])
    assert np.isinf(intra_energy(folded, V, BETA, region))
    assert np.isinf(interaction_energy(LoopConfiguration(loops=[far, folded]), V, BETA, region))
    spread = static_loop([2.0, 2.0, 2.0], region, winding=2, second=[2.0, 4.0, 2.0])
    assert intra_energy(spread, V, BETA, region) == 0.0


@pytest.mark.parametrize(
    "V, z", [(gaussian_repulsion(2, 1.0), 0.6), (hard_core(2, 0.3), 0.5)], ids=["gauss", "hard-core"]
)
def test_incremental_energy_tracks_full_energy(V, z):
    region = BoxRegion(d=2, L=5.0, n_slices=4)
    chain = GibbsChain(z, BETA, region, V, rng_seed=41)
    for _ in range(2000):
        chain.step()
    assert all(chain.accepts[m] > 0 for m in MOVES), chain.accepts
    full = interaction_energy(chain.config, V, BETA, region)
    assert np.isfinite(full)
    assert abs(chain.energy - full) <= 1e-9 * max(abs(full), 1.0)


def snapshot(config):
    return [a.tobytes() for a in (config.knots, config.offsets, config.windings, config.images)] + [
        a.shape for a in (config.knots, config.offsets, config.windings, config.images)
    ]


@pytest.mark.parametrize("move", MOVES)
def test_builders_leave_the_chain_untouched(move):
    region = BoxRegion(d=2, L=5.0, n_slices=4)
    chain = GibbsChain(0.6, BETA, region, gaussian_repulsion(2, 1.0), rng_seed=42)
    for _ in range(500):
        prop = getattr(chain, f"propose_{move}")()
        if prop.eligible and chain.config.loop_count >= 2:
            break
        chain.step()
    assert prop.eligible
    before, energy = snapshot(chain.config), chain.energy
    config, new_energy = prop.builder()
    assert snapshot(chain.config) == before and chain.energy == energy
    assert config is not chain.config
    assert not np.shares_memory(config.knots, chain.config.knots)
    assert config.offsets[-1] == config.knots.shape[0]


# -- batched energies against the scalar functions --------------------------------


def _stack(loops):
    return np.stack([lp.path for lp in loops])


def _batch_cases(region, V):
    """Loops of windings 1-3 (four of each) and configurations, two of them empty."""
    loops = {j: random_config(region, seed=50 + j, windings=(j,) * 4).loops for j in (1, 2, 3)}
    configs = [random_config(region, seed=60), LoopConfiguration(), random_config(region, seed=61, windings=(2, 1)),
               LoopConfiguration(), random_config(region, seed=62, windings=(3,))]
    return loops, configs


def _assert_batched_match(region, V, compare):
    loops, configs = _batch_cases(region, V)
    for ja in (1, 2, 3):
        a = loops[ja]
        compare(intra_energies(_stack(a), V, BETA, region), [intra_energy(lp, V, BETA, region) for lp in a])
        for jb in (1, 2, 3):
            b = loops[jb][::-1]
            compare(pair_energies(_stack(a), _stack(b), V, BETA, region),
                    [pair_energy(x, y, V, BETA, region) for x, y in zip(a, b)])
        # one loop against each configuration, a single stacked loop broadcasting
        cfgs = configs[:4]
        compare(added_loop_energies(_stack(a), cfgs, V, BETA, region),
                [loop_in_config_energy(lp, c, V, BETA, region) for lp, c in zip(a, cfgs)])
        compare(pair_energies(_stack(a[:1]), _stack(a), V, BETA, region),
                [pair_energy(a[0], y, V, BETA, region) for y in a])
    compare(interaction_energies(configs, V, BETA, region),
            [interaction_energy(c, V, BETA, region) for c in configs])
    empty = [LoopConfiguration(), LoopConfiguration()]
    compare(interaction_energies(empty, V, BETA, region), [0.0, 0.0])
    compare(added_loop_energies(_stack(loops[2][:2]), empty, V, BETA, region),
            [intra_energy(lp, V, BETA, region) for lp in loops[2][:2]])


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_batched_energies_match_scalar(boundary):
    region = BoxRegion(d=3, L=4.0, boundary=boundary, n_slices=4)
    V = gaussian_repulsion(3, 0.7, width=1.0)

    def compare(got, want):
        want = np.asarray(want, dtype=float)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    _assert_batched_match(region, V, compare)


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_batched_hard_core_same_contacts(boundary):
    # a core of 1.2 in a box of 4 gives both contacts (+inf) and zeros
    region = BoxRegion(d=3, L=4.0, boundary=boundary, n_slices=4)
    V = hard_core(3, 1.2)
    seen = []

    def compare(got, want):
        want = np.asarray(want, dtype=float)
        assert got.shape == want.shape
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        np.testing.assert_array_equal(got[np.isfinite(want)], 0.0)
        seen.extend(np.isinf(want))

    _assert_batched_match(region, V, compare)
    assert any(seen) and not all(seen)


def test_batched_energies_in_blocks(monkeypatch):
    # one leg per block: added loops go leg by leg, and every configuration
    # goes to interaction_energy's blocked sum
    from bosegas.loopgas import energy

    region = BoxRegion(d=3, L=4.0, n_slices=4)
    V = gaussian_repulsion(3, 0.7, width=1.0)
    loops, configs = _batch_cases(region, V)
    paths = _stack(loops[2])
    whole = (added_loop_energies(paths, configs[:4], V, BETA, region), interaction_energies(configs, V, BETA, region))
    monkeypatch.setattr(energy, "_BROADCAST_FLOATS", 1)
    np.testing.assert_allclose(added_loop_energies(paths, configs[:4], V, BETA, region), whole[0], rtol=1e-12)
    np.testing.assert_allclose(interaction_energies(configs, V, BETA, region), whole[1], rtol=1e-12)
