"""Energy engine on the packed layout: brute-force agreement, hard cores,
incremental chain energies and side-effect-free move builders."""

import hashlib
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
    PairPotential,
    gaussian_repulsion,
    hard_core,
    interaction_energy,
    intra_energy,
    pair_energy,
)
from bosegas.loopgas import energy
from bosegas.loopgas.energy import (
    added_loop_energies,
    interaction_energies,
    intra_energies,
    loop_in_config_energy,
    loops_in_config_energies,
    pair_energies,
)
from bosegas.errors import TruncationError
from bosegas.loopgas.loops import fill_bridges, leg_index
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
        loops.append(BridgeLoop(winding=j, path=path))
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
    V = gaussian_repulsion(3, 0.7, width=1 / 3)
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


def test_range_beyond_half_box_refused():
    # gaussian_repulsion's range is 6 widths: 6 > L/2 = 3 would leave the
    # second image of a pair, at distance >= 3, out of every periodic energy
    region = BoxRegion(d=2, L=6.0, n_slices=4)
    V = gaussian_repulsion(2, 1.0)
    cfg = random_config(region, seed=34)
    with pytest.raises(TruncationError, match="half the box"):
        interaction_energy(cfg, V, BETA, region)
    with pytest.raises(TruncationError, match="half the box"):
        added_loop_energies(_stack(cfg.loops[:1]), [cfg], V, BETA, region)
    with pytest.raises(TruncationError, match="half the box"):
        GibbsChain(0.5, BETA, region, V, rng_seed=1)
    # a range of exactly L/2 and a Dirichlet box pass; a potential that
    # claims no range is refused before it reaches any box
    interaction_energy(cfg, gaussian_repulsion(2, 1.0, width=0.5), BETA, region)
    GibbsChain(0.5, BETA, BoxRegion(d=2, L=6.0, boundary=DIRICHLET, n_slices=4), V, rng_seed=1)
    with pytest.raises(TypeError, match="range"):
        PairPotential(v_of_r=V.v_of_r, d=2)


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_potential_of_another_dimension_refused(boundary):
    # a potential checked for stability and integrability in d = 3 prices no
    # paths of a d = 1 box, whatever the boundary
    region = BoxRegion(d=1, L=6.0, boundary=boundary, n_slices=4)
    V = hard_core(3, 0.4)
    cfg = random_config(region, seed=35)
    with pytest.raises(ValueError, match="d = 3"):
        interaction_energy(cfg, V, BETA, region)
    with pytest.raises(ValueError, match="d = 3"):
        GibbsChain(0.5, BETA, region, V, rng_seed=1)


def test_blocked_sum_matches_one_broadcast(monkeypatch):
    # a budget of one displacement float sends every row of more than one pair
    # to blocks of pairs (one triangle row each), which never build the whole
    # triangle's index; the sums keep their value and their hard-core contacts
    region = BoxRegion(d=3, L=4.0, n_slices=4)
    configs = [random_config(region, seed=s, windings=w) for s, w in ((33, (1, 2, 3, 1, 3, 2, 1)), (37, (1, 2)))]
    loops = random_config(region, seed=38, windings=(3, 5, 4, 3)).loops

    def energies(V):
        return ([interaction_energy(c, V, BETA, region) for c in configs]
                + [intra_energy(lp, V, BETA, region) for lp in loops]
                + list(intra_energies(_stack(loops[:1] + loops[3:]), V, BETA, region)))

    pots = (gaussian_repulsion(3, 0.7, width=1 / 3), hard_core(3, 1.0))
    whole = [energies(V) for V in pots]
    assert any(np.isinf(whole[1])) and not all(np.isinf(whole[1]))
    monkeypatch.setattr(energy, "_BROADCAST_FLOATS", 1)
    monkeypatch.setattr(energy, "_upper_pairs", None)
    for V, want in zip(pots, whole):
        np.testing.assert_allclose(energies(V), want, rtol=1e-12, atol=0)


def test_mis_sliced_paths_refused():
    # a path sliced at one n_slices and priced at another would have its legs
    # read from the wrong knots, or past its end: every entry point refuses it
    V = gaussian_repulsion(3, 0.7, width=1 / 3)
    coarse, fine = BoxRegion(d=3, L=4.0, n_slices=4), BoxRegion(d=3, L=4.0, n_slices=8)
    for sliced, region, j in ((fine, coarse, 3), (coarse, fine, 2)):
        bad = random_config(sliced, seed=39, windings=(j,)).loop(0)
        good = random_config(region, seed=40, windings=(1, 2))
        mixed = LoopConfiguration(loops=[good.loop(0), bad])
        one = _stack(good.loops[:1])
        calls = [
            lambda: pair_energy(bad, good.loop(0), V, BETA, region),
            lambda: pair_energy(good.loop(1), bad, V, BETA, region),
            lambda: intra_energy(bad, V, BETA, region),
            lambda: loop_in_config_energy(bad, good, V, BETA, region),
            lambda: loop_in_config_energy(good.loop(0), mixed, V, BETA, region),
            lambda: loops_in_config_energies([good.loop(1).path], mixed, V, BETA, region),
            lambda: interaction_energy(mixed, V, BETA, region),
            lambda: interaction_energies([good, mixed], V, BETA, region),
            lambda: added_loop_energies(one, [mixed], V, BETA, region),
            lambda: good.spliced(add=[bad]),  # built legs carried over
        ]
        good.legs(region.n_slices)
        for call in calls:
            with pytest.raises(ValueError, match="knots"):
                call()
    # stacked paths carry no winding: a knot count that is no winding's is refused
    region = coarse
    good = random_config(region, seed=40, windings=(1, 2))
    cut = _stack(good.loops[1:])[:, :-1]
    for call in (
        lambda: pair_energies(cut, _stack(good.loops[:1]), V, BETA, region),
        lambda: intra_energies(cut, V, BETA, region),
        lambda: added_loop_energies(cut, [good], V, BETA, region),
        lambda: loops_in_config_energies([cut[0]], good, V, BETA, region),
    ):
        with pytest.raises(ValueError, match="knots"):
            call()


def static_loop(point, region, winding=1, second=None):
    """Loop resting at point; with `second`, its legs after the first rest there."""
    ns = region.n_slices
    path = np.tile(np.asarray(point, dtype=float), (winding * ns + 1, 1))
    if second is not None:
        path[ns:-1] = second
    return BridgeLoop(winding=winding, path=path)


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
    "V, z", [(gaussian_repulsion(2, 1.0, width=5 / 12), 0.6), (hard_core(2, 0.3), 0.5)],
    ids=["gauss", "hard-core"],
)
def test_incremental_energy_tracks_full_energy(V, z):
    region = BoxRegion(d=2, L=5.0, n_slices=4)
    chain = GibbsChain(z, BETA, region, V, rng_seed=41)
    for _ in range(2000):
        chain.step()
    assert all(chain.accepts[m] > 0 for m in MOVES), chain.accepts
    # the legs every move carried over are still the knots' legs
    config, ns = chain.config, region.n_slices
    assert config._legs is not None
    assert config.legs(ns).tobytes() == config.knots.take(leg_index(config.windings, ns), axis=0).tobytes()
    full = interaction_energy(chain.config, V, BETA, region)
    assert np.isfinite(full)
    assert abs(chain.energy - full) <= 1e-9 * max(abs(full), 1.0)


def trapezoid_sum(diff, V, region):
    """Total one-period trapezoid energy of leg displacements diff (..., n_slices
    + 1, d), with the kernel's operations in the kernel's order: minimum image,
    distance, V, the weights per pair, then one sum over the pairs."""
    ns, L = region.n_slices, region.L
    if region.boundary == PERIODIC:
        diff = diff - L * np.rint(diff / L)
    r = np.sqrt(np.einsum("...k,...k->...", diff, diff))
    w = np.full(ns + 1, BETA / ns)
    w[0] = w[-1] = BETA / ns / 2
    return float((V(r) @ w).sum())


def rowwise_loop_energy(path, cfg, V, region, skip):
    """One loop priced against a configuration as the rows of leg_index left
    after removing the skipped loops' legs, taken from the knots on every call:
    the loop's own pairs, row by row of the upper triangle, then its legs
    against the others."""
    ns = region.n_slices
    legs = path.take(leg_index([(len(path) - 1) // ns], ns), axis=0)
    rows = leg_index(cfg.windings, ns)
    keep = np.ones(len(rows), dtype=bool)
    for i in np.atleast_1d(skip):
        if 0 <= i < cfg.loop_count:
            first = int(cfg.windings[:i].sum())
            keep[first : first + cfg.windings[i]] = False
    i, k = np.triu_indices(len(legs), 1)
    total = trapezoid_sum(legs[i] - legs[k], V, region) if len(i) else 0.0
    others = cfg.knots.take(rows[keep], axis=0)
    if len(others):
        total += trapezoid_sum(legs[:, None] - others, V, region)
    return total


@pytest.mark.parametrize(
    "boundary, V",
    [(PERIODIC, gaussian_repulsion(3, 0.7, width=1 / 3)), (DIRICHLET, hard_core(3, 1.2))],
    ids=["periodic-gauss", "dirichlet-hard-core"],
)
def test_fused_pricing_has_the_bits_of_single_calls(boundary, V):
    # the loops a move prices together (old and new paths, merge's B and C,
    # cut's three loops) go in one broadcast; each keeps its own call's bits
    region = BoxRegion(d=3, L=4.0, boundary=boundary, n_slices=4)
    cfg = random_config(region, seed=31)
    one = random_config(region, seed=35, windings=(2,))
    paths = [lp.path for lp in random_config(region, seed=33, windings=(1, 3, 2)).loops] + [cfg.loop(1).path]
    seen = []
    for config in (cfg, one):
        for skip in (-1, 0, 2, np.int64(4), (0, 3), (np.int32(5), 1, 5)):
            got = loops_in_config_energies(paths, config, V, BETA, region, skip=skip)
            want = [rowwise_loop_energy(p, config, V, region, skip) for p in paths]
            assert got == want
            for p, w in zip(paths, want):
                lp = BridgeLoop(winding=(len(p) - 1) // region.n_slices, path=p)
                assert loop_in_config_energy(lp, config, V, BETA, region, skip=skip) == w
            pair = loops_in_config_energies(paths[1::-1], config, V, BETA, region, skip=skip)
            assert pair == want[1::-1]
            seen.extend(want)
    if V.hard_core:
        assert any(np.isinf(seen)) and not all(np.isinf(seen))


def test_carried_legs_equal_fresh_legs():
    # spliced and replaced carry built legs over instead of indexing the knots again
    region = BoxRegion(d=3, L=4.0, n_slices=4)
    ns = region.n_slices
    cfg = random_config(region, seed=31)
    extra = random_config(region, seed=34, windings=(2, 1)).loops
    cfg.legs(ns)
    results = [
        cfg.spliced(add=extra),
        cfg.spliced(drop=[3]),
        cfg.spliced(drop=(6, 0), add=extra[:1]),
        cfg.spliced(drop=range(7)),
        cfg.spliced(drop=range(7)).spliced(add=extra),
        cfg.replaced(2, cfg.loop(2).path + 0.25),
        cfg.copy(),
        LoopConfiguration().spliced(add=extra),
    ]
    for c in results:
        fresh = c.knots.take(leg_index(c.windings, ns), axis=0)
        legs = c.legs(ns)
        assert legs.shape == fresh.shape and legs.tobytes() == fresh.tobytes()
        assert not legs.flags.writeable
    assert results[-3].legs(ns) is not cfg.legs(ns)


def snapshot(config):
    return [a.tobytes() for a in (config.knots, config.offsets, config.windings)] + [
        a.shape for a in (config.knots, config.offsets, config.windings)
    ]


@pytest.mark.parametrize("move", MOVES)
def test_builders_leave_the_chain_untouched(move):
    region = BoxRegion(d=2, L=5.0, n_slices=4)
    chain = GibbsChain(0.6, BETA, region, gaussian_repulsion(2, 1.0, width=5 / 12), rng_seed=42)
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
    compare(intra_energies(_stack(loops[2])[:0], V, BETA, region), [])  # an empty stack


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_batched_energies_match_scalar(boundary):
    region = BoxRegion(d=3, L=4.0, boundary=boundary, n_slices=4)
    V = gaussian_repulsion(3, 0.7, width=1 / 3)

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
    # of more than two legs goes to blocks of pairs
    region = BoxRegion(d=3, L=4.0, n_slices=4)
    V = gaussian_repulsion(3, 0.7, width=1 / 3)
    loops, configs = _batch_cases(region, V)
    paths = _stack(loops[2])
    whole = (added_loop_energies(paths, configs[:4], V, BETA, region), interaction_energies(configs, V, BETA, region))
    monkeypatch.setattr(energy, "_BROADCAST_FLOATS", 1)
    np.testing.assert_allclose(added_loop_energies(paths, configs[:4], V, BETA, region), whole[0], rtol=1e-12)
    np.testing.assert_allclose(interaction_energies(configs, V, BETA, region), whole[1], rtol=1e-12)


# -- bit pin of every energy entry point -------------------------------------------

# sha256 (first 16 hex digits) of the float.hex of every energy below, recorded
# before the scalar energies became views of the batched ones; any change to
# the kernels' arithmetic or summation order moves it.
PINNED_ENERGY_BITS = "6ee408a459846458"


def energy_bits():
    digest = hashlib.sha256()

    def put(values):
        for v in np.atleast_1d(np.asarray(values, dtype=float)):
            digest.update(float(v).hex().encode())

    for boundary in (PERIODIC, DIRICHLET):
        for d, ns in ((1, 8), (2, 4), (3, 4)):
            region = BoxRegion(d=d, L=4.0, boundary=boundary, n_slices=ns)
            for V in (gaussian_repulsion(d, 0.7, width=1 / 3), hard_core(d, 0.6)):
                loops, configs = _batch_cases(region, V)
                for ja in (1, 2, 3):
                    a = loops[ja]
                    put(intra_energies(_stack(a), V, BETA, region))
                    put([intra_energy(lp, V, BETA, region) for lp in a])
                    for jb in (1, 2, 3):
                        b = loops[jb][::-1]
                        put(pair_energies(_stack(a), _stack(b), V, BETA, region))
                        put([pair_energy(x, y, V, BETA, region) for x, y in zip(a, b)])
                    put(added_loop_energies(_stack(a), configs[:4], V, BETA, region))
                    put(loops_in_config_energies([lp.path for lp in a], configs[0], V, BETA, region, skip=(1, 4)))
                    put([loop_in_config_energy(lp, configs[0], V, BETA, region, skip=2) for lp in a])
                put(interaction_energies(configs, V, BETA, region))
                put([interaction_energy(c, V, BETA, region) for c in configs])
    return digest.hexdigest()[:16]


def test_energy_bits_pinned():
    assert energy_bits() == PINNED_ENERGY_BITS


# -- the range and dimension check runs on every call ------------------------------


def _energy_calls_without_leg_pairs(region, V):
    """Every public energy on inputs with no leg pair to price: winding-1 loops,
    alone or against empty configurations."""
    one = random_config(region, seed=70, windings=(1,))
    lp, paths, empty = one.loop(0), _stack(one.loops), LoopConfiguration()
    return [
        lambda: interaction_energy(one, V, BETA, region),
        lambda: interaction_energy(empty, V, BETA, region),
        lambda: intra_energy(lp, V, BETA, region),
        lambda: loop_in_config_energy(lp, empty, V, BETA, region),
        lambda: loop_in_config_energy(lp, one, V, BETA, region, skip=0),
        lambda: interaction_energies([one, empty], V, BETA, region),
        lambda: intra_energies(paths, V, BETA, region),
        lambda: added_loop_energies(paths, [empty], V, BETA, region),
        lambda: loops_in_config_energies([lp.path], empty, V, BETA, region),
        lambda: loops_in_config_energies([lp.path], one, V, BETA, region, skip=0),
    ]


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_dimension_checked_with_no_leg_pair(boundary):
    # a d = 3 potential in a d = 1 box is refused even where no pair is priced
    region = BoxRegion(d=1, L=6.0, boundary=boundary, n_slices=4)
    for call in _energy_calls_without_leg_pairs(region, hard_core(3, 0.4)):
        with pytest.raises(ValueError, match="d = 3"):
            call()


def test_range_checked_with_no_leg_pair():
    # gaussian_repulsion's range 6 exceeds L/2 = 3 however few pairs there are
    region = BoxRegion(d=1, L=6.0, n_slices=4)
    for call in _energy_calls_without_leg_pairs(region, gaussian_repulsion(1, 1.0)):
        with pytest.raises(TruncationError, match="half the box"):
            call()


# -- each potential kind prices squared distances with the bits of V(r) ------------


def _plain(V):
    """A PairPotential of V's own callable, range and core, on the default path."""
    return PairPotential(v_of_r=V.v_of_r, d=V.d, range=V.range, hard_core=V.hard_core)


def _displacements(region, radius, seed):
    """Random leg displacements (40, n_slices + 1, d) over several box sides,
    with knots at r = 0, at exactly the core radius along an axis and a
    diagonal, and at the radius in random directions."""
    rng = generator(seed)
    diff = rng.uniform(-1.5 * region.L, 1.5 * region.L, size=(40, region.n_slices + 1, region.d))
    diff[:20] *= rng.uniform(0, 0.2, size=(20, 1, 1))  # many knots near and inside the core
    diff[0, 0] = 0.0
    diff[1, 2] = 0.0
    diff[1, 2, 0] = radius
    diff[2, 3] = -radius / math.sqrt(region.d)
    diff[3] = radius
    u = rng.standard_normal(size=diff.shape[1:])
    diff[4] = radius * u / np.linalg.norm(u, axis=-1, keepdims=True)  # within rounding of the core
    return diff


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_kinds_have_the_bits_of_the_plain_potential(boundary, d):
    region = BoxRegion(d=d, L=4.0, boundary=boundary, n_slices=8)
    for V, radius in ((hard_core(d, 0.6), 0.6), (gaussian_repulsion(d, 0.7, width=1 / 3), 0.6)):
        assert type(V) is not PairPotential
        diff = _displacements(region, radius, seed=71)
        got = energy._leg_pair_energies(diff, V, BETA, region)
        want = energy._leg_pair_energies(diff, _plain(V), BETA, region)
        assert got.tobytes() == want.tobytes()
        if V.hard_core:
            assert np.isinf(got).any() and (got == 0).any()


def test_default_path_keeps_the_bits_of_v_of_r():
    # a plain potential with both a hard core and a soft part takes the
    # default of_squared: sqrt, then the potential's own call
    d = 3
    soft = lambda r: 0.3 * np.exp(-((np.asarray(r) / 0.4) ** 2))
    V = PairPotential(v_of_r=soft, d=d, range=3.0, hard_core=0.5)
    w = energy._trapezoid_weights(9, BETA / 8)
    for boundary in (PERIODIC, DIRICHLET):
        region = BoxRegion(d=d, L=6.0, boundary=boundary, n_slices=8)
        diff = _displacements(region, 0.5, seed=72)
        got = energy._leg_pair_energies(diff, V, BETA, region)
        if boundary == PERIODIC:
            diff = diff - region.L * np.rint(diff / region.L)
        want = V(np.sqrt(np.einsum("...k,...k->...", diff, diff))) @ w
        assert got.tobytes() == want.tobytes()
        assert np.isinf(got).any() and (np.isfinite(got) & (got > 0)).any()


# -- the kernel writes only over its own buffers -------------------------------------


def _frozen(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_energies_leave_their_inputs_unchanged(boundary):
    # read-only paths and configurations (whose arrays are read-only) are
    # priced, and come back with every bit they had
    region = BoxRegion(d=3, L=4.0, boundary=boundary, n_slices=4)
    cfg = random_config(region, seed=31)
    loops = random_config(region, seed=33, windings=(2, 2, 2)).loops
    paths = _frozen(_stack(loops))
    cfg.legs(region.n_slices)
    before = snapshot(cfg) + [cfg.legs(region.n_slices).tobytes(), paths.tobytes()]
    before += [lp.path.tobytes() for lp in loops]
    for V in (gaussian_repulsion(3, 0.7, width=1 / 3), hard_core(3, 1.2), _plain(hard_core(3, 1.2))):
        pair_energies(paths, paths[::-1], V, BETA, region)
        intra_energies(paths, V, BETA, region)
        added_loop_energies(paths, [cfg, cfg, LoopConfiguration()], V, BETA, region)
        interaction_energies([cfg, cfg.spliced(drop=[0])], V, BETA, region)
        loops_in_config_energies(list(paths), cfg, V, BETA, region, skip=1)
        pair_energy(loops[0], cfg.loop(1), V, BETA, region)
        intra_energy(cfg.loop(2), V, BETA, region)
        interaction_energy(cfg, V, BETA, region)
        loop_in_config_energy(cfg.loop(1), cfg, V, BETA, region, skip=1)
        after = snapshot(cfg) + [cfg.legs(region.n_slices).tobytes(), paths.tobytes()]
        assert after + [lp.path.tobytes() for lp in loops] == before
