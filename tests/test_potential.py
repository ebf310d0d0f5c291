"""Pair-potential admission conditions: centrality, stability, tail integrability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosegas.loopgas.potential import PairPotential, gaussian_repulsion, hard_core


class TestAdmission:
    def test_positive_potentials_accepted(self):
        gaussian_repulsion(3, 2.0)
        hard_core(3, 1.0)

    def test_unstable_attraction_rejected(self):
        # a pure attractive well with a claimed stability constant of zero
        with pytest.raises(ValueError, match="stability"):
            PairPotential(
                v_of_r=lambda r: -np.exp(-np.asarray(r) ** 2),
                d=3,
                stability_B=0.0,
                range=5.0,
            )

    def test_attraction_with_honest_constant_accepted(self):
        # the same well passes once B dominates the worst probed point sets
        PairPotential(
            v_of_r=lambda r: -0.1 * np.exp(-np.asarray(r) ** 2),
            d=3,
            stability_B=10.0,
            range=5.0,
        )

    def test_nonintegrable_tail_rejected(self):
        with pytest.raises(ValueError, match="tail integral"):
            PairPotential(v_of_r=lambda r: 1.0 / np.asarray(r), d=3, range=5.0)

    def test_range_required_finite_and_outside_the_core(self):
        well = lambda r: -0.5 * np.exp(-np.asarray(r) ** 2)
        with pytest.raises(TypeError, match="range"):
            PairPotential(v_of_r=well, d=2, stability_B=2.0)
        for bad in (np.inf, np.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="range"):
                PairPotential(v_of_r=well, d=2, range=bad, stability_B=2.0)
        with pytest.raises(ValueError, match="range"):
            PairPotential(v_of_r=lambda r: np.zeros_like(np.asarray(r)), d=3, range=0.5, hard_core=1.0)

    def test_range_that_cuts_the_tail_rejected(self):
        # 1.8e-2 of the well's integral |V| r dr lies beyond r = 2; at r = 5, 1.4e-11
        well = lambda r: -0.5 * np.exp(-np.asarray(r) ** 2)
        with pytest.raises(ValueError, match="beyond the range"):
            PairPotential(v_of_r=well, d=2, range=2.0, stability_B=2.0)
        PairPotential(v_of_r=well, d=2, range=5.0, stability_B=2.0)

    def test_hard_core_sentinel(self):
        V = hard_core(3, 1.0)
        assert np.isinf(V(0.5))
        assert V(1.5) == 0.0

    def test_negative_radii_rejected(self):
        with pytest.raises(ValueError):
            PairPotential(v_of_r=lambda r: np.zeros_like(np.asarray(r)), d=3, range=1.0, hard_core=-1.0)


class TestStabilityProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=7),
        seed=st.integers(min_value=0, max_value=10_000),
        scale=st.floats(min_value=0.3, max_value=5.0),
    )
    def test_admitted_potential_is_stable_on_random_sets(self, n, seed, scale):
        V = gaussian_repulsion(3, 1.7, width=0.8)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, scale, size=(n, 3))
        r = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        iu = np.triu_indices(n, k=1)
        vals = V(r[iu])
        finite = vals[np.isfinite(vals)]
        assert finite.sum() >= -V.stability_B * n - 1e-9


class TestHardCoreOnSquares:
    """The hard core compares r2 with t, the smallest double whose sqrt reaches
    the radius, and so keeps the bits of the sqrt form for every r2 >= 0."""

    @staticmethod
    def _sqrt_form(r2, radius):
        return np.where(np.sqrt(r2) < radius, np.inf, 0.0)

    @pytest.mark.parametrize("radius", [0.4, 1.0, 1 / 3, 0.1, 2.5, 7.77, 1e-3])
    def test_at_the_threshold(self, radius):
        V = hard_core(1, radius)
        t = V.core_r2
        below = np.nextafter(t, 0.0)
        assert np.sqrt(below) < radius <= np.sqrt(t)
        r2 = np.array([t, below, 0.0, np.inf, np.nextafter(t, np.inf), radius * radius])
        got = V.of_squared(r2.copy())
        assert got[:4].tolist() == [0.0, np.inf, np.inf, 0.0]
        assert got.tobytes() == self._sqrt_form(r2, radius).tobytes()

    def test_near_the_threshold_at_random_radii(self):
        rng = np.random.default_rng(5)
        for radius in rng.uniform(1e-3, 10.0, 30):
            V = hard_core(3, radius)
            t = V.core_r2
            near = t + np.arange(-8, 9) * np.spacing(t)
            r2 = np.concatenate([near, rng.uniform(0.0, 4 * t, 50), [0.0, np.inf]])
            assert V.of_squared(r2.copy()).tobytes() == self._sqrt_form(r2, radius).tobytes()
