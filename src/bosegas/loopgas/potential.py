"""Central two-body pair potentials with stability and integrability checks.

A usable potential must satisfy the standard conditions: central and
continuous away from the origin, stable (sum of pair energies bounded below by
-B n over every finite point set), and absolutely integrable outside its hard
core.  Every potential states one finite range beyond which it is negligible.
Stability is probed on random point sets at construction; the tail
integrability and the range are checked by quadrature, and for the built-in
kinds (`hard_core`, `gaussian_repulsion`) in closed form.

The energy kernel prices squared distances: `PairPotential.of_squared(r2)`
returns V at sqrt(r2) elementwise and may overwrite r2.  Its default takes
the square root in place and calls the potential, so any callable works.
The factories return private kinds that evaluate in one pass of in-place
operations on that buffer: `hard_core` compares r2 with the smallest double
whose square root reaches the core radius, so it takes no square root, and
`gaussian_repulsion` runs the bump's own operations in their order.  Each
kind returns, element by element, the bits of `V(r)`.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..rng import generator

# Largest share of the integral of |V| r^(d-1) that may lie beyond the range.
TAIL_TOL = 1e-10


@dataclass(frozen=True)
class PairPotential:
    """Radial pair potential V(r) of range `range`, with an optional hard core.

    range (finite, positive, at least the hard core) claims that V is
    negligible beyond it; the constructor checks the claim.  stability_B is
    the claimed stability constant (>= 0); the constructor spot-checks it on
    random finite configurations and rejects detected violations.
    """

    v_of_r: object
    d: int
    range: float
    hard_core: float = 0.0
    stability_B: float = 0.0

    def __post_init__(self):
        if self.hard_core < 0 or self.stability_B < 0:
            raise ValueError("hard_core and stability_B must be >= 0")
        if not 0 < self.range < np.inf or self.range < self.hard_core:
            raise ValueError(f"range {self.range} must be finite, positive and at least the hard core")
        self.check_integrability()
        self.check_stability()

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.asarray(self.v_of_r(np.maximum(r, 1e-300)), dtype=float)
        if self.hard_core > 0:
            out = np.where(r < self.hard_core, np.inf, out)
        return out

    def of_squared(self, r2: np.ndarray) -> np.ndarray:
        """V at the distances sqrt(r2), elementwise; r2 (a float array the
        caller owns) may be overwritten."""
        return self(np.sqrt(r2, out=r2))

    def check_integrability(self) -> float:
        """integral of |V(r)| r^(d-1) from the hard core out must be finite,
        with at most TAIL_TOL of it beyond the range; returns the integral."""
        inside, beyond = self._abs_integrals()
        total = inside + beyond
        if beyond > TAIL_TOL * total:
            raise ValueError(f"{beyond / total:.3g} of the integral of |V| r^(d-1) lies beyond "
                             f"the range {self.range:g} (at most {TAIL_TOL:g})")
        return total

    def _abs_integrals(self) -> tuple:
        """The integral of |V(r)| r^(d-1) from the hard core to the range and
        from the range out, by quadrature; refuses one that does not converge."""
        from scipy import integrate

        f = lambda r: abs(float(self.v_of_r(r))) * r ** (self.d - 1)
        lo = max(self.hard_core, 1e-12)
        cut = max(self.range, lo)
        parts = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            for a, b in ((lo, cut), (cut, np.inf)):
                try:
                    val, err = integrate.quad(f, a, b, limit=400)
                except integrate.IntegrationWarning as exc:
                    raise ValueError(f"tail integral of |V| r^(d-1) did not converge: {exc}")
                if not np.isfinite(val) or (err > 1e-4 * max(abs(val), 1.0) and err > 1e-6):
                    raise ValueError(f"tail integral of |V| r^(d-1) did not converge: {val} +- {err}")
                parts.append(val)
        return tuple(parts)

    def check_stability(self):
        """Property test of sum_{i<j} V(x_i - x_j) >= -B n on 200 random sets
        of 2 to 8 points, drawn from a fixed seed."""
        rng = generator(1234)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            scale = float(rng.uniform(0.5, 4.0))
            pts = rng.uniform(0, scale, size=(n, self.d))
            r = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
            iu = np.triu_indices(n, k=1)
            vals = self(r[iu])
            if np.any(np.isinf(vals)):
                continue  # a hard-core overlap carries zero Gibbs weight, not instability
            total = float(vals.sum())
            if total < -self.stability_B * n - 1e-9:
                raise ValueError(
                    f"stability violated: energy {total:.4f} < -B n = {-self.stability_B * n:.4f}"
                )


# The bits of +inf as a float64; +0.0 is all zero bits.
_INF_BITS = np.uint64(0x7FF0000000000000)


class _HardCore(PairPotential):
    """hard_core's kind: +inf inside the core, +0.0 outside, written over r2.

    Inside the core is r2 < t, with t the smallest double whose sqrt is at
    least the radius: sqrt is correctly rounded, hence monotone, so that is
    sqrt(r2) < radius for every r2 >= 0 (and false for nan and inf), with no
    square root taken.  The values are written as bit patterns, inside *
    _INF_BITS, with no branch on the data: np.where's per-element branch
    mispredicts on the scattered contacts of a gas and costs more than the
    rest of the pass."""

    @cached_property
    def core_r2(self) -> float:
        """The smallest double t with sqrt(t) >= hard_core."""
        t = self.hard_core * self.hard_core
        while np.sqrt(t) >= self.hard_core:
            t = np.nextafter(t, 0.0)
        while np.sqrt(t) < self.hard_core:
            t = np.nextafter(t, np.inf)
        return float(t)

    def _abs_integrals(self):
        return 0.0, 0.0  # V is zero outside the core

    def of_squared(self, r2):
        inside = r2 < self.core_r2
        return np.multiply(inside, _INF_BITS, out=r2.view(np.uint64)).view(np.float64)


@dataclass(frozen=True)
class _Bump:
    """The Gaussian bump amplitude * exp(-(r / width)^2)."""

    amplitude: float
    width: float

    def __call__(self, r):
        return self.amplitude * np.exp(-((np.asarray(r) / self.width) ** 2))


class _GaussianRepulsion(PairPotential):
    """gaussian_repulsion's kind: the bump's operations, in order, in place on r2."""

    def _abs_integrals(self):
        """(A w^d / 2) (Gamma(d/2) - Gamma(d/2, x)) and (A w^d / 2) Gamma(d/2, x),
        x = (range / w)^2: the substitution u = (r / w)^2 makes each integral an
        incomplete gamma function."""
        a, w = self.v_of_r.amplitude, self.v_of_r.width
        x = (self.range / w) ** 2
        # Gamma(s, x) from s = 1/2 or 1 up to d/2 by Gamma(s + 1, x) = s Gamma(s, x) + x^s e^-x
        s, upper = (0.5, math.sqrt(math.pi) * math.erfc(math.sqrt(x))) if self.d % 2 else (1.0, math.exp(-x))
        while s < self.d / 2:
            upper = s * upper + x**s * math.exp(-x)
            s += 1
        scale = a * w**self.d / 2
        return scale * (math.gamma(self.d / 2) - upper), scale * upper

    def of_squared(self, r2):
        r = np.sqrt(r2, out=r2)
        r /= self.v_of_r.width
        np.square(r, out=r)
        np.negative(r, out=r)
        np.exp(r, out=r)
        r *= self.v_of_r.amplitude
        return r


def hard_core(d: int, radius: float) -> PairPotential:
    """Pure hard core: +inf inside the radius, zero outside; stable with B = 0."""
    return _HardCore(
        v_of_r=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        d=d,
        range=radius,
        hard_core=radius,
    )


def gaussian_repulsion(d: int, amplitude: float, width: float = 1.0) -> PairPotential:
    """Positive Gaussian bump of range 6 widths: smooth, positive, hence stable with B = 0."""
    if amplitude <= 0:
        raise ValueError("amplitude must be positive for the repulsive bump")
    return _GaussianRepulsion(v_of_r=_Bump(amplitude, width), d=d, range=6 * width)
