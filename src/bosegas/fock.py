"""Brute-force traces on a truncated bosonic Fock space over finitely many modes.

Ground truth for small systems: the grand-canonical weight of an occupation
tuple (n_1..n_M) is exp(-beta [sum lam_k n_k + mu N + E_int(n)]) where the
gauge-invariant interaction enters only through its occupation-diagonal part

    E_int = Vhat(0) (N^2 - N) / (2|box|)
          + (1/(2|box|)) sum_{k != k'} Vhat(k - k') n_k n_k'.

Enumeration is exhaustive and lexicographic, and one pass (`_fock_sums`)
yields every sum the three traces need.  The state space is a product: the
head rows (n_1..n_{M-1}) are enumerated in blocks of about _CHUNK states and
the last mode is a broadcast axis t = 0..n_max, so a block's energies are

    E = A_h + B_t + C_h t,   C_h = 2 sum_{k in head} (Vhat(0) + Vhat(k, M)) n_k / (2|box|),

with A_h the head's free and head-head terms and B_t the tail's.  Of the
weights w = exp(-beta E) only the row sums r and the column sums c are kept:
Z is the compensated sum (fsum) of r, <n_k> takes r against the head
occupations and c against t, and the lowest mode's histogram bins r by its
occupation (or is c when that mode is the last).  Weights are taken relative
to the lowest energy met so far, so no sum overflows for any mu.  Every
state's weight is computed; the closed-form mode product, which the tests
compare against, is never used.  Results are deterministic bit-for-bit.
"""

from dataclasses import dataclass
from math import exp, fsum, isfinite, log

import numpy as np

from .errors import CondensationBoundaryError, ResourceBudgetError, TruncationError

STATE_BUDGET = 10_000_000
_CHUNK = 1 << 16
_LOG_MAX = float(np.log(np.finfo(float).max))
# weights below exp(_LOG_TINY) of the largest one are set to zero: they cannot
# move Z, and exp leaves numpy's vector path near the underflow threshold
_LOG_TINY = -700.0


@dataclass(frozen=True)
class TruncatedFock:
    """Mode energies and a per-mode occupation cutoff."""

    energies: np.ndarray
    n_max: int

    def __post_init__(self):
        ev = np.asarray(self.energies, dtype=float)
        if ev.ndim != 1 or ev.size == 0 or not np.all(np.isfinite(ev)):
            raise ValueError("energies must be a finite 1-d list")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.state_count > STATE_BUDGET:
            raise ResourceBudgetError(
                f"(n_max+1)^M = {self.state_count} states exceed the budget {STATE_BUDGET}"
            )

    @property
    def n_modes(self) -> int:
        return len(self.energies)

    @property
    def state_count(self) -> int:
        return (self.n_max + 1) ** self.n_modes


@dataclass(frozen=True)
class DiagonalInteraction:
    """Fourier coefficients Vhat(k - k') on the mode grid, plus the box volume.

    vhat is the symmetric real (M, M) matrix of coefficients; its constant
    diagonal is Vhat(0).
    """

    vhat: np.ndarray
    volume: float

    def __post_init__(self):
        v = np.asarray(self.vhat, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("vhat must be a square matrix")
        if not np.allclose(v, v.T):
            raise ValueError("vhat must be symmetric (central potential)")
        if not np.allclose(np.diag(v), v[0, 0]):
            raise ValueError("diagonal of vhat must be the constant Vhat(0)")
        if self.volume <= 0:
            raise ValueError("volume must be positive")

    @property
    def vhat0(self) -> float:
        return float(self.vhat[0, 0])


def _fock_sums(
    fock: TruncatedFock,
    beta: float,
    mu: float,
    interaction: DiagonalInteraction | None,
):
    """One pass over every state: the weight sums behind Z, <n_k> and P(n_0).

    Returns (Z, boundary, num, hist, shift).  Every weight is taken relative to
    the lowest energy met so far (a streaming log-sum-exp), so all four sums
    are exp(beta * shift) times their true values, with shift <= 0 the lowest
    energy; shift = 0 when the vacuum is the lowest state.  Z is the
    compensated sum of all weights, boundary that of the states with some
    occupation at the cutoff, num[k] the numerator of <n_k> and hist[m] the
    weight of n_k0 = m for the lowest mode k0.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    M, n_max = fock.n_modes, fock.n_max
    base = n_max + 1
    lam = np.asarray(fock.energies, dtype=float)
    k0 = int(np.argmin(lam))
    t = np.arange(base, dtype=float)
    # E = A_h + B_t + C_h t over head rows h (modes 0..M-2) and tail column t
    head_lam = lam[:-1] + mu
    B = (lam[-1] + mu) * t
    if interaction is not None:
        v, v0, vol2 = interaction.vhat, interaction.vhat0, 2.0 * interaction.volume
        head_v = v[:-1, :-1] - v0 * np.eye(M - 1)  # off-diagonal head-head pairs
        head_tail = 2.0 * (v0 + v[:-1, -1]) / vol2
        B = B + v0 * (t**2 - t) / vol2
    powers = base ** np.arange(M - 2, -1, -1, dtype=np.int64)
    n_head = base ** (M - 1)
    rows = max(1, _CHUNK // base)
    z_parts, boundary = [], 0.0
    num, hist = np.zeros(M), np.zeros(base)
    shift = 0.0  # the vacuum's energy
    # fixed block buffers: fresh arrays of this size cost a page fault per use
    E_buf, w_buf = np.empty((rows, base)), np.empty((rows, base))
    tiny_buf = np.empty((rows, base), dtype=bool)
    for start in range(0, n_head, rows):
        idx = np.arange(start, min(start + rows, n_head), dtype=np.int64)
        occ = (idx[:, None] // powers) % base
        occf = occ.astype(float)
        E, w, tiny = E_buf[: idx.size], w_buf[: idx.size], tiny_buf[: idx.size]
        A = occf @ head_lam
        if interaction is None:
            np.add(A[:, None], B, out=E)
        else:
            N = occf.sum(axis=1)
            A = A + (v0 * (N**2 - N) + ((occf @ head_v) * occf).sum(axis=1)) / vol2
            np.add(A[:, None], B, out=E)
            E += np.multiply((occf @ head_tail)[:, None], t, out=w)
        e_min = float(E.min())
        if e_min < shift:
            scale = exp(-beta * (shift - e_min))
            z_parts = [z * scale for z in z_parts]
            boundary *= scale
            num *= scale
            hist *= scale
            shift = e_min
        np.subtract(E, shift, out=w)
        w *= -beta
        np.less(w, _LOG_TINY, out=tiny)
        np.maximum(w, _LOG_TINY, out=w)
        np.exp(w, out=w)
        np.putmask(w, tiny, 0.0)
        r, c = w.sum(axis=1), w.sum(axis=0)
        z_parts.append(fsum(r))
        at_cut = (occ == n_max).any(axis=1)
        boundary += r[at_cut].sum() + w[~at_cut, -1].sum()
        num[:-1] += r @ occf
        num[-1] += c @ t
        hist += c if k0 == M - 1 else np.bincount(occ[:, k0], weights=r, minlength=base)
    return fsum(z_parts), boundary, num, hist, shift


def exact_partition(
    fock: TruncatedFock,
    beta: float,
    mu: float,
    interaction: DiagonalInteraction | None = None,
    tail_tol: float = 1e-12,
) -> float:
    """Z as a compensated sum over all occupation tuples.

    Raises CondensationBoundaryError for a free gas with mu <= -min(energies)
    (the same domain as the spectral pressure), OverflowError when Z exceeds
    the double range, and TruncationError when states with any occupation at
    the cutoff carry more than tail_tol of the total weight (cutoff too small).
    """
    if interaction is None and mu <= -float(np.min(fock.energies)):
        raise CondensationBoundaryError("condensation boundary crossed: mu <= -min(energies)")
    Z, boundary, _, _, shift = _fock_sums(fock, beta, mu, interaction)
    if boundary > tail_tol * Z:
        raise TruncationError(
            f"boundary states carry relative weight {boundary / Z:.3e} > {tail_tol:.1e}; raise n_max"
        )
    log_z = log(Z) - beta * shift
    if log_z < _LOG_MAX:
        Z *= exp(-beta * shift)
    if not (log_z < _LOG_MAX and isfinite(Z)):
        raise OverflowError(f"Z = exp({log_z:.6g}) exceeds the double range")
    return Z


def exact_occupations(
    fock: TruncatedFock,
    beta: float,
    mu: float,
    interaction: DiagonalInteraction | None = None,
) -> np.ndarray:
    """Gibbs averages <n_k> over the same enumeration; sums to <N>."""
    Z, _, num, _, _ = _fock_sums(fock, beta, mu, interaction)
    return num / Z


def exact_zero_mode_statistics(
    fock: TruncatedFock,
    beta: float,
    mu: float,
    interaction: DiagonalInteraction | None = None,
) -> np.ndarray:
    """Full histogram P(n_0 = m), m = 0..n_max, for the lowest-energy mode."""
    hist = _fock_sums(fock, beta, mu, interaction)[3]
    return hist / hist.sum()


def mean_particle_number(
    fock: TruncatedFock,
    beta: float,
    mu: float,
    interaction: DiagonalInteraction | None = None,
) -> float:
    return float(exact_occupations(fock, beta, mu, interaction).sum())


def solve_mu_for_number(
    fock: TruncatedFock,
    beta: float,
    n_target: float,
    interaction: DiagonalInteraction | None = None,
    bracket=(-50.0, 50.0),
) -> float:
    """mu with <N>(mu) = n_target under the exact trace (for fixed-density studies)."""
    from scipy.optimize import brentq

    f = lambda mu: mean_particle_number(fock, beta, mu, interaction) - n_target
    return float(brentq(f, bracket[0], bracket[1], rtol=1e-12))
