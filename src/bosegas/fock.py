"""Brute-force traces on a truncated bosonic Fock space over finitely many modes.

Ground truth for small systems: the grand-canonical weight of an occupation
tuple (n_1..n_M) is exp(-beta [sum lam_k n_k + mu N + E_int(n)]) where the
gauge-invariant interaction enters only through its occupation-diagonal part

    E_int = Vhat(0) (N^2 - N) / (2|box|)
          + (1/(2|box|)) sum_{k != k'} Vhat(k - k') n_k n_k'.

Enumeration is exhaustive and lexicographic, and one pass (`_fock_sums`)
yields every sum the three traces need.  Its one caller, `_traces`, refuses
a cutoff that carries weight, and every trace is a view of it, so they all
share that refusal; `exact_traces` returns all three from one pass, while
each other view makes a pass of its own.  The state space is a product:
every head row (n_1..n_{M-1}) is enumerated, in blocks of whole runs of the
last head mode, and the last mode is an axis t = 0..n_max, so a block's
energies are

    E = A_h + B_t + C_h t,   C_h = 2 sum_{k in head} (Vhat(0) + Vhat(k, M)) n_k / (2|box|),

with A_h the head's free and head-head terms and B_t the tail's.  Of the
weights w = exp(-beta E) only the row sums r and the column sums c are kept:
<n_k> takes r against the head occupations and c against t, and the lowest
mode's histogram bins r by its occupation (or is c when that mode is the
last).  Z is the compensated sum (fsum) of one part per block.

A free gas has C = 0, so w[t, h] = a_h b_t: the tail vector b is built and
summed once per call, and a block is its head row a alone (r = a sum(b),
c = b sum(a), Z's part sum(a) sum(b)).  An interacting gas computes each
block's (t, h) weights, relative to the lowest energy met so far, so no sum
overflows for any mu; Z's part is the fsum of the block's column sums.  The
closed-form mode product, which the tests compare against, is never used.
No sum over rows goes through BLAS, so results are deterministic
bit-for-bit whatever the thread count.
"""

from dataclasses import dataclass
from math import exp, fsum, inf, isfinite, log

import numpy as np

from .errors import CondensationBoundaryError, ResourceBudgetError, TruncationError

STATE_BUDGET = 10_000_000
_CHUNK = 1 << 16
_LOG_MAX = float(np.log(np.finfo(float).max))
# weights (a free gas's head and tail factors) below exp(_LOG_TINY) of the
# largest one are set to zero: they cannot move Z, and exp leaves numpy's
# vector path near the underflow threshold
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
        # exactly: the kernel reads the head-tail pairs from the last column
        # only, so a nearly symmetric vhat and its transpose give different traces
        if not np.array_equal(v, v.T):
            raise ValueError("vhat must be symmetric (central potential)")
        if not np.all(np.diag(v) == v[0, 0]):
            raise ValueError("diagonal of vhat must be the constant Vhat(0)")
        if self.volume <= 0:
            raise ValueError("volume must be positive")

    @property
    def vhat0(self) -> float:
        return float(self.vhat[0, 0])


def _head_blocks(n_modes: int, base: int, rows: int):
    """The head rows (modes 0..M-2) in lexicographic blocks of about `rows` rows.

    Yields (occ, cut): occ is the block's (M-1, rows) integer occupations, cut
    marks the rows with some head mode at the cutoff.  A block is whole runs
    of the last head mode, which is a fixed tile of 0..n_max; only the run
    index is decoded into the leading digits, once per run.
    """
    if n_modes == 1:  # no head modes: the empty head, once
        yield np.zeros((0, 1), dtype=np.intp), np.zeros(1, dtype=bool)
        return
    n_lead, n_max = n_modes - 2, base - 1
    powers = base ** np.arange(n_lead - 1, -1, -1, dtype=np.intp)
    runs = max(1, rows // base)
    tile = np.arange(base, dtype=np.intp)
    for start in range(0, base**n_lead, runs):
        lead = (np.arange(start, min(start + runs, base**n_lead), dtype=np.intp)[:, None] // powers) % base
        occ = np.empty((n_modes - 1, len(lead), base), dtype=np.intp)
        occ[:-1] = lead.T[:, :, None]
        occ[-1] = tile
        cut = (lead == n_max).any(axis=1)[:, None] | (tile == n_max)
        yield occ.reshape(n_modes - 1, -1), cut.ravel()


def _cut_exp(x: np.ndarray) -> np.ndarray:
    """exp(x) in place, with 0 where x < _LOG_TINY."""
    keep = x >= _LOG_TINY
    np.maximum(x, _LOG_TINY, out=x)
    np.exp(x, out=x)
    x *= keep
    return x


def _fock_sums(
    fock: TruncatedFock,
    beta: float,
    mu: float,
    interaction: DiagonalInteraction | None,
):
    """One pass over every head row: the weight sums behind Z, <n_k> and P(n_0).

    Raises CondensationBoundaryError for a free gas with mu <= -min(energies),
    so every trace shares the domain of the spectral pressure, and ValueError
    for a vhat that is not M x M.

    Returns (Z, boundary, num, hist, shift).  Every weight is taken relative to
    the lowest energy met so far (a streaming log-sum-exp), so all four sums
    are exp(beta * shift) times their true values, with shift <= 0 the lowest
    energy; shift = 0 when the vacuum is the lowest state, as in every free
    gas.  Z is the sum of all weights, boundary that of the states with some
    occupation at the cutoff, num[k] the numerator of <n_k> and hist[m] the
    weight of n_k0 = m for the lowest mode k0.
    """
    if interaction is None and mu <= -float(np.min(fock.energies)):
        raise CondensationBoundaryError("condensation boundary crossed: mu <= -min(energies)")
    if beta <= 0:
        raise ValueError("beta must be positive")
    M, n_max = fock.n_modes, fock.n_max
    if interaction is not None and np.shape(interaction.vhat) != (M, M):
        rows, cols = np.shape(interaction.vhat)
        raise ValueError(f"vhat is {rows}x{cols} for M = {M} modes; it must be M x M")
    base = n_max + 1
    lam = np.asarray(fock.energies, dtype=float)
    k0 = int(np.argmin(lam))
    t = np.arange(base, dtype=float)
    # E = A_h + B_t + C_h t over head rows h (modes 0..M-2) and tail column t
    head_lam = (lam[:-1] + mu)[:, None]
    B = (lam[-1] + mu) * t
    z_parts, boundary = [], 0.0
    num, hist = np.zeros(M), np.zeros(base)
    shift = 0.0  # the vacuum's energy
    if interaction is None:
        # every lam_k + mu > 0, so the vacuum is the lowest state and no
        # factor exceeds 1; a block holds about _CHUNK head rows
        b = _cut_exp(-beta * B)
        sum_b = fsum(b.tolist())
        rows = _CHUNK
    else:
        v = np.asarray(interaction.vhat, dtype=float)
        v0, vol2 = interaction.vhat0, 2.0 * interaction.volume
        head_v = v[:-1, :-1] - v0 * np.eye(M - 1)  # off-diagonal head-head pairs
        head_tail = (2.0 * (v0 + v[:-1, -1]) / vol2)[:, None]
        xb = -beta * (B + v0 * (t**2 - t) / vol2)
        # a block holds about _CHUNK weights, in fixed tail-major (t, h)
        # buffers: fresh arrays of this size cost a page fault per use
        rows = max(1, _CHUNK // base)
        size = base * max(rows, base)
        x_buf, tc_buf = np.empty(size), np.empty(size)
        xb_rows = t_rows = np.empty((base, 0))
    for occ, cut in _head_blocks(M, base, rows):
        occf = occ.astype(float)
        A = (occf * head_lam).sum(axis=0)
        if interaction is None:
            a = _cut_exp(-beta * A)
            sum_a = float(a.sum())
            r, c, last = a * sum_b, b * sum_a, a * b[-1]
            z_parts.append(sum_a * sum_b)
        else:
            N = occf.sum(axis=0)
            A += (v0 * (N**2 - N) + ((head_v @ occf) * occf).sum(axis=0)) / vol2
            C = (occf * head_tail).sum(axis=0)
            # x = -beta (E - shift) = (-beta (A - shift) + xb) + (-beta C) t.  Each
            # head term is copied down the t rows and then combined in place
            # with xb and t spread to the block's shape: numpy combines a
            # broadcast operand at several times the cost of a contiguous one
            h = A.size
            if xb_rows.shape[1] != h:  # the first block, and a shorter last one
                xb_rows, t_rows = np.repeat(xb, h).reshape(base, h), np.repeat(t, h).reshape(base, h)
            x, tc = x_buf[: base * h].reshape(base, h), tc_buf[: base * h].reshape(base, h)
            np.copyto(x, -beta * (A - shift))
            x += xb_rows
            np.copyto(tc, -beta * C)
            tc *= t_rows
            x += tc
            x_max = float(x.max())
            if x_max > 0:  # a state below the running shift: it becomes the shift
                scale = exp(-x_max)
                z_parts = [z * scale for z in z_parts]
                boundary *= scale
                num *= scale
                hist *= scale
                shift -= x_max / beta
                x -= x_max
            w = _cut_exp(x)
            r, c, last = w.sum(axis=0), w.sum(axis=1), w[-1]
            z_parts.append(fsum(c.tolist()))
        # a head at the cutoff puts its whole row there, any other head only t = n_max
        boundary += float(np.where(cut, r, last).sum())
        num[:-1] += (occf * r).sum(axis=1)
        num[-1] += float((c * t).sum())
        hist += c if k0 == M - 1 else np.bincount(occ[k0], weights=r, minlength=base)
    return fsum(z_parts), boundary, num, hist, shift


def _traces(
    fock: TruncatedFock,
    beta: float,
    mu: float,
    interaction: DiagonalInteraction | None,
    tail_tol: float = 1e-12,
) -> tuple:
    """(Z, log Z, <n_k>, P(n_0 = m)) from one pass, refused when the cutoff bites.

    Raises ValueError for a vhat that is not M x M and CondensationBoundaryError
    (both from _fock_sums), and TruncationError when states with any occupation
    at the cutoff carry more than tail_tol of the total weight.  Z is inf when it
    exceeds the double range; log Z and the ratios (occupations, histogram)
    stay finite.
    """
    Z, boundary, num, hist, shift = _fock_sums(fock, beta, mu, interaction)
    if boundary > tail_tol * Z:
        raise TruncationError(
            f"boundary states carry relative weight {boundary / Z:.3e} > {tail_tol:.1e}; raise n_max"
        )
    occupations = num / Z
    log_z = log(Z) - beta * shift
    Z = Z * exp(-beta * shift) if log_z < _LOG_MAX else inf
    return Z, log_z, occupations, hist / hist.sum()


def exact_traces(
    fock: TruncatedFock,
    beta: float,
    mu: float,
    interaction: DiagonalInteraction | None = None,
    tail_tol: float = 1e-12,
) -> tuple:
    """(Z, <n_k>, P(n_0 = m)) from one enumeration.

    Raises CondensationBoundaryError for a free gas with mu <= -min(energies)
    (the same domain as the spectral pressure), TruncationError when states
    with any occupation at the cutoff carry more than tail_tol of the total
    weight (cutoff too small), and OverflowError when Z exceeds the double
    range, in that order.
    """
    Z, log_z, occupations, hist = _traces(fock, beta, mu, interaction, tail_tol)
    if not isfinite(Z):
        raise OverflowError(f"Z = exp({log_z:.6g}) exceeds the double range")
    return Z, occupations, hist


def exact_partition(fock, beta, mu, interaction=None) -> float:
    """Z as a compensated sum over all occupation tuples, with exact_traces' refusals."""
    return exact_traces(fock, beta, mu, interaction)[0]


def exact_occupations(fock, beta, mu, interaction=None) -> np.ndarray:
    """Gibbs averages <n_k>; sums to <N>.  Refused as exact_traces, but finite where Z overflows."""
    return _traces(fock, beta, mu, interaction)[2]


def exact_zero_mode_statistics(fock, beta, mu, interaction=None) -> np.ndarray:
    """P(n_0 = m), m = 0..n_max, for the lowest-energy mode; refused as exact_occupations."""
    return _traces(fock, beta, mu, interaction)[3]


def mean_particle_number(fock, beta, mu, interaction=None) -> float:
    return float(exact_occupations(fock, beta, mu, interaction).sum())


def solve_mu_for_number(
    fock: TruncatedFock,
    beta: float,
    n_target: float,
    interaction: DiagonalInteraction | None = None,
    bracket=(-50.0, 50.0),
) -> float:
    """mu with <N>(mu) = n_target under the exact trace (for fixed-density studies).

    The root is sought on the truncated model as it stands, cutoff weight and
    all, and then refused (TruncationError) if its cutoff states carry more
    than the default tail_tol.  For a free gas the bracket starts no lower
    than just above the condensation boundary, at -min(energies) + 1e-14 or
    the next double above -min(energies), as in spectral.solve_mu; a target
    above the <N> that the truncated free gas holds there raises
    CondensationBoundaryError, and a bracket whose ends hold <N> on one side
    of n_target raises ValueError.
    """
    from scipy.optimize import brentq

    number = lambda mu: float(_traces(fock, beta, mu, interaction, inf)[2].sum())
    lo, hi = bracket
    pole = -float(np.min(fock.energies))
    edge = max(pole + 1e-14, float(np.nextafter(pole, inf)))
    clamped = interaction is None and lo < edge
    if clamped:
        lo = edge
    n_lo, n_hi = number(lo), number(hi)
    if clamped and n_lo < n_target:
        raise CondensationBoundaryError(
            f"n_target = {n_target} exceeds <N> = {n_lo:.6g} at the condensation boundary"
        )
    if (n_lo - n_target) * (n_hi - n_target) > 0:
        raise ValueError(
            f"the bracket mu in [{lo:.6g}, {hi:.6g}] does not hold n_target = {n_target}: "
            f"<N> = {n_lo:.6g} at mu = {lo:.6g} and {n_hi:.6g} at mu = {hi:.6g}"
        )
    mu = float(brentq(lambda mu: number(mu) - n_target, lo, hi, rtol=1e-12))
    _traces(fock, beta, mu, interaction)  # refuses a root heavy at the cutoff
    return mu
