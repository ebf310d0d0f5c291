"""Free functional Poisson measure over closed bridges.

The loop gas at activity z (= exp(-beta mu)) is a Poisson point process on
closed bridges: independently for each winding j, the loop count is Poisson
with mean nu_j = (z^j / j) M_j(box) where M_j is the diagonal bridge mass, base
points follow the diagonal-kernel density, and path interiors are conditional
Brownian bridges.  The winding sum converges for z < 1 and is truncated
adaptively with a 1e-10 tail bound.

Dirichlet sampling draws free bridges and accepts them with the per-segment
continuum survival probability, which defines the discrete absorbing-wall
model; loop counts use the exact continuum masses so the count-level
observables stay closed-form.

A batch of samples is drawn winding by winding, one normal draw per winding,
and returned as one packed LoopBatch (loops.py): sample-major, each sample's
loops in increasing winding, with per-sample loop offsets.  The pairings of
a batch (config_pairings) read its arrays directly, so no configuration is
built per sample.  Bridge maps of up to 256 intervals are cached in
loops.py, which covers every winding the identity checks reach.

A test function with a declared support [0, t_max] reads only the knots
with t <= t_max.  Where a periodic path serves nothing else, its caller fills
only that prefix (`_fill_loop_paths(..., knots=k)`, see `_live_knots`); every
normal is still drawn, so the generator stream does not change, and
time_integrals takes the full knot count so the trapezoid weights are those
of the whole path.  Dirichlet paths are always filled whole: the survival
test reads every knot.
"""

import numpy as np

from ..diagnostics import stratified_mean
from ..errors import ActivityError, TruncationError
from ..rng import derive_seed, generator
from .energy import _trapezoid_weights
from .loops import (
    LoopBatch,
    LoopConfiguration,
    as_batch,
    draw_winding_images,
    fill_bridges,
    segment_survival_log,
)
from .regions import PERIODIC, BoxRegion, diagonal_mass, kernel

J_MAX_CAP = 400
TAIL_TOL = 1e-10


def winding_masses(z: float, beta: float, region: BoxRegion, j_max: int | None = None):
    """Poisson means nu_j = (z^j / j) M_j(box) with the adaptive winding cutoff.

    Without j_max the sum stops once the tail bound drops below TAIL_TOL, and
    raises TruncationError if that takes more than J_MAX_CAP windings.
    """
    if not (0 <= z < 1):
        raise ActivityError(f"activity z = {z} outside [0, 1): winding sum diverges")
    if z == 0:
        return np.zeros(1)[1:], 1
    nus = []
    j = 1
    mass_sup = 0.0
    while True:
        m = diagonal_mass(region, j * beta)
        mass_sup = max(mass_sup, m, 1.0)  # periodic masses tend to 1 from either side
        nus.append(z**j / j * m)
        # geometric bound on the dropped tail: sum_{k>j} z^k M_k / k
        tail = mass_sup * z ** (j + 1) / ((j + 1) * (1 - z))
        if j_max is not None and j >= j_max:
            break
        if j_max is None and tail < TAIL_TOL:
            break
        if j_max is None and j >= J_MAX_CAP:
            raise TruncationError(
                f"winding cutoff reached the cap J_MAX_CAP = {J_MAX_CAP} with tail bound "
                f"{tail:.3g} >= {TAIL_TOL:g} (z={z}, beta={beta}, d={region.d}, L={region.L})"
            )
        j += 1
    return np.array(nus), j


def free_density(z: float, beta: float, region: BoxRegion, j_max: int | None = None) -> float:
    """Particle density sum_j j nu_j / |box| of the free loop gas."""
    nus, _ = winding_masses(z, beta, region, j_max)
    j = np.arange(1, nus.size + 1)
    return float((j * nus).sum() / region.volume)


def free_log_partition(z: float, beta: float, region: BoxRegion, j_max: int | None = None) -> float:
    """log Z of the free loop gas: the Poisson identity log Z = sum_j nu_j."""
    nus, _ = winding_masses(z, beta, region, j_max)
    return float(nus.sum())


def _sample_bases(count: int, j: int, beta: float, region: BoxRegion, rng) -> np.ndarray:
    """Base points from the diagonal-kernel density (uniform for periodic)."""
    if count == 0:
        return np.zeros((0, region.d))
    if region.boundary == PERIODIC:
        return rng.uniform(0, region.L, size=(count, region.d))
    # rejection from uniform against the diagonal Dirichlet kernel
    t = j * beta
    xs = np.linspace(region.L * 1e-4, region.L * (1 - 1e-4), 512)
    probe = np.zeros((512, region.d))
    out = np.empty((count, region.d))
    # per-coordinate factorized density: reject coordinate-wise
    from .regions import dirichlet_kernel_1d

    g = dirichlet_kernel_1d(xs, xs, region.L, t)
    gmax = g.max() * 1.0000001
    for k in range(region.d):
        need = count
        got = []
        while need > 0:
            cand = rng.uniform(0, region.L, size=max(2 * need, 64))
            acc = rng.uniform(0, gmax, size=cand.size) < dirichlet_kernel_1d(
                cand, cand, region.L, t
            )
            got.append(cand[acc])
            need = count - sum(len(gg) for gg in got)
        out[:, k] = np.concatenate(got)[:count]
    return out


def _fill_loop_paths(bases: np.ndarray, j: int, beta: float, region: BoxRegion, rng, knots: int | None = None):
    """Paths for a batch of j-loops; returns (paths, images) with survival applied
    for Dirichlet walls (resampling rejected paths).

    With `knots` given, periodic paths hold only their first `knots` knots
    (the generator advances as for whole paths); Dirichlet paths stay whole.
    """
    count = bases.shape[0]
    n_int = j * region.n_slices
    dtau = beta / region.n_slices
    if region.boundary == PERIODIC:
        images = draw_winding_images(count, j, beta, region, rng)
        ends = bases + images * region.L
        paths = fill_bridges(bases, ends, n_int, dtau, rng, knots)
        return paths, images
    images = np.zeros((count, region.d), dtype=int)
    paths = np.empty((count, n_int + 1, region.d))
    todo = np.arange(count)
    while todo.size:
        cand = fill_bridges(bases[todo], bases[todo], n_int, dtau, rng)
        logs = segment_survival_log(cand, region.L, dtau)
        acc = np.log(rng.uniform(size=todo.size)) < logs
        paths[todo[acc]] = cand[acc]
        todo = todo[~acc]
    return paths, images


def sector_bridges(nus, n_mc: int, beta: float, region: BoxRegion, rng, fs=None):
    """Bridge samples of each winding sector: for every j with nu_j >= 1e-14
    (a lighter sector is dropped), yields (nu_j, paths, n_knots) with n_mc
    j-loops drawn by _sample_bases and _fill_loop_paths.  Given test
    functions fs, periodic paths hold only the knots fs read (_live_knots);
    n_knots is the whole path's knot count, which time_integrals needs for
    its weights."""
    for j, nu in enumerate(nus, start=1):
        if nu < 1e-14:
            continue
        n_knots = j * region.n_slices + 1
        knots = None if fs is None else _live_knots(fs, n_knots, beta / region.n_slices)
        bases = _sample_bases(n_mc, j, beta, region, rng)
        yield nu, _fill_loop_paths(bases, j, beta, region, rng, knots)[0], n_knots


def sample_free_poisson(
    z: float,
    beta: float,
    region: BoxRegion,
    rng_seed: int,
    j_max: int | None = None,
) -> LoopConfiguration:
    """One draw of the free loop-gas configuration."""
    return sample_free_poisson_batch(1, z, beta, region, rng_seed, j_max)[0]


def sample_free_poisson_batch(
    n_configs: int,
    z: float,
    beta: float,
    region: BoxRegion,
    rng_seed: int,
    j_max: int | None = None,
) -> LoopBatch:
    """Batch of independent configurations as one LoopBatch.  Loops are
    generated vectorized per winding, then scattered into sample-major order,
    each sample's loops in increasing winding."""
    nus, _ = winding_masses(z, beta, region, j_max)
    rng = generator(rng_seed)
    counts = np.zeros((n_configs, nus.size), dtype=int)  # loops per sample and winding
    blocks = []  # (j, paths, images) of each winding that has loops, rows in sample order
    for j in range(1, nus.size + 1):
        counts[:, j - 1] = rng.poisson(nus[j - 1], size=n_configs)
        total = int(counts[:, j - 1].sum())
        if total == 0:
            continue
        bases = _sample_bases(total, j, beta, region, rng)
        blocks.append((j, *_fill_loop_paths(bases, j, beta, region, rng)))
    windings = np.repeat(np.tile(np.arange(1, nus.size + 1), n_configs), counts.ravel())
    offsets = np.concatenate([[0], np.cumsum(windings * region.n_slices + 1)])
    knots = np.empty((offsets[-1], region.d))
    images = np.empty((windings.size, region.d), dtype=int)
    for j, paths, imgs in blocks:
        rows = np.flatnonzero(windings == j)
        knots[offsets[rows, None] + np.arange(paths.shape[1])] = paths
        images[rows] = imgs
    return LoopBatch(
        knots=knots,
        offsets=offsets,
        windings=windings,
        images=images,
        loop_starts=np.concatenate([[0], np.cumsum(counts.sum(axis=1))]),
    )


# Position floats one chunk of time_integrals may hold (2 MB).
_CHUNK_FLOATS = 1 << 18


def _live_knots(fs, n_knots: int, dtau: float) -> int:
    """How many leading knots of a path of n_knots the test functions fs read:
    those with t <= t_max of the latest-ending one (all of them for a test
    function without a declared support)."""
    ts = dtau * np.arange(n_knots)
    return max(int(np.searchsorted(ts, getattr(f, "t_max", np.inf), side="right")) for f in fs)


def time_integrals(paths: np.ndarray, f, beta: float, region: BoxRegion, n_knots: int | None = None) -> np.ndarray:
    """Trapezoid integral of f(tau, omega(tau)) over [0, K dtau] along each
    unwrapped path of a block (..., K + 1, d); returns shape (...).

    f is called on knot times and wrapped positions (rows, knots, d) and must
    broadcast over the leading axes.  Rows come in chunks, so the temporaries
    stay bounded whatever the block size, and a test function with a declared
    time support [0, t_max] is evaluated only at the knots inside it.  The
    paths may be prefixes of paths of n_knots knots that hold every knot f
    reads; the integral is then that of the whole paths, bit for bit.
    """
    paths = np.asarray(paths, dtype=float)
    given, d = paths.shape[-2:]
    n_knots = given if n_knots is None else n_knots
    flat = paths.reshape(-1, given, d)
    dtau = beta / region.n_slices
    live = _live_knots([f], n_knots, dtau)
    if live > given:
        raise ValueError(f"paths hold {given} knots, but f reads {live} of {n_knots}")
    ts, w = dtau * np.arange(live), _trapezoid_weights(n_knots, dtau)[:live]
    out = np.empty(flat.shape[0])
    rows = max(1, _CHUNK_FLOATS // (max(live, 1) * d))
    for a in range(0, flat.shape[0], rows):
        xs = wrap_positions(flat[a : a + rows, :live], region)
        vals = np.broadcast_to(f(ts, xs), xs.shape[:-1])
        out[a : a + rows] = (vals * w).sum(axis=-1)
    return out.reshape(paths.shape[:-2])


def loop_integrals(config: LoopConfiguration | LoopBatch, fs, beta: float, region: BoxRegion) -> np.ndarray:
    """(n_loops, len(fs)) time integrals I_f(w) of each test function along
    each loop of a configuration or a batch; the loops of one winding go
    through one time_integrals call."""
    out = np.empty((config.windings.size, len(fs)))
    lengths = np.diff(config.offsets)
    for n_knots in np.unique(lengths):
        loops = np.flatnonzero(lengths == n_knots)
        paths = config.knots[config.offsets[loops, None] + np.arange(n_knots)]
        for k, f in enumerate(fs):
            out[loops, k] = time_integrals(paths, f, beta, region)
    return out


def config_pairings(configs, fs, beta: float, region: BoxRegion) -> tuple:
    """Pairings of a batch of configurations (a LoopBatch or a list), every
    loop integrated once: (per-loop integrals (n_loops, len(fs)) of all loops
    in order, each loop's configuration index (n_loops,), totals (phi, f)
    (len(configs), len(fs)))."""
    batch = as_batch(configs)
    per_loop = loop_integrals(batch, fs, beta, region)
    owner = batch.owner
    totals = np.zeros((len(batch), len(fs)))
    np.add.at(totals, owner, per_loop)
    return per_loop, owner, totals


def pairing(config: LoopConfiguration, f, beta: float, region: BoxRegion) -> float:
    """(phi, f) = sum_loops integral_0^{j beta} f(tau, omega(tau)) dtau (trapezoid)."""
    return float(loop_integrals(config, [f], beta, region).sum())


def loop_time_integral(path: np.ndarray, f, beta: float, region: BoxRegion) -> float:
    """Trapezoid integral of f along one unwrapped path."""
    return float(time_integrals(path, f, beta, region))


def wrap_positions(path: np.ndarray, region: BoxRegion) -> np.ndarray:
    from .regions import wrap

    return wrap(path, region.L) if region.boundary == PERIODIC else path


def characteristic_functional(
    z: float,
    beta: float,
    region: BoxRegion,
    f,
    n_mc: int,
    seed: int = 0,
    j_max: int | None = None,
) -> dict:
    """The generating functional of the free measure, two independent ways.

    Route 'formula': exp sum_j nu_j E_bridge[exp(i I_f) - 1] with the bridge
    expectation estimated by Monte Carlo over per-winding loops.  Route
    'empirical': mean of exp(i (phi, f)) over sampled configurations.  The two
    agree within errors when the sampler matches the intensity.
    """
    nus, jm = winding_masses(z, beta, region, j_max)
    rng_formula = generator(derive_seed(seed, "cf-formula"))
    log_gamma, log_err = stratified_mean(
        (nu, np.exp(1j * time_integrals(paths, f, beta, region, n_knots)) - 1.0)
        for nu, paths, n_knots in sector_bridges(nus, n_mc, beta, region, rng_formula)
    )
    formula = np.exp(log_gamma)
    formula_err = abs(formula) * log_err

    configs = sample_free_poisson_batch(
        n_mc, z, beta, region, derive_seed(seed, "cf-empirical"), j_max
    )
    phases = np.exp(1j * config_pairings(configs, [f], beta, region)[2][:, 0])
    empirical, emp_err = stratified_mean([(1.0, phases)])
    return {
        "formula": complex(formula),
        "formula_err": float(formula_err),
        "empirical": complex(empirical),
        "empirical_err": float(emp_err),
        "j_max": jm,
    }


def free_rdm(z: float, beta: float, region: BoxRegion, x, y, j_max: int | None = None):
    """Closed-form noninteracting one-particle kernel sum_j z^j p_{j beta}(x, y).

    x and y are points (d,) or arrays of points (..., d) that broadcast over
    their leading axes; a single pair gives a float.
    """
    _, jm = winding_masses(z, beta, region, j_max)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = 0.0
    for j in range(1, jm + 1):
        total = total + z**j * kernel(x, y, region, j * beta)
    shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    return float(total[0]) if shape == () else total.reshape(shape)
