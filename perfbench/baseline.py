"""Provenance and baseline record: writes perfbench/baseline.json.

    python3 perfbench/baseline.py

Measures the ROADMAP item-1 baselines on the machine it runs on, beside
the figures the ROADMAP quotes:
  - Gibbs ms/step (d=3, z=0.6, gauss:0.5,0.5, n_slices=8) at L=6 and L=12,
    with the mean particle number over the timed steps;
  - the share of chain time spent inside interaction_energy at L=12, from
    the benchmark's own spans;
  - seconds per integration-by-parts check (criterion 8's region, d=1,
    n_mc=2500) for the free gas and with a hard core.
It also records the machine (CPU model, nproc, cache sizes, read-only from
/proc and /sys), the Python/numpy/scipy versions, the thread caps, the git
commit, and the determinism digest of every perfbench/out/*-trace0.json
record present (so later runs can report a changed digest) with the median
and quartile spread of their end-to-end metrics.  Run it after the benchmark runs whose digests should be kept.
"""

import os

os.environ.update({k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")})

import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from bosegas.loopgas import (  # noqa: E402
    BoxRegion,
    GibbsChain,
    LoopTestFunction,
    Pairing,
    gaussian_repulsion,
    hard_core,
    integration_by_parts_check,
)
from tracer import Tracer  # noqa: E402

TOLERANCE = 0.25  # a baseline counts as reproduced within this relative distance


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches_cpu0": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {k: os.environ[k] for k in sorted(os.environ) if k.endswith("_THREADS")},
        "git_commit": commit,
    }


def chain_ms_per_step(L: float, seed: int, steps: int = 2000) -> tuple:
    """(ms per step, mean N over the timed steps, the chain) after 20 burn-in sweeps."""
    chain = GibbsChain(0.6, 1.0, BoxRegion(d=3, L=L, n_slices=8), gaussian_repulsion(3, 0.5, 0.5), seed)
    for _ in range(20):
        chain.sweep()
    n_total = 0
    t = time.perf_counter()
    for _ in range(steps):
        chain.step()
        n_total += chain.config.particle_number
    return 1e3 * (time.perf_counter() - t) / steps, n_total / steps, chain


def interaction_energy_share(chain, steps: int = 600) -> float:
    """Inclusive interaction_energy time over the traced steps' time."""
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(steps):
            chain.step()
    finally:
        tracer.uninstall()
    total = sum(dur for (name, parent), (_, dur, _) in tracer.agg.items()
                if name == "loopgas.gibbs.step" and parent is None)
    inner = sum(dur for (name, parent), (_, dur, _) in tracer.agg.items()
                if name == "loopgas.energy.interaction_energy" and parent != name)
    return inner / total


def ibp_seconds(V, z) -> float:
    region = BoxRegion(d=1, L=5.0, n_slices=8)
    f = LoopTestFunction(fn=lambda ts, xs: np.cos(2 * np.pi * xs[..., 0] / 5.0) + 0.5, t_max=1.0)
    g1 = LoopTestFunction(fn=lambda ts, xs: np.sin(2 * np.pi * xs[..., 0] / 5.0), t_max=2.0)
    g2 = LoopTestFunction(fn=lambda ts, xs: np.cos(4 * np.pi * xs[..., 0] / 5.0), t_max=2.0)
    t = time.perf_counter()
    integration_by_parts_check(z, 1.0, region, V, f, Pairing(g1), Pairing(g2), n_mc=2500, seed=1)
    return time.perf_counter() - t


def compare(name, quoted, measured, unit, note=""):
    rel = measured / quoted - 1.0
    verdict = "reproduced" if abs(rel) <= TOLERANCE else "not reproduced"
    return {"name": name, "roadmap": quoted, "measured": round(measured, 4), "unit": unit,
            "relative_difference": round(rel, 4), "verdict": f"{verdict} (tolerance {TOLERANCE:.0%})",
            "note": note}


def run_records() -> tuple:
    digests, e2e = {}, {}
    for path in sorted((HERE / "out").glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        digests.setdefault(rec["workload"], {})[str(rec["seed"])] = rec["digest"]
        for name, (value, unit) in rec["end_to_end"].items():
            e2e.setdefault(rec["workload"], {}).setdefault(name, []).append(value)
    summary = {w: {n: _spread(v) for n, v in m.items()} for w, m in e2e.items()}
    return digests, summary


def _spread(values) -> dict:
    """Median and quartile spread (q3 - q1) / median over the recorded runs."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "iqr_over_median": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main():
    ms6, n6, _ = chain_ms_per_step(6.0, 11)
    ms12, n12, chain12 = chain_ms_per_step(12.0, 12)
    share = interaction_energy_share(chain12)
    ibp_free = ibp_seconds(None, 0.4)
    ibp_hc = ibp_seconds(hard_core(1, 0.4), 0.2)
    digests, summary = run_records()
    record = {
        "machine": machine(),
        "roadmap_item1_baselines": [
            compare("gibbs_ms_per_step_L6", 0.44, ms6, "ms", f"mean N {n6:.1f} (ROADMAP: N~4)"),
            compare("gibbs_ms_per_step_L12", 2.6, ms12, "ms", f"mean N {n12:.1f} (ROADMAP: N~24)"),
            compare("interaction_energy_share_L12", 0.56, share, "fraction of step time",
                    "inclusive time of interaction_energy (the delete builder's full recompute)"),
            compare("ibp_check_s_free_n2500", 19.0, ibp_free, "s", "(Pairing, Pairing), z = 0.4"),
            compare("ibp_check_s_hardcore_n2500", 15.0, ibp_hc, "s",
                    "(Pairing, Pairing), hard core 0.4, z = 0.2"),
        ],
        "seeds": {
            "development": "1-10 were used to tune and prove the benchmark",
            "held_out": "1001-1010 are reserved for checking later performance claims",
        },
        "digests": digests,
        "end_to_end_medians": summary,
    }
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["roadmap_item1_baselines"], indent=1))


if __name__ == "__main__":
    main()
