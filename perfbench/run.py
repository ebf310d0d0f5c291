"""bosegas benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload gibbs-chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a bosegas checkout; the program is imported from
./src.  One single-threaded process acts as a single closed-loop caller: it
repeats the workload's fixed round of bosegas calls until --seconds have
passed (it starts no round it expects to overrun, and always runs at least
one).  Correctness gates and the workload's warm-up (the chains' burn-in)
run outside the timed region.

Output: a report of every metric by name and unit, then, as the last line,
one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end set of BENCHMARK.json, whose times
are scaled to a reference host speed (see workloads.calibrate) and printed
raw beside it; with
--trace 1 rounds alternate untraced and traced and the metrics are the
per-layer set.  The full record (and, traced, the spans) is written under
perfbench/out/.
"""

import os

THREAD_CAPS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_CAPS)  # before numpy loads its BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, layer_metrics, layer_unit  # noqa: E402

T_START = time.perf_counter()
SELF = Path(__file__).resolve()
HERE = SELF.parent
ROOT = HERE.parent
N_SETUP_PROBES = 5  # extra set-ups in child processes; setup_s is the median of 1 + these

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_program():
    """Import the checkout's bosegas from ./src, and nothing else."""
    if not (ROOT / "src" / "bosegas" / "__init__.py").is_file():
        sys.exit(f"error: no bosegas sources under {ROOT / 'src'}; run from a bosegas checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def setup_probes(args) -> list:
    """Set the workload up again in fresh interpreters; each reports its own
    (set-up time, calibration) pair."""
    out = []
    for _ in range(N_SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(SELF), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((probe["setup_s"], probe["cal_s"]))
    return out


def run_rounds(wl, st, inp0, seconds, tracer, workloads):
    """Closed loop of rounds on fresh inputs.  With a tracer, every odd round
    is a traced replay of the round before it."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        k = len(rounds) // 2 if tracer is not None else len(rounds)
        inp = inp0 if k == 0 else (rounds[-1]["inp"] if traced else wl.inputs(st, k))
        ops = workloads.Ops(cal=None if traced else workloads.calibrate())
        if traced:
            tracer.reset()
            tracer.install(callers=(workloads,))
        t = time.perf_counter()
        out = wl.run_round(st, inp, ops)
        span = time.perf_counter() - t
        # a round's time is the time of its bosegas calls (untraced rounds also
        # calibrate between calls)
        rec = {"wall": ops.busy_s, "cpu": ops.cpu_s, "scaled": ops.scaled_s, "span": span,
               "size": wl.round_size(inp, out), "ops": ops, "inp": inp, "out": out, "traced": traced}
        if traced:
            tracer.uninstall()
            rec["layers"] = traced_round_metrics(tracer, span)
            rec["trace_dump"] = tracer.dump()
        rounds.append(rec)
        elapsed = time.perf_counter() - t0
        typical = sorted(r["span"] for r in rounds)[len(rounds) // 2]
        need = 2 if tracer is not None else 1
        if len(rounds) >= need and elapsed + typical > seconds:
            return rounds


def traced_round_metrics(tracer, wall):
    m = layer_metrics(tracer)
    m["trace.coverage_frac"] = tracer.top_level_s / wall
    return m


def main(argv=None):
    args = parse_args(argv)
    workloads = load_program()
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    wl = workloads.WORKLOADS[args.workload]()
    st = wl.setup(args.seed)
    inp0 = wl.inputs(st, 0)
    setup_here = (time.perf_counter() - T_START, workloads.calibrate())
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_here[0], "cal_s": setup_here[1]}))
        return 0
    setup_samples = [setup_here] + setup_probes(args)

    failures = []  # (round index or "gate", op, message)
    attempted = 0
    gate_ops = workloads.Ops()
    for op, msg in wl.gate_round(st, inp0, gate_ops):
        failures.append(("gate", op, msg))
    inp0 = wl.warm_up(st, inp0, gate_ops)
    attempted += len(gate_ops.records)
    failures += [("gate", op, err) for op, _, err in gate_ops.records if err]

    tracer = Tracer() if args.trace else None
    rounds = run_rounds(wl, st, inp0, args.seconds, tracer, workloads)

    digests = []
    for i, r in enumerate(rounds):
        attempted += len(r["ops"].records)
        failures += [(i, op, err) for op, _, err in r["ops"].records if err]
        failures += [(i, op, msg) for op, msg in wl.check(st, r["out"])]
        digests.append(workloads.digest(wl.digest_values(r["out"])))
        if r["traced"] and digests[-1] != digests[-2]:
            failures.append((i, "determinism", f"traced replay digest {digests[-1]} != {digests[-2]}"))
    failed = len({(where, op) for where, op, _ in failures})

    plain = [r for r in rounds if not r["traced"]]
    e2e = {  # medians; times scaled to the reference host speed, rounds to a typical size
        "setup_s": statistics.median(t * workloads.CAL_REF_S / cal for t, cal in setup_samples),
        "wall_s": statistics.median(r["scaled"] / r["size"] for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {  # the same times as the host ran them
        "setup_raw_s": (statistics.median(t for t, _ in setup_samples), "s"),
        "wall_raw_s": (statistics.median(r["wall"] / r["size"] for r in plain), "s"),
        "cpu_raw_s": (statistics.median(r["cpu"] / r["size"] for r in plain), "s"),
        "host_slowdown": (sum(r["wall"] for r in plain) / sum(r["scaled"] for r in plain), "ratio"),
    }
    specific = wl.metrics(st, plain)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_caps": THREAD_CAPS,
        "rounds": len(rounds),
        "round_walls_s": [r["wall"] for r in rounds],
        "round_cpu_s": [r["cpu"] for r in rounds],
        "round_sizes": [r["size"] for r in rounds],
        "round_scaled_s": [r["scaled"] for r in rounds],
        "setup_samples_s": setup_samples,
        "attempted": attempted,
        "failed": failed,
        "failures": [list(map(str, f)) for f in failures],
        "digest": digests[0],
        "end_to_end": {**{k: [v, END_TO_END[k]] for k, v in e2e.items()},
                       "failed_ops_frac": [failed / attempted, "ratio"],
                       **{k: list(v) for k, v in raw.items()}},
        "workload_metrics": {k: list(v) for k, v in specific.items()},
    }
    if tracer is not None:
        record["per_layer"] = layer_summary(rounds)

    print_report(record)
    write_record(record, rounds)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in record["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_summary(rounds) -> dict:
    """Per-layer metrics: medians over traced rounds.  The overhead compares each
    traced round with the untraced round it replays."""
    traced = [r for r in rounds if r["traced"]]
    replayed = [r for r, nxt in zip(rounds, rounds[1:]) if nxt["traced"]]
    names = list(traced[0]["layers"])
    out = {n: [statistics.median([r["layers"][n] for r in traced]), layer_unit(n)] for n in names}
    overhead = sum(r["wall"] for r in traced) / sum(r["wall"] for r in replayed) - 1.0
    out["trace.overhead_frac"] = [overhead, "ratio"]
    return out


def print_report(rec):
    print(f"workload {rec['workload']}  seed {rec['seed']}  rounds {rec['rounds']}  "
          f"threads pinned to 1  digest {rec['digest']}  ({digest_status(rec)})")
    for section in ("end_to_end", "workload_metrics", "per_layer"):
        for name, (value, unit) in rec.get(section, {}).items():
            print(f"  {name:<48s} {value:>14.6g} {unit}")
    print(f"  attempted {rec['attempted']}  failed {rec['failed']}")
    for f in rec["failures"]:
        print(f"  FAILED [{f[0]}] {f[1]}: {f[2]}")


def digest_status(rec) -> str:
    """Compare with the digest recorded in baseline.json; a change is reported, never failed."""
    path = HERE / "baseline.json"
    if not path.is_file():
        return "no recorded digests"
    recorded = json.loads(path.read_text()).get("digests", {}).get(rec["workload"], {})
    seen = recorded.get(str(rec["seed"]))
    if seen is None:
        return "no recorded digest for this seed"
    return "matches the recorded digest" if seen == rec["digest"] else f"CHANGED from recorded {seen}"


def write_record(rec, rounds):
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}"
    (out_dir / f"{stem}.json").write_text(json.dumps(rec, indent=1, default=str))
    dumps = [r["trace_dump"] for r in rounds if r["traced"]]
    if dumps:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(dumps, default=str))


def run_all(args, names):
    """Every workload in its own process, one after the other."""
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(SELF), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=600,
        )
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
