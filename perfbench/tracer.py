"""Spans around bosegas's public functions, installed from outside the program.

Each traced function is replaced by a wrapper in every bosegas module that
holds a reference to it (the loop-gas modules import by name, so patching the
defining module alone would miss most calls), and methods are replaced on
their class.  `install` and `uninstall` swap the wrappers in and out, so an
untraced round runs the unmodified program.

A span is (name, start, end, parent).  Spans of hot leaves, which run up to
10^5 times per round, are not stored one by one: they are aggregated per
(name, parent name) to bound memory.  Self time is a span's duration minus
the time covered by its wrapped children.
"""

import importlib
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


def _leg_pairs_pair(a, b, *args, **kwargs):
    return a.winding * b.winding


def _leg_pairs_intra(loop, *args, **kwargs):
    return loop.winding * (loop.winding - 1) // 2


def _rows(x0, *args, **kwargs):
    return x0.shape[0]


def _copy_bytes(config):
    return sum(lp.path.nbytes + lp.base.nbytes + lp.image.nbytes for lp in config.loops)


def _fock_states(fock, *args, **kwargs):
    return fock.state_count


def _fock_bytes(fock, *args, **kwargs):
    # the int64 occupation table the enumeration materialises, chunk by chunk
    return fock.state_count * fock.n_modes * 8


def _input_bytes(values, *args, **kwargs):
    return values.nbytes


# (metric prefix, module, attribute, hot, {counter suffix: f(args) -> number},
#  {counter suffix: f(result) -> number}); "Class.method" attributes are
# patched on the class.
TARGETS = [
    ("loopgas.energy.pair_energy", "bosegas.loopgas.energy", "pair_energy", True,
     {"loopgas.energy.leg_pairs": _leg_pairs_pair}, {}),
    ("loopgas.energy.intra_energy", "bosegas.loopgas.energy", "intra_energy", True,
     {"loopgas.energy.leg_pairs": _leg_pairs_intra}, {}),
    ("loopgas.energy.loop_in_config_energy", "bosegas.loopgas.energy", "loop_in_config_energy", True, {}, {}),
    ("loopgas.energy.interaction_energy", "bosegas.loopgas.energy", "interaction_energy", False, {}, {}),
    ("loopgas.gibbs.step", "bosegas.loopgas.gibbs", "GibbsChain.step", True, {}, {}),
    ("loopgas.loops.fill_bridges", "bosegas.loopgas.loops", "fill_bridges", True,
     {"loopgas.loops.fill_bridges.rows": _rows}, {}),
    ("loopgas.loops.LoopConfiguration.copy", "bosegas.loopgas.loops", "LoopConfiguration.copy", True,
     {"loopgas.loops.LoopConfiguration.copy.bytes": _copy_bytes}, {}),
    ("loopgas.free.loop_time_integral", "bosegas.loopgas.free", "loop_time_integral", True, {}, {}),
    ("loopgas.free.pairing", "bosegas.loopgas.free", "pairing", True, {}, {}),
    ("loopgas.free.winding_masses", "bosegas.loopgas.free", "winding_masses", False, {}, {}),
    ("loopgas.free.sample_free_poisson_batch", "bosegas.loopgas.free", "sample_free_poisson_batch", False, {},
     {"loopgas.free.sample_free_poisson_batch.loops": lambda cfgs: sum(c.loop_count for c in cfgs)}),
    ("loopgas.checks.integration_by_parts_check", "bosegas.loopgas.checks", "integration_by_parts_check",
     False, {}, {}),
    ("loopgas.checks.trace_identity_check", "bosegas.loopgas.checks", "trace_identity_check", False, {}, {}),
    ("loopgas.checks.mean_pairing", "bosegas.loopgas.checks", "mean_pairing", False, {}, {}),
    ("expansion.mayer_coefficient", "bosegas.expansion", "mayer_coefficient", False, {}, {}),
    ("expansion.convergence_radius", "bosegas.expansion", "convergence_radius", False, {}, {}),
    ("thermal.fields.sample_fields", "bosegas.thermal.fields", "sample_fields", False, {},
     {"thermal.fields.sample_fields.bytes": lambda phi: phi.nbytes}),
    ("thermal.fields.covariance", "bosegas.thermal.fields", "covariance", True, {}, {}),
    ("thermal.fields.pair_field", "bosegas.thermal.fields", "pair_field", True, {}, {}),
    ("thermal.perturb.perturbation_action_batch", "bosegas.thermal.perturb", "perturbation_action_batch",
     True, {"thermal.perturb.perturbation_action_batch.bytes": _input_bytes}, {}),
    ("thermal.perturb.mollify", "bosegas.thermal.perturb", "mollify", True, {}, {}),
    ("thermal.perturb.reweighted_state", "bosegas.thermal.perturb", "reweighted_state", False, {}, {}),
    ("thermal.mixing.renormalized_mixing", "bosegas.thermal.mixing", "renormalized_mixing", False, {}, {}),
    ("fock.exact_partition", "bosegas.fock", "exact_partition", False,
     {"fock.states": _fock_states, "fock.bytes": _fock_bytes}, {}),
    ("fock.exact_occupations", "bosegas.fock", "exact_occupations", False,
     {"fock.states": _fock_states, "fock.bytes": _fock_bytes}, {}),
    ("fock.exact_zero_mode_statistics", "bosegas.fock", "exact_zero_mode_statistics", False,
     {"fock.states": _fock_states, "fock.bytes": _fock_bytes}, {}),
    ("spectral.auto_torus_spectrum", "bosegas.spectral", "auto_torus_spectrum", False, {},
     {"spectral.modes": lambda spec: spec.eigenvalues.size}),
    ("spectral.critical_density", "bosegas.spectral", "critical_density", False, {}, {}),
    ("spectral.solve_mu", "bosegas.spectral", "solve_mu", False, {}, {}),
]

MOVES = ("insert", "delete", "shift", "redraw", "merge", "cut")


class Tracer:
    """Span recorder; one instance per benchmark run."""

    def __init__(self):
        self._stack = []  # frames: [name, start, child_seconds]
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.spans = []  # (name, start, end, parent name) of non-hot calls
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> [calls, seconds, self seconds]
        self.counters = defaultdict(float)
        self.top_level_s = 0.0

    # -- spans -----------------------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, _clock(), 0.0])

    def _exit(self, hot):
        name, start, child = self._stack.pop()
        end = _clock()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.top_level_s += dur
        entry = self.agg[(name, parent)]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child
        if not hot:
            self.spans.append((name, start, end, parent))

    def wrap(self, name, fn, hot, arg_counters, result_counters):
        def traced(*args, **kwargs):
            for key, count in arg_counters.items():
                self.counters[key] += count(*args, **kwargs)
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(hot)
            for key, count in result_counters.items():
                self.counters[key] += count(out)
            return out

        return traced

    def _wrap_move(self, move, propose):
        """A move's span covers its proposal and, when accepted, its builder."""
        name = f"loopgas.gibbs.{move}"

        def traced(chain):
            self._enter(name)
            try:
                prop = propose(chain)
            finally:
                self._exit(True)
            if prop.eligible:
                self.counters[f"{name}.attempts"] += 1
                build = prop.builder

                def traced_build():
                    self.counters[f"{name}.accepts"] += 1
                    self._enter(name)
                    try:
                        return build()
                    finally:
                        self._exit(True)

                prop.builder = traced_build
            return prop

        return traced

    # -- patching --------------------------------------------------------------

    def install(self, callers=()):
        """Patch bosegas and the given caller modules (which import by name too)."""
        from bosegas.loopgas.gibbs import GibbsChain

        if self._patches:
            return
        owners = {mod_name: importlib.import_module(mod_name) for _, mod_name, *_ in TARGETS}
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("bosegas") and m is not None]
        modules += list(callers)
        for name, mod_name, attr, hot, arg_counters, result_counters in TARGETS:
            owner = owners[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self.wrap(name, orig, hot, arg_counters, result_counters))
                continue
            orig = getattr(owner, attr)
            wrapper = self.wrap(name, orig, hot, arg_counters, result_counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapper)
        for move in MOVES:
            orig = GibbsChain.__dict__[f"propose_{move}"]
            self._patch(GibbsChain, f"propose_{move}", orig, self._wrap_move(move, orig))

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict:
        """name -> (calls, self seconds), summed over parents."""
        out = defaultdict(lambda: [0, 0.0])
        for (name, _parent), (calls, _dur, self_s) in self.agg.items():
            out[name][0] += calls
            out[name][1] += self_s
        return out

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "aggregated": [
                [name, parent, calls, dur, self_s]
                for (name, parent), (calls, dur, self_s) in sorted(self.agg.items(), key=lambda kv: str(kv[0]))
            ],
            "counters": dict(self.counters),
        }


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metric values of one traced round (units in LAYER_UNITS)."""
    tot = tracer.totals()
    c = tracer.counters
    m = {}

    def calls_self(prefix, calls=True):
        if calls:
            m[f"{prefix}.calls"] = tot[prefix][0]
        m[f"{prefix}.self_s"] = tot[prefix][1]

    for fn in ("pair_energy", "intra_energy", "loop_in_config_energy", "interaction_energy"):
        calls_self(f"loopgas.energy.{fn}")
    m["loopgas.energy.leg_pairs"] = c["loopgas.energy.leg_pairs"]
    for move in MOVES:
        prefix = f"loopgas.gibbs.{move}"
        attempts = c[f"{prefix}.attempts"]
        m[f"{prefix}.attempts"] = attempts
        m[f"{prefix}.accept_ratio"] = c[f"{prefix}.accepts"] / attempts if attempts else 0.0
        m[f"{prefix}.self_s"] = tot[prefix][1]
    calls_self("loopgas.gibbs.step")
    calls_self("loopgas.loops.fill_bridges")
    fb_calls = tot["loopgas.loops.fill_bridges"][0]
    rows = c["loopgas.loops.fill_bridges.rows"]
    m["loopgas.loops.fill_bridges.rows_per_call"] = rows / fb_calls if fb_calls else 0.0
    calls_self("loopgas.loops.LoopConfiguration.copy")
    m["loopgas.loops.LoopConfiguration.copy.bytes"] = c["loopgas.loops.LoopConfiguration.copy.bytes"]
    for fn in ("loop_time_integral", "pairing", "winding_masses", "sample_free_poisson_batch"):
        calls_self(f"loopgas.free.{fn}")
    m["loopgas.free.sample_free_poisson_batch.loops"] = c["loopgas.free.sample_free_poisson_batch.loops"]
    calls_self("loopgas.checks.integration_by_parts_check")
    calls_self("loopgas.checks.trace_identity_check")
    calls_self("loopgas.checks.mean_pairing", calls=False)
    calls_self("expansion.mayer_coefficient")
    calls_self("expansion.convergence_radius")
    calls_self("thermal.fields.sample_fields")
    m["thermal.fields.sample_fields.bytes"] = c["thermal.fields.sample_fields.bytes"]
    calls_self("thermal.fields.covariance")
    calls_self("thermal.fields.pair_field")
    calls_self("thermal.perturb.perturbation_action_batch")
    m["thermal.perturb.perturbation_action_batch.bytes"] = c["thermal.perturb.perturbation_action_batch.bytes"]
    calls_self("thermal.perturb.mollify")
    calls_self("thermal.perturb.reweighted_state", calls=False)
    calls_self("thermal.mixing.renormalized_mixing", calls=False)
    for fn in ("exact_partition", "exact_occupations", "exact_zero_mode_statistics"):
        calls_self(f"fock.{fn}")
    m["fock.states"] = c["fock.states"]
    m["fock.bytes"] = c["fock.bytes"]
    calls_self("spectral.auto_torus_spectrum", calls=False)
    calls_self("spectral.critical_density", calls=False)
    calls_self("spectral.solve_mu")
    m["spectral.modes"] = c["spectral.modes"]
    return m


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "self_s":
        return "s"
    if last == "bytes":
        return "bytes"
    if last in ("accept_ratio", "overhead_frac", "coverage_frac"):
        return "ratio"
    if last == "rows_per_call":
        return "rows"
    return "count"
