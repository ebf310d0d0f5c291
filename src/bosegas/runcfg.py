"""Run configuration: flat key-value text with sections (INI dialect).

Every numeric field is range-checked at parse time and unknown keys are
rejected, with section/key diagnostics.  The schema is documented in the
README; values are scalars or comma-separated lists.
"""

import configparser
import math
from dataclasses import dataclass, field

from .errors import ConfigError

KINDS = ("ideal", "gauss", "loops", "expand", "oracle", "check")


def _float(lo=None, hi=None, lo_open=False):
    def conv(s, where):
        try:
            v = float(s)
        except ValueError:
            raise ConfigError(f"{where}: expected a number, got {s!r}")
        if not math.isfinite(v):
            raise ConfigError(f"{where}: expected a finite number, got {s!r}")
        if lo is not None and (v <= lo if lo_open else v < lo):
            raise ConfigError(f"{where}: {v} below the allowed range")
        if hi is not None and v > hi:
            raise ConfigError(f"{where}: {v} above the allowed range")
        return v

    return conv


def _int(lo=None, hi=None):
    def conv(s, where):
        try:
            v = int(s)
        except ValueError:
            raise ConfigError(f"{where}: expected an integer, got {s!r}")
        if lo is not None and v < lo:
            raise ConfigError(f"{where}: {v} below the allowed range")
        if hi is not None and v > hi:
            raise ConfigError(f"{where}: {v} above the allowed range")
        return v

    return conv


def _list(base):
    """Comma-separated values, each converted by `base`."""

    def conv(s, where):
        return [base(tok.strip(), where) for tok in s.split(",") if tok.strip()]

    return conv


def _str_enum(*options):
    def conv(s, where):
        if s not in options:
            raise ConfigError(f"{where}: expected one of {options}, got {s!r}")
        return s

    return conv


def _bool(s, where):
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {s!r}")


def _str(s, where):
    return s


def _potential(spec, where):
    """A potential spec, none | hardcore:a | gauss:A,w with every parameter a
    positive number, as it is; a ConfigError naming `where` otherwise."""
    name, colon, args = spec.partition(":")
    params = args.split(",") if colon else []
    if {"none": 0, "hardcore": 1, "gauss": 2}.get(name) != len(params):
        raise ConfigError(f"{where}: expected none | hardcore:a | gauss:A,w, got {spec!r}")
    for tok in params:
        _float(lo=0, lo_open=True)(tok, where)
    return spec


# section -> key -> (converter, required)
_COMMON = {
    "run": {
        "kind": (_str_enum(*KINDS), True),
        "seed": (_int(lo=0), False),
        "out": (_str, False),
    }
}

SCHEMAS = {
    "ideal": {
        **_COMMON,
        "physics": {
            "beta_values": (_list(_float(lo=0, lo_open=True)), True),
            "mu": (_float(), False),
            "rho": (_float(lo=0, lo_open=True), False),
        },
        "geometry": {"d": (_int(lo=1, hi=5), True), "L": (_float(lo=0, lo_open=True), True)},
    },
    "gauss": {
        **_COMMON,
        "physics": {
            "beta": (_float(lo=0, lo_open=True), True),
            "mu": (_float(lo=0), False),
            "critical": (_bool, False),
            "c": (_float(lo=0), False),
            "lam": (_float(lo=0), False),
            "poly": (_list(_float()), False),
            "mollifier": (_float(lo=0), False),
        },
        "geometry": {
            "d": (_int(lo=1, hi=3), True),
            "L": (_float(lo=0, lo_open=True), True),
            "n_x": (_int(lo=2), True),
            "n_tau": (_int(lo=2), True),
        },
        "sampler": {"n_samples": (_int(lo=2), True),
                    "volumes": (_list(_float(lo=0, lo_open=True)), False)},
        "experiment": {"name": (_str_enum("covariance", "ergodicity", "mixing", "reweight"), True)},
    },
    "loops": {
        **_COMMON,
        "physics": {
            "beta": (_float(lo=0, lo_open=True), True),
            "z": (_float(lo=0), True),
            "potential": (_potential, False),
        },
        "geometry": {
            "d": (_int(lo=1, hi=3), True),
            "L": (_float(lo=0, lo_open=True), True),
            "boundary": (_str_enum("periodic", "dirichlet"), False),
            "n_slices": (_int(lo=2), False),
        },
        # >= 40 sweeps after the n_sweeps // 5 burn-in: batch-means batches of >= 2
        "sampler": {"n_sweeps": (_int(lo=50), True), "thin": (_int(lo=1), False)},
    },
    "expand": {
        **_COMMON,
        "physics": {
            "beta": (_float(lo=0, lo_open=True), True),
            "z": (_float(lo=0), False),
            "potential": (_potential, False),
        },
        "sampler": {"n_mc": (_int(lo=10), True), "orders": (_list(_int(lo=1, hi=3)), False)},
    },
    "oracle": {
        **_COMMON,
        "physics": {
            "beta": (_float(lo=0, lo_open=True), True),
            "mu": (_float(), True),
            "vhat0": (_float(), False),
            "volume": (_float(lo=0, lo_open=True), False),
        },
        "modes": {"energies": (_list(_float(lo=0)), True), "n_max": (_int(lo=1), True)},
    },
    "check": {
        **_COMMON,
        "check": {"criteria": (_str, False)},
    },
}


@dataclass
class RunConfig:
    kind: str
    seed: int
    out: str | None
    sections: dict = field(default_factory=dict)

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)


def parse_run_config(path: str) -> RunConfig:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys are case sensitive (L vs l)
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if "run" not in cp or "kind" not in cp["run"]:
        raise ConfigError(f"{path}: missing [run] kind")
    kind = cp["run"]["kind"]
    if kind not in KINDS:
        raise ConfigError(f"{path} [run] kind: expected one of {KINDS}, got {kind!r}")
    schema = SCHEMAS[kind]
    sections = {}
    for sec in cp.sections():
        if sec == "DEFAULT":
            continue
        if sec not in schema:
            raise ConfigError(f"{path}: unknown section [{sec}] for kind {kind!r}")
        sections[sec] = {}
        for key, raw in cp[sec].items():
            if key not in schema[sec]:
                raise ConfigError(f"{path} [{sec}] {key}: unknown key for kind {kind!r}")
            conv, _ = schema[sec][key]
            sections[sec][key] = conv(raw, f"{path} [{sec}] {key}")
    for sec, keys in schema.items():
        for key, (_, required) in keys.items():
            if required and (sec not in sections or key not in sections[sec]):
                raise ConfigError(f"{path}: missing required key [{sec}] {key}")
    physics = sections.get("physics", {})
    if kind == "ideal" and ("mu" in physics) == ("rho" in physics):
        found = "both are set" if "mu" in physics else "neither is set"
        raise ConfigError(f"{path} [physics] mu, rho: set exactly one of them ({found})")
    if kind == "gauss":  # critical: mu = 0 and c > 0; noncritical: mu > 0 and no c
        critical = physics.get("critical", False)
        key, unread = ("c", "mu") if critical else ("mu", "c")
        if unread in physics or not physics.get(key, 1.0) > 0:
            raise ConfigError(f"{path} [physics] mu, c, critical: critical = {str(critical).lower()} "
                              f"takes {key} > 0 and no {unread}")
    run = sections.get("run", {})
    return RunConfig(kind=kind, seed=int(run.get("seed", 0)), out=run.get("out"), sections=sections)


def parse_potential(spec: str | None, d: int):
    """'none' | 'hardcore:a' | 'gauss:A,w' -> PairPotential or None; any
    other spec is a ConfigError naming [physics] potential."""
    from .loopgas.potential import gaussian_repulsion, hard_core

    if spec is None or _potential(spec, "[physics] potential") == "none":
        return None
    name, _, args = spec.partition(":")
    make = hard_core if name == "hardcore" else gaussian_repulsion
    return make(d, *map(float, args.split(",")))
