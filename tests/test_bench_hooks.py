"""The benchmark's hooks name live code.

perfbench/tracer.py patches bosegas functions and Gibbs moves by name, so a
function deleted or renamed in src/ must fail here, not in a benchmark run.
"""

import importlib
import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


@pytest.fixture(scope="module", autouse=True)
def perfbench_on_path():
    sys.path.insert(0, PERFBENCH)
    yield
    sys.path.remove(PERFBENCH)


def test_every_traced_target_resolves():
    tracer = importlib.import_module("tracer")
    for name, mod_name, attr, *_ in tracer.TARGETS:
        owner = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner, attr = getattr(owner, cls_name), meth
            assert attr in vars(owner), name  # patched on the class itself
        assert callable(getattr(owner, attr, None)), name


def test_every_traced_move_exists():
    from bosegas.loopgas.gibbs import GibbsChain

    tracer = importlib.import_module("tracer")
    for move in tracer.MOVES:
        assert callable(vars(GibbsChain).get(f"propose_{move}")), move


def test_workloads_import():
    workloads = importlib.import_module("workloads")
    assert os.path.samefile(os.path.dirname(workloads.__file__), PERFBENCH)
    with open(os.path.join(PERFBENCH, "..", "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS)
