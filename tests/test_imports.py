"""Every name a module of bosegas imports is read somewhere, the loop gas,
the expansion and Fock run without loading scipy, and the ideal gas's roots
and critical density load neither scipy.optimize nor scipy.integrate.

A module-level import must be read in its module, a function's import in
that function (nested scopes included).  Package __init__.py files are
skipped: their imports are the package's re-exports.  String annotations
count as reads of the names they hold.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bosegas"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _bound(node) -> list:
    """(name, line) of each name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]


def _reads(tree) -> set:
    """Names loaded anywhere under tree, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
            annotations += [a.annotation for a in (args.vararg, args.kwarg) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _reads(ast.parse(ann.value, mode="eval"))
    return names


def _scope_imports(scope) -> list:
    """Import statements directly in scope's body, not in a nested function."""
    found, todo = [], list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def unread_imports(source: str) -> list:
    """(name, line) of every imported name its scope never reads."""
    tree = ast.parse(source)
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unread = []
    for scope in scopes:
        reads = _reads(scope)
        for node in _scope_imports(scope):
            unread += [(name, line) for name, line in _bound(node) if name not in reads]
    return sorted(unread, key=lambda item: item[1])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unread_import(path):
    assert unread_imports(path.read_text()) == []


def test_finds_unread_names():
    source = (
        "import os\n"
        "from dataclasses import dataclass, field\n"
        "def f(x: 'Sequence'):\n"
        "    from typing import Sequence, Mapping\n"
        "    return dataclass\n"
    )
    assert unread_imports(source) == [("os", 1), ("field", 2), ("Mapping", 4)]


# Imports every module a run starts from and makes the numpy-only calls of the
# loop gas (the gibbs-chain benchmark's chain), the expansion and Fock.
NUMPY_ONLY_RUN = textwrap.dedent("""
    import sys

    import bosegas.cli, bosegas.expansion, bosegas.fock, bosegas.loopgas, bosegas.spectral, bosegas.thermal
    from bosegas.expansion import mayer_coefficient
    from bosegas.fock import TruncatedFock, exact_traces
    from bosegas.loopgas import PERIODIC, BoxRegion, GibbsChain, gaussian_repulsion, hard_core

    V = gaussian_repulsion(3, 0.5, 0.5)
    GibbsChain(0.6, 1.0, BoxRegion(d=3, L=12.0, boundary=PERIODIC, n_slices=8), V, 1)
    mayer_coefficient(2, 1.0, hard_core(3, 1.0), None, n_mc=100)
    exact_traces(TruncatedFock(energies=[1.0, 2.0, 3.0], n_max=15), 1.0, 1.0)
    print(sorted(m for m in sys.modules if m.startswith("scipy")))
""")


def test_loop_gas_expansion_and_fock_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", NUMPY_ONLY_RUN], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


# The ideal-gas calls and the Fock root: scipy.special at most, never scipy's
# root finders or quadrature.
IDEAL_GAS_RUN = textwrap.dedent("""
    import sys

    from bosegas.fock import TruncatedFock, solve_mu_for_number
    from bosegas.spectral import analytic_dos, auto_torus_spectrum, condensate_fraction, critical_density, solve_mu

    solve_mu(auto_torus_spectrum(3, 8.0, 1.0), 1.0, 0.05)
    critical_density(1.0, analytic_dos(3))
    condensate_fraction(1.0, 0.1, analytic_dos(3))
    solve_mu_for_number(TruncatedFock(energies=[0.0, 0.5, 1.0], n_max=60), 1.0, 2.0)
    print(sorted(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules))
""")


def test_ideal_gas_roots_and_critical_density_load_no_optimize_or_integrate():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", IDEAL_GAS_RUN], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
