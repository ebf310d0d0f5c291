"""Every public top-level name of bosegas is reached by what the toolkit runs
or reports, or is kept on purpose with its reason.

A name is reached when code in src/bosegas outside the package __init__.py
files reads it (as a name, an attribute or an imported name), or when it is a
word of perfbench/*.py or configs/*.  The names kept without such a caller are
the entries of KEEP; an entry that is now reached, or no longer defined, fails
the check too, so the list cannot go stale.  The scan is static: it imports
nothing.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> why it stays with no caller in src/, perfbench/ or configs/
KEEP = {
    "char_functional": "closed form of the field measure's characteristic functional; the sampler is tested against it",
    "continuum_density": "infinite-volume density series; finite tori are tested against it",
    "periodic_mode_trace": "mode-sum form of the periodic trace; the image sum is tested against it",
    "shifted_action_batch": "the node pricing of renormalized_mixing, tested against per-shift actions",
    "weyl_expectation": "the Weyl-state value, a quantity of the paper",
    "characteristic_functional": "the free sampler's law by two independent routes",
    "reduced_density_matrix": "the loop gas's one-particle kernel, the off-diagonal order of ROADMAP item 18",
    "solve_mu_for_number": "fixed-density chemical potential of the exact Fock oracle",
    "resume_gibbs": "recovers a chain from its stored checkpoint",
    "load_field_snapshot": "reads the field snapshot that bose gauss writes",
}


def public_names(tree) -> set:
    """Names a module binds at top level by def, class or assignment, bar _private ones."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if not n.startswith("_")}


def referenced(tree) -> set:
    """Names read anywhere under tree: loaded names, attribute names and imported names."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            refs |= {a.name.split(".")[-1] for a in node.names}
    return refs


def scan(root: Path) -> tuple:
    """(defined, reached) over the package under root/src/bosegas."""
    defined, reached = set(), set()
    for path in (root / "src" / "bosegas").rglob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        defined |= public_names(tree)
        reached |= referenced(tree)
    shipped = sorted((root / "perfbench").glob("*.py")) + sorted((root / "configs").glob("*"))
    for path in shipped:
        reached |= set(re.findall(r"\w+", path.read_text()))
    return defined, reached


def test_every_public_name_is_reached_or_kept():
    defined, reached = scan(ROOT)
    assert sorted(defined - reached - KEEP.keys()) == []


def test_keep_list_is_not_stale():
    defined, reached = scan(ROOT)
    assert sorted(name for name in KEEP if name in reached or name not in defined) == []


def test_scan_finds_public_names_and_reads():
    tree = ast.parse(
        "import numpy as np\n"
        "from .regions import kernel\n"
        "LIMIT = 3\n"
        "_private = 1\n"
        "class Box:\n"
        "    def method(self):\n"
        "        return np.pi + helper(self.side)\n"
        "def helper(x):\n"
        "    return x\n"
    )
    assert public_names(tree) == {"LIMIT", "Box", "helper"}
    assert {"np", "numpy", "kernel", "pi", "helper", "side", "self"} <= referenced(tree)
    assert "LIMIT" not in referenced(tree) and "Box" not in referenced(tree)
