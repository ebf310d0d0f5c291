"""Every public top-level name of bosegas, and every member of a public
class, is reached by what the toolkit runs or reports, or is kept on purpose
with its reason.

A name is reached when code in src/bosegas outside the package __init__.py
files reads it (as a name, an attribute or an imported name), or when it is a
word of perfbench/*.py or configs/*.  A member (a method, property or
annotated dataclass field of a public class) is reached when that code reads
it as an attribute, or when it is such a word.  The names kept without such a
caller are the entries of KEEP, the members those of KEEP_MEMBERS; an entry
that is now reached, or no longer defined, fails the check too, so neither
list can go stale.  The scan is static: it imports nothing.
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

# Class.member -> why it stays with no attribute read in src/ and no word in perfbench/ or configs/
KEEP_MEMBERS = {
    **{f"GibbsChain.propose_{move}": "dispatched by name in GibbsChain.step"
       for move in ("delete", "shift", "redraw", "merge", "cut")},
    "ResultRecord.config_hash": "written to results.csv and results.json through asdict",
    "ResultRecord.code_version": "written to results.csv and results.json through asdict",
    "ConvergenceEstimate.C_error": "the error of C_value, from which radius_error is derived",
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


def public_members(tree) -> set:
    """'Class.member' for the methods, properties and annotated fields of the
    public classes a module defines at top level, bar _private and dunder ones."""
    members = set()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.add(f"{node.name}.{item.name}")
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                members.add(f"{node.name}.{item.target.id}")
    return {m for m in members if not m.split(".")[1].startswith("_")}


def attribute_reads(tree) -> set:
    """Attribute names read (loaded, not stored) anywhere under tree."""
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def scan(root: Path) -> tuple:
    """(defined, reached, members, read) over the package under
    root/src/bosegas: public names and the names reached, public members and
    the attribute names read; both reached sets hold the shipped words."""
    defined, reached, members, read = set(), set(), set(), set()
    for path in (root / "src" / "bosegas").rglob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        defined |= public_names(tree)
        reached |= referenced(tree)
        members |= public_members(tree)
        read |= attribute_reads(tree)
    shipped = sorted((root / "perfbench").glob("*.py")) + sorted((root / "configs").glob("*"))
    for path in shipped:
        words = set(re.findall(r"\w+", path.read_text()))
        reached |= words
        read |= words
    return defined, reached, members, read


def test_every_public_name_is_reached_or_kept():
    defined, reached, _, _ = scan(ROOT)
    assert sorted(defined - reached - KEEP.keys()) == []


def test_keep_list_is_not_stale():
    defined, reached, _, _ = scan(ROOT)
    assert sorted(name for name in KEEP if name in reached or name not in defined) == []


def test_every_public_member_is_read_or_kept():
    _, _, members, read = scan(ROOT)
    assert sorted(m for m in members - KEEP_MEMBERS.keys() if m.split(".")[1] not in read) == []


def test_keep_members_list_is_not_stale():
    _, _, members, read = scan(ROOT)
    assert sorted(m for m in KEEP_MEMBERS if m.split(".")[1] in read or m not in members) == []


def test_scan_finds_public_names_and_reads():
    tree = ast.parse(
        "import numpy as np\n"
        "from .regions import kernel\n"
        "LIMIT = 3\n"
        "_private = 1\n"
        "class Box:\n"
        "    side: float\n"
        "    def method(self):\n"
        "        self.cache = 1\n"
        "        return np.pi + helper(self.side)\n"
        "    @property\n"
        "    def area(self):\n"
        "        return self.side**2\n"
        "    def _hidden(self):\n"
        "        return 0\n"
        "def helper(x):\n"
        "    return x\n"
    )
    assert public_names(tree) == {"LIMIT", "Box", "helper"}
    assert {"np", "numpy", "kernel", "pi", "helper", "side", "self"} <= referenced(tree)
    assert "LIMIT" not in referenced(tree) and "Box" not in referenced(tree)
    assert public_members(tree) == {"Box.side", "Box.method", "Box.area"}
    assert attribute_reads(tree) == {"pi", "side"}
