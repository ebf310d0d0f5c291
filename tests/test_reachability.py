"""Every public top-level name of bosegas, every member of a public class
and every defaulted parameter of a public function or method is reached by
what the toolkit runs or reports, or is kept on purpose with its reason.

A name is reached when code in src/bosegas outside the package __init__.py
files reads it (as a name, an attribute or an imported name), or when it is a
word of perfbench/*.py or configs/*.  A member (a method, property or
annotated dataclass field of a public class) is reached when that code reads
it as an attribute, or when it is such a word.  A defaulted parameter is
reached when some call in src/bosegas (outside __init__.py), perfbench/*.py
or tests/*.py passes it, by keyword, by position or through * or **: a call
matches by the callee's last name, a class call is a call of its __init__,
perfbench's ops.call(name, fn, ...) is a call of fn, and a function stored as
a dict value in src/bosegas (a dispatch table) is passed every argument.  A
setting that no caller varies is a value written where it is used.  The
names kept without such a caller are the entries of KEEP, the members those
of KEEP_MEMBERS, the parameters those of KEEP_PARAMS; an entry that is now
reached, or no longer defined, fails the check too, so no list can go stale.
The scan is static: it imports nothing.
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

# function.param or Class.method.param -> why it keeps a default that no call passes
KEEP_PARAMS = {}


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


def _last_name(node):
    """The last name of a callee expression: f for f, obj.f and pkg.mod.f."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def defaulted_params(tree) -> dict:
    """'function.param' or 'Class.method.param' -> (callee name, positional
    parameter names) for each defaulted parameter of the public functions and
    the __init__ and public methods of the public classes a module defines at
    top level.  A method's positional names leave out self (or cls); a class
    is called by its own name for its __init__."""
    params = {}

    def add(fn, owner):
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        if owner and not any(_last_name(d) == "staticmethod" for d in fn.decorator_list):
            positional = positional[1:]
        names = positional[len(positional) - len(args.defaults):] if args.defaults else []
        names += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        qual = f"{owner}.{fn.name}" if owner else fn.name
        for name in names:
            params[f"{qual}.{name}"] = (owner if fn.name == "__init__" else fn.name, positional)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            add(node, None)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (item.name == "__init__" or not item.name.startswith("_")):
                    add(item, node.name)
    return params


def calls(tree, tables: bool) -> list:
    """(callee name, passed) for each call under tree, passed being (number of
    positional arguments, keyword names), or None when the call passes every
    argument: through * or **, or, with tables, as a function stored as a
    dict value.  ops.call(name, fn, *args, **kwargs) is a call of fn."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name, args = _last_name(node.func), node.args
            if name == "call" and len(args) >= 2:
                name, args = _last_name(args[1]), args[2:]
            if any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in node.keywords):
                found.append((name, None))
            else:
                found.append((name, (len(args), {k.arg for k in node.keywords})))
        elif tables and isinstance(node, ast.Dict):
            found += [(_last_name(v), None) for v in node.values if _last_name(v)]
    return found


def unpassed_params(root: Path) -> tuple:
    """(defaulted parameters, those that no call passes) under root."""
    params, found = {}, []
    for path in (root / "src" / "bosegas").rglob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        params.update(defaulted_params(tree))
        found += calls(tree, tables=True)
    for path in sorted((root / "perfbench").glob("*.py")) + sorted((root / "tests").glob("*.py")):
        found += calls(ast.parse(path.read_text()), tables=False)
    by_callee = {}
    for name, passed in found:
        by_callee.setdefault(name, []).append(passed)

    def is_passed(param, callee, positional):
        for passed in by_callee.get(callee, ()):
            if passed is None or param in passed[1]:
                return True
            if param in positional and positional.index(param) < passed[0]:
                return True
        return False

    unpassed = {p for p, (callee, positional) in params.items()
                if not is_passed(p.rsplit(".", 1)[1], callee, positional)}
    return set(params), unpassed


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


def test_every_defaulted_parameter_is_passed_or_kept():
    _, unpassed = unpassed_params(ROOT)
    assert sorted(unpassed - KEEP_PARAMS.keys()) == []


def test_keep_params_list_is_not_stale():
    params, unpassed = unpassed_params(ROOT)
    assert sorted(p for p in KEEP_PARAMS if p not in unpassed or p not in params) == []


def test_scan_finds_defaulted_params_and_calls():
    tree = ast.parse(
        "class Box:\n"
        "    def __init__(self, L, d=3):\n"
        "        pass\n"
        "    def area(self, scale=1.0, *, unit=None):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def make(n=2):\n"
        "        pass\n"
        "    def _hidden(self, x=0):\n"
        "        pass\n"
        "def helper(x, tol=1e-9):\n"
        "    return Box(x, 2).area(unit='m') + helper(x, *extra) + ops.call('op', mod.helper, x, tol=1)\n"
        "TABLE = {'h': helper}\n"
    )
    assert defaulted_params(tree) == {
        "Box.__init__.d": ("Box", ["L", "d"]),
        "Box.area.scale": ("area", ["scale"]),
        "Box.area.unit": ("area", ["scale"]),
        "Box.make.n": ("make", ["n"]),
        "helper.tol": ("helper", ["x", "tol"]),
    }
    assert sorted(calls(tree, tables=False), key=str) == sorted(
        [("Box", (2, set())), ("area", (0, {"unit"})), ("helper", None), ("helper", (1, {"tol"}))], key=str)
    assert ("helper", None) in calls(ast.parse("TABLE = {'h': helper}"), tables=True)


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
