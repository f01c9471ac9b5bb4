"""Static guard on the public API of ``src/dfan``.

Every top-level function and class must be reachable from the command
line: named, through any chain of names, from ``cli.run`` or ``cli.main``
or from module-level code outside a definition.  A definition that only
dead definitions name is dead too, and ``__init__.py`` names nothing on
behalf of the package.  The grammar entry points that build test inputs
are the only exemptions.  Every method or property of a class must be
read as an attribute outside its own body, dunders and the documented
test-facing members aside.  An object's private attributes are set by
its own methods alone.  Every name in ``dfan.__all__`` must resolve."""

import ast
import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dfan"
README = SRC.parents[1] / "README.md"
ENTRY_POINTS = {"run", "main"}
EXEMPT = {"parse_op", "parse_dt_op", "parse_dt_vec"}
# (class, member) read only by tests: the certificate's replay
TEST_FACING = {("FlatCertificate", "replay")}


def _names(node):
    """Every name and attribute name read anywhere inside ``node``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _definitions_and_roots():
    """({top-level def or class name: (module, names its body reads)},
    names read by module-level code outside every definition)."""
    defs, roots = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                module, names = defs.get(node.name, (path.name, set()))
                defs[node.name] = (module, names | _names(node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names(node)
    return defs, roots


def unreached():
    """(module, name) of each top-level definition no command reaches."""
    defs, roots = _definitions_and_roots()
    reached, todo = set(), list(ENTRY_POINTS | roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        if name in defs:
            todo.extend(defs[name][1] - reached)
    return sorted(
        (module, name)
        for name, (module, _) in defs.items()
        if name not in reached and name not in EXEMPT
    )


def test_every_definition_is_reached_from_the_command_line():
    assert unreached() == []


def test_the_exemptions_are_still_defined():
    defs, _ = _definitions_and_roots()
    assert EXEMPT <= set(defs)


def unread_members(sources):
    """Sorted (class, member) of each method or property, dunders aside,
    that no code in ``sources`` reads as an attribute outside the
    member's own body.  A read ``self.m`` inside class C reads the member
    m of C, or of the base of C that defines it (not an override in a
    subclass of C); every other read, and a ``self.m`` that no class of
    ``sources`` defines, reads each member named m."""
    classes = {
        cls.name: cls
        for tree in map(ast.parse, sources)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
    }
    members = {
        (cls.name, node.name): node
        for cls in classes.values()
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }

    def owner(name, m):
        """The class among ``name`` and its bases that defines m."""
        if (name, m) in members:
            return name
        for base in getattr(classes.get(name), "bases", ()):
            found = isinstance(base, ast.Name) and owner(base.id, m)
            if found:
                return found
        return None

    read = set()

    def visit(node, cls, inside):
        # inside: the members whose bodies enclose node
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef) and (cls, node.name) in members:
            inside = inside | {(cls, node.name)}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = owner(cls, node.attr) if (
                cls and isinstance(node.value, ast.Name) and node.value.id == "self"
            ) else None
            hits = [(base, node.attr)] if base else [
                key for key in members if key[1] == node.attr
            ]
            read.update(key for key in hits if key not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, cls, inside)

    for source in sources:
        visit(ast.parse(source), None, frozenset())
    return sorted(set(members) - read)


def test_the_guard_finds_unread_members():
    source = (
        "class A:\n"
        "    def used(self):\n        return self.helper()\n"
        "    def helper(self):\n        return 1\n"
        "    def selfish(self, n):\n        return n and self.selfish(n - 1)\n"
        "    @property\n    def unread(self):\n        return 2\n"
        "    def __repr__(self):\n        return 'A'\n"
        "def f(a):\n    return a.used()\n"
    )
    assert unread_members([source]) == [("A", "selfish"), ("A", "unread")]


def test_the_guard_tells_apart_members_of_one_name():
    # B.step shares its name with the live A.step, which only A reads
    # through self; C reads A.size through self as its base's member
    source = (
        "class A:\n"
        "    def run(self):\n        return self.step() + self.size()\n"
        "    def step(self):\n        return 1\n"
        "    def size(self):\n        return 2\n"
        "class B:\n"
        "    def step(self):\n        return 3\n"
        "    def size(self):\n        return 4\n"
        "class C(A):\n"
        "    def more(self):\n        return self.step()\n"
        "def f(a, c):\n    return a.run() + c.more()\n"
    )
    assert unread_members([source]) == [("B", "size"), ("B", "step")]


def test_every_member_is_read_outside_its_body():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unread_members(sources) == sorted(TEST_FACING)


def test_every_exported_name_resolves():
    namespace = {}
    exec("from dfan import *", namespace)
    import dfan

    assert all(name in namespace for name in dfan.__all__)
    assert len(set(dfan.__all__)) == len(dfan.__all__)


def test_the_readme_cap_table_lists_every_cap():
    # each row: | `NAME` | `dfan.module` | value | what it limits |
    rows = re.findall(
        r"^ *\| `(\w+)` \| `(dfan\.\w+)` \| ([\d,]+) \|", README.read_text(), re.M
    )
    raised = {
        name
        for path in SRC.rglob("*.py")
        for name in re.findall(r'cap="(\w+)"', path.read_text())
    }
    assert sorted(name for name, _, _ in rows) == sorted(raised)
    for name, module, value in rows:
        assert getattr(importlib.import_module(module), name) == int(value.replace(",", ""))


def test_the_readme_module_table_lists_every_module():
    # each row: | `dfan.module` | contents |
    rows = re.findall(r"^\| `dfan\.(\w+)` \|", README.read_text(), re.M)
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(rows) == sorted(modules)


# The functions of ``re`` that take a pattern and look it up in the regex
# module's cache on every call.
RE_PATTERN_CALLS = {"match", "fullmatch", "search", "findall", "finditer", "sub", "subn", "split"}


def pattern_calls(source):
    """(line, name) of each call of a pattern function of ``re`` in
    ``source``, through ``re.<name>(...)`` or a name imported from ``re``."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "re"
        for alias in node.names
        if alias.name in RE_PATTERN_CALLS
    }
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id == "re"
            and f.attr in RE_PATTERN_CALLS
        ):
            out.append((node.lineno, f.attr))
        elif isinstance(f, ast.Name) and f.id in imported:
            out.append((node.lineno, f.id))
    return out


def test_the_guard_finds_pattern_calls():
    source = (
        "import re\nfrom re import findall as fa\n_P = re.compile('x')\n"
        "def f(t):\n    _P.fullmatch(t)\n    re.fullmatch(r'\\d+', t)\n    return fa('x', t)\n"
    )
    assert pattern_calls(source) == [(6, "fullmatch"), (7, "fa")]


def test_no_module_matches_through_a_pattern_string():
    # patterns are compiled once at module level, so no command pays the
    # regex cache lookup of re.fullmatch(pattern, text) per piece it reads
    found = {
        path.name: pattern_calls(path.read_text())
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: calls for name, calls in found.items() if calls} == {}


def foreign_private_sets(source):
    """Sorted lines of the assignments, plain, augmented or annotated,
    that set an underscore attribute of an object other than ``self``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(
            isinstance(t, ast.Attribute)
            and isinstance(t.ctx, ast.Store)
            and t.attr.startswith("_")
            and not (isinstance(t.value, ast.Name) and t.value.id == "self")
            for target in targets
            for t in ast.walk(target)
        ):
            out.append(node.lineno)
    return sorted(out)


def test_the_guard_finds_foreign_private_sets():
    source = (
        "class A:\n    def __init__(self):\n        self._x = 1\n"
        "        self._y, self.z = 2, 3\n"
        "def f(a, b):\n    a._x = 4\n    b.c, (a._y, a._z) = 5, (6, 7)\n"
        "    a._x += 1\n    a.public = 8\n    self = a\n    a.b._c: int = 9\n"
    )
    assert foreign_private_sets(source) == [6, 7, 8, 11]


def test_private_attributes_are_set_by_their_owner_alone():
    # a basis builds its integer record in its constructor: no caller
    # reaches into another object to set a cache by hand
    found = {
        path.name: foreign_private_sets(path.read_text())
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
