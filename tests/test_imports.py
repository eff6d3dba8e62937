"""Every name a module of the package imports is used in that module,
and every top-level function and class of the package, and every method
and property of its classes, is read by the package or the benchmark.
No module pops the head of a list.

No linter runs on this package, so these scans stand in for the
unused-import and dead-code checks: an import nothing reads is either
dead code or a sign that a caller was rewired and the old dependency
left behind, and a function only tests call belongs with the tests.  A
list popped at its head is a hand-rolled queue; a search goes through
trees.breadth_first, whose order every artifact depends on.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ttdef"
BENCH = PACKAGE.parent.parent / "bench"

# Top-level names no caller reads, each with the ROADMAP item that will
# call it or the reason it stays.
UNREAD_ALLOWED = {
    "encode_prefix": "item 1(c), words from counterexample trees",
}


def unused_imports(source):
    """Names bound by an import statement anywhere in source that no
    expression of the module reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = ("import os\nfrom json import dumps, loads\n"
              "from dataclasses import field as f\n"
              "def g():\n    import sys\n    return loads(os.sep)\n")
    assert unused_imports(source) == [(2, "dumps"), (3, "f"), (5, "sys")]


def queue_pops(source):
    """Lines of the .pop(0) calls in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "pop" and len(node.args) == 1
                  and isinstance(node.args[0], ast.Constant)
                  and node.args[0].value == 0)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_list_is_popped_at_its_head(path):
    assert queue_pops(path.read_text()) == []


def test_the_scan_sees_a_queue():
    source = ("queue = [1]\nfor x in queue:\n    queue.pop()\n"
              "while queue:\n    x = queue.pop(0)\n"
              "seen.pop(0, None)\nqueue.pop(1)\nhead = [queue.pop(0)]\n")
    assert queue_pops(source) == [5, 8]


def _reads(node):
    """Names node loads or takes as an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _methods(cls):
    """The methods and properties of a class statement; dunders are left
    out, since Python calls them by protocol, not by name."""
    return [stmt for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (stmt.name.startswith("__") and stmt.name.endswith("__"))]


def unread_definitions(package, readers):
    """(module, name) of every top-level function and class of the
    package sources, and (module, "Class.name") of every method and
    property of a package class, that no code reads: neither the package
    outside the definition itself nor the reader sources.  A name counts
    as read where it is loaded or taken as an attribute, so module.name
    and obj.name are reads too.  package and readers map file names to
    source text."""
    defined = []
    read = set()
    sources = [(name, text, True) for name, text in package.items()]
    sources += [(name, text, False) for name, text in readers.items()]
    for module, source, own in sources:
        for stmt in ast.parse(source).body:
            if not own or not isinstance(stmt, (ast.FunctionDef,
                                                ast.ClassDef)):
                read |= _reads(stmt)
                continue
            defined.append((module, stmt.name))
            methods = (_methods(stmt) if isinstance(stmt, ast.ClassDef)
                       else [])
            for method in methods:
                defined.append((module, "%s.%s" % (stmt.name, method.name)))
                read |= _reads(method) - {stmt.name, method.name}
            rest = [sub for sub in ast.iter_child_nodes(stmt)
                    if sub not in methods]
            for sub in rest:
                read |= _reads(sub) - {stmt.name}
    return sorted((module, name) for module, name in defined
                  if name.rpartition(".")[2] not in read)


def test_every_definition_is_read():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = {p.name: p.read_text() for p in sorted(BENCH.glob("*.py"))}
    unread = unread_definitions(package, readers)
    assert sorted(name for _, name in unread) == sorted(UNREAD_ALLOWED)


def test_the_scan_sees_an_unused_function():
    package = {"m.py": "def used():\n    return 1\n"
                       "def unused():\n    return unused()\n"
                       "class Kept:\n    pass\n",
               "n.py": "from .m import Kept, used\nx = used() and Kept\n"}
    readers = {"b.py": "import m\nm.used\n"}
    assert unread_definitions(package, readers) == [("m.py", "unused")]
    package["n.py"] = "from .m import Kept\nx = Kept\n"
    assert unread_definitions(package, readers) == [("m.py", "unused")]
    del readers["b.py"]
    assert unread_definitions(package, readers) == [("m.py", "unused"),
                                                    ("m.py", "used")]


def test_the_scan_sees_an_unused_method():
    package = {"m.py": "class Shape:\n"
                       "    def __init__(self):\n        self.size = 1\n"
                       "    def used(self):\n        return self.grow()\n"
                       "    def grow(self):\n        return self.grow()\n"
                       "    def unused(self):\n        return self.unused()\n"
                       "    @property\n    def area(self):\n"
                       "        return Shape().size\n"
                       "s = Shape()\n"}
    readers = {"b.py": "from m import s\ns.used()\n"}
    assert unread_definitions(package, readers) == [("m.py", "Shape.area"),
                                                    ("m.py", "Shape.unused")]
    readers["b.py"] += "s.area\n"
    assert unread_definitions(package, readers) == [("m.py", "Shape.unused")]
    del readers["b.py"]
    # grow stays read: used calls it, and only its own call is discounted
    assert unread_definitions(package, readers) == [
        ("m.py", "Shape.area"), ("m.py", "Shape.unused"), ("m.py", "Shape.used")]
