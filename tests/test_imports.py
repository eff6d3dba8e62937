"""Every name a module of the package imports is used in that module,
and every top-level function and class of the package, and every method
and property of its classes, is read by the package or the benchmark.
No module pops the head of a list, only the functions named in
BOTTOM_UP_CALLERS explore a product bottom-up, only those named in
RULE_TABLE_READERS read a machine's rule table, and only the units named
in LPAR_HOLDERS hold the token kind "lpar".

Every field of a budget class is read by the package outside the
class.

No linter runs on this package, so these scans stand in for the
unused-import and dead-code checks: an import nothing reads is either
dead code or a sign that a caller was rewired and the old dependency
left behind, and a function only tests call belongs with the tests.  A
list popped at its head is a hand-rolled queue; a search goes through
trees.breadth_first, whose order every artifact depends on.  A
construction that calls trees.explore_bottom_up itself hand-rolls the
step the look-ahead refinements share in constructions._refine.  A
function that reads a rule table itself may be a new walker over it,
where semantics._occurrence_steps is the one step of an att over a tree.
A unit that looks for an "lpar" token may be a new parser of terms,
where trees.parse_tree_tokens is the one term parser of spec text.
A budget field nothing reads is a knob that bounds nothing.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ttdef"
BENCH = PACKAGE.parent.parent / "bench"

# Top-level names no caller reads, each with the ROADMAP item that will
# call it or the reason it stays.
UNREAD_ALLOWED = {}


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


# The functions that may call trees.explore_bottom_up: the walk analysis's
# two fixpoints, the two bottom-up constructions whose states are not a
# look-ahead state with a table, the look-ahead refinement the others
# share, and bounded_equivalence's behaviour classes, explored up to a
# height.
BOTTOM_UP_CALLERS = {"analysis.all_isds", "analysis.Shapes._build",
                     "constructions.associate",
                     "constructions._range_automaton",
                     "constructions._refine",
                     "functionality._equal_on_classes"}


def _units(source):
    """(unit, node) for each top-level function, each method, the rest of
    each class body and the rest of the module, named as readers names
    them."""
    units = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ClassDef):
            units += [("%s.%s" % (stmt.name, sub.name)
                       if isinstance(sub, ast.FunctionDef) else stmt.name, sub)
                      for sub in stmt.body]
        else:
            units.append((stmt.name if isinstance(stmt, ast.FunctionDef)
                          else "<module>", stmt))
    return units


def readers(source, module, name):
    """module.name of every top-level function and module.Class.name of
    every method of source that reads name, nested functions included;
    module.Class for the rest of a class body and module.<module> for the
    rest of the module."""
    return sorted({"%s.%s" % (module, unit) for unit, node in _units(source)
                   if name in _reads(node)})


def holders(source, module, value):
    """The units of source, named as readers names them, whose code holds
    the constant value."""
    return sorted({"%s.%s" % (module, unit) for unit, node in _units(source)
                   if any(isinstance(sub, ast.Constant) and sub.value == value
                          for sub in ast.walk(node))})


def test_only_the_allowed_functions_explore_bottom_up():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += readers(path.read_text(), path.stem, "explore_bottom_up")
    assert sorted(found) == sorted(BOTTOM_UP_CALLERS)


def test_the_scan_sees_a_bottom_up_caller():
    source = ("from .trees import explore_bottom_up\nfrom . import trees\n"
              "def fuse(rel):\n    def step(sym, combo):\n        return 1\n"
              "    return explore_bottom_up(rel.input, step)\n"
              "class Shapes:\n    def build(self):\n"
              "        return trees.explore_bottom_up(self.alpha, self.step)\n"
              "    def plug(self):\n        return 1\n"
              "def other():\n    return breadth_first([], None)\n"
              "ORDER = explore_bottom_up(ALPHA, step)\n")
    assert readers(source, "m", "explore_bottom_up") == [
        "m.<module>", "m.Shapes.build", "m.fuse"]


# The functions that may read a rule table: the one occurrence step of an
# att over a tree, the crossing summaries and the walk analysis's
# successors, which step an att on classes of subtrees, the top-down
# run's compiled rules and the transducer's determinism, the two-way
# machine built from an att's table, and the one-way oracle's two scans
# of a candidate transducer.
RULE_TABLE_READERS = {"analysis._successors", "model.TdttSpec.deterministic",
                      "one_way._not_word_shaped", "one_way._word_steps",
                      "semantics.Crossings.__init__",
                      "semantics._occurrence_steps",
                      "semantics._top_down_rules",
                      "word_transducers.build_two_way"}


def test_only_the_allowed_functions_read_a_rule_table():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += readers(path.read_text(), path.stem, "rule_table")
    assert sorted(found) == sorted(RULE_TABLE_READERS)


def test_the_scan_sees_a_rule_table_reader():
    source = ("class Spec:\n    @property\n    def rule_table(self):\n"
              "        return {}\n    def first(self):\n"
              "        return self.rule_table.get(1)\n"
              "def walk(a, s):\n    def step(occ):\n"
              "        return a.rule_table[occ]\n    return step\n"
              "def other(a):\n    return a.rules\n")
    assert readers(source, "m", "rule_table") == ["m.Spec.first", "m.walk"]


# The units that may hold the token kind "lpar": the lexer's table, the
# one term parser, and the att rule's left-hand side a(pi i), which is
# read token by token.
LPAR_HOLDERS = {"trees.<module>", "trees.parse_tree_tokens",
                "model._build_att"}


def test_only_the_term_parser_looks_for_an_open_parenthesis():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += holders(path.read_text(), path.stem, "lpar")
    assert sorted(found) == sorted(LPAR_HOLDERS)


def test_the_scan_sees_a_token_kind():
    source = ('KINDS = {"(": "lpar"}\n'
              'def parse(toks):\n    return toks[0][0] == "lpar"\n'
              'class Parser:\n    def step(self, tok):\n'
              '        return tok[0] in ("lpar", "rpar")\n'
              '    def other(self, tok):\n        return tok.lpar\n'
              'def rest(toks):\n    return "rpar", lpar\n')
    assert holders(source, "m", "lpar") == [
        "m.<module>", "m.Parser.step", "m.parse"]


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


BUDGETS = ("DefinabilityBudget", "BudgetConfig", "StepBudget",
           "FunctionalityBudget")


def unread_fields(package, classes):
    """(class, field) of every field of the named classes that no code
    of the package reads outside the class itself.  A field is an
    annotated name in the class body; it is read where an attribute of
    that name is loaded.  package maps file names to source text."""
    declared = []
    read = set()
    for source in package.values():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.ClassDef) and stmt.name in classes:
                declared += [(stmt.name, sub.target.id) for sub in stmt.body
                             if isinstance(sub, ast.AnnAssign)
                             and isinstance(sub.target, ast.Name)]
                continue
            read |= {sub.attr for sub in ast.walk(stmt)
                     if isinstance(sub, ast.Attribute)
                     and isinstance(sub.ctx, ast.Load)}
    return sorted(f for f in declared if f[1] not in read)


def test_every_budget_field_is_read():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    # a budget class renamed away would leave nothing to scan
    assert {stmt.name for source in package.values()
            for stmt in ast.parse(source).body
            if isinstance(stmt, ast.ClassDef)} >= set(BUDGETS)
    assert unread_fields(package, BUDGETS) == []


def test_the_scan_sees_an_unread_field():
    package = {"m.py": "class Budget:\n"
                       "    depth: int = 4\n    steps: int = 10\n"
                       "    words: int = 5\n    note = 'not a field'\n"
                       "    def coerce(self):\n        return self.words\n"
                       "class Other:\n    size: int = 1\n",
               "n.py": "def run(b):\n    b.depth = 1\n    return b.steps\n"}
    # words is read only inside Budget, depth only assigned
    assert unread_fields(package, ("Budget",)) == [("Budget", "depth"),
                                                   ("Budget", "words")]
    package["n.py"] += "def size(b):\n    return b.depth + b.words\n"
    assert unread_fields(package, ("Budget",)) == []
    assert unread_fields(package, ("Budget", "Other")) == [("Other", "size")]
