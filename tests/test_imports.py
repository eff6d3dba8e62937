"""Every name a module of the package imports is used in that module.

No linter runs on this package, so this scan stands in for the
unused-import check: an import nothing reads is either dead code or a
sign that a caller was rewired and the old dependency left behind.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ttdef"


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
