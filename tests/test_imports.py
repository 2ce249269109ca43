"""No module imports a name it never uses.

An AST scan of every module of the package and of the test suite: a name
bound by an import statement (at any depth) must be read somewhere in the
same module, or be re-exported through its `__all__`.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "ainfinity").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by imports in `source` that no expression reads and
    `__all__` does not list, in order of appearance."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_scan_flags_an_unused_import():
    source = "import os\nfrom sys import argv, path\n__all__ = ['path']\n"
    assert unused_imports(source) == ["os", "argv"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
