"""Every module-level function and class of the package has a caller.

A def or class in src/spoofsense counts as used when its name appears as a
Name, an Attribute or an imported name somewhere in src/, scripts/ or
perfbench/ other than its own definition.  Tests do not count: code that
only tests call is deleted, and its tests call what is left.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "scripts", "perfbench")
PACKAGE = ROOT / "src" / "spoofsense"


def references(node):
    """Counter of the names node refers to as Names, Attributes or import aliases."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rpartition(".")[2]] += 1
    return out


def test_every_package_definition_has_a_caller():
    trees = {p: ast.parse(p.read_text(), str(p))
             for d in SCANNED for p in sorted((ROOT / d).rglob("*.py"))}
    used = sum(map(references, trees.values()), Counter())
    uncalled = [
        "%s.%s" % (path.stem, node.name)
        for path, tree in trees.items() if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and used[node.name] <= references(node)[node.name]
    ]
    assert uncalled == []
