"""The library holds what the scheme, the analysis suite and the CLI reach.

Every top-level function and class in src/spanse/ must be named somewhere
in src/spanse/ outside its own definition. Code that only tests call
belongs in the tests (dense oracles go in tests/oracles.py).
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spanse"

# (module, name): why a definition with no library caller stays
ALLOWED = {
    ("serial", "deserialize"): "dispatch on the object-type byte; criterion 9 fuzzes "
                               "mutated bytes of every object type through it",
    ("analysis", "brute_force_log2"): "the published brute-force forgery bound that "
                                      "criterion 4 reproduces",
}


def _names(node: ast.AST) -> Counter:
    """Names and attribute names used under node; an import alone does not count."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def test_every_library_definition_is_reached():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = Counter()
    for tree in trees.values():
        everywhere += _names(tree)
    defined, unreached = set(), []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.add((module, node.name))
            outside = everywhere[node.name] - _names(node)[node.name]
            if outside == 0 and (module, node.name) not in ALLOWED:
                unreached.append(f"{module}.{node.name}")
    assert not unreached, f"defined in src/spanse/ but named nowhere else there: {unreached}"
    assert set(ALLOWED) <= defined, "stale allowlist entry"
