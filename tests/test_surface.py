"""The library holds what the scheme, the analysis suite and the CLI reach.

Every top-level function and class in src/spanse/ must be named somewhere
in src/spanse/ outside its own definition, and every method and property
of its classes other than dunders must be reached by an attribute access
(x.name) outside its own definition: a local variable that shares its
name does not count. Code that only tests call belongs in the tests (dense
oracles go in tests/oracles.py). The library imports only the standard
library, numpy and itself; scipy is a test dependency.
"""

import ast
import sys
import textwrap
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


def _attributes(node: ast.AST) -> Counter:
    """Attribute names accessed under node, as in x.name."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _unreached(trees: dict[str, ast.Module]) -> tuple[list[str], set]:
    """(definitions no other code reaches, every (module, name) defined)."""
    everywhere, accessed = Counter(), Counter()
    for tree in trees.values():
        everywhere += _names(tree)
        accessed += _attributes(tree)
    defined, unreached = set(), []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.add((module, node.name))
            outside = everywhere[node.name] - _names(node)[node.name]
            if outside == 0 and (module, node.name) not in ALLOWED:
                unreached.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                # methods and properties; dunders are reached by the language
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef)
                            and not (member.name.startswith("__") and member.name.endswith("__"))
                            and accessed[member.name] == _attributes(member)[member.name]):
                        unreached.append(f"{module}.{node.name}.{member.name}")
    return unreached, defined


def test_every_library_definition_is_reached():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unreached, defined = _unreached(trees)
    assert not unreached, f"defined in src/spanse/ but named nowhere else there: {unreached}"
    assert set(ALLOWED) <= defined, "stale allowlist entry"


def test_member_named_only_by_a_local_variable_is_unreached():
    source = textwrap.dedent("""
        class Box:
            @property
            def size(self):
                return 1

            @property
            def width(self):
                return 2

        def make(size):
            return Box().width + size

        TOTAL = make(3)
    """)
    assert _unreached({"m": ast.parse(source)})[0] == ["m.Box.size"]


def test_library_imports_only_stdlib_and_numpy():
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += [f"{path.name}: {root}" for root in roots
                        if root not in sys.stdlib_module_names and root not in ("numpy", "spanse")]
    assert not foreign, f"src/spanse/ imports outside the stdlib and numpy: {foreign}"
