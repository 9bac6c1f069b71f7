"""The library holds what the scheme, the analysis suite and the CLI reach.

Every top-level function and class in src/spanse/ must be named somewhere
in src/spanse/ outside its own definition, every module-level constant
(NAME = ... at top level, dunders aside) must be read there outside its own
assignment, and every method and property of its classes other than
dunders must be reached by an attribute access (x.name) outside its own
definition: a local variable that shares its name does not count. Code that only tests call belongs in the tests (dense
oracles go in tests/oracles.py). The library imports only the standard
library, numpy and itself; scipy is a test dependency. Its modules are
layered, params, qcalg, ldgm, scheme, serial, analysis, cli, and each
imports only the ones before it, so a lower layer never reaches up for a
constant or a check that a higher one owns.
"""

import ast
import sys
import textwrap
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spanse"

# (module, name): why a definition with no library caller stays
ALLOWED: dict = {}


def _names(node: ast.AST) -> Counter:
    """Names and attribute names used under node; an import alone does not count."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _reads(node: ast.AST) -> Counter:
    """Names loaded and attribute names accessed under node: a store is no read."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _constants(node: ast.stmt) -> list[str]:
    """The names a top-level assignment binds, dunders aside."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets
            if isinstance(t, ast.Name) and not (t.id.startswith("__") and t.id.endswith("__"))]


def _attributes(node: ast.AST) -> Counter:
    """Attribute names accessed under node, as in x.name."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _unreached(trees: dict[str, ast.Module]) -> tuple[list[str], set]:
    """(definitions no other code reaches, every (module, name) defined)."""
    everywhere, read, accessed = Counter(), Counter(), Counter()
    for tree in trees.values():
        everywhere += _names(tree)
        read += _reads(tree)
        accessed += _attributes(tree)
    defined, unreached = set(), []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _constants(node):
                defined.add((module, name))
                if read[name] == _reads(node)[name] and (module, name) not in ALLOWED:
                    unreached.append(f"{module}.{name}")
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
    assert _unreached({"m": ast.parse(source)})[0] == ["m.Box.size", "m.TOTAL"]


def test_constant_read_only_in_its_own_assignment_is_unreached():
    # a local of the same name that is only stored does not read LIMIT;
    # WIDTH and HEIGHT are read by other code, and dunders are exempt
    source = textwrap.dedent("""
        LIMIT = 3
        WIDTH: int = 8
        HEIGHT = WIDTH + 1
        __version__ = "1"

        def area():
            LIMIT = 2
            return WIDTH * HEIGHT

        AREA = area()
    """)
    assert _unreached({"m": ast.parse(source)})[0] == ["m.LIMIT", "m.AREA"]


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


# the library's modules from the bottom layer up: each may import only the
# ones to its left
LAYERS = ("params", "qcalg", "ldgm", "scheme", "serial", "analysis", "cli")


def _sibling_imports(tree: ast.Module) -> set[str]:
    """Sibling modules imported anywhere in a file, at any depth: relative
    (`from .x import y`, `from . import x`) or absolute (spanse.x)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("spanse.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "spanse":
                    continue
                module = module.removeprefix("spanse").lstrip(".")
            found |= {module.split(".")[0]} if module else {alias.name for alias in node.names}
    return found


def _layer_violations(trees: dict[str, ast.Module]) -> list[str]:
    """`module -> sibling` for every import of a module at or right of it in LAYERS."""
    return [f"{module} -> {sibling}" for module, tree in trees.items() if module in LAYERS
            for sibling in sorted(_sibling_imports(tree))
            if sibling in LAYERS and LAYERS.index(sibling) >= LAYERS.index(module)]


def test_each_module_imports_only_the_layers_below_it():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert set(trees) == set(LAYERS) | {"__init__", "__main__"}, "a module missing from LAYERS"
    assert not _layer_violations(trees)


def test_a_lazy_or_package_relative_import_of_a_higher_layer_is_a_violation():
    source = textwrap.dedent("""
        from .qcalg import QCMatrix
        from . import ldgm

        def late():
            from . import analysis, params
            import spanse.cli
            from spanse.scheme import keygen
            return analysis
    """)
    trees = {"ldgm": ast.parse(source)}
    assert _layer_violations(trees) == ["ldgm -> analysis", "ldgm -> cli", "ldgm -> ldgm",
                                        "ldgm -> scheme"]
