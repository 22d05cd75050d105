"""Rules on the library source itself, checked by parsing it."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "sdflow"


def test_no_assert_and_no_copy_module():
    # runtime invariants raise errors, since python -O strips assert; the
    # stages share what they leave unchanged instead of copying it
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif (isinstance(node, ast.Import) and any(a.name == "copy" for a in node.names)
                  or isinstance(node, ast.ImportFrom) and node.module == "copy"):
                found.append(f"{path.name}:{node.lineno}: import of copy")
    assert found == []


# Private names one module may still take from another: (user, owner, name).
PRIVATE_USES = {
    ("cli", "validator", "_check"),
    ("cli", "normalizer", "_lower"),
    ("codegen", "interpreter", "_firing_plan"),
    ("validator", "normalizer", "_flatten"),
}


def private_uses(path: Path) -> set[tuple[str, str, str]]:
    """(module, owner, name) for each `_`-prefixed name of another sdflow
    module that `path` imports or reads as an attribute."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    user = path.stem
    found, modules = set(), {}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module is None:
            modules.update((a.asname or a.name, a.name) for a in node.names)
            continue
        if node.level == 1:
            owner = node.module
        elif node.level == 0 and (node.module or "").startswith("sdflow."):
            owner = node.module.removeprefix("sdflow.")
        else:
            continue
        found.update((user, owner, a.name) for a in node.names if private(a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and private(node.attr)):
            found.add((user, modules[node.value.id], node.attr))
    return found


def test_private_names_stay_in_their_module():
    uses = set().union(*(private_uses(p) for p in SRC.glob("*.py")))
    assert sorted(uses - PRIVATE_USES) == []
    # an entry no module needs any more leaves the list
    assert sorted(PRIVATE_USES - uses) == []
