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


def test_every_text_open_names_its_encoding():
    # the locale's encoding is not UTF-8 everywhere, and ids need not be ASCII
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            kw = {k.arg: k.value for k in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else kw.get("mode")
            binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
            if not binary and "encoding" not in kw:
                found.append(f"{path.name}:{node.lineno}: open without encoding=")
    assert found == []


# Private names one module may still take from another: (user, owner, name).
PRIVATE_USES = {
    ("cli", "validator", "_check"),
    ("cli", "normalizer", "_lower"),
    ("validator", "normalizer", "_flatten"),
}


def import_edges(tree: ast.AST) -> set[tuple[str, str]]:
    """(owner, name) for each name a module imports from another sdflow
    module with `from .owner import name`; `from . import owner` imports
    the whole module, named "*"."""
    edges = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module is None:
            edges.update((a.name, "*") for a in node.names)
        elif node.level == 1:
            edges.update((node.module, a.name) for a in node.names)
        elif node.level == 0 and (node.module or "").startswith("sdflow."):
            edges.update((node.module.removeprefix("sdflow."), a.name) for a in node.names)
    return edges


def private_uses(path: Path) -> set[tuple[str, str, str]]:
    """(module, owner, name) for each `_`-prefixed name of another sdflow
    module that `path` imports or reads as an attribute."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    user = path.stem
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {(user, owner, name) for owner, name in import_edges(tree) if private(name)}
    modules = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for a in node.names}
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


# The sdflow modules each module may import.  A module without an entry
# fails the rule, so a new module must declare what it may import.
_ALL = {"codegen", "errors", "kinds", "mil", "model_ir", "normalizer", "sdf_core",
        "sil", "trace", "translator", "validator"}
IMPORTS = {
    "__init__": _ALL,
    "cli": _ALL,
    "codegen": {"errors", "kinds", "sdf_core", "trace"},
    "errors": set(),
    "kinds": {"errors"},
    "mil": {"errors", "kinds", "model_ir", "trace"},
    "model_ir": {"errors", "kinds"},
    "normalizer": {"errors", "kinds", "model_ir"},
    "sdf_core": {"errors", "kinds", "trace"},
    "sil": {"errors", "kinds", "mil", "sdf_core", "trace"},
    "trace": {"errors", "kinds"},
    "translator": {"errors", "kinds", "model_ir", "normalizer", "sdf_core"},
    "validator": {"errors", "kinds", "model_ir", "normalizer"},
}

# The verification boundary.  MIL runs the block diagram, SIL replays the
# schedule and codegen emits C from it; their traces agree only as
# evidence that the translation is right if no engine borrows another's
# plumbing or the front end's.
NEVER = {
    "mil": {"normalizer", "sdf_core", "sil", "translator"},
    "sil": {"mil", "model_ir", "normalizer"},
    "codegen": {"mil", "model_ir", "normalizer", "sil"},
}
# Edges across the boundary that remain, by name: SIL fires an opaque
# subsystem through MIL's engine until subsystems become nested graphs.
CROSSINGS = {("sil", "mil", "EmbeddedDiagram")}


def edges_by_module() -> dict[str, set[tuple[str, str]]]:
    return {p.stem: import_edges(ast.parse(p.read_text(encoding="utf-8")))
            for p in SRC.glob("*.py")}


def test_every_module_declares_what_it_imports():
    edges = edges_by_module()
    assert sorted(edges) == sorted(IMPORTS)
    undeclared = sorted((user, owner) for user, es in edges.items()
                        for owner, _ in es if owner not in IMPORTS[user])
    assert undeclared == []


def test_engines_stay_independent():
    edges = edges_by_module()
    assert {owner for owner, _ in edges["trace"]} <= {"errors", "kinds"}
    crossings = {(user, owner, name) for user, es in edges.items()
                 for owner, name in es if owner in NEVER.get(user, ())}
    assert sorted(crossings - CROSSINGS) == []
    # a crossing no module makes any more leaves the list
    assert sorted(CROSSINGS - crossings) == []


def test_only_sdf_core_and_cli_build_or_check_a_schedule():
    # a replay gets its schedule from sdf_core.firing_plan, so the engines
    # take the one the caller built or checked instead of deciding again
    callers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in ("build_schedule", "check_schedule"):
                    callers.add(path.stem)
    assert sorted(callers - {"cli", "sdf_core"}) == []
