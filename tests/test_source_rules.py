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
