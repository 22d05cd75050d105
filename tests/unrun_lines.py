"""List the lines of src/sdflow that the tier-1 suite never runs.

    python tests/unrun_lines.py [pytest args...]

Runs the suite in this process under a sys.settrace line tracer, then
lists every line of a function body in src/sdflow that never ran (a
lambda's and a comprehension's count; the `def` line, module and class
bodies do not).  Only this process is traced: the few tests that run the
command line as a subprocess add nothing.  Each line is keyed as
`module:function: source text`, so that the key survives edits elsewhere
in the file, and the list is compared with tests/unrun_allowed.txt, whose
entries are such keys, each followed by ` -- ` and the reason it may stay
unrun.  Prints the unrun lines the list does not allow and the entries
that no longer name an unrun line; exits 1 if there are any, or if the
suite fails.  Standard library only; the name keeps pytest from
collecting it.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from inspect import CO_OPTIMIZED
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sdflow"
ALLOWED = Path(__file__).resolve().parent / "unrun_allowed.txt"


def body_lines(path: Path) -> dict[int, str]:
    """Each line with code in a function body of `path`, and the name of
    the innermost function that holds it."""
    found: dict[int, str] = {}

    def walk(code):
        if code.co_flags & CO_OPTIMIZED:
            for _, _, line in code.co_lines():
                if line is not None and line != code.co_firstlineno:
                    found[line] = code.co_qualname
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
    return found


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status on `args`, and the lines run per file of SRC."""
    import pytest

    prefix = str(SRC) + os.sep
    ran: dict[str, set[int]] = {}
    # a code object whose every body line has run needs no more tracing
    left: dict[object, set[int]] = {}
    done: set[object] = set()

    def local(frame, event, arg):
        if event == "line":
            code = frame.f_code
            ran[code.co_filename].add(frame.f_lineno)
            rest = left[code]
            rest.discard(frame.f_lineno)
            if not rest:
                done.add(code)
                return None
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if code in done or not code.co_filename.startswith(prefix):
            return None
        if code not in left:
            ran.setdefault(code.co_filename, set())
            left[code] = {line for _, _, line in code.co_lines()
                          if line is not None and line != code.co_firstlineno}
        return local

    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # the tests that run the command line as a process import the same tree
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    sys.settrace(on_call)  # the suite starts no thread
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    return int(status), ran


def unrun(ran: dict[str, set[int]]) -> Counter:
    """The keys of the body lines that never ran, with their multiplicity."""
    keys: Counter = Counter()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        seen = ran.get(str(path), set())
        for line, fn in sorted(body_lines(path).items()):
            if line not in seen:
                keys[f"{path.stem}:{fn}: {text[line - 1].strip()}"] += 1
    return keys


def allowed() -> Counter:
    keys: Counter = Counter()
    for ln in ALLOWED.read_text(encoding="utf-8").splitlines():
        if ln.strip() and not ln.startswith("#"):
            key, sep, reason = ln.rpartition(" -- ")
            if not sep or not reason.strip():
                raise SystemExit(f"{ALLOWED.name}: an entry needs ' -- reason': {ln!r}")
            keys[key.strip()] += 1
    return keys


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    status, ran = run_traced(argv or ["tests"])
    found, ok = unrun(ran), allowed()
    extra, stale = found - ok, ok - found
    for key in sorted(extra.elements()):
        print(f"unrun: {key}")
    for key in sorted(stale.elements()):
        print(f"allowed but run or gone: {key}")
    print(f"{sum(found.values())} unrun lines, {sum(ok.values())} allowed; "
          f"tests exited {status}")
    return 1 if status or extra or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
