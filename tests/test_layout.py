"""The package holds only what a command runs: the imports of the command
entry points reach every module under src/cdckit, and none of those modules
imports test code."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PKG = TESTS.parent / "src" / "cdckit"
ROOTS = ("__main__", "cli", "corpus")    # `python -m cdckit`, its commands, the corpus runner


def _imports(name: str) -> tuple[set[str], set[str]]:
    """The cdckit modules that module `name` imports, and the top-level
    names of every other module it imports."""
    own: set[str] = set()
    other: set[str] = set()
    for node in ast.walk(ast.parse((PKG / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            dotted = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module.split(".") if node.module else []
            if node.level:
                base = ["cdckit"] + base
            dotted = [base + [alias.name] for alias in node.names]
        else:
            continue
        for parts in dotted:
            if parts[0] != "cdckit":
                other.add(parts[0])
                continue
            own.add("__init__")
            if len(parts) > 1 and (PKG / f"{parts[1]}.py").exists():
                own.add(parts[1])
    return own, other


def test_every_module_is_reached_from_a_command():
    reached: set[str] = set()
    todo = list(ROOTS)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += _imports(name)[0]
    assert {p.stem for p in PKG.glob("*.py")} - reached == set()


def test_no_module_imports_test_code():
    test_modules = {p.stem for p in TESTS.glob("*.py")} | {"tests"}
    for path in sorted(PKG.glob("*.py")):
        assert _imports(path.stem)[1] & test_modules == set(), path.name
