"""Every public module-level function or class of the package is used by the
program itself: nothing public exists only so that a test can call it."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "multispec"

# from_table is the documented entry point for explicit groups, such as
# non-abelian ones, that no built-in group kind enumerates
ALLOWED = {"from_table"}


def _references(path: Path) -> dict[str, set[int]]:
    """The lines of the file on which each name is read, accessed as an
    attribute or written as a whole string constant (the bench lists the
    functions it wraps by name)."""
    lines = defaultdict(set)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            lines[node.id].add(node.lineno)
        elif isinstance(node, ast.Attribute):
            lines[node.attr].add(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            lines[node.value].add(node.lineno)
    return lines


def unreferenced_public_names() -> list[str]:
    """Public top-level definitions of src/multispec/*.py with no reference
    in src/ or bench/ outside their own definition. The package's
    __init__.py only re-exports, so its imports are not references."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert PACKAGE / "cli.py" in modules, f"no package sources under {PACKAGE}"
    files = modules + sorted((ROOT / "bench").glob("*.py"))
    references = {p: _references(p) for p in files}
    unused = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            used = any(
                any(line not in own for line in lines[node.name])
                if p == path
                else node.name in lines
                for p, lines in references.items()
            )
            if not used:
                unused.append(node.name)
    return unused


def test_no_public_name_is_only_for_tests():
    assert sorted(set(unreferenced_public_names()) - ALLOWED) == []
