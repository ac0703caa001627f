"""Every public module-level function or class of the package, and every
public method or property of a public class, is used by the program itself:
nothing public exists only so that a test can call it."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "multispec"

# from_table is the documented entry point for explicit groups, such as
# non-abelian ones, that no built-in group kind enumerates
ALLOWED = {"from_table"}

# members only tests read, each with the reason it stays
ALLOWED_MEMBERS = {
    "TruncatedCanopy.graph": "the tree as a FiniteGraph, built by generic code; "
    "the independent oracle that canopy.tree_adjacency is checked against",
    "EigenvectorCertificate.dense": "the certificate as a full-length vector, "
    "which acceptance criterion 1 reads for its Gram and eigenvalue checks",
}


def _references(path: Path, attributes_only: bool = False) -> dict[str, set[int]]:
    """The lines of the file on which each name is read, accessed as an
    attribute or written as a whole string constant (the bench lists the
    functions it wraps by name); with attributes_only, attribute accesses
    alone."""
    lines = defaultdict(set)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            lines[node.attr].add(node.lineno)
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name):
            lines[node.id].add(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            lines[node.value].add(node.lineno)
    return lines


def _modules() -> list[Path]:
    """The package sources but __init__.py, which only re-exports, so its
    imports are not references."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert PACKAGE / "cli.py" in modules, f"no package sources under {PACKAGE}"
    return modules


def _unreferenced(definitions, attributes_only: bool) -> list[str]:
    """The labels of the (path, label, node) definitions whose name has no
    reference in src/ or bench/ outside the definition itself."""
    files = _modules() + sorted((ROOT / "bench").glob("*.py"))
    references = {p: _references(p, attributes_only) for p in files}
    unused = []
    for path, label, node in definitions:
        own = range(node.lineno, node.end_lineno + 1)
        used = any(
            any(line not in own for line in lines[node.name])
            if p == path
            else node.name in lines
            for p, lines in references.items()
        )
        if not used:
            unused.append(label)
    return unused


def _public_definitions(body):
    return [
        node
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def unreferenced_public_names() -> list[str]:
    """Public top-level definitions of src/multispec/*.py with no reference
    in src/ or bench/ outside their own definition."""
    definitions = [
        (path, node.name, node)
        for path in _modules()
        for node in _public_definitions(ast.parse(path.read_text()).body)
    ]
    return _unreferenced(definitions, attributes_only=False)


def _public_members():
    for path in _modules():
        for cls in _public_definitions(ast.parse(path.read_text()).body):
            if isinstance(cls, ast.ClassDef):
                for node in _public_definitions(cls.body):
                    yield path, f"{cls.name}.{node.name}", node


def unreferenced_public_members() -> list[str]:
    """Public methods and properties of the public classes, as Class.member,
    whose name is never read as an attribute in src/ or bench/ outside their
    own definition. A member is matched by name alone, so any attribute of
    that name counts as a use."""
    return _unreferenced(list(_public_members()), attributes_only=True)


def test_no_public_name_is_only_for_tests():
    assert sorted(set(unreferenced_public_names()) - ALLOWED) == []


def test_no_public_member_is_only_for_tests():
    assert sorted(set(unreferenced_public_members()) - set(ALLOWED_MEMBERS)) == []


def test_allowed_members_exist():
    members = {label for _, label, _ in _public_members()}
    assert set(ALLOWED_MEMBERS) <= members
