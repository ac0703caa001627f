"""Every float literal below 1e-6 in the package sits in a module-level
UPPER_CASE constant, so each tolerance and window is defined once, by name."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "multispec"
SMALL = 1e-6


def unnamed_small_literals(source: str) -> list[str]:
    """line: value for each float literal 0 < |x| < SMALL outside the
    module-level assignments to UPPER_CASE names."""
    tree = ast.parse(source)
    named = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if all(isinstance(t, ast.Name) and t.id.isupper() for t in targets):
            named.update(id(sub) for sub in ast.walk(node))
    return [
        f"{node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < abs(node.value) < SMALL
        and id(node) not in named
    ]


def test_detector_flags_unnamed_literals():
    source = "TOL = 1e-9\nwindow = 1e-7\ndef f(x):\n    return x < 2e-8 or x > 1e-3\n"
    assert unnamed_small_literals(source) == ["2: 1e-07", "4: 2e-08"]


def test_small_float_literals_are_named_constants():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "spectral.py" in sources, f"no package sources under {PACKAGE}"
    hits = [
        f"{path.name}:{hit}"
        for path in sources
        for hit in unnamed_small_literals(path.read_text())
    ]
    assert hits == []
