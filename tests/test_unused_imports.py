"""No module of the package or of the tests imports a name it never reads.

A name a module re-exports on purpose carries `# noqa: F401` on its import
line.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "yangsym").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in read:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {bound}")
    return unused


def test_every_imported_name_is_read():
    assert SOURCES
    assert [u for path in SOURCES for u in _unused_imports(path)] == []
