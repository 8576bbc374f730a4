"""The layout of generator ids is read in `pbw` alone, through
`RewriteSystem.spell`, and the free algebra is a subclass, not a branch of
the straightening and bracket kernel."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "yangsym"


def _decoders(tree):
    """Names starting with decode_ that a module defines or imports."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {n for alias in node.names for n in (alias.name, alias.asname) if n}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names = [node.id]
        else:
            continue
        found += [f"{name}:{node.lineno}" for name in names if name.startswith("decode_")]
    return found


def _is_kind(node):
    return (isinstance(node, ast.Attribute) and node.attr == "kind"
            or isinstance(node, ast.Name) and node.id == "kind")


def _is_free(node):
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_free(e) for e in node.elts)
    return isinstance(node, ast.Constant) and node.value == "free"


def _free_tests(tree):
    """Lines in methods of RewriteSystem that compare a kind with "free"."""
    found = []
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "RewriteSystem":
            for node in ast.walk(cls):
                if isinstance(node, ast.Compare):
                    sides = [node.left, *node.comparators]
                    if any(map(_is_kind, sides)) and any(map(_is_free, sides)):
                        found.append(node.lineno)
    return found


def test_only_pbw_reads_the_id_layout():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "pbw.py":
            offenders += [f"{path.name} {d}"
                          for d in _decoders(ast.parse(path.read_text(encoding="utf-8")))]
    assert not offenders


def test_the_kernel_has_no_free_algebra_branch():
    tree = ast.parse((PACKAGE / "pbw.py").read_text(encoding="utf-8"))
    assert any(isinstance(c, ast.ClassDef) and c.name == "RewriteSystem" for c in tree.body)
    assert not _free_tests(tree)
