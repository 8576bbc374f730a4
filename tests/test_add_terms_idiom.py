"""Term dicts are summed through `pbw.add_terms`; the add-and-drop-zero loop
is written out only in the kernels where a call per term would cost time."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "yangsym"

# `_extend` and the single-term concatenations of `suffix_bracket` and
# `mul_terms` are the straightening kernels; the other three reconcile
# elements or matrix entries, not a batch of terms.  `_insert` adds each
# exchange correction that is already normal whole, as it climbs back: one
# `add_terms` batch per climb step ran the `straighten` benchmark 4.7% slower
# on op_p50_ms and 3.3% on op_tail_ms (median of 6 alternating pairs, slower
# in 6 of 6)
ALLOWED = {
    "pbw.add_terms",
    "pbw.RewriteSystem._extend",
    "pbw.RewriteSystem._insert",
    "pbw.RewriteSystem.suffix_bracket",
    "pbw.AlgebraContext.mul_terms",
    "pbw.AlgebraElement.__add__",
    "tensor.TensorMatrix.__add__",
    "tensor.trace_partial",
}


def _drops_a_key(node):
    """An `elif key in d:` whose body deletes d[key]."""
    test = node.test
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.In)):
        return False
    key, d = ast.dump(test.left), ast.dump(test.comparators[0])
    return any(isinstance(stmt, ast.Delete) and any(
        isinstance(t, ast.Subscript) and ast.dump(t.value) == d and ast.dump(t.slice) == key
        for t in stmt.targets) for stmt in node.body)


def _functions_that_drop_keys(tree, prefix):
    found = set()

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}")
                continue
            if isinstance(child, ast.If):
                if any(isinstance(e, ast.If) and _drops_a_key(e) for e in child.orelse):
                    found.add(name)
            visit(child, name)

    visit(tree, prefix)
    return found


def test_only_the_kernels_write_out_the_zero_dropping_loop():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _functions_that_drop_keys(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert "pbw.add_terms" in found
    assert found - ALLOWED == set()
