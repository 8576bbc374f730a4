"""Sizes are refused by `pbw.as_size` alone: no other function raises a
message that states a size bound.  The index checks (`perm_op`, `r_chain`,
`t_leg`, `matrix_on_leg`: "need 1 <= l < m <= k" and the like) bound an
index by a size, not a size, and are not matched."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "yangsym"

# the phrasings of a hand-written size check, and the one of `as_size`
SIZE_BOUND = re.compile(r"must be (>=|non-negative|a positive integer)|need \S+ >= ")


def _message(call):
    """The text of the first argument of a raised call, placeholders as {}."""
    if not (isinstance(call, ast.Call) and call.args):
        return ""
    arg = call.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in arg.values)
    return ""


def _functions_that_state_a_size_bound(tree, prefix):
    found = set()

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and SIZE_BOUND.search(_message(child.exc)):
                found.add(name)
            visit(child, name)

    visit(tree, prefix)
    return found


def test_only_as_size_states_a_size_bound():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _functions_that_state_a_size_bound(
            ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == {"pbw.as_size"}
