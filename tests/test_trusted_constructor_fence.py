"""A model point is stored once, as its key tuple, and two fences keep
that form inside `surfmodel.py`.

`ModelPoint._trusted` builds a point from state keys without the
per-state checks, so only two places may reach it:
`ModelPoint.with_state`, which checks the one state key it changes, and
`StandardFlat.eval_rows`, whose keys are valid by construction.  Any
other mention of the name in the package fails; so does one of the two
that no longer uses it, since the fence would then be stale.  The
layout of `_key` is known to `surfmodel.py` alone: any other package
module that mentions a `_key` attribute fails."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coarsegeo"
ALLOWED = {("surfmodel.py", "ModelPoint.with_state"), ("pathsflats.py", "StandardFlat.eval_rows")}


def _mentions(node: ast.AST, scope: str, name: str):
    """(enclosing def or class, line) of each mention of `name`: an
    attribute, a bare name or a string such as a getattr argument."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _mentions(child, f"{scope}.{child.name}" if scope else child.name, name)
            continue
        if ((isinstance(child, ast.Attribute) and child.attr == name)
                or (isinstance(child, ast.Name) and child.id == name)
                or (isinstance(child, ast.Constant) and child.value == name)):
            yield scope, child.lineno
        yield from _mentions(child, scope, name)


def _found(name: str) -> set[tuple[str, str, int]]:
    return {(path.name, scope, line) for path in sorted(PACKAGE.glob("*.py"))
            for scope, line in _mentions(ast.parse(path.read_text()), "", name)}


def test_trusted_constructor_is_called_only_where_its_output_is_valid():
    found = _found("_trusted")
    outside = sorted(f"{name}:{line} in {scope or 'module'}"
                     for name, scope, line in found if (name, scope) not in ALLOWED)
    assert not outside, f"ModelPoint._trusted reached from {outside}"
    assert {(name, scope) for name, scope, _ in found} == ALLOWED


def test_key_layout_is_read_only_in_surfmodel():
    outside = sorted(f"{name}:{line} in {scope or 'module'}"
                     for name, scope, line in _found("_key") if name != "surfmodel.py")
    assert not outside, f"a _key attribute is read outside surfmodel.py: {outside}"
