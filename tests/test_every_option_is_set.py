"""Every defaulted parameter of a package function is passed by some call
site in the source, the tests, the demos or the benchmark; a parameter
that only ever takes its default is a setting nobody uses, and it goes.

Calls are matched by the called name (``f(...)``, ``obj.f(...)``), and a
class's ``__init__`` by the class name.  A parameter counts as passed
when a matching call names it as a keyword or reaches its position with
positional arguments; ``*args`` reaches every position and ``**kwargs``
every keyword.  Lambdas are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coarsegeo"
CALLERS = [ROOT / "src", ROOT / "tests", ROOT / "demos", ROOT / "perfbench"]


def _call_sites() -> dict[str, list[ast.Call]]:
    sites: dict[str, list[ast.Call]] = {}
    for top in CALLERS:
        for path in sorted(top.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name is not None:
                    sites.setdefault(name, []).append(node)
    return sites


def _defaulted(fn: ast.FunctionDef, is_method: bool) -> list[tuple[str, int | None]]:
    """(name, position in a call) of each defaulted parameter; keyword-only
    parameters have no position."""
    positional = fn.args.posonlyargs + fn.args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in fn.decorator_list)
    skip = 1 if is_method and not static else 0
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def _definitions(tree: ast.Module):
    """(called name, def, is_method) for every def in the module."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = cls if cls is not None and child.name == "__init__" else child.name
                yield name, child, cls is not None
                yield from visit(child, None)
            else:
                yield from visit(child, cls)
    yield from visit(tree, None)


def _passed(call: ast.Call, name: str, pos: int | None) -> bool:
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if pos is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > pos


SITES = _call_sites()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_defaulted_parameter_is_passed_somewhere(path):
    unset = []
    for called, fn, is_method in _definitions(ast.parse(path.read_text())):
        for name, pos in _defaulted(fn, is_method):
            if not any(_passed(c, name, pos) for c in SITES.get(called, [])):
                unset.append(f"{called}({name})")
    assert not unset, f"{path.name}: parameters no call sets: {unset}"
