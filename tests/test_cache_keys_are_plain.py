"""Every `functools.lru_cache` in the package wraps a function whose
parameters are all annotated `int`, `float` or `str`.

A cache keyed by such values hashes and compares its keys in C, and an
entry keeps no object of the package alive.  A cache keyed by `Slope`
or any other dataclass runs the generated Python `__hash__` on every
lookup and `__eq__` on every hit, which is what the Farey layer's
caches did before they were keyed by ints; this test keeps such a
cache from coming back unnoticed.  Caches are found in the source, as
decorators (`@lru_cache(...)`, `@functools.lru_cache`, `@cache`) and as
calls (`lru_cache(maxsize=n)(f)` for a function f of the module)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coarsegeo"
PLAIN = {"int", "float", "str"}


def _is_cache(node) -> bool:
    fn = node.func if isinstance(node, ast.Call) else node
    name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
    return name in ("lru_cache", "cache")


def _cached_functions(tree: ast.Module) -> list[ast.FunctionDef]:
    defs = {node.name: node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    out = [fn for fn in defs.values() if any(_is_cache(d) for d in fn.decorator_list)]
    for node in ast.walk(tree):  # lru_cache(...)(f)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Call) \
                and _is_cache(node.func):
            arg = node.args[0] if node.args else None
            if not (isinstance(arg, ast.Name) and arg.id in defs):
                raise AssertionError(f"line {node.lineno}: a cache of a function "
                                     "this test cannot read")
            out.append(defs[arg.id])
    return out


def _unplain_parameters(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    bad = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
           if not (isinstance(a.annotation, ast.Name) and a.annotation.id in PLAIN)]
    return bad + [f"*{v.arg}" for v in (args.vararg, args.kwarg) if v is not None]


def _offenders(source: str) -> dict[str, list[str]]:
    return {fn.name: bad for fn in _cached_functions(ast.parse(source))
            if (bad := _unplain_parameters(fn))}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_cache_is_keyed_by_plain_values(path):
    assert _offenders(path.read_text()) == {}


def test_the_farey_caches_are_found():
    tree = ast.parse((PACKAGE / "surfmodel.py").read_text())
    names = {fn.name for fn in _cached_functions(tree)}
    assert names == {"_transport_at", "_distance_at", "_geodesic_at"}


def test_a_slope_keyed_cache_is_refused():
    source = '''
import functools
from functools import lru_cache

@lru_cache(maxsize=10)
def by_ints(p: int, q: int, t: float, name: str) -> int: ...

@functools.lru_cache(maxsize=10)
def by_slope(core: Slope) -> int: ...

@lru_cache
def unannotated(p, q: int): ...

def later(a: "Slope", *rest: int): ...

wrapped = lru_cache(maxsize=5)(later)
'''
    assert _offenders(source) == {"by_slope": ["core"], "unannotated": ["p"],
                                  "later": ["a", "*rest"]}
