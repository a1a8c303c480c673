"""Every public top-level function and class of the package, and every
public method of such a class, is referenced by other package code; what
only the tests, the demos or the benchmark reach belongs in `tests/`, not
`src/`.

A definition counts as referenced when a `Name` or `Attribute` node with
its name appears somewhere in the package outside the definition itself,
so recursion does not count.  The exceptions are one list."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coarsegeo"

UNREACHED = {
    # the paper's lemma audits, which only tests run until one table of
    # audits reaches them
    "lemma_g_excess", "hull_thickness_audit", "near_region_check", "hull_transfer_check",
    "tuple_center", "far_projection_check", "realization_defects", "product_factor_sum",
    "sum_distance_audit", "subsegment_efficiency_closure",
    # cache hooks for the benchmark and the tests
    "clear_caches", "reset_cache",
}


def _names(node: ast.AST) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public(body: list[ast.stmt]) -> list:
    return [node for node in body if isinstance(node, DEFS) and not node.name.startswith("_")]


def unreferenced(sources: dict[str, str]) -> list[str]:
    """`module.name` of each public top-level function or class, and
    `module.Class.name` of each public method of a public top-level
    class, in `sources` (module name -> source text) that nothing else
    in them refers to."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    refs = sum((_names(tree) for tree in trees.values()), Counter())
    defs = [(f"{mod}.{node.name}", node) for mod, tree in trees.items()
            for node in _public(tree.body)]
    defs += [(f"{qual}.{meth.name}", meth) for qual, node in list(defs)
             if isinstance(node, ast.ClassDef) for meth in _public(node.body)]
    return [qual for qual, node in defs if refs[node.name] == _names(node)[node.name]]


def test_every_public_definition_is_reached_by_package_code():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    found = {q.split(".", 1)[1] for q in unreferenced(sources)}
    assert not found - UNREACHED, f"only tests, demos or the benchmark reach: {found - UNREACHED}"
    assert not UNREACHED - found, f"exceptions package code now reaches: {UNREACHED - found}"


def test_the_guard_finds_an_unreferenced_function():
    source = ("def used():\n    return 1\n\n"
              "def unused():\n    return used()\n\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
              "def _private():\n    pass\n\n"
              "class Kept:\n"
              "    def called(self):\n        return self.called\n\n"
              "    def uncalled(self):\n        return self.called()\n\n"
              "    def _private(self):\n        pass\n\n"
              "KEPT = Kept\n")
    assert unreferenced({"m": source}) == ["m.unused", "m.recursive", "m.Kept.uncalled"]
